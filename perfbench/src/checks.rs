//! The simulated totals every run is checked on.

use amoeba_core::ServiceResult;

/// Simulated totals over every service of a run. Quiet, observed and
/// traced runs of one workload and seed must agree on all of them,
/// because telemetry never feeds back into the simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Queries submitted.
    pub submitted: u64,
    /// Queries completed.
    pub completed: u64,
    /// Queries lost to injected faults.
    pub failed: u64,
    /// Completed queries over their service's QoS target.
    pub violations: u64,
    /// Allocated core-seconds.
    pub core_seconds: f64,
    /// Deployment switches executed.
    pub switches: u64,
}

impl Totals {
    /// Sum `services`, checking conservation (`submitted == completed +
    /// failed`) for each one.
    pub fn of<'a>(services: impl IntoIterator<Item = &'a ServiceResult>) -> Result<Totals, String> {
        let mut t = Totals::default();
        for s in services {
            if s.submitted != s.completed + s.failed {
                return Err(format!(
                    "service {}: submitted {} != completed {} + failed {}",
                    s.name, s.submitted, s.completed, s.failed
                ));
            }
            t.add(&Totals {
                submitted: s.submitted as u64,
                completed: s.completed as u64,
                failed: s.failed as u64,
                violations: (s.violation_ratio() * s.latency.count() as f64).round() as u64,
                core_seconds: s.usage.core_seconds,
                switches: s.switch_history.len() as u64,
            });
        }
        Ok(t)
    }

    fn add(&mut self, other: &Totals) {
        self.submitted += other.submitted;
        self.completed += other.completed;
        self.failed += other.failed;
        self.violations += other.violations;
        self.core_seconds += other.core_seconds;
        self.switches += other.switches;
    }

    /// Check that two runs of the same inputs produced the same totals,
    /// core-seconds bit for bit.
    pub fn agree(&self, other: &Totals, what: &str) -> Result<(), String> {
        let same = self.submitted == other.submitted
            && self.completed == other.completed
            && self.failed == other.failed
            && self.violations == other.violations
            && self.core_seconds.to_bits() == other.core_seconds.to_bits()
            && self.switches == other.switches;
        if same {
            Ok(())
        } else {
            Err(format!("{what}: totals differ: {self:?} vs {other:?}"))
        }
    }

    /// QoS-violating queries as a share of completed queries, percent.
    pub fn qos_violation_pct(&self) -> f64 {
        100.0 * self.violations as f64 / self.completed.max(1) as f64
    }

    /// Completed queries as a share of submitted queries, percent.
    pub fn completed_pct(&self) -> f64 {
        100.0 * self.completed as f64 / self.submitted.max(1) as f64
    }

    /// Failed queries as a share of submitted queries, percent.
    pub fn failed_pct(&self) -> f64 {
        100.0 * self.failed as f64 / self.submitted.max(1) as f64
    }
}
