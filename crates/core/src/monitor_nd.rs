//! N-dimensional contention monitor — the §VI-A production extension.
//!
//! "In our experiment, three resource dimensions were involved. In a
//! production environment, Cloud vendors may take more diverse resources
//! contention into consideration. PCA will significantly reduce the cost
//! of the training process" (§VI-A). The main pipeline is hard-wired to
//! the paper's three metered resources for clarity; this module is the
//! generalisation a vendor would deploy with additional meters (memory
//! bandwidth, L3, network PPS, …): one profiled curve per dimension,
//! pressure inversion, and PCA weight merging over an arbitrary number
//! of dimensions.

use crate::monitor::{median_filter, MonitorConfig};
use amoeba_linalg::Pca;
use amoeba_meters::ProfileCurve;

/// A contention monitor over `R` arbitrary resource dimensions.
pub struct NdContentionMonitor {
    cfg: MonitorConfig,
    curves: Vec<ProfileCurve>,
    names: Vec<String>,
    smoothed_latency: Vec<Option<f64>>,
    recent: Vec<Vec<f64>>,
    /// The PCA window: one pressure row per heartbeat, oldest first,
    /// stored flat (row-major, `R` values per row).
    window: Vec<f64>,
    /// How many of the latest heartbeat rows are bit-identical to the
    /// newest one (saturating). Once it exceeds `pca_window`, a
    /// heartbeat leaves the window's contents unchanged.
    same_run: usize,
    weights: Vec<f64>,
    /// PCA refits run so far (heartbeats whose window changed, once
    /// `pca_min_samples` rows are in): a deterministic count the tests
    /// use to check which heartbeats the memo skips.
    refits: u64,
}

impl NdContentionMonitor {
    /// A monitor with one named, profiled meter curve per dimension.
    /// Panics on empty input or mismatched lengths.
    pub fn new(cfg: MonitorConfig, meters: Vec<(String, ProfileCurve)>) -> Self {
        assert!(!meters.is_empty(), "need at least one dimension");
        let (names, curves): (Vec<_>, Vec<_>) = meters.into_iter().unzip();
        let r = curves.len();
        NdContentionMonitor {
            cfg,
            curves,
            names,
            smoothed_latency: vec![None; r],
            recent: vec![Vec::new(); r],
            window: Vec::new(),
            same_run: 0,
            weights: vec![1.0; r],
            refits: 0,
        }
    }

    /// Number of monitored dimensions.
    pub fn dimensions(&self) -> usize {
        self.curves.len()
    }

    /// Dimension names, in weight order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Record one observed meter latency for dimension `r`.
    pub fn observe_meter_latency(&mut self, r: usize, latency_s: f64) {
        assert!(r < self.curves.len());
        if !(latency_s.is_finite() && latency_s > 0.0) {
            return;
        }
        let filtered = median_filter(&mut self.recent[r], self.cfg.median_window, latency_s);
        let s = &mut self.smoothed_latency[r];
        *s = Some(match *s {
            None => filtered,
            Some(prev) => prev + self.cfg.ewma_alpha * (filtered - prev),
        });
    }

    /// Current pressure estimate of dimension `r` (curve inversion; 0
    /// before its meter reported).
    pub(crate) fn pressure(&self, r: usize) -> f64 {
        self.smoothed_latency[r].map_or(0.0, |l| self.curves[r].pressure_at(l))
    }

    /// Current pressure estimate per dimension.
    pub fn pressures(&self) -> Vec<f64> {
        (0..self.dimensions()).map(|r| self.pressure(r)).collect()
    }

    /// Deliver one heartbeat: append the pressure vector and refresh the
    /// PCA weights.
    ///
    /// The refit is skipped when it cannot change anything: the window
    /// was already full and the new row is bit-identical to every row in
    /// it, so PCA would see exactly the input of the previous heartbeat
    /// (which refitted, or was skipped by the same rule) and return the
    /// same weights.
    pub fn heartbeat(&mut self) {
        for d in 0..self.dimensions() {
            let p = self.pressure(d);
            self.window.push(p);
        }
        self.admit_newest_row();
    }

    /// Slide the window past the row just pushed onto it, then refit
    /// unless the window's contents are unchanged.
    fn admit_newest_row(&mut self) {
        let r = self.dimensions();
        let rows = self.heartbeat_count();
        // The window never holds more than `pca_window` rows between
        // heartbeats, so a full one is over by exactly the new row.
        let was_full = rows > self.cfg.pca_window;
        let repeats = rows >= 2 && {
            let (older, newest) = self.window[(rows - 2) * r..].split_at(r);
            older
                .iter()
                .zip(newest)
                .all(|(a, b)| a.to_bits() == b.to_bits())
        };
        self.same_run = if repeats {
            self.same_run.saturating_add(1)
        } else {
            1
        };
        if was_full {
            self.window.drain(..r);
        }
        let unchanged = was_full && self.same_run > self.cfg.pca_window;
        if !self.cfg.use_pca || unchanged || self.heartbeat_count() < self.cfg.pca_min_samples {
            return;
        }
        self.refits += 1;
        if let Some(model) = Pca::default().fit_rows(&self.window, r) {
            self.weights = model.variable_importance();
        }
    }

    /// The current Eq. 6-style weights, one per dimension (sum 1 once
    /// PCA is active).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The smoothed meter latencies in seconds, one per dimension
    /// (`None` where a meter has not reported yet).
    pub fn smoothed_latencies(&self) -> &[Option<f64>] {
        &self.smoothed_latency
    }

    /// Number of heartbeat samples currently in the PCA window.
    pub fn heartbeat_count(&self) -> usize {
        self.window.len() / self.dimensions()
    }

    /// How many principal components the last PCA retained — the
    /// "merge correlated variables into as few new variables as
    /// possible" count. `None` before enough heartbeats arrived.
    pub fn retained_components(&self) -> Option<usize> {
        if self.heartbeat_count() < self.cfg.pca_min_samples || !self.cfg.use_pca {
            return None;
        }
        Pca::default()
            .fit_rows(&self.window, self.dimensions())
            .map(|m| m.retained)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_linalg::Matrix;

    fn curve(base: f64) -> ProfileCurve {
        ProfileCurve::from_sweep(vec![
            (0.0, base),
            (0.3, base * 1.3),
            (0.6, base * 2.0),
            (0.9, base * 6.0),
        ])
    }

    fn monitor(r: usize) -> NdContentionMonitor {
        let meters = (0..r)
            .map(|i| (format!("res{i}"), curve(0.05 + 0.01 * i as f64)))
            .collect();
        NdContentionMonitor::new(MonitorConfig::default(), meters)
    }

    /// Latency of the test curve at pressure u (linear segments).
    fn lat(base: f64, u: f64) -> f64 {
        let pts = [(0.0, 1.0), (0.3, 1.3), (0.6, 2.0), (0.9, 6.0)];
        for w in pts.windows(2) {
            if u <= w[1].0 {
                let f = (u - w[0].0) / (w[1].0 - w[0].0);
                return base * (w[0].1 * (1.0 - f) + w[1].1 * f);
            }
        }
        base * 6.0
    }

    #[test]
    fn construction_and_dimensions() {
        let m = monitor(5);
        assert_eq!(m.dimensions(), 5);
        assert_eq!(m.names().len(), 5);
        assert_eq!(m.pressures(), vec![0.0; 5]);
        assert_eq!(m.weights(), &[1.0; 5][..]);
    }

    #[test]
    #[should_panic(expected = "at least one dimension")]
    fn rejects_zero_dimensions() {
        NdContentionMonitor::new(MonitorConfig::default(), Vec::new());
    }

    #[test]
    fn pressures_invert_per_dimension() {
        let mut m = monitor(4);
        for _ in 0..60 {
            m.observe_meter_latency(0, lat(0.05, 0.3));
            m.observe_meter_latency(2, lat(0.07, 0.6));
        }
        let p = m.pressures();
        assert!((p[0] - 0.3).abs() < 0.02, "{p:?}");
        assert_eq!(p[1], 0.0);
        assert!((p[2] - 0.6).abs() < 0.02, "{p:?}");
        assert_eq!(p[3], 0.0);
    }

    #[test]
    fn pca_merges_two_correlated_clusters_out_of_six_dimensions() {
        // Dimensions 0-2 move together (e.g. cpu / memory-bandwidth /
        // L3), dimensions 3-4 move together (disk / disk-iops), 5 idle.
        let mut m = monitor(6);
        for i in 0..120 {
            let a = ((i % 10) as f64 / 10.0) * 0.6;
            let b = (((i / 10) % 6) as f64 / 6.0) * 0.6;
            for r in 0..3 {
                m.observe_meter_latency(r, lat(0.05 + 0.01 * r as f64, a));
            }
            for r in 3..5 {
                m.observe_meter_latency(r, lat(0.05 + 0.01 * r as f64, b));
            }
            m.observe_meter_latency(5, lat(0.10, 0.01));
            m.heartbeat();
        }
        // Two independent clusters ⇒ PCA retains ~2 components despite
        // 6 dimensions: the §VI-A cost reduction.
        let retained = m.retained_components().unwrap();
        assert!(retained <= 3, "retained {retained} of 6");
        let w = m.weights();
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // The idle dimension carries the least weight.
        let max_other = w[..5].iter().cloned().fold(0.0, f64::max);
        assert!(w[5] < max_other, "{w:?}");
    }

    #[test]
    fn three_dimensions_match_the_fixed_monitor_behaviour() {
        use crate::monitor::ContentionMonitor;
        let cfg = MonitorConfig::default();
        let fixed_curves = [curve(0.05), curve(0.06), curve(0.07)];
        let mut fixed = ContentionMonitor::new(cfg, fixed_curves.clone());
        let mut nd = NdContentionMonitor::new(
            cfg,
            fixed_curves
                .iter()
                .enumerate()
                .map(|(i, c)| (format!("r{i}"), c.clone()))
                .collect(),
        );
        for i in 0..80 {
            let u = [
                (i % 7) as f64 / 7.0 * 0.5,
                (i % 5) as f64 / 5.0 * 0.5,
                (i % 3) as f64 / 3.0 * 0.5,
            ];
            #[allow(clippy::needless_range_loop)] // r indexes two monitors + u
            for r in 0..3 {
                let l = lat(0.05 + 0.01 * r as f64, u[r]);
                fixed.observe_meter_latency(r, l);
                nd.observe_meter_latency(r, l);
            }
            fixed.heartbeat();
            nd.heartbeat();
        }
        let wf = fixed.weights();
        let wn = nd.weights();
        for r in 0..3 {
            assert!((wf[r] - wn[r]).abs() < 1e-9, "{wf:?} vs {wn:?}");
        }
        let pf = fixed.pressures();
        let pn = nd.pressures();
        for r in 0..3 {
            assert!((pf[r] - pn[r]).abs() < 1e-12);
        }
    }

    #[test]
    fn median_filter_is_mirrored_from_the_fixed_monitor() {
        use crate::monitor::ContentionMonitor;
        let cfg = MonitorConfig {
            median_window: 3,
            ..Default::default()
        };
        let fixed_curves = [curve(0.05), curve(0.06), curve(0.07)];
        let mut fixed = ContentionMonitor::new(cfg, fixed_curves.clone());
        let mut nd = NdContentionMonitor::new(
            cfg,
            fixed_curves
                .iter()
                .enumerate()
                .map(|(i, c)| (format!("r{i}"), c.clone()))
                .collect(),
        );
        for i in 0..90 {
            // Every 11th sample is a wild outlier both filters must drop.
            let l = if i % 11 == 0 {
                2.5
            } else {
                lat(0.05, (i % 6) as f64 / 6.0 * 0.5)
            };
            for r in 0..3 {
                fixed.observe_meter_latency(r, l);
                nd.observe_meter_latency(r, l);
            }
        }
        let pf = fixed.pressures();
        let pn = nd.pressures();
        for r in 0..3 {
            assert!((pf[r] - pn[r]).abs() < 1e-12, "{pf:?} vs {pn:?}");
        }
    }

    #[test]
    fn refits_stop_once_a_constant_window_is_full() {
        // No meter input: every heartbeat pushes the same all-zero row.
        let cfg = MonitorConfig::default();
        let mut m = monitor(3);
        for _ in 0..cfg.pca_window {
            m.heartbeat();
        }
        let filled = m.refits;
        assert_eq!(filled, (cfg.pca_window - cfg.pca_min_samples + 1) as u64);
        for _ in 0..5 * cfg.pca_window {
            m.heartbeat();
        }
        assert_eq!(m.refits, filled, "a full constant window never refits");
        assert!(m.refits <= cfg.pca_window as u64);
        assert_eq!(m.weights(), &[1.0 / 3.0; 3][..]);
        assert_eq!(m.retained_components(), Some(1));
    }

    #[test]
    fn every_heartbeat_past_min_samples_refits_while_the_window_changes() {
        let cfg = MonitorConfig::default();
        let mut m = monitor(3);
        let beats = 3 * cfg.pca_window;
        for i in 0..beats {
            m.observe_meter_latency(
                i % 3,
                lat(0.05 + 0.01 * (i % 3) as f64, (i % 10) as f64 / 20.0),
            );
            m.heartbeat();
            let expected = (i + 1).saturating_sub(cfg.pca_min_samples - 1);
            assert_eq!(m.refits, expected as u64, "heartbeat {i}");
        }
    }

    /// The monitor before the refit memo and the flat window: nested
    /// rows, and a full PCA refit on every heartbeat.
    struct EveryBeatRefit {
        cfg: MonitorConfig,
        window: Vec<Vec<f64>>,
        weights: Vec<f64>,
    }

    impl EveryBeatRefit {
        fn heartbeat(&mut self, row: &[f64]) {
            self.window.push(row.to_vec());
            if self.window.len() > self.cfg.pca_window {
                let excess = self.window.len() - self.cfg.pca_window;
                self.window.drain(0..excess);
            }
            if self.cfg.use_pca && self.window.len() >= self.cfg.pca_min_samples {
                if let Some(model) = Pca::default().fit(&Matrix::from_nested(&self.window)) {
                    self.weights = model.variable_importance();
                }
            }
        }

        fn retained_components(&self) -> Option<usize> {
            if self.window.len() < self.cfg.pca_min_samples || !self.cfg.use_pca {
                return None;
            }
            Pca::default()
                .fit(&Matrix::from_nested(&self.window))
                .map(|m| m.retained)
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Feed `rows` to the memoized monitor (straight into its window,
    /// so rows can hold values no curve inversion yields, like `-0.0`)
    /// and to the every-beat reference; weights and retained counts
    /// must agree bit for bit after every heartbeat.
    fn assert_matches_every_beat_refit(cfg: MonitorConfig, rows: &[Vec<f64>]) {
        let dims = rows.first().map_or(1, Vec::len);
        let meters = (0..dims).map(|i| (format!("r{i}"), curve(0.05))).collect();
        let mut memo = NdContentionMonitor::new(cfg, meters);
        let mut reference = EveryBeatRefit {
            cfg,
            window: Vec::new(),
            weights: vec![1.0; dims],
        };
        for (i, row) in rows.iter().enumerate() {
            memo.window.extend_from_slice(row);
            memo.admit_newest_row();
            reference.heartbeat(row);
            assert_eq!(
                bits(memo.weights()),
                bits(&reference.weights),
                "heartbeat {i} of {cfg:?}"
            );
            assert_eq!(memo.heartbeat_count(), reference.window.len());
            assert_eq!(
                memo.retained_components(),
                reference.retained_components(),
                "heartbeat {i} of {cfg:?}"
            );
        }
    }

    /// A heartbeat row sequence with long constant runs, signed zeros and
    /// varying rows, drawn from a xorshift stream seeded by `seed`.
    fn mixed_rows(seed: u64, dims: usize, len: usize, max_run: usize) -> Vec<Vec<f64>> {
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut rows = Vec::with_capacity(len);
        while rows.len() < len {
            let row: Vec<f64> = (0..dims)
                .map(|_| match next() % 6 {
                    0 => 0.0,
                    1 => -0.0,
                    2 => 0.5,
                    _ => (next() >> 11) as f64 / (1u64 << 53) as f64,
                })
                .collect();
            let run = 1 + (next() as usize) % max_run;
            for _ in 0..run.min(len - rows.len()) {
                rows.push(row.clone());
            }
        }
        rows
    }

    #[test]
    fn memo_matches_every_beat_refit_at_the_window_and_min_samples_edges() {
        let window = 8;
        for min in [0, 1, 2, window - 1, window, window + 1] {
            for len in [window - 1, window, window + 1, 4 * window] {
                let cfg = MonitorConfig {
                    pca_window: window,
                    pca_min_samples: min,
                    ..Default::default()
                };
                // All-constant, constant with one outlier row and one
                // flip between signed zeros, and a mixed sequence.
                let constant = vec![vec![0.0, 0.25, 0.0]; len];
                let mut flipped = constant.clone();
                flipped[len / 4][1] = 0.75;
                flipped[3 * len / 4][0] = -0.0;
                assert_matches_every_beat_refit(cfg, &constant);
                assert_matches_every_beat_refit(cfg, &flipped);
                assert_matches_every_beat_refit(cfg, &mixed_rows(len as u64, 3, len, window));
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        #[test]
        fn memoized_weights_are_bit_identical_to_refitting_every_heartbeat(
            seed in 0u64..u64::MAX,
            dims in 1usize..5,
            window in 1usize..30,
            min_pick in 0usize..32,
            len_factor in 0usize..4,
            max_run in 1usize..60,
        ) {
            let cfg = MonitorConfig {
                pca_window: window,
                pca_min_samples: min_pick % (window + 2),
                ..Default::default()
            };
            let len = window * len_factor + (seed % 3) as usize;
            assert_matches_every_beat_refit(cfg, &mixed_rows(seed, dims, len, max_run));
        }
    }

    #[test]
    fn no_pca_keeps_uniform_weights_at_any_dimension() {
        let cfg = MonitorConfig {
            use_pca: false,
            ..Default::default()
        };
        let meters = (0..8).map(|i| (format!("r{i}"), curve(0.05))).collect();
        let mut m = NdContentionMonitor::new(cfg, meters);
        for i in 0..50 {
            m.observe_meter_latency(i % 8, lat(0.05, 0.4));
            m.heartbeat();
        }
        assert_eq!(m.weights(), &[1.0; 8][..]);
        assert!(m.retained_components().is_none());
    }
}
