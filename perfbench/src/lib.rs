//! The repository's performance benchmark.
//!
//! Three workloads ([`Workload`]) each run a whole simulated horizon as
//! one batch, as fast as the host allows. A plain run measures the
//! end-to-end metrics with tracing off; a traced run times calls into
//! each layer's public functions from outside the crates and reports the
//! per-layer metrics. Every run checks the simulator's outputs
//! ([`Totals`]) and the caller exits nonzero on any failed check.
//! `README.md` in this directory explains the workloads and metrics.

mod checks;
mod metrics;
mod probes;
mod stats;
mod traced;
mod workloads;

pub use checks::Totals;
pub use metrics::{run, Measured, Options, END_TO_END, PER_LAYER};
pub use workloads::{Scale, Workload};
