#![warn(missing_docs)]
//! Experiment harness for the Amoeba reproduction.
//!
//! Every table and figure of the paper's evaluation (§II investigation +
//! §VII evaluation) has a regenerator here; the `experiments` binary
//! runs them and prints the same rows/series the paper reports, plus a
//! machine-readable JSON blob per experiment. See DESIGN.md §6 for the
//! experiment index and EXPERIMENTS.md for recorded paper-vs-measured
//! results.

pub mod ablations;
pub mod evaluation;
pub mod extensions;
pub mod fleet;
pub mod forecast;
pub mod investigation;
pub mod multinode;
pub mod multitenant;
pub mod profiling;
pub mod report;
pub mod resilience;
pub mod scenarios;
pub mod steady;
pub mod workflow;

pub use report::Report;
pub use scenarios::{standard_scenario, DEFAULT_DAY_S, DEFAULT_SEED};

/// Run `f` on every item, one scoped thread per item, and return the
/// results in input order. Every job is spawned before any is joined,
/// so the items run concurrently.
pub fn par_map<T: Send, R: Send>(
    items: impl IntoIterator<Item = T>,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let f = &f;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for item in items {
            handles.push(scope.spawn(move || f(item)));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel job panicked"))
            .collect()
    })
}
