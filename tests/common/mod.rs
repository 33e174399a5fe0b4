//! Helpers shared by the integration suites: the seeded workload, the
//! bit-exact answer fingerprint, and the differential oracle
//! ([`oracle`]). Each suite compiles this module on its own and uses a
//! subset of it.
#![allow(dead_code)]

pub mod oracle;

use dsud_core::{QueryOutcome, UncertainTuple};
use dsud_data::WorkloadSpec;
use dsud_uncertain::TupleId;

#[allow(unused_imports)]
pub use oracle::{run, Case};

/// A seeded `n`-tuple, `dims`-dimensional workload split across `sites`
/// sites.
pub fn sites(n: usize, dims: usize, seed: u64, sites: usize) -> Vec<Vec<UncertainTuple>> {
    WorkloadSpec::new(n, dims).seed(seed).generate_partitioned(sites).expect("workload generates")
}

/// A skyline or progress sequence: tuple ids with their probabilities'
/// bit patterns, in report order.
pub type Sequence = Vec<(TupleId, u64)>;

/// The answer, bit for bit: the skyline (ids, probabilities, report
/// order) and the progressive result sequence. Traffic is left to each
/// suite — which counters must match depends on the setting under test.
pub fn fingerprint(outcome: &QueryOutcome) -> (Sequence, Sequence) {
    (
        outcome.skyline.iter().map(|e| (e.tuple.id(), e.probability.to_bits())).collect(),
        outcome.progress.events().iter().map(|e| (e.id, e.probability.to_bits())).collect(),
    )
}
