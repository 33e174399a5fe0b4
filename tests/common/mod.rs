//! Helpers shared by the integration suites: the seeded workload, the
//! wire layout under test, and the bit-exact answer fingerprint. Each
//! suite compiles this module on its own and uses a subset of it.
#![allow(dead_code)]

use dsud_core::{QueryOutcome, UncertainTuple, WireFormat};
use dsud_data::WorkloadSpec;
use dsud_uncertain::TupleId;

/// Wire layout under test: `DSUD_WIRE=columnar|legacy` (legacy default),
/// so CI can run the determinism matrix under both layouts.
pub fn wire_from_env() -> WireFormat {
    std::env::var("DSUD_WIRE").ok().and_then(|v| v.parse().ok()).unwrap_or_default()
}

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
/// suite — which counters must match depends on the knob under test.
pub fn fingerprint(outcome: &QueryOutcome) -> (Sequence, Sequence) {
    (
        outcome.skyline.iter().map(|e| (e.tuple.id(), e.probability.to_bits())).collect(),
        outcome.progress.events().iter().map(|e| (e.id, e.probability.to_bits())).collect(),
    )
}

/// Checks `outcome` against the centralized Eq. 3 answer over the union
/// of `sites` ([`dsud_core::baseline::run`]) — an oracle independent of
/// the coordinators: the same tuple ids, and every probability within
/// `1e-9`.
pub fn assert_matches_oracle(
    outcome: &QueryOutcome,
    sites: &[Vec<UncertainTuple>],
    dims: usize,
    q: f64,
) {
    let mask = dsud_core::SubspaceMask::full(dims).expect("full mask");
    let meter = dsud_core::BandwidthMeter::new();
    let oracle = dsud_core::baseline::run(sites, dims, q, mask, &meter).expect("oracle runs");
    let sorted = |o: &QueryOutcome| {
        let mut entries: Vec<(TupleId, f64)> =
            o.skyline.iter().map(|e| (e.tuple.id(), e.probability)).collect();
        entries.sort_by_key(|(id, _)| *id);
        entries
    };
    let (got, want) = (sorted(outcome), sorted(&oracle));
    assert_eq!(
        got.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
        want.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
        "answer ids differ from the centralized oracle"
    );
    for ((id, p), (_, e)) in got.iter().zip(&want) {
        assert!((p - e).abs() < 1e-9, "{id:?}: probability {p} vs oracle {e}");
    }
}
