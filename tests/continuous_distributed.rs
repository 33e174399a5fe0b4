//! Continuous *distributed* skylines: each site ingests a stream through a
//! count-based window (arrival = insert, slide-out = delete), and the
//! exact incremental maintenance keeps the global skyline equal to a
//! centralized recomputation over the live windows at every checkpoint.
//! This composes the paper's Section 5.4 machinery into the Section 2.2
//! sliding-window semantics across sites.

use std::collections::VecDeque;

use dsud_core::update::{Maintainer, UpdateOp};
use dsud_core::{probabilistic_skyline, UncertainDb};
use dsud_core::{Cluster, Probability, QueryConfig, SubspaceMask, TupleId, UncertainTuple};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const Q: f64 = 0.3;
const DIMS: usize = 2;
const SITES: usize = 4;
const WINDOW: usize = 60;

fn arrival(rng: &mut StdRng, site: u32, seq: u64) -> UncertainTuple {
    let values: Vec<f64> = (0..DIMS).map(|_| rng.gen::<f64>()).collect();
    let p = Probability::clamped(rng.gen::<f64>());
    UncertainTuple::new(TupleId::new(site, seq), values, p).unwrap()
}

#[test]
fn windowed_streams_stay_exact_across_sites() {
    let mut rng = StdRng::seed_from_u64(0x57e4);
    run_scenario(&mut rng);
}

fn run_scenario(rng: &mut StdRng) {
    // Pre-fill each site's window.
    let mut windows: Vec<VecDeque<UncertainTuple>> = Vec::new();
    let mut next_seq = 0u64;
    let mut initial: Vec<Vec<UncertainTuple>> = Vec::new();
    for site in 0..SITES as u32 {
        let mut w = VecDeque::new();
        let mut tuples = Vec::new();
        for _ in 0..WINDOW {
            let t = arrival(rng, site, next_seq);
            next_seq += 1;
            w.push_back(t.clone());
            tuples.push(t);
        }
        windows.push(w);
        initial.push(tuples);
    }

    let mut cluster = Cluster::local(DIMS, initial).unwrap();
    let meter = cluster.meter().clone();
    let mask = SubspaceMask::full(DIMS).unwrap();
    let config = QueryConfig::new(Q).unwrap();
    let (mut maintainer, _) =
        Maintainer::bootstrap(&mut cluster.fanout(), &meter, mask, &config).unwrap();

    // Stream 200 arrivals round-robin across the sites; every arrival
    // slides the oldest tuple out of that site's window.
    for step in 0..200 {
        let site = step % SITES;
        let incoming = arrival(rng, site as u32, next_seq);
        next_seq += 1;
        let outgoing = windows[site].pop_front().expect("windows are full");
        windows[site].push_back(incoming.clone());

        maintainer.apply_incremental(&mut cluster.fanout(), &UpdateOp::Insert(incoming)).unwrap();
        maintainer.apply_incremental(&mut cluster.fanout(), &UpdateOp::Delete(outgoing)).unwrap();

        if step % 20 == 19 {
            // Centralized recomputation over the live windows.
            let union = UncertainDb::from_tuples(
                DIMS,
                windows.iter().flatten().cloned().collect::<Vec<_>>(),
            )
            .unwrap();
            let mut expected: Vec<(TupleId, f64)> = probabilistic_skyline(&union, Q, mask)
                .unwrap()
                .into_iter()
                .map(|e| (e.tuple.id(), e.probability))
                .collect();
            expected.sort_by_key(|(id, _)| *id);
            let got: Vec<(TupleId, f64)> =
                maintainer.skyline().into_iter().map(|e| (e.tuple.id(), e.probability)).collect();
            assert_eq!(
                got.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
                expected.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
                "diverged at step {step}"
            );
            for ((_, p), (_, e)) in got.iter().zip(&expected) {
                assert!((p - e).abs() < 1e-6, "step {step}: {p} vs {e}");
            }
        }
    }
}
