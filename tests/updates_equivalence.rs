//! Update maintenance (paper Section 5.4): the incremental strategy must
//! keep SKY(H) exactly equal to what a from-scratch recomputation over the
//! updated data would produce — for inserts, deletes, mixes, and updates
//! that touch skyline members.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dsud_core::update::{apply_batch, Maintainer, UpdateOp};
use dsud_core::{probabilistic_skyline, TupleId, UncertainDb, UncertainTuple};
use dsud_core::{Cluster, Probability, QueryConfig, SubspaceMask};
use dsud_data::{SpatialDistribution, WorkloadSpec};

const Q: f64 = 0.3;

fn full(d: usize) -> SubspaceMask {
    SubspaceMask::full(d).unwrap()
}

fn config() -> QueryConfig {
    QueryConfig::new(Q).unwrap()
}

/// Applies ops to the raw tuple lists (the "what the data now is" oracle).
fn apply_to_data(sites: &mut [Vec<UncertainTuple>], ops: &[UpdateOp]) {
    for op in ops {
        match op {
            UpdateOp::Insert(t) => sites[t.id().site.0 as usize].push(t.clone()),
            UpdateOp::Delete(t) => {
                sites[t.id().site.0 as usize].retain(|x| x.id() != t.id());
            }
        }
    }
}

fn reference(sites: &[Vec<UncertainTuple>], dims: usize) -> Vec<(TupleId, f64)> {
    let union = UncertainDb::from_tuples(dims, sites.iter().flatten().cloned().collect::<Vec<_>>())
        .unwrap();
    let mut out: Vec<(TupleId, f64)> = probabilistic_skyline(&union, Q, full(dims))
        .unwrap()
        .into_iter()
        .map(|e| (e.tuple.id(), e.probability))
        .collect();
    out.sort_by_key(|(id, _)| *id);
    out
}

fn run_scenario(
    dims: usize,
    n: usize,
    m: usize,
    seed: u64,
    ops_builder: impl Fn(&[Vec<UncertainTuple>], &mut StdRng) -> Vec<UpdateOp>,
) {
    let mut data = WorkloadSpec::new(n, dims)
        .spatial(SpatialDistribution::Anticorrelated)
        .seed(seed)
        .generate_partitioned(m)
        .unwrap();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xabcdef);
    let ops = ops_builder(&data, &mut rng);

    // Incremental strategy.
    let mut incr_cluster = Cluster::local(dims, data.clone()).unwrap();
    let meter = incr_cluster.meter().clone();
    let (mut maintainer, _) =
        Maintainer::bootstrap(incr_cluster.links_mut(), &meter, full(dims), &config()).unwrap();
    let incremental =
        apply_batch(&mut maintainer, incr_cluster.links_mut(), &meter, &ops, true).unwrap();

    // Naive strategy on an identical twin cluster.
    let mut naive_cluster = Cluster::local(dims, data.clone()).unwrap();
    let naive_meter = naive_cluster.meter().clone();
    let (mut naive_maintainer, _) =
        Maintainer::bootstrap(naive_cluster.links_mut(), &naive_meter, full(dims), &config())
            .unwrap();
    let naive =
        apply_batch(&mut naive_maintainer, naive_cluster.links_mut(), &naive_meter, &ops, false)
            .unwrap();

    // Ground truth over the updated data.
    apply_to_data(&mut data, &ops);
    let expected = reference(&data, dims);

    for (label, got) in [("incremental", incremental), ("naive", naive)] {
        let got: Vec<(TupleId, f64)> = got.iter().map(|e| (e.tuple.id(), e.probability)).collect();
        assert_eq!(
            got.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            expected.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            "{label} membership diverged (seed {seed})"
        );
        for ((id, p), (_, e)) in got.iter().zip(&expected) {
            assert!((p - e).abs() < 1e-6, "{label} {id:?}: {p} vs {e}");
        }
    }
}

fn random_insert(sites: &[Vec<UncertainTuple>], rng: &mut StdRng, seq: u64) -> UpdateOp {
    let site = rng.gen_range(0..sites.len()) as u32;
    let dims = sites[0][0].dims();
    let values: Vec<f64> = (0..dims).map(|_| rng.gen::<f64>()).collect();
    let p = Probability::clamped(rng.gen::<f64>());
    UpdateOp::Insert(UncertainTuple::new(TupleId::new(site, 1_000_000 + seq), values, p).unwrap())
}

fn random_delete(sites: &[Vec<UncertainTuple>], rng: &mut StdRng) -> UpdateOp {
    let site = rng.gen_range(0..sites.len());
    let victim = &sites[site][rng.gen_range(0..sites[site].len())];
    UpdateOp::Delete(victim.clone())
}

#[test]
fn pure_inserts_stay_equivalent() {
    run_scenario(2, 600, 4, 1, |sites, rng| {
        (0..40).map(|i| random_insert(sites, rng, i)).collect()
    });
}

#[test]
fn pure_deletes_stay_equivalent() {
    run_scenario(2, 600, 4, 2, |sites, rng| {
        // Sample distinct victims up front.
        let mut ops = Vec::new();
        let mut taken = std::collections::HashSet::new();
        while ops.len() < 40 {
            let op = random_delete(sites, rng);
            if let UpdateOp::Delete(t) = &op {
                if taken.insert(t.id()) {
                    ops.push(op);
                }
            }
        }
        ops
    });
}

#[test]
fn mixed_updates_stay_equivalent() {
    run_scenario(3, 500, 5, 3, |sites, rng| {
        let mut taken = std::collections::HashSet::new();
        let mut ops = Vec::new();
        for i in 0..60 {
            if rng.gen_bool(0.5) {
                ops.push(random_insert(sites, rng, i));
            } else {
                let op = random_delete(sites, rng);
                if let UpdateOp::Delete(t) = &op {
                    if taken.insert(t.id()) {
                        ops.push(op);
                    }
                }
            }
        }
        ops
    });
}

#[test]
fn deleting_every_skyline_member_stays_equivalent() {
    // The hardest case: delete exactly the current members, forcing the
    // region re-evaluation to rediscover the second tier.
    run_scenario(2, 500, 4, 4, |sites, _| {
        let union =
            UncertainDb::from_tuples(2, sites.iter().flatten().cloned().collect::<Vec<_>>())
                .unwrap();
        probabilistic_skyline(&union, Q, full(2))
            .unwrap()
            .into_iter()
            .map(|e| UpdateOp::Delete(e.tuple))
            .collect()
    });
}

#[test]
fn dominant_insert_evicts_members() {
    // Insert a near-origin, high-probability tuple that dominates most of
    // the space: members must be discounted out and the tuple admitted.
    run_scenario(2, 400, 4, 5, |_, _| {
        vec![UpdateOp::Insert(
            UncertainTuple::new(
                TupleId::new(0, 2_000_000),
                vec![0.001, 0.001],
                Probability::new(0.95).unwrap(),
            )
            .unwrap(),
        )]
    });
}

#[test]
fn insert_then_delete_roundtrips() {
    let t = UncertainTuple::new(
        TupleId::new(1, 3_000_000),
        vec![0.005, 0.005],
        Probability::new(0.9).unwrap(),
    )
    .unwrap();
    run_scenario(2, 400, 4, 6, move |_, _| {
        vec![UpdateOp::Insert(t.clone()), UpdateOp::Delete(t.clone())]
    });
}

#[test]
fn incremental_uses_less_maintenance_traffic_than_naive() {
    let dims = 2;
    let data = WorkloadSpec::new(2_000, dims)
        .spatial(SpatialDistribution::Independent)
        .seed(7)
        .generate_partitioned(10)
        .unwrap();
    let mut rng = StdRng::seed_from_u64(99);
    let ops: Vec<UpdateOp> = (0..50).map(|i| random_insert(&data, &mut rng, i)).collect();

    let run = |incremental: bool| -> u64 {
        let mut cluster = Cluster::local(dims, data.clone()).unwrap();
        let meter = cluster.meter().clone();
        let (mut maintainer, _) =
            Maintainer::bootstrap(cluster.links_mut(), &meter, full(dims), &config()).unwrap();
        let before = meter.snapshot();
        apply_batch(&mut maintainer, cluster.links_mut(), &meter, &ops, incremental).unwrap();
        meter.snapshot().since(&before).tuples_transmitted()
    };

    let incr = run(true);
    let naive = run(false);
    assert!(incr < naive, "incremental {incr} tuples should undercut naive {naive}");
}

/// The Replica policy (paper Section 5.4 heuristic) must be *sound*: every
/// member it reports truly qualifies (exact probability ≥ q), even though
/// it may miss promotions after non-member deletions.
#[test]
fn replica_policy_is_sound() {
    use dsud_core::{SiteOptions, UpdatePolicy};
    let dims = 2;
    let mut data = WorkloadSpec::new(800, dims)
        .spatial(SpatialDistribution::Anticorrelated)
        .seed(77)
        .generate_partitioned(6)
        .unwrap();
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let mut ops = Vec::new();
    let mut taken = std::collections::HashSet::new();
    for i in 0..80 {
        if rng.gen_bool(0.5) {
            ops.push(random_insert(&data, &mut rng, i));
        } else {
            let op = random_delete(&data, &mut rng);
            if let UpdateOp::Delete(t) = &op {
                if taken.insert(t.id()) {
                    ops.push(op);
                }
            }
        }
    }

    let options = SiteOptions { update_policy: UpdatePolicy::Replica, ..SiteOptions::default() };
    let mut cluster = Cluster::local_with_options(dims, data.clone(), options).unwrap();
    let meter = cluster.meter().clone();
    let (mut maintainer, _) =
        Maintainer::bootstrap(cluster.links_mut(), &meter, full(dims), &config()).unwrap();
    let reported = apply_batch(&mut maintainer, cluster.links_mut(), &meter, &ops, true).unwrap();

    apply_to_data(&mut data, &ops);
    let exact: std::collections::HashMap<TupleId, f64> =
        reference(&data, dims).into_iter().collect();

    for entry in &reported {
        let true_prob = exact
            .get(&entry.tuple.id())
            .copied()
            .unwrap_or_else(|| panic!("replica policy reported non-member {:?}", entry.tuple.id()));
        // Stored probabilities may be stale-low (missed restorations), but
        // membership must be genuine and never overstated.
        assert!(true_prob >= Q, "{:?} does not truly qualify", entry.tuple.id());
        assert!(
            entry.probability <= true_prob + 1e-6,
            "{:?}: stored {} overstates true {}",
            entry.tuple.id(),
            entry.probability,
            true_prob
        );
    }
}
