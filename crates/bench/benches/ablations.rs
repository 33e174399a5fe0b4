//! Ablations from DESIGN.md:
//! A — e-DSUD bound mode (Paper min-bound vs BroadcastOnly);
//! C — site-side feedback pruning on vs off (DSUD).
//! Bandwidth effects are printed once per bench run; timing is tracked by
//! Criterion.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use dsud_bench::{quick_sites, run_algo, Algo};
use dsud_data::SpatialDistribution;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablations");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(3));
    let sites = quick_sites(10_000, 3, 20, SpatialDistribution::Anticorrelated, 15);

    for algo in [Algo::Edsud, Algo::EdsudBroadcastOnly, Algo::Dsud, Algo::DsudNoPruning] {
        let outcome = run_algo(algo, 3, sites.clone(), 0.3);
        println!(
            "[ablation] {:<20} bandwidth={:<8} broadcasts={:<6} expunged={:<6} pruned={}",
            algo.label(),
            outcome.tuples_transmitted(),
            outcome.stats.broadcasts,
            outcome.stats.expunged,
            outcome.stats.pruned_at_sites
        );
        group.bench_with_input(BenchmarkId::new("run", algo.label()), &algo, |b, &algo| {
            b.iter(|| run_algo(algo, 3, sites.clone(), 0.3));
        });
    }

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
