//! Fig. 14 (timing view): Incremental vs Naive maintenance for one batch
//! of updates at 20% and 100% update rates.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use dsud_bench::{build_updates, quick_sites};
use dsud_core::update::{apply_batch, Maintainer};
use dsud_core::{Cluster, QueryConfig, SubspaceMask};
use dsud_data::SpatialDistribution;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig14_updates");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(3));
    let data = quick_sites(5_000, 2, 10, SpatialDistribution::Independent, 14);
    for rate in [20usize, 100] {
        let ops = build_updates(&data, rate, 0xfeed);
        for incremental in [true, false] {
            let label = if incremental { "incremental" } else { "naive" };
            group.bench_with_input(
                BenchmarkId::new(label, format!("rate={rate}%")),
                &rate,
                |b, _| {
                    b.iter(|| {
                        let mut cluster = Cluster::local(2, data.clone()).unwrap();
                        let meter = cluster.meter().clone();
                        let (mut maintainer, _) = Maintainer::bootstrap(
                            &mut cluster.fanout(),
                            &meter,
                            SubspaceMask::full(2).unwrap(),
                            &QueryConfig::new(0.3).unwrap(),
                        )
                        .unwrap();
                        apply_batch(
                            &mut maintainer,
                            &mut cluster.fanout(),
                            &meter,
                            &ops,
                            incremental,
                        )
                        .unwrap()
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
