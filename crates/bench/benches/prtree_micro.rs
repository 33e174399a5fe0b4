//! PR-tree micro-benchmarks, including ablation B: aggregate window
//! survival products versus a linear scan over the raw tuples.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use dsud_core::{SubspaceMask, UncertainDb};
use dsud_data::{SpatialDistribution, WorkloadSpec};
use dsud_prtree::{bbs, PrTree};

fn bench(c: &mut Criterion) {
    let n = 50_000;
    let tuples = WorkloadSpec::new(n, 3)
        .spatial(SpatialDistribution::Independent)
        .seed(16)
        .generate()
        .unwrap();
    let db = UncertainDb::from_tuples(3, tuples.clone()).unwrap();
    let tree = PrTree::bulk_load(3, tuples.clone()).unwrap();
    let mask = SubspaceMask::full(3).unwrap();
    let probes: Vec<Vec<f64>> =
        tuples.iter().step_by(n / 64).map(|t| t.values().to_vec()).collect();

    let mut group = c.benchmark_group("prtree_micro");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(3));

    // Ablation B: indexed window product vs linear scan.
    group.bench_function("survival/prtree", |b| {
        b.iter(|| probes.iter().map(|p| tree.survival_product(p, mask)).sum::<f64>());
    });
    group.bench_function("survival/linear_scan", |b| {
        b.iter(|| probes.iter().map(|p| db.survival_product(p)).sum::<f64>());
    });

    group.bench_function("bulk_load", |b| {
        b.iter(|| PrTree::bulk_load(3, tuples.clone()).unwrap());
    });

    // The BBS procedure skips and cuts short the window products that
    // cannot reach `q`, so its cost falls as `q` rises.
    for q in [0.3, 0.5, 0.7] {
        group.bench_with_input(
            BenchmarkId::new("bbs_local_skyline", format!("q={q}")),
            &q,
            |b, &q| {
                b.iter(|| bbs::local_skyline(&tree, q, mask).unwrap());
            },
        );
    }
    let sub = SubspaceMask::from_dims(&[0, 2]).unwrap();
    group.bench_with_input(
        BenchmarkId::new("bbs_local_skyline", "q=0.3,dims=0+2"),
        &0.3,
        |b, &q| {
            b.iter(|| bbs::local_skyline(&tree, q, sub).unwrap());
        },
    );

    group.bench_function("insert_1000", |b| {
        b.iter(|| {
            let mut t = PrTree::new(3).unwrap();
            for tup in tuples.iter().take(1000) {
                t.insert(tup.clone()).unwrap();
            }
            t
        });
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
