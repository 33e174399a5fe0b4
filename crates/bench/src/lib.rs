//! Shared experiment harness for regenerating every table and figure of
//! the paper's evaluation (Section 7).
//!
//! The `experiments` binary drives these helpers to print paper-style data
//! series; the Criterion benches reuse them for timing. Scale knobs come
//! from the environment so the same code serves quick CI runs and
//! full-scale reproductions:
//!
//! * `DSUD_SCALE_N` — global cardinality `N` (default 50,000; the paper
//!   uses 2,000,000);
//! * `DSUD_REPEATS` — seeds averaged per configuration (default 3; the
//!   paper averages 10 queries).

#![forbid(unsafe_code)]

use serde::Serialize;

use dsud_core::update::{Maintainer, UpdateOp};
use dsud_core::{
    baseline, BandwidthMeter, BatchSize, BoundMode, Cluster, LatencyModel, Probability,
    QueryConfig, QueryOutcome, SiteOptions, SubspaceMask, TupleId, UncertainTuple,
};
use dsud_data::nyse::NyseSpec;
use dsud_data::{ProbabilityLaw, SpatialDistribution, WorkloadSpec};

/// Default global cardinality when `DSUD_SCALE_N` is unset.
pub const DEFAULT_N: usize = 50_000;
/// Default number of averaged runs when `DSUD_REPEATS` is unset.
pub const DEFAULT_REPEATS: usize = 3;

/// Reads an environment scale knob.
fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Global cardinality `N` for experiments.
pub fn scale_n() -> usize {
    env_usize("DSUD_SCALE_N", DEFAULT_N)
}

/// Number of seeds averaged per configuration.
pub fn repeats() -> usize {
    env_usize("DSUD_REPEATS", DEFAULT_REPEATS).max(1)
}

/// One experiment configuration (a point on a figure's x-axis).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ExpSpec {
    /// Global cardinality `N`.
    pub n: usize,
    /// Number of local sites `m`.
    pub m: usize,
    /// Dimensionality `d`.
    pub d: usize,
    /// Probability threshold `q`.
    pub q: f64,
    /// Spatial distribution of the synthetic data.
    pub spatial: SpatialDistribution,
    /// Probability assignment law.
    pub prob: ProbabilityLaw,
    /// Base RNG seed (repeats use `seed + i`).
    pub seed: u64,
}

impl ExpSpec {
    /// The paper's Table 3 defaults at harness scale: `m = 60`, `d = 3`,
    /// `q = 0.3`, independent values, uniform probabilities.
    pub fn table3_defaults() -> Self {
        ExpSpec {
            n: scale_n(),
            m: 60,
            d: 3,
            q: 0.3,
            spatial: SpatialDistribution::Independent,
            prob: ProbabilityLaw::Uniform,
            seed: 1,
        }
    }

    /// Generates the partitioned synthetic workload for one repeat.
    pub fn generate(&self, repeat: usize) -> Vec<Vec<UncertainTuple>> {
        WorkloadSpec::new(self.n, self.d)
            .spatial(self.spatial)
            .probability_law(self.prob)
            .seed(self.seed + repeat as u64)
            .generate_partitioned(self.m)
            .expect("experiment specs are valid")
    }

    /// Generates the partitioned synthetic-NYSE workload for one repeat.
    pub fn generate_nyse(&self, repeat: usize) -> Vec<Vec<UncertainTuple>> {
        NyseSpec::new(self.n)
            .probability_law(self.prob)
            .seed(self.seed + repeat as u64)
            .generate_partitioned(self.m)
            .expect("experiment specs are valid")
    }
}

/// Which algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Algo {
    /// The DSUD baseline of Section 5.1.
    Dsud,
    /// The enhanced e-DSUD of Section 5.2.
    Edsud,
    /// e-DSUD with the loose BroadcastOnly bound (ablation A).
    EdsudBroadcastOnly,
    /// DSUD with site-side pruning disabled (ablation C).
    DsudNoPruning,
}

impl Algo {
    /// Human-readable label used in table headers.
    pub fn label(self) -> &'static str {
        match self {
            Algo::Dsud => "DSUD",
            Algo::Edsud => "e-DSUD",
            Algo::EdsudBroadcastOnly => "e-DSUD(bcast-only)",
            Algo::DsudNoPruning => "DSUD(no-prune)",
        }
    }
}

/// Runs one algorithm over an already-partitioned workload.
pub fn run_algo(algo: Algo, dims: usize, sites: Vec<Vec<UncertainTuple>>, q: f64) -> QueryOutcome {
    run_algo_batched(algo, dims, sites, q, BatchSize::default())
}

/// [`run_algo`] with an explicit feedback batch size — the answer is
/// identical at every batch size; only message and byte counts move.
pub fn run_algo_batched(
    algo: Algo,
    dims: usize,
    sites: Vec<Vec<UncertainTuple>>,
    q: f64,
    batch: BatchSize,
) -> QueryOutcome {
    let options = match algo {
        Algo::DsudNoPruning => SiteOptions { pruning: false, ..SiteOptions::default() },
        _ => SiteOptions::default(),
    };
    let mut cluster =
        Cluster::local_with_options(dims, sites, options).expect("experiment clusters are valid");
    let mut config =
        QueryConfig::new(q).expect("experiment thresholds are valid").batch_size(batch);
    if algo == Algo::EdsudBroadcastOnly {
        config = config.bound_mode(BoundMode::BroadcastOnly);
    }
    match algo {
        Algo::Dsud | Algo::DsudNoPruning => {
            cluster.run_dsud(&config).expect("experiment runs succeed")
        }
        Algo::Edsud | Algo::EdsudBroadcastOnly => {
            cluster.run_edsud(&config).expect("experiment runs succeed")
        }
    }
}

/// Averaged bandwidth results for one configuration.
#[derive(Debug, Clone, Serialize)]
pub struct BandwidthRow {
    /// x-axis label (e.g. "d=3" or "m=60").
    pub x: String,
    /// Mean tuples transmitted by DSUD.
    pub dsud: f64,
    /// Mean tuples transmitted by e-DSUD.
    pub edsud: f64,
    /// Mean minimum conceivable bandwidth (`|answer| × m`).
    pub ceiling: f64,
    /// Mean answer size.
    pub skylines: f64,
}

/// Runs DSUD, e-DSUD, and the ceiling for a configuration, averaged over
/// [`repeats`] seeds (optionally on NYSE data instead of synthetic).
pub fn bandwidth_row(spec: &ExpSpec, x: String, nyse: bool) -> BandwidthRow {
    let r = repeats();
    let (mut dsud, mut edsud, mut ceiling, mut skylines) = (0.0, 0.0, 0.0, 0.0);
    for i in 0..r {
        let sites = if nyse { spec.generate_nyse(i) } else { spec.generate(i) };
        let d_out = run_algo(Algo::Dsud, spec.d, sites.clone(), spec.q);
        let e_out = run_algo(Algo::Edsud, spec.d, sites, spec.q);
        dsud += d_out.tuples_transmitted() as f64;
        edsud += e_out.tuples_transmitted() as f64;
        ceiling += baseline::ceiling(e_out.skyline.len(), spec.m) as f64;
        skylines += e_out.skyline.len() as f64;
    }
    let r = r as f64;
    BandwidthRow {
        x,
        dsud: dsud / r,
        edsud: edsud / r,
        ceiling: ceiling / r,
        skylines: skylines / r,
    }
}

/// One point of a progressiveness curve (Figs. 12–13).
#[derive(Debug, Clone, Serialize)]
pub struct ProgressPoint {
    /// Number of skyline tuples reported so far.
    pub reported: usize,
    /// Cumulative tuples transmitted.
    pub tuples: u64,
    /// Cumulative CPU time, milliseconds.
    pub cpu_ms: f64,
}

/// Down-samples a run's progress log to at most `points` curve samples.
pub fn progress_curve(outcome: &QueryOutcome, points: usize) -> Vec<ProgressPoint> {
    let events = outcome.progress.events();
    if events.is_empty() {
        return Vec::new();
    }
    let step = (events.len() / points.max(1)).max(1);
    let mut out: Vec<ProgressPoint> = events
        .iter()
        .step_by(step)
        .map(|e| ProgressPoint {
            reported: e.reported,
            tuples: e.tuples_transmitted,
            cpu_ms: e.elapsed.as_secs_f64() * 1e3,
        })
        .collect();
    let last = events.last().expect("checked non-empty");
    if out.last().map(|p| p.reported) != Some(last.reported) {
        out.push(ProgressPoint {
            reported: last.reported,
            tuples: last.tuples_transmitted,
            cpu_ms: last.elapsed.as_secs_f64() * 1e3,
        });
    }
    out
}

/// Result of one Fig. 14 update-experiment cell.
///
/// "Response time" follows the paper's reading: the time to deliver fresh
/// global skyline results after the update batch. Incremental maintains
/// `SKY(H)` as updates stream in, so its response is (near-)instant; naive
/// must re-run e-DSUD. Maintenance cost (time paid *during* the updates,
/// plus traffic) is reported separately so the trade-off stays visible.
#[derive(Debug, Clone, Serialize)]
pub struct UpdateRow {
    /// Update rate as a percentage of `N`.
    pub rate_pct: usize,
    /// Incremental: time to fresh results after the batch, milliseconds.
    pub incremental_response_ms: f64,
    /// Naive: time to fresh results after the batch (full e-DSUD re-run
    /// plus its simulated network time), milliseconds.
    pub naive_response_ms: f64,
    /// Incremental: maintenance time paid during the batch (CPU +
    /// simulated network), milliseconds.
    pub incremental_maintenance_ms: f64,
    /// Incremental maintenance traffic, tuples.
    pub incremental_tuples: u64,
    /// Naive refresh traffic, tuples.
    pub naive_tuples: u64,
}

/// Builds a deterministic update batch touching `rate_pct`% of `N` tuples
/// (half inserts, half deletes).
pub fn build_updates(sites: &[Vec<UncertainTuple>], rate_pct: usize, seed: u64) -> Vec<UpdateOp> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let n: usize = sites.iter().map(Vec::len).sum();
    let count = n * rate_pct / 100;
    let dims = sites[0][0].dims();
    let mut deleted = std::collections::HashSet::new();
    let mut ops = Vec::with_capacity(count);
    for i in 0..count {
        if i % 2 == 0 {
            let site = rng.gen_range(0..sites.len()) as u32;
            let values: Vec<f64> = (0..dims).map(|_| rng.gen::<f64>()).collect();
            let p = Probability::clamped(rng.gen::<f64>());
            ops.push(UpdateOp::Insert(
                UncertainTuple::new(TupleId::new(site, 10_000_000 + i as u64), values, p)
                    .expect("generated tuples are valid"),
            ));
        } else {
            // Sample an undeleted victim.
            for _ in 0..32 {
                let site = rng.gen_range(0..sites.len());
                let victim = &sites[site][rng.gen_range(0..sites[site].len())];
                if deleted.insert(victim.id()) {
                    ops.push(UpdateOp::Delete(victim.clone()));
                    break;
                }
            }
        }
    }
    ops
}

/// Runs one Fig. 14 cell: response time of both strategies for a batch of
/// updates at the given rate.
pub fn update_row(spec: &ExpSpec, rate_pct: usize) -> UpdateRow {
    let latency = LatencyModel::default();
    // (maintenance_ms, response_ms, tuples) for one strategy.
    let strategy = |incremental: bool| -> (f64, f64, u64) {
        let sites = spec.generate(0);
        let ops = build_updates(&sites, rate_pct, spec.seed ^ 0xfeed);
        // Fig. 14 runs the paper's replica policy: deletions of non-member
        // tuples are resolved locally, which is what makes the incremental
        // curve flat (see UpdatePolicy docs for the soundness trade-off).
        let options = SiteOptions {
            update_policy: dsud_core::UpdatePolicy::Replica,
            ..SiteOptions::default()
        };
        let mut cluster = Cluster::local_with_options(spec.d, sites, options)
            .expect("experiment clusters are valid");
        let meter = cluster.meter().clone();
        let mask = SubspaceMask::full(spec.d).expect("dims are valid");
        let config = QueryConfig::new(spec.q).expect("experiment thresholds are valid");
        let (mut maintainer, _) =
            Maintainer::bootstrap(&mut cluster.fanout(), &meter, mask, &config)
                .expect("bootstrap succeeds");

        // Maintenance phase: the update stream arrives.
        let before = meter.snapshot();
        let started = std::time::Instant::now();
        for op in &ops {
            if incremental {
                maintainer.apply_incremental(&mut cluster.fanout(), op).expect("updates succeed");
            } else {
                Maintainer::apply_local_only(&mut cluster.fanout(), op).expect("updates succeed");
            }
        }
        let maintenance_cpu_ms = started.elapsed().as_secs_f64() * 1e3;
        let after_maintenance = meter.snapshot();
        let maintenance_ms =
            maintenance_cpu_ms + latency.network_time_ms(&after_maintenance.since(&before));

        // Response phase: fresh results are requested.
        let started = std::time::Instant::now();
        if incremental {
            // SKY(H) is already maintained; answering costs no traffic.
            let _ = maintainer.skyline();
        } else {
            maintainer.refresh_naive(&mut cluster.fanout(), &meter).expect("refresh succeeds");
        }
        let response_cpu_ms = started.elapsed().as_secs_f64() * 1e3;
        let traffic = meter.snapshot();
        let response_ms =
            response_cpu_ms + latency.network_time_ms(&traffic.since(&after_maintenance));
        (maintenance_ms, response_ms, traffic.since(&before).tuples_transmitted())
    };
    let (incremental_maintenance_ms, incremental_response_ms, incremental_tuples) = strategy(true);
    let (_, naive_response_ms, naive_tuples) = strategy(false);
    UpdateRow {
        rate_pct,
        incremental_response_ms,
        naive_response_ms,
        incremental_maintenance_ms,
        incremental_tuples,
        naive_tuples,
    }
}

/// Convenience: a quick small cluster for Criterion benches.
pub fn quick_sites(
    n: usize,
    d: usize,
    m: usize,
    spatial: SpatialDistribution,
    seed: u64,
) -> Vec<Vec<UncertainTuple>> {
    WorkloadSpec::new(n, d)
        .spatial(spatial)
        .seed(seed)
        .generate_partitioned(m)
        .expect("bench specs are valid")
}

/// Pretty-prints a bandwidth table and returns the rows for JSON dumping.
pub fn print_bandwidth_table(title: &str, rows: &[BandwidthRow]) {
    println!("\n== {title} ==");
    println!("{:<12} {:>12} {:>12} {:>12} {:>10}", "x", "DSUD", "e-DSUD", "Ceiling", "|SKY|");
    for r in rows {
        println!(
            "{:<12} {:>12.0} {:>12.0} {:>12.0} {:>10.1}",
            r.x, r.dsud, r.edsud, r.ceiling, r.skylines
        );
    }
}

/// Certain-data skyline cardinality via sort-filter-scan: points are
/// processed in ascending coordinate-sum order, so every dominator of a
/// point is examined first and it suffices to test against the accepted
/// skyline (`O(n log n + n·|SKY|)` instead of the naive `O(n²)`).
pub fn certain_skyline_len(points: &[Vec<f64>], mask: SubspaceMask) -> usize {
    let mut order: Vec<usize> = (0..points.len()).collect();
    let sum = |p: &[f64]| -> f64 { mask.dims().take_while(|&d| d < p.len()).map(|d| p[d]).sum() };
    order.sort_by(|&a, &b| {
        sum(&points[a]).partial_cmp(&sum(&points[b])).expect("finite coordinates")
    });
    let mut skyline: Vec<&[f64]> = Vec::new();
    for idx in order {
        let p = &points[idx];
        if !skyline.iter().any(|s| dsud_core::dominates_in(s, p, mask)) {
            skyline.push(p);
        }
    }
    skyline.len()
}

/// The three local databases of the paper's Section 5.3 hotel example
/// (Qingdao, Shanghai, Xiamen), reconstructed so the local skylines match
/// Table 2(a) exactly. Shared by the `table2` experiment and the examples.
pub fn paper_hotel_sites() -> Vec<Vec<UncertainTuple>> {
    fn t(site: u32, seq: u64, values: [f64; 2], p: f64) -> UncertainTuple {
        UncertainTuple::new(
            TupleId::new(site, seq),
            values.to_vec(),
            Probability::new(p).expect("example probabilities are valid"),
        )
        .expect("example values are valid")
    }
    vec![
        vec![
            t(0, 0, [6.0, 6.0], 0.7),
            t(0, 1, [8.0, 4.0], 0.8),
            t(0, 2, [3.0, 8.0], 0.8),
            t(0, 3, [5.0, 5.0], 1.0 - 0.65 / 0.7),
            t(0, 4, [7.0, 3.0], 0.25),
            t(0, 5, [2.0, 7.0], 1.0 - (0.5f64 / 0.8).sqrt()),
            t(0, 6, [2.5, 7.5], 1.0 - (0.5f64 / 0.8).sqrt()),
        ],
        vec![
            t(1, 0, [6.5, 7.0], 0.8),
            t(1, 1, [4.0, 9.0], 0.6),
            t(1, 2, [9.0, 5.0], 0.7),
            t(1, 3, [6.2, 6.8], 1.0 - 0.65 / 0.8),
            t(1, 4, [8.5, 4.8], 1.0 - 0.6 / 0.7),
        ],
        vec![
            t(2, 0, [6.4, 7.5], 0.9),
            t(2, 1, [3.5, 11.0], 0.7),
            t(2, 2, [10.0, 4.5], 0.7),
            t(2, 3, [6.3, 7.4], 1.0 - 0.8 / 0.9),
        ],
    ]
}

/// Runs e-DSUD once and verifies it against the ship-everything baseline;
/// used as a self-check inside the experiments binary.
pub fn verify_against_baseline(spec: &ExpSpec) -> bool {
    let sites = spec.generate(0);
    let mask = SubspaceMask::full(spec.d).expect("dims are valid");
    let meter = BandwidthMeter::new();
    let reference =
        baseline::run(&sites, spec.d, spec.q, mask, &meter).expect("baseline runs succeed");
    let outcome = run_algo(Algo::Edsud, spec.d, sites, spec.q);
    let mut a: Vec<TupleId> = reference.skyline.iter().map(|e| e.tuple.id()).collect();
    let mut b: Vec<TupleId> = outcome.skyline.iter().map(|e| e.tuple.id()).collect();
    a.sort();
    b.sort();
    a == b
}
