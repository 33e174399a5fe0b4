//! Regenerates every table and figure of the paper's evaluation
//! (Section 7) at harness scale.
//!
//! ```sh
//! cargo run --release -p dsud-bench --bin experiments -- all
//! cargo run --release -p dsud-bench --bin experiments -- fig8
//! DSUD_SCALE_N=2000000 DSUD_REPEATS=10 cargo run --release -p dsud-bench --bin experiments -- fig9
//! ```
//!
//! Each experiment prints a paper-style data series and appends a JSON
//! artifact under `target/experiments/`.

use std::fs;
use std::path::PathBuf;

use serde::Serialize;

use dsud_bench::{
    bandwidth_row, progress_curve, repeats, run_algo, run_algo_batched, scale_n, update_row,
    verify_against_baseline, Algo, BandwidthRow, ExpSpec,
};
use dsud_core::estimate;
use dsud_data::{ProbabilityLaw, SpatialDistribution};

/// A run's answer (sequence numbers and probability bits, in report
/// order) with two of its traffic counters, kept as the reference the
/// other settings of an experiment must reproduce.
type AnswerAndCounts = (Vec<(u64, u64)>, u64, u64);

fn artifact_dir() -> PathBuf {
    let dir = PathBuf::from("target/experiments");
    fs::create_dir_all(&dir).expect("can create target/experiments");
    dir
}

fn dump_json<T: Serialize>(name: &str, value: &T) {
    let path = artifact_dir().join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("rows serialize");
    fs::write(&path, json).expect("can write artifact");
    println!("[artifact] {}", path.display());
}

fn dump_svg(name: &str, svg: &str) {
    let path = artifact_dir().join(format!("{name}.svg"));
    fs::write(&path, svg).expect("can write artifact");
    println!("[artifact] {}", path.display());
}

fn print_table(title: &str, rows: &[BandwidthRow], name: &str) {
    dsud_bench::print_bandwidth_table(title, rows);
    dump_json(name, &rows);
    let chart = dsud_plot::CategoryChart::new(title, "configuration", "tuples transmitted")
        .ticks(rows.iter().map(|r| r.x.clone()))
        .series("DSUD", rows.iter().map(|r| r.dsud))
        .series("e-DSUD", rows.iter().map(|r| r.edsud))
        .series("Ceiling", rows.iter().map(|r| r.ceiling));
    dump_svg(name, &chart.to_svg());
}

/// Fig. 8: bandwidth vs dimensionality d ∈ {2,3,4,5}, both distributions.
fn fig8() {
    for (dist, label) in [
        (SpatialDistribution::Independent, "independent"),
        (SpatialDistribution::Anticorrelated, "anticorrelated"),
    ] {
        let rows: Vec<BandwidthRow> = [2usize, 3, 4, 5]
            .iter()
            .map(|&d| {
                let spec = ExpSpec { d, spatial: dist, ..ExpSpec::table3_defaults() };
                bandwidth_row(&spec, format!("d={d}"), false)
            })
            .collect();
        print_table(
            &format!("Fig 8 ({label}): bandwidth vs dimensionality"),
            &rows,
            &format!("fig8_{label}"),
        );
    }
}

/// Fig. 9: bandwidth vs number of sites m ∈ {40,60,80,100}.
fn fig9() {
    for (dist, label) in [
        (SpatialDistribution::Independent, "independent"),
        (SpatialDistribution::Anticorrelated, "anticorrelated"),
    ] {
        let rows: Vec<BandwidthRow> = [40usize, 60, 80, 100]
            .iter()
            .map(|&m| {
                let spec = ExpSpec { m, spatial: dist, ..ExpSpec::table3_defaults() };
                bandwidth_row(&spec, format!("m={m}"), false)
            })
            .collect();
        print_table(
            &format!("Fig 9 ({label}): bandwidth vs number of sites"),
            &rows,
            &format!("fig9_{label}"),
        );
    }
}

/// Fig. 10: bandwidth vs threshold q ∈ {0.3,0.5,0.7,0.9}.
fn fig10() {
    for (dist, label) in [
        (SpatialDistribution::Independent, "independent"),
        (SpatialDistribution::Anticorrelated, "anticorrelated"),
    ] {
        let rows: Vec<BandwidthRow> = [0.3f64, 0.5, 0.7, 0.9]
            .iter()
            .map(|&q| {
                let spec = ExpSpec { q, spatial: dist, ..ExpSpec::table3_defaults() };
                bandwidth_row(&spec, format!("q={q}"), false)
            })
            .collect();
        print_table(
            &format!("Fig 10 ({label}): bandwidth vs threshold"),
            &rows,
            &format!("fig10_{label}"),
        );
    }
}

/// Fig. 11: NYSE — (a) bandwidth vs m, (b) bandwidth vs q (uniform), and
/// (c,d) bandwidth and answer size vs gaussian mean μ.
fn fig11() {
    let rows: Vec<BandwidthRow> = [40usize, 60, 80, 100]
        .iter()
        .map(|&m| {
            let spec = ExpSpec { m, d: 2, ..ExpSpec::table3_defaults() };
            bandwidth_row(&spec, format!("m={m}"), true)
        })
        .collect();
    print_table("Fig 11a (NYSE, uniform): bandwidth vs sites", &rows, "fig11a");

    let rows: Vec<BandwidthRow> = [0.3f64, 0.5, 0.7, 0.9]
        .iter()
        .map(|&q| {
            let spec = ExpSpec { q, d: 2, ..ExpSpec::table3_defaults() };
            bandwidth_row(&spec, format!("q={q}"), true)
        })
        .collect();
    print_table("Fig 11b (NYSE, uniform): bandwidth vs threshold", &rows, "fig11b");

    let rows: Vec<BandwidthRow> = [0.3f64, 0.5, 0.7, 0.9]
        .iter()
        .map(|&mu| {
            let spec = ExpSpec {
                d: 2,
                prob: ProbabilityLaw::Gaussian { mean: mu, std_dev: 0.2 },
                ..ExpSpec::table3_defaults()
            };
            bandwidth_row(&spec, format!("mu={mu}"), true)
        })
        .collect();
    print_table("Fig 11c/d (NYSE, gaussian): bandwidth and answer size vs mean", &rows, "fig11cd");
}

#[derive(Serialize)]
struct ProgressSeries {
    label: String,
    points: Vec<dsud_bench::ProgressPoint>,
}

fn progress_experiment(name: &str, title: &str, nyse: bool, specs: Vec<(String, ExpSpec)>) {
    let mut all = Vec::new();
    println!("\n== {title} ==");
    for (label, spec) in specs {
        for algo in [Algo::Dsud, Algo::Edsud] {
            let sites = if nyse { spec.generate_nyse(0) } else { spec.generate(0) };
            let outcome = run_algo(algo, spec.d, sites, spec.q);
            let points = progress_curve(&outcome, 8);
            println!("-- {label} / {}:", algo.label());
            for p in &points {
                println!(
                    "   reported={:<6} tuples={:<10} cpu={:.1}ms",
                    p.reported, p.tuples, p.cpu_ms
                );
            }
            all.push(ProgressSeries { label: format!("{label}/{}", algo.label()), points });
        }
    }
    dump_json(name, &all);
    let mut bw = dsud_plot::XyChart::new(
        format!("{title} — bandwidth"),
        "skyline tuples reported",
        "tuples transmitted",
    );
    let mut cpu = dsud_plot::XyChart::new(
        format!("{title} — CPU time"),
        "skyline tuples reported",
        "milliseconds",
    );
    for series in &all {
        bw = bw.series(
            series.label.clone(),
            series.points.iter().map(|p| (p.reported as f64, p.tuples as f64)),
        );
        cpu = cpu.series(
            series.label.clone(),
            series.points.iter().map(|p| (p.reported as f64, p.cpu_ms)),
        );
    }
    dump_svg(&format!("{name}_bandwidth"), &bw.to_svg());
    dump_svg(&format!("{name}_cpu"), &cpu.to_svg());
}

/// Fig. 12: progressiveness on synthetic data (bandwidth and CPU time as a
/// function of reported skyline tuples).
fn fig12() {
    progress_experiment(
        "fig12",
        "Fig 12: progressiveness, synthetic data",
        false,
        vec![
            ("independent".to_string(), ExpSpec { ..ExpSpec::table3_defaults() }),
            (
                "anticorrelated".to_string(),
                ExpSpec {
                    spatial: SpatialDistribution::Anticorrelated,
                    ..ExpSpec::table3_defaults()
                },
            ),
        ],
    );
}

/// Fig. 13: progressiveness on NYSE with uniform and gaussian
/// probabilities.
fn fig13() {
    progress_experiment(
        "fig13",
        "Fig 13: progressiveness, NYSE data",
        true,
        vec![
            ("uniform".to_string(), ExpSpec { d: 2, ..ExpSpec::table3_defaults() }),
            (
                "gaussian".to_string(),
                ExpSpec {
                    d: 2,
                    prob: ProbabilityLaw::Gaussian { mean: 0.5, std_dev: 0.2 },
                    ..ExpSpec::table3_defaults()
                },
            ),
        ],
    );
}

/// Fig. 14: update response time vs update rate, Incremental vs Naive.
fn fig14() {
    for (dist, label) in [
        (SpatialDistribution::Independent, "independent"),
        (SpatialDistribution::Anticorrelated, "anticorrelated"),
    ] {
        let spec = ExpSpec { spatial: dist, ..ExpSpec::table3_defaults() };
        let rows: Vec<_> =
            [20usize, 40, 60, 80, 100].iter().map(|&rate| update_row(&spec, rate)).collect();
        println!("\n== Fig 14 ({label}): response time to fresh results vs update rate ==");
        println!(
            "{:<8} {:>14} {:>12} {:>18} {:>12} {:>12}",
            "rate", "Incr resp(ms)", "Naive(ms)", "Incr maint(ms)", "Incr(tuples)", "Naive(tuples)"
        );
        for r in &rows {
            println!(
                "{:<8} {:>14.2} {:>12.1} {:>18.1} {:>12} {:>12}",
                format!("{}%", r.rate_pct),
                r.incremental_response_ms,
                r.naive_response_ms,
                r.incremental_maintenance_ms,
                r.incremental_tuples,
                r.naive_tuples
            );
        }
        dump_json(&format!("fig14_{label}"), &rows);
        let chart = dsud_plot::CategoryChart::new(
            format!("Fig 14 ({label}): response to fresh results"),
            "update rate",
            "milliseconds",
        )
        .ticks(rows.iter().map(|r| format!("{}%", r.rate_pct)))
        .series("Incremental", rows.iter().map(|r| r.incremental_response_ms))
        .series("Naive", rows.iter().map(|r| r.naive_response_ms));
        dump_svg(&format!("fig14_{label}"), &chart.to_svg());
    }
}

/// Observability trajectories: one fully-instrumented DSUD and e-DSUD run
/// at Table 3 defaults, each emitting a schema-versioned
/// [`dsud_core::RunReport`] as `BENCH_<algo>.json` in the working
/// directory (span timings, cost-model counters, progressive trace).
fn reports() {
    use dsud_core::{BatchSize, Cluster, QueryConfig, Recorder, SiteOptions, WireFormat};
    println!("\n== Run reports: instrumented DSUD / e-DSUD at Table 3 defaults ==");
    let spec = ExpSpec::table3_defaults();
    for (algo, name) in [(Algo::Dsud, "dsud"), (Algo::Edsud, "edsud")] {
        let sites = spec.generate(0);
        let recorder = Recorder::enabled();
        // The CLI's serving defaults: auto-batched rounds over columnar
        // frames, so the schema-7 wire counters (`columnar_frames`,
        // `bytes_saved`) measure the layout the daemon actually ships.
        let options = SiteOptions { wire: WireFormat::Columnar, ..SiteOptions::default() };
        let mut cluster = Cluster::local_instrumented(spec.d, sites, options, recorder.clone())
            .expect("experiment clusters are valid");
        let config = QueryConfig::new(spec.q)
            .expect("experiment thresholds are valid")
            .batch_size(BatchSize::Auto)
            .wire_format(WireFormat::Columnar);
        let outcome = match algo {
            Algo::Dsud => cluster.run_dsud(&config),
            _ => cluster.run_edsud(&config),
        }
        .expect("experiment queries succeed");
        let mut report = recorder.report(name).expect("recorder is enabled");
        report.batch_size = Some(config.batch.name());
        report.pipeline = Some(config.pipeline.name());
        report.wire = Some(config.wire.as_str().to_string());
        report.topology = Some(dsud_core::Topology::Flat.to_string());
        report.agg_depth = Some(cluster.plan().depth());
        report.root_fanout = Some(cluster.plan().root_fanout());
        report.plan = Some("sketch".to_string());
        report.planned_batch = outcome.plan.as_ref().and_then(|s| s.planned_batch);
        let path = PathBuf::from(format!("BENCH_{name}.json"));
        let json = serde_json::to_string_pretty(&report).expect("reports serialize");
        fs::write(&path, json).expect("can write run report");
        println!(
            "[artifact] {} — {} answers, {} rounds, {} tuples shipped, {} bytes, {:.1} ms",
            path.display(),
            outcome.skyline.len(),
            report.counters.rounds,
            report.counters.tuples_shipped,
            report.counters.bytes_sent,
            report.wall_ms
        );
    }
}

/// Candidate batching: messages and bytes at batch sizes K ∈ {1, 4, 16,
/// auto} for DSUD and e-DSUD at Table 3 defaults. The skyline is asserted
/// identical across every K — batching is a pure wire optimization.
fn batching() {
    use dsud_core::BatchSize;
    println!("\n== Batched vs unbatched feedback: messages / bytes at Table 3 defaults ==");
    let spec = ExpSpec::table3_defaults();

    #[derive(Serialize)]
    struct Row {
        algo: String,
        batch: String,
        messages: u64,
        bytes: u64,
        tuples: u64,
        answers: usize,
    }
    let mut rows = Vec::new();
    println!(
        "{:<8} {:>6} {:>12} {:>14} {:>12} {:>9}",
        "algo", "batch", "messages", "bytes", "tuples", "answers"
    );
    for algo in [Algo::Dsud, Algo::Edsud] {
        let mut reference: Option<Vec<(u64, u64)>> = None;
        let mut unbatched: Option<(u64, u64)> = None;
        for batch in
            [BatchSize::Fixed(1), BatchSize::Fixed(4), BatchSize::Fixed(16), BatchSize::Auto]
        {
            let sites = spec.generate(0);
            let outcome = run_algo_batched(algo, spec.d, sites, spec.q, batch);
            let answer: Vec<(u64, u64)> = outcome
                .skyline
                .iter()
                .map(|e| (e.tuple.id().seq, e.probability.to_bits()))
                .collect();
            match &reference {
                None => reference = Some(answer),
                Some(r) => {
                    assert_eq!(&answer, r, "{}: batch {batch} changed the answer", { algo.label() })
                }
            }
            let total = outcome.traffic.total();
            match unbatched {
                None => unbatched = Some((total.messages, total.tuples)),
                Some((messages_1, tuples_1)) => {
                    assert_eq!(
                        total.tuples,
                        tuples_1,
                        "{}: batch {batch} changed tuple traffic",
                        algo.label()
                    );
                    if batch == BatchSize::Fixed(16) {
                        // e-DSUD's residual traffic is expunge refills,
                        // which ship no feedback and cannot coalesce.
                        let floor = if matches!(algo, Algo::Edsud) { 2 } else { 5 };
                        assert!(
                            total.messages * floor <= messages_1,
                            "{}: batch 16 sent {} messages vs {} unbatched (need {floor}x)",
                            algo.label(),
                            total.messages,
                            messages_1
                        );
                    }
                }
            }
            println!(
                "{:<8} {:>6} {:>12} {:>14} {:>12} {:>9}",
                algo.label(),
                batch.to_string(),
                total.messages,
                total.bytes,
                total.tuples,
                outcome.skyline.len()
            );
            rows.push(Row {
                algo: algo.label().to_string(),
                batch: batch.to_string(),
                messages: total.messages,
                bytes: total.bytes,
                tuples: total.tuples,
                answers: outcome.skyline.len(),
            });
        }
    }
    dump_json("batching", &rows);
}

/// Pipelined rounds: wall-clock of the query phase with an injected
/// per-request delay (`DSUD_PIPELINE_DELAY_MS`, default 2 ms), window 1
/// vs `auto`, DSUD and e-DSUD at Table 3 defaults. A sequential round
/// pays the survival scatter and the refill back to back; the pipelined
/// round issues the refill before the scatter, so the two delays overlap.
/// The answer is asserted identical — pipelining is a pure latency
/// optimization.
fn pipeline() {
    use std::time::{Duration, Instant};

    use dsud_core::{
        dsud, edsud, BandwidthMeter, Link, LinkConfig, LocalSite, PipelineDepth, QueryConfig,
        QueryOutcome, SiteOptions, SubspaceMask,
    };
    use dsud_net::{ChannelLink, DelayedService};

    let delay_ms = std::env::var("DSUD_PIPELINE_DELAY_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(2);
    let delay = Duration::from_millis(delay_ms);
    println!(
        "\n== Pipelined rounds: query wall-clock at Table 3 defaults, {delay_ms} ms/request =="
    );
    let spec = ExpSpec::table3_defaults();
    let mask = SubspaceMask::full(spec.d).expect("valid dims");

    #[derive(Serialize)]
    struct Row {
        algo: String,
        pipeline: String,
        wall_ms: f64,
        speedup: f64,
        answers: usize,
    }
    let mut rows = Vec::new();
    println!(
        "{:<8} {:>9} {:>12} {:>9} {:>9}",
        "algo", "pipeline", "wall(ms)", "speedup", "answers"
    );
    for algo in [Algo::Dsud, Algo::Edsud] {
        let mut reference: Option<(Vec<(u64, u64)>, f64)> = None;
        for window in [PipelineDepth::Fixed(1), PipelineDepth::Auto] {
            let meter = BandwidthMeter::default();
            let mut links: Vec<Box<dyn Link>> = Vec::new();
            for (i, tuples) in spec.generate(0).into_iter().enumerate() {
                let site = LocalSite::new(i as u32, spec.d, tuples, SiteOptions::default())
                    .expect("experiment sites are valid");
                links.push(Box::new(ChannelLink::spawn_with(
                    DelayedService::new(site, delay),
                    meter.clone(),
                    LinkConfig::default(),
                )));
            }
            let started = Instant::now();
            let config = QueryConfig::new(spec.q).expect("valid threshold").pipeline_depth(window);
            let outcome: QueryOutcome = match algo {
                Algo::Dsud => dsud::run(&mut links, &meter, mask, &config),
                _ => edsud::run(&mut links, &meter, mask, &config),
            }
            .expect("experiment queries succeed");
            let wall_ms = started.elapsed().as_secs_f64() * 1e3;
            let answer: Vec<(u64, u64)> = outcome
                .skyline
                .iter()
                .map(|e| (e.tuple.id().seq, e.probability.to_bits()))
                .collect();
            let speedup = match &reference {
                None => {
                    reference = Some((answer, wall_ms));
                    1.0
                }
                Some((r, wall_1)) => {
                    assert_eq!(
                        &answer,
                        r,
                        "{}: pipeline {window} changed the answer",
                        algo.label()
                    );
                    wall_1 / wall_ms
                }
            };
            println!(
                "{:<8} {:>9} {:>12.1} {:>8.2}x {:>9}",
                algo.label(),
                window.to_string(),
                wall_ms,
                speedup,
                outcome.skyline.len()
            );
            rows.push(Row {
                algo: algo.label().to_string(),
                pipeline: window.to_string(),
                wall_ms,
                speedup,
                answers: outcome.skyline.len(),
            });
        }
    }
    dump_json("pipeline", &rows);
}

/// Zero-copy wire layout: legacy vs columnar frames end to end at Table 3
/// defaults over a delayed link (`DSUD_PIPELINE_DELAY_MS`, default 2 ms),
/// batch 16 so every feedback frame clears the columnar byte break-even,
/// plus the dominance-kernel microbenchmark (serial vs chunked comparison
/// kernel at N = 20 000 rows, d ∈ {2, 4, 8}). The skyline and the paper's
/// tuple measure are asserted identical between layouts — the wire format
/// only moves bytes and wall-clock.
fn wire() {
    use std::hint::black_box;
    use std::time::{Duration, Instant};

    use dsud_core::{
        dsud, edsud, BandwidthMeter, BatchSize, Link, LinkConfig, LocalSite, QueryConfig,
        QueryOutcome, SiteOptions, SubspaceMask, WireFormat,
    };
    use dsud_net::{ChannelLink, DelayedService};

    let delay_ms = std::env::var("DSUD_PIPELINE_DELAY_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(2);
    let delay = Duration::from_millis(delay_ms);
    println!(
        "\n== Wire layout: legacy vs columnar frames at Table 3 defaults, batch 16, {delay_ms} ms/request =="
    );
    let spec = ExpSpec::table3_defaults();
    let mask = SubspaceMask::full(spec.d).expect("valid dims");

    #[derive(Serialize)]
    struct Row {
        algo: String,
        wire: String,
        messages: u64,
        bytes: u64,
        tuples: u64,
        wall_ms: f64,
        answers: usize,
    }
    let mut rows = Vec::new();
    println!(
        "{:<8} {:>9} {:>10} {:>14} {:>10} {:>12} {:>9}",
        "algo", "wire", "messages", "bytes", "tuples", "wall(ms)", "answers"
    );
    for algo in [Algo::Dsud, Algo::Edsud] {
        let mut reference: Option<AnswerAndCounts> = None;
        for wire in [WireFormat::Legacy, WireFormat::Columnar] {
            let meter = BandwidthMeter::default();
            let mut links: Vec<Box<dyn Link>> = Vec::new();
            for (i, tuples) in spec.generate(0).into_iter().enumerate() {
                let site = LocalSite::new(
                    i as u32,
                    spec.d,
                    tuples,
                    SiteOptions { wire, ..SiteOptions::default() },
                )
                .expect("experiment sites are valid");
                links.push(Box::new(ChannelLink::spawn_with(
                    DelayedService::new(site, delay),
                    meter.clone(),
                    LinkConfig::default(),
                )));
            }
            let started = Instant::now();
            let config = QueryConfig::new(spec.q)
                .expect("valid threshold")
                .batch_size(BatchSize::Fixed(16))
                .wire_format(wire);
            let outcome: QueryOutcome = match algo {
                Algo::Dsud => dsud::run(&mut links, &meter, mask, &config),
                _ => edsud::run(&mut links, &meter, mask, &config),
            }
            .expect("experiment queries succeed");
            let wall_ms = started.elapsed().as_secs_f64() * 1e3;
            let answer: Vec<(u64, u64)> = outcome
                .skyline
                .iter()
                .map(|e| (e.tuple.id().seq, e.probability.to_bits()))
                .collect();
            let total = outcome.traffic.total();
            match &reference {
                None => reference = Some((answer, total.messages, total.tuples)),
                Some((r, messages, tuples)) => {
                    assert_eq!(&answer, r, "{}: {wire} wire changed the answer", algo.label());
                    assert_eq!(
                        total.messages,
                        *messages,
                        "{}: {wire} wire changed message traffic",
                        algo.label()
                    );
                    assert_eq!(
                        total.tuples,
                        *tuples,
                        "{}: {wire} wire changed tuple traffic",
                        algo.label()
                    );
                }
            }
            println!(
                "{:<8} {:>9} {:>10} {:>14} {:>10} {:>12.1} {:>9}",
                algo.label(),
                wire.to_string(),
                total.messages,
                total.bytes,
                total.tuples,
                wall_ms,
                outcome.skyline.len()
            );
            rows.push(Row {
                algo: algo.label().to_string(),
                wire: wire.to_string(),
                messages: total.messages,
                bytes: total.bytes,
                tuples: total.tuples,
                wall_ms,
                answers: outcome.skyline.len(),
            });
        }
    }
    dump_json("wire", &rows);

    // --- Dominance-kernel microbenchmark -------------------------------
    //
    // Survival-product throughput, scalar vs chunked: the scalar baseline
    // is the row-major per-tuple loop (`dominates_in` + complement
    // multiply, exactly what the batched round ran before the SoA kernel);
    // the chunked side is `Batch::survival_product` over the columnar
    // layout with the four-accumulator comparison kernel. Both are
    // asserted bit-identical before timing, same as the criterion bench.
    use dsud_uncertain::{dominates_in, Batch};

    println!("\n== Dominance kernel: scalar tuple loop vs chunked columnar, N = 20000 rows ==");
    const KERNEL_N: usize = 20_000;

    #[derive(Serialize)]
    struct KernelRow {
        d: usize,
        scalar_ms: f64,
        chunked_ms: f64,
        speedup: f64,
        mrows_per_s: f64,
    }
    let mut kernel_rows = Vec::new();
    println!(
        "{:<4} {:>12} {:>13} {:>9} {:>11}",
        "d", "scalar(ms)", "chunked(ms)", "speedup", "Mrows/s"
    );
    for d in [2usize, 4, 8] {
        let tuples = dsud_data::WorkloadSpec::new(KERNEL_N, d)
            .seed(16)
            .generate()
            .expect("kernel workload generates");
        let batch = Batch::from_tuples(d, &tuples);
        let mask = SubspaceMask::full(d).expect("valid dims");
        let probes: Vec<Vec<f64>> =
            tuples.iter().step_by(KERNEL_N / 128).map(|t| t.values().to_vec()).collect();

        let scalar_product = |p: &[f64]| -> f64 {
            let mut product = 1.0;
            for t in &tuples {
                if dominates_in(t.values(), p, mask) {
                    product *= 1.0 - t.prob().get();
                }
            }
            product
        };
        for p in &probes {
            assert_eq!(
                scalar_product(p).to_bits(),
                batch.survival_product(p, mask).to_bits(),
                "kernel must stay bit-identical to the scalar loop"
            );
        }

        // Best-of-5 sweeps over all probes to shave scheduler noise.
        let time_sweep = |f: &dyn Fn(&[f64]) -> f64| -> f64 {
            let mut best = f64::INFINITY;
            for _ in 0..5 {
                let started = Instant::now();
                let mut acc = 0.0;
                for p in &probes {
                    acc += f(black_box(p));
                }
                black_box(acc);
                best = best.min(started.elapsed().as_secs_f64() * 1e3);
            }
            best
        };
        let scalar_ms = time_sweep(&scalar_product);
        let chunked_ms = time_sweep(&|p: &[f64]| batch.survival_product(p, mask));
        let speedup = scalar_ms / chunked_ms;
        let mrows_per_s = (KERNEL_N * probes.len()) as f64 / (chunked_ms * 1e-3) / 1e6;
        println!(
            "{:<4} {:>12.2} {:>13.2} {:>8.2}x {:>11.0}",
            d, scalar_ms, chunked_ms, speedup, mrows_per_s
        );
        if d == 4 {
            assert!(
                speedup >= 1.5,
                "chunked kernel must be >= 1.5x the scalar loop at d = 4, got {speedup:.2}x"
            );
        }
        kernel_rows.push(KernelRow { d, scalar_ms, chunked_ms, speedup, mrows_per_s });
    }
    dump_json("wire_kernel", &kernel_rows);
}

/// Tree-of-coordinators topology: root-link frames, bytes, and
/// wall-clock for flat vs tree:4 vs tree:8 at m ∈ {16, 64, 256}, every
/// hop served through a 2 ms `DelayedService`
/// (`DSUD_PIPELINE_DELAY_MS` overrides). The skyline is asserted
/// bit-identical at every fanout — aggregators merge frames, never fold
/// survival products — and at m = 64 both trees must cut root-link
/// frames by at least 2x, which is the whole point of the layer.
fn topology() {
    use std::time::{Duration, Instant};

    use dsud_core::{Cluster, LinkConfig, QueryConfig, Recorder, SiteOptions, Topology, Transport};

    let delay_ms = std::env::var("DSUD_PIPELINE_DELAY_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(2);
    let delay = Duration::from_millis(delay_ms);
    // The table sweeps to m = 256 threaded sites with a per-hop pause, so
    // it runs at a reduced cardinality regardless of DSUD_SCALE_N.
    let n = scale_n().min(8_000);
    println!("\n== Topology: root fan-out flat vs tree, {delay_ms} ms/hop, N={n}, q=0.3 ==");

    #[derive(Serialize)]
    struct Row {
        m: usize,
        topology: String,
        root_links: usize,
        depth: u32,
        messages: u64,
        bytes: u64,
        wall_ms: f64,
        answers: usize,
    }
    let mut rows = Vec::new();
    println!(
        "{:<6} {:<8} {:>10} {:>6} {:>10} {:>14} {:>10} {:>9}",
        "m", "topology", "root links", "depth", "messages", "bytes", "wall(ms)", "answers"
    );
    for m in [16usize, 64, 256] {
        let spec = ExpSpec { m, n, ..ExpSpec::table3_defaults() };
        let mut reference: Option<(Vec<(u64, u64)>, u64)> = None;
        for topo in [Topology::Flat, Topology::Tree(4), Topology::Tree(8)] {
            let mut cluster = Cluster::with_topology_delayed(
                spec.d,
                spec.generate(0),
                SiteOptions::default(),
                Recorder::default(),
                Transport::Threaded,
                LinkConfig::default(),
                topo,
                delay,
            )
            .expect("experiment clusters are valid");
            let config = QueryConfig::new(spec.q).expect("experiment thresholds are valid");
            let started = Instant::now();
            let outcome = cluster.run_dsud(&config).expect("experiment queries succeed");
            let wall_ms = started.elapsed().as_secs_f64() * 1e3;
            let answer: Vec<(u64, u64)> = outcome
                .skyline
                .iter()
                .map(|e| (e.tuple.id().seq, e.probability.to_bits()))
                .collect();
            let total = outcome.traffic.total();
            match &reference {
                None => reference = Some((answer, total.messages)),
                Some((flat_answer, flat_messages)) => {
                    assert_eq!(&answer, flat_answer, "m={m}: topology {topo} changed the answer");
                    if m == 64 {
                        assert!(
                            total.messages * 2 <= *flat_messages,
                            "m=64: {topo} shipped {} root-link frames vs {} flat (need 2x cut)",
                            total.messages,
                            flat_messages
                        );
                    }
                }
            }
            println!(
                "{:<6} {:<8} {:>10} {:>6} {:>10} {:>14} {:>10.1} {:>9}",
                m,
                topo.to_string(),
                cluster.plan().root_fanout(),
                cluster.plan().depth(),
                total.messages,
                total.bytes,
                wall_ms,
                outcome.skyline.len()
            );
            rows.push(Row {
                m,
                topology: topo.to_string(),
                root_links: cluster.plan().root_fanout(),
                depth: cluster.plan().depth(),
                messages: total.messages,
                bytes: total.bytes,
                wall_ms,
                answers: outcome.skyline.len(),
            });
        }
    }
    dump_json("topology", &rows);
}

/// Eqs. 6–8: estimated vs measured skyline cardinality and the
/// N_back > N_local comparison that motivates feedback selection.
fn estimate_experiment() {
    println!("\n== Eq 6-8: cardinality estimation vs measurement ==");
    println!(
        "{:<8} {:>14} {:>14} {:>14} {:>14}",
        "d", "H(d,N) est", "measured", "N_back", "N_local"
    );
    #[derive(Serialize)]
    struct Row {
        d: usize,
        estimated: f64,
        measured: f64,
        n_back: f64,
        n_local: f64,
    }
    let mut rows = Vec::new();
    for d in [2usize, 3, 4, 5] {
        let spec = ExpSpec { d, ..ExpSpec::table3_defaults() };
        let analysis = estimate::analyze(spec.m, d, spec.n);
        // Measure the *certain* skyline of one materialized world, which is
        // what Eq. 6 models (the kernel is the classic ln^{d-1}(n)/d! law).
        let sites = spec.generate(0);
        let mut world: Vec<Vec<f64>> = Vec::new();
        let mut rng_state = 0x12345678u64;
        for t in sites.iter().flatten() {
            // Deterministic per-tuple materialization.
            rng_state =
                rng_state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let u = ((rng_state >> 11) as f64) / ((1u64 << 53) as f64);
            if u < t.prob().get() {
                world.push(t.values().to_vec());
            }
        }
        let mask = dsud_core::SubspaceMask::full(d).expect("valid dims");
        let measured = dsud_bench::certain_skyline_len(&world, mask) as f64;
        println!(
            "{:<8} {:>14.1} {:>14.0} {:>14.0} {:>14.0}",
            d, analysis.expected_skylines, measured, analysis.n_back, analysis.n_local
        );
        rows.push(Row {
            d,
            estimated: analysis.expected_skylines,
            measured,
            n_back: analysis.n_back,
            n_local: analysis.n_local,
        });
    }
    dump_json("estimate", &rows);
}

/// Table 2: the Section 5.3 worked example, end to end.
fn table2() {
    use dsud_bench::paper_hotel_sites;
    use dsud_core::{Cluster, QueryConfig};
    println!("\n== Table 2: the Section 5.3 hotel example (q = 0.3) ==");
    let config = QueryConfig::new(0.3).expect("0.3 is a valid threshold");
    let mut e_cluster = Cluster::local(2, paper_hotel_sites()).expect("example data is valid");
    let edsud = e_cluster.run_edsud(&config).expect("example query succeeds");
    let mut d_cluster = Cluster::local(2, paper_hotel_sites()).expect("example data is valid");
    let dsud = d_cluster.run_dsud(&config).expect("example query succeeds");

    println!("SKY(H):");
    for entry in &edsud.skyline {
        println!("  {:?}  P_gsky = {:.2}", entry.tuple.values(), entry.probability);
    }
    println!(
        "e-DSUD: {} tuples transmitted, {} broadcasts, {} expunged",
        edsud.tuples_transmitted(),
        edsud.stats.broadcasts,
        edsud.stats.expunged
    );
    println!(
        "DSUD  : {} tuples transmitted, {} broadcasts",
        dsud.tuples_transmitted(),
        dsud.stats.broadcasts
    );
    assert_eq!(edsud.skyline.len(), 3, "the example has exactly three answers");
}

/// Seeded chaos soak: served queries under deterministic link faults,
/// with heartbeat-driven quarantine, rejoin resync, and a deadline
/// cancellation — every outcome must be exact or stamped, and the
/// deployment must converge back to exact answers after it heals.
///
/// `DSUD_CHAOS_SEED` overrides the fault seed; `DSUD_CHAOS_TRANSPORT`
/// picks `inline` (default), `threaded`, or `tcp`. The same seed replays
/// the same schedule on every transport.
fn chaos() {
    use dsud_core::chaos::{soak, ChaosOptions, ChaosReport};
    use dsud_core::{FaultKind, FaultPlan, LinkConfig, Transport, WireFormat};

    // Default to the first seed whose derived plans contain a hard-fault
    // window longer than the retry budget, so the default soak provably
    // exercises the whole lifecycle: quarantine, deferral, resync, rejoin.
    let default_seed = {
        let attempts = u64::from(LinkConfig::default().retry_budget) + 1;
        (1u64..256)
            .find(|&seed| {
                (0..4u32).any(|site| {
                    FaultPlan::seeded(seed, site)
                        .windows()
                        .iter()
                        .any(|w| w.len >= attempts && !matches!(w.kind, FaultKind::Slow(_)))
                })
            })
            .unwrap_or(42)
    };
    let seed =
        std::env::var("DSUD_CHAOS_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(default_seed);
    let transport = std::env::var("DSUD_CHAOS_TRANSPORT")
        .ok()
        .and_then(|v| v.parse::<Transport>().ok())
        .unwrap_or(Transport::Inline);

    println!("\n== Chaos soak: seeded faults, quarantine, rejoin (seed {seed}, {transport}) ==");
    println!(
        "{:<9} {:>6} {:>6} {:>9} {:>9} {:>11} {:>7} {:>11} {:>7} {:>9}",
        "wire",
        "seed",
        "exact",
        "degraded",
        "cancelled",
        "quarantines",
        "misses",
        "resync_ops",
        "rejoins",
        "recovered"
    );
    let sites = dsud_data::WorkloadSpec::new(600, 3)
        .seed(23)
        .generate_partitioned(4)
        .expect("chaos workload generates");
    let mut reports: Vec<ChaosReport> = Vec::new();
    for wire in [WireFormat::Legacy, WireFormat::Columnar] {
        let opts = ChaosOptions { seed, transport, wire, ..ChaosOptions::default() };
        let report = soak(3, sites.clone(), &opts).expect("chaos soak completes without errors");
        println!(
            "{:<9} {:>6} {:>6} {:>9} {:>9} {:>11} {:>7} {:>11} {:>7} {:>9}",
            wire.as_str(),
            report.seed,
            report.exact,
            report.degraded,
            report.cancelled,
            report.quarantines,
            report.heartbeat_misses,
            report.resync_ops,
            report.rejoins,
            report.recovered
        );
        assert_eq!(
            report.mismatches, 0,
            "{wire}: a non-degraded, non-cancelled outcome diverged from the reference \
             (replay with seed {seed})"
        );
        assert!(
            report.recovered,
            "{wire}: the deployment never converged back to exact answers \
             (replay with seed {seed})"
        );
        assert!(report.cancelled >= 1, "{wire}: the deadline exercise must cancel");
        reports.push(report);
    }
    dump_json("chaos", &reports);
}

fn sanity() {
    let spec = ExpSpec { n: 5_000, m: 10, ..ExpSpec::table3_defaults() };
    assert!(
        verify_against_baseline(&spec),
        "e-DSUD diverged from the centralized baseline — refusing to report numbers"
    );
    println!("[sanity] e-DSUD matches the centralized baseline at N=5000, m=10");
}

fn main() {
    let which: Vec<String> = std::env::args().skip(1).collect();
    let all = which.is_empty() || which.iter().any(|a| a == "all");
    let want = |name: &str| all || which.iter().any(|a| a == name);

    println!(
        "DSUD experiment harness: N={}, repeats={} (override with DSUD_SCALE_N / DSUD_REPEATS)",
        scale_n(),
        repeats()
    );
    sanity();

    if want("fig8") {
        fig8();
    }
    if want("fig9") {
        fig9();
    }
    if want("fig10") {
        fig10();
    }
    if want("fig11") {
        fig11();
    }
    if want("fig12") {
        fig12();
    }
    if want("fig13") {
        fig13();
    }
    if want("fig14") {
        fig14();
    }
    if want("estimate") {
        estimate_experiment();
    }
    if want("report") {
        reports();
    }
    if want("table2") {
        table2();
    }
    if want("batching") {
        batching();
    }
    if want("pipeline") {
        pipeline();
    }
    if want("wire") {
        wire();
    }
    if want("topology") {
        topology();
    }
    if want("chaos") {
        chaos();
    }
}
