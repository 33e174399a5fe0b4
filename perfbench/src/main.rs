//! The dsud benchmark: one named workload per invocation, every answer
//! checked against the centralized baseline, metrics printed by name with
//! their units, and one JSON result object as the last line of stdout.
//!
//! ```text
//! perfbench --workload anti-compute --seed 1 --seconds 20 --trace 0 \
//!           --dsud <path to the dsud binary> --work-dir <scratch dir>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones (the run is split into an untraced and a traced half). `run.py`
//! builds the system and this package from source and supplies `--dsud`,
//! `--work-dir` and `--commit`.

mod data;
mod inproc;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use dsud_core::{BatchSize, Transport};

use crate::data::Dist;
use crate::inproc::{keys, Spec};
use crate::serve::ServeSpec;
use crate::stats::{median, quantile};
use crate::trace::Span;

/// Set-up is repeated this many times per run and reported as a median.
pub const SETUP_REPEATS: usize = 3;

/// End-to-end metrics: printed on every `--trace 0` run.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("first_result_p50_ms", "ms"),
    ("queries_per_s", "1/s"),
    ("tuples_per_query", "count"),
    ("bytes_per_query", "bytes"),
    ("frames_per_query", "count"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: printed on every `--trace 1` run. Every timing here
/// is measured on every workload; a count or ratio of a layer a workload
/// does not pass through reads 0. Timings of layers only some workloads
/// have (the daemon's session and protocol, `complete` waits of pipelined
/// links) are printed as extra lines, outside the JSON result.
const PER_LAYER: [(&str, &str); 29] = [
    ("cluster.build_ms", "ms"),
    ("prtree.bulk_load_ms", "ms"),
    ("site.new_ms", "ms"),
    ("prtree.nodes_visited", "count"),
    ("prtree.multi_probe_visits", "count"),
    ("prtree.pruned_subtrees", "count"),
    ("site.start_ms", "ms"),
    ("site.feedback_ms", "ms"),
    ("site.refill_ms", "ms"),
    ("site.prune_ratio", "ratio"),
    ("link.busy_ms", "ms"),
    ("link.calls", "count"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.bytes_per_frame", "bytes"),
    ("wire.columnar_frames", "count"),
    ("wire.bytes_saved", "bytes"),
    ("coord.self_ms", "ms"),
    ("coord.rounds", "count"),
    ("coord.iterations", "count"),
    ("coord.broadcasts", "count"),
    ("coord.expunge_ratio", "ratio"),
    ("plan.gather_ms", "ms"),
    ("plan.plan_us", "us"),
    ("plan.planned_batch", "count"),
    ("plan.sketch_bytes", "bytes"),
    ("session.cache_hit_ratio", "ratio"),
    ("session.invalidated_per_update", "count"),
    ("obs.trace_overhead_pct", "%"),
];

const QS: [f64; 3] = [0.3, 0.5, 0.7];

/// `{DSUD, e-DSUD} x QS` twice on the space `twice` and once on `once`
/// (`None` is the full space). Full-space and subspace queries form two
/// latency clusters; weighting one of them puts the median of the mix
/// inside a cluster instead of in the gap between the two, where it would
/// jump from run to run.
fn weighted_keys(twice: Option<Vec<usize>>, once: Option<Vec<usize>>) -> Vec<inproc::Key> {
    let twice = keys(&QS, &[twice]);
    [twice.clone(), twice, keys(&QS, &[once])].concat()
}

enum Workload {
    InProcess(Spec),
    Served(ServeSpec),
}

fn workload(name: &str) -> Option<Workload> {
    Some(match name {
        // Site compute dominates: large anticorrelated local skylines,
        // inline links (no frame is ever encoded) and few batched rounds.
        "anti-compute" => Workload::InProcess(Spec {
            dist: Dist::Anticorrelated,
            dims: 4,
            n: (3_000, 9_000),
            sites: 16,
            transport: Transport::Inline,
            batch: BatchSize::Auto,
            // The cheap subspace queries fill the lowest third.
            keys: weighted_keys(None, Some(vec![0, 1, 2])),
            instances: 18,
            generations: 2,
        }),
        // Rounds dominate: one candidate per round over loopback TCP to
        // many small sites.
        "paper-rounds-tcp" => Workload::InProcess(Spec {
            dist: Dist::Independent,
            dims: 3,
            n: (2_400, 7_200),
            sites: 16,
            transport: Transport::Tcp,
            batch: BatchSize::Fixed(1),
            keys: keys(&QS, &[None]),
            instances: 7,
            generations: 12,
        }),
        // Reads beside writes on the session layer of the real daemon.
        "serve-mixed" => Workload::Served(ServeSpec {
            dist: Dist::IndependentBlocks(64),
            dims: 3,
            n: 16_000,
            sites: 16,
            clients: 2,
            update_every: 10,
            // Cache hits take the lowest tenth or so; the subspace queries
            // the next two thirds, where the median falls.
            keys: weighted_keys(Some(vec![0, 1]), None),
        }),
        _ => return None,
    })
}

/// Command-line options.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub dsud: Option<PathBuf>,
    pub work_dir: PathBuf,
    pub commit: String,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        dsud: None,
        work_dir: PathBuf::from(".bench_build/perfbench-work"),
        commit: "unknown".into(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => opts.workload = value,
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => opts.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => opts.trace = value == "1",
            "--dsud" => opts.dsud = Some(PathBuf::from(value)),
            "--work-dir" => opts.work_dir = PathBuf::from(value),
            "--commit" => opts.commit = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !opts.seconds.is_finite() || opts.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(opts)
}

/// Everything one run measured, keyed by metric name.
#[derive(Default)]
pub struct Results {
    values: BTreeMap<&'static str, f64>,
    /// Workload-specific metrics printed beside the result:
    /// `(name, value, unit, samples)`.
    extras: Vec<(&'static str, f64, &'static str, usize)>,
    notes: Vec<String>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// Spans of the traced phase, written out when the run ends.
    pub spans: Vec<Span>,
    /// `(tuples, bytes, frames)` of each query-list entry, which must
    /// repeat exactly across runs at one seed.
    pub exact_counters: Vec<(u64, u64, u64)>,
    /// Timed phases measured again because the host stole CPU time.
    pub discarded: usize,
    /// Seconds of timed phases that may still be measured again.
    pub retry_budget_s: f64,
}

impl Results {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn extra(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.extras.push((name, value, unit, samples));
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// Median and 90th percentile of a latency sample, with its count.
    pub fn latency(&mut self, p50: &'static str, p90: &'static str, samples: &[f64]) {
        self.set(p50, median(samples));
        self.set(p90, quantile(samples, 0.9));
        self.note(format!("{p50}/{p90}: n={}", samples.len()));
    }

    pub fn absorb(&mut self, attempted: u64, failed: u64, errors: &[String]) {
        self.attempted += attempted;
        self.failed += failed;
        self.errors.extend(errors.iter().cloned());
    }

    /// Records a failure of an operation already counted as attempted.
    pub fn fail(&mut self, error: String) {
        self.failed += 1;
        self.errors.push(error);
    }
}

/// Peak resident memory (`VmHWM`) of this process or of `pid`, in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A timed phase during which the host stole more than this share of the
/// machine's CPU time measured the host, not the program: it is measured
/// again while the run's retry budget (half of `--seconds`) lasts, which
/// bounds how long a run on a busy host takes.
pub const STEAL_LIMIT: f64 = 0.10;

/// Share of the machine's CPU time the host stole (`steal` in
/// `/proc/stat`) since `start`; 0 where the kernel does not report it.
pub struct StealMeter(Option<(u64, u64)>);

impl StealMeter {
    pub fn start() -> Self {
        StealMeter(cpu_ticks())
    }

    pub fn share(&self) -> f64 {
        match (self.0, cpu_ticks()) {
            (Some((s0, t0)), Some((s1, t1))) => (s1 - s0) as f64 / (t1 - t0).max(1) as f64,
            _ => 0.0,
        }
    }
}

/// `(steal, total)` CPU ticks of the machine so far.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).filter_map(|t| t.parse().ok()).collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Runs a timed phase, measuring it again while the host steals more than
/// `STEAL_LIMIT` of the CPU time and the retry budget lasts. A discarded
/// phase still counts its operations and failures through `discard`.
pub fn guarded<T>(
    out: &mut Results,
    mut phase: impl FnMut() -> T,
    discard: impl Fn(&mut Results, T),
) -> T {
    loop {
        let steal = StealMeter::start();
        let t0 = std::time::Instant::now();
        let result = phase();
        let spent = t0.elapsed().as_secs_f64();
        if steal.share() <= STEAL_LIMIT || spent > out.retry_budget_s {
            return result;
        }
        out.retry_budget_s -= spent;
        out.discarded += 1;
        discard(out, result);
    }
}

/// Compares this run's exact counters with the last run of the same
/// workload and seed by the same executable; drift is an error, not noise.
fn check_exact_counters(opts: &Opts, out: &mut Results) {
    if out.exact_counters.is_empty() {
        return;
    }
    let exe = std::env::current_exe()
        .and_then(std::fs::metadata)
        .map(|m| format!("{} {:?}", m.len(), m.modified().ok()))
        .unwrap_or_default();
    let body: String =
        out.exact_counters.iter().map(|(t, b, f)| format!("{t} {b} {f}\n")).collect();
    let record = format!("{exe}\n{body}");
    let path = opts.work_dir.join(format!("counters-{}-{}.txt", opts.workload, opts.seed));
    match std::fs::read_to_string(&path) {
        Ok(prev) if prev.lines().next() == Some(exe.as_str()) => {
            if prev != record {
                out.fail(format!(
                    "exact counters drifted from an earlier run at seed {} ({})",
                    opts.seed,
                    path.display()
                ));
            }
        }
        _ => {
            if let Err(e) = std::fs::write(&path, record) {
                out.note(format!("could not record exact counters: {e}"));
            }
        }
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload(&opts.workload) else {
        eprintln!("perfbench: unknown workload '{}'", opts.workload);
        return ExitCode::from(2);
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={nproc} pool={} commit={}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        threadpool::pool_size(),
        opts.commit
    );
    if let Err(e) = std::fs::create_dir_all(&opts.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", opts.work_dir.display());
        return ExitCode::from(2);
    }

    let mut out = Results { retry_budget_s: opts.seconds / 2.0, ..Results::default() };
    let steal = StealMeter::start();
    let ran = match &w {
        Workload::InProcess(spec) => inproc::run(spec, &opts, &mut out),
        Workload::Served(spec) => serve::run(spec, &opts, &mut out),
    };
    if let Err(e) = ran {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    out.note(format!("cpu time stolen by the host during the run: {:.1}%", steal.share() * 100.0));
    if out.discarded > 0 {
        out.note(format!(
            "{} timed phases measured again: the host stole over {:.0}% of the cpu time",
            out.discarded,
            STEAL_LIMIT * 100.0
        ));
    }
    check_exact_counters(&opts, &mut out);
    if opts.trace && !out.spans.is_empty() {
        let path = opts.work_dir.join(format!("trace-{}-{}.jsonl", opts.workload, opts.seed));
        match trace::write_spans(&path, &out.spans) {
            Ok(()) => out.note(format!("{} spans written to {}", out.spans.len(), path.display())),
            Err(e) => out.note(format!("could not write spans: {e}")),
        }
    }

    let list: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::with_capacity(list.len());
    for &(name, unit) in list {
        let value = out.values.get(name).copied().unwrap_or(0.0);
        println!("  {name:<32} {value:>14.4} {unit}");
        metrics
            .push(format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", json_number(value)));
    }
    for (name, value, unit, n) in &out.extras {
        println!("  {name:<32} {value:>14.4} {unit} (n={n})");
    }
    for note in &out.notes {
        println!("  # {note}");
    }
    let ratio = out.failed as f64 / out.attempted.max(1) as f64;
    println!("  failed_ratio {ratio:.6} ({} of {} operations)", out.failed, out.attempted);
    for e in out.errors.iter().take(20) {
        println!("  ! {e}");
    }
    let correct = out.failed == 0 && out.errors.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
