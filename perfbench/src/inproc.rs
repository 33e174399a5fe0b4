//! In-process workloads: the library's public API, `Cluster::with_topology`
//! then `Cluster::run_dsud` / `Cluster::run_edsud`, driven by one
//! closed-loop caller cycling a fixed query list.

use std::time::{Duration, Instant};

use dsud_core::{
    BatchSize, Cluster, Counter, Link, LinkConfig, LinkError, LocalSite, PipelineDepth, PlanMode,
    QueryConfig, QueryOutcome, Recorder, SiteOptions, SubspaceMask, Ticket, Topology, Transport,
    UncertainTuple, WireFormat,
};
use dsud_net::Message;
use dsud_prtree::PrTree;

use crate::data::{self, Dist, Reference};
use crate::stats::{mean, median};
use crate::trace::{self, QueryLayers, Span, Tracer};
use crate::{guarded, Opts, Results, SETUP_REPEATS};

/// Spans kept for the trace file; later spans are counted but not stored.
const MAX_STORED_SPANS: usize = 400_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    Dsud,
    Edsud,
}

impl Algo {
    pub fn name(self) -> &'static str {
        match self {
            Algo::Dsud => "dsud",
            Algo::Edsud => "edsud",
        }
    }
}

/// One entry of a workload's query list.
#[derive(Debug, Clone, PartialEq)]
pub struct Key {
    pub algo: Algo,
    pub q: f64,
    /// Subspace dimensions; `None` is the full space.
    pub subspace: Option<Vec<usize>>,
}

impl Key {
    pub fn mask(&self, dims: usize) -> SubspaceMask {
        match &self.subspace {
            Some(d) => SubspaceMask::from_dims(d).expect("workload subspaces are valid"),
            None => SubspaceMask::full(dims).expect("workload dimensionality is valid"),
        }
    }
}

/// `{DSUD, e-DSUD} x qs x subspaces`, in a fixed order.
pub fn keys(qs: &[f64], subspaces: &[Option<Vec<usize>>]) -> Vec<Key> {
    let mut out = Vec::new();
    for sub in subspaces {
        for &q in qs {
            for algo in [Algo::Dsud, Algo::Edsud] {
                out.push(Key { algo, q, subspace: sub.clone() });
            }
        }
    }
    out
}

/// One query-list entry: the deployment it runs on and its key.
pub type Entry = (usize, Key);

/// Shape of the in-process deployments and their query list.
///
/// A run is split into `generations`. Each generation builds `instances`
/// independent deployments, each over its own seeded data set, and
/// instance `i` answers `keys[i % keys.len()]`. Spreading the query list
/// over many small data sets averages out the data-set to data-set
/// variation in answer size and round count that one data set per seed
/// would put into every metric.
#[derive(Debug, Clone)]
pub struct Spec {
    pub dist: Dist,
    pub dims: usize,
    /// Tuples per instance: each instance draws its size from this range
    /// (by its position in the run, not by the seed), so every key of the
    /// query list runs on data sets of many sizes and the latency mix has
    /// no gaps for a quantile to fall into.
    pub n: (usize, usize),
    pub sites: usize,
    pub transport: Transport,
    pub batch: BatchSize,
    pub keys: Vec<Key>,
    pub instances: usize,
    pub generations: usize,
}

impl Spec {
    pub fn entries(&self) -> Vec<Entry> {
        (0..self.instances).map(|i| (i, self.keys[i % self.keys.len()].clone())).collect()
    }

    /// Per-instance partitioned data of one generation, each instance from
    /// its own sub-seed.
    pub fn data(&self, seed: u64, generation: usize) -> Vec<Vec<Vec<UncertainTuple>>> {
        (0..self.instances)
            .map(|i| {
                let k = generation * self.instances + i;
                // Golden-ratio steps spread sizes evenly over the range.
                let frac = (k as f64 * 0.618_033_988_75).fract();
                let n = self.n.0 + ((self.n.1 - self.n.0) as f64 * frac) as usize;
                let sub = seed.wrapping_mul(1_000_003).wrapping_add(k as u64);
                data::partition(&data::rows(self.dist, self.dims, n, sub), self.sites, sub)
            })
            .collect()
    }

    /// The `dsud` CLI defaults for everything the workload does not name:
    /// columnar wire, sketch plan, flat topology, pipeline 1.
    fn config(&self, key: &Key) -> QueryConfig {
        QueryConfig::new(key.q)
            .expect("workload thresholds are valid")
            .batch_size(self.batch)
            .pipeline_depth(PipelineDepth::Fixed(1))
            .wire_format(WireFormat::Columnar)
            .plan_mode(PlanMode::Sketch)
            .subspace(key.mask(self.dims))
    }

    pub fn build(
        &self,
        sites: Vec<Vec<UncertainTuple>>,
        recorder: Recorder,
    ) -> Result<Cluster, String> {
        Cluster::with_topology(
            self.dims,
            sites,
            SiteOptions { wire: WireFormat::Columnar, ..SiteOptions::default() },
            recorder,
            self.transport,
            LinkConfig::default(),
            Topology::Flat,
            None,
        )
        .map_err(|e| format!("cluster build failed: {e}"))
    }

    /// Builds every instance; returns the deployments and the seconds the
    /// build took (set-up: from the first build call until the first query
    /// can be issued).
    pub fn setup(&self, data: &[Vec<Vec<UncertainTuple>>]) -> Result<(Vec<Cluster>, f64), String> {
        let inputs = data.to_vec();
        let t0 = Instant::now();
        let clusters = inputs
            .into_iter()
            .map(|parts| self.build(parts, Recorder::disabled()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((clusters, t0.elapsed().as_secs_f64()))
    }

    pub fn run_key(&self, cluster: &mut Cluster, key: &Key) -> Result<QueryOutcome, String> {
        let config = self.config(key);
        let outcome = match key.algo {
            Algo::Dsud => cluster.run_dsud(&config),
            Algo::Edsud => cluster.run_edsud(&config),
        };
        outcome.map_err(|e| format!("{} q={} failed: {e}", key.algo.name(), key.q))
    }
}

/// Samples of one closed-loop phase.
#[derive(Debug, Default)]
pub struct LoopResult {
    pub latency_ms: Vec<f64>,
    pub first_ms: Vec<f64>,
    pub completed: u64,
    pub attempted: u64,
    pub failed: u64,
    pub elapsed_s: f64,
    pub layers: Vec<QueryLayers>,
    pub plan_us: Vec<f64>,
    pub spans: Vec<Span>,
    pub errors: Vec<String>,
}

/// Whether two runs of one query agree exactly: answer, traffic and
/// coordinator counters.
fn same_run(a: &QueryOutcome, b: &QueryOutcome) -> bool {
    a.traffic == b.traffic
        && a.stats == b.stats
        && a.skyline.len() == b.skyline.len()
        && a.skyline.iter().zip(&b.skyline).all(|(x, y)| {
            x.tuple.id() == y.tuple.id() && x.probability.to_bits() == y.probability.to_bits()
        })
}

/// Cycles the query list until `duration` has passed, always finishing
/// the cycle in progress, so every sample set covers the query mix in
/// whole cycles. Every answer must repeat its warm-up answer exactly (ids,
/// probability bits, traffic, counters); any drift counts as a failure.
pub fn timed_loop(
    spec: &Spec,
    clusters: &mut [Cluster],
    entries: &[Entry],
    warm: &[QueryOutcome],
    duration: Duration,
    tracer: Option<&Tracer>,
) -> LoopResult {
    let mut res = LoopResult::default();
    let start = Instant::now();
    while start.elapsed() < duration {
        for ((instance, key), expected) in entries.iter().zip(warm) {
            res.attempted += 1;
            let query = tracer.map(|t| (t.begin_query(), t.now_ns()));
            let t0 = Instant::now();
            let outcome = spec.run_key(&mut clusters[*instance], key);
            let wall = t0.elapsed();
            match outcome {
                Ok(o) if !o.degraded && !o.cancelled && same_run(&o, expected) => {
                    res.completed += 1;
                    res.latency_ms.push(wall.as_secs_f64() * 1e3);
                    if let Some(first) = o.progress.time_to_first() {
                        res.first_ms.push(first.as_secs_f64() * 1e3);
                    }
                    if let Some(plan) = &o.plan {
                        res.plan_us.push(plan.plan_us as f64);
                    }
                }
                Ok(_) => {
                    res.failed += 1;
                    res.errors.push(format!(
                        "{} q={}: answer or exact counters drifted from the warm-up run",
                        key.algo.name(),
                        key.q
                    ));
                }
                Err(e) => {
                    res.failed += 1;
                    res.errors.push(e);
                }
            }
            if let (Some(t), Some((qid, q0))) = (tracer, query) {
                let (spans, frames) = t.drain();
                res.layers.push(trace::summarize(&spans, &frames, wall.as_nanos() as u64));
                if res.spans.len() + spans.len() < MAX_STORED_SPANS {
                    res.spans.push(Span {
                        name: "query",
                        op: None,
                        kind: trace::Kind::Other,
                        start_ns: q0,
                        end_ns: q0 + wall.as_nanos() as u64,
                        query: qid,
                        parent: None,
                        site: None,
                    });
                    res.spans.extend(spans);
                }
            }
        }
    }
    res.elapsed_s = start.elapsed().as_secs_f64();
    res
}

/// A link that is never called: it holds a slot while the real link is
/// moved into its timing wrapper.
struct Detached;

impl Link for Detached {
    fn send(&mut self, _: Message) -> Result<Ticket, LinkError> {
        Err(LinkError::Disconnected)
    }

    fn complete(&mut self, _: Ticket) -> Result<Message, LinkError> {
        Err(LinkError::Disconnected)
    }
}

/// Wraps each physical link of every cluster in a timing link.
pub fn wrap_links(clusters: &mut [Cluster], tracer: &Tracer) {
    for cluster in clusters {
        for (i, slot) in cluster.links_mut().iter_mut().enumerate() {
            let inner = std::mem::replace(slot, Box::new(Detached) as Box<dyn Link>);
            *slot = tracer.wrap(inner, i as u32);
        }
    }
}

/// Exact per-query counters of one pass over the query list, read from
/// deployments whose recorder is enabled.
#[derive(Debug, Default, Clone)]
pub struct CounterPass {
    pub nodes_visited: f64,
    pub multi_probe_visits: f64,
    pub pruned_subtrees: f64,
    pub prune_ratio: f64,
    pub rounds: f64,
    pub iterations: f64,
    pub broadcasts: f64,
    pub expunge_ratio: f64,
    pub columnar_frames: f64,
    pub bytes_saved: f64,
    pub planned_batch: f64,
    pub sketch_bytes: f64,
}

pub fn counter_pass(
    spec: &Spec,
    data: &[Vec<Vec<UncertainTuple>>],
    entries: &[Entry],
) -> Result<CounterPass, String> {
    const COUNTERS: [Counter; 8] = [
        Counter::PrTreeNodesVisited,
        Counter::MultiProbeNodeVisits,
        Counter::PrTreePrunedSubtrees,
        Counter::PrunedAtSites,
        Counter::LocalSkylineSize,
        Counter::Rounds,
        Counter::ColumnarFrames,
        Counter::BytesSaved,
    ];
    let recorder = Recorder::enabled();
    let mut clusters = Vec::new();
    for parts in data {
        clusters.push(spec.build(parts.clone(), recorder.clone())?);
    }
    let read = || COUNTERS.map(|c| recorder.counter(c) as f64);
    let before = read();
    let (mut iterations, mut broadcasts, mut expunged) = (0.0, 0.0, 0.0);
    let (mut planned, mut sketch_bytes) = (Vec::new(), Vec::new());
    for (instance, key) in entries {
        let o = spec.run_key(&mut clusters[*instance], key)?;
        iterations += o.stats.iterations as f64;
        broadcasts += o.stats.broadcasts as f64;
        expunged += o.stats.expunged as f64;
        if let Some(plan) = &o.plan {
            sketch_bytes.push(plan.sketch_bytes as f64);
            if let Some(b) = plan.planned_batch {
                planned.push(b as f64);
            }
        }
    }
    let after = read();
    let d: Vec<f64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    let n = entries.len() as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    Ok(CounterPass {
        nodes_visited: d[0] / n,
        multi_probe_visits: d[1] / n,
        pruned_subtrees: d[2] / n,
        prune_ratio: ratio(d[3], d[4]),
        rounds: d[5] / n,
        iterations: iterations / n,
        broadcasts: broadcasts / n,
        expunge_ratio: ratio(expunged, expunged + broadcasts),
        columnar_frames: d[6] / n,
        bytes_saved: d[7] / n,
        planned_batch: mean(&planned),
        sketch_bytes: mean(&sketch_bytes),
    })
}

/// Standalone load-time layers over the same partitions: the sum over
/// every site of every instance of `PrTree::bulk_load` and of
/// `LocalSite::new` (bulk load plus the load-time sketch), each the median
/// of `SETUP_REPEATS` passes.
pub fn load_layers(dims: usize, data: &[Vec<Vec<UncertainTuple>>]) -> Result<(f64, f64), String> {
    let mut bulk = Vec::new();
    let mut site_new = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let mut b = Duration::ZERO;
        let mut s = Duration::ZERO;
        for (i, part) in data.iter().flat_map(|parts| parts.iter().enumerate()) {
            let input = part.clone();
            let t0 = Instant::now();
            let tree = PrTree::bulk_load(dims, input).map_err(|e| format!("bulk load: {e}"))?;
            b += t0.elapsed();
            drop(std::hint::black_box(tree));
            let input = part.clone();
            let options = SiteOptions { wire: WireFormat::Columnar, ..SiteOptions::default() };
            let t0 = Instant::now();
            let site = LocalSite::new(i as u32, dims, input, options)
                .map_err(|e| format!("site build: {e}"))?;
            s += t0.elapsed();
            drop(std::hint::black_box(site));
        }
        bulk.push(b.as_secs_f64() * 1e3);
        site_new.push(s.as_secs_f64() * 1e3);
    }
    Ok((median(&bulk), median(&site_new)))
}

/// Per-layer numbers of a traced loop: medians over its queries.
pub fn layer_metrics(traced: &LoopResult) -> Vec<(&'static str, f64)> {
    let per = |f: fn(&QueryLayers) -> f64| median(&traced.layers.iter().map(f).collect::<Vec<_>>());
    let frames: u64 = traced.layers.iter().map(|l| l.frames).sum();
    let bytes: u64 = traced.layers.iter().map(|l| l.frame_bytes).sum();
    vec![
        ("site.start_ms", per(|l| l.start_ms)),
        ("site.feedback_ms", per(|l| l.feedback_ms)),
        ("site.refill_ms", per(|l| l.refill_ms)),
        ("link.busy_ms", per(|l| l.link_busy_ms)),
        ("link.calls", per(|l| l.calls as f64)),
        ("wire.encode_us", per(|l| l.encode_us)),
        ("wire.decode_us", per(|l| l.decode_us)),
        ("wire.bytes_per_frame", if frames > 0 { bytes as f64 / frames as f64 } else { 0.0 }),
        ("coord.self_ms", per(QueryLayers::coord_self_ms)),
        ("plan.gather_ms", per(|l| l.sketch_ms)),
    ]
}

pub fn counter_metrics(c: &CounterPass) -> Vec<(&'static str, f64)> {
    vec![
        ("prtree.nodes_visited", c.nodes_visited),
        ("prtree.multi_probe_visits", c.multi_probe_visits),
        ("prtree.pruned_subtrees", c.pruned_subtrees),
        ("site.prune_ratio", c.prune_ratio),
        ("wire.columnar_frames", c.columnar_frames),
        ("wire.bytes_saved", c.bytes_saved),
        ("coord.rounds", c.rounds),
        ("coord.iterations", c.iterations),
        ("coord.broadcasts", c.broadcasts),
        ("coord.expunge_ratio", c.expunge_ratio),
        ("plan.planned_batch", c.planned_batch),
        ("plan.sketch_bytes", c.sketch_bytes),
    ]
}

impl LoopResult {
    fn merge(&mut self, mut other: LoopResult) {
        self.latency_ms.append(&mut other.latency_ms);
        self.first_ms.append(&mut other.first_ms);
        self.completed += other.completed;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.elapsed_s += other.elapsed_s;
        self.layers.append(&mut other.layers);
        self.plan_us.append(&mut other.plan_us);
        let room = MAX_STORED_SPANS.saturating_sub(self.spans.len());
        self.spans.extend(other.spans.into_iter().take(room));
        self.errors.append(&mut other.errors);
    }
}

/// Runs one in-process workload and fills `out`.
pub fn run(spec: &Spec, opts: &Opts, out: &mut Results) -> Result<(), String> {
    let entries = spec.entries();
    let phase = Duration::from_secs_f64(opts.seconds / spec.generations as f64);
    let (mut plain, mut traced) = (LoopResult::default(), LoopResult::default());
    let mut setup_s = Vec::new();
    let mut traffic: Vec<(u64, u64, u64)> = Vec::new();
    let mut reference_s = 0.0;
    let tracer = Tracer::new();
    for generation in 0..spec.generations {
        let data = spec.data(opts.seed, generation);
        let (mut clusters, secs) = spec.setup(&data)?;
        setup_s.push(secs);

        // Untimed warm-up pass: fills caches and lazy state, and fixes the
        // answer and exact counters every timed run of an entry repeats.
        let mut warm = Vec::with_capacity(entries.len());
        for (instance, key) in &entries {
            warm.push(spec.run_key(&mut clusters[*instance], key)?);
        }
        let plain_len = if opts.trace { phase / 2 } else { phase };
        let run = guarded(
            out,
            || timed_loop(spec, &mut clusters, &entries, &warm, plain_len, None),
            discard,
        );
        plain.merge(run);
        if opts.trace {
            wrap_links(&mut clusters, &tracer);
            let run = guarded(
                out,
                || {
                    tracer.drain();
                    timed_loop(spec, &mut clusters, &entries, &warm, phase / 2, Some(&tracer))
                },
                discard,
            );
            traced.merge(run);
        }
        drop(clusters);
        traffic.extend(warm.iter().map(|o| {
            (o.tuples_transmitted(), o.traffic.total().bytes, o.traffic.total().messages)
        }));

        // Correctness gate, outside every timed region: each entry's
        // answer against the centralized baseline over its own data.
        // Timed runs already had to repeat their warm-up answer bit for
        // bit.
        let t0 = Instant::now();
        for ((instance, key), o) in entries.iter().zip(&warm) {
            out.absorb(1, 0, &[]);
            let mask = key.mask(spec.dims);
            let reference = Reference::compute(&data[*instance], spec.dims, &[(key.q, mask)])?;
            let expected = reference.answer(key.q, mask);
            if let Err(e) = data::check_entries(&o.skyline, &expected) {
                out.fail(format!("{} q={} {:?}: {e}", key.algo.name(), key.q, key.subspace));
            } else if o.skyline.is_empty() {
                out.fail(format!("{} q={} returned an empty answer", key.algo.name(), key.q));
            }
        }
        reference_s += t0.elapsed().as_secs_f64();

        if opts.trace && generation == 0 {
            let (bulk_ms, site_ms) = load_layers(spec.dims, &data)?;
            out.set("prtree.bulk_load_ms", bulk_ms);
            out.set("site.new_ms", site_ms);
            let counters = counter_pass(spec, &data, &entries)?;
            for (name, v) in counter_metrics(&counters) {
                out.set(name, v);
            }
        }
    }
    out.absorb(plain.attempted, plain.failed, &plain.errors);
    out.absorb(traced.attempted, traced.failed, &traced.errors);
    out.set("setup_s", median(&setup_s));
    out.note(format!(
        "setup_s: median of {} builds of {} deployments each",
        setup_s.len(),
        spec.instances
    ));
    out.set("peak_rss_mb", crate::peak_rss_mb(None));
    out.note(format!("reference answers computed in {reference_s:.1} s"));

    let n = traffic.len() as f64;
    out.set("tuples_per_query", traffic.iter().map(|t| t.0 as f64).sum::<f64>() / n);
    out.set("bytes_per_query", traffic.iter().map(|t| t.1 as f64).sum::<f64>() / n);
    out.set("frames_per_query", traffic.iter().map(|t| t.2 as f64).sum::<f64>() / n);
    out.exact_counters = traffic;

    if opts.trace {
        record_layers(out, &traced);
        out.set("plan.plan_us", median(&traced.plan_us));
        let plain_p50 = median(&plain.latency_ms);
        let traced_p50 = median(&traced.latency_ms);
        out.set("obs.trace_overhead_pct", (traced_p50 / plain_p50 - 1.0) * 100.0);
        out.note(format!(
            "traced query_p50_ms {traced_p50:.3} (n={}) vs untraced {plain_p50:.3} (n={})",
            traced.latency_ms.len(),
            plain.latency_ms.len()
        ));
        out.set("cluster.build_ms", median(&setup_s) * 1e3);
        out.spans = traced.spans;
    } else {
        out.latency("query_p50_ms", "query_p90_ms", &plain.latency_ms);
        out.set("first_result_p50_ms", median(&plain.first_ms));
        out.note(format!("first_result_p50_ms: n={}", plain.first_ms.len()));
        out.set("queries_per_s", plain.completed as f64 / plain.elapsed_s);
    }
    Ok(())
}

/// Keeps a discarded phase's operation and failure counts.
fn discard(out: &mut Results, run: LoopResult) {
    out.absorb(run.attempted, run.failed, &run.errors);
}

/// Records the link, wire, coordinator and plan layers of a traced loop.
pub fn record_layers(out: &mut Results, traced: &LoopResult) {
    let mismatches: u64 = traced.layers.iter().map(|l| l.codec_mismatches).sum();
    if mismatches > 0 {
        out.fail(format!("{mismatches} frames did not survive an encode/decode round trip"));
    }
    for (name, v) in layer_metrics(traced) {
        out.set(name, v);
    }
    let waits: Vec<f64> = traced.layers.iter().map(|l| l.complete_wait_ms).collect();
    out.extra("link.complete_wait_ms", median(&waits), "ms", waits.len());
}
