//! The served workload: the real `dsud serve` binary, driven over its
//! JSON-lines protocol by closed-loop client connections.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use serde::Deserialize;

use dsud_core::{BatchSize, SubspaceMask, Transport};

use crate::data::{self, Dist, Reference, Rng, Row};
use crate::inproc::{self, Key, Spec};
use crate::stats::{mean, median, quantile};
use crate::trace::Tracer;
use crate::{guarded, Opts, Results, SETUP_REPEATS};

/// Shape of the served deployment and its traffic mix.
pub struct ServeSpec {
    pub dist: Dist,
    pub dims: usize,
    pub n: usize,
    pub sites: usize,
    pub clients: usize,
    /// Every this-many-th request of a client is an update; the others
    /// walk the key list from a per-client offset.
    pub update_every: u64,
    pub keys: Vec<Key>,
}

// Response lines of the daemon's protocol; unknown fields are ignored.

#[derive(Debug, Default, Deserialize)]
struct Response {
    #[serde(default)]
    result: Option<ResultLine>,
    #[serde(default)]
    done: Option<Done>,
    #[serde(default)]
    updated: Option<Updated>,
    #[serde(default)]
    bye: bool,
    #[serde(default)]
    error: Option<String>,
}

#[derive(Debug, Deserialize)]
struct ResultLine {
    values: Vec<f64>,
    probability: f64,
    #[serde(default)]
    bound: Option<String>,
}

#[derive(Debug, Deserialize)]
struct Done {
    count: usize,
    cache_hit: bool,
    admission_wait_us: u64,
    tuples_transmitted: u64,
    #[serde(default)]
    degraded: bool,
    #[serde(default)]
    cancelled: bool,
    #[serde(default)]
    report: Option<Report>,
}

/// The per-query run report a `done` line embeds on request.
#[derive(Debug, Deserialize)]
struct Report {
    wall_ms: f64,
    counters: Counters,
    #[serde(default)]
    plan_us: Option<u64>,
}

#[derive(Debug, Default, Deserialize)]
struct Counters {
    #[serde(default)]
    bytes_sent: u64,
    #[serde(default)]
    messages: u64,
}

#[derive(Debug, Deserialize)]
struct Updated {
    cache_invalidated: u64,
}

/// A running daemon; killed and reaped on drop if it is still alive.
struct Daemon {
    child: Child,
    addr: String,
    stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Spawns `dsud serve` and waits for its listening line; returns the
    /// daemon and the seconds from spawn until it accepts queries.
    fn spawn(
        dsud: &Path,
        input: &Path,
        spec: &ServeSpec,
        seed: u64,
    ) -> Result<(Self, f64), String> {
        let t0 = Instant::now();
        let mut child = Command::new(dsud)
            .arg("serve")
            .arg("--input")
            .arg(input)
            .args(["--sites", &spec.sites.to_string(), "--seed", &seed.to_string()])
            .args(["--port", "0", "--transport", "tcp", "--batch", "auto"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", dsud.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let ready = t0.elapsed().as_secs_f64();
        let addr = line
            .strip_prefix("dsud serve listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .map(str::to_string);
        let daemon_addr = match (read, addr) {
            (Ok(_), Some(addr)) => addr,
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("daemon did not start (first line {line:?})"));
            }
        };
        Ok((Daemon { child, addr: daemon_addr, stdout }, ready))
    }

    /// Asks the daemon to stop and waits for it to exit.
    fn shutdown(mut self) -> Result<(), String> {
        let mut client = Client::connect(&self.addr)?;
        client.send(r#"{"shutdown":true}"#)?;
        let bye = client.next()?;
        if !bye.bye {
            return Err("daemon did not acknowledge shutdown".into());
        }
        let mut rest = String::new();
        let _ = std::io::Read::read_to_string(&mut self.stdout, &mut rest);
        let status = self.child.wait().map_err(|e| format!("waiting for daemon: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    line: String,
}

impl Client {
    fn connect(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_read_timeout(Some(Duration::from_secs(60))).map_err(|e| e.to_string())?;
        let writer = BufWriter::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Client { reader: BufReader::new(stream), writer, line: String::new() })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        writeln!(self.writer, "{line}")
            .and_then(|()| self.writer.flush())
            .map_err(|e| e.to_string())
    }

    fn next(&mut self) -> Result<Response, String> {
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("daemon closed the connection".into()),
            Ok(_) => serde_json::from_str(self.line.trim_end())
                .map_err(|e| format!("bad response line: {e}")),
            Err(e) => Err(format!("reading response: {e}")),
        }
    }
}

fn query_line(key: &Key, report: bool) -> String {
    let subspace =
        key.subspace.as_ref().map(|d| format!(",\"subspace\":{d:?}")).unwrap_or_default();
    format!(
        "{{\"query\":{{\"algorithm\":\"{}\",\"q\":{:?}{subspace},\"report\":{report}}}}}",
        key.algo.name(),
        key.q
    )
}

fn tuple_json(site: u32, seq: u64, (values, p): &Row) -> String {
    // `{:?}` keeps a decimal point or exponent, so every number reads
    // back as the same f64.
    let vals: Vec<String> = values.iter().map(|v| format!("{v:?}")).collect();
    format!(
        "{{\"id\":{{\"site\":{site},\"seq\":{seq}}},\"values\":[{}],\"prob\":{p:?}}}",
        vals.join(",")
    )
}

/// One answered query.
struct Answer {
    latency_ms: f64,
    first_ms: Option<f64>,
    results: Vec<ResultLine>,
    done: Done,
}

fn ask(client: &mut Client, key: &Key, report: bool) -> Result<Answer, String> {
    let t0 = Instant::now();
    client.send(&query_line(key, report))?;
    let mut first_ms = None;
    let mut results = Vec::new();
    loop {
        let resp = client.next()?;
        if let Some(e) = resp.error {
            return Err(format!("daemon error: {e}"));
        }
        if let Some(r) = resp.result {
            first_ms.get_or_insert_with(|| t0.elapsed().as_secs_f64() * 1e3);
            results.push(r);
            continue;
        }
        if let Some(done) = resp.done {
            let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
            if done.degraded || done.cancelled {
                return Err("degraded or cancelled answer".into());
            }
            if done.count != results.len() || results.iter().any(|r| r.bound.is_some()) {
                return Err("streamed results disagree with the done summary".into());
            }
            return Ok(Answer { latency_ms, first_ms, results, done });
        }
        return Err("unexpected response line to a query".into());
    }
}

fn update(client: &mut Client, op: &str, tuple: &str) -> Result<(f64, u64), String> {
    let t0 = Instant::now();
    client.send(&format!("{{\"update\":{{\"op\":\"{op}\",\"tuple\":{tuple}}}}}"))?;
    let resp = client.next()?;
    let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
    if let Some(e) = resp.error {
        return Err(format!("daemon error on {op}: {e}"));
    }
    match resp.updated {
        Some(u) => Ok((latency_ms, u.cache_invalidated)),
        None => Err(format!("unexpected response line to an {op}")),
    }
}

/// Samples of one client connection's closed loop.
#[derive(Default)]
struct ClientRun {
    query_ms: Vec<f64>,
    first_ms: Vec<f64>,
    update_ms: Vec<f64>,
    invalidated: Vec<f64>,
    admission_us: Vec<f64>,
    overhead_ms: Vec<f64>,
    plan_us: Vec<f64>,
    queries: u64,
    hits: u64,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

/// Fresh-tuple ids live far above the daemon's own `(site, 0..n/m)` ids.
const INSERT_SEQ_BASE: u64 = 1 << 40;

/// One client's request schedule, and the one tuple it inserted and has
/// not deleted yet, so the resident set keeps its starting size.
///
/// Client `c` walks the key list from position `c * keys / clients`, so
/// the clients ask different keys at any moment and the cache serves a
/// minority of queries; the schedule is the same for every seed, which
/// keeps the cache hit ratio from varying with the seed.
struct Writer {
    rng: Rng,
    client: u64,
    /// Requests issued so far.
    ops: u64,
    /// Key-list position of the client's first query.
    offset: u64,
    inserted: u64,
    outstanding: Option<String>,
}

impl Writer {
    fn new(seed: u64, client: u64, spec: &ServeSpec) -> Self {
        Writer {
            rng: Rng::new(seed ^ (0xc11e_0000 + client)),
            client,
            ops: 0,
            offset: client * spec.keys.len() as u64 / spec.clients as u64,
            inserted: 0,
            outstanding: None,
        }
    }

    /// The key to ask next, or `None` when this request is an update.
    fn next_request(&mut self, spec: &ServeSpec) -> Option<usize> {
        let op = self.ops;
        self.ops += 1;
        if op % spec.update_every == spec.update_every - 1 {
            return None;
        }
        let queries = op - op / spec.update_every;
        Some(((self.offset + queries) % spec.keys.len() as u64) as usize)
    }

    fn next_op(&mut self, spec: &ServeSpec) -> (&'static str, String) {
        match self.outstanding.take() {
            Some(tuple) => ("delete", tuple),
            None => {
                let site = self.rng.below(spec.sites) as u32;
                let seq = INSERT_SEQ_BASE + (self.client << 32) + self.inserted;
                self.inserted += 1;
                let tuple = tuple_json(site, seq, &data::row(spec.dist, spec.dims, &mut self.rng));
                self.outstanding = Some(tuple.clone());
                ("insert", tuple)
            }
        }
    }
}

fn client_loop(
    addr: &str,
    spec: &ServeSpec,
    writer: &mut Writer,
    deadline: Instant,
    report: bool,
) -> ClientRun {
    let mut run = ClientRun::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            run.attempted += 1;
            run.failed += 1;
            run.errors.push(e);
            return run;
        }
    };
    while Instant::now() < deadline {
        run.attempted += 1;
        let Some(key) = writer.next_request(spec) else {
            let (op, tuple) = writer.next_op(spec);
            match update(&mut client, op, &tuple) {
                Ok((ms, invalidated)) => {
                    run.update_ms.push(ms);
                    run.invalidated.push(invalidated as f64);
                }
                Err(e) => {
                    run.failed += 1;
                    run.errors.push(e);
                    return run;
                }
            }
            continue;
        };
        match ask(&mut client, &spec.keys[key], report) {
            Ok(a) => {
                run.queries += 1;
                run.query_ms.push(a.latency_ms);
                if let Some(f) = a.first_ms {
                    run.first_ms.push(f);
                }
                run.admission_us.push(a.done.admission_wait_us as f64);
                if a.done.cache_hit {
                    run.hits += 1;
                } else if let Some(r) = &a.done.report {
                    run.overhead_ms.push(a.latency_ms - r.wall_ms);
                    if let Some(p) = r.plan_us {
                        run.plan_us.push(p as f64);
                    }
                }
            }
            Err(e) => {
                run.failed += 1;
                run.errors.push(e);
                return run;
            }
        }
    }
    run
}

/// Runs every client's closed loop for `duration`, in `LOAD_CHUNKS` chunks
/// each measured again while the host steals CPU time; returns the
/// clients' samples and the seconds the kept chunks took.
fn load(
    out: &mut Results,
    addr: &str,
    spec: &ServeSpec,
    writers: &mut [Writer],
    duration: Duration,
    report: bool,
) -> (Vec<ClientRun>, f64) {
    const LOAD_CHUNKS: u32 = 4;
    let mut kept: Vec<ClientRun> = Vec::new();
    let mut secs = 0.0;
    for _ in 0..LOAD_CHUNKS {
        let chunk = || {
            let t0 = Instant::now();
            let deadline = t0 + duration / LOAD_CHUNKS;
            let runs: Vec<ClientRun> = std::thread::scope(|s| {
                let handles: Vec<_> = writers
                    .iter_mut()
                    .map(|w| s.spawn(move || client_loop(addr, spec, w, deadline, report)))
                    .collect();
                handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
            });
            (runs, t0.elapsed().as_secs_f64())
        };
        let (runs, s) = guarded(out, chunk, |out, (runs, _)| absorb(out, &runs));
        secs += s;
        kept.extend(runs);
    }
    (kept, secs)
}

fn gather(runs: &[ClientRun], f: fn(&ClientRun) -> &Vec<f64>) -> Vec<f64> {
    runs.iter().flat_map(|r| f(r).iter().copied()).collect()
}

fn absorb(out: &mut Results, runs: &[ClientRun]) {
    for r in runs {
        out.absorb(r.attempted, r.failed, &r.errors);
    }
}

pub fn run(spec: &ServeSpec, opts: &Opts, out: &mut Results) -> Result<(), String> {
    let dsud = opts.dsud.as_ref().ok_or("--dsud <path to the dsud binary> is required")?;
    let rows = data::rows(spec.dist, spec.dims, spec.n, opts.seed);
    std::fs::create_dir_all(&opts.work_dir).map_err(|e| format!("work dir: {e}"))?;
    let input: PathBuf = opts.work_dir.join(format!("serve-{}.jsonl", opts.seed));
    let mut text = String::with_capacity(rows.len() * 80);
    for (i, r) in rows.iter().enumerate() {
        text.push_str(&tuple_json(0, i as u64, r));
        text.push('\n');
    }
    std::fs::write(&input, text).map_err(|e| format!("writing {}: {e}", input.display()))?;

    let mut setup = Vec::new();
    let mut daemon = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(d) = daemon.take() {
            Daemon::shutdown(d)?;
        }
        let (d, secs) = Daemon::spawn(dsud, &input, spec, opts.seed)?;
        setup.push(secs);
        daemon = Some(d);
    }
    let daemon = daemon.expect("at least one daemon");
    out.set("setup_s", median(&setup));
    out.note(format!("setup_s: median of {SETUP_REPEATS} daemon starts (spawn to listening)"));
    let addr = daemon.addr.clone();

    // Untimed warm-up: every key once.
    {
        let mut c = Client::connect(&addr)?;
        for key in &spec.keys {
            ask(&mut c, key, false)?;
        }
    }

    let mut writers: Vec<Writer> =
        (0..spec.clients as u64).map(|c| Writer::new(opts.seed, c, spec)).collect();
    let seconds = Duration::from_secs_f64(opts.seconds);
    let plain_len = if opts.trace { seconds / 2 } else { seconds };
    let (plain, plain_s) = load(out, &addr, spec, &mut writers, plain_len, false);
    absorb(out, &plain);
    let traced = if opts.trace {
        let (traced, _) = load(out, &addr, spec, &mut writers, seconds / 2, true);
        absorb(out, &traced);
        Some(traced)
    } else {
        None
    };

    // Quiesce: delete what is still inserted, then one insert/delete pair
    // so the cache is empty and the data is exactly the generated set.
    let mut c = Client::connect(&addr)?;
    let mut quiesce = Vec::new();
    for w in &mut writers {
        if let Some(t) = w.outstanding.take() {
            quiesce.push(("delete", t));
        }
    }
    let (op, t) = writers[0].next_op(spec);
    quiesce.push((op, t));
    let (op, t) = writers[0].next_op(spec);
    quiesce.push((op, t));
    for (op, t) in quiesce {
        out.absorb(1, 0, &[]);
        update(&mut c, op, &t)?;
    }

    // Correctness gate: every distinct key once against the baseline over
    // the final data, compared by tuple values because the daemon assigns
    // its own ids. The reports give the exact per-query counters.
    let sites = data::partition(&rows, spec.sites, opts.seed);
    let pairs: Vec<(f64, SubspaceMask)> =
        spec.keys.iter().map(|k| (k.q, k.mask(spec.dims))).collect();
    let reference = Reference::compute(&sites, spec.dims, &pairs)?;
    let mut gate: Vec<(&Key, Done)> = Vec::new();
    for (i, key) in spec.keys.iter().enumerate() {
        if spec.keys[..i].contains(key) {
            continue;
        }
        out.absorb(1, 0, &[]);
        let answer = match ask(&mut c, key, true) {
            Ok(a) => a,
            Err(e) => {
                out.fail(e);
                continue;
            }
        };
        let got: Vec<(&[f64], f64)> =
            answer.results.iter().map(|r| (r.values.as_slice(), r.probability)).collect();
        let expected = reference.answer(key.q, key.mask(spec.dims));
        if let Err(e) = data::check(&got, &expected) {
            out.fail(format!("served {} q={} {:?}: {e}", key.algo.name(), key.q, key.subspace));
        }
        if answer.done.cache_hit || answer.done.report.is_none() {
            out.fail("gate query was not executed with a report".into());
            continue;
        }
        gate.push((key, answer.done));
    }
    let rss = crate::peak_rss_mb(Some(daemon.child.id()));
    drop(c);
    daemon.shutdown()?;

    // Means over the query list, weighted as the clients ask.
    let per_query = |f: fn(&Done) -> u64| {
        let done = spec.keys.iter().filter_map(|k| gate.iter().find(|(g, _)| *g == k));
        mean(&done.map(|(_, d)| f(d) as f64).collect::<Vec<_>>())
    };
    out.set("tuples_per_query", per_query(|d| d.tuples_transmitted));
    out.set(
        "bytes_per_query",
        per_query(|d| d.report.as_ref().map_or(0, |r| r.counters.bytes_sent)),
    );
    out.set(
        "frames_per_query",
        per_query(|d| d.report.as_ref().map_or(0, |r| r.counters.messages)),
    );
    out.set("peak_rss_mb", rss);

    let lat = gather(&plain, |r| &r.query_ms);
    if let Some(traced) = traced {
        let traced_lat = gather(&traced, |r| &r.query_ms);
        let (p, t) = (median(&lat), median(&traced_lat));
        out.set("obs.trace_overhead_pct", (t / p - 1.0) * 100.0);
        out.note(format!(
            "traced (report on) query_p50_ms {t:.3} (n={}) vs untraced {p:.3} (n={})",
            traced_lat.len(),
            lat.len()
        ));
        let all: Vec<ClientRun> = plain.into_iter().chain(traced).collect();
        let queries: u64 = all.iter().map(|r| r.queries).sum();
        let hits: u64 = all.iter().map(|r| r.hits).sum();
        out.set("session.cache_hit_ratio", hits as f64 / queries.max(1) as f64);
        out.set("session.invalidated_per_update", mean(&gather(&all, |r| &r.invalidated)));
        out.set("plan.plan_us", median(&gather(&all, |r| &r.plan_us)));
        let upd = gather(&all, |r| &r.update_ms);
        out.extra("session.update_p50_ms", median(&upd), "ms", upd.len());
        out.extra("session.update_p90_ms", quantile(&upd, 0.9), "ms", upd.len());
        let admission = gather(&all, |r| &r.admission_us);
        out.extra("session.admission_wait_p50_us", median(&admission), "us", admission.len());
        let overhead = gather(&all, |r| &r.overhead_ms);
        out.extra("protocol.overhead_ms", median(&overhead), "ms", overhead.len());
        shadow(spec, &sites, opts, out)?;
    } else {
        let queries: u64 = plain.iter().map(|r| r.queries).sum();
        out.latency("query_p50_ms", "query_p90_ms", &lat);
        let first = gather(&plain, |r| &r.first_ms);
        out.set("first_result_p50_ms", median(&first));
        out.note(format!("first_result_p50_ms: n={}", first.len()));
        out.set("queries_per_s", queries as f64 / plain_s);
        let upd = gather(&plain, |r| &r.update_ms);
        out.extra("update_p50_ms", median(&upd), "ms", upd.len());
        out.extra("update_p90_ms", quantile(&upd, 0.9), "ms", upd.len());
        let hits: u64 = plain.iter().map(|r| r.hits).sum();
        out.extra(
            "cache_hit_ratio",
            hits as f64 / queries.max(1) as f64,
            "ratio",
            queries as usize,
        );
    }
    Ok(())
}

/// Layers of the served configuration that the daemon does not expose
/// (site, link, wire, coordinator, build and PR-tree counters): the same
/// data, transport, batch and query list run in process behind timing
/// links, plus one recorder-enabled pass for the exact counters.
fn shadow(
    spec: &ServeSpec,
    sites: &[Vec<dsud_core::UncertainTuple>],
    opts: &Opts,
    out: &mut Results,
) -> Result<(), String> {
    let inproc = Spec {
        dist: spec.dist,
        dims: spec.dims,
        n: (spec.n, spec.n),
        sites: spec.sites,
        transport: Transport::Tcp,
        batch: BatchSize::Auto,
        keys: spec.keys.clone(),
        instances: 1,
        generations: 1,
    };
    let data = vec![sites.to_vec()];
    let entries: Vec<inproc::Entry> = spec.keys.iter().map(|k| (0, k.clone())).collect();
    let (mut clusters, build_s) = inproc.setup(&data)?;
    out.set("cluster.build_ms", build_s * 1e3);
    let (bulk_ms, site_ms) = inproc::load_layers(spec.dims, &data)?;
    out.set("prtree.bulk_load_ms", bulk_ms);
    out.set("site.new_ms", site_ms);
    let mut warm = Vec::new();
    for (i, key) in &entries {
        warm.push(inproc.run_key(&mut clusters[*i], key)?);
    }
    let tracer = Tracer::new();
    inproc::wrap_links(&mut clusters, &tracer);
    let duration = Duration::from_secs_f64(opts.seconds / 4.0);
    let traced =
        inproc::timed_loop(&inproc, &mut clusters, &entries, &warm, duration, Some(&tracer));
    out.absorb(traced.attempted, traced.failed, &traced.errors);
    drop(clusters);
    inproc::record_layers(out, &traced);
    for (name, v) in inproc::counter_metrics(&inproc::counter_pass(&inproc, &data, &entries)?) {
        out.set(name, v);
    }
    out.spans = traced.spans;
    Ok(())
}
