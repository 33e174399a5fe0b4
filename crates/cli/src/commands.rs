use std::fs;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use dsud_core::update::UpdateOp;
use dsud_core::{
    baseline, BandwidthMeter, Cluster, LinkConfig, PlanSummary, QueryConfig, QueryOutcome,
    Recorder, RunReport, SessionOptions, SessionServer, SiteOptions, SubspaceMask, Topology,
    Transport,
};
use dsud_data::nyse::NyseSpec;
use dsud_data::{partition_uniform, ProbabilityLaw, SpatialDistribution, WorkloadSpec};
use dsud_net::{spawn_query_server, ClientControl, ClientHandler, FanPlan, MAX_REQUEST_LINE};
use dsud_uncertain::{Probability, SkylineEntry, UncertainTuple};
use dsud_vertical::{ColumnSite, UtaCoordinator};

use crate::args::USAGE;
use crate::protocol::{
    DoneSummary, QuerySpec, Request, Response, ResultEntry, UpdateSpec, UpdateSummary,
};
use crate::{Algorithm, CliError, Command, Distribution};

/// Executes a parsed command, writing human-readable output to `out`.
///
/// # Errors
///
/// Returns a [`CliError`] describing i/o, parse, or library failures.
pub fn run<W: Write>(cmd: &Command, out: &mut W) -> Result<(), CliError> {
    match cmd {
        Command::Help => {
            writeln!(out, "{USAGE}")?;
            Ok(())
        }
        Command::Generate { n, dims, dist, gaussian_mean, seed, out: path } => {
            generate(*n, *dims, *dist, *gaussian_mean, *seed, path.as_deref(), out)
        }
        Command::Query { input, sites, algorithm, seed, report, transport, topology, config } => {
            query(
                input,
                *sites,
                *algorithm,
                *seed,
                report.as_deref(),
                *transport,
                *topology,
                config,
                out,
            )
        }
        Command::Vertical { input, q } => vertical(input, *q, out),
        Command::Stream { input, q, window, every } => stream(input, *q, *window, *every, out),
        Command::Serve {
            input,
            sites,
            seed,
            port,
            transport,
            max_concurrent,
            cache,
            heartbeat,
            op_log,
            topology,
            config,
        } => serve(
            input,
            *sites,
            *seed,
            *port,
            *transport,
            *max_concurrent,
            *cache,
            *heartbeat,
            *op_log,
            *topology,
            config,
            out,
        ),
        Command::Client {
            addr,
            algorithm,
            q,
            subspace,
            limit,
            report,
            deadline,
            insert,
            delete,
            shutdown,
        } => client(
            addr,
            *algorithm,
            *q,
            subspace.as_deref(),
            *limit,
            report.as_deref(),
            *deadline,
            insert.as_deref(),
            delete.as_deref(),
            *shutdown,
            out,
        ),
        Command::Estimate { n, dims, sites } => {
            estimate(*n, *dims, *sites, out)?;
            Ok(())
        }
    }
}

fn probability_law(gaussian_mean: Option<f64>) -> ProbabilityLaw {
    match gaussian_mean {
        Some(mean) => ProbabilityLaw::Gaussian { mean, std_dev: 0.2 },
        None => ProbabilityLaw::Uniform,
    }
}

fn generate<W: Write>(
    n: usize,
    dims: usize,
    dist: Distribution,
    gaussian_mean: Option<f64>,
    seed: u64,
    path: Option<&std::path::Path>,
    out: &mut W,
) -> Result<(), CliError> {
    let prob = probability_law(gaussian_mean);
    let tuples: Vec<UncertainTuple> = match dist {
        Distribution::Nyse => {
            let rows = NyseSpec::new(n).probability_law(prob).seed(seed).generate_rows()?;
            rows.into_iter()
                .enumerate()
                .map(|(i, (values, p))| {
                    UncertainTuple::new(dsud_uncertain::TupleId::new(0, i as u64), values, p)
                        .expect("generated rows are valid")
                })
                .collect()
        }
        other => {
            let spatial = match other {
                Distribution::Independent => SpatialDistribution::Independent,
                Distribution::Correlated => SpatialDistribution::Correlated,
                Distribution::Anticorrelated => SpatialDistribution::Anticorrelated,
                Distribution::Nyse => unreachable!("handled above"),
            };
            WorkloadSpec::new(n, dims)
                .spatial(spatial)
                .probability_law(prob)
                .seed(seed)
                .generate()?
        }
    };

    let mut buffer = String::with_capacity(tuples.len() * 64);
    for t in &tuples {
        buffer.push_str(&serde_json::to_string(t).expect("tuples serialize"));
        buffer.push('\n');
    }
    match path {
        Some(path) => {
            fs::write(path, buffer)?;
            writeln!(out, "wrote {} tuples to {}", tuples.len(), path.display())?;
        }
        None => out.write_all(buffer.as_bytes())?,
    }
    Ok(())
}

/// Reads a JSONL workload file.
fn read_tuples(path: &std::path::Path) -> Result<Vec<UncertainTuple>, CliError> {
    let text = fs::read_to_string(path)?;
    let mut tuples = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let t: UncertainTuple = serde_json::from_str(line)
            .map_err(|e| CliError::Parse { line: i + 1, message: e.to_string() })?;
        tuples.push(t);
    }
    if tuples.is_empty() {
        return Err(CliError::Parse { line: 0, message: "file holds no tuples".into() });
    }
    Ok(tuples)
}

#[allow(clippy::too_many_arguments)]
fn query<W: Write>(
    input: &std::path::Path,
    sites: usize,
    algorithm: Algorithm,
    seed: u64,
    report: Option<&std::path::Path>,
    transport: Transport,
    topology: Topology,
    config: &QueryConfig,
    out: &mut W,
) -> Result<(), CliError> {
    let tuples = read_tuples(input)?;
    let dims = tuples[0].dims();
    let rows: Vec<(Vec<f64>, Probability)> =
        tuples.iter().map(|t| (t.values().to_vec(), t.prob())).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let partitioned = partition_uniform(rows, sites, &mut rng)?;

    // Observability is pay-for-what-you-ask: without --report the recorder
    // is the disabled no-op.
    let recorder = if report.is_some() { Recorder::enabled() } else { Recorder::disabled() };
    let algo_name = match algorithm {
        Algorithm::Baseline => "baseline",
        Algorithm::Dsud => "dsud",
        Algorithm::Edsud => "edsud",
    };

    // The centralized baseline has no sites to transport between: it
    // always runs in process, whatever --transport says, with no fan-out.
    let used_transport = match algorithm {
        Algorithm::Baseline => Transport::Inline,
        _ => transport,
    };
    let mut fan_plan: Option<FanPlan> = None;
    let outcome: QueryOutcome = match algorithm {
        Algorithm::Baseline => {
            let meter = BandwidthMeter::with_recorder(recorder.clone());
            let mask = config.resolve_mask(dims)?;
            baseline::run(&partitioned, dims, config.q, mask, &meter)?
        }
        Algorithm::Dsud | Algorithm::Edsud => {
            let mut cluster = Cluster::with_topology(
                dims,
                partitioned,
                SiteOptions { wire: config.wire, ..SiteOptions::default() },
                recorder.clone(),
                used_transport,
                LinkConfig::default(),
                topology,
                None,
            )?;
            fan_plan = Some(cluster.plan().clone());
            match algorithm {
                Algorithm::Dsud => cluster.run_dsud(config)?,
                _ => cluster.run_edsud(config)?,
            }
        }
    };

    if let Some(path) = report {
        let mut run_report = recorder.report(algo_name).expect("recorder is enabled");
        let fan = fan_plan.as_ref().map(|plan| (topology, plan));
        stamp_report(&mut run_report, config, used_transport, fan, outcome.plan.as_ref());
        let json = serde_json::to_string_pretty(&run_report)
            .map_err(|e| CliError::Library(format!("cannot serialize run report: {e}")))?;
        fs::write(path, json)?;
        writeln!(out, "run report written to {}", path.display())?;
    }

    writeln!(
        out,
        "{} qualified tuples (q = {}, {} sites, {} tuples transmitted)",
        outcome.skyline.len(),
        config.q,
        sites,
        outcome.tuples_transmitted()
    )?;
    // On a degraded run every probability is only an upper bound — stamp
    // each entry, not just the trailing warning line.
    let relation = if outcome.degraded { "<=" } else { "=" };
    for entry in &outcome.skyline {
        writeln!(
            out,
            "  {}  values={:?}  P_gsky{relation}{:.4}",
            entry.tuple.id(),
            entry.tuple.values(),
            entry.probability
        )?;
    }
    let t = &outcome.traffic;
    writeln!(
        out,
        "traffic: uploads={} feedback={} maintenance={} bytes={}",
        t.upload.tuples,
        t.feedback.tuples,
        t.maintenance.tuples,
        t.total().bytes
    )?;
    let retries = recorder.counter(dsud_core::Counter::LinkRetries);
    let timeouts = recorder.counter(dsud_core::Counter::LinkTimeouts);
    if retries > 0 || timeouts > 0 {
        writeln!(out, "faults: retries={retries} timeouts={timeouts}")?;
    }
    if outcome.degraded {
        let lost: Vec<String> = outcome
            .sites
            .iter()
            .filter(|s| !s.healthy())
            .map(|s| {
                let reason = s.quarantined.as_ref().expect("unhealthy sites carry a reason");
                format!("site {} ({reason})", s.site)
            })
            .collect();
        writeln!(
            out,
            "DEGRADED: quarantined {} — reported probabilities are upper bounds",
            lost.join(", ")
        )?;
    }
    Ok(())
}

/// Stamps a run report with the settings its query ran under, on the
/// one-shot and the served path alike. `fan` is the deployment's topology
/// and fan-out plan (the centralized baseline has none). The `plan` stamp
/// says whether the planner ran (`summary`): `sketch` with its decision
/// (`planned_batch`) stamped beside it, `static` at a fixed batch size.
fn stamp_report(
    report: &mut RunReport,
    config: &QueryConfig,
    transport: Transport,
    fan: Option<(Topology, &FanPlan)>,
    summary: Option<&PlanSummary>,
) {
    report.transport = Some(transport.to_string());
    report.threads = Some(threadpool::pool_size());
    report.batch_size = Some(config.batch.name());
    report.pipeline = Some(config.pipeline.name());
    report.wire = Some(config.wire.as_str().to_string());
    if let Some((topology, plan)) = fan {
        report.topology = Some(topology.to_string());
        report.agg_depth = Some(plan.depth());
        report.root_fanout = Some(plan.root_fanout());
    }
    report.plan = Some(if summary.is_some() { "sketch" } else { "static" }.to_string());
    report.planned_batch = summary.and_then(|s| s.planned_batch);
}

fn vertical<W: Write>(input: &std::path::Path, q: f64, out: &mut W) -> Result<(), CliError> {
    let tuples = read_tuples(input)?;
    let columns = ColumnSite::partition(&tuples)?;
    let outcome = UtaCoordinator::new(q)?.run(&columns)?;
    writeln!(
        out,
        "{} qualified tuples (q = {q}, {} column sites)",
        outcome.skyline.len(),
        columns.len()
    )?;
    for entry in &outcome.skyline {
        writeln!(
            out,
            "  {}  values={:?}  P_sky={:.4}",
            entry.tuple.id(),
            entry.tuple.values(),
            entry.probability
        )?;
    }
    writeln!(
        out,
        "accesses: sorted={} random={} resolved={} of {}",
        outcome.stats.sorted_accesses,
        outcome.stats.random_accesses,
        outcome.stats.resolved,
        tuples.len()
    )?;
    Ok(())
}

fn stream<W: Write>(
    input: &std::path::Path,
    q: f64,
    window: usize,
    every: usize,
    out: &mut W,
) -> Result<(), CliError> {
    let tuples = read_tuples(input)?;
    let dims = tuples[0].dims();
    let mut sky = dsud_stream::SlidingSkyline::new(dims, window, q)
        .map_err(|e| CliError::Library(e.to_string()))?;
    for (i, t) in tuples.iter().enumerate() {
        sky.push(t.clone()).map_err(|e| CliError::Library(e.to_string()))?;
        if (i + 1) % every.max(1) == 0 {
            writeln!(
                out,
                "after {:>8} arrivals: {:>4} qualified, candidates {:>5} of window {}",
                i + 1,
                sky.skyline().len(),
                sky.candidate_count(),
                sky.len()
            )?;
        }
    }
    let stats = sky.stats();
    writeln!(
        out,
        "final: {} qualified; {} arrivals, {} expirations, {} candidates pruned early",
        sky.skyline().len(),
        stats.arrivals,
        stats.expirations,
        stats.pruned_candidates
    )?;
    Ok(())
}

/// Per-connection request handler for `dsud serve`: bridges the JSON-lines
/// protocol (`crate::protocol`) to the shared [`SessionServer`]. Execution
/// settings are the daemon's flags — every query runs with them, whoever
/// asks.
struct ServeHandler {
    session: Arc<SessionServer>,
    transport: Transport,
    topology: Topology,
    /// The daemon's template: a request sets only its threshold (the
    /// template's when it names none), subspace, limit and deadline.
    config: QueryConfig,
}

impl ServeHandler {
    fn answer_query(
        &self,
        spec: &QuerySpec,
        sink: &mut dyn FnMut(&[SkylineEntry], bool),
    ) -> Result<dsud_core::SessionOutcome, CliError> {
        // `QueryConfig::new` rejects a threshold outside (0, 1] before the
        // query takes an admission slot.
        let config = QueryConfig {
            q: QueryConfig::new(spec.q.unwrap_or(self.config.q))?.q,
            mask: spec.subspace.as_deref().map(SubspaceMask::from_dims).transpose()?,
            limit: spec.limit,
            deadline_ms: spec.deadline_ms,
            ..self.config
        };
        let mut outcome = match spec.algorithm.as_deref().unwrap_or("edsud") {
            "dsud" => self.session.run_dsud(&config, spec.report, sink)?,
            "edsud" => self.session.run_edsud(&config, spec.report, sink)?,
            other => {
                return Err(CliError::Usage(format!(
                    "unknown algorithm '{other}' (the daemon serves dsud|edsud)"
                )))
            }
        };
        if let Some(report) = outcome.report.as_mut() {
            let fan = Some((self.topology, self.session.plan()));
            stamp_report(report, &config, self.transport, fan, outcome.outcome.plan.as_ref());
        }
        Ok(outcome)
    }

    fn apply_update(&self, spec: &UpdateSpec) -> Result<UpdateSummary, CliError> {
        let op = match spec.op.as_str() {
            "insert" => UpdateOp::Insert(spec.tuple.clone()),
            "delete" => UpdateOp::Delete(spec.tuple.clone()),
            other => {
                return Err(CliError::Usage(format!("unknown update op '{other}' (insert|delete)")))
            }
        };
        let invalidated_before = self.session.stats().cache_invalidated;
        self.session.apply_update(&op)?;
        let stats = self.session.stats();
        Ok(UpdateSummary {
            updates_applied: stats.updates_applied,
            cache_invalidated: stats.cache_invalidated - invalidated_before,
        })
    }
}

/// Appends one protocol line to `buf`.
fn render(buf: &mut String, response: &Response) {
    buf.push_str(&serde_json::to_string(response).expect("protocol responses serialize"));
    buf.push('\n');
}

/// Writes rendered lines with a single `write_all` — one syscall and,
/// under `nodelay`, one segment — and flushes them so clients see them now.
fn write_lines(out: &mut dyn Write, lines: &str) -> std::io::Result<()> {
    out.write_all(lines.as_bytes())?;
    out.flush()
}

/// Writes one protocol line.
fn respond(out: &mut dyn Write, response: &Response) -> std::io::Result<()> {
    let mut buf = String::new();
    render(&mut buf, response);
    write_lines(out, &buf)
}

/// Appends one `result` line per entry; `exact == false` stamps each
/// probability as an upper bound.
fn render_results(buf: &mut String, entries: &[SkylineEntry], exact: bool) {
    for entry in entries {
        let result = ResultEntry {
            site: entry.tuple.id().site.0,
            seq: entry.tuple.id().seq,
            values: entry.tuple.values().to_vec(),
            probability: entry.probability,
            bound: (!exact).then(|| "upper".to_string()),
        };
        render(buf, &Response { result: Some(result), ..Response::default() });
    }
}

/// One query's reply on its way to the client. Each coordinator round's
/// confirmations leave as one buffer and one `write_all`, on the handler
/// thread, while the query keeps running. After a failed write (a vanished
/// client, or a stalled one past the socket's write timeout) nothing more
/// is written, but the query still runs to completion — releasing its
/// admission slot, link frames and parked site cursors — before the error
/// closes the connection.
struct ResultStream<'o> {
    out: &'o mut dyn Write,
    buf: String,
    /// Entries already handed to [`ResultStream::send`].
    sent: usize,
    failed: Option<std::io::Error>,
}

impl ResultStream<'_> {
    fn send(&mut self, entries: &[SkylineEntry], exact: bool) {
        self.sent += entries.len();
        if self.failed.is_none() {
            self.buf.clear();
            render_results(&mut self.buf, entries, exact);
            self.failed = write_lines(self.out, &self.buf).err();
        }
    }

    /// Sends what the coordinator did not stream — the whole answer on a
    /// cache hit — and the `done` line, together in one write.
    fn finish(mut self, answer: dsud_core::SessionOutcome) -> std::io::Result<()> {
        let outcome = &answer.outcome;
        self.buf.clear();
        render_results(&mut self.buf, &outcome.skyline[self.sent..], !outcome.degraded);
        let done = DoneSummary {
            query_id: answer.query_id,
            count: outcome.skyline.len(),
            cache_hit: answer.cache_hit,
            admission_wait_us: answer.admission_wait_us,
            tuples_transmitted: outcome.traffic.tuples_transmitted(),
            iterations: outcome.stats.iterations,
            degraded: outcome.degraded,
            cancelled: outcome.cancelled,
            report: answer.report,
        };
        render(&mut self.buf, &Response { done: Some(done), ..Response::default() });
        write_lines(self.out, &self.buf)
    }
}

fn respond_error(out: &mut dyn Write, message: &str) -> std::io::Result<ClientControl> {
    respond(out, &Response { error: Some(message.to_string()), ..Response::default() })?;
    Ok(ClientControl::Continue)
}

impl ClientHandler for ServeHandler {
    fn handle_line(&mut self, line: &str, out: &mut dyn Write) -> std::io::Result<ClientControl> {
        let request: Request = match serde_json::from_str(line) {
            Ok(request) => request,
            Err(e) => return respond_error(out, &format!("bad request: {e}")),
        };
        if request.shutdown {
            respond(out, &Response { bye: true, ..Response::default() })?;
            return Ok(ClientControl::Shutdown);
        }
        if let Some(spec) = &request.update {
            return match self.apply_update(spec) {
                Ok(summary) => {
                    respond(out, &Response { updated: Some(summary), ..Response::default() })?;
                    Ok(ClientControl::Continue)
                }
                Err(e) => respond_error(out, &e.to_string()),
            };
        }
        if let Some(spec) = &request.query {
            // Results stream while the query runs, in the algorithms'
            // discovery order: each coordinator round's confirmations leave
            // in one write from this handler thread (no thread or channel
            // per query), each entry stamped exact or upper bound on its
            // own (see `SessionServer::run_dsud`).
            let mut stream = ResultStream { out, buf: String::new(), sent: 0, failed: None };
            let answer = self.answer_query(spec, &mut |entries, exact| stream.send(entries, exact));
            if let Some(e) = stream.failed {
                return Err(e);
            }
            return match answer {
                Ok(answer) => stream.finish(answer).map(|()| ClientControl::Continue),
                Err(e) => respond_error(stream.out, &e.to_string()),
            };
        }
        respond_error(out, "empty request: set query, update, or shutdown")
    }

    fn refuse_line(&mut self, out: &mut dyn Write) -> std::io::Result<()> {
        respond_error(out, &format!("request line longer than {MAX_REQUEST_LINE} bytes")).map(drop)
    }
}

#[allow(clippy::too_many_arguments)]
fn serve<W: Write>(
    input: &std::path::Path,
    sites: usize,
    seed: u64,
    port: u16,
    transport: Transport,
    max_concurrent: usize,
    cache: usize,
    heartbeat: u64,
    op_log: usize,
    topology: Topology,
    config: &QueryConfig,
    out: &mut W,
) -> Result<(), CliError> {
    let tuples = read_tuples(input)?;
    let dims = tuples[0].dims();
    let rows: Vec<(Vec<f64>, Probability)> =
        tuples.iter().map(|t| (t.values().to_vec(), t.prob())).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let partitioned = partition_uniform(rows, sites, &mut rng)?;

    let cluster = Cluster::with_topology(
        dims,
        partitioned,
        SiteOptions { wire: config.wire, ..SiteOptions::default() },
        Recorder::disabled(),
        transport,
        LinkConfig::default(),
        topology,
        None,
    )?;
    let session = Arc::new(SessionServer::new(
        cluster,
        SessionOptions {
            max_concurrent,
            cache_capacity: cache,
            heartbeat_every: heartbeat,
            op_log_capacity: op_log,
            ..SessionOptions::default()
        },
    ));
    let handler_session = Arc::clone(&session);
    let config = *config;
    let server = spawn_query_server(port, move || ServeHandler {
        session: Arc::clone(&handler_session),
        transport,
        topology,
        config,
    })?;
    writeln!(
        out,
        "dsud serve listening on {} ({} sites, {} tuples, transport {transport}, \
         topology {topology} ({} root links), max-concurrent {max_concurrent}, cache {cache}, \
         heartbeat {heartbeat}, op-log {op_log})",
        server.addr(),
        session.site_count(),
        session.total_tuples(),
        session.plan().root_fanout(),
    )?;
    out.flush()?;
    server.wait()?;
    let stats = session.stats();
    writeln!(
        out,
        "dsud serve stopped: {} queries ({} cache hits, {} cancelled), {} updates, \
         peak concurrency {}, health: {} quarantines / {} rejoins / {} resync ops / {} misses",
        stats.queries_served,
        stats.cache_hits,
        stats.cancelled,
        stats.updates_applied,
        stats.peak_concurrent,
        stats.quarantines,
        stats.rejoins,
        stats.resync_ops,
        stats.heartbeat_misses,
    )?;
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn client<W: Write>(
    addr: &str,
    algorithm: Algorithm,
    q: f64,
    subspace: Option<&[usize]>,
    limit: Option<usize>,
    report: Option<&std::path::Path>,
    deadline: Option<u64>,
    insert: Option<&str>,
    delete: Option<&str>,
    shutdown: bool,
    out: &mut W,
) -> Result<(), CliError> {
    let request = if shutdown {
        Request { shutdown: true, ..Request::default() }
    } else if let Some(json) = insert.or(delete) {
        let tuple: UncertainTuple = serde_json::from_str(json)
            .map_err(|e| CliError::Parse { line: 1, message: e.to_string() })?;
        let op = if insert.is_some() { "insert" } else { "delete" };
        Request { update: Some(UpdateSpec { op: op.to_string(), tuple }), ..Request::default() }
    } else {
        let algorithm = match algorithm {
            Algorithm::Dsud => "dsud",
            Algorithm::Edsud => "edsud",
            Algorithm::Baseline => {
                return Err(CliError::Usage(
                    "the daemon serves dsud|edsud; run baseline locally via 'dsud query'".into(),
                ))
            }
        };
        Request {
            query: Some(QuerySpec {
                algorithm: Some(algorithm.to_string()),
                q: Some(q),
                subspace: subspace.map(<[usize]>::to_vec),
                limit,
                report: report.is_some(),
                deadline_ms: deadline,
            }),
            ..Request::default()
        }
    };

    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut writer = BufWriter::new(stream.try_clone()?);
    let reader = BufReader::new(stream);
    let line = serde_json::to_string(&request).expect("protocol requests serialize");
    writeln!(writer, "{line}")?;
    writer.flush()?;

    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let response: Response = serde_json::from_str(&line)
            .map_err(|e| CliError::Library(format!("bad response from server: {e}")))?;
        if let Some(message) = response.error {
            return Err(CliError::Library(format!("server error: {message}")));
        }
        if response.bye {
            writeln!(out, "server shutting down")?;
            return Ok(());
        }
        if let Some(update) = response.updated {
            writeln!(
                out,
                "update applied ({} total), {} cached answers invalidated",
                update.updates_applied, update.cache_invalidated
            )?;
            return Ok(());
        }
        if let Some(entry) = response.result {
            // Degraded entries carry bound="upper": render the relation
            // honestly (≤, not =) so the marker survives into human output.
            let relation = if entry.bound.as_deref() == Some("upper") { "<=" } else { "=" };
            writeln!(
                out,
                "  {}  values={:?}  P_gsky{relation}{:.4}",
                dsud_uncertain::TupleId::new(entry.site, entry.seq),
                entry.values,
                entry.probability
            )?;
            continue;
        }
        if let Some(done) = response.done {
            writeln!(
                out,
                "query {}: {} qualified tuples ({}, {} tuples transmitted, \
                 {} iterations, waited {}us at admission)",
                done.query_id,
                done.count,
                if done.cache_hit { "cache hit" } else { "computed" },
                done.tuples_transmitted,
                done.iterations,
                done.admission_wait_us
            )?;
            if done.degraded {
                writeln!(out, "DEGRADED: reported probabilities are upper bounds")?;
            }
            if done.cancelled {
                writeln!(
                    out,
                    "CANCELLED: deadline hit — results above are the partial \
                     progressive answer"
                )?;
            }
            if let Some(path) = report {
                match &done.report {
                    Some(run_report) => {
                        let json = serde_json::to_string_pretty(run_report).map_err(|e| {
                            CliError::Library(format!("cannot serialize run report: {e}"))
                        })?;
                        fs::write(path, json)?;
                        writeln!(out, "run report written to {}", path.display())?;
                    }
                    None => writeln!(out, "server returned no run report")?,
                }
            }
            return Ok(());
        }
    }
    Err(CliError::Library("connection closed before the reply completed".into()))
}

fn estimate<W: Write>(n: usize, dims: usize, sites: usize, out: &mut W) -> Result<(), CliError> {
    let a = dsud_core::estimate::analyze(sites, dims, n);
    writeln!(out, "expected skyline cardinality H({dims}, {n}) ≈ {:.1}", a.expected_skylines)?;
    writeln!(out, "naive feedback cost  N_back  ≈ {:.0} tuples (Eq. 7)", a.n_back)?;
    writeln!(out, "local skyline volume N_local ≈ {:.0} tuples (Eq. 8)", a.n_local)?;
    writeln!(
        out,
        "N_back / N_local ≈ {:.2} — blind feedback costs more than shipping local skylines",
        a.n_back / a.n_local.max(f64::MIN_POSITIVE)
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsud_core::{BatchSize, PipelineDepth, WireFormat};
    use dsud_uncertain::TupleId;

    #[test]
    fn estimate_prints_analysis() {
        let mut buf = Vec::new();
        estimate(2_000_000, 3, 60, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("N_back"));
        assert!(text.contains("N_local"));
    }

    #[test]
    fn query_with_report_writes_a_parseable_run_report() {
        let dir = std::env::temp_dir().join("dsud-cli-report-test");
        fs::create_dir_all(&dir).unwrap();
        let data = dir.join("workload.jsonl");
        let mut buf = Vec::new();
        generate(300, 2, Distribution::Independent, None, 7, Some(&data), &mut buf).unwrap();
        for batch in [BatchSize::Fixed(4), BatchSize::Auto] {
            for algorithm in [Algorithm::Dsud, Algorithm::Edsud] {
                let path = dir.join("report.json");
                let config = QueryConfig::new(0.3)
                    .unwrap()
                    .batch_size(batch)
                    .pipeline_depth(PipelineDepth::Auto)
                    .wire_format(WireFormat::Columnar);
                let mut out = Vec::new();
                query(
                    &data,
                    4,
                    algorithm,
                    0,
                    Some(&path),
                    Transport::Inline,
                    Topology::Tree(2),
                    &config,
                    &mut out,
                )
                .unwrap();
                let text = String::from_utf8(out).unwrap();
                assert!(text.contains("run report written to"));
                let report: dsud_core::RunReport =
                    serde_json::from_str(&fs::read_to_string(&path).unwrap()).unwrap();
                assert_eq!(report.schema_version, dsud_core::SCHEMA_VERSION);
                assert!(report.counters.bytes_sent > 0);
                assert!(report.counters.rounds >= 1);
                assert_eq!(report.transport.as_deref(), Some("inline"));
                assert_eq!(report.threads, Some(threadpool::pool_size()));
                assert_eq!(report.batch_size, Some(batch.name()));
                assert_eq!(report.pipeline.as_deref(), Some("auto"));
                assert_eq!(report.counters.pipeline_depth, 2, "auto resolves to the double buffer");
                assert!(report.counters.overlapped_rounds > 0);
                assert_eq!(report.topology.as_deref(), Some("tree:2"));
                assert_eq!(report.agg_depth, Some(1), "4 sites at fan-out 2 need one layer");
                assert_eq!(report.root_fanout, Some(2));
                assert!(
                    report.counters.agg_merged_frames > 0,
                    "a tree run merges at least the start broadcast"
                );
                if batch == BatchSize::Auto {
                    // The plan comes from the counts on the Start replies,
                    // even on a tree.
                    assert_eq!(report.plan.as_deref(), Some("sketch"));
                    assert!(
                        report.planned_batch.unwrap() >= dsud_core::planner::PLAN_BATCH_MIN,
                        "the planner never caps below its floor"
                    );
                } else {
                    // A fixed batch leaves the planner nothing to decide: no
                    // plan runs, and the report says so.
                    assert_eq!(report.plan.as_deref(), Some("static"));
                    assert_eq!(report.planned_batch, None);
                }
                assert!(!report.phases.is_empty(), "per-phase totals are aggregated");
                fs::remove_file(&path).unwrap();
            }
        }
    }

    /// A deployment for the handler tests: 900 anticorrelated tuples on 4
    /// inline sites, identical on every call.
    fn served_cluster() -> Cluster {
        let sites = WorkloadSpec::new(900, 3)
            .spatial(SpatialDistribution::Anticorrelated)
            .seed(5)
            .generate_partitioned(4)
            .unwrap();
        Cluster::with_transport(
            3,
            sites,
            SiteOptions::default(),
            Recorder::disabled(),
            Transport::Inline,
        )
        .unwrap()
    }

    fn handler(batch: BatchSize, max_concurrent: usize) -> ServeHandler {
        let session = SessionServer::new(
            served_cluster(),
            SessionOptions { max_concurrent, cache_capacity: 0, ..SessionOptions::default() },
        );
        ServeHandler {
            session: Arc::new(session),
            transport: Transport::Inline,
            topology: Topology::Flat,
            config: QueryConfig::new(0.3)
                .unwrap()
                .batch_size(batch)
                .pipeline_depth(PipelineDepth::Auto)
                .wire_format(WireFormat::Columnar),
        }
    }

    /// The same query run one-shot on a fresh cluster with the handler's
    /// template config.
    fn one_shot(h: &ServeHandler, edsud: bool) -> QueryOutcome {
        let mut cluster = served_cluster();
        if edsud { cluster.run_edsud(&h.config) } else { cluster.run_dsud(&h.config) }.unwrap()
    }

    fn query_line(edsud: bool) -> String {
        let algorithm = if edsud { "edsud" } else { "dsud" };
        format!(r#"{{"query":{{"algorithm":"{algorithm}","q":0.3}}}}"#)
    }

    /// The `result` lines of a reply, as (id, probability bits), plus the
    /// number of `done` lines.
    fn parse_reply(bytes: &[u8]) -> (Vec<(TupleId, u64)>, usize) {
        let mut results = Vec::new();
        let mut done = 0;
        for line in std::str::from_utf8(bytes).unwrap().lines() {
            let response: Response = serde_json::from_str(line).unwrap();
            if let Some(r) = response.result {
                assert_eq!(r.bound, None, "a fault-free answer is exact");
                results.push((TupleId::new(r.site, r.seq), r.probability.to_bits()));
            }
            done += usize::from(response.done.is_some());
        }
        (results, done)
    }

    fn progress_order(outcome: &QueryOutcome) -> Vec<(TupleId, u64)> {
        outcome.progress.events().iter().map(|e| (e.id, e.probability.to_bits())).collect()
    }

    /// Records, for every `write` call, the session's aggregate message
    /// count at that moment and the bytes written.
    struct MeteredOut {
        meter: BandwidthMeter,
        writes: Vec<(u64, Vec<u8>)>,
    }

    impl Write for MeteredOut {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push((self.meter.snapshot().total().messages, buf.to_vec()));
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn served_results_stream_before_the_query_finishes() {
        for batch in [BatchSize::Fixed(1), BatchSize::Auto] {
            for edsud in [false, true] {
                let mut h = handler(batch, 1);
                let meter = h.session.meter().clone();
                let mut out = MeteredOut { meter, writes: Vec::new() };
                let control = h.handle_line(&query_line(edsud), &mut out).unwrap();
                assert_eq!(control, ClientControl::Continue);

                let ctx = format!("batch {} edsud={edsud}", batch.name());
                let has = |bytes: &[u8], key: &str| {
                    std::str::from_utf8(bytes).unwrap().contains(&format!("\"{key}\":{{"))
                };
                let first_result =
                    out.writes.iter().find(|(_, b)| has(b, "result")).expect("results written");
                let (done_at, done_bytes) = out.writes.last().unwrap();
                assert!(has(done_bytes, "done"), "{ctx}: the done line comes last");
                assert!(
                    first_result.0 < *done_at,
                    "{ctx}: the first result left at {} messages, no earlier than done at \
                     {done_at}",
                    first_result.0
                );

                let all: Vec<u8> = out.writes.iter().flat_map(|(_, b)| b.clone()).collect();
                let (results, done) = parse_reply(&all);
                assert_eq!(done, 1, "{ctx}");
                assert_eq!(results, progress_order(&one_shot(&h, edsud)), "{ctx}");
            }
        }
    }

    /// Fails every write, counting the attempts.
    struct BrokenOut(usize);

    impl Write for BrokenOut {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            self.0 += 1;
            Err(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "client vanished"))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_vanished_client_neither_wedges_the_session_nor_changes_answers() {
        for edsud in [false, true] {
            // Width 1: the second query is only admitted if the first one
            // released its slot.
            let mut h = handler(BatchSize::Auto, 1);
            let mut broken = BrokenOut(0);
            assert!(h.handle_line(&query_line(edsud), &mut broken).is_err(), "connection closes");
            assert_eq!(broken.0, 1, "nothing is written after the first failure");
            assert_eq!(h.session.stats().queries_served, 1, "the query ran to completion");

            let mut out = Vec::new();
            h.handle_line(&query_line(edsud), &mut out).unwrap();
            let (results, done) = parse_reply(&out);
            assert_eq!(done, 1);
            assert_eq!(results, progress_order(&one_shot(&h, edsud)), "edsud={edsud}");
        }
    }

    #[test]
    fn a_cache_hit_is_one_write() {
        let mut h = handler(BatchSize::Auto, 1);
        h.session = Arc::new(SessionServer::new(served_cluster(), SessionOptions::default()));
        let mut cold = MeteredOut { meter: h.session.meter().clone(), writes: Vec::new() };
        h.handle_line(&query_line(true), &mut cold).unwrap();
        let mut warm = MeteredOut { meter: h.session.meter().clone(), writes: Vec::new() };
        h.handle_line(&query_line(true), &mut warm).unwrap();
        assert_eq!(warm.writes.len(), 1, "answer and done line leave together");
        let (results, done) = parse_reply(&warm.writes[0].1);
        assert_eq!(done, 1);
        let cold_bytes: Vec<u8> = cold.writes.iter().flat_map(|(_, b)| b.clone()).collect();
        assert_eq!(results, parse_reply(&cold_bytes).0, "the cached answer is the computed one");
    }

    /// How deeply arrays and objects nest in `line`.
    fn nesting_depth(line: &str) -> usize {
        let (mut depth, mut deepest, mut in_string, mut escaped) = (0usize, 0, false, false);
        for c in line.chars() {
            match (in_string, escaped, c) {
                (true, true, _) => escaped = false,
                (true, false, '\\') => escaped = true,
                (true, false, '"') | (false, _, '"') => in_string = !in_string,
                (false, _, '[' | '{') => {
                    depth += 1;
                    deepest = deepest.max(depth);
                }
                (false, _, ']' | '}') => depth -= 1,
                _ => {}
            }
        }
        deepest
    }

    /// The deepest line the protocol builds — a `done` line carrying a run
    /// report — nests 5 levels, far below the parser's limit, and the
    /// longest request — an update at the largest supported
    /// dimensionality, every float at its longest decimal spelling — fits
    /// the server's line cap with room to spare.
    #[test]
    fn protocol_lines_fit_the_parser_and_line_limits() {
        let mut h = handler(BatchSize::Auto, 1);
        let mut out = Vec::new();
        let line = r#"{"query":{"algorithm":"edsud","q":0.3,"subspace":[0,1,2],"report":true}}"#;
        h.handle_line(line, &mut out).unwrap();
        let reply = String::from_utf8(out).unwrap();
        let done = reply.lines().last().unwrap();
        assert!(done.contains(r#""report":{"#), "{done}");
        let deepest = reply.lines().map(nesting_depth).max().unwrap();
        assert_eq!(deepest, 5, "response > done > report > spans > span");
        assert!(deepest * 16 < serde_json::MAX_DEPTH);

        // The longest decimal a float serializes to: the smallest normal
        // magnitude, negated, spelled without an exponent.
        let longest = -f64::MIN_POSITIVE;
        let values = vec![longest; SubspaceMask::MAX_DIMS];
        let tuple = UncertainTuple::new(
            dsud_uncertain::TupleId::new(u32::MAX, u64::MAX),
            values,
            Probability::new(f64::MIN_POSITIVE).unwrap(),
        )
        .unwrap();
        let update = Request {
            update: Some(UpdateSpec { op: "insert".into(), tuple }),
            ..Request::default()
        };
        let line = serde_json::to_string(&update).unwrap();
        assert!(line.len() > 20_000 && line.len() * 2 < MAX_REQUEST_LINE, "{} bytes", line.len());
        assert!(nesting_depth(&line) <= 5);
    }

    /// Hostile request lines — nesting far past the parser's limit, and
    /// lines longer than the server's line cap — each get exactly one
    /// `error` line and leave the connection usable, on a 2 MiB thread
    /// like the daemon's client threads. The refusal the server sends for
    /// an over-long line it stops reading is one `error` line too.
    #[test]
    fn malformed_request_lines_get_one_error_each_on_a_small_stack() {
        let corpus = [
            "[".repeat(20_000),
            "{".repeat(20_000),
            r#"{"query":"#.repeat(100_000),
            format!(r#"{{"update":{{"op":"insert","tuple":{}}}}}"#, "[".repeat(50_000)),
            format!("{}0{}", "[".repeat(129), "]".repeat(129)),
            "x".repeat(2 * MAX_REQUEST_LINE),
            format!(r#"{{"query":{{"algorithm":"{}"}}}}"#, "x".repeat(MAX_REQUEST_LINE)),
        ];
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let mut h = handler(BatchSize::Fixed(1), 1);
                for (i, line) in corpus.iter().enumerate() {
                    let mut out = Vec::new();
                    let control = h.handle_line(line, &mut out).unwrap();
                    assert_eq!(control, ClientControl::Continue, "entry {i}");
                    let reply = String::from_utf8(out).unwrap();
                    assert_eq!(reply.lines().count(), 1, "entry {i}: {reply:.200}");
                    let response: Response = serde_json::from_str(&reply).unwrap();
                    assert!(response.error.is_some(), "entry {i}: {reply:.200}");
                }
                let mut out = Vec::new();
                h.refuse_line(&mut out).unwrap();
                let response: Response = serde_json::from_slice(&out).unwrap();
                assert!(response.error.unwrap().contains("longer than 65536 bytes"));

                // The handler still answers a normal query.
                let mut out = Vec::new();
                h.handle_line(&query_line(true), &mut out).unwrap();
                let (results, done) = parse_reply(&out);
                assert_eq!(done, 1);
                assert_eq!(results, progress_order(&one_shot(&h, true)));
            })
            .unwrap()
            .join()
            .unwrap();
    }

    /// `dsud client` parses the server's lines with the same parser: a
    /// hostile server's deeply nested line fails the client with an error
    /// instead of overflowing its stack.
    #[test]
    fn malformed_server_lines_fail_the_client_cleanly() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut request = String::new();
            BufReader::new(stream.try_clone().unwrap()).read_line(&mut request).unwrap();
            let mut stream = stream;
            writeln!(stream, "{}", "[".repeat(20_000)).unwrap();
        });
        let err = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let mut out = Vec::new();
                client(
                    &addr,
                    Algorithm::Edsud,
                    0.3,
                    None,
                    None,
                    None,
                    None,
                    None,
                    None,
                    false,
                    &mut out,
                )
                .unwrap_err()
            })
            .unwrap()
            .join()
            .unwrap();
        server.join().unwrap();
        assert!(err.to_string().contains("bad response from server"), "{err}");
        assert!(err.to_string().contains("nesting deeper than"), "{err}");
    }

    #[test]
    fn read_tuples_rejects_garbage() {
        let dir = std::env::temp_dir().join("dsud-cli-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.jsonl");
        fs::write(&path, "not json\n").unwrap();
        assert!(matches!(read_tuples(&path), Err(CliError::Parse { line: 1, .. })));
        fs::write(&path, "").unwrap();
        assert!(matches!(read_tuples(&path), Err(CliError::Parse { line: 0, .. })));
    }
}
