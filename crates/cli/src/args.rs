use std::collections::HashMap;
use std::path::PathBuf;

use dsud_core::{
    BatchSize, FailurePolicy, PipelineDepth, PlanMode, QueryConfig, SubspaceMask, Topology,
    Transport, WireFormat,
};

use crate::CliError;

/// Which query algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// The DSUD baseline (Section 5.1).
    Dsud,
    /// The enhanced e-DSUD (Section 5.2, default).
    Edsud,
    /// Ship-everything centralized baseline.
    Baseline,
}

/// Spatial distribution for `generate`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distribution {
    /// Independent uniform values.
    Independent,
    /// Correlated values.
    Correlated,
    /// Anticorrelated values.
    Anticorrelated,
    /// Synthetic NYSE stock trades (2-d).
    Nyse,
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Generate a workload file.
    Generate {
        /// Number of tuples.
        n: usize,
        /// Dimensionality (ignored for `nyse`).
        dims: usize,
        /// Spatial distribution.
        dist: Distribution,
        /// Gaussian probability mean, if requested (`--gaussian <mu>`);
        /// uniform otherwise.
        gaussian_mean: Option<f64>,
        /// RNG seed.
        seed: u64,
        /// Output path (`-` for stdout).
        out: Option<PathBuf>,
    },
    /// Run a distributed (horizontal) skyline query over a workload file.
    Query {
        /// Input path.
        input: PathBuf,
        /// Number of sites to partition across.
        sites: usize,
        /// Algorithm choice.
        algorithm: Algorithm,
        /// Partitioning seed.
        seed: u64,
        /// Optional path for a JSON observability run report.
        report: Option<PathBuf>,
        /// Site transport: `inline` (deterministic in-process dispatch,
        /// the default), `threaded` (one OS thread per site behind
        /// channels), or `tcp` (real loopback sockets). The answer is
        /// bit-identical across all three; only `--failure degrade`
        /// behavior and wall-clock change. `baseline` always runs in
        /// process and ignores this flag.
        transport: Transport,
        /// Coordinator fan-out: `flat` (default) gives the root one link
        /// per site; `tree:<F>` interposes regional aggregators of fan-out
        /// F >= 2 that merge child frames before forwarding; `auto` picks
        /// F = ceil(sqrt(m)). Answers are bit-identical at every setting;
        /// only root-link frame and byte counts change.
        topology: Topology,
        /// The query: `--q` (default 0.3), `--subspace`, `--limit`, and the
        /// execution settings `--failure`, `--batch`, `--pipeline`, `--wire`
        /// and `--plan` (see `dsud help` for each flag). None of the settings
        /// changes the answer; `--failure degrade` only decides what a dead
        /// site does to it.
        config: QueryConfig,
    },
    /// Run the long-lived session daemon: sites stay resident and many
    /// concurrent clients multiplex queries onto them.
    Serve {
        /// Input path.
        input: PathBuf,
        /// Number of sites to partition across.
        sites: usize,
        /// Partitioning seed.
        seed: u64,
        /// TCP port to listen on (0 picks an ephemeral port; the bound
        /// address is printed on startup).
        port: u16,
        /// Site transport (same choices and semantics as `query`).
        transport: Transport,
        /// Admission-control gate: maximum queries running concurrently;
        /// arrivals beyond that queue FIFO.
        max_concurrent: usize,
        /// Result-cache capacity in answers (0 disables caching).
        cache: usize,
        /// Heartbeat cadence in served queries: after every N queries the
        /// daemon probes all sites, quarantining the unresponsive and
        /// walking recovered ones through probation back to Active
        /// (0 disables the health sweep — a failed site then stays
        /// quarantined until restart).
        heartbeat: u64,
        /// Bounded update op-log capacity for rejoin resync: a recovering
        /// site replays the ops it missed from this log; if the outage
        /// outlasts the log, the site takes a full bootstrap instead and
        /// any evicted deferred ops are lost.
        op_log: usize,
        /// Coordinator fan-out applied to every query (same semantics as
        /// `query`; chosen by the operator, not per client). Heartbeats
        /// probe one link per aggregator subtree, and a lost aggregator
        /// quarantines its whole subtree as a unit.
        topology: Topology,
        /// The template every served query starts from: the operator's
        /// execution settings (same flags and semantics as `query`), and
        /// threshold 0.3 for clients that name none. Each request sets only
        /// its threshold, subspace, limit and deadline.
        config: QueryConfig,
    },
    /// Send one request to a running `dsud serve` daemon.
    Client {
        /// Daemon address, e.g. `127.0.0.1:7878`.
        addr: String,
        /// Algorithm choice (`baseline` is not served).
        algorithm: Algorithm,
        /// Probability threshold.
        q: f64,
        /// Optional subspace: dimension indices.
        subspace: Option<Vec<usize>>,
        /// Optional progressive top-k limit.
        limit: Option<usize>,
        /// Optional path for the per-query JSON run report.
        report: Option<PathBuf>,
        /// Optional per-query deadline in milliseconds: the server cancels
        /// the query at the next round boundary, streams the partial
        /// progressive answer, and stamps the summary `cancelled`.
        deadline: Option<u64>,
        /// JSON tuple to insert (`--insert '<tuple json>'`), instead of
        /// querying.
        insert: Option<String>,
        /// JSON tuple to delete, instead of querying.
        delete: Option<String>,
        /// Ask the daemon to shut down, instead of querying.
        shutdown: bool,
    },
    /// Run the vertically partitioned UTA query over a workload file.
    Vertical {
        /// Input path.
        input: PathBuf,
        /// Probability threshold.
        q: f64,
    },
    /// Stream a workload file through a sliding window, printing
    /// checkpoints of the continuous skyline.
    Stream {
        /// Input path.
        input: PathBuf,
        /// Probability threshold.
        q: f64,
        /// Window size (count-based).
        window: usize,
        /// Report every this many arrivals.
        every: usize,
    },
    /// Print the Section-4 cardinality/cost analysis.
    Estimate {
        /// Cardinality `N`.
        n: usize,
        /// Dimensionality `d`.
        dims: usize,
        /// Number of sites `m`.
        sites: usize,
    },
    /// Print usage.
    Help,
}

/// Usage text printed by `dsud help` and on argument errors.
pub const USAGE: &str = "\
dsud — distributed skyline queries over uncertain data

USAGE:
  dsud generate --n <N> [--dims <D>] [--dist independent|correlated|anticorrelated|nyse]
                [--gaussian <MU>] [--seed <S>] [--out <FILE>]
  dsud query    --input <FILE> [--sites <M>] [--q <Q>] [--algorithm dsud|edsud|baseline]
                [--subspace 0,2,...] [--limit <K>] [--seed <S>] [--report <FILE>]
                [--transport inline|threaded|tcp] [--failure strict|degrade]
                [--batch <K>|auto] [--pipeline <W>|auto] [--wire columnar|legacy]
                [--topology flat|tree:<F>|auto] [--plan sketch|static]
  dsud vertical --input <FILE> [--q <Q>]
  dsud stream   --input <FILE> [--q <Q>] [--window <W>] [--every <K>]
  dsud estimate [--n <N>] [--dims <D>] [--sites <M>]
  dsud serve    --input <FILE> [--sites <M>] [--seed <S>] [--port <P>]
                [--transport inline|threaded|tcp] [--failure strict|degrade]
                [--batch <K>|auto] [--pipeline <W>|auto] [--wire columnar|legacy]
                [--topology flat|tree:<F>|auto] [--plan sketch|static]
                [--max-concurrent <N>] [--cache <N>]
                [--heartbeat <N>] [--op-log <N>]
  dsud client   --addr <HOST:PORT> [--algorithm dsud|edsud] [--q <Q>]
                [--subspace 0,2,...] [--limit <K>] [--report <FILE>]
                [--deadline <MS>] [--insert '<tuple json>']
                [--delete '<tuple json>'] [--shutdown]
  dsud help

Flag notes:
  --transport  inline|threaded|tcp give bit-identical answers; only
               failure behavior and wall-clock differ.
  --failure    strict aborts on a dead site; degrade quarantines it and
               reports upper bounds (needs a fallible transport).
  --batch      auto sizes feedback rounds from the candidate backlog;
               a fixed K coalesces K candidates per round.
  --pipeline   auto is the double buffer (W=2); W>1 overlaps rounds on
               threaded/tcp transports. Neither flag changes the answer.
  --wire       columnar (default) packs bulk frames as fixed-width column
               sections decoded in place; legacy keeps the row encoding.
               Bit-identical answers either way.
  --topology   flat links the root to every site; tree:<F> interposes
               aggregators of fan-out F>=2 that merge frames (tree:1 is
               rejected — it merges nothing); auto picks F=ceil(sqrt(m)).
               Answers stay bit-identical at every setting and compose
               with --batch/--pipeline/--wire unchanged (aggregate frames
               carry the chosen wire layout inside them). With --failure
               degrade, a dead aggregator quarantines its whole subtree,
               stamped as upper bounds like any lost site.
  --plan       sketch (default) sizes --batch auto rounds from the exact
               candidate counts the sites report on their Start replies
               (the name stays from the sketch gather this replaced; no
               extra frame is sent); static keeps the fixed clamp. It
               acts only under --batch auto (a fixed K is never
               overridden); answers stay bit-identical either way.
  --deadline   (client) per-query budget in ms; the server cancels at the
               next round boundary and streams the partial answer, marked
               CANCELLED. Nothing cancelled or degraded enters the cache.
  --heartbeat  (serve) probe all sites every N served queries; failed
               sites are quarantined, recovered ones resync missed
               updates and rejoin. 0 (default) disables the sweep.
  --op-log     (serve) deferred-update log capacity for rejoin resync;
               outages longer than the log force a full bootstrap and
               evicted deferred ops are lost (default 1024).
  serve runs queries with ITS transport/failure/batch/pipeline/wire/plan flags;
  clients choose only what to ask (algorithm, q, subspace, limit).

Data files hold one JSON tuple per line:
  {\"id\":{\"site\":0,\"seq\":0},\"values\":[0.1,0.9],\"prob\":0.8}";

/// Parses a command line (without the program name).
///
/// # Errors
///
/// Returns [`CliError::Usage`] describing the problem.
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let Some(first) = args.first() else {
        return Ok(Command::Help);
    };
    let flags = parse_flags(&args[1..])?;
    let get = |key: &str| flags.get(key).map(String::as_str);
    let parse_num = |key: &str, default: usize| -> Result<usize, CliError> {
        match get(key) {
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("--{key} expects an integer, got '{v}'"))),
            None => Ok(default),
        }
    };
    let parse_f64 = |key: &str, default: f64| -> Result<f64, CliError> {
        match get(key) {
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("--{key} expects a number, got '{v}'"))),
            None => Ok(default),
        }
    };

    match first.as_str() {
        "generate" => {
            let n = parse_num("n", 0)?;
            if n == 0 {
                return Err(CliError::Usage("generate requires --n <N> (> 0)".into()));
            }
            let dist = match get("dist").unwrap_or("independent") {
                "independent" => Distribution::Independent,
                "correlated" => Distribution::Correlated,
                "anticorrelated" => Distribution::Anticorrelated,
                "nyse" => Distribution::Nyse,
                other => return Err(CliError::Usage(format!("unknown distribution '{other}'"))),
            };
            let gaussian_mean = match get("gaussian") {
                Some(v) => Some(v.parse().map_err(|_| {
                    CliError::Usage(format!("--gaussian expects a mean, got '{v}'"))
                })?),
                None => None,
            };
            Ok(Command::Generate {
                n,
                dims: parse_num("dims", 2)?,
                dist,
                gaussian_mean,
                seed: parse_num("seed", 0)? as u64,
                out: get("out").filter(|v| *v != "-").map(PathBuf::from),
            })
        }
        "query" => {
            let input = get("input")
                .ok_or_else(|| CliError::Usage("query requires --input <FILE>".into()))?;
            let algorithm = match get("algorithm").unwrap_or("edsud") {
                "dsud" => Algorithm::Dsud,
                "edsud" => Algorithm::Edsud,
                "baseline" => Algorithm::Baseline,
                other => return Err(CliError::Usage(format!("unknown algorithm '{other}'"))),
            };
            let subspace = subspace_flag(get("subspace"))?;
            let limit = match get("limit") {
                Some(v) => Some(v.parse().map_err(|_| {
                    CliError::Usage(format!("--limit expects an integer, got '{v}'"))
                })?),
                None => None,
            };
            let mut config = query_config(parse_f64("q", 0.3)?, &get)?;
            if let Some(dims) = subspace {
                config = config.subspace(SubspaceMask::from_dims(&dims)?);
            }
            if let Some(k) = limit {
                config = config.limit(k);
            }
            Ok(Command::Query {
                input: PathBuf::from(input),
                sites: parse_num("sites", 8)?,
                algorithm,
                seed: parse_num("seed", 0)? as u64,
                report: get("report").map(PathBuf::from),
                transport: transport_flag(get("transport"))?,
                topology: topology_flag(get("topology"))?,
                config,
            })
        }
        "serve" => {
            let input = get("input")
                .ok_or_else(|| CliError::Usage("serve requires --input <FILE>".into()))?;
            let port = parse_num("port", 0)?;
            let port = u16::try_from(port)
                .map_err(|_| CliError::Usage(format!("--port expects 0..=65535, got '{port}'")))?;
            let max_concurrent = parse_num("max-concurrent", 8)?;
            if max_concurrent == 0 {
                return Err(CliError::Usage("--max-concurrent must be at least 1".into()));
            }
            Ok(Command::Serve {
                input: PathBuf::from(input),
                sites: parse_num("sites", 8)?,
                seed: parse_num("seed", 0)? as u64,
                port,
                transport: transport_flag(get("transport"))?,
                max_concurrent,
                cache: parse_num("cache", 64)?,
                heartbeat: parse_num("heartbeat", 0)? as u64,
                op_log: parse_num("op-log", 1024)?,
                topology: topology_flag(get("topology"))?,
                config: query_config(0.3, &get)?,
            })
        }
        "client" => {
            let addr = get("addr")
                .ok_or_else(|| CliError::Usage("client requires --addr <HOST:PORT>".into()))?;
            let algorithm = match get("algorithm").unwrap_or("edsud") {
                "dsud" => Algorithm::Dsud,
                "edsud" => Algorithm::Edsud,
                "baseline" => {
                    return Err(CliError::Usage(
                        "the daemon serves dsud|edsud; run baseline locally via 'dsud query'"
                            .into(),
                    ))
                }
                other => return Err(CliError::Usage(format!("unknown algorithm '{other}'"))),
            };
            let shutdown = match get("shutdown") {
                None => false,
                Some("true") => true,
                Some("false") => false,
                Some(v) => {
                    return Err(CliError::Usage(format!(
                        "--shutdown is a bare flag (or true|false), got '{v}'"
                    )))
                }
            };
            Ok(Command::Client {
                addr: addr.to_string(),
                algorithm,
                q: parse_f64("q", 0.3)?,
                subspace: subspace_flag(get("subspace"))?,
                limit: match get("limit") {
                    Some(v) => Some(v.parse().map_err(|_| {
                        CliError::Usage(format!("--limit expects an integer, got '{v}'"))
                    })?),
                    None => None,
                },
                report: get("report").map(PathBuf::from),
                deadline: match get("deadline") {
                    Some(v) => Some(v.parse().map_err(|_| {
                        CliError::Usage(format!("--deadline expects milliseconds, got '{v}'"))
                    })?),
                    None => None,
                },
                insert: get("insert").map(String::from),
                delete: get("delete").map(String::from),
                shutdown,
            })
        }
        "vertical" => {
            let input = get("input")
                .ok_or_else(|| CliError::Usage("vertical requires --input <FILE>".into()))?;
            Ok(Command::Vertical { input: PathBuf::from(input), q: parse_f64("q", 0.3)? })
        }
        "stream" => {
            let input = get("input")
                .ok_or_else(|| CliError::Usage("stream requires --input <FILE>".into()))?;
            Ok(Command::Stream {
                input: PathBuf::from(input),
                q: parse_f64("q", 0.3)?,
                window: parse_num("window", 1_000)?,
                every: parse_num("every", 1_000)?,
            })
        }
        "estimate" => Ok(Command::Estimate {
            n: parse_num("n", 2_000_000)?,
            dims: parse_num("dims", 3)?,
            sites: parse_num("sites", 60)?,
        }),
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(CliError::Usage(format!("unknown command '{other}' — try 'dsud help'"))),
    }
}

/// Parses the execution settings `query` and `serve` share — `--failure`,
/// `--batch`, `--pipeline`, `--wire` and `--plan` — into one config over
/// threshold `q`.
fn query_config<'a>(
    q: f64,
    get: &dyn Fn(&str) -> Option<&'a str>,
) -> Result<QueryConfig, CliError> {
    Ok(QueryConfig::new(q)?
        .failure_policy(failure_flag(get("failure"))?)
        .batch_size(batch_flag(get("batch"))?)
        .pipeline_depth(pipeline_flag(get("pipeline"))?)
        .wire_format(wire_flag(get("wire"))?)
        .plan_mode(plan_flag(get("plan"))?))
}

/// Parses `--transport` (defaults to `inline`).
fn transport_flag(v: Option<&str>) -> Result<Transport, CliError> {
    match v {
        Some(v) => v.parse::<Transport>().map_err(|_| {
            CliError::Usage(format!("--transport expects inline|threaded|tcp, got '{v}'"))
        }),
        None => Ok(Transport::Inline),
    }
}

/// Parses `--failure` (defaults to `strict`).
fn failure_flag(v: Option<&str>) -> Result<FailurePolicy, CliError> {
    match v {
        Some(v) => v
            .parse::<FailurePolicy>()
            .map_err(|_| CliError::Usage(format!("--failure expects strict|degrade, got '{v}'"))),
        None => Ok(FailurePolicy::Strict),
    }
}

/// Parses `--batch` (defaults to one candidate per round).
fn batch_flag(v: Option<&str>) -> Result<BatchSize, CliError> {
    match v {
        Some(v) => v.parse::<BatchSize>().map_err(|_| {
            CliError::Usage(format!("--batch expects a count >= 1 or auto, got '{v}'"))
        }),
        None => Ok(BatchSize::default()),
    }
}

/// Parses `--pipeline` (defaults to no overlap).
fn pipeline_flag(v: Option<&str>) -> Result<PipelineDepth, CliError> {
    match v {
        Some(v) => v.parse::<PipelineDepth>().map_err(|_| {
            CliError::Usage(format!("--pipeline expects a window >= 1 or auto, got '{v}'"))
        }),
        None => Ok(PipelineDepth::default()),
    }
}

/// Parses `--wire` (defaults to `columnar`: the CLI always prefers the
/// compact layout; the library default stays `legacy` for byte-pinned
/// compatibility tests).
fn wire_flag(v: Option<&str>) -> Result<WireFormat, CliError> {
    match v {
        Some(v) => v
            .parse::<WireFormat>()
            .map_err(|_| CliError::Usage(format!("--wire expects legacy|columnar, got '{v}'"))),
        None => Ok(WireFormat::Columnar),
    }
}

/// Parses `--plan` (defaults to `sketch`: the CLI always prefers the
/// round planner, which sizes `--batch auto` rounds from the exact
/// candidate counts on the Start replies and runs only there; the
/// library default stays `static` for frame-count-pinned compatibility
/// tests).
fn plan_flag(v: Option<&str>) -> Result<PlanMode, CliError> {
    match v {
        Some(v) => v
            .parse::<PlanMode>()
            .map_err(|_| CliError::Usage(format!("--plan expects sketch|static, got '{v}'"))),
        None => Ok(PlanMode::Sketch),
    }
}

/// Parses `--topology` (defaults to `flat`). Nonsensical fan-outs fail
/// here, before any data is loaded: `tree:1` would merge nothing and
/// `tree:0` would fan out to nobody, so both are usage errors.
fn topology_flag(v: Option<&str>) -> Result<Topology, CliError> {
    match v {
        Some(v) => v.parse::<Topology>().map_err(|_| {
            CliError::Usage(format!(
                "--topology expects flat|tree:<fanout>=2|auto (tree:1 merges nothing), got '{v}'"
            ))
        }),
        None => Ok(Topology::Flat),
    }
}

/// Parses `--subspace 0,2,...` into dimension indices.
fn subspace_flag(v: Option<&str>) -> Result<Option<Vec<usize>>, CliError> {
    match v {
        Some(spec) => {
            let dims: Result<Vec<usize>, _> =
                spec.split(',').map(str::trim).map(str::parse).collect();
            Ok(Some(dims.map_err(|_| {
                CliError::Usage(format!("--subspace expects indices like 0,2 — got '{spec}'"))
            })?))
        }
        None => Ok(None),
    }
}

/// Splits `--key value` pairs into a map. A flag followed by another flag
/// (or by nothing) is a bare boolean and stores `"true"` — `--shutdown`
/// and `--shutdown true` parse identically.
fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, CliError> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let Some(key) = args[i].strip_prefix("--") else {
            return Err(CliError::Usage(format!("expected a --flag, got '{}'", args[i])));
        };
        let value = match args.get(i + 1) {
            Some(v) if !v.starts_with("--") => {
                i += 2;
                v.clone()
            }
            _ => {
                i += 1;
                "true".to_string()
            }
        };
        flags.insert(key.to_string(), value);
    }
    Ok(flags)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_generate() {
        let cmd = parse(&argv(
            "generate --n 100 --dims 3 --dist anticorrelated --seed 7 --out data.jsonl",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Generate {
                n: 100,
                dims: 3,
                dist: Distribution::Anticorrelated,
                gaussian_mean: None,
                seed: 7,
                out: Some(PathBuf::from("data.jsonl")),
            }
        );
    }

    #[test]
    fn parses_query_with_subspace_and_limit() {
        let cmd = parse(&argv(
            "query --input d.jsonl --sites 4 --q 0.5 --algorithm dsud --subspace 0,2 --limit 5",
        ))
        .unwrap();
        let Command::Query { sites, algorithm, config, .. } = cmd else { panic!() };
        assert_eq!(sites, 4);
        assert_eq!(config.q, 0.5);
        assert_eq!(algorithm, Algorithm::Dsud);
        assert_eq!(config.mask, Some(SubspaceMask::from_dims(&[0, 2]).unwrap()));
        assert_eq!(config.limit, Some(5));
    }

    #[test]
    fn defaults_are_sensible() {
        let Command::Query { sites, algorithm, seed, report, transport, topology, config, .. } =
            parse(&argv("query --input d.jsonl")).unwrap()
        else {
            panic!()
        };
        assert_eq!((sites, config.q, algorithm), (8, 0.3, Algorithm::Edsud));
        assert_eq!((config.mask, config.limit, seed), (None, None, 0));
        assert_eq!(report, None);
        assert_eq!(transport, Transport::Inline);
        assert_eq!(config.failure, FailurePolicy::Strict);
        assert_eq!(config.batch, BatchSize::Fixed(1));
        assert_eq!(config.pipeline, PipelineDepth::Fixed(1));
        assert_eq!(config.wire, WireFormat::Columnar);
        assert_eq!(topology, Topology::Flat);
        assert_eq!(config.plan, PlanMode::Sketch);
        assert_eq!(config.deadline_ms, None);

        // The daemon parses the same settings with the same defaults into
        // its template config.
        let Command::Serve { config: served, .. } = parse(&argv("serve --input d.jsonl")).unwrap()
        else {
            panic!()
        };
        assert_eq!(served, config);
    }

    #[test]
    fn parses_topologies_and_rejects_mergeless_trees() {
        for (flag, expected) in [
            ("flat", Topology::Flat),
            ("tree:2", Topology::Tree(2)),
            ("tree:8", Topology::Tree(8)),
            ("auto", Topology::Auto),
        ] {
            let Command::Query { topology, .. } =
                parse(&argv(&format!("query --input d.jsonl --topology {flag}"))).unwrap()
            else {
                panic!()
            };
            assert_eq!(topology, expected, "{flag}");
        }
        let Command::Serve { topology, .. } =
            parse(&argv("serve --input d.jsonl --topology tree:4")).unwrap()
        else {
            panic!()
        };
        assert_eq!(topology, Topology::Tree(4));

        // A fan-out below 2 merges nothing: rejected before data loads,
        // on both the one-shot and the served path.
        for bad in ["tree:1", "tree:0", "tree:", "star"] {
            assert!(parse(&argv(&format!("query --input d.jsonl --topology {bad}"))).is_err());
            assert!(parse(&argv(&format!("serve --input d.jsonl --topology {bad}"))).is_err());
        }
    }

    #[test]
    fn parses_wire_formats() {
        for (flag, expected) in [("legacy", WireFormat::Legacy), ("columnar", WireFormat::Columnar)]
        {
            let Command::Query { config, .. } =
                parse(&argv(&format!("query --input d.jsonl --wire {flag}"))).unwrap()
            else {
                panic!()
            };
            assert_eq!(config.wire, expected);
        }
        let Command::Serve { config, .. } =
            parse(&argv("serve --input d.jsonl --wire legacy")).unwrap()
        else {
            panic!()
        };
        assert_eq!(config.wire, WireFormat::Legacy);
        assert!(parse(&argv("query --input d.jsonl --wire carrier-pigeon")).is_err());
    }

    #[test]
    fn parses_plan_modes() {
        for (flag, expected) in [("sketch", PlanMode::Sketch), ("static", PlanMode::Static)] {
            let Command::Query { config, .. } =
                parse(&argv(&format!("query --input d.jsonl --plan {flag}"))).unwrap()
            else {
                panic!()
            };
            assert_eq!(config.plan, expected);
        }
        let Command::Serve { config, .. } =
            parse(&argv("serve --input d.jsonl --plan static")).unwrap()
        else {
            panic!()
        };
        assert_eq!(config.plan, PlanMode::Static);
        assert!(parse(&argv("query --input d.jsonl --plan crystal-ball")).is_err());
    }

    #[test]
    fn parses_pipeline_depths() {
        for (flag, expected) in [("8", PipelineDepth::Fixed(8)), ("auto", PipelineDepth::Auto)] {
            let Command::Query { config, .. } =
                parse(&argv(&format!("query --input d.jsonl --pipeline {flag}"))).unwrap()
            else {
                panic!()
            };
            assert_eq!(config.pipeline, expected);
        }
        assert!(parse(&argv("query --input d.jsonl --pipeline 0")).is_err());
        assert!(parse(&argv("query --input d.jsonl --pipeline deep")).is_err());
    }

    #[test]
    fn parses_batch_sizes() {
        for (flag, expected) in [("16", BatchSize::Fixed(16)), ("auto", BatchSize::Auto)] {
            let Command::Query { config, .. } =
                parse(&argv(&format!("query --input d.jsonl --batch {flag}"))).unwrap()
            else {
                panic!()
            };
            assert_eq!(config.batch, expected);
        }
        assert!(parse(&argv("query --input d.jsonl --batch 0")).is_err());
        assert!(parse(&argv("query --input d.jsonl --batch many")).is_err());
    }

    #[test]
    fn parses_failure_policy() {
        for (flag, expected) in
            [("strict", FailurePolicy::Strict), ("degrade", FailurePolicy::Degrade)]
        {
            let Command::Query { config, .. } =
                parse(&argv(&format!("query --input d.jsonl --failure {flag}"))).unwrap()
            else {
                panic!()
            };
            assert_eq!(config.failure, expected);
        }
        assert!(parse(&argv("query --input d.jsonl --failure lenient")).is_err());
    }

    #[test]
    fn parses_transport() {
        for (flag, expected) in [
            ("inline", Transport::Inline),
            ("threaded", Transport::Threaded),
            ("tcp", Transport::Tcp),
        ] {
            let Command::Query { transport, .. } =
                parse(&argv(&format!("query --input d.jsonl --transport {flag}"))).unwrap()
            else {
                panic!()
            };
            assert_eq!(transport, expected);
        }
        assert!(parse(&argv("query --input d.jsonl --transport smoke-signal")).is_err());
    }

    #[test]
    fn parses_report_path() {
        let Command::Query { report, .. } =
            parse(&argv("query --input d.jsonl --report run.json")).unwrap()
        else {
            panic!()
        };
        assert_eq!(report, Some(PathBuf::from("run.json")));
    }

    #[test]
    fn parses_serve_with_defaults_and_overrides() {
        let Command::Serve {
            sites, port, transport, max_concurrent, cache, heartbeat, op_log, ..
        } = parse(&argv("serve --input d.jsonl")).unwrap()
        else {
            panic!()
        };
        assert_eq!((sites, port), (8, 0));
        assert_eq!(transport, Transport::Inline);
        assert_eq!((max_concurrent, cache), (8, 64));
        assert_eq!((heartbeat, op_log), (0, 1024), "health sweep off, one-k op log by default");

        let Command::Serve {
            port,
            transport,
            max_concurrent,
            cache,
            config,
            heartbeat,
            op_log,
            ..
        } = parse(&argv(
            "serve --input d.jsonl --port 7878 --transport tcp --max-concurrent 4 --cache 0 \
                 --batch auto --heartbeat 1 --op-log 32",
        ))
        .unwrap()
        else {
            panic!()
        };
        assert_eq!(port, 7878);
        assert_eq!(transport, Transport::Tcp);
        assert_eq!((max_concurrent, cache), (4, 0));
        assert_eq!(config.batch, BatchSize::Auto);
        assert_eq!((heartbeat, op_log), (1, 32));

        assert!(parse(&argv("serve")).is_err()); // missing --input
        assert!(parse(&argv("serve --input d.jsonl --max-concurrent 0")).is_err());
        assert!(parse(&argv("serve --input d.jsonl --port 70000")).is_err());
    }

    #[test]
    fn parses_client_query_and_bare_shutdown() {
        let Command::Client { addr, algorithm, q, subspace, limit, deadline, shutdown, .. } =
            parse(&argv("client --addr 127.0.0.1:7878 --q 0.5 --subspace 0,1 --limit 3")).unwrap()
        else {
            panic!()
        };
        assert_eq!(addr, "127.0.0.1:7878");
        assert_eq!(algorithm, Algorithm::Edsud);
        assert_eq!(q, 0.5);
        assert_eq!(subspace, Some(vec![0, 1]));
        assert_eq!(limit, Some(3));
        assert_eq!(deadline, None);
        assert!(!shutdown);

        let Command::Client { deadline, .. } =
            parse(&argv("client --addr 127.0.0.1:7878 --deadline 250")).unwrap()
        else {
            panic!()
        };
        assert_eq!(deadline, Some(250));
        assert!(parse(&argv("client --addr a --deadline soon")).is_err());

        // --shutdown works bare (last flag) and before another flag.
        for line in
            ["client --addr 127.0.0.1:7878 --shutdown", "client --shutdown --addr 127.0.0.1:7878"]
        {
            let Command::Client { shutdown, .. } = parse(&argv(line)).unwrap() else { panic!() };
            assert!(shutdown, "{line}");
        }

        assert!(parse(&argv("client")).is_err()); // missing --addr
        assert!(parse(&argv("client --addr a --algorithm baseline")).is_err());
        assert!(parse(&argv("client --addr a --shutdown maybe")).is_err());
    }

    #[test]
    fn parses_stream() {
        let Command::Stream { q, window, every, .. } =
            parse(&argv("stream --input d.jsonl --q 0.5 --window 200 --every 50")).unwrap()
        else {
            panic!()
        };
        assert_eq!((q, window, every), (0.5, 200, 50));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse(&argv("generate")).is_err()); // missing --n
        assert!(parse(&argv("generate --n ten")).is_err());
        assert!(parse(&argv("query")).is_err()); // missing --input
        assert!(parse(&argv("query --input f --algorithm magic")).is_err());
        assert!(parse(&argv("query --input f --subspace a,b")).is_err());
        assert!(parse(&argv("query --input f --q 1.5")).is_err()); // threshold outside (0, 1]
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("generate --n")).is_err()); // dangling flag
        assert!(parse(&argv("generate n 5")).is_err()); // not a flag
    }

    #[test]
    fn empty_and_help_yield_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("--help")).unwrap(), Command::Help);
    }
}
