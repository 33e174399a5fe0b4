//! End-to-end CLI tests: generate → query / vertical round trips through
//! the JSONL data format, driven through the library API the binary wraps.

use std::fs;
use std::path::PathBuf;

use dsud_cli::protocol::Response;
use dsud_cli::{parse, run, Command};

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(String::from).collect()
}

fn run_to_string(cmd: &Command) -> String {
    let mut buf = Vec::new();
    run(cmd, &mut buf).expect("command succeeds");
    String::from_utf8(buf).expect("output is UTF-8")
}

fn temp_file(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("dsud-cli-it");
    fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn generate_then_query_roundtrip() {
    let path = temp_file("roundtrip.jsonl");
    let gen = parse(&argv(&format!(
        "generate --n 500 --dims 2 --dist anticorrelated --seed 3 --out {}",
        path.display()
    )))
    .unwrap();
    let msg = run_to_string(&gen);
    assert!(msg.contains("wrote 500 tuples"));
    assert_eq!(fs::read_to_string(&path).unwrap().lines().count(), 500);

    let query = parse(&argv(&format!(
        "query --input {} --sites 5 --q 0.3 --algorithm edsud",
        path.display()
    )))
    .unwrap();
    let report = run_to_string(&query);
    assert!(report.contains("qualified tuples"));
    assert!(report.contains("tuples transmitted"));
    assert!(report.contains("P_gsky="));
}

#[test]
fn all_algorithms_agree_on_the_same_file() {
    let path = temp_file("agree.jsonl");
    let gen = parse(&argv(&format!(
        "generate --n 400 --dims 2 --dist independent --seed 4 --out {}",
        path.display()
    )))
    .unwrap();
    run_to_string(&gen);

    let count = |algo: &str| -> usize {
        let cmd = parse(&argv(&format!(
            "query --input {} --sites 4 --q 0.3 --algorithm {algo} --seed 9",
            path.display()
        )))
        .unwrap();
        let report = run_to_string(&cmd);
        report.lines().next().unwrap().split_whitespace().next().unwrap().parse().unwrap()
    };
    let (d, e, b) = (count("dsud"), count("edsud"), count("baseline"));
    assert_eq!(d, e);
    assert_eq!(e, b);
    assert!(d > 0);
}

#[test]
fn vertical_command_matches_horizontal() {
    let path = temp_file("vertical.jsonl");
    run_to_string(
        &parse(&argv(&format!(
            "generate --n 300 --dims 3 --dist independent --seed 5 --out {}",
            path.display()
        )))
        .unwrap(),
    );
    let horizontal = run_to_string(
        &parse(&argv(&format!(
            "query --input {} --sites 3 --q 0.3 --algorithm baseline",
            path.display()
        )))
        .unwrap(),
    );
    let vertical = run_to_string(
        &parse(&argv(&format!("vertical --input {} --q 0.3", path.display()))).unwrap(),
    );
    let first_number = |s: &str| -> usize { s.split_whitespace().next().unwrap().parse().unwrap() };
    assert_eq!(
        first_number(&horizontal),
        first_number(&vertical),
        "horizontal: {horizontal}\nvertical: {vertical}"
    );
    assert!(vertical.contains("accesses:"));
}

#[test]
fn subspace_and_limit_flags_work() {
    let path = temp_file("flags.jsonl");
    run_to_string(
        &parse(&argv(&format!(
            "generate --n 600 --dims 3 --dist anticorrelated --seed 6 --out {}",
            path.display()
        )))
        .unwrap(),
    );
    let limited = run_to_string(
        &parse(&argv(&format!("query --input {} --sites 4 --q 0.3 --limit 2", path.display())))
            .unwrap(),
    );
    assert!(limited.starts_with("2 qualified"));

    let sub = run_to_string(
        &parse(&argv(&format!(
            "query --input {} --sites 4 --q 0.3 --subspace 0,1",
            path.display()
        )))
        .unwrap(),
    );
    assert!(sub.contains("qualified tuples"));
}

#[test]
fn nyse_generation_and_gaussian_probabilities() {
    let path = temp_file("nyse.jsonl");
    let gen = parse(&argv(&format!(
        "generate --n 200 --dist nyse --gaussian 0.5 --seed 7 --out {}",
        path.display()
    )))
    .unwrap();
    run_to_string(&gen);
    let report = run_to_string(
        &parse(&argv(&format!("query --input {} --sites 4", path.display()))).unwrap(),
    );
    assert!(report.contains("qualified tuples"));
}

#[test]
fn help_prints_usage() {
    let help = run_to_string(&Command::Help);
    assert!(help.contains("USAGE"));
    assert!(help.contains("generate"));
}

#[test]
fn query_on_missing_file_fails_cleanly() {
    let cmd = parse(&argv("query --input /nonexistent/nope.jsonl")).unwrap();
    let mut buf = Vec::new();
    assert!(run(&cmd, &mut buf).is_err());
}

#[test]
fn stream_command_reports_checkpoints() {
    let path = temp_file("stream.jsonl");
    run_to_string(
        &parse(&argv(&format!(
            "generate --n 600 --dims 2 --dist independent --seed 8 --out {}",
            path.display()
        )))
        .unwrap(),
    );
    let report = run_to_string(
        &parse(&argv(&format!(
            "stream --input {} --q 0.3 --window 100 --every 200",
            path.display()
        )))
        .unwrap(),
    );
    assert!(report.contains("after"));
    assert!(report.contains("final:"));
    assert!(report.contains("expirations"));
}

/// A running `dsud serve` child process, killed if a test fails early.
struct Daemon(std::process::Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Sends one line and reads one reply line.
fn exchange(conn: &mut std::io::BufReader<std::net::TcpStream>, line: &str) -> Response {
    use std::io::{BufRead, Write};
    writeln!(conn.get_mut(), "{line}").unwrap();
    let mut reply = String::new();
    conn.read_line(&mut reply).unwrap();
    serde_json::from_str(&reply).unwrap()
}

/// Hostile client lines against a live `dsud serve --transport inline`:
/// a 20,000-deep line is answered `error` on a connection that stays
/// usable, and a line past the server's line cap is answered `error` and
/// closed — while the daemon keeps serving queries from other clients.
#[test]
fn malformed_client_lines_get_an_error_and_the_daemon_keeps_serving() {
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpStream;

    let path = temp_file("serve-malformed.jsonl");
    run_to_string(
        &parse(&argv(&format!(
            "generate --n 400 --dims 2 --dist independent --seed 5 --out {}",
            path.display()
        )))
        .unwrap(),
    );
    let child = std::process::Command::new(env!("CARGO_BIN_EXE_dsud"))
        .args(["serve", "--input", &path.display().to_string(), "--sites", "3"])
        .args(["--port", "0", "--transport", "inline"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut daemon = Daemon(child);
    let mut stdout = BufReader::new(daemon.0.stdout.take().unwrap());
    let mut banner = String::new();
    stdout.read_line(&mut banner).unwrap();
    let addr = banner
        .strip_prefix("dsud serve listening on ")
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
        .to_string();
    let connect = || BufReader::new(TcpStream::connect(&addr).unwrap());
    let query = r#"{"query":{"algorithm":"edsud","q":0.3}}"#;

    let mut first = connect();
    let deep = exchange(&mut first, &"[".repeat(20_000));
    assert!(deep.error.unwrap().contains("nesting deeper than"));
    assert!(exchange(&mut first, query).result.is_some(), "the connection stays usable");

    // One byte past the cap and no newline: one `error`, then EOF.
    let mut long = TcpStream::connect(&addr).unwrap();
    long.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
    long.write_all(&vec![b' '; dsud_net::MAX_REQUEST_LINE + 1]).unwrap();
    let mut reply = String::new();
    long.read_to_string(&mut reply).unwrap();
    assert_eq!(reply.lines().count(), 1, "{reply}");
    let refused: Response = serde_json::from_str(&reply).unwrap();
    assert!(refused.error.unwrap().contains("request line longer than"));

    let mut second = connect();
    let mut lines = 0;
    writeln!(second.get_mut(), "{query}").unwrap();
    loop {
        let mut line = String::new();
        second.read_line(&mut line).unwrap();
        lines += 1;
        let response: Response = serde_json::from_str(&line).unwrap();
        assert!(response.error.is_none(), "{line}");
        if response.done.is_some() {
            break;
        }
    }
    assert!(lines > 1, "results stream before the done line");

    assert!(exchange(&mut second, r#"{"shutdown":true}"#).bye);
    let mut farewell = String::new();
    stdout.read_to_string(&mut farewell).unwrap();
    assert!(farewell.starts_with("dsud serve stopped: 2 queries"), "{farewell}");
    assert!(daemon.0.wait().unwrap().success());
}
