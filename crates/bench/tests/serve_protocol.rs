//! Protocol round-trips against the real `bsor-serve` transports: the
//! compiled binary over stdin/stdout (good, bad and malformed requests
//! on one stream; byte-identical replays under `--no-timings`) and the
//! TCP listener with concurrent clients sharing one plan cache.

use bsor_bench::json::Json;
use bsor_bench::serve::{serve_tcp, PlanService, ServeConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Command, Stdio};
use std::sync::Arc;

/// The scripted session CI replays: every op, plus every failure mode.
const SCRIPT: &str = concat!(
    r#"{"id":1,"op":"plan","workload":"transpose","algorithm":"xy","width":4,"height":4}"#,
    "\n",
    r#"{"id":1,"op":"plan","workload":"transpose","algorithm":"xy","width":4,"height":4}"#,
    "\n",
    r#"{"id":3,"op":"evaluate","workload":"transpose","algorithm":"xy","width":4,"height":4,"rate":0.1}"#,
    "\n",
    r#"{"id":4,"op":"evaluate","workload":"transpose","algorithm":"xy","width":4,"height":4,"rate":0.2,"backend":"sim","warmup":100,"measurement":400}"#,
    "\n",
    r#"{"id":5,"op":"invalidate","links":[[0,1]]}"#,
    "\n",
    r#"{"id":6,"op":"plan","workload":"nope","algorithm":"xy"}"#,
    "\n",
    r#"{"id":7,"op":"warp"}"#,
    "\n",
    "this is not json\n",
    r#"{"id":9,"op":"plan","workload":"transpose","algorithm":"xy","width":4,"height":4,"vcs":0}"#,
    "\n",
    r#"{"id":10,"op":"plan","workload":"transpose","algorithm":"xy","width":4,"height":4,"vcs":9}"#,
    "\n",
    r#"{"id":11,"op":"evaluate","workload":"transpose","algorithm":"xy","width":4,"height":4,"rate":0.2,"backend":"sim","packet_len":0}"#,
    "\n",
    r#"{"id":12,"op":"evaluate","workload":"transpose","algorithm":"xy","width":4,"height":4,"rate":-1,"backend":"sim"}"#,
    "\n",
    r#"{"id":13,"op":"evaluate","workload":"transpose","algorithm":"xy","width":4,"height":4,"rate":-1,"backend":"static"}"#,
    "\n",
    r#"{"id":14,"op":"stats"}"#,
    "\n",
);

fn run_binary(input: &str) -> Vec<String> {
    let output = Command::new(env!("CARGO_BIN_EXE_bsor-serve"))
        .arg("--no-timings")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .and_then(|mut child| {
            child
                .stdin
                .take()
                .expect("piped stdin")
                .write_all(input.as_bytes())?;
            child.wait_with_output()
        })
        .expect("bsor-serve runs");
    assert!(output.status.success(), "clean EOF exits 0");
    String::from_utf8(output.stdout)
        .expect("utf8 responses")
        .lines()
        .map(str::to_owned)
        .collect()
}

#[test]
fn binary_answers_good_bad_and_malformed_requests_deterministically() {
    let first = run_binary(SCRIPT);
    assert_eq!(first.len(), 14, "one response line per request line");
    let parsed: Vec<Json> = first
        .iter()
        .map(|line| Json::parse(line).expect("every response is valid JSON"))
        .collect();
    let ok = |i: usize| parsed[i].get("ok") == Some(&Json::Bool(true));
    let code = |i: usize| {
        parsed[i]
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str)
            .expect("failed responses carry a code")
    };
    assert!(ok(0) && ok(1) && ok(2) && ok(3) && ok(4) && ok(13));
    assert_eq!(first[0], first[1], "the cache hit answers byte-identically");
    assert_eq!(code(5), "unknown-workload");
    assert_eq!(code(6), "unknown-op");
    assert_eq!(code(7), "bad-json");
    // Out-of-range fields the builders would assert on answer typed,
    // and the process keeps serving (the stats line after them).
    assert_eq!(code(8), "bad-request", "vcs 0");
    assert_eq!(code(9), "bad-request", "vcs 9");
    assert_eq!(code(10), "bad-request", "packet_len 0");
    // A negative rate would panic the engine and echo as a negative
    // throughput from the static backend: both answer typed, unplanned.
    assert_eq!(code(11), "bad-request", "negative rate, sim backend");
    assert_eq!(code(12), "bad-request", "negative rate, static backend");
    let stats = parsed[13].get("result").expect("stats result");
    assert_eq!(
        stats.get("solves").and_then(Json::as_u64),
        Some(1),
        "one unique key planned, later requests hit or were invalidated"
    );
    // The determinism contract: same request stream, byte-identical
    // response stream.
    assert_eq!(first, run_binary(SCRIPT));
}

#[test]
fn file_loaded_topology_plans_evaluates_and_invalidates() {
    let spec = concat!(
        "file:",
        env!("CARGO_MANIFEST_DIR"),
        "/../../assets/topologies/wan5.topo"
    );
    let plan = format!(
        r#"{{"id":1,"op":"plan","topology":"{spec}","workload":"uniform-random","algorithm":"bsor-dijkstra","vcs":1}}"#
    );
    let script = format!(
        concat!(
            "{plan}\n",
            "{plan}\n",
            r#"{{"id":3,"op":"evaluate","topology":"{spec}","workload":"uniform-random","algorithm":"bsor-dijkstra","vcs":1,"rate":0.1}}"#,
            "\n",
            r#"{{"id":4,"op":"invalidate","links":[[0,1]]}}"#,
            "\n",
            "{plan}\n",
            r#"{{"id":6,"op":"plan","topology":"file:assets/topologies/missing.topo","workload":"uniform-random","algorithm":"bsor-dijkstra"}}"#,
            "\n",
            r#"{{"id":7,"op":"stats"}}"#,
            "\n",
        ),
        plan = plan,
        spec = spec,
    );
    let first = run_binary(&script);
    assert_eq!(first.len(), 7, "one response line per request line");
    let parsed: Vec<Json> = first
        .iter()
        .map(|line| Json::parse(line).expect("every response is valid JSON"))
        .collect();
    let ok = |i: usize| parsed[i].get("ok") == Some(&Json::Bool(true));
    assert!(ok(0) && ok(1) && ok(2) && ok(3) && ok(4) && ok(6));
    assert_eq!(first[0], first[1], "the cache hit answers byte-identically");
    assert!(
        !ok(5),
        "a missing topology file is a typed per-request error"
    );
    assert_eq!(
        parsed[5]
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("bad-request")
    );
    let stats = parsed[6].get("result").expect("stats result");
    assert_eq!(
        stats.get("solves").and_then(Json::as_u64),
        Some(2),
        "the invalidate forced exactly one re-solve of the file topology"
    );
    // Same stream, byte-identical responses — file-loaded topologies keep
    // the determinism contract.
    assert_eq!(first, run_binary(&script));
}

#[test]
fn invalidate_rejects_out_of_range_node_ids() {
    const SCRIPT: &str = concat!(
        // Over u32 — rejected even before anything is cached.
        r#"{"id":1,"op":"invalidate","links":[[0,4294967296]]}"#,
        "\n",
        // Cache a 4x4 plan (16 nodes, ids 0..=15)...
        r#"{"id":2,"op":"plan","workload":"transpose","algorithm":"xy","width":4,"height":4}"#,
        "\n",
        // ...so id 16 can't name a real link: typed error, not a no-op.
        r#"{"id":3,"op":"invalidate","links":[[0,16]]}"#,
        "\n",
        r#"{"id":4,"op":"invalidate","links":[[0,15]]}"#,
        "\n",
    );
    let lines = run_binary(SCRIPT);
    assert_eq!(lines.len(), 4, "one response line per request line");
    let parsed: Vec<Json> = lines
        .iter()
        .map(|line| Json::parse(line).expect("every response is valid JSON"))
        .collect();
    let error = |i: usize| {
        assert_eq!(
            parsed[i].get("ok"),
            Some(&Json::Bool(false)),
            "{}",
            lines[i]
        );
        let error = parsed[i]
            .get("error")
            .expect("failed responses carry an error");
        (
            error.get("code").and_then(Json::as_str).expect("code"),
            error
                .get("message")
                .and_then(Json::as_str)
                .expect("message"),
        )
    };
    let (code, message) = error(0);
    assert_eq!(code, "bad-request");
    assert!(
        message.contains("[0, 4294967296]"),
        "the error names the offending pair: {message}"
    );
    assert_eq!(parsed[1].get("ok"), Some(&Json::Bool(true)));
    let (code, message) = error(2);
    assert_eq!(code, "bad-request");
    assert!(
        message.contains("[0, 16]"),
        "the error names the offending pair: {message}"
    );
    assert!(
        message.contains("16 nodes"),
        "the error states the bound: {message}"
    );
    assert_eq!(
        parsed[3].get("ok"),
        Some(&Json::Bool(true)),
        "in-range ids still invalidate"
    );
}

#[test]
fn tcp_clients_share_one_plan_cache() {
    let service = Arc::new(PlanService::new(ServeConfig {
        timings: false,
        ..ServeConfig::default()
    }));
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral port");
    let addr = listener.local_addr().expect("bound");
    {
        let service = service.clone();
        std::thread::spawn(move || {
            let _ = serve_tcp(service, listener);
        });
    }
    let request =
        r#"{"id":"c","op":"plan","workload":"neighbor","algorithm":"yx","width":4,"height":4}"#;
    let mut replies = Vec::new();
    for _ in 0..2 {
        let mut stream = TcpStream::connect(addr).expect("connects");
        writeln!(stream, "{request}").expect("writes");
        let mut line = String::new();
        BufReader::new(&stream)
            .read_line(&mut line)
            .expect("one response line");
        replies.push(line.trim().to_owned());
    }
    assert_eq!(replies[0], replies[1], "both clients get the cached plan");
    let parsed = Json::parse(&replies[0]).expect("valid response");
    assert_eq!(parsed.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(
        service.cache().stats().solves,
        1,
        "the second connection was a cache hit"
    );
    assert_eq!(service.requests(), 2);
}
