//! Integration tests of `cinderella serve`: the NDJSON protocol over stdin
//! and a unix socket, and — the reason the store exists — SIGKILL mid-batch
//! losing nothing that was already acknowledged.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};

fn scratch(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir()
        .join(format!("cinderella-serve-test-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn spawn_serve(extra: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_cinderella"))
        .arg("serve")
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("serve spawns")
}

/// Reads response lines for one request until its `done` line, returning
/// (per-set lines, done line).
fn read_response(reader: &mut impl BufRead) -> (Vec<ipet_trace::Json>, ipet_trace::Json) {
    let mut sets = Vec::new();
    loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("read response line");
        assert!(n > 0, "stream ended before a done line");
        let v = ipet_trace::parse_json(line.trim()).expect("response line is JSON");
        if v.get("done").is_some() {
            return (sets, v);
        }
        sets.push(v);
    }
}

fn status_of(done: &ipet_trace::Json) -> u64 {
    done.get("status").and_then(ipet_trace::Json::as_u64).expect("status field")
}

fn analyze_with_store(target: &str, store: &str) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_cinderella"))
        .args(["analyze", target, "--store", store])
        .output()
        .expect("binary runs");
    (out.status.code().expect("exit code"), String::from_utf8_lossy(&out.stdout).into_owned())
}

fn store_line(s: &str) -> String {
    s.lines().find(|l| l.starts_with("store:")).expect("store summary line").to_string()
}

/// A serve request has no shared-context field, so the answer to a call
/// chain past the label cap states the error and suggests no flag.
#[test]
fn an_over_cap_call_chain_answers_status_1_without_naming_a_flag() {
    // 260 functions of 200-character names: about 7 MB of call-string
    // labels, past the 4 MiB cap.
    let names: Vec<String> = (0..260).map(|i| format!("f{i}_{}", "x".repeat(200))).collect();
    let mut src = String::new();
    for (i, name) in names.iter().enumerate() {
        let body = names.get(i + 1).map_or("1".to_string(), |next| format!("{next}()"));
        src.push_str(&format!("int {name}() {{ return {body}; }}\n"));
    }
    src.push_str(&format!("int main() {{ return {}(); }}\n", names[0]));
    let path = scratch("chain").join("calls.mc");
    std::fs::write(&path, src).unwrap();

    let mut child = spawn_serve(&[]);
    let mut stdin = child.stdin.take().unwrap();
    let mut reader = BufReader::new(child.stdout.take().unwrap());
    let request = ipet_trace::Json::Obj(vec![
        ("id".into(), ipet_trace::Json::Num(1.0)),
        ("target".into(), ipet_trace::Json::Str(path.display().to_string())),
    ]);
    writeln!(stdin, "{}", request.render()).unwrap();
    let (_, done) = read_response(&mut reader);
    assert_eq!(status_of(&done), 1);
    let error = done.get("error").and_then(ipet_trace::Json::as_str).expect("an error message");
    assert!(error.contains("call-string labels"), "{error}");
    assert!(!error.contains("--"), "the answer names a flag: {error}");
    drop(stdin);
    assert!(child.wait().unwrap().success());
}

#[test]
fn stdin_protocol_streams_sets_then_done_and_survives_bad_requests() {
    let mut child = spawn_serve(&[]);
    let mut stdin = child.stdin.take().unwrap();
    let mut reader = BufReader::new(child.stdout.take().unwrap());

    writeln!(stdin, r#"{{"id": 1, "target": "piksrt"}}"#).unwrap();
    let (sets, done) = read_response(&mut reader);
    assert!(!sets.is_empty(), "at least one per-set line");
    assert_eq!(sets[0].get("id").and_then(ipet_trace::Json::as_u64), Some(1));
    assert!(sets[0].get("wcet").and_then(ipet_trace::Json::as_u64).is_some());
    assert_eq!(status_of(&done), 0);
    assert_eq!(done.get("target").and_then(ipet_trace::Json::as_str), Some("piksrt"));
    let bound = done.get("bound").and_then(ipet_trace::Json::as_arr).expect("bound array");
    assert_eq!(bound.len(), 2);

    // Garbage and unknown targets produce status-1 lines, not a dead daemon.
    writeln!(stdin, "this is not json").unwrap();
    let (_, err) = read_response(&mut reader);
    assert_eq!(status_of(&err), 1);
    assert!(err.get("error").is_some());

    writeln!(stdin, r#"{{"id": 2, "target": "nosuchbench"}}"#).unwrap();
    let (_, err) = read_response(&mut reader);
    assert_eq!(status_of(&err), 1);

    // A zero tick deadline degrades that request only (status 2). The
    // target must be one this daemon has not solved yet: replays from the
    // live cache cost no ticks and stay exact.
    writeln!(stdin, r#"{{"id": 3, "target": "des", "deadline": 0}}"#).unwrap();
    let (_, done) = read_response(&mut reader);
    assert_eq!(status_of(&done), 2);

    // … and the daemon still answers the next request exactly.
    writeln!(stdin, r#"{{"id": 4, "target": "check_data", "audit": true}}"#).unwrap();
    let (_, done) = read_response(&mut reader);
    assert_eq!(status_of(&done), 0);

    drop(stdin); // EOF shuts the daemon down cleanly
    let status = child.wait().unwrap();
    assert_eq!(status.code(), Some(0));
}

#[test]
fn deeply_nested_request_lines_get_an_error_not_an_abort() {
    // Each line is about 100 KB, under the line cap: 50,000 nested JSON
    // arrays, and 50,000 nested groups in a request's annotation text.
    // Parsed without a depth limit, either overflowed the stack and killed
    // the daemon. Each gets a status-1 line, and the daemon answers on.
    let deep_annotation =
        format!("fn check_data {{ {}x1 = 0{}; }}", "(".repeat(50_000), ")".repeat(50_000));
    let cases = [
        (format!("{}{}", "[".repeat(50_000), "]".repeat(50_000)), "bad request"),
        (
            format!(r#"{{"id": 1, "target": "check_data", "annotations": "{deep_annotation}"}}"#),
            "nested more than 100",
        ),
        // An annotation error names the line within the request's own
        // text, not within the target's annotations it is appended to.
        (
            r#"{"id": 1, "target": "check_data", "annotations": "fn check_data {\n  x1 <= ;\n}"}"#
                .to_string(),
            "request annotations: annotation parse error at line 2:",
        ),
    ];
    let mut child = spawn_serve(&[]);
    let mut stdin = child.stdin.take().unwrap();
    let mut reader = BufReader::new(child.stdout.take().unwrap());
    for (line, expected) in &cases {
        writeln!(stdin, "{line}").unwrap();
        let (sets, err) = read_response(&mut reader);
        assert!(sets.is_empty());
        assert_eq!(status_of(&err), 1);
        let message = err.get("error").and_then(ipet_trace::Json::as_str).expect("error text");
        assert!(message.contains(expected), "{message}");

        writeln!(stdin, r#"{{"id": 2, "target": "piksrt"}}"#).unwrap();
        let (_, done) = read_response(&mut reader);
        assert_eq!(status_of(&done), 0);
        assert_eq!(done.get("target").and_then(ipet_trace::Json::as_str), Some("piksrt"));
    }
    drop(stdin);
    assert_eq!(child.wait().unwrap().code(), Some(0));
}

#[test]
fn infer_requests_carry_outcome_counts_and_match_annotated_bounds() {
    let mut child = spawn_serve(&[]);
    let mut stdin = child.stdin.take().unwrap();
    let mut reader = BufReader::new(child.stdout.take().unwrap());

    // Annotated baseline for matgen.
    writeln!(stdin, r#"{{"id": 1, "target": "matgen"}}"#).unwrap();
    let (_, annotated) = read_response(&mut reader);
    assert_eq!(status_of(&annotated), 0);
    let baseline = annotated.get("bound").cloned().expect("bound array");

    // Inference alone (annotated loop bounds dropped) reproduces the
    // same bound, and the done line reports where the bounds came from.
    writeln!(stdin, r#"{{"id": 2, "target": "matgen", "infer": "only"}}"#).unwrap();
    let (_, done) = read_response(&mut reader);
    assert_eq!(status_of(&done), 0);
    assert_eq!(done.get("bound"), Some(&baseline), "inferred bound differs from annotated");
    let counts = done.get("infer").expect("infer counts object");
    let n = |k: &str| counts.get(k).and_then(ipet_trace::Json::as_u64).expect("count field");
    assert!(n("total") > 0);
    assert_eq!(n("inferred"), n("total"));
    assert_eq!(n("failed"), 0);

    // `infer: true` means merge mode; annotations stay in play.
    writeln!(stdin, r#"{{"id": 3, "target": "matgen", "infer": true}}"#).unwrap();
    let (_, done) = read_response(&mut reader);
    assert_eq!(status_of(&done), 0);
    assert_eq!(done.get("bound"), Some(&baseline));

    // piksrt's inner loop defeats inference, so `only` mode fails the
    // request — status 1 with the unbounded loop named — and the daemon
    // keeps serving.
    writeln!(stdin, r#"{{"id": 4, "target": "piksrt", "infer": "only"}}"#).unwrap();
    let (_, err) = read_response(&mut reader);
    assert_eq!(status_of(&err), 1);
    let msg = err.get("error").and_then(ipet_trace::Json::as_str).expect("error message");
    assert!(msg.contains("piksrt(B"), "names the unbounded loop: {msg}");
    assert!(msg.contains("at line"), "cites the source line: {msg}");

    writeln!(stdin, r#"{{"id": 5, "target": "check_data", "infer": true, "audit": true}}"#)
        .unwrap();
    let (_, done) = read_response(&mut reader);
    assert_eq!(status_of(&done), 0, "inferred bounds certify under audit");

    drop(stdin);
    assert_eq!(child.wait().unwrap().code(), Some(0));
}

#[test]
fn sigkill_mid_batch_loses_nothing_acknowledged() {
    let dir = scratch("kill");
    let store = dir.join("solves.store");
    let store = store.to_str().unwrap();

    // Baseline report without any store.
    let base = Command::new(env!("CARGO_BIN_EXE_cinderella"))
        .args(["analyze", "piksrt"])
        .output()
        .unwrap();
    assert!(base.status.success());
    let strip = |s: &str| {
        s.lines()
            .filter(|l| !l.starts_with("pool:") && !l.starts_with("store:"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let baseline = strip(&String::from_utf8_lossy(&base.stdout));

    let mut child = spawn_serve(&["--store", store]);
    let mut stdin = child.stdin.take().unwrap();
    let mut reader = BufReader::new(child.stdout.take().unwrap());

    // Request 1 completes: its `done` line means its solves are flushed.
    writeln!(stdin, r#"{{"id": 1, "target": "piksrt"}}"#).unwrap();
    let (_, done) = read_response(&mut reader);
    assert_eq!(status_of(&done), 0);

    // Request 2 goes in and the daemon is SIGKILLed mid-flight: no signal
    // handler can run, so this only passes if every flush was atomic.
    writeln!(stdin, r#"{{"id": 2, "target": "dhry"}}"#).unwrap();
    stdin.flush().unwrap();
    child.kill().unwrap();
    child.wait().unwrap();

    // The store must reopen with zero quarantined records and replay
    // request 1's solves bit-identically.
    let (code, out) = analyze_with_store("piksrt", store);
    assert_eq!(code, 0);
    let line = store_line(&out);
    assert!(line.contains("quarantined=0"), "SIGKILL corrupted the store: {line}");
    assert!(line.contains("misses=0"), "completed solves must replay: {line}");
    assert!(!line.contains("hits=0"), "{line}");
    assert_eq!(strip(&out), baseline, "replay after SIGKILL differs from a cold run");
}

#[test]
fn socket_mode_serves_connections_and_shuts_down_on_request() {
    let dir = scratch("socket");
    let sock = dir.join("serve.sock");
    let store = dir.join("solves.store");

    let mut child =
        spawn_serve(&["--socket", sock.to_str().unwrap(), "--store", store.to_str().unwrap()]);
    // Wait for the socket to appear.
    let mut tries = 0;
    while !sock.exists() {
        std::thread::sleep(std::time::Duration::from_millis(50));
        tries += 1;
        assert!(tries < 200, "socket never appeared");
    }

    // First connection: one request, then EOF (daemon keeps listening).
    {
        let conn = std::os::unix::net::UnixStream::connect(&sock).expect("connect");
        let mut writer = conn.try_clone().unwrap();
        let mut reader = BufReader::new(conn);
        writeln!(writer, r#"{{"id": 10, "target": "piksrt"}}"#).unwrap();
        let (sets, done) = read_response(&mut reader);
        assert!(!sets.is_empty());
        assert_eq!(status_of(&done), 0);
    }

    // Second connection proves the daemon survived the first EOF, replays
    // from its live pool/store, and honors the shutdown op.
    {
        let conn = std::os::unix::net::UnixStream::connect(&sock).expect("reconnect");
        let mut writer = conn.try_clone().unwrap();
        let mut reader = BufReader::new(conn);
        writeln!(writer, r#"{{"id": 11, "target": "piksrt"}}"#).unwrap();
        let (_, done) = read_response(&mut reader);
        assert_eq!(status_of(&done), 0);
        writeln!(writer, r#"{{"op": "shutdown"}}"#).unwrap();
        let (_, done) = read_response(&mut reader);
        assert_eq!(done.get("shutdown"), Some(&ipet_trace::Json::Bool(true)));
    }

    let status = child.wait().unwrap();
    assert_eq!(status.code(), Some(0));
    assert!(!sock.exists(), "socket file cleaned up on shutdown");
    assert!(store.exists(), "store flushed on shutdown");

    // The store written by the daemon replays in a plain analyze run.
    let (code, out) = analyze_with_store("piksrt", store.to_str().unwrap());
    assert_eq!(code, 0);
    assert!(store_line(&out).contains("misses=0"), "{}", store_line(&out));
}

// -- the plan memo ------------------------------------------------------------

/// A daemon on stdin, asked one request at a time.
struct Daemon {
    child: Child,
    stdin: std::process::ChildStdin,
    reader: BufReader<std::process::ChildStdout>,
}

impl Daemon {
    fn start() -> Daemon {
        let mut child = spawn_serve(&[]);
        let stdin = child.stdin.take().unwrap();
        let reader = BufReader::new(child.stdout.take().unwrap());
        Daemon { child, stdin, reader }
    }

    /// The answer to `request`, with every line's `id` dropped.
    fn ask(&mut self, request: &str) -> (Vec<ipet_trace::Json>, ipet_trace::Json) {
        writeln!(self.stdin, "{request}").unwrap();
        let (sets, done) = read_response(&mut self.reader);
        (sets.iter().map(without_id).collect(), without_id(&done))
    }

    /// The `stats` op's memo tallies: (hits, misses, entries).
    fn memo(&mut self) -> (u64, u64, u64) {
        let (_, stats) = self.ask(r#"{"op": "stats"}"#);
        let memo = stats.get("stats").and_then(|s| s.get("memo")).expect("memo stats");
        let n = |k| memo.get(k).and_then(ipet_trace::Json::as_u64).expect("memo tally");
        (n("hits"), n("misses"), n("entries"))
    }

    fn finish(mut self) {
        drop(self.stdin);
        assert_eq!(self.child.wait().unwrap().code(), Some(0));
    }
}

fn without_id(line: &ipet_trace::Json) -> ipet_trace::Json {
    match line {
        ipet_trace::Json::Obj(kv) => {
            ipet_trace::Json::Obj(kv.iter().filter(|(k, _)| k != "id").cloned().collect())
        }
        other => other.clone(),
    }
}

#[test]
fn a_repeated_request_is_answered_identically_from_the_memo() {
    let mut daemon = Daemon::start();
    let request = r#"{"id": 1, "target": "piksrt", "infer": true}"#;
    let first = daemon.ask(request);
    assert_eq!(status_of(&first.1), 0);
    // The first request solves fresh, so its plan is not admitted; the
    // second replays and is; the third takes the memoized plan.
    for want in [(0, 2, 1), (1, 2, 1)] {
        assert_eq!(daemon.ask(request), first);
        assert_eq!(daemon.memo(), want);
    }
    // The pool solved the first request's jobs and replayed them twice.
    let (_, stats) = daemon.ask(r#"{"op": "stats"}"#);
    let stats = stats.get("stats").expect("stats object");
    let pool = stats.get("pool").expect("pool stats");
    let n = |k| pool.get(k).and_then(ipet_trace::Json::as_u64).expect("pool tally");
    assert!(n("misses") > 0 && n("hits") == 2 * n("misses"), "{pool:?}");
    assert_eq!(pool.get("bases_evicted"), None, "no base cache is left to report");
    assert_eq!(stats.get("solver"), None, "no warm-start tallies are left to report");
    daemon.finish();
}

#[test]
fn audited_and_unaudited_requests_share_one_memo_entry() {
    let mut daemon = Daemon::start();
    daemon.ask(r#"{"id": 1, "target": "check_data"}"#);
    let (_, plain) = daemon.ask(r#"{"id": 2, "target": "check_data", "audit": false}"#);
    assert_eq!(daemon.memo(), (0, 2, 1));
    let (_, audited) = daemon.ask(r#"{"id": 3, "target": "check_data", "audit": true}"#);
    assert_eq!(daemon.memo(), (1, 2, 1), "the audit flag is not a plan input");
    assert_eq!(audited, plain);
    daemon.finish();
}

#[test]
fn a_rewritten_source_file_is_answered_from_its_new_bytes() {
    let dir = scratch("memo-file");
    let path = dir.join("p.mc");
    let request = format!(r#"{{"id": 1, "target": "{}"}}"#, path.display());
    std::fs::write(&path, "int main() { int a; a = 1; return a; }\n").unwrap();
    let mut daemon = Daemon::start();
    let old = daemon.ask(&request);
    assert_eq!(daemon.ask(&request), old);
    assert_eq!(daemon.memo(), (0, 2, 1), "the old bytes' plan is memoized");

    std::fs::write(
        &path,
        "int main() { int a; int b; a = 1; b = a + 2; if (b > a) { a = b * 3; } return a; }\n",
    )
    .unwrap();
    let new = daemon.ask(&request);
    assert_eq!(daemon.memo().0, 0, "new bytes miss the memo");
    daemon.finish();
    assert_ne!(new, old, "test premise: the rewrite moves the bound");

    let mut fresh = Daemon::start();
    assert_eq!(fresh.ask(&request), new);
    fresh.finish();
}

#[test]
fn every_plan_input_is_part_of_the_memo_key() {
    let mut daemon = Daemon::start();
    let base = r#"{"id": 1, "target": "check_data""#;
    daemon.ask(&format!("{base}}}"));
    daemon.ask(&format!("{base}}}"));
    assert_eq!(daemon.memo(), (0, 2, 1));
    let variants = [
        r#""annotations": "fn check_data { x1 <= 1; }""#,
        r#""deadline": 1000000"#,
        r#""infer": true"#,
        r#""machine": "dsp3210""#,
    ];
    for (i, field) in variants.iter().enumerate() {
        let (_, done) = daemon.ask(&format!("{base}, {field}}}"));
        assert_eq!(status_of(&done), 0, "{field}");
        let (hits, misses, _) = daemon.memo();
        assert_eq!((hits, misses), (0, 3 + i as u64), "{field} must miss the memo");
    }
    daemon.ask(&format!("{base}}}"));
    assert_eq!(daemon.memo().0, 1, "the unchanged request still hits");
    daemon.finish();
}
