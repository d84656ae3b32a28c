//! Concurrency and overload behavior of `cinderella serve`: admission
//! control and shedding, health/stats ops under load, the request line
//! cap, watchdog timeouts, client-disconnect cancellation, and the
//! SIGTERM graceful drain.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use ipet_trace::Json;

fn scratch(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir()
        .join(format!("cinderella-serve-conc-{}-{tag}-{n}", std::process::id()));
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

fn wait_for_socket(sock: &Path) {
    let t0 = Instant::now();
    while !sock.exists() {
        assert!(t0.elapsed() < Duration::from_secs(10), "socket never appeared");
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn connect(sock: &Path) -> (UnixStream, BufReader<UnixStream>) {
    let conn = UnixStream::connect(sock).expect("connect");
    let reader = BufReader::new(conn.try_clone().expect("clone"));
    (conn, reader)
}

/// Reads lines until the request's `done` line, returning (set lines, done).
fn read_response(reader: &mut impl BufRead) -> (Vec<Json>, Json) {
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

fn status_of(done: &Json) -> u64 {
    done.get("status").and_then(Json::as_u64).expect("status field")
}

/// Polls `{"op": "stats"}` on a fresh connection until `pred` accepts the
/// stats object (bounded wait).
fn wait_for_stats(sock: &Path, what: &str, pred: impl Fn(&Json) -> bool) -> Json {
    let t0 = Instant::now();
    loop {
        let (mut conn, mut reader) = connect(sock);
        writeln!(conn, r#"{{"op": "stats"}}"#).expect("stats request");
        let (_, done) = read_response(&mut reader);
        let stats = done.get("stats").expect("stats object").clone();
        if pred(&stats) {
            return stats;
        }
        assert!(t0.elapsed() < Duration::from_secs(30), "stats never showed {what}: {stats:?}");
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn counter(stats: &Json, group: &str, name: &str) -> u64 {
    stats
        .get(group)
        .and_then(|g| g.get(name))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("no {group}.{name} in {stats:?}"))
}

/// A request that is slow by construction: `fullsearch` plus `log2_sets`
/// disjunctive annotation statements, each `x1 <= a | x1 <= b` with fresh
/// constants, which expand to `2^log2_sets` distinct constraint sets. Every
/// set is its own ILP solve and a cancellation checkpoint, so the work
/// doubles per statement however fast the solver gets, and a cancelled
/// request still unwinds within one set. The alternatives never bind
/// (`x1` is the entry block, executed once), so the bound stays exact.
fn slow_request(id: u64, log2_sets: u64) -> String {
    let statements: String =
        (1..=log2_sets).map(|i| format!(" x1 <= {} | x1 <= {};", 100 + i, 200 + i)).collect();
    format!(
        r#"{{"id": {id}, "target": "fullsearch", "annotations": "fn fullsearch {{{statements} }}"}}"#
    )
}

/// 256 sets: seconds in a debug build, long enough to hold an in-flight
/// slot while the test pokes the daemon from the side, for requests that
/// must also run to an exact finish.
const SLOW_SETS: u64 = 8;

/// 4096 sets: far beyond any timeout the tests use, for requests that are
/// meant to be cancelled (over a second even in a release build).
const ENDLESS_SETS: u64 = 12;

#[test]
fn overload_sheds_with_a_typed_response_and_ops_bypass_admission() {
    let dir = scratch("shed");
    let sock = dir.join("serve.sock");
    let mut child = spawn_serve(&[
        "--socket",
        sock.to_str().unwrap(),
        "--max-inflight",
        "1",
        "--max-queue",
        "0",
    ]);
    wait_for_socket(&sock);

    // Connection A occupies the single in-flight slot with a slow solve.
    let (mut slow_conn, mut slow_reader) = connect(&sock);
    writeln!(slow_conn, "{}", slow_request(1, SLOW_SETS)).unwrap();
    wait_for_stats(&sock, "an in-flight request", |s| counter(s, "admission", "in_flight") >= 1);

    // Health answers while the daemon is saturated: ops bypass admission.
    let (mut conn, mut reader) = connect(&sock);
    writeln!(conn, r#"{{"op": "health"}}"#).unwrap();
    let (_, health) = read_response(&mut reader);
    assert_eq!(status_of(&health), 0);
    assert_eq!(health.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(health.get("draining"), Some(&Json::Bool(false)));
    assert!(health.get("uptime_ms").and_then(Json::as_u64).is_some());

    // A second analysis request is shed — a typed status-2 refusal, not a
    // hang and not an unbounded queue.
    writeln!(conn, r#"{{"id": 2, "target": "piksrt"}}"#).unwrap();
    let (sets, done) = read_response(&mut reader);
    assert!(sets.is_empty(), "a shed request produces no per-set lines");
    assert_eq!(status_of(&done), 2);
    assert_eq!(done.get("shed"), Some(&Json::Bool(true)));
    assert_eq!(done.get("id").and_then(Json::as_u64), Some(2));

    // Stats report the shed and the saturated admission gate.
    let stats = wait_for_stats(&sock, "the shed", |s| counter(s, "serve", "shed") >= 1);
    assert_eq!(counter(&stats, "admission", "max_inflight"), 1);
    assert_eq!(counter(&stats, "admission", "max_queue"), 0);
    assert!(counter(&stats, "serve", "connections") >= 2);

    // The slow request itself still completes exactly.
    let (_, done) = read_response(&mut slow_reader);
    assert_eq!(status_of(&done), 0);

    // Once the slot frees, the same kind of request is admitted again.
    let (mut conn, mut reader) = connect(&sock);
    writeln!(conn, r#"{{"id": 3, "target": "piksrt"}}"#).unwrap();
    let (_, done) = read_response(&mut reader);
    assert_eq!(status_of(&done), 0);
    writeln!(conn, r#"{{"op": "shutdown"}}"#).unwrap();
    let (_, done) = read_response(&mut reader);
    assert_eq!(done.get("shutdown"), Some(&Json::Bool(true)));
    assert_eq!(child.wait().unwrap().code(), Some(0));
}

#[test]
fn oversized_request_line_is_refused_and_the_connection_survives() {
    let mut child = spawn_serve(&[]);
    let mut stdin = child.stdin.take().unwrap();
    let mut reader = BufReader::new(child.stdout.take().unwrap());

    // Over 1 MiB of garbage on one line: refused without buffering it, and
    // without killing the stream.
    let huge = "x".repeat((1 << 20) + 512);
    writeln!(stdin, "{huge}").unwrap();
    let (_, err) = read_response(&mut reader);
    assert_eq!(status_of(&err), 1);
    assert!(err.get("error").and_then(Json::as_str).unwrap_or("").contains("exceeds"), "{err:?}");

    // The next line parses and solves normally.
    writeln!(stdin, r#"{{"id": 1, "target": "piksrt"}}"#).unwrap();
    let (sets, done) = read_response(&mut reader);
    assert!(!sets.is_empty());
    assert_eq!(status_of(&done), 0);

    drop(stdin);
    assert_eq!(child.wait().unwrap().code(), Some(0));
}

#[test]
fn watchdog_timeout_degrades_to_a_safe_bound_and_keeps_serving() {
    let mut child = spawn_serve(&["--timeout-ms", "500"]);
    let mut stdin = child.stdin.take().unwrap();
    let mut reader = BufReader::new(child.stdout.take().unwrap());

    // The slow request cannot finish in 500ms: the watchdog cancels it and
    // the request answers with a certified-safe degraded bound.
    writeln!(stdin, "{}", slow_request(1, ENDLESS_SETS)).unwrap();
    let (_, done) = read_response(&mut reader);
    assert_eq!(status_of(&done), 2, "{done:?}");
    assert_eq!(done.get("cancelled"), Some(&Json::Bool(true)), "{done:?}");
    let bound = done.get("bound").and_then(Json::as_arr).expect("bound array");
    let lo = bound[0].as_u64().expect("lower");
    let hi = bound[1].as_u64().expect("upper");
    assert!(lo <= hi, "degraded bound must still be well-formed: {done:?}");

    // Fast requests are untouched by the watchdog, and the daemon is not
    // poisoned by the cancellation.
    writeln!(stdin, r#"{{"id": 2, "target": "piksrt"}}"#).unwrap();
    let (_, done) = read_response(&mut reader);
    assert_eq!(status_of(&done), 0);
    assert!(done.get("cancelled").is_none());

    drop(stdin);
    assert_eq!(child.wait().unwrap().code(), Some(0));
}

#[test]
fn client_disconnect_cancels_the_inflight_solve() {
    let dir = scratch("gone");
    let sock = dir.join("serve.sock");
    let mut child = spawn_serve(&["--socket", sock.to_str().unwrap()]);
    wait_for_socket(&sock);

    // Start a slow solve, then vanish: the daemon must notice, cancel the
    // request instead of computing into a dead pipe, and keep serving.
    {
        let (mut conn, _reader) = connect(&sock);
        writeln!(conn, "{}", slow_request(1, ENDLESS_SETS)).unwrap();
        wait_for_stats(&sock, "the in-flight request", |s| {
            counter(s, "admission", "in_flight") >= 1
        });
    } // both halves drop here

    // The disconnect is observed promptly — long before the slow solve
    // could have finished on its own — and the slot frees.
    let t0 = Instant::now();
    let stats = wait_for_stats(&sock, "the freed slot", |s| {
        counter(s, "serve", "client_gone") >= 1 && counter(s, "admission", "in_flight") == 0
    });
    assert!(
        t0.elapsed() < Duration::from_secs(20),
        "cancellation must beat the full solve: {stats:?}"
    );

    // A cancelled solve never enters the cache: the same target now solves
    // fresh and exact.
    let (mut conn, mut reader) = connect(&sock);
    writeln!(conn, r#"{{"id": 2, "target": "piksrt"}}"#).unwrap();
    let (_, done) = read_response(&mut reader);
    assert_eq!(status_of(&done), 0);
    writeln!(conn, r#"{{"op": "shutdown"}}"#).unwrap();
    let (_, done) = read_response(&mut reader);
    assert_eq!(done.get("shutdown"), Some(&Json::Bool(true)));
    assert_eq!(child.wait().unwrap().code(), Some(0));
}

#[test]
fn sigterm_drains_in_flight_work_flushes_and_exits_zero() {
    let dir = scratch("drain");
    let sock = dir.join("serve.sock");
    let store = dir.join("solves.store");
    let mut child =
        spawn_serve(&["--socket", sock.to_str().unwrap(), "--store", store.to_str().unwrap()]);
    wait_for_socket(&sock);

    let (mut conn, mut reader) = connect(&sock);
    writeln!(conn, r#"{{"id": 1, "target": "piksrt"}}"#).unwrap();
    let (_, done) = read_response(&mut reader);
    assert_eq!(status_of(&done), 0);

    // SIGTERM mid-stream: the daemon stops accepting, finishes what's in
    // flight, flushes, removes the socket and exits 0 — a drain, not a
    // crash.
    let term =
        Command::new("kill").args(["-TERM", &child.id().to_string()]).status().expect("kill runs");
    assert!(term.success());
    let status = child.wait().unwrap();
    assert_eq!(status.code(), Some(0), "drain must exit cleanly");
    assert!(!sock.exists(), "socket file cleaned up on drain");
    assert!(store.exists(), "store flushed on drain");

    // The acknowledged solve is durable: a cold run replays it entirely.
    let out = Command::new(env!("CARGO_BIN_EXE_cinderella"))
        .args(["analyze", "piksrt", "--store", store.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().find(|l| l.starts_with("store:")).expect("store line");
    assert!(line.contains("misses=0"), "acknowledged solves must replay: {line}");
}

#[test]
fn requests_queue_behind_the_inflight_ceiling_and_run_in_turn() {
    let dir = scratch("queue");
    let sock = dir.join("serve.sock");
    let mut child = spawn_serve(&[
        "--socket",
        sock.to_str().unwrap(),
        "--max-inflight",
        "1",
        "--max-queue",
        "8",
    ]);
    wait_for_socket(&sock);

    // One slow request holds the slot; several fast ones queue behind it
    // and must all be answered (not shed — the queue has room).
    let (mut slow_conn, mut slow_reader) = connect(&sock);
    writeln!(slow_conn, "{}", slow_request(0, SLOW_SETS)).unwrap();
    wait_for_stats(&sock, "an in-flight request", |s| counter(s, "admission", "in_flight") >= 1);

    let waiters: Vec<_> = (1..=3)
        .map(|id| {
            let sock = sock.clone();
            std::thread::spawn(move || {
                let (mut conn, mut reader) = connect(&sock);
                writeln!(conn, r#"{{"id": {id}, "target": "piksrt"}}"#).unwrap();
                let (_, done) = read_response(&mut reader);
                status_of(&done)
            })
        })
        .collect();
    for w in waiters {
        assert_eq!(w.join().expect("waiter"), 0, "queued requests are answered exactly");
    }
    let (_, done) = read_response(&mut slow_reader);
    assert_eq!(status_of(&done), 0);

    let (mut conn, mut reader) = connect(&sock);
    writeln!(conn, r#"{{"op": "shutdown"}}"#).unwrap();
    let (_, done) = read_response(&mut reader);
    assert_eq!(done.get("shutdown"), Some(&Json::Bool(true)));
    assert_eq!(child.wait().unwrap().code(), Some(0));
}
