//! `cinderella serve` — a long-running, concurrent analysis daemon.
//!
//! Requests arrive as newline-delimited JSON on stdin (default) or on a
//! unix socket (`--socket PATH`, one thread per connection); every
//! response is one JSON line. A persistent [`SolvePool`] — optionally
//! backed by a crash-safe [`Store`] — is shared across connections, so
//! repeated analyses of the same programs replay certified solves instead
//! of re-solving.
//!
//! ## Protocol
//!
//! Request: `{"id": ..., "target": "piksrt", ...}` with optional fields
//! `entry`, `annotations` (extra constraint text, appended), `infer`
//! (`true` for merge mode, or `"only"` / `"prefer-annot"` / `"merge"`),
//! `machine`, `deadline` (ticks, per-request solve budget), `audit`
//! (bool). Ops: `{"op": "shutdown"}` drains and stops the daemon (on
//! stdin, EOF does the same); `{"op": "health"}` and `{"op": "stats"}`
//! answer immediately — they bypass admission control, so liveness checks
//! work *especially* under overload.
//!
//! Response stream per request: one line per surviving constraint set
//! (`{"id", "set", "wcet", "bcet", "quality"}`), then a final line with
//! `"done": true` and a `"status"` carrying the CLI's exit-code contract —
//! 0 exact, 2 safe-but-degraded, 3 audit rejection, 1 error. When
//! inference ran, the done line carries an `"infer"` object with the
//! loop-outcome tallies. Request failures (unknown target, bad
//! annotations, a panic) produce a status-1 final line and the daemon
//! keeps serving.
//!
//! ## Overload
//!
//! At most `--max-inflight` requests solve concurrently and at most
//! `--max-queue` wait behind them; anything beyond that is refused with a
//! typed status-2 response carrying `"shed": true` — explicit
//! load-shedding, never an unbounded queue or a hung client. Request
//! lines over [`conn::MAX_LINE_BYTES`] are refused with a status-1 line
//! and the connection survives. `--timeout-ms` arms a per-request
//! wall-clock watchdog whose expiry cancels the solve through the budget
//! machinery: the request still answers, with a certified-safe relaxed
//! bound marked `"cancelled": true`. A client that disconnects mid-solve
//! cancels its request the same way instead of computing into a dead
//! pipe.
//!
//! ## Drain
//!
//! SIGTERM or a `shutdown` op begins a graceful drain: stop accepting
//! connections and requests (late arrivals are shed), let in-flight
//! requests finish (their watchdogs still bound them), flush the store
//! one final time, exit 0.
//!
//! ## Crash safety
//!
//! The store is flushed write-through for every request — before its
//! response lines are written, so acknowledgment implies durability — and
//! each flush is an atomic whole-file replacement, serialized across
//! connections by the store itself. A flush rewrites the file only when
//! the store is dirty (an insert or an invalidation since the last good
//! write); a replay that added nothing still waits for any flush in
//! flight, then returns without writing. Injected write faults
//! (`--inject-fail-write N`, `--inject-torn-write N`) count writing
//! flushes only, and a failed or torn write leaves the store dirty so the
//! next flush repairs the file. Killing the daemon at any moment —
//! including SIGKILL, which cannot be handled — therefore loses at most
//! the in-flight requests' solves; everything acknowledged by a `done`
//! line is already on disk. Solves cancelled by a watchdog or a vanished
//! client are never persisted: their degradation is wall-clock
//! nondeterminism, and the cache must stay deterministic.

mod admission;
mod conn;
mod counters;
mod watchdog;

use crate::{machine_by_name, store_summary, RunStatus};
use admission::Admission;
use counters::Counters;
use ipet_core::{AnalysisBudget, Estimate};
use ipet_lp::CancelToken;
use ipet_pool::SolvePool;
use ipet_store::Store;
use ipet_trace::Json;
use std::io::BufReader;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub(crate) struct ServeConfig {
    pub store_path: Option<String>,
    pub socket: Option<String>,
    pub jobs: usize,
    pub machine_name: String,
    pub budget: AnalysisBudget,
    pub warm: bool,
    /// Default audit policy; a request's `"audit"` field overrides it.
    pub audit: bool,
    pub io_faults: ipet_core::SolverFaults,
    /// Concurrent request ceiling (admission control).
    pub max_inflight: usize,
    /// Requests allowed to wait behind the in-flight ceiling before
    /// shedding begins.
    pub max_queue: usize,
    /// Per-request wall-clock deadline; `None` disables the watchdog.
    pub timeout_ms: Option<u64>,
}

/// Set by the SIGTERM handler; folded into [`Daemon::draining`]. A static
/// because signal handlers cannot carry state, and storing to an atomic
/// is async-signal-safe.
static TERM_FLAG: AtomicBool = AtomicBool::new(false);

extern "C" fn on_sigterm(_signum: i32) {
    TERM_FLAG.store(true, Ordering::SeqCst);
}

const SIGTERM: i32 = 15;

extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

fn install_sigterm_handler() {
    // glibc's signal() installs BSD semantics (SA_RESTART), so blocking
    // reads resume after the handler runs; the accept loop is nonblocking
    // and polls the flag instead.
    unsafe {
        signal(SIGTERM, on_sigterm as extern "C" fn(i32) as usize);
    }
}

/// Everything a connection thread needs, shared by reference through a
/// [`std::thread::scope`].
pub(crate) struct Daemon {
    cfg: ServeConfig,
    pool: SolvePool,
    store: Option<Arc<Store>>,
    admission: Admission,
    counters: Counters,
    /// Local drain flag; [`Daemon::draining`] also folds in SIGTERM.
    draining: AtomicBool,
    started: Instant,
}

impl Daemon {
    fn new(cfg: ServeConfig) -> Result<Daemon, String> {
        let store = cfg
            .store_path
            .as_ref()
            .map(|p| Arc::new(Store::open_with_faults(p, cfg.io_faults.clone())));
        if let Some(store) = &store {
            eprintln!("cinderella: serve: {}", store_summary(store));
        }
        let mut pool = SolvePool::new(cfg.jobs);
        if let Some(store) = &store {
            pool = pool.with_store(Arc::clone(store));
        }
        // The stats op reports the solver-effort tallies (`lp.warm.*`,
        // `lp.sparse.*`) alongside the pool/store sections; they only
        // accumulate with the process-global trace recorder installed.
        ipet_trace::install();
        let admission = Admission::new(cfg.max_inflight, cfg.max_queue);
        Ok(Daemon {
            cfg,
            pool,
            store,
            admission,
            counters: Counters::default(),
            draining: AtomicBool::new(false),
            started: Instant::now(),
        })
    }

    /// Begins a graceful drain (idempotent): stop admitting, shed queued
    /// waiters, let in-flight requests finish.
    pub(crate) fn begin_drain(&self, why: &str) {
        if !self.draining.swap(true, Ordering::AcqRel) {
            self.counters.drain();
            eprintln!("cinderella: serve: draining ({why})");
        }
    }

    /// True once a drain has begun. Observing a pending SIGTERM promotes
    /// it into a drain, so every polling loop doubles as the signal
    /// listener.
    pub(crate) fn draining(&self) -> bool {
        if TERM_FLAG.load(Ordering::SeqCst) {
            self.begin_drain("SIGTERM");
        }
        self.draining.load(Ordering::Acquire)
    }

    fn uptime_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// `{"op": "health"}` response: is the daemon up, and how loaded.
    pub(crate) fn health_line(&self) -> Json {
        Json::Obj(vec![
            ("done".into(), Json::Bool(true)),
            ("status".into(), Json::Num(0.0)),
            ("ok".into(), Json::Bool(true)),
            ("uptime_ms".into(), Json::Num(self.uptime_ms() as f64)),
            ("draining".into(), Json::Bool(self.draining.load(Ordering::Acquire))),
            ("in_flight".into(), Json::Num(self.admission.in_flight() as f64)),
            ("queued".into(), Json::Num(self.admission.queued() as f64)),
        ])
    }

    /// `{"op": "stats"}` response: serve counters, admission state, pool
    /// cache tallies and the store summary.
    pub(crate) fn stats_line(&self) -> Json {
        let c = self.counters.snapshot();
        let cache = self.pool.cache_stats();
        // Warm-start and sparse-backend solver tallies since startup, in
        // the recorder's (deterministic) name order.
        let solver_json = {
            let mut kv: Vec<(String, Json)> = Vec::new();
            if let Some(doc) = ipet_trace::snapshot() {
                for (name, value) in &doc.counters {
                    if name.starts_with("lp.warm.") || name.starts_with("lp.sparse.") {
                        kv.push((name.clone(), Json::Num(*value as f64)));
                    }
                }
            }
            Json::Obj(kv)
        };
        let store_json = match &self.store {
            None => Json::Null,
            Some(store) => {
                let s = store.stats();
                Json::Obj(vec![
                    ("mode".into(), Json::Str(format!("{:?}", store.mode()))),
                    ("loaded".into(), Json::Num(s.loaded as f64)),
                    ("quarantined".into(), Json::Num(s.quarantined as f64)),
                    ("hits".into(), Json::Num(s.hits as f64)),
                    ("misses".into(), Json::Num(s.misses as f64)),
                    ("rejected".into(), Json::Num(s.rejected as f64)),
                    ("invalidated".into(), Json::Num(s.invalidated as f64)),
                    ("flushes".into(), Json::Num(s.flushes as f64)),
                    ("write_failed".into(), Json::Num(s.write_failed as f64)),
                ])
            }
        };
        Json::Obj(vec![
            ("done".into(), Json::Bool(true)),
            ("status".into(), Json::Num(0.0)),
            (
                "stats".into(),
                Json::Obj(vec![
                    ("uptime_ms".into(), Json::Num(self.uptime_ms() as f64)),
                    ("draining".into(), Json::Bool(self.draining.load(Ordering::Acquire))),
                    (
                        "serve".into(),
                        Json::Obj(vec![
                            ("connections".into(), Json::Num(c.connections as f64)),
                            ("requests".into(), Json::Num(c.requests as f64)),
                            ("shed".into(), Json::Num(c.shed as f64)),
                            ("cancelled".into(), Json::Num(c.cancelled as f64)),
                            ("client_gone".into(), Json::Num(c.client_gone as f64)),
                            ("oversized".into(), Json::Num(c.oversized as f64)),
                            ("drains".into(), Json::Num(c.drains as f64)),
                        ]),
                    ),
                    (
                        "admission".into(),
                        Json::Obj(vec![
                            ("in_flight".into(), Json::Num(self.admission.in_flight() as f64)),
                            ("queued".into(), Json::Num(self.admission.queued() as f64)),
                            (
                                "max_inflight".into(),
                                Json::Num(self.admission.max_inflight() as f64),
                            ),
                            ("max_queue".into(), Json::Num(self.admission.max_queue() as f64)),
                        ]),
                    ),
                    (
                        "pool".into(),
                        Json::Obj(vec![
                            ("hits".into(), Json::Num(cache.hits as f64)),
                            ("misses".into(), Json::Num(cache.misses as f64)),
                            ("rejected".into(), Json::Num(cache.rejected as f64)),
                        ]),
                    ),
                    ("solver".into(), solver_json),
                    ("store".into(), store_json),
                ]),
            ),
        ])
    }
}

pub(crate) fn serve(cfg: ServeConfig) -> Result<RunStatus, String> {
    install_sigterm_handler();
    let daemon = Daemon::new(cfg)?;

    match daemon.cfg.socket.clone() {
        None => serve_stdin(&daemon),
        Some(path) => serve_socket(&daemon, &path)?,
    }

    if let Some(store) = &daemon.store {
        if let Err(e) = store.flush() {
            eprintln!("cinderella: serve: final store flush failed ({e})");
        }
        eprintln!("cinderella: serve: {}", store_summary(store));
    }
    // A drained daemon exits cleanly: shedding and degradation are the
    // overload story, not errors.
    Ok(RunStatus::Exact)
}

fn serve_stdin(daemon: &Daemon) {
    daemon.counters.connection();
    // Stdin EOF is the normal end of input (`echo req | cinderella
    // serve`), so it must finish pending requests and answer — never
    // cancel.
    let shared = conn::ConnShared::new(false);
    let events = conn::spawn_reader(BufReader::new(std::io::stdin()), Arc::clone(&shared));
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    conn::drive(daemon, events, &shared, &mut out);
}

fn serve_socket(daemon: &Daemon, path: &str) -> Result<(), String> {
    // A stale socket file from a killed daemon would make bind fail; the
    // advisory store lock already guards against two *live* daemons
    // sharing a store.
    let _ = std::fs::remove_file(path);
    let listener = std::os::unix::net::UnixListener::bind(path)
        .map_err(|e| format!("--socket {path}: {e}"))?;
    // Nonblocking so the accept loop can poll the drain flag: SIGTERM
    // must stop the daemon even when no client ever connects again.
    listener.set_nonblocking(true).map_err(|e| format!("--socket {path}: {e}"))?;
    eprintln!("cinderella: serve: listening on {path}");

    // The scope joins every connection thread before returning, which *is*
    // the graceful drain: once the flag is up, drivers shed queued work,
    // finish what's in flight, answer, and return.
    std::thread::scope(|scope| loop {
        if daemon.draining() {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                daemon.counters.connection();
                scope.spawn(move || {
                    let _ = stream.set_nonblocking(false);
                    let reader = match stream.try_clone() {
                        Ok(r) => BufReader::new(r),
                        Err(_) => {
                            daemon.counters.client_gone();
                            return;
                        }
                    };
                    let shared = conn::ConnShared::new(true);
                    let events = conn::spawn_reader(reader, Arc::clone(&shared));
                    let mut writer = stream;
                    conn::drive(daemon, events, &shared, &mut writer);
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => {
                eprintln!("cinderella: serve: accept: {e}");
                std::thread::sleep(Duration::from_millis(25));
            }
        }
    });
    let _ = std::fs::remove_file(path);
    Ok(())
}

pub(crate) fn error_response(id: &Json, message: &str) -> Json {
    Json::Obj(vec![
        ("id".into(), id.clone()),
        ("done".into(), Json::Bool(true)),
        ("status".into(), Json::Num(1.0)),
        ("error".into(), Json::Str(message.into())),
    ])
}

fn opt_num(v: Option<u64>) -> Json {
    v.map(|n| Json::Num(n as f64)).unwrap_or(Json::Null)
}

/// Runs one analysis request against the shared pool, returning the
/// per-set lines plus the final `done` line. The token is the request's
/// cancellation surface: the watchdog and the disconnect detector both
/// fire it, and the pool degrades to certified-safe bounds at its next
/// budget checkpoint.
pub(crate) fn run_request(
    req: &Json,
    pool: &SolvePool,
    cfg: &ServeConfig,
    cancel: &CancelToken,
) -> Result<Vec<Json>, String> {
    let id = req.get("id").cloned().unwrap_or(Json::Null);
    let target = req
        .get("target")
        .and_then(Json::as_str)
        .ok_or("request needs a \"target\" string (benchmark name or .mc/.s path)")?;
    let entry = req.get("entry").and_then(Json::as_str);
    let machine_name =
        req.get("machine").and_then(Json::as_str).unwrap_or(&cfg.machine_name).to_string();
    let machine = machine_by_name(&machine_name)?;
    let audit = match req.get("audit") {
        Some(Json::Bool(b)) => *b,
        _ => cfg.audit,
    };
    let infer = match req.get("infer") {
        Some(Json::Bool(true)) => Some(ipet_infer::InferMode::Merge),
        Some(Json::Str(s)) => Some(
            ipet_infer::InferMode::parse(s)
                .ok_or_else(|| format!("\"infer\": {s}: expected only, prefer-annot or merge"))?,
        ),
        _ => None,
    };
    let mut budget = cfg.budget;
    if let Some(d) = req.get("deadline").and_then(Json::as_u64) {
        budget.solve.deadline_ticks = Some(d);
    }

    let t = crate::load_target(target, entry, None, None, false)?;
    let analyzer = ipet_core::Analyzer::new(&t.program, machine)
        .map_err(|e| e.to_string())?
        .with_warm_start(cfg.warm);
    let mut annotations = t.annotations.clone();
    if let Some(extra) = req.get("annotations").and_then(Json::as_str) {
        annotations.push('\n');
        annotations.push_str(extra);
    }
    let mut anns = ipet_core::parse_annotations(&annotations).map_err(|e| e.to_string())?;
    let mut infer_counts = None;
    if let Some(mode) = infer {
        let outcome = ipet_infer::infer_and_merge(t.module.as_ref(), &analyzer, &anns, mode)
            .map_err(|e| e.to_string())?;
        anns = outcome.annotations;
        infer_counts = Some(outcome.counts);
    }
    let plan = analyzer.plan(&anns, &budget).map_err(|e| e.to_string())?;
    let plans = [plan];

    let (est, audit_failed): (Estimate, bool) = if audit {
        let batch = pool.run_plans_audited_cancellable(&plans, &budget.solve, cancel);
        let (est, report) =
            batch.results.into_iter().next().expect("one plan").map_err(|e| e.to_string())?;
        let failed = !report.all_certified();
        (est, failed)
    } else {
        let batch = pool.run_plans_cancellable(&plans, &budget.solve, cancel);
        let est =
            batch.estimates.into_iter().next().expect("one plan").map_err(|e| e.to_string())?;
        (est, false)
    };

    let mut responses: Vec<Json> = est
        .sets
        .iter()
        .map(|set| {
            Json::Obj(vec![
                ("id".into(), id.clone()),
                ("set".into(), Json::Num(set.index as f64)),
                ("wcet".into(), opt_num(set.wcet)),
                ("bcet".into(), opt_num(set.bcet)),
                ("quality".into(), Json::Str(set.quality.to_string())),
            ])
        })
        .collect();
    let status = if audit_failed {
        3
    } else if est.quality.is_exact() {
        0
    } else {
        2
    };
    let mut done = vec![
        ("id".into(), id),
        ("target".into(), Json::Str(target.into())),
        ("done".into(), Json::Bool(true)),
        ("status".into(), Json::Num(status as f64)),
        (
            "bound".into(),
            Json::Arr(vec![Json::Num(est.bound.lower as f64), Json::Num(est.bound.upper as f64)]),
        ),
        ("quality".into(), Json::Str(est.quality.to_string())),
        ("sets_total".into(), Json::Num(est.sets_total as f64)),
        ("sets_skipped".into(), Json::Num(est.sets_skipped as f64)),
    ];
    if cancel.is_cancelled() {
        done.push(("cancelled".into(), Json::Bool(true)));
    }
    if let Some(c) = infer_counts {
        done.push((
            "infer".into(),
            Json::Obj(vec![
                ("total".into(), Json::Num(c.total as f64)),
                ("inferred".into(), Json::Num(c.inferred as f64)),
                ("annotated".into(), Json::Num(c.annotated as f64)),
                ("failed".into(), Json::Num(c.failed as f64)),
                ("tightened".into(), Json::Num(c.tightened as f64)),
            ]),
        ));
    }
    responses.push(Json::Obj(done));
    Ok(responses)
}
