//! `serve`: edit sessions against a `cinderella serve` daemon.
//!
//! Set-up starts `cinderella serve --socket … --store … --jobs 1
//! --max-inflight 2` and primes it with one pass over the suite. Then one
//! client process drives two closed-loop connections. Each connection
//! runs "edit sessions": all 13 routines requested one at a time in seeded
//! order, one of them carrying a fresh extra `annotations` constraint. The
//! constraint (`x1 <= N` on the entry block, which runs once) never binds,
//! so the bound stays the same, but it changes the ILP: the edit must miss
//! every cache, solve cold and write the store. The other 12 requests
//! replay. The edited routine rotates through a seeded permutation every
//! 13 sessions, so every routine is edited equally often and the cold
//! class holds the same mix in every run.
//!
//! Request latency mixes two classes whose costs differ tenfold, so the
//! workload reports them apart: `replay_ms.p50` is the median over
//! sessions of a session's mean replay latency, `cold_ms.p50` the median
//! over rotation cycles of a cycle's mean edit latency, and
//! `latency_ms.*` are whole-session latencies.

use crate::suite::plan_one;
use crate::{
    frac, front_counters, host_slowdown, lp_counters, median, ms, peak_rss_mb, quantile,
    slowdown_all_cores, Clock, Config, Rng, RunResult, Samples, SETUP_REPS,
};
use ipet_core::{AnalysisBudget, AnalysisPlan, TimeBound};
use ipet_pool::SolvePool;
use ipet_suite::Benchmark;
use ipet_trace::Json;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// Closed-loop client connections, one per core.
pub const CONNECTIONS: usize = crate::CORES;
/// Percent of requests that ask for `"audit": true`.
pub const AUDIT_PERCENT: u64 = 20;
/// The daemon's peak RSS is read when this session ends. Every edit grows
/// the daemon's solve cache, so a peak read at the end of the window would
/// grow with throughput; reading it after a fixed number of sessions (40
/// edit cycles) keeps it a measure of memory per workload.
pub const MEM_SESSION: u64 = 40 * 13;
/// Edit constants start here; session `s` uses `EDIT_BASE + s`, so every
/// edit in a daemon's lifetime is new to its caches.
pub const EDIT_BASE: u64 = 1_000_000;

/// One request of the script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Index into the routine list.
    pub routine: usize,
    /// The edit constant, when this request carries the session's edit.
    pub edit: Option<u64>,
    /// Whether the request asks for an audited answer.
    pub audit: bool,
}

/// Session `s` of the seeded script over `n` routines: every routine once,
/// in seeded order; the edited routine is entry `s mod n` of a seeded
/// permutation drawn afresh every `n` sessions.
pub fn session(seed: u64, s: u64, n: usize) -> Vec<Request> {
    let mut perm: Vec<usize> = (0..n).collect();
    Rng::new(seed, (1 << 32) | (s / n as u64)).shuffle(&mut perm);
    let edited = perm[(s % n as u64) as usize];
    let mut rng = Rng::new(seed, (2 << 32) | s);
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    order
        .into_iter()
        .map(|routine| Request {
            routine,
            edit: (routine == edited).then_some(EDIT_BASE + s),
            audit: rng.below(100) < AUDIT_PERCENT,
        })
        .collect()
}

/// The extra annotation an edit carries: a bound on the entry block that
/// can never bind (the entry block runs exactly once).
pub(crate) fn edit_text(b: &Benchmark, n: u64) -> String {
    format!("fn {} {{ x1 <= {n}; }}", b.entry)
}

/// The request line for `req` with numeric id `id`.
pub fn request_line(id: u64, b: &Benchmark, req: &Request) -> String {
    let edit =
        req.edit.map(|n| format!(", \"annotations\": \"{}\"", edit_text(b, n))).unwrap_or_default();
    format!(
        "{{\"id\": {id}, \"target\": \"{}\", \"infer\": true, \"audit\": {}{edit}}}",
        b.name, req.audit
    )
}

/// In-process reference answers for every routine.
struct Reference {
    /// Routine name.
    name: &'static str,
    /// Bound of the routine as requested (edits do not move it).
    bound: TimeBound,
    /// Pool misses one edit of the routine costs on a warm daemon.
    edit_misses: u64,
    /// The edited plan, for the traced run's lp measurements.
    edit_plan: AnalysisPlan,
}

fn references(benches: &[Benchmark]) -> Result<Vec<Reference>, String> {
    let solve = AnalysisBudget::default().solve;
    benches
        .iter()
        .map(|b| {
            let plain = plan_one(b, None, &mut Clock::new(false))?;
            let edit_plan = plan_one(b, Some(&edit_text(b, EDIT_BASE)), &mut Clock::new(false))?;
            let pool = SolvePool::new(1);
            let bound = |batch: ipet_pool::PlanBatch| -> Result<TimeBound, String> {
                let est = batch.estimates.into_iter().next().ok_or("no estimate")?;
                est.map(|e| e.bound).map_err(|e| e.to_string())
            };
            let plain_bound = bound(pool.run_plans(std::slice::from_ref(&plain), &solve))?;
            let edit_batch = pool.run_plans(std::slice::from_ref(&edit_plan), &solve);
            let edit_misses = edit_batch.report.misses;
            let edit_bound = bound(edit_batch)?;
            if edit_bound != plain_bound {
                return Err(format!("{}: the edit constraint moved the bound", b.name));
            }
            Ok(Reference { name: b.name, bound: plain_bound, edit_misses, edit_plan })
        })
        .collect()
}

/// One client connection: newline-delimited JSON, one request in flight.
struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    fn open(socket: &Path) -> std::io::Result<Conn> {
        let writer = UnixStream::connect(socket)?;
        writer.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn { reader: BufReader::new(writer.try_clone()?), writer })
    }

    /// Sends one line and returns the `"done"` line that answers it.
    fn call(&mut self, line: &str) -> Result<Json, String> {
        self.writer.write_all(format!("{line}\n").as_bytes()).map_err(|e| format!("send: {e}"))?;
        let mut buf = String::new();
        loop {
            buf.clear();
            if self.reader.read_line(&mut buf).map_err(|e| format!("receive: {e}"))? == 0 {
                return Err("daemon closed the connection".into());
            }
            let v = ipet_trace::parse_json(buf.trim()).map_err(|e| format!("bad line: {e}"))?;
            if matches!(v.get("done"), Some(Json::Bool(true))) {
                return Ok(v);
            }
        }
    }
}

/// Linux signal numbers that stop and resume a process.
const SIGSTOP: i32 = 19;
const SIGCONT: i32 = 18;

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

/// True when every thread of process `pid` is in the stopped state (`T`
/// in `/proc/<pid>/task/<tid>/stat`).
fn all_threads_stopped(pid: u32) -> bool {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return false;
    };
    tasks.flatten().all(|task| {
        std::fs::read_to_string(task.path().join("stat")).is_ok_and(|stat| {
            // The state follows the parenthesised command name.
            stat.rsplit_once(')').is_some_and(|(_, rest)| rest.trim_start().starts_with('T'))
        })
    })
}

/// A running daemon; killed on drop if [`Daemon::stop`] did not end it.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    /// Starts a daemon on socket `<base>.sock` with store `<base>.store`
    /// and waits until it listens.
    fn start(bin: &Path, base: &Path) -> Result<Daemon, String> {
        let socket = base.with_extension("sock");
        let store = base.with_extension("store");
        let child = Command::new(bin)
            .arg("serve")
            .arg("--socket")
            .arg(&socket)
            .arg("--store")
            .arg(&store)
            .args(["--jobs", "1", "--max-inflight", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("{}: {e}", bin.display()))?;
        let mut daemon = Daemon { child, socket };
        let deadline = Instant::now() + Duration::from_secs(20);
        while UnixStream::connect(&daemon.socket).is_err() {
            if Instant::now() > deadline {
                return Err("daemon did not start listening".into());
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited at start-up ({status})"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(daemon)
    }

    /// Runs `f` with every thread of the daemon stopped (`SIGSTOP`, resumed
    /// with `SIGCONT` afterwards), so that nothing the daemon does between
    /// requests competes with `f` for the CPUs.
    ///
    /// # Errors
    ///
    /// The daemon could not be stopped within a second.
    fn frozen<T>(&self, f: impl FnOnce() -> T) -> Result<T, String> {
        let pid = self.child.id();
        // SAFETY: kill(2) only sends a signal to our own child process.
        let sent = unsafe { kill(pid as i32, SIGSTOP) } == 0;
        let deadline = Instant::now() + Duration::from_secs(1);
        let mut stopped = sent && all_threads_stopped(pid);
        while sent && !stopped && Instant::now() < deadline {
            std::thread::sleep(Duration::from_micros(100));
            stopped = all_threads_stopped(pid);
        }
        let out = stopped.then(f);
        // SAFETY: as above.
        unsafe { kill(pid as i32, SIGCONT) };
        out.ok_or_else(|| format!("daemon {pid} did not stop for the host-speed reading"))
    }

    fn stats(&self) -> Result<Json, String> {
        let v = Conn::open(&self.socket).map_err(|e| e.to_string())?.call("{\"op\": \"stats\"}")?;
        v.get("stats").cloned().ok_or_else(|| "stats line without stats".into())
    }

    /// Drains the daemon and waits for it to exit.
    fn stop(mut self) -> Result<(), String> {
        if let Ok(mut c) = Conn::open(&self.socket) {
            let _ = c.writer.write_all(b"{\"op\": \"shutdown\"}\n");
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return Ok(()),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("daemon did not drain".into()),
            }
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

/// Reads `stats.<section>.<key>` from a stats object as a number.
fn stat(stats: &Json, section: &str, key: &str) -> f64 {
    stats.get(section).and_then(|s| s.get(key)).and_then(Json::as_num).unwrap_or(0.0)
}

/// What one session produced.
#[derive(Debug, Default)]
struct SessionOut {
    /// Session number in the script.
    s: u64,
    /// Host slowdown around the session; every time below is divided by it.
    slowdown: f64,
    latency_ms: f64,
    replay_ms: Vec<f64>,
    cold_ms: Vec<f64>,
    edited: Vec<usize>,
    attempted: u64,
    failed: u64,
    shed: u64,
}

/// Whether a `done` line is a correct answer: status 0, neither shed nor
/// cancelled, and the reference bound.
fn answer_ok(done: &Json, want: TimeBound) -> bool {
    let flag = |k: &str| matches!(done.get(k), Some(Json::Bool(true)));
    let bound: Option<Vec<u64>> = done
        .get("bound")
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_u64).collect());
    done.get("status").and_then(Json::as_num) == Some(0.0)
        && !flag("shed")
        && !flag("cancelled")
        && bound == Some(vec![want.lower, want.upper])
}

fn run_session(
    conn: &mut Conn,
    seed: u64,
    s: u64,
    benches: &[Benchmark],
    refs: &[Reference],
) -> SessionOut {
    let script = session(seed, s, benches.len());
    let mut out = SessionOut { s, ..SessionOut::default() };
    let t0 = Instant::now();
    for (k, req) in script.iter().enumerate() {
        let line = request_line(s * 100 + k as u64, &benches[req.routine], req);
        let t = Instant::now();
        let done = conn.call(&line);
        let lat = ms(t.elapsed());
        out.attempted += 1;
        match &done {
            Ok(d) => {
                if matches!(d.get("shed"), Some(Json::Bool(true))) {
                    out.shed += 1;
                }
                if !answer_ok(d, refs[req.routine].bound) {
                    out.failed += 1;
                }
            }
            Err(_) => out.failed += 1,
        }
        if req.edit.is_some() {
            out.cold_ms.push(lat);
            out.edited.push(req.routine);
        } else {
            out.replay_ms.push(lat);
        }
        if done.is_err() {
            // The connection is gone: the rest of the session fails too.
            let left = (script.len() - k - 1) as u64;
            out.attempted += left;
            out.failed += left;
            break;
        }
    }
    out.latency_ms = ms(t0.elapsed());
    out
}

impl SessionOut {
    /// Divides every time of the session by the host slowdown around it.
    fn scale(&mut self, slowdown: f64) {
        self.slowdown = slowdown;
        self.latency_ms /= slowdown;
        for t in self.replay_ms.iter_mut().chain(&mut self.cold_ms) {
            *t /= slowdown;
        }
    }
}

/// Length of one calibration epoch of the closed loop.
const EPOCH: Duration = Duration::from_secs(1);

/// Drives `CONNECTIONS` closed-loop connections for `seconds`. Every
/// [`EPOCH`] both connections pause at a session boundary and the host
/// slowdown is read on every core with the daemon frozen (see
/// [`Daemon::frozen`]): under load the reading would count the daemon's
/// requests as host slowness, and at idle whatever the daemon does between
/// requests. Each session is scaled by the mean of the readings at the
/// ends of its epoch. Returns the sessions, the wall time, and the
/// daemon's peak RSS once session [`MEM_SESSION`] finished (or at the end,
/// if the run was shorter).
fn drive(
    daemon: &Daemon,
    seed: u64,
    seconds: f64,
    benches: &[Benchmark],
    refs: &[Reference],
) -> Result<(Vec<SessionOut>, f64, f64), String> {
    let conns = (0..CONNECTIONS)
        .map(|_| Conn::open(&daemon.socket).map_err(|e| format!("connect: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let next = AtomicU64::new(0);
    let pid = daemon.child.id().to_string();
    let mem = Mutex::new(None);
    let barrier = Barrier::new(CONNECTIONS);
    let calib_err = Mutex::new(None);
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    // (end of the current epoch, reading at its start, scale factor of the
    // epoch just closed, whether the run is over)
    let first = daemon.frozen(slowdown_all_cores)?;
    let epoch = Mutex::new((t0 + EPOCH.min(deadline - t0), first, 1.0, false));
    let sessions = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .map(|mut conn| {
                let (next, mem, pid, barrier, epoch) = (&next, &mem, &pid, &barrier, &epoch);
                let calib_err = &calib_err;
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let end = epoch.lock().expect("epoch lock").0;
                        let mut mine = Vec::new();
                        while mine.is_empty() || Instant::now() < end {
                            let s = next.fetch_add(1, Ordering::SeqCst);
                            mine.push(run_session(&mut conn, seed, s, benches, refs));
                            if s == MEM_SESSION {
                                *mem.lock().expect("mem lock") = peak_rss_mb(pid);
                            }
                        }
                        if barrier.wait().is_leader() {
                            let reading = daemon.frozen(slowdown_all_cores);
                            let mut e = epoch.lock().expect("epoch lock");
                            let t = Instant::now();
                            let now = *reading.as_ref().unwrap_or(&e.1);
                            *e = (t + EPOCH, now, (e.1 + now) / 2.0, t >= deadline);
                            if let Err(err) = reading {
                                e.3 = true;
                                *calib_err.lock().expect("calibration lock") = Some(err);
                            }
                        }
                        barrier.wait();
                        let (_, _, factor, over) = *epoch.lock().expect("epoch lock");
                        for s in &mut mine {
                            s.scale(factor);
                        }
                        done.append(&mut mine);
                        if over {
                            return done;
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked"))
            .collect::<Result<Vec<_>, _>>()
    })?;
    if let Some(err) = calib_err.into_inner().expect("calibration lock") {
        return Err(err);
    }
    let wall = t0.elapsed().as_secs_f64();
    let peak = mem.into_inner().expect("mem lock").or_else(|| peak_rss_mb(&pid)).unwrap_or(0.0);
    Ok((sessions.into_iter().flatten().collect(), wall, peak))
}

/// One set-up: a daemon on `<base>.sock` and `<base>.store`, primed with
/// one request for every routine.
fn start_primed(
    bin: &Path,
    base: &Path,
    benches: &[Benchmark],
    refs: &[Reference],
) -> Result<Daemon, String> {
    let daemon = Daemon::start(bin, base)?;
    let mut conn = Conn::open(&daemon.socket).map_err(|e| e.to_string())?;
    for (i, b) in benches.iter().enumerate() {
        let req = Request { routine: i, edit: None, audit: false };
        let done = conn.call(&request_line(i as u64, b, &req))?;
        if !answer_ok(&done, refs[i].bound) {
            return Err(format!("priming {} failed: {}", b.name, done.render()));
        }
    }
    Ok(daemon)
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up failures; request failures only lower `ok_frac`.
pub fn run(cfg: &Config) -> Result<RunResult, String> {
    let bin = cfg.cinderella.as_deref().ok_or("serve needs --cinderella PATH")?;
    let dir = cfg.scratch.as_ref().ok_or("serve needs a scratch directory")?.path();
    let benches = ipet_suite::all();
    let refs = references(&benches)?;

    // Set-up: start the daemon and prime it with one pass over the suite,
    // SETUP_REPS times; `setup_s` is the median. The daemon works on both
    // cores, so each set-up is scaled by the two-core host slowdown read
    // before it and after it (with the new daemon frozen).
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut daemon = None;
    for tag in 0..SETUP_REPS {
        drop(daemon.take());
        let before = slowdown_all_cores();
        let t = Instant::now();
        let d = start_primed(bin, &dir.join(format!("d{tag}")), &benches, &refs)?;
        let raw_s = t.elapsed().as_secs_f64();
        let after = d.frozen(slowdown_all_cores)?;
        times.push(2.0 * raw_s / (before + after));
        daemon = Some(d);
    }
    let daemon = daemon.ok_or("no set-up ran")?;
    let setup_s = median(&times);

    let window = if cfg.trace { cfg.seconds / 2.0 } else { cfg.seconds };
    let before = daemon.stats()?;
    let (sessions, wall, peak) = drive(&daemon, cfg.seed, window, &benches, &refs)?;
    let after = daemon.stats()?;
    daemon.stop()?;

    let mut out = RunResult::default();
    let edits: Vec<usize> = sessions.iter().flat_map(|s| s.edited.iter().copied()).collect();
    let want_misses: u64 = edits.iter().map(|&r| refs[r].edit_misses).sum();
    let misses = stat(&after, "pool", "misses") - stat(&before, "pool", "misses");
    // Every edit must have missed the caches, and nothing else may have.
    out.run_checks_ok = misses == want_misses as f64;
    if !out.run_checks_ok {
        eprintln!("perfbench: serve: pool misses grew by {misses}, edits predict {want_misses}");
    }
    out.attempted = sessions.iter().map(|s| s.attempted).sum();
    out.failed = sessions.iter().map(|s| s.failed).sum();
    let requests = out.attempted as f64;
    let session_ms: Vec<f64> = sessions.iter().map(|s| s.latency_ms).collect();
    let replay: Vec<f64> = sessions
        .iter()
        .filter(|s| !s.replay_ms.is_empty())
        .map(|s| s.replay_ms.iter().sum::<f64>() / s.replay_ms.len() as f64)
        .collect();
    // Edit latencies span two orders of magnitude across routines, so the
    // median is taken over complete rotation cycles (13 sessions that edit
    // every routine once), each reporting its mean edit latency.
    let mut cycles: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for s in &sessions {
        cycles.entry(s.s / benches.len() as u64).or_default().extend(&s.cold_ms);
    }
    let cold: Vec<f64> = cycles
        .values()
        .filter(|c| c.len() == benches.len())
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect();
    let cold = if cold.is_empty() {
        sessions.iter().flat_map(|s| s.cold_ms.iter().copied()).collect()
    } else {
        cold
    };
    let slowdowns: Vec<f64> = sessions.iter().map(|s| s.slowdown).collect();
    crate::report_slowdown("serve", &slowdowns, median(&session_ms));
    let m = &mut out.metrics;
    m.insert("setup_s", setup_s);
    m.insert("latency_ms.p50", median(&session_ms));
    m.insert("latency_ms.p90", quantile(&session_ms, 0.9));
    m.insert("replay_ms.p50", median(&replay));
    m.insert("cold_ms.p50", median(&cold));
    let mean_slowdown = slowdowns.iter().sum::<f64>() / slowdowns.len().max(1) as f64;
    m.insert("throughput_ops_s", requests / wall * mean_slowdown);
    m.insert("peak_mem_mb", peak);
    let ok_frac = out.ok_frac();
    out.metrics.insert("ok_frac", ok_frac);
    if cfg.trace {
        let shed: u64 = sessions.iter().map(|s| s.shed).sum();
        let mean_request_ms = session_ms.iter().sum::<f64>() / requests;
        let m = &mut out.metrics;
        m.insert("serve.shed_frac", frac(shed as f64, requests));
        let d = |section, key| stat(&after, section, key) - stat(&before, section, key);
        m.insert(
            "pool.cache.hit_frac",
            frac(d("pool", "hits"), d("pool", "hits") + d("pool", "misses")),
        );
        m.insert(
            "store.hit_frac",
            frac(d("store", "hits"), d("store", "hits") + d("store", "misses")),
        );
        m.insert("ops", requests);
        traced(cfg, &benches, &refs, mean_request_ms, &mut out)?;
    }
    Ok(out)
}

/// The request path of one replay in-process: the front end, then the
/// plan answered from a warm pool. Returns the plan.
fn request_path(
    b: &Benchmark,
    pool: &SolvePool,
    clock: &mut Clock,
) -> Result<AnalysisPlan, String> {
    let plan = plan_one(b, None, clock)?;
    let solve = AnalysisBudget::default().solve;
    clock.time("pool.run_plans_ms", || drop(pool.run_plans(std::slice::from_ref(&plan), &solve)));
    Ok(plan)
}

/// Per-layer numbers for `serve`, measured in-process on the daemon's
/// request path (the daemon's own time is only visible from outside).
/// Each routine is requested equally often, so a per-request figure is
/// the mean over routines of that routine's median.
fn traced(
    cfg: &Config,
    benches: &[Benchmark],
    refs: &[Reference],
    mean_request_ms: f64,
    out: &mut RunResult,
) -> Result<(), String> {
    const REPS: usize = 5;
    let solve = AnalysisBudget::default().solve;
    let start_reading = host_slowdown();
    let pools: Vec<SolvePool> = benches.iter().map(|_| SolvePool::new(1)).collect();
    for (b, pool) in benches.iter().zip(&pools) {
        request_path(b, pool, &mut Clock::new(false))?;
    }
    // Recorder-off baseline for trace.overhead_frac.
    let mut untraced = Vec::new();
    for _ in 0..REPS {
        let (res, pass_ms) = crate::timed(|| {
            benches
                .iter()
                .zip(&pools)
                .try_for_each(|(b, pool)| request_path(b, pool, &mut Clock::new(false)).map(drop))
        });
        res?;
        untraced.push(pass_ms);
    }

    ipet_trace::install();
    let mut per_routine: Vec<Samples> = benches.iter().map(|_| Samples::default()).collect();
    let mut traced_passes = Vec::new();
    for _ in 0..REPS {
        let before_pass = host_slowdown();
        let mut pass_ms = 0.0;
        for ((b, pool), samples) in benches.iter().zip(&pools).zip(&mut per_routine) {
            let mut clock = Clock::new(true);
            let before = crate::counters();
            let t = Instant::now();
            let plan = request_path(b, pool, &mut clock)?;
            pass_ms += ms(t.elapsed());
            front_counters(&mut clock, &before, &crate::counters());
            // The audit's share of an audited request.
            let plans = std::slice::from_ref(&plan);
            let audited = pool.run_plans_audited(plans, &solve);
            clock.add("audit.ms", crate::audit_ms(plans, &audited.report.outcomes));
            let (cert, total) = audited.results.iter().flatten().fold((0, 0), |(c, t), (_, a)| {
                (c + a.certified(), t + a.certified() + a.rejected())
            });
            clock.add("audit.certified_frac", frac(cert as f64, total as f64));
            clock.add(
                "infer.inferred_frac",
                frac(clock.get("infer.inferred"), clock.get("infer.total")),
            );
            clock.add("serve.front_ms", clock.sum(&crate::suite::FRONT_LAYERS));
            clock.flush_into(samples);
        }
        traced_passes.push(2.0 * pass_ms / (before_pass + host_slowdown()));
    }
    let mut zero_tick = 0u64;
    // The cold side: each routine's edited plan on a fresh pool, with the
    // solver counters it moves and the direct lp reference solves.
    for (r, samples) in refs.iter().zip(&mut per_routine) {
        let mut clock = Clock::new(true);
        let before = crate::counters();
        let t = Instant::now();
        let batch = SolvePool::new(1).run_plans(std::slice::from_ref(&r.edit_plan), &solve);
        let edit_ms = ms(t.elapsed());
        lp_counters(&mut clock, &before, &crate::counters());
        let ticks = clock.get("lp.ticks");
        let op = format!("serve edit of routine {}", r.name);
        if crate::tick_report(&op, edit_ms, ticks, batch.report.total_ticks) {
            zero_tick += 1;
        }
        if ticks > 0.0 {
            clock.add("lp.ms_per_tick", edit_ms / ticks);
        }
        clock.add("edit.run_plans_ms", edit_ms);
        for job in r.edit_plan.jobs() {
            clock
                .time("lp.solve_ilp_ms", || std::hint::black_box(ipet_lp::solve_ilp(&job.problem)));
            clock.time("lp.solve_lp_ms", || std::hint::black_box(ipet_lp::solve_lp(&job.problem)));
        }
        clock.flush_into(samples);
    }

    let store_flush = store_flush_ms(benches, cfg)?;
    let m = &mut out.metrics;
    for (name, _) in crate::PER_LAYER {
        if !m.contains_key(name) {
            let mean =
                per_routine.iter().map(|s| s.median(name)).sum::<f64>() / benches.len() as f64;
            m.insert(name, mean);
        }
    }
    m.insert("lp.zero_tick_frac", frac(zero_tick as f64, refs.len() as f64));
    m.insert("store.flush_ms", store_flush);
    m.insert("trace.overhead_frac", median(&traced_passes) / median(&untraced) - 1.0);
    // A session is 12 replays and one edit, so the mean request's solve
    // share weighs the edit's cold solve by 1/13.
    let n = benches.len() as f64;
    let edit_ms = per_routine.iter().map(|s| s.median("edit.run_plans_ms")).sum::<f64>() / n;
    let solve_ms = ((n - 1.0) * m["pool.run_plans_ms"] + edit_ms) / n;
    // The request latencies are scaled by the host slowdown, so the
    // in-process layer times are scaled by the slowdown they ran under.
    let slowdown = (start_reading + host_slowdown()) / 2.0;
    let attributed = (m["serve.front_ms"] + solve_ms + store_flush) / slowdown;
    m.insert("unattributed_frac", 1.0 - attributed / mean_request_ms);
    Ok(())
}

/// Median `Store::flush` time on a store holding the suite's solves, the
/// flush every serve request pays.
fn store_flush_ms(benches: &[Benchmark], cfg: &Config) -> Result<f64, String> {
    let dir = cfg.scratch.as_ref().ok_or("no scratch directory")?.path();
    let store = Arc::new(ipet_store::Store::open(dir.join("inproc.store")));
    let pool = SolvePool::new(1).with_store(Arc::clone(&store));
    for b in benches {
        request_path(b, &pool, &mut Clock::new(false))?;
    }
    Ok(crate::time_flushes(&store))
}
