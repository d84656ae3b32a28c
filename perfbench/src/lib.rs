//! # perfbench
//!
//! The repository's benchmark. Three workloads time the IPET pipeline end
//! to end and check every result:
//!
//! * [`suite`] — a cold `--infer` pass over the 13 bundled routines;
//! * [`scale`] — one seeded synthetic program per operation;
//! * [`serve`] — edit sessions against a `cinderella serve` daemon.
//!
//! Timed runs leave tracing off. A separate traced run times each layer
//! from outside, by wrapping calls to that layer's public functions in a
//! `Clock`, and reads the counters the `ipet-trace` recorder keeps.
//! `NOTES.md` records why each workload exists and how the metrics were
//! made steady.

pub mod scale;
pub mod serve;
pub mod suite;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// End-to-end metrics every workload prints with `--trace 0`, with units.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.p90", "ms"),
    ("throughput_ops_s", "1/s"),
    ("ok_frac", "frac"),
    ("peak_mem_mb", "MB"),
    ("replay_ms.p50", "ms"),
    ("cold_ms.p50", "ms"),
];

/// Per-layer metrics every workload prints with `--trace 1`, with units.
/// A layer a workload never reaches reports 0.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("lang.parse_ms", "ms"),
    ("lang.compile_ms", "ms"),
    ("lang.instrs", "count"),
    ("cfg.analyzer_new_ms", "ms"),
    ("cfg.blocks", "count"),
    ("infer.ms", "ms"),
    ("infer.inferred_frac", "frac"),
    ("core.annotations_ms", "ms"),
    ("core.plan_ms", "ms"),
    ("core.plan.rows", "count"),
    ("core.jobs", "count"),
    ("pool.run_plans_ms", "ms"),
    ("pool.cache.hit_frac", "frac"),
    ("lp.solve_ilp_ms", "ms"),
    ("lp.solve_lp_ms", "ms"),
    ("lp.ticks", "count"),
    ("lp.bb_nodes", "count"),
    ("lp.ms_per_tick", "ms"),
    ("lp.zero_tick_frac", "frac"),
    ("lp.warm.hit_frac", "frac"),
    ("lp.sparse.accept_frac", "frac"),
    ("lp.network.accept_frac", "frac"),
    ("audit.ms", "ms"),
    ("audit.certified_frac", "frac"),
    ("store.flush_ms", "ms"),
    ("store.hit_frac", "frac"),
    ("serve.shed_frac", "frac"),
    ("serve.front_ms", "ms"),
    ("trace.overhead_frac", "frac"),
    ("unattributed_frac", "frac"),
    ("ops", "count"),
];

/// True when `name` is a legal metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Deterministic SplitMix64 generator: every input of a run derives from
/// `--seed` through it, so the same seed gives the same inputs.
#[derive(Debug, Clone)]
pub(crate) struct Rng(u64);

impl Rng {
    /// A generator for `seed`; `stream` separates independent draws.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`); the modulo bias is below 2^-40 here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// The `q`-quantile (`0 <= q <= 1`) of `values`, interpolating linearly
/// between order statistics; 0 for an empty sample.
pub(crate) fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values` (0 for an empty sample).
pub(crate) fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Milliseconds in `d`.
pub(crate) fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `num / den`, or 0 when nothing was attempted.
pub(crate) fn frac(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Wall time in milliseconds of [`calibrate`] on the reference host (a
/// 2-vCPU x86-64 VM, Intel Xeon at 2.1 GHz) while it ran at full speed.
pub(crate) const CALIB_REF_MS: f64 = 0.43;

/// Runs a fixed CPU kernel that shares no code with the repository (sort,
/// ordered-map inserts, small allocations, dense Gaussian elimination) and
/// returns its wall time in milliseconds.
pub(crate) fn calibrate() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let mut v: Vec<u64> = (0..4096)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    v.sort_unstable();
    let mut map = BTreeMap::new();
    for (i, k) in v.iter().enumerate().take(2048) {
        map.insert(k % 10_007, format!("v{i}"));
    }
    let n = 48;
    let mut a: Vec<f64> = (0..n * n)
        .map(|i| ((i * 7919) % 101) as f64 + if i % (n + 1) == 0 { 600.0 } else { 0.0 })
        .collect();
    for p in 0..n {
        let pivot = a[p * n + p];
        for r in (0..n).filter(|&r| r != p) {
            let f = a[r * n + p] / pivot;
            for c in 0..n {
                a[r * n + c] -= f * a[p * n + c];
            }
        }
    }
    std::hint::black_box((&v, &map, &a));
    ms(t.elapsed())
}

/// How much slower than the reference the host runs right now: the
/// calibration kernel's time over [`CALIB_REF_MS`].
///
/// The benchmark's hosts share CPUs with other machines, and their speed
/// swings by up to 2x for seconds at a time (the kernel and the pipeline
/// slow down together; the guest sees no steal time). Every end-to-end
/// time is therefore divided by the slowdown measured right before and
/// after it, which reports it at the reference host's full speed. The
/// kernel shares no code with the repository, so a change to the
/// repository cannot move it.
pub(crate) fn host_slowdown() -> f64 {
    // The fastest of three runs, so one interrupt does not read as a slow
    // host.
    (0..3).map(|_| calibrate()).fold(f64::INFINITY, f64::min) / CALIB_REF_MS
}

/// Host slowdown read on both cores at once: one [`host_slowdown`] per
/// core, run side by side, averaged. Work that spreads over threads may
/// run on either core, and the cores can slow down independently.
pub(crate) fn slowdown_all_cores() -> f64 {
    let readings: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CORES).map(|_| scope.spawn(host_slowdown)).collect();
        handles.into_iter().map(|h| h.join().expect("calibration thread")).collect()
    });
    readings.iter().sum::<f64>() / readings.len() as f64
}

/// Cores of the benchmark's host; the load never uses more threads.
pub(crate) const CORES: usize = 2;

/// Runs `f` bracketed by two [`host_slowdown`] readings and returns its
/// result and its wall time in milliseconds divided by the mean slowdown.
pub(crate) fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let before = host_slowdown();
    let t = Instant::now();
    let out = f();
    let raw = ms(t.elapsed());
    (out, 2.0 * raw / (before + host_slowdown()))
}

/// Prints the host slowdown a run saw on stderr, next to the unscaled
/// median, so a reader can undo the scaling.
pub(crate) fn report_slowdown(workload: &str, slowdowns: &[f64], p50_ms: f64) {
    let s = median(slowdowns);
    eprintln!(
        "perfbench: {workload}: host slowdown median {s:.3} (range {:.3}-{:.3}); \
         latency p50 {p50_ms:.3} ms scaled, {:.3} ms as measured",
        quantile(slowdowns, 0.0),
        quantile(slowdowns, 1.0),
        p50_ms * s
    );
}

/// The audit's share of an audited batch, timed directly: the plans'
/// `complete_audited` minus `complete` over the batch's own verdicts, which
/// is all that separates `run_plans_audited` from `run_plans`. Median of
/// five repetitions, in milliseconds. (Timing two whole batches on fresh
/// pools and subtracting leaves the audit far below the host's noise.)
pub(crate) fn audit_ms(
    plans: &[ipet_core::AnalysisPlan],
    outcomes: &[ipet_pool::JobOutcome],
) -> f64 {
    let mut verdicts = Vec::with_capacity(plans.len());
    let mut rest = outcomes;
    for plan in plans {
        let Some((mine, tail)) = rest.split_at_checked(plan.jobs().len()) else {
            return 0.0;
        };
        let v: Vec<ipet_core::JobVerdict> = mine
            .iter()
            .map(|o| ipet_core::JobVerdict::Solved(o.resolution.clone(), o.stats))
            .collect();
        verdicts.push(v);
        rest = tail;
    }
    let fold = |audited: bool| {
        let t = Instant::now();
        for (plan, v) in plans.iter().zip(&verdicts) {
            if audited {
                drop(std::hint::black_box(plan.complete_audited(v)));
            } else {
                drop(std::hint::black_box(plan.complete(v)));
            }
        }
        ms(t.elapsed())
    };
    let diffs: Vec<f64> = (0..5).map(|_| fold(true) - fold(false)).collect();
    median(&diffs)
}

/// Prints one traced operation's solver time per counted tick on stderr
/// and returns whether it is a zero-tick finding: pool time spent while
/// the recorder's `lp.ticks` or the batch's `BatchReport.total_ticks`
/// read 0.
pub(crate) fn tick_report(op: &str, pool_ms: f64, ticks: f64, batch_ticks: u64) -> bool {
    let per_tick = if ticks > 0.0 { format!("{:.5}", pool_ms / ticks) } else { "-".into() };
    let finding = pool_ms > 0.0 && (ticks == 0.0 || batch_ticks == 0);
    eprintln!(
        "perfbench: {op}: lp.ms_per_tick = {per_tick} (run_plans {pool_ms:.2} ms, lp.ticks = \
         {ticks}, BatchReport.total_ticks = {batch_ticks}){}",
        if finding { "  finding: solve time with a zero tick count" } else { "" }
    );
    finding
}

/// Outside timers for one operation: each [`Clock::time`] call adds the
/// wall time of one call into a layer, named after the metric it feeds.
/// A clock made with `on == false` only runs the closures, so untraced
/// runs pay no timer reads.
#[derive(Debug, Default)]
pub(crate) struct Clock {
    on: bool,
    values: BTreeMap<&'static str, f64>,
}

impl Clock {
    /// A clock that records (`on`) or only runs the timed closures.
    pub fn new(on: bool) -> Clock {
        Clock { on, values: BTreeMap::new() }
    }

    /// Runs `f`, adding its wall time in milliseconds to `layer`.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let out = f();
        *self.values.entry(layer).or_default() += ms(t.elapsed());
        out
    }

    /// Adds `v` to the named value (a count or a time measured elsewhere).
    pub fn add(&mut self, name: &'static str, v: f64) {
        if self.on {
            *self.values.entry(name).or_default() += v;
        }
    }

    /// The accumulated value of `name` (0 if never recorded).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Sum of the named layer times.
    pub fn sum(&self, names: &[&str]) -> f64 {
        names.iter().map(|n| self.get(n)).sum()
    }

    /// Moves every recorded value into `samples` as one operation's sample
    /// and clears the clock.
    pub fn flush_into(&mut self, samples: &mut Samples) {
        for (name, v) in std::mem::take(&mut self.values) {
            samples.push(name, v);
        }
    }
}

/// Per-operation samples of each per-layer metric; a metric reports the
/// median over operations.
#[derive(Debug, Default)]
pub(crate) struct Samples {
    values: BTreeMap<&'static str, Vec<f64>>,
}

impl Samples {
    /// Records one operation's value of `name`.
    pub fn push(&mut self, name: &'static str, v: f64) {
        self.values.entry(name).or_default().push(v);
    }

    /// Median over the recorded operations (0 when none recorded).
    pub fn median(&self, name: &str) -> f64 {
        self.values.get(name).map_or(0.0, |v| median(v))
    }
}

/// The installed `ipet-trace` recorder's counters (empty when tracing is
/// off).
pub(crate) fn counters() -> BTreeMap<String, u64> {
    ipet_trace::snapshot().map(|d| d.counters).unwrap_or_default()
}

/// Growth of counter `name` between two [`counters`] snapshots.
pub(crate) fn grew(
    before: &BTreeMap<String, u64>,
    after: &BTreeMap<String, u64>,
    name: &str,
) -> f64 {
    let b = before.get(name).copied().unwrap_or(0);
    let a = after.get(name).copied().unwrap_or(0);
    a.saturating_sub(b) as f64
}

/// Records the solver-effort counters that grew between two snapshots as
/// one operation's lp sample.
pub(crate) fn lp_counters(
    clock: &mut Clock,
    before: &BTreeMap<String, u64>,
    after: &BTreeMap<String, u64>,
) {
    let g = |n: &str| grew(before, after, n);
    clock.add("lp.ticks", g("lp.ticks"));
    clock.add("lp.bb_nodes", g("lp.bb_nodes"));
    clock.add("lp.warm.hit_frac", frac(g("lp.warm.hits"), g("lp.warm.hits") + g("lp.warm.misses")));
    clock.add("lp.sparse.accept_frac", frac(g("lp.sparse.accepted"), g("lp.sparse.solves")));
    clock.add("lp.network.accept_frac", frac(g("lp.network.accepted"), g("lp.network.routed")));
}

/// Records the front end's size counters (CFG blocks built, constraint
/// rows planned) that grew between two snapshots.
pub(crate) fn front_counters(
    clock: &mut Clock,
    before: &BTreeMap<String, u64>,
    after: &BTreeMap<String, u64>,
) {
    let g = |n: &str| grew(before, after, n);
    clock.add("cfg.blocks", g("cfg.blocks"));
    clock.add("core.plan.rows", g("core.plan.base_rows") + g("core.plan.delta_rows"));
}

/// Peak resident set size (`VmHWM`) of process `pid` (`"self"` for this
/// one) in MiB, read from `/proc`.
pub(crate) fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

extern "C" {
    /// glibc's `malloc_trim(3)`: returns the allocator's free memory to the
    /// kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Returns free heap memory to the kernel, then resets this process's peak
/// RSS (`VmHWM`) to its current RSS, so that the next [`peak_rss_mb`]
/// reading covers only what runs in between, on top of the live heap
/// rather than of whatever earlier work left free. Returns false where the
/// kernel does not allow the reset.
pub(crate) fn reset_peak_rss() -> bool {
    // SAFETY: malloc_trim only releases memory the allocator holds free.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// What one run of a workload produced.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operations attempted (passes, programs or requests).
    pub attempted: u64,
    /// Operations that failed, were refused, or returned a wrong result.
    pub failed: u64,
    /// False when a whole-run check failed (e.g. the cache-miss audit).
    pub run_checks_ok: bool,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl RunResult {
    /// Share of attempted operations that were correct.
    pub fn ok_frac(&self) -> f64 {
        frac((self.attempted - self.failed) as f64, self.attempted as f64)
    }

    /// The result line: one JSON object with the metrics listed in
    /// `names`, each with its unit. A metric the run did not produce is an
    /// error, never a silent omission.
    pub fn to_json(&self, names: &[(&str, &str)]) -> Result<String, String> {
        let mut parts = Vec::new();
        for (name, unit) in names {
            let v = *self.metrics.get(name).ok_or_else(|| format!("metric {name} missing"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite ({v})"));
            }
            parts.push(format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"));
        }
        let correct = self.failed == 0 && self.run_checks_ok && self.attempted > 0;
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            parts.join(", ")
        ))
    }
}

/// Settings of one run, from the command line.
#[derive(Debug)]
pub struct Config {
    /// Seed every input of the run derives from.
    pub seed: u64,
    /// Length of the measured window in seconds (a traced run splits it
    /// between an untraced and a traced half).
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// The `cinderella` binary the `serve` workload starts.
    pub cinderella: Option<PathBuf>,
    /// Private directory for sockets and store files.
    pub scratch: Option<Scratch>,
}

/// A private scratch directory, removed with everything in it on drop.
#[derive(Debug)]
pub struct Scratch(PathBuf);

impl Scratch {
    /// Creates `<parent>/perfbench-<pid>`. Keep `parent` relative and short:
    /// the `serve` workload binds a unix socket in it, and socket paths are
    /// limited to about 100 bytes.
    ///
    /// # Errors
    ///
    /// The directory cannot be created.
    pub fn create(parent: &Path) -> Result<Scratch, String> {
        let dir = parent.join(format!("perfbench-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Median wall time in milliseconds of seven `Store::flush` calls.
pub fn time_flushes(store: &ipet_store::Store) -> f64 {
    let times: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            let _ = store.flush();
            ms(t.elapsed())
        })
        .collect();
    median(&times)
}

/// How many times each workload's set-up runs; `setup_s` is the median.
pub(crate) const SETUP_REPS: usize = 9;

/// Runs `setup` [`SETUP_REPS`] times and returns the last result with the
/// median set-up time in seconds (scaled by [`timed`]). Earlier results
/// are dropped, which is where a workload tears down what a set-up
/// started.
pub(crate) fn repeat_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let (res, ms) = timed(&mut setup);
        last = Some(res?);
        times.push(ms / 1e3);
    }
    Ok((last.expect("at least one set-up ran"), median(&times)))
}
