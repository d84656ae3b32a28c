//! `suite`: one operation is a cold pass over the 13 bundled routines.
//!
//! Each pass builds a fresh [`SolvePool`] and, per routine, compiles the
//! source, builds the [`Analyzer`], merges inferred loop bounds into the
//! routine's annotations (`--infer`), and plans; then one audited batch
//! solves every routine's ILPs. This is the paper's workload and what a CI
//! job re-checking a code base pays. Aggregating whole passes keeps the
//! numbers steady: no percentile here lands on a sub-millisecond routine.

use crate::{
    frac, front_counters, host_slowdown, lp_counters, median, ms, peak_rss_mb, quantile,
    repeat_setup, Clock, Config, Rng, RunResult, Samples, Scratch,
};
use ipet_core::{AnalysisBudget, AnalysisPlan, Analyzer, TimeBound};
use ipet_hw::Machine;
use ipet_pool::{AuditedPlanBatch, SolvePool};
use ipet_suite::Benchmark;
use ipet_trace::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The bounds committed in the bench gate's baseline file
/// (`BENCH_baseline.json`): `(routine, t_min, t_max)` under the `--infer`
/// merge the gate runs. A pass is correct only if it reproduces every one
/// of them exactly.
///
/// # Errors
///
/// The file is missing or does not hold a `benchmarks` list of rows with
/// `name`, `lower` and `upper`.
pub fn baseline(path: &Path) -> Result<Vec<(String, u64, u64)>, String> {
    let err = |e: &dyn std::fmt::Display| format!("{}: {e}", path.display());
    let text = std::fs::read_to_string(path).map_err(|e| err(&e))?;
    let doc = ipet_trace::parse_json(&text).map_err(|e| err(&e))?;
    let rows = doc.get("benchmarks").and_then(Json::as_arr).ok_or_else(|| err(&"no benchmarks"))?;
    rows.iter()
        .map(|r| {
            let num = |f: &str| r.get(f).and_then(Json::as_u64);
            match (r.get("name").and_then(Json::as_str), num("lower"), num("upper")) {
                (Some(name), Some(lower), Some(upper)) => Ok((name.to_string(), lower, upper)),
                _ => Err(err(&"a benchmark row lacks name, lower or upper")),
            }
        })
        .collect()
}

/// Layers whose outside timers make up a pass's attributed time.
pub(crate) const FRONT_LAYERS: [&str; 6] = [
    "lang.compile_ms",
    "lang.parse_ms",
    "cfg.analyzer_new_ms",
    "core.annotations_ms",
    "infer.ms",
    "core.plan_ms",
];

/// One routine with the bound a pass must reproduce.
pub struct Routine {
    /// The bundled routine.
    pub bench: Benchmark,
    /// Its expected `[t_min, t_max]`.
    pub expected: TimeBound,
}

/// The 13 routines in a seeded order, each paired with its entry in
/// `expected`.
///
/// # Errors
///
/// Fails when `expected` lacks a routine.
pub fn routines(seed: u64, expected: &[(String, u64, u64)]) -> Result<Vec<Routine>, String> {
    let mut all = ipet_suite::all();
    Rng::new(seed, 1).shuffle(&mut all);
    all.into_iter()
        .map(|bench| {
            let &(_, lower, upper) = expected
                .iter()
                .find(|(n, _, _)| *n == bench.name)
                .ok_or_else(|| format!("no expected bound for {}", bench.name))?;
            Ok(Routine { bench, expected: TimeBound { lower, upper } })
        })
        .collect()
}

/// The simulated bound of each routine (`ipet_sim::measure` on its worst-
/// and best-case inputs), which every estimate must enclose.
///
/// # Errors
///
/// Propagates compile and simulation failures.
pub(crate) fn measured(routines: &[Routine]) -> Result<Vec<TimeBound>, String> {
    let machine = Machine::i960kb();
    routines
        .iter()
        .map(|r| {
            let b = &r.bench;
            let program = b.program().map_err(|e| format!("{}: {e}", b.name))?;
            let sim = |seeds: ipet_suite::Seeds, args: &[i32], cold: bool| {
                ipet_sim::measure(&program, machine, &seeds, args, cold)
                    .map(|s| s.cycles)
                    .map_err(|e| format!("{}: {e}", b.name))
            };
            let upper = sim((b.worst_seeds)(), b.args_worst, true)?;
            let lower = sim((b.best_seeds)(), b.args_best, false)?;
            Ok(TimeBound { lower, upper })
        })
        .collect()
}

/// The front end of a pass: per routine compile → [`Analyzer::new`] →
/// annotations → `infer_and_merge` → plan, each timed into `clock`.
///
/// # Errors
///
/// Any stage's failure, as text.
pub(crate) fn plans(routines: &[Routine], clock: &mut Clock) -> Result<Vec<AnalysisPlan>, String> {
    routines.iter().map(|r| plan_one(&r.bench, None, clock)).collect()
}

/// The front end for one routine, the way `cinderella analyze --infer`
/// and a serve request with `"infer": true` run it; `extra` is appended to
/// the routine's annotations like a request's `annotations` field.
///
/// # Errors
///
/// Any stage's failure, as text.
pub(crate) fn plan_one(
    b: &Benchmark,
    extra: Option<&str>,
    clock: &mut Clock,
) -> Result<AnalysisPlan, String> {
    let machine = Machine::i960kb();
    let budget = AnalysisBudget::default();
    let err = |e: &dyn std::fmt::Display| format!("{}: {e}", b.name);
    let program = clock.time("lang.compile_ms", || b.program()).map_err(|e| err(&e))?;
    clock.add("lang.instrs", crate::scale::instrs(&program) as f64);
    let module = clock.time("lang.parse_ms", || ipet_lang::parse_module(b.source)).ok();
    let analyzer = clock
        .time("cfg.analyzer_new_ms", || Analyzer::new(&program, machine))
        .map_err(|e| err(&e))?
        .with_warm_start(true);
    let anns = clock
        .time("core.annotations_ms", || {
            let mut text = b.annotations(&program);
            if let Some(extra) = extra {
                text.push('\n');
                text.push_str(extra);
            }
            ipet_core::parse_annotations(&text)
        })
        .map_err(|e| err(&e))?;
    let outcome = clock
        .time("infer.ms", || {
            ipet_infer::infer_and_merge(
                module.as_ref(),
                &analyzer,
                &anns,
                ipet_infer::InferMode::Merge,
            )
        })
        .map_err(|e| err(&e))?;
    clock.add("infer.inferred", outcome.counts.inferred as f64);
    clock.add("infer.total", outcome.counts.total as f64);
    let plan = clock
        .time("core.plan_ms", || analyzer.plan(&outcome.annotations, &budget))
        .map_err(|e| err(&e))?;
    clock.add("core.jobs", plan.jobs().len() as f64);
    Ok(plan)
}

/// One pass on `pool`: [`plans`], then one audited batch over all of them.
///
/// # Errors
///
/// A front-end failure (solve failures come back inside the batch).
pub(crate) fn pass(
    routines: &[Routine],
    pool: &SolvePool,
    clock: &mut Clock,
) -> Result<(Vec<AnalysisPlan>, AuditedPlanBatch), String> {
    let plans = plans(routines, clock)?;
    let solve = AnalysisBudget::default().solve;
    let batch = clock.time("pool.run_plans_ms", || pool.run_plans_audited(&plans, &solve));
    Ok((plans, batch))
}

/// The oracle: every routine's bound is exact, certified by the audit,
/// equal to its expected bound, and encloses its simulated bound.
pub(crate) fn correct(
    routines: &[Routine],
    measured: &[TimeBound],
    batch: &AuditedPlanBatch,
) -> bool {
    batch.results.len() == routines.len()
        && routines.iter().zip(measured).zip(&batch.results).all(|((r, m), res)| match res {
            Ok((est, audit)) => {
                est.quality.is_exact()
                    && audit.all_certified()
                    && est.bound == r.expected
                    && est.bound.encloses(*m)
            }
            Err(_) => false,
        })
}

/// Runs the workload against `expected` (normally [`baseline`]).
///
/// # Errors
///
/// Set-up failures; operation failures only lower `ok_frac`.
pub fn run(cfg: &Config, expected: &[(String, u64, u64)]) -> Result<RunResult, String> {
    // Set-up: load the routines and run one untimed warm-up pass, so lazy
    // initialisation and allocator growth stay out of the timed passes.
    let (routines, setup_s) = repeat_setup(|| {
        let rs = routines(cfg.seed, expected)?;
        pass(&rs, &SolvePool::new(1), &mut Clock::new(false))?;
        Ok(rs)
    })?;
    let measured = measured(&routines)?;

    let mut out = RunResult { run_checks_ok: true, ..RunResult::default() };
    let mut cold = Vec::new();
    let mut replay = Vec::new();
    let mut slowdowns = Vec::new();
    let window = if cfg.trace { cfg.seconds / 2.0 } else { cfg.seconds };
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(window);
    let mut reading = host_slowdown();
    while cold.is_empty() || Instant::now() < deadline {
        let it = iterate(&routines, &measured, &mut reading, &mut Clock::new(false));
        cold.push(it.cold_ms);
        replay.push(it.replay_ms);
        slowdowns.push(it.slowdown);
        out.attempted += 1;
        out.failed += u64::from(!it.ok);
    }

    crate::report_slowdown("suite", &slowdowns, median(&cold));
    let m = &mut out.metrics;
    m.insert("setup_s", setup_s);
    m.insert("latency_ms.p50", median(&cold));
    m.insert("latency_ms.p90", quantile(&cold, 0.9));
    m.insert("cold_ms.p50", median(&cold));
    m.insert("replay_ms.p50", median(&replay));
    m.insert("throughput_ops_s", 1e3 * cold.len() as f64 / cold.iter().sum::<f64>());
    if cfg.trace {
        traced(cfg, &routines, &measured, &cold, &mut out)?;
    }
    out.metrics.insert("ok_frac", out.ok_frac());
    out.metrics.insert("peak_mem_mb", peak_rss_mb("self").unwrap_or(0.0));
    Ok(out)
}

/// One measured iteration of the loop.
struct Iteration {
    /// The cold pass's plans and batch, when its front end succeeded.
    first: Result<(Vec<AnalysisPlan>, AuditedPlanBatch), String>,
    /// Both passes passed the oracle.
    ok: bool,
    /// Cold pass time, scaled by the host slowdown.
    cold_ms: f64,
    /// Cold pass time as measured.
    raw_cold_ms: f64,
    /// Replay pass time, scaled.
    replay_ms: f64,
    /// The host slowdown the times were divided by.
    slowdown: f64,
    /// Recorder counters before and after the cold pass.
    counters: (BTreeMap<String, u64>, BTreeMap<String, u64>),
}

/// A cold pass on a fresh pool, timed into `clock`, then the same pass
/// again on the now-warm pool: a re-check of unchanged code, answered by
/// certified replay. `reading` holds the host-slowdown reading taken just
/// before; the reading taken after the pair replaces it, so the next
/// iteration starts from it.
fn iterate(
    routines: &[Routine],
    measured: &[TimeBound],
    reading: &mut f64,
    clock: &mut Clock,
) -> Iteration {
    let pool = SolvePool::new(1);
    let before = crate::counters();
    let t = Instant::now();
    let first = pass(routines, &pool, clock);
    let raw_cold_ms = ms(t.elapsed());
    let after = crate::counters();
    let t = Instant::now();
    let second = pass(routines, &pool, &mut Clock::new(false));
    let replay_ms = ms(t.elapsed());
    let now = host_slowdown();
    let slowdown = (*reading + now) / 2.0;
    *reading = now;
    let ok = |r: &Result<(_, AuditedPlanBatch), String>| {
        r.as_ref().is_ok_and(|(_, b)| correct(routines, measured, b))
    };
    Iteration {
        ok: ok(&first) && ok(&second),
        first,
        cold_ms: raw_cold_ms / slowdown,
        raw_cold_ms,
        replay_ms: replay_ms / slowdown,
        slowdown,
        counters: (before, after),
    }
}

/// The traced half of a `--trace 1` run: the same cold passes with the
/// recorder installed and every layer call timed from outside, plus the
/// out-of-pass reference measurements (direct lp solves, the audit's fold,
/// store flushes).
fn traced(
    cfg: &Config,
    routines: &[Routine],
    measured: &[TimeBound],
    untraced: &[f64],
    out: &mut RunResult,
) -> Result<(), String> {
    ipet_trace::install();
    let mut samples = Samples::default();
    let mut lat = Vec::new();
    let mut zero_tick_ops = 0u64;
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(cfg.seconds / 2.0);
    let mut reading = host_slowdown();
    while lat.is_empty() || Instant::now() < deadline {
        let mut clock = Clock::new(true);
        let it = iterate(routines, measured, &mut reading, &mut clock);
        let op_ms = it.raw_cold_ms;
        lat.push(it.cold_ms);
        out.attempted += 1;
        out.failed += u64::from(!it.ok);
        let Ok((plans, batch)) = it.first else {
            continue;
        };
        let (before, after) = &it.counters;
        front_counters(&mut clock, before, after);
        lp_counters(&mut clock, before, after);
        // Every pass solves the same plans, so the out-of-pass reference
        // solves need only a few samples.
        if lat.len() <= REF_OPS {
            lp_refs(&mut clock, &plans);
            // The reference solves ran since the last reading.
            reading = host_slowdown();
        }
        clock.add("audit.ms", crate::audit_ms(&plans, &batch.report.outcomes));
        let pool_ms = clock.get("pool.run_plans_ms");
        let ticks = clock.get("lp.ticks");
        let op = format!("suite pass {}", lat.len());
        if crate::tick_report(&op, pool_ms, ticks, batch.report.total_ticks) {
            zero_tick_ops += 1;
        }
        if ticks > 0.0 {
            clock.add("lp.ms_per_tick", pool_ms / ticks);
        }
        let (cert, total) =
            batch.results.iter().flatten().fold((0, 0), |(c, t), (_, a)| {
                (c + a.certified(), t + a.certified() + a.rejected())
            });
        clock.add("audit.certified_frac", frac(cert as f64, total as f64));
        let (hits, misses) = (batch.report.hits as f64, batch.report.misses as f64);
        clock.add("pool.cache.hit_frac", frac(hits, hits + misses));
        clock.add(
            "infer.inferred_frac",
            frac(clock.get("infer.inferred"), clock.get("infer.total")),
        );
        let attributed = clock.sum(&FRONT_LAYERS) + pool_ms;
        clock.add("unattributed_frac", (op_ms - attributed) / op_ms);
        clock.flush_into(&mut samples);
    }

    let flush_ms = store_flush_ms(routines, cfg.scratch.as_ref())?;
    let m = &mut out.metrics;
    for (name, _) in crate::PER_LAYER {
        m.insert(name, samples.median(name));
    }
    m.insert("lp.zero_tick_frac", frac(zero_tick_ops as f64, lat.len() as f64));
    m.insert("store.flush_ms", flush_ms);
    m.insert("trace.overhead_frac", median(&lat) / median(untraced) - 1.0);
    m.insert("ops", lat.len() as f64);
    Ok(())
}

/// Traced passes that also take the out-of-pass reference timings.
const REF_OPS: usize = 3;

/// The lp layer's cold cost for one set of plans, outside the operation:
/// direct `solve_ilp` and root `solve_lp` calls on every job's problem.
fn lp_refs(clock: &mut Clock, plans: &[AnalysisPlan]) {
    for job in plans.iter().flat_map(AnalysisPlan::jobs) {
        clock.time("lp.solve_ilp_ms", || std::hint::black_box(ipet_lp::solve_ilp(&job.problem)));
        clock.time("lp.solve_lp_ms", || std::hint::black_box(ipet_lp::solve_lp(&job.problem)));
    }
}

/// Median time of `Store::flush` on a store holding one pass's entries.
///
/// # Errors
///
/// A front-end failure of the filling pass, or no scratch directory.
fn store_flush_ms(routines: &[Routine], scratch: Option<&Scratch>) -> Result<f64, String> {
    let scratch = scratch.ok_or("store flush timing needs a scratch directory")?;
    let store = Arc::new(ipet_store::Store::open(scratch.path().join("suite.store")));
    let pool = SolvePool::new(1).with_store(Arc::clone(&store));
    pass(routines, &pool, &mut Clock::new(false))?;
    Ok(crate::time_flushes(&store))
}
