//! `scale`: one operation analyzes one seeded synthetic program.
//!
//! Programs come from `ipet_bench::synth::generate` with a deeper
//! [`SynthConfig`] and are kept only inside a fixed instruction-count band,
//! annotation-free (`InferMode::Only`) and unaudited. This isolates how the
//! plan and lp layers grow with program size, which the suite's 13 small
//! routines hide.
//!
//! Solve time grows steeply with size, so the run's percentiles depend on
//! which sizes a run happens to draw. The corpus is therefore the same for
//! every run seed: the first [`PER_STRATUM`] generator seeds (counting up
//! from 0) whose programs fall in each of [`STRATA`] equal-width size
//! strata of [`BAND`]. The run seed orders the corpus, in rounds that take
//! one program from every stratum, and draws the simulator inputs. Five
//! seeds of a seeded corpus spread `latency_ms.p90` by 27% and
//! `latency_ms.p50` by 10% (interquartile range over median); the fixed
//! corpus leaves only measurement noise.
//!
//! Programs of similar size differ up to tenfold in solve time, so a run
//! covers the whole corpus at least once and ends at the end of a round:
//! every run's sample holds the strata in equal shares.

use crate::{
    frac, front_counters, lp_counters, median, ms, peak_rss_mb, quantile, repeat_setup,
    reset_peak_rss, slowdown_all_cores, Clock, Config, Rng, RunResult, Samples, Scratch,
};
use ipet_bench::synth::{generate, SynthConfig, SynthProgram};
use ipet_core::{AnalysisBudget, AnalysisPlan, Analyzer, Estimate};
use ipet_hw::Machine;
use ipet_pool::{BatchReport, SolvePool};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Instruction-count band `[lo, hi)` of kept programs (about 10-600 ms of
/// analysis each at the reference host's full speed).
pub const BAND: (usize, usize) = (250, 750);
/// Equal-width size strata of the band.
pub const STRATA: usize = 10;
/// Programs per stratum: one pass over the corpus takes about 7 s of
/// analysis at the reference host's full speed.
pub const PER_STRATUM: usize = 6;

/// Layers whose outside timers make up an operation's attributed time.
const LAYERS: [&str; 5] =
    ["lang.compile_ms", "cfg.analyzer_new_ms", "infer.ms", "core.plan_ms", "pool.run_plans_ms"];

/// The generator shape: one level deeper than the default.
pub(crate) fn synth_config() -> SynthConfig {
    SynthConfig { max_depth: 4, ..SynthConfig::default() }
}

/// One corpus program with the inputs the simulator runs it on.
pub struct Item {
    /// The generator seed that produced it.
    pub gen_seed: u64,
    /// The generated program and its AST.
    pub synth: SynthProgram,
    /// Instruction count of the compiled program.
    pub instrs: usize,
    /// Values of the entry argument `a` for the soundness check.
    pub inputs: [i32; 3],
}

/// Instruction count of a compiled program.
pub(crate) fn instrs(program: &ipet_arch::Program) -> usize {
    program.functions.iter().map(|f| f.instrs.len()).sum()
}

/// The corpus in the order run `seed` analyzes it: `per_stratum` programs
/// from each of the [`STRATA`] size strata of [`BAND`], the same programs
/// for every seed, interleaved so that every prefix of the corpus holds
/// the strata in equal shares.
pub fn corpus(seed: u64, per_stratum: usize) -> Vec<Item> {
    let width = (BAND.1 - BAND.0) / STRATA;
    let mut strata: Vec<Vec<(u64, SynthProgram, usize)>> =
        (0..STRATA).map(|_| Vec::new()).collect();
    let mut gen_seed = 0;
    while strata.iter().any(|s| s.len() < per_stratum) {
        let synth = generate(gen_seed, synth_config());
        let n = instrs(&synth.program);
        if (BAND.0..BAND.1).contains(&n) {
            let stratum = &mut strata[(n - BAND.0) / width];
            if stratum.len() < per_stratum {
                stratum.push((gen_seed, synth, n));
            }
        }
        gen_seed += 1;
    }
    let mut rng = Rng::new(seed, 2);
    for stratum in &mut strata {
        rng.shuffle(stratum);
    }
    let mut columns: Vec<_> = strata.into_iter().map(Vec::into_iter).collect();
    let mut out = Vec::with_capacity(per_stratum * STRATA);
    for _ in 0..per_stratum {
        let mut order: Vec<usize> = (0..STRATA).collect();
        rng.shuffle(&mut order);
        for k in order {
            if let Some((gen_seed, synth, instrs)) = columns[k].next() {
                let inputs = [0, 1, 2].map(|_| rng.below(21) as i32 - 10);
                out.push(Item { gen_seed, synth, instrs, inputs });
            }
        }
    }
    out
}

/// One analysis: compile → [`Analyzer::new`] → `infer_and_merge` (`Only`)
/// → plan → `run_plans` on `pool`, each timed into `clock`.
///
/// # Errors
///
/// Any stage's failure, as text.
pub(crate) fn analyze(
    item: &Item,
    pool: &SolvePool,
    clock: &mut Clock,
) -> Result<(AnalysisPlan, Estimate, BatchReport), String> {
    let machine = Machine::i960kb();
    let budget = AnalysisBudget::default();
    let module = &item.synth.module;
    let program = clock
        .time("lang.compile_ms", || ipet_lang::compile_module(module, "f"))
        .map_err(|e| e.to_string())?;
    clock.add("lang.instrs", instrs(&program) as f64);
    let analyzer = clock
        .time("cfg.analyzer_new_ms", || Analyzer::new(&program, machine))
        .map_err(|e| e.to_string())?
        .with_warm_start(true);
    let none = ipet_core::Annotations::default();
    let outcome = clock
        .time("infer.ms", || {
            ipet_infer::infer_and_merge(Some(module), &analyzer, &none, ipet_infer::InferMode::Only)
        })
        .map_err(|e| e.to_string())?;
    clock.add("infer.inferred", outcome.counts.inferred as f64);
    clock.add("infer.total", outcome.counts.total as f64);
    let plan = clock
        .time("core.plan_ms", || analyzer.plan(&outcome.annotations, &budget))
        .map_err(|e| e.to_string())?;
    clock.add("core.jobs", plan.jobs().len() as f64);
    let batch = clock
        .time("pool.run_plans_ms", || pool.run_plans(std::slice::from_ref(&plan), &budget.solve));
    let est =
        batch.estimates.into_iter().next().ok_or("no estimate")?.map_err(|e| e.to_string())?;
    Ok((plan, est, batch.report))
}

/// The oracle: the bound is exact and encloses a cycle-level simulation
/// of the program on each of the item's inputs.
pub(crate) fn correct(item: &Item, est: &Estimate) -> bool {
    let machine = Machine::i960kb();
    est.quality.is_exact()
        && item.inputs.iter().all(|&a| {
            let mut sim = ipet_sim::Simulator::new(
                &item.synth.program,
                machine,
                ipet_sim::SimConfig::default(),
            );
            sim.run(&[a]).is_ok_and(|r| est.bound.lower <= r.cycles && r.cycles <= est.bound.upper)
        })
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up failures; operation failures only lower `ok_frac`.
pub fn run(cfg: &Config) -> Result<RunResult, String> {
    // Set-up: generate the corpus and analyze its smallest program untimed
    // (the same work whatever the seed).
    let (corpus, setup_s) = repeat_setup(|| {
        let c = corpus(cfg.seed, PER_STRATUM);
        let smallest = c.iter().min_by_key(|i| (i.instrs, i.gen_seed)).ok_or("empty corpus")?;
        analyze(smallest, &SolvePool::new(1), &mut Clock::new(false))?;
        Ok(c)
    })?;

    let mut out = RunResult { run_checks_ok: true, ..RunResult::default() };
    let mut cold = Vec::new();
    let mut replay = Vec::new();
    let mut peaks = Vec::new();
    let mut slowdowns = Vec::new();
    let window = if cfg.trace { cfg.seconds / 2.0 } else { cfg.seconds };
    let deadline = Instant::now() + Duration::from_secs_f64(window);
    let mut reading = slowdown_all_cores();
    // At least one whole pass over the corpus, then on until the deadline,
    // stopping at the end of a round so that every stratum weighs the same.
    while cold.len() < corpus.len() || cold.len() % STRATA != 0 || Instant::now() < deadline {
        let item = &corpus[cold.len() % corpus.len()];
        let it = iterate(item, &mut reading, &mut Clock::new(false));
        cold.push(it.cold_ms);
        replay.push(it.replay_ms);
        peaks.extend(it.peak_mb);
        slowdowns.push(it.slowdown);
        out.attempted += 1;
        out.failed += u64::from(!it.ok);
    }

    crate::report_slowdown("scale", &slowdowns, median(&cold));
    let m = &mut out.metrics;
    m.insert("setup_s", setup_s);
    m.insert("latency_ms.p50", median(&cold));
    m.insert("latency_ms.p90", quantile(&cold, 0.9));
    m.insert("cold_ms.p50", median(&cold));
    // A single replay takes 1-5 ms; the median is taken over rounds (one
    // program per stratum), each reporting its mean replay, so the
    // percentile never lands on one small operation of mixed size.
    let rounds: Vec<f64> =
        replay.chunks(STRATA).map(|r| r.iter().sum::<f64>() / r.len() as f64).collect();
    m.insert("replay_ms.p50", median(&rounds));
    m.insert("throughput_ops_s", 1e3 * cold.len() as f64 / cold.iter().sum::<f64>());
    // The whole run's peak RSS moves with the order of the programs (heap
    // left over from earlier analyses), so the peak is reset before each
    // operation and the metric is the median operation's peak.
    let peak =
        if peaks.len() == cold.len() { median(&peaks) } else { peak_rss_mb("self").unwrap_or(0.0) };
    m.insert("peak_mem_mb", peak);
    if cfg.trace {
        traced(cfg, &corpus, &cold, &mut out)?;
    }
    out.metrics.insert("ok_frac", out.ok_frac());
    Ok(out)
}

/// One measured iteration of the loop.
struct Iteration {
    /// The cold analysis, when it succeeded.
    first: Result<(AnalysisPlan, Estimate, BatchReport), String>,
    /// Both analyses passed the oracle and agreed.
    ok: bool,
    /// Cold analysis time, scaled by the host slowdown.
    cold_ms: f64,
    /// Cold analysis time as measured.
    raw_cold_ms: f64,
    /// Re-analysis time on the warm pool, scaled.
    replay_ms: f64,
    /// The host slowdown the times were divided by.
    slowdown: f64,
    /// Peak RSS while the two analyses ran, where the kernel lets the peak
    /// be reset.
    peak_mb: Option<f64>,
    /// Recorder counters before and after the cold analysis.
    counters: (BTreeMap<String, u64>, BTreeMap<String, u64>),
}

/// A cold analysis of `item` on a fresh pool, timed into `clock`, then the
/// same analysis again on the now-warm pool. `reading` holds the
/// host-slowdown reading taken just before; the reading taken after the
/// pair replaces it, so the next iteration starts from it.
fn iterate(item: &Item, reading: &mut f64, clock: &mut Clock) -> Iteration {
    let pool = SolvePool::new(1);
    let reset = reset_peak_rss();
    let before = crate::counters();
    let t = Instant::now();
    let first = analyze(item, &pool, clock);
    let raw_cold_ms = ms(t.elapsed());
    let after = crate::counters();
    let t = Instant::now();
    let second = analyze(item, &pool, &mut Clock::new(false));
    let replay_ms = ms(t.elapsed());
    let peak_mb = if reset { peak_rss_mb("self") } else { None };
    let now = slowdown_all_cores();
    let slowdown = (*reading + now) / 2.0;
    *reading = now;
    let ok = match (&first, &second) {
        (Ok((_, a, _)), Ok((_, b, _))) => a.bound == b.bound && correct(item, a),
        _ => false,
    };
    Iteration {
        first,
        ok,
        cold_ms: raw_cold_ms / slowdown,
        raw_cold_ms,
        replay_ms: replay_ms / slowdown,
        slowdown,
        peak_mb,
        counters: (before, after),
    }
}

/// The traced half of a `--trace 1` run: the corpus again from its start,
/// with the recorder installed and every layer call timed from outside.
/// Tracing overhead compares the traced operations with the untraced ones
/// on the same programs.
fn traced(
    cfg: &Config,
    corpus: &[Item],
    untraced: &[f64],
    out: &mut RunResult,
) -> Result<(), String> {
    ipet_trace::install();
    let mut samples = Samples::default();
    let mut lat = Vec::new();
    let mut zero_tick_ops = 0u64;
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds / 2.0);
    let mut reading = slowdown_all_cores();
    while lat.is_empty() || Instant::now() < deadline {
        let item = &corpus[lat.len() % corpus.len()];
        let mut clock = Clock::new(true);
        let it = iterate(item, &mut reading, &mut clock);
        let op_ms = it.raw_cold_ms;
        lat.push(it.cold_ms);
        out.attempted += 1;
        out.failed += u64::from(!it.ok);
        let Ok((plan, _, report)) = it.first else {
            continue;
        };
        let (before, after) = &it.counters;
        front_counters(&mut clock, before, after);
        lp_counters(&mut clock, before, after);
        for job in plan.jobs() {
            clock
                .time("lp.solve_ilp_ms", || std::hint::black_box(ipet_lp::solve_ilp(&job.problem)));
            clock.time("lp.solve_lp_ms", || std::hint::black_box(ipet_lp::solve_lp(&job.problem)));
        }
        // The reference solves ran since the last reading.
        reading = slowdown_all_cores();
        let pool_ms = clock.get("pool.run_plans_ms");
        let ticks = clock.get("lp.ticks");
        let op = format!("scale program {} ({} instrs)", item.gen_seed, item.instrs);
        if crate::tick_report(&op, pool_ms, ticks, report.total_ticks) {
            zero_tick_ops += 1;
        }
        if ticks > 0.0 {
            clock.add("lp.ms_per_tick", pool_ms / ticks);
        }
        let (hits, misses) = (report.hits as f64, report.misses as f64);
        clock.add("pool.cache.hit_frac", frac(hits, hits + misses));
        clock.add(
            "infer.inferred_frac",
            frac(clock.get("infer.inferred"), clock.get("infer.total")),
        );
        clock.add("unattributed_frac", (op_ms - clock.sum(&LAYERS)) / op_ms);
        clock.flush_into(&mut samples);
    }

    let flush_ms = store_flush_ms(&corpus[..STRATA.min(corpus.len())], cfg.scratch.as_ref())?;
    let m = &mut out.metrics;
    for (name, _) in crate::PER_LAYER {
        m.insert(name, samples.median(name));
    }
    m.insert("lp.zero_tick_frac", frac(zero_tick_ops as f64, lat.len() as f64));
    m.insert("store.flush_ms", flush_ms);
    let same = &untraced[..lat.len().min(untraced.len())];
    m.insert("trace.overhead_frac", median(&lat[..same.len()]) / median(same) - 1.0);
    m.insert("ops", lat.len() as f64);
    Ok(())
}

/// Median time of `Store::flush` on a store holding `items`' solves.
fn store_flush_ms(items: &[Item], scratch: Option<&Scratch>) -> Result<f64, String> {
    let scratch = scratch.ok_or("store flush timing needs a scratch directory")?;
    let store = Arc::new(ipet_store::Store::open(scratch.path().join("scale.store")));
    let pool = SolvePool::new(1).with_store(Arc::clone(&store));
    for item in items {
        analyze(item, &pool, &mut Clock::new(false))?;
    }
    Ok(crate::time_flushes(&store))
}
