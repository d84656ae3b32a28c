//! # ipet-bench
//!
//! The experiment harness of the reproduction. The library exposes the
//! data-collection routines; the `experiments` binary renders them as the
//! paper's tables and figures, and the Criterion benches under `benches/`
//! time the solver and the explicit-enumeration baseline.
//!
//! | Paper artifact | Entry point |
//! |---|---|
//! | Fig. 1 (bound containment) | [`fig1_rows`] |
//! | Figs. 2-4 (structural constraints) | [`figure_cfgs`] |
//! | Figs. 5-6 (`check_data` + caller/callee) | [`fig5_text`], [`fig6_text`] |
//! | Table I (benchmarks, sets) | [`table1_rows`] |
//! | Table II (path-analysis pessimism) | [`table23_rows`] |
//! | Table III (estimated vs measured) | [`table23_rows`] |
//! | §III-D (first LP integral) | [`ilp_stat_rows`] |
//! | §II (explicit enumeration blow-up) | [`blowup_rows`] |
//! | §IV (first-iteration cache split) | [`ablation_split_rows`] |

pub mod gate;
pub mod synth;

use ipet_baseline::{diamond_chain_program, PathEnumerator};
use ipet_cfg::{BlockId, Cfg, Instances};
use ipet_core::{structural_text, Analyzer, CacheMode, Estimate, TimeBound};
use ipet_hw::{block_cost, Machine};
use ipet_lp::IlpStats;
use ipet_sim::measure;
use ipet_suite::Benchmark;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Everything measured for one benchmark: the estimate plus the simulated
/// reference bounds.
#[derive(Debug, Clone)]
pub struct BenchData {
    /// Benchmark name.
    pub name: String,
    /// Mini-C line count of this reproduction.
    pub lines: u32,
    /// Paper's reported line count.
    pub paper_lines: u32,
    /// Paper's constraint-set count (before pruning).
    pub paper_sets: u32,
    /// Paper's constraint-set count after pruning.
    pub paper_sets_after: u32,
    /// The IPET estimate.
    pub estimate: Estimate,
    /// Experiment 1's calculated bound (instrumented counts x block costs).
    pub calculated: TimeBound,
    /// Experiment 2's measured bound (cycle-level simulation).
    pub measured: TimeBound,
    /// Wall-clock time spent in ILP solving.
    pub solve_time: Duration,
}

/// Runs the full pipeline on one benchmark.
///
/// # Panics
///
/// Panics if the benchmark fails to compile, analyse or simulate — the
/// test suite keeps all of these green.
pub fn run_benchmark(b: &Benchmark) -> BenchData {
    let program = b.program().unwrap_or_else(|e| panic!("{}: {e}", b.name));
    let machine = Machine::i960kb();
    let analyzer = Analyzer::new(&program, machine).unwrap();
    let ann = b.annotations(&program);
    let start = Instant::now();
    let estimate = analyzer.analyze(&ann).unwrap_or_else(|e| panic!("{}: {e}", b.name));
    let solve_time = start.elapsed();

    let worst = measure(&program, machine, &(b.worst_seeds)(), b.args_worst, true)
        .unwrap_or_else(|e| panic!("{}: {e}", b.name));
    let best = measure(&program, machine, &(b.best_seeds)(), b.args_best, false)
        .unwrap_or_else(|e| panic!("{}: {e}", b.name));
    let calculated = analyzer.calculated_bound(&best.block_counts, &worst.block_counts);
    let measured = TimeBound { lower: best.cycles, upper: worst.cycles };

    BenchData {
        name: b.name.to_string(),
        lines: b.source_lines(),
        paper_lines: b.paper.lines,
        paper_sets: b.paper.sets,
        paper_sets_after: b.paper.sets_after_prune,
        estimate,
        calculated,
        measured,
        solve_time,
    }
}

/// Runs every benchmark (Table I row order).
pub fn run_all() -> Vec<BenchData> {
    ipet_suite::all().iter().map(run_benchmark).collect()
}

/// A [`run_all`] equivalent that batches every benchmark's ILPs through
/// one [`SolvePool`](ipet_core::SolvePool).
#[derive(Debug)]
pub struct PooledRun {
    /// Per-benchmark data, Table I row order. `solve_time` is zero here —
    /// solves interleave across benchmarks, so per-benchmark wall-clock
    /// attribution would be fiction; use [`PooledRun::solve_wall`] instead.
    pub data: Vec<BenchData>,
    /// Worker count the pool ran with.
    pub jobs: usize,
    /// Cache statistics of the batch (deterministic for any `jobs`).
    pub cache: ipet_core::CacheStats,
    /// Ticks spent per worker (scheduling-dependent; sums deterministically).
    pub worker_ticks: Vec<u64>,
    /// Total simplex ticks of the batch (deterministic for any `jobs`).
    pub total_ticks: u64,
    /// Wall-clock time of the batched solve phase.
    pub solve_wall: Duration,
}

/// Runs every benchmark with the ILP solves batched through `pool`, a
/// work-stealing pool of any width, after loop-bound inference
/// (`ipet-infer`) when `infer` is set. Estimates, set reports and cache
/// hit/miss counts are bit-for-bit identical for any worker count (and
/// identical to [`run_all`]'s); only wall-clock changes. Passing one pool
/// to several experiments lets them share its replay tier: a later batch
/// that re-analyzes a benchmark under an overlapping configuration (e.g.
/// the miss-penalty sweep's point at the default penalty) replays instead
/// of re-solving.
///
/// Inference runs in the serial planning phase, so its `infer.*` trace counters are
/// bit-identical for any pool width.
///
/// # Panics
///
/// Panics if a benchmark fails to compile, infer, analyse or simulate —
/// the test suite keeps all of these green (in `Only` inference mode a
/// data-dependent loop does fail).
pub fn run_all_pooled_infer(
    pool: &ipet_core::SolvePool,
    infer: Option<ipet_infer::InferMode>,
) -> PooledRun {
    let machine = Machine::i960kb();
    let budget = ipet_core::AnalysisBudget::default();
    // Phase 1 (serial): compile, plan, and gather the simulation
    // references. Plans own their jobs, so nothing borrows the programs
    // once this loop ends.
    struct Prepared {
        bench: Benchmark,
        lines: u32,
        calculated: TimeBound,
        measured: TimeBound,
        plan: ipet_core::AnalysisPlan,
    }
    let prepared: Vec<Prepared> = ipet_suite::all()
        .into_iter()
        .map(|b| {
            // Compiled as `Benchmark::program` does, keeping the syntax
            // tree for inference: the source is parsed once.
            let (module, program) =
                ipet_lang::compile_parsed(b.source, b.entry, ipet_lang::OptLevel::O0)
                    .unwrap_or_else(|e| panic!("{}: {e}", b.name));
            let analyzer = Analyzer::new(&program, machine).unwrap();
            let mut anns = ipet_core::parse_annotations(&b.annotations(&program))
                .unwrap_or_else(|e| panic!("{}: {e}", b.name));
            if let Some(mode) = infer {
                let outcome = ipet_infer::infer_and_merge(Some(&module), &analyzer, &anns, mode)
                    .unwrap_or_else(|e| panic!("{}: {e}", b.name));
                anns = outcome.annotations;
            }
            let plan = analyzer.plan(&anns, &budget).unwrap_or_else(|e| panic!("{}: {e}", b.name));
            let worst = measure(&program, machine, &(b.worst_seeds)(), b.args_worst, true)
                .unwrap_or_else(|e| panic!("{}: {e}", b.name));
            let best = measure(&program, machine, &(b.best_seeds)(), b.args_best, false)
                .unwrap_or_else(|e| panic!("{}: {e}", b.name));
            let calculated = analyzer.calculated_bound(&best.block_counts, &worst.block_counts);
            let measured = TimeBound { lower: best.cycles, upper: worst.cycles };
            let lines = b.source_lines();
            Prepared { bench: b, lines, calculated, measured, plan }
        })
        .collect();

    // Phase 2 (parallel): one batch across all benchmarks, so structurally
    // identical ILPs are solved once even across benchmarks.
    let plans: Vec<ipet_core::AnalysisPlan> = prepared.iter().map(|p| p.plan.clone()).collect();
    let t0 = Instant::now();
    let batch = pool.run_plans(&plans, &budget.solve);
    let solve_wall = t0.elapsed();

    let data = prepared
        .iter()
        .zip(batch.estimates)
        .map(|(p, est)| BenchData {
            name: p.bench.name.to_string(),
            lines: p.lines,
            paper_lines: p.bench.paper.lines,
            paper_sets: p.bench.paper.sets,
            paper_sets_after: p.bench.paper.sets_after_prune,
            estimate: est.unwrap_or_else(|e| panic!("{}: {e}", p.bench.name)),
            calculated: p.calculated,
            measured: p.measured,
            solve_time: Duration::ZERO,
        })
        .collect();

    PooledRun {
        data,
        jobs: pool.workers(),
        cache: pool.cache_stats(),
        worker_ticks: batch.report.worker_ticks,
        total_ticks: batch.report.total_ticks,
        solve_wall,
    }
}

/// Certifies every Table I benchmark's bounds in exact arithmetic: one
/// audited pooled run (`jobs` workers), returning `(name, report)` pairs in
/// Table I order. The estimates are discarded — this is the independent
/// re-verification pass, not the measurement.
///
/// # Panics
///
/// Panics if a benchmark fails to compile, plan or analyse.
pub fn audit_all_pooled(jobs: usize) -> Vec<(String, ipet_core::AuditReport)> {
    let machine = Machine::i960kb();
    let budget = ipet_core::AnalysisBudget::default();
    let mut names = Vec::new();
    let plans: Vec<ipet_core::AnalysisPlan> = ipet_suite::all()
        .into_iter()
        .map(|b| {
            let program = b.program().unwrap_or_else(|e| panic!("{}: {e}", b.name));
            let analyzer = Analyzer::new(&program, machine).unwrap();
            let anns = ipet_core::parse_annotations(&b.annotations(&program))
                .unwrap_or_else(|e| panic!("{}: {e}", b.name));
            names.push(b.name.to_string());
            analyzer.plan(&anns, &budget).unwrap_or_else(|e| panic!("{}: {e}", b.name))
        })
        .collect();
    let pool = ipet_core::SolvePool::new(jobs);
    let batch = pool.run_plans_audited(&plans, &budget.solve);
    names
        .into_iter()
        .zip(batch.results)
        .map(|(name, r)| {
            let (_, report) = r.unwrap_or_else(|e| panic!("{name}: {e}"));
            (name, report)
        })
        .collect()
}

/// Fig. 1 rows: per benchmark, the containment
/// `t_min <= T_min <= T_max <= t_max` with the measured bound standing in
/// for the actual bound.
pub fn fig1_rows(data: &[BenchData]) -> Vec<(String, TimeBound, TimeBound, bool)> {
    data.iter()
        .map(|d| {
            (d.name.clone(), d.estimate.bound, d.measured, d.estimate.bound.encloses(d.measured))
        })
        .collect()
}

/// The three example programs of Figs. 2-4 (if-then-else, while-loop,
/// function call) with their CFG instances, for structural-constraint
/// rendering.
pub fn figure_cfgs() -> Vec<(&'static str, ipet_arch::Program)> {
    use ipet_arch::{AluOp, AsmBuilder, Cond, FuncId, Program, Reg};

    // Fig. 2: if (p) q = 1; else q = 2; r = q;
    let mut b = AsmBuilder::new("fig2_ite");
    let els = b.fresh_label();
    let join = b.fresh_label();
    b.br(Cond::Eq, Reg::A0, 0, els);
    b.ldc(Reg::T0, 1);
    b.jmp(join);
    b.bind(els);
    b.ldc(Reg::T0, 2);
    b.bind(join);
    b.mov(Reg::RV, Reg::T0);
    b.ret();
    let fig2 = Program::new(vec![b.finish().unwrap()], vec![], FuncId(0)).unwrap();

    // Fig. 3: q = p; while (q < 10) q++; r = q;
    let mut b = AsmBuilder::new("fig3_while");
    let head = b.fresh_label();
    let out = b.fresh_label();
    b.mov(Reg::T0, Reg::A0);
    b.bind(head);
    b.br(Cond::Ge, Reg::T0, 10, out);
    b.alu(AluOp::Add, Reg::T0, Reg::T0, 1);
    b.jmp(head);
    b.bind(out);
    b.mov(Reg::RV, Reg::T0);
    b.ret();
    let fig3 = Program::new(vec![b.finish().unwrap()], vec![], FuncId(0)).unwrap();

    // Fig. 4: i = 10; store(i); n = 2*i; store(n);
    let mut store = AsmBuilder::new("store");
    store.nop();
    store.ret();
    let mut main = AsmBuilder::new("fig4_main");
    main.ldc(Reg::A0, 10);
    main.call(FuncId(0));
    main.alu(AluOp::Mul, Reg::A0, Reg::A0, 2);
    main.call(FuncId(0));
    main.ret();
    let fig4 =
        Program::new(vec![store.finish().unwrap(), main.finish().unwrap()], vec![], FuncId(1))
            .unwrap();

    vec![
        ("Fig. 2 (if-then-else)", fig2),
        ("Fig. 3 (while-loop)", fig3),
        ("Fig. 4 (function calls)", fig4),
    ]
}

/// Renders the structural constraints of every instance of a program.
pub fn structural_dump(program: &ipet_arch::Program) -> String {
    let instances = Instances::expand(program, program.entry).unwrap();
    let mut out = String::new();
    for i in 0..instances.len() {
        out.push_str(&structural_text(&instances, ipet_cfg::InstanceId(i)));
    }
    out
}

/// Fig. 5: the annotated `check_data` listing plus its functionality
/// constraints (the paper's eqs. 14-17).
pub fn fig5_text() -> String {
    let b = ipet_suite::by_name("check_data").expect("bundled benchmark");
    let program = b.program().unwrap();
    let ann = b.annotations(&program);
    format!("{}\n{}\nfunctionality constraints:\n{}", b.source, structural_dump(&program), ann)
}

/// Fig. 6: a `task` calling `check_data` then conditionally `clear_data`,
/// with the caller-scoped constraint `x_clear = x_return0 . f1`
/// (paper eq. 18).
pub fn fig6_text() -> (String, Estimate) {
    let source = r#"
const DATASIZE = 10;
int data[DATASIZE];

int check_data() {
    int i;
    int morecheck;
    int wrongone;
    morecheck = 1; i = 0; wrongone = -1;
    while (morecheck) {
        if (data[i] < 0) {
            wrongone = i; morecheck = 0;
        } else {
            i = i + 1;
            if (i >= DATASIZE) morecheck = 0;
        }
    }
    if (wrongone >= 0)
        return 0;
    else
        return 1;
}

int clear_data() {
    int i;
    for (i = 0; i < DATASIZE; i = i + 1) {
        data[i] = 0;
    }
    return 0;
}

int task() {
    int status;
    status = check_data();
    if (status == 0) {
        clear_data();
    }
    return status;
}
"#;
    let program = ipet_lang::compile(source, "task").unwrap();
    // clear_data runs exactly when check_data (at site f1) returns 0, i.e.
    // when its found-negative block x6 executes: x4 of task = x6.f1.
    let annotations = "
fn check_data {
    loop x2 in [1, 10];
    (x6 = 0 & x8 = 1) | (x6 = 1 & x8 = 0);
    x6 = x13;
}
fn clear_data {
    loop x2 in [10, 10];
}
fn task {
    x4 = x6.f1;
}
";
    let machine = Machine::i960kb();
    let analyzer = Analyzer::new(&program, machine).unwrap();
    let est = analyzer.analyze(annotations).unwrap();
    (format!("{source}\nannotations:\n{annotations}"), est)
}

/// Table I rows: `(name, paper lines, our lines, paper sets, our sets,
/// our sets after pruning)`.
pub fn table1_rows(data: &[BenchData]) -> Vec<(String, u32, u32, u32, usize, usize)> {
    data.iter()
        .map(|d| {
            (
                d.name.clone(),
                d.paper_lines,
                d.lines,
                d.paper_sets,
                d.estimate.sets_total,
                d.estimate.sets_total - d.estimate.sets_pruned,
            )
        })
        .collect()
}

/// Table II/III rows: `(name, estimated, reference, pessimism)` where the
/// reference is the calculated bound (Table II) or measured bound
/// (Table III).
pub fn table23_rows(
    data: &[BenchData],
    measured: bool,
) -> Vec<(String, TimeBound, TimeBound, (f64, f64))> {
    data.iter()
        .map(|d| {
            let reference = if measured { d.measured } else { d.calculated };
            let p = d.estimate.bound.pessimism_against(reference);
            (d.name.clone(), d.estimate.bound, reference, p)
        })
        .collect()
}

/// §III-D rows: per benchmark, the aggregate ILP statistics and solve time.
pub fn ilp_stat_rows(data: &[BenchData]) -> Vec<(String, IlpStats, Duration)> {
    data.iter().map(|d| (d.name.clone(), d.estimate.total_stats(), d.solve_time)).collect()
}

/// One row of the explicit-vs-implicit comparison.
#[derive(Debug, Clone, Copy)]
pub struct BlowupRow {
    /// Number of sequential diamonds.
    pub k: usize,
    /// Paths the explicit enumerator walked.
    pub paths: u64,
    /// True when the enumerator hit its budget (unsafe result).
    pub truncated: bool,
    /// Explicit enumeration wall-clock.
    pub explicit_time: Duration,
    /// Explicit WCET (over walked paths).
    pub explicit_wcet: Option<u64>,
    /// ILP LP-call count.
    pub lp_calls: usize,
    /// IPET wall-clock.
    pub implicit_time: Duration,
    /// IPET WCET.
    pub implicit_wcet: u64,
}

/// §II claim: explicit enumeration is exponential in the number of
/// sequential branches, IPET is not. `budget` caps the walked paths.
pub fn blowup_rows(ks: &[usize], budget: u64) -> Vec<BlowupRow> {
    let machine = Machine::i960kb();
    ks.iter()
        .map(|&k| {
            let program = diamond_chain_program(k);
            let cfg = Cfg::build(program.entry, program.entry_function());
            let costs: Vec<_> = cfg
                .blocks()
                .iter()
                .map(|b| block_cost(&machine, program.entry_function(), b))
                .collect();

            let t0 = Instant::now();
            let enumerator = PathEnumerator::new(&cfg, &costs, &HashMap::new(), budget).unwrap();
            let r = enumerator.enumerate();
            let explicit_time = t0.elapsed();

            let analyzer = Analyzer::new(&program, machine).unwrap();
            let t1 = Instant::now();
            let est = analyzer.analyze("").unwrap();
            let implicit_time = t1.elapsed();

            // When the explicit walk completes, both methods must agree.
            if !r.truncated {
                assert_eq!(r.worst, Some(est.bound.upper), "k={k}");
                assert_eq!(r.best, Some(est.bound.lower), "k={k}");
            }

            BlowupRow {
                k,
                paths: r.paths_explored,
                truncated: r.truncated,
                explicit_time,
                explicit_wcet: r.worst,
                lp_calls: est.total_stats().lp_calls,
                implicit_time,
                implicit_wcet: est.bound.upper,
            }
        })
        .collect()
}

/// §IV ablation: WCET under all-miss costing vs first-iteration splitting,
/// per benchmark: `(name, all-miss WCET, split WCET, measured worst)`.
pub fn ablation_split_rows() -> Vec<(String, u64, u64, u64)> {
    let machine = Machine::i960kb();
    ipet_suite::all()
        .iter()
        .map(|b| {
            let program = b.program().unwrap();
            let ann = b.annotations(&program);
            let base = Analyzer::new(&program, machine).unwrap();
            let split = Analyzer::new(&program, machine)
                .unwrap()
                .with_cache_mode(CacheMode::FirstIterSplit);
            let e_base = base.analyze(&ann).unwrap();
            let e_split = split.analyze(&ann).unwrap();
            let worst = measure(&program, machine, &(b.worst_seeds)(), b.args_worst, true).unwrap();
            assert!(
                e_split.bound.upper <= e_base.bound.upper,
                "{}: splitting must never loosen the bound",
                b.name
            );
            assert!(worst.cycles <= e_split.bound.upper, "{}: split bound must stay safe", b.name);
            (b.name.to_string(), e_base.bound.upper, e_split.bound.upper, worst.cycles)
        })
        .collect()
}

/// Formats a `TimeBound` the way the paper prints intervals.
pub fn fmt_bound(b: TimeBound) -> String {
    format!("[{}, {}]", group_digits(b.lower), group_digits(b.upper))
}

/// `1234567 -> "1,234,567"`, the paper's digit grouping.
pub fn group_digits(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Marks a loop block id for diagnostics (unused helper kept public for
/// the binary's CFG dumps).
pub fn block_label(b: BlockId) -> String {
    format!("x{}", b.0 + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digit_grouping() {
        assert_eq!(group_digits(0), "0");
        assert_eq!(group_digits(999), "999");
        assert_eq!(group_digits(1000), "1,000");
        assert_eq!(group_digits(1234567), "1,234,567");
    }

    #[test]
    fn figures_2_to_4_match_paper_equations() {
        let figs = figure_cfgs();
        let fig2 = structural_dump(&figs[0].1);
        // x1 = d1 = d2 + d3 (entry splits into two arms)
        assert!(fig2.contains("x1 = d1 = d2 + d3"), "{fig2}");
        let fig3 = structural_dump(&figs[1].1);
        // the while header has two in- and two out-edges
        assert!(fig3.lines().any(|l| l.contains("x2 = ") && l.matches('+').count() == 2), "{fig3}");
        let fig4 = structural_dump(&figs[2].1);
        assert!(fig4.contains("f1"), "{fig4}");
        assert!(fig4.contains("d1 = f1 of fig4_main"), "{fig4}");
    }

    #[test]
    fn fig6_caller_scoped_constraint_solves() {
        let (_, est) = fig6_text();
        assert!(est.bound.lower > 0);
        assert!(est.bound.lower <= est.bound.upper);
        // Two sets from check_data's disjunction.
        assert_eq!(est.sets_total, 2);
    }

    #[test]
    fn blowup_explicit_matches_ilp_on_small_k() {
        let rows = blowup_rows(&[2, 4], u64::MAX);
        assert_eq!(rows[0].paths, 4);
        assert_eq!(rows[1].paths, 16);
        for r in rows {
            assert!(!r.truncated);
            assert_eq!(r.explicit_wcet, Some(r.implicit_wcet));
        }
    }

    #[test]
    fn check_data_benchdata_is_consistent() {
        let b = ipet_suite::by_name("check_data").unwrap();
        let d = run_benchmark(&b);
        assert!(d.estimate.bound.encloses(d.calculated));
        assert!(d.estimate.bound.encloses(d.measured));
        assert_eq!(d.estimate.sets_total, 2);
    }

    #[test]
    fn parametric_sweep_matches_concrete_and_reuses_regions() {
        let penalties = [0u64, 2, 4, 8, 16, 32];
        let names = ["check_data"];
        let s = sweep_miss_penalty_parametric(&ipet_core::SolvePool::new(1), &penalties, &names);
        let (concrete, _) =
            sweep_miss_penalty_concrete(&ipet_core::SolvePool::new(1), &penalties, &names);
        for (got, want) in s.points.iter().zip(&concrete) {
            assert_eq!(got.miss_penalty, want.miss_penalty);
            assert_eq!(got.wcet, want.wcet, "mp = {}", got.miss_penalty);
        }
        // Region reuse must fire: strictly fewer solves than grid points.
        assert!(s.resolves < penalties.len() as u64, "{} solves", s.resolves);
        assert!(s.region_hits > 0);
        // The formulas' validity intervals tile the whole grid.
        assert!(!s.regions.is_empty());
        assert_eq!(s.regions.first().unwrap().from_penalty, 0);
        assert_eq!(s.regions.last().unwrap().to_penalty, 32);
    }

    #[test]
    fn budget_sweep_degrades_safely() {
        // From unlimited down to a zero-tick deadline, the bound may widen
        // and the quality may drop, but it must never stop enclosing the
        // exact answer.
        let rows = budget_rows(2, &[10_000, 50, 0], &["check_data"]);
        assert_eq!(rows.len(), 4);
        assert!(rows[0].quality.is_exact());
        for r in &rows {
            assert!(r.safe, "{r:?}");
        }
        // The zero-tick point cannot possibly be exact.
        let starved = rows.last().unwrap();
        assert_eq!(starved.deadline_ticks, Some(0));
        assert!(!starved.quality.is_exact());
        assert!(starved.sets_skipped > 0);
    }
}

/// One point of the miss-penalty sensitivity sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Miss penalty in cycles.
    pub miss_penalty: u64,
    /// `(benchmark, WCET)` at this penalty.
    pub wcet: Vec<(String, u64)>,
}

/// A per-routine WCET bound formula together with the grid sub-range it
/// is certified on: `wcet(p) = formula.constant + formula.slope * p` for
/// every swept penalty in `[from_penalty, to_penalty]` (inclusive).
#[derive(Debug, Clone)]
pub struct SweepRegion {
    /// Benchmark name.
    pub name: String,
    /// First grid penalty covered by this formula.
    pub from_penalty: u64,
    /// Last grid penalty covered by this formula.
    pub to_penalty: u64,
    /// The certified bound line.
    pub formula: ipet_lp::BoundFormula,
}

/// Result of the region-certified parametric miss-penalty sweep.
#[derive(Debug)]
pub struct ParametricSweep {
    /// One series point per penalty value (identical to what the concrete
    /// per-point sweep would report — see DESIGN.md §16).
    pub points: Vec<SweepPoint>,
    /// Per-routine formulas with their certified validity intervals, in
    /// `names` order then ascending penalty.
    pub regions: Vec<SweepRegion>,
    /// Grid points answered by a concrete ILP solve.
    pub resolves: u64,
    /// Grid points answered by formula evaluation alone.
    pub region_hits: u64,
    /// Chord-certificate failures (witness changes between probes).
    pub region_exits: u64,
    /// Merged batch report over every probe's pooled solve.
    pub report: ipet_core::BatchReport,
}

/// Parameter sweep: how the estimated WCET scales with the i-cache line
/// fill penalty (the knob behind the paper's all-miss conservatism), one
/// series point per penalty value. It probes the penalty grid with
/// concrete pooled solves only at region boundaries, certifies each witness line
/// over the interval it stays optimal (`ipet-lp`'s chord certificate,
/// re-checked through `ipet-audit`'s exact rationals), and fills every
/// interior grid point by evaluating the certified formula.
///
/// Sharing the pool with an earlier [`run_all_pooled_infer`] batch makes a
/// probe at the default i960KB penalty (8 cycles) a pure cache replay:
/// those problems are bit-identical to the Table II/III ones.
///
/// In debug builds (when no trace recorder is installed, so counters stay
/// deterministic) every formula-filled point is shadow-solved concretely
/// and asserted bit-identical; release runs rely on the chord proof plus
/// the CI `parametric` job, which diffs the two paths explicitly.
///
/// # Panics
///
/// Panics if `penalties` is not strictly increasing or a benchmark fails
/// to compile or analyse.
pub fn sweep_miss_penalty_parametric(
    pool: &ipet_core::SolvePool,
    penalties: &[u64],
    names: &[&str],
) -> ParametricSweep {
    let budget = ipet_core::AnalysisBudget::default();
    let mut report = ipet_core::BatchReport::empty();
    let mut probe = |mp: u64| -> Result<ipet_lp::Probe, std::convert::Infallible> {
        let machine = Machine { miss_penalty: mp, ..Machine::i960kb() };
        let point = machine.param_point();
        let plans: Vec<ipet_core::AnalysisPlan> = names
            .iter()
            .map(|name| {
                let b = ipet_suite::by_name(name).expect("bundled benchmark");
                let program = b.program().unwrap();
                let analyzer = Analyzer::new(&program, machine).unwrap();
                let anns = ipet_core::parse_annotations(&b.annotations(&program)).unwrap();
                analyzer.plan(&anns, &budget).unwrap()
            })
            .collect();
        let batch = pool.run_plans(&plans, &budget.solve);
        let mut values = Vec::with_capacity(names.len());
        let mut formulas = Vec::with_capacity(names.len());
        for (name, est) in names.iter().zip(batch.estimates) {
            let est = est.unwrap_or_else(|e| panic!("{name}: {e}"));
            values.push(est.bound.upper as i128);
            // A witness line is only handed to the region driver when the
            // exact-rational audit confirms it reproduces this probe's
            // concrete optimum; anything less degrades to per-point solves.
            formulas.push(est.wcet_formula.as_ref().and_then(|f| {
                let (constant, slope) = f.specialize(ipet_hw::P_MISS, &point)?;
                let line = ipet_lp::BoundFormula { constant, slope };
                ipet_core::certify_chord(line, mp, est.bound.upper as i128).then_some(line)
            }));
        }
        report.absorb(batch.report);
        Ok(ipet_lp::Probe { values, formulas })
    };
    let sweep =
        ipet_lp::parametric::sweep_grid(penalties, &mut probe).unwrap_or_else(|e| match e {});

    let points: Vec<SweepPoint> = penalties
        .iter()
        .enumerate()
        .map(|(pi, &mp)| SweepPoint {
            miss_penalty: mp,
            wcet: names
                .iter()
                .enumerate()
                .map(|(ni, name)| {
                    let v = sweep.values[pi][ni];
                    (name.to_string(), u64::try_from(v).expect("WCET fits in u64"))
                })
                .collect(),
        })
        .collect();
    let regions = names
        .iter()
        .enumerate()
        .flat_map(|(ni, name)| {
            sweep.regions(ni).into_iter().map(move |(s, e, formula)| SweepRegion {
                name: name.to_string(),
                from_penalty: penalties[s],
                to_penalty: penalties[e],
                formula,
            })
        })
        .collect();

    // Debug shadow-solve: re-derive every point concretely and require
    // bit-identity. Skipped under an installed recorder so `lp.*` counter
    // totals stay identical across build profiles (the bench gate diffs
    // them exactly); the CI `parametric` job covers recorded runs.
    #[cfg(debug_assertions)]
    if !ipet_trace::enabled() {
        let shadow = sweep_miss_penalty_concrete(&ipet_core::SolvePool::new(1), penalties, names).0;
        for (got, want) in points.iter().zip(&shadow) {
            assert_eq!(got.miss_penalty, want.miss_penalty);
            assert_eq!(got.wcet, want.wcet, "mp = {}", got.miss_penalty);
        }
    }

    ParametricSweep {
        points,
        regions,
        resolves: sweep.resolves,
        region_hits: sweep.region_hits,
        region_exits: sweep.region_exits,
        report,
    }
}

/// The reference sweep: one concrete pooled solve per grid point, no
/// formula reuse. This is what [`sweep_miss_penalty_parametric`] must
/// reproduce bit-for-bit; the CI `parametric` job and the debug
/// shadow-solve both diff against it.
///
/// # Panics
///
/// Panics if a benchmark fails to compile or analyse.
pub fn sweep_miss_penalty_concrete(
    pool: &ipet_core::SolvePool,
    penalties: &[u64],
    names: &[&str],
) -> (Vec<SweepPoint>, ipet_core::BatchReport) {
    let budget = ipet_core::AnalysisBudget::default();
    let mut plans = Vec::new();
    for &mp in penalties {
        let machine = Machine { miss_penalty: mp, ..Machine::i960kb() };
        for name in names {
            let b = ipet_suite::by_name(name).expect("bundled benchmark");
            let program = b.program().unwrap();
            let analyzer = Analyzer::new(&program, machine).unwrap();
            let anns = ipet_core::parse_annotations(&b.annotations(&program)).unwrap();
            plans.push(analyzer.plan(&anns, &budget).unwrap());
        }
    }
    let batch = pool.run_plans(&plans, &budget.solve);
    let points = penalties
        .iter()
        .enumerate()
        .map(|(pi, &mp)| SweepPoint {
            miss_penalty: mp,
            wcet: names
                .iter()
                .enumerate()
                .map(|(ni, name)| {
                    let est = batch.estimates[pi * names.len() + ni]
                        .as_ref()
                        .unwrap_or_else(|e| panic!("{name}: {e}"));
                    (name.to_string(), est.bound.upper)
                })
                .collect(),
        })
        .collect();
    (points, batch.report)
}

/// One point of the budget-degradation sweep: what bound (and of what
/// quality) a benchmark yields when the solver is limited to
/// `deadline_ticks` simplex pivots.
#[derive(Debug, Clone)]
pub struct BudgetRow {
    /// Benchmark name.
    pub name: String,
    /// Tick deadline applied (`None` = unlimited, the reference point).
    pub deadline_ticks: Option<u64>,
    /// The (possibly degraded) estimate.
    pub bound: TimeBound,
    /// How trustworthy the bound is at this budget.
    pub quality: ipet_core::BoundQuality,
    /// Constraint sets skipped outright at this budget.
    pub sets_skipped: usize,
    /// Constraint sets reported from an LP-relaxation bound.
    pub degraded_sets: usize,
    /// Whether the degraded bound still encloses the unlimited bound.
    pub safe: bool,
}

/// Budget sweep: each benchmark analysed under a descending series of tick
/// deadlines on a pool of `jobs` workers, showing the graceful-degradation
/// cascade (exact → relaxed / partial) and checking that every degraded
/// bound stays an enclosure of the exact one. Each row runs on a fresh
/// pool, so no row replays another's solves, and the deadline's `d / n`
/// shards make every row the same at any `jobs`.
pub fn budget_rows(jobs: usize, deadlines: &[u64], names: &[&str]) -> Vec<BudgetRow> {
    use ipet_core::AnalysisBudget;
    let machine = Machine::i960kb();
    let mut rows = Vec::new();
    for name in names {
        let b = ipet_suite::by_name(name).expect("bundled benchmark");
        let program = b.program().unwrap();
        let analyzer = Analyzer::new(&program, machine).unwrap();
        let anns = ipet_core::parse_annotations(&b.annotations(&program)).unwrap();
        let mut exact = None;
        for ticks in std::iter::once(None).chain(deadlines.iter().map(|&t| Some(t))) {
            let mut budget = AnalysisBudget::unlimited();
            budget.solve.deadline_ticks = ticks;
            let plan = analyzer.plan(&anns, &budget).unwrap();
            let batch = ipet_core::SolvePool::new(jobs).run_plans(&[plan], &budget.solve);
            let est = batch.estimates.into_iter().next().expect("one plan").unwrap();
            let exact = *exact.get_or_insert(est.bound);
            rows.push(BudgetRow {
                name: name.to_string(),
                deadline_ticks: ticks,
                bound: est.bound,
                quality: est.quality,
                sets_skipped: est.sets_skipped,
                degraded_sets: est.degraded_sets.len(),
                safe: est.bound.encloses(exact),
            });
        }
    }
    rows
}

/// Cross-machine comparison (the §VII DSP3210 port): estimated and
/// measured bounds of each benchmark on a second target.
pub fn machine_rows(machine: Machine) -> Vec<(String, TimeBound, TimeBound, bool)> {
    ipet_suite::all()
        .iter()
        .map(|b| {
            let program = b.program().unwrap();
            let analyzer = Analyzer::new(&program, machine).unwrap();
            let est = analyzer.analyze(&b.annotations(&program)).unwrap();
            let worst = measure(&program, machine, &(b.worst_seeds)(), b.args_worst, true).unwrap();
            let best = measure(&program, machine, &(b.best_seeds)(), b.args_best, false).unwrap();
            let measured = TimeBound { lower: best.cycles, upper: worst.cycles };
            (b.name.to_string(), est.bound, measured, est.bound.encloses(measured))
        })
        .collect()
}

/// Stress result for one random program.
#[derive(Debug, Clone, Copy)]
pub struct StressRow {
    /// Generator seed.
    pub seed: u64,
    /// Loops generated (all bounded by inference).
    pub loops: usize,
    /// The estimated bound.
    pub bound: TimeBound,
    /// True when every probe run landed inside the bound.
    pub sound: bool,
}

/// Stress sweep: `count` random programs, automatic loop-bound inference
/// (AST rules via `ipet-infer`, zero annotations), soundness probes on a
/// few inputs each.
pub fn stress_rows(count: u64) -> Vec<StressRow> {
    use ipet_sim::{SimConfig, Simulator};
    let machine = Machine::i960kb();
    (0..count)
        .map(|seed| {
            let s = synth::generate(seed, synth::SynthConfig::default());
            let analyzer = Analyzer::new(&s.program, machine).unwrap();
            let outcome = ipet_infer::infer_and_merge(
                Some(&s.module),
                &analyzer,
                &ipet_core::Annotations::default(),
                ipet_infer::InferMode::Only,
            )
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let est = analyzer.analyze_parsed(&outcome.annotations).unwrap();
            let mut sound = true;
            for a in [-9, -1, 0, 3, 8] {
                let mut sim = Simulator::new(&s.program, machine, SimConfig::default());
                let r = sim.run(&[a]).unwrap();
                sound &= est.bound.lower <= r.cycles && r.cycles <= est.bound.upper;
            }
            StressRow { seed, loops: s.num_loops, bound: est.bound, sound }
        })
        .collect()
}

/// Result of exhaustively running a routine over an entire input family.
#[derive(Debug, Clone)]
pub struct ExhaustiveRow {
    /// Benchmark name.
    pub name: String,
    /// Number of inputs executed.
    pub runs: u64,
    /// The *actual* bound `[T_min, T_max]` over the family.
    pub actual: TimeBound,
    /// The estimated bound.
    pub estimated: TimeBound,
    /// True when the identified extreme-case data sets really are extreme
    /// within the family (the paper's "if the analysis result agrees with
    /// our selection of the data set, then it will be the worst case").
    pub extremes_confirmed: bool,
}

/// The paper notes that computing the actual bound "would have to run the
/// routine for all possible inputs — this is clearly not feasible". For
/// two small routines it *is* feasible over a structured input family;
/// this experiment does exactly that, establishing the true `[T_min,
/// T_max]` and confirming both the containment and the hand-identified
/// extreme data sets.
pub fn exhaustive_rows() -> Vec<ExhaustiveRow> {
    use ipet_sim::{SimConfig, Simulator};
    let machine = Machine::i960kb();
    let mut out = Vec::new();

    // check_data over every sign pattern of 10 elements (negative values
    // trigger the early exit; magnitudes are irrelevant to control flow).
    {
        let b = ipet_suite::by_name("check_data").expect("bundled");
        let program = b.program().unwrap();
        let analyzer = Analyzer::new(&program, machine).unwrap();
        let est = analyzer.analyze(&b.annotations(&program)).unwrap();
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        let mut runs = 0u64;
        for mask in 0u32..(1 << 10) {
            let data: Vec<i32> = (0..10).map(|i| if mask >> i & 1 == 1 { -1 } else { 5 }).collect();
            let mut sim = Simulator::new(&program, machine, SimConfig::default());
            sim.seed_global("data", &data).unwrap();
            let r = sim.run(&[]).unwrap();
            lo = lo.min(r.cycles);
            hi = hi.max(r.cycles);
            runs += 1;
        }
        let worst = measure(&program, machine, &(b.worst_seeds)(), b.args_worst, true).unwrap();
        // Best-case protocol uses a warm cache; the exhaustive sweep runs
        // cold, so compare like with like: the cold-run minimum must be
        // attained by the identified best-case data under the same protocol.
        let mut sim = Simulator::new(&program, machine, SimConfig::default());
        for (name, data) in (b.best_seeds)() {
            sim.seed_global(name, &data).unwrap();
        }
        let best_cold = sim.run(&[]).unwrap();
        let actual = TimeBound { lower: lo, upper: hi };
        out.push(ExhaustiveRow {
            name: b.name.to_string(),
            runs,
            actual,
            estimated: est.bound,
            extremes_confirmed: worst.cycles == hi && best_cold.cycles == lo,
        });
    }

    // piksrt over every permutation of 8 distinct elements (40,320 runs).
    {
        let b = ipet_suite::by_name("piksrt").expect("bundled");
        // Shrink to n = 8 by seeding the tail with already-sorted sentinels
        // larger than every permuted element: the tail contributes a fixed
        // amount of work across all runs.
        let program = b.program().unwrap();
        let analyzer = Analyzer::new(&program, machine).unwrap();
        let est = analyzer.analyze(&b.annotations(&program)).unwrap();
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        let mut runs = 0u64;
        let mut perm: Vec<i32> = (0..8).collect();
        // Heap's algorithm, iterative.
        let mut c = [0usize; 8];
        let measure_perm = |perm: &[i32], lo: &mut u64, hi: &mut u64, runs: &mut u64| {
            let mut data: Vec<i32> = perm.to_vec();
            data.extend([100, 101]); // sorted tail, larger than all
            let mut sim = Simulator::new(&program, machine, SimConfig::default());
            sim.seed_global("arr", &data).unwrap();
            let r = sim.run(&[]).unwrap();
            *lo = (*lo).min(r.cycles);
            *hi = (*hi).max(r.cycles);
            *runs += 1;
        };
        measure_perm(&perm, &mut lo, &mut hi, &mut runs);
        let mut i = 0;
        while i < 8 {
            if c[i] < i {
                if i % 2 == 0 {
                    perm.swap(0, i);
                } else {
                    perm.swap(c[i], i);
                }
                measure_perm(&perm, &mut lo, &mut hi, &mut runs);
                c[i] += 1;
                i = 0;
            } else {
                c[i] = 0;
                i += 1;
            }
        }
        let actual = TimeBound { lower: lo, upper: hi };
        // The reverse-sorted prefix must attain the maximum.
        let mut rev: Vec<i32> = (0..8).rev().collect();
        rev.extend([100, 101]);
        let mut sim = Simulator::new(&program, machine, SimConfig::default());
        sim.seed_global("arr", &rev).unwrap();
        let rev_cycles = sim.run(&[]).unwrap().cycles;
        out.push(ExhaustiveRow {
            name: b.name.to_string(),
            runs,
            actual,
            estimated: est.bound,
            extremes_confirmed: rev_cycles == hi,
        });
    }

    out
}

/// Writes every table as a CSV file into `dir` (created if missing), for
/// external plotting: `table1.csv`, `table2.csv`, `table3.csv`,
/// `ilpstats.csv`, `blowup.csv`, `ablation.csv`, `sweep.csv`.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_csvs(dir: &std::path::Path, data: &[BenchData]) -> std::io::Result<()> {
    use std::io::Write as _;
    std::fs::create_dir_all(dir)?;
    let w = |name: &str, header: &str, rows: Vec<String>| -> std::io::Result<()> {
        let mut f = std::fs::File::create(dir.join(name))?;
        writeln!(f, "{header}")?;
        for r in rows {
            writeln!(f, "{r}")?;
        }
        Ok(())
    };

    w(
        "table1.csv",
        "function,paper_lines,our_lines,paper_sets,our_sets,our_sets_after_prune",
        table1_rows(data)
            .into_iter()
            .map(|(n, pl, l, ps, s, a)| format!("{n},{pl},{l},{ps},{s},{a}"))
            .collect(),
    )?;
    for (name, measured) in [("table2.csv", false), ("table3.csv", true)] {
        w(
            name,
            "function,est_lower,est_upper,ref_lower,ref_upper,pessimism_lower,pessimism_upper",
            table23_rows(data, measured)
                .into_iter()
                .map(|(n, e, r, (pl, pu))| {
                    format!("{n},{},{},{},{},{pl:.4},{pu:.4}", e.lower, e.upper, r.lower, r.upper)
                })
                .collect(),
        )?;
    }
    w(
        "ilpstats.csv",
        "function,lp_calls,nodes,first_relaxation_integral,solve_time_us",
        ilp_stat_rows(data)
            .into_iter()
            .map(|(n, st, t)| {
                format!(
                    "{n},{},{},{},{}",
                    st.lp_calls,
                    st.nodes,
                    st.first_relaxation_integral,
                    t.as_micros()
                )
            })
            .collect(),
    )?;
    w(
        "blowup.csv",
        "k,paths,truncated,explicit_us,implicit_us,lp_calls",
        blowup_rows(&[2, 4, 6, 8, 10, 12, 14, 16], 2_000_000)
            .into_iter()
            .map(|r| {
                format!(
                    "{},{},{},{},{},{}",
                    r.k,
                    r.paths,
                    r.truncated,
                    r.explicit_time.as_micros(),
                    r.implicit_time.as_micros(),
                    r.lp_calls
                )
            })
            .collect(),
    )?;
    w(
        "ablation.csv",
        "function,all_miss_wcet,split_wcet,measured_worst",
        ablation_split_rows().into_iter().map(|(n, b, s, m)| format!("{n},{b},{s},{m}")).collect(),
    )?;
    let pool = ipet_core::SolvePool::new(1);
    let names = ["check_data", "fft", "matgen"];
    let sweep = sweep_miss_penalty_parametric(&pool, &[0, 2, 4, 8, 16, 32], &names).points;
    w(
        "sweep.csv",
        "miss_penalty,function,wcet",
        sweep
            .into_iter()
            .flat_map(|p| {
                p.wcet.into_iter().map(move |(n, wcet)| format!("{},{n},{wcet}", p.miss_penalty))
            })
            .collect(),
    )?;
    Ok(())
}

/// WCET sensitivity rows: for every loop-bound annotation of every
/// benchmark, the marginal cost (in cycles) of one extra iteration.
pub fn sensitivity_rows() -> Vec<(String, String, i64, i64)> {
    let machine = Machine::i960kb();
    let mut out = Vec::new();
    for b in ipet_suite::all() {
        let program = b.program().unwrap();
        let analyzer = Analyzer::new(&program, machine).unwrap();
        let ann = b.annotations(&program);
        for (func, si, hi, delta) in analyzer.wcet_sensitivity(&ann).unwrap() {
            out.push((b.name.to_string(), format!("{func}#{si}"), hi, delta));
        }
    }
    out
}

#[cfg(test)]
mod param_proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Acceptance property of the parametric refactor: over random
        /// synthetic programs, the region-certified sweep's values are
        /// bit-identical to a concrete solve at every grid point.
        #[test]
        fn formula_sweep_matches_concrete_on_synth_programs(seed in 0u64..25) {
            let s = synth::generate(seed, synth::SynthConfig::default());
            let anns = {
                let analyzer = Analyzer::new(&s.program, Machine::i960kb()).unwrap();
                ipet_infer::infer_and_merge(
                    Some(&s.module),
                    &analyzer,
                    &ipet_core::Annotations::default(),
                    ipet_infer::InferMode::Only,
                )
                .unwrap()
                .annotations
            };
            let grid = [0u64, 2, 4, 8, 16, 32];
            let mut probe = |mp: u64| -> Result<ipet_lp::Probe, std::convert::Infallible> {
                let m = Machine { miss_penalty: mp, ..Machine::i960kb() };
                let est = Analyzer::new(&s.program, m).unwrap().analyze_parsed(&anns).unwrap();
                let line = est.wcet_formula.as_ref().and_then(|f| {
                    let (constant, slope) = f.specialize(ipet_hw::P_MISS, &m.param_point())?;
                    Some(ipet_lp::BoundFormula { constant, slope })
                });
                Ok(ipet_lp::Probe { values: vec![est.bound.upper as i128], formulas: vec![line] })
            };
            let sweep = ipet_lp::parametric::sweep_grid(&grid, &mut probe)
                .unwrap_or_else(|e| match e {});
            for (i, &mp) in grid.iter().enumerate() {
                let m = Machine { miss_penalty: mp, ..Machine::i960kb() };
                let est = Analyzer::new(&s.program, m).unwrap().analyze_parsed(&anns).unwrap();
                prop_assert_eq!(
                    sweep.values[i][0],
                    est.bound.upper as i128,
                    "seed {} penalty {}",
                    seed,
                    mp
                );
            }
        }
    }
}

#[cfg(test)]
mod exhaustive_tests {
    use super::*;

    /// The full sweep takes tens of seconds in debug builds; run with
    /// `cargo test -p ipet-bench -- --ignored` (or rely on
    /// `experiments exhaustive`, which asserts the same invariants).
    #[test]
    #[ignore = "slow: 41k simulator runs"]
    fn exhaustive_sweep_confirms_extremes() {
        for r in exhaustive_rows() {
            assert!(r.estimated.encloses(r.actual), "{}", r.name);
            assert!(r.extremes_confirmed, "{}", r.name);
        }
    }
}
