//! `experiments` — regenerates every table and figure of the paper.
//!
//! ```text
//! experiments all                 # everything below, in order
//! experiments fig1|fig2|fig3|fig4|fig5|fig6
//! experiments table1|table2|table3
//! experiments ilpstats            # §III-D: first LP relaxation integral
//! experiments blowup              # §II: explicit enumeration blow-up
//! experiments ablation-split     # §IV: first-iteration cache splitting
//! experiments sweep               # WCET vs i-cache miss penalty
//! experiments parametric [--check] # sweep via certified bound formulas
//! experiments dsp3210             # §VII: the AT&T DSP3210 port
//! experiments dcache              # future work: data-cache hardware model
//! experiments exhaustive          # actual bound by full input sweep
//! experiments sensitivity         # WCET price of each loop bound
//! experiments stress              # random-program soundness sweep
//! experiments tables              # Tables I-III via the solve pool, timing-free
//! experiments benchjson           # ipet-bench-v2 JSON doc: bounds, cache, trace
//! experiments counters            # deterministic metric lines (CI diffs these)
//! experiments gate BASELINE.json  # perf-regression gate vs a committed baseline
//! experiments csv [DIR]           # dump every table as CSV (default ./results)
//! ```
//!
//! `--jobs N` (default 1) sets the solve-pool worker count for the
//! pool-routed experiments (`all`, `table2`, `table3`, `tables`,
//! `benchjson`, `counters`, `gate`, `fig1`, `table1`, `sweep`,
//! `parametric`, `budget`). Table output is bit-for-bit identical for any
//! `N`; only wall-clock changes.
//!
//! `--infer[=only|prefer-annot]` runs `ipet-infer` loop-bound inference
//! on the pool-routed experiments before planning. On the bundled suite
//! every inferred bound matches (or tightens within) its hand
//! annotation, so every table row of `tables --infer` is byte-identical
//! to `tables` (CI diffs them modulo the `pool:` cache-summary line —
//! a tightened dhry interval changes which ILPs the cache can replay);
//! the `infer.*` trace counters record the outcome tallies.
//!
//! `gate` exits non-zero when a deterministic metric differs from the
//! baseline or the solve wall-clock regresses beyond `--tol-wall PCT`
//! (default 300). Refresh the baseline with
//! `experiments gate --write BENCH_baseline.json` when a change is
//! intentional.
//!
//! `--audit` appends an exact-arithmetic certification pass over every
//! Table I benchmark (`ipet-audit`) and exits 3 if any reported bound
//! fails to certify.
//!
//! `--jobs`, `--infer` and `--audit` are global; `gate`
//! also takes `--write` and `--tol-wall`, `parametric` takes `--check`. Any
//! other option exits 1 before the experiment runs.
//!
//! When the reader of stdout goes away (`experiments | head`), the run
//! exits quietly with status 141, the status a shell shows for a process
//! that `SIGPIPE` ended, instead of a panic.

/// `println!` onto stdout that exits quietly when the reader has gone (see
/// [`write_stdout`]).
macro_rules! outln {
    () => {
        $crate::write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// `print!` counterpart of `outln!`.
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!($($arg)*))
    };
}

use ipet_bench::*;

/// Writes to stdout. A reader that has closed the pipe ends the run with
/// 141 and no message: the reader asked for no more. Any other write
/// failure is a hard error (status 1).
fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(141);
        }
        eprintln!("experiments: stdout: {e}");
        std::process::exit(1);
    }
}

fn main() {
    // The global options may appear anywhere; everything else is
    // positional.
    let mut jobs = 1usize;
    let mut audit = false;
    let mut infer: Option<ipet_infer::InferMode> = None;
    let mut rest: Vec<String> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        if a == "--audit" {
            audit = true;
        } else if a == "--infer" {
            infer = Some(ipet_infer::InferMode::Merge);
        } else if let Some(m) = a.strip_prefix("--infer=") {
            infer = Some(ipet_infer::InferMode::parse(m).unwrap_or_else(|| {
                eprintln!("--infer={m}: expected only, prefer-annot or merge");
                std::process::exit(1);
            }));
        } else if a == "--jobs" {
            let v = it.next().unwrap_or_else(|| {
                eprintln!("--jobs needs a value");
                std::process::exit(1);
            });
            jobs = v.parse::<usize>().unwrap_or_else(|_| {
                eprintln!("--jobs: `{v}` is not a positive integer");
                std::process::exit(1);
            });
            jobs = jobs.max(1);
        } else {
            rest.push(a);
        }
    }
    let which = rest.first().cloned().unwrap_or_else(|| "all".to_string());
    if let Some(opt) = rest.iter().skip(1).find(|a| a.starts_with('-') && !takes(&which, a)) {
        eprintln!("experiments {which}: unexpected option {opt}");
        std::process::exit(1);
    }
    // The Table I-III data flows through the solve pool, with identical
    // results at any `--jobs` (the pool-level tests pin this down).
    let pooled = || run_all_pooled_infer(&ipet_core::SolvePool::new(jobs), infer);
    // `experiments csv <dir>` dumps every table as CSV for plotting.
    if which == "csv" {
        let dir = std::path::PathBuf::from(rest.get(1).map(String::as_str).unwrap_or("results"));
        write_csvs(&dir, &pooled().data).expect("writing CSVs");
        outln!("wrote CSVs to {}", dir.display());
        return;
    }
    match which.as_str() {
        "fig1" => fig1(&pooled().data),
        "fig2" | "fig3" | "fig4" => figures(),
        "fig5" => outln!("{}", fig5_text()),
        "fig6" => fig6(),
        "table1" => table1(&pooled().data),
        "table2" => table23(&pooled().data, false),
        "table3" => table23(&pooled().data, true),
        "ilpstats" => ilpstats(&run_all()),
        "blowup" => blowup(),
        "ablation-split" => ablation(),
        "sweep" => sweep(jobs),
        "parametric" => parametric(jobs, &rest[1..]),
        "dsp3210" => dsp3210(),
        "dcache" => dcache(),
        "exhaustive" => exhaustive(),
        "sensitivity" => sensitivity(),
        "stress" => stress(),
        "budget" => budget(jobs),
        "tables" => tables(jobs, infer),
        "benchjson" => benchjson(jobs, infer),
        "counters" => counters(jobs, infer),
        "gate" => gate_cmd(jobs, infer, &rest[1..]),
        "all" => {
            // One pool for the whole run: the miss-penalty sweep's point at
            // the default penalty (8) replays the Table II/III solves from
            // the shared cache instead of repeating them.
            let pool = ipet_core::SolvePool::new(jobs);
            let run = run_all_pooled_infer(&pool, None);
            figures();
            outln!("{}", fig5_text());
            fig6();
            fig1(&run.data);
            table1(&run.data);
            table23(&run.data, false);
            table23(&run.data, true);
            // Per-benchmark solve timing needs one analysis per benchmark
            // (a shared batch interleaves solves across benchmarks).
            ilpstats(&run_all());
            blowup();
            ablation();
            sweep_pooled(&pool);
            pool_summary(&pool, &run);
            dsp3210();
            dcache();
            exhaustive();
            sensitivity();
            stress();
            budget(jobs);
        }
        other => {
            eprintln!("unknown experiment {other}");
            std::process::exit(1);
        }
    }
    // `--audit`: after the requested experiment, re-verify every Table I
    // benchmark's bounds in exact arithmetic and fail loudly (exit 3) if a
    // certificate is rejected.
    if audit {
        let reports = audit_all_pooled(jobs);
        let mut rejected = 0usize;
        for (name, report) in &reports {
            outln!(
                "audit {name}: {} verdict(s) certified, {} rejected",
                report.certified(),
                report.rejected()
            );
            for cert in &report.sets {
                for verdict in [&cert.wcet, &cert.bcet] {
                    if verdict.is_rejection() {
                        eprintln!("  set {}: {}", cert.set, verdict.describe());
                    }
                }
            }
            rejected += report.rejected();
        }
        if rejected > 0 {
            eprintln!("audit: {rejected} verdict(s) rejected — bounds must not be trusted");
            std::process::exit(3);
        }
        outln!("audit: all {} benchmark(s) certified", reports.len());
    }
}

/// The options `which` takes beyond the global `--jobs`, `--audit` and
/// `--infer`; any other option is an error, so a
/// misspelt or retired flag never runs silently.
fn takes(which: &str, opt: &str) -> bool {
    match which {
        "gate" => opt == "--tol-wall" || opt == "--write",
        "parametric" => opt == "--check",
        _ => false,
    }
}

const SWEEP_PENALTIES: [u64; 6] = [0, 2, 4, 8, 16, 32];
const SWEEP_NAMES: [&str; 3] = ["check_data", "fft", "matgen"];

/// Tables I-III plus the miss-penalty sweep through one shared solve pool,
/// printing only deterministic data: no wall-clock, no per-worker figures.
/// `tables --jobs 1` and `tables --jobs 8` must produce byte-identical
/// output (CI diffs them).
fn tables(jobs: usize, infer: Option<ipet_infer::InferMode>) {
    let pool = ipet_core::SolvePool::new(jobs);
    let run = run_all_pooled_infer(&pool, infer);
    table1(&run.data);
    table23(&run.data, false);
    table23(&run.data, true);
    let sweep = sweep_miss_penalty_parametric(&pool, &SWEEP_PENALTIES, &SWEEP_NAMES);
    print_sweep(&sweep.points);
    let stats = pool.cache_stats();
    outln!(
        "pool: {} solved, {} replayed, {} rejected replays, {} simplex ticks",
        stats.misses,
        stats.hits,
        stats.rejected,
        run.total_ticks + sweep.report.total_ticks
    );
}

fn pool_summary(pool: &ipet_core::SolvePool, run: &PooledRun) {
    let stats = pool.cache_stats();
    outln!("== solve pool: {} worker(s) ==", run.jobs);
    outln!(
        "cache: {} solved, {} replayed, {} rejected replays",
        stats.misses,
        stats.hits,
        stats.rejected
    );
    outln!(
        "table batch: {} ticks across workers {:?}; solve wall-clock {:.2?}",
        run.total_ticks,
        run.worker_ticks,
        run.solve_wall
    );
    outln!();
}

/// Runs the Table I-III batch plus the miss-penalty sweep on one shared
/// pool with the trace recorder installed, assembling the `ipet-bench-v2`
/// document: bounds, set counts, cache traffic, tick totals, the full
/// trace, and the (non-deterministic) timing sections.
fn collect_bench_doc(jobs: usize, infer: Option<ipet_infer::InferMode>) -> ipet_trace::Json {
    let recorder = ipet_trace::install();
    recorder.reset();
    let pool = ipet_core::SolvePool::new(jobs);
    let run = run_all_pooled_infer(&pool, infer);
    let sweep_report = sweep_miss_penalty_parametric(&pool, &SWEEP_PENALTIES, &SWEEP_NAMES).report;
    // Solve-phase wall only: compile/simulate/planning are serial and
    // identical across `--jobs`, so including them would bury the signal.
    let solve_wall = run.solve_wall + sweep_report.wall;
    gate::bench_doc(&run, &sweep_report, solve_wall, &recorder.snapshot())
}

/// Machine-readable run summary for tracking solve performance over time:
/// one pretty-printed `ipet-bench-v2` JSON document (schema and sections in
/// [`gate::bench_doc`]). This is the format of the committed
/// `BENCH_baseline.json`; redirect stdout to refresh it.
fn benchjson(jobs: usize, infer: Option<ipet_infer::InferMode>) {
    out!("{}", collect_bench_doc(jobs, infer).render_pretty());
}

/// The deterministic metric lines of the bench document, one `key = value`
/// per line. Identical for any `--jobs` value — CI diffs `counters --jobs
/// 1` against `counters --jobs 8` to prove trace counters are
/// scheduling-independent.
fn counters(jobs: usize, infer: Option<ipet_infer::InferMode>) {
    let doc = collect_bench_doc(jobs, infer);
    let lines = gate::deterministic_lines(&doc).unwrap_or_else(|e| {
        eprintln!("internal error: {e}");
        std::process::exit(1);
    });
    for line in lines {
        outln!("{line}");
    }
}

/// `experiments gate BASELINE.json [--tol-wall PCT]`: compares the current
/// run against the committed baseline and exits non-zero on regression.
/// `--write` regenerates the baseline in place instead of comparing — the
/// sanctioned way to refresh `BENCH_baseline.json` after an intentional
/// change (CI's refresh path uses it).
fn gate_cmd(jobs: usize, infer: Option<ipet_infer::InferMode>, args: &[String]) {
    let mut baseline_path: Option<&str> = None;
    let mut write = false;
    let mut config = gate::GateConfig::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--tol-wall" {
            let v = it.next().and_then(|v| v.parse::<f64>().ok()).unwrap_or_else(|| {
                eprintln!("--tol-wall needs a percentage");
                std::process::exit(1);
            });
            config.wall_tolerance_pct = v;
        } else if a == "--write" {
            write = true;
        } else {
            baseline_path = Some(a);
        }
    }
    let Some(path) = baseline_path else {
        eprintln!("usage: experiments gate BASELINE.json [--write] [--tol-wall PCT] [--jobs N]");
        std::process::exit(1);
    };
    if write {
        let doc = collect_bench_doc(jobs, infer).render_pretty();
        std::fs::write(path, doc).unwrap_or_else(|e| {
            eprintln!("gate: cannot write {path}: {e}");
            std::process::exit(1);
        });
        outln!("gate: wrote fresh baseline to {path}");
        return;
    }
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("gate: cannot read {path}: {e}");
        std::process::exit(1);
    });
    let baseline = ipet_trace::parse_json(&text).unwrap_or_else(|e| {
        eprintln!("gate: {path} is not valid JSON: {e}");
        std::process::exit(1);
    });
    let current = collect_bench_doc(jobs, infer);
    let report = gate::compare(&baseline, &current, &config);
    for note in &report.notes {
        outln!("gate: {note}");
    }
    if report.passed() {
        outln!("gate: PASS ({path})");
    } else {
        for failure in &report.failures {
            eprintln!("gate: FAIL {failure}");
        }
        eprintln!(
            "gate: {} regression(s) vs {path}; if intentional, refresh with \
             `experiments gate --write {path}`",
            report.failures.len()
        );
        std::process::exit(1);
    }
}

/// The miss-penalty sweep rendered from pooled points (same table as
/// [`sweep`], but solved through the shared pool), plus each routine's
/// certified bound formula.
fn sweep_pooled(pool: &ipet_core::SolvePool) {
    let s = sweep_miss_penalty_parametric(pool, &SWEEP_PENALTIES, &SWEEP_NAMES);
    print_sweep(&s.points);
    print_regions(&s);
}

/// Renders each routine's bound formula with its certified validity
/// interval on the swept grid, plus the solve/reuse tallies.
fn print_regions(s: &ParametricSweep) {
    outln!("== parametric: per-routine bound formulas wcet(p) on penalty p ==");
    outln!("{:<16} {:>7} {:>7}   formula", "function", "from", "to");
    for r in &s.regions {
        outln!(
            "{:<16} {:>7} {:>7}   wcet(p) = {}",
            r.name,
            r.from_penalty,
            r.to_penalty,
            r.formula
        );
    }
    outln!(
        "parametric: {} grid point(s): {} concrete solve(s), {} formula hit(s), \
         {} region exit(s)",
        SWEEP_PENALTIES.len(),
        s.resolves,
        s.region_hits,
        s.region_exits
    );
    outln!();
}

fn print_sweep(points: &[SweepPoint]) {
    outln!("== sensitivity: estimated WCET vs i-cache miss penalty ==");
    out!("{:<10}", "penalty");
    for n in SWEEP_NAMES {
        out!(" {n:>16}");
    }
    outln!();
    for p in points {
        out!("{:<10}", p.miss_penalty);
        for (_, w) in &p.wcet {
            out!(" {:>16}", group_digits(*w));
        }
        outln!();
    }
    outln!();
}

fn fig1(data: &[BenchData]) {
    outln!("== Fig. 1: estimated bound encloses the actual (measured) bound ==");
    outln!("{:<16} {:>24} {:>24}  encloses", "function", "estimated", "measured");
    for (name, est, meas, ok) in fig1_rows(data) {
        outln!("{name:<16} {:>24} {:>24}  {}", fmt_bound(est), fmt_bound(meas), ok);
    }
    outln!();
}

fn figures() {
    outln!("== Figs. 2-4: structural constraints extracted from the CFG ==");
    for (title, program) in figure_cfgs() {
        outln!("-- {title} --");
        outln!("{}", ipet_arch::disassemble_program(&program));
        outln!("{}", structural_dump(&program));
    }
}

fn fig6() {
    let (text, est) = fig6_text();
    outln!("== Fig. 6: caller/callee path relationship (x4 = x6.f1) ==");
    outln!("{text}");
    outln!(
        "estimated bound: {}  ({} sets, {} pruned)",
        fmt_bound(est.bound),
        est.sets_total,
        est.sets_pruned
    );
    outln!();
}

fn table1(data: &[BenchData]) {
    outln!("== Table I: benchmark set ==");
    outln!(
        "{:<16} {:>11} {:>10} {:>10} {:>12}",
        "function",
        "paper-lines",
        "our-lines",
        "paper-sets",
        "our-sets"
    );
    for (name, plines, lines, psets, sets, after) in table1_rows(data) {
        let our = if sets == after { format!("{sets}") } else { format!("{sets})-{after}") };
        outln!("{name:<16} {plines:>11} {lines:>10} {psets:>10} {our:>12}");
    }
    outln!();
}

fn table23(data: &[BenchData], measured: bool) {
    if measured {
        outln!("== Table III: estimated vs measured bound (cycle-level simulation) ==");
    } else {
        outln!("== Table II: pessimism in path analysis (estimated vs calculated) ==");
    }
    let reference = if measured { "measured" } else { "calculated" };
    outln!("{:<16} {:>24} {:>24} {:>16}", "function", "estimated", reference, "pessimism");
    for (name, est, refb, (pl, pu)) in table23_rows(data, measured) {
        outln!("{name:<16} {:>24} {:>24}    [{pl:5.2}, {pu:5.2}]", fmt_bound(est), fmt_bound(refb));
    }
    outln!();
}

fn ilpstats(data: &[BenchData]) {
    outln!("== §III-D: ILP solver behaviour (branch & bound) ==");
    outln!(
        "{:<16} {:>9} {:>7} {:>24} {:>12}",
        "function",
        "lp-calls",
        "nodes",
        "first-relax-integral",
        "solve-time"
    );
    let mut all_integral = true;
    for (name, stats, time) in ilp_stat_rows(data) {
        all_integral &= stats.first_relaxation_integral;
        outln!(
            "{name:<16} {:>9} {:>7} {:>24} {:>9.2?}",
            stats.lp_calls,
            stats.nodes,
            stats.first_relaxation_integral,
            time
        );
    }
    outln!("=> every first LP relaxation integral: {all_integral} (the paper's observation)\n");
}

fn blowup() {
    outln!("== §II: explicit path enumeration vs IPET (k sequential diamonds) ==");
    outln!(
        "{:<4} {:>12} {:>10} {:>14} {:>9} {:>14}",
        "k",
        "paths",
        "truncated",
        "explicit-time",
        "lp-calls",
        "implicit-time"
    );
    for r in blowup_rows(&[2, 4, 6, 8, 10, 12, 14, 16, 18, 20], 2_000_000) {
        outln!(
            "{:<4} {:>12} {:>10} {:>11.2?} {:>9} {:>11.2?}",
            r.k,
            group_digits(r.paths),
            r.truncated,
            r.explicit_time,
            r.lp_calls,
            r.implicit_time
        );
    }
    outln!();
}

fn ablation() {
    outln!("== §IV ablation: all-miss vs first-iteration cache splitting ==");
    outln!(
        "{:<16} {:>12} {:>12} {:>12} {:>10}",
        "function",
        "all-miss",
        "split",
        "measured",
        "tightened"
    );
    for (name, base, split, meas) in ablation_split_rows() {
        let gain = 100.0 * (base - split) as f64 / base as f64;
        outln!(
            "{name:<16} {:>12} {:>12} {:>12} {:>9.1}%",
            group_digits(base),
            group_digits(split),
            group_digits(meas),
            gain
        );
    }
    outln!();
}

fn sweep(jobs: usize) {
    let pool = ipet_core::SolvePool::new(jobs);
    print_sweep(&sweep_miss_penalty_parametric(&pool, &SWEEP_PENALTIES, &SWEEP_NAMES).points);
}

/// `experiments parametric [--check]`: the miss-penalty sweep answered by
/// certified bound formulas, printing each routine's `wcet(p)` line with
/// its validity interval on the grid. `--check` re-runs the whole grid
/// with one concrete solve per point and exits 1 unless the two sweeps
/// are bit-identical (the CI `parametric` job runs this at `--jobs 1`
/// and `--jobs 8`).
fn parametric(jobs: usize, args: &[String]) {
    let check = args.iter().any(|a| a == "--check");
    let pool = ipet_core::SolvePool::new(jobs);
    let s = sweep_miss_penalty_parametric(&pool, &SWEEP_PENALTIES, &SWEEP_NAMES);
    print_sweep(&s.points);
    print_regions(&s);
    if check {
        let concrete_pool = ipet_core::SolvePool::new(jobs);
        let (concrete, _) =
            sweep_miss_penalty_concrete(&concrete_pool, &SWEEP_PENALTIES, &SWEEP_NAMES);
        let mut failures = 0usize;
        for (got, want) in s.points.iter().zip(&concrete) {
            for ((gn, gw), (wn, ww)) in got.wcet.iter().zip(&want.wcet) {
                assert_eq!(gn, wn);
                if gw != ww {
                    eprintln!(
                        "parametric: MISMATCH {gn} at penalty {}: formula {gw}, concrete {ww}",
                        got.miss_penalty
                    );
                    failures += 1;
                }
            }
        }
        if s.resolves >= SWEEP_PENALTIES.len() as u64 {
            eprintln!(
                "parametric: region reuse never fired ({} solves for {} grid points)",
                s.resolves,
                SWEEP_PENALTIES.len()
            );
            failures += 1;
        }
        if failures > 0 {
            eprintln!("parametric: CHECK FAILED ({failures} failure(s))");
            std::process::exit(1);
        }
        outln!(
            "parametric: CHECK PASS — formulas match concrete solves on all {} point(s)",
            SWEEP_PENALTIES.len()
        );
    }
}

fn dsp3210() {
    outln!("== §VII: the AT&T DSP3210 port (second machine model) ==");
    outln!("{:<16} {:>24} {:>24}  encloses", "function", "estimated", "measured");
    for (name, est, meas, ok) in machine_rows(ipet_hw::Machine::dsp3210()) {
        outln!("{name:<16} {:>24} {:>24}  {ok}", fmt_bound(est), fmt_bound(meas));
        assert!(ok, "{name}: unsound on dsp3210");
    }
    outln!();
}

fn stress() {
    outln!("== stress: random programs, inferred bounds, soundness probes ==");
    let rows = stress_rows(25);
    let mut all = true;
    for r in &rows {
        all &= r.sound;
    }
    outln!(
        "{} random programs, {} total loops, all sound: {all}",
        rows.len(),
        rows.iter().map(|r| r.loops).sum::<usize>()
    );
    for r in rows.iter().take(5) {
        outln!("  seed {:>3}: {} loops, bound {}", r.seed, r.loops, fmt_bound(r.bound));
    }
    outln!();
}

fn dcache() {
    outln!("== future work: i960KB fitted with a data cache (hardware-model refinement) ==");
    outln!("{:<16} {:>24} {:>24}  encloses", "function", "estimated", "measured");
    for (name, est, meas, ok) in machine_rows(ipet_hw::Machine::i960kb_with_dcache()) {
        outln!("{name:<16} {:>24} {:>24}  {ok}", fmt_bound(est), fmt_bound(meas));
        assert!(ok, "{name}: unsound with a data cache");
    }
    outln!();
}

fn exhaustive() {
    outln!("== actual bound by exhaustive input sweep (infeasible in general; feasible here) ==");
    outln!(
        "{:<12} {:>8} {:>22} {:>24} {:>10}",
        "function",
        "runs",
        "actual [T_min,T_max]",
        "estimated [t_min,t_max]",
        "extremes"
    );
    for r in exhaustive_rows() {
        outln!(
            "{:<12} {:>8} {:>22} {:>24} {:>10}",
            r.name,
            group_digits(r.runs),
            fmt_bound(r.actual),
            fmt_bound(r.estimated),
            if r.extremes_confirmed { "confirmed" } else { "NOT!" }
        );
        assert!(r.estimated.encloses(r.actual), "{}: actual bound escapes", r.name);
    }
    outln!();
}

fn sensitivity() {
    outln!("== WCET sensitivity: cycles gained per extra loop iteration ==");
    outln!("{:<16} {:<22} {:>8} {:>14}", "function", "loop", "bound", "delta-cycles");
    for (bench, loop_id, hi, delta) in sensitivity_rows() {
        outln!("{bench:<16} {loop_id:<22} {hi:>8} {delta:>14}");
        assert!(delta >= 0, "widening a bound can never shrink the WCET");
    }
    outln!();
}

fn budget(jobs: usize) {
    outln!("== budget: bound quality under shrinking tick deadlines ==");
    outln!(
        "{:<12} {:>10} {:>24} {:>8} {:>8} {:>8}  safe",
        "function",
        "deadline",
        "bound",
        "quality",
        "skipped",
        "relaxed"
    );
    let rows = budget_rows(jobs, &[100_000, 1_000, 100, 10, 0], &["check_data", "piksrt", "des"]);
    for r in &rows {
        let deadline = r.deadline_ticks.map(group_digits).unwrap_or_else(|| "unlimited".into());
        outln!(
            "{:<12} {:>10} {:>24} {:>8} {:>8} {:>8}  {}",
            r.name,
            deadline,
            fmt_bound(r.bound),
            r.quality.to_string(),
            r.sets_skipped,
            r.degraded_sets,
            r.safe
        );
    }
    outln!();
}
