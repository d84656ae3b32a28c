//! `cinderella` — the timing-analysis tool of the reproduction, named
//! after the paper's tool ("in recognition of her hard real-time
//! constraint: she had to be back home at the stroke of midnight").
//!
//! ```text
//! cinderella list
//! cinderella cfg <benchmark|file.mc> [--entry NAME]
//! cinderella listing <benchmark|file.mc> [--entry NAME]
//! cinderella analyze <benchmark|file.mc> [--entry NAME]
//!            [--annotations FILE] [--idl FILE] [--infer]
//!            [--machine i960kb|dsp3210] [--cache-split]
//!            [--dump-structural] [--measure]
//! ```
//!
//! `cfg` prints the annotated listing: disassembly, basic blocks with
//! their `x_i` variables and costs, the structural constraints in the
//! paper's notation, and the loops that need bounds. `listing` prints the
//! annotated source in the style of the paper's Fig. 5. `analyze` runs the
//! full IPET estimation and reports the estimated bound, block costs and
//! counts — the outputs the paper describes in §V. `--infer` runs the
//! `ipet-infer` loop-bound inference and merges the derived intervals
//! with any annotations (`=only` drops annotated loop bounds, failing
//! loudly on loops the abstraction cannot bound; `=prefer-annot` lets
//! annotations win); `--idl` accepts Park-style IDL annotations;
//! `--machine dsp3210` selects the paper's §VII port target.
//!
//! `analyze` accepts **multiple targets** in one invocation and a
//! `--jobs N` worker count: all targets' ILPs are batched through one
//! work-stealing solve pool with its content-addressed replay tier, and
//! the per-target reports are printed in argument order. A tick deadline
//! is split evenly over the batch's fresh solves, so the reports are
//! bit-for-bit identical for any `--jobs` value.
//!
//! Reports go to stdout through `outln!` and `out!`: a reader that
//! stops early (`cinderella cfg piksrt | head -1`) ends the process
//! quietly with status 141, the status a shell shows for a process that
//! `SIGPIPE` ended, instead of a panic.

/// `println!` onto stdout that exits quietly when the reader has gone (see
/// [`write_stdout`]).
macro_rules! outln {
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

mod serve;

use ipet_cfg::{CallGraphError, InstanceId};
use ipet_core::{
    structural_text, AnalysisBudget, AnalysisError, Analyzer, AuditReport, CacheMode, ContextMode,
    Estimate, SolvePool, SolveRequest, SolverFaults, TimeBound,
};
use ipet_hw::Machine;
use ipet_sim::measure;
use ipet_store::Store;
use std::process::ExitCode;
use std::sync::Arc;

/// What a successful run proved: `Degraded` means every reported bound is
/// still *safe*, but at least one came from a relaxation or a skipped
/// constraint set rather than an exact solve. `AuditFailed` means the
/// exact-arithmetic certifier rejected at least one reported bound — the
/// result must not be trusted.
pub(crate) enum RunStatus {
    Exact,
    Degraded,
    AuditFailed,
}

/// Writes a report fragment to stdout. A closed pipe exits with status
/// 141 and no message: the reader asked for no more. Any other write
/// failure is a hard error (status 1).
fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(141);
        }
        eprintln!("cinderella: stdout: {e}");
        std::process::exit(1);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Exit-code contract: 0 = exact result, 2 = safe but degraded bound,
    // 3 = audit rejected a reported bound, 1 = hard error (no usable bound
    // at all).
    match run(&args) {
        Ok(RunStatus::Exact) => ExitCode::SUCCESS,
        Ok(RunStatus::Degraded) => ExitCode::from(2),
        Ok(RunStatus::AuditFailed) => ExitCode::from(3),
        Err(e) => {
            eprintln!("cinderella: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> String {
    "usage: cinderella <list|cfg|listing|dot|trace|analyze> [target] [options]\n\
     \x20 list                         list bundled benchmarks\n\
     \x20 cfg <bench|file.mc>          print disassembly, CFG and structural constraints\n\
     \x20 listing <bench|file.mc>      print the Fig.-5-style annotated source\n\
     \x20 dot <bench|file.mc>          print the CFGs in Graphviz DOT syntax\n\
     \x20 trace <bench>                print the worst-case block trace\n\
     \x20 analyze <bench|file.mc>...   estimate [t_min, t_max] (one or more targets)\n\
     \x20 serve                        long-running NDJSON analysis daemon (stdin or\n\
     \x20                               --socket PATH; see --store for warm replays)\n\
     serve:   --max-inflight N (concurrent requests; default 4) --max-queue N\n\
     \x20         (waiters before shedding; default 16) --timeout-ms MS\n\
     \x20         (per-request wall-clock watchdog; expiry degrades the bound)\n\
     options: --entry NAME --annotations FILE --idl FILE -O1 --shared\n\
     \x20        --infer[=only|prefer-annot] (derive loop bounds; default merges\n\
     \x20         with annotations taking the tighter interval per loop)\n\
     \x20        --machine i960kb|dsp3210 --cache-split --dump-structural --measure\n\
     \x20        --parametric (sweep the i-cache miss penalty and print each\n\
     \x20         routine's certified WCET bound formula wcet(p) with its\n\
     \x20         validity interval)\n\
     \x20        --jobs N (parallel ILP workers; output identical for any N)\n\
     \x20        --trace-json FILE (write the ipet-trace document of the run)\n\
     \x20        --audit (re-certify every bound in exact integer arithmetic)\n\
     store:   --store FILE (crash-safe persistent solve store: certified replays\n\
     \x20         across runs; bounds are bit-identical with or without it)\n\
     budget:  --deadline TICKS --max-nodes N --max-sets N --no-degrade\n\
     faults:  --inject-corrupt-witness N --inject-corrupt-bound N\n\
     \x20        (corrupt the Nth ILP solve inside each fresh solve of the\n\
     \x20         pool, so 0 hits every one; the audit must catch it)\n\
     \x20        --inject-fail-write N --inject-torn-write N\n\
     \x20        --inject-corrupt-record N --inject-fail-open\n\
     \x20        (store IO faults; need --store; every one degrades to cold\n\
     \x20         solves with identical bounds and exit 0)\n\
     exit status: 0 exact, 2 safe-but-degraded bound, 3 audit rejection, 1 error"
        .to_string()
}

pub(crate) struct Target {
    name: String,
    program: ipet_arch::Program,
    annotations: String,
    source: Option<String>,
    /// The mini-C AST, when the target came through the language
    /// frontend — feeds the AST layer of `--infer`. `.s` targets have
    /// none (the machine-level rule still applies).
    module: Option<ipet_lang::Module>,
    bench: Option<ipet_suite::Benchmark>,
}

fn load_target(
    name: &str,
    entry: Option<&str>,
    ann_file: Option<&str>,
    idl_file: Option<&str>,
    optimize: bool,
) -> Result<Target, String> {
    target_from(name, read_target_file(name)?, entry, ann_file, idl_file, optimize)
}

/// The bytes of a `.mc` or `.s` target; `None` for a bundled benchmark.
pub(crate) fn read_target_file(name: &str) -> Result<Option<String>, String> {
    if name.ends_with(".mc") || name.ends_with(".s") {
        std::fs::read_to_string(name).map(Some).map_err(|e| format!("{name}: {e}"))
    } else {
        Ok(None)
    }
}

/// [`load_target`] over the target's bytes as [`read_target_file`] read
/// them.
pub(crate) fn target_from(
    name: &str,
    file: Option<String>,
    entry: Option<&str>,
    ann_file: Option<&str>,
    idl_file: Option<&str>,
    optimize: bool,
) -> Result<Target, String> {
    let read_annotations = |fallback: String| -> Result<String, String> {
        match (ann_file, idl_file) {
            (Some(_), Some(_)) => Err("use --annotations or --idl, not both".into()),
            (Some(f), None) => std::fs::read_to_string(f).map_err(|e| format!("{f}: {e}")),
            (None, Some(f)) => {
                let src = std::fs::read_to_string(f).map_err(|e| format!("{f}: {e}"))?;
                ipet_core::compile_idl(&src).map_err(|e| e.to_string())
            }
            (None, None) => Ok(fallback),
        }
    };
    match file {
        Some(src) if name.ends_with(".mc") => {
            let entry = entry.unwrap_or("main");
            let level = if optimize { ipet_lang::OptLevel::O1 } else { ipet_lang::OptLevel::O0 };
            let (module, program) = ipet_lang::compile_parsed(&src, entry, level)
                .map_err(|e| format!("{name}: {e}"))?;
            let annotations = read_annotations(String::new())?;
            Ok(Target {
                name: name.to_string(),
                program,
                annotations,
                source: Some(src),
                module: Some(module),
                bench: None,
            })
        }
        Some(src) => {
            let program = ipet_arch::parse_program(&src).map_err(|e| format!("{name}: {e}"))?;
            let annotations = read_annotations(String::new())?;
            Ok(Target {
                name: name.to_string(),
                program,
                annotations,
                source: Some(src),
                module: None,
                bench: None,
            })
        }
        None => {
            let bench = ipet_suite::by_name(name)
                .ok_or_else(|| format!("no benchmark named {name}; try `cinderella list`"))?;
            let (module, program) =
                ipet_lang::compile_parsed(bench.source, bench.entry, ipet_lang::OptLevel::O0)
                    .map_err(|e| format!("{name}: {e}"))?;
            let annotations = read_annotations(bench.annotations(&program))?;
            Ok(Target {
                name: name.to_string(),
                program,
                annotations,
                source: Some(bench.source.to_string()),
                module: Some(module),
                bench: Some(bench),
            })
        }
    }
}

fn run(args: &[String]) -> Result<RunStatus, String> {
    let mut cmd = None;
    let mut targets: Vec<String> = Vec::new();
    let mut entry = None;
    let mut ann_file = None;
    let mut idl_file = None;
    let mut machine_name = "i960kb".to_string();
    let mut cache_split = false;
    let mut dump_structural = false;
    let mut do_measure = false;
    let mut parametric = false;
    let mut infer: Option<ipet_infer::InferMode> = None;
    let mut optimize = false;
    let mut shared = false;
    let mut jobs = 1usize;
    let mut trace_json: Option<String> = None;
    let mut audit = false;
    let mut faults = SolverFaults::none();
    let mut budget = AnalysisBudget::default();
    let mut store_path: Option<String> = None;
    let mut socket: Option<String> = None;
    let mut io_faults = SolverFaults::none();
    let mut max_inflight = 4usize;
    let mut max_queue = 16usize;
    let mut timeout_ms: Option<u64> = None;

    let parse_num = |flag: &str, v: Option<&String>| -> Result<u64, String> {
        let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
        v.parse::<u64>().map_err(|_| format!("{flag}: `{v}` is not a non-negative integer"))
    };

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--entry" => entry = Some(it.next().ok_or("--entry needs a value")?.to_string()),
            "--annotations" => {
                ann_file = Some(it.next().ok_or("--annotations needs a value")?.to_string())
            }
            "--idl" => idl_file = Some(it.next().ok_or("--idl needs a value")?.to_string()),
            "--machine" => machine_name = it.next().ok_or("--machine needs a value")?.to_string(),
            "--infer" => infer = Some(ipet_infer::InferMode::Merge),
            "--shared" => shared = true,
            "-O1" => optimize = true,
            "--cache-split" => cache_split = true,
            "--dump-structural" => dump_structural = true,
            "--measure" => do_measure = true,
            "--parametric" => parametric = true,
            "--deadline" => budget.solve.deadline_ticks = Some(parse_num("--deadline", it.next())?),
            "--max-nodes" => budget.solve.max_nodes = parse_num("--max-nodes", it.next())? as usize,
            "--max-sets" => budget.max_sets = parse_num("--max-sets", it.next())? as usize,
            "--no-degrade" => budget.degrade = false,
            "--jobs" => {
                jobs = parse_num("--jobs", it.next())?.max(1) as usize;
            }
            "--trace-json" => {
                trace_json = Some(it.next().ok_or("--trace-json needs a value")?.to_string())
            }
            "--audit" => audit = true,
            "--inject-corrupt-witness" => {
                faults = SolverFaults::corrupt_witness_at(parse_num(
                    "--inject-corrupt-witness",
                    it.next(),
                )?);
            }
            "--inject-corrupt-bound" => {
                faults =
                    SolverFaults::corrupt_bound_at(parse_num("--inject-corrupt-bound", it.next())?);
            }
            "--store" => store_path = Some(it.next().ok_or("--store needs a value")?.to_string()),
            "--socket" => socket = Some(it.next().ok_or("--socket needs a value")?.to_string()),
            "--max-inflight" => {
                max_inflight = parse_num("--max-inflight", it.next())?.max(1) as usize
            }
            "--max-queue" => max_queue = parse_num("--max-queue", it.next())? as usize,
            "--timeout-ms" => timeout_ms = Some(parse_num("--timeout-ms", it.next())?),
            "--inject-fail-write" => {
                io_faults =
                    SolverFaults::fail_write_at(parse_num("--inject-fail-write", it.next())?)
            }
            "--inject-torn-write" => {
                io_faults =
                    SolverFaults::torn_write_at(parse_num("--inject-torn-write", it.next())?)
            }
            "--inject-corrupt-record" => {
                io_faults = SolverFaults::corrupt_record_at(parse_num(
                    "--inject-corrupt-record",
                    it.next(),
                )?)
            }
            "--inject-fail-open" => io_faults = SolverFaults::fail_open(),
            other if other.starts_with("--infer=") => {
                let m = &other["--infer=".len()..];
                infer =
                    Some(ipet_infer::InferMode::parse(m).ok_or_else(|| {
                        format!("--infer={m}: expected only, prefer-annot or merge")
                    })?);
            }
            other if other.starts_with('-') => {
                return Err(format!("unexpected argument {other}\n{}", usage()))
            }
            _ if cmd.is_none() => cmd = Some(a.to_string()),
            _ => targets.push(a.to_string()),
        }
    }

    match cmd.as_deref() {
        Some("list") => {
            outln!("{:<16} {:>5}  description", "name", "lines");
            for b in ipet_suite::all() {
                outln!("{:<16} {:>5}  {}", b.name, b.source_lines(), b.description);
            }
            Ok(RunStatus::Exact)
        }
        Some("cfg") => {
            let t = load_target(
                single_target(&targets)?,
                entry.as_deref(),
                ann_file.as_deref(),
                idl_file.as_deref(),
                optimize,
            )?;
            print_cfg(&t.program, &machine_name).map(|()| RunStatus::Exact)
        }
        Some("trace") => {
            let t = load_target(
                single_target(&targets)?,
                entry.as_deref(),
                ann_file.as_deref(),
                idl_file.as_deref(),
                optimize,
            )?;
            let b = t
                .bench
                .as_ref()
                .ok_or("trace requires a bundled benchmark (it carries the data sets)")?;
            let machine = machine_by_name(&machine_name)?;
            let mut sim =
                ipet_sim::Simulator::new(&t.program, machine, ipet_sim::SimConfig::default());
            for (name, data) in (b.worst_seeds)() {
                sim.seed_global(name, &data).map_err(|e| e.to_string())?;
            }
            let (result, trace) = sim.run_traced(b.args_worst, 100).map_err(|e| e.to_string())?;
            outln!(
                "worst-case block trace (first {} of {} block entries):",
                trace.len(),
                result.block_counts.values().sum::<u64>()
            );
            for ev in &trace {
                outln!(
                    "  cycle {:>8}  {}  x{}",
                    ev.cycle,
                    t.program.functions[ev.func.0].name,
                    ev.block.0 + 1
                );
            }
            outln!("total: {} cycles, {} instructions", result.cycles, result.steps);
            Ok(RunStatus::Exact)
        }
        Some("dot") => {
            let t = load_target(
                single_target(&targets)?,
                entry.as_deref(),
                ann_file.as_deref(),
                idl_file.as_deref(),
                optimize,
            )?;
            let analyzer =
                Analyzer::new(&t.program, Machine::i960kb()).map_err(|e| e.to_string())?;
            let mut seen = std::collections::HashSet::new();
            for i in 0..analyzer.instances().len() {
                let cfg = analyzer.instances().cfg(InstanceId(i));
                if seen.insert(cfg.func) {
                    outln!("{}", cfg.to_dot());
                }
            }
            Ok(RunStatus::Exact)
        }
        Some("listing") => {
            let t = load_target(
                single_target(&targets)?,
                entry.as_deref(),
                ann_file.as_deref(),
                idl_file.as_deref(),
                optimize,
            )?;
            listing(&t).map(|()| RunStatus::Exact)
        }
        Some("serve") => {
            if !targets.is_empty() {
                return Err("serve takes no targets; requests arrive as NDJSON".into());
            }
            if faults.armed() {
                return Err("--inject-corrupt-* solve faults need `analyze`".into());
            }
            serve::serve(serve::ServeConfig {
                store_path,
                socket,
                jobs,
                machine_name,
                budget,
                audit,
                io_faults,
                max_inflight,
                max_queue,
                timeout_ms,
            })
        }
        Some("analyze") => {
            if targets.is_empty() {
                return Err(usage());
            }
            // Fail fast on an unwritable `--trace-json` destination: the
            // document is written after the analysis, and discovering a
            // missing directory only then would waste the whole run.
            if let Some(path) = &trace_json {
                validate_output_path(path, "--trace-json")?;
            }
            // Install the recorder before compiling so the lang/cfg phases
            // of `load_target` are captured too. Without `--trace-json`
            // nothing is installed and every trace helper stays a no-op.
            let recorder = trace_json.as_ref().map(|_| {
                let r = ipet_trace::install();
                r.reset();
                r
            });
            let loaded: Vec<Target> = targets
                .iter()
                .map(|name| {
                    load_target(
                        name,
                        entry.as_deref(),
                        ann_file.as_deref(),
                        idl_file.as_deref(),
                        optimize,
                    )
                })
                .collect::<Result<_, _>>()?;
            // A store cannot vouch for solves a fault corrupted on purpose.
            let armed = faults.armed();
            let mut pool = SolvePool::with_faults(jobs, faults);
            let mut store = None;
            if let Some(path) = &store_path {
                if armed {
                    return Err(
                        "--store cannot combine with --inject-corrupt-* solve faults".into()
                    );
                }
                let opened = Arc::new(Store::open_with_faults(path, io_faults));
                pool = pool.with_store(Arc::clone(&opened));
                store = Some(opened);
            } else if io_faults.io_armed() {
                return Err("--inject-fail-write/--inject-torn-write/\
                     --inject-corrupt-record/--inject-fail-open require --store"
                    .into());
            }
            let options = AnalyzeOptions {
                machine: machine_by_name(&machine_name)?,
                mode: if cache_split { CacheMode::FirstIterSplit } else { CacheMode::AllMiss },
                context: if shared { ContextMode::Shared } else { ContextMode::PerCallSite },
                infer,
                budget,
                audit,
                dump_structural,
                do_measure,
                parametric,
            };
            let mut certificates: Vec<(String, AuditReport)> = Vec::new();
            let mut provenances: Vec<(String, Vec<ipet_core::LoopProvenance>)> = Vec::new();
            let status = analyze(
                &loaded,
                &options,
                &pool,
                store.as_deref(),
                &mut certificates,
                &mut provenances,
            );
            // Write the trace even for degraded runs — the document is most
            // interesting exactly when budgets bit. With `--audit` the
            // trace document is embedded in an `ipet-audit-v1` wrapper that
            // carries the per-set certificates alongside it.
            if let (Some(path), Some(recorder)) = (&trace_json, recorder) {
                let trace = recorder.snapshot().to_json();
                let mut doc = if audit { audit_document(trace, &certificates) } else { trace };
                // With `--infer`, the per-loop provenance rows ride along
                // in the document so consumers can audit where every
                // bound came from.
                if infer.is_some() {
                    doc = with_infer_section(doc, &provenances);
                }
                std::fs::write(path, doc.render_pretty()).map_err(|e| format!("{path}: {e}"))?;
            }
            status
        }
        _ => Err(usage()),
    }
}

/// Rejects an output path whose parent directory does not exist, naming
/// the flag, so the failure surfaces before any analysis work is spent.
fn validate_output_path(path: &str, flag: &str) -> Result<(), String> {
    let p = std::path::Path::new(path);
    if let Some(dir) = p.parent() {
        if !dir.as_os_str().is_empty() && !dir.is_dir() {
            return Err(format!("{flag} {path}: directory {} does not exist", dir.display()));
        }
    }
    if p.is_dir() {
        return Err(format!("{flag} {path}: is a directory"));
    }
    Ok(())
}

/// The deterministic one-line store report printed after a store-backed
/// run (scripts filter it with `grep -v '^store:'` alongside the pool
/// line when byte-comparing outputs across runs).
pub(crate) fn store_summary(store: &Store) -> String {
    let s = store.stats();
    format!(
        "store: mode={} loaded={} quarantined={} hits={} misses={} rejected={} \
         flushes={} appends={} compactions={} write_failed={}",
        store.mode().label(),
        s.loaded,
        s.quarantined,
        s.hits,
        s.misses,
        s.rejected,
        s.flushes,
        s.appends,
        s.compactions,
        s.write_failed
    )
}

fn single_target(targets: &[String]) -> Result<&str, String> {
    match targets {
        [one] => Ok(one),
        [] => Err(usage()),
        _ => Err("this command takes exactly one target".into()),
    }
}

fn machine_by_name(name: &str) -> Result<Machine, String> {
    Machine::by_name(name).ok_or_else(|| format!("unknown machine {name} (i960kb, dsp3210)"))
}

fn print_cfg(program: &ipet_arch::Program, machine_name: &str) -> Result<(), String> {
    let machine = machine_by_name(machine_name)?;
    let analyzer = Analyzer::new(program, machine).map_err(|e| e.to_string())?;
    let instances = analyzer.instances();
    outln!("{}", ipet_arch::disassemble_program(program));

    let mut seen = std::collections::HashSet::new();
    for i in 0..instances.len() {
        let inst = InstanceId(i);
        let cfg = instances.cfg(inst);
        if !seen.insert(cfg.func) {
            continue;
        }
        outln!("{}", cfg.render());
        outln!("  block costs (cycles):");
        for b in 0..cfg.num_blocks() {
            let c = analyzer.block_cost(cfg.func, ipet_cfg::BlockId(b));
            let blk = &cfg.blocks()[b];
            let line = program.functions[cfg.func.0]
                .src_line(blk.start)
                .map(|l| format!(" line {l}"))
                .unwrap_or_default();
            outln!(
                "    x{:<3} [{:3}..{:3}) best={:<5} worst={:<5} warm={:<5}{line}",
                b + 1,
                blk.start,
                blk.end,
                c.best,
                c.worst_cold,
                c.worst_warm
            );
        }
        outln!("{}", structural_text(instances, inst));
    }

    let loops = analyzer.loops_needing_bounds();
    if loops.is_empty() {
        outln!("no loops: no bound annotations needed");
    } else {
        outln!("loops needing bounds:");
        for (f, h) in loops {
            outln!("  fn {f} {{ loop x{} in [?, ?]; }}", h.0 + 1);
        }
    }
    Ok(())
}

/// Prints the Fig.-5-style annotated source: every source line that
/// starts a basic block is prefixed with that block's x-variable.
fn listing(t: &Target) -> Result<(), String> {
    let source = t.source.as_deref().ok_or("no source available for listing")?;
    let machine = Machine::i960kb();
    let analyzer = Analyzer::new(&t.program, machine).map_err(|e| e.to_string())?;
    let instances = analyzer.instances();
    // line -> x-variable labels across all functions.
    let mut marks: std::collections::BTreeMap<u32, Vec<String>> = std::collections::BTreeMap::new();
    let mut seen = std::collections::HashSet::new();
    for i in 0..instances.len() {
        let cfg = instances.cfg(ipet_cfg::InstanceId(i));
        if !seen.insert(cfg.func) {
            continue;
        }
        let function = &t.program.functions[cfg.func.0];
        for (bi, blk) in cfg.blocks().iter().enumerate() {
            if let Some(line) = function.src_line(blk.start) {
                marks.entry(line).or_default().push(format!("{}:x{}", cfg.func_name, bi + 1));
            }
        }
    }
    for (n, text) in source.lines().enumerate() {
        let line = n as u32 + 1;
        let mark = marks.get(&line).map(|m| m.join(",")).unwrap_or_default();
        outln!("{mark:>24} | {text}");
    }
    Ok(())
}

/// The `--audit --trace-json` wrapper document: the ordinary trace document
/// embedded next to the per-target certificate reports, under a schema tag
/// of its own so consumers cannot mistake it for a bare trace.
fn audit_document(
    trace: ipet_trace::Json,
    certificates: &[(String, AuditReport)],
) -> ipet_trace::Json {
    use ipet_trace::Json;
    let targets = certificates
        .iter()
        .map(|(name, report)| {
            let sets = report
                .sets
                .iter()
                .map(|cert| {
                    Json::Obj(vec![
                        ("set".into(), Json::Num(cert.set as f64)),
                        ("wcet".into(), Json::Str(cert.wcet.describe())),
                        ("bcet".into(), Json::Str(cert.bcet.describe())),
                    ])
                })
                .collect();
            Json::Obj(vec![
                ("target".into(), Json::Str(name.clone())),
                ("certified".into(), Json::Num(report.certified() as f64)),
                ("rejected".into(), Json::Num(report.rejected() as f64)),
                ("sets".into(), Json::Arr(sets)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("schema".into(), Json::Str("ipet-audit-v1".into())),
        ("certificates".into(), Json::Arr(targets)),
        ("trace".into(), trace),
    ])
}

/// The deterministic `--infer` stdout section: derived bounds in
/// annotation syntax, the outcome tallies, and any disagreements.
fn render_infer(outcome: &ipet_infer::InferOutcome) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let derived: Vec<_> = outcome
        .annotations
        .provenance
        .iter()
        .filter(|p| p.source != ipet_core::BoundSource::Annotated)
        .collect();
    if !derived.is_empty() {
        let _ = writeln!(out, "automatically derived loop bounds:");
        for p in derived {
            let _ = writeln!(
                out,
                "  fn {} {{ loop x{} in [{}, {}]; }}  # {}",
                p.func,
                p.header + 1,
                p.lo,
                p.hi,
                p.source.label()
            );
        }
    }
    let c = outcome.counts;
    let _ = writeln!(
        out,
        "loop-bound inference: {} loop(s): {} inferred, {} annotated, {} failed, {} tightened",
        c.total, c.inferred, c.annotated, c.failed, c.tightened
    );
    for d in &outcome.disagreements {
        let _ = writeln!(out, "  disagreement: {d}");
    }
    out
}

/// Appends the per-target loop-bound provenance to a `--trace-json`
/// document (works on both the bare trace and the audit wrapper).
fn with_infer_section(
    doc: ipet_trace::Json,
    provenances: &[(String, Vec<ipet_core::LoopProvenance>)],
) -> ipet_trace::Json {
    use ipet_trace::Json;
    let targets = provenances
        .iter()
        .map(|(name, rows)| {
            let loops = rows
                .iter()
                .map(|p| {
                    let mut kv = vec![
                        ("func".into(), Json::Str(p.func.clone())),
                        ("header".into(), Json::Num((p.header + 1) as f64)),
                        ("lo".into(), Json::Num(p.lo as f64)),
                        ("hi".into(), Json::Num(p.hi as f64)),
                        ("source".into(), Json::Str(p.source.label())),
                    ];
                    if let Some(line) = p.source.line() {
                        kv.push(("line".into(), Json::Num(line as f64)));
                    }
                    Json::Obj(kv)
                })
                .collect();
            Json::Obj(vec![
                ("target".into(), Json::Str(name.clone())),
                ("loops".into(), Json::Arr(loops)),
            ])
        })
        .collect();
    match doc {
        Json::Obj(mut kv) => {
            kv.push(("infer".into(), Json::Arr(targets)));
            Json::Obj(kv)
        }
        other => other,
    }
}

/// What `analyze` does besides solving, fixed for every target of a run.
struct AnalyzeOptions {
    machine: Machine,
    mode: CacheMode,
    context: ContextMode,
    infer: Option<ipet_infer::InferMode>,
    budget: AnalysisBudget,
    audit: bool,
    dump_structural: bool,
    do_measure: bool,
    parametric: bool,
}

impl AnalyzeOptions {
    fn analyzer<'p>(
        &self,
        program: &'p ipet_arch::Program,
        machine: Machine,
    ) -> Result<Analyzer<'p>, String> {
        Ok(Analyzer::new_with_context(program, machine, self.context)
            .map_err(|e| match e {
                // The one remedy a command line has and a serve request
                // lacks: one instance per function.
                AnalysisError::CallGraph(CallGraphError::LabelsTooLong(_)) => {
                    format!("{e}; try --shared, one instance per function")
                }
                e => e.to_string(),
            })?
            .with_cache_mode(self.mode))
    }
}

/// `analyze`: builds every target's job graph ([`Analyzer::plan`]),
/// solves all their ILPs as one batch on `pool`, and prints the
/// per-target reports in argument order.
///
/// Everything printed on stdout is deterministic (bounds, qualities, and
/// the pool summary's solve/replay counts and total ticks are pure
/// functions of the job list and budget), so the output is bit-for-bit
/// identical for any `--jobs` value except for the summary's worker count.
fn analyze(
    targets: &[Target],
    options: &AnalyzeOptions,
    pool: &SolvePool,
    store: Option<&Store>,
    certificates: &mut Vec<(String, AuditReport)>,
    provenances: &mut Vec<(String, Vec<ipet_core::LoopProvenance>)>,
) -> Result<RunStatus, String> {
    // Inference runs here, in the serial planning phase, so its counters
    // and printed summaries are identical for any `--jobs`. The analyzers
    // and annotations stay for the sections printed after each bound.
    let mut plans = Vec::with_capacity(targets.len());
    let mut planned = Vec::with_capacity(targets.len());
    for t in targets {
        let analyzer = options
            .analyzer(&t.program, options.machine)
            .map_err(|e| format!("{}: {e}", t.name))?;
        let mut anns =
            ipet_core::parse_annotations(&t.annotations).map_err(|e| format!("{}: {e}", t.name))?;
        let mut section = String::new();
        if let Some(mode) = options.infer {
            let outcome = ipet_infer::infer_and_merge(t.module.as_ref(), &analyzer, &anns, mode)
                .map_err(|e| format!("{}: {e}", t.name))?;
            section = render_infer(&outcome);
            anns = outcome.annotations;
            provenances.push((t.name.clone(), anns.provenance.clone()));
        }
        plans.push(analyzer.plan(&anns, &options.budget).map_err(|e| format!("{}: {e}", t.name))?);
        planned.push((analyzer, anns, section));
    }

    let request = SolveRequest {
        budget: options.budget.solve,
        audit: options.audit,
        ..SolveRequest::default()
    };
    let batch = pool.run(&plans, &request);

    let mut degraded = false;
    let mut audit_failed = false;
    let mut failures = Vec::new();
    for ((t, (analyzer, anns, infer_section)), result) in
        targets.iter().zip(&planned).zip(batch.results)
    {
        if targets.len() > 1 {
            outln!("=== {} ===", t.name);
        }
        if !t.annotations.is_empty() {
            outln!("functionality constraints:\n{}", t.annotations.trim_end());
        }
        out!("{infer_section}");
        let (est, report) = match result {
            Ok(done) => done,
            Err(e) => {
                failures.push(format!("{}: {e}", t.name));
                continue;
            }
        };
        out!("{}", est.render());
        if options.audit {
            outln!("certificate report:");
            out!("{}", report.render());
            if !report.all_certified() {
                audit_failed = true;
                eprintln!(
                    "cinderella: {}: audit rejected a reported bound — \
                     the result must not be trusted",
                    t.name
                );
            }
            certificates.push((t.name.clone(), report));
        }
        if let Err(e) = report_extras(t, options, analyzer, anns, &est) {
            failures.push(format!("{}: {e}", t.name));
        }
        if !est.quality.is_exact() {
            degraded = true;
            // Diagnostics on stderr so scripted callers parsing stdout see
            // only the report; the exit status (2) carries the same signal.
            eprintln!(
                "cinderella: {}: bound is safe but degraded \
                 (quality: {}; {} sets skipped, {} relaxed)",
                t.name,
                est.quality,
                est.sets_skipped,
                est.degraded_sets.len()
            );
        }
    }
    // The summary reports cache traffic, which only a batch of several
    // targets or a store-backed run has to show. Solved and replayed come
    // from the batch, so store replays count too.
    if targets.len() > 1 || store.is_some() {
        outln!(
            "pool: {} worker(s), {} solved, {} replayed ({} rejected replays), {} ticks",
            pool.workers(),
            batch.report.misses,
            batch.report.hits,
            pool.cache_stats().rejected,
            batch.report.total_ticks
        );
    }
    if let Some(store) = store {
        // Flush before reporting so the summary reflects what actually
        // reached disk. A failed flush degrades, it never fails the run:
        // every bound above was already computed and certified.
        if let Err(e) = store.flush() {
            eprintln!("cinderella: store flush failed ({e}); results were solved cold-safe");
        }
        outln!("{}", store_summary(store));
    }
    if !failures.is_empty() {
        return Err(failures.join("; "));
    }
    Ok(if audit_failed {
        RunStatus::AuditFailed
    } else if degraded {
        RunStatus::Degraded
    } else {
        RunStatus::Exact
    })
}

/// The per-target sections after the bound: `--dump-structural`,
/// `--parametric` and `--measure`, in that order.
fn report_extras(
    t: &Target,
    options: &AnalyzeOptions,
    analyzer: &Analyzer<'_>,
    anns: &ipet_core::Annotations,
    est: &Estimate,
) -> Result<(), String> {
    if options.dump_structural {
        let instances = analyzer.instances();
        for i in 0..instances.len() {
            outln!("{}", structural_text(instances, InstanceId(i)));
        }
    }
    if options.parametric {
        parametric_report(t, options, analyzer, anns)?;
    }
    if options.do_measure {
        let b = t
            .bench
            .as_ref()
            .ok_or("--measure requires a bundled benchmark (it carries the data sets)")?;
        let machine = options.machine;
        let worst = measure(&t.program, machine, &(b.worst_seeds)(), b.args_worst, true)
            .map_err(|e| e.to_string())?;
        let best = measure(&t.program, machine, &(b.best_seeds)(), b.args_best, false)
            .map_err(|e| e.to_string())?;
        let measured = TimeBound { lower: best.cycles, upper: worst.cycles };
        let calc = analyzer.calculated_bound(&best.block_counts, &worst.block_counts);
        outln!("calculated bound: [{}, {}] cycles", calc.lower, calc.upper);
        outln!("measured bound:   [{}, {}] cycles", measured.lower, measured.upper);
        let (pl, pu) = est.bound.pessimism_against(measured);
        outln!("pessimism vs measured: [{pl:.2}, {pu:.2}]");
        if !est.bound.encloses(measured) {
            return Err("estimated bound does not enclose the measured bound".into());
        }
    }
    Ok(())
}

/// `--parametric`: sweeps the i-cache miss penalty over a small grid
/// (always including the selected machine's own penalty), solving
/// concretely only where the chord certificate cannot extend an existing
/// witness line (`ipet_lp::parametric`, DESIGN.md §16), and prints the
/// certified WCET bound formulas with their validity intervals.
fn parametric_report(
    t: &Target,
    options: &AnalyzeOptions,
    analyzer: &Analyzer<'_>,
    anns: &ipet_core::Annotations,
) -> Result<(), String> {
    let machine = options.machine;
    let mut grid: Vec<u64> = vec![0, 2, 4, 8, 16, 32];
    if !grid.contains(&machine.miss_penalty) {
        grid.push(machine.miss_penalty);
        grid.sort_unstable();
    }
    // Each probe runs on a fresh pool, so under a tick deadline its bound
    // depends on the probe alone, never on what an earlier probe cached.
    let mut probe = |mp: u64| -> Result<ipet_lp::Probe, String> {
        let m = Machine { miss_penalty: mp, ..machine };
        let plan = options.analyzer(&t.program, m)?.plan(anns, &options.budget);
        let plan = plan.map_err(|e| e.to_string())?;
        let batch = SolvePool::new(1).run_plans(&[plan], &options.budget.solve);
        let est = batch.estimates.into_iter().next().expect("one plan");
        let est = est.map_err(|e| e.to_string())?;
        let line = est.wcet_formula.as_ref().and_then(|f| {
            let (constant, slope) = f.specialize(ipet_core::P_MISS, &m.param_point())?;
            Some(ipet_lp::BoundFormula { constant, slope })
        });
        Ok(ipet_lp::Probe { values: vec![est.bound.upper as i128], formulas: vec![line] })
    };
    let sweep = ipet_lp::parametric::sweep_grid(&grid, &mut probe)?;
    outln!("parametric WCET vs i-cache miss penalty (base penalty {}):", machine.miss_penalty);
    for (i, &mp) in grid.iter().enumerate() {
        let how = if sweep.formulas[i].first().copied().flatten().is_some() {
            ""
        } else {
            "  (concrete solve, no certified formula)"
        };
        outln!("  penalty {mp:>3}: wcet {}{how}", sweep.values[i][0]);
    }
    let regions = sweep.regions(0);
    if regions.is_empty() {
        outln!("no certified bound formula (degraded or non-exact analysis)");
    } else {
        outln!("certified bound formulas (validity on the swept grid):");
        for (s, e, f) in &regions {
            outln!("  p in [{}, {}]: wcet(p) = {}", grid[*s], grid[*e], f);
        }
    }
    outln!(
        "parametric: {} grid point(s): {} concrete solve(s), {} formula hit(s), \
         {} region exit(s)",
        grid.len(),
        sweep.resolves,
        sweep.region_hits,
        sweep.region_exits
    );
    let model = analyzer.wcet_loop_model_parsed(anns).map_err(|e| e.to_string())?;
    if !model.is_constant() {
        outln!(
            "loop-bound model (first-order around the annotated bounds, \
             not region-certified):"
        );
        outln!("  wcet = {model}");
    }
    Ok(())
}
