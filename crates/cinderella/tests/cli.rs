//! End-to-end tests of the `cinderella` command-line tool.

use std::process::Command;

fn cinderella(args: &[&str]) -> (bool, String, String) {
    let out =
        Command::new(env!("CARGO_BIN_EXE_cinderella")).args(args).output().expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn list_names_all_benchmarks() {
    let (ok, stdout, _) = cinderella(&["list"]);
    assert!(ok);
    for b in ipet_suite::all() {
        assert!(stdout.contains(b.name), "missing {}", b.name);
    }
}

#[test]
fn a_reader_that_stops_early_ends_the_cli_quietly() {
    use std::io::{BufRead, BufReader, Read};
    use std::process::Stdio;
    // `cinderella cfg piksrt | head -1`: the reader closes the pipe after
    // the first line, and the next write must end the process without a
    // panic. The child may win the race and finish first, so try thrice.
    for _ in 0..3 {
        let mut child = Command::new(env!("CARGO_BIN_EXE_cinderella"))
            .args(["cfg", "piksrt"])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary runs");
        let mut first = String::new();
        BufReader::new(child.stdout.take().unwrap()).read_line(&mut first).expect("first line");
        assert!(first.starts_with(".entry"), "{first}");
        let mut stderr = String::new();
        child.stderr.take().unwrap().read_to_string(&mut stderr).expect("stderr");
        let status = child.wait().expect("child exits");
        assert_ne!(status.code(), Some(101), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}

#[test]
fn cfg_prints_structural_constraints() {
    let (ok, stdout, _) = cinderella(&["cfg", "check_data"]);
    assert!(ok);
    assert!(stdout.contains("x1 = d1"));
    assert!(stdout.contains("d1 = 1"));
    assert!(stdout.contains("block costs"));
}

#[test]
fn analyze_reports_bound_and_sets() {
    let (ok, stdout, _) = cinderella(&["analyze", "check_data"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("estimated bound: ["));
    assert!(stdout.contains("constraint sets: 2 total"));
    assert!(stdout.contains("first relaxation integral: true"));
}

#[test]
fn analyze_measure_checks_containment() {
    let (ok, stdout, _) = cinderella(&["analyze", "piksrt", "--measure"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("measured bound"));
    assert!(stdout.contains("pessimism vs measured"));
}

#[test]
fn analyze_cache_split_tightens() {
    let (_, base, _) = cinderella(&["analyze", "matgen"]);
    let (_, split, _) = cinderella(&["analyze", "matgen", "--cache-split"]);
    let upper = |s: &str| -> u64 {
        let line = s.lines().find(|l| l.starts_with("estimated bound")).unwrap();
        let inner = line.split('[').nth(1).unwrap().split(']').next().unwrap();
        inner.split(',').nth(1).unwrap().trim().parse().unwrap()
    };
    assert!(upper(&split) < upper(&base));
}

#[test]
fn unknown_benchmark_fails_cleanly() {
    let (ok, _, stderr) = cinderella(&["analyze", "nosuch"]);
    assert!(!ok);
    assert!(stderr.contains("no benchmark named"));
}

/// The label cap's error: `analyze` adds the one remedy a command line
/// has.
#[test]
fn an_over_cap_call_chain_suggests_shared() {
    let names: Vec<String> = (0..260).map(|i| format!("f{i}_{}", "x".repeat(200))).collect();
    let mut src = String::new();
    for (i, name) in names.iter().enumerate() {
        let body = names.get(i + 1).map_or("1".to_string(), |next| format!("{next}()"));
        src.push_str(&format!("int {name}() {{ return {body}; }}\n"));
    }
    src.push_str(&format!("int main() {{ return {}(); }}\n", names[0]));
    let dir = std::env::temp_dir().join(format!("cinderella-cli-chain-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("calls.mc");
    std::fs::write(&path, src).unwrap();
    let (ok, _, stderr) = cinderella(&["analyze", path.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("call-string labels") && stderr.contains("try --shared"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compiles_and_analyzes_a_source_file() {
    let dir = std::env::temp_dir().join("cinderella-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let src = dir.join("prog.mc");
    std::fs::write(
        &src,
        "int main() { int i; int s; s = 0; for (i = 0; i < 8; i = i + 1) { s = s + i; } return s; }",
    )
    .unwrap();
    let ann = dir.join("prog.ann");
    std::fs::write(&ann, "fn main { loop x2 in [8, 8]; }").unwrap();
    let (ok, stdout, stderr) =
        cinderella(&["analyze", src.to_str().unwrap(), "--annotations", ann.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("estimated bound"));
}

#[test]
fn missing_loop_bound_names_the_loop() {
    let dir = std::env::temp_dir().join("cinderella-cli-test2");
    std::fs::create_dir_all(&dir).unwrap();
    let src = dir.join("loopy.mc");
    std::fs::write(&src, "int main() { int i; i = 0; while (i < 10) { i = i + 1; } return i; }")
        .unwrap();
    let (ok, _, stderr) = cinderella(&["analyze", src.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("add loop bounds"), "{stderr}");
}

#[test]
fn listing_marks_blocks_on_source_lines() {
    let (ok, stdout, _) = cinderella(&["listing", "check_data"]);
    assert!(ok);
    assert!(stdout.contains("check_data:x1"));
    assert!(stdout.contains("while (morecheck)"));
}

#[test]
fn infer_derives_bounds_for_counted_loops() {
    let dir = std::env::temp_dir().join("cinderella-cli-test3");
    std::fs::create_dir_all(&dir).unwrap();
    let src = dir.join("counted.mc");
    std::fs::write(
        &src,
        "int main() { int i; int s; s = 0; for (i = 0; i < 12; i = i + 1) { s = s + i; } return s; }",
    )
    .unwrap();
    let (ok, stdout, stderr) = cinderella(&["analyze", src.to_str().unwrap(), "--infer"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("automatically derived loop bounds"));
    assert!(stdout.contains("loop x2 in [12, 12]"));
    assert!(stdout.contains("estimated bound"));
}

#[test]
fn idl_annotations_are_accepted() {
    let dir = std::env::temp_dir().join("cinderella-cli-test4");
    std::fs::create_dir_all(&dir).unwrap();
    let idl = dir.join("check.idl");
    std::fs::write(
        &idl,
        "idl check_data {\n iterates x2 [1, 10];\n exactlyone x6 x8;\n samepath x6 x13;\n}",
    )
    .unwrap();
    let (ok, stdout, stderr) =
        cinderella(&["analyze", "check_data", "--idl", idl.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("constraint sets: 2 total"));
}

#[test]
fn dsp3210_machine_changes_the_bound() {
    let upper = |s: &str| -> u64 {
        let line = s.lines().find(|l| l.starts_with("estimated bound")).unwrap();
        let inner = line.split('[').nth(1).unwrap().split(']').next().unwrap();
        inner.split(',').nth(1).unwrap().trim().parse().unwrap()
    };
    let (_, i960, _) = cinderella(&["analyze", "fft"]);
    let (ok, dsp, _) = cinderella(&["analyze", "fft", "--machine", "dsp3210"]);
    assert!(ok);
    assert_ne!(upper(&i960), upper(&dsp));
}

#[test]
fn unknown_machine_is_rejected() {
    let (ok, _, stderr) = cinderella(&["analyze", "fft", "--machine", "z80"]);
    assert!(!ok);
    assert!(stderr.contains("unknown machine"));
}

#[test]
fn assembly_files_are_accepted() {
    let dir = std::env::temp_dir().join("cinderella-cli-test5");
    std::fs::create_dir_all(&dir).unwrap();
    let asm = dir.join("prog.s");
    std::fs::write(&asm, ".entry main\nmain:\n ldc r8, 3\n mul rv, r8, 7\n ret\n").unwrap();
    let (ok, stdout, stderr) = cinderella(&["analyze", asm.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("estimated bound"));
}

#[test]
fn optimized_build_tightens_straight_line_wcet() {
    let dir = std::env::temp_dir().join("cinderella-cli-test6");
    std::fs::create_dir_all(&dir).unwrap();
    let src = dir.join("fold.mc");
    std::fs::write(&src, "int main() { int x; x = 2 * 3 + 4; return x * 2; }").unwrap();
    let upper = |s: &str| -> u64 {
        let line = s.lines().find(|l| l.starts_with("estimated bound")).unwrap();
        let inner = line.split('[').nth(1).unwrap().split(']').next().unwrap();
        inner.split(',').nth(1).unwrap().trim().parse().unwrap()
    };
    let (_, o0, _) = cinderella(&["analyze", src.to_str().unwrap()]);
    let (ok, o1, _) = cinderella(&["analyze", src.to_str().unwrap(), "-O1"]);
    assert!(ok);
    assert!(upper(&o1) < upper(&o0), "O1 {} vs O0 {}", upper(&o1), upper(&o0));
}

#[test]
fn dot_output_is_graphviz() {
    let (ok, stdout, _) = cinderella(&["dot", "check_data"]);
    assert!(ok);
    assert!(stdout.starts_with("digraph"));
    assert!(stdout.contains("source ->"));
}

#[test]
fn trace_prints_block_entries() {
    let (ok, stdout, _) = cinderella(&["trace", "piksrt"]);
    assert!(ok);
    assert!(stdout.contains("worst-case block trace"));
    assert!(stdout.contains("piksrt  x1"));
    assert!(stdout.contains("total:"));
}

#[test]
fn shipped_sample_programs_analyze() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/programs");
    let fir = root.join("fir.mc");
    let (ok, stdout, stderr) =
        cinderella(&["analyze", fir.to_str().unwrap(), "--entry", "fir", "--infer"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("loop x2 in [64, 64]"));

    let gcd = root.join("gcd.mc");
    let ann = root.join("gcd.ann");
    let (ok, stdout, stderr) = cinderella(&[
        "analyze",
        gcd.to_str().unwrap(),
        "--entry",
        "gcd",
        "--annotations",
        ann.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("estimated bound"));

    let idl = root.join("filter.idl");
    let (ok, _, stderr) = cinderella(&[
        "analyze",
        fir.to_str().unwrap(),
        "--entry",
        "fir",
        "--idl",
        idl.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
}

#[test]
fn shared_formulation_gives_the_same_bound() {
    let bound = |args: &[&str]| -> String {
        let (ok, stdout, stderr) = cinderella(args);
        assert!(ok, "{stderr}");
        stdout.lines().find(|l| l.starts_with("estimated bound")).unwrap().to_string()
    };
    let per_site = bound(&["analyze", "whetstone"]);
    let shared = bound(&["analyze", "whetstone", "--shared"]);
    assert_eq!(per_site, shared);
}

// -- resource budgets and graceful degradation ------------------------------

/// Like [`cinderella`] but preserving the raw exit code, for the
/// 0 = exact / 2 = degraded / 1 = error contract.
fn cinderella_code(args: &[&str]) -> (i32, String, String) {
    let out =
        Command::new(env!("CARGO_BIN_EXE_cinderella")).args(args).output().expect("binary runs");
    (
        out.status.code().expect("not killed by a signal"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Writes a fixture whose WCET ILP has a *fractional* LP root
/// (`2*x4 <= 7` caps the loop body at 3.5 executions), so branch-and-bound
/// genuinely has to branch — the lever the budget flags then squeeze.
/// Each caller names its own directory: tests run in parallel, and one
/// rewriting a shared file could let another read it half-written.
fn fractional_fixture(tag: &str) -> (String, String) {
    let dir =
        std::env::temp_dir().join(format!("cinderella-budget-test-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let src = dir.join("frac.mc");
    std::fs::write(
        &src,
        "int main() { int i; int s; s = 0; for (i = 0; i < 8; i = i + 1) { s = s + i; } return s; }",
    )
    .unwrap();
    let ann = dir.join("frac.ann");
    std::fs::write(&ann, "fn main { loop x2 in [0, 8]; 2*x4 <= 7; }").unwrap();
    (src.to_str().unwrap().to_string(), ann.to_str().unwrap().to_string())
}

fn bound_upper(stdout: &str) -> u64 {
    let line = stdout.lines().find(|l| l.starts_with("estimated bound")).unwrap();
    let inner = line.split('[').nth(1).unwrap().split(']').next().unwrap();
    inner.split(',').nth(1).unwrap().trim().parse().unwrap()
}

#[test]
fn node_budget_degrades_to_relaxed_bound_with_exit_code_2() {
    let (src, ann) = fractional_fixture("nodes");
    let (code, exact_out, stderr) = cinderella_code(&["analyze", &src, "--annotations", &ann]);
    assert_eq!(code, 0, "{stderr}");
    assert!(exact_out.contains("bound quality: exact"));

    let (code, degraded_out, stderr) =
        cinderella_code(&["analyze", &src, "--annotations", &ann, "--max-nodes", "1"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(degraded_out.contains("bound quality: relaxed"), "{degraded_out}");
    assert!(degraded_out.contains("degraded sets (LP-relaxation bound)"));
    assert!(stderr.contains("safe but degraded"));
    // Degradation must never shrink the safe envelope.
    assert!(bound_upper(&degraded_out) >= bound_upper(&exact_out));
}

#[test]
fn zero_deadline_reports_partial_bound_with_exit_code_2() {
    let (src, ann) = fractional_fixture("deadline");
    let (code, stdout, stderr) =
        cinderella_code(&["analyze", &src, "--annotations", &ann, "--deadline", "0"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stdout.contains("bound quality: partial"), "{stdout}");
    assert!(stdout.contains("sets skipped on budget exhaustion"));
    assert!(stdout.contains("estimated bound: ["));
}

#[test]
fn no_degrade_turns_budget_exhaustion_into_a_hard_error() {
    let (src, ann) = fractional_fixture("no-degrade");
    let (code, _, stderr) = cinderella_code(&[
        "analyze",
        &src,
        "--annotations",
        &ann,
        "--max-nodes",
        "1",
        "--no-degrade",
    ]);
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("node limit"), "{stderr}");
}

#[test]
fn budget_flags_reject_garbage_values() {
    let (code, _, stderr) = cinderella_code(&["analyze", "check_data", "--deadline", "soon"]);
    assert_eq!(code, 1);
    assert!(stderr.contains("not a non-negative integer"));
    let (code, _, stderr) = cinderella_code(&["analyze", "check_data", "--max-nodes"]);
    assert_eq!(code, 1);
    assert!(stderr.contains("--max-nodes needs a value"));
}

#[test]
fn retired_flags_are_unexpected_arguments() {
    for (args, flag) in [
        (&["analyze", "piksrt", "--solver", "dense"][..], "--solver"),
        (&["analyze", "piksrt", "--no-store"], "--no-store"),
        (&["serve", "--no-store"], "--no-store"),
    ] {
        let (code, stdout, stderr) = cinderella_code(args);
        assert_eq!(code, 1, "{args:?}: {stderr}");
        assert!(stderr.contains(&format!("unexpected argument {flag}")), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?} ran anyway: {stdout}");
    }
}

#[test]
fn roomy_budget_flags_leave_results_exact() {
    let (code, stdout, stderr) = cinderella_code(&[
        "analyze",
        "check_data",
        "--deadline",
        "100000000",
        "--max-nodes",
        "100000",
        "--max-sets",
        "1000",
    ]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains("bound quality: exact"));
    assert!(stdout.contains("constraint sets: 2 total"));
}

#[test]
fn multi_target_analyze_reports_each_target_in_order() {
    let (ok, stdout, stderr) = cinderella(&["analyze", "piksrt", "check_data"]);
    assert!(ok, "{stderr}");
    let piksrt = stdout.find("=== piksrt ===").expect("piksrt header");
    let check = stdout.find("=== check_data ===").expect("check_data header");
    assert!(piksrt < check, "reports must follow argument order");
    assert!(stdout.contains("pool:"), "pool summary expected:\n{stdout}");
    assert_eq!(stdout.matches("estimated bound: [").count(), 2);
}

#[test]
fn jobs_flag_output_is_identical_across_worker_counts() {
    let strip_pool_line = |s: &str| -> String {
        // The summary line names the worker count by design; everything
        // else must be byte-identical.
        s.lines().filter(|l| !l.starts_with("pool:")).collect::<Vec<_>>().join("\n")
    };
    let (ok1, out1, _) = cinderella(&["analyze", "piksrt", "dhry", "--jobs", "1"]);
    let (ok8, out8, _) = cinderella(&["analyze", "piksrt", "dhry", "--jobs", "8"]);
    assert!(ok1 && ok8);
    assert_eq!(strip_pool_line(&out1), strip_pool_line(&out8));
    // Solve/replay counts are part of the pool line and must also agree.
    let pool1: Vec<&str> = out1.lines().filter(|l| l.starts_with("pool:")).collect();
    let pool8: Vec<&str> = out8.lines().filter(|l| l.starts_with("pool:")).collect();
    assert_eq!(pool1.len(), 1);
    assert_eq!(
        pool1[0].split_once("worker(s), ").map(|x| x.1),
        pool8[0].split_once("worker(s), ").map(|x| x.1),
        "cache and tick accounting must be deterministic"
    );
}

#[test]
fn duplicate_targets_are_served_from_the_solve_cache() {
    let (ok, stdout, stderr) = cinderella(&["analyze", "piksrt", "piksrt", "--jobs", "2"]);
    assert!(ok, "{stderr}");
    let pool = stdout.lines().find(|l| l.starts_with("pool:")).expect("pool summary");
    assert!(pool.contains("2 solved, 2 replayed"), "{pool}");
}

#[test]
fn measure_dump_and_parametric_run_for_every_target() {
    let (ok, stdout, stderr) = cinderella(&[
        "analyze",
        "piksrt",
        "check_data",
        "--measure",
        "--dump-structural",
        "--parametric",
        "--jobs",
        "2",
    ]);
    assert!(ok, "{stderr}");
    assert_eq!(stdout.matches("measured bound:").count(), 2, "{stdout}");
    assert_eq!(stdout.matches("parametric WCET vs i-cache miss penalty").count(), 2);
    assert!(stdout.contains("d1 = 1"), "structural constraints dumped:\n{stdout}");
}

#[test]
fn deadline_reports_are_identical_at_any_jobs() {
    // One deadline rule: each fresh solve gets its `d / n` share, so the
    // report cannot depend on how many workers share the batch.
    for (target, deadline) in [("check_data", "10"), ("des", "40"), ("dhry", "80")] {
        let run = |jobs: &str| {
            cinderella_code(&["analyze", target, "--deadline", deadline, "--jobs", jobs])
        };
        let (one, two) = (run("1"), run("2"));
        assert_eq!(one.0, two.0, "{target} at {deadline}: exit codes differ");
        assert_eq!(one.1, two.1, "{target} at {deadline}: stdout differs");
    }
}

// -- structured tracing -----------------------------------------------------

#[test]
fn trace_json_writes_a_parsable_trace_document() {
    let dir = std::env::temp_dir().join("cinderella-cli-test7");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.json");
    let _ = std::fs::remove_file(&path);

    let (ok, stdout, stderr) =
        cinderella(&["analyze", "piksrt", "--trace-json", path.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("estimated bound"), "analysis output unchanged by tracing");

    let text = std::fs::read_to_string(&path).expect("trace file written");
    let doc = ipet_trace::parse_json(&text).expect("trace file is valid JSON");
    assert_eq!(
        doc.get("schema").and_then(|s| s.as_str()),
        Some(ipet_trace::TRACE_SCHEMA),
        "schema tag"
    );
    let trace = ipet_trace::TraceDoc::from_json(&doc).expect("conforms to the trace schema");
    // One benchmark, compiled and solved: every pipeline phase must have fired.
    for counter in ["lang.compile.calls", "cfg.build.calls", "core.plan.calls", "lp.ilp.solves"] {
        assert!(
            trace.counters.get(counter).copied().unwrap_or(0) > 0,
            "expected counter {counter} in trace:\n{text}"
        );
    }
    for span in ["lang.parse", "core.plan"] {
        assert!(trace.spans.contains_key(span), "expected span {span} in trace:\n{text}");
    }
}

#[test]
fn without_trace_flag_no_trace_file_appears() {
    let dir = std::env::temp_dir().join("cinderella-cli-test8");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("absent.json");
    let _ = std::fs::remove_file(&path);
    let (ok, _, _) = cinderella(&["analyze", "piksrt"]);
    assert!(ok);
    assert!(!path.exists());
}

// ---------------------------------------------------------------------------
// --audit: exact-arithmetic certification and the fault-injection self-test.
// ---------------------------------------------------------------------------

#[test]
fn audit_certifies_an_exact_analysis() {
    let (code, stdout, stderr) = cinderella_code(&["analyze", "piksrt", "--audit"]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains("certificate report:"), "{stdout}");
    assert!(stdout.contains("audit: 2 verdict(s) certified, 0 rejected"), "{stdout}");
    assert!(stdout.contains("wcet certified (="), "{stdout}");
}

#[test]
fn audit_does_not_change_the_reported_bounds() {
    let (plain_code, plain, _) = cinderella_code(&["analyze", "check_data"]);
    let (audit_code, audited, _) = cinderella_code(&["analyze", "check_data", "--audit"]);
    assert_eq!(plain_code, 0);
    assert_eq!(audit_code, 0);
    let bound = |s: &str| s.lines().find(|l| l.starts_with("estimated bound")).unwrap().to_owned();
    assert_eq!(bound(&plain), bound(&audited), "the auditor must only observe");
}

#[test]
fn audit_rejects_an_injected_corrupt_witness_with_exit_3() {
    let (code, stdout, stderr) =
        cinderella_code(&["analyze", "piksrt", "--audit", "--inject-corrupt-witness", "0"]);
    assert_eq!(code, 3, "{stdout}");
    assert!(stdout.contains("REJECTED"), "{stdout}");
    assert!(stderr.contains("must not be trusted"), "{stderr}");
}

#[test]
fn audit_rejects_an_injected_corrupt_bound_with_exit_3() {
    let (code, stdout, _) =
        cinderella_code(&["analyze", "piksrt", "--audit", "--inject-corrupt-bound", "0"]);
    assert_eq!(code, 3, "{stdout}");
    assert!(stdout.contains("objective replay"), "{stdout}");
}

#[test]
fn pooled_audit_agrees_across_worker_counts() {
    let args = |jobs: &'static str| {
        vec!["analyze", "piksrt", "check_data", "dhry", "--audit", "--jobs", jobs]
    };
    let (code1, one, _) = cinderella_code(&args("1"));
    let (code8, eight, _) = cinderella_code(&args("8"));
    assert_eq!(code1, 0, "{one}");
    assert_eq!(code8, 0, "{eight}");
    // The pool summary names its configured worker count; everything else
    // must match byte for byte.
    let normalize = |s: String| {
        s.replace("pool: 1 worker(s)", "pool: N worker(s)")
            .replace("pool: 8 worker(s)", "pool: N worker(s)")
    };
    let (one, eight) = (normalize(one), normalize(eight));
    assert_eq!(one, eight, "audited pooled stdout must be identical for any --jobs");
    assert!(one.contains("certificate report:"));
    assert!(one.matches("rejected").count() >= 3, "one summary line per target");
}

#[test]
fn fault_injection_runs_with_several_targets_and_workers() {
    // The fault template re-arms for every fresh solve, so index 0
    // corrupts each target's solves and the audit rejects every target.
    let (code, stdout, stderr) = cinderella_code(&[
        "analyze",
        "piksrt",
        "check_data",
        "--audit",
        "--inject-corrupt-witness",
        "0",
        "--jobs",
        "2",
    ]);
    assert_eq!(code, 3, "{stdout}");
    assert_eq!(stderr.matches("must not be trusted").count(), 2, "{stderr}");
}

#[test]
fn trace_json_to_a_nonexistent_directory_fails_cleanly_before_analysis() {
    let path = "/nonexistent-cinderella-dir/trace.json";
    let (code, stdout, stderr) = cinderella_code(&["analyze", "piksrt", "--trace-json", path]);
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("--trace-json"), "{stderr}");
    assert!(stderr.contains("does not exist"), "{stderr}");
    // Fail-fast: the path is rejected before any analysis output appears.
    assert!(!stdout.contains("estimated bound"), "{stdout}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn audit_trace_json_to_a_nonexistent_directory_fails_cleanly() {
    let path = "/nonexistent-cinderella-dir/audit.json";
    let (code, stdout, stderr) =
        cinderella_code(&["analyze", "piksrt", "--audit", "--trace-json", path]);
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("does not exist"), "{stderr}");
    assert!(!stdout.contains("estimated bound"), "{stdout}");
}

#[test]
fn trace_json_to_a_directory_path_fails_cleanly() {
    let dir = std::env::temp_dir().join("cinderella-cli-trace-dir");
    std::fs::create_dir_all(&dir).unwrap();
    let (code, _, stderr) =
        cinderella_code(&["analyze", "piksrt", "--trace-json", dir.to_str().unwrap()]);
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("is a directory"), "{stderr}");
}

#[test]
fn audit_trace_json_embeds_certificates_next_to_the_trace() {
    let dir = std::env::temp_dir().join("cinderella-cli-test9");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("audit.json");
    let _ = std::fs::remove_file(&path);

    let (code, _, stderr) =
        cinderella_code(&["analyze", "piksrt", "--audit", "--trace-json", path.to_str().unwrap()]);
    assert_eq!(code, 0, "{stderr}");
    let text = std::fs::read_to_string(&path).expect("audit document written");
    let doc = ipet_trace::parse_json(&text).expect("valid JSON");
    assert_eq!(doc.get("schema").and_then(|s| s.as_str()), Some("ipet-audit-v1"));
    let certs = doc.get("certificates").and_then(|c| c.as_arr()).expect("certificates array");
    assert_eq!(certs.len(), 1);
    assert_eq!(certs[0].get("rejected").and_then(|n| n.as_u64()), Some(0));
    // The embedded trace is a full ipet-trace document, including the
    // audit.* counters the certification run emitted.
    let trace = doc.get("trace").expect("embedded trace");
    let trace = ipet_trace::TraceDoc::from_json(trace).expect("embedded trace conforms");
    assert!(trace.counters.get("audit.runs").copied().unwrap_or(0) > 0);
    assert_eq!(trace.counters.get("audit.rejected").copied(), Some(0));
}

// ---------------------------------------------------------------------------
// --store: the crash-safe persistent solve store.
// ---------------------------------------------------------------------------

fn store_scratch(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("cinderella-store-cli-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The analysis report with the environment-dependent summary lines
/// removed: `pool:` names tick totals, `store:` names hit/miss traffic.
/// Everything else must be byte-identical across store states.
fn strip_summaries(s: &str) -> String {
    s.lines()
        .filter(|l| !l.starts_with("pool:") && !l.starts_with("store:"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn store_line(s: &str) -> String {
    s.lines().find(|l| l.starts_with("store:")).expect("store summary line").to_string()
}

#[test]
fn second_run_replays_from_the_store_byte_identically() {
    let dir = store_scratch("warm");
    let store = dir.join("solves.store");
    let store = store.to_str().unwrap();

    let (ok, cold, stderr) =
        cinderella(&["analyze", "piksrt", "check_data", "--store", store, "--jobs", "2"]);
    assert!(ok, "{stderr}");
    let cold_line = store_line(&cold);
    assert!(cold_line.contains("mode=rw"), "{cold_line}");
    assert!(cold_line.contains("hits=0"), "cold run cannot hit: {cold_line}");
    assert!(cold_line.contains("flushes=1"), "{cold_line}");

    let (ok, warm, stderr) =
        cinderella(&["analyze", "piksrt", "check_data", "--store", store, "--jobs", "2"]);
    assert!(ok, "{stderr}");
    let warm_line = store_line(&warm);
    assert!(warm_line.contains("misses=0"), "warm run must replay: {warm_line}");
    assert!(!warm_line.contains("hits=0"), "warm run must hit the store: {warm_line}");

    // The bounds — and everything else in the report — must be identical.
    assert_eq!(strip_summaries(&cold), strip_summaries(&warm));

    // And identical to a run without a store.
    let (ok, storeless, _) = cinderella(&["analyze", "piksrt", "check_data", "--jobs", "2"]);
    assert!(ok);
    assert_eq!(strip_summaries(&warm), strip_summaries(&storeless));
}

#[test]
fn pool_line_counts_store_replays() {
    // Every job the pool did not solve is a replay, whether the solve
    // cache, in-batch dedup or the store answered it.
    let dir = store_scratch("pool-line");
    let store = dir.join("solves.store");
    let args = ["analyze", "piksrt", "dhry", "check_data", "--store", store.to_str().unwrap()];
    let (ok, _, stderr) = cinderella(&args);
    assert!(ok, "{stderr}");
    let (ok, out, stderr) = cinderella(&args);
    assert!(ok, "{stderr}");
    let pool = out.lines().find(|l| l.starts_with("pool:")).expect("pool summary");
    assert!(pool.contains("0 solved, 12 replayed"), "{pool}");
    assert!(store_line(&out).contains("hits=10"), "{}", store_line(&out));
}

#[test]
fn a_run_that_replays_every_job_spends_no_tick() {
    // Only jobs the pool must solve spend ticks, so a second run over a
    // store that answers everything spends none.
    let dir = store_scratch("full-replay");
    let store = dir.join("solves.store");
    let trace = dir.join("trace.json");
    let mut args =
        vec!["analyze", "piksrt", "dhry", "check_data", "--store", store.to_str().unwrap()];
    let (ok, _, stderr) = cinderella(&args);
    assert!(ok, "{stderr}");
    args.extend(["--trace-json", trace.to_str().unwrap()]);
    let (ok, out, stderr) = cinderella(&args);
    assert!(ok, "{stderr}");
    let pool = out.lines().find(|l| l.starts_with("pool:")).expect("pool summary");
    assert!(pool.contains("0 solved, 12 replayed") && pool.ends_with(" 0 ticks"), "{pool}");
    let text = std::fs::read_to_string(&trace).expect("trace file written");
    let doc = ipet_trace::TraceDoc::from_json(&ipet_trace::parse_json(&text).expect("JSON"))
        .expect("trace schema");
    assert_eq!(doc.counters.get("lp.ticks").copied().unwrap_or(0), 0, "{text}");
}

#[test]
fn every_io_fault_degrades_to_cold_solves_with_identical_bounds() {
    let dir = store_scratch("faults");
    let baseline = {
        let (ok, out, stderr) = cinderella(&["analyze", "piksrt", "--jobs", "2"]);
        assert!(ok, "{stderr}");
        strip_summaries(&out)
    };
    let faults: &[(&str, &[&str])] = &[
        ("fail-write", &["--inject-fail-write", "0"]),
        ("torn-write", &["--inject-torn-write", "0"]),
        ("corrupt-record", &["--inject-corrupt-record", "0"]),
        ("fail-open", &["--inject-fail-open"]),
    ];
    for (name, flags) in faults {
        let store = dir.join(format!("{name}.store"));
        let mut args = vec!["analyze", "piksrt", "--store", store.to_str().unwrap(), "--jobs", "2"];
        args.extend_from_slice(flags);
        // Seed a store (under fault), then run again over the damaged
        // remains: both runs must succeed with the fault-free bounds.
        for round in 0..2 {
            let (code, out, stderr) = cinderella_code(&args);
            assert_eq!(code, 0, "{name} round {round}: {stderr}");
            assert_eq!(
                strip_summaries(&out),
                baseline,
                "{name} round {round}: an IO fault changed the report"
            );
        }
    }
    // The counters tell the degradation story.
    let (_, out, _) = cinderella(&[
        "analyze",
        "piksrt",
        "--store",
        dir.join("x.store").to_str().unwrap(),
        "--inject-fail-write",
        "0",
    ]);
    assert!(store_line(&out).contains("write_failed=1"), "{}", store_line(&out));
    let (_, out, _) = cinderella(&[
        "analyze",
        "piksrt",
        "--store",
        dir.join("y.store").to_str().unwrap(),
        "--inject-fail-open",
    ]);
    assert!(store_line(&out).contains("mode=mem"), "{}", store_line(&out));
}

#[test]
fn hand_corrupted_store_falls_back_and_repairs() {
    let dir = store_scratch("corrupt");
    let store = dir.join("solves.store");
    let path = store.to_str().unwrap();

    let (ok, cold, _) = cinderella(&["analyze", "dhry", "--store", path]);
    assert!(ok);

    // Flip a bit in every record region of the file.
    let mut bytes = std::fs::read(&store).unwrap();
    let step = (bytes.len() / 8).max(1);
    let mut i = 24;
    while i < bytes.len() {
        bytes[i] ^= 0x40;
        i += step;
    }
    std::fs::write(&store, &bytes).unwrap();

    let (code, out, stderr) = cinderella_code(&["analyze", "dhry", "--store", path]);
    assert_eq!(code, 0, "{stderr}");
    assert!(!store_line(&out).contains("quarantined=0"), "{}", store_line(&out));
    assert_eq!(strip_summaries(&cold), strip_summaries(&out), "corruption changed the report");

    // The recovery run rewrote the file; a third run replays cleanly.
    let (ok, healed, _) = cinderella(&["analyze", "dhry", "--store", path]);
    assert!(ok);
    let line = store_line(&healed);
    assert!(line.contains("quarantined=0"), "{line}");
    assert!(line.contains("misses=0"), "{line}");
    assert_eq!(strip_summaries(&cold), strip_summaries(&healed));
}

#[test]
fn store_runs_every_report_but_rejects_solve_faults_and_io_faults_need_it() {
    let dir = store_scratch("reject");
    let path = dir.join("s.store");
    let store = path.to_str().unwrap();
    let (code, stdout, stderr) =
        cinderella_code(&["analyze", "piksrt", "--store", store, "--measure"]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains("measured bound:") && stdout.contains("store:"), "{stdout}");
    let (code, _, stderr) =
        cinderella_code(&["analyze", "piksrt", "--store", store, "--inject-corrupt-witness", "0"]);
    assert_eq!(code, 1);
    assert!(stderr.contains("--store"), "{stderr}");
    let (code, _, stderr) = cinderella_code(&["analyze", "piksrt", "--inject-fail-write", "0"]);
    assert_eq!(code, 1);
    assert!(stderr.contains("--store"), "{stderr}");
}
