//! Each CFG's dominators and loops are computed once, inside `Cfg::build`:
//! planning and inference borrow them and never recompute.
//!
//! One test in its own binary: it reads the process-global trace recorder.

use ipet_arch::Program;
use ipet_core::{parse_annotations, AnalysisBudget, Analyzer, Annotations};
use ipet_hw::Machine;
use ipet_infer::{infer_and_merge, InferMode};
use ipet_lang::Module;

fn counter(name: &str) -> u64 {
    let doc = ipet_trace::snapshot().expect("recorder installed");
    doc.counters.get(name).copied().unwrap_or(0)
}

/// Runs `Analyzer::new → infer_and_merge → plan` over a compiled program and
/// checks that the last two build no CFG and compute no dominators.
fn analyze(name: &str, program: &Program, module: Option<&Module>, user: &Annotations) {
    let analyzer = Analyzer::new(program, Machine::i960kb()).expect("analyzer");
    let before = counter("cfg.dom.computations");
    let anns = infer_and_merge(module, &analyzer, user, InferMode::Merge)
        .unwrap_or_else(|e| panic!("{name}: inference: {e}"))
        .annotations;
    analyzer.plan(&anns, &AnalysisBudget::default()).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(
        counter("cfg.dom.computations"),
        before,
        "{name}: inference or planning recomputed dominators"
    );
}

#[test]
fn dominators_and_loops_are_computed_once_per_cfg_build() {
    let recorder = ipet_trace::install();
    recorder.reset();
    for bench in ipet_suite::all() {
        let program = bench.program().expect("compiles");
        let user = parse_annotations(&bench.annotations(&program)).expect("annotations");
        let module = ipet_lang::parse_module(bench.source).ok();
        analyze(bench.name, &program, module.as_ref(), &user);
    }
    for seed in 0..3 {
        let s = ipet_bench::synth::generate(seed, ipet_bench::synth::SynthConfig::default());
        analyze(&format!("synth {seed}"), &s.program, Some(&s.module), &Annotations::default());
    }
    let builds = counter("cfg.build.calls");
    assert!(builds > 0, "the pipeline built CFGs");
    assert_eq!(counter("cfg.dom.computations"), builds, "one dominator computation per build");
}
