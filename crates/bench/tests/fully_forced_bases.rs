//! Every warm-start base snapshots on the presolved sparse kernel, fully
//! forced ones included: over default synthetic programs, where presolve
//! fixes every variable of one base in eight, no warm start misses and
//! every base snapshot serves its delta warm.
//!
//! One test in its own binary: it reads the process-global trace recorder.

use ipet_bench::synth;
use ipet_core::{infer_loop_bounds, inferred_annotations, Analyzer};
use ipet_hw::Machine;

#[test]
fn synth_bases_all_warm_start_including_fully_forced_ones() {
    let recorder = ipet_trace::install();
    recorder.reset();
    for seed in 0..64u64 {
        let s = synth::generate(seed, synth::SynthConfig::default());
        let analyzer = Analyzer::new(&s.program, Machine::i960kb()).expect("analyzer");
        let anns = inferred_annotations(&infer_loop_bounds(&analyzer));
        let anns = ipet_core::parse_annotations(&anns).expect("parse");
        analyzer.analyze_parsed(&anns).expect("analysis");
    }
    let doc = recorder.snapshot();
    let counter = |name: &str| doc.counters.get(name).copied().unwrap_or(0);
    // One base per objective sense and seed; 16 of the 128 are fully
    // forced.
    assert_eq!(counter("lp.warm.base_solves"), 128);
    assert_eq!(counter("lp.warm.misses"), 0);
    assert_eq!(counter("lp.warm.hits"), counter("lp.warm.base_solves"));
}
