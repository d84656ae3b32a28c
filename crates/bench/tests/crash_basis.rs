//! The triangular crash basis earns its keep on the synthetic corpus: over
//! default synthetic programs every ILP still ends at its root relaxation,
//! while the solves spend less than half the simplex ticks the artificial
//! start spent: 12514 over these seeds, against 1810 with the crash.
//!
//! One test in its own binary: it reads the process-global trace recorder.

use ipet_bench::synth;
use ipet_core::{infer_loop_bounds, inferred_annotations, Analyzer};
use ipet_hw::Machine;

/// `lp.ticks` over seeds 0..64 when every zero-level row started phase 1
/// from its artificial.
const ARTIFICIAL_START_TICKS: u64 = 12514;

#[test]
fn crashed_bases_halve_the_synth_corpus_ticks() {
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
    assert_eq!(counter("lp.ilp.solves"), 128);
    assert_eq!(counter("lp.bb_nodes"), 128);
    let ticks = counter("lp.ticks");
    assert!(
        2 * ticks <= ARTIFICIAL_START_TICKS,
        "lp.ticks {ticks} is more than half the artificial start's {ARTIFICIAL_START_TICKS}"
    );
}
