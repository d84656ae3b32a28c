//! Property tests of `ipet-infer` over the synthetic workload generator:
//! every inferred loop interval must enclose the back-edge traversals the
//! cycle-level simulator actually observes, and replacing annotations by
//! inference must never loosen the reported bound (and must still pass
//! the exact-arithmetic audit).

use ipet_bench::synth;
use ipet_cfg::Cfg;
use ipet_core::{AnalysisBudget, Analyzer, Annotations, SolvePool};
use ipet_hw::Machine;
use ipet_infer::{infer_and_merge, InferMode};
use ipet_sim::{SimConfig, Simulator};
use proptest::prelude::*;

const PROBE_ARGS: [i32; 5] = [-9, -1, 0, 3, 8];

/// Per-loop `(entries, back-edge traversals)` observed in one simulator
/// run, reconstructed from block execution counts. Entry-edge traversal
/// counts equal the source block's execution count only when that block
/// has a single successor; a loop with an ambiguous entry is skipped
/// (`None`) rather than guessed at.
fn observed_loop_counts(
    cfg: &Cfg,
    counts: &std::collections::BTreeMap<(ipet_arch::FuncId, ipet_cfg::BlockId), u64>,
) -> Vec<Option<(u64, u64)>> {
    let count = |b: ipet_cfg::BlockId| counts.get(&(cfg.func, b)).copied().unwrap_or(0);
    cfg.loops()
        .iter()
        .map(|l| {
            let mut entries = 0u64;
            for &e in &l.entry_edges {
                let from = cfg.edges()[e.0].from?;
                let successors = cfg.edges().iter().filter(|x| x.from == Some(from)).count();
                if successors != 1 {
                    return None;
                }
                entries += count(from);
            }
            Some((entries, count(l.header) - entries))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Soundness against the simulator: for every loop the inference
    /// bounds, the observed back-edge traversals `B` and entries `E`
    /// satisfy `lo*E <= B <= hi*E` on every probe input.
    #[test]
    fn inferred_bounds_enclose_observed_iteration_counts(seed in 0u64..400) {
        let s = synth::generate(seed, synth::SynthConfig::default());
        let machine = Machine::i960kb();
        let analyzer = Analyzer::new(&s.program, machine).expect("analyzer");
        let out = infer_and_merge(Some(&s.module), &analyzer, &Annotations::default(), InferMode::Only)
            .expect("synth loops are all inferable");
        prop_assert_eq!(out.counts.failed, 0);

        // Synth programs are a single function, so provenance rows map
        // straight onto the entry CFG's natural loops by header.
        let func = s.program.entry;
        let cfg = Cfg::build(func, s.program.entry_function());
        for a in PROBE_ARGS {
            let mut sim = Simulator::new(&s.program, machine, SimConfig::default());
            let r = sim.run(&[a]).expect("simulation");
            let observed = observed_loop_counts(&cfg, &r.block_counts);
            for (l, obs) in cfg.loops().iter().zip(&observed) {
                let Some((entries, backs)) = *obs else { continue };
                let p = out
                    .annotations
                    .provenance
                    .iter()
                    .find(|p| p.header == l.header.0)
                    .expect("every loop has an inferred row");
                prop_assert!(
                    (p.lo as u64) * entries <= backs && backs <= (p.hi as u64) * entries,
                    "seed {}, a={}: loop at B{} observed {} back edges over {} entries, \
                     inferred [{}, {}]",
                    seed, a, l.header.0 + 1, backs, entries, p.lo, p.hi
                );
            }
        }
    }

    /// Replacing the machine-derived annotations by AST inference yields
    /// the same bound or a tighter one — and the tighter bound still
    /// certifies in exact arithmetic.
    #[test]
    fn inference_never_loosens_the_annotated_bound_and_still_certifies(seed in 0u64..400) {
        let s = synth::generate(seed, synth::SynthConfig::default());
        let machine = Machine::i960kb();
        let analyzer = Analyzer::new(&s.program, machine).expect("analyzer");
        let annotated_text =
            ipet_core::inferred_annotations(&ipet_core::infer_loop_bounds(&analyzer));
        let annotated = analyzer.analyze(&annotated_text).expect("annotated analysis");

        let out = infer_and_merge(Some(&s.module), &analyzer, &Annotations::default(), InferMode::Only)
            .expect("synth loops are all inferable");
        let budget = AnalysisBudget::default();
        let plan = analyzer.plan(&out.annotations, &budget).expect("plan");
        let batch = SolvePool::new(1).run_plans_audited(&[plan], &budget.solve);
        let (inferred, report) = batch.results.into_iter().next().expect("one plan")
            .expect("audited analysis");
        prop_assert!(
            annotated.bound.encloses(inferred.bound),
            "seed {}: inferred bound {:?} escapes annotated {:?}",
            seed, inferred.bound, annotated.bound
        );
        prop_assert!(report.all_certified(), "seed {}: inferred bound failed the audit", seed);
    }
}
