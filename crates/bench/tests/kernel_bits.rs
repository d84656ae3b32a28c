//! The simplex kernel's pivot path, pinned bit for bit on two corpora.
//!
//! Every job of each corpus is solved with `solve_ilp_budgeted` under the
//! default analysis budget. One FNV-1a digest per corpus covers, job by
//! job, the branch-and-bound node count and the `to_bits()` of every `x`
//! entry and of the value; the corpus' total ticks (pivots) are pinned
//! beside it. A change to the kernel's memory layout must leave both
//! untouched: it may not reorder a single floating-point operation.
//!
//! * Corpus 1: the 13 suite routines' `--infer` merge plans (36 jobs).
//! * Corpus 2: the first 60 `synth::generate` programs with `max_depth: 4`
//!   whose compiled size falls in 250..750 instructions, planned
//!   annotation-free (`InferMode::Only`; 120 jobs).

use ipet_bench::synth::{generate, SynthConfig};
use ipet_core::{parse_annotations, AnalysisBudget, AnalysisPlan, Analyzer, Annotations};
use ipet_hw::Machine;
use ipet_infer::{infer_and_merge, InferMode};
use ipet_lp::{solve_ilp_budgeted, BudgetMeter, IlpResolution, SolverFaults};

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// `(jobs, total ticks, digest)` of solving every job of `plans`.
fn pin(plans: &[AnalysisPlan]) -> (usize, u64, u64) {
    let budget = AnalysisBudget::default().solve;
    let mut digest = Digest::new();
    let (mut jobs, mut ticks) = (0, 0);
    for job in plans.iter().flat_map(|p| p.jobs()) {
        let meter = BudgetMeter::new();
        let (res, stats) =
            solve_ilp_budgeted(&job.problem, &budget, &meter, &mut SolverFaults::none());
        let IlpResolution::Exact { x, value } = res else {
            panic!("job {jobs} ended {res:?}");
        };
        digest.word(stats.nodes as u64);
        digest.word(x.len() as u64);
        for v in &x {
            digest.word(v.to_bits());
        }
        digest.word(value.to_bits());
        jobs += 1;
        ticks += meter.ticks();
    }
    (jobs, ticks, digest.0)
}

fn suite_plans() -> Vec<AnalysisPlan> {
    let budget = AnalysisBudget::default();
    ipet_suite::all()
        .iter()
        .map(|b| {
            let program = b.program().expect("compiles");
            let module = ipet_lang::parse_module(b.source).ok();
            let analyzer = Analyzer::new(&program, Machine::i960kb()).expect("analyzer");
            let anns = parse_annotations(&b.annotations(&program)).expect("annotations");
            let merged = infer_and_merge(module.as_ref(), &analyzer, &anns, InferMode::Merge)
                .expect("infer merge");
            analyzer.plan(&merged.annotations, &budget).expect("plan")
        })
        .collect()
}

fn band_plans() -> Vec<AnalysisPlan> {
    let budget = AnalysisBudget::default();
    let config = SynthConfig { max_depth: 4, ..SynthConfig::default() };
    let mut plans = Vec::new();
    let mut seed = 0;
    while plans.len() < 60 {
        let s = generate(seed, config);
        seed += 1;
        let instrs: usize = s.program.functions.iter().map(|f| f.instrs.len()).sum();
        if !(250..750).contains(&instrs) {
            continue;
        }
        let analyzer = Analyzer::new(&s.program, Machine::i960kb()).expect("analyzer");
        let merged =
            infer_and_merge(Some(&s.module), &analyzer, &Annotations::default(), InferMode::Only)
                .expect("every generated loop is inferred");
        plans.push(analyzer.plan(&merged.annotations, &budget).expect("plan"));
    }
    plans
}

#[test]
fn suite_infer_jobs_keep_their_pivot_path_and_bits() {
    assert_eq!(pin(&suite_plans()), (36, 383, 0xc92a_e435_6e06_68d4));
}

#[test]
fn scale_band_jobs_keep_their_pivot_path_and_bits() {
    assert_eq!(pin(&band_plans()), (120, 4165, 0x8e1a_3771_d752_11d4));
}
