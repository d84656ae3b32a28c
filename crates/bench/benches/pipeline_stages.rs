//! Times each stage of the toolchain separately on the largest routine —
//! compile, CFG + instance expansion, block costing, simulation, and the
//! steps around the simplex: planning, content fingerprinting and the
//! worst-case cover's LP solve, and the exact certification of the
//! worst-case job's witness by the audited fold (`certify`) and by the
//! replay tier (`replay_gate`) — to show where the milliseconds go (the
//! paper's "insignificant" claim covers only the ILP; this bench covers the
//! substrates). `plan_scale` plans one large synthetic program, from the
//! top of the 250–750 instruction band the `scale` workload draws from, so
//! the plan cost of a program many times dhry's size shows too.

use criterion::{criterion_group, criterion_main, Criterion};
use ipet_audit::{certify_witness, replay_gate, ClaimKind};
use ipet_bench::synth::{generate, SynthConfig};
use ipet_cfg::Instances;
use ipet_core::{parse_annotations, AnalysisBudget, Analyzer};
use ipet_hw::{block_cost, Machine};
use ipet_sim::measure;
use std::hint::black_box;

fn bench_stages(c: &mut Criterion) {
    let b = ipet_suite::by_name("dhry").expect("bundled benchmark");
    let machine = Machine::i960kb();
    let program = b.program().unwrap();

    let mut group = c.benchmark_group("pipeline_stages");
    group.sample_size(20);

    group.bench_function("compile", |bench| {
        bench.iter(|| black_box(ipet_lang::compile(black_box(b.source), b.entry).unwrap()))
    });

    group.bench_function("cfg_expand", |bench| {
        bench.iter(|| black_box(Instances::expand(&program, program.entry).unwrap()))
    });

    group.bench_function("block_costs", |bench| {
        bench.iter(|| {
            let inst = Instances::expand(&program, program.entry).unwrap();
            let mut total = 0u64;
            for (f, cfg) in inst.cfgs.iter().enumerate() {
                for blk in cfg.blocks() {
                    total += block_cost(&machine, &program.functions[f], blk).worst_cold;
                }
            }
            black_box(total)
        })
    });

    group.bench_function("simulate_worst", |bench| {
        bench.iter(|| {
            let r = measure(&program, machine, &(b.worst_seeds)(), b.args_worst, true).unwrap();
            black_box(r.cycles)
        })
    });

    let analyzer = Analyzer::new(&program, machine).unwrap();
    let anns = parse_annotations(&b.annotations(&program)).unwrap();
    let budget = AnalysisBudget::default();
    group.bench_function("plan", |bench| {
        bench.iter(|| black_box(analyzer.plan(black_box(&anns), &budget).unwrap().jobs().len()))
    });

    // The first generated program (the `scale` workload's generator shape,
    // seeds counting up from 0) of 700 to 749 instructions, annotated by
    // loop-bound inference alone.
    let synth = (0..)
        .map(|seed| generate(seed, SynthConfig { max_depth: 4, ..SynthConfig::default() }))
        .find(|s| {
            let instrs: usize = s.program.functions.iter().map(|f| f.instrs.len()).sum();
            (700..750).contains(&instrs)
        })
        .expect("the generator reaches the top of the band");
    let large = Analyzer::new(&synth.program, machine).unwrap();
    let inferred = ipet_infer::infer_and_merge(
        Some(&synth.module),
        &large,
        &Default::default(),
        ipet_infer::InferMode::Only,
    )
    .unwrap()
    .annotations;
    group.bench_function("plan_scale", |bench| {
        bench.iter(|| black_box(large.plan(black_box(&inferred), &budget).unwrap().jobs().len()))
    });

    let plan = analyzer.plan(&anns, &budget).unwrap();
    let cover = plan.cover(ipet_lp::Sense::Maximize);
    group.bench_function("fingerprint", |bench| {
        bench.iter(|| black_box(ipet_lp::fingerprint(black_box(cover))))
    });

    group.bench_function("cover_lp", |bench| {
        bench.iter(|| black_box(ipet_lp::solve_lp(black_box(cover))))
    });

    // The worst-case job (the maximize job with the largest optimum) and
    // its witness, checked as the audited fold and the replay tier check it.
    let (worst, x, value) = plan
        .jobs()
        .iter()
        .filter(|job| job.problem.sense == ipet_lp::Sense::Maximize)
        .filter_map(|job| match ipet_lp::solve_ilp(&job.problem).0 {
            ipet_lp::IlpOutcome::Optimal { x, value } => Some((&job.problem, x, value)),
            _ => None,
        })
        .max_by(|a, b| a.2.total_cmp(&b.2))
        .expect("dhry has a worst case");
    let claimed = ipet_lp::round_claimed(value).unwrap();
    group.bench_function("certify", |bench| {
        bench.iter(|| {
            black_box(certify_witness(black_box(worst), &x, claimed, ClaimKind::Equal).is_ok())
        })
    });

    group.bench_function("replay_gate", |bench| {
        bench.iter(|| black_box(replay_gate(black_box(worst), worst, Some((&x, value)))))
    });

    group.finish();
}

criterion_group!(benches, bench_stages);
criterion_main!(benches);
