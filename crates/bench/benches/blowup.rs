//! The §II scalability comparison as a Criterion sweep: explicit path
//! enumeration (exponential in the diamond count k) against the implicit
//! ILP formulation (polynomial), on the same k-diamond programs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ipet_baseline::{diamond_chain_program, PathEnumerator};
use ipet_cfg::Cfg;
use ipet_core::Analyzer;
use ipet_hw::{block_cost, Machine};
use std::collections::HashMap;
use std::hint::black_box;

fn bench_blowup(c: &mut Criterion) {
    let machine = Machine::i960kb();
    let mut group = c.benchmark_group("blowup");
    group.sample_size(10);
    for k in [4usize, 8, 12] {
        let program = diamond_chain_program(k);
        let cfg = Cfg::build(program.entry, program.entry_function());
        let costs: Vec<_> = cfg
            .blocks()
            .iter()
            .map(|b| block_cost(&machine, program.entry_function(), b))
            .collect();

        group.bench_with_input(BenchmarkId::new("explicit", k), &k, |bench, _| {
            bench.iter(|| {
                let e = PathEnumerator::new(&cfg, &costs, &HashMap::new(), u64::MAX).unwrap();
                black_box(e.enumerate().worst)
            })
        });

        let analyzer = Analyzer::new(&program, machine).unwrap();
        group.bench_with_input(BenchmarkId::new("implicit", k), &k, |bench, _| {
            bench.iter(|| black_box(analyzer.analyze("").unwrap().bound.upper))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_blowup);
criterion_main!(benches);
