//! The paper's core argument, §II: explicit path enumeration "runs out of
//! steam rather quickly" while the ILP formulation considers all paths
//! implicitly.
//!
//! ```text
//! cargo run --example explicit_vs_implicit
//! ```
//!
//! Builds programs with k sequential if-then-else diamonds (2^k paths),
//! walks them explicitly, and solves the same problem as one ILP. Both
//! must agree wherever the explicit walk completes.

use ipet_baseline::{diamond_chain_program, PathEnumerator};
use ipet_cfg::Cfg;
use ipet_core::Analyzer;
use ipet_hw::{block_cost, Machine};
use std::collections::HashMap;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let machine = Machine::i960kb();
    println!("{:<4} {:>12} {:>14} {:>14} {:>8}", "k", "paths", "explicit", "implicit", "agree");
    for k in [2usize, 4, 6, 8, 10, 12, 14, 16] {
        let program = diamond_chain_program(k);
        let cfg = Cfg::build(program.entry, program.entry_function());
        let costs: Vec<_> = cfg
            .blocks()
            .iter()
            .map(|b| block_cost(&machine, program.entry_function(), b))
            .collect();

        let t0 = Instant::now();
        let enumerator = PathEnumerator::new(&cfg, &costs, &HashMap::new(), u64::MAX)?;
        let explicit = enumerator.enumerate();
        let t_explicit = t0.elapsed();

        let analyzer = Analyzer::new(&program, machine)?;
        let t1 = Instant::now();
        let implicit = analyzer.analyze("")?;
        let t_implicit = t1.elapsed();

        let agree = explicit.worst == Some(implicit.bound.upper)
            && explicit.best == Some(implicit.bound.lower);
        println!(
            "{k:<4} {:>12} {:>11.2?} {:>11.2?} {:>8}",
            explicit.paths_explored, t_explicit, t_implicit, agree
        );
        assert!(agree, "methods must agree on complete walks");
    }
    println!("\nexplicit time doubles with every extra branch; the ILP does not.");
    Ok(())
}
