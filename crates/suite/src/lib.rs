//! # ipet-suite
//!
//! The benchmark programs of the paper's Table I, rewritten in mini-C, with
//! their functionality-constraint annotations and identified extreme-case
//! data sets.
//!
//! The originals come from Park's and Gupta's theses, DSP codes and
//! compiler benchmarks; they are not redistributable verbatim, so each
//! routine here is a functional re-creation at the kernel level: the same
//! loop structure, the same data-dependent branches, the same annotation
//! burden. That preserves what the experiments measure — CFG shape, the
//! number of constraint sets, and the pessimism of the path analysis.
//!
//! Each [`Benchmark`] carries:
//!
//! * mini-C `source` and the analysed `entry` routine,
//! * loop bounds (turned into `loop` annotations automatically) plus any
//!   hand-written extra functionality constraints,
//! * worst-case and best-case input data sets (the paper identifies these
//!   "by a careful study of the program"),
//! * the row of Table I it reproduces (paper line count and constraint-set
//!   count).
//!
//! ## Example
//!
//! ```
//! let bench = ipet_suite::by_name("piksrt").expect("bundled benchmark");
//! let program = bench.program().unwrap();
//! let annotations = bench.annotations(&program);
//! assert!(annotations.contains("loop"));
//! assert_eq!(bench.paper.lines, 15);
//! ```

mod dsp;
mod small;
mod synth;

use ipet_arch::Program;
use ipet_cfg::Cfg;
use ipet_lang::{compile, CompileError};
use std::fmt::Write as _;

/// Input data for one run: `(global name, values)` pairs.
pub type Seeds = Vec<(&'static str, Vec<i32>)>;

/// The Table-I row a benchmark reproduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaperRow {
    /// Source lines reported by the paper.
    pub lines: u32,
    /// Constraint sets before pruning, as reported (`8` for dhry).
    pub sets: u32,
    /// Constraint sets after null pruning (`3` for dhry, equal to `sets`
    /// everywhere else).
    pub sets_after_prune: u32,
}

/// One benchmark routine.
pub struct Benchmark {
    /// Routine name (Table I's "Function" column).
    pub name: &'static str,
    /// Table I's "Description" column.
    pub description: &'static str,
    /// mini-C source text.
    pub source: &'static str,
    /// The analysed/executed routine.
    pub entry: &'static str,
    /// Per-function loop bounds in loop-header order:
    /// `(function, [(lo, hi), ...])`.
    pub loop_bounds: &'static [(&'static str, &'static [(i64, i64)])],
    /// Additional functionality constraints (hand-written DSL text).
    pub extra_annotations: &'static str,
    /// Worst-case input data.
    pub worst_seeds: fn() -> Seeds,
    /// Best-case input data.
    pub best_seeds: fn() -> Seeds,
    /// Entry arguments for the worst-case run.
    pub args_worst: &'static [i32],
    /// Entry arguments for the best-case run.
    pub args_best: &'static [i32],
    /// The paper's Table-I row.
    pub paper: PaperRow,
}

impl Benchmark {
    /// Compiles the benchmark.
    ///
    /// # Errors
    ///
    /// Propagates compiler failures (the test suite guarantees none).
    pub fn program(&self) -> Result<Program, CompileError> {
        compile(self.source, self.entry)
    }

    /// Number of non-blank source lines of the mini-C re-creation.
    pub fn source_lines(&self) -> u32 {
        self.source.lines().filter(|l| !l.trim().is_empty()).count() as u32
    }

    /// Generates the full annotation text: one `loop` statement per
    /// declared bound (loops are matched to bounds in header order, the
    /// order `cinderella` asks for them), followed by the hand-written
    /// extra constraints.
    ///
    /// # Panics
    ///
    /// Panics if a function's declared bound count does not match its loop
    /// count — a bug in the benchmark definition that the tests catch.
    pub fn annotations(&self, program: &Program) -> String {
        let mut out = String::new();
        for (func_name, bounds) in self.loop_bounds {
            let (func_id, function) = program
                .function_by_name(func_name)
                .unwrap_or_else(|| panic!("{}: no function {func_name}", self.name));
            let cfg = Cfg::build(func_id, function);
            let loops = cfg.loops();
            assert_eq!(
                loops.len(),
                bounds.len(),
                "{}: {} bounds declared for {} loops in {func_name}",
                self.name,
                bounds.len(),
                loops.len()
            );
            let _ = writeln!(out, "fn {func_name} {{");
            for (l, (lo, hi)) in loops.iter().zip(bounds.iter()) {
                let _ = writeln!(out, "    loop x{} in [{lo}, {hi}];", l.header.0 + 1);
            }
            let _ = writeln!(out, "}}");
        }
        out.push_str(self.extra_annotations);
        out
    }
}

impl std::fmt::Debug for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Benchmark")
            .field("name", &self.name)
            .field("entry", &self.entry)
            .field("paper", &self.paper)
            .finish_non_exhaustive()
    }
}

/// All Table-I benchmarks, in the paper's row order.
pub fn all() -> Vec<Benchmark> {
    vec![
        small::check_data(),
        dsp::fft(),
        small::piksrt(),
        synth::des(),
        small::line(),
        small::circle(),
        dsp::jpeg_fdct_islow(),
        dsp::jpeg_idct_islow(),
        dsp::recon(),
        dsp::fullsearch(),
        synth::whetstone(),
        synth::dhry(),
        small::matgen(),
    ]
}

/// Finds a benchmark by name.
pub fn by_name(name: &str) -> Option<Benchmark> {
    all().into_iter().find(|b| b.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thirteen_benchmarks_in_table_order() {
        let names: Vec<&str> = all().iter().map(|b| b.name).collect();
        assert_eq!(
            names,
            vec![
                "check_data",
                "fft",
                "piksrt",
                "des",
                "line",
                "circle",
                "jpeg_fdct_islow",
                "jpeg_idct_islow",
                "recon",
                "fullsearch",
                "whetstone",
                "dhry",
                "matgen"
            ]
        );
    }

    #[test]
    fn every_benchmark_compiles_and_validates() {
        for b in all() {
            let p = b.program().unwrap_or_else(|e| panic!("{}: {e}", b.name));
            assert!(p.validate().is_ok(), "{}", b.name);
        }
    }

    #[test]
    fn annotations_generate_for_every_benchmark() {
        for b in all() {
            let p = b.program().unwrap();
            let text = b.annotations(&p);
            assert!(b.loop_bounds.is_empty() || text.contains("loop"), "{}: {text}", b.name);
        }
    }

    #[test]
    fn by_name_roundtrip() {
        assert!(by_name("fft").is_some());
        assert!(by_name("nope").is_none());
    }
}
