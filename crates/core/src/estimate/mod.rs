//! The IPET estimator: functionality-constraint resolution, DNF set
//! expansion, null pruning, ILP assembly and the final `[t_min, t_max]`.
//!
//! The module is split by pipeline stage:
//!
//! * [`sets`] — annotation resolution: `x`/`d`/`f` references, loop-bound
//!   equations (the paper's eqs. 14–15), and DNF expansion inputs.
//! * [`plan`] — job-graph construction: DNF expansion, cache split,
//!   canonical set ordering, ILP assembly and job keys.
//! * [`fold`] — the pure verdict fold that turns solved jobs back into an
//!   [`Estimate`] (plus exact-arithmetic certification).
//! * [`degrade`] — budget-exhaustion coverage: the common-constraint cover
//!   relaxation that bounds skipped sets.
//!
//! ## One problem per job
//!
//! Every surviving constraint set is solved as its own, independent ILP,
//! once per sense. The plan assembles one cover problem per sense
//! (structural + common functionality rows, plus the cache-split rows on
//! the worst-case side) and appends each set's disjunct rows to it, so a
//! job is its composed problem and the key it was planned with:
//! `fingerprint(&problem)`, computed once when the plan is built. The
//! covers stay with the plan, where they bound any set a budget skipped.

use crate::dsl::{parse_annotations, Annotations, LoopProvenance, Ref, Stmt};
use crate::error::AnalysisError;
use crate::pool::{SolvePool, SolveRequest};
use crate::vars::VarSpace;
use ipet_arch::{FuncId, Program};
use ipet_audit::FlowSpec;
use ipet_cfg::{BlockId, InstanceId, Instances};
use ipet_hw::{block_cycles, BlockCost, Cycles, Machine, ParamExpr};
use ipet_lp::{BoundQuality, Fingerprint, IlpResolution, IlpStats, Problem, Sense, SolveBudget};
use std::collections::{BTreeMap, HashSet};

mod degrade;
mod fold;
mod plan;
mod sets;
#[cfg(test)]
mod tests;

/// Resource budget and degradation policy for one analysis run.
///
/// [`Analyzer::plan`] reads the set cap and the policy; the
/// [`SolveBudget`] goes to the [`SolvePool`] that runs the plan: a tick
/// deadline `d` is split over the batch's `n` fresh solves, `d / n` each
/// (the first `d mod n` get one more), so every job's budget, and with it
/// the bound, is the same at any worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AnalysisBudget {
    /// Solver resource limits (tick deadline, B&B nodes).
    pub solve: SolveBudget,
    /// Cap on DNF constraint sets per analysis. Past it, the disjunctive
    /// statements are dropped (degradation on) or the plan fails
    /// ([`AnalysisError::TooManySets`]).
    pub max_sets: usize,
    /// When `true` (the default), budget exhaustion degrades to a safe but
    /// looser bound tagged [`BoundQuality::Relaxed`] /
    /// [`BoundQuality::Partial`]; when `false` it becomes a hard
    /// [`AnalysisError`].
    pub degrade: bool,
}

impl AnalysisBudget {
    /// The DNF set cap used when no explicit budget is given.
    pub const DEFAULT_MAX_SETS: usize = 65_536;

    /// The default policy: effectively unlimited budget, degradation on.
    pub fn unlimited() -> AnalysisBudget {
        AnalysisBudget {
            solve: SolveBudget::unlimited(),
            max_sets: AnalysisBudget::DEFAULT_MAX_SETS,
            degrade: true,
        }
    }
}

impl Default for AnalysisBudget {
    fn default() -> AnalysisBudget {
        AnalysisBudget::unlimited()
    }
}

/// How call contexts are modelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ContextMode {
    /// One CFG instance per acyclic call string (the paper's "separate set
    /// of x_i variables ... for this instance of the call"). Required for
    /// caller-scoped constraints such as `x8.f1`.
    #[default]
    PerCallSite,
    /// The paper's eq.-(12) formulation: one instance per function, callee
    /// entry flow = sum of all `f`-edges targeting it. Smaller ILPs;
    /// caller-scoped constraints lose their context sensitivity.
    Shared,
}

/// How the worst-case objective treats the instruction cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheMode {
    /// The paper's baseline: every block execution pays cold-cache fetch
    /// costs ("we assume that the execution will always result in
    /// cache-misses").
    #[default]
    AllMiss,
    /// The refinement sketched in §IV: the first iteration of a loop is
    /// treated as a separate virtual block with cold costs; later
    /// iterations pay warm costs. Applied only to loops whose body is
    /// call-free and provably conflict-free in the i-cache, so the bound
    /// stays safe.
    FirstIterSplit,
}

/// An estimated time interval in cycles (the paper's `[t_min, t_max]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TimeBound {
    /// Estimated best-case cycles (`t_min`).
    pub lower: u64,
    /// Estimated worst-case cycles (`t_max`).
    pub upper: u64,
}

impl TimeBound {
    /// True when `self` encloses `other` (the correctness criterion of
    /// Fig. 1: the estimated bound must contain the actual bound).
    pub fn encloses(&self, other: TimeBound) -> bool {
        self.lower <= other.lower && other.upper <= self.upper
    }

    /// The paper's pessimism measure
    /// `[(M_l - E_l) / M_l, (E_u - M_u) / M_u]` against a reference bound.
    pub fn pessimism_against(&self, reference: TimeBound) -> (f64, f64) {
        let lo = if reference.lower == 0 {
            0.0
        } else {
            (reference.lower as f64 - self.lower as f64) / reference.lower as f64
        };
        let hi = if reference.upper == 0 {
            0.0
        } else {
            (self.upper as f64 - reference.upper as f64) / reference.upper as f64
        };
        (lo, hi)
    }
}

/// Per-constraint-set solver report.
#[derive(Debug, Clone, PartialEq)]
pub struct SetReport {
    /// Index among the surviving (non-pruned) sets.
    pub index: usize,
    /// Worst-case objective for this set (`None` when the set is
    /// infeasible at the ILP level).
    pub wcet: Option<u64>,
    /// Best-case objective for this set.
    pub bcet: Option<u64>,
    /// Solver statistics of the WCET ILP.
    pub wcet_stats: IlpStats,
    /// Solver statistics of the BCET ILP.
    pub bcet_stats: IlpStats,
    /// How this set's contribution was obtained: [`BoundQuality::Exact`]
    /// when both solves completed, [`BoundQuality::Relaxed`] when either
    /// fell back to its LP-relaxation bound.
    pub quality: BoundQuality,
}

/// Result of one full IPET analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimate {
    /// The estimated bound `[t_min, t_max]`.
    pub bound: TimeBound,
    /// Constraint sets produced by DNF expansion, before pruning
    /// (Table I's "Sets" column counts these).
    pub sets_total: usize,
    /// Sets eliminated by the trivial null test.
    pub sets_pruned: usize,
    /// Per-set reports for the sets that reached the solver.
    pub sets: Vec<SetReport>,
    /// Basic-block counts of the worst-case solution, labelled
    /// `x<k>@<instance>` (only non-zero entries).
    pub wcet_counts: BTreeMap<String, i64>,
    /// Cycles each CFG instance contributes to the WCET (instance label →
    /// cycles), summing to `bound.upper` for an [`BoundQuality::Exact`]
    /// analysis. For a degraded analysis the breakdown reflects the best
    /// *witnessed* solution, which the degraded bound only covers.
    pub wcet_contributions: BTreeMap<String, u64>,
    /// Trust level of `bound`: exact, relaxed (budget exhaustion fell back
    /// to LP-relaxation bounds), or partial (constraint sets were skipped
    /// or disjunctions dropped, covered by a common-constraint relaxation).
    pub quality: BoundQuality,
    /// Surviving constraint sets the solver never reached before the budget
    /// ran out. Their contribution to `bound` comes from the
    /// common-constraint cover relaxation, not a per-set solve.
    pub sets_skipped: usize,
    /// Indices (into `sets`) of the reports whose bound is degraded.
    pub degraded_sets: Vec<usize>,
    /// Provenance of every effective loop bound (annotated vs inferred vs
    /// merged). Empty unless the inference pass ran — the render section
    /// only appears when non-empty, keeping annotation-only output stable.
    pub loop_bounds: Vec<LoopProvenance>,
    /// The symbolic WCET formula: the worst-case witness's execution counts
    /// multiplied by the per-variable worst-case costs, an exact integer
    /// linear form over the named cache penalties
    /// ([`ipet_hw::P_MISS`], [`ipet_hw::P_DMISS`]).
    ///
    /// Present only for a [`BoundQuality::Exact`] analysis whose formula
    /// provably reproduces `bound.upper` when evaluated at the analyzed
    /// machine's own parameter point — so the formula is never a guess.
    /// The formula is the witness's *line*: it equals the true WCET at this
    /// parameter point and is a lower bound elsewhere; region certification
    /// (`ipet_lp::parametric`, DESIGN.md §16) decides where it stays exact.
    pub wcet_formula: Option<ParamExpr>,
}

impl Estimate {
    /// Renders the estimate the way the paper's tool reports it (§V):
    /// the bound in cycles, the constraint-set accounting, solver
    /// statistics, and the worst-case block counts.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ =
            writeln!(out, "estimated bound: [{}, {}] cycles", self.bound.lower, self.bound.upper);
        let _ = writeln!(out, "bound quality: {}", self.quality);
        let _ = writeln!(
            out,
            "constraint sets: {} total, {} pruned as null, {} solved",
            self.sets_total,
            self.sets_pruned,
            self.sets.len()
        );
        if self.sets_skipped > 0 {
            let _ = writeln!(
                out,
                "  {} sets skipped on budget exhaustion (covered by the \
                 common-constraint relaxation)",
                self.sets_skipped
            );
        }
        if !self.degraded_sets.is_empty() {
            let list: Vec<String> = self.degraded_sets.iter().map(|i| i.to_string()).collect();
            let _ = writeln!(out, "  degraded sets (LP-relaxation bound): {}", list.join(", "));
        }
        let stats = self.total_stats();
        let _ = writeln!(
            out,
            "ILP: {} LP calls over {} nodes; first relaxation integral: {}",
            stats.lp_calls, stats.nodes, stats.first_relaxation_integral
        );
        let _ = writeln!(out, "WCET contribution by instance:");
        for (label, cycles) in &self.wcet_contributions {
            let pct = 100.0 * *cycles as f64 / self.bound.upper.max(1) as f64;
            let _ = writeln!(out, "  {label:<40} {cycles:>10}  ({pct:4.1}%)");
        }
        let _ = writeln!(out, "worst-case block counts:");
        for (label, count) in &self.wcet_counts {
            let _ = writeln!(out, "  {label:<40} {count}");
        }
        if !self.loop_bounds.is_empty() {
            let _ = writeln!(out, "loop bounds:");
            for p in &self.loop_bounds {
                let at = p.source.line().map(|l| format!(" (line {l})")).unwrap_or_default();
                let _ = writeln!(
                    out,
                    "  {:<28} [{}, {}]  {}{at}",
                    format!("{} x{}", p.func, p.header + 1),
                    p.lo,
                    p.hi,
                    p.source.label()
                );
            }
        }
        out
    }

    /// Sum of ILP statistics over every solved ILP (WCET and BCET).
    pub fn total_stats(&self) -> IlpStats {
        let mut acc = IlpStats { first_relaxation_integral: true, ..IlpStats::default() };
        for s in &self.sets {
            for st in [s.wcet_stats, s.bcet_stats] {
                acc.lp_calls += st.lp_calls;
                acc.nodes += st.nodes;
                acc.first_relaxation_integral &= st.first_relaxation_integral;
            }
        }
        acc
    }
}

/// One ILP the analysis needs solved: a surviving constraint set paired
/// with an optimization sense.
///
/// Jobs are emitted by [`Analyzer::plan`] in the canonical order
/// `set 0 × Maximize, set 0 × Minimize, set 1 × Maximize, ...` — job `i`
/// belongs to the `i / 2`-th surviving (post-prune, canonically ordered)
/// set, and its sense is `problem.sense`: `Maximize` (the WCET side) when
/// `i` is even. The problems are fully assembled (structural +
/// functionality + cache-split rows), self-contained, and independent of
/// each other, so the pool may solve, replay and steal them in any order.
#[derive(Debug, Clone)]
pub struct IlpJob {
    /// The assembled ILP: the sense's cover rows followed by the set's
    /// disjunct rows (deduplicated: rows already in the cover, or repeated
    /// within the set, are dropped before assembly).
    pub problem: Problem,
    /// The job's cache key, `fingerprint(&problem)`, computed once by
    /// [`Analyzer::plan`].
    pub key: Fingerprint,
}

/// Outcome of one [`IlpJob`], fed back to [`AnalysisPlan::complete`].
/// Every job gets one: a job whose budget ran out resolves
/// [`IlpResolution::Exhausted`], and its constraint set is covered by the
/// common-constraint relaxation.
#[derive(Debug, Clone)]
pub enum JobVerdict {
    /// The job ran (possibly degrading) and produced a resolution.
    Solved(IlpResolution, IlpStats),
}

/// The job graph of one analysis: every ILP to solve plus everything needed
/// to fold the verdicts back into an [`Estimate`].
///
/// Produced by [`Analyzer::plan`]. The plan is fully owned — it borrows
/// neither the analyzer nor the program — so plans from many programs can
/// be collected and their jobs batched through one solve pool.
///
/// [`AnalysisPlan::complete`] is a pure, order-independent fold: each
/// verdict contributes to the running max/min and `BoundQuality::combine`
/// is commutative and associative, so executors may finish jobs in any
/// order (work stealing, caching, replay) and the resulting `Estimate` is
/// the same at any worker count, bit for bit.
#[derive(Debug, Clone)]
pub struct AnalysisPlan {
    jobs: Vec<IlpJob>,
    /// The budget's degradation policy ([`AnalysisBudget::degrade`]),
    /// which the fold applies to exhausted and relaxed solves.
    degrade: bool,
    /// Cartesian-product set count before the cap and pruning (Table I).
    sets_total: usize,
    sets_pruned: usize,
    /// Set count before null pruning (for the all-infeasible error).
    sets_before_prune: usize,
    /// Surviving sets; `jobs.len() == 2 * num_sets`.
    num_sets: usize,
    /// `Partial` when the DNF cap dropped disjunctive statements.
    quality_floor: BoundQuality,
    /// The cover relaxations of every set, `[worst, best]`: the worst
    /// cover holds the structural, common functionality and cache-split
    /// rows, the best cover the structural and common rows. Each job's
    /// problem extends its sense's cover, so a cover bounds any set the
    /// budget forces the executor to skip.
    covers: [Problem; 2],
    /// Loop labels reported if a solve comes back unbounded.
    unbounded_loops: Vec<String>,
    /// Provenance of the loop bounds in force (copied from the
    /// annotations; empty unless the inference pass filled it in).
    loop_bounds: Vec<LoopProvenance>,
    /// The plan's variables: which are blocks, which instance owns each,
    /// and the labels the fold writes for the reported block counts.
    space: VarSpace,
    /// The worst-case objective in id order, affine in the cache
    /// penalties: a block's cold cost or the cache split's override, and
    /// zero for edges. The worst cover's objective is this evaluated at
    /// `machine`.
    worst: Vec<Cycles>,
    /// The analyzed machine, where the fold evaluates `worst`.
    machine: Machine,
    /// CFG flow structure for the auditor's independent flow replay, built
    /// from the CFG topology rather than the assembled constraint matrix.
    flow: FlowSpec,
}

impl AnalysisPlan {
    /// The ILP jobs, in canonical order (see [`IlpJob`]).
    pub fn jobs(&self) -> &[IlpJob] {
        &self.jobs
    }

    /// Number of surviving constraint sets (`jobs().len() / 2`).
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// The cover problem of `sense`: the structural and common
    /// functionality rows (plus the cache-split rows when maximizing) that
    /// every job of that sense starts with.
    pub fn cover(&self, sense: Sense) -> &Problem {
        match sense {
            Sense::Maximize => &self.covers[0],
            Sense::Minimize => &self.covers[1],
        }
    }

    /// Provenance rows for the loop bounds this plan enforces (empty
    /// unless the inference pass populated the annotations).
    pub fn loop_bounds(&self) -> &[LoopProvenance] {
        &self.loop_bounds
    }
}

/// The IPET analyzer for one program on one machine.
///
/// See the crate-level docs for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Analyzer<'p> {
    program: &'p Program,
    machine: Machine,
    instances: Instances,
    /// `costs[func][block]`, affine in the cache penalties.
    costs: Vec<Vec<BlockCost<Cycles>>>,
    cache_mode: CacheMode,
}

impl<'p> Analyzer<'p> {
    /// Builds the analyzer: expands call-site instances and computes the
    /// per-block cost bounds.
    ///
    /// # Errors
    ///
    /// Fails on recursion or instance-expansion overflow.
    pub fn new(program: &'p Program, machine: Machine) -> Result<Analyzer<'p>, AnalysisError> {
        Analyzer::new_with_context(program, machine, ContextMode::PerCallSite)
    }

    /// Builds the analyzer with an explicit [`ContextMode`].
    ///
    /// # Errors
    ///
    /// Fails on recursion or instance-expansion overflow.
    pub fn new_with_context(
        program: &'p Program,
        machine: Machine,
        context: ContextMode,
    ) -> Result<Analyzer<'p>, AnalysisError> {
        let instances = match context {
            ContextMode::PerCallSite => Instances::expand(program, program.entry)?,
            ContextMode::Shared => Instances::expand_shared(program, program.entry)?,
        };
        let costs = instances
            .cfgs
            .iter()
            .enumerate()
            .map(|(f, cfg)| {
                cfg.blocks()
                    .iter()
                    .map(|b| block_cycles(&machine, &program.functions[f], b))
                    .collect()
            })
            .collect();
        Ok(Analyzer { program, machine, instances, costs, cache_mode: CacheMode::AllMiss })
    }

    /// Selects the cache treatment for the worst-case objective.
    pub fn with_cache_mode(mut self, mode: CacheMode) -> Analyzer<'p> {
        self.cache_mode = mode;
        self
    }

    /// Does nothing: every job is solved cold on its composed problem.
    /// Kept, hidden, because the benchmark harness under `perfbench/`
    /// still calls it; it goes with that harness's next change.
    #[doc(hidden)]
    pub fn with_warm_start(self, _on: bool) -> Analyzer<'p> {
        self
    }

    /// The expanded instances (for figure rendering and diagnostics).
    pub fn instances(&self) -> &Instances {
        &self.instances
    }

    /// The machine model in use.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The program under analysis.
    pub fn program(&self) -> &Program {
        self.program
    }

    /// Cost bounds of one basic block.
    pub fn block_cost(&self, func: FuncId, block: BlockId) -> BlockCost {
        self.costs[func.0][block.0].at(&self.machine)
    }

    /// The loops the user must bound, as `(function, header block)` pairs —
    /// what cinderella asks for after constructing structural constraints.
    pub fn loops_needing_bounds(&self) -> Vec<(String, BlockId)> {
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        for i in 0..self.instances.len() {
            let cfg = self.instances.cfg(InstanceId(i));
            for l in cfg.loops() {
                if seen.insert((cfg.func, l.header)) {
                    out.push((cfg.func_name.clone(), l.header));
                }
            }
        }
        out
    }

    /// The paper's Experiment-1 "calculated bound": block counters from an
    /// instrumented run multiplied by the per-block cost bounds.
    ///
    /// `worst_counts` should come from the worst-case data set, and
    /// `best_counts` from the best-case data set.
    pub fn calculated_bound(
        &self,
        best_counts: &BTreeMap<(FuncId, BlockId), u64>,
        worst_counts: &BTreeMap<(FuncId, BlockId), u64>,
    ) -> TimeBound {
        let lower = best_counts.iter().map(|(&(f, b), &c)| c * self.block_cost(f, b).best).sum();
        let upper =
            worst_counts.iter().map(|(&(f, b), &c)| c * self.block_cost(f, b).worst_cold).sum();
        TimeBound { lower, upper }
    }

    /// Finite-difference sensitivity of the WCET to each loop bound: for
    /// every `loop` annotation, the increase in the estimated WCET if the
    /// loop ran one more iteration. Real-time engineers use this to find
    /// which bound to attack first; it also prices the cost of annotation
    /// slack.
    ///
    /// Returns `(function, statement index within that function's
    /// annotations, base hi, delta cycles)` per loop statement.
    ///
    /// # Errors
    ///
    /// See [`AnalysisError`].
    pub fn wcet_sensitivity(
        &self,
        annotations: &str,
    ) -> Result<Vec<(String, usize, i64, i64)>, AnalysisError> {
        let anns = parse_annotations(annotations)?;
        let mut out = Vec::new();
        self.loop_bound_deltas(&anns, |func, si, _, hi, delta| {
            out.push((func.to_string(), si, hi, delta as i64));
        })?;
        Ok(out)
    }

    /// First-order symbolic WCET model over the annotated loop bounds:
    /// one named [`ParamExpr`] term per `loop` annotation, under the
    /// canonical symbol `bound.<func>.x<H>`
    /// ([`LoopProvenance::bound_symbol`](crate::LoopProvenance::bound_symbol)
    /// naming), with the finite-difference sensitivity as its coefficient.
    /// Evaluating the form at the annotated bounds reproduces the concrete
    /// WCET exactly.
    ///
    /// Loop bounds enter the ILP as *constraint coefficients*, not
    /// objective terms, so — unlike the cache-penalty axis, where the
    /// objective is linear in the parameter — no convexity argument makes
    /// this model globally exact: away from the annotated point it is a
    /// local linearization, and it carries no chord-certified validity
    /// region (the deviation is documented in DESIGN.md §16).
    ///
    /// # Errors
    ///
    /// See [`AnalysisError`].
    pub fn wcet_loop_model(&self, annotations: &str) -> Result<ParamExpr, AnalysisError> {
        self.wcet_loop_model_parsed(&parse_annotations(annotations)?)
    }

    /// [`Analyzer::wcet_loop_model`] over already-parsed annotations.
    ///
    /// # Errors
    ///
    /// See [`AnalysisError`].
    pub fn wcet_loop_model_parsed(&self, anns: &Annotations) -> Result<ParamExpr, AnalysisError> {
        let mut model = ParamExpr::default();
        let base = self.loop_bound_deltas(anns, |func, _, header, hi, slope| {
            let symbol = format!("bound.{func}.x{}", header.index);
            // base + slope·(b − hi), rearranged into constant + slope·b.
            model = model.add(&ParamExpr::term(&symbol, slope)).add_const(-(slope * hi as i128));
        })?;
        Ok(model.add_const(base as i128))
    }

    /// The finite differences behind [`Analyzer::wcet_sensitivity`] and
    /// [`Analyzer::wcet_loop_model`]: calls `each(function, statement
    /// index, header, hi, delta)` for every `loop` statement, in file
    /// order, where `delta` is the WCET gained when its `hi` grows by one
    /// (the analysis run again with that one bound widened). Returns the
    /// base WCET.
    fn loop_bound_deltas(
        &self,
        anns: &Annotations,
        mut each: impl FnMut(&str, usize, &Ref, i64, i128),
    ) -> Result<u64, AnalysisError> {
        let base = self.analyze_parsed(anns)?.bound.upper;
        for (fi, (func, stmts)) in anns.functions.iter().enumerate() {
            for (si, stmt) in stmts.iter().enumerate() {
                let Stmt::Loop { header, hi, .. } = stmt else {
                    continue;
                };
                let mut widened = anns.clone();
                if let Stmt::Loop { hi: h, .. } = &mut widened.functions[fi].1[si] {
                    *h += 1;
                }
                let wider = self.analyze_parsed(&widened)?.bound.upper;
                each(func, si, header, *hi, wider as i128 - base as i128);
            }
        }
        Ok(base)
    }

    /// Runs the full analysis with annotation source text.
    ///
    /// # Errors
    ///
    /// See [`AnalysisError`].
    pub fn analyze(&self, annotations: &str) -> Result<Estimate, AnalysisError> {
        self.analyze_parsed(&parse_annotations(annotations)?)
    }

    /// Runs the full analysis with pre-parsed annotations: the plan on a
    /// one-worker [`SolvePool`], unbudgeted. Budgets, audits, faults and
    /// cancellation go through [`Analyzer::plan`] and [`SolvePool::run`].
    ///
    /// # Errors
    ///
    /// See [`AnalysisError`].
    pub fn analyze_parsed(&self, anns: &Annotations) -> Result<Estimate, AnalysisError> {
        let plan = self.plan(anns, &AnalysisBudget::default())?;
        let batch = SolvePool::new(1).run(std::slice::from_ref(&plan), &SolveRequest::default());
        let result = batch.results.into_iter().next().expect("one result per plan");
        result.map(|(estimate, _)| estimate)
    }
}
