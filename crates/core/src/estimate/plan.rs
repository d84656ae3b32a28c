//! Plan construction: DNF expansion, cache-split modelling, ILP assembly
//! and job keys.

use super::{AnalysisBudget, AnalysisPlan, Analyzer, CacheMode, IlpJob};
use crate::dsl::{Annotations, Stmt};
use crate::error::AnalysisError;
use crate::lincon::{set_is_null, LinCon};
use crate::structural::{flow_spec, structural_constraints};
use crate::vars::{VarRef, VarSpace};
use ipet_cfg::{BlockId, InstanceId, LoopInfo};
use ipet_hw::Cycles;
use ipet_lp::{fingerprint, BoundQuality, Constraint, Problem, Sense, VarId};
use std::collections::{BTreeMap, HashSet};

/// The first-iteration cache split of one plan (empty under
/// [`CacheMode::AllMiss`]): its rows, and the worst-case objective
/// coefficients it sets.
#[derive(Debug, Default)]
pub(super) struct Split {
    rows: Vec<LinCon>,
    /// The worst-case coefficient of each variable the split prices: a
    /// split variable's cold or warm cost, and zero for the block whose
    /// cost they carry.
    cost: Vec<(VarId, Cycles)>,
}

impl<'p> Analyzer<'p> {
    /// Builds the analysis **job graph**: resolves annotations, expands the
    /// DNF constraint sets, prunes null sets, orders the survivors
    /// canonically, and assembles one ILP per surviving set and sense —
    /// without solving anything.
    ///
    /// The returned [`AnalysisPlan`] owns everything (no borrow of the
    /// analyzer), exposes the jobs for any executor, and folds the verdicts
    /// back into an [`super::Estimate`] via [`AnalysisPlan::complete`].
    ///
    /// **Canonical set order:** surviving sets are stable-sorted by the
    /// rendered text of their constraints (each set's constraints in
    /// statement order, compared lexicographically). The order is therefore
    /// a pure function of the constraint content — independent of executor,
    /// thread count, and hash-map iteration — which is what makes reports
    /// and exit codes reproducible across `--jobs` values.
    ///
    /// **One problem per job:** the rows shared by every set (structural
    /// flow, non-disjunctive functionality statements and, when
    /// maximizing, the cache-split rows) form one cover problem per sense;
    /// each job's problem is its sense's cover followed by the set's
    /// disjunct rows. Disjunct rows that duplicate a cover row, or repeat
    /// within the set, are dropped before assembly (counted under
    /// `core.sets.dedup_rows`) — a duplicated row changes nothing about
    /// the feasible region but would key equal sets apart. Each job's key
    /// is `fingerprint(&problem)`, hashed here once (span
    /// `core.plan.hash`), so the pool and a replay from a cached plan hash
    /// nothing.
    ///
    /// # Errors
    ///
    /// See [`AnalysisError`] for the planning-time failures (unknown
    /// functions, bad references, DNF blow-up with degradation disabled,
    /// all sets null).
    pub fn plan(
        &self,
        anns: &Annotations,
        budget: &AnalysisBudget,
    ) -> Result<AnalysisPlan, AnalysisError> {
        let _span = ipet_trace::span("core.plan");
        ipet_trace::counter("core.plan.calls", 1);
        // Validate function names early.
        for (name, _) in &anns.functions {
            if self.program().function_by_name(name).is_none() {
                return Err(AnalysisError::UnknownFunction(name.clone()));
            }
        }

        let mut space = VarSpace::new(&self.instances);

        // Cartesian product across statements = the paper's "set of
        // constraint sets" ("the size of the constraint sets is doubled
        // every time a functionality constraint with | is added"), counted
        // from the parsed trees before anything is expanded. A statement
        // counts once per instance of its function.
        let sets_total = (0..self.instances.len())
            .flat_map(|i| anns.for_function(&self.instances.cfg(InstanceId(i)).func_name))
            .fold(1usize, |total, stmt| match stmt {
                Stmt::Loop { .. } => total,
                Stmt::Cons(or) => total.saturating_mul(or.set_count()),
            });
        // DNF blow-up past the cap: drop the disjunctive statements and
        // keep only the conjunctive ones. Every real constraint set implies
        // the kept rows, so the single surviving set is a relaxation of all
        // of them — safe for both WCET (feasible region grows, max grows)
        // and BCET (min shrinks).
        let over_cap = sets_total > budget.max_sets;

        // Resolve annotations per instance into statement-level
        // disjunctions. Each entry is a non-empty list of alternative
        // conjunctive constraint lists. A dropped statement is still
        // resolved atom by atom, so a bad reference stays an error.
        let mut statements: Vec<Vec<Vec<Keyed>>> = Vec::new();
        let mut bounded_headers: HashSet<(InstanceId, BlockId)> = HashSet::new();

        for i in 0..self.instances.len() {
            let inst = InstanceId(i);
            let func_name = self.instances.cfg(inst).func_name.clone();
            for stmt in anns.for_function(&func_name) {
                match stmt {
                    Stmt::Loop { header, lo, hi } => {
                        let cons =
                            self.resolve_loop(inst, header, *lo, *hi, &mut bounded_headers)?;
                        statements.push(vec![keyed(cons)]);
                    }
                    Stmt::Cons(or) if over_cap && or.set_count() > 1 => {
                        for (lhs, rel, rhs) in or.atoms() {
                            self.resolve_rel(inst, lhs, rel, rhs)?;
                        }
                    }
                    Stmt::Cons(or) => {
                        let mut alts = Vec::new();
                        for conj in or.to_dnf() {
                            let mut set = Vec::new();
                            for (lhs, rel, rhs) in conj {
                                set.push(self.resolve_rel(inst, &lhs, rel, &rhs)?);
                            }
                            alts.push(keyed(set));
                        }
                        statements.push(alts);
                    }
                }
            }
        }

        let mut quality_floor = BoundQuality::Exact;
        if over_cap {
            if !budget.degrade {
                return Err(AnalysisError::TooManySets { sets: sets_total, cap: budget.max_sets });
            }
            quality_floor = BoundQuality::Partial;
        }

        // Expand the product twice over: the merged rows (for null pruning
        // and the canonical sort key, in statement order) and the disjunct
        // rows (disjunctive statements only — what the set adds on top of
        // the cover).
        let mut expanded: Vec<(Vec<&Keyed>, Vec<&Keyed>)> = vec![(Vec::new(), Vec::new())];
        for alts in &statements {
            let disjunctive = alts.len() > 1;
            let mut next = Vec::with_capacity(expanded.len() * alts.len());
            for (merged, delta) in &expanded {
                for alt in alts {
                    let mut m = merged.clone();
                    m.extend(alt);
                    let mut d = delta.clone();
                    if disjunctive {
                        d.extend(alt);
                    }
                    next.push((m, d));
                }
            }
            expanded = next;
        }

        // Null-set pruning, on the full merged rows (disjunct rows can only
        // be null together with the common rows they combine with).
        let before = expanded.len();
        expanded.retain(|(m, _)| !set_is_null(m.iter().map(|r| &r.con)));
        let sets_pruned = before - expanded.len();
        if expanded.is_empty() {
            return Err(AnalysisError::AllSetsInfeasible { total: before });
        }

        // Canonical deterministic set order: stable-sort the survivors by
        // their rendered constraint text. `LinCon`'s display normalizes
        // terms (merged, zero-dropped, sorted by variable), so the key is a
        // pure function of constraint content and the resulting job order
        // is reproducible across executors and `--jobs` values.
        let mut sorted: Vec<(Vec<&str>, Vec<&Keyed>)> = expanded
            .into_iter()
            .map(|(m, d)| (m.iter().map(|r| r.key.as_str()).collect(), d))
            .collect();
        sorted.sort_by(|a, b| a.0.cmp(&b.0));

        // Shared structural rows and (for the worst case) split rows.
        let structural = structural_constraints(&self.instances);
        let split = self.build_split(&mut space);
        let worst = self.objective(&space, Sense::Maximize, &split);

        // Constraints common to *every* set (the non-disjunctive
        // statements): together with the structural and split rows they
        // form the covers.
        let common_rows = || statements.iter().filter(|s| s.len() == 1).flat_map(|s| &s[0]);
        let common: Vec<LinCon> = common_rows().map(|r| r.con.clone()).collect();

        // Dedup disjunct rows against the common rows and within each set.
        // Rendered text is the identity: `LinCon`'s display is injective on
        // normalized content, so equal text means a mathematically
        // identical row.
        let common_keys: HashSet<&str> = common_rows().map(|r| r.key.as_str()).collect();
        let mut dedup_rows = 0u64;
        let disjuncts: Vec<Vec<&LinCon>> = sorted
            .into_iter()
            .map(|(_, d)| {
                let mut seen: HashSet<&str> = HashSet::new();
                let mut kept = Vec::with_capacity(d.len());
                for r in d {
                    if common_keys.contains(r.key.as_str()) || !seen.insert(&r.key) {
                        dedup_rows += 1;
                    } else {
                        kept.push(&r.con);
                    }
                }
                kept
            })
            .collect();

        // The two covers. Row order: structural, common functionality,
        // then (worst case only) the split rows.
        let best = self.objective(&space, Sense::Minimize, &split);
        let covers = [
            self.assemble(&space, Sense::Maximize, &worst, &[&structural, &common, &split.rows])?,
            self.assemble(&space, Sense::Minimize, &best, &[&structural, &common])?,
        ];
        let mut problems = Vec::with_capacity(disjuncts.len() * 2);
        for rows in &disjuncts {
            let rows: Vec<Constraint> = rows.iter().map(|c| lincon_row(&space, c)).collect();
            for cover in &covers {
                let mut problem = cover.clone();
                problem.constraints.extend_from_slice(&rows);
                problems.push(problem);
            }
        }
        // The job fingerprints: each job's cache key.
        let jobs: Vec<IlpJob> = {
            let _span = ipet_trace::span("core.plan.hash");
            problems
                .into_iter()
                .map(|problem| IlpJob { key: fingerprint(&problem), problem })
                .collect()
        };

        ipet_trace::counter("core.sets.expanded", sets_total as u64);
        ipet_trace::counter("core.sets.pruned", sets_pruned as u64);
        ipet_trace::counter("core.sets.dedup_rows", dedup_rows);
        ipet_trace::counter("core.jobs.emitted", jobs.len() as u64);
        // Row-shape telemetry: the worst cover's rows and the disjunct rows
        // all sets add to it. Pure functions of the plan, so the values are
        // identical at any job count.
        ipet_trace::counter("core.plan.base_rows", covers[0].constraints.len() as u64);
        ipet_trace::counter(
            "core.plan.delta_rows",
            disjuncts.iter().map(|d| d.len() as u64).sum::<u64>(),
        );
        ipet_trace::gauge_max("core.sets.peak", sets_total as u64);
        Ok(AnalysisPlan {
            num_sets: disjuncts.len(),
            jobs,
            degrade: budget.degrade,
            sets_total,
            sets_pruned,
            sets_before_prune: before,
            quality_floor,
            covers,
            unbounded_loops: self.unbounded_loop_labels(&bounded_headers),
            loop_bounds: anns.provenance.clone(),
            flow: flow_spec(&self.instances, &space),
            space,
            worst,
            machine: *self.machine(),
        })
    }

    // -- ILP assembly --------------------------------------------------------

    /// Builds the split rows and split objective coefficients for
    /// [`CacheMode::FirstIterSplit`] (empty under [`CacheMode::AllMiss`]),
    /// interning the split variables into `space`.
    ///
    /// Loop blocks are visited in instance then [`BlockId`] order, so the
    /// split variables' ids and the rows — and with them every job key —
    /// are the same on every run.
    pub(super) fn build_split(&self, space: &mut VarSpace) -> Split {
        if self.cache_mode != CacheMode::FirstIterSplit {
            return Split::default();
        }
        let mut rows = Vec::new();
        let mut cost = Vec::new();
        for i in 0..self.instances.len() {
            let inst = InstanceId(i);
            let cfg = self.instances.cfg(inst);
            let func = cfg.func;
            // Innermost qualifying loop per block.
            let mut chosen: BTreeMap<BlockId, &LoopInfo> = BTreeMap::new();
            for l in cfg.loops() {
                if !self.loop_qualifies(func, l) {
                    continue;
                }
                for &b in &l.body {
                    match chosen.get(&b) {
                        Some(prev) if prev.body.len() <= l.body.len() => {}
                        _ => {
                            chosen.insert(b, l);
                        }
                    }
                }
            }
            for (&b, l) in &chosen {
                let block = self.costs[func.0][b.0];
                if block.worst_cold.at(self.machine()) == block.worst_warm.at(self.machine()) {
                    continue; // nothing to gain
                }
                let cold = VarRef::SplitCold(inst, b);
                let warm = VarRef::SplitWarm(inst, b);
                let x = VarRef::Block(inst, b);
                rows.push(LinCon::eq(vec![(cold, 1), (warm, 1), (x, -1)], 0));
                let mut cap = vec![(cold, 1)];
                for e in &l.entry_edges {
                    cap.push((VarRef::Edge(inst, *e), -1));
                }
                rows.push(LinCon::le(cap, 0));
                cost.push((space.intern(cold), block.worst_cold));
                cost.push((space.intern(warm), block.worst_warm));
                cost.push((space.intern(x), Cycles::default()));
            }
        }
        Split { rows, cost }
    }

    /// The objective of `sense` over `space` in id order, affine in the
    /// cache penalties: each block's cold cost when maximizing, overridden
    /// where `split` prices a variable, or its best cost when minimizing;
    /// zero for edges.
    pub(super) fn objective(&self, space: &VarSpace, sense: Sense, split: &Split) -> Vec<Cycles> {
        let mut costs: Vec<Cycles> = space
            .iter()
            .map(|(_, r)| match r {
                VarRef::Block(inst, blk) => {
                    let cost = &self.costs[self.instances.cfg(inst).func.0][blk.0];
                    match sense {
                        Sense::Maximize => cost.worst_cold,
                        Sense::Minimize => cost.best,
                    }
                }
                _ => Cycles::default(),
            })
            .collect();
        if sense == Sense::Maximize {
            for &(id, c) in &split.cost {
                costs[id.0] = c;
            }
        }
        costs
    }

    /// A loop qualifies for warm-iteration costing when its body contains
    /// no calls and its instruction range self-evidently fits the i-cache
    /// without conflicts.
    fn loop_qualifies(&self, func: ipet_arch::FuncId, l: &LoopInfo) -> bool {
        let cfg = &self.instances.cfgs[func.0];
        let function = &self.program().functions[func.0];
        if l.body.iter().any(|&b| cfg.blocks()[b.0].call.is_some()) {
            return false;
        }
        let start =
            l.body.iter().map(|&b| function.instr_addr(cfg.blocks()[b.0].start)).min().unwrap_or(0);
        let end = l
            .body
            .iter()
            .map(|&b| function.instr_addr(cfg.blocks()[b.0].end - 1) + ipet_arch::INSTR_BYTES)
            .max()
            .unwrap_or(0);
        self.machine().icache.range_is_conflict_free(start, end)
    }

    /// Assembles one problem of `sense` over `space`: `objective` (see
    /// [`Analyzer::objective`]) evaluated at the machine, and the rows of
    /// each group in order.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::Overflow`] for a cost past `i64`.
    pub(super) fn assemble(
        &self,
        space: &VarSpace,
        sense: Sense,
        objective: &[Cycles],
        rows: &[&[LinCon]],
    ) -> Result<Problem, AnalysisError> {
        let objective = objective
            .iter()
            .zip(space.iter())
            .map(|(c, (_, var))| {
                let cycles = c.at(self.machine());
                i64::try_from(cycles)
                    .map_err(|_| AnalysisError::Overflow(format!("the cost of {var}, {cycles}")))
            })
            .collect::<Result<_, _>>()?;
        let constraints =
            rows.iter().flat_map(|group| group.iter()).map(|c| lincon_row(space, c)).collect();
        Ok(Problem { sense, objective, constraints, integer: vec![true; space.len()] })
    }
}

/// A resolved constraint and its canonical text (`LinCon`'s display),
/// rendered once per plan: the set sort keys and the disjunct dedup
/// borrow it.
struct Keyed {
    con: LinCon,
    key: String,
}

fn keyed(cons: Vec<LinCon>) -> Vec<Keyed> {
    cons.into_iter().map(|con| Keyed { key: con.to_string(), con }).collect()
}

/// Converts a resolved [`LinCon`] into a solver row over the space's
/// variable ids (`VarSpace` id order is the assembled problem's variable
/// order).
fn lincon_row(space: &VarSpace, c: &LinCon) -> Constraint {
    Constraint {
        terms: c
            .terms
            .iter()
            .map(|&(r, coef)| {
                let id = space.id(r).expect("constraint variable interned");
                (VarId(id.0), coef)
            })
            .collect(),
        relation: c.relation,
        rhs: c.rhs,
    }
}
