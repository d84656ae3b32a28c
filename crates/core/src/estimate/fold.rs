//! The verdict fold: turning solved [`super::IlpJob`]s back into an
//! [`Estimate`], with optional exact-arithmetic certification.

use super::degrade::to_cycles;
use super::{AnalysisPlan, Estimate, JobVerdict, SetReport, TimeBound};
use crate::error::AnalysisError;
use ipet_audit::{
    certify_witness, AuditReport, CertFailure, CertVerdict, ClaimKind, SetCertificate,
};
use ipet_hw::ParamExpr;
use ipet_lp::{round_witness, BoundQuality, IlpResolution, Problem, Sense};
use std::collections::BTreeMap;

impl AnalysisPlan {
    /// Folds job verdicts into the final [`Estimate`].
    ///
    /// `verdicts[i]` answers `jobs()[i]`, one verdict per job. Sets with
    /// an exhausted job are covered by the common-constraint LP relaxation
    /// and degrade the overall quality to `Partial`.
    ///
    /// # Errors
    ///
    /// See [`AnalysisError`] (unbounded loops, numerical breakdown, budget
    /// exhaustion with degradation disabled), reported in canonical job
    /// order regardless of the order the executor finished them in.
    ///
    /// # Panics
    ///
    /// Panics unless there is exactly one verdict per job.
    pub fn complete(&self, verdicts: &[JobVerdict]) -> Result<Estimate, AnalysisError> {
        self.fold(verdicts, false).map(|(estimate, _)| estimate)
    }

    /// Like [`complete`](AnalysisPlan::complete), but additionally runs the
    /// `ipet-audit` certifier over every verdict and returns the per-set
    /// certificate report alongside the estimate.
    ///
    /// The estimate is **bit-identical** to the unaudited one: certification
    /// only observes, it never changes a bound. A rejected certificate is
    /// reported through [`AuditReport::all_certified`]; callers decide what
    /// a rejection means (the CLI exits with a distinct code).
    pub fn complete_audited(
        &self,
        verdicts: &[JobVerdict],
    ) -> Result<(Estimate, AuditReport), AnalysisError> {
        self.fold(verdicts, true)
    }

    /// The ILP a given set/sense verdict answered, for re-certification:
    /// the job's whole problem, cover rows and disjunct rows alike.
    fn job_problem(&self, set: usize, sense: Sense) -> &Problem {
        &self.jobs[2 * set + (sense == Sense::Minimize) as usize].problem
    }

    /// Certifies an `Exact` resolution: rounded witness feasibility, exact
    /// objective equality with the claimed bound, and CFG flow replay.
    fn audit_exact(&self, set: usize, sense: Sense, x: &[f64], claimed: u64) -> CertVerdict {
        match certify_witness(self.job_problem(set, sense), x, claimed as i64, ClaimKind::Equal) {
            Err(failure) => CertVerdict::Rejected(failure),
            Ok(cert) => match self.flow.check(&cert.counts) {
                Err(failure) => CertVerdict::Rejected(failure),
                Ok(()) => CertVerdict::Certified { value: claimed },
            },
        }
    }

    /// Certifies a `Relaxed` incumbent against its set's problem and the
    /// claimed outer bound (in integer cycles); returns the exactly
    /// witnessed objective on success.
    ///
    /// This runs on *every* incumbent, audited or not: an incumbent that
    /// fails exact feasibility or flow replay is dropped instead of being
    /// folded into the reported witness counts.
    fn certify_incumbent(
        &self,
        set: usize,
        sense: Sense,
        x: &[f64],
        bound_cycles: u64,
    ) -> Result<u64, CertFailure> {
        let kind = match sense {
            Sense::Maximize => ClaimKind::CoversFromAbove,
            Sense::Minimize => ClaimKind::CoversFromBelow,
        };
        let cert = certify_witness(self.job_problem(set, sense), x, bound_cycles as i64, kind)?;
        self.flow.check(&cert.counts)?;
        Ok(cert.objective.max(0) as u64)
    }

    /// [`complete`](AnalysisPlan::complete), plus the certificate report
    /// when `audit` is set (an empty one otherwise).
    pub(crate) fn fold(
        &self,
        verdicts: &[JobVerdict],
        audit: bool,
    ) -> Result<(Estimate, AuditReport), AnalysisError> {
        assert_eq!(verdicts.len(), self.jobs.len(), "one verdict per job");
        let mut quality = self.quality_floor;
        let mut reports: Vec<SetReport> = Vec::new();
        let mut degraded_sets: Vec<usize> = Vec::new();
        // Degraded bounds have no witness vector, so the running bound and
        // the best *witnessed* solution (for counts/contributions) are
        // tracked separately.
        let mut worst_bound: Option<u64> = None;
        let mut worst_witness: Option<(u64, Vec<f64>)> = None;
        let mut best_bound: Option<u64> = None;
        let mut best_witness: Option<(u64, Vec<f64>)> = None;
        let mut solved = 0usize;

        let mut certificates: Vec<SetCertificate> = Vec::new();

        for set in 0..self.num_sets {
            let JobVerdict::Solved(w_res, w_stats) = &verdicts[2 * set];
            let JobVerdict::Solved(b_res, b_stats) = &verdicts[2 * set + 1];
            let mut set_quality = BoundQuality::Exact;
            let mut set_skipped = false;
            // Covered = exhausted/quarantined, replaced per arm below.
            let mut wcet_cert = CertVerdict::Covered;
            let mut bcet_cert = CertVerdict::Covered;

            let wcet = match w_res {
                IlpResolution::Exact { x, value } => {
                    let v = to_cycles(*value)?;
                    if audit {
                        wcet_cert = self.audit_exact(set, Sense::Maximize, x, v);
                    }
                    if worst_witness.as_ref().map(|(b, _)| v > *b).unwrap_or(true) {
                        worst_witness = Some((v, x.clone()));
                    }
                    Some(v)
                }
                IlpResolution::Relaxed { bound, incumbent } => {
                    if !self.degrade {
                        return Err(AnalysisError::SolverLimit);
                    }
                    // The relaxation value safely over-covers this set's
                    // true maximum; ceil keeps it safe in integer cycles.
                    let v = to_cycles(bound.ceil())?;
                    set_quality = set_quality.combine(BoundQuality::Relaxed);
                    let mut witnessed = None;
                    let mut rejection = None;
                    if let Some((x, _)) = incumbent {
                        // An incumbent is only a witness once it passes
                        // exact re-certification; infeasible incumbents are
                        // dropped, not reported.
                        match self.certify_incumbent(set, Sense::Maximize, x, v) {
                            Ok(w) => {
                                ipet_trace::counter("audit.incumbent.accepted", 1);
                                witnessed = Some(w);
                                if worst_witness.as_ref().map(|(b, _)| w > *b).unwrap_or(true) {
                                    worst_witness = Some((w, x.clone()));
                                }
                            }
                            Err(failure) => {
                                ipet_trace::counter("audit.incumbent.dropped", 1);
                                rejection = Some(failure);
                            }
                        }
                    }
                    if audit {
                        wcet_cert = match rejection {
                            Some(failure) => CertVerdict::Rejected(failure),
                            None => CertVerdict::CertifiedRelaxed { bound: v, witnessed },
                        };
                    }
                    Some(v)
                }
                IlpResolution::Infeasible => {
                    wcet_cert = CertVerdict::Infeasible;
                    None
                }
                IlpResolution::Unbounded => {
                    return Err(AnalysisError::Unbounded {
                        unbounded_loops: self.unbounded_loops.clone(),
                    })
                }
                IlpResolution::Numerical => return Err(AnalysisError::Numerical),
                IlpResolution::Exhausted => {
                    if !self.degrade {
                        return Err(AnalysisError::BudgetExhausted);
                    }
                    set_skipped = true;
                    None
                }
            };
            if let Some(v) = wcet {
                worst_bound = Some(worst_bound.map_or(v, |b| b.max(v)));
            }

            // The BCET side only counts when the WCET side was attempted:
            // a set whose WCET job exhausted is covered whole.
            let bcet = match b_res {
                _ if set_skipped => None,
                IlpResolution::Exact { x, value } => {
                    let v = to_cycles(*value)?;
                    if audit {
                        bcet_cert = self.audit_exact(set, Sense::Minimize, x, v);
                    }
                    if best_witness.as_ref().map(|(b, _)| v < *b).unwrap_or(true) {
                        best_witness = Some((v, x.clone()));
                    }
                    Some(v)
                }
                IlpResolution::Relaxed { bound, incumbent } => {
                    if !self.degrade {
                        return Err(AnalysisError::SolverLimit);
                    }
                    // The relaxation value safely under-covers this set's
                    // true minimum; floor keeps it safe in integer cycles.
                    let v = to_cycles(bound.floor())?;
                    set_quality = set_quality.combine(BoundQuality::Relaxed);
                    let mut witnessed = None;
                    let mut rejection = None;
                    if let Some((x, _)) = incumbent {
                        match self.certify_incumbent(set, Sense::Minimize, x, v) {
                            Ok(w) => {
                                ipet_trace::counter("audit.incumbent.accepted", 1);
                                witnessed = Some(w);
                                if best_witness.as_ref().map(|(b, _)| w < *b).unwrap_or(true) {
                                    best_witness = Some((w, x.clone()));
                                }
                            }
                            Err(failure) => {
                                ipet_trace::counter("audit.incumbent.dropped", 1);
                                rejection = Some(failure);
                            }
                        }
                    }
                    if audit {
                        bcet_cert = match rejection {
                            Some(failure) => CertVerdict::Rejected(failure),
                            None => CertVerdict::CertifiedRelaxed { bound: v, witnessed },
                        };
                    }
                    Some(v)
                }
                IlpResolution::Infeasible => {
                    bcet_cert = CertVerdict::Infeasible;
                    None
                }
                // Minimizing a non-negative objective cannot be unbounded;
                // a solver verdict to the contrary is numerical breakdown.
                IlpResolution::Unbounded | IlpResolution::Numerical => {
                    return Err(AnalysisError::Numerical)
                }
                IlpResolution::Exhausted => {
                    if !self.degrade {
                        return Err(AnalysisError::BudgetExhausted);
                    }
                    set_skipped = true;
                    None
                }
            };
            if let Some(v) = bcet {
                best_bound = Some(best_bound.map_or(v, |b| b.min(v)));
            }

            if audit {
                // A set covered by the common-constraint relaxation has no
                // certificate at all — even for an arm that solved first.
                if set_skipped {
                    wcet_cert = CertVerdict::Covered;
                    bcet_cert = CertVerdict::Covered;
                }
                certificates.push(SetCertificate { set, wcet: wcet_cert, bcet: bcet_cert });
            }

            if set_skipped {
                continue;
            }
            if set_quality != BoundQuality::Exact {
                degraded_sets.push(reports.len());
            }
            reports.push(SetReport {
                index: set,
                wcet,
                bcet,
                wcet_stats: *w_stats,
                bcet_stats: *b_stats,
                quality: set_quality,
            });
            solved += 1;
        }

        // Sets whose jobs exhausted their budget (or were quarantined) are
        // covered by the cover problems' LP relaxations (see `degrade.rs`).
        let sets_skipped = self.num_sets - solved;
        if sets_skipped > 0 {
            quality = quality.combine(BoundQuality::Partial);
            self.cover_skipped_sets(&mut worst_bound, &mut best_bound)?;
        }
        if !degraded_sets.is_empty() {
            quality = quality.combine(BoundQuality::Relaxed);
        }

        let upper = worst_bound
            .ok_or(AnalysisError::AllSetsInfeasible { total: self.sets_before_prune })?;
        let lower =
            best_bound.ok_or(AnalysisError::AllSetsInfeasible { total: self.sets_before_prune })?;
        let worst_x = worst_witness.map(|(_, x)| x).unwrap_or_default();
        let best_x = best_witness.map(|(_, x)| x).unwrap_or_default();

        // The one sanctioned f64→count conversion: witnesses that refuse to
        // round to integer counts are numerical garbage, not reportable.
        let worst_rounded = round_witness(&worst_x).map_err(|_| AnalysisError::Numerical)?;
        let best_rounded = round_witness(&best_x).map_err(|_| AnalysisError::Numerical)?;

        let counts = |xr: &[i64]| -> BTreeMap<String, i64> {
            let mut out = BTreeMap::new();
            for (id, m) in self.vars.iter().enumerate() {
                if m.is_block {
                    let v = xr.get(id).copied().unwrap_or(0);
                    if v != 0 {
                        out.insert(self.names[id].clone(), v);
                    }
                }
            }
            out
        };

        // Attribute the WCET objective to instances: block variables carry
        // their worst-cold cost unless the cache split moved the cost onto
        // the cold/warm virtual variables.
        let mut per_instance = vec![0u64; self.instance_labels.len()];
        for (id, m) in self.vars.iter().enumerate() {
            let value = worst_rounded.get(id).copied().unwrap_or(0) as u64;
            per_instance[m.instance.0] += value * m.contrib_cost;
        }
        let mut contributions: BTreeMap<String, u64> = BTreeMap::new();
        for (label, &cycles) in self.instance_labels.iter().zip(&per_instance) {
            if cycles != 0 {
                *contributions.entry(label.clone()).or_insert(0) += cycles;
            }
        }

        // The symbolic WCET formula: the worst witness's counts times the
        // parametric objective coefficients, an exact linear form over the
        // named cache penalties. Reported only when the analysis is Exact
        // *and* the formula provably reproduces the concrete bound at the
        // machine's own parameter point — evaluating elsewhere is then a
        // certified-region question (`ipet_lp::parametric`, DESIGN.md §16),
        // never a guess here.
        let wcet_formula = if quality == BoundQuality::Exact {
            let mut formula = ParamExpr::default();
            for (id, m) in self.vars.iter().enumerate() {
                let count = worst_rounded.get(id).copied().unwrap_or(0);
                if count != 0 {
                    formula = formula.add(&m.param_cost.scale(count as i128));
                }
            }
            // The replay check is a release-mode guard, not an assert: a
            // witness/bound mismatch here is reachable by design through
            // fault injection (`SolverFaults`), where the audit — not this
            // fold — is the layer that must flag it. The formula is simply
            // withheld.
            (formula.eval(&self.param_point) == Some(upper as i128)).then_some(formula)
        } else {
            None
        };

        let report = AuditReport { sets: certificates };
        if audit {
            ipet_trace::counter("audit.runs", 1);
            ipet_trace::counter("audit.certified", report.certified() as u64);
            ipet_trace::counter("audit.rejected", report.rejected() as u64);
        }

        ipet_trace::counter("core.complete.calls", 1);
        ipet_trace::counter("core.sets.solved", solved as u64);
        ipet_trace::counter("core.sets.skipped", sets_skipped as u64);
        ipet_trace::counter("core.sets.degraded", degraded_sets.len() as u64);
        Ok((
            Estimate {
                bound: TimeBound { lower, upper },
                sets_total: self.sets_total,
                sets_pruned: self.sets_pruned,
                sets: reports,
                wcet_counts: counts(&worst_rounded),
                bcet_counts: counts(&best_rounded),
                wcet_contributions: contributions,
                quality,
                sets_skipped,
                degraded_sets,
                loop_bounds: self.loop_bounds.clone(),
                wcet_formula,
            },
            report,
        ))
    }
}
