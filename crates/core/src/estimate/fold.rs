//! The verdict fold: turning solved [`super::IlpJob`]s back into an
//! [`Estimate`], with optional exact-arithmetic certification.

use super::degrade::to_cycles;
use super::{AnalysisPlan, Estimate, JobVerdict, SetReport, TimeBound};
use crate::error::AnalysisError;
use crate::vars::VarRef;
use ipet_audit::{
    certify_witness, AuditReport, CertFailure, CertVerdict, ClaimKind, SetCertificate,
};
use ipet_hw::{ParamExpr, P_DMISS, P_MISS};
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

    /// Folds one job of `set` into `side`, its sense's running bound and
    /// witness. Returns `None` when the job exhausted its budget, so the
    /// set is covered whole; otherwise the set's bound in this sense
    /// (`None` when infeasible) and the job's certificate (meaningful only
    /// when `audit` is set). A relaxed bound is rounded outward and
    /// degrades `quality`.
    fn fold_job(
        &self,
        set: usize,
        res: &IlpResolution,
        side: &mut Side,
        audit: bool,
        quality: &mut BoundQuality,
    ) -> Result<Option<(Option<u64>, CertVerdict)>, AnalysisError> {
        let (value, cert) = match res {
            IlpResolution::Exact { x, value } => {
                let v = to_cycles(*value)?;
                let cert = if audit {
                    self.audit_exact(set, side.sense, x, v)
                } else {
                    CertVerdict::Covered
                };
                side.offer(v, x);
                (Some(v), cert)
            }
            IlpResolution::Relaxed { bound, incumbent } => {
                if !self.degrade {
                    return Err(AnalysisError::SolverLimit);
                }
                // The relaxation value safely covers this set's true
                // optimum; rounding outward keeps it safe in integer
                // cycles.
                let v = to_cycles(side.round_out(*bound))?;
                *quality = quality.combine(BoundQuality::Relaxed);
                let mut witnessed = None;
                let mut rejection = None;
                if let Some((x, _)) = incumbent {
                    // An incumbent is only a witness once it passes exact
                    // re-certification; infeasible incumbents are dropped,
                    // not reported.
                    match self.certify_incumbent(set, side.sense, x, v) {
                        Ok(w) => {
                            ipet_trace::counter("audit.incumbent.accepted", 1);
                            witnessed = Some(w);
                            side.offer(w, x);
                        }
                        Err(failure) => {
                            ipet_trace::counter("audit.incumbent.dropped", 1);
                            rejection = Some(failure);
                        }
                    }
                }
                let cert = match rejection {
                    Some(failure) => CertVerdict::Rejected(failure),
                    None => CertVerdict::CertifiedRelaxed { bound: v, witnessed },
                };
                (Some(v), cert)
            }
            IlpResolution::Infeasible => (None, CertVerdict::Infeasible),
            IlpResolution::Unbounded => return Err(self.unbounded(side.sense)),
            IlpResolution::Numerical => return Err(AnalysisError::Numerical),
            IlpResolution::Exhausted => {
                if !self.degrade {
                    return Err(AnalysisError::BudgetExhausted);
                }
                return Ok(None);
            }
        };
        if let Some(v) = value {
            side.widen(v);
        }
        Ok(Some((value, cert)))
    }

    /// The error of an unbounded solve of `sense`. Maximizing, a loop
    /// lacks a bound; minimizing a non-negative objective cannot be
    /// unbounded, so a solver verdict to the contrary is numerical
    /// breakdown.
    pub(super) fn unbounded(&self, sense: Sense) -> AnalysisError {
        match sense {
            Sense::Maximize => {
                AnalysisError::Unbounded { unbounded_loops: self.unbounded_loops.clone() }
            }
            Sense::Minimize => AnalysisError::Numerical,
        }
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
        let mut worst = Side::new(Sense::Maximize);
        let mut best = Side::new(Sense::Minimize);
        let mut certificates: Vec<SetCertificate> = Vec::new();

        for set in 0..self.num_sets {
            let JobVerdict::Solved(w_res, w_stats) = &verdicts[2 * set];
            let JobVerdict::Solved(b_res, b_stats) = &verdicts[2 * set + 1];
            let mut set_quality = BoundQuality::Exact;
            // The BCET side only counts when the WCET side was attempted:
            // a set whose WCET job exhausted is covered whole, and a
            // covered set has no certificate, even for an arm that solved.
            let folded = match self.fold_job(set, w_res, &mut worst, audit, &mut set_quality)? {
                Some(wcet) => self
                    .fold_job(set, b_res, &mut best, audit, &mut set_quality)?
                    .map(|bcet| (wcet, bcet)),
                None => None,
            };
            let Some(((wcet, wcet_cert), (bcet, bcet_cert))) = folded else {
                if audit {
                    certificates.push(SetCertificate {
                        set,
                        wcet: CertVerdict::Covered,
                        bcet: CertVerdict::Covered,
                    });
                }
                continue;
            };
            if audit {
                certificates.push(SetCertificate { set, wcet: wcet_cert, bcet: bcet_cert });
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
        }

        // Sets whose jobs exhausted their budget (or were quarantined) are
        // covered by the cover problems' LP relaxations (see `degrade.rs`).
        let solved = reports.len();
        let sets_skipped = self.num_sets - solved;
        if sets_skipped > 0 {
            quality = quality.combine(BoundQuality::Partial);
            self.cover_skipped_sets(&mut worst, &mut best)?;
        }
        if !degraded_sets.is_empty() {
            quality = quality.combine(BoundQuality::Relaxed);
        }

        let all_infeasible = AnalysisError::AllSetsInfeasible { total: self.sets_before_prune };
        let upper = worst.bound.ok_or_else(|| all_infeasible.clone())?;
        let lower = best.bound.ok_or(all_infeasible)?;
        let worst_x = worst.witness.map(|(_, x)| x).unwrap_or_default();
        let best_x = best.witness.map(|(_, x)| x).unwrap_or_default();

        // The one sanctioned f64→count conversion: witnesses that refuse to
        // round to integer counts are numerical garbage, not reportable.
        // Only the worst witness's counts are reported, but a best witness
        // that does not round fails the analysis all the same.
        let worst_rounded = round_witness(&worst_x).map_err(|_| AnalysisError::Numerical)?;
        round_witness(&best_x).map_err(|_| AnalysisError::Numerical)?;

        // The reported block counts: a label is written for each nonzero
        // block count, and for nothing else.
        let wcet_counts: BTreeMap<String, i64> = self
            .space
            .iter()
            .zip(&worst_rounded)
            .filter(|&((_, r), &v)| matches!(r, VarRef::Block(..)) && v != 0)
            .map(|((_, r), &v)| (self.space.label(r), v))
            .collect();

        // Attribute the WCET objective to instances: block variables carry
        // their worst-cold cost unless the cache split moved the cost onto
        // the cold/warm virtual variables.
        let labels = self.space.instance_labels();
        let mut per_instance = vec![0u64; labels.len()];
        for (((_, r), cost), &count) in self.space.iter().zip(&self.worst).zip(&worst_rounded) {
            per_instance[r.instance().0] += count as u64 * cost.at(&self.machine);
        }
        let mut contributions: BTreeMap<String, u64> = BTreeMap::new();
        for (label, &cycles) in labels.iter().zip(&per_instance) {
            if cycles != 0 {
                *contributions.entry(label.clone()).or_insert(0) += cycles;
            }
        }

        // The symbolic WCET formula: the worst witness's counts times the
        // worst-case objective coefficients, an exact linear form over the
        // named cache penalties. Reported only when the analysis is Exact
        // *and* the formula provably reproduces the concrete bound at the
        // machine's own parameter point — evaluating elsewhere is then a
        // certified-region question (`ipet_lp::parametric`, DESIGN.md §16),
        // never a guess here.
        let wcet_formula = if quality == BoundQuality::Exact {
            let (mut constant, mut lines, mut loads) = (0i128, 0i128, 0i128);
            for (cost, &count) in self.worst.iter().zip(&worst_rounded) {
                let count = i128::from(count);
                constant += count * i128::from(cost.constant);
                lines += count * i128::from(cost.lines);
                loads += count * i128::from(cost.loads);
            }
            let formula = ParamExpr::constant(constant)
                .add(&ParamExpr::term(P_MISS, lines))
                .add(&ParamExpr::term(P_DMISS, loads));
            // The replay check is a release-mode guard, not an assert: a
            // witness/bound mismatch here is reachable by design through
            // fault injection (`SolverFaults`), where the audit — not this
            // fold — is the layer that must flag it. The formula is simply
            // withheld.
            (formula.eval(&self.machine.param_point()) == Some(upper as i128)).then_some(formula)
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
                wcet_counts,
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

/// The running bound and best witnessed solution of one sense. Degraded
/// bounds have no witness vector, so the two are tracked separately.
pub(super) struct Side {
    pub(super) sense: Sense,
    bound: Option<u64>,
    witness: Option<(u64, Vec<f64>)>,
}

impl Side {
    fn new(sense: Sense) -> Side {
        Side { sense, bound: None, witness: None }
    }

    /// Rounds a relaxed bound outward to whole cycles: up when
    /// maximizing, down when minimizing.
    pub(super) fn round_out(&self, value: f64) -> f64 {
        match self.sense {
            Sense::Maximize => value.ceil(),
            Sense::Minimize => value.floor(),
        }
    }

    /// Widens the running bound to cover `v`.
    pub(super) fn widen(&mut self, v: u64) {
        self.bound = Some(match (self.bound, self.sense) {
            (None, _) => v,
            (Some(b), Sense::Maximize) => b.max(v),
            (Some(b), Sense::Minimize) => b.min(v),
        });
    }

    /// Keeps `x`, of objective `v`, as the witness when it beats the
    /// current one in this side's sense.
    fn offer(&mut self, v: u64, x: &[f64]) {
        let beats = match (&self.witness, self.sense) {
            (None, _) => true,
            (Some((b, _)), Sense::Maximize) => v > *b,
            (Some((b, _)), Sense::Minimize) => v < *b,
        };
        if beats {
            self.witness = Some((v, x.to_vec()));
        }
    }
}
