//! Budget-exhaustion coverage: the common-constraint cover relaxation that
//! safely bounds constraint sets the executor never solved.

use super::AnalysisPlan;
use crate::error::AnalysisError;
use ipet_lp::{solve_lp_metered, BudgetMeter, LpOutcome, SolveBudget, SolverFaults};

/// The one sanctioned f64→cycles conversion for *bounds* (witnesses go
/// through `round_witness` instead): non-finite values are numerical
/// breakdown, negatives clamp to zero.
pub(super) fn to_cycles(value: f64) -> Result<u64, AnalysisError> {
    if !value.is_finite() {
        return Err(AnalysisError::Numerical);
    }
    Ok(value.round().max(0.0) as u64)
}

impl AnalysisPlan {
    /// Covers skipped sets with the cover problems' LP relaxations: a
    /// cover's feasible region contains every composed set's, so its
    /// max/min bound whatever the skipped sets could attain. One LP per
    /// sense, on a fresh meter and with no deadline: the budget that
    /// skipped the sets is spent, and the simplex kernel's switch to
    /// Bland's rule after a stall terminates.
    ///
    /// Widens `worst_bound` / `best_bound` in place.
    pub(super) fn cover_skipped_sets(
        &self,
        worst_bound: &mut Option<u64>,
        best_bound: &mut Option<u64>,
    ) -> Result<(), AnalysisError> {
        ipet_trace::counter("core.cover.solves", 2);
        match solve_lp_metered(
            &self.covers[0],
            &SolveBudget::unlimited(),
            &BudgetMeter::new(),
            &mut SolverFaults::none(),
        ) {
            LpOutcome::Optimal { value, .. } => {
                // The relaxed maximum safely over-covers every skipped
                // set; ceil keeps it safe in integer cycles.
                let v = to_cycles(value.ceil())?;
                *worst_bound = Some(worst_bound.map_or(v, |b| b.max(v)));
            }
            // An infeasible cover means every skipped set is infeasible
            // too; they contribute nothing to the bound.
            LpOutcome::Infeasible => {}
            LpOutcome::Unbounded => {
                return Err(AnalysisError::Unbounded {
                    unbounded_loops: self.unbounded_loops.clone(),
                })
            }
            LpOutcome::Numerical => return Err(AnalysisError::Numerical),
            LpOutcome::LimitReached => return Err(AnalysisError::BudgetExhausted),
        }
        match solve_lp_metered(
            &self.covers[1],
            &SolveBudget::unlimited(),
            &BudgetMeter::new(),
            &mut SolverFaults::none(),
        ) {
            LpOutcome::Optimal { value, .. } => {
                let v = to_cycles(value.floor())?;
                *best_bound = Some(best_bound.map_or(v, |b| b.min(v)));
            }
            LpOutcome::Infeasible => {}
            LpOutcome::Unbounded | LpOutcome::Numerical => return Err(AnalysisError::Numerical),
            LpOutcome::LimitReached => return Err(AnalysisError::BudgetExhausted),
        }
        Ok(())
    }
}
