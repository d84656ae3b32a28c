//! Budget-exhaustion coverage: the common-constraint cover relaxation that
//! safely bounds constraint sets the executor never solved.

use super::fold::Side;
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
    /// Widens each side's bound in place.
    pub(super) fn cover_skipped_sets(
        &self,
        worst: &mut Side,
        best: &mut Side,
    ) -> Result<(), AnalysisError> {
        ipet_trace::counter("core.cover.solves", 2);
        self.cover_bound(worst)?;
        self.cover_bound(best)
    }

    /// Widens `side` by its sense's cover relaxation, rounded outward.
    fn cover_bound(&self, side: &mut Side) -> Result<(), AnalysisError> {
        match solve_lp_metered(
            self.cover(side.sense),
            &SolveBudget::unlimited(),
            &BudgetMeter::new(),
            &mut SolverFaults::none(),
        ) {
            LpOutcome::Optimal { value, .. } => side.widen(to_cycles(side.round_out(value))?),
            // An infeasible cover means every skipped set is infeasible
            // too; they contribute nothing to the bound.
            LpOutcome::Infeasible => {}
            LpOutcome::Unbounded => return Err(self.unbounded(side.sense)),
            LpOutcome::Numerical => return Err(AnalysisError::Numerical),
            LpOutcome::LimitReached => return Err(AnalysisError::BudgetExhausted),
        }
        Ok(())
    }
}
