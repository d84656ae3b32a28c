//! Analysis errors.

use ipet_cfg::CallGraphError;
use std::fmt;

/// Errors reported by the IPET analyzer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalysisError {
    /// The program violates an IPET restriction (recursion, expansion cap).
    CallGraph(CallGraphError),
    /// The annotation text failed to parse: `(line, message)`.
    Parse { line: usize, message: String },
    /// An annotation names a function that does not exist.
    UnknownFunction(String),
    /// An annotation references a block/edge/site out of range.
    BadReference { func: String, reference: String, reason: String },
    /// A `loop` annotation names a block that is not a loop header.
    NotALoopHeader { func: String, block: String },
    /// A loop bound interval is empty or negative.
    BadLoopBound { func: String, lo: i64, hi: i64 },
    /// The WCET ILP is unbounded — some loop lacks a bound annotation.
    /// Lists `function(block)` headers that have no bound.
    Unbounded { unbounded_loops: Vec<String> },
    /// Every functionality constraint set was null or infeasible.
    AllSetsInfeasible { total: usize },
    /// The ILP solver gave up (node limit).
    SolverLimit,
    /// DNF expansion would give more constraint sets than the cap allows
    /// and degradation is disabled. `sets` saturates at `usize::MAX`.
    TooManySets { sets: usize, cap: usize },
    /// The solver met NaN/non-finite arithmetic it could not recover from.
    Numerical,
    /// The solve budget ran out before any safe bound could be proven
    /// (degradation was disabled or there was nothing to degrade to).
    BudgetExhausted,
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::CallGraph(e) => write!(f, "{e}"),
            AnalysisError::Parse { line, message } => {
                write!(f, "annotation parse error at line {line}: {message}")
            }
            AnalysisError::UnknownFunction(n) => {
                write!(f, "annotation names unknown function {n}")
            }
            AnalysisError::BadReference { func, reference, reason } => {
                write!(f, "bad reference {reference} in fn {func}: {reason}")
            }
            AnalysisError::NotALoopHeader { func, block } => {
                write!(f, "loop annotation in fn {func}: {block} is not a loop header")
            }
            AnalysisError::BadLoopBound { func, lo, hi } => {
                write!(f, "loop bound [{lo}, {hi}] in fn {func} is not a valid interval")
            }
            AnalysisError::Unbounded { unbounded_loops } => {
                writeln!(f, "WCET is unbounded; add loop bounds for:")?;
                for l in unbounded_loops {
                    writeln!(f, "  {l}")?;
                }
                write!(f, "hint: try --infer to derive loop bounds automatically")
            }
            AnalysisError::AllSetsInfeasible { total } => {
                write!(f, "all {total} functionality constraint sets are infeasible")
            }
            AnalysisError::SolverLimit => write!(f, "ILP solver hit its node limit"),
            AnalysisError::TooManySets { sets, cap } => {
                let at_least = if *sets == usize::MAX { "at least " } else { "" };
                write!(
                    f,
                    "the annotations give {at_least}{sets} constraint sets, over the cap of \
                     {cap}; raise the set cap or allow degradation"
                )
            }
            AnalysisError::Numerical => {
                write!(f, "solver failed numerically (non-finite arithmetic in the model)")
            }
            AnalysisError::BudgetExhausted => write!(
                f,
                "solve budget exhausted before any safe bound was proven; raise the \
                 deadline/node budget or allow degradation"
            ),
        }
    }
}

impl std::error::Error for AnalysisError {}

impl From<CallGraphError> for AnalysisError {
    fn from(e: CallGraphError) -> AnalysisError {
        AnalysisError::CallGraph(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e =
            AnalysisError::Unbounded { unbounded_loops: vec!["main(B2)".into(), "fft(B4)".into()] };
        let s = e.to_string();
        assert!(s.contains("main(B2)"));
        assert!(s.contains("fft(B4)"));

        let e = AnalysisError::Parse { line: 3, message: "expected ';'".into() };
        assert!(e.to_string().contains("line 3"));

        let e: AnalysisError = CallGraphError::Recursion(vec!["a".into(), "a".into()]).into();
        assert!(e.to_string().contains("recursive"));
    }
}
