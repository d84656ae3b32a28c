//! Process-wide solver backend selection.
//!
//! The backend controls *how* a warm-start base is solved, never *what* the
//! answer is. Cold solves always run the dense tableau. Under
//! [`SolverBackend::Auto`] a routine's warm-start base is presolved and
//! solved with the sparse revised simplex, and deltas re-optimize from that
//! sparse basis; a base that presolve or the sparse solve declines keeps the
//! dense snapshot. Every warm result passes the same acceptance gate
//! (canonical optimum, integral witness, exact certification), so backend
//! choice is deliberately excluded from problem fingerprints and cache keys.
//!
//! The selection is a process-wide atomic set once at startup from the
//! `--solver` CLI flag; the default is [`SolverBackend::Auto`].

use std::sync::atomic::{AtomicBool, Ordering};

/// Which solver implementation warm-start bases use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverBackend {
    /// Dense two-phase tableau simplex only (the historical hot path).
    Dense,
    /// Presolve + sparse revised simplex for warm-start bases, dense
    /// tableau for everything else. The default; `sparse` is an accepted
    /// spelling of it.
    Auto,
}

impl SolverBackend {
    /// Parse a `--solver` flag value.
    pub fn parse(s: &str) -> Option<SolverBackend> {
        match s {
            "dense" => Some(SolverBackend::Dense),
            "auto" | "sparse" => Some(SolverBackend::Auto),
            _ => None,
        }
    }

    /// Canonical flag spelling, mirroring [`SolverBackend::parse`].
    pub fn as_str(self) -> &'static str {
        match self {
            SolverBackend::Dense => "dense",
            SolverBackend::Auto => "auto",
        }
    }
}

static DENSE: AtomicBool = AtomicBool::new(false);

/// Install the process-wide backend. Intended to be called once at startup
/// from CLI flag parsing; later calls win (useful for tests).
pub fn set_solver_backend(backend: SolverBackend) {
    DENSE.store(backend == SolverBackend::Dense, Ordering::Relaxed);
}

/// The currently selected backend.
pub fn solver_backend() -> SolverBackend {
    if DENSE.load(Ordering::Relaxed) {
        SolverBackend::Dense
    } else {
        SolverBackend::Auto
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        for b in [SolverBackend::Dense, SolverBackend::Auto] {
            assert_eq!(SolverBackend::parse(b.as_str()), Some(b));
        }
        assert_eq!(SolverBackend::parse("sparse"), Some(SolverBackend::Auto));
        assert_eq!(SolverBackend::parse("fancy"), None);
    }
}
