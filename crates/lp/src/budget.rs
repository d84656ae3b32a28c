//! Resource budgets, consumption metering, and deterministic fault
//! injection for the solve pipeline.
//!
//! The analyzer must never hang and never abort: every solver entry point
//! accepts a [`SolveBudget`] describing how much work it may do, charges its
//! actual work to a shared [`BudgetMeter`], and degrades to a *safe but
//! looser* bound (tagged with a [`BoundQuality`]) when the budget runs out.
//! [`SolverFaults`] lets tests force each exhaustion path at an exact,
//! reproducible call index, so the whole degradation cascade is testable
//! without constructing adversarial ILPs.
//!
//! Time is counted in **ticks**, where one tick is one simplex pivot. Pivot
//! count is a deterministic, machine-independent proxy for wall-clock time:
//! a deadline expressed in ticks yields the same answer on every run and in
//! every environment, which a literal clock would not.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// How trustworthy a reported bound is.
///
/// Every quality is *safe* — a WCET bound is never below the true worst
/// case and a BCET bound never above the true best case — but only
/// [`Exact`](BoundQuality::Exact) is tight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BoundQuality {
    /// Proven optimal by complete branch & bound on every constraint set.
    Exact,
    /// At least one solve fell back to its LP-relaxation bound (rounded
    /// outward) after exhausting the exact-solve budget.
    Relaxed,
    /// Part of the problem was simplified before solving — e.g. disjunctive
    /// constraints were dropped because DNF expansion exceeded the set cap —
    /// so the bound covers a superset of the real feasible paths.
    Partial,
}

impl BoundQuality {
    /// The quality of a result combining two sub-results: the weaker of the
    /// two dominates (`Partial` < `Relaxed` < `Exact`).
    pub fn combine(self, other: BoundQuality) -> BoundQuality {
        self.max(other)
    }

    /// True when the bound is proven optimal.
    pub fn is_exact(self) -> bool {
        self == BoundQuality::Exact
    }
}

impl fmt::Display for BoundQuality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BoundQuality::Exact => "exact",
            BoundQuality::Relaxed => "relaxed",
            BoundQuality::Partial => "partial",
        })
    }
}

/// Resource limits for a solve pipeline run.
///
/// The budget is *shared* across everything charged to one [`BudgetMeter`]:
/// an analysis solving many constraint sets draws all of them from the same
/// tick pool, so a deadline caps the whole analysis, not each subproblem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveBudget {
    /// Deadline in ticks (simplex pivots) for the whole run; `None` means no
    /// deadline. This is the deterministic stand-in for wall-clock time.
    pub deadline_ticks: Option<u64>,
    /// Cap on iterations of a single LP solve; `None` uses the solver's own
    /// size-derived budget.
    pub max_lp_iters: Option<usize>,
    /// Cap on branch-and-bound nodes per ILP solve.
    pub max_nodes: usize,
    /// Cap on DNF constraint sets per analysis (enforced by `ipet-core`).
    pub max_sets: usize,
}

impl SolveBudget {
    /// The maximum node count used when no explicit budget is given.
    pub const DEFAULT_MAX_NODES: usize = 200_000;
    /// The maximum DNF set count used when no explicit budget is given.
    pub const DEFAULT_MAX_SETS: usize = 65_536;

    /// An effectively unlimited budget (the defaults).
    pub fn unlimited() -> SolveBudget {
        SolveBudget::default()
    }

    /// A budget with a tick deadline and defaults elsewhere.
    pub fn with_deadline(ticks: u64) -> SolveBudget {
        SolveBudget { deadline_ticks: Some(ticks), ..SolveBudget::default() }
    }
}

impl Default for SolveBudget {
    fn default() -> SolveBudget {
        SolveBudget {
            deadline_ticks: None,
            max_lp_iters: None,
            max_nodes: SolveBudget::DEFAULT_MAX_NODES,
            max_sets: SolveBudget::DEFAULT_MAX_SETS,
        }
    }
}

/// A shareable cooperative cancellation flag for in-flight solves.
///
/// Cancellation rides the existing budget machinery rather than adding a
/// second control path: a [`BudgetMeter`] carrying a cancelled token
/// reports its deadline as hit ([`BudgetMeter::deadline_hit`]) and its
/// remaining ticks as zero, so every solver loop that already honors tick
/// deadlines — branch-and-bound node expansion, LP entry, the plan-level
/// set driver — observes the cancellation at its next budget check and
/// degrades exactly as it would on exhaustion: to a certified-safe
/// relaxed/partial bound, never a panic, a wedged worker or an unsafe
/// answer.
///
/// Cancellation is *cooperative* and checked at the same granularity as
/// deadlines (per node expansion and per LP call), so the latency from
/// [`cancel`](CancelToken::cancel) to the solve unwinding is bounded by
/// one LP solve, itself bounded by the solver's size-derived iteration cap.
///
/// Tokens are cheap (`Arc<AtomicBool>`) and clones share the flag. The
/// default token is never cancelled and costs one relaxed load per check.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, not-yet-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Flips the token; every meter sharing it sees its budget as spent.
    /// Idempotent and irrevocable: a token is single-use by design, so a
    /// late cancel (after the work completed) is harmless.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// True once [`cancel`](CancelToken::cancel) has been called.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Accumulated solver work, shared across all solves of one pipeline run.
///
/// The meter is `Send + Sync`: counters are atomics, so several workers can
/// charge one meter concurrently and a shared deadline holds globally.
/// Workers check `deadline_hit` *before* charging, so a worker can overshoot
/// a deadline by at most the one charge it had already committed to — with
/// `w` workers the pool as a whole never over-spends by more than one charge
/// per worker.
#[derive(Debug, Default)]
pub struct BudgetMeter {
    /// Ticks consumed (one tick = one simplex pivot).
    ticks: AtomicU64,
    /// LP relaxations solved.
    lp_calls: AtomicU64,
    /// Branch-and-bound nodes expanded.
    nodes: AtomicU64,
    /// Cooperative cancellation: when cancelled, the meter reports its
    /// deadline as hit regardless of ticks spent, so every deadline-aware
    /// solver loop degrades as if the budget were exhausted.
    cancel: CancelToken,
}

impl BudgetMeter {
    /// A fresh meter with nothing consumed.
    pub fn new() -> BudgetMeter {
        BudgetMeter::default()
    }

    /// A fresh meter observing `cancel`: once the token fires, the meter
    /// behaves as if its deadline had passed
    /// ([`deadline_hit`](BudgetMeter::deadline_hit) is true and
    /// [`ticks_left`](BudgetMeter::ticks_left) is `Some(0)` even without
    /// a deadline).
    pub fn with_cancel(cancel: CancelToken) -> BudgetMeter {
        BudgetMeter { cancel, ..BudgetMeter::default() }
    }

    /// The cancellation token this meter observes (the default token of a
    /// plain meter is never cancelled).
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Charges `ticks` pivots to the meter (saturating, never wraps).
    pub fn charge_ticks(&self, ticks: u64) {
        // `fetch_update` instead of `fetch_add` so the count saturates at
        // `u64::MAX` rather than wrapping back below a deadline.
        let _ = self
            .ticks
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |t| Some(t.saturating_add(ticks)));
    }

    /// Records one LP relaxation solved.
    pub fn add_lp_call(&self) {
        self.lp_calls.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one branch-and-bound node expanded.
    pub fn add_node(&self) {
        self.nodes.fetch_add(1, Ordering::Relaxed);
    }

    /// Ticks consumed so far (one tick = one simplex pivot).
    pub fn ticks(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }

    /// LP relaxations solved so far.
    pub fn lp_calls(&self) -> u64 {
        self.lp_calls.load(Ordering::Relaxed)
    }

    /// Branch-and-bound nodes expanded so far.
    pub fn nodes(&self) -> u64 {
        self.nodes.load(Ordering::Relaxed)
    }

    /// Folds another meter's consumption into this one (used when a pool
    /// aggregates per-worker meters into a batch total).
    pub fn absorb(&self, other: &BudgetMeter) {
        self.charge_ticks(other.ticks());
        self.lp_calls.fetch_add(other.lp_calls(), Ordering::Relaxed);
        self.nodes.fetch_add(other.nodes(), Ordering::Relaxed);
    }

    /// Ticks still available under `budget`, or `None` when no deadline is
    /// set. `Some(0)` means the deadline has passed — or the meter's
    /// cancellation token fired, which reports as an exhausted deadline
    /// even when the budget has none.
    pub fn ticks_left(&self, budget: &SolveBudget) -> Option<u64> {
        if self.cancel.is_cancelled() {
            return Some(0);
        }
        budget.deadline_ticks.map(|d| d.saturating_sub(self.ticks()))
    }

    /// True when `budget`'s deadline has been reached or the meter's
    /// cancellation token has fired.
    pub fn deadline_hit(&self, budget: &SolveBudget) -> bool {
        matches!(self.ticks_left(budget), Some(0))
    }
}

impl Clone for BudgetMeter {
    fn clone(&self) -> BudgetMeter {
        let m = BudgetMeter::with_cancel(self.cancel.clone());
        m.absorb(self);
        m
    }
}

/// Deterministic fault injection for the solver stack.
///
/// Each `force_*_at` field names a zero-based call index at which the
/// corresponding failure is forced, regardless of the actual problem:
///
/// * [`limit_at`](SolverFaults::limit_at) — the N-th branch-and-bound node
///   expansion acts as if the node budget were exhausted (`LimitReached`);
/// * [`infeasible_at`](SolverFaults::infeasible_at) — the N-th LP call
///   reports `Infeasible`;
/// * [`numerical_at`](SolverFaults::numerical_at) — the N-th LP call
///   reports `Numerical` (as if pivoting had met a NaN);
/// * [`panic_at`](SolverFaults::panic_at) /
///   [`panic_always_at`](SolverFaults::panic_always_at) — the N-th whole ILP
///   solve panics on entry (transient vs. sticky across a retry);
/// * [`corrupt_witness_at`](SolverFaults::corrupt_witness_at) /
///   [`corrupt_bound_at`](SolverFaults::corrupt_bound_at) — the N-th ILP
///   solve silently returns a corrupted witness vector or claimed bound, so
///   tests can prove the auditor rejects bad certificates.
///
/// A second family of faults targets the persistent result store's IO
/// path (`ipet-store` consumes them; the solver itself never looks):
///
/// * [`fail_write_at`](SolverFaults::fail_write_at) — the N-th writing store
///   flush fails outright, as if the disk were full;
/// * [`torn_write_at`](SolverFaults::torn_write_at) — the N-th writing store
///   flush persists only a prefix of its bytes, modelling a crash mid-write;
/// * [`corrupt_record_at`](SolverFaults::corrupt_record_at) — the N-th
///   record serialized flips one payload bit, modelling silent bit rot;
/// * [`fail_open`](SolverFaults::fail_open) — opening the store file fails,
///   forcing the in-memory fallback.
///
/// IO faults are deliberately excluded from [`armed`](SolverFaults::armed):
/// they must never reroute a solve (the whole point is proving that store
/// damage degrades to ordinary cold solves). Use
/// [`io_armed`](SolverFaults::io_armed) to test for them.
///
/// Call counters live in the struct, so one `SolverFaults` value tracks
/// indices across every solve it is threaded through. The default value
/// injects nothing and is free to pass everywhere.
#[derive(Debug, Clone, Default)]
pub struct SolverFaults {
    force_limit_at: Option<u64>,
    force_infeasible_at: Option<u64>,
    force_numerical_at: Option<u64>,
    force_panic_at: Option<u64>,
    panic_sticky: bool,
    force_corrupt_witness_at: Option<u64>,
    force_corrupt_bound_at: Option<u64>,
    force_fail_write_at: Option<u64>,
    force_torn_write_at: Option<u64>,
    force_corrupt_record_at: Option<u64>,
    force_fail_open: bool,
    nodes_seen: u64,
    lps_seen: u64,
    solves_seen: u64,
    writes_seen: u64,
    records_seen: u64,
}

impl SolverFaults {
    /// No injected faults.
    pub fn none() -> SolverFaults {
        SolverFaults::default()
    }

    /// Forces budget exhaustion at the `index`-th branch-and-bound node.
    pub fn limit_at(index: u64) -> SolverFaults {
        SolverFaults { force_limit_at: Some(index), ..SolverFaults::default() }
    }

    /// Forces the `index`-th LP call to report infeasibility.
    pub fn infeasible_at(index: u64) -> SolverFaults {
        SolverFaults { force_infeasible_at: Some(index), ..SolverFaults::default() }
    }

    /// Forces the `index`-th LP call to report a numerical failure.
    pub fn numerical_at(index: u64) -> SolverFaults {
        SolverFaults { force_numerical_at: Some(index), ..SolverFaults::default() }
    }

    /// Forces the `index`-th ILP solve to panic on entry, *transiently*: a
    /// retry harness (like the pool's fresh-worker retry) is expected to
    /// [`disarm_panic`](SolverFaults::disarm_panic) before retrying, so the
    /// retry succeeds. Use [`panic_always_at`](SolverFaults::panic_always_at)
    /// for a panic that survives retries.
    pub fn panic_at(index: u64) -> SolverFaults {
        SolverFaults { force_panic_at: Some(index), ..SolverFaults::default() }
    }

    /// Forces the `index`-th ILP solve to panic on entry, *stickily*: the
    /// fault stays armed across [`disarm_panic`](SolverFaults::disarm_panic),
    /// modelling a deterministic crash that a retry cannot outrun.
    pub fn panic_always_at(index: u64) -> SolverFaults {
        SolverFaults { force_panic_at: Some(index), panic_sticky: true, ..SolverFaults::default() }
    }

    /// Forces the `index`-th ILP solve to return a silently corrupted
    /// witness vector (its first entry is shifted by +1), leaving the
    /// claimed bound untouched.
    pub fn corrupt_witness_at(index: u64) -> SolverFaults {
        SolverFaults { force_corrupt_witness_at: Some(index), ..SolverFaults::default() }
    }

    /// Forces the `index`-th ILP solve to return a silently corrupted
    /// claimed bound, leaving the witness untouched.
    pub fn corrupt_bound_at(index: u64) -> SolverFaults {
        SolverFaults { force_corrupt_bound_at: Some(index), ..SolverFaults::default() }
    }

    /// Forces the `index`-th writing store flush (clean flushes write
    /// nothing and do not count) to fail outright (disk-full model): no
    /// bytes reach the file and the flush reports an error.
    pub fn fail_write_at(index: u64) -> SolverFaults {
        SolverFaults { force_fail_write_at: Some(index), ..SolverFaults::default() }
    }

    /// Forces the `index`-th writing store flush to persist only a prefix
    /// of its bytes (crash-mid-write model): the truncated tail must
    /// quarantine on the next open instead of replaying.
    pub fn torn_write_at(index: u64) -> SolverFaults {
        SolverFaults { force_torn_write_at: Some(index), ..SolverFaults::default() }
    }

    /// Forces the `index`-th record serialized into a store flush to flip
    /// one payload bit (silent bit-rot model): the record's checksum must
    /// catch it on the next open.
    pub fn corrupt_record_at(index: u64) -> SolverFaults {
        SolverFaults { force_corrupt_record_at: Some(index), ..SolverFaults::default() }
    }

    /// Forces opening the store file to fail, exercising the in-memory
    /// fallback mode.
    pub fn fail_open() -> SolverFaults {
        SolverFaults { force_fail_open: true, ..SolverFaults::default() }
    }

    /// Disarms a transient panic fault before a retry; sticky panics
    /// ([`panic_always_at`](SolverFaults::panic_always_at)) stay armed.
    pub fn disarm_panic(&mut self) {
        if !self.panic_sticky {
            self.force_panic_at = None;
        }
    }

    /// True when any *solver* fault is armed (used to skip bookkeeping on
    /// the default value in hot paths, and to route faulted solves down the
    /// cold path). IO faults are excluded — see [`io_armed`](Self::io_armed).
    pub fn armed(&self) -> bool {
        self.force_limit_at.is_some()
            || self.force_infeasible_at.is_some()
            || self.force_numerical_at.is_some()
            || self.force_panic_at.is_some()
            || self.force_corrupt_witness_at.is_some()
            || self.force_corrupt_bound_at.is_some()
    }

    /// True when any store IO fault is armed. Orthogonal to
    /// [`armed`](Self::armed): IO faults damage persistence, never solves.
    pub fn io_armed(&self) -> bool {
        self.force_fail_write_at.is_some()
            || self.force_torn_write_at.is_some()
            || self.force_corrupt_record_at.is_some()
            || self.force_fail_open
    }

    /// True when opening the store file is forced to fail.
    pub fn open_fault(&self) -> bool {
        self.force_fail_open
    }

    /// Records one store flush; returns the fault forced at this index, if
    /// any. Called once per flush by `ipet-store`.
    pub fn write_fault(&mut self) -> Option<IoFault> {
        let here = self.writes_seen;
        self.writes_seen += 1;
        if self.force_fail_write_at == Some(here) {
            Some(IoFault::FailWrite)
        } else if self.force_torn_write_at == Some(here) {
            Some(IoFault::TornWrite)
        } else {
            None
        }
    }

    /// Records one record serialization; true when this record's payload
    /// must be corrupted. Called once per record by `ipet-store`.
    pub fn record_fault(&mut self) -> bool {
        let here = self.records_seen;
        self.records_seen += 1;
        self.force_corrupt_record_at == Some(here)
    }

    /// Records one branch-and-bound node expansion; true when the node-limit
    /// fault fires here.
    pub fn node_fault(&mut self) -> bool {
        let here = self.nodes_seen;
        self.nodes_seen += 1;
        self.force_limit_at == Some(here)
    }

    /// Records one whole ILP solve; returns the fault forced at this index,
    /// if any. Called once at the top of `solve_ilp_budgeted`.
    pub fn solve_fault(&mut self) -> Option<SolveFault> {
        let here = self.solves_seen;
        self.solves_seen += 1;
        if self.force_panic_at == Some(here) {
            Some(SolveFault::Panic)
        } else if self.force_corrupt_witness_at == Some(here) {
            Some(SolveFault::CorruptWitness)
        } else if self.force_corrupt_bound_at == Some(here) {
            Some(SolveFault::CorruptBound)
        } else {
            None
        }
    }

    /// Records one LP call; returns the fault forced at this index, if any.
    pub fn lp_fault(&mut self) -> Option<LpFault> {
        let here = self.lps_seen;
        self.lps_seen += 1;
        if self.force_infeasible_at == Some(here) {
            Some(LpFault::Infeasible)
        } else if self.force_numerical_at == Some(here) {
            Some(LpFault::Numerical)
        } else {
            None
        }
    }
}

/// A failure forced into an LP call by [`SolverFaults::lp_fault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpFault {
    /// Report the system as infeasible.
    Infeasible,
    /// Report a numerical breakdown.
    Numerical,
}

/// A failure forced into a whole ILP solve by [`SolverFaults::solve_fault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveFault {
    /// Panic on entry (exercises the pool's `catch_unwind` isolation).
    Panic,
    /// Return a silently corrupted witness vector.
    CorruptWitness,
    /// Return a silently corrupted claimed bound.
    CorruptBound,
}

/// A failure forced into a store flush by [`SolverFaults::write_fault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFault {
    /// The flush fails outright; no bytes reach the file.
    FailWrite,
    /// Only a prefix of the flush's bytes is persisted.
    TornWrite,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quality_combines_to_the_weaker() {
        use BoundQuality::*;
        assert_eq!(Exact.combine(Exact), Exact);
        assert_eq!(Exact.combine(Relaxed), Relaxed);
        assert_eq!(Relaxed.combine(Partial), Partial);
        assert_eq!(Partial.combine(Exact), Partial);
        assert!(Exact.is_exact() && !Relaxed.is_exact());
    }

    #[test]
    fn meter_tracks_deadline() {
        let budget = SolveBudget::with_deadline(10);
        let meter = BudgetMeter::new();
        assert_eq!(meter.ticks_left(&budget), Some(10));
        assert!(!meter.deadline_hit(&budget));
        meter.charge_ticks(10);
        assert!(meter.deadline_hit(&budget));
        meter.charge_ticks(u64::MAX); // saturates, no overflow
        assert_eq!(meter.ticks_left(&budget), Some(0));

        let unlimited = SolveBudget::unlimited();
        assert_eq!(meter.ticks_left(&unlimited), None);
        assert!(!meter.deadline_hit(&unlimited));
    }

    #[test]
    fn meter_is_shareable_and_absorbs() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BudgetMeter>();

        let a = BudgetMeter::new();
        a.charge_ticks(3);
        a.add_lp_call();
        a.add_node();
        let b = a.clone();
        b.absorb(&a);
        assert_eq!((b.ticks(), b.lp_calls(), b.nodes()), (6, 2, 2));
        assert_eq!((a.ticks(), a.lp_calls(), a.nodes()), (3, 1, 1));
    }

    /// Two workers sharing one meter under a common deadline: each worker
    /// checks `deadline_hit` before committing a one-tick charge, so the
    /// pool can overshoot the deadline by at most one tick per worker.
    #[test]
    fn shared_meter_overshoots_at_most_one_tick_per_worker() {
        const DEADLINE: u64 = 1_000;
        const WORKERS: u64 = 2;
        let budget = SolveBudget::with_deadline(DEADLINE);
        let meter = BudgetMeter::new();
        std::thread::scope(|scope| {
            for _ in 0..WORKERS {
                scope.spawn(|| loop {
                    if meter.deadline_hit(&budget) {
                        break;
                    }
                    meter.charge_ticks(1);
                });
            }
        });
        assert!(meter.ticks() >= DEADLINE, "workers stopped early: {} ticks", meter.ticks());
        assert!(
            meter.ticks() <= DEADLINE + WORKERS,
            "over-spent by more than one tick per worker: {} ticks",
            meter.ticks()
        );
    }

    #[test]
    fn cancellation_reports_as_an_exhausted_deadline() {
        let meter = BudgetMeter::new();
        let unlimited = SolveBudget::unlimited();
        assert!(!meter.deadline_hit(&unlimited));
        meter.cancel_token().cancel();
        assert!(meter.deadline_hit(&unlimited), "cancel must bite without a deadline");
        assert_eq!(meter.ticks_left(&unlimited), Some(0));
        assert_eq!(meter.ticks_left(&SolveBudget::with_deadline(1000)), Some(0));
    }

    #[test]
    fn cancel_tokens_are_shared_across_clones_and_meters() {
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        let a = BudgetMeter::with_cancel(token.clone());
        let b = a.clone(); // clones share the token
        let c = BudgetMeter::with_cancel(token.clone());
        token.cancel();
        token.cancel(); // idempotent
        let budget = SolveBudget::unlimited();
        assert!(a.deadline_hit(&budget) && b.deadline_hit(&budget) && c.deadline_hit(&budget));
        // A meter with its own default token is unaffected.
        assert!(!BudgetMeter::new().deadline_hit(&budget));
    }

    #[test]
    fn faults_fire_at_exact_indices() {
        let mut faults = SolverFaults::limit_at(2);
        assert!(faults.armed());
        assert!(!faults.node_fault());
        assert!(!faults.node_fault());
        assert!(faults.node_fault());
        assert!(!faults.node_fault());

        let mut faults = SolverFaults::infeasible_at(1);
        assert_eq!(faults.lp_fault(), None);
        assert_eq!(faults.lp_fault(), Some(LpFault::Infeasible));
        assert_eq!(faults.lp_fault(), None);

        let mut faults = SolverFaults::numerical_at(0);
        assert_eq!(faults.lp_fault(), Some(LpFault::Numerical));

        let mut none = SolverFaults::none();
        assert!(!none.armed());
        assert!(!none.node_fault());
        assert_eq!(none.lp_fault(), None);
        assert_eq!(none.solve_fault(), None);
    }

    #[test]
    fn solve_faults_fire_at_exact_indices() {
        let mut faults = SolverFaults::corrupt_witness_at(1);
        assert!(faults.armed());
        assert_eq!(faults.solve_fault(), None);
        assert_eq!(faults.solve_fault(), Some(SolveFault::CorruptWitness));
        assert_eq!(faults.solve_fault(), None);

        let mut faults = SolverFaults::corrupt_bound_at(0);
        assert_eq!(faults.solve_fault(), Some(SolveFault::CorruptBound));

        let mut faults = SolverFaults::panic_at(0);
        assert_eq!(faults.solve_fault(), Some(SolveFault::Panic));
    }

    #[test]
    fn io_faults_fire_at_exact_indices_and_stay_off_the_solve_path() {
        let mut faults = SolverFaults::fail_write_at(1);
        assert!(faults.io_armed());
        assert!(!faults.armed(), "IO faults must never reroute a solve");
        assert_eq!(faults.write_fault(), None);
        assert_eq!(faults.write_fault(), Some(IoFault::FailWrite));
        assert_eq!(faults.write_fault(), None);

        let mut faults = SolverFaults::torn_write_at(0);
        assert_eq!(faults.write_fault(), Some(IoFault::TornWrite));
        assert!(!faults.armed());

        let mut faults = SolverFaults::corrupt_record_at(2);
        assert!(!faults.record_fault());
        assert!(!faults.record_fault());
        assert!(faults.record_fault());
        assert!(!faults.record_fault());

        let faults = SolverFaults::fail_open();
        assert!(faults.open_fault() && faults.io_armed() && !faults.armed());

        let mut none = SolverFaults::none();
        assert!(!none.io_armed() && !none.open_fault());
        assert_eq!(none.write_fault(), None);
        assert!(!none.record_fault());
    }

    #[test]
    fn transient_panics_disarm_but_sticky_panics_stay() {
        let mut transient = SolverFaults::panic_at(0);
        transient.disarm_panic();
        assert_eq!(transient.solve_fault(), None, "transient panic must disarm before a retry");

        let mut sticky = SolverFaults::panic_always_at(0);
        sticky.disarm_panic();
        assert_eq!(sticky.solve_fault(), Some(SolveFault::Panic), "sticky panic survives disarm");
    }
}
