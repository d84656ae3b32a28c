//! # ipet-pool
//!
//! Parallel solve orchestration for the IPET pipeline: a work-stealing
//! worker pool that takes every independent ILP job produced by an
//! analysis — one per surviving DNF constraint set and objective sense —
//! and solves them across a configurable number of threads, backed by a
//! content-addressed solve cache.
//!
//! The subsystem exists because the paper's method is embarrassingly
//! parallel *between* ILPs but each ILP must stay sequential: one analysis
//! yields `2 × |sets|` independent solves, and a benchmark table yields
//! that again per program. [`SolvePool::run_plans`] batches any number of
//! [`AnalysisPlan`](ipet_core::AnalysisPlan)s (from [`Analyzer::plan`](ipet_core::Analyzer::plan))
//! into one job list and folds each plan's verdicts back with
//! [`AnalysisPlan::complete`](ipet_core::AnalysisPlan::complete).
//!
//! Since the base+delta decomposition, the jobs of one routine share a
//! [`BaseProblem`](ipet_lp::BaseProblem): the pool solves each distinct
//! base LP once per batch (serially, before dispatch; repeats count
//! `pool.cache.base_hits`), hands the snapshot to the workers, and
//! warm-starts every delta from it via
//! [`solve_delta_warm`](ipet_lp::solve_delta_warm). The solve cache is
//! keyed on the `(base, delta)` fingerprint pair. Warm results are
//! accepted only when provably bit-identical to a cold solve, so none of
//! the properties below are weakened.
//!
//! These properties are load-bearing and tested:
//!
//! * **Determinism** — bounds, qualities, report ordering and cache
//!   hit/miss counts are bit-for-bit identical for any worker count. With
//!   no tick deadline the pooled result equals the serial
//!   `Analyzer::analyze` result exactly; with a deadline the pool shards
//!   it deterministically, so `--jobs 1` and `--jobs 8` still agree with
//!   each other.
//! * **Sound caching** — the cache replays a result only after structural
//!   equality passes and the cached witness *re-certifies* against the
//!   probe problem in exact integer arithmetic (the `cache` module docs); a
//!   cache defect can cost time, never an unsound bound.
//! * **Bounded memory** — the solve cache and the base-snapshot cache are
//!   LRU-bounded ([`SOLVE_CACHE_CAPACITY`], [`BASE_CACHE_CAPACITY`]), so a
//!   long-lived pool (a serve daemon) stops growing once they are full.
//!   Eviction can cost a re-solve, never an answer.
//! * **Budget accounting** — per-worker tick spend is reported, and the
//!   shared [`BudgetMeter`](ipet_lp::BudgetMeter) semantics guarantee at
//!   most one charge of overshoot per worker.
//! * **Crash isolation** — a panicking solve never takes the batch down:
//!   it is caught, retried once on a fresh thread, and on a second panic
//!   quarantined as an exhausted job that degrades the affected bound to
//!   `Partial` quality (`pool.panic.*` counters tell the story).
//!
//! Batches can also run under an external [`CancelToken`](ipet_lp::CancelToken)
//! ([`SolvePool::run_plans_cancellable`]): cancelling makes every in-flight
//! solve observe an exhausted deadline at its next budget checkpoint, so
//! the batch degrades to certified-safe relaxed bounds and returns promptly
//! instead of wedging a worker. Cancelled results never enter the caches.
//!
//! A pool can additionally be backed by a persistent, crash-safe store
//! ([`SolvePool::with_store`], see `ipet-store`): after an in-memory miss
//! the store is probed under the same structural + exact-certification
//! gates, and every fresh `Exact` solve is fed back for future processes
//! to replay. The store is a third replay tier — it changes where answers
//! come from, never what they are.

mod cache;
mod pool;

pub use cache::{CacheOutcome, CacheStats, SolveCache, SOLVE_CACHE_CAPACITY};
pub use pool::{
    AuditedPlanBatch, BatchReport, JobOutcome, PlanBatch, SolvePool, BASE_CACHE_CAPACITY,
};
