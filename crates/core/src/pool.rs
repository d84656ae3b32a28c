//! The solve pool, the one executor every analysis runs on:
//! deterministic dedup, deadline sharding, panic-isolated work-stealing
//! execution, and the plan-level driver.
//! [`Analyzer::analyze`](crate::Analyzer::analyze) is a one-worker pool.
//!
//! One analysis yields `2 × |sets|` independent ILPs and a benchmark table
//! yields that again per program, so [`SolvePool::run`] batches any number
//! of [`AnalysisPlan`]s into one job list, solves it across the workers and
//! folds each plan's verdicts back. These properties are load-bearing and
//! tested:
//!
//! * **Determinism**: bounds, qualities, report ordering and cache
//!   hit/miss counts are bit-for-bit identical for any worker count, with
//!   or without a tick deadline (see [`SolvePool`]).
//! * **Sound caching**: a replay needs structural equality and an exact
//!   re-certification of the cached witness (see `ipet-store`); a cache
//!   defect can cost time, never an unsound bound.
//! * **Bounded memory**: the replay tier is LRU-bounded
//!   ([`SOLVE_CACHE_CAPACITY`]), so a long-lived pool (a serve daemon)
//!   stops growing once it is full.
//! * **Crash isolation**: a solve that panics is caught and quarantined as
//!   an exhausted job, which degrades the affected bound to `Partial`
//!   (counted under `pool.panic.quarantined`).
//!
//! A pool's one replay tier is an [`ipet_store::Store`], content-addressed
//! by the problem alone: in memory by default, or a persistent,
//! crash-safe file swapped in with [`SolvePool::with_store`], whose
//! `Exact` entries later processes replay. The tier changes where answers
//! come from, never what they are.

pub use ipet_store::SOLVE_CACHE_CAPACITY;

use crate::{AnalysisError, AnalysisPlan, Estimate, IlpJob, JobVerdict};
use ipet_audit::AuditReport;
use ipet_lp::{
    is_injected_panic, same_structure, solve_ilp_budgeted, BudgetMeter, CancelToken, Fingerprint,
    IlpResolution, IlpStats, SolveBudget, SolverFaults,
};
use ipet_store::Store;
use std::any::Any;
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// How a job's answer was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Solved fresh.
    Miss,
    /// Replayed from the replay tier (cross-batch) or from a structurally
    /// identical job solved earlier in the same batch.
    Hit,
}

/// Cumulative statistics of a pool's replay traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Jobs answered by replay.
    pub hits: u64,
    /// Jobs solved fresh (outside a cancelled batch).
    pub misses: u64,
    /// Probes that found the problem stored but no witness of it that
    /// certifies.
    pub rejected: u64,
    /// Entries dropped to stay within capacity (least recently used first).
    pub evicted: u64,
}

/// What one [`SolvePool::run`] asks of the pool. Fault injection is the
/// pool's own template ([`SolvePool::with_faults`]), so it does not appear
/// here.
#[derive(Debug, Clone, Default)]
pub struct SolveRequest {
    /// Solver limits. A tick deadline is split over the batch's fresh
    /// solves, `d / n` each (see [`SolvePool`]).
    pub budget: SolveBudget,
    /// Cancelling the token makes every in-flight and not-yet-started
    /// solve of the batch observe an exhausted deadline at its next budget
    /// checkpoint (B&B node expansion, LP entry), so the batch degrades to
    /// certified-safe relaxed/partial bounds and returns promptly. Results
    /// produced under a cancelled token never enter the in-memory or
    /// persistent caches: cancellation is wall-clock nondeterminism and
    /// must not leak into future batches.
    pub cancel: CancelToken,
    /// Fold every plan through
    /// [`AnalysisPlan::complete_audited`], pairing each estimate with its
    /// per-set certificate report. The estimates are bit-identical either
    /// way: the auditor only observes.
    pub audit: bool,
}

/// Answer for one job of a batch.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The solver's resolution (replayed verbatim for cache hits).
    pub resolution: IlpResolution,
    /// Statistics of the solve that produced the resolution. A replayed
    /// job reports the original solve's statistics — they describe the
    /// work the answer *embodies*, not work done again.
    pub stats: IlpStats,
    /// Whether the answer was solved fresh or replayed.
    pub cache: CacheOutcome,
}

/// Everything a batch run reports besides the per-job answers.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Per-job answers, in submission order.
    pub outcomes: Vec<JobOutcome>,
    /// Jobs answered by replay in this batch (within-batch dedup plus
    /// cross-batch cache hits). Deterministic for any worker count because
    /// dedup happens before dispatch.
    pub hits: u64,
    /// Jobs solved fresh in this batch.
    pub misses: u64,
    /// Ticks spent by each worker (length = configured worker count).
    pub worker_ticks: Vec<u64>,
    /// Total ticks committed by the batch: the sum of `worker_ticks`.
    pub total_ticks: u64,
    /// Wall-clock time of the parallel solve phase (excludes dedup,
    /// cache probing and result fan-out, which are serial and cheap).
    pub wall: std::time::Duration,
}

impl BatchReport {
    /// An empty report (no jobs, no ticks) — the identity of
    /// [`BatchReport::absorb`], for accumulating multi-round sweeps.
    pub fn empty() -> BatchReport {
        BatchReport {
            outcomes: Vec::new(),
            hits: 0,
            misses: 0,
            worker_ticks: Vec::new(),
            total_ticks: 0,
            wall: std::time::Duration::ZERO,
        }
    }

    /// Merges another round's report into this one: outcomes concatenate,
    /// tallies and ticks add (worker ticks element-wise, padding with the
    /// longer roster), wall clocks sum. Used by sweeps that run several
    /// pool batches and must report one aggregate, so downstream tick
    /// accounting (`bench::gate`) sees the same shape as a single batch.
    pub fn absorb(&mut self, other: BatchReport) {
        self.outcomes.extend(other.outcomes);
        self.hits += other.hits;
        self.misses += other.misses;
        if self.worker_ticks.len() < other.worker_ticks.len() {
            self.worker_ticks.resize(other.worker_ticks.len(), 0);
        }
        for (mine, theirs) in self.worker_ticks.iter_mut().zip(other.worker_ticks) {
            *mine += theirs;
        }
        self.total_ticks += other.total_ticks;
        self.wall += other.wall;
    }
}

/// Result of [`SolvePool::run_plans`]: one estimate per plan plus the
/// batch-level report.
pub struct PlanBatch {
    /// Per-plan analysis results, in plan order.
    pub estimates: Vec<Result<Estimate, AnalysisError>>,
    /// The underlying batch report (outcomes, hits/misses, worker ticks).
    pub report: BatchReport,
}

/// Result of [`SolvePool::run`]: each plan's estimate paired with the
/// certificate report for its sets, which is empty unless the request
/// asked for the audit.
pub struct AuditedPlanBatch {
    /// Per-plan analysis results with certificates, in plan order.
    pub results: Vec<Result<(Estimate, AuditReport), AnalysisError>>,
    /// The underlying batch report (outcomes, hits/misses, worker ticks).
    pub report: BatchReport,
}

impl From<AuditedPlanBatch> for PlanBatch {
    fn from(batch: AuditedPlanBatch) -> PlanBatch {
        let estimates =
            batch.results.into_iter().map(|r| r.map(|(estimate, _)| estimate)).collect();
        PlanBatch { estimates, report: batch.report }
    }
}

/// A work-stealing ILP solve pool with a content-addressed replay tier.
///
/// ## Determinism
///
/// Results are bit-for-bit identical for any worker count:
///
/// * **Dedup before dispatch** — jobs are grouped by cache key (checked by
///   structural equality) *before* any solver runs, so which jobs are solved
///   (one representative per group) and which are replayed never depends on
///   scheduling. Hit/miss counts are deterministic too.
/// * **Deadline sharding** — a tick deadline is split across the
///   representative solves up front (`d / n` each, the first `d mod n` of
///   them getting one extra tick), so each solve sees the same budget at
///   any worker count and degrades (`IlpResolution::Exhausted` /
///   `Relaxed`) identically. The pool's meters only *account* for spend;
///   they never gate a solve on a concurrently updated counter, because
///   that would make degradation schedule-dependent.
/// * **Order-independent folding** — callers fold outcomes by job index
///   ([`AnalysisPlan::complete`] accepts verdicts in canonical job order
///   regardless of completion order), so work stealing cannot reorder
///   anything observable.
/// * **Panic isolation** — each representative solve runs under
///   `catch_unwind`, once. A solve that panics is quarantined as
///   [`IlpResolution::Exhausted`], which the plan folds into a
///   `Partial`-quality covered bound instead of crashing the batch. A
///   retry could not help: a solve is a pure function of its problem, its
///   deadline shard and its fault template, so it would panic again.
///   Because dedup and sharding precede dispatch, which jobs are
///   quarantined is the same at any worker count. Debug builds re-raise
///   any panic that is not an injected one, so a failed debug oracle fails
///   its test instead of being quarantined away.
pub struct SolvePool {
    workers: usize,
    /// Fault template for test harnesses: re-armed (cloned) for each
    /// representative solve, so e.g. `panic_at(0)` panics, and so
    /// quarantines, every representative deterministically.
    faults: SolverFaults,
    /// The replay tier: probed once per group representative, fed once
    /// per fresh solve. Its replays pass the structural and
    /// exact-certification gate, so swapping in a persistent store can
    /// never change an answer — only where it came from.
    store: Arc<Store>,
    /// Jobs answered by replay, across every batch.
    hits: AtomicU64,
    /// Jobs solved fresh outside a cancelled batch, across every batch.
    misses: AtomicU64,
}

impl SolvePool {
    /// A pool with `workers` workers (clamped to at least 1) and an empty
    /// in-memory replay tier. One worker solves on the calling thread; more
    /// run as scoped threads.
    pub fn new(workers: usize) -> SolvePool {
        SolvePool::with_faults(workers, SolverFaults::none())
    }

    /// A pool whose workers run under an injected-fault template (cloned
    /// per representative solve). Test-only in spirit: production callers
    /// use [`SolvePool::new`].
    pub fn with_faults(workers: usize, faults: SolverFaults) -> SolvePool {
        SolvePool {
            workers: workers.max(1),
            faults,
            store: Arc::new(Store::in_memory()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Swaps in `store` (typically a persistent one) as the replay tier.
    /// The pool only probes and feeds it; opening, flushing and lifetime
    /// stay with the caller (who typically shares the same `Arc` with a
    /// serve loop).
    pub fn with_store(mut self, store: Arc<Store>) -> SolvePool {
        self.store = store;
        self
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Cumulative replay statistics across every batch this pool ran (the
    /// rejections and evictions are its tier's).
    pub fn cache_stats(&self) -> CacheStats {
        let tier = self.store.stats();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            rejected: tier.rejected,
            evicted: tier.evicted,
        }
    }

    /// Replay-tier entries held now, at most
    /// [`SOLVE_CACHE_CAPACITY`](crate::SOLVE_CACHE_CAPACITY).
    pub fn cache_len(&self) -> usize {
        self.store.len()
    }

    /// The batch executor behind the plan drivers: dedups, probes the
    /// replay tier, shards the deadline, dispatches to the workers and
    /// fans the answers back out in submission order.
    fn solve_jobs(
        &self,
        jobs: &[&IlpJob],
        budget: &SolveBudget,
        cancel: &CancelToken,
    ) -> BatchReport {
        let _span = ipet_trace::span("pool.solve_batch");
        ipet_trace::counter("pool.batches", 1);
        ipet_trace::counter("pool.jobs", jobs.len() as u64);
        // 1. Deterministic dedup: group jobs by cache key. `groups[g]`
        //    lists the job indices sharing one representative (the first
        //    member), in first-occurrence order. Structural equality guards
        //    against a key collision: a colliding job is solved apart.
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut group_of: Vec<usize> = vec![0; jobs.len()];
        let mut group_by_key: HashMap<Fingerprint, usize> = HashMap::new();
        for (j, job) in jobs.iter().enumerate() {
            let first = *group_by_key.entry(job.key).or_insert(groups.len());
            if first < groups.len() && same_structure(&jobs[groups[first][0]].problem, &job.problem)
            {
                groups[first].push(j);
                group_of[j] = first;
            } else {
                group_of[j] = groups.len();
                groups.push(vec![j]);
            }
        }

        // 2. One replay-tier probe per group representative.
        let rejected_before = self.store.stats().rejected;
        let mut answers: Vec<Option<(IlpResolution, IlpStats)>> = Vec::with_capacity(groups.len());
        let mut to_solve: Vec<usize> = Vec::new(); // indices into `groups`
        for (g, members) in groups.iter().enumerate() {
            let job = jobs[members[0]];
            let answer = self.store.probe(job.key, &job.problem);
            if answer.is_none() {
                to_solve.push(g);
            }
            answers.push(answer);
        }
        ipet_trace::counter("pool.cache.rejected", self.store.stats().rejected - rejected_before);

        ipet_trace::counter("pool.dedup.replays", (jobs.len() - groups.len()) as u64);
        ipet_trace::counter("pool.groups.solved", to_solve.len() as u64);

        // 3. Deterministic deadline sharding over the representative solves.
        let shards = shard_deadline(budget.deadline_ticks, to_solve.len());
        ipet_trace::counter(
            "pool.shards.deadline",
            shards.iter().filter(|s| s.is_some()).count() as u64,
        );

        // 4. Work-stealing execution: a shared cursor hands representative
        //    solves to whichever worker frees up first; each solve runs
        //    under its own sharded budget, a fresh meter and a re-armed
        //    fault clone, isolated by `catch_unwind`, and each worker
        //    tallies the ticks it spent. A solve that panics is quarantined
        //    as `Exhausted`.
        // Per-representative slot: (resolution, stats, cancelled), where
        // `cancelled` marks a solve that ended under a cancelled token.
        let slots: Mutex<Vec<Option<(IlpResolution, IlpStats, bool)>>> =
            Mutex::new(vec![None; to_solve.len()]);
        let cursor = AtomicUsize::new(0);
        let tallies: Mutex<Vec<u64>> = Mutex::new(vec![0; self.workers]);
        let t0 = std::time::Instant::now();
        let faults_template = &self.faults;
        let work = |w: usize| {
            let mut my_ticks = 0u64;
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= to_solve.len() {
                    break;
                }
                let rep = groups[to_solve[i]][0];
                let job_budget = SolveBudget { deadline_ticks: shards[i], ..*budget };
                let meter = BudgetMeter::with_cancel((*cancel).clone());
                let mut faults = faults_template.clone();
                let attempt = catch_unwind(AssertUnwindSafe(|| {
                    solve_ilp_budgeted(&jobs[rep].problem, &job_budget, &meter, &mut faults)
                }));
                ipet_trace::counter("pool.worker.jobs", 1);
                ipet_trace::counter("pool.worker.ticks", meter.ticks());
                my_ticks = my_ticks.saturating_add(meter.ticks());
                let (res, stats) = match attempt {
                    Ok(solved) => solved,
                    Err(payload) => {
                        reraise_unless_injected(payload);
                        ipet_trace::counter("pool.panic.quarantined", 1);
                        (IlpResolution::Exhausted, IlpStats::default())
                    }
                };
                // A solve that ran while the token was cancelled may
                // carry a degradation that reflects the cancellation, not
                // the problem — it stays out of the caches.
                let cancelled = cancel.is_cancelled();
                if cancelled {
                    ipet_trace::counter("pool.cancelled", 1);
                }
                slots.lock().expect("slot lock")[i] = Some((res, stats, cancelled));
            }
            tallies.lock().expect("tick lock")[w] = my_ticks;
        };
        // One worker solves on the calling thread: spawning a scope cost
        // about 0.2 ms per batch on a 2-vCPU VM, as much as the whole
        // solve of a small analysis.
        match self.workers.min(to_solve.len()) {
            0 => {}
            1 => work(0),
            n => std::thread::scope(|scope| {
                let work = &work;
                let workers: Vec<_> = (0..n).map(|w| scope.spawn(move || work(w))).collect();
                // A panic isolation re-raised reaches the caller with its
                // own payload, so its message survives.
                for worker in workers {
                    if let Err(payload) = worker.join() {
                        resume_unwind(payload);
                    }
                }
            }),
        }
        let wall = t0.elapsed();
        let solved = slots.into_inner().expect("slot lock");
        let worker_ticks = tallies.into_inner().expect("tick lock");

        // 5. Install the fresh solves (the misses) in the replay tier and
        //    splice them into the per-group answers. Solves that ended
        //    under a cancelled token are *not* kept: they describe this
        //    run's cancellation, not the problem, and must not be replayed
        //    into future batches. The tier keeps no budget-degraded result
        //    (a quarantined job is one), and persists only `Exact` ones.
        for (i, g) in to_solve.iter().enumerate() {
            let job = jobs[groups[*g][0]];
            let (res, stats, cancelled) = solved[i].clone().expect("every representative solved");
            if !cancelled {
                self.store.insert(job.key, &job.problem, &res, stats);
                self.misses.fetch_add(1, Ordering::Relaxed);
            }
            answers[*g] = Some((res, stats));
        }

        // 6. Fan the group answers back out to every member. The fresh
        //    representatives are the batch's misses; everything else is a
        //    replay.
        let fresh: HashSet<usize> = to_solve.iter().map(|g| groups[*g][0]).collect();
        let outcomes: Vec<JobOutcome> = (0..jobs.len())
            .map(|j| {
                let (resolution, stats) =
                    answers[group_of[j]].clone().expect("every group answered");
                let cache = if fresh.contains(&j) { CacheOutcome::Miss } else { CacheOutcome::Hit };
                JobOutcome { resolution, stats, cache }
            })
            .collect();
        let misses = fresh.len() as u64;
        let hits = jobs.len() as u64 - misses;
        self.hits.fetch_add(hits, Ordering::Relaxed);
        ipet_trace::counter("pool.cache.hits", hits);
        ipet_trace::counter("pool.cache.misses", misses);

        let total_ticks = worker_ticks.iter().sum::<u64>();
        BatchReport { outcomes, hits, misses, worker_ticks, total_ticks, wall }
    }

    /// Runs every job of every plan through the pool as one batch and folds
    /// the verdicts back per plan. Every job solves its composed problem;
    /// the cache is keyed on the job's planned key ([`crate::IlpJob::key`]).
    ///
    /// Jobs are concatenated in plan order (each plan's jobs in their
    /// canonical order), so the batch — and with it the dedup grouping, the
    /// shard assignment and every outcome — is a pure function of the plans
    /// and the request, independent of the worker count.
    pub fn run(&self, plans: &[AnalysisPlan], request: &SolveRequest) -> AuditedPlanBatch {
        let SolveRequest { budget, cancel, audit } = request;
        let jobs: Vec<&IlpJob> = plans.iter().flat_map(AnalysisPlan::jobs).collect();
        let report = self.solve_jobs(&jobs, budget, cancel);
        let mut outcomes = report.outcomes.iter();
        let results = plans
            .iter()
            .map(|plan| {
                let verdicts: Vec<JobVerdict> = outcomes
                    .by_ref()
                    .take(plan.jobs().len())
                    .map(|o| JobVerdict::Solved(o.resolution.clone(), o.stats))
                    .collect();
                plan.fold(&verdicts, *audit)
            })
            .collect();
        AuditedPlanBatch { results, report }
    }

    /// [`SolvePool::run`] under `budget`, unaudited.
    pub fn run_plans(&self, plans: &[AnalysisPlan], budget: &SolveBudget) -> PlanBatch {
        self.run(plans, &SolveRequest { budget: *budget, ..SolveRequest::default() }).into()
    }

    /// [`SolvePool::run`] under `budget`, audited.
    pub fn run_plans_audited(
        &self,
        plans: &[AnalysisPlan],
        budget: &SolveBudget,
    ) -> AuditedPlanBatch {
        self.run(plans, &SolveRequest { budget: *budget, audit: true, ..SolveRequest::default() })
    }
}

/// Panic isolation exists for the panics [`SolverFaults`] injects. In
/// debug builds any other panic (a failed debug oracle such as the sparse-LU
/// reference check) is re-raised here, so quarantine cannot hide it;
/// release builds quarantine every panic.
fn reraise_unless_injected(payload: Box<dyn Any + Send>) {
    if cfg!(debug_assertions) && !is_injected_panic(payload.as_ref()) {
        resume_unwind(payload);
    }
}

/// Splits a tick deadline across `n` solves: `d / n` each, the first
/// `d mod n` solves getting one extra tick, so the shards sum to exactly
/// `d` and depend only on `(d, n)` — never on scheduling or worker count.
fn shard_deadline(deadline: Option<u64>, n: usize) -> Vec<Option<u64>> {
    let Some(d) = deadline else {
        return vec![None; n];
    };
    if n == 0 {
        return Vec::new();
    }
    let n64 = n as u64;
    (0..n64).map(|i| Some(d / n64 + u64::from(i < d % n64))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_sum_to_deadline_and_differ_by_at_most_one() {
        for d in [0u64, 1, 7, 100, 1001] {
            for n in 1..=9usize {
                let shards = shard_deadline(Some(d), n);
                assert_eq!(shards.len(), n);
                let vals: Vec<u64> = shards.iter().map(|s| s.unwrap()).collect();
                assert_eq!(vals.iter().sum::<u64>(), d);
                let (min, max) = (vals.iter().min().unwrap(), vals.iter().max().unwrap());
                assert!(max - min <= 1);
            }
        }
        assert_eq!(shard_deadline(None, 3), vec![None, None, None]);
    }

    #[test]
    fn only_injected_panics_are_isolated_in_debug_builds() {
        // A panic the code raised itself (a failed debug oracle) reaches
        // the caller in debug builds.
        let own = catch_unwind(|| reraise_unless_injected(Box::new("a debug oracle failed")));
        assert_eq!(own.is_err(), cfg!(debug_assertions));
        // The injected panic is isolated in every build.
        let mut problem = ipet_lp::ProblemBuilder::new(ipet_lp::Sense::Maximize);
        let x = problem.add_var(true);
        problem.objective(x, 1);
        problem.constraint(vec![(x, 1)], ipet_lp::Relation::Le, 3);
        let problem = problem.build();
        let injected = catch_unwind(|| {
            let faults = &mut SolverFaults::panic_at(0);
            solve_ilp_budgeted(&problem, &SolveBudget::unlimited(), &BudgetMeter::new(), faults)
        })
        .expect_err("the fault panics");
        assert!(catch_unwind(AssertUnwindSafe(|| reraise_unless_injected(injected))).is_ok());
    }
}
