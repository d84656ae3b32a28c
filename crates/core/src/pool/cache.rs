//! The content-addressed solve cache.
//!
//! Solved ILPs are stored under their [`Fingerprint`] — a positional
//! content hash of the normalized problem from `ipet-lp` — so identical
//! problems across constraint sets, benchmarks and repeated runs are solved
//! once and replayed.
//!
//! ## Soundness: validated replay
//!
//! A fingerprint match alone never authorizes a replay. The fingerprint is
//! the *index*; correctness comes from [`ipet_audit::replay_gate`], the gate
//! the persistent store applies too:
//!
//! 1. **Structural equality** — the cached problem must match the probe
//!    problem row for row ([`ipet_lp::same_structure`], which ignores debug
//!    names and term noise but nothing else). Equal keys imply it up to a
//!    128-bit collision; an entry that fails it is another problem and is
//!    passed over without counting anything.
//! 2. **Witness re-certification** — an `Exact` resolution is replayed only
//!    if its cached witness *certifies* against the probe problem in exact
//!    integer arithmetic: the witness rounds to integer counts within the
//!    shared tolerance, satisfies every constraint row exactly, and
//!    reproduces the cached objective value exactly. This can only fail on
//!    an implementation bug; the probe is then treated as a miss and solved
//!    fresh, so a cache defect can cost time but never an unsound bound.
//!    Successful re-certifications count `audit.cache.recertified`;
//!    failures count `audit.cache.rejected`, and a probe left without a
//!    replay by one counts in [`CacheStats::rejected`].
//!
//! ## Bounded: LRU by last use
//!
//! The cache holds at most a fixed number of entries
//! ([`SOLVE_CACHE_CAPACITY`]). An insert beyond it evicts the entry whose
//! last insert or hit is oldest (`pool.cache.evicted`). Eviction can cost
//! a re-solve, never an answer: every replay is re-certified above, and
//! optima are canonical, so a re-solve returns the evicted answer bit for
//! bit. Probes and inserts run serially in the pool's batch driver, so
//! which entry goes is as deterministic as the hit/miss counts.

use ipet_audit::{replay_gate, Replay};
use ipet_lp::{Fingerprint, IlpResolution, IlpStats, Problem};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// How a job's answer was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Solved fresh.
    Miss,
    /// Replayed from the cache (cross-batch) or from a structurally
    /// identical job solved earlier in the same batch.
    Hit,
}

/// Cumulative cache statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Jobs answered by replay.
    pub hits: u64,
    /// Jobs solved fresh.
    pub misses: u64,
    /// Probes that found the problem cached but no witness of it that
    /// certifies.
    pub rejected: u64,
    /// Entries dropped to stay within capacity (least recently used first).
    pub evicted: u64,
}

/// Entries a [`SolveCache`] keeps. Sized from measured entry sizes (about
/// 13 KB on average over serve-style suite edits): a `--infer` pass over
/// the 13 suite routines leaves 45 entries, the largest in-repo batch
/// run, and an edit adds 2.6 on average, so a serve daemon keeps its
/// replay working set plus roughly the last 180 edits, in about 7 MB.
pub const SOLVE_CACHE_CAPACITY: usize = 512;

struct CacheEntry {
    problem: Problem,
    resolution: IlpResolution,
    stats: IlpStats,
    /// Recency stamp: the key of this entry in `Lru::recency`.
    stamp: u64,
}

/// The buckets plus a recency index. Stamps are unique and increase with
/// every insert and hit, so the first entry of `recency` is the least
/// recently used.
#[derive(Default)]
struct Lru {
    buckets: HashMap<u128, Vec<CacheEntry>>,
    recency: BTreeMap<u64, u128>,
    next_stamp: u64,
}

/// Takes the next recency stamp and records that it belongs to `key`.
fn take_stamp(recency: &mut BTreeMap<u64, u128>, next_stamp: &mut u64, key: u128) -> u64 {
    let stamp = *next_stamp;
    *next_stamp += 1;
    recency.insert(stamp, key);
    stamp
}

impl Lru {
    /// Drops the least recently used entry.
    fn evict_oldest(&mut self) {
        let Some((stamp, key)) = self.recency.pop_first() else {
            return;
        };
        let bucket = self.buckets.get_mut(&key).expect("recency names a live bucket");
        bucket.retain(|e| e.stamp != stamp);
        if bucket.is_empty() {
            self.buckets.remove(&key);
        }
    }
}

/// A thread-safe, LRU-bounded map from problem fingerprints to validated
/// solve results.
pub struct SolveCache {
    lru: Mutex<Lru>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    rejected: AtomicU64,
    evicted: AtomicU64,
}

impl Default for SolveCache {
    fn default() -> SolveCache {
        SolveCache::with_capacity(SOLVE_CACHE_CAPACITY)
    }
}

impl SolveCache {
    /// An empty cache of [`SOLVE_CACHE_CAPACITY`] entries.
    pub fn new() -> SolveCache {
        SolveCache::default()
    }

    /// An empty cache that keeps at most `capacity` entries (at least 1).
    fn with_capacity(capacity: usize) -> SolveCache {
        SolveCache {
            lru: Mutex::new(Lru::default()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    /// Cumulative statistics over the cache's lifetime.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
        }
    }

    /// Entries held now (at most the capacity).
    pub(crate) fn len(&self) -> usize {
        self.lru.lock().expect("cache lock").recency.len()
    }

    /// Looks up a validated replay for `problem`, updating hit/reject
    /// telemetry. Returns `None` (counting no miss — the caller records the
    /// miss on insert) when no entry passes the replay gate.
    /// A hit makes the entry the most recently used.
    pub fn probe(&self, key: Fingerprint, problem: &Problem) -> Option<(IlpResolution, IlpStats)> {
        let mut guard = self.lru.lock().expect("cache lock");
        let Lru { buckets, recency, next_stamp } = &mut *guard;
        let bucket = buckets.get_mut(&key.0)?;
        let mut rejected = false;
        for entry in bucket.iter_mut() {
            let witness = match &entry.resolution {
                IlpResolution::Exact { x, value } => Some((x.as_slice(), *value)),
                _ => None,
            };
            match replay_gate(&entry.problem, problem, witness) {
                Replay::Foreign => continue,
                Replay::Rejected => {
                    ipet_trace::counter("audit.cache.rejected", 1);
                    rejected = true;
                    continue;
                }
                Replay::Certified if witness.is_some() => {
                    ipet_trace::counter("audit.cache.recertified", 1);
                }
                Replay::Certified => {}
            }
            self.hits.fetch_add(1, Ordering::Relaxed);
            recency.remove(&entry.stamp);
            entry.stamp = take_stamp(recency, next_stamp, key.0);
            return Some((entry.resolution.clone(), entry.stats));
        }
        if rejected {
            self.rejected.fetch_add(1, Ordering::Relaxed);
        }
        None
    }

    /// Counts the miss behind a fresh solve result and keeps the result,
    /// evicting the least recently used entry when the cache is full. A
    /// budget-degraded result (`Relaxed`, `Exhausted`) is not kept: it
    /// reflects the budget it ran under, which the key does not cover, so
    /// replaying it could degrade an answer another budget would give
    /// exactly.
    pub fn insert(
        &self,
        key: Fingerprint,
        problem: &Problem,
        resolution: &IlpResolution,
        stats: IlpStats,
    ) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        if matches!(resolution, IlpResolution::Relaxed { .. } | IlpResolution::Exhausted) {
            return;
        }
        let mut lru = self.lru.lock().expect("cache lock");
        if lru.recency.len() >= self.capacity {
            lru.evict_oldest();
            self.evicted.fetch_add(1, Ordering::Relaxed);
            ipet_trace::counter("pool.cache.evicted", 1);
        }
        let lru = &mut *lru;
        let stamp = take_stamp(&mut lru.recency, &mut lru.next_stamp, key.0);
        lru.buckets.entry(key.0).or_default().push(CacheEntry {
            problem: problem.clone(),
            resolution: resolution.clone(),
            stats,
            stamp,
        });
    }

    /// Counts `n` replays served from within-batch deduplication (the
    /// members of a job group whose representative was solved once).
    pub fn count_batch_hits(&self, n: u64) {
        self.hits.fetch_add(n, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipet_lp::{fingerprint, ProblemBuilder, Relation, Sense};

    fn toy() -> Problem {
        let mut b = ProblemBuilder::new(Sense::Maximize);
        let x = b.add_var("x", true);
        let y = b.add_var("y", true);
        b.objective(x, 3.0);
        b.objective(y, 2.0);
        b.constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
        b.constraint(vec![(x, 1.0)], Relation::Le, 2.0);
        b.build()
    }

    #[test]
    fn probe_miss_then_hit() {
        let cache = SolveCache::new();
        let p = toy();
        let key = fingerprint(&p);
        assert!(cache.probe(key, &p).is_none());
        let res = IlpResolution::Exact { x: vec![2.0, 2.0], value: 10.0 };
        cache.insert(key, &p, &res, IlpStats::default());
        let (replayed, _) = cache.probe(key, &p).expect("hit");
        assert_eq!(replayed, res);
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1, rejected: 0, evicted: 0 });
    }

    #[test]
    fn degraded_results_count_their_miss_but_are_not_kept() {
        let cache = SolveCache::new();
        let p = toy();
        let key = fingerprint(&p);
        for degraded in
            [IlpResolution::Exhausted, IlpResolution::Relaxed { bound: 12.0, incumbent: None }]
        {
            cache.insert(key, &p, &degraded, IlpStats::default());
            assert!(cache.probe(key, &p).is_none());
        }
        assert_eq!((cache.len(), cache.stats().misses), (0, 2));
    }

    #[test]
    fn a_full_cache_evicts_the_least_recently_used_entry() {
        let cache = SolveCache::with_capacity(2);
        let problem = |rhs: f64| {
            let mut b = ProblemBuilder::new(Sense::Maximize);
            let x = b.add_var("x", true);
            b.objective(x, 1.0);
            b.constraint(vec![(x, 1.0)], Relation::Le, rhs);
            b.build()
        };
        let (a, b, c) = (problem(1.0), problem(2.0), problem(3.0));
        let solve = |p: &Problem, v: f64| {
            cache.insert(
                fingerprint(p),
                p,
                &IlpResolution::Exact { x: vec![v], value: v },
                IlpStats::default(),
            )
        };
        solve(&a, 1.0);
        solve(&b, 2.0);
        // A hit makes `a` the most recently used, so `c` evicts `b`.
        assert!(cache.probe(fingerprint(&a), &a).is_some());
        solve(&c, 3.0);
        assert_eq!((cache.len(), cache.stats().evicted), (2, 1));
        assert!(cache.probe(fingerprint(&b), &b).is_none());
        assert!(cache.probe(fingerprint(&a), &a).is_some());
        assert!(cache.probe(fingerprint(&c), &c).is_some());
    }

    #[test]
    fn permuted_entry_is_a_plain_miss() {
        // Same problem with variables swapped: a witness indexed by the
        // other variable order must not transfer, and nothing was rejected
        // — the permuted twin is simply another problem.
        let cache = SolveCache::new();
        let p = toy();
        let mut b = ProblemBuilder::new(Sense::Maximize);
        let y = b.add_var("y", true);
        let x = b.add_var("x", true);
        b.objective(x, 3.0);
        b.objective(y, 2.0);
        b.constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
        b.constraint(vec![(x, 1.0)], Relation::Le, 2.0);
        let q = b.build();
        cache.insert(
            fingerprint(&p),
            &p,
            &IlpResolution::Exact { x: vec![2.0, 2.0], value: 10.0 },
            IlpStats::default(),
        );
        assert!(cache.probe(fingerprint(&q), &q).is_none());
        // Even under the entry's own key (a forced collision) the gate
        // passes it over without a rejection.
        assert!(cache.probe(fingerprint(&p), &q).is_none());
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 1, rejected: 0, evicted: 0 });
    }

    #[test]
    fn corrupt_witness_fails_validation() {
        let cache = SolveCache::new();
        let p = toy();
        let key = fingerprint(&p);
        // Witness violates x <= 2: the gate must refuse the replay.
        cache.insert(
            key,
            &p,
            &IlpResolution::Exact { x: vec![4.0, 0.0], value: 12.0 },
            IlpStats::default(),
        );
        assert!(cache.probe(key, &p).is_none());
        assert_eq!(cache.stats().rejected, 1);
    }
}
