//! The daemon's plan memo: a repeated request skips the front end.
//!
//! A request's [`AnalysisPlan`] is a pure function of its inputs, so the
//! memo maps those inputs ([`PlanKey`]) to the plan built from them, and a
//! repeated request costs one lookup plus the pool's certified replay
//! instead of compile, CFG, inference and planning. Keys are compared in
//! full, file bytes included, so a hash collision can never serve another
//! program's plan, and an edited `.mc` or `.s` file is a new key.
//!
//! **Admission.** A freshly built plan is admitted only when its batch
//! solved nothing fresh (`misses == 0`): the daemon had already answered
//! that exact request. One-off edits are never stored, so the memo holds
//! the replay working set and nothing else.
//!
//! **Bound.** Entries are weighed by the problems a plan holds (its jobs
//! plus its two covers), and the total weight stays within
//! [`SOLVE_CACHE_CAPACITY`], least recently used out first; a plan heavier
//! than that is never admitted. Its worst case is therefore the replay
//! tier's. An eviction costs the next identical request one front-end
//! pass, never an answer: a rebuilt plan is the evicted one bit for bit.

use ipet_core::{AnalysisBudget, AnalysisPlan, SOLVE_CACHE_CAPACITY};
use ipet_infer::{InferCounts, InferMode};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Everything a request's plan depends on. `audit` is not among them: the
/// auditor only observes the fold.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct PlanKey {
    pub target: String,
    /// The bytes of a `.mc` or `.s` target as read for this request;
    /// `None` for a bundled benchmark.
    pub file: Option<String>,
    pub entry: Option<String>,
    pub machine: String,
    /// The request's extra `annotations` text.
    pub annotations: Option<String>,
    pub infer: Option<InferMode>,
    /// The effective budget, request deadline included: the plan embeds it.
    pub budget: AnalysisBudget,
}

/// A memoized plan and the inference tallies of the pass that built it.
pub(crate) type Memoized = Arc<(AnalysisPlan, Option<InferCounts>)>;

/// The `stats` op's `memo` object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MemoStats {
    /// Requests answered from a memoized plan.
    pub hits: u64,
    /// Requests whose plan was built.
    pub misses: u64,
    /// Plans held now.
    pub entries: usize,
    /// Plans dropped to stay within the bound.
    pub evicted: u64,
}

struct Entry {
    value: Memoized,
    weight: usize,
    /// Recency stamp: larger is more recent.
    stamp: u64,
}

#[derive(Default)]
struct Lru {
    entries: HashMap<PlanKey, Entry>,
    weight: usize,
    next_stamp: u64,
}

impl Lru {
    fn stamp(&mut self) -> u64 {
        self.next_stamp += 1;
        self.next_stamp
    }
}

/// A thread-safe, weight-bounded LRU map from request inputs to plans.
pub(crate) struct PlanMemo {
    lru: Mutex<Lru>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evicted: AtomicU64,
}

/// The problems `plan` holds, its jobs and its two covers: what it weighs
/// against the bound.
fn weight(plan: &AnalysisPlan) -> usize {
    plan.jobs().len() + 2
}

impl PlanMemo {
    /// An empty memo bounded by [`SOLVE_CACHE_CAPACITY`] problems.
    pub(crate) fn new() -> PlanMemo {
        PlanMemo::with_capacity(SOLVE_CACHE_CAPACITY)
    }

    fn with_capacity(capacity: usize) -> PlanMemo {
        PlanMemo {
            lru: Mutex::new(Lru::default()),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    /// The plan memoized under `key`, made the most recently used; counts
    /// a hit or a miss.
    pub(crate) fn get(&self, key: &PlanKey) -> Option<Memoized> {
        let mut lru = self.lru.lock().expect("plan memo lock");
        let stamp = lru.stamp();
        let found = lru.entries.get_mut(key).map(|e| {
            e.stamp = stamp;
            Arc::clone(&e.value)
        });
        let tally = if found.is_some() { &self.hits } else { &self.misses };
        tally.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Stores `value` under `key`, evicting least recently used plans
    /// until it fits. The caller applies the admission rule; a plan
    /// heavier than the whole bound is not stored.
    pub(crate) fn admit(&self, key: PlanKey, value: Memoized) {
        let weight = weight(&value.0);
        if weight > self.capacity {
            return;
        }
        let mut lru = self.lru.lock().expect("plan memo lock");
        if lru.entries.contains_key(&key) {
            // A concurrent identical request admitted it first.
            return;
        }
        while lru.weight + weight > self.capacity {
            let oldest = lru.entries.iter().min_by_key(|(_, e)| e.stamp).map(|(k, _)| k.clone());
            let gone = lru.entries.remove(&oldest.expect("weight implies entries"));
            lru.weight -= gone.expect("oldest is held").weight;
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        let stamp = lru.stamp();
        lru.weight += weight;
        lru.entries.insert(key, Entry { value, weight, stamp });
    }

    pub(crate) fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.lru.lock().expect("plan memo lock").entries.len(),
            evicted: self.evicted.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_data_plan() -> Memoized {
        let bench = ipet_suite::by_name("check_data").expect("bundled benchmark");
        let program = bench.program().expect("compiles");
        let analyzer =
            ipet_core::Analyzer::new(&program, ipet_hw::Machine::i960kb()).expect("analyzer");
        let anns = ipet_core::parse_annotations(&bench.annotations(&program)).expect("annotations");
        Arc::new((analyzer.plan(&anns, &AnalysisBudget::default()).expect("plan"), None))
    }

    /// Keys that differ only in their annotations text.
    fn key(tag: &str) -> PlanKey {
        PlanKey {
            target: "check_data".into(),
            file: None,
            entry: None,
            machine: "i960kb".into(),
            annotations: Some(tag.into()),
            infer: None,
            budget: AnalysisBudget::default(),
        }
    }

    #[test]
    fn a_plan_heavier_than_the_bound_is_never_admitted() {
        let plan = check_data_plan();
        let memo = PlanMemo::with_capacity(weight(&plan.0) - 1);
        memo.admit(key("a"), Arc::clone(&plan));
        assert!(memo.get(&key("a")).is_none());
        let stats = memo.stats();
        assert_eq!((stats.entries, stats.evicted, stats.misses), (0, 0, 1));
    }

    #[test]
    fn eviction_drops_the_least_recently_used_plan() {
        let plan = check_data_plan();
        let memo = PlanMemo::with_capacity(2 * weight(&plan.0));
        memo.admit(key("a"), Arc::clone(&plan));
        memo.admit(key("b"), Arc::clone(&plan));
        assert!(memo.get(&key("a")).is_some(), "a is now more recent than b");
        memo.admit(key("c"), Arc::clone(&plan));
        assert!(memo.get(&key("b")).is_none(), "b was the least recently used");
        assert!(memo.get(&key("a")).is_some());
        assert!(memo.get(&key("c")).is_some());
        assert_eq!(memo.stats(), MemoStats { hits: 3, misses: 1, entries: 2, evicted: 1 });
        // Re-admitting a held key changes nothing.
        memo.admit(key("c"), plan);
        assert_eq!(memo.stats().entries, 2);
        assert_eq!(memo.stats().evicted, 1);
    }
}
