//! Property tests: the persistent solve store round-trips over the
//! synthetic workload generator. For arbitrary programs, a
//! write → reopen → replay cycle is bit-identical to a cold solve, and
//! arbitrary damage to the file (truncation, bit flips) quarantines
//! records and falls back to cold solving — it never alters a bound. And
//! for arbitrary interleavings of inserts, flushes and kills, reopening
//! the journal yields exactly the entry set of the last flush (there are
//! fewer distinct entries than the store's capacity), every entry
//! replaying bit-identically.

use ipet_bench::synth;
use ipet_core::{
    infer_loop_bounds, inferred_annotations, parse_annotations, AnalysisBudget, AnalysisPlan,
    Analyzer, PlanBatch, SolvePool,
};
use ipet_hw::Machine;
use ipet_lp::{same_structure, IlpResolution, IlpStats, Problem};
use ipet_store::{Store, StoreMode};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn scratch(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir()
        .join(format!("ipet-bench-store-prop-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir scratch");
    dir
}

/// Inferred loop bounds plus (when possible) a tautological disjunction,
/// so plans expand into more than one constraint set and the store holds
/// several records per program (same trick as `proptest_warm_cold.rs`).
fn plan_for(seed: u64) -> (AnalysisPlan, AnalysisBudget) {
    let s = synth::generate(seed, synth::SynthConfig::default());
    let analyzer = Analyzer::new(&s.program, Machine::i960kb()).expect("analyzer");
    let mut text = inferred_annotations(&infer_loop_bounds(&analyzer));
    let entry = analyzer.instances().instances[0].func;
    if analyzer.instances().cfgs[entry.0].num_blocks() >= 2 {
        text.push_str("fn f { (x1 >= x2) | (x2 >= x1); }\n");
    }
    let anns = parse_annotations(&text).expect("annotations");
    let budget = AnalysisBudget::default();
    let plan = analyzer.plan(&anns, &budget).expect("plan");
    (plan, budget)
}

fn run_with_store(plan: &AnalysisPlan, budget: &AnalysisBudget, store: &Arc<Store>) -> PlanBatch {
    let pool = SolvePool::new(1).with_store(Arc::clone(store));
    pool.run_plans(std::slice::from_ref(plan), &budget.solve)
}

/// The `Exact` solves of `plan`'s jobs, one per distinct problem: the
/// entries a journal test inserts.
fn solved_entries(plan: &AnalysisPlan, budget: &AnalysisBudget) -> Vec<(Problem, IlpResolution)> {
    let batch = SolvePool::new(1).run_plans(std::slice::from_ref(plan), &budget.solve);
    let mut out: Vec<(Problem, IlpResolution)> = Vec::new();
    for (job, outcome) in plan.jobs().iter().zip(&batch.report.outcomes) {
        let exact = matches!(outcome.resolution, IlpResolution::Exact { .. });
        if exact && !out.iter().any(|(p, _)| same_structure(p, &job.problem)) {
            out.push((job.problem.clone(), outcome.resolution.clone()));
        }
    }
    out
}

/// One step of a journal history.
#[derive(Debug, Clone)]
enum Op {
    Insert(usize),
    Flush,
    /// Drop the store without flushing, as SIGKILL would, and reopen.
    Kill,
}

/// Decodes a generated `(kind, entry)` pair: inserts 4 in 7, flushes 2 in
/// 7, kills 1 in 7.
fn op((kind, entry): (u8, usize)) -> Op {
    match kind {
        0..=3 => Op::Insert(entry),
        4 | 5 => Op::Flush,
        _ => Op::Kill,
    }
}

/// The store's entry set, modelled: indices into the entries.
type Model = Vec<usize>;

/// Reopens `path` and checks it holds exactly `flushed`: the count, a
/// bit-identical replay of every member, and no replay of anything else.
fn check_reopened(
    path: &std::path::Path,
    entries: &[(Problem, IlpResolution)],
    flushed: &Model,
) -> Store {
    let store = Store::open(path);
    assert_eq!(store.stats().quarantined, 0);
    assert_eq!(store.len(), flushed.len(), "reopen must yield the last flushed set");
    for (e, (problem, res)) in entries.iter().enumerate() {
        let replay = store.probe(ipet_lp::fingerprint(problem), problem);
        if flushed.contains(&e) {
            let (got, _) = replay.unwrap_or_else(|| panic!("entry {e} lost"));
            assert_eq!(format!("{got:?}"), format!("{res:?}"), "replay not bit-identical");
        } else {
            assert!(replay.is_none(), "entry {e} resurrected");
        }
    }
    store
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random histories of inserts, flushes and kills: every reopen yields
    /// exactly the entry set of the last flush.
    #[test]
    fn journal_reopens_to_the_last_flushed_entry_set(
        seed in 0u64..500,
        ops in prop::collection::vec((0u8..7, 0usize..64), 1..48),
    ) {
        let dir = scratch("journal");
        let path = dir.join("solves.store");
        let (plan, budget) = plan_for(seed);
        let entries = solved_entries(&plan, &budget);
        prop_assume!(!entries.is_empty());
        let mut store = Store::open(&path);
        let mut live: Model = Vec::new();
        let mut flushed: Model = Vec::new();
        for step in ops.into_iter().map(op) {
            match step {
                Op::Insert(entry) => {
                    let e = entry % entries.len();
                    let (problem, res) = &entries[e];
                    store.insert(ipet_lp::fingerprint(problem), problem, res, IlpStats::default());
                    if !live.contains(&e) {
                        live.push(e);
                    }
                }
                Op::Flush => {
                    store.flush().expect("flush");
                    flushed = live.clone();
                }
                Op::Kill => {
                    drop(store);
                    store = check_reopened(&path, &entries, &flushed);
                    live = flushed.clone();
                }
            }
        }
        store.flush().expect("final flush");
        drop(store);
        check_reopened(&path, &entries, &live);
    }

    /// write → reopen → replay is bit-identical to the cold solve, with
    /// every answer actually coming from disk.
    #[test]
    fn store_round_trip_is_bit_identical(seed in 0u64..500) {
        let dir = scratch("roundtrip");
        let path = dir.join("solves.store");
        let (plan, budget) = plan_for(seed);

        let cold = {
            let store = Arc::new(Store::open(&path));
            prop_assert_eq!(store.mode(), StoreMode::ReadWrite);
            let batch = run_with_store(&plan, &budget, &store);
            store.flush().expect("flush");
            batch
        };

        let store = Arc::new(Store::open(&path));
        prop_assert_eq!(store.stats().quarantined, 0, "seed {}: clean file quarantined", seed);
        prop_assert!(store.stats().loaded > 0, "seed {}: nothing persisted", seed);
        let warm = run_with_store(&plan, &budget, &store);
        // Only `Exact` resolutions persist, so a plan with infeasible sets
        // legitimately re-solves those — but everything that was written
        // must replay.
        prop_assert!(
            warm.report.misses < cold.report.misses,
            "seed {}: warm run replayed nothing from disk", seed
        );
        prop_assert!(store.stats().hits > 0, "seed {}: no store hits", seed);
        let (c, w) = (cold.estimates[0].as_ref().unwrap(), warm.estimates[0].as_ref().unwrap());
        prop_assert_eq!(c, w, "seed {}: replay differs from cold solve", seed);
    }

    /// Damaging the file — truncating it at an arbitrary offset, then
    /// flipping a byte in what remains — quarantines records and falls
    /// back to cold solving; the resulting bounds never change.
    #[test]
    fn damaged_store_never_alters_a_bound(
        seed in 0u64..500,
        cut in 0usize..4096,
        flip in 0usize..4096,
        mask in 1u8..=255,
    ) {
        let dir = scratch("damage");
        let path = dir.join("solves.store");
        let (plan, budget) = plan_for(seed);

        let baseline = {
            let store = Arc::new(Store::open(&path));
            let batch = run_with_store(&plan, &budget, &store);
            store.flush().expect("flush");
            batch
        };

        let mut bytes = std::fs::read(&path).expect("read store");
        let full = bytes.len();
        bytes.truncate(cut % full.max(1));
        if !bytes.is_empty() {
            let at = flip % bytes.len();
            bytes[at] ^= mask;
        }
        std::fs::write(&path, &bytes).expect("damage store");

        let store = Arc::new(Store::open(&path));
        // Damage shrinks what loads; it must never invent entries.
        prop_assert!(
            store.stats().loaded <= baseline.report.misses,
            "seed {}: damaged file loaded more than was written", seed
        );
        let recovered = run_with_store(&plan, &budget, &store);
        // The bounds must be exactly the cold run's, no matter what mix of
        // replays and fallback solves produced them.
        let (b, r) =
            (baseline.estimates[0].as_ref().unwrap(), recovered.estimates[0].as_ref().unwrap());
        prop_assert_eq!(b, r, "seed {}: damage at cut={} flip={} changed a bound", seed, cut, flip);

        // The recovery run also repairs the store: one flush, and a clean
        // reopen replays everything with nothing quarantined.
        store.flush().expect("repair flush");
        let store2 = Arc::new(Store::open(&path));
        prop_assert_eq!(store2.stats().quarantined, 0, "seed {}: repair left damage", seed);
        let replayed = run_with_store(&plan, &budget, &store2);
        prop_assert_eq!(
            b, replayed.estimates[0].as_ref().unwrap(),
            "seed {}: post-repair replay differs", seed
        );
    }
}
