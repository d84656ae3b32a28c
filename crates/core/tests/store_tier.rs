//! Persistent-store tier on real benchmarks: a second *process* (modeled
//! here as a second pool over a reopened store) replays certified solves
//! from disk bit-identically, entries are keyed by their problem alone,
//! and any damage to the file degrades to cold solves with the same
//! bounds.

use ipet_core::{parse_annotations, AnalysisBudget, AnalysisPlan, Analyzer, PlanBatch, SolvePool};
use ipet_hw::Machine;
use ipet_store::{Store, StoreMode};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const BENCHES: &[&str] = &["piksrt", "check_data", "dhry"];

fn scratch(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("ipet-pool-store-test-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir scratch");
    dir
}

fn plans_for(names: &[&str], budget: &AnalysisBudget) -> Vec<AnalysisPlan> {
    names
        .iter()
        .map(|name| {
            let bench = ipet_suite::by_name(name).expect("bundled benchmark");
            let program = bench.program().expect("compiles");
            let analyzer = Analyzer::new(&program, Machine::i960kb()).expect("analyzer");
            let anns = parse_annotations(&bench.annotations(&program)).expect("annotations");
            analyzer.plan(&anns, budget).expect("plan")
        })
        .collect()
}

#[test]
fn second_process_replays_from_disk_bit_identically() {
    let dir = scratch("replay");
    let path = dir.join("solves.store");
    let budget = AnalysisBudget::default();
    let plans = plans_for(BENCHES, &budget);

    // "Process" 1: cold solves, fed into the store, flushed to disk.
    let cold = {
        let store = Arc::new(Store::open(&path));
        assert_eq!(store.mode(), StoreMode::ReadWrite);
        let pool = SolvePool::new(2).with_store(Arc::clone(&store));
        let batch = pool.run_plans(&plans, &budget.solve);
        assert!(batch.report.misses > 0, "first run must solve fresh");
        assert_eq!(store.stats().hits, 0);
        store.flush().expect("flush");
        batch
    };
    assert!(path.exists());

    // "Process" 2: fresh pool over the reopened store — every answer must
    // come from the disk, and must equal the cold run exactly.
    let store = Arc::new(Store::open(&path));
    assert!(store.stats().loaded > 0, "entries persisted");
    assert_eq!(store.stats().quarantined, 0);
    let pool = SolvePool::new(2).with_store(Arc::clone(&store));
    let warm = pool.run_plans(&plans, &budget.solve);
    assert_eq!(warm.report.misses, 0, "warm run must be answered by the store");
    assert!(store.stats().hits > 0);
    for ((a, b), name) in cold.estimates.iter().zip(&warm.estimates).zip(BENCHES) {
        let (a, b) = (a.as_ref().expect("ok"), b.as_ref().expect("ok"));
        assert_eq!(a, b, "{name}: store replay differs from cold solve");
    }
}

#[test]
fn corrupted_store_degrades_to_cold_solves_with_identical_bounds() {
    let dir = scratch("corrupt");
    let path = dir.join("solves.store");
    let budget = AnalysisBudget::default();
    let plans = plans_for(BENCHES, &budget);

    let baseline = {
        let store = Arc::new(Store::open(&path));
        let pool = SolvePool::new(2).with_store(Arc::clone(&store));
        let batch = pool.run_plans(&plans, &budget.solve);
        store.flush().expect("flush");
        batch
    };

    // Flip one bit in every record's payload region.
    let mut bytes = std::fs::read(&path).expect("read store");
    let step = (bytes.len() / 16).max(1);
    let mut i = 24; // past the header and the first record header
    while i < bytes.len() {
        bytes[i] ^= 0x10;
        i += step;
    }
    std::fs::write(&path, &bytes).expect("corrupt store");

    let store = Arc::new(Store::open(&path));
    assert!(store.stats().quarantined > 0, "damage must be quarantined");
    let pool = SolvePool::new(2).with_store(Arc::clone(&store));
    let recovered = pool.run_plans(&plans, &budget.solve);
    for ((a, b), name) in baseline.estimates.iter().zip(&recovered.estimates).zip(BENCHES) {
        let (a, b) = (a.as_ref().expect("ok"), b.as_ref().expect("ok"));
        assert_eq!(a, b, "{name}: recovery from corruption changed a bound");
    }
    // And the recovery run repairs the store: a subsequent flush rewrites
    // clean records that replay again.
    store.flush().expect("repair flush");
    let store2 = Arc::new(Store::open(&path));
    assert_eq!(store2.stats().quarantined, 0, "flush must rewrite clean records");
    assert!(store2.stats().loaded > 0);
}

/// The same records under an older header are one quarantined unit: the
/// version-1 header (a file written before witnesses of tied optima were
/// canonical) and the version-3 header (records that named every
/// variable). Nothing replays, every job is solved again, and the next
/// writing flush replaces the file under the current header.
#[test]
fn an_older_store_header_is_quarantined_and_the_pool_re_solves_canonically() {
    let budget = AnalysisBudget::default();
    let plans = plans_for(BENCHES, &budget);
    let fresh = SolvePool::new(2).run_plans(&plans, &budget.solve);
    for header in [b"ipet-store-v1\0\0\0", b"ipet-store-v3\0\0\0"] {
        let dir = scratch("older");
        let path = dir.join("solves.store");
        {
            let store = Arc::new(Store::open(&path));
            SolvePool::new(2).with_store(Arc::clone(&store)).run_plans(&plans, &budget.solve);
            store.flush().expect("flush");
        }
        let mut bytes = std::fs::read(&path).expect("read store");
        bytes[..ipet_store::STORE_MAGIC.len()].copy_from_slice(header);
        std::fs::write(&path, &bytes).expect("write the older header");

        let version = String::from_utf8_lossy(&header[..13]);
        {
            let store = Arc::new(Store::open(&path));
            assert_eq!(store.stats().loaded, 0, "{version}");
            assert_eq!(store.stats().quarantined, 1, "{version}: the whole file is one quarantine");
            let pool = SolvePool::new(2).with_store(Arc::clone(&store));
            let resolved = pool.run_plans(&plans, &budget.solve);
            assert_eq!(store.stats().hits, 0, "{version}: nothing replays");
            assert_eq!(resolved.report.misses, fresh.report.misses, "every job is solved again");
            for ((a, b), name) in fresh.estimates.iter().zip(&resolved.estimates).zip(BENCHES) {
                let (a, b) = (a.as_ref().expect("ok"), b.as_ref().expect("ok"));
                assert_eq!(a, b, "{name}: the re-solve differs from a storeless run");
            }
            store.flush().expect("repairing flush");
            assert_eq!((store.stats().compactions, store.stats().appends), (1, 0), "{version}");
        }
        let bytes = std::fs::read(&path).expect("read the repaired store");
        assert_eq!(&bytes[..ipet_store::STORE_MAGIC.len()], ipet_store::STORE_MAGIC);
        assert_eq!(&bytes[..13], b"ipet-store-v4");
        let store = Store::open(&path);
        assert_eq!(store.stats().quarantined, 0, "{version}: the rewrite is clean");
        assert!(store.stats().loaded > 0);
    }
}

/// piksrt under its own annotations, or with its loop bound lowered.
fn piksrt_plan(edited: bool, budget: &AnalysisBudget) -> AnalysisPlan {
    let bench = ipet_suite::by_name("piksrt").expect("bundled benchmark");
    let program = bench.program().expect("compiles");
    let analyzer = Analyzer::new(&program, Machine::i960kb()).expect("analyzer");
    let mut text = bench.annotations(&program);
    if edited {
        assert!(text.contains("[0, 9]"), "test premise: the loop bound is [0, 9]");
        text = text.replace("[0, 9]", "[0, 7]");
    }
    analyzer.plan(&parse_annotations(&text).expect("annotations"), budget).expect("plan")
}

/// One "process": opens the store at `path`, runs `plan` on it, flushes.
fn run_in_process(
    path: &std::path::Path,
    plan: &AnalysisPlan,
) -> (PlanBatch, ipet_store::StoreStats) {
    let budget = AnalysisBudget::default();
    let store = Arc::new(Store::open(path));
    assert_eq!(store.mode(), StoreMode::ReadWrite);
    let pool = SolvePool::new(1).with_store(Arc::clone(&store));
    let batch = pool.run_plans(std::slice::from_ref(plan), &budget.solve);
    store.flush().expect("flush");
    (batch, store.stats())
}

#[test]
fn a_changed_loop_bound_misses() {
    let dir = scratch("edit");
    let path = dir.join("solves.store");
    let budget = AnalysisBudget::default();
    let (plain, edited) = (piksrt_plan(false, &budget), piksrt_plan(true, &budget));
    let (first, _) = run_in_process(&path, &plain);
    assert!(first.report.misses > 0);

    // The edit changes every problem, so nothing stored answers it.
    let fresh = SolvePool::new(1).run_plans(std::slice::from_ref(&edited), &budget.solve);
    let (batch, stats) = run_in_process(&path, &edited);
    assert_eq!(stats.hits, 0, "no stored problem is the edited one");
    assert_eq!(batch.report.misses, fresh.report.misses, "every job is solved cold");
    assert_eq!(
        batch.estimates[0].as_ref().expect("ok"),
        fresh.estimates[0].as_ref().expect("ok"),
        "the edit is answered as by a store-less pool"
    );
}

#[test]
fn returning_to_the_old_loop_bound_replays() {
    let dir = scratch("revert");
    let path = dir.join("solves.store");
    let budget = AnalysisBudget::default();
    let (plain, edited) = (piksrt_plan(false, &budget), piksrt_plan(true, &budget));
    let (first, _) = run_in_process(&path, &plain);
    let (_, after_edit) = run_in_process(&path, &edited);
    assert_eq!(after_edit.loaded, first.report.misses, "the edit's process loaded the first");

    // Both bounds' entries live side by side: reverting replays.
    let (again, stats) = run_in_process(&path, &plain);
    assert_eq!(stats.loaded, first.report.misses + after_edit.misses);
    assert_eq!((again.report.misses, again.report.total_ticks), (0, 0), "every job replays");
    assert_eq!(stats.flushes, 0, "a replay writes nothing");
    assert_eq!(
        again.estimates[0].as_ref().expect("ok"),
        first.estimates[0].as_ref().expect("ok"),
        "the replay is the first run's bound"
    );
}

/// A store written in the version-2 format (`cinderella analyze check_data
/// piksrt --store` before records lost their program scope): it opens as
/// one quarantined, empty store, never replays, and the first flush
/// replaces it with a file in the current format.
#[test]
fn a_v2_store_file_is_quarantined_once_and_repaired() {
    let fixture = include_bytes!("data/check_data-piksrt.v2.store");
    let dir = scratch("v2fixture");
    let path = dir.join("solves.store");
    std::fs::write(&path, fixture).expect("copy fixture");
    let budget = AnalysisBudget::default();
    let plans = plans_for(&["check_data", "piksrt"], &budget);
    let fresh = SolvePool::new(1).run_plans(&plans, &budget.solve);
    {
        let store = Arc::new(Store::open(&path));
        assert_eq!((store.stats().loaded, store.stats().quarantined), (0, 1));
        let pool = SolvePool::new(1).with_store(Arc::clone(&store));
        let batch = pool.run_plans(&plans, &budget.solve);
        assert_eq!(store.stats().hits, 0, "nothing replays from a v2 file");
        assert_eq!(batch.report.misses, fresh.report.misses, "every job is solved again");
        store.flush().expect("repairing flush");
        assert_eq!((store.stats().compactions, store.stats().appends), (1, 0));
    }
    let store = Arc::new(Store::open(&path));
    assert_eq!((store.stats().loaded, store.stats().quarantined), (6, 0));
    let pool = SolvePool::new(1).with_store(Arc::clone(&store));
    let replay = pool.run_plans(&plans, &budget.solve);
    assert_eq!(replay.report.misses, 0, "every answer comes from the repaired file");
    for (a, b) in fresh.estimates.iter().zip(&replay.estimates) {
        assert_eq!(a.as_ref().expect("ok"), b.as_ref().expect("ok"));
    }
}
