//! Persistent-store tier on real benchmarks: a second *process* (modeled
//! here as a second pool with a fresh in-memory cache) replays certified
//! solves from disk bit-identically, and any damage to the file degrades
//! to cold solves with the same bounds.

use ipet_core::{parse_annotations, AnalysisBudget, AnalysisPlan, Analyzer, SolvePool};
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

    // "Process" 2: fresh pool, fresh in-memory cache — every answer must
    // come from the store, and must equal the cold run exactly.
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

#[test]
fn a_v1_store_file_is_quarantined_and_the_pool_re_solves_canonically() {
    let dir = scratch("v1");
    let path = dir.join("solves.store");
    let budget = AnalysisBudget::default();
    let plans = plans_for(BENCHES, &budget);
    let fresh = SolvePool::new(2).run_plans(&plans, &budget.solve);
    {
        let store = Arc::new(Store::open(&path));
        SolvePool::new(2).with_store(Arc::clone(&store)).run_plans(&plans, &budget.solve);
        store.flush().expect("flush");
    }
    // The same records under the version-1 header: a file written before
    // witnesses of tied optima were canonical.
    let mut bytes = std::fs::read(&path).expect("read store");
    bytes[..ipet_store::STORE_MAGIC.len()].copy_from_slice(b"ipet-store-v1\0\0\0");
    std::fs::write(&path, &bytes).expect("write v1 header");

    let store = Arc::new(Store::open(&path));
    assert_eq!(store.stats().loaded, 0);
    assert_eq!(store.stats().quarantined, 1, "the whole file is one quarantine");
    let pool = SolvePool::new(2).with_store(Arc::clone(&store));
    let resolved = pool.run_plans(&plans, &budget.solve);
    assert_eq!(store.stats().hits, 0, "nothing replays from a v1 file");
    assert_eq!(resolved.report.misses, fresh.report.misses, "every job is solved again");
    for ((a, b), name) in fresh.estimates.iter().zip(&resolved.estimates).zip(BENCHES) {
        let (a, b) = (a.as_ref().expect("ok"), b.as_ref().expect("ok"));
        assert_eq!(a, b, "{name}: the re-solve differs from a storeless run");
    }
}

#[test]
fn changed_annotations_invalidate_stale_entries() {
    let dir = scratch("invalidate");
    let path = dir.join("solves.store");
    let budget = AnalysisBudget::default();

    let bench = ipet_suite::by_name("piksrt").expect("bundled benchmark");
    let program = bench.program().expect("compiles");
    let analyzer = Analyzer::new(&program, Machine::i960kb()).expect("analyzer");
    let anns_a = parse_annotations(&bench.annotations(&program)).expect("annotations");

    {
        let store = Arc::new(Store::open(&path));
        let pool = SolvePool::new(1).with_store(Arc::clone(&store));
        let plan = analyzer.plan(&anns_a, &budget).expect("plan");
        let _ = pool.run_plans(std::slice::from_ref(&plan), &budget.solve);
        store.flush().expect("flush");
        assert!(!store.is_empty());
    }

    // Same program, different loop bound: the invalidation hash changes,
    // so the persisted entries must be dropped, not replayed or kept.
    let text = bench.annotations(&program).replace("[0, 9]", "[0, 7]");
    let anns_b = parse_annotations(&text).expect("modified annotations");
    assert_ne!(anns_a, anns_b, "test premise: annotations changed");
    let store = Arc::new(Store::open(&path));
    let loaded = store.stats().loaded;
    assert!(loaded > 0);
    let pool = SolvePool::new(1).with_store(Arc::clone(&store));
    let plan = analyzer.plan(&anns_b, &budget).expect("plan");
    let batch = pool.run_plans(std::slice::from_ref(&plan), &budget.solve);
    assert!(batch.estimates[0].is_ok());
    assert_eq!(store.stats().hits, 0, "stale entries must not replay");
    assert!(store.stats().invalidated > 0, "stale entries must be dropped");
}

#[test]
fn entries_under_another_content_hash_retire_and_re_solve_cold() {
    // A store written by a build whose content hash differs (the hash once
    // covered the program's disassembly, not its fields): same routine
    // identity, same keys and problems, another invalidation hash. Such
    // entries must retire on first contact, never replay, and cost one
    // cold solve per job.
    let budget = AnalysisBudget::default();
    let plans = plans_for(BENCHES, &budget);
    let fresh = SolvePool::new(2).run_plans(&plans, &budget.solve);
    let seeded = |skew: u128| {
        let store = Arc::new(Store::in_memory());
        let mut outcomes = fresh.report.outcomes.iter();
        for plan in &plans {
            for job in plan.jobs() {
                let o = outcomes.next().expect("one outcome per job");
                let ctx = (plan.identity_hash(), plan.invalidation_hash() ^ skew);
                store.insert(job.key, ctx.0, ctx.1, &job.problem, &o.resolution, o.stats);
            }
        }
        assert!(!store.is_empty());
        store
    };

    // Control: under the current hash the seeded entries replay.
    let current = seeded(0);
    SolvePool::new(2).with_store(Arc::clone(&current)).run_plans(&plans, &budget.solve);
    assert!(current.stats().hits > 0, "seeded keys must match the pool's");
    assert_eq!(current.stats().invalidated, 0);

    let stale = seeded(1);
    let seeded_entries = stale.len() as u64;
    let batch = SolvePool::new(2).with_store(Arc::clone(&stale)).run_plans(&plans, &budget.solve);
    assert_eq!(stale.stats().hits, 0, "an entry under another content hash must not replay");
    assert_eq!(stale.stats().invalidated, seeded_entries, "every stale entry retires");
    assert_eq!(batch.report.misses, fresh.report.misses, "every job is solved again");
    for ((a, b), name) in fresh.estimates.iter().zip(&batch.estimates).zip(BENCHES) {
        let (a, b) = (a.as_ref().expect("ok"), b.as_ref().expect("ok"));
        assert_eq!(a, b, "{name}: the re-solve differs from a storeless run");
    }
}

/// A store written by the whole-file format that preceded the journal
/// (`cinderella analyze check_data piksrt --store`): the header, then
/// sorted solve records. It must load as it is, replay, and grow by
/// appends without being rewritten.
#[test]
fn a_store_in_the_whole_file_format_replays_and_grows_by_appends() {
    let fixture = include_bytes!("data/check_data-piksrt.v2.store");
    let dir = scratch("v2fixture");
    let path = dir.join("solves.store");
    std::fs::write(&path, fixture).expect("copy fixture");
    let budget = AnalysisBudget::default();
    let store = Arc::new(Store::open(&path));
    assert_eq!((store.stats().loaded, store.stats().quarantined), (6, 0));

    let pool = SolvePool::new(1).with_store(Arc::clone(&store));
    let replay = pool.run_plans(&plans_for(&["check_data", "piksrt"], &budget), &budget.solve);
    assert_eq!(replay.report.misses, 0, "every answer comes from the fixture");
    assert_eq!(store.stats().hits, 6);
    store.flush().expect("clean flush");
    assert_eq!(store.stats().flushes, 0, "replays leave the file alone");

    let fresh = pool.run_plans(&plans_for(&["dhry"], &budget), &budget.solve);
    assert!(fresh.report.misses > 0);
    store.flush().expect("append");
    assert_eq!((store.stats().appends, store.stats().compactions), (1, 0));
    let grown = std::fs::read(&path).expect("read");
    assert_eq!(&grown[..fixture.len()], &fixture[..], "the old image is kept byte for byte");
    let total = store.len() as u64;
    drop(pool);
    drop(store);
    let reopened = Store::open(&path);
    assert_eq!((reopened.stats().loaded, reopened.stats().quarantined), (total, 0));
}
