//! Serve-style soak: one long-lived pool answers edit sessions the way a
//! `cinderella serve` daemon does. A session requests all 13 suite
//! routines once, with loop-bound inference merged in; one of them
//! carries a fresh `x1 <= N` constraint on its entry block (the entry
//! runs once, so the bound never moves, but the ILP is new and must be
//! solved cold). The edited routine rotates through a seeded permutation
//! every 13 sessions.
//!
//! The pool's replay tier is a `ReadWrite` store in a temporary directory,
//! flushed after every request as the daemon does, and LRU-bounded. The
//! soak checks that after many times the capacity's worth of edits, the
//! tier holds exactly its capacity, its journal stays within twice its
//! live bytes plus the compaction floor, every replay still hits (the
//! working set never falls out), every edit misses as often as it does on
//! a fresh pool, every bound is the reference bound, and the process's
//! resident memory stops growing once the tier is full.
//!
//! Release builds run 10 × 520 sessions, ten times the session at which
//! the serve benchmark reads the daemon's peak memory (`cargo test
//! --release -p ipet-pool --test soak`, about 7 s); debug builds run the
//! first 520, which already fill the tier several times over.

use ipet_core::{
    parse_annotations, AnalysisBudget, AnalysisPlan, Analyzer, SolvePool, TimeBound,
    SOLVE_CACHE_CAPACITY,
};
use ipet_hw::Machine;
use ipet_store::{Store, StoreMode, COMPACT_FLOOR_BYTES, STORE_MAGIC};
use ipet_suite::Benchmark;
use std::sync::Arc;

/// Sessions the soak runs.
const SESSIONS: u64 = if cfg!(debug_assertions) { 520 } else { 10 * 520 };

/// Edit constants start here, so every edit is new to the tier.
const EDIT_BASE: u64 = 1_000_000;

/// A splitmix64 stream: the session script only needs to be seeded and
/// stable, not good.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
    }
}

struct Routine<'p> {
    bench: Benchmark,
    analyzer: Analyzer<'p>,
    module: Option<ipet_lang::Module>,
    /// The plan every replay answers.
    plain: AnalysisPlan,
    /// The bound every request must get.
    bound: TimeBound,
    /// Pool misses one edit costs on a fresh pool.
    edit_misses: u64,
}

fn plan(
    r: &Analyzer<'_>,
    b: &Benchmark,
    module: Option<&ipet_lang::Module>,
    edit: Option<u64>,
) -> AnalysisPlan {
    let mut text = b.annotations(r.program());
    if let Some(n) = edit {
        text.push_str(&format!("\nfn {} {{ x1 <= {n}; }}", b.entry));
    }
    let anns = parse_annotations(&text).expect("annotations");
    let merged = ipet_infer::infer_and_merge(module, r, &anns, ipet_infer::InferMode::Merge)
        .expect("inference");
    r.plan(&merged.annotations, &AnalysisBudget::default()).expect("plan")
}

/// Resident set size of this process in KiB.
fn rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[test]
fn serve_style_edit_sessions_stay_at_capacity_with_zero_replay_misses() {
    let solve = AnalysisBudget::default().solve;
    let benches = ipet_suite::all();
    let programs: Vec<_> = benches.iter().map(|b| b.program().expect("compiles")).collect();
    let routines: Vec<Routine<'_>> = benches
        .into_iter()
        .zip(&programs)
        .map(|(bench, program)| {
            let analyzer = Analyzer::new(program, Machine::i960kb()).expect("analyzer");
            let module = ipet_lang::parse_module(bench.source).ok();
            let plain = plan(&analyzer, &bench, module.as_ref(), None);
            let fresh = SolvePool::new(1);
            let est = |batch: ipet_core::PlanBatch| {
                batch.estimates.into_iter().next().expect("one plan").expect("estimate").bound
            };
            let bound = est(fresh.run_plans(std::slice::from_ref(&plain), &solve));
            let edit = plan(&analyzer, &bench, module.as_ref(), Some(EDIT_BASE));
            let batch = fresh.run_plans(std::slice::from_ref(&edit), &solve);
            let edit_misses = batch.report.misses;
            assert_eq!(est(batch), bound, "{}: the edit moved the bound", bench.name);
            Routine { bench, analyzer, module, plain, bound, edit_misses }
        })
        .collect();

    // Primed like a daemon's set-up: one plain pass over the suite.
    let dir = std::env::temp_dir().join(format!("ipet-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("soak.store");
    let store = Arc::new(Store::open(&path));
    assert_eq!(store.mode(), StoreMode::ReadWrite);
    let pool = SolvePool::new(1).with_store(Arc::clone(&store));
    for r in &routines {
        pool.run_plans(std::slice::from_ref(&r.plain), &solve);
    }
    let n = routines.len();
    let mut rss_at_half = None;
    for s in 0..SESSIONS {
        let mut perm: Vec<usize> = (0..n).collect();
        Rng(0x5eed ^ (s / n as u64)).shuffle(&mut perm);
        let edited = perm[(s % n as u64) as usize];
        let mut order: Vec<usize> = (0..n).collect();
        Rng(0xface ^ (s << 8)).shuffle(&mut order);
        for i in order {
            let r = &routines[i];
            let edit = (i == edited).then_some(EDIT_BASE + s);
            let edited_plan;
            let p = match edit {
                Some(k) => {
                    edited_plan = plan(&r.analyzer, &r.bench, r.module.as_ref(), Some(k));
                    &edited_plan
                }
                None => &r.plain,
            };
            let batch = pool.run_plans(std::slice::from_ref(p), &solve);
            let want_misses = if edit.is_some() { r.edit_misses } else { 0 };
            assert_eq!(batch.report.misses, want_misses, "session {s}, {}", r.bench.name);
            let bound = batch.estimates[0].as_ref().expect("estimate").bound;
            assert_eq!(bound, r.bound, "session {s}, {}", r.bench.name);
            store.flush().expect("flush");
        }
        let (live, file) = store.journal_bytes();
        assert_eq!(std::fs::metadata(&path).expect("stat").len(), file);
        assert!(
            file <= STORE_MAGIC.len() as u64 + 2 * live + COMPACT_FLOOR_BYTES,
            "session {s}: {file} journal bytes for {live} live"
        );
        if s == SESSIONS / 2 {
            rss_at_half = rss_kib();
        }
    }
    assert_eq!(pool.cache_len(), SOLVE_CACHE_CAPACITY);
    assert!(pool.cache_stats().evicted > 0);
    assert!(store.stats().compactions > 1, "evictions fed compactions");
    // Flat after warm-up: the tier was full well before the halfway
    // point, so the second half may only add allocator noise.
    if let (Some(half), Some(end)) = (rss_at_half, rss_kib()) {
        assert!(end <= half + half / 10, "resident memory grew from {half} KiB to {end} KiB");
    }
    drop((pool, store));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_evicted_entry_re_solves_to_the_identical_bound_and_witness() {
    let solve = AnalysisBudget::default().solve;
    let pool = SolvePool::new(1);
    let routine = |name: &str| {
        let bench = ipet_suite::by_name(name).expect("bundled benchmark");
        let program = bench.program().expect("compiles");
        (bench, program)
    };
    let (piksrt, piksrt_program) = routine("piksrt");
    let (check, check_program) = routine("check_data");
    let analyzer = |p| Analyzer::new(p, Machine::i960kb()).expect("analyzer");
    let (a, b) = (analyzer(&piksrt_program), analyzer(&check_program));
    let target = plan(&a, &piksrt, None, None);
    let first = pool.run_plans(std::slice::from_ref(&target), &solve);
    assert!(first.report.misses > 0);

    // Edits of another routine push every entry of the first out of the
    // tier: it is the least recently used throughout.
    let mut k = 0;
    while pool.cache_stats().evicted < first.report.misses {
        let edit = plan(&b, &check, None, Some(EDIT_BASE + k));
        pool.run_plans(std::slice::from_ref(&edit), &solve);
        k += 1;
    }
    let again = pool.run_plans(std::slice::from_ref(&target), &solve);
    assert_eq!(again.report.misses, first.report.misses, "every entry was evicted and re-solved");
    let bits = |batch: &ipet_core::PlanBatch| -> Vec<String> {
        batch.report.outcomes.iter().map(|o| format!("{:?}", o.resolution)).collect()
    };
    assert_eq!(bits(&again), bits(&first), "re-solves reproduce every witness");
    let bound = |batch: &ipet_core::PlanBatch| batch.estimates[0].as_ref().expect("estimate").bound;
    assert_eq!(bound(&again), bound(&first));
}
