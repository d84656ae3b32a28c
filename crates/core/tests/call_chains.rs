//! Per-call-site expansion labels every instance with its whole call
//! string, so a chain of functions, each calling the next, has labels of
//! quadratic total size. `Instances::expand` caps that total at
//! `Instances::MAX_LABEL_BYTES`: a chain right at the cap analyzes, and
//! one byte more is an error. No label reaches the solve layer, so a
//! chain's store file does not grow with its function names. Planning is
//! linear in the call sites of one function, in both context modes.

use ipet_cfg::{CallGraphError, EdgeId, InstanceId, Instances};
use ipet_core::{
    structural_constraints, AnalysisBudget, AnalysisError, Analyzer, Annotations, ContextMode,
    SolvePool, VarRef,
};
use ipet_hw::Machine;
use ipet_store::{Store, StoreMode};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// `main` calls `names[0]`, each function calls the next, and the last
/// returns a constant.
fn chain(names: &[String]) -> String {
    let mut src = String::new();
    for (i, name) in names.iter().enumerate() {
        let body = names.get(i + 1).map_or("1".to_string(), |next| format!("{next}()"));
        src.push_str(&format!("int {name}() {{ return {body}; }}\n"));
    }
    src + &format!("int main() {{ return {}(); }}\n", names[0])
}

/// The bytes of the labels `expand` writes for `chain(names)`: `main`,
/// then one `/f1:<name>` more per level.
fn label_bytes(names: &[String]) -> usize {
    let mut label = "main".len();
    let mut total = label;
    for name in names {
        label += "/f1:".len() + name.len();
        total += label;
    }
    total
}

fn analyze(src: &str) -> Result<u64, AnalysisError> {
    let program = ipet_lang::compile(src, "main").expect("the chain compiles");
    let analyzer = Analyzer::new(&program, Machine::i960kb())?;
    Ok(analyzer.analyze("")?.bound.upper)
}

#[test]
fn a_chain_at_the_label_cap_analyzes_and_one_byte_more_is_refused() {
    // Long names keep the chain short, so the debug build analyzes it
    // quickly.
    let name = |i: usize| format!("f{i}_{}", "x".repeat(200));
    let mut names: Vec<String> = vec![name(0)];
    while label_bytes(&[names.clone(), vec![name(names.len())]].concat())
        <= Instances::MAX_LABEL_BYTES
    {
        names.push(name(names.len()));
    }
    // Pad the last name, which only the last label holds, up to the cap.
    let pad = Instances::MAX_LABEL_BYTES - label_bytes(&names);
    names.last_mut().unwrap().push_str(&"y".repeat(pad));
    assert_eq!(label_bytes(&names), Instances::MAX_LABEL_BYTES);

    let src = chain(&names);
    let program = ipet_lang::compile(&src, "main").unwrap();
    let instances = Instances::expand(&program, program.entry).expect("at the cap");
    let labels: usize = instances.instances.iter().map(|i| i.label.len()).sum();
    assert_eq!(labels, Instances::MAX_LABEL_BYTES);
    assert!(matches!(analyze(&src), Ok(bound) if bound > 0));

    names.last_mut().unwrap().push('y');
    assert_eq!(
        analyze(&chain(&names)),
        Err(AnalysisError::CallGraph(CallGraphError::LabelsTooLong(Instances::MAX_LABEL_BYTES)))
    );
}

#[test]
fn a_deep_chain_fails_fast_with_a_factual_error() {
    let names: Vec<String> = (0..6000).map(|i| format!("f{i}")).collect();
    let err = analyze(&chain(&names)).unwrap_err();
    assert!(matches!(err, AnalysisError::CallGraph(CallGraphError::LabelsTooLong(_))), "{err}");
    // The remedy is the caller's to name: `cinderella analyze` suggests
    // `--shared`, a serve request has no such field.
    assert!(!err.to_string().contains("--"), "{err}");
}

/// The length of the store file a pool writes for `chain(names)`.
fn store_bytes(names: &[String], dir: &std::path::Path) -> u64 {
    let program = ipet_lang::compile(&chain(names), "main").expect("the chain compiles");
    let analyzer = Analyzer::new(&program, Machine::i960kb()).expect("analyzer");
    let budget = AnalysisBudget::default();
    let plan = analyzer.plan(&Annotations::default(), &budget).expect("plan");
    let path = dir.join("chain.store");
    let store = Arc::new(Store::open(&path));
    assert_eq!(store.mode(), StoreMode::ReadWrite);
    let batch = SolvePool::new(1)
        .with_store(Arc::clone(&store))
        .run_plans(std::slice::from_ref(&plan), &budget.solve);
    assert!(batch.estimates[0].is_ok());
    assert!(batch.report.misses > 0, "the first run solves fresh");
    store.flush().expect("flush");
    std::fs::metadata(&path).expect("the store file").len()
}

#[test]
fn a_store_file_does_not_grow_with_function_names() {
    // The same 40-deep chain under 2-character and 200-character names.
    let short: Vec<String> =
        (0..40).map(|i| format!("{}{}", char::from(b'a' + i / 10), i % 10)).collect();
    let long: Vec<String> = short.iter().map(|n| format!("{n}{}", "x".repeat(198))).collect();
    assert!(short.iter().all(|n| n.len() == 2) && long.iter().all(|n| n.len() == 200));
    let dir = std::env::temp_dir().join(format!("ipet-chain-store-{}", std::process::id()));
    let bytes: Vec<u64> = [("short", &short), ("long", &long)]
        .iter()
        .map(|(tag, names)| {
            let dir = dir.join(tag);
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("mkdir scratch");
            store_bytes(names, &dir)
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(bytes[0] > ipet_store::STORE_MAGIC.len() as u64, "records were written");
    assert_eq!(bytes[0], bytes[1], "a record's size follows the problem, not the names");
}

/// `main` calls `g` `calls` times.
fn fan(calls: usize) -> String {
    let mut src = String::from("int g() { return 1; }\nint main() { int s; s = 0;\n");
    for _ in 0..calls {
        src.push_str("  s = s + g();\n");
    }
    src + "  return s; }\n"
}

/// Checks that every call site of `fan(calls)`'s `main` couples its own
/// `f`-edge to `g`'s entry in `context`, and returns the plan's row count
/// and its median plan time over three runs, in seconds.
fn plan_fan(calls: usize, context: ContextMode) -> (usize, f64) {
    let program = ipet_lang::compile(&fan(calls), "main").expect("the fan compiles");
    let analyzer = Analyzer::new_with_context(&program, Machine::i960kb(), context).expect("ok");
    let instances = analyzer.instances();
    let main = InstanceId(0);
    let cfg = instances.cfg(main);
    assert_eq!(cfg.call_sites().len(), calls);
    let f_edges: Vec<EdgeId> = cfg
        .call_sites()
        .iter()
        .map(|&(site, block, _, _)| {
            let (edge, _) = cfg.call_edge(site).expect("every site has an f-edge");
            assert_eq!(cfg.edges()[edge.0].from, Some(block));
            assert_eq!(cfg.site_of_edge(edge), Some(site));
            edge
        })
        .collect();
    // `g`'s entry rows by instance: `d1(g) - f-edge(s) ... = 0`.
    let entries: HashMap<InstanceId, Vec<(VarRef, i64)>> = structural_constraints(instances)
        .into_iter()
        .filter_map(|row| match row.terms.first() {
            Some(&(VarRef::Edge(inst, EdgeId(0)), _)) if inst != main => Some((inst, row.terms)),
            _ => None,
        })
        .collect();
    let entry = |inst: InstanceId| (VarRef::Edge(inst, EdgeId(0)), 1);
    let f_edge = |site: usize| (VarRef::Edge(main, f_edges[site]), -1);
    match context {
        ContextMode::PerCallSite => {
            assert_eq!(entries.len(), calls);
            for site in 0..calls {
                let child = instances.child_at(main, site).expect("one instance per site");
                assert_eq!(entries[&child], vec![entry(child), f_edge(site)], "site {site}");
            }
        }
        ContextMode::Shared => {
            let g = instances.child_at(main, 0).expect("g's instance");
            let want: Vec<_> = std::iter::once(entry(g)).chain((0..calls).map(f_edge)).collect();
            assert_eq!(entries.len(), 1);
            assert_eq!(entries[&g], want);
        }
    }
    let budget = AnalysisBudget::default();
    let mut rows = 0;
    let mut secs: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            let plan = analyzer.plan(&Annotations::default(), &budget).expect("plan");
            let elapsed = start.elapsed().as_secs_f64();
            rows = plan.jobs()[0].problem.constraints.len();
            elapsed
        })
        .collect();
    secs.sort_by(f64::total_cmp);
    (rows, secs[1])
}

#[test]
fn planning_is_linear_in_the_call_sites_of_one_function() {
    for context in [ContextMode::PerCallSite, ContextMode::Shared] {
        let (one, _) = plan_fan(1, context);
        let (small, small_secs) = plan_fan(1000, context);
        let (large, large_secs) = plan_fan(4000, context);
        // Every call site past the first adds the same rows.
        assert_eq!((large - one) * 999, (small - one) * 3999, "{context:?}");
        // Linear growth is about 4x; per-site lookups that rescan the
        // function's sites made it about 14x.
        assert!(
            large_secs < 8.0 * small_secs,
            "{context:?}: 4,000 calls plan in {large_secs:.4} s, 1,000 in {small_secs:.4} s"
        );
    }
}
