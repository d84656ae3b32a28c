//! Per-call-site expansion labels every instance with its whole call
//! string, so a chain of functions, each calling the next, has labels of
//! quadratic total size. `Instances::expand` caps that total at
//! `Instances::MAX_LABEL_BYTES`: a chain right at the cap analyzes, and
//! one byte more is an error.

use ipet_cfg::{CallGraphError, Instances};
use ipet_core::{AnalysisError, Analyzer};
use ipet_hw::Machine;

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
