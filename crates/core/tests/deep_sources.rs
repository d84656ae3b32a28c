//! Sources nested right up to the mini-C nesting limit compile and analyze
//! on a default-stack spawned thread in a debug build — `cinderella serve`
//! compiles `.mc` targets off its main thread — and one level more is a
//! line-numbered compile error rather than a stack overflow.
//!
//! The parser keeps each compound statement in its own function, so the
//! frame repeated per nested statement stays small: in a debug build the
//! at-limit nested `if`s parse in about 420 KiB of stack.

use ipet_core::{parse_annotations, Analyzer};
use ipet_hw::Machine;
use ipet_lang::{compile_with, parse_module, OptLevel, MAX_NESTING};

/// `main` with `body` on line 4: `n` parentheses around one literal, a
/// flat chain of `n` terms, or `n` nested `if`s.
fn shapes(n: usize) -> [(&'static str, String); 3] {
    let wrap =
        |body: String| format!("int main() {{\n  int x;\n  x = 1;\n{body}\n  return x;\n}}\n");
    [
        ("parens", wrap(format!("  x = {}1{};", "(".repeat(n), ")".repeat(n)))),
        ("chain", wrap(format!("  x = x{};", " + x".repeat(n - 1)))),
        ("ifs", wrap(format!("  {}x = 2;{}", "if (x) { ".repeat(n), " }".repeat(n)))),
    ]
}

/// Every front-end and analysis pass that walks the source's tree.
fn compile_and_analyze(src: &str) -> Result<u64, String> {
    let module = parse_module(src).map_err(|e| e.to_string())?;
    compile_with(src, "main", OptLevel::O1).map_err(|e| e.to_string())?;
    let program = compile_with(src, "main", OptLevel::O0).map_err(|e| e.to_string())?;
    let analyzer = Analyzer::new(&program, Machine::i960kb()).map_err(|e| e.to_string())?;
    let anns = parse_annotations("").map_err(|e| e.to_string())?;
    let merged =
        ipet_infer::infer_and_merge(Some(&module), &analyzer, &anns, ipet_infer::InferMode::Merge)
            .map_err(|e| format!("{e:?}"))?;
    let estimate = analyzer.analyze_parsed(&merged.annotations).map_err(|e| e.to_string())?;
    Ok(estimate.bound.upper)
}

#[test]
fn sources_at_the_nesting_limit_analyze_on_a_spawned_thread() {
    for (shape, src) in shapes(MAX_NESTING) {
        let bound = std::thread::spawn(move || compile_and_analyze(&src))
            .join()
            .unwrap_or_else(|_| panic!("{shape}: the analysis panicked"));
        assert!(matches!(bound, Ok(b) if b > 0), "{shape}: {bound:?}");
    }
}

#[test]
fn one_level_past_the_limit_is_a_line_numbered_error() {
    for (shape, src) in shapes(MAX_NESTING + 1) {
        let err = parse_module(&src).expect_err(shape);
        assert_eq!(err.line, 4, "{shape}: {err}");
        assert!(err.message.contains("nested more than"), "{shape}: {err}");
    }
}

#[test]
fn nested_statements_at_the_limit_parse_on_a_512_kib_stack() {
    let [_, _, (_, ifs)] = shapes(MAX_NESTING);
    let parsed = std::thread::Builder::new()
        .stack_size(512 * 1024)
        .spawn(move || parse_module(&ifs).map(|m| m.items.len()))
        .expect("spawn")
        .join()
        .expect("the parse panicked");
    assert_eq!(parsed, Ok(1));
}
