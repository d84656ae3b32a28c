//! Robustness: the annotation, IDL and DSL parsers must never panic, no
//! matter what text they are fed — they return structured errors.

use ipet_core::{compile_idl, parse_annotations, parse_idl};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary UTF-8 never panics the DSL parser.
    #[test]
    fn dsl_parser_never_panics(src in ".*") {
        let _ = parse_annotations(&src);
    }

    /// Arbitrary text built from DSL-ish tokens never panics either (this
    /// drives the parser much deeper than raw unicode).
    #[test]
    fn dsl_parser_survives_token_soup(
        toks in prop::collection::vec(
            prop_oneof![
                Just("fn"), Just("loop"), Just("in"), Just("{"), Just("}"),
                Just("("), Just(")"), Just("["), Just("]"), Just(";"),
                Just(","), Just("&"), Just("|"), Just("="), Just("<="),
                Just(">="), Just("+"), Just("-"), Just("*"), Just("."),
                Just("x1"), Just("d2"), Just("f1"), Just("main"), Just("7"),
                Just("9223372036854775807"),
            ],
            0..40,
        )
    ) {
        let src = toks.join(" ");
        let _ = parse_annotations(&src);
    }

    /// A sum of constants, extremes included, parses to its exact value
    /// while every partial sum fits in `i64`, and to an error otherwise:
    /// it never panics and never wraps.
    #[test]
    fn constant_sums_are_exact_or_refused(
        terms in prop::collection::vec(
            (any::<bool>(), prop_oneof![
                Just(0i64), Just(1), Just(i64::MAX - 1), Just(i64::MAX), 0i64..1000,
            ]),
            1..6,
        )
    ) {
        let mut src = String::from("fn main { x1 <= ");
        let mut exact: Option<i64> = Some(0);
        for (i, &(minus, n)) in terms.iter().enumerate() {
            if minus {
                src += " - ";
            } else if i > 0 {
                src += " + ";
            }
            src += &n.to_string();
            exact = exact.and_then(|c| if minus { c.checked_sub(n) } else { c.checked_add(n) });
        }
        src += "; }";
        match (parse_annotations(&src), exact) {
            (Ok(anns), Some(c)) => {
                let text = format!("{:?}", anns.functions[0].1);
                prop_assert!(text.contains(&format!("constant: {c} ")), "{src}: {text}");
            }
            (Err(e), None) => prop_assert!(e.to_string().contains("out of range"), "{src}: {e}"),
            (got, want) => prop_assert!(false, "{src}: {got:?}, want {want:?}"),
        }
    }

    /// The IDL parser and its lowering never panic.
    #[test]
    fn idl_parser_never_panics(src in ".*") {
        let _ = parse_idl(&src);
        let _ = compile_idl(&src);
    }

    /// IDL token soup.
    #[test]
    fn idl_parser_survives_token_soup(
        toks in prop::collection::vec(
            prop_oneof![
                Just("idl"), Just("iterates"), Just("times"), Just("samepath"),
                Just("exclusive"), Just("exactlyone"), Just("implies"),
                Just("{"), Just("}"), Just(";"), Just("x1"), Just("x9"),
                Just("[1,"), Just("2]"), Just("f"), Just("#c"), Just("\n"),
            ],
            0..30,
        )
    ) {
        let src = toks.join(" ");
        let _ = parse_idl(&src);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Structured random IDL programs always lower to valid DSL with the
    /// expected statement counts (the §III-C translation is total on the
    /// IDL fragment).
    #[test]
    fn idl_lowering_is_total_and_countable(
        stmts in prop::collection::vec(
            prop_oneof![
                (1usize..9, 0i64..5, 5i64..20)
                    .prop_map(|(h, lo, hi)| format!("iterates x{h} [{lo}, {hi}];")),
                (1usize..9, 0i64..3, 3i64..9)
                    .prop_map(|(b, lo, hi)| format!("times x{b} [{lo}, {hi}];")),
                (1usize..9, 1usize..9).prop_map(|(a, b)| format!("samepath x{a} x{b};")),
                (1usize..9, 1usize..9).prop_map(|(a, b)| format!("exclusive x{a} x{b};")),
                (1usize..9, 1usize..9).prop_map(|(a, b)| format!("exactlyone x{a} x{b};")),
                (1usize..9, 1usize..9).prop_map(|(a, b)| format!("implies x{a} x{b};")),
            ],
            0..12,
        )
    ) {
        let src = format!("idl f {{\n{}\n}}", stmts.join("\n"));
        let idl = parse_idl(&src).expect("structured IDL parses");
        prop_assert_eq!(idl.functions[0].1.len(), stmts.len());
        let dsl = compile_idl(&src).expect("lowering is total");
        let anns = parse_annotations(&dsl).expect("lowered DSL reparses");
        // `times` lowers to two statements; everything else to one.
        let expected: usize = stmts
            .iter()
            .map(|s| if s.starts_with("times") { 2 } else { 1 })
            .sum();
        prop_assert_eq!(anns.for_function("f").len(), expected);
    }
}
