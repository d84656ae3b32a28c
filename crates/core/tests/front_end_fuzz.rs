//! Seeded fuzzing of two front ends that read untrusted text: the `.s`
//! assembler (`ipet_arch::parse_program`, then the analysis of what it
//! assembles) and the IDL translator (`compile_idl`, then the analysis of
//! what it lowers to). Every input must come back `Ok` or as an error;
//! none may panic.
//!
//! The inputs are the bundled routines' disassembly and IDL written for
//! them, mutated line by line and token by token with the vendored `rand`
//! from a fixed seed, so every run checks the same inputs.

use ipet_arch::{disassemble_program, parse_program};
use ipet_core::{
    compile_idl, parse_annotations, AnalysisBudget, Analyzer, CacheMode, SolveBudget, SolvePool,
    SolveRequest,
};
use ipet_hw::Machine;
use rand::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Mutated variants of each routine's disassembly.
const ASM_CASES_PER_ROUTINE: usize = 40;

/// Generated or mutated IDL files.
const IDL_CASES: usize = 320;

/// Tokens that stress the numeric, register, target and name parsers.
const TOKENS: &str = "0 1 -1 2147483647 -2147483648 2147483648 9223372036854775807 \
    -9223372036854775808 18446744073709551615 99999999999999999999999 r0 r8 r31 r255 r256 r-1 \
    zero sp fp rv @0 @1 @-1 @4294967295 @18446744073709551615 [fp+1] [sp-2] [r9-2147483648] \
    [fp+2147483648] [fp+] [+1] [] [fp ldc mov add mul div ld st br.eq br.zz br. jmp call ret \
    nop main main: : f: .entry .global buf g @0 words=4294967295 words=0 init = \
    frame=4294967295 frame=-1 params=9 params=18446744073709551615 0: 99999999999999999999: \
    , ; # é";

/// IDL-specific tokens.
const IDL_TOKENS: &str = "idl { } iterates times samepath exclusive exactlyone implies x0 x1 \
    x2 x6 x13 x99 x18446744073709551615 x18446744073709551616 x-1 x [0, 10] [1, 10] [10, 1] \
    [-1, 5] [0, 9223372036854775807] [9223372036854775807, 9223372036854775808] [0, 1, 2] [] [ \
    ] ; # check_data piksrt nosuchfn";

fn pick<'a>(rng: &mut StdRng, items: &[&'a str]) -> &'a str {
    items[rng.gen_range(0..items.len())]
}

/// Applies one to four random edits to `text`: a line deleted,
/// duplicated, swapped or inserted, a token replaced, or the text cut
/// short.
fn mutate(rng: &mut StdRng, text: &str, tokens: &[&str]) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    for _ in 0..rng.gen_range(1..=4) {
        if lines.is_empty() {
            lines.push(String::new());
        }
        let at = rng.gen_range(0..lines.len());
        match rng.gen_range(0..7) {
            0 => {
                lines.remove(at);
            }
            1 => {
                let line = lines[at].clone();
                let to = rng.gen_range(0..=lines.len());
                lines.insert(to, line);
            }
            2 => {
                let other = rng.gen_range(0..lines.len());
                lines.swap(at, other);
            }
            3 => {
                let n = rng.gen_range(1..5);
                let line: Vec<&str> = (0..n).map(|_| pick(rng, tokens)).collect();
                lines.insert(at, line.join(" "));
            }
            4 | 5 => {
                let mut words: Vec<String> =
                    lines[at].split_whitespace().map(str::to_string).collect();
                let token = pick(rng, tokens).to_string();
                if words.is_empty() {
                    words.push(token);
                } else {
                    let w = rng.gen_range(0..words.len());
                    words[w] = token;
                }
                lines[at] = words.join(" ");
            }
            _ => {
                let keep = rng.gen_range(0..=lines[at].len());
                let cut = (0..=keep).rev().find(|&i| lines[at].is_char_boundary(i)).unwrap_or(0);
                lines[at].truncate(cut);
                lines.truncate(at + 1);
            }
        }
    }
    lines.join("\n")
}

/// Applies one to three edits that keep `text` assemblable more often
/// than not: a branch or jump sent to another index, a condition or a
/// callee changed, a call inserted, or two instructions swapped. These
/// make the odd control flow (irreducible loops, unreachable blocks, new
/// calls) the analysis must survive.
fn rewire(rng: &mut StdRng, text: &str, functions: &[String]) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let instrs: Vec<usize> = (0..lines.len()).filter(|&i| lines[i].starts_with("  ")).collect();
    for _ in 0..rng.gen_range(1..=3) {
        let at = instrs[rng.gen_range(0..instrs.len())];
        let mut words: Vec<String> = lines[at].split_whitespace().map(str::to_string).collect();
        match rng.gen_range(0..4) {
            0 => {
                for w in words.iter_mut().filter(|w| w.starts_with('@')) {
                    *w = format!("@{}", rng.gen_range(0..40));
                }
            }
            1 => {
                for w in words.iter_mut().filter(|w| w.starts_with("br.")) {
                    *w = pick(rng, &["br.eq", "br.ne", "br.lt", "br.le", "br.gt", "br.ge"]).into();
                }
            }
            2 => {
                if let Some(c) = words.iter().position(|w| w == "call") {
                    words.truncate(c + 1);
                    words.push(functions[rng.gen_range(0..functions.len())].clone());
                } else if let Some(last) = words.last_mut() {
                    *last =
                        format!("{last}\n  call {}", functions[rng.gen_range(0..functions.len())]);
                }
            }
            _ => {
                // The assembler ignores the `N:` index prefixes.
                lines.swap(at, instrs[rng.gen_range(0..instrs.len())]);
                continue;
            }
        }
        lines[at] = format!("  {}", words.join(" "));
    }
    lines.join("\n")
}

/// Plans and solves `program` under `annotations` on a small budget, so a
/// mutated program that makes a hard ILP still finishes quickly. Errors
/// are fine; only a panic fails the test.
fn analyze(program: &ipet_arch::Program, annotations: &str, machine: Machine, split: bool) {
    let Ok(analyzer) = Analyzer::new(program, machine) else {
        return;
    };
    let mode = if split { CacheMode::FirstIterSplit } else { CacheMode::AllMiss };
    let analyzer = analyzer.with_cache_mode(mode);
    let Ok(anns) = parse_annotations(annotations) else {
        return;
    };
    let budget = AnalysisBudget {
        solve: SolveBudget { deadline_ticks: Some(4_000), max_nodes: 200 },
        max_sets: 64,
        degrade: true,
    };
    let Ok(plan) = analyzer.plan(&anns, &budget) else {
        return;
    };
    let request = SolveRequest { budget: budget.solve, audit: true, ..SolveRequest::default() };
    let _ = SolvePool::new(1).run(std::slice::from_ref(&plan), &request);
}

/// Runs `f`, reporting `input` if it panics.
fn no_panic(what: &str, input: &str, f: impl FnOnce()) {
    if catch_unwind(AssertUnwindSafe(f)).is_err() {
        panic!("{what} panicked on this input:\n{input}");
    }
}

const MACHINES: [fn() -> Machine; 3] =
    [Machine::i960kb, Machine::i960kb_with_dcache, Machine::dsp3210];

#[test]
fn mutated_assembly_never_panics() {
    let mut rng = StdRng::seed_from_u64(0x1BE7_0A55);
    let tokens: Vec<&str> = TOKENS.split_whitespace().collect();
    let mut assembled = 0;
    for bench in ipet_suite::all() {
        let program = bench.program().expect("bundled routines compile");
        let text = disassemble_program(&program);
        let annotations = bench.annotations(&program);
        let functions: Vec<String> = program.functions.iter().map(|f| f.name.clone()).collect();
        for case in 0..ASM_CASES_PER_ROUTINE {
            let input = if case % 2 == 0 {
                mutate(&mut rng, &text, &tokens)
            } else {
                rewire(&mut rng, &text, &functions)
            };
            let machine = MACHINES[case % MACHINES.len()]();
            let with_annotations = rng.gen_bool(0.7);
            no_panic("the assembler or the analysis", &input, || {
                if let Ok(program) = parse_program(&input) {
                    assembled += 1;
                    let anns = if with_annotations { annotations.as_str() } else { "" };
                    analyze(&program, anns, machine, case % 4 < 2);
                }
            });
        }
    }
    // Most mutations keep the text assemblable, so the analysis runs too.
    assert!(assembled > ASM_CASES_PER_ROUTINE * 3, "only {assembled} inputs assembled");
}

/// One IDL statement line from the grammar, its arguments drawn from the
/// token pools.
fn idl_statement(rng: &mut StdRng, tokens: &[&str]) -> String {
    let block = |rng: &mut StdRng| format!("x{}", rng.gen_range(1..16));
    let range = |rng: &mut StdRng| {
        let lo = rng.gen_range(0..12);
        format!("[{lo}, {}]", lo + rng.gen_range(0..12))
    };
    match rng.gen_range(0..7) {
        0 => format!("    iterates {} {};", block(rng), range(rng)),
        1 => format!("    times {} {};", block(rng), range(rng)),
        2 => format!("    samepath {} {};", block(rng), block(rng)),
        3 => format!("    exclusive {} {};", block(rng), block(rng)),
        4 => format!("    exactlyone {} {};", block(rng), block(rng)),
        5 => format!("    implies {} {};", block(rng), block(rng)),
        _ => {
            let n = rng.gen_range(1..5);
            let words: Vec<&str> = (0..n).map(|_| pick(rng, tokens)).collect();
            format!("    {};", words.join(" "))
        }
    }
}

#[test]
fn generated_and_mutated_idl_never_panics() {
    let mut rng = StdRng::seed_from_u64(0x1D1_F022);
    let tokens: Vec<&str> = IDL_TOKENS.split_whitespace().collect();
    let bench = ipet_suite::by_name("check_data").expect("bundled");
    let program = bench.program().expect("compiles");
    let annotations = bench.annotations(&program);
    let mut lowered = 0;
    for case in 0..IDL_CASES {
        let mut text = String::from("idl check_data {\n");
        for _ in 0..rng.gen_range(0..6) {
            text.push_str(&idl_statement(&mut rng, &tokens));
            text.push('\n');
        }
        text.push_str("}\n");
        if case % 2 == 1 {
            text = mutate(&mut rng, &text, &tokens);
        }
        let machine = MACHINES[case % MACHINES.len()]();
        no_panic("the IDL translator or the analysis", &text, || {
            if let Ok(dsl) = compile_idl(&text) {
                lowered += 1;
                analyze(&program, &format!("{annotations}\n{dsl}"), machine, case % 3 == 0);
            }
        });
    }
    assert!(lowered > IDL_CASES / 4, "only {lowered} inputs lowered");
}
