//! Fuzzes the request lines of `cinderella serve`. One daemon answers
//! several hundred generated lines: random field names, JSON types and
//! values for every request field, JSON nested past the parser's depth
//! limit, non-JSON text, and annotation text built from DSL fragments
//! whose groups nest past the annotation limit and whose set counts are
//! either small or past the set cap. Every line must get exactly one
//! `done` line with a status of 0 to 3, never the line of an isolated
//! panic; a well-typed request for a bundled target must get the bound an
//! in-process analysis gets; and afterwards `stats` answers and `shutdown`
//! exits 0. A second daemon, started with `--store`, answers generated
//! source files: a deep call chain, control flow nested just under the
//! parser's limit, and annotations with many disjunctions.

use ipet_core::{AnalysisBudget, Analyzer, MAX_GROUP_DEPTH};
use ipet_trace::json::MAX_DEPTH;
use ipet_trace::Json;
use rand::prelude::*;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};

const SEED: u64 = 0x5E4E_F022;
const LINES: usize = 320;

/// Every bundled benchmark; each one's entry function is its name.
const TARGETS: &[&str] = &[
    "check_data",
    "fft",
    "piksrt",
    "des",
    "line",
    "circle",
    "jpeg_fdct_islow",
    "jpeg_idct_islow",
    "recon",
    "fullsearch",
    "whetstone",
    "dhry",
    "matgen",
];

fn pick<'a, T>(rng: &mut StdRng, items: &'a [T]) -> &'a T {
    &items[rng.gen_range(0..items.len())]
}

fn random_string(rng: &mut StdRng) -> String {
    const PIECES: &[&str] = &[
        "", "a", "x1", "fn", "{", "}", "(", "\"", "\\", "\n", "\t", "é", "∞", "\u{0}", "null",
        "..", "/", ".mc", ".s", "only", "op", "1e309", "-0",
    ];
    (0..rng.gen_range(0..6)).map(|_| *pick(rng, PIECES)).collect()
}

fn random_number(rng: &mut StdRng) -> Json {
    Json::Num(match rng.gen_range(0..6) {
        0 => rng.gen_range(0u64..100) as f64,
        1 => -(rng.gen_range(1u64..1000) as f64),
        2 => rng.gen_range(0u64..1000) as f64 / 7.0,
        3 => 1e300,
        4 => u64::MAX as f64,
        _ => rng.gen_range(0u64..5000) as f64,
    })
}

/// Any JSON value, nested at most `depth` more levels.
fn random_value(rng: &mut StdRng, depth: usize) -> Json {
    match rng.gen_range(0..if depth == 0 { 4 } else { 6 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen_bool(0.5)),
        2 => random_number(rng),
        3 => Json::Str(random_string(rng)),
        4 => Json::Arr((0..rng.gen_range(0..4)).map(|_| random_value(rng, depth - 1)).collect()),
        _ => Json::Obj(
            (0..rng.gen_range(0..4))
                .map(|_| (random_string(rng), random_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// A relational atom. A tame one, `xK >= 0` over one of the first three
/// blocks, holds on every path; a wild one may name an edge, a call site
/// or a callee's block, fall out of range, or cut every path.
fn atom(rng: &mut StdRng, wild: bool) -> String {
    if !wild {
        return format!("x{} >= 0", rng.gen_range(1..4));
    }
    let kind = pick(rng, &["x", "x", "x", "d", "f"]);
    let index = if rng.gen_bool(0.9) { rng.gen_range(1..16) } else { rng.gen_range(16..999) };
    let path = if rng.gen_bool(0.1) { ".f1" } else { "" };
    let rel = pick(rng, &[">=", ">=", "<=", "="]);
    let rhs = if rng.gen_bool(0.8) { rng.gen_range(0..4) } else { rng.gen_range(0..100_000) };
    format!("{}{kind}{index}{path} {rel} {rhs}", pick(rng, &["", "", "2 ", "-1*"]))
}

/// An atom inside `depth` parenthesised groups.
fn grouped(rng: &mut StdRng, depth: usize, wild: bool) -> String {
    format!("{}{}{}", "(".repeat(depth), atom(rng, wild), ")".repeat(depth))
}

/// Annotation text for `func`. Every disjunctive statement has two
/// alternatives, and there are at most three of them (16 sets with the
/// one disjunction of check_data's own annotations) or more than log2 of
/// the set cap, so no request solves thousands of ILPs.
fn annotations(rng: &mut StdRng, func: &str) -> String {
    let cap_bits = AnalysisBudget::DEFAULT_MAX_SETS.trailing_zeros() as usize;
    let disjunctive =
        if rng.gen_bool(0.75) { rng.gen_range(0..=3) } else { rng.gen_range(cap_bits + 1..=20) };
    let mut stmts = Vec::new();
    // At most one disjunction nests near the group limit, and at most one
    // holds a wild atom, so that most requests still plan.
    let deep = rng.gen_bool(0.3).then(|| rng.gen_range(0..disjunctive.max(1)));
    let wild = rng.gen_bool(0.2).then(|| rng.gen_range(0..disjunctive.max(1)));
    for i in 0..disjunctive {
        let depth = if deep == Some(i) {
            rng.gen_range(MAX_GROUP_DEPTH - 1..=MAX_GROUP_DEPTH + 1)
        } else {
            rng.gen_range(0..3)
        };
        let first = grouped(rng, depth, wild == Some(i));
        stmts.push(format!("{first} | {}", grouped(rng, 0, false)));
    }
    for _ in 0..rng.gen_range(0..=1) {
        stmts.push(match rng.gen_range(0..4) {
            0 => format!(
                "loop x{} in [{}, {}]",
                rng.gen_range(1..12),
                rng.gen_range(-2i64..3),
                rng.gen_range(-1i64..40)
            ),
            1 => {
                let depth = rng.gen_range(0..=MAX_GROUP_DEPTH);
                grouped(rng, depth, true)
            }
            2 => format!("{} & {}", grouped(rng, 1, true), grouped(rng, 1, false)),
            _ => atom(rng, true),
        });
    }
    if rng.gen_bool(0.04) {
        stmts.push(grouped(rng, 50_000, false));
    }
    stmts.shuffle(rng);
    let name = if rng.gen_bool(0.95) { func.to_string() } else { random_string(rng) };
    let mut text = format!("fn {name} {{ {}; }}", stmts.join("; "));
    if stmts.is_empty() {
        text = format!("fn {name} {{ }}");
    }
    if rng.gen_bool(0.05) {
        let junk = *pick(rng, &[" ^", " fn", "(", " }"]);
        text.push_str(junk);
    }
    text
}

/// A request object: each known field present or not, well-typed or a
/// random value, plus stray fields, in random order. Never a `shutdown`.
fn request(rng: &mut StdRng, id: usize) -> Json {
    let target = *pick(rng, TARGETS);
    let mut fields: Vec<(String, Json)> = Vec::new();
    let target_value = match rng.gen_range(0..20) {
        0 => Json::Str(format!("{}.mc", random_string(rng))),
        1 => Json::Str("no_such_benchmark".into()),
        _ => Json::Str(target.into()),
    };
    let entry = pick(rng, &[target, "main", ""]).to_string();
    let text = annotations(rng, target);
    let infer =
        if rng.gen_bool(0.1) { "always" } else { pick(rng, &["only", "prefer-annot", "merge"]) };
    let infer = infer.to_string();
    let infer = if rng.gen_bool(0.3) { Json::Bool(rng.gen_bool(0.5)) } else { Json::Str(infer) };
    let machine = if rng.gen_bool(0.1) { "z80" } else { pick(rng, &["i960kb", "dsp3210"]) };
    let machine = machine.to_string();
    let typed = [
        ("id", Json::Num(id as f64)),
        ("target", target_value),
        ("entry", Json::Str(entry)),
        ("annotations", Json::Str(text)),
        ("infer", infer),
        ("machine", Json::Str(machine)),
        ("deadline", Json::Num(rng.gen_range(0u64..80) as f64)),
        ("audit", Json::Bool(rng.gen_bool(0.5))),
    ];
    for (name, value) in typed {
        let present = match name {
            "target" => 0.9,
            "annotations" => 0.7,
            _ => 0.5,
        };
        if rng.gen_bool(present) {
            let value = if rng.gen_bool(0.85) { value } else { random_value(rng, 2) };
            fields.push((name.to_string(), value));
        }
    }
    if rng.gen_bool(0.1) {
        let op = pick(rng, &["health", "stats", "restart"]).to_string();
        fields.push((
            "op".into(),
            if rng.gen_bool(0.8) { Json::Str(op) } else { random_number(rng) },
        ));
    }
    for _ in 0..rng.gen_range(0..3) {
        fields.push((random_string(rng), random_value(rng, 2)));
    }
    fields.shuffle(rng);
    if fields.iter().any(|(k, _)| k == "op") {
        return Json::Obj(fields);
    }
    // Now and then a well-typed request whose bound is known.
    if rng.gen_bool(0.15) {
        let mut plain =
            vec![("id".into(), Json::Num(id as f64)), ("target".into(), Json::Str(target.into()))];
        if rng.gen_bool(0.5) {
            plain.push(("audit".into(), Json::Bool(rng.gen_bool(0.5))));
        }
        return Json::Obj(plain);
    }
    Json::Obj(fields)
}

/// One request line, never blank (the daemon skips blank lines).
fn line(rng: &mut StdRng, id: usize) -> String {
    match rng.gen_range(0..20) {
        0 => {
            let n =
                if rng.gen_bool(0.5) { MAX_DEPTH + 1 } else { rng.gen_range(MAX_DEPTH..50_000) };
            let (open, close) = if rng.gen_bool(0.5) { ("[", "]") } else { ("{\"a\":", "}") };
            format!("{}0{}", open.repeat(n), close.repeat(n))
        }
        1 => format!("#{}", random_string(rng).replace('\n', " ")),
        2 => {
            let whole = request(rng, id).render();
            let cut = rng.gen_range(1..whole.len());
            whole.chars().take(cut).collect()
        }
        3 => random_value(rng, 3).render(),
        _ => request(rng, id).render(),
    }
}

/// Reads response lines until a `done` line; returns that line.
fn read_done(reader: &mut impl BufRead, sent_line: &str) -> Json {
    loop {
        let mut text = String::new();
        let n = reader.read_line(&mut text).expect("read response line");
        assert!(n > 0, "stream ended before a done line for {sent_line:.200}");
        let v = ipet_trace::parse_json(text.trim()).expect("response line is JSON");
        if v.get("done").is_some() {
            return v;
        }
        assert!(v.get("set").is_some(), "a line before done is a set line: {text}");
    }
}

/// The bound `cinderella analyze <target>` reports, computed in process.
fn expected_bounds() -> HashMap<&'static str, (u64, u64)> {
    TARGETS
        .iter()
        .map(|&name| {
            let bench = ipet_suite::by_name(name).expect("bundled benchmark");
            let program = bench.program().expect("compiles");
            let analyzer = Analyzer::new(&program, ipet_hw::Machine::i960kb()).expect("analyzer");
            let est = analyzer.analyze(&bench.annotations(&program)).expect("analysis");
            (name, (est.bound.lower, est.bound.upper))
        })
        .collect()
}

#[test]
fn every_generated_line_gets_one_done_line_and_the_daemon_survives() {
    let expected = expected_bounds();
    let mut child = Command::new(env!("CARGO_BIN_EXE_cinderella"))
        .arg("serve")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("serve spawns");
    let mut stdin = child.stdin.take().unwrap();
    let mut reader = BufReader::new(child.stdout.take().unwrap());
    let mut rng = StdRng::seed_from_u64(SEED);
    // What the daemon saw, so the test shows it reached the cases it
    // exists for.
    let (mut compared, mut deep_json, mut deep_groups, mut huge_groups, mut over_cap) =
        (0, 0, 0, 0, 0);
    for id in 0..LINES {
        let text = line(&mut rng, id);
        writeln!(stdin, "{text}").expect("daemon reads");
        let done = read_done(&mut reader, &text);
        let status = done.get("status").and_then(Json::as_u64);
        assert!(matches!(status, Some(0..=3)), "status {status:?} for {text:.300}");
        let error = done.get("error").and_then(Json::as_str).unwrap_or("");
        assert!(!error.contains("internal panic"), "{error} for {text:.300}");
        deep_json += usize::from(error.contains("nested too deeply"));
        deep_groups += usize::from(error.contains("parentheses nested more than"));
        let sets = done.get("sets_total").and_then(Json::as_u64).unwrap_or(0);
        over_cap += usize::from(sets > AnalysisBudget::DEFAULT_MAX_SETS as u64);

        let Ok(req) = ipet_trace::parse_json(&text) else { continue };
        let annotations = req.get("annotations").and_then(Json::as_str).unwrap_or("");
        huge_groups += usize::from(annotations.contains(&"(".repeat(50_000)));
        if req.get("op").and_then(Json::as_str).is_none() {
            assert_eq!(done.get("id"), Some(req.get("id").unwrap_or(&Json::Null)), "{text:.300}");
        }
        // A request of only an id, a bundled target and an audit flag.
        let plain = match &req {
            Json::Obj(fields) => {
                fields.iter().all(|(k, _)| ["id", "target", "audit"].contains(&&**k))
            }
            _ => false,
        };
        let target = req.get("target").and_then(Json::as_str);
        if let (true, Some((target, &(lower, upper)))) =
            (plain, target.and_then(|t| expected.get_key_value(t)))
        {
            let bound = done.get("bound").and_then(Json::as_arr).expect("bound");
            let bound: Vec<u64> = bound.iter().map(|b| b.as_u64().expect("cycles")).collect();
            assert_eq!(bound, vec![lower, upper], "{target}");
            assert_eq!(status, Some(0), "{target}");
            compared += 1;
        }
    }
    let seen = [compared, deep_json, deep_groups, huge_groups, over_cap];
    assert!(seen.iter().all(|&n| n > 0) && compared >= 10, "missed a case: {seen:?}");

    writeln!(stdin, r#"{{"op": "stats"}}"#).unwrap();
    let stats = read_done(&mut reader, "stats");
    assert!(stats.get("stats").is_some(), "{stats:?}");
    writeln!(stdin, r#"{{"op": "shutdown"}}"#).unwrap();
    let ack = read_done(&mut reader, "shutdown");
    assert_eq!(ack.get("shutdown"), Some(&Json::Bool(true)));
    drop(stdin);
    assert_eq!(child.wait().unwrap().code(), Some(0));
}

fn scratch(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir()
        .join(format!("cinderella-serve-fuzz-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir scratch");
    dir
}

/// `main` calls `f0`, each `f<i>` calls the next, and the last returns a
/// constant.
fn call_chain(depth: usize) -> String {
    let mut src = String::new();
    for i in 0..depth {
        let body = if i + 1 < depth { format!("f{}()", i + 1) } else { "1".to_string() };
        src.push_str(&format!("int f{i}() {{ return {body}; }}\n"));
    }
    src + "int main() { return f0(); }\n"
}

/// `main` with `depth` nested `if` statements.
fn nested_ifs(depth: usize) -> String {
    format!(
        "int main(int a) {{ int x; x = a; {}x = 2;{} return x; }}\n",
        "if (x) { ".repeat(depth),
        " }".repeat(depth)
    )
}

/// The deepest `nested_ifs` the parser accepts: one more level is refused.
fn deepest_ifs() -> usize {
    let parses = |depth| ipet_lang::parse_module(&nested_ifs(depth)).is_ok();
    let depth = (1..=ipet_lang::MAX_NESTING).rev().find(|&d| parses(d)).expect("some depth parses");
    assert!(!parses(depth + 1), "the limit lies between {depth} and {}", depth + 1);
    depth
}

/// A diamond in a loop, and `disjunctions` statements of two alternatives
/// that hold on every path, so no set is null and every set plans.
fn disjunctive(disjunctions: usize) -> (String, String) {
    let src = "int main(int a) { int i; int s; s = 0; \
               for (i = 0; i < 4; i = i + 1) { if (a) { s = s + 1; } else { s = s - 1; } } \
               return s; }\n";
    let mut ann = String::from("fn main { loop x2 in [0, 4]; ");
    for k in 0..disjunctions {
        ann.push_str(&format!("(x{} >= 0) | (x1 >= {}); ", 3 + k % 3, k % 2));
    }
    (src.to_string(), ann + "}")
}

#[test]
fn generated_sources_get_answers_from_a_daemon_with_a_store() {
    let dir = scratch("generated");
    let store = dir.join("serve.store");
    let cap_bits = AnalysisBudget::DEFAULT_MAX_SETS.trailing_zeros() as usize;
    let ifs = deepest_ifs();
    let (loop_src, few) = disjunctive(6);
    let (_, many) = disjunctive(cap_bits + 2);
    let mut paths = Vec::new();
    for (name, src) in [("chain", call_chain(300)), ("ifs", nested_ifs(ifs)), ("loop", loop_src)] {
        let path = dir.join(format!("{name}.mc"));
        std::fs::write(&path, src).expect("write a generated source");
        paths.push(path.display().to_string());
    }
    // (name, source, annotations, status): 2^6 sets solve exactly; past
    // the set cap the disjunctions are dropped and the bound is partial.
    let requests = [
        ("chain", &paths[0], None, 0),
        ("ifs", &paths[1], None, 0),
        ("disjunctions", &paths[2], Some(few), 0),
        ("over-cap", &paths[2], Some(many), 2),
    ];

    let mut child = Command::new(env!("CARGO_BIN_EXE_cinderella"))
        .arg("serve")
        .arg("--store")
        .arg(&store)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("serve spawns");
    let mut stdin = child.stdin.take().unwrap();
    let mut reader = BufReader::new(child.stdout.take().unwrap());
    // Twice over: the second round answers the same from the store.
    let mut first: HashMap<&str, Json> = HashMap::new();
    for (id, (name, path, ann, status)) in
        requests.iter().cycle().take(2 * requests.len()).enumerate()
    {
        let mut fields = vec![
            ("id".into(), Json::Num(id as f64)),
            ("target".into(), Json::Str(path.to_string())),
        ];
        if let Some(ann) = ann {
            fields.push(("annotations".into(), Json::Str(ann.clone())));
        }
        let text = Json::Obj(fields).render();
        writeln!(stdin, "{text}").expect("daemon reads");
        let done = read_done(&mut reader, &text);
        let got = done.get("status").and_then(Json::as_u64);
        assert!(matches!(got, Some(0..=2)), "{name}: status {got:?}: {done:?}");
        assert_eq!(got, Some(*status), "{name}: {done:?}");
        let sets = done.get("sets_total").and_then(Json::as_u64).unwrap_or(0);
        match *name {
            "disjunctions" => assert_eq!(sets, 64),
            "over-cap" => assert!(sets > AnalysisBudget::DEFAULT_MAX_SETS as u64, "{sets}"),
            _ => {}
        }
        let bound = done.get("bound").cloned().expect("a bound");
        if let Some(before) = first.insert(name, bound.clone()) {
            assert_eq!(before, bound, "{name}: the replayed bound differs");
        }
    }

    writeln!(stdin, r#"{{"op": "stats"}}"#).unwrap();
    let stats = read_done(&mut reader, "stats");
    let stats = stats.get("stats").expect("stats");
    let hits = stats.get("pool").and_then(|p| p.get("hits")).and_then(Json::as_u64);
    assert!(hits.is_some_and(|h| h > 0), "the second round replays: {stats:?}");
    writeln!(stdin, r#"{{"op": "shutdown"}}"#).unwrap();
    let ack = read_done(&mut reader, "shutdown");
    assert_eq!(ack.get("shutdown"), Some(&Json::Bool(true)));
    drop(stdin);
    assert_eq!(child.wait().unwrap().code(), Some(0));
    assert!(store.exists(), "the daemon wrote its store");
    let _ = std::fs::remove_dir_all(&dir);
}
