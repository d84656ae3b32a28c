//! The two front-end parsers' results, pinned on fixed and mutated input.
//!
//! Each case is parsed and the `Debug` rendering of the whole result is
//! fed into a local FNV-1a digest: the module or annotation tree when the
//! parse succeeds, the error (line and message) when it fails. A change to
//! the lexers or parsers that alters any tree, any error text or any error
//! line changes the digest.
//!
//! * mini-C: the 13 suite sources, `examples/programs/*.mc`, seeded
//!   mutations of each (non-ASCII characters inside and outside comments,
//!   unterminated `/*`, 20-digit literals, edits, deletions, truncations)
//!   and expressions and statements nested around `MAX_NESTING`.
//! * annotations: each routine's `Benchmark::annotations` text,
//!   `examples/programs/*.ann` and seeded mutations of each.

use ipet_core::parse_annotations;
use ipet_lang::{parse_module, MAX_NESTING};
use std::fmt::{self, Write as _};
use std::path::Path;

/// FNV-1a over bytes, fed through `fmt::Write` so a `Debug` rendering is
/// digested without being collected into a string.
struct Digest(u64);

impl fmt::Write for Digest {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for &byte in s.as_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

/// `(cases, successful parses, digest)` over every case.
struct Pin {
    cases: usize,
    ok: usize,
    digest: Digest,
}

impl Pin {
    fn new() -> Pin {
        Pin { cases: 0, ok: 0, digest: Digest(0xcbf2_9ce4_8422_2325) }
    }

    fn add<T: fmt::Debug, E: fmt::Debug>(&mut self, result: &Result<T, E>) {
        self.cases += 1;
        self.ok += usize::from(result.is_ok());
        write!(self.digest, "{result:?}\u{0}").expect("digest writes never fail");
    }

    fn finish(self) -> (usize, usize, u64) {
        (self.cases, self.ok, self.digest.0)
    }
}

/// SplitMix64: a fixed, dependency-free stream of seeded choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

/// A random char boundary of `s` (`0..=len`).
fn boundary(rng: &mut Rng, s: &str) -> usize {
    let mut at = rng.below(s.len() + 1);
    while !s.is_char_boundary(at) {
        at -= 1;
    }
    at
}

/// Text spliced into mini-C sources.
const C_SNIPPETS: &[&str] = &[
    "é",
    "日本",
    "// é ü\n",
    "/* 日本語 */",
    "/* ¿\n¡ */",
    "/*",
    "*/",
    "//",
    "12345678901234567890",
    "99999999999999999999",
    "9223372036854775807",
    "9223372036854775808",
    "\n",
    "\r\n",
    "\t",
    " ",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
    ";",
    ",",
    "=",
    "==",
    "!=",
    "<<=",
    ">>",
    "&&",
    "||",
    "+=",
    "++",
    "--",
    "-",
    "!",
    "^",
    "%",
    "int",
    "const",
    "whilex",
    "int_",
    "_x",
    "if",
    "else",
    "do",
    "for",
    "return",
    "break",
    "continue",
    "x",
    "0",
    "7",
    "$",
    "@",
    "`",
    "'",
];

/// Text spliced into annotation sources.
const ANN_SNIPPETS: &[&str] = &[
    "é",
    "日本",
    "# é ü\n",
    "// ¿ ¡\n",
    "#",
    "//",
    "12345678901234567890",
    "99999999999999999999",
    "9223372036854775807",
    "\n",
    " ",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
    ";",
    ",",
    ".",
    ".f1",
    "&",
    "|",
    "+",
    "-",
    "*",
    "=",
    "<=",
    ">=",
    "<",
    ">",
    "fn",
    "loop",
    "in",
    "fnx",
    "loop_",
    "x0",
    "x1",
    "d2",
    "f3",
    "f99999999999999999999",
    "main",
    "$",
    "^",
];

/// One seeded edit of `src`.
fn mutate(rng: &mut Rng, src: &str, snippets: &[&str]) -> String {
    let mut s = src.to_string();
    for _ in 0..1 + rng.below(3) {
        let at = boundary(rng, &s);
        match rng.below(6) {
            // Splice a snippet in.
            0..=2 => s.insert_str(at, rng.pick(snippets)),
            // Delete a short span.
            3 => {
                let mut end = (at + 1 + rng.below(8)).min(s.len());
                while !s.is_char_boundary(end) {
                    end += 1;
                }
                s.replace_range(at..end, "");
            }
            // Replace one byte with a printable ASCII one.
            4 => {
                if at < s.len() && s.as_bytes()[at].is_ascii() {
                    let b = char::from(b' ' + rng.below(95) as u8);
                    s.replace_range(at..at + 1, b.encode_utf8(&mut [0; 4]));
                }
            }
            // Truncate.
            _ => s.truncate(at),
        }
    }
    s
}

/// Sources of `examples/programs` with the given extension, by name.
fn examples(ext: &str) -> Vec<String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/programs");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("examples/programs exists")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == ext))
        .collect();
    paths.sort();
    paths.iter().map(|p| std::fs::read_to_string(p).expect("readable example")).collect()
}

/// Sources nested `depth` levels in four shapes (parentheses, `if`
/// bodies, a `+` chain and unary minuses), on line 4 of a function.
fn nested(depth: usize) -> Vec<String> {
    let wrap = |body: String| format!("int main() {{\n  int x;\n  x = 1;\n{body}\n  return x;\n}}");
    vec![
        wrap(format!("  x = {}1{};", "(".repeat(depth), ")".repeat(depth))),
        wrap(format!("{}x = 2;{}", "if (x) { ".repeat(depth), "}".repeat(depth))),
        wrap(format!("  x = 1{};", "+1".repeat(depth))),
        wrap(format!("  x = {}1;", "- ".repeat(depth))),
    ]
}

#[test]
fn mini_c_parse_results_are_pinned() {
    let mut sources: Vec<String> = ipet_suite::all().iter().map(|b| b.source.to_string()).collect();
    sources.extend(examples("mc"));
    assert_eq!(sources.len(), 15);
    let mut pin = Pin::new();
    let mut rng = Rng(0x5eed_0001);
    for src in &sources {
        pin.add(&parse_module(src));
        for _ in 0..300 {
            pin.add(&parse_module(&mutate(&mut rng, src, C_SNIPPETS)));
        }
    }
    for depth in MAX_NESTING - 3..=MAX_NESTING + 2 {
        for src in nested(depth) {
            pin.add(&parse_module(&src));
        }
    }
    assert_eq!(pin.finish(), (4539, 604, 0xc03d_9a3d_79c5_85fe));
}

#[test]
fn annotation_parse_results_are_pinned() {
    let mut sources: Vec<String> = ipet_suite::all()
        .iter()
        .map(|b| b.annotations(&b.program().expect("suite routines compile")))
        .collect();
    sources.extend(examples("ann"));
    assert_eq!(sources.len(), 14);
    let mut pin = Pin::new();
    let mut rng = Rng(0x5eed_0002);
    for src in &sources {
        pin.add(&parse_annotations(src));
        for _ in 0..200 {
            pin.add(&parse_annotations(&mutate(&mut rng, src, ANN_SNIPPETS)));
        }
    }
    assert_eq!(pin.finish(), (2814, 264, 0x270f_99b8_158f_e933));
}
