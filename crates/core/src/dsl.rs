//! The functionality-constraint annotation language.
//!
//! The paper lets the user state loop bounds and arbitrary (disjunctions
//! of) linear path facts; this module provides a concrete syntax for them:
//!
//! ```text
//! # check_data example (paper Fig. 5 / eqs. (14)-(17))
//! fn check_data {
//!     loop x2 in [1, 10];                     # eqs. (14)-(15)
//!     (x3 = 0 & x5 = 1) | (x3 = 1 & x5 = 0);  # eq. (16)
//!     x3 = x8;                                # eq. (17)
//! }
//! fn task {
//!     x12 = x8.f1;                            # eq. (18)
//! }
//! ```
//!
//! References are function-scoped: `x3` is block `B3` of the annotated
//! function, `d2` its second CFG edge, `f1` the flow through its first
//! call site, and `x8.f1` block `B8` of the callee instance entered
//! through call site `f1`. Paths chain (`x2.f1.f3`) for nested calls.
//! `loop xH in [lo, hi]` bounds the *back-edge traversals per entry* of
//! the loop headed at block `H` — for a top-tested (`while`/`for`) loop
//! that equals the iteration count; for a bottom-tested (`do`/`while`)
//! loop it is the iteration count minus one.
//!
//! Parenthesised groups nest at most [`MAX_GROUP_DEPTH`] deep, so no
//! annotation text can exhaust the stack of the parser or of the passes
//! that walk the parsed tree. A statement's constraint-set count
//! ([`OrExpr::set_count`]) is known from the tree alone, so the planner
//! can refuse a DNF blow-up before it expands anything.
//!
//! The lexer scans the text's bytes and its tokens borrow the text, so it
//! allocates only the token vector; the parser allocates a `String` only
//! for a function name that [`Annotations`] keeps.

use crate::error::AnalysisError;
use ipet_lp::Relation;
use std::fmt;

/// How deep parenthesised groups may nest in one annotation statement.
/// Deeper text is a line-numbered [`AnalysisError::Parse`].
pub const MAX_GROUP_DEPTH: usize = 100;

/// What namespace a [`Ref`] lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RefKind {
    /// A basic-block execution count (`x3`).
    X,
    /// A CFG-edge flow (`d2`).
    D,
    /// A call-site flow (`f1`).
    F,
}

/// A variable reference, possibly scoped into callees via `.fN` hops.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Ref {
    /// Namespace of the final component.
    pub kind: RefKind,
    /// 1-based index within the function finally reached.
    pub index: usize,
    /// 1-based call-site hops from the annotated function, applied left to
    /// right before resolving `index`.
    pub path: Vec<usize>,
}

impl fmt::Display for Ref {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let k = match self.kind {
            RefKind::X => 'x',
            RefKind::D => 'd',
            RefKind::F => 'f',
        };
        write!(f, "{k}{}", self.index)?;
        for p in &self.path {
            write!(f, ".f{p}")?;
        }
        Ok(())
    }
}

/// A linear expression `Σ coeff·ref + constant` with integer coefficients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinExpr {
    /// Signed integer terms.
    pub terms: Vec<(i64, Ref)>,
    /// Constant offset.
    pub constant: i64,
}

/// One relational atom or a parenthesised sub-expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Atom {
    /// `lhs REL rhs`
    Rel(LinExpr, Relation, LinExpr),
    /// `( or-expression )`
    Group(OrExpr),
}

/// Conjunction of atoms (the paper's `&`).
#[derive(Debug, Clone, PartialEq)]
pub struct AndExpr(pub Vec<Atom>);

/// Disjunction of conjunctions (the paper's `|`).
#[derive(Debug, Clone, PartialEq)]
pub struct OrExpr(pub Vec<AndExpr>);

impl OrExpr {
    /// How many conjunctive sets [`OrExpr::to_dnf`] would return, counted
    /// without building them; saturates at `usize::MAX`.
    pub(crate) fn set_count(&self) -> usize {
        self.0.iter().fold(0usize, |sum, and| {
            let product = and.0.iter().fold(1usize, |product, atom| match atom {
                Atom::Rel(..) => product,
                Atom::Group(or) => product.saturating_mul(or.set_count()),
            });
            sum.saturating_add(product)
        })
    }

    /// The relational atoms, in written order, without expanding anything.
    pub(crate) fn atoms(&self) -> Vec<(&LinExpr, Relation, &LinExpr)> {
        let mut out = Vec::new();
        for and in &self.0 {
            for atom in &and.0 {
                match atom {
                    Atom::Rel(l, r, rr) => out.push((l, *r, rr)),
                    Atom::Group(or) => out.extend(or.atoms()),
                }
            }
        }
        out
    }

    /// Expands to disjunctive normal form: a list of conjunctive sets of
    /// relational atoms. The paper's "set of constraint sets".
    pub fn to_dnf(&self) -> Vec<Vec<(LinExpr, Relation, LinExpr)>> {
        let mut out = Vec::new();
        for and in &self.0 {
            // Cartesian product across the atoms of the conjunction.
            let mut sets: Vec<Vec<(LinExpr, Relation, LinExpr)>> = vec![Vec::new()];
            for atom in &and.0 {
                let choices: Vec<Vec<(LinExpr, Relation, LinExpr)>> = match atom {
                    Atom::Rel(l, r, rr) => vec![vec![(l.clone(), *r, rr.clone())]],
                    Atom::Group(or) => or.to_dnf(),
                };
                let mut next = Vec::with_capacity(sets.len() * choices.len());
                for s in &sets {
                    for c in &choices {
                        let mut merged = s.clone();
                        merged.extend(c.iter().cloned());
                        next.push(merged);
                    }
                }
                sets = next;
            }
            out.extend(sets);
        }
        out
    }
}

/// One annotation statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `loop xH in [lo, hi];` — per entry, the loop headed at block `H`
    /// traverses its back edges between `lo` and `hi` times (the iteration
    /// count for top-tested loops; iterations minus one for `do`/`while`).
    Loop {
        /// Header block reference (must be `x`-kind).
        header: Ref,
        /// Minimum back-edge traversals per entry.
        lo: i64,
        /// Maximum back-edge traversals per entry.
        hi: i64,
    },
    /// A (possibly disjunctive) linear constraint.
    Cons(OrExpr),
}

/// Where a loop bound came from. Hand-written annotations carry
/// [`BoundSource::Annotated`]; rows emitted by the inference pass carry
/// the rule that produced them and the loop's source line; when both
/// exist the merged row records the two intervals it combined.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoundSource {
    /// Written by hand in the annotation file.
    Annotated,
    /// Derived by the static inference pass.
    Inferred {
        /// Name of the inference rule (`counted`, `monotonic`, …).
        rule: String,
        /// Source line of the loop statement (0 when unknown, e.g. `.s`).
        line: u32,
    },
    /// Both sources applied; the effective bound is their intersection.
    Merged {
        /// Rule that produced the inferred side.
        rule: String,
        /// Source line of the loop statement (0 when unknown).
        line: u32,
        /// The hand-written interval.
        annotated: (i64, i64),
        /// The inferred interval.
        inferred: (i64, i64),
    },
}

impl BoundSource {
    /// Short label used in the report and trace document.
    pub fn label(&self) -> String {
        match self {
            BoundSource::Annotated => "annotated".into(),
            BoundSource::Inferred { rule, .. } => format!("inferred:{rule}"),
            BoundSource::Merged { rule, .. } => format!("merged:{rule}"),
        }
    }

    /// Source line when one is known.
    pub fn line(&self) -> Option<u32> {
        match self {
            BoundSource::Annotated => None,
            BoundSource::Inferred { line, .. } | BoundSource::Merged { line, .. } => {
                (*line != 0).then_some(*line)
            }
        }
    }
}

/// Provenance of one effective loop bound: which function and header block
/// it constrains, the interval in force, and where it came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopProvenance {
    /// Function the loop lives in.
    pub func: String,
    /// 0-based header block (reported as `x{header+1}`).
    pub header: usize,
    /// Effective minimum back-edge traversals per entry.
    pub lo: i64,
    /// Effective maximum back-edge traversals per entry.
    pub hi: i64,
    /// Where the interval came from.
    pub source: BoundSource,
}

impl LoopProvenance {
    /// The canonical parameter-symbol name of this loop's bound, as used
    /// in symbolic cost forms ([`ipet_hw::ParamExpr`]): `bound.<func>.x<H>`
    /// with the header block in its 1-based `x` notation.
    pub fn bound_symbol(&self) -> String {
        format!("bound.{}.x{}", self.func, self.header + 1)
    }
}

/// Parsed annotation file: statements grouped by function name.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Annotations {
    /// `(function name, statements)` in file order.
    pub functions: Vec<(String, Vec<Stmt>)>,
    /// Provenance rows for the loop bounds in `functions` — empty for
    /// plain parsed annotation files, populated by the inference pass.
    pub provenance: Vec<LoopProvenance>,
}

impl Annotations {
    /// Statements attached to `func`, across all `fn` items naming it.
    pub fn for_function(&self, func: &str) -> Vec<&Stmt> {
        self.functions.iter().filter(|(n, _)| n == func).flat_map(|(_, s)| s.iter()).collect()
    }
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

/// A token; a name borrows its text from the source, so tokens are
/// `Copy` and lexing allocates nothing but the token vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tok<'src> {
    Fn,
    Loop,
    In,
    Ident(&'src str),
    Int(i64),
    Var(RefKind, usize),
    LBrace,
    RBrace,
    LParen,
    RParen,
    LBracket,
    RBracket,
    Semi,
    Comma,
    Dot,
    Amp,
    Pipe,
    Plus,
    Minus,
    Star,
    Eq,
    Le,
    Ge,
}

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Fn => write!(f, "fn"),
            Tok::Loop => write!(f, "loop"),
            Tok::In => write!(f, "in"),
            Tok::Ident(s) => write!(f, "{s}"),
            Tok::Int(n) => write!(f, "{n}"),
            Tok::Var(k, n) => {
                let c = match k {
                    RefKind::X => 'x',
                    RefKind::D => 'd',
                    RefKind::F => 'f',
                };
                write!(f, "{c}{n}")
            }
            Tok::LBrace => write!(f, "{{"),
            Tok::RBrace => write!(f, "}}"),
            Tok::LParen => write!(f, "("),
            Tok::RParen => write!(f, ")"),
            Tok::LBracket => write!(f, "["),
            Tok::RBracket => write!(f, "]"),
            Tok::Semi => write!(f, ";"),
            Tok::Comma => write!(f, ","),
            Tok::Dot => write!(f, "."),
            Tok::Amp => write!(f, "&"),
            Tok::Pipe => write!(f, "|"),
            Tok::Plus => write!(f, "+"),
            Tok::Minus => write!(f, "-"),
            Tok::Star => write!(f, "*"),
            Tok::Eq => write!(f, "="),
            Tok::Le => write!(f, "<="),
            Tok::Ge => write!(f, ">="),
        }
    }
}

/// Tokenizes annotation text; comments run from `#` or `//` to the end of
/// the line. The scan runs over bytes: every token is ASCII and no byte
/// of a multi-byte UTF-8 character is, so a non-ASCII character can only
/// sit inside a comment or be an error, which reports the whole
/// character.
fn lex(src: &str) -> Result<Vec<(Tok<'_>, usize)>, AnalysisError> {
    let bytes = src.as_bytes();
    // Annotation text spends over two bytes per token (the suite's 2.2 to
    // 3.5), so this capacity almost always holds every token.
    let mut toks = Vec::with_capacity(src.len() / 2 + 1);
    let mut line = 1usize;
    let mut i = 0;
    while let Some(&b) = bytes.get(i) {
        let (tok, len) = match (b, bytes.get(i + 1)) {
            (b'\n', _) => {
                line += 1;
                i += 1;
                continue;
            }
            (b' ' | b'\t' | b'\r', _) => {
                i += 1;
                continue;
            }
            (b'#', _) | (b'/', Some(b'/')) => {
                i += run(&bytes[i..], |&c| c != b'\n');
                continue;
            }
            (b'{', _) => (Tok::LBrace, 1),
            (b'}', _) => (Tok::RBrace, 1),
            (b'(', _) => (Tok::LParen, 1),
            (b')', _) => (Tok::RParen, 1),
            (b'[', _) => (Tok::LBracket, 1),
            (b']', _) => (Tok::RBracket, 1),
            (b';', _) => (Tok::Semi, 1),
            (b',', _) => (Tok::Comma, 1),
            (b'.', _) => (Tok::Dot, 1),
            (b'&', _) => (Tok::Amp, 1),
            (b'|', _) => (Tok::Pipe, 1),
            (b'+', _) => (Tok::Plus, 1),
            (b'-', _) => (Tok::Minus, 1),
            (b'*', _) => (Tok::Star, 1),
            (b'=', _) => (Tok::Eq, 1),
            (b'<', Some(b'=')) => (Tok::Le, 2),
            (b'>', Some(b'=')) => (Tok::Ge, 2),
            (b'0'..=b'9', _) => {
                let text = &src[i..i + run(&bytes[i..], u8::is_ascii_digit)];
                let n: i64 = text.parse().map_err(|_| AnalysisError::Parse {
                    line,
                    message: format!("integer literal {text} out of range"),
                })?;
                (Tok::Int(n), text.len())
            }
            (c, _) if c.is_ascii_alphabetic() || c == b'_' => {
                let word =
                    &src[i..i + run(&bytes[i..], |&c| c.is_ascii_alphanumeric() || c == b'_')];
                let tok = match word {
                    "fn" => Tok::Fn,
                    "loop" => Tok::Loop,
                    "in" => Tok::In,
                    _ => classify_ident(word),
                };
                (tok, word.len())
            }
            _ => {
                let other = src[i..].chars().next().expect("a token starts on a char boundary");
                return Err(AnalysisError::Parse {
                    line,
                    message: format!("unexpected character {other:?}"),
                });
            }
        };
        toks.push((tok, line));
        i += len;
    }
    Ok(toks)
}

/// The length of the longest prefix of `bytes` whose bytes all satisfy
/// `keep`.
fn run(bytes: &[u8], keep: impl Fn(&u8) -> bool) -> usize {
    bytes.iter().position(|c| !keep(c)).unwrap_or(bytes.len())
}

/// `x12`, `d3`, `f1` become variable tokens; everything else is an
/// identifier (function name).
fn classify_ident(word: &str) -> Tok<'_> {
    let kind = match word.as_bytes()[0] {
        b'x' => Some(RefKind::X),
        b'd' => Some(RefKind::D),
        b'f' => Some(RefKind::F),
        _ => None,
    };
    let digits = &word[1..];
    if let Some(kind) = kind {
        if !digits.is_empty() && digits.bytes().all(|c| c.is_ascii_digit()) {
            if let Ok(n @ 1..) = digits.parse::<usize>() {
                return Tok::Var(kind, n);
            }
        }
    }
    Tok::Ident(word)
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Peeks and consumes tokens by copy: a name is allocated only where
/// [`Annotations`] keeps it.
struct Parser<'src> {
    toks: Vec<(Tok<'src>, usize)>,
    pos: usize,
    /// Parenthesised groups open at the cursor (at most
    /// [`MAX_GROUP_DEPTH`]).
    depth: usize,
}

impl<'src> Parser<'src> {
    fn peek(&self) -> Option<Tok<'src>> {
        self.toks.get(self.pos).map(|&(t, _)| t)
    }

    fn line(&self) -> usize {
        self.toks.get(self.pos.min(self.toks.len().saturating_sub(1))).map(|(_, l)| *l).unwrap_or(0)
    }

    fn bump(&mut self) -> Option<Tok<'src>> {
        let t = self.peek();
        self.pos += 1;
        t
    }

    fn err(&self, message: impl Into<String>) -> AnalysisError {
        AnalysisError::Parse { line: self.line(), message: message.into() }
    }

    fn expect(&mut self, want: Tok<'src>) -> Result<(), AnalysisError> {
        match self.bump() {
            Some(t) if t == want => Ok(()),
            Some(t) => Err(self.err(format!("expected {want}, found {t}"))),
            None => Err(self.err(format!("expected {want}, found end of input"))),
        }
    }

    fn parse_file(&mut self) -> Result<Annotations, AnalysisError> {
        let mut anns = Annotations::default();
        while self.peek().is_some() {
            self.expect(Tok::Fn)?;
            let name = match self.bump() {
                Some(Tok::Ident(n)) => n.to_string(),
                Some(Tok::Var(k, n)) => {
                    // Allow function names that look like variables (rare).
                    let c = match k {
                        RefKind::X => 'x',
                        RefKind::D => 'd',
                        RefKind::F => 'f',
                    };
                    format!("{c}{n}")
                }
                other => {
                    return Err(self.err(format!(
                        "expected function name, found {}",
                        other.map(|t| t.to_string()).unwrap_or_else(|| "end of input".into())
                    )))
                }
            };
            self.expect(Tok::LBrace)?;
            let mut stmts = Vec::new();
            while self.peek() != Some(Tok::RBrace) {
                stmts.push(self.parse_stmt()?);
            }
            self.expect(Tok::RBrace)?;
            anns.functions.push((name, stmts));
        }
        Ok(anns)
    }

    fn parse_stmt(&mut self) -> Result<Stmt, AnalysisError> {
        if self.peek() == Some(Tok::Loop) {
            self.bump();
            let header = self.parse_ref()?;
            self.expect(Tok::In)?;
            self.expect(Tok::LBracket)?;
            let lo = self.parse_int()?;
            self.expect(Tok::Comma)?;
            let hi = self.parse_int()?;
            self.expect(Tok::RBracket)?;
            self.expect(Tok::Semi)?;
            return Ok(Stmt::Loop { header, lo, hi });
        }
        let or = self.parse_or()?;
        self.expect(Tok::Semi)?;
        Ok(Stmt::Cons(or))
    }

    fn parse_int(&mut self) -> Result<i64, AnalysisError> {
        let neg = if self.peek() == Some(Tok::Minus) {
            self.bump();
            true
        } else {
            false
        };
        match self.bump() {
            Some(Tok::Int(n)) => Ok(if neg { -n } else { n }),
            other => Err(self.err(format!(
                "expected integer, found {}",
                other.map(|t| t.to_string()).unwrap_or_else(|| "end of input".into())
            ))),
        }
    }

    fn parse_or(&mut self) -> Result<OrExpr, AnalysisError> {
        let mut ands = vec![self.parse_and()?];
        while self.peek() == Some(Tok::Pipe) {
            self.bump();
            ands.push(self.parse_and()?);
        }
        Ok(OrExpr(ands))
    }

    fn parse_and(&mut self) -> Result<AndExpr, AnalysisError> {
        let mut atoms = vec![self.parse_atom()?];
        while self.peek() == Some(Tok::Amp) {
            self.bump();
            atoms.push(self.parse_atom()?);
        }
        Ok(AndExpr(atoms))
    }

    fn parse_atom(&mut self) -> Result<Atom, AnalysisError> {
        if self.peek() == Some(Tok::LParen) {
            if self.depth == MAX_GROUP_DEPTH {
                return Err(
                    self.err(format!("parentheses nested more than {MAX_GROUP_DEPTH} levels deep"))
                );
            }
            self.bump();
            self.depth += 1;
            let inner = self.parse_or()?;
            self.depth -= 1;
            self.expect(Tok::RParen)?;
            return Ok(Atom::Group(inner));
        }
        let lhs = self.parse_linexpr()?;
        let rel = match self.bump() {
            Some(Tok::Eq) => Relation::Eq,
            Some(Tok::Le) => Relation::Le,
            Some(Tok::Ge) => Relation::Ge,
            other => {
                return Err(self.err(format!(
                    "expected =, <= or >=, found {}",
                    other.map(|t| t.to_string()).unwrap_or_else(|| "end of input".into())
                )))
            }
        };
        let rhs = self.parse_linexpr()?;
        Ok(Atom::Rel(lhs, rel, rhs))
    }

    fn parse_linexpr(&mut self) -> Result<LinExpr, AnalysisError> {
        let mut expr = LinExpr { terms: Vec::new(), constant: 0 };
        let mut sign = 1i64;
        if self.peek() == Some(Tok::Minus) {
            self.bump();
            sign = -1;
        }
        loop {
            self.parse_term(&mut expr, sign)?;
            match self.peek() {
                Some(Tok::Plus) => {
                    self.bump();
                    sign = 1;
                }
                Some(Tok::Minus) => {
                    self.bump();
                    sign = -1;
                }
                _ => break,
            }
        }
        Ok(expr)
    }

    fn parse_term(&mut self, expr: &mut LinExpr, sign: i64) -> Result<(), AnalysisError> {
        match self.peek() {
            Some(Tok::Int(n)) => {
                self.bump();
                if self.peek() == Some(Tok::Star) {
                    self.bump();
                    let r = self.parse_ref()?;
                    expr.terms.push((sign * n, r));
                } else if matches!(self.peek(), Some(Tok::Var(_, _))) {
                    // `10 x1` shorthand.
                    let r = self.parse_ref()?;
                    expr.terms.push((sign * n, r));
                } else {
                    expr.constant += sign * n;
                }
                Ok(())
            }
            Some(Tok::Var(_, _)) => {
                let r = self.parse_ref()?;
                expr.terms.push((sign, r));
                Ok(())
            }
            other => Err(self.err(format!(
                "expected a term, found {}",
                other.map(|t| t.to_string()).unwrap_or_else(|| "end of input".into())
            ))),
        }
    }

    fn parse_ref(&mut self) -> Result<Ref, AnalysisError> {
        let (kind, index) = match self.bump() {
            Some(Tok::Var(k, n)) => (k, n),
            other => {
                return Err(self.err(format!(
                    "expected a variable reference, found {}",
                    other.map(|t| t.to_string()).unwrap_or_else(|| "end of input".into())
                )))
            }
        };
        let mut path = Vec::new();
        while self.peek() == Some(Tok::Dot) {
            self.bump();
            match self.bump() {
                Some(Tok::Var(RefKind::F, n)) => path.push(n),
                other => {
                    return Err(self.err(format!(
                        "expected .fN call-site hop, found {}",
                        other.map(|t| t.to_string()).unwrap_or_else(|| "end of input".into())
                    )))
                }
            }
        }
        // `x8.f1` in the paper reads "x8 of the callee at site f1": the
        // written order is base-then-path, but resolution follows the path
        // first. Keep the parsed order; resolution handles it.
        Ok(Ref { kind, index, path })
    }
}

/// Parses an annotation file.
///
/// # Errors
///
/// Returns [`AnalysisError::Parse`] with the offending line.
pub fn parse_annotations(src: &str) -> Result<Annotations, AnalysisError> {
    let toks = lex(src)?;
    Parser { toks, pos: 0, depth: 0 }.parse_file()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_check_data_annotations() {
        let src = r#"
            # paper Fig. 5
            fn check_data {
                loop x2 in [1, 10];
                (x3 = 0 & x5 = 1) | (x3 = 1 & x5 = 0);
                x3 = x8;
            }
            fn task {
                x12 = x8.f1;
            }
        "#;
        let anns = parse_annotations(src).unwrap();
        assert_eq!(anns.functions.len(), 2);
        let cd = anns.for_function("check_data");
        assert_eq!(cd.len(), 3);
        assert!(matches!(cd[0], Stmt::Loop { lo: 1, hi: 10, .. }));
        let task = anns.for_function("task");
        assert_eq!(task.len(), 1);
        if let Stmt::Cons(or) = task[0] {
            let dnf = or.to_dnf();
            assert_eq!(dnf.len(), 1);
            let (_, rel, rhs) = &dnf[0][0];
            assert_eq!(*rel, Relation::Eq);
            assert_eq!(rhs.terms[0].1, Ref { kind: RefKind::X, index: 8, path: vec![1] });
        } else {
            panic!("expected constraint");
        }
    }

    #[test]
    fn dnf_of_disjunction_has_two_sets() {
        let src = "fn f { (x3 = 0 & x5 = 1) | (x3 = 1 & x5 = 0); }";
        let anns = parse_annotations(src).unwrap();
        if let Stmt::Cons(or) = &anns.functions[0].1[0] {
            let dnf = or.to_dnf();
            assert_eq!(dnf.len(), 2);
            assert_eq!(dnf[0].len(), 2);
            assert_eq!(dnf[1].len(), 2);
        } else {
            panic!();
        }
    }

    #[test]
    fn nested_groups_expand() {
        // (a | b) & (c | d) -> 4 sets.
        let src = "fn f { (x1 = 0 | x1 = 1) & (x2 = 0 | x2 = 1); }";
        let anns = parse_annotations(src).unwrap();
        if let Stmt::Cons(or) = &anns.functions[0].1[0] {
            assert_eq!(or.to_dnf().len(), 4);
        } else {
            panic!();
        }
    }

    #[test]
    fn coefficients_and_constants() {
        let src = "fn f { 2*x1 - 3*x2 + 5 <= 10 x3; }";
        let anns = parse_annotations(src).unwrap();
        if let Stmt::Cons(or) = &anns.functions[0].1[0] {
            let dnf = or.to_dnf();
            let (lhs, rel, rhs) = &dnf[0][0];
            assert_eq!(*rel, Relation::Le);
            assert_eq!(
                lhs.terms,
                vec![
                    (2, Ref { kind: RefKind::X, index: 1, path: vec![] }),
                    (-3, Ref { kind: RefKind::X, index: 2, path: vec![] }),
                ]
            );
            assert_eq!(lhs.constant, 5);
            assert_eq!(rhs.terms, vec![(10, Ref { kind: RefKind::X, index: 3, path: vec![] })]);
        } else {
            panic!();
        }
    }

    #[test]
    fn leading_minus_and_d_f_refs() {
        let src = "fn f { -x1 + d2 >= f1 - 4; }";
        let anns = parse_annotations(src).unwrap();
        if let Stmt::Cons(or) = &anns.functions[0].1[0] {
            let (lhs, _, rhs) = &or.to_dnf()[0][0];
            assert_eq!(lhs.terms[0].0, -1);
            assert_eq!(lhs.terms[1].1.kind, RefKind::D);
            assert_eq!(rhs.terms[0].1.kind, RefKind::F);
            assert_eq!(rhs.constant, -4);
        } else {
            panic!();
        }
    }

    #[test]
    fn multi_hop_path() {
        let src = "fn f { x2.f1.f3 = 7; }";
        let anns = parse_annotations(src).unwrap();
        if let Stmt::Cons(or) = &anns.functions[0].1[0] {
            let (lhs, _, _) = &or.to_dnf()[0][0];
            assert_eq!(lhs.terms[0].1.path, vec![1, 3]);
        } else {
            panic!();
        }
    }

    #[test]
    fn error_reports_line() {
        let src = "fn f {\n x1 = ;\n}";
        match parse_annotations(src) {
            Err(AnalysisError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejects_garbage_character() {
        match parse_annotations("fn f { x1 = 0 ^ x2 = 1; }") {
            Err(AnalysisError::Parse { message, .. }) => {
                assert!(message.contains('^'), "{message}")
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn comments_are_ignored() {
        let src = "# a comment\nfn f { // another\n x1 = 1; }";
        let anns = parse_annotations(src).unwrap();
        assert_eq!(anns.functions[0].1.len(), 1);
    }

    #[test]
    fn x0_is_an_identifier_not_a_var() {
        // Indices are 1-based; `x0` falls back to an identifier and fails
        // to parse as a term.
        assert!(parse_annotations("fn f { x0 = 1; }").is_err());
    }

    #[test]
    fn empty_function_block_is_fine() {
        let anns = parse_annotations("fn f { }").unwrap();
        assert!(anns.for_function("f").is_empty());
        assert!(anns.for_function("other").is_empty());
    }

    /// `x1 = 0` inside `depth` parenthesised groups.
    fn nested_group(depth: usize) -> String {
        format!("{}x1 = 0{}", "(".repeat(depth), ")".repeat(depth))
    }

    /// One function whose statement, on line 2, is [`nested_group`].
    fn nested(depth: usize) -> String {
        format!("fn f {{\n{}; }}", nested_group(depth))
    }

    #[test]
    fn group_nesting_is_limited() {
        let anns = parse_annotations(&nested(MAX_GROUP_DEPTH)).expect("at the limit");
        let Stmt::Cons(or) = &anns.functions[0].1[0] else { panic!("expected constraint") };
        assert_eq!((or.set_count(), or.to_dnf().len(), or.atoms().len()), (1, 1, 1));
        for depth in [MAX_GROUP_DEPTH + 1, 50_000] {
            match parse_annotations(&nested(depth)) {
                Err(AnalysisError::Parse { line: 2, message }) => {
                    assert!(message.contains("nested more than 100"), "{message}")
                }
                other => panic!("depth {depth}: {other:?}"),
            }
        }
        // Siblings do not add up: depth is what is open at once.
        let wide = format!("fn f {{ {}; }}", vec![nested_group(MAX_GROUP_DEPTH); 3].join(" & "));
        assert!(parse_annotations(&wide).is_ok());
    }

    #[test]
    fn set_count_matches_the_dnf_and_saturates() {
        for (src, sets) in [
            ("x1 = 0", 1),
            ("x1 = 0 | x1 = 1", 2),
            ("(x1 = 0 | x1 = 1) & (x2 = 0 | x2 = 1 | x2 = 2)", 6),
            ("((x1 = 0 | x1 = 1) & (x2 = 0 | x2 = 1)) | x3 = 0", 5),
            ("(x3 = 0 & x5 = 1) | (x3 = 1 & x5 = 0)", 2),
        ] {
            let anns = parse_annotations(&format!("fn f {{ {src}; }}")).unwrap();
            let Stmt::Cons(or) = &anns.functions[0].1[0] else { panic!("{src}") };
            assert_eq!(or.set_count(), sets, "{src}");
            assert_eq!(or.to_dnf().len(), sets, "{src}");
        }
        // 2^70 sets in one statement: counted, never expanded.
        let src = format!("fn f {{ {}; }}", vec!["(x1 >= 0 | x2 >= 0)"; 70].join(" & "));
        let anns = parse_annotations(&src).unwrap();
        let Stmt::Cons(or) = &anns.functions[0].1[0] else { panic!("expected constraint") };
        assert_eq!(or.set_count(), usize::MAX);
        assert_eq!(or.atoms().len(), 140);
    }

    #[test]
    fn ref_display_roundtrip() {
        let r = Ref { kind: RefKind::X, index: 8, path: vec![1, 2] };
        assert_eq!(r.to_string(), "x8.f1.f2");
    }

    fn parse_error(src: &str) -> (usize, String) {
        match parse_annotations(src) {
            Err(AnalysisError::Parse { line, message }) => (line, message),
            other => panic!("{src:?}: {other:?}"),
        }
    }

    #[test]
    fn multi_byte_characters_in_comments_lex_cleanly() {
        let toks = lex("fn f { # é 日本\n// ¿ ¡\n x1 = 1; } # ∑").unwrap();
        assert_eq!(toks.len(), 8);
        assert_eq!((toks[0], toks[2].1, toks[3]), ((Tok::Fn, 1), 1, (Tok::Var(RefKind::X, 1), 3)));
        let anns = parse_annotations("fn f { # é\n x1 = 1; }\n// ü\nfn g { x2 = 2; }").unwrap();
        assert_eq!(anns.functions.len(), 2);
        // The error after the comments still names its line.
        assert_eq!(parse_error("# é\n// ü\nfn f { x1 = ; }").0, 3);
    }

    #[test]
    fn multi_byte_character_outside_a_comment_is_reported_whole() {
        assert_eq!(parse_error("fn f {\n x1 = é; }"), (2, "unexpected character 'é'".to_string()));
        assert_eq!(parse_error("# ü\n\n日"), (3, "unexpected character '日'".to_string()));
    }

    #[test]
    fn integer_overflow_keeps_its_message() {
        assert!(parse_annotations("fn f { x1 <= 9223372036854775807; }").is_ok());
        assert_eq!(
            parse_error("fn f {\n x1 <= 9223372036854775808; }"),
            (2, "integer literal 9223372036854775808 out of range".to_string())
        );
        // An index too large for `usize` leaves the word an identifier.
        assert_eq!(lex("x99999999999999999999").unwrap()[0].0, Tok::Ident("x99999999999999999999"));
    }

    #[test]
    fn keyword_prefixes_are_identifiers() {
        let toks: Vec<_> =
            lex("fnx loop_ in2 fn loop in x1_ xy").unwrap().into_iter().map(|(t, _)| t).collect();
        assert_eq!(
            toks,
            vec![
                Tok::Ident("fnx"),
                Tok::Ident("loop_"),
                Tok::Ident("in2"),
                Tok::Fn,
                Tok::Loop,
                Tok::In,
                Tok::Ident("x1_"),
                Tok::Ident("xy")
            ]
        );
    }
}
