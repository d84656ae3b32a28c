//! Recursive-descent parser for mini-C.

use crate::ast::*;
use crate::lexer::{lex, CompileError, Tok};

/// Parses a source file into a [`Module`].
///
/// # Errors
///
/// Returns a [`CompileError`] with the offending line.
pub fn parse_module(src: &str) -> Result<Module, CompileError> {
    let toks = lex(src)?;
    let mut p = Parser { toks, pos: 0, consts: Vec::new(), depth: 0 };
    p.module()
}

/// The deepest nesting a source may have: the statement bodies a point
/// sits in, plus the parentheses, unary operators, calls and indexes open
/// around it, plus the height of the expression tree it builds. Every
/// binary operator adds one to that height, so a flat chain `1+1+…+1`
/// counts as deep as its length. The parser and every later pass recurse
/// along that nesting; past the limit the parser returns a
/// [`CompileError`] instead of exhausting the stack.
pub const MAX_NESTING: usize = 100;

/// Peeks and consumes tokens by copy: a name is allocated only where the
/// syntax tree keeps it.
struct Parser<'src> {
    toks: Vec<(Tok<'src>, usize)>,
    pos: usize,
    /// Constants seen so far, for folding array sizes and initializers.
    consts: Vec<(&'src str, i64)>,
    /// Nesting levels open around the current position (see
    /// [`MAX_NESTING`]).
    depth: usize,
}

impl<'src> Parser<'src> {
    fn peek(&self) -> Option<Tok<'src>> {
        self.toks.get(self.pos).map(|&(t, _)| t)
    }

    fn peek2(&self) -> Option<Tok<'src>> {
        self.toks.get(self.pos + 1).map(|&(t, _)| t)
    }

    fn line(&self) -> usize {
        self.toks.get(self.pos.min(self.toks.len().saturating_sub(1))).map(|(_, l)| *l).unwrap_or(0)
    }

    fn bump(&mut self) -> Option<Tok<'src>> {
        let t = self.peek();
        self.pos += 1;
        t
    }

    fn err(&self, msg: impl Into<String>) -> CompileError {
        CompileError::new(self.line(), msg.into())
    }

    /// Opens one nesting level; [`Parser::leave`] closes it. An error
    /// aborts the whole parse, so only the success paths close levels.
    fn enter(&mut self) -> Result<(), CompileError> {
        self.check_depth(1)?;
        self.depth += 1;
        Ok(())
    }

    fn leave(&mut self) {
        self.depth -= 1;
    }

    /// Fails when a tree of `height` built at the current depth would
    /// pass [`MAX_NESTING`].
    fn check_depth(&self, height: usize) -> Result<(), CompileError> {
        if self.depth + height > MAX_NESTING {
            return Err(self.err(format!("nested more than {MAX_NESTING} levels deep")));
        }
        Ok(())
    }

    /// An expression node of `height` levels, checked against the limit.
    fn node(
        &self,
        kind: ExprKind,
        line: usize,
        height: usize,
    ) -> Result<(Expr, usize), CompileError> {
        self.check_depth(height)?;
        Ok((Expr { kind, line }, height))
    }

    fn expect(&mut self, want: Tok<'src>) -> Result<(), CompileError> {
        match self.bump() {
            Some(t) if t == want => Ok(()),
            Some(t) => Err(self.err(format!("expected `{want}`, found `{t}`"))),
            None => Err(self.err(format!("expected `{want}`, found end of file"))),
        }
    }

    fn ident(&mut self) -> Result<&'src str, CompileError> {
        match self.bump() {
            Some(Tok::Ident(s)) => Ok(s),
            Some(t) => Err(self.err(format!("expected identifier, found `{t}`"))),
            None => Err(self.err("expected identifier, found end of file")),
        }
    }

    fn const_value(&self, name: &str) -> Option<i64> {
        self.consts.iter().rev().find(|&&(n, _)| n == name).map(|&(_, v)| v)
    }

    /// A compile-time integer: literal or named constant, under any number
    /// of unary minuses.
    fn const_int(&mut self) -> Result<i64, CompileError> {
        let mut negate = false;
        while self.peek() == Some(Tok::Minus) {
            self.bump();
            negate = !negate;
        }
        let value = match self.bump() {
            Some(Tok::Num(n)) => n,
            Some(Tok::Ident(name)) => self
                .const_value(name)
                .ok_or_else(|| self.err(format!("`{name}` is not a known constant")))?,
            other => {
                return Err(self.err(format!(
                    "expected a constant integer, found `{}`",
                    other.map(|t| t.to_string()).unwrap_or_else(|| "end of file".into())
                )))
            }
        };
        Ok(if negate { -value } else { value })
    }

    fn module(&mut self) -> Result<Module, CompileError> {
        let mut items = Vec::new();
        while self.peek().is_some() {
            match self.peek() {
                Some(Tok::Const) => {
                    let line = self.line();
                    self.bump();
                    let name = self.ident()?;
                    self.expect(Tok::Assign)?;
                    let value = self.const_int()?;
                    self.expect(Tok::Semi)?;
                    self.consts.push((name, value));
                    items.push(Item::Const { name: name.to_string(), value, line });
                }
                Some(Tok::Int) => {
                    let line = self.line();
                    self.bump();
                    let name = self.ident()?.to_string();
                    match self.peek() {
                        Some(Tok::LParen) => {
                            items.push(Item::Func(self.func_rest(name, line)?));
                        }
                        Some(Tok::LBracket) => {
                            self.bump();
                            let words = self.const_int()?;
                            if words <= 0 {
                                return Err(self.err("array size must be positive"));
                            }
                            self.expect(Tok::RBracket)?;
                            let mut init = Vec::new();
                            if self.peek() == Some(Tok::Assign) {
                                self.bump();
                                self.expect(Tok::LBrace)?;
                                if self.peek() != Some(Tok::RBrace) {
                                    loop {
                                        init.push(self.const_int()?);
                                        if self.peek() == Some(Tok::Comma) {
                                            self.bump();
                                        } else {
                                            break;
                                        }
                                    }
                                }
                                self.expect(Tok::RBrace)?;
                            }
                            self.expect(Tok::Semi)?;
                            if init.len() as i64 > words {
                                return Err(self.err("more initializers than array elements"));
                            }
                            items.push(Item::GlobalArray { name, words: words as u32, init, line });
                        }
                        _ => {
                            let mut init = 0i64;
                            if self.peek() == Some(Tok::Assign) {
                                self.bump();
                                init = self.const_int()?;
                            }
                            self.expect(Tok::Semi)?;
                            items.push(Item::GlobalScalar { name, init, line });
                        }
                    }
                }
                Some(t) => {
                    return Err(self.err(format!("expected `int` or `const` item, found `{t}`")))
                }
                None => break,
            }
        }
        Ok(Module { items })
    }

    fn func_rest(&mut self, name: String, line: usize) -> Result<FuncDecl, CompileError> {
        self.expect(Tok::LParen)?;
        let mut params = Vec::new();
        if self.peek() != Some(Tok::RParen) {
            loop {
                self.expect(Tok::Int)?;
                params.push(self.ident()?.to_string());
                if self.peek() == Some(Tok::Comma) {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(Tok::RParen)?;
        if params.len() > 4 {
            return Err(self.err("functions take at most four parameters"));
        }
        let body = self.block()?;
        Ok(FuncDecl { name, params, body, line })
    }

    fn block(&mut self) -> Result<Vec<Stmt>, CompileError> {
        self.expect(Tok::LBrace)?;
        let mut stmts = Vec::new();
        while self.peek() != Some(Tok::RBrace) {
            if self.peek().is_none() {
                return Err(self.err("unterminated block"));
            }
            stmts.push(self.stmt()?);
        }
        self.expect(Tok::RBrace)?;
        Ok(stmts)
    }

    /// A statement or a `{ ... }` block flattened into statements.
    /// One nesting level deeper than the statement that owns it.
    fn stmt_or_block(&mut self) -> Result<Vec<Stmt>, CompileError> {
        self.enter()?;
        let body =
            if self.peek() == Some(Tok::LBrace) { self.block()? } else { vec![self.stmt()?] };
        self.leave();
        Ok(body)
    }

    /// One statement. Only the dispatch lives here: each compound
    /// statement parses in its own function, so the frame that the
    /// recursion through nested bodies repeats stays small.
    fn stmt(&mut self) -> Result<Stmt, CompileError> {
        let line = self.line();
        match self.peek() {
            Some(Tok::Int) => self.decl_stmt(line),
            Some(Tok::If) => self.if_stmt(line),
            Some(Tok::While) => self.while_stmt(line),
            Some(Tok::Do) => self.do_while_stmt(line),
            Some(Tok::For) => self.for_stmt(line),
            Some(Tok::Return) => self.return_stmt(line),
            Some(Tok::Break) => {
                self.bump();
                self.expect(Tok::Semi)?;
                Ok(Stmt::Break { line })
            }
            Some(Tok::Continue) => {
                self.bump();
                self.expect(Tok::Semi)?;
                Ok(Stmt::Continue { line })
            }
            _ => self.simple_stmt(),
        }
    }

    fn decl_stmt(&mut self, line: usize) -> Result<Stmt, CompileError> {
        self.bump();
        let name = self.ident()?.to_string();
        let init = if self.peek() == Some(Tok::Assign) {
            self.bump();
            Some(self.expr()?)
        } else {
            None
        };
        self.expect(Tok::Semi)?;
        Ok(Stmt::Decl { name, init, line })
    }

    /// `( expr )`, the condition of `if`, `while` and `do`.
    fn condition(&mut self) -> Result<Expr, CompileError> {
        self.expect(Tok::LParen)?;
        let cond = self.expr()?;
        self.expect(Tok::RParen)?;
        Ok(cond)
    }

    fn if_stmt(&mut self, line: usize) -> Result<Stmt, CompileError> {
        self.bump();
        let cond = self.condition()?;
        let then_branch = self.stmt_or_block()?;
        let else_branch = if self.peek() == Some(Tok::Else) {
            self.bump();
            self.stmt_or_block()?
        } else {
            Vec::new()
        };
        Ok(Stmt::If { cond, then_branch, else_branch, line })
    }

    fn while_stmt(&mut self, line: usize) -> Result<Stmt, CompileError> {
        self.bump();
        let cond = self.condition()?;
        let body = self.stmt_or_block()?;
        Ok(Stmt::While { cond, body, line })
    }

    fn do_while_stmt(&mut self, line: usize) -> Result<Stmt, CompileError> {
        self.bump();
        let body = self.stmt_or_block()?;
        self.expect(Tok::While)?;
        let cond = self.condition()?;
        self.expect(Tok::Semi)?;
        Ok(Stmt::DoWhile { body, cond, line })
    }

    fn for_stmt(&mut self, line: usize) -> Result<Stmt, CompileError> {
        self.bump();
        self.expect(Tok::LParen)?;
        let init = if self.peek() == Some(Tok::Semi) {
            self.bump();
            None
        } else {
            let s = self.simple_stmt()?; // consumes the `;`
            Some(Box::new(s))
        };
        let cond = if self.peek() == Some(Tok::Semi) { None } else { Some(self.expr()?) };
        self.expect(Tok::Semi)?;
        let step = if self.peek() == Some(Tok::RParen) {
            None
        } else {
            Some(Box::new(self.assign_like()?))
        };
        self.expect(Tok::RParen)?;
        let body = self.stmt_or_block()?;
        Ok(Stmt::For { init, cond, step, body, line })
    }

    fn return_stmt(&mut self, line: usize) -> Result<Stmt, CompileError> {
        self.bump();
        let value = if self.peek() == Some(Tok::Semi) { None } else { Some(self.expr()?) };
        self.expect(Tok::Semi)?;
        Ok(Stmt::Return { value, line })
    }

    /// Assignment / declaration-free statement ending in `;`.
    fn simple_stmt(&mut self) -> Result<Stmt, CompileError> {
        if self.peek() == Some(Tok::Int) {
            // allow `for (int i = 0; ...)`
            let line = self.line();
            self.bump();
            let name = self.ident()?.to_string();
            self.expect(Tok::Assign)?;
            let init = Some(self.expr()?);
            self.expect(Tok::Semi)?;
            return Ok(Stmt::Decl { name, init, line });
        }
        let s = self.assign_like()?;
        self.expect(Tok::Semi)?;
        Ok(s)
    }

    /// Assignment or expression statement, without the trailing `;`
    /// (used by `for` steps).
    fn assign_like(&mut self) -> Result<Stmt, CompileError> {
        let line = self.line();
        // Lookahead: IDENT `=` / IDENT `[` ... `]` `=` are assignments.
        if let (Some(Tok::Ident(name)), Some(next)) = (self.peek(), self.peek2()) {
            let desugar = |op: BinOp, name: &str, rhs: Expr, line: usize| Stmt::Assign {
                name: name.to_string(),
                value: Expr {
                    kind: ExprKind::Binary(
                        op,
                        Box::new(Expr { kind: ExprKind::Var(name.to_string()), line }),
                        Box::new(rhs),
                    ),
                    line,
                },
                line,
            };
            match next {
                Tok::Assign => {
                    self.bump();
                    self.bump();
                    let value = self.expr()?;
                    return Ok(Stmt::Assign { name: name.to_string(), value, line });
                }
                Tok::PlusEq | Tok::MinusEq | Tok::StarEq | Tok::SlashEq => {
                    let op = match next {
                        Tok::PlusEq => BinOp::Add,
                        Tok::MinusEq => BinOp::Sub,
                        Tok::StarEq => BinOp::Mul,
                        _ => BinOp::Div,
                    };
                    self.bump();
                    self.bump();
                    let (rhs, height) = self.binary(0)?;
                    self.check_depth(1 + height)?;
                    return Ok(desugar(op, name, rhs, line));
                }
                Tok::PlusPlus | Tok::MinusMinus => {
                    let op = if next == Tok::PlusPlus { BinOp::Add } else { BinOp::Sub };
                    self.bump();
                    self.bump();
                    return Ok(desugar(op, name, Expr { kind: ExprKind::Num(1), line }, line));
                }
                Tok::LBracket => {
                    // Could be `a[i] = v` or the expression `a[i]` — scan
                    // for the matching `]` and check for `=`.
                    let save = self.pos;
                    self.bump(); // ident
                    self.bump(); // [
                    let mut depth = 1usize;
                    let mut scan = self.pos;
                    while depth > 0 {
                        match self.toks.get(scan).map(|(t, _)| t) {
                            Some(Tok::LBracket) => depth += 1,
                            Some(Tok::RBracket) => depth -= 1,
                            Some(_) => {}
                            None => return Err(self.err("unterminated index")),
                        }
                        scan += 1;
                    }
                    if self.toks.get(scan).map(|&(t, _)| t) == Some(Tok::Assign) {
                        let index = self.expr()?;
                        self.expect(Tok::RBracket)?;
                        self.expect(Tok::Assign)?;
                        let value = self.expr()?;
                        let name = name.to_string();
                        return Ok(Stmt::AssignIndex { name, index, value, line });
                    }
                    self.pos = save;
                }
                _ => {}
            }
        }
        // Prefix increment/decrement as a statement: ++i; / --i;
        if matches!(self.peek(), Some(Tok::PlusPlus) | Some(Tok::MinusMinus)) {
            let op = if self.peek() == Some(Tok::PlusPlus) { BinOp::Add } else { BinOp::Sub };
            self.bump();
            let name = self.ident()?;
            return Ok(Stmt::Assign {
                name: name.to_string(),
                value: Expr {
                    kind: ExprKind::Binary(
                        op,
                        Box::new(Expr { kind: ExprKind::Var(name.to_string()), line }),
                        Box::new(Expr { kind: ExprKind::Num(1), line }),
                    ),
                    line,
                },
                line,
            });
        }
        let expr = self.expr()?;
        Ok(Stmt::ExprStmt { expr, line })
    }

    // Expression parsing: precedence climbing. Each step returns the
    // expression with its tree height (a leaf is 1), checked against
    // `MAX_NESTING` whenever a node is built.

    fn expr(&mut self) -> Result<Expr, CompileError> {
        Ok(self.binary(0)?.0)
    }

    fn binary(&mut self, min_prec: u8) -> Result<(Expr, usize), CompileError> {
        let (mut lhs, mut height) = self.unary()?;
        loop {
            let (op, prec) = match self.peek() {
                Some(Tok::PipePipe) => (BinOp::LOr, 1),
                Some(Tok::AmpAmp) => (BinOp::LAnd, 2),
                Some(Tok::Pipe) => (BinOp::Or, 3),
                Some(Tok::Caret) => (BinOp::Xor, 4),
                Some(Tok::Amp) => (BinOp::And, 5),
                Some(Tok::EqEq) => (BinOp::Eq, 6),
                Some(Tok::Ne) => (BinOp::Ne, 6),
                Some(Tok::Lt) => (BinOp::Lt, 7),
                Some(Tok::Le) => (BinOp::Le, 7),
                Some(Tok::Gt) => (BinOp::Gt, 7),
                Some(Tok::Ge) => (BinOp::Ge, 7),
                Some(Tok::Shl) => (BinOp::Shl, 8),
                Some(Tok::Shr) => (BinOp::Shr, 8),
                Some(Tok::Plus) => (BinOp::Add, 9),
                Some(Tok::Minus) => (BinOp::Sub, 9),
                Some(Tok::Star) => (BinOp::Mul, 10),
                Some(Tok::Slash) => (BinOp::Div, 10),
                Some(Tok::Percent) => (BinOp::Rem, 10),
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            let line = self.line();
            self.bump();
            let (rhs, rhs_height) = self.binary(prec + 1)?;
            let kind = ExprKind::Binary(op, Box::new(lhs), Box::new(rhs));
            (lhs, height) = self.node(kind, line, 1 + height.max(rhs_height))?;
        }
        Ok((lhs, height))
    }

    fn unary(&mut self) -> Result<(Expr, usize), CompileError> {
        let line = self.line();
        let op = match self.peek() {
            Some(Tok::Minus) => UnOp::Neg,
            Some(Tok::Not) => UnOp::Not,
            _ => return self.primary(),
        };
        self.bump();
        self.enter()?;
        let (inner, height) = self.unary()?;
        self.leave();
        self.node(ExprKind::Unary(op, Box::new(inner)), line, 1 + height)
    }

    /// A full expression one nesting level down (inside parentheses, an
    /// argument list or an index), with its height.
    fn nested_expr(&mut self) -> Result<(Expr, usize), CompileError> {
        self.enter()?;
        let inner = self.binary(0)?;
        self.leave();
        Ok(inner)
    }

    fn primary(&mut self) -> Result<(Expr, usize), CompileError> {
        let line = self.line();
        match self.bump() {
            Some(Tok::Num(n)) => Ok((Expr { kind: ExprKind::Num(n), line }, 1)),
            Some(Tok::LParen) => {
                let inner = self.nested_expr()?;
                self.expect(Tok::RParen)?;
                Ok(inner)
            }
            Some(Tok::Ident(name)) => match self.peek() {
                Some(Tok::LParen) => {
                    self.bump();
                    let mut args = Vec::new();
                    let mut height = 0;
                    if self.peek() != Some(Tok::RParen) {
                        loop {
                            let (arg, h) = self.nested_expr()?;
                            args.push(arg);
                            height = height.max(h);
                            if self.peek() == Some(Tok::Comma) {
                                self.bump();
                            } else {
                                break;
                            }
                        }
                    }
                    self.expect(Tok::RParen)?;
                    self.node(ExprKind::Call(name.to_string(), args), line, 1 + height)
                }
                Some(Tok::LBracket) => {
                    self.bump();
                    let (idx, height) = self.nested_expr()?;
                    self.expect(Tok::RBracket)?;
                    let kind = ExprKind::Index(name.to_string(), Box::new(idx));
                    self.node(kind, line, 1 + height)
                }
                _ => Ok((Expr { kind: ExprKind::Var(name.to_string()), line }, 1)),
            },
            other => Err(CompileError::new(
                line,
                format!(
                    "expected an expression, found `{}`",
                    other.map(|t| t.to_string()).unwrap_or_else(|| "end of file".into())
                ),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_globals_consts_and_functions() {
        let m = parse_module(
            "const N = 4;
             int total = 7;
             int data[N] = {1, 2, 3};
             int f(int a, int b) { return a + b; }",
        )
        .unwrap();
        assert_eq!(m.items.len(), 4);
        assert!(matches!(m.items[0], Item::Const { value: 4, .. }));
        assert!(matches!(m.items[1], Item::GlobalScalar { init: 7, .. }));
        match &m.items[2] {
            Item::GlobalArray { words, init, .. } => {
                assert_eq!(*words, 4);
                assert_eq!(init, &vec![1, 2, 3]);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(m.functions().count(), 1);
    }

    #[test]
    fn precedence_is_c_like() {
        let m = parse_module("int f() { return 1 + 2 * 3 < 4 && 5 == 6; }").unwrap();
        let f = m.functions().next().unwrap();
        let Stmt::Return { value: Some(e), .. } = &f.body[0] else { panic!() };
        // && at the top
        let ExprKind::Binary(BinOp::LAnd, l, r) = &e.kind else { panic!("{e:?}") };
        assert!(matches!(l.kind, ExprKind::Binary(BinOp::Lt, _, _)));
        assert!(matches!(r.kind, ExprKind::Binary(BinOp::Eq, _, _)));
    }

    #[test]
    fn statements_roundtrip() {
        let m = parse_module(
            "int g;
             int a[8];
             int f(int n) {
                 int i;
                 for (i = 0; i < n; i = i + 1) {
                     a[i] = i;
                     if (a[i] > 3) break; else continue;
                 }
                 do { g = g - 1; } while (g > 0);
                 while (n) { n = n - 1; }
                 f(0);
                 return g;
             }",
        )
        .unwrap();
        let f = m.functions().next().unwrap();
        assert_eq!(f.body.len(), 6);
        assert!(matches!(f.body[1], Stmt::For { .. }));
        assert!(matches!(f.body[2], Stmt::DoWhile { .. }));
        assert!(matches!(f.body[4], Stmt::ExprStmt { .. }));
    }

    #[test]
    fn for_with_decl_init() {
        let m =
            parse_module("int f() { for (int i = 0; i < 3; i = i + 1) { } return 0; }").unwrap();
        let f = m.functions().next().unwrap();
        let Stmt::For { init: Some(init), .. } = &f.body[0] else { panic!() };
        assert!(matches!(**init, Stmt::Decl { .. }));
    }

    #[test]
    fn array_read_vs_write_disambiguation() {
        let m = parse_module("int a[4]; int f() { a[a[0]] = a[1]; return a[2]; }").unwrap();
        let f = m.functions().next().unwrap();
        assert!(matches!(f.body[0], Stmt::AssignIndex { .. }));
    }

    #[test]
    fn const_in_array_size_and_negative_init() {
        let m = parse_module("const N = 3; int a[N] = {-1, -2};").unwrap();
        match &m.items[1] {
            Item::GlobalArray { words, init, .. } => {
                assert_eq!(*words, 3);
                assert_eq!(init, &vec![-1, -2]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn errors_carry_lines() {
        let err = parse_module("int f() {\n  return 1 +;\n}").unwrap_err();
        assert_eq!(err.line, 2);
        let err = parse_module("int a[0];").unwrap_err();
        assert!(err.message.contains("positive"));
        let err =
            parse_module("int f(int a, int b, int c, int d, int e) { return 0; }").unwrap_err();
        assert!(err.message.contains("four parameters"));
        let err = parse_module("int a[2] = {1,2,3};").unwrap_err();
        assert!(err.message.contains("initializers"));
    }

    #[test]
    fn deep_nesting_is_a_line_numbered_error() {
        let wrap =
            |body: String| format!("int main() {{\n  int x;\n  x = 1;\n{body}\n  return x;\n}}");
        let n = 30_000;
        let parens = format!("  x = {}1{};", "(".repeat(n), ")".repeat(n));
        let chain = format!("  x = 1{};", "+1".repeat(n - 1));
        let ifs = format!("{}x = 2;{}", "if (x) { ".repeat(n / 3), "}".repeat(n / 3));
        let minus = format!("  x = {}1;", "- ".repeat(n));
        for (shape, body) in [("parens", parens), ("chain", chain), ("ifs", ifs), ("minus", minus)]
        {
            let err = parse_module(&wrap(body)).unwrap_err();
            assert_eq!(err.line, 4, "{shape}: {err}");
            assert!(err.message.contains("nested more than"), "{shape}: {err}");
        }
        // A constant's minus signs are folded in a loop, not recursion.
        let src = format!("const C = {}7;\nint main() {{ return C; }}", "- ".repeat(n));
        assert!(parse_module(&src).is_ok());
    }

    #[test]
    fn compound_assignment_counts_its_operator() {
        // `x += e` builds `x + e`: one level more than `e` alone.
        let src = |terms: usize| {
            format!("int main() {{ int x; x += 1{}; return x; }}", "+1".repeat(terms - 1))
        };
        assert!(parse_module(&src(MAX_NESTING - 1)).is_ok());
        assert!(parse_module(&src(MAX_NESTING)).is_err());
    }

    #[test]
    fn unknown_constant_is_an_error() {
        let err = parse_module("int a[SIZE];").unwrap_err();
        assert!(err.message.contains("SIZE"));
    }
}

#[cfg(test)]
mod sugar_tests {
    use super::*;

    fn body_of(src: &str) -> Vec<Stmt> {
        parse_module(src).unwrap().functions().next().unwrap().body.clone()
    }

    #[test]
    fn compound_assignment_desugars() {
        let body = body_of("int f(int x) { x += 3; x -= 1; x *= 2; x /= 4; return x; }");
        for (i, op) in [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div].iter().enumerate() {
            let Stmt::Assign { name, value, .. } = &body[i] else { panic!() };
            assert_eq!(name, "x");
            let ExprKind::Binary(got, lhs, _) = &value.kind else { panic!() };
            assert_eq!(got, op);
            assert!(matches!(&lhs.kind, ExprKind::Var(v) if v == "x"));
        }
    }

    #[test]
    fn increment_statements_desugar() {
        let body = body_of("int f(int i) { i++; ++i; i--; --i; return i; }");
        assert_eq!(body.len(), 5);
        for stmt in &body[..4] {
            let Stmt::Assign { value, .. } = stmt else { panic!("{stmt:?}") };
            assert!(matches!(&value.kind, ExprKind::Binary(_, _, rhs)
                if matches!(rhs.kind, ExprKind::Num(1))));
        }
    }

    #[test]
    fn for_step_accepts_sugar() {
        let body = body_of(
            "int f() { int i; int s; s = 0; for (i = 0; i < 5; i++) { s += i; } return s; }",
        );
        assert!(matches!(body[3], Stmt::For { .. }), "{body:?}");
    }

    #[test]
    fn sugar_executes_correctly() {
        let p = crate::compile(
            "int f(int n) { int s; s = 0; for (int i = 0; i < n; ++i) { s += i * 2; } return s; }",
            "f",
        )
        .unwrap();
        assert!(p.validate().is_ok());
    }
}
