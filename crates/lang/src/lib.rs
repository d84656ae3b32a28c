//! # ipet-lang
//!
//! `mcc` — a mini-C frontend and code generator targeting the
//! [`ipet_arch`] instruction set. The paper analyses i960 executables
//! produced by a C compiler; this crate plays that compiler's role so the
//! benchmark suite can be written at the source level ("the high-level
//! language program is the right place to provide useful annotations ...
//! the final analysis must be performed on the assembly language
//! program").
//!
//! ## Language
//!
//! A deterministic, analysis-friendly C subset:
//!
//! * `int` scalars (32-bit) and global `int` arrays;
//! * `const NAME = <int>;` compile-time constants;
//! * functions of up to four `int` parameters returning `int`;
//! * `if`/`else`, `while`, `do`/`while`, `for`, `break`, `continue`,
//!   `return`;
//! * compound assignment (`+=`, `-=`, `*=`, `/=`) and statement-position
//!   increment/decrement (`i++`, `++i`, `i--`, `--i`);
//! * expressions with the usual C operators, including short-circuit
//!   `&&`/`||` (compiled to branches, exactly the CFG shapes of the
//!   paper's figures).
//!
//! There are no pointers, no recursion and no dynamic allocation — the
//! decidability restrictions the paper adopts (§II). Nesting is bounded
//! too: statement bodies, parentheses and expression-tree height together
//! stay within [`MAX_NESTING`] levels, so no source can exhaust the stack
//! of the parser or of a later pass.
//!
//! ## Front end cost
//!
//! The lexer scans the source's bytes and its tokens borrow the source:
//! a name is a `&str` slice and a number is parsed from one, so lexing
//! allocates only the token vector. The parser peeks and consumes tokens
//! by copy and allocates a `String` only for a name the syntax tree keeps.
//!
//! ## Example
//!
//! ```
//! use ipet_lang::compile;
//!
//! let program = compile(
//!     "int twice(int x) { return 2 * x; }
//!      int main() { return twice(21); }",
//!     "main",
//! ).unwrap();
//! assert_eq!(program.functions.len(), 2);
//! ```

mod ast;
mod codegen;
mod lexer;
mod opt;
mod parser;

pub use ast::{BinOp, Expr, ExprKind, FuncDecl, Item, Module, Stmt, UnOp};
pub use codegen::compile_module;
pub use lexer::CompileError;
pub use opt::{optimize_function, optimize_program, OptLevel};
pub use parser::{parse_module, MAX_NESTING};

use ipet_arch::Program;

/// Compiles mini-C source into an executable [`Program`] with `entry` as
/// the analysed/executed routine, without optimisation ([`OptLevel::O0`]).
///
/// # Errors
///
/// Returns a [`CompileError`] carrying the source line for lexing, parsing,
/// semantic and code-generation failures (including an unknown entry name).
pub fn compile(source: &str, entry: &str) -> Result<Program, CompileError> {
    compile_with(source, entry, OptLevel::O0)
}

/// Compiles with an explicit optimisation level.
///
/// # Errors
///
/// See [`compile`].
pub fn compile_with(source: &str, entry: &str, level: OptLevel) -> Result<Program, CompileError> {
    compile_parsed(source, entry, level).map(|(_, program)| program)
}

/// Compiles like [`compile_with`] and also returns the parsed [`Module`],
/// for callers that read the syntax tree as well (loop-bound inference),
/// so the source is parsed once.
///
/// # Errors
///
/// See [`compile`].
pub fn compile_parsed(
    source: &str,
    entry: &str,
    level: OptLevel,
) -> Result<(Module, Program), CompileError> {
    ipet_trace::counter("lang.compile.calls", 1);
    let module = {
        let _span = ipet_trace::span("lang.parse");
        parse_module(source)?
    };
    let mut program = {
        let _span = ipet_trace::span("lang.codegen");
        compile_module(&module, entry)?
    };
    if level == OptLevel::O1 {
        optimize_program(&mut program);
    }
    ipet_trace::counter("lang.functions", program.functions.len() as u64);
    let instrs: usize = program.functions.iter().map(|f| f.instrs.len()).sum();
    ipet_trace::counter("lang.instructions", instrs as u64);
    Ok((module, program))
}
