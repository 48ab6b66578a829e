//! # mvgnn-lang — a miniature C-like frontend for the mvgnn IR
//!
//! The paper's pipeline begins at *source code*; this crate closes that
//! gap for the reproduction: a small imperative language with arrays,
//! counted `for` loops, `while`, `if/else`, functions and calls, lowered
//! onto [`mvgnn_ir`] through the structured builder so every loop gets
//! full [`mvgnn_ir::module::LoopInfo`] metadata for the profiler.
//!
//! ```
//! let src = r#"
//!     array a[64]: f64;
//!     array s[1]: f64;
//!     fn main() {
//!         for i in 0..64 {
//!             s[0] = s[0] + a[i];
//!         }
//!     }
//! "#;
//! let module = mvgnn_lang::compile(src).unwrap();
//! assert_eq!(module.loop_count(), 1);
//! ```
//!
//! Grammar sketch (see [`parser`] for the full rules):
//!
//! ```text
//! program := ("array" IDENT "[" INT "]" ":" type ";" | "fn" IDENT "(" params ")" block)*
//! stmt    := "for" IDENT "in" expr ".." expr block
//!          | "while" "(" expr ")" block
//!          | "if" "(" expr ")" block ("else" block)?
//!          | "let" IDENT "=" expr ";"
//!          | IDENT "=" expr ";"
//!          | IDENT "[" expr "]" "=" expr ";"
//!          | "return" expr? ";"
//!          | expr ";"
//! ```

#![forbid(unsafe_code)]

pub mod ast;
pub mod lexer;
pub mod lower;
pub mod parser;
pub mod printer;

pub use ast::{BinaryOp, Expr, Item, Program, Stmt};
pub use lexer::{tokenize, LexError, Token};
pub use lower::{lower, LowerError};
pub use parser::{parse, ParseError};
pub use printer::{print_expr, print_program};

/// Compile source text straight to a verified IR module.
pub fn compile(src: &str) -> Result<mvgnn_ir::Module, CompileError> {
    let tokens = tokenize(src).map_err(CompileError::Lex)?;
    let program = parse(&tokens).map_err(CompileError::Parse)?;
    let module = lower(&program).map_err(CompileError::Lower)?;
    mvgnn_ir::verify::verify_module(&module).map_err(CompileError::Verify)?;
    Ok(module)
}

/// Any front-end failure.
#[derive(Debug)]
pub enum CompileError {
    /// Tokenisation failed.
    Lex(LexError),
    /// Parsing failed.
    Parse(ParseError),
    /// Lowering failed (unknown names, arity mismatches, …).
    Lower(LowerError),
    /// The produced IR did not verify (an internal bug if it happens).
    Verify(mvgnn_ir::verify::VerifyError),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Lex(e) => write!(f, "{e}"),
            CompileError::Parse(e) => write!(f, "{e}"),
            CompileError::Lower(e) => write!(f, "{e}"),
            CompileError::Verify(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CompileError {}
