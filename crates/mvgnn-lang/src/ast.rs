//! Abstract syntax tree of the mini language.

/// Binary operators, in source syntax.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Variable reference.
    Var(String),
    /// Array element read `a[i]`.
    Index(String, Box<Expr>),
    /// Function call `f(a, b)`.
    Call(String, Vec<Expr>),
    /// Binary operation.
    Binary(BinaryOp, Box<Expr>, Box<Expr>),
    /// Unary negation.
    Neg(Box<Expr>),
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `let x = e;` — introduce a variable.
    Let(String, Expr),
    /// `x = e;` — reassign.
    Assign(String, Expr),
    /// `a[i] = e;` — store.
    Store(String, Expr, Expr),
    /// `for i in lo..hi { .. }`
    For {
        /// Induction variable name.
        var: String,
        /// Lower bound (inclusive).
        lo: Expr,
        /// Upper bound (exclusive).
        hi: Expr,
        /// Body.
        body: Vec<Stmt>,
    },
    /// `while (cond) { .. }`
    While(Expr, Vec<Stmt>),
    /// `if (cond) { .. } else { .. }`
    If(Expr, Vec<Stmt>, Vec<Stmt>),
    /// `return e?;`
    Return(Option<Expr>),
    /// Bare expression statement (calls for effect).
    Expr(Expr),
}

/// Top-level items.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// `array name[len]: ty;`
    Array {
        /// Array name.
        name: String,
        /// Element count.
        len: usize,
        /// `true` = f64, `false` = i64.
        is_float: bool,
    },
    /// `fn name(params) { .. }`
    Function {
        /// Function name.
        name: String,
        /// Parameter names.
        params: Vec<String>,
        /// Body.
        body: Vec<Stmt>,
    },
}

/// A whole program.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Items in source order.
    pub items: Vec<Item>,
}
