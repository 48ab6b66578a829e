//! # mvgnn-ir — a miniature typed IR for parallelism discovery research
//!
//! A small, LLVM-flavoured intermediate representation: functions of basic
//! blocks of three-address instructions over virtual registers, explicit
//! loads/stores against named arrays, structured loop metadata, direct
//! calls, and synthetic source-line attribution.
//!
//! The IR substitutes for LLVM IR in the MV-GNN reproduction (see
//! DESIGN.md): the model consumes *statement-level tokens* plus a dynamic
//! dependence graph, both of which this IR provides through
//! [`interp::Interpreter`] and its [`interp::Tracer`] instrumentation hook
//! (the DiscoPoP-equivalent profiling surface).
//!
//! Modules:
//! - [`types`]: value types, runtime values, id newtypes
//! - [`inst`]: opcodes and instructions
//! - [`module`]: blocks, loops, functions, modules
//! - [`builder`]: structured-control-flow function builder
//! - [`verify`]: structural verifier
//! - [`text`]: textual printer and parser
//! - [`interp`]: tracing interpreter
//! - [`transform`]: the six "optimization level" passes used for dataset
//!   augmentation

#![forbid(unsafe_code)]

pub mod builder;
pub mod cfg;
pub mod inst;
pub mod interp;
pub mod module;
pub mod text;
pub mod transform;
pub mod types;
pub mod verify;

pub use builder::FunctionBuilder;
pub use cfg::{Cfg, Dominators};
pub use inst::{BinOp, Inst, InstRef, UnOp};
pub use interp::{ExecStats, InterpError, Interpreter, NoTracer, Tracer};
pub use module::{ArrayDecl, Block, BlockId, FuncId, Function, LoopId, LoopInfo, Module, NameId};
pub use types::{ArrayId, Ty, VReg, Value};
