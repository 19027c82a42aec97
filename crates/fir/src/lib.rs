//! # FIR — the Fuzzing Intermediate Representation
//!
//! FIR is the LLVM-IR analog used throughout the ClosureX reproduction. It is
//! a compact, typed, register-machine IR with:
//!
//! * [`Module`]s holding [`Global`]s (with ELF-like [`Section`] placement) and
//!   [`Function`]s,
//! * functions made of [`Block`]s of [`Inst`]s ending in a [`Terminator`],
//! * name-based [`Inst::Call`] sites, so compiler passes can perform
//!   `replaceAllUsesWith`-style callee rewriting exactly as the paper's LLVM
//!   passes do,
//! * a [`builder`] for programmatic construction, a [`verify`] pass, a text
//!   [`printer`] and round-tripping [`parser`], and [`cfg`](mod@cfg) analyses.
//!
//! The interpreter for FIR lives in the `vmos` crate; the ClosureX passes that
//! transform FIR live in the `passes` crate.
//!
//! ```
//! use fir::builder::ModuleBuilder;
//! use fir::{Operand, Width};
//!
//! let mut mb = ModuleBuilder::new("demo");
//! let mut f = mb.function("main");
//! let v = f.const_i64(41);
//! let one = f.const_i64(1);
//! let sum = f.add(Operand::Reg(v), Operand::Reg(one));
//! f.ret(Some(Operand::Reg(sum)));
//! f.finish();
//! let module = mb.finish();
//! assert_eq!(module.functions.len(), 1);
//! assert!(fir::verify::verify_module(&module).is_ok());
//! ```

pub mod builder;
pub mod cfg;
pub mod global;
pub mod image;
pub mod inst;
pub mod liveness;
pub mod module;
pub mod parser;
pub mod printer;
pub mod verify;

pub use global::{Global, GlobalId, Section};
pub use inst::{BinOp, BlockId, CmpPred, Inst, Operand, Reg, Terminator, Width};
pub use module::{Block, Function, FunctionId, Module};

#[cfg(test)]
mod proptests;
