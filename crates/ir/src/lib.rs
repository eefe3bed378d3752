//! # elzar-ir
//!
//! A compact, LLVM-like typed SSA intermediate representation used by the
//! ELZAR (DSN'16) reproduction. The paper implements its transformation as
//! an LLVM pass operating on bitcode right before code generation; this
//! crate plays the role of that bitcode layer:
//!
//! * scalar types `i1..i64`, `f32`, `f64`, `ptr`, and fixed vectors that
//!   model AVX YMM registers (`<4 x i64>`, `<8 x f32>`, …);
//! * AVX-faithful vector semantics: vector compares produce all-ones /
//!   all-zeros lane *masks*, `ptest` folds a mask to three flag outcomes,
//!   `shufflevector`/`extractelement`/`splat` map to
//!   `vperm`/`vpextr`/`vbroadcast`;
//! * the "synchronization instruction" taxonomy of §III-B (loads, stores,
//!   atomics, calls) that both ILR and ELZAR leave unreplicated;
//! * builders, a structural + type + SSA-dominance verifier, CFG analyses
//!   and a printer for golden tests.
//!
//! ## Example
//!
//! ```
//! use elzar_ir::builder::{c64, FuncBuilder};
//! use elzar_ir::types::Ty;
//! use elzar_ir::module::Module;
//! use elzar_ir::verify::verify_module;
//!
//! let mut m = Module::new("demo");
//! let mut b = FuncBuilder::new("add1", vec![Ty::I64], Ty::I64);
//! let p = b.param(0);
//! let r = b.add(p, c64(1));
//! b.ret(r);
//! m.add_func(b.finish());
//! verify_module(&m).expect("well-formed");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod builder;
pub mod inst;
pub mod module;
pub mod printer;
pub mod types;
pub mod value;
pub mod verify;

pub use builder::FuncBuilder;
pub use inst::{BinOp, Builtin, Callee, CastOp, CmpPred, Inst, RmwOp, Terminator};
pub use module::{Block, Function, InstData, Module, ValueDef, ValueInfo, VectorizeHint};
pub use types::Ty;
pub use value::{BlockId, Const, FuncId, InstId, Operand, ValueId};
pub use verify::{verify_function, verify_module, VerifyError};
