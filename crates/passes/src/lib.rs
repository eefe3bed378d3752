//! # elzar-passes
//!
//! The compiler transformations of the ELZAR reproduction:
//!
//! * [`elzar`] — the paper's contribution (§III): AVX-lane triple modular
//!   redundancy with configurable checks, FP-only mode, and the §VII
//!   "future AVX" variants;
//! * [`swiftr`] — the SWIFT-R instruction-triplication baseline (§V-D);
//! * [`vectorize`] — an innermost-loop vectorizer standing in for LLVM's,
//!   used to build the Figure 1 "native SIMD" baseline;
//! * [`decelerate`] — the §VII-D dummy-wrapper methodology behind the
//!   Figure 17 estimate;
//! * [`dce`] — a small dead-code-elimination hygiene pass;
//! * [`pm`] — the pass manager: every transformation behind one
//!   [`Pass`] trait, pipelines as data ([`PassDesc`]), per-pass
//!   verification/timing, and the `ELZAR_PASSES` ablation override.
//!
//! ```
//! use elzar_ir::builder::{c64, FuncBuilder};
//! use elzar_ir::{Module, Ty};
//! use elzar_passes::elzar::{harden_module, ElzarConfig};
//!
//! let mut m = Module::new("demo");
//! let mut b = FuncBuilder::new("main", vec![], Ty::I64);
//! let x = b.add(c64(40), c64(2));
//! b.ret(x);
//! m.add_func(b.finish());
//!
//! let hardened = harden_module(&m, &ElzarConfig::default());
//! elzar_ir::verify::verify_module(&hardened).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dce;
pub mod decelerate;
pub mod elzar;
pub mod pm;
pub mod swiftr;
pub mod vectorize;

pub use decelerate::decelerate_module;
pub use elzar::{CheckConfig, ElzarConfig, FutureAvx};
pub use pm::{Pass, PassDesc, PassManager, PassStat};
pub use vectorize::vectorize_module;
