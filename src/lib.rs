//! # elzar-suite
//!
//! Umbrella package for the ELZAR (DSN 2016) reproduction. It hosts the
//! runnable examples and the cross-crate integration tests, and re-exports
//! every workspace crate so examples can use one import root.
//!
//! See the repository `README.md` for a tour and `DESIGN.md` for the full
//! system inventory.

#![forbid(unsafe_code)]

pub use elzar;
pub use elzar_apps;
pub use elzar_avx;
pub use elzar_bench;
pub use elzar_cpu;
pub use elzar_fault;
pub use elzar_ir;
pub use elzar_obs;
pub use elzar_passes;
pub use elzar_serve;
pub use elzar_vm;
pub use elzar_workloads;
