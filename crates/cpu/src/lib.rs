//! # elzar-cpu
//!
//! Haswell-like CPU timing model for the ELZAR reproduction: execution
//! ports and per-class latencies ([`cost`]), an L1/L2/shared-L3 cache
//! simulator ([`cache`]), a gshare branch predictor ([`branch`]), and a
//! per-instruction O(1) out-of-order scoreboard ([`core`]) that yields
//! cycle counts, ILP and perf-stat style counters.
//!
//! The paper's evaluation (§V) explains ELZAR's slowdowns through exactly
//! the effects this model captures: AVX ops being served by fewer ports
//! (lower ILP, Table III), `extract`/`broadcast` wrapper latency around
//! every load/store (Table IV), `ptest` in front of every branch, cache
//! misses amortizing overhead (matrix multiply), and branch mispredicts.
//!
//! ```
//! use elzar_cpu::{Core, InstClass, SharedL3};
//!
//! let mut l3 = SharedL3::haswell();
//! let mut core = Core::new();
//! let a = core.retire(InstClass::ScalarAlu, &[]);
//! let b = core.retire_mem(InstClass::Load, &[a], 0x1000, &mut l3);
//! core.retire(InstClass::ScalarAlu, &[b]);
//! assert!(core.cycles() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod branch;
pub mod cache;
pub mod core;
pub mod cost;

pub use crate::core::{Core, CoreConfig, Counters};
pub use branch::BranchPredictor;
pub use cache::{Cache, CacheLatencies, CoreCaches, SharedL3};
pub use cost::{Cost, InstClass, PortMask};
