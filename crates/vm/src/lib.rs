//! # elzar-vm
//!
//! Execution substrate for the ELZAR reproduction: lowers `elzar-ir`
//! modules to flat code ([`lower`]), executes them on a multi-threaded
//! interpreter with a flat ECC-protected memory ([`memory`]) and an
//! integrated Haswell-like timing model ([`machine`]), and exposes the
//! hooks the fault-injection framework needs (eligible-instruction
//! counting, destination-register bit flips, Table-I trap taxonomy).
//!
//! Two engines run a machine, picked by [`MachineConfig::engine`]: the
//! per-instruction reference interpreter and the default superblock
//! trace engine ([`trace`]), whose full-register vector ops run
//! portable 256-bit kernels. Every virtual result is bit-identical
//! under both.
//!
//! ```
//! use elzar_ir::builder::{c64, FuncBuilder};
//! use elzar_ir::{Module, Ty};
//! use elzar_vm::{run_program, MachineConfig, Program, RunOutcome};
//!
//! let mut m = Module::new("demo");
//! let mut b = FuncBuilder::new("main", vec![], Ty::I64);
//! let x = b.add(c64(40), c64(2));
//! b.ret(x);
//! m.add_func(b.finish());
//!
//! let prog = Program::lower(&m);
//! let result = run_program(&prog, "main", &[], MachineConfig::default());
//! assert_eq!(result.outcome, RunOutcome::Exited(42));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod kernels;
pub mod lower;
pub mod machine;
pub mod memory;
pub mod trace;

pub use lower::{DGroup, LBlock, LFunc, LInst, LKind, LOp, LPhi, LTerm, Program, VMeta, NO_DST};
pub use machine::{
    run_program, EngineKind, FaultPlan, Machine, MachineConfig, RecoveryPolicy, RtVal, RunOutcome, RunResult,
};
pub use memory::{Memory, Trap, DEFAULT_MEM_SIZE, GLOBAL_BASE, HEAP_BASE, INPUT_BASE, STACK_SIZE};
pub use trace::Trace;
