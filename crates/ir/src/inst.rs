//! Instruction set of the ELZAR IR.
//!
//! The set mirrors what the paper's LLVM pass sees after `scalarrepl`:
//! scalar/vector arithmetic, comparisons producing AVX-style lane masks,
//! memory operations, atomics, calls, and the handful of vector shuffles
//! (`extract`/`insert`/`shuffle`/`splat`/`ptest`) that ELZAR's
//! transformation emits. `gather`/`scatter` model the §VII proposed
//! extensions.

use crate::types::Ty;
use crate::value::{BlockId, FuncId, Operand};
use std::fmt;

/// Binary arithmetic / logic operations.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    /// Integer add (wrapping).
    Add,
    /// Integer subtract (wrapping).
    Sub,
    /// Integer multiply (wrapping, low half).
    Mul,
    /// Unsigned divide. Division by zero traps.
    UDiv,
    /// Signed divide. Division by zero or `MIN / -1` traps.
    SDiv,
    /// Unsigned remainder.
    URem,
    /// Signed remainder.
    SRem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left (shift amount taken modulo width).
    Shl,
    /// Logical shift right.
    LShr,
    /// Arithmetic shift right.
    AShr,
    /// Float add.
    FAdd,
    /// Float subtract.
    FSub,
    /// Float multiply.
    FMul,
    /// Float divide.
    FDiv,
    /// Unsigned integer minimum (AVX `pminu`).
    UMin,
    /// Unsigned integer maximum (AVX `pmaxu`).
    UMax,
    /// Signed integer minimum.
    SMin,
    /// Signed integer maximum.
    SMax,
    /// Float minimum.
    FMin,
    /// Float maximum.
    FMax,
}

impl BinOp {
    /// True for the float-domain operations.
    pub fn is_float(self) -> bool {
        matches!(self, BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv | BinOp::FMin | BinOp::FMax)
    }

    /// True for integer division/remainder — the operations AVX lacks
    /// (§II-C), which the backend legalizes to scalar sequences.
    pub fn is_int_div(self) -> bool {
        matches!(self, BinOp::UDiv | BinOp::SDiv | BinOp::URem | BinOp::SRem)
    }

    /// Mnemonic used by the printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::UDiv => "udiv",
            BinOp::SDiv => "sdiv",
            BinOp::URem => "urem",
            BinOp::SRem => "srem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::LShr => "lshr",
            BinOp::AShr => "ashr",
            BinOp::FAdd => "fadd",
            BinOp::FSub => "fsub",
            BinOp::FMul => "fmul",
            BinOp::FDiv => "fdiv",
            BinOp::UMin => "umin",
            BinOp::UMax => "umax",
            BinOp::SMin => "smin",
            BinOp::SMax => "smax",
            BinOp::FMin => "fmin",
            BinOp::FMax => "fmax",
        }
    }
}

/// Comparison predicates (integer unsigned/signed and ordered float).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CmpPred {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Unsigned less-than.
    Ult,
    /// Unsigned less-or-equal.
    Ule,
    /// Unsigned greater-than.
    Ugt,
    /// Unsigned greater-or-equal.
    Uge,
    /// Signed less-than.
    Slt,
    /// Signed less-or-equal.
    Sle,
    /// Signed greater-than.
    Sgt,
    /// Signed greater-or-equal.
    Sge,
    /// Float ordered equal.
    FOeq,
    /// Float ordered not-equal.
    FOne,
    /// Float ordered less-than.
    FOlt,
    /// Float ordered less-or-equal.
    FOle,
    /// Float ordered greater-than.
    FOgt,
    /// Float ordered greater-or-equal.
    FOge,
}

impl CmpPred {
    /// True for the float predicates.
    pub fn is_float(self) -> bool {
        matches!(
            self,
            CmpPred::FOeq | CmpPred::FOne | CmpPred::FOlt | CmpPred::FOle | CmpPred::FOgt | CmpPred::FOge
        )
    }

    /// Mnemonic used by the printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CmpPred::Eq => "eq",
            CmpPred::Ne => "ne",
            CmpPred::Ult => "ult",
            CmpPred::Ule => "ule",
            CmpPred::Ugt => "ugt",
            CmpPred::Uge => "uge",
            CmpPred::Slt => "slt",
            CmpPred::Sle => "sle",
            CmpPred::Sgt => "sgt",
            CmpPred::Sge => "sge",
            CmpPred::FOeq => "foeq",
            CmpPred::FOne => "fone",
            CmpPred::FOlt => "folt",
            CmpPred::FOle => "fole",
            CmpPred::FOgt => "fogt",
            CmpPred::FOge => "foge",
        }
    }
}

/// Cast operations.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CastOp {
    /// Integer truncation to a narrower width.
    Trunc,
    /// Zero extension to a wider width.
    ZExt,
    /// Sign extension to a wider width.
    SExt,
    /// `f64` → `f32`.
    FpTrunc,
    /// `f32` → `f64`.
    FpExt,
    /// Float → signed int (toward zero, saturating at bounds).
    FpToSi,
    /// Float → unsigned int (toward zero, saturating at bounds).
    FpToUi,
    /// Signed int → float.
    SiToFp,
    /// Unsigned int → float.
    UiToFp,
    /// Reinterpret bits between same-width types.
    Bitcast,
    /// Pointer → `i64`.
    PtrToInt,
    /// `i64` → pointer.
    IntToPtr,
}

impl CastOp {
    /// Mnemonic used by the printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CastOp::Trunc => "trunc",
            CastOp::ZExt => "zext",
            CastOp::SExt => "sext",
            CastOp::FpTrunc => "fptrunc",
            CastOp::FpExt => "fpext",
            CastOp::FpToSi => "fptosi",
            CastOp::FpToUi => "fptoui",
            CastOp::SiToFp => "sitofp",
            CastOp::UiToFp => "uitofp",
            CastOp::Bitcast => "bitcast",
            CastOp::PtrToInt => "ptrtoint",
            CastOp::IntToPtr => "inttoptr",
        }
    }
}

/// Atomic read-modify-write operations.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RmwOp {
    /// Atomic add; returns the old value.
    Add,
    /// Atomic subtract; returns the old value.
    Sub,
    /// Atomic and.
    And,
    /// Atomic or.
    Or,
    /// Atomic xor.
    Xor,
    /// Atomic exchange.
    Xchg,
    /// Atomic unsigned max.
    UMax,
    /// Atomic unsigned min.
    UMin,
}

/// Runtime builtins: the "unhardened" library surface (§IV-A — I/O, OS,
/// pthreads and parts of libm are deliberately not transformed by ELZAR).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Builtin {
    /// `spawn(func_ptr_index, arg) -> tid` — start a thread running
    /// module function `func_ptr_index` with one `i64` argument.
    Spawn,
    /// `join(tid) -> i64` — wait for a thread and get its return value.
    Join,
    /// `lock(addr)` — acquire a mutex word (models `pthread_mutex_lock`).
    Lock,
    /// `unlock(addr)` — release a mutex word.
    Unlock,
    /// `malloc(size) -> ptr` — heap allocation (bump allocator).
    Malloc,
    /// `free(ptr)` — release (no-op in the model, kept for fidelity).
    Free,
    /// `memcpy(dst, src, len)` — unhardened library copy.
    Memcpy,
    /// `memset(dst, byte, len)` — unhardened library fill.
    Memset,
    /// `memcmp(a, b, len) -> i64` — compares byte ranges.
    Memcmp,
    /// `output(ptr, len)` — append bytes to the program's observable
    /// output (what fault-injection compares against the golden run).
    Output,
    /// `output_i64(v)` — append a little-endian i64 to the output.
    OutputI64,
    /// `output_f64(v)` — append an f64's bits to the output.
    OutputF64,
    /// `sqrt(f64) -> f64` (libm).
    Sqrt,
    /// `exp(f64) -> f64` (libm).
    Exp,
    /// `log(f64) -> f64` (libm).
    Log,
    /// `pow(f64, f64) -> f64` (libm).
    Pow,
    /// `sin(f64) -> f64` (libm).
    Sin,
    /// `cos(f64) -> f64` (libm).
    Cos,
    /// `erf(f64) -> f64` (libm; used by blackscholes CNDF).
    Erf,
    /// `fabs(f64) -> f64` (libm).
    Fabs,
    /// `input_ptr() -> ptr` — base of the input data segment.
    InputPtr,
    /// `input_len() -> i64` — size of the input data segment in bytes.
    InputLen,
    /// `recover(vec) -> vec` — ELZAR's slow-path majority vote (§III-C
    /// step 3). Executed by the runtime; counts a correction. Traps with
    /// `Unrecoverable` on a 2+2 split under the extended policy.
    Recover,
    /// `heartbeat()` — cheap progress marker used by long-running servers
    /// (lets campaigns bound hangs).
    Heartbeat,
    /// `num_threads() -> i64` — the simulated worker-thread count the
    /// machine was configured with (`MachineConfig::threads`). Lets one
    /// lowered program serve a whole thread sweep: workloads spawn
    /// `num_threads()` workers instead of baking the count into the IR.
    NumThreads,
}

impl Builtin {
    /// Symbolic name used by the printer.
    pub fn name(self) -> &'static str {
        match self {
            Builtin::Spawn => "spawn",
            Builtin::Join => "join",
            Builtin::Lock => "lock",
            Builtin::Unlock => "unlock",
            Builtin::Malloc => "malloc",
            Builtin::Free => "free",
            Builtin::Memcpy => "memcpy",
            Builtin::Memset => "memset",
            Builtin::Memcmp => "memcmp",
            Builtin::Output => "output",
            Builtin::OutputI64 => "output_i64",
            Builtin::OutputF64 => "output_f64",
            Builtin::Sqrt => "sqrt",
            Builtin::Exp => "exp",
            Builtin::Log => "log",
            Builtin::Pow => "pow",
            Builtin::Sin => "sin",
            Builtin::Cos => "cos",
            Builtin::Erf => "erf",
            Builtin::Fabs => "fabs",
            Builtin::InputPtr => "input_ptr",
            Builtin::InputLen => "input_len",
            Builtin::Recover => "recover",
            Builtin::Heartbeat => "heartbeat",
            Builtin::NumThreads => "num_threads",
        }
    }
}

/// Call target: another IR function or a runtime builtin.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Callee {
    /// Direct call to a module function.
    Func(FuncId),
    /// Call into the unhardened runtime.
    Builtin(Builtin),
}

/// A non-terminator instruction.
///
/// Every instruction yields at most one SSA value; `Store`, `Scatter` and
/// `Fence` (and void calls) yield none.
#[derive(Clone, PartialEq, Debug)]
pub enum Inst {
    /// `dst = op ty a, b` — scalar or lane-wise vector arithmetic.
    Bin {
        /// Operation.
        op: BinOp,
        /// Operand type (scalar or vector).
        ty: Ty,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// `dst = cmp pred ty a, b`.
    ///
    /// Scalar compare yields `i1`. Vector compare yields an AVX-style mask:
    /// a vector of the same element width whose lanes are all-ones (true)
    /// or all-zeros (false) — exactly `vpcmpeq`/`vcmpps` semantics (§II-C).
    Cmp {
        /// Predicate.
        pred: CmpPred,
        /// Operand type.
        ty: Ty,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// `dst = castop val to ty`.
    ///
    /// Vector casts operate lane-wise; when source and destination lane
    /// counts differ (replication widths differ per §III-D), the VM
    /// re-replicates lane 0 across the destination.
    Cast {
        /// Cast kind.
        op: CastOp,
        /// Destination type.
        to: Ty,
        /// Source value.
        val: Operand,
    },
    /// `dst = load ty, addr` — scalar load, or contiguous vector load when
    /// `ty` is a vector (used only by natively vectorized code, never by
    /// the ELZAR transformation, which loads through extracted scalars).
    Load {
        /// Loaded type.
        ty: Ty,
        /// Address operand (`ptr`).
        addr: Operand,
    },
    /// `store ty val, addr` — scalar or contiguous vector store.
    Store {
        /// Stored type.
        ty: Ty,
        /// Value to store.
        val: Operand,
        /// Address operand (`ptr`).
        addr: Operand,
    },
    /// `dst = gep base, index, scale` — address arithmetic
    /// `base + index * scale` yielding `ptr`.
    Gep {
        /// Base pointer.
        base: Operand,
        /// Element index (`i64`).
        index: Operand,
        /// Element size in bytes.
        scale: u32,
    },
    /// `dst = alloca ty, count` — reserve `count` elements of `ty` on the
    /// current thread's stack; yields `ptr`.
    Alloca {
        /// Element type.
        ty: Ty,
        /// Number of elements (`i64` operand, usually constant).
        count: Operand,
    },
    /// `dst = select cond, a, b`.
    ///
    /// With scalar `i1` cond this is a scalar select; with a vector mask
    /// cond it is an AVX blend (`vblendv`), lane-wise.
    Select {
        /// Condition (`i1` or a lane mask matching `ty`'s shape).
        cond: Operand,
        /// Result type.
        ty: Ty,
        /// Value if true.
        a: Operand,
        /// Value if false.
        b: Operand,
    },
    /// SSA phi node. Incoming operands, one per predecessor block.
    Phi {
        /// Result type.
        ty: Ty,
        /// `(pred_block, value)` pairs.
        incomings: Vec<(BlockId, Operand)>,
    },
    /// `dst = call callee(args)`.
    Call {
        /// Target.
        callee: Callee,
        /// Arguments.
        args: Vec<Operand>,
        /// Return type (`Void` for none).
        ret_ty: Ty,
    },
    /// `dst = extractelement vec, idx` — AVX `vextract`/`vpextr`.
    ExtractElement {
        /// Source vector.
        vec: Operand,
        /// Lane index (`i64`, usually constant).
        idx: Operand,
        /// Source vector type.
        ty: Ty,
    },
    /// `dst = insertelement vec, val, idx`.
    InsertElement {
        /// Source vector.
        vec: Operand,
        /// New lane value.
        val: Operand,
        /// Lane index.
        idx: Operand,
        /// Vector type.
        ty: Ty,
    },
    /// `dst = shufflevector a, mask` — AVX `vperm`/`vshuf`; lane `i` of the
    /// result is lane `mask[i]` of `a`.
    Shuffle {
        /// Source vector.
        a: Operand,
        /// Per-result-lane source indices.
        mask: Vec<u8>,
        /// Source vector type.
        ty: Ty,
    },
    /// `dst = splat val -> ty` — AVX `vbroadcast`: replicate a scalar
    /// across all lanes of the result vector type.
    Splat {
        /// Scalar to replicate.
        val: Operand,
        /// Result vector type.
        ty: Ty,
    },
    /// `dst = ptest mask` — AVX `vptest` folded with its flag decoding:
    /// yields `i8` 0 if all lanes are zero (all-false), 1 if all lanes are
    /// all-ones (all-true), 2 otherwise (mixed ⇒ a fault under ELZAR's
    /// mask discipline, Figure 9).
    Ptest {
        /// Mask vector (each lane all-ones or all-zeros in fault-free runs).
        mask: Operand,
        /// Mask vector type.
        ty: Ty,
    },
    /// `dst = gather ty, addrs` — proposed AVX extension (§VII-B): lane
    /// `i` of the result is loaded from lane `i` of the address vector.
    /// Majority-votes the address lanes in hardware (closes the §V-C
    /// window of vulnerability).
    Gather {
        /// Result vector type.
        ty: Ty,
        /// Address vector (`<N x ptr>` represented as i64 lanes).
        addrs: Operand,
    },
    /// `scatter val, addrs` — proposed AVX-512-style scatter with
    /// hardware majority voting of both value and address lanes (§VII-B).
    Scatter {
        /// Value vector.
        val: Operand,
        /// Address vector.
        addrs: Operand,
        /// Value vector type.
        ty: Ty,
    },
    /// `dst = atomicrmw op ty addr, val` — returns the old value.
    AtomicRmw {
        /// RMW operation.
        op: RmwOp,
        /// Scalar integer type.
        ty: Ty,
        /// Address.
        addr: Operand,
        /// Operand value.
        val: Operand,
    },
    /// `dst = cmpxchg ty addr, expected, new` — returns the old value.
    CmpXchg {
        /// Scalar integer type.
        ty: Ty,
        /// Address.
        addr: Operand,
        /// Expected value.
        expected: Operand,
        /// Replacement value.
        new: Operand,
    },
    /// Memory fence (sequentially consistent).
    Fence,
}

impl Inst {
    /// Result type of this instruction (`Void` when it yields no value).
    pub fn result_ty(&self) -> Ty {
        match self {
            Inst::Bin { ty, .. } => ty.clone(),
            Inst::Cmp { ty, .. } => {
                if ty.is_vector() {
                    // AVX mask: an integer vector of the operand's lane
                    // geometry (vcmppd writes all-ones/all-zeros bit
                    // patterns, best modeled as ints).
                    Ty::vec(Ty::Int(ty.elem().scalar_bits() as u8), ty.lanes())
                } else {
                    Ty::I1
                }
            }
            Inst::Cast { to, .. } => to.clone(),
            Inst::Load { ty, .. } => ty.clone(),
            Inst::Store { .. } | Inst::Scatter { .. } | Inst::Fence => Ty::Void,
            Inst::Gep { .. } | Inst::Alloca { .. } => Ty::Ptr,
            Inst::Select { ty, .. } => ty.clone(),
            Inst::Phi { ty, .. } => ty.clone(),
            Inst::Call { ret_ty, .. } => ret_ty.clone(),
            Inst::ExtractElement { ty, .. } => ty.elem().clone(),
            Inst::InsertElement { ty, .. } => ty.clone(),
            Inst::Shuffle { ty, mask, .. } => Ty::vec(ty.elem().clone(), mask.len() as u8),
            Inst::Splat { ty, .. } => ty.clone(),
            Inst::Ptest { .. } => Ty::I8,
            Inst::Gather { ty, .. } => ty.clone(),
            Inst::AtomicRmw { ty, .. } => ty.clone(),
            Inst::CmpXchg { ty, .. } => ty.clone(),
        }
    }

    /// Visit every operand.
    pub fn for_each_operand(&self, mut f: impl FnMut(&Operand)) {
        match self {
            Inst::Bin { a, b, .. } | Inst::Cmp { a, b, .. } => {
                f(a);
                f(b);
            }
            Inst::Cast { val, .. } => f(val),
            Inst::Load { addr, .. } => f(addr),
            Inst::Store { val, addr, .. } => {
                f(val);
                f(addr);
            }
            Inst::Gep { base, index, .. } => {
                f(base);
                f(index);
            }
            Inst::Alloca { count, .. } => f(count),
            Inst::Select { cond, a, b, .. } => {
                f(cond);
                f(a);
                f(b);
            }
            Inst::Phi { incomings, .. } => {
                for (_, v) in incomings {
                    f(v);
                }
            }
            Inst::Call { args, .. } => {
                for a in args {
                    f(a);
                }
            }
            Inst::ExtractElement { vec, idx, .. } => {
                f(vec);
                f(idx);
            }
            Inst::InsertElement { vec, val, idx, .. } => {
                f(vec);
                f(val);
                f(idx);
            }
            Inst::Shuffle { a, .. } => f(a),
            Inst::Splat { val, .. } => f(val),
            Inst::Ptest { mask, .. } => f(mask),
            Inst::Gather { addrs, .. } => f(addrs),
            Inst::Scatter { val, addrs, .. } => {
                f(val);
                f(addrs);
            }
            Inst::AtomicRmw { addr, val, .. } => {
                f(addr);
                f(val);
            }
            Inst::CmpXchg { addr, expected, new, .. } => {
                f(addr);
                f(expected);
                f(new);
            }
            Inst::Fence => {}
        }
    }

    /// True for the paper's "synchronization instructions" (§III-B):
    /// memory operations, atomics and calls — the instructions ILR/ELZAR
    /// never replicate and must guard with checks.
    pub fn is_sync(&self) -> bool {
        matches!(
            self,
            Inst::Load { .. }
                | Inst::Store { .. }
                | Inst::Gather { .. }
                | Inst::Scatter { .. }
                | Inst::AtomicRmw { .. }
                | Inst::CmpXchg { .. }
                | Inst::Call { .. }
                | Inst::Alloca { .. }
                | Inst::Fence
        )
    }
}

/// `ptest` flag decoding (result of [`Inst::Ptest`]).
pub mod ptest_flags {
    /// Every lane all-zeros (comparison false in all replicas).
    pub const ALL_FALSE: u64 = 0;
    /// Every lane all-ones (comparison true in all replicas).
    pub const ALL_TRUE: u64 = 1;
    /// Lanes disagree — a replica diverged; ELZAR jumps to recovery.
    pub const MIXED: u64 = 2;
}

/// Block terminators.
#[derive(Clone, PartialEq, Debug)]
pub enum Terminator {
    /// Unconditional branch.
    Br {
        /// Target block.
        target: BlockId,
    },
    /// Two-way branch on a scalar `i1`.
    CondBr {
        /// Condition.
        cond: Operand,
        /// Taken when true.
        then_bb: BlockId,
        /// Taken when false.
        else_bb: BlockId,
    },
    /// Three-way branch on a `ptest` result (Figure 9: `jne`/`je`/`ja`).
    PtestBr {
        /// The `i8` produced by [`Inst::Ptest`].
        flags: Operand,
        /// All lanes false.
        all_false: BlockId,
        /// All lanes true.
        all_true: BlockId,
        /// Mixed — fault detected.
        mixed: BlockId,
    },
    /// Function return.
    Ret {
        /// Returned value (`None` for void).
        val: Option<Operand>,
    },
    /// Marks unreachable control flow (reaching it traps).
    Unreachable,
}

impl Terminator {
    /// Successor blocks in order.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Br { target } => vec![*target],
            Terminator::CondBr { then_bb, else_bb, .. } => vec![*then_bb, *else_bb],
            Terminator::PtestBr { all_false, all_true, mixed, .. } => {
                vec![*all_false, *all_true, *mixed]
            }
            Terminator::Ret { .. } | Terminator::Unreachable => vec![],
        }
    }

    /// Visit operands of the terminator.
    pub fn for_each_operand(&self, mut f: impl FnMut(&Operand)) {
        match self {
            Terminator::CondBr { cond, .. } => f(cond),
            Terminator::PtestBr { flags, .. } => f(flags),
            Terminator::Ret { val: Some(v) } => f(v),
            _ => {}
        }
    }

    /// Replace block references according to `f`.
    pub fn retarget(&mut self, mut f: impl FnMut(BlockId) -> BlockId) {
        match self {
            Terminator::Br { target } => *target = f(*target),
            Terminator::CondBr { then_bb, else_bb, .. } => {
                *then_bb = f(*then_bb);
                *else_bb = f(*else_bb);
            }
            Terminator::PtestBr { all_false, all_true, mixed, .. } => {
                *all_false = f(*all_false);
                *all_true = f(*all_true);
                *mixed = f(*mixed);
            }
            Terminator::Ret { .. } | Terminator::Unreachable => {}
        }
    }
}

impl fmt::Display for Builtin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_classification_matches_paper() {
        // §III-B: loads, stores, atomics, calls are synchronization
        // instructions; plain arithmetic is not.
        let load = Inst::Load { ty: Ty::I64, addr: Operand::imm_i64(0) };
        let add = Inst::Bin { op: BinOp::Add, ty: Ty::I64, a: Operand::imm_i64(1), b: Operand::imm_i64(2) };
        assert!(load.is_sync());
        assert!(!add.is_sync());
        let call = Inst::Call { callee: Callee::Builtin(Builtin::Malloc), args: vec![], ret_ty: Ty::Ptr };
        assert!(call.is_sync());
    }

    #[test]
    fn vector_cmp_yields_mask_of_operand_shape() {
        let v4 = Ty::vec(Ty::I64, 4);
        let cmp =
            Inst::Cmp { pred: CmpPred::Eq, ty: v4.clone(), a: Operand::imm_i64(0), b: Operand::imm_i64(0) };
        assert_eq!(cmp.result_ty(), v4);
        let scmp =
            Inst::Cmp { pred: CmpPred::Eq, ty: Ty::I64, a: Operand::imm_i64(0), b: Operand::imm_i64(0) };
        assert_eq!(scmp.result_ty(), Ty::I1);
    }

    #[test]
    fn terminator_successors() {
        let t = Terminator::PtestBr {
            flags: Operand::imm_i64(0),
            all_false: BlockId(1),
            all_true: BlockId(2),
            mixed: BlockId(3),
        };
        assert_eq!(t.successors(), vec![BlockId(1), BlockId(2), BlockId(3)]);
        assert!(Terminator::Ret { val: None }.successors().is_empty());
    }

    #[test]
    fn operand_visitors_cover_all() {
        let i = Inst::CmpXchg {
            ty: Ty::I64,
            addr: Operand::imm_i64(8),
            expected: Operand::imm_i64(0),
            new: Operand::imm_i64(1),
        };
        let mut n = 0;
        i.for_each_operand(|_| n += 1);
        assert_eq!(n, 3);
    }

    #[test]
    fn int_div_flagged_missing_in_avx() {
        assert!(BinOp::UDiv.is_int_div());
        assert!(BinOp::SRem.is_int_div());
        assert!(!BinOp::FDiv.is_int_div());
        assert!(!BinOp::Mul.is_int_div());
    }
}
