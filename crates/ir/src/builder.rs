//! Ergonomic construction of IR functions.
//!
//! [`FuncBuilder`] wraps a [`Function`] with a current-insertion-point
//! cursor and typed helper methods, so workload kernels read close to the
//! pseudo-code in the paper's figures.

use crate::inst::{BinOp, Builtin, Callee, CastOp, CmpPred, Inst, RmwOp, Terminator};
use crate::module::{Function, VectorizeHint};
use crate::types::Ty;
use crate::value::{BlockId, Const, Operand, ValueId};

/// Builder for a single function.
#[derive(Debug)]
pub struct FuncBuilder {
    f: Function,
    cur: BlockId,
}

impl FuncBuilder {
    /// Start building a function; the cursor is on the entry block.
    pub fn new(name: impl Into<String>, params: Vec<Ty>, ret_ty: Ty) -> FuncBuilder {
        FuncBuilder { f: Function::new(name, params, ret_ty), cur: BlockId(0) }
    }

    /// Finish and return the function.
    ///
    /// # Panics
    /// Panics if any block still has the placeholder `Unreachable`
    /// terminator *and* contains instructions (likely a forgotten branch).
    pub fn finish(self) -> Function {
        self.f
    }

    /// The function under construction (read access).
    pub fn func(&self) -> &Function {
        &self.f
    }

    /// Value id of parameter `n`.
    pub fn param(&self, n: usize) -> ValueId {
        self.f.param(n)
    }

    /// Create a new block.
    pub fn block(&mut self, name: impl Into<String>) -> BlockId {
        self.f.add_block(name)
    }

    /// Current insertion block.
    pub fn current(&self) -> BlockId {
        self.cur
    }

    /// Move the cursor.
    pub fn switch_to(&mut self, b: BlockId) {
        self.cur = b;
    }

    /// Mark the loop headed by `header` as vectorizable with factor
    /// `width` (consumed by the Figure 1 native-SIMD pipeline).
    pub fn hint_vectorize(&mut self, header: BlockId, width: u8) {
        self.f.vector_hints.push(VectorizeHint { header, width });
    }

    /// Push a raw instruction at the cursor.
    pub fn push(&mut self, inst: Inst) -> Option<ValueId> {
        self.f.push_inst(self.cur, inst)
    }

    fn push_val(&mut self, inst: Inst) -> ValueId {
        self.f.push_inst(self.cur, inst).expect("instruction yields a value")
    }

    // ---- arithmetic ------------------------------------------------------

    /// Generic binary operation on operands of type `ty`.
    pub fn bin(&mut self, opn: BinOp, ty: Ty, a: impl Into<Operand>, b: impl Into<Operand>) -> ValueId {
        self.push_val(Inst::Bin { op: opn, ty, a: a.into(), b: b.into() })
    }

    /// `add` with the type inferred from operand `a`.
    pub fn add(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> ValueId {
        let a = a.into();
        let ty = self.f.operand_ty(&a);
        self.bin(BinOp::Add, ty, a, b)
    }

    /// `sub` with the type inferred from operand `a`.
    pub fn sub(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> ValueId {
        let a = a.into();
        let ty = self.f.operand_ty(&a);
        self.bin(BinOp::Sub, ty, a, b)
    }

    /// `mul` with the type inferred from operand `a`.
    pub fn mul(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> ValueId {
        let a = a.into();
        let ty = self.f.operand_ty(&a);
        self.bin(BinOp::Mul, ty, a, b)
    }

    /// Integer compare; scalar operands yield `i1`, vectors yield a mask.
    pub fn icmp(&mut self, pred: CmpPred, a: impl Into<Operand>, b: impl Into<Operand>) -> ValueId {
        let a = a.into();
        let ty = self.f.operand_ty(&a);
        self.push_val(Inst::Cmp { pred, ty, a, b: b.into() })
    }

    /// Float compare.
    pub fn fcmp(&mut self, pred: CmpPred, a: impl Into<Operand>, b: impl Into<Operand>) -> ValueId {
        self.icmp(pred, a, b)
    }

    /// Cast.
    pub fn cast(&mut self, op: CastOp, val: impl Into<Operand>, to: Ty) -> ValueId {
        self.push_val(Inst::Cast { op, to, val: val.into() })
    }

    // ---- memory ----------------------------------------------------------

    /// Typed load.
    pub fn load(&mut self, ty: Ty, addr: impl Into<Operand>) -> ValueId {
        self.push_val(Inst::Load { ty, addr: addr.into() })
    }

    /// Typed store.
    pub fn store(&mut self, ty: Ty, val: impl Into<Operand>, addr: impl Into<Operand>) {
        self.push(Inst::Store { ty, val: val.into(), addr: addr.into() });
    }

    /// `base + index * scale`.
    pub fn gep(&mut self, base: impl Into<Operand>, index: impl Into<Operand>, scale: u32) -> ValueId {
        self.push_val(Inst::Gep { base: base.into(), index: index.into(), scale })
    }

    /// Stack allocation of `count` elements of `ty`.
    pub fn alloca(&mut self, ty: Ty, count: impl Into<Operand>) -> ValueId {
        self.push_val(Inst::Alloca { ty, count: count.into() })
    }

    /// Atomic read-modify-write.
    pub fn atomic_rmw(
        &mut self,
        op: RmwOp,
        ty: Ty,
        addr: impl Into<Operand>,
        val: impl Into<Operand>,
    ) -> ValueId {
        self.push_val(Inst::AtomicRmw { op, ty, addr: addr.into(), val: val.into() })
    }

    /// Atomic compare-exchange; returns the old value.
    pub fn cmpxchg(
        &mut self,
        ty: Ty,
        addr: impl Into<Operand>,
        expected: impl Into<Operand>,
        new: impl Into<Operand>,
    ) -> ValueId {
        self.push_val(Inst::CmpXchg { ty, addr: addr.into(), expected: expected.into(), new: new.into() })
    }

    // ---- vectors ---------------------------------------------------------

    /// Extract lane `idx`.
    pub fn extract(&mut self, vec: impl Into<Operand>, idx: u8) -> ValueId {
        let vec = vec.into();
        let ty = self.f.operand_ty(&vec);
        self.push_val(Inst::ExtractElement { vec, idx: Operand::imm_i64(i64::from(idx)), ty })
    }

    /// Insert `val` at lane `idx`.
    pub fn insert(&mut self, vec: impl Into<Operand>, val: impl Into<Operand>, idx: u8) -> ValueId {
        let vec = vec.into();
        let ty = self.f.operand_ty(&vec);
        self.push_val(Inst::InsertElement { vec, val: val.into(), idx: Operand::imm_i64(i64::from(idx)), ty })
    }

    /// Lane permutation of a single vector.
    pub fn shuffle(&mut self, a: impl Into<Operand>, mask: Vec<u8>) -> ValueId {
        let a = a.into();
        let ty = self.f.operand_ty(&a);
        self.push_val(Inst::Shuffle { a, mask, ty })
    }

    /// Broadcast a scalar to an `lanes`-wide vector.
    pub fn splat(&mut self, val: impl Into<Operand>, lanes: u8) -> ValueId {
        let val = val.into();
        let elem = self.f.operand_ty(&val);
        self.push_val(Inst::Splat { val, ty: elem.with_lanes(lanes) })
    }

    /// `ptest` on a mask vector; yields the `i8` flag triple.
    pub fn ptest(&mut self, mask: impl Into<Operand>) -> ValueId {
        let mask = mask.into();
        let ty = self.f.operand_ty(&mask);
        self.push_val(Inst::Ptest { mask, ty })
    }

    /// Blend/select.
    pub fn select(
        &mut self,
        cond: impl Into<Operand>,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
    ) -> ValueId {
        let a = a.into();
        let ty = self.f.operand_ty(&a);
        self.push_val(Inst::Select { cond: cond.into(), ty, a, b: b.into() })
    }

    /// Future-AVX gather (§VII-B).
    pub fn gather(&mut self, ty: Ty, addrs: impl Into<Operand>) -> ValueId {
        self.push_val(Inst::Gather { ty, addrs: addrs.into() })
    }

    /// Future-AVX scatter (§VII-B).
    pub fn scatter(&mut self, val: impl Into<Operand>, addrs: impl Into<Operand>) {
        let val = val.into();
        let ty = self.f.operand_ty(&val);
        self.push(Inst::Scatter { val, addrs: addrs.into(), ty });
    }

    // ---- phi -------------------------------------------------------------

    /// Create a phi with no incomings (fill with [`FuncBuilder::phi_add_incoming`]).
    pub fn phi(&mut self, ty: Ty) -> ValueId {
        self.push_val(Inst::Phi { ty, incomings: vec![] })
    }

    /// Append an incoming edge to a phi created by [`FuncBuilder::phi`].
    ///
    /// # Panics
    /// Panics if `phi` does not name a phi instruction.
    pub fn phi_add_incoming(&mut self, phi: ValueId, block: BlockId, val: impl Into<Operand>) {
        let iid = self.f.def_inst(phi).expect("phi is an instruction result");
        match &mut self.f.insts[iid.0 as usize].inst {
            Inst::Phi { incomings, .. } => incomings.push((block, val.into())),
            other => panic!("value does not name a phi: {other:?}"),
        }
    }

    // ---- calls -----------------------------------------------------------

    /// Call a module function.
    pub fn call(&mut self, callee: crate::value::FuncId, args: Vec<Operand>, ret_ty: Ty) -> Option<ValueId> {
        self.push(Inst::Call { callee: Callee::Func(callee), args, ret_ty })
    }

    /// Call a builtin.
    pub fn call_builtin(&mut self, b: Builtin, args: Vec<Operand>, ret_ty: Ty) -> Option<ValueId> {
        self.push(Inst::Call { callee: Callee::Builtin(b), args, ret_ty })
    }

    // ---- terminators -----------------------------------------------------

    /// Unconditional branch.
    pub fn br(&mut self, target: BlockId) {
        self.f.set_term(self.cur, Terminator::Br { target });
    }

    /// Conditional branch on an `i1`.
    pub fn cond_br(&mut self, cond: impl Into<Operand>, then_bb: BlockId, else_bb: BlockId) {
        self.f.set_term(self.cur, Terminator::CondBr { cond: cond.into(), then_bb, else_bb });
    }

    /// Three-way branch on a `ptest` result.
    pub fn ptest_br(
        &mut self,
        flags: impl Into<Operand>,
        all_false: BlockId,
        all_true: BlockId,
        mixed: BlockId,
    ) {
        self.f.set_term(self.cur, Terminator::PtestBr { flags: flags.into(), all_false, all_true, mixed });
    }

    /// Return a value.
    pub fn ret(&mut self, val: impl Into<Operand>) {
        self.f.set_term(self.cur, Terminator::Ret { val: Some(val.into()) });
    }

    /// Return void.
    pub fn ret_void(&mut self) {
        self.f.set_term(self.cur, Terminator::Ret { val: None });
    }

    /// Mark the current block unreachable.
    pub fn unreachable(&mut self) {
        self.f.set_term(self.cur, Terminator::Unreachable);
    }

    // ---- common patterns -------------------------------------------------

    /// Emit a canonical counted loop `for i in start..end { body }`.
    ///
    /// Calls `body(builder, i)` with the cursor inside the loop body.
    /// Returns `(header_block, exit_block, i_value)` — the induction value
    /// passed to `body` is the per-iteration `i` (an `i64`).
    pub fn counted_loop(
        &mut self,
        start: impl Into<Operand>,
        end: impl Into<Operand>,
        body: impl FnOnce(&mut FuncBuilder, ValueId),
    ) -> (BlockId, BlockId, ValueId) {
        let start = start.into();
        let end = end.into();
        let pre = self.cur;
        let header = self.block("loop.header");
        let body_bb = self.block("loop.body");
        let latch = self.block("loop.latch");
        let exit = self.block("loop.exit");

        self.br(header);
        self.switch_to(header);
        let i = self.phi(Ty::I64);
        self.phi_add_incoming(i, pre, start);
        let cond = self.icmp(CmpPred::Slt, i, end);
        self.cond_br(cond, body_bb, exit);

        self.switch_to(body_bb);
        body(self, i);
        // The body may have moved the cursor; branch whatever block it
        // ended in to the latch.
        self.br(latch);

        self.switch_to(latch);
        let next = self.add(i, Operand::imm_i64(1));
        self.phi_add_incoming(i, latch, next);
        self.br(header);

        self.switch_to(exit);
        (header, exit, i)
    }

    /// `lock`/`unlock` critical section around `body`.
    pub fn critical_section(&mut self, mutex_addr: impl Into<Operand>, body: impl FnOnce(&mut FuncBuilder)) {
        let m = mutex_addr.into();
        self.call_builtin(Builtin::Lock, vec![m.clone()], Ty::Void);
        body(self);
        self.call_builtin(Builtin::Unlock, vec![m], Ty::Void);
    }
}

/// Shorthand for an immediate `i64` operand.
pub fn c64(v: i64) -> Operand {
    Operand::Imm(Const::i64(v))
}

/// Shorthand for an immediate `f64` operand.
pub fn cf64(v: f64) -> Operand {
    Operand::Imm(Const::f64(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::BlockId;

    #[test]
    fn counted_loop_shape() {
        let mut b = FuncBuilder::new("sum", vec![Ty::I64], Ty::I64);
        let n = b.param(0);
        // A loop that just runs; the result is not the point here.
        let (header, _exit, _i) = b.counted_loop(c64(0), n, |_b, _i| {});
        b.ret(c64(0));
        let f = b.finish();
        // header has a phi and a compare.
        assert_eq!(f.blocks[header.0 as usize].insts.len(), 2);
        // 5 blocks total: entry, header, body, latch, exit.
        assert_eq!(f.blocks.len(), 5);
    }

    #[test]
    fn phi_incoming_editing() {
        let mut b = FuncBuilder::new("f", vec![], Ty::I64);
        let bb1 = b.block("bb1");
        let p = b.phi(Ty::I64);
        b.phi_add_incoming(p, bb1, c64(4));
        let f = b.func();
        let iid = f.def_inst(p).unwrap();
        match &f.insts[iid.0 as usize].inst {
            Inst::Phi { incomings, .. } => assert_eq!(incomings.len(), 1),
            _ => panic!(),
        }
    }

    #[test]
    fn splat_infers_element_type() {
        let mut b = FuncBuilder::new("f", vec![Ty::F64], Ty::Void);
        let p = b.param(0);
        let v = b.splat(p, 4);
        assert_eq!(*b.func().val_ty(v), Ty::vec(Ty::F64, 4));
    }

    #[test]
    fn extract_yields_element_type() {
        let mut b = FuncBuilder::new("f", vec![Ty::vec(Ty::I32, 8)], Ty::Void);
        let p = b.param(0);
        let e = b.extract(p, 3);
        assert_eq!(*b.func().val_ty(e), Ty::I32);
    }

    #[test]
    fn entry_is_block_zero() {
        let b = FuncBuilder::new("f", vec![], Ty::Void);
        assert_eq!(b.current(), BlockId(0));
    }
}
