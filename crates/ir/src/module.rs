//! Modules, functions and basic blocks.

use crate::inst::{Inst, Terminator};
use crate::types::Ty;
use crate::value::{BlockId, Const, FuncId, InstId, Operand, ValueId};

/// How an SSA value is defined.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ValueDef {
    /// The `n`-th function parameter.
    Param(u32),
    /// Result of an instruction.
    Inst(InstId),
}

/// Metadata for one SSA value.
#[derive(Clone, Debug)]
pub struct ValueInfo {
    /// Static type.
    pub ty: Ty,
    /// Definition site.
    pub def: ValueDef,
}

/// One instruction plus its (optional) result value.
#[derive(Clone, Debug)]
pub struct InstData {
    /// The instruction.
    pub inst: Inst,
    /// Result value id, `None` for void-result instructions.
    pub result: Option<ValueId>,
}

/// A basic block: a straight-line instruction list plus one terminator.
#[derive(Clone, Debug)]
pub struct Block {
    /// Debug label.
    pub name: String,
    /// Instruction ids in execution order.
    pub insts: Vec<InstId>,
    /// Terminator (control transfer out of the block).
    pub term: Terminator,
}

/// A hint marking a counted loop as vectorizable (consumed by the loop
/// vectorizer that reproduces Figure 1's "native SIMD" baseline).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VectorizeHint {
    /// The loop header block.
    pub header: BlockId,
    /// Desired vectorization factor (lanes).
    pub width: u8,
}

/// An IR function in SSA form.
#[derive(Clone, Debug)]
pub struct Function {
    /// Symbol name (unique within the module).
    pub name: String,
    /// Parameter types; parameters are values `0..params.len()`.
    pub params: Vec<Ty>,
    /// Return type (`Void` for none).
    pub ret_ty: Ty,
    /// Basic blocks; `blocks[0]` is the entry block.
    pub blocks: Vec<Block>,
    /// Instruction arena.
    pub insts: Vec<InstData>,
    /// SSA value table (parameters first, then instruction results).
    pub vals: Vec<ValueInfo>,
    /// Whether this function belongs to the hardened region (transformed
    /// by ELZAR/SWIFT-R and eligible for fault injection). Library-style
    /// helpers can opt out, mirroring the paper's unhardened libc parts.
    pub hardened: bool,
    /// Vectorizable-loop hints (Figure 1 baseline only).
    pub vector_hints: Vec<VectorizeHint>,
}

impl Function {
    /// Create an empty function with an entry block.
    pub fn new(name: impl Into<String>, params: Vec<Ty>, ret_ty: Ty) -> Function {
        let vals = params
            .iter()
            .enumerate()
            .map(|(i, ty)| ValueInfo { ty: ty.clone(), def: ValueDef::Param(i as u32) })
            .collect();
        Function {
            name: name.into(),
            params,
            ret_ty,
            blocks: vec![Block { name: "entry".into(), insts: vec![], term: Terminator::Unreachable }],
            insts: vec![],
            vals,
            hardened: true,
            vector_hints: vec![],
        }
    }

    /// Value id of the `n`-th parameter.
    pub fn param(&self, n: usize) -> ValueId {
        assert!(n < self.params.len(), "parameter index out of range");
        ValueId(n as u32)
    }

    /// Type of an SSA value.
    pub fn val_ty(&self, v: ValueId) -> &Ty {
        &self.vals[v.0 as usize].ty
    }

    /// Type of an operand (value or immediate).
    pub fn operand_ty(&self, op: &Operand) -> Ty {
        match op {
            Operand::Val(v) => self.val_ty(*v).clone(),
            Operand::Imm(c) => c.ty(),
        }
    }

    /// Append a new block and return its id.
    pub fn add_block(&mut self, name: impl Into<String>) -> BlockId {
        self.blocks.push(Block { name: name.into(), insts: vec![], term: Terminator::Unreachable });
        BlockId(self.blocks.len() as u32 - 1)
    }

    /// Append `inst` to `block`, registering a result value when the
    /// instruction produces one. Returns the result value id, if any.
    pub fn push_inst(&mut self, block: BlockId, inst: Inst) -> Option<ValueId> {
        let ty = inst.result_ty();
        let iid = InstId(self.insts.len() as u32);
        let result = if ty.is_void() {
            None
        } else {
            let vid = ValueId(self.vals.len() as u32);
            self.vals.push(ValueInfo { ty, def: ValueDef::Inst(iid) });
            Some(vid)
        };
        self.insts.push(InstData { inst, result });
        self.blocks[block.0 as usize].insts.push(iid);
        result
    }

    /// Set the terminator of `block`.
    pub fn set_term(&mut self, block: BlockId, term: Terminator) {
        self.blocks[block.0 as usize].term = term;
    }

    /// The instruction that defines `v`, if it is not a parameter.
    pub fn def_inst(&self, v: ValueId) -> Option<InstId> {
        match self.vals[v.0 as usize].def {
            ValueDef::Param(_) => None,
            ValueDef::Inst(i) => Some(i),
        }
    }

    /// Predecessor lists for every block.
    pub fn predecessors(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for (i, b) in self.blocks.iter().enumerate() {
            for s in b.term.successors() {
                preds[s.0 as usize].push(BlockId(i as u32));
            }
        }
        preds
    }

    /// Total number of instructions (static count).
    pub fn num_insts(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }
}

/// A translation unit: a set of functions plus initial global data.
#[derive(Clone, Debug, Default)]
pub struct Module {
    /// Module name (used in diagnostics).
    pub name: String,
    /// Functions; `FuncId` indexes this vector.
    pub funcs: Vec<Function>,
    /// Initial bytes of the global data segment (placed at a fixed base
    /// address by the VM).
    pub globals: Vec<u8>,
}

impl Module {
    /// New empty module.
    pub fn new(name: impl Into<String>) -> Module {
        Module { name: name.into(), funcs: vec![], globals: vec![] }
    }

    /// Add a function, returning its id.
    pub fn add_func(&mut self, f: Function) -> FuncId {
        self.funcs.push(f);
        FuncId(self.funcs.len() as u32 - 1)
    }

    /// Look up a function by name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.funcs.iter().position(|f| f.name == name).map(|i| FuncId(i as u32))
    }

    /// Borrow a function.
    pub fn func(&self, id: FuncId) -> &Function {
        &self.funcs[id.0 as usize]
    }

    /// Reserve `bytes` of zeroed global space, returning its offset from
    /// the global base (see the VM's memory map for the absolute address).
    pub fn alloc_global(&mut self, bytes: usize) -> usize {
        // Align to 32 so vector loads on globals are always aligned.
        let off = (self.globals.len() + 31) & !31;
        self.globals.resize(off + bytes, 0);
        off
    }

    /// Install initialized global data, returning its offset.
    pub fn add_global_data(&mut self, data: &[u8]) -> usize {
        let off = self.alloc_global(data.len());
        self.globals[off..off + data.len()].copy_from_slice(data);
        off
    }

    /// Total static instruction count across functions.
    pub fn num_insts(&self) -> usize {
        self.funcs.iter().map(|f| f.num_insts()).sum()
    }
}

/// Convenience: an `Operand` from anything convertible.
pub fn op(x: impl Into<Operand>) -> Operand {
    x.into()
}

/// Convenience: constant-int operand.
pub fn ci(v: i64) -> Operand {
    Operand::Imm(Const::i64(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::BinOp;

    #[test]
    fn push_inst_assigns_dense_values() {
        let mut f = Function::new("f", vec![Ty::I64, Ty::I64], Ty::I64);
        let p0 = f.param(0);
        let p1 = f.param(1);
        let entry = BlockId(0);
        let sum = f
            .push_inst(entry, Inst::Bin { op: BinOp::Add, ty: Ty::I64, a: p0.into(), b: p1.into() })
            .unwrap();
        assert_eq!(sum, ValueId(2));
        assert_eq!(*f.val_ty(sum), Ty::I64);
        f.set_term(entry, Terminator::Ret { val: Some(sum.into()) });
        assert_eq!(f.num_insts(), 1);
    }

    #[test]
    fn void_insts_have_no_result() {
        let mut f = Function::new("f", vec![Ty::Ptr], Ty::Void);
        let p = f.param(0);
        let r = f.push_inst(BlockId(0), Inst::Store { ty: Ty::I64, val: ci(1), addr: p.into() });
        assert!(r.is_none());
    }

    #[test]
    fn predecessors_computed() {
        let mut f = Function::new("f", vec![], Ty::Void);
        let b1 = f.add_block("b1");
        let b2 = f.add_block("b2");
        f.set_term(
            BlockId(0),
            Terminator::CondBr { cond: Operand::Imm(Const::bool(true)), then_bb: b1, else_bb: b2 },
        );
        f.set_term(b1, Terminator::Br { target: b2 });
        f.set_term(b2, Terminator::Ret { val: None });
        let preds = f.predecessors();
        assert_eq!(preds[b2.0 as usize], vec![BlockId(0), b1]);
    }

    #[test]
    fn module_lookup_and_globals() {
        let mut m = Module::new("test");
        let id = m.add_func(Function::new("main", vec![], Ty::Void));
        assert_eq!(m.func_by_name("main"), Some(id));
        assert_eq!(m.func_by_name("nope"), None);
        let a = m.add_global_data(&[1, 2, 3]);
        let b = m.alloc_global(10);
        assert_eq!(a % 32, 0);
        assert_eq!(b % 32, 0);
        assert!(b >= a + 3);
        assert_eq!(&m.globals[a..a + 3], &[1, 2, 3]);
    }
}
