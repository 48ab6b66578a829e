//! Blocks, loop metadata, functions and modules.

use crate::inst::{Inst, InstRef};
use crate::types::{ArrayId, Ty};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Basic block index, local to a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BlockId(pub u32);

impl BlockId {
    /// Usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Function index, module-global.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FuncId(pub u32);

impl FuncId {
    /// Usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Loop index, local to a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LoopId(pub u32);

impl LoopId {
    /// Usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A basic block: a borrowed view of one block's run of its function's
/// code. The last instruction must be a terminator in a finished
/// function (checked by [`crate::verify::verify_function`]).
#[derive(Debug, Clone, Copy)]
pub struct Block<'f> {
    /// The block's instructions.
    pub insts: &'f [Inst],
    /// Synthetic source line of each instruction (parallel to `insts`).
    pub lines: &'f [u32],
}

impl Block<'_> {
    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True when the block holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The terminator, if the block is finished.
    pub fn terminator(&self) -> Option<&Inst> {
        self.insts.last().filter(|i| i.is_terminator())
    }
}

/// Structured metadata describing one natural loop created by the builder.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LoopInfo {
    /// This loop's id.
    pub id: LoopId,
    /// Block evaluating the loop condition; executing it marks an
    /// iteration boundary for the profiler.
    pub header: BlockId,
    /// Blocks belonging to the loop body (header and latch excluded).
    pub body: Vec<BlockId>,
    /// Block that increments the induction register and jumps back.
    pub latch: BlockId,
    /// Block control reaches after the loop.
    pub exit: BlockId,
    /// Induction variable register, if the loop is a counted `for`.
    pub induction: Option<crate::types::VReg>,
    /// Enclosing loop, if nested.
    pub parent: Option<LoopId>,
    /// Nesting depth (0 = outermost).
    pub depth: u32,
    /// Synthetic source line span `[start, end]`.
    pub line_span: (u32, u32),
}

/// A memory object: a 1-D array of a fixed element type and length.
/// Multi-dimensional kernels linearise their indices explicitly, exactly as
/// LLVM GEPs flatten into byte offsets.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ArrayDecl {
    /// Debug name (unique per module).
    pub name: String,
    /// Element type.
    pub ty: Ty,
    /// Number of elements.
    pub len: usize,
}

/// A function: registers are dynamically typed; the first `arity` registers
/// receive the call arguments.
///
/// The code is stored flat: every instruction of every block in one
/// array, block after block, with a parallel array of source lines and a
/// table of block-start offsets. [`Function::block`] views one block's
/// run of it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Function {
    /// Debug name (unique per module).
    pub name: String,
    /// Number of parameters.
    pub arity: u32,
    /// Total virtual registers used.
    pub num_regs: u32,
    /// Every instruction, block after block.
    insts: Vec<Inst>,
    /// Synthetic source line of each instruction (parallel to `insts`).
    lines: Vec<u32>,
    /// Block `b` holds `insts[starts[b]..starts[b + 1]]`; one entry more
    /// than there are blocks, the last being `insts.len()`.
    starts: Vec<u32>,
    /// Loops created by the builder, indexed by `LoopId`.
    pub loops: Vec<LoopInfo>,
    /// Which loop each block belongs to (innermost), one entry per block.
    pub block_loop: Vec<Option<LoopId>>,
}

impl Function {
    /// A function with no blocks, loops or instructions yet.
    pub fn new(name: impl Into<String>, arity: u32, num_regs: u32) -> Self {
        Self {
            name: name.into(),
            arity,
            num_regs,
            insts: Vec::new(),
            lines: Vec::new(),
            starts: vec![0],
            loops: Vec::new(),
            block_loop: Vec::new(),
        }
    }

    /// A function whose blocks hold the given `(instruction, line)` runs,
    /// stored at their exact size.
    pub(crate) fn from_blocks(
        name: impl Into<String>,
        arity: u32,
        num_regs: u32,
        blocks: Vec<Vec<(Inst, u32)>>,
    ) -> Self {
        let n: usize = blocks.iter().map(Vec::len).sum();
        let mut f = Self::new(name, arity, num_regs);
        f.insts.reserve_exact(n);
        f.lines.reserve_exact(n);
        f.starts.reserve_exact(blocks.len());
        for blk in blocks {
            f.push_block();
            for (inst, line) in blk {
                f.push_inst(inst, line);
            }
        }
        f
    }

    /// Append an empty block and return its id.
    pub fn push_block(&mut self) -> BlockId {
        let id = BlockId(self.num_blocks() as u32);
        self.starts.push(self.insts.len() as u32);
        id
    }

    /// Append an instruction to the last block, opening the entry block
    /// first when there is none.
    pub fn push_inst(&mut self, inst: Inst, line: u32) {
        if self.starts.len() == 1 {
            self.push_block();
        }
        self.insts.push(inst);
        self.lines.push(line);
        if let Some(end) = self.starts.last_mut() {
            *end += 1;
        }
    }

    /// Number of basic blocks; `BlockId(0)` is the entry.
    pub fn num_blocks(&self) -> usize {
        self.starts.len() - 1
    }

    /// Offsets of block `b`'s instructions in [`Function::insts`].
    pub fn block_range(&self, b: BlockId) -> Range<usize> {
        self.starts[b.index()] as usize..self.starts[b.index() + 1] as usize
    }

    /// Block `b`.
    pub fn block(&self, b: BlockId) -> Block<'_> {
        let r = self.block_range(b);
        Block { insts: &self.insts[r.clone()], lines: &self.lines[r] }
    }

    /// Every block, in id order.
    pub fn blocks(&self) -> impl ExactSizeIterator<Item = Block<'_>> + '_ {
        (0..self.num_blocks() as u32).map(move |b| self.block(BlockId(b)))
    }

    /// Every instruction, block after block.
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// The instruction `r` names (its `func` is not checked).
    pub fn inst(&self, r: InstRef) -> &Inst {
        &self.block(r.block).insts[r.idx as usize]
    }

    /// Every instruction, mutably; the block layout stays fixed.
    pub(crate) fn insts_mut(&mut self) -> &mut [Inst] {
        &mut self.insts
    }

    /// Keep only the instructions `keep` accepts, in order, and store
    /// the code at its new exact size.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&Inst) -> bool) {
        let mut w = 0usize;
        for b in 0..self.num_blocks() {
            let (lo, hi) = (self.starts[b] as usize, self.starts[b + 1] as usize);
            self.starts[b] = w as u32;
            for i in lo..hi {
                if keep(&self.insts[i]) {
                    self.insts.swap(w, i);
                    self.lines[w] = self.lines[i];
                    w += 1;
                }
            }
        }
        if let Some(end) = self.starts.last_mut() {
            *end = w as u32;
        }
        self.insts.truncate(w);
        self.lines.truncate(w);
        self.insts.shrink_to_fit();
        self.lines.shrink_to_fit();
    }

    /// Insert each `(at, inst)` before the instruction now at offset
    /// `at` (ascending offsets), in the same block and with its line, and
    /// store the code at its new exact size.
    pub(crate) fn insert_before(&mut self, new: Vec<(usize, Inst)>) {
        if new.is_empty() {
            return;
        }
        // A block starting at offset `s` moves down by the insertions
        // made before `s`; one made at `s` itself joins the block.
        for s in &mut self.starts {
            *s += new.partition_point(|&(at, _)| at < *s as usize) as u32;
        }
        let n = self.insts.len() + new.len();
        let (mut insts, mut lines) = (Vec::with_capacity(n), Vec::with_capacity(n));
        let mut new = new.into_iter().peekable();
        let old = std::mem::take(&mut self.insts);
        for (i, (inst, &line)) in old.into_iter().zip(&self.lines).enumerate() {
            while let Some((_, ins)) = new.next_if(|&(at, _)| at == i) {
                insts.push(ins);
                lines.push(line);
            }
            insts.push(inst);
            lines.push(line);
        }
        self.insts = insts;
        self.lines = lines;
    }

    /// Total instruction count.
    pub fn inst_count(&self) -> usize {
        self.insts.len()
    }

    /// Iterate `(InstRef, &Inst, line)` in block order. `func` is the id of
    /// this function within its module.
    pub fn insts_with_refs<'a>(
        &'a self,
        func: FuncId,
    ) -> impl Iterator<Item = (InstRef, &'a Inst, u32)> + 'a {
        self.blocks().enumerate().flat_map(move |(b, blk)| {
            blk.insts.iter().zip(blk.lines).enumerate().map(move |(i, (inst, &line))| {
                (InstRef { func, block: BlockId(b as u32), idx: i as u32 }, inst, line)
            })
        })
    }

    /// The innermost loop containing `block`, if any.
    pub fn loop_of_block(&self, block: BlockId) -> Option<LoopId> {
        self.block_loop.get(block.index()).copied().flatten()
    }

    /// All loops (ids) from the innermost loop of `block` up to the root.
    pub fn loop_chain(&self, block: BlockId) -> Vec<LoopId> {
        let mut chain = Vec::new();
        let mut cur = self.loop_of_block(block);
        while let Some(l) = cur {
            chain.push(l);
            cur = self.loops[l.index()].parent;
        }
        chain
    }

    /// Blocks belonging to loop `l` including header, body and latch.
    pub fn loop_blocks(&self, l: LoopId) -> Vec<BlockId> {
        let info = &self.loops[l.index()];
        let mut blocks = vec![info.header];
        blocks.extend(info.body.iter().copied());
        blocks.push(info.latch);
        // Nested loops' blocks are already in `body` transitively if the
        // builder recorded them; keep order deterministic and unique.
        blocks.sort_unstable();
        blocks.dedup();
        blocks
    }
}

/// A module: arrays (global memory objects) plus functions.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Module {
    /// Debug name.
    pub name: String,
    /// Memory objects.
    pub arrays: Vec<ArrayDecl>,
    /// Functions; `FuncId` indexes this.
    pub funcs: Vec<Function>,
}

impl Module {
    /// Create an empty module.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into(), arrays: Vec::new(), funcs: Vec::new() }
    }

    /// Declare an array and return its id.
    pub fn add_array(&mut self, name: impl Into<String>, ty: Ty, len: usize) -> ArrayId {
        let id = ArrayId(self.arrays.len() as u32);
        self.arrays.push(ArrayDecl { name: name.into(), ty, len });
        id
    }

    /// Look up a function by name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.funcs.iter().position(|f| f.name == name).map(|i| FuncId(i as u32))
    }

    /// Total loop count across functions.
    pub fn loop_count(&self) -> usize {
        self.funcs.iter().map(|f| f.loops.len()).sum()
    }

    /// Total instruction count across functions.
    pub fn inst_count(&self) -> usize {
        self.funcs.iter().map(Function::inst_count).sum()
    }

    /// Iterate all `(FuncId, LoopId)` pairs.
    pub fn all_loops(&self) -> impl Iterator<Item = (FuncId, LoopId)> + '_ {
        self.funcs.iter().enumerate().flat_map(|(f, fun)| {
            (0..fun.loops.len()).map(move |l| (FuncId(f as u32), LoopId(l as u32)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Inst;
    use crate::types::VReg;

    #[test]
    fn module_lookup() {
        let mut m = Module::new("t");
        let a = m.add_array("x", Ty::F64, 16);
        assert_eq!(m.arrays[a.index()].name, "x");
        assert_eq!(m.arrays[a.index()].len, 16);
    }

    /// `f` with blocks `[Copy, Br b1]` and `[Ret]`.
    fn two_blocks() -> Function {
        let mut f = Function::new("f", 0, 2);
        f.push_block();
        f.push_inst(Inst::Copy { dst: VReg(0), src: VReg(1) }, 1);
        f.push_inst(Inst::Br { target: BlockId(1) }, 1);
        f.push_block();
        f.push_inst(Inst::Ret { val: None }, 2);
        f.block_loop = vec![None, None];
        f
    }

    #[test]
    fn block_terminator_detection() {
        let mut f = Function::new("f", 0, 2);
        assert_eq!(f.num_blocks(), 0);
        assert_eq!(f.push_block(), BlockId(0));
        assert!(f.block(BlockId(0)).is_empty());
        f.push_inst(Inst::Copy { dst: VReg(0), src: VReg(1) }, 1);
        assert!(f.block(BlockId(0)).terminator().is_none());
        f.push_inst(Inst::Ret { val: None }, 2);
        let b = f.block(BlockId(0));
        assert!(b.terminator().is_some());
        assert_eq!(b.len(), 2);
        assert_eq!(b.lines, &[1, 2]);
    }

    #[test]
    fn a_first_instruction_opens_the_entry_block() {
        let mut f = Function::new("f", 0, 0);
        f.push_inst(Inst::Ret { val: None }, 3);
        assert_eq!(f.num_blocks(), 1);
        assert_eq!(f.block(BlockId(0)).insts, &[Inst::Ret { val: None }]);
    }

    #[test]
    fn function_iteration_yields_refs_in_order() {
        let f = two_blocks();
        let refs: Vec<_> = f.insts_with_refs(FuncId(0)).collect();
        assert_eq!(refs.len(), 3);
        assert_eq!(refs[0].0.block, BlockId(0));
        assert_eq!(refs[2].0.block, BlockId(1));
        assert_eq!(refs[2].2, 2);
        assert_eq!(f.inst_count(), 3);
        assert_eq!(f.block_range(BlockId(1)), 2..3);
        assert_eq!(f.inst(refs[1].0), &Inst::Br { target: BlockId(1) });
    }

    #[test]
    fn retain_and_insert_keep_every_block_its_own_run() {
        let mut f = two_blocks();
        f.retain(|i| !matches!(i, Inst::Copy { .. }));
        assert_eq!(f.block(BlockId(0)).insts, &[Inst::Br { target: BlockId(1) }]);
        assert_eq!(f.block(BlockId(1)).lines, &[2]);
        // Before the first instruction of each block.
        let c = |v| Inst::Const { dst: VReg(0), value: crate::types::Value::I64(v) };
        f.insert_before(vec![(0, c(1)), (1, c(2)), (1, c(3))]);
        assert_eq!(f.block(BlockId(0)).insts, &[c(1), Inst::Br { target: BlockId(1) }]);
        assert_eq!(f.block(BlockId(1)).insts, &[c(2), c(3), Inst::Ret { val: None }]);
        assert_eq!(f.lines, &[1, 1, 2, 2, 2]);
        assert_eq!((f.insts.capacity(), f.lines.capacity()), (5, 5));
    }

    #[test]
    fn loop_chain_walks_parents() {
        let outer = LoopInfo {
            id: LoopId(0),
            header: BlockId(1),
            body: vec![BlockId(2)],
            latch: BlockId(3),
            exit: BlockId(4),
            induction: None,
            parent: None,
            depth: 0,
            line_span: (1, 9),
        };
        let inner = LoopInfo {
            id: LoopId(1),
            header: BlockId(2),
            body: vec![],
            latch: BlockId(2),
            exit: BlockId(3),
            induction: None,
            parent: Some(LoopId(0)),
            depth: 1,
            line_span: (3, 6),
        };
        let mut f = Function::new("f", 0, 0);
        f.loops = vec![outer, inner];
        f.block_loop = vec![None, Some(LoopId(0)), Some(LoopId(1)), Some(LoopId(0)), None];
        for _ in 0..5 {
            f.push_block();
        }
        assert_eq!(f.loop_chain(BlockId(2)), vec![LoopId(1), LoopId(0)]);
        assert_eq!(f.loop_chain(BlockId(0)), Vec::<LoopId>::new());
        assert_eq!(f.loop_blocks(LoopId(0)), vec![BlockId(1), BlockId(2), BlockId(3)]);
    }
}
