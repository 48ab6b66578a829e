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
    /// Where the blocks belonging to the loop body (header and latch
    /// excluded) sit in its function's body run; read them with
    /// [`Function::loop_body`].
    pub(crate) body: Range<u32>,
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

/// Side-table entry of a block that belongs to no loop.
const NO_LOOP: u32 = u32::MAX;

/// A function: registers are dynamically typed; the first `arity` registers
/// receive the call arguments.
///
/// The code is stored flat: every instruction of every block in one
/// array, block after block. Everything else about it is one side table
/// of `u32`s, four runs one after another (`n` instructions, `nb`
/// blocks):
///
/// - lines, `n`: the synthetic source line of each instruction;
/// - starts, `nb + 1`: block `b` holds `insts[starts[b]..starts[b + 1]]`;
/// - block loops, `nb`: each block's innermost loop, `u32::MAX` for none;
/// - bodies, the rest: every loop's body blocks, each [`LoopInfo`]
///   holding the range of its own.
///
/// [`Function::block`] views one block's run of code and lines.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Function {
    /// Debug name (unique per module).
    pub name: String,
    /// Number of parameters.
    pub arity: u32,
    /// Total virtual registers used.
    pub num_regs: u32,
    /// Number of basic blocks.
    nblocks: u32,
    /// Every instruction, block after block.
    insts: Vec<Inst>,
    /// Lines, starts, block loops and bodies (see above).
    side: Vec<u32>,
    /// Loops created by the builder, indexed by `LoopId`.
    pub loops: Vec<LoopInfo>,
}

impl Function {
    /// A function whose blocks hold the given `(instruction, line)` runs,
    /// with `loops` whose `body` ranges index `bodies`, stored at its
    /// exact size. Each block's innermost loop is derived from the loops:
    /// every loop claims its header, body and latch, outer loops (lower
    /// depth) first so that inner ones override them.
    pub(crate) fn new(
        name: impl Into<String>,
        arity: u32,
        num_regs: u32,
        blocks: Vec<Vec<(Inst, u32)>>,
        loops: Vec<LoopInfo>,
        bodies: &[BlockId],
    ) -> Self {
        let n: usize = blocks.iter().map(Vec::len).sum();
        let nb = blocks.len();
        let mut side = Vec::with_capacity(n + 2 * nb + 1 + bodies.len());
        side.extend(blocks.iter().flatten().map(|&(_, line)| line));
        let mut end = 0;
        side.push(end);
        for blk in &blocks {
            end += blk.len() as u32;
            side.push(end);
        }
        let at = side.len();
        side.resize(at + nb, NO_LOOP);
        side.extend(bodies.iter().map(|b| b.0));
        let mut order: Vec<usize> = (0..loops.len()).collect();
        order.sort_by_key(|&i| loops[i].depth);
        for info in order.into_iter().map(|i| &loops[i]) {
            let body = bodies.get(info.body.start as usize..info.body.end as usize).unwrap_or(&[]);
            for b in body.iter().chain([&info.header, &info.latch]).filter(|b| b.index() < nb) {
                side[at + b.index()] = info.id.0;
            }
        }
        let mut insts = Vec::with_capacity(n);
        insts.extend(blocks.into_iter().flatten().map(|(inst, _)| inst));
        Self { name: name.into(), arity, num_regs, nblocks: nb as u32, insts, side, loops }
    }

    /// Number of basic blocks; `BlockId(0)` is the entry.
    pub fn num_blocks(&self) -> usize {
        self.nblocks as usize
    }

    /// The side table's starts run.
    fn starts(&self) -> &[u32] {
        let n = self.insts.len();
        &self.side[n..=n + self.num_blocks()]
    }

    /// Offset of the side table's block-loops run.
    fn block_loops_at(&self) -> usize {
        self.insts.len() + self.num_blocks() + 1
    }

    /// Offsets of block `b`'s instructions in [`Function::insts`].
    pub fn block_range(&self, b: BlockId) -> Range<usize> {
        let s = self.starts();
        s[b.index()] as usize..s[b.index() + 1] as usize
    }

    /// Block `b`.
    pub fn block(&self, b: BlockId) -> Block<'_> {
        let r = self.block_range(b);
        Block { insts: &self.insts[r.clone()], lines: &self.side[r] }
    }

    /// Every block, in id order.
    pub fn blocks(&self) -> impl ExactSizeIterator<Item = Block<'_>> + '_ {
        (0..self.nblocks).map(move |b| self.block(BlockId(b)))
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
        let (n, nb) = (self.insts.len(), self.num_blocks());
        let mut w = 0usize;
        for b in n..n + nb {
            let (lo, hi) = (self.side[b] as usize, self.side[b + 1] as usize);
            self.side[b] = w as u32;
            for i in lo..hi {
                if keep(&self.insts[i]) {
                    self.insts.swap(w, i);
                    self.side[w] = self.side[i];
                    w += 1;
                }
            }
        }
        self.side[n + nb] = w as u32;
        self.insts.truncate(w);
        self.side.drain(w..n);
        self.insts.shrink_to_fit();
        self.side.shrink_to_fit();
    }

    /// Insert each `(at, inst)` before the instruction now at offset
    /// `at` (ascending offsets), in the same block and with its line, and
    /// store the code at its new exact size.
    pub(crate) fn insert_before(&mut self, new: Vec<(usize, Inst)>) {
        if new.is_empty() {
            return;
        }
        let (n, nb) = (self.insts.len(), self.num_blocks());
        // A block starting at offset `s` moves down by the insertions
        // made before `s`; one made at `s` itself joins the block.
        for s in &mut self.side[n..=n + nb] {
            *s += new.partition_point(|&(at, _)| at < *s as usize) as u32;
        }
        let mut insts = Vec::with_capacity(n + new.len());
        let mut side = Vec::with_capacity(self.side.len() + new.len());
        let mut new = new.into_iter().peekable();
        let old = std::mem::take(&mut self.insts);
        for (i, (inst, &line)) in old.into_iter().zip(&self.side).enumerate() {
            while let Some((_, ins)) = new.next_if(|&(at, _)| at == i) {
                insts.push(ins);
                side.push(line);
            }
            insts.push(inst);
            side.push(line);
        }
        side.extend_from_slice(&self.side[n..]);
        self.insts = insts;
        self.side = side;
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
        let at = self.block_loops_at();
        let loops = &self.side[at..at + self.num_blocks()];
        loops.get(block.index()).filter(|&&l| l != NO_LOOP).map(|&l| LoopId(l))
    }

    /// The blocks of `info`'s body (header and latch excluded), `info`
    /// being one of this function's loops.
    pub fn loop_body(
        &self,
        info: &LoopInfo,
    ) -> impl ExactSizeIterator<Item = BlockId> + Clone + '_ {
        let bodies = &self.side[self.block_loops_at() + self.num_blocks()..];
        let run = bodies.get(info.body.start as usize..info.body.end as usize).unwrap_or(&[]);
        run.iter().map(|&b| BlockId(b))
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
        blocks.extend(self.loop_body(info));
        blocks.push(info.latch);
        // Nested loops' blocks are already in the body transitively if the
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Inst;
    use crate::types::{VReg, Value};

    #[test]
    fn module_lookup() {
        let mut m = Module::new("t");
        let a = m.add_array("x", Ty::F64, 16);
        assert_eq!(m.arrays[a.index()].name, "x");
        assert_eq!(m.arrays[a.index()].len, 16);
    }

    fn function(blocks: Vec<Vec<(Inst, u32)>>) -> Function {
        Function::new("f", 0, 2, blocks, Vec::new(), &[])
    }

    /// `f` with blocks `[Copy, Br b1]` and `[Ret]`.
    fn two_blocks() -> Function {
        function(vec![
            vec![
                (Inst::Copy { dst: VReg(0), src: VReg(1) }, 1),
                (Inst::Br { target: BlockId(1) }, 1),
            ],
            vec![(Inst::Ret { val: None }, 2)],
        ])
    }

    #[test]
    fn block_terminator_detection() {
        assert_eq!(function(Vec::new()).num_blocks(), 0);
        let f = function(vec![Vec::new()]);
        assert!(f.block(BlockId(0)).is_empty());
        let f = function(vec![vec![(Inst::Copy { dst: VReg(0), src: VReg(1) }, 1)]]);
        assert!(f.block(BlockId(0)).terminator().is_none());
        let f = two_blocks();
        let b = f.block(BlockId(0));
        assert!(b.terminator().is_some());
        assert_eq!(b.len(), 2);
        assert_eq!(b.lines, &[1, 1]);
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
        let c = |v| Inst::constant(VReg(0), Value::I64(v));
        f.insert_before(vec![(0, c(1)), (1, c(2)), (1, c(3))]);
        assert_eq!(f.block(BlockId(0)).insts, &[c(1), Inst::Br { target: BlockId(1) }]);
        assert_eq!(f.block(BlockId(1)).insts, &[c(2), c(3), Inst::Ret { val: None }]);
        // Lines, then starts, then the two blocks' loops.
        assert_eq!(f.side, &[1, 1, 2, 2, 2, 0, 2, 5, NO_LOOP, NO_LOOP]);
        assert_eq!((f.insts.capacity(), f.side.capacity()), (5, 10));
    }

    #[test]
    fn loop_chain_walks_parents() {
        let outer = LoopInfo {
            id: LoopId(0),
            header: BlockId(1),
            body: 0..1,
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
            body: 1..1,
            latch: BlockId(2),
            exit: BlockId(3),
            induction: None,
            parent: Some(LoopId(0)),
            depth: 1,
            line_span: (3, 6),
        };
        let blocks = vec![vec![(Inst::Ret { val: None }, 1)]; 5];
        let f = Function::new("f", 0, 0, blocks, vec![outer, inner], &[BlockId(2)]);
        let got: Vec<_> = (0..5).map(|b| f.loop_of_block(BlockId(b))).collect();
        assert_eq!(got, [None, Some(LoopId(0)), Some(LoopId(1)), Some(LoopId(0)), None]);
        assert_eq!(f.loop_chain(BlockId(2)), vec![LoopId(1), LoopId(0)]);
        assert_eq!(f.loop_chain(BlockId(0)), Vec::<LoopId>::new());
        assert_eq!(f.loop_blocks(LoopId(0)), vec![BlockId(1), BlockId(2), BlockId(3)]);
        assert_eq!(f.loop_body(&f.loops[1]).len(), 0);
        assert_eq!(f.side.len(), 5 + 6 + 5 + 1, "lines, starts, block loops, one body block");
    }
}
