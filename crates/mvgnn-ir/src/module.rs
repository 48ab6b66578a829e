//! Blocks, loop metadata, functions and modules.

use crate::inst::{Inst, InstRef};
use crate::types::{ArrayId, Ty, VReg};
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
    lines: Run<'f>,
}

impl<'f> Block<'f> {
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

    /// Synthetic source line of instruction `i` (panics past the end, as
    /// `insts[i]` does).
    pub fn line(&self, i: usize) -> u32 {
        self.lines.at(i)
    }

    /// Synthetic source line of each instruction, parallel to `insts`.
    pub fn lines(&self) -> impl ExactSizeIterator<Item = u32> + Clone + 'f {
        self.lines.iter()
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

/// An array's or a function's name: its place in the module's name
/// table, read with [`Module::name_of`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct NameId(u32);

/// A memory object: a 1-D array of a fixed element type and length.
/// Multi-dimensional kernels linearise their indices explicitly, exactly as
/// LLVM GEPs flatten into byte offsets.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ArrayDecl {
    /// Debug name (unique per module).
    pub name: NameId,
    /// Element type.
    pub ty: Ty,
    /// Number of elements.
    pub len: usize,
}

/// A function's side table, stored in `u16`s when every entry fits one
/// and in `u32`s otherwise, so that a function whose line numbers,
/// instruction offsets, blocks and registers stay within 65,535 holds it
/// at half the size.
#[derive(Debug, Clone)]
enum Side {
    Narrow(Box<[u16]>),
    Wide(Box<[u32]>),
}

impl Side {
    /// `entries` in the narrowest form that keeps each one exactly.
    fn new(entries: Vec<u32>) -> Self {
        if entries.iter().all(|&e| e <= u32::from(u16::MAX)) {
            Side::Narrow(entries.into_iter().map(|e| e as u16).collect())
        } else {
            Side::Wide(entries.into_boxed_slice())
        }
    }

    /// The whole table.
    fn run(&self) -> Run<'_> {
        match self {
            Side::Narrow(s) => Run::Narrow(s),
            Side::Wide(s) => Run::Wide(s),
        }
    }
}

/// A stretch of a side table, read entry by entry as `u32`s.
#[derive(Debug, Clone, Copy)]
enum Run<'f> {
    Narrow(&'f [u16]),
    Wide(&'f [u32]),
}

/// A run of no entries.
const EMPTY: Run<'static> = Run::Wide(&[]);

impl<'f> Run<'f> {
    fn len(self) -> usize {
        match self {
            Run::Narrow(s) => s.len(),
            Run::Wide(s) => s.len(),
        }
    }

    /// Entry `i` (panics past the end, as slice indexing does).
    fn at(self, i: usize) -> u32 {
        match self {
            Run::Narrow(s) => u32::from(s[i]),
            Run::Wide(s) => s[i],
        }
    }

    /// Entries `r`; `None` when `r` runs past the end.
    fn get(self, r: Range<usize>) -> Option<Run<'f>> {
        Some(match self {
            Run::Narrow(s) => Run::Narrow(s.get(r)?),
            Run::Wide(s) => Run::Wide(s.get(r)?),
        })
    }

    /// Every entry, in order.
    fn iter(self) -> RunIter<'f> {
        match self {
            Run::Narrow(s) => RunIter::Narrow(s.iter()),
            Run::Wide(s) => RunIter::Wide(s.iter()),
        }
    }
}

/// The entries of a [`Run`], as `u32`s.
#[derive(Debug, Clone)]
enum RunIter<'f> {
    Narrow(std::slice::Iter<'f, u16>),
    Wide(std::slice::Iter<'f, u32>),
}

impl Iterator for RunIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        match self {
            RunIter::Narrow(it) => it.next().map(|&e| u32::from(e)),
            RunIter::Wide(it) => it.next().copied(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = match self {
            RunIter::Narrow(it) => it.len(),
            RunIter::Wide(it) => it.len(),
        };
        (n, Some(n))
    }
}

impl ExactSizeIterator for RunIter<'_> {}

/// A function: registers are dynamically typed; the first `arity` registers
/// receive the call arguments.
///
/// The code is stored flat: every instruction of every block in one
/// array, block after block. Everything else about it is one side table,
/// four runs one after another (`n` instructions, `nb` blocks), in
/// `u16`s when every entry fits and in `u32`s otherwise:
///
/// - lines, `n`: the synthetic source line of each instruction;
/// - starts, `nb + 1`: block `b` holds `insts[starts[b]..starts[b + 1]]`;
/// - block loops, `nb`: one more than each block's innermost loop, 0 for
///   none;
/// - operands, the rest: every loop's body blocks, each [`LoopInfo`]
///   holding the range of its own, then every call's argument count and
///   arguments in code order, each [`Inst::Call`] holding the offset of
///   its own.
///
/// [`Function::block`] views one block's run of code and lines.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Function {
    /// Debug name (unique per module).
    pub name: NameId,
    /// Number of parameters.
    pub arity: u32,
    /// Total virtual registers used.
    pub num_regs: u32,
    /// Number of basic blocks.
    nblocks: u32,
    /// Every instruction, block after block.
    insts: Box<[Inst]>,
    /// Lines, starts, block loops and operands (see above).
    side: Side,
    /// Loops created by the builder, indexed by `LoopId`.
    pub loops: Box<[LoopInfo]>,
}

impl Function {
    /// A function whose blocks hold the given `(instruction, line)` runs,
    /// with `loops` whose `body` ranges index `bodies` and calls whose
    /// `args` offsets index `operands` (each call's argument count, then
    /// its arguments), stored at its exact size. Each block's innermost
    /// loop is derived from the loops: every loop claims its header, body
    /// and latch, outer loops (lower depth) first so that inner ones
    /// override them. The calls' operands are laid out in code order,
    /// whatever order `operands` holds them in.
    pub(crate) fn new(
        name: NameId,
        arity: u32,
        num_regs: u32,
        blocks: Vec<Vec<(Inst, u32)>>,
        loops: Vec<LoopInfo>,
        bodies: &[BlockId],
        operands: &[u32],
    ) -> Self {
        let n: usize = blocks.iter().map(Vec::len).sum();
        let nb = blocks.len();
        let mut side = Vec::with_capacity(n + 2 * nb + 1 + bodies.len() + operands.len());
        side.extend(blocks.iter().flatten().map(|&(_, line)| line));
        let mut end = 0;
        side.push(end);
        for blk in &blocks {
            end += blk.len() as u32;
            side.push(end);
        }
        let at = side.len();
        side.resize(at + nb, 0);
        let operands_at = side.len();
        side.extend(bodies.iter().map(|b| b.0));
        let mut order: Vec<usize> = (0..loops.len()).collect();
        order.sort_by_key(|&i| loops[i].depth);
        for info in order.into_iter().map(|i| &loops[i]) {
            let body = bodies.get(info.body.start as usize..info.body.end as usize).unwrap_or(&[]);
            for b in body.iter().chain([&info.header, &info.latch]).filter(|b| b.index() < nb) {
                side[at + b.index()] = info.id.0.wrapping_add(1);
            }
        }
        let mut insts = Vec::with_capacity(n);
        for (mut inst, _) in blocks.into_iter().flatten() {
            if let Inst::Call { args, .. } = &mut inst {
                let head = *args as usize;
                let run = operands.get(head).and_then(|&k| operands.get(head..=head + k as usize));
                *args = (side.len() - operands_at) as u32;
                side.extend_from_slice(run.unwrap_or(&[0]));
            }
            insts.push(inst);
        }
        Self {
            name,
            arity,
            num_regs,
            nblocks: nb as u32,
            insts: insts.into_boxed_slice(),
            side: Side::new(side),
            loops: loops.into_boxed_slice(),
        }
    }

    /// Number of basic blocks; `BlockId(0)` is the entry.
    pub fn num_blocks(&self) -> usize {
        self.nblocks as usize
    }

    /// The side table's starts run.
    fn starts(&self) -> Run<'_> {
        let n = self.insts.len();
        self.side.run().get(n..n + self.num_blocks() + 1).unwrap_or(EMPTY)
    }

    /// Offset of the side table's block-loops run.
    fn block_loops_at(&self) -> usize {
        self.insts.len() + self.num_blocks() + 1
    }

    /// Offset of the side table's operands run.
    fn operands_at(&self) -> usize {
        self.block_loops_at() + self.num_blocks()
    }

    /// The side table's operands run.
    fn operands(&self) -> Run<'_> {
        let side = self.side.run();
        side.get(self.operands_at()..side.len()).unwrap_or(EMPTY)
    }

    /// Offsets of block `b`'s instructions in [`Function::insts`].
    pub fn block_range(&self, b: BlockId) -> Range<usize> {
        let s = self.starts();
        s.at(b.index()) as usize..s.at(b.index() + 1) as usize
    }

    /// Block `b`.
    pub fn block(&self, b: BlockId) -> Block<'_> {
        let r = self.block_range(b);
        let insts = &self.insts[r.clone()];
        Block { insts, lines: self.side.run().get(r).unwrap_or(EMPTY) }
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

    /// The side table's entries, to edit and store back with
    /// [`Side::new`].
    fn side_entries(&self) -> Vec<u32> {
        self.side.run().iter().collect()
    }

    /// Keep only the instructions `keep` accepts, in order, and store
    /// the code at its new exact size. The operands run is kept whole.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&Inst) -> bool) {
        let (n, nb) = (self.insts.len(), self.num_blocks());
        let mut side = self.side_entries();
        let mut w = 0usize;
        for b in n..n + nb {
            let (lo, hi) = (side[b] as usize, side[b + 1] as usize);
            side[b] = w as u32;
            for i in lo..hi {
                if keep(&self.insts[i]) {
                    self.insts.swap(w, i);
                    side[w] = side[i];
                    w += 1;
                }
            }
        }
        side[n + nb] = w as u32;
        let mut insts = std::mem::take(&mut self.insts).into_vec();
        insts.truncate(w);
        self.insts = insts.into_boxed_slice();
        side.drain(w..n);
        self.side = Side::new(side);
    }

    /// Insert each `(at, inst)` before the instruction now at offset
    /// `at` (ascending offsets), in the same block and with its line, and
    /// store the code at its new exact size.
    pub(crate) fn insert_before(&mut self, new: Vec<(usize, Inst)>) {
        if new.is_empty() {
            return;
        }
        let (n, nb) = (self.insts.len(), self.num_blocks());
        let old = self.side_entries();
        let mut insts = Vec::with_capacity(n + new.len());
        let mut side = Vec::with_capacity(old.len() + new.len());
        let mut pending = new.iter().peekable();
        for (i, (&inst, &line)) in self.insts.iter().zip(&old).enumerate() {
            while let Some(&(_, ins)) = pending.next_if(|&&(at, _)| at == i) {
                insts.push(ins);
                side.push(line);
            }
            insts.push(inst);
            side.push(line);
        }
        // A block starting at offset `s` moves down by the insertions
        // made before `s`; one made at `s` itself joins the block.
        let shift = |s: u32| s + new.partition_point(|&(at, _)| at < s as usize) as u32;
        side.extend(old[n..=n + nb].iter().map(|&s| shift(s)));
        side.extend_from_slice(&old[n + nb + 1..]);
        self.insts = insts.into_boxed_slice();
        self.side = Side::new(side);
    }

    /// Rewrite every call argument through `map`.
    pub(crate) fn map_call_args(&mut self, map: impl Fn(VReg) -> VReg) {
        let at = self.operands_at();
        let mut side = self.side_entries();
        for inst in self.insts.iter() {
            if let Inst::Call { args, .. } = *inst {
                let head = at + args as usize;
                let k = side.get(head).map_or(0, |&k| k as usize);
                for r in side.get_mut(head + 1..head + 1 + k).unwrap_or_default() {
                    *r = map(VReg(*r)).0;
                }
            }
        }
        self.side = Side::new(side);
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
            blk.insts.iter().zip(blk.lines()).enumerate().map(move |(i, (inst, line))| {
                (InstRef { func, block: BlockId(b as u32), idx: i as u32 }, inst, line)
            })
        })
    }

    /// The innermost loop containing `block`, if any.
    pub fn loop_of_block(&self, block: BlockId) -> Option<LoopId> {
        let at = self.block_loops_at();
        let loops = self.side.run().get(at..at + self.num_blocks()).unwrap_or(EMPTY);
        (block.index() < loops.len())
            .then(|| loops.at(block.index()))
            .and_then(|l| l.checked_sub(1))
            .map(LoopId)
    }

    /// The blocks of `info`'s body (header and latch excluded), `info`
    /// being one of this function's loops.
    pub fn loop_body(
        &self,
        info: &LoopInfo,
    ) -> impl ExactSizeIterator<Item = BlockId> + Clone + '_ {
        let run = self.operands().get(info.body.start as usize..info.body.end as usize);
        run.unwrap_or(EMPTY).iter().map(BlockId)
    }

    /// The argument registers of `inst`, one of this function's
    /// instructions: a call's arguments in order, nothing for any other
    /// instruction. Another function's call gives unspecified registers
    /// (and fails a debug assertion when its operands lie outside this
    /// function's).
    pub fn call_args(&self, inst: &Inst) -> impl ExactSizeIterator<Item = VReg> + Clone + '_ {
        let run = match *inst {
            Inst::Call { args, .. } => {
                let (ops, head) = (self.operands(), args as usize);
                let run = (head < ops.len())
                    .then(|| ops.at(head) as usize)
                    .and_then(|k| ops.get(head + 1..head + 1 + k));
                debug_assert!(run.is_some(), "call operands at {head} of {}", ops.len());
                run
            }
            _ => None,
        };
        run.unwrap_or(EMPTY).iter().map(VReg)
    }

    /// The registers `inst`, one of this function's instructions, reads,
    /// in operand order; a call reads its arguments.
    pub fn uses<'a>(&'a self, inst: &Inst) -> impl Iterator<Item = VReg> + 'a {
        let (inline, n) = inst.inline_uses();
        inline.into_iter().take(n).chain(self.call_args(inst))
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

/// A module: arrays (global memory objects) plus functions, and one
/// table holding every array and function name.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Module {
    /// Debug name.
    pub name: String,
    /// Every array and function name, back to back.
    names: String,
    /// Where each name ends in `names`, by [`NameId`].
    name_ends: Vec<u32>,
    /// Memory objects.
    pub arrays: Vec<ArrayDecl>,
    /// Functions; `FuncId` indexes this.
    pub funcs: Vec<Function>,
}

impl Module {
    /// Create an empty module.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into(), ..Self::default() }
    }

    /// Add `name` to the name table.
    pub(crate) fn intern(&mut self, name: &str) -> NameId {
        let id = NameId(self.name_ends.len() as u32);
        self.names.push_str(name);
        self.name_ends.push(self.names.len() as u32);
        id
    }

    /// The name `id`, one of this module's names, stands for. Another
    /// module's id gives an unspecified name (and fails a debug assertion
    /// when it lies past this module's names).
    pub fn name_of(&self, id: NameId) -> &str {
        let i = id.0 as usize;
        debug_assert!(i < self.name_ends.len(), "name {i} of {}", self.name_ends.len());
        let start = i.checked_sub(1).and_then(|p| self.name_ends.get(p)).map_or(0, |&e| e);
        let end = self.name_ends.get(i).map_or(0, |&e| e);
        self.names.get(start as usize..end as usize).unwrap_or("")
    }

    /// Declare an array and return its id.
    pub fn add_array(&mut self, name: impl AsRef<str>, ty: Ty, len: usize) -> ArrayId {
        let id = ArrayId(self.arrays.len() as u32);
        let name = self.intern(name.as_ref());
        self.arrays.push(ArrayDecl { name, ty, len });
        id
    }

    /// Look up a function by name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.funcs.iter().position(|f| self.name_of(f.name) == name).map(|i| FuncId(i as u32))
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
    use crate::types::Value;

    #[test]
    fn module_lookup() {
        let mut m = Module::new("t");
        let a = m.add_array("x", Ty::F64, 16);
        let g = m.intern("gamma");
        let e = m.intern("");
        let b = m.add_array(String::from("yy"), Ty::I64, 2);
        assert_eq!(m.name_of(m.arrays[a.index()].name), "x");
        assert_eq!(m.arrays[a.index()].len, 16);
        assert_eq!((m.name_of(g), m.name_of(e)), ("gamma", ""));
        assert_eq!(m.name_of(m.arrays[b.index()].name), "yy");
        assert_eq!((m.names.as_str(), m.name_ends.as_slice()), ("xgammayy", &[1, 6, 6, 8][..]));
        assert_eq!(std::mem::size_of::<ArrayDecl>(), 16);
    }

    fn function(blocks: Vec<Vec<(Inst, u32)>>) -> Function {
        Function::new(NameId(0), 0, 2, blocks, Vec::new(), &[], &[])
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
        assert_eq!(b.lines().collect::<Vec<_>>(), [1, 1]);
        assert_eq!((b.line(0), b.line(1)), (1, 1));
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
        assert_eq!(f.block(BlockId(1)).lines().collect::<Vec<_>>(), [2]);
        // Before the first instruction of each block.
        let c = |v| Inst::constant(VReg(0), Value::I64(v));
        f.insert_before(vec![(0, c(1)), (1, c(2)), (1, c(3))]);
        assert_eq!(f.block(BlockId(0)).insts, &[c(1), Inst::Br { target: BlockId(1) }]);
        assert_eq!(f.block(BlockId(1)).insts, &[c(2), c(3), Inst::Ret { val: None }]);
        // Lines, then starts, then the two blocks' loops.
        assert_eq!(f.side_entries(), [1, 1, 2, 2, 2, 0, 2, 5, 0, 0]);
        assert!(matches!(&f.side, Side::Narrow(s) if s.len() == 10));
        assert_eq!(f.insts.len(), 5);
    }

    #[test]
    fn side_tables_narrow_when_every_entry_fits() {
        let ret = |line| function(vec![vec![(Inst::Ret { val: None }, line)]]);
        let f = ret(u32::from(u16::MAX));
        assert!(matches!(&f.side, Side::Narrow(s) if s[..] == [u16::MAX, 0, 1, 0]));
        assert_eq!(f.side_entries(), [65_535, 0, 1, 0]);
        assert_eq!((f.block(BlockId(0)).line(0), f.loop_of_block(BlockId(0))), (65_535, None));
        // One wider entry keeps the whole table in `u32`s.
        for line in [65_536, 70_000, u32::MAX] {
            let f = ret(line);
            assert!(matches!(&f.side, Side::Wide(s) if s.len() == 4), "{line}");
            assert_eq!(f.side_entries(), [line, 0, 1, 0]);
            assert_eq!((f.block(BlockId(0)).line(0), f.loop_of_block(BlockId(0))), (line, None));
        }
        // An insertion that widens an entry widens the table, and a
        // removal that narrows every entry narrows it back.
        let mut f = ret(7);
        let c = Inst::constant(VReg(0), Value::I64(0));
        f.insert_before(vec![(0, c); 70_000]);
        assert!(matches!(&f.side, Side::Wide(_)));
        assert_eq!(f.block_range(BlockId(0)), 0..70_001);
        assert_eq!(f.block(BlockId(0)).lines().len(), 70_001);
        f.retain(|i| matches!(i, Inst::Ret { .. }));
        assert!(matches!(&f.side, Side::Narrow(s) if s[..] == [7, 0, 1, 0]));
    }

    #[test]
    fn calls_read_their_arguments_from_the_operands_run() {
        // Staged out of code order: the second call's arguments first.
        let mut staged = vec![9];
        let second = Inst::call(None, FuncId(0), &[VReg(1)], &mut staged);
        let first = Inst::call(Some(VReg(1)), FuncId(0), &[VReg(0), VReg(2)], &mut staged);
        let none = Inst::call(None, FuncId(0), &[], &mut staged);
        let blocks = vec![
            vec![(first, 1), (none, 1), (Inst::Br { target: BlockId(1) }, 1)],
            vec![(second, 2), (Inst::Ret { val: Some(VReg(1)) }, 2)],
        ];
        let mut f = Function::new(NameId(0), 0, 3, blocks, Vec::new(), &[], &staged);
        let args = |f: &Function, i: usize| f.call_args(&f.insts()[i]).collect::<Vec<_>>();
        assert_eq!(args(&f, 0), [VReg(0), VReg(2)]);
        assert_eq!(args(&f, 1), []);
        assert_eq!(args(&f, 3), [VReg(1)]);
        assert_eq!(args(&f, 4), [], "a return has no call arguments");
        assert_eq!(f.uses(&f.insts()[4]).collect::<Vec<_>>(), [VReg(1)]);
        // Laid out in code order after the block loops, each argument
        // count ahead of its arguments, exactly sized.
        assert_eq!(f.side_entries()[5 + 3 + 2..], [2, 0, 2, 0, 1, 1]);
        assert!(matches!(f.insts()[3], Inst::Call { args: 4, .. }));
        f.map_call_args(|r| VReg(r.0 + 10));
        assert_eq!(args(&f, 0), [VReg(10), VReg(12)]);
        f.retain(|i| !matches!(i, Inst::Br { .. }));
        assert_eq!(args(&f, 2), [VReg(11)]);
        assert!(std::mem::size_of::<Function>() <= 72);
    }

    #[test]
    fn blocks_map_to_their_innermost_loop() {
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
        let f = Function::new(NameId(0), 0, 0, blocks, vec![outer, inner], &[BlockId(2)], &[]);
        let got: Vec<_> = (0..5).map(|b| f.loop_of_block(BlockId(b))).collect();
        assert_eq!(got, [None, Some(LoopId(0)), Some(LoopId(1)), Some(LoopId(0)), None]);
        assert_eq!(f.loop_blocks(LoopId(0)), vec![BlockId(1), BlockId(2), BlockId(3)]);
        assert_eq!(f.loop_body(&f.loops[1]).len(), 0);
        let entries = f.side_entries().len();
        assert_eq!(entries, 5 + 6 + 5 + 1, "lines, starts, block loops, one body block");
    }
}
