//! Worklist dataflow engine: a dense bitset domain plus the classic
//! liveness analysis.
//!
//! [`liveness`] runs over [`mvgnn_ir::Cfg`] to a fixpoint with a block
//! worklist seeded in postorder, the textbook iterative scheme. The IR
//! has no phis — registers are mutable virtual registers — so a
//! "definition" is any instruction whose `Inst::def` is the register.
//!
//! The oracle asks two control-flow questions per function, and only
//! when a loop needs them: is a register live into a block
//! (`LiveSets`, one flat bitset for the whole function) and does a
//! block dominate another (`Walk::dominates`, one reachability walk).
//! Both read successors straight off the block terminators instead of
//! building a [`Cfg`], and agree with [`liveness`] and
//! [`mvgnn_ir::Dominators`] on every block.

use mvgnn_ir::inst::Inst;
use mvgnn_ir::module::{Block, BlockId, Function};
use mvgnn_ir::types::VReg;
use mvgnn_ir::Cfg;

/// A fixed-width bitset over `0..len`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// An empty set over the universe `0..len`.
    pub fn new(len: usize) -> Self {
        Self { words: vec![0; len.div_ceil(64)], len }
    }

    /// Set bit `i`; returns true if it was newly set.
    pub fn insert(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let (w, b) = (i / 64, 1u64 << (i % 64));
        let newly = self.words[w] & b == 0;
        self.words[w] |= b;
        newly
    }

    /// Is bit `i` set?
    pub fn contains(&self, i: usize) -> bool {
        i < self.len && self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// `self |= other`; returns true if `self` changed.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        debug_assert_eq!(self.len, other.len);
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let next = *a | b;
            changed |= next != *a;
            *a = next;
        }
        changed
    }

    /// `self -= other`.
    pub fn subtract(&mut self, other: &BitSet) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }
}

/// Live registers at block entries.
#[derive(Debug, Clone)]
pub struct Liveness {
    /// Registers live at each block's entry (bit = register number).
    pub live_in: Vec<BitSet>,
}

impl Liveness {
    /// Is `reg` live at the entry of `b`?
    pub fn live_in_at(&self, b: BlockId, reg: VReg) -> bool {
        self.live_in[b.index()].contains(reg.0 as usize)
    }
}

/// Compute register liveness for `f` over its CFG `cfg` (backward, may,
/// union-confluence).
pub fn liveness(f: &Function, cfg: &Cfg) -> Liveness {
    let n = cfg.len();
    let nr = f.num_regs as usize;

    // use[b]: read before any def in b; def[b]: defined in b.
    let mut use_ = vec![BitSet::new(nr); n];
    let mut def = vec![BitSet::new(nr); n];
    for (bi, blk) in f.blocks().enumerate() {
        for inst in blk.insts {
            for u in f.uses(inst) {
                if !def[bi].contains(u.0 as usize) {
                    use_[bi].insert(u.0 as usize);
                }
            }
            if let Some(d) = inst.def() {
                def[bi].insert(d.0 as usize);
            }
        }
    }

    let mut live_in = vec![BitSet::new(nr); n];
    // Exit sets of the previous sweep, kept only for the change test.
    let mut live_out = vec![BitSet::new(nr); n];
    // Postorder = reverse of RPO, the fast direction for backward flow.
    let order: Vec<BlockId> = cfg.reverse_postorder().into_iter().rev().collect();
    let mut changed = true;
    while changed {
        changed = false;
        for &b in &order {
            let bi = b.index();
            let mut out = BitSet::new(nr);
            for s in &cfg.succs[bi] {
                out.union_with(&live_in[s.index()]);
            }
            let mut inp = out.clone();
            inp.subtract(&def[bi]);
            inp.union_with(&use_[bi]);
            if out != live_out[bi] || inp != live_in[bi] {
                changed = true;
            }
            live_in[bi] = inp;
            live_out[bi] = out;
        }
    }
    Liveness { live_in }
}

/// Successors of `blk` in a function of `n` blocks: its terminator's
/// in-range targets, in branch order (as [`Cfg::new`] lists them).
fn successors(blk: Block<'_>, n: usize) -> impl Iterator<Item = usize> {
    let (a, b) = match blk.terminator() {
        Some(Inst::Br { target }) => (Some(*target), None),
        Some(Inst::CondBr { then_blk, else_blk, .. }) => (Some(*then_blk), Some(*else_blk)),
        _ => (None, None),
    };
    a.into_iter().chain(b).map(BlockId::index).filter(move |&t| t < n)
}

/// Reusable buffers for reachability walks over one function's blocks.
#[derive(Debug, Default)]
pub(crate) struct Walk {
    seen: Vec<bool>,
    stack: Vec<usize>,
}

impl Walk {
    /// Mark the blocks reachable from the entry without entering
    /// `avoid`.
    fn reach(&mut self, f: &Function, avoid: Option<usize>) -> &[bool] {
        let n = f.num_blocks();
        self.seen.clear();
        self.seen.resize(n, false);
        self.stack.clear();
        if n > 0 && avoid != Some(0) {
            self.seen[0] = true;
            self.stack.push(0);
        }
        while let Some(b) = self.stack.pop() {
            for s in successors(f.block(BlockId(b as u32)), n) {
                if !self.seen[s] && avoid != Some(s) {
                    self.seen[s] = true;
                    self.stack.push(s);
                }
            }
        }
        &self.seen
    }

    /// Does block `a` dominate block `b`: does every path from the entry
    /// to `b` pass through `a`? A block unreachable from the entry is
    /// dominated by every block, the convention of
    /// [`mvgnn_ir::Dominators`].
    pub(crate) fn dominates(&mut self, f: &Function, a: BlockId, b: BlockId) -> bool {
        let reached = self.reach(f, Some(a.index()));
        b.index() < reached.len() && !reached[b.index()]
    }
}

/// Register liveness at every block entry of one function, as one flat
/// bitset of `words` words per block. Blocks unreachable from the entry
/// have empty sets, as in [`liveness`].
#[derive(Debug)]
pub(crate) struct LiveSets {
    words: usize,
    live_in: Vec<u64>,
}

impl LiveSets {
    /// Solve liveness for `f` (backward, may, union-confluence).
    pub(crate) fn new(f: &Function, walk: &mut Walk) -> Self {
        let n = f.num_blocks();
        let max_reg = f
            .insts()
            .iter()
            .flat_map(|i| f.uses(i).chain(i.def()))
            .map(|r| r.0 + 1)
            .max()
            .unwrap_or(0);
        let words = (f.num_regs.max(max_reg) as usize).div_ceil(64);
        let bit = |r: VReg| (r.0 as usize / 64, 1u64 << (r.0 % 64));
        // use[b]: read before any def in b; def[b]: defined in b.
        let mut use_def = vec![0u64; 2 * n * words];
        let (use_, def) = use_def.split_at_mut(n * words);
        for (bi, blk) in f.blocks().enumerate() {
            let row = bi * words..(bi + 1) * words;
            let (u, d) = (&mut use_[row.clone()], &mut def[row]);
            for inst in blk.insts {
                for r in f.uses(inst) {
                    let (w, m) = bit(r);
                    if d[w] & m == 0 {
                        u[w] |= m;
                    }
                }
                if let Some(r) = inst.def() {
                    let (w, m) = bit(r);
                    d[w] |= m;
                }
            }
        }
        let reachable = walk.reach(f, None);
        let mut live_in = vec![0u64; n * words];
        let mut out = vec![0u64; words];
        let mut changed = true;
        while changed {
            changed = false;
            // Reverse block order approximates postorder, the fast
            // direction for backward flow; the fixpoint does not depend
            // on it.
            for b in (0..n).rev().filter(|&b| reachable[b]) {
                out.fill(0);
                for s in successors(f.block(BlockId(b as u32)), n) {
                    for (o, x) in out.iter_mut().zip(&live_in[s * words..(s + 1) * words]) {
                        *o |= x;
                    }
                }
                for (k, o) in out.iter().enumerate() {
                    let i = b * words + k;
                    let v = (o & !def[i]) | use_[i];
                    if v != live_in[i] {
                        live_in[i] = v;
                        changed = true;
                    }
                }
            }
        }
        Self { words, live_in }
    }

    /// Is `reg` live at the entry of `b`?
    pub(crate) fn live_in_at(&self, b: BlockId, reg: VReg) -> bool {
        let w = reg.0 as usize / 64;
        w < self.words
            && self
                .live_in
                .get(b.index() * self.words + w)
                .is_some_and(|x| x & (1u64 << (reg.0 % 64)) != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvgnn_ir::inst::BinOp;
    use mvgnn_ir::module::FuncId;
    use mvgnn_ir::types::Ty;
    use mvgnn_ir::{FunctionBuilder, Module};

    fn accumulator_loop() -> (Module, FuncId, VReg, BlockId) {
        // acc = 0; for i in 0..8 { acc = acc + a[i] }; ret acc
        let mut m = Module::new("t");
        let a = m.add_array("a", Ty::F64, 8);
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let (lo, hi, st) = (b.const_i64(0), b.const_i64(8), b.const_i64(1));
        let acc = b.const_f64(0.0);
        let l = b.for_loop(lo, hi, st, |b, iv| {
            let x = b.load(a, iv);
            b.bin_to(acc, BinOp::Add, acc, x);
        });
        b.ret(Some(acc));
        let f = b.finish();
        let header = m.funcs[f.index()].loops[l.index()].header;
        (m, f, acc, header)
    }

    #[test]
    fn bitset_basics() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(129), "second insert is a no-op");
        assert!(s.contains(0) && s.contains(129) && !s.contains(64));
        assert!(!s.contains(130), "out of the universe");
        let mut t = BitSet::new(130);
        t.insert(64);
        assert!(s.union_with(&t));
        assert!(!s.union_with(&t), "idempotent");
        s.subtract(&t);
        assert!(!s.contains(64));
        assert!(s.contains(0) && s.contains(129));
    }

    #[test]
    fn accumulator_is_live_around_the_loop() {
        let (m, f, acc, header) = accumulator_loop();
        let func = &m.funcs[f.index()];
        let live = liveness(func, &Cfg::new(func));
        // The accumulator's value crosses iterations: live into the header.
        assert!(live.live_in_at(header, acc));
    }

    #[test]
    fn body_temp_is_not_live_into_header() {
        // t = a[i]; b[i] = t * t — t dies within the iteration.
        let mut m = Module::new("t");
        let a = m.add_array("a", Ty::F64, 8);
        let out = m.add_array("b", Ty::F64, 8);
        let mut bld = FunctionBuilder::new(&mut m, "main", 0);
        let (lo, hi, st) = (bld.const_i64(0), bld.const_i64(8), bld.const_i64(1));
        let mut t_reg = None;
        let l = bld.for_loop(lo, hi, st, |b, iv| {
            let x = b.load(a, iv);
            t_reg = Some(x);
            let y = b.bin(BinOp::Mul, x, x);
            b.store(out, iv, y);
        });
        let f = bld.finish();
        let header = m.funcs[f.index()].loops[l.index()].header;
        let func = &m.funcs[f.index()];
        let live = liveness(func, &Cfg::new(func));
        assert!(!live.live_in_at(header, t_reg.unwrap()));
    }

    #[test]
    fn flat_liveness_and_dominance_walk_match_the_cfg_analyses() {
        use mvgnn_dataset::generate_suite;
        use mvgnn_ir::transform::{optimize, OptLevel};
        use mvgnn_ir::Dominators;
        let mut walk = Walk::default();
        let mut checked = 0usize;
        for app in generate_suite(None, 3).iter().take(6) {
            for level in [OptLevel::O0, OptLevel::O3] {
                let m = optimize(&app.module, level);
                for f in &m.funcs {
                    let cfg = Cfg::new(f);
                    let (live, dom) = (liveness(f, &cfg), Dominators::compute(&cfg));
                    let flat = LiveSets::new(f, &mut walk);
                    for b in (0..f.num_blocks() as u32).map(BlockId) {
                        for r in (0..f.num_regs).map(VReg) {
                            assert_eq!(flat.live_in_at(b, r), live.live_in_at(b, r), "{b:?} {r:?}");
                        }
                        for a in (0..f.num_blocks() as u32).map(BlockId) {
                            assert_eq!(walk.dominates(f, a, b), dom.dominates(a, b), "{a:?} {b:?}");
                        }
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 100, "{checked} blocks");
    }
}
