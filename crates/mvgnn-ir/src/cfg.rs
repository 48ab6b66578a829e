//! Control-flow graph view of a function: successor/predecessor lists,
//! reverse postorder and dominators.
//!
//! Shared by the structural verifier (loop headers must dominate their
//! bodies) and by the `mvgnn-analyze` dataflow engine, which runs its
//! worklist solvers over this CFG.

use crate::inst::Inst;
use crate::module::{BlockId, Function};

/// Successor/predecessor lists of one function's basic blocks.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Successors per block (terminator targets, in branch order).
    pub succs: Vec<Vec<BlockId>>,
    /// Predecessors per block.
    pub preds: Vec<Vec<BlockId>>,
}

impl Cfg {
    /// Build the CFG of `f`. Blocks without a terminator (or whose
    /// terminator is `ret`) simply have no successors; out-of-range branch
    /// targets are skipped (the verifier reports those separately).
    pub fn new(f: &Function) -> Self {
        let n = f.num_blocks();
        let mut succs: Vec<Vec<BlockId>> = vec![Vec::new(); n];
        let mut preds: Vec<Vec<BlockId>> = vec![Vec::new(); n];
        for (b, blk) in f.blocks().enumerate() {
            let targets: Vec<BlockId> = match blk.terminator() {
                Some(Inst::Br { target }) => vec![*target],
                Some(Inst::CondBr { then_blk, else_blk, .. }) => vec![*then_blk, *else_blk],
                _ => vec![],
            };
            for t in targets {
                if t.index() < n {
                    succs[b].push(t);
                    preds[t.index()].push(BlockId(b as u32));
                }
            }
        }
        Self { succs, preds }
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.succs.len()
    }

    /// True when the function has no blocks.
    pub fn is_empty(&self) -> bool {
        self.succs.is_empty()
    }

    /// Reverse postorder over blocks reachable from the entry
    /// (`BlockId(0)`). Unreachable blocks are absent.
    pub fn reverse_postorder(&self) -> Vec<BlockId> {
        let n = self.len();
        let mut visited = vec![false; n];
        let mut post: Vec<BlockId> = Vec::with_capacity(n);
        // Iterative DFS with an explicit child cursor (post-order emit).
        let mut stack: Vec<(BlockId, usize)> = Vec::new();
        if n > 0 {
            visited[0] = true;
            stack.push((BlockId(0), 0));
        }
        while let Some(&mut (b, ref mut next)) = stack.last_mut() {
            let succ = self.succs[b.index()].get(*next).copied();
            *next += 1;
            match succ {
                Some(s) if !visited[s.index()] => {
                    visited[s.index()] = true;
                    stack.push((s, 0));
                }
                Some(_) => {}
                None => {
                    post.push(b);
                    stack.pop();
                }
            }
        }
        post.reverse();
        post
    }
}

/// Dominator sets computed by the classic iterative data-flow algorithm
/// (`dom(b) = {b} ∪ ⋂_{p ∈ preds(b)} dom(p)`). Blocks unreachable from
/// the entry keep the full set, the standard convention that makes them
/// vacuously dominated by everything.
#[derive(Debug, Clone)]
pub struct Dominators {
    words: usize,
    sets: Vec<Vec<u64>>,
}

impl Dominators {
    /// Compute dominators over `cfg`.
    pub fn compute(cfg: &Cfg) -> Self {
        let n = cfg.len();
        let words = n.div_ceil(64);
        let full = {
            let mut w = vec![u64::MAX; words];
            if !n.is_multiple_of(64) {
                if let Some(last) = w.last_mut() {
                    *last = (1u64 << (n % 64)) - 1;
                }
            }
            w
        };
        let mut sets: Vec<Vec<u64>> = vec![full; n];
        if n == 0 {
            return Self { words, sets };
        }
        sets[0] = vec![0u64; words];
        sets[0][0] = 1; // entry dominated only by itself
        let order = cfg.reverse_postorder();
        let mut changed = true;
        let mut scratch = vec![0u64; words];
        while changed {
            changed = false;
            for &b in &order {
                if b.index() == 0 {
                    continue;
                }
                scratch.copy_from_slice(&sets[b.index()]);
                let mut first = true;
                for p in &cfg.preds[b.index()] {
                    if first {
                        scratch.copy_from_slice(&sets[p.index()]);
                        first = false;
                    } else {
                        for (w, pw) in scratch.iter_mut().zip(&sets[p.index()]) {
                            *w &= pw;
                        }
                    }
                }
                if first {
                    // Reachable in RPO but no predecessor: only the entry,
                    // handled above; keep the current set.
                    continue;
                }
                scratch[b.index() / 64] |= 1u64 << (b.index() % 64);
                if scratch != sets[b.index()] {
                    sets[b.index()].copy_from_slice(&scratch);
                    changed = true;
                }
            }
        }
        Self { words, sets }
    }

    /// Does block `a` dominate block `b`?
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let _ = self.words;
        self.sets
            .get(b.index())
            .is_some_and(|s| s[a.index() / 64] & (1u64 << (a.index() % 64)) != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::BinOp;
    use crate::types::Ty;
    use crate::{FunctionBuilder, Module};

    fn diamond() -> Function {
        // 0 -> {1, 2} -> 3
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "f", 1);
        let p = b.param(0);
        let one = b.const_i64(1);
        let c = b.bin(BinOp::CmpLt, p, one);
        b.if_else(
            c,
            |b| {
                let _ = b.bin(BinOp::Add, p, p);
            },
            |b| {
                let _ = b.bin(BinOp::Sub, p, p);
            },
        );
        b.ret(None);
        let f = b.finish();
        m.funcs[f.index()].clone()
    }

    #[test]
    fn diamond_dominators() {
        let f = diamond();
        let cfg = Cfg::new(&f);
        let dom = Dominators::compute(&cfg);
        let entry = BlockId(0);
        for bi in 0..f.num_blocks() as u32 {
            assert!(dom.dominates(entry, BlockId(bi)), "entry dominates b{bi}");
            assert!(dom.dominates(BlockId(bi), BlockId(bi)), "b{bi} self-dominates");
        }
        // Neither arm dominates the join.
        let join = BlockId(f.num_blocks() as u32 - 1);
        assert!(!dom.dominates(BlockId(1), join));
        assert!(!dom.dominates(BlockId(2), join));
    }

    #[test]
    fn loop_header_dominates_body_and_latch() {
        let mut m = Module::new("t");
        let a = m.add_array("a", Ty::F64, 8);
        let mut b = FunctionBuilder::new(&mut m, "f", 0);
        let (lo, hi, st) = (b.const_i64(0), b.const_i64(8), b.const_i64(1));
        let one = b.const_f64(1.0);
        let l = b.for_loop(lo, hi, st, |b, iv| b.store(a, iv, one));
        let fid = b.finish();
        let f = &m.funcs[fid.index()];
        let info = &f.loops[l.index()];
        let cfg = Cfg::new(f);
        let dom = Dominators::compute(&cfg);
        for blk in f.loop_blocks(l) {
            assert!(dom.dominates(info.header, blk), "header must dominate {blk:?}");
        }
    }

    #[test]
    fn rpo_visits_reachable_blocks_once() {
        let f = diamond();
        let cfg = Cfg::new(&f);
        let rpo = cfg.reverse_postorder();
        assert_eq!(rpo[0], BlockId(0), "entry first");
        let mut seen = std::collections::HashSet::new();
        for b in &rpo {
            assert!(seen.insert(*b), "duplicate {b:?}");
        }
        assert_eq!(rpo.len(), f.num_blocks(), "all blocks reachable here");
    }

    #[test]
    fn unreachable_blocks_are_vacuously_dominated() {
        // The diamond with an unreachable block appended.
        let d = diamond();
        let mut blocks: Vec<Vec<(Inst, u32)>> = d
            .blocks()
            .map(|b| b.insts.iter().copied().zip(b.lines()).collect())
            .collect();
        blocks.push(vec![(Inst::Ret { val: None }, 9)]);
        let f = Function::new(d.name, d.arity, d.num_regs, blocks, Vec::new(), &[], &[]);
        let cfg = Cfg::new(&f);
        let dom = Dominators::compute(&cfg);
        let dead = BlockId(f.num_blocks() as u32 - 1);
        assert!(dom.dominates(BlockId(0), dead));
        assert!(dom.dominates(BlockId(3), dead));
        assert!(!cfg.reverse_postorder().contains(&dead));
    }
}
