//! Affine index expressions, per-loop access summaries and the
//! GCD/Banerjee-class conflict test.
//!
//! Hoisted out of `mvgnn-baselines::tools`, where it powered `pluto_like`
//! and `autopar_like`; the verdicts of those tools are pinned bit-for-bit
//! by `crates/mvgnn-baselines/tests/table3_pins.rs`, so any change here
//! must be behaviour-preserving for them.

use mvgnn_ir::inst::{BinOp, Inst, InstRef};
use mvgnn_ir::module::{BlockId, FuncId, Function, LoopId, LoopInfo, Module};
use mvgnn_ir::types::{ArrayId, VReg, Value};
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// Affine expression over induction registers, or unanalysable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AffineExpr {
    /// `constant + Σ coeffs[r]·r` over induction registers `r`.
    Affine {
        /// Constant term.
        constant: i64,
        /// Coefficient per induction register (keyed by register number;
        /// zero coefficients are never stored).
        coeffs: BTreeMap<u32, i64>,
    },
    /// Not an affine function of the induction registers.
    Unknown,
}

impl AffineExpr {
    /// The constant expression `c`.
    pub fn constant(c: i64) -> AffineExpr {
        AffineExpr::Affine { constant: c, coeffs: BTreeMap::new() }
    }

    /// The expression `1·reg`.
    pub fn var(reg: VReg) -> AffineExpr {
        let mut coeffs = BTreeMap::new();
        coeffs.insert(reg.0, 1);
        AffineExpr::Affine { constant: 0, coeffs }
    }

    /// `self + other` (or `self - other` when `negate`).
    pub fn add(&self, other: &AffineExpr, negate: bool) -> AffineExpr {
        match (self, other) {
            (
                AffineExpr::Affine { constant: c1, coeffs: k1 },
                AffineExpr::Affine { constant: c2, coeffs: k2 },
            ) => {
                let sign = if negate { -1 } else { 1 };
                let mut coeffs = k1.clone();
                for (&r, &c) in k2 {
                    *coeffs.entry(r).or_insert(0) += sign * c;
                }
                coeffs.retain(|_, &mut c| c != 0);
                AffineExpr::Affine { constant: c1 + sign * c2, coeffs }
            }
            _ => AffineExpr::Unknown,
        }
    }

    /// `self * other`; affine only when one side is constant.
    pub fn mul(&self, other: &AffineExpr) -> AffineExpr {
        match (self, other) {
            (AffineExpr::Affine { constant, coeffs }, rhs) if coeffs.is_empty() => {
                rhs.scale(*constant)
            }
            (lhs, AffineExpr::Affine { constant, coeffs }) if coeffs.is_empty() => {
                lhs.scale(*constant)
            }
            _ => AffineExpr::Unknown,
        }
    }

    /// `self * s`.
    pub fn scale(&self, s: i64) -> AffineExpr {
        match self {
            AffineExpr::Affine { constant, coeffs } => {
                let mut k: BTreeMap<u32, i64> =
                    coeffs.iter().map(|(&r, &c)| (r, c * s)).collect();
                k.retain(|_, &mut c| c != 0);
                AffineExpr::Affine { constant: constant * s, coeffs: k }
            }
            AffineExpr::Unknown => AffineExpr::Unknown,
        }
    }
}

/// One static memory access in a loop body.
#[derive(Debug, Clone)]
pub struct Access {
    /// Accessed array.
    pub arr: ArrayId,
    /// Index expression in terms of induction registers.
    pub index: AffineExpr,
    /// `true` for stores.
    pub is_write: bool,
    /// Block holding the instruction.
    pub block: BlockId,
    /// Index of the instruction within its block.
    pub idx_in_block: usize,
}

impl Access {
    /// Global reference to the access instruction.
    pub fn inst_ref(&self, func: FuncId) -> InstRef {
        InstRef { func, block: self.block, idx: self.idx_in_block as u32 }
    }
}

/// Static summary of a loop body.
#[derive(Debug, Clone)]
pub struct LoopSummary {
    /// Memory accesses inside the loop, in block order.
    pub accesses: Vec<Access>,
    /// At least one call instruction inside the loop.
    pub has_call: bool,
    /// Self-updating registers (`r = r ⊕ x`, `r` not an induction) with a
    /// commutative update op, in register order.
    pub commutative_recs: BTreeSet<VReg>,
    /// Self-updating registers with a non-commutative update op, in
    /// register order.
    pub noncommutative_recs: BTreeSet<VReg>,
}

/// Dense per-register facts of one function, gathered in one pass over
/// its instructions: definition counts, the values of single-def
/// constants, and which registers are loop inductions.
#[derive(Debug)]
pub(crate) struct RegTables {
    def_count: Vec<u32>,
    consts: Vec<Option<Value>>,
    induction: Vec<bool>,
}

impl RegTables {
    pub(crate) fn new(f: &Function) -> Self {
        let n = f.num_regs as usize;
        let mut t =
            Self { def_count: vec![0; n], consts: vec![None; n], induction: vec![false; n] };
        for inst in f.blocks.iter().flat_map(|b| &b.insts) {
            if let Some(d) = inst.def() {
                let i = t.slot(d);
                t.def_count[i] += 1;
                if let Inst::Const { value, .. } = inst {
                    t.consts[i] = Some(*value);
                }
            }
        }
        for (c, &n) in t.consts.iter_mut().zip(&t.def_count) {
            if n != 1 {
                *c = None;
            }
        }
        for iv in f.loops.iter().filter_map(|i| i.induction) {
            let i = t.slot(iv);
            t.induction[i] = true;
        }
        t
    }

    /// Table index of `r`, growing the tables for a register past
    /// `num_regs` (unverified IR) instead of panicking.
    fn slot(&mut self, r: VReg) -> usize {
        let i = r.0 as usize;
        if i >= self.def_count.len() {
            self.def_count.resize(i + 1, 0);
            self.consts.resize(i + 1, None);
            self.induction.resize(i + 1, false);
        }
        i
    }

    /// Table length: every defined register and induction is below it.
    pub(crate) fn len(&self) -> usize {
        self.def_count.len()
    }

    /// Number of instructions defining `r`.
    pub(crate) fn defs(&self, r: VReg) -> u32 {
        self.def_count.get(r.0 as usize).copied().unwrap_or(0)
    }

    /// Value of `r` when a single `Const` defines it.
    pub(crate) fn const_val(&self, r: VReg) -> Option<Value> {
        self.consts.get(r.0 as usize).copied().flatten()
    }

    /// Integer value of `r` when a single `Const` defines it.
    pub(crate) fn const_i64(&self, r: VReg) -> Option<i64> {
        self.const_val(r).and_then(Value::as_i64)
    }

    /// Is `r` the induction register of some loop of the function?
    pub(crate) fn is_induction(&self, r: VReg) -> bool {
        self.induction.get(r.0 as usize).copied().unwrap_or(false)
    }
}

/// Membership mask over `f.blocks` of a loop's header, body and latch.
pub(crate) fn loop_mask(f: &Function, info: &LoopInfo) -> Vec<bool> {
    let mut mask = vec![false; f.blocks.len()];
    for b in info.body.iter().chain([&info.header, &info.latch]) {
        if let Some(m) = mask.get_mut(b.index()) {
            *m = true;
        }
    }
    mask
}

/// The blocks of `f` selected by `mask`, in block order.
pub(crate) fn masked_blocks<'f>(
    f: &'f Function,
    mask: &'f [bool],
) -> impl Iterator<Item = (BlockId, &'f mvgnn_ir::module::Block)> + 'f {
    f.blocks
        .iter()
        .enumerate()
        .filter(|&(bi, _)| mask[bi])
        .map(|(bi, blk)| (BlockId(bi as u32), blk))
}

/// Summarise loop `l` of `func`: symbolically evaluate index expressions
/// over induction registers and collect the loop's memory accesses, calls
/// and scalar recurrences.
///
/// Walks the whole function in block order so values defined before the
/// loop (bounds, constants, strides) are known; accesses are recorded only
/// inside the loop's blocks.
pub fn summarize_loop(module: &Module, func: FuncId, l: LoopId) -> LoopSummary {
    let f = &module.funcs[func.index()];
    summarize(f, &loop_mask(f, &f.loops[l.index()]), &RegTables::new(f), false)
}

/// [`summarize_loop`] with every multiply-defined non-induction register
/// treated as [`AffineExpr::Unknown`] at *all* of its definition sites.
///
/// The plain walk is flow-insensitive (last definition wins), which
/// reproduces how the modelled static tools behave — e.g. a conditionally
/// reassigned index register looks like its final assignment. That is
/// fine for a tool model but unsound for a *proof*: the dependence
/// oracle uses this variant, where a register with two reaching
/// definitions can never pretend to be affine.
pub fn summarize_loop_strict(module: &Module, func: FuncId, l: LoopId) -> LoopSummary {
    let f = &module.funcs[func.index()];
    summarize(f, &loop_mask(f, &f.loops[l.index()]), &RegTables::new(f), true)
}

/// The summary walk over `f` for the loop whose blocks `in_loop` marks.
pub(crate) fn summarize(
    f: &Function,
    in_loop: &[bool],
    regs: &RegTables,
    strict: bool,
) -> LoopSummary {
    let is_iv = |r: VReg| regs.is_induction(r);
    let mut sym: Vec<AffineExpr> = (0..regs.len())
        .map(|r| {
            let r = VReg(r as u32);
            if is_iv(r) {
                AffineExpr::var(r)
            } else {
                AffineExpr::Unknown
            }
        })
        .collect();
    let lookup =
        |sym: &[AffineExpr], r: VReg| sym.get(r.0 as usize).cloned().unwrap_or(AffineExpr::Unknown);
    // Under `strict`, a non-induction register with several definitions is
    // opaque everywhere; derived values go Unknown transitively through
    // the normal lookup path.
    let opaque = |r: VReg| strict && regs.defs(r) > 1 && !is_iv(r);

    let mut summary = LoopSummary {
        accesses: Vec::new(),
        has_call: false,
        commutative_recs: BTreeSet::new(),
        noncommutative_recs: BTreeSet::new(),
    };

    for (bi, blk) in f.blocks.iter().enumerate() {
        let bid = BlockId(bi as u32);
        let inside = in_loop[bi];
        for (ii, inst) in blk.insts.iter().enumerate() {
            match inst {
                Inst::Const { dst, value } if !is_iv(*dst) => {
                    let s = if opaque(*dst) {
                        AffineExpr::Unknown
                    } else {
                        value.as_i64().map(AffineExpr::constant).unwrap_or(AffineExpr::Unknown)
                    };
                    sym[dst.0 as usize] = s;
                }
                Inst::Copy { dst, src } if !is_iv(*dst) => {
                    let s = if opaque(*dst) { AffineExpr::Unknown } else { lookup(&sym, *src) };
                    sym[dst.0 as usize] = s;
                }
                Inst::Bin { op, dst, lhs, rhs } => {
                    if inside && (*dst == *lhs || *dst == *rhs) && !is_iv(*dst) {
                        if matches!(op, BinOp::Add | BinOp::Mul | BinOp::Min | BinOp::Max) {
                            summary.commutative_recs.insert(*dst);
                        } else {
                            summary.noncommutative_recs.insert(*dst);
                        }
                    }
                    if !is_iv(*dst) {
                        let a = lookup(&sym, *lhs);
                        let b = lookup(&sym, *rhs);
                        let s = if regs.defs(*dst) > 1 {
                            AffineExpr::Unknown
                        } else {
                            match op {
                                BinOp::Add => a.add(&b, false),
                                BinOp::Sub => a.add(&b, true),
                                BinOp::Mul => a.mul(&b),
                                _ => AffineExpr::Unknown,
                            }
                        };
                        sym[dst.0 as usize] = s;
                    }
                }
                Inst::Un { dst, .. } if !is_iv(*dst) => {
                    sym[dst.0 as usize] = AffineExpr::Unknown;
                }
                Inst::Load { dst, arr, idx } => {
                    if inside {
                        summary.accesses.push(Access {
                            arr: *arr,
                            index: lookup(&sym, *idx),
                            is_write: false,
                            block: bid,
                            idx_in_block: ii,
                        });
                    }
                    if !is_iv(*dst) {
                        sym[dst.0 as usize] = AffineExpr::Unknown;
                    }
                }
                Inst::Store { arr, idx, .. } if inside => {
                    summary.accesses.push(Access {
                        arr: *arr,
                        index: lookup(&sym, *idx),
                        is_write: true,
                        block: bid,
                        idx_in_block: ii,
                    });
                }
                Inst::Call { dst, .. } => {
                    if inside {
                        summary.has_call = true;
                    }
                    if let Some(d) = dst {
                        sym[d.0 as usize] = AffineExpr::Unknown;
                    }
                }
                _ => {}
            }
        }
    }
    summary
}

pub(crate) fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Does a pair of accesses conflict across iterations of the loop whose
/// induction register is `iv`? Conservative: `true` unless provably safe.
///
/// ZIV on coefficient-free pairs, strong-SIV on equal coefficients, GCD
/// test on distinct ones; coefficients on any other register must match
/// exactly or the pair is conservatively conflicting.
pub fn conflicts(iv: VReg, a: &Access, b: &Access) -> bool {
    let (
        AffineExpr::Affine { constant: c1, coeffs: k1 },
        AffineExpr::Affine { constant: c2, coeffs: k2 },
    ) = (&a.index, &b.index)
    else {
        return true; // unanalysable index
    };
    let a_iv = k1.get(&iv.0).copied().unwrap_or(0);
    let b_iv = k2.get(&iv.0).copied().unwrap_or(0);
    // Remaining symbols (outer/inner loop ivs) must match coefficient-wise;
    // otherwise be conservative.
    let strip = |k: &BTreeMap<u32, i64>| -> BTreeMap<u32, i64> {
        k.iter().filter(|&(&r, _)| r != iv.0).map(|(&r, &c)| (r, c)).collect()
    };
    if strip(k1) != strip(k2) {
        return true;
    }
    let dc = c2 - c1;
    match (a_iv, b_iv) {
        (0, 0) => dc == 0, // same fixed cell touched every iteration
        (x, y) if x == y => {
            // a(i1 - i2) = dc: carried iff a nonzero distance exists.
            dc != 0 && dc % x == 0
        }
        (x, y) => {
            // x·i1 − y·i2 = dc solvable (GCD test) — conservative on
            // distinct coefficients.
            let g = gcd(x, y);
            g != 0 && dc % g == 0
        }
    }
}

/// One recognised memory reduction chain `a[x] = a[x] ⊕ v` inside a loop:
/// the store, the commutative `Bin` feeding it, and every load of the
/// same cell that feeds the `Bin`.
#[derive(Debug, Clone)]
pub struct ReductionChain {
    /// The chain's store instruction.
    pub store: InstRef,
    /// The commutative update producing the stored value.
    pub bin: InstRef,
    /// Loads of the same cell feeding the update (same block).
    pub loads: Vec<InstRef>,
}

impl ReductionChain {
    /// All instruction references participating in the chain.
    pub fn refs(&self) -> impl Iterator<Item = InstRef> + '_ {
        [self.store, self.bin].into_iter().chain(self.loads.iter().copied())
    }
}

/// Memory reduction chains of loop `l`: stores whose value flows through
/// a commutative op from a load of the same array and index register (or
/// a constant-equal index register) in the same block.
pub fn reduction_chains(module: &Module, func: FuncId, l: LoopId) -> Vec<ReductionChain> {
    let f = &module.funcs[func.index()];
    chains(f, func, &loop_mask(f, &f.loops[l.index()]), &RegTables::new(f))
}

/// [`reduction_chains`] over the blocks `in_loop` marks.
pub(crate) fn chains(
    f: &Function,
    func: FuncId,
    in_loop: &[bool],
    regs: &RegTables,
) -> Vec<ReductionChain> {
    let mut out = Vec::new();
    for (bid, blk) in masked_blocks(f, in_loop) {
        for (si, inst) in blk.insts.iter().enumerate() {
            let Inst::Store { arr, idx, src } = inst else { continue };
            // Find the defining instruction of the stored value: it must be
            // a commutative Bin for the store to head a chain.
            let mut bin_at: Option<(usize, VReg, VReg)> = None;
            for (pi, prev) in blk.insts[..si].iter().enumerate().rev() {
                if prev.def() == Some(*src) {
                    if let Inst::Bin { op, lhs, rhs, .. } = prev {
                        if matches!(op, BinOp::Add | BinOp::Mul | BinOp::Min | BinOp::Max) {
                            bin_at = Some((pi, *lhs, *rhs));
                        }
                    }
                    break;
                }
            }
            let Some((bin_idx, lhs, rhs)) = bin_at else { continue };
            // Same cell: the same index register, or two single-def
            // constants (front-ends emit one per literal) of equal value.
            let loads: Vec<InstRef> = blk.insts[..si]
                .iter()
                .enumerate()
                .filter(|(_, p)| {
                    matches!(p, Inst::Load { dst, arr: la, idx: li }
                        if (dst == &lhs || dst == &rhs) && la == arr
                            && (li == idx
                                || matches!(
                                    (regs.const_val(*li), regs.const_val(*idx)),
                                    (Some(x), Some(y)) if x == y)))
                })
                .map(|(pi, _)| InstRef { func, block: bid, idx: pi as u32 })
                .collect();
            if !loads.is_empty() {
                out.push(ReductionChain {
                    store: InstRef { func, block: bid, idx: si as u32 },
                    bin: InstRef { func, block: bid, idx: bin_idx as u32 },
                    loads,
                });
            }
        }
    }
    out
}

/// The `(block, index-in-block)` sites of reduction stores in loop `l` —
/// the shape `autopar_like` keys its tolerated-conflict set on.
pub fn reduction_store_sites(
    module: &Module,
    func: FuncId,
    l: LoopId,
) -> HashSet<(BlockId, usize)> {
    reduction_chains(module, func, l)
        .iter()
        .map(|c| (c.store.block, c.store.idx as usize))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvgnn_ir::types::Ty;
    use mvgnn_ir::{FunctionBuilder, Module};

    #[test]
    fn affine_algebra() {
        let i = AffineExpr::var(VReg(3));
        let two = AffineExpr::constant(2);
        let e = i.mul(&two).add(&AffineExpr::constant(5), false); // 2i + 5
        match &e {
            AffineExpr::Affine { constant, coeffs } => {
                assert_eq!(*constant, 5);
                assert_eq!(coeffs.get(&3), Some(&2));
            }
            AffineExpr::Unknown => panic!("expected affine"),
        }
        // i - i collapses to the constant 0 with no coefficients.
        assert_eq!(i.add(&i, true), AffineExpr::constant(0));
        // i * i is not affine.
        assert_eq!(i.mul(&i), AffineExpr::Unknown);
    }

    #[test]
    fn summary_and_conflicts_on_a_map_loop() {
        let mut m = Module::new("t");
        let a = m.add_array("a", Ty::F64, 16);
        let out = m.add_array("b", Ty::F64, 16);
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let (lo, hi, st) = (b.const_i64(0), b.const_i64(16), b.const_i64(1));
        let l = b.for_loop(lo, hi, st, |b, iv| {
            let x = b.load(a, iv);
            let y = b.bin(BinOp::Mul, x, x);
            b.store(out, iv, y);
        });
        let f = b.finish();
        let iv = m.funcs[f.index()].loops[l.index()].induction.unwrap();
        let s = summarize_loop(&m, f, l);
        assert_eq!(s.accesses.len(), 2);
        assert!(!s.has_call);
        assert!(s.commutative_recs.is_empty());
        let w = s.accesses.iter().find(|a| a.is_write).unwrap();
        // a[i] vs b[i]: different arrays — callers skip those; same-array
        // self-pair w vs w is distance 0 (strong SIV, no carried conflict).
        assert!(!conflicts(iv, w, w));
    }

    #[test]
    fn reduction_chain_is_recognised_with_refs() {
        let mut m = Module::new("t");
        let a = m.add_array("a", Ty::F64, 16);
        let s = m.add_array("s", Ty::F64, 1);
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let (lo, hi, st) = (b.const_i64(0), b.const_i64(16), b.const_i64(1));
        let zero = b.const_i64(0);
        let l = b.for_loop(lo, hi, st, |b, iv| {
            let x = b.load(a, iv);
            let cur = b.load(s, zero);
            let nxt = b.bin(BinOp::Add, cur, x);
            b.store(s, zero, nxt);
        });
        let f = b.finish();
        let chains = reduction_chains(&m, f, l);
        assert_eq!(chains.len(), 1);
        let c = &chains[0];
        assert_eq!(c.loads.len(), 1, "only the s[0] load joins the chain");
        assert!(c.store.idx > c.bin.idx && c.bin.idx > c.loads[0].idx);
        assert_eq!(
            reduction_store_sites(&m, f, l),
            [(c.store.block, c.store.idx as usize)].into_iter().collect()
        );
    }

    #[test]
    fn strict_walk_rejects_conditionally_reassigned_index() {
        // j = 0; if (a[i] < 1) j = i; dst[j] = src[i] — the guarded
        // scatter shape. Flow-insensitively j looks like `i` (the last
        // write), which is what the modelled tools see; the strict walk
        // must refuse to call the write index affine.
        let mut m = Module::new("t");
        let key = m.add_array("k", Ty::F64, 16);
        let src = m.add_array("s", Ty::F64, 16);
        let dst = m.add_array("d", Ty::F64, 16);
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let t = b.const_f64(1.0);
        let z = b.const_i64(0);
        let (lo, hi, st) = (b.const_i64(0), b.const_i64(16), b.const_i64(1));
        let l = b.for_loop(lo, hi, st, |b, iv| {
            let k = b.load(key, iv);
            let c = b.bin(BinOp::CmpLt, k, t);
            let j = b.copy(z);
            b.if_then(c, |b| b.copy_to(j, iv));
            let v = b.load(src, iv);
            b.store(dst, j, v);
        });
        let f = b.finish();
        let iv = m.funcs[f.index()].loops[l.index()].induction.unwrap();
        let write = |s: &LoopSummary| s.accesses.iter().find(|a| a.is_write).unwrap().clone();
        let plain = write(&summarize_loop(&m, f, l));
        assert_eq!(plain.index, AffineExpr::var(iv), "tool model sees the last write");
        let strict = write(&summarize_loop_strict(&m, f, l));
        assert_eq!(strict.index, AffineExpr::Unknown, "proof mode must not");
    }

    #[test]
    fn carried_distance_conflicts() {
        // a[i] write vs a[i-1] read: distance 1, carried.
        let acc = |c: i64, coeff: i64, write: bool| Access {
            arr: ArrayId(0),
            index: AffineExpr::var(VReg(7)).scale(coeff).add(&AffineExpr::constant(c), false),
            is_write: write,
            block: BlockId(0),
            idx_in_block: 0,
        };
        let iv = VReg(7);
        assert!(conflicts(iv, &acc(0, 1, true), &acc(-1, 1, false)));
        // Stride-2 write vs odd-offset read: GCD test proves independence.
        assert!(!conflicts(iv, &acc(0, 2, true), &acc(1, 2, false)));
        // Same fixed cell every iteration.
        assert!(conflicts(iv, &acc(0, 0, true), &acc(0, 0, false)));
        // Distinct fixed cells never meet.
        assert!(!conflicts(iv, &acc(0, 0, true), &acc(1, 0, false)));
    }
}
