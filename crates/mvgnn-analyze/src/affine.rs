//! Affine index expressions, per-loop access summaries and the
//! GCD/Banerjee-class conflict test.
//!
//! Hoisted out of `mvgnn-baselines::tools`, where it powered `pluto_like`
//! and `autopar_like`; the verdicts of those tools are pinned bit-for-bit
//! by `crates/mvgnn-baselines/tests/table3_pins.rs`, so any change here
//! must be behaviour-preserving for them.

use mvgnn_ir::inst::{BinOp, Inst, InstRef};
use mvgnn_ir::module::{Block, BlockId, FuncId, Function, LoopId, LoopInfo, Module};
use mvgnn_ir::types::{ArrayId, VReg, Value};
use std::collections::{BTreeSet, HashSet};
use std::fmt;

/// Affine expression over induction registers, or unanalysable.
///
/// Arithmetic is checked: an operation whose constant or any coefficient
/// would leave `i64` yields [`AffineExpr::Unknown`], exactly where plain
/// `i64` arithmetic would overflow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AffineExpr {
    /// `constant + Σ coeffs[r]·r` over induction registers `r`.
    Affine {
        /// Constant term.
        constant: i64,
        /// Coefficient per induction register (keyed by register number;
        /// zero coefficients are never stored).
        coeffs: Coeffs,
    },
    /// Not an affine function of the induction registers.
    Unknown,
}

/// Inline capacity of [`Coeffs`]: the most induction registers one
/// function of the generated suites holds (a depth-3 nest). Longer
/// expressions spill to the heap; none turns `Unknown` for its length.
const INLINE_TERMS: usize = 3;

/// The `(register, coefficient)` terms of an affine expression, sorted by
/// register, never holding a zero coefficient. Up to three terms are
/// stored inline, so building, cloning and combining the expressions of
/// ordinary loop nests never touches the heap.
#[derive(Clone)]
pub struct Coeffs(Terms);

#[derive(Clone)]
enum Terms {
    Inline { len: u8, terms: [(u32, i64); INLINE_TERMS] },
    Spilled(Vec<(u32, i64)>),
}

impl Coeffs {
    /// No terms.
    pub fn new() -> Self {
        Coeffs(Terms::Inline { len: 0, terms: [(0, 0); INLINE_TERMS] })
    }

    /// The terms in ascending register order.
    pub fn as_slice(&self) -> &[(u32, i64)] {
        match &self.0 {
            Terms::Inline { len, terms } => &terms[..usize::from(*len)],
            Terms::Spilled(v) => v,
        }
    }

    /// The terms in ascending register order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, i64)> + '_ {
        self.as_slice().iter().copied()
    }

    /// Coefficient of register `reg`, if nonzero.
    pub fn get(&self, reg: u32) -> Option<i64> {
        self.iter().find(|&(r, _)| r == reg).map(|(_, c)| c)
    }

    /// Number of terms.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True when the expression is a constant.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Equal on every register but `reg`.
    pub fn eq_except(&self, other: &Coeffs, reg: u32) -> bool {
        fn others(k: &Coeffs, reg: u32) -> impl Iterator<Item = (u32, i64)> + '_ {
            k.iter().filter(move |t| t.0 != reg)
        }
        others(self, reg).eq(others(other, reg))
    }

    /// Append a term; registers must arrive in ascending order. Zero
    /// coefficients are dropped.
    fn push(&mut self, reg: u32, c: i64) {
        if c == 0 {
            return;
        }
        match &mut self.0 {
            Terms::Inline { len, terms } if usize::from(*len) < INLINE_TERMS => {
                terms[usize::from(*len)] = (reg, c);
                *len += 1;
            }
            Terms::Inline { terms, .. } => {
                let mut v = Vec::with_capacity(2 * INLINE_TERMS);
                v.extend_from_slice(terms);
                v.push((reg, c));
                self.0 = Terms::Spilled(v);
            }
            Terms::Spilled(v) => v.push((reg, c)),
        }
    }

    /// `self + sign·other`, term by term; `None` on overflow.
    fn combine(&self, other: &Coeffs, sign: i64) -> Option<Coeffs> {
        let (a, b) = (self.as_slice(), other.as_slice());
        let mut out = Coeffs::new();
        let (mut i, mut j) = (0, 0);
        while i < a.len() || j < b.len() {
            let (ra, rb) = (a.get(i).map(|t| t.0), b.get(j).map(|t| t.0));
            match (ra, rb) {
                (Some(x), Some(y)) if x == y => {
                    out.push(x, a[i].1.checked_add(b[j].1.checked_mul(sign)?)?);
                    i += 1;
                    j += 1;
                }
                (Some(x), Some(y)) if x < y => {
                    out.push(x, a[i].1);
                    i += 1;
                }
                (Some(x), None) => {
                    out.push(x, a[i].1);
                    i += 1;
                }
                (_, Some(y)) => {
                    out.push(y, b[j].1.checked_mul(sign)?);
                    j += 1;
                }
                (None, None) => break,
            }
        }
        Some(out)
    }

    /// `s·self`; `None` on overflow.
    fn scaled(&self, s: i64) -> Option<Coeffs> {
        let mut out = Coeffs::new();
        for (r, c) in self.iter() {
            out.push(r, c.checked_mul(s)?);
        }
        Some(out)
    }
}

impl Default for Coeffs {
    fn default() -> Self {
        Self::new()
    }
}

impl PartialEq for Coeffs {
    fn eq(&self, other: &Coeffs) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Coeffs {}

impl fmt::Debug for Coeffs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl AffineExpr {
    /// The constant expression `c`.
    pub fn constant(c: i64) -> AffineExpr {
        AffineExpr::Affine { constant: c, coeffs: Coeffs::new() }
    }

    /// The expression `1·reg`.
    pub fn var(reg: VReg) -> AffineExpr {
        let mut coeffs = Coeffs::new();
        coeffs.push(reg.0, 1);
        AffineExpr::Affine { constant: 0, coeffs }
    }

    /// `self + other` (or `self - other` when `negate`).
    pub fn add(&self, other: &AffineExpr, negate: bool) -> AffineExpr {
        let (
            AffineExpr::Affine { constant: c1, coeffs: k1 },
            AffineExpr::Affine { constant: c2, coeffs: k2 },
        ) = (self, other)
        else {
            return AffineExpr::Unknown;
        };
        let sign = if negate { -1 } else { 1 };
        let sum = || {
            let constant = c1.checked_add(c2.checked_mul(sign)?)?;
            Some(AffineExpr::Affine { constant, coeffs: k1.combine(k2, sign)? })
        };
        sum().unwrap_or(AffineExpr::Unknown)
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
        let AffineExpr::Affine { constant, coeffs } = self else {
            return AffineExpr::Unknown;
        };
        let product =
            || Some(AffineExpr::Affine { constant: constant.checked_mul(s)?, coeffs: coeffs.scaled(s)? });
        product().unwrap_or(AffineExpr::Unknown)
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

/// What one function's instructions say about a register.
#[derive(Debug, Clone)]
struct RegInfo {
    /// Number of instructions defining it.
    defs: u32,
    /// The value of its last `Const` definition (kept only when that is
    /// its single definition).
    konst: Option<Value>,
    /// It is the induction register of some loop.
    induction: bool,
    /// Its value as far as [`index_walk`] has got.
    sym: AffineExpr,
}

/// Dense per-register facts of one function, gathered in one pass over
/// its instructions: definition counts, the values of single-def
/// constants, which registers are loop inductions, and the registers'
/// symbolic values for [`index_walk`].
#[derive(Debug)]
pub(crate) struct RegTables {
    regs: Vec<RegInfo>,
    /// Loads and stores in the function.
    mem_insts: usize,
}

impl RegTables {
    pub(crate) fn new(f: &Function) -> Self {
        let blank = RegInfo { defs: 0, konst: None, induction: false, sym: AffineExpr::Unknown };
        let mut t = Self { regs: vec![blank; f.num_regs as usize], mem_insts: 0 };
        for inst in f.insts() {
            t.mem_insts += usize::from(inst.memory_effect().is_some());
            if let Some(d) = inst.def() {
                let r = t.slot(d);
                r.defs += 1;
                if let Some(v) = inst.const_value() {
                    r.konst = Some(v);
                }
            }
        }
        for r in &mut t.regs {
            if r.defs != 1 {
                r.konst = None;
            }
        }
        for iv in f.loops.iter().filter_map(|i| i.induction) {
            t.slot(iv).induction = true;
        }
        t
    }

    /// Table entry of `r`, growing the table for a register past
    /// `num_regs` (unverified IR) instead of panicking.
    fn slot(&mut self, r: VReg) -> &mut RegInfo {
        let i = r.0 as usize;
        if i >= self.regs.len() {
            let blank =
                RegInfo { defs: 0, konst: None, induction: false, sym: AffineExpr::Unknown };
            self.regs.resize(i + 1, blank);
        }
        &mut self.regs[i]
    }

    /// Number of loads and stores in the function.
    pub(crate) fn mem_insts(&self) -> usize {
        self.mem_insts
    }

    /// Number of instructions defining `r`.
    pub(crate) fn defs(&self, r: VReg) -> u32 {
        self.regs.get(r.0 as usize).map_or(0, |i| i.defs)
    }

    /// Value of `r` when a single `Const` defines it.
    pub(crate) fn const_val(&self, r: VReg) -> Option<Value> {
        self.regs.get(r.0 as usize).and_then(|i| i.konst)
    }

    /// Integer value of `r` when a single `Const` defines it.
    pub(crate) fn const_i64(&self, r: VReg) -> Option<i64> {
        self.const_val(r).and_then(Value::as_i64)
    }

    /// Is `r` the induction register of some loop of the function?
    pub(crate) fn is_induction(&self, r: VReg) -> bool {
        self.regs.get(r.0 as usize).is_some_and(|i| i.induction)
    }

    /// The walk's current value of `r`.
    fn sym(&self, r: VReg) -> &AffineExpr {
        self.regs.get(r.0 as usize).map_or(&AffineExpr::Unknown, |i| &i.sym)
    }
}

/// Fill `mask` with the membership of `f.blocks` in a loop's header,
/// body and latch.
pub(crate) fn fill_loop_mask(f: &Function, info: &LoopInfo, mask: &mut Vec<bool>) {
    mask.clear();
    mask.resize(f.num_blocks(), false);
    for b in f.loop_body(info).chain([info.header, info.latch]) {
        if let Some(m) = mask.get_mut(b.index()) {
            *m = true;
        }
    }
}

/// Membership mask over `f.blocks` of a loop's header, body and latch.
pub(crate) fn loop_mask(f: &Function, info: &LoopInfo) -> Vec<bool> {
    let mut mask = Vec::new();
    fill_loop_mask(f, info, &mut mask);
    mask
}

/// The blocks of `f` selected by `mask`, in block order.
pub(crate) fn masked_blocks<'f>(
    f: &'f Function,
    mask: &'f [bool],
) -> impl Iterator<Item = (BlockId, Block<'f>)> + 'f {
    f.blocks()
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
    summary_of(module, func, l, false)
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
    summary_of(module, func, l, true)
}

fn summary_of(module: &Module, func: FuncId, l: LoopId, strict: bool) -> LoopSummary {
    let f = &module.funcs[func.index()];
    let mut regs = RegTables::new(f);
    let mut all = Vec::with_capacity(regs.mem_insts());
    index_walk(f, &mut regs, strict, &mut all);
    let in_loop = loop_mask(f, &f.loops[l.index()]);
    let mut recs = Vec::new();
    let has_call = loop_updates(f, &in_loop, &regs, &mut recs);
    LoopSummary {
        accesses: all.into_iter().filter(|a| in_loop[a.block.index()]).collect(),
        has_call,
        commutative_recs: recs.iter().filter(|r| r.0).map(|r| r.1).collect(),
        noncommutative_recs: recs.iter().filter(|r| !r.0).map(|r| r.1).collect(),
    }
}

/// The symbolic walk over every instruction of `f`, in block order: each
/// register takes the affine value of its last definition so far, and
/// every load and store is pushed onto `accesses` with the value of its
/// index register at that point. Under `strict`, a non-induction
/// register with several definitions is opaque at all of them.
///
/// The values depend on the function alone, so one walk serves every
/// loop: a loop's accesses are the ones in its blocks.
pub(crate) fn index_walk(
    f: &Function,
    regs: &mut RegTables,
    strict: bool,
    accesses: &mut Vec<Access>,
) {
    for (i, r) in regs.regs.iter_mut().enumerate() {
        r.sym =
            if r.induction { AffineExpr::var(VReg(i as u32)) } else { AffineExpr::Unknown };
    }
    let is_iv = |regs: &RegTables, r: VReg| regs.is_induction(r);
    // Under `strict`, a non-induction register with several definitions is
    // opaque everywhere; derived values go Unknown transitively through
    // the normal lookup path.
    let opaque = |regs: &RegTables, r: VReg| strict && regs.defs(r) > 1 && !is_iv(regs, r);
    let set = |regs: &mut RegTables, r: VReg, value: AffineExpr| {
        if let Some(slot) = regs.regs.get_mut(r.0 as usize) {
            slot.sym = value;
        }
    };

    for (bi, blk) in f.blocks().enumerate() {
        let bid = BlockId(bi as u32);
        for (ii, inst) in blk.insts.iter().enumerate() {
            match inst {
                Inst::Const { dst, ty, bits } if !is_iv(regs, *dst) => {
                    let s = if opaque(regs, *dst) {
                        AffineExpr::Unknown
                    } else {
                        Value::from_bits(*ty, *bits)
                            .as_i64()
                            .map(AffineExpr::constant)
                            .unwrap_or(AffineExpr::Unknown)
                    };
                    set(regs, *dst, s);
                }
                Inst::Copy { dst, src } if !is_iv(regs, *dst) => {
                    let s = if opaque(regs, *dst) {
                        AffineExpr::Unknown
                    } else {
                        regs.sym(*src).clone()
                    };
                    set(regs, *dst, s);
                }
                Inst::Bin { op, dst, lhs, rhs } if !is_iv(regs, *dst) => {
                    let s = if regs.defs(*dst) > 1 {
                        AffineExpr::Unknown
                    } else {
                        let (a, b) = (regs.sym(*lhs), regs.sym(*rhs));
                        match op {
                            BinOp::Add => a.add(b, false),
                            BinOp::Sub => a.add(b, true),
                            BinOp::Mul => a.mul(b),
                            _ => AffineExpr::Unknown,
                        }
                    };
                    set(regs, *dst, s);
                }
                Inst::Un { dst, .. } if !is_iv(regs, *dst) => {
                    set(regs, *dst, AffineExpr::Unknown);
                }
                Inst::Load { dst, arr, idx } => {
                    accesses.push(Access {
                        arr: *arr,
                        index: regs.sym(*idx).clone(),
                        is_write: false,
                        block: bid,
                        idx_in_block: ii,
                    });
                    if !is_iv(regs, *dst) {
                        set(regs, *dst, AffineExpr::Unknown);
                    }
                }
                Inst::Store { arr, idx, .. } => {
                    accesses.push(Access {
                        arr: *arr,
                        index: regs.sym(*idx).clone(),
                        is_write: true,
                        block: bid,
                        idx_in_block: ii,
                    });
                }
                Inst::Call { has_dst: true, dst, .. } => set(regs, *dst, AffineExpr::Unknown),
                _ => {}
            }
        }
    }
}

/// Scan the blocks `in_loop` marks for calls and scalar recurrences:
/// returns whether the loop calls anything, and pushes every
/// self-update `r = r ⊕ x` (`r` not an induction) onto `recs` as
/// `(commutative, r)`, in instruction order (`recs` is cleared first).
pub(crate) fn loop_updates(
    f: &Function,
    in_loop: &[bool],
    regs: &RegTables,
    recs: &mut Vec<(bool, VReg)>,
) -> bool {
    recs.clear();
    let mut has_call = false;
    for inst in masked_blocks(f, in_loop).flat_map(|(_, blk)| blk.insts) {
        match inst {
            Inst::Bin { op, dst, lhs, rhs }
                if (dst == lhs || dst == rhs) && !regs.is_induction(*dst) =>
            {
                let commutative = matches!(op, BinOp::Add | BinOp::Mul | BinOp::Min | BinOp::Max);
                recs.push((commutative, *dst));
            }
            Inst::Call { .. } => has_call = true,
            _ => {}
        }
    }
    has_call
}

/// `gcd(|a|, |b|)`; `None` when `|a|` or `|b|` overflows (`i64::MIN`).
pub(crate) fn gcd(a: i64, b: i64) -> Option<i64> {
    let (mut a, mut b) = (a.checked_abs()?, b.checked_abs()?);
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    Some(a)
}

/// `dc` is a multiple of `x` (`x != 0`); an overflowing remainder
/// (`i64::MIN % -1`) is a multiple, as it is in exact arithmetic.
fn divides(x: i64, dc: i64) -> bool {
    dc.checked_rem(x).is_none_or(|r| r == 0)
}

/// Does a pair of accesses conflict across iterations of the loop whose
/// induction register is `iv`? Conservative: `true` unless provably safe.
///
/// ZIV on coefficient-free pairs, strong-SIV on equal coefficients, GCD
/// test on distinct ones; coefficients on any other register must match
/// exactly or the pair is conservatively conflicting. A test whose
/// arithmetic overflows `i64` conflicts.
pub fn conflicts(iv: VReg, a: &Access, b: &Access) -> bool {
    let (
        AffineExpr::Affine { constant: c1, coeffs: k1 },
        AffineExpr::Affine { constant: c2, coeffs: k2 },
    ) = (&a.index, &b.index)
    else {
        return true; // unanalysable index
    };
    // Remaining symbols (outer/inner loop ivs) must match coefficient-wise;
    // otherwise be conservative.
    if !k1.eq_except(k2, iv.0) {
        return true;
    }
    let Some(dc) = c2.checked_sub(*c1) else {
        return true;
    };
    match (k1.get(iv.0).unwrap_or(0), k2.get(iv.0).unwrap_or(0)) {
        (0, 0) => dc == 0, // same fixed cell touched every iteration
        (x, y) if x == y => {
            // a(i1 - i2) = dc: carried iff a nonzero distance exists.
            dc != 0 && divides(x, dc)
        }
        // x·i1 − y·i2 = dc solvable (GCD test) — conservative on
        // distinct coefficients.
        (x, y) => gcd(x, y).is_none_or(|g| g != 0 && dc % g == 0),
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

/// One chain of a [`Chains`] list: a [`ReductionChain`] whose loads sit
/// in the list's shared load buffer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChainHead {
    /// The chain's store instruction.
    pub(crate) store: InstRef,
    /// The commutative update producing the stored value.
    pub(crate) bin: InstRef,
    /// The array the store writes.
    pub(crate) arr: ArrayId,
    /// Range of the chain's loads in [`Chains::loads`].
    loads: (u32, u32),
}

/// The reduction chains of one loop, in store order, with every chain's
/// loads in one buffer; reusable from loop to loop.
#[derive(Debug, Default)]
pub(crate) struct Chains {
    pub(crate) heads: Vec<ChainHead>,
    loads: Vec<InstRef>,
}

impl Chains {
    /// The loads of chain `h`.
    pub(crate) fn loads(&self, h: &ChainHead) -> &[InstRef] {
        &self.loads[h.loads.0 as usize..h.loads.1 as usize]
    }

    /// Every chain instruction (store, update, loads), repeats included.
    pub(crate) fn refs(&self) -> impl Iterator<Item = InstRef> + '_ {
        self.heads
            .iter()
            .flat_map(|h| [h.store, h.bin].into_iter().chain(self.loads(h).iter().copied()))
    }

    /// Upper bound on the number of distinct [`Self::refs`].
    pub(crate) fn n_refs(&self) -> usize {
        2 * self.heads.len() + self.loads.len()
    }
}

/// Memory reduction chains of loop `l`: stores whose value flows through
/// a commutative op from a load of the same array and index register (or
/// a constant-equal index register) in the same block.
pub fn reduction_chains(module: &Module, func: FuncId, l: LoopId) -> Vec<ReductionChain> {
    let f = &module.funcs[func.index()];
    let mut found = Chains::default();
    chains(f, func, &loop_mask(f, &f.loops[l.index()]), &RegTables::new(f), &mut found);
    found
        .heads
        .iter()
        .map(|h| ReductionChain { store: h.store, bin: h.bin, loads: found.loads(h).to_vec() })
        .collect()
}

/// [`reduction_chains`] over the blocks `in_loop` marks, into `out`
/// (overwritten).
pub(crate) fn chains(
    f: &Function,
    func: FuncId,
    in_loop: &[bool],
    regs: &RegTables,
    out: &mut Chains,
) {
    out.heads.clear();
    out.loads.clear();
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
            let start = out.loads.len();
            out.loads.extend(
                blk.insts[..si]
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
                    .map(|(pi, _)| InstRef { func, block: bid, idx: pi as u32 }),
            );
            if out.loads.len() > start {
                out.heads.push(ChainHead {
                    store: InstRef { func, block: bid, idx: si as u32 },
                    bin: InstRef { func, block: bid, idx: bin_idx as u32 },
                    arr: *arr,
                    loads: (start as u32, out.loads.len() as u32),
                });
            }
        }
    }
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
                assert_eq!(coeffs.get(3), Some(2));
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
