//! The static loop-carried dependence oracle.
//!
//! [`analyze_loop`] classifies one loop into a three-point lattice:
//!
//! - [`Verdict::ProvablyParallel`] — every conflicting access pair is
//!   cleared by an exact test (ZIV/strong-SIV/GCD) or sits on a
//!   recognised reduction chain, every scalar recurrence is commutative
//!   or privatizable, and the loop body is call-free.
//! - [`Verdict::ProvablyDependent`] — a genuine loop-carried dependence
//!   is exhibited in closed form: an affine access pair with a definite
//!   carried distance smaller than the (statically known) trip count
//!   executing on every iteration, or a non-commutative scalar
//!   recurrence whose value provably crosses iterations.
//! - [`Verdict::Unknown`] — everything else.
//!
//! Both definite verdicts are *claims* audited against dynamic ground
//! truth by the `mvgnn-bench` `lint` binary, so each carries provenance:
//! [`Fact`]s naming the accesses and the deciding test, plus the
//! `excused` reduction-chain instructions whose observed carried
//! dependences are benign by commutativity.
//!
//! The report also carries what the planner needs, so planning a loop
//! never re-walks its function: the scalars that privatize (liveness at
//! the header and the exit) and, for a provably parallel loop, its
//! reduction clauses.
//!
//! Everything that does not depend on the loop — the dense
//! per-register tables, liveness (solved the first time a recurrence
//! asks) and one scratch area of buffers — lives in one
//! [`FuncAnalysis`] per function, shared by every loop analysed through
//! it. [`analyze_loop`] is the one-loop shorthand.

use crate::affine::{
    chains, fill_loop_mask, gcd, index_walk, loop_mask, loop_updates, masked_blocks,
    Access, AffineExpr, ChainHead, Chains, RegTables,
};
use crate::dataflow::{LiveSets, Walk};
use crate::planner::{ReductionOp, ReductionTarget};
use mvgnn_ir::inst::{BinOp, Inst, InstRef};
use mvgnn_ir::module::{FuncId, Function, LoopId, LoopInfo, Module};
use mvgnn_ir::types::{ArrayId, VReg};
use std::cell::RefCell;

/// The oracle's three-point verdict lattice (`Unknown` is the top).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// Iterations are provably independent (modulo excused reductions).
    ProvablyParallel,
    /// A loop-carried dependence provably exists and is not a reduction.
    ProvablyDependent,
    /// The analysis cannot decide either way.
    Unknown,
}

impl Verdict {
    /// Stable lowercase name (used by the JSON audit report).
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::ProvablyParallel => "parallel",
            Verdict::ProvablyDependent => "dependent",
            Verdict::Unknown => "unknown",
        }
    }
}

/// The exact dependence test that decided an access pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepTest {
    /// Zero-induction-variable test: both indices are iteration-invariant.
    Ziv,
    /// Strong SIV: equal induction coefficients, constant distance.
    StrongSiv,
    /// GCD (Banerjee-class) divisibility test on distinct coefficients.
    Gcd,
}

impl DepTest {
    /// Stable lowercase name (used by the JSON audit report).
    pub fn as_str(self) -> &'static str {
        match self {
            DepTest::Ziv => "ziv",
            DepTest::StrongSiv => "strong-siv",
            DepTest::Gcd => "gcd",
        }
    }
}

/// One provenance record backing the verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fact {
    /// An access pair was proven independent across iterations.
    PairIndependent {
        /// First access.
        a: InstRef,
        /// Second access.
        b: InstRef,
        /// Deciding test.
        test: DepTest,
    },
    /// An access pair provably conflicts across iterations.
    PairDependent {
        /// First access.
        a: InstRef,
        /// Second access.
        b: InstRef,
        /// Deciding test.
        test: DepTest,
        /// Carried iteration distance when the test produces one
        /// (`None` for ZIV same-cell conflicts, which recur at every
        /// distance).
        distance: Option<i64>,
    },
    /// An access pair may conflict but nothing definite is known.
    PairMayConflict {
        /// First access.
        a: InstRef,
        /// Second access.
        b: InstRef,
    },
    /// A store participates in a recognised reduction chain; carried
    /// dependences among the chain's instructions are benign.
    ReductionChain {
        /// The chain's store.
        store: InstRef,
    },
    /// A scalar updated commutatively across iterations (`acc = acc ⊕ x`)
    /// — parallelisable as a reduction.
    CommutativeRecurrence {
        /// The accumulator register.
        reg: VReg,
    },
    /// A self-updating scalar whose value never crosses iterations: each
    /// iteration can get a private copy.
    PrivatizableScalar {
        /// The register.
        reg: VReg,
    },
    /// A non-commutative scalar recurrence whose value crosses iterations.
    NonCommutativeRecurrence {
        /// The register.
        reg: VReg,
    },
    /// An access whose index is not affine in the induction registers.
    NonAffineAccess {
        /// The access instruction.
        at: InstRef,
    },
    /// The loop body contains a call the oracle does not look through.
    OpaqueCall,
    /// The loop is not a counted `for` (no induction register).
    NonCountedLoop,
}

/// Statically recovered counted-loop bounds (SCEV-lite).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopBounds {
    /// Initial induction value.
    pub lo: i64,
    /// Exclusive upper bound (`iv < hi`).
    pub hi: i64,
    /// Per-iteration increment (positive).
    pub step: i64,
    /// Number of iterations executed.
    pub trip: i64,
}

/// Per-array access-section summary for one loop.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ArraySection {
    /// Number of reads of the array inside the loop.
    pub reads: usize,
    /// Number of writes.
    pub writes: usize,
    /// Every access index is affine in the induction registers.
    pub all_affine: bool,
}

/// The oracle's full output for one loop.
#[derive(Debug, Clone)]
pub struct OracleReport {
    /// The verdict.
    pub verdict: Verdict,
    /// Provenance records explaining it.
    pub facts: Vec<Fact>,
    /// Reduction-chain instructions whose observed carried dependences
    /// are benign, sorted and distinct; the corpus auditor excuses
    /// dynamic dependences whose endpoints both sit in this set.
    pub excused: Vec<InstRef>,
    /// Per-array section summaries (reads/writes/affine-ness), sorted by
    /// array; [`OracleReport::section`] looks one up.
    pub sections: Vec<(ArrayId, ArraySection)>,
    /// Memory accesses seen inside the loop.
    pub n_accesses: usize,
    /// Same-array pairs with at least one write that were tested.
    pub n_pairs_tested: usize,
    /// Statically recovered bounds, when the loop is a recognisable
    /// counted `for` over constants.
    pub bounds: Option<LoopBounds>,
    /// The [`Fact::PrivatizableScalar`] registers, in fact order, that
    /// are also dead at the loop exit: their value neither crosses an
    /// iteration nor escapes the loop, so each is a `private(...)`
    /// candidate.
    pub private: Vec<VReg>,
    /// Reduction clauses of a `ProvablyParallel` loop, sorted by
    /// variable: one per memory chain on a loop-invariant cell, then one
    /// per scalar accumulator live into the header. Empty for every
    /// other verdict.
    pub reductions: Vec<ReductionTarget>,
}

impl OracleReport {
    /// Width of [`OracleReport::feature_vec`].
    pub const FEAT_DIM: usize = 10;

    /// The section summary of `arr`, when the loop accesses it.
    pub fn section(&self, arr: ArrayId) -> Option<&ArraySection> {
        let i = self.sections.binary_search_by_key(&arr, |&(a, _)| a).ok()?;
        Some(&self.sections[i].1)
    }

    /// The oracle's facts as a dense feature vector, broadcast onto the
    /// loop's PEG nodes when static features are enabled in
    /// `mvgnn-embed` (off by default; ablation-ready):
    /// verdict one-hot (3), ln1p access/pair counts (2), reduction and
    /// non-affine indicators (2), bounds-known flag, ln1p trip count,
    /// ln1p written-array count.
    pub fn feature_vec(&self) -> [f32; Self::FEAT_DIM] {
        let mut v = [0.0f32; Self::FEAT_DIM];
        match self.verdict {
            Verdict::ProvablyParallel => v[0] = 1.0,
            Verdict::ProvablyDependent => v[1] = 1.0,
            Verdict::Unknown => v[2] = 1.0,
        }
        v[3] = (self.n_accesses as f32).ln_1p();
        v[4] = (self.n_pairs_tested as f32).ln_1p();
        v[5] = f32::from(self.facts.iter().any(|f| {
            matches!(f, Fact::ReductionChain { .. } | Fact::CommutativeRecurrence { .. })
        }));
        v[6] = f32::from(self.facts.iter().any(|f| matches!(f, Fact::NonAffineAccess { .. })));
        v[7] = f32::from(self.bounds.is_some());
        v[8] = self.bounds.map_or(0.0, |b| (b.trip as f32).ln_1p());
        v[9] = (self.sections.iter().filter(|(_, s)| s.writes > 0).count() as f32).ln_1p();
        v
    }
}

/// Recognise the counted-loop shape the builder emits — `iv = lo` before
/// the header, `iv < hi` in the header, `iv += step` in the latch, all
/// three operands single-def integer constants — and return the bounds.
pub fn loop_bounds(f: &Function, info: &LoopInfo) -> Option<LoopBounds> {
    bounds(f, info, &loop_mask(f, info), &RegTables::new(f))
}

/// [`loop_bounds`] given the loop's block mask and the function's tables.
fn bounds(f: &Function, info: &LoopInfo, in_loop: &[bool], regs: &RegTables) -> Option<LoopBounds> {
    let iv = info.induction?;

    // The builder's counted-loop shape defines `iv` exactly twice: the
    // init copy before the header and the increment in the latch. Any
    // other def means `iv` is not a simple counter.
    let mut lo = None;
    let mut step = None;
    for (bi, blk) in f.blocks().enumerate() {
        let bid = mvgnn_ir::module::BlockId(bi as u32);
        for inst in blk.insts {
            if inst.def() != Some(iv) {
                continue;
            }
            match inst {
                Inst::Copy { src, .. } if !in_loop[bi] && lo.is_none() => {
                    lo = Some(regs.const_i64(*src)?);
                }
                Inst::Bin { op: BinOp::Add, lhs, rhs, .. }
                    if bid == info.latch && step.is_none() =>
                {
                    let other = if *lhs == iv {
                        *rhs
                    } else if *rhs == iv {
                        *lhs
                    } else {
                        return None;
                    };
                    step = Some(regs.const_i64(other)?);
                }
                _ => return None,
            }
        }
    }

    // iv < hi in the header.
    let header = f.block(info.header);
    let hi = header.insts.iter().find_map(|inst| match inst {
        Inst::Bin { op: BinOp::CmpLt, lhs, rhs, .. } if *lhs == iv => regs.const_i64(*rhs),
        _ => None,
    })?;

    let (lo, step) = (lo?, step?);
    if step <= 0 {
        return None;
    }
    // A trip count that overflows `i64` leaves the bounds unknown.
    let trip = if hi > lo { hi.checked_sub(lo)?.checked_add(step - 1)? / step } else { 0 };
    Some(LoopBounds { lo, hi, step, trip })
}

/// Which exact test applies to an access pair, and what it concludes.
/// A pair is `Independent` exactly when [`crate::affine::conflicts`]
/// clears it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PairResult {
    Independent(DepTest),
    /// Conflict with closed-form evidence strong enough to *claim* a
    /// dependence (subject to trip-count and execution checks).
    Definite(DepTest, Option<i64>),
    /// Conflict, but only as a may-dependence.
    May,
}

/// Classify an access pair; a test whose arithmetic overflows `i64` is
/// a may-dependence.
pub(crate) fn test_pair(iv: VReg, a: &AffineExpr, b: &AffineExpr) -> PairResult {
    let (
        AffineExpr::Affine { constant: c1, coeffs: k1 },
        AffineExpr::Affine { constant: c2, coeffs: k2 },
    ) = (a, b)
    else {
        return PairResult::May;
    };
    if !k1.eq_except(k2, iv.0) {
        return PairResult::May;
    }
    let x = k1.get(iv.0).unwrap_or(0);
    let y = k2.get(iv.0).unwrap_or(0);
    let Some(dc) = c2.checked_sub(*c1) else {
        return PairResult::May;
    };
    match (x, y) {
        (0, 0) => {
            if dc == 0 {
                // Same fixed cell touched on every iteration.
                PairResult::Definite(DepTest::Ziv, None)
            } else {
                PairResult::Independent(DepTest::Ziv)
            }
        }
        (x, y) if x == y => {
            if dc == 0 {
                // Same cell in the same iteration only: loop-independent.
                return PairResult::Independent(DepTest::StrongSiv);
            }
            match dc.checked_rem(x) {
                Some(0) => match dc.checked_div(x).and_then(i64::checked_abs) {
                    Some(d) => PairResult::Definite(DepTest::StrongSiv, Some(d)),
                    None => PairResult::May,
                },
                Some(_) => PairResult::Independent(DepTest::StrongSiv),
                None => PairResult::May,
            }
        }
        (x, y) => match gcd(x, y) {
            // Solvable, but existence of an in-bounds solution is not
            // established — a may-dependence only.
            Some(g) if g != 0 && dc % g == 0 => PairResult::May,
            Some(_) => PairResult::Independent(DepTest::Gcd),
            None => PairResult::May,
        },
    }
}

/// Run the oracle on loop `l` of `func`. Analysing several loops of one
/// function through one [`FuncAnalysis`] shares its per-function work.
pub fn analyze_loop(module: &Module, func: FuncId, l: LoopId) -> OracleReport {
    FuncAnalysis::new(module, func).analyze_loop(l)
}

/// The per-function half of the oracle: the dense per-register tables
/// (definition counts, single-def constants, induction flags), the
/// index expression of every memory access (one strict symbolic walk
/// serves every loop), liveness (solved on first use), and one scratch
/// area whose buffers every loop reuses, so a loop's analysis allocates
/// little beyond its report. Build one per function and run
/// [`FuncAnalysis::analyze_loop`] for each of its loops.
pub struct FuncAnalysis<'m> {
    module: &'m Module,
    func: FuncId,
    f: &'m Function,
    regs: RegTables,
    /// Every load and store of the function, in block order.
    accesses: Vec<Access>,
    scratch: RefCell<Scratch>,
}

/// The buffers of one loop's analysis, cleared and refilled per loop.
#[derive(Default)]
struct Scratch {
    /// The loop's blocks.
    in_loop: Vec<bool>,
    /// The loop's self-updating registers as `(commutative, register)`.
    recs: Vec<(bool, VReg)>,
    chains: Chains,
    walk: Walk,
    /// Liveness of the function, solved the first time a scalar
    /// recurrence needs it.
    live: Option<LiveSets>,
}

impl<'m> FuncAnalysis<'m> {
    /// The context for function `func` of `module`.
    pub fn new(module: &'m Module, func: FuncId) -> Self {
        let f = &module.funcs[func.index()];
        let mut regs = RegTables::new(f);
        let mut accesses = Vec::with_capacity(regs.mem_insts());
        // Strict symbolic walk: a proof must not trust last-write-wins on
        // conditionally reassigned registers (see `summarize_loop_strict`).
        index_walk(f, &mut regs, true, &mut accesses);
        Self { module, func, f, regs, accesses, scratch: RefCell::default() }
    }

    /// Run the oracle on loop `l` of this function.
    pub fn analyze_loop(&self, l: LoopId) -> OracleReport {
        let (func, f) = (self.func, self.f);
        let info = &f.loops[l.index()];
        let mut scratch = self.scratch.borrow_mut();
        let Scratch { in_loop, recs, chains: found, walk, live } = &mut *scratch;
        fill_loop_mask(f, info, in_loop);
        let in_loop: &[bool] = in_loop;
        let accesses = || self.accesses.iter().filter(|a| in_loop[a.block.index()]);
        let has_call = loop_updates(f, in_loop, &self.regs, recs);
        chains(f, func, in_loop, &self.regs, found);
        let found: &Chains = found;
        let mut excused: Vec<InstRef> = Vec::with_capacity(found.n_refs());
        excused.extend(found.refs());
        excused.sort_unstable();
        excused.dedup();
        let bounds = bounds(f, info, in_loop, &self.regs);
        let sections = sections(accesses());
        let n_accesses = accesses().count();

        let Some(iv) = info.induction else {
            return OracleReport {
                verdict: Verdict::Unknown,
                facts: vec![Fact::NonCountedLoop],
                excused,
                sections,
                n_accesses,
                n_pairs_tested: 0,
                bounds,
                private: Vec::new(),
                reductions: Vec::new(),
            };
        };

        // Same-array pairs with a write are tested, except on arrays a
        // reduction chain stores to (tolerated: implemented as a
        // reduction).
        let tested = |a: &Access, b: &Access| {
            a.arr == b.arr
                && (a.is_write || b.is_write)
                && !found.heads.iter().any(|c| c.arr == a.arr)
        };
        let n_pairs: usize = accesses()
            .enumerate()
            .map(|(i, a)| accesses().skip(i).filter(|b| tested(a, b)).count())
            .sum();
        let non_affine = accesses().filter(|a| matches!(a.index, AffineExpr::Unknown));
        // One fact per call flag, non-affine access, recurrence, chain
        // and tested pair.
        recs.sort_unstable();
        recs.dedup();
        let n_facts = usize::from(has_call)
            + non_affine.clone().count()
            + recs.len()
            + found.heads.len()
            + n_pairs;
        let mut facts: Vec<Fact> = Vec::with_capacity(n_facts);
        let mut provably_parallel = true;
        let mut dependent = false;
        if has_call {
            facts.push(Fact::OpaqueCall);
            provably_parallel = false;
        }
        facts.extend(non_affine.map(|a| Fact::NonAffineAccess { at: a.inst_ref(func) }));

        // Scalar recurrences, non-commutative first, each group in
        // register order: the dataflow engine distinguishes genuine
        // cross-iteration accumulators (live into the header) from body
        // temporaries that privatisation handles. A privatizable scalar
        // is a `private(...)` candidate when it is also dead at the exit
        // (otherwise its last value escapes the loop).
        let mut private: Vec<VReg> = Vec::new();
        let mut accumulators: Vec<VReg> = Vec::new();
        if !recs.is_empty() {
            let live = live.get_or_insert_with(|| LiveSets::new(f, walk));
            for &(commutative, r) in recs.iter() {
                if !live.live_in_at(info.header, r) {
                    facts.push(Fact::PrivatizableScalar { reg: r });
                    if !live.live_in_at(info.exit, r) {
                        private.push(r);
                    }
                } else if commutative {
                    facts.push(Fact::CommutativeRecurrence { reg: r });
                    accumulators.push(r);
                } else {
                    facts.push(Fact::NonCommutativeRecurrence { reg: r });
                    provably_parallel = false;
                    // The update must execute every iteration for the
                    // value chain to be provably unbroken; its def block
                    // dominating the latch guarantees that. Trip ≥ 2
                    // makes the dependence non-vacuous.
                    let update_dominates = f.insts_with_refs(func).any(|(ir, inst, _)| {
                        inst.def() == Some(r)
                            && matches!(inst, Inst::Bin { dst, lhs, rhs, .. } if dst == lhs || dst == rhs)
                            && f.loop_of_block(ir.block) == Some(l)
                            && walk.dominates(f, ir.block, info.latch)
                    });
                    if update_dominates && bounds.is_some_and(|b| b.trip >= 2) {
                        dependent = true;
                    }
                }
            }
        }

        for c in &found.heads {
            facts.push(Fact::ReductionChain { store: c.store });
        }

        // A definite memory dependence claim additionally needs the
        // accesses to execute on every iteration of exactly this loop.
        let mut executes_every_iteration = |a: &Access| {
            f.loop_of_block(a.block) == Some(l) && walk.dominates(f, a.block, info.latch)
        };

        for (i, a) in accesses().enumerate() {
            for b in accesses().skip(i).filter(|b| tested(a, b)) {
                let (ra, rb) = (a.inst_ref(func), b.inst_ref(func));
                // `Independent` exactly when `conflicts` clears the pair
                // (property-tested in `affine::reference`).
                let pair = test_pair(iv, &a.index, &b.index);
                if let PairResult::Independent(test) = pair {
                    facts.push(Fact::PairIndependent { a: ra, b: rb, test });
                    continue;
                }
                provably_parallel = false;
                match pair {
                    PairResult::Definite(test, distance) => {
                        let trip_ok = match (distance, bounds) {
                            (Some(d), Some(bd)) => d != 0 && d < bd.trip,
                            (None, Some(bd)) => bd.trip >= 2, // ZIV same cell
                            _ => false,
                        };
                        if trip_ok && executes_every_iteration(a) && executes_every_iteration(b) {
                            facts.push(Fact::PairDependent { a: ra, b: rb, test, distance });
                            dependent = true;
                        } else {
                            facts.push(Fact::PairMayConflict { a: ra, b: rb });
                        }
                    }
                    _ => facts.push(Fact::PairMayConflict { a: ra, b: rb }),
                }
            }
        }
        debug_assert_eq!(facts.len(), n_facts, "fact count and capacity disagree");

        let verdict = if dependent {
            Verdict::ProvablyDependent
        } else if provably_parallel {
            Verdict::ProvablyParallel
        } else {
            Verdict::Unknown
        };
        let reductions = if verdict == Verdict::ProvablyParallel {
            self.reduction_targets(iv, in_loop, found, &accumulators)
        } else {
            Vec::new()
        };
        OracleReport {
            verdict,
            facts,
            excused,
            sections,
            n_accesses,
            n_pairs_tested: n_pairs,
            bounds,
            private,
            reductions,
        }
    }

    /// Reduction clauses of a provably parallel loop: memory chains on a
    /// loop-invariant cell, then scalar accumulators, deduplicated and
    /// stably sorted by variable.
    fn reduction_targets(
        &self,
        iv: VReg,
        in_loop: &[bool],
        found: &Chains,
        accumulators: &[VReg],
    ) -> Vec<ReductionTarget> {
        let mut targets: Vec<ReductionTarget> = Vec::new();
        let scalars = accumulators.iter().filter_map(|&reg| {
            let op = scalar_op(self.f, in_loop, reg)?;
            Some(ReductionTarget { var: format!("%{}", reg.0), op })
        });
        let memory = found.heads.iter().filter_map(|c| self.chain_target(c, iv));
        for t in memory.chain(scalars) {
            if !targets.contains(&t) {
                targets.push(t);
            }
        }
        targets.sort_by(|a, b| a.var.cmp(&b.var));
        targets
    }

    /// Reduction clause of one memory chain, when the chain's cell is
    /// loop-invariant in `iv` (a cell that moves with the induction is an
    /// iteration-local update, not a cross-iteration reduction — a clause
    /// for it would misdescribe a DOALL).
    fn chain_target(&self, c: &ChainHead, iv: VReg) -> Option<ReductionTarget> {
        let cell = self
            .accesses
            .iter()
            .find(|a| a.block == c.store.block && a.idx_in_block == c.store.idx as usize);
        let crosses_iterations = match cell.map(|a| &a.index) {
            Some(AffineExpr::Affine { coeffs, .. }) => coeffs.get(iv.0).unwrap_or(0) == 0,
            // Non-affine cell (e.g. `a[idx[i]]`): the chain may hit the
            // same cell across iterations, so the clause is the safe
            // description.
            _ => true,
        };
        if !crosses_iterations {
            return None;
        }
        let op = match self.f.inst(c.bin) {
            Inst::Bin { op, .. } => ReductionOp::of_bin(*op)?,
            _ => return None,
        };
        let var = self.module.name_of(self.module.arrays[c.arr.index()].name).to_string();
        Some(ReductionTarget { var, op })
    }
}

/// Per-array section summaries of a loop's accesses, sorted by array, in
/// one allocation.
fn sections<'a>(
    accesses: impl Iterator<Item = &'a Access> + Clone,
) -> Vec<(ArrayId, ArraySection)> {
    let arrays = accesses
        .clone()
        .enumerate()
        .filter(|&(i, a)| accesses.clone().take(i).all(|b| b.arr != a.arr))
        .count();
    let mut sections: Vec<(ArrayId, ArraySection)> = Vec::with_capacity(arrays);
    for a in accesses {
        let i = sections.binary_search_by_key(&a.arr, |&(arr, _)| arr).unwrap_or_else(|i| {
            sections.insert(i, (a.arr, ArraySection { all_affine: true, ..Default::default() }));
            i
        });
        let s = &mut sections[i].1;
        if a.is_write {
            s.writes += 1;
        } else {
            s.reads += 1;
        }
        if matches!(a.index, AffineExpr::Unknown) {
            s.all_affine = false;
        }
    }
    sections
}

/// Operator of the first commutative self-update of `reg` inside the
/// loop whose blocks `in_loop` marks.
fn scalar_op(f: &Function, in_loop: &[bool], reg: VReg) -> Option<ReductionOp> {
    masked_blocks(f, in_loop).flat_map(|(_, blk)| blk.insts).find_map(|inst| match inst {
        Inst::Bin { op, dst, lhs, rhs } if *dst == reg && (*lhs == reg || *rhs == reg) => {
            ReductionOp::of_bin(*op)
        }
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvgnn_ir::types::Ty;
    use mvgnn_ir::FunctionBuilder;

    fn analyze(m: &Module, f: FuncId, l: LoopId) -> OracleReport {
        analyze_loop(m, f, l)
    }

    #[test]
    fn map_loop_is_provably_parallel() {
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
        let r = analyze(&m, f, l);
        assert_eq!(r.verdict, Verdict::ProvablyParallel);
        assert_eq!(r.bounds, Some(LoopBounds { lo: 0, hi: 16, step: 1, trip: 16 }));
        assert!(r.facts.iter().any(|x| matches!(x, Fact::PairIndependent { .. })));
        let feats = r.feature_vec();
        assert_eq!(feats[0], 1.0);
        assert_eq!(feats[7], 1.0);
    }

    #[test]
    fn in_place_recurrence_is_provably_dependent() {
        // a[i] = a[i-1] + 1: carried RAW distance 1.
        let mut m = Module::new("t");
        let a = m.add_array("a", Ty::I64, 16);
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let (lo, hi, st) = (b.const_i64(1), b.const_i64(16), b.const_i64(1));
        let one = b.const_i64(1);
        let l = b.for_loop(lo, hi, st, |b, iv| {
            let p = b.bin(BinOp::Sub, iv, one);
            let x = b.load(a, p);
            let y = b.bin(BinOp::Add, x, one);
            b.store(a, iv, y);
        });
        let f = b.finish();
        let r = analyze(&m, f, l);
        assert_eq!(r.verdict, Verdict::ProvablyDependent, "{:?}", r.facts);
        assert!(r.facts.iter().any(|x| matches!(
            x,
            Fact::PairDependent { test: DepTest::StrongSiv, distance: Some(1), .. }
        )));
    }

    #[test]
    fn memory_reduction_is_parallel_with_excuses() {
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
        let r = analyze(&m, f, l);
        assert_eq!(r.verdict, Verdict::ProvablyParallel, "{:?}", r.facts);
        assert!(!r.excused.is_empty(), "chain instructions must be excused");
        assert!(r.facts.iter().any(|x| matches!(x, Fact::ReductionChain { .. })));
    }

    #[test]
    fn scalar_accumulator_crossing_iterations() {
        let mut m = Module::new("t");
        let a = m.add_array("a", Ty::F64, 16);
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let (lo, hi, st) = (b.const_i64(0), b.const_i64(16), b.const_i64(1));
        let acc = b.const_f64(0.0);
        let l = b.for_loop(lo, hi, st, |b, iv| {
            let x = b.load(a, iv);
            b.bin_to(acc, BinOp::Add, acc, x);
        });
        b.ret(Some(acc));
        let f = b.finish();
        let r = analyze(&m, f, l);
        assert_eq!(r.verdict, Verdict::ProvablyParallel, "{:?}", r.facts);
        assert!(r.facts.iter().any(|x| matches!(x, Fact::CommutativeRecurrence { .. })));
    }

    #[test]
    fn non_commutative_recurrence_is_dependent() {
        let mut m = Module::new("t");
        let a = m.add_array("a", Ty::F64, 16);
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let (lo, hi, st) = (b.const_i64(0), b.const_i64(16), b.const_i64(1));
        let acc = b.const_f64(100.0);
        let l = b.for_loop(lo, hi, st, |b, iv| {
            let x = b.load(a, iv);
            let scaled = b.bin(BinOp::Mul, x, acc);
            b.bin_to(acc, BinOp::Sub, acc, scaled);
        });
        b.ret(Some(acc));
        let f = b.finish();
        let r = analyze(&m, f, l);
        assert_eq!(r.verdict, Verdict::ProvablyDependent, "{:?}", r.facts);
        assert!(r.facts.iter().any(|x| matches!(x, Fact::NonCommutativeRecurrence { .. })));
    }

    #[test]
    fn recurrence_facts_follow_register_order() {
        // Two accumulators live around the loop and two temporaries
        // reinitialised every iteration: four self-updating registers,
        // whose facts must come out in register order on every call.
        let mut m = Module::new("t");
        let a = m.add_array("a", Ty::F64, 16);
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let (lo, hi, st) = (b.const_i64(0), b.const_i64(16), b.const_i64(1));
        let sum = b.const_f64(0.0);
        let prod = b.const_f64(1.0);
        let l = b.for_loop(lo, hi, st, |b, iv| {
            let x = b.load(a, iv);
            b.bin_to(prod, BinOp::Mul, prod, x);
            b.bin_to(sum, BinOp::Add, sum, x);
            let t = b.bin(BinOp::Add, x, x);
            b.bin_to(t, BinOp::Mul, t, x);
            let u = b.bin(BinOp::Mul, x, x);
            b.bin_to(u, BinOp::Add, u, x);
            b.store(a, iv, u);
        });
        b.ret(Some(sum));
        let f = b.finish();
        let first = analyze(&m, f, l);
        let regs: Vec<VReg> = first
            .facts
            .iter()
            .filter_map(|x| match x {
                Fact::CommutativeRecurrence { reg } | Fact::PrivatizableScalar { reg } => {
                    Some(*reg)
                }
                _ => None,
            })
            .collect();
        assert_eq!(regs.len(), 4, "{:?}", first.facts);
        assert!(regs.windows(2).all(|w| w[0] < w[1]), "register order: {regs:?}");
        assert_eq!(first.private, regs[2..].to_vec());
        assert_eq!(first.reductions.len(), 2, "{:?}", first.reductions);
        for _ in 0..16 {
            let again = analyze(&m, f, l);
            assert_eq!(again.facts, first.facts);
            assert_eq!(again.private, first.private);
            assert_eq!(again.reductions, first.reductions);
        }
    }

    #[test]
    fn one_context_serves_every_loop_of_a_function() {
        let mut m = Module::new("t");
        let a = m.add_array("a", Ty::F64, 16);
        let s = m.add_array("s", Ty::F64, 1);
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let (lo, hi, st) = (b.const_i64(0), b.const_i64(16), b.const_i64(1));
        let zero = b.const_i64(0);
        let one = b.const_i64(1);
        b.for_loop(lo, hi, st, |b, iv| {
            let x = b.load(a, iv);
            let cur = b.load(s, zero);
            let nxt = b.bin(BinOp::Add, cur, x);
            b.store(s, zero, nxt);
        });
        b.for_loop(one, hi, st, |b, iv| {
            let p = b.bin(BinOp::Sub, iv, one);
            let x = b.load(a, p);
            b.store(a, iv, x);
        });
        let f = b.finish();
        let shared = FuncAnalysis::new(&m, f);
        for info in &m.funcs[f.index()].loops {
            let (one_off, via) = (analyze(&m, f, info.id), shared.analyze_loop(info.id));
            assert_eq!(one_off.verdict, via.verdict);
            assert_eq!(one_off.facts, via.facts);
            assert_eq!(one_off.excused, via.excused);
            assert_eq!(one_off.sections, via.sections);
            assert_eq!(one_off.bounds, via.bounds);
            assert_eq!(one_off.private, via.private);
            assert_eq!(one_off.reductions, via.reductions);
        }
    }

    #[test]
    fn call_in_body_is_unknown() {
        let mut m = Module::new("t");
        let a = m.add_array("a", Ty::F64, 16);
        // Pure helper: f(x) = x + x.
        let mut hb = FunctionBuilder::new(&mut m, "helper", 1);
        let p = hb.param(0);
        let d = hb.bin(BinOp::Add, p, p);
        hb.ret(Some(d));
        let helper = hb.finish();
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let (lo, hi, st) = (b.const_i64(0), b.const_i64(16), b.const_i64(1));
        let l = b.for_loop(lo, hi, st, |b, iv| {
            let x = b.load(a, iv);
            let y = b.call(helper, &[x]);
            b.store(a, iv, y);
        });
        let f = b.finish();
        let r = analyze(&m, f, l);
        assert_eq!(r.verdict, Verdict::Unknown, "{:?}", r.facts);
        assert!(r.facts.iter().any(|x| matches!(x, Fact::OpaqueCall)));
    }

    #[test]
    fn indirect_write_is_unknown_not_dependent() {
        // out[idx[i]] = 1.0: may conflict, never a definite claim.
        let mut m = Module::new("t");
        let idx = m.add_array("idx", Ty::I64, 16);
        let out = m.add_array("out", Ty::F64, 16);
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let (lo, hi, st) = (b.const_i64(0), b.const_i64(16), b.const_i64(1));
        let one = b.const_f64(1.0);
        let l = b.for_loop(lo, hi, st, |b, iv| {
            let j = b.load(idx, iv);
            b.store(out, j, one);
        });
        let f = b.finish();
        let r = analyze(&m, f, l);
        assert_eq!(r.verdict, Verdict::Unknown, "{:?}", r.facts);
        assert!(r.facts.iter().any(|x| matches!(x, Fact::PairMayConflict { .. })));
        assert!(r.facts.iter().any(|x| matches!(x, Fact::NonAffineAccess { .. })));
        let feats = r.feature_vec();
        assert_eq!(feats[2], 1.0);
        assert_eq!(feats[6], 1.0);
    }

    #[test]
    fn bounds_recognition() {
        let mut m = Module::new("t");
        let a = m.add_array("a", Ty::F64, 64);
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let (lo, hi, st) = (b.const_i64(3), b.const_i64(20), b.const_i64(4));
        let one = b.const_f64(1.0);
        let l = b.for_loop(lo, hi, st, |b, iv| b.store(a, iv, one));
        let f = b.finish();
        let func = &m.funcs[f.index()];
        let bd = loop_bounds(func, &func.loops[l.index()]).unwrap();
        assert_eq!(bd, LoopBounds { lo: 3, hi: 20, step: 4, trip: 5 });
    }

    /// `for i in lo..hi { <body> }` over one `i64` array.
    fn overflow_loop(
        lo: i64,
        hi: i64,
        body: impl FnOnce(&mut FunctionBuilder, ArrayId, VReg),
    ) -> (Module, FuncId, LoopId) {
        let mut m = Module::new("t");
        let a = m.add_array("a", Ty::I64, 16);
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let (lo, hi, st) = (b.const_i64(lo), b.const_i64(hi), b.const_i64(1));
        let l = b.for_loop(lo, hi, st, |b, iv| body(b, a, iv));
        let f = b.finish();
        (m, f, l)
    }

    #[test]
    fn an_overflowing_trip_count_leaves_the_bounds_unknown() {
        // for i in -10..i64::MAX: hi - lo overflows.
        let (m, f, l) = overflow_loop(-10, i64::MAX, |b, a, iv| {
            let x = b.load(a, iv);
            b.store(a, iv, x);
        });
        let func = &m.funcs[f.index()];
        assert_eq!(loop_bounds(func, &func.loops[l.index()]), None);
        let r = analyze(&m, f, l);
        assert_eq!(r.bounds, None);
        assert_eq!(r.verdict, Verdict::ProvablyParallel, "{:?}", r.facts);
    }

    #[test]
    fn an_overflowing_distance_is_a_may_conflict() {
        // x = a[-i]; a[-i + i64::MIN] = x: the strong-SIV test divides
        // i64::MIN by -1.
        let (m, f, l) = overflow_loop(0, 16, |b, a, iv| {
            let minus_one = b.const_i64(-1);
            let min = b.const_i64(i64::MIN);
            let neg = b.bin(BinOp::Mul, iv, minus_one);
            let x = b.load(a, neg);
            let at = b.bin(BinOp::Add, neg, min);
            b.store(a, at, x);
        });
        let r = analyze(&m, f, l);
        assert_eq!(r.verdict, Verdict::Unknown, "{:?}", r.facts);
        assert!(r.facts.iter().any(|x| matches!(x, Fact::PairMayConflict { .. })), "{:?}", r.facts);
    }

    #[test]
    fn an_overflowing_coefficient_is_non_affine() {
        // a[i * i64::MAX * 2] = 1: the coefficient overflows; wrapped,
        // it would read as -2 and prove the loop parallel.
        let (m, f, l) = overflow_loop(0, 16, |b, a, iv| {
            let (max, two, one) = (b.const_i64(i64::MAX), b.const_i64(2), b.const_i64(1));
            let t = b.bin(BinOp::Mul, iv, max);
            let at = b.bin(BinOp::Mul, t, two);
            b.store(a, at, one);
        });
        let r = analyze(&m, f, l);
        assert_eq!(r.verdict, Verdict::Unknown, "{:?}", r.facts);
        assert!(r.facts.iter().any(|x| matches!(x, Fact::NonAffineAccess { .. })), "{:?}", r.facts);
        assert!(!r.section(ArrayId(0)).unwrap().all_affine);
    }

    #[test]
    fn sections_summarise_arrays() {
        let mut m = Module::new("t");
        let a = m.add_array("a", Ty::F64, 16);
        let out = m.add_array("b", Ty::F64, 16);
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let (lo, hi, st) = (b.const_i64(0), b.const_i64(16), b.const_i64(1));
        let l = b.for_loop(lo, hi, st, |b, iv| {
            let x = b.load(a, iv);
            b.store(out, iv, x);
        });
        let f = b.finish();
        let r = analyze(&m, f, l);
        let sa = r.section(a).unwrap();
        let sb = r.section(out).unwrap();
        assert_eq!(r.section(ArrayId(9)), None);
        assert_eq!((sa.reads, sa.writes, sa.all_affine), (1, 0, true));
        assert_eq!((sb.reads, sb.writes, sb.all_affine), (0, 1, true));
    }

    #[test]
    fn conditionally_reassigned_write_index_is_unknown() {
        // The guarded-scatter shape: `j = 0; if (k[i] < 1) j = i;
        // d[j] = s[i]`. A trace where the guard always fires shows no
        // conflict, and the flow-insensitive tool walk sees `d[i]` — but
        // iterations *can* collide on `d[0]`, so a ProvablyParallel
        // verdict here would be a false proof.
        use mvgnn_ir::inst::BinOp;
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
        let r = analyze(&m, f, l);
        assert_eq!(r.verdict, Verdict::Unknown);
        assert!(r.facts.iter().any(|x| matches!(x, Fact::NonAffineAccess { .. })));
    }
}
