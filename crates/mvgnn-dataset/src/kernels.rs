//! Loop kernel templates with constructive parallelism labels.
//!
//! Each template builds one function (own arrays, arity 0) inside a
//! module and reports every loop it created together with the pattern it
//! instantiates. The labels are *constructive*: a template that claims
//! `Serial` provably writes a cell another iteration reads.

use mvgnn_ir::inst::BinOp;
use mvgnn_ir::module::{FuncId, LoopId, Module};
use mvgnn_ir::types::Ty;
use mvgnn_ir::FunctionBuilder;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Ground-truth pattern of one generated loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PatternKind {
    /// Iterations fully independent.
    DoAll,
    /// Carried dependence is a recognisable reduction.
    Reduction,
    /// Order-sensitive carried dependence — not parallelisable.
    Serial,
    /// Independent recursive tasks (BOTS style) — parallelisable.
    Task,
}

impl PatternKind {
    /// The paper's binary label.
    pub fn is_parallelizable(self) -> bool {
        !matches!(self, PatternKind::Serial)
    }
}

/// Available kernel templates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KernelKind {
    /// `b[i] = f(a[i])` — elementwise map (1 loop, DoAll).
    VectorMap,
    /// `c[i] = a[i] + s·b[i]` — triad (1 loop, DoAll).
    Triad,
    /// `s += a[i]·b[i]` — dot product (1 loop, Reduction).
    DotProduct,
    /// `s += a[i]` (1 loop, Reduction).
    SumReduction,
    /// `s = max(s, a[i])` (1 loop, Reduction).
    MaxReduction,
    /// `b[i] = a[i−1] + a[i] + a[i+1]` out-of-place (1 loop, DoAll).
    Stencil3,
    /// `a[i] = a[i−1] + a[i+1]` in place (1 loop, Serial).
    Stencil3InPlace,
    /// `b[i] = b[i−1] + a[i]` (1 loop, Serial).
    PrefixSum,
    /// `x[i] = α·x[i−1] + β` (1 loop, Serial).
    Recurrence,
    /// `y[i] = Σⱼ A[i][j]·x[j]` (2 loops: DoAll outer, Reduction inner).
    MatVec,
    /// `C = A·B` (3 loops: DoAll, DoAll, Reduction).
    MatMul,
    /// One Jacobi sweep on a 2-D grid, out of place (2 loops, DoAll).
    Jacobi2d,
    /// One Gauss-Seidel sweep in place (2 loops, Serial).
    GaussSeidel,
    /// `hist[key[i]] += 1` (2 loops: init DoAll + Reduction).
    Histogram,
    /// `b[i] = a[idx[i]]` (2 loops: init DoAll + gather DoAll).
    IndirectGather,
    /// `a[idx[i]] = b[i]` with colliding indices (2 loops: init DoAll +
    /// scatter Serial).
    ScatterConflict,
    /// FIR filter: window reads, disjoint writes (1 loop, DoAll).
    FirFilter,
    /// Matrix transpose (2 loops, DoAll).
    Transpose,
    /// Forward substitution on a lower-triangular system
    /// (3 loops: DoAll init, Serial outer, Reduction inner).
    TriangularSolve,
    /// Driver loop spawning recursive `fib` tasks into disjoint slots
    /// (1 loop, Task; adds a callee function).
    TaskSpawn,
    /// `out[i] = f(a[i])` through a *pure helper call* (1 loop, DoAll).
    /// Parallel, but call-averse tools reject it.
    CallDoAll,
    /// A DOALL map with trip count 2 (1 loop, DoAll). Parallel, but
    /// profitability filters reject it.
    TinyDoAll,
    /// `acc += a[i]` in a register accumulator (1 loop, Reduction).
    ScalarSumReduction,
    /// `acc = acc − a[i]·acc` in a register (1 loop, Serial): identical
    /// dynamic-feature signature to [`KernelKind::ScalarSumReduction`],
    /// separable only by opcode/structure.
    NonCommutativeScalar,
    /// `a[i] = a[i−4] + 1` — carried RAW at distance 4 (1 loop, Serial).
    DistanceRecurrence,
    /// `if (i odd) s[0] += a[i]` — control-guarded reduction
    /// (1 loop, Reduction).
    GuardedReduction,
    /// `dst[perm[i]] = src[i]` where `perm` is a runtime permutation
    /// (2 loops: init DoAll + scatter DoAll). Parallel, but statically
    /// unprovable.
    ScatterPermutation,
    /// `dst[key[i] < t ? i : 0] = src[i]` — a scatter whose collision is
    /// *input-dependent* (1 loop, Serial). The profiled input exercises
    /// only the collision-free branch, so trace-based tools report a
    /// parallelisable loop — the expert annotation (ground truth) says
    /// no. This is the paper's "missing expert annotation"/unsound-trace
    /// error class, and it is [`KernelKind::trace_limited`].
    GuardedScatter,
    /// `s[0] += a[idx[i]]` — a reduction over an indirectly gathered
    /// operand (2 loops: init DoAll + Reduction). The chain cell is
    /// affine, but the gathered read is subscript-of-subscript, so a
    /// sound static tool must keep the reduction claim while refusing
    /// to reason about `a`.
    IndirectGatherReduction,
    /// Linked-list walk `p = next[p]` through a pointer cell
    /// (2 loops: init DoAll + non-counted walk Serial). The walk has
    /// no induction register at all — the hostile case for counted
    /// loop analyses.
    PointerChase,
    /// `out[i·n+j] = a[j·n+i]` over the strictly lower triangle
    /// (2 loops, DoAll + DoAll): a skewed iteration space whose inner
    /// bound is the outer induction variable.
    TriangularCopy,
    /// `a[i] = a[i−2] + a[i−5]` — carried RAW at two distances > 1
    /// (1 loop, Serial). Not DOALL, but provably a pipeline
    /// (DOACROSS) at distance 2.
    MultiDistanceRecurrence,
}

/// Coarse stress-family taxonomy over kernel templates. Families group
/// kernels by the *mechanism* that makes them hard for static provers
/// and learned models, so per-family metrics stay visible instead of
/// being averaged away (see the `patterns` bench bin).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
)]
pub enum KernelFamily {
    /// Dense affine kernels — the classic, mostly decidable core.
    Regular,
    /// Subscript-of-subscript (`a[idx[i]]`) gathers and scatters.
    Indirect,
    /// Pointer-chasing list walks with no induction register.
    PointerChase,
    /// Triangular / skewed iteration spaces.
    Triangular,
    /// Loop-carried dependences at distance > 1.
    LongDistance,
}

impl KernelFamily {
    /// Stable lowercase name used in reports and JSON keys.
    pub fn as_str(self) -> &'static str {
        match self {
            KernelFamily::Regular => "regular",
            KernelFamily::Indirect => "indirect",
            KernelFamily::PointerChase => "pointer_chase",
            KernelFamily::Triangular => "triangular",
            KernelFamily::LongDistance => "long_distance",
        }
    }

    /// Every family, in on-disk tag order (see `mvgnn-dataset::format`).
    pub const ALL: [KernelFamily; 5] = [
        KernelFamily::Regular,
        KernelFamily::Indirect,
        KernelFamily::PointerChase,
        KernelFamily::Triangular,
        KernelFamily::LongDistance,
    ];
}

impl std::fmt::Display for KernelFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl KernelKind {
    /// Number of loops this template creates.
    pub fn loop_count(self) -> usize {
        match self {
            KernelKind::VectorMap
            | KernelKind::Triad
            | KernelKind::DotProduct
            | KernelKind::SumReduction
            | KernelKind::MaxReduction
            | KernelKind::Stencil3
            | KernelKind::Stencil3InPlace
            | KernelKind::PrefixSum
            | KernelKind::Recurrence
            | KernelKind::FirFilter
            | KernelKind::TaskSpawn
            | KernelKind::CallDoAll
            | KernelKind::TinyDoAll
            | KernelKind::ScalarSumReduction
            | KernelKind::NonCommutativeScalar
            | KernelKind::DistanceRecurrence
            | KernelKind::GuardedReduction
            | KernelKind::GuardedScatter
            | KernelKind::MultiDistanceRecurrence => 1,
            KernelKind::MatVec
            | KernelKind::Jacobi2d
            | KernelKind::GaussSeidel
            | KernelKind::Histogram
            | KernelKind::IndirectGather
            | KernelKind::ScatterConflict
            | KernelKind::Transpose
            | KernelKind::ScatterPermutation
            | KernelKind::IndirectGatherReduction
            | KernelKind::PointerChase
            | KernelKind::TriangularCopy => 2,
            KernelKind::MatMul | KernelKind::TriangularSolve => 3,
        }
    }

    /// Pattern of each loop, outermost first (order of creation).
    pub fn patterns(self) -> Vec<PatternKind> {
        use PatternKind::*;
        match self {
            KernelKind::VectorMap | KernelKind::Triad | KernelKind::Stencil3 | KernelKind::FirFilter => {
                vec![DoAll]
            }
            KernelKind::DotProduct | KernelKind::SumReduction | KernelKind::MaxReduction => {
                vec![Reduction]
            }
            KernelKind::Stencil3InPlace | KernelKind::PrefixSum | KernelKind::Recurrence => {
                vec![Serial]
            }
            KernelKind::MatVec => vec![DoAll, Reduction],
            KernelKind::MatMul => vec![DoAll, DoAll, Reduction],
            KernelKind::Jacobi2d => vec![DoAll, DoAll],
            KernelKind::GaussSeidel => vec![Serial, Serial],
            KernelKind::Histogram | KernelKind::IndirectGatherReduction => {
                vec![DoAll, Reduction]
            }
            KernelKind::IndirectGather => vec![DoAll, DoAll],
            KernelKind::ScatterConflict | KernelKind::PointerChase => vec![DoAll, Serial],
            KernelKind::Transpose | KernelKind::TriangularCopy => vec![DoAll, DoAll],
            KernelKind::TriangularSolve => vec![DoAll, Serial, Reduction],
            KernelKind::TaskSpawn => vec![Task],
            KernelKind::CallDoAll | KernelKind::TinyDoAll => vec![DoAll],
            KernelKind::ScalarSumReduction | KernelKind::GuardedReduction => vec![Reduction],
            KernelKind::NonCommutativeScalar
            | KernelKind::DistanceRecurrence
            | KernelKind::GuardedScatter
            | KernelKind::MultiDistanceRecurrence => vec![Serial],
            KernelKind::ScatterPermutation => vec![DoAll, DoAll],
        }
    }

    /// Every template, for enumeration in tests and sweeps.
    /// True when the single profiled input cannot witness the loop's
    /// worst-case dependence: the dynamic classifier will disagree with
    /// the constructive label by design.
    pub fn trace_limited(self) -> bool {
        matches!(self, KernelKind::GuardedScatter)
    }

    /// The stress family this template belongs to.
    pub fn family(self) -> KernelFamily {
        match self {
            KernelKind::Histogram
            | KernelKind::IndirectGather
            | KernelKind::ScatterConflict
            | KernelKind::ScatterPermutation
            | KernelKind::GuardedScatter
            | KernelKind::IndirectGatherReduction => KernelFamily::Indirect,
            KernelKind::PointerChase => KernelFamily::PointerChase,
            KernelKind::TriangularSolve | KernelKind::TriangularCopy => {
                KernelFamily::Triangular
            }
            KernelKind::DistanceRecurrence | KernelKind::MultiDistanceRecurrence => {
                KernelFamily::LongDistance
            }
            _ => KernelFamily::Regular,
        }
    }

    pub const ALL: [KernelKind; 32] = [
        KernelKind::VectorMap,
        KernelKind::Triad,
        KernelKind::DotProduct,
        KernelKind::SumReduction,
        KernelKind::MaxReduction,
        KernelKind::Stencil3,
        KernelKind::Stencil3InPlace,
        KernelKind::PrefixSum,
        KernelKind::Recurrence,
        KernelKind::MatVec,
        KernelKind::MatMul,
        KernelKind::Jacobi2d,
        KernelKind::GaussSeidel,
        KernelKind::Histogram,
        KernelKind::IndirectGather,
        KernelKind::ScatterConflict,
        KernelKind::FirFilter,
        KernelKind::Transpose,
        KernelKind::TriangularSolve,
        KernelKind::TaskSpawn,
        KernelKind::CallDoAll,
        KernelKind::TinyDoAll,
        KernelKind::ScalarSumReduction,
        KernelKind::NonCommutativeScalar,
        KernelKind::DistanceRecurrence,
        KernelKind::GuardedReduction,
        KernelKind::ScatterPermutation,
        KernelKind::GuardedScatter,
        KernelKind::IndirectGatherReduction,
        KernelKind::PointerChase,
        KernelKind::TriangularCopy,
        KernelKind::MultiDistanceRecurrence,
    ];
}

/// Pick one of several equivalent arithmetic ops so variants of a
/// template differ in their token streams ("modifying the operation
/// type" augmentation).
fn jitter_op(rng: &mut StdRng) -> BinOp {
    match rng.random_range(0..4) {
        0 => BinOp::Add,
        1 => BinOp::Mul,
        2 => BinOp::Sub,
        _ => BinOp::Max,
    }
}

/// Build one kernel instance. `idx` uniquifies names, `size` scales the
/// iteration space (kept small: the profiler interprets every access).
/// Returns the kernel's function and its loops with ground truth.
pub fn build_kernel(
    module: &mut Module,
    kind: KernelKind,
    idx: usize,
    size: i64,
    rng: &mut StdRng,
) -> (FuncId, Vec<(LoopId, PatternKind)>) {
    assert!(size >= 4, "kernel size too small");
    let n = size;
    let name = |s: &str| format!("{s}_{idx}");
    let mut loops: Vec<LoopId> = Vec::new();

    let func = match kind {
        KernelKind::VectorMap => {
            let a = module.add_array(name("vm_a"), Ty::F64, n as usize);
            let out = module.add_array(name("vm_b"), Ty::F64, n as usize);
            let op = jitter_op(rng);
            let mut b = FunctionBuilder::new(module, name("vector_map"), 0);
            let (lo, hi, st) = bounds(&mut b, 0, n);
            let l = b.for_loop(lo, hi, st, |b, iv| {
                let x = b.load(a, iv);
                let y = b.bin(op, x, x);
                b.store(out, iv, y);
            });
            loops.push(l);
            b.ret(None);
            b.finish()
        }
        KernelKind::Triad => {
            let a = module.add_array(name("tr_a"), Ty::F64, n as usize);
            let c = module.add_array(name("tr_c"), Ty::F64, n as usize);
            let out = module.add_array(name("tr_o"), Ty::F64, n as usize);
            let scale = rng.random_range(0.5..2.0);
            let mut b = FunctionBuilder::new(module, name("triad"), 0);
            let s = b.const_f64(scale);
            let (lo, hi, st) = bounds(&mut b, 0, n);
            let l = b.for_loop(lo, hi, st, |b, iv| {
                let x = b.load(a, iv);
                let y = b.load(c, iv);
                let sy = b.bin(BinOp::Mul, s, y);
                let r = b.bin(BinOp::Add, x, sy);
                b.store(out, iv, r);
            });
            loops.push(l);
            b.ret(None);
            b.finish()
        }
        KernelKind::DotProduct => {
            let a = module.add_array(name("dp_a"), Ty::F64, n as usize);
            let c = module.add_array(name("dp_b"), Ty::F64, n as usize);
            let s = module.add_array(name("dp_s"), Ty::F64, 1);
            let mut b = FunctionBuilder::new(module, name("dot"), 0);
            let z = b.const_i64(0);
            let (lo, hi, st) = bounds(&mut b, 0, n);
            let l = b.for_loop(lo, hi, st, |b, iv| {
                let x = b.load(a, iv);
                let y = b.load(c, iv);
                let xy = b.bin(BinOp::Mul, x, y);
                let cur = b.load(s, z);
                let nxt = b.bin(BinOp::Add, cur, xy);
                b.store(s, z, nxt);
            });
            loops.push(l);
            b.ret(None);
            b.finish()
        }
        KernelKind::SumReduction => {
            let a = module.add_array(name("sr_a"), Ty::F64, n as usize);
            let s = module.add_array(name("sr_s"), Ty::F64, 1);
            let mut b = FunctionBuilder::new(module, name("sum"), 0);
            let z = b.const_i64(0);
            let (lo, hi, st) = bounds(&mut b, 0, n);
            let l = b.for_loop(lo, hi, st, |b, iv| {
                let x = b.load(a, iv);
                let cur = b.load(s, z);
                let nxt = b.bin(BinOp::Add, cur, x);
                b.store(s, z, nxt);
            });
            loops.push(l);
            b.ret(None);
            b.finish()
        }
        KernelKind::MaxReduction => {
            let a = module.add_array(name("mr_a"), Ty::F64, n as usize);
            let s = module.add_array(name("mr_s"), Ty::F64, 1);
            let mut b = FunctionBuilder::new(module, name("maxred"), 0);
            let z = b.const_i64(0);
            let (lo, hi, st) = bounds(&mut b, 0, n);
            let l = b.for_loop(lo, hi, st, |b, iv| {
                let x = b.load(a, iv);
                let cur = b.load(s, z);
                let nxt = b.bin(BinOp::Max, cur, x);
                b.store(s, z, nxt);
            });
            loops.push(l);
            b.ret(None);
            b.finish()
        }
        KernelKind::Stencil3 => {
            let a = module.add_array(name("st_a"), Ty::F64, (n + 2) as usize);
            let out = module.add_array(name("st_b"), Ty::F64, (n + 2) as usize);
            let mut b = FunctionBuilder::new(module, name("stencil3"), 0);
            let one = b.const_i64(1);
            let (lo, hi, st) = bounds(&mut b, 1, n + 1);
            let l = b.for_loop(lo, hi, st, |b, iv| {
                let im1 = b.bin(BinOp::Sub, iv, one);
                let ip1 = b.bin(BinOp::Add, iv, one);
                let left = b.load(a, im1);
                let mid = b.load(a, iv);
                let right = b.load(a, ip1);
                let s1 = b.bin(BinOp::Add, left, mid);
                let s2 = b.bin(BinOp::Add, s1, right);
                b.store(out, iv, s2);
            });
            loops.push(l);
            b.ret(None);
            b.finish()
        }
        KernelKind::Stencil3InPlace => {
            let a = module.add_array(name("sip_a"), Ty::F64, (n + 2) as usize);
            let mut b = FunctionBuilder::new(module, name("stencil3_inplace"), 0);
            let one = b.const_i64(1);
            let (lo, hi, st) = bounds(&mut b, 1, n + 1);
            let l = b.for_loop(lo, hi, st, |b, iv| {
                let im1 = b.bin(BinOp::Sub, iv, one);
                let ip1 = b.bin(BinOp::Add, iv, one);
                let left = b.load(a, im1);
                let right = b.load(a, ip1);
                let s = b.bin(BinOp::Add, left, right);
                b.store(a, iv, s);
            });
            loops.push(l);
            b.ret(None);
            b.finish()
        }
        KernelKind::PrefixSum => {
            let a = module.add_array(name("ps_a"), Ty::F64, n as usize);
            let out = module.add_array(name("ps_b"), Ty::F64, n as usize);
            let mut b = FunctionBuilder::new(module, name("prefix_sum"), 0);
            let one = b.const_i64(1);
            let (lo, hi, st) = bounds(&mut b, 1, n);
            let l = b.for_loop(lo, hi, st, |b, iv| {
                let im1 = b.bin(BinOp::Sub, iv, one);
                let prev = b.load(out, im1);
                let x = b.load(a, iv);
                let s = b.bin(BinOp::Add, prev, x);
                b.store(out, iv, s);
            });
            loops.push(l);
            b.ret(None);
            b.finish()
        }
        KernelKind::Recurrence => {
            let x = module.add_array(name("rc_x"), Ty::F64, n as usize);
            let alpha = rng.random_range(0.1..0.9);
            let mut b = FunctionBuilder::new(module, name("recurrence"), 0);
            let a = b.const_f64(alpha);
            let beta = b.const_f64(1.0);
            let one = b.const_i64(1);
            let (lo, hi, st) = bounds(&mut b, 1, n);
            let l = b.for_loop(lo, hi, st, |b, iv| {
                let im1 = b.bin(BinOp::Sub, iv, one);
                let prev = b.load(x, im1);
                let ap = b.bin(BinOp::Mul, a, prev);
                let nxt = b.bin(BinOp::Add, ap, beta);
                b.store(x, iv, nxt);
            });
            loops.push(l);
            b.ret(None);
            b.finish()
        }
        KernelKind::MatVec => {
            let rows = (n / 2).max(4);
            let cols = (n / 2).max(4);
            let a = module.add_array(name("mv_a"), Ty::F64, (rows * cols) as usize);
            let x = module.add_array(name("mv_x"), Ty::F64, cols as usize);
            let y = module.add_array(name("mv_y"), Ty::F64, rows as usize);
            let mut b = FunctionBuilder::new(module, name("matvec"), 0);
            let creg = b.const_i64(cols);
            let (lo, hi, st) = bounds(&mut b, 0, rows);
            let outer = b.for_loop(lo, hi, st, |b, i| {
                let z = b.const_f64(0.0);
                b.store(y, i, z);
                let lo2 = b.const_i64(0);
                let hi2 = b.const_i64(cols);
                let st2 = b.const_i64(1);
                let inner = b.for_loop(lo2, hi2, st2, |b, j| {
                    let base = b.bin(BinOp::Mul, i, creg);
                    let ij = b.bin(BinOp::Add, base, j);
                    let av = b.load(a, ij);
                    let xv = b.load(x, j);
                    let p = b.bin(BinOp::Mul, av, xv);
                    let cur = b.load(y, i);
                    let nxt = b.bin(BinOp::Add, cur, p);
                    b.store(y, i, nxt);
                });
                loops.push(inner);
            });
            loops.insert(0, outer);
            b.ret(None);
            b.finish()
        }
        KernelKind::MatMul => {
            let d = (n / 4).clamp(3, 8);
            let a = module.add_array(name("mm_a"), Ty::F64, (d * d) as usize);
            let c = module.add_array(name("mm_b"), Ty::F64, (d * d) as usize);
            let out = module.add_array(name("mm_c"), Ty::F64, (d * d) as usize);
            let mut b = FunctionBuilder::new(module, name("matmul"), 0);
            let dreg = b.const_i64(d);
            let (lo, hi, st) = bounds(&mut b, 0, d);
            let mut mid_inner = Vec::new();
            let outer = b.for_loop(lo, hi, st, |b, i| {
                let lo2 = b.const_i64(0);
                let hi2 = b.const_i64(d);
                let st2 = b.const_i64(1);
                let mid = b.for_loop(lo2, hi2, st2, |b, j| {
                    let basei = b.bin(BinOp::Mul, i, dreg);
                    let ij = b.bin(BinOp::Add, basei, j);
                    let z = b.const_f64(0.0);
                    b.store(out, ij, z);
                    let lo3 = b.const_i64(0);
                    let hi3 = b.const_i64(d);
                    let st3 = b.const_i64(1);
                    let inner = b.for_loop(lo3, hi3, st3, |b, k| {
                        let ik = b.bin(BinOp::Add, basei, k);
                        let basek = b.bin(BinOp::Mul, k, dreg);
                        let kj = b.bin(BinOp::Add, basek, j);
                        let av = b.load(a, ik);
                        let bv = b.load(c, kj);
                        let p = b.bin(BinOp::Mul, av, bv);
                        let cur = b.load(out, ij);
                        let nxt = b.bin(BinOp::Add, cur, p);
                        b.store(out, ij, nxt);
                    });
                    mid_inner.push(inner);
                });
                mid_inner.insert(mid_inner.len() - 1, mid);
            });
            // Order: outer, mid, inner — mid was pushed before inner above
            // via the insert trick; flatten deterministically instead.
            loops.push(outer);
            let mut rest: Vec<LoopId> = mid_inner;
            rest.sort_unstable();
            rest.dedup();
            loops.extend(rest);
            b.ret(None);
            b.finish()
        }
        KernelKind::Jacobi2d => {
            let d = (n / 2).clamp(4, 12);
            let w = d + 2;
            let a = module.add_array(name("j_a"), Ty::F64, (w * w) as usize);
            let out = module.add_array(name("j_b"), Ty::F64, (w * w) as usize);
            let mut b = FunctionBuilder::new(module, name("jacobi2d"), 0);
            let wreg = b.const_i64(w);
            let one = b.const_i64(1);
            let (lo, hi, st) = bounds(&mut b, 1, d + 1);
            let outer = b.for_loop(lo, hi, st, |b, i| {
                let lo2 = b.const_i64(1);
                let hi2 = b.const_i64(d + 1);
                let st2 = b.const_i64(1);
                let inner = b.for_loop(lo2, hi2, st2, |b, j| {
                    let base = b.bin(BinOp::Mul, i, wreg);
                    let ij = b.bin(BinOp::Add, base, j);
                    let jm = b.bin(BinOp::Sub, ij, one);
                    let jp = b.bin(BinOp::Add, ij, one);
                    let im = b.bin(BinOp::Sub, ij, wreg);
                    let ip = b.bin(BinOp::Add, ij, wreg);
                    let v1 = b.load(a, jm);
                    let v2 = b.load(a, jp);
                    let v3 = b.load(a, im);
                    let v4 = b.load(a, ip);
                    let s1 = b.bin(BinOp::Add, v1, v2);
                    let s2 = b.bin(BinOp::Add, v3, v4);
                    let s = b.bin(BinOp::Add, s1, s2);
                    b.store(out, ij, s);
                });
                loops.push(inner);
            });
            loops.insert(0, outer);
            b.ret(None);
            b.finish()
        }
        KernelKind::GaussSeidel => {
            let d = (n / 2).clamp(4, 12);
            let w = d + 2;
            let a = module.add_array(name("gs_a"), Ty::F64, (w * w) as usize);
            let mut b = FunctionBuilder::new(module, name("gauss_seidel"), 0);
            let wreg = b.const_i64(w);
            let one = b.const_i64(1);
            let (lo, hi, st) = bounds(&mut b, 1, d + 1);
            let outer = b.for_loop(lo, hi, st, |b, i| {
                let lo2 = b.const_i64(1);
                let hi2 = b.const_i64(d + 1);
                let st2 = b.const_i64(1);
                let inner = b.for_loop(lo2, hi2, st2, |b, j| {
                    let base = b.bin(BinOp::Mul, i, wreg);
                    let ij = b.bin(BinOp::Add, base, j);
                    let jm = b.bin(BinOp::Sub, ij, one);
                    let jp = b.bin(BinOp::Add, ij, one);
                    let up = b.bin(BinOp::Sub, ij, wreg);
                    let down = b.bin(BinOp::Add, ij, wreg);
                    let v1 = b.load(a, jm);
                    let v2 = b.load(a, jp);
                    let v3 = b.load(a, up);
                    let v4 = b.load(a, down);
                    let s1 = b.bin(BinOp::Add, v1, v2);
                    let s2 = b.bin(BinOp::Add, v3, v4);
                    let s = b.bin(BinOp::Add, s1, s2);
                    b.store(a, ij, s);
                });
                loops.push(inner);
            });
            loops.insert(0, outer);
            b.ret(None);
            b.finish()
        }
        KernelKind::Histogram => {
            let bins = 8.min(n) as usize;
            let keys = module.add_array(name("h_k"), Ty::I64, n as usize);
            let hist = module.add_array(name("h_h"), Ty::F64, bins);
            let mut b = FunctionBuilder::new(module, name("histogram"), 0);
            let breg = b.const_i64(bins as i64);
            // Init: keys[i] = i mod bins (DoAll).
            let (lo, hi, st) = bounds(&mut b, 0, n);
            let init = b.for_loop(lo, hi, st, |b, iv| {
                let k = b.bin(BinOp::Rem, iv, breg);
                b.store(keys, iv, k);
            });
            loops.push(init);
            // Count: hist[keys[i]] += 1 (Reduction on data-dependent cell).
            let onef = b.const_f64(1.0);
            let (lo2, hi2, st2) = bounds(&mut b, 0, n);
            let count = b.for_loop(lo2, hi2, st2, |b, iv| {
                let k = b.load(keys, iv);
                let cur = b.load(hist, k);
                let nxt = b.bin(BinOp::Add, cur, onef);
                b.store(hist, k, nxt);
            });
            loops.push(count);
            b.ret(None);
            b.finish()
        }
        KernelKind::IndirectGather => {
            let a = module.add_array(name("ig_a"), Ty::F64, n as usize);
            let idxa = module.add_array(name("ig_i"), Ty::I64, n as usize);
            let out = module.add_array(name("ig_o"), Ty::F64, n as usize);
            let mut b = FunctionBuilder::new(module, name("gather"), 0);
            let nreg = b.const_i64(n);
            let one = b.const_i64(1);
            // idx[i] = (n-1) - i : a permutation (DoAll init).
            let (lo, hi, st) = bounds(&mut b, 0, n);
            let init = b.for_loop(lo, hi, st, |b, iv| {
                let nm1 = b.bin(BinOp::Sub, nreg, one);
                let r = b.bin(BinOp::Sub, nm1, iv);
                b.store(idxa, iv, r);
            });
            loops.push(init);
            let (lo2, hi2, st2) = bounds(&mut b, 0, n);
            let gather = b.for_loop(lo2, hi2, st2, |b, iv| {
                let j = b.load(idxa, iv);
                let v = b.load(a, j);
                b.store(out, iv, v);
            });
            loops.push(gather);
            b.ret(None);
            b.finish()
        }
        KernelKind::ScatterConflict => {
            let src = module.add_array(name("sc_b"), Ty::F64, n as usize);
            let idxa = module.add_array(name("sc_i"), Ty::I64, n as usize);
            let dst = module.add_array(name("sc_a"), Ty::F64, n as usize);
            let mut b = FunctionBuilder::new(module, name("scatter"), 0);
            let half = b.const_i64((n / 2).max(1));
            // idx[i] = i mod n/2 → every slot written twice (collisions).
            let (lo, hi, st) = bounds(&mut b, 0, n);
            let init = b.for_loop(lo, hi, st, |b, iv| {
                let k = b.bin(BinOp::Rem, iv, half);
                b.store(idxa, iv, k);
            });
            loops.push(init);
            let (lo2, hi2, st2) = bounds(&mut b, 0, n);
            let scatter = b.for_loop(lo2, hi2, st2, |b, iv| {
                let j = b.load(idxa, iv);
                let v = b.load(src, iv);
                b.store(dst, j, v);
            });
            loops.push(scatter);
            b.ret(None);
            b.finish()
        }
        KernelKind::FirFilter => {
            let taps = 4i64;
            let a = module.add_array(name("fir_a"), Ty::F64, (n + taps) as usize);
            let w = module.add_array(name("fir_w"), Ty::F64, taps as usize);
            let out = module.add_array(name("fir_o"), Ty::F64, n as usize);
            let mut b = FunctionBuilder::new(module, name("fir"), 0);
            let t0 = b.const_i64(0);
            let t1 = b.const_i64(1);
            let t2 = b.const_i64(2);
            let t3 = b.const_i64(3);
            let (lo, hi, st) = bounds(&mut b, 0, n);
            let l = b.for_loop(lo, hi, st, |b, iv| {
                // Unrolled 4-tap dot product: disjoint writes to out[i].
                let mut acc = b.const_f64(0.0);
                for t in [t0, t1, t2, t3] {
                    let ai = b.bin(BinOp::Add, iv, t);
                    let x = b.load(a, ai);
                    let wv = b.load(w, t);
                    let p = b.bin(BinOp::Mul, x, wv);
                    acc = b.bin(BinOp::Add, acc, p);
                }
                b.store(out, iv, acc);
            });
            loops.push(l);
            b.ret(None);
            b.finish()
        }
        KernelKind::Transpose => {
            let d = (n / 2).clamp(4, 12);
            let a = module.add_array(name("tp_a"), Ty::F64, (d * d) as usize);
            let out = module.add_array(name("tp_b"), Ty::F64, (d * d) as usize);
            let mut b = FunctionBuilder::new(module, name("transpose"), 0);
            let dreg = b.const_i64(d);
            let (lo, hi, st) = bounds(&mut b, 0, d);
            let outer = b.for_loop(lo, hi, st, |b, i| {
                let lo2 = b.const_i64(0);
                let hi2 = b.const_i64(d);
                let st2 = b.const_i64(1);
                let inner = b.for_loop(lo2, hi2, st2, |b, j| {
                    let basei = b.bin(BinOp::Mul, i, dreg);
                    let ij = b.bin(BinOp::Add, basei, j);
                    let basej = b.bin(BinOp::Mul, j, dreg);
                    let ji = b.bin(BinOp::Add, basej, i);
                    let v = b.load(a, ij);
                    b.store(out, ji, v);
                });
                loops.push(inner);
            });
            loops.insert(0, outer);
            b.ret(None);
            b.finish()
        }
        KernelKind::TriangularSolve => {
            let d = (n / 2).clamp(4, 10);
            let a = module.add_array(name("ts_l"), Ty::F64, (d * d) as usize);
            let rhs = module.add_array(name("ts_b"), Ty::F64, d as usize);
            let x = module.add_array(name("ts_x"), Ty::F64, d as usize);
            let s = module.add_array(name("ts_s"), Ty::F64, 1);
            let mut b = FunctionBuilder::new(module, name("trisolve"), 0);
            let dreg = b.const_i64(d);
            let z = b.const_i64(0);
            // Init diag: a[i*d+i] = 1 (DoAll) so the divide is safe.
            let (lo0, hi0, st0) = bounds(&mut b, 0, d);
            let init = b.for_loop(lo0, hi0, st0, |b, i| {
                let base = b.bin(BinOp::Mul, i, dreg);
                let ii = b.bin(BinOp::Add, base, i);
                let onef = b.const_f64(1.0);
                b.store(a, ii, onef);
            });
            loops.push(init);
            let (lo, hi, st) = bounds(&mut b, 0, d);
            let outer = b.for_loop(lo, hi, st, |b, i| {
                let zf = b.const_f64(0.0);
                b.store(s, z, zf);
                let lo2 = b.const_i64(0);
                let st2 = b.const_i64(1);
                let inner = b.for_loop(lo2, i, st2, |b, j| {
                    let base = b.bin(BinOp::Mul, i, dreg);
                    let ij = b.bin(BinOp::Add, base, j);
                    let lv = b.load(a, ij);
                    let xv = b.load(x, j);
                    let p = b.bin(BinOp::Mul, lv, xv);
                    let cur = b.load(s, z);
                    let nxt = b.bin(BinOp::Add, cur, p);
                    b.store(s, z, nxt);
                });
                loops.push(inner);
                let bv = b.load(rhs, i);
                let sv = b.load(s, z);
                let num = b.bin(BinOp::Sub, bv, sv);
                let base = b.bin(BinOp::Mul, i, dreg);
                let ii = b.bin(BinOp::Add, base, i);
                let dv = b.load(a, ii);
                let xi = b.bin(BinOp::Div, num, dv);
                b.store(x, i, xi);
            });
            loops.insert(1, outer);
            b.ret(None);
            b.finish()
        }
        KernelKind::TaskSpawn => {
            // Recursive fib callee writing nothing shared.
            let out = module.add_array(name("task_o"), Ty::I64, n as usize);
            let fib_id = FuncId(module.funcs.len() as u32);
            {
                let mut fb = FunctionBuilder::new(module, name("fib"), 1);
                let p = fb.param(0);
                let two = fb.const_i64(2);
                let c = fb.bin(BinOp::CmpLt, p, two);
                let result = fb.const_i64(0);
                fb.if_else(
                    c,
                    |fb| fb.copy_to(result, p),
                    |fb| {
                        let one = fb.const_i64(1);
                        let n1 = fb.bin(BinOp::Sub, p, one);
                        let r1 = fb.call(fib_id, &[n1]);
                        let n2 = fb.bin(BinOp::Sub, p, two);
                        let r2 = fb.call(fib_id, &[n2]);
                        let s = fb.bin(BinOp::Add, r1, r2);
                        fb.copy_to(result, s);
                    },
                );
                fb.ret(Some(result));
                let got = fb.finish();
                debug_assert_eq!(got, fib_id);
            }
            let depth = (n / 4).clamp(3, 8);
            let mut b = FunctionBuilder::new(module, name("task_spawn"), 0);
            let dreg = b.const_i64(depth);
            let (lo, hi, st) = bounds(&mut b, 0, n);
            let l = b.for_loop(lo, hi, st, |b, iv| {
                let arg = b.bin(BinOp::Rem, iv, dreg);
                let r = b.call(fib_id, &[arg]);
                b.store(out, iv, r);
            });
            loops.push(l);
            b.ret(None);
            b.finish()
        }
        KernelKind::CallDoAll => {
            let a = module.add_array(name("cd_a"), Ty::F64, n as usize);
            let out = module.add_array(name("cd_o"), Ty::F64, n as usize);
            // Pure helper: poly(x) = x·x + x (registers only).
            let helper = {
                let mut hb = FunctionBuilder::new(module, name("poly"), 1);
                let x = hb.param(0);
                let x2 = hb.bin(BinOp::Mul, x, x);
                let r = hb.bin(BinOp::Add, x2, x);
                hb.ret(Some(r));
                hb.finish()
            };
            let mut b = FunctionBuilder::new(module, name("call_doall"), 0);
            let (lo, hi, st) = bounds(&mut b, 0, n);
            let l = b.for_loop(lo, hi, st, |b, iv| {
                let x = b.load(a, iv);
                let y = b.call(helper, &[x]);
                b.store(out, iv, y);
            });
            loops.push(l);
            b.ret(None);
            b.finish()
        }
        KernelKind::TinyDoAll => {
            let a = module.add_array(name("td_a"), Ty::F64, 2);
            let out = module.add_array(name("td_o"), Ty::F64, 2);
            let mut b = FunctionBuilder::new(&mut *module, name("tiny_doall"), 0);
            let (lo, hi, st) = bounds(&mut b, 0, 2);
            let l = b.for_loop(lo, hi, st, |b, iv| {
                let x = b.load(a, iv);
                let y = b.bin(BinOp::Add, x, x);
                b.store(out, iv, y);
            });
            loops.push(l);
            b.ret(None);
            b.finish()
        }
        KernelKind::ScalarSumReduction => {
            let a = module.add_array(name("ss_a"), Ty::F64, n as usize);
            let out = module.add_array(name("ss_o"), Ty::F64, 1);
            let mut b = FunctionBuilder::new(module, name("scalar_sum"), 0);
            let acc = b.const_f64(0.0);
            let (lo, hi, st) = bounds(&mut b, 0, n);
            let l = b.for_loop(lo, hi, st, |b, iv| {
                let x = b.load(a, iv);
                b.bin_to(acc, BinOp::Add, acc, x);
            });
            loops.push(l);
            let z = b.const_i64(0);
            b.store(out, z, acc);
            b.ret(Some(acc));
            b.finish()
        }
        KernelKind::NonCommutativeScalar => {
            let a = module.add_array(name("nc_a"), Ty::F64, n as usize);
            let out = module.add_array(name("nc_o"), Ty::F64, 1);
            let mut b = FunctionBuilder::new(module, name("noncomm_scalar"), 0);
            let acc = b.const_f64(1.0);
            let (lo, hi, st) = bounds(&mut b, 0, n);
            let l = b.for_loop(lo, hi, st, |b, iv| {
                let x = b.load(a, iv);
                let scaled = b.bin(BinOp::Mul, x, acc);
                b.bin_to(acc, BinOp::Sub, acc, scaled);
            });
            loops.push(l);
            let z = b.const_i64(0);
            b.store(out, z, acc);
            b.ret(Some(acc));
            b.finish()
        }
        KernelKind::DistanceRecurrence => {
            let a = module.add_array(name("dr_a"), Ty::F64, (n + 4) as usize);
            let mut b = FunctionBuilder::new(module, name("dist_rec"), 0);
            let four = b.const_i64(4);
            let onef = b.const_f64(1.0);
            let (lo, hi, st) = bounds(&mut b, 4, n + 4);
            let l = b.for_loop(lo, hi, st, |b, iv| {
                let p = b.bin(BinOp::Sub, iv, four);
                let x = b.load(a, p);
                let y = b.bin(BinOp::Add, x, onef);
                b.store(a, iv, y);
            });
            loops.push(l);
            b.ret(None);
            b.finish()
        }
        KernelKind::GuardedReduction => {
            let a = module.add_array(name("gr_a"), Ty::F64, n as usize);
            let s = module.add_array(name("gr_s"), Ty::F64, 1);
            let mut b = FunctionBuilder::new(module, name("guarded_red"), 0);
            let z = b.const_i64(0);
            let one = b.const_i64(1);
            let (lo, hi, st) = bounds(&mut b, 0, n);
            let l = b.for_loop(lo, hi, st, |b, iv| {
                let bit = b.bin(BinOp::And, iv, one);
                b.if_then(bit, |b| {
                    let x = b.load(a, iv);
                    let cur = b.load(s, z);
                    let nxt = b.bin(BinOp::Add, cur, x);
                    b.store(s, z, nxt);
                });
            });
            loops.push(l);
            b.ret(None);
            b.finish()
        }
        KernelKind::ScatterPermutation => {
            let src = module.add_array(name("sp_b"), Ty::F64, n as usize);
            let idxa = module.add_array(name("sp_i"), Ty::I64, n as usize);
            let dst = module.add_array(name("sp_a"), Ty::F64, n as usize);
            let mut b = FunctionBuilder::new(module, name("scatter_perm"), 0);
            let nreg = b.const_i64(n);
            // Pick a multiplier coprime with n so i·c mod n is a bijection.
            let c = (3..n).find(|&c| gcd(c, n) == 1).unwrap_or(1);
            let creg = b.const_i64(c);
            let (lo, hi, st) = bounds(&mut b, 0, n);
            let init = b.for_loop(lo, hi, st, |b, iv| {
                let prod = b.bin(BinOp::Mul, iv, creg);
                let k = b.bin(BinOp::Rem, prod, nreg);
                b.store(idxa, iv, k);
            });
            loops.push(init);
            let (lo2, hi2, st2) = bounds(&mut b, 0, n);
            let scatter = b.for_loop(lo2, hi2, st2, |b, iv| {
                let j = b.load(idxa, iv);
                let v = b.load(src, iv);
                b.store(dst, j, v);
            });
            loops.push(scatter);
            b.ret(None);
            b.finish()
        }
        KernelKind::GuardedScatter => {
            let key = module.add_array(name("gs_k"), Ty::F64, n as usize);
            let src = module.add_array(name("gs_s"), Ty::F64, n as usize);
            let dst = module.add_array(name("gs_d"), Ty::F64, n as usize);
            let mut b = FunctionBuilder::new(module, name("guarded_scatter"), 0);
            let t = b.const_f64(1.0);
            let z = b.const_i64(0);
            let (lo, hi, st) = bounds(&mut b, 0, n);
            let l = b.for_loop(lo, hi, st, |b, iv| {
                let k = b.load(key, iv);
                let c = b.bin(BinOp::CmpLt, k, t);
                let j = b.copy(z);
                b.if_then(c, |b| {
                    b.copy_to(j, iv);
                });
                let v = b.load(src, iv);
                b.store(dst, j, v);
            });
            loops.push(l);
            b.ret(None);
            b.finish()
        }
        KernelKind::IndirectGatherReduction => {
            let a = module.add_array(name("igr_a"), Ty::F64, n as usize);
            let idxa = module.add_array(name("igr_i"), Ty::I64, n as usize);
            let s = module.add_array(name("igr_s"), Ty::F64, 1);
            let mut b = FunctionBuilder::new(module, name("gather_red"), 0);
            let z = b.const_i64(0);
            let last = b.const_i64(n - 1);
            let (lo, hi, st) = bounds(&mut b, 0, n);
            let init = b.for_loop(lo, hi, st, |b, iv| {
                let k = b.bin(BinOp::Sub, last, iv);
                b.store(idxa, iv, k);
            });
            loops.push(init);
            let (lo2, hi2, st2) = bounds(&mut b, 0, n);
            let red = b.for_loop(lo2, hi2, st2, |b, iv| {
                let j = b.load(idxa, iv);
                let x = b.load(a, j);
                let cur = b.load(s, z);
                let nxt = b.bin(BinOp::Add, cur, x);
                b.store(s, z, nxt);
            });
            loops.push(red);
            b.ret(None);
            b.finish()
        }
        KernelKind::PointerChase => {
            let next = module.add_array(name("pc_n"), Ty::I64, n as usize);
            let pcell = module.add_array(name("pc_p"), Ty::I64, 1);
            let mut b = FunctionBuilder::new(module, name("list_walk"), 0);
            let z = b.const_i64(0);
            let one = b.const_i64(1);
            let nreg = b.const_i64(n);
            let (lo, hi, st) = bounds(&mut b, 0, n);
            let init = b.for_loop(lo, hi, st, |b, iv| {
                let nx = b.bin(BinOp::Add, iv, one);
                b.store(next, iv, nx);
            });
            loops.push(init);
            b.store(pcell, z, z);
            let walk = b.while_loop(
                |b| {
                    let p = b.load(pcell, z);
                    b.bin(BinOp::CmpLt, p, nreg)
                },
                |b| {
                    let p = b.load(pcell, z);
                    let np = b.load(next, p);
                    b.store(pcell, z, np);
                },
            );
            loops.push(walk);
            b.ret(None);
            b.finish()
        }
        KernelKind::TriangularCopy => {
            let a = module.add_array(name("tc_a"), Ty::F64, (n * n) as usize);
            let out = module.add_array(name("tc_o"), Ty::F64, (n * n) as usize);
            let op = jitter_op(rng);
            let mut b = FunctionBuilder::new(module, name("tri_copy"), 0);
            let nreg = b.const_i64(n);
            let (lo, hi, st) = bounds(&mut b, 0, n);
            let outer = b.for_loop(lo, hi, st, |b, i| {
                let lo2 = b.const_i64(0);
                let st2 = b.const_i64(1);
                let inner = b.for_loop(lo2, i, st2, |b, j| {
                    let jn = b.bin(BinOp::Mul, j, nreg);
                    let src = b.bin(BinOp::Add, jn, i);
                    let x = b.load(a, src);
                    let y = b.bin(op, x, x);
                    let base = b.bin(BinOp::Mul, i, nreg);
                    let dst = b.bin(BinOp::Add, base, j);
                    b.store(out, dst, y);
                });
                loops.push(inner);
            });
            loops.insert(0, outer);
            b.ret(None);
            b.finish()
        }
        KernelKind::MultiDistanceRecurrence => {
            let a = module.add_array(name("md_a"), Ty::F64, (n + 5) as usize);
            let mut b = FunctionBuilder::new(module, name("multi_dist"), 0);
            let two = b.const_i64(2);
            let five = b.const_i64(5);
            let (lo, hi, st) = bounds(&mut b, 5, n + 5);
            let l = b.for_loop(lo, hi, st, |b, iv| {
                let p2 = b.bin(BinOp::Sub, iv, two);
                let p5 = b.bin(BinOp::Sub, iv, five);
                let x = b.load(a, p2);
                let y = b.load(a, p5);
                let v = b.bin(BinOp::Add, x, y);
                b.store(a, iv, v);
            });
            loops.push(l);
            b.ret(None);
            b.finish()
        }
    };

    let patterns = kind.patterns();
    assert_eq!(
        loops.len(),
        patterns.len(),
        "{kind:?}: created {} loops, expected {}",
        loops.len(),
        patterns.len()
    );
    (func, loops.into_iter().zip(patterns).collect())
}

fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Emit `(lo, hi, step)` constant registers for a counted loop.
fn bounds(b: &mut FunctionBuilder<'_>, lo: i64, hi: i64) -> (mvgnn_ir::VReg, mvgnn_ir::VReg, mvgnn_ir::VReg) {
    let l = b.const_i64(lo);
    let h = b.const_i64(hi);
    let s = b.const_i64(1);
    (l, h, s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvgnn_ir::verify::verify_module;
    use mvgnn_profiler::{classify_loop, profile_module, LoopClass};
    use rand::SeedableRng;

    /// Every template must (a) verify, (b) execute, and (c) have its
    /// constructive label agree with the dependence profiler's verdict.
    #[test]
    fn all_templates_verify_execute_and_match_profiler() {
        for kind in KernelKind::ALL {
            let mut rng = StdRng::seed_from_u64(9);
            let mut m = Module::new(format!("{kind:?}"));
            let (func, loops) = build_kernel(&mut m, kind, 0, 12, &mut rng);
            verify_module(&m).unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            let res = profile_module(&m, func, &[])
                .unwrap_or_else(|e| panic!("{kind:?}: execution failed: {e}"));
            for (l, pat) in &loops {
                let class = classify_loop(&m, func, *l, &res.deps);
                if kind.trace_limited() {
                    // The whole point: the trace cannot witness the
                    // dependence, so the dynamic verdict *must* disagree
                    // with the expert label.
                    assert!(
                        class.is_parallelizable() && !pat.is_parallelizable(),
                        "{kind:?}: expected an optimistic trace verdict, got {class:?} vs {pat:?}"
                    );
                    continue;
                }
                let expect_parallel = pat.is_parallelizable();
                assert_eq!(
                    class.is_parallelizable(),
                    expect_parallel,
                    "{kind:?} loop {l:?}: template says {pat:?}, profiler says {class:?}"
                );
                // Strong agreement for the named patterns.
                match pat {
                    PatternKind::DoAll | PatternKind::Task => {
                        assert_eq!(class, LoopClass::DoAll, "{kind:?} {l:?}: {class:?}")
                    }
                    PatternKind::Reduction => {
                        assert_eq!(class, LoopClass::Reduction, "{kind:?} {l:?}: {class:?}")
                    }
                    PatternKind::Serial => {
                        assert!(matches!(class, LoopClass::NotParallel { .. }))
                    }
                }
            }
        }
    }

    #[test]
    fn every_family_is_populated_and_every_kind_has_one() {
        let mut seen = std::collections::HashSet::new();
        for kind in KernelKind::ALL {
            seen.insert(kind.family());
        }
        for fam in KernelFamily::ALL {
            assert!(seen.contains(&fam), "{fam}: no kernel in family");
        }
        // The four adversarial kinds land where the taxonomy says.
        assert_eq!(KernelKind::IndirectGatherReduction.family(), KernelFamily::Indirect);
        assert_eq!(KernelKind::PointerChase.family(), KernelFamily::PointerChase);
        assert_eq!(KernelKind::TriangularCopy.family(), KernelFamily::Triangular);
        assert_eq!(
            KernelKind::MultiDistanceRecurrence.family(),
            KernelFamily::LongDistance
        );
    }

    #[test]
    fn loop_counts_match_declaration() {
        for kind in KernelKind::ALL {
            let mut rng = StdRng::seed_from_u64(1);
            let mut m = Module::new("t");
            let (_, loops) = build_kernel(&mut m, kind, 0, 8, &mut rng);
            assert_eq!(loops.len(), kind.loop_count(), "{kind:?}");
            assert_eq!(kind.patterns().len(), kind.loop_count(), "{kind:?}");
        }
    }

    #[test]
    fn kernels_compose_in_one_module() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut m = Module::new("app");
        let mut all = Vec::new();
        for (i, kind) in [KernelKind::VectorMap, KernelKind::SumReduction, KernelKind::PrefixSum]
            .into_iter()
            .enumerate()
        {
            all.push(build_kernel(&mut m, kind, i, 8, &mut rng));
        }
        verify_module(&m).unwrap();
        assert_eq!(m.loop_count(), 3);
        // Each runs independently.
        for (f, _) in &all {
            profile_module(&m, *f, &[]).unwrap();
        }
    }

    #[test]
    fn task_spawn_runs_recursion() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut m = Module::new("t");
        let (f, loops) = build_kernel(&mut m, KernelKind::TaskSpawn, 0, 16, &mut rng);
        let res = profile_module(&m, f, &[]).unwrap();
        assert!(res.stats.calls > 16, "driver must call fib per iteration");
        assert_eq!(loops.len(), 1);
    }

    #[test]
    fn jitter_produces_different_token_streams() {
        let build = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut m = Module::new("t");
            build_kernel(&mut m, KernelKind::VectorMap, 0, 8, &mut rng);
            m.funcs[0].insts().iter().map(|i| i.token()).collect::<Vec<_>>()
        };
        let variants: std::collections::HashSet<Vec<&str>> = (0..12).map(build).collect();
        assert!(variants.len() >= 2, "op jitter should vary the stream");
    }
}
