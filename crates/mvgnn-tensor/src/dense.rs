//! Dense row-major matrix kernels.
//!
//! These are the hot loops of training; they follow the perf-book basics:
//! flat `Vec<f32>` storage and register tiles that vectorise across
//! independent output columns. No kernel vectorises along a reduction:
//! every output element keeps the exact sequence of rounded operations
//! of the plain scalar loop (same order, same start value, same skips),
//! so results are bit-identical whatever the tile shapes or the vector
//! width `target-cpu` picks. Everything runs on the calling thread.

use crate::workspace::Workspace;

/// Row count of the largest register tile; the column count is 16
/// (4×16 f32 = 8 ymm accumulators plus broadcast/load registers).
const MR: usize = 4;

/// Greedy decomposition of `$n` output columns into 16/8/4/2/1-wide
/// register tiles (no scalar fallback path): evaluates `$tile` once per
/// tile with `$j0` bound to its first column and the const `$nr` to its
/// width.
macro_rules! col_tiles {
    ($n:expr, |$j0:ident, $nr:ident| $tile:expr) => {{
        let n: usize = $n;
        let mut $j0 = 0;
        while $j0 + 16 <= n {
            const $nr: usize = 16;
            $tile;
            $j0 += 16;
        }
        if $j0 + 8 <= n {
            const $nr: usize = 8;
            $tile;
            $j0 += 8;
        }
        if $j0 + 4 <= n {
            const $nr: usize = 4;
            $tile;
            $j0 += 4;
        }
        if $j0 + 2 <= n {
            const $nr: usize = 2;
            $tile;
            $j0 += 2;
        }
        if $j0 < n {
            const $nr: usize = 1;
            $tile;
        }
    }};
}

/// MRB×NRB register-tile micro-kernel:
/// `ct[r][j0..j0+NRB] = Σ_p at[r][p] · b[p][j]` for MRB full rows.
/// The fixed-size `acc` array is promoted to vector registers, so the
/// k-loop runs load/store-free instead of round-tripping every partial
/// sum through memory, and the MRB independent rows hide FMA latency.
///
/// Every output element starts at 0.0 and accumulates in ascending-`p`
/// order regardless of MRB/NRB, so any greedy decomposition of a matrix
/// into these tiles produces bit-identical results — in particular, a
/// graph's rows inside a packed batch match the same graph multiplied
/// alone. `FUSED` picks fused multiply-adds (the forward pass) or a
/// product rounded before its add (the backward passes, matching their
/// scalar `acc += a * b` loops); `ACCUM` adds the finished sum to `ct`
/// once instead of storing it.
#[inline(always)]
fn mm_kernel<const MRB: usize, const NRB: usize, const FUSED: bool, const ACCUM: bool>(
    at: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    j0: usize,
    ct: &mut [f32],
) {
    let mut acc = [[0.0f32; NRB]; MRB];
    for p in 0..k {
        // The range is exactly NRB long, so the conversion always
        // succeeds; the `else` arm only keeps this panic-free.
        let Ok(brow) = <&[f32; NRB]>::try_from(&b[p * n + j0..p * n + j0 + NRB]) else {
            continue;
        };
        for (r, accr) in acc.iter_mut().enumerate() {
            let av = at[r * k + p];
            for j in 0..NRB {
                accr[j] = if FUSED { av.mul_add(brow[j], accr[j]) } else { accr[j] + av * brow[j] };
            }
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        let crow = &mut ct[r * n + j0..r * n + j0 + NRB];
        if ACCUM {
            for (cv, &x) in crow.iter_mut().zip(accr) {
                *cv += x;
            }
        } else {
            crow.copy_from_slice(accr);
        }
    }
}

/// One block of MRB rows, split into column tiles.
fn mm_block<const MRB: usize, const FUSED: bool, const ACCUM: bool>(
    at: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    ct: &mut [f32],
) {
    col_tiles!(n, |j0, NR| mm_kernel::<MRB, NR, FUSED, ACCUM>(at, b, k, n, j0, ct));
}

/// Up to MR rows of output: greedy row decomposition into 4/2/1-row
/// blocks.
fn mm_rows<const FUSED: bool, const ACCUM: bool>(
    at: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    ct: &mut [f32],
) {
    let rows = ct.len() / n;
    let mut r0 = 0;
    while r0 + 4 <= rows {
        let (at, ct) = (&at[r0 * k..(r0 + 4) * k], &mut ct[r0 * n..(r0 + 4) * n]);
        mm_block::<4, FUSED, ACCUM>(at, b, k, n, ct);
        r0 += 4;
    }
    if r0 + 2 <= rows {
        let (at, ct) = (&at[r0 * k..(r0 + 2) * k], &mut ct[r0 * n..(r0 + 2) * n]);
        mm_block::<2, FUSED, ACCUM>(at, b, k, n, ct);
        r0 += 2;
    }
    if r0 < rows {
        let (at, ct) = (&at[r0 * k..(r0 + 1) * k], &mut ct[r0 * n..(r0 + 1) * n]);
        mm_block::<1, FUSED, ACCUM>(at, b, k, n, ct);
    }
}

/// `c[m×n] (=|+=) a[m×k] · b[k×n]`, MR output rows at a time.
fn mm<const FUSED: bool, const ACCUM: bool>(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    k: usize,
    n: usize,
) {
    if n == 0 {
        return;
    }
    for (i, ct) in c.chunks_mut(MR * n).enumerate() {
        let rows = ct.len() / n;
        mm_rows::<FUSED, ACCUM>(&a[i * MR * k..(i * MR + rows) * k], b, k, n, ct);
    }
}

/// `c[m×n] = a[m×k] · b[k×n]` (c is overwritten).
pub fn matmul(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "lhs size");
    assert_eq!(b.len(), k * n, "rhs size");
    assert_eq!(c.len(), m * n, "out size");
    mm::<true, false>(a, b, c, k, n);
}

/// `c[m×n] = a[m×k] · b[k×n]` with every product rounded before it is
/// added to a running sum that starts at 0.0 (c is overwritten) — the
/// unfused sibling of [`matmul`] that the backward passes use.
pub(crate) fn matmul_unfused(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "lhs size");
    assert_eq!(b.len(), k * n, "rhs size");
    assert_eq!(c.len(), m * n, "out size");
    mm::<false, false>(a, b, c, k, n);
}

/// MRB×NRB tile of `ct[r][j0..j0+NRB] += Σ_p a[p][r] · b[p][j]` where
/// `a` starts at the tile's first column and has row stride `m`. The C
/// tile stays in registers across the whole `p` loop and every element
/// adds its products straight into its running value in ascending `p` —
/// the scalar loop's sequence. With `SKIP`, a row whose `a` entry is
/// exactly zero skips that `p` (so `0 · ∞` never turns into NaN).
#[inline(always)]
fn at_b_kernel<const MRB: usize, const NRB: usize, const SKIP: bool>(
    a: &[f32],
    b: &[f32],
    k: usize,
    m: usize,
    n: usize,
    j0: usize,
    ct: &mut [f32],
) {
    let mut acc = [[0.0f32; NRB]; MRB];
    for (r, accr) in acc.iter_mut().enumerate() {
        accr.copy_from_slice(&ct[r * n + j0..r * n + j0 + NRB]);
    }
    for p in 0..k {
        // Both ranges have exactly the array's length; the `else` arms
        // only keep this panic-free.
        let Ok(brow) = <&[f32; NRB]>::try_from(&b[p * n + j0..p * n + j0 + NRB]) else {
            continue;
        };
        let Ok(acol) = <&[f32; MRB]>::try_from(&a[p * m..p * m + MRB]) else {
            continue;
        };
        for (accr, &av) in acc.iter_mut().zip(acol) {
            if SKIP && av == 0.0 {
                continue;
            }
            for j in 0..NRB {
                accr[j] += av * brow[j];
            }
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        ct[r * n + j0..r * n + j0 + NRB].copy_from_slice(accr);
    }
}

/// `c[m×n] += aᵀ · b` for `a` stored `k×m`: greedy 4/2/1-row blocks of
/// C, each split into column tiles.
pub(crate) fn at_b_accum<const SKIP: bool>(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    k: usize,
    m: usize,
    n: usize,
) {
    assert_eq!(a.len(), k * m, "lhs size");
    assert_eq!(b.len(), k * n, "rhs size");
    assert_eq!(c.len(), m * n, "out size");
    if k == 0 {
        return;
    }
    let mut i0 = 0;
    while i0 + 4 <= m {
        let (a, ct) = (&a[i0..], &mut c[i0 * n..(i0 + 4) * n]);
        col_tiles!(n, |j0, NR| at_b_kernel::<4, NR, SKIP>(a, b, k, m, n, j0, ct));
        i0 += 4;
    }
    if i0 + 2 <= m {
        let (a, ct) = (&a[i0..], &mut c[i0 * n..(i0 + 2) * n]);
        col_tiles!(n, |j0, NR| at_b_kernel::<2, NR, SKIP>(a, b, k, m, n, j0, ct));
        i0 += 2;
    }
    if i0 < m {
        let (a, ct) = (&a[i0..], &mut c[i0 * n..(i0 + 1) * n]);
        col_tiles!(n, |j0, NR| at_b_kernel::<1, NR, SKIP>(a, b, k, m, n, j0, ct));
    }
}

/// `c[m×n] += aᵀ[k×m]ᵀ · b[k×n]` — accumulating `Aᵀ·B` where `a` is stored
/// `k×m`. Used by matmul backward for the lhs-transposed product. Each
/// element adds `a[p][i] · b[p][j]` to its running value in ascending
/// `p`, skipping every `p` with `a[p][i] == 0`.
pub fn matmul_at_b_accum(a: &[f32], b: &[f32], c: &mut [f32], k: usize, m: usize, n: usize) {
    at_b_accum::<true>(a, b, c, k, m, n);
}

/// `c[m×k] += a[m×n] · bᵀ[k×n]ᵀ` — accumulating `A·Bᵀ` where `b` is stored
/// `k×n`. Used by matmul backward for the rhs-transposed product. Each
/// element sums `a[i][p] · b[j][p]` from 0.0 in ascending `p`, then adds
/// the sum to `c` once; `b` is transposed once into a buffer from `ws`
/// so the tiles run across output columns.
pub fn matmul_a_bt_accum(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    n: usize,
    k: usize,
    ws: &mut Workspace,
) {
    assert_eq!(a.len(), m * n, "lhs size");
    assert_eq!(b.len(), k * n, "rhs size");
    assert_eq!(c.len(), m * k, "out size");
    let mut bt = ws.acquire_f32(n * k);
    transpose_into(b, k, n, &mut bt);
    mm::<false, true>(a, &bt, c, n, k);
    ws.release_f32(bt);
}

/// Branchless single-precision `tanh` via the identity `1 − 2/(e²ˣ + 1)`
/// with an inlined polynomial `exp` (Cephes minimax coefficients). Every
/// step is straight-line float/int arithmetic, so the elementwise loop in
/// [`tanh_vec`] autovectorises — libm's `tanhf`/`expf` are opaque calls
/// and do not. Stays within ~2e-7 of libm `tanh`, saturates exactly to
/// ±1 for |x| ≥ 10, and propagates NaN.
#[inline(always)]
fn tanh_branchless(x: f32) -> f32 {
    // z = 2x, clamped to where tanh is already ±1 at f32 precision
    // (|z| ≥ 20 ⇒ 2/(e^z + 1) < 5e-9 < one ulp of 1.0). Written as two
    // selects rather than min/max so NaN falls through unchanged (both
    // comparisons are false) and poisons the rest of the pipeline —
    // min/max would swallow it, and a separate is_nan fix-up branch
    // defeats vectorisation.
    let z2 = 2.0 * x;
    #[allow(clippy::manual_clamp)] // clamp() keeps NaN out; we need it through
    let z = if z2 > 20.0 {
        20.0
    } else if z2 < -20.0 {
        -20.0
    } else {
        z2
    };
    // exp(z): split z = n·ln2 + r, evaluate a polynomial on r, scale by
    // 2ⁿ through the exponent bits. The 1.5·2²³ magic constant rounds
    // n to the nearest integer without a branch or an fenv round trip.
    const LOG2E: f32 = std::f32::consts::LOG2_E;
    // Exactly 0x1.63p-1: the low mantissa bits are zero so n·LN2_HI is
    // exact for |n| ≤ 29 — don't shorten the literal.
    #[allow(clippy::excessive_precision)]
    const LN2_HI: f32 = 0.693_359_375;
    const LN2_LO: f32 = -2.121_944_4e-4;
    const MAGIC: f32 = 12_582_912.0;
    let nf = z.mul_add(LOG2E, MAGIC);
    let n = nf - MAGIC;
    let r = n.mul_add(-LN2_LO, n.mul_add(-LN2_HI, z));
    // Degree-6 minimax polynomial for exp(r) on |r| ≤ ln2 / 2.
    let mut p = 1.987_569_1e-4f32;
    p = p.mul_add(r, 1.398_199_9e-3);
    p = p.mul_add(r, 8.333_452e-3);
    p = p.mul_add(r, 4.166_579_6e-2);
    p = p.mul_add(r, 1.666_666_6e-1);
    p = p.mul_add(r, 0.5);
    let p = (p * r).mul_add(r, r + 1.0);
    // 2ⁿ, read straight out of the magic sum's low mantissa bits:
    // nf = 1.5·2²³ + n has bit pattern 0x4B400000 + n (mantissa ulp is
    // exactly 1.0 in that binade), so no float→int cast is needed — a
    // saturating `as i32` cast would scalarise the loop. NaN reaches
    // here with r = NaN and a garbage (but well-defined) scale, so the
    // result is still NaN without any explicit fix-up.
    let ni = (nf.to_bits() as i32).wrapping_sub(0x4B40_0000);
    let e = p * f32::from_bits((ni.wrapping_add(127).wrapping_shl(23)) as u32);
    1.0 - 2.0 / (e + 1.0)
}

/// Elementwise `tanh` of a slice into a fresh vec (vectorised; see
/// `tanh_branchless` for the numerics).
pub fn tanh_vec(x: &[f32]) -> Vec<f32> {
    x.iter().map(|&v| tanh_branchless(v)).collect()
}

/// Elementwise `tanh` into a caller-provided buffer (same numerics as
/// [`tanh_vec`], bit for bit) — the allocation-free flavour used by the
/// pooled tape. `out.len()` must equal `x.len()`.
pub fn tanh_into(x: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), out.len(), "tanh_into length mismatch");
    for (o, &v) in out.iter_mut().zip(x) {
        *o = tanh_branchless(v);
    }
}

/// Transpose `a[m×n]` into a fresh `n×m` vec.
pub fn transpose(a: &[f32], m: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; n * m];
    transpose_into(a, m, n, &mut out);
    out
}

/// Transpose `a[m×n]` into `out[n×m]`. Writes each output row
/// contiguously while reading `a` down one column, 32 rows of `a` at a
/// time so the rows being read stay in L1 across all `n` columns.
pub fn transpose_into(a: &[f32], m: usize, n: usize, out: &mut [f32]) {
    const ROWS: usize = 32;
    assert_eq!(a.len(), m * n, "transpose input size");
    assert_eq!(out.len(), n * m, "transpose output size");
    for i0 in (0..m).step_by(ROWS) {
        let i1 = (i0 + ROWS).min(m);
        for (j, orow) in out.chunks_exact_mut(m.max(1)).enumerate() {
            for (i, o) in (i0..i1).zip(&mut orow[i0..i1]) {
                *o = a[i * n + j];
            }
        }
    }
}

/// Numerically stable row-wise softmax of `x[rows×cols]`, in place, with a
/// temperature divisor applied to the logits first.
pub fn softmax_rows(x: &mut [f32], rows: usize, cols: usize, temperature: f32) {
    assert_eq!(x.len(), rows * cols);
    assert!(temperature > 0.0, "temperature must be positive");
    for r in x.chunks_mut(cols) {
        let mut max = f32::NEG_INFINITY;
        for v in r.iter_mut() {
            *v /= temperature;
            max = max.max(*v);
        }
        let mut sum = 0.0f32;
        for v in r.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        let inv = 1.0 / sum;
        for v in r.iter_mut() {
            *v *= inv;
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn matmul_small() {
        // [1 2; 3 4] · [5 6; 7 8] = [19 22; 43 50]
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        let mut c = [0.0f32; 4];
        matmul(&a, &b, &mut c, 2, 2, 2);
        assert_eq!(c, [19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rectangular() {
        // 1×3 · 3×2
        let a = [1.0, 2.0, 3.0];
        let b = [1.0, 0.0, 0.0, 1.0, 1.0, 1.0];
        let mut c = [0.0f32; 2];
        matmul(&a, &b, &mut c, 1, 3, 2);
        assert_eq!(c, [4.0, 5.0]);
    }

    #[test]
    fn row_blocks_match_one_row_at_a_time() {
        let m = 64;
        let k = 64;
        let n = 64;
        let a: Vec<f32> = (0..m * k).map(|i| ((i % 13) as f32) - 6.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| ((i % 7) as f32) * 0.5).collect();
        let mut c1 = vec![0.0f32; m * n];
        matmul(&a, &b, &mut c1, m, k, n);
        let mut c2 = vec![0.0f32; m * n];
        for i in 0..m {
            let mut row = vec![0.0f32; n];
            matmul(&a[i * k..(i + 1) * k], &b, &mut row, 1, k, n);
            c2[i * n..(i + 1) * n].copy_from_slice(&row);
        }
        assert_eq!(c1, c2);
    }

    #[test]
    fn at_b_matches_explicit_transpose() {
        let k = 3;
        let m = 2;
        let n = 4;
        let a: Vec<f32> = (0..k * m).map(|i| i as f32).collect(); // k×m
        let b: Vec<f32> = (0..k * n).map(|i| (i as f32) * 0.5).collect(); // k×n
        let mut c = vec![0.0f32; m * n];
        matmul_at_b_accum(&a, &b, &mut c, k, m, n);
        let at = transpose(&a, k, m); // m×k
        let mut expect = vec![0.0f32; m * n];
        matmul(&at, &b, &mut expect, m, k, n);
        for (x, y) in c.iter().zip(&expect) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn a_bt_matches_explicit_transpose() {
        let m = 2;
        let n = 3;
        let k = 4;
        let a: Vec<f32> = (0..m * n).map(|i| i as f32).collect(); // m×n
        let b: Vec<f32> = (0..k * n).map(|i| (i as f32) - 5.0).collect(); // k×n
        let mut c = vec![0.0f32; m * k];
        matmul_a_bt_accum(&a, &b, &mut c, m, n, k, &mut Workspace::new());
        let bt = transpose(&b, k, n); // n×k
        let mut expect = vec![0.0f32; m * k];
        matmul(&a, &bt, &mut expect, m, n, k);
        for (x, y) in c.iter().zip(&expect) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn accumulating_kernels_accumulate() {
        let a = [1.0f32, 0.0, 0.0, 1.0]; // 2×2 identity, k=m=2
        let b = [1.0f32, 2.0, 3.0, 4.0];
        let mut c = vec![10.0f32; 4];
        matmul_at_b_accum(&a, &b, &mut c, 2, 2, 2);
        assert_eq!(c, vec![11.0, 12.0, 13.0, 14.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let a: Vec<f32> = (0..6).map(|i| i as f32).collect();
        let t = transpose(&a, 2, 3);
        assert_eq!(t, vec![0.0, 3.0, 1.0, 4.0, 2.0, 5.0]);
        assert_eq!(transpose(&t, 3, 2), a);
    }

    #[test]
    fn softmax_rows_normalises() {
        let mut x = vec![1.0f32, 2.0, 3.0, -1.0, 0.0, 1.0];
        softmax_rows(&mut x, 2, 3, 1.0);
        for r in x.chunks(3) {
            let s: f32 = r.iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
            assert!(r[2] > r[1] && r[1] > r[0]);
        }
    }

    #[test]
    fn softmax_temperature_sharpens() {
        let mut hot = vec![1.0f32, 2.0];
        let mut cold = vec![1.0f32, 2.0];
        softmax_rows(&mut hot, 1, 2, 0.5);
        softmax_rows(&mut cold, 1, 2, 2.0);
        assert!(hot[1] > cold[1], "low temperature must sharpen the max");
    }

    #[test]
    fn tanh_vec_tracks_libm() {
        let xs: Vec<f32> = (-4000..=4000).map(|i| i as f32 * 0.005).collect();
        for (&x, &t) in xs.iter().zip(&tanh_vec(&xs)) {
            let want = (x as f64).tanh() as f32;
            assert!((t - want).abs() <= 3e-7, "tanh({x}) = {t}, want {want}");
        }
    }

    #[test]
    fn tanh_vec_saturates_and_propagates_specials() {
        let out = tanh_vec(&[
            15.0,
            -15.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            0.0,
            -0.0,
        ]);
        assert_eq!(out[0], 1.0);
        assert_eq!(out[1], -1.0);
        assert_eq!(out[2], 1.0);
        assert_eq!(out[3], -1.0);
        assert!(out[4].is_nan());
        assert_eq!(out[5], 0.0);
        assert_eq!(out[6], 0.0);
    }

    /// The scalar `Aᵀ·B` loop the tiled kernel replaced, kept as its
    /// bitwise reference.
    fn at_b_reference(a: &[f32], b: &[f32], c: &mut [f32], k: usize, m: usize, n: usize) {
        for p in 0..k {
            let arow = &a[p * m..(p + 1) * m];
            let brow = &b[p * n..(p + 1) * n];
            for (i, &av) in arow.iter().enumerate() {
                if av != 0.0 {
                    let crow = &mut c[i * n..(i + 1) * n];
                    for (cv, &bv) in crow.iter_mut().zip(brow) {
                        *cv += av * bv;
                    }
                }
            }
        }
    }

    /// The scalar `A·Bᵀ` loop the tiled kernel replaced.
    fn a_bt_reference(a: &[f32], b: &[f32], c: &mut [f32], m: usize, n: usize, k: usize) {
        for i in 0..m {
            let arow = &a[i * n..(i + 1) * n];
            let crow = &mut c[i * k..(i + 1) * k];
            for (j, cv) in crow.iter_mut().enumerate() {
                let brow = &b[j * n..(j + 1) * n];
                let mut acc = 0.0f32;
                for (&av, &bv) in arow.iter().zip(brow) {
                    acc += av * bv;
                }
                *cv += acc;
            }
        }
    }

    /// The plain fused-multiply-add loop the forward tiles follow.
    fn matmul_reference(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc = a[i * k + p].mul_add(b[p * n + j], acc);
                }
                c[i * n + j] = acc;
            }
        }
    }

    /// Deterministic operands: small values with exact zeros and −0.0
    /// mixed in, plus NaN and ±∞ when `specials` is set.
    pub(crate) fn operand(len: usize, seed: u64, specials: bool) -> Vec<f32> {
        let mut z = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..len)
            .map(|_| {
                z ^= z << 13;
                z ^= z >> 7;
                z ^= z << 17;
                match z % 23 {
                    0..=2 => 0.0,
                    3 => -0.0,
                    4 if specials => f32::NAN,
                    5 if specials => f32::INFINITY,
                    6 if specials => f32::NEG_INFINITY,
                    _ => ((z >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 3.0,
                }
            })
            .collect()
    }

    /// Bitwise equality, except that any two NaNs match: Rust leaves the
    /// payload of a NaN produced by arithmetic unspecified.
    pub(crate) fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{what}: element {i} is {g:?} ({:#010x}), reference {w:?} ({:#010x})",
                g.to_bits(),
                w.to_bits()
            );
        }
    }

    const DIMS: [usize; 11] = [0, 1, 2, 3, 4, 5, 7, 9, 16, 17, 33];

    #[test]
    fn tiled_kernels_match_scalar_references_bitwise() {
        let mut seed = 1;
        for specials in [false, true] {
            for &m in &DIMS {
                for &n in &DIMS {
                    for &k in &[0, 1, 3, 4, 8, 17] {
                        seed += 1;
                        let shape = format!("m {m} n {n} k {k} specials {specials}");
                        // A·Bᵀ: a m×n, b k×n, c m×k.
                        let a = operand(m * n, seed, specials);
                        let b = operand(k * n, seed + 1000, specials);
                        let c0 = operand(m * k, seed + 2000, specials);
                        let (mut got, mut want) = (c0.clone(), c0.clone());
                        matmul_a_bt_accum(&a, &b, &mut got, m, n, k, &mut Workspace::new());
                        a_bt_reference(&a, &b, &mut want, m, n, k);
                        assert_same_bits(&got, &want, &format!("a_bt {shape}"));
                        // Aᵀ·B: a k×m, b k×n, c m×n.
                        let a = operand(k * m, seed + 3000, specials);
                        let b = operand(k * n, seed + 4000, specials);
                        let c0 = operand(m * n, seed + 5000, specials);
                        let (mut got, mut want) = (c0.clone(), c0.clone());
                        matmul_at_b_accum(&a, &b, &mut got, k, m, n);
                        at_b_reference(&a, &b, &mut want, k, m, n);
                        assert_same_bits(&got, &want, &format!("at_b {shape}"));
                        // Forward A·B: a m×k, b k×n.
                        if n > 0 {
                            let a = operand(m * k, seed + 6000, specials);
                            let b = operand(k * n, seed + 7000, specials);
                            let (mut got, mut want) = (vec![0.0; m * n], vec![0.0; m * n]);
                            matmul(&a, &b, &mut got, m, k, n);
                            matmul_reference(&a, &b, &mut want, m, k, n);
                            assert_same_bits(&got, &want, &format!("matmul {shape}"));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn at_b_skips_zero_lhs_entries() {
        // 0 · ∞ would be NaN and −0.0 + 0.0 would be +0.0; a skipped
        // entry leaves both untouched, as the scalar loop did.
        let a = [0.0f32, -0.0, 1.0]; // k = 3, m = 1
        let b = [f32::INFINITY, f32::NAN, 2.0]; // k = 3, n = 1
        let mut c = [-0.0f32];
        matmul_at_b_accum(&a, &b, &mut c, 3, 1, 1);
        assert_eq!(c[0].to_bits(), 2.0f32.to_bits());
        let mut c = [-0.0f32];
        matmul_at_b_accum(&a[..2], &b[..2], &mut c, 2, 1, 1);
        assert_eq!(c[0].to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn softmax_handles_large_logits() {
        let mut x = vec![1000.0f32, 1001.0];
        softmax_rows(&mut x, 1, 2, 1.0);
        assert!(x.iter().all(|v| v.is_finite()));
        assert!((x[0] + x[1] - 1.0).abs() < 1e-5);
    }
}
