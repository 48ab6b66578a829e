//! Test-only reference for the affine algebra and the pair tests: the
//! `BTreeMap` algebra, `conflicts` and pair classification that
//! [`crate::affine::Coeffs`] replaced, with every `i64` operation
//! checked, so that an operation that would overflow (panic in a debug
//! build, wrap in a release build) reports `None` instead.
//!
//! The property test below drives both forms through seeded random
//! expression programs and requires them to agree wherever the reference
//! does not overflow, and the new form to be `Unknown` (or a conflict)
//! wherever it would.

use crate::affine::{conflicts, Access, AffineExpr};
use crate::oracle::{test_pair, DepTest, PairResult};
use mvgnn_ir::module::BlockId;
use mvgnn_ir::types::{ArrayId, VReg};
use std::collections::BTreeMap;

/// The reference expression, as `AffineExpr` was before `Coeffs`.
#[derive(Debug, Clone, PartialEq, Eq)]
enum RefExpr {
    Affine { constant: i64, coeffs: BTreeMap<u32, i64> },
    Unknown,
}

impl RefExpr {
    fn constant(c: i64) -> RefExpr {
        RefExpr::Affine { constant: c, coeffs: BTreeMap::new() }
    }

    fn var(reg: u32) -> RefExpr {
        RefExpr::Affine { constant: 0, coeffs: BTreeMap::from([(reg, 1)]) }
    }

    fn add(&self, other: &RefExpr, negate: bool) -> Option<RefExpr> {
        match (self, other) {
            (
                RefExpr::Affine { constant: c1, coeffs: k1 },
                RefExpr::Affine { constant: c2, coeffs: k2 },
            ) => {
                let sign: i64 = if negate { -1 } else { 1 };
                let mut coeffs = k1.clone();
                for (&r, &c) in k2 {
                    let e = coeffs.entry(r).or_insert(0);
                    *e = e.checked_add(sign.checked_mul(c)?)?;
                }
                coeffs.retain(|_, &mut c| c != 0);
                Some(RefExpr::Affine { constant: c1.checked_add(sign.checked_mul(*c2)?)?, coeffs })
            }
            _ => Some(RefExpr::Unknown),
        }
    }

    fn mul(&self, other: &RefExpr) -> Option<RefExpr> {
        match (self, other) {
            (RefExpr::Affine { constant, coeffs }, rhs) if coeffs.is_empty() => rhs.scale(*constant),
            (lhs, RefExpr::Affine { constant, coeffs }) if coeffs.is_empty() => lhs.scale(*constant),
            _ => Some(RefExpr::Unknown),
        }
    }

    fn scale(&self, s: i64) -> Option<RefExpr> {
        match self {
            RefExpr::Affine { constant, coeffs } => {
                let mut k = BTreeMap::new();
                for (&r, &c) in coeffs {
                    k.insert(r, c.checked_mul(s)?);
                }
                k.retain(|_, &mut c| c != 0);
                Some(RefExpr::Affine { constant: constant.checked_mul(s)?, coeffs: k })
            }
            RefExpr::Unknown => Some(RefExpr::Unknown),
        }
    }
}

fn ref_gcd(a: i64, b: i64) -> Option<i64> {
    let (mut a, mut b) = (a.checked_abs()?, b.checked_abs()?);
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    Some(a)
}

/// The old `conflicts` on two index expressions.
fn ref_conflicts(iv: u32, a: &RefExpr, b: &RefExpr) -> Option<bool> {
    let (
        RefExpr::Affine { constant: c1, coeffs: k1 },
        RefExpr::Affine { constant: c2, coeffs: k2 },
    ) = (a, b)
    else {
        return Some(true);
    };
    let a_iv = k1.get(&iv).copied().unwrap_or(0);
    let b_iv = k2.get(&iv).copied().unwrap_or(0);
    let strip = |k: &BTreeMap<u32, i64>| -> BTreeMap<u32, i64> {
        k.iter().filter(|&(&r, _)| r != iv).map(|(&r, &c)| (r, c)).collect()
    };
    if strip(k1) != strip(k2) {
        return Some(true);
    }
    let dc = c2.checked_sub(*c1)?;
    Some(match (a_iv, b_iv) {
        (0, 0) => dc == 0,
        (x, y) if x == y => dc != 0 && dc.checked_rem(x)? == 0,
        (x, y) => {
            let g = ref_gcd(x, y)?;
            g != 0 && dc % g == 0
        }
    })
}

/// The old pair classification on two index expressions.
fn ref_pair(iv: u32, a: &RefExpr, b: &RefExpr) -> Option<PairResult> {
    let (
        RefExpr::Affine { constant: c1, coeffs: k1 },
        RefExpr::Affine { constant: c2, coeffs: k2 },
    ) = (a, b)
    else {
        return Some(PairResult::May);
    };
    let strip = |k: &BTreeMap<u32, i64>| -> Vec<(u32, i64)> {
        k.iter().filter(|&(&r, _)| r != iv).map(|(&r, &c)| (r, c)).collect()
    };
    if strip(k1) != strip(k2) {
        return Some(PairResult::May);
    }
    let x = k1.get(&iv).copied().unwrap_or(0);
    let y = k2.get(&iv).copied().unwrap_or(0);
    let dc = c2.checked_sub(*c1)?;
    Some(match (x, y) {
        (0, 0) if dc == 0 => PairResult::Definite(DepTest::Ziv, None),
        (0, 0) => PairResult::Independent(DepTest::Ziv),
        (x, y) if x == y => {
            if dc == 0 {
                PairResult::Independent(DepTest::StrongSiv)
            } else if dc.checked_rem(x)? == 0 {
                PairResult::Definite(DepTest::StrongSiv, Some(dc.checked_div(x)?.checked_abs()?))
            } else {
                PairResult::Independent(DepTest::StrongSiv)
            }
        }
        (x, y) => {
            let g = ref_gcd(x, y)?;
            if g != 0 && dc % g == 0 {
                PairResult::May
            } else {
                PairResult::Independent(DepTest::Gcd)
            }
        }
    })
}

/// SplitMix64: a seeded, dependency-free generator for the programs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A constant: small, or near a power of two, or near the ends of `i64`.
    fn constant(&mut self) -> i64 {
        const EDGES: [i64; 12] = [
            i64::MIN,
            i64::MIN + 1,
            i64::MIN / 2,
            -(1 << 32),
            -1,
            0,
            1,
            2,
            1 << 32,
            i64::MAX / 2,
            i64::MAX - 1,
            i64::MAX,
        ];
        match self.below(3) {
            0 => EDGES[self.below(EDGES.len())],
            _ => self.below(13) as i64 - 6,
        }
    }
}

/// Induction registers the programs use: more than the inline capacity.
const REGS: u32 = 8;

/// The new form as the reference would write it.
fn as_ref(e: &AffineExpr) -> RefExpr {
    match e {
        AffineExpr::Affine { constant, coeffs } => {
            RefExpr::Affine { constant: *constant, coeffs: coeffs.iter().collect() }
        }
        AffineExpr::Unknown => RefExpr::Unknown,
    }
}

fn access(index: &AffineExpr) -> Access {
    Access { arr: ArrayId(0), index: index.clone(), is_write: true, block: BlockId(0), idx_in_block: 0 }
}

/// One program step on both forms; the reference's `None` (overflow)
/// continues as `Unknown`, which the new form must already be.
fn check_step(
    new: AffineExpr,
    reference: Option<RefExpr>,
    pool: &mut Vec<(AffineExpr, RefExpr)>,
    what: &str,
) {
    match &reference {
        Some(r) => assert_eq!(as_ref(&new), *r, "{what}: new form differs from the reference"),
        None => assert_eq!(new, AffineExpr::Unknown, "{what}: overflow must give Unknown"),
    }
    pool.push((new, reference.unwrap_or(RefExpr::Unknown)));
}

fn check_pair(iv: u32, a: &(AffineExpr, RefExpr), b: &(AffineExpr, RefExpr)) {
    let reg = VReg(iv);
    let got = conflicts(reg, &access(&a.0), &access(&b.0));
    let pair = test_pair(reg, &a.0, &b.0);
    let what = format!("iv {iv}: {:?} vs {:?}", a.0, b.0);
    match ref_conflicts(iv, &a.1, &b.1) {
        Some(want) => assert_eq!(got, want, "conflicts, {what}"),
        None => assert!(got, "an overflowing test must conflict, {what}"),
    }
    match ref_pair(iv, &a.1, &b.1) {
        Some(want) => assert_eq!(pair, want, "pair classification, {what}"),
        None => assert_eq!(pair, PairResult::May, "an overflowing test is a may-conflict, {what}"),
    }
    // The oracle reads only the classification: `Independent` exactly
    // when `conflicts` clears the pair.
    assert_eq!(got, !matches!(pair, PairResult::Independent(_)), "agreement, {what}");
}

#[test]
fn coefficient_algebra_and_pair_tests_match_the_btreemap_reference() {
    let mut rng = Rng(0x5eed_a1f1);
    let (mut overflowed, mut spilled, mut pairs) = (0usize, 0usize, 0usize);
    for _program in 0..400 {
        let mut pool: Vec<(AffineExpr, RefExpr)> = Vec::new();
        for r in 0..REGS {
            check_step(AffineExpr::var(VReg(r)), Some(RefExpr::var(r)), &mut pool, "var");
        }
        for _step in 0..40 {
            let (i, j) = (rng.below(pool.len()), rng.below(pool.len()));
            let (x, y) = (pool[i].clone(), pool[j].clone());
            let (new, reference, what) = match rng.below(6) {
                0 => {
                    let r = rng.below(REGS as usize) as u32;
                    (AffineExpr::var(VReg(r)), Some(RefExpr::var(r)), "var")
                }
                1 => {
                    let c = rng.constant();
                    (AffineExpr::constant(c), Some(RefExpr::constant(c)), "constant")
                }
                2 => (x.0.add(&y.0, false), x.1.add(&y.1, false), "add"),
                3 => (x.0.add(&y.0, true), x.1.add(&y.1, true), "sub"),
                4 => {
                    // Make `mul` affine half of the time.
                    let c = rng.constant();
                    let k = (AffineExpr::constant(c), RefExpr::constant(c));
                    let y = if rng.below(2) == 0 { &k } else { &y };
                    (x.0.mul(&y.0), x.1.mul(&y.1), "mul")
                }
                _ => {
                    let s = rng.constant();
                    (x.0.scale(s), x.1.scale(s), "scale")
                }
            };
            overflowed += usize::from(reference.is_none());
            if let AffineExpr::Affine { coeffs, .. } = &new {
                spilled += usize::from(coeffs.len() > 3);
            }
            check_step(new, reference, &mut pool, what);
        }
        // Pairs: random ones, and ones that differ by a constant or by a
        // multiple of the tested induction, which reach every branch of
        // the tests.
        for _ in 0..60 {
            let iv = rng.below(REGS as usize) as u32;
            let a = pool[rng.below(pool.len())].clone();
            let b = match rng.below(3) {
                0 => pool[rng.below(pool.len())].clone(),
                1 => {
                    let c = rng.constant();
                    let n = a.0.add(&AffineExpr::constant(c), false);
                    let r = a.1.add(&RefExpr::constant(c), false);
                    (n, r.unwrap_or(RefExpr::Unknown))
                }
                _ => {
                    let k = rng.constant();
                    let n = a.0.add(&AffineExpr::var(VReg(iv)).scale(k), false);
                    let r = RefExpr::var(iv).scale(k).and_then(|v| a.1.add(&v, false));
                    (n, r.unwrap_or(RefExpr::Unknown))
                }
            };
            check_pair(iv, &a, &b);
            check_pair(iv, &b, &a);
            pairs += 2;
        }
    }
    // The programs reach the cases the test is for.
    assert!(overflowed > 100, "{overflowed} overflowing steps");
    assert!(spilled > 100, "{spilled} expressions past the inline capacity");
    assert!(pairs > 10_000, "{pairs} pairs");
}
