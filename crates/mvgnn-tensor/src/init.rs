//! Seeded weight initializers.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Xavier/Glorot uniform initialisation for a `rows×cols` weight matrix.
pub fn xavier_uniform(rows: usize, cols: usize, rng: &mut StdRng) -> Vec<f32> {
    let bound = (6.0 / (rows + cols) as f32).sqrt();
    (0..rows * cols).map(|_| rng.random_range(-bound..bound)).collect()
}

/// Uniform initialisation in `[-bound, bound]`.
pub fn uniform(n: usize, bound: f32, rng: &mut StdRng) -> Vec<f32> {
    (0..n).map(|_| rng.random_range(-bound..bound)).collect()
}

/// All-zero initialisation (biases).
pub fn zeros(n: usize) -> Vec<f32> {
    vec![0.0; n]
}

/// Deterministic RNG from a seed.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xavier_within_bounds_and_seeded() {
        let mut r1 = rng(7);
        let mut r2 = rng(7);
        let a = xavier_uniform(20, 30, &mut r1);
        let b = xavier_uniform(20, 30, &mut r2);
        assert_eq!(a, b, "same seed, same weights");
        let bound = (6.0 / 50.0f32).sqrt();
        assert!(a.iter().all(|&x| x.abs() <= bound));
        // Not all identical.
        assert!(a.iter().any(|&x| (x - a[0]).abs() > 1e-6));
    }

    #[test]
    fn zeros_are_zero() {
        assert!(zeros(5).iter().all(|&x| x == 0.0));
    }
}
