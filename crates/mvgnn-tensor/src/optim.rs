//! Optimizers: SGD with momentum, Adam, and global-norm gradient clipping.
//!
//! Optimizers read accumulated gradients from a [`GradStore`] (a tape's
//! sidecar from [`crate::tape::Tape::into_grads`], or the store a
//! trainer passes to [`crate::tape::Tape::backward_into`]) and write
//! updated values into [`Params`].

use crate::tape::{GradStore, Params};

/// Clip gradients to a maximum global L2 norm; returns the pre-clip norm.
pub fn clip_grad_norm(grads: &mut GradStore, max_norm: f32) -> f32 {
    let norm = grads.grad_norm();
    if norm > max_norm && norm > 0.0 {
        grads.scale(max_norm / norm);
    }
    norm
}

/// Stochastic gradient descent with classical momentum.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (0 disables).
    pub momentum: f32,
    velocity: Vec<Vec<f32>>,
}

impl Sgd {
    /// Create with a learning rate and momentum.
    pub fn new(lr: f32, momentum: f32) -> Self {
        Self { lr, momentum, velocity: Vec::new() }
    }

    /// Apply one update from the accumulated gradients (does not zero them).
    pub fn step(&mut self, params: &mut Params, grads: &GradStore) {
        if self.velocity.len() != params.len() {
            self.velocity = (0..params.len())
                .map(|i| vec![0.0; params.data(crate::tape::ParamId(i)).len()])
                .collect();
        }
        for (id, data) in params.iter_mut() {
            let v = &mut self.velocity[id.0];
            for ((p, &g), vel) in data.iter_mut().zip(grads.get(id)).zip(v.iter_mut()) {
                *vel = self.momentum * *vel - self.lr * g;
                *p += *vel;
            }
        }
    }
}

/// Adam (Kingma & Ba) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical floor.
    pub eps: f32,
    t: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Create with standard betas (0.9 / 0.999).
    pub fn new(lr: f32) -> Self {
        Self { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, t: 0, m: Vec::new(), v: Vec::new() }
    }

    /// Apply one update from the accumulated gradients (does not zero them).
    pub fn step(&mut self, params: &mut Params, grads: &GradStore) {
        if self.m.len() != params.len() {
            self.m = (0..params.len())
                .map(|i| vec![0.0; params.data(crate::tape::ParamId(i)).len()])
                .collect();
            self.v = self.m.clone();
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (id, data) in params.iter_mut() {
            let m = &mut self.m[id.0];
            let v = &mut self.v[id.0];
            for (((p, &g), mi), vi) in
                data.iter_mut().zip(grads.get(id)).zip(m.iter_mut()).zip(v.iter_mut())
            {
                *mi = self.beta1 * *mi + (1.0 - self.beta1) * g;
                *vi = self.beta2 * *vi + (1.0 - self.beta2) * g * g;
                let mhat = *mi / bc1;
                let vhat = *vi / bc2;
                *p -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::{Params, Tape};

    /// Minimise (w - 3)² with each optimizer.
    fn quadratic_descends(mut step: impl FnMut(&mut Params, &GradStore)) -> f32 {
        let mut params = Params::new();
        let w = params.add("w", 1, 1, vec![0.0]);
        for _ in 0..300 {
            let grads = {
                let mut tape = Tape::new(&params);
                let wv = tape.param(w);
                let c = tape.input(vec![3.0], 1, 1);
                let d = tape.sub(wv, c);
                let sq = tape.mul(d, d);
                let loss = tape.sum_all(sq);
                tape.backward(loss);
                tape.into_grads()
            };
            step(&mut params, &grads);
        }
        params.data(w)[0]
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.05, 0.0);
        let w = quadratic_descends(move |p, g| opt.step(p, g));
        assert!((w - 3.0).abs() < 1e-2, "w = {w}");
    }

    #[test]
    fn sgd_momentum_converges() {
        let mut opt = Sgd::new(0.02, 0.9);
        let w = quadratic_descends(move |p, g| opt.step(p, g));
        assert!((w - 3.0).abs() < 1e-2, "w = {w}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.05);
        let w = quadratic_descends(move |p, g| opt.step(p, g));
        assert!((w - 3.0).abs() < 5e-2, "w = {w}");
    }

    #[test]
    fn clip_rescales_only_above_threshold() {
        let mut params = Params::new();
        let w = params.add("w", 1, 2, vec![0.0, 0.0]);
        let mut grads = {
            let mut tape = Tape::new(&params);
            let x = tape.input(vec![3.0, 4.0], 1, 2);
            let wv = tape.param(w);
            let m = tape.mul(x, wv);
            let loss = tape.sum_all(m);
            tape.backward(loss);
            tape.into_grads()
        };
        // Norm is 5; clipping at 1 rescales to unit norm.
        let pre = clip_grad_norm(&mut grads, 1.0);
        assert!((pre - 5.0).abs() < 1e-5);
        assert!((grads.grad_norm() - 1.0).abs() < 1e-5);
        // Clipping again at a larger threshold is a no-op.
        let pre2 = clip_grad_norm(&mut grads, 10.0);
        assert!((pre2 - 1.0).abs() < 1e-5);
        assert!((grads.grad_norm() - 1.0).abs() < 1e-5);
    }
}
