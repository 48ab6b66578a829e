//! 1-D convolution layer over row-sequences (DGCNN's read-out head).

use mvgnn_tensor::init;
use mvgnn_tensor::tape::{ParamId, Params, Tape, Var};
use rand::rngs::StdRng;

/// 1-D convolution: input `len × in_ch`, output
/// `((len − ksize)/stride + 1) × out_ch`.
#[derive(Debug, Clone)]
pub struct Conv1d {
    /// Kernel weights `ksize·in_ch × out_ch`.
    pub w: ParamId,
    /// Bias `1 × out_ch`.
    pub b: ParamId,
    in_ch: usize,
    out_ch: usize,
    ksize: usize,
    stride: usize,
}

impl Conv1d {
    /// Register parameters for a conv layer.
    pub fn new(
        params: &mut Params,
        name: &str,
        in_ch: usize,
        out_ch: usize,
        ksize: usize,
        stride: usize,
        rng: &mut StdRng,
    ) -> Self {
        let rows = ksize * in_ch;
        let w = params.add(
            format!("{name}.w"),
            rows,
            out_ch,
            init::xavier_uniform(rows, out_ch, rng),
        );
        let b = params.add(format!("{name}.b"), 1, out_ch, init::zeros(out_ch));
        Self { w, b, in_ch, out_ch, ksize, stride }
    }

    /// Output length for an input of `len` rows.
    pub fn out_len(&self, len: usize) -> usize {
        (len - self.ksize) / self.stride + 1
    }

    /// Output channel count.
    pub fn out_ch(&self) -> usize {
        self.out_ch
    }

    /// `(in_ch, ksize, stride)` — the window geometry.
    pub fn geometry(&self) -> (usize, usize, usize) {
        (self.in_ch, self.ksize, self.stride)
    }

    /// Record the convolution on the tape: `x` packs equally-sized row
    /// segments (one per graph of a batch) and windows never straddle a
    /// segment boundary. With a single segment (`seg_len` = rows) it is
    /// one plain convolution.
    pub fn forward_seg(&self, tape: &mut Tape<'_>, x: Var, seg_len: usize) -> Var {
        assert_eq!(tape.shape(x).1, self.in_ch, "conv1d input channels");
        let w = tape.param(self.w);
        let b = tape.param(self.b);
        tape.conv1d_rows_seg(x, w, Some(b), self.ksize, self.stride, seg_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_geometry() {
        let mut params = Params::new();
        let mut rng = init::rng(3);
        let conv = Conv1d::new(&mut params, "c", 4, 8, 5, 1, &mut rng);
        assert_eq!(conv.out_len(20), 16);
        assert_eq!(conv.out_ch(), 8);
        let mut tape = Tape::new(&params);
        let x = tape.input(vec![0.1; 20 * 4], 20, 4);
        let y = conv.forward_seg(&mut tape, x, 20);
        assert_eq!(tape.shape(y), (16, 8));
    }

    #[test]
    fn stride_equals_ksize_partitions_input() {
        // DGCNN's first conv: ksize = stride = feature dim acts per node.
        let mut params = Params::new();
        let mut rng = init::rng(5);
        let conv = Conv1d::new(&mut params, "c", 1, 2, 3, 3, &mut rng);
        let mut tape = Tape::new(&params);
        let x = tape.input(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 6, 1);
        let y = conv.forward_seg(&mut tape, x, 6);
        assert_eq!(tape.shape(y), (2, 2));
    }

    #[test]
    fn gradients_flow_to_kernel() {
        let mut params = Params::new();
        let mut rng = init::rng(7);
        let conv = Conv1d::new(&mut params, "c", 2, 3, 2, 1, &mut rng);
        let mut tape = Tape::new(&params);
        let x = tape.input(vec![0.5; 10], 5, 2);
        let y = conv.forward_seg(&mut tape, x, 5);
        let loss = tape.sum_all(y);
        tape.backward(loss);
        let grads = tape.into_grads();
        assert!(grads.get(conv.w).iter().any(|&g| g != 0.0));
        assert!(grads.get(conv.b).iter().all(|&g| (g - 4.0).abs() < 1e-5));
    }
}
