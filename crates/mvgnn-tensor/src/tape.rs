//! Reverse-mode tape autograd.
//!
//! One [`Tape`] is built per forward pass against a persistent [`Params`]
//! store, which holds parameter *values* only and is read through a
//! shared borrow — any number of tapes (and threads) can run forward
//! passes against the same store concurrently. Gradients live in a
//! per-tape [`GradStore`] sidecar, allocated lazily by
//! [`Tape::backward`] and handed to an optimizer from [`crate::optim`]
//! via [`Tape::into_grads`] — or in a caller-owned store passed to
//! [`Tape::backward_into`].
//!
//! All tensors are 2-D row-major `f32` matrices.

use crate::dense;
use crate::sparse::SparseMatrix;
use crate::workspace::{self, Workspace};

/// Windows per im2col block of the 1-D convolution, forward and
/// backward: keeps the gathered block under the allocator's mmap
/// threshold and lets one block's tiles reuse it.
const CONV_BLOCK: usize = 64;

/// Persistent parameter store: values only, no gradient state.
///
/// Immutable during execution — forward and backward passes need only
/// `&Params`, so a trained store can sit behind an `Arc` and serve many
/// threads at once. Mutation happens between passes: the optimizer
/// steps values via [`Params::iter_mut`], and a checkpoint load copies
/// the file's tensors in the same way. Gradients accumulate in a
/// separate [`GradStore`] owned by each [`Tape`].
#[derive(Debug, Clone, Default)]
pub struct Params {
    names: Vec<String>,
    data: Vec<Vec<f32>>,
    shapes: Vec<(usize, usize)>,
}

/// Handle to one parameter tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub usize);

impl Params {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a parameter with initial values.
    pub fn add(&mut self, name: impl Into<String>, rows: usize, cols: usize, init: Vec<f32>) -> ParamId {
        assert_eq!(init.len(), rows * cols, "init size mismatch");
        let id = ParamId(self.data.len());
        self.names.push(name.into());
        self.data.push(init);
        self.shapes.push((rows, cols));
        id
    }

    /// Number of parameters (tensors).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Total scalar count.
    pub fn scalar_count(&self) -> usize {
        self.data.iter().map(Vec::len).sum()
    }

    /// Parameter values.
    pub fn data(&self, id: ParamId) -> &[f32] {
        &self.data[id.0]
    }

    /// Mutable parameter values.
    pub fn data_mut(&mut self, id: ParamId) -> &mut [f32] {
        &mut self.data[id.0]
    }

    /// Shape of a parameter.
    pub fn shape(&self, id: ParamId) -> (usize, usize) {
        self.shapes[id.0]
    }

    /// Name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Iterate `(id, data)` mutably — the optimizer surface.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (ParamId, &mut Vec<f32>)> {
        self.data.iter_mut().enumerate().map(|(i, d)| (ParamId(i), d))
    }
}

/// Per-tape gradient sidecar: one accumulator buffer per parameter
/// tensor, aligned index-for-index with the [`Params`] it was built
/// from. Each [`Tape`] owns its own `GradStore` (allocated lazily by
/// [`Tape::backward`]), so backward passes never contend on shared
/// state; sidecars of several tapes combine with [`GradStore::absorb`].
/// A training loop can instead keep one store and have every step's
/// tape add into it with [`Tape::backward_into`].
#[derive(Debug, Clone, Default)]
pub struct GradStore {
    grads: Vec<Vec<f32>>,
}

impl GradStore {
    /// Zeroed accumulators matching `params` tensor-for-tensor.
    pub fn zeros_like(params: &Params) -> Self {
        Self { grads: params.data.iter().map(|d| vec![0.0; d.len()]).collect() }
    }

    /// Number of gradient buffers (tensors).
    pub fn len(&self) -> usize {
        self.grads.len()
    }

    /// True when no buffers are held.
    pub fn is_empty(&self) -> bool {
        self.grads.is_empty()
    }

    /// Accumulated gradient of one parameter.
    pub fn get(&self, id: ParamId) -> &[f32] {
        &self.grads[id.0]
    }

    /// Mutable gradient of one parameter.
    pub fn get_mut(&mut self, id: ParamId) -> &mut [f32] {
        &mut self.grads[id.0]
    }

    /// Zero every accumulator.
    pub fn zero(&mut self) {
        for g in &mut self.grads {
            g.fill(0.0);
        }
    }

    /// Add another sidecar's gradients into this one (the reduction of
    /// several tapes' sidecars). Panics when layouts differ.
    pub fn absorb(&mut self, other: &GradStore) {
        assert_eq!(self.grads.len(), other.grads.len(), "grad store tensor count mismatch");
        for (g, og) in self.grads.iter_mut().zip(&other.grads) {
            assert_eq!(g.len(), og.len(), "grad store shape mismatch");
            for (x, &y) in g.iter_mut().zip(og) {
                *x += y;
            }
        }
    }

    /// Scale every gradient uniformly (the clipping primitive).
    pub fn scale(&mut self, factor: f32) {
        for g in &mut self.grads {
            for x in g.iter_mut() {
                *x *= factor;
            }
        }
    }

    /// Global L2 norm of all gradients.
    pub fn grad_norm(&self) -> f32 {
        self.grads
            .iter()
            .flat_map(|g| g.iter())
            .map(|&x| (x as f64) * (x as f64))
            .sum::<f64>()
            .sqrt() as f32
    }
}

/// Handle to a node on the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

/// Handle to a sparse operator registered with [`Tape::sparse_ref`].
/// Lets a stack of layers share one borrowed matrix across
/// [`Tape::spmm_at`] calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SparseId(usize);

#[derive(Debug, Clone)]
enum Op {
    Input,
    Param(ParamId),
    MatMul(Var, Var),
    SpMM(usize, Var),
    Add(Var, Var),
    AddRow(Var, Var),
    Sub(Var, Var),
    MulElem(Var, Var),
    Scale(Var, f32),
    Tanh(Var),
    Relu(Var),
    Sigmoid(Var),
    ConcatCols(Var, Var),
    ConcatRows(Var, Var),
    GatherRowsPad(Var, Vec<usize>),
    /// `(dst, src)` row pairs flattened as `[dst0, src0, dst1, src1, …]`
    /// so the payload can live in the pooled `u32` free list.
    GatherRowsAt(Var, Vec<u32>),
    SumAll(Var),
    Conv1dRows { x: Var, w: Var, bias: Option<Var>, ksize: usize, stride: usize, seg_len: usize },
    MaxPoolRows { x: Var, size: usize, seg_len: usize },
    Reshape(Var),
    SoftmaxCe { logits: Var, targets: Vec<usize>, temperature: f32 },
}

struct Node {
    op: Op,
    data: Vec<f32>,
    grad: Vec<f32>,
    shape: (usize, usize),
    /// Op-specific float payload (softmax probs).
    aux_f: Vec<f32>,
}

/// The autograd tape. Reads the parameter store through a shared borrow
/// for its whole life; parameter gradients accumulate in the tape's own
/// [`GradStore`] sidecar on [`Tape::backward`], retrieved with
/// [`Tape::into_grads`].
///
/// ```
/// use mvgnn_tensor::{Params, Tape};
/// let mut params = Params::new();
/// let w = params.add("w", 2, 1, vec![1.0, 2.0]);
/// let mut tape = Tape::new(&params);
/// let x = tape.input(vec![3.0, 4.0], 1, 2);
/// let wv = tape.param(w);
/// let y = tape.matmul(x, wv);          // 3·1 + 4·2 = 11
/// assert_eq!(tape.data(y), &[11.0]);
/// let loss = tape.sum_all(y);
/// tape.backward(loss);
/// let grads = tape.into_grads();
/// assert_eq!(grads.get(w), &[3.0, 4.0]);
/// ```
pub struct Tape<'p> {
    params: &'p Params,
    grads: Option<GradStore>,
    nodes: Vec<Node>,
    /// Sparse operators borrowed from caller-owned storage that
    /// outlives the tape, e.g. a `GraphBatch`'s block-diagonal adjacency.
    sparse: Vec<&'p SparseMatrix>,
    ws: Workspace,
}

impl<'p> Tape<'p> {
    /// Start a fresh tape over `params` with an empty (cold) workspace.
    pub fn new(params: &'p Params) -> Self {
        Self::with_workspace(params, Workspace::new())
    }

    /// Start a tape over `params` drawing every node-value, gradient and
    /// payload buffer from `ws`. Recover the (now warmer) workspace with
    /// [`Tape::finish`] when the pass is done; after one warm-up pass a
    /// rebuilt tape allocates nothing.
    pub fn with_workspace(params: &'p Params, ws: Workspace) -> Self {
        Self { params, grads: None, nodes: Vec::new(), sparse: Vec::new(), ws }
    }

    /// Tear the computation graph down in place, releasing every buffer
    /// back into the tape's workspace: node values, gradients, op
    /// payloads and the gradient sidecar. The tape is ready for another
    /// forward pass — same `Params`, warm pool, node storage retained.
    pub fn reset(&mut self) {
        let mut nodes = std::mem::take(&mut self.nodes);
        for node in nodes.drain(..) {
            self.ws.release_f32(node.data);
            self.ws.release_f32(node.grad);
            self.ws.release_f32(node.aux_f);
            match node.op {
                Op::GatherRowsPad(_, idx) => self.ws.release_usize(idx),
                Op::GatherRowsAt(_, pairs) => self.ws.release_u32(pairs),
                Op::SoftmaxCe { targets, .. } => self.ws.release_usize(targets),
                _ => {}
            }
        }
        self.nodes = nodes;
        self.sparse.clear();
        self.grads = None;
    }

    /// Consume the tape and hand back its workspace with every buffer
    /// released into the pool — the partner of [`Tape::with_workspace`].
    pub fn finish(mut self) -> Workspace {
        self.reset();
        std::mem::take(&mut self.ws)
    }

    /// Direct access to the tape's buffer pool, for callers that need
    /// pooled scratch around tape ops (e.g. SortPooling key extraction).
    pub fn workspace_mut(&mut self) -> &mut Workspace {
        &mut self.ws
    }

    /// The parameter gradients accumulated so far (`None` until
    /// [`Tape::backward`] has run).
    pub fn grads(&self) -> Option<&GradStore> {
        self.grads.as_ref()
    }

    /// Consume the tape, returning its gradient sidecar. A forward-only
    /// tape yields a zeroed store, so callers can absorb unconditionally.
    pub fn into_grads(self) -> GradStore {
        match self.grads {
            Some(g) => g,
            None => GradStore::zeros_like(self.params),
        }
    }

    fn push(&mut self, op: Op, data: Vec<f32>, shape: (usize, usize)) -> Var {
        self.push_aux(op, data, shape, Vec::new())
    }

    fn push_aux(&mut self, op: Op, data: Vec<f32>, shape: (usize, usize), aux_f: Vec<f32>) -> Var {
        debug_assert_eq!(data.len(), shape.0 * shape.1);
        // Gradient buffers are allocated lazily at the start of
        // [`Tape::backward`]: a forward-only tape (inference) never pays
        // for them, which at batch scale is hundreds of kilobytes of
        // zeroed allocations per call.
        self.nodes.push(Node { op, data, grad: Vec::new(), shape, aux_f });
        Var(self.nodes.len() - 1)
    }

    /// Shape of a var.
    pub fn shape(&self, v: Var) -> (usize, usize) {
        self.nodes[v.0].shape
    }

    /// Forward value of a var.
    pub fn data(&self, v: Var) -> &[f32] {
        &self.nodes[v.0].data
    }

    /// Gradient of a var (valid after [`Tape::backward`]).
    pub fn grad(&self, v: Var) -> &[f32] {
        &self.nodes[v.0].grad
    }

    /// Constant input tensor.
    pub fn input(&mut self, data: Vec<f32>, rows: usize, cols: usize) -> Var {
        assert_eq!(data.len(), rows * cols, "input shape mismatch");
        self.push(Op::Input, data, (rows, cols))
    }

    /// Constant input copied from a slice into a pooled buffer — the
    /// allocation-free sibling of [`Tape::input`].
    pub fn input_slice(&mut self, data: &[f32], rows: usize, cols: usize) -> Var {
        assert_eq!(data.len(), rows * cols, "input shape mismatch");
        let mut buf = self.ws.acquire_f32(data.len());
        buf.copy_from_slice(data);
        self.push(Op::Input, buf, (rows, cols))
    }

    /// Load a parameter onto the tape.
    pub fn param(&mut self, id: ParamId) -> Var {
        let shape = self.params.shape(id);
        let src = self.params.data(id);
        let mut data = self.ws.acquire_f32(src.len());
        data.copy_from_slice(src);
        self.push(Op::Param(id), data, shape)
    }

    /// `a[m×k] · b[k×n]`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let (m, k) = self.shape(a);
        let (k2, n) = self.shape(b);
        assert_eq!(k, k2, "matmul inner dims {k} vs {k2}");
        let mut out = self.ws.acquire_f32(m * n);
        dense::matmul(self.data(a), self.data(b), &mut out, m, k, n);
        self.push(Op::MatMul(a, b), out, (m, n))
    }

    /// Register a caller-owned sparse operator without cloning it; the
    /// borrow must outlive the tape (same `'p` as the parameter store).
    /// This is how batched encoders share the `GraphBatch`'s cached
    /// block-diagonal adjacency across a whole GCN stack, clone-free.
    pub fn sparse_ref(&mut self, a: &'p SparseMatrix) -> SparseId {
        self.sparse.push(a);
        SparseId(self.sparse.len() - 1)
    }

    /// Sparse `A · x`, where `A` is a constant propagation operator
    /// registered with [`Tape::sparse_ref`].
    pub fn spmm_at(&mut self, a: SparseId, x: Var) -> Var {
        let (r, n) = self.nodes[x.0].shape;
        let sp = self.sparse[a.0];
        assert_eq!(sp.cols(), r, "spmm operand rows");
        let mut out = self.ws.acquire_f32(sp.rows() * n);
        sp.spmm(&self.nodes[x.0].data, &mut out, n);
        self.push(Op::SpMM(a.0, x), out, (sp.rows(), n))
    }

    /// Elementwise sum (same shape).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let shape = self.shape(a);
        assert_eq!(shape, self.shape(b), "add shape mismatch");
        let mut out = self.ws.acquire_f32(shape.0 * shape.1);
        for ((o, &x), &y) in out.iter_mut().zip(self.data(a)).zip(self.data(b)) {
            *o = x + y;
        }
        self.push(Op::Add(a, b), out, shape)
    }

    /// `a[m×n] + row[1×n]` broadcast (bias add).
    pub fn add_row(&mut self, a: Var, row: Var) -> Var {
        let (m, n) = self.shape(a);
        assert_eq!(self.shape(row), (1, n), "bias must be 1×{n}");
        let mut out = self.ws.acquire_f32(m * n);
        {
            let adat = self.data(a);
            let rdat = self.data(row);
            for (orow, arow) in out.chunks_exact_mut(n).zip(adat.chunks_exact(n)) {
                for ((o, &x), &y) in orow.iter_mut().zip(arow).zip(rdat) {
                    *o = x + y;
                }
            }
        }
        self.push(Op::AddRow(a, row), out, (m, n))
    }

    /// Elementwise difference.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let shape = self.shape(a);
        assert_eq!(shape, self.shape(b), "sub shape mismatch");
        let mut out = self.ws.acquire_f32(shape.0 * shape.1);
        for ((o, &x), &y) in out.iter_mut().zip(self.data(a)).zip(self.data(b)) {
            *o = x - y;
        }
        self.push(Op::Sub(a, b), out, shape)
    }

    /// Elementwise product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let shape = self.shape(a);
        assert_eq!(shape, self.shape(b), "mul shape mismatch");
        let mut out = self.ws.acquire_f32(shape.0 * shape.1);
        for ((o, &x), &y) in out.iter_mut().zip(self.data(a)).zip(self.data(b)) {
            *o = x * y;
        }
        self.push(Op::MulElem(a, b), out, shape)
    }

    /// Scalar multiple.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        let shape = self.shape(a);
        let mut out = self.ws.acquire_f32(shape.0 * shape.1);
        for (o, &x) in out.iter_mut().zip(self.data(a)) {
            *o = x * c;
        }
        self.push(Op::Scale(a, c), out, shape)
    }

    /// Hyperbolic tangent (vectorised; see [`dense::tanh_vec`] for the
    /// numerics — within ~2e-7 of libm, exact ±1 saturation, NaN
    /// propagation). The backward pass uses the stored output, so
    /// gradients are consistent with what was computed.
    pub fn tanh(&mut self, a: Var) -> Var {
        let shape = self.shape(a);
        let mut out = self.ws.acquire_f32(shape.0 * shape.1);
        dense::tanh_into(self.data(a), &mut out);
        self.push(Op::Tanh(a), out, shape)
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let shape = self.shape(a);
        let mut out = self.ws.acquire_f32(shape.0 * shape.1);
        for (o, &x) in out.iter_mut().zip(self.data(a)) {
            *o = x.max(0.0);
        }
        self.push(Op::Relu(a), out, shape)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let shape = self.shape(a);
        let mut out = self.ws.acquire_f32(shape.0 * shape.1);
        for (o, &x) in out.iter_mut().zip(self.data(a)) {
            *o = 1.0 / (1.0 + (-x).exp());
        }
        self.push(Op::Sigmoid(a), out, shape)
    }

    /// Horizontal concatenation `[a | b]` (same row count).
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let (m, n1) = self.shape(a);
        let (m2, n2) = self.shape(b);
        assert_eq!(m, m2, "concat_cols row mismatch");
        let mut out = self.ws.acquire_f32(m * (n1 + n2));
        for (i, orow) in out.chunks_exact_mut(n1 + n2).enumerate() {
            orow[..n1].copy_from_slice(&self.data(a)[i * n1..(i + 1) * n1]);
            orow[n1..].copy_from_slice(&self.data(b)[i * n2..(i + 1) * n2]);
        }
        self.push(Op::ConcatCols(a, b), out, (m, n1 + n2))
    }

    /// Vertical concatenation (same column count).
    pub fn concat_rows(&mut self, a: Var, b: Var) -> Var {
        let (m1, n) = self.shape(a);
        let (m2, n2) = self.shape(b);
        assert_eq!(n, n2, "concat_rows col mismatch");
        let la = m1 * n;
        let mut out = self.ws.acquire_f32((m1 + m2) * n);
        out[..la].copy_from_slice(self.data(a));
        out[la..].copy_from_slice(self.data(b));
        self.push(Op::ConcatRows(a, b), out, (m1 + m2, n))
    }

    /// Gather rows by index into a `k`-row output; missing rows (when
    /// `indices.len() < k`) are zero-padded. This is SortPooling's data
    /// movement: the caller supplies the sorted row order.
    pub fn gather_rows_pad(&mut self, a: Var, indices: &[usize], k: usize) -> Var {
        let (m, n) = self.shape(a);
        assert!(indices.len() <= k, "more indices than output rows");
        for &i in indices {
            assert!(i < m, "gather index {i} out of bounds ({m} rows)");
        }
        let mut out = self.ws.acquire_f32(k * n);
        for (o, &i) in indices.iter().enumerate() {
            out[o * n..(o + 1) * n].copy_from_slice(&self.data(a)[i * n..(i + 1) * n]);
        }
        let mut idx = self.ws.acquire_usize(indices.len());
        idx.copy_from_slice(indices);
        self.push(Op::GatherRowsPad(a, idx), out, (k, n))
    }

    /// Scatter-gather rows by explicit `(dst, src)` pairs into an
    /// `out_rows`-row output; rows no pair targets stay zero. This is the
    /// batched SortPooling data movement: each graph's sorted rows land in
    /// its own `k`-row slot of the packed output, with per-graph zero
    /// padding interleaved (which [`Tape::gather_rows_pad`], padding only
    /// at the tail, cannot express).
    pub fn gather_rows_at(&mut self, a: Var, pairs: &[(usize, usize)], out_rows: usize) -> Var {
        let (m, n) = self.shape(a);
        let mut out = self.ws.acquire_f32(out_rows * n);
        let mut compact = self.ws.acquire_u32(2 * pairs.len());
        for (&(dst, src), slot) in pairs.iter().zip(compact.chunks_exact_mut(2)) {
            assert!(dst < out_rows, "gather dst {dst} out of bounds ({out_rows} rows)");
            assert!(src < m, "gather src {src} out of bounds ({m} rows)");
            out[dst * n..(dst + 1) * n].copy_from_slice(&self.data(a)[src * n..(src + 1) * n]);
            slot[0] = dst as u32;
            slot[1] = src as u32;
        }
        self.push(Op::GatherRowsAt(a, compact), out, (out_rows, n))
    }

    /// Sum of every element: `→ 1×1`.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let s: f32 = self.data(a).iter().sum();
        let mut out = self.ws.acquire_f32(1);
        out[0] = s;
        self.push(Op::SumAll(a), out, (1, 1))
    }

    /// 1-D convolution over rows: input `len×in_ch`, weight
    /// `(ksize·in_ch)×out_ch`, optional bias `1×out_ch`; output
    /// `((len−ksize)/stride + 1)×out_ch`.
    pub fn conv1d_rows(
        &mut self,
        x: Var,
        w: Var,
        bias: Option<Var>,
        ksize: usize,
        stride: usize,
    ) -> Var {
        let (len, _) = self.shape(x);
        self.conv1d_rows_seg(x, w, bias, ksize, stride, len)
    }

    /// Segment-batched 1-D convolution: the input's rows form
    /// `len/seg_len` equal segments (packed graphs) and the convolution
    /// runs independently inside each, so windows never straddle a
    /// segment boundary. Output: `segs·((seg_len−ksize)/stride + 1)`
    /// rows. With `seg_len == len` this is the plain [`Tape::conv1d_rows`].
    pub fn conv1d_rows_seg(
        &mut self,
        x: Var,
        w: Var,
        bias: Option<Var>,
        ksize: usize,
        stride: usize,
        seg_len: usize,
    ) -> Var {
        let (len, in_ch) = self.shape(x);
        let (wr, out_ch) = self.shape(w);
        assert_eq!(wr, ksize * in_ch, "conv weight rows must be ksize·in_ch");
        assert!(
            stride >= 1 && ksize >= 1 && seg_len >= ksize,
            "conv1d geometry (seg_len {seg_len}, k {ksize})"
        );
        assert!(seg_len > 0 && len % seg_len == 0, "rows {len} not a multiple of segment {seg_len}");
        let segs = len / seg_len;
        let seg_out = (seg_len - ksize) / stride + 1;
        let out_len = segs * seg_out;
        if let Some(b) = bias {
            assert_eq!(self.shape(b), (1, out_ch), "conv bias shape");
        }
        let mut out = self.ws.acquire_f32(out_len * out_ch);
        let xd = self.data(x);
        let wd = self.data(w);
        let bd = bias.map(|b| self.data(b));
        let window_of = |i: usize| {
            let (g, t) = (i / seg_out, i % seg_out);
            let start = g * seg_len + t * stride;
            &xd[start * in_ch..(start + ksize) * in_ch]
        };
        // The convolution is a matmul over gathered windows: gather
        // CONV_BLOCK windows at a time into a small contiguous im2col
        // buffer (reused across the block's tiles) and run the
        // register-tiled `dense::matmul` on it. Each output element
        // accumulates its ksize·in_ch products in ascending window order
        // with the same kernels whatever the batch around it looks like,
        // so packed batches stay bit-identical to per-graph runs.
        for (bi, orows) in out.chunks_mut(CONV_BLOCK * out_ch).enumerate() {
            let nw = orows.len() / out_ch;
            // The im2col buffer comes from the per-thread scratch stack,
            // so the steady state allocates nothing here either.
            workspace::with_scratch(nw * wr, |xcol| {
                for (j, row) in xcol.chunks_exact_mut(wr).enumerate() {
                    row.copy_from_slice(window_of(bi * CONV_BLOCK + j));
                }
                dense::matmul(xcol, wd, orows, nw, wr, out_ch);
            });
            if let Some(bd) = bd {
                for orow in orows.chunks_exact_mut(out_ch) {
                    for (o, &bv) in orow.iter_mut().zip(bd) {
                        *o += bv;
                    }
                }
            }
        }
        self.push(Op::Conv1dRows { x, w, bias, ksize, stride, seg_len }, out, (out_len, out_ch))
    }

    /// Reinterpret the data with a new shape (same element count).
    pub fn reshape(&mut self, a: Var, rows: usize, cols: usize) -> Var {
        let (m, n) = self.shape(a);
        assert_eq!(m * n, rows * cols, "reshape element count mismatch");
        let mut data = self.ws.acquire_f32(m * n);
        data.copy_from_slice(self.data(a));
        self.push(Op::Reshape(a), data, (rows, cols))
    }

    /// Segment-batched non-overlapping max pooling over rows: rows form
    /// `len/seg_len` equal segments pooled independently, so an odd
    /// `seg_len` pads its own tail window instead of leaking into the
    /// next segment. Output: `segs·⌈seg_len/size⌉` rows; with
    /// `seg_len == len` that is `len×ch → ⌈len/size⌉×ch`.
    pub fn maxpool_rows_seg(&mut self, a: Var, size: usize, seg_len: usize) -> Var {
        let (len, ch) = self.shape(a);
        assert!(size >= 1);
        assert!(seg_len > 0 && len % seg_len == 0, "rows {len} not a multiple of segment {seg_len}");
        let segs = len / seg_len;
        let seg_out = seg_len.div_ceil(size);
        let out_len = segs * seg_out;
        // Values only; argmax routing is recomputed in `backward`, so a
        // forward-only tape never pays for the index bookkeeping.
        let mut out = self.ws.acquire_f32(out_len * ch);
        out.fill(f32::NEG_INFINITY);
        for (aseg, oseg) in
            self.data(a).chunks_exact(seg_len * ch).zip(out.chunks_exact_mut(seg_out * ch))
        {
            for (window, orow) in aseg.chunks(size * ch).zip(oseg.chunks_exact_mut(ch)) {
                for row in window.chunks_exact(ch) {
                    for (o, &v) in orow.iter_mut().zip(row) {
                        if v > *o {
                            *o = v;
                        }
                    }
                }
            }
        }
        self.push(Op::MaxPoolRows { x: a, size, seg_len }, out, (out_len, ch))
    }

    /// Mean softmax cross-entropy over rows with a temperature divisor;
    /// returns a `1×1` loss. Targets are class indices per row.
    pub fn softmax_ce(&mut self, logits: Var, targets: &[usize], temperature: f32) -> Var {
        let (m, c) = self.shape(logits);
        assert_eq!(targets.len(), m, "one target per row");
        for &t in targets {
            assert!(t < c, "target {t} out of range ({c} classes)");
        }
        let mut probs = self.ws.acquire_f32(m * c);
        probs.copy_from_slice(self.data(logits));
        dense::softmax_rows(&mut probs, m, c, temperature);
        let mut loss = 0.0f64;
        for (r, &t) in probs.chunks(c).zip(targets) {
            loss -= (r[t].max(1e-12) as f64).ln();
        }
        let loss = (loss / m as f64) as f32;
        let mut lbuf = self.ws.acquire_f32(1);
        lbuf[0] = loss;
        let mut tbuf = self.ws.acquire_usize(targets.len());
        tbuf.copy_from_slice(targets);
        self.push_aux(
            Op::SoftmaxCe { logits, targets: tbuf, temperature },
            lbuf,
            (1, 1),
            probs,
        )
    }

    /// Run reverse-mode accumulation from `loss` (must be `1×1`) and push
    /// parameter gradients into the tape's [`GradStore`] sidecar.
    pub fn backward(&mut self, loss: Var) {
        let mut grads = self.grads.take().unwrap_or_else(|| GradStore::zeros_like(self.params));
        self.backward_into(loss, &mut grads);
        self.grads = Some(grads);
    }

    /// [`Tape::backward`] adding the parameter gradients into a
    /// caller-owned store instead of the tape's sidecar — a trainer zeroes
    /// one store in place each step rather than allocating a fresh one.
    /// `grads` must match the tape's [`Params`] tensor for tensor, as one
    /// from [`GradStore::zeros_like`] does.
    pub fn backward_into(&mut self, loss: Var, grads: &mut GradStore) {
        assert_eq!(self.shape(loss), (1, 1), "backward needs a scalar loss");
        assert_eq!(grads.len(), self.params.len(), "grad store tensor count mismatch");
        for i in 0..self.nodes.len() {
            if self.nodes[i].grad.is_empty() {
                let g = self.ws.acquire_f32(self.nodes[i].data.len());
                self.nodes[i].grad = g;
            }
        }
        self.nodes[loss.0].grad[0] = 1.0;
        for i in (0..self.nodes.len()).rev() {
            // Split borrows: take this node's grad out, restore after.
            let grad = std::mem::take(&mut self.nodes[i].grad);
            if grad.iter().all(|&g| g == 0.0) {
                self.nodes[i].grad = grad;
                continue;
            }
            let op = self.nodes[i].op.clone();
            match op {
                Op::Input => {}
                Op::Param(id) => {
                    for (p, &g) in grads.grads[id.0].iter_mut().zip(&grad) {
                        *p += g;
                    }
                }
                Op::MatMul(a, b) => {
                    let (m, k) = self.nodes[a.0].shape;
                    let (_, n) = self.nodes[b.0].shape;
                    // dA += dC · Bᵀ ; dB += Aᵀ · dC
                    let bdat = std::mem::take(&mut self.nodes[b.0].data);
                    {
                        let ga = &mut self.nodes[a.0].grad;
                        dense::matmul_a_bt_accum(&grad, &bdat, ga, m, n, k, &mut self.ws);
                    }
                    self.nodes[b.0].data = bdat;
                    let adat = std::mem::take(&mut self.nodes[a.0].data);
                    {
                        let gb = &mut self.nodes[b.0].grad;
                        dense::matmul_at_b_accum(&adat, &grad, gb, m, k, n);
                    }
                    self.nodes[a.0].data = adat;
                }
                Op::SpMM(s, x) => {
                    let n = self.nodes[x.0].shape.1;
                    let mut xg = std::mem::take(&mut self.nodes[x.0].grad);
                    self.sparse[s].spmm_transpose_accum(&grad, &mut xg, n);
                    self.nodes[x.0].grad = xg;
                }
                Op::Add(a, b) => {
                    for (g, &u) in self.nodes[a.0].grad.iter_mut().zip(&grad) {
                        *g += u;
                    }
                    for (g, &u) in self.nodes[b.0].grad.iter_mut().zip(&grad) {
                        *g += u;
                    }
                }
                Op::AddRow(a, row) => {
                    for (g, &u) in self.nodes[a.0].grad.iter_mut().zip(&grad) {
                        *g += u;
                    }
                    let n = self.nodes[row.0].shape.1;
                    for chunk in grad.chunks(n) {
                        for (g, &u) in self.nodes[row.0].grad.iter_mut().zip(chunk) {
                            *g += u;
                        }
                    }
                }
                Op::Sub(a, b) => {
                    for (g, &u) in self.nodes[a.0].grad.iter_mut().zip(&grad) {
                        *g += u;
                    }
                    for (g, &u) in self.nodes[b.0].grad.iter_mut().zip(&grad) {
                        *g -= u;
                    }
                }
                Op::MulElem(a, b) => {
                    let bdat = std::mem::take(&mut self.nodes[b.0].data);
                    for ((g, &u), &bv) in
                        self.nodes[a.0].grad.iter_mut().zip(&grad).zip(&bdat)
                    {
                        *g += u * bv;
                    }
                    self.nodes[b.0].data = bdat;
                    let adat = std::mem::take(&mut self.nodes[a.0].data);
                    for ((g, &u), &av) in
                        self.nodes[b.0].grad.iter_mut().zip(&grad).zip(&adat)
                    {
                        *g += u * av;
                    }
                    self.nodes[a.0].data = adat;
                }
                Op::Scale(a, c) => {
                    for (g, &u) in self.nodes[a.0].grad.iter_mut().zip(&grad) {
                        *g += u * c;
                    }
                }
                Op::Tanh(a) => {
                    let ydat = std::mem::take(&mut self.nodes[i].data);
                    for ((g, &u), &y) in self.nodes[a.0].grad.iter_mut().zip(&grad).zip(&ydat) {
                        *g += u * (1.0 - y * y);
                    }
                    self.nodes[i].data = ydat;
                }
                Op::Relu(a) => {
                    let ydat = std::mem::take(&mut self.nodes[i].data);
                    for ((g, &u), &y) in self.nodes[a.0].grad.iter_mut().zip(&grad).zip(&ydat) {
                        if y > 0.0 {
                            *g += u;
                        }
                    }
                    self.nodes[i].data = ydat;
                }
                Op::Sigmoid(a) => {
                    let ydat = std::mem::take(&mut self.nodes[i].data);
                    for ((g, &u), &y) in self.nodes[a.0].grad.iter_mut().zip(&grad).zip(&ydat) {
                        *g += u * y * (1.0 - y);
                    }
                    self.nodes[i].data = ydat;
                }
                Op::ConcatCols(a, b) => {
                    let (m, n1) = self.nodes[a.0].shape;
                    let n2 = self.nodes[b.0].shape.1;
                    for r in 0..m {
                        let urow = &grad[r * (n1 + n2)..(r + 1) * (n1 + n2)];
                        for (g, &u) in self.nodes[a.0].grad[r * n1..(r + 1) * n1]
                            .iter_mut()
                            .zip(&urow[..n1])
                        {
                            *g += u;
                        }
                        for (g, &u) in self.nodes[b.0].grad[r * n2..(r + 1) * n2]
                            .iter_mut()
                            .zip(&urow[n1..])
                        {
                            *g += u;
                        }
                    }
                }
                Op::ConcatRows(a, b) => {
                    let la = self.nodes[a.0].grad.len();
                    for (g, &u) in self.nodes[a.0].grad.iter_mut().zip(&grad[..la]) {
                        *g += u;
                    }
                    for (g, &u) in self.nodes[b.0].grad.iter_mut().zip(&grad[la..]) {
                        *g += u;
                    }
                }
                Op::GatherRowsPad(a, indices) => {
                    let n = self.nodes[a.0].shape.1;
                    for (o, &idx) in indices.iter().enumerate() {
                        let urow = &grad[o * n..(o + 1) * n];
                        for (g, &u) in
                            self.nodes[a.0].grad[idx * n..(idx + 1) * n].iter_mut().zip(urow)
                        {
                            *g += u;
                        }
                    }
                }
                Op::GatherRowsAt(a, pairs) => {
                    let n = self.nodes[a.0].shape.1;
                    for pair in pairs.chunks_exact(2) {
                        let (dst, src) = (pair[0] as usize, pair[1] as usize);
                        let urow = &grad[dst * n..(dst + 1) * n];
                        let gr = &mut self.nodes[a.0].grad[src * n..(src + 1) * n];
                        for (g, &u) in gr.iter_mut().zip(urow) {
                            *g += u;
                        }
                    }
                }
                Op::SumAll(a) => {
                    let u = grad[0];
                    for g in self.nodes[a.0].grad.iter_mut() {
                        *g += u;
                    }
                }
                Op::Conv1dRows { x, w, bias, ksize, stride, seg_len } => {
                    let in_ch = self.nodes[x.0].shape.1;
                    let (wr, out_ch) = self.nodes[w.0].shape;
                    let seg_out = (seg_len - ksize) / stride + 1;
                    let window_start = |orow: usize| {
                        ((orow / seg_out) * seg_len + (orow % seg_out) * stride) * in_ch
                    };
                    let xdat = std::mem::take(&mut self.nodes[x.0].data);
                    let wdat = std::mem::take(&mut self.nodes[w.0].data);
                    let mut gx = std::mem::take(&mut self.nodes[x.0].grad);
                    let mut gw = std::mem::take(&mut self.nodes[w.0].grad);
                    // dW += im2col(X)ᵀ · dY: every element adds x·u into
                    // its running value in ascending window order, with
                    // no zero skip. dX: each window's slot p gets
                    // Σ_j w[p][j]·u[j], summed from 0.0 in ascending j and
                    // added to the slot in ascending window order. Both
                    // match the scalar loop's sequence per element;
                    // CONV_BLOCK windows go through one im2col buffer,
                    // which then holds the block's dX rows.
                    let mut wt = self.ws.acquire_f32(wr * out_ch);
                    dense::transpose_into(&wdat, wr, out_ch, &mut wt);
                    let mut col = self.ws.acquire_f32(CONV_BLOCK * wr);
                    for (bi, urows) in grad.chunks(CONV_BLOCK * out_ch).enumerate() {
                        let nw = urows.len() / out_ch;
                        let first = bi * CONV_BLOCK;
                        let col = &mut col[..nw * wr];
                        for (j, row) in col.chunks_exact_mut(wr).enumerate() {
                            let s = window_start(first + j);
                            row.copy_from_slice(&xdat[s..s + wr]);
                        }
                        dense::at_b_accum::<false>(col, urows, &mut gw, nw, wr, out_ch);
                        dense::matmul_unfused(urows, &wt, col, nw, out_ch, wr);
                        for (j, drow) in col.chunks_exact(wr).enumerate() {
                            let s = window_start(first + j);
                            for (g, &d) in gx[s..s + wr].iter_mut().zip(drow) {
                                *g += d;
                            }
                        }
                    }
                    self.ws.release_f32(wt);
                    self.ws.release_f32(col);
                    if let Some(b) = bias {
                        for urow in grad.chunks_exact(out_ch) {
                            for (g, &u) in self.nodes[b.0].grad.iter_mut().zip(urow) {
                                *g += u;
                            }
                        }
                    }
                    self.nodes[x.0].data = xdat;
                    self.nodes[w.0].data = wdat;
                    self.nodes[x.0].grad = gx;
                    self.nodes[w.0].grad = gw;
                }
                Op::Reshape(a) => {
                    for (g, &u) in self.nodes[a.0].grad.iter_mut().zip(&grad) {
                        *g += u;
                    }
                }
                Op::MaxPoolRows { x, size, seg_len } => {
                    // Recompute the argmax routing from the saved input;
                    // first strictly-greater row wins, matching forward.
                    let (len, ch) = self.nodes[x.0].shape;
                    let seg_out = seg_len.div_ceil(size);
                    let mut xg = std::mem::take(&mut self.nodes[x.0].grad);
                    let xd = &self.nodes[x.0].data;
                    for s in 0..len / seg_len {
                        for w in 0..seg_out {
                            let i0 = s * seg_len + w * size;
                            let i1 = (i0 + size).min((s + 1) * seg_len);
                            let ob = (s * seg_out + w) * ch;
                            for j in 0..ch {
                                let mut best = i0;
                                for r in i0 + 1..i1 {
                                    if xd[r * ch + j] > xd[best * ch + j] {
                                        best = r;
                                    }
                                }
                                xg[best * ch + j] += grad[ob + j];
                            }
                        }
                    }
                    self.nodes[x.0].grad = xg;
                }
                Op::SoftmaxCe { logits, targets, temperature } => {
                    let (m, c) = self.nodes[logits.0].shape;
                    let probs = std::mem::take(&mut self.nodes[i].aux_f);
                    let u = grad[0] / (m as f32 * temperature);
                    {
                        let gl = &mut self.nodes[logits.0].grad;
                        for (r, &t) in targets.iter().enumerate() {
                            for j in 0..c {
                                let p = probs[r * c + j];
                                let y = if j == t { 1.0 } else { 0.0 };
                                gl[r * c + j] += u * (p - y);
                            }
                        }
                    }
                    self.nodes[i].aux_f = probs;
                }
            }
            self.nodes[i].grad = grad;
        }
    }
}

/// Row-wise argmax of a logits matrix. NaN logits (a diverged or damaged
/// model) are ordered by `total_cmp` instead of panicking — divergence is
/// detected and handled by the callers' finiteness checks. A zero-width
/// row (impossible for any real head) defaults to class 0.
pub fn argmax_rows(data: &[f32], rows: usize, cols: usize) -> Vec<usize> {
    assert_eq!(data.len(), rows * cols);
    data.chunks(cols).map(argmax_row).collect()
}

/// Index of the largest entry of one row under `f32::total_cmp` (the
/// last of equal maxima; `0` for an empty row).
pub fn argmax_row(row: &[f32]) -> usize {
    row.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map_or(0, |(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Finite-difference check: perturb each input scalar, compare the
    /// analytic gradient against (f(x+h) - f(x-h)) / 2h.
    fn grad_check(build: impl Fn(&mut Tape<'_>, Var) -> Var, x0: Vec<f32>, rows: usize, cols: usize) {
        let params = Params::new();
        // Analytic gradient.
        let analytic: Vec<f32> = {
            let mut tape = Tape::new(&params);
            let x = tape.input(x0.clone(), rows, cols);
            let loss = build(&mut tape, x);
            tape.backward(loss);
            tape.grad(x).to_vec()
        };
        let h = 1e-3f32;
        for i in 0..x0.len() {
            let eval = |delta: f32| -> f32 {
                let mut xs = x0.clone();
                xs[i] += delta;
                let p2 = Params::new();
                let mut tape = Tape::new(&p2);
                let x = tape.input(xs, rows, cols);
                let loss = build(&mut tape, x);
                tape.data(loss)[0]
            };
            let numeric = (eval(h) - eval(-h)) / (2.0 * h);
            let a = analytic[i];
            assert!(
                (a - numeric).abs() < 2e-2 * (1.0 + a.abs().max(numeric.abs())),
                "grad mismatch at {i}: analytic {a} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn grad_matmul_tanh() {
        grad_check(
            |t, x| {
                let w = t.input(vec![0.5, -0.3, 0.2, 0.8, -0.1, 0.4], 3, 2);
                let h = t.matmul(x, w);
                let a = t.tanh(h);
                t.sum_all(a)
            },
            vec![0.1, -0.2, 0.3, 0.5, 0.4, -0.6],
            2,
            3,
        );
    }

    #[test]
    fn grad_relu_sigmoid_scale() {
        grad_check(
            |t, x| {
                let r = t.relu(x);
                let s = t.sigmoid(r);
                let sc = t.scale(s, 2.5);
                t.sum_all(sc)
            },
            vec![0.3, -0.4, 1.2, -0.1],
            2,
            2,
        );
    }

    #[test]
    fn grad_mul_sub_add() {
        grad_check(
            |t, x| {
                let y = t.input(vec![1.0, -2.0, 0.5, 3.0], 2, 2);
                let m = t.mul(x, y);
                let s = t.sub(m, y);
                let a = t.add(s, x);
                t.sum_all(a)
            },
            vec![0.2, 0.7, -0.3, 0.9],
            2,
            2,
        );
    }

    #[test]
    fn grad_add_row_bias() {
        grad_check(
            |t, x| {
                let b = t.input(vec![0.1, -0.2], 1, 2);
                let y = t.add_row(x, b);
                let a = t.tanh(y);
                t.sum_all(a)
            },
            vec![0.5, 0.6, -0.7, 0.8, 0.9, -1.0],
            3,
            2,
        );
    }

    #[test]
    fn grad_concat_cols_and_rows() {
        grad_check(
            |t, x| {
                let y = t.input(vec![0.4, 0.1, -0.9, 0.2], 2, 2);
                let cc = t.concat_cols(x, y);
                let cr = t.concat_rows(cc, cc);
                let m = t.scale(cr, 0.5);
                let a = t.tanh(m);
                t.sum_all(a)
            },
            vec![0.3, -0.5, 0.2, 0.8],
            2,
            2,
        );
    }

    #[test]
    fn grad_gather_rows_pad() {
        grad_check(
            |t, x| {
                let g = t.gather_rows_pad(x, &[2, 0], 4);
                let a = t.tanh(g);
                t.sum_all(a)
            },
            vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6],
            3,
            2,
        );
    }

    #[test]
    fn grad_spmm() {
        // Leaked so the borrow outlives every tape `grad_check` builds.
        let sp: &'static SparseMatrix = Box::leak(Box::new(SparseMatrix::from_triplets(
            3,
            3,
            &[(0, 1, 2.0), (1, 0, -1.0), (2, 2, 0.5)],
        )));
        grad_check(
            |t, x| {
                let a = t.sparse_ref(sp);
                let y = t.spmm_at(a, x);
                let a = t.tanh(y);
                t.sum_all(a)
            },
            vec![0.2, -0.1, 0.4, 0.3, 0.6, -0.5],
            3,
            2,
        );
    }

    #[test]
    fn grad_conv1d_and_maxpool() {
        grad_check(
            |t, x| {
                let w = t.input(vec![0.5, -0.2, 0.1, 0.3, -0.4, 0.6, 0.2, 0.7], 4, 2);
                let b = t.input(vec![0.05, -0.05], 1, 2);
                let c = t.conv1d_rows(x, w, Some(b), 2, 1);
                let p = t.maxpool_rows_seg(c, 2, 4);
                let a = t.tanh(p);
                t.sum_all(a)
            },
            vec![0.1, 0.9, -0.3, 0.4, 0.8, -0.2, 0.5, 0.6, -0.7, 0.2],
            5,
            2,
        );
    }

    #[test]
    fn grad_gather_rows_at() {
        grad_check(
            |t, x| {
                // Two "graphs" of 2+1 rows sorted into 2-row slots each;
                // slot 3 stays zero padding.
                let g = t.gather_rows_at(x, &[(0, 1), (1, 0), (2, 2)], 4);
                let a = t.tanh(g);
                t.sum_all(a)
            },
            vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6],
            3,
            2,
        );
    }

    #[test]
    fn seg_conv_matches_per_segment_plain_conv() {
        // Conv over two packed 4-row segments must equal two independent
        // 4-row convs.
        let xdat: Vec<f32> = (0..16).map(|i| (i as f32) * 0.1 - 0.8).collect(); // 8×2
        let wdat: Vec<f32> = (0..12).map(|i| ((i % 5) as f32) * 0.2 - 0.4).collect(); // (2·2)×3
        let bdat = vec![0.05, -0.1, 0.2];
        let params = Params::new();
        let mut tape = Tape::new(&params);
        let x = tape.input(xdat.clone(), 8, 2);
        let w = tape.input(wdat.clone(), 4, 3);
        let b = tape.input(bdat.clone(), 1, 3);
        let packed = tape.conv1d_rows_seg(x, w, Some(b), 2, 1, 4);
        assert_eq!(tape.shape(packed), (6, 3));
        let packed_out = tape.data(packed).to_vec();
        for seg in 0..2 {
            let xs = tape.input(xdat[seg * 8..(seg + 1) * 8].to_vec(), 4, 2);
            let ws = tape.input(wdat.clone(), 4, 3);
            let bs = tape.input(bdat.clone(), 1, 3);
            let single = tape.conv1d_rows(xs, ws, Some(bs), 2, 1);
            assert_eq!(
                tape.data(single),
                &packed_out[seg * 9..(seg + 1) * 9],
                "segment {seg}"
            );
        }
    }

    /// The fused scalar conv1d backward loop the split dW/dX kernels
    /// replaced, kept as their bitwise reference: per output row, dW
    /// takes x·u in place and dX a 0.0-started Σ_j w·u per window slot.
    fn conv1d_backward_reference(
        x: &[f32],
        w: &[f32],
        u: &[f32],
        (gx, gw, gb): (&mut [f32], &mut [f32], &mut [f32]),
        in_ch: usize,
        out_ch: usize,
        (ksize, stride, seg_len): (usize, usize, usize),
    ) {
        let segs = x.len() / in_ch / seg_len;
        let seg_out = (seg_len - ksize) / stride + 1;
        for seg in 0..segs {
            for t in 0..seg_out {
                let start = seg * seg_len + t * stride;
                let orow = seg * seg_out + t;
                let urow = &u[orow * out_ch..(orow + 1) * out_ch];
                for p in 0..ksize * in_ch {
                    let xv = x[start * in_ch + p];
                    let wrow = &w[p * out_ch..(p + 1) * out_ch];
                    let gwp = &mut gw[p * out_ch..(p + 1) * out_ch];
                    let mut gx_acc = 0.0f32;
                    for ((gwj, &uj), &wv) in gwp.iter_mut().zip(urow).zip(wrow) {
                        *gwj += xv * uj;
                        gx_acc += wv * uj;
                    }
                    gx[start * in_ch + p] += gx_acc;
                }
                for (g, &uj) in gb.iter_mut().zip(urow) {
                    *g += uj;
                }
            }
        }
    }

    #[test]
    fn conv1d_backward_matches_scalar_reference_bitwise() {
        use crate::dense::tests::{assert_same_bits, operand};
        let mut seed = 11;
        // (in_ch, out_ch, ksize, stride, seg_len, segs): overlapping and
        // tiling windows, tile remainders in every dimension, and more
        // than one CONV_BLOCK of windows.
        let geometries = [
            (1, 1, 1, 1, 1, 1),
            (2, 3, 2, 1, 4, 2),
            (3, 5, 3, 2, 9, 3),
            (12, 24, 3, 1, 14, 16),
            (49, 12, 1, 1, 28, 4),
            (4, 17, 2, 2, 11, 1),
            (5, 33, 4, 1, 70, 2),
            (1, 7, 5, 5, 20, 3),
        ];
        for specials in [false, true] {
            for &(in_ch, out_ch, ksize, stride, seg_len, segs) in &geometries {
                seed += 1;
                let len = seg_len * segs;
                let out_len = segs * ((seg_len - ksize) / stride + 1);
                let xdat = operand(len * in_ch, seed, specials);
                let wdat = operand(ksize * in_ch * out_ch, seed + 100, specials);
                let bdat = operand(out_ch, seed + 200, specials);
                let udat = operand(out_len * out_ch, seed + 300, specials);
                let params = Params::new();
                let mut tape = Tape::new(&params);
                let x = tape.input(xdat.clone(), len, in_ch);
                let w = tape.input(wdat.clone(), ksize * in_ch, out_ch);
                let b = tape.input(bdat, 1, out_ch);
                let y = tape.conv1d_rows_seg(x, w, Some(b), ksize, stride, seg_len);
                let u = tape.input(udat, out_len, out_ch);
                let yu = tape.mul(y, u);
                let loss = tape.sum_all(yu);
                tape.backward(loss);
                let dy = tape.grad(y).to_vec();
                let mut gx = vec![0.0; xdat.len()];
                let mut gw = vec![0.0; wdat.len()];
                let mut gb = vec![0.0; out_ch];
                conv1d_backward_reference(
                    &xdat,
                    &wdat,
                    &dy,
                    (&mut gx, &mut gw, &mut gb),
                    in_ch,
                    out_ch,
                    (ksize, stride, seg_len),
                );
                let what =
                    format!("in {in_ch} out {out_ch} k {ksize} s {stride} seg {seg_len}x{segs}");
                assert_same_bits(tape.grad(x), &gx, &format!("dX {what}"));
                assert_same_bits(tape.grad(w), &gw, &format!("dW {what}"));
                assert_same_bits(tape.grad(b), &gb, &format!("dB {what}"));
            }
        }
    }

    #[test]
    fn seg_maxpool_respects_segment_boundaries() {
        // Odd segment length: the tail window must not leak into the next
        // segment.
        let params = Params::new();
        let mut tape = Tape::new(&params);
        let x = tape.input(vec![1.0, 5.0, 3.0, 9.0, 2.0, 4.0], 6, 1);
        let p = tape.maxpool_rows_seg(x, 2, 3);
        assert_eq!(tape.shape(p), (4, 1));
        // Segment 1 rows [1,5,3]: pools to [5, 3]; segment 2 rows
        // [9,2,4]: pools to [9, 4]. A straddling pool would give 9 for
        // the tail of segment 1.
        assert_eq!(tape.data(p), &[5.0, 3.0, 9.0, 4.0]);
    }

    #[test]
    fn grad_conv_seg_and_maxpool_seg() {
        grad_check(
            |t, x| {
                let w = t.input(vec![0.5, -0.2, 0.1, 0.3, -0.4, 0.6, 0.2, 0.7], 4, 2);
                let b = t.input(vec![0.05, -0.05], 1, 2);
                let c = t.conv1d_rows_seg(x, w, Some(b), 2, 1, 3);
                let p = t.maxpool_rows_seg(c, 2, 2);
                let a = t.tanh(p);
                t.sum_all(a)
            },
            vec![0.1, 0.9, -0.3, 0.4, 0.8, -0.2, 0.5, 0.6, -0.7, 0.2, 0.35, -0.15],
            6,
            2,
        );
    }

    #[test]
    fn grad_softmax_ce() {
        grad_check(
            |t, x| t.softmax_ce(x, &[1, 0], 0.5),
            vec![0.2, 0.8, 1.5, -0.4],
            2,
            2,
        );
    }

    #[test]
    fn grad_sidecars_accumulate_across_tapes() {
        let mut params = Params::new();
        let w = params.add("w", 2, 1, vec![1.0, 2.0]);
        let mut master = GradStore::zeros_like(&params);
        {
            let mut tape = Tape::new(&params);
            let x = tape.input(vec![3.0, 4.0], 1, 2);
            let wv = tape.param(w);
            let y = tape.matmul(x, wv); // 3·1 + 4·2 = 11
            assert_eq!(tape.data(y), &[11.0]);
            let loss = tape.sum_all(y);
            assert!(tape.grads().is_none(), "no sidecar before backward");
            tape.backward(loss);
            master.absorb(&tape.into_grads());
        }
        assert_eq!(master.get(w), &[3.0, 4.0]);
        // Second tape's sidecar reduces into the same master.
        {
            let mut tape = Tape::new(&params);
            let x = tape.input(vec![1.0, 1.0], 1, 2);
            let wv = tape.param(w);
            let y = tape.matmul(x, wv);
            let loss = tape.sum_all(y);
            tape.backward(loss);
            master.absorb(&tape.into_grads());
        }
        assert_eq!(master.get(w), &[4.0, 5.0]);
        master.zero();
        assert_eq!(master.get(w), &[0.0, 0.0]);
    }

    #[test]
    fn forward_only_tape_yields_zeroed_sidecar() {
        let mut params = Params::new();
        let w = params.add("w", 1, 2, vec![1.0, 2.0]);
        let mut tape = Tape::new(&params);
        let _ = tape.param(w);
        let grads = tape.into_grads();
        assert_eq!(grads.len(), 1);
        assert_eq!(grads.get(w), &[0.0, 0.0]);
    }

    #[test]
    fn params_are_shareable_across_threads_during_forward() {
        let mut params = Params::new();
        let w = params.add("w", 2, 1, vec![1.0, 2.0]);
        let params = std::sync::Arc::new(params);
        let mut outs = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let p = std::sync::Arc::clone(&params);
                    s.spawn(move || {
                        let mut tape = Tape::new(&p);
                        let x = tape.input(vec![t as f32, 1.0], 1, 2);
                        let wv = tape.param(w);
                        let y = tape.matmul(x, wv);
                        tape.data(y)[0]
                    })
                })
                .collect();
            for h in handles {
                match h.join() {
                    Ok(v) => outs.push(v),
                    Err(p) => std::panic::resume_unwind(p),
                }
            }
        });
        assert_eq!(outs, vec![2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn training_reduces_loss_linear_classifier() {
        // 2-class linearly separable toy problem; a few SGD steps must
        // reduce the softmax-CE loss.
        let xs = vec![
            (vec![1.0f32, 0.2], 0usize),
            (vec![0.9, -0.1], 0),
            (vec![-0.8, 0.1], 1),
            (vec![-1.1, -0.3], 1),
        ];
        let mut params = Params::new();
        let w = params.add("w", 2, 2, vec![0.01, -0.02, 0.03, 0.01]);
        let b = params.add("b", 1, 2, vec![0.0, 0.0]);
        let loss_of = |params: &Params| -> (f32, GradStore) {
            let mut total = 0.0;
            let mut master = GradStore::zeros_like(params);
            for (x, y) in &xs {
                let mut tape = Tape::new(params);
                let xv = tape.input(x.clone(), 1, 2);
                let wv = tape.param(w);
                let bv = tape.param(b);
                let h = tape.matmul(xv, wv);
                let logits = tape.add_row(h, bv);
                let loss = tape.softmax_ce(logits, &[*y], 1.0);
                total += tape.data(loss)[0];
                tape.backward(loss);
                master.absorb(&tape.into_grads());
            }
            (total / xs.len() as f32, master)
        };
        let (initial, _) = loss_of(&params);
        for _ in 0..50 {
            let (_, grads) = loss_of(&params);
            for &id in &[w, b] {
                for (p, &gv) in params.data_mut(id).iter_mut().zip(grads.get(id)) {
                    *p -= 0.5 * gv;
                }
            }
        }
        let (trained, _) = loss_of(&params);
        assert!(
            trained < initial * 0.5,
            "loss should halve: {initial} -> {trained}"
        );
    }

    #[test]
    fn grad_reshape_passthrough() {
        grad_check(
            |t, x| {
                let r = t.reshape(x, 1, 6);
                let a = t.tanh(r);
                t.sum_all(a)
            },
            vec![0.1, -0.2, 0.3, 0.4, -0.5, 0.6],
            2,
            3,
        );
    }

    #[test]
    fn pooled_tape_is_bit_identical_and_stops_allocating() {
        // The same small network, three ways: a cold tape, a pooled tape,
        // and the pooled tape rebuilt in place after reset(). All three
        // must produce the same bits, and the rebuilt pass must run
        // entirely from the pool (zero misses).
        let mut params = Params::new();
        let w = params.add("w", 3, 2, vec![0.5, -0.3, 0.2, 0.8, -0.1, 0.4]);
        let xdat = vec![0.1, -0.2, 0.3, 0.5, 0.4, -0.6];
        let run = |tape: &mut Tape<'_>| -> Vec<u32> {
            let x = tape.input_slice(&xdat, 2, 3);
            let wv = tape.param(w);
            let h = tape.matmul(x, wv);
            let t = tape.tanh(h);
            let r = tape.relu(t);
            // Recycles the usize (pad indices) and u32 (gather pairs)
            // pools as well as the f32 one.
            let p = tape.gather_rows_pad(r, &[1, 0], 3);
            let g = tape.gather_rows_at(p, &[(0, 1), (1, 0)], 3);
            m_bits(tape, g)
        };
        fn m_bits(tape: &Tape<'_>, v: Var) -> Vec<u32> {
            tape.data(v).iter().map(|x| x.to_bits()).collect()
        }
        let cold = {
            let mut tape = Tape::new(&params);
            run(&mut tape)
        };
        let mut tape = Tape::with_workspace(&params, Workspace::new());
        let first = run(&mut tape);
        tape.reset();
        let warm_misses = tape.workspace_mut().stats().misses;
        let second = run(&mut tape);
        tape.reset();
        let final_stats = tape.workspace_mut().stats();
        assert_eq!(cold, first, "pooling changed the forward bits");
        assert_eq!(cold, second, "reset/rebuild changed the forward bits");
        assert_eq!(
            final_stats.misses, warm_misses,
            "a warm tape must not allocate fresh buffers"
        );
        let ws = tape.finish();
        assert!(ws.stats().resident > 0, "finish must return the warm pool");
    }

    #[test]
    fn backward_after_reset_matches_fresh_tape() {
        let mut params = Params::new();
        let w = params.add("w", 2, 2, vec![0.3, -0.2, 0.5, 0.1]);
        let grads_of = |tape: &mut Tape<'_>| -> Vec<f32> {
            let x = tape.input_slice(&[1.0, 2.0, -0.5, 0.25], 2, 2);
            let wv = tape.param(w);
            let h = tape.matmul(x, wv);
            let loss = tape.softmax_ce(h, &[0, 1], 1.0);
            tape.backward(loss);
            tape.grads().map(|g| g.get(w).to_vec()).unwrap_or_default()
        };
        let fresh = {
            let mut tape = Tape::new(&params);
            grads_of(&mut tape)
        };
        let mut tape = Tape::new(&params);
        let _ = grads_of(&mut tape);
        tape.reset();
        let recycled = grads_of(&mut tape);
        assert_eq!(fresh, recycled, "recycled grad buffers must start zeroed");
    }

    #[test]
    fn argmax_rows_picks_max() {
        let d = vec![0.1, 0.9, 0.5, 0.2, 0.3, 0.1];
        assert_eq!(argmax_rows(&d, 2, 3), vec![1, 1]);
    }

    #[test]
    fn absorb_sums_sidecars() {
        let mut params = Params::new();
        let w = params.add("w", 1, 2, vec![0.0, 0.0]);
        let run = || {
            let mut tape = Tape::new(&params);
            let x = tape.input(vec![1.0, 2.0], 1, 2);
            let wv = tape.param(w);
            let m = tape.mul(x, wv);
            let loss = tape.sum_all(m);
            tape.backward(loss);
            tape.into_grads()
        };
        let mut a = run();
        a.absorb(&run());
        assert_eq!(a.get(w), &[2.0, 4.0]);
    }

    #[test]
    fn grad_norm_reports() {
        let mut params = Params::new();
        let w = params.add("w", 1, 2, vec![0.0, 0.0]);
        let grads = {
            let mut tape = Tape::new(&params);
            let x = tape.input(vec![3.0, 4.0], 1, 2);
            let wv = tape.param(w);
            let m = tape.mul(x, wv);
            let loss = tape.sum_all(m);
            tape.backward(loss);
            tape.into_grads()
        };
        assert!((grads.grad_norm() - 5.0).abs() < 1e-5);
    }
}
