//! Assembly of one loop sub-PEG into the model-ready sample.

use crate::awe::structural_distributions;
use crate::inst2vec::Inst2Vec;
use mvgnn_gnn::gcn_adjacency;
use mvgnn_graph::{AwVocab, Csr, WalkConfig};
use mvgnn_ir::module::{FuncId, LoopId};
use mvgnn_peg::{PegNodeKind, SubPeg};
use mvgnn_profiler::DynamicFeatures;
use mvgnn_tensor::SparseMatrix;

/// Feature-assembly configuration.
#[derive(Debug, Clone)]
pub struct SampleConfig {
    /// Anonymous walk configuration (structural view).
    pub walks: WalkConfig,
    /// Anonymous-walk vocabulary length (must equal `walks.walk_len`).
    pub walk_len: usize,
    /// Width of the optional static-oracle feature block appended to each
    /// node row (see `mvgnn_analyze::OracleReport::feature_vec`). `0`
    /// disables the block entirely — the default, so the paper's feature
    /// layout is unchanged unless an ablation opts in.
    pub static_dim: usize,
}

impl Default for SampleConfig {
    fn default() -> Self {
        Self {
            walks: WalkConfig::default(),
            walk_len: WalkConfig::default().walk_len,
            static_dim: 0,
        }
    }
}

/// Number of node-kind indicator features (func/loop/load/store/call/
/// compute/control).
pub const KIND_DIM: usize = 7;

/// Number of incident-edge summary features: in/out × {def-use,
/// carried RAW, carried WAR, carried WAW, loop-independent dep,
/// hierarchy}, log-scaled counts. The paper's PEG edges are typed
/// (`⟨SINK, TYPE, SOURCE⟩`) and a plain GCN adjacency loses that, so the
/// types are folded into node features. Keeping the carried kinds apart
/// is what separates a reduction cycle (carried RAW + WAW on one cell)
/// from a serial recurrence (carried RAW only).
pub const EDGE_DIM: usize = 12;

/// One classification sample: a loop sub-PEG with both views' features.
#[derive(Debug, Clone)]
pub struct GraphSample {
    /// Node count.
    pub n: usize,
    /// Symmetric-normalised GCN propagation operator.
    pub adj: SparseMatrix,
    /// Node-feature view matrix, row-major `n × node_dim`.
    pub node_feats: Vec<f32>,
    /// Node-feature width: inst2vec dim + [`KIND_DIM`] + [`EDGE_DIM`] +
    /// Table I dims + `SampleConfig::static_dim` (0 unless enabled).
    pub node_dim: usize,
    /// Structural view: anonymous-walk distributions `n × aw_vocab`.
    pub struct_dists: Vec<f32>,
    /// Anonymous-walk vocabulary size.
    pub aw_vocab: usize,
    /// inst2vec token ids of the sub-PEG nodes in source-line order — the
    /// statement sequence consumed by sequence baselines (NCC).
    pub token_ids: Vec<usize>,
    /// Owning function.
    pub func: FuncId,
    /// The classified loop.
    pub l: LoopId,
    /// Binary label (1 = parallelizable), if known.
    pub label: Option<usize>,
}

impl GraphSample {
    /// Check that every matrix agrees with the node count: `node_feats`
    /// is `n × node_dim`, `struct_dists` is `n × aw_vocab`, and the
    /// adjacency is `n × n`. Packing a sample that fails this panics, so
    /// untrusted samples (the serve layer's requests) are checked here
    /// first.
    pub fn check_shape(&self) -> Result<(), String> {
        let n = self.n;
        if n.checked_mul(self.node_dim) != Some(self.node_feats.len()) {
            return Err(format!(
                "node features {} != n*dim {n}*{}",
                self.node_feats.len(),
                self.node_dim
            ));
        }
        if n.checked_mul(self.aw_vocab) != Some(self.struct_dists.len()) {
            return Err(format!(
                "structural distributions {} != n*vocab {n}*{}",
                self.struct_dists.len(),
                self.aw_vocab
            ));
        }
        if (self.adj.rows(), self.adj.cols()) != (n, n) {
            return Err(format!(
                "adjacency {}x{} is not n x n for n {n}",
                self.adj.rows(),
                self.adj.cols()
            ));
        }
        Ok(())
    }
}

fn kind_onehot(kind: &PegNodeKind, token: &str) -> [f32; KIND_DIM] {
    let mut v = [0.0f32; KIND_DIM];
    let idx = match kind {
        PegNodeKind::Func(_) => 0,
        PegNodeKind::Loop(_, _) => 1,
        PegNodeKind::Cu(_) => match token {
            "load" => 2,
            "store" => 3,
            t if t.starts_with("call") => 4,
            "condbr" | "ret" => 6,
            _ => 5,
        },
    };
    v[idx] = 1.0;
    v
}

/// Build the sample for one sub-PEG.
///
/// Node features are `inst2vec(token) ⊕ kind-onehot ⊕ dynamic features`;
/// the Table I vector is loop-level, so it is broadcast onto every node
/// of the loop's sub-PEG (the paper concatenates the DiscoPoP dynamic
/// features into the node features) — this also guarantees the signal
/// survives SortPooling regardless of which nodes rank into the top-k.
pub fn build_sample(
    sub: &SubPeg,
    inst2vec: &Inst2Vec,
    dyn_feats: &DynamicFeatures,
    cfg: &SampleConfig,
    label: Option<usize>,
) -> GraphSample {
    build_sample_with_static(sub, inst2vec, dyn_feats, None, cfg, label)
}

/// [`build_sample`] with an optional static-oracle feature block.
///
/// When `cfg.static_dim > 0`, `static_feats` must be a slice of exactly
/// that width; like the dynamic features it is loop-level and broadcast
/// onto every node row. When `cfg.static_dim == 0` the argument is
/// ignored and the layout is identical to [`build_sample`].
pub fn build_sample_with_static(
    sub: &SubPeg,
    inst2vec: &Inst2Vec,
    dyn_feats: &DynamicFeatures,
    static_feats: Option<&[f32]>,
    cfg: &SampleConfig,
    label: Option<usize>,
) -> GraphSample {
    assert_eq!(cfg.walk_len, cfg.walks.walk_len, "walk length mismatch in config");
    let static_vec: &[f32] = if cfg.static_dim == 0 { &[] } else { static_feats.unwrap_or(&[]) };
    assert_eq!(
        static_vec.len(),
        cfg.static_dim,
        "static feature width must match cfg.static_dim"
    );
    let n = sub.graph.node_count();
    let e_dim = inst2vec.dim();
    let node_dim = e_dim + KIND_DIM + EDGE_DIM + DynamicFeatures::DIM + cfg.static_dim;

    // Incident-edge census per node.
    let mut edge_feats = vec![[0.0f32; EDGE_DIM]; n];
    for e in sub.graph.edge_ids() {
        let (src, dst) = sub.graph.endpoints(e);
        let w = sub.graph.edge(e);
        let slot = match w.kind {
            mvgnn_peg::PegEdgeKind::DefUse => 0,
            mvgnn_peg::PegEdgeKind::Dep(k) if w.carried => match k {
                mvgnn_profiler::DepKind::Raw => 1,
                mvgnn_profiler::DepKind::War => 2,
                mvgnn_profiler::DepKind::Waw => 3,
            },
            mvgnn_peg::PegEdgeKind::Dep(_) => 4,
            mvgnn_peg::PegEdgeKind::Hierarchy => 5,
        };
        edge_feats[src.index()][slot * 2] += 1.0;
        edge_feats[dst.index()][slot * 2 + 1] += 1.0;
    }
    for f in &mut edge_feats {
        for x in f.iter_mut() {
            *x = x.ln_1p();
        }
    }

    let dyn_vec = dyn_feats.to_vec();
    let mut node_feats = Vec::with_capacity(n * node_dim);
    for id in sub.graph.node_ids() {
        let node = sub.graph.node(id);
        // Mean of member-statement embeddings: compound compute CUs keep
        // every opcode visible instead of collapsing to one token.
        let mut emb = vec![0.0f32; e_dim];
        for tok in &node.tokens {
            for (e, &x) in emb.iter_mut().zip(inst2vec.embed(tok)) {
                *e += x;
            }
        }
        let inv = 1.0 / node.tokens.len().max(1) as f32;
        for e in &mut emb {
            *e *= inv;
        }
        node_feats.extend_from_slice(&emb);
        node_feats.extend_from_slice(&kind_onehot(&node.kind, node.token));
        node_feats.extend_from_slice(&edge_feats[id.index()]);
        node_feats.extend_from_slice(&dyn_vec);
        node_feats.extend_from_slice(static_vec);
    }

    let vocab = AwVocab::new(cfg.walk_len);
    let struct_dists = structural_distributions(&sub.graph, &vocab, cfg.walks);

    // Statement sequence in source order for sequence-model baselines
    // (every member statement, as NCC consumes raw statement streams).
    let mut order: Vec<_> = sub.graph.node_ids().collect();
    order.sort_by_key(|&id| (sub.graph.node(id).line_span, id));
    let token_ids: Vec<usize> = order
        .iter()
        .flat_map(|&id| sub.graph.node(id).tokens.iter().map(|t| inst2vec.id(t)))
        .collect();

    // The GCN adjacency leaves out containment edges: the loop node is a
    // hub touching every member, so they would shortcut all pairwise
    // distances and over-smooth small graphs. They stay visible through
    // the node edge-census features and the walks.
    let edges: Vec<(u32, u32)> = sub
        .graph
        .edge_ids()
        .filter(|&e| sub.graph.edge(e).kind != mvgnn_peg::PegEdgeKind::Hierarchy)
        .map(|e| {
            let (s, d) = sub.graph.endpoints(e);
            (s.0, d.0)
        })
        .collect();
    let csr = Csr::from_edges(sub.graph.node_count(), &edges);
    let adj = gcn_adjacency(&csr);

    GraphSample {
        n,
        adj,
        node_feats,
        node_dim,
        struct_dists,
        aw_vocab: vocab.size(),
        token_ids,
        func: sub.func,
        l: sub.l,
        label,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst2vec::Inst2VecConfig;
    use mvgnn_ir::inst::BinOp;
    use mvgnn_ir::types::Ty;
    use mvgnn_ir::{FunctionBuilder, Module};
    use mvgnn_peg::{build_peg, loop_subpeg};
    use mvgnn_profiler::{build_cus, loop_features, profile_module};

    fn make_sample() -> GraphSample {
        let mut m = Module::new("t");
        let a = m.add_array("a", Ty::F64, 16);
        let out = m.add_array("b", Ty::F64, 16);
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let lo = b.const_i64(0);
        let hi = b.const_i64(16);
        let st = b.const_i64(1);
        let l = b.for_loop(lo, hi, st, |b, iv| {
            let x = b.load(a, iv);
            let y = b.bin(BinOp::Mul, x, x);
            b.store(out, iv, y);
        });
        let f = b.finish();
        let cus = build_cus(&m);
        let res = profile_module(&m, f, &[]).unwrap();
        let peg = build_peg(&m, &cus, &res.deps);
        let sub = loop_subpeg(&peg, &m, &cus, f, l);
        let feats = loop_features(&m, f, l, &res.deps, &res.loops[&(f, l)]);
        let i2v = Inst2Vec::train(
            &[&m],
            &Inst2VecConfig { dim: 8, epochs: 2, negatives: 2, lr: 0.05, seed: 1 },
        );
        build_sample(&sub, &i2v, &feats, &SampleConfig::default(), Some(1))
    }

    #[test]
    fn sample_shapes_are_consistent() {
        let s = make_sample();
        assert!(s.n >= 4, "expected several PEG nodes, got {}", s.n);
        assert_eq!(s.node_feats.len(), s.n * s.node_dim);
        assert_eq!(s.struct_dists.len(), s.n * s.aw_vocab);
        assert_eq!(s.adj.rows(), s.n);
        assert_eq!(s.node_dim, 8 + KIND_DIM + EDGE_DIM + 7);
        assert_eq!(s.label, Some(1));
        assert_eq!(s.check_shape(), Ok(()));
    }

    #[test]
    fn check_shape_catches_every_disagreement_with_n() {
        let s = make_sample();
        let mut lying_n = s.clone();
        lying_n.n += 1;
        let mut short_feats = s.clone();
        short_feats.node_feats.pop();
        let mut short_dists = s.clone();
        short_dists.struct_dists.pop();
        let mut wrong_adj = s.clone();
        wrong_adj.adj = SparseMatrix::identity(s.n + 1);
        for bad in [lying_n, short_feats, short_dists, wrong_adj] {
            assert!(bad.check_shape().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn every_node_carries_the_loop_dynamic_features() {
        let s = make_sample();
        let dyn_off = s.node_dim - 7;
        let first = s.node_feats[dyn_off..s.node_dim].to_vec();
        assert!(first.iter().any(|&x| x != 0.0), "dynamics must be non-zero");
        for r in 1..s.n {
            let dynpart = &s.node_feats[r * s.node_dim + dyn_off..(r + 1) * s.node_dim];
            assert_eq!(dynpart, &first[..], "row {r} differs");
        }
    }

    #[test]
    fn edge_features_count_incident_edges() {
        let s = make_sample();
        let off = 8 + KIND_DIM;
        // At least one node must see a def-use edge and one a hierarchy
        // edge (the loop node contains members).
        let mut any_defuse = false;
        let mut any_hier = false;
        for r in 0..s.n {
            let ef = &s.node_feats[r * s.node_dim + off..r * s.node_dim + off + EDGE_DIM];
            if ef[0] > 0.0 || ef[1] > 0.0 {
                any_defuse = true;
            }
            if ef[10] > 0.0 || ef[11] > 0.0 {
                any_hier = true;
            }
        }
        assert!(any_defuse, "def-use census missing");
        assert!(any_hier, "hierarchy census missing");
    }

    #[test]
    fn kind_onehot_is_one_hot() {
        let s = make_sample();
        for r in 0..s.n {
            let kind_part = &s.node_feats[r * s.node_dim + 8..r * s.node_dim + 8 + KIND_DIM];
            let ones = kind_part.iter().filter(|&&x| x == 1.0).count();
            let zeros = kind_part.iter().filter(|&&x| x == 0.0).count();
            assert_eq!(ones, 1);
            assert_eq!(zeros, KIND_DIM - 1);
        }
    }

    #[test]
    fn token_sequence_covers_every_statement() {
        let s = make_sample();
        assert!(s.token_ids.len() >= s.n, "at least one token per node");
    }

    #[test]
    fn static_block_is_appended_only_when_enabled() {
        let mut m = Module::new("t");
        let a = m.add_array("a", Ty::F64, 16);
        let out = m.add_array("b", Ty::F64, 16);
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let lo = b.const_i64(0);
        let hi = b.const_i64(16);
        let st = b.const_i64(1);
        let l = b.for_loop(lo, hi, st, |b, iv| {
            let x = b.load(a, iv);
            let y = b.bin(BinOp::Mul, x, x);
            b.store(out, iv, y);
        });
        let f = b.finish();
        let cus = build_cus(&m);
        let res = profile_module(&m, f, &[]).unwrap();
        let peg = build_peg(&m, &cus, &res.deps);
        let sub = loop_subpeg(&peg, &m, &cus, f, l);
        let feats = loop_features(&m, f, l, &res.deps, &res.loops[&(f, l)]);
        let i2v = Inst2Vec::train(
            &[&m],
            &Inst2VecConfig { dim: 8, epochs: 2, negatives: 2, lr: 0.05, seed: 1 },
        );
        let plain = build_sample(&sub, &i2v, &feats, &SampleConfig::default(), None);
        let cfg = SampleConfig { static_dim: 3, ..SampleConfig::default() };
        let stat = [0.5f32, 0.0, 2.0];
        let s = build_sample_with_static(&sub, &i2v, &feats, Some(&stat), &cfg, None);
        assert_eq!(s.node_dim, plain.node_dim + 3);
        assert_eq!(s.node_feats.len(), s.n * s.node_dim);
        for r in 0..s.n {
            let tail = &s.node_feats[(r + 1) * s.node_dim - 3..(r + 1) * s.node_dim];
            assert_eq!(tail, &stat[..], "row {r} static block differs");
        }
        // Explicitly passing None with static_dim == 0 is the plain layout.
        let again = build_sample_with_static(
            &sub,
            &i2v,
            &feats,
            None,
            &SampleConfig::default(),
            None,
        );
        assert_eq!(again.node_dim, plain.node_dim);
        assert_eq!(again.node_feats, plain.node_feats);
    }

    #[test]
    fn struct_rows_are_distributions() {
        let s = make_sample();
        for row in s.struct_dists.chunks(s.aw_vocab) {
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "row sums to {sum}");
        }
    }
}
