//! Golden bit pins for the set-up path: corpus featurisation and
//! training with `TrainConfig::default()`, the configuration the
//! benchmark's set-up uses.
//!
//! `determinism.rs` compares two runs with each other; these tests
//! compare one run with fixed FNV-1a hashes, so a kernel rewrite that
//! changes a single rounding step anywhere in the corpus build, the
//! forward pass, the backward pass or the optimizer step fails here even
//! when it is deterministic. The values come from the plain scalar
//! loops (the tiled kernels' test-only references), so they pin the
//! optimised kernels to those loops' exact rounding.

use mvgnn::core::model::{MvGnn, MvGnnConfig};
use mvgnn::core::trainer::{train, TrainConfig};
use mvgnn::dataset::{build_corpus, CorpusConfig, Dataset};
use mvgnn::embed::Inst2VecConfig;
use mvgnn::ir::transform::OptLevel;
use mvgnn::tensor::ParamId;

/// FNV-1a (64-bit) over the little-endian bytes of each `u32`.
fn fnv1a(bits: impl IntoIterator<Item = u32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in bits {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// A slice of the benchmark's corpus: the same inst2vec and sample
/// settings, one generation seed and two optimisation levels.
fn corpus() -> Dataset {
    build_corpus(&CorpusConfig {
        seeds: vec![1],
        opt_levels: vec![OptLevel::O0, OptLevel::O2],
        per_class: Some(64),
        test_fraction: 0.25,
        suite: None,
        inst2vec: Inst2VecConfig { dim: 48, epochs: 3, negatives: 4, lr: 0.05, seed: 0x1257 },
        sample: Default::default(),
        seed: 0xca5c,
        label_noise: 0.0,
        static_features: false,
    })
}

/// Samples hashed by the featurisation pin and trained on by the
/// training pin.
const SLICE: usize = 64;

#[test]
fn corpus_features_match_the_recorded_bits() {
    let ds = corpus();
    assert!(ds.train.len() >= SLICE, "corpus slice too small: {}", ds.train.len());
    let slice = &ds.train[..SLICE];
    let nodes: usize = slice.iter().map(|s| s.sample.n).sum();
    let feats = fnv1a(slice.iter().flat_map(|s| s.sample.node_feats.iter().map(|x| x.to_bits())));
    let dists =
        fnv1a(slice.iter().flat_map(|s| s.sample.struct_dists.iter().map(|x| x.to_bits())));
    assert_eq!(
        (ds.train.len(), ds.test.len(), nodes),
        (GOLDEN_SPLIT.0, GOLDEN_SPLIT.1, GOLDEN_SPLIT.2),
        "split sizes / node count"
    );
    assert_eq!(feats, GOLDEN_NODE_FEATS, "node_feats bits: {feats:#018x}");
    assert_eq!(dists, GOLDEN_STRUCT_DISTS, "struct_dists bits: {dists:#018x}");
}

#[test]
fn default_training_matches_the_recorded_bits() {
    let ds = corpus();
    let slice = &ds.train[..SLICE];
    let probe = &slice[0].sample;
    let mut model = MvGnn::new(MvGnnConfig::small(probe.node_dim, probe.aw_vocab));
    let stats = train(&mut model, slice, &TrainConfig { epochs: 2, ..TrainConfig::default() })
        .expect("training must succeed");
    let losses: Vec<u32> = stats.iter().map(|s| s.loss.to_bits()).collect();
    let weights = fnv1a(
        (0..model.params.len())
            .flat_map(|i| model.params.data(ParamId(i)).iter().map(|x| x.to_bits())),
    );
    assert_eq!(losses, GOLDEN_LOSSES, "per-epoch loss bits");
    assert_eq!(weights, GOLDEN_WEIGHTS, "weight bits: {weights:#018x}");
}

const GOLDEN_SPLIT: (usize, usize, usize) = (128, 44, 446);
const GOLDEN_NODE_FEATS: u64 = 0x4413_6cf8_bccc_b96e;
const GOLDEN_STRUCT_DISTS: u64 = 0xe5be_600a_b415_0e7d;
const GOLDEN_LOSSES: [u32; 2] = [1065817348, 1062007862];
const GOLDEN_WEIGHTS: u64 = 0x2d30_a16f_fca1_52bb;
