//! Labeled corpus assembly: generate suites, apply the six optimisation
//! variants, profile, extract per-loop samples, balance and split.
//!
//! The generation itself lives in [`crate::shard`]: [`build_corpus`]
//! composes the three pipeline stages — vocabulary pass
//! ([`crate::shard::fit_inst2vec`]), generation of every work unit
//! ([`crate::shard::generate_shard`] over one shard), and the in-memory
//! assembly ([`assemble_dataset`]) that sorts, splits, balances and
//! noise-injects. Assembly consumes samples through a total order, so
//! the union of any `(num_shards, shard_id)` split of the same
//! configuration assembles to a bit-identical [`Dataset`].

use crate::kernels::{KernelFamily, PatternKind};
use crate::suites::{GeneratedApp, Suite};
use mvgnn_analyze::{analyze_loop, OracleReport};
use mvgnn_embed::{build_sample_with_static, GraphSample, Inst2Vec, Inst2VecConfig, SampleConfig};
use mvgnn_ir::transform::OptLevel;
use mvgnn_peg::{build_peg, loop_subpeg};
use mvgnn_profiler::{build_cus, loop_features, profile_module};


/// One labeled classification sample with provenance.
#[derive(Debug, Clone)]
pub struct LabeledSample {
    /// Model-ready graph sample.
    pub sample: GraphSample,
    /// Binary label: 1 = parallelisable.
    pub label: usize,
    /// Ground-truth pattern.
    pub pattern: PatternKind,
    /// Suite the loop came from.
    pub suite: Suite,
    /// Stress family of the template that generated the loop — the
    /// reporting key of the `patterns` bench bin (per-family metrics).
    pub family: KernelFamily,
    /// Application name.
    pub app: String,
    /// Identity of the *source* loop shared by all augmented variants —
    /// the unit of the train/test split (no leakage across variants).
    pub base_key: u64,
    /// Optimisation level of this augmented variant. Together with
    /// `base_key` this identifies the sample uniquely, which is what
    /// makes the assembly order a *total* order independent of which
    /// shard produced the sample.
    pub level: OptLevel,
}

/// Corpus construction configuration.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// Suite generation seeds; each seed regenerates all apps with fresh
    /// kernel draws (the paper's "transformed dataset" expansion).
    pub seeds: Vec<u64>,
    /// Optimisation variants applied to every module (paper: six).
    pub opt_levels: Vec<OptLevel>,
    /// Per-class cap after balancing (paper: 3100). `None` keeps all of
    /// the minority-class size.
    pub per_class: Option<usize>,
    /// Test fraction of base loops (paper: 0.25).
    pub test_fraction: f64,
    /// Restrict to one suite (None = all).
    pub suite: Option<Suite>,
    /// inst2vec training configuration.
    pub inst2vec: Inst2VecConfig,
    /// Per-sample feature assembly configuration.
    pub sample: SampleConfig,
    /// Master seed for balancing/shuffling decisions.
    pub seed: u64,
    /// Fraction of base loops whose label is flipped — models the
    /// annotation noise the paper reports (e.g. the IS loop-452 false
    /// positive "caused by missing expert annotation"). Applied per base
    /// loop so all augmented variants stay consistent.
    pub label_noise: f64,
    /// Append the static dependence-oracle features
    /// (`mvgnn_analyze::OracleReport::feature_vec`) to every node row.
    /// Off by default so the paper's feature layout is reproduced
    /// exactly; turning it on widens `node_dim` by
    /// `OracleReport::FEAT_DIM` for the static-feature ablation.
    pub static_features: bool,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        Self {
            seeds: vec![1],
            opt_levels: OptLevel::ALL.to_vec(),
            per_class: None,
            test_fraction: 0.25,
            suite: None,
            inst2vec: Inst2VecConfig::default(),
            sample: SampleConfig::default(),
            seed: 0xda7a,
            label_noise: 0.03,
            static_features: false,
        }
    }
}

/// A balanced, split dataset.
#[derive(Debug)]
pub struct Dataset {
    /// Training samples (balanced 1:1).
    pub train: Vec<LabeledSample>,
    /// Held-out samples, balanced 1:1 (base loops disjoint from training).
    pub test: Vec<LabeledSample>,
    /// Every held-out sample, unbalanced — the per-benchmark evaluation
    /// pool (the paper evaluates on the benchmarks as they are).
    pub test_full: Vec<LabeledSample>,
    /// One unoptimised sample per base loop across both splits — the
    /// Table IV / Fig 8 pool (the paper runs those over all 787 NPB
    /// loops, training loops included).
    pub full: Vec<LabeledSample>,
    /// The trained statement embedding.
    pub inst2vec: Inst2Vec,
}

impl Dataset {
    /// Class balance `(parallelizable, not)` of a sample slice.
    pub fn class_counts(samples: &[LabeledSample]) -> (usize, usize) {
        let pos = samples.iter().filter(|s| s.label == 1).count();
        (pos, samples.len() - pos)
    }
}

/// Identity of one source loop, shared by all augmented variants; the
/// split and noise decisions key on this.
pub fn base_key(app: &str, seed: u64, f: mvgnn_ir::module::FuncId, l: mvgnn_ir::module::LoopId) -> u64 {
    mix64(fxhash(app) ^ mix64(seed) ^ ((f.0 as u64) << 32) ^ l.0 as u64)
}

/// Apply the deterministic annotation-noise rule to a ground-truth label.
pub fn noisy_label(base_key: u64, corpus_seed: u64, noise: f64, label: usize) -> usize {
    // A noise level is a probability; NaN or out-of-range values from
    // callers that bypass the pipeline-level validation are clamped to
    // [0, 1] rather than silently flipping more (or fewer) labels than
    // any probability could.
    let noise = if noise.is_nan() { 0.0 } else { noise.clamp(0.0, 1.0) };
    if noise > 0.0 {
        let roll = mix64(base_key ^ corpus_seed ^ 0x0a15e) as f64 / u64::MAX as f64;
        if roll < noise {
            return 1 - label;
        }
    }
    label
}

fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    z = (z ^ (z >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    z ^ (z >> 33)
}

fn fxhash(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Extract every loop sample from one (already optimised) app variant.
pub(crate) fn samples_of_variant(
    app: &GeneratedApp,
    module: &mvgnn_ir::Module,
    seed: u64,
    level: OptLevel,
    inst2vec: &Inst2Vec,
    cfg: &CorpusConfig,
) -> Vec<LabeledSample> {
    let Ok(res) = profile_module(module, app.entry, &[]) else {
        return Vec::new();
    };
    let cus = build_cus(module);
    let peg = build_peg(module, &cus, &res.deps);
    let sample_cfg = SampleConfig {
        static_dim: if cfg.static_features { OracleReport::FEAT_DIM } else { 0 },
        ..cfg.sample.clone()
    };
    app.loops
        .iter()
        .enumerate()
        .filter_map(|(i, (f, l, pattern))| {
            let runtime = res.loops.get(&(*f, *l))?;
            let feats = loop_features(module, *f, *l, &res.deps, runtime);
            let sub = loop_subpeg(&peg, module, &cus, *f, *l);
            let label = usize::from(pattern.is_parallelizable());
            let static_vec =
                cfg.static_features.then(|| analyze_loop(module, *f, *l).feature_vec());
            let sample = build_sample_with_static(
                &sub,
                inst2vec,
                &feats,
                static_vec.as_ref().map(|v| &v[..]),
                &sample_cfg,
                Some(label),
            );
            let key = base_key(app.spec.name, seed, *f, *l);
            Some(LabeledSample {
                sample,
                label,
                pattern: *pattern,
                suite: app.spec.suite,
                family: app.loop_kinds[i].family(),
                app: app.spec.name.to_string(),
                base_key: key,
                level,
            })
        })
        .collect()
}

/// Build the full corpus: generate, augment, profile, embed, balance,
/// split. Deterministic for a fixed configuration.
///
/// This is the vocabulary pass, one shard covering every work unit, and
/// the in-memory assembly. Generating over any other shard count and
/// assembling the union produces a bit-identical dataset (pinned by the
/// shard-determinism tests).
pub fn build_corpus(cfg: &CorpusConfig) -> Dataset {
    let inst2vec = crate::shard::fit_inst2vec(cfg);
    let all = crate::shard::generate_shard(cfg, &inst2vec, 0, 1);
    assemble_dataset(all, inst2vec, cfg)
}

/// Assemble a [`Dataset`] from the union of shard outputs: establish the
/// canonical total order, split by base loop, balance both sides and
/// apply the annotation noise.
///
/// The order of `all` does not matter — the first step sorts by
/// `(base_key, n, label, level)`, which identifies each sample uniquely
/// (`base_key` names the source loop, `level` its augmented variant) —
/// so a union gathered from any shard partition assembles identically.
pub fn assemble_dataset(
    mut all: Vec<LabeledSample>,
    inst2vec: Inst2Vec,
    cfg: &CorpusConfig,
) -> Dataset {
    // Canonical total order before any selection. `n` and `label` are
    // redundant given `(base_key, level)` but kept first for
    // compatibility with the historical `(base_key, n, label)` ordering.
    all.sort_by_key(|s| (s.base_key, s.sample.n, s.label, s.level));

    // Split by base loop (variants stay together).
    let is_test = |s: &LabeledSample| {
        (mix64(s.base_key ^ cfg.seed) as f64 / u64::MAX as f64) < cfg.test_fraction
    };
    let (mut test, mut train): (Vec<_>, Vec<_>) = all.into_iter().partition(|s| is_test(s));
    let mut test_full: Vec<LabeledSample> = test.clone();
    // One representative (first variant) per base loop for Table IV/Fig 8.
    let mut full: Vec<LabeledSample> = Vec::new();
    {
        let mut seen = std::collections::HashSet::new();
        for s in train.iter().chain(&test) {
            if seen.insert(s.base_key) {
                full.push(s.clone());
            }
        }
    }

    // Balance each side to 1:1 (cap at per_class when set).
    let balance = |samples: &mut Vec<LabeledSample>, cap: Option<usize>, salt: u64| {
        let (pos, neg) = Dataset::class_counts(samples);
        let per = pos.min(neg).min(cap.unwrap_or(usize::MAX));
        // Deterministic shuffle by hash, then take `per` of each class.
        samples.sort_by_key(|s| mix64(s.base_key ^ salt ^ s.sample.n as u64));
        let mut kept = Vec::with_capacity(per * 2);
        let (mut p, mut n) = (0usize, 0usize);
        for s in samples.drain(..) {
            if s.label == 1 && p < per {
                p += 1;
                kept.push(s);
            } else if s.label == 0 && n < per {
                n += 1;
                kept.push(s);
            }
        }
        *samples = kept;
    };
    let cap_train = cfg.per_class;
    let cap_test = cfg.per_class.map(|c| {
        (c as f64 * cfg.test_fraction / (1.0 - cfg.test_fraction)).ceil() as usize
    });
    balance(&mut train, cap_train, cfg.seed ^ 0x7ea1);
    balance(&mut test, cap_test, cfg.seed ^ 0x7e57);

    // Annotation noise, applied *after* balancing so the flipped fraction
    // stays at `label_noise` in both classes (flipping before balancing
    // concentrates noise in the minority class). Keyed by base loop so
    // augmented variants and every evaluation pool stay consistent.
    if cfg.label_noise > 0.0 {
        for pool in [&mut train, &mut test, &mut test_full, &mut full] {
            for s in pool.iter_mut() {
                s.label = noisy_label(s.base_key, cfg.seed, cfg.label_noise, s.label);
                s.sample.label = Some(s.label);
            }
        }
    }

    Dataset { train, test, test_full, full, inst2vec }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> CorpusConfig {
        CorpusConfig {
            seeds: vec![5, 6],
            opt_levels: vec![OptLevel::O0, OptLevel::O2],
            per_class: Some(40),
            test_fraction: 0.25,
            suite: Some(Suite::PolyBench),
            inst2vec: Inst2VecConfig { dim: 12, epochs: 1, negatives: 2, lr: 0.05, seed: 3 },
            sample: SampleConfig::default(),
            seed: 77,
            label_noise: 0.0,
            static_features: false,
        }
    }

    #[test]
    fn static_features_widen_node_dim_only_when_enabled() {
        let mut cfg = CorpusConfig {
            seeds: vec![5],
            opt_levels: vec![OptLevel::O0],
            per_class: Some(8),
            ..tiny_cfg()
        };
        let plain = build_corpus(&cfg);
        cfg.static_features = true;
        let augmented = build_corpus(&cfg);
        let plain_dim = plain.train[0].sample.node_dim;
        let aug_dim = augmented.train[0].sample.node_dim;
        assert_eq!(aug_dim, plain_dim + OracleReport::FEAT_DIM);
        for s in plain.train.iter().chain(&plain.test) {
            assert_eq!(s.sample.node_dim, plain_dim);
        }
        for s in augmented.train.iter().chain(&augmented.test) {
            assert_eq!(s.sample.node_dim, aug_dim);
            assert_eq!(s.sample.node_feats.len(), s.sample.n * aug_dim);
            // The verdict one-hot lives at the head of the static block
            // and always has exactly one bit set.
            let verdict: Vec<f32> = (0..s.sample.n)
                .flat_map(|r| {
                    let off = (r + 1) * aug_dim - OracleReport::FEAT_DIM;
                    s.sample.node_feats[off..off + 3].to_vec()
                })
                .collect();
            for row in verdict.chunks(3) {
                assert_eq!(row.iter().filter(|&&x| x == 1.0).count(), 1, "{row:?}");
            }
        }
    }

    #[test]
    fn label_noise_boundaries_are_clamped() {
        use mvgnn_ir::module::{FuncId, LoopId};
        let keys: Vec<u64> = (0..200u64).map(|i| base_key("app", i, FuncId(0), LoopId(i as u32))).collect();
        // 0.0 and anything below: identity.
        for noise in [0.0, -0.1, f64::NEG_INFINITY, f64::NAN] {
            assert!(
                keys.iter().all(|&k| noisy_label(k, 7, noise, 1) == 1),
                "noise {noise} must not flip labels"
            );
        }
        // 1.0 and anything above: certain flip.
        for noise in [1.0, 1.1, f64::INFINITY] {
            assert!(
                keys.iter().all(|&k| noisy_label(k, 7, noise, 1) == 0),
                "noise {noise} must flip every label"
            );
        }
        // Interior values flip roughly the requested fraction.
        let flipped = keys.iter().filter(|&&k| noisy_label(k, 7, 0.3, 1) == 0).count();
        let frac = flipped as f64 / keys.len() as f64;
        assert!((0.15..=0.45).contains(&frac), "flip fraction {frac}");
    }

    #[test]
    fn corpus_is_balanced_and_split() {
        let ds = build_corpus(&tiny_cfg());
        assert!(!ds.train.is_empty());
        assert!(!ds.test.is_empty());
        let (tp, tn) = Dataset::class_counts(&ds.train);
        assert_eq!(tp, tn, "train must be balanced");
        let (sp, sn) = Dataset::class_counts(&ds.test);
        assert_eq!(sp, sn, "test must be balanced");
        assert!(tp <= 40);
    }

    #[test]
    fn no_base_loop_leaks_across_split() {
        let ds = build_corpus(&tiny_cfg());
        let train_keys: std::collections::HashSet<u64> =
            ds.train.iter().map(|s| s.base_key).collect();
        for s in &ds.test {
            assert!(
                !train_keys.contains(&s.base_key),
                "base loop {} in both splits",
                s.base_key
            );
        }
    }

    #[test]
    fn augmented_variants_share_base_key() {
        // With two opt levels every base loop appears twice pre-balance;
        // after balancing some survive in pairs — check at least one does.
        let ds = build_corpus(&tiny_cfg());
        let mut counts: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        for s in ds.train.iter().chain(&ds.test) {
            *counts.entry(s.base_key).or_default() += 1;
        }
        assert!(counts.values().any(|&c| c >= 2), "expected augmented pairs");
    }

    #[test]
    fn samples_are_model_ready() {
        let ds = build_corpus(&tiny_cfg());
        for s in ds.train.iter().take(10) {
            assert!(s.sample.n > 0);
            assert_eq!(s.sample.node_feats.len(), s.sample.n * s.sample.node_dim);
            assert_eq!(s.sample.struct_dists.len(), s.sample.n * s.sample.aw_vocab);
            assert!(s.sample.node_feats.iter().all(|x| x.is_finite()));
            assert_eq!(s.sample.label, Some(s.label));
        }
    }

    #[test]
    fn deterministic_for_fixed_config() {
        let a = build_corpus(&tiny_cfg());
        let b = build_corpus(&tiny_cfg());
        assert_eq!(a.train.len(), b.train.len());
        assert_eq!(a.test.len(), b.test.len());
        let ka: Vec<u64> = a.train.iter().map(|s| s.base_key).collect();
        let kb: Vec<u64> = b.train.iter().map(|s| s.base_key).collect();
        assert_eq!(ka, kb);
    }
}
