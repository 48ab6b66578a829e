//! Corpus generation over work units.
//!
//! The corpus is a set of *work units* — one `(generation seed, app
//! spec)` pair per unit, enumerated in a fixed order (seed-major, then
//! Table II order). Every kernel draw is keyed by the unit identity (the
//! per-app RNG seeds on `generation_seed ^ fxhash(app name)`), never by
//! the order units run in, so [`generate_shard`] may deal unit `k` to
//! shard `k % num_shards` and the union of all shards is exactly the
//! one-shard sample set. [`crate::corpus::assemble_dataset`] consumes
//! samples through a total order, so the assembled
//! [`crate::corpus::Dataset`] is bit-identical across shard counts
//! (pinned by the `shard_determinism` proptests). The library itself
//! always generates one shard.
//!
//! The statement embedding is *not* fit per shard: [`fit_inst2vec`] is
//! an explicit, separately-run vocabulary pass over every unoptimised
//! module of the configuration, and every shard embeds against that one
//! read-only [`Inst2Vec`].

use crate::corpus::{samples_of_variant, CorpusConfig, LabeledSample};
use crate::suites::{generate_app, suite_specs};
use mvgnn_embed::Inst2Vec;
use mvgnn_ir::transform::optimize;

/// The explicit vocabulary pass: train the statement embedding over
/// every unoptimised module of the configuration.
///
/// This is its own pipeline stage (separately seeded through
/// `cfg.inst2vec.seed`), so generation never fits anything: it borrows
/// the result read-only and every sample embeds against one frozen
/// vocabulary.
pub fn fit_inst2vec(cfg: &CorpusConfig) -> Inst2Vec {
    let apps: Vec<crate::suites::GeneratedApp> = cfg
        .seeds
        .iter()
        .flat_map(|&s| crate::suites::generate_suite(cfg.suite, s))
        .collect();
    let modules: Vec<&mvgnn_ir::Module> = apps.iter().map(|a| &a.module).collect();
    Inst2Vec::train(&modules, &cfg.inst2vec)
}

/// Generate one shard's samples: every opt-level variant of every work
/// unit `k` with `k % num_shards == shard_id`, profiled and embedded
/// against the read-only `inst2vec`. `generate_shard(cfg, emb, 0, 1)` is
/// the whole corpus; `num_shards == 0` is meaningless and rejected.
///
/// Output is sorted by the canonical `(base_key, n, label, level)`
/// order, so a shard's contents are deterministic regardless of
/// generation order, and the union over all shards is exactly the
/// `num_shards == 1` output (assembly re-sorts, so even concatenation
/// order across shards is irrelevant).
pub fn generate_shard(
    cfg: &CorpusConfig,
    inst2vec: &Inst2Vec,
    shard_id: usize,
    num_shards: usize,
) -> Vec<LabeledSample> {
    assert!(num_shards >= 1, "a corpus needs at least one shard");
    let mut samples: Vec<LabeledSample> = cfg
        .seeds
        .iter()
        .flat_map(|&seed| suite_specs(cfg.suite).map(move |spec| (seed, spec)))
        .enumerate()
        .filter(|(k, _)| k % num_shards == shard_id)
        .flat_map(|(_, (seed, spec))| {
            let app = generate_app(spec, seed);
            cfg.opt_levels
                .iter()
                .flat_map(|&level| {
                    let module = optimize(&app.module, level);
                    samples_of_variant(&app, &module, seed, level, inst2vec, cfg)
                })
                .collect::<Vec<_>>()
        })
        .collect();
    samples.sort_by_key(|s| (s.base_key, s.sample.n, s.label, s.level));
    samples
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suites::Suite;
    use mvgnn_embed::Inst2VecConfig;
    use mvgnn_ir::transform::OptLevel;

    fn tiny_cfg() -> CorpusConfig {
        CorpusConfig {
            seeds: vec![5, 6],
            opt_levels: vec![OptLevel::O0, OptLevel::O2],
            per_class: None,
            test_fraction: 0.25,
            suite: Some(Suite::Bots),
            inst2vec: Inst2VecConfig { dim: 8, epochs: 1, negatives: 2, lr: 0.05, seed: 3 },
            sample: Default::default(),
            seed: 77,
            label_noise: 0.0,
            static_features: false,
        }
    }

    fn sample_bits(s: &LabeledSample) -> (u64, OptLevel, usize, Vec<u32>, Vec<u32>) {
        (
            s.base_key,
            s.level,
            s.label,
            s.sample.node_feats.iter().map(|x| x.to_bits()).collect(),
            s.sample.struct_dists.iter().map(|x| x.to_bits()).collect(),
        )
    }

    #[test]
    fn shard_union_is_bit_identical_to_single_process() {
        let cfg = tiny_cfg();
        let emb = fit_inst2vec(&cfg);
        let mono = generate_shard(&cfg, &emb, 0, 1);
        assert!(!mono.is_empty());
        for n in [2usize, 3] {
            let mut union: Vec<LabeledSample> = (0..n)
                .flat_map(|s| generate_shard(&cfg, &emb, s, n))
                .collect();
            union.sort_by_key(|s| (s.base_key, s.sample.n, s.label, s.level));
            assert_eq!(union.len(), mono.len(), "{n} shards");
            for (a, b) in union.iter().zip(&mono) {
                assert_eq!(sample_bits(a), sample_bits(b), "{n} shards");
            }
        }
    }

    #[test]
    fn shards_are_disjoint() {
        let cfg = tiny_cfg();
        let emb = fit_inst2vec(&cfg);
        let a = generate_shard(&cfg, &emb, 0, 2);
        let b = generate_shard(&cfg, &emb, 1, 2);
        let keys_a: std::collections::HashSet<(u64, OptLevel)> =
            a.iter().map(|s| (s.base_key, s.level)).collect();
        assert!(!a.is_empty() && !b.is_empty());
        for s in &b {
            assert!(!keys_a.contains(&(s.base_key, s.level)), "overlap at {}", s.base_key);
        }
    }
}
