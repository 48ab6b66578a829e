//! Property tests pinning the sharded pipeline's determinism contract:
//! any `(num_shards, shard_id)` partition of a configuration generates a
//! union bit-identical to the monolithic (single-process) build, and the
//! annotation-noise rule is a pure function of the base-loop identity —
//! so it cannot depend on which shard applied it.

use mvgnn_dataset::{
    assemble_dataset, fit_inst2vec, generate_shard, noisy_label, CorpusConfig, KernelFamily,
    LabeledSample, Suite,
};
use mvgnn_embed::Inst2VecConfig;
use mvgnn_ir::transform::OptLevel;
use proptest::prelude::*;

fn tiny_cfg(corpus_seed: u64, gen_seed: u64, noise: f64) -> CorpusConfig {
    CorpusConfig {
        seeds: vec![gen_seed, gen_seed + 1],
        opt_levels: vec![OptLevel::O0, OptLevel::O3],
        per_class: None,
        test_fraction: 0.25,
        suite: Some(Suite::Bots),
        inst2vec: Inst2VecConfig { dim: 8, epochs: 1, negatives: 2, lr: 0.05, seed: 3 },
        sample: Default::default(),
        seed: corpus_seed,
        label_noise: noise,
        static_features: false,
    }
}

/// Everything float-bearing in a sample, as bits, plus the family tag.
#[allow(clippy::type_complexity)]
fn fingerprint(
    s: &LabeledSample,
) -> (u64, OptLevel, usize, KernelFamily, Vec<u32>, Vec<u32>, Vec<usize>) {
    (
        s.base_key,
        s.level,
        s.label,
        s.family,
        s.sample.node_feats.iter().map(|x| x.to_bits()).collect(),
        s.sample.struct_dists.iter().map(|x| x.to_bits()).collect(),
        s.sample.token_ids.clone(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The union of any shard partition is bit-identical to the
    /// single-process build, sample by sample.
    #[test]
    fn shard_union_matches_monolith(
        num_shards in 2usize..=7,
        gen_seed in 1u64..50,
        corpus_seed in 1u64..1000,
    ) {
        let cfg = tiny_cfg(corpus_seed, gen_seed, 0.0);
        let emb = fit_inst2vec(&cfg);
        let mono = generate_shard(&cfg, &emb, 0, 1);
        prop_assert!(!mono.is_empty());
        let mut union: Vec<LabeledSample> = (0..num_shards)
            .flat_map(|s| generate_shard(&cfg, &emb, s, num_shards))
            .collect();
        union.sort_by_key(|s| (s.base_key, s.sample.n, s.label, s.level));
        prop_assert_eq!(union.len(), mono.len());
        for (a, b) in union.iter().zip(&mono) {
            prop_assert_eq!(fingerprint(a), fingerprint(b));
        }
    }

    /// Assembling the union of shards (in any concatenation order)
    /// produces a dataset identical to assembling the monolithic build —
    /// split membership, balance selection and noisy labels included.
    #[test]
    fn assembly_is_shard_count_invariant(
        num_shards in 2usize..=5,
        corpus_seed in 1u64..1000,
        noise_pct in 0u32..30,
        reverse in any::<bool>(),
    ) {
        let cfg = tiny_cfg(corpus_seed, 7, noise_pct as f64 / 100.0);
        let emb = fit_inst2vec(&cfg);
        let mono = assemble_dataset(generate_shard(&cfg, &emb, 0, 1), emb.clone(), &cfg);
        let shard_ids: Vec<usize> = if reverse {
            (0..num_shards).rev().collect()
        } else {
            (0..num_shards).collect()
        };
        let union: Vec<LabeledSample> = shard_ids
            .into_iter()
            .flat_map(|s| generate_shard(&cfg, &emb, s, num_shards))
            .collect();
        let sharded = assemble_dataset(union, emb, &cfg);
        for (a, b) in [
            (&mono.train, &sharded.train),
            (&mono.test, &sharded.test),
            (&mono.test_full, &sharded.test_full),
            (&mono.full, &sharded.full),
        ] {
            prop_assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b.iter()) {
                prop_assert_eq!(fingerprint(x), fingerprint(y));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The adversarial stress suite rides the same determinism contract
    /// as the paper corpus: any shard partition generates the same
    /// samples with the same family tags, and every kernel family is
    /// populated (the tag byte an MVSH shard stores can therefore never
    /// depend on the partition that wrote it).
    #[test]
    fn stress_family_tags_are_shard_invariant(
        num_shards in 2usize..=5,
        gen_seed in 1u64..30,
    ) {
        let cfg = CorpusConfig {
            suite: Some(Suite::Stress),
            seeds: vec![gen_seed],
            opt_levels: vec![OptLevel::O0],
            ..tiny_cfg(1, gen_seed, 0.0)
        };
        let emb = fit_inst2vec(&cfg);
        let mono = generate_shard(&cfg, &emb, 0, 1);
        prop_assert!(!mono.is_empty());
        let mut union: Vec<LabeledSample> = (0..num_shards)
            .flat_map(|s| generate_shard(&cfg, &emb, s, num_shards))
            .collect();
        union.sort_by_key(|s| (s.base_key, s.sample.n, s.label, s.level));
        prop_assert_eq!(union.len(), mono.len());
        for (a, b) in union.iter().zip(&mono) {
            prop_assert_eq!(fingerprint(a), fingerprint(b));
        }
        for fam in KernelFamily::ALL {
            prop_assert!(
                mono.iter().any(|s| s.family == fam),
                "stress corpus must populate family {fam}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The annotation-noise rule is a pure function of
    /// `(base_key, corpus_seed, noise, label)`: repeated application
    /// agrees, output stays binary, and flipping is symmetric — so it is
    /// invariant under any shard partition by construction.
    #[test]
    fn noisy_label_is_pure_and_binary(
        base_key in any::<u64>(),
        corpus_seed in any::<u64>(),
        noise_pct in 0u32..=100,
        label in 0usize..=1,
    ) {
        let noise = noise_pct as f64 / 100.0;
        let once = noisy_label(base_key, corpus_seed, noise, label);
        prop_assert!(once <= 1);
        prop_assert_eq!(once, noisy_label(base_key, corpus_seed, noise, label));
        // A flip decision depends only on the key/seed roll, not on the
        // incoming label: either both labels pass through or both flip.
        let zero = noisy_label(base_key, corpus_seed, noise, 0);
        let one = noisy_label(base_key, corpus_seed, noise, 1);
        prop_assert!(
            (zero == 0 && one == 1) || (zero == 1 && one == 0),
            "flip must be label-symmetric: 0->{zero}, 1->{one}"
        );
    }
}
