//! Deterministic sharded corpus generation.
//!
//! The corpus is a set of *work units* — one `(generation seed, app
//! spec)` pair per unit, enumerated in a fixed order (seed-major, then
//! Table II order). A [`ShardPlan`] deals unit `k` to shard
//! `k % num_shards`, so:
//!
//! - every kernel draw is keyed by the unit identity (the per-app RNG
//!   seeds on `generation_seed ^ fxhash(app name)`), never by which
//!   shard runs it — N workers produce **disjoint, reproducible**
//!   slices;
//! - the union of all shards is exactly the single-process sample set
//!   for any `num_shards`, and [`crate::corpus::assemble_dataset`]
//!   consumes that union through a total order, so the assembled
//!   [`crate::corpus::Dataset`] is bit-identical across shard counts
//!   (pinned by the `shard_determinism` proptests).
//!
//! The statement embedding is *not* fit per shard: [`fit_inst2vec`] is
//! an explicit, separately-run vocabulary pass over every unoptimised
//! module of the configuration. Every shard embeds against that one
//! read-only [`Inst2Vec`], so the union stays bit-identical to the
//! monolithic build. Shards are generated and assembled in the process
//! that uses them; nothing is written to disk.

use crate::corpus::{samples_of_variant, CorpusConfig, LabeledSample};
use crate::suites::{generate_app, AppSpec, Suite, STRESS, TABLE2};
use mvgnn_embed::Inst2Vec;
use mvgnn_ir::transform::optimize;

/// Deterministic assignment of corpus work units to shards.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// Number of shards the units are dealt across.
    pub num_shards: usize,
    units: Vec<(u64, AppSpec)>,
}

impl ShardPlan {
    /// Plan the configuration's work units across `num_shards` workers.
    /// `num_shards == 0` is meaningless and rejected.
    pub fn new(cfg: &CorpusConfig, num_shards: usize) -> ShardPlan {
        assert!(num_shards >= 1, "a shard plan needs at least one shard");
        // `None` means the paper's corpus: every TABLE2 app, never the
        // opt-in stress apps (mirrors `generate_suite`).
        let units: Vec<(u64, AppSpec)> = cfg
            .seeds
            .iter()
            .flat_map(|&s| {
                TABLE2
                    .iter()
                    .chain(STRESS.iter())
                    .filter(|spec| match cfg.suite {
                        None => spec.suite != Suite::Stress,
                        Some(want) => spec.suite == want,
                    })
                    .map(move |&spec| (s, spec))
            })
            .collect();
        ShardPlan { num_shards, units }
    }

    /// Total number of work units across all shards.
    pub fn unit_count(&self) -> usize {
        self.units.len()
    }

    /// The work units owned by one shard (unit `k` belongs to shard
    /// `k % num_shards`). Shards past `num_shards` own nothing.
    pub fn units_of(&self, shard_id: usize) -> impl Iterator<Item = &(u64, AppSpec)> + '_ {
        self.units
            .iter()
            .enumerate()
            .filter(move |(k, _)| k % self.num_shards == shard_id)
            .map(|(_, u)| u)
    }
}

/// The explicit vocabulary pass: train the statement embedding over
/// every unoptimised module of the configuration.
///
/// This is its own pipeline stage (separately seeded through
/// `cfg.inst2vec.seed`) precisely so shard workers never fit anything:
/// they borrow the result read-only and all shards embed against one
/// frozen vocabulary.
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
/// unit the plan deals to `shard_id`, profiled and embedded against the
/// read-only `inst2vec`.
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
    let plan = ShardPlan::new(cfg, num_shards);
    let units: Vec<(u64, AppSpec)> = plan.units_of(shard_id).copied().collect();
    let mut samples: Vec<LabeledSample> = units
        .iter()
        .flat_map(|&(seed, spec)| {
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
    fn plan_deals_every_unit_exactly_once() {
        let cfg = CorpusConfig { suite: None, ..tiny_cfg() };
        for n in [1usize, 2, 3, 5, 9] {
            let plan = ShardPlan::new(&cfg, n);
            assert_eq!(plan.unit_count(), 2 * 14, "2 seeds x 14 apps");
            let mut seen = 0usize;
            for s in 0..n {
                seen += plan.units_of(s).count();
            }
            assert_eq!(seen, plan.unit_count(), "{n} shards must cover all units");
            let total: usize =
                (0..n).flat_map(|s| plan.units_of(s)).map(|(_, spec)| spec.loops).sum();
            assert_eq!(total, 2 * 840);
        }
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
