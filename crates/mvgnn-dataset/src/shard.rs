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
//! module of the configuration. Shard workers receive the trained
//! [`Inst2Vec`] read-only (in-process, or through its serialised
//! artifact — [`Inst2Vec::encode`]/[`Inst2Vec::decode`]) so every shard
//! embeds against the same vocabulary and the union stays bit-identical
//! to the monolithic build.

use crate::corpus::{samples_of_variant, CorpusConfig, LabeledSample};
use crate::format::{ShardError, ShardMeta, ShardWriter};
use crate::suites::{generate_app, AppSpec, Suite, STRESS, TABLE2};
use mvgnn_embed::Inst2Vec;
use mvgnn_ir::transform::optimize;
use std::path::{Path, PathBuf};

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

    /// Loops each shard will generate: `(shard_id, loop count)` rows,
    /// before opt-level augmentation.
    pub fn shard_loads(&self) -> Vec<(usize, usize)> {
        (0..self.num_shards)
            .map(|s| (s, self.units_of(s).map(|(_, spec)| spec.loops).sum()))
            .collect()
    }
}

/// The explicit vocabulary pass: train the statement embedding over
/// every unoptimised module of the configuration.
///
/// This is its own pipeline stage (separately seeded through
/// `cfg.inst2vec.seed`) precisely so shard workers never fit anything:
/// they load the result read-only and all shards embed against one
/// frozen vocabulary. Persist it with [`save_inst2vec`] /
/// [`load_inst2vec`] when generation and embedding run in different
/// processes.
pub fn fit_inst2vec(cfg: &CorpusConfig) -> Inst2Vec {
    let apps: Vec<crate::suites::GeneratedApp> = cfg
        .seeds
        .iter()
        .flat_map(|&s| crate::suites::generate_suite(cfg.suite, s))
        .collect();
    let modules: Vec<&mvgnn_ir::Module> = apps.iter().map(|a| &a.module).collect();
    Inst2Vec::train(&modules, &cfg.inst2vec)
}

/// Write the vocabulary-pass artifact ([`Inst2Vec::encode`]) atomically
/// (`*.tmp` + rename, like every other artifact in the repo).
pub fn save_inst2vec(path: &Path, emb: &Inst2Vec) -> Result<(), ShardError> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, emb.encode())?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Load a vocabulary-pass artifact; corrupt files surface as typed
/// [`ShardError`]s.
pub fn load_inst2vec(path: &Path) -> Result<Inst2Vec, ShardError> {
    let bytes = std::fs::read(path)?;
    Inst2Vec::decode(&bytes).map_err(ShardError::Embedding)
}

/// Generate one shard's samples: every opt-level variant of every work
/// unit the plan deals to `shard_id`, profiled and embedded against the
/// read-only `inst2vec`.
///
/// Output is sorted by the canonical `(base_key, n, label, level)`
/// order, so a shard file's contents are deterministic regardless of
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

/// Generate shard `shard_id` and stream it into an MVSH file at
/// `dir/shard_<id>_of_<n>.mvsh`, with the dataset's annotation noise
/// already applied (noise keys on `base_key`, so it is shard-invariant).
/// Returns the file path and the record count.
pub fn write_shard(
    dir: &Path,
    cfg: &CorpusConfig,
    inst2vec: &Inst2Vec,
    shard_id: usize,
    num_shards: usize,
) -> Result<(PathBuf, usize), ShardError> {
    let mut samples = generate_shard(cfg, inst2vec, shard_id, num_shards);
    for s in &mut samples {
        s.label = crate::corpus::noisy_label(s.base_key, cfg.seed, cfg.label_noise, s.label);
        s.sample.label = Some(s.label);
    }
    let path = dir.join(shard_file_name(shard_id, num_shards));
    let meta = ShardMeta {
        corpus_seed: cfg.seed,
        shard_id: shard_id as u32,
        num_shards: num_shards as u32,
    };
    let mut w = ShardWriter::create(&path, meta)?;
    for s in &samples {
        w.append(s)?;
    }
    let n = w.finish()?;
    Ok((path, n))
}

/// Canonical file name of one shard of a plan.
pub fn shard_file_name(shard_id: usize, num_shards: usize) -> String {
    format!("shard_{shard_id:05}_of_{num_shards:05}.mvsh")
}

/// [`write_shard`] with crash-restart resume: if `dir` already holds
/// this shard and it verifies — intact header, matching plan identity
/// `(corpus_seed, shard_id, num_shards)`, every record checksum good —
/// generation is skipped and the existing file is reused. Anything
/// else (missing, truncated, corrupt, or from a different plan) is
/// regenerated from scratch; the writer's tmp-then-rename protocol
/// guarantees a half-written casualty never verifies.
///
/// Returns the path, the record count, and whether the shard was
/// reused. Determinism makes the skip sound: a shard is a pure function
/// of `(cfg, inst2vec, shard_id, num_shards)`, so a verified file *is*
/// the regeneration.
pub fn write_shard_resumable(
    dir: &Path,
    cfg: &CorpusConfig,
    inst2vec: &Inst2Vec,
    shard_id: usize,
    num_shards: usize,
) -> Result<(PathBuf, usize, bool), ShardError> {
    let path = dir.join(shard_file_name(shard_id, num_shards));
    if path.exists() {
        if let Ok((meta, n)) = crate::format::verify_shard(&path) {
            let expected = ShardMeta {
                corpus_seed: cfg.seed,
                shard_id: shard_id as u32,
                num_shards: num_shards as u32,
            };
            if meta == expected {
                return Ok((path, n as usize, true));
            }
        }
    }
    let (path, n) = write_shard(dir, cfg, inst2vec, shard_id, num_shards)?;
    Ok((path, n, false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::ShardReader;
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
            let loads = plan.shard_loads();
            let total: usize = loads.iter().map(|&(_, l)| l).sum();
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
    fn resumable_write_skips_verified_shards_and_regenerates_casualties() {
        let dir = std::env::temp_dir().join("mvgnn_shard_resume_test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = tiny_cfg();
        let emb = fit_inst2vec(&cfg);

        // Fresh run generates; identical rerun reuses the same bytes.
        let (path, n, reused) = write_shard_resumable(&dir, &cfg, &emb, 0, 2).unwrap();
        assert!(!reused);
        let first = std::fs::read(&path).unwrap();
        let (path2, n2, reused2) = write_shard_resumable(&dir, &cfg, &emb, 0, 2).unwrap();
        assert!(reused2, "verified shard must be skipped");
        assert_eq!((path2.clone(), n2), (path.clone(), n));
        assert_eq!(std::fs::read(&path2).unwrap(), first);

        // A truncated casualty fails verification and is regenerated.
        std::fs::write(&path, &first[..first.len() - 7]).unwrap();
        let (_, n3, reused3) = write_shard_resumable(&dir, &cfg, &emb, 0, 2).unwrap();
        assert!(!reused3, "corrupt shard must be regenerated");
        assert_eq!(n3, n);
        assert_eq!(std::fs::read(&path).unwrap(), first, "regeneration is deterministic");

        // A shard from a different plan identity is not silently reused.
        let other = CorpusConfig { seed: cfg.seed + 1, ..cfg.clone() };
        let (_, _, reused4) = write_shard_resumable(&dir, &other, &emb, 0, 2).unwrap();
        assert!(!reused4, "foreign corpus seed must force regeneration");

        std::fs::remove_dir_all(&dir).ok();
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

    #[test]
    fn written_shard_reads_back_bit_identical() {
        let dir = std::env::temp_dir().join("mvgnn_shard_roundtrip_test");
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = tiny_cfg();
        let emb = fit_inst2vec(&cfg);
        let (path, n) = write_shard(&dir, &cfg, &emb, 0, 2).unwrap();
        let direct = generate_shard(&cfg, &emb, 0, 2);
        assert_eq!(n, direct.len());
        let reader = ShardReader::open(&path).unwrap();
        assert_eq!(reader.meta().shard_id, 0);
        assert_eq!(reader.meta().num_shards, 2);
        assert_eq!(reader.meta().corpus_seed, cfg.seed);
        let read: Vec<LabeledSample> = reader.map(|r| r.unwrap()).collect();
        assert_eq!(read.len(), direct.len());
        for (a, b) in read.iter().zip(&direct) {
            assert_eq!(sample_bits(a), sample_bits(b));
            assert_eq!(a.sample.token_ids, b.sample.token_ids);
            assert_eq!(a.app, b.app);
            assert_eq!(a.pattern, b.pattern);
            assert_eq!(a.suite, b.suite);
            let (rp_a, ci_a, vs_a) = a.sample.adj.csr_parts();
            let (rp_b, ci_b, vs_b) = b.sample.adj.csr_parts();
            assert_eq!(rp_a, rp_b);
            assert_eq!(ci_a, ci_b);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(vs_a), bits(vs_b));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn inst2vec_artifact_roundtrips_through_disk() {
        let dir = std::env::temp_dir().join("mvgnn_shard_i2v_test");
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = tiny_cfg();
        let emb = fit_inst2vec(&cfg);
        let path = dir.join("vocab.mvi2");
        save_inst2vec(&path, &emb).unwrap();
        assert!(!path.with_extension("tmp").exists());
        let back = load_inst2vec(&path).unwrap();
        for tok in emb.tokens() {
            assert_eq!(back.embed(tok), emb.embed(tok));
        }
        // Shards generated against the loaded artifact are bit-identical
        // to shards generated against the in-process embedding.
        let a = generate_shard(&cfg, &emb, 1, 2);
        let b = generate_shard(&cfg, &back, 1, 2);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(sample_bits(x), sample_bits(y));
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
