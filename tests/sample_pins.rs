//! Sample-bits pins: every loop sample of the tier-0 pin suites, along
//! the two paths that build samples.
//!
//! - **Corpus path**: `generate_shard`, one profile of the app's entry
//!   (which calls every kernel), one CU graph and one PEG per module,
//!   shared by every loop.
//! - **Per-call path**: what `Cascade::classify_module` runs for a loop
//!   that tier 0 leaves undecided, for every loop of every kernel entry:
//!   `profile_module_resilient` on the entry, `build_cus` (once per
//!   module: it does not depend on the entry), `build_peg`,
//!   `loop_subpeg`, `loop_features` and `build_sample_with_static`.
//!
//! Each sample's `node_feats`, `struct_dists`, adjacency CSR and
//! `token_ids` are hashed with FNV-1a, so a change to the profiler, the
//! CU or PEG builders, sub-PEG extraction or featurisation that moves a
//! single bit of any sample fails here, even when no verdict changes.
//!
//! Inputs are the suites `tier0_pins.rs` pins: `generate_suite(None, s)`
//! for seeds 3 and 7 and `generate_suite(Some(Suite::Stress), s)` for
//! seeds 1 and 2, each at all six optimisation levels: 11,040 samples
//! per path. Debug runs pin a fixed subset of 1,760 (seed 3 at O0 and
//! O5, stress seed 1 at O2), which takes ~10 s in a debug build;
//! release runs (`cargo test --release --test sample_pins`) pin the
//! full sweep.
//! Both sets of hashes were recorded before the profiler's dense-shadow
//! rewrite and function-local sub-PEG extraction, so they also pin those
//! changes to the code they replaced.

use mvgnn::dataset::{fit_inst2vec, generate_shard, generate_suite, CorpusConfig, Suite};
use mvgnn::embed::{build_sample_with_static, GraphSample, Inst2Vec, Inst2VecConfig, SampleConfig};
use mvgnn::ir::module::FuncId;
use mvgnn::ir::transform::{optimize, OptLevel};
use mvgnn::peg::{build_peg, loop_subpeg};
use mvgnn::profiler::{build_cus, loop_features, profile_module_resilient};

/// FNV-1a (64-bit) over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u32s(&mut self, words: impl IntoIterator<Item = u32>) {
        for w in words {
            self.bytes(&w.to_le_bytes());
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
}

/// One sample: its identity, both feature views, the adjacency CSR and
/// the statement sequence.
fn hash_sample(h: &mut Fnv, s: &GraphSample) {
    h.u64(s.n as u64);
    h.u32s([s.func.0, s.l.0]);
    h.u32s(s.node_feats.iter().map(|x| x.to_bits()));
    h.u32s(s.struct_dists.iter().map(|x| x.to_bits()));
    let (row_ptr, col_idx, values) = s.adj.csr_parts();
    h.u32s(row_ptr.iter().copied());
    h.u32s(col_idx.iter().copied());
    h.u32s(values.iter().map(|x| x.to_bits()));
    h.u64(s.token_ids.len() as u64);
    for &t in &s.token_ids {
        h.u64(t as u64);
    }
}

/// A small statement embedding (dim 16, one epoch), the default sample
/// settings and no label noise.
fn corpus_config(suite: Option<Suite>, seed: u64, levels: &[OptLevel]) -> CorpusConfig {
    CorpusConfig {
        seeds: vec![seed],
        opt_levels: levels.to_vec(),
        per_class: None,
        test_fraction: 0.25,
        suite,
        inst2vec: Inst2VecConfig { dim: 16, epochs: 1, negatives: 4, lr: 0.05, seed: 0x1257 },
        sample: SampleConfig::default(),
        seed: 0xca5c,
        label_noise: 0.0,
        static_features: false,
    }
}

/// One statement embedding for every path and suite, fitted on suite
/// seed 3.
fn inst2vec() -> Inst2Vec {
    fit_inst2vec(&corpus_config(None, 3, &[OptLevel::O0]))
}

/// `(samples, hash)` of the corpus path over one suite seed.
fn corpus_hash(
    emb: &Inst2Vec,
    suite: Option<Suite>,
    seed: u64,
    levels: &[OptLevel],
) -> (usize, u64) {
    let samples = generate_shard(&corpus_config(suite, seed, levels), emb, 0, 1);
    let mut h = Fnv::new();
    for s in &samples {
        h.u64(s.base_key);
        hash_sample(&mut h, &s.sample);
    }
    (samples.len(), h.0)
}

/// `(samples, hash)` of the per-call path over one suite seed: every
/// loop of every kernel entry, entries in function order.
fn per_call_hash(
    emb: &Inst2Vec,
    suite: Option<Suite>,
    seed: u64,
    levels: &[OptLevel],
) -> (usize, u64) {
    let cfg = SampleConfig::default();
    let mut h = Fnv::new();
    let mut count = 0;
    for &level in levels {
        for app in generate_suite(suite, seed) {
            let module = optimize(&app.module, level);
            let mut kernels: Vec<FuncId> = app.loops.iter().map(|&(f, _, _)| f).collect();
            kernels.sort_unstable_by_key(|f| f.index());
            kernels.dedup();
            let cus = build_cus(&module);
            for entry in kernels {
                let partial = profile_module_resilient(&module, entry, &[], None, None);
                let peg = build_peg(&module, &cus, &partial.deps);
                h.u64(partial.deps.len() as u64);
                for info in &module.funcs[entry.index()].loops {
                    let runtime = partial.loops.get(&(entry, info.id)).copied();
                    if runtime.is_none() && partial.error.is_some() {
                        continue;
                    }
                    let runtime = runtime.unwrap_or_default();
                    let feats = loop_features(&module, entry, info.id, &partial.deps, &runtime);
                    let sub = loop_subpeg(&peg, &module, &cus, entry, info.id);
                    if sub.graph.node_count() == 0 {
                        continue;
                    }
                    let sample = build_sample_with_static(&sub, emb, &feats, None, &cfg, None);
                    hash_sample(&mut h, &sample);
                    count += 1;
                }
            }
        }
    }
    (count, h.0)
}

/// The swept inputs: every tier-0 pin suite at all six levels in release,
/// a fixed subset in debug.
fn inputs() -> Vec<(Option<Suite>, u64, Vec<OptLevel>)> {
    if cfg!(debug_assertions) {
        vec![
            (None, 3, vec![OptLevel::O0, OptLevel::O5]),
            (Some(Suite::Stress), 1, vec![OptLevel::O2]),
        ]
    } else {
        vec![
            (None, 3, OptLevel::ALL.to_vec()),
            (None, 7, OptLevel::ALL.to_vec()),
            (Some(Suite::Stress), 1, OptLevel::ALL.to_vec()),
            (Some(Suite::Stress), 2, OptLevel::ALL.to_vec()),
        ]
    }
}

/// One path's `(samples, hash)` over a suite seed at the given levels.
type PathHash = fn(&Inst2Vec, Option<Suite>, u64, &[OptLevel]) -> (usize, u64);

fn check(path: &str, hash: PathHash, want: &[(usize, u64)]) {
    let emb = inst2vec();
    let got: Vec<(usize, u64)> =
        inputs().iter().map(|(suite, seed, levels)| hash(&emb, *suite, *seed, levels)).collect();
    let show: Vec<String> = got.iter().map(|(n, h)| format!("({n}, {h:#018x})")).collect();
    assert_eq!(got, want, "{path} path: got [{}]", show.join(", "));
}

#[test]
fn corpus_samples_match_the_recorded_bits() {
    let want: &[(usize, u64)] =
        if cfg!(debug_assertions) { &GOLDEN_CORPUS_DEBUG } else { &GOLDEN_CORPUS_RELEASE };
    check("corpus", corpus_hash, want);
}

#[test]
fn per_call_samples_match_the_recorded_bits() {
    let want: &[(usize, u64)] =
        if cfg!(debug_assertions) { &GOLDEN_PER_CALL_DEBUG } else { &GOLDEN_PER_CALL_RELEASE };
    check("per-call", per_call_hash, want);
}

/// `(samples, FNV-1a)` of the debug subset: suite seed 3 at O0 and O5,
/// then stress seed 1 at O2.
const GOLDEN_CORPUS_DEBUG: [(usize, u64); 2] =
    [(1680, 0xf91d_a85e_84e0_5b08), (80, 0xf29c_a557_7e6b_b6b1)];
const GOLDEN_PER_CALL_DEBUG: [(usize, u64); 2] =
    [(1680, 0x7754_3d1e_8dcc_dd0c), (80, 0x212c_e5c1_2997_a514)];

/// `(samples, FNV-1a)` of the release sweep: suite seeds 3 and 7, then
/// stress seeds 1 and 2, each at all six levels.
const GOLDEN_CORPUS_RELEASE: [(usize, u64); 4] = [
    (5040, 0x7f5c_e205_52f8_3f38),
    (5040, 0x12bd_694a_b47f_e014),
    (480, 0xe1bd_dff1_e32f_6a59),
    (480, 0xddb6_e097_26b0_ef19),
];
const GOLDEN_PER_CALL_RELEASE: [(usize, u64); 4] = [
    (5040, 0x45c8_0527_3f8b_1070),
    (5040, 0x1965_6e85_f153_3db0),
    (480, 0xbcb2_d585_14cb_fafd),
    (480, 0x7d57_4415_0197_0569),
];
