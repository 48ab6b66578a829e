//! Random walks and anonymous walks (Ivanov & Burnaev, ICML'18).
//!
//! The structural view of MV-GNN samples γ random walks of length `l` from
//! every node, maps each to its *anonymous* form (node identities replaced
//! by first-occurrence indices), and summarises the node by the empirical
//! distribution over the anonymous-walk vocabulary (paper Eq. 3); the graph
//! distribution is the node-mean (Eq. 4).
//!
//! Sampling is deterministic: node `v` uses an RNG seeded by
//! `mix(seed, v)`, so results do not depend on the order nodes are
//! visited in. The sampler reuses one walk buffer for every walk and
//! looks anonymous forms up as packed integer keys, so a walk costs no
//! allocation and no hashing.

use crate::csr::Csr;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An anonymous walk: node identities replaced by first-occurrence indices.
/// `(v1, v2, v3, v2)` becomes `[0, 1, 2, 1]`.
pub type AnonymousWalk = Vec<u8>;

/// Longest walk (in nodes) an [`AwVocab`] or a [`WalkSampler`] accepts:
/// a walk of `l` nodes has labels below `l`, so its anonymous form packs
/// into a `u64` key at four bits per label.
pub const MAX_WALK_LEN: usize = 16;

/// Convert a concrete random walk (node ids) into its anonymous form.
/// Labels saturate at 255, which only a walk with more than 256 distinct
/// nodes reaches — far past any vocabulary's [`MAX_WALK_LEN`].
///
/// ```
/// use mvgnn_graph::anonymous_walk;
/// assert_eq!(anonymous_walk(&[7, 3, 9, 3]), vec![0, 1, 2, 1]);
/// ```
pub fn anonymous_walk(walk: &[u32]) -> AnonymousWalk {
    let mut seen: Vec<u32> = Vec::with_capacity(walk.len());
    walk.iter()
        .map(|&v| {
            let idx = seen.iter().position(|&s| s == v).unwrap_or_else(|| {
                seen.push(v);
                seen.len() - 1
            });
            u8::try_from(idx).unwrap_or(u8::MAX)
        })
        .collect()
}

/// Packed key of a walk of at most [`MAX_WALK_LEN`] nodes: its anonymous
/// labels as big-endian nibbles, so for one walk length numeric key
/// order is lexicographic walk order.
fn anonymous_key(walk: &[u32]) -> u64 {
    let mut seen = [0u32; MAX_WALK_LEN];
    let mut distinct = 0;
    let mut key = 0u64;
    for &v in walk {
        let label = match seen[..distinct].iter().position(|&s| s == v) {
            Some(i) => i,
            None => {
                seen[distinct] = v;
                distinct += 1;
                distinct - 1
            }
        };
        key = key << 4 | label as u64;
    }
    key
}

/// [`anonymous_key`] of an already anonymous walk; `None` when a label
/// does not fit a nibble.
fn pack_labels(aw: &[u8]) -> Option<u64> {
    aw.iter().try_fold(0u64, |key, &x| (x < 16).then_some(key << 4 | u64::from(x)))
}

/// Enumerate every anonymous walk with `len` nodes in lexicographic order.
///
/// Valid anonymous walks are restricted-growth strings starting at 0 where
/// consecutive labels differ (a walk step always moves to a neighbour):
/// `a₁ = 0`, `aᵢ₊₁ ≤ max(a₁..aᵢ) + 1`, `aᵢ₊₁ ≠ aᵢ`.
pub fn enumerate_anonymous_walks(len: usize) -> Vec<AnonymousWalk> {
    fn rec(cur: &mut AnonymousWalk, max: u8, last: u8, len: usize, out: &mut Vec<AnonymousWalk>) {
        if cur.len() == len {
            out.push(cur.clone());
            return;
        }
        for next in 0..=max.saturating_add(1) {
            if next != last {
                cur.push(next);
                rec(cur, max.max(next), next, len, out);
                cur.pop();
            }
        }
    }
    let mut out = Vec::new();
    if len > 0 {
        rec(&mut vec![0], 0, 0, len, &mut out);
    }
    out
}

/// Vocabulary of anonymous walks of a fixed length, with id lookup by
/// binary search over packed keys.
#[derive(Debug, Clone)]
pub struct AwVocab {
    len: usize,
    walks: Vec<AnonymousWalk>,
    /// [`anonymous_key`] of every walk, in id order. Enumeration is
    /// lexicographic and the packing keeps that order, so the keys
    /// ascend and a key's position is its walk's id.
    keys: Vec<u64>,
}

impl AwVocab {
    /// Build the vocabulary for walks of `len` nodes. Panics when `len`
    /// exceeds [`MAX_WALK_LEN`].
    pub fn new(len: usize) -> Self {
        assert!(len <= MAX_WALK_LEN, "walk length {len} exceeds {MAX_WALK_LEN}");
        let walks = enumerate_anonymous_walks(len);
        let keys =
            walks.iter().map(|w| w.iter().fold(0, |key, &x| key << 4 | u64::from(x))).collect();
        Self { len, walks, keys }
    }

    /// Walk length (node count) of this vocabulary.
    pub fn walk_len(&self) -> usize {
        self.len
    }

    /// Vocabulary size.
    pub fn size(&self) -> usize {
        self.walks.len()
    }

    /// Id of an anonymous walk, if it belongs to this vocabulary.
    pub fn id(&self, aw: &AnonymousWalk) -> Option<u32> {
        if aw.len() != self.len {
            return None;
        }
        self.key_id(pack_labels(aw)?)
    }

    /// Id of the walk with this packed key, if it is in the vocabulary.
    fn key_id(&self, key: u64) -> Option<u32> {
        self.keys.binary_search(&key).ok().map(|i| i as u32)
    }

    /// The anonymous walk with the given id.
    pub fn walk(&self, id: u32) -> &AnonymousWalk {
        &self.walks[id as usize]
    }
}

/// Configuration for the per-node walk sampler.
#[derive(Debug, Clone, Copy)]
pub struct WalkConfig {
    /// Number of nodes per walk (paper's `l`), in `1..=`[`MAX_WALK_LEN`].
    pub walk_len: usize,
    /// Walks sampled per node (paper's `γ`).
    pub walks_per_node: usize,
    /// Master seed; per-node streams are derived from it.
    pub seed: u64,
}

impl Default for WalkConfig {
    fn default() -> Self {
        Self { walk_len: 4, walks_per_node: 50, seed: 0x5eed_cafe }
    }
}

/// Deterministic random-walk sampler over a CSR adjacency.
#[derive(Debug, Clone)]
pub struct WalkSampler {
    cfg: WalkConfig,
}

/// splitmix64-style mixing for per-node seed derivation.
fn mix(seed: u64, v: u64) -> u64 {
    let mut z = seed ^ v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Continue the walk whose first node is `walk[0]` until it fills the
/// buffer: each step moves to a uniformly drawn neighbour, or stays put
/// on a node with none.
fn fill_walk(csr: &Csr, walk: &mut [u32], rng: &mut StdRng) {
    for i in 1..walk.len() {
        let cur = walk[i - 1];
        let nbrs = csr.neighbors(cur);
        walk[i] = if nbrs.is_empty() { cur } else { nbrs[rng.random_range(0..nbrs.len())] };
    }
}

impl WalkSampler {
    /// Create a sampler with the given configuration. Panics unless
    /// `walk_len` is in `1..=`[`MAX_WALK_LEN`].
    pub fn new(cfg: WalkConfig) -> Self {
        assert!(
            (1..=MAX_WALK_LEN).contains(&cfg.walk_len),
            "walk length must be in 1..={MAX_WALK_LEN}, got {}",
            cfg.walk_len
        );
        Self { cfg }
    }

    /// Sampler configuration.
    pub fn config(&self) -> WalkConfig {
        self.cfg
    }

    /// Sample one walk of `walk_len` nodes starting at `start`.
    ///
    /// A walk that reaches a node with no neighbours stays there: its
    /// anonymous form then repeats a label, which no vocabulary walk does,
    /// so [`Self::node_distributions`] counts it as the all-zero walk's
    /// id 0. On an undirected skeleton only an isolated start node does
    /// this, since every other node can step back the way it came.
    pub fn sample_walk(&self, csr: &Csr, start: u32, rng: &mut StdRng) -> Vec<u32> {
        let mut walk = vec![start; self.cfg.walk_len];
        fill_walk(csr, &mut walk, rng);
        walk
    }

    /// Per-node empirical anonymous-walk distribution (paper Eq. 3).
    ///
    /// Returns a dense row-major `[n, vocab.size()]` matrix of f32
    /// probabilities. Rows sum to 1 for nodes whose walks are all
    /// in-vocabulary; walks that fall out of vocabulary (only possible for
    /// isolated nodes that self-repeat) put their mass on id 0.
    pub fn node_distributions(&self, csr: &Csr, vocab: &AwVocab) -> Vec<f32> {
        assert_eq!(vocab.walk_len(), self.cfg.walk_len, "vocabulary/walk length mismatch");
        let vsize = vocab.size();
        let gamma = self.cfg.walks_per_node;
        let inv = 1.0 / gamma as f32;
        let mut out = vec![0.0f32; csr.node_count() * vsize];
        let mut walk = vec![0u32; self.cfg.walk_len];
        for (v, row) in (0u32..).zip(out.chunks_exact_mut(vsize)) {
            let mut rng = StdRng::seed_from_u64(mix(self.cfg.seed, v as u64));
            walk[0] = v;
            for _ in 0..gamma {
                fill_walk(csr, &mut walk, &mut rng);
                let id = vocab.key_id(anonymous_key(&walk)).unwrap_or(0);
                row[id as usize] += 1.0;
            }
            for x in row.iter_mut() {
                *x *= inv;
            }
        }
        out
    }

    /// Graph-level mean distribution (paper Eq. 4).
    pub fn graph_distribution(&self, csr: &Csr, vocab: &AwVocab) -> Vec<f32> {
        let n = csr.node_count();
        let vsize = vocab.size();
        let node_dists = self.node_distributions(csr, vocab);
        let mut mean = vec![0.0f32; vsize];
        if n == 0 {
            return mean;
        }
        for v in 0..n {
            for j in 0..vsize {
                mean[j] += node_dists[v * vsize + j];
            }
        }
        let inv = 1.0 / n as f32;
        for x in &mut mean {
            *x *= inv;
        }
        mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anonymous_walk_first_occurrence_indices() {
        assert_eq!(anonymous_walk(&[7, 3, 9, 3]), vec![0, 1, 2, 1]);
        assert_eq!(anonymous_walk(&[1, 2, 3, 4, 2]), vec![0, 1, 2, 3, 1]);
        assert_eq!(anonymous_walk(&[5]), vec![0]);
        assert_eq!(anonymous_walk(&[]), Vec::<u8>::new());
    }

    #[test]
    fn enumeration_counts_match_known_values() {
        // Known counts of anonymous walks with distinct consecutive labels:
        // len 1: [0]                            -> 1
        // len 2: [0,1]                          -> 1
        // len 3: 010, 012                       -> 2
        // len 4: 0101,0102,0120,0121,0123       -> 5
        // len 5:                                -> 15 (Bell number growth)
        assert_eq!(enumerate_anonymous_walks(1).len(), 1);
        assert_eq!(enumerate_anonymous_walks(2).len(), 1);
        assert_eq!(enumerate_anonymous_walks(3).len(), 2);
        assert_eq!(enumerate_anonymous_walks(4).len(), 5);
        assert_eq!(enumerate_anonymous_walks(5).len(), 15);
        assert_eq!(enumerate_anonymous_walks(6).len(), 52);
    }

    #[test]
    fn enumeration_contains_only_valid_strings() {
        for aw in enumerate_anonymous_walks(5) {
            assert_eq!(aw[0], 0);
            let mut max = 0u8;
            for i in 1..aw.len() {
                assert_ne!(aw[i], aw[i - 1], "consecutive repeat in {aw:?}");
                assert!(aw[i] <= max + 1, "growth violation in {aw:?}");
                max = max.max(aw[i]);
            }
        }
    }

    #[test]
    fn vocab_roundtrip() {
        let vocab = AwVocab::new(4);
        assert_eq!(vocab.size(), 5);
        for id in 0..vocab.size() as u32 {
            let w = vocab.walk(id).clone();
            assert_eq!(vocab.id(&w), Some(id));
        }
        assert_eq!(vocab.id(&vec![0, 0, 1, 2]), None);
    }

    #[test]
    fn sampled_walks_follow_edges() {
        // Path graph 0-1-2-3 (undirected arcs both ways).
        let csr = Csr::from_edges(4, &[(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)]);
        let sampler = WalkSampler::new(WalkConfig { walk_len: 6, walks_per_node: 1, seed: 42 });
        let mut rng = StdRng::seed_from_u64(7);
        for start in 0..4u32 {
            let walk = sampler.sample_walk(&csr, start, &mut rng);
            assert_eq!(walk.len(), 6);
            for pair in walk.windows(2) {
                assert!(csr.contains_edge(pair[0], pair[1]), "non-edge step in {walk:?}");
            }
        }
    }

    #[test]
    fn isolated_node_stays_put() {
        let csr = Csr::from_edges(2, &[]);
        let sampler = WalkSampler::new(WalkConfig { walk_len: 4, walks_per_node: 1, seed: 1 });
        let mut rng = StdRng::seed_from_u64(1);
        let walk = sampler.sample_walk(&csr, 0, &mut rng);
        assert_eq!(walk, vec![0, 0, 0, 0]);
    }

    #[test]
    fn node_distributions_are_normalised_and_deterministic() {
        let csr = Csr::from_edges(
            5,
            &[(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2), (3, 4), (4, 3), (4, 0), (0, 4)],
        );
        let vocab = AwVocab::new(4);
        let sampler =
            WalkSampler::new(WalkConfig { walk_len: 4, walks_per_node: 64, seed: 99 });
        let d1 = sampler.node_distributions(&csr, &vocab);
        let d2 = sampler.node_distributions(&csr, &vocab);
        assert_eq!(d1, d2, "sampling must be deterministic under a fixed seed");
        for v in 0..5 {
            let row = &d1[v * vocab.size()..(v + 1) * vocab.size()];
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {v} sums to {sum}");
        }
    }

    #[test]
    fn cycle_vs_path_distributions_differ() {
        // A triangle revisits nodes quickly; a long path rarely does. Their
        // anonymous-walk distributions must be distinguishable — this is the
        // premise of the structural view.
        let tri = Csr::from_edges(3, &[(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2)]);
        let path = Csr::from_edges(
            6,
            &[(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2), (3, 4), (4, 3), (4, 5), (5, 4)],
        );
        let vocab = AwVocab::new(4);
        let sampler =
            WalkSampler::new(WalkConfig { walk_len: 4, walks_per_node: 256, seed: 3 });
        let dt = sampler.graph_distribution(&tri, &vocab);
        let dp = sampler.graph_distribution(&path, &vocab);
        let l1: f32 = dt.iter().zip(&dp).map(|(a, b)| (a - b).abs()).sum();
        assert!(l1 > 0.2, "triangle and path should separate, l1 = {l1}");
    }

    /// The per-walk `Vec` + `HashMap` path the packed keys replaced,
    /// kept as the bitwise reference of [`WalkSampler::node_distributions`].
    fn node_distributions_reference(cfg: WalkConfig, csr: &Csr, vocab: &AwVocab) -> Vec<f32> {
        let index: std::collections::HashMap<AnonymousWalk, u32> =
            (0..vocab.size() as u32).map(|id| (vocab.walk(id).clone(), id)).collect();
        let mut out = Vec::new();
        for v in 0..csr.node_count() as u32 {
            let mut rng = StdRng::seed_from_u64(mix(cfg.seed, v as u64));
            let mut row = vec![0.0f32; vocab.size()];
            for _ in 0..cfg.walks_per_node {
                let mut walk = vec![v];
                while walk.len() < cfg.walk_len {
                    let cur = walk[walk.len() - 1];
                    let nbrs = csr.neighbors(cur);
                    if nbrs.is_empty() {
                        walk.push(cur);
                    } else {
                        walk.push(nbrs[rng.random_range(0..nbrs.len())]);
                    }
                }
                let id = index.get(&anonymous_walk(&walk)).copied().unwrap_or(0);
                row[id as usize] += 1.0;
            }
            let inv = 1.0 / cfg.walks_per_node as f32;
            for x in &mut row {
                *x *= inv;
            }
            out.extend_from_slice(&row);
        }
        out
    }

    #[test]
    fn node_distributions_match_the_reference_bitwise() {
        let mut z = 0x1234_5678_9abc_def1u64;
        let mut next = move |bound: u64| {
            z ^= z << 13;
            z ^= z >> 7;
            z ^= z << 17;
            z % bound
        };
        for walk_len in 1..=8 {
            let vocab = AwVocab::new(walk_len);
            let graphs = [(0, 0, true), (1, 0, true), (6, 4, true), (12, 30, false), (20, 25, true)];
            for (n, arcs, undirected) in graphs {
                // The last nodes never get arcs, so every graph but the
                // empty one has isolated nodes; the directed graph also
                // has dead ends mid-walk.
                let mut edges = Vec::new();
                for _ in 0..arcs {
                    let live = (n as u64).saturating_sub(2).max(1);
                    let (s, d) = (next(live) as u32, next(live) as u32);
                    edges.push((s, d));
                    if undirected {
                        edges.push((d, s));
                    }
                }
                let csr = Csr::from_edges(n, &edges);
                for walks_per_node in [1, 7, 50] {
                    let cfg = WalkConfig { walk_len, walks_per_node, seed: next(u64::MAX) };
                    let got = WalkSampler::new(cfg).node_distributions(&csr, &vocab);
                    let want = node_distributions_reference(cfg, &csr, &vocab);
                    let got: Vec<u32> = got.iter().map(|x| x.to_bits()).collect();
                    let want: Vec<u32> = want.iter().map(|x| x.to_bits()).collect();
                    assert_eq!(got, want, "walk_len {walk_len} n {n} gamma {walks_per_node}");
                }
            }
        }
    }

    #[test]
    fn isolated_nodes_map_to_id_zero() {
        let csr = Csr::from_edges(3, &[(0, 1), (1, 0)]);
        for walk_len in 2..=8 {
            let vocab = AwVocab::new(walk_len);
            let cfg = WalkConfig { walk_len, walks_per_node: 10, seed: 5 };
            let d = WalkSampler::new(cfg).node_distributions(&csr, &vocab);
            let row = &d[2 * vocab.size()..];
            assert_eq!(row[0], 1.0, "walk_len {walk_len}");
            assert!(row[1..].iter().all(|&x| x == 0.0));
        }
    }

    #[test]
    fn vocab_keys_ascend_in_id_order() {
        for len in 1..=8 {
            let vocab = AwVocab::new(len);
            assert!(vocab.keys.windows(2).all(|w| w[0] < w[1]), "len {len}");
            for id in 0..vocab.size() as u32 {
                assert_eq!(vocab.id(vocab.walk(id)), Some(id));
            }
        }
        let vocab = AwVocab::new(4);
        assert_eq!(vocab.id(&vec![0, 1, 0]), None, "wrong length");
        assert_eq!(vocab.id(&vec![0, 1, 0, 16]), None, "label past a nibble");
    }

    #[test]
    #[should_panic(expected = "walk length must be in 1..=16")]
    fn sampler_rejects_walks_longer_than_a_key() {
        WalkSampler::new(WalkConfig { walk_len: MAX_WALK_LEN + 1, ..WalkConfig::default() });
    }

    #[test]
    fn anonymous_labels_saturate_past_u8() {
        let walk: Vec<u32> = (0..300).collect();
        let aw = anonymous_walk(&walk);
        assert_eq!(aw[255], 255);
        assert_eq!(aw[299], 255);
    }

    #[test]
    fn graph_distribution_empty_graph() {
        let csr = Csr::from_edges(0, &[]);
        let vocab = AwVocab::new(4);
        let sampler = WalkSampler::new(WalkConfig::default());
        let d = sampler.graph_distribution(&csr, &vocab);
        assert_eq!(d.len(), vocab.size());
        assert!(d.iter().all(|&x| x == 0.0));
    }
}
