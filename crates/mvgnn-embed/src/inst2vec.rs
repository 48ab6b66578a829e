//! inst2vec reimplementation: skip-gram with negative sampling over
//! contextual-flow neighbourhoods of normalised IR statements.
//!
//! Ben-Nun et al. train on the "contextual flow graph" of LLVM IR —
//! statements are neighbours if they are adjacent in a basic block or
//! connected by data flow. Our IR exposes both relations directly.

use mvgnn_ir::module::{FuncId, Module};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Token reserved for out-of-vocabulary statements.
pub const UNK: &str = "<unk>";

/// Training configuration.
#[derive(Debug, Clone)]
pub struct Inst2VecConfig {
    /// Embedding width (paper: 200).
    pub dim: usize,
    /// Epochs over the pair corpus.
    pub epochs: usize,
    /// Negative samples per positive pair.
    pub negatives: usize,
    /// Initial learning rate (linearly decayed).
    pub lr: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Inst2VecConfig {
    fn default() -> Self {
        Self { dim: 200, epochs: 5, negatives: 5, lr: 0.05, seed: 0x1257 }
    }
}

/// Trained statement embedding: token → dense row.
#[derive(Debug, Clone)]
pub struct Inst2Vec {
    vocab: HashMap<String, usize>,
    matrix: Vec<f32>,
    dim: usize,
}

impl Inst2Vec {
    /// Embedding width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Vocabulary size (including the UNK row).
    pub fn vocab_size(&self) -> usize {
        self.vocab.len()
    }

    /// Token id (UNK id when unseen).
    pub fn id(&self, token: &str) -> usize {
        self.vocab.get(token).copied().unwrap_or_else(|| self.vocab[UNK])
    }

    /// Embedding row for a token.
    pub fn embed(&self, token: &str) -> &[f32] {
        let id = self.id(token);
        &self.matrix[id * self.dim..(id + 1) * self.dim]
    }

    /// All tokens in the vocabulary.
    pub fn tokens(&self) -> impl Iterator<Item = &str> {
        self.vocab.keys().map(String::as_str)
    }

    /// Train on a corpus of modules.
    pub fn train(corpus: &[&Module], cfg: &Inst2VecConfig) -> Inst2Vec {
        // Build the vocabulary.
        let mut vocab: HashMap<String, usize> = HashMap::new();
        vocab.insert(UNK.to_string(), 0);
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for m in corpus {
            for (fi, f) in m.funcs.iter().enumerate() {
                let func = FuncId(fi as u32);
                let insts: Vec<_> = f.insts_with_refs(func).collect();
                // Tokens are static; only a new entry allocates.
                let intern = |tok: &str, vocab: &mut HashMap<String, usize>| -> u32 {
                    if let Some(&id) = vocab.get(tok) {
                        return id as u32;
                    }
                    let next = vocab.len();
                    vocab.insert(tok.to_string(), next);
                    next as u32
                };
                let ids: Vec<u32> =
                    insts.iter().map(|(_, i, _)| intern(i.token(), &mut vocab)).collect();
                // Context 1: intra-block adjacency (window 2).
                for (k, (r, _, _)) in insts.iter().enumerate() {
                    for off in 1..=2usize {
                        if k + off < insts.len() && insts[k + off].0.block == r.block {
                            pairs.push((ids[k], ids[k + off]));
                            pairs.push((ids[k + off], ids[k]));
                        }
                    }
                }
                // Context 2: def-use flow.
                let mut defs: HashMap<u32, Vec<usize>> = HashMap::new();
                for (k, (_, inst, _)) in insts.iter().enumerate() {
                    if let Some(d) = inst.def() {
                        defs.entry(d.0).or_default().push(k);
                    }
                }
                for (k, (_, inst, _)) in insts.iter().enumerate() {
                    for u in f.uses(inst) {
                        if let Some(ds) = defs.get(&u.0) {
                            for &d in ds {
                                if d != k {
                                    pairs.push((ids[d], ids[k]));
                                }
                            }
                        }
                    }
                }
            }
        }
        let v = vocab.len();
        let dim = cfg.dim;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let bound = 0.5 / dim as f32;
        let mut input: Vec<f32> = (0..v * dim).map(|_| rng.random_range(-bound..bound)).collect();
        let mut output: Vec<f32> = vec![0.0; v * dim];

        // SGNS training.
        let total_steps = (cfg.epochs * pairs.len()).max(1);
        let mut step = 0usize;
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        for _epoch in 0..cfg.epochs {
            // Fisher-Yates shuffle for stochasticity.
            for i in (1..order.len()).rev() {
                let j = rng.random_range(0..=i);
                order.swap(i, j);
            }
            for &pi in &order {
                let (center, ctx) = pairs[pi];
                let lr = cfg.lr * (1.0 - step as f32 / total_steps as f32).max(0.05);
                step += 1;
                let crow = center as usize * dim;
                let mut grad_center = vec![0.0f32; dim];
                // One positive and `negatives` negative targets.
                for neg in 0..=cfg.negatives {
                    let (target, label) = if neg == 0 {
                        (ctx as usize, 1.0f32)
                    } else {
                        (rng.random_range(0..v), 0.0f32)
                    };
                    let trow = target * dim;
                    let mut dot = 0.0f32;
                    for d in 0..dim {
                        dot += input[crow + d] * output[trow + d];
                    }
                    let pred = 1.0 / (1.0 + (-dot).exp());
                    let g = (pred - label) * lr;
                    for d in 0..dim {
                        grad_center[d] += g * output[trow + d];
                        output[trow + d] -= g * input[crow + d];
                    }
                }
                for d in 0..dim {
                    input[crow + d] -= grad_center[d];
                }
            }
        }
        Inst2Vec { vocab, matrix: input, dim }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvgnn_ir::inst::BinOp;
    use mvgnn_ir::types::Ty;
    use mvgnn_ir::FunctionBuilder;

    fn corpus_module(seed_ops: &[BinOp]) -> Module {
        let mut m = Module::new("c");
        let a = m.add_array("a", Ty::F64, 64);
        let out = m.add_array("b", Ty::F64, 64);
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let lo = b.const_i64(0);
        let hi = b.const_i64(64);
        let st = b.const_i64(1);
        for &op in seed_ops {
            b.for_loop(lo, hi, st, |b, iv| {
                let x = b.load(a, iv);
                let y = b.bin(op, x, x);
                b.store(out, iv, y);
            });
        }
        b.finish();
        m
    }

    fn quick_cfg() -> Inst2VecConfig {
        Inst2VecConfig { dim: 16, epochs: 8, negatives: 4, lr: 0.08, seed: 5 }
    }

    #[test]
    fn vocabulary_covers_corpus_tokens() {
        let m = corpus_module(&[BinOp::Add, BinOp::Mul]);
        let emb = Inst2Vec::train(&[&m], &quick_cfg());
        for tok in ["load", "store", "bin.add", "bin.mul", "const.i64", "br", "condbr", "ret"] {
            assert_ne!(emb.id(tok), emb.id(UNK), "missing {tok}");
        }
        assert_eq!(emb.embed("load").len(), 16);
    }

    #[test]
    fn unknown_token_maps_to_unk() {
        let m = corpus_module(&[BinOp::Add]);
        let emb = Inst2Vec::train(&[&m], &quick_cfg());
        assert_eq!(emb.id("bin.frobnicate"), emb.id(UNK));
        assert_eq!(emb.embed("bin.frobnicate"), emb.embed(UNK));
    }

    #[test]
    fn similar_contexts_embed_closer_than_dissimilar() {
        // bin.add and bin.mul appear in identical contexts (load → op →
        // store); they should be closer to each other than to `condbr`.
        let m = corpus_module(&[BinOp::Add, BinOp::Mul, BinOp::Add, BinOp::Mul]);
        let emb = Inst2Vec::train(&[&m], &quick_cfg());
        let cosine = |a: &str, b: &str| {
            let (ea, eb) = (emb.embed(a), emb.embed(b));
            let dot: f32 = ea.iter().zip(eb).map(|(x, y)| x * y).sum();
            let norm = |e: &[f32]| e.iter().map(|x| x * x).sum::<f32>().sqrt();
            dot / (norm(ea) * norm(eb))
        };
        let close = cosine("bin.add", "bin.mul");
        let far = cosine("bin.add", "condbr");
        assert!(
            close > far,
            "add/mul cosine {close} should exceed add/condbr cosine {far}"
        );
    }

    #[test]
    fn training_is_deterministic_under_seed() {
        let m = corpus_module(&[BinOp::Add]);
        let e1 = Inst2Vec::train(&[&m], &quick_cfg());
        let e2 = Inst2Vec::train(&[&m], &quick_cfg());
        assert_eq!(e1.embed("load"), e2.embed("load"));
    }

    #[test]
    fn embeddings_are_finite_and_nonzero() {
        let m = corpus_module(&[BinOp::Add, BinOp::Sub]);
        let emb = Inst2Vec::train(&[&m], &quick_cfg());
        for tok in ["load", "store", "bin.add"] {
            let e = emb.embed(tok);
            assert!(e.iter().all(|x| x.is_finite()));
            assert!(e.iter().any(|&x| x != 0.0));
        }
    }
}
