//! Sharded-corpus pipeline benchmark: generation throughput of the
//! deterministic shard writer, the streaming trainer's resident-set
//! ceiling versus materialising the same corpus in memory, and a
//! ≥100k-loop end-to-end run (20 seeds × 840 Table II loops × 6
//! optimisation variants = 100 800 samples) streamed from disk. The full
//! run writes `BENCH_corpus.json` at the repo root and also measures the
//! accuracy-vs-corpus-size scaling curve reported in `EXPERIMENTS.md`.
//!
//! `--smoke` is the CI gate: write a tiny corpus as two shards, assert
//! the shard union is bit-identical to the single-process build
//! (`to_bits` on every float), stream one training epoch through the
//! bounded prefetch ring, and assert the epoch's resident-set growth
//! stays under a fixed budget. Exits non-zero on any violation; writes
//! nothing.
//!
//! RSS is read from `/proc/self/status` (`VmRSS`), with a sampler thread
//! tracking the peak *within* a phase — `VmHWM` is process-lifetime
//! monotone, so it cannot attribute a peak to the streaming phase once
//! generation has run in the same process.

use mvgnn_core::trainer::evaluate;
use mvgnn_core::{train_streaming, MvGnn, MvGnnConfig, StreamConfig, TrainConfig};
use mvgnn_dataset::{
    build_corpus, fit_inst2vec, generate_shard, load_inst2vec, save_inst2vec, write_shard,
    write_shard_resumable, CorpusConfig, LabeledSample, ShardReader, Suite,
};
use mvgnn_embed::{Inst2Vec, Inst2VecConfig};
use mvgnn_ir::transform::OptLevel;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Streaming-epoch resident-set growth budget for the smoke gate, bytes.
/// The tiny smoke corpus streams through a `(prefetch + 2) × batch`
/// sample window plus the model and per-thread gradient workspaces, all
/// of which sit far below this; the budget catches a regression that
/// materialises whole shards (or the whole corpus) inside the trainer.
const SMOKE_RSS_BUDGET: u64 = 192 * 1024 * 1024;

/// Shard fan-out for the full run (generation and streaming).
const FULL_SHARDS: usize = 8;

/// Corpus sizes (in generator seeds) swept for the scaling curve.
const SCALING_SEEDS: [usize; 4] = [1, 2, 4, 8];

/// Current resident set in bytes, from `/proc/self/status`.
fn vm_rss() -> u64 {
    let status = match std::fs::read_to_string("/proc/self/status") {
        Ok(s) => s,
        Err(_) => return 0, // non-procfs platform: benchmark-only path
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .unwrap_or(0)
}

/// Peak `VmRSS` observed while `f` runs, sampled every few milliseconds
/// from a helper thread (plus one sample before and after, so short
/// phases are never missed entirely).
fn peak_rss_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let stop = Arc::new(AtomicBool::new(false));
    let peak = Arc::new(AtomicU64::new(vm_rss()));
    let sampler = {
        let (stop, peak) = (Arc::clone(&stop), Arc::clone(&peak));
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                peak.fetch_max(vm_rss(), Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        })
    };
    let out = f();
    stop.store(true, Ordering::Relaxed);
    sampler.join().ok();
    peak.fetch_max(vm_rss(), Ordering::Relaxed);
    (out, peak.load(Ordering::Relaxed))
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// Everything float-bearing in a sample, as bits (parity checks).
fn fingerprint(s: &LabeledSample) -> (u64, OptLevel, usize, Vec<u32>, Vec<u32>, Vec<usize>) {
    (
        s.base_key,
        s.level,
        s.label,
        s.sample.node_feats.iter().map(|x| x.to_bits()).collect(),
        s.sample.struct_dists.iter().map(|x| x.to_bits()).collect(),
        s.sample.token_ids.clone(),
    )
}

fn corpus_cfg(seeds: Vec<u64>, levels: Vec<OptLevel>, i2v_dim: usize, noise: f64) -> CorpusConfig {
    CorpusConfig {
        seeds,
        opt_levels: levels,
        per_class: None,
        test_fraction: 0.25,
        suite: None,
        inst2vec: Inst2VecConfig { dim: i2v_dim, epochs: 1, negatives: 4, lr: 0.05, seed: 0x1257 },
        sample: Default::default(),
        seed: 0xda7a,
        label_noise: noise,
        static_features: false,
    }
}

/// Write every shard of `cfg` under `dir`, returning the paths and the
/// total sample count. Shards are written one after another. With
/// `resume`, shards already on disk that verify (header identity +
/// every record checksum) are skipped instead of regenerated, so a
/// crashed generation run restarts from where it died.
fn write_all_shards(
    dir: &Path,
    cfg: &CorpusConfig,
    emb: &Inst2Vec,
    num_shards: usize,
    resume: bool,
) -> (Vec<PathBuf>, usize, usize) {
    let mut paths = Vec::with_capacity(num_shards);
    let mut total = 0usize;
    let mut reused = 0usize;
    for s in 0..num_shards {
        let (path, n) = if resume {
            let (path, n, skipped) =
                mvgnn_bench::or_die(write_shard_resumable(dir, cfg, emb, s, num_shards));
            reused += skipped as usize;
            (path, n)
        } else {
            mvgnn_bench::or_die(write_shard(dir, cfg, emb, s, num_shards))
        };
        total += n;
        paths.push(path);
    }
    (paths, total, reused)
}

fn read_all(shards: &[PathBuf]) -> Vec<LabeledSample> {
    let mut all = Vec::new();
    for p in shards {
        for rec in mvgnn_bench::or_die(ShardReader::open(p)) {
            all.push(mvgnn_bench::or_die(rec));
        }
    }
    all
}

fn disk_bytes(shards: &[PathBuf]) -> u64 {
    shards
        .iter()
        .map(|p| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0))
        .sum()
}

fn model_for(shards: &[PathBuf]) -> MvGnn {
    let first = mvgnn_bench::or_die(
        mvgnn_bench::or_die(ShardReader::open(&shards[0]))
            .next()
            .unwrap_or_else(|| {
                eprintln!("fatal: first shard is empty");
                std::process::exit(1);
            }),
    );
    MvGnn::new(MvGnnConfig::small(first.sample.node_dim, first.sample.aw_vocab))
}

/// CI gate: shard-union parity plus a bounded-RSS streaming epoch over a
/// seconds-scale corpus. Prints what it checked; exits non-zero on any
/// violation.
fn smoke() {
    let dir = std::env::temp_dir().join("mvgnn_bench_corpus_smoke");
    std::fs::remove_dir_all(&dir).ok();
    mvgnn_bench::or_die(std::fs::create_dir_all(&dir));

    let mut cfg = corpus_cfg(vec![1, 2], vec![OptLevel::O0, OptLevel::O2], 8, 0.0);
    cfg.suite = Some(Suite::PolyBench);
    cfg.inst2vec.negatives = 2;
    cfg.inst2vec.seed = 3;

    // Shard-union parity: two worker shards must reproduce the
    // single-process build bit for bit (labels are noise-free here, so
    // the on-disk samples compare directly against the generator).
    let emb = fit_inst2vec(&cfg);
    mvgnn_bench::or_die(save_inst2vec(&dir.join("inst2vec.bin"), &emb));
    let emb = mvgnn_bench::or_die(load_inst2vec(&dir.join("inst2vec.bin")));
    let mono = generate_shard(&cfg, &emb, 0, 1);
    let (shards, written, _) = write_all_shards(&dir, &cfg, &emb, 2, false);
    // Resume over intact shards must be a pure skip: same paths, same
    // counts, nothing rewritten.
    let (reshards, rewritten, reskipped) = write_all_shards(&dir, &cfg, &emb, 2, true);
    if reshards != shards || rewritten != written || reskipped != 2 {
        eprintln!("FAIL: --resume regenerated verified shards (skipped {reskipped}/2)");
        std::process::exit(1);
    }
    let mut union = read_all(&shards);
    union.sort_by_key(|s| (s.base_key, s.sample.n, s.label, s.level));
    if union.len() != mono.len() || written != mono.len() {
        eprintln!(
            "FAIL: shard union has {} samples, single-process build has {}",
            union.len(),
            mono.len()
        );
        std::process::exit(1);
    }
    for (a, b) in union.iter().zip(&mono) {
        if fingerprint(a) != fingerprint(b) {
            eprintln!("FAIL: shard union diverges from single-process build at key {:#x}", a.base_key);
            std::process::exit(1);
        }
    }
    println!("parity:    2-shard union bit-identical to single-process build ({} samples)", mono.len());
    println!("resume:    rerun skipped both verified shards");

    // Bounded-RSS streaming epoch through the prefetch ring.
    let mut model = model_for(&shards);
    let train = TrainConfig { epochs: 1, batch_size: 8, ..Default::default() };
    let before = vm_rss();
    let (res, peak) = peak_rss_during(|| {
        train_streaming(&mut model, &shards, &train, &StreamConfig { prefetch: 2 })
    });
    let stats = mvgnn_bench::or_die(res);
    let grew = peak.saturating_sub(before);
    println!(
        "streaming: 1 epoch over {} samples, loss {:.4}, RSS +{:.1} MiB (budget {:.0} MiB)",
        mono.len(),
        stats[0].loss,
        mib(grew),
        mib(SMOKE_RSS_BUDGET)
    );
    if grew > SMOKE_RSS_BUDGET {
        eprintln!("FAIL: streaming epoch grew RSS by {:.1} MiB, budget {:.1} MiB", mib(grew), mib(SMOKE_RSS_BUDGET));
        std::process::exit(1);
    }
    std::fs::remove_dir_all(&dir).ok();
    println!("corpus smoke OK");
}

/// One point of the scaling curve: stream-train on `n_seeds` worth of
/// corpus, evaluate on a fixed held-out corpus from disjoint seeds.
fn scaling_point(dir: &Path, n_seeds: usize, test: &[LabeledSample]) -> (usize, f64) {
    let cfg = corpus_cfg(
        (1..=n_seeds as u64).collect(),
        vec![OptLevel::O0, OptLevel::O3],
        16,
        0.03,
    );
    let sub = dir.join(format!("scale_{n_seeds}"));
    mvgnn_bench::or_die(std::fs::create_dir_all(&sub));
    let emb = fit_inst2vec(&cfg);
    let (shards, total, _) = write_all_shards(&sub, &cfg, &emb, 2, false);
    let mut model = model_for(&shards);
    let train = TrainConfig { epochs: 10, batch_size: 32, ..Default::default() };
    mvgnn_bench::or_die(train_streaming(&mut model, &shards, &train, &StreamConfig::default()));
    let m = evaluate(&model, test);
    std::fs::remove_dir_all(&sub).ok();
    (total, m.accuracy())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    let quick = args.iter().any(|a| a == "--quick");
    let resume = args.iter().any(|a| a == "--resume");

    let dir = std::env::temp_dir().join("mvgnn_bench_corpus_full");
    if !resume {
        std::fs::remove_dir_all(&dir).ok();
    }
    mvgnn_bench::or_die(std::fs::create_dir_all(&dir));

    // ≥100k-loop corpus: 20 seeds × 840 Table II loops × 6 optimisation
    // variants = 100 800 samples (--quick: 2 seeds, for iteration).
    let seeds: Vec<u64> = if quick { vec![1, 2] } else { (1..=20).collect() };
    let cfg = corpus_cfg(seeds, OptLevel::ALL.to_vec(), 32, 0.03);

    eprintln!("[corpus] fitting inst2vec over {} seeds…", cfg.seeds.len());
    let t = Instant::now();
    let emb = fit_inst2vec(&cfg);
    mvgnn_bench::or_die(save_inst2vec(&dir.join("inst2vec.bin"), &emb));
    let emb = mvgnn_bench::or_die(load_inst2vec(&dir.join("inst2vec.bin")));
    let inst2vec_secs = t.elapsed().as_secs_f64();
    eprintln!("[corpus] inst2vec fit + artifact round-trip: {inst2vec_secs:.1}s");

    eprintln!("[corpus] generating {FULL_SHARDS} shards{}…", if resume { " (resume)" } else { "" });
    let t = Instant::now();
    let (shards, total, reused) = write_all_shards(&dir, &cfg, &emb, FULL_SHARDS, resume);
    if reused > 0 {
        eprintln!("[corpus] resume skipped {reused}/{FULL_SHARDS} verified shards");
    }
    let gen_secs = t.elapsed().as_secs_f64();
    let bytes = disk_bytes(&shards);
    let gen_rate = total as f64 / gen_secs;
    eprintln!(
        "[corpus] {total} samples in {gen_secs:.1}s ({gen_rate:.0} samples/s), {:.1} MiB on disk",
        mib(bytes)
    );
    if !quick && total < 100_000 {
        eprintln!("FAIL: expected a >=100k-loop corpus, generated {total}");
        std::process::exit(1);
    }

    // Streaming epoch: peak RSS attributable to the phase itself.
    eprintln!("[corpus] streaming one training epoch…");
    let mut model = model_for(&shards);
    let train = TrainConfig { epochs: 1, batch_size: 16, ..Default::default() };
    let stream_before = vm_rss();
    let t = Instant::now();
    let (res, stream_peak) = peak_rss_during(|| {
        train_streaming(&mut model, &shards, &train, &StreamConfig::default())
    });
    let stream_secs = t.elapsed().as_secs_f64();
    let stats = mvgnn_bench::or_die(res);
    let stream_grew = stream_peak.saturating_sub(stream_before);
    eprintln!(
        "[corpus] epoch done in {stream_secs:.1}s, loss {:.4}, acc {:.3}, RSS +{:.1} MiB",
        stats[0].loss,
        stats[0].accuracy,
        mib(stream_grew)
    );

    // In-memory baseline: materialise every shard the way a
    // single-process `build_corpus` would hold it.
    eprintln!("[corpus] materialising the corpus in memory for comparison…");
    let inmem_before = vm_rss();
    let all = read_all(&shards);
    let inmem_after = vm_rss();
    let inmem_grew = inmem_after.saturating_sub(inmem_before);
    let n_loaded = all.len();
    drop(all);
    eprintln!("[corpus] {n_loaded} samples resident: +{:.1} MiB", mib(inmem_grew));
    if stream_grew * 2 > inmem_grew {
        eprintln!(
            "FAIL: streaming RSS growth {:.1} MiB is not well under the in-memory {:.1} MiB",
            mib(stream_grew),
            mib(inmem_grew)
        );
        std::process::exit(1);
    }

    // Accuracy-vs-corpus-size scaling curve (fixed held-out test set
    // from seeds the training corpora never touch).
    eprintln!("[corpus] scaling curve over {SCALING_SEEDS:?} seeds…");
    let mut eval_cfg = corpus_cfg(vec![98, 99], vec![OptLevel::O0, OptLevel::O3], 16, 0.0);
    eval_cfg.per_class = Some(400);
    let test = build_corpus(&eval_cfg).test;
    let mut scaling: Vec<(usize, usize, f64)> = Vec::new();
    for &n in &SCALING_SEEDS {
        let t = Instant::now();
        let (samples, acc) = scaling_point(&dir, n, &test);
        eprintln!(
            "[corpus]   {n} seed(s): {samples} samples -> test accuracy {acc:.3} ({:.0}s)",
            t.elapsed().as_secs_f64()
        );
        scaling.push((n, samples, acc));
    }

    let scaling_rows: Vec<String> = scaling
        .iter()
        .map(|(n, samples, acc)| {
            format!("    {{\"seeds\": {n}, \"samples\": {samples}, \"test_accuracy\": {acc:.4}}}")
        })
        .collect();
    let json = format!(
        "{{\n  \"corpus\": {{\"seeds\": {}, \"shards\": {FULL_SHARDS}, \"samples\": {total}, \
         \"disk_mib\": {:.1}}},\n  \
         \"generation\": {{\"inst2vec_secs\": {inst2vec_secs:.1}, \"shard_secs\": {gen_secs:.1}, \
         \"samples_per_sec\": {gen_rate:.1}}},\n  \
         \"streaming_epoch\": {{\"secs\": {stream_secs:.1}, \"loss\": {:.4}, \
         \"accuracy\": {:.4}, \"rss_growth_mib\": {:.1}}},\n  \
         \"in_memory_rss_mib\": {:.1},\n  \
         \"rss_ratio\": {:.4},\n  \
         \"scaling\": [\n{}\n  ]\n}}\n",
        cfg.seeds.len(),
        mib(bytes),
        stats[0].loss,
        stats[0].accuracy,
        mib(stream_grew),
        mib(inmem_grew),
        stream_grew as f64 / inmem_grew.max(1) as f64,
        scaling_rows.join(",\n"),
    );
    mvgnn_bench::or_die(std::fs::write("BENCH_corpus.json", json));
    eprintln!("[corpus] wrote BENCH_corpus.json");
    std::fs::remove_dir_all(&dir).ok();
}
