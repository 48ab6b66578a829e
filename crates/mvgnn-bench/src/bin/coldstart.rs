//! Cold-start benchmark: process exec → first classification, eager
//! MVCK v2 versus mapped MVCK-v2 weights.
//!
//! The parent prepares one weight artifact in each format (bit-identical
//! contents) plus a tiny MVSH shard holding the sample to classify, then
//! re-execs itself (`--child <mode>`) so every measurement starts from a
//! genuinely cold process: no warmed allocator, no resident weight
//! pages, no shared state. Each child loads the model its way, maps the
//! shard, classifies the first record, and reports its phase timings on
//! stdout; the parent takes the minimum over repetitions (the
//! steady-state floor, insensitive to scheduler noise) and writes
//! `BENCH_coldstart.json`.
//!
//! `--smoke` is the CI gate: the mapped artifact must load, its
//! installed weights must be `to_bits`-identical to the eager load, and
//! the mapped cold-start floor must not exceed the eager floor — the
//! zero-copy path has strictly less work to do before the first answer
//! (no full-file read, no per-tensor decode-and-copy), so if it is ever
//! slower the mapping layer has regressed.

use mvgnn_core::{
    read_checkpoint, write_checkpoint, write_mapped_checkpoint, Cascade, Checkpoint,
    CheckpointMeta, MappedCheckpoint, MvGnn, MvGnnConfig, Workspace,
};
use mvgnn_dataset::{fit_inst2vec, write_shard, CorpusConfig, MappedShardReader, Suite};
use mvgnn_embed::Inst2VecConfig;
use mvgnn_ir::transform::OptLevel;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Repetitions per mode (the minimum is reported).
const FULL_REPS: usize = 9;
const SMOKE_REPS: usize = 5;

fn corpus_cfg() -> CorpusConfig {
    CorpusConfig {
        seeds: vec![1],
        opt_levels: vec![OptLevel::O0],
        per_class: None,
        test_fraction: 0.25,
        suite: Some(Suite::PolyBench),
        inst2vec: Inst2VecConfig { dim: 16, epochs: 1, negatives: 2, lr: 0.05, seed: 3 },
        sample: Default::default(),
        seed: 0xc01d,
        label_noise: 0.0,
        static_features: false,
    }
}

/// One child run: load the weights the requested way, classify the first
/// shard record, print `<mode> <load_us> <classify_us> <total_us>`.
fn child(mode: &str, ckpt: &Path, shard: &Path) {
    let t0 = Instant::now();
    // The sample comes first (it fixes the model architecture); the
    // shard rides the same zero-copy reader in both modes so the only
    // difference between children is the weight-loading path.
    let first = mvgnn_bench::or_die(MappedShardReader::open(shard))
        .next()
        .unwrap_or_else(|| {
            eprintln!("fatal: coldstart shard is empty");
            std::process::exit(1);
        });
    let first = mvgnn_bench::or_die(first);
    let mut model =
        MvGnn::new(MvGnnConfig::small(first.sample.node_dim, first.sample.aw_vocab));
    match mode {
        "eager" => {
            let cp = mvgnn_bench::or_die(read_checkpoint(ckpt));
            mvgnn_bench::or_die(model.load(&cp.weights));
        }
        "mapped" => {
            let cp = mvgnn_bench::or_die(MappedCheckpoint::open(ckpt));
            mvgnn_bench::or_die(model.load_mapped(&cp));
        }
        other => {
            eprintln!("fatal: unknown child mode {other}");
            std::process::exit(1);
        }
    }
    let loaded = Instant::now();
    let rows = Cascade::gnn_batch(&model, &mut Workspace::new(), &[&first.sample]);
    let done = Instant::now();
    // Keep the classification observable so nothing is optimised away.
    let p = rows[0].fused.unwrap_or(0);
    println!(
        "{mode} {} {} {} {p}",
        loaded.duration_since(t0).as_micros(),
        done.duration_since(loaded).as_micros(),
        done.duration_since(t0).as_micros(),
    );
}

struct ModeStats {
    load_us: u128,
    classify_us: u128,
    total_us: u128,
    wall_us: u128,
}

/// Spawn `reps` cold children for `mode`; return the per-phase minima.
fn run_mode(exe: &Path, mode: &str, ckpt: &Path, shard: &Path, reps: usize) -> ModeStats {
    let mut best = ModeStats { load_us: u128::MAX, classify_us: u128::MAX, total_us: u128::MAX, wall_us: u128::MAX };
    for _ in 0..reps {
        let t = Instant::now();
        let out = mvgnn_bench::or_die(
            std::process::Command::new(exe)
                .arg("--child")
                .arg(mode)
                .arg(ckpt)
                .arg(shard)
                .output(),
        );
        let wall = t.elapsed().as_micros();
        if !out.status.success() {
            eprintln!("fatal: {mode} child failed: {}", String::from_utf8_lossy(&out.stderr));
            std::process::exit(1);
        }
        let line = String::from_utf8_lossy(&out.stdout);
        let fields: Vec<u128> = line
            .split_whitespace()
            .skip(1)
            .take(3)
            .filter_map(|f| f.parse().ok())
            .collect();
        if fields.len() != 3 {
            eprintln!("fatal: malformed {mode} child output: {line:?}");
            std::process::exit(1);
        }
        best.load_us = best.load_us.min(fields[0]);
        best.classify_us = best.classify_us.min(fields[1]);
        best.total_us = best.total_us.min(fields[2]);
        best.wall_us = best.wall_us.min(wall);
    }
    best
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.len() >= 4 && args[1] == "--child" {
        child(&args[2], Path::new(&args[3]), Path::new(&args[4]));
        return;
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let reps = if smoke { SMOKE_REPS } else { FULL_REPS };

    let dir = std::env::temp_dir().join("mvgnn_bench_coldstart");
    std::fs::remove_dir_all(&dir).ok();
    mvgnn_bench::or_die(std::fs::create_dir_all(&dir));

    // Fixture: one shard (the classification input) and the same weights
    // in both artifact formats.
    let cfg = corpus_cfg();
    let emb = fit_inst2vec(&cfg);
    let (shard, n) = mvgnn_bench::or_die(write_shard(&dir, &cfg, &emb, 0, 1));
    eprintln!("[coldstart] fixture shard: {n} samples");
    let first = mvgnn_bench::or_die(
        mvgnn_bench::or_die(MappedShardReader::open(&shard)).next().unwrap_or_else(|| {
            eprintln!("fatal: fixture shard is empty");
            std::process::exit(1);
        }),
    );
    let model = MvGnn::new(MvGnnConfig::small(first.sample.node_dim, first.sample.aw_vocab));
    let eager_path: PathBuf = dir.join("weights_eager.mvck");
    let mapped_path: PathBuf = dir.join("weights_mapped.mvck");
    let meta = CheckpointMeta { epoch: 0, lr: 1e-3, retries: 0, ..Default::default() };
    mvgnn_bench::or_die(write_checkpoint(
        &eager_path,
        &Checkpoint {
            epoch: 0,
            lr: 1e-3,
            retries: 0,
            calibration: None,
            stats: Vec::new(),
            weights: model.save().to_vec(),
        },
    ));
    mvgnn_bench::or_die(write_mapped_checkpoint(&mapped_path, &meta, &model.params));
    let eager_bytes = std::fs::metadata(&eager_path).map(|m| m.len()).unwrap_or(0);
    let mapped_bytes = std::fs::metadata(&mapped_path).map(|m| m.len()).unwrap_or(0);

    // Parity gate: both load paths must reconstruct bit-identical
    // weights (`save()` snapshots the raw bytes).
    let mut via_eager =
        MvGnn::new(MvGnnConfig::small(first.sample.node_dim, first.sample.aw_vocab));
    let cp = mvgnn_bench::or_die(read_checkpoint(&eager_path));
    mvgnn_bench::or_die(via_eager.load(&cp.weights));
    let mut via_mapped =
        MvGnn::new(MvGnnConfig::small(first.sample.node_dim, first.sample.aw_vocab));
    let mcp = mvgnn_bench::or_die(MappedCheckpoint::open(&mapped_path));
    if !mcp.is_mapped() {
        eprintln!("[coldstart] note: mmap unavailable on this target, owned-buffer fallback");
    }
    mvgnn_bench::or_die(via_mapped.load_mapped(&mcp));
    if via_eager.save() != via_mapped.save() || via_eager.save() != model.save() {
        eprintln!("FAIL: mapped-loaded weights are not bit-identical to the eager load");
        std::process::exit(1);
    }
    eprintln!("[coldstart] parity: mapped and eager loads are bit-identical");
    drop(mcp);

    let exe = mvgnn_bench::or_die(std::env::current_exe());
    let eager = run_mode(&exe, "eager", &eager_path, &shard, reps);
    let mapped = run_mode(&exe, "mapped", &mapped_path, &shard, reps);
    let speedup = eager.total_us as f64 / mapped.total_us.max(1) as f64;
    eprintln!(
        "[coldstart] eager:  load {}us + classify {}us = {}us (min of {reps})",
        eager.load_us, eager.classify_us, eager.total_us
    );
    eprintln!(
        "[coldstart] mapped: load {}us + classify {}us = {}us (min of {reps})",
        mapped.load_us, mapped.classify_us, mapped.total_us
    );
    eprintln!("[coldstart] exec->first-classification speedup: {speedup:.2}x");

    if smoke {
        if mapped.total_us > eager.total_us {
            eprintln!(
                "FAIL: mapped cold start {}us exceeds eager {}us",
                mapped.total_us, eager.total_us
            );
            std::process::exit(1);
        }
        println!("coldstart smoke OK ({speedup:.2}x)");
        std::fs::remove_dir_all(&dir).ok();
        return;
    }

    let json = format!(
        "{{\n  \"artifact\": {{\"eager_bytes\": {eager_bytes}, \"mapped_bytes\": {mapped_bytes}, \
         \"tensors\": {}}},\n  \
         \"reps\": {reps},\n  \
         \"eager\": {{\"load_us\": {}, \"first_classify_us\": {}, \"exec_to_first_us\": {}, \"wall_us\": {}}},\n  \
         \"mapped\": {{\"load_us\": {}, \"first_classify_us\": {}, \"exec_to_first_us\": {}, \"wall_us\": {}}},\n  \
         \"speedup_exec_to_first\": {speedup:.3},\n  \
         \"parity\": \"to_bits-identical\"\n}}\n",
        mvgnn_bench::or_die(MappedCheckpoint::open(&mapped_path)).tensor_count(),
        eager.load_us, eager.classify_us, eager.total_us, eager.wall_us,
        mapped.load_us, mapped.classify_us, mapped.total_us, mapped.wall_us,
    );
    mvgnn_bench::or_die(std::fs::write("BENCH_coldstart.json", json));
    eprintln!("[coldstart] wrote BENCH_coldstart.json");
    std::fs::remove_dir_all(&dir).ok();
}
