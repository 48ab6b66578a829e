//! Cold-start benchmark: process exec → first classification on the
//! mapped MVCK checkpoint.
//!
//! The parent prepares one weight artifact plus a tiny MVSH shard
//! holding the sample to classify, then re-execs itself (`--child`) so
//! every measurement starts from a genuinely cold process: no warmed
//! allocator, no resident weight pages, no shared state. Each child
//! reads the sample, maps and installs the weights, classifies, and
//! reports its phase timings on stdout; the parent takes the minimum
//! over repetitions (the steady-state floor, insensitive to scheduler
//! noise) and writes `BENCH_coldstart.json`.
//!
//! `--smoke` is the CI gate: the artifact must load, and its installed
//! weights must be `to_bits`-identical to the in-memory weights it was
//! written from.

use mvgnn_core::{
    write_checkpoint, Cascade, CheckpointMeta, MappedCheckpoint, MvGnn, MvGnnConfig, Workspace,
};
use mvgnn_dataset::{fit_inst2vec, write_shard, CorpusConfig, LabeledSample, ShardReader, Suite};
use mvgnn_embed::Inst2VecConfig;
use mvgnn_ir::transform::OptLevel;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Repetitions (the minimum is reported).
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

/// The first record of a shard, or exit with a typed message.
fn first_record(shard: &Path) -> LabeledSample {
    let first = mvgnn_bench::or_die(ShardReader::open(shard)).next().unwrap_or_else(|| {
        eprintln!("fatal: coldstart shard is empty");
        std::process::exit(1);
    });
    mvgnn_bench::or_die(first)
}

/// One child run: map the weights, classify the first shard record,
/// print `<load_us> <classify_us> <total_us> <prediction>`.
fn child(ckpt: &Path, shard: &Path) {
    let t0 = Instant::now();
    // The sample comes first: it fixes the model architecture.
    let first = first_record(shard);
    let mut model =
        MvGnn::new(MvGnnConfig::small(first.sample.node_dim, first.sample.aw_vocab));
    let cp = mvgnn_bench::or_die(MappedCheckpoint::open(ckpt));
    mvgnn_bench::or_die(model.load_mapped(&cp));
    let loaded = Instant::now();
    let rows = Cascade::gnn_batch(&model, &mut Workspace::new(), &[&first.sample]);
    let done = Instant::now();
    // Keep the classification observable so nothing is optimised away.
    let p = rows[0].fused.unwrap_or(0);
    println!(
        "{} {} {} {p}",
        loaded.duration_since(t0).as_micros(),
        done.duration_since(loaded).as_micros(),
        done.duration_since(t0).as_micros(),
    );
}

struct PhaseStats {
    load_us: u128,
    classify_us: u128,
    total_us: u128,
    wall_us: u128,
}

/// Spawn `reps` cold children; return the per-phase minima.
fn run_children(exe: &Path, ckpt: &Path, shard: &Path, reps: usize) -> PhaseStats {
    let mut best = PhaseStats {
        load_us: u128::MAX,
        classify_us: u128::MAX,
        total_us: u128::MAX,
        wall_us: u128::MAX,
    };
    for _ in 0..reps {
        let t = Instant::now();
        let out = mvgnn_bench::or_die(
            std::process::Command::new(exe).arg("--child").arg(ckpt).arg(shard).output(),
        );
        let wall = t.elapsed().as_micros();
        if !out.status.success() {
            eprintln!("fatal: child failed: {}", String::from_utf8_lossy(&out.stderr));
            std::process::exit(1);
        }
        let line = String::from_utf8_lossy(&out.stdout);
        let fields: Vec<u128> =
            line.split_whitespace().take(3).filter_map(|f| f.parse().ok()).collect();
        if fields.len() != 3 {
            eprintln!("fatal: malformed child output: {line:?}");
            std::process::exit(1);
        }
        best.load_us = best.load_us.min(fields[0]);
        best.classify_us = best.classify_us.min(fields[1]);
        best.total_us = best.total_us.min(fields[2]);
        best.wall_us = best.wall_us.min(wall);
    }
    best
}

fn bits(model: &MvGnn) -> Vec<Vec<u32>> {
    (0..model.params.len())
        .map(|i| {
            model.params.data(mvgnn_tensor::ParamId(i)).iter().map(|x| x.to_bits()).collect()
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.len() >= 4 && args[1] == "--child" {
        child(Path::new(&args[2]), Path::new(&args[3]));
        return;
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let reps = if smoke { SMOKE_REPS } else { FULL_REPS };

    let dir = std::env::temp_dir().join("mvgnn_bench_coldstart");
    std::fs::remove_dir_all(&dir).ok();
    mvgnn_bench::or_die(std::fs::create_dir_all(&dir));

    // Fixture: one shard (the classification input) and the weights.
    let cfg = corpus_cfg();
    let emb = fit_inst2vec(&cfg);
    let (shard, n) = mvgnn_bench::or_die(write_shard(&dir, &cfg, &emb, 0, 1));
    eprintln!("[coldstart] fixture shard: {n} samples");
    let first = first_record(&shard);
    let arch = MvGnnConfig::small(first.sample.node_dim, first.sample.aw_vocab);
    let model = MvGnn::new(arch.clone());
    let ckpt: PathBuf = dir.join("weights.mvck");
    let meta = CheckpointMeta { epoch: 0, lr: 1e-3, retries: 0, ..Default::default() };
    mvgnn_bench::or_die(write_checkpoint(&ckpt, &meta, &model.params));
    let artifact_bytes = std::fs::metadata(&ckpt).map(|m| m.len()).unwrap_or(0);

    // Load and parity gate: the installed weights must be bit-identical
    // to the in-memory weights they were written from.
    let mut loaded = MvGnn::new(arch);
    let cp = mvgnn_bench::or_die(MappedCheckpoint::open(&ckpt));
    if !cp.is_mapped() {
        eprintln!("[coldstart] note: mmap unavailable on this target, owned-buffer fallback");
    }
    mvgnn_bench::or_die(loaded.load_mapped(&cp));
    if bits(&loaded) != bits(&model) {
        eprintln!("FAIL: loaded weights are not bit-identical to the written ones");
        std::process::exit(1);
    }
    eprintln!("[coldstart] parity: loaded weights are bit-identical");
    let tensors = cp.tensor_count();
    let mapped = cp.is_mapped();
    drop(cp);

    let exe = mvgnn_bench::or_die(std::env::current_exe());
    let cold = run_children(&exe, &ckpt, &shard, reps);
    eprintln!(
        "[coldstart] load {}us + classify {}us = {}us (min of {reps})",
        cold.load_us, cold.classify_us, cold.total_us
    );

    if smoke {
        println!("coldstart smoke OK ({}us exec->first classification)", cold.total_us);
        std::fs::remove_dir_all(&dir).ok();
        return;
    }

    let json = format!(
        "{{\n  \"artifact\": {{\"bytes\": {artifact_bytes}, \"tensors\": {tensors}, \
         \"mapped\": {mapped}}},\n  \
         \"reps\": {reps},\n  \
         \"cold_start\": {{\"load_us\": {}, \"first_classify_us\": {}, \"exec_to_first_us\": {}, \"wall_us\": {}}},\n  \
         \"parity\": \"to_bits-identical\"\n}}\n",
        cold.load_us, cold.classify_us, cold.total_us, cold.wall_us,
    );
    mvgnn_bench::or_die(std::fs::write("BENCH_coldstart.json", json));
    eprintln!("[coldstart] wrote BENCH_coldstart.json");
    std::fs::remove_dir_all(&dir).ok();
}
