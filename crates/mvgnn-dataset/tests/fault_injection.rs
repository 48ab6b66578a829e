//! Fault injection for the MVSH reader: every corruption mode — bad
//! magic, bad version, truncation at any frame boundary, a flipped
//! payload byte, a lying record count — must surface as a typed
//! [`ShardError`] from [`ShardReader`], never as a panic, and
//! [`verify_shard`] must give the same outcome, since it runs the
//! reader's frame-and-checksum walk without decoding.

use mvgnn_dataset::{
    fit_inst2vec, verify_shard, write_shard, CorpusConfig, LabeledSample, ShardError, ShardReader,
    Suite,
};
use mvgnn_embed::Inst2VecConfig;
use mvgnn_ir::transform::OptLevel;
use std::path::{Path, PathBuf};

fn tiny_cfg() -> CorpusConfig {
    CorpusConfig {
        seeds: vec![7],
        opt_levels: vec![OptLevel::O0],
        per_class: None,
        test_fraction: 0.25,
        suite: Some(Suite::PolyBench),
        inst2vec: Inst2VecConfig { dim: 8, epochs: 1, negatives: 2, lr: 0.05, seed: 3 },
        sample: Default::default(),
        seed: 11,
        label_noise: 0.0,
        static_features: false,
    }
}

/// Write one intact shard into a fresh temp dir and return its path.
fn intact_shard(tag: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("mvgnn_fault_injection_{tag}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = tiny_cfg();
    let emb = fit_inst2vec(&cfg);
    let (path, n) = write_shard(&dir, &cfg, &emb, 0, 1).unwrap();
    assert!(n > 0, "fixture shard must not be empty");
    (dir, path)
}

/// Drain a reader to its terminal outcome.
fn read_outcome(path: &Path) -> Result<Vec<LabeledSample>, ShardError> {
    ShardReader::open(path)?.collect()
}

/// Coarse equivalence class of a shard error.
fn error_class(e: &ShardError) -> String {
    match e {
        ShardError::Io(_) => "io".into(),
        ShardError::BadMagic => "magic".into(),
        ShardError::BadVersion(v) => format!("version:{v}"),
        ShardError::Truncated => "truncated".into(),
        ShardError::Checksum { record } => format!("checksum:{record}"),
        ShardError::Malformed(_) => "malformed".into(),
        ShardError::CountMismatch { expected, got } => format!("count:{expected}:{got}"),
        ShardError::Embedding(_) => "embedding".into(),
    }
}

/// Class of the reader's outcome: `ok:<records>` or the error class.
fn reader_class(path: &Path) -> String {
    match read_outcome(path) {
        Ok(v) => format!("ok:{}", v.len()),
        Err(e) => error_class(&e),
    }
}

/// Class of `verify_shard`'s outcome, in the reader's terms.
fn verify_class(path: &Path) -> String {
    match verify_shard(path) {
        Ok((_, n)) => format!("ok:{n}"),
        Err(e) => error_class(&e),
    }
}

/// The outcome class of every corruption case, as recorded before the
/// reader and `verify_shard` shared one framing step. A short file
/// without the magic is `magic`, not `truncated`: it is not a shard at
/// all. The fixture shard holds 47 records.
const CLASS_TABLE: &[(&str, &str)] = &[
    ("cut0", "truncated"),
    ("cut3", "truncated"),
    ("cut7", "truncated"),
    ("cut16", "truncated"),
    ("cut31", "truncated"),
    ("cut32", "count:47:0"),
    ("cut35", "truncated"),
    ("cut40", "truncated"),
    ("cut44", "truncated"),
    ("cut60", "truncated"),
    ("cut_last", "truncated"),
    ("magic", "magic"),
    ("version", "version:42"),
    ("flip", "checksum:0"),
    ("under", "count:46:47"),
    ("over", "count:48:47"),
    ("huge", "malformed"),
    ("empty", "truncated"),
    ("junk", "magic"),
    ("missing", "io"),
    ("intact", "ok:47"),
];

/// Build every corruption case of the table from one intact shard.
/// `None` bytes mean "do not create the file".
fn corruption_cases(bytes: &[u8]) -> Vec<(&'static str, Option<Vec<u8>>)> {
    let declared = u64::from_le_bytes(bytes[24..32].try_into().unwrap());
    let patched = |f: &dyn Fn(&mut Vec<u8>)| {
        let mut b = bytes.to_vec();
        f(&mut b);
        Some(b)
    };
    // Every prefix would be O(n²) over a multi-megabyte shard; cut at
    // the structurally interesting points instead: inside the header,
    // at the header edge, inside the first frame, inside the first
    // payload, and one byte short of the end.
    let cut = |n: usize| Some(bytes[..n].to_vec());
    vec![
        ("cut0", cut(0)),
        ("cut3", cut(3)),
        ("cut7", cut(7)),
        ("cut16", cut(16)),
        ("cut31", cut(31)),
        ("cut32", cut(32)),
        ("cut35", cut(35)),
        ("cut40", cut(40)),
        ("cut44", cut(44)),
        ("cut60", cut(60)),
        ("cut_last", cut(bytes.len() - 1)),
        ("magic", patched(&|b| b[0] = b'X')),
        ("version", patched(&|b| b[4] = 0x2a)),
        // First record's payload starts at header (32) + frame (12).
        ("flip", patched(&|b| b[44] ^= 0xff)),
        // Understated count: the reader must notice trailing records.
        ("under", patched(&|b| b[24..32].copy_from_slice(&(declared - 1).to_le_bytes()))),
        // Overstated count: the reader must notice the early end.
        ("over", patched(&|b| b[24..32].copy_from_slice(&(declared + 1).to_le_bytes()))),
        // First record's length field is at offset 32; declare 4 GiB-ish
        // so the reader must refuse before allocating.
        ("huge", patched(&|b| b[32..36].copy_from_slice(&u32::MAX.to_le_bytes()))),
        ("empty", Some(Vec::new())),
        ("junk", Some(b"not a shard at all".to_vec())),
        ("missing", None),
        ("intact", Some(bytes.to_vec())),
    ]
}

#[test]
fn reader_and_verify_match_the_recorded_class_table() {
    let (dir, path) = intact_shard("table");
    let bytes = std::fs::read(&path).unwrap();
    let cases = corruption_cases(&bytes);
    assert_eq!(cases.len(), CLASS_TABLE.len());
    for ((name, contents), &(want_name, want)) in cases.into_iter().zip(CLASS_TABLE) {
        assert_eq!(name, want_name);
        let p = dir.join(format!("{name}.mvsh"));
        if let Some(b) = contents {
            std::fs::write(&p, b).unwrap();
        }
        assert_eq!(reader_class(&p), want, "reader, case {name}");
        assert_eq!(verify_class(&p), want, "verify_shard, case {name}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn intact_shard_reads_and_verifies() {
    let (dir, path) = intact_shard("intact");
    let samples = read_outcome(&path).unwrap();
    let (meta, n) = verify_shard(&path).unwrap();
    assert_eq!(n as usize, samples.len());
    let reader = ShardReader::open(&path).unwrap();
    assert_eq!(meta, reader.meta());
    assert_eq!(n, reader.declared_records());
    std::fs::remove_dir_all(&dir).ok();
}
