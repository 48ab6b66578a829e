//! Model checkpoints: the one on-disk weight format (MVCK, version 3).
//!
//! A checkpoint holds the weights plus the state needed to resume
//! training (epoch counter, current learning rate, rollback retries,
//! telemetry so far) and the cascade's calibration. The layout:
//!
//! ```text
//! magic "MVCK" | version u32 = 3 | feature flags u32 |
//! total file len u64 | meta len u32 |
//! meta block:
//!   epoch u64 | lr f32 | retries u32 | calibration flag u8 [f32] |
//!   stats count u32 | (epoch u64, loss f32, accuracy f32)* |
//!   tensor count u32 |
//!   per tensor: name len u32 | name | rows u32 | cols u32 |
//!               data offset u64 | data bytes u64 |
//!   tensor-region FNV-1a u64
//! zero padding to the first 64-byte boundary |
//! tensor data: each tensor's raw little-endian f32s at its declared
//!              offset, every offset 64-byte aligned
//! ```
//!
//! The feature-flag word makes compatibility explicit: a reader that
//! sees a flag bit it does not know refuses the file with a typed error
//! instead of guessing, in the style of `sui-protocol-config`.
//!
//! Writes are atomic and durable: the file is written to a sibling
//! `*.tmp` path, synced to disk, and renamed over the target, and on Unix
//! the directory is synced after the rename. So neither a process crash
//! nor a power loss mid-write leaves a half-written checkpoint behind:
//! the target holds the old file or the whole new one.
//! [`read_checkpoint`] reads the whole file into memory and validates it
//! before any tensor byte is interpreted: `total file len` makes
//! truncation detectable from the fixed-size prefix in O(1), the tensor
//! directory must describe exactly the layout the writer produces (so no
//! offset can point at another tensor's bytes), and the tensor region
//! must match its checksum. Only then are the names and shapes checked
//! against the store and each tensor copied in, so a refused load leaves
//! the store untouched, and a loaded store owns its values: rewriting or
//! truncating the file later changes nothing. Every failure is a typed
//! [`MvGnnError::Checkpoint`] (or `Io` when the file cannot be read) —
//! corrupt files degrade to an error, never a panic. The 64-byte tensor
//! alignment dates from when weights were mapped; the writer keeps it so
//! that the format stays frozen byte for byte.
//!
//! Files of the retired versions 1 and 2 are refused with an error that
//! names the version.

use crate::error::MvGnnError;
use crate::trainer::EpochStats;
use bytes::{Buf, BufMut, BytesMut};
use mvgnn_tensor::{ParamId, Params};
use std::io::Write;
use std::path::Path;

const MAGIC: &[u8; 4] = b"MVCK";
/// The on-disk version this build writes and reads.
const VERSION: u32 = 3;
/// Tensor data offsets are multiples of 64 bytes (a cache line).
const TENSOR_ALIGN: usize = 64;
/// Feature flag: the tensor section is 64-byte aligned. Set on every
/// file this writer produces, and required by the reader.
const FLAG_ALIGNED_TENSORS: u32 = 1 << 0;
/// Every flag bit this reader understands; any other bit set in a file
/// means a newer writer, and the file is refused with a typed error.
const KNOWN_FLAGS: u32 = FLAG_ALIGNED_TENSORS;
/// Fixed-size prefix: magic(4) + version(4) + flags(4) + total len(8) +
/// meta len(4).
const PREFIX: usize = 24;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The resume state stored alongside the weights in the meta block.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CheckpointMeta {
    /// Last completed epoch (0-based).
    pub epoch: usize,
    /// Learning rate in effect (after any divergence backoff).
    pub lr: f32,
    /// Rollback retries consumed so far.
    pub retries: usize,
    /// Temperature-scaling calibration of the fused head (see
    /// `crate::cascade::Calibration`), stored with the weights it was
    /// fit for; `None` for uncalibrated models.
    pub calibration: Option<f32>,
    /// Telemetry of all completed epochs.
    pub stats: Vec<EpochStats>,
}

fn ck(msg: impl Into<String>) -> MvGnnError {
    MvGnnError::Checkpoint(msg.into())
}

fn align_up(n: usize) -> usize {
    n.div_ceil(TENSOR_ALIGN) * TENSOR_ALIGN
}

/// Atomically and durably write a checkpoint: meta block up front, every
/// tensor's raw f32 data at a 64-byte-aligned offset, and an FNV-1a
/// checksum over the whole tensor region. [`read_checkpoint`] reads the
/// file back.
pub fn write_checkpoint(
    path: &Path,
    meta: &CheckpointMeta,
    params: &Params,
) -> Result<(), MvGnnError> {
    if !meta.lr.is_finite() || meta.lr <= 0.0 {
        return Err(ck(format!("non-positive or non-finite lr {}", meta.lr)));
    }
    // Meta block first (its length fixes where the tensor region starts).
    let mut mb = BytesMut::new();
    mb.put_u64_le(meta.epoch as u64);
    mb.put_f32_le(meta.lr);
    mb.put_u32_le(meta.retries as u32);
    match meta.calibration {
        Some(t) => {
            mb.put_u8(1);
            mb.put_f32_le(t);
        }
        None => mb.put_u8(0),
    }
    mb.put_u32_le(meta.stats.len() as u32);
    for s in &meta.stats {
        mb.put_u64_le(s.epoch as u64);
        mb.put_f32_le(s.loss);
        mb.put_f32_le(s.accuracy);
    }
    mb.put_u32_le(params.len() as u32);
    // Tensor directory: offsets are assigned walking the aligned region
    // that starts after prefix + meta + checksum, rounded up.
    let dir_fixed: usize =
        (0..params.len()).map(|i| 4 + params.name(ParamId(i)).len() + 4 + 4 + 8 + 8).sum();
    let meta_len = mb.len() + dir_fixed + 8;
    let region_start = align_up(PREFIX + meta_len);
    let mut offset = region_start;
    let mut offsets = Vec::with_capacity(params.len());
    for i in 0..params.len() {
        let bytes = params.data(ParamId(i)).len() * 4;
        offsets.push((offset, bytes));
        offset = align_up(offset + bytes);
    }
    // Total length: the file ends where the last tensor's data ends (no
    // trailing pad), or at the region start for an empty store.
    let total_len = offsets.last().map_or(region_start, |&(o, b)| o + b);
    for (i, &(off, bytes)) in offsets.iter().enumerate() {
        let id = ParamId(i);
        let name = params.name(id);
        let (rows, cols) = params.shape(id);
        mb.put_u32_le(name.len() as u32);
        mb.put_slice(name.as_bytes());
        mb.put_u32_le(rows as u32);
        mb.put_u32_le(cols as u32);
        mb.put_u64_le(off as u64);
        mb.put_u64_le(bytes as u64);
    }
    // Tensor region: zero padding between blobs, data at the declared
    // offsets, checksummed as one run.
    let mut region = BytesMut::with_capacity(total_len - region_start);
    for (i, &(off, _)) in offsets.iter().enumerate() {
        while region_start + region.len() < off {
            region.put_u8(0);
        }
        for &x in params.data(ParamId(i)) {
            region.put_f32_le(x);
        }
    }
    mb.put_u64_le(fnv1a(&region));
    debug_assert_eq!(mb.len(), meta_len);

    let mut buf = BytesMut::with_capacity(total_len);
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u32_le(FLAG_ALIGNED_TENSORS);
    buf.put_u64_le(total_len as u64);
    buf.put_u32_le(meta_len as u32);
    buf.put_slice(&mb);
    buf.put_slice(&[0u8; TENSOR_ALIGN][..region_start - buf.len()]);
    buf.put_slice(&region);
    debug_assert_eq!(buf.len(), total_len);

    // The temp file's bytes reach the disk before the rename publishes
    // them, and the directory entry after it.
    let tmp = path.with_extension("tmp");
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(&buf)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    #[cfg(unix)]
    {
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty()).unwrap_or(Path::new("."));
        std::fs::File::open(dir)?.sync_all()?;
    }
    Ok(())
}

#[derive(Debug, Clone)]
struct TensorEntry {
    name: String,
    rows: usize,
    cols: usize,
    offset: usize,
    bytes: usize,
}

/// Validate a whole checkpoint file held in `bytes` and return its meta
/// block and tensor directory.
///
/// Validation is cheapest-first: the fixed-size prefix (magic, version,
/// unknown feature flags, declared total length vs. the real length —
/// all O(1)), then the meta block (bounds-checked parse), then every
/// tensor's offset against the writer's canonical layout, and only then
/// the tensor-region checksum (one sequential pass, still copy-free).
fn decode(bytes: &[u8]) -> Result<(CheckpointMeta, Vec<TensorEntry>), MvGnnError> {
    if bytes.len() < 8 {
        return Err(ck(format!("truncated before header ({} bytes)", bytes.len())));
    }
    let mut head = bytes;
    let mut magic = [0u8; 4];
    head.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(ck("bad magic (not a MVCK file)"));
    }
    let version = head.get_u32_le();
    if version != VERSION {
        return Err(ck(format!(
            "unsupported version {version} (this build reads version {VERSION})"
        )));
    }
    if bytes.len() < PREFIX {
        return Err(ck(format!("truncated before header ({} bytes)", bytes.len())));
    }
    let flags = head.get_u32_le();
    let unknown = flags & !KNOWN_FLAGS;
    if unknown != 0 {
        return Err(ck(format!(
            "unknown feature flags {unknown:#010b}: file written by a newer \
             version; refusing to guess at its layout"
        )));
    }
    if flags & FLAG_ALIGNED_TENSORS == 0 {
        return Err(ck("tensor section not flagged aligned (not a layout this build writes)"));
    }
    let total_len = head.get_u64_le();
    if total_len != bytes.len() as u64 {
        return Err(ck(format!(
            "file is {} bytes but header declares {total_len} (truncated or grown)",
            bytes.len()
        )));
    }
    let meta_len = head.get_u32_le() as usize;
    let meta_end = PREFIX
        .checked_add(meta_len)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| ck(format!("meta block ({meta_len} bytes) exceeds the file")))?;

    let mut mb = &bytes[PREFIX..meta_end];
    let need = |mb: &&[u8], n: usize, what: &str| -> Result<(), MvGnnError> {
        if mb.remaining() < n {
            Err(ck(format!("meta block truncated before {what}")))
        } else {
            Ok(())
        }
    };
    need(&mb, 16, "epoch/lr/retries")?;
    let epoch = mb.get_u64_le() as usize;
    let lr = mb.get_f32_le();
    if !lr.is_finite() || lr <= 0.0 {
        return Err(ck(format!("non-positive or non-finite lr {lr}")));
    }
    let retries = mb.get_u32_le() as usize;
    need(&mb, 1, "calibration flag")?;
    let calibration = match mb.get_u8() {
        0 => None,
        1 => {
            need(&mb, 4, "calibration temperature")?;
            let t = mb.get_f32_le();
            if !t.is_finite() || t <= 0.0 {
                return Err(ck(format!("non-positive or non-finite calibration temperature {t}")));
            }
            Some(t)
        }
        other => return Err(ck(format!("bad calibration flag {other} (want 0 or 1)"))),
    };
    need(&mb, 4, "stats count")?;
    let n_stats = mb.get_u32_le() as usize;
    need(&mb, n_stats.saturating_mul(16), "epoch stats")?;
    let mut stats = Vec::with_capacity(n_stats.min(4096));
    for _ in 0..n_stats {
        let epoch = mb.get_u64_le() as usize;
        let loss = mb.get_f32_le();
        let accuracy = mb.get_f32_le();
        stats.push(EpochStats { epoch, loss, accuracy });
    }
    need(&mb, 4, "tensor count")?;
    let n_tensors = mb.get_u32_le() as usize;
    let mut tensors = Vec::with_capacity(n_tensors.min(4096));
    // The canonical layout: the first tensor starts at the aligned end
    // of the meta block, each later one at the aligned end of the one
    // before, and the file ends where the last one ends. The meta block
    // is not checksummed, so any other offset is refused.
    let region_start = align_up(meta_end);
    let mut end = region_start;
    for i in 0..n_tensors {
        need(&mb, 4, "tensor name length")?;
        let name_len = mb.get_u32_le() as usize;
        need(&mb, name_len.saturating_add(24), "tensor directory entry")?;
        let mut name = vec![0u8; name_len];
        mb.copy_to_slice(&mut name);
        let name =
            String::from_utf8(name).map_err(|_| ck(format!("tensor {i}: non-utf8 name")))?;
        let rows = mb.get_u32_le() as usize;
        let cols = mb.get_u32_le() as usize;
        let offset = mb.get_u64_le();
        let tbytes = mb.get_u64_le();
        let want = rows
            .checked_mul(cols)
            .and_then(|e| e.checked_mul(4))
            .ok_or_else(|| ck(format!("tensor `{name}`: shape {rows}×{cols} overflows")))?;
        if tbytes != want as u64 {
            return Err(ck(format!(
                "tensor `{name}`: {rows}×{cols} needs {want} bytes, directory says {tbytes}"
            )));
        }
        let expected = align_up(end);
        if offset != expected as u64 {
            return Err(ck(format!(
                "tensor `{name}`: data offset {offset}, want {expected} (each tensor starts \
                 at the next {TENSOR_ALIGN}-byte aligned byte after the one before)"
            )));
        }
        end = expected
            .checked_add(want)
            .filter(|&e| e <= bytes.len())
            .ok_or_else(|| {
                ck(format!(
                    "tensor `{name}`: data [{expected}, {expected}+{want}) exceeds the \
                     {}-byte file",
                    bytes.len()
                ))
            })?;
        tensors.push(TensorEntry { name, rows, cols, offset: expected, bytes: want });
    }
    need(&mb, 8, "tensor-region checksum")?;
    let checksum = mb.get_u64_le();
    if mb.remaining() != 0 {
        return Err(ck(format!("{} undeclared bytes at the end of the meta block", mb.len())));
    }
    if end != bytes.len() {
        return Err(ck(format!(
            "tensor data ends at byte {end} but the file is {} bytes",
            bytes.len()
        )));
    }
    if fnv1a(&bytes[region_start..]) != checksum {
        return Err(ck("tensor-region checksum mismatch"));
    }
    Ok((CheckpointMeta { epoch, lr, retries, calibration, stats }, tensors))
}

/// Read a checkpoint into `params` and return its resume state.
///
/// `params` must have the file's layout: the same tensor names, order
/// and shapes, i.e. the same model architecture (the architecture
/// config is not stored). The file is read whole and validated, every
/// name and shape is checked against the store, and only then is each
/// tensor copied in, so a refused load leaves `params` untouched.
pub fn read_checkpoint(path: &Path, params: &mut Params) -> Result<CheckpointMeta, MvGnnError> {
    let bytes = std::fs::read(path)?;
    let (meta, tensors) = decode(&bytes)?;
    if tensors.len() != params.len() {
        return Err(ck(format!(
            "file has {} tensors, store has {}",
            tensors.len(),
            params.len()
        )));
    }
    for (i, t) in tensors.iter().enumerate() {
        let id = ParamId(i);
        if t.name != params.name(id) {
            return Err(ck(format!("tensor {i}: file `{}` vs store `{}`", t.name, params.name(id))));
        }
        if (t.rows, t.cols) != params.shape(id) {
            return Err(ck(format!(
                "tensor `{}`: file {}×{} vs store {:?}",
                t.name,
                t.rows,
                t.cols,
                params.shape(id)
            )));
        }
    }
    for ((_, dst), t) in params.iter_mut().zip(&tensors) {
        let (words, _) = bytes[t.offset..t.offset + t.bytes].as_chunks::<4>();
        for (x, w) in dst.iter_mut().zip(words) {
            *x = f32::from_le_bytes(*w);
        }
    }
    Ok(meta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{MvGnn, MvGnnConfig};

    fn sample_params() -> Params {
        let mut p = Params::new();
        let mut seed = 0x9e37u32;
        for (name, rows, cols) in
            [("node.gc0.w", 7, 5), ("node.gc0.b", 1, 5), ("fusion.w", 10, 3), ("head.b", 1, 3)]
        {
            let init: Vec<f32> = (0..rows * cols)
                .map(|_| {
                    seed = seed.wrapping_mul(1664525).wrapping_add(1013904223);
                    (seed as f32 / u32::MAX as f32) - 0.5
                })
                .collect();
            p.add(name, rows, cols, init);
        }
        p
    }

    fn sample_meta() -> CheckpointMeta {
        CheckpointMeta {
            epoch: 3,
            lr: 1e-3,
            retries: 1,
            calibration: Some(1.4),
            stats: vec![EpochStats { epoch: 3, loss: 0.5, accuracy: 0.75 }],
        }
    }

    fn test_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mvgnn_ckpt_{tag}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The file bytes `write_checkpoint` produces for `params`.
    fn written(tag: &str, meta: &CheckpointMeta, params: &Params) -> Vec<u8> {
        let dir = test_dir(tag);
        let path = dir.join("model.mvck");
        write_checkpoint(&path, meta, params).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        bytes
    }

    fn bits(p: &Params) -> Vec<Vec<u32>> {
        (0..p.len()).map(|i| p.data(ParamId(i)).iter().map(|x| x.to_bits()).collect()).collect()
    }

    #[test]
    fn writer_output_matches_the_recorded_bytes() {
        // FNV-1a of the files the previous writer produced for the same
        // inputs: the format is frozen byte for byte.
        let small = written("pin_sample", &sample_meta(), &sample_params());
        assert_eq!((fnv1a(&small), small.len()), (0xbb0a_9133_df48_00fd, 652));
        let model = MvGnn::new(MvGnnConfig::small(24, 10));
        let model_bytes = written("pin_model", &sample_meta(), &model.params);
        assert_eq!((fnv1a(&model_bytes), model_bytes.len()), (0xf897_741f_2c21_f6de, 288_456));
    }

    #[test]
    fn read_roundtrip_is_bit_identical() {
        let dir = test_dir("roundtrip");
        let path = dir.join("model.mvck");
        let src = sample_params();
        write_checkpoint(&path, &sample_meta(), &src).unwrap();
        // The temporary staging file must not survive the rename.
        assert!(!path.with_extension("tmp").exists());
        let mut dst = sample_params();
        for (_, d) in dst.iter_mut() {
            d.fill(-77.0);
        }
        assert_eq!(read_checkpoint(&path, &mut dst).unwrap(), sample_meta());
        assert_eq!(bits(&dst), bits(&src));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_layout_mismatch_leaves_the_store_untouched() {
        let dir = test_dir("layout");
        let path = dir.join("model.mvck");
        write_checkpoint(&path, &sample_meta(), &sample_params()).unwrap();
        // Stores that differ from the file in or after its last tensor,
        // so a reader that checked as it went would already have copied
        // every earlier one.
        let with_last = |name: &str, rows: usize, cols: usize| {
            let src = sample_params();
            let mut p = Params::new();
            for i in 0..src.len() - 1 {
                let id = ParamId(i);
                let (r, c) = src.shape(id);
                p.add(src.name(id), r, c, src.data(id).to_vec());
            }
            p.add(name, rows, cols, vec![0.0; rows * cols]);
            p
        };
        let mut longer = sample_params();
        longer.add("extra.b", 1, 2, vec![0.5, -0.5]);
        for (what, mut store, needle) in [
            ("count", longer, "file has 4 tensors, store has 5"),
            ("shape", with_last("head.b", 3, 1), "file 1×3"),
            ("name", with_last("head.w", 1, 3), "store `head.w`"),
        ] {
            for (_, d) in store.iter_mut() {
                d.fill(-77.0);
            }
            let before = bits(&store);
            let err = read_checkpoint(&path, &mut store).unwrap_err();
            assert!(matches!(err, MvGnnError::Checkpoint(_)), "{what}: {err}");
            assert!(err.to_string().contains(needle), "{what}: {err}");
            assert_eq!(bits(&store), before, "{what}: a refused load touches nothing");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn uncalibrated_roundtrip_keeps_none() {
        let meta = CheckpointMeta { calibration: None, ..sample_meta() };
        let (decoded, _) = decode(&written("uncalibrated", &meta, &sample_params())).unwrap();
        assert_eq!(decoded, meta);
    }

    #[test]
    fn tensor_offsets_are_aligned() {
        let bytes = written("aligned", &sample_meta(), &sample_params());
        let (_, tensors) = decode(&bytes).unwrap();
        let offsets: Vec<usize> = tensors.iter().map(|t| t.offset).collect();
        assert_eq!(offsets, [256, 448, 512, 640]);
        for t in &tensors {
            assert_eq!(t.offset % TENSOR_ALIGN, 0, "tensor `{}` misaligned", t.name);
            assert!(t.offset + t.bytes <= bytes.len());
        }
    }

    #[test]
    fn every_truncation_point_is_rejected_gracefully() {
        let full = written("truncate", &sample_meta(), &sample_params());
        for cut in 0..full.len() {
            let err = decode(&full[..cut]).unwrap_err();
            assert!(matches!(err, MvGnnError::Checkpoint(_)), "cut at {cut}: {err}");
        }
    }

    #[test]
    fn bit_flips_in_tensor_data_fail_the_checksum() {
        let mut bytes = written("flips", &sample_meta(), &sample_params());
        for victim in [256, 256 + 17, bytes.len() - 1] {
            let mut corrupted = bytes.clone();
            corrupted[victim] ^= 0x40;
            let err = decode(&corrupted).unwrap_err();
            assert!(err.to_string().contains("checksum"), "{err}");
        }
        // Corrupting the magic is caught before the checksum.
        bytes[0] = b'X';
        assert!(decode(&bytes).unwrap_err().to_string().contains("magic"));
    }

    #[test]
    fn damaged_calibration_is_a_typed_error() {
        let full = written("calibration", &sample_meta(), &sample_params());
        // The calibration flag byte sits right after the prefix (24) +
        // epoch(8) + lr(4) + retries(4).
        let flag_at = PREFIX + 16;
        let mut bad_flag = full.clone();
        bad_flag[flag_at] = 7;
        let err = decode(&bad_flag).unwrap_err();
        assert!(err.to_string().contains("calibration flag"), "{err}");
        // A NaN temperature is refused before the tensors are touched.
        let mut bad_temp = full;
        bad_temp[flag_at + 1..flag_at + 5].copy_from_slice(&f32::NAN.to_le_bytes());
        let err = decode(&bad_temp).unwrap_err();
        assert!(err.to_string().contains("calibration temperature"), "{err}");
    }

    #[test]
    fn version_1_and_2_files_are_refused_by_version() {
        // Hand-built headers of the retired eager layouts: magic,
        // version, epoch, lr, retries, then (v2) the calibration flag.
        for version in [1u32, 2] {
            let mut buf = BytesMut::new();
            buf.put_slice(MAGIC);
            buf.put_u32_le(version);
            buf.put_u64_le(7);
            buf.put_f32_le(5e-4);
            buf.put_u32_le(1);
            if version == 2 {
                buf.put_u8(0);
            }
            buf.put_u32_le(0);
            buf.put_u64_le(0);
            buf.put_u64_le(fnv1a(&[]));
            let err = decode(&buf).unwrap_err();
            assert!(matches!(err, MvGnnError::Checkpoint(_)), "{err}");
            assert!(err.to_string().contains(&format!("version {version}")), "{err}");
        }
        let mut future = written("version", &sample_meta(), &sample_params());
        future[4] = 99;
        assert!(decode(&future).unwrap_err().to_string().contains("version 99"));
    }

    #[test]
    fn bad_magic_file_is_rejected_from_the_prefix() {
        let dir = test_dir("badmagic");
        let path = dir.join("not_a_ckpt.bin");
        std::fs::write(&path, b"ELF!\x01\x00\x00\x00 definitely not weights").unwrap();
        let err = read_checkpoint(&path, &mut sample_params()).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
        std::fs::write(&path, b"MV").unwrap();
        let err = read_checkpoint(&path, &mut sample_params()).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_feature_flag_is_refused() {
        let mut bytes = written("flags", &sample_meta(), &sample_params());
        bytes[8] |= 1 << 5; // a flag bit this reader does not know
        let err = decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("unknown feature flags"), "{err}");
    }

    /// Byte position of the directory's offset field holding `want`
    /// (the directory precedes the tensor data, so the first match).
    fn offset_field(bytes: &[u8], want: u64) -> usize {
        bytes.windows(8).position(|w| w == want.to_le_bytes()).expect("offset present")
    }

    #[test]
    fn moved_tensor_offsets_are_refused() {
        let full = written("moved", &sample_meta(), &sample_params());
        // Offsets are 256, 448, 512 and 640. Point the second entry at
        // the third tensor's bytes: aligned, in bounds, and still inside
        // the checksummed region, so only the canonical layout catches it.
        let mut moved = full.clone();
        let at = offset_field(&full, 448);
        moved[at..at + 8].copy_from_slice(&512u64.to_le_bytes());
        let err = decode(&moved).unwrap_err();
        assert!(matches!(err, MvGnnError::Checkpoint(_)), "{err}");
        assert!(err.to_string().contains("offset 512, want 448"), "{err}");
        // A misaligned first offset is refused the same way.
        let mut misaligned = full.clone();
        let at = offset_field(&full, 256);
        misaligned[at..at + 8].copy_from_slice(&260u64.to_le_bytes());
        assert!(decode(&misaligned).unwrap_err().to_string().contains("aligned"));
        // Trailing bytes past the last tensor are refused even when the
        // declared total length is patched to match.
        let mut grown = full;
        grown.extend_from_slice(&[0; 64]);
        let len = grown.len() as u64;
        grown[12..20].copy_from_slice(&len.to_le_bytes());
        assert!(decode(&grown).unwrap_err().to_string().contains("tensor data ends"));
    }

    #[test]
    fn truncation_and_checksum_flip_are_typed_errors() {
        let dir = test_dir("faults");
        let path = dir.join("model.mvck");
        write_checkpoint(&path, &sample_meta(), &sample_params()).unwrap();
        let full = std::fs::read(&path).unwrap();
        let mut dst = sample_params();
        for (_, d) in dst.iter_mut() {
            d.fill(-77.0);
        }
        let before = bits(&dst);
        // Truncated files on disk, including mid-tensor cuts.
        for cut in [0, 3, PREFIX - 1, PREFIX + 9, full.len() / 2, full.len() - 1] {
            std::fs::write(&path, &full[..cut]).unwrap();
            let err = read_checkpoint(&path, &mut dst).unwrap_err();
            assert!(matches!(err, MvGnnError::Checkpoint(_)), "cut {cut}: {err}");
        }
        // A checksum flip deep in the tensor region.
        let mut flipped = full.clone();
        let victim = full.len() - 5;
        flipped[victim] ^= 0x10;
        std::fs::write(&path, &flipped).unwrap();
        let err = read_checkpoint(&path, &mut dst).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        assert_eq!(bits(&dst), before, "a refused load touches nothing");
        std::fs::remove_dir_all(&dir).ok();
    }
}
