//! MVSH: the on-disk shard format for labeled corpus samples.
//!
//! A shard file is a fixed 32-byte header followed by length-prefixed,
//! checksummed records, one per [`LabeledSample`]:
//!
//! ```text
//! header:  "MVSH" | version u32 | corpus_seed u64 | shard_id u32
//!          | num_shards u32 | record_count u64
//! record:  payload_len u32 | fnv1a(payload) u64 | payload bytes
//! ```
//!
//! All integers are little-endian. Records can be framed and checked by
//! length and checksum without decoding, so a reader never has to
//! materialise a shard: [`ShardReader`] streams one record at a time
//! through a single reused buffer, keeping RSS bounded by the largest
//! record, not the shard, and [`verify_shard`] runs the same framing
//! walk without decoding at all.
//!
//! [`ShardWriter`] follows the repo's atomic-artifact convention: it
//! writes to `<path>.tmp` with a zero record count, patches the count in
//! [`ShardWriter::finish`], and renames into place — a crash mid-write
//! never leaves a plausible-looking shard at the target path.
//!
//! Every corruption mode surfaces as a typed [`ShardError`]; decoding
//! never panics (pinned by `tests/fault_injection.rs`).

use crate::corpus::LabeledSample;
use crate::kernels::{KernelFamily, PatternKind};
use crate::suites::Suite;
use mvgnn_embed::GraphSample;
use mvgnn_ir::module::{FuncId, LoopId};
use mvgnn_ir::transform::OptLevel;
use mvgnn_tensor::{PersistError, SparseMatrix};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// File magic of a shard file.
pub const MAGIC: &[u8; 4] = b"MVSH";
/// Current format version. v2 added the kernel-family tag byte (after
/// the suite tag) and the `Stress` suite; v1 shards are refused rather
/// than silently mis-decoded.
pub const VERSION: u32 = 2;
/// Header length in bytes (magic, version, seed, shard id, shard count,
/// record count).
pub const HEADER_LEN: usize = 4 + 4 + 8 + 4 + 4 + 8;
/// Byte offset of the record-count field inside the header.
const COUNT_OFFSET: u64 = (HEADER_LEN - 8) as u64;

/// Hard cap on a single record's payload (and on any per-field element
/// count derived from it). A declared length past this is corruption,
/// not data — the decoder refuses before allocating.
pub const MAX_RECORD_LEN: u32 = 1 << 28;

/// Typed error for every way shard generation, writing or reading can
/// fail. Corrupt input is a value of this type, never a panic.
#[derive(Debug)]
pub enum ShardError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// The file does not start with the MVSH magic.
    BadMagic,
    /// The file declares a format version this build cannot read.
    BadVersion(u32),
    /// The file or a record ended before its declared length.
    Truncated,
    /// A record's payload does not hash to its stored checksum.
    Checksum {
        /// Zero-based index of the corrupt record.
        record: u64,
    },
    /// A record decoded structurally but its contents are inconsistent
    /// (bad enum tag, mismatched lengths, invalid CSR, oversized field).
    Malformed(String),
    /// The header's record count disagrees with the records present.
    CountMismatch {
        /// Count the header declares.
        expected: u64,
        /// Records actually found.
        got: u64,
    },
    /// The embedding artifact consumed alongside the shards is corrupt.
    Embedding(PersistError),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Io(e) => write!(f, "shard i/o: {e}"),
            ShardError::BadMagic => write!(f, "not an MVSH shard file"),
            ShardError::BadVersion(v) => write!(f, "unsupported MVSH version {v}"),
            ShardError::Truncated => write!(f, "truncated shard file"),
            ShardError::Checksum { record } => {
                write!(f, "checksum mismatch in record {record}")
            }
            ShardError::Malformed(m) => write!(f, "malformed record: {m}"),
            ShardError::CountMismatch { expected, got } => {
                write!(f, "header declares {expected} records, found {got}")
            }
            ShardError::Embedding(e) => write!(f, "embedding artifact: {e}"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<std::io::Error> for ShardError {
    fn from(e: std::io::Error) -> Self {
        ShardError::Io(e)
    }
}

/// Shard identity stored in the header: which slice of which corpus
/// this file holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMeta {
    /// Master corpus seed (`CorpusConfig::seed`).
    pub corpus_seed: u64,
    /// This shard's index in the plan.
    pub shard_id: u32,
    /// Total shards in the plan.
    pub num_shards: u32,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------
// Record payload encoding
// ---------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f32s(out: &mut Vec<u8>, v: &[f32]) {
    put_u32(out, v.len() as u32);
    for &x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

fn put_u32s(out: &mut Vec<u8>, v: &[u32]) {
    put_u32(out, v.len() as u32);
    for &x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

fn level_tag(level: OptLevel) -> u8 {
    match level {
        OptLevel::O0 => 0,
        OptLevel::O1 => 1,
        OptLevel::O2 => 2,
        OptLevel::O3 => 3,
        OptLevel::O4 => 4,
        OptLevel::O5 => 5,
    }
}

fn level_of(tag: u8) -> Result<OptLevel, ShardError> {
    Ok(match tag {
        0 => OptLevel::O0,
        1 => OptLevel::O1,
        2 => OptLevel::O2,
        3 => OptLevel::O3,
        4 => OptLevel::O4,
        5 => OptLevel::O5,
        t => return Err(ShardError::Malformed(format!("opt-level tag {t}"))),
    })
}

fn pattern_tag(p: PatternKind) -> u8 {
    match p {
        PatternKind::DoAll => 0,
        PatternKind::Reduction => 1,
        PatternKind::Serial => 2,
        PatternKind::Task => 3,
    }
}

fn pattern_of(tag: u8) -> Result<PatternKind, ShardError> {
    Ok(match tag {
        0 => PatternKind::DoAll,
        1 => PatternKind::Reduction,
        2 => PatternKind::Serial,
        3 => PatternKind::Task,
        t => return Err(ShardError::Malformed(format!("pattern tag {t}"))),
    })
}

fn suite_tag(s: Suite) -> u8 {
    match s {
        Suite::Npb => 0,
        Suite::PolyBench => 1,
        Suite::Bots => 2,
        Suite::Stress => 3,
    }
}

fn suite_of(tag: u8) -> Result<Suite, ShardError> {
    Ok(match tag {
        0 => Suite::Npb,
        1 => Suite::PolyBench,
        2 => Suite::Bots,
        3 => Suite::Stress,
        t => return Err(ShardError::Malformed(format!("suite tag {t}"))),
    })
}

fn family_tag(f: KernelFamily) -> u8 {
    match f {
        KernelFamily::Regular => 0,
        KernelFamily::Indirect => 1,
        KernelFamily::PointerChase => 2,
        KernelFamily::Triangular => 3,
        KernelFamily::LongDistance => 4,
    }
}

fn family_of(tag: u8) -> Result<KernelFamily, ShardError> {
    Ok(match tag {
        0 => KernelFamily::Regular,
        1 => KernelFamily::Indirect,
        2 => KernelFamily::PointerChase,
        3 => KernelFamily::Triangular,
        4 => KernelFamily::LongDistance,
        t => return Err(ShardError::Malformed(format!("family tag {t}"))),
    })
}

/// Serialise one sample into a record payload (framing and checksum are
/// the writer's job).
pub fn encode_record(s: &LabeledSample) -> Vec<u8> {
    let g = &s.sample;
    let mut out = Vec::with_capacity(
        64 + s.app.len()
            + 4 * (g.node_feats.len() + g.struct_dists.len() + g.token_ids.len()),
    );
    put_u64(&mut out, s.base_key);
    out.push(level_tag(s.level));
    out.push(s.label as u8);
    out.push(pattern_tag(s.pattern));
    out.push(suite_tag(s.suite));
    out.push(family_tag(s.family));
    put_u32(&mut out, s.app.len() as u32);
    out.extend_from_slice(s.app.as_bytes());

    put_u32(&mut out, g.n as u32);
    put_u32(&mut out, g.node_dim as u32);
    put_u32(&mut out, g.aw_vocab as u32);
    put_u32(&mut out, g.func.0);
    put_u32(&mut out, g.l.0);
    match g.label {
        Some(l) => {
            out.push(1);
            out.push(l as u8);
        }
        None => {
            out.push(0);
            out.push(0);
        }
    }
    put_f32s(&mut out, &g.node_feats);
    put_f32s(&mut out, &g.struct_dists);
    let tokens: Vec<u32> = g.token_ids.iter().map(|&t| t as u32).collect();
    put_u32s(&mut out, &tokens);

    let (row_ptr, col_idx, values) = g.adj.csr_parts();
    put_u32(&mut out, g.adj.rows() as u32);
    put_u32(&mut out, g.adj.cols() as u32);
    put_u32s(&mut out, row_ptr);
    put_u32s(&mut out, col_idx);
    put_f32s(&mut out, values);
    out
}

/// Bounds-checked payload cursor; running past the end is
/// [`ShardError::Truncated`], never a panic.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ShardError> {
        let end = self.pos.checked_add(n).ok_or(ShardError::Truncated)?;
        if end > self.buf.len() {
            return Err(ShardError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ShardError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ShardError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, ShardError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// A declared element count, capped so corrupt lengths fail before
    /// any allocation.
    fn len(&mut self, what: &str) -> Result<usize, ShardError> {
        let n = self.u32()?;
        if n > MAX_RECORD_LEN {
            return Err(ShardError::Malformed(format!("{what} length {n} exceeds cap")));
        }
        Ok(n as usize)
    }

    fn f32s(&mut self, what: &str) -> Result<Vec<f32>, ShardError> {
        let n = self.len(what)?;
        let raw = self.take(n * 4)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    fn u32s(&mut self, what: &str) -> Result<Vec<u32>, ShardError> {
        let n = self.len(what)?;
        let raw = self.take(n * 4)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }
}

/// Decode one record payload back into a sample, validating every
/// structural invariant the rest of the pipeline assumes.
pub fn decode_record(payload: &[u8]) -> Result<LabeledSample, ShardError> {
    let mut c = Cursor { buf: payload, pos: 0 };
    let base_key = c.u64()?;
    let level = level_of(c.u8()?)?;
    let label = c.u8()? as usize;
    if label > 1 {
        return Err(ShardError::Malformed(format!("label {label}")));
    }
    let pattern = pattern_of(c.u8()?)?;
    let suite = suite_of(c.u8()?)?;
    let family = family_of(c.u8()?)?;
    let app_len = c.len("app name")?;
    let app = std::str::from_utf8(c.take(app_len)?)
        .map_err(|_| ShardError::Malformed("app name is not UTF-8".into()))?
        .to_string();

    let n = c.len("node count")?;
    let node_dim = c.len("node dim")?;
    let aw_vocab = c.len("walk vocab")?;
    let func = FuncId(c.u32()?);
    let l = LoopId(c.u32()?);
    let has_label = c.u8()?;
    let raw_label = c.u8()? as usize;
    let sample_label = match has_label {
        0 => None,
        1 => Some(raw_label),
        t => return Err(ShardError::Malformed(format!("label tag {t}"))),
    };
    let node_feats = c.f32s("node features")?;
    let struct_dists = c.f32s("structural distributions")?;
    let token_ids: Vec<usize> =
        c.u32s("token ids")?.into_iter().map(|t| t as usize).collect();

    let rows = c.len("adjacency rows")?;
    let cols = c.len("adjacency cols")?;
    let row_ptr = c.u32s("row pointers")?;
    let col_idx = c.u32s("column indices")?;
    let values = c.f32s("adjacency values")?;
    let adj = SparseMatrix::from_csr_parts(rows, cols, row_ptr, col_idx, values)
        .ok_or_else(|| ShardError::Malformed("inconsistent CSR adjacency".into()))?;
    if c.pos != payload.len() {
        return Err(ShardError::Malformed(format!(
            "{} trailing payload bytes",
            payload.len() - c.pos
        )));
    }
    let sample = GraphSample {
        n,
        adj,
        node_feats,
        node_dim,
        struct_dists,
        aw_vocab,
        token_ids,
        func,
        l,
        label: sample_label,
    };
    sample.check_shape().map_err(ShardError::Malformed)?;

    Ok(LabeledSample {
        sample,
        label,
        pattern,
        suite,
        family,
        app,
        base_key,
        level,
    })
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Streaming shard writer. Records go to `<path>.tmp`; [`finish`]
/// patches the header's record count and renames into place.
///
/// [`finish`]: ShardWriter::finish
pub struct ShardWriter {
    // `None` only after `finish` has taken the file (the writer is
    // consumed there, so appends can never observe it).
    file: Option<std::io::BufWriter<std::fs::File>>,
    tmp: PathBuf,
    path: PathBuf,
    written: u64,
}

impl ShardWriter {
    /// Open a writer for a new shard at `path`.
    pub fn create(path: &Path, meta: ShardMeta) -> Result<ShardWriter, ShardError> {
        let tmp = path.with_extension("mvsh.tmp");
        let mut file = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
        file.write_all(MAGIC)?;
        file.write_all(&VERSION.to_le_bytes())?;
        file.write_all(&meta.corpus_seed.to_le_bytes())?;
        file.write_all(&meta.shard_id.to_le_bytes())?;
        file.write_all(&meta.num_shards.to_le_bytes())?;
        file.write_all(&0u64.to_le_bytes())?;
        Ok(ShardWriter { file: Some(file), tmp, path: path.to_path_buf(), written: 0 })
    }

    /// Append one sample as a framed, checksummed record.
    pub fn append(&mut self, s: &LabeledSample) -> Result<(), ShardError> {
        let Some(file) = self.file.as_mut() else {
            return Err(ShardError::Io(std::io::Error::other("shard writer already finished")));
        };
        let payload = encode_record(s);
        if payload.len() as u64 > MAX_RECORD_LEN as u64 {
            return Err(ShardError::Malformed(format!(
                "record payload {} exceeds cap",
                payload.len()
            )));
        }
        file.write_all(&(payload.len() as u32).to_le_bytes())?;
        file.write_all(&fnv1a(&payload).to_le_bytes())?;
        file.write_all(&payload)?;
        self.written += 1;
        Ok(())
    }

    /// Patch the record count, sync and rename the shard into place.
    /// Returns the number of records written.
    pub fn finish(mut self) -> Result<usize, ShardError> {
        let Some(buf) = self.file.take() else {
            return Err(ShardError::Io(std::io::Error::other("shard writer already finished")));
        };
        let mut file = buf.into_inner().map_err(|e| ShardError::Io(e.into_error()))?;
        file.seek(SeekFrom::Start(COUNT_OFFSET))?;
        file.write_all(&self.written.to_le_bytes())?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&self.tmp, &self.path)?;
        Ok(self.written as usize)
    }
}

impl Drop for ShardWriter {
    fn drop(&mut self) {
        // Abandoned writers leave no half-written artifact behind; the
        // rename in `finish` has already consumed the tmp file when the
        // write completed.
        let _ = std::fs::remove_file(&self.tmp);
    }
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

/// Streaming shard reader: an iterator of decoded samples that holds
/// one record in memory at a time (the payload buffer is reused across
/// records, so peak RSS is the largest record, not the shard).
pub struct ShardReader {
    file: std::io::BufReader<std::fs::File>,
    meta: ShardMeta,
    declared: u64,
    read: u64,
    buf: Vec<u8>,
    failed: bool,
}

/// Decode and validate the MVSH header from the first (up to 32) bytes
/// of a file.
fn parse_header(header: &[u8]) -> Result<(ShardMeta, u64), ShardError> {
    if header.len() < HEADER_LEN {
        // A short file that still carries the magic is truncated; one
        // that doesn't is simply not a shard.
        if header.len() >= 4 && &header[0..4] != MAGIC {
            return Err(ShardError::BadMagic);
        }
        return Err(ShardError::Truncated);
    }
    if &header[0..4] != MAGIC {
        return Err(ShardError::BadMagic);
    }
    let version = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    if version != VERSION {
        return Err(ShardError::BadVersion(version));
    }
    let u64_at = |o: usize| {
        let mut a = [0u8; 8];
        a.copy_from_slice(&header[o..o + 8]);
        u64::from_le_bytes(a)
    };
    let corpus_seed = u64_at(8);
    let shard_id = u32::from_le_bytes([header[16], header[17], header[18], header[19]]);
    let num_shards = u32::from_le_bytes([header[20], header[21], header[22], header[23]]);
    let declared = u64_at(24);
    Ok((ShardMeta { corpus_seed, shard_id, num_shards }, declared))
}

impl ShardReader {
    /// Open a shard and validate its header.
    pub fn open(path: &Path) -> Result<ShardReader, ShardError> {
        let mut file = std::io::BufReader::new(std::fs::File::open(path)?);
        let mut header = [0u8; HEADER_LEN];
        let got = read_up_to(&mut file, &mut header)?;
        let (meta, declared) = parse_header(&header[..got])?;
        Ok(ShardReader { file, meta, declared, read: 0, buf: Vec::new(), failed: false })
    }

    /// The shard identity from the header.
    pub fn meta(&self) -> ShardMeta {
        self.meta
    }

    /// Records the header declares.
    pub fn declared_records(&self) -> u64 {
        self.declared
    }

    /// Frame the next record and verify its checksum, without decoding
    /// it. Returns `None` at the clean end the header declares.
    fn next_payload(&mut self) -> Result<Option<&[u8]>, ShardError> {
        if self.read == self.declared {
            // Clean end: the file must stop exactly here.
            let mut probe = [0u8; 1];
            return match self.file.read(&mut probe)? {
                0 => Ok(None),
                _ => Err(ShardError::CountMismatch {
                    expected: self.declared,
                    got: self.declared + 1,
                }),
            };
        }
        let mut frame = [0u8; 12];
        let got = read_up_to(&mut self.file, &mut frame)?;
        if got == 0 {
            // Clean EOF before the declared count: the count is wrong.
            return Err(ShardError::CountMismatch { expected: self.declared, got: self.read });
        }
        if got < frame.len() {
            return Err(ShardError::Truncated);
        }
        let len = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]);
        if len > MAX_RECORD_LEN {
            return Err(ShardError::Malformed(format!("record length {len} exceeds cap")));
        }
        let sum = {
            let mut a = [0u8; 8];
            a.copy_from_slice(&frame[4..12]);
            u64::from_le_bytes(a)
        };
        self.buf.resize(len as usize, 0);
        read_fully(&mut self.file, &mut self.buf)?;
        if fnv1a(&self.buf) != sum {
            return Err(ShardError::Checksum { record: self.read });
        }
        self.read += 1;
        Ok(Some(&self.buf))
    }
}

impl Iterator for ShardReader {
    type Item = Result<LabeledSample, ShardError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        let record = match self.next_payload() {
            Ok(Some(payload)) => decode_record(payload),
            Ok(None) => return None,
            Err(e) => Err(e),
        };
        self.failed = record.is_err();
        Some(record)
    }
}

/// Cheaply verify a shard on disk: header sanity plus the reader's
/// frame-and-checksum walk over every record, without decoding any
/// payload. Returns the shard identity and its record count.
///
/// This is the `--resume` gate of the corpus pipeline: a shard that
/// verifies is skipped by a restarted generation run, anything else
/// (missing, truncated, corrupt) is regenerated.
pub fn verify_shard(path: &Path) -> Result<(ShardMeta, u64), ShardError> {
    let mut reader = ShardReader::open(path)?;
    while reader.next_payload()?.is_some() {}
    Ok((reader.meta, reader.declared))
}

/// `read_exact` with truncation mapped to the typed error.
fn read_fully<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<(), ShardError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            ShardError::Truncated
        } else {
            ShardError::Io(e)
        }
    })
}

/// Fill as much of `buf` as the stream has, returning the byte count
/// (0 = clean EOF, shorter than `buf` = truncation).
fn read_up_to<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<usize, ShardError> {
    let mut filled = 0;
    while filled < buf.len() {
        let n = r.read(&mut buf[filled..])?;
        if n == 0 {
            break;
        }
        filled += n;
    }
    Ok(filled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusConfig;
    use crate::shard::{fit_inst2vec, generate_shard};
    use mvgnn_embed::Inst2VecConfig;

    fn one_sample() -> LabeledSample {
        let cfg = CorpusConfig {
            seeds: vec![5],
            opt_levels: vec![OptLevel::O0],
            suite: Some(Suite::Bots),
            inst2vec: Inst2VecConfig { dim: 8, epochs: 1, negatives: 2, lr: 0.05, seed: 3 },
            ..CorpusConfig::default()
        };
        let emb = fit_inst2vec(&cfg);
        let mut all = generate_shard(&cfg, &emb, 0, 1);
        all.remove(0)
    }

    #[test]
    fn record_roundtrip_is_bit_identical() {
        let s = one_sample();
        let payload = encode_record(&s);
        let back = decode_record(&payload).unwrap();
        assert_eq!(back.base_key, s.base_key);
        assert_eq!(back.level, s.level);
        assert_eq!(back.label, s.label);
        assert_eq!(back.pattern, s.pattern);
        assert_eq!(back.suite, s.suite);
        assert_eq!(back.family, s.family);
        assert_eq!(back.app, s.app);
        assert_eq!(back.sample.n, s.sample.n);
        assert_eq!(back.sample.node_dim, s.sample.node_dim);
        assert_eq!(back.sample.label, s.sample.label);
        assert_eq!(back.sample.token_ids, s.sample.token_ids);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back.sample.node_feats), bits(&s.sample.node_feats));
        assert_eq!(bits(&back.sample.struct_dists), bits(&s.sample.struct_dists));
        assert_eq!(back.sample.adj, s.sample.adj);
        // Re-encoding is byte-identical — the format is canonical.
        assert_eq!(encode_record(&back), payload);
    }

    #[test]
    fn every_payload_truncation_point_is_a_typed_error() {
        let s = one_sample();
        let payload = encode_record(&s);
        for cut in 0..payload.len() {
            match decode_record(&payload[..cut]) {
                Err(ShardError::Truncated) | Err(ShardError::Malformed(_)) => {}
                other => panic!("cut at {cut}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn shape_inconsistent_records_are_malformed() {
        let mut s = one_sample();
        s.sample.n += 1;
        assert!(matches!(decode_record(&encode_record(&s)), Err(ShardError::Malformed(_))));
    }

    #[test]
    fn bad_enum_tags_are_malformed() {
        let s = one_sample();
        let mut payload = encode_record(&s);
        // Byte 8 is the opt-level tag.
        payload[8] = 99;
        assert!(matches!(decode_record(&payload), Err(ShardError::Malformed(_))));
    }

    #[test]
    fn writer_emits_no_tmp_residue_and_reader_checks_identity() {
        let dir = std::env::temp_dir().join("mvgnn_format_writer_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.mvsh");
        let s = one_sample();
        let meta = ShardMeta { corpus_seed: 9, shard_id: 3, num_shards: 8 };
        let mut w = ShardWriter::create(&path, meta).unwrap();
        w.append(&s).unwrap();
        w.append(&s).unwrap();
        assert_eq!(w.finish().unwrap(), 2);
        assert!(!path.with_extension("mvsh.tmp").exists());
        let r = ShardReader::open(&path).unwrap();
        assert_eq!(r.meta(), meta);
        assert_eq!(r.declared_records(), 2);
        let all: Vec<_> = r.collect::<Result<_, _>>().unwrap();
        assert_eq!(all.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn abandoned_writer_cleans_up_tmp() {
        let dir = std::env::temp_dir().join("mvgnn_format_abandon_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.mvsh");
        let meta = ShardMeta { corpus_seed: 1, shard_id: 0, num_shards: 1 };
        {
            let mut w = ShardWriter::create(&path, meta).unwrap();
            w.append(&one_sample()).unwrap();
            // Dropped without finish().
        }
        assert!(!path.exists());
        assert!(!path.with_extension("mvsh.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
