//! The typed error of the workspace's binary artifact decoders (the
//! MVI2 embedding artifact, and the shard reader that consumes it).
//! Model weights have their own format and error (`mvgnn_core`'s
//! MVCK checkpoints).

/// Serialisation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// The header is not the expected artifact.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// The buffer ended early or lengths are inconsistent.
    Truncated,
    /// The decoded contents are inconsistent with the artifact's layout.
    LayoutMismatch(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::BadMagic => write!(f, "bad magic"),
            PersistError::BadVersion(v) => write!(f, "unsupported version {v}"),
            PersistError::Truncated => write!(f, "truncated artifact"),
            PersistError::LayoutMismatch(m) => write!(f, "layout mismatch: {m}"),
        }
    }
}

impl std::error::Error for PersistError {}
