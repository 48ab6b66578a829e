//! The crate-wide typed error: every fallible public entry point of the
//! training and inference pipeline returns [`MvGnnError`] instead of
//! panicking, so callers can distinguish configuration mistakes,
//! recoverable runtime faults, and unrecoverable divergence.

use mvgnn_ir::interp::InterpError;

/// Unified error for the mvgnn training & inference pipeline.
#[derive(Debug)]
pub enum MvGnnError {
    /// Invalid configuration (bad hyperparameter, empty dataset, …).
    Config(String),
    /// Mini-language front-end failure (lex/parse/lower/verify).
    Compile(mvgnn_lang::CompileError),
    /// Textual-IR parse failure.
    ParseIr(mvgnn_ir::text::ParseError),
    /// IR interpretation / profiling failure (step limit, OOB, …).
    Interp(InterpError),
    /// Filesystem failure while reading or writing a checkpoint.
    Io(std::io::Error),
    /// A checkpoint file failed structural validation (bad magic,
    /// length mismatch, checksum mismatch, …).
    Checkpoint(String),
    /// Training diverged and exhausted its rollback retries.
    Diverged {
        /// Epoch at which the final divergence was detected.
        epoch: usize,
        /// Rollback retries consumed before giving up.
        retries: usize,
        /// The non-finite or exploding loss that triggered the failure.
        loss: f32,
    },
}

impl std::fmt::Display for MvGnnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MvGnnError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            MvGnnError::Compile(e) => write!(f, "compile error: {e}"),
            MvGnnError::ParseIr(e) => write!(f, "IR parse error: {e}"),
            MvGnnError::Interp(e) => write!(f, "interpreter error: {e}"),
            MvGnnError::Io(e) => write!(f, "I/O error: {e}"),
            MvGnnError::Checkpoint(msg) => write!(f, "invalid checkpoint: {msg}"),
            MvGnnError::Diverged { epoch, retries, loss } => write!(
                f,
                "training diverged at epoch {epoch} (loss {loss}) after {retries} rollback retries"
            ),
        }
    }
}

impl std::error::Error for MvGnnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MvGnnError::Compile(e) => Some(e),
            MvGnnError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<mvgnn_lang::CompileError> for MvGnnError {
    fn from(e: mvgnn_lang::CompileError) -> Self {
        MvGnnError::Compile(e)
    }
}

impl From<InterpError> for MvGnnError {
    fn from(e: InterpError) -> Self {
        MvGnnError::Interp(e)
    }
}

impl From<std::io::Error> for MvGnnError {
    fn from(e: std::io::Error) -> Self {
        MvGnnError::Io(e)
    }
}

impl From<mvgnn_ir::text::ParseError> for MvGnnError {
    fn from(e: mvgnn_ir::text::ParseError) -> Self {
        MvGnnError::ParseIr(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_every_variant() {
        let cases: Vec<(MvGnnError, &str)> = vec![
            (MvGnnError::Config("restarts must be >= 1".into()), "configuration"),
            (MvGnnError::Interp(InterpError::StepLimit(10)), "step limit"),
            (
                MvGnnError::Io(std::io::Error::new(std::io::ErrorKind::NotFound, "gone")),
                "I/O",
            ),
            (MvGnnError::Checkpoint("checksum mismatch".into()), "checkpoint"),
            (
                MvGnnError::Diverged { epoch: 3, retries: 2, loss: f32::NAN },
                "diverged",
            ),
        ];
        for (e, needle) in cases {
            let rendered = e.to_string();
            assert!(rendered.contains(needle), "{rendered:?} missing {needle:?}");
        }
    }

    #[test]
    fn conversions_preserve_the_cause() {
        let e: MvGnnError = InterpError::DepthLimit(4).into();
        assert!(matches!(e, MvGnnError::Interp(InterpError::DepthLimit(4))));
    }
}
