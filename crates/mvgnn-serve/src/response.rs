//! Typed responses of the serving layer.
//!
//! Everything the service can do to a request is a value in this module:
//! overload is [`ServeError::Overloaded`] with a retry hint, a missed
//! deadline is [`ServeError::DeadlineExceeded`] tagged with the stage
//! that noticed it, malformed input is [`ServeError::Compile`] /
//! [`ServeError::Rejected`], and a degraded-but-answered request is a
//! healthy [`Classification`] whose [`PredictionSource`] says which view
//! the verdict came from. Panics are not part of the vocabulary: a
//! dispatch panic is caught at the service boundary and surfaced as
//! [`ServeError::Internal`].

use mvgnn_analyze::{Fact, LoopPlan, OracleReport, Verdict};
use mvgnn_core::infer::LoopReport;
use mvgnn_core::model::CheckedPrediction;
use mvgnn_core::{view_ladder, DecidedBy, PredictionSource};
use std::time::Duration;

/// Result alias for every service entry point.
pub type ServeResult<T> = Result<T, ServeError>;

/// Stage at which a request's deadline was found expired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadlineStage {
    /// Expired before the request was admitted.
    Admission,
    /// Expired while waiting in the submission queue; dropped at drain
    /// time, before it could waste a batch slot.
    Queued,
    /// Expired in the source frontend: after compile, or by the time
    /// the cascade returned (a late module answer is never `Ok`).
    Frontend,
}

/// Everything that can go wrong with a request, as a value.
#[derive(Debug)]
pub enum ServeError {
    /// The service is saturated; the request was shed without queueing.
    /// `retry_after` estimates when the backlog will have drained.
    Overloaded {
        /// Estimated drain time of the current backlog.
        retry_after: Duration,
        /// Requests queued or executing at shed time.
        inflight: usize,
    },
    /// The request's deadline passed before an answer was produced.
    DeadlineExceeded {
        /// Which stage noticed the expiry.
        stage: DeadlineStage,
    },
    /// The request was structurally unusable (dimension mismatch, no
    /// entry function, frontend not configured, …).
    Rejected(String),
    /// Source-path request failed to compile — the malformed-input
    /// degradation of the frontend, typed instead of panicking.
    Compile(mvgnn_lang::CompileError),
    /// The service is draining and accepts no new work.
    ShuttingDown,
    /// A dispatch panic was caught at the service boundary; the payload
    /// is its message. Request paths are designed to never produce this.
    Internal(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { retry_after, inflight } => write!(
                f,
                "overloaded ({inflight} in flight); retry after {:.1} ms",
                retry_after.as_secs_f64() * 1e3
            ),
            ServeError::DeadlineExceeded { stage } => {
                write!(f, "deadline exceeded ({stage:?})")
            }
            ServeError::Rejected(why) => write!(f, "rejected: {why}"),
            ServeError::Compile(e) => write!(f, "compile error: {e}"),
            ServeError::ShuttingDown => write!(f, "service is shutting down"),
            ServeError::Internal(msg) => write!(f, "internal fault: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Compile(e) => Some(e),
            _ => None,
        }
    }
}

/// A classified single-loop request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Classification {
    /// Predicted class (1 = parallelisable; 0 under conservative
    /// degradation).
    pub prediction: usize,
    /// Which view produced the verdict — [`PredictionSource::Multi`] on
    /// the healthy path, a single view or conservative serial when the
    /// model is damaged.
    pub source: PredictionSource,
    /// Why the request was degraded, when it was.
    pub diagnostic: Option<String>,
    /// Requests coalesced into the micro-batch that served this one
    /// (1 = it ran alone).
    pub batched_with: usize,
    /// Time spent in the submission queue before dispatch.
    pub queued: Duration,
    /// Which cascade tier was final: the tier-0 oracle answers at submit
    /// time without touching the micro-batcher, everything else is the
    /// GNN tier.
    pub decided_by: DecidedBy,
    /// The oracle's dependence facts when tier 0 decided this request
    /// (`None` when the GNN answered).
    pub oracle_facts: Option<Vec<Fact>>,
    /// The rendered OpenMP-style pragma of the parallelization plan,
    /// when the request came with a proved [`LoopPlan`]
    /// ([`Tier0::Plan`](crate::Tier0::Plan)).
    /// `None` on the GNN path (learned verdicts carry no proof) and on
    /// the report-only oracle path (a bare report has no rendered plan).
    pub pragma: Option<String>,
}

impl Classification {
    /// Build the tier-0 answer for an oracle-decided request.
    ///
    /// The verdict must be definite — call [`mvgnn_core::oracle_decision`]
    /// first; passing an `Unknown` report here is a logic error and is
    /// answered conservatively serial with a diagnostic rather than a
    /// panic.
    pub fn from_oracle(report: &OracleReport) -> Classification {
        Self::tier0(report.verdict, report.facts.clone(), None)
    }

    /// Build the tier-0 answer for a request carrying a parallelization
    /// plan. A [`LoopPlan`] embeds its backing verdict and fact list, so
    /// this is [`Self::from_oracle`] plus the rendered pragma; the same
    /// definiteness contract applies ([`LoopPlan::proved`] must hold).
    pub fn from_plan(plan: &LoopPlan) -> Classification {
        Self::tier0(plan.verdict, plan.facts.clone(), Some(plan.pragma.clone()))
    }

    fn tier0(verdict: Verdict, facts: Vec<Fact>, pragma: Option<String>) -> Classification {
        let (prediction, diagnostic) = match verdict {
            Verdict::ProvablyParallel => (1, None),
            Verdict::ProvablyDependent => (0, None),
            Verdict::Unknown => {
                (0, Some("oracle verdict was Unknown; answering conservatively".to_string()))
            }
        };
        Classification {
            prediction,
            source: PredictionSource::Oracle,
            diagnostic,
            batched_with: 0,
            queued: Duration::ZERO,
            decided_by: DecidedBy::Oracle,
            oracle_facts: Some(facts),
            pragma,
        }
    }
}

/// A classified source-program (module) request.
#[derive(Debug, Clone)]
pub struct ModuleClassification {
    /// Per-loop reports, with the per-loop degradation of
    /// [`mvgnn_core::Cascade::classify_module`].
    pub reports: Vec<LoopReport>,
}

/// Map one checked micro-batch row onto the response vocabulary through
/// the cascade's view ladder ([`view_ladder`]): fused → node →
/// structural → conservative serial, each step annotated with why the
/// preferred view was refused.
pub fn classification_from_checked(
    checked: CheckedPrediction,
    batched_with: usize,
    queued: Duration,
) -> Classification {
    let (prediction, source, diagnostic) = view_ladder(checked, None);
    Classification {
        prediction,
        source,
        diagnostic,
        batched_with,
        queued,
        decided_by: DecidedBy::Gnn,
        oracle_facts: None,
        pragma: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_every_variant() {
        let cases: Vec<(ServeError, &str)> = vec![
            (
                ServeError::Overloaded {
                    retry_after: Duration::from_millis(5),
                    inflight: 12,
                },
                "overloaded",
            ),
            (
                ServeError::DeadlineExceeded { stage: DeadlineStage::Queued },
                "deadline",
            ),
            (ServeError::Rejected("dimension mismatch".into()), "rejected"),
            (ServeError::ShuttingDown, "shutting down"),
            (ServeError::Internal("panic".into()), "internal"),
        ];
        for (e, needle) in cases {
            assert!(e.to_string().contains(needle), "{e:?}");
        }
    }

    #[test]
    fn degradation_ladder_prefers_fused_then_views() {
        let q = Duration::ZERO;
        let all = CheckedPrediction { fused: Some(1), node: Some(0), structural: Some(0) };
        let c = classification_from_checked(all, 4, q);
        assert_eq!((c.prediction, c.source), (1, PredictionSource::Multi));
        assert!(c.diagnostic.is_none());

        let node_only =
            CheckedPrediction { fused: None, node: Some(1), structural: Some(0) };
        let c = classification_from_checked(node_only, 4, q);
        assert_eq!((c.prediction, c.source), (1, PredictionSource::NodeOnly));
        assert!(c.diagnostic.is_some());

        let nothing = CheckedPrediction { fused: None, node: None, structural: None };
        let c = classification_from_checked(nothing, 4, q);
        assert_eq!(
            (c.prediction, c.source),
            (0, PredictionSource::ConservativeSerial)
        );
        assert!(c.diagnostic.is_some());
    }

    #[test]
    fn planned_tier0_answers_carry_the_pragma() {
        let plan = LoopPlan {
            plan: mvgnn_analyze::Plan::DoAll { private: Vec::new() },
            verdict: Verdict::ProvablyParallel,
            facts: Vec::new(),
            pragma: "#pragma omp parallel for".to_string(),
        };
        let c = Classification::from_plan(&plan);
        assert_eq!(c.prediction, 1);
        assert_eq!(c.decided_by, DecidedBy::Oracle);
        assert_eq!(c.pragma.as_deref(), Some("#pragma omp parallel for"));
        assert!(c.oracle_facts.is_some());

        // The GNN path never invents a pragma.
        let gnn = classification_from_checked(
            CheckedPrediction { fused: Some(1), node: Some(1), structural: Some(1) },
            1,
            Duration::ZERO,
        );
        assert!(gnn.pragma.is_none());
    }
}
