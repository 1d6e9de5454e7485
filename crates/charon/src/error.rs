//! Structured failure taxonomy for the verification engine.
//!
//! The verifier distinguishes two very different kinds of "no answer":
//!
//! * **Couldn't decide** — the budget ran out or the region became
//!   numerically unsplittable. This is the δ-completeness escape hatch
//!   ([`crate::Verdict::ResourceLimit`]); the run is resumable from its
//!   checkpoint.
//! * **Engine broke** — a worker panicked twice, NaN poisoned both the
//!   chosen domain and the interval fallback, or the model itself is
//!   malformed. This is a [`VerifyError`]; no verdict can honestly be
//!   reported.
//!
//! The `Result`-based API ([`crate::Verifier::try_verify_run`] and
//! friends) keeps the two apart; the legacy [`crate::Verifier::verify`]
//! API maps engine failures to panics, as it always did.

/// Why a verification run stopped without a decisive verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetKind {
    /// The wall-clock timeout elapsed.
    Timeout,
    /// The region cap (`max_regions`) was reached.
    Regions,
    /// The cooperative cancellation flag was set.
    Cancelled,
    /// A region could not be split further at f64 precision and no
    /// domain could decide it.
    NumericPrecision,
}

impl std::fmt::Display for BudgetKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BudgetKind::Timeout => write!(f, "timeout"),
            BudgetKind::Regions => write!(f, "region budget"),
            BudgetKind::Cancelled => write!(f, "cancelled"),
            BudgetKind::NumericPrecision => write!(f, "numeric precision floor"),
        }
    }
}

/// A failure of the verification engine itself, as opposed to an
/// inconclusive verdict.
#[derive(Debug, Clone, PartialEq)]
pub enum VerifyError {
    /// A region's analyze/attack step panicked, and so did the coarse
    /// interval retry. The process survives; the run does not.
    WorkerPanic {
        /// Panic payload (if it was a string), for diagnostics.
        message: String,
    },
    /// NaN poisoned both the selected abstract domain and the interval
    /// fallback on some region; no sound statement is possible.
    NonFinitePoisoning {
        /// Which stage detected the poisoning (e.g. `"transformer"`,
        /// `"attack"`).
        stage: &'static str,
    },
    /// The network or property is structurally unusable: dimension
    /// mismatch, out-of-range target class, or non-finite parameters.
    MalformedModel {
        /// Human-readable description of the defect.
        reason: String,
    },
    /// A checkpoint file declares a format version this build does not
    /// read. Distinct from [`VerifyError::MalformedCheckpoint`] so
    /// callers can tell "wrong tool version" from "corrupted file".
    CheckpointVersion {
        /// The header line found in the file.
        found: String,
    },
    /// A checkpoint file is syntactically unusable (truncated, bad
    /// bounds, wrong arity).
    MalformedCheckpoint {
        /// Human-readable description of the defect.
        reason: String,
    },
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::WorkerPanic { message } => {
                write!(f, "verification worker panicked: {message}")
            }
            VerifyError::NonFinitePoisoning { stage } => {
                write!(f, "non-finite values poisoned the {stage} stage")
            }
            VerifyError::MalformedModel { reason } => write!(f, "malformed model: {reason}"),
            VerifyError::CheckpointVersion { found } => write!(
                f,
                "unsupported checkpoint version: found {found:?}, but this build reads \
                 'charon-ckpt 1' (was the checkpoint written by a newer build?)"
            ),
            VerifyError::MalformedCheckpoint { reason } => {
                write!(f, "malformed checkpoint: {reason}")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// Extracts a printable message from a panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_one_line() {
        let errors = [
            VerifyError::WorkerPanic {
                message: "boom".into(),
            },
            VerifyError::NonFinitePoisoning {
                stage: "transformer",
            },
            VerifyError::MalformedModel {
                reason: "NaN weight".into(),
            },
            VerifyError::CheckpointVersion {
                found: "charon-ckpt 7".into(),
            },
            VerifyError::MalformedCheckpoint {
                reason: "missing end marker".into(),
            },
        ];
        for e in errors {
            let text = e.to_string();
            assert!(!text.is_empty());
            assert!(!text.contains('\n'));
        }
    }

    #[test]
    fn panic_message_handles_both_string_kinds() {
        assert_eq!(panic_message(&"static"), "static");
        assert_eq!(panic_message(&String::from("owned")), "owned");
        assert_eq!(panic_message(&42usize), "non-string panic payload");
    }
}
