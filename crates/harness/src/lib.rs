//! `realm-harness` — resilient campaign supervision for the REALM
//! workspace.
//!
//! The characterization engine (`realm-par` + `realm-metrics`) makes
//! every campaign a deterministic fold over independent chunks. This
//! crate adds the *operational* layer that long campaigns need in
//! practice:
//!
//! * **Checkpoint/resume** ([`Journal`], [`CampaignId`]): completed
//!   chunks are appended to a checksummed, fingerprint-bound journal
//!   the moment they finish; a killed campaign resumes bit-identically
//!   by replaying the journal and executing only the missing chunks.
//! * **Panic quarantine** ([`Supervisor`], [`Quarantine`]): a panicking
//!   chunk is isolated, retried a bounded number of times on the same
//!   RNG substream, and — if it keeps failing — excluded with exact
//!   coverage accounting instead of aborting the whole campaign.
//! * **Deadlines & cancellation** ([`CancelToken`], [`StopCause`]):
//!   wall-clock budgets and Ctrl-C stop the campaign cooperatively at a
//!   chunk boundary, after a final checkpoint flush.
//! * **Crash-safe artifacts** ([`atomic_write`]): results files are
//!   written via tmp + fsync + rename so readers never observe a torn
//!   file.
//!
//! Like the rest of the workspace, the crate is dependency-free and its
//! library code is panic-free (`clippy::unwrap_used` /
//! `clippy::expect_used` are denied).

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod cancel;
mod discover;
mod journal;
mod supervisor;
mod wire;

// The crash-safe writer lives in `realm-obs` (the bottom of the
// workspace) so the JSONL trace sink and the harness share one
// implementation; the harness API is unchanged.
pub use realm_obs::{atomic_write, atomic_write_str};

pub use cancel::CancelToken;
pub use discover::{discover, inspect, JournalInfo, JournalStatus};
pub use journal::{CampaignId, Fnv64, Journal, LoadStats, ResumedJournal};
pub use supervisor::{Backoff, Outcome, Quarantine, RunReport, StopCause, Supervised, Supervisor};
pub use wire::{ByteReader, Checkpoint};

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// Errors from the supervision layer.
///
/// Only *infrastructure* failures surface here (journal I/O,
/// corruption, campaign mismatch). Panicking chunks are not errors:
/// they are retried and quarantined, and the campaign still returns a
/// result with honest accounting.
#[derive(Debug)]
pub enum HarnessError {
    /// An I/O operation on a journal or checkpoint directory failed.
    Io {
        /// The file or directory involved.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// A journal exists at the path but records a different campaign
    /// (different geometry, seed, subject or family). Refusing to mix
    /// them is what keeps resume bit-identical.
    CampaignMismatch {
        /// The journal file.
        path: PathBuf,
        /// The fingerprint the running campaign expects.
        expected: u64,
        /// The fingerprint found in the journal header.
        found: u64,
    },
    /// A journal (or a replayed chunk payload) failed validation in a
    /// way that truncation cannot salvage.
    Corrupt {
        /// The journal file.
        path: PathBuf,
        /// What failed to validate.
        detail: String,
    },
}

impl HarnessError {
    /// Wraps an [`io::Error`] with the path it occurred on.
    pub fn io(path: impl AsRef<Path>, source: io::Error) -> Self {
        HarnessError::Io {
            path: path.as_ref().to_path_buf(),
            source,
        }
    }
}

impl fmt::Display for HarnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HarnessError::Io { path, source } => {
                write!(f, "journal I/O error on '{}': {source}", path.display())
            }
            HarnessError::CampaignMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "journal '{}' belongs to a different campaign \
                 (expected fingerprint {expected:016x}, found {found:016x}); \
                 delete it or point --checkpoint-dir elsewhere",
                path.display()
            ),
            HarnessError::Corrupt { path, detail } => {
                write!(f, "journal '{}' is corrupt: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for HarnessError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HarnessError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_actionable() {
        let e = HarnessError::CampaignMismatch {
            path: PathBuf::from("/tmp/x.journal"),
            expected: 1,
            found: 2,
        };
        let text = e.to_string();
        assert!(text.contains("different campaign"), "{text}");
        assert!(text.contains("0000000000000001"), "{text}");
    }

    #[test]
    fn io_variant_exposes_source() {
        use std::error::Error;
        let e = HarnessError::io("/tmp/x", io::Error::other("boom"));
        assert!(e.source().is_some());
        assert!(e.to_string().contains("boom"));
    }
}
