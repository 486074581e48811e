//! Checkpoint-directory discovery: non-destructive enumeration of the
//! journals in a directory, with enough classification to decide which
//! campaigns can (and should) be resumed. Serve counts the job journals
//! it finds at startup with [`discover`].
//!
//! [`Journal::resume`](crate::Journal::resume) opens *one* journal for
//! *one* known campaign and truncates torn tails as a side effect. A
//! service supervising many campaigns needs the opposite view first:
//! "what is in this checkpoint directory, and which of my campaigns do
//! these files belong to?" — answered read-only, so inspection never
//! mutates evidence before a resume decision is made.
//!
//! * [`inspect`] reads one journal without modifying it and reports its
//!   fingerprint, record census and torn-tail size.
//! * [`discover`] enumerates every `*.journal` in a directory
//!   (non-journal files and unreadable entries are classified, not
//!   errors — a checkpoint directory survives strangers).

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use crate::journal::{parse_header, parse_record};
use crate::HarnessError;

/// What one file in a checkpoint directory turned out to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalStatus {
    /// A valid journal whose record census covers every chunk of its
    /// plan (per the header's `total=`/`chunk=` descriptor): resuming it
    /// is a pure replay.
    Complete,
    /// A valid journal with chunks still missing — the resume target.
    /// Torn-tail files land here too: the salvageable prefix is what
    /// counts.
    Partial,
    /// The file does not carry a valid `realm-journal v1` header (a
    /// stranger in the directory, or a crash before the header hit the
    /// disk). Not a resume target.
    Foreign,
}

/// The read-only inspection of one journal file.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalInfo {
    /// The file inspected.
    pub path: PathBuf,
    /// The fingerprint from the header (`None` ⇒ foreign/torn header).
    pub fingerprint: Option<u64>,
    /// The human descriptor from the `#` comment line, if present.
    pub descriptor: Option<String>,
    /// Checksummed records in the intact prefix (duplicates counted
    /// once; the census a resume would replay).
    pub distinct_chunks: u64,
    /// Chunks the plan expects, parsed from the descriptor's
    /// `total=`/`chunk=` fields (`None` when the descriptor is absent
    /// or unparseable).
    pub expected_chunks: Option<u64>,
    /// Bytes of invalid tail after the intact prefix (0 for a cleanly
    /// closed journal). Inspection reports it; only a real
    /// [`Journal::resume`](crate::Journal::resume) truncates it.
    pub torn_bytes: u64,
}

impl JournalInfo {
    /// The file's classification (see [`JournalStatus`]).
    pub fn status(&self) -> JournalStatus {
        match (self.fingerprint, self.expected_chunks) {
            (None, _) => JournalStatus::Foreign,
            (Some(_), Some(expected)) if self.distinct_chunks >= expected && expected > 0 => {
                JournalStatus::Complete
            }
            (Some(_), _) => JournalStatus::Partial,
        }
    }
}

/// Parses `total=T chunk=C` out of a journal descriptor line (the
/// `Display` form of a [`CampaignId`](crate::CampaignId)) and returns
/// the chunk count `ceil(T / C)`. Parses from the right so subjects
/// containing `=` or spaces cannot confuse it.
fn expected_chunks_from_descriptor(descriptor: &str) -> Option<u64> {
    let mut total = None;
    let mut chunk = None;
    for token in descriptor.split_whitespace().rev() {
        if let Some(v) = token.strip_prefix("total=") {
            total.get_or_insert(v.parse::<u64>().ok()?);
        } else if let Some(v) = token.strip_prefix("chunk=") {
            chunk.get_or_insert(v.parse::<u64>().ok()?);
        }
        if total.is_some() && chunk.is_some() {
            break;
        }
    }
    let (total, chunk) = (total?, chunk?);
    if chunk == 0 {
        return None;
    }
    Some(total.div_ceil(chunk))
}

/// Inspects one journal file **read-only**: no truncation, no lock, no
/// side effects. I/O failures are real errors; content problems are
/// classification ([`JournalStatus::Foreign`], torn bytes), because a
/// checkpoint directory after a crash legitimately contains damaged
/// files.
pub fn inspect(path: &Path) -> Result<JournalInfo, HarnessError> {
    let text = std::fs::read_to_string(path).map_err(|e| HarnessError::io(path, e))?;
    let mut info = JournalInfo {
        path: path.to_path_buf(),
        fingerprint: None,
        descriptor: None,
        distinct_chunks: 0,
        expected_chunks: None,
        torn_bytes: 0,
    };
    let Some(header_end) = text.find('\n') else {
        info.torn_bytes = text.len() as u64;
        return Ok(info);
    };
    let Some(fingerprint) = parse_header(&text[..header_end]) else {
        info.torn_bytes = text.len() as u64;
        return Ok(info);
    };
    info.fingerprint = Some(fingerprint);

    let mut chunks: BTreeSet<u64> = BTreeSet::new();
    let mut cursor = header_end + 1;
    let mut valid_end = cursor;
    while cursor < text.len() {
        let Some(off) = text[cursor..].find('\n') else {
            break; // unterminated tail
        };
        let line = &text[cursor..cursor + off];
        if line.starts_with('#') || line.is_empty() {
            if let Some(comment) = line.strip_prefix("# ") {
                if info.descriptor.is_none() {
                    info.descriptor = Some(comment.to_string());
                    info.expected_chunks = expected_chunks_from_descriptor(comment);
                }
            }
        } else {
            let Some((index, _payload)) = parse_record(line) else {
                break; // first invalid record: everything after is torn
            };
            chunks.insert(index);
        }
        cursor += off + 1;
        valid_end = cursor;
    }
    info.distinct_chunks = chunks.len() as u64;
    info.torn_bytes = (text.len() - valid_end) as u64;
    Ok(info)
}

/// Enumerates every `*.journal` file in `dir`, inspected read-only and
/// sorted by file name (deterministic across runs). Unreadable entries
/// become [`JournalStatus::Foreign`] infos rather than failing the
/// whole scan; a missing directory is an empty discovery, not an error
/// (the legitimate state before the first campaign checkpoints).
pub fn discover(dir: &Path) -> Result<Vec<JournalInfo>, HarnessError> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(HarnessError::io(dir, e)),
    };
    let mut infos = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| HarnessError::io(dir, e))?;
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("journal") || !path.is_file() {
            continue;
        }
        match inspect(&path) {
            Ok(info) => infos.push(info),
            Err(_) => infos.push(JournalInfo {
                path,
                fingerprint: None,
                descriptor: None,
                distinct_chunks: 0,
                expected_chunks: None,
                torn_bytes: 0,
            }),
        }
    }
    infos.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(infos)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CampaignId, Journal};
    use realm_par::ChunkPlan;
    use std::io::Write;

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("realm-discover-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn id(tag: &str, total: u64, chunk: u64) -> CampaignId {
        CampaignId::new("disc", tag, ChunkPlan::new(total, chunk), 5)
    }

    /// Writes a journal with `n` records for `id` and returns its path.
    fn journal_with(dir: &Path, id: &CampaignId, n: u64) -> PathBuf {
        let path = dir.join(id.journal_file_name());
        let mut j = Journal::create(&path, id).unwrap();
        for i in 0..n {
            j.append(i, &[i as u8, 0xAB]).unwrap();
        }
        path
    }

    #[test]
    fn expected_chunks_parse_from_descriptor() {
        assert_eq!(
            expected_chunks_from_descriptor("mc: REALM16 (t=0) total=100 chunk=30 seed=2"),
            Some(4)
        );
        // A hostile subject cannot spoof the plan fields: rightmost wins.
        assert_eq!(
            expected_chunks_from_descriptor("mc: total=1 chunk=1 total=100 chunk=30 seed=2"),
            Some(4)
        );
        assert_eq!(expected_chunks_from_descriptor("no plan here"), None);
        assert_eq!(
            expected_chunks_from_descriptor("x total=10 chunk=0 seed=1"),
            None
        );
    }

    #[test]
    fn inspect_is_read_only_even_on_torn_tails() {
        let dir = scratch("readonly");
        let full = id("full", 40, 10);
        let path = journal_with(&dir, &full, 2);
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(b"c 2 aa").unwrap(); // torn: no checksum, no newline
        drop(f);
        let before = std::fs::read(&path).unwrap();

        let info = inspect(&path).unwrap();
        assert_eq!(info.fingerprint, Some(full.fingerprint()));
        assert_eq!(info.distinct_chunks, 2);
        assert_eq!(info.expected_chunks, Some(4));
        assert!(info.torn_bytes > 0);
        assert_eq!(info.status(), JournalStatus::Partial);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            before,
            "inspect must not truncate"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn discovery_classifies_complete_partial_torn_and_foreign() {
        let dir = scratch("classify");
        // Complete: 4 chunks planned, 4 journaled.
        let complete = id("complete", 40, 10);
        journal_with(&dir, &complete, 4);
        // Partial: 4 planned, 2 journaled.
        let partial = id("partial", 40, 10);
        journal_with(&dir, &partial, 2);
        // Torn tail: valid prefix of 1, then a crash mid-append.
        let torn = id("torn", 40, 10);
        let torn_path = journal_with(&dir, &torn, 1);
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&torn_path)
            .unwrap();
        f.write_all(b"c 1 deadbe").unwrap();
        drop(f);
        // Foreign fingerprint: a valid journal for a campaign nobody
        // here knows.
        let foreign_id = id("somebody-else", 80, 10);
        journal_with(&dir, &foreign_id, 3);
        // Foreign content: not a journal at all.
        std::fs::write(dir.join("notes.journal"), "TODO buy milk\n").unwrap();
        // Non-journal extension: ignored entirely.
        std::fs::write(dir.join("results.json"), "{}").unwrap();

        let infos = discover(&dir).unwrap();
        assert_eq!(infos.len(), 5, "{infos:?}");
        let by_fp = |cid: &CampaignId| {
            infos
                .iter()
                .find(|i| i.fingerprint == Some(cid.fingerprint()))
                .unwrap()
        };
        assert_eq!(by_fp(&complete).status(), JournalStatus::Complete);
        assert_eq!(by_fp(&partial).status(), JournalStatus::Partial);
        let torn_info = by_fp(&torn);
        assert_eq!(torn_info.status(), JournalStatus::Partial);
        assert!(torn_info.torn_bytes > 0);
        assert_eq!(
            infos
                .iter()
                .filter(|i| i.status() == JournalStatus::Foreign)
                .count(),
            1,
            "the non-journal file is foreign"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_directory_is_an_empty_discovery() {
        let dir = scratch("gone");
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(discover(&dir).unwrap().is_empty());
    }

    #[test]
    fn discovery_order_is_deterministic() {
        let dir = scratch("order");
        for tag in ["b", "a", "c"] {
            journal_with(&dir, &id(tag, 20, 10), 1);
        }
        let first = discover(&dir).unwrap();
        let second = discover(&dir).unwrap();
        assert_eq!(first, second);
        let mut names: Vec<_> = first.iter().map(|i| i.path.clone()).collect();
        let sorted = {
            let mut s = names.clone();
            s.sort();
            s
        };
        names.sort();
        assert_eq!(names, sorted);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
