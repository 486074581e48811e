//! The job ledgers: crash-safe ground truth for "which jobs exist and
//! which are finished", built on the harness [`Journal`] so the service
//! inherits its fsync-per-append durability, checksums and torn-tail
//! salvage.
//!
//! Two append-only journals live in the service directory:
//!
//! * `accepted.journal` — one record per admitted job, appended (and
//!   fsynced) **before** the client hears 202. Record index = job id,
//!   payload = the canonical [`JobRequest`](crate::job::JobRequest)
//!   document.
//! * `done.journal` — one record per terminal transition. Record index
//!   = job id, payload = the [`Terminal`](crate::job::Terminal)
//!   document (including the byte-stable result for completed jobs).
//!
//! Recovery is set subtraction: `accepted \ done` are the jobs a crash
//! interrupted (queued or mid-run — the distinction doesn't matter,
//! because per-job campaign journals make resuming from either
//! bit-identical). The journal's first-record-wins duplicate handling
//! makes a crash between append and acknowledgement harmless.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;

use realm_harness::{CampaignId, HarnessError, Journal};
use realm_obs::json::Json;
use realm_par::ChunkPlan;

use crate::job::{Job, JobId, JobRequest, Terminal};

/// The fixed identity of the accepted ledger. The plan geometry is a
/// formality (ledger indices are job ids, not chunk indices); the
/// fingerprint still protects the file from being confused with a
/// campaign journal or a different ledger version.
fn accepted_id() -> CampaignId {
    CampaignId::new("serve", "accepted-ledger/v1", ChunkPlan::new(1, 1), 0)
}

/// The fixed identity of the done ledger.
fn done_id() -> CampaignId {
    CampaignId::new("serve", "done-ledger/v1", ChunkPlan::new(1, 1), 0)
}

/// What startup recovered from the service directory.
#[derive(Debug, Default)]
pub struct Recovered {
    /// Jobs admitted but not yet terminal — to re-queue, in id order.
    pub incomplete: Vec<Job>,
    /// Terminal jobs, with their outcome — to serve `/jobs/<id>` and
    /// `/result` across restarts.
    pub terminal: Vec<(Job, Terminal)>,
    /// The next unused job id.
    pub next_id: JobId,
    /// Accepted-ledger records that failed to parse (counted, skipped;
    /// a damaged record must not take the service down).
    pub skipped: u64,
}

/// The open ledgers (append paths only; recovery happens once in
/// [`Ledgers::open`]).
#[derive(Debug)]
pub struct Ledgers {
    accepted: Mutex<Journal>,
    done: Mutex<Journal>,
}

impl Ledgers {
    /// Opens (creating or resuming) both ledgers in `dir` and replays
    /// them into a [`Recovered`] state.
    pub fn open(dir: &Path) -> Result<(Ledgers, Recovered), HarnessError> {
        std::fs::create_dir_all(dir).map_err(|e| HarnessError::io(dir, e))?;
        let (accepted, accepted_records, _) =
            Journal::resume(&dir.join("accepted.journal"), &accepted_id())?;
        let (done, done_records, _) = Journal::resume(&dir.join("done.journal"), &done_id())?;

        let done_map: BTreeMap<JobId, Terminal> = done_records
            .into_iter()
            .filter_map(|(id, bytes)| {
                let text = String::from_utf8(bytes).ok()?;
                Some((id, Terminal::from_json(&text)?))
            })
            .collect();

        let mut recovered = Recovered::default();
        for (id, bytes) in accepted_records {
            recovered.next_id = recovered.next_id.max(id + 1);
            let request = String::from_utf8(bytes)
                .ok()
                .and_then(|text| Json::parse(&text).ok())
                .and_then(|doc| JobRequest::from_json(&doc).ok());
            let Some(request) = request else {
                recovered.skipped += 1;
                continue;
            };
            let job = Job {
                id,
                request,
                attempts: 0,
                recovered: true,
            };
            match done_map.get(&id) {
                Some(terminal) => recovered.terminal.push((job, terminal.clone())),
                None => recovered.incomplete.push(job),
            }
        }
        Ok((
            Ledgers {
                accepted: Mutex::new(accepted),
                done: Mutex::new(done),
            },
            recovered,
        ))
    }

    /// Durably records an admitted job (fsynced before return — the 202
    /// is only sent after this succeeds).
    pub fn record_accepted(&self, job: &Job) -> Result<(), HarnessError> {
        let payload = job.request.to_json();
        match self.accepted.lock() {
            Ok(mut ledger) => ledger.append(job.id, payload.as_bytes()),
            Err(_) => Err(poisoned()),
        }
    }

    /// Durably records a terminal transition.
    pub fn record_done(&self, id: JobId, terminal: &Terminal) -> Result<(), HarnessError> {
        let payload = terminal.to_json();
        match self.done.lock() {
            Ok(mut ledger) => ledger.append(id, payload.as_bytes()),
            Err(_) => Err(poisoned()),
        }
    }
}

fn poisoned() -> HarnessError {
    HarnessError::Corrupt {
        path: std::path::PathBuf::new(),
        detail: "ledger mutex poisoned".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobState;
    use realm_metrics::{CampaignSpec, FamilySpec};
    use std::io::Write;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("realm-ledger-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn job(id: JobId, tenant: &str) -> Job {
        Job {
            id,
            request: JobRequest {
                tenant: tenant.into(),
                priority: 0,
                deadline_ms: None,
                max_retries: 2,
                spec: CampaignSpec {
                    design: "accurate".into(),
                    family: FamilySpec::MonteCarlo { samples: 64 },
                    seed: 1,
                    chunk: Some(16),
                    error_sla: None,
                },
                inject_panic: Vec::new(),
                persistent_panic: false,
            },
            attempts: 0,
            recovered: false,
        }
    }

    #[test]
    fn recovery_is_accepted_minus_done() {
        let dir = scratch("setsub");
        {
            let (ledgers, fresh) = Ledgers::open(&dir).unwrap();
            assert_eq!(fresh.next_id, 0);
            for id in 0..4 {
                ledgers.record_accepted(&job(id, "t")).unwrap();
            }
            ledgers
                .record_done(
                    1,
                    &Terminal {
                        state: JobState::Completed,
                        detail: String::new(),
                        result: Some("{\"schema\":\"realm-serve/result/v1\"}".into()),
                    },
                )
                .unwrap();
            ledgers
                .record_done(
                    3,
                    &Terminal {
                        state: JobState::DeadLetter,
                        detail: "retries exhausted".into(),
                        result: None,
                    },
                )
                .unwrap();
        } // drop = crash (no graceful close exists, by design)

        let (_, recovered) = Ledgers::open(&dir).unwrap();
        let incomplete: Vec<JobId> = recovered.incomplete.iter().map(|j| j.id).collect();
        assert_eq!(incomplete, [0, 2], "accepted minus done, in id order");
        assert!(recovered.incomplete.iter().all(|j| j.recovered));
        assert_eq!(recovered.terminal.len(), 2);
        assert_eq!(recovered.next_id, 4);
        assert_eq!(recovered.skipped, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_ledger_tail_is_salvaged() {
        let dir = scratch("torn");
        {
            let (ledgers, _) = Ledgers::open(&dir).unwrap();
            ledgers.record_accepted(&job(0, "t")).unwrap();
            ledgers.record_accepted(&job(1, "t")).unwrap();
        }
        // Crash mid-append: garbage tail on the accepted ledger.
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("accepted.journal"))
            .unwrap();
        f.write_all(b"c 2 dead").unwrap();
        drop(f);

        let (ledgers, recovered) = Ledgers::open(&dir).unwrap();
        assert_eq!(recovered.incomplete.len(), 2);
        assert_eq!(recovered.next_id, 2);
        // And the salvaged ledger still appends fine.
        ledgers.record_accepted(&job(2, "t")).unwrap();
        let (_, again) = Ledgers::open(&dir).unwrap();
        assert_eq!(again.incomplete.len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_accept_records_are_first_record_wins() {
        let dir = scratch("dup");
        {
            let (ledgers, _) = Ledgers::open(&dir).unwrap();
            // A crash between append and ack can re-submit the same id.
            ledgers.record_accepted(&job(0, "first")).unwrap();
            ledgers.record_accepted(&job(0, "second")).unwrap();
        }
        let (_, recovered) = Ledgers::open(&dir).unwrap();
        assert_eq!(recovered.incomplete.len(), 1);
        assert_eq!(recovered.incomplete[0].request.tenant, "first");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unparseable_accepted_payloads_are_skipped_not_fatal() {
        let dir = scratch("skip");
        {
            let (ledgers, _) = Ledgers::open(&dir).unwrap();
            ledgers.record_accepted(&job(0, "good")).unwrap();
        }
        // Append a record whose payload is valid hex but not a job.
        {
            let (accepted, _, _) =
                Journal::resume(&dir.join("accepted.journal"), &accepted_id()).unwrap();
            let mut accepted = accepted;
            accepted.append(1, b"not a job document").unwrap();
        }
        let (_, recovered) = Ledgers::open(&dir).unwrap();
        assert_eq!(recovered.incomplete.len(), 1);
        assert_eq!(recovered.skipped, 1);
        assert_eq!(recovered.next_id, 2, "skipped ids are still reserved");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
