//! Job model: the submission document, the job lifecycle state machine,
//! and the canonical (byte-stable) serializations the ledgers and the
//! API share.
//!
//! # Lifecycle
//!
//! ```text
//!            submit                    worker
//! (client) ─────────▶ QUEUED ────────────────────▶ RUNNING
//!                       ▲                             │
//!                       │ retry (backoff, budget)     ├─ complete ──▶ COMPLETED
//!                       └─────────────────────────────┤
//!                                                     ├─ deadline ──▶ FAILED
//!                                                     └─ retries
//!                                                        exhausted ─▶ DEAD_LETTER
//! ```
//!
//! A SIGTERM/SIGKILL while RUNNING is *not* a state: the job's chunks
//! are journaled, the accepted ledger still holds the job, and the next
//! startup re-queues it — resuming bit-identically from the checkpoint.

use std::fmt;

use realm_metrics::{CampaignSpec, ErrorSla, ErrorSummary, FamilySpec};
use realm_obs::json_string;

use realm_obs::json::{exact_f64, object, Json};

/// Server-assigned job identifier (dense, monotonic, reused as the
/// ledger record index).
pub type JobId = u64;

/// Hard cap on tenant-name length (admission rejects longer).
pub const MAX_TENANT: usize = 64;

/// A validated job submission — everything the client controls.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// The tenant the job is accounted (and fair-shared) under.
    pub tenant: String,
    /// Scheduling priority *within* the tenant's queue (higher runs
    /// first; the scheduler never trades fairness across tenants for
    /// priority).
    pub priority: i64,
    /// Per-execution wall-clock budget. A job over its deadline fails
    /// terminally (deadlines are promises to the client, not retryable
    /// conditions).
    pub deadline_ms: Option<u64>,
    /// Job-level retry budget: how many times a failing execution is
    /// re-queued (with backoff) before the job is dead-lettered.
    pub max_retries: u32,
    /// The campaign to run.
    pub spec: CampaignSpec,
    /// Chaos hook: chunk indices that panic (mirrors the bench
    /// drivers' `--inject-panic`; exercises quarantine/retry end to
    /// end).
    pub inject_panic: Vec<u64>,
    /// Whether injected panics persist across chunk retries (true
    /// drives the job through quarantine → job retry → dead letter).
    pub persistent_panic: bool,
}

impl JobRequest {
    /// Parses and validates a submission document. The error string is
    /// returned verbatim to the client with a 400.
    pub fn from_json(doc: &Json) -> Result<JobRequest, String> {
        let tenant = doc
            .get("tenant")
            .and_then(Json::as_str)
            .unwrap_or("default")
            .to_string();
        if tenant.is_empty() || tenant.len() > MAX_TENANT {
            return Err(format!("tenant must be 1..={MAX_TENANT} bytes"));
        }
        let error_sla = match doc.get("error_sla").and_then(Json::as_str) {
            None => None,
            Some(text) => Some(ErrorSla::parse(text).map_err(|e| e.to_string())?),
        };
        // With an SLA, the design may be omitted (or explicitly
        // "auto"): the QoS controller binds one at schedule time.
        let design = match doc.get("design").and_then(Json::as_str) {
            Some(d) => d.to_string(),
            None if error_sla.is_some() => "auto".to_string(),
            None => return Err("missing required field 'design'".into()),
        };
        let family_name = doc
            .get("family")
            .and_then(Json::as_str)
            .unwrap_or("montecarlo");
        let family = match family_name {
            "montecarlo" => FamilySpec::MonteCarlo {
                samples: doc
                    .get("samples")
                    .and_then(Json::as_u64)
                    .ok_or("montecarlo jobs need an unsigned 'samples'")?,
            },
            "exhaustive" => {
                let range = |key: &str| -> Result<(u64, u64), String> {
                    let v = doc
                        .get(key)
                        .ok_or(format!("exhaustive jobs need '{key}': [lo, hi]"))?;
                    match v.as_array() {
                        Some([lo, hi]) => match (lo.as_u64(), hi.as_u64()) {
                            (Some(lo), Some(hi)) => Ok((lo, hi)),
                            _ => Err(format!("'{key}' bounds must be unsigned integers")),
                        },
                        _ => Err(format!("'{key}' must be a two-element array")),
                    }
                };
                FamilySpec::Exhaustive {
                    a: range("a")?,
                    b: range("b")?,
                }
            }
            other => return Err(format!("unknown family '{other}'")),
        };
        let spec = CampaignSpec {
            design,
            family,
            seed: doc.get("seed").and_then(Json::as_u64).unwrap_or(0),
            chunk: doc.get("chunk").and_then(Json::as_u64),
            error_sla,
        };
        // Reject bad specs at admission, not at execution: the client
        // is still on the line to hear about it.
        spec.validate().map_err(|e| e.to_string())?;
        if spec.design == "auto" {
            if spec.error_sla.is_none() {
                return Err("design 'auto' requires an 'error_sla'".into());
            }
        } else {
            spec.build_design().map_err(|e| e.to_string())?;
        }

        let inject_panic = doc
            .get("inject_panic")
            .and_then(Json::as_array)
            .map(|items| items.iter().filter_map(Json::as_u64).collect())
            .unwrap_or_default();
        Ok(JobRequest {
            tenant,
            priority: doc.get("priority").and_then(Json::as_i64).unwrap_or(0),
            deadline_ms: doc.get("deadline_ms").and_then(Json::as_u64),
            max_retries: doc
                .get("max_retries")
                .and_then(Json::as_u64)
                .map(|n| n.min(16) as u32)
                .unwrap_or(2),
            spec,
            inject_panic,
            persistent_panic: doc
                .get("persistent_panic")
                .and_then(Json::as_bool)
                .unwrap_or(false),
        })
    }

    /// The canonical serialization journaled in the accepted ledger
    /// (and re-parsed by [`from_json`](Self::from_json) on recovery).
    pub fn to_json(&self) -> String {
        let mut members: Vec<(&str, String)> = vec![
            ("tenant", json_string(&self.tenant)),
            ("priority", self.priority.to_string()),
        ];
        if let Some(deadline) = self.deadline_ms {
            members.push(("deadline_ms", deadline.to_string()));
        }
        members.push(("max_retries", self.max_retries.to_string()));
        members.push(("design", json_string(&self.spec.design)));
        match &self.spec.family {
            FamilySpec::MonteCarlo { samples } => {
                members.push(("family", json_string("montecarlo")));
                members.push(("samples", samples.to_string()));
            }
            FamilySpec::Exhaustive { a, b } => {
                members.push(("family", json_string("exhaustive")));
                members.push(("a", format!("[{},{}]", a.0, a.1)));
                members.push(("b", format!("[{},{}]", b.0, b.1)));
            }
        }
        members.push(("seed", self.spec.seed.to_string()));
        if let Some(chunk) = self.spec.chunk {
            members.push(("chunk", chunk.to_string()));
        }
        if let Some(sla) = &self.spec.error_sla {
            members.push(("error_sla", json_string(&sla.text())));
        }
        if !self.inject_panic.is_empty() {
            let list: Vec<String> = self.inject_panic.iter().map(u64::to_string).collect();
            members.push(("inject_panic", format!("[{}]", list.join(","))));
            members.push(("persistent_panic", self.persistent_panic.to_string()));
        }
        object(&members)
    }
}

/// One job in flight: the request plus the server-side identity and
/// retry accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Server-assigned id.
    pub id: JobId,
    /// The client's validated submission.
    pub request: JobRequest,
    /// Executions attempted so far (0 before the first run).
    pub attempts: u32,
    /// Whether this job was re-queued by crash recovery rather than
    /// freshly submitted.
    pub recovered: bool,
}

impl Job {
    /// The campaign scope binding this job's journal (see
    /// `realm_metrics::spec` — same spec, different job, different
    /// journal).
    pub fn scope(&self) -> String {
        format!("job-{}", self.id)
    }
}

/// The job lifecycle states the API reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Admitted (journaled) and waiting for a worker — including
    /// between retry attempts and after crash recovery.
    Queued,
    /// A worker is executing it right now.
    Running,
    /// Finished; the result document is available.
    Completed,
    /// Terminally failed (deadline, invalid at execution).
    Failed,
    /// Retry budget exhausted; kept for inspection, never re-run.
    DeadLetter,
}

impl JobState {
    /// The wire name.
    pub fn as_str(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Completed => "completed",
            JobState::Failed => "failed",
            JobState::DeadLetter => "dead_letter",
        }
    }

    /// Whether the state is terminal (recorded in the done ledger).
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Completed | JobState::Failed | JobState::DeadLetter
        )
    }

    /// Inverse of [`as_str`](Self::as_str), for ledger recovery.
    pub fn parse(text: &str) -> Option<JobState> {
        Some(match text {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "completed" => JobState::Completed,
            "failed" => JobState::Failed,
            "dead_letter" => JobState::DeadLetter,
            _ => return None,
        })
    }
}

impl fmt::Display for JobState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A terminal outcome, as journaled in the done ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct Terminal {
    /// `Completed`, `Failed` or `DeadLetter`.
    pub state: JobState,
    /// Human diagnostic (empty for completed jobs).
    pub detail: String,
    /// The byte-stable result document (completed jobs only).
    pub result: Option<String>,
}

impl Terminal {
    /// The done-ledger payload.
    pub fn to_json(&self) -> String {
        let mut members: Vec<(&str, String)> = vec![
            ("state", json_string(self.state.as_str())),
            ("detail", json_string(&self.detail)),
        ];
        if let Some(result) = &self.result {
            // The result is itself a JSON document; embed it verbatim so
            // its bytes survive the round-trip exactly.
            members.push(("result", result.clone()));
        }
        object(&members)
    }

    /// Parses a done-ledger payload.
    pub fn from_json(text: &str) -> Option<Terminal> {
        let doc = Json::parse(text).ok()?;
        let state = JobState::parse(doc.get("state")?.as_str()?)?;
        if !state.is_terminal() {
            return None;
        }
        Some(Terminal {
            state,
            detail: doc.get("detail")?.as_str()?.to_string(),
            // Re-render the embedded result; `result_json` emits it
            // compactly so the render is byte-identical.
            result: doc.get("result").map(render_result),
        })
    }
}

/// The byte-stable result document of a completed job. Deliberately a
/// pure function of the *spec outcome* (not of job id, timing, tenant
/// or retry history) so that two jobs with equal specs — or one job
/// killed and resumed — produce byte-identical results: the floats are
/// [`exact_f64`] objects, and the campaign fold is bit-identical across
/// threads, resumes and restarts.
pub fn result_json(spec: &CampaignSpec, summary: &ErrorSummary) -> String {
    let mut members = vec![
        ("schema", json_string("realm-serve/result/v1")),
        ("design", json_string(&spec.design)),
    ];
    if let Some(sla) = &spec.error_sla {
        members.push(("error_sla", json_string(&sla.text())));
    }
    members.extend([
        ("seed", spec.seed.to_string()),
        ("samples", summary.samples.to_string()),
        ("bias", exact_f64(summary.bias)),
        ("mean_error", exact_f64(summary.mean_error)),
        ("variance", exact_f64(summary.variance)),
        ("min_error", exact_f64(summary.min_error)),
        ("max_error", exact_f64(summary.max_error)),
    ]);
    object(&members)
}

/// Re-renders a parsed result document in the exact `result_json`
/// member order/format (used when a terminal record is replayed from
/// the ledger).
fn render_result(doc: &Json) -> String {
    let num = |key: &str| doc.get(key).map(render_value).unwrap_or_default();
    let mut members = vec![("schema", num("schema")), ("design", num("design"))];
    if doc.get("error_sla").is_some() {
        members.push(("error_sla", num("error_sla")));
    }
    members.extend([
        ("seed", num("seed")),
        ("samples", num("samples")),
        ("bias", num("bias")),
        ("mean_error", num("mean_error")),
        ("variance", num("variance")),
        ("min_error", num("min_error")),
        ("max_error", num("max_error")),
    ]);
    object(&members)
}

/// Renders one parsed JSON value compactly (the shapes `result_json`
/// emits: strings, numbers, and the `{"value","bits"}` float objects).
fn render_value(v: &Json) -> String {
    match v {
        Json::Null => "null".to_string(),
        Json::Bool(b) => b.to_string(),
        Json::Num(text) => text.clone(),
        Json::Str(s) => json_string(s),
        Json::Arr(items) => {
            let inner: Vec<String> = items.iter().map(render_value).collect();
            format!("[{}]", inner.join(","))
        }
        Json::Obj(members) => {
            let rendered: Vec<(&str, String)> = members
                .iter()
                .map(|(k, v)| (k.as_str(), render_value(v)))
                .collect();
            object(&rendered)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_request(doc: &str) -> Result<JobRequest, String> {
        JobRequest::from_json(&Json::parse(doc).expect("test doc parses"))
    }

    #[test]
    fn submission_round_trips_through_the_ledger_encoding() {
        let doc = r#"{"tenant":"alice","priority":7,"deadline_ms":60000,"max_retries":3,
                      "family":"montecarlo","design":"realm:m=8,t=1","samples":4096,
                      "seed":11,"chunk":512,"inject_panic":[2],"persistent_panic":true}"#;
        let req = parse_request(doc).unwrap();
        assert_eq!(req.tenant, "alice");
        assert_eq!(req.priority, 7);
        assert_eq!(req.deadline_ms, Some(60_000));
        let encoded = req.to_json();
        let back = parse_request(&encoded).unwrap();
        assert_eq!(req, back, "ledger encoding must round-trip exactly");
        // Canonical: encoding is a fixed point.
        assert_eq!(encoded, back.to_json());
    }

    #[test]
    fn exhaustive_submissions_parse() {
        let req =
            parse_request(r#"{"family":"exhaustive","design":"calm","a":[32,95],"b":[1,64]}"#)
                .unwrap();
        assert_eq!(
            req.spec.family,
            FamilySpec::Exhaustive {
                a: (32, 95),
                b: (1, 64)
            }
        );
        let back = parse_request(&req.to_json()).unwrap();
        assert_eq!(req, back);
    }

    #[test]
    fn defaults_are_sensible() {
        let req = parse_request(r#"{"design":"accurate","samples":100}"#).unwrap();
        assert_eq!(req.tenant, "default");
        assert_eq!(req.priority, 0);
        assert_eq!(req.max_retries, 2);
        assert_eq!(req.deadline_ms, None);
        assert!(!req.persistent_panic);
    }

    #[test]
    fn sla_jobs_round_trip_and_default_to_auto_design() {
        let req =
            parse_request(r#"{"tenant":"bob","samples":256,"error_sla":"mean:0.03"}"#).unwrap();
        assert_eq!(req.spec.design, "auto");
        assert_eq!(req.spec.error_sla.unwrap().mean, Some(0.03));
        let back = parse_request(&req.to_json()).unwrap();
        assert_eq!(req, back, "SLA must survive the ledger encoding");

        // An explicit design plus an SLA is also legal: run that
        // design, score it against the budget.
        let req = parse_request(
            r#"{"design":"realm:m=8,t=1","samples":64,"error_sla":"mean:0.05,peak:0.2"}"#,
        )
        .unwrap();
        assert_eq!(req.spec.design, "realm:m=8,t=1");
        assert_eq!(parse_request(&req.to_json()).unwrap(), req);
    }

    #[test]
    fn invalid_submissions_are_diagnosed_at_admission() {
        for (doc, needle) in [
            (r#"{"samples":10}"#, "design"),
            (r#"{"design":"warp-core","samples":10}"#, "unknown design"),
            (r#"{"design":"accurate"}"#, "samples"),
            (
                r#"{"design":"accurate","samples":0}"#,
                "samples must be > 0",
            ),
            (
                r#"{"design":"accurate","family":"psychic"}"#,
                "unknown family",
            ),
            (
                r#"{"design":"accurate","family":"exhaustive","a":[9,1],"b":[1,2]}"#,
                "empty",
            ),
            (r#"{"design":"accurate","samples":1,"tenant":""}"#, "tenant"),
            (
                r#"{"design":"accurate","samples":1,"error_sla":"mean:banana"}"#,
                "not a number",
            ),
            (
                r#"{"design":"auto","samples":1}"#,
                "requires an 'error_sla'",
            ),
        ] {
            let err = parse_request(doc).expect_err(doc);
            assert!(err.contains(needle), "{doc}: {err}");
        }
    }

    #[test]
    fn terminal_round_trips_with_byte_identical_result() {
        let spec = CampaignSpec {
            design: "realm".into(),
            family: FamilySpec::MonteCarlo { samples: 100 },
            seed: 3,
            chunk: None,
            error_sla: None,
        };
        let summary = ErrorSummary {
            samples: 100,
            bias: -0.001234,
            mean_error: 0.0077,
            variance: 1.5e-5,
            min_error: -0.0208,
            max_error: 0.0,
        };
        let result = result_json(&spec, &summary);
        let term = Terminal {
            state: JobState::Completed,
            detail: String::new(),
            result: Some(result.clone()),
        };
        let back = Terminal::from_json(&term.to_json()).unwrap();
        assert_eq!(back.state, JobState::Completed);
        assert_eq!(
            back.result.as_deref(),
            Some(result.as_str()),
            "result bytes must survive the ledger round-trip exactly"
        );
        // Failure terminals carry no result.
        let dead = Terminal {
            state: JobState::DeadLetter,
            detail: "retries exhausted".into(),
            result: None,
        };
        let back = Terminal::from_json(&dead.to_json()).unwrap();
        assert_eq!(back, dead);
        // Non-terminal states are rejected.
        assert!(Terminal::from_json(r#"{"state":"queued","detail":""}"#).is_none());
    }

    #[test]
    fn state_names_round_trip() {
        for state in [
            JobState::Queued,
            JobState::Running,
            JobState::Completed,
            JobState::Failed,
            JobState::DeadLetter,
        ] {
            assert_eq!(JobState::parse(state.as_str()), Some(state));
        }
        assert!(JobState::parse("zombie").is_none());
    }
}
