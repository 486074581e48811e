//! The campaign service: HTTP front door, admission, a fixed worker
//! pool running jobs under per-job [`Supervisor`]s, retry/backoff,
//! crash recovery from the ledgers, and graceful drain.
//!
//! # Threading model
//!
//! * `http_threads` acceptor threads block in `accept()` on one shared
//!   listener; each serves one connection at a time (`Connection:
//!   close`). A panic while answering a request is caught per
//!   connection: the client gets a 500, `http_panics_total` counts it,
//!   and the acceptor goes on serving.
//! * `workers` worker threads block on the [`AdmissionQueue`] and run
//!   one job at a time; each job gets its own supervisor (and may use
//!   `job_threads` chunk threads of its own). A panic in a job attempt
//!   outside its supervised chunks is caught per attempt:
//!   `job_panics_total` counts it, and the job takes the retry /
//!   dead-letter path a failed run takes.
//! * Shutdown: the cancel token stops running supervisors at their next
//!   chunk boundary (checkpointed), the queue closes (workers drain
//!   out, admission 503s), then `accepting` is cleared and each
//!   acceptor is woken by a connection to the listener's own address
//!   (loopback for an unspecified bind), and the metrics summary is
//!   flushed.

use std::collections::BTreeMap;
use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use realm_harness::{atomic_write_str, discover, Backoff, CancelToken, StopCause, Supervisor};
use realm_metrics::{ErrorSla, ErrorSummary};
use realm_obs::{json_string, Collector, Event, Fanout, JsonlSink, Registry};
use realm_par::{panic_message, Threads};
use realm_qos::{Action, Controller, ControllerConfig, Observation, QosTable, TableConfig};

use crate::http::{read_request, ParseError, Request, Response};
use crate::job::{result_json, Job, JobId, JobRequest, JobState, Terminal};
use crate::ledger::Ledgers;
use crate::queue::{AdmissionQueue, AdmitError, AdmitResult};
use realm_obs::json::{object, Json};

/// Server configuration (every knob has a serviceable default).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port (the chosen address is
    /// written to `<dir>/serve.addr`).
    pub addr: String,
    /// Service directory: ledgers, per-job campaign journals
    /// (`jobs/`), per-job traces (`traces/`), `serve.addr`,
    /// `metrics_summary.json`.
    pub dir: PathBuf,
    /// Worker threads (concurrent jobs).
    pub workers: usize,
    /// Admission queue capacity — beyond this, submissions shed (429).
    pub queue_capacity: usize,
    /// Chunk threads per job supervisor (0 = auto).
    pub job_threads: usize,
    /// Chunk-level retry budget inside each supervisor run.
    pub chunk_retries: u32,
    /// Job-level retry backoff (base, cap); jitter is seeded per job.
    pub backoff_base: Duration,
    /// Cap for the job-level retry backoff.
    pub backoff_max: Duration,
    /// Whether to write a per-job JSONL trace under `<dir>/traces/`.
    pub trace_jobs: bool,
    /// HTTP acceptor threads.
    pub http_threads: usize,
    /// The shutdown/drain token (the binary passes a SIGTERM-wired
    /// token; tests cancel it directly).
    pub cancel: CancelToken,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            dir: std::env::temp_dir().join("realm-serve"),
            workers: 4,
            queue_capacity: 64,
            job_threads: 1,
            chunk_retries: 2,
            backoff_base: Duration::from_millis(50),
            backoff_max: Duration::from_secs(2),
            trace_jobs: false,
            http_threads: 4,
            cancel: CancelToken::new(),
        }
    }
}

/// What the API reports about one job.
#[derive(Debug, Clone)]
struct JobView {
    tenant: String,
    design: String,
    state: JobState,
    detail: String,
    attempts: u32,
    recovered: bool,
    result: Option<String>,
}

impl JobView {
    fn to_json(&self, id: JobId) -> String {
        object(&[
            ("id", id.to_string()),
            ("tenant", json_string(&self.tenant)),
            ("design", json_string(&self.design)),
            ("state", json_string(self.state.as_str())),
            ("detail", json_string(&self.detail)),
            ("attempts", self.attempts.to_string()),
            ("recovered", self.recovered.to_string()),
        ])
    }
}

struct State {
    config: ServeConfig,
    queue: AdmissionQueue,
    ledgers: Ledgers,
    registry: Arc<Registry>,
    jobs: Mutex<BTreeMap<JobId, JobView>>,
    next_id: AtomicU64,
    running: AtomicU64,
    draining: AtomicBool,
    accepting: AtomicBool,
    qos: Mutex<QosRuntime>,
    /// Runs in `submit` right after admission, before the reply: lets a
    /// test have a worker finish the job first.
    #[cfg(test)]
    after_admit: Mutex<Option<AdmitHook>>,
    /// Runs in `run_job` right before `finish`: lets a test panic an
    /// attempt outside its supervised chunks.
    #[cfg(test)]
    before_finish: Mutex<Option<FinishHook>>,
}

#[cfg(test)]
type AdmitHook = Box<dyn Fn(&State) + Send>;
#[cfg(test)]
type FinishHook = Box<dyn Fn(&State, &Job, &Terminal) + Send>;

/// Per-tenant error-budget bookkeeping: the characterized table (lazy,
/// persisted as `<dir>/qos_tables.json`) plus one SLA controller per
/// tenant.
#[derive(Default)]
struct QosRuntime {
    table: Option<QosTable>,
    controllers: BTreeMap<String, TenantQos>,
}

struct TenantQos {
    sla: String,
    controller: Controller,
}

/// The characterization the server runs when no (valid) table file is
/// on disk: small enough to regenerate inside one admission call, big
/// enough to rank the zoo.
fn qos_table_config() -> TableConfig {
    TableConfig {
        samples: 1 << 12,
        seed: 0xEA51_1AB5,
        cycles: 32,
        threads: Threads::Auto,
    }
}

impl State {
    /// The job views, also after a panic poisoned their lock (a caught
    /// panic in a request handler leaves the process running). Every
    /// section under this lock inserts, removes, replaces or reads one
    /// whole view, so a panic inside it leaves no half-written entry.
    /// The queue, ledger and QoS locks stay strict: their sections edit
    /// several linked fields (tenant lanes and counts, a journal file
    /// and its offset, a controller's rung and history) that a panic can
    /// leave out of step, so refusing is safer there than reading on.
    fn jobs(&self) -> MutexGuard<'_, BTreeMap<JobId, JobView>> {
        self.jobs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn view(&self, id: JobId) -> Option<JobView> {
        self.jobs().get(&id).cloned()
    }

    fn update(&self, id: JobId, f: impl FnOnce(&mut JobView)) {
        if let Some(view) = self.jobs().get_mut(&id) {
            // Edit a copy and store it whole: a panic inside `f` leaves
            // the view as it was.
            let mut next = view.clone();
            f(&mut next);
            *view = next;
        }
    }

    fn refresh_gauges(&self) {
        self.registry
            .gauge("queue_depth", self.queue.depth() as f64);
        self.registry
            .gauge("jobs_running", self.running.load(Ordering::Relaxed) as f64);
        self.registry.gauge(
            "draining",
            if self.draining.load(Ordering::Relaxed) {
                1.0
            } else {
                0.0
            },
        );
    }

    /// Binds a design for an `"auto"` submission: the tenant's
    /// controller picks the cheapest characterized configuration
    /// satisfying the SLA. The first SLA job pays for the table —
    /// loaded from `qos_tables.json` when its fingerprint matches,
    /// characterized (and saved) otherwise.
    fn qos_bind(&self, tenant: &str, sla: ErrorSla) -> Result<String, (u16, String)> {
        let mut qos = self
            .qos
            .lock()
            .map_err(|_| (500u16, "qos state poisoned".to_string()))?;
        if qos.table.is_none() {
            let cfg = qos_table_config();
            let path = self.config.dir.join("qos_tables.json");
            let table = match QosTable::load(&path, Some(cfg.fingerprint())) {
                Ok(table) => table,
                Err(_) => {
                    let table = QosTable::characterize(&cfg)
                        .map_err(|e| (500u16, format!("qos characterization failed: {e}")))?;
                    let _ = table.save(&path);
                    table
                }
            };
            qos.table = Some(table);
        }
        let table = qos
            .table
            .clone()
            .ok_or_else(|| (500u16, "qos table unavailable".to_string()))?;
        let sla_text = sla.text();
        let stale = qos
            .controllers
            .get(tenant)
            .is_none_or(|tc| tc.sla != sla_text);
        if stale {
            let controller = Controller::new(&table, sla, ControllerConfig::default())
                .map_err(|e| (400u16, e.to_string()))?;
            qos.controllers.insert(
                tenant.to_string(),
                TenantQos {
                    sla: sla_text,
                    controller,
                },
            );
        }
        let tc = qos
            .controllers
            .get(tenant)
            .ok_or_else(|| (500u16, "qos controller unavailable".to_string()))?;
        self.registry
            .gauge(&format!("qos_rung:{tenant}"), tc.controller.rung() as f64);
        Ok(tc.controller.current().design.clone())
    }

    /// Feeds a completed SLA job's delivered error back to the tenant's
    /// controller (error drift escalates the binding for the tenant's
    /// *next* job) and narrates any switch through the registry.
    fn qos_observe(&self, tenant: &str, design: &str, summary: &ErrorSummary) {
        let Ok(mut qos) = self.qos.lock() else { return };
        let Some(tc) = qos.controllers.get_mut(tenant) else {
            return;
        };
        // Only the controller-bound configuration is feedback for the
        // controller; explicitly-pinned designs are scored but not fed.
        if tc.controller.current().design != design {
            return;
        }
        let obs = Observation::new(summary.mean_error).with_peak_error(summary.peak_error());
        let target_mean = tc.controller.sla().mean.unwrap_or(0.0);
        let decision = tc.controller.observe(&obs);
        if decision.breached {
            self.registry.record(&Event::Escalation {
                scope: tenant.to_string(),
                config: decision.from.clone(),
                observed_mean: obs.mean_error,
                target_mean,
                fallback_rate: obs.fallback_rate,
            });
        }
        if decision.action != Action::Hold {
            self.registry.record(&Event::ConfigSwitch {
                scope: tenant.to_string(),
                from: decision.from.clone(),
                to: decision.to.clone(),
                reason: decision.reason.clone(),
            });
        }
        self.registry
            .gauge(&format!("qos_rung:{tenant}"), tc.controller.rung() as f64);
    }

    /// Best-effort removal of a finished job's campaign journal.
    fn remove_job_journal(&self, job: &Job) {
        let scope = job.scope();
        if let Ok(id) = job.request.spec.campaign_id(Some(&scope)) {
            let path = self.config.dir.join("jobs").join(id.journal_file_name());
            let _ = std::fs::remove_file(path);
        }
    }
}

/// A running server (see the [module docs](self)).
pub struct Server {
    state: Arc<State>,
    addr: SocketAddr,
    workers: Vec<JoinHandle<()>>,
    acceptors: Vec<JoinHandle<()>>,
}

impl Server {
    /// Recovers state from `config.dir`, binds the listener, and starts
    /// the worker and acceptor threads.
    pub fn start(config: ServeConfig) -> io::Result<Server> {
        let dir = config.dir.clone();
        std::fs::create_dir_all(dir.join("jobs"))?;
        if config.trace_jobs {
            std::fs::create_dir_all(dir.join("traces"))?;
        }
        let (ledgers, recovered) = Ledgers::open(&dir).map_err(io::Error::other)?;

        let registry = Arc::new(Registry::new());
        let queue = AdmissionQueue::new(config.queue_capacity);
        let state = Arc::new(State {
            queue,
            ledgers,
            registry,
            jobs: Mutex::new(BTreeMap::new()),
            next_id: AtomicU64::new(recovered.next_id),
            running: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            accepting: AtomicBool::new(true),
            qos: Mutex::new(QosRuntime::default()),
            #[cfg(test)]
            after_admit: Mutex::new(None),
            #[cfg(test)]
            before_finish: Mutex::new(None),
            config,
        });

        // Replay terminal jobs so /jobs/<id> and /result survive
        // restarts, and sweep their leftover campaign journals (a crash
        // between record_done and journal removal leaves one behind).
        {
            let mut jobs = state.jobs();
            for (job, terminal) in &recovered.terminal {
                jobs.insert(
                    job.id,
                    JobView {
                        tenant: job.request.tenant.clone(),
                        design: job.request.spec.design.clone(),
                        state: terminal.state,
                        detail: terminal.detail.clone(),
                        attempts: 0,
                        recovered: true,
                        result: terminal.result.clone(),
                    },
                );
            }
            for job in &recovered.incomplete {
                jobs.insert(
                    job.id,
                    JobView {
                        tenant: job.request.tenant.clone(),
                        design: job.request.spec.design.clone(),
                        state: JobState::Queued,
                        detail: "recovered after restart".into(),
                        attempts: 0,
                        recovered: true,
                        result: None,
                    },
                );
            }
        }
        for (job, terminal) in &recovered.terminal {
            // Dead-lettered jobs keep their journal for post-mortem.
            if terminal.state != JobState::DeadLetter {
                state.remove_job_journal(job);
            }
        }
        state.registry.gauge(
            "job_journals_on_disk",
            discover(&dir.join("jobs"))
                .map(|infos| infos.len())
                .unwrap_or(0) as f64,
        );
        state
            .registry
            .incr("jobs_recovered_total", recovered.incomplete.len() as u64);
        state
            .registry
            .incr("ledger_skipped_total", recovered.skipped);
        for job in recovered.incomplete {
            state.queue.requeue(job);
        }

        let listener = TcpListener::bind(&state.config.addr)?;
        let addr = listener.local_addr()?;
        atomic_write_str(&dir.join("serve.addr"), &format!("{addr}\n"))?;

        let workers = (0..state.config.workers.max(1))
            .map(|_| {
                let state = state.clone();
                std::thread::spawn(move || worker_loop(&state))
            })
            .collect();
        let acceptors = (0..state.config.http_threads.max(1))
            .map(|_| {
                let state = state.clone();
                let listener = listener.try_clone();
                std::thread::spawn(move || {
                    if let Ok(listener) = listener {
                        accept_loop(&state, &listener);
                    }
                })
            })
            .collect();

        Ok(Server {
            state,
            addr,
            workers,
            acceptors,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The metrics registry (shared with every job supervisor).
    pub fn registry(&self) -> Arc<Registry> {
        self.state.registry.clone()
    }

    /// Begins a graceful drain: running jobs stop at their next chunk
    /// boundary (checkpointed), queued jobs stay in the ledger for the
    /// next start, new submissions get 503. The HTTP listener keeps
    /// answering reads so clients can observe the drain.
    pub fn drain(&self) {
        self.state.draining.store(true, Ordering::SeqCst);
        self.state.config.cancel.cancel();
        self.state.queue.close();
        self.state.refresh_gauges();
    }

    /// Drains, joins the workers, wakes and joins the acceptors (one
    /// still held after a bounded number of wake rounds is detached),
    /// and flushes the metrics summary.
    pub fn shutdown(self) -> io::Result<()> {
        self.drain();
        for worker in self.workers {
            let _ = worker.join();
        }
        self.state.accepting.store(false, Ordering::SeqCst);
        wake_acceptors(self.addr, &self.acceptors);
        // An acceptor still parked after every wake attempt is left
        // behind (detached) rather than joined: shutdown must not hang.
        for acceptor in self.acceptors {
            if acceptor.is_finished() {
                let _ = acceptor.join();
            }
        }
        self.state.refresh_gauges();
        atomic_write_str(
            &self.state.config.dir.join("metrics_summary.json"),
            &self.state.registry.snapshot().to_json(),
        )
    }

    /// Whether the drain token has tripped (SIGTERM or [`drain`](Self::drain)).
    pub fn drain_requested(&self) -> bool {
        self.state.config.cancel.is_cancelled()
    }
}

fn worker_loop(state: &Arc<State>) {
    while let Some(job) = state.queue.pop() {
        state.running.fetch_add(1, Ordering::Relaxed);
        let retry = job.clone();
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| run_job(state, job))) {
            state.registry.incr("job_panics_total", 1);
            // `finish` makes the view terminal right after the done
            // record is durable: such a job is over and must not run
            // again.
            let done = state
                .view(retry.id)
                .is_some_and(|view| view.state.is_terminal());
            if !done {
                let failure = format!("panicked: {}", panic_message(payload.as_ref()));
                retry_or_dead_letter(state, retry, &failure);
            }
        }
        state.running.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Runs one job attempt end to end and routes the outcome: complete,
/// retry with backoff, dead-letter, terminal failure, or "shutdown —
/// leave for the next start".
fn run_job(state: &State, job: Job) {
    state.update(job.id, |view| {
        view.state = JobState::Running;
        view.attempts = job.attempts + 1;
    });
    state.refresh_gauges();

    let config = &state.config;
    let mut supervisor = Supervisor::new()
        .with_threads(Threads::from_count(config.job_threads))
        .with_retries(config.chunk_retries)
        .with_retry_backoff(
            Backoff::new(Duration::from_millis(1), Duration::from_millis(20)).with_seed(job.id),
        )
        .with_cancel(config.cancel.clone())
        .checkpoint_to(config.dir.join("jobs"))
        .resume(true)
        .with_injected_panics(&job.request.inject_panic, job.request.persistent_panic);
    if let Some(ms) = job.request.deadline_ms {
        supervisor = supervisor.with_deadline(Duration::from_millis(ms));
    }
    let sink = if config.trace_jobs {
        // One stream per attempt: seq restarts at 0 in each file, and a
        // retry never clobbers the trace of the attempt it replaces.
        Some(Arc::new(JsonlSink::new(config.dir.join("traces").join(
            format!("job-{}-attempt-{}.jsonl", job.id, job.attempts + 1),
        ))))
    } else {
        None
    };
    let mut fanout = Fanout::new().with(state.registry.clone());
    if let Some(sink) = &sink {
        fanout = fanout.with(sink.clone());
    }
    supervisor = supervisor.with_collector(fanout.shared());

    let scope = job.scope();
    let outcome = job.request.spec.run_supervised(Some(&scope), &supervisor);
    if let Some(sink) = &sink {
        let _ = sink.finish();
    }

    let run = match outcome {
        Ok(run) => run,
        Err(e) => return retry_or_dead_letter(state, job, &format!("execution error: {e}")),
    };
    let terminal = if run.report.stopped == Some(StopCause::Cancelled) {
        // Drain: the job's completed chunks are journaled; the accepted
        // ledger still holds it; the next start re-queues and resumes it
        // bit-identically.
        state.update(job.id, |view| {
            view.state = JobState::Queued;
            view.detail = "draining; will resume on next start".into();
        });
        return;
    } else if run.report.stopped == Some(StopCause::Deadline) {
        // Deadlines are promises to the client, not retryable.
        Terminal {
            state: JobState::Failed,
            detail: format!(
                "deadline exceeded with {} of {} chunks pending",
                run.report.pending_chunks(),
                run.report.total_chunks
            ),
            result: None,
        }
    } else if let (Some(summary), true) = (&run.value, run.report.is_complete()) {
        if let Some(sla) = job.request.spec.error_sla {
            // NMED is a population metric the per-job summary does not
            // carry; score the components the run actually measured.
            let met = sla.mean.is_none_or(|limit| summary.mean_error <= limit)
                && sla.peak.is_none_or(|limit| summary.peak_error() <= limit);
            state.registry.incr(
                if met {
                    "sla_jobs_met_total"
                } else {
                    "sla_jobs_violated_total"
                },
                1,
            );
            state.qos_observe(&job.request.tenant, &job.request.spec.design, summary);
        }
        Terminal {
            state: JobState::Completed,
            detail: String::new(),
            result: Some(result_json(&job.request.spec, summary)),
        }
    } else {
        let quarantined: Vec<String> = run
            .report
            .quarantined
            .iter()
            .map(|q| q.to_string())
            .collect();
        let failure = format!("incomplete run: {}", quarantined.join("; "));
        return retry_or_dead_letter(state, job, &failure);
    };
    #[cfg(test)]
    if let Some(hook) = state
        .before_finish
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .as_ref()
    {
        // The hook's own panics poison this lock; it must fire again.
        hook(state, &job, &terminal);
    }
    finish(state, &job, terminal);
}

/// The tail of a failed attempt, whether the run ended incomplete or
/// the attempt panicked: back into the queue after a backoff while the
/// job's retry budget lasts, dead-lettered after that.
fn retry_or_dead_letter(state: &State, mut job: Job, failure: &str) {
    job.attempts += 1;
    if job.attempts <= job.request.max_retries {
        let config = &state.config;
        let backoff = Backoff::new(config.backoff_base, config.backoff_max).with_seed(job.id);
        let delay = backoff.delay(job.attempts);
        state.registry.incr("jobs_retried_total", 1);
        state.update(job.id, |view| {
            view.state = JobState::Queued;
            view.attempts = job.attempts;
            view.detail = format!(
                "attempt {} failed ({failure}); retrying in {delay:?}",
                job.attempts
            );
        });
        state.queue.requeue_after(job, delay);
    } else {
        finish(
            state,
            &job,
            Terminal {
                state: JobState::DeadLetter,
                detail: format!(
                    "retries exhausted after {} attempts: {failure}",
                    job.attempts
                ),
                result: None,
            },
        );
    }
    state.refresh_gauges();
}

/// Records a terminal transition: done ledger first (durability), then
/// its counter and the in-memory view, then journal cleanup. Only the
/// counter (which cannot panic) sits between the ledger write and the
/// view, so a view is terminal exactly when its outcome is durable: the
/// worker's panic guard relies on it.
fn finish(state: &State, job: &Job, terminal: Terminal) {
    if let Err(e) = state.ledgers.record_done(job.id, &terminal) {
        // The outcome could not be made durable; leave the job
        // incomplete so the next start re-runs it (bit-identical).
        state.update(job.id, |view| {
            view.state = JobState::Queued;
            view.detail = format!("done-ledger write failed: {e}");
        });
        return;
    }
    let metric = match terminal.state {
        JobState::Completed => "jobs_completed_total",
        JobState::Failed => "jobs_failed_total",
        _ => "jobs_dead_letter_total",
    };
    state.registry.incr(metric, 1);
    state.update(job.id, |view| {
        view.state = terminal.state;
        view.detail = terminal.detail.clone();
        view.result = terminal.result.clone();
    });
    if terminal.state != JobState::DeadLetter {
        state.remove_job_journal(job);
    }
    state.refresh_gauges();
}

/// Blocks in `accept()` and serves each connection; returns on the first
/// connection (or accept error) seen after shutdown clears `accepting`.
fn accept_loop(state: &Arc<State>, listener: &TcpListener) {
    loop {
        let accepted = listener.accept();
        if !state.accepting.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _)) => serve_connection(state, stream),
            // EMFILE and the like: back off instead of spinning.
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Rounds of wake connections [`wake_acceptors`] makes before it gives
/// up on the acceptors still alive.
const WAKE_ROUNDS: u32 = 100;

/// Where a connection to a listener bound at `addr` goes: the address
/// itself, or loopback for an unspecified bind (`0.0.0.0`, `::`).
fn wake_target(addr: SocketAddr) -> SocketAddr {
    let mut target = addr;
    if addr.ip().is_unspecified() {
        target.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    target
}

/// Wakes every acceptor parked in `accept()` once `accepting` is false:
/// each connection to the listener's own address releases one of them.
/// Rounds repeat, one connection per acceptor still alive, until all
/// have finished. After [`WAKE_ROUNDS`] the rest are given up on: one
/// that a slow client holds exits on a leftover wake connection once it
/// is done, and a listener the wake cannot reach must not hang shutdown.
fn wake_acceptors(addr: SocketAddr, acceptors: &[JoinHandle<()>]) {
    let target = wake_target(addr);
    for _ in 0..WAKE_ROUNDS {
        let alive = acceptors.iter().filter(|a| !a.is_finished()).count();
        if alive == 0 {
            return;
        }
        for _ in 0..alive {
            // A local connect completes in microseconds; a timeout
            // means the SYN was dropped.
            let _ = TcpStream::connect_timeout(&target, Duration::from_millis(20));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn serve_connection(state: &Arc<State>, mut stream: TcpStream) {
    // Bound how long a slow or hostile client can hold this thread.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let response = match read_request(&mut stream) {
        Ok(request) => match catch_unwind(AssertUnwindSafe(|| route(state, &request))) {
            Ok(response) => response,
            Err(_) => {
                state.registry.incr("http_panics_total", 1);
                Response::error(500, "internal error while answering the request")
            }
        },
        Err(ParseError::BodyTooLarge) => Response::error(413, "request body too large"),
        Err(ParseError::Malformed(detail)) => Response::error(400, detail),
        Err(ParseError::Io(_)) => return, // peer went away; nothing to say
    };
    let _ = response.write_to(&mut stream);
}

/// Routes one request (pure: no I/O besides state access).
fn route(state: &Arc<State>, request: &Request) -> Response {
    state.registry.incr("requests_total", 1);
    let path = request.path.as_str();
    match (request.method.as_str(), path) {
        ("POST", "/jobs") => submit(state, &request.body),
        ("GET", "/jobs") => list_jobs(state),
        ("GET", "/healthz") => {
            state.refresh_gauges();
            let draining = state.draining.load(Ordering::SeqCst);
            Response::json(
                if draining { 503 } else { 200 },
                object(&[
                    (
                        "status",
                        json_string(if draining { "draining" } else { "ok" }),
                    ),
                    ("draining", draining.to_string()),
                    ("queue_depth", state.queue.depth().to_string()),
                    (
                        "jobs_running",
                        state.running.load(Ordering::Relaxed).to_string(),
                    ),
                ]) + "\n",
            )
        }
        ("GET", "/metrics") => {
            state.refresh_gauges();
            Response::json(200, state.registry.snapshot().to_json())
        }
        ("GET", _) if path.starts_with("/jobs/") => job_detail(state, path),
        ("POST" | "GET", _) => Response::error(404, "no such resource"),
        _ => Response::error(405, "method not allowed"),
    }
}

fn submit(state: &Arc<State>, body: &[u8]) -> Response {
    let Ok(text) = std::str::from_utf8(body) else {
        return Response::error(400, "body must be UTF-8 JSON");
    };
    let doc = match Json::parse(text) {
        Ok(doc) => doc,
        Err(e) => return Response::error(400, &format!("invalid JSON: {e}")),
    };
    let mut request = match JobRequest::from_json(&doc) {
        Ok(request) => request,
        Err(detail) => return Response::error(400, &detail),
    };
    if request.spec.design == "auto" {
        // Resolve the binding at admission so the ledger records the
        // concrete design: recovery replays the identical spec.
        let Some(sla) = request.spec.error_sla else {
            return Response::error(400, "design 'auto' requires an 'error_sla'");
        };
        match state.qos_bind(&request.tenant, sla) {
            Ok(design) => request.spec.design = design,
            Err((status, detail)) => {
                return Response::error(status, &format!("cannot bind design for SLA: {detail}"))
            }
        }
    }
    let job = Job {
        id: state.next_id.fetch_add(1, Ordering::SeqCst),
        request,
        attempts: 0,
        recovered: false,
    };
    let id = job.id;
    let view = JobView {
        tenant: job.request.tenant.clone(),
        design: job.request.spec.design.clone(),
        state: JobState::Queued,
        detail: String::new(),
        attempts: 0,
        recovered: false,
        result: None,
    };
    // The view goes in before admission: an admitted job can run to
    // completion before this thread runs again, and the worker's status
    // updates must find the view. A job that is not admitted loses it.
    state.jobs().insert(id, view);
    // Journal-before-ack: the ledger append (fsync) runs inside the
    // admission decision, so a 202 implies the job survives a crash.
    let admitted = state
        .queue
        .admit(job, |job| state.ledgers.record_accepted(job));
    #[cfg(test)]
    if let Ok(hook) = state.after_admit.lock() {
        if let Some(hook) = hook.as_ref() {
            hook(state);
        }
    }
    if admitted.is_err() {
        state.jobs().remove(&id);
    }
    match admitted {
        Ok(()) => {
            state.registry.incr("jobs_accepted_total", 1);
            state.refresh_gauges();
            Response::json(
                202,
                object(&[
                    ("id", id.to_string()),
                    ("state", json_string("queued")),
                    ("location", json_string(&format!("/jobs/{id}"))),
                ]) + "\n",
            )
            .with_header("location", format!("/jobs/{id}"))
        }
        Err(AdmitResult::Rejected(AdmitError::Full)) => {
            state.registry.incr("jobs_shed_total", 1);
            Response::error(429, "queue full; retry later").with_header("retry-after", "1")
        }
        Err(AdmitResult::Rejected(AdmitError::Draining)) => {
            Response::error(503, "server is draining")
        }
        Err(AdmitResult::CommitFailed(e)) => {
            Response::error(500, &format!("could not journal the job: {e}"))
        }
    }
}

fn list_jobs(state: &Arc<State>) -> Response {
    let rendered = state
        .jobs()
        .iter()
        .map(|(id, view)| view.to_json(*id))
        .collect::<Vec<_>>()
        .join(",");
    Response::json(
        200,
        format!(
            "{{\"jobs\":[{rendered}],\"queue_depth\":{}}}\n",
            state.queue.depth()
        ),
    )
}

fn job_detail(state: &Arc<State>, path: &str) -> Response {
    let rest = &path["/jobs/".len()..];
    let (id_text, tail) = match rest.split_once('/') {
        Some((id, tail)) => (id, Some(tail)),
        None => (rest, None),
    };
    let Ok(id) = id_text.parse::<JobId>() else {
        return Response::error(400, "job ids are unsigned integers");
    };
    let Some(view) = state.view(id) else {
        return Response::error(404, "no such job");
    };
    match tail {
        None => Response::json(200, view.to_json(id) + "\n"),
        Some("result") => match (&view.result, view.state) {
            (Some(result), JobState::Completed) => Response::json(200, result.clone() + "\n"),
            (_, state) if state.is_terminal() => Response::error(
                409,
                &format!("job is {state} and has no result: {}", view.detail),
            ),
            _ => Response::error(409, &format!("job is {}; result not ready", view.state)),
        },
        Some(_) => Response::error(404, "no such resource"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{http_request, wait_terminal};
    use std::time::Instant;

    /// Starts `config` on a fresh directory named after the test.
    fn start_with(name: &str, config: ServeConfig) -> (Server, PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("realm-serve-unit-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::start(ServeConfig {
            dir: dir.clone(),
            ..config
        })
        .unwrap();
        (server, dir)
    }

    /// One worker, one acceptor, and a 1 ms job retry backoff.
    fn start(name: &str) -> (Server, PathBuf) {
        start_with(
            name,
            ServeConfig {
                workers: 1,
                http_threads: 1,
                backoff_base: Duration::from_millis(1),
                ..ServeConfig::default()
            },
        )
    }

    const JOB: &str = r#"{"tenant":"t","design":"accurate","samples":256,"seed":3}"#;

    fn view(server: &Server, id: JobId) -> String {
        let (status, view) =
            http_request(server.addr(), "GET", &format!("/jobs/{id}"), None).unwrap();
        assert_eq!(status, 200, "{view}");
        view
    }

    /// Waits (up to 30 s) until no worker is inside a job attempt or its
    /// panic guard.
    fn wait_idle(server: &Server) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while server.state.running.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Panics the job's attempts before `finish` while `panics(job)`.
    fn panic_before_finish(server: &Server, panics: impl Fn(&Job) -> bool + Send + 'static) {
        *server.state.before_finish.lock().unwrap() =
            Some(Box::new(move |_: &State, job: &Job, _: &Terminal| {
                if panics(job) {
                    panic!("injected panic before finish");
                }
            }));
    }

    /// Runs `shutdown` on a helper thread and fails, instead of hanging,
    /// unless it returns within 5 s with every thread gone: each worker
    /// and acceptor holds a clone of the state until it exits.
    fn shutdown_within_5s(server: Server) {
        let state = server.state.clone();
        let (done, wait) = std::sync::mpsc::channel();
        let helper = std::thread::spawn(move || {
            let _ = done.send(server.shutdown());
        });
        match wait.recv_timeout(Duration::from_secs(5)) {
            Ok(result) => result.unwrap(),
            Err(e) => panic!("shutdown did not return within 5 s: {e}"),
        }
        helper.join().unwrap();
        assert_eq!(Arc::strong_count(&state), 1, "a thread outlived shutdown");
    }

    #[test]
    fn a_job_that_finishes_before_submit_replies_still_completes() {
        let (server, dir) = start("finish-first");
        // Hold the submitting thread after admission until the worker
        // has run the job to its terminal state.
        *server.state.after_admit.lock().unwrap() = Some(Box::new(|state: &State| {
            let deadline = Instant::now() + Duration::from_secs(30);
            while (state.registry.counter("jobs_completed_total") == 0
                || state.running.load(Ordering::SeqCst) > 0)
                && Instant::now() < deadline
            {
                std::thread::sleep(Duration::from_millis(1));
            }
        }));
        let (status, reply) = http_request(server.addr(), "POST", "/jobs", Some(JOB)).unwrap();
        assert_eq!(status, 202, "{reply}");
        assert_eq!(server.registry().counter("jobs_completed_total"), 1);
        let state = wait_terminal(server.addr(), 0, Duration::from_secs(2)).unwrap();
        assert_eq!(state, "completed");
        let (status, result) = http_request(server.addr(), "GET", "/jobs/0/result", None).unwrap();
        assert_eq!(status, 200, "{result}");
        server.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_panic_while_routing_answers_500_and_keeps_the_acceptor() {
        // `start` runs one acceptor thread; the hook panics on it inside
        // `route`.
        let (server, dir) = start("route-panic");
        *server.state.after_admit.lock().unwrap() =
            Some(Box::new(|_: &State| panic!("injected panic inside route")));
        let (status, reply) = http_request(server.addr(), "POST", "/jobs", Some(JOB)).unwrap();
        assert_eq!(status, 500, "{reply}");
        let (status, reply) = http_request(server.addr(), "GET", "/healthz", None).unwrap();
        assert_eq!(status, 200, "{reply}");
        let (status, metrics) = http_request(server.addr(), "GET", "/metrics", None).unwrap();
        assert_eq!(status, 200, "{metrics}");
        let panics = Json::parse(&metrics)
            .unwrap()
            .get("counters")
            .and_then(|c| c.get("http_panics_total"))
            .and_then(Json::as_u64);
        assert_eq!(panics, Some(1), "{metrics}");
        server.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_refused_job_leaves_no_view() {
        let (server, dir) = start("refused");
        server.drain();
        let (status, reply) = http_request(server.addr(), "POST", "/jobs", Some(JOB)).unwrap();
        assert_eq!(status, 503, "{reply}");
        let (status, _) = http_request(server.addr(), "GET", "/jobs/0", None).unwrap();
        assert_eq!(status, 404);
        let (_, list) = http_request(server.addr(), "GET", "/jobs", None).unwrap();
        assert!(list.starts_with(r#"{"jobs":[]"#), "{list}");
        server.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_job_whose_attempt_panics_once_is_retried_and_completes() {
        let (server, dir) = start("panic-once");
        let fired = AtomicBool::new(false);
        panic_before_finish(&server, move |_| !fired.swap(true, Ordering::SeqCst));
        let (status, reply) = http_request(server.addr(), "POST", "/jobs", Some(JOB)).unwrap();
        assert_eq!(status, 202, "{reply}");
        let state = wait_terminal(server.addr(), 0, Duration::from_secs(30)).unwrap();
        assert_eq!(state, "completed", "{}", view(&server, 0));
        assert!(view(&server, 0).contains(r#""attempts":2"#));
        let (status, result) = http_request(server.addr(), "GET", "/jobs/0/result", None).unwrap();
        assert_eq!(status, 200, "{result}");
        assert_eq!(server.registry().counter("job_panics_total"), 1);
        assert_eq!(server.registry().counter("jobs_retried_total"), 1);
        assert_eq!(server.registry().counter("jobs_completed_total"), 1);
        server.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_job_whose_attempts_always_panic_is_dead_lettered() {
        let (server, dir) = start("panic-always");
        panic_before_finish(&server, |_| true);
        let job = r#"{"tenant":"t","design":"accurate","samples":256,"seed":3,"max_retries":0}"#;
        let (status, reply) = http_request(server.addr(), "POST", "/jobs", Some(job)).unwrap();
        assert_eq!(status, 202, "{reply}");
        let state = wait_terminal(server.addr(), 0, Duration::from_secs(30)).unwrap();
        assert_eq!(state, "dead_letter");
        assert!(
            view(&server, 0).contains("injected panic before finish"),
            "{}",
            view(&server, 0)
        );
        let (status, _) = http_request(server.addr(), "GET", "/jobs/0/result", None).unwrap();
        assert_eq!(status, 409);
        assert_eq!(server.registry().counter("job_panics_total"), 1);
        assert_eq!(server.registry().counter("jobs_dead_letter_total"), 1);
        wait_idle(&server);
        let (_, health) = http_request(server.addr(), "GET", "/healthz", None).unwrap();
        assert!(health.contains(r#""jobs_running":0"#), "{health}");
        server.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn the_only_worker_survives_a_panicking_job() {
        let (server, dir) = start("panic-worker");
        assert_eq!(server.state.config.workers, 1);
        panic_before_finish(&server, |job| job.id == 0);
        let job = r#"{"tenant":"t","design":"accurate","samples":256,"seed":3,"max_retries":0}"#;
        for id in 0..2 {
            let (status, reply) = http_request(server.addr(), "POST", "/jobs", Some(job)).unwrap();
            assert_eq!(status, 202, "{reply}");
            assert!(reply.contains(&format!(r#""id":{id}"#)), "{reply}");
        }
        let state = wait_terminal(server.addr(), 0, Duration::from_secs(30)).unwrap();
        assert_eq!(state, "dead_letter");
        let state = wait_terminal(server.addr(), 1, Duration::from_secs(30)).unwrap();
        assert_eq!(state, "completed", "{}", view(&server, 1));
        server.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_panic_after_the_done_record_does_not_run_the_job_again() {
        let (server, dir) = start("panic-durable");
        // Make the outcome durable the way `finish` does, then panic.
        *server.state.before_finish.lock().unwrap() =
            Some(Box::new(|state: &State, job: &Job, terminal: &Terminal| {
                if state.registry.counter("jobs_completed_total") == 0 {
                    finish(state, job, terminal.clone());
                    panic!("injected panic after the done record");
                }
            }));
        let (status, reply) = http_request(server.addr(), "POST", "/jobs", Some(JOB)).unwrap();
        assert_eq!(status, 202, "{reply}");
        let state = wait_terminal(server.addr(), 0, Duration::from_secs(30)).unwrap();
        assert_eq!(state, "completed");
        // Let the worker's guard run to its end before reading counters.
        wait_idle(&server);
        assert_eq!(server.registry().counter("job_panics_total"), 1);
        assert_eq!(server.registry().counter("jobs_retried_total"), 0);
        assert_eq!(server.registry().counter("jobs_completed_total"), 1);
        assert!(view(&server, 0).contains(r#""attempts":1"#));
        server.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_poisoned_job_map_still_tracks_and_answers_jobs() {
        let (server, dir) = start("poisoned-views");
        let state = server.state.clone();
        let poisoner = std::thread::spawn(move || {
            let _jobs = state.jobs.lock();
            panic!("injected panic while holding the job views");
        });
        assert!(poisoner.join().is_err());
        assert!(server.state.jobs.is_poisoned());
        let (status, reply) = http_request(server.addr(), "POST", "/jobs", Some(JOB)).unwrap();
        assert_eq!(status, 202, "{reply}");
        let state = wait_terminal(server.addr(), 0, Duration::from_secs(30)).unwrap();
        assert_eq!(state, "completed");
        let (status, result) = http_request(server.addr(), "GET", "/jobs/0/result", None).unwrap();
        assert_eq!(status, 200, "{result}");
        let (_, list) = http_request(server.addr(), "GET", "/jobs", None).unwrap();
        assert!(list.contains(r#""state":"completed""#), "{list}");
        server.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn shutdown_wakes_idle_acceptors() {
        let (server, dir) = start_with(
            "wake-idle",
            ServeConfig {
                http_threads: 4,
                ..ServeConfig::default()
            },
        );
        shutdown_within_5s(server);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn shutdown_wakes_acceptors_bound_to_an_unspecified_address() {
        let (server, dir) = start_with(
            "wake-unspecified",
            ServeConfig {
                addr: "0.0.0.0:0".into(),
                http_threads: 4,
                ..ServeConfig::default()
            },
        );
        assert!(server.addr().ip().is_unspecified());
        shutdown_within_5s(server);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn wake_connections_go_to_loopback_for_an_unspecified_bind() {
        let target = |addr: &str| wake_target(addr.parse().unwrap()).to_string();
        assert_eq!(target("0.0.0.0:8787"), "127.0.0.1:8787");
        assert_eq!(target("[::]:8787"), "[::1]:8787");
        assert_eq!(target("127.0.0.1:8787"), "127.0.0.1:8787");
        assert_eq!(target("10.1.2.3:8787"), "10.1.2.3:8787");
    }
}
