//! `serve`: in-process campaign services under a closed loop.
//!
//! Each round runs on its own `Server::start` on a fresh directory, with
//! as many workers and HTTP threads as engine threads and one chunk
//! thread per job. Each client thread is one tenant: it submits a
//! single-chunk (2^16-sample) Monte-Carlo job, polls `GET /jobs/<id>`
//! until the job is terminal, fetches `/result`, and only then submits
//! the next, each request `GAP` after the previous response. Designs
//! rotate over four explicit specs and an `"auto"` + `error_sla` job.
//! Every round on every server sends the same jobs under the same tenant
//! names, so each QoS controller starts from the same state, sees its
//! feedback in the same order and binds the same designs.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use realm_core::rng::SplitMix64;
use realm_harness::{Checkpoint, Journal};
use realm_metrics::{parse_design, CampaignSpec, ErrorSla, FamilySpec, MonteCarlo, Workload};
use realm_obs::Json;
use realm_par::Threads;
use realm_serve::client::{extract_string_field, extract_u64_field};
use realm_serve::{http_request, result_json, ServeConfig, Server};

use crate::stats;
use crate::trace::{self, Tracer};
use crate::{Bench, Checks, Ctx, Pass};

const SAMPLES: u64 = 1 << 16;
/// A client sends each request (submit, poll, result fetch) this long
/// after the response to its previous one. The client polls in its own
/// loop: the library's `wait_terminal` sleeps 20 ms per poll. The gap
/// keeps requests from racing the acceptor's return to `accept()`:
/// whether a request sent right after a response catches an acceptor
/// still awake depends on thread placement, and flipped whole runs
/// between job latencies ~40% apart.
const GAP: Duration = Duration::from_millis(1);
const DESIGNS: [&str; 4] = ["realm:m=16,t=0", "calm", "drum:k=6", "mbm:t=2"];
/// Every fifth job asks the QoS layer to bind a design for this SLA.
const AUTO_EVERY: u64 = 5;
const SLA: &str = "mean:0.02";
/// Servers started (and set-up times measured); one timed round each.
const ROUNDS: usize = 5;
/// Jobs per client and round, per second of `--seconds` (sized on a
/// 2-vCPU Xeon).
const JOBS_PER_SECOND: f64 = 6.5;
const WARM_JOBS: u64 = 10;
/// Journal create + append repetitions in the traced probe.
const JOURNAL_PROBES: usize = 100;
/// How long a client waits for a server, or a job, before it counts the
/// wait as a failure (a job normally ends within a few acceptor periods).
const TIMEOUT: Duration = Duration::from_secs(10);

pub struct Serve {
    /// One server per round, with its service directory.
    servers: Vec<(Server, PathBuf)>,
    clients: usize,
    setup_s: f64,
    first_bind_ms: f64,
}

/// One closed-loop job as the client saw it.
#[derive(Debug, Default)]
struct Job {
    item: u64,
    seed: u64,
    auto: bool,
    submit_status: u16,
    state: String,
    bound: String,
    result_status: u16,
    result: String,
    requests: u64,
    ms: f64,
}

fn job_body(tenant: &str, design: Option<&str>, seed: u64) -> String {
    let design = match design {
        Some(d) => format!("\"design\":\"{d}\""),
        None => format!("\"design\":\"auto\",\"error_sla\":\"{SLA}\""),
    };
    format!("{{\"tenant\":\"{tenant}\",{design},\"samples\":{SAMPLES},\"seed\":{seed}}}")
}

fn terminal(state: &str) -> bool {
    matches!(state, "completed" | "failed" | "dead_letter")
}

/// Starts a server on a fresh `dir`; returns it with the time to the
/// first healthy `/healthz` plus the first `auto` submission (whose
/// admission characterizes the QoS table), and that submission alone.
fn start(ctx: &Ctx, dir: &PathBuf, tracer: &Tracer) -> Result<(Server, f64, f64), String> {
    let _ = std::fs::remove_dir_all(dir);
    let t0 = Instant::now();
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        dir: dir.clone(),
        workers: ctx.threads,
        job_threads: 1,
        http_threads: ctx.threads,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))?;
    let addr = server.addr();
    loop {
        if let Ok((200, _)) = http_request(addr, "GET", "/healthz", None) {
            break;
        }
        if t0.elapsed() > TIMEOUT {
            return Err("server never became healthy".into());
        }
        std::thread::sleep(GAP);
    }
    let healthy_s = t0.elapsed().as_secs_f64();
    let body = job_body("setup", None, 1);
    let t1 = Instant::now();
    let (status, reply) = tracer
        .span("qos.first_bind", 0, 0, 0, |_| {
            http_request(addr, "POST", "/jobs", Some(&body))
        })
        .map_err(|e| format!("first auto submit: {e}"))?;
    let bind_s = t1.elapsed().as_secs_f64();
    let id = extract_u64_field(&reply, "id")
        .filter(|_| status == 202)
        .ok_or_else(|| format!("first auto submit refused: {status} {reply}"))?;
    // Let the set-up job finish outside the timed phase.
    let t2 = Instant::now();
    loop {
        let (_, view) = http_request(addr, "GET", &format!("/jobs/{id}"), None)
            .map_err(|e| format!("poll: {e}"))?;
        match extract_string_field(&view, "state").as_deref() {
            Some("completed") => break,
            Some(s) if terminal(s) => return Err(format!("set-up job ended {s}")),
            _ if t2.elapsed() > TIMEOUT => return Err("set-up job never finished".into()),
            _ => std::thread::sleep(GAP),
        }
    }
    Ok((server, healthy_s + bind_s, bind_s * 1e3))
}

fn requests_total(addr: SocketAddr) -> Result<u64, String> {
    let (status, body) =
        http_request(addr, "GET", "/metrics", None).map_err(|e| format!("/metrics: {e}"))?;
    Json::parse(&body)
        .ok()
        .filter(|_| status == 200)
        .and_then(|doc| doc.get("counters")?.get("requests_total")?.as_u64())
        .ok_or_else(|| format!("/metrics without requests_total: {status}"))
}

impl Serve {
    pub fn setup(ctx: &Ctx, tracer: &Tracer) -> Result<Self, String> {
        let (mut total, mut bind) = (Vec::new(), Vec::new());
        let mut servers = Vec::with_capacity(ROUNDS);
        for round in 0..ROUNDS {
            let dir = ctx.out.join(format!("serve-{round}"));
            match start(ctx, &dir, tracer) {
                Ok((server, setup_s, bind_ms)) => {
                    total.push(setup_s);
                    bind.push(bind_ms);
                    servers.push((server, dir));
                }
                Err(e) => {
                    shutdown_all(servers);
                    return Err(e);
                }
            }
        }
        Ok(Serve {
            servers,
            // The traffic is part of the workload: `--threads` sizes the
            // server, never the number of clients.
            clients: crate::MAX_THREADS,
            setup_s: stats::median(&total),
            first_bind_ms: stats::median(&bind),
        })
    }

    fn jobs_per_client(&self, ctx: &Ctx) -> u64 {
        if ctx.tiny {
            AUTO_EVERY
        } else {
            (JOBS_PER_SECOND * f64::from(ctx.seconds)).round().max(1.0) as u64
        }
    }

    /// One client's closed loop over `jobs` jobs as tenant `<tag>-c<client>`.
    fn client(
        &self,
        ctx: &Ctx,
        tracer: &Tracer,
        addr: SocketAddr,
        tenant: &str,
        client: u64,
        jobs: u64,
    ) -> Vec<Job> {
        let mut rng = SplitMix64::stream(ctx.seed, client);
        (0..jobs)
            .map(|k| {
                let item = client * jobs + k;
                let slot = k * self.clients as u64 + client;
                let auto = slot % AUTO_EVERY == AUTO_EVERY - 1;
                let design = (!auto).then(|| DESIGNS[(slot % AUTO_EVERY) as usize % DESIGNS.len()]);
                let mut job = Job {
                    item,
                    // JSON numbers stay exact below 2^53.
                    seed: rng.next_u64() >> 11,
                    auto,
                    ..Job::default()
                };
                let body = job_body(tenant, design, job.seed);
                std::thread::sleep(GAP);
                let t0 = Instant::now();
                tracer.span("serve.job", 0, item, 1, |span| {
                    let submitted = tracer.span("serve.submit", span, item, 1, |_| {
                        http_request(addr, "POST", "/jobs", Some(&body))
                    });
                    job.requests += 1;
                    let Ok((status, reply)) = submitted else {
                        return;
                    };
                    job.submit_status = status;
                    let Some(id) = extract_u64_field(&reply, "id").filter(|_| status == 202) else {
                        return;
                    };
                    let path = format!("/jobs/{id}");
                    tracer.span("serve.complete", span, item, 1, |wait| loop {
                        std::thread::sleep(GAP);
                        let polled = tracer.span("serve.poll", wait, item, 1, |_| {
                            http_request(addr, "GET", &path, None)
                        });
                        job.requests += 1;
                        if let Ok((200, view)) = polled {
                            job.state = extract_string_field(&view, "state").unwrap_or_default();
                            job.bound = extract_string_field(&view, "design").unwrap_or_default();
                            if terminal(&job.state) {
                                break;
                            }
                        }
                        if t0.elapsed() > TIMEOUT {
                            break;
                        }
                    });
                    std::thread::sleep(GAP);
                    let fetched = tracer.span("serve.result", span, item, 1, |_| {
                        http_request(addr, "GET", &format!("{path}/result"), None)
                    });
                    job.requests += 1;
                    if let Ok((status, result)) = fetched {
                        job.result_status = status;
                        job.result = result;
                    }
                });
                job.ms = t0.elapsed().as_secs_f64() * 1e3;
                job
            })
            .collect()
    }

    /// Runs every client's closed loop against `addr`, client `c` as
    /// tenant `<tag>-c<c>`.
    fn run_clients(
        &self,
        ctx: &Ctx,
        tracer: &Tracer,
        addr: SocketAddr,
        tag: &str,
        jobs: u64,
    ) -> Vec<Job> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.clients as u64)
                .map(|c| {
                    let tenant = format!("{tag}-c{c}");
                    scope.spawn(move || self.client(ctx, tracer, addr, &tenant, c, jobs))
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread panicked"))
                .collect()
        })
    }

    /// The spec the server ran for `job`: its request with the design
    /// it reported binding.
    fn spec(job: &Job) -> CampaignSpec {
        CampaignSpec {
            design: job.bound.clone(),
            family: FamilySpec::MonteCarlo { samples: SAMPLES },
            seed: job.seed,
            chunk: None,
            error_sla: job
                .auto
                .then(|| ErrorSla::parse(SLA).expect("SLA constant parses")),
        }
    }

    /// Recomputes each completed job in process and compares the result
    /// document byte for byte.
    fn verify(&self, ctx: &Ctx, jobs: &[Job]) -> Vec<Result<(), String>> {
        let check = |job: &Job| -> Result<(), String> {
            if job.submit_status != 202 || job.state != "completed" || job.result_status != 200 {
                return Err(format!(
                    "job {}: submit {} state '{}' result {}",
                    job.item, job.submit_status, job.state, job.result_status
                ));
            }
            let spec = Self::spec(job);
            let design = parse_design(&spec.design).map_err(|e| e.to_string())?;
            let summary = MonteCarlo::new(SAMPLES, job.seed)
                .with_threads(Threads::Fixed(1))
                .characterize(design.as_ref());
            let expected = result_json(&spec, &summary);
            if job.result.trim_end() == expected {
                Ok(())
            } else {
                Err(format!(
                    "job {}: served '{}' but in-process '{expected}'",
                    job.item,
                    job.result.trim_end()
                ))
            }
        };
        let per = jobs.len().div_ceil(ctx.threads).max(1);
        std::thread::scope(|scope| {
            let handles: Vec<_> = jobs
                .chunks(per)
                .map(|part| scope.spawn(move || part.iter().map(check).collect::<Vec<_>>()))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("verify thread panicked"))
                .collect()
        })
    }

    /// `Journal::create` + `append` of a job's chunk payload, on the
    /// service directory's filesystem.
    fn journal_probe(&self, jobs: &[Job], tracer: &Tracer) -> Result<(), String> {
        let dir = self.servers[0].1.join("journal-probe");
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        for job in jobs
            .iter()
            .filter(|j| j.state == "completed")
            .take(JOURNAL_PROBES)
        {
            let design = parse_design(&job.bound).map_err(|e| e.to_string())?;
            let campaign = MonteCarlo::new(SAMPLES, job.seed);
            let workload = campaign.workload(design.as_ref());
            let payload = workload.run_chunk(campaign.plan().chunk(0)).to_bytes();
            let id = campaign.campaign_id(design.as_ref());
            let path = dir.join(id.journal_file_name());
            tracer
                .span("harness.journal_append", 0, job.item, 1, |_| {
                    Journal::create(&path, &id).and_then(|mut j| j.append(0, &payload))
                })
                .map_err(|e| e.to_string())?;
            let _ = std::fs::remove_file(&path);
        }
        Ok(())
    }
}

fn layers(spans: &[trace::Span], requests_per_job: f64) -> BTreeMap<&'static str, f64> {
    let selfs = trace::self_times(spans);
    let ms = |name: &str, total: bool| -> Vec<f64> {
        spans
            .iter()
            .zip(&selfs)
            .filter(|(span, _)| span.name == name)
            .map(|(span, &self_ns)| if total { span.duration_ns() } else { self_ns } as f64 / 1e6)
            .collect()
    };
    let submit = ms("serve.submit", false);
    let complete = ms("serve.complete", true);
    let journal = ms("harness.journal_append", false);
    let polls = ms("serve.poll", false);
    let jobs = ms("serve.job", true).len().max(1) as f64;
    [
        ("serve.submit_ms.p50", stats::median(&submit)),
        ("serve.submit_ms.tail", stats::tail(&submit).0),
        ("serve.poll_ms.p50", stats::median(&polls)),
        ("serve.complete_ms.p50", stats::median(&complete)),
        ("serve.complete_ms.tail", stats::tail(&complete).0),
        (
            "serve.result_ms.p50",
            stats::median(&ms("serve.result", false)),
        ),
        ("serve.polls_per_job", polls.len() as f64 / jobs),
        ("serve.requests_per_job", requests_per_job),
        ("harness.journal_append_ms.p50", stats::median(&journal)),
        ("harness.journal_append_ms.tail", stats::tail(&journal).0),
    ]
    .into_iter()
    .collect()
}

fn shutdown_all(servers: Vec<(Server, PathBuf)>) {
    for (server, dir) in servers {
        if let Err(e) = server.shutdown() {
            eprintln!("warning: serve shutdown: {e}");
        }
        let _ = std::fs::remove_dir_all(dir);
    }
}

impl Bench for Serve {
    fn setup_s(&self) -> f64 {
        self.setup_s
    }

    fn setup_layers(&self) -> Vec<(&'static str, f64)> {
        vec![("qos.first_bind_ms", self.first_bind_ms)]
    }

    fn work_size(&self, ctx: &Ctx) -> (&'static str, u64) {
        ("jobs", self.jobs_per_client(ctx) * self.clients as u64)
    }

    fn check(&self, _ctx: &Ctx) -> Checks {
        // Served results are checked job by job after each pass.
        Checks::default()
    }

    fn warm_up(&self, ctx: &Ctx) {
        for (server, _) in &self.servers {
            let off = Tracer::new(false);
            std::hint::black_box(self.run_clients(ctx, &off, server.addr(), "warm", WARM_JOBS));
        }
    }

    fn pass(&self, ctx: &Ctx, tracer: &Tracer, tag: &str) -> Pass {
        let jobs_per_client = self.jobs_per_client(ctx);
        let mut pass = Pass::default();
        let (mut first_round, mut server_requests, mut jobs_run) = (Vec::new(), 0u64, 0usize);
        for (server, _) in &self.servers {
            let addr = server.addr();
            let before = requests_total(addr);
            let start = Instant::now();
            let jobs = self.run_clients(ctx, tracer, addr, tag, jobs_per_client);
            let wall_s = start.elapsed().as_secs_f64();
            let after = requests_total(addr);
            // The server counts every request it routed, the closing
            // `/metrics` call included.
            let client_requests: u64 = jobs.iter().map(|j| j.requests).sum::<u64>() + 1;
            let routed = after.and_then(|a| Ok(a.saturating_sub(before?)));
            pass.checks.record(
                "serve requests_total",
                match &routed {
                    Ok(n) if *n == client_requests => Ok(()),
                    Ok(n) => Err(format!("server routed {n}, clients sent {client_requests}")),
                    Err(e) => Err(e.clone()),
                },
            );
            server_requests += routed.unwrap_or(0);
            jobs_run += jobs.len();
            let mut outputs = Vec::with_capacity(jobs.len());
            for (job, verdict) in jobs.iter().zip(self.verify(ctx, &jobs)) {
                pass.checks.record("serve job", verdict);
                let mut d = stats::Digest::new();
                d.bytes(job.bound.as_bytes()).bytes(job.result.as_bytes());
                outputs.push(d.finish());
            }
            let completed = jobs.iter().filter(|j| j.state == "completed").count();
            let item_ms: Vec<f64> = jobs.iter().map(|j| j.ms).collect();
            pass.add_round(completed as f64, wall_s, &item_ms, outputs);
            if first_round.is_empty() {
                first_round = jobs;
            }
        }
        if tracer.enabled() {
            pass.checks.record(
                "serve journal probe",
                self.journal_probe(&first_round, tracer),
            );
            pass.spans = tracer.take();
            pass.layers = layers(&pass.spans, server_requests as f64 / jobs_run.max(1) as f64);
        }
        pass
    }

    fn meta(&self) -> Vec<(&'static str, String)> {
        vec![
            (
                "serve_request_gap_ms",
                format!("{}", GAP.as_secs_f64() * 1e3),
            ),
            ("serve_clients", self.clients.to_string()),
        ]
    }

    fn finish(self: Box<Self>) {
        shutdown_all(self.servers);
    }
}
