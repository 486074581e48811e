//! Load generator for the campaign service: drives hundreds of
//! concurrent clients against a realm-serve instance and writes a
//! `BENCH_serve.json` with latency percentiles, throughput and the
//! observed shed rate (plus, against its own in-process server, the
//! server's requests per completed job).
//!
//! ```text
//! # self-contained: starts an in-process server, floods it, reports
//! cargo run --release -p realm-serve --bin serve-load -- --clients 256
//!
//! # or against an already-running server
//! cargo run --release -p realm-serve --bin serve-load -- \
//!     --addr 127.0.0.1:8787 --clients 256 --jobs-per-client 4
//! ```
//!
//! Clients deliberately outnumber the queue capacity so the run
//! exercises the 429 load-shed path: a shed submission backs off and
//! retries, and both the shed count and the retry-until-accepted
//! latency show up in the report.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use realm_harness::atomic_write_str;
use realm_serve::client::{extract_u64_field, http_request, wait_terminal};
use realm_serve::{ServeConfig, Server};

fn die(context: &str, detail: impl std::fmt::Display) -> ! {
    eprintln!("serve-load: {context}: {detail}");
    std::process::exit(1)
}

#[derive(Clone)]
struct LoadOptions {
    addr: Option<SocketAddr>,
    clients: usize,
    jobs_per_client: usize,
    samples: u64,
    tenants: usize,
    queue_cap: usize,
    workers: usize,
    out: String,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions {
            addr: None,
            clients: 256,
            jobs_per_client: 2,
            samples: 1024,
            tenants: 8,
            queue_cap: 128,
            workers: 4,
            out: "BENCH_serve.json".into(),
        }
    }
}

#[derive(Default)]
struct Tally {
    accepted: AtomicU64,
    shed: AtomicU64,
    completed: AtomicU64,
    not_completed: AtomicU64,
    transport_errors: AtomicU64,
}

const DESIGNS: &[&str] = &["realm:m=16,t=0", "accurate", "drum:k=6", "mbm:t=2"];

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// One client's work: submit `jobs_per_client` jobs (retrying shed
/// submissions with backoff) and poll each to a terminal state.
/// Returns (submit_micros, e2e_micros) per job.
fn client(idx: usize, opts: &LoadOptions, addr: SocketAddr, tally: &Tally) -> Vec<(u64, u64)> {
    let tenant = format!("tenant-{}", idx % opts.tenants.max(1));
    let mut latencies = Vec::with_capacity(opts.jobs_per_client);
    for j in 0..opts.jobs_per_client {
        let design = DESIGNS[(idx + j) % DESIGNS.len()];
        let body = format!(
            "{{\"tenant\":\"{tenant}\",\"design\":\"{design}\",\"samples\":{},\
             \"seed\":{},\"priority\":{}}}",
            opts.samples,
            idx * opts.jobs_per_client + j,
            j % 3
        );
        let t0 = Instant::now();
        let mut id = None;
        for attempt in 0..600 {
            match http_request(addr, "POST", "/jobs", Some(&body)) {
                Ok((202, reply)) => {
                    tally.accepted.fetch_add(1, Ordering::Relaxed);
                    id = extract_u64_field(&reply, "id");
                    break;
                }
                Ok((429, _)) => {
                    tally.shed.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(20 + (attempt % 7) * 5));
                }
                Ok((status, reply)) => die(
                    "unexpected submit response",
                    format_args!("{status}: {reply}"),
                ),
                Err(_) => {
                    tally.transport_errors.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
        let Some(id) = id else {
            tally.not_completed.fetch_add(1, Ordering::Relaxed);
            continue;
        };
        let submit_us = t0.elapsed().as_micros() as u64;
        match wait_terminal(addr, id, Duration::from_secs(300)) {
            Ok(state) if state == "completed" => {
                tally.completed.fetch_add(1, Ordering::Relaxed);
                latencies.push((submit_us, t0.elapsed().as_micros() as u64));
            }
            Ok(_) | Err(_) => {
                tally.not_completed.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    latencies
}

fn main() {
    let mut opts = LoadOptions::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| match args.next() {
            Some(v) => v,
            None => die(name, "missing value"),
        };
        match flag.as_str() {
            "--addr" => {
                let text = value("--addr");
                opts.addr = Some(
                    text.parse()
                        .unwrap_or_else(|e| die("--addr", format_args!("'{text}': {e}"))),
                );
            }
            "--clients" => opts.clients = parse(value("--clients")),
            "--jobs-per-client" => opts.jobs_per_client = parse(value("--jobs-per-client")),
            "--samples" => opts.samples = parse(value("--samples")) as u64,
            "--tenants" => opts.tenants = parse(value("--tenants")),
            "--queue-cap" => opts.queue_cap = parse(value("--queue-cap")),
            "--workers" => opts.workers = parse(value("--workers")),
            "--out" => opts.out = value("--out"),
            other => die(other, "unknown flag"),
        }
    }

    // Self-contained mode: start an in-process server sized so the
    // client flood actually sheds.
    let mut own_server = None;
    let addr = match opts.addr {
        Some(addr) => addr,
        None => {
            let dir = std::env::temp_dir().join(format!("realm-serve-load-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let server = Server::start(ServeConfig {
                dir,
                workers: opts.workers,
                queue_capacity: opts.queue_cap,
                http_threads: 8,
                ..ServeConfig::default()
            })
            .unwrap_or_else(|e| die("in-process server", e));
            let addr = server.addr();
            own_server = Some(server);
            addr
        }
    };

    let total_jobs = opts.clients * opts.jobs_per_client;
    eprintln!(
        "serve-load: {} clients x {} jobs ({} total, {} samples each) -> {addr}",
        opts.clients, opts.jobs_per_client, total_jobs, opts.samples
    );

    let tally = Arc::new(Tally::default());
    let t0 = Instant::now();
    let handles: Vec<_> = (0..opts.clients)
        .map(|idx| {
            let opts = opts.clone();
            let tally = tally.clone();
            std::thread::spawn(move || client(idx, &opts, addr, &tally))
        })
        .collect();
    let mut submit_us = Vec::with_capacity(total_jobs);
    let mut e2e_us = Vec::with_capacity(total_jobs);
    for handle in handles {
        if let Ok(latencies) = handle.join() {
            for (submit, e2e) in latencies {
                submit_us.push(submit);
                e2e_us.push(e2e);
            }
        }
    }
    let elapsed = t0.elapsed();
    submit_us.sort_unstable();
    e2e_us.sort_unstable();

    let accepted = tally.accepted.load(Ordering::Relaxed);
    let shed = tally.shed.load(Ordering::Relaxed);
    let completed = tally.completed.load(Ordering::Relaxed);
    let attempts = accepted + shed;
    let shed_rate = if attempts == 0 {
        0.0
    } else {
        shed as f64 / attempts as f64
    };
    let throughput = completed as f64 / elapsed.as_secs_f64();
    // An in-process server also reports what each completed job cost it
    // in requests: submits (shed ones too) plus status polls.
    let requests_per_job = match &own_server {
        Some(server) => format!(
            ",\n  \"requests_per_job\": {:.2}",
            server.registry().counter("requests_total") as f64 / completed.max(1) as f64
        ),
        None => String::new(),
    };

    let report = format!(
        "{{\n  \"schema\": \"realm-serve/bench/v1\",\n  \"clients\": {},\n  \
         \"jobs_per_client\": {},\n  \"samples_per_job\": {},\n  \"tenants\": {},\n  \
         \"elapsed_s\": {:.3},\n  \"accepted\": {accepted},\n  \"shed\": {shed},\n  \
         \"shed_rate\": {shed_rate:.4},\n  \"completed\": {completed},\n  \
         \"not_completed\": {},\n  \"transport_errors\": {},\n  \
         \"throughput_jobs_per_s\": {throughput:.2},\n  \
         \"submit_latency_us\": {{\"p50\": {}, \"p95\": {}, \"p99\": {}}},\n  \
         \"e2e_latency_us\": {{\"p50\": {}, \"p95\": {}, \"p99\": {}}}{requests_per_job}\n}}\n",
        opts.clients,
        opts.jobs_per_client,
        opts.samples,
        opts.tenants,
        elapsed.as_secs_f64(),
        tally.not_completed.load(Ordering::Relaxed),
        tally.transport_errors.load(Ordering::Relaxed),
        percentile(&submit_us, 0.50),
        percentile(&submit_us, 0.95),
        percentile(&submit_us, 0.99),
        percentile(&e2e_us, 0.50),
        percentile(&e2e_us, 0.95),
        percentile(&e2e_us, 0.99),
    );
    print!("{report}");
    if let Err(e) = atomic_write_str(std::path::Path::new(&opts.out), &report) {
        die("writing report", e);
    }
    eprintln!("serve-load: wrote {}", opts.out);

    if let Some(server) = own_server {
        if completed < total_jobs as u64 {
            eprintln!(
                "serve-load: {} of {total_jobs} jobs did not complete",
                total_jobs as u64 - completed
            );
        }
        if let Err(e) = server.shutdown() {
            die("server shutdown", e);
        }
    }
    // A load test that completed nothing is a failure, not a report.
    if completed == 0 {
        die("no jobs completed", "see counters above");
    }
}

fn parse(v: String) -> usize {
    match v.parse() {
        Ok(n) => n,
        Err(_) => die(
            "numeric flag",
            format_args!("'{v}' is not an unsigned integer"),
        ),
    }
}
