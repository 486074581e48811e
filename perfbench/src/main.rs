//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload table1|apps|serve --seed N --seconds S --trace 0|1 [--threads 1|2] [--tiny]
//! ```
//!
//! Every workload runs in this process against the workspace's public
//! API. The run sets the workload up, checks outputs that must hold
//! before any timing (the Table I goldens, GEMM against its scalar
//! reference, served results against an in-process campaign), runs a
//! warm-up pass and then one timed pass whose work is sized from
//! `--seconds` and derived from `--seed` only. The last line of standard
//! output is the result object; the line before it (`meta {...}`) records
//! the kernel tier, CPU model, parallelism, seed, commit and work size.
//!
//! `--trace 1` runs the workload's timed pass once more with a span
//! around every timed call, requires its outputs to equal the untraced
//! pass bit for bit, and reports per-layer self times. So that every
//! traced run reports every per-layer metric, it also runs a traced pass
//! of the other two workloads.

mod apps;
mod serve;
mod stats;
mod table1;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use trace::{Span, Tracer};

pub const WORKLOADS: [&str; 3] = ["table1", "apps", "serve"];

/// Engine threads, client threads and open connections never exceed this.
pub const MAX_THREADS: usize = 2;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: u32,
    pub trace: bool,
    pub threads: usize,
    /// Minimal work sizes for the benchmark's own tests.
    pub tiny: bool,
    /// Where the run writes its artifacts (spans, summaries, serve state).
    pub out: PathBuf,
}

impl Ctx {
    fn parse(args: &[String]) -> Result<Ctx, String> {
        let mut ctx = Ctx {
            workload: String::new(),
            seed: 1,
            seconds: 10,
            trace: false,
            threads: MAX_THREADS,
            tiny: false,
            out: PathBuf::new(),
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if flag == "--tiny" {
                ctx.tiny = true;
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| format!("flag '{flag}' needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("'{flag} {value}': not an unsigned integer"))
            };
            match flag.as_str() {
                "--workload" => ctx.workload = value.clone(),
                "--seed" => ctx.seed = number()?,
                "--seconds" => {
                    ctx.seconds = u32::try_from(number()?)
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or("--seconds must be in 1..=600")?
                }
                "--trace" => {
                    ctx.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    }
                }
                "--threads" => {
                    ctx.threads = usize::try_from(number()?)
                        .ok()
                        .filter(|t| (1..=MAX_THREADS).contains(t))
                        .ok_or(format!("--threads must be in 1..={MAX_THREADS}"))?
                }
                other => return Err(format!("unknown flag '{other}'")),
            }
        }
        if !WORKLOADS.contains(&ctx.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {}",
                WORKLOADS.join(", ")
            ));
        }
        ctx.out = stats::repo_root().join(".bench_out").join(format!(
            "{}-seed{}-trace{}-{}",
            ctx.workload,
            ctx.seed,
            u8::from(ctx.trace),
            std::process::id()
        ));
        Ok(ctx)
    }
}

/// Output checks made outside the timed pass.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Counts one check; a failure is reported on stderr.
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            eprintln!("check failed: {what}: {e}");
        }
    }

    fn add(&mut self, other: &Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// What one timed pass produced. A pass may repeat its item set in
/// rounds on the same inputs. Throughput is the median over rounds, which
/// drops a round that a burst of outside load slowed. An item's latency
/// is its mean over rounds: serve latencies come in whole periods of the
/// acceptor's 10 ms sleep, and a per-item median jumps a whole period when
/// half the rounds do, where the mean moves by the share of rounds that do.
#[derive(Debug, Default)]
pub struct Pass {
    /// Work completed per second of each round's wall time (samples,
    /// items or jobs per second; probes excluded).
    pub round_throughput: Vec<f64>,
    /// Wall time of all rounds together.
    pub wall_s: f64,
    /// Each item's latency: its mean over the rounds.
    pub item_ms: Vec<f64>,
    /// Each item's latency summed over the rounds so far.
    item_sum_ms: Vec<f64>,
    /// One fingerprint of each item's output bits, in item order.
    pub outputs: Vec<u64>,
    /// The output checks made on the timed items, every round.
    pub checks: Checks,
    pub spans: Vec<Span>,
    /// Per-layer metrics derived from the spans (traced passes only).
    pub layers: BTreeMap<&'static str, f64>,
}

impl Pass {
    pub fn throughput(&self) -> f64 {
        stats::median(&self.round_throughput)
    }

    /// Folds one round into the pass: its throughput, its item
    /// latencies and its outputs, which must equal the first round's.
    pub fn add_round(&mut self, work: f64, wall_s: f64, item_ms: &[f64], outputs: Vec<u64>) {
        self.round_throughput.push(work / wall_s);
        self.wall_s += wall_s;
        let rounds = self.round_throughput.len();
        if rounds == 1 {
            self.outputs = outputs;
            self.item_sum_ms = item_ms.to_vec();
        } else {
            let same = outputs == self.outputs;
            self.checks.record(
                "repeated round",
                if same {
                    Ok(())
                } else {
                    Err("outputs differ from the first round".into())
                },
            );
            for (sum, ms) in self.item_sum_ms.iter_mut().zip(item_ms) {
                *sum += ms;
            }
        }
        self.item_ms = self.item_sum_ms.iter().map(|s| s / rounds as f64).collect();
    }

    pub fn checksum(&self) -> u64 {
        let mut d = stats::Digest::new();
        for &o in &self.outputs {
            d.u64(o);
        }
        d.finish()
    }
}

/// One workload of the benchmark. Construction is its set-up.
pub trait Bench {
    /// Median set-up time over the repetitions made at construction.
    fn setup_s(&self) -> f64;
    /// Per-layer metrics measured during set-up.
    fn setup_layers(&self) -> Vec<(&'static str, f64)>;
    /// The unit and amount of work in one round of the timed pass.
    fn work_size(&self, ctx: &Ctx) -> (&'static str, u64);
    fn check(&self, ctx: &Ctx) -> Checks;
    fn warm_up(&self, ctx: &Ctx);
    fn pass(&self, ctx: &Ctx, tracer: &Tracer, tag: &str) -> Pass;
    /// Extra run metadata (e.g. the serve request gap).
    fn meta(&self) -> Vec<(&'static str, String)> {
        Vec::new()
    }
    /// Stops whatever the set-up started.
    fn finish(self: Box<Self>) {}
}

fn build(workload: &str, ctx: &Ctx, tracer: &Tracer) -> Result<Box<dyn Bench>, String> {
    Ok(match workload {
        "table1" => Box::new(table1::Table1::setup(ctx, tracer)),
        "apps" => Box::new(apps::Apps::setup(ctx, tracer)?),
        _ => Box::new(serve::Serve::setup(ctx, tracer)?),
    })
}

fn json_number(name: &str, v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        eprintln!("warning: metric '{name}' is not finite ({v}); reported as 0");
        "0".into()
    }
}

fn metric_object(metrics: &[(String, f64, &str)]) -> String {
    let members: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                realm_obs::json_string(name),
                json_number(name, *value),
                realm_obs::json_string(unit)
            )
        })
        .collect();
    format!("{{{}}}", members.join(","))
}

/// Every per-layer metric a traced run reports, with its unit.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("metrics.draw_ns_per_sample", "ns"),
    ("simd.kernel_ns_per_sample.realm", "ns"),
    ("baselines.kernel_ns_per_sample", "ns"),
    ("metrics.chunk_ns_per_sample", "ns"),
    ("metrics.fold_ns_per_sample", "ns"),
    ("metrics.fold_share.realm", "ratio"),
    ("par.busy_share", "ratio"),
    ("obs.record_ns_per_event", "ns"),
    ("synth.report_ms", "ms"),
    ("synth.share", "ratio"),
    ("synth.build_ms", "ms"),
    ("synth.stimulus_ms", "ms"),
    ("jpeg.roundtrip_ms", "ms"),
    ("jpeg.dct_ns_per_block", "ns"),
    ("jpeg.dct_share", "ratio"),
    ("dsp.infer_us", "us"),
    ("dsp.ns_per_mac", "ns"),
    ("dsp.gemm_ns_per_mac", "ns"),
    ("dsp.gemm_batched_speedup", "ratio"),
    ("dsp.net_build_ms", "ms"),
    ("serve.submit_ms.p50", "ms"),
    ("serve.submit_ms.tail", "ms"),
    ("serve.poll_ms.p50", "ms"),
    ("serve.complete_ms.p50", "ms"),
    ("serve.complete_ms.tail", "ms"),
    ("serve.result_ms.p50", "ms"),
    ("serve.polls_per_job", "count"),
    ("serve.requests_per_job", "count"),
    ("harness.journal_append_ms.p50", "ms"),
    ("harness.journal_append_ms.tail", "ms"),
    ("qos.first_bind_ms", "ms"),
    ("bench.trace_overhead", "ratio"),
];

struct Outcome {
    metrics: Vec<(String, f64, &'static str)>,
    meta: Vec<(&'static str, String)>,
    checks: Checks,
}

fn run_untraced(ctx: &Ctx) -> Result<Outcome, String> {
    let off = Tracer::new(false);
    let bench = build(&ctx.workload, ctx, &off)?;
    let mut checks = bench.check(ctx);
    bench.warm_up(ctx);
    let pass = bench.pass(ctx, &off, "timed");
    checks.add(&pass.checks);
    let (tail_ms, tail_pct) = stats::tail(&pass.item_ms);
    let metrics = vec![
        ("setup_s".to_string(), bench.setup_s(), "s"),
        ("throughput_per_s".to_string(), pass.throughput(), "1/s"),
        (
            "item_p50_ms".to_string(),
            stats::median(&pass.item_ms),
            "ms",
        ),
        ("item_tail_ms".to_string(), tail_ms, "ms"),
        ("peak_rss_mb".to_string(), stats::peak_rss_mb(), "MB"),
        (
            "ok_ratio".to_string(),
            (checks.attempted - checks.failed) as f64 / checks.attempted.max(1) as f64,
            "ratio",
        ),
    ];
    let (unit, size) = bench.work_size(ctx);
    let mut meta = vec![
        ("work_unit", format!("\"{unit}\"")),
        ("work_size", size.to_string()),
        ("items", pass.item_ms.len().to_string()),
        ("item_tail_pct", format!("{tail_pct}")),
        ("timed_wall_s", format!("{}", pass.wall_s)),
        (
            "round_throughput",
            format!(
                "[{}]",
                pass.round_throughput
                    .iter()
                    .map(|t| format!("{t}"))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        ),
        ("output_checksum", format!("\"{:016x}\"", pass.checksum())),
    ];
    meta.extend(bench.meta());
    bench.finish();
    Ok(Outcome {
        metrics,
        meta,
        checks,
    })
}

fn run_traced(ctx: &Ctx) -> Result<Outcome, String> {
    std::fs::create_dir_all(&ctx.out).map_err(|e| format!("{}: {e}", ctx.out.display()))?;
    let mut order: Vec<&str> = vec![ctx.workload.as_str()];
    order.extend(WORKLOADS.iter().filter(|w| **w != ctx.workload));

    let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut spans: Vec<Span> = Vec::new();
    let mut meta: Vec<(&'static str, String)> = Vec::new();
    let mut checks = Checks::default();
    for (i, workload) in order.iter().enumerate() {
        let tracer = Tracer::new(true);
        let bench = build(workload, ctx, &tracer)?;
        checks.add(&bench.check(ctx));
        bench.warm_up(ctx);
        let traced = if i == 0 {
            // The measured workload: untraced and traced passes on the
            // same inputs must agree bit for bit.
            let untraced = bench.pass(ctx, &Tracer::new(false), "timed");
            let traced = bench.pass(ctx, &tracer, "traced");
            checks.add(&untraced.checks);
            checks.record(
                &format!("{workload} traced outputs"),
                if traced.outputs == untraced.outputs {
                    Ok(())
                } else {
                    Err("differ from the untraced outputs".into())
                },
            );
            layers.insert(
                "bench.trace_overhead",
                traced.throughput() / untraced.throughput(),
            );
            meta.push((
                "output_checksum",
                format!("\"{:016x}\"", untraced.checksum()),
            ));
            meta.push(("traced_checksum", format!("\"{:016x}\"", traced.checksum())));
            let (unit, size) = bench.work_size(ctx);
            meta.push(("work_unit", format!("\"{unit}\"")));
            meta.push(("work_size", size.to_string()));
            traced
        } else {
            bench.pass(ctx, &tracer, "traced")
        };
        checks.add(&traced.checks);
        layers.extend(traced.layers.iter().map(|(k, v)| (*k, *v)));
        layers.extend(bench.setup_layers());
        meta.extend(bench.meta());
        spans.extend(tracer.take());
        spans.extend(traced.spans);
        bench.finish();
    }

    let spans_path = ctx.out.join("spans.jsonl");
    trace::write_spans(&spans_path, &spans)
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    let summary = trace::summarize(&spans);
    let mut doc = String::from("{\n  \"per_layer\": ");
    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for (name, unit) in PER_LAYER {
        let value = layers.get(name).copied();
        checks.record(
            &format!("per-layer metric '{name}'"),
            value.map(|_| ()).ok_or_else(|| "not measured".to_string()),
        );
        let value = value.unwrap_or(f64::NAN);
        metrics.push((name.to_string(), value, unit));
    }
    doc.push_str(&metric_object(&metrics));
    doc.push_str(",\n  \"spans\": {");
    let rows: Vec<String> = summary
        .iter()
        .map(|(name, s)| {
            format!(
                "\n    \"{name}\": {{\"spans\":{},\"total_ns\":{},\"self_ns\":{},\"units\":{}}}",
                s.spans, s.total_ns, s.self_ns, s.units
            )
        })
        .collect();
    doc.push_str(&rows.join(","));
    doc.push_str("\n  }\n}\n");
    let summary_path = ctx.out.join("per_layer.json");
    std::fs::write(&summary_path, doc).map_err(|e| format!("{}: {e}", summary_path.display()))?;
    meta.push((
        "spans_file",
        realm_obs::json_string(&spans_path.to_string_lossy()),
    ));

    Ok(Outcome {
        metrics,
        meta,
        checks,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ctx = match Ctx::parse(&args) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload table1|apps|serve --seed N --seconds S --trace 0|1 \
                 [--threads 1|2] [--tiny]"
            );
            return ExitCode::from(2);
        }
    };
    let started = std::time::Instant::now();
    let outcome = if ctx.trace {
        run_traced(&ctx)
    } else {
        run_untraced(&ctx)
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };

    let mut meta = vec![
        ("workload", realm_obs::json_string(&ctx.workload)),
        ("seed", ctx.seed.to_string()),
        ("seconds", ctx.seconds.to_string()),
        ("trace", u8::from(ctx.trace).to_string()),
        ("tiny", ctx.tiny.to_string()),
        ("threads", ctx.threads.to_string()),
        (
            "kernel_tier",
            realm_obs::json_string(realm_simd::active_tier().name()),
        ),
        ("cpu_model", realm_obs::json_string(&stats::cpu_model())),
        (
            "available_parallelism",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("commit", realm_obs::json_string(&stats::commit())),
        (
            "source_fnv",
            format!("\"{:016x}\"", stats::source_fingerprint()),
        ),
        ("run_wall_s", format!("{}", started.elapsed().as_secs_f64())),
    ];
    meta.extend(outcome.meta);
    let meta_json = realm_obs::json::object(&meta);
    let finite = outcome.metrics.iter().all(|(_, v, _)| v.is_finite());
    let correct = outcome.checks.failed == 0 && finite;
    let result = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.checks.attempted,
        outcome.checks.failed,
        metric_object(&outcome.metrics)
    );
    if std::fs::create_dir_all(&ctx.out).is_ok() {
        let _ = std::fs::write(
            ctx.out.join("result.json"),
            format!("{{\"meta\":{meta_json},\"result\":{result}}}\n"),
        );
    }
    println!("meta {meta_json}");
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
