//! `table1`: the paper's Table I. Each of the 69 `table1_pairs()` rows is
//! one supervised Monte-Carlo campaign over uniform 16-bit operands (a
//! `Registry` collector installed as the bench `Driver` does, no
//! checkpoint directory) followed by `Reporter::report` at the paper's
//! 2000 power cycles. One item is one row.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use realm_core::multiplier::MultiplierExt;
use realm_core::rng::SplitMix64;
use realm_harness::{Supervised, Supervisor};
use realm_metrics::{Engine, ErrorSummary, MonteCarlo, Workload};
use realm_obs::{Collector, Event, Fanout, MemoryCollector, Registry};
use realm_par::{Chunk, ChunkPlan, Threads};
use realm_synth::designs::{table1_pairs, DesignPair};
use realm_synth::{Reporter, SynthesisReport};

use crate::stats::{self, Digest};
use crate::trace::{self, Tracer};
use crate::{Bench, Checks, Ctx, Pass};

const POWER_CYCLES: u32 = 2000;
const CHUNK: u64 = realm_metrics::montecarlo::DEFAULT_CHUNK;
/// The table runs this many times on the same inputs (see `Pass`).
const ROUNDS: usize = 3;
/// Monte-Carlo chunks per design and round, per second of `--seconds`
/// (sized on a 2-vCPU Xeon, AVX2 tier).
const CHUNKS_PER_SECOND: f64 = 2.3;
const SETUP_REPS: usize = 9;
/// The pinned golden geometry (`results/goldens/README.md`).
const GOLDEN: (u64, u32, u64) = (4096, 16, 3);
const ROWS: usize = 69;

pub struct Table1 {
    pairs: Vec<DesignPair>,
    reporter: Reporter,
    setup_s: f64,
    build_ms: f64,
    stimulus_ms: f64,
}

impl Table1 {
    /// Builds the design pairs and the power stimulus, several times;
    /// the set-up time reported is the median.
    pub fn setup(ctx: &Ctx, tracer: &Tracer) -> Self {
        let (mut total, mut build, mut stimulus) = (Vec::new(), Vec::new(), Vec::new());
        let mut built = None;
        for _ in 0..SETUP_REPS {
            let t0 = Instant::now();
            let pairs = tracer.span("synth.build", 0, 0, 0, |_| table1_pairs());
            let t1 = Instant::now();
            let reporter = tracer.span("synth.stimulus", 0, 0, 0, |_| {
                Reporter::paper_setup(POWER_CYCLES, ctx.seed)
            });
            let t2 = Instant::now();
            total.push((t2 - t0).as_secs_f64());
            build.push((t1 - t0).as_secs_f64() * 1e3);
            stimulus.push((t2 - t1).as_secs_f64() * 1e3);
            built = Some((pairs, reporter));
        }
        let (pairs, reporter) = built.expect("SETUP_REPS > 0");
        Table1 {
            pairs,
            reporter,
            setup_s: stats::median(&total),
            build_ms: stats::median(&build),
            stimulus_ms: stats::median(&stimulus),
        }
    }

    fn samples(&self, ctx: &Ctx) -> u64 {
        let chunks = if ctx.tiny {
            1.0
        } else {
            (CHUNKS_PER_SECOND * f64::from(ctx.seconds))
                .round()
                .max(1.0)
        };
        chunks as u64 * CHUNK
    }

    /// Runs the table at `samples` per design; when traced, also returns
    /// the events each row's campaign emitted.
    fn run_table(
        &self,
        ctx: &Ctx,
        samples: u64,
        tracer: &Tracer,
    ) -> (Vec<Row>, Vec<f64>, f64, Vec<Vec<Event>>) {
        let campaign = MonteCarlo::new(samples, ctx.seed);
        let registry = Arc::new(Registry::new());
        let mut rows = Vec::with_capacity(self.pairs.len());
        let mut item_ms = Vec::with_capacity(self.pairs.len());
        let mut events = Vec::new();
        let start = Instant::now();
        for (i, pair) in self.pairs.iter().enumerate() {
            let item = i as u64;
            let memory = tracer.enabled().then(|| Arc::new(MemoryCollector::new()));
            let mut fanout = Fanout::new().with(registry.clone());
            if let Some(memory) = &memory {
                fanout = fanout.with(memory.clone());
            }
            let supervisor = Supervisor::new()
                .with_threads(Threads::Fixed(ctx.threads))
                .with_collector(fanout.shared());
            let model = pair.model.as_ref();
            let t0 = Instant::now();
            let (campaign_out, report) = tracer.span("table1.row", 0, item, samples, |row| {
                let out = tracer.span("metrics.engine", row, item, samples, |engine| {
                    if tracer.enabled() {
                        let timed = TimedChunks {
                            inner: campaign.workload(model),
                            tracer,
                            parent: engine,
                            item,
                        };
                        Engine::supervised(&timed, &supervisor)
                    } else {
                        campaign.characterize_supervised(model, &supervisor)
                    }
                });
                let report = tracer.span("synth.report", row, item, 0, |_| {
                    self.reporter.report(&pair.netlist)
                });
                (out, report)
            });
            item_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            rows.push(Row {
                label: model.label(),
                summary: campaign_out.map_err(|e| e.to_string()).and_then(complete),
                report,
            });
            if let Some(memory) = memory {
                events.push(memory.events());
            }
        }
        (rows, item_ms, start.elapsed().as_secs_f64(), events)
    }

    /// Replays each row's operand draw and batch kernel on one of its
    /// chunks, and the row's collector events into a fresh `Registry`.
    fn probes(&self, ctx: &Ctx, samples: u64, events: &[Vec<Event>], tracer: &Tracer) {
        let plan = ChunkPlan::new(samples, CHUNK);
        for (i, (pair, events)) in self.pairs.iter().zip(events).enumerate() {
            let item = i as u64;
            let model = pair.model.as_ref();
            let chunk = plan.chunk(item % plan.num_chunks());
            let max = model.max_operand();
            let pairs = tracer.span("metrics.draw", 0, item, chunk.len, |_| {
                let mut rng = SplitMix64::stream(ctx.seed, chunk.index);
                (0..chunk.len)
                    .map(|_| {
                        let a = rng.range_inclusive(0, max);
                        let b = rng.range_inclusive(0, max);
                        (a, b)
                    })
                    .collect::<Vec<_>>()
            });
            let mut products = vec![0u64; pairs.len()];
            let kernel = if model.name().starts_with("REALM") {
                "simd.kernel"
            } else {
                "baselines.kernel"
            };
            tracer.span(kernel, 0, item, chunk.len, |_| {
                model.multiply_batch(black_box(&pairs), &mut products)
            });
            black_box(&products);
            let registry = Registry::new();
            tracer.span("obs.record", 0, item, events.len() as u64, |_| {
                for event in events {
                    registry.record(black_box(event));
                }
            });
            black_box(registry.snapshot());
        }
    }
}

/// A `Workload` that delegates to the Monte-Carlo workload and records
/// a span around each `run_chunk` call.
struct TimedChunks<'a, W> {
    inner: W,
    tracer: &'a Tracer,
    parent: u32,
    item: u64,
}

impl<W: Workload> Workload for TimedChunks<'_, W> {
    type Part = W::Part;
    type Output = W::Output;

    fn family(&self) -> &'static str {
        self.inner.family()
    }

    fn subject(&self) -> String {
        self.inner.subject()
    }

    fn plan(&self) -> ChunkPlan {
        self.inner.plan()
    }

    fn seed(&self) -> u64 {
        self.inner.seed()
    }

    fn run_chunk(&self, chunk: Chunk) -> W::Part {
        self.tracer
            .span("metrics.chunk", self.parent, self.item, chunk.len, |_| {
                self.inner.run_chunk(chunk)
            })
    }

    fn finalize(&self, parts: Vec<(u64, W::Part)>) -> Option<W::Output> {
        self.inner.finalize(parts)
    }
}

fn complete(sup: Supervised<ErrorSummary>) -> Result<ErrorSummary, String> {
    match (sup.report.is_complete(), sup.value) {
        (true, Some(summary)) => Ok(summary),
        _ => Err(format!("campaign incomplete: {}", sup.report.render())),
    }
}

struct Row {
    label: String,
    summary: Result<ErrorSummary, String>,
    report: SynthesisReport,
}

impl Row {
    /// Invariants that hold for every seed and size.
    fn check(&self, samples: u64) -> Result<(), String> {
        let s = self.summary.as_ref().map_err(Clone::clone)?;
        let r = &self.report;
        let finite = [s.bias, s.mean_error, s.variance, s.min_error, s.max_error]
            .iter()
            .chain([r.area_reduction, r.power_reduction].iter())
            .all(|v| v.is_finite());
        let ok = finite
            && (1..=samples).contains(&s.samples)
            && s.min_error <= s.bias
            && s.bias <= s.max_error
            && s.mean_error + 1e-12 >= s.bias.abs()
            && s.variance >= 0.0
            && r.area_reduction < 100.0
            && r.power_reduction < 100.0;
        if ok {
            Ok(())
        } else {
            Err(format!(
                "{}: row violates invariants: {s:?} {r:?}",
                self.label
            ))
        }
    }

    fn fingerprint(&self) -> u64 {
        let mut d = Digest::new();
        d.bytes(self.label.as_bytes());
        if let Ok(s) = &self.summary {
            d.u64(s.samples)
                .f64(s.bias)
                .f64(s.mean_error)
                .f64(s.variance)
                .f64(s.min_error)
                .f64(s.max_error);
        }
        d.f64(self.report.area_reduction)
            .f64(self.report.power_reduction)
            .finish()
    }
}

/// Table I at the golden geometry must reproduce the pinned golden CSV
/// byte for byte (rows added after the capture only append).
fn golden_check(ctx: &Ctx) -> Result<(), String> {
    let (samples, cycles, seed) = GOLDEN;
    let rows = realm_bench::table1_rows(samples, cycles, seed, Threads::Fixed(ctx.threads));
    let mut csv = String::from(realm_bench::Table1Row::csv_header());
    csv.push('\n');
    for row in &rows {
        csv.push_str(&row.to_csv());
        csv.push('\n');
    }
    let path = stats::repo_root().join("results/goldens/table1_16bit.csv");
    let golden = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    if rows.len() != ROWS {
        return Err(format!("{} rows, expected {ROWS}", rows.len()));
    }
    if !csv.starts_with(&golden) {
        let line = csv
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .map_or(golden.lines().count(), |i| i + 1);
        return Err(format!("differs from {} at line {line}", path.display()));
    }
    Ok(())
}

impl Bench for Table1 {
    fn setup_s(&self) -> f64 {
        self.setup_s
    }

    fn setup_layers(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("synth.build_ms", self.build_ms),
            ("synth.stimulus_ms", self.stimulus_ms),
        ]
    }

    fn work_size(&self, ctx: &Ctx) -> (&'static str, u64) {
        ("samples", self.samples(ctx) * self.pairs.len() as u64)
    }

    fn check(&self, ctx: &Ctx) -> Checks {
        let mut checks = Checks::default();
        checks.record("table1 golden", golden_check(ctx));
        checks
    }

    fn warm_up(&self, ctx: &Ctx) {
        black_box(self.run_table(ctx, CHUNK, &Tracer::new(false)));
    }

    fn pass(&self, ctx: &Ctx, tracer: &Tracer, _tag: &str) -> Pass {
        let samples = self.samples(ctx);
        let mut pass = Pass::default();
        let mut events = Vec::new();
        for _ in 0..ROUNDS {
            let (rows, item_ms, wall_s, round_events) = self.run_table(ctx, samples, tracer);
            pass.checks.record(
                "table1 row count",
                if rows.len() == ROWS {
                    Ok(())
                } else {
                    Err(format!("{} rows, expected {ROWS}", rows.len()))
                },
            );
            for row in &rows {
                pass.checks.record("table1 row", row.check(samples));
            }
            let work = (samples * rows.len() as u64) as f64;
            pass.add_round(
                work,
                wall_s,
                &item_ms,
                rows.iter().map(Row::fingerprint).collect(),
            );
            events.extend(round_events);
        }
        if tracer.enabled() {
            self.probes(ctx, samples, &events, tracer);
            pass.spans = tracer.take();
            pass.layers = layers(&pass.spans, pass.wall_s, ctx.threads);
        }
        pass
    }
}

fn layers(
    spans: &[trace::Span],
    wall_s: f64,
    threads: usize,
) -> std::collections::BTreeMap<&'static str, f64> {
    let s = trace::summarize(spans);
    let get = |name: &str| s.get(name).cloned().unwrap_or_default();
    let (draw, realm, other, chunk, engine, record, report) = (
        get("metrics.draw"),
        get("simd.kernel"),
        get("baselines.kernel"),
        get("metrics.chunk"),
        get("metrics.engine"),
        get("obs.record"),
        get("synth.report"),
    );
    let kernel_all =
        (realm.self_ns + other.self_ns) as f64 / (realm.units + other.units).max(1) as f64;
    let report_ms: Vec<f64> = report.self_each.iter().map(|&ns| ns as f64 / 1e6).collect();
    // Chunk and draw time of the REALM rows alone (the rows the REALM
    // kernel probe ran on): what is left after draw and kernel is fold.
    let realm_rows: std::collections::BTreeSet<u64> = spans
        .iter()
        .filter(|s| s.name == "simd.kernel")
        .map(|s| s.item)
        .collect();
    let (mut chunk_ns, mut chunk_units, mut draw_ns, mut draw_units) = (0u64, 0u64, 0u64, 0u64);
    for (span, self_ns) in spans.iter().zip(trace::self_times(spans)) {
        if !realm_rows.contains(&span.item) {
            continue;
        }
        match span.name {
            "metrics.chunk" => {
                (chunk_ns, chunk_units) = (chunk_ns + self_ns, chunk_units + span.units)
            }
            "metrics.draw" => (draw_ns, draw_units) = (draw_ns + self_ns, draw_units + span.units),
            _ => {}
        }
    }
    let realm_chunk = chunk_ns as f64 / chunk_units.max(1) as f64;
    let realm_draw = draw_ns as f64 / draw_units.max(1) as f64;
    [
        (
            "metrics.fold_share.realm",
            (realm_chunk - realm_draw - realm.ns_per_unit()) / realm_chunk,
        ),
        ("metrics.draw_ns_per_sample", draw.ns_per_unit()),
        ("simd.kernel_ns_per_sample.realm", realm.ns_per_unit()),
        ("baselines.kernel_ns_per_sample", other.ns_per_unit()),
        ("metrics.chunk_ns_per_sample", chunk.ns_per_unit()),
        (
            "metrics.fold_ns_per_sample",
            chunk.ns_per_unit() - draw.ns_per_unit() - kernel_all,
        ),
        (
            "par.busy_share",
            chunk.total_ns as f64 / (threads as f64 * engine.total_ns.max(1) as f64),
        ),
        ("obs.record_ns_per_event", record.ns_per_unit()),
        ("synth.report_ms", stats::median(&report_ms)),
        ("synth.share", report.total_ns as f64 / 1e9 / wall_s),
    ]
    .into_iter()
    .collect()
}
