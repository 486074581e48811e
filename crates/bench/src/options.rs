//! Minimal command-line parsing shared by the experiment drivers (no
//! external CLI crate needed).
//!
//! Parsing never panics: malformed input produces a [`CliError`] with a
//! friendly diagnostic, and [`Options::from_env`] turns that into a
//! usage message plus exit status 2. Thread counts follow one rule
//! everywhere: **`--threads 0` means auto** (every hardware thread),
//! matching `realm_par::Threads`.

use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use realm_harness::{CancelToken, Supervisor};
use realm_metrics::ErrorSla;
use realm_obs::{Fanout, JsonlSink, MetricsSummary, ProgressReporter, Registry, SharedCollector};
use realm_par::Threads;

/// A diagnostic for one malformed command-line argument.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

/// Common options for the experiment binaries.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Monte-Carlo samples per design (paper default: `2^24`).
    pub samples: u64,
    /// Power-simulation cycles per netlist.
    pub cycles: u32,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for characterization campaigns (`--threads 0` =
    /// every hardware thread). A pure performance knob: campaign results
    /// are bit-identical under every setting.
    pub threads: Threads,
    /// Optional output directory for CSV artifacts.
    pub out_dir: Option<PathBuf>,
    /// CI smoke mode: shrink every campaign to seconds.
    pub smoke: bool,
    /// Directory for campaign checkpoint journals (`--checkpoint-dir`).
    pub checkpoint_dir: Option<PathBuf>,
    /// Resume from existing journals instead of restarting
    /// (`--resume`; implies journaling into `--checkpoint-dir`, which
    /// defaults to `.realm-checkpoints` when only `--resume` is given).
    pub resume: bool,
    /// Wall-clock budget for the whole invocation (`--deadline 30m`).
    pub deadline: Option<Duration>,
    /// Execute at most this many chunks per campaign then stop with a
    /// resumable checkpoint (`--max-chunks N`; deterministic
    /// interruption for CI and tests).
    pub max_chunks: Option<u64>,
    /// Chaos hook: chunk indices that panic on every attempt
    /// (`--inject-panic 2,5`), exercising quarantine and graceful
    /// degradation end to end.
    pub inject_panic: Vec<u64>,
    /// Stream campaign events to this file as JSONL, schema
    /// `realm-obs/v1` (`--trace FILE`; published atomically at exit).
    pub trace: Option<PathBuf>,
    /// Keep a live progress line on stderr while campaigns run
    /// (`--progress`).
    pub progress: bool,
    /// Design under test, in the `realm_metrics::spec` grammar
    /// (`--design realm:m=16,t=0`). `None` lets each driver use its
    /// built-in default subject.
    pub design: Option<String>,
    /// Per-layer multiplier bindings for the DNN driver
    /// (`--layers conv1=realm16t4,dense1=scaletrim:t=6@16`), in the
    /// `realm_metrics::dnn` layer-spec grammar. Layers not named keep
    /// the driver's default design.
    pub layers: Option<String>,
    /// Error budget for the campaign (`--error-sla mean:0.03,nmed:0.01`).
    /// Drivers that honor it select the cheapest characterized design
    /// satisfying the budget (when no `--design` pins one) and score the
    /// delivered error against it.
    pub error_sla: Option<ErrorSla>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            samples: 1 << 24,
            cycles: 2_000,
            seed: 2020,
            threads: Threads::Auto,
            out_dir: None,
            smoke: false,
            checkpoint_dir: None,
            resume: false,
            deadline: None,
            max_chunks: None,
            inject_panic: Vec::new(),
            trace: None,
            progress: false,
            design: None,
            layers: None,
            error_sla: None,
        }
    }
}

/// The flag table shared by every experiment driver's `--help`.
pub fn usage() -> &'static str {
    "options:\n\
     \x20 --samples N        Monte-Carlo samples per design (default 2^24; accepts 2^k, 64k, 4M)\n\
     \x20 --cycles N         power-simulation cycles per netlist (default 2000)\n\
     \x20 --seed N           RNG seed (default 2020)\n\
     \x20 --threads N        worker threads; 0 = auto (every hardware thread, the default).\n\
     \x20                    Purely a performance knob: results are bit-identical for any N.\n\
     \x20 --out DIR          write CSV/JSON artifacts into DIR (atomic tmp+fsync+rename)\n\
     \x20 --smoke            CI smoke mode: shrink campaigns to seconds\n\
     \x20 --checkpoint-dir D journal completed chunks into D (one file per campaign)\n\
     \x20 --resume           resume from existing journals (default dir: .realm-checkpoints)\n\
     \x20 --deadline T       stop gracefully after T (30s, 10m, 2h, 500ms), checkpoint, exit 0\n\
     \x20 --max-chunks N     execute at most N chunks per campaign, then checkpoint and stop\n\
     \x20 --inject-panic L   comma-separated chunk indices that always panic (chaos test)\n\
     \x20 --trace FILE       stream campaign events to FILE as JSONL (schema realm-obs/v1,\n\
     \x20                    published via the crash-safe atomic write path)\n\
     \x20 --progress         live progress line on stderr (chunks done, samples/sec)\n\
     \x20 --design D         design under test (accurate | realm:m=16,t=0 | calm | drum:k=6 |\n\
     \x20                    kulkarni | implm | mbm:t=4 | ssm:s=8 | scaletrim:t=4,c=1 | ilm:i=2;\n\
     \x20                    width via the w key or an @W suffix, e.g. calm@8; default 16)\n\
     \x20 --layers L         per-layer multiplier bindings for the dnn driver, comma-separated\n\
     \x20                    layer=design pairs (conv1=realm16t4,dense1=scaletrim:t=6@16);\n\
     \x20                    unlisted layers keep the default design\n\
     \x20 --error-sla S      error budget, comma-separated bounds (mean:0.03,nmed:0.01,peak:0.2).\n\
     \x20                    Drivers that honor it pick the cheapest design meeting the budget\n\
     \x20                    (unless --design pins one) and score the delivered error against it.\n\
     \x20 --help             print this help\n\
     \n\
     Ctrl-C or SIGTERM (container stop, CI timeout) checkpoints and exits cleanly;\n\
     a second signal aborts immediately.\n\
     Interrupted campaigns rerun with --resume produce bit-identical results."
}

impl Options {
    /// Parses `std::env::args`. Prints the usage table and exits 0 on
    /// `--help`; prints the diagnostic plus usage and exits 2 on
    /// malformed input.
    pub fn from_env() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        if args.iter().any(|a| a == "--help" || a == "-h") {
            println!("{}", usage());
            std::process::exit(0);
        }
        match Options::parse(args) {
            Ok(opts) => opts,
            Err(e) => {
                eprintln!("error: {e}\n\n{}", usage());
                std::process::exit(2);
            }
        }
    }

    /// Parses an explicit argument iterator (testable). Never panics.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, CliError> {
        let mut opts = Options::default();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .ok_or_else(|| CliError(format!("flag {name} requires a value")))
            };
            match flag.as_str() {
                "--samples" => {
                    opts.samples = parse_count(&value("--samples")?)?;
                    if opts.samples == 0 {
                        return Err(CliError(
                            "--samples 0: a campaign needs at least one sample".into(),
                        ));
                    }
                }
                "--cycles" => {
                    let n = parse_count(&value("--cycles")?)?;
                    opts.cycles = u32::try_from(n).map_err(|_| {
                        CliError(format!("--cycles {n} exceeds the 32-bit cycle budget"))
                    })?;
                }
                "--seed" => opts.seed = parse_count(&value("--seed")?)?,
                "--threads" => {
                    let n = parse_count(&value("--threads")?)?;
                    let n = usize::try_from(n).map_err(|_| {
                        CliError(format!("--threads {n} is not a sensible thread count"))
                    })?;
                    opts.threads = Threads::from_count(n);
                }
                "--out" => opts.out_dir = Some(PathBuf::from(value("--out")?)),
                "--smoke" => opts.smoke = true,
                "--checkpoint-dir" => {
                    opts.checkpoint_dir = Some(PathBuf::from(value("--checkpoint-dir")?))
                }
                "--resume" => opts.resume = true,
                "--deadline" => opts.deadline = Some(parse_duration(&value("--deadline")?)?),
                "--max-chunks" => opts.max_chunks = Some(parse_count(&value("--max-chunks")?)?),
                "--inject-panic" => {
                    let list = value("--inject-panic")?;
                    for part in list.split(',').filter(|p| !p.is_empty()) {
                        opts.inject_panic.push(parse_count(part)?);
                    }
                }
                "--trace" => opts.trace = Some(PathBuf::from(value("--trace")?)),
                "--progress" => opts.progress = true,
                "--design" => {
                    let text = value("--design")?;
                    // Validate eagerly so a typo dies at the flag table,
                    // not minutes into a campaign. The instance is
                    // rebuilt by the driver; construction is cheap.
                    realm_metrics::parse_design(&text)
                        .map_err(|e| CliError(format!("invalid --design '{text}': {e}")))?;
                    opts.design = Some(text);
                }
                "--layers" => {
                    let text = value("--layers")?;
                    // Validate the whole spec eagerly — a typo'd layer
                    // spec dies at the flag table, not after the zoo
                    // has been characterized.
                    realm_metrics::parse_layer_bindings(&text)
                        .map_err(|e| CliError(format!("invalid --layers '{text}': {e}")))?;
                    opts.layers = Some(text);
                }
                "--error-sla" => {
                    let text = value("--error-sla")?;
                    let sla = ErrorSla::parse(&text)
                        .map_err(|e| CliError(format!("invalid --error-sla '{text}': {e}")))?;
                    opts.error_sla = Some(sla);
                }
                // Cargo's bench runner forwards this marker to
                // `harness = false` benches; it carries no information.
                "--bench" => {}
                other => {
                    return Err(CliError(format!(
                        "unknown flag '{other}' (try --help for the flag table)"
                    )))
                }
            }
        }
        if opts.resume && opts.checkpoint_dir.is_none() {
            opts.checkpoint_dir = Some(PathBuf::from(".realm-checkpoints"));
        }
        Ok(opts)
    }

    /// Builds the campaign [`Supervisor`] these options describe:
    /// thread policy, checkpoint directory, resume, deadline, chunk
    /// budget, chaos injection, and a Ctrl-C cancellation token.
    pub fn supervisor(&self) -> Supervisor {
        let mut sup = Supervisor::new()
            .with_threads(self.threads)
            .with_cancel(CancelToken::ctrl_c())
            .resume(self.resume);
        if let Some(dir) = &self.checkpoint_dir {
            sup = sup.checkpoint_to(dir);
        }
        if let Some(deadline) = self.deadline {
            sup = sup.with_deadline(deadline);
        }
        if let Some(budget) = self.max_chunks {
            sup = sup.with_chunk_budget(budget);
        }
        if !self.inject_panic.is_empty() {
            sup = sup.with_injected_panics(&self.inject_panic, true);
        }
        sup
    }

    /// Builds the [`Observability`] bundle these options describe: a
    /// metrics [`Registry`] (always installed — its summary feeds
    /// `metrics_summary.json`), a `--trace` JSONL sink and a
    /// `--progress` stderr reporter when requested, fanned into one
    /// collector for [`Supervisor::with_collector`].
    pub fn observability(&self) -> Observability {
        let registry = Arc::new(Registry::new());
        // Record which multiply-kernel ISA tier this process dispatches
        // to (0 = scalar, 1 = AVX2) so every metrics_summary.json names
        // the tier that produced it, and log it once per process.
        let tier = realm_core::simd::active_tier();
        registry.gauge("kernel_tier", f64::from(tier.index()));
        static TIER_LOG: std::sync::Once = std::sync::Once::new();
        TIER_LOG.call_once(|| eprintln!("multiply kernel tier: {tier}"));
        let mut fanout = Fanout::new().with(registry.clone());
        let sink = self.trace.as_ref().map(|p| Arc::new(JsonlSink::new(p)));
        if let Some(sink) = &sink {
            fanout = fanout.with(sink.clone());
        }
        if self.progress {
            fanout = fanout.with(Arc::new(ProgressReporter::new()));
        }
        Observability {
            registry,
            sink,
            collector: fanout.shared(),
        }
    }

    /// Writes a CSV artifact into the output directory (if one was
    /// given) via the crash-safe atomic write path. Prints the
    /// diagnostic and exits 1 if the artifact cannot be written — a
    /// half-written file is never left behind.
    pub fn write_csv(&self, name: &str, content: &str) {
        if let Some(dir) = &self.out_dir {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("error: cannot create '{}': {e}", dir.display());
                std::process::exit(1);
            }
            let path = dir.join(name);
            if let Err(e) = realm_harness::atomic_write_str(&path, content) {
                eprintln!("error: cannot write '{}': {e}", path.display());
                std::process::exit(1);
            }
            println!("wrote {}", path.display());
        }
    }
}

/// The observability wiring of one driver invocation (see
/// [`Options::observability`]): share its collector with every
/// supervisor the driver builds, then call [`finish`](Self::finish)
/// once before exiting to publish the trace file.
pub struct Observability {
    registry: Arc<Registry>,
    sink: Option<Arc<JsonlSink>>,
    collector: SharedCollector,
}

impl fmt::Debug for Observability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Observability")
            .field("trace", &self.sink.as_ref().map(|s| s.path().to_path_buf()))
            .finish_non_exhaustive()
    }
}

impl Observability {
    /// The fan-out collector to install via
    /// [`Supervisor::with_collector`].
    pub fn collector(&self) -> SharedCollector {
        self.collector.clone()
    }

    /// A snapshot of the aggregated metrics (counters, gauges, chunk
    /// wall-time histogram) accumulated so far.
    pub fn metrics(&self) -> MetricsSummary {
        self.registry.snapshot()
    }

    /// Publishes the `--trace` JSONL stream (crash-safe atomic write).
    /// The trace is advisory: a publish failure is reported on stderr
    /// but never fails the driver, whose results are already computed.
    pub fn finish(&self) {
        if let Some(sink) = &self.sink {
            match sink.finish() {
                Ok(()) => println!("wrote {}", sink.path().display()),
                Err(e) => eprintln!(
                    "warning: cannot write trace '{}': {e}",
                    sink.path().display()
                ),
            }
        }
    }
}

/// Parses decimal, `2^k`, or `K`/`M`-suffixed counts (`1M`, `64k`).
/// Overflow is a diagnostic, not a panic.
pub fn parse_count(s: &str) -> Result<u64, CliError> {
    let bad = |why: &str| CliError(format!("invalid count '{s}': {why}"));
    if let Some(exp) = s.strip_prefix("2^") {
        let k: u32 = exp
            .parse()
            .map_err(|_| bad("exponent must be a small integer"))?;
        if k > 63 {
            return Err(bad("2^k exceeds 64 bits (k must be ≤ 63)"));
        }
        return Ok(1u64 << k);
    }
    if let Some(mega) = s.strip_suffix(['M', 'm']) {
        let n: u64 = mega.parse().map_err(|_| bad("expected digits before M"))?;
        return n
            .checked_mul(1_000_000)
            .ok_or_else(|| bad("count overflows 64 bits"));
    }
    if let Some(kilo) = s.strip_suffix(['K', 'k']) {
        let n: u64 = kilo.parse().map_err(|_| bad("expected digits before K"))?;
        return n
            .checked_mul(1_000)
            .ok_or_else(|| bad("count overflows 64 bits"));
    }
    s.parse()
        .map_err(|_| bad("expected a non-negative integer (or 2^k / 64k / 4M)"))
}

/// Parses a human duration: `90s`, `10m`, `2h`, `500ms`, or bare
/// seconds.
pub fn parse_duration(s: &str) -> Result<Duration, CliError> {
    let bad = || CliError(format!("invalid duration '{s}': use 30s, 10m, 2h or 500ms"));
    let (digits, scale_ms) = if let Some(d) = s.strip_suffix("ms") {
        (d, 1u64)
    } else if let Some(d) = s.strip_suffix('s') {
        (d, 1_000)
    } else if let Some(d) = s.strip_suffix('m') {
        (d, 60_000)
    } else if let Some(d) = s.strip_suffix('h') {
        (d, 3_600_000)
    } else {
        (s, 1_000)
    };
    let n: u64 = digits.parse().map_err(|_| bad())?;
    let ms = n.checked_mul(scale_ms).ok_or_else(bad)?;
    Ok(Duration::from_millis(ms))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, CliError> {
        Options::parse(args.iter().map(|s| s.to_string()))
    }

    fn ok(args: &[&str]) -> Options {
        parse(args).expect("valid arguments")
    }

    #[test]
    fn defaults_match_paper_budget() {
        let o = Options::default();
        assert_eq!(o.samples, 1 << 24);
    }

    #[test]
    fn parses_all_flags() {
        let o = ok(&[
            "--samples",
            "2^20",
            "--cycles",
            "500",
            "--seed",
            "7",
            "--threads",
            "4",
            "--out",
            "/tmp/x",
            "--smoke",
            "--checkpoint-dir",
            "/tmp/ckpt",
            "--resume",
            "--deadline",
            "10m",
            "--max-chunks",
            "12",
            "--inject-panic",
            "2,5",
        ]);
        assert_eq!(o.samples, 1 << 20);
        assert_eq!(o.cycles, 500);
        assert_eq!(o.seed, 7);
        assert_eq!(o.threads, Threads::Fixed(4));
        assert_eq!(o.out_dir.as_deref(), Some(std::path::Path::new("/tmp/x")));
        assert!(o.smoke);
        assert_eq!(
            o.checkpoint_dir.as_deref(),
            Some(std::path::Path::new("/tmp/ckpt"))
        );
        assert!(o.resume);
        assert_eq!(o.deadline, Some(Duration::from_secs(600)));
        assert_eq!(o.max_chunks, Some(12));
        assert_eq!(o.inject_panic, vec![2, 5]);
    }

    #[test]
    fn threads_zero_means_auto() {
        assert_eq!(ok(&["--threads", "0"]).threads, Threads::Auto);
        assert_eq!(ok(&[]).threads, Threads::Auto);
    }

    #[test]
    fn resume_defaults_the_checkpoint_dir() {
        let o = ok(&["--resume"]);
        assert_eq!(
            o.checkpoint_dir.as_deref(),
            Some(std::path::Path::new(".realm-checkpoints"))
        );
        assert!(ok(&[]).checkpoint_dir.is_none());
    }

    #[test]
    fn cargo_bench_marker_is_ignored() {
        let o = ok(&["--bench", "--smoke"]);
        assert!(o.smoke);
    }

    #[test]
    fn parses_suffixes() {
        assert_eq!(ok(&["--samples", "4M"]).samples, 4_000_000);
        assert_eq!(ok(&["--samples", "64k"]).samples, 64_000);
        assert_eq!(ok(&["--samples", "12345"]).samples, 12_345);
    }

    #[test]
    fn parses_durations() {
        assert_eq!(parse_duration("500ms"), Ok(Duration::from_millis(500)));
        assert_eq!(parse_duration("90s"), Ok(Duration::from_secs(90)));
        assert_eq!(parse_duration("10m"), Ok(Duration::from_secs(600)));
        assert_eq!(parse_duration("2h"), Ok(Duration::from_secs(7_200)));
        assert_eq!(parse_duration("45"), Ok(Duration::from_secs(45)));
        assert!(parse_duration("soon").is_err());
        assert!(parse_duration("-3s").is_err());
    }

    #[test]
    fn unknown_flag_is_a_friendly_error_not_a_panic() {
        let err = parse(&["--bogus"]).expect_err("must be rejected");
        assert!(err.to_string().contains("--bogus"), "{err}");
        assert!(err.to_string().contains("--help"), "{err}");
    }

    #[test]
    fn malformed_counts_are_diagnosed() {
        for args in [
            &["--samples", "lots"][..],
            &["--samples", "2^64"],
            &["--samples", "99999999999999999999M"],
            &["--samples", "0"],
            &["--cycles", "2^33"],
            &["--samples"],
        ] {
            let err = parse(args).expect_err("must be rejected");
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn usage_documents_zero_is_auto() {
        assert!(usage().contains("0 = auto"));
        assert!(usage().contains("--resume"));
        assert!(usage().contains("--deadline"));
    }

    #[test]
    fn supervisor_reflects_the_options() {
        let o = ok(&["--threads", "3", "--max-chunks", "7"]);
        let sup = o.supervisor();
        assert_eq!(sup.threads(), Threads::Fixed(3));
    }

    #[test]
    fn parses_trace_and_progress() {
        let o = ok(&["--trace", "/tmp/run.jsonl", "--progress"]);
        assert_eq!(
            o.trace.as_deref(),
            Some(std::path::Path::new("/tmp/run.jsonl"))
        );
        assert!(o.progress);
        assert!(!ok(&[]).progress);
        assert!(usage().contains("--trace"), "usage must document --trace");
        assert!(usage().contains("--progress"));
    }

    #[test]
    fn parses_design_and_usage_documents_it() {
        let o = ok(&["--design", "realm:m=8,t=3"]);
        assert_eq!(o.design.as_deref(), Some("realm:m=8,t=3"));
        assert!(ok(&[]).design.is_none());
        assert!(usage().contains("--design"));
        assert!(usage().contains("scaletrim"), "usage must list scaletrim");
        assert!(usage().contains("ilm"), "usage must list ilm");
        assert!(usage().contains("@W"), "usage must document the @W suffix");
        assert!(usage().contains("SIGTERM"), "usage must document SIGTERM");
    }

    #[test]
    fn malformed_designs_are_rejected_at_the_flag() {
        for text in [
            "frobnicator",     // unknown name
            "realm:m=3",       // name ok, config invalid
            "scaletrim:t=1",   // t below the supported range
            "scaletrim:c=2",   // c must be 0 or 1
            "ilm:i=3",         // iterations out of range
            "ilm@banana",      // malformed @W suffix
            "calm@16:w=16",    // width given twice
            "drum:k=6,typo=1", // unknown key
        ] {
            let err = parse(&["--design", text]).expect_err(text);
            assert!(err.to_string().contains("--design"), "{text}: {err}");
            assert!(err.to_string().contains(text), "{text}: {err}");
        }
        // The new grammar parses end to end through the flag.
        for text in ["scaletrim:t=6,c=0", "ilm:i=1", "calm@8", "realm@24:m=8"] {
            assert_eq!(ok(&["--design", text]).design.as_deref(), Some(text));
        }
    }

    #[test]
    fn parses_layers_and_rejects_malformed_specs() {
        let o = ok(&["--layers", "conv1=realm16t4,dense1=scaletrim:t=6@16"]);
        assert_eq!(
            o.layers.as_deref(),
            Some("conv1=realm16t4,dense1=scaletrim:t=6@16")
        );
        assert!(ok(&[]).layers.is_none());
        assert!(usage().contains("--layers"), "usage must document --layers");
        assert!(usage().contains("layer=design"));
        for bad in [
            &["--layers", "conv1"][..],       // no '='
            &["--layers", "conv1=banana"],    // unknown design
            &["--layers", "t=4"],             // param before any binding
            &["--layers", "conv1=realm:z=1"], // unknown key
            &["--layers", ""],                // empty spec
            &["--layers"],                    // missing value
        ] {
            let err = parse(bad).expect_err("must be rejected");
            assert!(err.to_string().contains("--layers"), "{err}");
        }
    }

    #[test]
    fn parses_error_sla_and_rejects_malformed_budgets() {
        let o = ok(&["--error-sla", "mean:0.03,nmed:0.01"]);
        let sla = o.error_sla.expect("parsed SLA");
        assert_eq!(sla.mean, Some(0.03));
        assert_eq!(sla.nmed, Some(0.01));
        assert_eq!(sla.peak, None);
        assert!(ok(&[]).error_sla.is_none());
        assert!(usage().contains("--error-sla"));
        for bad in [
            &["--error-sla", "mean:banana"][..],
            &["--error-sla", "typo:0.1"],
            &["--error-sla", ""],
            &["--error-sla"],
        ] {
            let err = parse(bad).expect_err("must be rejected");
            assert!(err.to_string().contains("--error-sla"), "{err}");
        }
    }

    #[test]
    fn observability_records_the_kernel_tier_gauge() {
        let metrics = ok(&[]).observability().metrics();
        let tier = metrics.gauges["kernel_tier"];
        // 0 = scalar, 1 = AVX2 — whatever this host dispatches to.
        assert!(tier == 0.0 || tier == 1.0, "kernel_tier = {tier}");
        assert_eq!(
            tier as u8,
            realm_core::simd::active_tier().index(),
            "gauge must reflect the process-wide tier"
        );
    }

    #[test]
    fn observability_collects_into_the_registry() {
        let obs = ok(&[]).observability();
        let collector = obs.collector();
        assert!(collector.enabled(), "registry is always installed");
        collector.record(&realm_obs::Event::ChunkReplayed {
            chunk: 0,
            samples: 64,
        });
        let metrics = obs.metrics();
        assert_eq!(metrics.counters["chunks_replayed_total"], 1);
        obs.finish(); // no --trace: must be a no-op, not an error
    }

    #[test]
    fn observability_trace_sink_follows_the_flag() {
        let dir = std::env::temp_dir().join("realm-bench-opts-trace-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("t.jsonl");
        let o = ok(&["--trace", path.to_str().expect("utf-8 path")]);
        let obs = o.observability();
        obs.collector().record(&realm_obs::Event::ChunkReplayed {
            chunk: 1,
            samples: 2,
        });
        obs.finish();
        let text = std::fs::read_to_string(&path).expect("trace published");
        assert!(text.contains("\"ev\":\"chunk_replayed\""), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
