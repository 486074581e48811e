//! Serialized campaign specifications: the textual grammar a job server
//! (or a CLI flag) uses to name a design and a campaign, and the bridge
//! from that description to a runnable [`Workload`].
//!
//! Everything the engine runs is configured by Rust values; everything a
//! *service* accepts arrives as text. This module is the one parser and
//! validator between the two, so `realm-serve`, the bench binaries and
//! the tests all agree on what `"realm:m=16,t=0"` means.
//!
//! # Design grammar
//!
//! ```text
//! design := name [ "@" width ] [ ":" key "=" int { "," key "=" int } ]
//! ```
//!
//! [`DesignSpec`] holds the grammar and its family table; [`parse_design`]
//! parses a text and builds its model. Widths are what the model accepts:
//!
//! | name | keys (default) | widths | design |
//! |---|---|---|---|
//! | `accurate` | `w` (16) | 1…64 | exact double-wide multiplier |
//! | `realm` | `w` (16), `m` (16), `t` (0), `q` (6) | 4…64 | the paper's REALM |
//! | `calm` | `w` (16) | 4…64 | Mitchell-based cALM baseline |
//! | `alm-maa`, `alm-soa` | `w` (16), `m` (11) | 4…32 | ALM with `m` approximate adder bits, `m < w − 1` |
//! | `implm` | `w` (16) | 4…32 | ImpLM baseline |
//! | `mbm` | `w` (16), `t` (0) | 4…32 | Mitchell-based MBM, truncation `t` |
//! | `am1`, `am2` | `w` (16), `nb` (9) | 4…32 | AM1/AM2 with `nb` error-recovery columns |
//! | `intalp` | `w` (16), `l` (1) | 4…32 | IntALP with `l` ∈ {1,2} levels |
//! | `drum` | `w` (16), `k` (6) | 4…64 | DRUM with `k`-bit fragment |
//! | `ssm` | `w` (16), `s` (8) | 4…32 | static segment multiplier |
//! | `essm8` | `w` (16) | 16 | ESSM with three 8-bit segments |
//! | `scaletrim` | `w` (16), `t` (4), `c` (1) | 4…64 | scaleTRIM, `t` cross-term bits, compensation `c` ∈ {0,1} |
//! | `ilm` | `w` (16), `i` (2) | 4…64 | iterative log multiplier, `i` ∈ {1,2} iterations |
//! | `kulkarni` | `w` (16) | 2…32 (powers of two) | 2×2-array underdesigned multiplier |
//!
//! The `@width` suffix is shorthand for the `w` key (`"calm@8"` ≡
//! `"calm:w=8"`); giving both is an error, not a tiebreak.
//!
//! Unknown names and unknown keys are errors (a job server must reject,
//! not guess); a width or parameter combination the design does not
//! support surfaces the design's own [`ConfigError`].
//!
//! # Scoping
//!
//! A multi-tenant server runs many jobs with *identical* specs, and each
//! needs its own journal: [`CampaignSpec::workload`] therefore accepts an
//! optional **scope** (e.g. a job id) appended to the campaign subject.
//! The scope changes the fingerprint — journals never collide — but not
//! the computation: outputs depend only on the spec, so two jobs with
//! equal specs still produce bit-identical summaries.

use std::fmt;

pub use realm_baselines::catalog::DesignSpec;
use realm_baselines::catalog::ParseError;
use realm_core::multiplier::MultiplierExt;
use realm_core::{ConfigError, Multiplier};
use realm_harness::{CampaignId, HarnessError, Supervised, Supervisor};
use realm_par::{Chunk, ChunkPlan};

use crate::engine::{campaign_id, Engine, Workload};
use crate::exhaustive::RangeWorkload;
use crate::montecarlo::MonteCarlo;
use crate::summary::ErrorSummary;

/// Errors from parsing or running a campaign specification.
#[derive(Debug)]
pub enum SpecError {
    /// The design name is not in the family table.
    UnknownDesign(String),
    /// A parameter was malformed, out of range, or not a key the named
    /// design accepts.
    BadParam {
        /// The full design text being parsed.
        design: String,
        /// What was wrong with it.
        detail: String,
    },
    /// The parameters parsed but the design rejected the combination.
    Config(ConfigError),
    /// The campaign description itself is unusable (zero samples, empty
    /// operand range, …).
    Invalid(String),
    /// The supervised run failed at the journaling layer.
    Harness(HarnessError),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // The registry's message, which lists the family table's names.
            SpecError::UnknownDesign(name) => {
                fmt::Display::fmt(&ParseError::UnknownDesign(name.clone()), f)
            }
            SpecError::BadParam { design, detail } => {
                write!(f, "bad parameter in design '{design}': {detail}")
            }
            SpecError::Config(e) => write!(f, "invalid design configuration: {e}"),
            SpecError::Invalid(detail) => write!(f, "invalid campaign spec: {detail}"),
            SpecError::Harness(e) => write!(f, "campaign failed: {e}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<ParseError> for SpecError {
    fn from(e: ParseError) -> Self {
        match e {
            ParseError::UnknownDesign(name) => SpecError::UnknownDesign(name),
            ParseError::BadParam { design, detail } => SpecError::BadParam { design, detail },
        }
    }
}

impl From<ConfigError> for SpecError {
    fn from(e: ConfigError) -> Self {
        SpecError::Config(e)
    }
}

impl From<HarnessError> for SpecError {
    fn from(e: HarnessError) -> Self {
        SpecError::Harness(e)
    }
}

/// A per-campaign error budget: upper bounds on the delivered error
/// metrics a tenant is willing to accept.
///
/// # SLA grammar
///
/// ```text
/// sla := component { "," component }
/// component := ("mean" | "nmed" | "peak") ":" float
/// ```
///
/// e.g. `"mean:0.03,nmed:0.01"` — at least one component, every value a
/// finite positive fraction. Absent components are unconstrained.
/// `mean` bounds the mean absolute relative error, `nmed` the
/// normalized mean error distance, `peak` the worst-case relative
/// error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorSla {
    /// Upper bound on mean |relative error| (`None` = unconstrained).
    pub mean: Option<f64>,
    /// Upper bound on NMED.
    pub nmed: Option<f64>,
    /// Upper bound on peak |relative error|.
    pub peak: Option<f64>,
}

// Total equality holds because the parser (the only sanctioned
// constructor for serialized SLAs) rejects non-finite values.
impl Eq for ErrorSla {}

impl ErrorSla {
    /// Parses the [SLA grammar](ErrorSla). Unknown keys, malformed or
    /// non-positive values, duplicates and empty specs are all errors —
    /// an SLA is a contract, so reject, don't guess.
    pub fn parse(text: &str) -> Result<ErrorSla, SpecError> {
        let bad = |detail: String| SpecError::Invalid(format!("error SLA '{text}': {detail}"));
        let mut sla = ErrorSla {
            mean: None,
            nmed: None,
            peak: None,
        };
        let mut any = false;
        for part in text.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once(':')
                .ok_or_else(|| bad(format!("expected key:value, got '{part}'")))?;
            let value: f64 = value
                .trim()
                .parse()
                .map_err(|_| bad(format!("'{}' is not a number", value.trim())))?;
            if !value.is_finite() || value <= 0.0 {
                return Err(bad(format!("'{value}' is not a positive finite bound")));
            }
            let slot = match key.trim().to_ascii_lowercase().as_str() {
                "mean" => &mut sla.mean,
                "nmed" => &mut sla.nmed,
                "peak" => &mut sla.peak,
                other => return Err(bad(format!("unknown key '{other}' (mean|nmed|peak)"))),
            };
            if slot.replace(value).is_some() {
                return Err(bad(format!("duplicate key '{}'", key.trim())));
            }
            any = true;
        }
        if !any {
            return Err(bad("at least one of mean|nmed|peak is required".into()));
        }
        Ok(sla)
    }

    /// Whether delivered metrics satisfy every constrained component.
    pub fn satisfied_by(&self, mean: f64, nmed: f64, peak: f64) -> bool {
        self.mean.is_none_or(|bound| mean <= bound)
            && self.nmed.is_none_or(|bound| nmed <= bound)
            && self.peak.is_none_or(|bound| peak <= bound)
    }

    /// The canonical text rendering — parses back to an equal value
    /// (`{:?}` floats round-trip exactly).
    pub fn text(&self) -> String {
        let mut out = String::new();
        for (key, value) in [
            ("mean", self.mean),
            ("nmed", self.nmed),
            ("peak", self.peak),
        ] {
            if let Some(v) = value {
                if !out.is_empty() {
                    out.push(',');
                }
                out.push_str(&format!("{key}:{v:?}"));
            }
        }
        out
    }
}

impl fmt::Display for ErrorSla {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text())
    }
}

/// Builds a design from its textual description (see the
/// [module-level grammar](self)): [`DesignSpec::parse`], then
/// [`DesignSpec::build`].
pub fn parse_design(text: &str) -> Result<Box<dyn Multiplier>, SpecError> {
    Ok(DesignSpec::parse(text)?.build()?)
}

/// Which characterization family a spec runs, with the family's own
/// sample-space description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FamilySpec {
    /// Uniform random operand pairs (the paper's §IV-B campaign).
    MonteCarlo {
        /// Number of operand pairs to draw.
        samples: u64,
    },
    /// The cartesian product of two inclusive operand ranges.
    Exhaustive {
        /// `(lo, hi)` of the first operand.
        a: (u64, u64),
        /// `(lo, hi)` of the second operand.
        b: (u64, u64),
    },
}

/// One fully described characterization campaign: family, design text,
/// seed and chunk geometry. This is the unit a job server accepts over
/// the wire and the unit the engine can replay bit-identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSpec {
    /// The design, in the [module-level grammar](self).
    pub design: String,
    /// The campaign family and its sample space.
    pub family: FamilySpec,
    /// RNG seed (Monte Carlo only; exhaustive sweeps draw no randomness
    /// and ignore it).
    pub seed: u64,
    /// Chunk size override (Monte Carlo only — the exhaustive plan is
    /// row-structured). `None` uses the family default. Part of the
    /// campaign identity: resume requires an equal chunk size.
    pub chunk: Option<u64>,
    /// Optional per-campaign error budget. The SLA constrains *design
    /// selection and delivery accounting* (a QoS controller picks the
    /// design, the server scores the delivered error against it); it is
    /// deliberately **not** part of the workload identity — two jobs
    /// with equal design/family/seed/chunk journal identically whether
    /// or not an SLA rides along.
    pub error_sla: Option<ErrorSla>,
}

impl CampaignSpec {
    /// Validates the campaign description (not the design text, nor the
    /// ranges against the design: [`build_design`](Self::build_design)).
    pub fn validate(&self) -> Result<(), SpecError> {
        match &self.family {
            FamilySpec::MonteCarlo { samples } => {
                if *samples == 0 {
                    return Err(SpecError::Invalid("samples must be > 0".into()));
                }
            }
            FamilySpec::Exhaustive { a, b } => {
                for (name, (lo, hi)) in [("a", a), ("b", b)] {
                    if lo > hi {
                        return Err(SpecError::Invalid(format!(
                            "operand range {name} is empty ({lo}..={hi})"
                        )));
                    }
                    if (hi - lo).checked_add(1).is_none() {
                        return Err(SpecError::Invalid(format!(
                            "operand range {name} ({lo}..={hi}) holds more values than a u64 counts"
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// Total samples in the campaign's sample space.
    pub fn total_samples(&self) -> u64 {
        match &self.family {
            FamilySpec::MonteCarlo { samples } => *samples,
            FamilySpec::Exhaustive { a, b } => {
                let rows = a.1.saturating_sub(a.0).saturating_add(1);
                let cols = b.1.saturating_sub(b.0).saturating_add(1);
                rows.saturating_mul(cols)
            }
        }
    }

    /// Builds the spec's design (validating the design text), and
    /// rejects an exhaustive operand range that reaches past the design's
    /// largest operand `2^W − 1`, whose products its contract leaves
    /// unspecified.
    pub fn build_design(&self) -> Result<Box<dyn Multiplier>, SpecError> {
        let design = parse_design(&self.design)?;
        if let FamilySpec::Exhaustive { a, b } = &self.family {
            let max = design.max_operand();
            for (name, (lo, hi)) in [("a", a), ("b", b)] {
                if *hi > max {
                    return Err(SpecError::Invalid(format!(
                        "operand range {name} ({lo}..={hi}) is past the design's largest operand {max}"
                    )));
                }
            }
        }
        Ok(design)
    }

    /// The campaign identity this spec runs under, with an optional
    /// scope (see the [module docs](self)). Useful for journal
    /// discovery before committing to a run.
    pub fn campaign_id(&self, scope: Option<&str>) -> Result<CampaignId, SpecError> {
        self.validate()?;
        let design = self.build_design()?;
        Ok(match self.workload(design.as_ref(), scope) {
            SpecWorkload::MonteCarlo(w) => campaign_id(&w),
            SpecWorkload::Exhaustive(w) => campaign_id(&w),
        })
    }

    /// The spec's [`Workload`] over an already-built design.
    pub fn workload<'a>(
        &self,
        design: &'a dyn Multiplier,
        scope: Option<&str>,
    ) -> SpecWorkload<'a> {
        let inner = match &self.family {
            FamilySpec::MonteCarlo { samples } => {
                let mut mc = MonteCarlo::new((*samples).max(1), self.seed);
                if let Some(chunk) = self.chunk {
                    mc = mc.with_chunk(chunk);
                }
                SpecWorkload::MonteCarlo(Scoped::new(mc.workload(design), scope))
            }
            FamilySpec::Exhaustive { a, b } => SpecWorkload::Exhaustive(Scoped::new(
                RangeWorkload::new(design, a.0..=a.1, b.0..=b.1),
                scope,
            )),
        };
        inner
    }

    /// Runs the campaign under a [`Supervisor`]: the one entry point a
    /// job server needs. Checkpoint/resume, quarantine, deadlines,
    /// cancellation and collectors all come from the supervisor; the
    /// spec (plus scope) fully determines the campaign identity.
    pub fn run_supervised(
        &self,
        scope: Option<&str>,
        supervisor: &Supervisor,
    ) -> Result<Supervised<ErrorSummary>, SpecError> {
        self.validate()?;
        let design = self.build_design()?;
        match self.workload(design.as_ref(), scope) {
            SpecWorkload::MonteCarlo(w) => Ok(Engine::supervised(&w, supervisor)?),
            SpecWorkload::Exhaustive(w) => Ok(Engine::supervised(&w, supervisor)?),
        }
    }
}

/// The concrete workload a [`CampaignSpec`] builds (both families fold
/// to [`ErrorSummary`], but their chunk drivers differ).
pub enum SpecWorkload<'a> {
    /// A scoped Monte-Carlo workload.
    MonteCarlo(Scoped<crate::montecarlo::MonteCarloWorkload<'a>>),
    /// A scoped exhaustive range sweep.
    Exhaustive(Scoped<RangeWorkload<'a>>),
}

/// A [`Workload`] wrapper that appends a scope tag to the subject (and
/// therefore to the fingerprint), leaving the computation untouched.
///
/// `Scoped::new(w, Some("job-7"))` journals under a different file than
/// `Scoped::new(w, Some("job-9"))`, but both fold to bit-identical
/// outputs when `w` is equal — exactly what a multi-tenant server needs
/// to run the same spec for many clients concurrently in one checkpoint
/// directory.
#[derive(Debug, Clone)]
pub struct Scoped<W> {
    inner: W,
    scope: Option<String>,
}

impl<W: Workload> Scoped<W> {
    /// Wraps `inner`; `None` is the identity (subject unchanged).
    pub fn new(inner: W, scope: Option<&str>) -> Self {
        Scoped {
            inner,
            scope: scope.map(str::to_string),
        }
    }
}

impl<W: Workload> Workload for Scoped<W> {
    type Part = W::Part;
    type Output = W::Output;

    fn family(&self) -> &'static str {
        self.inner.family()
    }

    fn subject(&self) -> String {
        match &self.scope {
            None => self.inner.subject(),
            Some(scope) => format!("{}@{scope}", self.inner.subject()),
        }
    }

    fn plan(&self) -> ChunkPlan {
        self.inner.plan()
    }

    fn seed(&self) -> u64 {
        self.inner.seed()
    }

    fn run_chunk(&self, chunk: Chunk) -> Self::Part {
        self.inner.run_chunk(chunk)
    }

    fn finalize(&self, parts: Vec<(u64, Self::Part)>) -> Option<Self::Output> {
        self.inner.finalize(parts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_design_name_in_the_grammar_builds() {
        for text in [
            "accurate",
            "accurate:w=8",
            "realm",
            "realm:m=8,t=3",
            "realm:w=16,m=16,t=0,q=6",
            "calm",
            "drum:k=6",
            "kulkarni:w=8",
            "implm",
            "mbm:t=4",
            "ssm:s=8",
            "scaletrim",
            "scaletrim:t=6,c=0",
            "ilm",
            "ilm:i=1",
            "calm@8",
            "realm@24:m=8,t=3",
            "drum@32:k=8",
            "SCALETRIM@8:t=3",
            " REALM : M=4 , T=1 ", // whitespace + case insensitive
        ] {
            let design = parse_design(text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert!(!design.label().is_empty());
        }
    }

    #[test]
    fn bad_specs_are_rejected_not_guessed() {
        assert!(matches!(
            parse_design("booth"),
            Err(SpecError::UnknownDesign(_))
        ));
        assert!(matches!(
            parse_design("realm:z=3"),
            Err(SpecError::BadParam { .. })
        ));
        assert!(matches!(
            parse_design("realm:m"),
            Err(SpecError::BadParam { .. })
        ));
        assert!(matches!(
            parse_design("realm:m=banana"),
            Err(SpecError::BadParam { .. })
        ));
        // Parameters parse but the design rejects the combination
        // (segments must be a power of two).
        assert!(matches!(
            parse_design("realm:m=3"),
            Err(SpecError::Config(_))
        ));
        // The @W suffix: malformed widths and double specification are
        // grammar errors; a parseable-but-unsupported width is the
        // design's own ConfigError.
        assert!(matches!(
            parse_design("calm@banana"),
            Err(SpecError::BadParam { .. })
        ));
        assert!(matches!(
            parse_design("realm@16:w=16"),
            Err(SpecError::BadParam { .. })
        ));
        assert!(matches!(parse_design("ilm@0"), Err(SpecError::Config(_))));
        assert!(matches!(parse_design("ilm@65"), Err(SpecError::Config(_))));
        assert!(matches!(
            parse_design("scaletrim:c=2"),
            Err(SpecError::BadParam { .. })
        ));
        assert!(matches!(
            parse_design("scaletrim:t=1"),
            Err(SpecError::Config(_))
        ));
        assert!(matches!(parse_design("ilm:i=3"), Err(SpecError::Config(_))));
    }

    #[test]
    fn error_sla_grammar_round_trips() {
        let sla = ErrorSla::parse("mean:0.03,nmed:0.01").unwrap();
        assert_eq!(sla.mean, Some(0.03));
        assert_eq!(sla.nmed, Some(0.01));
        assert_eq!(sla.peak, None);
        assert_eq!(ErrorSla::parse(&sla.text()).unwrap(), sla);
        // Case/whitespace tolerant, like the design grammar.
        let loose = ErrorSla::parse(" MEAN : 0.03 , nmed:0.01 ").unwrap();
        assert_eq!(loose, sla);
        assert!(sla.satisfied_by(0.03, 0.01, 99.0));
        assert!(!sla.satisfied_by(0.0301, 0.01, 0.0));
        assert!(!sla.satisfied_by(0.01, 0.02, 0.0));
    }

    #[test]
    fn error_sla_rejects_malformed_contracts() {
        for bad in [
            "",
            ",",
            "mean",
            "mean:",
            "mean:banana",
            "mean=0.03",
            "latency:0.5",
            "mean:0.03,mean:0.01",
            "mean:-0.1",
            "mean:0",
            "mean:inf",
            "mean:NaN",
        ] {
            assert!(
                matches!(ErrorSla::parse(bad), Err(SpecError::Invalid(_))),
                "{bad:?} must be rejected"
            );
        }
    }

    fn mc_spec(samples: u64) -> CampaignSpec {
        CampaignSpec {
            design: "realm:m=16,t=0".into(),
            family: FamilySpec::MonteCarlo { samples },
            seed: 42,
            chunk: Some(256),
            error_sla: None,
        }
    }

    fn exhaustive_spec(design: &str, a: (u64, u64), b: (u64, u64)) -> CampaignSpec {
        CampaignSpec {
            design: design.into(),
            family: FamilySpec::Exhaustive { a, b },
            seed: 0,
            chunk: None,
            error_sla: None,
        }
    }

    #[test]
    fn validate_catches_empty_sample_spaces() {
        assert!(mc_spec(0).validate().is_err());
        let empty = exhaustive_spec("accurate", (10, 3), (1, 2));
        assert!(empty.validate().is_err());
        assert_eq!(mc_spec(100).total_samples(), 100);
        let exh = exhaustive_spec("accurate", (1, 10), (1, 5));
        assert_eq!(exh.total_samples(), 50);
    }

    #[test]
    fn exhaustive_ranges_stay_inside_the_design() {
        let past = exhaustive_spec("realm:m=16,t=0", (0, u32::MAX as u64), (1, 5));
        assert!(past.validate().is_ok());
        assert!(matches!(past.build_design(), Err(SpecError::Invalid(_))));
        let inside = exhaustive_spec("realm:m=16,t=0", (0, 65_535), (1, 5));
        assert!(inside.build_design().is_ok());
        let wide = exhaustive_spec("accurate@64", (1, u64::MAX), (1, 5));
        assert!(wide.campaign_id(None).is_ok());
        let uncountable = exhaustive_spec("accurate@64", (0, u64::MAX), (1, 5)).campaign_id(None);
        assert!(matches!(uncountable, Err(SpecError::Invalid(_))));
    }

    #[test]
    fn scope_changes_fingerprint_but_not_the_result() {
        let spec = mc_spec(2_000);
        let id_a = spec.campaign_id(Some("job-7")).unwrap();
        let id_b = spec.campaign_id(Some("job-9")).unwrap();
        let id_plain = spec.campaign_id(None).unwrap();
        assert_ne!(id_a.fingerprint(), id_b.fingerprint());
        assert_ne!(id_a.fingerprint(), id_plain.fingerprint());
        assert!(id_a.subject().ends_with("@job-7"), "{}", id_a.subject());

        let sup = Supervisor::new().with_threads(crate::Threads::Fixed(2));
        let a = spec.run_supervised(Some("job-7"), &sup).unwrap();
        let b = spec.run_supervised(Some("job-9"), &sup).unwrap();
        assert!(a.report.is_complete() && b.report.is_complete());
        assert_eq!(a.value, b.value, "scope must never change the fold");

        // And the spec path agrees with the first-party campaign API.
        let design = spec.build_design().unwrap();
        let direct = MonteCarlo::new(2_000, 42)
            .with_chunk(256)
            .characterize(design.as_ref());
        assert_eq!(a.value, Some(direct));
    }

    #[test]
    fn exhaustive_specs_run_too() {
        let spec = exhaustive_spec("calm", (32, 95), (32, 95));
        let sup = Supervisor::new().with_threads(crate::Threads::Fixed(1));
        let out = spec.run_supervised(Some("j"), &sup).unwrap();
        assert!(out.report.is_complete());
        let summary = out.value.unwrap();
        assert_eq!(summary.samples, 64 * 64);
        assert!(summary.max_error <= 0.0, "Mitchell never overestimates");
    }
}
