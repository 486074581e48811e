//! Monte-Carlo error characterization (paper §IV-B): uniform random
//! operand pairs over `{0, …, 2^N − 1}`, seeded for reproducibility.
//!
//! The paper uses `2^24` samples per configuration; campaigns here take
//! the sample count as a parameter so tests can run small and the bench
//! harness can run the full budget.
//!
//! ## Determinism under parallelism
//!
//! A campaign is decomposed into fixed-size chunks ([`ChunkPlan`]); chunk
//! `i` draws its operands from the substream `SplitMix64::stream(seed, i)`
//! and fills a private [`ErrorAccumulator`], and the per-chunk accumulators
//! are merged **in chunk order**. Both the serial and the parallel path run
//! this exact decomposition, so the summary is bit-identical for any
//! worker-thread count — parallelism only changes wall-clock time.

use realm_core::multiplier::MultiplierExt;
use realm_core::Multiplier;
use realm_harness::{CampaignId, HarnessError, Supervised, Supervisor};
use realm_par::{Chunk, ChunkPlan, Threads};

use crate::chunk_body::fold_drawn;
use crate::engine::{campaign_id, Engine, Workload};
use crate::summary::{ErrorAccumulator, ErrorSummary};

/// Default chunk size: 2^16 samples per chunk, i.e. 256 chunks for the
/// paper's 2^24-sample budget — plenty of load-balancing granularity while
/// keeping per-chunk bookkeeping negligible.
pub const DEFAULT_CHUNK: u64 = 1 << 16;

/// A reproducible Monte-Carlo characterization campaign.
///
/// ```
/// use realm_core::{Realm, RealmConfig};
/// use realm_metrics::MonteCarlo;
///
/// # fn main() -> Result<(), realm_core::ConfigError> {
/// let campaign = MonteCarlo::new(50_000, 7);
/// let realm = Realm::new(RealmConfig::n16(16, 0))?;
/// let s = campaign.characterize(&realm);
/// // Table I: REALM16/t=0 mean error 0.42 %.
/// assert!((s.mean_error - 0.0042).abs() < 0.001);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MonteCarlo {
    samples: u64,
    seed: u64,
    threads: Threads,
    chunk: u64,
}

impl MonteCarlo {
    /// A campaign drawing `samples` operand pairs from the RNG seeded with
    /// `seed`, using every available hardware thread ([`Threads::Auto`])
    /// and the default chunk size. The thread count never affects the
    /// result.
    pub fn new(samples: u64, seed: u64) -> Self {
        assert!(samples > 0, "campaign needs at least one sample");
        MonteCarlo {
            samples,
            seed,
            threads: Threads::Auto,
            chunk: DEFAULT_CHUNK,
        }
    }

    /// Sets the worker-thread policy. Purely a performance knob: summaries
    /// are bit-identical for every choice.
    pub fn with_threads(mut self, threads: Threads) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the chunk size. **This knob changes which RNG substream serves
    /// which sample**, so two campaigns compare bit-identically only at
    /// equal chunk size (the default is fine for everything but tests).
    pub fn with_chunk(mut self, chunk: u64) -> Self {
        self.chunk = chunk.max(1);
        self
    }

    /// Number of samples drawn per characterization.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// The campaign seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The worker-thread policy.
    pub fn threads(&self) -> Threads {
        self.threads
    }

    /// The chunk decomposition of this campaign.
    pub fn plan(&self) -> ChunkPlan {
        ChunkPlan::new(self.samples, self.chunk)
    }

    /// The campaign's [`Workload`] over one design — the engine-facing
    /// description every entry point below drives.
    pub fn workload<'a>(&self, design: &'a dyn Multiplier) -> MonteCarloWorkload<'a> {
        MonteCarloWorkload {
            campaign: *self,
            design,
        }
    }

    /// Characterizes one design: relative error statistics over uniform
    /// random pairs (zero products skipped, as in the paper). Runs the
    /// chunk plan on the campaign's worker pool.
    pub fn characterize(&self, design: &dyn Multiplier) -> ErrorSummary {
        Engine::new(self.threads)
            .run(&self.workload(design))
            .unwrap_or_else(|| panic!("cannot summarize an empty accumulator"))
    }

    /// The campaign's identity for checkpoint journaling: binds the
    /// family, the design (via its label), the plan geometry and the
    /// seed, so a journal can never be replayed into a different
    /// campaign.
    pub fn campaign_id(&self, design: &dyn Multiplier) -> CampaignId {
        campaign_id(&self.workload(design))
    }

    /// [`characterize`](Self::characterize) under a
    /// [`Supervisor`]: checkpoint/resume, panic quarantine, deadlines
    /// and cancellation.
    ///
    /// When the report says the run is complete, the summary is
    /// bit-identical to [`characterize`](Self::characterize) —
    /// regardless of thread count, how many times the campaign was
    /// interrupted and resumed, or how many transient panics were
    /// retried. On a partial run the summary covers exactly the chunks
    /// the report accounts for (`None` if no chunk completed). The
    /// supervisor's thread policy is used (the campaign's own is for
    /// the unsupervised path).
    pub fn characterize_supervised(
        &self,
        design: &dyn Multiplier,
        supervisor: &Supervisor,
    ) -> Result<Supervised<ErrorSummary>, HarnessError> {
        Engine::supervised(&self.workload(design), supervisor)
    }

    /// Characterizes one design and simultaneously feeds every error into
    /// `sink` (used to build Fig. 5 histograms without a second pass).
    ///
    /// The sink forces serial execution, but the decomposition and fold
    /// order are identical to [`characterize`](Self::characterize), so the
    /// returned summary is bit-identical to the parallel one and the sink
    /// sees errors in deterministic chunk order.
    pub fn characterize_with<F: FnMut(f64)>(
        &self,
        design: &dyn Multiplier,
        mut sink: F,
    ) -> ErrorSummary {
        let workload = self.workload(design);
        Engine::serial_with(&workload, |chunk| workload.run_chunk_with(chunk, &mut sink))
            .unwrap_or_else(|| panic!("cannot summarize an empty accumulator"))
    }
}

/// The [`Workload`] of one [`MonteCarlo`] campaign applied to one design:
/// `samples` uniform operand pairs, chunk `i` drawn from
/// `SplitMix64::stream(seed, i)`, folded into an [`ErrorAccumulator`]
/// per chunk.
#[derive(Debug, Clone, Copy)]
pub struct MonteCarloWorkload<'a> {
    campaign: MonteCarlo,
    design: &'a dyn Multiplier,
}

impl MonteCarloWorkload<'_> {
    /// The chunk driver with a sample sink: folds the chunk's uniform
    /// operand pairs, drawn and multiplied by the shared chunk body, into
    /// relative errors (zero products skipped, as in the paper).
    /// `on_error` observes every recorded error in draw order.
    /// [`Workload::run_chunk`] is exactly this with a no-op sink.
    pub fn run_chunk_with(&self, chunk: Chunk, mut on_error: impl FnMut(f64)) -> ErrorAccumulator {
        let mut acc = ErrorAccumulator::new();
        fold_drawn(
            self.design,
            self.campaign.seed,
            chunk,
            0,
            |_, _, approx, exact| {
                if exact != 0.0 {
                    let e = (approx - exact) / exact;
                    acc.push(e);
                    on_error(e);
                }
            },
        );
        acc
    }
}

impl Workload for MonteCarloWorkload<'_> {
    type Part = ErrorAccumulator;
    type Output = ErrorSummary;

    fn family(&self) -> &'static str {
        "montecarlo"
    }

    fn subject(&self) -> String {
        self.design.label()
    }

    fn plan(&self) -> ChunkPlan {
        self.campaign.plan()
    }

    fn seed(&self) -> u64 {
        self.campaign.seed
    }

    fn run_chunk(&self, chunk: Chunk) -> ErrorAccumulator {
        self.run_chunk_with(chunk, |_| {})
    }

    fn finalize(&self, parts: Vec<(u64, ErrorAccumulator)>) -> Option<ErrorSummary> {
        let mut total = ErrorAccumulator::new();
        for (_, part) in &parts {
            total.merge(part);
        }
        (total.count() > 0).then(|| total.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use realm_baselines::Calm;
    use realm_core::Accurate;

    #[test]
    fn accurate_has_all_zero_metrics() {
        let s = MonteCarlo::new(5_000, 1).characterize(&Accurate::new(16));
        assert_eq!(s.bias, 0.0);
        assert_eq!(s.mean_error, 0.0);
        assert_eq!(s.variance, 0.0);
        assert_eq!(s.min_error, 0.0);
        assert_eq!(s.max_error, 0.0);
    }

    #[test]
    fn same_seed_is_deterministic() {
        let m = Calm::new(16);
        let a = MonteCarlo::new(20_000, 99).characterize(&m);
        let b = MonteCarlo::new(20_000, 99).characterize(&m);
        assert_eq!(a, b);
    }

    #[test]
    fn thread_count_does_not_change_the_summary() {
        let m = Calm::new(16);
        let base = MonteCarlo::new(30_000, 4).with_chunk(1 << 10);
        let serial = base.with_threads(Threads::Fixed(1)).characterize(&m);
        for workers in [2usize, 3, 8] {
            let parallel = base.with_threads(Threads::Fixed(workers)).characterize(&m);
            assert_eq!(serial, parallel, "workers={workers}");
        }
    }

    #[test]
    fn characterize_with_matches_characterize_bit_for_bit() {
        let m = Calm::new(16);
        let c = MonteCarlo::new(25_000, 12).with_chunk(1 << 11);
        let plain = c.characterize(&m);
        let with_sink = c.characterize_with(&m, |_| {});
        assert_eq!(plain, with_sink);
    }

    #[test]
    fn different_seeds_agree_statistically() {
        let m = Calm::new(16);
        let a = MonteCarlo::new(100_000, 1).characterize(&m);
        let b = MonteCarlo::new(100_000, 2).characterize(&m);
        assert!((a.bias - b.bias).abs() < 0.002);
        assert!((a.mean_error - b.mean_error).abs() < 0.002);
    }

    #[test]
    fn calm_matches_table1_row() {
        // Table I cALM: bias −3.85 %, mean 3.85 %, min −11.11 %, max 0.00,
        // variance 8.63 (percent²).
        let s = MonteCarlo::new(200_000, 7).characterize(&Calm::new(16));
        assert!((s.bias - (-0.0385)).abs() < 0.001, "bias {}", s.bias);
        assert!(
            (s.mean_error - 0.0385).abs() < 0.001,
            "mean {}",
            s.mean_error
        );
        assert!(s.max_error <= 0.0);
        assert!(s.min_error >= -0.1112);
        assert!(
            (s.variance_percent() - 8.63).abs() < 0.5,
            "var {}",
            s.variance_percent()
        );
    }

    #[test]
    fn sink_sees_every_error() {
        let mut n = 0u64;
        let s = MonteCarlo::new(3_000, 5).characterize_with(&Calm::new(16), |_| n += 1);
        assert_eq!(n, s.samples);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_samples_rejected() {
        let _ = MonteCarlo::new(0, 1);
    }
}
