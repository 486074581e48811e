//! The unified campaign engine: one [`Workload`] abstraction shared by
//! every characterization family in this crate, and one [`Engine`] that
//! composes `realm-par` chunking, `realm-harness` supervision and
//! `realm-obs` observability behind it.
//!
//! ## The contract
//!
//! A [`Workload`] is a *pure description* of a campaign:
//!
//! * a fixed sample space decomposed by a [`ChunkPlan`] whose geometry
//!   never depends on the worker count,
//! * a deterministic per-chunk fold ([`run_chunk`](Workload::run_chunk))
//!   producing a mergeable partial ([`Workload::Part`]) — chunk `i` must
//!   derive all of its randomness from `SplitMix64::stream(seed, i)` and
//!   must not read any state outside the workload and the chunk,
//! * a finalizer ([`finalize`](Workload::finalize)) folding the indexed
//!   partials, **in ascending chunk order**, into the family's summary
//!   type,
//! * an identity (family / subject / plan / seed) that fingerprints the
//!   campaign for checkpoint journaling via [`campaign_id`].
//!
//! Because partials are [`Checkpoint`]s, every workload is journalable
//! for free: the engine's supervised path replays completed chunks from
//! the journal and re-runs only the rest, and a resumed run folds to the
//! bit-identical summary. The differential suite in
//! `tests/engine_differential.rs` pins all of this against goldens
//! captured before the engine existed.

use realm_harness::{CampaignId, Checkpoint, HarnessError, Supervised, Supervisor};
use realm_par::{map_chunks, Chunk, ChunkPlan, Threads};

/// A deterministic, chunk-decomposed characterization campaign.
///
/// Implementations must be pure in the sense documented at the
/// [module level](self): `run_chunk(chunk)` depends only on the workload
/// configuration and the chunk (plus the chunk-indexed RNG substream),
/// and `finalize` must be insensitive to *how* the partials were
/// produced (serial, parallel, replayed from a journal) — only their
/// `(index, part)` content matters. Under those rules the engine
/// guarantees bit-identical outputs at any worker-thread count and
/// across arbitrary interrupt/resume sequences.
pub trait Workload: Sync {
    /// The mergeable per-chunk partial. Being a [`Checkpoint`] makes the
    /// workload journalable: partials are what the supervisor persists
    /// and replays.
    type Part: Checkpoint + Send;

    /// The finalized summary of a complete (or partial-but-covered)
    /// campaign.
    type Output;

    /// The campaign family tag (e.g. `"montecarlo"`, `"exhaustive"`).
    /// Part of the journal fingerprint.
    fn family(&self) -> &'static str;

    /// The campaign subject (typically the design label plus any
    /// parameters not captured by the plan/seed). Part of the journal
    /// fingerprint: two workloads that could fold different data must
    /// have different subjects.
    fn subject(&self) -> String;

    /// The chunk decomposition. Must be a pure function of the workload
    /// configuration (never of the worker count).
    fn plan(&self) -> ChunkPlan;

    /// The campaign seed (0 for exhaustive workloads that draw no
    /// randomness). Part of the journal fingerprint.
    fn seed(&self) -> u64;

    /// Computes chunk `chunk` of the campaign. Must be deterministic
    /// and independent of every other chunk.
    fn run_chunk(&self, chunk: Chunk) -> Self::Part;

    /// Folds indexed partials (ascending chunk order) into the summary.
    /// Returns `None` when the covered chunks contain nothing
    /// summarizable (e.g. zero recorded samples). The merge this
    /// performs must be associative over chunk ranges so that any
    /// replayed/executed split folds identically to a single pass.
    fn finalize(&self, parts: Vec<(u64, Self::Part)>) -> Option<Self::Output>;
}

/// The campaign's identity for checkpoint journaling: binds the family,
/// the subject, the plan geometry and the seed, so a journal can never
/// be replayed into a different campaign.
pub fn campaign_id<W: Workload + ?Sized>(workload: &W) -> CampaignId {
    CampaignId::new(
        workload.family(),
        workload.subject(),
        workload.plan(),
        workload.seed(),
    )
}

/// The one campaign driver behind every characterization family.
///
/// The engine owns nothing but a thread policy; all campaign content
/// lives in the [`Workload`]. Three entry points cover every use in the
/// workspace:
///
/// * [`run`](Engine::run) — plain parallel execution on the engine's
///   pool,
/// * [`supervised`](Engine::supervised) — checkpoint/resume, panic
///   quarantine, deadlines, cancellation and observability via a
///   [`Supervisor`],
/// * [`serial_with`](Engine::serial_with) — serial execution with a
///   caller-instrumented chunk driver (e.g. a histogram sink observing
///   every sample), folding exactly like the parallel paths.
///
/// ```
/// use realm_core::Accurate;
/// use realm_metrics::engine::Engine;
/// use realm_metrics::{MonteCarlo, Threads};
///
/// let campaign = MonteCarlo::new(10_000, 42);
/// let design = Accurate::new(16);
/// let summary = Engine::new(Threads::Auto)
///     .run(&campaign.workload(&design))
///     .unwrap_or_else(|| panic!("campaign draws at least one sample"));
/// assert_eq!(summary.mean_error, 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Engine {
    threads: Threads,
}

impl Default for Engine {
    /// An engine on every available hardware thread.
    fn default() -> Self {
        Engine::new(Threads::Auto)
    }
}

impl Engine {
    /// An engine with an explicit worker-thread policy. Purely a
    /// performance knob: outputs are bit-identical for every policy.
    pub fn new(threads: Threads) -> Self {
        Engine { threads }
    }

    /// The engine's worker-thread policy.
    pub fn threads(&self) -> Threads {
        self.threads
    }

    /// Runs the full campaign on the engine's worker pool and finalizes
    /// the per-chunk partials in chunk order. `None` when the workload
    /// summarizes to nothing (e.g. every sample was skipped).
    pub fn run<W: Workload>(&self, workload: &W) -> Option<W::Output> {
        workload.finalize(map_chunks(workload.plan(), self.threads, |chunk| {
            (chunk.index, workload.run_chunk(chunk))
        }))
    }

    /// Runs the campaign under a [`Supervisor`]: checkpoint/resume,
    /// panic quarantine, deadlines, cancellation, and whatever
    /// observability collector the supervisor carries.
    ///
    /// When the returned report says the run is complete, the value is
    /// bit-identical to [`run`](Engine::run) — regardless of thread
    /// count, how many times the campaign was interrupted and resumed,
    /// or how many transient panics were retried. On a partial run the
    /// value covers exactly the chunks the report accounts for (`None`
    /// if no chunk completed). The supervisor's thread policy is used
    /// (the engine's own policy only drives the unsupervised path).
    pub fn supervised<W: Workload>(
        workload: &W,
        supervisor: &Supervisor,
    ) -> Result<Supervised<W::Output>, HarnessError> {
        let outcome = supervisor.run(&campaign_id(workload), workload.plan(), |chunk| {
            workload.run_chunk(chunk)
        })?;
        Ok(outcome.fold(|parts| workload.finalize(parts)))
    }

    /// Runs the campaign serially on the calling thread through a
    /// caller-supplied chunk driver — the hook for sinks that must
    /// observe every sample (Fig. 5's histograms). The driver **must**
    /// return exactly what [`Workload::run_chunk`] would return for the
    /// chunk; the decomposition and fold order are identical to
    /// [`run`](Engine::run), so the output is bit-identical to the
    /// parallel path.
    pub fn serial_with<W: Workload>(
        workload: &W,
        mut driver: impl FnMut(Chunk) -> W::Part,
    ) -> Option<W::Output> {
        let parts = workload
            .plan()
            .chunks()
            .map(|chunk| (chunk.index, driver(chunk)))
            .collect();
        workload.finalize(parts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use realm_harness::ByteReader;

    /// A toy workload: chunk `i` contributes the sum of its global
    /// sample indices; the output is the grand total.
    struct SumWorkload {
        total: u64,
        chunk: u64,
    }

    impl Workload for SumWorkload {
        type Part = u64;
        type Output = u64;

        fn family(&self) -> &'static str {
            "sum"
        }

        fn subject(&self) -> String {
            format!("0..{}", self.total)
        }

        fn plan(&self) -> ChunkPlan {
            ChunkPlan::new(self.total, self.chunk)
        }

        fn seed(&self) -> u64 {
            0
        }

        fn run_chunk(&self, chunk: Chunk) -> u64 {
            (chunk.start..chunk.end()).sum()
        }

        fn finalize(&self, parts: Vec<(u64, u64)>) -> Option<u64> {
            Some(parts.iter().map(|&(_, p)| p).sum())
        }
    }

    #[test]
    fn run_folds_every_chunk_once() {
        let w = SumWorkload {
            total: 1000,
            chunk: 7,
        };
        assert_eq!(Engine::new(Threads::Fixed(3)).run(&w), Some(999 * 1000 / 2));
    }

    #[test]
    fn serial_with_matches_run() {
        let w = SumWorkload {
            total: 500,
            chunk: 16,
        };
        let mut seen = Vec::new();
        let serial = Engine::serial_with(&w, |chunk| {
            seen.push(chunk.index);
            w.run_chunk(chunk)
        });
        assert_eq!(serial, Engine::default().run(&w));
        // The driver sees every chunk, in order.
        let expected: Vec<u64> = (0..w.plan().num_chunks()).collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn campaign_id_binds_all_four_identity_fields() {
        let w = SumWorkload {
            total: 100,
            chunk: 10,
        };
        let id = campaign_id(&w);
        assert_eq!(id.family(), "sum");
        assert_eq!(id.subject(), "0..100");
        let other = SumWorkload {
            total: 100,
            chunk: 20,
        };
        assert_ne!(id.fingerprint(), campaign_id(&other).fingerprint());
    }

    #[test]
    fn supervised_equals_run_and_resumes() {
        let dir = std::env::temp_dir().join(format!("realm-engine-{}", std::process::id()));
        let w = SumWorkload {
            total: 640,
            chunk: 8,
        };
        // Interrupt after 3 chunks, then resume to completion.
        let sup = Supervisor::new()
            .with_threads(Threads::Fixed(1))
            .checkpoint_to(&dir)
            .with_chunk_budget(3);
        let partial = Engine::supervised(&w, &sup).expect("supervised run");
        assert!(!partial.report.is_complete());
        let sup = Supervisor::new()
            .with_threads(Threads::Fixed(2))
            .checkpoint_to(&dir)
            .resume(true);
        let resumed = Engine::supervised(&w, &sup).expect("resumed run");
        assert!(resumed.report.is_complete());
        assert_eq!(resumed.value, Engine::default().run(&w));
        std::fs::remove_dir_all(&dir).ok();
    }

    // `u64` already implements Checkpoint in realm-harness; keep a
    // compile-time proof that the bound composes for tuple partials too.
    #[allow(dead_code)]
    fn tuple_parts_are_checkpoints() {
        fn assert_part<T: Checkpoint>() {}
        assert_part::<(u64, Vec<f64>)>();
        let _ = ByteReader::new(&[]);
    }
}
