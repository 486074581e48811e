//! Absolute-error metrics: NMED (normalized mean error distance) and
//! worst-case error distance — the other common yardsticks in the
//! approximate-arithmetic literature (the survey \[2\] the paper cites),
//! complementing the relative-error metrics of Table I.
//!
//! A chunk is a fold over the shared chunk body: its uniform operand
//! pairs, and their products through the batch kernel up to 32 bits and
//! the wide path above, so distances are those of the true 2N-bit
//! product at every width.

use realm_core::multiplier::MultiplierExt;
use realm_core::Multiplier;
use realm_par::{Chunk, ChunkPlan};

use crate::chunk_body::fold_drawn;
use crate::engine::Workload;
use crate::montecarlo::DEFAULT_CHUNK;

/// Absolute-error statistics for one design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistanceSummary {
    /// NMED: mean |approx − exact| normalized by the maximum product
    /// `(2^N − 1)²`.
    pub nmed: f64,
    /// Worst observed |approx − exact|, normalized the same way ("WCED").
    pub worst_case: f64,
    /// Samples drawn.
    pub samples: u64,
}

/// The [`Workload`] of a distance-metrics campaign: chunk `i` draws
/// uniform operand pairs from `SplitMix64::stream(seed, i)` and sums
/// absolute error distances; the per-chunk sums fold in chunk order, so
/// the summary is bit-identical for every thread policy. Finalization
/// normalizes by the samples the folded chunks actually cover (equal to
/// the budget on complete runs; `None` when they cover none, as for a
/// zero-sample budget).
///
/// ```
/// use realm_core::Accurate;
/// use realm_metrics::{DistanceWorkload, Engine};
///
/// let s = Engine::default()
///     .run(&DistanceWorkload::new(&Accurate::new(16), 10_000, 1))
///     .unwrap_or_else(|| panic!("the campaign draws samples"));
/// assert_eq!(s.nmed, 0.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct DistanceWorkload<'a> {
    design: &'a dyn Multiplier,
    samples: u64,
    seed: u64,
}

impl<'a> DistanceWorkload<'a> {
    /// The NMED/WCED campaign of `design` over `samples` uniform operand
    /// pairs drawn from `seed`.
    pub fn new(design: &'a dyn Multiplier, samples: u64, seed: u64) -> Self {
        DistanceWorkload {
            design,
            samples,
            seed,
        }
    }
}

impl Workload for DistanceWorkload<'_> {
    /// The chunk's sum and maximum of absolute error distances.
    type Part = (f64, f64);
    type Output = DistanceSummary;

    fn family(&self) -> &'static str {
        "nmed"
    }

    fn subject(&self) -> String {
        self.design.label()
    }

    fn plan(&self) -> ChunkPlan {
        ChunkPlan::new(self.samples, DEFAULT_CHUNK)
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn run_chunk(&self, chunk: Chunk) -> (f64, f64) {
        let (mut sum, mut worst) = (0.0f64, 0.0f64);
        fold_drawn(self.design, self.seed, chunk, 0, |_, _, approx, exact| {
            let d = (approx - exact).abs();
            sum += d;
            worst = worst.max(d);
        });
        (sum, worst)
    }

    fn finalize(&self, parts: Vec<(u64, (f64, f64))>) -> Option<DistanceSummary> {
        let plan = self.plan();
        let covered: u64 = parts.iter().map(|&(i, _)| plan.chunk(i).len).sum();
        if covered == 0 {
            return None;
        }
        let max = self.design.max_operand();
        let norm = (max as f64) * (max as f64);
        let mut sum = 0.0f64;
        let mut worst = 0.0f64;
        for &(_, (part_sum, part_worst)) in &parts {
            sum += part_sum;
            worst = worst.max(part_worst);
        }
        Some(DistanceSummary {
            nmed: sum / covered as f64 / norm,
            worst_case: worst / norm,
            samples: covered,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use realm_baselines::{Calm, Drum};
    use realm_core::{Accurate, Realm, RealmConfig};
    use realm_par::Threads;

    #[test]
    fn accurate_is_zero() {
        let s = Engine::default()
            .run(&DistanceWorkload::new(&Accurate::new(16), 5_000, 1))
            .unwrap();
        assert_eq!(s.nmed, 0.0);
        assert_eq!(s.worst_case, 0.0);
    }

    #[test]
    fn realm_nmed_beats_calm() {
        let realm = Realm::new(RealmConfig::n16(16, 0)).expect("paper design point");
        let r = Engine::default()
            .run(&DistanceWorkload::new(&realm, 200_000, 7))
            .unwrap();
        let c = Engine::default()
            .run(&DistanceWorkload::new(&Calm::new(16), 200_000, 7))
            .unwrap();
        assert!(r.nmed < c.nmed / 4.0, "REALM {} vs cALM {}", r.nmed, c.nmed);
    }

    #[test]
    fn nmed_ordering_matches_relative_ordering_for_log_family() {
        // For designs whose relative error is roughly magnitude-
        // independent, NMED ordering tracks mean-relative-error ordering.
        let r16 = Engine::default()
            .run(&DistanceWorkload::new(
                &Realm::new(RealmConfig::n16(16, 0)).expect("paper design point"),
                100_000,
                3,
            ))
            .unwrap();
        let r4 = Engine::default()
            .run(&DistanceWorkload::new(
                &Realm::new(RealmConfig::n16(4, 0)).expect("paper design point"),
                100_000,
                3,
            ))
            .unwrap();
        assert!(r16.nmed < r4.nmed);
    }

    #[test]
    fn distance_is_thread_count_independent() {
        let realm = Realm::new(RealmConfig::n16(8, 3)).expect("paper design point");
        let one = Engine::new(Threads::Fixed(1)).run(&DistanceWorkload::new(&realm, 300_000, 5));
        for workers in [2usize, 8] {
            let many = Engine::new(Threads::Fixed(workers))
                .run(&DistanceWorkload::new(&realm, 300_000, 5));
            assert_eq!(one, many, "workers={workers}");
        }
    }

    #[test]
    fn drum_worst_case_is_bounded() {
        let s = Engine::default()
            .run(&DistanceWorkload::new(
                &Drum::new(16, 8).expect("valid"),
                100_000,
                5,
            ))
            .unwrap();
        // Relative error < 2^-6 → normalized distance below that too.
        assert!(s.worst_case < 1.0 / 64.0, "worst {}", s.worst_case);
    }

    #[test]
    fn zero_samples_yield_none() {
        let design = Accurate::new(16);
        assert_eq!(
            Engine::default().run(&DistanceWorkload::new(&design, 0, 1)),
            None
        );
    }
}
