//! Per-interval error breakdown: error statistics split by the operands'
//! power-of-two intervals `(k_a, k_b)`.
//!
//! This directly tests the paper's Eq. 12 property: REALM's
//! error-reduction factors are *independent of the interval*, so its
//! relative-error statistics should look the same in every `(k_a, k_b)`
//! cell (up to the fraction-quantization floor in the smallest
//! intervals). For designs without that property (e.g. SSM's static
//! segmentation) the breakdown exposes exactly where the error lives.
//!
//! A chunk is a fold over the shared chunk body: its nonzero uniform
//! operand pairs, and their products through the batch kernel up to 32
//! bits and the wide path above, so every cell scores the true 2N-bit
//! product at every width.

use realm_core::multiplier::MultiplierExt;
use realm_core::Multiplier;
use realm_par::{Chunk, ChunkPlan};

use crate::chunk_body::fold_drawn;
use crate::engine::Workload;
use crate::montecarlo::DEFAULT_CHUNK;
use crate::summary::{ErrorAccumulator, ErrorSummary};

/// Error statistics for one `(k_a, k_b)` interval pair.
#[derive(Debug, Clone)]
pub struct IntervalCell {
    /// Leading-one position of operand `a`.
    pub ka: u32,
    /// Leading-one position of operand `b`.
    pub kb: u32,
    /// Statistics over the samples that landed in this cell.
    pub summary: ErrorSummary,
}

/// The [`Workload`] of a per-interval breakdown campaign: error
/// statistics per power-of-two-interval pair over `samples` uniform
/// nonzero operand pairs; cells that received no samples are omitted.
///
/// Chunk `i` draws from `SplitMix64::stream(seed, i)` into a private
/// `width × width` grid of accumulators; grids merge cell-wise in chunk
/// order, so the breakdown is bit-identical for every thread policy
/// and across a supervised interrupt and resume. On a partial run the
/// cells cover the completed chunks only (`None` when no sample landed
/// anywhere).
#[derive(Debug, Clone, Copy)]
pub struct BreakdownWorkload<'a> {
    design: &'a dyn Multiplier,
    samples: u64,
    seed: u64,
}

impl<'a> BreakdownWorkload<'a> {
    /// The breakdown of `design` over `samples` uniform nonzero operand
    /// pairs drawn from `seed`.
    pub fn new(design: &'a dyn Multiplier, samples: u64, seed: u64) -> Self {
        BreakdownWorkload {
            design,
            samples,
            seed,
        }
    }
}

impl Workload for BreakdownWorkload<'_> {
    type Part = Vec<ErrorAccumulator>;
    type Output = Vec<IntervalCell>;

    fn family(&self) -> &'static str {
        "breakdown"
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

    fn run_chunk(&self, chunk: Chunk) -> Vec<ErrorAccumulator> {
        let width = self.design.width() as usize;
        let mut cells = vec![ErrorAccumulator::new(); width * width];
        // Operands are ≥ 1, so every exact product is nonzero.
        fold_drawn(self.design, self.seed, chunk, 1, |a, b, approx, exact| {
            let cell = a.ilog2() as usize * width + b.ilog2() as usize;
            cells[cell].push((approx - exact) / exact);
        });
        cells
    }

    fn finalize(&self, parts: Vec<(u64, Vec<ErrorAccumulator>)>) -> Option<Vec<IntervalCell>> {
        // Merge per-chunk grids cell-wise (parts arrive in chunk order)
        // and drop cells no sample landed in.
        let width = self.design.width() as usize;
        let mut cells = vec![ErrorAccumulator::new(); width * width];
        for (_, grid) in &parts {
            for (total, part) in cells.iter_mut().zip(grid) {
                total.merge(part);
            }
        }
        let cells: Vec<IntervalCell> = cells
            .into_iter()
            .enumerate()
            .filter(|(_, acc)| acc.count() > 0)
            .map(|(idx, acc)| IntervalCell {
                ka: (idx / width) as u32,
                kb: (idx % width) as u32,
                summary: acc.finish(),
            })
            .collect();
        (!cells.is_empty()).then_some(cells)
    }
}

/// The spread of per-interval mean errors: `(min, max)` of the cell means
/// restricted to intervals with at least `min_k` on both axes (small
/// intervals are dominated by output quantization) and at least
/// `min_samples` samples.
pub fn interval_mean_spread(
    cells: &[IntervalCell],
    min_k: u32,
    min_samples: u64,
) -> Option<(f64, f64)> {
    let means: Vec<f64> = cells
        .iter()
        .filter(|c| c.ka >= min_k && c.kb >= min_k && c.summary.samples >= min_samples)
        .map(|c| c.summary.mean_error)
        .collect();
    if means.is_empty() {
        return None;
    }
    let lo = means.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = means.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    Some((lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use realm_baselines::Ssm;
    use realm_core::{Realm, RealmConfig};
    use realm_par::Threads;

    #[test]
    fn realm_error_is_interval_independent() {
        // Eq. 12: the same factors serve every interval, so the mean error
        // varies little across large intervals.
        let realm = Realm::new(RealmConfig::n16(8, 0)).expect("paper design point");
        let cells = Engine::default()
            .run(&BreakdownWorkload::new(&realm, 1 << 20, 11))
            .unwrap_or_default();
        let (lo, hi) = interval_mean_spread(&cells, 10, 400).expect("large intervals get samples");
        assert!(
            hi / lo < 1.35,
            "REALM per-interval mean error spread too wide: {lo:.5}..{hi:.5}"
        );
    }

    #[test]
    fn ssm_error_is_interval_dependent() {
        // SSM's static segmentation is exact below 2^m and truncating
        // above: the breakdown must show a strong interval dependence.
        let ssm = Ssm::new(16, 8).expect("valid configuration");
        let cells = Engine::default()
            .run(&BreakdownWorkload::new(&ssm, 1 << 18, 11))
            .unwrap_or_default();
        let small: Vec<&IntervalCell> = cells.iter().filter(|c| c.ka < 8 && c.kb < 8).collect();
        let large: Vec<&IntervalCell> = cells.iter().filter(|c| c.ka >= 8 && c.kb >= 8).collect();
        assert!(
            small.iter().all(|c| c.summary.mean_error == 0.0),
            "small intervals are exact"
        );
        assert!(
            large.iter().any(|c| c.summary.mean_error > 0.001),
            "large intervals must show truncation error"
        );
    }

    #[test]
    fn cells_cover_sampled_intervals() {
        let realm = Realm::new(RealmConfig::n16(4, 0)).expect("paper design point");
        let cells = Engine::default()
            .run(&BreakdownWorkload::new(&realm, 50_000, 3))
            .unwrap_or_default();
        // Uniform 16-bit operands: the (15, 15) cell holds ~25 % of mass.
        let top = cells
            .iter()
            .find(|c| c.ka == 15 && c.kb == 15)
            .expect("dominant cell sampled");
        assert!(top.summary.samples > 8_000);
        let total: u64 = cells.iter().map(|c| c.summary.samples).sum();
        assert_eq!(total, 50_000);
    }

    #[test]
    fn breakdown_is_thread_count_independent() {
        let realm = Realm::new(RealmConfig::n16(4, 1)).expect("paper design point");
        let one = Engine::new(Threads::Fixed(1))
            .run(&BreakdownWorkload::new(&realm, 200_000, 9))
            .unwrap_or_default();
        let many = Engine::new(Threads::Fixed(8))
            .run(&BreakdownWorkload::new(&realm, 200_000, 9))
            .unwrap_or_default();
        assert_eq!(one.len(), many.len());
        for (a, b) in one.iter().zip(&many) {
            assert_eq!((a.ka, a.kb), (b.ka, b.kb));
            assert_eq!(a.summary, b.summary);
        }
    }

    #[test]
    fn spread_returns_none_when_filters_exclude_all() {
        let realm = Realm::new(RealmConfig::n16(4, 0)).expect("paper design point");
        let cells = Engine::default()
            .run(&BreakdownWorkload::new(&realm, 1_000, 3))
            .unwrap_or_default();
        assert!(interval_mean_spread(&cells, 15, u64::MAX).is_none());
    }
}
