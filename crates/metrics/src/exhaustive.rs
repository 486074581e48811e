//! Exhaustive sweeps over operand ranges — the methodology behind the
//! paper's error-profile figures (Fig. 1 uses `A, B ∈ {32, …, 255}`,
//! Fig. 2 uses `{64, …, 255}`).
//!
//! Sweeps are row-decomposed: the `b` axis is materialized once, each `a`
//! row is multiplied through the design's batch kernel, and rows are
//! distributed over the worker pool in fixed chunks merged in chunk order
//! — so results do not depend on the thread count.

use std::ops::RangeInclusive;

use realm_core::multiplier::MultiplierExt;
use realm_core::Multiplier;
use realm_harness::{ByteReader, Checkpoint};
use realm_par::{Chunk, ChunkPlan};

use crate::engine::Workload;
use crate::summary::{ErrorAccumulator, ErrorSummary};

/// Rows per chunk for the parallel sweeps. Fixed (never derived from the
/// worker count) so the merge order, and with it every floating-point sum,
/// is identical on any machine.
const ROWS_PER_CHUNK: u64 = 8;

/// Runs one sweep row through the design's batch kernel: multiplies
/// `(a, b)` for every `b` in `bs` and reports each pair's signed relative
/// error (zero products skipped) in `b` order. The scratch buffers are
/// caller-owned so a chunk of rows reuses one allocation.
fn for_each_row_error(
    design: &dyn Multiplier,
    a: u64,
    bs: &[u64],
    pairs: &mut Vec<(u64, u64)>,
    products: &mut Vec<u64>,
    mut on_error: impl FnMut(u64, u64, f64),
) {
    pairs.clear();
    pairs.extend(bs.iter().map(|&b| (a, b)));
    products.clear();
    products.resize(bs.len(), 0);
    design.multiply_batch(pairs, products);
    for (&(a, b), &p) in pairs.iter().zip(products.iter()) {
        let exact = a as u128 * b as u128;
        if exact == 0 {
            continue;
        }
        on_error(a, b, (p as f64 - exact as f64) / exact as f64);
    }
}

/// The row axes of an exhaustive sweep workload, shared by the
/// summary-folding [`RangeWorkload`] and the surface-collecting
/// [`ProfileWorkload`]: the materialized `a` values (one sweep row per
/// value, [`ROWS_PER_CHUNK`] rows per chunk) and the `b` axis every row
/// multiplies against.
#[derive(Debug, Clone)]
struct SweepAxes<'a> {
    design: &'a dyn Multiplier,
    a_vals: Vec<u64>,
    bs: Vec<u64>,
    a_bounds: (u64, u64),
    b_bounds: (u64, u64),
}

impl<'a> SweepAxes<'a> {
    fn new(
        design: &'a dyn Multiplier,
        a_range: RangeInclusive<u64>,
        b_range: RangeInclusive<u64>,
    ) -> Self {
        SweepAxes {
            design,
            a_bounds: (*a_range.start(), *a_range.end()),
            b_bounds: (*b_range.start(), *b_range.end()),
            a_vals: a_range.collect(),
            bs: b_range.collect(),
        }
    }

    fn plan(&self) -> ChunkPlan {
        ChunkPlan::new(self.a_vals.len() as u64, ROWS_PER_CHUNK)
    }

    /// The campaign subject: design label plus both range bounds (the
    /// sweep draws no randomness, so the bounds are the whole identity).
    fn subject(&self) -> String {
        format!(
            "{} a={}..={} b={}..={}",
            self.design.label(),
            self.a_bounds.0,
            self.a_bounds.1,
            self.b_bounds.0,
            self.b_bounds.1
        )
    }

    /// Runs the chunk's rows through the design's batch kernel, feeding
    /// every (a, b, error) sample — zero products skipped — to `on_error`
    /// in row-major order.
    fn for_each_chunk_error(&self, chunk: Chunk, mut on_error: impl FnMut(u64, u64, f64)) {
        let mut pairs = Vec::new();
        let mut products = Vec::new();
        for &a in &self.a_vals[chunk.start as usize..chunk.end() as usize] {
            for_each_row_error(
                self.design,
                a,
                &self.bs,
                &mut pairs,
                &mut products,
                &mut on_error,
            );
        }
    }
}

/// The [`Workload`] of an exhaustive error-summary sweep: each chunk of
/// rows folds into an [`ErrorAccumulator`]; the finalized output is the
/// sweep's [`ErrorSummary`] (`None` when no pair has a nonzero product).
/// Run it with [`Engine`](crate::Engine); the summary is bit-identical
/// for every thread policy, and a supervised sweep journals its rows
/// chunk by chunk, so an interrupted sweep resumes bit-identically.
///
/// ```
/// use realm_baselines::Calm;
/// use realm_metrics::{Engine, RangeWorkload};
///
/// let s = Engine::default()
///     .run(&RangeWorkload::new(&Calm::new(16), 32..=255, 32..=255))
///     .unwrap_or_else(|| panic!("the ranges hold nonzero products"));
/// assert!(s.max_error <= 0.0); // Mitchell never overestimates
/// assert_eq!(s.samples, 224 * 224);
/// ```
#[derive(Debug, Clone)]
pub struct RangeWorkload<'a> {
    axes: SweepAxes<'a>,
}

impl<'a> RangeWorkload<'a> {
    /// The sweep of `design` over the cartesian product of two operand
    /// ranges.
    pub fn new(
        design: &'a dyn Multiplier,
        a_range: RangeInclusive<u64>,
        b_range: RangeInclusive<u64>,
    ) -> Self {
        RangeWorkload {
            axes: SweepAxes::new(design, a_range, b_range),
        }
    }
}

impl Workload for RangeWorkload<'_> {
    type Part = ErrorAccumulator;
    type Output = ErrorSummary;

    fn family(&self) -> &'static str {
        "exhaustive"
    }

    fn subject(&self) -> String {
        self.axes.subject()
    }

    fn plan(&self) -> ChunkPlan {
        self.axes.plan()
    }

    fn seed(&self) -> u64 {
        0
    }

    fn run_chunk(&self, chunk: Chunk) -> ErrorAccumulator {
        let mut acc = ErrorAccumulator::new();
        self.axes.for_each_chunk_error(chunk, |_, _, e| acc.push(e));
        acc
    }

    fn finalize(&self, parts: Vec<(u64, ErrorAccumulator)>) -> Option<ErrorSummary> {
        let mut total = ErrorAccumulator::new();
        for (_, part) in &parts {
            total.merge(part);
        }
        (total.count() > 0).then(|| total.finish())
    }
}

/// One sample of an error-profile surface.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfilePoint {
    /// First operand.
    pub a: u64,
    /// Second operand.
    pub b: u64,
    /// Signed relative error of the design at `(a, b)`.
    pub error: f64,
}

impl Checkpoint for ProfilePoint {
    fn encode(&self, out: &mut Vec<u8>) {
        self.a.encode(out);
        self.b.encode(out);
        self.error.encode(out);
    }

    fn decode(r: &mut ByteReader<'_>) -> Option<Self> {
        Some(ProfilePoint {
            a: u64::decode(r)?,
            b: u64::decode(r)?,
            error: f64::decode(r)?,
        })
    }
}

/// The [`Workload`] of an exhaustive error-profile sweep: the full
/// relative-error surface over two operand ranges, row-major in `a` —
/// the data behind Fig. 1 and Fig. 2 (each point is one pixel of those
/// surface plots; zero-product pairs are skipped). Each chunk of rows
/// collects its [`ProfilePoint`]s; concatenating the per-chunk vectors
/// in chunk order restores row-major order, so the point list is
/// identical for every thread policy. On a partial supervised run the
/// points cover the completed chunks only (`None` when no chunk
/// completed).
#[derive(Debug, Clone)]
pub struct ProfileWorkload<'a> {
    axes: SweepAxes<'a>,
}

impl<'a> ProfileWorkload<'a> {
    /// The profile of `design` over the cartesian product of two operand
    /// ranges.
    pub fn new(
        design: &'a dyn Multiplier,
        a_range: RangeInclusive<u64>,
        b_range: RangeInclusive<u64>,
    ) -> Self {
        ProfileWorkload {
            axes: SweepAxes::new(design, a_range, b_range),
        }
    }
}

impl Workload for ProfileWorkload<'_> {
    type Part = Vec<ProfilePoint>;
    type Output = Vec<ProfilePoint>;

    fn family(&self) -> &'static str {
        "profile"
    }

    fn subject(&self) -> String {
        self.axes.subject()
    }

    fn plan(&self) -> ChunkPlan {
        self.axes.plan()
    }

    fn seed(&self) -> u64 {
        0
    }

    fn run_chunk(&self, chunk: Chunk) -> Vec<ProfilePoint> {
        let mut points = Vec::new();
        self.axes.for_each_chunk_error(chunk, |a, b, error| {
            points.push(ProfilePoint { a, b, error })
        });
        points
    }

    fn finalize(&self, parts: Vec<(u64, Vec<ProfilePoint>)>) -> Option<Vec<ProfilePoint>> {
        // Parts arrive in chunk order, so concatenation restores
        // row-major order (a partial run yields the covered rows only).
        (!parts.is_empty()).then(|| parts.into_iter().flat_map(|(_, points)| points).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use realm_baselines::Calm;
    use realm_core::multiplier::MultiplierExt;
    use realm_core::{Accurate, Realm, RealmConfig};
    use realm_par::Threads;

    #[test]
    fn fig1_range_calm_statistics() {
        // Fig. 1(a, b): the classical multiplier over {32..255} shows the
        // repeating sawtooth with errors in (−11.1 %, 0].
        let s = Engine::default()
            .run(&RangeWorkload::new(&Calm::new(16), 32..=255, 32..=255))
            .unwrap();
        assert!(s.min_error >= -0.1112 && s.min_error < -0.10);
        assert!(s.max_error <= 0.0);
    }

    #[test]
    fn fig1_range_realm16_statistics() {
        // Fig. 1(f): REALM16 over the same range: ME 0.4 %, PE ~2 %.
        let realm = Realm::new(RealmConfig::n16(16, 0)).unwrap();
        let s = Engine::default()
            .run(&RangeWorkload::new(&realm, 32..=255, 32..=255))
            .unwrap();
        assert!(s.mean_error < 0.008, "mean {}", s.mean_error);
        assert!(s.peak_error() < 0.024, "peak {}", s.peak_error());
    }

    #[test]
    fn thread_count_does_not_change_range_summary() {
        let realm = Realm::new(RealmConfig::n16(8, 2)).unwrap();
        let serial =
            Engine::new(Threads::Fixed(1)).run(&RangeWorkload::new(&realm, 1..=300, 1..=300));
        for workers in [2usize, 8] {
            let parallel = Engine::new(Threads::Fixed(workers)).run(&RangeWorkload::new(
                &realm,
                1..=300,
                1..=300,
            ));
            assert_eq!(serial, parallel, "workers={workers}");
        }
    }

    #[test]
    fn profile_covers_grid() {
        let pts = Engine::default()
            .run(&ProfileWorkload::new(&Accurate::new(16), 10..=12, 20..=21))
            .unwrap_or_default();
        assert_eq!(pts.len(), 6);
        assert!(pts.iter().all(|p| p.error == 0.0));
        // Row-major in a.
        assert_eq!((pts[0].a, pts[0].b), (10, 20));
        assert_eq!((pts[1].a, pts[1].b), (10, 21));
        assert_eq!((pts[2].a, pts[2].b), (11, 20));
    }

    #[test]
    fn profile_matches_scalar_relative_error() {
        // The batched sweep must reproduce the unbatched per-pair errors.
        let realm = Realm::new(RealmConfig::n16(16, 0)).unwrap();
        let pts = Engine::default()
            .run(&ProfileWorkload::new(&realm, 32..=96, 32..=96))
            .unwrap_or_default();
        assert_eq!(pts.len(), 65 * 65);
        for p in pts.iter().step_by(37) {
            let expected = realm.relative_error(p.a, p.b).expect("nonzero product");
            assert_eq!(p.error, expected, "a={} b={}", p.a, p.b);
        }
    }

    #[test]
    fn profile_order_is_thread_count_independent() {
        let calm = Calm::new(16);
        let one = Engine::new(Threads::Fixed(1)).run(&ProfileWorkload::new(&calm, 1..=64, 1..=16));
        let many = Engine::new(Threads::Fixed(8)).run(&ProfileWorkload::new(&calm, 1..=64, 1..=16));
        assert_eq!(one, many);
    }

    #[test]
    fn zero_products_skipped() {
        let pts = Engine::default()
            .run(&ProfileWorkload::new(&Accurate::new(16), 0..=1, 0..=1))
            .unwrap_or_default();
        assert_eq!(pts.len(), 1); // only (1, 1) has a nonzero product
    }
}
