//! Analytic derivation of the REALM error-reduction factors `s_ij`
//! (paper §III-B, Eq. 5–13).
//!
//! For a segment `(i, j)` of an `M × M` partition of the unit square of
//! fraction values `(x, y)`, the factor is (Eq. 11)
//!
//! ```text
//!            ∫∫_seg  Ẽ_rel(x, y)        dx dy
//!  s_ij = −  ─────────────────────────────────
//!            ∫∫_seg  1 / ((1+x)(1+y))   dx dy
//! ```
//!
//! where `Ẽ_rel` is Mitchell's relative error (Eq. 5), a piecewise
//! expression split along the carry line `x + y = 1`. The denominator has
//! a closed form; for the numerator, the inner integral over `y` has a
//! closed form in both pieces, and the remaining one-dimensional outer
//! integral (smooth except where the carry line enters or leaves the
//! segment) is evaluated with composite Gauss–Legendre quadrature after
//! splitting at those points. Accuracy is ~1e-14 — far below the `q = 6`
//! LUT quantization step of `2^-6`, so the resulting hardwired constants
//! are identical to symbolic evaluation.

use crate::error::ConfigError;
use crate::quad::GaussLegendre;
use std::sync::OnceLock;

/// Mitchell's relative error `Ẽ_rel(x, y)` (paper Eq. 5).
///
/// Always in `(−0.1111…, 0]`: the classical log-based multiplier never
/// overestimates, and its worst underestimate is `2/(1.5·1.5) − 1 = −1/9`
/// at `x = y = 0.5`.
///
/// ```
/// use realm_core::factors::mitchell_relative_error;
///
/// assert_eq!(mitchell_relative_error(0.0, 0.0), 0.0);
/// let worst = mitchell_relative_error(0.5, 0.5);
/// assert!((worst - (-1.0 / 9.0)).abs() < 1e-15);
/// ```
pub fn mitchell_relative_error(x: f64, y: f64) -> f64 {
    let exact = (1.0 + x) * (1.0 + y);
    if x + y < 1.0 {
        (1.0 + x + y) / exact - 1.0
    } else {
        2.0 * (x + y) / exact - 1.0
    }
}

/// Relative error of REALM *after* applying a reduction factor `s` inside
/// a segment (paper Eq. 7 with `r = 2^(ka+kb) s`).
pub fn reduced_relative_error(x: f64, y: f64, s: f64) -> f64 {
    mitchell_relative_error(x, y) + s / ((1.0 + x) * (1.0 + y))
}

/// Closed form of the denominator integral of Eq. 11 over the box
/// `[x0, x1] × [y0, y1]`:
/// `ln((1+x1)/(1+x0)) · ln((1+y1)/(1+y0))`.
pub fn denominator_integral(x0: f64, x1: f64, y0: f64, y1: f64) -> f64 {
    ((1.0 + x1) / (1.0 + x0)).ln() * ((1.0 + y1) / (1.0 + y0)).ln()
}

/// Closed form of the inner integral `∫_a^b Ẽ_rel(x, y) dy` for the
/// `x + y < 1` branch (valid when `x + b <= 1`).
fn inner_region1(x: f64, a: f64, b: f64) -> f64 {
    let l = ((1.0 + b) / (1.0 + a)).ln();
    ((b - a) + x * l) / (1.0 + x) - (b - a)
}

/// Closed form of the inner integral for the `x + y >= 1` branch
/// (valid when `x + a >= 1`).
fn inner_region2(x: f64, a: f64, b: f64) -> f64 {
    let l = ((1.0 + b) / (1.0 + a)).ln();
    2.0 * ((b - a) + (x - 1.0) * l) / (1.0 + x) - (b - a)
}

/// Inner integral `∫_{y0}^{y1} Ẽ_rel(x, y) dy` with the split at the carry
/// line `y = 1 − x` handled exactly.
fn inner_integral(x: f64, y0: f64, y1: f64) -> f64 {
    let c = 1.0 - x;
    if c <= y0 {
        inner_region2(x, y0, y1)
    } else if c >= y1 {
        inner_region1(x, y0, y1)
    } else {
        inner_region1(x, y0, c) + inner_region2(x, c, y1)
    }
}

/// Numerator integral of Eq. 11, `∫∫_box Ẽ_rel dx dy`, evaluated with the
/// closed-form inner integral and composite Gauss–Legendre quadrature on
/// the outer variable, split where the carry line crosses the box.
pub fn numerator_integral(x0: f64, x1: f64, y0: f64, y1: f64) -> f64 {
    // inner_integral(·) is analytic except at x = 1 − y1 and x = 1 − y0,
    // where the integration region changes shape. Split there.
    let mut cuts = vec![x0];
    for c in [1.0 - y1, 1.0 - y0] {
        if c > x0 + 1e-15 && c < x1 - 1e-15 {
            cuts.push(c);
        }
    }
    cuts.push(x1);
    cuts.sort_by(|a, b| a.total_cmp(b));

    let rule = GaussLegendre::new(40);
    cuts.windows(2)
        .map(|w| rule.integrate(|x| inner_integral(x, y0, y1), w[0], w[1]))
        .sum()
}

/// The exact error-reduction factor for one box (Eq. 11): segments are the
/// special case `[i/M, (i+1)/M] × [j/M, (j+1)/M]`, but arbitrary boxes are
/// useful for ablations (e.g. non-uniform partitions).
pub fn reduction_factor(x0: f64, x1: f64, y0: f64, y1: f64) -> f64 {
    -numerator_integral(x0, x1, y0, y1) / denominator_integral(x0, x1, y0, y1)
}

/// Mean gap between the exact and the Mitchell product over a whole
/// power-of-two interval, in units of `2^(ka+kb)`.
///
/// Analytically `∫∫ (C − C̃)/2^(ka+kb) dx dy = 1/12`: the gap is `x·y`
/// below the carry line and `(1−x)(1−y)` above it, each integrating to
/// `1/24`. MBM quantizes this constant to `5/64 = 0.078125`; REALM's
/// relative-error formulation replaces it with the `M²` per-segment
/// factors of this module.
pub fn mean_product_gap() -> f64 {
    1.0 / 12.0
}

/// The full `M × M` table of real-valued (unquantized) error-reduction
/// factors, row-major in `i` (the `x` segment index).
///
/// ```
/// use realm_core::ErrorReductionTable;
///
/// # fn main() -> Result<(), realm_core::ConfigError> {
/// let table = ErrorReductionTable::analytic(4)?;
/// // The paper observes s_ij ∈ (0, 0.25) for all practical M.
/// assert!(table.values().iter().all(|&s| s > 0.0 && s < 0.25));
/// // Symmetric: the error expression is symmetric in x and y.
/// assert!((table.value(1, 3) - table.value(3, 1)).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorReductionTable {
    segments: u32,
    values: Vec<f64>,
}

impl ErrorReductionTable {
    /// Computes the table for an `M × M` partition analytically.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::InvalidSegmentCount`] unless `segments` is a
    /// power of two in `2..=256` (the hardware indexes segments with the
    /// `log2 M` MSBs of the fractions, so `M` must be a power of two).
    pub fn analytic(segments: u32) -> Result<Self, ConfigError> {
        validate_segments(segments)?;
        Ok(analytic_table(segments))
    }

    /// Like [`analytic`](Self::analytic), but memoized: the table for each
    /// valid `M` is computed once per process and shared afterwards.
    ///
    /// The quadrature behind a table is the expensive part of building a
    /// [`crate::Realm`] — design-space sweeps construct dozens of
    /// multipliers over the same three segment counts, and parallel
    /// characterization campaigns construct one per worker; with the cache
    /// those rebuilds are pointer copies. Deterministic: the cached table
    /// is the exact same value [`analytic`](Self::analytic) returns.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::InvalidSegmentCount`] for the same inputs
    /// [`analytic`](Self::analytic) rejects.
    ///
    /// ```
    /// use realm_core::ErrorReductionTable;
    ///
    /// # fn main() -> Result<(), realm_core::ConfigError> {
    /// let a = ErrorReductionTable::analytic_cached(16)?;
    /// let b = ErrorReductionTable::analytic_cached(16)?;
    /// assert!(std::ptr::eq(a, b)); // second call hits the cache
    /// assert_eq!(*a, ErrorReductionTable::analytic(16)?);
    /// # Ok(())
    /// # }
    /// ```
    pub fn analytic_cached(segments: u32) -> Result<&'static Self, ConfigError> {
        // One slot per valid M = 2^(slot+1), i.e. 2, 4, …, 256.
        static CACHE: [OnceLock<ErrorReductionTable>; 8] = [const { OnceLock::new() }; 8];
        validate_segments(segments)?;
        let slot = segments.trailing_zeros() as usize - 1;
        Ok(CACHE[slot].get_or_init(|| analytic_table(segments)))
    }

    /// Builds a table from externally supplied values (e.g. the authors'
    /// published MATLAB output) for cross-validation.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::FactorTableSize`] when `values.len() != M²`,
    /// and propagates segment-count validation.
    pub fn from_values(segments: u32, values: Vec<f64>) -> Result<Self, ConfigError> {
        validate_segments(segments)?;
        let expected = (segments * segments) as usize;
        if values.len() != expected {
            return Err(ConfigError::FactorTableSize {
                got: values.len(),
                expected,
            });
        }
        Ok(ErrorReductionTable { segments, values })
    }

    /// Number of segments per axis (`M`).
    pub fn segments(&self) -> u32 {
        self.segments
    }

    /// The factor for segment `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    pub fn value(&self, i: usize, j: usize) -> f64 {
        let m = self.segments as usize;
        assert!(
            i < m && j < m,
            "segment index ({i}, {j}) out of range for M = {m}"
        );
        self.values[i * m + j]
    }

    /// All `M²` factors, row-major in the `x` segment index.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mean relative error remaining in segment `(i, j)` after applying a
    /// (possibly quantized) factor `s` — zero by construction when `s` is
    /// the unquantized analytic value. Used to validate quantization
    /// choices and for the paper's "average relative error over each
    /// segment is 0" property (Eq. 8).
    pub fn residual_mean_error(&self, i: usize, j: usize, s: f64) -> f64 {
        let m = self.segments as f64;
        let (x0, x1) = (i as f64 / m, (i as f64 + 1.0) / m);
        let (y0, y1) = (j as f64 / m, (j as f64 + 1.0) / m);
        let area = (x1 - x0) * (y1 - y0);
        let num = numerator_integral(x0, x1, y0, y1) + s * denominator_integral(x0, x1, y0, y1);
        num / area
    }
}

fn validate_segments(segments: u32) -> Result<(), ConfigError> {
    if !(2..=256).contains(&segments) || !segments.is_power_of_two() {
        return Err(ConfigError::InvalidSegmentCount { segments });
    }
    Ok(())
}

/// The quadrature proper, for a pre-validated segment count.
fn analytic_table(segments: u32) -> ErrorReductionTable {
    let m = segments as usize;
    let h = 1.0 / segments as f64;
    let mut values = vec![0.0; m * m];
    for i in 0..m {
        // Exploit symmetry: compute the upper triangle, mirror the rest.
        for j in i..m {
            let s = reduction_factor(
                i as f64 * h,
                (i + 1) as f64 * h,
                j as f64 * h,
                (j + 1) as f64 * h,
            );
            values[i * m + j] = s;
            values[j * m + i] = s;
        }
    }
    ErrorReductionTable { segments, values }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quad::adaptive_simpson_2d;

    #[test]
    fn mitchell_error_is_nonpositive_and_bounded() {
        for i in 0..=100 {
            for j in 0..=100 {
                let (x, y) = (i as f64 / 100.0, j as f64 / 100.0);
                let e = mitchell_relative_error(x, y);
                assert!(e <= 1e-15, "positive error at ({x}, {y}): {e}");
                assert!(
                    e >= -1.0 / 9.0 - 1e-15,
                    "error below -1/9 at ({x}, {y}): {e}"
                );
            }
        }
    }

    #[test]
    fn mitchell_error_is_continuous_across_carry_line() {
        for i in 0..=50 {
            let x = i as f64 / 50.0;
            let below = mitchell_relative_error(x, 1.0 - x - 1e-12);
            let above = mitchell_relative_error(x, 1.0 - x + 1e-12);
            assert!((below - above).abs() < 1e-9, "discontinuity at x = {x}");
        }
    }

    #[test]
    fn denominator_matches_numeric() {
        let exact = denominator_integral(0.25, 0.5, 0.75, 1.0);
        let numeric = adaptive_simpson_2d(
            &|x, y| 1.0 / ((1.0 + x) * (1.0 + y)),
            0.25,
            0.5,
            0.75,
            1.0,
            1e-12,
        );
        assert!((exact - numeric).abs() < 1e-9);
    }

    #[test]
    fn numerator_matches_numeric_non_straddling() {
        // Box entirely below the carry line.
        let analytic = numerator_integral(0.0, 0.25, 0.0, 0.25);
        let numeric = adaptive_simpson_2d(
            &|x, y| mitchell_relative_error(x, y),
            0.0,
            0.25,
            0.0,
            0.25,
            1e-12,
        );
        assert!((analytic - numeric).abs() < 1e-9, "{analytic} vs {numeric}");
    }

    #[test]
    fn numerator_matches_numeric_straddling() {
        // Box straddling the carry line x + y = 1.
        let analytic = numerator_integral(0.25, 0.75, 0.25, 0.75);
        let numeric = adaptive_simpson_2d(
            &|x, y| mitchell_relative_error(x, y),
            0.25,
            0.75,
            0.25,
            0.75,
            1e-10,
        );
        assert!((analytic - numeric).abs() < 1e-7, "{analytic} vs {numeric}");
    }

    #[test]
    fn whole_square_numerator_is_mitchell_bias() {
        // The paper reports cALM error bias = −3.85 % (Table I); the signed
        // mean of Ẽ over the unit square is exactly that quantity.
        let bias = numerator_integral(0.0, 1.0, 0.0, 1.0);
        assert!((bias - (-0.0385)).abs() < 5e-4, "bias = {bias}");
    }

    #[test]
    fn mean_product_gap_matches_analytic() {
        // ∫∫ gap = 1/12; verify numerically.
        let numeric = adaptive_simpson_2d(
            &|x, y| {
                let exact = (1.0 + x) * (1.0 + y);
                let approx = if x + y < 1.0 {
                    1.0 + x + y
                } else {
                    2.0 * (x + y)
                };
                exact - approx
            },
            0.0,
            1.0,
            0.0,
            1.0,
            1e-11,
        );
        assert!((numeric - mean_product_gap()).abs() < 1e-8);
    }

    #[test]
    fn tables_are_symmetric_and_in_range() {
        for m in [4u32, 8, 16] {
            let t = ErrorReductionTable::analytic(m).unwrap();
            let mm = m as usize;
            for i in 0..mm {
                for j in 0..mm {
                    let s = t.value(i, j);
                    assert!(
                        s > 0.0 && s < 0.25,
                        "M={m} s[{i}][{j}]={s} out of (0, 0.25)"
                    );
                    assert!(
                        (s - t.value(j, i)).abs() < 1e-12,
                        "asymmetric at ({i}, {j})"
                    );
                }
            }
        }
    }

    #[test]
    fn residual_mean_error_is_zero_with_analytic_factor() {
        let t = ErrorReductionTable::analytic(8).unwrap();
        for (i, j) in [(0, 0), (3, 4), (7, 7), (2, 6)] {
            let r = t.residual_mean_error(i, j, t.value(i, j));
            assert!(r.abs() < 1e-12, "segment ({i}, {j}) residual {r}");
        }
    }

    #[test]
    fn m1_equivalent_factor_matches_whole_square() {
        // With a single segment, the factor is bias/(ln 2)² ≈ 0.080 — close
        // to (but not equal to) MBM's actual-error constant 1/12 ≈ 0.0833,
        // because REALM minimizes *relative* error (see §II of the paper).
        let s = reduction_factor(0.0, 1.0, 0.0, 1.0);
        assert!(s > 0.075 && s < 0.085, "s = {s}");
    }

    #[test]
    fn finer_partitions_have_smaller_worst_case_residual() {
        // Check the paper's Fig. 2 intuition: with the correct s in each
        // segment, the worst-case |error| shrinks as M grows.
        let worst = |m: u32| {
            let t = ErrorReductionTable::analytic(m).unwrap();
            let mut w: f64 = 0.0;
            let steps = 256usize;
            for a in 0..steps {
                for b in 0..steps {
                    let x = (a as f64 + 0.5) / steps as f64;
                    let y = (b as f64 + 0.5) / steps as f64;
                    let i = (x * m as f64) as usize;
                    let j = (y * m as f64) as usize;
                    w = w.max(reduced_relative_error(x, y, t.value(i, j)).abs());
                }
            }
            w
        };
        let (w4, w8, w16) = (worst(4), worst(8), worst(16));
        assert!(w16 < w8 && w8 < w4, "w4={w4} w8={w8} w16={w16}");
        // Paper Table I peaks (ideal, pre-quantization): ~5.7 %, ~3.7 %, ~2.1 %.
        assert!(
            w4 < 0.062 && w8 < 0.042 && w16 < 0.025,
            "w4={w4} w8={w8} w16={w16}"
        );
    }

    #[test]
    fn from_values_validates_size() {
        let err = ErrorReductionTable::from_values(4, vec![0.1; 15]).unwrap_err();
        assert!(matches!(
            err,
            ConfigError::FactorTableSize {
                got: 15,
                expected: 16
            }
        ));
    }

    #[test]
    fn invalid_segment_counts_are_rejected() {
        for m in [0u32, 1, 3, 5, 12, 257, 512] {
            assert!(
                ErrorReductionTable::analytic(m).is_err(),
                "M = {m} accepted"
            );
            assert!(
                ErrorReductionTable::analytic_cached(m).is_err(),
                "M = {m} accepted by cache"
            );
        }
    }

    #[test]
    fn cached_table_is_shared_and_identical() {
        for m in [2u32, 4, 8, 16] {
            let a = ErrorReductionTable::analytic_cached(m).unwrap();
            let b = ErrorReductionTable::analytic_cached(m).unwrap();
            assert!(std::ptr::eq(a, b), "M = {m} not memoized");
            assert_eq!(*a, ErrorReductionTable::analytic(m).unwrap());
        }
    }
}
