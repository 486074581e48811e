//! IntALP: an integer version of ApproxLP (Imani et al., "ApproxLP:
//! Approximate multiplication with linearization and iterative error
//! control", DAC 2019 — reference \[11\] of the paper).
//!
//! # Reconstruction notes
//!
//! ApproxLP is a floating-point mantissa multiplier that approximates the
//! product surface `(1+x)(1+y)` with piecewise linear planes plus
//! iterative plane corrections; its paper "does not report any
//! mathematical formulation" (REALM §II), so the REALM authors built their
//! own integer version ("IntALP\*, inspired by \[11\]") and so do we:
//!
//! * **Level 1** approximates the fraction product `x·y` with one upper-
//!   bounding plane per side of the carry diagonal:
//!   `xy ≈ (x+y)/4` for `x + y < 1` and `xy ≈ 3(x+y)/4 − 1/2` otherwise.
//!   Both planes dominate `xy` (AM–GM), so the error is one-sided in
//!   `[0, +12.5 %]` — matching Table I's IntALP L=1 row (min 0.00,
//!   max 12.50, bias +3.91).
//! * **Level 2** subtracts a least-squares plane fit of the level-1
//!   residual in each quadrant of the unit square (quadrants are selected
//!   by the fraction MSBs, the comparator structure ApproxLP uses for its
//!   iterative error control). Plane coefficients are quantized to 8
//!   fractional bits; evaluating them needs two constant multipliers,
//!   which is why the paper's IntALP L=2 row shows markedly lower
//!   area/power savings than the log-based designs.

use realm_core::mitchell::{self, LogEncoding};
use realm_core::quad::adaptive_simpson_2d;
use realm_core::{ConfigError, Multiplier};

/// Fractional precision of the quantized level-2 plane coefficients.
const COEFF_BITS: u32 = 8;

/// A quantized correction plane `α + βx + γy` (coefficients in units of
/// `2^-COEFF_BITS`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Plane {
    alpha: i64,
    beta: i64,
    gamma: i64,
}

impl Plane {
    /// Least-squares fit of `f` over the box, then coefficient
    /// quantization.
    fn fit<F: Fn(f64, f64) -> f64>(f: F, x0: f64, x1: f64, y0: f64, y1: f64) -> Plane {
        let tol = 1e-10;
        let int = |g: &dyn Fn(f64, f64) -> f64| adaptive_simpson_2d(&g, x0, x1, y0, y1, tol);
        // Normal equations for the basis {1, x, y}.
        let a = [
            [int(&|_, _| 1.0), int(&|x, _| x), int(&|_, y| y)],
            [int(&|x, _| x), int(&|x, _| x * x), int(&|x, y| x * y)],
            [int(&|_, y| y), int(&|x, y| x * y), int(&|_, y| y * y)],
        ];
        let b = [
            int(&|x, y| f(x, y)),
            int(&|x, y| x * f(x, y)),
            int(&|x, y| y * f(x, y)),
        ];
        let sol = solve3(a, b);
        let q = |v: f64| (v * (1u64 << COEFF_BITS) as f64).round() as i64;
        Plane {
            alpha: q(sol[0]),
            beta: q(sol[1]),
            gamma: q(sol[2]),
        }
    }

    /// Evaluates the plane at fixed-point fractions with `f` fraction
    /// bits, returning the result in the same `f`-bit scale.
    ///
    /// Terms are computed in sign-magnitude form (shift-add on the
    /// coefficient magnitude, sign applied afterwards) so the behavioural
    /// model is bit-identical to the constant-multiplier hardware in
    /// `realm-synth`.
    fn eval_fixed(&self, x: u64, y: u64, f: u32) -> i64 {
        let term = |coeff: i64, v: u64| -> i64 {
            let mag = ((coeff.unsigned_abs() * v) >> COEFF_BITS) as i64;
            if coeff < 0 {
                -mag
            } else {
                mag
            }
        };
        let alpha_f = {
            let mag = if f >= COEFF_BITS {
                (self.alpha.unsigned_abs() << (f - COEFF_BITS)) as i64
            } else {
                (self.alpha.unsigned_abs() >> (COEFF_BITS - f)) as i64
            };
            if self.alpha < 0 {
                -mag
            } else {
                mag
            }
        };
        alpha_f + term(self.beta, x) + term(self.gamma, y)
    }
}

/// Gaussian elimination for the 3×3 normal equations.
fn solve3(mut a: [[f64; 3]; 3], mut b: [f64; 3]) -> [f64; 3] {
    for col in 0..3 {
        // Partial pivoting.
        let pivot = (col..3)
            .max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))
            .unwrap_or(col);
        a.swap(col, pivot);
        b.swap(col, pivot);
        let d = a[col][col];
        for row in (col + 1)..3 {
            let factor = a[row][col] / d;
            let pivot_row = a[col];
            for (cell, pivot) in a[row][col..].iter_mut().zip(&pivot_row[col..]) {
                *cell -= factor * pivot;
            }
            b[row] -= factor * b[col];
        }
    }
    let mut x = [0.0; 3];
    for row in (0..3).rev() {
        let mut v = b[row];
        for k in (row + 1)..3 {
            v -= a[row][k] * x[k];
        }
        x[row] = v / a[row][row];
    }
    x
}

/// Level-1 residual `p(x, y) − x·y` (always in `[0, 1/4]`).
fn level1_residual(x: f64, y: f64) -> f64 {
    let p = if x + y < 1.0 {
        (x + y) / 4.0
    } else {
        0.75 * (x + y) - 0.5
    };
    p - x * y
}

/// The IntALP approximate multiplier with `L ∈ {1, 2}` correction levels.
///
/// ```
/// use realm_core::Multiplier;
/// use realm_baselines::IntAlp;
///
/// # fn main() -> Result<(), realm_core::ConfigError> {
/// let l1 = IntAlp::new(16, 1)?;
/// // Level 1 never underestimates.
/// assert!(l1.multiply(40_000, 50_000) >= (40_000u64 * 50_000) * 99 / 100);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntAlp {
    width: u32,
    level: u32,
    /// Quadrant correction planes (row-major by x-MSB then y-MSB); empty
    /// for level 1.
    planes: Vec<Plane>,
}

impl IntAlp {
    /// Creates an IntALP for `width`-bit operands with `level ∈ {1, 2}`.
    ///
    /// # Errors
    ///
    /// Rejects unsupported widths and levels outside `1..=2`.
    pub fn new(width: u32, level: u32) -> Result<Self, ConfigError> {
        if !(4..=32).contains(&width) {
            return Err(ConfigError::UnsupportedWidth { width });
        }
        if !(1..=2).contains(&level) {
            return Err(ConfigError::InvalidSegmentCount { segments: level });
        }
        let planes = if level == 2 {
            let mut planes = Vec::with_capacity(4);
            for u in 0..2 {
                for v in 0..2 {
                    let (x0, x1) = (u as f64 * 0.5, (u as f64 + 1.0) * 0.5);
                    let (y0, y1) = (v as f64 * 0.5, (v as f64 + 1.0) * 0.5);
                    planes.push(Plane::fit(level1_residual, x0, x1, y0, y1));
                }
            }
            planes
        } else {
            Vec::new()
        };
        Ok(IntAlp {
            width,
            level,
            planes,
        })
    }

    /// The correction level `L`.
    pub fn level(&self) -> u32 {
        self.level
    }

    /// The quantized level-2 plane coefficients `(α, β, γ)` per quadrant
    /// (row-major by x-MSB then y-MSB; empty for level 1), in units of
    /// `2^-8`. Exposed for the `realm-synth` constant-multiplier netlists.
    pub fn plane_coefficients(&self) -> Vec<(i64, i64, i64)> {
        self.planes
            .iter()
            .map(|p| (p.alpha, p.beta, p.gamma))
            .collect()
    }

    /// Fractional precision of the plane coefficients (`2^-8`).
    pub fn coefficient_bits() -> u32 {
        COEFF_BITS
    }
}

impl Multiplier for IntAlp {
    fn width(&self) -> u32 {
        self.width
    }

    fn is_pure(&self) -> bool {
        true
    }

    fn multiply(&self, a: u64, b: u64) -> u64 {
        let (Some(ea), Some(eb)) = (
            LogEncoding::encode(a, self.width),
            LogEncoding::encode(b, self.width),
        ) else {
            return 0;
        };
        let f = self.width - 1;
        let fsum = ea.fraction + eb.fraction;
        // Level-1 plane approximation of x·y.
        let p = if fsum >> f == 0 {
            (fsum >> 2) as i64
        } else {
            ((3 * fsum) >> 2) as i64 - (1i64 << (f - 1))
        };
        let mut mant = (1i64 << f) + fsum as i64 + p;
        if self.level == 2 {
            let u = (ea.fraction >> (f - 1)) as usize;
            let v = (eb.fraction >> (f - 1)) as usize;
            mant -= self.planes[u * 2 + v].eval_fixed(ea.fraction, eb.fraction, f);
        }
        // The exact mantissa (1+x)(1+y) is never below 1, so a level-2
        // correction that pushes the approximate mantissa under 1.0 is pure
        // overshoot; clamping it is the analogue of REALM's small-product
        // special-case logic (without it, tiny operands floor to zero and
        // the peak error explodes to −100 %).
        let mant = mant.max(1i64 << f) as u128;
        let exponent = (ea.characteristic + eb.characteristic) as i64;
        mitchell::saturate_product(mitchell::scale(mant, exponent, f), self.width)
    }

    fn name(&self) -> &str {
        "IntALP"
    }

    fn config(&self) -> String {
        format!("L={}", self.level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use realm_core::multiplier::MultiplierExt;

    #[test]
    fn level1_residual_is_nonnegative_and_bounded() {
        for i in 0..=64 {
            for j in 0..=64 {
                let (x, y) = (i as f64 / 64.0, j as f64 / 64.0);
                let e = level1_residual(x, y);
                assert!(e >= -1e-12, "negative residual at ({x}, {y}): {e}");
                assert!(e <= 0.25 + 1e-12, "residual too large at ({x}, {y}): {e}");
            }
        }
    }

    #[test]
    fn level1_error_is_one_sided_with_12_5_percent_peak() {
        // Table I IntALP L=1: min 0.00, max +12.50, bias +3.91.
        let m = IntAlp::new(16, 1).unwrap();
        let (mut lo, mut hi, mut sum, mut n) = (f64::INFINITY, f64::NEG_INFINITY, 0.0, 0u64);
        for a in (1..65_536u64).step_by(73) {
            for b in (1..65_536u64).step_by(79) {
                let e = m.relative_error(a, b).expect("nonzero");
                lo = lo.min(e);
                hi = hi.max(e);
                sum += e;
                n += 1;
            }
        }
        assert!(lo >= -1e-4, "min = {lo}");
        assert!(hi <= 0.1251, "max = {hi}");
        assert!(hi > 0.10, "max unexpectedly mild: {hi}");
        let bias = sum / n as f64;
        assert!((bias - 0.0391).abs() < 0.006, "bias = {bias}");
    }

    #[test]
    fn level2_shrinks_error_substantially() {
        // Table I IntALP L=2: ME 0.99 %, bias 0.03 %, peaks −2.86/+4.17.
        let l1 = IntAlp::new(16, 1).unwrap();
        let l2 = IntAlp::new(16, 2).unwrap();
        let stats = |m: &IntAlp| {
            let (mut lo, mut hi, mut abs, mut sum, mut n) =
                (f64::INFINITY, f64::NEG_INFINITY, 0.0, 0.0, 0u64);
            for a in (1..65_536u64).step_by(73) {
                for b in (1..65_536u64).step_by(79) {
                    let e = m.relative_error(a, b).expect("nonzero");
                    lo = lo.min(e);
                    hi = hi.max(e);
                    abs += e.abs();
                    sum += e;
                    n += 1;
                }
            }
            (lo, hi, abs / n as f64, sum / n as f64)
        };
        let s1 = stats(&l1);
        let s2 = stats(&l2);
        assert!(
            s2.2 < s1.2 / 2.0,
            "L2 mean {} not well below L1 mean {}",
            s2.2,
            s1.2
        );
        assert!(s2.3.abs() < 0.01, "L2 bias {}", s2.3);
        assert!(s2.0 > -0.06 && s2.1 < 0.07, "L2 peaks ({}, {})", s2.0, s2.1);
    }

    #[test]
    fn exact_on_powers_of_two_l1() {
        let m = IntAlp::new(16, 1).unwrap();
        for (a, b) in [(1024u64, 512u64), (1, 1), (32_768, 2)] {
            assert_eq!(m.multiply(a, b), a * b);
        }
    }

    #[test]
    fn validation() {
        assert!(IntAlp::new(16, 0).is_err());
        assert!(IntAlp::new(16, 3).is_err());
        assert!(IntAlp::new(2, 1).is_err());
    }

    #[test]
    fn solve3_recovers_known_solution() {
        let a = [[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]];
        // x = (1, 2, 3) → b = (4, 10, 14)
        let b = [4.0, 10.0, 14.0];
        let x = solve3(a, b);
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
        assert!((x[2] - 3.0).abs() < 1e-12);
    }
}
