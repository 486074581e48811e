//! scaleTRIM: the scalable truncation-based approximate multiplier with
//! linearization and compensation of Farahmand et al. (arXiv:2303.02495).
//!
//! scaleTRIM keeps the leading-one decomposition `A = 2^k (1 + x)` of the
//! log family but never leaves the linear domain: it expands the exact
//! product `(1 + x)(1 + y) = 1 + x + y + x·y` and replaces only the cross
//! term `x·y` with a truncated product of the top `t` fraction bits of
//! each operand (`x_a`, `y_a`), optionally adding the expected value of
//! the truncated low parts as a constant compensation term. Where
//! Mitchell drops `x·y` entirely (the one-sided −11.1 % error), scaleTRIM
//! pays a small `t × t` multiplier to win most of it back, and the
//! compensation centres the remaining truncation error around zero.

use realm_core::mitchell;
use realm_core::{ConfigError, Multiplier};

/// The scaleTRIM approximate multiplier with truncation parameter `t`
/// and optional compensation.
///
/// ```
/// use realm_core::Multiplier;
/// use realm_baselines::ScaleTrim;
///
/// # fn main() -> Result<(), realm_core::ConfigError> {
/// // Without compensation the datapath is exact on powers of two
/// // (empty fractions leave only the leading-one term).
/// let m = ScaleTrim::new(16, 4, false)?;
/// assert_eq!(m.multiply(1 << 10, 1 << 3), 1 << 13);
/// // With compensation, Mitchell's −11.1 % corner 6 × 12 = 72 (which
/// // cALM computes as 64) comes back within two ULPs.
/// let c = ScaleTrim::new(16, 4, true)?;
/// assert!(c.multiply(6, 12) >= 70);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScaleTrim {
    width: u32,
    truncation: u32,
    compensate: bool,
}

impl ScaleTrim {
    /// Creates a scaleTRIM for `width`-bit operands keeping the top
    /// `truncation = t` fraction bits of each operand for the cross-term
    /// product (the paper sweeps `t ∈ {2, …, 8}`), with the linearized
    /// compensation term on or off.
    ///
    /// # Errors
    ///
    /// Rejects widths outside `4..=64` and `t` outside
    /// `2..=min(8, width − 1)`.
    pub fn new(width: u32, truncation: u32, compensate: bool) -> Result<Self, ConfigError> {
        if !(4..=64).contains(&width) {
            return Err(ConfigError::UnsupportedWidth { width });
        }
        if !(2..=8).contains(&truncation) || truncation > width - 1 {
            return Err(ConfigError::TruncationTooLarge {
                truncation,
                fraction_bits: width - 1,
                index_bits: 2,
            });
        }
        Ok(ScaleTrim {
            width,
            truncation,
            compensate,
        })
    }

    /// The truncation parameter `t` (cross-term bits kept per operand).
    pub fn truncation(&self) -> u32 {
        self.truncation
    }

    /// Whether the linearized compensation term is enabled.
    pub fn compensate(&self) -> bool {
        self.compensate
    }

    /// The shared datapath: pre-scale mantissa (with `f = N − 1` fraction
    /// bits), accumulated exponent, and `f`. `None` when either operand is
    /// zero (the datapath short-circuits).
    ///
    /// The cross term `x·y` is approximated in units of `2^-(2t+2)`:
    /// `x_a·y_a` contributes `4·pp`, and compensation adds the expected
    /// value of the dropped `x_a·y_l + y_a·x_l + x_l·y_l` terms,
    /// `2(x_a + y_a) + 1` in the same units.
    fn mantissa(&self, a: u64, b: u64) -> Option<(u128, i64, u32)> {
        if a == 0 || b == 0 {
            return None;
        }
        let f = self.width - 1;
        let t = self.truncation;
        let ka = 63 - a.leading_zeros();
        let kb = 63 - b.leading_zeros();
        let fx = (a - (1u64 << ka)) << (f - ka);
        let fy = (b - (1u64 << kb)) << (f - kb);
        let xa = fx >> (f - t);
        let ya = fy >> (f - t);
        let pp = xa * ya;
        let corr = if self.compensate {
            (pp << 2) + ((xa + ya) << 1) + 1
        } else {
            pp << 2
        };
        let corr_bits = 2 * t + 2;
        let corr_f = if f >= corr_bits {
            (corr as u128) << (f - corr_bits)
        } else {
            (corr as u128) >> (corr_bits - f)
        };
        let mantissa = (1u128 << f) + fx as u128 + fy as u128 + corr_f;
        Some((mantissa, (ka + kb) as i64, f))
    }
}

impl Multiplier for ScaleTrim {
    fn width(&self) -> u32 {
        self.width
    }

    fn is_pure(&self) -> bool {
        true
    }

    fn multiply(&self, a: u64, b: u64) -> u64 {
        match self.mantissa(a, b) {
            Some((mantissa, exponent, f)) => {
                mitchell::saturate_product(mitchell::scale(mantissa, exponent, f), self.width)
            }
            None => 0,
        }
    }

    /// The wide path for `N > 32`: same datapath saturated to the true
    /// `2^(2N) − 1` ceiling. Equal to `multiply(a, b) as u128` for every
    /// `N ≤ 32`.
    fn multiply_wide(&self, a: u64, b: u64) -> u128 {
        match self.mantissa(a, b) {
            Some((mantissa, exponent, f)) => {
                mitchell::saturate_product_wide(mitchell::scale(mantissa, exponent, f), self.width)
            }
            None => 0,
        }
    }

    fn name(&self) -> &str {
        "scaleTRIM"
    }

    fn config(&self) -> String {
        let tag = realm_core::multiplier::width_tag(self.width);
        let c = u8::from(self.compensate);
        if tag.is_empty() {
            format!("t={}, c={c}", self.truncation)
        } else {
            format!("{tag}, t={}, c={c}", self.truncation)
        }
    }

    /// Monomorphic batch kernel via `realm_simd::ScaleTrimKernel` (scalar
    /// lanes on every tier; no AVX2 specialization yet). Widths above the
    /// kernel's range fall back to the clamped scalar path per lane.
    fn multiply_batch(&self, pairs: &[(u64, u64)], out: &mut [u64]) {
        if let Some(kernel) =
            realm_simd::ScaleTrimKernel::new(self.width, self.truncation, self.compensate)
        {
            kernel.run(realm_simd::active_tier(), pairs, out);
            return;
        }
        for (slot, (a, b)) in realm_core::batch_lanes(pairs, out) {
            *slot = self.multiply(a, b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use realm_core::multiplier::MultiplierExt;

    #[test]
    fn zero_short_circuits() {
        let m = ScaleTrim::new(16, 4, true).unwrap();
        assert_eq!(m.multiply(0, 999), 0);
        assert_eq!(m.multiply(999, 0), 0);
    }

    #[test]
    fn config_validation() {
        assert!(ScaleTrim::new(3, 2, true).is_err());
        assert!(ScaleTrim::new(65, 4, true).is_err());
        assert!(ScaleTrim::new(16, 1, true).is_err());
        assert!(ScaleTrim::new(16, 9, true).is_err());
        assert!(ScaleTrim::new(4, 4, true).is_err()); // t > N − 1
        assert!(ScaleTrim::new(4, 3, true).is_ok());
        assert!(ScaleTrim::new(64, 8, false).is_ok());
    }

    #[test]
    fn beats_mitchell_on_the_worst_case() {
        // 6 × 12 (x = y = 0.5) is Mitchell's −11.1 % corner; scaleTRIM's
        // cross term restores most of it.
        let m = ScaleTrim::new(8, 4, true).unwrap();
        let p = m.multiply(6, 12);
        assert!(p > 64, "got {p}");
        assert!((p as i64 - 72).unsigned_abs() <= 2, "got {p}");
    }

    #[test]
    fn error_tightens_as_t_grows_exhaustive_8bit() {
        let nmed = |t: u32, c: bool| {
            let m = ScaleTrim::new(8, t, c).unwrap();
            let mut sum = 0.0;
            for a in 1..256u64 {
                for b in 1..256u64 {
                    sum += (m.multiply(a, b) as f64 - (a * b) as f64).abs();
                }
            }
            sum / (255.0 * 255.0) / (255.0 * 255.0)
        };
        let (n2, n4, n6) = (nmed(2, true), nmed(4, true), nmed(6, true));
        assert!(n2 > n4 && n4 > n6, "n2={n2} n4={n4} n6={n6}");
    }

    #[test]
    fn compensation_reduces_mean_error_8bit() {
        let mean_abs = |c: bool| {
            let m = ScaleTrim::new(8, 4, c).unwrap();
            let mut sum = 0.0;
            let mut n = 0u64;
            for a in 1..256u64 {
                for b in 1..256u64 {
                    sum += m.relative_error(a, b).unwrap().abs();
                    n += 1;
                }
            }
            sum / n as f64
        };
        assert!(mean_abs(true) < mean_abs(false));
    }
}
