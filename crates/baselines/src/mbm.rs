//! MBM: the minimally biased multiplier of Saadat et al., "Minimally
//! biased multipliers for approximate integer and floating-point
//! multiplication", IEEE TCAD 2018 — reference \[4\] of the paper.
//!
//! MBM couples cALM with a **single** error-correction term for the whole
//! multiplier, computed by averaging the actual (absolute, not relative)
//! error over a complete power-of-two interval: the mean gap between
//! `(1+x)(1+y)` and Mitchell's mantissa is `1/12` (see
//! [`realm_core::factors::mean_product_gap`]), which MBM quantizes to the
//! shift-add-friendly constant `5/64 = 0.078125 = 2^-4 + 2^-6`. That
//! choice reproduces Table I's MBM peaks exactly: `+5/64 = +7.81 %` at
//! `x = y = 0` and `−1/9 + (5/64)/2.25 = −7.64 %` at `x = y = 1/2`.
//!
//! REALM's contribution is precisely to replace this single constant with
//! `M²` per-segment factors derived from *relative* error.

use realm_core::mitchell::{self, LogEncoding};
use realm_core::Multiplier;

/// MBM's correction constant in units of `2^-6`: `5/64`.
pub const MBM_CORRECTION_CODE: u64 = 5;

/// Fractional precision of the MBM correction constant (`q = 6`).
pub const MBM_CORRECTION_BITS: u32 = 6;

/// The minimally biased multiplier with fraction-truncation knob `t`.
///
/// ```
/// use realm_core::Multiplier;
/// use realm_baselines::Mbm;
///
/// # fn main() -> Result<(), realm_core::ConfigError> {
/// let mbm = Mbm::new(16, 0)?;
/// // Correction makes the product overshoot slightly where Mitchell was
/// // exact: 1024 · 1024 → 2^20 · (1 + 5/64 rounding-scaled…).
/// assert!(mbm.multiply(1024, 1024) >= 1024 * 1024);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Mbm {
    width: u32,
    truncation: u32,
}

impl Mbm {
    /// Creates an MBM for `width`-bit operands with `t` truncated fraction
    /// LSBs (the paper sweeps `t ∈ {0, 2, 4, 6, 8, 9}` at `N = 16`).
    ///
    /// # Errors
    ///
    /// Returns [`realm_core::ConfigError`] when the width is unsupported or
    /// the truncation leaves no fraction bits.
    pub fn new(width: u32, truncation: u32) -> Result<Self, realm_core::ConfigError> {
        if !(4..=32).contains(&width) {
            return Err(realm_core::ConfigError::UnsupportedWidth { width });
        }
        if truncation >= width - 1 {
            return Err(realm_core::ConfigError::TruncationTooLarge {
                truncation,
                fraction_bits: width - 1,
                index_bits: 1,
            });
        }
        Ok(Mbm { width, truncation })
    }

    /// The truncation knob `t`.
    pub fn truncation(&self) -> u32 {
        self.truncation
    }
}

impl Multiplier for Mbm {
    fn width(&self) -> u32 {
        self.width
    }

    fn is_pure(&self) -> bool {
        true
    }

    // `truncation` was range-checked in `Mbm::new`, so the truncate
    // calls below cannot fail.
    #[allow(clippy::expect_used)]
    fn multiply(&self, a: u64, b: u64) -> u64 {
        let (Some(ea), Some(eb)) = (
            LogEncoding::encode(a, self.width),
            LogEncoding::encode(b, self.width),
        ) else {
            return 0;
        };
        let ea = ea
            .truncate(self.truncation)
            .expect("validated at construction");
        let eb = eb
            .truncate(self.truncation)
            .expect("validated at construction");
        mitchell::log_mul(
            &ea,
            &eb,
            MBM_CORRECTION_CODE,
            MBM_CORRECTION_BITS,
            self.width,
        )
    }

    fn name(&self) -> &str {
        "MBM"
    }

    fn config(&self) -> String {
        format!("t={}", self.truncation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use realm_core::multiplier::MultiplierExt;

    #[test]
    fn peaks_match_paper() {
        // Table I MBM t=0: min −7.64 %, max +7.81 %.
        let m = Mbm::new(16, 0).unwrap();
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for a in (1..65_536u64).step_by(61) {
            for b in (1..65_536u64).step_by(67) {
                let e = m.relative_error(a, b).expect("nonzero");
                lo = lo.min(e);
                hi = hi.max(e);
            }
        }
        assert!(lo > -0.080 && lo < -0.070, "min = {lo}");
        assert!(hi < 0.0790 && hi > 0.072, "max = {hi}");
    }

    #[test]
    fn bias_is_minimal() {
        // Table I: MBM t=0 bias −0.09 %, vs cALM's −3.85 %.
        let m = Mbm::new(16, 0).unwrap();
        let (mut sum, mut n) = (0.0, 0u64);
        for a in (1..65_536u64).step_by(103) {
            for b in (1..65_536u64).step_by(107) {
                sum += m.relative_error(a, b).expect("nonzero");
                n += 1;
            }
        }
        let bias = sum / n as f64;
        assert!(bias.abs() < 0.005, "bias = {bias}");
    }

    #[test]
    fn mean_error_is_higher_than_realm() {
        // Table I: MBM mean error ≈ 2.58 % (REALM16 is 0.42 %) — the single
        // correction constant cannot flatten the whole profile.
        let m = Mbm::new(16, 0).unwrap();
        let (mut sum, mut n) = (0.0, 0u64);
        for a in (1..65_536u64).step_by(211) {
            for b in (1..65_536u64).step_by(223) {
                sum += m.relative_error(a, b).expect("nonzero").abs();
                n += 1;
            }
        }
        let me = sum / n as f64;
        assert!((me - 0.0258).abs() < 0.004, "mean error = {me}");
    }

    #[test]
    fn truncation_validated() {
        assert!(Mbm::new(16, 15).is_err());
        assert!(Mbm::new(16, 9).is_ok());
        assert!(Mbm::new(3, 0).is_err());
    }

    #[test]
    fn zero_short_circuits() {
        assert_eq!(Mbm::new(16, 0).unwrap().multiply(12, 0), 0);
    }
}
