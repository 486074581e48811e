//! ImpLM: the improved logarithmic multiplier of Ansari et al., "A
//! hardware-efficient logarithmic multiplier with improved accuracy",
//! DATE 2019 — reference \[10\] of the paper.
//!
//! ImpLM replaces Mitchell's leading-one detector with a *nearest-one*
//! detector: the characteristic is the power of two **nearest** to the
//! operand instead of the highest one below it, so the fraction becomes a
//! signed value in `[−1/4, +1/2)` and the log approximation error is
//! roughly halved and double-sided. The REALM paper evaluates the "EA"
//! configuration (exact adder), which this model implements.

use std::ops::RangeInclusive;

use realm_core::mitchell;
use realm_core::Multiplier;

/// The ImpLM approximate multiplier (nearest-one characteristic, exact
/// adder — the paper's "EA" configuration).
///
/// ```
/// use realm_core::Multiplier;
/// use realm_baselines::ImpLm;
///
/// let implm = ImpLm::new(16);
/// // 48 is nearer to 64 than to 32: characteristic 6, fraction −0.25.
/// // 48 · 48 → 2^12 · (1 − 0.25 − 0.25) = 2048 … +  antilog handling.
/// let p = implm.multiply(48, 48);
/// let exact = 48 * 48;
/// let rel = (p as f64 - exact as f64) / exact as f64;
/// assert!(rel.abs() < 0.12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ImpLm {
    width: u32,
}

impl ImpLm {
    /// The operand widths [`ImpLm::new`] accepts.
    pub const WIDTHS: RangeInclusive<u32> = 4..=32;

    /// Creates an ImpLM for `width`-bit operands.
    ///
    /// # Panics
    ///
    /// Panics if `width` is outside [`ImpLm::WIDTHS`].
    pub fn new(width: u32) -> Self {
        assert!(
            Self::WIDTHS.contains(&width),
            "ImpLM width must be in {:?}, got {width}",
            Self::WIDTHS
        );
        ImpLm { width }
    }

    /// Nearest-one encoding: returns `(characteristic, signed fraction)`
    /// with the fraction in units of `2^-width`.
    ///
    /// For a value with leading one at `k`: if the bit below the leading
    /// one is set (fraction ≥ 0.5), round the characteristic up to `k + 1`
    /// and use the negative fraction `value/2^(k+1) − 1 ∈ [−1/4, 0)`.
    fn encode(&self, value: u64) -> Option<(i64, i64)> {
        if value == 0 {
            return None;
        }
        let f = self.width; // one extra bit so the k = N−1 round-up corner stays exact
        let k = 63 - value.leading_zeros();
        let frac_up = (value - (1u64 << k)) << (f - k); // Mitchell fraction, f bits
        if frac_up >> (f - 1) == 0 {
            // fraction < 0.5 → keep floor characteristic
            Some((k as i64, frac_up as i64))
        } else {
            // round characteristic up; fraction = value/2^(k+1) − 1,
            // exact for every k because f = N gives one spare bit.
            let scaled = value << (f - k - 1);
            Some((k as i64 + 1, scaled as i64 - (1i64 << f)))
        }
    }
}

impl Multiplier for ImpLm {
    fn width(&self) -> u32 {
        self.width
    }

    fn is_pure(&self) -> bool {
        true
    }

    fn multiply(&self, a: u64, b: u64) -> u64 {
        let (Some((ka, xa)), Some((kb, xb))) = (self.encode(a), self.encode(b)) else {
            return 0;
        };
        let f = self.width;
        // C̃ = 2^(ka+kb) · (1 + x + y) with the signed fraction sum in
        // [−1/2, +1); the mantissa stays attached to the summed
        // characteristic (no renormalization — a mantissa below 1 simply
        // shifts further right).
        let mant = (1i64 << f) + xa + xb; // in (2^(f−1), 2^(f+1))
        debug_assert!(mant > 0);
        let product = mitchell::scale(mant as u128, ka + kb, f);
        mitchell::saturate_product(product, self.width)
    }

    fn name(&self) -> &str {
        "ImpLM"
    }

    fn config(&self) -> String {
        "EA".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use realm_core::multiplier::MultiplierExt;

    #[test]
    fn encode_rounds_to_nearest_power() {
        let m = ImpLm::new(8);
        // 96 is equidistant-ish: leading one at 6, fraction 0.5 → round up.
        let (k, x) = m.encode(96).unwrap();
        assert_eq!(k, 7);
        assert_eq!(x, -(1i64 << 6)); // −0.25 in 8 fraction bits
                                     // 80: fraction 0.25 < 0.5 → keep floor.
        let (k, x) = m.encode(80).unwrap();
        assert_eq!(k, 6);
        assert_eq!(x, 1i64 << 6); // +0.25
    }

    #[test]
    fn error_is_double_sided_and_bounded_exhaustive_8bit() {
        let m = ImpLm::new(8);
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for a in 2..256u64 {
            for b in 2..256u64 {
                let e = m.relative_error(a, b).expect("nonzero");
                lo = lo.min(e);
                hi = hi.max(e);
            }
        }
        // Table I: min −11.11 %, max +11.11 %.
        assert!(lo >= -0.1112, "min = {lo}");
        assert!(hi <= 0.1112, "max = {hi}");
        assert!(lo < -0.08, "min unexpectedly mild: {lo}");
        assert!(hi > 0.08, "max unexpectedly mild: {hi}");
    }

    #[test]
    fn bias_is_near_zero() {
        // Table I: ImpLM bias −0.04 %.
        let m = ImpLm::new(16);
        let (mut sum, mut n) = (0.0, 0u64);
        for a in (2..65_536u64).step_by(97) {
            for b in (2..65_536u64).step_by(101) {
                sum += m.relative_error(a, b).expect("nonzero");
                n += 1;
            }
        }
        let bias = sum / n as f64;
        assert!(bias.abs() < 0.01, "bias = {bias}");
    }

    #[test]
    fn exact_on_powers_of_two() {
        let m = ImpLm::new(16);
        for (a, b) in [(256u64, 128u64), (1, 32_768), (4, 4)] {
            assert_eq!(m.multiply(a, b), a * b);
        }
    }

    #[test]
    fn tiny_operands_do_not_underflow() {
        let m = ImpLm::new(16);
        // 1 · 1 = 1; nearest-one gives k = 0, x = 0 for both.
        assert_eq!(m.multiply(1, 1), 1);
        assert_eq!(m.multiply(0, 7), 0);
    }
}
