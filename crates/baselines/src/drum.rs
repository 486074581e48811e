//! DRUM: the dynamic range unbiased multiplier of Hashemi et al.,
//! "DRUM: A dynamic range unbiased multiplier for approximate
//! applications", ICCAD 2015 — reference \[3\] of the paper.
//!
//! DRUM extracts a `k`-bit fragment starting at each operand's leading
//! one, forces the fragment's LSB to 1 (the unbiasing trick REALM's `t`
//! knob borrows), multiplies the fragments exactly with a small `k × k`
//! multiplier, and shifts the result back into place. Operands that
//! already fit in `k` bits pass through unmodified, so small products are
//! exact.

use realm_core::{ConfigError, Multiplier};

/// The DRUM approximate multiplier with fragment width `k`.
///
/// ```
/// use realm_core::Multiplier;
/// use realm_baselines::Drum;
///
/// # fn main() -> Result<(), realm_core::ConfigError> {
/// let drum = Drum::new(16, 6)?;
/// // Small operands are exact.
/// assert_eq!(drum.multiply(31, 63), 31 * 63);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Drum {
    width: u32,
    fragment: u32,
}

impl Drum {
    /// Creates a DRUM for `width`-bit operands with `k = fragment` bits
    /// (the paper sweeps `k ∈ {4, …, 8}` at `N = 16`).
    ///
    /// # Errors
    ///
    /// Rejects widths outside `4..=64` and fragments outside
    /// `3..=width`.
    pub fn new(width: u32, fragment: u32) -> Result<Self, ConfigError> {
        if !(4..=64).contains(&width) {
            return Err(ConfigError::UnsupportedWidth { width });
        }
        if fragment < 3 || fragment > width {
            return Err(ConfigError::TruncationTooLarge {
                truncation: fragment,
                fraction_bits: width,
                index_bits: 3,
            });
        }
        Ok(Drum { width, fragment })
    }

    /// The fragment width `k`.
    pub fn fragment(&self) -> u32 {
        self.fragment
    }

    /// Approximates one operand: leading-`k`-bit fragment with forced LSB,
    /// zero-padded back to full width.
    fn approximate_operand(&self, v: u64) -> u64 {
        if v == 0 {
            return 0;
        }
        let p = 63 - v.leading_zeros();
        if p < self.fragment {
            return v; // fits in k bits: exact
        }
        let shift = p - self.fragment + 1;
        ((v >> shift) | 1) << shift
    }
}

impl Multiplier for Drum {
    fn width(&self) -> u32 {
        self.width
    }

    fn is_pure(&self) -> bool {
        true
    }

    fn multiply(&self, a: u64, b: u64) -> u64 {
        let a = self.approximate_operand(a);
        let b = self.approximate_operand(b);
        // The k×k core plus the two barrel shifts; behaviourally a product
        // of the approximated operands (cannot exceed 2N bits). For
        // N ≤ 32 that fits the 64-bit register exactly; wider products
        // clamp to it (the full value is multiply_wide's).
        if self.width <= 32 {
            a * b
        } else {
            realm_core::mitchell::saturate_product(a as u128 * b as u128, self.width)
        }
    }

    /// The wide path for `N > 32`: the product of the approximated
    /// operands never exceeds `2N` bits, so it is exact in `u128`.
    fn multiply_wide(&self, a: u64, b: u64) -> u128 {
        let a = self.approximate_operand(a) as u128;
        let b = self.approximate_operand(b) as u128;
        a * b
    }

    fn name(&self) -> &str {
        "DRUM"
    }

    fn config(&self) -> String {
        let tag = realm_core::multiplier::width_tag(self.width);
        if tag.is_empty() {
            format!("k={}", self.fragment)
        } else {
            format!("{tag}, k={}", self.fragment)
        }
    }

    /// The `realm-simd` kernel on the active tier up to 32 bits; wider
    /// designs run the scalar path per lane.
    fn multiply_batch(&self, pairs: &[(u64, u64)], out: &mut [u64]) {
        if let Some(kernel) = realm_simd::DrumKernel::new(self.width, self.fragment) {
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
    fn small_operands_are_exact() {
        let m = Drum::new(16, 6).unwrap();
        for a in 0..64u64 {
            for b in 0..64u64 {
                assert_eq!(m.multiply(a, b), a * b);
            }
        }
    }

    #[test]
    fn operand_approximation_keeps_leading_bits() {
        let m = Drum::new(16, 6).unwrap();
        // 0b1011_0110_1101 (2925): leading 6 bits 101101, LSB forced:
        // 101101 | 1 = 101101 → restore shift of 6.
        assert_eq!(
            m.approximate_operand(0b1011_0110_1101),
            0b1011_0100_0000 | (1 << 6)
        );
    }

    #[test]
    fn error_bounds_match_k8_exhaustive_slice() {
        // Table I DRUM k=8: min −1.49 %, max +1.57 %.
        let m = Drum::new(16, 8).unwrap();
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for a in (1..65_536u64).step_by(89) {
            for b in (1..65_536u64).step_by(97) {
                let e = m.relative_error(a, b).expect("nonzero");
                lo = lo.min(e);
                hi = hi.max(e);
            }
        }
        assert!(lo > -0.016, "min = {lo}");
        assert!(hi < 0.017, "max = {hi}");
    }

    #[test]
    fn unbiased_within_noise() {
        // Table I DRUM k=6 bias 0.04 % — the forced LSB balances the
        // truncation.
        let m = Drum::new(16, 6).unwrap();
        let (mut sum, mut n) = (0.0, 0u64);
        for a in (1..65_536u64).step_by(149) {
            for b in (1..65_536u64).step_by(151) {
                sum += m.relative_error(a, b).expect("nonzero");
                n += 1;
            }
        }
        let bias = sum / n as f64;
        assert!(bias.abs() < 0.005, "bias = {bias}");
    }

    #[test]
    fn error_grows_as_k_shrinks() {
        let mean = |k: u32| {
            let m = Drum::new(16, k).unwrap();
            let (mut sum, mut n) = (0.0, 0u64);
            for a in (1..65_536u64).step_by(241) {
                for b in (1..65_536u64).step_by(251) {
                    sum += m.relative_error(a, b).expect("nonzero").abs();
                    n += 1;
                }
            }
            sum / n as f64
        };
        let (m8, m6, m4) = (mean(8), mean(6), mean(4));
        assert!(m8 < m6 && m6 < m4, "m8={m8} m6={m6} m4={m4}");
        // Table I means: 0.37 %, 1.47 %, 5.89 %.
        assert!((m8 - 0.0037).abs() < 0.002, "m8 = {m8}");
        assert!((m6 - 0.0147).abs() < 0.004, "m6 = {m6}");
        assert!((m4 - 0.0589).abs() < 0.012, "m4 = {m4}");
    }

    #[test]
    fn config_validation() {
        assert!(Drum::new(16, 2).is_err());
        assert!(Drum::new(16, 17).is_err());
        assert!(Drum::new(65, 8).is_err());
        assert!(Drum::new(64, 8).is_ok());
    }
}
