//! The iterative logarithmic multiplier (ILM) of Babić, Avramović and
//! Bulić, "An iterative logarithmic multiplier", Microprocessors and
//! Microsystems 2011 — the two-iteration variant whose reference C model
//! circulates as `RatkoFri/Bfloat16/ILM.c`.
//!
//! One iteration is the leading-one decomposition of both operands,
//! `A·B = (2^ka + A')(2^kb + B') ≈ A·2^kb + B'·2^ka`, which drops only
//! the residue product `A'·B'`. Each further iteration re-applies the
//! same decomposition to the residues, adding back an approximation of
//! the term the previous one dropped. The approximation therefore never
//! overestimates, and becomes exact whenever a residue reaches zero.

use realm_core::mitchell;
use realm_core::{ConfigError, Multiplier};

/// The iterative logarithmic multiplier with 1 or 2 iterations.
///
/// ```
/// use realm_core::Multiplier;
/// use realm_baselines::Ilm;
///
/// # fn main() -> Result<(), realm_core::ConfigError> {
/// let m = Ilm::new(8, 2)?;
/// // 6 × 12: iteration 1 gives 64, iteration 2 restores the residue
/// // product 2 × 4 exactly → 72, the exact result.
/// assert_eq!(m.multiply(6, 12), 72);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ilm {
    width: u32,
    iterations: u32,
}

impl Ilm {
    /// Creates an ILM for `width`-bit operands running `iterations`
    /// basic blocks (the reference model supports one or two).
    ///
    /// # Errors
    ///
    /// Rejects widths outside `4..=64` and iteration counts outside
    /// `1..=2`.
    pub fn new(width: u32, iterations: u32) -> Result<Self, ConfigError> {
        if !(4..=64).contains(&width) {
            return Err(ConfigError::UnsupportedWidth { width });
        }
        if !(1..=2).contains(&iterations) {
            return Err(ConfigError::InvalidIterations { iterations });
        }
        Ok(Ilm { width, iterations })
    }

    /// Number of basic-block iterations (1 or 2).
    pub fn iterations(&self) -> u32 {
        self.iterations
    }

    /// The full product approximation in `u128` (never exceeds the exact
    /// `2N`-bit product, so no saturation is ever needed).
    fn approx(&self, a: u64, b: u64) -> u128 {
        if a == 0 || b == 0 {
            return 0;
        }
        let ka = 63 - a.leading_zeros();
        let kb = 63 - b.leading_zeros();
        let res_a = a ^ (1u64 << ka);
        let res_b = b ^ (1u64 << kb);
        let mut p = ((a as u128) << kb) + ((res_b as u128) << ka);
        // Second basic block, re-decomposing the residues; the reference
        // C model leaves LOD(0) undefined, so it is guarded out (a zero
        // residue means the first iteration was already exact).
        if self.iterations == 2 && res_a != 0 && res_b != 0 {
            let ka2 = 63 - res_a.leading_zeros();
            let kb2 = 63 - res_b.leading_zeros();
            let res2_b = res_b ^ (1u64 << kb2);
            p += ((res_a as u128) << kb2) + ((res2_b as u128) << ka2);
        }
        p
    }
}

impl Multiplier for Ilm {
    fn width(&self) -> u32 {
        self.width
    }

    fn is_pure(&self) -> bool {
        true
    }

    fn multiply(&self, a: u64, b: u64) -> u64 {
        // The approximation is bounded by the exact product, so only the
        // 64-bit register clamp (widths > 32) can ever bite.
        mitchell::saturate_product(self.approx(a, b), self.width)
    }

    /// The wide path for `N > 32`: the approximation is at most the exact
    /// `2N`-bit product, hence exact in `u128`.
    fn multiply_wide(&self, a: u64, b: u64) -> u128 {
        self.approx(a, b)
    }

    fn name(&self) -> &str {
        "ILM"
    }

    fn config(&self) -> String {
        let tag = realm_core::multiplier::width_tag(self.width);
        if tag.is_empty() {
            format!("i={}", self.iterations)
        } else {
            format!("{tag}, i={}", self.iterations)
        }
    }

    /// Monomorphic batch kernel via `realm_simd::IlmKernel` (scalar lanes
    /// on every tier; no AVX2 specialization yet). Widths above the
    /// kernel's range fall back to the clamped scalar path per lane.
    fn multiply_batch(&self, pairs: &[(u64, u64)], out: &mut [u64]) {
        if let Some(kernel) = realm_simd::IlmKernel::new(self.width, self.iterations) {
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

    #[test]
    fn zero_short_circuits() {
        let m = Ilm::new(16, 2).unwrap();
        assert_eq!(m.multiply(0, 4321), 0);
        assert_eq!(m.multiply(4321, 0), 0);
    }

    #[test]
    fn config_validation() {
        assert!(Ilm::new(3, 2).is_err());
        assert!(Ilm::new(65, 2).is_err());
        assert!(Ilm::new(16, 0).is_err());
        assert!(Ilm::new(16, 3).is_err());
        assert!(Ilm::new(64, 1).is_ok());
    }

    #[test]
    fn exact_on_powers_of_two() {
        let m = Ilm::new(16, 1).unwrap();
        for ka in 0..16 {
            for kb in 0..16 {
                let (a, b) = (1u64 << ka, 1u64 << kb);
                assert_eq!(m.multiply(a, b), a * b);
            }
        }
    }

    #[test]
    fn never_overestimates_exhaustive_8bit() {
        for iterations in [1, 2] {
            let m = Ilm::new(8, iterations).unwrap();
            for a in 0..256u64 {
                for b in 0..256u64 {
                    assert!(
                        m.multiply(a, b) <= a * b,
                        "i={iterations} a={a} b={b}: {} > {}",
                        m.multiply(a, b),
                        a * b
                    );
                }
            }
        }
    }

    #[test]
    fn second_iteration_restores_the_residue_product_bound() {
        // One iteration drops A'·B'; two iterations drop only the second-
        // level residue product, so i=2 is always at least as accurate.
        let one = Ilm::new(8, 1).unwrap();
        let two = Ilm::new(8, 2).unwrap();
        for a in 1..256u64 {
            for b in 1..256u64 {
                assert!(two.multiply(a, b) >= one.multiply(a, b), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn matches_reference_c_model_spot_values() {
        // Hand-evaluated against the RatkoFri/Bfloat16 ILM.c model
        // (second iteration guarded on nonzero residues).
        let m = Ilm::new(8, 2).unwrap();
        // 6 = 2^2 + 2, 12 = 2^3 + 4: prod0 = 6·8 + 4·4 = 64,
        // prod1 = 2·4 + 0·2 = 8 → 72 (exact).
        assert_eq!(m.multiply(6, 12), 72);
        // 255 × 255: prod0 = 255·128 + 127·128 = 48 896,
        // residues 127/127: prod1 = 127·64 + 63·64 = 12 160 → 61 056.
        assert_eq!(m.multiply(255, 255), 61_056);
        // Exact when the second-level residue vanishes: 160 × 5 = 800.
        // 160 = 2^7 + 32, 5 = 2^2 + 1: prod0 = 160·4 + 1·128 = 768,
        // residues 32 and 1: prod1 = 32·2^0 + 0·2^5 = 32 → 800.
        assert_eq!(m.multiply(160, 5), 800);
    }
}
