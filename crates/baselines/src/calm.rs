//! The classical approximate log-based multiplier (cALM) of Mitchell,
//! "Computer multiplication and division using binary logarithms",
//! IRE Trans. Electronic Computers, 1962 — reference \[8\] of the paper.
//!
//! cALM is the ancestor of the whole family: encode both operands with the
//! linear log approximation, add, and take the antilog (paper Eq. 1–3).
//! Its relative error is one-sided — always in `(−11.11 %, 0]` — which is
//! exactly the bias REALM's per-segment factors remove.

use std::ops::RangeInclusive;

use realm_core::mitchell::{self, LogEncoding};
use realm_core::Multiplier;

/// Mitchell's classical approximate log-based multiplier.
///
/// ```
/// use realm_core::Multiplier;
/// use realm_baselines::Calm;
///
/// let calm = Calm::new(8);
/// // 6 = 2^2·1.5, 12 = 2^3·1.5: x + y carries, product = 2^6 · 1.0 = 64
/// // against the exact 72 — the classic −11.1 % worst case.
/// assert_eq!(calm.multiply(6, 12), 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Calm {
    width: u32,
}

impl Calm {
    /// The operand widths [`Calm::new`] accepts.
    pub const WIDTHS: RangeInclusive<u32> = 4..=64;

    /// Creates a cALM for `width`-bit operands.
    ///
    /// # Panics
    ///
    /// Panics if `width` is outside [`Calm::WIDTHS`].
    pub fn new(width: u32) -> Self {
        assert!(
            Self::WIDTHS.contains(&width),
            "cALM width must be in {:?}, got {width}",
            Self::WIDTHS
        );
        Calm { width }
    }
}

impl Default for Calm {
    fn default() -> Self {
        Calm::new(16)
    }
}

impl Multiplier for Calm {
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
        mitchell::log_mul(&ea, &eb, 0, 6, self.width)
    }

    fn name(&self) -> &str {
        "cALM"
    }

    fn config(&self) -> String {
        realm_core::multiplier::width_tag(self.width)
    }

    /// The wide path for `N > 32`: same encode → log-add datapath,
    /// saturated to the true `2^(2N) − 1` ceiling. Equal to
    /// `multiply(a, b) as u128` for every `N ≤ 32`.
    fn multiply_wide(&self, a: u64, b: u64) -> u128 {
        let (Some(ea), Some(eb)) = (
            LogEncoding::encode(a, self.width),
            LogEncoding::encode(b, self.width),
        ) else {
            return 0;
        };
        mitchell::log_mul_wide(&ea, &eb, 0, 6, self.width)
    }

    /// The `realm-simd` kernel on the active tier up to 31 bits; wider
    /// designs run the scalar path per lane.
    fn multiply_batch(&self, pairs: &[(u64, u64)], out: &mut [u64]) {
        if let Some(kernel) = realm_simd::CalmKernel::new(self.width) {
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
    fn exact_on_powers_of_two() {
        let m = Calm::new(16);
        for ka in 0..16 {
            for kb in 0..16 {
                let (a, b) = (1u64 << ka, 1u64 << kb);
                assert_eq!(m.multiply(a, b), a * b);
            }
        }
    }

    #[test]
    fn error_is_one_sided_and_bounded_exhaustive_8bit() {
        let m = Calm::new(8);
        for a in 1..256u64 {
            for b in 1..256u64 {
                let e = m.relative_error(a, b).expect("nonzero");
                assert!(e <= 0.0, "positive error at ({a}, {b}): {e}");
                assert!(
                    e >= -1.0 / 9.0 - 1e-12,
                    "error beyond −11.1 % at ({a}, {b}): {e}"
                );
            }
        }
    }

    #[test]
    fn bias_matches_paper_minus_3_85_percent() {
        // Table I reports error bias −3.85 % for cALM; a strided sweep of
        // the 16-bit space should land close.
        let m = Calm::new(16);
        let mut sum = 0.0;
        let mut n = 0u64;
        for a in (1..65_536u64).step_by(113) {
            for b in (1..65_536u64).step_by(127) {
                sum += m.relative_error(a, b).expect("nonzero");
                n += 1;
            }
        }
        let bias = sum / n as f64;
        assert!((bias - (-0.0385)).abs() < 0.002, "bias = {bias}");
    }

    #[test]
    fn zero_short_circuits() {
        assert_eq!(Calm::new(16).multiply(0, 999), 0);
    }
}
