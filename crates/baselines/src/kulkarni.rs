//! Kulkarni's underdesigned recursive multiplier (reference \[7\] of the
//! paper's related work: "Trading accuracy for power with an
//! underdesigned multiplier architecture", VLSID 2011) — the classic
//! ad-hoc design the paper contrasts with mathematically formulated
//! approaches. Included as an extra baseline beyond Table I.
//!
//! The 2×2 building block is exact except for `3 × 3`, which it encodes
//! as `7` (binary `111`) instead of `9` — saving the block's fourth
//! output bit. Larger multipliers compose four half-width blocks
//! recursively with exact addition, so every error comes from `3 × 3`
//! sub-patterns and is always negative (`7 < 9`).

use realm_core::{ConfigError, Multiplier};

/// The approximate 2×2 block: exact except `3 × 3 → 7`.
pub fn approx_2x2(a: u64, b: u64) -> u64 {
    debug_assert!(a < 4 && b < 4);
    if a == 3 && b == 3 {
        7
    } else {
        a * b
    }
}

/// Kulkarni's recursive multiplier for power-of-two widths.
///
/// ```
/// use realm_core::Multiplier;
/// use realm_baselines::Kulkarni;
///
/// # fn main() -> Result<(), realm_core::ConfigError> {
/// let m = Kulkarni::new(16)?;
/// assert_eq!(m.multiply(3, 3), 7); // the underdesigned corner
/// assert_eq!(m.multiply(2, 3), 6); // everything else is exact
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Kulkarni {
    width: u32,
}

impl Kulkarni {
    /// Creates the multiplier for a power-of-two `width` in `2..=32`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::UnsupportedWidth`] otherwise (the recursion
    /// halves the width until the 2×2 base case).
    pub fn new(width: u32) -> Result<Self, ConfigError> {
        if !(2..=32).contains(&width) || !width.is_power_of_two() {
            return Err(ConfigError::UnsupportedWidth { width });
        }
        Ok(Kulkarni { width })
    }

    fn recurse(&self, a: u64, b: u64, width: u32) -> u64 {
        if width == 2 {
            return approx_2x2(a, b);
        }
        let half = width / 2;
        let mask = (1u64 << half) - 1;
        let (ah, al) = (a >> half, a & mask);
        let (bh, bl) = (b >> half, b & mask);
        let ll = self.recurse(al, bl, half);
        let lh = self.recurse(al, bh, half);
        let hl = self.recurse(ah, bl, half);
        let hh = self.recurse(ah, bh, half);
        ll + ((lh + hl) << half) + (hh << width)
    }
}

impl Multiplier for Kulkarni {
    fn width(&self) -> u32 {
        self.width
    }

    fn is_pure(&self) -> bool {
        true
    }

    fn multiply(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a >> self.width == 0 && b >> self.width == 0);
        self.recurse(a, b, self.width)
    }

    fn name(&self) -> &str {
        "Kulkarni"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use realm_core::multiplier::MultiplierExt;

    #[test]
    fn two_by_two_truth_table() {
        for a in 0..4u64 {
            for b in 0..4u64 {
                let want = if a == 3 && b == 3 { 7 } else { a * b };
                assert_eq!(approx_2x2(a, b), want);
            }
        }
    }

    #[test]
    fn exhaustive_8bit_never_overestimates() {
        let m = Kulkarni::new(8).expect("power of two");
        for a in 0..256u64 {
            for b in 0..256u64 {
                let p = m.multiply(a, b);
                assert!(p <= a * b, "({a}, {b}): {p} > {}", a * b);
            }
        }
    }

    #[test]
    fn error_free_when_no_3x3_subpattern() {
        let m = Kulkarni::new(16).expect("power of two");
        // Operands with no pair of adjacent '11' dibits aligned: e.g. all
        // dibits in {0, 1, 2}.
        for (a, b) in [(0x5555u64, 0x9999u64), (0x1248, 0x2481), (0xAAAA, 0x5555)] {
            assert_eq!(m.multiply(a, b), a * b, "({a:#x}, {b:#x})");
        }
    }

    #[test]
    fn published_error_signature() {
        // Kulkarni et al. report mean error ~1.4 % and strictly negative
        // errors for the recursive composition on random inputs.
        let m = Kulkarni::new(16).expect("power of two");
        let (mut sum, mut lo, mut n) = (0.0f64, 0.0f64, 0u64);
        for a in (1..65_536u64).step_by(127) {
            for b in (1..65_536u64).step_by(131) {
                let e = m.relative_error(a, b).expect("nonzero");
                assert!(e <= 0.0, "({a}, {b}): positive error {e}");
                sum += e.abs();
                lo = lo.min(e);
                n += 1;
            }
        }
        let mean = sum / n as f64;
        assert!(mean > 0.005 && mean < 0.04, "mean {mean}");
        assert!(lo > -0.30, "min {lo}");
    }

    #[test]
    fn rejects_non_power_of_two_widths() {
        assert!(Kulkarni::new(12).is_err());
        assert!(Kulkarni::new(33).is_err());
        assert!(Kulkarni::new(16).is_ok());
    }
}
