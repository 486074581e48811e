//! The exact reference multiplier every approximate design is measured
//! against (the paper's "accurate multiplier", a Wallace-tree in hardware).

use std::ops::RangeInclusive;

use crate::multiplier::Multiplier;

/// Exact `N`-bit unsigned multiplier.
///
/// Behaviourally this is just `a * b`; the corresponding hardware model (a
/// Wallace-tree of 3:2 compressors, the structure synthesized in the paper)
/// lives in the `realm-synth` crate and is verified against this reference.
///
/// ```
/// use realm_core::{Accurate, Multiplier};
///
/// let m = Accurate::new(16);
/// assert_eq!(m.multiply(65_535, 65_535), 65_535 * 65_535);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Accurate {
    width: u32,
}

impl Accurate {
    /// The operand widths [`Accurate::new`] accepts.
    pub const WIDTHS: RangeInclusive<u32> = 1..=64;

    /// Creates an exact multiplier for `width`-bit operands.
    ///
    /// # Panics
    ///
    /// Panics if `width` is outside [`Accurate::WIDTHS`].
    pub fn new(width: u32) -> Self {
        assert!(
            Self::WIDTHS.contains(&width),
            "accurate multiplier width must be in {:?}, got {width}",
            Self::WIDTHS
        );
        Accurate { width }
    }
}

impl Default for Accurate {
    /// The paper's 16-bit reference design.
    fn default() -> Self {
        Accurate::new(16)
    }
}

impl Multiplier for Accurate {
    fn width(&self) -> u32 {
        self.width
    }

    fn multiply(&self, a: u64, b: u64) -> u64 {
        debug_assert!(
            self.width == 64 || a >> self.width == 0,
            "operand a exceeds {} bits",
            self.width
        );
        debug_assert!(
            self.width == 64 || b >> self.width == 0,
            "operand b exceeds {} bits",
            self.width
        );
        if self.width <= 32 {
            return a * b; // products fit the 64-bit register exactly
        }
        crate::mitchell::saturate_product(a as u128 * b as u128, self.width)
    }

    fn multiply_wide(&self, a: u64, b: u64) -> u128 {
        debug_assert!(
            self.width == 64 || a >> self.width == 0,
            "operand a exceeds {} bits",
            self.width
        );
        debug_assert!(
            self.width == 64 || b >> self.width == 0,
            "operand b exceeds {} bits",
            self.width
        );
        a as u128 * b as u128 // a 2N ≤ 128-bit product never saturates
    }

    fn name(&self) -> &str {
        "Accurate"
    }

    fn config(&self) -> String {
        crate::multiplier::width_tag(self.width)
    }

    fn multiply_batch(&self, pairs: &[(u64, u64)], out: &mut [u64]) {
        // Delegated to the tiered realm-simd kernel (scalar lanes are
        // `a * b` with the same debug width asserts; the AVX2 tier is a
        // 4-lane 32×32→64 vector multiply, bit-identical by test).
        if let Some(kernel) = realm_simd::AccurateKernel::new(self.width) {
            kernel.run(realm_simd::active_tier(), pairs, out);
            return;
        }
        // Wide widths (33..=64): the kernel declines, the clamped scalar
        // path runs per lane.
        for (slot, (a, b)) in crate::multiplier::batch_lanes(pairs, out) {
            *slot = self.multiply(a, b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiplies_exactly() {
        let m = Accurate::new(16);
        for (a, b) in [(0, 0), (1, 1), (65_535, 65_535), (257, 255), (40_000, 2)] {
            assert_eq!(m.multiply(a, b), a * b);
        }
    }

    #[test]
    fn default_is_16_bit() {
        assert_eq!(Accurate::default().width(), 16);
    }

    #[test]
    #[should_panic(expected = "width must be in 1..=64")]
    fn rejects_zero_width() {
        let _ = Accurate::new(0);
    }

    #[test]
    #[should_panic(expected = "width must be in 1..=64")]
    fn rejects_huge_width() {
        let _ = Accurate::new(65);
    }

    #[test]
    fn width_64_clamps_the_register_but_not_the_wide_product() {
        use crate::multiplier::Multiplier;
        let m = Accurate::new(64);
        let a = u64::MAX;
        assert_eq!(m.multiply(a, a), u64::MAX, "64-bit register saturates");
        assert_eq!(m.multiply_wide(a, a), (a as u128) * (a as u128));
        assert_eq!(m.multiply(a, 0), 0);
        // Narrow widths: wide and clamped paths agree bit for bit.
        let n = Accurate::new(16);
        assert_eq!(n.multiply_wide(65_535, 65_535), 65_535u128 * 65_535);
    }

    #[test]
    fn width_32_products_do_not_overflow() {
        let m = Accurate::new(32);
        let a = u32::MAX as u64;
        assert_eq!(m.multiply(a, a), a * a);
    }

    #[test]
    fn batch_matches_scalar() {
        let m = Accurate::new(16);
        let pairs: Vec<(u64, u64)> = (0..64)
            .map(|i| (i * 1021 % 65_536, i * 1777 % 65_536))
            .chain([(0, 0), (65_535, 65_535), (1, 65_535)])
            .collect();
        let mut out = vec![0u64; pairs.len()];
        m.multiply_batch(&pairs, &mut out);
        for (&(a, b), &p) in pairs.iter().zip(&out) {
            assert_eq!(p, m.multiply(a, b), "a={a} b={b}");
        }
    }
}
