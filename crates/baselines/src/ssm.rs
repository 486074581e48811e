//! SSM and ESSM: static segment multipliers of Narayanamoorthy et al.,
//! "Energy-efficient approximate multiplication for digital signal
//! processing and classification applications", IEEE TVLSI 2015 —
//! reference \[14\] of the paper.
//!
//! SSM picks one of **two** static `m`-bit segments per operand — the top
//! `m` bits when the upper part is nonzero, otherwise the bottom `m` bits —
//! and feeds a small exact `m × m` multiplier. ESSM ("extended" SSM) adds
//! an intermediate, overlapping segment position, halving the worst-case
//! truncation. Both simply drop the bits below the chosen segment, so
//! their error is one-sided (never positive).

use realm_core::{ConfigError, Multiplier};

/// The static segment multiplier with segment width `m`.
///
/// ```
/// use realm_core::Multiplier;
/// use realm_baselines::Ssm;
///
/// # fn main() -> Result<(), realm_core::ConfigError> {
/// let ssm = Ssm::new(16, 8)?;
/// // Both operands below 2^8: exact.
/// assert_eq!(ssm.multiply(200, 180), 200 * 180);
/// // Large operands lose their low byte.
/// assert_eq!(ssm.multiply(0x1234, 0x0100), 0x1200 * 0x0100);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ssm {
    width: u32,
    segment: u32,
}

impl Ssm {
    /// Creates an SSM for `width`-bit operands with `m = segment`-bit
    /// segments (the paper sweeps `m ∈ {8, 9, 10}` at `N = 16`).
    ///
    /// # Errors
    ///
    /// Rejects widths outside `4..=32` and segments outside
    /// `width/2 ..= width − 1`.
    pub fn new(width: u32, segment: u32) -> Result<Self, ConfigError> {
        if !(4..=32).contains(&width) {
            return Err(ConfigError::UnsupportedWidth { width });
        }
        if segment < width / 2 || segment >= width {
            return Err(ConfigError::TruncationTooLarge {
                truncation: segment,
                fraction_bits: width,
                index_bits: width / 2,
            });
        }
        Ok(Ssm { width, segment })
    }

    /// Segment width `m`.
    pub fn segment(&self) -> u32 {
        self.segment
    }

    fn truncate_operand(&self, v: u64) -> u64 {
        if v >> self.segment == 0 {
            v // lower segment: exact
        } else {
            let shift = self.width - self.segment;
            (v >> shift) << shift // upper segment, low bits dropped
        }
    }
}

impl Multiplier for Ssm {
    fn width(&self) -> u32 {
        self.width
    }

    fn is_pure(&self) -> bool {
        true
    }

    fn multiply(&self, a: u64, b: u64) -> u64 {
        self.truncate_operand(a) * self.truncate_operand(b)
    }

    fn name(&self) -> &str {
        "SSM"
    }

    fn config(&self) -> String {
        format!("m={}", self.segment)
    }
}

/// The extended static segment multiplier with 8-bit segments for 16-bit
/// operands ("ESSM8" in Table I): three segment positions —
/// `[15:8]`, `[11:4]`, `[7:0]` — chosen by the leading-one region.
///
/// ```
/// use realm_core::Multiplier;
/// use realm_baselines::Essm8;
///
/// let essm = Essm8::new();
/// // Leading one in [11:8] picks the middle segment: only bits [3:0] drop.
/// assert_eq!(essm.multiply(0x0ABC, 1), 0x0AB0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Essm8;

impl Essm8 {
    /// Creates the 16-bit ESSM8.
    pub fn new() -> Self {
        Essm8
    }

    fn truncate_operand(v: u64) -> u64 {
        if v >> 12 != 0 {
            (v >> 8) << 8 // segment [15:8]
        } else if v >> 8 != 0 {
            (v >> 4) << 4 // segment [11:4]
        } else {
            v // segment [7:0]: exact
        }
    }
}

impl Multiplier for Essm8 {
    fn width(&self) -> u32 {
        16
    }

    fn is_pure(&self) -> bool {
        true
    }

    fn multiply(&self, a: u64, b: u64) -> u64 {
        Essm8::truncate_operand(a) * Essm8::truncate_operand(b)
    }

    fn name(&self) -> &str {
        "ESSM8"
    }

    fn config(&self) -> String {
        "m=8".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use realm_core::multiplier::MultiplierExt;

    #[test]
    fn ssm_error_is_one_sided() {
        let m = Ssm::new(16, 8).unwrap();
        for a in (1..65_536u64).step_by(173) {
            for b in (1..65_536u64).step_by(181) {
                let e = m.relative_error(a, b).expect("nonzero");
                assert!(e <= 0.0, "positive error at ({a}, {b}): {e}");
            }
        }
    }

    #[test]
    fn ssm_worst_case_grows_as_m_shrinks() {
        // Table I minima: m=10 → −10.26 %, m=9 → −34.27 %, m=8 → −72.70 %.
        let worst = |seg: u32| {
            let m = Ssm::new(16, seg).unwrap();
            let mut lo = 0.0f64;
            for a in (1..65_536u64).step_by(37) {
                for b in (1..65_536u64).step_by(41) {
                    lo = lo.min(m.relative_error(a, b).expect("nonzero"));
                }
            }
            lo
        };
        let (w10, w9, w8) = (worst(10), worst(9), worst(8));
        assert!(w10 > -0.125 && w10 < -0.07, "w10 = {w10}");
        assert!(w9 > -0.40 && w9 < -0.25, "w9 = {w9}");
        assert!(w8 > -0.80 && w8 < -0.60, "w8 = {w8}");
    }

    #[test]
    fn essm_bounds_worst_case_better_than_ssm8() {
        // Table I: ESSM8 min −11.26 % vs SSM8's −72.70 %.
        let essm = Essm8::new();
        let mut lo = 0.0f64;
        for a in (1..65_536u64).step_by(37) {
            for b in (1..65_536u64).step_by(41) {
                let e = essm.relative_error(a, b).expect("nonzero");
                assert!(e <= 0.0, "positive error at ({a}, {b})");
                lo = lo.min(e);
            }
        }
        assert!(lo > -0.12 && lo < -0.08, "min = {lo}");
    }

    #[test]
    fn small_operands_exact_for_both() {
        let ssm = Ssm::new(16, 8).unwrap();
        let essm = Essm8::new();
        for a in [0u64, 1, 17, 255] {
            for b in [0u64, 3, 128, 255] {
                assert_eq!(ssm.multiply(a, b), a * b);
                assert_eq!(essm.multiply(a, b), a * b);
            }
        }
    }

    #[test]
    fn ssm_validation() {
        assert!(Ssm::new(16, 7).is_err());
        assert!(Ssm::new(16, 16).is_err());
        assert!(Ssm::new(16, 8).is_ok());
    }
}
