//! AM1 and AM2: approximate multipliers with configurable error recovery,
//! Jiang et al., "Low-power approximate unsigned multipliers with
//! configurable error recovery", IEEE TCAS-I 2019 — reference \[15\] of
//! the paper.
//!
//! # Reconstruction notes
//!
//! The cited design accumulates partial products through approximate
//! adders that emit a *sum* and a separate *error vector* (the carries the
//! adder chose not to propagate), then compensates by re-injecting an
//! approximation of the accumulated error restricted to the `nb`
//! most-significant result columns. The print specification leaves cell-
//! level details open, so this model reconstructs the architecture
//! behaviourally:
//!
//! * the approximate adder is carry-free: `sum = x ⊕ y`, error vector
//!   `e = x ∧ y` (each dropped carry is worth `2·e`);
//! * partial products are folded sequentially through that adder,
//!   collecting one error vector per stage;
//! * **AM1** recovers with the OR of all error vectors (cheap, coarse),
//!   **AM2** with their exact sum (costlier, finer), both masked to the
//!   `nb` most-significant columns before the final `×2` re-injection.
//!
//! The reconstruction reproduces the published signatures that matter for
//! Table I: error is strictly one-sided (never positive, min ≈ −61 % for
//! worst-case small products regardless of `nb`), bias and mean error
//! shrink as `nb` grows, and AM2 is consistently more accurate but more
//! expensive than AM1.

use realm_core::{ConfigError, Multiplier};

/// Error-recovery style distinguishing AM1 from AM2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AmRecovery {
    /// OR-combined error vectors (AM1).
    Or,
    /// Exactly summed error vectors (AM2).
    Sum,
}

/// The AM1/AM2 approximate multiplier with `nb` error-recovery columns.
///
/// ```
/// use realm_core::Multiplier;
/// use realm_baselines::{Am, AmRecovery};
///
/// # fn main() -> Result<(), realm_core::ConfigError> {
/// let am1 = Am::new(16, AmRecovery::Or, 13)?;
/// // Never overestimates.
/// assert!(am1.multiply(40_000, 50_000) <= 40_000u64 * 50_000);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Am {
    width: u32,
    recovery: AmRecovery,
    recovery_bits: u32,
}

impl Am {
    /// Creates an AM with the given recovery style and `nb` recovery
    /// columns (the paper sweeps `nb ∈ {5, 9, 13}` at `N = 16`).
    ///
    /// # Errors
    ///
    /// Rejects widths outside `4..=32` and `nb` larger than the `2N`-bit
    /// product.
    pub fn new(width: u32, recovery: AmRecovery, recovery_bits: u32) -> Result<Self, ConfigError> {
        if !(4..=32).contains(&width) {
            return Err(ConfigError::UnsupportedWidth { width });
        }
        if recovery_bits > 2 * width {
            return Err(ConfigError::TruncationTooLarge {
                truncation: recovery_bits,
                fraction_bits: 2 * width,
                index_bits: 0,
            });
        }
        Ok(Am {
            width,
            recovery,
            recovery_bits,
        })
    }

    /// The number of most-significant product columns with error recovery.
    pub fn recovery_bits(&self) -> u32 {
        self.recovery_bits
    }

    /// The recovery style (AM1 = OR, AM2 = Sum).
    pub fn recovery(&self) -> AmRecovery {
        self.recovery
    }
}

impl Multiplier for Am {
    fn width(&self) -> u32 {
        self.width
    }

    fn is_pure(&self) -> bool {
        true
    }

    fn multiply(&self, a: u64, b: u64) -> u64 {
        let product_bits = 2 * self.width;
        // Error recovery is restricted to the top `nb` product columns:
        // each stage's error vector is masked before it is combined, which
        // is what the recovery hardware sees.
        let mask = if self.recovery_bits == 0 {
            0
        } else {
            let low = product_bits.saturating_sub(self.recovery_bits);
            (((1u128 << product_bits) - 1) >> low) << low
        };
        // Carry-free accumulation of partial products, one error vector
        // per stage. A zero multiplier bit selects `pp = 0`, which leaves
        // `acc` and both error vectors unchanged, so the stage needs no
        // branch on the (random) operand bits.
        let mut acc: u128 = 0;
        let mut err_or: u128 = 0;
        let mut err_sum: u128 = 0;
        for bit in 0..self.width {
            let select = 0u128.wrapping_sub(((b >> bit) & 1) as u128);
            let pp = ((a as u128) << bit) & select;
            let e = acc & pp;
            acc ^= pp;
            err_or |= e & mask;
            err_sum += e & mask;
        }
        let recovered = match self.recovery {
            AmRecovery::Or => err_or,
            AmRecovery::Sum => err_sum,
        };
        let approx = acc + (recovered << 1);
        // Recovery is a lower bound on the dropped carries, so the result
        // never exceeds the exact product; clamp defensively anyway.
        let exact = (a as u128) * (b as u128);
        approx.min(exact) as u64
    }

    fn name(&self) -> &str {
        match self.recovery {
            AmRecovery::Or => "AM1",
            AmRecovery::Sum => "AM2",
        }
    }

    fn config(&self) -> String {
        format!("nb={}", self.recovery_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use realm_core::multiplier::MultiplierExt;

    #[test]
    fn error_is_one_sided() {
        for recovery in [AmRecovery::Or, AmRecovery::Sum] {
            let m = Am::new(16, recovery, 13).unwrap();
            for a in (1..65_536u64).step_by(211) {
                for b in (1..65_536u64).step_by(199) {
                    let e = m.relative_error(a, b).expect("nonzero");
                    assert!(e <= 0.0, "positive error at ({a}, {b}): {e}");
                }
            }
        }
    }

    #[test]
    fn single_partial_product_is_exact() {
        // b a power of two: only one partial product, nothing to drop.
        let m = Am::new(16, AmRecovery::Or, 5).unwrap();
        for k in 0..16 {
            assert_eq!(m.multiply(54_321, 1 << k), 54_321 << k);
        }
    }

    #[test]
    fn am2_at_least_as_accurate_as_am1() {
        let am1 = Am::new(16, AmRecovery::Or, 9).unwrap();
        let am2 = Am::new(16, AmRecovery::Sum, 9).unwrap();
        let mean = |m: &Am| {
            let (mut s, mut n) = (0.0, 0u64);
            for a in (1..65_536u64).step_by(157) {
                for b in (1..65_536u64).step_by(163) {
                    s += m.relative_error(a, b).expect("nonzero").abs();
                    n += 1;
                }
            }
            s / n as f64
        };
        let (e1, e2) = (mean(&am1), mean(&am2));
        assert!(e2 <= e1 + 1e-9, "AM2 mean {e2} vs AM1 mean {e1}");
    }

    #[test]
    fn more_recovery_bits_reduce_bias() {
        let bias = |nb: u32| {
            let m = Am::new(16, AmRecovery::Or, nb).unwrap();
            let (mut s, mut n) = (0.0, 0u64);
            for a in (1..65_536u64).step_by(157) {
                for b in (1..65_536u64).step_by(163) {
                    s += m.relative_error(a, b).expect("nonzero");
                    n += 1;
                }
            }
            s / n as f64
        };
        let (b5, b9, b13) = (bias(5), bias(9), bias(13));
        assert!(b13 > b9 && b9 > b5, "b5={b5} b9={b9} b13={b13}");
    }

    #[test]
    fn worst_case_is_large_and_nb_independent() {
        // Table I: min ≈ −61.6 % for every nb — dominated by products whose
        // carries all fall below the recovered columns.
        for nb in [5u32, 9, 13] {
            let m = Am::new(16, AmRecovery::Or, nb).unwrap();
            let mut lo = 0.0f64;
            for a in (1..65_536u64).step_by(53) {
                for b in (1..65_536u64).step_by(59) {
                    lo = lo.min(m.relative_error(a, b).expect("nonzero"));
                }
            }
            assert!(lo < -0.45, "nb={nb} min {lo} unexpectedly mild");
        }
    }

    #[test]
    fn validation() {
        assert!(Am::new(16, AmRecovery::Or, 33).is_err());
        assert!(Am::new(3, AmRecovery::Or, 5).is_err());
        assert!(Am::new(16, AmRecovery::Sum, 0).is_ok());
    }

    /// The partial-product loop as first written, branching on each
    /// multiplier bit: the reference the branch-free kernel must match.
    fn multiply_branching(m: &Am, a: u64, b: u64) -> u64 {
        let product_bits = 2 * m.width;
        let mask = if m.recovery_bits == 0 {
            0
        } else {
            let low = product_bits.saturating_sub(m.recovery_bits);
            (((1u128 << product_bits) - 1) >> low) << low
        };
        let mut acc: u128 = 0;
        let mut err_or: u128 = 0;
        let mut err_sum: u128 = 0;
        for bit in 0..m.width {
            if (b >> bit) & 1 == 1 {
                let pp = (a as u128) << bit;
                let e = acc & pp;
                acc ^= pp;
                err_or |= e & mask;
                err_sum += e & mask;
            }
        }
        let recovered = match m.recovery {
            AmRecovery::Or => err_or,
            AmRecovery::Sum => err_sum,
        };
        let approx = acc + (recovered << 1);
        approx.min((a as u128) * (b as u128)) as u64
    }

    #[test]
    fn branch_free_kernel_matches_branching_loop_exhaustively_at_8_bits() {
        for recovery in [AmRecovery::Or, AmRecovery::Sum] {
            for nb in 0..=16 {
                let m = Am::new(8, recovery, nb).unwrap();
                for a in 0..256u64 {
                    for b in 0..256u64 {
                        assert_eq!(
                            m.multiply(a, b),
                            multiply_branching(&m, a, b),
                            "{} ({a}, {b})",
                            m.label()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn branch_free_kernel_matches_branching_loop_at_every_width() {
        let mut rng = realm_core::rng::SplitMix64::new(0xA3);
        for width in 4..=32u32 {
            let max = (1u64 << width) - 1;
            let corners = [(0, 0), (0, max), (max, 0), (max, max)];
            for recovery in [AmRecovery::Or, AmRecovery::Sum] {
                for nb in 0..=2 * width {
                    let m = Am::new(width, recovery, nb).unwrap();
                    let random = (0..64).map(|_| (rng.below(max + 1), rng.below(max + 1)));
                    for (a, b) in corners.into_iter().chain(random) {
                        assert_eq!(
                            m.multiply(a, b),
                            multiply_branching(&m, a, b),
                            "w={width} {} ({a}, {b})",
                            m.label()
                        );
                    }
                }
            }
        }
    }
}
