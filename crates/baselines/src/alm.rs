//! ALM-MAA and ALM-SOA: the approximate-adder derivatives of Mitchell's
//! multiplier by Liu et al., "Design and evaluation of approximate
//! logarithmic multipliers for low power error-tolerant applications",
//! IEEE TCAS-I 2018 — reference \[9\] of the paper.
//!
//! The only change relative to cALM is the adder that sums the two
//! log-values (characteristic ∥ fraction): its lower `m` bits use one of
//! the approximate schemes of [`crate::adders`], shrinking the adder at
//! the cost of extra (and, for SOA, positively biased) error.

use std::ops::RangeInclusive;

use crate::adders::{approx_add, LowerPart};
use realm_core::mitchell::{self, LogEncoding};
use realm_core::Multiplier;

/// Which approximate adder an [`Alm`] instance uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlmAdder {
    /// The MAA variant (approximate-mirror-adder cells; modelled with the
    /// OR-based lower part — see [`crate::adders`] for the rationale).
    Maa,
    /// The set-one-adder variant.
    Soa,
}

impl AlmAdder {
    /// The lower-part scheme of [`crate::adders`] this adder models,
    /// shared by the behavioural model and its netlist.
    pub fn lower_part(self) -> LowerPart {
        match self {
            AlmAdder::Maa => LowerPart::Or,
            AlmAdder::Soa => LowerPart::SetOne,
        }
    }
}

/// An approximate log-based multiplier whose log-sum adder's lower `m`
/// bits are approximate (ALM-MAA / ALM-SOA).
///
/// ```
/// use realm_core::Multiplier;
/// use realm_baselines::{Alm, AlmAdder};
///
/// let alm = Alm::new(16, AlmAdder::Soa, 9);
/// assert_eq!(alm.name(), "ALM-SOA");
/// assert_eq!(alm.config(), "m=9");
/// let _ = alm.multiply(1234, 5678);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Alm {
    width: u32,
    adder: AlmAdder,
    lower_bits: u32,
}

impl Alm {
    /// The operand widths [`Alm::new`] accepts.
    pub const WIDTHS: RangeInclusive<u32> = 4..=32;

    /// Creates an ALM with the chosen adder type and `m` approximate
    /// lower bits (the paper sweeps `m ∈ {3, 6, 9, 11, 12}` at `N = 16`).
    ///
    /// # Panics
    ///
    /// Panics unless `width` is in [`Alm::WIDTHS`] and `m < width − 1`
    /// (the approximation must stay inside the fraction field).
    pub fn new(width: u32, adder: AlmAdder, lower_bits: u32) -> Self {
        assert!(
            Self::WIDTHS.contains(&width),
            "ALM width must be in {:?}, got {width}",
            Self::WIDTHS
        );
        assert!(
            lower_bits < width - 1,
            "approximate lower part ({lower_bits} bits) must stay inside the {}-bit fraction",
            width - 1
        );
        Alm {
            width,
            adder,
            lower_bits,
        }
    }

    /// The adder scheme in use.
    pub fn adder(&self) -> AlmAdder {
        self.adder
    }

    /// Number of approximate lower bits `m`.
    pub fn lower_bits(&self) -> u32 {
        self.lower_bits
    }
}

impl Multiplier for Alm {
    fn width(&self) -> u32 {
        self.width
    }

    fn multiply(&self, a: u64, b: u64) -> u64 {
        let (Some(ea), Some(eb)) = (
            LogEncoding::encode(a, self.width),
            LogEncoding::encode(b, self.width),
        ) else {
            return 0;
        };
        let f = self.width - 1;
        // Characteristic ∥ fraction, summed with the approximate adder.
        let la = ((ea.characteristic as u64) << f) | ea.fraction;
        let lb = ((eb.characteristic as u64) << f) | eb.fraction;
        let lsum = approx_add(la, lb, self.lower_bits, self.adder.lower_part());
        let k = (lsum >> f) as i64;
        let frac = lsum & ((1u64 << f) - 1);
        let product = mitchell::scale((1u128 << f) + frac as u128, k, f);
        mitchell::saturate_product(product, self.width)
    }

    fn name(&self) -> &str {
        match self.adder {
            AlmAdder::Maa => "ALM-MAA",
            AlmAdder::Soa => "ALM-SOA",
        }
    }

    fn config(&self) -> String {
        format!("m={}", self.lower_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use realm_core::multiplier::MultiplierExt;
    use realm_core::Multiplier;

    fn sweep_bias_and_peaks(m: &dyn Multiplier) -> (f64, f64, f64) {
        let (mut sum, mut lo, mut hi, mut n) = (0.0, f64::INFINITY, f64::NEG_INFINITY, 0u64);
        for a in (1..65_536u64).step_by(131) {
            for b in (1..65_536u64).step_by(139) {
                let e = m.relative_error(a, b).expect("nonzero");
                sum += e;
                lo = lo.min(e);
                hi = hi.max(e);
                n += 1;
            }
        }
        (sum / n as f64, lo, hi)
    }

    #[test]
    fn maa_small_m_matches_calm_signature() {
        // Table I: ALM-MAA m=3 has bias −3.85 %, max error ≈ 0.
        let alm = Alm::new(16, AlmAdder::Maa, 3);
        let (bias, lo, hi) = sweep_bias_and_peaks(&alm);
        assert!((bias - (-0.0385)).abs() < 0.003, "bias = {bias}");
        assert!(lo > -0.13, "min = {lo}");
        assert!(hi < 0.005, "max = {hi}");
    }

    #[test]
    fn soa_max_error_scales_with_m() {
        // Table I: ALM-SOA max error tracks 2^m / 2^15 — ≈1.56 % at m=9,
        // ≈6.25 % at m=11, ≈12.5 % at m=12 (the set-ones block overshoots
        // by at most 2^m − 1 in the log domain). The published bias also
        // drifts from −3.84 to −1.75 over that sweep; this behavioural
        // model keeps the max-error scaling (what determines the Table I
        // peaks and Fig. 4 Pareto shape) while its bias stays near cALM's —
        // a documented deviation, see EXPERIMENTS.md.
        let m9 = sweep_bias_and_peaks(&Alm::new(16, AlmAdder::Soa, 9));
        let m12 = sweep_bias_and_peaks(&Alm::new(16, AlmAdder::Soa, 12));
        assert!(m9.2 > 0.005 && m9.2 < 0.025, "m=9 max = {}", m9.2);
        assert!(m12.2 > 0.04 && m12.2 < 0.14, "m=12 max = {}", m12.2);
        assert!(
            m12.1 < m9.1,
            "m=12 min {} should be deeper than m=9 min {}",
            m12.1,
            m9.1
        );
        // Bias must never leave the cALM-to-zero corridor.
        for s in [&m9, &m12] {
            assert!(s.0 > -0.045 && s.0 < 0.0, "bias = {}", s.0);
        }
    }

    #[test]
    fn m_zero_equals_calm() {
        let alm = Alm::new(16, AlmAdder::Soa, 0);
        let calm = crate::calm::Calm::new(16);
        for (a, b) in [(6u64, 12u64), (1000, 999), (65_535, 3), (40_000, 40_000)] {
            assert_eq!(alm.multiply(a, b), calm.multiply(a, b), "a={a} b={b}");
        }
    }

    #[test]
    fn zero_short_circuits() {
        assert_eq!(Alm::new(16, AlmAdder::Maa, 6).multiply(0, 5), 0);
    }

    #[test]
    #[should_panic(expected = "must stay inside")]
    fn rejects_lower_part_spanning_characteristic() {
        let _ = Alm::new(16, AlmAdder::Soa, 15);
    }
}
