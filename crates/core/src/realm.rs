//! The REALM multiplier: a bit-accurate behavioural model of the paper's
//! Fig. 3 datapath.
//!
//! The pipeline per multiplication is:
//!
//! 1. **LOD + barrel shifters** — [`LogEncoding::encode`] extracts the
//!    characteristics `k_a, k_b` and the `N−1`-bit fractions `x, y`.
//! 2. **Truncate & set LSB** — the `t` knob drops `t` fraction LSBs and
//!    forces the surviving LSB to 1 ([`LogEncoding::truncate`]).
//! 3. **LUT** — the `log2 M` MSBs of each truncated fraction address the
//!    hardwired `(q−2)`-bit constant multiplexer holding the quantized
//!    error-reduction factors ([`QuantizedLut::lookup`]).
//! 4. **Adder + s/2 mux + final barrel shifter** — [`mitchell::log_mul`]
//!    adds the logs, injects `s_ij` (halved on fraction carry), scales by
//!    `2^(k_a + k_b)` and handles the paper's special cases (zero operands,
//!    `2N+1`-bit overflow saturation, fraction-bit loss for small
//!    products).

use crate::error::ConfigError;
use crate::factors::ErrorReductionTable;
use crate::lut::QuantizedLut;
use crate::mitchell::{self, LogEncoding};
use crate::multiplier::Multiplier;

/// Configuration of a [`Realm`] multiplier: operand width `N`, segments
/// per axis `M`, fraction truncation `t` and LUT precision `q`.
///
/// The paper's design space is `N = 16`, `M ∈ {4, 8, 16}`,
/// `t ∈ {0, …, 9}`, `q = 6`; this model accepts any consistent
/// combination with `N ∈ 4..=64` (the width-generic datapath: LOD,
/// fraction extract, LUT indexing and shift/add reconstruction all take
/// `N` as a parameter).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RealmConfig {
    /// Operand bit-width `N`.
    pub width: u32,
    /// Segments per power-of-two-interval axis (`M`, a power of two).
    pub segments: u32,
    /// Number of fraction LSBs truncated (`t`).
    pub truncation: u32,
    /// LUT fractional precision (`q`).
    pub precision: u32,
}

impl RealmConfig {
    /// A fully explicit configuration.
    pub fn new(width: u32, segments: u32, truncation: u32, precision: u32) -> Self {
        RealmConfig {
            width,
            segments,
            truncation,
            precision,
        }
    }

    /// The paper's 16-bit, `q = 6` design point: `REALM<M>` with
    /// truncation `t`.
    ///
    /// ```
    /// use realm_core::RealmConfig;
    ///
    /// let cfg = RealmConfig::n16(8, 3);
    /// assert_eq!((cfg.width, cfg.segments, cfg.truncation, cfg.precision), (16, 8, 3, 6));
    /// ```
    pub fn n16(segments: u32, truncation: u32) -> Self {
        RealmConfig {
            width: 16,
            segments,
            truncation,
            precision: 6,
        }
    }
}

impl Default for RealmConfig {
    /// `REALM16` with `t = 0` — the lowest-error configuration in Table I.
    fn default() -> Self {
        RealmConfig::n16(16, 0)
    }
}

/// The REALM approximate multiplier (paper §III).
///
/// Construction derives the error-reduction factors analytically
/// ([`ErrorReductionTable::analytic`]) and quantizes them to the hardwired
/// LUT; multiplication is then pure integer arithmetic mirroring the
/// hardware datapath bit for bit.
///
/// ```
/// use realm_core::{Multiplier, Realm, RealmConfig};
/// use realm_core::multiplier::MultiplierExt;
///
/// # fn main() -> Result<(), realm_core::ConfigError> {
/// let realm = Realm::new(RealmConfig::n16(16, 0))?;
/// // Worst-case relative error for REALM16/t=0 is ±2.08 % (Table I).
/// let e = realm.relative_error(48_131, 60_007).expect("nonzero product");
/// assert!(e.abs() < 0.0208);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Realm {
    config: RealmConfig,
    lut: QuantizedLut,
    name: String,
}

impl Realm {
    /// Builds a REALM multiplier, deriving the factor table analytically.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when the width, segment count, truncation
    /// or LUT precision are invalid or mutually inconsistent.
    pub fn new(config: RealmConfig) -> Result<Self, ConfigError> {
        // The quadrature is memoized per segment count: sweeps and parallel
        // campaigns build many Realm instances over the same handful of M.
        let table = ErrorReductionTable::analytic_cached(config.segments)?;
        Realm::with_table(config, table)
    }

    /// Builds a REALM multiplier from an externally supplied factor table
    /// (e.g. [`crate::precomputed`] constants, or ablation variants).
    ///
    /// # Errors
    ///
    /// As [`Realm::new`]; additionally rejects tables whose segment count
    /// disagrees with the configuration.
    pub fn with_table(
        config: RealmConfig,
        table: &ErrorReductionTable,
    ) -> Result<Self, ConfigError> {
        if !(4..=64).contains(&config.width) {
            return Err(ConfigError::UnsupportedWidth {
                width: config.width,
            });
        }
        if table.segments() != config.segments {
            return Err(ConfigError::InvalidSegmentCount {
                segments: config.segments,
            });
        }
        let lut = QuantizedLut::quantize(table, config.precision)?;
        let fraction_bits = config.width - 1;
        let index_bits = lut.grid().index_bits();
        if config.truncation >= fraction_bits || fraction_bits - config.truncation < index_bits {
            return Err(ConfigError::TruncationTooLarge {
                truncation: config.truncation,
                fraction_bits,
                index_bits,
            });
        }
        let name = format!("REALM{}", config.segments);
        Ok(Realm { config, lut, name })
    }

    /// The configuration this instance was built with.
    pub fn configuration(&self) -> RealmConfig {
        self.config
    }

    /// The quantized error-reduction LUT (for inspection, synthesis model
    /// generation and cross-verification).
    pub fn lut(&self) -> &QuantizedLut {
        &self.lut
    }

    /// Fraction bits surviving truncation (`F = N − 1 − t`).
    pub fn fraction_bits(&self) -> u32 {
        self.config.width - 1 - self.config.truncation
    }

    /// The tiered `realm-simd` batch kernel over this instance's LUT —
    /// `Some` for every narrow (width ≤ 31) configuration. The kernel
    /// borrows the code slice, so building one per `multiply_batch`
    /// call allocates nothing.
    pub fn batch_kernel(&self) -> Option<realm_simd::RealmKernel<'_>> {
        realm_simd::RealmKernel::new(
            self.config.width,
            self.config.segments,
            self.config.truncation,
            self.lut.precision(),
            self.lut.codes(),
        )
    }
}

impl Multiplier for Realm {
    fn width(&self) -> u32 {
        self.config.width
    }

    fn is_pure(&self) -> bool {
        true
    }

    fn multiply(&self, a: u64, b: u64) -> u64 {
        let width = self.config.width;
        // Total over all of u64: out-of-range operands are masked to their
        // low N bits, matching what the hardware's N-bit input ports see.
        let mask = if width >= 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        let (a, b) = (a & mask, b & mask);
        let (Some(ea), Some(eb)) = (LogEncoding::encode(a, width), LogEncoding::encode(b, width))
        else {
            return 0; // zero-operand special case
        };
        let t = self.config.truncation;
        let (Ok(ea), Ok(eb)) = (ea.truncate(t), eb.truncate(t)) else {
            // `t` is validated against the fraction width at construction,
            // so truncation cannot fail; degrade to the exact saturated
            // product rather than panic if that invariant is ever broken.
            return mitchell::saturate_product(a as u128 * b as u128, width);
        };
        let s = self.lut.lookup(ea.fraction, eb.fraction, ea.fraction_bits);
        mitchell::log_mul(&ea, &eb, s as u64, self.lut.precision(), width)
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn config(&self) -> String {
        let tag = crate::multiplier::width_tag(self.config.width);
        if tag.is_empty() {
            format!("t={}", self.config.truncation)
        } else {
            format!("{tag}, t={}", self.config.truncation)
        }
    }

    /// The width-generic wide path: the same LOD → truncate → LUT →
    /// log-add datapath as `multiply`, saturated to the true `2^(2N) − 1`
    /// ceiling instead of the 64-bit register. Equal to
    /// `multiply(a, b) as u128` for every `N ≤ 32`.
    fn multiply_wide(&self, a: u64, b: u64) -> u128 {
        let width = self.config.width;
        let mask = if width >= 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        let (a, b) = (a & mask, b & mask);
        let (Some(ea), Some(eb)) = (LogEncoding::encode(a, width), LogEncoding::encode(b, width))
        else {
            return 0; // zero-operand special case
        };
        let t = self.config.truncation;
        let (Ok(ea), Ok(eb)) = (ea.truncate(t), eb.truncate(t)) else {
            return mitchell::saturate_product_wide(a as u128 * b as u128, width);
        };
        let s = self.lut.lookup(ea.fraction, eb.fraction, ea.fraction_bits);
        mitchell::log_mul_wide(&ea, &eb, s as u64, self.lut.precision(), width)
    }

    /// The `realm-simd` kernel on the active tier up to 31 bits (the
    /// configuration, LUT geometry and code slice hoisted out of the
    /// per-sample loop); wider designs run the scalar path per lane.
    fn multiply_batch(&self, pairs: &[(u64, u64)], out: &mut [u64]) {
        if let Some(kernel) = self.batch_kernel() {
            kernel.run(realm_simd::active_tier(), pairs, out);
            return;
        }
        for (slot, (a, b)) in crate::multiplier::batch_lanes(pairs, out) {
            *slot = self.multiply(a, b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multiplier::MultiplierExt;

    fn realm(m: u32, t: u32) -> Realm {
        Realm::new(RealmConfig::n16(m, t)).expect("valid configuration")
    }

    #[test]
    fn zero_operands_short_circuit() {
        let r = realm(16, 0);
        assert_eq!(r.multiply(0, 12345), 0);
        assert_eq!(r.multiply(12345, 0), 0);
        assert_eq!(r.multiply(0, 0), 0);
    }

    #[test]
    fn name_and_config_follow_paper_convention() {
        let r = realm(8, 3);
        assert_eq!(r.name(), "REALM8");
        assert_eq!(r.config(), "t=3");
        assert_eq!(r.label(), "REALM8 (t=3)");
    }

    #[test]
    fn peak_error_bound_realm16_t0_exhaustive_slice() {
        // Table I: REALM16/t=0 peak errors are −2.08 % / +1.79 %. Verify on
        // an exhaustive 8-bit-range slice plus strided 16-bit coverage.
        let r = realm(16, 0);
        let mut worst_neg: f64 = 0.0;
        let mut worst_pos: f64 = 0.0;
        for a in 32..256u64 {
            for b in 32..256u64 {
                let e = r.relative_error(a, b).expect("nonzero");
                worst_neg = worst_neg.min(e);
                worst_pos = worst_pos.max(e);
            }
        }
        for a in (257..65_536u64).step_by(251) {
            for b in (257..65_536u64).step_by(257) {
                let e = r.relative_error(a, b).expect("nonzero");
                worst_neg = worst_neg.min(e);
                worst_pos = worst_pos.max(e);
            }
        }
        assert!(worst_neg > -0.0215, "worst negative error {worst_neg}");
        assert!(worst_pos < 0.0185, "worst positive error {worst_pos}");
    }

    #[test]
    fn error_shrinks_with_more_segments() {
        let mean_abs = |m: u32| {
            let r = realm(m, 0);
            let mut sum = 0.0;
            let mut n = 0u32;
            for a in (1..65_536u64).step_by(641) {
                for b in (1..65_536u64).step_by(733) {
                    sum += r.relative_error(a, b).expect("nonzero").abs();
                    n += 1;
                }
            }
            sum / n as f64
        };
        let (e4, e8, e16) = (mean_abs(4), mean_abs(8), mean_abs(16));
        assert!(e16 < e8 && e8 < e4, "e4={e4} e8={e8} e16={e16}");
        // Table I means: 1.38 %, 0.75 %, 0.42 %.
        assert!((e4 - 0.0138).abs() < 0.004, "e4 = {e4}");
        assert!((e8 - 0.0075).abs() < 0.003, "e8 = {e8}");
        assert!((e16 - 0.0042).abs() < 0.002, "e16 = {e16}");
    }

    #[test]
    fn truncation_trades_error_for_nothing_behavioural() {
        // Larger t must never *reduce* error on average (it only saves
        // hardware); check mean error is non-decreasing in t.
        let mean = |t: u32| {
            let r = realm(8, t);
            let mut sum = 0.0;
            let mut n = 0u32;
            for a in (1..65_536u64).step_by(911) {
                for b in (1..65_536u64).step_by(1013) {
                    sum += r.relative_error(a, b).expect("nonzero").abs();
                    n += 1;
                }
            }
            sum / n as f64
        };
        let (m0, m9) = (mean(0), mean(9));
        assert!(m9 > m0 * 0.99, "t=9 mean {m9} vs t=0 mean {m0}");
    }

    #[test]
    fn near_full_scale_saturates_not_wraps() {
        let r = realm(16, 0);
        let p = r.multiply(65_535, 65_535);
        assert!(p <= u32::MAX as u64, "product wrapped past 2N bits: {p}");
        // And it should still be close to the true product.
        let exact = 65_535u64 * 65_535;
        let rel = (p as f64 - exact as f64) / exact as f64;
        assert!(rel.abs() < 0.03, "rel = {rel}");
    }

    #[test]
    fn powers_of_two_multiply_almost_exactly() {
        // x = y = 0 lands in segment (0,0) whose s is small but nonzero;
        // the floor in the final shift usually recovers exactness for
        // large enough shifts.
        let r = realm(16, 0);
        for (a, b) in [(1024u64, 2048u64), (256, 256), (32_768, 2)] {
            let exact = a * b;
            let e = r.relative_error(a, b).expect("nonzero");
            assert!(e.abs() < 0.02, "a={a} b={b} exact={exact} err={e}");
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(Realm::new(RealmConfig::new(3, 16, 0, 6)).is_err());
        assert!(Realm::new(RealmConfig::new(65, 16, 0, 6)).is_err());
        assert!(Realm::new(RealmConfig::new(16, 3, 0, 6)).is_err());
        assert!(Realm::new(RealmConfig::new(16, 16, 15, 6)).is_err());
        // t = 12 leaves F = 3 < log2(16) = 4 index bits.
        assert!(Realm::new(RealmConfig::new(16, 16, 12, 6)).is_err());
        assert!(Realm::new(RealmConfig::new(16, 16, 0, 2)).is_err());
    }

    #[test]
    fn with_table_rejects_mismatched_segments() {
        let table = ErrorReductionTable::analytic(8).unwrap();
        let err = Realm::with_table(RealmConfig::n16(16, 0), &table).unwrap_err();
        assert!(matches!(
            err,
            ConfigError::InvalidSegmentCount { segments: 16 }
        ));
    }

    #[test]
    fn default_is_realm16_t0() {
        let r = Realm::new(RealmConfig::default()).unwrap();
        assert_eq!(r.name(), "REALM16");
        assert_eq!(r.configuration().truncation, 0);
    }

    #[test]
    fn wide_operands_supported_up_to_32_bits() {
        let r = Realm::new(RealmConfig::new(32, 16, 0, 6)).unwrap();
        let (a, b) = (3_000_000_000u64, 4_000_000_000u64);
        let e = r.relative_error(a, b).expect("nonzero");
        assert!(e.abs() < 0.021, "32-bit error {e}");
    }

    #[test]
    fn one_times_one_is_small() {
        // Smallest nonzero operands: the error-reduction bits all fall
        // below the binary point and are floored away (paper special case).
        let r = realm(16, 0);
        assert_eq!(r.multiply(1, 1), 1);
    }
}
