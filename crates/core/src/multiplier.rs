//! The common interface every multiplier in the workspace implements.

use std::fmt;

/// An `N`-bit unsigned integer multiplier producing a `2N`-bit product.
///
/// Implemented by [`crate::Realm`], the exact reference
/// [`crate::Accurate`], and every baseline in the `realm-baselines` crate.
/// The trait is object-safe so that error-characterization campaigns,
/// application studies and benches can iterate over heterogeneous
/// collections of designs (`Vec<Box<dyn Multiplier>>`).
///
/// # Contract
///
/// * Operands must fit in [`width`](Multiplier::width) bits. Implementations
///   are encouraged to `debug_assert!` this; behaviour for out-of-range
///   operands is unspecified (approximate hardware has no defined behaviour
///   for illegal inputs either).
/// * `multiply(a, 0) == multiply(0, b) == 0` for all implementations: every
///   design in the paper short-circuits zero operands.
/// * The result is the design's approximation of `a * b`, saturated to
///   `2^(2N) − 1` where the paper's overflow special case applies.
/// * [`is_pure`](Multiplier::is_pure) returns `true` only if every call
///   with the same operands returns the same product and no call changes
///   anything another call or an observer can see. The default is
///   `false`.
///
/// # Examples
///
/// ```
/// use realm_core::{Accurate, Multiplier};
///
/// fn worst_case_error(m: &dyn Multiplier, pairs: &[(u64, u64)]) -> f64 {
///     pairs
///         .iter()
///         .map(|&(a, b)| {
///             let exact = (a * b) as f64;
///             ((m.multiply(a, b) as f64 - exact) / exact).abs()
///         })
///         .fold(0.0, f64::max)
/// }
///
/// let exact = Accurate::new(16);
/// assert_eq!(worst_case_error(&exact, &[(3, 5), (1000, 999)]), 0.0);
/// ```
pub trait Multiplier: fmt::Debug + Send + Sync {
    /// Operand bit-width `N`. Products are `2N` bits.
    fn width(&self) -> u32;

    /// Approximately multiply two `N`-bit unsigned integers.
    ///
    /// The return register is 64 bits, so for `N > 32` the `2N`-bit
    /// product is additionally clamped to `u64::MAX`; callers that need
    /// the full product of a wide design use
    /// [`multiply_wide`](Multiplier::multiply_wide).
    fn multiply(&self, a: u64, b: u64) -> u64;

    /// The full `2N`-bit product as `u128`.
    ///
    /// For `N ≤ 32` this **must** equal `self.multiply(a, b) as u128`
    /// (the default does exactly that); width-generic designs with
    /// `N > 32` override it with the unclamped datapath so that error
    /// characterization sees the real product instead of a saturated
    /// 64-bit register.
    fn multiply_wide(&self, a: u64, b: u64) -> u128 {
        self.multiply(a, b) as u128
    }

    /// Short family name as used in the paper's tables (e.g. `"REALM"`,
    /// `"cALM"`, `"DRUM"`).
    fn name(&self) -> &str;

    /// Human-readable configuration suffix as used in the paper's tables
    /// (e.g. `"M=16, t=3"`, `"k=6"`). Empty for non-configurable designs.
    fn config(&self) -> String {
        String::new()
    }

    /// Multiplies every operand pair in `pairs`, writing product `i` into
    /// `out[i]`.
    ///
    /// Semantically this is exactly `out[i] = self.multiply(pairs[i])` —
    /// implementations **must** be bit-identical to the scalar path — but
    /// performance-critical designs override it with a monomorphic kernel
    /// that hoists configuration and LUT lookups out of the inner loop and
    /// avoids per-sample virtual dispatch. The bulk characterization
    /// campaigns in `realm-metrics` run on this entry point.
    ///
    /// # Panics
    ///
    /// Panics if `pairs` and `out` differ in length.
    ///
    /// ```
    /// use realm_core::{Accurate, Multiplier};
    ///
    /// let m = Accurate::new(16);
    /// let pairs = [(3, 5), (7, 9), (0, 11)];
    /// let mut out = [0u64; 3];
    /// m.multiply_batch(&pairs, &mut out);
    /// assert_eq!(out, [15, 63, 0]);
    /// ```
    fn multiply_batch(&self, pairs: &[(u64, u64)], out: &mut [u64]) {
        for (slot, (a, b)) in batch_lanes(pairs, out) {
            *slot = self.multiply(a, b);
        }
    }

    /// Whether the design is a pure function of its operands: the same
    /// `(a, b)` always gives the same product, and a call changes nothing
    /// that another call or an observer can see. A caller may then take
    /// products from a table the design filled once instead of calling
    /// it per product, as `QuantNet::accuracy` in `realm-dsp` does.
    ///
    /// The default, `false`, is always safe. The designs the registry
    /// builds (`catalog::DesignSpec::build` in `realm-baselines`) return
    /// `true`. Wrappers that draw a fault or count per call
    /// (`FaultyMultiplier`, `Guarded`) and adapters keep `false`; the
    /// `&M` impl forwards it.
    fn is_pure(&self) -> bool {
        false
    }
}

/// A borrowed design is the design: every method forwards, so a batch
/// or wide product runs the design's own path.
impl<M: Multiplier + ?Sized> Multiplier for &M {
    fn width(&self) -> u32 {
        (**self).width()
    }
    fn multiply(&self, a: u64, b: u64) -> u64 {
        (**self).multiply(a, b)
    }
    fn multiply_wide(&self, a: u64, b: u64) -> u128 {
        (**self).multiply_wide(a, b)
    }
    fn name(&self) -> &str {
        (**self).name()
    }
    fn config(&self) -> String {
        (**self).config()
    }
    fn multiply_batch(&self, pairs: &[(u64, u64)], out: &mut [u64]) {
        (**self).multiply_batch(pairs, out)
    }
    fn is_pure(&self) -> bool {
        (**self).is_pure()
    }
}

/// Checks the batch contract shared by every
/// [`multiply_batch`](Multiplier::multiply_batch) implementation — one
/// output slot per operand pair — and yields `(slot, (a, b))` lanes for the
/// kernel to fill.
///
/// The default scalar loop and every monomorphic override (Accurate, REALM,
/// cALM, DRUM) route their length check through this helper, as do the bulk
/// campaign drivers in `realm-metrics`, so the contract violation panics
/// with one uniform message everywhere.
///
/// # Panics
///
/// Panics if `pairs` and `out` differ in length.
///
/// ```
/// use realm_core::multiplier::batch_lanes;
///
/// let pairs = [(3u64, 5u64), (7, 9)];
/// let mut out = [0u64; 2];
/// for (slot, (a, b)) in batch_lanes(&pairs, &mut out) {
///     *slot = a * b;
/// }
/// assert_eq!(out, [15, 63]);
/// ```
pub fn batch_lanes<'a>(
    pairs: &'a [(u64, u64)],
    out: &'a mut [u64],
) -> impl Iterator<Item = (&'a mut u64, (u64, u64))> {
    assert_eq!(
        pairs.len(),
        out.len(),
        "multiply_batch needs one output slot per operand pair"
    );
    out.iter_mut().zip(pairs.iter().copied())
}

/// The shared width suffix of every design's `config()`: empty at the
/// paper's default `N = 16` — keeping all 16-bit labels, and therefore
/// the pinned goldens and campaign fingerprints, byte-identical — and
/// `"w=N"` elsewhere, so differently sized instances of one design never
/// share a label.
///
/// ```
/// use realm_core::multiplier::width_tag;
///
/// assert_eq!(width_tag(16), "");
/// assert_eq!(width_tag(32), "w=32");
/// ```
pub fn width_tag(width: u32) -> String {
    if width == 16 {
        String::new()
    } else {
        format!("w={width}")
    }
}

/// Extension helpers available on every [`Multiplier`].
///
/// Kept separate from the object-safe core trait so that `dyn Multiplier`
/// stays usable; blanket-implemented for all `T: Multiplier + ?Sized`.
pub trait MultiplierExt: Multiplier {
    /// The signed relative error `(approx − exact) / exact` for one operand
    /// pair, or `None` when the exact product is zero (relative error is
    /// undefined there; the paper's characterization skips such pairs).
    ///
    /// ```
    /// use realm_core::{Accurate, Multiplier};
    /// use realm_core::multiplier::MultiplierExt;
    ///
    /// let exact = Accurate::new(8);
    /// assert_eq!(exact.relative_error(12, 13), Some(0.0));
    /// assert_eq!(exact.relative_error(12, 0), None);
    /// ```
    fn relative_error(&self, a: u64, b: u64) -> Option<f64> {
        let exact = (a as u128) * (b as u128);
        if exact == 0 {
            return None;
        }
        let approx = self.multiply_wide(a, b);
        let diff = approx as f64 - exact as f64;
        Some(diff / exact as f64)
    }

    /// Total variant of [`relative_error`](MultiplierExt::relative_error):
    /// defined for **every** operand pair, including those with a zero
    /// exact product. When `a * b == 0` the error is `0.0` if the design
    /// also returns zero (every paper design short-circuits zeros) and
    /// `1.0` — one full unit of the claimed product — if it fabricates a
    /// nonzero result, as a faulty datapath can.
    ///
    /// Fault campaigns use this so that no operand pair is silently
    /// skipped and zero-input misbehaviour is scored rather than ignored.
    ///
    /// ```
    /// use realm_core::Accurate;
    /// use realm_core::multiplier::MultiplierExt;
    ///
    /// let exact = Accurate::new(8);
    /// assert_eq!(exact.relative_error_total(12, 13), 0.0);
    /// assert_eq!(exact.relative_error_total(12, 0), 0.0);
    /// ```
    fn relative_error_total(&self, a: u64, b: u64) -> f64 {
        match self.relative_error(a, b) {
            Some(e) => e,
            None if self.multiply(a, b) == 0 => 0.0,
            None => 1.0,
        }
    }

    /// Largest operand value, `2^N − 1`.
    fn max_operand(&self) -> u64 {
        if self.width() >= 64 {
            u64::MAX
        } else {
            (1u64 << self.width()) - 1
        }
    }

    /// Full display label, `name` plus parenthesized `config` when present.
    ///
    /// ```
    /// use realm_core::{Realm, RealmConfig};
    /// use realm_core::multiplier::MultiplierExt;
    ///
    /// # fn main() -> Result<(), realm_core::ConfigError> {
    /// let m = Realm::new(RealmConfig::n16(8, 2))?;
    /// assert_eq!(m.label(), "REALM8 (t=2)");
    /// # Ok(())
    /// # }
    /// ```
    fn label(&self) -> String {
        let cfg = self.config();
        if cfg.is_empty() {
            self.name().to_string()
        } else {
            format!("{} ({})", self.name(), cfg)
        }
    }
}

impl<T: Multiplier + ?Sized> MultiplierExt for T {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accurate::Accurate;

    #[test]
    fn trait_is_object_safe() {
        let boxed: Box<dyn Multiplier> = Box::new(Accurate::new(16));
        assert_eq!(boxed.multiply(7, 6), 42);
        assert_eq!(boxed.width(), 16);
    }

    /// Every method answers differently from the trait's default, so a
    /// method the forwarding impl did not forward would show.
    #[derive(Debug)]
    struct Marked;

    impl Multiplier for Marked {
        fn width(&self) -> u32 {
            12
        }
        fn multiply(&self, a: u64, b: u64) -> u64 {
            a * b
        }
        fn multiply_wide(&self, _: u64, _: u64) -> u128 {
            9
        }
        fn name(&self) -> &str {
            "Marked"
        }
        fn config(&self) -> String {
            "k=1".into()
        }
        fn multiply_batch(&self, pairs: &[(u64, u64)], out: &mut [u64]) {
            for (slot, _) in batch_lanes(pairs, out) {
                *slot = 7;
            }
        }
        fn is_pure(&self) -> bool {
            true
        }
    }

    #[test]
    fn references_forward_every_method() {
        let borrowed: &dyn Multiplier = &Marked;
        // Coerces to a trait object of the forwarding impl itself.
        let m = &borrowed as &dyn Multiplier;
        assert_eq!((m.width(), m.multiply(3, 4)), (12, 12));
        assert_eq!(m.multiply_wide(3, 4), 9);
        assert_eq!((m.name(), m.config()), ("Marked", "k=1".to_string()));
        let mut out = [0u64; 2];
        m.multiply_batch(&[(1, 2), (3, 4)], &mut out);
        assert_eq!(out, [7, 7]);
        assert!(m.is_pure());
    }

    #[test]
    fn relative_error_of_exact_is_zero() {
        let m = Accurate::new(16);
        assert_eq!(m.relative_error(123, 456), Some(0.0));
    }

    #[test]
    fn relative_error_skips_zero_products() {
        let m = Accurate::new(16);
        assert_eq!(m.relative_error(0, 456), None);
        assert_eq!(m.relative_error(456, 0), None);
        assert_eq!(m.relative_error(0, 0), None);
    }

    #[test]
    fn max_operand_matches_width() {
        assert_eq!(Accurate::new(8).max_operand(), 255);
        assert_eq!(Accurate::new(16).max_operand(), 65_535);
    }

    #[test]
    fn label_without_config_is_bare_name() {
        assert_eq!(Accurate::new(16).label(), "Accurate");
    }

    #[test]
    #[should_panic(expected = "one output slot per operand pair")]
    fn batch_lanes_rejects_length_mismatch() {
        let pairs = [(1u64, 2u64), (3, 4)];
        let mut out = [0u64; 3];
        for (slot, (a, b)) in batch_lanes(&pairs, &mut out) {
            *slot = a * b;
        }
    }

    #[test]
    fn batch_lanes_pairs_slots_in_order() {
        let pairs = [(2u64, 3u64), (4, 5), (6, 7)];
        let mut out = [0u64; 3];
        for (slot, (a, b)) in batch_lanes(&pairs, &mut out) {
            *slot = a * b;
        }
        assert_eq!(out, [6, 20, 42]);
    }
}
