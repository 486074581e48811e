//! Sign-magnitude extension of unsigned approximate multipliers
//! (paper §III-C "Handling Signed Numbers", following the scheme of
//! DRUM \[3\]): multiply magnitudes with the unsigned core and re-apply
//! the XORed sign.

use crate::multiplier::Multiplier;

/// The sign-magnitude rule, applied to one magnitude product: floor it
/// by `shift`, saturate it to `i64::MAX` and negate it when the operand
/// signs differ. Every signed product of the substrates and of
/// [`SignMagnitude`] ends here, including those `QuantNet` looks up in a
/// product table instead of calling the design.
#[inline]
pub fn apply_sign(product: u64, shift: u32, negative: bool) -> i64 {
    let mag = (product >> shift).min(i64::MAX as u64) as i64;
    if negative {
        -mag
    } else {
        mag
    }
}

/// Scalar sign-magnitude fixed-point multiply through an unsigned
/// multiplier: `(a · b) >> shift` with flooring on the **magnitude**
/// (toward zero, as a hardware sign-magnitude datapath floors), total
/// for every `i64` input:
///
/// * `i64::MIN` contributes its true `2^63` magnitude via
///   [`i64::unsigned_abs`] — no wrap, no panic;
/// * a shifted magnitude above `i64::MAX` saturates, so results live in
///   the symmetric sign-magnitude range `[-i64::MAX, i64::MAX]`.
///
/// Flooring the magnitude differs from an arithmetic shift of the signed
/// product, which floors toward `-∞`: `fixed_mul_signed(m, -3, 1, 1)` is
/// `-1`, whereas `(-3 * 1) >> 1` is `-2`.
///
/// This is the per-lane reference semantics of [`FixedBatch`]; the
/// batched path must match it bit for bit on every lane.
#[inline]
pub fn fixed_mul_signed(m: &dyn Multiplier, a: i64, b: i64, shift: u32) -> i64 {
    let product = m.multiply(a.unsigned_abs(), b.unsigned_abs());
    apply_sign(product, shift, (a < 0) ^ (b < 0))
}

/// Batched sign-magnitude multiply with reusable scratch — the kernel
/// primitive underneath the realm-dsp GEMM/conv/FIR substrates.
///
/// The sign/magnitude split is hoisted out of the lane loop: magnitudes
/// are packed once, multiplied through **one**
/// [`Multiplier::multiply_batch`] call (which dispatches to the tiered
/// realm-simd kernels; the scalar tier is always available), and signs
/// are re-applied on the way out. Per-lane results are bit-identical to
/// [`fixed_mul_signed`] by construction, because `multiply_batch` is
/// contractually bit-identical to scalar `multiply`.
///
/// Reusing one `FixedBatch` across calls amortizes the two scratch
/// allocations across an entire matrix multiplication.
#[derive(Debug, Default)]
pub struct FixedBatch {
    mags: Vec<(u64, u64)>,
    prods: Vec<u64>,
}

impl FixedBatch {
    /// An empty scratch buffer (allocates lazily on first use).
    pub fn new() -> Self {
        FixedBatch::default()
    }

    /// Packs operand magnitudes into scratch and runs the one batched
    /// unsigned multiply; afterwards `self.prods[i]` holds the product
    /// of the `i`-th magnitude pair.
    fn run_batch(&mut self, m: &dyn Multiplier, mags: impl Iterator<Item = (u64, u64)>) {
        self.mags.clear();
        self.mags.extend(mags);
        self.prods.clear();
        self.prods.resize(self.mags.len(), 0);
        m.multiply_batch(&self.mags, &mut self.prods);
    }

    /// `out[i] = fixed_mul_signed(m, pairs[i].0, pairs[i].1, shift)` for
    /// every lane, through one `multiply_batch` call.
    ///
    /// # Panics
    ///
    /// Panics unless `out.len() == pairs.len()`.
    pub fn multiply(
        &mut self,
        m: &dyn Multiplier,
        pairs: &[(i64, i64)],
        shift: u32,
        out: &mut [i64],
    ) {
        assert_eq!(
            pairs.len(),
            out.len(),
            "multiply_batch needs one output slot per operand pair"
        );
        self.run_batch(
            m,
            pairs
                .iter()
                .map(|&(a, b)| (a.unsigned_abs(), b.unsigned_abs())),
        );
        for (slot, (&p, &(a, b))) in out.iter_mut().zip(self.prods.iter().zip(pairs)) {
            *slot = apply_sign(p, shift, (a < 0) ^ (b < 0));
        }
    }

    /// Exact signed dot product `Σ fixed_mul_signed(m, a[i], b[i], 0)`
    /// of two equal-length `i32` slices (the storage type of the
    /// realm-dsp matrices, taps and quantized weights) — the
    /// GEMM/FIR/MLP inner loop, one virtual call per *dot product*
    /// instead of one per product.
    ///
    /// Accumulation is plain `i64` addition, exactly as the scalar
    /// substrates accumulate.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn dot(&mut self, m: &dyn Multiplier, a: &[i32], b: &[i32]) -> i64 {
        assert_eq!(a.len(), b.len(), "dot product needs equal-length slices");
        self.run_batch(
            m,
            a.iter()
                .zip(b)
                .map(|(&x, &y)| (u64::from(x.unsigned_abs()), u64::from(y.unsigned_abs()))),
        );
        let mut acc = 0i64;
        for (&p, (&x, &y)) in self.prods.iter().zip(a.iter().zip(b)) {
            acc += apply_sign(p, 0, (x < 0) ^ (y < 0));
        }
        acc
    }
}

/// Wraps any unsigned [`Multiplier`] into a signed multiplier.
///
/// Operands are `width`-bit two's-complement integers; their magnitudes
/// (at most `width − 1` bits... plus the asymmetric `-2^(N-1)` case, which
/// is clamped to the maximum magnitude exactly as a hardware
/// sign-magnitude converter with saturation does) are multiplied by the
/// wrapped unsigned core and the product sign is `sign(a) XOR sign(b)`.
///
/// ```
/// use realm_core::{Accurate, SignMagnitude};
///
/// let signed = SignMagnitude::new(Accurate::new(16));
/// assert_eq!(signed.multiply_signed(-120, 45), -5400);
/// assert_eq!(signed.multiply_signed(-120, -45), 5400);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SignMagnitude<M> {
    inner: M,
}

impl<M: Multiplier> SignMagnitude<M> {
    /// Wraps an unsigned multiplier.
    pub fn new(inner: M) -> Self {
        SignMagnitude { inner }
    }

    /// A reference to the wrapped unsigned core.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// Consumes the wrapper, returning the unsigned core.
    pub fn into_inner(self) -> M {
        self.inner
    }

    /// Multiplies two signed `N`-bit values through the unsigned core.
    /// The product saturates to `±i64::MAX`, which a core of 33 bits or
    /// more can exceed.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if an operand does not fit in the core's
    /// signed `N`-bit range.
    pub fn multiply_signed(&self, a: i64, b: i64) -> i64 {
        let width = self.inner.width();
        let max_mag = ((1u64 << (width - 1)) - 1) as i64;
        debug_assert!(
            (-max_mag - 1..=max_mag).contains(&a),
            "operand a = {a} exceeds signed {width}-bit range"
        );
        debug_assert!(
            (-max_mag - 1..=max_mag).contains(&b),
            "operand b = {b} exceeds signed {width}-bit range"
        );
        // The -2^(N-1) corner clamps to -(2^(N-1)-1), as a sign-magnitude
        // front end without an extra magnitude bit must.
        let clamp = |v: i64| v.clamp(-max_mag, max_mag);
        fixed_mul_signed(&self.inner, clamp(a), clamp(b), 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accurate::Accurate;
    use crate::realm::{Realm, RealmConfig};

    #[test]
    fn sign_rules() {
        let m = SignMagnitude::new(Accurate::new(16));
        assert_eq!(m.multiply_signed(7, 6), 42);
        assert_eq!(m.multiply_signed(-7, 6), -42);
        assert_eq!(m.multiply_signed(7, -6), -42);
        assert_eq!(m.multiply_signed(-7, -6), 42);
        assert_eq!(m.multiply_signed(0, -6), 0);
    }

    #[test]
    fn min_value_saturates_magnitude() {
        let m = SignMagnitude::new(Accurate::new(8));
        // -128 clamps to magnitude 127.
        assert_eq!(m.multiply_signed(-128, 1), -127);
    }

    #[test]
    fn realm_signed_error_matches_unsigned_error() {
        let core = Realm::new(RealmConfig::n16(16, 0)).unwrap();
        let signed = SignMagnitude::new(core.clone());
        for (a, b) in [(1234i64, -567i64), (-20_000, -3), (-31_000, 29_999)] {
            let expect = {
                let p = core.multiply(a.unsigned_abs(), b.unsigned_abs()) as i64;
                if (a < 0) ^ (b < 0) {
                    -p
                } else {
                    p
                }
            };
            assert_eq!(signed.multiply_signed(a, b), expect);
        }
    }

    #[test]
    fn wide_cores_saturate_instead_of_wrapping() {
        // On a core of 33 bits or more the magnitude product can exceed
        // i64::MAX; it saturates like every other signed path.
        for width in [33, 48, 64] {
            let m = SignMagnitude::new(Accurate::new(width));
            let max = ((1u64 << (width - 1)) - 1) as i64;
            assert_eq!(m.multiply_signed(max, max), i64::MAX, "{width} bits");
            assert_eq!(m.multiply_signed(-max, max), -i64::MAX, "{width} bits");
        }
    }

    #[test]
    fn into_inner_returns_core() {
        let m = SignMagnitude::new(Accurate::new(16));
        assert_eq!(m.into_inner(), Accurate::new(16));
    }

    #[test]
    fn batch_multiply_matches_scalar_lane_for_lane() {
        let core = Realm::new(RealmConfig::n16(16, 0)).unwrap();
        let pairs: Vec<(i64, i64)> = vec![
            (300, 200),
            (-300, 200),
            (300, -200),
            (-300, -200),
            (0, -7),
            (32_767, 32_767),
            (-32_768, 1),
            (-32_768, -32_768),
        ];
        for shift in [0u32, 4, 8] {
            let mut out = vec![0i64; pairs.len()];
            let mut batch = FixedBatch::new();
            batch.multiply(&core, &pairs, shift, &mut out);
            for (i, &(a, b)) in pairs.iter().enumerate() {
                assert_eq!(
                    out[i],
                    fixed_mul_signed(&core, a, b, shift),
                    "lane {i}: {a} × {b} >> {shift}"
                );
            }
        }
    }

    #[test]
    fn dot_matches_scalar_accumulation() {
        let core = Accurate::new(16);
        let a = [300i64, -120, 0, 45, -7];
        let b = [-21i64, 13, 999, -45, -7];
        let scalar: i64 = a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| fixed_mul_signed(&core, x, y, 0))
            .sum();
        let mut batch = FixedBatch::new();
        let a32: Vec<i32> = a.iter().map(|&v| v as i32).collect();
        let b32: Vec<i32> = b.iter().map(|&v| v as i32).collect();
        assert_eq!(batch.dot(&core, &a32, &b32), scalar);
    }

    #[test]
    fn fixed_mul_signed_is_total_at_extremes() {
        let m = Accurate::new(64);
        assert_eq!(fixed_mul_signed(&m, i64::MIN, i64::MIN, 0), i64::MAX);
        assert_eq!(fixed_mul_signed(&m, i64::MIN, 1, 0), -i64::MAX);
        let mut out = [0i64; 2];
        FixedBatch::new().multiply(&m, &[(i64::MIN, i64::MIN), (i64::MIN, 1)], 0, &mut out);
        assert_eq!(out, [i64::MAX, -i64::MAX]);
    }

    #[test]
    fn scratch_is_reusable_across_shapes() {
        let core = Accurate::new(16);
        let mut batch = FixedBatch::new();
        let mut out3 = [0i64; 3];
        batch.multiply(&core, &[(1, 2), (3, 4), (-5, 6)], 0, &mut out3);
        assert_eq!(out3, [2, 12, -30]);
        let mut out1 = [0i64; 1];
        batch.multiply(&core, &[(7, -8)], 0, &mut out1);
        assert_eq!(out1, [-56]);
    }

    #[test]
    #[should_panic(expected = "one output slot per operand pair")]
    fn batch_multiply_rejects_length_mismatch() {
        let mut out = [0i64; 1];
        FixedBatch::new().multiply(&Accurate::new(16), &[(1, 2), (3, 4)], 0, &mut out);
    }

    #[test]
    #[should_panic(expected = "equal-length slices")]
    fn dot_rejects_length_mismatch() {
        let _ = FixedBatch::new().dot(&Accurate::new(16), &[1, 2], &[3]);
    }
}
