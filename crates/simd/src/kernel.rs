//! The four accelerated batch kernels, each as a small parameter block
//! with one scalar `lane` function (the reference arithmetic, hoisted
//! verbatim from the designs' monomorphic loops) and one `run` entry
//! that executes a whole batch on a chosen [`Tier`].
//!
//! Construction validates every parameter (`new` returns `Option`), so
//! an existing kernel can never shift by more than its operand width or
//! gather outside its LUT. `run` is total over both tiers: asking for
//! [`Tier::Avx2`] on a machine without AVX2 silently degrades to the
//! scalar loop rather than faulting, which keeps explicit-tier callers
//! (benches, differential tests) portable.

use crate::{avx2, Tier};

/// Panics unless `pairs` and `out` have equal length — the same
/// contract, with the same message, as `multiply_batch` everywhere else
/// in the workspace.
fn check_lanes(pairs: &[(u64, u64)], out: &mut [u64]) {
    assert_eq!(
        pairs.len(),
        out.len(),
        "multiply_batch needs one output slot per operand pair"
    );
}

/// Exact `N ≤ 32`-bit reference multiplier kernel (`a * b` per lane).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccurateKernel {
    width: u32,
}

impl AccurateKernel {
    /// Kernel for `width`-bit operands; `None` outside `1..=32` (wider
    /// products would overflow the 64-bit product lanes).
    pub fn new(width: u32) -> Option<Self> {
        (1..=32)
            .contains(&width)
            .then_some(AccurateKernel { width })
    }

    /// One scalar lane — bit-identical to `Accurate::multiply`.
    #[inline]
    pub fn lane(&self, a: u64, b: u64) -> u64 {
        debug_assert!(
            a >> self.width == 0,
            "operand a exceeds {} bits",
            self.width
        );
        debug_assert!(
            b >> self.width == 0,
            "operand b exceeds {} bits",
            self.width
        );
        a * b
    }

    /// Multiplies every pair on the requested tier.
    ///
    /// # Panics
    ///
    /// Panics if `pairs` and `out` differ in length.
    pub fn run(&self, tier: Tier, pairs: &[(u64, u64)], out: &mut [u64]) {
        check_lanes(pairs, out);
        if tier == Tier::Avx2 && avx2::run_accurate(self, pairs, out) {
            return;
        }
        for (slot, &(a, b)) in out.iter_mut().zip(pairs) {
            *slot = self.lane(a, b);
        }
    }
}

/// Mitchell's classical log multiplier (cALM) kernel: encode both
/// operands, add the logs, take the antilog — no correction term.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CalmKernel {
    /// Fraction bits `N − 1`.
    fraction_bits: u32,
    /// Saturation ceiling `2^(2N) − 1`.
    max_product: u64,
}

impl CalmKernel {
    /// Kernel for `width`-bit operands; `None` outside `4..=31` (width
    /// 32 needs the u128 wide path the designs keep as fallback).
    pub fn new(width: u32) -> Option<Self> {
        (4..=31).contains(&width).then(|| CalmKernel {
            fraction_bits: width - 1,
            max_product: (1u64 << (2 * width)) - 1,
        })
    }

    /// One scalar lane — bit-identical to `realm_baselines::Calm::multiply`.
    #[inline]
    pub fn lane(&self, a: u64, b: u64) -> u64 {
        if a == 0 || b == 0 {
            return 0;
        }
        let f = self.fraction_bits;
        let ka = 63 - a.leading_zeros();
        let kb = 63 - b.leading_zeros();
        let fa = (a - (1u64 << ka)) << (f - ka);
        let fb = (b - (1u64 << kb)) << (f - kb);
        let fsum = fa + fb;
        let k_sum = ka + kb;
        let (mantissa, exponent) = if fsum >> f == 0 {
            ((1u64 << f) + fsum, k_sum)
        } else {
            (fsum, k_sum + 1)
        };
        let shift = exponent as i32 - f as i32;
        let value = if shift >= 0 {
            mantissa << shift
        } else {
            mantissa >> -shift
        };
        value.min(self.max_product)
    }

    /// Fraction bits `N − 1`.
    pub fn fraction_bits(&self) -> u32 {
        self.fraction_bits
    }

    /// Saturation ceiling `2^(2N) − 1`.
    pub fn max_product(&self) -> u64 {
        self.max_product
    }

    /// Multiplies every pair on the requested tier.
    ///
    /// # Panics
    ///
    /// Panics if `pairs` and `out` differ in length.
    pub fn run(&self, tier: Tier, pairs: &[(u64, u64)], out: &mut [u64]) {
        check_lanes(pairs, out);
        if tier == Tier::Avx2 && avx2::run_calm(self, pairs, out) {
            return;
        }
        for (slot, &(a, b)) in out.iter_mut().zip(pairs) {
            *slot = self.lane(a, b);
        }
    }
}

/// DRUM kernel: `k`-bit leading fragment with forced LSB per operand,
/// exact product of the fragments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrumKernel {
    fragment: u32,
}

impl DrumKernel {
    /// Kernel for `width`-bit operands with fragment `k`; `None`
    /// outside the design's own envelope (`4 ≤ width ≤ 32`,
    /// `3 ≤ k ≤ width`).
    pub fn new(width: u32, fragment: u32) -> Option<Self> {
        ((4..=32).contains(&width) && (3..=width).contains(&fragment))
            .then_some(DrumKernel { fragment })
    }

    /// One scalar lane — bit-identical to `realm_baselines::Drum::multiply`.
    #[inline]
    pub fn lane(&self, a: u64, b: u64) -> u64 {
        if a == 0 || b == 0 {
            return 0;
        }
        let k = self.fragment;
        let pa = 63 - a.leading_zeros();
        let a = if pa < k {
            a
        } else {
            let shift = pa - k + 1;
            ((a >> shift) | 1) << shift
        };
        let pb = 63 - b.leading_zeros();
        let b = if pb < k {
            b
        } else {
            let shift = pb - k + 1;
            ((b >> shift) | 1) << shift
        };
        a * b
    }

    /// The fragment width `k`.
    pub fn fragment(&self) -> u32 {
        self.fragment
    }

    /// Multiplies every pair on the requested tier.
    ///
    /// # Panics
    ///
    /// Panics if `pairs` and `out` differ in length.
    pub fn run(&self, tier: Tier, pairs: &[(u64, u64)], out: &mut [u64]) {
        check_lanes(pairs, out);
        if tier == Tier::Avx2 && avx2::run_drum(self, pairs, out) {
            return;
        }
        for (slot, &(a, b)) in out.iter_mut().zip(pairs) {
            *slot = self.lane(a, b);
        }
    }
}

/// REALM kernel: Mitchell's pipeline plus the truncate-and-set-LSB
/// conditioning and the M×M quantized error-reduction LUT.
///
/// Borrows the LUT code slice from the owning `Realm`, so building one
/// per `multiply_batch` call is free of allocation and table copies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RealmKernel<'a> {
    /// Operand mask `2^N − 1` (REALM is total over u64: out-of-range
    /// operands are masked to the hardware's input-port width).
    mask: u64,
    /// Fraction LSBs dropped (`t`).
    truncation: u32,
    /// Pre-truncation fraction bits `N − 1`.
    full_f: u32,
    /// Surviving fraction bits `N − 1 − t`.
    f: u32,
    /// LUT fractional precision `q`.
    precision: u32,
    /// `log2 M` — segment-index bits per axis.
    index_bits: u32,
    /// Fraction bits below the segment index (`f − log2 M`).
    idx_shift: u32,
    /// Saturation ceiling `2^(2N) − 1`.
    max_product: u64,
    /// The quantized `M × M` factor codes, row-major.
    codes: &'a [u32],
}

impl<'a> RealmKernel<'a> {
    /// Kernel over a validated parameter set; `None` when any invariant
    /// the vector body relies on does not hold (width outside `4..=31`
    /// — width 32 keeps the designs' u128 wide path — non-power-of-two
    /// segment count, a LUT of the wrong size, or a truncation that
    /// leaves fewer fraction bits than the segment index needs).
    pub fn new(
        width: u32,
        segments: u32,
        truncation: u32,
        precision: u32,
        codes: &'a [u32],
    ) -> Option<Self> {
        if !(4..=31).contains(&width) || !(2..=256).contains(&segments) {
            return None;
        }
        if !segments.is_power_of_two() || precision == 0 {
            return None;
        }
        if codes.len() != (segments as usize).pow(2) {
            return None;
        }
        let index_bits = segments.trailing_zeros();
        let full_f = width - 1;
        if truncation >= full_f {
            return None;
        }
        let f = full_f - truncation;
        if f < index_bits {
            return None;
        }
        Some(RealmKernel {
            mask: (1u64 << width) - 1,
            truncation,
            full_f,
            f,
            precision,
            index_bits,
            idx_shift: f - index_bits,
            max_product: (1u64 << (2 * width)) - 1,
            codes,
        })
    }

    /// One scalar lane — bit-identical to `realm_core::Realm::multiply`,
    /// which the registry conformance suite proves at every REALM point.
    #[inline]
    pub fn lane(&self, a: u64, b: u64) -> u64 {
        let (a, b) = (a & self.mask, b & self.mask);
        if a == 0 || b == 0 {
            return 0; // zero-operand special case
        }
        let (t, full_f, f, q) = (self.truncation, self.full_f, self.f, self.precision);
        // LOD + barrel shift, then truncate-and-set-LSB.
        let ka = 63 - a.leading_zeros();
        let kb = 63 - b.leading_zeros();
        let fa = (((a - (1u64 << ka)) << (full_f - ka)) >> t) | 1;
        let fb = (((b - (1u64 << kb)) << (full_f - kb)) >> t) | 1;
        // LUT mux on the concatenated fraction MSBs.
        let idx = (((fa >> self.idx_shift) << self.index_bits) | (fb >> self.idx_shift)) as usize;
        let s = self.codes[idx] as u64;
        // Log add, carry-halved correction inject, final barrel shift.
        let fsum = fa + fb;
        let carry = fsum >> f;
        let corr_f = if f >= q { s << (f - q) } else { s >> (q - f) };
        let corr_eff = if carry == 1 { corr_f >> 1 } else { corr_f };
        let k_sum = ka + kb;
        let (mantissa, exponent) = if carry == 0 {
            ((1u64 << f) + fsum + corr_eff, k_sum)
        } else {
            (fsum + corr_eff, k_sum + 1)
        };
        let shift = exponent as i32 - f as i32;
        let value = if shift >= 0 {
            mantissa << shift
        } else {
            mantissa >> -shift
        };
        value.min(self.max_product)
    }

    /// Operand mask `2^N − 1`.
    pub fn mask(&self) -> u64 {
        self.mask
    }

    /// Surviving fraction bits `N − 1 − t`.
    pub fn fraction_bits(&self) -> u32 {
        self.f
    }

    /// Fraction LSBs dropped (`t`).
    pub fn truncation(&self) -> u32 {
        self.truncation
    }

    /// LUT fractional precision `q`.
    pub fn precision(&self) -> u32 {
        self.precision
    }

    /// `log2 M`.
    pub fn index_bits(&self) -> u32 {
        self.index_bits
    }

    /// Fraction bits below the segment index.
    pub fn idx_shift(&self) -> u32 {
        self.idx_shift
    }

    /// Saturation ceiling `2^(2N) − 1`.
    pub fn max_product(&self) -> u64 {
        self.max_product
    }

    /// Pre-truncation fraction bits `N − 1`.
    pub fn full_fraction_bits(&self) -> u32 {
        self.full_f
    }

    /// The quantized factor codes, row-major `M × M`.
    pub fn codes(&self) -> &'a [u32] {
        self.codes
    }

    /// Multiplies every pair on the requested tier.
    ///
    /// # Panics
    ///
    /// Panics if `pairs` and `out` differ in length.
    pub fn run(&self, tier: Tier, pairs: &[(u64, u64)], out: &mut [u64]) {
        check_lanes(pairs, out);
        if tier == Tier::Avx2 && avx2::run_realm(self, pairs, out) {
            return;
        }
        for (slot, &(a, b)) in out.iter_mut().zip(pairs) {
            *slot = self.lane(a, b);
        }
    }
}

/// scaleTRIM kernel: leading-one decomposition, truncated `t × t`
/// cross-term product, optional linearized compensation.
///
/// No AVX2 specialization exists yet — [`run`](Self::run) executes the
/// scalar lanes on every tier (the tier argument is accepted so callers
/// stay uniform).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleTrimKernel {
    /// Fraction bits `N − 1`.
    fraction_bits: u32,
    /// Cross-term bits kept per operand.
    truncation: u32,
    /// Whether the compensation constant is added.
    compensate: bool,
    /// Saturation ceiling `2^(2N) − 1`.
    max_product: u64,
}

impl ScaleTrimKernel {
    /// Kernel for `width`-bit operands; `None` outside `4..=31` (width
    /// 32 up needs the u128 path the design keeps as fallback) or for
    /// `t` outside `2..=min(8, width − 1)`.
    pub fn new(width: u32, truncation: u32, compensate: bool) -> Option<Self> {
        ((4..=31).contains(&width) && (2..=8).contains(&truncation) && truncation < width).then(
            || ScaleTrimKernel {
                fraction_bits: width - 1,
                truncation,
                compensate,
                max_product: (1u64 << (2 * width)) - 1,
            },
        )
    }

    /// One scalar lane — bit-identical to
    /// `realm_baselines::ScaleTrim::multiply`.
    #[inline]
    pub fn lane(&self, a: u64, b: u64) -> u64 {
        if a == 0 || b == 0 {
            return 0;
        }
        let f = self.fraction_bits;
        let t = self.truncation;
        let ka = 63 - a.leading_zeros();
        let kb = 63 - b.leading_zeros();
        let fx = (a - (1u64 << ka)) << (f - ka);
        let fy = (b - (1u64 << kb)) << (f - kb);
        let xa = fx >> (f - t);
        let ya = fy >> (f - t);
        let pp = xa * ya;
        let corr = if self.compensate {
            (pp << 2) + ((xa + ya) << 1) + 1
        } else {
            pp << 2
        };
        let corr_bits = 2 * t + 2;
        let corr_f = if f >= corr_bits {
            corr << (f - corr_bits)
        } else {
            corr >> (corr_bits - f)
        };
        // mantissa < 4·2^f and the up-shift is at most width − 1, so the
        // widest lane value is < 2^62 at width 31: u64 is enough.
        let mantissa = (1u64 << f) + fx + fy + corr_f;
        let shift = (ka + kb) as i32 - f as i32;
        let value = if shift >= 0 {
            mantissa << shift
        } else {
            mantissa >> -shift
        };
        value.min(self.max_product)
    }

    /// Multiplies every pair; every tier runs the scalar lanes.
    ///
    /// # Panics
    ///
    /// Panics if `pairs` and `out` differ in length.
    pub fn run(&self, _tier: Tier, pairs: &[(u64, u64)], out: &mut [u64]) {
        check_lanes(pairs, out);
        for (slot, &(a, b)) in out.iter_mut().zip(pairs) {
            *slot = self.lane(a, b);
        }
    }
}

/// Iterative log multiplier (ILM) kernel: leading-one decomposition of
/// both operands, one or two refinement iterations over the residues.
///
/// No AVX2 specialization exists yet — [`run`](Self::run) executes the
/// scalar lanes on every tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IlmKernel {
    iterations: u32,
}

impl IlmKernel {
    /// Kernel for `width`-bit operands; `None` outside `4..=32` (the
    /// approximation is bounded by the exact product, which fits u64 at
    /// width 32) or iterations outside `1..=2`.
    pub fn new(width: u32, iterations: u32) -> Option<Self> {
        ((4..=32).contains(&width) && (1..=2).contains(&iterations))
            .then_some(IlmKernel { iterations })
    }

    /// One scalar lane — bit-identical to
    /// `realm_baselines::Ilm::multiply`.
    #[inline]
    pub fn lane(&self, a: u64, b: u64) -> u64 {
        if a == 0 || b == 0 {
            return 0;
        }
        let ka = 63 - a.leading_zeros();
        let kb = 63 - b.leading_zeros();
        let res_a = a ^ (1u64 << ka);
        let res_b = b ^ (1u64 << kb);
        let mut p = (a << kb) + (res_b << ka);
        if self.iterations == 2 && res_a != 0 && res_b != 0 {
            let ka2 = 63 - res_a.leading_zeros();
            let kb2 = 63 - res_b.leading_zeros();
            let res2_b = res_b ^ (1u64 << kb2);
            p += (res_a << kb2) + (res2_b << ka2);
        }
        p
    }

    /// Number of basic-block iterations (1 or 2).
    pub fn iterations(&self) -> u32 {
        self.iterations
    }

    /// Multiplies every pair; every tier runs the scalar lanes.
    ///
    /// # Panics
    ///
    /// Panics if `pairs` and `out` differ in length.
    pub fn run(&self, _tier: Tier, pairs: &[(u64, u64)], out: &mut [u64]) {
        check_lanes(pairs, out);
        for (slot, &(a, b)) in out.iter_mut().zip(pairs) {
            *slot = self.lane(a, b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_parameters() {
        assert!(AccurateKernel::new(0).is_none());
        assert!(AccurateKernel::new(33).is_none());
        assert!(AccurateKernel::new(16).is_some());
        assert!(CalmKernel::new(32).is_none(), "width 32 is the u128 path");
        assert!(CalmKernel::new(16).is_some());
        assert!(DrumKernel::new(16, 2).is_none());
        assert!(DrumKernel::new(16, 17).is_none());
        assert!(DrumKernel::new(16, 6).is_some());
        assert!(
            ScaleTrimKernel::new(32, 4, true).is_none(),
            "width 32 is the u128 path"
        );
        assert!(ScaleTrimKernel::new(16, 1, true).is_none());
        assert!(ScaleTrimKernel::new(16, 9, false).is_none());
        assert!(ScaleTrimKernel::new(4, 4, true).is_none(), "t > N - 1");
        assert!(ScaleTrimKernel::new(16, 6, false).is_some());
        assert!(IlmKernel::new(33, 2).is_none());
        assert!(IlmKernel::new(16, 0).is_none());
        assert!(IlmKernel::new(16, 3).is_none());
        assert!(IlmKernel::new(32, 2).is_some());
        let codes = vec![0u32; 16];
        assert!(RealmKernel::new(16, 4, 0, 6, &codes).is_some());
        assert!(RealmKernel::new(32, 4, 0, 6, &codes).is_none());
        assert!(RealmKernel::new(16, 3, 0, 6, &codes).is_none());
        assert!(RealmKernel::new(16, 4, 0, 6, &codes[..15]).is_none());
        assert!(RealmKernel::new(16, 4, 15, 6, &codes).is_none());
        // t = 12 leaves f = 3 ≥ log2(4) = 2 — legal for M = 4.
        assert!(RealmKernel::new(16, 4, 12, 6, &codes).is_some());
        // …but not for M = 16 (needs 4 index bits).
        let codes16 = vec![0u32; 256];
        assert!(RealmKernel::new(16, 16, 12, 6, &codes16).is_none());
    }

    #[test]
    fn tiers_agree_on_random_streams() {
        // Self-consistency: whatever tier actually runs must match the
        // scalar lane on a pseudo-random stream with a ragged tail.
        // (The cross-checks against the real designs live in the
        // realm-core / realm-baselines differential suites.)
        let codes: Vec<u32> = (0..64u32).map(|i| (i * 7) % 61).collect();
        let realm = RealmKernel::new(16, 8, 2, 6, &codes).unwrap();
        let calm = CalmKernel::new(16).unwrap();
        let drum = DrumKernel::new(16, 6).unwrap();
        let acc = AccurateKernel::new(16).unwrap();
        let strim = ScaleTrimKernel::new(16, 4, true).unwrap();
        let ilm = IlmKernel::new(16, 2).unwrap();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let pairs: Vec<(u64, u64)> = (0..1021)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1442695040888963407);
                ((x >> 17) & 0xFFFF, (x >> 41) & 0xFFFF)
            })
            .collect();
        let mut simd = vec![0u64; pairs.len()];
        let mut scalar = vec![0u64; pairs.len()];
        for tier in [Tier::Scalar, Tier::Avx2] {
            realm.run(tier, &pairs, &mut simd);
            for (s, &(a, b)) in scalar.iter_mut().zip(&pairs) {
                *s = realm.lane(a, b);
            }
            assert_eq!(simd, scalar, "REALM kernel, tier {tier}");
            calm.run(tier, &pairs, &mut simd);
            for (s, &(a, b)) in scalar.iter_mut().zip(&pairs) {
                *s = calm.lane(a, b);
            }
            assert_eq!(simd, scalar, "cALM kernel, tier {tier}");
            drum.run(tier, &pairs, &mut simd);
            for (s, &(a, b)) in scalar.iter_mut().zip(&pairs) {
                *s = drum.lane(a, b);
            }
            assert_eq!(simd, scalar, "DRUM kernel, tier {tier}");
            acc.run(tier, &pairs, &mut simd);
            for (s, &(a, b)) in scalar.iter_mut().zip(&pairs) {
                *s = acc.lane(a, b);
            }
            assert_eq!(simd, scalar, "Accurate kernel, tier {tier}");
            strim.run(tier, &pairs, &mut simd);
            for (s, &(a, b)) in scalar.iter_mut().zip(&pairs) {
                *s = strim.lane(a, b);
            }
            assert_eq!(simd, scalar, "scaleTRIM kernel, tier {tier}");
            ilm.run(tier, &pairs, &mut simd);
            for (s, &(a, b)) in scalar.iter_mut().zip(&pairs) {
                *s = ilm.lane(a, b);
            }
            assert_eq!(simd, scalar, "ILM kernel, tier {tier}");
        }
    }

    #[test]
    #[should_panic(expected = "one output slot per operand pair")]
    fn run_rejects_length_mismatch() {
        let k = AccurateKernel::new(16).unwrap();
        let mut out = [0u64; 2];
        k.run(Tier::Scalar, &[(1, 2), (3, 4), (5, 6)], &mut out);
    }
}
