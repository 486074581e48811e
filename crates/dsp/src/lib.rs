//! # realm-dsp
//!
//! Application substrates for the error-resilient workload classes the
//! paper's introduction motivates — signal processing, multimedia and
//! machine learning — each with **every multiplication routed through a
//! pluggable [`realm_core::Multiplier`]**. Every signed product goes
//! through the sign-magnitude rule of [`realm_core::signed`]: one
//! product at a time with [`realm_core::fixed_mul_signed`], or a batch
//! or dot product at a time with [`realm_core::FixedBatch`].
//!
//! * [`fir`] — fixed-point FIR filtering (Q15 coefficients) with
//!   output-SNR analysis against the exact filter;
//! * [`conv2d`] — 2-D image convolution (Gaussian blur, Sobel edges) on
//!   `realm-jpeg` images;
//! * [`mlp`] — a small fixed-point multilayer perceptron, trained in
//!   floating point at construction and quantized for inference, so the
//!   classification-accuracy impact of each approximate multiplier can be
//!   measured directly.
//!
//! ```
//! use realm_core::{Accurate, Realm, RealmConfig};
//! use realm_dsp::fir::FirFilter;
//!
//! # fn main() -> Result<(), realm_core::ConfigError> {
//! let lowpass = FirFilter::low_pass(31, 0.2);
//! let signal: Vec<i32> = (0..256).map(|n| if n % 16 < 8 { 8_000 } else { -8_000 }).collect();
//! let exact = lowpass.apply(&Accurate::new(16), &signal);
//! let approx = lowpass.apply(&Realm::new(RealmConfig::n16(16, 0))?, &signal);
//! let snr = realm_dsp::fir::output_snr(&exact, &approx);
//! assert!(snr > 30.0, "REALM filtering SNR {snr} dB");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Substrate code must be total outside tests: an inference pass or a
// filter run degrades to a diagnostic, never to a lazy panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod conv2d;
pub mod fft;
pub mod fir;
pub mod gemm;
pub mod im2col;
pub mod mlp;
pub mod net;

pub use conv2d::Kernel;
pub use fir::FirFilter;
pub use gemm::{matmul, matmul_scalar_reference, Matrix};
pub use mlp::Mlp;
pub use net::{orientation_dataset, tiny_net, Layer, Op, QuantNet, TINY_NET_SLATE};

#[cfg(test)]
mod tests {
    // The signed multiply every substrate of this crate goes through,
    // pinned at the semantics the substrates rely on.
    use realm_core::rng::SplitMix64;
    use realm_core::{fixed_mul_signed, Accurate};

    #[test]
    fn fixed_mul_floors_the_magnitude_not_the_signed_product() {
        // Sign-magnitude flooring rounds toward zero; an arithmetic shift
        // of the signed product would round toward -infinity. The scalar
        // primitive pins the former.
        let m = Accurate::new(16);
        assert_eq!(fixed_mul_signed(&m, -3, 1, 1), -1);
        assert_eq!(-3i64 >> 1, -2);
        assert_eq!(fixed_mul_signed(&m, -7, 3, 2), -5);
        assert_eq!((-7i64 * 3) >> 2, -6);
    }

    #[test]
    fn fixed_mul_is_total_at_i64_extremes() {
        // i64::MIN has no positive i64 counterpart; unsigned_abs gives its
        // true 2^63 magnitude and the result saturates symmetrically
        // instead of wrapping or panicking.
        let m = Accurate::new(64);
        assert_eq!(fixed_mul_signed(&m, i64::MIN, i64::MIN, 0), i64::MAX);
        assert_eq!(fixed_mul_signed(&m, i64::MIN, 1, 0), -i64::MAX);
        assert_eq!(fixed_mul_signed(&m, 1, i64::MIN, 0), -i64::MAX);
        assert_eq!(fixed_mul_signed(&m, i64::MIN, 0, 0), 0);
        assert_eq!(fixed_mul_signed(&m, i64::MAX, i64::MAX, 0), i64::MAX);
        assert_eq!(fixed_mul_signed(&m, i64::MIN, i64::MAX, 0), -i64::MAX);
        // Shifting the saturated magnitude stays total and ordered.
        assert_eq!(fixed_mul_signed(&m, i64::MIN, 1, 63), -1);
        assert_eq!(fixed_mul_signed(&m, i64::MIN, 2, 1), -i64::MAX);
    }

    #[test]
    fn fixed_mul_matches_i128_reference_wherever_exact() {
        // Property: for in-range 32-bit operands the accurate 64-bit core
        // is exact, so the multiply must equal the i128 reference with
        // magnitude (toward-zero) flooring, for every sign combination.
        let m = Accurate::new(64);
        let mut rng = SplitMix64::new(0xF1D0);
        for _ in 0..4_096 {
            let a = rng.range_inclusive(0, u32::MAX as u64) as i64
                - rng.range_inclusive(0, u32::MAX as u64) as i64;
            let b = rng.range_inclusive(0, u32::MAX as u64) as i64
                - rng.range_inclusive(0, u32::MAX as u64) as i64;
            let shift = (rng.below(16)) as u32;
            let mag = (((a as i128).unsigned_abs() * (b as i128).unsigned_abs()) >> shift)
                .min(i64::MAX as u128) as i64;
            let expect = if (a < 0) ^ (b < 0) { -mag } else { mag };
            assert_eq!(
                fixed_mul_signed(&m, a, b, shift),
                expect,
                "{a} × {b} >> {shift}"
            );
        }
    }
}
