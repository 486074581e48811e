//! Fixed-point FIR filtering through an approximate multiplier.
//!
//! Coefficients are Q15 (windowed-sinc design, computed in floating point
//! at construction and quantized); samples are signed 16-bit. Each tap
//! product runs through the supplied [`Multiplier`] in sign-magnitude
//! form and the accumulated output is descaled once — the same datapath
//! convention as the JPEG DCT.

use realm_core::{FixedBatch, Multiplier};

/// Fractional bits of the quantized coefficients (Q15).
pub const COEFF_BITS: u32 = 15;

/// A direct-form FIR filter with Q15 coefficients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FirFilter {
    taps: Vec<i32>,
}

impl FirFilter {
    /// Builds a filter from real-valued coefficients, quantized to Q15.
    ///
    /// # Panics
    ///
    /// Panics if `coefficients` is empty or any |coefficient| ≥ 1.
    pub fn from_coefficients(coefficients: &[f64]) -> Self {
        assert!(
            !coefficients.is_empty(),
            "FIR filter needs at least one tap"
        );
        let taps = coefficients
            .iter()
            .map(|&c| {
                assert!(c.abs() < 1.0, "coefficient {c} out of Q15 range");
                (c * (1i64 << COEFF_BITS) as f64).round() as i32
            })
            .collect();
        FirFilter { taps }
    }

    /// A Hamming-windowed-sinc low-pass design with the given odd tap
    /// count and normalized cutoff (fraction of the sample rate, in
    /// `(0, 0.5)`).
    ///
    /// # Panics
    ///
    /// Panics unless `taps` is odd and `cutoff ∈ (0, 0.5)`.
    pub fn low_pass(taps: usize, cutoff: f64) -> Self {
        assert!(taps % 2 == 1, "use an odd tap count for a symmetric filter");
        assert!(cutoff > 0.0 && cutoff < 0.5, "cutoff must be in (0, 0.5)");
        let mid = (taps / 2) as f64;
        let mut coeffs: Vec<f64> = (0..taps)
            .map(|n| {
                let x = n as f64 - mid;
                let sinc = if x == 0.0 {
                    2.0 * cutoff
                } else {
                    (2.0 * std::f64::consts::PI * cutoff * x).sin() / (std::f64::consts::PI * x)
                };
                let window = 0.54
                    - 0.46 * (2.0 * std::f64::consts::PI * n as f64 / (taps as f64 - 1.0)).cos();
                sinc * window
            })
            .collect();
        let sum: f64 = coeffs.iter().sum();
        for c in &mut coeffs {
            *c /= sum; // unity DC gain
        }
        FirFilter::from_coefficients(&coeffs)
    }

    /// The quantized Q15 taps.
    pub fn taps(&self) -> &[i32] {
        &self.taps
    }

    /// Filters a signed 16-bit signal, producing one output per input
    /// sample (zero-padded edges). All tap products run through `m`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if a sample exceeds the signed 16-bit range.
    pub fn apply(&self, m: &dyn Multiplier, signal: &[i32]) -> Vec<i32> {
        // Each output is one batched dot product of the overlapping tap
        // and signal windows (zero-padded taps fall out of the slices),
        // bit-identical to a per-tap `fixed_mul_signed` loop.
        let half = self.taps.len() / 2;
        let mut batch = FixedBatch::new();
        signal
            .iter()
            .enumerate()
            .map(|(n, _)| {
                let lo_k = half.saturating_sub(n);
                let start = n + lo_k - half;
                let count = (self.taps.len() - lo_k).min(signal.len() - start);
                let window = &signal[start..start + count];
                debug_assert!(
                    window.iter().all(|x| x.unsigned_abs() < (1 << 15)),
                    "sample exceeds 16 bits"
                );
                let acc = batch.dot(m, &self.taps[lo_k..lo_k + count], window);
                ((acc + (1 << (COEFF_BITS - 1))) >> COEFF_BITS) as i32
            })
            .collect()
    }
}

/// Output SNR in dB of an approximate filtering run against the exact
/// one: `10·log10(Σ exact² / Σ (exact − approx)²)`; infinite when equal.
///
/// # Panics
///
/// Panics if the signals differ in length.
pub fn output_snr(exact: &[i32], approx: &[i32]) -> f64 {
    assert_eq!(exact.len(), approx.len(), "signal lengths differ");
    let signal: f64 = exact.iter().map(|&v| (v as f64) * (v as f64)).sum();
    let noise: f64 = exact
        .iter()
        .zip(approx)
        .map(|(&e, &a)| {
            let d = (e - a) as f64;
            d * d
        })
        .sum();
    if noise == 0.0 {
        f64::INFINITY
    } else {
        10.0 * (signal / noise).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use realm_baselines::Calm;
    use realm_core::{Accurate, Realm, RealmConfig};

    fn square_wave(len: usize, period: usize, amp: i32) -> Vec<i32> {
        (0..len)
            .map(|n| if n % period < period / 2 { amp } else { -amp })
            .collect()
    }

    #[test]
    fn low_pass_has_unity_dc_gain() {
        let f = FirFilter::low_pass(31, 0.1);
        let sum: i64 = f.taps().iter().map(|&t| t as i64).sum();
        let unity = 1i64 << COEFF_BITS;
        assert!((sum - unity).abs() <= 16, "DC gain {sum} vs {unity}");
    }

    #[test]
    fn dc_signal_passes_through() {
        let f = FirFilter::low_pass(21, 0.2);
        let signal = vec![10_000i32; 64];
        let out = f.apply(&Accurate::new(16), &signal);
        // Interior samples (away from the zero-padded edges).
        for &v in &out[15..49] {
            assert!((v - 10_000).abs() <= 24, "DC distorted: {v}");
        }
    }

    #[test]
    fn high_frequency_is_attenuated() {
        let f = FirFilter::low_pass(31, 0.05);
        // Nyquist-rate alternation is far above the 0.05 cutoff.
        let signal: Vec<i32> = (0..128)
            .map(|n| if n % 2 == 0 { 12_000 } else { -12_000 })
            .collect();
        let out = f.apply(&Accurate::new(16), &signal);
        let max_out = out[20..108]
            .iter()
            .map(|v| v.abs())
            .max()
            .expect("nonempty");
        assert!(max_out < 600, "Nyquist tone not attenuated: {max_out}");
    }

    #[test]
    fn realm_filtering_snr_is_high_and_beats_calm() {
        let f = FirFilter::low_pass(31, 0.15);
        let signal = square_wave(512, 32, 9_000);
        let exact = f.apply(&Accurate::new(16), &signal);
        let realm = f.apply(
            &Realm::new(RealmConfig::n16(16, 0)).expect("paper design"),
            &signal,
        );
        let calm = f.apply(&Calm::new(16), &signal);
        let snr_realm = output_snr(&exact, &realm);
        let snr_calm = output_snr(&exact, &calm);
        assert!(snr_realm > 30.0, "REALM SNR {snr_realm}");
        assert!(
            snr_realm > snr_calm + 6.0,
            "REALM {snr_realm} vs cALM {snr_calm}"
        );
    }

    #[test]
    fn accurate_multiplier_is_the_reference() {
        let f = FirFilter::low_pass(15, 0.25);
        let signal = square_wave(128, 16, 5_000);
        let a = f.apply(&Accurate::new(16), &signal);
        let b = f.apply(&Accurate::new(16), &signal);
        assert_eq!(output_snr(&a, &b), f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "odd tap count")]
    fn even_tap_count_rejected() {
        let _ = FirFilter::low_pass(10, 0.2);
    }

    #[test]
    #[should_panic(expected = "out of Q15 range")]
    fn oversized_coefficient_rejected() {
        let _ = FirFilter::from_coefficients(&[0.5, 1.5]);
    }
}
