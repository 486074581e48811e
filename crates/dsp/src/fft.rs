//! Fixed-point radix-2 FFT through an approximate multiplier — the
//! classic DSP kernel where four real multiplies per butterfly make the
//! multiplier the dominant datapath element.
//!
//! Twiddle factors are Q14; data is complex Q(whatever the caller uses, as
//! long as magnitudes stay within the multiplier's operand width after the
//! per-stage scaling by 1/2 that prevents overflow (a standard block-
//! floating trick: an `N`-point transform then computes `DFT/N`).

use realm_core::{fixed_mul_signed, Multiplier};

/// Fractional bits of the twiddle factors (Q14).
pub const TWIDDLE_BITS: u32 = 14;

/// A complex sample in fixed point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Complex {
    /// Real part.
    pub re: i32,
    /// Imaginary part.
    pub im: i32,
}

impl Complex {
    /// Creates a complex sample.
    pub fn new(re: i32, im: i32) -> Self {
        Complex { re, im }
    }

    /// Squared magnitude as f64 (for spectrum inspection).
    pub fn mag_sq(&self) -> f64 {
        let (re, im) = (self.re as f64, self.im as f64);
        re * re + im * im
    }
}

/// Precomputed Q14 twiddle factors for an `n`-point transform.
fn twiddles(n: usize) -> Vec<Complex> {
    (0..n / 2)
        .map(|k| {
            let angle = -2.0 * std::f64::consts::PI * k as f64 / n as f64;
            Complex::new(
                (angle.cos() * (1 << TWIDDLE_BITS) as f64).round() as i32,
                (angle.sin() * (1 << TWIDDLE_BITS) as f64).round() as i32,
            )
        })
        .collect()
}

/// Complex multiply `x · w` with `w` in Q14, through the supplied
/// multiplier, descaled with round-to-nearest.
fn cmul(m: &dyn Multiplier, x: Complex, w: Complex) -> Complex {
    let half = 1i64 << (TWIDDLE_BITS - 1);
    let mul = |a: i32, b: i32| fixed_mul_signed(m, a as i64, b as i64, 0);
    let re = mul(x.re, w.re) - mul(x.im, w.im);
    let im = mul(x.re, w.im) + mul(x.im, w.re);
    Complex::new(
        ((re + half) >> TWIDDLE_BITS) as i32,
        ((im + half) >> TWIDDLE_BITS) as i32,
    )
}

/// In-place iterative radix-2 DIT FFT with per-stage 1/2 scaling; the
/// result is `DFT(x) / N`.
///
/// # Panics
///
/// Panics unless the length is a power of two ≥ 2.
pub fn fft(m: &dyn Multiplier, data: &mut [Complex]) {
    let n = data.len();
    assert!(
        n >= 2 && n.is_power_of_two(),
        "FFT length must be a power of two >= 2"
    );
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i as u32).reverse_bits() >> (32 - bits);
        let j = j as usize;
        if j > i {
            data.swap(i, j);
        }
    }
    let tw = twiddles(n);
    let mut len = 2;
    while len <= n {
        let stride = n / len;
        for start in (0..n).step_by(len) {
            for k in 0..len / 2 {
                let w = tw[k * stride];
                let a = data[start + k];
                let b = cmul(m, data[start + k + len / 2], w);
                // Scale each stage by 1/2 (rounding) to keep magnitudes
                // inside the operand width.
                data[start + k] = Complex::new((a.re + b.re + 1) >> 1, (a.im + b.im + 1) >> 1);
                data[start + k + len / 2] =
                    Complex::new((a.re - b.re + 1) >> 1, (a.im - b.im + 1) >> 1);
            }
        }
        len *= 2;
    }
}

/// Direct `DFT/N` in f64 — the reference the fixed-point pipeline is
/// measured against.
pub fn reference_dft(data: &[Complex]) -> Vec<(f64, f64)> {
    let n = data.len();
    (0..n)
        .map(|k| {
            let mut re = 0.0;
            let mut im = 0.0;
            for (t, x) in data.iter().enumerate() {
                let angle = -2.0 * std::f64::consts::PI * k as f64 * t as f64 / n as f64;
                let (c, s) = (angle.cos(), angle.sin());
                re += x.re as f64 * c - x.im as f64 * s;
                im += x.re as f64 * s + x.im as f64 * c;
            }
            (re / n as f64, im / n as f64)
        })
        .collect()
}

/// Signal-to-noise ratio (dB) of a fixed-point FFT run against the f64
/// reference.
pub fn fft_snr(m: &dyn Multiplier, input: &[Complex]) -> f64 {
    let reference = reference_dft(input);
    let mut data = input.to_vec();
    fft(m, &mut data);
    let mut signal = 0.0;
    let mut noise = 0.0;
    for (got, want) in data.iter().zip(&reference) {
        signal += want.0 * want.0 + want.1 * want.1;
        let (dr, di) = (got.re as f64 - want.0, got.im as f64 - want.1);
        noise += dr * dr + di * di;
    }
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

    fn tone(n: usize, bin: usize, amp: i32) -> Vec<Complex> {
        (0..n)
            .map(|t| {
                let angle = 2.0 * std::f64::consts::PI * bin as f64 * t as f64 / n as f64;
                Complex::new((amp as f64 * angle.cos()) as i32, 0)
            })
            .collect()
    }

    #[test]
    fn impulse_becomes_flat_spectrum() {
        let m = Accurate::new(16);
        let mut data = vec![Complex::default(); 16];
        data[0] = Complex::new(16_000, 0);
        fft(&m, &mut data);
        // DFT/N of an impulse: every bin = amp/N = 1000.
        for (k, x) in data.iter().enumerate() {
            assert!((x.re - 1_000).abs() <= 8, "bin {k}: {}", x.re);
            assert!(x.im.abs() <= 8, "bin {k}: {}", x.im);
        }
    }

    #[test]
    fn tone_concentrates_in_its_bin() {
        let m = Accurate::new(16);
        let mut data = tone(64, 5, 12_000);
        fft(&m, &mut data);
        // A real cosine splits between bins 5 and 59.
        let peak = data[5].mag_sq();
        for (k, x) in data.iter().enumerate() {
            if k != 5 && k != 59 {
                assert!(
                    x.mag_sq() < peak / 50.0,
                    "leakage at bin {k}: {}",
                    x.mag_sq()
                );
            }
        }
    }

    #[test]
    fn accurate_fft_matches_reference_closely() {
        let m = Accurate::new(16);
        let snr = fft_snr(&m, &tone(128, 9, 10_000));
        assert!(snr > 45.0, "fixed-point-only SNR {snr}");
    }

    #[test]
    fn realm_fft_tracks_accurate_and_beats_calm() {
        let input = tone(128, 9, 10_000);
        let realm = Realm::new(RealmConfig::n16(16, 0)).expect("paper design point");
        let snr_realm = fft_snr(&realm, &input);
        let snr_calm = fft_snr(&Calm::new(16), &input);
        assert!(snr_realm > 30.0, "REALM FFT SNR {snr_realm}");
        assert!(
            snr_realm > snr_calm + 6.0,
            "REALM {snr_realm} vs cALM {snr_calm}"
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let m = Accurate::new(16);
        let mut data = vec![Complex::default(); 12];
        fft(&m, &mut data);
    }
}
