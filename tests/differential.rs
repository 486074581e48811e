//! Exhaustive differential tests of the REALM datapath against the
//! analytic error model in `core::analysis`, for the paper's design
//! grid `M ∈ {4, 8, 16} × t ∈ {0, 4}` (N = 16, q = 6, as in Table I).
//! Two properties are pinned:
//!
//! 1. **Analytic agreement**: over the top power-of-two interval
//!    (`a, b ∈ 128..=255`, where the 7-bit fraction grid is densest),
//!    the exhaustive bias and mean |error| match
//!    [`ideal_realm_stats`](realm::analysis::ideal_realm_stats)
//!    within the quantization error budget (`q = 6` LUT plus `t`
//!    truncated fraction bits).
//! 2. **Zero-mean-per-segment** (the paper's §III property): within
//!    every `(i, j)` segment pair the signed relative errors average to
//!    ≈ 0 — the error-reduction factor cancels the segment's Mitchell
//!    bias — again within quantization error, and an order of magnitude
//!    below Mitchell's own per-segment bias.

use realm::analysis::{ideal_realm_stats, mitchell_stats};
use realm::baselines::Calm;
use realm::{Multiplier, Realm, RealmConfig};

/// The design grid under test: the paper's `M` sweep at the two
/// truncation extremes used throughout the evaluation.
const DESIGNS: [(u32, u32); 6] = [(4, 0), (4, 4), (8, 0), (8, 4), (16, 0), (16, 4)];

fn realm(m: u32, t: u32) -> Realm {
    Realm::new(RealmConfig::n16(m, t)).expect("paper design point")
}

/// Signed relative error of one multiplication (`None` for zero
/// products, which the campaigns skip too).
fn rel_error(design: &dyn Multiplier, a: u64, b: u64) -> Option<f64> {
    let exact = (a * b) as f64;
    if exact == 0.0 {
        return None;
    }
    Some((design.multiply(a, b) as f64 - exact) / exact)
}

#[test]
fn exhaustive_interval_stats_match_the_analytic_model() {
    // Over a, b ∈ 128..=255 both fractions sweep the full 7-bit grid, so
    // the exhaustive average is a 128×128 Riemann sum of the continuous
    // error surface; it must agree with the quadrature-exact ideal-REALM
    // statistics up to the hardware quantization the ideal model omits:
    // the q = 6 LUT rounds each factor by ≤ 2^-7 and t = 4 truncation
    // perturbs fractions by ≤ 2^-11, so half a percent absolute is a
    // generous-but-meaningful budget (Mitchell's bias is −3.85 %, an
    // order of magnitude outside it).
    for (m, t) in DESIGNS {
        let r = realm(m, t);
        let ideal = ideal_realm_stats(m).expect("valid M");
        let mut sum = 0.0;
        let mut sum_abs = 0.0;
        let mut n = 0u32;
        for a in 128..=255u64 {
            for b in 128..=255u64 {
                let e = rel_error(&r, a, b).expect("nonzero product");
                sum += e;
                sum_abs += e.abs();
                n += 1;
            }
        }
        let bias = sum / n as f64;
        let mean = sum_abs / n as f64;
        println!(
            "M={m} t={t}: bias {bias:+.5} (ideal {:+.5}), mean {mean:.5} (ideal {:.5})",
            ideal.bias, ideal.mean_error
        );
        assert!(
            (bias - ideal.bias).abs() < 5e-3,
            "M={m} t={t}: exhaustive bias {bias} vs analytic {}",
            ideal.bias
        );
        assert!(
            (mean - ideal.mean_error).abs() < 5e-3,
            "M={m} t={t}: exhaustive mean {mean} vs analytic {}",
            ideal.mean_error
        );
    }
}

#[test]
fn per_segment_mean_error_is_zero_within_quantization() {
    // The paper's §III construction: within each (i, j) segment pair the
    // reduction factor s_ij is chosen so the signed error integrates to
    // zero. Exhaustively average the 8-bit top interval per segment pair
    // and require ≈ 0 within the quantization budget — and strictly
    // tighter than Mitchell's per-segment bias, which the factors exist
    // to cancel.
    let mitchell = Calm::new(16);
    let m_stats = mitchell_stats();
    for (m, t) in DESIGNS {
        let r = realm(m, t);
        let seg_shift = 7 - m.trailing_zeros(); // 7-bit fraction → index
        let cells = (m * m) as usize;
        let mut sums = vec![0.0f64; cells];
        let mut mitchell_sums = vec![0.0f64; cells];
        let mut counts = vec![0u32; cells];
        for a in 128..=255u64 {
            for b in 128..=255u64 {
                let i = ((a - 128) >> seg_shift) as usize;
                let j = ((b - 128) >> seg_shift) as usize;
                let cell = i * m as usize + j;
                sums[cell] += rel_error(&r, a, b).expect("nonzero");
                mitchell_sums[cell] += rel_error(&mitchell, a, b).expect("nonzero");
                counts[cell] += 1;
            }
        }
        let mut worst = 0.0f64;
        let mut mitchell_worst = 0.0f64;
        for cell in 0..cells {
            assert!(counts[cell] > 0, "M={m}: empty segment cell {cell}");
            let mean = sums[cell] / counts[cell] as f64;
            let m_mean = mitchell_sums[cell] / counts[cell] as f64;
            worst = worst.max(mean.abs());
            mitchell_worst = mitchell_worst.max(m_mean.abs());
        }
        println!(
            "M={m} t={t}: worst |segment mean| {worst:.5} (Mitchell {mitchell_worst:.5}, global bias {:+.5})",
            m_stats.bias
        );
        assert!(
            worst < 8e-3,
            "M={m} t={t}: worst per-segment mean {worst} exceeds the quantization budget"
        );
        assert!(
            worst < mitchell_worst / 2.0,
            "M={m} t={t}: factors must cancel most of Mitchell's per-segment bias \
             (REALM {worst} vs Mitchell {mitchell_worst})"
        );
    }
}
