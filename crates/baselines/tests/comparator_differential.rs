//! Exhaustive 8-bit differential suite for the post-paper comparators:
//! every one of the 65536 `(a, b)` pairs is pushed through scaleTRIM and
//! ILM and checked bit-for-bit against an independent `u128` reference
//! model written straight from each paper's datapath description (no
//! shared helpers with the implementations under test). On top of
//! bit-identity, the suite pins each configuration's error envelope —
//! NMED and peak relative error — to the published bounds. Batch ≡
//! scalar ≡ both pinned SIMD tiers at these points is the conformance
//! suite's (`conformance/`).

use realm_baselines::{Ilm, ScaleTrim};
use realm_core::Multiplier;

/// Reference scaleTRIM: leading-one decomposition, top-`t` cross term
/// `4·x_a·y_a`, optional `2(x_a + y_a) + 1` compensation, two-stage
/// flooring (correction aligned into `2^-f` units, then the antilog
/// shift), saturated to the `2N`-bit product ceiling.
fn scaletrim_ref(a: u64, b: u64, width: u32, t: u32, comp: bool) -> u128 {
    if a == 0 || b == 0 {
        return 0;
    }
    let f = width - 1;
    let ka = 63 - a.leading_zeros();
    let kb = 63 - b.leading_zeros();
    let fx = (a - (1u64 << ka)) << (f - ka);
    let fy = (b - (1u64 << kb)) << (f - kb);
    let xa = fx >> (f - t);
    let ya = fy >> (f - t);
    let pp = xa * ya;
    let corr = if comp {
        (pp << 2) + ((xa + ya) << 1) + 1
    } else {
        pp << 2
    };
    let corr_units = 2 * t + 2; // corr is in units of 2^-(2t+2)
    let corr_f = if f >= corr_units {
        (corr as u128) << (f - corr_units)
    } else {
        (corr as u128) >> (corr_units - f)
    };
    let mantissa = (1u128 << f) + fx as u128 + fy as u128 + corr_f;
    let shift = (ka + kb) as i64 - f as i64;
    let value = if shift >= 0 {
        mantissa << shift
    } else {
        mantissa >> -shift
    };
    value.min((1u128 << (2 * width)) - 1)
}

/// Reference ILM, written from the `RatkoFri/Bfloat16` C model: one
/// leading-one decomposition per operand, `prod0 = A·2^kb + B'·2^ka`,
/// and a second basic block over the residues when both are nonzero.
fn ilm_ref(a: u64, b: u64, iterations: u32) -> u128 {
    if a == 0 || b == 0 {
        return 0;
    }
    let ka = 63 - a.leading_zeros();
    let kb = 63 - b.leading_zeros();
    let res_a = a ^ (1 << ka);
    let res_b = b ^ (1 << kb);
    let mut p = ((a as u128) << kb) + ((res_b as u128) << ka);
    if iterations == 2 && res_a != 0 && res_b != 0 {
        let ka2 = 63 - res_a.leading_zeros();
        let kb2 = 63 - res_b.leading_zeros();
        let res2_b = res_b ^ (1 << kb2);
        p += ((res_a as u128) << kb2) + ((res2_b as u128) << ka2);
    }
    p
}

/// NMED (mean error distance over the max product) and peak relative
/// error of `design` over the exhaustive 8-bit square, asserting
/// bit-identity against `reference` along the way.
fn exhaustive_8bit_envelope(
    label: &str,
    design: &dyn Multiplier,
    reference: impl Fn(u64, u64) -> u128,
) -> (f64, f64) {
    let mut sum_ed = 0.0;
    let mut peak = 0.0f64;
    for (a, b) in (0..=255u64).flat_map(|a| (0..=255u64).map(move |b| (a, b))) {
        let want = reference(a, b);
        assert_eq!(
            design.multiply_wide(a, b),
            want,
            "{label}: implementation and reference model disagree at a={a} b={b}"
        );
        assert_eq!(
            design.multiply(a, b) as u128,
            want,
            "{label}: register path diverges from wide path at a={a} b={b}"
        );
        let exact = a * b;
        let distance = (want as f64 - exact as f64).abs();
        sum_ed += distance;
        if exact != 0 {
            peak = peak.max(distance / exact as f64);
        }
    }
    (sum_ed / 65536.0 / (255.0 * 255.0), peak)
}

#[test]
fn scaletrim_matches_reference_on_every_8bit_pair_with_bounded_error() {
    // (t, c) → NMED / peak-relative-error ceilings, pinned just above
    // the measured envelope so a datapath regression of even one ULP
    // class trips them.
    let cases = [
        (2u32, true, 0.0055, 0.07),
        (2, false, 0.0120, 0.11),
        (4, true, 0.0014, 0.016),
        (4, false, 0.0030, 0.028),
        (6, true, 0.0004, 0.0065),
        (6, false, 0.0008, 0.0080),
        (7, true, 0.0003, 0.0060),
    ];
    let mut last_compensated_nmed = f64::INFINITY;
    for (t, c, nmed_max, peak_max) in cases {
        let design = ScaleTrim::new(8, t, c).expect("valid config");
        let label = format!("scaleTRIM t={t} c={c}");
        let (nmed, peak) =
            exhaustive_8bit_envelope(&label, &design, |a, b| scaletrim_ref(a, b, 8, t, c));
        assert!(nmed < nmed_max, "{label}: NMED {nmed} >= {nmed_max}");
        assert!(peak < peak_max, "{label}: peak {peak} >= {peak_max}");
        // Every configuration beats Mitchell's one-sided 11.1 % corner.
        assert!(peak < 0.111, "{label}: peak {peak} worse than Mitchell");
        if c {
            assert!(
                nmed < last_compensated_nmed,
                "{label}: NMED must shrink as t grows"
            );
            last_compensated_nmed = nmed;
        }
    }
}

#[test]
fn ilm_matches_reference_on_every_8bit_pair_with_bounded_error() {
    // The published envelopes: one basic block stays under 25 % peak
    // relative error, two under 6.25 % (each iteration squares the
    // worst-case residue fraction).
    for (iterations, nmed_max, peak_max) in [(1u32, 0.028, 0.25), (2, 0.0030, 0.0625)] {
        let design = Ilm::new(8, iterations).expect("valid config");
        let label = format!("ILM i={iterations}");
        let (nmed, peak) =
            exhaustive_8bit_envelope(&label, &design, |a, b| ilm_ref(a, b, iterations));
        assert!(nmed < nmed_max, "{label}: NMED {nmed} >= {nmed_max}");
        assert!(peak < peak_max, "{label}: peak {peak} >= {peak_max}");
    }
}
