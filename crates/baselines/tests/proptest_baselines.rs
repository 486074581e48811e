//! Property-style tests on the baseline multipliers' published error
//! signatures: one-sidedness, bounds, exactness regions and symmetry.
//!
//! Deterministic randomized cases from [`realm_core::rng::SplitMix64`];
//! no external property-testing dependency.

use realm_baselines::adders::{approx_add, LowerPart};
use realm_baselines::catalog::{table1, DesignSpec};
use realm_baselines::{Alm, AlmAdder, Am, AmRecovery, Calm, Drum, Essm8, ImpLm, IntAlp, Mbm, Ssm};
use realm_core::multiplier::MultiplierExt;
use realm_core::rng::SplitMix64;
use realm_core::Multiplier;

const CASES: u64 = 512;

fn rng(salt: u64) -> SplitMix64 {
    SplitMix64::new(0xBA5E ^ salt)
}

fn pair(rng: &mut SplitMix64, lo: u64) -> (u64, u64) {
    (
        rng.range_inclusive(lo, u16::MAX as u64),
        rng.range_inclusive(lo, u16::MAX as u64),
    )
}

#[test]
fn calm_is_one_sided_and_bounded() {
    let mut rng = rng(1);
    let calm = Calm::new(16);
    for _ in 0..CASES {
        let (a, b) = pair(&mut rng, 1);
        let e = calm.relative_error(a, b).expect("nonzero");
        assert!(e <= 0.0);
        assert!(e >= -1.0 / 9.0 - 1e-9);
    }
}

#[test]
fn mbm_error_within_published_peaks() {
    let mut rng = rng(2);
    // Table I: −7.64 % / +7.81 % at t = 0 (tiny margin for flooring).
    let mbm = Mbm::new(16, 0).expect("valid");
    for _ in 0..CASES {
        let (a, b) = pair(&mut rng, 1);
        let e = mbm.relative_error(a, b).expect("nonzero");
        assert!(e > -0.0790 && e < 0.0790, "error {e}");
    }
}

#[test]
fn implm_double_sided_bound() {
    let mut rng = rng(3);
    // Table I: ±11.11 %.
    let implm = ImpLm::new(16);
    for _ in 0..CASES {
        let (a, b) = pair(&mut rng, 2);
        let e = implm.relative_error(a, b).expect("nonzero");
        assert!(e.abs() <= 0.1112, "error {e}");
    }
}

#[test]
fn drum_small_operands_exact() {
    let mut rng = rng(4);
    let drum = Drum::new(16, 8).expect("valid");
    for _ in 0..CASES {
        let a = rng.below(256);
        let b = rng.below(256);
        assert_eq!(drum.multiply(a, b), a * b);
    }
}

#[test]
fn drum_error_bounded_by_fragment() {
    let mut rng = rng(5);
    // Per-operand error < 2^-(k−1), so the product error is below
    // 1 − (1 − 2^-(k−1))² ≈ 2^-(k−2).
    let drums: Vec<(u32, Drum)> = (4..=8)
        .map(|k| (k, Drum::new(16, k).expect("valid")))
        .collect();
    for _ in 0..CASES {
        let (a, b) = pair(&mut rng, 1);
        let (k, drum) = &drums[rng.index(drums.len())];
        let e = drum.relative_error(a, b).expect("nonzero");
        let bound = 1.0 / (1u64 << (k - 2)) as f64;
        assert!(e.abs() < bound, "k={k}: error {e}");
    }
}

#[test]
fn ssm_and_essm_never_overestimate() {
    let mut rng = rng(6);
    let ssm = Ssm::new(16, 8).expect("valid");
    let essm = Essm8::new();
    for _ in 0..CASES {
        let (a, b) = pair(&mut rng, 1);
        for design in [&ssm as &dyn Multiplier, &essm] {
            assert!(design.multiply(a, b) <= a * b, "{}", design.label());
        }
    }
}

#[test]
fn am_never_overestimates() {
    let mut rng = rng(7);
    for _ in 0..CASES {
        let (a, b) = pair(&mut rng, 1);
        let nb = rng.below(33) as u32;
        for recovery in [AmRecovery::Or, AmRecovery::Sum] {
            let am = Am::new(16, recovery, nb).expect("valid");
            assert!(am.multiply(a, b) <= a * b);
        }
    }
}

#[test]
fn am_full_recovery_sum_is_exact() {
    let mut rng = rng(8);
    // With every product column recovered and exact summation, the
    // design degenerates to an exact multiplier.
    let am = Am::new(16, AmRecovery::Sum, 32).expect("valid");
    for _ in 0..CASES {
        let (a, b) = pair(&mut rng, 1);
        assert_eq!(am.multiply(a, b), a * b);
    }
}

#[test]
fn intalp_l1_never_underestimates_much() {
    let mut rng = rng(9);
    // One-sided error in [0, +12.5 %]; output flooring can nibble a
    // few ULPs below the exact product for tiny outputs.
    let alp = IntAlp::new(16, 1).expect("valid");
    for _ in 0..CASES {
        let (a, b) = pair(&mut rng, 1);
        let p = alp.multiply(a, b);
        let exact = a * b;
        assert!((p as f64) >= exact as f64 * 0.999 - 2.0, "{p} vs {exact}");
        assert!((p as f64) <= exact as f64 * 1.1251 + 2.0, "{p} vs {exact}");
    }
}

#[test]
fn alm_m_zero_is_calm() {
    let mut rng = rng(10);
    let alm = Alm::new(16, AlmAdder::Soa, 0);
    let calm = Calm::new(16);
    for _ in 0..CASES {
        let (a, b) = pair(&mut rng, 1);
        assert_eq!(alm.multiply(a, b), calm.multiply(a, b));
    }
}

#[test]
fn approx_adders_bounded_error() {
    let mut rng = rng(11);
    for _ in 0..CASES {
        let a = rng.below(1 << 16);
        let b = rng.below(1 << 16);
        let m = rng.range_inclusive(1, 11) as u32;
        for scheme in [LowerPart::Or, LowerPart::SetOne] {
            let approx = approx_add(a, b, m, scheme) as i128;
            let exact = (a + b) as i128;
            assert!((approx - exact).abs() < (1 << m), "{scheme:?} m={m}");
        }
    }
}

#[test]
fn all_baselines_are_commutative() {
    let mut rng = rng(12);
    // Table I's paper baselines: every row but REALM and the post-paper
    // comparators.
    let designs: Vec<_> = table1()
        .iter()
        .filter(|spec| {
            !matches!(
                spec,
                DesignSpec::Realm(_) | DesignSpec::ScaleTrim { .. } | DesignSpec::Ilm { .. }
            )
        })
        .map(|spec| spec.build().expect("paper design point"))
        .collect();
    assert_eq!(designs.len(), 35);
    for _ in 0..64 {
        let (a, b) = pair(&mut rng, 1);
        for design in &designs {
            assert_eq!(
                design.multiply(a, b),
                design.multiply(b, a),
                "{} not commutative",
                design.label()
            );
        }
    }
}
