//! SIMD ≡ scalar differential proof for the Accurate and REALM batch
//! kernels.
//!
//! The bit-identicality contract (DESIGN.md §14): the AVX2 tier must
//! reproduce the scalar tier — and therefore the scalar `multiply`
//! datapath — bit for bit, on every operand pair, at every batch
//! length. These tests pin both tiers explicitly through the kernels'
//! `run(tier, ...)` API, so they prove the contract even on hosts where
//! `active_tier()` would have picked AVX2 anyway, and degrade to
//! scalar-vs-scalar (still exercising remainder-lane code) on machines
//! without AVX2.
//!
//! Coverage: the full 8-bit operand square — all 65536 pairs — for
//! Accurate and for REALM across the paper's (M, t) corners and at
//! several widths, seeded streams over odd batch lengths hitting the
//! remainder lanes (16/32/64-bit operands for REALM, which masks them to
//! its port width; in-width operands for Accurate), and REALM's zero and
//! saturation corners packed into the same vectors. The checks are the
//! conformance suite's (`conformance/paths.rs`), which runs them at
//! every registry point; these are the points and inputs this file
//! names.

#[path = "conformance/paths.rs"]
mod paths;

use paths::{all_8bit_pairs, assert_paths_agree, kernel};
use realm_baselines::catalog::DesignSpec;
use realm_core::rng::SplitMix64;
use realm_core::simd::{self, Tier};
use realm_core::RealmConfig;

/// Asserts `multiply_batch` and both pinned tiers of `spec`'s kernel ≡
/// `multiply` on `batches`.
fn assert_tiers_agree(spec: DesignSpec, batches: &[Vec<(u64, u64)>]) {
    let model = spec.build().expect("valid config");
    let run = kernel(&spec).expect("the point has a kernel");
    assert_paths_agree(&spec, model.as_ref(), Some(&run), batches);
}

#[test]
fn accurate_tiers_agree_on_every_8bit_pair() {
    for w in [8u32, 16, 32] {
        assert_tiers_agree(DesignSpec::Accurate { w }, &[all_8bit_pairs()]);
    }
}

#[test]
fn realm_tiers_agree_on_every_8bit_pair_across_design_corners() {
    // The paper's (M, t) corners at N = 16: densest LUT, mid, maximum
    // truncation, and a truncated dense-LUT point.
    for (m, t) in [(16u32, 0u32), (8, 3), (4, 9), (16, 4)] {
        let spec = DesignSpec::Realm(RealmConfig::n16(m, t));
        assert_tiers_agree(spec, &[all_8bit_pairs()]);
    }
}

#[test]
fn realm_tiers_agree_on_every_8bit_pair_at_other_widths() {
    for width in [8u32, 12, 24, 31] {
        let spec = DesignSpec::Realm(RealmConfig::new(width, 8, 1, 6));
        assert_tiers_agree(spec, &[all_8bit_pairs()]);
    }
}

/// Deterministic proptest: random operand streams at several
/// bit-widths, including full-range u64 (REALM masks operands to its
/// input ports, so every u64 is in-contract), across odd batch lengths
/// chosen to cover every remainder-lane count (len mod 4 ∈ {0,1,2,3}).
#[test]
fn proptest_realm_tiers_agree_on_random_wide_streams() {
    let mut rng = SplitMix64::new(0x5EED_51AD);
    for (case, operand_bits) in [(0u64, 16u32), (1, 32), (2, 64)] {
        let mask = u64::MAX >> (64 - operand_bits);
        let batches: Vec<Vec<(u64, u64)>> = [1usize, 2, 3, 4, 5, 7, 64, 1021, 4096]
            .into_iter()
            .map(|len| {
                let mut stream = SplitMix64::stream(rng.next_u64(), case);
                (0..len)
                    .map(|_| (stream.next_u64() & mask, stream.next_u64() & mask))
                    .collect()
            })
            .collect();
        assert_tiers_agree(DesignSpec::Realm(RealmConfig::n16(16, 0)), &batches);
    }
}

#[test]
fn proptest_accurate_tiers_agree_on_random_streams_and_odd_lengths() {
    let mut rng = SplitMix64::new(0xACC0_0001);
    for w in [16u32, 31, 32] {
        let mask = (1u64 << w) - 1;
        let batches: Vec<Vec<(u64, u64)>> = [1usize, 3, 5, 17, 255, 1000, 4097]
            .into_iter()
            .map(|len| {
                (0..len)
                    .map(|_| (rng.next_u64() & mask, rng.next_u64() & mask))
                    .collect()
            })
            .collect();
        assert_tiers_agree(DesignSpec::Accurate { w }, &batches);
    }
}

#[test]
fn default_batch_path_uses_the_active_tier_and_matches_scalar() {
    // End-to-end: the trait-level multiply_batch (whatever tier the
    // process dispatches to) must match the scalar datapath.
    let spec = DesignSpec::Realm(RealmConfig::n16(8, 3));
    let model = spec.build().expect("paper design point");
    assert_paths_agree(&spec, model.as_ref(), None, &[all_8bit_pairs()]);
    // And the dispatch is reportable: the process-wide tier is one of
    // the two named tiers, sticky across calls.
    let tier = simd::active_tier();
    assert!(matches!(tier, Tier::Scalar | Tier::Avx2));
    assert_eq!(tier, simd::active_tier());
}

#[test]
fn zero_and_saturation_corners_agree_on_both_tiers() {
    // The corners the vector code handles specially: zero lanes
    // (re-pointed at 1 then masked), full-scale saturation, and the
    // 1×1 floor case — packed densely so they land in the same vector.
    let max = 65_535u64;
    let pairs = vec![
        (0, 0),
        (0, max),
        (max, 0),
        (1, 1),
        (max, max),
        (0, 1),
        (1, max),
        (32_768, 32_768),
        (0, 0),
        (max, max),
        (2, 2),
    ];
    assert_tiers_agree(DesignSpec::Realm(RealmConfig::n16(16, 0)), &[pairs]);
}
