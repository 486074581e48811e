//! Exhaustive batch ≡ scalar differential tests for cALM and DRUM.
//!
//! Coverage is the full 8-bit operand square — every `(a, b)` with
//! `a, b ∈ 0..=255` — run both through the design's native width-8
//! configuration and through the paper's 16-bit configuration (where the
//! 8-bit square exercises the small-operand and cross-interval paths),
//! with the ISA tier of each `realm-simd` kernel pinned per call —
//! scalar and AVX2 — plus a deterministic random-stream pass over odd
//! batch lengths for the remainder lanes. The checks are the
//! conformance suite's (`conformance/paths.rs`), which runs them at every
//! registry point; these are the points and inputs this file names.

#[path = "conformance/paths.rs"]
mod paths;

use paths::{all_8bit_pairs, assert_paths_agree, kernel};
use realm_baselines::catalog::DesignSpec;
use realm_baselines::Drum;
use realm_core::rng::SplitMix64;
use realm_core::Multiplier;

/// Asserts `spec`'s `multiply_batch` and, when `tiers`, both pinned
/// tiers of its kernel ≡ `multiply` on `batches`.
fn assert_agree(spec: DesignSpec, tiers: bool, batches: &[Vec<(u64, u64)>]) {
    let model = spec.build().expect("valid config");
    let run = tiers.then(|| kernel(&spec).expect("the point has a kernel"));
    assert_paths_agree(&spec, model.as_ref(), run.as_ref(), batches);
}

#[test]
fn calm_batch_is_bit_identical_to_scalar_on_every_8bit_pair() {
    for w in [8u32, 16, 32] {
        assert_agree(DesignSpec::Calm { w }, false, &[all_8bit_pairs()]);
    }
}

#[test]
fn drum_batch_is_bit_identical_to_scalar_on_every_8bit_pair() {
    // The paper sweeps k ∈ {4, …, 8} at N = 16; include the native 8-bit
    // configuration and the minimum legal fragment too.
    let pairs = [all_8bit_pairs()];
    for k in [3u32, 4, 6, 8] {
        assert_agree(DesignSpec::Drum { w: 8, k }, false, &pairs);
        assert_agree(DesignSpec::Drum { w: 16, k }, false, &pairs);
    }
    assert_agree(DesignSpec::Drum { w: 32, k: 8 }, false, &pairs);
}

#[test]
fn calm_tiers_agree_on_every_8bit_pair() {
    for w in [8u32, 16, 31] {
        assert_agree(DesignSpec::Calm { w }, true, &[all_8bit_pairs()]);
    }
}

#[test]
fn drum_tiers_agree_on_every_8bit_pair() {
    let pairs = [all_8bit_pairs()];
    for (w, k) in [(8u32, 3u32), (8, 6), (16, 4), (16, 6), (16, 8), (32, 8)] {
        assert_agree(DesignSpec::Drum { w, k }, true, &pairs);
    }
}

#[test]
fn proptest_baseline_tiers_agree_on_random_streams_and_odd_lengths() {
    // Odd lengths cover every remainder-lane count (len mod 4 ∈
    // {0,1,2,3}); operands stay in-contract for each design's width.
    let mut rng = SplitMix64::new(0xBA5E_11E5);
    let batches: Vec<Vec<(u64, u64)>> = [1usize, 2, 3, 5, 63, 1021, 4099]
        .into_iter()
        .map(|len| {
            (0..len)
                .map(|_| (rng.next_u64() & 0xFFFF, rng.next_u64() & 0xFFFF))
                .collect()
        })
        .collect();
    assert_agree(DesignSpec::Calm { w: 16 }, true, &batches);
    assert_agree(DesignSpec::Drum { w: 16, k: 6 }, true, &batches);
}

#[test]
#[should_panic(expected = "one output slot per operand pair")]
fn drum_batch_rejects_length_mismatch() {
    let drum = Drum::new(16, 6).expect("valid config");
    let mut out = [0u64; 2];
    drum.multiply_batch(&[(1, 2), (3, 4), (5, 6)], &mut out);
}
