//! One conformance suite over the design registry. Every point of
//! [`specs::points`] — each `catalog::FAMILIES` entry over a width and
//! key sweep — must keep the promises of the `Multiplier` contract:
//!
//! * zero annihilates on `multiply`, `multiply_wide` and `multiply_batch`;
//! * `multiply_batch` ≡ `multiply` on all 65536 pairs of an 8-bit point,
//!   and on seeded odd-length streams plus a corner pack at every other
//!   width (and on the 8-bit square too at the points of
//!   [`ALL_8BIT_PAIRS_AT`]);
//! * `multiply` ≡ `multiply_wide` up to 32 bits, wide ≥ clamped above,
//!   and no product past `2^(2N) − 1`;
//! * for a family with a `realm-simd` kernel, both pinned tiers ≡
//!   `multiply` on the same inputs (on a host without AVX2 the wide tier
//!   runs the scalar lanes);
//! * the canonical text parses back to the same spec and label;
//! * a batch length mismatch panics with the uniform message.
//!
//! The checks of one point are in [`paths`]. The netlist half of the
//! contract (netlist ≡ model on every 8-bit point) is the sweep in
//! `realm_synth::designs`, over the same list.

mod paths;
mod specs;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use paths::{all_8bit_pairs, assert_paths_agree, kernel};
use realm_baselines::catalog::{DesignSpec, FAMILIES};
use realm_core::multiplier::MultiplierExt;
use realm_core::rng::SplitMix64;
use realm_core::{Multiplier, RealmConfig};

use DesignSpec as D;

/// The spec list, built once per test binary.
fn points() -> &'static [(DesignSpec, Box<dyn Multiplier>)] {
    static POINTS: OnceLock<Vec<(DesignSpec, Box<dyn Multiplier>)>> = OnceLock::new();
    POINTS.get_or_init(specs::points)
}

/// Batch lengths covering every `len mod 4` remainder of the 4-lane
/// AVX2 bodies: lone remainder lanes and whole vectors.
const LENGTHS: [usize; 5] = [1, 2, 3, 4, 64];

/// Wider points that run all 65536 pairs of the 8-bit square as well,
/// where the small-operand and cross-interval paths of their kernels
/// are: the paper's 16-bit corners and the kernels' width edges.
const ALL_8BIT_PAIRS_AT: &str = "accurate@16 accurate@32 calm@16 calm@31 calm@32 \
    drum@16:k=3 drum@16:k=4 drum@16:k=6 drum@16:k=8 drum@32:k=8 \
    realm@16 realm@16:t=4 realm@16:m=8 realm@16:m=8,t=4 realm@16:m=4 realm@16:m=4,t=4 \
    realm@16:m=8,t=3 realm@16:m=4,t=9 realm@12:m=8,t=1 realm@24:m=8,t=1 realm@31:m=8,t=1 \
    scaletrim@16:t=4 scaletrim@16:t=6 ilm@16:i=1 ilm@16:i=2 ilm@32:i=2";

/// A long run through a kernel's vector loop. A point without a kernel
/// runs `multiply` per lane, where the batch length changes nothing.
const LONG: usize = 4099;

/// Seeded batches of each [`LENGTHS`] length, then one of [`LONG`] for
/// a point with a vector loop. Each operand is masked to `max` and then
/// to a random number of bits, so every leading-one position turns up
/// at every width.
fn streams(max: u64, vector_loop: bool, seed: u64) -> Vec<Vec<(u64, u64)>> {
    let bits = 64 - max.leading_zeros();
    let mut rng = SplitMix64::new(seed);
    let mut operand = move || rng.next_u64() & (max >> rng.below(u64::from(bits)));
    let long = vector_loop.then_some(LONG);
    LENGTHS
        .into_iter()
        .chain(long)
        .map(|len| (0..len).map(|_| (operand(), operand())).collect())
        .collect()
}

/// The inputs a point runs: all 65536 pairs at 8 bits; elsewhere the
/// streams plus one batch of every pair of the corners 0, 1, 2^(W−1) and
/// max, packed into the same vectors.
fn inputs(model: &dyn Multiplier, vector_loop: bool, seed: u64) -> Vec<Vec<(u64, u64)>> {
    if model.width() == 8 {
        return vec![all_8bit_pairs()];
    }
    let corners = [0, 1, 1 << (model.width() - 1), model.max_operand()];
    let mut batches = streams(model.max_operand(), vector_loop, seed);
    batches.push(
        corners
            .iter()
            .flat_map(|&a| corners.map(|b| (a, b)))
            .collect(),
    );
    batches
}

#[test]
fn the_spec_list_names_every_family() {
    let names: Vec<String> = points().iter().map(|(spec, _)| spec.to_string()).collect();
    for family in FAMILIES {
        let prefix = format!("{}@", family.name);
        assert!(
            names.iter().any(|name| name.starts_with(&prefix)),
            "no point of '{}' in the spec list",
            family.name
        );
    }
    let at8 = points().iter().filter(|(_, m)| m.width() == 8).count();
    let kernels = points().iter().filter(|(s, _)| kernel(s).is_some()).count();
    assert_eq!(
        (points().len(), at8, kernels),
        (1746, 92, 504),
        "the spec list changed"
    );
}

/// Every name × the width list × the same values for each key: every
/// text either fails to parse, fails to build or builds a design that
/// multiplies, and none panics. The texts listed at the end used to
/// reach a constructor assert.
#[test]
fn the_grammar_is_total_over_a_width_and_key_sweep() {
    let mut built = 0;
    for text in specs::sweep_texts() {
        let Ok(Ok(design)) = DesignSpec::parse(&text).map(|spec| spec.build()) else {
            continue;
        };
        let max = design.max_operand();
        let _ = (design.multiply(1, 1), design.multiply_wide(max, max));
        built += 1;
    }
    assert!(built > 1000, "only {built} texts built");
    // The 22 texts that reached a constructor assert before `build`
    // was total, then the ALM and ESSM8 limits of the new names.
    let rejected = [
        "accurate@0",
        "accurate@65",
        "accurate@100",
        "accurate@4294967295",
        "calm@0",
        "calm@1",
        "calm@2",
        "calm@3",
        "calm@65",
        "calm@100",
        "calm@4294967295",
        "implm@0",
        "implm@1",
        "implm@2",
        "implm@3",
        "implm@33",
        "implm@48",
        "implm@63",
        "implm@64",
        "implm@65",
        "implm@100",
        "implm@4294967295",
        "alm-maa@3",
        "alm-soa@33",
        "alm-maa:m=15",
        "alm-soa@8:m=7",
        "essm8@8",
        "essm8@32",
    ];
    for text in rejected {
        let spec = DesignSpec::parse(text).unwrap_or_else(|e| panic!("{text}: {e}"));
        assert!(spec.build().is_err(), "{text} must be rejected");
    }
}

/// `QuantNet::accuracy` takes a pure design's products from a table, so
/// a family that stops being pure would silently lose that path.
#[test]
fn every_registry_design_is_pure() {
    for (spec, model) in points() {
        assert!(model.is_pure(), "{spec} must be pure");
    }
}

#[test]
fn every_spec_round_trips_through_its_text_with_the_same_label() {
    for (spec, model) in points() {
        let text = spec.to_string();
        assert_eq!(DesignSpec::parse(&text), Ok(*spec), "{text}");
        let label = spec.build().map(|design| design.label());
        assert_eq!(label, Ok(model.label()), "{text}");
    }
}

#[test]
fn zero_annihilates_on_every_path() {
    for (spec, model) in points() {
        let half = 1 << (model.width() - 1);
        let pairs: Vec<(u64, u64)> = [0, 1, half, model.max_operand()]
            .into_iter()
            .flat_map(|x| [(0, x), (x, 0)])
            .collect();
        for &(a, b) in &pairs {
            assert_eq!(model.multiply(a, b), 0, "{spec}: multiply({a}, {b})");
            assert_eq!(
                model.multiply_wide(a, b),
                0,
                "{spec}: multiply_wide({a}, {b})"
            );
        }
        let mut out = vec![1; pairs.len()];
        model.multiply_batch(&pairs, &mut out);
        assert_eq!(out, vec![0; pairs.len()], "{spec}: multiply_batch");
    }
}

#[test]
fn every_path_matches_multiply_on_all_8bit_pairs() {
    for (spec, model) in points().iter().filter(|(_, m)| m.width() == 8) {
        let run = kernel(spec);
        let batches = inputs(model.as_ref(), run.is_some(), 0);
        assert_paths_agree(spec, model.as_ref(), run.as_ref(), &batches);
    }
}

#[test]
fn every_path_matches_multiply_on_all_8bit_pairs_at_wider_points() {
    let texts: Vec<&str> = ALL_8BIT_PAIRS_AT.split_whitespace().collect();
    let specs: Vec<DesignSpec> = texts
        .iter()
        .map(|t| DesignSpec::parse(t).unwrap())
        .collect();
    let wider: Vec<_> = points().iter().filter(|(s, _)| specs.contains(s)).collect();
    assert_eq!(wider.len(), texts.len(), "a text of the table is no point");
    for (spec, model) in wider {
        let run = kernel(spec);
        assert_paths_agree(spec, model.as_ref(), run.as_ref(), &[all_8bit_pairs()]);
    }
}

#[test]
fn every_path_matches_multiply_on_streams_at_other_widths() {
    for (i, (spec, model)) in points().iter().enumerate() {
        if model.width() != 8 {
            let run = kernel(spec);
            let batches = inputs(model.as_ref(), run.is_some(), i as u64);
            assert_paths_agree(spec, model.as_ref(), run.as_ref(), &batches);
        }
    }
}

/// REALM masks operands to its port width, so any u64 is in its
/// contract: streams of 16-, 32- and 64-bit operands at every width, the
/// other keys at their defaults (the mask depends on the width alone).
#[test]
fn realm_paths_match_multiply_on_wide_operand_streams() {
    for (i, (spec, model)) in points().iter().enumerate() {
        let defaults = RealmConfig {
            width: model.width(),
            ..RealmConfig::default()
        };
        if *spec == D::Realm(defaults) {
            let run = kernel(spec);
            for bits in [16u32, 32, 64] {
                let seed = (i as u64) << 8 | u64::from(bits);
                let batches = streams(u64::MAX >> (64 - bits), run.is_some(), seed);
                assert_paths_agree(spec, model.as_ref(), run.as_ref(), &batches);
            }
        }
    }
}

#[test]
fn a_batch_length_mismatch_panics_with_the_uniform_message() {
    for (spec, model) in points() {
        let run = || model.multiply_batch(&[(1, 2), (3, 4), (5, 6)], &mut [0; 2]);
        let Err(payload) = catch_unwind(AssertUnwindSafe(run)) else {
            panic!("{spec}: a batch length mismatch must panic");
        };
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert!(
            message.contains("multiply_batch needs one output slot per operand pair"),
            "{spec}: {message}"
        );
    }
}
