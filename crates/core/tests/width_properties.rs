//! Property suite for the width-generic REALM core's `(width, M, t)` grid
//! at `width ∈ {8, 16, 24, 32, 64}` and `t ∈ {0, 4, 9}`: its valid set,
//! the error kinds of invalid combinations, and the error envelope at
//! every width. Batch ≡ scalar, the zero/saturation packs and the register
//! clamp run at every grid point in realm-baselines' conformance suite.

use realm_core::multiplier::MultiplierExt;
use realm_core::rng::SplitMix64;
use realm_core::{ConfigError, Multiplier, Realm, RealmConfig};

/// Every valid `(width, t)` point of the grid at `M = 16`, `q = 6`.
/// Validity is the documented constraint `f − t ≥ log2 M` with
/// `f = width − 1`; the constructor must agree, rejecting the rest as
/// `TruncationTooLarge`.
fn grid() -> Vec<Realm> {
    let mut designs = Vec::new();
    for width in [8, 16, 24, 32, 64] {
        for t in [0, 4, 9] {
            let valid = width - 1 > t && (width - 1) - t >= 4; // log2(16) = 4
            let built = Realm::new(RealmConfig::new(width, 16, t, 6));
            assert_eq!(built.is_ok(), valid, "w={width} t={t}: {built:?}");
            match built {
                Ok(realm) => designs.push(realm),
                Err(e) => assert!(matches!(e, ConfigError::TruncationTooLarge { .. })),
            }
        }
    }
    designs
}

#[test]
fn sweep_grid_has_the_expected_valid_points() {
    // w=8 only admits t=0 (f=7, 4 index bits); every other width takes
    // all three truncations: 1 + 4 × 3 = 13 designs.
    let widths: Vec<u32> = grid().iter().map(Multiplier::width).collect();
    assert_eq!(widths, [8, 16, 16, 16, 24, 24, 24, 32, 32, 32, 64, 64, 64]);
}

#[test]
fn invalid_combinations_are_rejected_not_mangled() {
    let error = |w, m, t| Realm::new(RealmConfig::new(w, m, t, 6)).err();
    // t ≥ f is impossible regardless of M; at t = 4, f − t < log2 M leaves
    // fraction bits for t but not for the LUT index.
    for t in [9, 4] {
        let err = error(8, 16, t);
        assert!(matches!(err, Some(ConfigError::TruncationTooLarge { .. })));
    }
    // The same t is fine once M shrinks the index requirement.
    assert!(error(8, 4, 4).is_none());
    // Width bounds are their own error, checked before everything else.
    for width in [0, 3, 65, 128] {
        let err = error(width, 16, 0);
        assert!(matches!(err, Some(ConfigError::UnsupportedWidth { .. })));
    }
}

#[test]
fn error_envelope_holds_at_every_width() {
    // REALM's defining guarantee is width-uniform: the approximation
    // stays within Mitchell's one-sided envelope, improved by the LUT —
    // relative error within (−11.2 %, +11.2 %) everywhere on the grid.
    for design in grid() {
        let (max, label) = (design.max_operand(), design.label());
        let mut rng = SplitMix64::new(0xE22 ^ u64::from(design.width()));
        for _ in 0..512 {
            let (a, b) = (1 + rng.next_u64() % max, 1 + rng.next_u64() % max);
            let exact = (a as u128 * b as u128) as f64;
            let rel = (design.multiply_wide(a, b) as f64 - exact) / exact;
            assert!(rel.abs() < 0.112, "{label}: {rel} at a={a} b={b}");
        }
    }
}
