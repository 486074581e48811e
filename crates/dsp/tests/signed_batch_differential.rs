//! Exhaustive differential suite for the batched signed primitive:
//! `FixedBatch` must match scalar `fixed_mul_signed` lane for lane on
//! **all 65536 signed 8-bit pairs** per design, plus SplitMix64
//! property packs over odd batch lengths and zero/saturation corners.
//!
//! CI runs this suite twice — once with the wide kernel tier active and
//! once under `REALM_FORCE_SCALAR=1` — so both dispatch paths are pinned
//! against the same scalar reference.

use realm_baselines::{Calm, Drum, Ilm, ScaleTrim};
use realm_core::rng::SplitMix64;
use realm_core::signed::{fixed_mul_signed, FixedBatch};
use realm_core::{Accurate, Multiplier, Realm, RealmConfig};

fn designs_8bit() -> Vec<(&'static str, Box<dyn Multiplier>)> {
    vec![
        (
            "accurate",
            Box::new(Accurate::new(8)) as Box<dyn Multiplier>,
        ),
        (
            "realm8m8t0",
            Box::new(Realm::new(RealmConfig::new(8, 8, 0, 6)).expect("8-bit realm")),
        ),
        (
            "realm8m4t4",
            Box::new(Realm::new(RealmConfig::new(8, 4, 4, 6)).expect("8-bit realm")),
        ),
        ("calm", Box::new(Calm::new(8))),
        ("drum4", Box::new(Drum::new(8, 4).expect("drum"))),
        (
            "scaletrim3",
            Box::new(ScaleTrim::new(8, 3, true).expect("scaletrim")),
        ),
        ("ilm2", Box::new(Ilm::new(8, 2).expect("ilm"))),
    ]
}

/// Batch ≡ scalar on every signed 8-bit pair (including both `-128`
/// corners), per design, at three shifts.
#[test]
fn batch_matches_scalar_on_all_signed_8bit_pairs() {
    for (name, m) in &designs_8bit() {
        let mut pairs = Vec::with_capacity(1 << 16);
        for a in i8::MIN..=i8::MAX {
            for b in i8::MIN..=i8::MAX {
                pairs.push((a as i64, b as i64));
            }
        }
        let mut batch = FixedBatch::new();
        for shift in [0u32, 2, 3] {
            let mut out = vec![0i64; pairs.len()];
            batch.multiply(m.as_ref(), &pairs, shift, &mut out);
            for (&(a, b), &got) in pairs.iter().zip(&out) {
                let want = fixed_mul_signed(m.as_ref(), a, b, shift);
                assert_eq!(got, want, "{name}: {a} × {b} >> {shift}");
            }
        }
    }
}

/// Dot products equal the scalar accumulation on random signed streams,
/// at odd/awkward lengths that straddle any SIMD lane width.
#[test]
fn dot_matches_scalar_accumulation_at_odd_lengths() {
    let mut rng = SplitMix64::new(0x0DD5);
    for (name, m) in &designs_8bit() {
        for len in [1usize, 2, 3, 5, 7, 13, 31, 33, 63, 65, 127, 129] {
            let a: Vec<i64> = (0..len)
                .map(|_| rng.range_inclusive(0, 254) as i64 - 127)
                .collect();
            let b: Vec<i64> = (0..len)
                .map(|_| rng.range_inclusive(0, 254) as i64 - 127)
                .collect();
            let scalar: i64 = a
                .iter()
                .zip(&b)
                .map(|(&x, &y)| fixed_mul_signed(m.as_ref(), x, y, 0))
                .sum();
            let mut batch = FixedBatch::new();
            let a32: Vec<i32> = a.iter().map(|&v| v as i32).collect();
            let b32: Vec<i32> = b.iter().map(|&v| v as i32).collect();
            assert_eq!(
                batch.dot(m.as_ref(), &a32, &b32),
                scalar,
                "{name} i32 len {len}"
            );
        }
    }
}

/// Zero-heavy and saturation-heavy packs: lanes full of 0, ±max and the
/// asymmetric `i64::MIN`, mixed with random lanes, at odd lengths.
#[test]
fn zero_and_saturation_packs_stay_lane_identical() {
    let mut rng = SplitMix64::new(0x5A7);
    let corners = [0i64, 1, -1, 127, -127, -128, i64::MAX, i64::MIN];
    let m = Accurate::new(64);
    for len in [3usize, 9, 17, 41] {
        let pairs: Vec<(i64, i64)> = (0..len)
            .map(|_| {
                let pick = |rng: &mut SplitMix64| {
                    if rng.chance(0.7) {
                        corners[rng.index(corners.len())]
                    } else {
                        rng.range_inclusive(0, u32::MAX as u64) as i64
                            - rng.range_inclusive(0, u32::MAX as u64) as i64
                    }
                };
                (pick(&mut rng), pick(&mut rng))
            })
            .collect();
        for shift in [0u32, 1, 17] {
            let mut out = vec![0i64; len];
            FixedBatch::new().multiply(&m, &pairs, shift, &mut out);
            for (&(a, b), &got) in pairs.iter().zip(&out) {
                assert_eq!(
                    got,
                    fixed_mul_signed(&m, a, b, shift),
                    "{a} × {b} >> {shift}"
                );
            }
        }
    }
}

/// Zero-length batches and dots are legal no-ops.
#[test]
fn empty_batches_are_no_ops() {
    let m = Accurate::new(16);
    let mut out: [i64; 0] = [];
    FixedBatch::new().multiply(&m, &[], 0, &mut out);
    assert_eq!(FixedBatch::new().dot(&m, &[], &[]), 0);
}
