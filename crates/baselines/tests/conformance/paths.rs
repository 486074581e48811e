//! The conformance checks of one design point: every multiply path and
//! both pinned tiers of the point's `realm-simd` kernel ≡ `multiply`,
//! under the `2N`-bit product ceiling. The suite's `main.rs` runs them
//! at every point of its spec list.

use realm_baselines::catalog::DesignSpec;
use realm_core::simd::{self, Tier};
use realm_core::{Multiplier, Realm};

use DesignSpec as D;

/// Every pair of 8-bit operands, `b` fastest.
pub fn all_8bit_pairs() -> Vec<(u64, u64)> {
    (0..=255u64)
        .flat_map(|a| (0..=255u64).map(move |b| (a, b)))
        .collect()
}

/// A family's `realm-simd` kernel, run on a pinned tier.
pub type TierRun = Box<dyn Fn(Tier, &[(u64, u64)], &mut [u64])>;

/// The kernel behind a point's `multiply_batch`: `None` for a family
/// without one, or a point its kernel declines. No `_` arm, so a new
/// family has to say whether it has a kernel.
pub fn kernel(spec: &DesignSpec) -> Option<TierRun> {
    fn boxed(run: impl Fn(Tier, &[(u64, u64)], &mut [u64]) + 'static) -> Option<TierRun> {
        Some(Box::new(run))
    }
    match *spec {
        D::Accurate { w } => {
            let kernel = simd::AccurateKernel::new(w)?;
            boxed(move |tier, pairs, out| kernel.run(tier, pairs, out))
        }
        D::Realm(config) => {
            // The kernel borrows the LUT, so the closure owns the model.
            let realm = Realm::new(config).ok()?;
            realm.batch_kernel()?;
            boxed(move |tier, pairs, out| {
                let kernel = realm.batch_kernel().expect("checked above");
                kernel.run(tier, pairs, out);
            })
        }
        D::Calm { w } => {
            let kernel = simd::CalmKernel::new(w)?;
            boxed(move |tier, pairs, out| kernel.run(tier, pairs, out))
        }
        D::Drum { w, k } => {
            let kernel = simd::DrumKernel::new(w, k)?;
            boxed(move |tier, pairs, out| kernel.run(tier, pairs, out))
        }
        D::ScaleTrim { w, t, c } => {
            let kernel = simd::ScaleTrimKernel::new(w, t, c)?;
            boxed(move |tier, pairs, out| kernel.run(tier, pairs, out))
        }
        D::Ilm { w, i } => {
            let kernel = simd::IlmKernel::new(w, i)?;
            boxed(move |tier, pairs, out| kernel.run(tier, pairs, out))
        }
        D::AlmMaa { .. }
        | D::AlmSoa { .. }
        | D::ImpLm { .. }
        | D::Mbm { .. }
        | D::Am1 { .. }
        | D::Am2 { .. }
        | D::IntAlp { .. }
        | D::Ssm { .. }
        | D::Essm8 { .. }
        | D::Kulkarni { .. } => None,
    }
}

/// Asserts on every batch: `multiply_batch` ≡ `multiply`, `multiply` ≡
/// `multiply_wide` up to 32 bits (wide ≥ clamped above), neither past
/// the product ceiling `2^(2N) − 1`, and both tiers of the point's
/// kernel ≡ `multiply`.
pub fn assert_paths_agree(
    spec: &DesignSpec,
    model: &dyn Multiplier,
    kernel: Option<&TierRun>,
    batches: &[Vec<(u64, u64)>],
) {
    let ceiling = u128::MAX >> (128 - 2 * model.width());
    for pairs in batches {
        let want: Vec<u64> = pairs.iter().map(|&(a, b)| model.multiply(a, b)).collect();
        for (&(a, b), &p) in pairs.iter().zip(&want) {
            let wide = model.multiply_wide(a, b);
            assert!(
                wide <= ceiling && u128::from(p) <= ceiling,
                "{spec}: product past 2^(2N) − 1 at ({a}, {b})"
            );
            if model.width() <= 32 {
                assert_eq!(wide, u128::from(p), "{spec}: multiply_wide at ({a}, {b})");
            } else {
                assert!(
                    wide >= u128::from(p),
                    "{spec}: wide < clamped at ({a}, {b})"
                );
            }
        }
        let mut out = vec![0; pairs.len()];
        model.multiply_batch(pairs, &mut out);
        assert_lanes(spec, "multiply_batch", pairs, &out, &want);
        if let Some(run) = kernel {
            for tier in [Tier::Scalar, Tier::Avx2] {
                run(tier, pairs, &mut out);
                assert_lanes(spec, tier.name(), pairs, &out, &want);
            }
        }
    }
}

fn assert_lanes(spec: &DesignSpec, path: &str, pairs: &[(u64, u64)], got: &[u64], want: &[u64]) {
    if got == want {
        return;
    }
    let lane = got
        .iter()
        .zip(want)
        .position(|(g, w)| g != w)
        .unwrap_or_default();
    let ((a, b), len) = (pairs[lane], pairs.len());
    let (got, want) = (got[lane], want[lane]);
    panic!("{spec}: {path} {got} != multiply {want} at ({a}, {b}), lane {lane} of {len}");
}
