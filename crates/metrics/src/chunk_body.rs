//! The chunk body of the Monte-Carlo, NMED, breakdown and sweep campaigns:
//! [`fold_drawn`] draws a chunk's pairs, [`fold_products`] is the product rule.

use realm_core::multiplier::MultiplierExt;
use realm_core::rng::SplitMix64;
use realm_core::Multiplier;
use realm_par::Chunk;

/// Pairs per block: the length of the body's reused pair and product
/// buffers.
pub(crate) const BLOCK: usize = 1 << 12;

/// Multiplies `pairs` through `design` and calls `fold(a, b, approx,
/// exact)` per pair, in order, with both products as `f64`, the form
/// every error fold scores in. Up to 32 bits the batch kernel fills
/// `products` (at least `pairs.len()` long) and the exact product fits a
/// `u64`, whose `f64` is the `u128`'s; above, the batch register clamps
/// 2N-bit products, so each pair takes `multiply_wide`.
pub(crate) fn fold_products(
    design: &dyn Multiplier,
    pairs: &[(u64, u64)],
    products: &mut [u64],
    mut fold: impl FnMut(u64, u64, f64, f64),
) {
    if design.width() > 32 {
        for &(a, b) in pairs {
            let exact = a as u128 * b as u128;
            fold(a, b, design.multiply_wide(a, b) as f64, exact as f64);
        }
        return;
    }
    let products = &mut products[..pairs.len()];
    design.multiply_batch(pairs, products);
    for (&(a, b), &p) in pairs.iter().zip(products.iter()) {
        fold(a, b, p as f64, (a * b) as f64);
    }
}

/// Folds the chunk's `chunk.len` pairs, `a` then `b` each uniform over
/// `[lo, 2^W − 1]` from `SplitMix64::stream(seed, chunk.index)`, through
/// [`fold_products`] one block at a time. Batch kernels are pure per
/// lane, so the fold sees what one whole-chunk batch would give it.
pub(crate) fn fold_drawn(
    design: &dyn Multiplier,
    seed: u64,
    chunk: Chunk,
    lo: u64,
    mut fold: impl FnMut(u64, u64, f64, f64),
) {
    let max = design.max_operand();
    let mut rng = SplitMix64::stream(seed, chunk.index);
    let mut pairs = vec![(0, 0); (chunk.len as usize).min(BLOCK)];
    let mut products = vec![0; pairs.len()];
    let mut left = chunk.len as usize;
    while left > 0 {
        let pairs = &mut pairs[..left.min(BLOCK)];
        left -= pairs.len();
        for pair in pairs.iter_mut() {
            *pair = (rng.range_inclusive(lo, max), rng.range_inclusive(lo, max));
        }
        fold_products(design, pairs, &mut products, &mut fold);
    }
}

#[cfg(test)]
mod tests {
    use crate::{BreakdownWorkload, DistanceWorkload, Engine, ErrorSummary, MonteCarlo};
    use realm_core::Accurate;

    /// Past 32 bits the batch register clamps 2N-bit products: the exact
    /// multiplier reads zero error only if every workload scores the wide
    /// path.
    #[test]
    fn accurate_scores_zero_error_past_32_bits() {
        let zero = |s: &ErrorSummary| [s.bias, s.mean_error, s.min_error, s.max_error] == [0.0; 4];
        for width in [33, 48, 64] {
            let design = Accurate::new(width);
            let engine = Engine::default();
            assert!(zero(&MonteCarlo::new(20_000, 3).characterize(&design)));
            let d = engine.run(&DistanceWorkload::new(&design, 20_000, 3));
            assert_eq!(
                d.map(|d| (d.nmed, d.worst_case)),
                Some((0.0, 0.0)),
                "{width}"
            );
            let cells = engine.run(&BreakdownWorkload::new(&design, 20_000, 3));
            assert!(
                cells.is_some_and(|c| c.iter().all(|c| zero(&c.summary))),
                "{width}"
            );
            let lo = 1u64 << (width - 1);
            let r = engine.run(&crate::RangeWorkload::new(
                &design,
                lo..=lo + 63,
                lo..=lo + 63,
            ));
            assert!(
                r.is_some_and(|r| r.samples == 64 * 64 && zero(&r)),
                "{width}"
            );
        }
    }
}
