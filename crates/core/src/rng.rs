//! A small, self-contained, seeded pseudo-random number generator.
//!
//! The workspace's Monte-Carlo campaigns, gate-level fault simulation and
//! property-style test suites all need reproducible random streams, but the
//! build must work fully offline — so instead of depending on the external
//! `rand` crate the workspace uses this SplitMix64 generator (Steele,
//! Lea & Flood, OOPSLA 2014; the same mixer `java.util.SplittableRandom`
//! and xoshiro seeding use). It is not cryptographically secure and is not
//! meant to be; it passes BigCrush and is more than adequate for uniform
//! operand stimulus.
//!
//! ```
//! use realm_core::rng::SplitMix64;
//!
//! let mut rng = SplitMix64::new(7);
//! let a = rng.range_inclusive(0, 65_535);
//! assert!(a <= 65_535);
//! // Same seed, same stream:
//! assert_eq!(SplitMix64::new(7).next_u64(), SplitMix64::new(7).next_u64());
//! ```

/// A seeded SplitMix64 pseudo-random number generator.
///
/// The entire state is a single `u64`; every draw advances it by the golden
/// ratio constant and scrambles it with two xor-shift-multiply rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SplitMix64 {
    state: u64,
}

/// 2^64 / φ, the Weyl increment of SplitMix64.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 finalizer: two xor-shift-multiply rounds that scramble
/// a Weyl-sequence state into a uniform output word.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SplitMix64 {
    /// Creates a generator seeded with `seed`. Equal seeds produce equal
    /// streams on every platform.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Derives the `index`-th substream of a campaign seed: a generator
    /// whose stream is a pure function of `(seed, index)` and statistically
    /// independent of every other substream and of `SplitMix64::new(seed)`
    /// itself.
    ///
    /// This is the seed-derivation rule of the chunked characterization
    /// campaigns: chunk `i` of a campaign always draws from
    /// `stream(seed, i)`, so campaign results are bit-identical for any
    /// worker-thread count and any chunk execution order.
    ///
    /// Both coordinates go through the SplitMix64 finalizer separately
    /// (with distinct pre-whitening constants) before being combined, so
    /// that neighbouring seeds and neighbouring chunk indices land in
    /// far-apart states.
    ///
    /// ```
    /// use realm_core::rng::SplitMix64;
    ///
    /// let a: Vec<u64> = (0..4).map(|_| SplitMix64::stream(7, 0).next_u64()).collect();
    /// let b: Vec<u64> = (0..4).map(|_| SplitMix64::stream(7, 1).next_u64()).collect();
    /// assert_ne!(a, b); // distinct chunks, distinct streams
    /// assert_eq!(SplitMix64::stream(7, 1), SplitMix64::stream(7, 1));
    /// ```
    pub fn stream(seed: u64, index: u64) -> Self {
        let s = mix64(seed.wrapping_add(GOLDEN_GAMMA));
        // Offset the index by a second constant (the fractional bits of
        // √2) so stream(s, 0) never collides with new(mix64(s)).
        let i = mix64(index.wrapping_mul(GOLDEN_GAMMA) ^ 0x6A09_E667_F3BC_C909);
        SplitMix64::new(s ^ i)
    }

    /// The next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        mix64(self.state)
    }

    /// A uniform `f64` in `[0, 1)` built from the top 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform draw from the inclusive range `lo..=hi`.
    ///
    /// Uses rejection sampling (Lemire-style threshold on the modulus), so
    /// the distribution is exactly uniform. When `lo > hi` the arguments
    /// are swapped rather than panicking — the generator is total.
    ///
    /// When the range holds a power-of-two count of values (every
    /// `0..=2^w − 1` operand range, and the full `u64` range) the draw
    /// is one masked word: the rejection zone is then all of `u64` and
    /// `v % n == v & (n − 1)`, so the value and the generator state are
    /// exactly those of the rejection loop, without its two divisions.
    #[inline]
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        let span = hi - lo; // inclusive span − 1
        if span & span.wrapping_add(1) == 0 {
            return lo + (self.next_u64() & span);
        }
        let n = span + 1;
        // Rejection threshold: discard draws in the biased tail.
        let zone = u64::MAX - (u64::MAX - n + 1) % n;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return lo + v % n;
            }
        }
    }

    /// A uniform draw from `0..n` (exclusive). Returns 0 when `n == 0`
    /// instead of panicking.
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.range_inclusive(0, n - 1)
        }
    }

    /// A uniform index into a slice of length `len` (exclusive upper
    /// bound), as `usize`.
    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }

    /// Forks an independent generator: draws a fresh state and returns a
    /// new `SplitMix64` seeded with it. Streams of parent and child are
    /// statistically independent (the SplitMix64 "split" operation).
    pub fn fork(&mut self) -> SplitMix64 {
        SplitMix64::new(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn reference_vector_seed_zero() {
        // First outputs of SplitMix64 with seed 0 (cross-checked against
        // the reference C implementation by Sebastiano Vigna).
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(rng.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn range_inclusive_stays_in_bounds() {
        let mut rng = SplitMix64::new(1);
        for _ in 0..10_000 {
            let v = rng.range_inclusive(10, 20);
            assert!((10..=20).contains(&v));
        }
    }

    #[test]
    fn range_inclusive_full_span_is_total() {
        let mut rng = SplitMix64::new(2);
        let _ = rng.range_inclusive(0, u64::MAX);
    }

    #[test]
    fn range_inclusive_swaps_inverted_bounds() {
        let mut rng = SplitMix64::new(3);
        let v = rng.range_inclusive(20, 10);
        assert!((10..=20).contains(&v));
    }

    /// `range_inclusive` as first written: two divisions per call, no
    /// power-of-two path. The reference the fast path must match.
    fn range_inclusive_by_division(rng: &mut SplitMix64, lo: u64, hi: u64) -> u64 {
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        let span = hi - lo;
        if span == u64::MAX {
            return rng.next_u64();
        }
        let n = span + 1;
        let zone = u64::MAX - (u64::MAX - n + 1) % n;
        loop {
            let v = rng.next_u64();
            if v <= zone {
                return lo + v % n;
            }
        }
    }

    /// Draws `draws` times from `lo..=hi` with both implementations,
    /// comparing the value and the generator state after every call.
    fn assert_matches_division(seed: u64, lo: u64, hi: u64, draws: usize) {
        let mut fast = SplitMix64::new(seed);
        let mut reference = fast;
        for i in 0..draws {
            let value = fast.range_inclusive(lo, hi);
            let expected = range_inclusive_by_division(&mut reference, lo, hi);
            assert_eq!(
                (value, fast),
                (expected, reference),
                "draw {i} from {lo}..={hi}, seed {seed}"
            );
        }
    }

    #[test]
    fn range_inclusive_matches_division_on_every_small_span() {
        for span in 0..=4096u64 {
            for lo in [0, 1, 12_345, u64::MAX - span] {
                assert_matches_division(span ^ lo, lo, lo + span, 8);
            }
        }
    }

    #[test]
    fn range_inclusive_matches_division_on_random_large_spans() {
        let mut bounds = SplitMix64::new(0x5EED);
        for i in 0..2_000 {
            let (lo, hi) = (bounds.next_u64(), bounds.next_u64());
            // Halve some spans so rejection-heavy counts just above a
            // power of two show up too.
            let hi = if i % 2 == 0 {
                hi
            } else {
                lo.saturating_add(hi >> 1)
            };
            assert_matches_division(i, lo, hi, 16);
        }
        let rejection_heavy = [(1u64 << 63) + 1, u64::MAX / 3 * 2, u64::MAX - 1];
        for (i, n) in rejection_heavy.into_iter().enumerate() {
            assert_matches_division(i as u64, 0, n - 1, 256);
            assert_matches_division(i as u64, 1, n, 256);
        }
    }

    #[test]
    fn range_inclusive_matches_division_at_every_power_of_two() {
        for k in 0..64u32 {
            let span = (1u64 << k) - 1;
            let top = u64::MAX - span;
            for lo in [0, 7, top - 1, top] {
                assert_matches_division(u64::from(k), lo, lo + span, 32);
            }
            // The counts either side of 2^k take the rejection loop.
            for neighbour in [span.wrapping_sub(1), span + 1] {
                if neighbour <= top {
                    assert_matches_division(u64::from(k), top - neighbour, top, 32);
                }
            }
        }
    }

    #[test]
    fn range_inclusive_matches_division_on_full_and_swapped_ranges() {
        assert_matches_division(1, 0, u64::MAX, 64);
        assert_matches_division(2, u64::MAX, 0, 64);
        for (lo, hi) in [(20, 10), (65_535, 0), (u64::MAX, 1), (5, 5), (300, 44)] {
            assert_matches_division(lo ^ hi, lo, hi, 64);
        }
    }

    #[test]
    fn range_is_roughly_uniform() {
        let mut rng = SplitMix64::new(9);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[rng.below(8) as usize] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = SplitMix64::new(5);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn chance_matches_probability() {
        let mut rng = SplitMix64::new(11);
        let hits = (0..100_000).filter(|_| rng.chance(0.25)).count();
        assert!((23_000..27_000).contains(&hits), "hits {hits}");
        assert!(!SplitMix64::new(0).chance(0.0));
        assert!(SplitMix64::new(0).chance(1.0));
    }

    #[test]
    fn below_zero_is_total() {
        assert_eq!(SplitMix64::new(0).below(0), 0);
        assert_eq!(SplitMix64::new(0).index(0), 0);
    }

    #[test]
    fn stream_is_deterministic_and_index_sensitive() {
        let draw = |seed, index| {
            let mut rng = SplitMix64::stream(seed, index);
            (0..16).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(42, 3), draw(42, 3));
        assert_ne!(draw(42, 3), draw(42, 4));
        assert_ne!(draw(42, 3), draw(43, 3));
        // Substreams must not collide with the plain seeded stream.
        let mut plain = SplitMix64::new(42);
        let plain: Vec<u64> = (0..16).map(|_| plain.next_u64()).collect();
        assert_ne!(draw(42, 0), plain);
    }

    #[test]
    fn stream_has_no_adjacent_correlation() {
        // Crude independence check: XOR of the first draws of adjacent
        // substreams should look uniform (popcount near 32 on average).
        let mut total = 0u32;
        for i in 0..256u64 {
            let a = SplitMix64::stream(9, i).next_u64();
            let b = SplitMix64::stream(9, i + 1).next_u64();
            total += (a ^ b).count_ones();
        }
        let mean = total as f64 / 256.0;
        assert!((mean - 32.0).abs() < 2.0, "mean popcount {mean}");
    }

    #[test]
    fn fork_produces_distinct_stream() {
        let mut parent = SplitMix64::new(123);
        let mut child = parent.fork();
        let p: Vec<u64> = (0..8).map(|_| parent.next_u64()).collect();
        let c: Vec<u64> = (0..8).map(|_| child.next_u64()).collect();
        assert_ne!(p, c);
    }
}
