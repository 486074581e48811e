//! A small fixed-point multilayer perceptron — the "machine learning"
//! workload class of the paper's introduction.
//!
//! The network (2 → H → 1, ReLU hidden, sigmoid output) is trained in
//! floating point at construction on a deterministic synthetic task
//! (points inside vs. outside a circle), then quantized to Q8 weights;
//! **inference** runs in fixed point with every multiply–accumulate
//! product routed through the supplied [`Multiplier`], so the
//! classification-accuracy cost of each approximate design is measured
//! end to end.

use realm_core::{FixedBatch, Multiplier};

/// Fractional bits of quantized weights and activations (Q8).
pub const WEIGHT_BITS: u32 = 8;

/// A trained, quantized 2-layer MLP classifier.
#[derive(Debug, Clone)]
pub struct Mlp {
    hidden: usize,
    /// Hidden weights, row-major `[hidden][2]`, Q8.
    w1: Vec<i32>,
    /// Hidden biases, Q8.
    b1: Vec<i32>,
    /// Output weights `[hidden]`, Q8.
    w2: Vec<i32>,
    /// Output bias, Q8.
    b2: i32,
}

/// One labelled sample of the synthetic task: a point in `[−1, 1]²` and
/// whether it lies inside the circle of radius 0.6.
pub fn dataset(n: usize, seed: u64) -> Vec<([f64; 2], bool)> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        (state >> 33) as f64 / (1u64 << 31) as f64 * 2.0 - 1.0
    };
    (0..n)
        .map(|_| {
            let p = [next(), next()];
            let inside = p[0] * p[0] + p[1] * p[1] < 0.36;
            (p, inside)
        })
        .collect()
}

impl Mlp {
    /// Trains a classifier with `hidden` ReLU units by full-batch gradient
    /// descent (deterministic: fixed init, fixed data) and quantizes it.
    ///
    /// # Panics
    ///
    /// Panics if `hidden` is zero.
    pub fn train(hidden: usize, epochs: u32) -> Self {
        assert!(hidden > 0, "need at least one hidden unit");
        let data = dataset(512, 0xBEEF);
        // Deterministic small random init.
        let mut state = 0x1357_9BDFu64;
        let mut rnd = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64 - 0.5) * 1.2
        };
        let mut w1: Vec<f64> = (0..hidden * 2).map(|_| rnd()).collect();
        let mut b1: Vec<f64> = (0..hidden).map(|_| rnd() * 0.1).collect();
        let mut w2: Vec<f64> = (0..hidden).map(|_| rnd()).collect();
        let mut b2: f64 = 0.0;
        let lr = 0.5 / data.len() as f64;

        for _ in 0..epochs {
            let mut gw1 = vec![0.0; hidden * 2];
            let mut gb1 = vec![0.0; hidden];
            let mut gw2 = vec![0.0; hidden];
            let mut gb2 = 0.0;
            for &(x, label) in &data {
                // Forward.
                let h: Vec<f64> = (0..hidden)
                    .map(|j| (w1[2 * j] * x[0] + w1[2 * j + 1] * x[1] + b1[j]).max(0.0))
                    .collect();
                let z: f64 = h.iter().zip(&w2).map(|(hj, wj)| hj * wj).sum::<f64>() + b2;
                let y = 1.0 / (1.0 + (-z).exp());
                let target = if label { 1.0 } else { 0.0 };
                // Backward (cross-entropy × sigmoid → simple residual).
                let dz = y - target;
                for j in 0..hidden {
                    gw2[j] += dz * h[j];
                    if h[j] > 0.0 {
                        let dh = dz * w2[j];
                        gw1[2 * j] += dh * x[0];
                        gw1[2 * j + 1] += dh * x[1];
                        gb1[j] += dh;
                    }
                }
                gb2 += dz;
            }
            for (w, g) in w1.iter_mut().zip(&gw1) {
                *w -= lr * g;
            }
            for (b, g) in b1.iter_mut().zip(&gb1) {
                *b -= lr * g;
            }
            for (w, g) in w2.iter_mut().zip(&gw2) {
                *w -= lr * g;
            }
            b2 -= lr * gb2;
        }

        let q = |v: f64| (v.clamp(-7.99, 7.99) * (1 << WEIGHT_BITS) as f64).round() as i32;
        Mlp {
            hidden,
            w1: w1.into_iter().map(q).collect(),
            b1: b1.into_iter().map(q).collect(),
            w2: w2.into_iter().map(q).collect(),
            b2: q(b2),
        }
    }

    /// Number of hidden units.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Fixed-point forward pass through `m`: inputs in `[−1, 1]` are
    /// quantized to Q8; returns the pre-sigmoid logit in Q8.
    ///
    /// Both layers run as batched sign-magnitude multiplies (one
    /// `multiply_batch` call per layer), bit-identical to the historical
    /// per-product loop.
    pub fn logit_fixed(&self, m: &dyn Multiplier, x: [f64; 2]) -> i64 {
        let xq = [
            (x[0].clamp(-1.0, 1.0) * (1 << WEIGHT_BITS) as f64).round() as i64,
            (x[1].clamp(-1.0, 1.0) * (1 << WEIGHT_BITS) as f64).round() as i64,
        ];
        let mut batch = FixedBatch::new();

        // Hidden layer: both input products of every unit in one batch.
        let pairs1: Vec<(i64, i64)> = (0..self.hidden)
            .flat_map(|j| {
                [
                    (self.w1[2 * j] as i64, xq[0]),
                    (self.w1[2 * j + 1] as i64, xq[1]),
                ]
            })
            .collect();
        let mut prods1 = vec![0i64; pairs1.len()];
        batch.multiply(m, &pairs1, 0, &mut prods1);
        let h: Vec<i64> = (0..self.hidden)
            .map(|j| {
                // Hidden pre-activation in Q16, descaled to Q8, ReLU.
                let pre = prods1[2 * j] + prods1[2 * j + 1] + ((self.b1[j] as i64) << WEIGHT_BITS);
                (pre >> WEIGHT_BITS).clamp(0, 1 << 14) // clamp to 16-bit operand range
            })
            .collect();

        // Output layer: one batch, per-product arithmetic descale as the
        // historical loop did (`fixed_mul_signed(..) >> WEIGHT_BITS` floors the
        // signed product toward -infinity).
        let pairs2: Vec<(i64, i64)> = (0..self.hidden)
            .map(|j| (self.w2[j] as i64, h[j]))
            .collect();
        let mut prods2 = vec![0i64; pairs2.len()];
        batch.multiply(m, &pairs2, 0, &mut prods2);
        self.b2 as i64 + prods2.iter().map(|&p| p >> WEIGHT_BITS).sum::<i64>()
    }

    /// Classifies one point (logit ≥ 0 → inside).
    pub fn classify(&self, m: &dyn Multiplier, x: [f64; 2]) -> bool {
        self.logit_fixed(m, x) >= 0
    }

    /// Classification accuracy on a labelled set.
    pub fn accuracy(&self, m: &dyn Multiplier, data: &[([f64; 2], bool)]) -> f64 {
        let correct = data
            .iter()
            .filter(|&&(x, label)| self.classify(m, x) == label)
            .count();
        correct as f64 / data.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use realm_baselines::Calm;
    use realm_core::{Accurate, Realm, RealmConfig};

    fn trained() -> Mlp {
        Mlp::train(12, 400)
    }

    #[test]
    fn training_converges_in_float_then_fixed() {
        let mlp = trained();
        let test = dataset(512, 0xF00D); // held-out points
        let acc = mlp.accuracy(&Accurate::new(16), &test);
        assert!(acc > 0.93, "fixed-point accuracy {acc}");
    }

    #[test]
    fn realm_inference_tracks_accurate_inference() {
        let mlp = trained();
        let test = dataset(512, 0xF00D);
        let exact = mlp.accuracy(&Accurate::new(16), &test);
        let realm = mlp.accuracy(
            &Realm::new(RealmConfig::n16(16, 0)).expect("paper design point"),
            &test,
        );
        assert!(
            realm > exact - 0.03,
            "REALM accuracy {realm} vs accurate {exact}"
        );
    }

    #[test]
    fn approximate_designs_preserve_most_decisions() {
        let mlp = trained();
        let test = dataset(256, 0xCAFE);
        let exact = Accurate::new(16);
        let realm = Realm::new(RealmConfig::n16(8, 4)).expect("paper design point");
        let flipped = test
            .iter()
            .filter(|&&(x, _)| mlp.classify(&exact, x) != mlp.classify(&realm, x))
            .count();
        assert!(flipped < 15, "{flipped}/256 decisions flipped");
    }

    #[test]
    fn biased_multiplier_flips_more_decisions_than_realm() {
        let mlp = trained();
        let test = dataset(512, 0xAAAA);
        let exact = Accurate::new(16);
        let realm = Realm::new(RealmConfig::n16(16, 0)).expect("paper design point");
        let calm = Calm::new(16);
        let flips = |m: &dyn Multiplier| {
            test.iter()
                .filter(|&&(x, _)| mlp.classify(&exact, x) != mlp.classify(m, x))
                .count()
        };
        let (fr, fc) = (flips(&realm), flips(&calm));
        assert!(fr <= fc, "REALM flipped {fr}, cALM flipped {fc}");
    }

    #[test]
    fn dataset_is_deterministic_and_balanced() {
        let a = dataset(256, 1);
        let b = dataset(256, 1);
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(&b).all(|(x, y)| x == y));
        let inside = a.iter().filter(|(_, l)| *l).count();
        assert!(
            inside > 40 && inside < 200,
            "unbalanced: {inside}/256 inside"
        );
    }

    #[test]
    #[should_panic(expected = "at least one hidden unit")]
    fn zero_hidden_rejected() {
        let _ = Mlp::train(0, 1);
    }
}
