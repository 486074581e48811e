//! Netlist for IntALP: the linear-plane fraction-product approximation
//! with (for L = 2) per-quadrant constant-multiplier correction planes.

use realm_baselines::IntAlp;
use realm_core::Multiplier;

use crate::blocks::adder::{ripple_add, ripple_sub};
use crate::blocks::logic::{
    constant_bus, mux_bus, or_reduce, resize, shift_left_fixed, shift_right_fixed,
};
use crate::designs::log_family::{log_front_end, scale_mask_saturate, StageTrace};
use crate::netlist::{Net, Netlist};

/// Multiplies a bus by a compile-time constant magnitude via shift-add
/// (the "constant multiplier" a synthesizer would build), returning
/// `value * magnitude`.
fn constant_multiply(nl: &mut Netlist, value: &[Net], magnitude: u64) -> Vec<Net> {
    let mut acc: Option<Vec<Net>> = None;
    let zero = nl.zero();
    for bit in 0..64 {
        if (magnitude >> bit) & 1 == 1 {
            let shifted = shift_left_fixed(nl, value, bit as usize, value.len() + bit as usize);
            acc = Some(match acc {
                None => shifted,
                Some(prev) => ripple_add(nl, &prev, &shifted, zero),
            });
        }
    }
    acc.unwrap_or_else(|| vec![nl.zero()])
}

/// Builds the IntALP netlist for the given behavioural instance (the
/// plane coefficients are read from it so model and netlist can never
/// diverge).
pub fn intalp_netlist(model: &IntAlp) -> Netlist {
    let width = model.width();
    let w = width as usize;
    let f = w - 1;
    let cb = IntAlp::coefficient_bits();
    let mut nl = Netlist::new(format!("IntALP{width}_L{}", model.level()));
    let a = nl.input_bus("a", width);
    let b = nl.input_bus("b", width);
    let mut scratch = StageTrace::new();
    let fa = log_front_end(&mut nl, &a, &mut scratch);
    let fb = log_front_end(&mut nl, &b, &mut scratch);
    let valid = nl.and(fa.nonzero, fb.nonzero);
    let zero = nl.zero();

    let ksum = ripple_add(&mut nl, &fa.position, &fb.position, zero);
    let fsum = ripple_add(&mut nl, &fa.fraction, &fb.fraction, zero); // f+1 bits
    let carry = fsum[f];

    // Level-1 plane: p = fsum/4 below the carry line,
    // p = 3·fsum/4 − 2^(f−1) above it.
    let p0 = shift_right_fixed(&nl, &fsum, 2, f + 1);
    let fsum_x3 = {
        let doubled = shift_left_fixed(&nl, &fsum, 1, f + 2);
        ripple_add(&mut nl, &doubled, &fsum, zero) // f+3 bits
    };
    let three_quarters = shift_right_fixed(&nl, &fsum_x3, 2, f + 1);
    let half = constant_bus(&nl, 1u64 << (f - 1), f + 1);
    let p1 = ripple_sub(&mut nl, &three_quarters, &half);
    let p = mux_bus(&mut nl, carry, &p0, &p1[..f + 1]);

    // mant = 2^f + fsum + p  (fits f+3 bits).
    let one_point = constant_bus(&nl, 1u64 << f, f + 1);
    let base = ripple_add(&mut nl, &fsum, &one_point, zero);
    let mant = ripple_add(&mut nl, &base, &p, zero);
    let mut mant = resize(&nl, &mant, f + 3);

    if model.level() == 2 {
        // Quadrant select from the fraction MSBs; evaluate the four
        // correction planes' terms and mux between quadrant results.
        let u = fa.fraction[f - 1];
        let v = fb.fraction[f - 1];
        let planes = model.plane_coefficients();
        // Per quadrant: corr = α_f + sign(β)·(|β|·x >> cb) + sign(γ)·(|γ|·y >> cb).
        // Apply to mant with build-time-known signs: mant ∓ term.
        let mut quadrant_results: Vec<Vec<Net>> = Vec::with_capacity(4);
        for &(alpha, beta, gamma) in &planes {
            let mut m = mant.clone();
            let apply = |nl: &mut Netlist, m: &Vec<Net>, term: &[Net], negative: bool| {
                let term = resize(nl, term, m.len());
                if negative {
                    // coefficient negative → corr term negative → mant grows
                    let zero = nl.zero();
                    let s = ripple_add(nl, m, &term, zero);
                    resize(nl, &s, m.len())
                } else {
                    let s = ripple_sub(nl, m, &term);
                    resize(nl, &s, m.len())
                }
            };
            // α term: constant, scaled to 2^-f.
            let alpha_f = {
                let mag = alpha.unsigned_abs();
                if f as u32 >= cb {
                    mag << (f as u32 - cb)
                } else {
                    mag >> (cb - f as u32)
                }
            };
            let alpha_bus = constant_bus(&nl, alpha_f, f + 3);
            m = apply(&mut nl, &m, &alpha_bus, alpha < 0);
            // β·x and γ·y terms.
            let bx = constant_multiply(&mut nl, &fa.fraction, beta.unsigned_abs());
            let bx = shift_right_fixed(&nl, &bx, cb as usize, f + 3);
            m = apply(&mut nl, &m, &bx, beta < 0);
            let gy = constant_multiply(&mut nl, &fb.fraction, gamma.unsigned_abs());
            let gy = shift_right_fixed(&nl, &gy, cb as usize, f + 3);
            m = apply(&mut nl, &m, &gy, gamma < 0);
            quadrant_results.push(m);
        }
        // Quadrant address: planes are row-major by u (x MSB) then v.
        let lo = mux_bus(&mut nl, v, &quadrant_results[0], &quadrant_results[1]);
        let hi = mux_bus(&mut nl, v, &quadrant_results[2], &quadrant_results[3]);
        mant = mux_bus(&mut nl, u, &lo, &hi);
        // Clamp: mant = max(mant, 2^f) — if every bit at f and above is
        // zero, replace by exactly 1.0.
        let upper = or_reduce(&mut nl, &mant[f..]);
        let clamped = constant_bus(&nl, 1u64 << f, f + 3);
        mant = mux_bus(&mut nl, upper, &clamped, &mant);
    }

    let product = scale_mask_saturate(&mut nl, &mant, &ksum, f, w, valid);
    nl.output_bus("p", product);
    nl
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::designs::verify::assert_equivalent;

    #[test]
    fn intalp_l1_matches_behavioural() {
        let model = IntAlp::new(16, 1).unwrap();
        assert_equivalent(&model, &intalp_netlist(&model), 400);
    }

    #[test]
    fn intalp_l2_matches_behavioural() {
        let model = IntAlp::new(16, 2).unwrap();
        assert_equivalent(&model, &intalp_netlist(&model), 400);
    }

    #[test]
    fn level2_is_much_more_expensive() {
        // Table I: IntALP L=2 achieves only 17.8 % area reduction — the
        // two constant multipliers per operand dominate.
        let l1 = {
            let m = IntAlp::new(16, 1).unwrap();
            intalp_netlist(&m).gate_count()
        };
        let l2 = {
            let m = IntAlp::new(16, 2).unwrap();
            intalp_netlist(&m).gate_count()
        };
        assert!(l2 as f64 > 1.5 * l1 as f64, "L2 {l2} vs L1 {l1}");
    }

    #[test]
    fn constant_multiply_matches_product() {
        let mut nl = Netlist::new("cm");
        let v = nl.input_bus("v", 6);
        let y = constant_multiply(&mut nl, &v, 37);
        nl.output_bus("y", y);
        for vv in 0..64u64 {
            assert_eq!(nl.eval_one(&[("v", vv)], "y"), vv * 37);
        }
    }
}
