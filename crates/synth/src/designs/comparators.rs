//! Netlists for the post-paper comparator designs: scaleTRIM
//! (truncation + linearization + compensation, arXiv:2303.02495) and the
//! two-iteration iterative log multiplier (ILM, Babić et al. 2011).
//!
//! Both generators are width-generic, mirroring the behavioural models in
//! `realm-baselines`, and are verified bit-exactly against them.

use crate::blocks::adder::ripple_add;
use crate::blocks::lod::leading_one;
use crate::blocks::logic::{constant_bus, resize, shift_left_fixed, shift_right_fixed};
use crate::blocks::multiplier::wallace_multiplier;
use crate::blocks::shifter::barrel_shift_left;
use crate::netlist::{Net, Netlist};

use super::log_family::{log_front_end, scale_mask_saturate, StageTrace};

/// Netlist for scaleTRIM: LOD + normalizer front ends, a `t × t` Wallace
/// core for the truncated cross term, the linearized compensation adder
/// (when `compensate`), and the shared antilog back end.
pub fn scaletrim_netlist(width: u32, truncation: u32, compensate: bool) -> Netlist {
    let w = width as usize;
    let t = truncation as usize;
    let f = w - 1;
    assert!(
        (2..=8).contains(&t) && t <= f,
        "scaleTRIM t must be in 2..=min(8, width - 1)"
    );
    let mut nl = Netlist::new(format!(
        "scaleTRIM{width}_t{truncation}_c{}",
        u8::from(compensate)
    ));
    let mut scratch = StageTrace::new();
    let a = nl.input_bus("a", width);
    let b = nl.input_bus("b", width);
    let fa = log_front_end(&mut nl, &a, &mut scratch);
    let fb = log_front_end(&mut nl, &b, &mut scratch);
    let valid = nl.and(fa.nonzero, fb.nonzero);

    // Top t fraction bits of each operand feed the small exact core.
    let xa = fa.fraction[f - t..].to_vec();
    let ya = fb.fraction[f - t..].to_vec();
    let pp = wallace_multiplier(&mut nl, &xa, &ya); // 2t bits

    // Correction in units of 2^-(2t+2): 4·pp, plus 2(x_a + y_a) + 1 when
    // compensating (the +1 rides the adder's carry-in). The value is
    // bounded by (2^(t+1) − 1)^2, so 2t + 2 bits suffice.
    let cw = 2 * t + 3;
    let pp4 = shift_left_fixed(&nl, &pp, 2, cw);
    let zero = nl.zero();
    let corr = if compensate {
        let xs = ripple_add(&mut nl, &xa, &ya, zero); // t+1 bits
        let xs2 = shift_left_fixed(&nl, &xs, 1, cw);
        let one = nl.one();
        let sum = ripple_add(&mut nl, &pp4, &xs2, one);
        resize(&nl, &sum, cw)
    } else {
        pp4
    };
    // Align into the datapath's 2^-f fraction units.
    let corr_bits = 2 * t + 2;
    let corr_f = if f >= corr_bits {
        shift_left_fixed(&nl, &corr, f - corr_bits, f)
    } else {
        shift_right_fixed(&nl, &corr, corr_bits - f, f)
    };

    let ksum = ripple_add(&mut nl, &fa.position, &fb.position, zero);
    let fsum = ripple_add(&mut nl, &fa.fraction, &fb.fraction, zero); // f+1 bits
    let corr_w = resize(&nl, &corr_f, f + 1);
    let msum = ripple_add(&mut nl, &fsum, &corr_w, zero); // f+2 bits
                                                          // mantissa = 1 + x + y + corr in units 2^-f; strictly below 4.
    let one_point = constant_bus(&nl, 1u64 << f, f + 1);
    let mantissa = ripple_add(&mut nl, &msum, &one_point, zero); // f+3 bits
    let product = scale_mask_saturate(&mut nl, &mantissa, &ksum, f, w, valid);
    nl.output_bus("p", product);
    nl
}

/// Clears the marked leading-one bit out of a value bus:
/// `res[i] = v[i] & !onehot[i]`.
fn clear_leading_one(nl: &mut Netlist, v: &[Net], onehot: &[Net]) -> Vec<Net> {
    v.iter()
        .zip(onehot)
        .map(|(&bit, &mark)| {
            let keep = nl.not(mark);
            nl.and(bit, keep)
        })
        .collect()
}

/// Netlist for the iterative log multiplier: LODs, residue extraction,
/// two barrel-shifted addends per iteration, and the final carry chain.
/// The second iteration's contribution is gated on both first-level
/// residues being nonzero (a zero residue means iteration one was exact).
pub fn ilm_netlist(width: u32, iterations: u32) -> Netlist {
    let w = width as usize;
    assert!(
        (1..=2).contains(&iterations),
        "ILM supports 1 or 2 iterations"
    );
    let mut nl = Netlist::new(format!("ILM{width}_i{iterations}"));
    let a = nl.input_bus("a", width);
    let b = nl.input_bus("b", width);

    let lod_a = leading_one(&mut nl, &a);
    let lod_b = leading_one(&mut nl, &b);
    let valid = nl.and(lod_a.nonzero, lod_b.nonzero);
    let res_a = clear_leading_one(&mut nl, &a, &lod_a.onehot);
    let res_b = clear_leading_one(&mut nl, &b, &lod_b.onehot);

    // prod0 = a·2^kb + B'·2^ka — the approximation never exceeds the
    // exact product, so 2N bits always hold every partial sum.
    let out = 2 * w;
    let s0 = barrel_shift_left(&mut nl, &a, &lod_b.position, out);
    let s1 = barrel_shift_left(&mut nl, &res_b, &lod_a.position, out);
    let zero = nl.zero();
    let sum0 = ripple_add(&mut nl, &s0, &s1, zero);
    let mut p = resize(&nl, &sum0, out);

    if iterations == 2 {
        let lod_a2 = leading_one(&mut nl, &res_a);
        let lod_b2 = leading_one(&mut nl, &res_b);
        let guard = nl.and(lod_a2.nonzero, lod_b2.nonzero);
        let res2_b = clear_leading_one(&mut nl, &res_b, &lod_b2.onehot);
        let t0 = barrel_shift_left(&mut nl, &res_a, &lod_b2.position, out);
        let t1 = barrel_shift_left(&mut nl, &res2_b, &lod_a2.position, out);
        let t0g: Vec<Net> = t0.iter().map(|&bit| nl.and(bit, guard)).collect();
        let t1g: Vec<Net> = t1.iter().map(|&bit| nl.and(bit, guard)).collect();
        let sum1 = ripple_add(&mut nl, &t0g, &t1g, zero);
        let sum1 = resize(&nl, &sum1, out);
        let total = ripple_add(&mut nl, &p, &sum1, zero);
        p = resize(&nl, &total, out);
    }

    // Zero operands short-circuit (prod0 degenerates to B' otherwise).
    let product: Vec<Net> = p.iter().map(|&bit| nl.and(bit, valid)).collect();
    nl.output_bus("p", product);
    nl
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::designs::verify::assert_equivalent;
    use realm_baselines::{Ilm, ScaleTrim};

    #[test]
    fn scaletrim_matches_behavioural_16bit() {
        for (t, c) in [(2u32, true), (4, true), (6, false), (8, true)] {
            let model = ScaleTrim::new(16, t, c).unwrap();
            assert_equivalent(&model, &scaletrim_netlist(16, t, c), 300);
        }
    }

    #[test]
    fn ilm_matches_behavioural_16bit() {
        for i in [1u32, 2] {
            let model = Ilm::new(16, i).unwrap();
            assert_equivalent(&model, &ilm_netlist(16, i), 300);
        }
    }

    #[test]
    fn second_iteration_costs_more_gates() {
        let i1 = ilm_netlist(16, 1).gate_count();
        let i2 = ilm_netlist(16, 2).gate_count();
        assert!(i1 < i2, "i=1 ({i1}) should be cheaper than i=2 ({i2})");
    }

    #[test]
    fn larger_cross_term_costs_more_gates() {
        let t2 = scaletrim_netlist(16, 2, true).gate_count();
        let t8 = scaletrim_netlist(16, 8, true).gate_count();
        assert!(t2 < t8, "t=2 ({t2}) should be cheaper than t=8 ({t8})");
    }
}
