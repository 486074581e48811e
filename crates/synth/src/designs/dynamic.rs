//! Netlists for the segment-based multipliers: DRUM (dynamic range
//! selection) and SSM/ESSM (static segments).

use crate::blocks::adder::{ripple_add, ripple_sub};
use crate::blocks::lod::leading_one;
use crate::blocks::logic::{constant_bus, mux_bus, or_reduce, resize, shift_left_fixed};
use crate::blocks::multiplier::wallace_multiplier;
use crate::blocks::shifter::{barrel_shift_left, barrel_shift_right};
use crate::netlist::{Net, Netlist};

/// Netlist for DRUM with fragment width `k`: LOD, fragment-extraction
/// barrel shifter, forced LSB, `k × k` exact core, restoring shifter.
pub fn drum_netlist(width: u32, k: u32) -> Netlist {
    let w = width as usize;
    let kk = k as usize;
    let mut nl = Netlist::new(format!("DRUM{width}_k{k}"));
    let a = nl.input_bus("a", width);
    let b = nl.input_bus("b", width);

    let extract = |nl: &mut Netlist, v: &[Net]| -> (Vec<Net>, Vec<Net>) {
        let lod = leading_one(nl, v);
        let pb = lod.position.len();
        // big = leading-one position >= k, i.e. the value needs truncation.
        let diff = ripple_sub(nl, &lod.position, &constant_bus(nl, (k - 1) as u64, pb));
        let big = diff[pb]; // carry: position >= k−1 … careful: >= k−1+? see below
                            // shift amount t = position − (k−1) when big, else 0.
        let t: Vec<Net> = diff[..pb].iter().map(|&d| nl.and(d, big)).collect();
        // But `big` fires at position == k−1 too (t = 0, exact pass-through
        // with LSB force — the LSB of a value with leading one at k−1 …
        // DRUM only forces the LSB when truncation really drops bits, i.e.
        // position >= k). Use strict comparison: position >= k, which
        // never holds when k does not fit the position bus (k = N = 2^pb).
        let strict = if u64::from(k) >> pb == 0 {
            ripple_sub(nl, &lod.position, &constant_bus(nl, k as u64, pb))[pb]
        } else {
            nl.zero()
        };
        let frag = barrel_shift_right(nl, v, &t, kk);
        let lsb = nl.or(frag[0], strict);
        let mut frag_forced = frag.clone();
        frag_forced[0] = lsb;
        (frag_forced, t)
    };

    let (fa, ta) = extract(&mut nl, &a);
    let (fb, tb) = extract(&mut nl, &b);
    let core = wallace_multiplier(&mut nl, &fa, &fb); // 2k bits
    let zero = nl.zero();
    let tsum = ripple_add(&mut nl, &ta, &tb, zero);
    let product = barrel_shift_left(&mut nl, &core, &tsum, 2 * w);
    nl.output_bus("p", product);
    nl
}

/// Netlist for SSM with segment width `m`: upper-part OR detector, 2:1
/// segment mux per operand, `m × m` exact core, fixed-shift output muxes.
pub fn ssm_netlist(width: u32, m: u32) -> Netlist {
    let w = width as usize;
    let mm = m as usize;
    let mut nl = Netlist::new(format!("SSM{width}_m{m}"));
    let a = nl.input_bus("a", width);
    let b = nl.input_bus("b", width);

    let select = |nl: &mut Netlist, v: &[Net]| -> (Vec<Net>, Net) {
        let upper = or_reduce(nl, &v[mm..]);
        let seg = mux_bus(nl, upper, &v[..mm], &v[w - mm..]);
        (seg, upper)
    };
    let (sa, ua) = select(&mut nl, &a);
    let (sb, ub) = select(&mut nl, &b);
    let core = wallace_multiplier(&mut nl, &sa, &sb); // 2m bits
    let shift = w - mm;
    let p0 = resize(&nl, &core, 2 * w);
    let p0s = shift_left_fixed(&nl, &core, shift, 2 * w);
    let p1 = mux_bus(&mut nl, ua, &p0, &p0s);
    let p1s = shift_left_fixed(&nl, &p1, shift, 2 * w);
    let product = mux_bus(&mut nl, ub, &p1, &p1s);
    nl.output_bus("p", product);
    nl
}

/// Netlist for the 16-bit ESSM8: three static 8-bit segment positions
/// (`[15:8]`, `[11:4]`, `[7:0]`) selected by the leading-one region.
pub fn essm8_netlist() -> Netlist {
    let w = 16usize;
    let mut nl = Netlist::new("ESSM8");
    let a = nl.input_bus("a", 16);
    let b = nl.input_bus("b", 16);

    let select = |nl: &mut Netlist, v: &[Net]| -> (Vec<Net>, Net, Net) {
        let top = or_reduce(nl, &v[12..]); // leading one in [15:12]
        let mid = or_reduce(nl, &v[8..12]); // else in [11:8]
        let low_or_mid = mux_bus(nl, mid, &v[..8], &v[4..12]);
        let seg = mux_bus(nl, top, &low_or_mid, &v[8..16]);
        (seg, top, mid)
    };
    let (sa, ta, ma) = select(&mut nl, &a);
    let (sb, tb, mb) = select(&mut nl, &b);
    let core = wallace_multiplier(&mut nl, &sa, &sb); // 16 bits

    let apply_shift = |nl: &mut Netlist, p: &[Net], top: Net, mid: Net| -> Vec<Net> {
        let unshifted = resize(nl, p, 2 * w);
        let by4 = shift_left_fixed(nl, p, 4, 2 * w);
        let by8 = shift_left_fixed(nl, p, 8, 2 * w);
        let low_or_mid = mux_bus(nl, mid, &unshifted, &by4);
        mux_bus(nl, top, &low_or_mid, &by8)
    };
    let p1 = apply_shift(&mut nl, &core, ta, ma);
    let product = apply_shift(&mut nl, &p1, tb, mb);
    nl.output_bus("p", product);
    nl
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::designs::verify::assert_equivalent;
    use realm_baselines::{Drum, Essm8, Ssm};

    #[test]
    fn drum_matches_behavioural() {
        // k = 16 does not fit the 4-bit leading-one position bus.
        for k in [4u32, 6, 8, 16] {
            let model = Drum::new(16, k).unwrap();
            assert_equivalent(&model, &drum_netlist(16, k), 300);
        }
    }

    #[test]
    fn ssm_matches_behavioural() {
        for m in [8u32, 9, 10] {
            let model = Ssm::new(16, m).unwrap();
            assert_equivalent(&model, &ssm_netlist(16, m), 300);
        }
    }

    #[test]
    fn essm8_matches_behavioural() {
        assert_equivalent(&Essm8::new(), &essm8_netlist(), 500);
    }

    #[test]
    fn smaller_fragments_are_cheaper() {
        let g8 = drum_netlist(16, 8).gate_count();
        let g4 = drum_netlist(16, 4).gate_count();
        assert!(g4 < g8, "k=4 ({g4}) should be cheaper than k=8 ({g8})");
    }

    #[test]
    fn ssm_is_cheaper_than_essm() {
        // ESSM needs the extra segment mux level and shift muxes.
        let ssm = ssm_netlist(16, 8).gate_count();
        let essm = essm8_netlist().gate_count();
        assert!(ssm < essm, "SSM8 {ssm} vs ESSM8 {essm}");
    }
}
