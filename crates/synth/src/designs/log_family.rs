//! Netlists for the log-based multiplier family: cALM, MBM, REALM
//! (paper Fig. 3), ALM-MAA/SOA and ImpLM.

use realm_baselines::adders::LowerPart;
use realm_core::lut::QuantizedLut;
use realm_core::Realm;

use crate::blocks::adder::{approx_add_lower, ripple_add, ripple_sub};
use crate::blocks::lod::leading_one;
use crate::blocks::logic::{
    constant_bus, mux_bus, or_reduce, resize, shift_left_fixed, shift_right_fixed,
};
use crate::blocks::mux::constant_lut;
use crate::blocks::shifter::barrel_shift_left;
use crate::faults::{StageClass, StageSpan};
use crate::netlist::{Net, Netlist};

/// Records which datapath stage each emitted gate belongs to, exploiting
/// the fact that the generators emit gates stage by stage: every call to
/// [`StageTrace::mark`] closes the span started by the previous call.
pub(crate) struct StageTrace {
    spans: Vec<StageSpan>,
    cursor: usize,
}

impl StageTrace {
    pub(crate) fn new() -> Self {
        StageTrace {
            spans: Vec::new(),
            cursor: 0,
        }
    }

    /// Attributes all gates emitted since the previous mark to `stage`.
    pub(crate) fn mark(&mut self, nl: &Netlist, stage: StageClass) {
        let here = nl.gate_count();
        if here > self.cursor {
            self.spans.push(StageSpan {
                stage,
                gates: self.cursor..here,
            });
        }
        self.cursor = here;
    }

    pub(crate) fn finish(self) -> Vec<StageSpan> {
        self.spans
    }
}

/// One operand after the LOD + normalizing barrel shifter (paper Fig. 3
/// left half): binary leading-one position, the `N−1`-bit Mitchell
/// fraction and a nonzero flag.
pub(crate) struct LogOperand {
    pub position: Vec<Net>,
    pub fraction: Vec<Net>,
    pub nonzero: Net,
}

/// Builds the LOD + normalizer for one operand bus.
pub(crate) fn log_front_end(nl: &mut Netlist, value: &[Net], trace: &mut StageTrace) -> LogOperand {
    let w = value.len();
    let lod = leading_one(nl, value);
    trace.mark(nl, StageClass::Characteristic);
    let pb = lod.position.len();
    // Normalizing shift amount: (w−1) − k.
    let wm1 = constant_bus(nl, (w - 1) as u64, pb);
    let diff = ripple_sub(nl, &wm1, &lod.position);
    let amount = diff[..pb].to_vec();
    let norm = barrel_shift_left(nl, value, &amount, w);
    trace.mark(nl, StageClass::Fraction);
    LogOperand {
        position: lod.position,
        fraction: norm[..w - 1].to_vec(),
        nonzero: lod.nonzero,
    }
}

/// Applies the paper's truncate-and-set-LSB conditioning to a fraction
/// bus: drop `t` LSBs and tie the new LSB to constant 1 (no gates — this
/// is exactly the logic-area saving §III-C describes).
pub(crate) fn truncate_set_lsb(nl: &Netlist, fraction: &[Net], t: usize) -> Vec<Net> {
    let mut out = fraction[t..].to_vec();
    out[0] = nl.one();
    out
}

/// Final antilog stage shared by the whole family: shifts the mantissa
/// (fixed-point, `f` fraction bits) left by the characteristic sum, drops
/// the fraction, saturates into `2N` bits and masks zero operands.
pub(crate) fn scale_mask_saturate(
    nl: &mut Netlist,
    mantissa: &[Net],
    exponent: &[Net],
    f: usize,
    width: usize,
    valid: Net,
) -> Vec<Net> {
    let out_bits = 2 * width;
    let full_width = f + out_bits + 2;
    let full = barrel_shift_left(nl, mantissa, exponent, full_width);
    let overflow = or_reduce(nl, &full[f + out_bits..]);
    full[f..f + out_bits]
        .iter()
        .map(|&bit| {
            let saturated = nl.or(bit, overflow);
            nl.and(saturated, valid)
        })
        .collect()
}

/// What gets added to the fraction sum before the final scaling.
enum Correction<'a> {
    /// Nothing (cALM).
    None,
    /// A single hardwired constant in units of `2^-bits` (MBM).
    Constant { code: u64, bits: u32 },
    /// The REALM per-segment LUT.
    Lut(&'a QuantizedLut),
}

/// Shared datapath for cALM / MBM / REALM: front ends, optional
/// truncation, fraction-sum adder, correction injection with the `s/2`
/// mux, and the final barrel shifter (paper Fig. 3).
fn log_family(
    name: String,
    width: u32,
    truncation: Option<u32>,
    correction: Correction<'_>,
) -> (Netlist, Vec<StageSpan>) {
    let w = width as usize;
    let mut nl = Netlist::new(name);
    let mut trace = StageTrace::new();
    let a = nl.input_bus("a", width);
    let b = nl.input_bus("b", width);
    let fa = log_front_end(&mut nl, &a, &mut trace);
    let fb = log_front_end(&mut nl, &b, &mut trace);
    let valid = nl.and(fa.nonzero, fb.nonzero);
    trace.mark(&nl, StageClass::Antilog); // zero masking of the output

    let (xa, xb) = match truncation {
        Some(t) => (
            truncate_set_lsb(&nl, &fa.fraction, t as usize),
            truncate_set_lsb(&nl, &fb.fraction, t as usize),
        ),
        None => (fa.fraction.clone(), fb.fraction.clone()),
    };
    let f = xa.len(); // fraction width F

    let zero = nl.zero();
    let ksum = ripple_add(&mut nl, &fa.position, &fb.position, zero);
    trace.mark(&nl, StageClass::ShiftAmount);
    let fsum = ripple_add(&mut nl, &xa, &xb, zero); // F+1 bits
    trace.mark(&nl, StageClass::Fraction);
    let carry = fsum[f];

    // Correction value in units of 2^-F, after the s/2 mux. A correction
    // finer than the fraction loses its low bits, as in the model
    // (`code >> (q − F)`, see `mitchell::log_mul`).
    let correction_bus: Option<Vec<Net>> = match correction {
        Correction::None => None,
        Correction::Constant { code, bits } => {
            let code = match (f as u32).checked_sub(bits) {
                Some(up) => code << up,
                None => code >> (bits - f as u32),
            };
            Some(constant_bus(&nl, code, f))
        }
        Correction::Lut(lut) => {
            let q = lut.precision() as usize;
            let index_bits = lut.grid().index_bits() as usize;
            // Select lines: the fraction MSBs of each operand; address is
            // i·M + j with i (operand a) in the high bits.
            let mut sel: Vec<Net> = xb[f - index_bits..].to_vec();
            sel.extend_from_slice(&xa[f - index_bits..]);
            let table: Vec<u64> = lut.codes().iter().map(|&c| c as u64).collect();
            let code = constant_lut(&mut nl, &sel, &table, lut.storage_bits() as usize);
            trace.mark(&nl, StageClass::LutFactor);
            // Units 2^-q, top two bits implicitly zero → shift into 2^-F.
            let s_f = match f.checked_sub(q) {
                Some(up) => shift_left_fixed(&nl, &code, up, f),
                None => shift_right_fixed(&nl, &code, q - f, f),
            };
            Some(s_f)
        }
    };

    // Mantissa assembly: without correction msum = fsum; with correction
    // the s/2 mux halves s when the fraction sum carried.
    let msum = match correction_bus {
        None => resize(&nl, &fsum, f + 2),
        Some(s_f) => {
            let s_half = shift_right_fixed(&nl, &s_f, 1, f);
            let s_eff = mux_bus(&mut nl, carry, &s_f, &s_half);
            ripple_add(&mut nl, &fsum, &s_eff, zero) // F+2 bits
        }
    };

    // carry = 0 → mantissa = 1 + msum·2^-F at exponent ksum;
    // carry = 1 → mantissa = msum·2^-F at exponent ksum + 1, i.e.
    //             (msum << 1)·2^-F at exponent ksum.
    let one_point = constant_bus(&nl, 1 << f, f + 1);
    let case0 = ripple_add(&mut nl, &msum, &one_point, zero); // f+3 bits
    let case0 = resize(&nl, &case0, f + 3);
    let case1 = shift_left_fixed(&nl, &msum, 1, f + 3);
    let mantissa = mux_bus(&mut nl, carry, &case0, &case1);
    trace.mark(&nl, StageClass::Fraction);

    let product = scale_mask_saturate(&mut nl, &mantissa, &ksum, f, w, valid);
    trace.mark(&nl, StageClass::Antilog);
    nl.output_bus("p", product);
    (nl, trace.finish())
}

/// Netlist for Mitchell's classical log-based multiplier.
pub fn calm_netlist(width: u32) -> Netlist {
    log_family(format!("cALM{width}"), width, None, Correction::None).0
}

/// Netlist for Mitchell's classical log-based multiplier, with the
/// gate-index span of every datapath stage (for stage-resolved fault
/// analysis).
pub fn calm_netlist_staged(width: u32) -> (Netlist, Vec<StageSpan>) {
    log_family(format!("cALM{width}"), width, None, Correction::None)
}

/// Netlist for MBM with truncation `t` (single correction constant 5/64).
pub fn mbm_netlist(width: u32, truncation: u32) -> Netlist {
    log_family(
        format!("MBM{width}_t{truncation}"),
        width,
        Some(truncation),
        Correction::Constant {
            code: realm_baselines::mbm::MBM_CORRECTION_CODE,
            bits: realm_baselines::mbm::MBM_CORRECTION_BITS,
        },
    )
    .0
}

/// Netlist for REALM, mirroring the paper's Fig. 3 exactly: the LUT is the
/// hardwired constant multiplexer of the given instance.
pub fn realm_netlist(realm: &Realm) -> Netlist {
    realm_netlist_staged(realm).0
}

/// Netlist for REALM plus the gate-index span of every datapath stage,
/// enabling gate-level fault campaigns to be aggregated by the same
/// stage classes the functional fault model of `realm-fault` uses.
pub fn realm_netlist_staged(realm: &Realm) -> (Netlist, Vec<StageSpan>) {
    let cfg = realm.configuration();
    log_family(
        format!("REALM{}_t{}", cfg.segments, cfg.truncation),
        cfg.width,
        Some(cfg.truncation),
        Correction::Lut(realm.lut()),
    )
}

/// Netlist for ALM-MAA/SOA: cALM with the log-sum adder's lower `m` bits
/// replaced by the selected approximate scheme.
pub fn alm_netlist(width: u32, scheme: LowerPart, m: u32) -> Netlist {
    let w = width as usize;
    let f = w - 1;
    let mut nl = Netlist::new(format!("ALM{width}_m{m}"));
    let mut scratch = StageTrace::new();
    let a = nl.input_bus("a", width);
    let b = nl.input_bus("b", width);
    let fa = log_front_end(&mut nl, &a, &mut scratch);
    let fb = log_front_end(&mut nl, &b, &mut scratch);
    let valid = nl.and(fa.nonzero, fb.nonzero);

    // Characteristic ∥ fraction, summed with the approximate adder.
    let mut la = fa.fraction.clone();
    la.extend_from_slice(&fa.position);
    let mut lb = fb.fraction.clone();
    lb.extend_from_slice(&fb.position);
    let lsum = approx_add_lower(&mut nl, &la, &lb, m as usize, scheme);

    let frac = &lsum[..f];
    let k = &lsum[f..];
    // mantissa = 1.frac at exponent k.
    let mut mantissa = frac.to_vec();
    mantissa.push(nl.one());
    let product = scale_mask_saturate(&mut nl, &mantissa.clone(), k, f, w, valid);
    nl.output_bus("p", product);
    nl
}

/// Netlist for ImpLM (nearest-one characteristic, exact adder).
///
/// Signed fractions are handled in offset form: with
/// `y = x + 2^(w−2) >= 0`, the mantissa `1 + x_a + x_b` becomes
/// `2^(w−1) + y_a + y_b` in units of `2^-w` — an unsigned datapath.
pub fn implm_netlist(width: u32) -> Netlist {
    let w = width as usize;
    let f = w; // ImpLM fractions carry one extra bit (see realm-baselines)
    let mut nl = Netlist::new(format!("ImpLM{width}"));
    let a = nl.input_bus("a", width);
    let b = nl.input_bus("b", width);

    let encode = |nl: &mut Netlist, v: &[Net]| -> (Vec<Net>, Vec<Net>, Net) {
        let mut scratch = StageTrace::new();
        let fe = log_front_end(nl, v, &mut scratch);
        let zero = nl.zero();
        // The front end always emits a full-width fraction; its MSB is
        // the x >= 0.5 rounding bit.
        let round = fe.fraction.last().copied().unwrap_or(zero);
        // k' = k + round.
        let kp = ripple_add(nl, &fe.position, &[round], zero);
        // Offset fraction y = x + 2^(w−2), in units of 2^-w.
        // round = 0: x·2^w = fraction << 1  → y = (frac<<1) + 2^(w−2).
        // round = 1: x·2^w = norm − 2^w (negative); norm = [frac, 1] as
        //            w bits scaled by 2^-w·2^w… y = norm − 3·2^(w−2).
        let x0 = shift_left_fixed(nl, &fe.fraction, 1, f);
        let quarter = constant_bus(nl, 1u64 << (f - 2), f);
        let y0 = ripple_add(nl, &x0, &quarter, zero);
        let mut norm = fe.fraction.clone();
        norm.push(nl.one()); // w bits: 1.fraction
        let three_quarters = constant_bus(nl, 3u64 << (f - 2), f);
        let y1 = ripple_sub(nl, &norm, &three_quarters);
        let y = mux_bus(nl, round, &y0[..f], &y1[..f]);
        (kp, y, fe.nonzero)
    };

    let (ka, ya, za) = encode(&mut nl, &a);
    let (kb, yb, zb) = encode(&mut nl, &b);
    let valid = nl.and(za, zb);
    let zero = nl.zero();
    let ksum = ripple_add(&mut nl, &ka, &kb, zero);
    let ysum = ripple_add(&mut nl, &ya, &yb, zero); // f+1 bits
                                                    // mantissa = 2^(w−1) + ya + yb, in units 2^-w; fits f+2 bits.
    let half = constant_bus(&nl, 1u64 << (f - 1), f + 1);
    let mantissa = ripple_add(&mut nl, &ysum, &half, zero);
    let product = scale_mask_saturate(&mut nl, &mantissa, &ksum, f, w, valid);
    nl.output_bus("p", product);
    nl
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::designs::verify::assert_equivalent;
    use realm_baselines::{Alm, AlmAdder, Calm, ImpLm, Mbm};
    use realm_core::{Realm, RealmConfig};

    #[test]
    fn calm_matches_behavioural_16bit() {
        assert_equivalent(&Calm::new(16), &calm_netlist(16), 400);
    }

    #[test]
    fn mbm_matches_behavioural() {
        for t in [0u32, 4, 9] {
            let model = Mbm::new(16, t).unwrap();
            assert_equivalent(&model, &mbm_netlist(16, t), 300);
        }
    }

    #[test]
    fn realm_matches_behavioural_all_m() {
        for m in [4u32, 8, 16] {
            let model = Realm::new(RealmConfig::n16(m, 0)).unwrap();
            assert_equivalent(&model, &realm_netlist(&model), 300);
        }
    }

    #[test]
    fn realm_matches_behavioural_with_truncation() {
        for t in [1u32, 5, 9] {
            let model = Realm::new(RealmConfig::n16(16, t)).unwrap();
            assert_equivalent(&model, &realm_netlist(&model), 300);
        }
    }

    #[test]
    fn alm_matches_behavioural() {
        for (adder, lower) in [
            (AlmAdder::Maa, LowerPart::Or),
            (AlmAdder::Soa, LowerPart::SetOne),
        ] {
            for m in [3u32, 9, 12] {
                let model = Alm::new(16, adder, m);
                assert_equivalent(&model, &alm_netlist(16, lower, m), 250);
            }
        }
    }

    #[test]
    fn implm_matches_behavioural() {
        assert_equivalent(&ImpLm::new(16), &implm_netlist(16), 400);
    }

    #[test]
    fn staged_netlist_spans_cover_every_gate_exactly_once() {
        let model = Realm::new(RealmConfig::new(8, 8, 0, 6)).unwrap();
        let (nl, spans) = realm_netlist_staged(&model);
        let mut covered = vec![0u32; nl.gate_count()];
        for span in &spans {
            for g in span.gates.clone() {
                covered[g] += 1;
            }
        }
        assert!(covered.iter().all(|&c| c == 1), "gates covered {covered:?}");
        // All five stage classes are present for a REALM instance.
        use crate::faults::StageClass;
        for stage in StageClass::ALL {
            assert!(
                spans.iter().any(|s| s.stage == stage),
                "missing stage {stage}"
            );
        }
        // The staged and plain generators agree bit for bit.
        let plain = realm_netlist(&model);
        assert_eq!(plain.gate_count(), nl.gate_count());
        for a in (0..256u64).step_by(17) {
            for b in (0..256u64).step_by(23) {
                assert_eq!(
                    nl.eval_one(&[("a", a), ("b", b)], "p"),
                    plain.eval_one(&[("a", a), ("b", b)], "p"),
                );
            }
        }
    }

    #[test]
    fn realm_lut_overhead_is_small() {
        // The paper's headline synthesis claim: REALM's area stays in the
        // same ballpark as cALM despite the LUT (Table I: cALM 69.8 %
        // area reduction vs REALM16/t=0 50 %, REALM4/t=0 62.9 %).
        let calm = calm_netlist(16).area();
        let realm4 = {
            let m = Realm::new(RealmConfig::n16(4, 0)).unwrap();
            realm_netlist(&m).area()
        };
        let realm16 = {
            let m = Realm::new(RealmConfig::n16(16, 0)).unwrap();
            realm_netlist(&m).area()
        };
        assert!(realm4 < calm * 1.6, "REALM4 {realm4} vs cALM {calm}");
        assert!(realm16 < calm * 2.2, "REALM16 {realm16} vs cALM {calm}");
        assert!(realm4 < realm16, "more segments must cost more mux");
    }

    #[test]
    fn truncation_saves_area() {
        let t0 = {
            let m = Realm::new(RealmConfig::n16(8, 0)).unwrap();
            realm_netlist(&m).area()
        };
        let t9 = {
            let m = Realm::new(RealmConfig::n16(8, 9)).unwrap();
            realm_netlist(&m).area()
        };
        assert!(t9 < t0, "t=9 ({t9}) should be smaller than t=0 ({t0})");
    }
}
