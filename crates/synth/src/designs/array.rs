//! Netlist for the array-style AM1/AM2 designs (carry-free accumulation
//! with error-vector recovery). The accurate reference is
//! [`crate::blocks::multiplier::wallace_netlist`].

use realm_baselines::AmRecovery;

use crate::blocks::adder::ripple_add;
use crate::blocks::logic::resize;
use crate::blocks::multiplier::compress_columns;
use crate::netlist::{Net, Netlist};

/// Netlist for AM1/AM2: sequential carry-free (XOR) accumulation of the
/// partial products with per-stage error vectors (`AND` of the addends),
/// and error recovery on the `nb` most-significant product columns —
/// OR-combined for AM1, exactly summed (a compressor tree) for AM2.
pub fn am_netlist(width: u32, recovery: AmRecovery, nb: u32) -> Netlist {
    let w = width as usize;
    let out_bits = 2 * w;
    let kind = match recovery {
        AmRecovery::Or => "AM1",
        AmRecovery::Sum => "AM2",
    };
    let mut nl = Netlist::new(format!("{kind}_{width}_nb{nb}"));
    let a = nl.input_bus("a", width);
    let b = nl.input_bus("b", width);

    // acc ^= pp; e = acc & pp, per stage.
    let mut acc: Vec<Net> = vec![nl.zero(); out_bits];
    let mut error_vectors: Vec<Vec<Net>> = Vec::with_capacity(w);
    for (i, &bi) in b.iter().enumerate() {
        // pp = (a & b_i) << i
        let mut pp: Vec<Net> = vec![nl.zero(); out_bits];
        for (j, &aj) in a.iter().enumerate() {
            pp[i + j] = nl.and(aj, bi);
        }
        let mut err = vec![nl.zero(); out_bits];
        for c in 0..out_bits {
            err[c] = nl.and(acc[c], pp[c]);
            acc[c] = nl.xor(acc[c], pp[c]);
        }
        error_vectors.push(err);
    }

    // Mask to the nb most-significant columns (free wiring).
    let low = out_bits.saturating_sub(nb as usize);
    let recovered: Vec<Net> = match recovery {
        AmRecovery::Or => {
            let mut or_acc = vec![nl.zero(); out_bits];
            for err in &error_vectors {
                for c in low..out_bits {
                    or_acc[c] = nl.or(or_acc[c], err[c]);
                }
            }
            or_acc[..].to_vec()
        }
        AmRecovery::Sum => {
            // Exact sum of the masked error vectors via column compression
            // plus a final carry-propagate adder. (Sum bits at or above
            // 2N−1 are dynamically zero — recovery never exceeds the gap
            // to the exact product — so truncation is lossless.)
            let mut columns: Vec<Vec<Net>> = vec![Vec::new(); out_bits + 5];
            for err in &error_vectors {
                for c in low..out_bits {
                    columns[c].push(err[c]);
                }
            }
            let (row0, row1) = compress_columns(&mut nl, columns);
            let zero = nl.zero();
            let sum = ripple_add(&mut nl, &row0, &row1, zero);
            resize(&nl, &sum, out_bits)
        }
    };

    // result = acc + (recovered << 1); never exceeds the exact product,
    // so 2N bits suffice.
    let mut shifted = vec![nl.zero(); out_bits];
    shifted[1..].copy_from_slice(&recovered[..out_bits - 1]);
    let zero = nl.zero();
    let result = ripple_add(&mut nl, &acc, &shifted, zero);
    nl.output_bus("p", resize(&nl, &result, out_bits));
    nl
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::designs::verify::assert_equivalent;
    use realm_baselines::Am;

    #[test]
    fn am1_matches_behavioural() {
        for nb in [5u32, 13] {
            let model = Am::new(16, AmRecovery::Or, nb).unwrap();
            assert_equivalent(&model, &am_netlist(16, AmRecovery::Or, nb), 200);
        }
    }

    #[test]
    fn am2_matches_behavioural() {
        for nb in [5u32, 13] {
            let model = Am::new(16, AmRecovery::Sum, nb).unwrap();
            assert_equivalent(&model, &am_netlist(16, AmRecovery::Sum, nb), 200);
        }
    }

    #[test]
    fn am2_costs_more_than_am1() {
        // Table I shows AM2's area reduction is consistently lower than
        // AM1's (the exact error-summing tree is expensive).
        let am1 = am_netlist(16, AmRecovery::Or, 13).gate_count();
        let am2 = am_netlist(16, AmRecovery::Sum, 13).gate_count();
        assert!(am2 > am1, "AM2 {am2} vs AM1 {am1}");
    }
}
