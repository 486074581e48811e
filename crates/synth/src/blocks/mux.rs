//! Multiplexer trees, including the constant-input LUT multiplexer that
//! realizes REALM's hardwired error-reduction table (paper §III-C).

use crate::netlist::{Net, Netlist};

/// An `2^sel.len()`-leaf mux tree over single-bit leaves.
///
/// # Panics
///
/// Panics unless `leaves.len() == 2^sel.len()`.
pub fn mux_tree(nl: &mut Netlist, sel: &[Net], leaves: &[Net]) -> Net {
    assert_eq!(
        leaves.len(),
        1usize << sel.len(),
        "mux tree needs 2^sel leaves"
    );
    if sel.is_empty() {
        return leaves[0];
    }
    // Select on the LAST select bit at the top so that leaf order matches
    // the integer value of the select bus (sel[0] = LSB).
    let (low, high) = leaves.split_at(leaves.len() / 2);
    let top = sel[sel.len() - 1];
    let rest = &sel[..sel.len() - 1];
    let l = mux_tree(nl, rest, low);
    let h = mux_tree(nl, rest, high);
    nl.mux(top, l, h)
}

/// A constant lookup table: `table[sel]` with hardwired constant entries,
/// `out_width` bits wide. Thanks to the netlist's constant folding the
/// resulting logic is exactly the collapsed mux/logic cone a synthesizer
/// would keep — the paper's "read-only hardwired lookup table" with its
/// near-zero overhead.
///
/// # Panics
///
/// Panics unless `table.len() == 2^sel.len()` and every entry fits in
/// `out_width` bits.
pub fn constant_lut(nl: &mut Netlist, sel: &[Net], table: &[u64], out_width: usize) -> Vec<Net> {
    assert_eq!(table.len(), 1usize << sel.len(), "lut needs 2^sel entries");
    (0..out_width)
        .map(|bit| {
            let leaves: Vec<Net> = table
                .iter()
                .map(|&v| {
                    assert!(
                        out_width >= 64 || v >> out_width == 0,
                        "lut entry {v:#x} exceeds {out_width} bits"
                    );
                    nl.constant((v >> bit) & 1 == 1)
                })
                .collect();
            mux_tree(nl, sel, &leaves)
        })
        .collect()
}

/// A mux tree over equal-width buses.
///
/// # Panics
///
/// Panics unless `options.len() == 2^sel.len()` and widths agree.
pub fn mux_tree_bus(nl: &mut Netlist, sel: &[Net], options: &[Vec<Net>]) -> Vec<Net> {
    assert_eq!(
        options.len(),
        1usize << sel.len(),
        "mux tree needs 2^sel options"
    );
    let width = options[0].len();
    assert!(
        options.iter().all(|o| o.len() == width),
        "bus widths must agree"
    );
    (0..width)
        .map(|bit| {
            let leaves: Vec<Net> = options.iter().map(|o| o[bit]).collect();
            mux_tree(nl, sel, &leaves)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mux_tree_selects_correct_leaf() {
        let mut nl = Netlist::new("t");
        let sel = nl.input_bus("sel", 3);
        let data = nl.input_bus("d", 8);
        let y = mux_tree(&mut nl, &sel, &data);
        nl.output_bus("y", vec![y]);
        for s in 0..8u64 {
            for d in [0b1010_1010u64, 0b0101_0101, 0b1100_0011] {
                let expect = (d >> s) & 1;
                assert_eq!(
                    nl.eval_one(&[("sel", s), ("d", d)], "y"),
                    expect,
                    "s={s} d={d:b}"
                );
            }
        }
    }

    #[test]
    fn constant_lut_returns_table_entries() {
        let table = [3u64, 1, 4, 1, 5, 9, 2, 6];
        let mut nl = Netlist::new("lut");
        let sel = nl.input_bus("sel", 3);
        let out = constant_lut(&mut nl, &sel, &table, 4);
        nl.output_bus("y", out);
        for (i, &want) in table.iter().enumerate() {
            assert_eq!(nl.eval_one(&[("sel", i as u64)], "y"), want);
        }
    }

    #[test]
    fn constant_lut_folds_heavily() {
        // An all-equal table must cost zero gates; a 2-valued table close
        // to zero.
        let mut nl = Netlist::new("fold");
        let sel = nl.input_bus("sel", 4);
        let out = constant_lut(&mut nl, &sel, &[7u64; 16], 4);
        nl.output_bus("y", out);
        assert_eq!(nl.gate_count(), 0);
        assert_eq!(nl.eval_one(&[("sel", 9)], "y"), 7);
    }

    #[test]
    fn realm16_lut_is_small() {
        // The paper's actual M=16, q=6 LUT: 256 entries × 4 stored bits.
        // After folding it should stay well under the cost of e.g. the
        // 15-bit fraction adder it sits next to (~150 gates).
        let table: Vec<u64> = realm_core::precomputed::CODES_M16_Q6
            .iter()
            .map(|&c| c as u64)
            .collect();
        let mut nl = Netlist::new("realm-lut");
        let sel = nl.input_bus("sel", 8);
        let out = constant_lut(&mut nl, &sel, &table, 4);
        nl.output_bus("s", out);
        assert!(
            nl.gate_count() < 700,
            "LUT unexpectedly large: {} gates",
            nl.gate_count()
        );
        // Spot-check entries (sel = i*16 + j with i in the high nibble).
        let i = 5usize;
        let j = 11usize;
        let sel_val = (i * 16 + j) as u64;
        assert_eq!(
            nl.eval_one(&[("sel", sel_val)], "s"),
            realm_core::precomputed::CODES_M16_Q6[i * 16 + j] as u64
        );
    }

    #[test]
    fn mux_tree_bus_selects_words() {
        let mut nl = Netlist::new("bus");
        let sel = nl.input_bus("sel", 2);
        let opts: Vec<Vec<Net>> = (0..4)
            .map(|i| {
                let b = nl.input_bus(format!("d{i}"), 3);
                b
            })
            .collect();
        let y = mux_tree_bus(&mut nl, &sel, &opts);
        nl.output_bus("y", y);
        let inputs = [("d0", 1u64), ("d1", 2), ("d2", 5), ("d3", 7)];
        for s in 0..4u64 {
            let mut iv: Vec<(&str, u64)> = inputs.to_vec();
            iv.push(("sel", s));
            assert_eq!(nl.eval_one(&iv, "y"), inputs[s as usize].1);
        }
    }

    #[test]
    #[should_panic(expected = "needs 2^sel entries")]
    fn wrong_table_size_panics() {
        let mut nl = Netlist::new("bad");
        let sel = nl.input_bus("sel", 2);
        let _ = constant_lut(&mut nl, &sel, &[1, 2, 3], 2);
    }
}
