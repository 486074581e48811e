//! Exact array/Wallace-tree multipliers — the accurate reference design of
//! the paper's Table I and the small cores inside DRUM/SSM/ESSM.

use crate::blocks::adder::{full_adder, half_adder, ripple_add};
use crate::netlist::{Net, Netlist};

/// Builds the AND-gate partial-product matrix as per-column bit lists:
/// column `c` holds every `a_i & b_j` with `i + j == c`.
pub fn partial_product_columns(nl: &mut Netlist, a: &[Net], b: &[Net]) -> Vec<Vec<Net>> {
    let mut columns: Vec<Vec<Net>> = vec![Vec::new(); a.len() + b.len()];
    for (i, &ai) in a.iter().enumerate() {
        for (j, &bj) in b.iter().enumerate() {
            let pp = nl.and(ai, bj);
            columns[i + j].push(pp);
        }
    }
    columns
}

/// Wallace-style column compression: repeatedly applies 3:2 and 2:2
/// counters until every column holds at most two bits, then returns the
/// two remaining addend rows.
pub fn compress_columns(nl: &mut Netlist, mut columns: Vec<Vec<Net>>) -> (Vec<Net>, Vec<Net>) {
    loop {
        if columns.iter().all(|c| c.len() <= 2) {
            break;
        }
        let mut next: Vec<Vec<Net>> = vec![Vec::new(); columns.len() + 1];
        for (c, bits) in columns.iter().enumerate() {
            let mut it = bits.as_slice();
            while it.len() >= 3 {
                let (s, carry) = full_adder(nl, it[0], it[1], it[2]);
                next[c].push(s);
                next[c + 1].push(carry);
                it = &it[3..];
            }
            if it.len() == 2 && bits.len() > 2 {
                let (s, carry) = half_adder(nl, it[0], it[1]);
                next[c].push(s);
                next[c + 1].push(carry);
                it = &it[2..];
            }
            next[c].extend_from_slice(it);
        }
        while next.last().is_some_and(Vec::is_empty) {
            next.pop();
        }
        columns = next;
    }
    let zero = nl.zero();
    let row0: Vec<Net> = columns
        .iter()
        .map(|c| c.first().copied().unwrap_or(zero))
        .collect();
    let row1: Vec<Net> = columns
        .iter()
        .map(|c| c.get(1).copied().unwrap_or(zero))
        .collect();
    (row0, row1)
}

/// An exact unsigned multiplier: AND-matrix partial products, Wallace
/// compression, final carry-propagate adder. Product width is
/// `a.len() + b.len()`.
pub fn wallace_multiplier(nl: &mut Netlist, a: &[Net], b: &[Net]) -> Vec<Net> {
    let width = a.len() + b.len();
    let columns = partial_product_columns(nl, a, b);
    let (row0, row1) = compress_columns(nl, columns);
    let zero = nl.zero();
    let mut sum = ripple_add(nl, &row0, &row1, zero);
    sum.truncate(width);
    sum.resize(width, nl.zero());
    sum
}

/// Builds a complete standalone exact multiplier netlist with buses
/// `a`, `b` and `p`.
pub fn wallace_netlist(width: u32) -> Netlist {
    let mut nl = Netlist::new(format!("accurate{width}"));
    let a = nl.input_bus("a", width);
    let b = nl.input_bus("b", width);
    let p = wallace_multiplier(&mut nl, &a, &b);
    nl.output_bus("p", p);
    nl
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustive_4x4() {
        let nl = wallace_netlist(4);
        for a in 0..16u64 {
            for b in 0..16u64 {
                assert_eq!(nl.eval_one(&[("a", a), ("b", b)], "p"), a * b, "{a}*{b}");
            }
        }
    }

    #[test]
    fn random_16x16() {
        let nl = wallace_netlist(16);
        // Deterministic pseudo-random pairs.
        let mut x = 0x1234_5678u64;
        for _ in 0..200 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let a = (x >> 16) & 0xFFFF;
            let b = (x >> 40) & 0xFFFF;
            assert_eq!(nl.eval_one(&[("a", a), ("b", b)], "p"), a * b, "{a}*{b}");
        }
        // Corners.
        for (a, b) in [(0u64, 0u64), (65_535, 65_535), (65_535, 1), (32_768, 2)] {
            assert_eq!(nl.eval_one(&[("a", a), ("b", b)], "p"), a * b);
        }
    }

    #[test]
    fn asymmetric_widths() {
        let mut nl = Netlist::new("asym");
        let a = nl.input_bus("a", 6);
        let b = nl.input_bus("b", 3);
        let p = wallace_multiplier(&mut nl, &a, &b);
        nl.output_bus("p", p);
        for a in 0..64u64 {
            for b in 0..8u64 {
                assert_eq!(nl.eval_one(&[("a", a), ("b", b)], "p"), a * b);
            }
        }
    }

    #[test]
    fn gate_count_grows_quadratically() {
        let g8 = wallace_netlist(8).gate_count();
        let g16 = wallace_netlist(16).gate_count();
        let ratio = g16 as f64 / g8 as f64;
        assert!(ratio > 3.0 && ratio < 5.0, "unexpected scaling: {ratio}");
    }
}
