//! Netlist for Kulkarni's underdesigned recursive multiplier: approximate
//! 2×2 blocks composed with exact adders.
//!
//! The 2×2 block needs only three output bits (the saving that motivates
//! the design): `p0 = a0·b0`, `p1 = a1·b0 ⊕ a0·b1`... in fact the exact
//! block minus the `a1a0b1b0` carry — implemented here directly from the
//! published truth table.

use crate::blocks::adder::ripple_add;
use crate::blocks::logic::{resize, shift_left_fixed};
use crate::netlist::{Net, Netlist};

/// The approximate 2×2 block: three output bits, `3 × 3 → 7`.
///
/// Truth table: identical to exact multiplication except the missing
/// `p3 = a1 a0 b1 b0` term, whose weight folds into `p1/p2`:
/// `p0 = a0 b0`, `p1 = a1 b0 + a0 b1 − covered`, `p2 = a1 b1`,
/// with the published gates: `p1 = (a1 b0) | (a0 b1)` when using the
/// underdesigned encoding — verified exhaustively in the tests.
fn approx_2x2_block(nl: &mut Netlist, a: [Net; 2], b: [Net; 2]) -> [Net; 3] {
    // Exact partials.
    let p0 = nl.and(a[0], b[0]);
    let t1 = nl.and(a[1], b[0]);
    let t2 = nl.and(a[0], b[1]);
    let p2 = nl.and(a[1], b[1]);
    // 3×3 → 7 = 111: p1 = t1 | t2 (instead of XOR with a carry into p3),
    // p2 stays a1·b1. For every input except 3×3, t1·t2 = 0 so OR = XOR
    // and no carry existed anyway; for 3×3 the OR gives 1 and the result
    // reads 111 = 7.
    let p1 = nl.or(t1, t2);
    [p0, p1, p2]
}

/// Recursive composition to a power-of-two width; returns `2·width` bits.
fn kulkarni_recurse(nl: &mut Netlist, a: &[Net], b: &[Net]) -> Vec<Net> {
    let width = a.len();
    debug_assert_eq!(b.len(), width);
    if width == 2 {
        let block = approx_2x2_block(nl, [a[0], a[1]], [b[0], b[1]]);
        let mut out = block.to_vec();
        out.push(nl.zero());
        return out;
    }
    let half = width / 2;
    let (al, ah) = (a[..half].to_vec(), a[half..].to_vec());
    let (bl, bh) = (b[..half].to_vec(), b[half..].to_vec());
    let ll = kulkarni_recurse(nl, &al, &bl);
    let lh = kulkarni_recurse(nl, &al, &bh);
    let hl = kulkarni_recurse(nl, &ah, &bl);
    let hh = kulkarni_recurse(nl, &ah, &bh);

    let zero = nl.zero();
    let mid = ripple_add(nl, &lh, &hl, zero);
    let mid_shifted = shift_left_fixed(nl, &mid, half, 2 * width);
    let hh_shifted = shift_left_fixed(nl, &hh, width, 2 * width);
    let partial = ripple_add(nl, &ll, &mid_shifted, zero);
    let total = ripple_add(nl, &partial, &hh_shifted, zero);
    resize(nl, &total, 2 * width)
}

/// Builds the complete Kulkarni netlist (buses `a`, `b`, `p`).
///
/// # Panics
///
/// Panics unless `width` is a power of two in `2..=32`.
pub fn kulkarni_netlist(width: u32) -> Netlist {
    assert!(
        (2..=32).contains(&width) && width.is_power_of_two(),
        "kulkarni width must be a power of two in 2..=32"
    );
    let mut nl = Netlist::new(format!("Kulkarni{width}"));
    let a = nl.input_bus("a", width);
    let b = nl.input_bus("b", width);
    let p = kulkarni_recurse(&mut nl, &a, &b);
    nl.output_bus("p", p);
    nl
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::multiplier::wallace_netlist;
    use realm_baselines::Kulkarni;
    use realm_core::Multiplier;

    #[test]
    fn two_by_two_block_matches_published_table() {
        let nl = kulkarni_netlist(2);
        for a in 0..4u64 {
            for b in 0..4u64 {
                let want = if a == 3 && b == 3 { 7 } else { a * b };
                assert_eq!(nl.eval_one(&[("a", a), ("b", b)], "p"), want, "{a}*{b}");
            }
        }
    }

    #[test]
    fn random_16bit_matches_behavioural() {
        let model = Kulkarni::new(16).expect("power of two");
        let nl = kulkarni_netlist(16);
        let mut x = 0x2011_0B5D_1234_5678u64;
        for _ in 0..400 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let a = (x >> 17) & 0xFFFF;
            let b = (x >> 41) & 0xFFFF;
            assert_eq!(
                nl.eval_one(&[("a", a), ("b", b)], "p"),
                model.multiply(a, b),
                "({a}, {b})"
            );
        }
    }

    #[test]
    fn cheaper_than_exact_wallace() {
        let approx = kulkarni_netlist(16);
        let exact = wallace_netlist(16);
        assert!(
            approx.area() < exact.area(),
            "kulkarni {} vs wallace {}",
            approx.area(),
            exact.area()
        );
    }
}
