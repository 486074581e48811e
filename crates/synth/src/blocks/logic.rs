//! Bitwise and reduction word-level helpers.

use crate::netlist::{Net, Netlist};

/// Bitwise mux of two equal-width buses: `sel ? b : a`.
///
/// # Panics
///
/// Panics if the buses differ in width.
pub fn mux_bus(nl: &mut Netlist, sel: Net, a: &[Net], b: &[Net]) -> Vec<Net> {
    assert_eq!(a.len(), b.len(), "mux_bus requires equal widths");
    a.iter().zip(b).map(|(&x, &y)| nl.mux(sel, x, y)).collect()
}

/// OR-reduction of a bus (balanced tree). Empty buses reduce to 0.
pub fn or_reduce(nl: &mut Netlist, bits: &[Net]) -> Net {
    reduce(nl, bits, Netlist::or, false)
}

/// AND-reduction of a bus (balanced tree). Empty buses reduce to 1.
pub fn and_reduce(nl: &mut Netlist, bits: &[Net]) -> Net {
    reduce(nl, bits, Netlist::and, true)
}

fn reduce(
    nl: &mut Netlist,
    bits: &[Net],
    op: fn(&mut Netlist, Net, Net) -> Net,
    empty: bool,
) -> Net {
    match bits.len() {
        0 => nl.constant(empty),
        1 => bits[0],
        n => {
            let (lo, hi) = bits.split_at(n / 2);
            let l = reduce(nl, lo, op, empty);
            let r = reduce(nl, hi, op, empty);
            op(nl, l, r)
        }
    }
}

/// Fixed left shift: rewiring plus zero fill (no gates), truncated or
/// zero-extended to `out_width`.
pub fn shift_left_fixed(nl: &Netlist, a: &[Net], amount: usize, out_width: usize) -> Vec<Net> {
    let mut out = Vec::with_capacity(out_width);
    for i in 0..out_width {
        if i >= amount && i - amount < a.len() {
            out.push(a[i - amount]);
        } else {
            out.push(nl.zero());
        }
    }
    out
}

/// Fixed right shift: rewiring plus zero fill (no gates).
pub fn shift_right_fixed(nl: &Netlist, a: &[Net], amount: usize, out_width: usize) -> Vec<Net> {
    let mut out = Vec::with_capacity(out_width);
    for i in 0..out_width {
        if i + amount < a.len() {
            out.push(a[i + amount]);
        } else {
            out.push(nl.zero());
        }
    }
    out
}

/// Zero-extends (or truncates) a bus to `width` bits.
pub fn resize(nl: &Netlist, a: &[Net], width: usize) -> Vec<Net> {
    let mut out = a.to_vec();
    out.truncate(width);
    while out.len() < width {
        out.push(nl.zero());
    }
    out
}

/// Wires a compile-time constant as a bus of the given width.
///
/// # Panics
///
/// Panics if the constant does not fit.
pub fn constant_bus(nl: &Netlist, value: u64, width: usize) -> Vec<Net> {
    assert!(
        width >= 64 || value >> width == 0,
        "constant {value:#x} exceeds {width} bits"
    );
    (0..width)
        .map(|i| nl.constant((value >> i) & 1 == 1))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reductions() {
        let mut nl = Netlist::new("t");
        let a = nl.input_bus("a", 5);
        let any = or_reduce(&mut nl, &a);
        let all = and_reduce(&mut nl, &a);
        nl.output_bus("any", vec![any]);
        nl.output_bus("all", vec![all]);
        for v in 0..32u64 {
            let out = nl.eval(&[("a", v)]);
            assert_eq!(out["any"], u64::from(v != 0));
            assert_eq!(out["all"], u64::from(v == 31));
        }
    }

    #[test]
    fn empty_reductions_are_identities() {
        let mut nl = Netlist::new("t");
        assert_eq!(or_reduce(&mut nl, &[]), nl.zero());
        assert_eq!(and_reduce(&mut nl, &[]), nl.one());
    }

    #[test]
    fn fixed_shifts_are_free() {
        let mut nl = Netlist::new("t");
        let a = nl.input_bus("a", 4);
        let l = shift_left_fixed(&nl, &a, 2, 6);
        let r = shift_right_fixed(&nl, &a, 1, 4);
        nl.output_bus("l", l);
        nl.output_bus("r", r);
        assert_eq!(nl.gate_count(), 0);
        let out = nl.eval(&[("a", 0b1011)]);
        assert_eq!(out["l"], 0b101100);
        assert_eq!(out["r"], 0b101);
    }

    #[test]
    fn constant_bus_wires_bits() {
        let mut nl = Netlist::new("t");
        let c = constant_bus(&nl, 0b1010, 4);
        nl.output_bus("c", c);
        assert_eq!(nl.eval_one(&[], "c"), 0b1010);
        assert_eq!(nl.gate_count(), 0);
    }

    #[test]
    fn mux_bus_picks_whole_word() {
        let mut nl = Netlist::new("t");
        let a = nl.input_bus("a", 3);
        let b = nl.input_bus("b", 3);
        let s = nl.input_bus("s", 1)[0];
        let y = mux_bus(&mut nl, s, &a, &b);
        nl.output_bus("y", y);
        assert_eq!(nl.eval_one(&[("a", 5), ("b", 2), ("s", 0)], "y"), 5);
        assert_eq!(nl.eval_one(&[("a", 5), ("b", 2), ("s", 1)], "y"), 2);
    }
}
