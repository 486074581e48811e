//! A 45 nm-like standard-cell library: per-cell area, switching energy
//! and delay.
//!
//! The paper synthesizes with Cadence RTL Compiler against the TSMC 45 nm
//! library; that flow is proprietary, so this crate substitutes a
//! technology-mapped gate-level model. The per-cell figures below follow
//! the relative sizing of public 45 nm educational libraries (an inverter
//! ≈ 0.5 µm², a NAND2 ≈ 0.8 µm², XOR2 ≈ 2× NAND2, MUX2 ≈ 2.3× NAND2…).
//! Absolute accuracy is not required: Table I reports area/power
//! **reductions relative to the accurate multiplier**, which depend only
//! on relative gate complexity and switching activity, and the reporter
//! additionally calibrates the absolute scale to the paper's reference
//! point (see [`crate::report`]).

/// The primitive cell types netlists are technology-mapped to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellKind {
    /// Inverter.
    Inv,
    /// 2-input NAND.
    Nand2,
    /// 2-input NOR.
    Nor2,
    /// 2-input AND.
    And2,
    /// 2-input OR.
    Or2,
    /// 2-input XOR.
    Xor2,
    /// 2-input XNOR.
    Xnor2,
    /// 2:1 multiplexer (`sel ? b : a`).
    Mux2,
}

impl CellKind {
    /// All cell kinds, for iteration in reports and tests.
    pub const ALL: [CellKind; 8] = [
        CellKind::Inv,
        CellKind::Nand2,
        CellKind::Nor2,
        CellKind::And2,
        CellKind::Or2,
        CellKind::Xor2,
        CellKind::Xnor2,
        CellKind::Mux2,
    ];

    /// Cell area in µm² (45 nm-like relative sizing).
    pub fn area(self) -> f64 {
        match self {
            CellKind::Inv => 0.532,
            CellKind::Nand2 => 0.798,
            CellKind::Nor2 => 0.798,
            CellKind::And2 => 1.064,
            CellKind::Or2 => 1.064,
            CellKind::Xor2 => 1.596,
            CellKind::Xnor2 => 1.596,
            CellKind::Mux2 => 1.330,
        }
    }

    /// Energy per output toggle in fJ (internal + average load switching).
    pub fn energy(self) -> f64 {
        match self {
            CellKind::Inv => 0.40,
            CellKind::Nand2 => 0.55,
            CellKind::Nor2 => 0.55,
            CellKind::And2 => 0.72,
            CellKind::Or2 => 0.72,
            CellKind::Xor2 => 1.10,
            CellKind::Xnor2 => 1.10,
            CellKind::Mux2 => 0.95,
        }
    }

    /// Nominal propagation delay in ps (for the critical-path report).
    pub fn delay(self) -> f64 {
        match self {
            CellKind::Inv => 12.0,
            CellKind::Nand2 => 18.0,
            CellKind::Nor2 => 20.0,
            CellKind::And2 => 24.0,
            CellKind::Or2 => 26.0,
            CellKind::Xor2 => 36.0,
            CellKind::Xnor2 => 36.0,
            CellKind::Mux2 => 30.0,
        }
    }

    /// Number of inputs the cell reads.
    pub fn arity(self) -> usize {
        match self {
            CellKind::Inv => 1,
            CellKind::Mux2 => 3,
            _ => 2,
        }
    }

    /// Evaluates the cell's boolean function on 64 lanes at once, one
    /// bit per lane. `inputs[..arity]` are read; for [`CellKind::Mux2`]
    /// the order is `(a, b, sel)` and the output is `sel ? b : a`.
    pub fn eval(self, inputs: [u64; 3]) -> u64 {
        let [a, b, s] = inputs;
        match self {
            CellKind::Inv => !a,
            CellKind::Nand2 => !(a & b),
            CellKind::Nor2 => !(a | b),
            CellKind::And2 => a & b,
            CellKind::Or2 => a | b,
            CellKind::Xor2 => a ^ b,
            CellKind::Xnor2 => !(a ^ b),
            CellKind::Mux2 => (a & !s) | (b & s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truth_tables() {
        use CellKind::*;
        // Lane j of the operand words holds the input combination
        // (a, b, sel) = (bit 0, bit 1, bit 2 of j), j = 0..8.
        let (a, b, s) = (0b1010_1010u64, 0b1100_1100u64, 0b1111_0000u64);
        let low8 = |w: u64| w & 0xFF;
        assert_eq!(low8(Inv.eval([a, b, s])), 0b0101_0101);
        assert_eq!(low8(Nand2.eval([a, b, s])), 0b0111_0111);
        assert_eq!(low8(Nor2.eval([a, b, s])), 0b0001_0001);
        assert_eq!(And2.eval([a, b, s]), 0b1000_1000);
        assert_eq!(Or2.eval([a, b, s]), 0b1110_1110);
        assert_eq!(Xor2.eval([a, b, s]), 0b0110_0110);
        assert_eq!(low8(Xnor2.eval([a, b, s])), 0b1001_1001);
        // Mux2: (a, b, sel) → sel ? b : a.
        assert_eq!(Mux2.eval([a, b, s]), 0b1100_1010);
    }

    #[test]
    fn bigger_cells_cost_more() {
        assert!(CellKind::Inv.area() < CellKind::Nand2.area());
        assert!(CellKind::Nand2.area() < CellKind::Xor2.area());
        assert!(CellKind::Inv.energy() < CellKind::Xor2.energy());
    }

    #[test]
    fn arity_matches_eval_usage() {
        assert_eq!(CellKind::Inv.arity(), 1);
        assert_eq!(CellKind::Nand2.arity(), 2);
        assert_eq!(CellKind::Mux2.arity(), 3);
    }
}
