//! Gate-level netlists: construction with on-the-fly constant folding,
//! evaluation, and structural statistics.
//!
//! A [`Netlist`] is built the way RTL elaboration + light logic synthesis
//! would leave it: emission helpers ([`Netlist::and`], [`Netlist::mux`],
//! …) fold constants and trivial identities as the circuit is described,
//! so a multiplexer tree with hardwired constant inputs (the paper's
//! REALM lookup table) collapses to the handful of gates a synthesizer
//! would keep — which is precisely the effect behind the paper's claim
//! that the LUT has "little overhead".
//!
//! Gates are stored in emission order, which is topological by
//! construction (a gate can only read nets that already exist), so
//! evaluation, activity simulation and critical-path extraction are all
//! single passes. Evaluation is word-parallel: one pass carries 64
//! lanes (input vectors or stimulus cycles) through every gate.

use std::collections::HashMap;

use crate::cell::CellKind;

/// A single-bit wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Net(u32);

impl Net {
    /// The net's index into a state vector of [`Netlist::net_count`] bits.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// One technology-mapped gate instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gate {
    /// Cell type.
    pub kind: CellKind,
    /// Input nets; only the first [`CellKind::arity`] entries are read.
    /// For [`CellKind::Mux2`] the order is `(a, b, sel)`.
    pub inputs: [Net; 3],
    /// Output net.
    pub output: Net,
}

/// A combinational gate-level design with named input/output buses.
///
/// ```
/// use realm_synth::netlist::Netlist;
///
/// let mut nl = Netlist::new("toy");
/// let a = nl.input_bus("a", 2);
/// let b = nl.input_bus("b", 2);
/// let y = vec![nl.xor(a[0], b[0]), nl.and(a[1], b[1])];
/// nl.output_bus("y", y);
/// let out = nl.eval(&[("a", 0b11), ("b", 0b01)]);
/// assert_eq!(out["y"], 0b00); // bit0 = 1^1 = 0, bit1 = 1&0 = 0
/// ```
#[derive(Debug, Clone)]
pub struct Netlist {
    name: String,
    /// Constant value of each net, if known at build time.
    consts: Vec<Option<bool>>,
    gates: Vec<Gate>,
    inputs: Vec<(String, Vec<Net>)>,
    outputs: Vec<(String, Vec<Net>)>,
    zero: Net,
    one: Net,
    /// Structural hashing: `(kind, inputs) → output`, so identical gates
    /// are emitted once (classic CSE — what lets the constant LUT's mux
    /// tree share its common subtrees, as a synthesizer would).
    structural: HashMap<(CellKind, [Net; 3]), Net>,
}

impl Netlist {
    /// Creates an empty netlist. Nets 0 and 1 are the constant 0/1 rails.
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            consts: vec![Some(false), Some(true)],
            gates: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            zero: Net(0),
            one: Net(1),
            structural: HashMap::new(),
        }
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The constant-0 rail.
    pub fn zero(&self) -> Net {
        self.zero
    }

    /// The constant-1 rail.
    pub fn one(&self) -> Net {
        self.one
    }

    /// A constant rail for `value`.
    pub fn constant(&self, value: bool) -> Net {
        if value {
            self.one
        } else {
            self.zero
        }
    }

    fn fresh(&mut self) -> Net {
        let id = self.consts.len() as u32;
        self.consts.push(None);
        Net(id)
    }

    /// Declares an input bus of `width` bits, LSB first.
    pub fn input_bus(&mut self, name: impl Into<String>, width: u32) -> Vec<Net> {
        let nets: Vec<Net> = (0..width).map(|_| self.fresh()).collect();
        self.inputs.push((name.into(), nets.clone()));
        nets
    }

    /// Declares an output bus, LSB first. Constant and pass-through bits
    /// are allowed (they cost no gates, as in real synthesis).
    pub fn output_bus(&mut self, name: impl Into<String>, bits: Vec<Net>) {
        self.outputs.push((name.into(), bits));
    }

    fn const_of(&self, n: Net) -> Option<bool> {
        self.consts[n.0 as usize]
    }

    fn emit(&mut self, kind: CellKind, mut inputs: [Net; 3]) -> Net {
        // Canonicalize commutative inputs so (a, b) and (b, a) hash alike.
        let commutative = !matches!(kind, CellKind::Mux2 | CellKind::Inv);
        if commutative && inputs[1].0 < inputs[0].0 {
            inputs.swap(0, 1);
            inputs[2] = inputs[0];
        }
        if let Some(&existing) = self.structural.get(&(kind, inputs)) {
            return existing;
        }
        let out = self.fresh();
        self.gates.push(Gate {
            kind,
            inputs,
            output: out,
        });
        self.structural.insert((kind, inputs), out);
        out
    }

    /// Inverter with constant folding.
    pub fn not(&mut self, a: Net) -> Net {
        match self.const_of(a) {
            Some(v) => self.constant(!v),
            None => self.emit(CellKind::Inv, [a, a, a]),
        }
    }

    /// 2-input AND with constant/identity folding.
    pub fn and(&mut self, a: Net, b: Net) -> Net {
        match (self.const_of(a), self.const_of(b)) {
            (Some(false), _) | (_, Some(false)) => self.zero,
            (Some(true), _) => b,
            (_, Some(true)) => a,
            _ if a == b => a,
            _ => self.emit(CellKind::And2, [a, b, a]),
        }
    }

    /// 2-input OR with constant/identity folding.
    pub fn or(&mut self, a: Net, b: Net) -> Net {
        match (self.const_of(a), self.const_of(b)) {
            (Some(true), _) | (_, Some(true)) => self.one,
            (Some(false), _) => b,
            (_, Some(false)) => a,
            _ if a == b => a,
            _ => self.emit(CellKind::Or2, [a, b, a]),
        }
    }

    /// 2-input NAND with constant folding.
    pub fn nand(&mut self, a: Net, b: Net) -> Net {
        match (self.const_of(a), self.const_of(b)) {
            (Some(false), _) | (_, Some(false)) => self.one,
            (Some(true), _) => self.not(b),
            (_, Some(true)) => self.not(a),
            _ => self.emit(CellKind::Nand2, [a, b, a]),
        }
    }

    /// 2-input NOR with constant folding.
    pub fn nor(&mut self, a: Net, b: Net) -> Net {
        match (self.const_of(a), self.const_of(b)) {
            (Some(true), _) | (_, Some(true)) => self.zero,
            (Some(false), _) => self.not(b),
            (_, Some(false)) => self.not(a),
            _ => self.emit(CellKind::Nor2, [a, b, a]),
        }
    }

    /// 2-input XOR with constant/identity folding.
    pub fn xor(&mut self, a: Net, b: Net) -> Net {
        match (self.const_of(a), self.const_of(b)) {
            (Some(false), _) => b,
            (_, Some(false)) => a,
            (Some(true), _) => self.not(b),
            (_, Some(true)) => self.not(a),
            _ if a == b => self.zero,
            _ => self.emit(CellKind::Xor2, [a, b, a]),
        }
    }

    /// 2-input XNOR with constant/identity folding.
    pub fn xnor(&mut self, a: Net, b: Net) -> Net {
        let x = self.xor(a, b);
        self.not(x)
    }

    /// 2:1 mux `sel ? b : a` with constant/identity folding.
    pub fn mux(&mut self, sel: Net, a: Net, b: Net) -> Net {
        if a == b {
            return a;
        }
        match self.const_of(sel) {
            Some(false) => return a,
            Some(true) => return b,
            None => {}
        }
        match (self.const_of(a), self.const_of(b)) {
            (Some(false), Some(true)) => sel,
            (Some(true), Some(false)) => self.not(sel),
            (Some(false), None) => self.and(sel, b),
            (Some(true), None) => {
                let ns = self.not(sel);
                self.or(ns, b)
            }
            (None, Some(false)) => {
                let ns = self.not(sel);
                self.and(ns, a)
            }
            (None, Some(true)) => self.or(sel, a),
            _ => self.emit(CellKind::Mux2, [a, b, sel]),
        }
    }

    /// Number of gates after folding.
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// The gates, in topological (emission) order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Total number of nets (constants + inputs + gate outputs).
    pub fn net_count(&self) -> usize {
        self.consts.len()
    }

    /// Named input buses.
    pub fn inputs(&self) -> &[(String, Vec<Net>)] {
        &self.inputs
    }

    /// Named output buses.
    pub fn outputs(&self) -> &[(String, Vec<Net>)] {
        &self.outputs
    }

    /// Combinational cell area in library µm² (uncalibrated; see
    /// [`crate::report`] for the paper-calibrated figures).
    pub fn area(&self) -> f64 {
        self.gates.iter().map(|g| g.kind.area()).sum()
    }

    /// Gate count per cell kind.
    pub fn census(&self) -> HashMap<CellKind, usize> {
        let mut census = HashMap::new();
        for g in &self.gates {
            *census.entry(g.kind).or_insert(0) += 1;
        }
        census
    }

    /// Critical-path delay in ps (longest register-to-register
    /// combinational path under the nominal per-cell delays).
    pub fn critical_path(&self) -> f64 {
        let mut arrival = vec![0.0f64; self.net_count()];
        let mut worst = 0.0f64;
        for g in &self.gates {
            let t = g.inputs[..g.kind.arity()]
                .iter()
                .map(|n| arrival[n.0 as usize])
                .fold(0.0, f64::max)
                + g.kind.delay();
            arrival[g.output.0 as usize] = t;
            worst = worst.max(t);
        }
        worst
    }

    /// Evaluates every gate in order on [`LANES`] lanes at once, one bit
    /// per lane: `words[n]` holds net `n`. The caller loads the input nets
    /// (see [`set_lanes`]); this sets the constant rails. `stuck =
    /// Some((gate, value))` forces gate `gate`'s output to `value` in
    /// every lane (a stuck-at fault).
    ///
    /// # Panics
    ///
    /// Panics if `words` holds fewer than [`Netlist::net_count`] words.
    pub(crate) fn eval_words(&self, words: &mut [u64], stuck: Option<(usize, bool)>) {
        words[0] = 0;
        words[1] = u64::MAX;
        for (i, g) in self.gates.iter().enumerate() {
            words[g.output.index()] = match stuck {
                Some((gate, value)) if gate == i => 0u64.wrapping_sub(u64::from(value)),
                _ => g.kind.eval(g.inputs.map(|n| words[n.index()])),
            };
        }
    }

    /// Evaluates the netlist for the given input bus values (LSB-first
    /// buses, one `u64` per bus) and returns every output bus value.
    ///
    /// # Panics
    ///
    /// Panics if a declared input bus is missing from `inputs` or a value
    /// overflows its bus.
    pub fn eval(&self, inputs: &[(&str, u64)]) -> HashMap<String, u64> {
        let by_name: HashMap<&str, u64> = inputs.iter().copied().collect();
        let mut words = vec![0; self.net_count()];
        for (name, nets) in &self.inputs {
            let value = *by_name
                .get(name.as_str())
                .unwrap_or_else(|| panic!("missing value for input bus '{name}'"));
            assert!(
                value <= bus_max(nets.len()),
                "value {value:#x} overflows {}-bit input bus '{name}'",
                nets.len()
            );
            set_lanes(&mut words, nets, &[value]);
        }
        self.eval_words(&mut words, None);
        self.outputs
            .iter()
            .map(|(name, nets)| (name.clone(), read_lane(&words, nets, 0)))
            .collect()
    }

    /// Dead-logic sweep: removes gates whose outputs reach no output bus
    /// (transitively), returning the number of gates removed. Mirrors the
    /// sweep pass every synthesizer runs before reporting area.
    pub fn sweep(&mut self) -> usize {
        let mut live = vec![false; self.net_count()];
        for (_, nets) in &self.outputs {
            for n in nets {
                live[n.index()] = true;
            }
        }
        // Gates are topological, so one reverse pass settles liveness.
        for g in self.gates.iter().rev() {
            if live[g.output.index()] {
                for i in 0..g.kind.arity() {
                    live[g.inputs[i].index()] = true;
                }
            }
        }
        let before = self.gates.len();
        self.gates.retain(|g| live[g.output.index()]);
        // Structural-hash entries for removed gates are stale; rebuild.
        self.structural = self
            .gates
            .iter()
            .map(|g| ((g.kind, g.inputs), g.output))
            .collect();
        before - self.gates.len()
    }

    /// Convenience: evaluate and read a single output bus.
    ///
    /// # Panics
    ///
    /// Panics if the output bus does not exist (plus the panics of
    /// [`Netlist::eval`]).
    pub fn eval_one(&self, inputs: &[(&str, u64)], output: &str) -> u64 {
        *self
            .eval(inputs)
            .get(output)
            .unwrap_or_else(|| panic!("no output bus named '{output}'"))
    }
}

/// Lanes per word: one [`Netlist::eval_words`] pass evaluates 64 input
/// vectors, or 64 cycles of a stimulus.
pub(crate) const LANES: usize = 64;

/// The largest value a `width`-bit bus holds.
pub(crate) fn bus_max(width: usize) -> u64 {
    u64::MAX.checked_shr(64 - width.min(64) as u32).unwrap_or(0)
}

/// Loads a bus with one value per lane: lane `j` of the bus's bit `i` is
/// bit `i` of `values[j]`, or 0 past the values or past bit 63. Panics on
/// more than [`LANES`] values.
pub(crate) fn set_lanes(words: &mut [u64], bus: &[Net], values: &[u64]) {
    assert!(values.len() <= LANES, "more values than lanes");
    for (i, net) in bus.iter().enumerate() {
        words[net.index()] = values.iter().enumerate().fold(0, |w, (j, v)| {
            w | ((v.checked_shr(i as u32).unwrap_or(0) & 1) << j)
        });
    }
}

/// A bus's value (LSB first) in lane `lane < LANES` of a
/// [`Netlist::eval_words`] pass; bus bits past 64 are dropped.
pub(crate) fn read_lane(words: &[u64], bus: &[Net], lane: usize) -> u64 {
    assert!(lane < LANES, "lane {lane} out of range");
    bus.iter().zip(0..64).fold(0, |v, (net, i)| {
        v | (((words[net.index()] >> lane) & 1) << i)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_folding_collapses_gates() {
        let mut nl = Netlist::new("fold");
        let a = nl.input_bus("a", 1)[0];
        let one = nl.one();
        let zero = nl.zero();
        assert_eq!(nl.and(a, one), a);
        assert_eq!(nl.and(a, zero), zero);
        assert_eq!(nl.or(a, zero), a);
        assert_eq!(nl.or(a, one), one);
        assert_eq!(nl.xor(a, zero), a);
        assert_eq!(nl.mux(zero, a, one), a);
        assert_eq!(nl.mux(one, a, one), one);
        assert_eq!(nl.gate_count(), 0, "all of the above should fold away");
    }

    #[test]
    fn mux_with_constant_data_uses_cheap_gates() {
        let mut nl = Netlist::new("lutbit");
        let s = nl.input_bus("s", 1)[0];
        let zero = nl.zero();
        let one = nl.one();
        // 0/1 constant leaves become wire or inverter.
        assert_eq!(nl.mux(s, zero, one), s);
        let inv = nl.mux(s, one, zero);
        assert_eq!(nl.gate_count(), 1);
        nl.output_bus("y", vec![inv]);
        assert_eq!(nl.eval_one(&[("s", 0)], "y"), 1);
        assert_eq!(nl.eval_one(&[("s", 1)], "y"), 0);
    }

    #[test]
    fn full_truth_table_of_each_op() {
        let mut nl = Netlist::new("ops");
        let a = nl.input_bus("a", 1)[0];
        let b = nl.input_bus("b", 1)[0];
        let ops: Vec<(&str, Net)> = vec![
            ("and", nl.and(a, b)),
            ("or", nl.or(a, b)),
            ("xor", nl.xor(a, b)),
            ("nand", nl.nand(a, b)),
            ("nor", nl.nor(a, b)),
            ("xnor", nl.xnor(a, b)),
        ];
        for (name, net) in ops {
            nl.output_bus(name, vec![net]);
        }
        for av in 0..2u64 {
            for bv in 0..2u64 {
                let out = nl.eval(&[("a", av), ("b", bv)]);
                assert_eq!(out["and"], av & bv);
                assert_eq!(out["or"], av | bv);
                assert_eq!(out["xor"], av ^ bv);
                assert_eq!(out["nand"], 1 ^ (av & bv));
                assert_eq!(out["nor"], 1 ^ (av | bv));
                assert_eq!(out["xnor"], 1 ^ (av ^ bv));
            }
        }
    }

    #[test]
    fn mux_selects() {
        let mut nl = Netlist::new("mux");
        let a = nl.input_bus("a", 1)[0];
        let b = nl.input_bus("b", 1)[0];
        let s = nl.input_bus("s", 1)[0];
        let y = nl.mux(s, a, b);
        nl.output_bus("y", vec![y]);
        for (av, bv, sv, want) in [
            (0u64, 1u64, 0u64, 0u64),
            (0, 1, 1, 1),
            (1, 0, 0, 1),
            (1, 0, 1, 0),
        ] {
            assert_eq!(nl.eval_one(&[("a", av), ("b", bv), ("s", sv)], "y"), want);
        }
    }

    #[test]
    fn area_and_census_track_gates() {
        let mut nl = Netlist::new("census");
        let a = nl.input_bus("a", 1)[0];
        let b = nl.input_bus("b", 1)[0];
        let x = nl.xor(a, b);
        let y = nl.and(a, x);
        nl.output_bus("y", vec![y]);
        assert_eq!(nl.gate_count(), 2);
        let census = nl.census();
        assert_eq!(census[&CellKind::Xor2], 1);
        assert_eq!(census[&CellKind::And2], 1);
        let expect = CellKind::Xor2.area() + CellKind::And2.area();
        assert!((nl.area() - expect).abs() < 1e-12);
    }

    #[test]
    fn critical_path_accumulates_along_chain() {
        let mut nl = Netlist::new("chain");
        let a = nl.input_bus("a", 1)[0];
        let b = nl.input_bus("b", 1)[0];
        let mut v = nl.and(a, b);
        for _ in 0..3 {
            v = nl.xor(v, a);
        }
        nl.output_bus("y", vec![v]);
        let expect = CellKind::And2.delay() + 3.0 * CellKind::Xor2.delay();
        assert!((nl.critical_path() - expect).abs() < 1e-9);
    }

    #[test]
    fn constant_output_bits_cost_nothing() {
        let mut nl = Netlist::new("const-out");
        let one = nl.one();
        let zero = nl.zero();
        nl.output_bus("y", vec![one, zero, one]);
        assert_eq!(nl.gate_count(), 0);
        assert_eq!(nl.eval_one(&[], "y"), 0b101);
    }

    #[test]
    fn sweep_removes_dead_cones_only() {
        let mut nl = Netlist::new("sweep");
        let a = nl.input_bus("a", 1)[0];
        let b = nl.input_bus("b", 1)[0];
        let live = nl.and(a, b);
        let dead1 = nl.xor(a, b);
        let _dead2 = nl.or(dead1, a); // a whole dead cone
        nl.output_bus("y", vec![live]);
        assert_eq!(nl.gate_count(), 3);
        assert_eq!(nl.sweep(), 2);
        assert_eq!(nl.gate_count(), 1);
        assert_eq!(nl.eval_one(&[("a", 1), ("b", 1)], "y"), 1);
        assert_eq!(nl.eval_one(&[("a", 1), ("b", 0)], "y"), 0);
    }

    #[test]
    fn sweep_on_clean_design_is_noop() {
        let mut nl = Netlist::new("clean");
        let a = nl.input_bus("a", 4);
        let b = nl.input_bus("b", 4);
        let bits: Vec<Net> = a.iter().zip(&b).map(|(&x, &y)| nl.xor(x, y)).collect();
        nl.output_bus("y", bits);
        assert_eq!(nl.sweep(), 0);
    }

    #[test]
    #[should_panic(expected = "missing value for input bus")]
    fn missing_input_panics() {
        let mut nl = Netlist::new("x");
        let a = nl.input_bus("a", 2);
        nl.output_bus("y", a);
        let _ = nl.eval(&[]);
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn oversized_value_panics() {
        let mut nl = Netlist::new("x");
        let a = nl.input_bus("a", 2);
        nl.output_bus("y", a);
        let _ = nl.eval(&[("a", 7)]);
    }

    #[test]
    #[should_panic(expected = "more values than lanes")]
    fn set_lanes_rejects_a_65th_value() {
        let mut nl = Netlist::new("x");
        let a = nl.input_bus("a", 1);
        let mut words = vec![0; nl.net_count()];
        set_lanes(&mut words, &a, &[1; LANES + 1]);
    }

    #[test]
    #[should_panic(expected = "lane 64 out of range")]
    fn read_lane_rejects_lane_64() {
        let mut nl = Netlist::new("x");
        let a = nl.input_bus("a", 1);
        let words = vec![u64::MAX; nl.net_count()];
        read_lane(&words, &a, LANES);
    }
}
