//! Combinational equivalence checking between two netlists (or a netlist
//! and a behavioural reference) by exhaustive, corner and randomized
//! simulation — the verification layer behind this repository's
//! "two independent implementations must agree" methodology.

use realm_core::rng::SplitMix64;

use crate::netlist::{bus_max, read_lane, set_lanes, Netlist, LANES};

/// The verdict of an equivalence run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// No mismatch found over the executed vector set.
    Equivalent {
        /// Number of vectors simulated.
        vectors: u64,
    },
    /// A counterexample was found.
    Mismatch {
        /// Input bus values of the counterexample, in declaration order.
        inputs: Vec<(String, u64)>,
        /// Output bus with differing values.
        output: String,
        /// Value produced by the first design.
        got_a: u64,
        /// Value produced by the second design.
        got_b: u64,
    },
}

impl Verdict {
    /// True when no counterexample was found.
    pub fn is_equivalent(&self) -> bool {
        matches!(self, Verdict::Equivalent { .. })
    }
}

fn input_widths(nl: &Netlist) -> Vec<(String, u32)> {
    nl.inputs()
        .iter()
        .map(|(n, nets)| (n.clone(), nets.len() as u32))
        .collect()
}

/// Checks two netlists with identical port structure against each other:
/// all corner vectors (all-zeros, all-ones, single-bus extremes) plus
/// `random_vectors` seeded random vectors. Exhaustive when the total
/// input width is at most 16 bits. Vectors run 64 per word-parallel pass,
/// in that order; a mismatch reports the first mismatching vector and,
/// within it, the first differing output in declaration order.
///
/// # Panics
///
/// Panics if the two designs' input/output bus names or widths differ.
pub fn check_equivalence(a: &Netlist, b: &Netlist, random_vectors: u64, seed: u64) -> Verdict {
    let ports = input_widths(a);
    assert_eq!(ports, input_widths(b), "input port structure differs");
    let output_names = |nl: &Netlist| nl.outputs().iter().map(|(n, _)| n.clone()).collect();
    let names_a: Vec<String> = output_names(a);
    assert_eq!(names_a, output_names(b), "output port structure differs");

    let total_bits: u32 = ports.iter().map(|(_, w)| w).sum();
    let exhaustive = total_bits <= 16;
    let corners = 1u64 << ports.len().min(10);
    let count = if exhaustive {
        1u64 << total_bits
    } else {
        corners + random_vectors
    };
    let mut rng = SplitMix64::new(seed);
    let mut words_a = vec![0; a.net_count()];
    let mut words_b = vec![0; b.net_count()];
    // One pass's vectors, one buffer of lane values per input bus.
    let mut values = vec![Vec::with_capacity(LANES); ports.len()];
    for first in (0..count).step_by(LANES) {
        let lanes = (count - first).min(LANES as u64) as usize;
        values.iter_mut().for_each(Vec::clear);
        for i in first..first + lanes as u64 {
            // Vector `i`: the `i`-th exhaustive pattern, else corner `i`
            // (bit `k` of `i` drives bus `k` to all ones), else the next
            // seeded random draw.
            let mut offset = 0;
            for (k, (bus, &(_, w))) in values.iter_mut().zip(&ports).enumerate() {
                let max = bus_max(w as usize);
                bus.push(if exhaustive {
                    (i >> offset) & max
                } else if i < corners {
                    max * ((i >> k) & 1)
                } else {
                    rng.range_inclusive(0, max)
                });
                offset += w;
            }
        }
        for (k, bus) in values.iter().enumerate() {
            set_lanes(&mut words_a, &a.inputs()[k].1, bus);
            set_lanes(&mut words_b, &b.inputs()[k].1, bus);
        }
        a.eval_words(&mut words_a, None);
        b.eval_words(&mut words_b, None);
        for lane in 0..lanes {
            for ((name, out_a), (_, out_b)) in a.outputs().iter().zip(b.outputs()) {
                let got_a = read_lane(&words_a, out_a, lane);
                let got_b = read_lane(&words_b, out_b, lane);
                if got_a != got_b {
                    let inputs = ports.iter().zip(&values);
                    return Verdict::Mismatch {
                        inputs: inputs.map(|((n, _), bus)| (n.clone(), bus[lane])).collect(),
                        output: name.clone(),
                        got_a,
                        got_b,
                    };
                }
            }
        }
    }
    Verdict::Equivalent { vectors: count }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::adder::ripple_add;
    use crate::blocks::multiplier::wallace_netlist;

    fn adder(width: u32, broken: bool) -> Netlist {
        let mut nl = Netlist::new("adder");
        let a = nl.input_bus("a", width);
        let b = nl.input_bus("b", width);
        let zero = nl.zero();
        let mut s = ripple_add(&mut nl, &a, &b, zero);
        if broken {
            // Swap two sum bits: a subtle structural bug.
            s.swap(0, 1);
        }
        nl.output_bus("s", s);
        nl
    }

    #[test]
    fn identical_designs_are_equivalent_exhaustively() {
        let v = check_equivalence(&adder(6, false), &adder(6, false), 0, 1);
        assert_eq!(v, Verdict::Equivalent { vectors: 1 << 12 });
    }

    #[test]
    fn broken_design_yields_counterexample() {
        let v = check_equivalence(&adder(6, false), &adder(6, true), 0, 1);
        match v {
            Verdict::Mismatch {
                output,
                got_a,
                got_b,
                ..
            } => {
                assert_eq!(output, "s");
                assert_ne!(got_a, got_b);
            }
            other => panic!("expected mismatch, got {other:?}"),
        }
    }

    #[test]
    fn wide_designs_use_corners_and_random() {
        let v = check_equivalence(&wallace_netlist(16), &wallace_netlist(16), 50, 3);
        match v {
            Verdict::Equivalent { vectors } => assert!(vectors >= 54),
            other => panic!("expected equivalence, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "input port structure differs")]
    fn port_mismatch_panics() {
        let _ = check_equivalence(&adder(6, false), &adder(7, false), 0, 1);
    }
}
