//! Switching-activity simulation and dynamic power estimation.
//!
//! The paper annotates inputs with a 25 % toggle rate and 50 % one-
//! probability before power analysis at 1 GHz; this module reproduces
//! that stimulus: random base vectors with each bit flipping with
//! probability 0.25 per cycle, gate-accurate propagation 64 cycles per
//! pass, per-cell toggle counting weighted by per-cell switching energy.

use realm_core::rng::SplitMix64;

use crate::netlist::{Netlist, LANES};

/// Stimulus and clock parameters for a power run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerSim {
    /// Number of simulated cycles (vector transitions).
    pub cycles: u32,
    /// RNG seed (campaigns are reproducible).
    pub seed: u64,
    /// Per-bit toggle probability per cycle (the paper uses 0.25).
    pub toggle_rate: f64,
    /// Clock frequency in Hz (the paper uses 1 GHz).
    pub frequency: f64,
}

impl PowerSim {
    /// The paper's stimulus: 25 % toggle rate at 1 GHz.
    pub fn paper_stimulus(cycles: u32, seed: u64) -> Self {
        PowerSim {
            cycles,
            seed,
            toggle_rate: 0.25,
            frequency: 1e9,
        }
    }

    /// Simulates the netlist and returns the estimated dynamic power in
    /// µW (uncalibrated library energies; see [`crate::report`] for the
    /// paper-calibrated reduction figures).
    ///
    /// Each word-parallel pass simulates 64 cycles, lane `j` being the
    /// pass's `j`-th cycle.
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is zero.
    pub fn dynamic_power(&self, nl: &Netlist) -> f64 {
        assert!(self.cycles > 0, "power simulation needs at least one cycle");
        let mut rng = SplitMix64::new(self.seed);
        let gates = nl.gates();
        let energy: Vec<f64> = gates.iter().map(|g| g.kind.energy()).collect();
        let inputs = || nl.inputs().iter().flat_map(|(_, nets)| nets);
        let mut words = vec![0u64; nl.net_count()];

        // Initial random vector with 50 % one-probability, in every lane.
        for net in inputs() {
            words[net.index()] = 0u64.wrapping_sub(u64::from(rng.chance(0.5)));
        }
        nl.eval_words(&mut words, None);
        // Each gate's output at the previous cycle.
        let mut last: Vec<u64> = gates.iter().map(|g| words[g.output.index()] & 1).collect();
        // Per-cycle gate bitsets of one pass: word `j * blocks + g / 64`,
        // bit `g % 64` is set when gate `g` toggles at lane `j`.
        let blocks = gates.len().div_ceil(64).max(1);
        let mut toggled = vec![0u64; LANES * blocks];

        let mut energy_fj = 0.0f64;
        for first in (0..self.cycles as usize).step_by(LANES) {
            let lanes = (self.cycles as usize - first).min(LANES);
            // Every lane starts from the previous cycle's inputs; flip each
            // input bit with the configured toggle rate, from its lane on.
            for net in inputs() {
                let w = &mut words[net.index()];
                *w = 0u64.wrapping_sub(*w >> 63);
            }
            for lane in 0..lanes {
                for net in inputs() {
                    if self.toggle_rate > 0.0 && rng.chance(self.toggle_rate) {
                        words[net.index()] ^= u64::MAX << lane;
                    }
                }
            }
            nl.eval_words(&mut words, None);
            for (g, (gate, last)) in gates.iter().zip(&mut last).enumerate() {
                let w = words[gate.output.index()];
                let mut t = (w ^ ((w << 1) | *last)) & (u64::MAX >> (LANES - lanes));
                *last = w >> 63;
                while t != 0 {
                    toggled[t.trailing_zeros() as usize * blocks + g / 64] |= 1 << (g % 64);
                    t &= t - 1;
                }
            }
            // Cycle by cycle, gate by gate: the f64 sum adds in the order
            // of a one-cycle-at-a-time simulation. Walking clears the sets.
            for cycle in toggled.chunks_exact_mut(blocks).take(lanes) {
                for (block, set) in cycle.iter_mut().enumerate() {
                    let mut m = std::mem::take(set);
                    while m != 0 {
                        energy_fj += energy[block * 64 + m.trailing_zeros() as usize];
                        m &= m - 1;
                    }
                }
            }
        }
        // fJ per cycle × cycles/s → W; report µW.
        let fj_per_cycle = energy_fj / self.cycles as f64;
        fj_per_cycle * 1e-15 * self.frequency * 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::multiplier::wallace_netlist;

    #[test]
    fn power_is_positive_and_deterministic() {
        let nl = wallace_netlist(8);
        let sim = PowerSim::paper_stimulus(200, 3);
        let p1 = sim.dynamic_power(&nl);
        let p2 = sim.dynamic_power(&nl);
        assert!(p1 > 0.0);
        assert_eq!(p1, p2);
    }

    #[test]
    fn bigger_multiplier_burns_more_power() {
        let sim = PowerSim::paper_stimulus(200, 3);
        let p8 = sim.dynamic_power(&wallace_netlist(8));
        let p16 = sim.dynamic_power(&wallace_netlist(16));
        assert!(p16 > 2.0 * p8, "p8 = {p8}, p16 = {p16}");
    }

    #[test]
    fn zero_toggle_rate_zero_power() {
        let nl = wallace_netlist(8);
        let sim = PowerSim {
            cycles: 50,
            seed: 1,
            toggle_rate: 0.0,
            frequency: 1e9,
        };
        assert_eq!(sim.dynamic_power(&nl), 0.0);
    }

    #[test]
    fn higher_toggle_rate_more_power() {
        let nl = wallace_netlist(8);
        let lo = PowerSim {
            cycles: 300,
            seed: 9,
            toggle_rate: 0.1,
            frequency: 1e9,
        };
        let hi = PowerSim {
            cycles: 300,
            seed: 9,
            toggle_rate: 0.5,
            frequency: 1e9,
        };
        assert!(hi.dynamic_power(&nl) > lo.dynamic_power(&nl));
    }
}
