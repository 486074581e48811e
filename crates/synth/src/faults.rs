//! Stuck-at fault injection and error-sensitivity analysis.
//!
//! Approximate computing and fault tolerance are two sides of the same
//! coin: a datapath that the application tolerates at ±2 % error may also
//! tolerate certain manufacturing faults. This module injects single
//! stuck-at-0/1 faults on gate outputs and measures the functional impact
//! (detection probability and induced relative error) under random
//! stimulus — a miniature fault-simulation flow over the same netlists
//! the area/power model uses.

use realm_core::rng::SplitMix64;

use crate::netlist::{bus_max, read_lane, set_lanes, Netlist, LANES};
use std::fmt;
use std::ops::Range;

/// The datapath stage a gate belongs to, for staged netlists (see
/// [`crate::designs::realm_netlist_staged`]). Mirrors the functional
/// fault-site classes of the `realm-fault` crate so that gate-level and
/// functional campaigns can be compared class by class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StageClass {
    /// Leading-one detection (the characteristic `k`).
    Characteristic,
    /// Fraction path: normalizing shifter, fraction-sum adder, `s/2`
    /// mux, correction add and mantissa assembly.
    Fraction,
    /// The hardwired LUT multiplexer holding the `(q−2)`-bit factors.
    LutFactor,
    /// The characteristic-sum adder driving the antilog shift amount.
    ShiftAmount,
    /// The final antilog barrel shifter, saturation and zero masking.
    Antilog,
}

impl StageClass {
    /// All stages, in datapath order.
    pub const ALL: [StageClass; 5] = [
        StageClass::Characteristic,
        StageClass::Fraction,
        StageClass::LutFactor,
        StageClass::ShiftAmount,
        StageClass::Antilog,
    ];

    /// Short stable label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            StageClass::Characteristic => "characteristic",
            StageClass::Fraction => "fraction",
            StageClass::LutFactor => "lut-factor",
            StageClass::ShiftAmount => "shift-amount",
            StageClass::Antilog => "antilog",
        }
    }
}

impl fmt::Display for StageClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A contiguous range of gate indices belonging to one datapath stage.
/// Staged generators emit gates stage by stage, so construction order
/// yields these spans directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSpan {
    /// The stage the gates implement.
    pub stage: StageClass,
    /// Indices into [`Netlist::gates`].
    pub gates: Range<usize>,
}

/// Per-stage aggregate of a gate-level fault campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageImpact {
    /// The stage the faults were injected into.
    pub stage: StageClass,
    /// Gates available in the stage.
    pub gates: usize,
    /// Faults actually simulated.
    pub faults: usize,
    /// Mean fraction of vectors whose outputs changed, across the
    /// stage's faults.
    pub detection_rate: f64,
    /// Mean induced |relative error| across the stage's faults.
    pub mean_relative_error: f64,
}

impl fmt::Display for StageImpact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<16} gates={:<5} faults={:<3} detect={:6.2}% MRE={:.3}",
            self.stage.to_string(),
            self.gates,
            self.faults,
            self.detection_rate * 100.0,
            self.mean_relative_error,
        )
    }
}

/// Stage-resolved fault sensitivity: samples up to `faults_per_stage`
/// stuck-at faults inside each stage span and simulates each with
/// `vectors` random vectors. Stages with no gates (e.g. a LUT folded
/// entirely into wiring) are skipped.
pub fn stage_sensitivity(
    nl: &Netlist,
    spans: &[StageSpan],
    faults_per_stage: usize,
    vectors: u32,
    seed: u64,
) -> Vec<StageImpact> {
    let mut impacts = Vec::new();
    for stage in StageClass::ALL {
        let gates: Vec<usize> = spans
            .iter()
            .filter(|s| s.stage == stage)
            .flat_map(|s| s.gates.clone())
            .collect();
        if gates.is_empty() {
            continue;
        }
        let mut rng = SplitMix64::new(seed ^ (stage as u64).wrapping_mul(0x9E37_79B9));
        let n = faults_per_stage.min(2 * gates.len()).max(1);
        let mut det_sum = 0.0;
        let mut err_sum = 0.0;
        for _ in 0..n {
            let fault = Fault {
                gate: gates[rng.index(gates.len())],
                stuck_at: rng.chance(0.5),
            };
            let impact = simulate_fault(nl, fault, vectors, rng.next_u64());
            det_sum += impact.detection_rate;
            err_sum += impact.mean_relative_error;
        }
        impacts.push(StageImpact {
            stage,
            gates: gates.len(),
            faults: n,
            detection_rate: det_sum / n as f64,
            mean_relative_error: err_sum / n as f64,
        });
    }
    impacts
}

/// A single stuck-at fault site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// Index into [`Netlist::gates`] whose output is stuck.
    pub gate: usize,
    /// The stuck value.
    pub stuck_at: bool,
}

/// Result of simulating one fault under random stimulus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultImpact {
    /// The injected fault.
    pub fault: Fault,
    /// Fraction of vectors whose primary outputs changed.
    pub detection_rate: f64,
    /// Mean |relative error| induced on the first output bus, over
    /// vectors where the fault propagated and the fault-free value was
    /// nonzero.
    pub mean_relative_error: f64,
}

/// Simulates one fault with `vectors` random input vectors, 64 per pass:
/// one fault-free and one faulty word-parallel pass, lane `j` being the
/// pass's `j`-th vector. Vectors are drawn vector by vector and the
/// relative errors are summed in vector order.
///
/// # Panics
///
/// Panics if the fault's gate index is out of range or the netlist has no
/// outputs.
pub fn simulate_fault(nl: &Netlist, fault: Fault, vectors: u32, seed: u64) -> FaultImpact {
    assert!(fault.gate < nl.gate_count(), "fault site out of range");
    assert!(!nl.outputs().is_empty(), "netlist has no outputs");
    let mut rng = SplitMix64::new(seed);
    let out = &nl.outputs()[0].1;
    let mut clean = vec![0; nl.net_count()];
    let mut faulty = vec![0; nl.net_count()];
    // One pass's vectors, one buffer of lane values per input bus.
    let mut values = vec![Vec::with_capacity(LANES); nl.inputs().len()];
    let mut detected = 0u32;
    let mut err_sum = 0.0f64;
    let mut err_n = 0u32;
    for first in (0..vectors as usize).step_by(LANES) {
        let lanes = (vectors as usize - first).min(LANES);
        values.iter_mut().for_each(Vec::clear);
        for _ in 0..lanes {
            for (bus, (_, nets)) in values.iter_mut().zip(nl.inputs()) {
                bus.push(rng.range_inclusive(0, bus_max(nets.len())));
            }
        }
        for (bus, (_, nets)) in values.iter().zip(nl.inputs()) {
            set_lanes(&mut clean, nets, bus);
        }
        nl.eval_words(&mut clean, None);
        faulty.copy_from_slice(&clean);
        nl.eval_words(&mut faulty, Some((fault.gate, fault.stuck_at)));
        for lane in 0..lanes {
            let good = read_lane(&clean, out, lane);
            let bad = read_lane(&faulty, out, lane);
            if good != bad {
                detected += 1;
                if good != 0 {
                    err_sum += ((bad as f64 - good as f64) / good as f64).abs();
                    err_n += 1;
                }
            }
        }
    }
    FaultImpact {
        fault,
        detection_rate: detected as f64 / vectors as f64,
        mean_relative_error: if err_n > 0 {
            err_sum / err_n as f64
        } else {
            0.0
        },
    }
}

/// Samples `count` distinct single stuck-at faults (deterministic given
/// the seed) across the netlist's gates.
pub fn sample_faults(nl: &Netlist, count: usize, seed: u64) -> Vec<Fault> {
    let mut rng = SplitMix64::new(seed);
    let mut faults = Vec::with_capacity(count);
    for _ in 0..count {
        faults.push(Fault {
            gate: rng.index(nl.gate_count()),
            stuck_at: rng.chance(0.5),
        });
    }
    faults
}

/// Fault-sensitivity summary of a design: mean detection rate and mean
/// induced error across a fault sample.
pub fn sensitivity(nl: &Netlist, fault_count: usize, vectors: u32, seed: u64) -> (f64, f64) {
    let faults = sample_faults(nl, fault_count, seed);
    let impacts: Vec<FaultImpact> = faults
        .into_iter()
        .map(|f| simulate_fault(nl, f, vectors, seed ^ 0xF00D))
        .collect();
    let det = impacts.iter().map(|i| i.detection_rate).sum::<f64>() / impacts.len() as f64;
    let err = impacts.iter().map(|i| i.mean_relative_error).sum::<f64>() / impacts.len() as f64;
    (det, err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::multiplier::wallace_netlist;
    use crate::designs::calm_netlist;

    #[test]
    fn fault_free_reference_matches_eval() {
        let nl = wallace_netlist(8);
        let mut words = vec![0; nl.net_count()];
        set_lanes(&mut words, &nl.inputs()[0].1, &[13, 200]);
        set_lanes(&mut words, &nl.inputs()[1].1, &[11, 255]);
        nl.eval_words(&mut words, None);
        let p = &nl.outputs()[0].1;
        assert_eq!(read_lane(&words, p, 0), 143);
        assert_eq!(read_lane(&words, p, 1), 200 * 255);
        assert_eq!(
            read_lane(&words, p, 0),
            nl.eval_one(&[("a", 13), ("b", 11)], "p")
        );
    }

    #[test]
    fn injected_fault_changes_some_outputs() {
        let nl = wallace_netlist(8);
        // Fault on the very first partial-product AND gate.
        let impact = simulate_fault(
            &nl,
            Fault {
                gate: 0,
                stuck_at: true,
            },
            200,
            42,
        );
        assert!(
            impact.detection_rate > 0.1,
            "rate {}",
            impact.detection_rate
        );
        assert!(impact.detection_rate < 1.0);
    }

    #[test]
    fn stuck_at_current_value_is_never_detected_when_constant() {
        // A fault forcing a gate to the value it already always has is
        // undetectable; find one by checking a gate whose output is
        // almost always 0 under sparse stimulus.
        let nl = wallace_netlist(8);
        let f0 = simulate_fault(
            &nl,
            Fault {
                gate: 0,
                stuck_at: false,
            },
            200,
            7,
        );
        let f1 = simulate_fault(
            &nl,
            Fault {
                gate: 0,
                stuck_at: true,
            },
            200,
            7,
        );
        // Exactly one polarity matches the gate's value on each vector, so
        // the two detection rates must sum to at most 1.
        assert!(f0.detection_rate + f1.detection_rate <= 1.0 + 1e-12);
    }

    #[test]
    fn sensitivity_is_reproducible_and_bounded() {
        let nl = calm_netlist(8);
        let (d1, e1) = sensitivity(&nl, 12, 80, 5);
        let (d2, e2) = sensitivity(&nl, 12, 80, 5);
        assert_eq!((d1, e1), (d2, e2));
        assert!((0.0..=1.0).contains(&d1));
        assert!(e1 >= 0.0);
    }

    #[test]
    #[should_panic(expected = "fault site out of range")]
    fn out_of_range_fault_panics() {
        let nl = wallace_netlist(4);
        let _ = simulate_fault(
            &nl,
            Fault {
                gate: 1_000_000,
                stuck_at: true,
            },
            10,
            1,
        );
    }
}
