//! Integration tests for the extension subsystems: the MSE factor
//! formulation, the approximate divider (behavioural + netlist), the
//! floating-point wrapper, Verilog export, equivalence checking, fault
//! injection and the DSP/ML substrates — all exercised through the
//! facade crate.

use realm::divider::{MitchellDivider, RealmDivider};
use realm::float::{ApproxFloat, FloatFormat};
use realm::metrics::MonteCarlo;
use realm::mse::mse_table;
use realm::synth::blocks::multiplier::wallace_netlist;
use realm::synth::designs::{realm_divider_netlist, realm_netlist};
use realm::synth::equiv::check_equivalence;
use realm::synth::faults::{sample_faults, simulate_fault};
use realm::synth::verilog::to_verilog;
use realm::{Realm, RealmConfig};

#[test]
fn mse_realm_matches_paper_realm_at_q6() {
    // At the paper's q = 6 the MSE and mean-error formulations quantize to
    // nearly identical LUTs; both must stay within REALM16's envelope.
    let mse = Realm::with_table(RealmConfig::n16(16, 0), &mse_table(16).expect("valid M"))
        .expect("valid configuration");
    let s = MonteCarlo::new(1 << 18, 5).characterize(&mse);
    assert!(
        s.mean_error < 0.005,
        "MSE-REALM mean error {:.4}",
        s.mean_error
    );
    assert!(
        s.peak_error() < 0.023,
        "MSE-REALM peak {:.4}",
        s.peak_error()
    );
}

#[test]
fn divider_behavioural_and_netlist_agree_through_facade() {
    let model = RealmDivider::new(16, 8, 2).expect("valid configuration");
    let nl = realm_divider_netlist(&model);
    for (a, b) in [
        (50_000u64, 123u64),
        (65_535, 65_535),
        (0, 7),
        (7, 0),
        (1, 1),
        (999, 37),
    ] {
        assert_eq!(
            nl.eval_one(&[("a", a), ("b", b)], "q"),
            model.divide(a, b),
            "({a}, {b})"
        );
    }
}

#[test]
fn divider_improves_on_mitchell_division() {
    let realm = RealmDivider::new(16, 8, 0).expect("valid configuration");
    let classic = MitchellDivider::new(16);
    let (mut me_r, mut me_c, mut n) = (0.0, 0.0, 0u32);
    for a in (1_000..65_536u64).step_by(331) {
        for b in (2..256u64).step_by(11) {
            if a / b < 64 {
                continue;
            }
            let exact = a as f64 / b as f64;
            me_r += ((realm.divide(a, b) as f64 - exact) / exact).abs();
            me_c += ((classic.divide(a, b) as f64 - exact) / exact).abs();
            n += 1;
        }
    }
    assert!(
        me_r < me_c / 2.0,
        "REALM-div {me_r} vs Mitchell {me_c} over {n} samples"
    );
}

#[test]
fn float_wrapper_composes_with_realm() {
    let fpu = ApproxFloat::new(
        FloatFormat::FP32,
        Realm::new(RealmConfig::new(24, 16, 0, 6)).expect("valid configuration"),
    )
    .expect("24-bit core");
    let p = fpu.multiply_f32(6.02e23, 1.38e-23);
    let exact = 6.02e23f64 * 1.38e-23f64;
    let rel = (p as f64 - exact) / exact;
    assert!(rel.abs() < 0.021, "rel {rel}");
}

#[test]
fn verilog_export_covers_every_table1_design() {
    for pair in realm::synth::designs::table1_pairs() {
        let v = to_verilog(&pair.netlist);
        assert!(v.starts_with("module "), "{}", pair.netlist.name());
        assert!(
            v.trim_end().ends_with("endmodule"),
            "{}",
            pair.netlist.name()
        );
        // Assign count tracks gate count (+ output hookups).
        let output_bits: usize = pair.netlist.outputs().iter().map(|(_, n)| n.len()).sum();
        assert_eq!(
            v.matches("assign ").count(),
            pair.netlist.gate_count() + output_bits,
            "{}",
            pair.netlist.name()
        );
    }
}

#[test]
fn equivalence_checker_accepts_the_realm_pair() {
    // Rebuild the same REALM netlist twice: structurally identical,
    // therefore functionally equivalent.
    let realm = Realm::new(RealmConfig::n16(8, 3)).expect("paper design point");
    let a = realm_netlist(&realm);
    let b = realm_netlist(&realm);
    let verdict = check_equivalence(&a, &b, 200, 9);
    assert!(verdict.is_equivalent(), "{verdict:?}");
}

#[test]
fn equivalence_checker_distinguishes_m_configurations() {
    let r8 = realm_netlist(&Realm::new(RealmConfig::n16(8, 0)).expect("valid"));
    let r16 = realm_netlist(&Realm::new(RealmConfig::n16(16, 0)).expect("valid"));
    let verdict = check_equivalence(&r8, &r16, 300, 9);
    assert!(
        !verdict.is_equivalent(),
        "different M must differ functionally"
    );
}

#[test]
fn fault_injection_runs_on_the_reference_multiplier() {
    let nl = wallace_netlist(16);
    for fault in sample_faults(&nl, 5, 77) {
        let impact = simulate_fault(&nl, fault, 60, 3);
        assert!((0.0..=1.0).contains(&impact.detection_rate));
    }
}

#[test]
fn sweep_keeps_table1_netlists_functional() {
    // Sweeping dead logic must not change any design's function (the
    // builders produce little dead logic, but the invariant must hold).
    let realm = Realm::new(RealmConfig::n16(4, 6)).expect("paper design point");
    let mut nl = realm_netlist(&realm);
    let removed = nl.sweep();
    use realm::Multiplier;
    for (a, b) in [(12_345u64, 54_321u64), (65_535, 1), (400, 400)] {
        assert_eq!(
            nl.eval_one(&[("a", a), ("b", b)], "p"),
            realm.multiply(a, b)
        );
    }
    assert!(removed < 50, "unexpectedly large dead cone: {removed}");
}

#[test]
fn dsp_substrates_run_through_facade() {
    use realm::dsp::conv2d::Kernel;
    use realm::dsp::fir::FirFilter;
    let m = Realm::new(RealmConfig::n16(16, 0)).expect("paper design point");
    let filtered = FirFilter::low_pass(15, 0.2).apply(&m, &[1000, -1000, 500, -500, 0, 250]);
    assert_eq!(filtered.len(), 6);
    let img = realm::jpeg::Image::from_fn(16, 16, |x, y| ((x ^ y) * 16) as u8);
    let blurred = Kernel::gaussian(3, 0.8).apply(&m, &img, 0);
    assert_eq!(blurred.width(), 16);
}
