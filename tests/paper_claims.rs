//! Integration tests pinning the paper's headline quantitative claims,
//! with tolerances for Monte-Carlo noise. Each test cites the claim it
//! checks.

use realm::baselines::catalog::{self, DesignSpec};
use realm::baselines::{Calm, Drum, Mbm};
use realm::metrics::{Engine, MonteCarlo, RangeWorkload};
use realm::multiplier::MultiplierExt;
use realm::{Realm, RealmConfig};

const SAMPLES: u64 = 1 << 19;

fn mc() -> MonteCarlo {
    MonteCarlo::new(SAMPLES, 2020)
}

/// Table I's 30 REALM rows, in the table's order.
fn realm_rows() -> Vec<Realm> {
    catalog::table1()
        .into_iter()
        .filter_map(|spec| match spec {
            DesignSpec::Realm(config) => Some(Realm::new(config).expect("paper design point")),
            _ => None,
        })
        .collect()
}

#[test]
fn abstract_claim_realm_mean_error_range() {
    // Abstract: "lower mean error (from 0.4% to 1.6%)" across the whole
    // REALM design space.
    let campaign = mc();
    for realm in realm_rows() {
        let s = campaign.characterize(&realm);
        assert!(
            s.mean_error > 0.003 && s.mean_error < 0.018,
            "{}: mean error {:.3}% outside the advertised 0.4–1.6% band",
            realm.label(),
            s.mean_error * 100.0
        );
    }
}

#[test]
fn abstract_claim_realm_peak_error_range() {
    // Abstract: "lower peak error (from 2.08% to 7.4%)".
    let campaign = mc();
    for realm in realm_rows() {
        let s = campaign.characterize(&realm);
        let peak = s.peak_error();
        assert!(
            peak > 0.015 && peak < 0.085,
            "{}: peak error {:.2}% outside the advertised 2.08–7.4% band",
            realm.label(),
            peak * 100.0
        );
    }
}

#[test]
fn abstract_claim_low_error_bias() {
    // Abstract: "very low error bias (mostly <= 0.05%)"; Table I shows
    // |bias| <= 0.05% for t <= 8 and a worst case of 0.22% at t = 9.
    let campaign = mc();
    for realm in realm_rows() {
        let s = campaign.characterize(&realm);
        let limit = if realm.configuration().truncation <= 8 {
            0.0012
        } else {
            0.0035
        };
        assert!(
            s.bias.abs() < limit,
            "{}: bias {:.3}% too large",
            realm.label(),
            s.bias * 100.0
        );
    }
}

#[test]
fn table1_realm16_row() {
    // Table I, REALM16/t=0: bias 0.01, mean 0.42, peaks −2.08/+1.79,
    // variance 0.28.
    let s = mc().characterize(&Realm::new(RealmConfig::n16(16, 0)).expect("paper design point"));
    assert!(
        (s.mean_error - 0.0042).abs() < 0.0006,
        "mean {:.4}",
        s.mean_error
    );
    assert!(
        s.min_error > -0.024 && s.min_error < -0.017,
        "min {:.4}",
        s.min_error
    );
    assert!(s.max_error < 0.021, "max {:.4}", s.max_error);
    assert!(
        (s.variance_percent() - 0.28).abs() < 0.1,
        "var {:.3}",
        s.variance_percent()
    );
}

#[test]
fn table1_calm_row() {
    // Table I, cALM: bias −3.85, mean 3.85, peaks −11.11/0.00, var 8.63.
    let s = mc().characterize(&Calm::new(16));
    assert!((s.bias - (-0.0385)).abs() < 0.0008, "bias {:.4}", s.bias);
    assert!(
        (s.mean_error - 0.0385).abs() < 0.0008,
        "mean {:.4}",
        s.mean_error
    );
    assert!(s.min_error >= -0.1112, "min {:.4}", s.min_error);
    assert!(s.max_error <= 0.0, "max {:.4}", s.max_error);
    assert!(
        (s.variance_percent() - 8.63).abs() < 0.35,
        "var {:.3}",
        s.variance_percent()
    );
}

#[test]
fn table1_mbm_and_drum_rows() {
    // Table I, MBM/t=0: mean 2.58, peaks −7.64/+7.81.
    let campaign = mc();
    let mbm = campaign.characterize(&Mbm::new(16, 0).expect("paper design point"));
    assert!(
        (mbm.mean_error - 0.0258).abs() < 0.001,
        "MBM mean {:.4}",
        mbm.mean_error
    );
    assert!(
        mbm.min_error > -0.0790 && mbm.min_error < -0.0720,
        "MBM min {:.4}",
        mbm.min_error
    );
    assert!(
        mbm.max_error > 0.0720 && mbm.max_error < 0.0790,
        "MBM max {:.4}",
        mbm.max_error
    );
    // Table I, DRUM/k=8: bias 0.01, mean 0.37, peaks −1.49/+1.57.
    let drum = campaign.characterize(&Drum::new(16, 8).expect("paper design point"));
    assert!(
        (drum.mean_error - 0.0037).abs() < 0.0005,
        "DRUM mean {:.4}",
        drum.mean_error
    );
    assert!(drum.bias.abs() < 0.001, "DRUM bias {:.4}", drum.bias);
}

#[test]
fn fig1_realm16_beats_every_other_log_design() {
    // Fig. 1/§I: REALM16 outperforms the classical and state-of-the-art
    // log-based multipliers on both mean and peak error.
    let realm = Realm::new(RealmConfig::n16(16, 0)).expect("paper design point");
    let realm_stats = Engine::default()
        .run(&RangeWorkload::new(&realm, 32..=255, 32..=255))
        .expect("nonzero products");
    for design in catalog::table1_designs() {
        if matches!(
            design.name(),
            "cALM" | "MBM" | "ALM-MAA" | "ALM-SOA" | "ImpLM"
        ) {
            let s = Engine::default()
                .run(&RangeWorkload::new(design.as_ref(), 32..=255, 32..=255))
                .expect("nonzero products");
            assert!(
                realm_stats.mean_error < s.mean_error,
                "REALM16 mean {:.3}% not below {} ({:.3}%)",
                realm_stats.mean_error * 100.0,
                design.label(),
                s.mean_error * 100.0
            );
        }
    }
}

#[test]
fn section4_error_improves_with_m_and_degrades_with_t() {
    // §IV-C: "the error improves with more partitions (increasing M)" and
    // the effect of bit truncation "becomes more prominent when t >= 7".
    let campaign = MonteCarlo::new(1 << 18, 7);
    let mean = |m: u32, t: u32| {
        campaign
            .characterize(&Realm::new(RealmConfig::n16(m, t)).expect("paper design point"))
            .mean_error
    };
    assert!(mean(16, 0) < mean(8, 0));
    assert!(mean(8, 0) < mean(4, 0));
    let (t0, t6, t9) = (mean(16, 0), mean(16, 6), mean(16, 9));
    assert!(
        (t6 - t0).abs() < 0.001,
        "t<=6 should change little: {t0} vs {t6}"
    );
    assert!(t9 > t0 * 1.5, "t=9 should degrade clearly: {t0} vs {t9}");
}

#[test]
fn realm_mean_error_sweep_over_t_is_non_decreasing() {
    // §IV-C: truncating more fraction bits trades accuracy for cost, so
    // REALM8's mean error does not fall as t grows.
    let campaign = MonteCarlo::new(60_000, 4);
    let means: Vec<f64> = [0, 2, 4, 6, 8, 9]
        .into_iter()
        .map(|t| {
            campaign
                .characterize(&Realm::new(RealmConfig::n16(8, t)).expect("paper design point"))
                .mean_error
        })
        .collect();
    // Monte-Carlo noise slack.
    assert!(means.windows(2).all(|w| w[1] >= w[0] - 0.0005), "{means:?}");
    // t = 9 must sit clearly above t = 0.
    assert!(means[5] > means[0] * 1.2, "{means:?}");
}

#[test]
fn synthesis_realm_vs_accurate_orderings() {
    // Table I synthesis columns: every REALM configuration saves
    // substantial area and power vs. the accurate multiplier; larger M
    // costs more; truncation saves.
    let reporter = realm::synth::Reporter::paper_setup(200, 5);
    let report = |m: u32, t: u32| {
        let realm = Realm::new(RealmConfig::n16(m, t)).expect("paper design point");
        reporter.report(&realm::synth::designs::realm_netlist(&realm))
    };
    let r16t0 = report(16, 0);
    let r16t9 = report(16, 9);
    let r4t0 = report(4, 0);
    for r in [&r16t0, &r16t9, &r4t0] {
        assert!(
            r.area_reduction > 35.0,
            "area reduction {:.1}",
            r.area_reduction
        );
        assert!(
            r.power_reduction > 40.0,
            "power reduction {:.1}",
            r.power_reduction
        );
    }
    assert!(
        r4t0.area_reduction > r16t0.area_reduction,
        "bigger LUT must cost more"
    );
    assert!(
        r16t9.area_reduction > r16t0.area_reduction,
        "truncation must save area"
    );
    assert!(
        r16t9.power_reduction > r16t0.power_reduction,
        "truncation must save power"
    );
}

#[test]
fn fig5_distributions_narrow_with_m() {
    // Fig. 5: "as M increases, the distributions become narrower".
    let campaign = MonteCarlo::new(1 << 18, 13);
    let concentration = |m: u32| {
        let realm = Realm::new(RealmConfig::n16(m, 0)).expect("paper design point");
        let mut hist = realm::metrics::Histogram::new(-0.08, 0.08, 64);
        campaign.characterize_with(&realm, |e| hist.add(e));
        hist.mass_within(0.01)
    };
    let (c4, c8, c16) = (concentration(4), concentration(8), concentration(16));
    assert!(c16 > c8 && c8 > c4, "c4={c4:.3} c8={c8:.3} c16={c16:.3}");
    assert!(
        c16 > 0.9,
        "REALM16 should keep >90% of mass within ±1%, got {c16:.3}"
    );
}
