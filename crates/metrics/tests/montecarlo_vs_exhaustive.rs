//! The Monte-Carlo campaign agrees with the exhaustive one: for every
//! family of the design registry at a small width, the bias and mean
//! error of a seeded `MonteCarloWorkload` lie within 5 standard errors
//! of the exact values a `RangeWorkload` sweep over the same operand
//! range gives. This checks the operand draw and the error fold, not
//! only the kernels (the conformance suite covers those).

use realm_baselines::catalog::{DesignSpec, FAMILIES};
use realm_core::multiplier::MultiplierExt;
use realm_metrics::{Engine, MonteCarlo, RangeWorkload};

/// Families with no width from 10 to 12 bits, and why.
const SKIPPED: [(&str, &str); 2] = [
    ("essm8", "builds only at 16 bits"),
    ("kulkarni", "builds only at power-of-two widths"),
];

/// Keys for the families whose defaults do not build at 10 to 12 bits:
/// ALM's default `m = 11` needs `w ≥ 13`.
const KEYS: [(&str, &str); 2] = [("alm-maa", ":m=6"), ("alm-soa", ":m=6")];

#[test]
fn montecarlo_bias_and_mean_error_lie_within_5_standard_errors_of_the_exhaustive_values() {
    for family in FAMILIES {
        let name = family.name;
        let keys = KEYS.iter().find(|(n, _)| *n == name).map_or("", |k| k.1);
        let design = (10..=12).find_map(|w| {
            let spec = DesignSpec::parse(&format!("{name}@{w}{keys}")).ok()?;
            spec.build().ok()
        });
        let Some(design) = design else {
            assert!(
                SKIPPED.iter().any(|(n, _)| *n == name),
                "{name} builds at no width from 10 to 12 bits"
            );
            continue;
        };
        assert!(!SKIPPED.iter().any(|(n, _)| *n == name), "{name} builds");
        let label = design.label();
        let max = design.max_operand();
        let exact = Engine::default()
            .run(&RangeWorkload::new(design.as_ref(), 0..=max, 0..=max))
            .unwrap_or_else(|| panic!("{label}: no nonzero product"));
        let sampled = MonteCarlo::new(1 << 16, 0x5EED).characterize(design.as_ref());
        let n = sampled.samples as f64;
        let bias_se = (exact.variance / n).sqrt();
        // var(|e|) = E[e²] − E[|e|]², with E[e²] = variance + bias².
        let abs_var = exact.variance + exact.bias.powi(2) - exact.mean_error.powi(2);
        let mean_se = (abs_var.max(0.0) / n).sqrt();
        assert!(
            (sampled.bias - exact.bias).abs() <= 5.0 * bias_se,
            "{label}: bias {} vs exhaustive {} (σ {bias_se})",
            sampled.bias,
            exact.bias
        );
        assert!(
            (sampled.mean_error - exact.mean_error).abs() <= 5.0 * mean_se,
            "{label}: mean error {} vs exhaustive {} (σ {mean_se})",
            sampled.mean_error,
            exact.mean_error
        );
        // A sample's extremes lie within the population's.
        assert!(sampled.min_error >= exact.min_error, "{label}: min");
        assert!(sampled.max_error <= exact.max_error, "{label}: max");
    }
}
