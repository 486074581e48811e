//! Extension studies beyond the paper's evaluation:
//!
//! 1. **MSE-optimal factors** — the paper's stated future work (§III-B):
//!    error statistics of REALM built from mean-square-error-minimizing
//!    factors vs. the published mean-error formulation.
//! 2. **NMED / worst-case error distance** — the absolute-error metrics
//!    of the survey literature, for every Table I family representative.
//! 3. **Per-interval breakdown** — empirical check of Eq. 12's
//!    interval-independence for REALM vs. a static-segment design.
//! 4. **Approximate floating point** — REALM as the significand core of a
//!    binary32 multiplier.
//! 5. **DSP / ML substrates** — FIR filtering SNR, Gaussian-blur PSNR and
//!    MLP classification accuracy per multiplier.
//!
//! ```text
//! cargo run --release -p realm-bench --bin extensions -- --samples 2^20
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used)]

use realm_baselines::{Calm, Drum, Mbm, Ssm};
use realm_bench::{Driver, Options, OrDie};
use realm_core::float::{ApproxFloat, FloatFormat};
use realm_core::mse::mse_table;
use realm_core::{Accurate, ErrorReductionTable, Multiplier, Realm, RealmConfig};
use realm_dsp::conv2d::Kernel;
use realm_dsp::fir::{output_snr, FirFilter};
use realm_dsp::mlp::{dataset, Mlp};
use realm_jpeg::{psnr, Image};
use realm_metrics::breakdown::interval_mean_spread;
use realm_metrics::{BreakdownWorkload, DistanceWorkload, Engine, MonteCarlo};

fn main() {
    let mut opts = Options::from_env();
    if opts.smoke && opts.samples == Options::default().samples {
        opts.samples = 1 << 16;
    }
    let campaign = MonteCarlo::new(opts.samples, opts.seed);
    let driver = Driver::new(opts);
    let opts = &driver.opts;
    let measure = |design: &dyn Multiplier, what: &str| {
        let sup = driver.run(what, || {
            campaign.characterize_supervised(design, driver.supervisor())
        });
        driver.require_complete(what, sup)
    };

    println!("Extension 1 — MSE-optimal factors (paper §III-B future work):");
    println!(
        "{:<28} {:>8} {:>8} {:>8} {:>10}",
        "formulation", "bias%", "mean%", "peak%", "var(%^2)"
    );
    for m in [8u32, 16] {
        for (label, table) in [
            (
                "mean-error (paper)",
                ErrorReductionTable::analytic(m).or_die("valid M"),
            ),
            ("mean-square-error", mse_table(m).or_die("valid M")),
        ] {
            let realm = Realm::with_table(RealmConfig::new(16, m, 0, 10), &table)
                .or_die("valid configuration");
            let s = measure(&realm, "factor-formulation campaign");
            println!(
                "{:<28} {:>8.3} {:>8.3} {:>8.3} {:>10.3}   (M={m}, q=10)",
                label,
                s.bias * 100.0,
                s.mean_error * 100.0,
                s.peak_error() * 100.0,
                s.variance_percent()
            );
        }
    }

    println!("\nExtension 2 — absolute-error metrics (NMED / worst-case, x10^-4):");
    let reps: Vec<Box<dyn Multiplier>> = vec![
        Box::new(Realm::new(RealmConfig::n16(16, 0)).or_die("paper design point")),
        Box::new(Realm::new(RealmConfig::n16(4, 0)).or_die("paper design point")),
        Box::new(Calm::new(16)),
        Box::new(Mbm::new(16, 0).or_die("paper design point")),
        Box::new(Drum::new(16, 6).or_die("paper design point")),
        Box::new(Ssm::new(16, 8).or_die("paper design point")),
    ];
    for design in &reps {
        use realm_core::multiplier::MultiplierExt;
        let sup = driver.run("distance campaign", || {
            Engine::supervised(
                &DistanceWorkload::new(design.as_ref(), opts.samples.min(1 << 21), opts.seed),
                driver.supervisor(),
            )
        });
        let d = driver.require_complete("distance campaign", sup);
        println!(
            "  {:<18} NMED {:>8.3}   worst {:>8.2}",
            design.label(),
            d.nmed * 1e4,
            d.worst_case * 1e4
        );
    }

    println!("\nExtension 3 — per-interval mean error (Eq. 12 interval-independence):");
    let realm = Realm::new(RealmConfig::n16(8, 0)).or_die("paper design point");
    let ssm = Ssm::new(16, 8).or_die("paper design point");
    for (label, design) in [
        ("REALM8", &realm as &dyn Multiplier),
        ("SSM m=8", &ssm as &dyn Multiplier),
    ] {
        let sup = driver.run("breakdown campaign", || {
            Engine::supervised(
                &BreakdownWorkload::new(design, opts.samples.min(1 << 21), opts.seed),
                driver.supervisor(),
            )
        });
        let cells = driver.require_complete("breakdown campaign", sup);
        match interval_mean_spread(&cells, 10, 200) {
            Some((lo, hi)) => println!(
                "  {label:<10} per-interval mean error spans {:.3}%..{:.3}% (ratio {:.2})",
                lo * 100.0,
                hi * 100.0,
                hi / lo.max(1e-12)
            ),
            None => println!("  {label:<10} (no interval had enough samples)"),
        }
    }

    println!("\nExtension 4 — binary32 multiplication with approximate significand cores:");
    let exact_fpu = ApproxFloat::new(FloatFormat::FP32, Accurate::new(24)).or_die("wide enough");
    let realm_fpu = ApproxFloat::new(
        FloatFormat::FP32,
        Realm::new(RealmConfig::new(24, 16, 0, 6)).or_die("valid configuration"),
    )
    .or_die("wide enough");
    let mut x = 0x5EED_1234u64;
    let (mut worst_exact, mut worst_realm, mut mean_realm, mut n) = (0.0f64, 0.0f64, 0.0, 0u32);
    for _ in 0..20_000 {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        let a = f32::from_bits(0x3000_0000 + ((x >> 10) as u32 % 0x1000_0000));
        let b = f32::from_bits(0x3000_0000 + ((x >> 34) as u32 % 0x1000_0000));
        let exact = a as f64 * b as f64;
        if !exact.is_normal() {
            continue;
        }
        let pe = exact_fpu.multiply_f32(a, b) as f64;
        let pr = realm_fpu.multiply_f32(a, b) as f64;
        if pe == 0.0 || pr == 0.0 || pe.is_infinite() || pr.is_infinite() {
            continue;
        }
        worst_exact = worst_exact.max(((pe - exact) / exact).abs());
        let re = ((pr - exact) / exact).abs();
        worst_realm = worst_realm.max(re);
        mean_realm += re;
        n += 1;
    }
    println!(
        "  exact 24-bit core : worst |rel error| {:.2e} (truncation only)",
        worst_exact
    );
    println!(
        "  REALM16 24b core  : mean |rel error| {:.3}%, worst {:.3}% over {n} products",
        mean_realm / n as f64 * 100.0,
        worst_realm * 100.0
    );

    println!("\nExtension 5 — DSP / ML substrates:");
    let lowpass = FirFilter::low_pass(31, 0.15);
    let signal: Vec<i32> = (0..512)
        .map(|i| if i % 32 < 16 { 9_000 } else { -9_000 })
        .collect();
    let exact_out = lowpass.apply(&Accurate::new(16), &signal);
    let designs: Vec<(&str, Box<dyn Multiplier>)> = vec![
        (
            "REALM16 t=0",
            Box::new(Realm::new(RealmConfig::n16(16, 0)).or_die("valid")),
        ),
        (
            "REALM4 t=0",
            Box::new(Realm::new(RealmConfig::n16(4, 0)).or_die("valid")),
        ),
        ("MBM t=0", Box::new(Mbm::new(16, 0).or_die("valid"))),
        ("cALM", Box::new(Calm::new(16))),
    ];
    let img = Image::synthetic_livingroom();
    let blur = Kernel::gaussian(5, 1.0);
    let blur_exact = blur.apply(&Accurate::new(16), &img, 0);
    let mlp = Mlp::train(12, 400);
    let test = dataset(512, 0xF00D);
    let acc_exact = mlp.accuracy(&Accurate::new(16), &test);
    println!(
        "  {:<12} {:>12} {:>14} {:>14}",
        "design", "FIR SNR dB", "blur PSNR dB", "MLP accuracy"
    );
    println!(
        "  {:<12} {:>12} {:>14} {:>13.1}%",
        "Accurate",
        "inf",
        "inf",
        acc_exact * 100.0
    );
    for (label, design) in &designs {
        let snr = output_snr(&exact_out, &lowpass.apply(design.as_ref(), &signal));
        let blur_psnr = psnr(&blur_exact, &blur.apply(design.as_ref(), &img, 0));
        let acc = mlp.accuracy(design.as_ref(), &test);
        println!(
            "  {:<12} {:>12.1} {:>14.1} {:>13.1}%",
            label,
            snr,
            blur_psnr,
            acc * 100.0
        );
    }
    driver.finish();
}
