//! Width-generality study (extension): the paper evaluates `N = 16`
//! only; this driver characterizes REALM at `N ∈ {8, 12, 16, 24, 32, 64}`
//! — exhaustively where feasible (N ≤ 12), Monte-Carlo above (the
//! `N = 64` campaign scores through the `u128` wide path) — showing the
//! error metrics are width-independent (they live in the fraction
//! domain) while area scales with `N`. The width-generic comparators
//! (scaleTRIM, ILM) ride the same sweep.
//!
//! ```text
//! cargo run --release -p realm-bench --bin widths -- --samples 2^20
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used)]

use realm_bench::{Driver, Options, OrDie};
use realm_core::multiplier::MultiplierExt;
use realm_core::{Realm, RealmConfig};
use realm_metrics::{Engine, MonteCarlo, RangeWorkload};

fn main() {
    let mut opts = Options::from_env();
    if opts.smoke && opts.samples == Options::default().samples {
        opts.samples = 1 << 16;
    }
    println!("width-generality study: REALM (M = 8, t = 0) across operand widths\n");
    println!(
        "{:>5} {:>12} {:>8} {:>8} {:>8} {:>8}",
        "N", "method", "bias%", "mean%", "min%", "max%"
    );
    let driver = Driver::new(opts);
    for width in [8u32, 12, 16, 24, 32, 64] {
        let realm = Realm::new(RealmConfig::new(width, 8, 0, 6)).or_die("valid configuration");
        // Exhaustive where feasible (supervised row-chunked sweep),
        // Monte-Carlo above.
        let (method, s) = if width <= 12 {
            let max = realm.max_operand();
            let sup = driver.run("exhaustive width sweep", || {
                Engine::supervised(
                    &RangeWorkload::new(&realm, 1..=max, 1..=max),
                    driver.supervisor(),
                )
            });
            ("exhaustive", driver.require_complete("width sweep", sup))
        } else {
            let campaign = MonteCarlo::new(driver.opts.samples, driver.opts.seed);
            let sup = driver.run("width campaign", || {
                campaign.characterize_supervised(&realm, driver.supervisor())
            });
            (
                "monte-carlo",
                driver.require_complete("width campaign", sup),
            )
        };
        println!(
            "{:>5} {:>12} {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
            width,
            method,
            s.bias * 100.0,
            s.mean_error * 100.0,
            s.min_error * 100.0,
            s.max_error * 100.0
        );
    }
    println!("\nThe fraction-domain error statistics are essentially width-independent for");
    println!("N >= 12 (Table I's 16-bit numbers generalize); N = 8 shows extra output-");
    println!("quantization error because products have few bits below the correction.");

    // The post-paper comparators are width-generic too: same Monte-Carlo
    // sweep (wide-path scoring above 32 bits) for scaleTRIM and ILM.
    println!("\nwidth-generic comparators (Monte-Carlo, same budget):");
    println!(
        "{:>5} {:>22} {:>8} {:>8} {:>8} {:>8}",
        "N", "design", "bias%", "mean%", "min%", "max%"
    );
    for width in [8u32, 16, 24, 32, 64] {
        let comparators: [Box<dyn realm_core::Multiplier>; 2] = [
            Box::new(realm_baselines::ScaleTrim::new(width, 6, true).or_die("valid configuration")),
            Box::new(realm_baselines::Ilm::new(width, 2).or_die("valid configuration")),
        ];
        for design in comparators {
            let campaign = MonteCarlo::new(driver.opts.samples, driver.opts.seed);
            let sup = driver.run("comparator width campaign", || {
                campaign.characterize_supervised(design.as_ref(), driver.supervisor())
            });
            let s = driver.require_complete("comparator width campaign", sup);
            println!(
                "{:>5} {:>22} {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
                width,
                design.label(),
                s.bias * 100.0,
                s.mean_error * 100.0,
                s.min_error * 100.0,
                s.max_error * 100.0
            );
        }
    }

    // Area scaling from the synthesis model.
    println!("\nsynthesis-model area scaling (REALM8/t=0 vs the accurate multiplier):");
    println!(
        "{:>5} {:>12} {:>14} {:>10}",
        "N", "REALM gates", "accurate gates", "aRed%"
    );
    for width in [8u32, 12, 16, 24, 32, 64] {
        let realm = Realm::new(RealmConfig::new(width, 8, 0, 6)).or_die("valid configuration");
        let nl = realm_synth::designs::realm_netlist(&realm);
        let acc = realm_synth::blocks::multiplier::wallace_netlist(width);
        println!(
            "{:>5} {:>12} {:>14} {:>10.1}",
            width,
            nl.gate_count(),
            acc.gate_count(),
            (1.0 - nl.area() / acc.area()) * 100.0
        );
    }
    println!("\nthe accurate multiplier grows ~quadratically with N while the log datapath");
    println!("grows ~linearly — the approximate design's advantage widens with width.");
    driver.finish();
}
