//! Regenerates **Fig. 1** of the paper: relative-error profiles of the
//! log-based multiplier family over `A, B ∈ {32, …, 255}` — the surfaces
//! whose sawtooth structure motivates REALM's per-segment correction.
//!
//! Prints per-design profile statistics; with `--out DIR`, writes one CSV
//! surface (`a,b,error`) per design for plotting.
//!
//! ```text
//! cargo run --release -p realm-bench --bin fig1 -- --out results
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used)]

use realm_bench::{Driver, OrDie};
use realm_core::Multiplier;
use realm_metrics::heatmap::render_heatmap;
use realm_metrics::{parse_design, Engine, ProfileWorkload, RangeWorkload};

/// The six panels: label and design text.
const PANELS: [(&str, &str); 6] = [
    ("a_calm", "calm"),
    ("b_alm_soa_m11", "alm-soa:m=11"),
    ("c_implm", "implm"),
    ("d_mbm", "mbm:t=0"),
    ("e_intalp_l2", "intalp:l=2"),
    ("f_realm16", "realm:m=16,t=0"),
];

fn main() {
    let driver = Driver::from_env();
    let designs: Vec<(&str, Box<dyn Multiplier>)> = PANELS
        .iter()
        .map(|&(panel, text)| (panel, parse_design(text).or_die("paper design point")))
        .collect();

    println!("Fig. 1 reproduction — error profiles over A, B in 32..=255\n");
    println!(
        "{:<16} {:>9} {:>9} {:>9} {:>9}",
        "panel/design", "bias%", "mean%", "min%", "max%"
    );
    for (panel, design) in &designs {
        let sup = driver.run("error-profile campaign", || {
            Engine::supervised(
                &RangeWorkload::new(design.as_ref(), 32..=255, 32..=255),
                driver.supervisor(),
            )
        });
        let s = driver.require_complete(&format!("{panel} campaign"), sup);
        println!(
            "{:<16} {:>9.2} {:>9.2} {:>9.2} {:>9.2}",
            panel,
            s.bias * 100.0,
            s.mean_error * 100.0,
            s.min_error * 100.0,
            s.max_error * 100.0
        );
        if driver.opts.out_dir.is_some() {
            let profile = driver.run("error-profile surface", || {
                Engine::supervised(
                    &ProfileWorkload::new(design.as_ref(), 32..=255, 32..=255),
                    driver.supervisor(),
                )
            });
            let mut csv = String::from("a,b,error_pct\n");
            for p in driver.require_complete(&format!("{panel} surface"), profile) {
                csv.push_str(&format!("{},{},{:.5}\n", p.a, p.b, p.error * 100.0));
            }
            driver.opts.write_csv(&format!("fig1_{panel}.csv"), &csv);
        }
    }
    // Terminal heatmaps of the first and last panel (the paper's (a) vs
    // (f) contrast: dense sawtooth vs near-blank surface).
    for (panel, design) in [&designs[0], &designs[designs.len() - 1]] {
        println!("\n|error| heatmap for {panel} (x = A, y = B, 32..=255):");
        let sup = driver.run("error-profile surface", || {
            Engine::supervised(
                &ProfileWorkload::new(design.as_ref(), 32..=255, 32..=255),
                driver.supervisor(),
            )
        });
        let profile = driver.require_complete(&format!("{panel} surface"), sup);
        print!("{}", render_heatmap(&profile, 64, 20, 0.12));
    }
    println!(
        "\npaper shape: panels (a-e) peak at 7.8-12.5 %; panel (f) REALM16 stays within ±2.1 %"
    );
    driver.finish();
}
