//! Fault-injection study: functional campaigns (realm-fault) cross-
//! validated against gate-level stuck-at simulation (realm-synth) on the
//! 8-bit REALM design, plus graceful-degradation measurements on the
//! paper's 16-bit design point driving a JPEG and an FIR workload.
//!
//! ```text
//! cargo run --release -p realm-bench --bin faults -- [--smoke] [--samples N] [--seed N] [--out DIR]
//! ```
//!
//! `--smoke` shrinks every campaign for CI; the binary exits nonzero if
//! the functional and gate-level campaigns disagree on the most
//! error-critical datapath stage.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use realm_bench::{Driver, Options, OrDie};
use realm_core::{Realm, RealmConfig};
use realm_dsp::fir::{output_snr, FirFilter};
use realm_fault::{Fault, FaultPlan, FaultSite, FaultyMultiplier, Guarded, Operand, SiteClass};
use realm_jpeg::{psnr, Image, JpegCodec};
use realm_metrics::faults::{summarize_by_class, ClassSummary, FaultCampaign};
use realm_metrics::{Engine, Supervisor};
use realm_synth::designs::realm_netlist_staged;
use realm_synth::faults::{stage_sensitivity, StageImpact};

/// The four datapath classes present in both fault models, by label.
const SHARED_CLASSES: [&str; 4] = ["characteristic", "fraction", "lut-factor", "shift-amount"];

fn realm8() -> Realm {
    Realm::new(RealmConfig::new(8, 8, 0, 6)).or_die("valid 8-bit design point")
}

fn realm16() -> Realm {
    Realm::new(RealmConfig::n16(16, 0)).or_die("paper design point")
}

/// Most error-critical shared class by mean relative error, with its MRE.
fn top_shared<T>(
    items: &[T],
    label: impl Fn(&T) -> &'static str,
    mre: impl Fn(&T) -> f64,
) -> (&'static str, f64) {
    items
        .iter()
        .filter(|i| SHARED_CLASSES.contains(&label(i)))
        .map(|i| (label(i), mre(i)))
        .fold(("", f64::NEG_INFINITY), |best, cand| {
            if cand.1 > best.1 {
                cand
            } else {
                best
            }
        })
}

fn functional_campaign(
    opts: &Options,
    samples: u64,
    supervisor: &Supervisor,
) -> Option<Vec<ClassSummary>> {
    let design = realm8();
    let campaign = FaultCampaign::new(samples, opts.seed).with_threads(opts.threads);
    // Each per-fault campaign journals separately under the supervisor,
    // so Ctrl-C / --deadline stop the sweep at a chunk boundary and
    // --resume continues it bit-identically.
    let sup = campaign
        .stuck_at_sweep_supervised(&design, supervisor)
        .or_die("functional stuck-at sweep");
    if !sup.report.is_complete() {
        println!("functional stuck-at sweep — REALM8 (8-bit): incomplete");
        println!("{}", sup.report.render());
        return None;
    }
    let reports = sup.value.unwrap_or_default();
    let classes = summarize_by_class(&reports);

    println!(
        "functional stuck-at sweep — REALM8 (8-bit), {samples} samples/site, {} sites",
        reports.len()
    );
    for class in &classes {
        println!("  {class}");
    }
    let mut csv = String::from(
        "class,sites,corruption_rate,detection_rate,nmed_degradation,worst_degradation,mre\n",
    );
    for c in &classes {
        csv.push_str(&format!(
            "{},{},{:.6},{:.6},{:.6e},{:.6e},{:.6}\n",
            c.class,
            c.sites,
            c.corruption_rate,
            c.detection_rate,
            c.nmed_degradation,
            c.worst_degradation,
            c.mre
        ));
    }
    opts.write_csv("faults_functional_classes.csv", &csv);
    Some(classes)
}

fn gate_level_campaign(opts: &Options, faults_per_stage: usize, vectors: u32) -> Vec<StageImpact> {
    let design = realm8();
    let (netlist, spans) = realm_netlist_staged(&design);
    let impacts = stage_sensitivity(&netlist, &spans, faults_per_stage, vectors, opts.seed);

    println!(
        "\ngate-level stuck-at campaign — {} ({} gates), {faults_per_stage} faults/stage × {vectors} vectors",
        netlist.name(),
        netlist.gate_count()
    );
    for impact in &impacts {
        println!("  {impact}");
    }
    let mut csv = String::from("stage,gates,faults,detection_rate,mean_relative_error\n");
    for i in &impacts {
        csv.push_str(&format!(
            "{},{},{},{:.6},{:.6}\n",
            i.stage, i.gates, i.faults, i.detection_rate, i.mean_relative_error
        ));
    }
    opts.write_csv("faults_gate_stages.csv", &csv);
    impacts
}

fn degradation_curve(driver: &Driver, samples: u64) {
    let opts = &driver.opts;
    let design = realm16();
    let campaign = FaultCampaign::new(samples, opts.seed);
    let site = FaultSite::ShiftAmount { bit: 4 };
    // Every point runs before the table prints, so an interrupted curve
    // leaves its resume report and no half table.
    let points: Vec<(f64, _)> = [1e-4, 1e-3, 1e-2, 1e-1]
        .into_iter()
        .map(|probability| {
            let fault = Fault::transient(site, probability);
            let sup = driver.run("transient campaign", || {
                Engine::supervised(&campaign.workload(&design, fault), driver.supervisor())
            });
            (
                probability,
                driver.require_complete("transient campaign", sup),
            )
        })
        .collect();

    println!("\ntransient degradation curve — REALM16/t=0, flips on {site}");
    println!(
        "  {:>10} {:>12} {:>12} {:>10} {:>10}",
        "p(flip)", "NMED", "guarded", "detect", "fallback"
    );
    let mut csv =
        String::from("probability,nmed_faulty,nmed_guarded,detection_rate,fallback_rate\n");
    for (probability, r) in &points {
        println!(
            "  {:>10.0e} {:>12.3e} {:>12.3e} {:>9.1}% {:>9.2}%",
            probability,
            r.nmed_faulty,
            r.nmed_guarded,
            r.detection_rate * 100.0,
            r.fallback_rate * 100.0
        );
        csv.push_str(&format!(
            "{:e},{:.6e},{:.6e},{:.6},{:.6}\n",
            probability, r.nmed_faulty, r.nmed_guarded, r.detection_rate, r.fallback_rate
        ));
    }
    opts.write_csv("faults_transient_curve.csv", &csv);
}

fn application_impact(opts: &Options) {
    // A permanent stuck-at on the shift-amount MSB plus a noisy transient
    // on a characteristic bit — the guard should recover most of both.
    let plan = FaultPlan::new(vec![
        Fault::stuck_at(FaultSite::ShiftAmount { bit: 4 }, true),
        Fault::transient(
            FaultSite::Characteristic {
                operand: Operand::A,
                bit: 1,
            },
            0.01,
        ),
    ]);

    let image = Image::from_fn(64, 64, |x, y| {
        (((x * 31 + y * 17) ^ (x * y / 3)) % 256) as u8
    });
    let clean_psnr = psnr(&image, &JpegCodec::quality50(realm16()).roundtrip(&image));
    let faulty = FaultyMultiplier::new(realm16(), FaultPlan::clone(&plan), opts.seed);
    let faulty_psnr = psnr(&image, &JpegCodec::quality50(faulty).roundtrip(&image));
    let guarded = Guarded::new(FaultyMultiplier::new(
        realm16(),
        FaultPlan::clone(&plan),
        opts.seed,
    ));
    let codec = JpegCodec::quality50(guarded);
    let guarded_psnr = psnr(&image, &codec.roundtrip(&image));

    println!("\napplication impact — JPEG q50 on 64×64 synthetic scene, plan: {plan}");
    println!("  PSNR clean   {clean_psnr:>7.2} dB");
    println!("  PSNR faulty  {faulty_psnr:>7.2} dB");
    println!("  PSNR guarded {guarded_psnr:>7.2} dB");

    let signal: Vec<i32> = (0..256)
        .map(|i| (8000.0 * (i as f64 / 9.0).sin() + 3000.0 * (i as f64 / 2.3).cos()) as i32)
        .collect();
    let filter = FirFilter::low_pass(15, 0.2);
    let reference = filter.apply(&realm_core::Accurate::new(16), &signal);
    let faulty = FaultyMultiplier::new(realm16(), FaultPlan::clone(&plan), opts.seed);
    let snr_faulty = output_snr(&reference, &filter.apply(&faulty, &signal));
    let guarded = Guarded::new(FaultyMultiplier::new(realm16(), plan, opts.seed));
    let snr_guarded = output_snr(&reference, &filter.apply(&guarded, &signal));
    let ops = guarded.operations();
    let rate = guarded.fallback_rate();

    println!("\napplication impact — 15-tap low-pass FIR, 256-sample signal, same plan");
    println!("  SNR faulty   {snr_faulty:>7.2} dB");
    println!(
        "  SNR guarded  {snr_guarded:>7.2} dB  (fallback {:.1}% of {ops} multiplies)",
        rate * 100.0
    );
}

fn main() {
    let mut opts = Options::from_env();
    let smoke = opts.smoke;
    if opts.samples == Options::default().samples {
        // The paper's 2^24 Monte-Carlo default is far more than a
        // per-site campaign needs.
        opts.samples = if smoke { 1_500 } else { 20_000 };
    }
    let (faults_per_stage, vectors) = if smoke { (6, 50) } else { (16, 250) };

    let driver = Driver::new(opts);
    let opts = &driver.opts;
    let Some(classes) = functional_campaign(opts, opts.samples, driver.supervisor()) else {
        // The stop (deadline, Ctrl-C) covers the whole study: a partial
        // sweep cannot be cross-validated, so report and exit cleanly.
        println!("\nstudy interrupted; rerun with --resume --checkpoint-dir to continue");
        driver.finish();
        return;
    };
    let impacts = gate_level_campaign(opts, faults_per_stage, vectors);

    let (f_top, f_mre) = top_shared(
        &classes,
        |c| match c.class {
            SiteClass::Characteristic => "characteristic",
            SiteClass::Fraction => "fraction",
            SiteClass::LutFactor => "lut-factor",
            SiteClass::ShiftAmount => "shift-amount",
            SiteClass::OperandBit => "operand",
            SiteClass::ProductBit => "product",
        },
        |c| c.mre,
    );
    let (g_top, g_mre) = top_shared(&impacts, |i| i.stage.label(), |i| i.mean_relative_error);

    println!("\ncross-validation — most error-critical datapath stage by mean relative error");
    println!("  functional : {f_top:<16} (MRE {f_mre:.2})");
    println!("  gate-level : {g_top:<16} (MRE {g_mre:.2})");

    degradation_curve(&driver, opts.samples);
    application_impact(opts);
    driver.finish();

    if f_top == g_top {
        println!("\ncross-validation PASSED: both levels rank '{f_top}' most critical");
    } else {
        println!("\ncross-validation FAILED: functional says '{f_top}', gate-level says '{g_top}'");
        std::process::exit(1);
    }
}
