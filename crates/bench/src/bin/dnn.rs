//! Per-layer multiplier-binding study on the int8 inference substrate:
//! sweeps a slate of uniform and mixed per-layer configurations of the
//! quantized orientation classifier (conv → relu → pool → dense), costs
//! each one with the synthesized QoS tables, extracts the
//! accuracy-vs-cost Pareto front and measures the batched-GEMM speedup
//! over the scalar dyn-dispatch baseline — all into `BENCH_dnn.json`.
//!
//! ```text
//! cargo run --release -p realm-bench --bin dnn -- \
//!     --smoke --threads 2 --layers conv1=realm16t4,dense1=scaletrim:t=6@16 \
//!     --out results --trace dnn.jsonl
//! ```
//!
//! The sweep runs as a `Workload` on the shared engine, so
//! `--checkpoint-dir`/`--resume`/`--max-chunks`/`--trace` behave exactly
//! as in every other driver, and results are bit-identical at any
//! `--threads` setting and across interrupt + resume.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use realm_bench::stopwatch;
use realm_bench::{or_die_opt, Driver, OrDie};
use realm_core::rng::SplitMix64;
use realm_core::{Realm, RealmConfig};
use realm_dsp::{matmul, matmul_scalar_reference, Matrix, QuantNet};
use realm_metrics::dnn::{parse_layer_bindings, tiny_net_slate, DnnConfig, DnnSweep};
use realm_metrics::{pareto_front, Engine, ErrorSla, ParetoPoint};
use realm_qos::{QosTable, TableConfig};

/// One fully-scored sweep row.
struct Row {
    config: DnnConfig,
    accuracy: f64,
    cost: f64,
    mean_error: f64,
    on_front: bool,
    sla_met: Option<bool>,
}

fn main() {
    let driver = Driver::from_env();
    let opts = &driver.opts;

    // ---- the net and the candidate slate -------------------------------
    let net = realm_dsp::tiny_net();
    let mac_layers = net.mac_layers();
    let macs: Vec<(String, u64)> = net.mac_counts();
    println!(
        "net {:016x}: MAC layers {}",
        net.fingerprint(),
        macs.iter()
            .map(|(l, n)| format!("{l}({n})"))
            .collect::<Vec<_>>()
            .join(", ")
    );

    let mut configs = tiny_net_slate().or_die("the dnn slate");
    if let Some(spec) = &opts.layers {
        let bindings = parse_layer_bindings(spec).or_die("--layers");
        let mut user =
            DnnConfig::from_bindings("accurate", &bindings, &mac_layers).or_die("--layers");
        user.label = format!("user:{spec}");
        configs.push(user);
    }

    // ---- the accuracy sweep, on the shared engine ----------------------
    let eval_n = if opts.smoke { 128 } else { 512 };
    let sweep = DnnSweep::new(net.clone(), configs, eval_n, opts.seed).or_die("sweep");
    println!(
        "sweeping {} configurations × {eval_n} evaluation patches",
        sweep.configs().len()
    );
    let outcome = driver.run("dnn sweep", || {
        Engine::supervised(&sweep, driver.supervisor())
    });
    let points = driver.require_complete("dnn sweep", outcome);

    // ---- costs from the synthesized QoS tables -------------------------
    let mut table_cfg = if opts.smoke {
        TableConfig::smoke()
    } else {
        TableConfig::paper()
    };
    table_cfg.threads = opts.threads;
    let cached = opts.out_dir.as_ref().and_then(|dir| {
        QosTable::load(&dir.join("qos_tables.json"), Some(table_cfg.fingerprint())).ok()
    });
    let table = match cached {
        Some(table) => {
            println!("loaded qos_tables.json (fingerprint matches; skipping characterization)");
            table
        }
        None => QosTable::characterize(&table_cfg).or_die("zoo characterization"),
    };

    let total_macs: u64 = macs.iter().map(|(_, n)| n).sum();
    let weighted = |per_layer: &dyn Fn(&str) -> f64, designs: &[String]| -> f64 {
        designs
            .iter()
            .zip(&macs)
            .map(|(design, (_, n))| per_layer(design) * *n as f64)
            .sum::<f64>()
            / total_macs as f64
    };
    let entry_of = |design: &str| {
        // Exact zoo member, else the family mean (compact specs like
        // realm16t4 can name off-grid points the tables never built).
        table.entries.iter().find(|e| e.design == design)
    };
    let family_mean = |design: &str, pick: &dyn Fn(&realm_qos::QosEntry) -> f64| -> f64 {
        let family = design.split([':', '@']).next().unwrap_or(design);
        let peers: Vec<f64> = table
            .entries
            .iter()
            .filter(|e| e.design.split([':', '@']).next() == Some(family))
            .map(pick)
            .collect();
        if peers.is_empty() {
            f64::NAN
        } else {
            peers.iter().sum::<f64>() / peers.len() as f64
        }
    };
    let cost_of = |design: &str| match entry_of(design) {
        Some(e) => e.cost,
        None => family_mean(design, &|e| e.cost),
    };
    let err_of = |design: &str| match entry_of(design) {
        Some(e) => e.mean_error,
        None => family_mean(design, &|e| e.mean_error),
    };

    // ---- score, Pareto, SLA --------------------------------------------
    let mut rows: Vec<Row> = points
        .into_iter()
        .map(|p| {
            let config = sweep.configs()[p.config_index].clone();
            let cost = weighted(&cost_of, &config.designs);
            let mean_error = weighted(&err_of, &config.designs);
            let sla_met = opts.error_sla.as_ref().map(|sla| {
                sla.mean.is_none_or(|bound| mean_error <= bound)
                    && sla.nmed.is_none_or(|bound| {
                        weighted(
                            &|d| match entry_of(d) {
                                Some(e) => e.nmed,
                                None => family_mean(d, &|e| e.nmed),
                            },
                            &config.designs,
                        ) <= bound
                    })
                    && sla.peak.is_none_or(|bound| {
                        config
                            .designs
                            .iter()
                            .map(|d| match entry_of(d) {
                                Some(e) => e.peak_error,
                                None => family_mean(d, &|e| e.peak_error),
                            })
                            .fold(0.0f64, f64::max)
                            <= bound
                    })
            });
            Row {
                config,
                accuracy: p.accuracy,
                cost,
                mean_error,
                on_front: false,
                sla_met,
            }
        })
        .collect();

    let pareto_points: Vec<ParetoPoint> = rows
        .iter()
        .map(|r| ParetoPoint::new(r.config.label.clone(), r.accuracy, r.cost))
        .collect();
    for idx in pareto_front(&pareto_points) {
        rows[idx].on_front = true;
    }

    println!(
        "{:<58} {:>9} {:>8} {:>10} {:>6}",
        "config", "accuracy", "cost", "mean_err", "front"
    );
    for row in &rows {
        println!(
            "{:<58} {:>9.4} {:>8.4} {:>10.6} {:>6}{}",
            row.config.label,
            row.accuracy,
            row.cost,
            row.mean_error,
            if row.on_front { "*" } else { "" },
            match row.sla_met {
                Some(true) => "  sla:met",
                Some(false) => "  sla:MISSED",
                None => "",
            }
        );
    }

    // A mixed configuration earns its place by dominating a uniform one:
    // at least as accurate, no more expensive, strictly better in one.
    let dominant_mixed = rows.iter().find(|m| {
        m.on_front
            && m.config.label.starts_with("mixed:")
            && rows.iter().any(|u| {
                u.config.label.starts_with("uniform:")
                    && m.accuracy >= u.accuracy
                    && m.cost <= u.cost
                    && (m.accuracy > u.accuracy || m.cost < u.cost)
            })
    });
    match dominant_mixed {
        Some(m) => println!("dominant mixed config: {}", m.config.label),
        None => println!("warning: no mixed config dominates a uniform one on this host"),
    }

    let selected = opts.error_sla.as_ref().map(|sla| {
        let best = rows
            .iter()
            .filter(|r| r.sla_met == Some(true))
            .min_by(|a, b| a.cost.total_cmp(&b.cost));
        match best {
            Some(r) => {
                println!("cheapest config within SLA {sla}: {}", r.config.label);
                r.config.label.clone()
            }
            None => {
                println!("no configuration satisfies SLA {sla}; reporting all rows");
                String::new()
            }
        }
    });

    // ---- batched-GEMM throughput vs the scalar baseline ----------------
    let design = Realm::new(RealmConfig::n16(16, 0)).or_die("realm16t0");
    let n = 96usize;
    let mut rng = SplitMix64::new(opts.seed);
    let mut operand = |_: usize, _: usize| rng.range_inclusive(0, 254) as i32 - 127;
    let a = Matrix::from_fn(n, n, &mut operand);
    let b = Matrix::from_fn(n, n, &mut operand);
    let gemm_macs = (n * n * n) as f64;
    let before = stopwatch::bench("gemm/scalar-dyn", || {
        matmul_scalar_reference(&design, &a, &b, 7)
    });
    let after = stopwatch::bench("gemm/batched", || matmul(&design, &a, &b, 7));
    let macs_before = gemm_macs * 1e9 / before.ns_per_iter;
    let macs_after = gemm_macs * 1e9 / after.ns_per_iter;
    let speedup = macs_after / macs_before;
    println!(
        "GEMM {n}×{n}×{n}: {:.1}M MACs/s scalar-dyn → {:.1}M MACs/s batched ({speedup:.2}x)",
        macs_before / 1e6,
        macs_after / 1e6
    );

    // The accurate anchor guards the substrate itself: if the exact
    // binding stops classifying, the refactor (not the multipliers) broke.
    let anchor = or_die_opt(
        rows.iter().find(|r| r.config.label == "uniform:accurate"),
        "accurate anchor missing from the sweep",
    );
    if anchor.accuracy < 0.85 {
        realm_bench::die(&format!(
            "accurate anchor accuracy {:.4} below the 0.85 floor — substrate regression",
            anchor.accuracy
        ));
    }

    // ---- artifacts -----------------------------------------------------
    opts.write_csv("qos_tables.json", &table.to_json());
    opts.write_csv(
        "BENCH_dnn.json",
        &render_json(
            &net,
            eval_n,
            &rows,
            selected.as_deref(),
            opts.error_sla.as_ref(),
            macs_before,
            macs_after,
            speedup,
            dominant_mixed.map(|m| m.config.label.clone()).as_deref(),
        ),
    );
    driver.finish();
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    net: &QuantNet,
    eval_n: usize,
    rows: &[Row],
    selected: Option<&str>,
    sla: Option<&ErrorSla>,
    macs_before: f64,
    macs_after: f64,
    speedup: f64,
    dominant_mixed: Option<&str>,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"realm-bench/dnn/v1\",\n");
    out.push_str(&format!(
        "  \"net_fingerprint\": \"{:016x}\",\n  \"eval_patches\": {eval_n},\n",
        net.fingerprint()
    ));
    if let Some(sla) = sla {
        out.push_str(&format!("  \"error_sla\": \"{sla}\",\n"));
        out.push_str(&format!(
            "  \"selected\": \"{}\",\n",
            selected.unwrap_or("")
        ));
    }
    out.push_str(&format!(
        "  \"gemm_macs_per_sec\": {{ \"scalar_dyn\": {macs_before:.1}, \"batched\": {macs_after:.1}, \"speedup\": {speedup:.4} }},\n"
    ));
    out.push_str(&format!(
        "  \"dominant_mixed\": \"{}\",\n  \"configs\": [\n",
        dominant_mixed.unwrap_or("")
    ));
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"label\": \"{}\", \"designs\": [{}], \"accuracy\": {:.6}, \"cost\": {:.6}, \"mean_error\": {:.8}, \"on_front\": {}{} }}{}\n",
            row.config.label,
            row.config
                .designs
                .iter()
                .map(|d| format!("\"{d}\""))
                .collect::<Vec<_>>()
                .join(", "),
            row.accuracy,
            row.cost,
            row.mean_error,
            row.on_front,
            match row.sla_met {
                Some(met) => format!(", \"sla_met\": {met}"),
                None => String::new(),
            },
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
