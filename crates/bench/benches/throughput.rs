//! Wall-clock throughput of the characterization substrate, four ways:
//!
//! 1. **scalar-dyn** — one `Multiplier::multiply` virtual call per
//!    operand pair (how campaigns ran before the batched engine),
//! 2. **batched** — one `multiply_batch` virtual call per operand block,
//!    dispatching through `realm_simd::active_tier()` (the fast path the
//!    campaigns use; honors `REALM_FORCE_SCALAR`),
//! 3. **batched-scalar / batched-simd** — the same block kernels with
//!    the ISA tier pinned per measurement, producing the before/after
//!    scalar-vs-SIMD comparison recorded as `simd_speedup`,
//! 4. **parallel** — the end-to-end `MonteCarlo` engine at several
//!    worker counts (the thread-scaling curve).
//!
//! Prints human-readable lines and writes a machine-readable
//! `BENCH_throughput.json` (to `--out DIR`, created if missing, else the
//! working directory) that also records the active kernel tier.
//!
//! ```text
//! cargo bench -p realm-bench --bench throughput -- --smoke --threads 2 --out results
//! ```

use realm_baselines::{Calm, Drum};
use realm_bench::stopwatch::{
    bench, opaque, KernelThroughput, ScalingPoint, SimdComparison, ThroughputReport,
};
use realm_bench::{Options, OrDie};
use realm_core::simd::{self, Tier};
use realm_core::{Accurate, Multiplier, Realm, RealmConfig};
use realm_metrics::MonteCarlo;
use realm_par::Threads;
use std::time::Instant;

/// Operand pairs per kernel block: large enough to amortize the batch
/// call, small enough to stay cache-resident.
const BLOCK: usize = 4_096;

fn operand_stream(n: usize) -> Vec<(u64, u64)> {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    (0..n)
        .map(|_| {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            ((x >> 16) & 0xFFFF, (x >> 40) & 0xFFFF)
        })
        .collect()
}

fn kernel_designs() -> Vec<Box<dyn Multiplier>> {
    vec![
        Box::new(Accurate::new(16)),
        Box::new(Calm::new(16)),
        Box::new(Drum::new(16, 6).or_die("paper design point")),
        Box::new(Realm::new(RealmConfig::n16(16, 0)).or_die("paper design point")),
        Box::new(Realm::new(RealmConfig::n16(4, 9)).or_die("paper design point")),
    ]
}

/// Measures every design in both execution modes and returns the kernel
/// rows, reporting the batched-over-scalar speedup per design.
fn measure_kernels(report: &mut ThroughputReport) {
    let pairs = operand_stream(BLOCK);
    let mut products = vec![0u64; BLOCK];
    for design in kernel_designs() {
        let label = format!("{}{}", design.name(), design.config());

        let scalar = bench(&format!("scalar-dyn/{label}"), || {
            let mut acc = 0u64;
            for &(a, b) in &pairs {
                acc = acc.wrapping_add(design.multiply(opaque(a), opaque(b)));
            }
            acc
        });
        let batched = bench(&format!("batched/{label}"), || {
            design.multiply_batch(opaque(&pairs), &mut products);
            products[BLOCK - 1]
        });

        for (mode, m) in [("scalar-dyn", &scalar), ("batched", &batched)] {
            let ns = m.ns_per_iter / BLOCK as f64;
            report.kernels.push(KernelThroughput {
                design: label.clone(),
                mode: mode.to_string(),
                ns_per_multiply: ns,
                samples_per_sec: 1e9 / ns,
            });
        }
        println!(
            "  {label:<22} batched speedup over scalar-dyn: {:.2}x",
            scalar.ns_per_iter / batched.ns_per_iter
        );
    }
}

/// Measures each design's block kernel with the ISA tier pinned per
/// measurement — the scalar reference first, then the wide tier — and
/// records the before/after rows plus the `simd_speedup` comparison.
/// On machines without AVX2 the wide tier falls back to scalar inside
/// `run`, so the comparison degenerates to ~1.0× instead of failing.
fn measure_tiers(report: &mut ThroughputReport) {
    let pairs = operand_stream(BLOCK);
    let mut products = vec![0u64; BLOCK];
    let realm16 = Realm::new(RealmConfig::n16(16, 0)).or_die("paper design point");
    let realm4 = Realm::new(RealmConfig::n16(4, 9)).or_die("paper design point");
    let accurate = simd::AccurateKernel::new(16).or_die("16-bit accurate kernel");
    let calm = simd::CalmKernel::new(16).or_die("16-bit cALM kernel");
    let drum = simd::DrumKernel::new(16, 6).or_die("16-bit DRUM kernel");
    type Runner<'a> = Box<dyn Fn(Tier, &[(u64, u64)], &mut [u64]) + 'a>;
    let runners: Vec<(&str, Runner)> = vec![
        ("Accurate", Box::new(move |t, p, o| accurate.run(t, p, o))),
        ("cALM", Box::new(move |t, p, o| calm.run(t, p, o))),
        ("DRUMk=6", Box::new(move |t, p, o| drum.run(t, p, o))),
        (
            "REALM16t=0",
            Box::new(|t, p, o| {
                let kernel = realm16.batch_kernel().or_die("narrow REALM kernel");
                kernel.run(t, p, o);
            }),
        ),
        (
            "REALM4t=9",
            Box::new(|t, p, o| {
                let kernel = realm4.batch_kernel().or_die("narrow REALM kernel");
                kernel.run(t, p, o);
            }),
        ),
    ];
    for (label, run) in &runners {
        let scalar = bench(&format!("batched-scalar/{label}"), || {
            run(Tier::Scalar, &pairs, &mut products);
            products[BLOCK - 1]
        });
        let wide = bench(&format!("batched-simd/{label}"), || {
            run(Tier::Avx2, &pairs, &mut products);
            products[BLOCK - 1]
        });
        for (mode, m) in [("batched-scalar", &scalar), ("batched-simd", &wide)] {
            let ns = m.ns_per_iter / BLOCK as f64;
            report.kernels.push(KernelThroughput {
                design: label.to_string(),
                mode: mode.to_string(),
                ns_per_multiply: ns,
                samples_per_sec: 1e9 / ns,
            });
        }
        let scalar_rate = 1e9 * BLOCK as f64 / scalar.ns_per_iter;
        let simd_rate = 1e9 * BLOCK as f64 / wide.ns_per_iter;
        report.simd.push(SimdComparison {
            design: label.to_string(),
            scalar_multiplies_per_sec: scalar_rate,
            simd_multiplies_per_sec: simd_rate,
            speedup: simd_rate / scalar_rate,
        });
        println!(
            "  {label:<22} simd speedup over scalar tier: {:.2}x",
            scalar.ns_per_iter / wide.ns_per_iter
        );
    }
}

/// Times the end-to-end Monte-Carlo engine on the paper's headline design
/// at each worker count (best of `reps` runs — campaigns are
/// deterministic, so only the clock varies).
fn measure_scaling(
    samples: u64,
    seed: u64,
    counts: &[usize],
    reps: u32,
    report: &mut ThroughputReport,
) {
    let design = Realm::new(RealmConfig::n16(16, 0)).or_die("paper design point");
    let mut base_rate = None;
    for &threads in counts {
        let campaign = MonteCarlo::new(samples, seed).with_threads(Threads::Fixed(threads));
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let t0 = Instant::now();
            opaque(campaign.characterize(&design));
            best = best.min(t0.elapsed().as_secs_f64());
        }
        let rate = samples as f64 / best;
        let base = *base_rate.get_or_insert(rate);
        let point = ScalingPoint {
            threads,
            samples_per_sec: rate,
            speedup: rate / base,
        };
        println!(
            "  montecarlo REALM16 (t=0) threads={threads:<2} {:>12.0} samples/s (speedup {:.2}x)",
            point.samples_per_sec, point.speedup
        );
        report.scaling.push(point);
    }
}

/// Gate-level netlist evaluation speed (unchanged from the original
/// bench; skipped under `--smoke`).
fn bench_netlist_eval() {
    let realm = Realm::new(RealmConfig::n16(16, 0)).or_die("paper design point");
    let netlists = vec![
        realm_synth::blocks::multiplier::wallace_netlist(16),
        realm_synth::designs::calm_netlist(16),
        realm_synth::designs::realm_netlist(&realm),
    ];
    for nl in &netlists {
        bench(&format!("netlist_eval/{}", nl.name()), || {
            nl.eval_one(&[("a", opaque(48_131)), ("b", opaque(60_007))], "p")
        });
    }
}

fn main() {
    let opts = Options::from_env();
    let samples = if opts.samples != Options::default().samples {
        opts.samples
    } else if opts.smoke {
        1 << 16
    } else {
        1 << 20
    };
    let reps = if opts.smoke { 1 } else { 3 };
    // Always include the 1-worker baseline; probe powers of two up to the
    // requested (or detected) parallelism, but at least 2 so the curve
    // always exercises the pool.
    let max_threads = opts.threads.resolve().max(2);
    let counts: Vec<usize> = [1usize, 2, 4, 8, 16]
        .into_iter()
        .filter(|&n| n <= max_threads)
        .collect();

    let mut report = ThroughputReport {
        samples,
        kernel_tier: simd::active_tier().name().to_string(),
        ..ThroughputReport::default()
    };
    println!("multiply kernel tier: {}", simd::active_tier());
    println!("multiply-kernel throughput ({BLOCK}-pair blocks):");
    measure_kernels(&mut report);
    println!("\nscalar vs SIMD kernel tiers ({BLOCK}-pair blocks):");
    measure_tiers(&mut report);
    println!("\nparallel Monte-Carlo scaling ({samples} samples/campaign):");
    measure_scaling(samples, opts.seed, &counts, reps, &mut report);
    if !opts.smoke {
        println!("\ngate-level netlist evaluation:");
        bench_netlist_eval();
    }

    let dir = opts
        .out_dir
        .clone()
        .unwrap_or_else(|| std::path::PathBuf::from("."));
    std::fs::create_dir_all(&dir).or_die("create output directory");
    let path = dir.join("BENCH_throughput.json");
    // Atomic (tmp + fsync + rename): a reader of the report never
    // observes a torn file even if the bench is killed mid-write.
    realm_harness::atomic_write_str(&path, &report.to_json()).or_die("write throughput report");
    println!("\nwrote {}", path.display());
}
