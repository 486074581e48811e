//! A minimal wall-clock micro-benchmark harness.
//!
//! The workspace builds fully offline, so the benches cannot use an
//! external harness crate; this module provides the small subset actually
//! needed: warm-up, repeated timed batches, and a median-of-batches
//! nanoseconds-per-iteration report printed in a stable, greppable format.

use std::hint::black_box;
use std::time::Instant;

use realm_obs::json_string;

/// Re-exported so bench binaries keep optimizer barriers without an
/// external dependency.
pub use std::hint::black_box as opaque;

/// Result of one micro-benchmark: median nanoseconds per iteration.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Display label.
    pub label: String,
    /// Median ns/iter across batches.
    pub ns_per_iter: f64,
    /// Iterations per batch actually used.
    pub iters_per_batch: u64,
}

impl Measurement {
    /// Formats the measurement as a stable single line.
    pub fn render(&self) -> String {
        format!(
            "bench {:<40} {:>12.1} ns/iter ({} iters/batch)",
            self.label, self.ns_per_iter, self.iters_per_batch
        )
    }
}

/// Times `f` and prints/returns the median ns/iter.
///
/// Auto-calibrates the batch size so each batch runs ≥ ~5 ms, runs one
/// warm-up batch and 7 timed batches, and reports the median — cheap but
/// resistant to scheduler noise.
pub fn bench<T, F: FnMut() -> T>(label: &str, mut f: F) -> Measurement {
    // Calibrate: grow the batch until it takes at least ~5 ms.
    let mut iters: u64 = 1;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let dt = t0.elapsed();
        if dt.as_millis() >= 5 || iters >= 1 << 24 {
            break;
        }
        iters = (iters * 4).min(1 << 24);
    }
    let mut samples: Vec<f64> = (0..7)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    let m = Measurement {
        label: label.to_string(),
        ns_per_iter: samples[samples.len() / 2],
        iters_per_batch: iters,
    };
    println!("{}", m.render());
    m
}

/// Throughput of one `(design, execution mode)` kernel measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelThroughput {
    /// Design label (`"REALM16 (t=0)"`).
    pub design: String,
    /// Execution mode: `"scalar-dyn"` (one `multiply` call per pair
    /// through the trait object) or `"batched"` (one `multiply_batch`
    /// call per operand block).
    pub mode: String,
    /// Nanoseconds per multiply.
    pub ns_per_multiply: f64,
    /// Multiplies per second (1e9 / `ns_per_multiply`).
    pub samples_per_sec: f64,
}

/// Before/after comparison of one design's batch kernel across ISA
/// tiers: the scalar reference tier versus the widest tier the process
/// dispatches to (identical on machines without AVX2, where the wide
/// tier falls back to scalar).
#[derive(Debug, Clone, PartialEq)]
pub struct SimdComparison {
    /// Design label (`"REALM16 (t=0)"`).
    pub design: String,
    /// Multiplies per second on the pinned scalar tier.
    pub scalar_multiplies_per_sec: f64,
    /// Multiplies per second on the wide (SIMD) tier.
    pub simd_multiplies_per_sec: f64,
    /// `simd / scalar` rate ratio.
    pub speedup: f64,
}

/// One point of the Monte-Carlo thread-scaling curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingPoint {
    /// Worker threads used.
    pub threads: usize,
    /// End-to-end campaign samples per second at that worker count.
    pub samples_per_sec: f64,
    /// Speedup over the 1-worker point.
    pub speedup: f64,
}

/// The machine-readable throughput report written as
/// `BENCH_throughput.json` — serial-vs-batched kernel rates plus the
/// parallel-campaign scaling curve.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ThroughputReport {
    /// Monte-Carlo samples per scaling-curve campaign.
    pub samples: u64,
    /// The ISA tier `multiply_batch` dispatches to in this process
    /// (`"scalar"` or `"avx2"`, from `realm_simd::active_tier`).
    pub kernel_tier: String,
    /// Per-(design, mode) kernel throughputs.
    pub kernels: Vec<KernelThroughput>,
    /// Scalar-vs-SIMD before/after comparison per design.
    pub simd: Vec<SimdComparison>,
    /// Thread-scaling curve of the parallel Monte-Carlo engine.
    pub scaling: Vec<ScalingPoint>,
}

impl ThroughputReport {
    /// Renders the report as a self-describing JSON document (hand-rolled
    /// — the workspace builds offline, with no serialization crate).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"realm-bench/throughput/v2\",\n");
        out.push_str(&format!("  \"samples\": {},\n", self.samples));
        out.push_str(&format!(
            "  \"kernel_tier\": {},\n",
            json_string(&self.kernel_tier)
        ));
        out.push_str("  \"kernels\": [");
        for (i, k) in self.kernels.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                "    {{\"design\": {}, \"mode\": {}, \
                 \"ns_per_multiply\": {}, \"samples_per_sec\": {}}}",
                json_string(&k.design),
                json_string(&k.mode),
                json_number(k.ns_per_multiply),
                json_number(k.samples_per_sec),
            ));
        }
        out.push_str("\n  ],\n  \"simd_speedup\": [");
        for (i, c) in self.simd.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                "    {{\"design\": {}, \"scalar_multiplies_per_sec\": {}, \
                 \"simd_multiplies_per_sec\": {}, \"speedup\": {}}}",
                json_string(&c.design),
                json_number(c.scalar_multiplies_per_sec),
                json_number(c.simd_multiplies_per_sec),
                json_number(c.speedup),
            ));
        }
        out.push_str("\n  ],\n  \"scaling\": [");
        for (i, p) in self.scaling.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                "    {{\"threads\": {}, \"samples_per_sec\": {}, \"speedup\": {}}}",
                p.threads,
                json_number(p.samples_per_sec),
                json_number(p.speedup),
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// Formats an `f64` as a JSON number (JSON has no NaN/Infinity tokens, so
/// non-finite values degrade to 0).
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.3}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_positive_time() {
        let m = bench("noop_sum", || (0..100u64).sum::<u64>());
        assert!(m.ns_per_iter > 0.0);
        assert!(m.iters_per_batch >= 1);
    }

    #[test]
    fn render_contains_label() {
        let m = Measurement {
            label: "x".into(),
            ns_per_iter: 1.5,
            iters_per_batch: 10,
        };
        assert!(m.render().contains('x'));
    }

    #[test]
    fn json_number_degrades_non_finite_values() {
        assert_eq!(json_number(f64::NAN), "0");
        assert_eq!(json_number(f64::INFINITY), "0");
        assert_eq!(json_number(2.5), "2.500");
    }

    #[test]
    fn report_json_has_expected_structure() {
        let report = ThroughputReport {
            samples: 1 << 16,
            kernel_tier: "avx2".into(),
            kernels: vec![KernelThroughput {
                design: "REALM16 (t=0)".into(),
                mode: "batched".into(),
                ns_per_multiply: 12.5,
                samples_per_sec: 8.0e7,
            }],
            simd: vec![SimdComparison {
                design: "REALM16 (t=0)".into(),
                scalar_multiplies_per_sec: 4.0e8,
                simd_multiplies_per_sec: 1.2e9,
                speedup: 3.0,
            }],
            scaling: vec![ScalingPoint {
                threads: 1,
                samples_per_sec: 1.0e7,
                speedup: 1.0,
            }],
        };
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"realm-bench/throughput/v2\""));
        assert!(json.contains("\"kernel_tier\": \"avx2\""));
        assert!(json.contains("\"design\": \"REALM16 (t=0)\""));
        assert!(json.contains("\"simd_speedup\": ["));
        assert!(json.contains("\"speedup\": 3.000"));
        assert!(json.contains("\"threads\": 1"));
        // Structurally balanced and quote-paired (all strings here are
        // escape-free, so raw counts suffice).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(
            json.matches('[').count(),
            json.matches(']').count(),
            "{json}"
        );
        assert_eq!(json.matches('"').count() % 2, 0, "{json}");
    }

    #[test]
    fn empty_report_is_still_valid_json_shape() {
        let json = ThroughputReport::default().to_json();
        assert!(json.contains("\"kernels\": ["));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
