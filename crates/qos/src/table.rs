//! Characterized error/cost tables: the controller's menu.
//!
//! One characterization pass measures every design in the zoo —
//! accuracy with `realm-metrics` (mean relative error, NMED, peak
//! relative error) and hardware cost with `realm-synth`'s calibrated
//! area/power proxy — and persists the result as `qos_tables.json`:
//!
//! * **versioned** — the document carries [`TABLE_SCHEMA`]; unknown
//!   schemas are rejected, not guessed;
//! * **checksummed** — an FNV-1a digest of the document bytes rides in
//!   the last member, so tampering and torn writes fail the load;
//! * **fingerprinted** — a digest of the characterization inputs
//!   (schema, sample budget, seed, power-sim cycles, zoo) lets a loader
//!   reject tables characterized under different conditions than the
//!   caller expects ("stale fingerprints").
//!
//! Floats serialize through [`exact_f64`] as
//! `{"value":…,"bits":"ieee754-hex"}`, the convention of the serve
//! results too, so a load round-trips every metric bit-exactly.

use realm_harness::Fnv64;
use realm_metrics::{DesignSpec, DistanceWorkload, Engine, MonteCarlo, Threads};
use realm_obs::{atomic_write_str, json::exact_f64, json_string, Json};
use realm_synth::designs::{pair, DesignPair};
use realm_synth::report::{PAPER_ACCURATE_AREA_UM2, PAPER_ACCURATE_POWER_UW};
use realm_synth::Reporter;
use std::path::Path;

use crate::QosError;

/// Schema tag of a table document this crate writes and loads.
pub const TABLE_SCHEMA: &str = "realm-qos/tables/v1";

/// Inputs of a characterization pass. The fingerprint binds a table to
/// these values, so a loader can insist on a table produced under the
/// exact conditions it expects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableConfig {
    /// Operand pairs per design for the error campaigns.
    pub samples: u64,
    /// RNG seed shared by error campaigns and the power stimulus.
    pub seed: u64,
    /// Power-simulation stimulus cycles per design.
    pub cycles: u32,
    /// Worker threads for the error campaigns (pure performance knob;
    /// not part of the fingerprint — results are thread-invariant).
    pub threads: Threads,
}

impl TableConfig {
    /// The full-fidelity pass (2²⁰ error samples, 1000 power cycles).
    pub fn paper() -> Self {
        TableConfig {
            samples: 1 << 20,
            seed: 0xEA51_1AB5,
            cycles: 1000,
            threads: Threads::Auto,
        }
    }

    /// A CI-friendly pass (2¹⁴ error samples, 128 power cycles) — same
    /// pipeline, small enough to regenerate on every run.
    pub fn smoke() -> Self {
        TableConfig {
            samples: 1 << 14,
            seed: 0xEA51_1AB5,
            cycles: 128,
            threads: Threads::Auto,
        }
    }

    /// The fingerprint a table characterized under this configuration
    /// carries: FNV-1a over schema, samples, seed, cycles and the zoo's
    /// design texts.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.update(TABLE_SCHEMA.as_bytes());
        h.update(&self.samples.to_le_bytes());
        h.update(&self.seed.to_le_bytes());
        h.update(&self.cycles.to_le_bytes());
        for text in zoo_designs() {
            h.update(text.as_bytes());
            h.update(b"\n");
        }
        h.finish()
    }
}

/// The design zoo the characterization pass walks, as spec texts in
/// table order: the accurate anchor, the REALM `(M, t)` grid, the
/// log-family baselines and the post-paper comparators (appended last,
/// so the earlier table order survives the extension). The texts are
/// part of the fingerprint byte for byte.
pub fn zoo_designs() -> Vec<String> {
    let mut texts = vec!["accurate".to_string()];
    for m in [4, 8, 16] {
        texts.extend([0, 3, 6, 9].map(|t| format!("realm:m={m},t={t}")));
    }
    texts.push("calm".into());
    texts.extend([4, 6].map(|k| format!("drum:k={k}")));
    texts.extend([0, 4].map(|t| format!("mbm:t={t}")));
    texts.extend([4, 6].map(|t| format!("scaletrim:t={t},c=1")));
    texts.extend([1, 2].map(|i| format!("ilm:i={i}")));
    texts
}

/// One characterized design: the controller's unit of choice.
#[derive(Debug, Clone, PartialEq)]
pub struct QosEntry {
    /// The design, in the `realm-metrics` spec grammar.
    pub design: String,
    /// Mean |relative error| (MRED, fraction).
    pub mean_error: f64,
    /// Normalized mean error distance.
    pub nmed: f64,
    /// Peak |relative error| (fraction).
    pub peak_error: f64,
    /// Calibrated combinational area (µm²).
    pub area_um2: f64,
    /// Calibrated dynamic power (µW).
    pub power_uw: f64,
    /// Scalar cost proxy: the mean of area and power relative to the
    /// accurate multiplier (accurate ≈ 1.0, cheaper designs < 1).
    pub cost: f64,
}

/// A characterized, fingerprinted error/cost table.
#[derive(Debug, Clone, PartialEq)]
pub struct QosTable {
    /// Error-campaign operand pairs per design.
    pub samples: u64,
    /// Characterization seed.
    pub seed: u64,
    /// Power-stimulus cycles.
    pub cycles: u32,
    /// Digest of the characterization inputs (see
    /// [`TableConfig::fingerprint`]).
    pub fingerprint: u64,
    /// Entries, sorted by ascending cost (ties broken by design text).
    pub entries: Vec<QosEntry>,
}

fn sort_entries(entries: &mut [QosEntry]) {
    entries.sort_by(|a, b| {
        a.cost
            .total_cmp(&b.cost)
            .then_with(|| a.design.cmp(&b.design))
    });
}

impl QosTable {
    /// Runs the characterization pass: two error campaigns (relative
    /// error + error distance) and one calibrated synthesis report per
    /// zoo design. Deterministic for a given config — the error
    /// campaigns are thread-invariant and the power stimulus is seeded.
    pub fn characterize(cfg: &TableConfig) -> Result<QosTable, QosError> {
        let reporter = Reporter::paper_setup(cfg.cycles, cfg.seed);
        let mut entries = Vec::new();
        for text in zoo_designs() {
            let invalid = |e: &dyn std::fmt::Display| QosError::Design(format!("{text}: {e}"));
            let spec = DesignSpec::parse(&text).map_err(|e| invalid(&e))?;
            let DesignPair { model, netlist } = pair(&spec).map_err(|e| invalid(&e))?;
            let errors = MonteCarlo::new(cfg.samples, cfg.seed)
                .with_threads(cfg.threads)
                .characterize(model.as_ref());
            let distance = Engine::new(cfg.threads)
                .run(&DistanceWorkload::new(
                    model.as_ref(),
                    cfg.samples,
                    cfg.seed,
                ))
                .ok_or_else(|| invalid(&"the distance campaign drew no samples"))?;
            let report = reporter.report(&netlist);
            let cost = 0.5
                * (report.area_um2 / PAPER_ACCURATE_AREA_UM2
                    + report.power_uw / PAPER_ACCURATE_POWER_UW);
            entries.push(QosEntry {
                design: text,
                mean_error: errors.mean_error,
                nmed: distance.nmed,
                peak_error: errors.peak_error(),
                area_um2: report.area_um2,
                power_uw: report.power_uw,
                cost,
            });
        }
        sort_entries(&mut entries);
        Ok(QosTable {
            samples: cfg.samples,
            seed: cfg.seed,
            cycles: cfg.cycles,
            fingerprint: cfg.fingerprint(),
            entries,
        })
    }

    /// The entry for a design text, if characterized.
    pub fn entry(&self, design: &str) -> Option<&QosEntry> {
        self.entries.iter().find(|e| e.design == design)
    }

    /// Serializes the table (schema [`TABLE_SCHEMA`]). The final
    /// member is an FNV-1a checksum of every byte before it, so the
    /// loader can verify integrity without reparsing.
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"schema\":{},\n\"samples\":{},\n\"seed\":{},\n\"cycles\":{},\n\
             \"fingerprint\":\"{:016x}\",\n\"entries\":[",
            json_string(TABLE_SCHEMA),
            self.samples,
            self.seed,
            self.cycles,
            self.fingerprint,
        );
        for (i, e) in self.entries.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}{{\"design\":{},\"mean_error\":{},\"nmed\":{},\"peak_error\":{},\
                 \"area_um2\":{},\"power_uw\":{},\"cost\":{}}}",
                json_string(&e.design),
                exact_f64(e.mean_error),
                exact_f64(e.nmed),
                exact_f64(e.peak_error),
                exact_f64(e.area_um2),
                exact_f64(e.power_uw),
                exact_f64(e.cost),
            );
        }
        out.push_str("\n]");
        let checksum = Fnv64::hash(out.as_bytes());
        let _ = write!(out, ",\n\"checksum\":\"{checksum:016x}\"}}\n");
        out
    }

    /// Parses and verifies a table document: checksum first (byte
    /// integrity), then schema, then shape.
    pub fn from_json(text: &str) -> Result<QosTable, QosError> {
        let marker = ",\n\"checksum\":\"";
        let idx = text
            .rfind(marker)
            .ok_or_else(|| QosError::Parse("missing checksum member".into()))?;
        let computed = Fnv64::hash(&text.as_bytes()[..idx]);
        let doc = Json::parse(text.trim_end()).map_err(|e| QosError::Parse(e.to_string()))?;
        let claimed = hex_u64(&doc, "checksum")?;
        if claimed != computed {
            return Err(QosError::Checksum { claimed, computed });
        }
        let schema = doc
            .get("schema")
            .and_then(Json::as_str)
            .ok_or_else(|| QosError::Parse("missing schema".into()))?;
        if schema != TABLE_SCHEMA {
            return Err(QosError::Unsupported(schema.to_string()));
        }
        let field = |key: &str| -> Result<u64, QosError> {
            doc.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| QosError::Parse(format!("missing or non-integer '{key}'")))
        };
        let mut entries = Vec::new();
        let items = doc
            .get("entries")
            .and_then(Json::as_array)
            .ok_or_else(|| QosError::Parse("missing entries array".into()))?;
        for item in items {
            let design = item
                .get("design")
                .and_then(Json::as_str)
                .ok_or_else(|| QosError::Parse("entry missing design".into()))?
                .to_string();
            let f = |key: &str| -> Result<f64, QosError> {
                let bits = item
                    .get(key)
                    .and_then(|v| v.get("bits"))
                    .and_then(Json::as_str)
                    .ok_or_else(|| {
                        QosError::Parse(format!("entry '{design}' missing float '{key}'"))
                    })?;
                u64::from_str_radix(bits, 16)
                    .map(f64::from_bits)
                    .map_err(|_| QosError::Parse(format!("entry '{design}': bad bits for '{key}'")))
            };
            entries.push(QosEntry {
                mean_error: f("mean_error")?,
                nmed: f("nmed")?,
                peak_error: f("peak_error")?,
                area_um2: f("area_um2")?,
                power_uw: f("power_uw")?,
                cost: f("cost")?,
                design,
            });
        }
        if entries.is_empty() {
            return Err(QosError::Parse("table has no entries".into()));
        }
        sort_entries(&mut entries);
        Ok(QosTable {
            samples: field("samples")?,
            seed: field("seed")?,
            cycles: u32::try_from(field("cycles")?)
                .map_err(|_| QosError::Parse("cycles does not fit in 32 bits".into()))?,
            fingerprint: hex_u64(&doc, "fingerprint")?,
            entries,
        })
    }

    /// Writes the table crash-safely (atomic rename).
    pub fn save(&self, path: &Path) -> Result<(), QosError> {
        atomic_write_str(path, &self.to_json()).map_err(|e| QosError::Io(e.to_string()))
    }

    /// Loads and verifies a table file. With `expected`, additionally
    /// rejects tables whose fingerprint is stale — characterized under
    /// different inputs than the caller requires.
    pub fn load(path: &Path, expected: Option<u64>) -> Result<QosTable, QosError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| QosError::Io(format!("{}: {e}", path.display())))?;
        let table = QosTable::from_json(&text)?;
        if let Some(expected) = expected {
            if table.fingerprint != expected {
                return Err(QosError::StaleFingerprint {
                    expected,
                    found: table.fingerprint,
                });
            }
        }
        Ok(table)
    }
}

fn hex_u64(doc: &Json, key: &str) -> Result<u64, QosError> {
    let text = doc
        .get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| QosError::Parse(format!("missing '{key}'")))?;
    u64::from_str_radix(text, 16).map_err(|_| QosError::Parse(format!("'{key}' is not hex")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> TableConfig {
        TableConfig {
            samples: 1 << 10,
            seed: 7,
            cycles: 16,
            threads: Threads::Fixed(2),
        }
    }

    #[test]
    fn characterize_round_trips_bit_exactly() {
        let cfg = tiny_config();
        let table = QosTable::characterize(&cfg).unwrap();
        assert!(
            table.entries.len() >= 8,
            "zoo too small: {}",
            table.entries.len()
        );
        // Sorted by cost; the accurate anchor is the most expensive of
        // the zoo and every approximate design is cheaper.
        let accurate = table.entry("accurate").unwrap();
        assert!((accurate.cost - 1.0).abs() < 0.05, "{}", accurate.cost);
        assert!(table.entries[0].cost < accurate.cost);
        for pair in table.entries.windows(2) {
            assert!(pair[0].cost <= pair[1].cost, "entries must sort by cost");
        }
        // REALM16/t=0 must beat cALM on mean error (the paper's point).
        let realm = table.entry("realm:m=16,t=0").unwrap();
        let calm = table.entry("calm").unwrap();
        assert!(realm.mean_error < calm.mean_error);
        // The post-paper comparators join the characterized zoo, and
        // scaleTRIM's cross term beats plain Mitchell on mean error.
        let scaletrim = table.entry("scaletrim:t=6,c=1").unwrap();
        let ilm = table.entry("ilm:i=2").unwrap();
        assert!(scaletrim.mean_error < calm.mean_error);
        assert!(ilm.mean_error < calm.mean_error);

        let text = table.to_json();
        let back = QosTable::from_json(&text).unwrap();
        assert_eq!(back, table, "load must round-trip bit-exactly");
        assert_eq!(back.fingerprint, cfg.fingerprint());
    }

    #[test]
    fn tampered_and_stale_tables_are_rejected() {
        let dir = std::env::temp_dir().join(format!("qos-table-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = tiny_config();
        let table = QosTable::characterize(&cfg).unwrap();
        let path = dir.join("qos_tables.json");
        table.save(&path).unwrap();
        assert_eq!(
            QosTable::load(&path, Some(cfg.fingerprint())).unwrap(),
            table
        );

        // A loader expecting a different configuration refuses the file.
        let other = TableConfig {
            samples: 1 << 11,
            ..cfg
        };
        assert!(matches!(
            QosTable::load(&path, Some(other.fingerprint())),
            Err(QosError::StaleFingerprint { .. })
        ));

        // Flip one byte inside an entry: checksum catches it.
        let mut bytes = std::fs::read_to_string(&path).unwrap();
        let at = bytes.find("\"cost\"").unwrap();
        bytes.replace_range(at..at + 6, "\"c0st\"");
        assert!(matches!(
            QosTable::from_json(&bytes),
            Err(QosError::Checksum { .. })
        ));

        // Unknown schema: rejected after checksum passes.
        let alien = table
            .to_json()
            .replace("realm-qos/tables/v1", "realm-qos/tables/v9");
        // (schema is inside the checksummed region, so re-sign it)
        let err = QosTable::from_json(&alien).unwrap_err();
        assert!(
            matches!(err, QosError::Checksum { .. } | QosError::Unsupported(_)),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
