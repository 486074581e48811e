//! Per-layer multiplier-binding sweeps over a quantized inference net —
//! the DNN design-space campaign, expressed as a [`Workload`] so it
//! inherits chunking, journaling/resume, quarantine and obs tracing from
//! the unified engine.
//!
//! # Per-layer binding grammar
//!
//! A *layer spec* names one design per MAC layer:
//!
//! ```text
//! layers  := binding { "," ( binding | param ) }
//! binding := layer "=" design
//! param   := key "=" int          (continues the previous design)
//! ```
//!
//! where `design` is the [`crate::spec::parse_design`] grammar with two
//! conveniences:
//!
//! * **compact REALM aliases** — `realm16t4` ≡ `realm:m=16,t=4`;
//! * **trailing width** — a `@W` suffix may follow the parameter list
//!   (`scaletrim:t=6@16` ≡ `scaletrim@16:t=6`), matching how the specs
//!   read aloud.
//!
//! Because design parameters are the short keys of the family table
//! (`m`, `t`, `q`, `w`, `nb`, …) and layer names are longer identifiers,
//! a `key=value` segment after a binding unambiguously continues that
//! binding's parameter list:
//!
//! ```
//! use realm_metrics::dnn::parse_layer_bindings;
//!
//! let specs = parse_layer_bindings("conv1=realm:m=8,t=4,dense1=scaletrim:t=6@16").unwrap();
//! assert_eq!(specs[0].layer, "conv1");
//! assert_eq!(specs[0].design, "realm:m=8,t=4");
//! assert_eq!(specs[1].design, "scaletrim@16:t=6");
//! ```
//!
//! Layers not named by a spec keep the sweep's default design, so a spec
//! is a *patch* over a uniform baseline.

use realm_baselines::catalog::FAMILIES;
use realm_core::Multiplier;
use realm_dsp::QuantNet;
use realm_par::{Chunk, ChunkPlan};

use crate::engine::Workload;
use crate::spec::{parse_design, SpecError};

/// One `layer=design` binding from a layer spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerBinding {
    /// The MAC layer name (e.g. `conv1`).
    pub layer: String,
    /// The normalized design text (compact aliases expanded, trailing
    /// `@W` relocated), valid for [`parse_design`].
    pub design: String,
}

/// Whether `text` is a design parameter key of any family — what
/// disambiguates a parameter continuation from a new `layer=design`
/// binding.
fn is_param_key(text: &str) -> bool {
    let text = text.trim().to_ascii_lowercase();
    FAMILIES
        .iter()
        .any(|family| family.keys.iter().any(|&(key, _)| key == text))
}

fn bad(design: &str, detail: String) -> SpecError {
    SpecError::BadParam {
        design: design.to_string(),
        detail,
    }
}

/// Expands the compact REALM alias `realm<M>t<T>` (e.g. `realm16t4`) in
/// the *name* portion of a design text; other names pass through.
fn expand_compact_alias(design: &str) -> String {
    let (head, tail) = match design.find([':', '@']) {
        Some(pos) => design.split_at(pos),
        None => (design, ""),
    };
    let name = head.trim().to_ascii_lowercase();
    if let Some(rest) = name.strip_prefix("realm") {
        if let Some((m, t)) = rest.split_once('t') {
            if !m.is_empty()
                && !t.is_empty()
                && m.chars().all(|c| c.is_ascii_digit())
                && t.chars().all(|c| c.is_ascii_digit())
            {
                let params = match tail.strip_prefix(':') {
                    Some(p) => format!(":m={m},t={t},{p}"),
                    None => format!("{tail}:m={m},t={t}"),
                };
                return format!("realm{params}");
            }
        }
    }
    design.to_string()
}

/// Relocates a trailing `@W` that follows the parameter list onto the
/// design name: `scaletrim:t=6@16` → `scaletrim@16:t=6`.
fn relocate_trailing_width(design: &str) -> Result<String, SpecError> {
    let Some(colon) = design.find(':') else {
        return Ok(design.to_string());
    };
    let Some(at) = design.rfind('@') else {
        return Ok(design.to_string());
    };
    if at < colon {
        return Ok(design.to_string());
    }
    let (head, width) = (&design[..at], &design[at + 1..]);
    if width.trim().is_empty() || !width.trim().chars().all(|c| c.is_ascii_digit()) {
        return Err(bad(
            design,
            format!("'@{}' is not an unsigned operand width", width.trim()),
        ));
    }
    if head[..colon].contains('@') {
        return Err(bad(design, "operand width given twice via '@W'".into()));
    }
    let (name, params) = head.split_at(colon);
    Ok(format!("{name}@{}{params}", width.trim()))
}

/// Normalizes one design text (alias expansion + width relocation) and
/// validates it against the design grammar.
fn normalize_design(design: &str) -> Result<String, SpecError> {
    let text = relocate_trailing_width(&expand_compact_alias(design.trim()))?;
    parse_design(&text)?;
    Ok(text)
}

/// Parses a per-layer design spec (see the [module grammar](self)).
///
/// # Errors
///
/// Rejects empty specs, malformed segments, layer names that collide
/// with parameter keys, duplicate layers, parameter continuations before
/// any binding, and any design the
/// [`parse_design`] grammar rejects.
pub fn parse_layer_bindings(text: &str) -> Result<Vec<LayerBinding>, SpecError> {
    let mut bindings: Vec<(String, String)> = Vec::new();
    for segment in text.split(',') {
        let segment = segment.trim();
        if segment.is_empty() {
            return Err(bad(text, "empty segment in layer spec".into()));
        }
        let Some((lhs, rhs)) = segment.split_once('=') else {
            return Err(bad(
                text,
                format!("expected 'layer=design' or 'key=value', got '{segment}'"),
            ));
        };
        let (lhs, rhs) = (lhs.trim(), rhs.trim());
        if rhs.is_empty() {
            return Err(bad(text, format!("'{lhs}=' is missing a value")));
        }
        if is_param_key(lhs) {
            // Parameter continuation of the previous binding.
            let Some((_, design)) = bindings.last_mut() else {
                return Err(bad(
                    text,
                    format!("parameter '{lhs}={rhs}' before any layer binding"),
                ));
            };
            if design.contains(':') {
                design.push(',');
            } else {
                design.push(':');
            }
            design.push_str(&format!("{lhs}={rhs}"));
        } else {
            if lhs.is_empty() || !lhs.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                return Err(bad(text, format!("'{lhs}' is not a valid layer name")));
            }
            if bindings.iter().any(|(l, _)| l == lhs) {
                return Err(bad(text, format!("layer '{lhs}' bound twice")));
            }
            bindings.push((lhs.to_string(), rhs.to_string()));
        }
    }
    if bindings.is_empty() {
        return Err(bad(text, "a layer spec needs at least one binding".into()));
    }
    bindings
        .into_iter()
        .map(|(layer, design)| {
            Ok(LayerBinding {
                layer,
                design: normalize_design(&design)?,
            })
        })
        .collect()
}

/// One candidate configuration of a sweep: a label plus one design text
/// per MAC layer, in [`QuantNet::mac_layers`] order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnnConfig {
    /// Display label (e.g. `uniform:realm:m=16,t=0` or `mixed:...`).
    pub label: String,
    /// One validated design text per MAC layer.
    pub designs: Vec<String>,
}

impl DnnConfig {
    /// A uniform configuration binding every MAC layer to `design`.
    ///
    /// # Errors
    ///
    /// Rejects design texts the grammar rejects.
    pub fn uniform(design: &str, mac_layers: usize) -> Result<Self, SpecError> {
        let text = normalize_design(design)?;
        Ok(DnnConfig {
            label: format!("uniform:{text}"),
            designs: vec![text; mac_layers],
        })
    }

    /// A configuration patching `default` with a parsed layer spec.
    ///
    /// # Errors
    ///
    /// Rejects specs naming a layer the net does not have, and design
    /// texts the grammar rejects.
    pub fn from_bindings(
        default: &str,
        bindings: &[LayerBinding],
        mac_layers: &[&str],
    ) -> Result<Self, SpecError> {
        let default = normalize_design(default)?;
        let mut designs = vec![default; mac_layers.len()];
        for binding in bindings {
            let Some(slot) = mac_layers.iter().position(|l| *l == binding.layer) else {
                return Err(SpecError::Invalid(format!(
                    "layer '{}' is not a MAC layer of this net (have: {})",
                    binding.layer,
                    mac_layers.join(", ")
                )));
            };
            designs[slot] = binding.design.clone();
        }
        let label = bindings
            .iter()
            .map(|b| format!("{}={}", b.layer, b.design))
            .collect::<Vec<_>>()
            .join(",");
        Ok(DnnConfig {
            label: format!("mixed:{label}"),
            designs,
        })
    }

    /// FNV-64 over the label and design texts (campaign identity input).
    fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in self
            .label
            .bytes()
            .chain(std::iter::once(0))
            .chain(self.designs.iter().flat_map(|d| d.bytes().chain([0xFF])))
        {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

/// Accuracy of one swept configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DnnPoint {
    /// Index into the sweep's configuration list.
    pub config_index: usize,
    /// Classification accuracy on the sweep's evaluation set.
    pub accuracy: f64,
}

/// The per-layer accuracy sweep as a [`Workload`]: one chunk per
/// candidate configuration, each evaluating the full (deterministic)
/// evaluation set. Pure by construction — the dataset and every binding
/// are derived from the workload configuration alone — so outputs are
/// bit-identical at any thread count and across interrupt/resume.
#[derive(Debug)]
pub struct DnnSweep {
    net: QuantNet,
    configs: Vec<DnnConfig>,
    eval_n: usize,
    eval_seed: u64,
}

impl DnnSweep {
    /// Builds the sweep, validating every configuration against the
    /// net's MAC layer count and the design grammar.
    ///
    /// # Errors
    ///
    /// Rejects empty sweeps, configuration/net shape mismatches and
    /// invalid design texts.
    pub fn new(
        net: QuantNet,
        configs: Vec<DnnConfig>,
        eval_n: usize,
        eval_seed: u64,
    ) -> Result<Self, SpecError> {
        if configs.is_empty() {
            return Err(SpecError::Invalid("sweep needs at least one config".into()));
        }
        if eval_n == 0 {
            return Err(SpecError::Invalid("sweep needs a nonempty eval set".into()));
        }
        let macs = net.mac_layers().len();
        for config in &configs {
            if config.designs.len() != macs {
                return Err(SpecError::Invalid(format!(
                    "config '{}' binds {} layers, net has {macs} MAC layers",
                    config.label,
                    config.designs.len()
                )));
            }
            for design in &config.designs {
                parse_design(design)?;
            }
        }
        Ok(DnnSweep {
            net,
            configs,
            eval_n,
            eval_seed,
        })
    }

    /// The swept configurations, in chunk order.
    pub fn configs(&self) -> &[DnnConfig] {
        &self.configs
    }

    /// The net under sweep.
    pub fn net(&self) -> &QuantNet {
        &self.net
    }
}

impl Workload for DnnSweep {
    type Part = Vec<(u64, f64)>;
    type Output = Vec<DnnPoint>;

    fn family(&self) -> &'static str {
        "dnn-sweep"
    }

    fn subject(&self) -> String {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for config in &self.configs {
            h ^= config.fingerprint();
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        format!(
            "net{:016x}/configs{:016x}/eval{}",
            self.net.fingerprint(),
            h,
            self.eval_n
        )
    }

    fn plan(&self) -> ChunkPlan {
        // One config per chunk: resume granularity is one evaluated
        // configuration.
        ChunkPlan::new(self.configs.len() as u64, 1)
    }

    fn seed(&self) -> u64 {
        self.eval_seed
    }

    fn run_chunk(&self, chunk: Chunk) -> Self::Part {
        let data = realm_dsp::orientation_dataset(self.eval_n, self.eval_seed);
        (chunk.start..chunk.end())
            .map(|idx| {
                let config = &self.configs[idx as usize];
                let designs: Vec<Box<dyn Multiplier>> = config
                    .designs
                    .iter()
                    .map(|d| {
                        parse_design(d).unwrap_or_else(|e| {
                            // Validated at construction; a failure here is
                            // a workload-identity bug, not an input error.
                            panic!("validated design '{d}' failed to parse: {e}")
                        })
                    })
                    .collect();
                let refs: Vec<&dyn Multiplier> = designs.iter().map(|d| d.as_ref()).collect();
                (idx, self.net.accuracy(&refs, &data))
            })
            .collect()
    }

    fn finalize(&self, parts: Vec<(u64, Self::Part)>) -> Option<Self::Output> {
        let points: Vec<DnnPoint> = parts
            .into_iter()
            .flat_map(|(_, part)| part)
            .map(|(idx, accuracy)| DnnPoint {
                config_index: idx as usize,
                accuracy,
            })
            .collect();
        if points.is_empty() {
            None
        } else {
            Some(points)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use realm_par::Threads;

    #[test]
    fn grammar_parses_the_canonical_example() {
        let specs = parse_layer_bindings("conv1=realm16t4,dense1=scaletrim:t=6@16")
            .unwrap_or_else(|e| panic!("canonical spec must parse: {e}"));
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].layer, "conv1");
        assert_eq!(specs[0].design, "realm:m=16,t=4");
        assert_eq!(specs[1].layer, "dense1");
        assert_eq!(specs[1].design, "scaletrim@16:t=6");
    }

    #[test]
    fn param_continuation_extends_the_previous_binding() {
        let specs = parse_layer_bindings("conv1=realm:m=8,t=4,q=6,dense1=drum:k=5")
            .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(specs[0].design, "realm:m=8,t=4,q=6");
        assert_eq!(specs[1].design, "drum:k=5");
    }

    #[test]
    fn compact_alias_composes_with_width_suffix() {
        let specs = parse_layer_bindings("conv1=realm8t2@8").unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(specs[0].design, "realm@8:m=8,t=2");
        parse_design(&specs[0].design).unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for bad in [
            "",
            "conv1",
            "conv1=",
            "t=4",                     // continuation before any binding
            "conv1=realm,conv1=calm",  // duplicate layer
            "conv1=banana",            // unknown design
            "conv1=realm:z=1",         // unknown key
            "conv1=scaletrim:t=6@x",   // bad trailing width
            "conv1=calm@8:w=8",        // width twice
            "con v1=calm",             // bad layer name
            "conv1=calm,,dense1=calm", // empty segment
        ] {
            assert!(
                parse_layer_bindings(bad).is_err(),
                "'{bad}' should be rejected"
            );
        }
    }

    #[test]
    fn layer_names_shadowing_param_keys_are_continuations_not_layers() {
        // 't=6' after a binding is a parameter of that binding; a net
        // cannot have a MAC layer literally named 't'.
        let specs = parse_layer_bindings("conv1=mbm,t=6").unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].design, "mbm:t=6");
    }

    #[test]
    fn config_patching_validates_layer_names() {
        let layers = ["conv1", "dense1"];
        let bindings = parse_layer_bindings("dense1=accurate").unwrap_or_else(|e| panic!("{e}"));
        let config =
            DnnConfig::from_bindings("calm", &bindings, &layers).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(config.designs, vec!["calm".to_string(), "accurate".into()]);

        let stray = parse_layer_bindings("pool1=accurate").unwrap_or_else(|e| panic!("{e}"));
        assert!(DnnConfig::from_bindings("calm", &stray, &layers).is_err());
    }

    #[test]
    fn sweep_is_bit_identical_across_thread_counts() {
        let net = realm_dsp::tiny_net();
        let macs = net.mac_layers().len();
        let configs = vec![
            DnnConfig::uniform("accurate", macs).unwrap_or_else(|e| panic!("{e}")),
            DnnConfig::uniform("realm:m=16,t=0", macs).unwrap_or_else(|e| panic!("{e}")),
            DnnConfig::uniform("drum:k=4", macs).unwrap_or_else(|e| panic!("{e}")),
        ];
        let sweep = DnnSweep::new(net, configs, 64, 11).unwrap_or_else(|e| panic!("{e}"));
        let one = Engine::new(Threads::Fixed(1)).run(&sweep);
        let two = Engine::new(Threads::Fixed(2)).run(&sweep);
        assert_eq!(one, two);
        let points = one.unwrap_or_else(|| panic!("sweep produced no points"));
        assert_eq!(points.len(), 3);
        assert!(points[0].accuracy > 0.8, "exact config should classify");
    }

    #[test]
    fn sweep_rejects_shape_mismatches() {
        let net = realm_dsp::tiny_net();
        let bad = DnnConfig {
            label: "short".into(),
            designs: vec!["accurate".into()],
        };
        assert!(DnnSweep::new(net, vec![bad], 16, 1).is_err());
    }
}
