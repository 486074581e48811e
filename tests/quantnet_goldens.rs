//! Goldens of the int8 inference substrate: `tiny_net()` under the 16
//! configurations of the `dnn` driver's slate and under every
//! `catalog::FAMILIES` default point bound to both MAC layers. Each
//! configuration pins the bits of its `accuracy` over a seeded
//! `orientation_dataset` and an FNV-64 of every patch's `forward` logits.
//!
//! `results/goldens/quantnet.csv` was blessed from the code before
//! `QuantNet` took its products from per-binding tables, with
//! `REALM_BLESS_GOLDENS=1 cargo test --test quantnet_goldens`. The file
//! is closed: a change may not add, drop or alter a row.

use std::fmt::Write as _;
use std::path::Path;

use realm::baselines::catalog::FAMILIES;
use realm::dsp::{orientation_dataset, tiny_net};
use realm::metrics::dnn::{tiny_net_slate, DnnConfig};
use realm::metrics::parse_design;
use realm::Multiplier;

/// Evaluation patches per configuration.
const PATCHES: usize = 32;
/// Seed of the evaluation set.
const SEED: u64 = 0x90_1D;

/// FNV-1a 64 over a byte stream.
fn fnv64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The `dnn` driver's slate, then each family's default point not
/// already in it.
fn configs(mac_layers: &[&str]) -> Vec<DnnConfig> {
    let mut configs = tiny_net_slate().expect("the dnn slate");
    for family in FAMILIES {
        let config = DnnConfig::uniform(family.name, mac_layers.len()).expect(family.name);
        if !configs.iter().any(|c| c.label == config.label) {
            configs.push(config);
        }
    }
    configs
}

fn fresh_rows() -> String {
    let net = tiny_net();
    let data = orientation_dataset(PATCHES, SEED);
    let mut out = String::from("config,metric,value\n");
    for config in configs(&net.mac_layers()) {
        let designs: Vec<Box<dyn Multiplier>> = config
            .designs
            .iter()
            .map(|d| parse_design(d).expect("validated design"))
            .collect();
        let bindings: Vec<&dyn Multiplier> = designs.iter().map(|d| d.as_ref()).collect();
        let label = &config.label;
        let accuracy = net.accuracy(&bindings, &data).to_bits();
        let _ = writeln!(out, "\"{label}\",accuracy_bits,{accuracy:016x}");
        let logits = fnv64(
            data.iter()
                .flat_map(|(patch, _)| net.forward(&bindings, patch))
                .flat_map(i64::to_le_bytes),
        );
        let _ = writeln!(out, "\"{label}\",forward_fnv64,{logits:016x}");
    }
    out
}

#[test]
fn quantnet_outputs_are_bit_identical_to_their_goldens() {
    let fresh = fresh_rows();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("results/goldens/quantnet.csv");
    if std::env::var_os("REALM_BLESS_GOLDENS").is_some() {
        std::fs::write(&path, &fresh).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden '{}' ({e}); bless with REALM_BLESS_GOLDENS=1",
            path.display()
        )
    });
    assert_eq!(fresh, golden, "QuantNet outputs must stay bit-identical");
}
