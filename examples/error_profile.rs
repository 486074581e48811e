//! Dumps Fig. 1-style relative-error profiles as CSV to stdout: pick a
//! design by name on the command line (default `realm16`).
//!
//! ```text
//! cargo run --release --example error_profile -- calm   > calm.csv
//! cargo run --release --example error_profile -- realm16 > realm16.csv
//! ```

use realm::baselines::{Alm, AlmAdder, Calm, ImpLm, Mbm};
use realm::metrics::{Engine, ProfileWorkload};
use realm::{Multiplier, Realm, RealmConfig};

fn design_by_name(name: &str) -> Box<dyn Multiplier> {
    match name {
        "calm" => Box::new(Calm::new(16)),
        "mbm" => Box::new(Mbm::new(16, 0).expect("valid configuration")),
        "implm" => Box::new(ImpLm::new(16)),
        "alm-soa" => Box::new(Alm::new(16, AlmAdder::Soa, 11)),
        "realm4" => Box::new(Realm::new(RealmConfig::n16(4, 0)).expect("valid configuration")),
        "realm8" => Box::new(Realm::new(RealmConfig::n16(8, 0)).expect("valid configuration")),
        "realm16" => Box::new(Realm::new(RealmConfig::n16(16, 0)).expect("valid configuration")),
        other => panic!(
            "unknown design '{other}' (expected calm, mbm, implm, alm-soa, realm4, realm8, realm16)"
        ),
    }
}

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "realm16".to_string());
    let design = design_by_name(&name);
    eprintln!("# {} over A, B in 32..=255 (paper Fig. 1 range)", name);
    println!("a,b,relative_error_pct");
    let profile = Engine::default()
        .run(&ProfileWorkload::new(design.as_ref(), 32..=255, 32..=255))
        .unwrap_or_default();
    for p in profile {
        println!("{},{},{:.5}", p.a, p.b, p.error * 100.0);
    }
}
