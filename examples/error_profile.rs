//! Dumps Fig. 1-style relative-error profiles as CSV to stdout: name the
//! design on the command line in the registry grammar (default `realm`,
//! the 16-bit REALM with M = 16, t = 0).
//!
//! ```text
//! cargo run --release --example error_profile -- calm        > calm.csv
//! cargo run --release --example error_profile -- realm:m=8   > realm8.csv
//! ```

use realm::metrics::{parse_design, Engine, ProfileWorkload};

fn main() {
    let text = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "realm".to_string());
    let design = parse_design(&text).unwrap_or_else(|e| panic!("design '{text}': {e}"));
    eprintln!("# {text} over A, B in 32..=255 (paper Fig. 1 range)");
    println!("a,b,relative_error_pct");
    let profile = Engine::default()
        .run(&ProfileWorkload::new(design.as_ref(), 32..=255, 32..=255))
        .unwrap_or_default();
    for p in profile {
        println!("{},{},{:.5}", p.a, p.b, p.error * 100.0);
    }
}
