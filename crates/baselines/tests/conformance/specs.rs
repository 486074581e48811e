//! The conformance suite's design points: every text of a sweep over
//! [`FAMILIES`] × a width list × one key at a time over a value list,
//! plus the points with two keys off their defaults that the paper's
//! corners and the SIMD kernels' edges need. The kernel suite
//! (`crates/baselines/tests/conformance`) and the netlist sweep of
//! `realm_synth::designs` both read this one list.

use std::collections::HashSet;

use realm_baselines::catalog::{DesignSpec, FAMILIES};
use realm_core::Multiplier;

/// Points the one-key sweep cannot reach: REALM with both `m` and `t`
/// set (the paper's 16-bit corners, every 8-bit `M ∈ {4, 8}` × `t ∈
/// {0, 1}` netlist, `m = 8, t = 1` at the kernel's width edges and at
/// 32 bits, where it declines) and an uncompensated scaleTRIM with
/// `t = 6` at 8 bits.
const EXTRA: [&str; 11] = [
    "realm:m=8,t=3",
    "realm:m=4,t=9",
    "realm:m=8,t=4",
    "realm:m=4,t=4",
    "realm@8:m=4,t=1",
    "realm@8:m=8,t=1",
    "realm@12:m=8,t=1",
    "realm@24:m=8,t=1",
    "realm@31:m=8,t=1",
    "realm@32:m=8,t=1",
    "scaletrim@8:t=6,c=0",
];

/// Every text of the sweep: each name at each width, alone and with one
/// key at each value and the others at their defaults. The values are
/// every small one, the edges of the widths and keys the families
/// accept, and two past `u32`.
pub fn sweep_texts() -> Vec<String> {
    let mut values: Vec<u64> = (0..=10).collect();
    values.extend([12, 15, 16, 17, 24, 31, 32, 33, 48, 63, 64, 65, 100]);
    values.extend([u64::from(u32::MAX), 1 << 32]);
    let mut texts = Vec::new();
    for family in FAMILIES {
        for w in &values {
            let base = format!("{}@{w}", family.name);
            texts.push(base.clone());
            for &(key, _) in &family.keys[1..] {
                texts.extend(values.iter().map(|v| format!("{base}:{key}={v}")));
            }
        }
    }
    texts
}

/// Each distinct spec that parses and builds, with its model: the
/// sweep's first, then [`EXTRA`].
pub fn points() -> Vec<(DesignSpec, Box<dyn Multiplier>)> {
    let texts = sweep_texts().into_iter().chain(EXTRA.map(String::from));
    let mut seen = HashSet::new();
    texts
        .filter_map(|text| DesignSpec::parse(&text).ok())
        .filter(|spec| seen.insert(*spec))
        .filter_map(|spec| Some((spec, spec.build().ok()?)))
        .collect()
}
