//! Complete gate-level netlists for every multiplier architecture in the
//! paper's Table I.
//!
//! Each generator returns a [`crate::netlist::Netlist`] with input buses
//! `a`, `b` and output bus `p` (the `2N`-bit product), and is verified
//! bit-exactly against its behavioural model from `realm-core` /
//! `realm-baselines` — two independent implementations of the same
//! specification.

mod array;
mod comparators;
mod configurable;
mod divider;
mod dynamic;
mod intalp;
mod kulkarni;
mod log_family;

pub use array::am_netlist;
pub use comparators::{ilm_netlist, scaletrim_netlist};
pub use configurable::configurable_realm_netlist;
pub use divider::{mitchell_divider_netlist, realm_divider_netlist};
pub use dynamic::{drum_netlist, essm8_netlist, ssm_netlist};
pub use intalp::intalp_netlist;
pub use kulkarni::kulkarni_netlist;
pub use log_family::{
    alm_netlist, calm_netlist, calm_netlist_staged, implm_netlist, mbm_netlist, realm_netlist,
    realm_netlist_staged,
};

use realm_baselines::catalog::{self, DesignSpec};
use realm_baselines::{AlmAdder, AmRecovery, IntAlp};
use realm_core::{ConfigError, Multiplier, Realm};

use crate::blocks::multiplier::wallace_netlist;
use crate::netlist::Netlist;

/// A Table I row: the behavioural model paired with its gate-level
/// netlist.
pub struct DesignPair {
    /// The behavioural (bit-accurate) model.
    pub model: Box<dyn Multiplier>,
    /// The synthesized structural netlist.
    pub netlist: Netlist,
}

/// A design point's behavioural model, as [`DesignSpec::build`] makes
/// it, built once, and its gate-level netlist from its family's
/// generator. Every spec that builds has a pair.
///
/// # Errors
///
/// The [`ConfigError`] of a spec whose [`DesignSpec::build`] fails.
pub fn pair(spec: &DesignSpec) -> Result<DesignPair, ConfigError> {
    // REALM's and IntALP's generators read the model; the others take
    // the widths and keys that `build` checks before they run.
    let built = |generate: &dyn Fn() -> Netlist| Ok::<_, ConfigError>((spec.build()?, generate()));
    let (model, netlist): (Box<dyn Multiplier>, Netlist) = match *spec {
        DesignSpec::Accurate { w } => built(&|| wallace_netlist(w))?,
        DesignSpec::Realm(config) => {
            let realm = Realm::new(config)?;
            let netlist = realm_netlist(&realm);
            (Box::new(realm), netlist)
        }
        DesignSpec::Calm { w } => built(&|| calm_netlist(w))?,
        DesignSpec::AlmMaa { w, m } => built(&|| alm_netlist(w, AlmAdder::Maa.lower_part(), m))?,
        DesignSpec::AlmSoa { w, m } => built(&|| alm_netlist(w, AlmAdder::Soa.lower_part(), m))?,
        DesignSpec::ImpLm { w } => built(&|| implm_netlist(w))?,
        DesignSpec::Mbm { w, t } => built(&|| mbm_netlist(w, t))?,
        DesignSpec::Am1 { w, nb } => built(&|| am_netlist(w, AmRecovery::Or, nb))?,
        DesignSpec::Am2 { w, nb } => built(&|| am_netlist(w, AmRecovery::Sum, nb))?,
        DesignSpec::IntAlp { w, l } => {
            let intalp = IntAlp::new(w, l)?;
            let netlist = intalp_netlist(&intalp);
            (Box::new(intalp), netlist)
        }
        DesignSpec::Drum { w, k } => built(&|| drum_netlist(w, k))?,
        DesignSpec::Ssm { w, s } => built(&|| ssm_netlist(w, s))?,
        DesignSpec::Essm8 { .. } => built(&essm8_netlist)?,
        DesignSpec::ScaleTrim { w, t, c } => built(&|| scaletrim_netlist(w, t, c))?,
        DesignSpec::Ilm { w, i } => built(&|| ilm_netlist(w, i))?,
        DesignSpec::Kulkarni { w } => built(&|| kulkarni_netlist(w))?,
    };
    Ok(DesignPair { model, netlist })
}

/// The behavioural-model + netlist pair of every Table I row
/// ([`catalog::table1`]), in the table's row order.
pub fn table1_pairs() -> Vec<DesignPair> {
    catalog::table1()
        .iter()
        .filter_map(|spec| pair(spec).ok())
        .collect()
}

/// The conformance suite's spec list, shared with
/// `crates/baselines/tests/conformance`.
#[cfg(test)]
#[path = "../../../baselines/tests/conformance/specs.rs"]
mod specs;

#[cfg(test)]
mod tests {
    use super::*;
    use realm_baselines::catalog::FAMILIES;

    #[test]
    fn every_family_default_has_a_netlist_equal_to_its_model() {
        for family in FAMILIES {
            let spec = DesignSpec::parse(family.name).unwrap();
            let DesignPair { model, netlist } = pair(&spec).unwrap();
            verify::assert_equivalent(model.as_ref(), &netlist, 64);
        }
    }

    /// Every 8-bit point of the conformance suite's spec list: netlist ≡
    /// model on all 65536 pairs, the points split over the host's
    /// threads.
    #[test]
    fn every_buildable_8bit_point_has_a_netlist_equal_to_its_model() {
        let mut points = specs::points();
        points.retain(|(_, model)| model.width() == 8);
        assert_eq!(points.len(), 92);
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        std::thread::scope(|scope| {
            for part in points.chunks(points.len().div_ceil(threads)) {
                scope.spawn(move || {
                    for (spec, model) in part {
                        let netlist = pair(spec).unwrap_or_else(|e| panic!("{spec}: {e}")).netlist;
                        verify::assert_exhaustive8(model.as_ref(), &netlist);
                    }
                });
            }
        });
    }

    #[test]
    fn a_spec_that_does_not_build_has_no_netlist() {
        for text in [
            "calm@100",
            "essm8@8",
            "realm@8:t=7",
            "intalp:l=3",
            "kulkarni@12",
        ] {
            let spec = DesignSpec::parse(text).unwrap();
            assert!(pair(&spec).is_err(), "{text}");
        }
    }
}

#[cfg(test)]
pub(crate) mod verify {
    use realm_core::Multiplier;

    use crate::netlist::{read_lane, set_lanes, Net, Netlist, LANES};

    fn bus<'a>(buses: &'a [(String, Vec<Net>)], name: &str) -> &'a [Net] {
        let found = buses.iter().find(|(n, _)| n == name);
        &found.unwrap_or_else(|| panic!("no bus named '{name}'")).1
    }

    /// Asserts netlist ≡ behavioural model on all 65536 operand pairs of
    /// an 8-bit design, 64 pairs per word-parallel pass: pair `i` is
    /// `(a, b) = (i & 0xFF, i >> 8)`. Each pass compares the model's 64
    /// products with the product bus bit by bit, one word per bit.
    pub fn assert_exhaustive8(model: &dyn Multiplier, netlist: &Netlist) {
        assert_eq!(model.width(), 8, "{}", netlist.name());
        let a_bus = bus(netlist.inputs(), "a");
        let b_bus = bus(netlist.inputs(), "b");
        let p_bus = bus(netlist.outputs(), "p");
        let mut words = vec![0; netlist.net_count()];
        let mut want = [0; LANES];
        for first in (0..1u64 << 16).step_by(LANES) {
            let a: Vec<u64> = (first..first + LANES as u64).map(|i| i & 0xFF).collect();
            set_lanes(&mut words, a_bus, &a);
            set_lanes(&mut words, b_bus, &[first >> 8; LANES]);
            netlist.eval_words(&mut words, None);
            for (lane, product) in want.iter_mut().enumerate() {
                *product = model.multiply(a[lane], first >> 8);
            }
            for (bit, net) in p_bus.iter().enumerate() {
                let mut expected = 0;
                for (lane, product) in want.iter().enumerate() {
                    expected |= (product >> bit & 1) << lane;
                }
                let wrong = words[net.index()] ^ expected;
                if wrong != 0 {
                    let lane = wrong.trailing_zeros() as usize;
                    let (a, b) = (a[lane], first >> 8);
                    let got = read_lane(&words, p_bus, lane);
                    panic!(
                        "{} at ({a}, {b}): netlist {got}, model {}",
                        netlist.name(),
                        want[lane]
                    );
                }
            }
        }
    }

    /// Asserts netlist ≡ behavioural model on corners plus a deterministic
    /// pseudo-random sweep.
    pub fn assert_equivalent(model: &dyn Multiplier, netlist: &Netlist, samples: u32) {
        let max = (1u64 << model.width()) - 1;
        let corners = [
            (0u64, 0u64),
            (0, max),
            (max, 0),
            (1, 1),
            (1, max),
            (max, max),
            (max / 2, max / 2 + 1),
            (1 << (model.width() - 1), 2),
        ];
        for &(a, b) in &corners {
            let want = model.multiply(a, b);
            let got = netlist.eval_one(&[("a", a), ("b", b)], "p");
            assert_eq!(got, want, "{} corner ({a}, {b})", netlist.name());
        }
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..samples {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let a = (x >> 13) & max;
            let b = (x >> 37) & max;
            let want = model.multiply(a, b);
            let got = netlist.eval_one(&[("a", a), ("b", b)], "p");
            assert_eq!(got, want, "{} random ({a}, {b})", netlist.name());
        }
    }
}
