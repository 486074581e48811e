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
use realm_core::{Multiplier, Realm};

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

/// The gate-level netlist of a design point, from its family's
/// generator.
///
/// # Panics
///
/// On a spec whose [`DesignSpec::build`] fails, and on the few buildable
/// points a generator does not cover (`mbm_netlist(8, t ≥ 2)`, REALM
/// with `7 − t < q`). Every slate row has a netlist.
pub fn netlist(spec: &DesignSpec) -> Netlist {
    match *spec {
        DesignSpec::Accurate { w } => wallace_netlist(w),
        DesignSpec::Realm(config) => match Realm::new(config) {
            Ok(realm) => realm_netlist(&realm),
            Err(e) => panic!("no netlist for invalid design {spec}: {e}"),
        },
        DesignSpec::Calm { w } => calm_netlist(w),
        DesignSpec::AlmMaa { w, m } => alm_netlist(w, AlmAdder::Maa.lower_part(), m),
        DesignSpec::AlmSoa { w, m } => alm_netlist(w, AlmAdder::Soa.lower_part(), m),
        DesignSpec::ImpLm { w } => implm_netlist(w),
        DesignSpec::Mbm { w, t } => mbm_netlist(w, t),
        DesignSpec::Am1 { w, nb } => am_netlist(w, AmRecovery::Or, nb),
        DesignSpec::Am2 { w, nb } => am_netlist(w, AmRecovery::Sum, nb),
        DesignSpec::IntAlp { w, l } => match IntAlp::new(w, l) {
            Ok(intalp) => intalp_netlist(&intalp),
            Err(e) => panic!("no netlist for invalid design {spec}: {e}"),
        },
        DesignSpec::Drum { w, k } => drum_netlist(w, k),
        DesignSpec::Ssm { w, s } => ssm_netlist(w, s),
        DesignSpec::Essm8 { .. } => essm8_netlist(),
        DesignSpec::ScaleTrim { w, t, c } => scaletrim_netlist(w, t, c),
        DesignSpec::Ilm { w, i } => ilm_netlist(w, i),
        DesignSpec::Kulkarni { w } => kulkarni_netlist(w),
    }
}

/// The behavioural-model + netlist pair of every Table I row
/// ([`catalog::table1`]), in the table's row order.
pub fn table1_pairs() -> Vec<DesignPair> {
    catalog::table1()
        .iter()
        .filter_map(|spec| {
            Some(DesignPair {
                model: spec.build().ok()?,
                netlist: netlist(spec),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use realm_baselines::catalog::FAMILIES;

    #[test]
    fn every_family_default_has_a_netlist_equal_to_its_model() {
        for family in FAMILIES {
            let spec = DesignSpec::parse(family.name).unwrap();
            let model = spec.build().unwrap();
            verify::assert_equivalent(model.as_ref(), &netlist(&spec), 64);
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
    /// `(a, b) = (i & 0xFF, i >> 8)`.
    pub fn assert_exhaustive8(model: &dyn Multiplier, netlist: &Netlist) {
        assert_eq!(model.width(), 8, "{}", netlist.name());
        let a_bus = bus(netlist.inputs(), "a");
        let b_bus = bus(netlist.inputs(), "b");
        let p_bus = bus(netlist.outputs(), "p");
        let mut words = vec![0; netlist.net_count()];
        for first in (0..1u64 << 16).step_by(LANES) {
            let pairs = first..first + LANES as u64;
            let a: Vec<u64> = pairs.clone().map(|i| i & 0xFF).collect();
            let b: Vec<u64> = pairs.map(|i| i >> 8).collect();
            set_lanes(&mut words, a_bus, &a);
            set_lanes(&mut words, b_bus, &b);
            netlist.eval_words(&mut words, None);
            for (lane, (&a, &b)) in a.iter().zip(&b).enumerate() {
                let got = read_lane(&words, p_bus, lane);
                assert_eq!(
                    got,
                    model.multiply(a, b),
                    "{} at ({a}, {b})",
                    netlist.name()
                );
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
