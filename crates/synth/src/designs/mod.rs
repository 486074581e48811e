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

pub use array::{am_netlist, wallace16};
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

use realm_core::Multiplier;

use crate::netlist::Netlist;

/// A Table I row: the behavioural model paired with its gate-level
/// netlist.
pub struct DesignPair {
    /// The behavioural (bit-accurate) model.
    pub model: Box<dyn Multiplier>,
    /// The synthesized structural netlist.
    pub netlist: Netlist,
}

/// Builds the behavioural-model + netlist pair for every design and
/// configuration in Table I, in the table's row order (REALM rows first).
///
/// Construction is total: an invalid design point (impossible for the
/// paper's own configurations) would drop its row, which the Table I
/// row-count tests catch.
pub fn table1_pairs() -> Vec<DesignPair> {
    use realm_baselines::adders::LowerPart;
    use realm_baselines::{
        Alm, AlmAdder, Am, AmRecovery, Calm, Drum, Essm8, Ilm, ImpLm, IntAlp, Mbm, ScaleTrim, Ssm,
    };
    use realm_core::{Realm, RealmConfig};

    let mut pairs: Vec<DesignPair> = Vec::new();
    for m in [16u32, 8, 4] {
        for t in 0..=9u32 {
            // Paper design points are valid by construction; a miss
            // would drop the row and fail the Table I row-count tests.
            let Ok(realm) = Realm::new(RealmConfig::n16(m, t)) else {
                continue;
            };
            let netlist = realm_netlist(&realm);
            pairs.push(DesignPair {
                model: Box::new(realm),
                netlist,
            });
        }
    }
    pairs.push(DesignPair {
        model: Box::new(Calm::new(16)),
        netlist: calm_netlist(16),
    });
    pairs.push(DesignPair {
        model: Box::new(ImpLm::new(16)),
        netlist: implm_netlist(16),
    });
    for t in [0u32, 2, 4, 6, 8, 9] {
        let Ok(mbm) = Mbm::new(16, t) else { continue };
        pairs.push(DesignPair {
            model: Box::new(mbm),
            netlist: mbm_netlist(16, t),
        });
    }
    for (adder, lower) in [
        (AlmAdder::Maa, LowerPart::Or),
        (AlmAdder::Soa, LowerPart::SetOne),
    ] {
        for m in [3u32, 6, 9, 11, 12] {
            pairs.push(DesignPair {
                model: Box::new(Alm::new(16, adder, m)),
                netlist: alm_netlist(16, lower, m),
            });
        }
    }
    for level in [2u32, 1] {
        let Ok(model) = IntAlp::new(16, level) else {
            continue;
        };
        let netlist = intalp_netlist(&model);
        pairs.push(DesignPair {
            model: Box::new(model),
            netlist,
        });
    }
    for recovery in [AmRecovery::Or, AmRecovery::Sum] {
        for nb in [13u32, 9, 5] {
            let Ok(am) = Am::new(16, recovery, nb) else {
                continue;
            };
            pairs.push(DesignPair {
                model: Box::new(am),
                netlist: am_netlist(16, recovery, nb),
            });
        }
    }
    for k in [8u32, 7, 6, 5, 4] {
        let Ok(drum) = Drum::new(16, k) else { continue };
        pairs.push(DesignPair {
            model: Box::new(drum),
            netlist: drum_netlist(16, k),
        });
    }
    for m in [10u32, 9, 8] {
        let Ok(ssm) = Ssm::new(16, m) else { continue };
        pairs.push(DesignPair {
            model: Box::new(ssm),
            netlist: ssm_netlist(16, m),
        });
    }
    pairs.push(DesignPair {
        model: Box::new(Essm8::new()),
        netlist: essm8_netlist(),
    });
    // Post-paper comparators, appended after every Table I row so the
    // pinned pre-refactor goldens keep their positions.
    for (t, c) in [(4u32, true), (6, true)] {
        let Ok(st) = ScaleTrim::new(16, t, c) else {
            continue;
        };
        pairs.push(DesignPair {
            model: Box::new(st),
            netlist: scaletrim_netlist(16, t, c),
        });
    }
    for i in [1u32, 2] {
        let Ok(ilm) = Ilm::new(16, i) else { continue };
        pairs.push(DesignPair {
            model: Box::new(ilm),
            netlist: ilm_netlist(16, i),
        });
    }
    pairs
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
