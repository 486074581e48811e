//! Fault-targetable datapath models and the [`FaultyMultiplier`] wrapper
//! that exposes them through the ordinary [`Multiplier`] trait.

use crate::inject::Injector;
use crate::plan::FaultPlan;
use crate::site::{characteristic_bits, shift_amount_bits, FaultSite, Operand, SiteClass};
use realm_core::mitchell::{self, LogEncoding};
use realm_core::rng::SplitMix64;
use realm_core::{Multiplier, Realm};
use std::sync::atomic::{AtomicU64, Ordering};

/// Distinct odd constant separating per-operation random substreams.
const OP_STREAM_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

fn operand_mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// A multiplier whose datapath can be executed under fault injection.
///
/// Implementations thread an [`Injector`] through their architectural
/// values; with an inert injector, `multiply_faulty` must agree with
/// [`Multiplier::multiply`] everywhere.
pub trait FaultTarget: Multiplier {
    /// Multiplies `a · b` while applying the injector's active faults at
    /// every fault site the datapath exposes.
    fn multiply_faulty(&self, a: u64, b: u64, injector: &mut Injector<'_>) -> u64;

    /// Every single-bit fault site that exists in this design, in a
    /// stable order suitable for exhaustive campaigns.
    fn fault_sites(&self) -> Vec<FaultSite>;
}

/// The REALM datapath under injection, stage by stage (paper Fig. 3):
///
/// 1. zero detect + LOD → characteristic `k` (site class
///    [`SiteClass::Characteristic`], per operand);
/// 2. truncate-and-set-LSB → conditioned fraction
///    ([`SiteClass::Fraction`], per operand);
/// 3. LUT read, addressed by the (possibly already corrupted) fraction
///    MSBs → stored `(q−2)`-bit code ([`SiteClass::LutFactor`]);
/// 4. characteristic adder → antilog shift amount
///    ([`SiteClass::ShiftAmount`]);
/// 5. fraction add, `s/2` mux, antilog shift and saturation (shared with
///    the fault-free model).
impl FaultTarget for Realm {
    fn multiply_faulty(&self, a: u64, b: u64, injector: &mut Injector<'_>) -> u64 {
        let cfg = self.configuration();
        let width = cfg.width;
        let mask = operand_mask(width);
        let (a, b) = (a & mask, b & mask);
        let (Some(ea), Some(eb)) = (LogEncoding::encode(a, width), LogEncoding::encode(b, width))
        else {
            // The zero-detect AND gates the output register; faults on the
            // log-domain stages cannot propagate through a gated output.
            return 0;
        };
        let t = cfg.truncation;
        let (Ok(ea), Ok(eb)) = (ea.truncate(t), eb.truncate(t)) else {
            // Unreachable for a validated configuration; degrade to exact
            // rather than panicking.
            return mitchell::saturate_product(a as u128 * b as u128, width);
        };
        let f = ea.fraction_bits;
        let k_bits = characteristic_bits(width);

        let ka = injector.apply(
            SiteClass::Characteristic,
            Some(Operand::A),
            ea.characteristic as u64,
            k_bits,
        );
        let kb = injector.apply(
            SiteClass::Characteristic,
            Some(Operand::B),
            eb.characteristic as u64,
            k_bits,
        );
        let fa = injector.apply(SiteClass::Fraction, Some(Operand::A), ea.fraction, f);
        let fb = injector.apply(SiteClass::Fraction, Some(Operand::B), eb.fraction, f);

        // The LUT mux is addressed by the corrupted fraction MSBs — an
        // upstream fraction fault both shifts the operating point and may
        // select a neighbouring segment, exactly as in hardware.
        let code = self.lut().lookup(fa, fb, f) as u64;
        let code = injector.apply(SiteClass::LutFactor, None, code, self.lut().storage_bits());

        let fsum = fa + fb;
        let carry = fsum >> f;
        let q = self.lut().precision();
        let corr_f = if f >= q {
            code << (f - q)
        } else {
            code >> (q - f)
        };
        let corr_eff = if carry == 1 { corr_f >> 1 } else { corr_f };

        let k_sum = injector.apply(
            SiteClass::ShiftAmount,
            None,
            ka + kb,
            shift_amount_bits(width),
        ) as i64;

        let (mantissa, exponent) = if carry == 0 {
            ((1u128 << f) + fsum as u128 + corr_eff as u128, k_sum)
        } else {
            (fsum as u128 + corr_eff as u128, k_sum + 1)
        };
        mitchell::saturate_product(mitchell::scale(mantissa, exponent, f), width)
    }

    fn fault_sites(&self) -> Vec<FaultSite> {
        let width = self.configuration().width;
        let f = self.fraction_bits();
        let mut sites = Vec::new();
        for operand in [Operand::A, Operand::B] {
            for bit in 0..characteristic_bits(width) {
                sites.push(FaultSite::Characteristic { operand, bit });
            }
            for bit in 0..f {
                sites.push(FaultSite::Fraction { operand, bit });
            }
        }
        for bit in 0..self.lut().storage_bits() {
            sites.push(FaultSite::LutFactor { bit });
        }
        for bit in 0..shift_amount_bits(width) {
            sites.push(FaultSite::ShiftAmount { bit });
        }
        sites
    }
}

/// Interface-level fault model for designs whose internals this crate
/// does not simulate: faults hit the operand input registers before the
/// multiply and the product register after it.
///
/// Wraps any [`Multiplier`]; `Realm` wrapped here gets the interface
/// model instead of its datapath model.
#[derive(Debug, Clone)]
pub struct InterfaceLevel<M: Multiplier> {
    inner: M,
}

impl<M: Multiplier> InterfaceLevel<M> {
    /// Wraps a multiplier with the interface-level fault model.
    pub fn new(inner: M) -> Self {
        InterfaceLevel { inner }
    }

    /// The wrapped multiplier.
    pub fn inner(&self) -> &M {
        &self.inner
    }
}

impl<M: Multiplier> Multiplier for InterfaceLevel<M> {
    fn width(&self) -> u32 {
        self.inner.width()
    }

    fn multiply(&self, a: u64, b: u64) -> u64 {
        self.inner.multiply(a, b)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn config(&self) -> String {
        self.inner.config()
    }
}

impl<M: Multiplier> FaultTarget for InterfaceLevel<M> {
    fn multiply_faulty(&self, a: u64, b: u64, injector: &mut Injector<'_>) -> u64 {
        let width = self.inner.width();
        let a = injector.apply(SiteClass::OperandBit, Some(Operand::A), a, width);
        let b = injector.apply(SiteClass::OperandBit, Some(Operand::B), b, width);
        let p = self.inner.multiply(a, b);
        injector.apply(SiteClass::ProductBit, None, p, 2 * width)
    }

    fn fault_sites(&self) -> Vec<FaultSite> {
        let width = self.inner.width();
        let mut sites = Vec::new();
        for operand in [Operand::A, Operand::B] {
            for bit in 0..width {
                sites.push(FaultSite::OperandBit { operand, bit });
            }
        }
        for bit in 0..2 * width {
            sites.push(FaultSite::ProductBit { bit });
        }
        sites
    }
}

/// A [`FaultTarget`] running under a [`FaultPlan`], exposed as an
/// ordinary [`Multiplier`] so every downstream consumer — Monte-Carlo
/// campaigns, JPEG, GEMM/FIR — runs under injection unchanged.
///
/// Each operation draws a private random substream derived from the
/// wrapper seed and a per-operation counter, so results are reproducible
/// for a given seed regardless of threading, and transient activations
/// are independent across operations.
#[derive(Debug)]
pub struct FaultyMultiplier<M: FaultTarget> {
    inner: M,
    plan: FaultPlan,
    seed: u64,
    name: String,
    operations: AtomicU64,
    disturbed: AtomicU64,
}

impl<M: FaultTarget> FaultyMultiplier<M> {
    /// Wraps `inner` with a fault plan and an injection seed.
    pub fn new(inner: M, plan: FaultPlan, seed: u64) -> Self {
        let name = format!("Faulty({})", inner.name());
        FaultyMultiplier {
            inner,
            plan,
            seed,
            name,
            operations: AtomicU64::new(0),
            disturbed: AtomicU64::new(0),
        }
    }

    /// The wrapped fault target.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// The active fault plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Operations performed so far.
    pub fn operations(&self) -> u64 {
        self.operations.load(Ordering::Relaxed)
    }

    /// Operations in which an active fault actually changed at least one
    /// architectural value (transient flips that fired, stuck-ats that
    /// differed from the fault-free bit).
    pub fn disturbed_operations(&self) -> u64 {
        self.disturbed.load(Ordering::Relaxed)
    }

    /// Fraction of operations disturbed so far (0 when idle).
    pub fn disturbance_rate(&self) -> f64 {
        let ops = self.operations();
        if ops == 0 {
            0.0
        } else {
            self.disturbed_operations() as f64 / ops as f64
        }
    }

    /// Resets the operation counters (the per-operation random substream
    /// restarts with them).
    pub fn reset_counters(&self) {
        self.operations.store(0, Ordering::Relaxed);
        self.disturbed.store(0, Ordering::Relaxed);
    }
}

impl<M: FaultTarget> Multiplier for FaultyMultiplier<M> {
    fn width(&self) -> u32 {
        self.inner.width()
    }

    fn multiply(&self, a: u64, b: u64) -> u64 {
        let op = self.operations.fetch_add(1, Ordering::Relaxed);
        let mut rng = SplitMix64::new(self.seed ^ op.wrapping_mul(OP_STREAM_GAMMA));
        let mut injector = Injector::new(self.plan.faults(), &mut rng);
        let product = self.inner.multiply_faulty(a, b, &mut injector);
        if injector.disturbed() {
            self.disturbed.fetch_add(1, Ordering::Relaxed);
        }
        product
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn config(&self) -> String {
        let base = self.inner.config();
        if base.is_empty() {
            format!("{}", self.plan)
        } else {
            format!("{base}; {}", self.plan)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Fault;
    use realm_core::{Accurate, RealmConfig};

    fn realm16() -> Realm {
        Realm::new(RealmConfig::n16(16, 0)).expect("valid configuration")
    }

    /// The wrappers draw faults or count per call, so none may hand a
    /// pure design's product table to a caller.
    #[test]
    fn wrappers_of_a_pure_design_are_impure() {
        assert!(realm16().is_pure());
        assert!(!InterfaceLevel::new(realm16()).is_pure());
        assert!(!FaultyMultiplier::new(realm16(), FaultPlan::none(), 1).is_pure());
        assert!(!crate::Guarded::new(realm16()).is_pure());
    }

    #[test]
    fn inert_injector_matches_nominal_multiply() {
        let r = realm16();
        for &(a, b) in &[
            (1u64, 1u64),
            (3, 5),
            (48_131, 60_007),
            (65_535, 65_535),
            (0, 77),
        ] {
            let mut inj = Injector::inert();
            assert_eq!(
                r.multiply_faulty(a, b, &mut inj),
                r.multiply(a, b),
                "({a},{b})"
            );
        }
    }

    #[test]
    fn empty_plan_is_transparent() {
        let r = realm16();
        let faulty = FaultyMultiplier::new(realm16(), FaultPlan::none(), 1);
        for a in (1u64..65_536).step_by(4093) {
            for b in (1u64..65_536).step_by(3571) {
                assert_eq!(faulty.multiply(a, b), r.multiply(a, b));
            }
        }
        assert_eq!(faulty.disturbed_operations(), 0);
    }

    #[test]
    fn msb_shift_stuck_at_one_inflates_small_products() {
        // Forcing the top shift-amount bit high multiplies small products
        // by a large power of two.
        let plan = FaultPlan::single(Fault::stuck_at(FaultSite::ShiftAmount { bit: 4 }, true));
        let faulty = FaultyMultiplier::new(realm16(), plan, 1);
        let nominal = realm16().multiply(3, 3);
        let corrupted = faulty.multiply(3, 3);
        assert!(corrupted > nominal * 1000, "{corrupted} vs {nominal}");
        assert_eq!(faulty.disturbed_operations(), 1);
    }

    #[test]
    fn zero_operand_gates_all_datapath_faults() {
        let plan = FaultPlan::new(vec![
            Fault::stuck_at(FaultSite::ShiftAmount { bit: 4 }, true),
            Fault::stuck_at(
                FaultSite::Characteristic {
                    operand: Operand::A,
                    bit: 3,
                },
                true,
            ),
        ]);
        let faulty = FaultyMultiplier::new(realm16(), plan, 9);
        assert_eq!(faulty.multiply(0, 54_321), 0);
        assert_eq!(faulty.multiply(12_345, 0), 0);
    }

    #[test]
    fn transient_disturbance_rate_tracks_probability() {
        let plan = FaultPlan::single(Fault::transient(
            FaultSite::Fraction {
                operand: Operand::A,
                bit: 7,
            },
            0.2,
        ));
        let faulty = FaultyMultiplier::new(realm16(), plan, 42);
        for i in 0..5000u64 {
            faulty.multiply(1 + (i * 13) % 65_000, 1 + (i * 29) % 65_000);
        }
        let rate = faulty.disturbance_rate();
        assert!((rate - 0.2).abs() < 0.03, "rate {rate}");
    }

    #[test]
    fn fixed_seed_is_reproducible() {
        let plan = FaultPlan::single(Fault::transient(FaultSite::LutFactor { bit: 2 }, 0.5));
        let run = |seed| {
            let faulty = FaultyMultiplier::new(realm16(), FaultPlan::clone(&plan), seed);
            (0..200u64)
                .map(|i| faulty.multiply(1 + i * 31, 1 + i * 17))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn interface_level_product_stuck_at_forces_bit() {
        let plan = FaultPlan::single(Fault::stuck_at(FaultSite::ProductBit { bit: 0 }, true));
        let faulty = FaultyMultiplier::new(InterfaceLevel::new(Accurate::new(16)), plan, 3);
        assert_eq!(faulty.multiply(2, 2), 5);
        assert_eq!(faulty.multiply(3, 5), 15);
    }

    #[test]
    fn realm_site_enumeration_covers_the_paper_design() {
        // REALM16/t=0: 2×(4 k-bits + 15 fraction bits) + 4 LUT bits +
        // 5 shift bits = 47 sites.
        let sites = realm16().fault_sites();
        assert_eq!(sites.len(), 47);
        let interface = InterfaceLevel::new(Accurate::new(16)).fault_sites();
        assert_eq!(interface.len(), 2 * 16 + 32);
    }
}
