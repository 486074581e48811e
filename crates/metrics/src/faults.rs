//! Fault-injection campaigns: per-site corruption/detection statistics
//! and error-degradation metrics over the functional fault model of
//! `realm-fault`.
//!
//! A campaign drives one [`FaultTarget`] design through uniform random
//! operand pairs three ways per sample — fault-free, faulty, and faulty
//! behind the [`Guarded`](realm_fault::Guarded) invariant — and reports,
//! per fault site:
//!
//! * how often the fault disturbed an architectural value and how often
//!   that corrupted the product,
//! * how often the log-domain magnitude guard caught the corruption,
//! * NMED and mean-relative-error degradation relative to the fault-free
//!   design, and the residual NMED behind the guard.

use crate::engine::{campaign_id, Engine, Workload};
use crate::montecarlo::DEFAULT_CHUNK;
use realm_core::multiplier::MultiplierExt;
use realm_core::rng::SplitMix64;
use realm_fault::{plausible_product, Fault, FaultTarget, Injector, SiteClass};
use realm_harness::{ByteReader, CampaignId, Checkpoint, HarnessError, Supervised, Supervisor};
use realm_par::{Chunk, ChunkPlan, Threads};
use std::fmt;

/// A fault-injection campaign configuration: how many operand pairs to
/// draw and the random seed shared by operand sampling and transient
/// activation.
///
/// Campaigns are chunked exactly like [`crate::MonteCarlo`]: chunk `i`
/// draws its operands and transient activations from
/// `SplitMix64::stream(seed, i)` and produces a private partial, and
/// partials fold in chunk order — so reports are bit-identical for any
/// worker-thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultCampaign {
    samples: u64,
    seed: u64,
    threads: Threads,
    chunk: u64,
}

/// Per-chunk partial statistics of a fault campaign, folded in chunk
/// order by the reduce. Opaque — only the engine and the journal touch
/// its content.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultPartial {
    disturbed: u64,
    corrupted: u64,
    detected: u64,
    fallbacks: u64,
    sum_clean: f64,
    sum_faulty: f64,
    sum_guarded: f64,
    sum_mre: f64,
    mre_samples: u64,
}

impl Checkpoint for FaultPartial {
    fn encode(&self, out: &mut Vec<u8>) {
        self.disturbed.encode(out);
        self.corrupted.encode(out);
        self.detected.encode(out);
        self.fallbacks.encode(out);
        self.sum_clean.encode(out);
        self.sum_faulty.encode(out);
        self.sum_guarded.encode(out);
        self.sum_mre.encode(out);
        self.mre_samples.encode(out);
    }

    fn decode(r: &mut ByteReader<'_>) -> Option<Self> {
        Some(FaultPartial {
            disturbed: u64::decode(r)?,
            corrupted: u64::decode(r)?,
            detected: u64::decode(r)?,
            fallbacks: u64::decode(r)?,
            sum_clean: f64::decode(r)?,
            sum_faulty: f64::decode(r)?,
            sum_guarded: f64::decode(r)?,
            sum_mre: f64::decode(r)?,
            mre_samples: u64::decode(r)?,
        })
    }
}

impl FaultPartial {
    fn merge(&mut self, other: &FaultPartial) {
        self.disturbed += other.disturbed;
        self.corrupted += other.corrupted;
        self.detected += other.detected;
        self.fallbacks += other.fallbacks;
        self.sum_clean += other.sum_clean;
        self.sum_faulty += other.sum_faulty;
        self.sum_guarded += other.sum_guarded;
        self.sum_mre += other.sum_mre;
        self.mre_samples += other.mre_samples;
    }
}

/// Campaign statistics for one injected fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteReport {
    /// The injected fault.
    pub fault: Fault,
    /// Operand pairs characterized.
    pub samples: u64,
    /// Fraction of operations in which the fault changed an
    /// architectural value (for stuck-ats, the activation profile of the
    /// site; for transients, ≈ the flip probability).
    pub disturbance_rate: f64,
    /// Fraction of operations whose product differed from the fault-free
    /// product — directly comparable to the gate-level
    /// `detection_rate` of `realm_synth::faults`.
    pub corruption_rate: f64,
    /// Fraction of *corrupted* operations the magnitude guard flagged
    /// (1.0 when nothing was corrupted: a silent fault has no undetected
    /// corruption).
    pub detection_rate: f64,
    /// Fraction of all operations the guard recomputed exactly.
    pub fallback_rate: f64,
    /// NMED of the fault-free design (campaign baseline).
    pub nmed_clean: f64,
    /// NMED of the faulty design.
    pub nmed_faulty: f64,
    /// NMED of the faulty design behind the guard.
    pub nmed_guarded: f64,
    /// Mean |relative error| of the faulty design (zero-product pairs
    /// skipped), comparable to the gate-level `mean_relative_error`.
    pub mre_faulty: f64,
}

impl SiteReport {
    /// NMED degradation attributable to the fault.
    pub fn nmed_degradation(&self) -> f64 {
        self.nmed_faulty - self.nmed_clean
    }

    /// NMED degradation that remains once the guard is in place.
    pub fn guarded_degradation(&self) -> f64 {
        self.nmed_guarded - self.nmed_clean
    }
}

impl fmt::Display for SiteReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<28} corrupt={:6.2}% detect={:6.2}% nmed {:.2e}→{:.2e} (guarded {:.2e})",
            self.fault.to_string(),
            self.corruption_rate * 100.0,
            self.detection_rate * 100.0,
            self.nmed_clean,
            self.nmed_faulty,
            self.nmed_guarded,
        )
    }
}

/// Per-class aggregation of [`SiteReport`]s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassSummary {
    /// The aggregated site class.
    pub class: SiteClass,
    /// Number of site reports aggregated.
    pub sites: usize,
    /// Mean corruption rate across the class's sites.
    pub corruption_rate: f64,
    /// Mean guard detection rate across the class's sites.
    pub detection_rate: f64,
    /// Mean NMED degradation across the class's sites.
    pub nmed_degradation: f64,
    /// Worst NMED degradation across the class's sites.
    pub worst_degradation: f64,
    /// Mean faulty MRE across the class's sites.
    pub mre: f64,
}

impl fmt::Display for ClassSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<16} sites={:<3} corrupt={:6.2}% detect={:6.2}% ΔNMED mean={:.2e} worst={:.2e} MRE={:.3}",
            self.class.to_string(),
            self.sites,
            self.corruption_rate * 100.0,
            self.detection_rate * 100.0,
            self.nmed_degradation,
            self.worst_degradation,
            self.mre,
        )
    }
}

impl FaultCampaign {
    /// A campaign drawing `samples` uniform operand pairs with the given
    /// seed, on every available hardware thread ([`Threads::Auto`]).
    /// `samples` is clamped up to 1 so campaigns are total. The thread
    /// count never changes a report.
    pub fn new(samples: u64, seed: u64) -> Self {
        FaultCampaign {
            samples: samples.max(1),
            seed,
            threads: Threads::Auto,
            chunk: DEFAULT_CHUNK,
        }
    }

    /// Sets the worker-thread policy (a pure performance knob).
    pub fn with_threads(mut self, threads: Threads) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the chunk size. Changes which RNG substream serves which
    /// sample, so reports compare bit-identically only at equal chunk
    /// size.
    pub fn with_chunk(mut self, chunk: u64) -> Self {
        self.chunk = chunk.max(1);
        self
    }

    /// The campaign's [`Workload`] for one design × fault combination:
    /// run it plain with [`Engine::run`] or supervised (checkpoint and
    /// resume, panic quarantine, deadlines, cancellation) with
    /// [`Engine::supervised`]. A complete supervised run is
    /// bit-identical to the plain report; a partial run normalizes by —
    /// and reports — the samples actually covered (`None` if no chunk
    /// completed).
    pub fn workload<'a>(&self, design: &'a dyn FaultTarget, fault: Fault) -> FaultWorkload<'a> {
        FaultWorkload {
            campaign: *self,
            design,
            fault,
        }
    }

    /// Normalizes a folded partial into a [`SiteReport`] over `samples`
    /// covered operand pairs.
    fn report_from(fault: Fault, samples: u64, norm: f64, total: &FaultPartial) -> SiteReport {
        let n = samples as f64;
        SiteReport {
            fault,
            samples,
            disturbance_rate: total.disturbed as f64 / n,
            corruption_rate: total.corrupted as f64 / n,
            detection_rate: if total.corrupted == 0 {
                1.0
            } else {
                total.detected as f64 / total.corrupted as f64
            },
            fallback_rate: total.fallbacks as f64 / n,
            nmed_clean: total.sum_clean / n / norm,
            nmed_faulty: total.sum_faulty / n / norm,
            nmed_guarded: total.sum_guarded / n / norm,
            mre_faulty: if total.mre_samples == 0 {
                0.0
            } else {
                total.sum_mre / total.mre_samples as f64
            },
        }
    }

    /// Characterizes a single fault on a design.
    pub fn characterize(&self, design: &dyn FaultTarget, fault: Fault) -> SiteReport {
        Engine::new(self.threads)
            .run(&self.workload(design, fault))
            .unwrap_or_else(|| unreachable!("a fault campaign draws at least one sample"))
    }

    /// The fault campaign's identity for checkpoint journaling: binds
    /// the design, the injected fault (via
    /// [`Fault::campaign_tag`]), the plan geometry and the seed.
    pub fn campaign_id(&self, design: &dyn FaultTarget, fault: Fault) -> CampaignId {
        campaign_id(&self.workload(design, fault))
    }

    /// Exhaustive permanent-fault sweep under a [`Supervisor`]: one
    /// stuck-at-0 and one stuck-at-1 campaign per fault site of the
    /// design, in site order. Every per-fault campaign is journaled
    /// separately (one file per fault), so a sweep interrupted between
    /// — or within — faults resumes where it stopped; a deadline or
    /// cancellation stops the whole sweep. Faults whose campaign was
    /// interrupted or fully quarantined are omitted from the returned
    /// list; the reports that are present are exact.
    pub fn stuck_at_sweep_supervised(
        &self,
        design: &dyn FaultTarget,
        supervisor: &Supervisor,
    ) -> Result<Supervised<Vec<SiteReport>>, HarnessError> {
        let mut reports = Vec::new();
        let mut last_report = None;
        for site in design.fault_sites() {
            for value in [false, true] {
                let fault = Fault::stuck_at(site, value);
                let sup = Engine::supervised(&self.workload(design, fault), supervisor)?;
                if let (true, Some(report)) = (sup.report.is_complete(), sup.value) {
                    reports.push(report);
                }
                let report = sup.report;
                if report.stopped.is_some() {
                    // Deadline/cancel applies to the whole sweep: stop
                    // scheduling further faults.
                    return Ok(Supervised {
                        value: (!reports.is_empty()).then_some(reports),
                        report,
                    });
                }
                last_report = Some(report);
            }
        }
        // A design with no fault sites is vacuously complete: an empty
        // report with nothing pending.
        let report = last_report.unwrap_or(realm_harness::RunReport {
            total_chunks: 0,
            replayed_chunks: 0,
            executed_chunks: 0,
            quarantined: Vec::new(),
            stopped: None,
            covered_samples: 0,
            total_samples: 0,
            journal: realm_harness::LoadStats::default(),
        });
        Ok(Supervised {
            value: (!reports.is_empty()).then_some(reports),
            report,
        })
    }
}

/// The [`Workload`] of one [`FaultCampaign`] applied to one design ×
/// fault combination: chunk `i` draws its operand pairs and transient
/// activations from `SplitMix64::stream(seed, i)`, folds a
/// [`FaultPartial`], and finalization normalizes by the samples the
/// folded chunks actually cover (equal to the budget on complete runs).
#[derive(Debug, Clone, Copy)]
pub struct FaultWorkload<'a> {
    campaign: FaultCampaign,
    design: &'a dyn FaultTarget,
    fault: Fault,
}

impl Workload for FaultWorkload<'_> {
    type Part = FaultPartial;
    type Output = SiteReport;

    fn family(&self) -> &'static str {
        "faults"
    }

    fn subject(&self) -> String {
        format!("{} :: {}", self.design.label(), self.fault.campaign_tag())
    }

    fn plan(&self) -> ChunkPlan {
        ChunkPlan::new(self.campaign.samples, self.campaign.chunk)
    }

    fn seed(&self) -> u64 {
        self.campaign.seed
    }

    /// Draws the chunk's operand pairs up front, runs the fault-free
    /// products through the design's batch kernel, then replays each
    /// pair through the injector (whose transient draws continue the
    /// chunk's substream).
    fn run_chunk(&self, chunk: Chunk) -> FaultPartial {
        let design = self.design;
        let max = design.max_operand();
        let width = design.width();
        let faults = [self.fault];
        let mut rng = SplitMix64::stream(self.campaign.seed, chunk.index);
        let mut pairs = Vec::with_capacity(chunk.len as usize);
        for _ in 0..chunk.len {
            let a = rng.range_inclusive(0, max);
            let b = rng.range_inclusive(0, max);
            pairs.push((a, b));
        }
        let mut clean_products = vec![0u64; pairs.len()];
        design.multiply_batch(&pairs, &mut clean_products);

        let mut part = FaultPartial::default();
        for (&(a, b), &clean) in pairs.iter().zip(&clean_products) {
            let exact = (a as u128 * b as u128) as f64;
            let mut injector = Injector::new(&faults, &mut rng);
            let faulty = design.multiply_faulty(a, b, &mut injector);

            if injector.disturbed() {
                part.disturbed += 1;
            }
            let is_corrupted = faulty != clean;
            if is_corrupted {
                part.corrupted += 1;
            }
            let implausible = !plausible_product(a, b, faulty);
            if implausible {
                part.fallbacks += 1;
                if is_corrupted {
                    part.detected += 1;
                }
            }
            let guarded = if implausible {
                realm_core::mitchell::saturate_product(a as u128 * b as u128, width)
            } else {
                faulty
            };

            part.sum_clean += (clean as f64 - exact).abs();
            part.sum_faulty += (faulty as f64 - exact).abs();
            part.sum_guarded += (guarded as f64 - exact).abs();
            if exact > 0.0 {
                part.sum_mre += ((faulty as f64 - exact) / exact).abs();
                part.mre_samples += 1;
            }
        }
        part
    }

    fn finalize(&self, parts: Vec<(u64, FaultPartial)>) -> Option<SiteReport> {
        let plan = self.plan();
        let covered: u64 = parts.iter().map(|&(i, _)| plan.chunk(i).len).sum();
        if covered == 0 {
            return None;
        }
        let max = self.design.max_operand();
        let norm = max as f64 * max as f64;
        let mut total = FaultPartial::default();
        for (_, part) in &parts {
            total.merge(part);
        }
        Some(FaultCampaign::report_from(
            self.fault, covered, norm, &total,
        ))
    }
}

/// Aggregates site reports into per-class summaries, ordered most
/// error-critical first (by mean NMED degradation).
pub fn summarize_by_class(reports: &[SiteReport]) -> Vec<ClassSummary> {
    let mut summaries = Vec::new();
    for class in SiteClass::ALL {
        let members: Vec<&SiteReport> = reports
            .iter()
            .filter(|r| r.fault.site.class() == class)
            .collect();
        if members.is_empty() {
            continue;
        }
        let n = members.len() as f64;
        summaries.push(ClassSummary {
            class,
            sites: members.len(),
            corruption_rate: members.iter().map(|r| r.corruption_rate).sum::<f64>() / n,
            detection_rate: members.iter().map(|r| r.detection_rate).sum::<f64>() / n,
            nmed_degradation: members.iter().map(|r| r.nmed_degradation()).sum::<f64>() / n,
            worst_degradation: members
                .iter()
                .map(|r| r.nmed_degradation())
                .fold(f64::NEG_INFINITY, f64::max),
            mre: members.iter().map(|r| r.mre_faulty).sum::<f64>() / n,
        });
    }
    summaries.sort_by(|a, b| b.nmed_degradation.total_cmp(&a.nmed_degradation));
    summaries
}

#[cfg(test)]
mod tests {
    use super::*;
    use realm_core::{Realm, RealmConfig};
    use realm_fault::{FaultSite, Operand};

    fn realm16() -> Realm {
        Realm::new(RealmConfig::n16(16, 0)).expect("valid configuration")
    }

    fn campaign() -> FaultCampaign {
        FaultCampaign::new(4_000, 0xCA11)
    }

    #[test]
    fn msb_shift_fault_is_critical_and_guard_catches_it() {
        let r = campaign().characterize(
            &realm16(),
            Fault::stuck_at(FaultSite::ShiftAmount { bit: 4 }, false),
        );
        // Clearing the shift MSB crushes most products by 2^16.
        assert!(r.corruption_rate > 0.5, "corruption {}", r.corruption_rate);
        assert!(r.detection_rate > 0.95, "detection {}", r.detection_rate);
        assert!(
            r.nmed_degradation() > 0.01,
            "ΔNMED {}",
            r.nmed_degradation()
        );
        // Behind the guard the degradation nearly vanishes.
        assert!(
            r.guarded_degradation() < r.nmed_degradation() / 100.0,
            "guarded ΔNMED {} vs {}",
            r.guarded_degradation(),
            r.nmed_degradation()
        );
    }

    #[test]
    fn lut_lsb_fault_is_benign_and_invisible_to_the_guard() {
        let r = campaign().characterize(
            &realm16(),
            Fault::stuck_at(FaultSite::LutFactor { bit: 0 }, true),
        );
        // The LUT LSB is worth 2^-6 of the product — within an octave, so
        // the magnitude guard cannot see it and the damage is tiny.
        assert!(r.mre_faulty < 0.05, "MRE {}", r.mre_faulty);
        assert!(r.fallback_rate < 0.01, "fallback {}", r.fallback_rate);
        assert!(r.nmed_degradation() < 1e-3);
    }

    #[test]
    fn characteristic_outranks_lut_in_class_ranking() {
        let c = campaign();
        let design = realm16();
        let mut reports = Vec::new();
        for site in [
            FaultSite::Characteristic {
                operand: Operand::A,
                bit: 3,
            },
            FaultSite::Characteristic {
                operand: Operand::B,
                bit: 2,
            },
            FaultSite::LutFactor { bit: 0 },
            FaultSite::LutFactor { bit: 3 },
        ] {
            reports.push(c.characterize(&design, Fault::stuck_at(site, true)));
            reports.push(c.characterize(&design, Fault::stuck_at(site, false)));
        }
        let classes = summarize_by_class(&reports);
        assert_eq!(classes[0].class, SiteClass::Characteristic);
        assert!(classes[0].nmed_degradation > classes[1].nmed_degradation);
    }

    #[test]
    fn transient_curve_is_monotone_in_probability() {
        let points: Vec<SiteReport> = [0.0, 0.1, 0.5, 1.0]
            .iter()
            .map(|&p| {
                campaign().characterize(
                    &realm16(),
                    Fault::transient(FaultSite::ShiftAmount { bit: 3 }, p),
                )
            })
            .collect();
        assert_eq!(points.len(), 4);
        assert_eq!(points[0].corruption_rate, 0.0);
        for pair in points.windows(2) {
            assert!(
                pair[1].nmed_faulty >= pair[0].nmed_faulty,
                "NMED not monotone: {:?}",
                pair.iter().map(|p| p.nmed_faulty).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn sweep_covers_every_site_twice() {
        let design = realm16();
        let small = FaultCampaign::new(50, 3);
        let reports = small
            .stuck_at_sweep_supervised(&design, &Supervisor::new())
            .unwrap()
            .value
            .unwrap();
        assert_eq!(reports.len(), 2 * design.fault_sites().len());
    }

    #[test]
    fn report_is_thread_count_independent() {
        use realm_par::Threads;
        let design = realm16();
        let fault = Fault::transient(FaultSite::ShiftAmount { bit: 2 }, 0.25);
        let base = FaultCampaign::new(20_000, 0xF00D).with_chunk(1 << 11);
        let one = base
            .with_threads(Threads::Fixed(1))
            .characterize(&design, fault);
        for workers in [2usize, 8] {
            let many = base
                .with_threads(Threads::Fixed(workers))
                .characterize(&design, fault);
            assert_eq!(one, many, "workers={workers}");
        }
    }
}
