//! Determinism suite: the keystone guarantee of the parallel
//! characterization engine — for **every** design family in the catalog,
//! campaign results are bit-identical across worker-thread counts and
//! equal to the serial chunked reference. Run in CI on every push.

use realm_baselines::catalog;
use realm_core::{Realm, RealmConfig};
use realm_fault::{Fault, FaultSite};
use realm_metrics::{
    BreakdownWorkload, DistanceWorkload, Engine, FaultCampaign, MonteCarlo, ProfileWorkload,
    RangeWorkload, Threads,
};

/// Small but multi-chunk budget: 8 chunks of 512 samples.
const SAMPLES: u64 = 4_096;
const CHUNK: u64 = 512;
const SEED: u64 = 2020;
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

#[test]
fn montecarlo_is_bit_identical_for_every_catalog_design() {
    for design in catalog::table1_designs() {
        let campaign = MonteCarlo::new(SAMPLES, SEED).with_chunk(CHUNK);
        // Serial chunked reference: the sink path never uses the pool.
        let reference = campaign.characterize_with(design.as_ref(), |_| {});
        for workers in THREAD_COUNTS {
            let summary = campaign
                .with_threads(Threads::Fixed(workers))
                .characterize(design.as_ref());
            assert_eq!(
                summary,
                reference,
                "{} diverges at {workers} workers",
                design.name()
            );
        }
    }
}

#[test]
fn montecarlo_auto_threads_match_reference() {
    for design in catalog::table2_designs() {
        let campaign = MonteCarlo::new(SAMPLES, SEED).with_chunk(CHUNK);
        let reference = campaign.characterize_with(design.as_ref(), |_| {});
        let auto = campaign
            .with_threads(Threads::Auto)
            .characterize(design.as_ref());
        assert_eq!(auto, reference, "{} diverges under Auto", design.name());
    }
}

#[test]
fn distance_metrics_are_bit_identical_across_thread_counts() {
    for design in catalog::table2_designs() {
        let reference = Engine::new(Threads::Fixed(1))
            .run(&DistanceWorkload::new(design.as_ref(), SAMPLES, SEED))
            .expect("nonempty campaign");
        for workers in THREAD_COUNTS {
            let summary = Engine::new(Threads::Fixed(workers))
                .run(&DistanceWorkload::new(design.as_ref(), SAMPLES, SEED))
                .expect("nonempty campaign");
            assert_eq!(
                summary,
                reference,
                "{} NMED diverges at {workers} workers",
                design.name()
            );
        }
    }
}

#[test]
fn interval_breakdown_is_bit_identical_across_thread_counts() {
    for design in catalog::table2_designs() {
        let reference = Engine::new(Threads::Fixed(1))
            .run(&BreakdownWorkload::new(design.as_ref(), SAMPLES, SEED))
            .unwrap_or_default();
        for workers in THREAD_COUNTS {
            let cells = Engine::new(Threads::Fixed(workers))
                .run(&BreakdownWorkload::new(design.as_ref(), SAMPLES, SEED))
                .unwrap_or_default();
            assert_eq!(cells.len(), reference.len(), "{}", design.name());
            for (got, want) in cells.iter().zip(&reference) {
                assert_eq!((got.ka, got.kb), (want.ka, want.kb), "{}", design.name());
                assert_eq!(
                    got.summary,
                    want.summary,
                    "{} cell ({}, {}) diverges at {workers} workers",
                    design.name(),
                    got.ka,
                    got.kb
                );
            }
        }
    }
}

#[test]
fn exhaustive_sweeps_are_bit_identical_across_thread_counts() {
    for design in catalog::table2_designs() {
        let reference = Engine::new(Threads::Fixed(1))
            .run(&RangeWorkload::new(design.as_ref(), 32..=160, 32..=160))
            .expect("nonzero products");
        let profile_ref = Engine::new(Threads::Fixed(1))
            .run(&ProfileWorkload::new(design.as_ref(), 32..=96, 32..=96))
            .unwrap_or_default();
        for workers in THREAD_COUNTS {
            let summary = Engine::new(Threads::Fixed(workers))
                .run(&RangeWorkload::new(design.as_ref(), 32..=160, 32..=160))
                .expect("nonzero products");
            assert_eq!(summary, reference, "{}", design.name());
            let profile = Engine::new(Threads::Fixed(workers))
                .run(&ProfileWorkload::new(design.as_ref(), 32..=96, 32..=96))
                .unwrap_or_default();
            assert_eq!(profile, profile_ref, "{}", design.name());
        }
    }
}

#[test]
fn fault_campaign_is_bit_identical_across_thread_counts() {
    let design = Realm::new(RealmConfig::n16(16, 0)).expect("paper design point");
    let campaign = FaultCampaign::new(SAMPLES, SEED).with_chunk(CHUNK);
    for fault in [
        Fault::stuck_at(FaultSite::ShiftAmount { bit: 4 }, false),
        Fault::stuck_at(FaultSite::LutFactor { bit: 0 }, true),
        // Seeded transient plan: activations draw from the chunk substream.
        Fault::transient(FaultSite::ShiftAmount { bit: 2 }, 0.3),
    ] {
        let reference = campaign
            .with_threads(Threads::Fixed(1))
            .characterize(&design, fault);
        for workers in THREAD_COUNTS {
            let report = campaign
                .with_threads(Threads::Fixed(workers))
                .characterize(&design, fault);
            assert_eq!(report, reference, "{fault:?} diverges at {workers} workers");
        }
    }
}

#[test]
fn repeated_runs_are_reproducible() {
    // Same campaign, fresh invocations: not just thread-count stable but
    // run-to-run stable.
    let design = Realm::new(RealmConfig::n16(8, 3)).expect("paper design point");
    let a = MonteCarlo::new(SAMPLES, SEED).characterize(&design);
    let b = MonteCarlo::new(SAMPLES, SEED).characterize(&design);
    assert_eq!(a, b);
}
