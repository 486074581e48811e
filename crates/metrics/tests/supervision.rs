//! Supervised campaigns must be indistinguishable from unsupervised
//! ones when they complete — bit-for-bit, across interruption/resume
//! cycles and thread counts — and degrade gracefully (partial results
//! with honest accounting) when chunks are quarantined.

use std::path::PathBuf;

use realm_baselines::Calm;
use realm_core::{Realm, RealmConfig};
use realm_fault::{Fault, FaultSite, FaultTarget};
use realm_harness::Supervisor;
use realm_metrics::{
    BreakdownWorkload, DistanceWorkload, Engine, FaultCampaign, MonteCarlo, RangeWorkload,
    SiteReport, Threads,
};

const SAMPLES: u64 = 40_000;
const CHUNK: u64 = 1 << 11;
const SEED: u64 = 0x5EED;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("realm-supervision-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn realm16() -> Realm {
    Realm::new(RealmConfig::n16(16, 0)).expect("paper design point")
}

#[test]
fn supervised_montecarlo_matches_plain_bit_for_bit() {
    let design = realm16();
    let campaign = MonteCarlo::new(SAMPLES, SEED).with_chunk(CHUNK);
    let plain = campaign.characterize(&design);
    let sup = campaign
        .characterize_supervised(&design, &Supervisor::new())
        .expect("supervised run");
    assert!(sup.report.is_complete());
    assert_eq!(sup.value, Some(plain));
}

#[test]
fn interrupted_montecarlo_resumes_bit_identically_across_thread_counts() {
    let design = realm16();
    let campaign = MonteCarlo::new(SAMPLES, SEED).with_chunk(CHUNK);
    let plain = campaign.characterize(&design);
    for &threads in &[1usize, 2, 8] {
        let dir = temp_dir(&format!("mc-{threads}"));
        let first = campaign
            .characterize_supervised(
                &design,
                &Supervisor::new()
                    .with_threads(Threads::from_count(threads))
                    .checkpoint_to(&dir)
                    .with_chunk_budget(campaign.plan().num_chunks() / 2),
            )
            .expect("first leg");
        assert!(!first.report.is_complete());

        let resumed = campaign
            .characterize_supervised(
                &design,
                &Supervisor::new()
                    .with_threads(Threads::from_count(9 - threads))
                    .checkpoint_to(&dir)
                    .resume(true),
            )
            .expect("resume leg");
        assert!(resumed.report.is_complete());
        assert_eq!(
            resumed.value,
            Some(plain),
            "killed+resumed must equal uninterrupted (threads {threads})"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn quarantined_montecarlo_returns_partial_with_accounting() {
    let design = realm16();
    let campaign = MonteCarlo::new(SAMPLES, SEED).with_chunk(CHUNK);
    let sup = campaign
        .characterize_supervised(
            &design,
            &Supervisor::new()
                .with_retries(0)
                .with_injected_panics(&[0, 3], true),
        )
        .expect("supervised run");
    assert_eq!(sup.report.quarantined.len(), 2);
    assert!(sup.report.stopped.is_none());
    // The summary's sample count excludes zero products, so it is
    // bounded by — and close to — the covered-sample accounting.
    let value = sup.value.expect("partial result");
    assert!(value.samples <= sup.report.covered_samples);
    assert!(value.samples > sup.report.covered_samples - 100);
}

#[test]
fn fully_quarantined_campaign_yields_none_not_a_panic() {
    let design = realm16();
    let campaign = MonteCarlo::new(1_000, SEED).with_chunk(1 << 10); // one chunk
    let sup = campaign
        .characterize_supervised(
            &design,
            &Supervisor::new()
                .with_retries(1)
                .with_injected_panics(&[0], true),
        )
        .expect("supervised run");
    assert!(sup.value.is_none());
    assert_eq!(sup.report.covered_samples, 0);
    assert_eq!(sup.report.quarantined.len(), 1);
}

#[test]
fn supervised_nmed_matches_plain() {
    let design = Calm::new(16);
    let plain = Engine::new(Threads::Auto)
        .run(&DistanceWorkload::new(&design, SAMPLES, SEED))
        .expect("nonempty campaign");
    let sup = Engine::supervised(
        &DistanceWorkload::new(&design, SAMPLES, SEED),
        &Supervisor::new(),
    )
    .expect("supervised run");
    assert!(sup.report.is_complete());
    assert_eq!(sup.value, Some(plain));
}

#[test]
fn supervised_exhaustive_matches_plain_after_resume() {
    let design = realm16();
    let plain = Engine::new(Threads::Auto)
        .run(&RangeWorkload::new(&design, 32..=255, 32..=255))
        .expect("nonzero products");
    let dir = temp_dir("exhaustive");
    let first = Engine::supervised(
        &RangeWorkload::new(&design, 32..=255, 32..=255),
        &Supervisor::new().checkpoint_to(&dir).with_chunk_budget(10),
    )
    .expect("first leg");
    assert!(!first.report.is_complete());
    let resumed = Engine::supervised(
        &RangeWorkload::new(&design, 32..=255, 32..=255),
        &Supervisor::new().checkpoint_to(&dir).resume(true),
    )
    .expect("resume leg");
    assert!(resumed.report.is_complete());
    assert_eq!(resumed.value, Some(plain));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn supervised_breakdown_matches_plain() {
    let design = realm16();
    let plain = Engine::new(Threads::Auto)
        .run(&BreakdownWorkload::new(&design, SAMPLES, SEED))
        .unwrap_or_default();
    let sup = Engine::supervised(
        &BreakdownWorkload::new(&design, SAMPLES, SEED),
        &Supervisor::new(),
    )
    .expect("supervised run");
    assert!(sup.report.is_complete());
    let cells = sup.value.expect("complete run has cells");
    assert_eq!(cells.len(), plain.len());
    for (a, b) in cells.iter().zip(&plain) {
        assert_eq!((a.ka, a.kb), (b.ka, b.kb));
        assert_eq!(a.summary, b.summary);
    }
}

#[test]
fn supervised_fault_campaign_matches_plain_after_resume() {
    let design = realm16();
    // A stuck-at fault, and a transient one whose flips draw from the
    // chunk substream per operation.
    for fault in [
        Fault::stuck_at(FaultSite::ShiftAmount { bit: 4 }, false),
        Fault::transient(FaultSite::ShiftAmount { bit: 4 }, 0.01),
    ] {
        let campaign = FaultCampaign::new(20_000, SEED).with_chunk(1 << 11);
        let plain = campaign.characterize(&design, fault);
        let dir = temp_dir("fault");
        let first = Engine::supervised(
            &campaign.workload(&design, fault),
            &Supervisor::new().checkpoint_to(&dir).with_chunk_budget(4),
        )
        .expect("first leg");
        assert!(!first.report.is_complete());
        let resumed = Engine::supervised(
            &campaign.workload(&design, fault),
            &Supervisor::new().checkpoint_to(&dir).resume(true),
        )
        .expect("resume leg");
        assert!(resumed.report.is_complete());
        assert_eq!(resumed.value, Some(plain));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn supervised_stuck_at_sweep_stops_at_deadline_and_resumes() {
    let design = realm16();
    let campaign = FaultCampaign::new(500, SEED).with_chunk(500);
    let plain: Vec<SiteReport> = design
        .fault_sites()
        .into_iter()
        .flat_map(|site| {
            [false, true].map(|v| campaign.characterize(&design, Fault::stuck_at(site, v)))
        })
        .collect();
    // An already-expired deadline: the sweep schedules nothing.
    let stopped = campaign
        .stuck_at_sweep_supervised(
            &design,
            &Supervisor::new().with_deadline(std::time::Duration::ZERO),
        )
        .expect("deadline sweep");
    assert!(stopped.report.stopped.is_some());
    assert!(stopped.value.is_none());
    // Unconstrained, the sweep reproduces the plain reports exactly.
    let full = campaign
        .stuck_at_sweep_supervised(&design, &Supervisor::new())
        .expect("full sweep");
    assert_eq!(full.value.expect("complete sweep"), plain);
}

#[test]
fn campaign_ids_distinguish_designs_and_faults() {
    let campaign = MonteCarlo::new(SAMPLES, SEED).with_chunk(CHUNK);
    let a = campaign.campaign_id(&realm16());
    let b = campaign.campaign_id(&Calm::new(16));
    assert_ne!(a.fingerprint(), b.fingerprint());

    let fc = FaultCampaign::new(1_000, SEED);
    let design = realm16();
    let f1 = fc.campaign_id(
        &design,
        Fault::stuck_at(FaultSite::ShiftAmount { bit: 0 }, false),
    );
    let f2 = fc.campaign_id(
        &design,
        Fault::stuck_at(FaultSite::ShiftAmount { bit: 0 }, true),
    );
    let f3 = fc.campaign_id(
        &design,
        Fault::transient(FaultSite::ShiftAmount { bit: 0 }, 0.5),
    );
    assert_ne!(f1.fingerprint(), f2.fingerprint());
    assert_ne!(f1.fingerprint(), f3.fingerprint());
    assert_ne!(f2.fingerprint(), f3.fingerprint());
}
