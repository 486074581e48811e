//! Engine differential suite: proves the `Workload`/`Engine` rewrite of
//! the five campaign families folds **bit-identically** to the
//! pre-refactor drivers.
//!
//! The goldens below were captured by running the legacy per-family
//! chunk drivers (before their deletion) on small fixed configurations
//! and recording `f64::to_bits` of every output field. Each family is
//! then pinned three ways:
//!
//! 1. the engine path reproduces the goldens at 1, 2 and 8 worker
//!    threads,
//! 2. a supervised run-to-completion reproduces the goldens,
//! 3. an interrupted (chunk-budget) run resumed from its journal
//!    reproduces the unsupervised output bit-for-bit.
//!
//! SIGKILL-and-resume coverage for the same engine path lives in
//! `crates/bench/tests/resume.rs`, which kills a real campaign process
//! mid-run and diffs the resumed summary byte-for-byte.

use realm_baselines::Calm;
use realm_core::{Realm, RealmConfig};
use realm_fault::{Fault, FaultSite};
use realm_metrics::faults::FaultCampaign;
use realm_metrics::summary::ErrorSummary;
use realm_metrics::{
    BreakdownWorkload, DistanceWorkload, Engine, IntervalCell, MonteCarlo, ProfileWorkload,
    RangeWorkload, Supervisor, Threads,
};
use std::path::PathBuf;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn realm(m: u32, t: u32) -> Realm {
    Realm::new(RealmConfig::n16(m, t)).expect("paper design point")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("realm-engine-diff-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Asserts a summary against golden `[samples, bias, mean, variance,
/// min, max]` (floats as IEEE-754 bit patterns).
fn assert_summary_bits(what: &str, s: &ErrorSummary, golden: [u64; 6]) {
    let [samples, bias, mean, var, min, max] = golden;
    assert_eq!(s.samples, samples, "{what}: samples");
    assert_eq!(s.bias.to_bits(), bias, "{what}: bias {:e}", s.bias);
    assert_eq!(
        s.mean_error.to_bits(),
        mean,
        "{what}: mean {:e}",
        s.mean_error
    );
    assert_eq!(
        s.variance.to_bits(),
        var,
        "{what}: variance {:e}",
        s.variance
    );
    assert_eq!(s.min_error.to_bits(), min, "{what}: min {:e}", s.min_error);
    assert_eq!(s.max_error.to_bits(), max, "{what}: max {:e}", s.max_error);
}

fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

fn cells_hash(cells: &[IntervalCell]) -> u64 {
    fnv(cells.iter().flat_map(|c| {
        [
            c.ka as u64,
            c.kb as u64,
            c.summary.samples,
            c.summary.bias.to_bits(),
            c.summary.mean_error.to_bits(),
            c.summary.variance.to_bits(),
            c.summary.min_error.to_bits(),
            c.summary.max_error.to_bits(),
        ]
    }))
}

// ---------------------------------------------------------------- montecarlo

/// Golden: MonteCarlo::new(40_000, 42).with_chunk(1 << 12) on REALM16 t=0,
/// captured from the pre-refactor driver.
fn assert_mc_realm16_golden(s: &ErrorSummary, what: &str) {
    assert_summary_bits(
        what,
        s,
        [
            39_997,
            0x3f1d9aa2e24f09cb,
            0x3f712c3a8cece97c,
            0x3efdc05bdc739f19,
            0xbf942ac4847847c4,
            0x3f9246f1245ccfe5,
        ],
    );
}

#[test]
fn montecarlo_matches_prerefactor_golden_at_every_thread_count() {
    let design = realm(16, 0);
    let base = MonteCarlo::new(40_000, 42).with_chunk(1 << 12);
    for workers in THREAD_COUNTS {
        let s = base
            .with_threads(Threads::Fixed(workers))
            .characterize(&design);
        assert_mc_realm16_golden(&s, &format!("montecarlo workers={workers}"));
    }
    // A second design pins the family beyond one datapath.
    let s = base
        .with_threads(Threads::Fixed(2))
        .characterize(&Calm::new(16));
    assert_summary_bits(
        "montecarlo cALM",
        &s,
        [
            39_997,
            0xbfa39939d91406cc,
            0x3fa39939d91406cc,
            0x3f4c41a728082db0,
            0xbfbc661a0ce3677e,
            0x0000000000000000,
        ],
    );
}

#[test]
fn montecarlo_supervised_and_resumed_match_golden() {
    let design = realm(16, 0);
    let campaign = MonteCarlo::new(40_000, 42).with_chunk(1 << 12);
    let dir = temp_dir("mc");

    // Interrupt halfway (10 chunks total), then resume at a different
    // thread count.
    let sup = Supervisor::new()
        .with_threads(Threads::Fixed(1))
        .checkpoint_to(&dir)
        .with_chunk_budget(5);
    let partial = campaign
        .characterize_supervised(&design, &sup)
        .expect("supervised run");
    assert!(!partial.report.is_complete());

    let sup = Supervisor::new()
        .with_threads(Threads::Fixed(8))
        .checkpoint_to(&dir)
        .resume(true);
    let resumed = campaign
        .characterize_supervised(&design, &sup)
        .expect("resumed run");
    assert!(resumed.report.is_complete());
    assert!(resumed.report.replayed_chunks >= 5);
    let s = resumed.value.expect("complete run has a summary");
    assert_mc_realm16_golden(&s, "montecarlo resumed");
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------- exhaustive

/// Golden: characterize_range(REALM8 t=2, 1..=300, 1..=300).
fn assert_range_golden(s: &ErrorSummary, what: &str) {
    assert_summary_bits(
        what,
        s,
        [
            90_000,
            0x3f51712593e8e8b4,
            0x3f8186d887635cbb,
            0x3f1f190af91e7aa8,
            0xbfbc71c71c71c71c,
            0x3f9db13b13b13b14,
        ],
    );
}

const PROFILE_GOLDEN_LEN: usize = 4225;
const PROFILE_GOLDEN_HASH: u64 = 0x1e3cbe42e0cab18e;

fn profile_hash(points: &[realm_metrics::exhaustive::ProfilePoint]) -> u64 {
    fnv(points.iter().flat_map(|p| [p.a, p.b, p.error.to_bits()]))
}

#[test]
fn exhaustive_matches_prerefactor_golden_at_every_thread_count() {
    let r82 = realm(8, 2);
    let r16 = realm(16, 0);
    for workers in THREAD_COUNTS {
        let threads = Threads::Fixed(workers);
        let s = Engine::new(threads)
            .run(&RangeWorkload::new(&r82, 1..=300, 1..=300))
            .expect("nonzero products");
        assert_range_golden(&s, &format!("range workers={workers}"));

        let pts = Engine::new(threads)
            .run(&ProfileWorkload::new(&r16, 32..=96, 32..=96))
            .unwrap_or_default();
        assert_eq!(pts.len(), PROFILE_GOLDEN_LEN, "profile workers={workers}");
        assert_eq!(
            profile_hash(&pts),
            PROFILE_GOLDEN_HASH,
            "profile workers={workers}"
        );
    }
}

#[test]
fn exhaustive_supervised_and_resumed_match_golden() {
    let r82 = realm(8, 2);
    let dir = temp_dir("range");
    // 300 rows at 8 rows/chunk = 38 chunks; stop at 19.
    let sup = Supervisor::new()
        .with_threads(Threads::Fixed(2))
        .checkpoint_to(&dir)
        .with_chunk_budget(19);
    let partial = Engine::supervised(&RangeWorkload::new(&r82, 1..=300, 1..=300), &sup)
        .expect("supervised run");
    assert!(!partial.report.is_complete());
    let sup = Supervisor::new()
        .with_threads(Threads::Fixed(1))
        .checkpoint_to(&dir)
        .resume(true);
    let resumed =
        Engine::supervised(&RangeWorkload::new(&r82, 1..=300, 1..=300), &sup).expect("resumed run");
    assert!(resumed.report.is_complete());
    assert_range_golden(
        &resumed.value.expect("complete run has a summary"),
        "range resumed",
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn profile_supervised_and_resumed_match_golden() {
    let r16 = realm(16, 0);
    let dir = temp_dir("profile");
    // 65 rows at 8 rows/chunk = 9 chunks; stop at 4.
    let sup = Supervisor::new()
        .with_threads(Threads::Fixed(2))
        .checkpoint_to(&dir)
        .with_chunk_budget(4);
    let partial = Engine::supervised(&ProfileWorkload::new(&r16, 32..=96, 32..=96), &sup)
        .expect("supervised run");
    assert!(!partial.report.is_complete());
    let sup = Supervisor::new()
        .with_threads(Threads::Fixed(8))
        .checkpoint_to(&dir)
        .resume(true);
    let resumed = Engine::supervised(&ProfileWorkload::new(&r16, 32..=96, 32..=96), &sup)
        .expect("resumed run");
    assert!(resumed.report.is_complete());
    let pts = resumed.value.expect("complete run has points");
    assert_eq!(pts.len(), PROFILE_GOLDEN_LEN);
    assert_eq!(profile_hash(&pts), PROFILE_GOLDEN_HASH);
    std::fs::remove_dir_all(&dir).ok();
}

// ----------------------------------------------------------------- breakdown

const BREAKDOWN_GOLDEN_LEN: usize = 135;
const BREAKDOWN_GOLDEN_HASH: u64 = 0x12f1ed94999eed1a;

#[test]
fn breakdown_matches_prerefactor_golden_at_every_thread_count() {
    let r41 = realm(4, 1);
    for workers in THREAD_COUNTS {
        let cells = Engine::new(Threads::Fixed(workers))
            .run(&BreakdownWorkload::new(&r41, 100_000, 9))
            .unwrap_or_default();
        assert_eq!(cells.len(), BREAKDOWN_GOLDEN_LEN, "workers={workers}");
        assert_eq!(
            cells_hash(&cells),
            BREAKDOWN_GOLDEN_HASH,
            "workers={workers}"
        );
    }
}

#[test]
fn breakdown_supervised_and_resumed_match_golden() {
    let r41 = realm(4, 1);
    let dir = temp_dir("breakdown");
    // 100_000 samples at the default 65_536 chunk = 2 chunks; stop at 1.
    let sup = Supervisor::new()
        .with_threads(Threads::Fixed(1))
        .checkpoint_to(&dir)
        .with_chunk_budget(1);
    let partial = Engine::supervised(&BreakdownWorkload::new(&r41, 100_000, 9), &sup)
        .expect("supervised run");
    assert!(!partial.report.is_complete());
    let sup = Supervisor::new()
        .with_threads(Threads::Fixed(2))
        .checkpoint_to(&dir)
        .resume(true);
    let resumed =
        Engine::supervised(&BreakdownWorkload::new(&r41, 100_000, 9), &sup).expect("resumed run");
    assert!(resumed.report.is_complete());
    let cells = resumed.value.expect("complete run has cells");
    assert_eq!(cells.len(), BREAKDOWN_GOLDEN_LEN);
    assert_eq!(cells_hash(&cells), BREAKDOWN_GOLDEN_HASH);
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------- nmed

const NMED_GOLDEN: (u64, u64, u64) = (100_000, 0x3f5cfe1fe27f04cc, 0x3f9343d52b971359);

#[test]
fn nmed_matches_prerefactor_golden_at_every_thread_count() {
    let r83 = realm(8, 3);
    for workers in THREAD_COUNTS {
        let d = Engine::new(Threads::Fixed(workers))
            .run(&DistanceWorkload::new(&r83, 100_000, 5))
            .expect("nonempty campaign");
        assert_eq!(d.samples, NMED_GOLDEN.0, "workers={workers}");
        assert_eq!(d.nmed.to_bits(), NMED_GOLDEN.1, "workers={workers}");
        assert_eq!(d.worst_case.to_bits(), NMED_GOLDEN.2, "workers={workers}");
    }
}

#[test]
fn nmed_supervised_and_resumed_match_golden() {
    let r83 = realm(8, 3);
    let dir = temp_dir("nmed");
    let sup = Supervisor::new()
        .with_threads(Threads::Fixed(1))
        .checkpoint_to(&dir)
        .with_chunk_budget(1);
    let partial =
        Engine::supervised(&DistanceWorkload::new(&r83, 100_000, 5), &sup).expect("supervised run");
    assert!(!partial.report.is_complete());
    let sup = Supervisor::new()
        .with_threads(Threads::Fixed(8))
        .checkpoint_to(&dir)
        .resume(true);
    let resumed =
        Engine::supervised(&DistanceWorkload::new(&r83, 100_000, 5), &sup).expect("resumed run");
    assert!(resumed.report.is_complete());
    let d = resumed.value.expect("complete run has a summary");
    assert_eq!(d.samples, NMED_GOLDEN.0);
    assert_eq!(d.nmed.to_bits(), NMED_GOLDEN.1);
    assert_eq!(d.worst_case.to_bits(), NMED_GOLDEN.2);
    std::fs::remove_dir_all(&dir).ok();
}

// -------------------------------------------------------------------- faults

fn shift4_fault() -> Fault {
    Fault::stuck_at(FaultSite::ShiftAmount { bit: 4 }, false)
}

fn assert_fault_golden(r: &realm_metrics::SiteReport, what: &str) {
    assert_eq!(r.samples, 4_000, "{what}: samples");
    assert_eq!(r.disturbance_rate.to_bits(), 0x3ff0000000000000, "{what}");
    assert_eq!(r.corruption_rate.to_bits(), 0x3ff0000000000000, "{what}");
    assert_eq!(r.detection_rate.to_bits(), 0x3ff0000000000000, "{what}");
    assert_eq!(r.fallback_rate.to_bits(), 0x3ff0000000000000, "{what}");
    assert_eq!(r.nmed_clean.to_bits(), 0x3f504d99084493d5, "{what}");
    assert_eq!(r.nmed_faulty.to_bits(), 0x3fd0145882f7b633, "{what}");
    assert_eq!(r.nmed_guarded.to_bits(), 0x0000000000000000, "{what}");
    assert_eq!(r.mre_faulty.to_bits(), 0x3fefffe002439275, "{what}");
}

#[test]
fn faults_match_prerefactor_golden_at_every_thread_count() {
    let design = realm(16, 0);
    for workers in THREAD_COUNTS {
        let r = FaultCampaign::new(4_000, 0xCA11)
            .with_threads(Threads::Fixed(workers))
            .characterize(&design, shift4_fault());
        assert_fault_golden(&r, &format!("faults workers={workers}"));
    }
}

#[test]
fn faults_supervised_complete_matches_golden_and_interrupts_resume() {
    let design = realm(16, 0);
    let dir = temp_dir("faults");

    // Supervised complete run reproduces the golden (single default
    // chunk: 4_000 samples fit in one 65_536-sample chunk).
    let sup = Supervisor::new()
        .with_threads(Threads::Fixed(2))
        .checkpoint_to(&dir);
    let complete = Engine::supervised(
        &FaultCampaign::new(4_000, 0xCA11).workload(&design, shift4_fault()),
        &sup,
    )
    .expect("supervised run");
    assert!(complete.report.is_complete());
    assert_fault_golden(
        &complete.value.expect("complete run has a report"),
        "faults supervised",
    );

    // A finer-chunked campaign interrupts and resumes bit-identically
    // to its own unsupervised output (different substreams than the
    // golden, so compared against itself).
    let fine = FaultCampaign::new(4_000, 0xCA11).with_chunk(512);
    let reference = fine
        .with_threads(Threads::Fixed(1))
        .characterize(&design, shift4_fault());
    let dir2 = temp_dir("faults-fine");
    let sup = Supervisor::new()
        .with_threads(Threads::Fixed(1))
        .checkpoint_to(&dir2)
        .with_chunk_budget(3);
    let partial =
        Engine::supervised(&fine.workload(&design, shift4_fault()), &sup).expect("supervised run");
    assert!(!partial.report.is_complete());
    let sup = Supervisor::new()
        .with_threads(Threads::Fixed(8))
        .checkpoint_to(&dir2)
        .resume(true);
    let resumed =
        Engine::supervised(&fine.workload(&design, shift4_fault()), &sup).expect("resumed run");
    assert!(resumed.report.is_complete());
    assert_eq!(resumed.value.expect("complete"), reference);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&dir2).ok();
}
