//! # realm-par
//!
//! A dependency-free, deterministic parallel execution layer for the
//! workspace's bulk characterization campaigns (Monte-Carlo error
//! profiling, exhaustive sweeps, fault-injection runs).
//!
//! The paper's evaluation draws 2^24 Monte-Carlo samples *per
//! configuration* across dozens of design points; that work is trivially
//! parallel, but naive parallelism would make the reported statistics
//! depend on the thread count (floating-point accumulation order) and on
//! scheduling (which worker consumed which RNG draws). This crate makes
//! parallel campaigns **bit-identical for any worker count** with a simple
//! discipline:
//!
//! 1. The workload is split into **fixed-size chunks** by a [`ChunkPlan`]
//!    whose geometry depends only on `(total, chunk_size)` — never on the
//!    number of workers.
//! 2. Each chunk derives its own RNG substream from `(seed, chunk index)`
//!    (see `realm_core::rng::SplitMix64::stream`) and fills a private
//!    accumulator.
//! 3. [`map_chunks`] executes chunks on a scoped worker pool
//!    (`std::thread::scope`, no external crates) and returns the per-chunk
//!    results **in chunk order**, so the caller's reduce is a fixed
//!    left-fold regardless of which worker finished first.
//!
//! Steps 1–3 mean the only thing parallelism changes is wall-clock time:
//! the values folded, and the order they are folded in, are exactly those
//! of a serial run over the same chunk plan.
//!
//! ```
//! use realm_par::{map_chunks, ChunkPlan, Threads};
//!
//! let plan = ChunkPlan::new(10_000, 1 << 10);
//! let partial_sums = map_chunks(plan, Threads::Fixed(4), |chunk| {
//!     (chunk.start..chunk.end()).sum::<u64>()
//! });
//! let total: u64 = partial_sums.iter().sum();
//! assert_eq!(total, 10_000 * 9_999 / 2);
//! // Identical plan + fold order ⇒ identical result on any thread count.
//! let serial = map_chunks(plan, Threads::Fixed(1), |c| (c.start..c.end()).sum::<u64>());
//! assert_eq!(partial_sums, serial);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::Instant;

use realm_obs::{Collector, Event};

/// Worker-count policy for a parallel campaign.
///
/// `Threads` only decides how many OS threads execute the chunk plan —
/// never how the work is chunked — so results are identical under every
/// variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Threads {
    /// Use every hardware thread the OS reports
    /// ([`std::thread::available_parallelism`]), falling back to 1 when
    /// the query fails.
    #[default]
    Auto,
    /// Use exactly this many workers. `Fixed(0)` resolves like
    /// [`Threads::Auto`]: **`0` means auto everywhere** — the CLI flag,
    /// [`Threads::from_count`] and this variant all agree, so a config
    /// value of `0` can be threaded through any layer without a special
    /// case.
    Fixed(usize),
}

impl Threads {
    /// The concrete worker count this policy resolves to, always ≥ 1.
    pub fn resolve(self) -> usize {
        match self {
            Threads::Auto | Threads::Fixed(0) => thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            Threads::Fixed(n) => n,
        }
    }

    /// Parses a CLI-style thread count: `0` means [`Threads::Auto`], any
    /// other value is [`Threads::Fixed`].
    pub fn from_count(n: usize) -> Self {
        if n == 0 {
            Threads::Auto
        } else {
            Threads::Fixed(n)
        }
    }
}

/// One contiguous slice of a campaign's index space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Chunk {
    /// Position of this chunk in the plan (0-based). Campaigns use this as
    /// the RNG substream index.
    pub index: u64,
    /// First global sample index covered by the chunk.
    pub start: u64,
    /// Number of samples in the chunk (the final chunk may be short).
    pub len: u64,
}

impl Chunk {
    /// One past the last global sample index covered by the chunk.
    pub fn end(&self) -> u64 {
        self.start + self.len
    }
}

/// A deterministic decomposition of `total` samples into fixed-size
/// chunks.
///
/// The geometry is a pure function of `(total, chunk_size)`: chunk `i`
/// covers `[i * chunk_size, min((i+1) * chunk_size, total))`. Worker
/// counts, scheduling and hardware never change it — which is what lets
/// the parallel reduce reproduce the serial one bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChunkPlan {
    total: u64,
    chunk_size: u64,
}

impl ChunkPlan {
    /// Plans `total` samples in chunks of `chunk_size`.
    ///
    /// A zero `chunk_size` is clamped to 1 (the plan is total); a zero
    /// `total` yields an empty plan with no chunks.
    pub fn new(total: u64, chunk_size: u64) -> Self {
        ChunkPlan {
            total,
            chunk_size: chunk_size.max(1),
        }
    }

    /// Total samples covered by the plan.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The fixed chunk size (the final chunk may be shorter).
    pub fn chunk_size(&self) -> u64 {
        self.chunk_size
    }

    /// Number of chunks in the plan.
    pub fn num_chunks(&self) -> u64 {
        self.total.div_ceil(self.chunk_size)
    }

    /// The `index`-th chunk.
    ///
    /// # Panics
    ///
    /// Panics if `index >= num_chunks()`.
    pub fn chunk(&self, index: u64) -> Chunk {
        assert!(
            index < self.num_chunks(),
            "chunk {index} out of range for plan of {} chunks",
            self.num_chunks()
        );
        let start = index * self.chunk_size;
        Chunk {
            index,
            start,
            len: self.chunk_size.min(self.total - start),
        }
    }

    /// All chunks, in order.
    pub fn chunks(&self) -> impl Iterator<Item = Chunk> + '_ {
        (0..self.num_chunks()).map(|i| self.chunk(i))
    }
}

/// Executes `f` over every chunk of `plan` and returns the results **in
/// chunk order**, using up to `threads` scoped worker threads.
///
/// Workers claim chunks from a shared atomic counter, so load balances
/// dynamically; because each result is tagged with its chunk index and the
/// output is reassembled positionally, the caller observes the exact
/// sequence a serial loop would produce. With one worker (or a single
/// chunk) the pool is bypassed entirely and `f` runs inline on the calling
/// thread.
///
/// # Panics
///
/// If `f` panics on any chunk, the panic is resumed on the calling thread
/// after the pool unwinds (other in-flight chunks run to completion).
pub fn map_chunks<T, F>(plan: ChunkPlan, threads: Threads, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Chunk) -> T + Sync,
{
    let num_chunks = plan.num_chunks();
    let workers = threads.resolve().min(num_chunks.max(1) as usize);
    if workers <= 1 {
        return plan.chunks().map(f).collect();
    }

    let next = AtomicU64::new(0);
    let worker = |_id: usize| -> Result<Vec<(u64, T)>, Box<dyn std::any::Any + Send>> {
        let mut produced = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= num_chunks {
                return Ok(produced);
            }
            let chunk = plan.chunk(i);
            match catch_unwind(AssertUnwindSafe(|| f(chunk))) {
                Ok(value) => produced.push((i, value)),
                Err(payload) => return Err(payload),
            }
        }
    };

    let mut tagged: Vec<(u64, T)> = Vec::with_capacity(num_chunks as usize);
    let mut panic_payload = None;
    thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|id| scope.spawn(move || worker(id)))
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(Ok(part)) => tagged.extend(part),
                Ok(Err(payload)) | Err(payload) => panic_payload = Some(payload),
            }
        }
    });
    if let Some(payload) = panic_payload {
        resume_unwind(payload);
    }

    // Reassemble in chunk order: scheduling decided who computed what,
    // never the order the caller sees.
    tagged.sort_unstable_by_key(|&(i, _)| i);
    debug_assert_eq!(tagged.len(), num_chunks as usize);
    tagged.into_iter().map(|(_, v)| v).collect()
}

/// The outcome of one supervised chunk execution.
#[derive(Debug)]
pub enum ChunkRun<T> {
    /// The chunk ran to completion and produced its payload.
    Completed(T),
    /// The chunk panicked; the payload is the panic message
    /// (best-effort: non-string panic payloads get a placeholder).
    Panicked(String),
}

impl<T> ChunkRun<T> {
    /// The payload of a completed chunk, if any.
    pub fn completed(&self) -> Option<&T> {
        match self {
            ChunkRun::Completed(v) => Some(v),
            ChunkRun::Panicked(_) => None,
        }
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The fault-isolating sibling of [`map_chunks`]: executes an explicit
/// subset of a plan's chunks, catches per-chunk panics instead of
/// aborting the campaign, reports each chunk the moment it finishes,
/// stops claiming new chunks once `should_stop` turns true, and brackets
/// every chunk execution with `chunk_start` / `chunk_end` events on
/// `collector`, timed with a monotonic clock on the worker thread that
/// ran it.
///
/// This is the execution primitive the `realm-harness` supervisor builds
/// checkpoint/resume, retry/quarantine and deadline handling on:
///
/// * `indices` — which chunks of `plan` to run (a resumed campaign
///   passes only the chunks its journal is missing). Indices must be
///   in-range for the plan.
/// * `attempt` — labels the spans (0 = first try, ≥ 1 = a retry pass);
///   the caller drives retries by re-invoking with the still-failing
///   indices and a bumped attempt number, as `realm-harness` does.
/// * `collector` — when `collector.enabled()` is false (pass
///   [`realm_obs::NullCollector`] for an untraced run), no event is
///   built and no clock is read, so tracing costs the hot path nothing
///   unless someone is listening.
/// * `should_stop` — polled before every chunk claim; once true, no new
///   chunk starts (in-flight chunks finish and are reported normally).
/// * `f` — the chunk body. A panic is caught and surfaced as
///   [`ChunkRun::Panicked`] for that chunk only; other chunks are
///   unaffected.
/// * `on_complete` — invoked from worker threads as each chunk
///   finishes, in completion order (the caller serializes internally if
///   needed, e.g. behind a journal mutex). Must not panic.
///
/// Returns the attempted chunks as `(index, outcome)` **sorted by chunk
/// index**; chunks skipped because `should_stop` tripped are absent.
/// Like [`map_chunks`], scheduling never affects payload values — only
/// which chunks got a chance to run before the stop. Observability is
/// passive too: the collector sees timings but never influences chunk
/// payloads, ordering or scheduling, so a traced run is bit-identical to
/// an untraced one.
#[allow(clippy::too_many_arguments)] // the supervision surface is one call deep
pub fn run_chunks_traced<T, F, C, S>(
    plan: ChunkPlan,
    threads: Threads,
    indices: &[u64],
    attempt: u32,
    collector: &dyn Collector,
    should_stop: &S,
    f: &F,
    on_complete: &C,
) -> Vec<(u64, ChunkRun<T>)>
where
    T: Send,
    F: Fn(Chunk) -> T + Sync,
    C: Fn(u64, &ChunkRun<T>) + Sync,
    S: Fn() -> bool + Sync,
{
    let traced = collector.enabled();
    let run_one = |chunk_index: u64| -> ChunkRun<T> {
        let chunk = plan.chunk(chunk_index);
        let started = if traced {
            collector.record(&Event::ChunkStart {
                chunk: chunk.index,
                attempt,
                samples: chunk.len,
            });
            Some(Instant::now())
        } else {
            None
        };
        let run = match catch_unwind(AssertUnwindSafe(|| f(chunk))) {
            Ok(value) => ChunkRun::Completed(value),
            Err(payload) => ChunkRun::Panicked(panic_message(payload.as_ref())),
        };
        if let Some(t0) = started {
            collector.record(&Event::ChunkEnd {
                chunk: chunk.index,
                attempt,
                samples: chunk.len,
                ok: matches!(run, ChunkRun::Completed(_)),
                wall_ns: t0.elapsed().as_nanos() as u64,
            });
        }
        on_complete(chunk_index, &run);
        run
    };

    let workers = threads.resolve().min(indices.len().max(1));
    let mut tagged: Vec<(u64, ChunkRun<T>)> = Vec::with_capacity(indices.len());
    if workers <= 1 {
        for &chunk_index in indices {
            if should_stop() {
                break;
            }
            tagged.push((chunk_index, run_one(chunk_index)));
        }
    } else {
        let next = AtomicU64::new(0);
        let worker = || {
            let mut produced = Vec::new();
            loop {
                if should_stop() {
                    return produced;
                }
                let slot = next.fetch_add(1, Ordering::Relaxed) as usize;
                let Some(&chunk_index) = indices.get(slot) else {
                    return produced;
                };
                produced.push((chunk_index, run_one(chunk_index)));
            }
        };
        thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
            for handle in handles {
                // A worker can only die if `on_complete` panicked,
                // which the contract forbids; degrade by dropping
                // that worker's chunks (they will re-run on resume).
                if let Ok(part) = handle.join() {
                    tagged.extend(part);
                }
            }
        });
    }
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged
}

#[cfg(test)]
mod tests {
    use super::*;
    use realm_obs::NullCollector;

    #[test]
    fn threads_resolve_is_at_least_one() {
        assert!(Threads::Auto.resolve() >= 1);
        assert_eq!(Threads::Fixed(7).resolve(), 7);
    }

    #[test]
    fn fixed_zero_means_auto_everywhere() {
        // The unified CLI semantics: 0 = auto under every spelling.
        assert_eq!(Threads::Fixed(0).resolve(), Threads::Auto.resolve());
        assert_eq!(Threads::from_count(0).resolve(), Threads::Auto.resolve());
    }

    #[test]
    fn threads_from_count_maps_zero_to_auto() {
        assert_eq!(Threads::from_count(0), Threads::Auto);
        assert_eq!(Threads::from_count(3), Threads::Fixed(3));
    }

    #[test]
    fn plan_covers_every_sample_exactly_once() {
        for (total, size) in [(0u64, 8u64), (1, 8), (8, 8), (9, 8), (100, 7), (100, 1000)] {
            let plan = ChunkPlan::new(total, size);
            let mut expected_start = 0;
            for chunk in plan.chunks() {
                assert_eq!(chunk.start, expected_start);
                assert!(chunk.len >= 1 && chunk.len <= size);
                expected_start = chunk.end();
            }
            assert_eq!(expected_start, total, "total={total} size={size}");
        }
    }

    #[test]
    fn empty_plan_has_no_chunks() {
        let plan = ChunkPlan::new(0, 64);
        assert_eq!(plan.num_chunks(), 0);
        assert_eq!(
            map_chunks(plan, Threads::Fixed(4), |c| c.len),
            Vec::<u64>::new()
        );
    }

    #[test]
    fn zero_chunk_size_is_clamped() {
        let plan = ChunkPlan::new(10, 0);
        assert_eq!(plan.chunk_size(), 1);
        assert_eq!(plan.num_chunks(), 10);
    }

    #[test]
    fn final_chunk_is_short() {
        let plan = ChunkPlan::new(10, 4);
        let chunks: Vec<Chunk> = plan.chunks().collect();
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[2].len, 2);
        assert_eq!(chunks[2].start, 8);
        assert_eq!(chunks[2].index, 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn chunk_index_out_of_range_panics() {
        let _ = ChunkPlan::new(10, 4).chunk(3);
    }

    #[test]
    fn results_are_in_chunk_order_for_any_thread_count() {
        let plan = ChunkPlan::new(1_000, 13);
        let reference: Vec<u64> = plan.chunks().map(|c| c.start * 31 + c.len).collect();
        for workers in [1usize, 2, 3, 8, 64] {
            let got = map_chunks(plan, Threads::Fixed(workers), |c| c.start * 31 + c.len);
            assert_eq!(got, reference, "workers={workers}");
        }
    }

    #[test]
    fn uneven_work_is_load_balanced_without_reordering() {
        // Chunks with wildly different costs must still come back ordered.
        let plan = ChunkPlan::new(64, 1);
        let got = map_chunks(plan, Threads::Fixed(8), |c| {
            if c.index % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            c.index
        });
        assert_eq!(got, (0..64).collect::<Vec<u64>>());
    }

    #[test]
    fn more_workers_than_chunks_is_fine() {
        let plan = ChunkPlan::new(3, 1);
        let got = map_chunks(plan, Threads::Fixed(32), |c| c.index * 2);
        assert_eq!(got, vec![0, 2, 4]);
    }

    #[test]
    fn worker_panic_propagates() {
        let plan = ChunkPlan::new(16, 1);
        let result = std::panic::catch_unwind(|| {
            map_chunks(plan, Threads::Fixed(4), |c| {
                assert!(c.index != 5, "boom on chunk 5");
                c.index
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn auto_threads_match_fixed_results() {
        let plan = ChunkPlan::new(500, 9);
        let auto = map_chunks(plan, Threads::Auto, |c| c.start + c.len);
        let one = map_chunks(plan, Threads::Fixed(1), |c| c.start + c.len);
        assert_eq!(auto, one);
    }

    #[test]
    fn supervised_runs_exactly_the_requested_indices() {
        let plan = ChunkPlan::new(100, 10);
        let indices = [1u64, 4, 7];
        for workers in [1usize, 4] {
            let runs = run_chunks_traced(
                plan,
                Threads::Fixed(workers),
                &indices,
                0,
                &NullCollector,
                &|| false,
                &|c| c.start,
                &|_, _| {},
            );
            let got: Vec<u64> = runs.iter().map(|(i, _)| *i).collect();
            assert_eq!(got, indices, "workers={workers}");
            for (i, run) in &runs {
                assert_eq!(run.completed(), Some(&(i * 10)));
            }
        }
    }

    #[test]
    fn supervised_isolates_panicking_chunks() {
        let plan = ChunkPlan::new(16, 1);
        for workers in [1usize, 4] {
            let runs = run_chunks_traced(
                plan,
                Threads::Fixed(workers),
                &(0..16).collect::<Vec<u64>>(),
                0,
                &NullCollector,
                &|| false,
                &|c| {
                    assert!(c.index != 5, "boom on chunk 5");
                    c.index * 2
                },
                &|_, _| {},
            );
            assert_eq!(runs.len(), 16, "workers={workers}");
            for (i, run) in &runs {
                if *i == 5 {
                    match run {
                        ChunkRun::Panicked(msg) => assert!(msg.contains("boom"), "{msg}"),
                        ChunkRun::Completed(_) => panic!("chunk 5 must be Panicked"),
                    }
                } else {
                    assert_eq!(run.completed(), Some(&(i * 2)), "chunk {i}");
                }
            }
        }
    }

    #[test]
    fn supervised_honors_should_stop_immediately() {
        let plan = ChunkPlan::new(64, 1);
        let runs = run_chunks_traced(
            plan,
            Threads::Fixed(4),
            &(0..64).collect::<Vec<u64>>(),
            0,
            &NullCollector,
            &|| true,
            &|c| c.index,
            &|_, _| {},
        );
        assert!(runs.is_empty(), "pre-tripped stop must claim no chunks");
    }

    #[test]
    fn traced_runs_emit_one_timed_span_per_chunk() {
        use realm_obs::MemoryCollector;
        let plan = ChunkPlan::new(100, 10);
        let collector = MemoryCollector::new();
        let runs = run_chunks_traced(
            plan,
            Threads::Fixed(4),
            &(0..10).collect::<Vec<u64>>(),
            3,
            &collector,
            &|| false,
            &|c| {
                assert!(c.index != 6, "boom");
                c.len
            },
            &|_, _| {},
        );
        assert_eq!(runs.len(), 10);
        let events = collector.events();
        let starts = events
            .iter()
            .filter(|e| matches!(e, Event::ChunkStart { attempt: 3, .. }))
            .count();
        assert_eq!(starts, 10, "one start per chunk");
        let mut ok = 0;
        let mut failed = 0;
        for e in &events {
            if let Event::ChunkEnd {
                chunk,
                attempt,
                samples,
                ok: completed,
                ..
            } = e
            {
                assert_eq!(*attempt, 3);
                assert_eq!(*samples, 10);
                if *completed {
                    ok += 1;
                } else {
                    assert_eq!(*chunk, 6);
                    failed += 1;
                }
            }
        }
        assert_eq!((ok, failed), (9, 1));
    }

    #[test]
    fn traced_and_supervised_results_are_identical() {
        use realm_obs::MemoryCollector;
        let plan = ChunkPlan::new(64, 8);
        let indices: Vec<u64> = (0..plan.num_chunks()).collect();
        let body = |c: Chunk| c.start * 31 + c.len;
        let collector = MemoryCollector::new();
        let traced = run_chunks_traced(
            plan,
            Threads::Fixed(3),
            &indices,
            0,
            &collector,
            &|| false,
            &body,
            &|_, _| {},
        );
        let plain = run_chunks_traced(
            plan,
            Threads::Fixed(3),
            &indices,
            0,
            &NullCollector,
            &|| false,
            &body,
            &|_, _| {},
        );
        let values = |runs: &[(u64, ChunkRun<u64>)]| -> Vec<(u64, u64)> {
            runs.iter()
                .map(|(i, r)| (*i, *r.completed().unwrap()))
                .collect()
        };
        assert_eq!(values(&traced), values(&plain));
    }

    #[test]
    fn supervised_reports_every_completion_exactly_once() {
        use std::sync::Mutex;
        let plan = ChunkPlan::new(40, 4);
        let seen = Mutex::new(Vec::new());
        let runs = run_chunks_traced(
            plan,
            Threads::Fixed(3),
            &(0..10).collect::<Vec<u64>>(),
            0,
            &NullCollector,
            &|| false,
            &|c| c.len,
            &|i, _| seen.lock().unwrap().push(i),
        );
        assert_eq!(runs.len(), 10);
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<u64>>());
    }
}
