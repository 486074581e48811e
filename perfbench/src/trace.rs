//! In-memory span recorder for the traced run.
//!
//! A span wraps one call into a layer's `pub` API: its name, start and
//! end on a process-wide monotonic clock, the span that caused it and
//! the item it belongs to. Spans are pushed into memory while the run
//! goes and written out once at the end. With tracing off, [`Tracer::span`]
//! reads no clock and stores nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. `parent == 0` marks a root span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub item: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work units the span covers (samples, blocks, events, patches, MACs).
    pub units: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`. `f` receives the new span's
    /// id (0 when tracing is off) so that it can parent child spans.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u32,
        item: u64,
        units: u64,
        f: impl FnOnce(u32) -> T,
    ) -> T {
        if !self.enabled {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f(id);
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans
            .lock()
            .expect("span store poisoned by a panicking worker")
            .push(Span {
                id,
                parent,
                name,
                item,
                start_ns,
                end_ns,
                units,
            });
        out
    }

    /// Moves the recorded spans out, ordered by start time.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("span store poisoned by a panicking worker"),
        );
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (children running in parallel on several
/// threads are merged into one covered interval set first).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.duration_ns();
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(cursor), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per-name aggregate of a span set.
#[derive(Debug, Default, Clone)]
pub struct NameStats {
    pub spans: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub units: u64,
    /// Self time of each span, in recording order.
    pub self_each: Vec<u64>,
}

impl NameStats {
    /// Pooled self time per work unit.
    pub fn ns_per_unit(&self) -> f64 {
        self.self_ns as f64 / self.units.max(1) as f64
    }
}

pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, NameStats> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(selfs) {
        let entry = out.entry(span.name).or_default();
        entry.spans += 1;
        entry.total_ns += span.duration_ns();
        entry.self_ns += self_ns;
        entry.units += span.units;
        entry.self_each.push(self_ns);
    }
    out
}

/// Writes one JSON object per span (`id`, `parent`, `name`, `item`,
/// `start_ns`, `end_ns`, `self_ns`, `units`).
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (s, self_ns) in spans.iter().zip(selfs) {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"item\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"units\":{}}}",
            s.id, s.parent, s.name, s.item, s.start_ns, s.end_ns, self_ns, s.units
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            item: 0,
            start_ns,
            end_ns,
            units: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 30, 60),  // overlaps child 2 (another thread)
            span(4, 1, 90, 120), // runs past the parent's end
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 30, 30, 30]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", 0, 0, 0, |id| id), 0);
        assert!(t.take().is_empty());
    }
}
