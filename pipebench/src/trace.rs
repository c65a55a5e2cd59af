//! In-memory span tracing around the benchmark's calls into each layer.
//!
//! A span is opened by the benchmark right before it calls a public API
//! of one workspace crate and closed when the call returns; nothing is
//! instrumented inside the crates. Span names are `layer.call`
//! (`core.push`, `store.lane_create`, ...), so a span's layer is the part
//! before the first dot. Spans are kept in memory and written out once
//! the run ends; a disabled tracer records nothing and costs one branch
//! per call.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Iteration of the run the span belongs to.
    pub run_id: u32,
    /// Span id, unique within its run (ids start at 1).
    pub id: u32,
    /// Id of the enclosing span on the same thread, 0 for a root span.
    pub parent: u32,
    /// `layer.call`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Whether the span ran on the feeding thread (the thread whose wall
    /// clock the iteration is timed on). Spans of writer, worker and
    /// follower threads overlap it in time.
    pub feeding_thread: bool,
}

impl SpanRecord {
    /// The span's wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
struct Shared {
    run_id: u32,
    epoch: Instant,
    feeding: ThreadId,
    next_id: AtomicU32,
    spans: Mutex<Vec<SpanRecord>>,
}

thread_local! {
    /// Ids of the spans currently open on this thread, innermost last.
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Records spans for one iteration; cheap to clone and share with the
/// threads the benchmark hands work to.
#[derive(Debug, Clone, Default)]
pub struct Tracer(Option<Arc<Shared>>);

impl Tracer {
    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Tracer(None)
    }

    /// A recording tracer for iteration `run_id`; the calling thread is
    /// the feeding thread.
    pub fn enabled(run_id: u32) -> Self {
        Tracer(Some(Arc::new(Shared {
            run_id,
            epoch: Instant::now(),
            feeding: std::thread::current().id(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        })))
    }

    /// Opens a span; it closes when the returned guard drops.
    pub fn span(&self, name: &'static str) -> Span<'_> {
        let Some(shared) = self.0.as_deref() else {
            return Span(None);
        };
        let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied().unwrap_or(0);
            open.push(id);
            parent
        });
        Span(Some(OpenSpan {
            shared,
            id,
            parent,
            name,
            start: Instant::now(),
        }))
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _span = self.span(name);
        f()
    }

    /// Every span closed so far, ordered by start time.
    pub fn spans(&self) -> Vec<SpanRecord> {
        let Some(shared) = self.0.as_deref() else {
            return Vec::new();
        };
        let mut spans = shared.spans.lock().expect("span buffer poisoned").clone();
        spans.sort_by_key(|span| (span.start_ns, span.id));
        spans
    }
}

#[derive(Debug)]
struct OpenSpan<'a> {
    shared: &'a Shared,
    id: u32,
    parent: u32,
    name: &'static str,
    start: Instant,
}

/// Guard of an open span.
#[derive(Debug)]
#[must_use = "a span closes when its guard drops"]
pub struct Span<'a>(Option<OpenSpan<'a>>);

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let Some(open) = self.0.take() else {
            return;
        };
        let end = Instant::now();
        OPEN.with(|stack| {
            let popped = stack.borrow_mut().pop();
            debug_assert_eq!(popped, Some(open.id), "spans must close innermost first");
        });
        let shared = open.shared;
        let record = SpanRecord {
            run_id: shared.run_id,
            id: open.id,
            parent: open.parent,
            name: open.name,
            start_ns: (open.start - shared.epoch).as_nanos() as u64,
            end_ns: (end - shared.epoch).as_nanos() as u64,
            feeding_thread: std::thread::current().id() == shared.feeding,
        };
        shared
            .spans
            .lock()
            .expect("span buffer poisoned")
            .push(record);
    }
}

/// Call count, total time and self time of every span name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Attribution {
    /// Per span name: (calls, total ns, self ns).
    pub by_name: BTreeMap<&'static str, (u64, u64, u64)>,
    /// Self time of every feeding-thread span, summed.
    pub feeding_self_ns: u64,
}

impl Attribution {
    /// Total time of the spans named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .map_or(0.0, |&(_, total, _)| total as f64 / 1e9)
    }

    /// Number of spans named `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |&(calls, _, _)| calls)
    }

    /// Self time of every span of `layer`, in seconds.
    pub fn layer_self_s(&self, layer: &str) -> f64 {
        self.by_name
            .iter()
            .filter(|(name, _)| name.split('.').next() == Some(layer))
            .fold(0.0, |sum, (_, &(_, _, own))| sum + own as f64 / 1e9)
    }
}

/// Attributes time to span names. A span's self time is its duration
/// minus the durations of its direct children (children are opened and
/// closed on the parent's thread, inside it, so they never overlap each
/// other).
pub fn attribute(spans: &[SpanRecord]) -> Attribution {
    let mut children: HashMap<(u32, u32), u64> = HashMap::new();
    for span in spans.iter().filter(|span| span.parent != 0) {
        *children.entry((span.run_id, span.parent)).or_default() += span.duration_ns();
    }
    let mut attribution = Attribution::default();
    for span in spans {
        let nested = children.get(&(span.run_id, span.id)).copied().unwrap_or(0);
        let own = span.duration_ns().saturating_sub(nested);
        let entry = attribution.by_name.entry(span.name).or_default();
        entry.0 += 1;
        entry.1 += span.duration_ns();
        entry.2 += own;
        if span.feeding_thread {
            attribution.feeding_self_ns += own;
        }
    }
    attribution
}

/// Writes spans as tab-separated lines
/// (`run_id id parent thread name start_ns end_ns`).
pub fn write_tsv(path: &Path, spans: &[SpanRecord]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "run_id\tid\tparent\tthread\tname\tstart_ns\tend_ns")?;
    for span in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            span.run_id,
            span.id,
            span.parent,
            if span.feeding_thread { "feed" } else { "other" },
            span.name,
            span.start_ns,
            span.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            run_id: 0,
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
            feeding_thread: true,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span(1, 0, "repro.triage", 0, 100),
            span(2, 1, "repro.extract", 10, 40),
            span(3, 2, "store.index_load", 15, 25),
            span(4, 1, "repro.minimize", 50, 90),
        ];
        let attribution = attribute(&spans);
        assert_eq!(attribution.by_name["repro.triage"], (1, 100, 30));
        assert_eq!(attribution.by_name["repro.extract"], (1, 30, 20));
        assert_eq!(attribution.by_name["store.index_load"], (1, 10, 10));
        assert_eq!(
            attribution.feeding_self_ns, 100,
            "self times add up to the root"
        );
        assert!((attribution.layer_self_s("repro") - 90e-9).abs() < 1e-15);
    }

    #[test]
    fn nested_guards_record_parents_and_threads() {
        let tracer = Tracer::enabled(3);
        {
            let _outer = tracer.span("core.finish");
            let _inner = tracer.span("store.close");
        }
        let worker = tracer.clone();
        std::thread::spawn(move || drop(worker.span("store.lane_create")))
            .join()
            .unwrap();
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        let outer = spans.iter().find(|s| s.name == "core.finish").unwrap();
        let inner = spans.iter().find(|s| s.name == "store.close").unwrap();
        let other = spans
            .iter()
            .find(|s| s.name == "store.lane_create")
            .unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert_eq!(other.parent, 0, "parents never cross threads");
        assert!(outer.feeding_thread && !other.feeding_thread);
        assert!(spans
            .iter()
            .all(|s| s.run_id == 3 && s.end_ns >= s.start_ns));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        drop(tracer.span("core.push"));
        assert!(tracer.spans().is_empty());
    }
}
