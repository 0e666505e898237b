//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer, timed from the benchmark's side of
//! the boundary: name, start, end, the span that was open on the same
//! thread when it began (its parent) and a group id shared by every
//! span of one op block, window or event. Spans stay in memory while
//! the workload runs and are written out once it ends. Nothing here is
//! reached unless tracing is switched on, so untraced runs pay one
//! relaxed atomic load per would-be span.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// Id of the span open on this thread when this one began; 0 for a
    /// root.
    pub parent: u64,
    /// Shared by the spans of one op block, window or event.
    pub group: u64,
    /// Boundary name; its prefix names the layer (see [`layer`]).
    pub name: &'static str,
    /// Recording thread (small dense index).
    pub thread: u64,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64
    }
}

struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<Vec<(&'static str, u64)>>,
    next_id: AtomicU64,
    next_thread: AtomicU64,
}

static ON: AtomicBool = AtomicBool::new(false);
static TRACER: OnceLock<Tracer> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = tracer().next_thread.fetch_add(1, Ordering::Relaxed);
}

fn tracer() -> &'static Tracer {
    TRACER.get_or_init(|| Tracer {
        epoch: Instant::now(),
        spans: Mutex::new(Vec::new()),
        counts: Mutex::new(Vec::new()),
        next_id: AtomicU64::new(1),
        next_thread: AtomicU64::new(0),
    })
}

/// Switches span recording on or off.
pub fn set_enabled(on: bool) {
    tracer();
    ON.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// An open span; recorded when dropped.
#[must_use = "a span ends when its guard is dropped"]
pub struct Guard {
    id: u64,
    parent: u64,
    group: u64,
    name: &'static str,
    start: Instant,
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end = Instant::now();
        let t = tracer();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if s.last() == Some(&self.id) {
                s.pop();
            }
        });
        let span = Span {
            id: self.id,
            parent: self.parent,
            group: self.group,
            name: self.name,
            thread: THREAD.with(|t| *t),
            start_ns: self.start.saturating_duration_since(t.epoch).as_nanos() as u64,
            end_ns: end.saturating_duration_since(t.epoch).as_nanos() as u64,
        };
        t.spans.lock().unwrap_or_else(|e| e.into_inner()).push(span);
    }
}

/// Opens a span named `name` in `group` when tracing is on.
pub fn span(name: &'static str, group: u64) -> Option<Guard> {
    if !enabled() {
        return None;
    }
    let t = tracer();
    let id = t.next_id.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    Some(Guard { id, parent, group, name, start: Instant::now() })
}

/// Records one sample of the count `name`, when tracing is on.
pub fn count(name: &'static str, value: u64) {
    if enabled() {
        tracer().counts.lock().unwrap_or_else(|e| e.into_inner()).push((name, value));
    }
}

/// Every sample of the count `name` recorded so far.
pub fn counts(name: &str) -> Vec<f64> {
    let counts = tracer().counts.lock().unwrap_or_else(|e| e.into_inner());
    counts.iter().filter(|(n, _)| *n == name).map(|&(_, v)| v as f64).collect()
}

/// Takes every span recorded so far.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *tracer().spans.lock().unwrap_or_else(|e| e.into_inner()))
}

/// The layer a span name belongs to: `core.detect` for
/// `core.detect.*`, otherwise the first dotted component (`rt`, `net`,
/// `storage`, `bench`).
pub fn layer(name: &str) -> &str {
    if name.starts_with("core.detect") {
        return "core.detect";
    }
    name.split('.').next().unwrap_or(name)
}

/// Self time of every span: its duration minus the durations of its
/// children (children nest inside their parent on the same thread).
pub fn self_times(spans: &[Span]) -> HashMap<u64, f64> {
    let mut child: HashMap<u64, f64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child.entry(s.parent).or_insert(0.0) += s.dur_ns();
    }
    spans
        .iter()
        .map(|s| (s.id, (s.dur_ns() - child.get(&s.id).copied().unwrap_or(0.0)).max(0.0)))
        .collect()
}

/// Durations (ns) of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(Span::dur_ns).collect()
}

/// Self times (ns) of every span called `name`.
pub fn self_durations(spans: &[Span], name: &str) -> Vec<f64> {
    let selfs = self_times(spans);
    spans.iter().filter(|s| s.name == name).map(|s| selfs[&s.id]).collect()
}

/// Self time per layer (ns) over the spans nested under the root
/// spans called `root` — the end-to-end episodes or phases the
/// reconciliation accounts for.
pub fn layer_self_ns(spans: &[Span], root: &str) -> BTreeMap<String, f64> {
    let selfs = self_times(spans);
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut out = BTreeMap::new();
    for s in spans {
        let mut top = s;
        while let Some(p) = by_id.get(&top.parent) {
            top = p;
        }
        if top.name == root {
            *out.entry(layer(s.name).to_string()).or_insert(0.0) += selfs[&s.id];
        }
    }
    out
}

/// Writes spans as tab-separated lines:
/// `id parent group thread name start_ns end_ns`.
pub fn write(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\tgroup\tthread\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.group, s.thread, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span { id, parent, group: 1, name, thread: 0, start_ns: start, end_ns: end }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span(1, 0, "bench.episode", 0, 100),
            span(2, 1, "core.detect.service.drain", 10, 30),
            span(3, 1, "net.remote.block", 40, 90),
            span(4, 3, "net.remote.observe", 50, 60),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 30.0);
        assert_eq!(selfs[&3], 40.0);
        let layers = layer_self_ns(&spans, "bench.episode");
        assert_eq!(layers["bench"], 30.0);
        assert_eq!(layers["core.detect"], 20.0);
        assert_eq!(layers["net"], 50.0);
        assert_eq!(layers.values().sum::<f64>(), 100.0);
    }
}
