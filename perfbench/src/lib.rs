//! The rmon benchmark: three seeded workloads that drive the program
//! only through its public APIs, check every output against a
//! reference, and report end-to-end metrics (untraced runs) or
//! per-layer metrics (traced runs). See `README.md` next to this
//! crate for the workloads, metric definitions and the layer map.

pub mod fleet;
pub mod inputs;
pub mod probes;
pub mod stats;
pub mod table1;
pub mod trace;

use std::time::Duration;

/// Workload names, as passed to `--workload`.
pub const WORKLOADS: [&str; 3] = ["table1", "fleet-sharded", "fleet-remote"];

/// End-to-end metrics every untraced run reports, with their units.
/// The same names carry a per-workload meaning where the unit of work
/// differs (an operation for `table1`, an event for the fleets); see
/// the README.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("unit_cost_ns_p50", "ns"),
    ("overhead_ratio", "ratio"),
    ("recording_only_ratio", "ratio"),
    ("checkpoint_pause_us_p50", "us"),
    ("checkpoint_pause_us_p90", "us"),
    ("verdict_latency_us_p50", "us"),
    ("verdict_latency_us_p90", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every traced run reports. Those not in the
/// workload's [`layer_metrics`] read 0: the workload never calls that
/// boundary.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("rt.plain.op_ns_p50", "ns"),
    ("rt.recording.op_ns_p50", "ns"),
    ("rt.monitor.send_ns_p50", "ns"),
    ("rt.monitor.receive_ns_p50", "ns"),
    ("rt.checkpoint.us_p50", "us"),
    ("rt.checkpoint.self_us_p50", "us"),
    ("rt.checkpoint.page_faults_p50", "count"),
    ("rt.events_per_op", "count"),
    ("core.detect.backend.checkpoint_window_us_p50", "us"),
    ("core.detect.backend.observe_calls_per_op", "count"),
    ("core.detect.backend.mode_queries_per_event", "count"),
    ("core.detect.backend.window_events_p50", "count"),
    ("core.detect.engine.observe_ns_p50", "ns"),
    ("core.detect.engine.checkpoint_ns_per_event", "ns"),
    ("core.detect.backend.observe_ns_p50", "ns"),
    ("core.detect.backend.observe_ns_p99", "ns"),
    ("core.detect.backend.flush_us_p50", "us"),
    ("core.detect.service.checkpoint_window_us_p50", "us"),
    ("core.detect.service.events_per_batch", "count"),
    ("core.detect.service.shard_skew", "ratio"),
    ("core.detect.service.drain_ns_p50", "ns"),
    ("core.detect.violations", "count"),
    ("net.remote.observe_ns_p50", "ns"),
    ("net.remote.observe_ns_p99", "ns"),
    ("net.transport.send_ns_p50", "ns"),
    ("net.transport.bytes_per_event", "count"),
    ("net.transport.frames_per_event", "count"),
    ("net.service.backend_observe_ns_p50", "ns"),
    ("net.service.ingest_lag_us", "us"),
    ("net.service.checkpoint_fleet_us_p50", "us"),
    ("storage.sink.append_us_p50", "us"),
    ("storage.sink.bytes_per_event", "count"),
    ("storage.oplog.rotations", "count"),
    ("reconcile.wall_ms", "ms"),
    ("reconcile.layer_self_ms", "ms"),
    ("reconcile.bench_self_ms", "ms"),
    ("reconcile.rt_self_ms", "ms"),
    ("reconcile.core_detect_self_ms", "ms"),
    ("reconcile.net_self_ms", "ms"),
    ("reconcile.storage_self_ms", "ms"),
    ("trace.untraced_ns_per_unit", "ns"),
    ("trace.traced_ns_per_unit", "ns"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
];

/// The per-layer metrics whose boundaries `workload` crosses. A traced
/// run must measure each of them: one that is missing or has no
/// samples (a NaN value) fails the run.
pub fn layer_metrics(workload: &str) -> &'static [&'static str] {
    match workload {
        "table1" => &[
            "rt.plain.op_ns_p50",
            "rt.recording.op_ns_p50",
            "rt.monitor.send_ns_p50",
            "rt.monitor.receive_ns_p50",
            "rt.checkpoint.us_p50",
            "rt.checkpoint.self_us_p50",
            "rt.checkpoint.page_faults_p50",
            "rt.events_per_op",
            "core.detect.backend.checkpoint_window_us_p50",
            "core.detect.backend.observe_calls_per_op",
            "core.detect.backend.mode_queries_per_event",
            "core.detect.backend.window_events_p50",
            "core.detect.violations",
            "reconcile.wall_ms",
            "reconcile.layer_self_ms",
            "reconcile.bench_self_ms",
            "reconcile.rt_self_ms",
            "trace.untraced_ns_per_unit",
            "trace.traced_ns_per_unit",
            "trace.overhead_ratio",
            "trace.spans",
        ],
        "fleet-sharded" => &[
            "core.detect.engine.observe_ns_p50",
            "core.detect.engine.checkpoint_ns_per_event",
            "core.detect.backend.observe_ns_p50",
            "core.detect.backend.observe_ns_p99",
            "core.detect.backend.flush_us_p50",
            "core.detect.service.checkpoint_window_us_p50",
            "core.detect.service.events_per_batch",
            "core.detect.service.shard_skew",
            "core.detect.service.drain_ns_p50",
            "core.detect.violations",
            "reconcile.wall_ms",
            "reconcile.layer_self_ms",
            "reconcile.bench_self_ms",
            "reconcile.core_detect_self_ms",
            "trace.untraced_ns_per_unit",
            "trace.traced_ns_per_unit",
            "trace.overhead_ratio",
            "trace.spans",
        ],
        "fleet-remote" => &[
            "core.detect.engine.observe_ns_p50",
            "core.detect.engine.checkpoint_ns_per_event",
            "core.detect.violations",
            "net.remote.observe_ns_p50",
            "net.remote.observe_ns_p99",
            "net.transport.send_ns_p50",
            "net.transport.bytes_per_event",
            "net.transport.frames_per_event",
            "net.service.backend_observe_ns_p50",
            "net.service.ingest_lag_us",
            "net.service.checkpoint_fleet_us_p50",
            "storage.sink.append_us_p50",
            "storage.sink.bytes_per_event",
            "storage.oplog.rotations",
            "reconcile.wall_ms",
            "reconcile.layer_self_ms",
            "reconcile.bench_self_ms",
            "reconcile.core_detect_self_ms",
            "reconcile.net_self_ms",
            "reconcile.storage_self_ms",
            "trace.untraced_ns_per_unit",
            "trace.traced_ns_per_unit",
            "trace.overhead_ratio",
            "trace.spans",
        ],
        _ => &[],
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// How it was obtained (sample count, base); printed, not parsed.
    pub note: String,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Reported metrics.
    pub metrics: Vec<Metric>,
    /// Units of work attempted (monitor calls or events offered, plus
    /// the verdicts checked).
    pub attempted: u64,
    /// Failures: calls returning `Err`, events not ingested, verdicts
    /// differing from the reference, journal errors.
    pub failed: u64,
    /// Failure count per kind.
    pub failures: std::collections::BTreeMap<String, u64>,
    /// Free-form lines printed before the result (per-layer tables,
    /// input digests).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        self.metrics.push(Metric { name, value, note: note.into() });
    }

    /// Counts `n` failures of one kind (no-op for 0).
    pub fn fail(&mut self, n: u64, what: impl Into<String>) {
        if n > 0 {
            self.failed += n;
            *self.failures.entry(what.into()).or_insert(0) += n;
        }
    }

    /// Appends a note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

/// Run parameters shared by every workload.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Input seed.
    pub seed: u64,
    /// Measured time.
    pub seconds: Duration,
    /// Whether this is the traced (per-layer) run.
    pub traced: bool,
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Resets this process's `VmHWM` to its current resident size (through
/// its own `/proc/self/clear_refs`), so that [`peak_rss_mb`] then reads
/// the peak since this call. Where the kernel refuses, the peak keeps
/// covering the whole process life.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Nanoseconds in a duration, as a float.
pub fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// Directory (relative to the working directory) for span dumps and
/// journals.
pub const OUT_DIR: &str = ".perfbench";

/// Reports the per-layer self-time reconciliation of the spans under
/// the `root` spans against the end-to-end wall time they cover.
pub fn reconcile(out: &mut Outcome, spans: &[trace::Span], root: &str) {
    let walls = trace::durations(spans, root);
    let wall_ns = if walls.is_empty() { f64::NAN } else { walls.iter().sum() };
    let layers = trace::layer_self_ns(spans, root);
    // A layer without spans under `root` has no self time to report.
    let get = |l: &str| layers.get(l).copied().unwrap_or(f64::NAN);
    let program: f64 = layers.iter().filter(|(l, _)| *l != "bench").map(|(_, v)| v).sum();
    out.metric("reconcile.wall_ms", wall_ns / 1e6, "end-to-end wall of the traced episodes");
    out.metric("reconcile.layer_self_ms", program / 1e6, "sum of program layers' self time");
    out.metric("reconcile.bench_self_ms", get("bench") / 1e6, "generator's own time");
    out.metric("reconcile.rt_self_ms", get("rt") / 1e6, "");
    out.metric("reconcile.core_detect_self_ms", get("core.detect") / 1e6, "");
    out.metric("reconcile.net_self_ms", get("net") / 1e6, "");
    out.metric("reconcile.storage_self_ms", get("storage") / 1e6, "");
    let mut row = format!("reconcile: wall {:.1} ms =", wall_ns / 1e6);
    for (l, v) in &layers {
        row.push_str(&format!(" {l} {:.1} ms ({:.1}%) +", v / 1e6, 100.0 * v / wall_ns));
    }
    row.pop();
    row.push_str(&format!(
        "; layers + bench = {:.1}% of wall",
        100.0 * layers.values().sum::<f64>() / wall_ns
    ));
    out.note(row);
}

/// Reports the tracing overhead: traced against untraced cost per unit
/// of work, with its base.
pub fn trace_overhead(out: &mut Outcome, base: f64, traced: f64, spans: usize, unit: &str) {
    out.metric("trace.untraced_ns_per_unit", base, format!("base, untraced {unit}"));
    out.metric("trace.traced_ns_per_unit", traced, format!("traced {unit}"));
    out.metric("trace.overhead_ratio", traced / base, format!("traced / untraced {unit}"));
    out.metric("trace.spans", spans as f64, "spans recorded");
}
