//! `table1`: the paper's Table-1 experiment.
//!
//! One application thread alternates `send`/`receive` on one
//! `BoundedBuffer` (capacity 64) over the inline backend while a
//! benchmark-owned checker thread calls `Runtime::checkpoint_now`
//! every `T` = 50 ms — the loop `CheckerHandle::spawn` runs. Between
//! full phases the same thread runs the uninstrumented
//! `HandoffBuffer` and a recording-only runtime, so each ratio is
//! taken against a control measured moments earlier.

use crate::inputs::{detector_config, Rng};
use crate::probes::{BackendCounts, BackendNames, ProbeBackend};
use crate::stats::{median, Dist};
use crate::{
    ns, peak_rss_mb, reconcile, reset_peak_rss, trace, trace_overhead, Outcome, RunConfig,
};
use rmon_core::detect::InlineBackend;
use rmon_rt::overhead::HandoffBuffer;
use rmon_rt::{BoundedBuffer, Runtime};
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The checking interval `T` (1 paper-second at the default scale).
pub const INTERVAL: Duration = Duration::from_millis(50);
/// Buffer capacity, as in the paper's experiment.
pub const CAPACITY: usize = 64;
/// Operations per full phase.
pub const FULL_OPS: usize = 1 << 22;
/// Operations per control (hand-off, recording-only) phase.
pub const CONTROL_OPS: usize = 1 << 18;
/// Operations per timed block.
pub const BLOCK: usize = 4096;
/// In traced runs every `SAMPLE`-th operation is timed on its own.
pub const SAMPLE: usize = 64;
/// Events the runtime records per uncontended monitor operation
/// (`Enter` and `Signal-Exit`).
pub const EVENTS_PER_OP: u64 = 2;

const BACKEND_NAMES: BackendNames = BackendNames {
    observe: "core.detect.backend.observe",
    checkpoint_window: "core.detect.backend.checkpoint_window",
    checkpoint: "core.detect.backend.checkpoint",
};

/// One timed phase.
#[derive(Debug, Default)]
struct Phase {
    ops: usize,
    wall_ns: f64,
    /// ns per op, one entry per block.
    block_ns: Vec<f64>,
    /// End of each block.
    block_ends: Vec<Instant>,
    /// Periodic checkpoints: start and end.
    pauses: Vec<(Instant, Instant)>,
    /// The closing checkpoint's start and end.
    last: Option<(Instant, Instant)>,
    setup_ns: f64,
    events: u64,
    /// Violations the periodic and closing checkpoints reported.
    violations: u64,
    /// Whether the traced run's probe backend was installed.
    probed: bool,
    observe_calls: u64,
    mode_queries: u64,
    window_events: Vec<f64>,
    /// Peak RSS (MB) reached during the phase.
    peak_rss_mb: f64,
}

fn handoff_phase(items: &[u64], out: &mut Outcome) -> Phase {
    let buf = HandoffBuffer::new(CAPACITY);
    let mut phase = Phase { ops: 2 * items.len(), ..Phase::default() };
    let mut wrong = 0u64;
    let t0 = Instant::now();
    for chunk in items.chunks(BLOCK / 2) {
        let bt = Instant::now();
        for &item in chunk {
            buf.send(item);
            wrong += u64::from(buf.receive() != item);
        }
        phase.block_ns.push(ns(bt.elapsed()) / (2 * chunk.len()) as f64);
    }
    phase.wall_ns = ns(t0.elapsed());
    out.fail(wrong, "hand-off receive returned another item than was sent");
    phase
}

/// Builds the instrumented runtime and its buffer — the set-up cost.
fn build(traced: bool) -> (Runtime, BoundedBuffer<u64>, Option<Arc<BackendCounts>>) {
    let cfg = detector_config();
    let mut builder = Runtime::builder(cfg).park_timeout(Duration::from_secs(30));
    let mut counts = None;
    if traced {
        let probe = ProbeBackend::new(Arc::new(InlineBackend::new(cfg)), BACKEND_NAMES, u64::MAX);
        counts = Some(probe.counts());
        builder = builder.backend(Arc::new(probe));
    }
    let rt = builder.build();
    let buf = BoundedBuffer::new(&rt, "table1", CAPACITY);
    (rt, buf, counts)
}

/// Minor page faults taken by the calling thread so far.
fn thread_minor_faults() -> u64 {
    std::fs::read_to_string("/proc/thread-self/stat")
        .ok()
        .and_then(|s| {
            // Field 10 (minflt), counted after the parenthesised name.
            s.rsplit(')').next().and_then(|r| r.split_whitespace().nth(7)?.parse().ok())
        })
        .unwrap_or(0)
}

fn checker_loop(rt: &Runtime, stop: mpsc::Receiver<()>) -> (Vec<(Instant, Instant)>, u64) {
    let mut pauses = Vec::new();
    let mut violations = 0u64;
    while let Err(mpsc::RecvTimeoutError::Timeout) = stop.recv_timeout(INTERVAL) {
        let _s = trace::span("rt.checkpoint", pauses.len() as u64);
        let start = Instant::now();
        let faults = trace::enabled().then(thread_minor_faults);
        let report = rt.checkpoint_now();
        if let Some(before) = faults {
            trace::count("rt.checkpoint.page_faults", thread_minor_faults() - before);
        }
        pauses.push((start, Instant::now()));
        violations += report.violations.len() as u64;
    }
    (pauses, violations)
}

fn rt_phase(items: &[u64], with_checker: bool, traced: bool, out: &mut Outcome) -> Phase {
    reset_peak_rss();
    let t_setup = Instant::now();
    let (rt, buf, counts) = build(traced);
    let mut phase =
        Phase { ops: 2 * items.len(), setup_ns: ns(t_setup.elapsed()), ..Phase::default() };
    let mut errs = 0u64;
    let mut wrong = 0u64;
    let (stop_tx, stop_rx) = mpsc::channel::<()>();
    let (pauses, violations) = std::thread::scope(|scope| {
        let checker = with_checker.then(|| {
            let rt = &rt;
            scope.spawn(move || checker_loop(rt, stop_rx))
        });
        let _root = with_checker.then(|| trace::span("bench.phase", 0));
        let sample = traced && with_checker;
        let block_name = if with_checker { "rt.full.block" } else { "rt.recording.block" };
        let t0 = Instant::now();
        for (b, chunk) in items.chunks(BLOCK / 2).enumerate() {
            let _block = trace::span(block_name, b as u64);
            let bt = Instant::now();
            for (i, &item) in chunk.iter().enumerate() {
                let got = if sample && i % (SAMPLE / 2) == 0 {
                    let sent = {
                        let _s = trace::span("rt.monitor.send", b as u64);
                        buf.send(item)
                    };
                    errs += u64::from(sent.is_err());
                    let _s = trace::span("rt.monitor.receive", b as u64);
                    buf.receive()
                } else {
                    errs += u64::from(buf.send(item).is_err());
                    buf.receive()
                };
                match got {
                    Ok(Some(v)) => wrong += u64::from(v != item),
                    Ok(None) => wrong += 1,
                    Err(_) => errs += 1,
                }
            }
            let end = Instant::now();
            phase.block_ns.push(ns(end - bt) / (2 * chunk.len()) as f64);
            phase.block_ends.push(end);
        }
        phase.wall_ns = ns(t0.elapsed());
        drop(stop_tx);
        checker.map(|c| c.join().expect("checker thread")).unwrap_or_default()
    });
    phase.pauses = pauses;
    let start = Instant::now();
    let last = rt.checkpoint_now();
    phase.last = Some((start, Instant::now()));
    out.fail(errs, "monitor call returned Err");
    out.fail(wrong, "receive returned another item than was sent");
    out.fail(violations, "periodic checkpoint reported a violation");
    out.fail(u64::from(!last.is_clean() || !rt.is_clean()), "final checkpoint not clean");
    phase.violations = violations + last.violations.len() as u64;
    phase.events = rt.events_recorded();
    let expected = phase.ops as u64 * EVENTS_PER_OP;
    out.fail(
        phase.events.abs_diff(expected),
        format!("events recorded differ from {EVENTS_PER_OP} per op"),
    );
    if let Some(c) = counts {
        phase.probed = true;
        phase.observe_calls = c.observe_calls.load(Ordering::Relaxed);
        phase.mode_queries = c.mode_queries.load(Ordering::Relaxed);
        phase.window_events = c.window_events.lock().unwrap_or_else(|e| e.into_inner()).clone();
    }
    phase.peak_rss_mb = peak_rss_mb();
    phase
}

/// Time from each block's last operation until the first checkpoint
/// that started after it has finished (the verdict covering it).
fn verdict_latencies(phase: &Phase) -> Vec<f64> {
    let mut cps: Vec<(Instant, Instant)> = phase.pauses.clone();
    cps.extend(phase.last);
    let mut out = Vec::with_capacity(phase.block_ends.len());
    let mut k = 0;
    for &end in &phase.block_ends {
        while k < cps.len() && cps[k].0 < end {
            k += 1;
        }
        if let Some(&(_, done)) = cps.get(k) {
            out.push(ns(done - end));
        }
    }
    out
}

/// Accumulated phases of one kind.
#[derive(Debug, Default)]
struct Series {
    handoff: Vec<Phase>,
    recording: Vec<Phase>,
    full: Vec<Phase>,
}

impl Series {
    fn run_triples(&mut self, items: &[u64], until: Instant, traced: bool, out: &mut Outcome) {
        let control = &items[..CONTROL_OPS / 2];
        loop {
            self.handoff.push(handoff_phase(control, out));
            self.recording.push(rt_phase(control, false, traced, out));
            self.full.push(rt_phase(items, true, traced, out));
            if Instant::now() >= until {
                break;
            }
        }
    }

    fn full_ns_per_op(&self) -> f64 {
        let wall: f64 = self.full.iter().map(|p| p.wall_ns).sum();
        let ops: usize = self.full.iter().map(|p| p.ops).sum();
        wall / ops.max(1) as f64
    }

    fn ratio(&self, of: &[Phase]) -> f64 {
        let ratios: Vec<f64> = of
            .iter()
            .zip(&self.handoff)
            .map(|(p, h)| (p.wall_ns / p.ops as f64) / (h.wall_ns / h.ops as f64))
            .collect();
        median(&ratios)
    }

    fn ops(&self) -> u64 {
        self.handoff.iter().chain(&self.recording).chain(&self.full).map(|p| p.ops as u64).sum()
    }
}

fn blocks(phases: &[Phase]) -> Dist {
    Dist::new(phases.iter().flat_map(|p| p.block_ns.iter().copied()).collect())
}

/// The payloads one full phase sends, from `seed` (control phases
/// send a prefix).
pub fn items(seed: u64) -> Vec<u64> {
    let mut rng = Rng::new(seed);
    (0..FULL_OPS / 2).map(|_| rng.next_u64()).collect()
}

/// Runs `table1` for `cfg`.
pub fn run(cfg: RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let items = items(cfg.seed);
    out.note(format!("inputs: {} items from seed {}", items.len(), cfg.seed));

    let start = Instant::now();
    let mut series = Series::default();
    let untraced_until = if cfg.traced { start + cfg.seconds / 3 } else { start + cfg.seconds };
    series.run_triples(&items, untraced_until, false, &mut out);
    let mut traced = Series::default();
    if cfg.traced {
        trace::set_enabled(true);
        traced.run_triples(&items, start + cfg.seconds, true, &mut out);
        trace::set_enabled(false);
    }
    out.attempted = series.ops() + traced.ops();

    if cfg.traced {
        report_traced(&series, &traced, cfg, &mut out);
    } else {
        report(&series, &mut out);
    }
    out
}

fn report(series: &Series, out: &mut Outcome) {
    // Each recording and full phase builds a fresh runtime in a process
    // that has just run another phase: a set-up as a program meets it.
    let setup =
        Dist::new(series.recording.iter().chain(&series.full).map(|p| p.setup_ns).collect());
    out.metric("setup_s", setup.median() / 1e9, format!("median of {} phase set-ups", setup.len()));
    let rates: Vec<f64> = series.full.iter().map(|p| p.ops as f64 * 1e9 / p.wall_ns).collect();
    out.metric(
        "throughput_per_s",
        median(&rates),
        format!("monitor ops/s, median of {} full phases", series.full.len()),
    );
    let b = blocks(&series.full);
    out.metric("unit_cost_ns_p50", b.median(), format!("ns/op, {} blocks of {BLOCK} ops", b.len()));
    out.metric(
        "overhead_ratio",
        series.ratio(&series.full),
        format!("median of {} full/hand-off phase pairs", series.full.len()),
    );
    out.metric(
        "recording_only_ratio",
        series.ratio(&series.recording),
        format!("median of {} recording/hand-off phase pairs", series.recording.len()),
    );
    let pauses = Dist::new(
        series.full.iter().flat_map(|p| p.pauses.iter().map(|&(s, e)| ns(e - s) / 1e3)).collect(),
    );
    out.metric("checkpoint_pause_us_p50", pauses.median(), format!("{} checkpoints", pauses.len()));
    out.metric(
        "checkpoint_pause_us_p90",
        pauses.pct(90.0),
        format!("{} checkpoints, >=10 beyond: {}", pauses.len(), pauses.supports(90.0)),
    );
    let lat = Dist::new(series.full.iter().flat_map(verdict_latencies).map(|v| v / 1e3).collect());
    out.metric("verdict_latency_us_p50", lat.median(), format!("{} blocks", lat.len()));
    out.metric(
        "verdict_latency_us_p90",
        lat.pct(90.0),
        format!("{} blocks, >=10 beyond: {}", lat.len(), lat.supports(90.0)),
    );
    let rss = Dist::new(series.full.iter().map(|p| p.peak_rss_mb).collect());
    out.metric("peak_rss_mb", rss.median(), format!("VmHWM, median of {} full phases", rss.len()));
}

fn report_traced(untraced: &Series, series: &Series, cfg: RunConfig, out: &mut Outcome) {
    let spans = trace::take();
    let plain = blocks(&series.handoff);
    out.metric("rt.plain.op_ns_p50", plain.median(), format!("{} blocks", plain.len()));
    let rec = blocks(&series.recording);
    out.metric("rt.recording.op_ns_p50", rec.median(), format!("{} blocks", rec.len()));
    for (metric, name) in [
        ("rt.monitor.send_ns_p50", "rt.monitor.send"),
        ("rt.monitor.receive_ns_p50", "rt.monitor.receive"),
    ] {
        let d = Dist::new(trace::durations(&spans, name));
        out.metric(metric, d.median(), format!("{} sampled ops (1 in {SAMPLE})", d.len()));
    }
    let cp = Dist::new(trace::durations(&spans, "rt.checkpoint"));
    out.metric("rt.checkpoint.us_p50", cp.median() / 1e3, format!("{} checkpoints", cp.len()));
    let faults = Dist::new(trace::counts("rt.checkpoint.page_faults"));
    out.metric(
        "rt.checkpoint.page_faults_p50",
        faults.median(),
        format!("minor faults per checkpoint on the checker thread, {} checkpoints", faults.len()),
    );
    let cp_self = Dist::new(trace::self_durations(&spans, "rt.checkpoint"));
    out.metric(
        "rt.checkpoint.self_us_p50",
        cp_self.median() / 1e3,
        "checkpoint_now minus its checkpoint_window child",
    );
    let phases: Vec<&Phase> = series.recording.iter().chain(&series.full).collect();
    let ops: u64 = phases.iter().map(|p| p.ops as u64).sum();
    let events: u64 = phases.iter().map(|p| p.events).sum();
    out.metric("rt.events_per_op", events as f64 / ops as f64, format!("{events} events"));
    let win = Dist::new(trace::durations(&spans, BACKEND_NAMES.checkpoint_window));
    out.metric(
        "core.detect.backend.checkpoint_window_us_p50",
        win.median() / 1e3,
        format!("{} windows", win.len()),
    );
    // Counts from the probe backend; without it they have no samples.
    let probed = |v: f64| if phases.iter().all(|p| p.probed) { v } else { f64::NAN };
    let observes: u64 = phases.iter().map(|p| p.observe_calls).sum();
    out.metric(
        "core.detect.backend.observe_calls_per_op",
        probed(observes as f64 / ops as f64),
        format!("{observes} calls"),
    );
    let modes: u64 = phases.iter().map(|p| p.mode_queries).sum();
    out.metric(
        "core.detect.backend.mode_queries_per_event",
        probed(modes as f64 / events as f64),
        format!("{modes} calls"),
    );
    let sizes =
        Dist::new(series.full.iter().flat_map(|p| p.window_events.iter().copied()).collect());
    out.metric(
        "core.detect.backend.window_events_p50",
        sizes.median(),
        format!("{} full-phase windows", sizes.len()),
    );
    let found: u64 = phases.iter().map(|p| p.violations).sum();
    out.metric(
        "core.detect.violations",
        found as f64,
        format!("from {} traced phases' checkpoints (reference 0)", phases.len()),
    );

    // Reconciliation over the application thread: its full-phase spans
    // are the end-to-end wall; op blocks (including time suspended by a
    // checkpoint) are rt self time. The checker thread's spans are
    // reported above as rt.checkpoint.*.
    reconcile(out, &spans, "bench.phase");
    let base = untraced.full_ns_per_op();
    let traced = series.full_ns_per_op();
    trace_overhead(out, base, traced, spans.len(), "full-phase ns/op");
    let path = std::path::Path::new(crate::OUT_DIR).join(format!("spans-table1-{}.tsv", cfg.seed));
    if let Err(e) = trace::write(&path, &spans) {
        out.fail(1, format!("writing spans: {e}"));
    }
}
