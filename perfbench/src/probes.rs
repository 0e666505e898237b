//! Wrappers that time and count the calls crossing a layer boundary,
//! from outside the program: a [`DetectionBackend`] with its producer
//! handles, a transport [`FrameTx`] and a journal sink. They are only
//! installed in traced runs; each delegates every call unchanged.

use crate::trace;
use rmon_core::detect::{
    Backpressure, CheckpointScope, DetectionBackend, ProducerHandle, ServiceStats, SnapshotProvider,
};
use rmon_core::{
    Event, EventSink, FaultReport, Mode, MonitorId, MonitorSpec, MonitorState, Nanos, Pid,
    ProcName, RuleId, Violation, ViolationSink,
};
use rmon_net::FrameTx;
use rmon_storage::DurableSink;
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Counters a [`ProbeBackend`] keeps.
#[derive(Debug, Default)]
pub struct BackendCounts {
    /// `ProducerHandle::observe`/`try_observe` calls.
    pub observe_calls: AtomicU64,
    /// `instrumentation_mode` queries.
    pub mode_queries: AtomicU64,
    /// Events in each `checkpoint_window` call's window.
    pub window_events: Mutex<Vec<f64>>,
}

/// Span names a [`ProbeBackend`] records under.
#[derive(Debug, Clone, Copy)]
pub struct BackendNames {
    /// Sampled producer `observe` calls.
    pub observe: &'static str,
    /// `checkpoint_window` calls.
    pub checkpoint_window: &'static str,
    /// Scoped `checkpoint` calls.
    pub checkpoint: &'static str,
}

/// A [`DetectionBackend`] that forwards to `inner`, counting calls and
/// recording spans at the backend boundary.
#[derive(Debug)]
pub struct ProbeBackend {
    inner: Arc<dyn DetectionBackend>,
    counts: Arc<BackendCounts>,
    names: BackendNames,
    sample: u64,
}

impl ProbeBackend {
    /// Wraps `inner`; every `sample`-th observe of each handle is timed.
    pub fn new(inner: Arc<dyn DetectionBackend>, names: BackendNames, sample: u64) -> Self {
        ProbeBackend { inner, counts: Arc::default(), names, sample: sample.max(1) }
    }

    /// The shared counters.
    pub fn counts(&self) -> Arc<BackendCounts> {
        Arc::clone(&self.counts)
    }
}

impl DetectionBackend for ProbeBackend {
    fn register(
        &self,
        monitor: MonitorId,
        spec: Arc<MonitorSpec>,
        initial: &MonitorState,
        now: Nanos,
    ) {
        self.inner.register(monitor, spec, initial, now);
    }

    fn producer(&self) -> Box<dyn ProducerHandle> {
        Box::new(ProbeProducer {
            inner: self.inner.producer(),
            counts: Arc::clone(&self.counts),
            name: self.names.observe,
            sample: self.sample,
            seen: 0,
        })
    }

    fn call_would_violate(
        &self,
        monitor: MonitorId,
        pid: Pid,
        proc_name: ProcName,
    ) -> Option<RuleId> {
        self.inner.call_would_violate(monitor, pid, proc_name)
    }

    fn set_snapshot_provider(&self, provider: Arc<dyn SnapshotProvider>) {
        self.inner.set_snapshot_provider(provider);
    }

    fn checkpoint(&self, scope: CheckpointScope, now: Nanos) -> FaultReport {
        let _s = trace::span(self.names.checkpoint, 0);
        self.inner.checkpoint(scope, now)
    }

    fn checkpoint_window(
        &self,
        now: Nanos,
        events: &[Event],
        snapshots: &HashMap<MonitorId, MonitorState>,
    ) -> FaultReport {
        self.counts
            .window_events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(events.len() as f64);
        let _s = trace::span(self.names.checkpoint_window, 0);
        self.inner.checkpoint_window(now, events, snapshots)
    }

    fn stats(&self) -> ServiceStats {
        self.inner.stats()
    }

    fn drain_violations(&self) -> Vec<Violation> {
        self.inner.drain_violations()
    }

    fn shutdown(&self) {
        self.inner.shutdown();
    }

    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn shard_of(&self, monitor: MonitorId) -> usize {
        self.inner.shard_of(monitor)
    }

    fn instrumentation_mode(&self, monitor: MonitorId) -> Mode {
        self.counts.mode_queries.fetch_add(1, Ordering::Relaxed);
        self.inner.instrumentation_mode(monitor)
    }
}

/// The producer handle a [`ProbeBackend`] hands out.
#[derive(Debug)]
struct ProbeProducer {
    inner: Box<dyn ProducerHandle>,
    counts: Arc<BackendCounts>,
    name: &'static str,
    sample: u64,
    seen: u64,
}

impl ProbeProducer {
    fn tick(&mut self) -> bool {
        self.counts.observe_calls.fetch_add(1, Ordering::Relaxed);
        self.seen += 1;
        self.seen.is_multiple_of(self.sample)
    }
}

impl ProducerHandle for ProbeProducer {
    fn observe(&mut self, event: Event) {
        if self.tick() {
            let _s = trace::span(self.name, event.seq);
            self.inner.observe(event);
        } else {
            self.inner.observe(event);
        }
    }

    fn flush(&mut self) {
        self.inner.flush();
    }

    fn try_observe(&mut self, event: Event) -> Backpressure {
        if self.tick() {
            let _s = trace::span(self.name, event.seq);
            self.inner.try_observe(event)
        } else {
            self.inner.try_observe(event)
        }
    }

    fn try_flush(&mut self) -> Backpressure {
        self.inner.try_flush()
    }

    fn pending(&self) -> usize {
        self.inner.pending()
    }

    fn is_closed(&self) -> bool {
        self.inner.is_closed()
    }
}

/// Frame and byte counters of a [`ProbeTx`].
#[derive(Debug, Default)]
pub struct TxCounts {
    /// Frames sent.
    pub frames: AtomicU64,
    /// Payload bytes sent.
    pub bytes: AtomicU64,
}

/// A [`FrameTx`] that times every send (including any wait on a full
/// channel) and counts frames and bytes.
#[derive(Debug)]
pub struct ProbeTx {
    inner: Box<dyn FrameTx>,
    counts: Arc<TxCounts>,
}

impl ProbeTx {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn FrameTx>) -> (Self, Arc<TxCounts>) {
        let counts = Arc::new(TxCounts::default());
        (ProbeTx { inner, counts: Arc::clone(&counts) }, counts)
    }
}

impl FrameTx for ProbeTx {
    fn send_frame(&mut self, payload: &[u8]) -> io::Result<()> {
        self.counts.frames.fetch_add(1, Ordering::Relaxed);
        self.counts.bytes.fetch_add(payload.len() as u64, Ordering::Relaxed);
        let _s = trace::span("net.transport.send", 0);
        self.inner.send_frame(payload)
    }
}

/// The journal the service tees into: every append goes through to a
/// [`DurableSink`] (encode, frame, write, rotate) and is timed when
/// tracing is on. `sync` is not forwarded. Its `fdatasync` waits on the
/// host's shared disk, and that wait took half of each fleet checkpoint
/// and doubled its spread between runs. The benchmark prices rmon's
/// code, not that disk; the journal still replays from the page cache.
#[derive(Debug)]
pub struct ProbeSink {
    inner: Arc<DurableSink>,
}

impl ProbeSink {
    /// Wraps `inner`.
    pub fn new(inner: Arc<DurableSink>) -> Self {
        ProbeSink { inner }
    }
}

impl EventSink for ProbeSink {
    fn append_epoch(&self, now: Nanos) -> io::Result<()> {
        let _s = trace::span("storage.sink.append", 0);
        self.inner.append_epoch(now)
    }

    fn append_register(&self, monitor: MonitorId, name: &str, now: Nanos) -> io::Result<()> {
        let _s = trace::span("storage.sink.append", 0);
        self.inner.append_register(monitor, name, now)
    }

    fn append_events(&self, events: &[Event]) -> io::Result<()> {
        let _s = trace::span("storage.sink.append", events.first().map_or(0, |e| e.seq));
        self.inner.append_events(events)
    }

    fn sync(&self) -> io::Result<()> {
        Ok(())
    }
}

impl ViolationSink for ProbeSink {
    fn append_realtime(&self, violations: &[Violation]) -> io::Result<()> {
        let _s = trace::span("storage.sink.append", 0);
        self.inner.append_realtime(violations)
    }

    fn append_checkpoint(
        &self,
        now: Nanos,
        snapshots: &HashMap<MonitorId, MonitorState>,
        report: &FaultReport,
    ) -> io::Result<()> {
        let _s = trace::span("storage.sink.append", 0);
        self.inner.append_checkpoint(now, snapshots, report)
    }
}
