//! `fleet-sharded` and `fleet-remote`: one generator thread streams a
//! seeded fleet (producer/consumer buffers plus a few faulty
//! allocators) into a detection backend, closed loop, with checkpoint
//! barriers on a fixed event schedule and violation polls at a fixed
//! event cadence.
//!
//! * `fleet-sharded` — ~1024 monitors through one `ShardedBackend`
//!   handle with one shard per hardware thread; `checkpoint_window`
//!   barriers, the last carrying the fleet's snapshots.
//! * `fleet-remote` — 64 monitors with longer streams through one
//!   `RemoteBackend` over an in-process `duplex` transport into a
//!   `DetectionService` over `InlineBackend`, teeing into a
//!   `DurableSink` journal; `checkpoint_fleet` sweeps.
//!
//! Each measured episode is paired with a timed inline `Detector` pass
//! over the same stream and schedule (the control the ratios divide
//! by), and every episode's verdicts are compared with the reference.

use crate::inputs::{detector_config, reference, verdict_diff, verdicts_of, Fleet, FleetShape};
use crate::probes::{BackendNames, ProbeBackend, ProbeSink, ProbeTx, TxCounts};
use crate::stats::{median, Dist};
use crate::{
    ns, peak_rss_mb, reconcile, reset_peak_rss, trace, trace_overhead, Outcome, RunConfig,
};
use rmon_core::detect::{
    DetectionBackend, InlineBackend, ProducerHandle, ServiceConfig, ServiceStats, ShardedBackend,
    SnapshotProvider, SnapshotTable,
};
use rmon_core::{MonitorId, MonitorSpec, MonitorState, Nanos, Violation};
use rmon_net::{duplex, DetectionService, Endpoint, NameResolver, RemoteBackend, RemoteConfig};
use rmon_storage::{replay_dir, DurableSink, OplogConfig};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The `fleet-sharded` fleet: 992 buffers and 32 allocators (1 in 32).
pub const SHARDED: FleetShape = FleetShape {
    pc_monitors: 992,
    pc_items: 24,
    alloc_monitors: 32,
    alloc_rounds: 44,
    barrier_every: 16_384,
};

/// The `fleet-remote` fleet: 62 buffers and 2 allocators, longer
/// streams. An episode (about 21 k events, a 2 048-event window) is
/// small enough to stay in cache. With 300 items, 150 rounds and
/// 8 192-event windows (158 k events, 80 MB peak) every figure moved
/// by up to a quarter between runs on a shared host.
pub const REMOTE: FleetShape = FleetShape {
    pc_monitors: 62,
    pc_items: 40,
    alloc_monitors: 2,
    alloc_rounds: 20,
    barrier_every: 2_048,
};

/// Events per timed ingest block; also the violation-poll cadence.
pub const BLOCK: usize = 1024;
/// In traced runs every `SAMPLE`-th observe is timed on its own.
pub const SAMPLE: usize = 64;
/// How long a barrier waits for the service to ingest a window.
const INGEST_DEADLINE: Duration = Duration::from_secs(30);

/// Which fleet workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `fleet-sharded`.
    Sharded,
    /// `fleet-remote`.
    Remote,
}

impl Kind {
    /// The fleet shape of this workload.
    pub fn shape(self) -> FleetShape {
        match self {
            Kind::Sharded => SHARDED,
            Kind::Remote => REMOTE,
        }
    }

    fn label(self) -> &'static str {
        match self {
            Kind::Sharded => "fleet-sharded",
            Kind::Remote => "fleet-remote",
        }
    }

    fn names(self) -> Names {
        match self {
            Kind::Sharded => Names {
                block: "core.detect.backend.block",
                observe: "core.detect.backend.observe",
                flush: "core.detect.backend.flush",
                poll: "core.detect.service.drain",
            },
            Kind::Remote => Names {
                block: "net.remote.block",
                observe: "net.remote.observe",
                flush: "net.remote.flush",
                poll: "net.remote.drain",
            },
        }
    }
}

/// Span names of the generator's calls.
#[derive(Debug, Clone, Copy)]
struct Names {
    block: &'static str,
    observe: &'static str,
    flush: &'static str,
    poll: &'static str,
}

/// The system under test, as the generator sees it.
trait Target {
    fn producer(&mut self) -> &mut dyn ProducerHandle;
    /// Polls for real-time verdicts.
    fn poll(&mut self) -> Vec<Violation>;
    /// Runs the barrier closing the window `start..end` (everything up
    /// to `end` has been flushed); returns its verdicts and the wall
    /// time of the checkpoint call itself.
    fn barrier(&mut self, fleet: &Fleet, start: usize, end: usize) -> (Vec<Violation>, f64);
}

/// What the generator measured in one episode.
#[derive(Debug, Default)]
struct Drive {
    wall_ns: f64,
    block_ns: Vec<f64>,
    pauses_ns: Vec<f64>,
    latencies_ns: Vec<f64>,
    /// Everything polled or returned by barriers.
    violations: Vec<Violation>,
}

/// Keeps every polled verdict; the first one citing a faulty event
/// closes that event's verdict latency.
fn record(
    vs: Vec<Violation>,
    slots: &[u32],
    observed_at: &[Option<Instant>],
    answered: &mut [bool],
    d: &mut Drive,
) {
    let now = Instant::now();
    for v in vs {
        let slot = v.event_seq.and_then(|s| slots.get((s as usize).wrapping_sub(1))).copied();
        if let Some(slot) = slot.map(|s| s as usize).filter(|&s| s < answered.len()) {
            if let (false, Some(at)) = (answered[slot], observed_at[slot]) {
                answered[slot] = true;
                d.latencies_ns.push(ns(now - at));
            }
        }
        d.violations.push(v);
    }
}

/// Streams the fleet into `target`: observe per event, a poll after
/// every block, a barrier at every scheduled window end.
fn drive(
    fleet: &Fleet,
    slots: &[u32],
    faulty: usize,
    target: &mut dyn Target,
    names: Names,
) -> Drive {
    let mut d = Drive::default();
    let mut observed_at: Vec<Option<Instant>> = vec![None; faulty];
    let mut answered = vec![false; faulty];
    let events = &fleet.trace.events;
    let sampled = trace::enabled();
    let _root = trace::span("bench.episode", 0);
    let t0 = Instant::now();
    let mut start = 0;
    for &end in &fleet.barriers {
        let mut i = start;
        while i < end {
            let stop = (i + BLOCK).min(end);
            let bt = Instant::now();
            {
                let _b = trace::span(names.block, i as u64);
                let producer = target.producer();
                for (k, e) in events[i..stop].iter().enumerate() {
                    let k = i + k;
                    if let Some(slot) = observed_at.get_mut(slots[k] as usize) {
                        *slot = Some(Instant::now());
                    }
                    if sampled && k % SAMPLE == 0 {
                        let _o = trace::span(names.observe, k as u64);
                        producer.observe(*e);
                    } else {
                        producer.observe(*e);
                    }
                }
                if stop == end {
                    let _f = trace::span(names.flush, i as u64);
                    producer.flush();
                }
            }
            d.block_ns.push(ns(bt.elapsed()) / (stop - i) as f64);
            let vs = {
                let _p = trace::span(names.poll, i as u64);
                target.poll()
            };
            record(vs, slots, &observed_at, &mut answered, &mut d);
            i = stop;
        }
        let (vs, pause) = target.barrier(fleet, start, end);
        d.pauses_ns.push(pause);
        record(vs, slots, &observed_at, &mut answered, &mut d);
        start = end;
    }
    d.wall_ns = ns(t0.elapsed());
    d
}

// ---------------------------------------------------------------------
// fleet-sharded
// ---------------------------------------------------------------------

struct Sharded {
    backend: ShardedBackend,
    producer: Box<dyn ProducerHandle>,
    none: HashMap<MonitorId, MonitorState>,
}

impl Sharded {
    fn setup(fleet: &Fleet, shards: usize) -> Sharded {
        let backend = ShardedBackend::new(detector_config(), ServiceConfig::new(shards));
        for id in &fleet.ids {
            backend.register_empty(*id, Arc::clone(&fleet.trace.specs[id]), Nanos::ZERO);
        }
        let producer = backend.producer();
        Sharded { backend, producer, none: HashMap::new() }
    }
}

impl Target for Sharded {
    fn producer(&mut self) -> &mut dyn ProducerHandle {
        self.producer.as_mut()
    }

    fn poll(&mut self) -> Vec<Violation> {
        self.backend.drain_violations()
    }

    fn barrier(&mut self, fleet: &Fleet, start: usize, end: usize) -> (Vec<Violation>, f64) {
        let t = Instant::now();
        let report = {
            let _s = trace::span("core.detect.service.checkpoint_window", end as u64);
            self.backend.checkpoint_window(
                fleet.barrier_time(end),
                &fleet.trace.events[start..end],
                fleet.barrier_snapshots(end, &self.none),
            )
        };
        let pause = ns(t.elapsed());
        let mut vs = report.violations;
        let _p = trace::span("core.detect.service.drain", end as u64);
        vs.extend(self.backend.drain_violations());
        (vs, pause)
    }
}

// ---------------------------------------------------------------------
// fleet-remote
// ---------------------------------------------------------------------

struct Remote {
    service: DetectionService,
    remote: RemoteBackend,
    producer: Box<dyn ProducerHandle>,
    /// The worker's snapshot source: empty until the last barrier,
    /// which publishes the fleet's final states (as `fleet-sharded`'s
    /// last `checkpoint_window` carries them).
    snapshots: Arc<SnapshotTable>,
    sink: Arc<DurableSink>,
    dir: PathBuf,
    tx_counts: Option<Arc<TxCounts>>,
    lag_ns: Vec<f64>,
    lag_failed: bool,
}

fn resolver(fleet: &Fleet) -> HashMap<String, Arc<MonitorSpec>> {
    fleet.trace.specs.values().map(|s| (s.name.clone(), Arc::clone(s))).collect()
}

impl Remote {
    fn setup(fleet: &Fleet, dir: PathBuf, traced: bool) -> std::io::Result<Remote> {
        let _ = std::fs::remove_dir_all(&dir);
        let sink = Arc::new(DurableSink::open(&dir, OplogConfig::default())?);
        let inline: Arc<dyn DetectionBackend> = Arc::new(InlineBackend::new(detector_config()));
        let backend: Arc<dyn DetectionBackend> = if traced {
            let names = BackendNames {
                observe: "core.detect.service_backend.observe",
                checkpoint_window: "core.detect.service_backend.checkpoint_window",
                checkpoint: "core.detect.service_backend.checkpoint",
            };
            Arc::new(ProbeBackend::new(inline, names, SAMPLE as u64))
        } else {
            inline
        };
        let by_name = resolver(fleet);
        let resolve: Arc<NameResolver> = Arc::new(move |name: &str| by_name.get(name).cloned());
        let service = DetectionService::new(backend, resolve, rmon_net::ServiceConfig::default());
        service.journal(Arc::new(ProbeSink::new(Arc::clone(&sink))));
        let (worker, service_end) = duplex(1 << 16);
        service.attach(service_end);
        let (worker, tx_counts) = if traced {
            let (tx, counts) = ProbeTx::new(worker.tx);
            (Endpoint { tx: Box::new(tx), rx: worker.rx }, Some(counts))
        } else {
            (worker, None)
        };
        let remote = RemoteBackend::connect(worker, RemoteConfig::named("w0"), Nanos::ZERO)?;
        let snapshots = Arc::new(SnapshotTable::from_snapshots(HashMap::new()));
        remote.set_snapshot_provider(Arc::clone(&snapshots) as Arc<dyn SnapshotProvider>);
        for id in &fleet.ids {
            let spec = &fleet.trace.specs[id];
            remote.register(*id, Arc::clone(spec), &spec.empty_state(), Nanos::ZERO);
        }
        let deadline = Instant::now() + INGEST_DEADLINE;
        while service.sessions().first().map_or(0, |s| s.monitors) < fleet.ids.len() {
            if Instant::now() > deadline {
                return Err(std::io::Error::other("service never registered the fleet"));
            }
            std::thread::sleep(Duration::from_micros(20));
        }
        let producer = remote.producer();
        Ok(Remote {
            service,
            remote,
            producer,
            snapshots,
            sink,
            dir,
            tx_counts,
            lag_ns: Vec::new(),
            lag_failed: false,
        })
    }

    fn ingested(&self) -> u64 {
        self.service.sessions().iter().map(|s| s.events).sum()
    }

    fn shutdown(&self) {
        self.remote.shutdown();
        self.service.shutdown();
    }
}

impl Target for Remote {
    fn producer(&mut self) -> &mut dyn ProducerHandle {
        self.producer.as_mut()
    }

    fn poll(&mut self) -> Vec<Violation> {
        self.remote.drain_violations()
    }

    fn barrier(&mut self, fleet: &Fleet, _start: usize, end: usize) -> (Vec<Violation>, f64) {
        // The barrier covers exactly the events sent so far: wait until
        // the service shows all of them ingested. The wait yields rather
        // than sleeps: a 20 µs sleep overshot by tens of µs a barrier
        // and added about 20 % to the verdict latency.
        {
            let _s = trace::span("net.service.ingest_lag", end as u64);
            let t = Instant::now();
            let deadline = t + INGEST_DEADLINE;
            while self.ingested() < end as u64 {
                if Instant::now() > deadline {
                    self.lag_failed = true;
                    break;
                }
                std::thread::yield_now();
            }
            self.lag_ns.push(ns(t.elapsed()));
        }
        if end == fleet.len() {
            self.snapshots.publish_all(fleet.trace.snapshots.clone());
        }
        let t = Instant::now();
        {
            let _s = trace::span("net.service.checkpoint_fleet", end as u64);
            let sweep = self.service.checkpoint_fleet(fleet.barrier_time(end));
            if !sweep.quarantined.is_empty() {
                self.lag_failed = true;
            }
        }
        let pause = ns(t.elapsed());
        let _p = trace::span("net.remote.drain", end as u64);
        (self.remote.drain_violations(), pause)
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| it.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum())
        .unwrap_or(0)
}

// ---------------------------------------------------------------------
// Episodes
// ---------------------------------------------------------------------

/// One measured episode plus its paired control pass.
#[derive(Debug, Default)]
struct Episode {
    setup_ns: f64,
    drive: Drive,
    control_ns: f64,
    control_observe_ns: f64,
    events_per_batch: f64,
    shard_skew: f64,
    /// Peak RSS (MB) from set-up to the end of the stream.
    peak_rss_mb: f64,
    /// Live verdicts the episode collected.
    verdicts: usize,
    /// Frames and payload bytes the wrapping `FrameTx` counted (traced
    /// episodes only).
    tx: Option<(u64, u64)>,
    journal_bytes: u64,
    rotations: u64,
    lag_ns: Vec<f64>,
}

struct Prepared {
    fleet: Fleet,
    slots: Vec<u32>,
    faulty: usize,
    expected: crate::inputs::Verdicts,
    expected_count: usize,
}

fn prepare(kind: Kind, seed: u64) -> Prepared {
    let fleet = Fleet::generate(kind.shape(), seed);
    let reference = reference(&fleet, 0);
    let mut slots = vec![u32::MAX; fleet.len()];
    for (slot, &idx) in reference.faulty.iter().enumerate() {
        slots[idx] = slot as u32;
    }
    Prepared {
        faulty: reference.faulty.len(),
        expected_count: reference.verdict_count(),
        expected: reference.verdicts,
        slots,
        fleet,
    }
}

fn shards() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn episode_dir(n: usize) -> PathBuf {
    Path::new(crate::OUT_DIR).join(format!("journal-{}-{n}", std::process::id()))
}

fn episode(kind: Kind, p: &Prepared, n: usize, traced: bool, out: &mut Outcome) -> Episode {
    let mut ep = Episode::default();
    let offered = p.fleet.len() as u64;
    let names = kind.names();
    reset_peak_rss();
    match kind {
        Kind::Sharded => {
            let t = Instant::now();
            let mut target = Sharded::setup(&p.fleet, shards());
            ep.setup_ns = ns(t.elapsed());
            ep.drive = drive(&p.fleet, &p.slots, p.faulty, &mut target, names);
            ep.peak_rss_mb = peak_rss_mb();
            let stats: ServiceStats = target.backend.stats();
            target.backend.shutdown();
            out.fail(
                offered.saturating_sub(stats.total_events()),
                "events not ingested by the shards",
            );
            ep.events_per_batch = stats.total_events() as f64 / stats.total_batches().max(1) as f64;
            let loads: Vec<f64> = stats.shards.iter().map(|s| s.events_observed as f64).collect();
            let mean = loads.iter().sum::<f64>() / loads.len().max(1) as f64;
            ep.shard_skew = loads.iter().copied().fold(0.0, f64::max) / mean.max(1.0);
            let got = verdicts_of(&ep.drive.violations);
            ep.verdicts = got.values().map(Vec::len).sum();
            out.fail(verdict_diff(&got, &p.expected), "verdict differs from the inline reference");
        }
        Kind::Remote => {
            let dir = episode_dir(n);
            let t = Instant::now();
            let mut target = match Remote::setup(&p.fleet, dir.clone(), traced) {
                Ok(r) => r,
                Err(e) => {
                    out.fail(offered, format!("remote set-up failed: {e}"));
                    return ep;
                }
            };
            ep.setup_ns = ns(t.elapsed());
            ep.drive = drive(&p.fleet, &p.slots, p.faulty, &mut target, names);
            ep.peak_rss_mb = peak_rss_mb();
            let ingested = target.ingested();
            out.fail(offered.saturating_sub(ingested), "events not ingested by the service");
            out.fail(u64::from(target.lag_failed), "barrier timed out or quarantined a worker");
            out.fail(target.service.journal_errors(), "journal append failed");
            // Verdicts in the fleet namespace: the single worker
            // registered fleet ids as its local ids.
            let mut log = target.service.verdict_log();
            for v in &mut log {
                match target.service.describe(v.monitor) {
                    Some((_, local)) => v.monitor = local,
                    None => out.fail(1, "verdict on a monitor the service cannot describe"),
                }
            }
            let live = verdicts_of(&log);
            ep.verdicts = log.len();
            out.fail(verdict_diff(&live, &p.expected), "verdict differs from the inline reference");
            ep.rotations = target.sink.rotated();
            ep.lag_ns = std::mem::take(&mut target.lag_ns);
            ep.tx = target
                .tx_counts
                .as_ref()
                .map(|c| (c.frames.load(Ordering::Relaxed), c.bytes.load(Ordering::Relaxed)));
            target.shutdown();
            ep.journal_bytes = dir_bytes(&target.dir);
            // The journal must replay to the live verdicts (service
            // namespace on both sides).
            let by_name = resolver(&p.fleet);
            let resolve = move |_: MonitorId, name: &str| by_name.get(name).cloned();
            match replay_dir(
                &dir,
                OplogConfig::default().max_record_bytes,
                detector_config(),
                &resolve,
            ) {
                Ok((outcome, _)) => {
                    if let Some(why) = outcome.mismatch() {
                        out.fail(1, format!("journal replay diverges from its record: {why}"));
                    }
                    let live = verdicts_of(&target.service.verdict_log());
                    let replayed = verdicts_of(&outcome.recomputed);
                    out.fail(
                        verdict_diff(&live, &replayed),
                        "journal replay differs from live verdicts",
                    );
                }
                Err(e) => out.fail(1, format!("journal replay failed: {e}")),
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    // The paired control: the same stream and schedule through one
    // inline Detector.
    let control = reference(&p.fleet, 0);
    out.fail(
        verdict_diff(&control.verdicts, &p.expected),
        "control pass differs from the reference",
    );
    ep.control_ns = control.total_ns;
    ep.control_observe_ns = control.observe_ns;
    // The verdicts are checked. Kept for every episode they would grow
    // the process by about 35 KB an episode, and later episodes'
    // peak_rss_mb would count them.
    ep.drive.violations = Vec::new();
    ep
}

/// Runs `fleet-sharded` or `fleet-remote` for `cfg`.
pub fn run(kind: Kind, cfg: RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let p = prepare(kind, cfg.seed);
    out.note(format!(
        "inputs: {} monitors, {} events, {} barriers, {} faulty events, {} expected verdicts, digest {:016x}",
        p.fleet.ids.len(),
        p.fleet.len(),
        p.fleet.barriers.len(),
        p.faulty,
        p.expected_count,
        p.fleet.digest()
    ));
    if p.faulty == 0 {
        out.fail(1, "the generated fleet has no faulty events");
    }
    let start = Instant::now();
    let untraced_until = if cfg.traced { start + cfg.seconds / 3 } else { start + cfg.seconds };
    let mut eps = Vec::new();
    let mut n = 0;
    loop {
        eps.push(episode(kind, &p, n, false, &mut out));
        n += 1;
        if Instant::now() >= untraced_until {
            break;
        }
    }
    let mut traced = Vec::new();
    if cfg.traced {
        trace::set_enabled(true);
        loop {
            traced.push(episode(kind, &p, n, true, &mut out));
            n += 1;
            if Instant::now() >= start + cfg.seconds {
                break;
            }
        }
        trace::set_enabled(false);
    }
    let offered = p.fleet.len() as u64;
    out.attempted = (eps.len() + traced.len()) as u64 * (offered + p.expected_count as u64);

    if cfg.traced {
        report_traced(kind, &p, &eps, &traced, cfg, &mut out);
    } else {
        report(&p, &eps, &mut out);
    }
    out
}

fn per_event(eps: &[Episode], f: impl Fn(&Episode) -> f64, events: usize) -> Vec<f64> {
    eps.iter().map(|e| f(e) / events as f64).collect()
}

fn report(p: &Prepared, eps: &[Episode], out: &mut Outcome) {
    let events = p.fleet.len();
    let setup = Dist::new(eps.iter().map(|e| e.setup_ns).collect());
    out.metric(
        "setup_s",
        setup.median() / 1e9,
        format!("median of {} episode set-ups", setup.len()),
    );
    let rates: Vec<f64> = eps.iter().map(|e| events as f64 * 1e9 / e.drive.wall_ns).collect();
    out.metric(
        "throughput_per_s",
        median(&rates),
        format!("events/s, median of {} episodes of {events} events", eps.len()),
    );
    let blocks = Dist::new(eps.iter().flat_map(|e| e.drive.block_ns.iter().copied()).collect());
    out.metric(
        "unit_cost_ns_p50",
        blocks.median(),
        format!("ingest ns/event, {} blocks of {BLOCK} events", blocks.len()),
    );
    let e2e = per_event(eps, |e| e.drive.wall_ns, events);
    let ingest: Vec<f64> = eps.iter().map(|e| median(&e.drive.block_ns)).collect();
    let control = per_event(eps, |e| e.control_ns, events);
    let control_obs = per_event(eps, |e| e.control_observe_ns, events);
    let ratio =
        |a: &[f64], b: &[f64]| median(&a.iter().zip(b).map(|(x, y)| x / y).collect::<Vec<_>>());
    out.metric(
        "overhead_ratio",
        ratio(&e2e, &control),
        format!(
            "median of {} pairs: end-to-end ns/event / inline Detector ns/event (base {:.1} ns)",
            eps.len(),
            median(&control)
        ),
    );
    out.metric(
        "recording_only_ratio",
        ratio(&ingest, &control_obs),
        format!(
            "median of {} pairs: median block ingest ns/event / inline Detector observe ns/event (base {:.1} ns)",
            eps.len(),
            median(&control_obs)
        ),
    );
    let pauses =
        Dist::new(eps.iter().flat_map(|e| e.drive.pauses_ns.iter().map(|v| v / 1e3)).collect());
    out.metric("checkpoint_pause_us_p50", pauses.median(), format!("{} barriers", pauses.len()));
    out.metric(
        "checkpoint_pause_us_p90",
        pauses.pct(90.0),
        format!("{} barriers, >=10 beyond: {}", pauses.len(), pauses.supports(90.0)),
    );
    let lat =
        Dist::new(eps.iter().flat_map(|e| e.drive.latencies_ns.iter().map(|v| v / 1e3)).collect());
    out.metric("verdict_latency_us_p50", lat.median(), format!("{} faulty events", lat.len()));
    out.metric(
        "verdict_latency_us_p90",
        lat.pct(90.0),
        format!("{} faulty events, >=10 beyond: {}", lat.len(), lat.supports(90.0)),
    );
    let rss = Dist::new(eps.iter().map(|e| e.peak_rss_mb).collect());
    out.metric("peak_rss_mb", rss.median(), format!("VmHWM, median of {} episodes", rss.len()));
}

fn report_traced(
    kind: Kind,
    p: &Prepared,
    untraced: &[Episode],
    eps: &[Episode],
    cfg: RunConfig,
    out: &mut Outcome,
) {
    let spans = trace::take();
    let events = p.fleet.len() as f64;
    let n = eps.len().max(1) as f64;
    let us =
        |name: &str| Dist::new(trace::durations(&spans, name).iter().map(|v| v / 1e3).collect());
    let nsd = |name: &str| Dist::new(trace::durations(&spans, name));

    // The engine, from a sampled inline reference pass.
    let engine = reference(&p.fleet, SAMPLE);
    let obs = Dist::new(engine.observe_samples.clone());
    out.metric(
        "core.detect.engine.observe_ns_p50",
        obs.median(),
        format!("{} sampled observes", obs.len()),
    );
    out.metric(
        "core.detect.engine.checkpoint_ns_per_event",
        engine.checkpoint_ns / events,
        format!("{} barriers over {} monitors", p.fleet.barriers.len(), p.fleet.ids.len()),
    );
    let found = Dist::new(eps.iter().map(|e| e.verdicts as f64).collect());
    out.metric(
        "core.detect.violations",
        found.median(),
        format!(
            "live verdicts, median of {} traced episodes (reference {})",
            found.len(),
            p.expected_count
        ),
    );

    match kind {
        Kind::Sharded => {
            let o = nsd("core.detect.backend.observe");
            out.metric(
                "core.detect.backend.observe_ns_p50",
                o.median(),
                format!("{} sampled", o.len()),
            );
            out.metric(
                "core.detect.backend.observe_ns_p99",
                o.pct(99.0),
                format!("{} sampled", o.len()),
            );
            let f = us("core.detect.backend.flush");
            out.metric(
                "core.detect.backend.flush_us_p50",
                f.median(),
                format!("{} flushes", f.len()),
            );
            let w = us("core.detect.service.checkpoint_window");
            out.metric(
                "core.detect.service.checkpoint_window_us_p50",
                w.median(),
                format!("{} windows", w.len()),
            );
            out.metric(
                "core.detect.service.events_per_batch",
                median(&eps.iter().map(|e| e.events_per_batch).collect::<Vec<_>>()),
                "ServiceStats events / batches",
            );
            out.metric(
                "core.detect.service.shard_skew",
                median(&eps.iter().map(|e| e.shard_skew).collect::<Vec<_>>()),
                "max / mean shard events",
            );
            let d = nsd("core.detect.service.drain");
            out.metric(
                "core.detect.service.drain_ns_p50",
                d.median(),
                format!("{} polls", d.len()),
            );
        }
        Kind::Remote => {
            let o = nsd("net.remote.observe");
            out.metric("net.remote.observe_ns_p50", o.median(), format!("{} sampled", o.len()));
            out.metric("net.remote.observe_ns_p99", o.pct(99.0), format!("{} sampled", o.len()));
            let s = nsd("net.transport.send");
            out.metric("net.transport.send_ns_p50", s.median(), format!("{} frames", s.len()));
            // Without the wrapping FrameTx the counts have no samples.
            let tx: Option<Vec<(u64, u64)>> = eps.iter().map(|e| e.tx).collect();
            let (frames, bytes) = tx.map_or((f64::NAN, f64::NAN), |t| {
                t.iter().fold((0.0, 0.0), |(f, b), &(tf, tb)| (f + tf as f64, b + tb as f64))
            });
            out.metric(
                "net.transport.bytes_per_event",
                bytes / (events * n),
                "worker→service payload bytes",
            );
            out.metric(
                "net.transport.frames_per_event",
                frames / (events * n),
                "worker→service frames",
            );
            let b = nsd("core.detect.service_backend.observe");
            out.metric(
                "net.service.backend_observe_ns_p50",
                b.median(),
                format!("{} sampled", b.len()),
            );
            let lag =
                Dist::new(eps.iter().flat_map(|e| e.lag_ns.iter().map(|v| v / 1e3)).collect());
            out.metric(
                "net.service.ingest_lag_us",
                lag.median(),
                format!("median of {} barriers", lag.len()),
            );
            let c = us("net.service.checkpoint_fleet");
            out.metric(
                "net.service.checkpoint_fleet_us_p50",
                c.median(),
                format!("{} sweeps", c.len()),
            );
            let a = us("storage.sink.append");
            out.metric("storage.sink.append_us_p50", a.median(), format!("{} appends", a.len()));
            let jb: u64 = eps.iter().map(|e| e.journal_bytes).sum();
            out.metric(
                "storage.sink.bytes_per_event",
                jb as f64 / (events * n),
                "journal bytes on disk",
            );
            let rot: u64 = eps.iter().map(|e| e.rotations).sum();
            out.metric("storage.oplog.rotations", rot as f64 / n, "segment rotations per episode");
        }
    }

    reconcile(out, &spans, "bench.episode");
    let per = |eps: &[Episode]| {
        eps.iter().map(|e| e.drive.wall_ns).sum::<f64>() / (eps.len().max(1) as f64 * events)
    };
    trace_overhead(out, per(untraced), per(eps), spans.len(), "end-to-end ns/event");
    let path = Path::new(crate::OUT_DIR).join(format!("spans-{}-{}.tsv", kind.label(), cfg.seed));
    if let Err(e) = trace::write(&path, &spans) {
        out.fail(1, format!("writing spans: {e}"));
    }
}
