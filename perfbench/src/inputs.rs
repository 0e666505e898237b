//! Seeded input generation and the inline reference pass.
//!
//! Everything the program under test receives is built here from the
//! seed, before any measurement: the fleet event stream, its barrier
//! schedule and the verdicts an inline [`Detector`] computes over the
//! same stream and schedule. The measured runs then only hand the
//! generated inputs to the program and compare what comes back.

use rmon_core::detect::Detector;
use rmon_core::{DetectorConfig, Event, MonitorId, MonitorState, Nanos, Violation};
use rmon_storage::replay::VerdictKey;
use rmon_workloads::sweep::{allocator_fleet_trace, fleet_trace, FleetTrace};
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// The detector configuration every workload checks under: no
/// wall-clock timers (the streams are synthetic) and the strict-spec
/// registration gate armed.
pub fn detector_config() -> DetectorConfig {
    let mut cfg = DetectorConfig::without_timeouts();
    cfg.strict_specs = true;
    cfg
}

/// SplitMix64: the benchmark's only source of randomness.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x05ee_d0fb_e4c4_u64)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// How a fleet is composed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetShape {
    /// Producer/consumer buffers (clean streams with final snapshots).
    pub pc_monitors: usize,
    /// Items each buffer producer sends.
    pub pc_items: usize,
    /// Single-unit allocators carrying seeded U1/U3 call-order faults.
    pub alloc_monitors: usize,
    /// Request/release rounds per allocator. Kept small: the stuck
    /// duplicate requests make checkpoint cost grow with rounds squared.
    pub alloc_rounds: usize,
    /// Events between two checkpoint barriers.
    pub barrier_every: usize,
}

/// A generated fleet plus its barrier schedule.
#[derive(Debug, Clone)]
pub struct Fleet {
    /// The composed trace (ids `0..pc_monitors` are buffers, the rest
    /// allocators).
    pub trace: FleetTrace,
    /// Monitor ids in registration order.
    pub ids: Vec<MonitorId>,
    /// Exclusive end index of every barrier window; the last equals the
    /// stream length and carries the fleet's snapshots.
    pub barriers: Vec<usize>,
}

impl Fleet {
    /// Builds the fleet for `seed`: `fleet_trace` buffers and
    /// `allocator_fleet_trace` allocators (ids remapped after the
    /// buffers), merged round-robin over a seeded monitor order and
    /// re-sequenced on one time axis.
    pub fn generate(shape: FleetShape, seed: u64) -> Fleet {
        let pc = fleet_trace(shape.pc_monitors, shape.pc_items, seed);
        let alloc = allocator_fleet_trace(shape.alloc_monitors, shape.alloc_rounds, seed);
        let offset = shape.pc_monitors as u32;
        let mut specs = pc.specs.clone();
        for (id, spec) in &alloc.specs {
            specs.insert(MonitorId::new(offset + id.index()), spec.clone());
        }
        let total = specs.len();
        let mut streams: Vec<Vec<Event>> = vec![Vec::new(); total];
        for e in &pc.events {
            streams[e.monitor.index() as usize].push(*e);
        }
        for e in &alloc.events {
            let mut e = *e;
            e.monitor = MonitorId::new(offset + e.monitor.index());
            streams[e.monitor.index() as usize].push(e);
        }
        let mut order: Vec<usize> = (0..total).collect();
        Rng::new(seed).shuffle(&mut order);
        let mut cursors = vec![0usize; total];
        let mut events = Vec::with_capacity(streams.iter().map(Vec::len).sum());
        let mut live = true;
        while live {
            live = false;
            for &m in &order {
                if let Some(e) = streams[m].get(cursors[m]) {
                    cursors[m] += 1;
                    let mut e = *e;
                    e.seq = events.len() as u64 + 1;
                    e.time = Nanos::new(e.seq * 10);
                    events.push(e);
                    live = true;
                }
            }
        }
        let end_time = Nanos::new((events.len() as u64 + 1) * 10);
        let mut barriers: Vec<usize> =
            (shape.barrier_every..events.len()).step_by(shape.barrier_every.max(1)).collect();
        barriers.push(events.len());
        let mut ids: Vec<MonitorId> = specs.keys().copied().collect();
        ids.sort();
        Fleet {
            trace: FleetTrace { specs, events, snapshots: pc.snapshots, end_time },
            ids,
            barriers,
        }
    }

    /// Number of events in the stream.
    pub fn len(&self) -> usize {
        self.trace.events.len()
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.trace.events.is_empty()
    }

    /// The checking time of the barrier closing at `end`: the last
    /// window event's time, or the trace's end time for the last one.
    pub fn barrier_time(&self, end: usize) -> Nanos {
        if end == self.len() {
            self.trace.end_time
        } else {
            self.trace.events[end - 1].time
        }
    }

    /// The snapshots the barrier closing at `end` carries: the fleet's
    /// final states at the last barrier, none before.
    pub fn barrier_snapshots<'a>(
        &'a self,
        end: usize,
        none: &'a HashMap<MonitorId, MonitorState>,
    ) -> &'a HashMap<MonitorId, MonitorState> {
        if end == self.len() {
            &self.trace.snapshots
        } else {
            none
        }
    }

    /// A digest of everything the program receives: specs by name,
    /// events, snapshots and the barrier schedule.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        for id in &self.ids {
            id.hash(&mut h);
            self.trace.specs[id].name.hash(&mut h);
        }
        self.trace.events.hash(&mut h);
        for id in &self.ids {
            if let Some(s) = self.trace.snapshots.get(id) {
                id.hash(&mut h);
                format!("{s:?}").hash(&mut h);
            }
        }
        self.barriers.hash(&mut h);
        h.0
    }
}

/// FNV-1a, so digests do not depend on a randomly keyed hasher.
#[derive(Debug)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Canonical verdict keys per monitor (sorted, duplicates kept).
pub type Verdicts = BTreeMap<MonitorId, Vec<VerdictKey>>;

/// Groups violations into sorted per-monitor key sequences.
pub fn verdicts_of(violations: &[Violation]) -> Verdicts {
    let mut out: Verdicts = BTreeMap::new();
    for v in violations {
        out.entry(v.monitor).or_default().push((v.monitor, v.pid, v.event_seq, v.rule));
    }
    for keys in out.values_mut() {
        keys.sort_unstable();
    }
    out
}

/// Number of keys two verdict maps disagree on (multiset symmetric
/// difference).
pub fn verdict_diff(a: &Verdicts, b: &Verdicts) -> u64 {
    let mut diff = 0u64;
    let monitors: std::collections::BTreeSet<&MonitorId> = a.keys().chain(b.keys()).collect();
    let empty = Vec::new();
    for m in monitors {
        let (x, y) = (a.get(m).unwrap_or(&empty), b.get(m).unwrap_or(&empty));
        let (mut i, mut j) = (0, 0);
        while i < x.len() && j < y.len() {
            match x[i].cmp(&y[j]) {
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
                std::cmp::Ordering::Less => {
                    diff += 1;
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    diff += 1;
                    j += 1;
                }
            }
        }
        diff += (x.len() - i + y.len() - j) as u64;
    }
    diff
}

/// What the inline reference pass computed, and what it cost.
#[derive(Debug, Clone, Default)]
pub struct Reference {
    /// Every verdict (real-time and checkpoint), per monitor.
    pub verdicts: Verdicts,
    /// Stream indices of the events whose real-time check fires.
    pub faulty: Vec<usize>,
    /// Wall time of the whole pass.
    pub total_ns: f64,
    /// Wall time inside `observe_into`, summed.
    pub observe_ns: f64,
    /// Wall time inside the checkpoint barriers, summed.
    pub checkpoint_ns: f64,
    /// Individually timed `observe_into` calls (every `sample`-th).
    pub observe_samples: Vec<f64>,
}

impl Reference {
    /// Total number of verdicts.
    pub fn verdict_count(&self) -> usize {
        self.verdicts.values().map(Vec::len).sum()
    }
}

/// Runs the fleet through one inline [`Detector`] on the fleet's
/// barrier schedule: `observe_into` per event, `checkpoint` with the
/// window at every barrier. `sample` > 0 times every `sample`-th
/// observe on its own.
pub fn reference(fleet: &Fleet, sample: usize) -> Reference {
    let mut det = Detector::new(detector_config());
    for id in &fleet.ids {
        det.register_empty(*id, fleet.trace.specs[id].clone(), Nanos::ZERO);
    }
    let none = HashMap::new();
    let mut all = Vec::new();
    let mut faulty = Vec::new();
    let mut samples = Vec::new();
    let mut observe_ns = 0.0;
    let mut checkpoint_ns = 0.0;
    let t0 = Instant::now();
    let mut start = 0;
    for &end in &fleet.barriers {
        let t = Instant::now();
        for (i, e) in fleet.trace.events[start..end].iter().enumerate() {
            let before = all.len();
            if sample > 0 && (start + i) % sample == 0 {
                let ts = Instant::now();
                det.observe_into(e, &mut all);
                samples.push(ts.elapsed().as_nanos() as f64);
            } else {
                det.observe_into(e, &mut all);
            }
            if all.len() > before {
                faulty.push(start + i);
            }
        }
        observe_ns += t.elapsed().as_nanos() as f64;
        let t = Instant::now();
        let window = &fleet.trace.events[start..end];
        let report =
            det.checkpoint(fleet.barrier_time(end), window, fleet.barrier_snapshots(end, &none));
        checkpoint_ns += t.elapsed().as_nanos() as f64;
        all.extend(report.violations);
        start = end;
    }
    Reference {
        verdicts: verdicts_of(&all),
        faulty,
        total_ns: t0.elapsed().as_nanos() as f64,
        observe_ns,
        checkpoint_ns,
        observe_samples: samples,
    }
}
