//! The seed fully determines the inputs: equal seeds give an identical
//! trace digest and expected-verdict set, different seeds change both.

use perfbench::inputs::{reference, Fleet, FleetShape};
use perfbench::{layer_metrics, table1, END_TO_END, PER_LAYER, WORKLOADS};

/// A fleet of the workloads' composition, small enough for a debug
/// build.
const SMALL: FleetShape = FleetShape {
    pc_monitors: 30,
    pc_items: 12,
    alloc_monitors: 2,
    alloc_rounds: 20,
    barrier_every: 512,
};

#[test]
fn same_seed_same_inputs_and_verdicts() {
    let a = Fleet::generate(SMALL, 7);
    let b = Fleet::generate(SMALL, 7);
    assert_eq!(a.digest(), b.digest());
    let (ra, rb) = (reference(&a, 0), reference(&b, 0));
    assert!(ra.verdict_count() > 0, "the fleet must carry faults");
    assert_eq!(ra.verdicts, rb.verdicts);
    assert_eq!(ra.faulty, rb.faulty);
    assert_eq!(table1::items(7), table1::items(7));
}

#[test]
fn different_seed_changes_inputs_and_verdicts() {
    let a = Fleet::generate(SMALL, 7);
    let b = Fleet::generate(SMALL, 8);
    assert_ne!(a.digest(), b.digest());
    assert_ne!(reference(&a, 0).verdicts, reference(&b, 0).verdicts);
    assert_ne!(table1::items(7), table1::items(8));
}

#[test]
fn buffers_are_clean_and_only_allocators_fault() {
    let fleet = Fleet::generate(SMALL, 3);
    let r = reference(&fleet, 0);
    let buffers = SMALL.pc_monitors as u32;
    assert!(r.verdicts.keys().all(|m| m.index() >= buffers), "{:?}", r.verdicts.keys());
}

#[test]
fn benchmark_json_names_every_reported_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {name} [{unit}]");
    }
    assert_eq!(json.matches("\"better\"").count(), END_TO_END.len() + PER_LAYER.len());
}

#[test]
fn every_per_layer_metric_is_on_some_workloads_path() {
    for w in WORKLOADS {
        for name in layer_metrics(w) {
            assert!(PER_LAYER.iter().any(|(n, _)| n == name), "{w}: {name} is not per-layer");
        }
    }
    for (name, _) in PER_LAYER {
        assert!(
            WORKLOADS.iter().any(|w| layer_metrics(w).contains(&name)),
            "no workload measures {name}"
        );
    }
}
