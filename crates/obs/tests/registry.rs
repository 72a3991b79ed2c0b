//! Behavioural contracts of the instrumentation registry: bucket
//! boundaries, counter saturation, JSON round-tripping, and span nesting.

use mdrep_obs::{json, Registry, Snapshot, DEFAULT_BUCKETS};
use proptest::prelude::*;
use std::time::Duration;

#[test]
fn histogram_bucket_boundaries_are_inclusive_upper_bounds() {
    let r = Registry::new();
    r.histogram_with_bounds("obs.test.hist", &[1.0, 10.0, 100.0]);
    // Exactly on a bound lands in that bucket (inclusive upper bound);
    // just above spills into the next; above the last bound overflows.
    for v in [0.5, 1.0] {
        r.histogram_record("obs.test.hist", v);
    }
    for v in [1.0001, 10.0] {
        r.histogram_record("obs.test.hist", v);
    }
    r.histogram_record("obs.test.hist", 100.0);
    r.histogram_record("obs.test.hist", 100.0001);
    r.histogram_record("obs.test.hist", f64::INFINITY);
    let s = r.snapshot();
    let h = s.histogram("obs.test.hist").expect("recorded");
    assert_eq!(h.bounds, vec![1.0, 10.0, 100.0]);
    assert_eq!(h.counts, vec![2, 2, 1, 2]);
    assert_eq!(h.count, 7);
}

#[test]
fn histogram_bounds_are_sorted_and_deduped() {
    let r = Registry::new();
    r.histogram_with_bounds("obs.test.hist", &[10.0, 1.0, 10.0, f64::NAN, 5.0]);
    r.histogram_record("obs.test.hist", 3.0);
    let s = r.snapshot();
    let h = s.histogram("obs.test.hist").expect("recorded");
    assert_eq!(h.bounds, vec![1.0, 5.0, 10.0]);
    assert_eq!(h.counts, vec![0, 1, 0, 0]);
}

#[test]
fn histogram_nan_sample_goes_to_overflow() {
    let r = Registry::new();
    r.histogram_with_bounds("obs.test.hist", &[1.0]);
    r.histogram_record("obs.test.hist", f64::NAN);
    let s = r.snapshot();
    let h = s.histogram("obs.test.hist").expect("recorded");
    assert_eq!(h.counts, vec![0, 1]);
}

#[test]
fn unregistered_histogram_gets_default_buckets() {
    let r = Registry::new();
    r.histogram_record("obs.test.hist", 0.05);
    let s = r.snapshot();
    let h = s.histogram("obs.test.hist").expect("recorded");
    assert_eq!(h.bounds, DEFAULT_BUCKETS.to_vec());
    assert_eq!(h.counts.len(), DEFAULT_BUCKETS.len() + 1);
    assert_eq!(h.count, 1);
}

#[test]
fn counters_saturate_instead_of_wrapping() {
    let r = Registry::new();
    r.counter_add("obs.test.count", u64::MAX - 1);
    r.counter_add("obs.test.count", 5);
    assert_eq!(r.snapshot().counter("obs.test.count"), Some(u64::MAX));
    r.counter_inc("obs.test.count");
    assert_eq!(
        r.snapshot().counter("obs.test.count"),
        Some(u64::MAX),
        "stays pinned"
    );
}

#[test]
fn timer_totals_saturate() {
    let r = Registry::new();
    r.record_duration("obs.test.timer", Duration::MAX);
    r.record_duration("obs.test.timer", Duration::MAX);
    let s = r.snapshot();
    let t = s.timer("obs.test.timer").expect("recorded");
    assert_eq!(t.total_ns, u64::MAX);
    assert_eq!(t.count, 2);
}

#[test]
fn json_round_trips_a_populated_registry() {
    let r = Registry::new();
    r.counter_add("dht.lookup.timeouts", 42);
    r.counter_add("engine.decide.accept", 7);
    r.gauge_set("engine.tm.density", 0.125);
    r.gauge_set("obs.gauge.nan", f64::NAN);
    r.gauge_set("obs.gauge.inf", f64::INFINITY);
    r.record_duration("engine.recompute.total", Duration::from_micros(1500));
    r.record_duration("engine.recompute.total", Duration::from_micros(500));
    r.histogram_with_bounds("sim.queue.depth", &[1.0, 4.0, 16.0]);
    r.histogram_record("sim.queue.depth", 3.0);
    r.histogram_record("sim.queue.depth", 100.0);

    let text = r.snapshot().to_json();
    let doc = json::parse(&text).expect("writer output parses");

    let counters = doc.get("counters").unwrap();
    assert_eq!(
        counters.get("dht.lookup.timeouts").unwrap().as_f64(),
        Some(42.0)
    );
    assert_eq!(
        counters.get("engine.decide.accept").unwrap().as_f64(),
        Some(7.0)
    );

    let gauges = doc.get("gauges").unwrap();
    assert_eq!(
        gauges.get("engine.tm.density").unwrap().as_f64(),
        Some(0.125)
    );
    // Non-finite values survive as strings so the document stays valid JSON.
    assert_eq!(gauges.get("obs.gauge.nan").unwrap().as_str(), Some("NaN"));
    assert_eq!(gauges.get("obs.gauge.inf").unwrap().as_str(), Some("inf"));

    let timer = doc
        .get("timers")
        .unwrap()
        .get("engine.recompute.total")
        .unwrap();
    assert_eq!(timer.get("count").unwrap().as_f64(), Some(2.0));
    assert_eq!(timer.get("total_ns").unwrap().as_f64(), Some(2_000_000.0));
    assert_eq!(timer.get("min_ns").unwrap().as_f64(), Some(500_000.0));
    assert_eq!(timer.get("max_ns").unwrap().as_f64(), Some(1_500_000.0));
    assert_eq!(timer.get("mean_ns").unwrap().as_f64(), Some(1_000_000.0));

    let hist = doc
        .get("histograms")
        .unwrap()
        .get("sim.queue.depth")
        .unwrap();
    let bounds: Vec<f64> = hist
        .get("bounds")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .filter_map(json::Value::as_f64)
        .collect();
    let counts: Vec<f64> = hist
        .get("counts")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .filter_map(json::Value::as_f64)
        .collect();
    assert_eq!(bounds, vec![1.0, 4.0, 16.0]);
    assert_eq!(counts, vec![0.0, 1.0, 0.0, 1.0]);
    assert_eq!(hist.get("count").unwrap().as_f64(), Some(2.0));
    // Percentile estimates ride along: both samples sit in or above the
    // (1, 4] bucket, so the median interpolates inside it and p99 clamps
    // to the highest finite bound (the second sample overflowed).
    let p50 = hist.get("p50").unwrap().as_f64().unwrap();
    assert!((1.0..=4.0).contains(&p50), "p50 = {p50}");
    assert_eq!(hist.get("p99").unwrap().as_f64(), Some(16.0));
}

#[test]
fn json_escapes_weird_names() {
    // The writer must escape arbitrary keys even though the registry's
    // debug assertion rejects them at record time; build the snapshot
    // directly to exercise the escaping path.
    let mut snap = Snapshot::default();
    snap.gauges.insert("weird \"name\"\n".to_owned(), -3.5);
    let doc = json::parse(&snap.to_json()).expect("writer output parses");
    assert_eq!(
        doc.get("gauges")
            .unwrap()
            .get("weird \"name\"\n")
            .unwrap()
            .as_f64(),
        Some(-3.5)
    );
}

#[test]
fn empty_snapshot_serializes_to_empty_sections() {
    let doc = json::parse(&Registry::new().snapshot().to_json()).expect("parses");
    for section in ["counters", "gauges", "timers", "histograms"] {
        assert!(
            doc.get(section).unwrap().as_object().unwrap().is_empty(),
            "{section}"
        );
    }
}

proptest! {
    /// Strictly nested phases record consistent timers: with the parent
    /// opened before and closed after its children, the parent's recorded
    /// time dominates its child's, and every phase records exactly once
    /// per iteration.
    #[test]
    fn phases_nest_consistently(depth in 1usize..5, spins in 0u64..2000, reps in 1usize..4) {
        // Phases record into the global registry, which keeps earlier
        // cases' timers: compare this case's deltas.
        let before = mdrep_obs::global().snapshot();
        for _ in 0..reps {
            nest(0, depth, spins);
        }
        let after = mdrep_obs::global().snapshot();
        let delta = |level: usize| {
            let name = level_name(level);
            let t = after.timer(name).copied().expect("recorded");
            let b = before.timer(name).copied().unwrap_or_default();
            (t.count - b.count, t.total_ns - b.total_ns)
        };
        for level in 0..depth {
            let (count, total_ns) = delta(level);
            prop_assert_eq!(count, reps as u64);
            if level + 1 < depth {
                // Each parent strictly encloses its child in wall time, so
                // the sums are ordered.
                let (_, child_ns) = delta(level + 1);
                prop_assert!(total_ns >= child_ns, "parent {} < child {}", total_ns, child_ns);
            }
        }
    }
}

fn level_name(level: usize) -> &'static str {
    const NAMES: [&str; 5] = [
        "obs.phase.l0",
        "obs.phase.l1",
        "obs.phase.l2",
        "obs.phase.l3",
        "obs.phase.l4",
    ];
    NAMES[level]
}

fn nest(level: usize, depth: usize, spins: u64) {
    if level == depth {
        return;
    }
    let _phase = mdrep_obs::phase(level_name(level));
    // A little deterministic work so elapsed times are non-trivial.
    let mut acc = 0u64;
    for i in 0..spins {
        acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
    }
    std::hint::black_box(acc);
    nest(level + 1, depth, spins);
}
