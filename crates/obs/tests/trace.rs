//! Trace-export contracts: random span trees must survive a Chrome-trace
//! JSON round trip with identical names, ids, parent links, timings, and
//! annotations.

use mdrep_obs::json::{self, Value};
use mdrep_obs::trace::{TraceEvent, Tracer};
use proptest::prelude::*;

/// Static name pool (span names are `&'static str` by design).
const NAMES: [&str; 5] = [
    "obs.prop.alpha",
    "obs.prop.beta",
    "obs.prop.gamma",
    "obs.prop.delta",
    "obs.prop.epsilon",
];

/// Emits a span tree described in preorder by `(name_idx, n_children)`
/// pairs, returning what each span's event must look like afterwards:
/// `(id, expected_parent, name, annotation)`.
fn emit(
    tracer: &Tracer,
    nodes: &[(usize, usize)],
    cursor: &mut usize,
    expected: &mut Vec<(u64, u64, &'static str, String)>,
) {
    let Some(&(name_idx, n_children)) = nodes.get(*cursor) else {
        return;
    };
    *cursor += 1;
    let name = NAMES[name_idx % NAMES.len()];
    let mut span = tracer.span(name);
    let note = format!("node-{}", expected.len());
    span.annotate("note", note.clone());
    // The parent is whatever span was open when this one started; the
    // tracer tracks that through its thread-local stack, and we record
    // the id so the exported parent link can be checked independently.
    let parent_marker = expected.len();
    expected.push((span.id(), 0, name, note));
    for _ in 0..n_children {
        let parent_id = expected[parent_marker].0;
        let before = expected.len();
        emit(tracer, nodes, cursor, expected);
        if let Some(child) = expected.get_mut(before) {
            child.1 = parent_id;
        }
    }
}

/// One parsed Chrome-trace event, projected for comparison.
#[derive(Debug, PartialEq)]
struct Projected {
    name: String,
    id: u64,
    parent: u64,
    ts: u64,
    dur: u64,
    args: Vec<(String, String)>,
}

fn project_json(doc: &Value) -> Vec<Projected> {
    doc.get("traceEvents")
        .expect("traceEvents key")
        .as_array()
        .expect("array")
        .iter()
        .map(|e| {
            assert_eq!(e.get("ph").unwrap().as_str(), Some("X"));
            let args = e.get("args").unwrap().as_object().unwrap();
            let mut extra: Vec<(String, String)> = args
                .iter()
                .filter(|(k, _)| k.as_str() != "span_id" && k.as_str() != "parent_id")
                .map(|(k, v)| (k.clone(), v.as_str().unwrap().to_owned()))
                .collect();
            extra.sort();
            Projected {
                name: e.get("name").unwrap().as_str().unwrap().to_owned(),
                id: args["span_id"].as_f64().unwrap() as u64,
                parent: args["parent_id"].as_f64().unwrap() as u64,
                ts: e.get("ts").unwrap().as_f64().unwrap() as u64,
                dur: e.get("dur").unwrap().as_f64().unwrap() as u64,
                args: extra,
            }
        })
        .collect()
}

fn project_event(e: &TraceEvent) -> Projected {
    let mut args: Vec<(String, String)> = e
        .args
        .iter()
        .map(|(k, v)| ((*k).to_owned(), v.clone()))
        .collect();
    args.sort();
    Projected {
        name: e.name.to_owned(),
        id: e.id,
        parent: e.parent,
        ts: e.start_us,
        dur: e.dur_us,
        args,
    }
}

proptest! {
    /// Export → reparse is lossless: the reparsed events are exactly the
    /// recorded ones (same tree, same durations, same annotations), and
    /// the recorded parent links match the emission structure.
    #[test]
    fn chrome_trace_round_trips(
        nodes in proptest::collection::vec((0usize..NAMES.len(), 0usize..3), 1..25)
    ) {
        let tracer = Tracer::new();
        let mut expected = Vec::new();
        let mut cursor = 0;
        // Top-level loop: unconsumed nodes start new roots.
        while cursor < nodes.len() {
            emit(&tracer, &nodes, &mut cursor, &mut expected);
        }

        let events = tracer.events();
        prop_assert_eq!(events.len(), expected.len());
        // Recorded events, looked up by id, match the emission structure.
        for (id, parent, name, note) in &expected {
            let event = events.iter().find(|e| e.id == *id).expect("event for id");
            prop_assert_eq!(event.parent, *parent, "parent of {}", name);
            prop_assert_eq!(event.name, *name);
            prop_assert_eq!(&event.args, &vec![("note", note.clone())]);
        }
        // Children never start before or outlive their parents.
        for e in &events {
            if e.parent != 0 {
                let p = events.iter().find(|c| c.id == e.parent).expect("parent");
                prop_assert!(e.start_us >= p.start_us);
                // Microsecond flooring can make a child's rounded end
                // overshoot its parent's by up to 2µs; real time nests.
                prop_assert!(e.start_us + e.dur_us <= p.start_us + p.dur_us + 2);
            }
        }

        let doc = json::parse(&tracer.to_chrome_json()).expect("valid chrome JSON");
        let reparsed = project_json(&doc);
        let original: Vec<Projected> = events.iter().map(project_event).collect();
        prop_assert_eq!(reparsed, original);
    }
}

#[test]
fn phase_records_one_timer_and_one_span_under_one_name() {
    {
        let mut outer = mdrep_obs::phase("obs.test.phase_outer");
        outer.annotate("k", "v");
        drop(mdrep_obs::phase("obs.test.phase_inner"));
    }
    let timers = mdrep_obs::global().snapshot();
    assert!(timers.timer("obs.test.phase_outer").is_some());
    assert!(timers.timer("obs.test.phase_inner").is_some());
    let events = mdrep_obs::tracer().events();
    let outer = events
        .iter()
        .find(|e| e.name == "obs.test.phase_outer")
        .expect("outer span recorded");
    let inner = events
        .iter()
        .find(|e| e.name == "obs.test.phase_inner")
        .expect("inner span recorded");
    assert_eq!(inner.parent, outer.id, "phases nest like trace spans");
    assert_eq!(outer.args, vec![("k", "v".to_string())]);
}
