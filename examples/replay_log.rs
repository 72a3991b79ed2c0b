//! Replaying a saved event log: generate a workload, export it to the
//! plain-text log format, read it back, and feed the replayed events into
//! a fresh reputation engine — the workflow for analysing a *real*
//! deployment's records offline.
//!
//! Run with: `cargo run --example replay_log`

use mdrep_repro::core::{EngineEvent, Params, ReputationEngine};
use mdrep_repro::types::{SimDuration, SimTime};
use mdrep_repro::workload::{BehaviorMix, EventKind, EventLog, TraceBuilder, WorkloadConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Generate and export.
    let trace = TraceBuilder::new(
        WorkloadConfig::builder()
            .users(80)
            .titles(120)
            .days(3)
            .behavior_mix(BehaviorMix::realistic())
            .pollution_rate(0.3)
            .seed(5150)
            .build()?,
    )
    .generate();
    let log = EventLog::from_trace(&trace);
    let path = std::env::temp_dir().join("mdrep-replay-example.log");
    log.write_to(std::io::BufWriter::new(std::fs::File::create(&path)?))?;
    println!(
        "exported {} events to {}",
        log.events().len(),
        path.display()
    );

    // 2. Read it back — from here on, only the log file is used.
    let parsed = EventLog::read_from(std::io::BufReader::new(std::fs::File::open(&path)?))?;
    assert_eq!(parsed, log);
    let sizes = parsed.size_table();

    // 3. Replay into a fresh engine, sizes from the log's own table.
    let mut engine = ReputationEngine::new(Params::default());
    for event in parsed.events() {
        if let Some(event) = EngineEvent::from_trace_with(event, |file| sizes.get(&file).copied()) {
            event.apply_to(&mut engine);
        }
    }
    let end = SimTime::ZERO + SimDuration::from_days(3);
    engine.recompute(end);

    // 4. The replayed engine answers exactly like one fed from the trace.
    let requests: Vec<_> = parsed
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Download {
                downloader,
                uploader,
                ..
            } => Some((downloader, uploader)),
            _ => None,
        })
        .collect();
    println!(
        "replayed engine: {:.1}% request coverage over {} downloads",
        engine.request_coverage(&requests) * 100.0,
        requests.len(),
    );

    let mut reference = ReputationEngine::new(Params::default());
    for event in trace.events() {
        reference.observe_trace_event(event, trace.catalog());
    }
    reference.recompute(end);
    assert_eq!(
        engine.request_coverage(&requests),
        reference.request_coverage(&requests),
        "log replay matches the original trace exactly"
    );
    println!("replay matches the directly-fed engine bit for bit");

    std::fs::remove_file(&path).ok();
    Ok(())
}
