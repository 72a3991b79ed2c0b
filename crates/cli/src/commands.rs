//! Subcommand implementations. Each writes its report to the supplied
//! writer so tests can capture the output.

use crate::args::{ArgError, Arguments, Command, USAGE};
use mdrep::Params;
use mdrep_baselines::{
    EigenTrust, EigenTrustConfig, Lip, LipConfig, MultiDimensional, MultiTrustHybrid, NoReputation,
    ReputationSystem,
};
use mdrep_crypto::KeyRegistry;
use mdrep_dht::{ChurnSchedule, Dht, DhtConfig, EvaluationPublisher, FaultPlan};
use mdrep_node::{Community, DownloadOutcome, NodeConfig};
use mdrep_sim::{SimConfig, SimReport, Simulation};
use mdrep_types::{Evaluation, FileId, SimDuration, SimTime, UserId};
use mdrep_workload::{BehaviorMix, Trace, TraceBuilder, WorkloadConfig};
use std::io::Write;

/// Runs the parsed command, writing the report to `out`.
///
/// # Errors
///
/// Returns [`ArgError`] for invalid flag values; IO errors writing the
/// report are propagated as a formatted [`ArgError`] too (they indicate a
/// closed pipe, not a usage problem, but the caller treats both as exits).
pub fn run(args: &Arguments, out: &mut dyn Write) -> Result<(), ArgError> {
    let result = match args.command() {
        Command::Help => write_str(out, USAGE),
        Command::Trace => trace_command(args, out),
        Command::Simulate => simulate_command(args, out),
        Command::Coverage => coverage_command(args, out),
        Command::FakeCheck => fake_check_command(args, out),
        Command::DhtDemo => dht_demo_command(args, out),
        Command::Community => community_command(args, out),
    };
    // `--metrics-out`, `--trace-out` and `--series-out`: the telemetry
    // the command collected, written next to whatever it printed.
    let requested = |flag: &str| Some(args.get_str(flag, "")).filter(|path| !path.is_empty());
    for file in mdrep_obs::export(requested) {
        file.result.map_err(|e| {
            ArgError::new(format!("cannot write {} to {}: {e}", file.what, file.path))
        })?;
    }
    result
}

fn build_workload(args: &Arguments) -> Result<Trace, ArgError> {
    let users = args.get_usize("users", 200)?;
    let titles = args.get_usize("titles", users * 2)?;
    let days = args.get_u64("days", 5)?;
    let pollution = args.get_f64("pollution", 0.3)?;
    let seed = args.get_u64("seed", 42)?;
    let config = WorkloadConfig::builder()
        .users(users)
        .titles(titles.max(1))
        .days(days.max(1))
        .behavior_mix(BehaviorMix::realistic())
        .pollution_rate(pollution)
        .seed(seed)
        .build()
        .map_err(|e| ArgError::new(e.to_string()))?;
    Ok(TraceBuilder::new(config).generate())
}

fn build_system(name: &str) -> Result<Box<dyn ReputationSystem>, ArgError> {
    Ok(match name {
        "none" => Box::new(NoReputation::new()),
        "tit-for-tat" | "tft" => Box::new(TitForTatBox::new()),
        "eigentrust" => Box::new(EigenTrust::new(EigenTrustConfig::default())),
        "multi-trust" => Box::new(MultiTrustHybrid::new(2)),
        "lip" => Box::new(Lip::new(LipConfig::default())),
        "multi-dimensional" | "mdrep" => Box::new(MultiDimensional::new(Params::default())),
        other => {
            return Err(ArgError::new(format!(
                "unknown reputation system `{other}`"
            )));
        }
    })
}

// Local alias so build_system reads uniformly.
use mdrep_baselines::TitForTat as TitForTatBox;

fn sim_config(args: &Arguments) -> SimConfig {
    SimConfig {
        filter_fakes: args.switch("filter"),
        differentiate_service: !args.switch("no-differentiation"),
        contribution_weight: if args.switch("contribution") {
            0.5
        } else {
            0.0
        },
        ..SimConfig::default()
    }
}

fn run_simulation(args: &Arguments) -> Result<(Trace, SimReport), ArgError> {
    let trace = build_workload(args)?;
    let system = build_system(&args.get_str("system", "multi-dimensional"))?;
    let report = Simulation::new(sim_config(args), system).run(&trace);
    Ok((trace, report))
}

fn trace_command(args: &Arguments, out: &mut dyn Write) -> Result<(), ArgError> {
    let trace = build_workload(args)?;
    // Optional: save the replayable event log to disk.
    let export = args.get_str("export", "");
    if !export.is_empty() {
        let log = mdrep_workload::EventLog::from_trace(&trace);
        let file = std::fs::File::create(&export)
            .map_err(|e| ArgError::new(format!("cannot create {export}: {e}")))?;
        log.write_to(std::io::BufWriter::new(file))
            .map_err(|e| ArgError::new(format!("cannot write {export}: {e}")))?;
        write_str(out, &format!("event log written to {export}\n"))?;
    }
    let stats = trace.stats();
    let text = format!(
        "workload: {} users, {} titles ({} files, {} fake)\n\
         events: {} total / {} downloads ({} of fakes) / {} votes / {} deletes / {} ranks\n\
         distinct download pairs: {}\n",
        trace.population().len(),
        trace.catalog().title_count(),
        trace.catalog().file_count(),
        trace.catalog().fake_count(),
        stats.events,
        stats.downloads,
        stats.fake_downloads,
        stats.votes,
        stats.deletes,
        stats.ranks,
        stats.distinct_pairs,
    );
    write_str(out, &text)
}

fn simulate_command(args: &Arguments, out: &mut dyn Write) -> Result<(), ArgError> {
    let (_, report) = run_simulation(args)?;
    write_str(out, &report.to_string())
}

fn coverage_command(args: &Arguments, out: &mut dyn Write) -> Result<(), ArgError> {
    let (_, report) = run_simulation(args)?;
    let mut text = format!("system: {}\nday  requests  coverage\n", report.system);
    for point in &report.coverage_series {
        text.push_str(&format!(
            "{:>4.1}  {:>8}  {:.4}\n",
            point.time.as_days_f64(),
            point.requests,
            point.coverage,
        ));
    }
    text.push_str(&format!("mean coverage: {:.4}\n", report.mean_coverage()));
    write_str(out, &text)
}

fn fake_check_command(args: &Arguments, out: &mut dyn Write) -> Result<(), ArgError> {
    // Filtering on regardless of the --filter switch: that is the point.
    let trace = build_workload(args)?;
    let system = build_system(&args.get_str("system", "multi-dimensional"))?;
    let config = SimConfig {
        filter_fakes: true,
        ..sim_config(args)
    };
    let report = Simulation::new(config, system).run(&trace);
    let text = format!(
        "system: {}\nfake requests:     {}\nfakes avoided:     {} ({:.1}%)\n\
         fakes downloaded:  {}\nfalse positives:   {:.1}% of authentic requests\n",
        report.system,
        report.fakes.fake_requests,
        report.fakes.fakes_avoided,
        report.fakes.avoidance_rate() * 100.0,
        report.fakes.fake_downloads,
        report.fakes.false_positive_rate() * 100.0,
    );
    write_str(out, &text)
}

fn dht_demo_command(args: &Arguments, out: &mut dyn Write) -> Result<(), ArgError> {
    let nodes = args.get_u64("nodes", 64)?.max(4);
    let loss = args.get_f64("loss", 0.0)?;
    let churn = args.get_f64("churn", 0.0)?;
    let fault_seed = args.get_u64("fault-seed", 42)?;
    if !(0.0..1.0).contains(&loss) {
        return Err(ArgError::new("--loss must be in [0, 1)"));
    }
    if !(0.0..1.0).contains(&churn) {
        return Err(ArgError::new("--churn must be in [0, 1)"));
    }

    let owner = UserId::new(1);
    let viewer = UserId::new(nodes - 1);
    let mut plan = FaultPlan::message_loss(loss, fault_seed);
    if churn > 0.0 {
        // The walkthrough's protagonists stay online; churn hits the rest.
        plan = plan.with_churn(
            ChurnSchedule::new(SimDuration::from_hours(1), churn)
                .immune(owner)
                .immune(viewer),
        );
    }
    let faulty = !plan.is_quiet();
    let mut dht = Dht::new(DhtConfig {
        fault: plan,
        ..DhtConfig::default()
    });
    let mut registry = KeyRegistry::new();
    for i in 0..nodes {
        dht.join(UserId::new(i), SimTime::ZERO);
        registry.register(UserId::new(i), 31_337 + i);
    }
    let publisher = EvaluationPublisher::new();
    let file = FileId::new(1);
    let key = registry.key_of(owner).expect("registered").clone();
    let replicas = publisher
        .publish(&mut dht, &key, owner, file, Evaluation::BEST, SimTime::ZERO)
        .map_err(|e| ArgError::new(e.to_string()))?;

    // Retrieval happens an hour later, after one churn wave (if any).
    let later = SimTime::ZERO + SimDuration::from_hours(1);
    let (downs, _) = dht.apply_churn(later);
    let outcome = publisher
        .retrieve_detailed(&mut dht, &registry, viewer, file, later)
        .map_err(|e| ArgError::new(e.to_string()))?;
    let stats = dht.stats();
    let mut text = format!(
        "overlay: {} nodes online\npublished {file} from {owner}: {replicas} replicas\n\
         retrieved {} record(s), all signatures {}\n\
         messages: {} find_node, {} store, {} find_value\n",
        dht.online_count(),
        outcome.records.len(),
        if outcome.records.iter().all(|r| r.valid) {
            "valid"
        } else {
            "INVALID"
        },
        stats.find_node,
        stats.store,
        stats.find_value,
    );
    if faulty {
        let trace = dht.fault_trace();
        text.push_str(&format!(
            "faults: {} dropped, {} timed out, {} retries, {} churned down, \
             {} unreachable owner(s)\nfault trace digest: {:016x} (seed {fault_seed})\n",
            trace.drops,
            trace.timeouts,
            stats.retried,
            downs,
            outcome.unreachable.len(),
            trace.digest(),
        ));
        dht.publish_fault_metrics();
    }
    write_str(out, &text)
}

/// A deterministic multiplicative-hash "random" stream, so the CLI needs
/// no RNG dependency of its own.
struct MixStream(u64);

impl MixStream {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 11
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }

    fn chance(&mut self, p: f64) -> bool {
        (self.below(1_000_000) as f64 / 1_000_000.0) < p
    }
}

fn community_command(args: &Arguments, out: &mut dyn Write) -> Result<(), ArgError> {
    let peers = args.get_u64("peers", 32)?.max(4);
    let polluters = args.get_u64("polluters", peers / 8)?.min(peers - 2);
    let days = args.get_u64("days", 5)?.max(1);
    let seed = args.get_u64("seed", 42)?;
    let honest = peers - polluters;
    let mut stream = MixStream(seed | 1);

    let mut community = Community::new(NodeConfig::default());
    for i in 0..peers {
        community.join(UserId::new(i), SimTime::ZERO);
    }
    for i in 0..peers {
        community
            .publish(
                UserId::new(i),
                FileId::new(i),
                mdrep_types::FileSize::from_mib(20),
                SimTime::ZERO,
            )
            .map_err(|e| ArgError::new(e.to_string()))?;
    }

    let mut text = format!(
        "community: {peers} peers ({polluters} polluters), {days} days\n\
         {:>3}  {:>13}  {:>8}  {:>7}\n",
        "day", "fake_requests", "rejected", "slipped",
    );
    let mut now = SimTime::ZERO;
    for day in 1..=days {
        let (mut fake_requests, mut rejected, mut slipped) = (0u64, 0u64, 0u64);
        for _ in 0..80 {
            now = SimTime::from_ticks(now.as_ticks() + 86_400 / 80);
            let downloader = UserId::new(stream.below(honest));
            let fake = stream.chance(0.35);
            let file = if fake {
                FileId::new(honest + stream.below(polluters))
            } else {
                FileId::new(stream.below(honest))
            };
            if fake {
                fake_requests += 1;
            }
            match community.request(downloader, file, now) {
                Ok(DownloadOutcome::Completed { .. }) if fake => {
                    slipped += 1;
                    community
                        .vote(downloader, file, Evaluation::WORST, now)
                        .map_err(|e| ArgError::new(e.to_string()))?;
                    let _ = community.delete(downloader, file, now);
                }
                Ok(DownloadOutcome::RejectedAsFake { .. }) if fake => rejected += 1,
                _ => {}
            }
        }
        community.tick(now);
        text.push_str(&format!(
            "{day:>3}  {fake_requests:>13}  {rejected:>8}  {slipped:>7}\n"
        ));
    }
    text.push_str(&format!(
        "dht messages: {} total\n",
        community.dht().stats().total()
    ));
    write_str(out, &text)
}

fn write_str(out: &mut dyn Write, text: &str) -> Result<(), ArgError> {
    out.write_all(text.as_bytes())
        .map_err(|e| ArgError::new(format!("failed to write output: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_capture(argv: &[&str]) -> String {
        let args = Arguments::parse(argv.iter().copied()).expect("parsable");
        let mut buf = Vec::new();
        run(&args, &mut buf).expect("command succeeds");
        String::from_utf8(buf).expect("utf8 output")
    }

    #[test]
    fn help_prints_usage() {
        let out = run_capture(&["help"]);
        assert!(out.contains("SUBCOMMANDS"));
    }

    #[test]
    fn trace_reports_stats() {
        let out = run_capture(&["trace", "--users", "30", "--days", "2", "--seed", "1"]);
        assert!(out.contains("30 users"));
        assert!(out.contains("downloads"));
    }

    #[test]
    fn simulate_all_systems() {
        for system in [
            "none",
            "tit-for-tat",
            "eigentrust",
            "multi-trust",
            "lip",
            "mdrep",
        ] {
            let out = run_capture(&[
                "simulate", "--users", "25", "--days", "1", "--system", system,
            ]);
            assert!(out.contains("requests"), "{system}: {out}");
        }
    }

    #[test]
    fn unknown_system_errors() {
        let args = Arguments::parse(["simulate", "--system", "astrology"]).unwrap();
        let mut buf = Vec::new();
        assert!(run(&args, &mut buf).is_err());
    }

    #[test]
    fn coverage_prints_series() {
        let out = run_capture(&["coverage", "--users", "25", "--days", "1", "--seed", "3"]);
        assert!(out.contains("mean coverage"));
        assert!(out.contains("day"));
    }

    #[test]
    fn fake_check_reports_rates() {
        let out = run_capture(&[
            "fake-check",
            "--users",
            "30",
            "--days",
            "1",
            "--pollution",
            "0.5",
        ]);
        assert!(out.contains("fakes avoided"));
        assert!(out.contains("false positives"));
    }

    #[test]
    fn community_pipeline_runs() {
        let out = run_capture(&["community", "--peers", "12", "--days", "2", "--seed", "3"]);
        assert!(out.contains("12 peers"));
        assert!(out.contains("dht messages"));
    }

    #[test]
    fn dht_demo_round_trips() {
        let out = run_capture(&["dht-demo", "--nodes", "16"]);
        assert!(out.contains("16 nodes online"));
        assert!(out.contains("signatures valid"));
        assert!(!out.contains("fault trace"), "quiet run prints no faults");
    }

    #[test]
    fn dht_demo_under_faults_prints_trace_summary() {
        let flags = [
            "dht-demo",
            "--nodes",
            "32",
            "--loss",
            "0.2",
            "--churn",
            "0.2",
            "--fault-seed",
            "7",
        ];
        let out = run_capture(&flags);
        assert!(out.contains("signatures valid"), "retries still succeed");
        assert!(out.contains("faults:"), "fault summary printed");
        assert!(out.contains("fault trace digest"), "digest printed");
        assert_eq!(out, run_capture(&flags), "same seed, same output");
    }

    #[test]
    fn trace_and_series_flags_write_files() {
        let dir = std::env::temp_dir();
        let trace_path = dir.join("mdrep_cli_test_trace.json");
        let series_path = dir.join("mdrep_cli_test_series.csv");
        let out = run_capture(&[
            "simulate",
            "--users",
            "25",
            "--days",
            "1",
            "--trace-out",
            trace_path.to_str().unwrap(),
            "--series-out",
            series_path.to_str().unwrap(),
        ]);
        assert!(out.contains("requests"));
        let trace = std::fs::read_to_string(&trace_path).expect("trace written");
        assert!(trace.contains("traceEvents"));
        assert!(trace.contains("sim.tick.recompute"));
        let series = std::fs::read_to_string(&series_path).expect("series written");
        assert!(series.starts_with("series,ticks,value"));
        assert!(series.contains("sim.coverage.interval"));
        let _ = std::fs::remove_file(trace_path);
        let _ = std::fs::remove_file(series_path);
    }

    #[test]
    fn dht_demo_rejects_out_of_range_fault_flags() {
        let args = Arguments::parse(["dht-demo", "--loss", "1.5"]).unwrap();
        let mut buf = Vec::new();
        assert!(run(&args, &mut buf).is_err());
        let args = Arguments::parse(["dht-demo", "--churn", "-0.1"]).unwrap();
        let mut buf = Vec::new();
        assert!(run(&args, &mut buf).is_err());
    }
}
