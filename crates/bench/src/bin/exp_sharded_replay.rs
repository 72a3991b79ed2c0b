//! **BENCH-SHARD** — the Maze-scale concurrent replay gate: one writer
//! ingests a synthetic 170k-user event stream through the sharded engine
//! and publishes epochs while query threads hammer Eq. 9 against the live
//! snapshot. Exits nonzero when the run busts its wall-clock budget, when
//! the final matrix is empty, or when the shard-equivalence pre-check
//! fails — the CI `concurrency` job runs this once per push.
//!
//! Flags (all `--flag V` or `--flag=V`):
//! - `--users`, `--files`, `--events`, `--epochs`, `--shards`,
//!   `--query-threads`, `--seed` — replay shape (default: the ISSUE's
//!   170k-user Maze-scale configuration);
//! - `--quick` — smoke scale (2k users), for the bench-smoke lane;
//! - `--million-users` — 1M users / 24.6M events with capped Eq. 2
//!   evaluator pairing: an extrapolation past the paper's Maze trace
//!   (1.7×10⁵ users) to the one-machine ceiling;
//! - `--threads` — recompute worker threads (0 = auto);
//! - `--max-evaluators` — Eq. 2 evaluator cap per file (0 = unbounded);
//! - `--max-wall-secs` — wall-clock budget for the replay itself
//!   (default 300: "completes in minutes on one machine");
//! - `--max-peak-rss-gb` — peak-RSS budget, read from `VmHWM` in
//!   `/proc/self/status` after the run (Linux only; 0 = no check);
//! - `--skip-equivalence` — skip the smoke-scale shard-count digest check.
//!
//! Run: `cargo run -p mdrep-bench --bin exp_sharded_replay --release -- \
//!       --max-wall-secs 300 --metrics-out results/sharded_replay.json`

use mdrep_bench::Table;
use mdrep_sim::{run_replay, ReplayConfig, ReplayReport};

fn flag_u64(flag: &str, default: u64) -> u64 {
    mdrep_bench::arg_value(flag).map_or(default, |v| v.parse().expect("flag takes a u64"))
}

fn has_flag(flag: &str) -> bool {
    std::env::args().skip(1).any(|a| a == flag)
}

fn config_from_args() -> ReplayConfig {
    let mut config = if has_flag("--quick") {
        ReplayConfig::smoke()
    } else if has_flag("--million-users") {
        ReplayConfig::million_users()
    } else {
        ReplayConfig::maze_scale()
    };
    config.users = flag_u64("--users", config.users);
    config.files = flag_u64("--files", config.files);
    config.events = flag_u64("--events", config.events);
    config.epochs = flag_u64("--epochs", config.epochs);
    config.shards = flag_u64("--shards", config.shards as u64) as usize;
    config.query_threads = flag_u64("--query-threads", config.query_threads as u64) as usize;
    config.seed = flag_u64("--seed", config.seed);
    config.threads = flag_u64("--threads", config.threads as u64) as usize;
    let cap = config.max_evaluators_per_file.unwrap_or(0);
    config.max_evaluators_per_file = match flag_u64("--max-evaluators", cap as u64) {
        0 => None,
        n => Some(n as usize),
    };
    config
}

/// Peak resident-set size of this process in bytes, from `VmHWM` in
/// `/proc/self/status`. `None` off Linux or when the field is absent.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

/// Smoke-scale pre-check: the published digest must be identical at shard
/// counts 1 and N — the bit-exact contract the proptests pin down, cheap
/// enough to re-verify on every CI run.
fn shard_equivalence_holds(shards: usize) -> bool {
    let mut small = ReplayConfig::smoke();
    small.users = 500;
    small.files = 120;
    small.events = 5_000;
    small.epochs = 3;
    small.query_threads = 0;
    small.shards = 1;
    let one = run_replay(&small);
    small.shards = shards.max(2);
    let many = run_replay(&small);
    one.rm_digest == many.rm_digest
}

fn export_metrics(report: &ReplayReport) {
    let obs = mdrep_obs::global();
    obs.gauge_set("exp.sharded.users", report.users as f64);
    obs.gauge_set("exp.sharded.events", report.events as f64);
    obs.gauge_set("exp.sharded.epochs", report.epochs as f64);
    obs.gauge_set("exp.sharded.queries", report.queries as f64);
    obs.gauge_set("exp.sharded.wall_secs", report.wall_ns as f64 / 1e9);
    obs.gauge_set("exp.sharded.epoch_ms", report.epoch_ms());
    obs.gauge_set("exp.sharded.events_per_sec", report.events_per_sec());
    obs.gauge_set("exp.sharded.rm_nnz", report.rm_nnz as f64);
    obs.gauge_set(
        "exp.sharded.last_publish_rows",
        report.last_publish_rows as f64,
    );
    obs.gauge_set(
        "exp.sharded.last_publish_bytes",
        report.last_publish_bytes as f64,
    );
    if let Some(rss) = peak_rss_bytes() {
        obs.gauge_set("exp.sharded.peak_rss_bytes", rss as f64);
    }
}

fn main() {
    let config = config_from_args();
    let budget_secs = flag_u64("--max-wall-secs", 300);

    let mut violations = 0usize;
    if !has_flag("--skip-equivalence") {
        if shard_equivalence_holds(config.shards) {
            println!("shard-equivalence pre-check: ok (digest identical at 1 and N shards)");
        } else {
            println!("shard-equivalence pre-check: VIOLATED");
            violations += 1;
        }
    }

    let report = run_replay(&config);
    export_metrics(&report);

    let mut table = Table::new(
        "BENCH-SHARD: concurrent Maze-scale replay",
        &["metric", "value"],
    );
    table.row(&["users".into(), report.users.to_string()]);
    table.row(&["shards".into(), config.shards.to_string()]);
    table.row(&["query threads".into(), config.query_threads.to_string()]);
    table.row(&["events ingested".into(), report.events.to_string()]);
    table.row(&["epochs published".into(), report.epochs.to_string()]);
    table.row(&[
        "ingest throughput".into(),
        format!("{:.0} events/s", report.events_per_sec()),
    ]);
    table.row(&["mean epoch".into(), format!("{:.1} ms", report.epoch_ms())]);
    table.row(&["Eq. 9 queries answered".into(), report.queries.to_string()]);
    table.row(&["final RM nnz".into(), report.rm_nnz.to_string()]);
    table.row(&["final digest".into(), format!("{:016x}", report.rm_digest)]);
    table.row(&[
        "wall time".into(),
        format!("{:.1} s", report.wall_ns as f64 / 1e9),
    ]);
    // The engine's own COW publish gauges (set by the last epoch): rows
    // actually republished and the bytes the publication copied.
    let engine_gauges = mdrep_obs::global().snapshot();
    table.row(&[
        "rows republished (last epoch)".into(),
        engine_gauges
            .gauge("engine.sharded.rows_republished")
            .map_or_else(
                || report.last_publish_rows.to_string(),
                |v| format!("{v:.0}"),
            ),
    ]);
    table.row(&[
        "snapshot bytes (last epoch)".into(),
        engine_gauges
            .gauge("engine.sharded.snapshot_bytes")
            .map_or_else(
                || report.last_publish_bytes.to_string(),
                |v| format!("{v:.0}"),
            ),
    ]);
    if let Some(rss) = peak_rss_bytes() {
        table.row(&[
            "peak RSS".into(),
            format!("{:.2} GiB", rss as f64 / (1024.0 * 1024.0 * 1024.0)),
        ]);
    }
    table.finish("sharded_replay");

    let wall_secs = report.wall_ns as f64 / 1e9;
    if wall_secs > budget_secs as f64 {
        println!("wall-clock budget: VIOLATED ({wall_secs:.1}s > {budget_secs}s)");
        violations += 1;
    } else {
        println!("wall-clock budget: ok ({wall_secs:.1}s <= {budget_secs}s)");
    }
    if report.rm_nnz == 0 {
        println!("non-empty matrix: VIOLATED (RM has no entries)");
        violations += 1;
    }
    if config.query_threads > 0 && report.queries == 0 {
        println!("concurrent reads: VIOLATED (no Eq. 9 query answered)");
        violations += 1;
    }
    let rss_budget_gb = flag_u64("--max-peak-rss-gb", 0);
    if rss_budget_gb > 0 {
        match peak_rss_bytes() {
            Some(rss) => {
                let gib = rss as f64 / (1024.0 * 1024.0 * 1024.0);
                if gib > rss_budget_gb as f64 {
                    println!("peak-RSS budget: VIOLATED ({gib:.2} GiB > {rss_budget_gb} GiB)");
                    violations += 1;
                } else {
                    println!("peak-RSS budget: ok ({gib:.2} GiB <= {rss_budget_gb} GiB)");
                }
            }
            None => println!("peak-RSS budget: skipped (no /proc/self/status VmHWM)"),
        }
    }

    mdrep_bench::write_metrics_if_requested();
    if violations > 0 {
        println!("{violations} violated bound(s)");
        std::process::exit(1);
    }
}
