//! **CACHE** — the reputation-cache/gossip tier at scale, as a CI gate:
//! seeded cache sweeps ([`run_cache_sweep`]) drive the real
//! `mdrep_dht::EvaluationCacheTier` over a real overlay at 10k–30k nodes
//! under the default cache fault plan (10% message loss + churn waves),
//! measuring lookup hit ratio, message volume, staleness, and divergence.
//!
//! Gated bounds (checked on the 10k-node row, `--no-gate` skips):
//! - steady-state cache-hit ratio ≥ [`HIT_RATIO_BAR`];
//! - zero hits served at or beyond their TTL;
//! - zero hits diverging from the records their owners published;
//! - lookup accounting conserved (hits + misses = lookups, lookups +
//!   offline viewers = queries);
//! - the row replays bit-identically (report + fault digest) from its seed.
//!
//! The gated row also exports its counters as `sim.cache_sweep.*` and
//! re-checks the bounds declaratively through an [`mdrep_obs::SloWatchdog`]
//! (counter-ratio and counter-max SLOs), so the telemetry path is gated
//! too, not just the in-process numbers.
//!
//! `--bounded` runs only the gated 10k row (the CI `cache-gate` job);
//! the full run adds a 30k scale row and a TTL sweep.
//!
//! Run: `cargo run -p mdrep-bench --bin exp_cache_sweep --release -- \
//!       --seed 42 --bounded --metrics-out results/cache_sweep.json`

use mdrep_bench::Table;
use mdrep_dht::{CacheConfig, ChurnSchedule, FaultPlan};
use mdrep_sim::{run_cache_sweep, CacheSweepConfig, CacheSweepReport};
use mdrep_types::SimDuration;

/// The steady-state hit-ratio bar of the gated 10k row, derived from the
/// tier's own spread: over seeds 1–10, 42, 101, 202 and 303 the row read
/// 0.701–0.802, and the bar is the lowest reading less half that spread
/// (0.650).
const HIT_RATIO_BAR: f64 = 0.65;

fn flag(name: &str) -> bool {
    std::env::args().skip(1).any(|a| a == name)
}

fn seed_from_args() -> u64 {
    mdrep_bench::arg_value("--seed").map_or(42, |v| v.parse().expect("--seed takes a u64"))
}

/// The default fault plan of the cache experiments: 10% message loss plus
/// periodic churn waves taking 10% of the population down.
fn default_plan(seed: u64) -> FaultPlan {
    FaultPlan::message_loss(0.1, seed)
        .with_churn(ChurnSchedule::new(SimDuration::from_mins(10), 0.1))
}

fn sweep_config(nodes: usize, ttl: SimDuration, seed: u64) -> CacheSweepConfig {
    CacheSweepConfig {
        nodes,
        queries: (nodes * 4).max(20_000),
        viewer_zipf: 1.8,
        file_zipf: 1.5,
        cache: CacheConfig {
            capacity: 1024,
            ttl,
        },
        fault: default_plan(seed),
        seed,
        ..CacheSweepConfig::default()
    }
}

fn add_row(table: &mut Table, label: &str, report: &CacheSweepReport) {
    table.row(&[
        label.to_string(),
        report.nodes.to_string(),
        report.ttl_ticks.to_string(),
        report.queries.to_string(),
        report.offline_viewers.to_string(),
        format!("{:.3}", report.cache.hit_ratio()),
        format!("{:.3}", report.steady_hit_ratio()),
        format!("{:.1}", report.cache.mean_hit_age_ticks()),
        report.cache.max_hit_age_ticks.to_string(),
        report.stale_hits.to_string(),
        report.divergent_hits.to_string(),
        report.uncacheable_partial.to_string(),
        format!("{:.2}", report.messages as f64 / report.queries as f64),
        report.gossip.records_accepted.to_string(),
    ]);
}

/// Exports the gated row's counters and re-checks the bounds through the
/// declarative SLO watchdog. Returns whether every SLO holds.
fn check_slos(report: &CacheSweepReport) -> bool {
    let obs = mdrep_obs::global();
    obs.counter_add("sim.cache_sweep.lookups", report.cache.lookups);
    obs.counter_add("sim.cache_sweep.hits", report.cache.hits);
    obs.counter_add("sim.cache_sweep.misses", report.cache.misses);
    obs.counter_add("sim.cache_sweep.steady_lookups", report.steady_lookups);
    obs.counter_add("sim.cache_sweep.steady_hits", report.steady_hits);
    obs.counter_add("sim.cache_sweep.stale_hits", report.stale_hits);
    obs.counter_add("sim.cache_sweep.divergent_hits", report.divergent_hits);
    obs.counter_add(
        "sim.cache_sweep.gossip.prefills",
        report.gossip.records_accepted,
    );
    obs.gauge_set(
        "sim.cache_sweep.steady_hit_ratio",
        report.steady_hit_ratio(),
    );

    let watchdog = mdrep_obs::SloWatchdog::new()
        .with(mdrep_obs::Slo::counter_ratio_min(
            "cache-hit-ratio",
            "sim.cache_sweep.steady_hits",
            "sim.cache_sweep.steady_lookups",
            HIT_RATIO_BAR,
        ))
        .with(mdrep_obs::Slo::counter_max(
            "cache-stale-serves",
            "sim.cache_sweep.stale_hits",
            0,
        ))
        .with(mdrep_obs::Slo::counter_max(
            "cache-divergence",
            "sim.cache_sweep.divergent_hits",
            0,
        ));
    let violations = watchdog.evaluate(
        &obs.snapshot(),
        mdrep_obs::series(),
        &mdrep_obs::tracer().stats(),
    );
    for violation in &violations {
        eprintln!("{violation}");
    }
    if violations.is_empty() {
        println!("cache sweep: all {} SLOs hold", watchdog.slos().len());
    }
    violations.is_empty()
}

fn main() {
    let seed = seed_from_args();
    let bounded = flag("--bounded");
    let gate_enabled = !flag("--no-gate");
    let ttl = SimDuration::from_hours(1);

    let mut table = Table::new(
        &format!("Reputation-cache sweep, seed {seed} (10% loss + churn waves)"),
        &[
            "row", "nodes", "ttl", "queries", "offline", "hit", "steady", "mean_age", "max_age",
            "stale", "diverg", "partial", "msg/q", "prefills",
        ],
    );

    // The gated row: 10k nodes, default TTL, run twice for replay identity.
    let gated_config = sweep_config(10_000, ttl, seed);
    let gated = run_cache_sweep(&gated_config);
    let replay = run_cache_sweep(&gated_config);
    add_row(&mut table, "gate-10k", &gated);

    if !bounded {
        let report = run_cache_sweep(&sweep_config(30_000, ttl, seed));
        add_row(&mut table, "scale-30k", &report);
        for ttl_mins in [10u64, 240] {
            let report = run_cache_sweep(&sweep_config(
                10_000,
                SimDuration::from_mins(ttl_mins),
                seed,
            ));
            add_row(&mut table, &format!("ttl-{ttl_mins}m"), &report);
        }
    }
    table.finish("exp_cache_sweep");
    println!(
        "\npaper context: evaluation arrays change slowly, so a TTL-bounded\n\
         per-node cache answers most Eq. 9 queries locally — the gate proves\n\
         the served answers never silently go stale or diverge."
    );

    let mut failures = 0;
    let mut check = |bound: &str, value: String, ok: bool| {
        println!(
            "  {:<44} {:<24} {}",
            bound,
            value,
            if ok { "ok" } else { "VIOLATED" }
        );
        if !ok {
            failures += 1;
        }
    };
    println!("Gate (10k nodes, ttl {} ticks):", ttl.as_ticks());
    check(
        &format!("steady-state hit ratio >= {HIT_RATIO_BAR}"),
        format!("{:.3}", gated.steady_hit_ratio()),
        gated.steady_hit_ratio() >= HIT_RATIO_BAR,
    );
    check(
        "zero hits served at/beyond their TTL",
        gated.stale_hits.to_string(),
        gated.stale_hits == 0,
    );
    check(
        "zero divergent hits (vs published records)",
        format!("{}/{}", gated.divergent_hits, gated.verified_hits),
        gated.divergent_hits == 0 && gated.verified_hits == gated.cache.hits,
    );
    check(
        "replays bit-identically from its seed",
        format!("{:016x}/{:016x}", gated.fault_digest, replay.fault_digest),
        gated == replay,
    );
    check(
        "lookup accounting conserved",
        format!(
            "{}+{}={} (+{} offline)",
            gated.cache.hits, gated.cache.misses, gated.cache.lookups, gated.offline_viewers
        ),
        gated.cache.hits + gated.cache.misses == gated.cache.lookups
            && gated.cache.lookups + gated.offline_viewers == gated.queries as u64,
    );

    let slos_hold = check_slos(&gated);
    mdrep_bench::write_metrics_if_requested();
    if failures > 0 || !slos_hold {
        eprintln!("cache sweep: {failures} bound(s) violated");
        if gate_enabled {
            std::process::exit(1);
        }
    } else {
        println!("cache sweep: all bounds hold at seed {seed}");
    }
}
