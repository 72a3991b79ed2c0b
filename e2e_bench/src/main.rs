//! Trace-driven end-to-end benchmark of the reputation system.
//!
//! ```text
//! e2e_bench --workload <trace-live|serve-hot|serve-cold> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! One run sets the workload up three times (reporting the median set-up
//! time), runs the writer and client loops in turn for `--seconds`,
//! passes the correctness gate, and prints two JSON lines to stdout: the
//! run's provenance and detail, then the result — every end-to-end metric
//! with `--trace 0`, every per-layer metric with `--trace 1`. A traced run
//! first makes an untraced pass on a second set-up of the same seed, so it
//! can report what tracing costs. See `README.md` beside this file.

mod drive;
mod gate;
mod report;
mod spec;
mod world;

use drive::{Budget, ClientLog, WriterLog, WINDOW_NS};
use mdrep::{FileTrust, RecomputeMode, ReputationMatrix};
use mdrep_matrix::{blend_frozen, CsrMatrix, UserIndex};
use report::{median, percentile, ratio, Metrics};
use spec::Spec;
use std::sync::Arc;
use std::time::{Duration, Instant};
use world::World;

/// Set-ups per run; the median is `setup_s`.
const SETUPS: usize = 3;
/// Repetitions of each layer timed outside the loops; the median counts.
const OUTSIDE_REPEATS: usize = 3;
/// Above this share of unattributed wall time a traced run is flagged.
const UNATTRIBUTED_FLAG: f64 = 0.05;

/// The engine's registry timers that split an epoch into phases, with the
/// per-layer metric each one feeds (mean ms per epoch).
const PHASES: [(&str, &[&str]); 7] = [
    ("epoch.drain_ms", &["engine.sharded.drain"]),
    ("epoch.apply_ms", &["engine.sharded.apply"]),
    ("epoch.fm_build_ms", &["engine.recompute.fm_build"]),
    (
        "epoch.dm_um_build_ms",
        &["engine.recompute.dm_build", "engine.recompute.um_build"],
    ),
    ("epoch.integrate_ms", &["engine.recompute.integrate"]),
    ("epoch.merge_ms", &["engine.recompute.merge"]),
    ("epoch.publish_ms", &["engine.sharded.publish"]),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes a u64")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must lie in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn nanos_to_ms(ns: f64) -> f64 {
    ns / 1e6
}

/// The loops' timing metrics, each the median over one-second windows of
/// the pass. The first window is warm-up (caches filling) and is left out
/// unless it is the only one. Rates are per second the loop was busy: the
/// writer's ingest and epochs, the client's decisions.
struct Windowed {
    events_per_s: f64,
    lag_p50_ms: f64,
    lag_p99_ms: f64,
    decision_p50_us: f64,
    decision_p99_us: f64,
    decisions_per_s: f64,
}

fn windowed(writer: &WriterLog, client: &ClientLog, seconds: f64) -> Windowed {
    let windows = usize::try_from((seconds * 1e9) as u64 / WINDOW_NS)
        .unwrap_or(usize::MAX)
        .max(1);
    let first = usize::from(windows > 1);
    let (mut events, mut lag50, mut lag99) = (Vec::new(), Vec::new(), Vec::new());
    let (mut dec50, mut dec99, mut rate) = (Vec::new(), Vec::new(), Vec::new());
    for w in writer.windows.iter().take(windows).skip(first) {
        if w.events > 0 {
            events.push(ratio(w.events as f64, w.busy_ns as f64 / 1e9));
            lag50.push(nanos_to_ms(w.lag_ns.percentile(0.50)));
            lag99.push(nanos_to_ms(w.lag_ns.percentile(0.99)));
        }
    }
    for latencies in client.windows.iter().take(windows).skip(first) {
        if latencies.count > 0 {
            rate.push(ratio(latencies.count as f64, latencies.sum as f64 / 1e9));
            dec50.push(latencies.percentile(0.50) / 1e3);
            dec99.push(latencies.percentile(0.99) / 1e3);
        }
    }
    Windowed {
        events_per_s: median(&events),
        lag_p50_ms: median(&lag50),
        lag_p99_ms: median(&lag99),
        decision_p50_us: median(&dec50),
        decision_p99_us: median(&dec99),
        decisions_per_s: median(&rate),
    }
}

/// Fig. 1 request coverage of the final snapshot over the trace's request
/// pairs inside the engine's evaluation window at the final clock — the
/// requests the engine still holds evidence for, however far a run got.
fn request_coverage(world: &World, writer: &WriterLog) -> f64 {
    let until = writer
        .epochs
        .last()
        .map_or(world.t0, |e| e.now.max(world.t0));
    let pairs: Vec<_> = world
        .trace
        .downloads()
        .filter(|&(t, _, _, _)| t < until && until - t <= world::EVALUATION_WINDOW)
        .map(|(_, d, u, _)| (d, u))
        .collect();
    world.engine.snapshot().request_coverage(&pairs)
}

/// The metrics a user of the system sees, each bounded in `BENCHMARK.json`.
fn end_to_end(w: &Windowed, setup_s: &[f64], peak_rss_mb: f64) -> Metrics {
    let mut m = Metrics::default();
    m.add("setup_s", "s", median(setup_s));
    m.add("events_per_s", "1/s", w.events_per_s);
    m.add("visibility_lag_p50_ms", "ms", w.lag_p50_ms);
    m.add("visibility_lag_p99_ms", "ms", w.lag_p99_ms);
    m.add("decision_p50_us", "us", w.decision_p50_us);
    m.add("decisions_per_s", "1/s", w.decisions_per_s);
    m.add("peak_rss_mb", "MB", peak_rss_mb);
    m
}

/// Layers timed outside the loops on the final state: Eq. 2 over the
/// epoch's evaluations, the Eq. 7 blend and the RM computation over the
/// snapshot's components. Returns `(eq2 ms, FT nnz, blend ms, rm ms,
/// TM nnz)`, medians over `OUTSIDE_REPEATS`.
fn outside_layers(world: &World) -> (f64, f64, f64, f64, f64) {
    let snapshot = world.engine.snapshot();
    let now = snapshot.as_of();
    let params = snapshot.params();
    let mut eq2 = Vec::new();
    let mut ft_nnz = 0;
    let mut blend = Vec::new();
    let mut rm = Vec::new();
    let components = snapshot.components().expect("set-up published an epoch");
    // The batch path blends compact parts frozen under one index; refreeze
    // the (possibly patched) components the same way, outside the timing.
    let thawed = [
        components.fm.thaw(),
        components.dm.thaw(),
        components.um.thaw(),
    ];
    let index = Arc::new(UserIndex::from_matrices(&[
        &thawed[0], &thawed[1], &thawed[2],
    ]));
    let parts: Vec<CsrMatrix> = thawed
        .iter()
        .map(|m| CsrMatrix::freeze_with(&index, m))
        .collect();
    // Patched rows are folded in by a batch rebuild, not by the RM step.
    let compact_tm = components.tm.compact();
    let w = params.weights();
    for _ in 0..OUTSIDE_REPEATS {
        world.engine.with_master(|m| {
            let start = Instant::now();
            let ft = FileTrust::compute_with(m.evaluations(), now, m.params(), world::options());
            eq2.push(start.elapsed().as_secs_f64() * 1e3);
            ft_nnz = ft.raw().nnz();
        });
        let start = Instant::now();
        let tm = blend_frozen(
            &[
                (w.alpha(), &parts[0]),
                (w.beta(), &parts[1]),
                (w.gamma(), &parts[2]),
            ],
            params.effective_threads(),
        )
        .expect("engine weights form a convex combination");
        blend.push(start.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(&tm);
        let tm = compact_tm.clone();
        let start = Instant::now();
        let matrix = ReputationMatrix::compute_csr(tm, params);
        rm.push(start.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(&matrix);
    }
    (
        median(&eq2),
        ft_nnz as f64,
        median(&blend),
        median(&rm),
        components.tm.nnz() as f64,
    )
}

/// The registry timers `names`, summed over the traced pass, in ns.
fn timer_delta_ns(
    before: &mdrep_obs::Snapshot,
    after: &mdrep_obs::Snapshot,
    names: &[&str],
) -> f64 {
    names
        .iter()
        .map(|n| {
            let total = |s: &mdrep_obs::Snapshot| s.timer(n).map_or(0, |t| t.total_ns);
            total(after).saturating_sub(total(before)) as f64
        })
        .sum()
}

/// Per-layer metrics of a traced pass, with the attribution of each
/// loop's wall time to layers and the tracing overhead against the
/// untraced pass. `registry` is the engine registry before and after the
/// traced pass, `timing` the traced and untraced passes' loop metrics.
fn per_layer(
    world: &World,
    writer: &WriterLog,
    client: &ClientLog,
    registry: (&mdrep_obs::Snapshot, &mdrep_obs::Snapshot),
    timing: (&Windowed, &Windowed),
    coverage: f64,
) -> Metrics {
    let (before, after) = registry;
    let (traced, untraced) = timing;
    let mut m = Metrics::default();
    let epochs = writer.epochs.len().max(1) as f64;
    let details: Vec<_> = writer
        .epochs
        .iter()
        .filter_map(|e| e.detail.as_ref())
        .collect();
    let mean = |f: &dyn Fn(&drive::EpochDetail) -> f64| {
        details.iter().map(|d| f(d)).sum::<f64>() / details.len().max(1) as f64
    };

    m.add(
        "ingest.call_ns_p50",
        "ns",
        writer.ingest_call_ns.percentile(0.5),
    );
    m.add("ingest.shard_skew", "ratio", mean(&|d| d.shard_skew));

    let epoch_ns: Vec<u64> = writer.epochs.iter().map(|e| e.epoch_ns).collect();
    m.add(
        "epoch.wall_ms_p50",
        "ms",
        nanos_to_ms(percentile(&epoch_ns, 0.5)),
    );
    m.add(
        "epoch.wall_ms_max",
        "ms",
        nanos_to_ms(percentile(&epoch_ns, 1.0)),
    );
    m.add(
        "epoch.dirty_fraction",
        "ratio",
        mean(&|d| ratio(d.dirty_rows as f64, d.rows as f64)),
    );
    let batch_epochs = details
        .iter()
        .filter(|d| d.mode != RecomputeMode::Incremental)
        .count() as f64;
    m.add(
        "epoch.incremental_share",
        "ratio",
        1.0 - ratio(batch_epochs, details.len() as f64),
    );
    m.add(
        "epoch.publish_rows",
        "count",
        mean(&|d| d.publish_rows as f64),
    );
    m.add(
        "epoch.publish_mb",
        "MB",
        mean(&|d| d.publish_bytes as f64 / 1e6),
    );
    let expire_ns = writer.epochs.iter().map(|e| e.expire_ns).sum::<u64>() as f64;
    m.add("epoch.expire_ms", "ms", nanos_to_ms(expire_ns / epochs));
    let mut phases_ns = 0.0;
    for (metric, timers) in PHASES {
        let ns = timer_delta_ns(before, after, timers);
        phases_ns += ns;
        m.add(metric, "ms", nanos_to_ms(ns / epochs));
    }
    let (eq2_ms, ft_nnz, blend_ms, rm_ms, tm_nnz) = outside_layers(world);
    // Eq. 2 and the RM product run under no engine timer on the batch
    // path; the outside timings stand in for them on every batch epoch.
    let estimated_ns = batch_epochs * (eq2_ms + rm_ms) * 1e6;
    let epoch_wall_ns: f64 = epoch_ns.iter().sum::<u64>() as f64;
    let epoch_unattributed_ns = epoch_wall_ns - phases_ns - estimated_ns;
    m.add(
        "epoch.unattributed_ms",
        "ms",
        nanos_to_ms(epoch_unattributed_ns / epochs),
    );
    m.add("eq2.compute_ms", "ms", eq2_ms);
    m.add("eq2.ft_nnz", "count", ft_nnz);
    m.add("matrix.blend_ms", "ms", blend_ms);
    m.add("matrix.rm_ms", "ms", rm_ms);
    m.add("matrix.tm_nnz", "count", tm_nnz);
    m.add("matrix.request_coverage", "ratio", coverage);

    m.add("snapshot.read_ns_p50", "ns", client.read_ns.percentile(0.5));
    m.add("eq9.call_ns_p50", "ns", client.eq9_ns.percentile(0.5));
    m.add("eq9.call_ns_p99", "ns", client.eq9_ns.percentile(0.99));
    let decisions = client.decisions as f64;
    m.add(
        "eq9.owners_mean",
        "count",
        ratio(client.owners as f64, decisions),
    );
    m.add(
        "eq9.unknown_share",
        "ratio",
        ratio(client.unknown as f64, decisions),
    );
    m.add(
        "eq9.verdict_error_ratio",
        "ratio",
        ratio(client.verdict_errors as f64, client.verdicts as f64),
    );
    m.add(
        "incentive.call_ns_p50",
        "ns",
        client.incentive_ns.percentile(0.5),
    );
    m.add(
        "incentive.throttled_share",
        "ratio",
        ratio(client.throttled as f64, client.services as f64),
    );
    let retrievals = (client.hits + client.network) as f64;
    m.add(
        "dht.retrieve_us_p50",
        "us",
        client.retrieve_ns.percentile(0.5) / 1e3,
    );
    m.add(
        "dht.retrieve_us_p99",
        "us",
        client.retrieve_ns.percentile(0.99) / 1e3,
    );
    m.add(
        "dht.hit_ratio",
        "ratio",
        ratio(client.hits as f64, retrievals),
    );
    m.add(
        "dht.messages_per_retrieve",
        "count",
        ratio(client.messages as f64, retrievals),
    );
    m.add(
        "dht.retries_per_retrieve",
        "count",
        ratio(client.retries as f64, retrievals),
    );
    m.add(
        "dht.unreachable_share",
        "ratio",
        ratio(client.partial as f64, client.network as f64),
    );
    m.add(
        "dht.publish_us_p50",
        "us",
        client.publish_ns.percentile(0.5) / 1e3,
    );
    m.add("dht.gossip_pushes", "count", client.gossip_pushes as f64);
    m.add(
        "dht.failed_ratio",
        "ratio",
        ratio(client.failed as f64, decisions),
    );

    let ingest_ns = writer.ingest_call_ns.sum as f64;
    let writer_busy_ns = writer.busy_ns() as f64;
    let writer_share = ratio(
        writer_busy_ns - ingest_ns - expire_ns - phases_ns - estimated_ns,
        writer_busy_ns,
    );
    let client_busy_ns = client.busy_ns() as f64;
    let layer_ns: f64 = [
        &client.retrieve_ns,
        &client.read_ns,
        &client.eq9_ns,
        &client.incentive_ns,
    ]
    .iter()
    .map(|r| r.sum as f64)
    .sum();
    let client_share = ratio(client_busy_ns - layer_ns, client_busy_ns);
    m.add(
        "attribution.writer_unattributed_share",
        "ratio",
        writer_share,
    );
    m.add(
        "attribution.client_unattributed_share",
        "ratio",
        client_share,
    );
    for (loop_name, share) in [("writer", writer_share), ("client", client_share)] {
        if share > UNATTRIBUTED_FLAG {
            eprintln!(
                "note: {:.1}% of the {loop_name} loop's wall time is not attributed to a layer \
                 (flag threshold {:.0}%)",
                share * 100.0,
                UNATTRIBUTED_FLAG * 100.0
            );
        }
    }
    // Traced over untraced wall per unit of work, from the two passes'
    // rates over equal budgets on identical set-ups.
    m.add(
        "trace.writer_overhead",
        "ratio",
        ratio(untraced.events_per_s, traced.events_per_s),
    );
    m.add(
        "trace.client_overhead",
        "ratio",
        ratio(untraced.decisions_per_s, traced.decisions_per_s),
    );
    m
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let Some(spec) = Spec::by_name(&args.workload) else {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|s| s.name).collect();
        eprintln!(
            "error: unknown workload {:?} (one of {})",
            args.workload,
            names.join(", ")
        );
        std::process::exit(2);
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    mdrep_obs::global().set_enabled(false);
    mdrep_obs::tracer().set_enabled(false);
    let budget = Budget::Wall(Duration::from_secs_f64(args.seconds));

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut untraced = None;
    let mut kept = None;
    for i in 0..SETUPS {
        drop(kept.take());
        let start = Instant::now();
        let mut world = World::setup(spec, args.seed, nproc);
        setup_s.push(start.elapsed().as_secs_f64());
        if args.trace && i == SETUPS - 2 {
            let (writer, client) = drive::run(&mut world, budget, false);
            untraced = Some(windowed(&writer, &client, args.seconds));
        } else {
            kept = Some(world);
        }
    }
    let mut world = kept.expect("the last set-up is kept");

    let registry = mdrep_obs::global();
    let before = args.trace.then(|| {
        registry.set_enabled(true);
        mdrep_obs::tracer().set_enabled(true);
        registry.snapshot()
    });
    let (writer, client) = drive::run(&mut world, budget, args.trace);
    // The high-water mark of set-up and the pass's first `rss_epochs`
    // epochs (or of the whole pass, if it ended sooner), before the gate
    // builds its reference engine. The loops' logs are bounded, so this
    // follows the engine, its snapshots, the overlay and the caches.
    let rss_epochs = writer.epochs.len().min(spec.rss_epochs);
    let peak_rss_mb = writer.peak_rss_mb.unwrap_or_else(report::peak_rss_mb);
    let after = args.trace.then(|| {
        let after = registry.snapshot();
        registry.set_enabled(false);
        mdrep_obs::tracer().set_enabled(false);
        after
    });
    let coverage = request_coverage(&world, &writer);
    let timing = windowed(&writer, &client, args.seconds);
    let e2e = end_to_end(&timing, &setup_s, peak_rss_mb);
    let layers = match (&before, &after, &untraced) {
        (Some(before), Some(after), Some(untraced)) => Some(per_layer(
            &world,
            &writer,
            &client,
            (before, after),
            (&timing, untraced),
            coverage,
        )),
        _ => None,
    };
    let gate = gate::check(&world, &writer, &client);

    let s = &world.spec;
    let provenance = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"traced\": {}, \"nproc\": {nproc}, \
         \"commit\": {}, \"source_digest\": {}, \"params\": {{\"users\": {}, \"titles\": {}, \
         \"history_days\": {}, \"writer\": {}, \"client\": {}, \"shards\": {}, \
         \"recompute_threads\": {}, \"setups\": {SETUPS}}}}}",
        report::string(s.name),
        args.seed,
        report::number(args.seconds),
        args.trace,
        report::string(&report::commit()),
        report::string(&report::source_digest()),
        s.users,
        s.titles,
        s.history_days,
        report::string(&format!("{:?}", s.writer)),
        report::string(&format!("{:?}", s.client)),
        world::SHARDS,
        world::params(nproc).effective_threads(),
    );
    let detail = format!(
        "{{\"events\": {}, \"epochs\": {}, \"rss_epochs\": {rss_epochs}, \"decisions\": {}, \
         \"failed_ratio\": {}, \"cache_hits\": {}, \"verdicts\": {}, \
         \"verdict_error_ratio\": {}, \"request_coverage\": {}, \"decision_p99_us\": {}, \
         \"setup_s\": [{}], \
         \"failed_publications\": {}, \
         \"gate\": {{\"passed\": {}, \"checked_decisions\": {}, \"verdict_mismatches\": {}, \
         \"stale_hits\": {}, \"digest\": \"{:016x}\", \"reference_digest\": \"{:016x}\"}}, \
         \"end_to_end\": {}}}",
        writer.events(),
        writer.epochs.len(),
        client.decisions,
        report::number(ratio(client.failed as f64, client.decisions as f64)),
        client.hits,
        client.verdicts,
        report::number(ratio(client.verdict_errors as f64, client.verdicts as f64)),
        report::number(coverage),
        report::number(timing.decision_p99_us),
        setup_s
            .iter()
            .map(|v| report::number(*v))
            .collect::<Vec<_>>()
            .join(", "),
        world.failed_publications,
        gate.passed(),
        gate.checked_decisions,
        gate.verdict_mismatches,
        gate.stale_hits,
        gate.digest,
        gate.reference_digest,
        e2e.to_json(),
    );
    println!("{{\"provenance\": {provenance}, \"detail\": {detail}}}");

    eprintln!(
        "{} seed {} ({} s, nproc {nproc}, {}):",
        s.name,
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "untraced" }
    );
    eprint!("{}", e2e.render());
    if let Some(layers) = &layers {
        eprint!("{}", layers.render());
    }
    if !gate.passed() {
        eprintln!("correctness gate FAILED: {gate:?}");
    }
    let metrics = layers.as_ref().unwrap_or(&e2e);
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        gate.passed(),
        client.decisions + writer.events(),
        client.failed,
        metrics.to_json()
    );
    if !gate.passed() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A smoke-scale run of one workload in lock-step mode, returning the
    /// counts the determinism tests compare.
    fn smoke(name: &str, seed: u64) -> (Vec<u64>, u64) {
        let spec = Spec::by_name(name).expect("known workload").smoke();
        let mut world = World::setup(spec, seed, 2);
        let (writer, client) = drive::run(&mut world, Budget::Epochs(3), false);
        let gate = gate::check(&world, &writer, &client);
        assert!(gate.passed(), "{name}: {gate:?}");
        assert!(gate.checked_decisions > 0, "{name}: decisions were checked");
        let coverage = request_coverage(&world, &writer);
        let counts = vec![
            writer.events(),
            client.decisions,
            client.hits,
            client.verdicts,
            client.verdict_errors,
            coverage.to_bits(),
        ];
        (counts, gate.digest)
    }

    #[test]
    fn every_workload_runs_at_smoke_scale() {
        for spec in spec::WORKLOADS {
            let start = Instant::now();
            let (counts, _) = smoke(spec.name, 1);
            assert!(counts[0] > 0 && counts[1] > 0, "{}: {counts:?}", spec.name);
            assert!(start.elapsed() < Duration::from_secs(30), "{}", spec.name);
        }
    }

    #[test]
    fn same_seed_same_counts_and_digest() {
        for spec in spec::WORKLOADS {
            assert_eq!(smoke(spec.name, 7), smoke(spec.name, 7), "{}", spec.name);
        }
    }

    #[test]
    fn different_seed_different_digest() {
        for spec in spec::WORKLOADS {
            assert_ne!(
                smoke(spec.name, 7).1,
                smoke(spec.name, 8).1,
                "{}",
                spec.name
            );
        }
    }

    #[test]
    fn wall_budget_runs_a_traced_pass() {
        let spec = Spec::by_name("serve-hot").expect("known").smoke();
        let mut world = World::setup(spec, 3, 2);
        let (writer, client) =
            drive::run(&mut world, Budget::Wall(Duration::from_millis(300)), true);
        assert!(writer.epochs.len() > 1 && client.decisions > 0);
        assert!(writer.epochs.iter().all(|e| e.detail.is_some()));
        assert!(gate::check(&world, &writer, &client).passed());
    }
}
