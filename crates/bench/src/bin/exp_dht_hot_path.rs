//! **BENCH-DHT** — per-call cost of the overlay read path that a cold
//! download decision (Fig. 2, steps 3–5) walks: the routing table's
//! `closest`, a lookup-only `get`, one signature check, a retrieval of a
//! 50-owner evaluation array, and the online-user pool a gossip push
//! samples from. Also the wall time and resident memory of joining the
//! overlay.
//!
//! The per-record cost of checking a 99-owner list in one
//! `KeyRegistry::verify_batch` call, of its first 16 records (one full
//! chunk of lanes) and of its first 7, which the batch checks one record
//! at a time; the `verify` row checks one record per call. The batch rows
//! take (owner, signed bytes, signature) triples built before timing.
//!
//! The cache tier's record path, on 16 more files with 99 owners each: a
//! warm hit, a miss (fetch, verify and fill, gossip off), and the same
//! miss followed by a push to `GossipConfig::default().fanout` peers. The
//! gossip-delivery row is the difference of the two miss rows per peer:
//! what one receiver spends decoding, verifying, deduplicating and
//! caching a 99-record push. The miss rows give the cache a TTL of one
//! tick and advance the clock a tick per call, so every call misses and
//! no push lands in a cache a later call reads.
//!
//! A 2000-node overlay on a quiet network (no loss, no churn), tracing
//! off. Each figure is the median over 7 batches of the per-call time.
//!
//! Run: `cargo run -p mdrep-bench --bin exp_dht_hot_path --release -- --label after`
//! (writes `results/dht_hot_path_<label>.csv`; the label defaults to
//! `current`).

use mdrep_bench::{arg_value, Table};
use mdrep_crypto::{KeyRegistry, Signature};
use mdrep_dht::{
    CacheConfig, CacheTierConfig, Dht, DhtConfig, EvaluationCacheTier, EvaluationPublisher,
    GossipConfig, Key, RetrievalSource,
};
use mdrep_types::{Evaluation, FileId, SimDuration, SimTime, UserId};
use std::hint::black_box;
use std::time::Instant;

const NODES: u64 = 2_000;
const FILES: u64 = 64;
const OWNERS: u64 = 50;
/// Files of the tier rows, after the [`FILES`] of the overlay rows.
const TIER_FILES: u64 = 16;
const TIER_OWNERS: u64 = 99;
/// Viewers whose caches the warm-hit row reads.
const VIEWERS: u64 = 16;
const BATCHES: usize = 7;

/// Resident set size of this process in MB (Linux), or NaN elsewhere.
fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Median over [`BATCHES`] batches of `calls` calls of the per-call time,
/// in nanoseconds. `op` gets a running call index.
fn per_call_ns(calls: u64, mut op: impl FnMut(u64)) -> f64 {
    let mut index = 0u64;
    // One untimed batch warms caches and allocator.
    for _ in 0..calls {
        op(index);
        index += 1;
    }
    let mut samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..calls {
                op(index);
                index += 1;
            }
            start.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[BATCHES / 2]
}

fn main() {
    let label = arg_value("--label").unwrap_or_else(|| "current".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let u = UserId::new;

    let rss_before = rss_mb();
    let start = Instant::now();
    let mut dht = Dht::new(DhtConfig::default());
    for i in 0..NODES {
        dht.join(u(i), SimTime::ZERO);
    }
    let join_ms = start.elapsed().as_secs_f64() * 1e3;
    let overlay_mb = rss_mb() - rss_before;

    let mut registry = KeyRegistry::new();
    for i in 0..NODES {
        registry.register(u(i), 7_000 + i);
    }
    let publisher = EvaluationPublisher::new();
    for f in 0..FILES {
        for j in 0..OWNERS {
            let owner = u((f * 31 + j * 37) % NODES);
            let key = registry.key_of(owner).expect("registered").clone();
            publisher
                .publish(
                    &mut dht,
                    &key,
                    owner,
                    FileId::new(f),
                    Evaluation::BEST,
                    SimTime::ZERO,
                )
                .expect("quiet overlay");
        }
    }
    let records = publisher
        .retrieve(&mut dht, &registry, u(1), FileId::new(0), SimTime::ZERO)
        .expect("online");
    assert_eq!(records.len() as u64, OWNERS, "every owner's record");

    for f in FILES..FILES + TIER_FILES {
        for j in 0..TIER_OWNERS {
            let owner = u((f * 31 + j * 37) % NODES);
            let key = registry.key_of(owner).expect("registered").clone();
            publisher
                .publish(
                    &mut dht,
                    &key,
                    owner,
                    FileId::new(f),
                    Evaluation::BEST,
                    SimTime::ZERO,
                )
                .expect("quiet overlay");
        }
    }
    let tier_file = |i: u64| FileId::new(FILES + i % TIER_FILES);

    let targets: Vec<Key> = (0..FILES).map(|f| Key::for_file(FileId::new(f))).collect();
    let closest = per_call_ns(20_000, |i| {
        let node = dht.node_of(u(i % NODES)).expect("joined");
        black_box(node.routing().closest(&targets[(i % FILES) as usize], 8));
    });
    let lookup = per_call_ns(500, |i| {
        let key = Key::for_content(&i.to_le_bytes());
        black_box(dht.get(u(i % NODES), key, SimTime::ZERO).expect("online"));
    });
    let verify = per_call_ns(20_000, |i| {
        let record = &records[(i % OWNERS) as usize];
        assert!(black_box(record.info.verify(&registry)));
    });
    let owner_list = publisher
        .retrieve(&mut dht, &registry, u(1), tier_file(0), SimTime::ZERO)
        .expect("online");
    assert_eq!(owner_list.len() as u64, TIER_OWNERS, "every owner's record");
    // `encode` is the 24 signed bytes followed by the signature.
    let signed: Vec<(UserId, [u8; 24], Signature)> = owner_list
        .iter()
        .map(|r| {
            let bytes = r.info.encode()[..24].try_into().expect("24 signed bytes");
            (r.info.owner, bytes, r.info.signature)
        })
        .collect();
    let batch_row = |len: usize| {
        let batch = &signed[..len];
        per_call_ns(20_000 / len as u64, |_| {
            let valid = registry.verify_batch(black_box(batch));
            assert!(valid.iter().all(|v| *v));
            black_box(valid);
        }) / len as f64
    };
    let verify_batch_99 = batch_row(signed.len());
    let verify_batch_16 = batch_row(16);
    let verify_batch_7 = batch_row(7);
    let retrieve = per_call_ns(200, |i| {
        let file = FileId::new(i % FILES);
        let got = publisher
            .retrieve(&mut dht, &registry, u(i % NODES), file, SimTime::ZERO)
            .expect("online");
        black_box(got);
    });
    let online = per_call_ns(2_000, |_| {
        black_box(dht.online_users());
    });

    let mut warm = EvaluationCacheTier::new(CacheTierConfig {
        gossip: None,
        ..CacheTierConfig::default()
    });
    for i in 0..VIEWERS * TIER_FILES {
        let got = warm
            .retrieve(
                &mut dht,
                &registry,
                u(i % VIEWERS),
                tier_file(i / VIEWERS),
                SimTime::ZERO,
            )
            .expect("online");
        assert_eq!(
            got.records.len() as u64,
            TIER_OWNERS,
            "every owner's record"
        );
    }
    let hit = per_call_ns(20_000, |i| {
        let got = warm
            .retrieve(
                &mut dht,
                &registry,
                u(i % VIEWERS),
                tier_file(i / VIEWERS),
                SimTime::ZERO,
            )
            .expect("online");
        assert!(matches!(got.source, RetrievalSource::Cache { .. }));
        black_box(got);
    });
    // One tick of TTL and one tick per call: every call misses.
    let mut miss_row = |gossip: Option<GossipConfig>| {
        let mut tier = EvaluationCacheTier::new(CacheTierConfig {
            cache: CacheConfig {
                ttl: SimDuration::from_ticks(1),
                ..CacheConfig::default()
            },
            gossip,
            ..CacheTierConfig::default()
        });
        let start = SimTime::from_ticks(1);
        per_call_ns(200, |i| {
            let now = start + SimDuration::from_ticks(i);
            let got = tier
                .retrieve(&mut dht, &registry, u(i % NODES), tier_file(i), now)
                .expect("online");
            assert_eq!(got.source, RetrievalSource::Network);
            black_box(got);
        })
    };
    let miss = miss_row(None);
    let push = GossipConfig {
        hot_threshold: 1,
        ..GossipConfig::default()
    };
    let miss_push = miss_row(Some(push));
    let delivery = (miss_push - miss) / push.fanout as f64;

    let mut table = Table::new(
        &format!("Overlay read path, {NODES} nodes, {OWNERS} owners per file ({label})"),
        &["op", "value", "unit", "nproc"],
    );
    let rows = [
        ("closest_k8", closest / 1e3, "us"),
        ("lookup_get", lookup / 1e3, "us"),
        ("verify", verify / 1e3, "us"),
        ("verify_batch_99_per_record", verify_batch_99 / 1e3, "us"),
        ("verify_batch_16_per_record", verify_batch_16 / 1e3, "us"),
        ("verify_batch_7_per_record", verify_batch_7 / 1e3, "us"),
        ("retrieve_50_records", retrieve / 1e3, "us"),
        ("online_users", online / 1e3, "us"),
        ("tier_hit_99_records", hit / 1e3, "us"),
        ("tier_miss_99_records", miss / 1e3, "us"),
        ("tier_miss_99_records_pushed", miss_push / 1e3, "us"),
        ("gossip_delivery_99_records", delivery / 1e3, "us"),
        ("join_2000", join_ms, "ms"),
        ("overlay_rss_after_join", overlay_mb, "MB"),
    ];
    for (op, value, unit) in rows {
        table.row(&[
            op.to_string(),
            format!("{value:.3}"),
            unit.to_string(),
            nproc.to_string(),
        ]);
    }
    table.finish(&format!("dht_hot_path_{label}"));
}
