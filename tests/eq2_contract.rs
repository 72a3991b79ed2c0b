//! The Equation 2 contract: the pair kernel behind `FileTrust` and
//! `FileTrustState` computes, bit for bit, the paper's
//! `FT_ij = 1 − (1/m)·Σ_{k∈F} |E_ik − E_jk|` (and footnote 1's Euclidean
//! and Kullback–Leibler variants), at any thread count, whether it rebuilds
//! every row or only the dirty ones.
//!
//! The oracle below is Equation 2 written straight from the paper over the
//! public `EvaluationStore` API: for each file in ascending order, its first
//! `cap` evaluators in store order (the cap's prefix semantics), and for
//! each pair of them one more term of their distance sum.
//!
//! Two fixed stores pin corners the generated ones seldom reach: a dirty
//! pass whose eligible users leave a capped file with one member, and rows
//! of skewed cost whose weighted split points fall inside runs of heavy
//! rows.

use mdrep_repro::core::{
    DistanceMetric, EvaluationStore, FileTrust, FileTrustOptions, FileTrustState, Params,
};
use mdrep_repro::matrix::{weighted_ranges, CsrMatrix};
use mdrep_repro::types::{Evaluation, FileId, SimDuration, SimTime, UserId};
use proptest::prelude::*;
use std::collections::BTreeMap;

const METRICS: [DistanceMetric; 3] = [
    DistanceMetric::L1,
    DistanceMetric::Euclidean,
    DistanceMetric::SymmetricKl,
];
const THREADS: [usize; 3] = [1, 2, 8];

/// One file's contribution to a pair's distance sum.
fn per_file(metric: DistanceMetric, a: f64, b: f64) -> f64 {
    match metric {
        DistanceMetric::L1 => (a - b).abs(),
        DistanceMetric::Euclidean => (a - b) * (a - b),
        DistanceMetric::SymmetricKl => {
            let clamp = |v: f64| v.clamp(1e-6, 1.0 - 1e-6);
            let (p, q) = (clamp(a), clamp(b));
            let kl = |p: f64, q: f64| p * (p / q).ln() + (1.0 - p) * ((1.0 - p) / (1.0 - q)).ln();
            0.5 * (kl(p, q) + kl(q, p))
        }
    }
}

/// The trust of a pair with distance sum `sum` over `m` common files.
fn trust(metric: DistanceMetric, sum: f64, m: usize) -> f64 {
    let mean = sum / m as f64;
    match metric {
        DistanceMetric::L1 => (1.0 - mean).clamp(0.0, 1.0),
        DistanceMetric::Euclidean => (1.0 - mean.sqrt()).clamp(0.0, 1.0),
        DistanceMetric::SymmetricKl => (-mean).exp().clamp(0.0, 1.0),
    }
}

/// Equation 2 from the paper: every nonzero `FT` entry, both directions,
/// values as bit patterns.
fn oracle(
    store: &EvaluationStore,
    now: SimTime,
    params: &Params,
    options: FileTrustOptions,
) -> BTreeMap<(UserId, UserId), u64> {
    let cap = options.max_evaluators_per_file.unwrap_or(usize::MAX);
    let mut pairs: BTreeMap<(UserId, UserId), (f64, usize)> = BTreeMap::new();
    for file in store.files() {
        let evaluators: Vec<(UserId, f64)> = store
            .evaluators_of(file)
            .take(cap)
            .map(|u| {
                let e = store.evaluation(u, file, now, params).expect("evaluator");
                (u, e.value())
            })
            .collect();
        for (i, &(a, ea)) in evaluators.iter().enumerate() {
            for &(b, eb) in &evaluators[i + 1..] {
                let pair = pairs.entry((a, b)).or_insert((0.0, 0));
                pair.0 += per_file(options.metric, ea, eb);
                pair.1 += 1;
            }
        }
    }
    let mut ft = BTreeMap::new();
    for ((a, b), (sum, m)) in pairs {
        let t = trust(options.metric, sum, m);
        if t > 0.0 {
            ft.insert((a, b), t.to_bits());
            ft.insert((b, a), t.to_bits());
        }
    }
    ft
}

fn bits(ft: &CsrMatrix) -> BTreeMap<(UserId, UserId), u64> {
    ft.iter().map(|(r, c, v)| ((r, c), v.to_bits())).collect()
}

fn params(threads: usize) -> Params {
    Params::builder()
        .retention_saturation(SimDuration::from_days(1))
        .evaluation_interval(SimDuration::from_days(2))
        .threads(threads)
        .build()
        .expect("valid")
}

/// (kind, user, file, value): kinds 0–2 download, vote, delete; in the
/// evolving property 3 whitewashes, 4 advances the clock and expires, 5
/// rebuilds the dirty rows.
type Op = (u8, u64, u64, Evaluation);

fn ops_strategy(kinds: u8, max_len: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (
            0..kinds,
            0u64..24,
            0u64..10,
            (0.0f64..=1.0).prop_map(|v| Evaluation::new(v).expect("in range")),
        ),
        1..max_len,
    )
}

/// Compares a full pass with the oracle for every metric, uncapped and at
/// `cap`, at threads 1, 2 and 8.
fn matches_oracle(store: &EvaluationStore, now: SimTime, cap: usize) -> Result<(), String> {
    for metric in METRICS {
        for max_evaluators_per_file in [None, Some(cap)] {
            let options = FileTrustOptions {
                metric,
                max_evaluators_per_file,
            };
            let want = oracle(store, now, &params(1), options);
            for threads in THREADS {
                let got = FileTrust::compute_with(store, now, &params(threads), options);
                if bits(got.raw()) != want {
                    return Err(format!(
                        "{metric:?}, cap {max_evaluators_per_file:?}, {threads} threads"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Applies one download, vote or delete at `now`; returns its file.
fn record(store: &mut EvaluationStore, op: Op, now: SimTime) -> FileId {
    let (kind, u, f, value) = op;
    let (user, file) = (UserId::new(u), FileId::new(f));
    match kind {
        0 => store.record_download(now, user, file),
        1 => store.record_vote(now, user, file, value),
        _ => store.record_delete(now, user, file),
    }
    file
}

proptest! {
    /// A full Equation 2 pass equals the oracle bit for bit, for every
    /// metric, uncapped and capped, at threads 1, 2 and 8.
    #[test]
    fn full_pass_matches_the_paper(
        ops in ops_strategy(3, 120),
        cap in 1usize..5,
        hours in 0u64..60,
    ) {
        let mut store = EvaluationStore::new();
        let mut now = SimTime::ZERO;
        for &op in &ops {
            now += SimDuration::from_hours(1);
            record(&mut store, op, now);
        }
        now += SimDuration::from_hours(hours);
        if let Err(diverged) = matches_oracle(&store, now, cap) {
            prop_assert!(false, "{}", diverged);
        }
    }
}

proptest! {
    // A case makes 24 passes of up to ~85k pair updates each.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The same on a dense store — 240 users, each evaluating about half of
    /// 12 files — whose ~85k uncapped (pair, file) contributions per pass
    /// split the rows across several workers at threads 2 and 8; the sparse
    /// stores above are small enough to run on one.
    #[test]
    fn dense_full_pass_matches_the_paper(
        picks in proptest::collection::vec((0u64..12, 0.0f64..=1.0, 0u64..48), 1920..1921),
        cap in 60usize..90,
    ) {
        let mut store = EvaluationStore::new();
        for (i, &(file, value, hour)) in picks.iter().enumerate() {
            let (user, file) = (UserId::new(i as u64 / 8), FileId::new(file));
            store.record_download(SimTime::ZERO + SimDuration::from_hours(hour), user, file);
            if i % 2 == 0 {
                let value = Evaluation::new(value).expect("in range");
                store.record_vote(SimTime::ZERO, user, file, value);
            }
        }
        let now = SimTime::ZERO + SimDuration::from_hours(30);
        if let Err(diverged) = matches_oracle(&store, now, cap) {
            prop_assert!(false, "{}", diverged);
        }
    }
}

proptest! {
    /// Under the dirtying contract (every pair whose trust may have changed
    /// has both endpoints dirty), rebuilding the dirty rows after votes,
    /// downloads, deletes, whitewashes, expiry and clock drift leaves `FT`
    /// equal to a full pass, entry by entry.
    #[test]
    fn dirty_rebuild_matches_full_pass(
        ops in ops_strategy(6, 100),
        metric_index in 0usize..3,
        cap in prop_oneof![Just(None), (1usize..5).prop_map(Some)],
        threads_index in 0usize..3,
    ) {
        let options = FileTrustOptions {
            metric: METRICS[metric_index],
            max_evaluators_per_file: cap,
        };
        let params = params(THREADS[threads_index]);
        let mut store = EvaluationStore::new();
        let mut state = FileTrustState::new();
        let mut now = SimTime::ZERO;
        let mut last = now;
        state.full_rebuild(&store, now, &params, options);
        for &op in &ops {
            let (kind, u, _, _) = op;
            let user = UserId::new(u);
            match kind {
                0..=2 => {
                    let file = record(&mut store, op, now);
                    state.mark_dirty_many(store.evaluators_of(file));
                }
                3 => {
                    let files: Vec<FileId> = store.files_of(user).collect();
                    for file in files {
                        state.mark_dirty_many(store.evaluators_of(file));
                    }
                    state.mark_user_removed(user);
                    store.remove_user(user);
                }
                4 => {
                    now += SimDuration::from_hours(9);
                    for (user, file) in store.expire_detailed(now, &params) {
                        state.mark_dirty(user);
                        state.mark_dirty_many(store.evaluators_of(file));
                    }
                }
                _ => {
                    if now != last {
                        // Implicit evaluations still ramping at the last
                        // rebuild have drifted since.
                        let drifting = store
                            .users_with_unsaturated_records(last, params.retention_saturation());
                        for user in drifting {
                            let files: Vec<FileId> = store.files_of(user).collect();
                            for file in files {
                                state.mark_dirty_many(store.evaluators_of(file));
                            }
                        }
                        last = now;
                    }
                    state.apply_dirty(&store, now, &params, options);
                    let full = FileTrust::compute_with(&store, now, &params, options);
                    prop_assert!(
                        bits(state.raw()) == bits(full.raw()),
                        "{:?}, cap {:?}, threads {}", options.metric, cap, params.threads()
                    );
                }
            }
        }
    }
}

/// A dirty pass whose eligible users leave a capped file's prefix with a
/// single member: that file pairs nobody in the pass, and an eligible
/// evaluator past the cap stays out of it, so `FT` still equals the oracle.
#[test]
fn dirty_pass_leaves_a_capped_prefix_with_one_member() {
    let (u, f) = (UserId::new, FileId::new);
    let vote = |store: &mut EvaluationStore, user, file, value| {
        let value = Evaluation::new(value).expect("in range");
        store.record_vote(SimTime::ZERO, u(user), f(file), value);
    };
    for metric in METRICS {
        for threads in THREADS {
            let options = FileTrustOptions {
                metric,
                max_evaluators_per_file: Some(2),
            };
            let params = params(threads);
            let mut store = EvaluationStore::new();
            // File 0's prefix is users 0 and 1; users 2 and 3 lie past it.
            for (user, value) in [(0, 0.9), (1, 0.7), (2, 0.1), (3, 0.4)] {
                vote(&mut store, user, 0, value);
            }
            // File 1's prefix is users 0 and 2; user 5 lies past it.
            for user in [0, 2, 5] {
                vote(&mut store, user, 1, 0.5);
            }
            let mut state = FileTrustState::new();
            state.full_rebuild(&store, SimTime::ZERO, &params, options);
            // A re-vote on file 1 dirties its evaluators 0, 2 and 5; of
            // file 0's prefix only user 0 is among them, and user 2 holds a
            // record for file 0 past its cap.
            vote(&mut store, 2, 1, 0.5);
            state.mark_dirty_many(store.evaluators_of(f(1)));
            state.apply_dirty(&store, SimTime::ZERO, &params, options);
            assert!(
                bits(state.raw()) == oracle(&store, SimTime::ZERO, &params, options),
                "{metric:?}, {threads} threads"
            );
        }
    }
}

/// Users `0..32` and `480..512` of [`SKEWED_USERS`] evaluate every one of
/// [`SKEWED_FILES`] files, the rest one file each.
const SKEWED_USERS: u64 = 1000;
const SKEWED_FILES: u64 = 40;

fn heavy(user: u64) -> bool {
    user < 32 || (480..512).contains(&user)
}

proptest! {
    // A case makes 18 passes of up to ~151k pair updates each.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// A full pass over rows of skewed cost equals the oracle at threads 2,
    /// 3 and 8, uncapped and capped. A heavy row adds about 40 times the
    /// (pair, file) terms of a light one, and the heavy rows come in two
    /// runs of consecutive ids, so the cost-weighted split points fall
    /// inside those runs (checked below) and each worker takes some of a
    /// run's rows.
    #[test]
    fn skewed_rows_split_by_cost_match_the_paper(
        values in proptest::collection::vec(0.0f64..=1.0, 3496..3497),
        hours in proptest::collection::vec(0u64..48, 3496..3497),
        cap in 40usize..80,
    ) {
        let mut store = EvaluationStore::new();
        let records = (0..SKEWED_USERS).flat_map(|user| {
            let files = if heavy(user) { 0..SKEWED_FILES } else { user % SKEWED_FILES..user % SKEWED_FILES + 1 };
            files.map(move |file| (UserId::new(user), FileId::new(file)))
        });
        for (i, (user, file)) in records.enumerate() {
            store.record_download(SimTime::ZERO + SimDuration::from_hours(hours[i]), user, file);
            if i % 3 == 0 {
                store.record_vote(SimTime::ZERO, user, file, Evaluation::new(values[i]).expect("in range"));
            }
        }
        // Every user is a member: row `p` is user `p`, of cost Σ (k_f − 1).
        let costs: Vec<u64> = (0..SKEWED_USERS)
            .map(|user| {
                store
                    .files_of(UserId::new(user))
                    .map(|file| store.evaluators_of(file).count() as u64 - 1)
                    .sum()
            })
            .collect();
        for threads in [2, 3, 8] {
            let ranges = weighted_ranges(&costs, threads);
            prop_assert!(
                ranges.iter().skip(1).any(|r| heavy(r.start as u64 - 1) && heavy(r.start as u64)),
                "no split point inside a heavy run at {} threads: {:?}", threads, ranges
            );
        }
        let now = SimTime::ZERO + SimDuration::from_hours(30);
        for metric in METRICS {
            for max_evaluators_per_file in [None, Some(cap)] {
                let options = FileTrustOptions { metric, max_evaluators_per_file };
                let want = oracle(&store, now, &params(1), options);
                for threads in [2, 3, 8] {
                    let got = FileTrust::compute_with(&store, now, &params(threads), options);
                    prop_assert!(
                        bits(got.raw()) == want,
                        "{:?}, cap {:?}, {} threads", metric, max_evaluators_per_file, threads
                    );
                }
            }
        }
    }
}
