//! **MULTIHOP** — the fused-pruning trade-off for Eq. 8 with `n >= 2`:
//! how much Eq. 9 top-ranking accuracy and cold-start request coverage
//! does pruned SpGEMM keep, and what does it cost, across an (n, ε, k)
//! grid?
//!
//! The one-step matrix is the *sparse* regime the paper says needs
//! multi-hop: a votes-only FM at 5% evaluation coverage (TAB-N's hard
//! case). For each variant we compute `TM^n` and report:
//!
//! - `power_ms`: wall-clock of the power itself (min of 5 runs),
//! - `nnz`: the hop matrix's support (the densification being fought),
//! - `top20`: mean per-viewer overlap between the variant's 20 heaviest
//!   row entries and the exact power's — Eq. 9 ranks providers by these
//!   row values, so this is ranking drift,
//! - `cov`: fraction of trace request pairs reachable within `<= n` hops
//!   (union of tiers, the multi-tier service view),
//! - `cold`: fraction of the requests *uncovered at exact n = 1* that the
//!   variant's second hop reaches — the cold-start payoff of multi-hop.
//!
//! Run: `cargo run -p mdrep-bench --bin exp_multihop --release`

use mdrep::{EvaluationStore, FileTrust, Params};
use mdrep_bench::Table;
use mdrep_matrix::{CsrMatrix, PowerOptions, SparseMatrix};
use mdrep_types::{SimTime, UserId};
use mdrep_workload::{EventKind, TraceBuilder, WorkloadConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Instant;

/// Eq. 9 ranks providers by row value; drift is measured over the top 20.
const TOP_RANK: usize = 20;

fn threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// Votes-only FM at `coverage` evaluation probability — the sparse
/// one-step regime where the paper concedes multi-hop is needed.
fn sparse_fm(trace: &mdrep_workload::Trace, end: SimTime, coverage: f64) -> SparseMatrix {
    let mut rng = StdRng::seed_from_u64((coverage * 1e6) as u64 ^ 0xc0_5e);
    let mut store = EvaluationStore::new();
    for event in trace.events() {
        if let EventKind::Download {
            downloader, file, ..
        } = event.kind
        {
            if rng.random::<f64>() < coverage {
                let value = if trace.catalog().is_authentic(file) {
                    mdrep_types::Evaluation::BEST
                } else {
                    mdrep_types::Evaluation::WORST
                };
                store.record_vote(event.time, downloader, file, value);
            }
        }
    }
    let eta0 = Params::builder().eta(0.0).build().expect("valid");
    FileTrust::compute(&store, end, &eta0).matrix().thaw()
}

/// The `TOP_RANK` heaviest entries of a row, ties toward the smaller id
/// (the same order Eq. 9's provider ranking uses).
fn top_ranked(m: &SparseMatrix, row: UserId) -> Vec<UserId> {
    let Some(entries) = m.row(row) else {
        return Vec::new();
    };
    let mut pairs: Vec<(UserId, f64)> = entries.iter().map(|(&c, &v)| (c, v)).collect();
    pairs.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    pairs.truncate(TOP_RANK);
    pairs.into_iter().map(|(c, _)| c).collect()
}

/// Mean per-viewer overlap between `got`'s and `want`'s top-ranked sets,
/// over viewers that rank anyone in `want`.
fn ranking_overlap(got: &SparseMatrix, want: &SparseMatrix) -> f64 {
    let mut total = 0.0;
    let mut viewers = 0usize;
    for r in want.row_ids() {
        let reference = top_ranked(want, r);
        if reference.is_empty() {
            continue;
        }
        let candidate = top_ranked(got, r);
        let hits = reference.iter().filter(|id| candidate.contains(id)).count();
        total += hits as f64 / reference.len() as f64;
        viewers += 1;
    }
    if viewers == 0 {
        1.0
    } else {
        total / viewers as f64
    }
}

struct Variant {
    name: String,
    n: u32,
    options: PowerOptions,
}

fn experiment() {
    let days = 10u64;
    let config = WorkloadConfig::builder()
        .users(2000)
        .titles(4000)
        .days(days)
        .downloads_per_user_day(4.0)
        .pollution_rate(0.0)
        .seed(31)
        .build()
        .expect("valid config");
    let trace = TraceBuilder::new(config).generate();
    let requests = trace.request_pairs();
    let end = SimTime::from_ticks(days * 86_400);
    let tm = sparse_fm(&trace, end, 0.05);
    let t = threads();
    println!(
        "trace: {} users, {} requests; TM = votes-only FM at 5% coverage, {} nnz, {} threads",
        trace.population().len(),
        requests.len(),
        tm.nnz(),
        t
    );

    let frozen = CsrMatrix::freeze(&tm);
    let exact_by_n: Vec<(u32, SparseMatrix)> = [1u32, 2]
        .iter()
        .map(|&n| (n, frozen.power(n, PowerOptions::exact(), t).thaw()))
        .collect();
    let exact_for = |n: u32| -> &SparseMatrix {
        &exact_by_n
            .iter()
            .find(|(m, _)| *m == n)
            .expect("precomputed")
            .1
    };

    // Requests direct trust already covers, and the cold-start remainder.
    let tier1_covered = |i: UserId, j: UserId| tm.get(i, j) > 0.0;
    let cold_requests: Vec<(UserId, UserId)> = requests
        .iter()
        .copied()
        .filter(|&(i, j)| !tier1_covered(i, j))
        .collect();
    println!(
        "cold-start: {} of {} requests have no direct (n = 1) trust edge",
        cold_requests.len(),
        requests.len()
    );

    let mut variants = vec![
        Variant {
            name: "exact".to_string(),
            n: 1,
            options: PowerOptions::exact(),
        },
        Variant {
            name: "exact".to_string(),
            n: 2,
            options: PowerOptions::exact(),
        },
    ];
    for &(eps, label) in &[(1e-3, "1e-3"), (1e-4, "1e-4")] {
        for &k in &[16usize, 32, 64, 256] {
            variants.push(Variant {
                name: format!("e{label}_k{k}"),
                n: 2,
                options: PowerOptions::pruned(eps).with_top_k(Some(k)),
            });
        }
    }

    let mut table = Table::new(
        "Multi-hop Eq. 8 variants: cost, Eq. 9 top-20 drift, request coverage",
        &["variant", "n", "power_ms", "nnz", "top20", "cov", "cold"],
    );

    for v in &variants {
        let mut best_ms = f64::INFINITY;
        let mut hop = None;
        for _ in 0..5 {
            let start = Instant::now();
            let out = frozen.power(v.n, v.options, t);
            best_ms = best_ms.min(start.elapsed().as_secs_f64() * 1e3);
            hop = Some(out);
        }
        let hop = hop.expect("computed").thaw();
        let top20 = ranking_overlap(&hop, exact_for(v.n));
        let covered = requests
            .iter()
            .filter(|&&(i, j)| tier1_covered(i, j) || hop.get(i, j) > 0.0)
            .count();
        let cold_hits = cold_requests
            .iter()
            .filter(|&&(i, j)| hop.get(i, j) > 0.0)
            .count();
        table.row(&[
            v.name.to_string(),
            v.n.to_string(),
            format!("{best_ms:.2}"),
            hop.nnz().to_string(),
            format!("{top20:.4}"),
            format!("{:.4}", covered as f64 / requests.len().max(1) as f64),
            format!(
                "{:.4}",
                cold_hits as f64 / cold_requests.len().max(1) as f64
            ),
        ]);
    }

    table.finish("exp_multihop");
    println!(
        "\nreading: exact n=2 is the accuracy/coverage ceiling; the recommended\n\
         operating point (eps=1e-3, k=32) should hold top20 >= 0.9 of it while\n\
         cutting nnz and the hop's work by an order of magnitude — multi-hop\n\
         coverage for cold-start requests at a price that fits the epoch budget."
    );
}

fn main() {
    experiment();
    mdrep_bench::write_metrics_if_requested();
}
