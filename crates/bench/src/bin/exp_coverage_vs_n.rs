//! **TAB-N** — Section 3.2's claim about choosing `n`: when the one-step
//! trust matrix is dense (implicit evaluation), `n = 1` already covers
//! most requests; when it is sparse (few explicit votes), multi-trust
//! needs more steps — "if the one-step matrix is too sparse, it will need
//! a lot of steps to get adequate request coverage".
//!
//! We build the file-based one-step matrix from votes only (evaluation
//! coverage k%) and measure request coverage of `RM = FM^n` for
//! n ∈ {1, 2, 3, 4}.
//!
//! Run: `cargo run -p mdrep-bench --bin exp_coverage_vs_n --release`

use mdrep::{EvaluationStore, FileTrust, Params, ReputationMatrix};
use mdrep_bench::Table;
use mdrep_types::SimTime;
use mdrep_workload::{EventKind, TraceBuilder, WorkloadConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn experiment() {
    let days = 10u64;
    let config = WorkloadConfig::builder()
        .users(400)
        .titles(800)
        .days(days)
        .downloads_per_user_day(4.0)
        .pollution_rate(0.0)
        .seed(31)
        .build()
        .expect("valid config");
    let trace = TraceBuilder::new(config).generate();
    let requests = trace.request_pairs();
    let end = SimTime::from_ticks(days * 86_400);
    println!(
        "trace: {} users, {} requests; RM = FM^n from votes only",
        trace.population().len(),
        requests.len()
    );

    let coverages = [0.01, 0.05, 0.20, 1.00];
    let steps = [1u32, 2, 3, 4];

    let mut table = Table::new(
        "Coverage of RM = FM^n vs evaluation coverage k (votes only)",
        &["k", "one_step_nnz", "n=1", "n=2", "n=3", "n=4"],
    );

    for &k in &coverages {
        // Voting store: each download is voted on with probability k.
        let mut rng = StdRng::seed_from_u64((k * 1e6) as u64 ^ 0xc0_5e);
        let mut store = EvaluationStore::new();
        for event in trace.events() {
            if let EventKind::Download {
                downloader, file, ..
            } = event.kind
            {
                if rng.random::<f64>() < k {
                    let value = if trace.catalog().is_authentic(file) {
                        mdrep_types::Evaluation::BEST
                    } else {
                        mdrep_types::Evaluation::WORST
                    };
                    store.record_vote(event.time, downloader, file, value);
                }
            }
        }
        // Pure explicit: η = 0 keeps votes verbatim.
        let eta0 = Params::builder().eta(0.0).build().expect("valid");
        let fm = FileTrust::compute(&store, end, &eta0).matrix();
        let nnz = fm.nnz();

        let mut row = vec![k, nnz as f64];
        for &n in &steps {
            let params = Params::builder().eta(0.0).steps(n).build().expect("valid");
            let rm = ReputationMatrix::compute_csr(fm.clone(), &params);
            // Reachability within ≤ n steps: a request is covered if any
            // tier reaches it (the multi-tier service view).
            let covered = requests
                .iter()
                .filter(|&&(i, j)| rm.tier_of(i, j).is_some())
                .count();
            row.push(covered as f64 / requests.len().max(1) as f64);
        }
        table.row_f64(&row);
    }

    table.finish("exp_coverage_vs_n");
    println!(
        "\npaper claim: dense one-step (k=1.0) needs only n=1; sparse matrices gain\n\
         coverage with every extra step but never catch the dense one-step matrix."
    );
}

fn main() {
    experiment();
    mdrep_bench::write_metrics_if_requested();
}
