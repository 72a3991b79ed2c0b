//! The benchmark's workloads: one set of inputs each, derived from a seed.
//!
//! Every workload runs the same two loops in turn — a closed-loop writer
//! that ingests events and publishes epochs, and one closed-loop client
//! that serves decisions — so every end-to-end metric exists on every
//! workload. What differs is where the work lands:
//!
//! - `trace-live` replays a polluted, Zipf-popular trace hour by hour with
//!   the engine clock advancing at every epoch, which forces the batch
//!   rebuild (Eq. 2, freeze, blend, RM) on every epoch; its client asks
//!   about the hour's own downloads, so the trace sets the decision rate;
//! - `serve-hot` holds the engine clock and folds events on new content,
//!   so epochs take the dirty-row path, while requests confined to a small
//!   hot set of viewers and files keep the decision on per-node cache hits;
//! - `serve-cold` uses mild skew and small caches under message loss and
//!   churn, so decisions walk the overlay, retry and verify signatures.

use mdrep_types::SimDuration;

/// What the writer loop feeds the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriterKind {
    /// The trace's live days, one simulated hour per epoch; the engine
    /// clock moves to each hour's end.
    TraceReplay,
    /// Events on new content with the engine clock held at the end of the
    /// history: per epoch, `files` files from a fixed pool of new files,
    /// each re-published by its publisher and re-voted by its `voters`
    /// voters, plus `ranks` ratings from a fixed pool of user pairs.
    ColdContent {
        files: usize,
        voters: usize,
        ranks: usize,
    },
}

/// Network faults on the client's overlay traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Faults {
    /// Per-RPC loss probability.
    pub loss: f64,
    /// Churn wave length: the fault plan takes a new set of nodes down
    /// every period, and the client applies churn and ticks the tier at
    /// each period boundary.
    pub churn_period: SimDuration,
    /// Fraction of nodes down in each wave.
    pub churn_down: f64,
}

/// Which decisions the client serves between two writer epochs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Requests {
    /// One per `every`-th download, in trace order, of the batch the
    /// writer is about to fold in: the downloader asks about the file
    /// before it downloads it. The trace sets the mix and, scaled by
    /// `1/every`, the rate.
    TraceDownloads { every: usize },
    /// `per_epoch` decisions, viewers and files drawn from Zipf laws over
    /// the head of each population (`usize::MAX` = all of it).
    Zipf {
        /// Zipf exponent of who asks.
        viewer_zipf: f64,
        /// Who may ask: the first `hot_viewers` users by id.
        hot_viewers: usize,
        /// Zipf exponent of which file they ask about.
        file_zipf: f64,
        /// Which files they may ask about: the `hot_files` most-owned.
        hot_files: usize,
        /// Decisions between two writer epochs.
        per_epoch: usize,
    },
}

/// The client loop's traffic shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientSpec {
    /// Which decisions it serves.
    pub requests: Requests,
    /// Files each node's evaluation cache holds.
    pub cache_capacity: usize,
    /// Cache entry time to live (simulated; one decision is one tick).
    pub cache_ttl: SimDuration,
    /// Faults on overlay traffic (`None` = quiet network).
    pub faults: Option<Faults>,
    /// Decisions between two signed republications by the client (`None`
    /// = no publishes).
    pub publish_every: Option<u64>,
}

/// One workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// The name the command line selects it by.
    pub name: &'static str,
    /// Users in the generated trace (every one joins the overlay).
    pub users: usize,
    /// Titles in the catalog.
    pub titles: usize,
    /// Days of trace ingested during set-up.
    pub history_days: u64,
    /// Further days the trace-replay writer can draw from.
    pub live_days: u64,
    /// The writer loop.
    pub writer: WriterKind,
    /// The client loop.
    pub client: ClientSpec,
    /// `peak_rss_mb` is read once the pass has published this many epochs,
    /// about a third into a 20 s run on a 2-core box. A seed fixes the
    /// sequence of operations, so the figure does not grow with speed: the
    /// tier's caches and gossip seen-sets keep growing with work done.
    pub rss_epochs: usize,
}

/// The trace's own download requests over a quiet overlay that publishes
/// nothing new: the DHT only serves what set-up published. Per-node caches
/// rarely hit, since a downloader seldom asks about a file twice. A quarter
/// of the downloads keeps the client to about a fifth of the run, so the
/// batch epochs this workload exists for get most of it.
const TRACE_CLIENT: ClientSpec = ClientSpec {
    requests: Requests::TraceDownloads { every: 4 },
    cache_capacity: 1024,
    cache_ttl: SimDuration::from_hours(6),
    faults: None,
    publish_every: None,
};

/// All requests come from a hot set of 32 viewers asking about the 128
/// most-owned files, so (viewer, file) pairs recur well within the TTL and
/// the hit ratio settles near 0.84, the cache sweep experiment's operating
/// point: the median decision is a cache hit on every seed. Inside the hot
/// sets popularity is flat (viewers) or mild (files), so the median is a
/// blend of many viewers' rows and many files' owner lists. A decision
/// costs about as much as its file has owners, and under a steep law the
/// top one or two files would set the median alone: their owner counts
/// swing from seed to seed (360 to 590 at 2000 users) where the body of
/// the distribution barely moves; a dominant viewer's matrix row would do
/// the same.
const HOT_CLIENT: ClientSpec = ClientSpec {
    requests: Requests::Zipf {
        viewer_zipf: 0.0,
        hot_viewers: 32,
        file_zipf: 0.5,
        hot_files: 128,
        per_epoch: 256,
    },
    cache_capacity: 1024,
    cache_ttl: SimDuration::from_hours(6),
    faults: None,
    publish_every: Some(256),
};

/// Mild skew and small caches under message loss and churn waves: the
/// working set exceeds every node's cache, so decisions walk the overlay.
const COLD_CLIENT: ClientSpec = ClientSpec {
    requests: Requests::Zipf {
        viewer_zipf: 0.6,
        hot_viewers: usize::MAX,
        file_zipf: 0.6,
        hot_files: usize::MAX,
        per_epoch: 64,
    },
    cache_capacity: 8,
    cache_ttl: SimDuration::from_mins(10),
    faults: Some(Faults {
        loss: 0.1,
        churn_period: SimDuration::from_mins(10),
        churn_down: 0.1,
    }),
    publish_every: Some(64),
};

/// Events on new content per serve epoch: about 150 dirty rows of 2000,
/// enough work that an epoch's time is not set by its cold-cache start.
const COLD_CONTENT: WriterKind = WriterKind::ColdContent {
    files: 32,
    voters: 3,
    ranks: 32,
};

/// Every workload the benchmark knows, in the order `BENCHMARK.json`
/// lists them.
pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "trace-live",
        users: 2000,
        titles: 4000,
        history_days: 3,
        live_days: 16,
        writer: WriterKind::TraceReplay,
        client: TRACE_CLIENT,
        // Two simulated days: one turnover of the evaluation window.
        rss_epochs: 48,
    },
    Spec {
        name: "serve-hot",
        users: 2000,
        titles: 4000,
        history_days: 3,
        live_days: 0,
        writer: COLD_CONTENT,
        client: HOT_CLIENT,
        rss_epochs: 384,
    },
    Spec {
        name: "serve-cold",
        users: 2000,
        titles: 4000,
        history_days: 3,
        live_days: 0,
        writer: COLD_CONTENT,
        client: COLD_CLIENT,
        rss_epochs: 512,
    },
];

impl Spec {
    /// The workload named `name`.
    pub fn by_name(name: &str) -> Option<Self> {
        WORKLOADS.iter().copied().find(|s| s.name == name)
    }

    /// The same workload at a scale that sets up in well under a second
    /// (the benchmark's own tests).
    #[cfg(test)]
    pub fn smoke(self) -> Self {
        let requests = match self.client.requests {
            Requests::Zipf {
                viewer_zipf,
                hot_viewers,
                file_zipf,
                hot_files,
                ..
            } => Requests::Zipf {
                viewer_zipf,
                hot_viewers,
                file_zipf,
                hot_files,
                per_epoch: 100,
            },
            trace => trace,
        };
        Self {
            users: 120,
            titles: 240,
            history_days: 2,
            live_days: self.live_days.min(2),
            client: ClientSpec {
                requests,
                ..self.client
            },
            ..self
        }
    }
}
