//! Causal span tracing: bounded-memory span trees exportable as Chrome
//! Trace Event JSON or a flamegraph-style self-time rollup.
//!
//! The [`Tracer`] complements the aggregate [`Registry`](crate::Registry):
//! where a timer answers "how long do FM builds take on average", a trace
//! answers "which overlay retrievals, with how many RPC retries, ran
//! inside *this* decision of *this* recompute epoch". Every [`TraceSpan`]
//! records one [`TraceEvent`] on drop, linked to the span that was open on
//! the same thread when it started, so nested guards form a per-thread
//! causal tree with no manual parent bookkeeping.
//!
//! Design constraints, in order:
//!
//! * **Bounded memory.** Finished events land in a fixed set of
//!   mutex-sharded ring buffers; once a shard is full the oldest event in
//!   that shard is overwritten and a process-wide drop counter ticks
//!   ([`Tracer::stats`]). Nothing ever reallocates past the configured
//!   capacity.
//! * **Near-free when off.** [`Tracer::span`] on a disabled tracer is one
//!   relaxed atomic load and returns an inert guard whose drop does
//!   nothing.
//! * **Zero dependencies.** Export is hand-rolled JSON in the Chrome Trace
//!   Event Format (`{"traceEvents": [...]}` with `ph: "X"` complete
//!   events), loadable directly in `chrome://tracing` or
//!   [Perfetto](https://ui.perfetto.dev).
//!
//! # Examples
//!
//! ```
//! use mdrep_obs::trace::Tracer;
//!
//! let tracer = Tracer::new();
//! {
//!     let mut epoch = tracer.span("engine.recompute.total");
//!     epoch.annotate("mode", "incremental");
//!     let _fm = tracer.span("engine.recompute.fm_build");
//! } // both guards dropped: two events, fm_build parented to epoch
//! let events = tracer.events();
//! assert_eq!(events.len(), 2);
//! assert!(tracer.to_chrome_json().contains("\"traceEvents\""));
//! ```

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::push_json_string;

/// Number of independent ring-buffer shards; span ids are striped across
/// them so concurrent drops rarely contend on the same mutex.
const SHARD_COUNT: usize = 8;

/// Default total event capacity of [`Tracer::new`] (split across shards).
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// Identifier of one recorded span. Ids are unique per [`Tracer`] and
/// allocated from 1; the value 0 is reserved to mean "no parent" in
/// [`TraceEvent::parent`].
pub type SpanId = u64;

/// One finished span: a named interval with a causal parent and optional
/// string annotations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Unique id of this span (never 0).
    pub id: SpanId,
    /// Id of the enclosing span on the same thread, or 0 for a root.
    pub parent: SpanId,
    /// Dotted lowercase span name (`component.operation.metric`).
    pub name: &'static str,
    /// Start time in microseconds since the tracer's epoch.
    pub start_us: u64,
    /// Duration in microseconds (floor; sub-microsecond spans read 0).
    pub dur_us: u64,
    /// Annotations attached via [`TraceSpan::annotate`], in insertion
    /// order.
    pub args: Vec<(&'static str, String)>,
}

/// Lifetime statistics of a tracer: how many events were recorded and how
/// many were overwritten (dropped) because a shard ring was full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TracerStats {
    /// Total events recorded since creation (including later-dropped ones).
    pub recorded: u64,
    /// Events overwritten by newer ones after their shard filled up.
    pub dropped: u64,
}

impl TracerStats {
    /// Fraction of recorded events that were dropped, in `[0, 1]`.
    #[must_use]
    pub fn drop_rate(&self) -> f64 {
        if self.recorded == 0 {
            0.0
        } else {
            self.dropped as f64 / self.recorded as f64
        }
    }
}

/// Fixed-capacity overwrite-oldest ring of finished events.
#[derive(Debug)]
struct Shard {
    ring: Vec<TraceEvent>,
    /// Next write position once the ring is full.
    head: usize,
    capacity: usize,
}

impl Shard {
    fn push(&mut self, event: TraceEvent) -> bool {
        if self.ring.len() < self.capacity {
            self.ring.push(event);
            false
        } else {
            self.ring[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
            true
        }
    }
}

thread_local! {
    /// Stack of currently-open span ids on this thread; the top is the
    /// parent of the next span started here.
    static OPEN_SPANS: RefCell<Vec<SpanId>> = const { RefCell::new(Vec::new()) };
}

/// A lock-sharded, bounded-memory recorder of causal span trees.
#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    next_id: AtomicU64,
    recorded: AtomicU64,
    dropped: AtomicU64,
    epoch: Instant,
    shards: Vec<Mutex<Shard>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A fresh, enabled tracer with [`DEFAULT_TRACE_CAPACITY`] events.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// A tracer bounded to roughly `capacity` total events (rounded up to
    /// a multiple of the shard count, minimum one event per shard).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        let per_shard = capacity.div_ceil(SHARD_COUNT).max(1);
        let shards = (0..SHARD_COUNT)
            .map(|_| {
                Mutex::new(Shard {
                    ring: Vec::new(),
                    head: 0,
                    capacity: per_shard,
                })
            })
            .collect();
        Self {
            enabled: AtomicBool::new(true),
            next_id: AtomicU64::new(1),
            recorded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            epoch: Instant::now(),
            shards,
        }
    }

    /// Turns recording on or off. Disabling does not clear prior events;
    /// spans started while disabled stay inert even if the tracer is
    /// re-enabled before they drop.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether new spans currently record.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Starts a span. The guard records one [`TraceEvent`] when dropped,
    /// parented to the span that was open on this thread at the call (or
    /// as a root when none was). On a disabled tracer this is one atomic
    /// load and the returned guard is inert.
    #[must_use]
    pub fn span(&self, name: &'static str) -> TraceSpan<'_> {
        if !self.is_enabled() {
            return TraceSpan {
                tracer: self,
                live: None,
            };
        }
        debug_assert!(
            crate::valid_metric_name(name),
            "trace span name {name:?} violates the component.operation.metric convention"
        );
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN_SPANS.with(|stack| {
            let mut stack = stack.borrow_mut();
            let parent = stack.last().copied().unwrap_or(0);
            stack.push(id);
            parent
        });
        TraceSpan {
            tracer: self,
            live: Some(LiveSpan {
                id,
                parent,
                name,
                start: Instant::now(),
                args: Vec::new(),
            }),
        }
    }

    /// Recorded/dropped counters.
    #[must_use]
    pub fn stats(&self) -> TracerStats {
        TracerStats {
            recorded: self.recorded.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
        }
    }

    /// All retained events, sorted by start time then id.
    #[must_use]
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut events: Vec<TraceEvent> = self
            .shards
            .iter()
            .flat_map(|s| self.lock(s).ring.clone())
            .collect();
        events.sort_by_key(|e| (e.start_us, e.id));
        events
    }

    /// Drops every retained event and resets the drop counters (the
    /// enabled flag and id allocator are unchanged).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut shard = self.lock(shard);
            shard.ring.clear();
            shard.head = 0;
        }
        self.recorded.store(0, Ordering::Relaxed);
        self.dropped.store(0, Ordering::Relaxed);
    }

    /// Chrome Trace Event Format JSON of every retained event — load it
    /// in `chrome://tracing` or <https://ui.perfetto.dev>. Span ids and
    /// parent links ride along in each event's `args` (`span_id`,
    /// `parent_id`) next to the span's own annotations.
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        chrome_trace_json(&self.events())
    }

    /// A flamegraph-style text rollup: per span name, total time, *self*
    /// time (total minus direct children), and count, grouped by leading
    /// component and sorted by self time. See [`flamegraph_text`].
    #[must_use]
    pub fn flamegraph(&self) -> String {
        flamegraph_text(&self.events())
    }

    fn record(&self, event: TraceEvent) {
        let shard = &self.shards[(event.id as usize) % SHARD_COUNT];
        let overwrote = self.lock(shard).push(event);
        self.recorded.fetch_add(1, Ordering::Relaxed);
        if overwrote {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[allow(clippy::unused_self)]
    fn lock<'s>(&self, shard: &'s Mutex<Shard>) -> std::sync::MutexGuard<'s, Shard> {
        shard
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[derive(Debug)]
struct LiveSpan {
    id: SpanId,
    parent: SpanId,
    name: &'static str,
    start: Instant,
    args: Vec<(&'static str, String)>,
}

/// RAII guard produced by [`Tracer::span`]; records one event on drop.
#[derive(Debug)]
pub struct TraceSpan<'t> {
    tracer: &'t Tracer,
    live: Option<LiveSpan>,
}

impl TraceSpan<'_> {
    /// This span's id, or 0 when the tracer was disabled at creation.
    #[must_use]
    pub fn id(&self) -> SpanId {
        self.live.as_ref().map_or(0, |l| l.id)
    }

    /// Whether this guard will record an event on drop.
    #[must_use]
    pub fn is_recording(&self) -> bool {
        self.live.is_some()
    }

    /// Attaches an annotation (exported as a string under the event's
    /// `args`). The value is formatted only while recording: on an inert
    /// guard this is a no-op that allocates nothing.
    pub fn annotate(&mut self, key: &'static str, value: impl fmt::Display) {
        if let Some(live) = &mut self.live {
            live.args.push((key, value.to_string()));
        }
    }
}

impl Drop for TraceSpan<'_> {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else {
            return;
        };
        let end = Instant::now();
        OPEN_SPANS.with(|stack| {
            // Guards drop in LIFO order on a thread, so the top is this
            // span; be defensive anyway in case a guard crossed threads.
            let mut stack = stack.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&id| id == live.id) {
                stack.remove(pos);
            }
        });
        let start_us = u64::try_from(
            live.start
                .saturating_duration_since(self.tracer.epoch)
                .as_micros(),
        )
        .unwrap_or(u64::MAX);
        let dur_us = u64::try_from(end.saturating_duration_since(live.start).as_micros())
            .unwrap_or(u64::MAX);
        self.tracer.record(TraceEvent {
            id: live.id,
            parent: live.parent,
            name: live.name,
            start_us,
            dur_us,
            args: live.args,
        });
    }
}

/// The process-wide tracer fed by the engine, DHT, and simulator
/// [`phase`](crate::phase)s. Enabled by default with
/// [`DEFAULT_TRACE_CAPACITY`] (bounded memory either way); disable via
/// `tracer().set_enabled(false)` to make every span site one relaxed
/// atomic load.
pub fn tracer() -> &'static Tracer {
    static GLOBAL: OnceLock<Tracer> = OnceLock::new();
    GLOBAL.get_or_init(Tracer::new)
}

/// Renders `events` in the Chrome Trace Event Format (see
/// [`Tracer::to_chrome_json`]).
#[must_use]
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  {\"name\": ");
        push_json_string(&mut out, e.name);
        out.push_str(&format!(
            ", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \"pid\": 1, \"tid\": 1, \"args\": {{\"span_id\": {}, \"parent_id\": {}",
            e.start_us, e.dur_us, e.id, e.parent
        ));
        for (key, value) in &e.args {
            out.push_str(", ");
            push_json_string(&mut out, key);
            out.push_str(": ");
            push_json_string(&mut out, value);
        }
        out.push_str("}}");
    }
    if !events.is_empty() {
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

/// Per-name aggregate used by the flamegraph rollup.
#[derive(Debug, Clone, Copy, Default)]
struct NameStats {
    count: u64,
    total_us: u64,
    self_us: u64,
}

/// Flamegraph-style self-time rollup of `events` as aligned text, grouped
/// by leading component (`engine.`, `dht.`, ...) and sorted by self time
/// within each group. Self time is a span's duration minus the summed
/// durations of its direct children (saturating at zero when children
/// overlap bookkeeping noise).
#[must_use]
pub fn flamegraph_text(events: &[TraceEvent]) -> String {
    use std::collections::BTreeMap;

    // Sum of direct-child durations per parent id.
    let mut child_us: BTreeMap<SpanId, u64> = BTreeMap::new();
    for e in events {
        if e.parent != 0 {
            let slot = child_us.entry(e.parent).or_insert(0);
            *slot = slot.saturating_add(e.dur_us);
        }
    }
    let mut by_name: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for e in events {
        let stats = by_name.entry(e.name).or_default();
        stats.count += 1;
        stats.total_us = stats.total_us.saturating_add(e.dur_us);
        stats.self_us = stats.self_us.saturating_add(
            e.dur_us
                .saturating_sub(child_us.get(&e.id).copied().unwrap_or(0)),
        );
    }
    if by_name.is_empty() {
        return String::from("(no trace events recorded)\n");
    }

    let mut groups: BTreeMap<&str, Vec<(&'static str, NameStats)>> = BTreeMap::new();
    for (name, stats) in by_name {
        let component = name.split('.').next().unwrap_or(name);
        groups.entry(component).or_default().push((name, stats));
    }
    let width = groups
        .values()
        .flatten()
        .map(|(name, _)| name.len())
        .max()
        .unwrap_or(0);
    let mut out = String::new();
    for (component, mut rows) in groups {
        rows.sort_by(|a, b| b.1.self_us.cmp(&a.1.self_us).then(a.0.cmp(b.0)));
        let group_self: u64 = rows.iter().map(|(_, s)| s.self_us).sum();
        out.push_str(&format!("{component} — self {}\n", format_us(group_self)));
        for (name, s) in rows {
            out.push_str(&format!(
                "  {name:<width$}  self {:>10}  total {:>10}  count {}\n",
                format_us(s.self_us),
                format_us(s.total_us),
                s.count
            ));
        }
    }
    out
}

fn format_us(us: u64) -> String {
    let us = us as f64;
    if us >= 1e6 {
        format!("{:.3}s", us / 1e6)
    } else if us >= 1e3 {
        format!("{:.3}ms", us / 1e3)
    } else {
        format!("{us:.0}µs")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_form_a_causal_tree() {
        let t = Tracer::new();
        {
            let _root = t.span("test.tree.root");
            {
                let _a = t.span("test.tree.child_a");
            }
            let _b = t.span("test.tree.child_b");
        }
        let events = t.events();
        assert_eq!(events.len(), 3);
        let root = events.iter().find(|e| e.name == "test.tree.root").unwrap();
        assert_eq!(root.parent, 0);
        for child in ["test.tree.child_a", "test.tree.child_b"] {
            let c = events.iter().find(|e| e.name == child).unwrap();
            assert_eq!(c.parent, root.id, "{child} parented to root");
            assert!(c.start_us >= root.start_us);
        }
        assert_eq!(
            t.stats(),
            TracerStats {
                recorded: 3,
                dropped: 0
            }
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new();
        t.set_enabled(false);
        {
            let mut s = t.span("test.off.span");
            assert!(!s.is_recording());
            assert_eq!(s.id(), 0);
            s.annotate("key", "value"); // must be a harmless no-op
        }
        assert!(t.events().is_empty());
        assert_eq!(t.stats().recorded, 0);
    }

    #[test]
    fn annotations_survive_into_events() {
        let t = Tracer::new();
        {
            let mut s = t.span("test.args.span");
            s.annotate("outcome", "delivered");
            s.annotate("attempt", 3);
        }
        let events = t.events();
        assert_eq!(
            events[0].args,
            vec![
                ("outcome", "delivered".to_owned()),
                ("attempt", "3".to_owned())
            ]
        );
        let json = t.to_chrome_json();
        assert!(json.contains("\"outcome\": \"delivered\""), "{json}");
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        // Capacity rounds up to one event per shard.
        let t = Tracer::with_capacity(SHARD_COUNT);
        for _ in 0..(3 * SHARD_COUNT) {
            drop(t.span("test.ring.span"));
        }
        let stats = t.stats();
        assert_eq!(stats.recorded, 3 * SHARD_COUNT as u64);
        assert_eq!(stats.dropped, 2 * SHARD_COUNT as u64);
        assert!((stats.drop_rate() - 2.0 / 3.0).abs() < 1e-12);
        let events = t.events();
        assert_eq!(events.len(), SHARD_COUNT, "bounded at capacity");
        // Drop-oldest: the retained ids are exactly the newest batch.
        let min_id = events.iter().map(|e| e.id).min().unwrap();
        assert!(min_id > 2 * SHARD_COUNT as u64, "oldest events overwritten");
    }

    #[test]
    fn clear_resets_events_and_stats() {
        let t = Tracer::new();
        drop(t.span("test.clear.span"));
        t.clear();
        assert!(t.events().is_empty());
        assert_eq!(t.stats(), TracerStats::default());
        assert!(t.is_enabled());
    }

    #[test]
    fn flamegraph_attributes_self_time() {
        let events = vec![
            TraceEvent {
                id: 1,
                parent: 0,
                name: "engine.recompute.epoch",
                start_us: 0,
                dur_us: 100,
                args: Vec::new(),
            },
            TraceEvent {
                id: 2,
                parent: 1,
                name: "engine.recompute.fm_build",
                start_us: 10,
                dur_us: 60,
                args: Vec::new(),
            },
        ];
        let text = flamegraph_text(&events);
        assert!(text.contains("engine — self 100µs"), "{text}");
        assert!(text.contains("engine.recompute.fm_build"), "{text}");
        // Root self time is 100 - 60 = 40µs.
        let root_row = text
            .lines()
            .find(|l| l.contains("engine.recompute.epoch"))
            .unwrap();
        assert!(root_row.contains("40µs"), "{text}");
    }

    #[test]
    fn chrome_json_is_parseable() {
        let t = Tracer::new();
        drop(t.span("test.chrome.span"));
        let doc = crate::json::parse(&t.to_chrome_json()).expect("valid JSON");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(
            events[0]
                .get("args")
                .unwrap()
                .get("parent_id")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
    }
}
