//! Zero-dependency instrumentation for the mdrep workspace.
//!
//! The crate provides a [`Registry`] of four metric kinds, all addressed by
//! dotted lowercase names (`component.operation.metric`):
//!
//! * **Counters** — monotonically increasing `u64` values that saturate
//!   instead of wrapping ([`Registry::counter_add`]).
//! * **Gauges** — last-write-wins `f64` values ([`Registry::gauge_set`]).
//! * **Timers** — aggregated durations (count/total/min/max), fed by
//!   [`phase`] guards on the [`global`] registry or directly
//!   ([`Registry::record_duration`]).
//! * **Histograms** — fixed upper-bound buckets plus an implicit `+inf`
//!   overflow bucket ([`Registry::histogram_record`]).
//!
//! A snapshot of the registry renders to an aligned text table
//! ([`Snapshot::render_text`]) or machine-readable JSON
//! ([`Snapshot::to_json`]); the bundled [`json`] module parses the latter
//! back for round-trip checks. The process-wide [`global`] registry is what
//! the engine, simulator, and DHT hot paths feed; disabling it
//! ([`Registry::set_enabled`]) turns every record call into an atomic load
//! and an early return.
//!
//! Every traced layer of the workspace opens one [`phase`] guard, which
//! feeds both a [`global`] registry timer and a [`tracer`] span under one
//! name. With both enabled, each span name the tracer holds therefore has
//! a timer with the same count; a bare [`Tracer::span`] is for local
//! tracers in tests and benches. [`export`] writes the global registry,
//! tracer and series to the files the `--metrics-out`, `--trace-out` and
//! `--series-out` flags name.
//!
//! Three sibling layers cover what aggregates can't:
//!
//! * [`trace`] — causal span trees (who called what, with which retries)
//!   in a bounded lock-sharded ring, exportable as Chrome-trace JSON or a
//!   flamegraph-style self-time rollup.
//! * [`timeseries`] — fixed-capacity series of metric values over
//!   *simulated* time, for convergence plots (CSV/JSON export).
//! * [`slo`] — declarative bounds over all of the above, evaluated into
//!   *named* violations for CI watchdogs.
//!
//! Metric and span names follow the dotted-lowercase
//! `component.operation.metric` convention (≥ 3 segments of
//! `[a-z0-9_]+`), checked by a debug assertion at every record site
//! ([`valid_metric_name`]).
//!
//! # Examples
//!
//! ```
//! use mdrep_obs::Registry;
//! use std::time::Duration;
//!
//! let registry = Registry::new();
//! registry.counter_add("dht.lookup.timeouts", 1);
//! registry.gauge_set("engine.tm.density", 0.25);
//! registry.record_duration("engine.recompute.total", Duration::from_millis(12));
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("dht.lookup.timeouts"), Some(1));
//! assert!(snap.to_json().contains("engine.recompute.total"));
//!
//! {
//!     let mut phase = mdrep_obs::phase("engine.recompute.fm_build");
//!     phase.annotate("rows", 12);
//!     // ... timed work ...
//! }
//! let snap = mdrep_obs::global().snapshot();
//! assert_eq!(snap.timer("engine.recompute.fm_build").map(|t| t.count), Some(1));
//! ```

#![forbid(unsafe_code)]

pub mod json;
pub mod slo;
pub mod timeseries;
pub mod trace;

pub use slo::{Slo, SloBound, SloViolation, SloWatchdog};
pub use timeseries::{series, TimeSeries};
pub use trace::{tracer, SpanId, TraceEvent, TraceSpan, Tracer, TracerStats};

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Aggregated statistics for one named timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TimerStats {
    /// Number of recorded durations.
    pub count: u64,
    /// Sum of all recorded durations, in nanoseconds (saturating).
    pub total_ns: u64,
    /// Shortest recorded duration, in nanoseconds.
    pub min_ns: u64,
    /// Longest recorded duration, in nanoseconds.
    pub max_ns: u64,
}

impl TimerStats {
    /// Mean duration in nanoseconds (0 when nothing was recorded).
    #[must_use]
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    fn record(&mut self, ns: u64) {
        if self.count == 0 {
            self.min_ns = ns;
            self.max_ns = ns;
        } else {
            self.min_ns = self.min_ns.min(ns);
            self.max_ns = self.max_ns.max(ns);
        }
        self.count = self.count.saturating_add(1);
        self.total_ns = self.total_ns.saturating_add(ns);
    }
}

/// A fixed-bucket histogram: `counts[i]` tallies samples `<= bounds[i]`,
/// with one extra overflow bucket for everything larger.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramStats {
    /// Sorted inclusive upper bounds of the finite buckets.
    pub bounds: Vec<f64>,
    /// One count per finite bucket, plus the trailing `+inf` bucket
    /// (`counts.len() == bounds.len() + 1`).
    pub counts: Vec<u64>,
    /// Total number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: f64,
}

impl HistogramStats {
    fn with_bounds(mut bounds: Vec<f64>) -> Self {
        bounds.retain(|b| !b.is_nan());
        bounds.sort_by(|a, b| a.partial_cmp(b).expect("no NaN bounds"));
        bounds.dedup();
        let counts = vec![0; bounds.len() + 1];
        Self {
            bounds,
            counts,
            count: 0,
            sum: 0.0,
        }
    }

    fn record(&mut self, value: f64) {
        // First bucket whose inclusive upper bound admits the value; NaN
        // falls through every comparison into the overflow bucket.
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] = self.counts[idx].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum += value;
    }

    /// Estimated value at percentile `p` (in `0..=100`), interpolating
    /// linearly within the bucket the rank falls into. The first bucket's
    /// lower edge is taken as `min(0, bounds[0])`; ranks landing in the
    /// `+inf` overflow bucket are clamped to the highest finite bound.
    /// `None` when no samples were recorded.
    #[must_use]
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let target = p.clamp(0.0, 100.0) / 100.0 * self.count as f64;
        let mut below = 0u64;
        for (i, &bucket) in self.counts.iter().enumerate() {
            if bucket == 0 {
                continue;
            }
            let through = below + bucket;
            if through as f64 >= target {
                let Some(&upper) = self.bounds.get(i) else {
                    // Overflow bucket: no finite upper edge to interpolate
                    // toward, so clamp to the last finite bound.
                    return Some(self.bounds.last().copied().unwrap_or(f64::INFINITY));
                };
                let lower = if i == 0 {
                    upper.min(0.0)
                } else {
                    self.bounds[i - 1]
                };
                let fraction = ((target - below as f64) / bucket as f64).clamp(0.0, 1.0);
                return Some(lower + (upper - lower) * fraction);
            }
            below = through;
        }
        Some(self.bounds.last().copied().unwrap_or(f64::INFINITY))
    }
}

/// Default histogram bucket bounds (powers of ten around "fractions to
/// thousands"), used when a histogram is recorded without prior
/// registration via [`Registry::histogram_with_bounds`].
pub const DEFAULT_BUCKETS: [f64; 8] = [0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1_000.0, 10_000.0];

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    timers: BTreeMap<String, TimerStats>,
    histograms: BTreeMap<String, HistogramStats>,
}

/// A thread-safe collection of named metrics.
///
/// All mutation goes through `&self`; a single mutex guards the maps, and
/// an atomic `enabled` flag short-circuits every record call when the
/// registry is switched off, so instrumentation left in hot paths costs one
/// relaxed load when disabled.
#[derive(Debug)]
pub struct Registry {
    enabled: AtomicBool,
    inner: Mutex<Inner>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// A fresh, enabled registry.
    #[must_use]
    pub fn new() -> Self {
        Self {
            enabled: AtomicBool::new(true),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// A fresh registry that starts disabled (every record call is a no-op
    /// until [`Registry::set_enabled`] turns it on).
    #[must_use]
    pub fn disabled() -> Self {
        let registry = Self::new();
        registry.set_enabled(false);
        registry
    }

    /// Turns recording on or off. Disabling does not clear existing data.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether record calls currently take effect.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Adds `delta` to the named counter, saturating at `u64::MAX`.
    pub fn counter_add(&self, name: &str, delta: u64) {
        if !self.is_enabled() {
            return;
        }
        debug_check_name(name);
        let mut inner = self.lock();
        let slot = entry_or_default(&mut inner.counters, name);
        *slot = slot.saturating_add(delta);
    }

    /// Increments the named counter by one.
    pub fn counter_inc(&self, name: &str) {
        self.counter_add(name, 1);
    }

    /// Sets the named gauge to `value` (last write wins).
    pub fn gauge_set(&self, name: &str, value: f64) {
        if !self.is_enabled() {
            return;
        }
        debug_check_name(name);
        let mut inner = self.lock();
        match inner.gauges.get_mut(name) {
            Some(slot) => *slot = value,
            None => {
                inner.gauges.insert(name.to_owned(), value);
            }
        }
    }

    /// Registers a histogram with explicit inclusive upper bounds (an
    /// overflow bucket is always appended). Re-registering an existing
    /// histogram keeps the recorded data and its original bounds.
    pub fn histogram_with_bounds(&self, name: &str, bounds: &[f64]) {
        if !self.is_enabled() {
            return;
        }
        debug_check_name(name);
        let mut inner = self.lock();
        if !inner.histograms.contains_key(name) {
            inner.histograms.insert(
                name.to_owned(),
                HistogramStats::with_bounds(bounds.to_vec()),
            );
        }
    }

    /// Records one sample into the named histogram, creating it with
    /// [`DEFAULT_BUCKETS`] on first use.
    pub fn histogram_record(&self, name: &str, value: f64) {
        if !self.is_enabled() {
            return;
        }
        debug_check_name(name);
        let mut inner = self.lock();
        if let Some(h) = inner.histograms.get_mut(name) {
            h.record(value);
        } else {
            let mut h = HistogramStats::with_bounds(DEFAULT_BUCKETS.to_vec());
            h.record(value);
            inner.histograms.insert(name.to_owned(), h);
        }
    }

    /// Records one duration into the named timer.
    pub fn record_duration(&self, name: &str, duration: Duration) {
        if !self.is_enabled() {
            return;
        }
        debug_check_name(name);
        let ns = u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX);
        let mut inner = self.lock();
        if let Some(t) = inner.timers.get_mut(name) {
            t.record(ns);
        } else {
            let mut t = TimerStats::default();
            t.record(ns);
            inner.timers.insert(name.to_owned(), t);
        }
    }

    /// A point-in-time copy of every metric.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.lock();
        Snapshot {
            counters: inner.counters.clone(),
            gauges: inner.gauges.clone(),
            timers: inner.timers.clone(),
            histograms: inner.histograms.clone(),
        }
    }

    /// Drops every recorded metric (the enabled flag is unchanged).
    pub fn clear(&self) {
        let mut inner = self.lock();
        *inner = Inner::default();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A poisoned mutex only means another thread panicked mid-record;
        // the maps are still structurally sound, so keep going.
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Whether `name` follows the `component.operation.metric` convention:
/// at least three non-empty dot-separated segments, each consisting only
/// of lowercase ASCII letters, digits, and underscores. Every record
/// method debug-asserts this, so nonconforming names fail fast in tests
/// while release hot paths pay nothing.
#[must_use]
pub fn valid_metric_name(name: &str) -> bool {
    let mut segments = 0usize;
    for segment in name.split('.') {
        if segment.is_empty()
            || !segment
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
        {
            return false;
        }
        segments += 1;
    }
    segments >= 3
}

#[track_caller]
fn debug_check_name(name: &str) {
    debug_assert!(
        valid_metric_name(name),
        "metric name {name:?} violates the component.operation.metric dotted-lowercase convention"
    );
}

fn entry_or_default<'m, V: Default>(map: &'m mut BTreeMap<String, V>, name: &str) -> &'m mut V {
    if !map.contains_key(name) {
        map.insert(name.to_owned(), V::default());
    }
    map.get_mut(name).expect("just inserted")
}

/// The process-wide registry fed by the engine, simulator, and DHT.
///
/// Enabled by default; call `global().set_enabled(false)` to turn the
/// built-in instrumentation into near-free no-ops.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Starts one phase: a [`global`] registry timer and a [`tracer`] span
/// under the same `name`, both closed when the guard drops — so the
/// aggregate and the causal view always name the same phases, each with
/// the same count.
#[must_use]
pub fn phase(name: &'static str) -> Phase {
    let start = global().is_enabled().then(Instant::now);
    Phase {
        name,
        start,
        trace: tracer().span(name),
    }
}

/// RAII guard produced by [`phase`]; the timer closes first, then the span.
/// A phase started while the registry was disabled records no timer.
#[derive(Debug)]
pub struct Phase {
    name: &'static str,
    start: Option<Instant>,
    trace: TraceSpan<'static>,
}

impl Phase {
    /// Annotates the trace span; the value is formatted only while the
    /// tracer records (a no-op, with no allocation, while it is disabled).
    pub fn annotate(&mut self, key: &'static str, value: impl fmt::Display) {
        self.trace.annotate(key, value);
    }
}

impl Drop for Phase {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            global().record_duration(self.name, start.elapsed());
        }
    }
}

/// One telemetry file written by [`export`].
#[derive(Debug)]
pub struct Exported {
    /// What the file holds: `metrics`, `trace` or `series`.
    pub what: &'static str,
    /// Where it was written.
    pub path: String,
    /// Whether the write succeeded.
    pub result: std::io::Result<()>,
}

/// Writes the process-wide telemetry that the output flags ask for.
/// `path_for` maps a flag name, without its leading `--`, to the path
/// given for it:
///
/// - `metrics-out` — the [`global`] registry as JSON;
/// - `trace-out` — the [`tracer`]'s span tree as Chrome-trace JSON (load
///   it in `chrome://tracing` or Perfetto);
/// - `series-out` — the [`series`] as CSV when the path ends in `.csv`,
///   else as JSON.
///
/// Every requested file is attempted, in that order; the caller decides
/// what a failed write means.
pub fn export(path_for: impl Fn(&str) -> Option<String>) -> Vec<Exported> {
    [
        ("metrics-out", "metrics"),
        ("trace-out", "trace"),
        ("series-out", "series"),
    ]
    .into_iter()
    .filter_map(|(flag, what)| {
        let path = path_for(flag)?;
        let body = match what {
            "metrics" => global().snapshot().to_json(),
            "trace" => tracer().to_chrome_json(),
            _ if path.ends_with(".csv") => series().to_csv(),
            _ => series().to_json(),
        };
        let result = std::fs::write(&path, body);
        Some(Exported { what, path, result })
    })
    .collect()
}

/// An immutable copy of a registry's contents, able to render itself.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Timer aggregates by name.
    pub timers: BTreeMap<String, TimerStats>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistogramStats>,
}

impl Snapshot {
    /// Value of a counter, if recorded.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Value of a gauge, if recorded.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Aggregates of a timer, if recorded.
    #[must_use]
    pub fn timer(&self, name: &str) -> Option<&TimerStats> {
        self.timers.get(name)
    }

    /// A histogram, if recorded.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramStats> {
        self.histograms.get(name)
    }

    /// Whether nothing at all was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.timers.is_empty()
            && self.histograms.is_empty()
    }

    /// An aligned, human-readable rendering (also the `Display` output).
    #[must_use]
    pub fn render_text(&self) -> String {
        self.to_string()
    }

    /// Machine-readable JSON: one object per metric kind, names as keys.
    /// Non-finite gauge values are encoded as the strings `"NaN"`,
    /// `"inf"`, and `"-inf"` so the output stays valid JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        push_entries(&mut out, self.counters.iter(), |out, v| {
            out.push_str(&v.to_string());
        });
        out.push_str("},\n  \"gauges\": {");
        push_entries(&mut out, self.gauges.iter(), |out, v| {
            push_json_f64(out, *v)
        });
        out.push_str("},\n  \"timers\": {");
        push_entries(&mut out, self.timers.iter(), |out, t| {
            out.push_str(&format!(
                "{{\"count\": {}, \"total_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \"mean_ns\": ",
                t.count, t.total_ns, t.min_ns, t.max_ns
            ));
            push_json_f64(out, t.mean_ns());
            out.push('}');
        });
        out.push_str("},\n  \"histograms\": {");
        push_entries(&mut out, self.histograms.iter(), |out, h| {
            out.push_str("{\"bounds\": [");
            for (i, b) in h.bounds.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                push_json_f64(out, *b);
            }
            out.push_str("], \"counts\": [");
            for (i, c) in h.counts.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&c.to_string());
            }
            out.push_str(&format!("], \"count\": {}, \"sum\": ", h.count));
            push_json_f64(out, h.sum);
            for (label, p) in [("p50", 50.0), ("p95", 95.0), ("p99", 99.0)] {
                out.push_str(&format!(", \"{label}\": "));
                push_json_f64(out, h.percentile(p).unwrap_or(f64::NAN));
            }
            out.push('}');
        });
        out.push_str("}\n}\n");
        out
    }
}

fn push_entries<'a, V: 'a>(
    out: &mut String,
    entries: impl ExactSizeIterator<Item = (&'a String, &'a V)>,
    mut write_value: impl FnMut(&mut String, &V),
) {
    let len = entries.len();
    for (i, (name, value)) in entries.enumerate() {
        out.push_str("\n    ");
        push_json_string(out, name);
        out.push_str(": ");
        write_value(out, value);
        if i + 1 < len {
            out.push(',');
        }
    }
    if len > 0 {
        out.push_str("\n  ");
    }
}

fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_json_f64(out: &mut String, v: f64) {
    if v.is_nan() {
        out.push_str("\"NaN\"");
    } else if v == f64::INFINITY {
        out.push_str("\"inf\"");
    } else if v == f64::NEG_INFINITY {
        out.push_str("\"-inf\"");
    } else if v == v.trunc() && v.abs() < 1e15 {
        // Integral values print without an exponent but keep a `.0` so the
        // kind survives a round-trip.
        out.push_str(&format!("{v:.1}"));
    } else {
        out.push_str(&format!("{v}"));
    }
}

impl fmt::Display for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return writeln!(f, "(no metrics recorded)");
        }
        let width = self
            .counters
            .keys()
            .chain(self.gauges.keys())
            .chain(self.timers.keys())
            .chain(self.histograms.keys())
            .map(String::len)
            .max()
            .unwrap_or(0);
        if !self.counters.is_empty() {
            writeln!(f, "counters:")?;
            for (name, value) in &self.counters {
                writeln!(f, "  {name:<width$}  {value}")?;
            }
        }
        if !self.gauges.is_empty() {
            writeln!(f, "gauges:")?;
            for (name, value) in &self.gauges {
                writeln!(f, "  {name:<width$}  {value}")?;
            }
        }
        if !self.timers.is_empty() {
            writeln!(f, "timers:")?;
            for (name, t) in &self.timers {
                writeln!(
                    f,
                    "  {name:<width$}  n={} mean={} min={} max={} total={}",
                    t.count,
                    format_ns(t.mean_ns()),
                    format_ns(t.min_ns as f64),
                    format_ns(t.max_ns as f64),
                    format_ns(t.total_ns as f64),
                )?;
            }
        }
        if !self.histograms.is_empty() {
            writeln!(f, "histograms:")?;
            for (name, h) in &self.histograms {
                write!(f, "  {name:<width$}  n={} sum={:.3}", h.count, h.sum)?;
                if h.count > 0 {
                    write!(
                        f,
                        " p50={:.3} p95={:.3} p99={:.3}",
                        h.percentile(50.0).unwrap_or(f64::NAN),
                        h.percentile(95.0).unwrap_or(f64::NAN),
                        h.percentile(99.0).unwrap_or(f64::NAN),
                    )?;
                }
                write!(f, " buckets=[")?;
                for (i, c) in h.counts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    let label = h
                        .bounds
                        .get(i)
                        .map_or_else(|| "+inf".to_owned(), |b| format!("{b}"));
                    write!(f, "≤{label}:{c}")?;
                }
                writeln!(f, "]")?;
            }
        }
        Ok(())
    }
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.1}µs", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_record() {
        let r = Registry::new();
        r.counter_inc("obs.test.count");
        r.counter_add("obs.test.count", 4);
        r.gauge_set("obs.test.gauge", 1.5);
        r.gauge_set("obs.test.gauge", 2.5);
        let s = r.snapshot();
        assert_eq!(s.counter("obs.test.count"), Some(5));
        assert_eq!(s.gauge("obs.test.gauge"), Some(2.5));
    }

    #[test]
    fn metric_name_convention_is_enforced() {
        assert!(valid_metric_name("engine.recompute.total"));
        assert!(valid_metric_name("engine.recompute.mode.full"));
        assert!(valid_metric_name("dht.lookup.hops_per_lookup"));
        for bad in [
            "",
            "engine",
            "sim.events_per_sec",
            "engine..total",
            "Engine.recompute.total",
            "engine.recompute.total ",
            "engine.recompute.Total",
        ] {
            assert!(!valid_metric_name(bad), "{bad:?} should be rejected");
        }
    }

    #[test]
    #[should_panic(expected = "component.operation.metric")]
    #[cfg(debug_assertions)]
    fn nonconforming_names_panic_in_debug() {
        Registry::new().counter_inc("badName");
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let r = Registry::disabled();
        r.counter_inc("obs.test.count");
        r.gauge_set("obs.test.gauge", 1.0);
        r.record_duration("obs.test.timer", Duration::from_millis(1));
        r.histogram_record("obs.test.hist", 0.5);
        assert!(r.snapshot().is_empty());
        // Re-enabling resumes recording on the same registry.
        r.set_enabled(true);
        r.counter_inc("obs.test.count");
        assert_eq!(r.snapshot().counter("obs.test.count"), Some(1));
    }

    #[test]
    fn phase_records_on_drop() {
        {
            let _phase = phase("obs.test.phase_work");
            std::thread::sleep(Duration::from_millis(2));
        }
        let s = global().snapshot();
        let t = s.timer("obs.test.phase_work").expect("recorded");
        assert_eq!(t.count, 1);
        assert!(t.total_ns >= 2_000_000, "got {}", t.total_ns);
        assert_eq!(t.min_ns, t.max_ns);
    }

    #[test]
    fn timer_min_max_mean() {
        let r = Registry::new();
        r.record_duration("obs.test.timer", Duration::from_nanos(100));
        r.record_duration("obs.test.timer", Duration::from_nanos(300));
        let s = r.snapshot();
        let t = s.timer("obs.test.timer").unwrap();
        assert_eq!(
            (t.count, t.min_ns, t.max_ns, t.total_ns),
            (2, 100, 300, 400)
        );
        assert!((t.mean_ns() - 200.0).abs() < 1e-12);
    }

    #[test]
    fn percentiles_interpolate_within_buckets() {
        let mut h = HistogramStats::with_bounds(vec![10.0, 20.0, 40.0]);
        assert_eq!(h.percentile(50.0), None, "no samples yet");
        // 10 samples in (0, 10], 10 in (10, 20]: the median sits exactly
        // on the first bucket's upper edge.
        for _ in 0..10 {
            h.record(5.0);
        }
        for _ in 0..10 {
            h.record(15.0);
        }
        assert!((h.percentile(50.0).unwrap() - 10.0).abs() < 1e-9);
        // 75th percentile: rank 15 of 20 → halfway through bucket 2.
        assert!((h.percentile(75.0).unwrap() - 15.0).abs() < 1e-9);
        assert!((h.percentile(0.0).unwrap() - 0.0).abs() < 1e-9);
        assert!((h.percentile(100.0).unwrap() - 20.0).abs() < 1e-9);
        // Overflow samples clamp to the highest finite bound.
        h.record(1e9);
        assert!((h.percentile(100.0).unwrap() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn percentiles_appear_in_render_and_json() {
        let r = Registry::new();
        r.histogram_with_bounds("obs.test.dist", &[1.0, 2.0]);
        r.histogram_record("obs.test.dist", 0.5);
        let snap = r.snapshot();
        assert!(
            snap.render_text().contains("p95="),
            "{}",
            snap.render_text()
        );
        let doc = json::parse(&snap.to_json()).expect("parses");
        let hist = doc.get("histograms").unwrap().get("obs.test.dist").unwrap();
        assert!(hist.get("p50").unwrap().as_f64().unwrap() <= 1.0);
        assert!(hist.get("p99").unwrap().as_f64().is_some());
    }

    #[test]
    fn text_rendering_mentions_every_metric() {
        let r = Registry::new();
        r.counter_inc("obs.test.count");
        r.gauge_set("obs.test.value", 0.5);
        r.record_duration("obs.test.time", Duration::from_micros(3));
        r.histogram_record("obs.test.dist", 2.0);
        let text = r.snapshot().render_text();
        for name in [
            "obs.test.count",
            "obs.test.value",
            "obs.test.time",
            "obs.test.dist",
        ] {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
        assert!(Registry::new()
            .snapshot()
            .render_text()
            .contains("no metrics"));
    }

    #[test]
    fn global_registry_is_shared() {
        global().counter_add("obs.test.global", 2);
        assert!(global().snapshot().counter("obs.test.global").unwrap_or(0) >= 2);
    }

    #[test]
    fn clear_empties_but_keeps_enabled_state() {
        let r = Registry::new();
        r.counter_inc("obs.test.count");
        r.clear();
        assert!(r.snapshot().is_empty());
        assert!(r.is_enabled());
    }
}
