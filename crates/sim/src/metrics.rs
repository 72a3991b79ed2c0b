//! Simulation metrics and the final report.

use mdrep_types::{SimTime, UserId};
use mdrep_workload::Behavior;
use std::collections::BTreeMap;
use std::fmt;

/// Aggregated queueing statistics for one behaviour class.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClassStats {
    /// Requests served.
    pub served: usize,
    /// Total wait seconds across requests.
    pub total_wait_secs: f64,
    /// Total arrival-to-completion seconds.
    pub total_completion_secs: f64,
    /// Total MiB received.
    pub mib_received: f64,
    /// Total slowdown (arrival-to-completion over the ideal unthrottled,
    /// uncontended transfer time) across requests.
    pub total_slowdown: f64,
}

impl ClassStats {
    /// Mean queue wait in seconds.
    ///
    /// Contract: with no served requests the mean is defined as `0.0`, not
    /// `NaN`, so downstream aggregation (CSV columns, plots, comparisons)
    /// never has to special-case an empty class.
    #[must_use]
    pub fn mean_wait_secs(&self) -> f64 {
        if self.served == 0 {
            0.0
        } else {
            self.total_wait_secs / self.served as f64
        }
    }

    /// Mean completion time in seconds (`0.0` for no requests — see
    /// [`mean_wait_secs`](Self::mean_wait_secs) for the contract).
    #[must_use]
    pub fn mean_completion_secs(&self) -> f64 {
        if self.served == 0 {
            0.0
        } else {
            self.total_completion_secs / self.served as f64
        }
    }

    /// Mean slowdown: 1.0 means ideal service, larger means queueing
    /// and/or bandwidth quota (`0.0` for no requests — see
    /// [`mean_wait_secs`](Self::mean_wait_secs) for the contract).
    #[must_use]
    pub fn mean_slowdown(&self) -> f64 {
        if self.served == 0 {
            0.0
        } else {
            self.total_slowdown / self.served as f64
        }
    }
}

/// Fake-file outcome counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FakeStats {
    /// Requests whose target file was fake.
    pub fake_requests: usize,
    /// Fake downloads that actually went through.
    pub fake_downloads: usize,
    /// Fake downloads skipped thanks to the file score.
    pub fakes_avoided: usize,
    /// Authentic downloads wrongly skipped (false positives).
    pub authentic_rejected: usize,
    /// Authentic downloads that went through.
    pub authentic_downloads: usize,
}

impl FakeStats {
    /// Fraction of fake requests that were avoided.
    ///
    /// Contract: with no fake requests at all the rate is defined as
    /// `0.0`, not `NaN` — "nothing to avoid" reads as zero avoidance so
    /// the value stays plottable and comparable.
    #[must_use]
    pub fn avoidance_rate(&self) -> f64 {
        if self.fake_requests == 0 {
            0.0
        } else {
            self.fakes_avoided as f64 / self.fake_requests as f64
        }
    }

    /// Fraction of authentic requests wrongly rejected (`0.0` when no
    /// authentic requests were seen — see
    /// [`avoidance_rate`](Self::avoidance_rate) for the contract).
    #[must_use]
    pub fn false_positive_rate(&self) -> f64 {
        let authentic = self.authentic_rejected + self.authentic_downloads;
        if authentic == 0 {
            0.0
        } else {
            self.authentic_rejected as f64 / authentic as f64
        }
    }
}

/// Fault-layer outcomes of a simulation run under a
/// [`FaultPlan`](mdrep_dht::FaultPlan).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultReport {
    /// Owner-evaluation retrievals attempted through the fault layer.
    pub retrievals: u64,
    /// Retrievals lost end to end (owner churned down, partitioned away,
    /// or every retry dropped).
    pub lost_retrievals: u64,
    /// The injector's [`FaultTrace`](mdrep_dht::FaultTrace) digest — equal
    /// plans on equal traces produce equal digests, bit for bit.
    pub trace_digest: u64,
}

impl FaultReport {
    /// Fraction of retrievals lost (`0.0` when none were attempted — the
    /// same zero-not-NaN contract as the other rate helpers).
    #[must_use]
    pub fn loss_rate(&self) -> f64 {
        if self.retrievals == 0 {
            0.0
        } else {
            self.lost_retrievals as f64 / self.retrievals as f64
        }
    }

    /// Fraction of retrievals that survived the fault plan.
    #[must_use]
    pub fn success_rate(&self) -> f64 {
        1.0 - self.loss_rate()
    }
}

/// One point of the coverage-over-time series (the Figure 1 y-axis).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoveragePoint {
    /// When the reputation state was recomputed.
    pub time: SimTime,
    /// Requests during the following interval.
    pub requests: usize,
    /// Fraction of them covered by the trust state at `time`.
    pub coverage: f64,
}

/// The simulator's full output.
#[derive(Debug, Clone, Default)]
pub struct SimReport {
    /// The reputation system that produced the report.
    pub system: &'static str,
    /// Total download requests replayed.
    pub requests: usize,
    /// Per-behaviour-class queueing statistics (whole run).
    pub class_stats: BTreeMap<String, ClassStats>,
    /// Per-class statistics restricted to requests arriving in the second
    /// half of the run, after reputations have warmed up.
    pub warm_class_stats: BTreeMap<String, ClassStats>,
    /// Per-downloader statistics (whole run) — used by incentive-feedback
    /// experiments that correlate individual contribution with service.
    pub user_stats: BTreeMap<UserId, ClassStats>,
    /// Fake-file outcomes.
    pub fakes: FakeStats,
    /// Coverage series over time.
    pub coverage_series: Vec<CoveragePoint>,
    /// Trace events replayed through the event loop.
    pub events_processed: u64,
    /// Event-loop throughput: events replayed per wall-clock second.
    pub events_per_sec: f64,
    /// Largest pending-queue depth observed at any uploader.
    pub max_queue_depth: usize,
    /// Fault-layer outcomes (all-zero on fault-free runs).
    pub faults: FaultReport,
}

impl SimReport {
    /// The stats bucket for a behaviour (creating it on first use).
    pub(crate) fn class_mut(&mut self, behavior: Behavior) -> &mut ClassStats {
        self.class_stats.entry(behavior.to_string()).or_default()
    }

    /// The warmed-up stats bucket for a behaviour.
    pub(crate) fn warm_class_mut(&mut self, behavior: Behavior) -> &mut ClassStats {
        self.warm_class_stats
            .entry(behavior.to_string())
            .or_default()
    }

    /// The stats bucket for one downloader.
    pub(crate) fn user_mut(&mut self, user: UserId) -> &mut ClassStats {
        self.user_stats.entry(user).or_default()
    }

    /// Overall coverage: request-weighted mean of the series.
    #[must_use]
    pub fn mean_coverage(&self) -> f64 {
        let total: usize = self.coverage_series.iter().map(|p| p.requests).sum();
        if total == 0 {
            return 0.0;
        }
        self.coverage_series
            .iter()
            .map(|p| p.coverage * p.requests as f64)
            .sum::<f64>()
            / total as f64
    }

    /// The final coverage point, if any.
    #[must_use]
    pub fn final_coverage(&self) -> Option<f64> {
        self.coverage_series
            .iter()
            .rev()
            .find(|p| p.requests > 0)
            .map(|p| p.coverage)
    }

    /// An FNV-1a digest over every *deterministic* field of the report —
    /// everything except `events_per_sec`, which measures wall-clock
    /// throughput. Two runs of the same trace, config, and fault-plan seed
    /// produce bit-identical digests; that equality is what the
    /// determinism tests and the CI fault matrix assert.
    #[must_use]
    pub fn digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut fold = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
        };
        fold(self.system.as_bytes());
        fold(&(self.requests as u64).to_le_bytes());
        fold(&self.events_processed.to_le_bytes());
        fold(&(self.max_queue_depth as u64).to_le_bytes());
        for v in [
            self.fakes.fake_requests,
            self.fakes.fake_downloads,
            self.fakes.fakes_avoided,
            self.fakes.authentic_rejected,
            self.fakes.authentic_downloads,
        ] {
            fold(&(v as u64).to_le_bytes());
        }
        let mut fold_class = |name: &[u8], s: &ClassStats| {
            fold(name);
            fold(&(s.served as u64).to_le_bytes());
            for v in [
                s.total_wait_secs,
                s.total_completion_secs,
                s.mib_received,
                s.total_slowdown,
            ] {
                fold(&v.to_bits().to_le_bytes());
            }
        };
        for (class, stats) in &self.class_stats {
            fold_class(class.as_bytes(), stats);
        }
        for (class, stats) in &self.warm_class_stats {
            fold_class(class.as_bytes(), stats);
        }
        for (user, stats) in &self.user_stats {
            fold_class(&user.as_u64().to_le_bytes(), stats);
        }
        for p in &self.coverage_series {
            fold(&p.time.as_ticks().to_le_bytes());
            fold(&(p.requests as u64).to_le_bytes());
            fold(&p.coverage.to_bits().to_le_bytes());
        }
        fold(&self.faults.retrievals.to_le_bytes());
        fold(&self.faults.lost_retrievals.to_le_bytes());
        fold(&self.faults.trace_digest.to_le_bytes());
        h
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "SimReport[{}]: {} requests", self.system, self.requests)?;
        writeln!(
            f,
            "  throughput: {} events at {:.0} events/s, max queue depth {}",
            self.events_processed, self.events_per_sec, self.max_queue_depth
        )?;
        writeln!(
            f,
            "  coverage: mean {:.3}, final {:.3}",
            self.mean_coverage(),
            self.final_coverage().unwrap_or(0.0)
        )?;
        writeln!(
            f,
            "  fakes: {}/{} downloaded, {} avoided ({:.1}% avoidance), {:.1}% false positives",
            self.fakes.fake_downloads,
            self.fakes.fake_requests,
            self.fakes.fakes_avoided,
            self.fakes.avoidance_rate() * 100.0,
            self.fakes.false_positive_rate() * 100.0,
        )?;
        if self.faults.retrievals > 0 {
            writeln!(
                f,
                "  faults: {}/{} retrievals lost ({:.2}% success), trace digest {:016x}",
                self.faults.lost_retrievals,
                self.faults.retrievals,
                self.faults.success_rate() * 100.0,
                self.faults.trace_digest,
            )?;
        }
        if !self.class_stats.is_empty() {
            let width = self
                .class_stats
                .keys()
                .map(String::len)
                .max()
                .unwrap_or(0)
                .max(5);
            writeln!(
                f,
                "  {:<width$}  {:>7}  {:>10}  {:>12}  {:>9}  {:>10}",
                "class", "served", "wait (s)", "compl (s)", "slowdown", "MiB"
            )?;
            for (class, stats) in &self.class_stats {
                writeln!(
                    f,
                    "  {class:<width$}  {:>7}  {:>10.0}  {:>12.0}  {:>9.2}  {:>10.0}",
                    stats.served,
                    stats.mean_wait_secs(),
                    stats.mean_completion_secs(),
                    stats.mean_slowdown(),
                    stats.mib_received,
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_stats_means() {
        let s = ClassStats {
            served: 4,
            total_wait_secs: 40.0,
            total_completion_secs: 100.0,
            mib_received: 8.0,
            total_slowdown: 12.0,
        };
        assert_eq!(s.mean_slowdown(), 3.0);
        assert_eq!(s.mean_wait_secs(), 10.0);
        assert_eq!(s.mean_completion_secs(), 25.0);
        assert_eq!(ClassStats::default().mean_wait_secs(), 0.0);
    }

    #[test]
    fn fake_stats_rates() {
        let f = FakeStats {
            fake_requests: 10,
            fake_downloads: 4,
            fakes_avoided: 6,
            authentic_rejected: 5,
            authentic_downloads: 95,
        };
        assert!((f.avoidance_rate() - 0.6).abs() < 1e-12);
        assert!((f.false_positive_rate() - 0.05).abs() < 1e-12);
        assert_eq!(FakeStats::default().avoidance_rate(), 0.0);
        assert_eq!(FakeStats::default().false_positive_rate(), 0.0);
    }

    #[test]
    fn coverage_aggregation() {
        let report = SimReport {
            system: "test",
            requests: 30,
            coverage_series: vec![
                CoveragePoint {
                    time: SimTime::ZERO,
                    requests: 10,
                    coverage: 0.2,
                },
                CoveragePoint {
                    time: SimTime::from_ticks(100),
                    requests: 20,
                    coverage: 0.8,
                },
                CoveragePoint {
                    time: SimTime::from_ticks(200),
                    requests: 0,
                    coverage: 0.0,
                },
            ],
            ..SimReport::default()
        };
        assert!((report.mean_coverage() - 0.6).abs() < 1e-12);
        assert_eq!(
            report.final_coverage(),
            Some(0.8),
            "empty tail point skipped"
        );
    }

    #[test]
    fn empty_report() {
        let report = SimReport::default();
        assert_eq!(report.mean_coverage(), 0.0);
        assert_eq!(report.final_coverage(), None);
    }

    #[test]
    fn empty_inputs_yield_zero_not_nan() {
        // Pin the documented contract: every mean/rate helper returns a
        // finite 0.0 on empty input so reports stay aggregatable.
        let empty_class = ClassStats::default();
        assert_eq!(empty_class.mean_wait_secs(), 0.0);
        assert_eq!(empty_class.mean_completion_secs(), 0.0);
        assert_eq!(empty_class.mean_slowdown(), 0.0);
        let empty_fakes = FakeStats::default();
        assert_eq!(empty_fakes.avoidance_rate(), 0.0);
        assert_eq!(empty_fakes.false_positive_rate(), 0.0);
        assert_eq!(SimReport::default().mean_coverage(), 0.0);
        for v in [
            empty_class.mean_wait_secs(),
            empty_class.mean_slowdown(),
            empty_fakes.avoidance_rate(),
        ] {
            assert!(v.is_finite());
        }
    }

    #[test]
    fn display_renders_throughput_and_class_table() {
        let mut report = SimReport {
            system: "x",
            requests: 3,
            events_processed: 120,
            events_per_sec: 4000.0,
            max_queue_depth: 7,
            ..SimReport::default()
        };
        *report.class_mut(Behavior::Honest) = ClassStats {
            served: 2,
            total_wait_secs: 10.0,
            total_completion_secs: 20.0,
            mib_received: 5.0,
            total_slowdown: 4.0,
        };
        *report.class_mut(Behavior::FreeRider) = ClassStats::default();
        let shown = report.to_string();
        assert!(shown.contains("120 events"), "{shown}");
        assert!(shown.contains("4000 events/s"), "{shown}");
        assert!(shown.contains("max queue depth 7"), "{shown}");
        // Table header plus one aligned row per class.
        assert!(shown.contains("class"), "{shown}");
        assert!(shown.contains("slowdown"), "{shown}");
        assert!(shown.contains("honest"), "{shown}");
        assert!(shown.contains("free-rider"), "{shown}");
    }

    #[test]
    fn fault_report_rates_and_display() {
        let faults = FaultReport {
            retrievals: 200,
            lost_retrievals: 4,
            trace_digest: 0xdead_beef,
        };
        assert!((faults.loss_rate() - 0.02).abs() < 1e-12);
        assert!((faults.success_rate() - 0.98).abs() < 1e-12);
        assert_eq!(FaultReport::default().loss_rate(), 0.0);
        let report = SimReport {
            system: "x",
            faults,
            ..SimReport::default()
        };
        let shown = report.to_string();
        assert!(shown.contains("4/200 retrievals lost"), "{shown}");
        assert!(shown.contains("deadbeef"), "{shown}");
        // Fault-free reports omit the fault line entirely.
        assert!(!SimReport::default().to_string().contains("retrievals lost"));
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let mut report = SimReport {
            system: "x",
            requests: 5,
            events_processed: 50,
            events_per_sec: 1234.0,
            ..SimReport::default()
        };
        *report.class_mut(Behavior::Honest) = ClassStats {
            served: 2,
            total_wait_secs: 10.0,
            total_completion_secs: 20.0,
            mib_received: 5.0,
            total_slowdown: 4.0,
        };
        let d = report.digest();
        assert_eq!(d, report.digest(), "digest is a pure function");
        // Wall-clock throughput must not affect the digest.
        let mut other = report.clone();
        other.events_per_sec = 9999.0;
        assert_eq!(d, other.digest());
        // Any deterministic field does.
        let mut changed = report.clone();
        changed.requests += 1;
        assert_ne!(d, changed.digest());
        let mut fault_changed = report.clone();
        fault_changed.faults.trace_digest = 1;
        assert_ne!(d, fault_changed.digest());
    }

    #[test]
    fn display_contains_key_numbers() {
        let mut report = SimReport {
            system: "x",
            requests: 2,
            ..SimReport::default()
        };
        *report.class_mut(Behavior::Honest) = ClassStats {
            served: 2,
            total_wait_secs: 10.0,
            total_completion_secs: 20.0,
            mib_received: 5.0,
            total_slowdown: 4.0,
        };
        let shown = report.to_string();
        assert!(shown.contains("2 requests"));
        assert!(shown.contains("honest"));
    }
}
