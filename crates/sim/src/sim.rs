//! The trace-replay simulation loop.

use crate::config::SimConfig;
use crate::metrics::{CoveragePoint, FaultReport, SimReport};
use crate::queue::{Request, Served, UploaderQueue};
use mdrep::{ContributionLedger, EvaluationStore, OwnerEvaluation, Params};
use mdrep_baselines::ReputationSystem;
use mdrep_dht::FaultInjector;
use mdrep_types::{FileId, SimDuration, SimTime, UserId};
use mdrep_workload::{Behavior, EventKind, Trace};
use std::collections::HashMap;

/// Maximum owner evaluations consulted per download decision (the DHT
/// returns a bounded evaluation array in practice).
const MAX_OWNER_EVALS: usize = 16;

/// How often the reputation system recomputes (and the coverage series
/// gets a point).
const RECOMPUTE_INTERVAL: SimDuration = SimDuration::from_hours(12);

/// File-score threshold below which a filtering downloader skips the
/// download.
const FAKE_THRESHOLD: f64 = 0.5;

/// Replays a workload trace through a reputation system with
/// service-differentiated upload queues.
pub struct Simulation<S: ReputationSystem> {
    config: SimConfig,
    system: S,
    /// The overlay's published-evaluation state (independent of the
    /// reputation system under test — evaluations exist in the network
    /// regardless of how they are weighted).
    evals: EvaluationStore,
    eval_params: Params,
    ledger: ContributionLedger,
    queues: HashMap<UserId, UploaderQueue>,
    /// The seeded fault layer masking owner-evaluation retrievals
    /// (`None` = fault-free).
    injector: Option<FaultInjector>,
    fault_retrievals: u64,
    fault_lost: u64,
}

impl<S: ReputationSystem> Simulation<S> {
    /// Creates a simulation over `system`.
    #[must_use]
    pub fn new(config: SimConfig, system: S) -> Self {
        let injector = config.fault.clone().map(FaultInjector::new);
        Self {
            config,
            system,
            evals: EvaluationStore::new(),
            eval_params: Params::default(),
            ledger: ContributionLedger::new(),
            queues: HashMap::new(),
            injector,
            fault_retrievals: 0,
            fault_lost: 0,
        }
    }

    /// Replays the whole trace and returns the report. The reputation
    /// system is recomputed every 12 simulated hours, which also emits
    /// one coverage point per interval (the Figure 1 series).
    #[must_use]
    pub fn run(self, trace: &Trace) -> SimReport {
        let (report, _) = self.run_into_system(trace);
        report
    }

    /// Like [`run`](Self::run) but hands the (final-state) system back for
    /// further queries.
    #[must_use]
    pub fn run_into_system(mut self, trace: &Trace) -> (SimReport, S) {
        let obs = mdrep_obs::global();
        let _run = mdrep_obs::phase("sim.run.total");
        let wall_start = std::time::Instant::now();
        let mut report = SimReport {
            system: self.system.name(),
            ..SimReport::default()
        };
        let catalog = trace.catalog();
        let population = trace.population();
        let mut served_log: Vec<Served> = Vec::new();

        let mut next_recompute = SimTime::ZERO + RECOMPUTE_INTERVAL;
        // Coverage is measured *at request arrival* against the state of
        // the last periodic recomputation — exactly the question the paper
        // asks: when the request shows up, can the uploader place the
        // downloader in its trust relationship?
        let mut interval_requests = 0usize;
        let mut interval_covered = 0usize;

        for event in trace.events() {
            report.events_processed += 1;
            while event.time >= next_recompute {
                let coverage = if interval_requests == 0 {
                    0.0
                } else {
                    interval_covered as f64 / interval_requests as f64
                };
                report.coverage_series.push(CoveragePoint {
                    time: next_recompute,
                    requests: interval_requests,
                    coverage,
                });
                // Sample the interval's state into the sim-time series at
                // the recompute boundary (the natural sampling clock).
                let tick = next_recompute.as_ticks();
                let series = mdrep_obs::series();
                series.record("sim.coverage.interval", tick, coverage);
                series.record("sim.queue.max_depth", tick, report.max_queue_depth as f64);
                if self.injector.is_some() {
                    series.record("sim.fault.retrievals", tick, self.fault_retrievals as f64);
                    series.record("sim.fault.lost_retrievals", tick, self.fault_lost as f64);
                }
                interval_requests = 0;
                interval_covered = 0;
                {
                    let mut phase = mdrep_obs::phase("sim.tick.recompute");
                    phase.annotate("sim_time_ticks", tick);
                    phase.annotate("kind", "recompute");
                    self.system.recompute(next_recompute);
                }
                next_recompute += RECOMPUTE_INTERVAL;
            }

            match event.kind {
                EventKind::Download {
                    downloader,
                    uploader,
                    file,
                } => {
                    report.requests += 1;
                    interval_requests += 1;
                    if self.system.reputation(downloader, uploader) > 0.0 {
                        interval_covered += 1;
                    }
                    let authentic = catalog.is_authentic(file);
                    if !authentic {
                        report.fakes.fake_requests += 1;
                    }

                    // Fake filtering: consult the owners' published
                    // evaluations through the system's file score.
                    if self.config.filter_fakes {
                        let owner_evals = self.owner_evaluations(downloader, file, event.time);
                        let score =
                            self.system
                                .file_score(downloader, file, &owner_evals, event.time);
                        if let Some(score) = score {
                            if score < FAKE_THRESHOLD {
                                if authentic {
                                    report.fakes.authentic_rejected += 1;
                                } else {
                                    report.fakes.fakes_avoided += 1;
                                }
                                continue; // download skipped entirely
                            }
                        }
                    }
                    if authentic {
                        report.fakes.authentic_downloads += 1;
                    } else {
                        report.fakes.fake_downloads += 1;
                    }

                    // Service differentiation at the uploader.
                    let size_mib = catalog
                        .file_meta(file)
                        .map_or(1.0, |m| m.size.as_mib_f64().max(0.001));
                    let decision = if self.config.differentiate_service {
                        let r = self.system.relative_reputation(uploader, downloader);
                        if self.config.contribution_weight > 0.0 {
                            self.config.policy.decide_with_contribution(
                                r,
                                self.ledger.score(downloader),
                                self.config.contribution_weight,
                            )
                        } else {
                            self.config.policy.decide_scaled(r)
                        }
                    } else {
                        self.config.policy.decide_scaled(1.0)
                    };
                    let service_secs = size_mib
                        / (self.config.slot_bandwidth_mib_s
                            * decision.bandwidth_fraction.max(f64::MIN_POSITIVE));
                    let request = Request {
                        downloader,
                        arrived: event.time,
                        priority: SimTime::from_ticks(
                            event
                                .time
                                .as_ticks()
                                .saturating_sub(decision.queue_offset.as_ticks()),
                        ),
                        service_secs,
                        size_mib,
                    };
                    let slots = self.config.upload_slots;
                    let queue = self
                        .queues
                        .entry(uploader)
                        .or_insert_with(|| UploaderQueue::new(slots));
                    served_log.extend(queue.arrive(request));
                    report.max_queue_depth = report.max_queue_depth.max(queue.pending_len());

                    // Bookkeeping: the transfer happened.
                    self.evals.record_download(event.time, downloader, file);
                    self.ledger.record_upload(uploader);
                    self.system.observe(event, catalog);
                }
                EventKind::Publish { user, file } => {
                    self.evals.record_download(event.time, user, file);
                    self.system.observe(event, catalog);
                }
                EventKind::Delete { user, file } => {
                    // Quick deletion of a fake is a rewarded contribution.
                    if !catalog.is_authentic(file) {
                        let quick = self
                            .evals
                            .record(user, file)
                            .map(|r| {
                                (event.time - r.downloaded_at())
                                    <= mdrep_types::SimDuration::from_hours(24)
                            })
                            .unwrap_or(false);
                        if quick {
                            self.ledger.record_quick_delete(user);
                        }
                    }
                    self.evals.record_delete(event.time, user, file);
                    self.system.observe(event, catalog);
                }
                EventKind::Vote { user, file, value } => {
                    self.evals.record_vote(event.time, user, file, value);
                    self.ledger.record_vote(user);
                    self.system.observe(event, catalog);
                }
                EventKind::RankUser { rater, .. } => {
                    self.ledger.record_rank(rater);
                    self.system.observe(event, catalog);
                }
                EventKind::Whitewash { user } => {
                    self.evals.remove_user(user);
                    self.ledger.remove_user(user);
                    self.system.observe(event, catalog);
                }
                _ => self.system.observe(event, catalog),
            }
        }

        // Close the final interval.
        {
            let mut phase = mdrep_obs::phase("sim.tick.recompute");
            phase.annotate("sim_time_ticks", next_recompute.as_ticks());
            phase.annotate("kind", "final");
            self.system.recompute(next_recompute);
        }
        if interval_requests > 0 {
            report.coverage_series.push(CoveragePoint {
                time: next_recompute,
                requests: interval_requests,
                coverage: interval_covered as f64 / interval_requests as f64,
            });
        }

        // Drain the queues and attribute completions to behaviour classes.
        for queue in self.queues.values_mut() {
            served_log.extend(queue.drain());
        }
        let warm_boundary = mdrep_types::SimTime::from_ticks(
            mdrep_types::SimDuration::from_days(trace.config().days()).as_ticks() / 2,
        );
        for served in &served_log {
            let behavior = population
                .profile(served.request.downloader)
                .map_or(Behavior::Honest, |p| p.behavior());
            let ideal_secs = (served.request.size_mib / self.config.slot_bandwidth_mib_s).max(1.0);
            let slowdown = served.total().as_ticks() as f64 / ideal_secs;
            let add = |stats: &mut crate::metrics::ClassStats| {
                stats.served += 1;
                stats.total_wait_secs += served.wait().as_ticks() as f64;
                stats.total_completion_secs += served.total().as_ticks() as f64;
                stats.mib_received += served.request.size_mib;
                stats.total_slowdown += slowdown;
            };
            add(report.class_mut(behavior));
            add(report.user_mut(served.request.downloader));
            if served.request.arrived >= warm_boundary {
                add(report.warm_class_mut(behavior));
            }
        }

        // Event-loop throughput: wall-clock rate of the replay itself.
        let wall_secs = wall_start.elapsed().as_secs_f64();
        report.events_per_sec = if wall_secs > 0.0 {
            report.events_processed as f64 / wall_secs
        } else {
            0.0
        };
        obs.counter_add("sim.events.count", report.events_processed);
        obs.gauge_set("sim.run.events_per_sec", report.events_per_sec);
        obs.gauge_set("sim.run.max_queue_depth", report.max_queue_depth as f64);
        if let Some(injector) = &self.injector {
            report.faults = FaultReport {
                retrievals: self.fault_retrievals,
                lost_retrievals: self.fault_lost,
                trace_digest: injector.trace().digest(),
            };
            obs.gauge_set("sim.fault.retrievals", self.fault_retrievals as f64);
            obs.gauge_set("sim.fault.lost_retrievals", self.fault_lost as f64);
            let success = if self.fault_retrievals > 0 {
                1.0 - self.fault_lost as f64 / self.fault_retrievals as f64
            } else {
                1.0
            };
            obs.gauge_set("sim.fault.success_rate", success);
        }

        (report, self.system)
    }

    /// The published evaluations of `file` (bounded, as a DHT reply would
    /// be). Everyone who ever held the file contributes — a user who
    /// deleted a fake keeps publishing the resulting low retention-time
    /// evaluation within the retention interval, which is precisely the
    /// signal that identifies the fake.
    ///
    /// Under a fault plan, each owner's record is independently lost when
    /// the owner is churned down, partitioned away from `viewer`, or every
    /// retry is dropped — the remaining *partial* owner list still feeds
    /// Eq. 9 (graceful degradation, never an error).
    fn owner_evaluations(
        &mut self,
        viewer: UserId,
        file: FileId,
        now: SimTime,
    ) -> Vec<OwnerEvaluation> {
        let mut query = mdrep_obs::phase("sim.eq9.query");
        query.annotate("file", file);
        let mut attempted = 0u64;
        let mut lost = 0u64;
        let result: Vec<OwnerEvaluation> = {
            let evals = &self.evals;
            let eval_params = &self.eval_params;
            let injector = &mut self.injector;
            let retry = &self.config.fault_retry;
            evals
                .evaluators_of(file)
                .filter(|owner| match injector.as_mut() {
                    None => true,
                    Some(inj) => {
                        attempted += 1;
                        let dropped = inj.retrieval_lost(viewer, *owner, now, retry);
                        lost += u64::from(dropped);
                        !dropped
                    }
                })
                .filter_map(|owner| {
                    evals
                        .evaluation(owner, file, now, eval_params)
                        .map(|e| OwnerEvaluation::new(owner, e))
                })
                .take(MAX_OWNER_EVALS)
                .collect()
        };
        self.fault_retrievals += attempted;
        self.fault_lost += lost;
        query.annotate("owners", result.len());
        query.annotate("attempted", attempted);
        query.annotate("lost", lost);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdrep_baselines::{MultiDimensional, NoReputation, TitForTat};
    use mdrep_workload::{BehaviorMix, TraceBuilder, WorkloadConfig};

    fn trace(pollution: f64, seed: u64) -> Trace {
        TraceBuilder::new(
            WorkloadConfig::builder()
                .users(60)
                .titles(60)
                .days(2)
                .downloads_per_user_day(5.0)
                .behavior_mix(BehaviorMix::realistic())
                .pollution_rate(pollution)
                .seed(seed)
                .build()
                .unwrap(),
        )
        .generate()
    }

    #[test]
    fn replay_produces_coverage_series() {
        let t = trace(0.2, 1);
        let report = Simulation::new(
            SimConfig::default(),
            MultiDimensional::new(Params::default()),
        )
        .run(&t);
        assert!(report.requests > 0);
        assert!(!report.coverage_series.is_empty());
        assert!(
            report.mean_coverage() > 0.0,
            "multi-dimensional trust covers something"
        );
        assert_eq!(report.system, "multi-dimensional");
    }

    #[test]
    fn all_requests_get_served_without_filtering() {
        let t = trace(0.2, 2);
        let report = Simulation::new(SimConfig::default(), NoReputation::new()).run(&t);
        let served: usize = report.class_stats.values().map(|s| s.served).sum();
        assert_eq!(served, report.requests, "no filtering → everything served");
        assert_eq!(report.fakes.fakes_avoided, 0);
    }

    #[test]
    fn filtering_avoids_some_fakes() {
        let t = trace(0.5, 3);
        let config = SimConfig {
            filter_fakes: true,
            ..SimConfig::default()
        };
        let with_filter = Simulation::new(config, MultiDimensional::new(Params::default())).run(&t);
        let without = Simulation::new(
            SimConfig::default(),
            MultiDimensional::new(Params::default()),
        )
        .run(&t);
        assert!(
            with_filter.fakes.fake_downloads <= without.fakes.fake_downloads,
            "filtering cannot increase fake downloads: {} vs {}",
            with_filter.fakes.fake_downloads,
            without.fakes.fake_downloads,
        );
    }

    #[test]
    fn coverage_higher_for_multidimensional_than_tft() {
        let t = trace(0.2, 4);
        let md = Simulation::new(
            SimConfig::default(),
            MultiDimensional::new(Params::default()),
        )
        .run(&t);
        let tft = Simulation::new(SimConfig::default(), TitForTat::new()).run(&t);
        assert!(
            md.mean_coverage() > tft.mean_coverage(),
            "multi-dimensional {} vs tit-for-tat {}",
            md.mean_coverage(),
            tft.mean_coverage(),
        );
    }

    #[test]
    fn run_into_system_returns_final_state() {
        let t = trace(0.2, 5);
        let (report, system) = Simulation::new(
            SimConfig::default(),
            MultiDimensional::new(Params::default()),
        )
        .run_into_system(&t);
        assert!(report.requests > 0);
        // The returned system holds the final reputation state.
        assert!(system.engine().reputation_matrix().is_some());
    }

    #[test]
    fn same_fault_seed_yields_bit_identical_reports() {
        use mdrep_dht::{ChurnSchedule, FaultPlan};
        let t = trace(0.4, 11);
        let run = |seed: u64| {
            let config = SimConfig {
                filter_fakes: true,
                fault: Some(
                    FaultPlan::message_loss(0.3, seed)
                        .with_churn(ChurnSchedule::new(SimDuration::from_hours(2), 0.2)),
                ),
                ..SimConfig::default()
            };
            Simulation::new(config, MultiDimensional::new(Params::default())).run(&t)
        };
        let a = run(99);
        let b = run(99);
        assert_eq!(
            a.digest(),
            b.digest(),
            "same fault seed replays bit-identically"
        );
        assert_eq!(a.faults, b.faults);
        assert!(a.faults.retrievals > 0, "the fault layer was exercised");
        assert!(a.faults.lost_retrievals > 0, "faults actually bit");
        let c = run(100);
        assert_ne!(
            a.faults.trace_digest, c.faults.trace_digest,
            "a different seed produces a different fault trace"
        );
    }

    #[test]
    fn fault_plan_degrades_retrievals_but_not_correctness() {
        use mdrep_dht::{FaultPlan, RetryPolicy};
        let t = trace(0.5, 12);
        let clean = Simulation::new(
            SimConfig {
                filter_fakes: true,
                ..SimConfig::default()
            },
            MultiDimensional::new(Params::default()),
        )
        .run(&t);
        let faulty = Simulation::new(
            SimConfig {
                filter_fakes: true,
                fault: Some(FaultPlan::message_loss(0.9, 5)),
                fault_retry: RetryPolicy::no_retry(),
                ..SimConfig::default()
            },
            MultiDimensional::new(Params::default()),
        )
        .run(&t);
        assert!(faulty.faults.loss_rate() > 0.5, "90% loss, no retry");
        // Partial owner lists still produce a full report: every request is
        // accounted for, nothing crashes, rates stay finite.
        assert_eq!(faulty.requests, clean.requests);
        assert!(faulty.fakes.avoidance_rate().is_finite());
        // More retries shrink the effective loss on the same plan.
        let retried = Simulation::new(
            SimConfig {
                filter_fakes: true,
                fault: Some(FaultPlan::message_loss(0.9, 5)),
                fault_retry: RetryPolicy {
                    max_attempts: 4,
                    ..RetryPolicy::default()
                },
                ..SimConfig::default()
            },
            MultiDimensional::new(Params::default()),
        )
        .run(&t);
        assert!(
            retried.faults.loss_rate() < faulty.faults.loss_rate(),
            "retries recover retrievals: {} vs {}",
            retried.faults.loss_rate(),
            faulty.faults.loss_rate()
        );
    }

    #[test]
    fn service_differentiation_off_means_uniform_service() {
        let t = trace(0.0, 6);
        let config = SimConfig {
            differentiate_service: false,
            ..SimConfig::default()
        };
        let report = Simulation::new(config, MultiDimensional::new(Params::default())).run(&t);
        // Everything runs at full bandwidth; served counts still add up.
        let served: usize = report.class_stats.values().map(|s| s.served).sum();
        assert_eq!(served, report.requests);
    }
}
