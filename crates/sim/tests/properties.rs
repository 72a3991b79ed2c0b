//! Property-based tests of the overlay simulator's accounting invariants.

use mdrep::Params;
use mdrep_baselines::{MultiDimensional, NoReputation};
use mdrep_sim::{SimConfig, Simulation};
use mdrep_workload::{BehaviorMix, Trace, TraceBuilder, WorkloadConfig};
use proptest::prelude::*;

fn trace_strategy() -> impl Strategy<Value = Trace> {
    (15usize..50, 15usize..50, 1u64..3, 0u64..300, 0.0f64..0.5).prop_map(
        |(users, titles, days, seed, pollution)| {
            TraceBuilder::new(
                WorkloadConfig::builder()
                    .users(users)
                    .titles(titles)
                    .days(days)
                    .behavior_mix(BehaviorMix::realistic())
                    .pollution_rate(pollution)
                    .seed(seed)
                    .build()
                    .expect("valid config"),
            )
            .generate()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn request_accounting_balances(trace in trace_strategy(), filter in any::<bool>()) {
        let config = SimConfig { filter_fakes: filter, ..SimConfig::default() };
        let report = Simulation::new(config, MultiDimensional::new(Params::default()))
            .run(&trace);
        prop_assert_eq!(report.requests, trace.stats().downloads);
        // Every request either completed or was skipped by the filter.
        let served: usize = report.class_stats.values().map(|s| s.served).sum();
        let skipped = report.fakes.fakes_avoided + report.fakes.authentic_rejected;
        prop_assert_eq!(served + skipped, report.requests);
        // Fake bookkeeping is exact.
        prop_assert_eq!(
            report.fakes.fake_downloads + report.fakes.fakes_avoided,
            report.fakes.fake_requests
        );
    }

    #[test]
    fn waits_and_slowdowns_are_sane(trace in trace_strategy()) {
        let report = Simulation::new(SimConfig::default(), NoReputation::new()).run(&trace);
        for (class, stats) in &report.class_stats {
            prop_assert!(stats.mean_wait_secs() >= 0.0, "{class}");
            prop_assert!(
                stats.mean_completion_secs() >= stats.mean_wait_secs(),
                "{class}: completion includes wait"
            );
            if stats.served > 0 {
                prop_assert!(stats.mean_slowdown() > 0.0, "{class}");
            }
        }
    }

    #[test]
    fn coverage_points_partition_requests(trace in trace_strategy()) {
        let report = Simulation::new(SimConfig::default(), NoReputation::new()).run(&trace);
        let total: usize = report.coverage_series.iter().map(|p| p.requests).sum();
        prop_assert_eq!(total, report.requests);
        for point in &report.coverage_series {
            prop_assert!((0.0..=1.0).contains(&point.coverage));
        }
    }

    #[test]
    fn filtering_never_increases_fake_downloads(trace in trace_strategy()) {
        let base = Simulation::new(SimConfig::default(), MultiDimensional::new(Params::default()))
            .run(&trace);
        let filtered = Simulation::new(
            SimConfig { filter_fakes: true, ..SimConfig::default() },
            MultiDimensional::new(Params::default()),
        )
        .run(&trace);
        prop_assert!(filtered.fakes.fake_downloads <= base.fakes.fake_downloads);
    }

    #[test]
    fn disabling_differentiation_gives_full_bandwidth(trace in trace_strategy()) {
        let fifo = SimConfig { differentiate_service: false, ..SimConfig::default() };
        let report = Simulation::new(fifo, MultiDimensional::new(Params::default())).run(&trace);
        // With full bandwidth and generous slots, the slowdown stays modest
        // (pure queueing only). This bounds regression of the quota path.
        for (class, stats) in &report.class_stats {
            if stats.served > 10 {
                prop_assert!(
                    stats.mean_slowdown() < 50.0,
                    "{class}: slowdown {} suggests an accidental quota",
                    stats.mean_slowdown()
                );
            }
        }
    }
}
