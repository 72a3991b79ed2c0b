//! Simulation configuration.

use mdrep::ServicePolicy;
use mdrep_dht::{FaultPlan, RetryPolicy};

/// Parameters of the overlay simulation.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Upload slots per peer.
    pub upload_slots: usize,
    /// Per-slot upload bandwidth in MiB per simulated second.
    pub slot_bandwidth_mib_s: f64,
    /// The service-differentiation policy.
    pub policy: ServicePolicy,
    /// Whether service differentiation is applied at all (off = FIFO and
    /// full bandwidth for everyone — the control condition).
    pub differentiate_service: bool,
    /// Weight of the contribution score in the service decision
    /// (Section 3.4's "voting … can increase a user's reputation"); 0
    /// disables the contribution bonus entirely.
    pub contribution_weight: f64,
    /// Whether downloaders consult the file score and skip likely fakes.
    pub filter_fakes: bool,
    /// The fault plan driving owner-evaluation retrieval losses (message
    /// loss, churn, partitions), seeded and fully reproducible. `None`
    /// runs fault-free.
    pub fault: Option<FaultPlan>,
    /// Retry budget applied to each owner-evaluation retrieval under the
    /// fault plan (more attempts → lower effective loss).
    pub fault_retry: RetryPolicy,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            upload_slots: 2,
            slot_bandwidth_mib_s: 0.25,
            policy: ServicePolicy::default(),
            differentiate_service: true,
            contribution_weight: 0.0,
            filter_fakes: false,
            fault: None,
            fault_retry: RetryPolicy::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = SimConfig::default();
        assert!(c.upload_slots >= 1);
        assert!(c.slot_bandwidth_mib_s > 0.0);
        assert!(c.differentiate_service);
        assert_eq!(c.contribution_weight, 0.0);
        assert!(!c.filter_fakes);
        assert!(c.fault.is_none(), "fault-free by default");
        assert!(c.fault_retry.max_attempts >= 1);
    }
}
