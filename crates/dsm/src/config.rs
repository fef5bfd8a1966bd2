//! DSM system configuration.

use crate::faults::FaultPlan;
use crate::net::{NetworkModel, RetransmitPolicy};
use crate::transport::manifest::ClusterCtx;
use std::time::Duration;

/// Cluster supervision: failure detection, lock-lease recovery, and
/// waiter wake-up (ISSUE 3).
///
/// When enabled, a fail-stopped node's obituary breaks its lock leases and
/// wakes blocked cv waiters with [`crate::DsmError::NodeFailed`], a cv
/// manager answers a later wait with a death it has not reported to that
/// waiter, and barriers complete over the surviving nodes. No host-time
/// timer backs these up: the model checker's wake campaign
/// (`genomedsm-verify`) finds no schedule that strands a waiter without
/// one. When disabled (the default) none of these paths run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisionConfig {
    /// Master switch for the supervision layer.
    pub enabled: bool,
    /// Virtual-time detection latency: a fail-stopping worker's obituaries
    /// are stamped `detect_after` after its death, to model every
    /// manager's timeout detector firing.
    pub detect_after: Duration,
}

impl Default for SupervisionConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            detect_after: Duration::from_millis(100),
        }
    }
}

/// Configuration of a [`crate::DsmSystem`] run.
#[derive(Debug, Clone)]
pub struct DsmConfig {
    /// Number of cluster nodes (workers). The paper's cluster has 8.
    pub nprocs: usize,
    /// Page size in bytes (JIAJIA used the VM page size, 4096).
    pub page_size: usize,
    /// Maximum number of *remote* pages a node may cache before the
    /// replacement algorithm evicts (JIAJIA: "a fixed number of remote
    /// pages that can be placed at the memory of a remote node").
    pub cache_pages: usize,
    /// Network cost model for inter-node messages.
    pub network: NetworkModel,
    /// Relative CPU speed per node (1.0 = the calibrated reference).
    /// `None` means a homogeneous cluster. This implements the paper's §7
    /// future-work scenario — "run this modified algorithm ... in a
    /// heterogeneous cluster" — by scaling each node's virtual
    /// computation time by `1 / speed`.
    pub speed_factors: Option<Vec<f64>>,
    /// JIAJIA's optional *home migration* feature (§3.1: "JIAJIA also
    /// offers certain optional features such as home migration and load
    /// balancing ... At the beginning of the execution, all features are
    /// set to OFF"). When on, a page written in a barrier interval by
    /// exactly one node that is not its home migrates to that writer.
    pub home_migration: bool,
    /// The run's fault plan ([`FaultPlan::quiet`] = perfect links, no
    /// crash). In-process its link fates are priced into virtual time
    /// ([`crate::net::loss_price`]); over sockets the UDP transport
    /// applies them to the real datagrams. Workers read its crash/rejoin
    /// schedule either way.
    pub faults: FaultPlan,
    /// Timeout/backoff policy of that price and of the UDP transport's
    /// real timers.
    pub retransmit: RetransmitPolicy,
    /// Cluster supervision layer (failure detection + recovery). Disabled
    /// by default.
    pub supervision: SupervisionConfig,
    /// When set, [`crate::DsmSystem::run_wire`] runs this process as ONE
    /// rank of a multi-process cluster over the UDP socket transport
    /// instead of spawning all ranks as threads. `None` (the default)
    /// keeps the in-process channel transport.
    pub cluster: Option<ClusterCtx>,
}

impl DsmConfig {
    /// A configuration with sane defaults: 4 KiB pages, 4096 cached remote
    /// pages per node, and the paper's 100 Mbps switched-Ethernet model
    /// (accounted, not slept).
    pub fn new(nprocs: usize) -> Self {
        assert!(nprocs >= 1, "need at least one node");
        Self {
            nprocs,
            page_size: 4096,
            cache_pages: 4096,
            network: NetworkModel::fast_ethernet(),
            speed_factors: None,
            home_migration: false,
            faults: FaultPlan::quiet(0),
            retransmit: RetransmitPolicy::default(),
            supervision: SupervisionConfig::default(),
            cluster: None,
        }
    }

    /// Overrides the page size (must be a power of two, >= 64).
    pub fn page_size(mut self, bytes: usize) -> Self {
        assert!(bytes.is_power_of_two() && bytes >= 64, "bad page size");
        self.page_size = bytes;
        self
    }

    /// Overrides the remote-page cache capacity.
    pub fn cache_pages(mut self, pages: usize) -> Self {
        assert!(pages >= 1, "cache must hold at least one page");
        self.cache_pages = pages;
        self
    }

    /// Overrides the network model.
    pub fn network(mut self, network: NetworkModel) -> Self {
        self.network = network;
        self
    }

    /// Makes the cluster heterogeneous: `speeds[i]` is node `i`'s relative
    /// CPU speed (must be positive; length must equal `nprocs`).
    pub fn speeds(mut self, speeds: Vec<f64>) -> Self {
        assert_eq!(speeds.len(), self.nprocs, "one speed per node");
        assert!(speeds.iter().all(|&s| s > 0.0), "speeds must be positive");
        self.speed_factors = Some(speeds);
        self
    }

    /// Enables JIAJIA's home-migration feature (the `jia_config` toggle).
    pub fn home_migration(mut self, on: bool) -> Self {
        self.home_migration = on;
        self
    }

    /// Runs under a deterministic fault plan on every inter-machine link.
    /// A scheduled crash is a fail-stop the survivors take over, so a
    /// plan that crashes any rank turns supervision on — a crash cannot
    /// be installed and ignored — and one that does not fit the cluster
    /// ([`FaultPlan::check`]: a node outside it, no survivor) is refused.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        if let Err(e) = plan.check(self.nprocs) {
            panic!("{e}");
        }
        self.supervision.enabled |= !plan.crashes.is_empty();
        self.faults = plan;
        self
    }

    /// Overrides the retransmission timeout/backoff policy.
    pub fn retransmit(mut self, policy: RetransmitPolicy) -> Self {
        assert!(policy.max_attempts >= 1, "need at least one attempt");
        self.retransmit = policy;
        self
    }

    /// Enables the cluster supervision layer with default timings
    /// (failure detection, lock-lease break, waiter wake-up, surviving
    /// barriers).
    pub fn tolerate_failures(mut self) -> Self {
        self.supervision.enabled = true;
        self
    }

    /// Overrides the supervision layer configuration.
    pub fn supervise(mut self, supervision: SupervisionConfig) -> Self {
        self.supervision = supervision;
        self
    }

    /// Runs this process as one rank of a multi-process cluster over the
    /// UDP socket transport (`ctx` carries the rank, manifest, and
    /// session). The manifest's node count must match `nprocs`.
    pub fn cluster(mut self, ctx: ClusterCtx) -> Self {
        assert_eq!(
            ctx.manifest.len(),
            self.nprocs,
            "manifest rank count must equal nprocs"
        );
        self.cluster = Some(ctx);
        self
    }

    /// Node `id`'s relative speed (1.0 when homogeneous).
    pub fn speed_of(&self, id: usize) -> f64 {
        self.speed_factors.as_ref().map_or(1.0, |v| v[id])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let c = DsmConfig::new(8).page_size(1024).cache_pages(7);
        assert_eq!(c.nprocs, 8);
        assert_eq!(c.page_size, 1024);
        assert_eq!(c.cache_pages, 7);
    }

    /// A perfect network that fail-stops the ranks below `victims`.
    fn crashes(victims: usize) -> FaultPlan {
        (0..victims).fold(FaultPlan::quiet(0), |plan, n| plan.with_crash(n, 3))
    }

    #[test]
    fn a_scheduled_crash_turns_supervision_on() {
        let quiet = DsmConfig::new(3).faults(crashes(0));
        assert!(!quiet.supervision.enabled, "no crash, no supervision");
        let crashing = DsmConfig::new(3).faults(crashes(2));
        assert!(crashing.supervision.enabled);
        assert_eq!(
            crashing.supervision.detect_after,
            SupervisionConfig::default().detect_after,
            "only the switch moves"
        );
    }

    #[test]
    #[should_panic(expected = "crashes all 2 ranks")]
    fn a_plan_with_no_survivor_is_rejected() {
        let _ = DsmConfig::new(2).faults(crashes(2));
    }

    #[test]
    #[should_panic(expected = "node 9 is outside a 4-node cluster")]
    fn a_crash_outside_the_cluster_is_rejected() {
        let _ = DsmConfig::new(4).faults(FaultPlan::quiet(0).with_crash(9, 3));
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let _ = DsmConfig::new(0);
    }

    #[test]
    #[should_panic(expected = "bad page size")]
    fn non_power_of_two_page_rejected() {
        let _ = DsmConfig::new(1).page_size(1000);
    }
}
