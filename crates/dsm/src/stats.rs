//! Per-node execution statistics.
//!
//! The paper's Fig. 10 breaks total execution time into computation,
//! communication, lock + condition variable, and barrier. Workers measure
//! the wall time spent blocked in each category; computation is the
//! remainder. The modeled network cost (latency + bandwidth charges) is
//! accumulated separately so experiments can report either real thread
//! timings or cluster-calibrated ones.

use std::time::Duration;

/// Statistics of one node over one run.
#[derive(Debug, Clone, Default)]
pub struct NodeStats {
    /// Wall time spent waiting on page fetches and diff acknowledgements.
    pub communication: Duration,
    /// Wall time spent acquiring locks and waiting on condition variables
    /// (including the release-side flushes attributed to lock/cv calls).
    pub lock_cv: Duration,
    /// Wall time spent in barriers.
    pub barrier: Duration,
    /// Total wall time of the worker closure.
    pub total: Duration,
    /// Modeled network cost accumulated against this node.
    pub modeled_network: Duration,
    /// Measured wall-clock network cost on the real socket transport:
    /// the sum of send→ack round-trip times observed by this machine's
    /// UDP transport. Zero on the in-process channel transport, where
    /// `modeled_network` plays this role.
    pub measured_network: Duration,
    /// Datagrams this machine's socket transport put on the wire
    /// (including retransmissions and chaos duplicates). Zero in-process.
    pub datagrams_sent: u64,
    /// Datagrams this machine's socket transport received and parsed.
    pub datagrams_received: u64,
    /// Malformed datagrams the socket transport rejected with a typed
    /// [`crate::DsmError`] other than a checksum mismatch (truncated,
    /// bad tag, oversize, trailing, undecodable payload). Checksum
    /// rejections count under `corrupt_dropped`.
    pub malformed_dropped: u64,
    /// Number of remote page fetches (access faults on non-resident pages).
    pub page_fetches: u64,
    /// Number of diffs sent home.
    pub diffs_sent: u64,
    /// Number of pages invalidated by received write notices.
    pub invalidations: u64,
    /// Number of pages evicted by the replacement algorithm.
    pub evictions: u64,
    /// Home migrations observed (identical on every node).
    pub migrations: u64,
    /// Messages sent (requests and releases).
    pub msgs_sent: u64,
    /// Estimated bytes sent.
    pub bytes_sent: u64,
    /// Retransmission timer fires: priced by `net::loss_price`
    /// in-process, performed by the socket transport's pump over UDP.
    pub retransmits: u64,
    /// Duplicate copies discarded (priced in-process, dropped by the
    /// socket transport's receive window over UDP), plus the unmatched
    /// messages the protocol layer's detect-only guards skipped.
    pub dups_dropped: u64,
    /// Frames rejected by a checksum (injected corruption; priced
    /// in-process, real over UDP).
    pub corrupt_dropped: u64,
    /// Virtual time this node spent down before a rejoin. Reported
    /// separately; within Fig. 10 it is part of the derived computation
    /// remainder.
    pub recovery_time: Duration,
    /// Dead-node work units this node adopted and re-executed.
    pub takeovers: u64,
    /// Times this node rejoined the run after a fail-stop (elastic
    /// membership); its virtual downtime is part of `recovery_time`.
    pub rejoins: u64,
    /// Lock leases this machine's daemon broke for dead holders.
    pub leases_broken: u64,
    /// Obituaries this machine's daemon processed.
    pub obituaries: u64,
    /// Cv waiters this machine's daemon woke with `NodeFailed`.
    pub waiters_woken: u64,
}

impl NodeStats {
    /// Computation time: everything not spent blocked on the DSM.
    pub fn computation(&self) -> Duration {
        self.total
            .saturating_sub(self.communication)
            .saturating_sub(self.lock_cv)
            .saturating_sub(self.barrier)
    }

    /// Relative breakdown of the four Fig. 10 categories (sums to ~1).
    pub fn breakdown(&self) -> StatsBreakdown {
        let total = self.total.as_secs_f64().max(f64::MIN_POSITIVE);
        StatsBreakdown {
            computation: self.computation().as_secs_f64() / total,
            communication: self.communication.as_secs_f64() / total,
            lock_cv: self.lock_cv.as_secs_f64() / total,
            barrier: self.barrier.as_secs_f64() / total,
        }
    }

    /// Merges another node's stats into an aggregate (sums everything;
    /// `total` becomes the max, matching "overall time for all nodes").
    /// Also how a machine's daemon counters join its worker's.
    pub fn merge(&mut self, other: &NodeStats) {
        self.communication += other.communication;
        self.lock_cv += other.lock_cv;
        self.barrier += other.barrier;
        self.total = self.total.max(other.total);
        self.modeled_network += other.modeled_network;
        self.measured_network += other.measured_network;
        self.datagrams_sent += other.datagrams_sent;
        self.datagrams_received += other.datagrams_received;
        self.malformed_dropped += other.malformed_dropped;
        self.page_fetches += other.page_fetches;
        self.diffs_sent += other.diffs_sent;
        self.invalidations += other.invalidations;
        self.evictions += other.evictions;
        self.migrations = self.migrations.max(other.migrations);
        self.msgs_sent += other.msgs_sent;
        self.bytes_sent += other.bytes_sent;
        self.retransmits += other.retransmits;
        self.dups_dropped += other.dups_dropped;
        self.corrupt_dropped += other.corrupt_dropped;
        self.recovery_time += other.recovery_time;
        self.takeovers += other.takeovers;
        self.rejoins += other.rejoins;
        self.leases_broken += other.leases_broken;
        self.obituaries += other.obituaries;
        self.waiters_woken += other.waiters_woken;
    }

    /// The aggregate of a run's per-node stats ([`NodeStats::merge`] over
    /// all of them: sums, with `total` the critical path).
    pub fn aggregate(per_node: &[NodeStats]) -> NodeStats {
        let mut agg = NodeStats::default();
        for stats in per_node {
            agg.merge(stats);
        }
        agg
    }
}

/// Fractional breakdown over a set of nodes: category sums divided by the
/// sum of node totals (the Fig. 10 bars for a whole run). Unlike
/// aggregating with [`NodeStats::merge`] (which keeps the critical-path
/// `total`), this never exceeds 1.
pub fn breakdown_many(stats: &[NodeStats]) -> StatsBreakdown {
    let total: f64 = stats.iter().map(|s| s.total.as_secs_f64()).sum();
    let total = total.max(f64::MIN_POSITIVE);
    let sum = |f: fn(&NodeStats) -> Duration| -> f64 {
        stats.iter().map(|s| f(s).as_secs_f64()).sum::<f64>() / total
    };
    StatsBreakdown {
        computation: stats
            .iter()
            .map(|s| s.computation().as_secs_f64())
            .sum::<f64>()
            / total,
        communication: sum(|s| s.communication),
        lock_cv: sum(|s| s.lock_cv),
        barrier: sum(|s| s.barrier),
    }
}

/// Fractional execution-time breakdown (the Fig. 10 bars).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatsBreakdown {
    /// Fraction of time computing.
    pub computation: f64,
    /// Fraction of time communicating (page fetches, diffs).
    pub communication: f64,
    /// Fraction of time in lock/cv operations.
    pub lock_cv: f64,
    /// Fraction of time in barriers.
    pub barrier: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn computation_is_remainder() {
        let s = NodeStats {
            total: Duration::from_secs(10),
            communication: Duration::from_secs(2),
            lock_cv: Duration::from_secs(1),
            barrier: Duration::from_secs(3),
            ..Default::default()
        };
        assert_eq!(s.computation(), Duration::from_secs(4));
    }

    #[test]
    fn computation_saturates() {
        let s = NodeStats {
            total: Duration::from_secs(1),
            communication: Duration::from_secs(5),
            ..Default::default()
        };
        assert_eq!(s.computation(), Duration::ZERO);
    }

    #[test]
    fn breakdown_sums_to_one() {
        let s = NodeStats {
            total: Duration::from_secs(8),
            communication: Duration::from_secs(2),
            lock_cv: Duration::from_secs(1),
            barrier: Duration::from_secs(1),
            ..Default::default()
        };
        let b = s.breakdown();
        let sum = b.computation + b.communication + b.lock_cv + b.barrier;
        assert!((sum - 1.0).abs() < 1e-9);
        assert!((b.computation - 0.5).abs() < 1e-9);
    }

    #[test]
    fn merge_takes_max_total_and_sums_counters() {
        let mut a = NodeStats {
            total: Duration::from_secs(5),
            page_fetches: 3,
            ..Default::default()
        };
        let b = NodeStats {
            total: Duration::from_secs(7),
            page_fetches: 4,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.total, Duration::from_secs(7));
        assert_eq!(a.page_fetches, 7);
    }
}
