//! Spawning and tearing down a DSM "cluster" run.
//!
//! [`DsmSystem::run`] plays the role of JIAJIA's launcher: it starts one
//! daemon thread and one worker thread per node, runs the SPMD closure on
//! every worker, joins everything, and returns each node's result plus its
//! statistics. Each node's [`Daemon`] is built once and shared, behind a
//! mutex, by its thread (which serves the peers) and its own worker (which
//! steps it inline for every message addressed to itself, so a home-local
//! request costs no thread hop). [`DsmSystem::run_wire`] is the
//! transport-generic variant: with [`DsmConfig::cluster`] set it runs this
//! process as ONE rank of a multi-process cluster over the UDP socket
//! transport and all-gathers every rank's result through the DSM itself,
//! so callers get the same full [`DsmRun`] either way.

use crate::codec::{from_frame, to_frame, Wire};
use crate::config::DsmConfig;
use crate::daemon::Daemon;
use crate::error::DsmError;
use crate::msg::{Envelope, Msg, SYSTEM_SRC};
use crate::node::{Node, NodeWiring, OwnDaemon};
use crate::stats::NodeStats;
use crate::transport::clock::Clock;
use crate::transport::manifest::ClusterCtx;
use crate::transport::udp::UdpTransport;
use crate::transport::{ChannelTransport, RankWiring, Transport};
use std::sync::{Arc, Mutex};

/// First field of a rank's result-gather frame, `(GATHER_TAG, R, NodeStats)`.
const GATHER_TAG: u8 = 0x47;

/// Outcome of a DSM run: per-node results and statistics, plus the total
/// wall time of the parallel section.
#[derive(Debug)]
pub struct DsmRun<R> {
    /// The closure's return value on each node, indexed by node id.
    pub results: Vec<R>,
    /// Per-node statistics.
    pub stats: Vec<NodeStats>,
    /// Wall time from spawn to last join.
    pub wall: std::time::Duration,
}

/// The DSM system entry point.
pub struct DsmSystem;

impl DsmSystem {
    /// Runs `f` SPMD-style on `config.nprocs` simulated cluster nodes and
    /// returns every node's result.
    ///
    /// The closure receives the node handle (its `id()` plays JIAJIA's
    /// `jiapid`). All nodes must perform identical `alloc_*` sequences;
    /// synchronization uses `lock`/`unlock`, `setcv`/`waitcv`, and
    /// `barrier`.
    ///
    /// # Panics
    /// Propagates the first worker panic after tearing down the cluster.
    pub fn run<R, F>(config: DsmConfig, f: F) -> DsmRun<R>
    where
        R: Send,
        F: Fn(&mut Node) -> R + Send + Sync,
    {
        let mut transport = ChannelTransport::new(config.nprocs);
        let mut run = launch(&config, &mut transport, 0..config.nprocs, false, |node| {
            let result = f(node);
            (result, node.finish_stats())
        });
        let (results, mut stats): (Vec<R>, Vec<NodeStats>) = run.results.drain(..).unzip();
        for (s, daemon) in stats.iter_mut().zip(&run.stats) {
            s.merge(daemon);
        }
        DsmRun {
            results,
            stats,
            wall: run.wall,
        }
    }

    /// Transport-generic run: like [`DsmSystem::run`] when
    /// [`DsmConfig::cluster`] is `None`; with a cluster context set, runs
    /// this process as ONE rank over the UDP socket transport and
    /// all-gathers `(result, stats)` from every rank through the DSM
    /// itself, so the returned [`DsmRun`] is complete — and bit-identical
    /// across ranks — on every process of the cluster.
    ///
    /// # Panics
    /// Propagates worker panics; also panics if the socket cannot be
    /// bound or a gather blob fails to decode.
    pub fn run_wire<R, F>(config: DsmConfig, f: F) -> DsmRun<R>
    where
        R: Wire + Send,
        F: Fn(&mut Node) -> R + Send + Sync,
    {
        match config.cluster.clone() {
            None => Self::run(config, f),
            Some(ctx) => Self::run_rank(config, &ctx, f),
        }
    }

    /// One rank of a multi-process cluster: local daemon + local worker
    /// over a [`UdpTransport`], with the result gather of
    /// [`DsmSystem::run_wire`]. The fault plan's link fates go to the
    /// transport, which applies them to the real datagrams; the protocol
    /// layer above it prices nothing.
    fn run_rank<R, F>(config: DsmConfig, ctx: &ClusterCtx, f: F) -> DsmRun<R>
    where
        R: Wire + Send,
        F: Fn(&mut Node) -> R + Send + Sync,
    {
        let nprocs = config.nprocs;
        assert_eq!(
            ctx.manifest.len(),
            nprocs,
            "manifest rank count must equal nprocs"
        );
        let rank = ctx.rank;
        let mut transport = match UdpTransport::bind(ctx, config.retransmit, &config.faults) {
            Ok(t) => t,
            Err(e) => panic!("cannot start UDP transport: {e}"),
        };
        let mut run = launch(&config, &mut transport, rank..rank + 1, true, |node| {
            let result = f(node);
            // Snapshot this rank's app-phase stats before the gather
            // adds its own traffic, so every rank publishes the same
            // cut of the run.
            let snapshot = node.finish_stats();
            gather_results(node, rank, nprocs, result, snapshot)
        });
        let (results, mut stats): (Vec<R>, Vec<NodeStats>) =
            run.results.drain(..).flatten().unzip();
        // Daemon and transport counters are local knowledge: they land
        // in this rank's slot only (each process owns one line of the
        // final table).
        stats[rank].merge(&run.stats[0]);
        transport.stats().fold_into(&mut stats[rank]);
        DsmRun {
            results,
            stats,
            wall: run.wall,
        }
    }
}

/// The one per-rank body of every launch: for each rank in `ranks`, takes
/// its wiring from `transport` and runs a daemon thread plus a worker
/// thread executing `work`; joins the workers, ends the daemons with the
/// launcher's `Shutdown`, and shuts the transport down. `measured` says
/// what the launcher built: a real network (waits are charged as measured
/// wall time, sends are not priced, and the worker reaches its own daemon
/// through the inbox like any other) or the in-process fabric (virtual
/// time, and the worker steps its own daemon inline). In the returned run
/// `results` holds each rank's `work` output and `stats` each rank's
/// daemon counters.
///
/// # Panics
/// Propagates the first worker panic after tearing down the daemons.
fn launch<T, W>(
    config: &DsmConfig,
    transport: &mut impl Transport,
    ranks: std::ops::Range<usize>,
    measured: bool,
    work: W,
) -> DsmRun<T>
where
    T: Send,
    W: Fn(&mut Node) -> T + Sync,
{
    let wirings: Vec<(usize, RankWiring)> = ranks.map(|r| (r, transport.wiring(r))).collect();
    // One cancellable sleep source for the run (`network.simulate`).
    let clock = Clock::new();

    let t0 = std::time::Instant::now();
    let (results, stats) = std::thread::scope(|scope| {
        let mut spawned = Vec::with_capacity(wirings.len());
        for (rank, wiring) in wirings {
            let RankWiring {
                daemon_tx,
                reply_tx,
                daemon_rx,
                reply_rx,
            } = wiring;
            // A direct sender to the daemon's inbox for teardown.
            let shutdown_tx = daemon_tx[rank].clone();
            let to_daemons = daemon_tx.clone();
            let daemon = Arc::new(Mutex::new(Daemon::new(rank, config, measured)));
            // The worker steps its own daemon inline; over a real network
            // its own messages keep crossing the inbox (DESIGN.md §5.12).
            let own = (!measured).then(|| OwnDaemon::new(daemon.clone(), reply_tx.clone()));
            let daemon = scope.spawn(move || Daemon::run(daemon, daemon_rx, reply_tx, to_daemons));
            let (work, clock) = (&work, clock.clone());
            let worker = scope.spawn(move || {
                let wiring = NodeWiring {
                    daemon_tx,
                    reply_rx,
                    own,
                };
                let mut node = Node::new(rank, config, measured, wiring, clock);
                work(&mut node)
            });
            spawned.push((worker, shutdown_tx, daemon));
        }

        // Every worker is joined before any daemon is told to stop: a
        // daemon serves all ranks' workers, not just its own.
        let joined: Vec<_> = spawned
            .into_iter()
            .map(|(worker, shutdown_tx, daemon)| (worker.join(), shutdown_tx, daemon))
            .collect();
        let mut results = Vec::with_capacity(joined.len());
        let mut stats = Vec::with_capacity(joined.len());
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        // Tear down daemons regardless of worker outcome.
        for (result, shutdown_tx, daemon) in joined {
            let _ = shutdown_tx.send(Envelope {
                msg: Msg::Shutdown,
                arrive: std::time::Duration::ZERO,
                src: SYSTEM_SRC,
                seq: 0,
            });
            stats.push(daemon.join().unwrap_or_default());
            match result {
                Ok(r) => results.push(r),
                Err(e) => panic = panic.or(Some(e)),
            }
        }
        if let Some(e) = panic {
            // Release any worker parked in a simulated sleep before
            // propagating (they have all joined already on the happy
            // path; this is belt-and-braces for teardown paths).
            clock.cancel();
            std::panic::resume_unwind(e);
        }
        (results, stats)
    });
    transport.shutdown();
    DsmRun {
        results,
        stats,
        wall: t0.elapsed(),
    }
}

/// All-gathers `(result, stats)` from every rank through the DSM itself:
/// publish lengths, publish blobs, read everything back. Every rank
/// decodes the same shared bytes, which is what makes the returned
/// vectors bit-identical across processes.
fn gather_results<R: Wire>(
    node: &mut Node,
    rank: usize,
    nprocs: usize,
    result: R,
    snapshot: NodeStats,
) -> Vec<(R, NodeStats)> {
    let blob = to_frame(&(GATHER_TAG, result, snapshot));
    let lens = node.alloc_vec::<u64>(nprocs);
    node.vec_set(&lens, rank, blob.len() as u64);
    node.barrier();
    let lens_v = node.vec_read_range(&lens, 0..nprocs);
    let total: usize = lens_v.iter().map(|&l| l as usize).sum();
    let data = node.alloc_vec::<u8>(total);
    let offset: usize = lens_v[..rank].iter().map(|&l| l as usize).sum();
    node.vec_write_range(&data, offset, &blob);
    node.barrier();
    let all = node.vec_read_range(&data, 0..total);
    node.barrier();
    let mut out = Vec::with_capacity(nprocs);
    let mut off = 0;
    for (r, &len) in lens_v.iter().enumerate() {
        let len = len as usize;
        let slice = &all[off..off + len];
        off += len;
        let decoded =
            from_frame::<(u8, R, NodeStats)>(slice).and_then(|(tag, result, stats)| match tag {
                GATHER_TAG => Ok((result, stats)),
                other => Err(DsmError::BadTag(other)),
            });
        match decoded {
            Ok(pair) => out.push(pair),
            Err(e) => panic!("rank {r}: result-gather blob corrupt: {e}"),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NetworkModel;

    #[test]
    fn single_node_round_trip() {
        let run = DsmSystem::run(DsmConfig::new(1), |node| {
            let v = node.alloc_vec::<i32>(100);
            for i in 0..100 {
                node.vec_set(&v, i, i as i32 * 3);
            }
            (0..100).map(|i| node.vec_get(&v, i)).sum::<i32>()
        });
        assert_eq!(run.results, vec![3 * 4950]);
    }

    #[test]
    fn in_process_run_keeps_virtual_time_whatever_the_config_carries() {
        // `run` wires every rank over channels, so a `ClusterCtx` left in
        // the config must not switch the nodes to measured wall time.
        let manifest = crate::ClusterManifest::loopback(2, 9);
        let ctx = ClusterCtx::new(0, manifest, 1).expect("ctx");
        let second = std::time::Duration::from_secs(1);
        let run = DsmSystem::run(DsmConfig::new(2).cluster(ctx), |node| {
            node.advance(second);
            node.barrier();
        });
        for s in &run.stats {
            assert!(s.total >= second, "total {:?} is host time", s.total);
            let buckets = s.communication + s.lock_cv + s.barrier;
            assert_eq!(s.computation() + buckets, s.total);
        }
    }

    #[test]
    fn shared_memory_starts_zeroed() {
        let run = DsmSystem::run(DsmConfig::new(2), |node| {
            let v = node.alloc_vec::<i64>(64);
            node.vec_read_range(&v, 0..64).iter().sum::<i64>()
        });
        assert_eq!(run.results, vec![0, 0]);
    }

    #[test]
    fn lock_protected_counter_is_sequentially_consistent() {
        const N: usize = 4;
        const ITERS: i64 = 50;
        let run = DsmSystem::run(DsmConfig::new(N), |node| {
            let counter = node.alloc_vec::<i64>(1);
            node.barrier();
            for _ in 0..ITERS {
                node.lock(7);
                let v = node.vec_get(&counter, 0);
                node.vec_set(&counter, 0, v + 1);
                node.unlock(7);
            }
            node.barrier();
            node.vec_get(&counter, 0)
        });
        for r in run.results {
            assert_eq!(r, N as i64 * ITERS);
        }
    }

    #[test]
    fn barrier_publishes_writes() {
        // Node i writes slot i; after the barrier every node sees all
        // slots (write-invalidate + refetch).
        let run = DsmSystem::run(DsmConfig::new(4), |node| {
            let v = node.alloc_vec::<i32>(4);
            node.vec_set(&v, node.id(), node.id() as i32 + 10);
            node.barrier();
            node.vec_read_range(&v, 0..4)
        });
        for r in run.results {
            assert_eq!(r, vec![10, 11, 12, 13]);
        }
    }

    #[test]
    fn multiple_writers_of_one_page_merge() {
        // All four nodes write disjoint quarters of the same page inside
        // the same interval; after the barrier everyone sees all writes.
        let run = DsmSystem::run(DsmConfig::new(4), |node| {
            let v = node.alloc_vec::<i32>(64); // 256 B: one page
            let me = node.id();
            for k in 0..16 {
                node.vec_set(&v, me * 16 + k, (me * 100 + k) as i32);
            }
            node.barrier();
            node.vec_read_range(&v, 0..64)
        });
        for r in &run.results {
            for me in 0..4 {
                for k in 0..16 {
                    assert_eq!(r[me * 16 + k], (me * 100 + k) as i32);
                }
            }
        }
    }

    #[test]
    fn producer_consumer_with_cv() {
        // Node 0 produces values one at a time; node 1 consumes, with the
        // strategy-1 border protocol (write, setcv; waitcv, read, ack).
        let run = DsmSystem::run(DsmConfig::new(2), |node| {
            let slot = node.alloc_vec::<i64>(1);
            node.barrier();
            let mut sum = 0i64;
            if node.id() == 0 {
                for i in 0..20 {
                    node.vec_set(&slot, 0, i * i);
                    node.setcv(0); // data ready
                    node.waitcv(1); // consumer done
                }
            } else {
                for i in 0..20 {
                    node.waitcv(0);
                    let v = node.vec_get(&slot, 0);
                    assert_eq!(v, i * i, "consumer saw stale slot");
                    sum += v;
                    node.setcv(1);
                }
            }
            node.barrier();
            sum
        });
        assert_eq!(run.results[1], (0..20).map(|i| i * i).sum::<i64>());
    }

    #[test]
    fn cv_signal_before_wait_is_not_lost() {
        let run = DsmSystem::run(DsmConfig::new(2), |node| {
            if node.id() == 0 {
                node.setcv(3);
            }
            node.barrier(); // ensure the signal happened
            if node.id() == 1 {
                node.waitcv(3); // must not block forever
            }
            true
        });
        assert_eq!(run.results.len(), 2);
    }

    #[test]
    fn tiny_cache_forces_evictions_but_stays_correct() {
        let config = DsmConfig::new(2)
            .page_size(256)
            .cache_pages(2)
            .network(NetworkModel::zero());
        let run = DsmSystem::run(config, |node| {
            // 16 pages of data, cache of 2: constant replacement.
            let v = node.alloc_vec::<i32>(1024);
            node.barrier();
            if node.id() == 0 {
                for i in 0..1024 {
                    node.vec_set(&v, i, i as i32);
                }
            }
            node.barrier();
            let mut sum = 0i64;
            for i in 0..1024 {
                sum += node.vec_get(&v, i) as i64;
            }
            node.barrier();
            sum
        });
        let expect: i64 = (0..1024i64).sum();
        assert_eq!(run.results, vec![expect, expect]);
        assert!(run.stats[0].evictions > 0, "eviction path not exercised");
    }

    #[test]
    fn stats_track_protocol_activity() {
        let run = DsmSystem::run(DsmConfig::new(2), |node| {
            let v = node.alloc_vec::<i32>(2048); // several pages
                                                 // Cache everything first, so the later write notices actually
                                                 // find copies to invalidate.
            let _ = node.vec_read_range(&v, 0..2048);
            node.barrier();
            if node.id() == 0 {
                for i in 0..2048 {
                    node.vec_set(&v, i, 1);
                }
            }
            node.barrier();
            let mut total = 0;
            for i in 0..2048 {
                total += node.vec_get(&v, i);
            }
            node.barrier();
            total
        });
        assert_eq!(run.results, vec![2048, 2048]);
        let agg = NodeStats::aggregate(&run.stats);
        assert!(agg.page_fetches > 0);
        assert!(agg.diffs_sent > 0);
        assert!(agg.invalidations > 0, "write notices must invalidate");
        assert!(agg.msgs_sent > 0);
        assert!(agg.modeled_network > std::time::Duration::ZERO);
        assert_eq!(agg.malformed_dropped, 0, "a clean run refuses nothing");
    }

    #[test]
    fn alloc_on_homes_pages_on_one_node() {
        // Pages homed on node 1: node 1's reads after a barrier still see
        // node 0's writes (via diff to home).
        let run = DsmSystem::run(DsmConfig::new(2), |node| {
            let v = node.alloc_vec_on::<i32>(512, 1);
            node.barrier();
            if node.id() == 0 {
                for i in 0..512 {
                    node.vec_set(&v, i, 7);
                }
            }
            node.barrier();
            (0..512).map(|i| node.vec_get(&v, i)).sum::<i32>()
        });
        assert_eq!(run.results, vec![512 * 7, 512 * 7]);
    }

    #[test]
    fn results_are_indexed_by_node_id() {
        let run = DsmSystem::run(DsmConfig::new(8), |node| node.id());
        assert_eq!(run.results, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn scattered_writes_without_locks_merge_at_barrier() {
        // The phase-2 pattern: node i writes positions i, i+P, i+2P...
        // of a shared vector with no locks at all; the multiple-writer
        // protocol merges everything at the barrier.
        const P: usize = 4;
        let run = DsmSystem::run(DsmConfig::new(P), |node| {
            let v = node.alloc_vec::<i64>(100);
            node.barrier();
            let me = node.id();
            let mut i = me;
            while i < 100 {
                node.vec_set(&v, i, i as i64 * 2);
                i += P;
            }
            node.barrier();
            node.vec_read_range(&v, 0..100)
        });
        for r in &run.results {
            for (i, &x) in r.iter().enumerate() {
                assert_eq!(x, i as i64 * 2);
            }
        }
    }
}
