//! End-to-end tests of the UDP socket transport: several ranks, each
//! with its own socket and its own `DsmSystem::run_wire` call, run in one
//! test process (a `UdpTransport` is per-rank self-contained, so threads
//! standing in for processes exercises exactly the multi-process path).

use genomedsm_dsm::{
    ClusterCtx, ClusterManifest, DsmConfig, DsmRun, DsmSystem, FaultPlan, NetworkModel, Node,
};
use std::net::UdpSocket;

/// Reserves `n` distinct loopback ports by binding ephemeral sockets,
/// then releasing them for the transports to rebind.
fn fresh_manifest(n: usize) -> ClusterManifest {
    let holds: Vec<UdpSocket> = (0..n)
        .map(|_| UdpSocket::bind("127.0.0.1:0").expect("bind ephemeral"))
        .collect();
    let nodes = holds
        .iter()
        .map(|s| s.local_addr().expect("local addr"))
        .collect();
    drop(holds);
    ClusterManifest::new(nodes)
}

/// Runs `f` on `n` socket-connected ranks (threads standing in for
/// processes) and returns every rank's full gathered `DsmRun`.
fn run_cluster<R, F>(
    n: usize,
    session: u64,
    make_config: fn(usize) -> DsmConfig,
    f: F,
) -> Vec<DsmRun<R>>
where
    R: genomedsm_dsm::Wire + Send + 'static,
    F: Fn(&mut Node) -> R + Send + Sync + Copy + 'static,
{
    let manifest = fresh_manifest(n);
    let mut handles = Vec::new();
    for rank in 0..n {
        let manifest = manifest.clone();
        handles.push(std::thread::spawn(move || {
            let ctx = ClusterCtx::new(rank, manifest, session).expect("ctx");
            let config = make_config(n).cluster(ctx);
            DsmSystem::run_wire(config, f)
        }));
    }
    handles
        .into_iter()
        .map(|h| h.join().expect("rank panicked"))
        .collect()
}

fn lock_counter_workload(node: &mut Node) -> Vec<i64> {
    const ITERS: i64 = 10;
    let counter = node.alloc_vec::<i64>(1);
    let slots = node.alloc_vec::<i64>(node.nprocs());
    node.barrier();
    for _ in 0..ITERS {
        node.lock(3);
        let v = node.vec_get(&counter, 0);
        node.vec_set(&counter, 0, v + 1);
        node.unlock(3);
    }
    node.vec_set(&slots, node.id(), node.id() as i64 * 100);
    node.barrier();
    let mut out = vec![node.vec_get(&counter, 0)];
    out.extend(node.vec_read_range(&slots, 0..node.nprocs()));
    node.barrier();
    out
}

#[test]
fn four_ranks_over_udp_match_in_process_run() {
    let runs = run_cluster(4, 1, DsmConfig::new, lock_counter_workload);
    let reference = DsmSystem::run(DsmConfig::new(4), lock_counter_workload);
    for (rank, run) in runs.iter().enumerate() {
        assert_eq!(
            run.results, reference.results,
            "rank {rank}'s gathered results diverge from the in-process run"
        );
    }
    // Every rank decoded the same shared bytes: identical across ranks.
    for run in &runs[1..] {
        assert_eq!(run.results, runs[0].results);
    }
    // The socket path really moved datagrams and measured round trips.
    let s = &runs[0].stats[0];
    assert!(s.datagrams_sent > 0, "no datagrams left rank 0");
    assert!(s.datagrams_received > 0, "no datagrams reached rank 0");
    assert!(
        s.measured_network > std::time::Duration::ZERO,
        "no RTT was measured"
    );
}

#[test]
fn scattered_writes_over_udp_merge_like_phase2() {
    fn workload(node: &mut Node) -> Vec<i64> {
        let p = node.nprocs();
        let v = node.alloc_vec::<i64>(257); // several pages, odd length
        node.barrier();
        let mut i = node.id();
        while i < 257 {
            node.vec_set(&v, i, (i * i) as i64);
            i += p;
        }
        node.barrier();
        let out = node.vec_read_range(&v, 0..257);
        node.barrier();
        out
    }
    let runs = run_cluster(3, 2, |n| DsmConfig::new(n).page_size(256), workload);
    for run in &runs {
        for r in &run.results {
            for (i, &x) in r.iter().enumerate() {
                assert_eq!(x, (i * i) as i64);
            }
        }
    }
}

#[test]
fn large_payloads_fragment_and_reassemble() {
    // One page far above MAX_FRAG_PAYLOAD (32 KiB): page fetches and
    // diffs must fragment into many datagrams and reassemble exactly.
    fn workload(node: &mut Node) -> i64 {
        let v = node.alloc_vec::<i64>(16 * 1024); // 128 KiB in one page
        node.barrier();
        if node.id() == 0 {
            for i in 0..16 * 1024 {
                node.vec_set(&v, i, i as i64);
            }
        }
        node.barrier();
        let sum = node.vec_read_range(&v, 0..16 * 1024).iter().sum();
        node.barrier();
        sum
    }
    let runs = run_cluster(2, 3, |n| DsmConfig::new(n).page_size(128 * 1024), workload);
    let expect: i64 = (0..16 * 1024i64).sum();
    for run in &runs {
        assert_eq!(run.results, vec![expect, expect]);
    }
}

/// `reliability.rs`'s producer/consumer border protocol, returning what
/// the consumer saw: a duplicated `SetCv` datagram must not wake it
/// twice, a lost one must be retransmitted. The transport's window is
/// the only dedup there is, so this is where the property is checked.
fn producer_consumer_workload(node: &mut Node) -> Vec<i64> {
    let slot = node.alloc_vec::<i64>(1);
    node.barrier();
    let mut seen = Vec::new();
    for i in 0..30 {
        if node.id() == 0 {
            node.vec_set(&slot, 0, i * i);
            node.setcv(0);
            node.waitcv(1);
        } else {
            node.waitcv(0);
            let v = node.vec_get(&slot, 0);
            assert_eq!(v, i * i, "consumer saw a stale or double-signalled slot");
            seen.push(v);
            node.setcv(1);
        }
    }
    node.barrier();
    seen
}

fn chaos_config(n: usize, plan: &str) -> DsmConfig {
    DsmConfig::new(n)
        .network(NetworkModel::zero())
        .faults(FaultPlan::parse(plan).expect("plan"))
}

#[test]
fn chaos_over_real_datagrams_is_exactly_once() {
    // Datagram loss plus corruption/duplication/reordering on the wire:
    // the transport must still deliver exactly-once and the results must
    // match a clean run bit for bit.
    type Input = (usize, fn(usize) -> DsmConfig, fn(&mut Node) -> Vec<i64>);
    let inputs: [Input; 2] = [
        (
            3,
            |n| chaos_config(n, "seed=7,drop=0.15,corrupt=0.03,dup=0.05,reorder=0.1"),
            lock_counter_workload,
        ),
        (
            2,
            |n| chaos_config(n, "seed=7,dup=0.2,drop=0.1,reorder=0.1"),
            producer_consumer_workload,
        ),
    ];
    for (i, (n, chaos, workload)) in inputs.into_iter().enumerate() {
        let session = 4 + 2 * i as u64;
        let clean = run_cluster(
            n,
            session,
            |n| DsmConfig::new(n).network(NetworkModel::zero()),
            workload,
        );
        let chaotic = run_cluster(n, session + 1, chaos, workload);
        for (c, k) in clean.iter().zip(&chaotic) {
            assert_eq!(c.results, k.results, "chaos changed the computed results");
        }
        // The adversity must actually have happened and been repaired
        // (transport counters land in each rank's own slot).
        let local = |f: fn(&genomedsm_dsm::NodeStats) -> u64| -> u64 {
            chaotic
                .iter()
                .enumerate()
                .map(|(rank, run)| f(&run.stats[rank]))
                .sum()
        };
        assert!(
            local(|s| s.retransmits) > 0,
            "chaos plan injected nothing (no retransmits)"
        );
        assert!(local(|s| s.dups_dropped) > 0, "no duplicate was dropped");
    }
}

#[test]
fn stale_sessions_do_not_cross_runs() {
    // Two DSM runs back to back on the SAME manifest: session numbers
    // fence them, so run 2's sequence spaces start clean.
    let manifest = fresh_manifest(2);
    for session in [10u64, 20u64] {
        let mut handles = Vec::new();
        for rank in 0..2 {
            let manifest = manifest.clone();
            handles.push(std::thread::spawn(move || {
                let ctx = ClusterCtx::new(rank, manifest, session).expect("ctx");
                let config = DsmConfig::new(2).cluster(ctx);
                DsmSystem::run_wire(config, |node| {
                    let v = node.alloc_vec::<i64>(64);
                    node.barrier();
                    node.vec_set(&v, node.id() * 32, 7);
                    node.barrier();
                    let s: i64 = node.vec_read_range(&v, 0..64).iter().sum();
                    node.barrier();
                    s
                })
            }));
        }
        for h in handles {
            let run = h.join().expect("rank panicked");
            assert_eq!(run.results, vec![14, 14], "session {session}");
        }
    }
}
