//! Elastic membership over the real-socket transport: a 4-rank UDP
//! cluster (threads standing in for processes, each with its own socket
//! and its own strategy call — exactly the multi-process path) kills one
//! rank mid-run, readmits it at the next workload boundary, and must
//! produce results bit-identical to a clean in-process run. The `Rejoin`
//! announcement, the deferred admission, and the `RejoinAck` all travel
//! as real datagrams through the UDP transport's window here.

use genomedsm_core::{HeuristicParams, Scoring};
use genomedsm_dsm::{ClusterCtx, ClusterManifest, DsmConfig, FaultPlan, SupervisionConfig};
use genomedsm_seq::{planted_pair, HomologyPlan};
use genomedsm_strategies::{heuristic_block_align, BlockedConfig};
use std::net::UdpSocket;

const NPROCS: usize = 4;
const SC: Scoring = Scoring::paper();

fn params() -> HeuristicParams {
    HeuristicParams {
        open_threshold: 8,
        close_threshold: 8,
        min_score: 15,
    }
}

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

fn supervise(dsm: DsmConfig) -> DsmConfig {
    dsm.supervise(SupervisionConfig {
        enabled: true,
        detect_after: std::time::Duration::from_millis(40),
    })
}

#[test]
fn four_ranks_over_udp_kill_then_rejoin_bit_identical() {
    let (s, t, _) = planted_pair(500, 500, &HomologyPlan::paper_density(500 * 8), 42);
    let (s, t) = (s.into_bytes(), t.into_bytes());

    // Reference: clean in-process simulation of the same workload.
    let expect = heuristic_block_align(&s, &t, &SC, &params(), &BlockedConfig::new(NPROCS, 16, 8));
    assert!(!expect.regions.is_empty(), "workload must find regions");

    // Socket cluster: rank 2 dies after 5 blocks and rejoins after 8
    // units of virtual downtime. Every rank runs the strategy itself;
    // the kill plan is part of the deterministic config, so each process
    // consults the same schedule for its own worker.
    let manifest = fresh_manifest(NPROCS);
    let plan = FaultPlan::quiet(0).with_crash(2, 5).with_rejoin(2, 8);
    let mut handles = Vec::new();
    for rank in 0..NPROCS {
        let manifest = manifest.clone();
        let (s, t, plan) = (s.clone(), t.clone(), plan.clone());
        handles.push(std::thread::spawn(move || {
            let ctx = ClusterCtx::new(rank, manifest, 77).expect("ctx");
            let mut config = BlockedConfig::new(NPROCS, 16, 8);
            config.dsm = supervise(config.dsm).faults(plan).cluster(ctx);
            let out = heuristic_block_align(&s, &t, &SC, &params(), &config);
            (out.regions, out.per_node[rank].clone())
        }));
    }
    let outs: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("rank panicked"))
        .collect();

    for (rank, (regions, _)) in outs.iter().enumerate() {
        assert_eq!(
            regions, &expect.regions,
            "rank {rank}: UDP kill+rejoin run diverged from the clean run"
        );
    }
    let rejoins: u64 = outs.iter().map(|(_, st)| st.rejoins).sum();
    assert_eq!(rejoins, 1, "the victim must rejoin exactly once over UDP");
    let takeovers: u64 = outs.iter().map(|(_, st)| st.takeovers).sum();
    assert!(takeovers >= 1, "a survivor must adopt the victim's role");
    // The announcement and ack really crossed the wire.
    let datagrams: u64 = outs.iter().map(|(_, st)| st.datagrams_sent).sum();
    assert!(datagrams > 0, "no datagrams moved");
}
