//! The protocol under fire: every synchronization and coherence pattern
//! the strategies rely on must produce results identical to a fault-free
//! run while the fault plan drops, corrupts, duplicates, and reorders
//! messages — and the reliability counters must show the machinery
//! actually worked.

use genomedsm_dsm::{DsmConfig, DsmSystem, FaultPlan, NodeStats, RetransmitPolicy};
use std::time::Duration;

fn faulty(nprocs: usize, spec: &str) -> DsmConfig {
    DsmConfig::new(nprocs).faults(FaultPlan::parse(spec).unwrap())
}

/// A harsh mixed plan: loss, corruption, duplication, reordering.
fn harsh(seed: u64) -> String {
    format!("seed={seed},drop=0.1,corrupt=0.03,dup=0.08,reorder=0.08")
}

#[test]
fn lock_counter_is_exact_under_loss_and_duplication() {
    const N: usize = 4;
    const ITERS: i64 = 40;
    let workload = |node: &mut genomedsm_dsm::Node| {
        let counter = node.alloc_vec::<i64>(1);
        node.barrier();
        for _ in 0..ITERS {
            node.lock(5);
            let v = node.vec_get(&counter, 0);
            node.vec_set(&counter, 0, v + 1);
            node.unlock(5);
        }
        node.barrier();
        node.vec_get(&counter, 0)
    };
    let run = DsmSystem::run(faulty(N, &harsh(1)), workload);
    assert_eq!(run.results, vec![N as i64 * ITERS; N]);
    let agg = NodeStats::aggregate(&run.stats);
    assert!(agg.retransmits > 0, "loss must force retransmissions");
    assert!(agg.dups_dropped > 0, "duplicates must be suppressed");
}

#[test]
fn producer_consumer_cv_sees_no_stale_or_double_signals() {
    // The strategy-1 border protocol: a duplicated SetCv must not wake
    // the consumer twice, a lost one must be retransmitted.
    let run = DsmSystem::run(faulty(2, &harsh(2)), |node| {
        let slot = node.alloc_vec::<i64>(1);
        node.barrier();
        let mut sum = 0i64;
        if node.id() == 0 {
            for i in 0..30 {
                node.vec_set(&slot, 0, i * i);
                node.setcv(0);
                node.waitcv(1);
            }
        } else {
            for i in 0..30 {
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
    assert_eq!(run.results[1], (0..30).map(|i| i * i).sum::<i64>());
}

#[test]
fn barrier_coherence_matches_fault_free_run() {
    let workload = |node: &mut genomedsm_dsm::Node| {
        let v = node.alloc_vec::<i32>(256);
        node.barrier();
        let me = node.id();
        for k in 0..64 {
            node.vec_set(&v, me * 64 + k, (me * 1000 + k) as i32);
        }
        node.barrier();
        node.vec_read_range(&v, 0..256)
    };
    let clean = DsmSystem::run(DsmConfig::new(4), workload);
    let chaotic = DsmSystem::run(faulty(4, &harsh(3)), workload);
    assert_eq!(clean.results, chaotic.results);
}

#[test]
fn corruption_is_detected_and_counted() {
    let run = DsmSystem::run(faulty(4, "seed=4,corrupt=0.15"), |node| {
        let v = node.alloc_vec::<i64>(512);
        node.barrier();
        if node.id() == 0 {
            for i in 0..512 {
                node.vec_set(&v, i, i as i64);
            }
        }
        node.barrier();
        (0..512).map(|i| node.vec_get(&v, i)).sum::<i64>()
    });
    let expect: i64 = (0..512i64).sum();
    assert_eq!(run.results, vec![expect; 4]);
    let agg = NodeStats::aggregate(&run.stats);
    assert!(
        agg.corrupt_dropped > 0,
        "checksum rejections must be counted"
    );
    assert!(
        agg.retransmits > 0,
        "corrupted frames recover by retransmission"
    );
}

#[test]
fn total_blackout_is_survived_by_forced_delivery() {
    // drop = 1.0: every attempt up to the cap is lost; the transport's
    // escalation (deliver the final attempt) must keep the run live
    // rather than spinning forever.
    let policy = RetransmitPolicy {
        initial_rto: Duration::from_millis(1),
        max_rto: Duration::from_millis(4),
        max_attempts: 4,
    };
    let config = faulty(2, "seed=5,drop=1").retransmit(policy);
    let run = DsmSystem::run(config, |node| {
        let v = node.alloc_vec::<i32>(8);
        node.barrier();
        if node.id() == 0 {
            node.vec_set(&v, 3, 99);
        }
        node.barrier();
        node.vec_get(&v, 3)
    });
    assert_eq!(run.results, vec![99, 99]);
    let agg = NodeStats::aggregate(&run.stats);
    assert!(agg.retransmits > 0);
}

#[test]
fn same_seed_reproduces_results_and_worker_retransmits() {
    let workload = |node: &mut genomedsm_dsm::Node| {
        let v = node.alloc_vec::<i64>(64);
        node.barrier();
        node.vec_set(&v, node.id(), node.id() as i64 + 7);
        node.barrier();
        node.vec_read_range(&v, 0..8)
    };
    let a = DsmSystem::run(faulty(4, &harsh(6)), workload);
    let b = DsmSystem::run(faulty(4, &harsh(6)), workload);
    assert_eq!(a.results, b.results);
}

#[test]
fn retransmission_overhead_is_charged_to_virtual_time() {
    // Same workload, same seed-free network model: the faulty run's
    // blocked time (and thus total) must exceed the fault-free run's,
    // because RTO waits are charged to the waiting operation's bucket.
    let workload = |node: &mut genomedsm_dsm::Node| {
        let v = node.alloc_vec::<i64>(1024);
        node.barrier();
        if node.id() == 0 {
            for i in 0..1024 {
                node.vec_set(&v, i, 1);
            }
        }
        node.barrier();
        (0..1024).map(|i| node.vec_get(&v, i)).sum::<i64>()
    };
    let clean = DsmSystem::run(DsmConfig::new(2), workload);
    let chaotic = DsmSystem::run(faulty(2, "seed=7,drop=0.3"), workload);
    assert_eq!(clean.results, chaotic.results);
    let ct = NodeStats::aggregate(&clean.stats);
    let ft = NodeStats::aggregate(&chaotic.stats);
    assert!(
        ft.communication + ft.lock_cv + ft.barrier > ct.communication + ct.lock_cv + ct.barrier,
        "fault recovery must cost virtual time (clean {:?} vs faulty {:?})",
        ct.communication + ct.lock_cv + ct.barrier,
        ft.communication + ft.lock_cv + ft.barrier,
    );
}
