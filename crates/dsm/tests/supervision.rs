//! Supervision-layer coverage at the DSM level: a fail-stopped node's
//! obituary must break its lock leases (granting the next waiter the
//! last *released* state), wake blocked cv waiters with a typed
//! `NodeFailed` instead of deadlocking, and complete barriers over the
//! survivors.

use genomedsm_dsm::{DsmConfig, DsmError, DsmSystem, SupervisionConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn supervised(nprocs: usize) -> DsmConfig {
    DsmConfig::new(nprocs).supervise(SupervisionConfig {
        enabled: true,
        detect_after: Duration::from_millis(100),
    })
}

#[test]
fn dead_lock_holder_lease_is_broken_and_survivors_finish() {
    // Node 1 fail-stops *while holding* lock 0. Without supervision every
    // other node deadlocks in acquire; with it, the manager breaks the
    // lease and grants the next waiter. The dead node's unreleased
    // critical-section write is lost (fail-stop), so the counter ends at
    // the survivors' total.
    let run = DsmSystem::run(supervised(4), |node| {
        let counter = node.alloc_vec::<i64>(1);
        node.barrier();
        for round in 0..3 {
            if node.id() == 1 && round == 1 {
                node.lock(0);
                let v = node.vec_get(&counter, 0);
                node.vec_set(&counter, 0, v + 1);
                // Dies inside the critical section: no release, no flush.
                node.fail_stop();
                return -1;
            }
            node.lock(0);
            let v = node.vec_get(&counter, 0);
            node.vec_set(&counter, 0, v + 1);
            node.unlock(0);
        }
        let dead = node.barrier_wait();
        assert_eq!(dead, vec![1], "round's dead set is reported");
        node.lock(0);
        let v = node.vec_get(&counter, 0);
        node.unlock(0);
        v
    });
    // 3 survivors × 3 rounds, plus node 1's completed round 0; its
    // unflushed round-1 increment is lost with the broken lease.
    for (id, v) in run.results.iter().enumerate() {
        if id == 1 {
            assert_eq!(*v, -1);
        } else {
            assert_eq!(*v, 10, "node {id} saw a wrong final count");
        }
    }
    let total: u64 = run.stats.iter().map(|s| s.leases_broken).sum();
    assert_eq!(total, 1, "exactly one lease break");
    assert_eq!(run.stats.iter().map(|s| s.obituaries).sum::<u64>(), 4);
}

#[test]
fn blocked_cv_waiter_is_woken_with_typed_node_failed() {
    // Node 0 waits on a cv that only node 1 would signal; node 1 dies
    // after the wait is registered. The waiter must unwind with
    // DsmError::NodeFailed, not hang. The flag + sleep order the WaitCv
    // frame ahead of the obituary at cv 7's manager so the obituary
    // wakes a parked wait.
    let parked = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&parked);
    let run = DsmSystem::run(supervised(2), move |node| {
        node.barrier();
        if node.id() == 1 {
            while !flag.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            std::thread::sleep(Duration::from_millis(50));
            node.fail_stop();
            return 0;
        }
        flag.store(true, Ordering::Release);
        match node.try_waitcv(7) {
            Err(DsmError::NodeFailed { node: dead }) => {
                assert_eq!(dead, 1);
                assert_eq!(node.known_dead(), vec![1]);
                1
            }
            other => panic!("expected NodeFailed, got {other:?}"),
        }
    });
    assert_eq!(run.results[0], 1);
    assert!(run.stats.iter().map(|s| s.waiters_woken).sum::<u64>() >= 1);
}

#[test]
fn pending_signals_survive_a_node_failed_wakeup() {
    // Counting semantics across recovery: a signal sent before the death
    // wake-up is not lost — a re-wait after the NodeFailed consumes it.
    let run = DsmSystem::run(supervised(3), |node| {
        node.barrier();
        match node.id() {
            2 => {
                node.fail_stop();
                0
            }
            1 => {
                // Signal once, then park on a cv nobody signals; the
                // obituary wake-up must not consume cv 0's pending signal.
                node.setcv(0);
                match node.try_waitcv(5) {
                    Err(DsmError::NodeFailed { .. }) => {}
                    other => panic!("expected NodeFailed, got {other:?}"),
                }
                1
            }
            _ => {
                // Consume the pending signal, possibly after a NodeFailed
                // wake-up raced it.
                loop {
                    match node.try_waitcv(0) {
                        Ok(()) => break,
                        Err(DsmError::NodeFailed { .. }) => continue,
                        Err(other) => panic!("unexpected {other:?}"),
                    }
                }
                2
            }
        }
    });
    assert_eq!(run.results, vec![2, 1, 0]);
}

#[test]
fn a_wait_that_arrives_after_the_obituary_fails_at_once() {
    // Node 1 dies while node 0 is busy elsewhere, so the obituary finds
    // nobody parked on cv 7. The wait that reaches the manager afterwards
    // must learn of the death from the manager itself — not park for good.
    // The flag orders the two frames in the manager's one FIFO inbox: the
    // obituary is enqueued before the store, the wait after the load.
    let died = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&died);
    let run = DsmSystem::run(supervised(2), move |node| {
        node.barrier();
        if node.id() == 1 {
            node.fail_stop();
            flag.store(true, Ordering::Release);
            return 0;
        }
        while !flag.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        let t0 = std::time::Instant::now();
        match node.try_waitcv(7) {
            Err(DsmError::NodeFailed { node: dead }) => assert_eq!(dead, 1),
            other => panic!("expected NodeFailed, got {other:?}"),
        }
        assert!(t0.elapsed() < Duration::from_secs(10), "waited out a stall");
        assert_eq!(node.known_dead(), vec![1]);
        // Told once: a banked signal still satisfies the next wait.
        node.setcv(7);
        node.try_waitcv(7).expect("the banked signal");
        1
    });
    assert_eq!(run.results[0], 1);
    assert!(run.stats.iter().map(|s| s.waiters_woken).sum::<u64>() >= 1);
}

#[test]
fn a_death_the_waiter_knows_of_does_not_fail_its_wait() {
    // Node 0 learns of node 2's death from the barrier (daemon 0), then
    // waits on a cv managed by daemon 1, which has told it nothing. The
    // manager's `NodeFailed` names a death node 0 has unwound for
    // already, so the wait must stand until node 1's signal — an adopter
    // blocking on a live producer must not be failed again.
    let run = DsmSystem::run(supervised(3), |node| {
        node.barrier();
        if node.id() == 2 {
            node.fail_stop();
            return 0;
        }
        assert_eq!(node.barrier_wait(), vec![2]);
        if node.id() == 1 {
            std::thread::sleep(Duration::from_millis(50)); // wait first
            node.setcv(1);
        } else {
            node.try_waitcv(1).expect("a live producer's signal");
        }
        1
    });
    assert_eq!(run.results, vec![1, 1, 0]);
}

#[test]
fn barrier_completes_over_survivors_and_reports_dead() {
    let run = DsmSystem::run(supervised(4), |node| {
        node.barrier();
        if node.id() == 3 {
            node.fail_stop();
            return Vec::new();
        }
        // The dead node never arrives; survivors still pass.
        node.barrier_wait()
    });
    for id in 0..3 {
        assert_eq!(run.results[id], vec![3]);
    }
}

#[test]
fn rejoined_node_is_admitted_and_clears_the_dead_view() {
    // Node 2 fail-stops, then rejoins after 200 ms of virtual downtime
    // and publishes a write. Every node loops on `barrier_wait` until the
    // round's dead vector is empty — the strategy sweep's convergence
    // pattern — which tolerates both admission orderings (before or after
    // the survivors' round completes). On exit everyone must agree the
    // cluster is whole again and see the joiner's post-rejoin write.
    let run = DsmSystem::run(supervised(3), |node| {
        let v = node.alloc_vec::<i64>(3);
        node.barrier();
        if node.id() == 2 {
            node.fail_stop();
            assert!(node.failed());
            // The boundary round is the one the cluster is already at,
            // so the admission is immediate.
            let dead = node.rejoin(Duration::from_millis(200), node.round(), 0);
            assert!(!node.failed());
            assert_eq!(node.incarnation(), 1);
            assert!(dead.is_empty(), "joiner's post-admission dead view");
            node.vec_set(&v, 2, 42);
        }
        while !node.barrier_wait().is_empty() {}
        assert!(node.known_dead().is_empty(), "dead view cleared on rejoin");
        node.vec_get(&v, 2)
    });
    assert_eq!(run.results, vec![42, 42, 42]);
    assert_eq!(run.stats.iter().map(|s| s.rejoins).sum::<u64>(), 1);
    assert_eq!(run.stats.iter().map(|s| s.obituaries).sum::<u64>(), 3);
    assert!(run.stats[2].recovery_time >= Duration::from_millis(200));
}

#[test]
fn admission_is_deferred_to_the_agreed_boundary_round() {
    // The joiner announces immediately but names a boundary two rounds
    // ahead; daemon 0 parks the announcement, the survivors' mid-workload
    // rounds complete under dead-credit (their grants still report the
    // rank dead), and the admission takes effect exactly when the
    // boundary round starts — the joiner's first arrival lands there.
    // The survivors hold round 2 until the joiner is about to announce:
    // left alone they can finish both rounds while it is descheduled
    // between its obituary and its announcement, which then arrives late
    // and is (rightly) admitted one round on.
    let announcing = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&announcing);
    let run = DsmSystem::run(supervised(3), move |node| {
        node.barrier();
        let base = node.round();
        if node.id() == 2 {
            node.fail_stop();
            flag.store(true, Ordering::Release);
            let dead = node.rejoin(Duration::from_millis(100), base + 2, 0);
            assert!(dead.is_empty(), "joiner's post-admission dead view");
            assert_eq!(node.round(), base + 2, "epoch resyncs to the boundary");
            node.barrier_wait()
        } else {
            assert_eq!(node.barrier_wait(), vec![2], "mid-workload round 1");
            while !flag.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            assert_eq!(node.barrier_wait(), vec![2], "mid-workload round 2");
            node.barrier_wait()
        }
    });
    for id in 0..3 {
        assert!(
            run.results[id].is_empty(),
            "boundary grant must be clean for node {id}"
        );
    }
    assert_eq!(run.stats.iter().map(|s| s.rejoins).sum::<u64>(), 1);
}

#[test]
fn late_announcement_is_redeferred_to_the_next_boundary_multiple() {
    // The announcement names a boundary that has *already passed* by the
    // time daemon 0 sees it (a host gate holds it back while the
    // survivors complete two dead-credited rounds). Admitting it
    // immediately would hand the role back mid-workload — two live
    // owners — so the daemon must re-defer to the next multiple of the
    // announced stride strictly in the future, and the joiner's first
    // arrival lands exactly there.
    let gate = std::sync::Arc::new(std::sync::Barrier::new(3));
    let run = DsmSystem::run(supervised(3), move |node| {
        node.barrier();
        let base = node.round();
        if node.id() == 2 {
            node.fail_stop();
            gate.wait(); // survivors are already ≥ 2 rounds past `base`
            let dead = node.rejoin(Duration::from_millis(50), base, 2);
            assert!(dead.is_empty(), "joiner's post-admission dead view");
            let admitted = node.round();
            assert!(
                admitted >= base + 4 && (admitted - base) % 2 == 0,
                "late admission lands on a future stride multiple, got +{}",
                admitted - base
            );
        } else {
            assert_eq!(node.barrier_wait(), vec![2], "mid-workload round 1");
            assert_eq!(node.barrier_wait(), vec![2], "mid-workload round 2");
            gate.wait();
        }
        // Pad dead-credited rounds until the admission clears the view;
        // the joiner's first wait is already clean.
        while !node.barrier_wait().is_empty() {}
        node.id() as i64
    });
    assert_eq!(run.results, vec![0, 1, 2]);
    assert_eq!(run.stats.iter().map(|s| s.rejoins).sum::<u64>(), 1);
}

#[test]
fn unsupervised_runs_pay_nothing() {
    // With supervision disabled (the default), a run sends only its own
    // protocol traffic — here one barrier arrival per node — and the sync
    // ops take the plain blocking path.
    let run = DsmSystem::run(DsmConfig::new(2), |node| {
        assert!(!node.supervised());
        node.barrier();
        node.id()
    });
    assert_eq!(run.stats.iter().map(|s| s.msgs_sent).sum::<u64>(), 2);
}
