//! Lock-lease recovery sweep: kill the lock holder at *every*
//! acquisition point of a lock-protected counter workload and assert the
//! survivors always agree on the same deterministic final value.
//!
//! Two kill positions are swept for every (victim, round) pair:
//!
//! * **inside** the critical section (after the write, before the
//!   release) — the lease must be broken, the unflushed increment is
//!   lost, and the next waiter is granted the last *released* state;
//! * **after** the release — no lease is held, so no lease break may be
//!   charged, and the flushed increment must survive.
//!
//! Either way every survivor must read the identical expected count, so
//! the recovered run is bit-for-bit equal to a run in which the victim
//! had simply stopped at that point.

use genomedsm_dsm::{DsmConfig, DsmSystem, SupervisionConfig};
use std::time::Duration;

const NPROCS: usize = 3;
const ROUNDS: usize = 3;

fn supervised(nprocs: usize) -> DsmConfig {
    DsmConfig::new(nprocs).supervise(SupervisionConfig {
        enabled: true,
        detect_after: Duration::from_millis(40),
    })
}

/// Runs the counter workload killing `victim` at its `kill_at`-th lock
/// acquisition, inside the critical section or just after the release.
/// Returns per-node final counts (`-1` marks the victim) and the total
/// number of lease breaks charged across all daemons.
fn run_sweep_point(victim: usize, kill_at: usize, inside_cs: bool) -> (Vec<i64>, u64) {
    let run = DsmSystem::run(supervised(NPROCS), move |node| {
        let counter = node.alloc_vec::<i64>(1);
        node.barrier();
        for round in 0..ROUNDS {
            let dies_here = node.id() == victim && round == kill_at;
            node.lock(0);
            let v = node.vec_get(&counter, 0);
            node.vec_set(&counter, 0, v + 1);
            if dies_here && inside_cs {
                // Fail-stop while holding lock 0: no release, no flush.
                node.fail_stop();
                return -1;
            }
            node.unlock(0);
            if dies_here {
                // Fail-stop with the lock released and the write flushed.
                node.fail_stop();
                return -1;
            }
        }
        let dead = node.barrier_wait();
        assert_eq!(dead, vec![victim], "exactly the victim is dead");
        node.lock(0);
        let v = node.vec_get(&counter, 0);
        node.unlock(0);
        v
    });
    let leases = run.stats.iter().map(|s| s.leases_broken).sum();
    (run.results, leases)
}

#[test]
fn holder_killed_inside_critical_section_at_every_acquisition() {
    for victim in 0..NPROCS {
        for kill_at in 0..ROUNDS {
            let (results, leases) = run_sweep_point(victim, kill_at, true);
            // The victim's interrupted increment is lost with the broken
            // lease; its earlier released rounds survive.
            let expect = ((NPROCS - 1) * ROUNDS + kill_at) as i64;
            for (id, v) in results.iter().enumerate() {
                if id == victim {
                    assert_eq!(*v, -1);
                } else {
                    assert_eq!(
                        *v, expect,
                        "victim {victim} killed holding lock at acquisition \
                         {kill_at}: node {id} disagrees on the final count"
                    );
                }
            }
            assert_eq!(
                leases, 1,
                "victim {victim} at acquisition {kill_at}: exactly one lease break"
            );
        }
    }
}

#[test]
fn holder_killed_after_release_at_every_acquisition() {
    for victim in 0..NPROCS {
        for kill_at in 0..ROUNDS {
            let (results, leases) = run_sweep_point(victim, kill_at, false);
            // The round's release flushed, so its increment counts.
            let expect = ((NPROCS - 1) * ROUNDS + kill_at + 1) as i64;
            for (id, v) in results.iter().enumerate() {
                if id == victim {
                    assert_eq!(*v, -1);
                } else {
                    assert_eq!(
                        *v, expect,
                        "victim {victim} killed after release at acquisition \
                         {kill_at}: node {id} disagrees on the final count"
                    );
                }
            }
            assert_eq!(
                leases, 0,
                "victim {victim} at acquisition {kill_at}: lock was free, \
                 no lease may be broken"
            );
        }
    }
}
