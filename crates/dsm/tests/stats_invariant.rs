//! Property test for the paper's Fig. 10 accounting identity: for every
//! node, `computation + communication + lock_cv + barrier == total`.
//! Computation is defined as the remainder, so the invariant is real
//! only if the three blocked-time buckets never overshoot the total —
//! i.e. no operation double-charges the virtual clock. This must hold
//! both fault-free and under injected loss/duplication/reordering,
//! where RTO waits are charged to the waiting operation's bucket.

use genomedsm_dsm::{DsmConfig, DsmSystem, FaultPlan, NodeStats};
use proptest::prelude::*;

/// Exercises all three blocked-time buckets: page fetches + diffs
/// (communication), a contended lock counter (lock_cv), and barriers.
fn workload(iters: usize) -> impl Fn(&mut genomedsm_dsm::Node) -> i64 + Send + Sync {
    move |node| {
        let shared = node.alloc_vec::<i64>(128);
        node.barrier();
        let me = node.id();
        for i in 0..iters {
            node.lock(1);
            let v = node.vec_get(&shared, 0);
            node.vec_set(&shared, 0, v + 1);
            node.unlock(1);
            node.vec_set(&shared, 1 + me * 16 + (i % 16), (me * 100 + i) as i64);
            node.barrier();
        }
        (0..128).map(|i| node.vec_get(&shared, i)).sum()
    }
}

fn assert_fig10_identity(stats: &[NodeStats]) {
    for (id, s) in stats.iter().enumerate() {
        let blocked = s.communication + s.lock_cv + s.barrier;
        assert!(
            blocked <= s.total,
            "node {id}: blocked time {blocked:?} exceeds total {total:?} \
             (a bucket double-charged the clock)",
            total = s.total,
        );
        assert_eq!(
            s.computation() + s.communication + s.lock_cv + s.barrier,
            s.total,
            "node {id}: Fig. 10 identity broken",
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fig10_identity_holds_fault_free(
        nprocs in 2usize..=4,
        iters in 1usize..=8,
    ) {
        let run = DsmSystem::run(DsmConfig::new(nprocs), workload(iters));
        prop_assert_eq!(run.stats.len(), nprocs);
        assert_fig10_identity(&run.stats);
    }

    #[test]
    fn fig10_identity_holds_under_faults(
        nprocs in 2usize..=4,
        iters in 1usize..=6,
        seed in 0u64..1_000,
        drop in proptest::sample::select(vec![0.02f64, 0.08, 0.15]),
    ) {
        let spec = format!("seed={seed},drop={drop},corrupt=0.02,dup=0.05,reorder=0.05");
        let config = DsmConfig::new(nprocs).faults(FaultPlan::parse(&spec).unwrap());
        let run = DsmSystem::run(config, workload(iters));
        prop_assert_eq!(run.stats.len(), nprocs);
        assert_fig10_identity(&run.stats);
        // The faulty run must also still compute the right answer: the
        // lock counter reaches nprocs * iters and every slot is visible
        // to every node identically.
        let first = run.results[0];
        prop_assert!(run.results.iter().all(|&r| r == first));
    }
}
