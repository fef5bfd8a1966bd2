//! Protocol edge cases: page-boundary access, eviction under pressure,
//! lock manager distribution, notice bookkeeping, counter accuracy, and
//! home-local traffic interleaved with remote traffic.

use genomedsm_dsm::{
    DsmConfig, DsmError, DsmSystem, FaultPlan, GlobalVec, NetworkModel, Node, NodeStats,
    SupervisionConfig,
};

fn config(n: usize) -> DsmConfig {
    DsmConfig::new(n).network(NetworkModel::zero())
}

#[test]
fn values_spanning_page_boundaries_round_trip() {
    // With 64-byte pages, an i64 written every 60 bytes regularly crosses
    // page boundaries.
    let run = DsmSystem::run(config(2).page_size(64), |node| {
        let base = node.alloc_bytes(4096);
        node.barrier();
        if node.id() == 0 {
            for k in 0..60 {
                node.write::<i64>(base.offset(k * 60), &(k as i64 * 1_000_003));
            }
        }
        node.barrier();
        (0..60)
            .map(|k| node.read::<i64>(base.offset(k * 60)))
            .collect::<Vec<i64>>()
    });
    for r in &run.results {
        for (k, &v) in r.iter().enumerate() {
            assert_eq!(v, k as i64 * 1_000_003);
        }
    }
}

#[test]
fn locks_are_distributed_across_managers() {
    // Locks 0..8 on 4 nodes: managers are id % 4. All must work from any
    // node, including self-managed locks.
    let run = DsmSystem::run(config(4), |node| {
        let v = node.alloc_vec::<i64>(8);
        node.barrier();
        for lock in 0..8u32 {
            node.lock(lock);
            let i = lock as usize;
            let x = node.vec_get(&v, i);
            node.vec_set(&v, i, x + 1);
            node.unlock(lock);
        }
        node.barrier();
        node.vec_read_range(&v, 0..8)
    });
    for r in &run.results {
        assert_eq!(r, &vec![4i64; 8]);
    }
}

#[test]
fn eviction_of_modified_pages_preserves_writes() {
    // Cache of 2 pages, writes to 32 pages: every write-back must survive
    // eviction (the replacement algorithm flushes dirty victims).
    let run = DsmSystem::run(config(2).page_size(256).cache_pages(2), |node| {
        let v = node.alloc_vec::<i32>(2048); // 32 pages of 64 ints
        node.barrier();
        if node.id() == 1 {
            for i in 0..2048 {
                node.vec_set(&v, i, i as i32 ^ 0x5A5A);
            }
        }
        node.barrier();
        let mut ok = true;
        for i in 0..2048 {
            ok &= node.vec_get(&v, i) == i as i32 ^ 0x5A5A;
        }
        node.barrier();
        ok
    });
    assert_eq!(run.results, vec![true, true]);
}

#[test]
fn interleaved_condition_variables_do_not_cross_talk() {
    let run = DsmSystem::run(config(3), |node| {
        node.barrier();
        match node.id() {
            0 => {
                for _ in 0..10 {
                    node.setcv(10);
                    node.setcv(11);
                }
                0
            }
            1 => {
                let mut n = 0;
                for _ in 0..10 {
                    node.waitcv(10);
                    n += 1;
                }
                n
            }
            _ => {
                let mut n = 0;
                for _ in 0..10 {
                    node.waitcv(11);
                    n += 1;
                }
                n
            }
        }
    });
    assert_eq!(run.results, vec![0, 10, 10]);
}

#[test]
fn stats_counters_are_exact_for_a_scripted_run() {
    let run = DsmSystem::run(config(2).page_size(4096), |node| {
        let v = node.alloc_vec::<i32>(512); // 2048 B: one page, home node 0
        node.barrier();
        if node.id() == 1 {
            // One remote fetch (write fault), one diff at the barrier.
            node.vec_set(&v, 0, 7);
        }
        node.barrier();
        if node.id() == 1 {
            // Cached and not invalidated (we were the writer): no fetch.
            let _ = node.vec_get(&v, 0);
        }
        node.barrier();
    });
    let s1 = &run.stats[1];
    assert_eq!(s1.page_fetches, 1, "exactly one fault expected");
    assert_eq!(s1.diffs_sent, 1, "exactly one diff expected");
    let s0 = &run.stats[0];
    assert_eq!(s0.page_fetches, 0, "node 0 never touched the page");
}

#[test]
fn writer_keeps_its_copy_after_release() {
    // Scope consistency: the releaser's page stays valid (downgraded to
    // read-only), so re-reading it costs no new fetch.
    let run = DsmSystem::run(config(2), |node| {
        let v = node.alloc_vec::<i64>(64);
        node.barrier();
        if node.id() == 0 {
            node.lock(0);
            node.vec_set(&v, 3, 42);
            node.unlock(0);
            let fetches_before = node.stats().page_fetches;
            let x = node.vec_get(&v, 3);
            let fetches_after = node.stats().page_fetches;
            (x, fetches_after - fetches_before)
        } else {
            (0, 0)
        }
    });
    // Node 0 reads its own write without re-fetching.
    assert_eq!(run.results[0], (42, 0));
}

#[test]
fn eight_node_all_to_all_notices() {
    // Every node writes its own page; after the barrier every node reads
    // all pages. Tests notice fan-out at the paper's cluster size.
    const N: usize = 8;
    let run = DsmSystem::run(config(N), |node| {
        let v = node.alloc_vec::<i64>(N * 512); // one page per node
                                                // Cache everything (so invalidations have something to do).
        let _ = node.vec_read_range(&v, 0..N * 512);
        node.barrier();
        node.vec_set(&v, node.id() * 512, node.id() as i64 + 100);
        node.barrier();
        (0..N)
            .map(|k| node.vec_get(&v, k * 512))
            .collect::<Vec<i64>>()
    });
    for r in &run.results {
        let expect: Vec<i64> = (0..N as i64).map(|k| k + 100).collect();
        assert_eq!(r, &expect);
    }
}

#[test]
fn empty_allocation_is_harmless() {
    let run = DsmSystem::run(config(2), |node| {
        let v = node.alloc_vec::<i32>(0);
        node.barrier();
        node.flush_vec(&v);
        node.invalidate_vec(&v);
        node.vec_read_range(&v, 0..0).len()
    });
    assert_eq!(run.results, vec![0, 0]);
}

#[test]
fn sequential_lock_reuse_by_one_node() {
    let run = DsmSystem::run(config(1), |node| {
        for i in 0..100 {
            node.lock(5);
            node.unlock(5);
            let _ = i;
        }
        true
    });
    assert!(run.results[0]);
}

#[test]
#[should_panic(expected = "does not hold")]
fn unlock_without_lock_panics() {
    let _ = DsmSystem::run(config(1), |node| {
        node.unlock(9);
    });
}

#[test]
fn write_bytes_across_many_pages_then_read_back() {
    let run = DsmSystem::run(config(2).page_size(128), |node| {
        let base = node.alloc_bytes(10_000);
        node.barrier();
        let payload: Vec<u8> = (0..9_000).map(|i| (i % 251) as u8).collect();
        if node.id() == 0 {
            node.write_bytes(base.offset(500), &payload);
        }
        node.barrier();
        let mut buf = vec![0u8; 9_000];
        node.read_bytes(base.offset(500), &mut buf);
        buf == payload
    });
    assert_eq!(run.results, vec![true, true]);
}

const ITERS: u64 = 500;
const CHUNK: usize = 40;
const BARRIER_EVERY: u64 = 25;

/// Element `j` of the chunk `producer` sends in iteration `i`.
fn chunk_value(producer: usize, i: u64, j: usize) -> i64 {
    ((producer as i64) << 32) | ((i as i64) << 8) | j as i64
}

/// Waits on `cv`, which only `peer` signals: true when granted, false
/// once `peer` is known dead. A death first told by another manager
/// fails one wait, which is then made again.
fn wait_on(node: &mut Node, cv: u32, peer: usize) -> bool {
    loop {
        if node.known_dead().contains(&peer) {
            return false;
        }
        match node.try_waitcv(cv) {
            Ok(()) => return true,
            Err(DsmError::NodeFailed { .. }) => {}
            Err(e) => panic!("waitcv({cv}): {e}"),
        }
    }
}

/// One rank's view of the run: chunks consumed, their sum, and every
/// lock-protected counter at the end.
type Seen = (u64, i64, Vec<i64>);

/// Each rank feeds a chunk ring to its successor and bumps one counter
/// per iteration, for `ITERS` iterations with a barrier every
/// `BARRIER_EVERY`. Slot 0 of a ring link, with its cvs, is homed on the
/// producer and slot 1 on the consumer, and iteration `i` uses slot
/// `i mod 2`; counter `m` sits under lock `m` (managed by rank `m`) on a
/// page homed on rank `m + 1`. So about half of every rank's requests go
/// to its own daemon and half to a peer's, interleaved. A rank whose
/// plan crashes it fail-stops at the top of that iteration (`None`).
fn ring_and_counters(node: &mut Node) -> Option<Seen> {
    let p = node.nprocs();
    let me = node.id();
    let (next, prev) = ((me + 1) % p, (me + p - 1) % p);
    // Slot `b` of link `r -> r + 1` and its cvs live on `home(r, b)`.
    let home = |r: usize, b: usize| (r + b) % p;
    // Cv `c` is managed by rank `c mod p`: `tag * p + owner` is unique.
    let ready = |r: usize, b: usize| ((4 * r + b) * p + home(r, b)) as u32;
    let ack = |r: usize, b: usize| ((4 * r + 2 + b) * p + home(r, b)) as u32;
    let slots: Vec<[GlobalVec<i64>; 2]> = (0..p)
        .map(|r| [0, 1].map(|b| node.alloc_vec_on(CHUNK, home(r, b))))
        .collect();
    let counters: Vec<GlobalVec<i64>> = (0..p).map(|m| node.alloc_vec_on(1, (m + 1) % p)).collect();
    node.barrier();
    let (mut feeding, mut fed) = (true, true);
    let (mut consumed, mut sum) = (0, 0);
    for i in 0..ITERS {
        if node.crash_point() == Some(i) {
            node.fail_stop();
            return None;
        }
        let b = (i % 2) as usize;
        // The consumer acked this slot's previous chunk before it is reused.
        feeding = feeding && (i < 2 || wait_on(node, ack(me, b), next));
        if feeding {
            let chunk: Vec<i64> = (0..CHUNK).map(|j| chunk_value(me, i, j)).collect();
            node.vec_write_range(&slots[me][b], 0, &chunk);
            node.setcv(ready(me, b));
        }
        fed = fed && wait_on(node, ready(prev, b), prev);
        if fed {
            let chunk = node.vec_read_range(&slots[prev][b], 0..CHUNK);
            for (j, &v) in chunk.iter().enumerate() {
                assert_eq!(v, chunk_value(prev, i, j), "rank {me}, chunk {i}");
            }
            sum += chunk.iter().sum::<i64>();
            consumed += 1;
            node.setcv(ack(prev, b));
        }
        let m = (me + i as usize) % p;
        node.lock(m as u32);
        let v = node.vec_get(&counters[m], 0);
        node.vec_set(&counters[m], 0, v + 1);
        node.unlock(m as u32);
        if (i + 1) % BARRIER_EVERY == 0 {
            node.barrier();
        }
    }
    node.barrier();
    let counts = (0..p).map(|m| node.vec_get(&counters[m], 0)).collect();
    Some((consumed, sum, counts))
}

/// The sum of the first `n` chunks `producer` sends.
fn chunk_sum(producer: usize, n: u64) -> i64 {
    (0..n)
        .flat_map(|i| (0..CHUNK).map(move |j| chunk_value(producer, i, j)))
        .sum()
}

/// Counter `m`'s final value when rank `r` completes `done[r]` iterations.
fn expected_counts(done: &[u64]) -> Vec<i64> {
    let p = done.len();
    let mut counts = vec![0; p];
    for (r, &n) in done.iter().enumerate() {
        for i in 0..n {
            counts[(r + i as usize) % p] += 1;
        }
    }
    counts
}

/// The exactly-once links under inline stepping: no daemon or worker saw
/// a duplicate, a gap (a debug assertion) or a refused body.
fn assert_links_clean(stats: &[NodeStats]) {
    for (r, s) in stats.iter().enumerate() {
        assert_eq!(s.dups_dropped, 0, "rank {r} dropped duplicates");
        assert_eq!(s.malformed_dropped, 0, "rank {r} refused a body");
    }
}

#[test]
fn home_local_and_remote_traffic_interleave_in_order() {
    for p in 1..=4 {
        let run = DsmSystem::run(config(p), ring_and_counters);
        let counts = expected_counts(&vec![ITERS; p]);
        for (me, seen) in run.results.iter().enumerate() {
            let prev = (me + p - 1) % p;
            let expected = (ITERS, chunk_sum(prev, ITERS), counts.clone());
            assert_eq!(seen.as_ref(), Some(&expected), "P = {p}, rank {me}");
        }
        assert_links_clean(&run.stats);
    }
}

#[test]
fn interleaved_traffic_survives_a_crash_mid_run() {
    const P: usize = 4;
    const DEAD: usize = 1;
    const AT: u64 = ITERS / 2;
    // Obituaries alone must wake every wait on the dead rank.
    let supervision = SupervisionConfig {
        enabled: true,
        ..SupervisionConfig::default()
    };
    let plan = FaultPlan::parse(&format!("crash={DEAD}@{AT}")).expect("plan");
    let run = DsmSystem::run(
        config(P).supervise(supervision).faults(plan),
        ring_and_counters,
    );
    let mut done = vec![ITERS; P];
    done[DEAD] = AT;
    let counts = expected_counts(&done);
    for (me, seen) in run.results.iter().enumerate() {
        let prev = (me + P - 1) % P;
        match seen {
            None => assert_eq!(me, DEAD, "only rank {DEAD} crashes"),
            // The successor of the dead rank got some prefix of its chunks.
            Some((n, sum, c)) if prev == DEAD => {
                assert!(*n <= AT, "rank {me} consumed {n} chunks");
                assert_eq!((*sum, c), (chunk_sum(prev, *n), &counts), "rank {me}");
            }
            Some(seen) => {
                let expected = (ITERS, chunk_sum(prev, ITERS), counts.clone());
                assert_eq!(seen, &expected, "rank {me}");
            }
        }
    }
    assert_eq!(
        run.stats.iter().map(|s| s.obituaries).sum::<u64>(),
        P as u64
    );
    assert_links_clean(&run.stats);
}
