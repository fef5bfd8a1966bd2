//! The batch scheduler: work stealing with a deterministic, bounded merge.
//!
//! [`run_jobs`] executes a fixed list of jobs on a small thread pool and
//! delivers results to a single merge callback **strictly in job-index
//! order**, regardless of which worker ran what when. Three mechanisms
//! combine:
//!
//! * **FIFO work stealing.** Jobs are dealt round-robin into per-worker
//!   deques; a worker pops its own *front*, and an idle worker steals the
//!   globally lowest-indexed front. Every deque therefore stays in
//!   ascending index order, and the oldest outstanding job is always at
//!   some deque's front — reachable by its owner and by every thief.
//! * **Windowed backpressure.** A worker may only *start* job `i` once
//!   `i < merged + window`, where `merged` is the count of results already
//!   handed to the merge callback. At most `window` results can ever be
//!   in flight or buffered, bounding memory no matter how lopsided job
//!   costs are. (A permit-counting design deadlocks here: a permit pinned
//!   under an out-of-order buffered result starves the job the merger
//!   actually waits for. Windowing cannot: the job the merger waits for
//!   has index `merged`, which is *always* inside the window.)
//! * **In-order merge.** Workers send `(index, result)` over a channel;
//!   the caller's thread feeds a [`MergeCursor`], which buffers
//!   out-of-order arrivals and fires the callback at the exact cursor,
//!   then publishes the new `merged` count to wake window-blocked workers.
//!
//! The decisions name no lock: [`pop_or_steal`] over the deques, the
//! [`in_window`] gate and the [`MergeCursor`] are what `genomedsm-verify`
//! steps under every interleaving of workers and the merger; `run_jobs`
//! only adds the threads, the channel and the condvar. A panic in a job
//! or in the merge callback abandons the run, so `run_jobs` panics
//! rather than leaving window-blocked workers waiting.
//!
//! Liveness argument: let `e` be the lowest unmerged index. `e` is inside
//! the window by construction. If `e` is running, its worker finishes and
//! sends. Otherwise `e` is the minimum of the remaining jobs; deques are
//! ascending, so `e` sits at a front. Its owner pops fronts in order, so
//! the owner is either computing (finishes, then reaches `e`) or blocked
//! on the window holding a job `y` popped *before* `e` from its own front
//! — impossible, since `y < e` would make `y` the lower unmerged index.
//! A thief blocked on the window holds the lowest front it could see, and
//! after `e`'s predecessors merge, `e = merged` unblocks whoever holds it.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{mpsc, Condvar, Mutex, PoisonError};

/// How work is spread and how far execution may run ahead of the merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedulerConfig {
    /// Worker threads. `0` means one per available CPU.
    pub workers: usize,
    /// Bounded in-flight batches: jobs whose index is at least this far
    /// past the merge cursor are not started. `0` means `2 × workers`.
    pub window: usize,
}

impl SchedulerConfig {
    /// Resolves the `0` placeholders against the host.
    pub fn resolved(&self, jobs: usize) -> (usize, usize) {
        let workers = if self.workers == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.workers
        };
        let workers = workers.min(jobs.max(1));
        let window = if self.window == 0 {
            2 * workers
        } else {
            self.window
        };
        (workers, window.max(1))
    }
}

/// The window gate: a worker may start job `idx` only while it is fewer
/// than `window` jobs past `merged`, the merge count last published to it.
pub fn in_window(idx: usize, merged: usize, window: usize) -> bool {
    idx < merged + window
}

/// The in-order merge cursor, with no lock in it: buffers out-of-order
/// results and releases the run at the cursor. [`run_jobs`] keeps one on
/// the merging thread and publishes [`merged`](Self::merged) to the
/// workers' [`in_window`] gate; the `genomedsm-verify` checker steps one
/// directly.
pub struct MergeCursor<R> {
    merged: usize,
    pending: BTreeMap<usize, R>,
}

impl<R> Default for MergeCursor<R> {
    fn default() -> Self {
        Self {
            merged: 0,
            pending: BTreeMap::new(),
        }
    }
}

impl<R> MergeCursor<R> {
    /// Results handed to the merge callback so far.
    pub fn merged(&self) -> usize {
        self.merged
    }

    /// Buffers `result` of job `idx`, then hands `merge` every buffered
    /// result at the cursor, advancing past each. Returns whether the
    /// cursor moved.
    pub fn accept(&mut self, idx: usize, result: R, mut merge: impl FnMut(usize, R)) -> bool {
        self.pending.insert(idx, result);
        let start = self.merged;
        while let Some(result) = self.pending.remove(&self.merged) {
            merge(self.merged, result);
            self.merged += 1;
        }
        self.merged != start
    }
}

/// Pops the worker's own front, else steals the lowest-indexed front.
pub fn pop_or_steal<J>(deques: &[Mutex<VecDeque<(usize, J)>>], me: usize) -> Option<(usize, J)> {
    if let Some(job) = deques[me]
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .pop_front()
    {
        return Some(job);
    }
    loop {
        // Scan for the victim whose front carries the lowest index: that
        // is the job the merge is (or will soonest be) waiting on.
        let mut best: Option<(usize, usize)> = None;
        for (v, d) in deques.iter().enumerate() {
            if v == me {
                continue;
            }
            if let Some(&(idx, _)) = d.lock().unwrap_or_else(PoisonError::into_inner).front() {
                if best.is_none_or(|(_, b)| idx < b) {
                    best = Some((v, idx));
                }
            }
        }
        let (victim, want) = best?;
        let mut d = deques[victim]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        // The front may have been taken between scan and steal; re-check
        // and re-scan on a mismatch rather than stealing blind.
        match d.front() {
            Some(&(idx, _)) if idx == want => return d.pop_front(),
            _ => continue,
        }
    }
}

/// What the merger publishes to window-blocked workers.
#[derive(Default)]
struct Front {
    /// `(merged, abandoned)`: the merge count, and whether a thread of
    /// the run panicked.
    seen: Mutex<(usize, bool)>,
    advanced: Condvar,
}

/// Abandons the run when its thread unwinds, so window-blocked workers
/// exit instead of waiting for a cursor that will not move: their
/// senders drop, the merger's `recv` fails, and `run_jobs` panics rather
/// than hangs. One per thread; nothing per job.
struct AbandonOnUnwind<'a>(&'a Front);

impl Drop for AbandonOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.seen.lock().unwrap_or_else(PoisonError::into_inner).1 = true;
            self.0.advanced.notify_all();
        }
    }
}

/// Runs `jobs` across worker threads, delivering `merge(index, result)`
/// strictly in ascending index order on the calling thread.
///
/// `exec` must be pure with respect to ordering: the *values* it returns
/// may not depend on scheduling (it receives only its own job), which is
/// what makes the merged output deterministic for any worker count.
pub fn run_jobs<J, R, E, M>(jobs: Vec<J>, config: &SchedulerConfig, exec: E, mut merge: M)
where
    J: Send,
    R: Send,
    E: Fn(usize, J) -> R + Sync,
    M: FnMut(usize, R),
{
    let total = jobs.len();
    if total == 0 {
        return;
    }
    let (workers, window) = config.resolved(total);
    if workers == 1 {
        // Inline fast path: no threads, trivially ordered.
        for (idx, job) in jobs.into_iter().enumerate() {
            let r = exec(idx, job);
            merge(idx, r);
        }
        return;
    }
    let mut deques: Vec<Mutex<VecDeque<(usize, J)>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for (idx, job) in jobs.into_iter().enumerate() {
        deques[idx % workers]
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .push_back((idx, job));
    }
    let front = Front::default();
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        let _abandon = AbandonOnUnwind(&front);
        for me in 0..workers {
            let tx = tx.clone();
            let deques = &deques;
            let front = &front;
            let exec = &exec;
            scope.spawn(move || {
                let _abandon = AbandonOnUnwind(front);
                while let Some((idx, job)) = pop_or_steal(deques, me) {
                    {
                        let mut seen = front.seen.lock().unwrap_or_else(PoisonError::into_inner);
                        while !seen.1 && !in_window(idx, seen.0, window) {
                            seen = front
                                .advanced
                                .wait(seen)
                                .unwrap_or_else(PoisonError::into_inner);
                        }
                        if seen.1 {
                            return;
                        }
                    }
                    let result = exec(idx, job);
                    if tx.send((idx, result)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        let mut cursor = MergeCursor::default();
        while cursor.merged() < total {
            let (idx, result) = match rx.recv() {
                Ok(pair) => pair,
                // Workers only drop their senders after draining the
                // deques, or once the run is abandoned, so a closed
                // channel with jobs outstanding means a thread panicked.
                Err(_) => panic!("a worker exited before its jobs completed"),
            };
            if cursor.accept(idx, result, &mut merge) {
                front.seen.lock().unwrap_or_else(PoisonError::into_inner).0 = cursor.merged();
                front.advanced.notify_all();
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn cfg(workers: usize, window: usize) -> SchedulerConfig {
        SchedulerConfig { workers, window }
    }

    #[test]
    fn merges_in_order_for_every_worker_count() {
        for workers in [1, 2, 3, 8, 16] {
            for window in [1, 2, 7, 0] {
                let jobs: Vec<usize> = (0..100).collect();
                let mut seen = Vec::new();
                run_jobs(
                    jobs,
                    &cfg(workers, window),
                    |idx, j| {
                        assert_eq!(idx, j);
                        j * 3
                    },
                    |idx, r| {
                        assert_eq!(r, idx * 3);
                        seen.push(idx);
                    },
                );
                assert_eq!(
                    seen,
                    (0..100).collect::<Vec<_>>(),
                    "w={workers} win={window}"
                );
            }
        }
    }

    #[test]
    fn window_bounds_in_flight_jobs() {
        // With window w, no job may start before job (its index - w) has
        // merged; track the high-water mark of started-but-unmerged work.
        let window = 3;
        let started = AtomicUsize::new(0);
        let merged = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        run_jobs(
            (0..200).collect(),
            &cfg(4, window),
            |_, j: usize| {
                let inflight =
                    started.fetch_add(1, Ordering::SeqCst) + 1 - merged.load(Ordering::SeqCst);
                peak.fetch_max(inflight, Ordering::SeqCst);
                std::thread::yield_now();
                j
            },
            |_, _| {
                merged.fetch_add(1, Ordering::SeqCst);
            },
        );
        // `merged` may lag the real cursor (relaxed ordering of reads), so
        // allow a small slack over the strict bound of `window`.
        assert!(
            peak.load(Ordering::SeqCst) <= window + 4,
            "peak {} >> window {}",
            peak.load(Ordering::SeqCst),
            window
        );
    }

    #[test]
    fn uneven_job_costs_still_merge_in_order() {
        // Early jobs are the slow ones: stealing must keep everyone busy
        // while the window keeps the merge from racing ahead.
        let mut out = Vec::new();
        run_jobs(
            (0..40).collect(),
            &cfg(8, 2),
            |_, j: usize| {
                if j.is_multiple_of(7) {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                j
            },
            |idx, r| {
                assert_eq!(idx, r);
                out.push(r);
            },
        );
        assert_eq!(out.len(), 40);
    }

    #[test]
    fn a_panicking_job_panics_the_run_for_a_window_narrower_than_the_jobs_left() {
        // Job 0 panics while the other worker is blocked on the window;
        // run_jobs must panic, not wait forever on the merge.
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let run = std::panic::catch_unwind(|| {
                run_jobs(
                    (0..64).collect(),
                    &cfg(2, 2),
                    |_, j: usize| {
                        if j == 0 {
                            std::thread::sleep(std::time::Duration::from_millis(50));
                            panic!("job 0 fails");
                        }
                        j
                    },
                    |_, _| {},
                );
            });
            done.send(run.is_err()).ok();
        });
        let panicked = finished.recv_timeout(std::time::Duration::from_secs(20));
        assert_eq!(panicked, Ok(true), "run_jobs hung or returned normally");
    }

    #[test]
    fn zero_jobs_is_a_no_op() {
        run_jobs(
            Vec::<u8>::new(),
            &cfg(4, 1),
            |_, _| 0,
            |_, _: i32| panic!("no merge expected"),
        );
    }

    #[test]
    fn single_job_many_workers() {
        let mut hits = 0;
        run_jobs(
            vec![41],
            &cfg(8, 0),
            |_, j| j + 1,
            |_, r| {
                assert_eq!(r, 42);
                hits += 1;
            },
        );
        assert_eq!(hits, 1);
    }
}
