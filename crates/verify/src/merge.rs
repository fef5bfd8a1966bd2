//! The shipped batch-scheduler merge under the model checker.
//!
//! [`MergeSpec`] deals jobs round-robin into per-worker deques, as
//! `run_jobs` does. A worker grabs through the real `pop_or_steal`, and
//! may run the job only while the real `in_window` gate admits it against
//! the merge count last published to the workers; running it sends the
//! result down a FIFO channel. The merger receives one result per step,
//! feeds it to a real `MergeCursor`, and publishes the cursor when it
//! moved.
//!
//! Checked after every step: no job runs twice; at most `window` results
//! are completed but unmerged; the merge callback sees indices strictly in
//! order. Deadlock detection and the terminal check (every job merged)
//! check the liveness argument in the scheduler's module doc: the window
//! gate never wedges.
//!
//! A [`Perturbation`] breaks the harness, never the scheduler, and must
//! be caught ([`SEEDED`]).

use genomedsm_batch::scheduler::{in_window, pop_or_steal, MergeCursor};
use shuttle::check::Procs;
use shuttle::{Ctx, Process, Spec};
use std::collections::VecDeque;
use std::sync::Mutex;
use Proc::{Exited, Gated, Grab, Merger};

/// A deliberate break, applied by the harness; the scheduler runs
/// unmodified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Perturbation {
    /// Each advanced cursor reaches the workers one merge late, so a
    /// worker gated on the last merge is never let through.
    LatePublish,
}

/// `jobs` jobs on `workers` workers under a window of `window`.
#[derive(Debug, Clone, Copy)]
pub struct MergeSpec {
    /// Jobs to run and merge.
    pub jobs: usize,
    /// Workers, one deque each.
    pub workers: usize,
    /// The backpressure window.
    pub window: usize,
    /// The harness break, if any.
    pub broken: Option<Perturbation>,
}

/// The seeded regression: its report row, the workload that exercises
/// it, and the symptom the checker must report.
pub const SEEDED: (&str, MergeSpec, &str) = (
    "merge/late-publish",
    MergeSpec {
        jobs: 4,
        workers: 2,
        window: 1,
        broken: Some(Perturbation::LatePublish),
    },
    "deadlock",
);

/// The deques, the channel, the cursor, and what the checks track.
pub struct World {
    spec: MergeSpec,
    deques: Vec<Mutex<VecDeque<(usize, ())>>>,
    /// Results sent to the merger, oldest first.
    channel: VecDeque<(usize, usize)>,
    cursor: MergeCursor<usize>,
    /// The merge count the workers gate on, and under
    /// [`Perturbation::LatePublish`] the one held back for the next merge.
    published: usize,
    held: usize,
    ran: Vec<bool>,
    /// Jobs run, and results the merge callback saw.
    completed: usize,
    merged: usize,
    violations: Vec<String>,
}

/// One checker process: a worker grabbing, gated on job `.1`, or
/// exited; or the merger.
#[derive(Debug, Clone, Copy)]
enum Proc {
    Grab(usize),
    Gated(usize, usize),
    Exited,
    Merger,
}

impl Process<World> for Proc {
    fn ready(&self, w: &World) -> bool {
        match *self {
            Grab(_) => true,
            Gated(_, idx) => in_window(idx, w.published, w.spec.window),
            Exited => false,
            Merger => !w.channel.is_empty(),
        }
    }

    fn done(&self, w: &World) -> bool {
        match *self {
            Exited => true,
            Merger => w.cursor.merged() == w.spec.jobs,
            _ => false,
        }
    }

    fn step(&mut self, w: &mut World, ctx: &mut Ctx) {
        match *self {
            Grab(me) => {
                *self = match pop_or_steal(&w.deques, me) {
                    Some((idx, ())) => Gated(me, idx),
                    None => Exited,
                };
                ctx.trace(format!("worker {me}: {self:?}"));
            }
            Gated(me, idx) => {
                if std::mem::replace(&mut w.ran[idx], true) {
                    w.violations.push(format!("job {idx} runs twice"));
                }
                w.completed += 1;
                w.channel.push_back((idx, idx));
                ctx.trace(format!("worker {me} runs job {idx}"));
                *self = Grab(me);
            }
            Exited => {}
            Merger => {
                let Some((idx, result)) = w.channel.pop_front() else {
                    return;
                };
                ctx.trace(format!("merger receives job {idx}"));
                let (merged, violations) = (&mut w.merged, &mut w.violations);
                let moved = w.cursor.accept(idx, result, |at, result| {
                    if at != *merged || result != at {
                        violations.push(format!("merged job {result} at {at}, {merged} was due"));
                    }
                    *merged += 1;
                });
                if !moved {
                    return;
                }
                w.published = w.cursor.merged();
                if w.spec.broken == Some(Perturbation::LatePublish) {
                    w.published = std::mem::replace(&mut w.held, w.published);
                }
            }
        }
    }
}

impl Spec for MergeSpec {
    type S = World;

    fn build(&self) -> (World, Procs<World>) {
        let (jobs, workers) = (self.jobs, self.workers);
        let deal = |me| (me..jobs).step_by(workers).map(|idx| (idx, ())).collect();
        let world = World {
            spec: *self,
            deques: (0..workers).map(|me| Mutex::new(deal(me))).collect(),
            channel: VecDeque::new(),
            cursor: MergeCursor::default(),
            published: 0,
            held: 0,
            ran: vec![false; self.jobs],
            completed: 0,
            merged: 0,
            violations: Vec::new(),
        };
        let procs = (0..workers)
            .map(Grab)
            .chain([Merger])
            .map(|p| Box::new(p) as Box<dyn Process<World>>)
            .collect();
        (world, procs)
    }

    fn invariant(&self, w: &World) -> Result<(), String> {
        if let Some(v) = w.violations.first() {
            return Err(v.clone());
        }
        let unmerged = w.completed - w.merged;
        if unmerged > self.window {
            return Err(format!(
                "window overrun: {unmerged} results unmerged with window {}",
                self.window
            ));
        }
        Ok(())
    }

    fn terminal(&self, w: &World) -> Result<(), String> {
        // With no job run twice, all merged means nothing is left behind.
        if w.merged != self.jobs {
            return Err(format!("only {} of {} jobs merged", w.merged, self.jobs));
        }
        Ok(())
    }
}
