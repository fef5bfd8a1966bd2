//! The shipped DSM daemon under the model checker.
//!
//! [`DaemonSpec`] runs real [`Daemon`]s against scripted workers that
//! exchange real [`Msg`] and [`Reply`] values with them. Each `(worker,
//! daemon)` link is a FIFO queue and a checker process whose step hands
//! its head to [`Daemon::step`]; the outbox is routed into the workers'
//! reply queues; a control message from one daemon to another is stepped
//! at once, as no check depends on when it lands. Daemon 0 manages the
//! lock, the cv and the barrier; the page is homed on the last daemon.
//!
//! A critical section is the worker side of the lock protocol: acquire,
//! invalidate on a foreign notice, fetch unless cached, mark the unit's
//! byte, flush the diff and await its ack, release with the notice.
//! Checked: mutual exclusion; scope consistency (the page on entry holds
//! exactly the released units — after a crash possibly also the unit the
//! dead holder flushed unreleased: the home keeps flushed diffs, and a
//! re-run unit rewrites its byte); happens-before against the last
//! release; no lost or phantom cv wakeup; and, once the reaper has
//! fail-stopped worker 0, no grant to the dead or counting a notice no
//! live worker released, and every unit released exactly once.
//!
//! The rejoin campaign runs the barrier manager and rejoin admission:
//! two members share two roles over two workloads of `BUDGET` barrier
//! rounds, padded as `run_elastic` pads. The reaper may fail-stop worker
//! 0 in the first; worker 1 reads `BarrierDone.dead` and adopts past the
//! ledger cursor; worker 0 announces its return for the next boundary,
//! which the scheduler delivers early, on time or late, and re-enters
//! where its `RejoinAck` says. Checked: an ack leaves only beside the
//! grants of the boundary round it names; no round completes without a
//! live, admitted rank; the joiner catches up on complete ledgers; every
//! page read holds every earlier workload; the crashed rank is readmitted.
//!
//! A [`Perturbation`] breaks a run at the harness's delivery, outbox,
//! reaper or joiner — never inside the daemon — and must be caught
//! ([`SEEDED`]).

use genomedsm_dsm::daemon::{Daemon, Outbox, Outgoing};
use genomedsm_dsm::msg::{Envelope, Msg, Notice, Patch, Reply};
use genomedsm_dsm::DsmConfig;
use shuttle::check::Procs;
use shuttle::{Ctx, Process, Spec, VectorClock};
use std::collections::VecDeque;
use std::time::Duration;
use Perturbation::{AdmitOnDelivery, DropSignal, KeepCache, ReleaseUncommitted, StripNotices};
use Workload::{Lease, Locks, Rejoin, Signals};

/// The lock and the cv, both managed by daemon 0.
const LOCK: u32 = 0;
const CV: u32 = 0;
/// The shared page, one byte per unit, at the smallest size the DSM allows.
const PAGE: u64 = 0;
const PAGE_SIZE: usize = 64;
/// The worker the reaper fail-stops.
const VICTIM: usize = 0;
/// Barrier rounds per workload of the rejoin campaign: the workload's own
/// barrier, then a takeover sweep or an empty one.
const BUDGET: u64 = 2;
/// Workloads in the rejoin campaign, and the round it ends at.
const WORKLOADS: usize = 2;
const FINAL: u64 = WORKLOADS as u64 * BUDGET;

/// What the scripted workers run.
#[derive(Debug, Clone, Copy)]
pub enum Workload {
    /// `(clients, sections)`: each client runs `sections` critical sections.
    Locks(usize, usize),
    /// `(producers, consumers, signals_each)`: each producer `setcv`s
    /// `signals_each` times; the consumers share the `waitcv`s evenly.
    Signals(usize, usize, usize),
    /// `(victim_units, survivor_units)`: workers 0 and 1 run their units;
    /// the reaper fail-stops worker 0, and worker 2 adopts the units the
    /// ledger shows unreleased.
    Lease(usize, usize),
    /// `units` per role and workload: the rejoin campaign.
    Rejoin(usize),
}

/// A deliberate break, applied by the harness; the daemon runs unmodified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Perturbation {
    /// Every `LockGranted` reaches its worker without its notices.
    StripNotices,
    /// A `SetCv` that finds the manager's wait queue empty is dropped.
    DropSignal,
    /// The reaper sends the dying holder's uncommitted `Release` ahead of
    /// its obituary.
    ReleaseUncommitted,
    /// The joiner keeps its pre-crash page on `RejoinAck`.
    KeepCache,
    /// The link rewrites the joiner's `Rejoin` to `stride: 0` at the
    /// current round: the single-shot opt-out, used mid-campaign.
    AdmitOnDelivery,
}

/// Real daemons under a [`Workload`], perturbed or not.
#[derive(Debug, Clone, Copy)]
pub struct DaemonSpec(
    /// What the workers run.
    pub Workload,
    /// The break the harness applies, if any.
    pub Option<Perturbation>,
);

/// The seeded regressions: each perturbation's report row, the smallest
/// workload that exercises it, and the symptom the checker must report.
pub const SEEDED: [(&str, DaemonSpec, &str); 5] = [
    (
        "daemon/strip-notices",
        DaemonSpec(Locks(2, 2), Some(StripNotices)),
        "scope consistency",
    ),
    (
        "daemon/drop-signal",
        DaemonSpec(Signals(1, 1, 3), Some(DropSignal)),
        "deadlock",
    ),
    (
        "daemon/release-uncommitted",
        DaemonSpec(Lease(2, 1), Some(ReleaseUncommitted)),
        "granted unreleased state",
    ),
    (
        "daemon/keep-cache",
        DaemonSpec(Rejoin(2), Some(KeepCache)),
        "scope consistency",
    ),
    (
        "daemon/admit-on-delivery",
        DaemonSpec(Rejoin(2), Some(AdmitOnDelivery)),
        "outside a workload boundary",
    ),
];

/// Where unit `u` of `role` in workload `wl` lives: its byte on the page
/// and its slot in [`World::released`].
fn slot(units: usize, wl: usize, role: usize, u: usize) -> usize {
    (wl * 2 + role) * units + u
}

/// The daemons, the links, the workers' reply queues, and what the checks
/// track.
#[derive(Default)]
pub struct World {
    n: usize,
    home: usize,
    broken: Option<Perturbation>,
    daemons: Vec<Daemon>,
    /// Per daemon, the join of the clocks of all it was delivered.
    clocks: Vec<VectorClock>,
    /// Link `src * n + dst`, from worker `src` to daemon `dst`, and the
    /// count it delivered: the next request id, so a dropped message
    /// leaves no gap.
    links: Vec<(VecDeque<(Msg, VectorClock)>, u64)>,
    replies: Vec<VecDeque<(Reply, VectorClock)>>,
    /// The unit each worker's critical section writes, while inside.
    inside: Vec<Option<usize>>,
    /// Per unit, the releases live workers sent (one notice each).
    released: Vec<u32>,
    last_release: VectorClock,
    /// The unit the victim was inside when the reaper fired.
    interrupted: Option<usize>,
    crashed: bool,
    /// The lock manager processed the obituary.
    buried: bool,
    /// `setcv`s and `waitcv`s delivered and cv grants emitted; the wait
    /// queue is empty when `waits == wakes`.
    sets: u64,
    waits: u64,
    wakes: u64,
    /// The rejoin campaign's units per role and workload.
    campaign: Option<usize>,
    /// Barrier rounds daemon 0 completed, whether the joiner's `Rejoin`
    /// reached it, and whether it sent the joiner its `RejoinAck`.
    rounds: u64,
    announced: bool,
    admitted: bool,
    violations: Vec<String>,
}

impl World {
    fn send(&mut self, src: usize, dst: usize, msg: Msg, clock: &VectorClock) {
        let link = &mut self.links[src * self.n + dst].0;
        link.push_back((msg, clock.clone()));
    }

    /// Sends `msg` from worker `from` to the home, delivers it at once and
    /// returns its reply.
    fn call(&mut self, from: usize, msg: Msg, ctx: &mut Ctx) -> Option<Reply> {
        self.send(from, self.home, msg, ctx.clock());
        self.deliver(from * self.n + self.home, ctx);
        let (reply, clock) = self.replies[from].pop_back()?;
        ctx.acquire(&clock);
        Some(reply)
    }

    /// Worker `from`'s diff marking `unit`'s byte.
    fn diff(from: usize, unit: usize) -> Msg {
        let (page, epoch, offset, data) = (PAGE, 0, unit as u32, vec![1]);
        let patches = vec![Patch { offset, data }];
        Msg::Diff {
            page,
            from,
            patches,
            epoch,
        }
    }

    /// Worker `from`'s release, with its critical section's write notice.
    fn release_of(&self, from: usize) -> Msg {
        let (page, writer, home) = (PAGE, from, self.home);
        let notices = vec![Notice { page, writer, home }];
        Msg::Release {
            lock: LOCK,
            from,
            notices,
        }
    }

    /// The ledger cursor of worker 0's `units` in workload `wl`: those
    /// released so far, in order.
    fn cursor(&self, units: usize, wl: usize) -> usize {
        (0..units)
            .take_while(|&u| self.released[slot(units, wl, VICTIM, u)] > 0)
            .count()
    }

    /// Whether the reaper may still fire: in the rejoin campaign, only
    /// while worker 0 has units of the first workload left.
    fn exposed(&self) -> bool {
        let left = |units| self.cursor(units, 0) < units;
        !self.crashed && self.campaign.is_none_or(left)
    }

    /// Fail-stops the victim: its obituary joins its link to the lock
    /// manager behind everything it already sent.
    fn reap(&mut self, ctx: &Ctx) {
        (self.crashed, self.interrupted) = (true, self.inside[VICTIM].take());
        if self.interrupted.is_some() && self.broken == Some(ReleaseUncommitted) {
            let release = self.release_of(VICTIM);
            self.send(VICTIM, 0, release, ctx.clock());
        }
        let (node, incarnation) = (VICTIM, 0);
        self.send(VICTIM, 0, Msg::Obituary { node, incarnation }, ctx.clock());
    }

    /// Hands the head of `link` to its daemon.
    fn deliver(&mut self, link: usize, ctx: &mut Ctx) {
        let (src, dst) = (link / self.n, link % self.n);
        let Some((mut msg, clock)) = self.links[link].0.pop_front() else {
            return;
        };
        ctx.trace(format!("{src} -> daemon {dst}: {msg:?}"));
        match &mut msg {
            Msg::SetCv { .. } if self.broken == Some(DropSignal) && self.waits == self.wakes => {
                return ctx.trace("setcv dropped at an empty wait queue");
            }
            Msg::SetCv { .. } => self.sets += 1,
            Msg::WaitCv { .. } => self.waits += 1,
            Msg::Obituary { .. } => self.buried = true,
            Msg::Rejoin {
                admit_at_round,
                stride,
                ..
            } => {
                self.announced = true;
                if self.broken == Some(AdmitOnDelivery) {
                    (*admit_at_round, *stride) = (self.rounds, 0);
                }
            }
            _ => {}
        }
        let seq = self.links[link].1;
        self.links[link].1 += 1;
        let arrive = Duration::ZERO;
        let env = Envelope {
            msg,
            arrive,
            src,
            seq,
        };
        self.clocks[dst].join(&clock);
        self.step_daemon(dst, env);
    }

    /// Steps daemon `dst` on `env`, then every daemon its control messages
    /// reach, routing the replies into the workers' queues. A barrier
    /// round the step completes must grant every live rank: worker 0 may
    /// be missing only while it is dead and not admitted back.
    fn step_daemon(&mut self, dst: usize, env: Envelope) {
        let mut inbox = VecDeque::from([(dst, env)]);
        while let Some((d, env)) = inbox.pop_front() {
            let mut out = Outbox::new();
            self.daemons[d].step(env, &mut out);
            let clock = self.clocks[d].clone();
            let (away, mut granted) = (self.crashed && !self.admitted, Vec::new());
            for send in out {
                let (to, mut reply) = match send {
                    Outgoing::Daemon(to, env) => {
                        self.clocks[to].join(&clock);
                        inbox.push_back((to, env));
                        continue;
                    }
                    Outgoing::Reply(to, env) => (to, env.reply),
                };
                match &mut reply {
                    Reply::LockGranted { notices, .. } => {
                        let dead =
                            (self.buried && to == VICTIM).then_some("lock granted to the dead");
                        self.violations.extend(dead.map(String::from));
                        if self.broken == Some(StripNotices) {
                            notices.clear();
                        }
                    }
                    Reply::CvGranted { .. } => self.wakes += 1,
                    Reply::BarrierDone { .. } => granted.push(to),
                    Reply::RejoinAck { round, .. } => {
                        let (round, grants) = (*round, granted.len());
                        let beside = grants > 0 && round == self.rounds + 1;
                        if !(beside && round.is_multiple_of(BUDGET)) {
                            self.violations.push(format!(
                                "RejoinAck outside a workload boundary: round {round}, \
                                 {grants} barrier grants beside it"
                            ));
                        }
                        self.admitted = true;
                    }
                    _ => {}
                }
                self.replies[to].push_back((reply, clock.clone()));
            }
            if !granted.is_empty() {
                self.rounds += 1;
                let absent = |r: &usize| !(granted.contains(r) || away && *r == VICTIM);
                let (round, missing) = (self.rounds, (0..self.n).find(absent));
                let missing =
                    missing.map(|r| format!("round {round} completed without live rank {r}"));
                self.violations.extend(missing);
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Role {
    #[default]
    Locker,
    Victim,
    /// Fail-stops the victim at the step the scheduler picks.
    Reaper,
    /// Waits for the crash, then locks through the victim's unreleased units.
    Adopter,
    Producer,
    Consumer,
}

/// A scripted worker: the worker side of the protocol, one message per
/// step.
#[derive(Default)]
struct Worker {
    me: usize,
    role: Role,
    /// Units (lockers), or signals or waits, still to run.
    todo: VecDeque<usize>,
    /// A request is out; the next step consumes its reply.
    awaiting: bool,
    /// The cached page; `None` = invalid.
    cache: Option<Vec<u8>>,
    lock_seq: u64,
    cv_seq: u64,
}

impl Worker {
    fn boxed(me: usize, role: Role, todo: std::ops::Range<usize>) -> Box<dyn Process<World>> {
        let todo = todo.collect();
        Box::new(Self {
            me,
            role,
            todo,
            ..Self::default()
        })
    }

    /// Sends `msg` to daemon `to`, then awaits the reply if it has one.
    fn send(&mut self, w: &mut World, ctx: &Ctx, to: usize, msg: Msg) {
        self.awaiting = !matches!(msg, Msg::SetCv { .. } | Msg::Release { .. });
        w.send(self.me, to, msg, ctx.clock());
    }

    /// Starts the next operation with its request.
    fn start(&mut self, w: &mut World, ctx: &Ctx) {
        let (from, lock, cv) = (self.me, LOCK, CV);
        let msg = match self.role {
            Role::Adopter => {
                // A takeover resumes from the ledger cursor.
                let cursor = w.cursor(self.todo.len(), 0);
                self.todo.retain(|&u| u >= cursor);
                self.role = Role::Locker;
                return;
            }
            Role::Reaper => return w.reap(ctx),
            Role::Producer => {
                self.todo.pop_front();
                let notices = Vec::new();
                Msg::SetCv { cv, from, notices }
            }
            Role::Consumer => {
                let last_seq = self.cv_seq;
                Msg::WaitCv { cv, from, last_seq }
            }
            _ => {
                let last_seq = self.lock_seq;
                Msg::Acquire {
                    lock,
                    from,
                    last_seq,
                }
            }
        };
        self.send(w, ctx, 0, msg);
    }

    /// Consumes one reply.
    fn receive(&mut self, reply: Reply, w: &mut World, ctx: &Ctx) {
        let me = self.me;
        match reply {
            Reply::LockGranted { notices, seq } => {
                let live = u64::from(w.released.iter().sum::<u32>());
                let unreleased =
                    (seq > live).then(|| format!("granted unreleased state: {seq} > {live}"));
                let other = w.inside.iter().position(Option::is_some);
                let both = other.map(|o| format!("mutual exclusion violated: workers {o}, {me}"));
                let early = !ctx.clock().dominates(&w.last_release);
                let early = early.then(|| format!("happens-before violated: worker {me} early"));
                w.violations
                    .extend(unreleased.into_iter().chain(both).chain(early));
                self.lock_seq = seq;
                if notices.iter().any(|n| n.writer != me) {
                    self.cache = None;
                }
                w.inside[me] = self.todo.front().copied();
                match self.cache.take() {
                    Some(page) => self.write(page, w, ctx),
                    None => {
                        let (home, page, from, epoch) = (w.home, PAGE, me, 0);
                        self.send(w, ctx, home, Msg::GetPage { page, from, epoch });
                    }
                }
            }
            Reply::Page { data, .. } => self.write(data, w, ctx),
            Reply::DiffAck => self.release(w, ctx),
            Reply::CvGranted { seq, .. } => {
                (self.cv_seq, self.awaiting) = (seq, false);
                self.todo.pop_front();
            }
            other => w.violations.push(format!("worker {me} got {other:?}")),
        }
    }

    /// Inside the critical section with `page` in hand: check what it
    /// shows, mark this unit, flush the diff home.
    fn write(&mut self, mut page: Vec<u8>, w: &mut World, ctx: &Ctx) {
        let unit = self.todo[0];
        let wrong = (0..w.released.len()).find(|&k| {
            let seen = page[k] != 0;
            seen != (w.released[k] > 0) && !(seen && w.interrupted == Some(k))
        });
        let me = self.me;
        let stale = wrong.map(|k| format!("scope consistency violated: worker {me}, unit {k}"));
        w.violations.extend(stale);
        page[unit] = 1;
        self.cache = Some(page);
        let home = w.home;
        self.send(w, ctx, home, World::diff(me, unit));
    }

    /// Leaves the critical section: release with the write notice and,
    /// victim or adopter, commit the unit to the ledger.
    fn release(&mut self, w: &mut World, ctx: &Ctx) {
        let unit = self.todo[0];
        self.todo.pop_front();
        w.inside[self.me] = None;
        w.released[unit] += 1;
        w.last_release = ctx.clock().clone();
        let release = w.release_of(self.me);
        self.send(w, ctx, 0, release);
    }
}

impl Process<World> for Worker {
    fn ready(&self, w: &World) -> bool {
        match self.role {
            Role::Victim if w.crashed => false,
            Role::Adopter => w.crashed,
            Role::Reaper => w.exposed(),
            _ if self.awaiting => !w.replies[self.me].is_empty(),
            _ => !self.todo.is_empty(),
        }
    }

    fn done(&self, w: &World) -> bool {
        match self.role {
            // A dead victim's units are the adopter's; without a crash
            // there is nothing to adopt.
            Role::Victim if w.crashed => true,
            Role::Reaper => !w.exposed(),
            Role::Adopter => !w.crashed,
            _ => !self.awaiting && self.todo.is_empty(),
        }
    }

    fn step(&mut self, w: &mut World, ctx: &mut Ctx) {
        if !self.awaiting {
            self.start(w, ctx);
        } else if let Some((reply, clock)) = w.replies[self.me].pop_front() {
            ctx.acquire(&clock);
            self.receive(reply, w, ctx);
        }
        ctx.trace(format!(
            "{:?} {}: {:?} to do",
            self.role, self.me, self.todo
        ));
    }
}

/// A member of the rejoin campaign, running role `me`: per workload its
/// units, each one step against the home (fetch unless cached, check the
/// page, write the unit's byte, flush the diff, await the ack), then the
/// workload's barriers.
#[derive(Default)]
struct Member {
    me: usize,
    units: usize,
    /// Barrier rounds completed, as this member's grants and ack said.
    round: u64,
    /// Units (slots) to run before the next barrier.
    todo: VecDeque<usize>,
    /// A barrier or the announcement is out.
    awaiting: bool,
    /// A unit was written since the last barrier.
    wrote: bool,
    /// The cached page; `None` = invalid.
    cache: Option<Vec<u8>>,
    /// Worker 0 has announced its return.
    announced: bool,
}

impl Member {
    fn boxed(me: usize, units: usize) -> Box<dyn Process<World>> {
        let mut member = Self {
            me,
            units,
            ..Self::default()
        };
        member.queue(me, 0);
        Box::new(member)
    }

    /// Queues `role`'s units of the current workload from `first` on.
    fn queue(&mut self, role: usize, first: usize) {
        let (units, wl) = (self.units, (self.round / BUDGET) as usize);
        self.todo = (first..units).map(|u| slot(units, wl, role, u)).collect();
    }

    /// Worker 0 has been fail-stopped and not yet announced its return.
    fn fallen(&self, w: &World) -> bool {
        self.me == VICTIM && w.crashed && !self.announced
    }

    /// The delivery bound `run_elastic` assumes: the campaign's last
    /// barrier waits until the announcement has reached daemon 0.
    fn gated(&self, w: &World) -> bool {
        let last = self.todo.is_empty() && self.round + 1 == FINAL;
        last && w.crashed && !w.announced
    }

    /// Runs one unit; the home serves its requests in this step.
    fn run(&mut self, unit: usize, w: &mut World, ctx: &mut Ctx) {
        let (from, page, epoch) = (self.me, PAGE, 0);
        let page_in_hand = match self.cache.take() {
            Some(data) => Some(Reply::Page { page, data }),
            None => w.call(from, Msg::GetPage { page, from, epoch }, ctx),
        };
        let Some(Reply::Page { mut data, .. }) = page_in_hand else {
            return w.violations.push(format!("worker {from}: no page"));
        };
        // Every unit of an earlier workload was released before the
        // boundary that opened this one.
        let stale = (0..unit - unit % (2 * self.units)).find(|&k| data[k] == 0);
        let stale = stale.map(|k| format!("scope consistency violated: worker {from}, unit {k}"));
        w.violations.extend(stale);
        data[unit] = 1;
        self.cache = Some(data);
        match w.call(from, World::diff(from, unit), ctx) {
            Some(Reply::DiffAck) => (w.released[unit], self.wrote) = (w.released[unit] + 1, true),
            other => w.violations.push(format!("worker {from} got {other:?}")),
        }
    }

    /// Arrives at the barrier with the write notice, if it wrote.
    fn arrive(&mut self, w: &mut World, ctx: &Ctx) {
        let (page, writer, home) = (PAGE, self.me, w.home);
        let notice = std::mem::take(&mut self.wrote).then_some(Notice { page, writer, home });
        let (from, notices) = (self.me, notice.into_iter().collect());
        self.awaiting = true;
        w.send(from, 0, Msg::Barrier { from, notices }, ctx.clock());
    }

    /// Worker 0 after its fail-stop: announces its return for the next
    /// boundary, re-deferred by `BUDGET` if late; the ack requeues its work.
    fn announce(&mut self, w: &mut World, ctx: &Ctx) {
        (self.announced, self.awaiting) = (true, true);
        let (node, incarnation, stride) = (self.me, 1, BUDGET);
        let admit_at_round = (self.round / BUDGET + 1) * BUDGET;
        let rejoin = Msg::Rejoin {
            node,
            incarnation,
            admit_at_round,
            stride,
        };
        w.send(node, 0, rejoin, ctx.clock());
    }

    fn receive(&mut self, reply: Reply, w: &mut World) {
        let (me, units) = (self.me, self.units);
        self.awaiting = false;
        match reply {
            Reply::BarrierDone { notices, dead, .. } => {
                if notices.iter().any(|n| n.writer != me) {
                    self.cache = None;
                }
                self.round += 1;
                if self.round.is_multiple_of(BUDGET) {
                    self.queue(me, 0);
                } else if me != VICTIM && dead.contains(&VICTIM) {
                    // The takeover sweep resumes from the ledger cursor,
                    // read past the stale cache.
                    self.cache = None;
                    self.queue(VICTIM, w.cursor(units, (self.round / BUDGET) as usize));
                }
            }
            Reply::RejoinAck { round, .. } => {
                let caught_up = (round.div_ceil(BUDGET) as usize).min(WORKLOADS);
                let behind = (0..caught_up).find(|&wl| w.cursor(units, wl) < units);
                let behind = behind.map(|wl| format!("joiner caught up early on workload {wl}"));
                w.violations.extend(behind);
                // A fresh worker process holds no page and no notice.
                if w.broken != Some(KeepCache) {
                    self.cache = None;
                }
                (self.wrote, self.round) = (false, round.next_multiple_of(BUDGET));
                self.queue(me, 0);
            }
            other => w.violations.push(format!("worker {me} got {other:?}")),
        }
    }
}

impl Process<World> for Member {
    fn ready(&self, w: &World) -> bool {
        let idle = !self.awaiting && !self.gated(w);
        self.fallen(w) || idle || self.awaiting && !w.replies[self.me].is_empty()
    }

    fn done(&self, _w: &World) -> bool {
        self.round >= FINAL
    }

    /// One reply consumed and the next request sent, as a worker thread
    /// goes on from a grant.
    fn step(&mut self, w: &mut World, ctx: &mut Ctx) {
        if self.fallen(w) {
            self.announce(w, ctx);
        } else if let Some((reply, clock)) = w.replies[self.me].pop_front() {
            ctx.acquire(&clock);
            self.receive(reply, w);
        }
        if !(self.awaiting || self.round >= FINAL || self.gated(w)) {
            match self.todo.pop_front() {
                Some(unit) => self.run(unit, w, ctx),
                None => self.arrive(w, ctx),
            }
        }
        let (me, round, todo) = (self.me, self.round, &self.todo);
        ctx.trace(format!("member {me} round {round}: {todo:?} to do"));
    }
}

/// One link: its step delivers the oldest message on it. An empty link is
/// done until something is sent on it.
struct Link(usize);

impl Process<World> for Link {
    fn ready(&self, w: &World) -> bool {
        !w.links[self.0].0.is_empty()
    }

    fn done(&self, w: &World) -> bool {
        w.links[self.0].0.is_empty()
    }

    fn step(&mut self, w: &mut World, ctx: &mut Ctx) {
        w.deliver(self.0, ctx);
    }
}

impl Spec for DaemonSpec {
    type S = World;

    fn build(&self) -> (World, Procs<World>) {
        let mut procs = Vec::new();
        let (units, campaign) = match self.0 {
            Locks(clients, sections) => {
                for c in 0..clients {
                    let units = c * sections..(c + 1) * sections;
                    procs.push(Worker::boxed(c, Role::Locker, units));
                }
                (clients * sections, None)
            }
            Signals(producers, consumers, each) => {
                let waits = producers * each / consumers;
                for p in 0..producers {
                    procs.push(Worker::boxed(p, Role::Producer, 0..each));
                }
                for c in producers..producers + consumers {
                    procs.push(Worker::boxed(c, Role::Consumer, 0..waits));
                }
                (0, None)
            }
            Lease(victim, survivor) => {
                procs.push(Worker::boxed(VICTIM, Role::Victim, 0..victim));
                procs.push(Worker::boxed(1, Role::Locker, victim..victim + survivor));
                procs.push(Worker::boxed(2, Role::Adopter, 0..victim));
                (victim + survivor, None)
            }
            Rejoin(units) => {
                procs.push(Member::boxed(VICTIM, units));
                procs.push(Member::boxed(1, units));
                (WORKLOADS * 2 * units, Some(units))
            }
        };
        let n = procs.len();
        if matches!(self.0, Lease(..) | Rejoin(..)) {
            procs.push(Worker::boxed(n, Role::Reaper, 0..0));
        }
        procs.extend((0..n * n).map(|l| Box::new(Link(l)) as Box<dyn Process<World>>));
        let config = DsmConfig::new(n).page_size(PAGE_SIZE);
        let zero = VectorClock::new(procs.len());
        let world = World {
            n,
            home: n - 1,
            broken: self.1,
            daemons: (0..n).map(|d| Daemon::new(d, &config, false)).collect(),
            clocks: vec![zero.clone(); n],
            links: vec![(VecDeque::new(), 0); n * n],
            replies: vec![VecDeque::new(); n],
            inside: vec![None; n],
            released: vec![0; units],
            last_release: zero,
            campaign,
            ..World::default()
        };
        (world, procs)
    }

    fn invariant(&self, w: &World) -> Result<(), String> {
        let (sets, wakes) = (w.sets, w.wakes);
        let phantom =
            (wakes > sets).then(|| format!("phantom wakeup: {wakes} grants, {sets} signals"));
        let unit = w.released.iter().position(|&r| r > 1);
        let twice = unit.map(|u| format!("unit {u} released {} times", w.released[u]));
        let first = w.violations.first().cloned();
        first.or(phantom).or(twice).map_or(Ok(()), Err)
    }

    /// A lost wakeup needs no check here: it leaves its waiter blocked,
    /// which the checker reports as a deadlock.
    fn terminal(&self, w: &World) -> Result<(), String> {
        if let Some(u) = w.released.iter().position(|&r| r != 1) {
            let times = w.released[u];
            return Err(format!("exactly-once violated: unit {u} released {times}"));
        }
        let (campaign, round) = (w.campaign.is_some(), w.rounds);
        if campaign && round != FINAL {
            return Err(format!("campaign ended at round {round} of {FINAL}"));
        }
        let lost = campaign && w.crashed && !w.admitted;
        lost.then(|| "crashed rank was never readmitted".into())
            .map_or(Ok(()), Err)
    }
}
