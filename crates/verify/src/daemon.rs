//! The shipped DSM daemon under the model checker.
//!
//! [`DaemonSpec`] runs real [`Daemon`]s against scripted workers that
//! exchange real [`Msg`] and [`Reply`] values with them. Each `(sender,
//! daemon)` link is a FIFO queue and a checker process whose step hands
//! its head to [`Daemon::step`]; the outbox is routed onto the links and
//! into the workers' reply queues. Daemon 0 manages the lock and the cv,
//! the page is homed on the last daemon, and a critical section is the
//! worker side of the protocol: acquire, invalidate on a foreign notice,
//! fetch unless cached, mark the unit's byte, flush the diff and await its
//! ack, release with the notice. Checked: mutual exclusion; scope
//! consistency (the page seen on entry holds exactly the released units —
//! after a crash also, possibly, the unit the dead holder flushed but
//! never released, since the home keeps flushed diffs and a re-run unit
//! rewrites the same byte); happens-before against the last release; no
//! lost or phantom cv wakeup; and, once the reaper has fail-stopped worker
//! 0 at a scheduler-chosen point, no grant to the dead, no grant counting
//! a notice no live worker released, and every unit released exactly once
//! — by the victim, or by the adopter resuming from the ledger cursor.
//!
//! A [`Perturbation`] breaks a run at the harness's delivery, outbox or
//! reaper — never inside the daemon — and must be caught ([`SEEDED`]).

use genomedsm_dsm::daemon::{Daemon, Outbox, Outgoing};
use genomedsm_dsm::msg::{Envelope, Msg, Notice, Patch, Reply};
use genomedsm_dsm::DsmConfig;
use shuttle::check::Procs;
use shuttle::{Ctx, Process, Spec, VectorClock};
use std::collections::VecDeque;
use std::time::Duration;
use Perturbation::{DropSignal, ReleaseUncommitted, StripNotices};
use Workload::{Lease, Locks, Signals};

/// The lock and the cv, both managed by daemon 0.
const LOCK: u32 = 0;
const CV: u32 = 0;
/// The shared page, one byte per unit, at the smallest size the DSM allows.
const PAGE: u64 = 0;
const PAGE_SIZE: usize = 64;
/// The worker the reaper fail-stops.
const VICTIM: usize = 0;

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
pub const SEEDED: [(&str, DaemonSpec, &str); 3] = [
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
];

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
    /// Link `src * n + dst`, from endpoint `src` (worker `w`, daemon `d` as
    /// `n + d`) to daemon `dst`, and the count it delivered: the next
    /// request id, so a dropped message leaves no gap.
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
    /// Ledger cursor: the victim's units released, in order.
    ledger: usize,
    /// `setcv`s and `waitcv`s delivered and cv grants emitted; the wait
    /// queue is empty when `waits == wakes`.
    sets: u64,
    waits: u64,
    wakes: u64,
    violations: Vec<String>,
}

impl World {
    fn send(&mut self, src: usize, dst: usize, msg: Msg, clock: &VectorClock) {
        let link = &mut self.links[src * self.n + dst].0;
        link.push_back((msg, clock.clone()));
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

    /// Hands the head of `link` to its daemon and routes what it sends.
    fn deliver(&mut self, link: usize, ctx: &mut Ctx) {
        let (n, src, dst) = (self.n, link / self.n, link % self.n);
        let Some((msg, clock)) = self.links[link].0.pop_front() else {
            return;
        };
        ctx.trace(format!("{src} -> daemon {dst}: {msg:?}"));
        match msg {
            Msg::SetCv { .. } if self.broken == Some(DropSignal) && self.waits == self.wakes => {
                return ctx.trace("setcv dropped at an empty wait queue");
            }
            Msg::SetCv { .. } => self.sets += 1,
            Msg::WaitCv { .. } => self.waits += 1,
            Msg::Obituary { .. } => self.buried = true,
            _ => {}
        }
        self.clocks[dst].join(&clock);
        let seq = self.links[link].1;
        self.links[link].1 += 1;
        let (arrive, mut out) = (Duration::ZERO, Outbox::new());
        let env = Envelope {
            msg,
            arrive,
            src,
            seq,
        };
        self.daemons[dst].step(env, &mut out);
        for send in out {
            let clock = self.clocks[dst].clone();
            match send {
                Outgoing::Daemon(to, env) => {
                    self.links[(n + dst) * n + to].0.push_back((env.msg, clock))
                }
                Outgoing::Reply(to, mut env) => {
                    if let Reply::LockGranted { notices, .. } = &mut env.reply {
                        let dead =
                            (self.buried && to == VICTIM).then_some("lock granted to the dead");
                        self.violations.extend(dead.map(String::from));
                        if self.broken == Some(StripNotices) {
                            notices.clear();
                        }
                    }
                    self.wakes += u64::from(matches!(env.reply, Reply::CvGranted { .. }));
                    self.replies[to].push_back((env.reply, clock));
                }
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
    /// Waits for the crash, then takes over the victim's unreleased units.
    Adopter,
    /// The adopter once it has read the ledger.
    Adopted,
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
                self.todo.retain(|&u| u >= w.ledger);
                self.role = Role::Adopted;
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
        let (offset, data) = (unit as u32, vec![1]);
        let patches = vec![Patch { offset, data }];
        let (home, page, from, epoch) = (w.home, PAGE, self.me, 0);
        let diff = Msg::Diff {
            page,
            from,
            patches,
            epoch,
        };
        self.send(w, ctx, home, diff);
    }

    /// Leaves the critical section: release with the write notice and,
    /// victim or adopter, commit the unit to the ledger.
    fn release(&mut self, w: &mut World, ctx: &Ctx) {
        let unit = self.todo[0];
        self.todo.pop_front();
        w.inside[self.me] = None;
        w.released[unit] += 1;
        if matches!(self.role, Role::Victim | Role::Adopted) {
            w.ledger = unit + 1;
        }
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
            Role::Reaper => !w.crashed,
            _ if self.awaiting => !w.replies[self.me].is_empty(),
            _ => !self.todo.is_empty(),
        }
    }

    fn done(&self, w: &World) -> bool {
        match self.role {
            // A dead victim's units are the adopter's; without a crash
            // there is nothing to adopt.
            Role::Victim if w.crashed => true,
            Role::Reaper => w.crashed,
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
        let units = match self.0 {
            Locks(clients, sections) => {
                for c in 0..clients {
                    let units = c * sections..(c + 1) * sections;
                    procs.push(Worker::boxed(c, Role::Locker, units));
                }
                clients * sections
            }
            Signals(producers, consumers, each) => {
                let waits = producers * each / consumers;
                for p in 0..producers {
                    procs.push(Worker::boxed(p, Role::Producer, 0..each));
                }
                for c in producers..producers + consumers {
                    procs.push(Worker::boxed(c, Role::Consumer, 0..waits));
                }
                0
            }
            Lease(victim, survivor) => {
                procs.push(Worker::boxed(VICTIM, Role::Victim, 0..victim));
                procs.push(Worker::boxed(1, Role::Locker, victim..victim + survivor));
                procs.push(Worker::boxed(2, Role::Adopter, 0..victim));
                victim + survivor
            }
        };
        let n = procs.len();
        if matches!(self.0, Lease(..)) {
            procs.push(Worker::boxed(n, Role::Reaper, 0..0));
        }
        procs.extend((0..2 * n * n).map(|l| Box::new(Link(l)) as Box<dyn Process<World>>));
        let config = DsmConfig::new(n).page_size(PAGE_SIZE);
        let zero = VectorClock::new(procs.len());
        let world = World {
            n,
            home: n - 1,
            broken: self.1,
            daemons: (0..n).map(|d| Daemon::new(d, &config, false)).collect(),
            clocks: vec![zero.clone(); n],
            links: vec![(VecDeque::new(), 0); 2 * n * n],
            replies: vec![VecDeque::new(); n],
            inside: vec![None; n],
            released: vec![0; units],
            last_release: zero,
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
        match w.released.iter().position(|&r| r != 1) {
            Some(u) => Err(format!(
                "exactly-once violated: unit {u} released {}",
                w.released[u]
            )),
            None => Ok(()),
        }
    }
}
