//! The shipped DSM worker and daemon under the model checker.
//!
//! [`DaemonSpec`] runs real [`Client`]s against real [`Daemon`]s. Each
//! scripted process makes a worker's API calls on its client, puts the
//! requests it queues on its `(worker, daemon)` links — FIFO queues whose
//! checker process hands the head to [`Daemon::step`] — and feeds the
//! routed replies back through [`Client::reply`]. A control message from
//! one daemon to another is stepped at once: no check depends on when it
//! lands. Daemon 0 manages the lock, the cv and the barrier; the page, a
//! byte per unit, is homed on the last daemon.
//!
//! A locker's unit is `lock`, a read of the page, a write of the unit's
//! byte and `unlock`. Checked on the bytes the client returns: mutual
//! exclusion; scope consistency (the page on entry holds exactly the
//! released units — after a crash possibly also the unit the dead holder
//! flushed unreleased, which a re-run rewrites); happens-before against
//! the last release; no lost or phantom cv wakeup; and, once the reaper
//! has fail-stopped worker 0, no grant to the dead or counting a notice
//! no live worker released, and every unit released exactly once.
//!
//! The rejoin campaign runs the barrier manager and rejoin admission:
//! two members share two roles over two workloads of `BUDGET` barrier
//! rounds, padded as `run_elastic` pads. A member's unit — read, check,
//! write, `flush_vec` — is one step, the home serving it at once. The
//! reaper may fail-stop worker 0 in the first workload; worker 1 reads
//! `barrier`'s dead set and adopts past the ledger cursor; worker 0
//! `rejoin`s for the next boundary, delivered early, on time or late.
//! Checked: an ack leaves only beside the grants of the round it names;
//! no round completes without a live, admitted rank; the joiner catches
//! up on complete ledgers; every page read holds every earlier workload;
//! the crashed rank is readmitted.
//!
//! The wake campaign runs the same boundaries with a cv in place of the
//! units, managed by daemon 1 so that a death reaches the waiter through
//! the cv manager and through a barrier grant independently. In each
//! workload worker 0 signals and worker 1 waits as often: the first
//! workload's calls come before its two barrier rounds, the second's
//! between an opening barrier (`run_elastic`'s membership refresh) and a
//! closing one. The reaper may fail-stop worker 0 between any two of its
//! calls in the first workload; worker 1 stops waiting (adopts) on a
//! `NodeFailed` or when the opening barrier names worker 0 dead; worker
//! 0 `rejoin`s for the boundary. There is no host-time timer: a waiter
//! nothing wakes is a deadlock.
//!
//! A [`Perturbation`] breaks a run at the harness's delivery, outbox,
//! reaper or link — never inside the client or the daemon — and must be
//! caught ([`SEEDED`]).

use genomedsm_dsm::client::Client;
use genomedsm_dsm::daemon::{Daemon, Outbox, Outgoing};
use genomedsm_dsm::msg::{Envelope, Msg, Notice, Reply};
use genomedsm_dsm::{DsmConfig, GlobalVec};
use shuttle::check::Procs;
use shuttle::{Ctx, Process, Spec, VectorClock};
use std::collections::{BTreeSet, VecDeque};
use std::time::Duration;
use Perturbation::{
    AdmitOnDelivery, DropSignal, DropWake, KeepCache, ReleaseUncommitted, StripNotices,
};
use Workload::{Lease, Locks, Rejoin, Signals, Wake};

/// The lock and the cv, both managed by daemon 0.
const LOCK: u32 = 0;
const CV: u32 = 0;
/// The wake campaign's cv, managed by daemon 1: not the barrier manager.
const WAKE_CV: u32 = 1;
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
    /// `signals` per workload: the wake campaign.
    Wake(usize),
}

/// A deliberate break, applied by the harness; client and daemon run
/// unmodified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Perturbation {
    /// Every `LockGranted` reaches its worker without its notices.
    StripNotices,
    /// A `SetCv` that finds the manager's wait queue empty is dropped.
    DropSignal,
    /// The reaper sends the dying holder's uncommitted `Release` ahead of
    /// its obituary.
    ReleaseUncommitted,
    /// The link answers the joiner's first page fetch after its ack with
    /// the page it held before the crash.
    KeepCache,
    /// The link rewrites the joiner's `Rejoin` to `stride: 0` at the
    /// current round: the single-shot opt-out, used mid-campaign.
    AdmitOnDelivery,
    /// The first `NodeFailed` a daemon sends is dropped.
    DropWake,
}

/// Real clients and daemons under a [`Workload`], perturbed or not.
#[derive(Debug, Clone, Copy)]
pub struct DaemonSpec(
    /// What the workers run.
    pub Workload,
    /// The break the harness applies, if any.
    pub Option<Perturbation>,
);

/// The seeded regressions: each perturbation's report row, the smallest
/// workload that exercises it, and the symptom the checker must report.
pub const SEEDED: [(&str, DaemonSpec, &str); 6] = [
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
    (
        "daemon/drop-wake",
        DaemonSpec(Wake(1), Some(DropWake)),
        "deadlock",
    ),
];

/// Where unit `u` of `role` in workload `wl` lives: its byte on the page
/// and its slot in [`World::released`].
fn slot(units: usize, wl: usize, role: usize, u: usize) -> usize {
    (wl * 2 + role) * units + u
}

/// The clients, the daemons, the links, the workers' reply queues, and
/// what the checks track.
#[derive(Default)]
pub struct World {
    n: usize,
    home: usize,
    broken: Option<Perturbation>,
    /// Worker `w`'s protocol state, driven by its scripted process (and,
    /// for the victim, fail-stopped by the reaper).
    clients: Vec<Client>,
    /// The page's unit bytes, as every client allocated them.
    units: Option<GlobalVec<u8>>,
    daemons: Vec<Daemon>,
    /// Per daemon, the join of the clocks of all it was delivered.
    clocks: Vec<VectorClock>,
    /// Link `src * n + dst`, from worker `src` to daemon `dst`, and the
    /// count it delivered: the next request id, so a dropped message
    /// leaves no gap.
    links: Vec<(VecDeque<(Msg, VectorClock)>, u64)>,
    replies: Vec<VecDeque<(Reply, VectorClock)>>,
    /// Per worker, a sent request awaits its reply.
    awaiting: Vec<bool>,
    /// The unit each worker's critical section writes, while inside.
    inside: Vec<Option<usize>>,
    /// Per unit, the releases live workers sent (one notice each).
    released: Vec<u32>,
    last_release: VectorClock,
    /// The unit the victim was inside when the reaper fired.
    interrupted: Option<usize>,
    crashed: bool,
    /// The page the victim held when the reaper fired ([`KeepCache`]).
    kept: Option<Vec<u8>>,
    /// The lock manager processed the obituary.
    buried: bool,
    /// `setcv`s and `waitcv`s delivered and cv grants emitted; the wait
    /// queue is empty when `waits == wakes`.
    sets: u64,
    waits: u64,
    wakes: u64,
    /// The rejoin campaign's units per role and workload (0 in the wake
    /// campaign, whose members signal and wait `signals` times instead).
    campaign: Option<usize>,
    signals: usize,
    /// Barrier rounds daemon 0 completed, whether the joiner's `Rejoin`
    /// reached it, and whether it sent the joiner its `RejoinAck`.
    rounds: u64,
    announced: bool,
    admitted: bool,
    violations: Vec<String>,
    /// The wake campaign's situations this run reached.
    reached: BTreeSet<String>,
}

impl World {
    /// The situations of the wake campaign this run reached: the
    /// victim's fail-stop after each count of signals sent, each way a
    /// `NodeFailed` leaves the cv manager, a wait after a barrier named
    /// the victim dead, and a wait parked after the victim's readmission.
    pub fn reached(&self) -> &BTreeSet<String> {
        &self.reached
    }

    fn send(&mut self, src: usize, dst: usize, msg: Msg, clock: &VectorClock) {
        let link = &mut self.links[src * self.n + dst].0;
        link.push_back((msg, clock.clone()));
    }

    /// Worker `me` reads the page's unit bytes through its client and
    /// marks `unit`'s byte; returns what it read, or `None` when the read
    /// faulted and queued a fetch.
    fn touch(&mut self, me: usize, unit: usize) -> Option<Vec<u8>> {
        let (units, client) = (self.units?, &mut self.clients[me]);
        let mut page = vec![0; units.len()];
        if client.read_bytes(units.base, &mut page) < page.len() {
            return None;
        }
        client.write_bytes(units.addr_of(unit), &[1]);
        Some(page)
    }

    /// Worker `from`'s release, with its critical section's write notice:
    /// what [`ReleaseUncommitted`] forges.
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
    /// while worker 0 has units of the first workload left; in the wake
    /// campaign, in the first workload between two of its calls.
    fn exposed(&self) -> bool {
        let left = |units| match self.signals {
            0 => self.cursor(units, 0) < units,
            _ => self.rounds < BUDGET && !self.awaiting[VICTIM],
        };
        !self.crashed && self.campaign.is_none_or(left)
    }

    /// Fail-stops the victim's client. Its obituary to a manager (daemon
    /// 0, and the wake campaign's daemon 1) joins its link behind
    /// everything it already sent; the others are stepped at once: those
    /// daemons manage nothing the run uses and refuse no request of the
    /// dead, so no check depends on when they land.
    fn reap(&mut self, ctx: &mut Ctx) {
        (self.crashed, self.interrupted) = (true, self.inside[VICTIM].take());
        // A wake campaign's signal reaches the manager as it is sent.
        let sent = format!("fail-stop with {} signal(s) sent", self.sets);
        self.reached.insert(sent);
        if self.broken == Some(KeepCache) {
            self.kept = self.clients[VICTIM].cached(PAGE).map(<[u8]>::to_vec);
        }
        if self.interrupted.is_some() && self.broken == Some(ReleaseUncommitted) {
            let release = self.release_of(VICTIM);
            self.send(VICTIM, 0, release, ctx.clock());
        }
        self.clients[VICTIM].fail_stop();
        while let Some((to, msg)) = self.clients[VICTIM].next_request() {
            let link = &mut self.links[VICTIM * self.n + to].0;
            if to == 0 || self.signals > 0 {
                link.push_back((msg, ctx.clock().clone()));
            } else {
                link.push_front((msg, ctx.clock().clone()));
                self.deliver(VICTIM * self.n + to, ctx);
            }
        }
    }

    /// Hands the head of `link` to its daemon.
    fn deliver(&mut self, link: usize, ctx: &mut Ctx) {
        let (src, dst) = (link / self.n, link % self.n);
        let Some((mut msg, clock)) = self.links[link].0.pop_front() else {
            return;
        };
        ctx.trace(format!("{src} -> daemon {dst}: {msg:?}"));
        let wait = matches!(msg, Msg::WaitCv { .. });
        match &mut msg {
            Msg::SetCv { .. } if self.broken == Some(DropSignal) && self.waits == self.wakes => {
                return ctx.trace("setcv dropped at an empty wait queue");
            }
            Msg::GetPage { page, .. } if src == VICTIM && self.admitted && self.kept.is_some() => {
                let (page, data) = (*page, self.kept.take().unwrap_or_default());
                let reply = Reply::Page { page, data };
                return self.replies[src].push_back((reply, clock));
            }
            Msg::SetCv { .. } => self.sets += 1,
            Msg::WaitCv { .. } => self.waits += 1,
            Msg::Obituary { .. } => self.buried |= dst == 0,
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
        let answered = self.replies[src].len();
        self.step_daemon(dst, env);
        if wait && self.admitted && self.replies[src].len() == answered {
            let parked = "a wait parks after the victim's readmission";
            self.reached.insert(parked.into());
        }
    }

    /// Steps daemon `dst` on `env`, then every daemon its control messages
    /// reach, routing the replies into the workers' queues. A barrier
    /// round the step completes must grant every live rank: worker 0 may
    /// be missing only while it is dead and not admitted back.
    fn step_daemon(&mut self, dst: usize, env: Envelope) {
        let mut inbox = VecDeque::from([(dst, env)]);
        while let Some((d, env)) = inbox.pop_front() {
            let woke = match env.msg {
                Msg::Obituary { .. } => "an obituary wakes a parked wait",
                _ => "a wait after the obituary fails at once",
            };
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
                    Reply::NodeFailed { .. } => {
                        if self.broken.take_if(|b| *b == DropWake).is_some() {
                            continue;
                        }
                        self.reached.insert(woke.into());
                    }
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
    /// A rejoin campaign member: per workload its units, then the
    /// workload's barriers.
    Member,
}

/// A scripted process: the API calls of a role, made on worker `me`'s
/// real client. A step feeds one reply or starts one unit (a member's
/// feeds one and starts the next), then puts the first request the
/// client queued on its link.
#[derive(Default)]
struct Script {
    me: usize,
    role: Role,
    /// Units (lockers, members), or signals or waits, still to run.
    todo: VecDeque<usize>,
    /// The unit whose page access is still to make: a locker's once it
    /// has called `lock`, a member's once started.
    unit: Option<usize>,
    /// Members: the barrier rounds completed, as grants and ack said.
    round: u64,
    /// Worker 0 has announced its return.
    announced: bool,
    /// A barrier grant has named worker 0 dead to this member.
    told: bool,
}

impl Script {
    fn boxed(me: usize, role: Role, todo: std::ops::Range<usize>) -> Box<dyn Process<World>> {
        let todo = todo.collect();
        Box::new(Self {
            me,
            role,
            todo,
            ..Self::default()
        })
    }

    /// Queues `role`'s `units` of the current workload from `first` on.
    fn queue(&mut self, units: usize, role: usize, first: usize) {
        let wl = (self.round / BUDGET) as usize;
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

    /// Nothing queued and no unit under way.
    fn idle(&self, w: &World) -> bool {
        !(w.awaiting[self.me] || self.unit.is_some() || w.clients[self.me].has_requests())
    }

    /// Starts the next unit with its first API call.
    fn start(&mut self, w: &mut World) {
        let me = self.me;
        match self.role {
            Role::Adopter => {
                // A takeover reads the ledger past its stale cache and
                // resumes from the cursor.
                if let Some(units) = w.units {
                    w.clients[me].invalidate_vec(&units);
                }
                let cursor = w.cursor(self.todo.len(), 0);
                self.todo.retain(|&u| u >= cursor);
                self.role = Role::Locker;
            }
            Role::Producer => {
                self.todo.pop_front();
                w.clients[me].setcv(CV);
            }
            Role::Consumer => {
                self.todo.pop_front();
                w.clients[me].waitcv(CV);
            }
            Role::Member if self.fallen(w) => {
                self.announced = true;
                w.clients[me].rejoin((self.round / BUDGET + 1) * BUDGET, BUDGET);
            }
            Role::Member if self.round >= FINAL || self.gated(w) => {}
            Role::Member => match self.todo.pop_front() {
                Some(_) if w.signals > 0 && me == VICTIM => w.clients[me].setcv(WAKE_CV),
                Some(_) if w.signals > 0 => {
                    if self.told {
                        let told = "a wait after a barrier named the victim dead";
                        w.reached.insert(told.into());
                    }
                    w.clients[me].waitcv(WAKE_CV);
                }
                Some(unit) => self.unit = Some(unit),
                None => w.clients[me].barrier(),
            },
            _ => {
                self.unit = self.todo.front().copied();
                if self.unit.is_some() {
                    w.clients[me].lock(LOCK);
                }
            }
        }
    }

    /// Makes the unit's page access once nothing is queued: check what
    /// the page shows, mark the unit, then a locker's `unlock` or a
    /// member's `flush_vec`. False when no access is left to make.
    fn call(&mut self, w: &mut World) -> bool {
        let (me, Some(unit)) = (self.me, self.unit) else {
            return false;
        };
        let Some(page) = w.touch(me, unit) else {
            return true;
        };
        let member = self.role == Role::Member;
        let stale = if member {
            // Every unit of an earlier workload was released before the
            // boundary that opened this one.
            let units = w.campaign.unwrap_or_default();
            (0..unit - unit % (2 * units)).find(|&k| page[k] == 0)
        } else {
            (0..page.len()).find(|&k| {
                let seen = page[k] != 0;
                seen != (w.released[k] > 0) && !(seen && w.interrupted == Some(k))
            })
        };
        let stale = stale.map(|k| format!("scope consistency violated: worker {me}, unit {k}"));
        w.violations.extend(stale);
        self.unit = None;
        match w.units.filter(|_| member) {
            Some(units) => {
                w.clients[me].flush_vec(&units);
                w.released[unit] += 1;
            }
            None => w.clients[me].unlock(LOCK),
        }
        true
    }

    /// Puts `msg` on the link to daemon `to`: a locker's release commits
    /// its unit to the ledger, and a member's request is served at once,
    /// its reply fed if there is one — in the rejoin campaign a request
    /// to the home, in the wake campaign one with nothing ahead of it on
    /// its link (a call is over when the daemon has served it: `setcv`
    /// awaits nothing, the rest a reply). Returns whether a reply was fed.
    fn put(&mut self, w: &mut World, ctx: &mut Ctx, to: usize, msg: Msg) -> bool {
        if matches!(msg, Msg::Release { .. }) {
            let unit = self.todo.pop_front().unwrap_or_default();
            w.inside[self.me] = None;
            w.released[unit] += 1;
            w.last_release = ctx.clock().clone();
        }
        w.awaiting[self.me] = msg.awaits_reply();
        w.send(self.me, to, msg, ctx.clock());
        let link = self.me * w.n + to;
        let ahead = w.links[link].0.len() > 1;
        let at_once = if w.signals > 0 { !ahead } else { to == w.home };
        if self.role != Role::Member || !at_once {
            return false;
        }
        w.deliver(link, ctx);
        let answered = !w.replies[self.me].is_empty();
        if answered {
            self.feed(w, ctx);
        }
        answered
    }

    /// Feeds the oldest reply to the client, checking it on the way.
    fn feed(&mut self, w: &mut World, ctx: &mut Ctx) {
        let Some((reply, clock)) = w.replies[self.me].pop_front() else {
            return w.violations.push(format!("worker {}: no reply", self.me));
        };
        ctx.acquire(&clock);
        w.awaiting[self.me] = false;
        let (me, units) = (self.me, w.campaign.unwrap_or_default());
        // A barrier grant or an ack moves a member to its next units: a
        // takeover sweep's, if the grant names the victim dead.
        let mut next = None;
        match &reply {
            Reply::LockGranted { seq, .. } => {
                let live = u64::from(w.released.iter().sum::<u32>());
                let unreleased =
                    (*seq > live).then(|| format!("granted unreleased state: {seq} > {live}"));
                let other = w.inside.iter().position(Option::is_some);
                let both = other.map(|o| format!("mutual exclusion violated: workers {o}, {me}"));
                let early = !ctx.clock().dominates(&w.last_release);
                let early = early.then(|| format!("happens-before violated: worker {me} early"));
                w.violations
                    .extend(unreleased.into_iter().chain(both).chain(early));
                w.inside[me] = self.todo.front().copied();
            }
            Reply::BarrierDone { dead, .. } => {
                self.round += 1;
                next = Some(me != VICTIM && dead.contains(&VICTIM));
            }
            Reply::RejoinAck { round, .. } => {
                let caught_up = (round.div_ceil(BUDGET) as usize).min(WORKLOADS);
                let behind = (0..caught_up).find(|&wl| w.cursor(units, wl) < units);
                let behind = behind.map(|wl| format!("joiner caught up early on workload {wl}"));
                w.violations.extend(behind);
                self.round = round.next_multiple_of(BUDGET);
                next = Some(false);
            }
            _ => {}
        }
        let failed = matches!(reply, Reply::NodeFailed { .. });
        w.clients[me].reply(reply);
        // A `NodeFailed` the client does not park again ends the wait:
        // the waiter adopts the rest of the workload.
        if failed && !w.clients[me].has_requests() {
            self.todo.clear();
        }
        match next {
            // The second workload's body follows its opening barrier; a
            // grant that names the victim dead there is adopted too.
            Some(adopt) if w.signals > 0 => {
                self.told |= adopt;
                let open = self.round + 1 == FINAL && !adopt;
                self.todo = (0..w.signals).filter(|_| open).collect();
            }
            Some(_) if self.round.is_multiple_of(BUDGET) => self.queue(units, me, 0),
            Some(true) => {
                // The takeover sweep resumes from the ledger cursor, read
                // past the stale cache.
                if let Some(v) = w.units {
                    w.clients[me].invalidate_vec(&v);
                }
                let wl = (self.round / BUDGET) as usize;
                self.queue(units, VICTIM, w.cursor(units, wl));
            }
            _ => {}
        }
    }
}

impl Process<World> for Script {
    fn ready(&self, w: &World) -> bool {
        match self.role {
            Role::Victim if w.crashed => false,
            Role::Adopter => w.crashed,
            Role::Reaper => w.exposed(),
            _ if w.awaiting[self.me] => !w.replies[self.me].is_empty(),
            Role::Member => self.fallen(w) || !self.gated(w),
            _ => !(self.idle(w) && self.todo.is_empty()),
        }
    }

    fn done(&self, w: &World) -> bool {
        match self.role {
            // A dead victim's units are the adopter's; without a crash
            // there is nothing to adopt.
            Role::Victim if w.crashed => true,
            Role::Reaper => !w.exposed(),
            Role::Adopter => !w.crashed,
            Role::Member => self.round >= FINAL,
            _ => self.idle(w) && self.todo.is_empty(),
        }
    }

    fn step(&mut self, w: &mut World, ctx: &mut Ctx) {
        if self.role == Role::Reaper {
            return w.reap(ctx);
        }
        let fed = w.awaiting[self.me];
        if fed {
            self.feed(w, ctx);
        }
        if (!fed || self.role == Role::Member) && self.idle(w) {
            self.start(w);
        }
        loop {
            if let Some((to, msg)) = w.clients[self.me].next_request() {
                if !self.put(w, ctx, to, msg) {
                    break;
                }
            } else if !self.call(w) {
                break;
            }
        }
        let (role, me, round, todo) = (self.role, self.me, self.round, &self.todo);
        ctx.trace(format!("{role:?} {me} round {round}: {todo:?} to do"));
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
        let (units, campaign, signals) = match self.0 {
            Locks(clients, sections) => {
                for c in 0..clients {
                    let units = c * sections..(c + 1) * sections;
                    procs.push(Script::boxed(c, Role::Locker, units));
                }
                (clients * sections, None, 0)
            }
            Signals(producers, consumers, each) => {
                let waits = producers * each / consumers;
                for p in 0..producers {
                    procs.push(Script::boxed(p, Role::Producer, 0..each));
                }
                for c in producers..producers + consumers {
                    procs.push(Script::boxed(c, Role::Consumer, 0..waits));
                }
                (0, None, 0)
            }
            Lease(victim, survivor) => {
                procs.push(Script::boxed(VICTIM, Role::Victim, 0..victim));
                procs.push(Script::boxed(1, Role::Locker, victim..victim + survivor));
                procs.push(Script::boxed(2, Role::Adopter, 0..victim));
                (victim + survivor, None, 0)
            }
            Rejoin(units) => {
                for m in 0..2 {
                    let todo = slot(units, 0, m, 0)..slot(units, 0, m, units);
                    procs.push(Script::boxed(m, Role::Member, todo));
                }
                (WORKLOADS * 2 * units, Some(units), 0)
            }
            Wake(signals) => {
                for m in 0..2 {
                    procs.push(Script::boxed(m, Role::Member, 0..signals));
                }
                (0, Some(0), signals)
            }
        };
        let n = procs.len();
        if matches!(self.0, Lease(..) | Rejoin(..) | Wake(..)) {
            procs.push(Script::boxed(n, Role::Reaper, 0..0));
        }
        procs.extend((0..n * n).map(|l| Box::new(Link(l)) as Box<dyn Process<World>>));
        let config = DsmConfig::new(n).page_size(PAGE_SIZE);
        let mut clients: Vec<Client> = (0..n).map(|w| Client::new(w, &config)).collect();
        // Collective: every client computes the same address.
        let page = clients.iter_mut().map(|c| c.alloc(units, Some(n - 1)));
        let page = page.map(|base| GlobalVec::new(base, units)).last();
        let zero = VectorClock::new(procs.len());
        let world = World {
            n,
            home: n - 1,
            broken: self.1,
            clients,
            units: page,
            daemons: (0..n).map(|d| Daemon::new(d, &config, false)).collect(),
            clocks: vec![zero.clone(); n],
            links: vec![(VecDeque::new(), 0); n * n],
            replies: vec![VecDeque::new(); n],
            awaiting: vec![false; n],
            inside: vec![None; n],
            released: vec![0; units],
            last_release: zero,
            campaign,
            signals,
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
