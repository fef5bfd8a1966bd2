//! The per-node communication daemon.
//!
//! JIAJIA services remote requests with a SIGIO handler; here each node
//! has a daemon that owns the node's **home pages** and its share of the
//! **lock**, **condition-variable**, and (on node 0) **barrier** managers.
//! Daemons never block on other daemons, so the system cannot deadlock at
//! the protocol level: workers block only on daemon replies, and daemons
//! answer every request in bounded time.
//!
//! ## A step function
//!
//! A [`Daemon`] holds no channel and takes no lock. [`Daemon::step`]
//! serves one request and appends everything it sends — control messages
//! to other daemons and replies to workers — to an [`Outbox`], in send
//! order. It has two callers in a run. [`Daemon::run`] is the thread body
//! that serves peers: receive, lock, step, flush. An in-process worker
//! steps its own daemon inline for every message addressed to it, under
//! the same lock (see [`crate::node`]). The model checker in
//! `genomedsm-verify` drives the same `step` from scripted workers over
//! its own links, so the code it checks is the code that ships.
//!
//! `step` refuses, and counts in [`NodeStats::malformed_dropped`], a
//! request no peer could have sent: a rank field past `nprocs`, a worker
//! request naming another worker than its sender (or a control message
//! from a worker), a patch outside the page, an `AdoptPage` that is not
//! one page, a request at the wrong manager, and the release of a lock by
//! a node that does not hold it. One forged datagram must not take a
//! daemon down.
//!
//! ## Virtual time
//!
//! Every request arrives with a virtual timestamp ([`Envelope::arrive`]).
//! The daemon grants replies at virtual times that respect the protocol's
//! causality:
//!
//! * page fetches and diff acks leave at the request's arrival;
//! * a lock grant leaves at `max(request arrival, last release)`;
//! * a cv grant pairs a waiter with a signal and leaves at the later of
//!   the two;
//! * the barrier grant leaves at the **maximum arrival over all nodes** —
//!   the step that makes simulated speed-ups honest.
//!
//! The reply's network cost is added on top, so the worker's clock lands
//! exactly where a real cluster's would (modulo the cost model).

use crate::config::DsmConfig;
use crate::faults::FaultPlan;
use crate::msg::{Envelope, Msg, Notice, Reply, ReplyEnvelope, SYSTEM_SRC};
use crate::net::{self, NetworkModel, RetransmitPolicy, CHAN_DAEMON};
use crate::page::apply_patches;
use crate::stats::NodeStats;
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::time::Duration;

/// A queued acquirer or cv waiter: `(node, last_seq, arrival, request id)`.
type Waiter = (usize, u64, Duration, u64);

/// One send a [`Daemon::step`] asks for.
#[derive(Debug)]
pub enum Outgoing {
    /// A control message for daemon `.0`'s inbox.
    Daemon(usize, Envelope),
    /// A reply for worker `.0`.
    Reply(usize, ReplyEnvelope),
}

/// The sends of one or more steps, in the order they were made. Flushing
/// it front to back keeps every link's send order.
pub type Outbox = Vec<Outgoing>;

/// Per-lock manager state.
#[derive(Default)]
struct LockState {
    /// Node currently holding the lock.
    holder: Option<usize>,
    /// Waiting acquirers, FIFO.
    waiters: VecDeque<Waiter>,
    /// Virtual time of the last release.
    free_at: Duration,
    /// Write notices attached to this lock, with their sequence numbers.
    history: Vec<(u64, Notice)>,
    /// Next sequence number.
    next_seq: u64,
}

impl LockState {
    /// The grant for an acquirer whose watermark is `last_seq`.
    fn grant(&self, last_seq: u64) -> Reply {
        Reply::LockGranted {
            notices: notices_since(&self.history, last_seq),
            seq: self.next_seq,
        }
    }

    /// Hands the free lock to the oldest waiter, if any:
    /// `(node, departure, request id, grant)`.
    fn grant_next(&mut self) -> Option<(usize, Duration, u64, Reply)> {
        let (next, last_seq, req_arrive, rseq) = self.waiters.pop_front()?;
        self.holder = Some(next);
        Some((
            next,
            req_arrive.max(self.free_at),
            rseq,
            self.grant(last_seq),
        ))
    }
}

/// Per-condition-variable manager state (counting semantics: a signal
/// wakes exactly one waiter, signals accumulate).
#[derive(Default)]
struct CvState {
    /// Virtual arrival times of pending (unconsumed) signals.
    pending: VecDeque<Duration>,
    /// Waiting nodes, FIFO.
    waiters: VecDeque<Waiter>,
    /// Write notices attached to this cv, with sequence numbers.
    history: Vec<(u64, Notice)>,
    /// Next sequence number.
    next_seq: u64,
}

impl CvState {
    /// The grant for a waiter whose watermark is `last_seq`.
    fn grant(&self, last_seq: u64) -> Reply {
        Reply::CvGranted {
            notices: notices_since(&self.history, last_seq),
            seq: self.next_seq,
        }
    }
}

/// History notices newer than `last_seq`, deduplicated by (page, writer)
/// so acquirers can filter out only their own writes. The history is
/// append-only with ascending sequence numbers, so the start is found by
/// binary search — grants cost O(log n + new).
fn notices_since(history: &[(u64, Notice)], last_seq: u64) -> Vec<Notice> {
    let start = history.partition_point(|(seq, _)| *seq <= last_seq);
    let mut seen = HashSet::new();
    history[start..]
        .iter()
        .filter(|(_, n)| seen.insert((n.page, n.writer)))
        .map(|(_, n)| *n)
        .collect()
}

/// Barrier manager state (lives on node 0's daemon).
#[derive(Default)]
struct BarrierState {
    /// Nodes that arrived this round, with their transport seqs.
    arrived: Vec<(usize, u64)>,
    /// Union of the round's notices.
    notices: Vec<Notice>,
    /// Latest virtual arrival of the round.
    latest: Duration,
    /// Completed barrier rounds (the migration epoch).
    rounds: u64,
}

/// The state of one daemon.
pub struct Daemon {
    id: usize,
    nprocs: usize,
    page_size: usize,
    network: NetworkModel,
    home_migration: bool,
    /// Home pages owned by this node (created zeroed on first touch).
    home_pages: HashMap<u64, Vec<u8>>,
    locks: HashMap<u32, LockState>,
    cvs: HashMap<u32, CvState>,
    barrier: BarrierState,
    /// Migration epoch this daemon has reached.
    epoch: u64,
    /// Pages announced as migrating in but not yet adopted.
    incoming: HashSet<u64>,
    /// Requests parked until an epoch bump or a page adoption.
    parked: Vec<Envelope>,
    /// Link fates priced into daemon → daemon control traffic (a quiet
    /// plan on a transport that takes its losses for real).
    faults: FaultPlan,
    /// Timeout policy the loss price is computed with.
    retransmit: RetransmitPolicy,
    /// Detect-only guard on the transport's exactly-once contract: next
    /// expected request id per source link.
    req_next: HashMap<usize, u64>,
    /// Next request id per outbound daemon link.
    daemon_seq: Vec<u64>,
    /// What this daemon adds to its machine's [`NodeStats`], returned by
    /// [`Daemon::run`] (inline steps count here too).
    stats: NodeStats,
    /// Nodes this daemon has seen obituaries for (the failure detector's
    /// confirmed-dead set; ordered so reports are deterministic).
    dead: BTreeSet<usize>,
    /// Per worker, the deaths this daemon has reported to it (`NodeFailed`,
    /// `BarrierDone.dead`) and every rank admitted back. A `WaitCv` that
    /// would park is answered with a death not in here at once: an
    /// obituary wakes only the waiters parked at that moment, and a later
    /// one would otherwise park for good.
    told: Vec<BTreeSet<usize>>,
    /// Cumulative home-migration decisions of the whole run (daemon 0
    /// only — it decides every migration). Shipped in
    /// [`Reply::RejoinAck`] so a joiner can rebuild `home_overrides` it
    /// missed while dead; stale overrides would fetch pages from homes
    /// that already shipped them away.
    migration_log: Vec<(u64, usize)>,
    /// Rejoin announcements parked until the barrier reaches their
    /// `admit_at_round` boundary (daemon 0 only): `(node, incarnation,
    /// admit_at_round, arrive, rseq)`. Admitting mid-workload would make
    /// in-flight rounds wait for a rank whose next arrival targets a
    /// later round — a barrier deadlock.
    pending_rejoins: Vec<(usize, u32, u64, Duration, u64)>,
    /// Latest admitted incarnation per rank. Fences stale obituaries: on
    /// a lossy transport a delayed duplicate death notice of incarnation
    /// `k` must not re-kill a rank whose incarnation `k+1` was admitted.
    admitted_inc: Vec<u32>,
}

impl Daemon {
    /// Creates the daemon of node `id`. `measured` says the fabric that
    /// will carry its sends is a real network, which takes the fault
    /// plan's link fates itself; nothing is priced here then.
    pub fn new(id: usize, config: &DsmConfig, measured: bool) -> Self {
        let nprocs = config.nprocs;
        Self {
            id,
            nprocs,
            page_size: config.page_size,
            network: config.network,
            home_migration: config.home_migration,
            home_pages: HashMap::new(),
            locks: HashMap::new(),
            cvs: HashMap::new(),
            barrier: BarrierState::default(),
            epoch: 0,
            incoming: HashSet::new(),
            parked: Vec::new(),
            faults: if measured {
                FaultPlan::quiet(0)
            } else {
                config.faults.clone()
            },
            retransmit: config.retransmit,
            req_next: HashMap::new(),
            daemon_seq: vec![0; nprocs],
            stats: NodeStats::default(),
            dead: BTreeSet::new(),
            told: vec![BTreeSet::new(); nprocs],
            migration_log: Vec::new(),
            pending_rejoins: Vec::new(),
            admitted_inc: vec![0; nprocs],
        }
    }

    /// Runs the service loop until the launcher's `Shutdown`, returning
    /// the daemon's counters: receive a request from `inbox`, lock the
    /// daemon, [`step`](Daemon::step) it, and flush the outbox into
    /// `daemon_tx` (daemon inboxes) and `reply_tx` (worker reply channels)
    /// before unlocking. The daemon is shared because an in-process worker
    /// steps its own daemon inline (see [`crate::node`]); flushing under
    /// the lock keeps every daemon link in the order `step` numbered it.
    /// A poisoned lock means the worker panicked inside a step, and the
    /// daemon panics too rather than serve from half-updated state.
    /// `Shutdown` is harness-internal: it ends the loop only when it comes
    /// from [`SYSTEM_SRC`], which no peer can claim to be.
    pub fn run(
        daemon: std::sync::Arc<std::sync::Mutex<Self>>,
        inbox: crossbeam::channel::Receiver<Envelope>,
        reply_tx: Vec<crossbeam::channel::Sender<ReplyEnvelope>>,
        daemon_tx: Vec<crossbeam::channel::Sender<Envelope>>,
    ) -> NodeStats {
        let mut out = Outbox::new();
        while let Ok(env) = inbox.recv() {
            if env.src == SYSTEM_SRC && matches!(env.msg, Msg::Shutdown) {
                break;
            }
            let Ok(mut this) = daemon.lock() else {
                panic!("a daemon's worker panicked inside an inline step");
            };
            this.step(env, &mut out);
            crate::transport::flush(&mut out, &daemon_tx, &reply_tx);
        }
        let Ok(mut this) = daemon.lock() else {
            panic!("a daemon's worker panicked inside an inline step");
        };
        std::mem::take(&mut this.stats)
    }

    /// Serves one request: the exactly-once watermark, the body checks
    /// (see the module docs; a refused request is counted in
    /// [`NodeStats::malformed_dropped`] and answered by nothing), then
    /// the handler. Everything the request makes this daemon send is
    /// appended to `out` in send order.
    pub fn step(&mut self, env: Envelope, out: &mut Outbox) {
        if !self.in_order(&env) {
            return;
        }
        if !self.well_formed(&env) {
            self.stats.malformed_dropped += 1;
            return;
        }
        self.dispatch(env, out);
    }

    /// Sends a protocol message to another daemon, departing at `when`:
    /// number it, price it (as [`crate::Node`] does its requests; nobody
    /// blocks on control traffic, so the stall is nobody's), push one
    /// envelope.
    fn send_daemon(&mut self, out: &mut Outbox, to: usize, when: Duration, msg: Msg) {
        let seq = self.daemon_seq[to];
        self.daemon_seq[to] += 1;
        let src = self.nprocs + self.id;
        let cost = self.network.cost(self.id, to, msg.wire_size());
        let lossy = self.faults.fates().filter(|_| to != self.id);
        let link = (src, self.nprocs + to, CHAN_DAEMON, seq);
        let price = net::loss_price(lossy, &self.retransmit, link, cost, when);
        self.stats.retransmits += price.retransmits;
        self.stats.dups_dropped += price.dups_dropped;
        self.stats.corrupt_dropped += price.corrupt_dropped;
        let arrive = price.arrive;
        out.push(Outgoing::Daemon(
            to,
            Envelope {
                msg,
                arrive,
                src,
                seq,
            },
        ));
    }

    /// Sends `reply` to node `to`, departing (virtually) at `when`,
    /// stamped with the request's id `seq` (the worker matches on it).
    fn reply(&self, out: &mut Outbox, to: usize, when: Duration, seq: u64, reply: Reply) {
        let arrive = when + self.network.cost(self.id, to, reply.wire_size());
        let src = self.nprocs + self.id;
        out.push(Outgoing::Reply(
            to,
            ReplyEnvelope {
                reply,
                arrive,
                src,
                seq,
            },
        ));
    }

    /// Detect-only guard on the transport's contract (exactly once, in
    /// order per link): a request id below the source's watermark is
    /// counted and dropped, never answered; a gap trips the debug
    /// assertion. Returns true when the message must be dispatched.
    fn in_order(&mut self, env: &Envelope) -> bool {
        let next = self.req_next.entry(env.src).or_insert(0);
        if env.seq >= *next {
            debug_assert_eq!(env.seq, *next, "per-link sends are in order");
            *next = env.seq + 1;
            return true;
        }
        self.stats.dups_dropped += 1;
        false
    }

    /// Whether a peer could have sent `env`: every rank field names a
    /// rank of the run, a worker request comes from the worker it names
    /// and a control message from a daemon, page bytes fit the page, the
    /// request reached the manager it belongs to, a release comes from
    /// the lock's holder, a rank arrives at a barrier round once, and a
    /// rejoin's deferred boundary fits a `u64`.
    fn well_formed(&self, env: &Envelope) -> bool {
        let n = self.nprocs;
        let worker = |from: usize| from < n && env.src == from;
        let daemon = (n..2 * n).contains(&env.src);
        let manages = |id: u32| id as usize % n == self.id;
        let ranks = |notices: &[Notice]| notices.iter().all(|x| x.writer < n && x.home < n);
        let fits = |offset: u32, len: usize| {
            (offset as usize)
                .checked_add(len)
                .is_some_and(|end| end <= self.page_size)
        };
        match &env.msg {
            Msg::GetPage { from, .. } => worker(*from),
            Msg::Diff { from, patches, .. } => {
                worker(*from) && patches.runs().all(|(at, data)| fits(at, data.len()))
            }
            Msg::Acquire { lock, from, .. } => worker(*from) && manages(*lock),
            Msg::Release {
                lock,
                from,
                notices,
            } => {
                let held = self.locks.get(lock).and_then(|st| st.holder);
                worker(*from) && ranks(notices) && held == Some(*from)
            }
            Msg::SetCv { cv, from, notices } => worker(*from) && manages(*cv) && ranks(notices),
            Msg::WaitCv { cv, from, .. } => worker(*from) && manages(*cv),
            // A rank arrives once per round: a second arrival would count
            // as another rank's.
            Msg::Barrier { from, notices } => {
                let again = self.barrier.arrived.iter().any(|&(n, _)| n == *from);
                worker(*from) && self.id == 0 && ranks(notices) && !again
            }
            Msg::MigrationNotice { epoch, .. } => daemon && *epoch >= self.epoch,
            Msg::MigrateOut { to, .. } => daemon && *to < n,
            Msg::AdoptPage { data, .. } => daemon && data.len() == self.page_size,
            Msg::Obituary { node, .. } => worker(*node),
            // A joiner announces itself to daemon 0, which forwards the
            // admission to every other daemon. The boundary a late
            // announcement is deferred to (`rejoin_due`) must fit a `u64`.
            Msg::Rejoin {
                node,
                admit_at_round: at,
                stride,
                ..
            } => {
                let late = self.barrier.rounds.checked_sub(*at);
                let next = late
                    .and_then(|d| d.checked_div(*stride))
                    .map_or(Some(0), |d| {
                        let k = d.checked_add(1)?.checked_mul(*stride)?;
                        at.checked_add(k)
                    });
                let announced = worker(*node) && self.id == 0 && next.is_some();
                announced || (env.src == n && self.id != 0 && *node < n)
            }
            // Only the launcher's own ends `run`; a peer's is forged.
            Msg::Shutdown => false,
        }
    }

    /// Whether a page request must wait for migration bookkeeping.
    fn must_park(&self, page: u64, epoch: u64) -> bool {
        epoch > self.epoch || self.incoming.contains(&page)
    }

    /// Re-dispatches parked requests that may have become serviceable,
    /// bumping their arrival to the unblocking event's time. They passed
    /// the watermark and the body checks when they first arrived.
    fn drain_parked(&mut self, unblocked_at: Duration, out: &mut Outbox) {
        let parked = std::mem::take(&mut self.parked);
        for mut env in parked {
            env.arrive = env.arrive.max(unblocked_at);
            self.dispatch(env, out);
        }
    }

    /// Handles one checked request (possibly re-injected from the parked
    /// queue).
    fn dispatch(&mut self, env: Envelope, out: &mut Outbox) {
        let Envelope {
            msg,
            arrive,
            src,
            seq: rseq,
        } = env;
        match msg {
            Msg::GetPage { page, from, epoch } => {
                if self.must_park(page, epoch) {
                    self.parked.push(Envelope {
                        msg: Msg::GetPage { page, from, epoch },
                        arrive,
                        src,
                        seq: rseq,
                    });
                    return;
                }
                let data = self
                    .home_pages
                    .entry(page)
                    .or_insert_with(|| vec![0; self.page_size])
                    .clone();
                self.reply(out, from, arrive, rseq, Reply::Page { page, data });
            }
            Msg::Diff {
                page,
                from,
                patches,
                epoch,
            } => {
                if self.must_park(page, epoch) {
                    self.parked.push(Envelope {
                        msg: Msg::Diff {
                            page,
                            from,
                            patches,
                            epoch,
                        },
                        arrive,
                        src,
                        seq: rseq,
                    });
                    return;
                }
                let home = self
                    .home_pages
                    .entry(page)
                    .or_insert_with(|| vec![0; self.page_size]);
                apply_patches(home, &patches);
                self.reply(out, from, arrive, rseq, Reply::DiffAck);
            }
            Msg::Acquire {
                lock,
                from,
                last_seq,
            } => self.handle_acquire(lock, from, last_seq, arrive, rseq, out),
            Msg::Release { lock, notices, .. } => self.handle_release(lock, notices, arrive, out),
            Msg::SetCv { cv, notices, .. } => self.handle_setcv(cv, notices, arrive, out),
            Msg::WaitCv { cv, from, last_seq } => {
                self.handle_waitcv(cv, from, last_seq, arrive, rseq, out)
            }
            Msg::Barrier { from, notices } => {
                self.barrier.arrived.push((from, rseq));
                self.barrier.notices.extend(notices);
                self.barrier.latest = self.barrier.latest.max(arrive);
                self.maybe_finish_barrier(out);
            }
            Msg::MigrationNotice { epoch, incoming } => {
                self.epoch = epoch;
                self.incoming.extend(incoming);
                self.drain_parked(arrive, out);
            }
            Msg::MigrateOut { page, to } => {
                let data = self
                    .home_pages
                    .remove(&page)
                    .unwrap_or_else(|| vec![0; self.page_size]);
                self.send_daemon(out, to, arrive, Msg::AdoptPage { page, data });
            }
            Msg::AdoptPage { page, data } => {
                self.home_pages.insert(page, data);
                self.incoming.remove(&page);
                self.drain_parked(arrive, out);
            }
            // Refused by `well_formed`; only the launcher's ends `run`.
            Msg::Shutdown => {}
            Msg::Obituary { node, incarnation } => {
                self.handle_obituary(node, incarnation, arrive, out)
            }
            Msg::Rejoin {
                node,
                incarnation,
                admit_at_round,
                stride,
            } => {
                let due = self.rejoin_due(admit_at_round, stride);
                if due > self.barrier.rounds {
                    self.pending_rejoins
                        .push((node, incarnation, due, arrive, rseq));
                } else {
                    self.admit(node, incarnation, arrive, rseq, out);
                }
            }
        }
    }

    fn handle_acquire(
        &mut self,
        lock: u32,
        from: usize,
        last_seq: u64,
        arrive: Duration,
        rseq: u64,
        out: &mut Outbox,
    ) {
        let st = self.locks.entry(lock).or_default();
        if st.holder.is_none() {
            st.holder = Some(from);
            let grant = st.grant(last_seq);
            let when = arrive.max(st.free_at);
            self.reply(out, from, when, rseq, grant);
        } else {
            st.waiters.push_back((from, last_seq, arrive, rseq));
        }
    }

    /// Releases a lock `well_formed` checked the sender holds.
    fn handle_release(
        &mut self,
        lock: u32,
        notices: Vec<Notice>,
        arrive: Duration,
        out: &mut Outbox,
    ) {
        let st = self.locks.entry(lock).or_default();
        for n in notices {
            st.next_seq += 1;
            st.history.push((st.next_seq, n));
        }
        st.holder = None;
        st.free_at = st.free_at.max(arrive);
        if let Some((next, when, rseq, grant)) = st.grant_next() {
            self.reply(out, next, when, rseq, grant);
        }
    }

    fn handle_setcv(&mut self, cv: u32, notices: Vec<Notice>, arrive: Duration, out: &mut Outbox) {
        let st = self.cvs.entry(cv).or_default();
        for n in notices {
            st.next_seq += 1;
            st.history.push((st.next_seq, n));
        }
        if let Some((node, last_seq, wait_arrive, rseq)) = st.waiters.pop_front() {
            let grant = st.grant(last_seq);
            self.reply(out, node, wait_arrive.max(arrive), rseq, grant);
        } else {
            st.pending.push_back(arrive);
        }
    }

    fn handle_waitcv(
        &mut self,
        cv: u32,
        from: usize,
        last_seq: u64,
        arrive: Duration,
        rseq: u64,
        out: &mut Outbox,
    ) {
        let st = self.cvs.entry(cv).or_default();
        if let Some(signal_arrive) = st.pending.pop_front() {
            let grant = st.grant(last_seq);
            self.reply(out, from, arrive.max(signal_arrive), rseq, grant);
        } else if let Some(&node) = self.dead.iter().find(|n| !self.told[from].contains(n)) {
            // The signal may have died with `node` before this wait
            // arrived: the obituary's wake-up, for a waiter it missed.
            self.told[from].insert(node);
            self.stats.waiters_woken += 1;
            self.reply(out, from, arrive, rseq, Reply::NodeFailed { node });
        } else {
            st.waiters.push_back((from, last_seq, arrive, rseq));
        }
    }

    /// Completes the barrier round once every node has either arrived or
    /// been declared dead (the supervision layer's "barrier over the
    /// survivors" rule; with an empty dead set this is the plain
    /// all-arrived barrier).
    fn maybe_finish_barrier(&mut self, out: &mut Outbox) {
        let missing_dead = self
            .dead
            .iter()
            .filter(|d| !self.barrier.arrived.iter().any(|(n, _)| n == *d))
            .count();
        if !self.barrier.arrived.is_empty()
            && self.barrier.arrived.len() + missing_dead >= self.nprocs
        {
            let round = std::mem::take(&mut self.barrier);
            // Deduplicate by (page, writer): a node must invalidate a page
            // another node wrote even if it wrote the page itself (its
            // cached copy misses the other writer's merged diff).
            let dedup: HashSet<Notice> = round.notices.into_iter().collect();
            let notices: Vec<Notice> = dedup.into_iter().collect();
            self.barrier.rounds = round.rounds + 1;
            let migrations = if self.home_migration {
                self.decide_migrations(&notices)
            } else {
                Vec::new()
            };
            // Only daemon 0 runs this (it is the barrier manager), so the
            // cumulative log it keeps for rejoin admission is complete.
            self.migration_log.extend(migrations.iter().copied());
            // Epoch sync: every daemon advances, whether or not it adopts
            // pages, so parked future-epoch requests always drain.
            let mut incoming_per: HashMap<usize, Vec<u64>> = HashMap::new();
            for &(page, to) in &migrations {
                incoming_per.entry(to).or_default().push(page);
            }
            let epoch = self.barrier.rounds;
            for d in 0..self.nprocs {
                let incoming = incoming_per.remove(&d).unwrap_or_default();
                self.send_daemon(
                    out,
                    d,
                    round.latest,
                    Msg::MigrationNotice { epoch, incoming },
                );
            }
            for &(page, to) in &migrations {
                // The old home ships the page to the new home.
                let Some(old) = notices.iter().find(|n| n.page == page).map(|n| n.home) else {
                    unreachable!("migration of page {page} was decided from these notices")
                };
                self.send_daemon(out, old, round.latest, Msg::MigrateOut { page, to });
            }
            let dead: Vec<usize> = self.dead.iter().copied().collect();
            for (node, rseq) in round.arrived {
                self.told[node].extend(&dead);
                let done = Reply::BarrierDone {
                    notices: notices.clone(),
                    migrations: migrations.clone(),
                    dead: dead.clone(),
                };
                self.reply(out, node, round.latest, rseq, done);
            }
            // Boundary admissions: parked rejoins whose agreed round has
            // been reached take effect now, after this round's grants
            // went out with the joiner still dead-credited. The admitted
            // joiner's next barrier arrival is exactly the new round.
            let rounds = self.barrier.rounds;
            let (due, keep): (Vec<_>, Vec<_>) = self
                .pending_rejoins
                .drain(..)
                .partition(|&(_, _, at, ..)| rounds >= at);
            self.pending_rejoins = keep;
            for (node, incarnation, _, arrive, rseq) in due {
                self.admit(node, incarnation, arrive.max(round.latest), rseq, out);
            }
        }
    }

    /// Processes a death notice: records the node as dead, breaks its
    /// lock leases (granting the next waiter from the last released
    /// state), removes its queued lock/cv waits, wakes every remaining cv
    /// waiter with [`Reply::NodeFailed`] so blocked survivors can unwind
    /// into recovery, and re-checks the barrier over the survivors.
    fn handle_obituary(
        &mut self,
        node: usize,
        incarnation: u32,
        arrive: Duration,
        out: &mut Outbox,
    ) {
        // Incarnation fence: a delayed duplicate obituary of a life that
        // has since been re-admitted must not re-kill the rank.
        if incarnation < self.admitted_inc[node] || !self.dead.insert(node) {
            return;
        }
        self.stats.obituaries += 1;
        let mut wake = Vec::new();
        // Lease break: a lock held by the dead node is released on its
        // behalf. The notices of its *completed* release intervals are
        // already in the lock history, so the next grant replays the last
        // released state; writes of the interrupted critical section are
        // lost, which is exactly fail-stop semantics.
        for st in self.locks.values_mut() {
            st.waiters.retain(|&(n, ..)| n != node);
            if st.holder == Some(node) {
                st.holder = None;
                st.free_at = st.free_at.max(arrive);
                self.stats.leases_broken += 1;
                wake.extend(st.grant_next());
            }
        }
        // Wake every parked cv waiter with NodeFailed: their signal may
        // have died with the node. Pending (unconsumed) signals are kept,
        // so a survivor that re-waits loses nothing.
        for st in self.cvs.values_mut() {
            st.waiters.retain(|&(n, ..)| n != node);
            for (waiter, _, wait_arrive, rseq) in st.waiters.drain(..) {
                self.stats.waiters_woken += 1;
                self.told[waiter].insert(node);
                wake.push((
                    waiter,
                    wait_arrive.max(arrive),
                    rseq,
                    Reply::NodeFailed { node },
                ));
            }
        }
        for (to, when, rseq, reply) in wake {
            self.reply(out, to, when, rseq, reply);
        }
        if self.id == 0 {
            self.barrier.latest = self.barrier.latest.max(arrive);
            self.maybe_finish_barrier(out);
        }
    }

    /// The completed-round count at which a rejoin announcement takes
    /// effect. On daemon 0 — the admission authority — the admission is
    /// *deferred* until the completed-round count reaches
    /// `admit_at_round`: the joiner's first post-admission barrier arrival
    /// is exactly that round, so admitting any earlier would stall the
    /// in-flight rounds (they would wait for a live rank that never
    /// arrives at them). An announcement that arrives *after* its named
    /// boundary already passed (delayed or retransmitted on a lossy
    /// transport) is just as dangerous in the other direction: admitting
    /// it mid-workload would hand the role back while the survivors'
    /// adoption view for the in-flight round still owns it — two live
    /// owners. So a late announcement is re-deferred to the next boundary
    /// multiple `admit_at_round + k·stride` strictly in the future (the
    /// joiner's campaign driver skips the missed rounds; see its
    /// `run_elastic`). `stride == 0` opts out (no later boundary exists)
    /// and admits immediately. Non-zero daemons only ever see
    /// announcements *forwarded by daemon 0 at the boundary*, so they
    /// admit on receipt.
    fn rejoin_due(&self, admit_at_round: u64, stride: u64) -> u64 {
        let rounds = self.barrier.rounds;
        if self.id != 0 {
            rounds
        } else if rounds < admit_at_round {
            admit_at_round
        } else {
            match (rounds - admit_at_round).checked_div(stride) {
                // Late: next multiple of `stride` past `admit_at_round`
                // that is strictly in the future. `(d/stride + 1)·stride
                // > d` always, so the admission lands at a real boundary
                // the barrier has not completed yet.
                Some(d) => admit_at_round + (d + 1) * stride,
                // `stride == 0`: no later boundary exists — admit at
                // whatever boundary comes next.
                None => rounds,
            }
        }
    }

    /// Admits a previously-dead node back into the membership view:
    /// remove it from the dead set and record the admitted incarnation
    /// (fencing stale obituaries of the previous life). Daemon 0
    /// additionally forwards the announcement to every other daemon and
    /// answers the joiner with a [`Reply::RejoinAck`] carrying the authoritative barrier round
    /// (the joiner resynchronizes its consistency epoch to it), the
    /// post-admission dead set, and the cumulative home-migration log so
    /// the joiner can rebuild `home_overrides` it missed while dead.
    fn admit(
        &mut self,
        node: usize,
        incarnation: u32,
        arrive: Duration,
        rseq: u64,
        out: &mut Outbox,
    ) {
        self.dead.remove(&node);
        self.admitted_inc[node] = self.admitted_inc[node].max(incarnation);
        // A healed death is history: nobody unwinds a wait for it any
        // more, nor the joiner for any death before its new life.
        for told in &mut self.told {
            told.insert(node);
        }
        self.told[node].extend(&self.dead);
        if self.id == 0 {
            let round = self.barrier.rounds;
            for d in 1..self.nprocs {
                // Forwarded announcements are already boundary decisions
                // (`stride: 0`); receivers admit on receipt.
                let forward = Msg::Rejoin {
                    node,
                    incarnation,
                    admit_at_round: round,
                    stride: 0,
                };
                self.send_daemon(out, d, arrive, forward);
            }
            let ack = Reply::RejoinAck {
                round,
                dead: self.dead.iter().copied().collect(),
                migrations: self.migration_log.clone(),
            };
            self.reply(out, node, arrive, rseq, ack);
        }
    }

    /// The migration policy (JIAJIA's single-writer heuristic): a page
    /// written this round by exactly one node, which is not its home,
    /// migrates to that writer — its diffs become local applications.
    fn decide_migrations(&self, notices: &[Notice]) -> Vec<(u64, usize)> {
        let mut per_page: HashMap<u64, (usize, usize, bool)> = HashMap::new(); // page -> (writer, home, multi)
        for n in notices {
            per_page
                .entry(n.page)
                .and_modify(|e| {
                    if e.0 != n.writer {
                        e.2 = true;
                    }
                })
                .or_insert((n.writer, n.home, false));
        }
        let mut out: Vec<(u64, usize)> = per_page
            .into_iter()
            .filter(|&(_, (writer, home, multi))| !multi && writer != home)
            .map(|(page, (writer, _, _))| (page, writer))
            .collect();
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::Patch;

    const N: usize = 2;

    fn env(src: usize, msg: Msg) -> Envelope {
        let arrive = Duration::ZERO;
        Envelope {
            msg,
            arrive,
            src,
            seq: 0,
        }
    }

    fn acquire(from: usize, lock: u32) -> Envelope {
        let last_seq = 0;
        env(
            from,
            Msg::Acquire {
                lock,
                from,
                last_seq,
            },
        )
    }

    /// Every body no peer could have sent is refused, counted in
    /// `malformed_dropped` and answered by nothing — where the daemon used
    /// to panic on an index or an assertion, or (an obituary for a rank
    /// past `nprocs`) let a barrier finish one arrival short.
    #[test]
    fn forged_bodies_are_dropped_and_counted() {
        let page_size = DsmConfig::new(N).page_size;
        let page = |from| Msg::GetPage {
            page: 0,
            from,
            epoch: 0,
        };
        let release = |from| Msg::Release {
            lock: 0,
            from,
            notices: Vec::new(),
        };
        let overhang = Patch {
            offset: page_size as u32 - 2,
            data: vec![1; 4],
        };
        let foreign = Notice {
            page: 0,
            writer: 99,
            home: 0,
        };
        let diff = Msg::Diff {
            page: 0,
            from: 0,
            patches: [overhang].into_iter().collect(),
            epoch: 0,
        };
        let adopt = Msg::AdoptPage {
            page: 0,
            data: vec![0; 8],
        };
        let barrier = Msg::Barrier {
            from: 0,
            notices: Vec::new(),
        };
        let signal = Msg::SetCv {
            cv: 0,
            from: 0,
            notices: vec![foreign],
        };
        let obituary = Msg::Obituary {
            node: 99,
            incarnation: 0,
        };
        let arrive = |from| {
            let notices = Vec::new();
            env(from, Msg::Barrier { from, notices })
        };
        let overflow = Msg::Rejoin {
            node: 1,
            incarnation: 1,
            admit_at_round: 1,
            stride: u64::MAX,
        };
        // (what is wrong, daemon id, requests served first, forged request)
        let rows: Vec<(&str, usize, Vec<Envelope>, Envelope)> = vec![
            ("rank field past nprocs", 0, vec![], env(1, page(99))),
            ("request naming another worker", 0, vec![], env(1, page(0))),
            (
                "worker request from a daemon",
                0,
                vec![],
                env(N + 1, page(1)),
            ),
            (
                "control message from a worker",
                0,
                vec![],
                env(0, Msg::MigrateOut { page: 0, to: 1 }),
            ),
            (
                "MigrateOut to a rank past nprocs",
                0,
                vec![],
                env(N, Msg::MigrateOut { page: 0, to: 99 }),
            ),
            ("patch past the page end", 0, vec![], env(0, diff)),
            (
                "AdoptPage shorter than a page",
                0,
                vec![],
                env(N + 1, adopt),
            ),
            ("barrier at a nonzero daemon", 1, vec![], env(0, barrier)),
            ("acquire at the wrong manager", 0, vec![], acquire(0, 1)),
            (
                "release by a non-holder",
                0,
                vec![acquire(0, 0)],
                env(1, release(1)),
            ),
            (
                "release of a lock nobody took",
                0,
                vec![],
                env(0, release(0)),
            ),
            ("notice writer past nprocs", 0, vec![], env(0, signal)),
            (
                "obituary for a rank past nprocs",
                0,
                vec![],
                env(1, obituary),
            ),
            ("a peer's Shutdown", 0, vec![], env(N + 1, Msg::Shutdown)),
            (
                "a second arrival in one round",
                0,
                vec![arrive(0)],
                arrive(0),
            ),
            (
                "a rejoin deferred past u64::MAX",
                0,
                vec![arrive(0), arrive(1)],
                env(1, overflow),
            ),
        ];
        for (what, id, setup, forged) in rows {
            let mut daemon = Daemon::new(id, &DsmConfig::new(N), false);
            let mut out = Outbox::new();
            // Each link's requests are numbered in order.
            let mut next = HashMap::new();
            let mut numbered = |mut env: Envelope| {
                let seq = next.entry(env.src).or_insert(0);
                (env.seq, *seq) = (*seq, *seq + 1);
                env
            };
            for first in setup {
                daemon.step(numbered(first), &mut out);
            }
            let sent = out.len();
            assert_eq!(daemon.stats.malformed_dropped, 0, "{what}: setup refused");
            daemon.step(numbered(forged), &mut out);
            assert_eq!(daemon.stats.malformed_dropped, 1, "{what}: not counted");
            assert_eq!(out.len(), sent, "{what}: answered");
        }
    }
}
