//! The shipped UDP link under the model checker.
//!
//! [`LinkSpec`] builds two real [`Link`]s, rank 0's view of rank 1 and
//! rank 1's view of rank 0, and one datagram queue per direction. Every
//! datagram crosses as bytes: the link frames it with `to_frame`, and the
//! step that delivers the head of a queue parses it with `from_frame`
//! before stepping the other link. The processes are the two apps (rank 0
//! sends its next request once the last one was answered, rank 1 answers
//! each request it delivered); one delivery per queue; one timer per side,
//! which moves the shared virtual clock to its link's next deadline and
//! steps `Tick`; and an adversary that, within fixed budgets, drops,
//! duplicates or swaps the first two datagrams of either queue. A timer
//! fires with datagrams in flight only within a budget, and otherwise
//! only once both queues are empty, so every schedule ends.
//!
//! Each side sends an empty message, then one of `MAX_FRAG_PAYLOAD + 1`
//! bytes, which takes two fragments. Checked after every step: what each
//! side delivered is a byte-equal prefix of what the other sent, with no
//! duplicate, and a datagram of another session is neither delivered nor
//! acked. At quiescence: everything was delivered, and both links hold
//! nothing unacked and no deadline.
//!
//! [`Workload::Turnover`] starts rank 1 in the session before rank 0's,
//! with a message of that run still unacked; the scheduler picks when
//! rank 1 is rebuilt in rank 0's session. A [`Perturbation`] breaks the
//! harness, never the link, and must be caught ([`SEEDED`]).

use genomedsm_dsm::transport::link::{Event, Link, MAX_FRAG_PAYLOAD};
use genomedsm_dsm::transport::udp::{AckFrame, Datagram};
use genomedsm_dsm::{from_frame, RetransmitPolicy, CHAN_REPLY, CHAN_REQ};
use shuttle::check::Procs;
use shuttle::{Ctx, Process, Spec};
use std::collections::VecDeque;
use std::time::Duration;
use Proc::{App, Deliver, Dup, Lose, Rebuild, Swap, Timer};

/// The session both sides end in; a turnover starts rank 1 one before.
const SESSION: u64 = 2;
/// The channel each side sends on: requests one way, replies back.
const CHANS: [u8; 2] = [CHAN_REQ, CHAN_REPLY];
/// Messages per side: an empty one, then one of two fragments.
const MSGS: usize = 2;
/// Each side's big message; they differ, so a crossed delivery shows.
static BIG: [[u8; MAX_FRAG_PAYLOAD + 1]; 2] =
    [[1; MAX_FRAG_PAYLOAD + 1], [2; MAX_FRAG_PAYLOAD + 1]];

/// Side `s`'s message `i`.
fn message(s: usize, i: usize) -> &'static [u8] {
    if i == 0 {
        &[]
    } else {
        &BIG[s]
    }
}

/// What the two sides run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Both sides in one session: requests one way, replies back.
    Exchange,
    /// Rank 1 lags one session behind until the scheduler rebuilds it.
    Turnover,
}

/// A deliberate break, applied by the harness; the link runs unmodified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Perturbation {
    /// Right after each data datagram is transmitted, its sender is
    /// handed a forged ack for it, so the window evicts it before the
    /// real ack: a lost copy is never retransmitted.
    EvictBeforeAck,
}

/// How much the scheduler may spend on adversity.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Timer fires while a datagram is in flight.
    pub fires: u32,
    /// Datagrams dropped.
    pub drops: u32,
    /// Datagrams duplicated (the copy joins the back of its queue).
    pub dups: u32,
    /// Swaps of the first two datagrams of a queue.
    pub swaps: u32,
}

/// Two real links under a [`Workload`] and a [`Budget`], perturbed or not.
#[derive(Debug, Clone, Copy)]
pub struct LinkSpec(pub Workload, pub Budget, pub Option<Perturbation>);

/// The seeded regression: its report row, the workload that exercises
/// it, and the symptom the checker must report.
pub const SEEDED: (&str, LinkSpec, &str) = (
    "link/evict-before-ack",
    LinkSpec(
        Workload::Exchange,
        Budget {
            fires: 0,
            drops: 1,
            dups: 0,
            swaps: 0,
        },
        Some(Perturbation::EvictBeforeAck),
    ),
    "never delivered",
);

/// The links, the queues between them, the virtual clock, and what the
/// checks track.
pub struct World {
    now: Duration,
    links: [Link; 2],
    sessions: [u64; 2],
    /// `queues[s]`: the datagrams side `s` sent, oldest first.
    queues: [VecDeque<Vec<u8>>; 2],
    /// How many messages each side sent, and how many of the other
    /// side's it delivered.
    sent: [usize; 2],
    delivered: [usize; 2],
    budget: Budget,
    /// Rank 1 still runs the earlier session.
    lagging: bool,
    broken: Option<Perturbation>,
    violations: Vec<String>,
}

impl World {
    /// Nothing in flight and no turnover pending: a timer fires for free.
    fn settled(&self) -> bool {
        self.queues.iter().all(VecDeque::is_empty) && !self.lagging
    }

    /// Side `s`'s app sends `payload` as message `env_seq`.
    fn send(&mut self, s: usize, env_seq: u64, payload: Vec<u8>) {
        let (chan, arrive_ns) = (CHANS[s], 0);
        let event = Event::Send {
            chan,
            env_seq,
            arrive_ns,
            payload,
        };
        self.step(s, event);
    }

    /// Steps side `s`'s link on `event` and routes its outbox.
    fn step(&mut self, s: usize, event: Event) {
        let out = self.links[s].step(event, self.now);
        for t in out.transmit {
            self.queues[s].push_back(t.bytes);
            if self.broken == Some(Perturbation::EvictBeforeAck) {
                let (session, from, chan, seq) = (self.sessions[s], 1 - s, t.chan, t.seq);
                let ack = AckFrame {
                    session,
                    from,
                    chan,
                    seq,
                };
                self.links[s].step(Event::Datagram(Datagram::Ack(ack)), self.now);
            }
        }
        self.queues[s].extend(out.acks);
        for (_, env_seq, _, payload) in out.deliver {
            let i = self.delivered[s];
            self.delivered[s] += 1;
            if env_seq != i as u64 || i >= MSGS || payload != message(1 - s, i) {
                let len = payload.len();
                self.violations.push(format!(
                    "rank {s} delivered message {env_seq} ({len} bytes) where message {i} was due"
                ));
            }
        }
    }

    /// Hands the head of queue `q` to the other side.
    fn deliver(&mut self, q: usize, ctx: &mut Ctx) {
        let (to, Some(bytes)) = (1 - q, self.queues[q].pop_front()) else {
            return;
        };
        let datagram = match from_frame::<Datagram>(&bytes) {
            Ok(datagram) => datagram,
            Err(e) => return self.violations.push(format!("unparsable datagram: {e}")),
        };
        let (session, what) = match &datagram {
            Datagram::Data(d) => (d.session, format!("data {}.{}", d.seq, d.frag_idx)),
            Datagram::Ack(a) => (a.session, format!("ack {}", a.seq)),
        };
        ctx.trace(format!("rank {q} -> {to}: session {session} {what}"));
        let before = (self.queues[to].len(), self.delivered[to]);
        self.step(to, Event::Datagram(datagram));
        let answered = (self.queues[to].len(), self.delivered[to]) != before;
        if session != self.sessions[to] && answered {
            let own = self.sessions[to];
            self.violations.push(format!(
                "rank {to} in session {own} answered a datagram of session {session}"
            ));
        }
    }
}

/// One checker process: an app, a queue's delivery, a side's timer, the
/// adversary's drop, duplicate or swap on one queue, or the turnover.
#[derive(Debug, Clone, Copy)]
enum Proc {
    App(usize),
    Deliver(usize),
    Timer(usize),
    Lose(usize),
    Dup(usize),
    Swap(usize),
    Rebuild,
}

impl Process<World> for Proc {
    fn ready(&self, w: &World) -> bool {
        match *self {
            // Rank 0 asks once answered; rank 1 answers what it was asked.
            App(0) => w.sent[0] < MSGS && w.sent[0] == w.delivered[0],
            App(_) => w.sent[1] < w.delivered[1],
            Deliver(q) => !w.queues[q].is_empty(),
            Timer(s) => w.links[s].next_deadline().is_some() && (w.settled() || w.budget.fires > 0),
            Lose(q) => w.budget.drops > 0 && !w.queues[q].is_empty(),
            Dup(q) => w.budget.dups > 0 && !w.queues[q].is_empty(),
            Swap(q) => w.budget.swaps > 0 && w.queues[q].len() >= 2,
            Rebuild => w.lagging,
        }
    }

    fn done(&self, w: &World) -> bool {
        match *self {
            // Settled with no timer set, an app that cannot send now never will.
            App(s) => {
                let timers = w.links.iter().filter_map(Link::next_deadline);
                w.sent[s] == MSGS || !self.ready(w) && w.settled() && timers.count() == 0
            }
            Timer(s) => w.links[s].next_deadline().is_none(),
            _ => !self.ready(w),
        }
    }

    fn step(&mut self, w: &mut World, ctx: &mut Ctx) {
        match *self {
            App(s) => {
                let i = w.sent[s];
                w.sent[s] += 1;
                w.send(s, i as u64, message(s, i).to_vec());
                ctx.trace(format!("rank {s} sends message {i}"));
            }
            Deliver(q) => w.deliver(q, ctx),
            Timer(s) => {
                if !w.settled() {
                    w.budget.fires -= 1;
                }
                let due = w.links[s].next_deadline().unwrap_or_default();
                w.now = w.now.max(due);
                w.step(s, Event::Tick);
                ctx.trace(format!("rank {s} timer at {:?}", w.now));
            }
            Lose(q) => {
                w.budget.drops -= 1;
                w.queues[q].pop_front();
                ctx.trace(format!("drop the head of queue {q}"));
            }
            Dup(q) => {
                w.budget.dups -= 1;
                let head = w.queues[q][0].clone();
                w.queues[q].push_back(head);
                ctx.trace(format!("duplicate the head of queue {q}"));
            }
            Swap(q) => {
                w.budget.swaps -= 1;
                w.queues[q].swap(0, 1);
                ctx.trace(format!("swap the first two of queue {q}"));
            }
            Rebuild => {
                w.links[1] = Link::new(SESSION, 1, RetransmitPolicy::default());
                (w.sessions[1], w.lagging) = (SESSION, false);
                ctx.trace("rank 1 rebuilt in the new session");
            }
        }
    }
}

impl Spec for LinkSpec {
    type S = World;

    fn build(&self) -> (World, Procs<World>) {
        let LinkSpec(workload, budget, broken) = *self;
        let lagging = workload == Workload::Turnover;
        let old = SESSION - u64::from(lagging);
        let policy = RetransmitPolicy::default();
        let mut world = World {
            now: Duration::ZERO,
            links: [Link::new(SESSION, 0, policy), Link::new(old, 1, policy)],
            sessions: [SESSION, old],
            queues: Default::default(),
            sent: [0; 2],
            delivered: [0; 2],
            budget,
            lagging,
            broken,
            violations: Vec::new(),
        };
        if lagging {
            // Rank 1's earlier run still has a message in flight.
            world.send(1, 0, vec![0xee; 3]);
        }
        let mut procs: Procs<World> = Vec::new();
        for kind in [App, Deliver, Timer, Lose, Dup, Swap] {
            procs.extend((0..2).map(|s| Box::new(kind(s)) as Box<dyn Process<World>>));
        }
        if lagging {
            procs.push(Box::new(Rebuild));
        }
        (world, procs)
    }

    fn invariant(&self, w: &World) -> Result<(), String> {
        w.violations.first().cloned().map_or(Ok(()), Err)
    }

    fn terminal(&self, w: &World) -> Result<(), String> {
        for s in 0..2 {
            let got = w.delivered[1 - s];
            if got < MSGS {
                return Err(format!("message {got} of rank {s} never delivered"));
            }
            let (unacked, due) = (w.links[s].unacked(), w.links[s].next_deadline());
            if unacked > 0 || due.is_some() {
                return Err(format!(
                    "rank {s} quiescent with {unacked} unacked, deadline {due:?}"
                ));
            }
        }
        Ok(())
    }
}
