//! Model of the UDP transport's per-link retransmit/dedup window
//! (`genomedsm_dsm::transport::udp`) under reordering and duplication.
//!
//! One directed link carries `msgs` requests. The sender keeps up to
//! `window` fresh requests in flight and may retransmit any unacked one
//! at any moment (a timeout firing is a scheduler choice, not a timer).
//! The adversary may additionally duplicate in-flight datagrams
//! (`dup_budget`) and swap adjacent ones (`swap_budget`) — the loopback
//! chaos the socket tests inject for real. The receiver mirrors the
//! transport's window — the only retransmit/dedup there is; the protocol
//! layer above assumes exactly-once delivery (DESIGN.md §5.7). The
//! model's cached reply is the pump's `unacked` entry of the reply
//! datagram, which lives until that datagram's ack:
//!
//! * a fresh in-order request (`seq == next`) is **executed** (applied to
//!   the app state), its reply is cached, and the reply is sent;
//! * a future request (`seq > next`) is stashed until the gap fills
//!   (the transport's reorder stash);
//! * a duplicate (`seq < next`) is answered from the **reply cache** —
//!   re-execution would break exactly-once;
//! * the cached reply is evicted only when the sender confirms it
//!   received the reply (the ack), because until then a retransmitted
//!   duplicate can still arrive and must be answered from the cache.
//!
//! Checked properties: every request is executed **exactly once**, in
//! seq order, the stash never exceeds the window, and nothing is left in
//! flight at the end.
//!
//! The `bug_evict_before_ack` knob is the provably-broken variant: the
//! receiver evicts the cached reply the moment the reply is *sent*,
//! before the sender's ack. A duplicate that is still in flight (or a
//! retransmission racing the reply) then finds no cached reply and has
//! to re-execute the request to answer it — a double execution the
//! checker finds in a handful of steps.

use shuttle::{Ctx, Process, Spec};
use std::collections::BTreeSet;

/// How many times the sender may retransmit each request. The link never
/// loses datagrams in this model, so retransmissions are pure adversity;
/// two per request already exposes every cache-lifetime race.
const RETRIES: usize = 2;

/// Shared state of the link: the three in-flight channels plus both
/// endpoints' protocol state.
pub struct LinkWorld {
    /// In-flight request seqs, head = next to be received.
    requests: Vec<usize>,
    /// In-flight reply seqs.
    replies: Vec<usize>,
    /// In-flight "reply received" confirmations (evict permissions).
    evict_acks: Vec<usize>,
    // --- sender ---
    next_to_send: usize,
    /// Reply received for seq (sender side).
    acked: Vec<bool>,
    retransmit_left: Vec<usize>,
    // --- receiver ---
    /// Next fresh seq the receiver will execute.
    next: usize,
    /// Future seqs held back until the gap fills.
    stash: BTreeSet<usize>,
    /// Executed seqs whose reply is still cached.
    reply_cache: BTreeSet<usize>,
    /// Per-seq execution count (the exactly-once ledger).
    applied: Vec<u32>,
    /// Application order.
    log: Vec<usize>,
    // --- adversary budgets ---
    dup_budget: usize,
    swap_budget: usize,
}

impl LinkWorld {
    fn unacked_sent(&self) -> usize {
        (0..self.next_to_send).filter(|&s| !self.acked[s]).count()
    }

    /// Executes seq `s`: apply, cache the reply, send it. In bug mode the
    /// cache entry dies immediately ("evicted before ack").
    fn execute(&mut self, s: usize, bug: bool) {
        self.applied[s] += 1;
        self.log.push(s);
        self.reply_cache.insert(s);
        self.replies.push(s);
        if bug {
            self.reply_cache.remove(&s);
        }
    }
}

/// Sender half A: injects fresh requests while the window has room.
struct SendProc {
    msgs: usize,
    window: usize,
}

impl Process<LinkWorld> for SendProc {
    fn ready(&self, w: &LinkWorld) -> bool {
        w.next_to_send < self.msgs && w.unacked_sent() < self.window
    }
    fn done(&self, w: &LinkWorld) -> bool {
        w.next_to_send == self.msgs
    }
    fn step(&mut self, w: &mut LinkWorld, ctx: &mut Ctx) {
        let s = w.next_to_send;
        w.requests.push(s);
        w.next_to_send += 1;
        ctx.trace(format!("send request {s}"));
    }
}

/// Sender half B: a timeout firing — retransmit the lowest unacked
/// request that still has retry budget.
struct RetransmitProc;

impl RetransmitProc {
    fn candidate(w: &LinkWorld) -> Option<usize> {
        (0..w.next_to_send).find(|&s| !w.acked[s] && w.retransmit_left[s] > 0)
    }
}

impl Process<LinkWorld> for RetransmitProc {
    fn ready(&self, w: &LinkWorld) -> bool {
        Self::candidate(w).is_some()
    }
    fn done(&self, w: &LinkWorld) -> bool {
        // No more retransmissions will ever be possible: everything sent
        // is acked or out of budget, and sending is over.
        w.next_to_send == w.acked.len() && Self::candidate(w).is_none()
    }
    fn step(&mut self, w: &mut LinkWorld, ctx: &mut Ctx) {
        if let Some(s) = Self::candidate(w) {
            w.retransmit_left[s] -= 1;
            w.requests.push(s);
            ctx.trace(format!("retransmit request {s}"));
        }
    }
}

/// Sender half C: consumes replies; the first reply for a seq acks it
/// and grants the receiver permission to evict the cached reply.
struct ReplyProc;

impl Process<LinkWorld> for ReplyProc {
    fn ready(&self, w: &LinkWorld) -> bool {
        !w.replies.is_empty()
    }
    fn done(&self, w: &LinkWorld) -> bool {
        w.replies.is_empty() && w.acked.iter().all(|&a| a) && w.requests.is_empty()
    }
    fn step(&mut self, w: &mut LinkWorld, ctx: &mut Ctx) {
        let s = w.replies.remove(0);
        if w.acked[s] {
            ctx.trace(format!("duplicate reply {s} ignored"));
        } else {
            w.acked[s] = true;
            w.evict_acks.push(s);
            ctx.trace(format!("reply {s} acked"));
        }
    }
}

/// The receiver: transport reorder window + daemon reply cache.
struct ReceiverProc {
    bug_evict_before_ack: bool,
}

impl Process<LinkWorld> for ReceiverProc {
    fn ready(&self, w: &LinkWorld) -> bool {
        !w.requests.is_empty() || !w.evict_acks.is_empty()
    }
    fn done(&self, w: &LinkWorld) -> bool {
        w.requests.is_empty()
            && w.evict_acks.is_empty()
            && w.replies.is_empty()
            && w.acked.iter().all(|&a| a)
    }
    fn step(&mut self, w: &mut LinkWorld, ctx: &mut Ctx) {
        if !w.evict_acks.is_empty() {
            let s = w.evict_acks.remove(0);
            w.reply_cache.remove(&s);
            ctx.trace(format!("evict cached reply {s}"));
            return;
        }
        let s = w.requests.remove(0);
        if s == w.next {
            w.execute(s, self.bug_evict_before_ack);
            w.next += 1;
            ctx.trace(format!("execute request {s}"));
            // Drain the stash now that the gap filled.
            while w.stash.remove(&w.next) {
                let n = w.next;
                w.execute(n, self.bug_evict_before_ack);
                w.next += 1;
                ctx.trace(format!("execute stashed request {n}"));
            }
        } else if s > w.next {
            w.stash.insert(s);
            ctx.trace(format!("stash future request {s}"));
        } else if w.reply_cache.contains(&s) {
            w.replies.push(s);
            ctx.trace(format!("duplicate request {s}: resend cached reply"));
        } else if self.bug_evict_before_ack {
            // The dedup record is gone; the only way to answer is to run
            // the request again — the double execution the checker must
            // catch.
            w.execute(s, true);
            ctx.trace(format!("duplicate request {s}: cache miss, RE-EXECUTED"));
        } else {
            // Healthy mode: the cache is only evicted after the sender
            // acked the reply, so this duplicate is stale and needs no
            // answer.
            ctx.trace(format!("stale duplicate request {s} dropped"));
        }
    }
}

/// Adversary: duplicate the datagram at the head of the request channel.
struct DupProc;

impl Process<LinkWorld> for DupProc {
    fn ready(&self, w: &LinkWorld) -> bool {
        w.dup_budget > 0 && !w.requests.is_empty()
    }
    fn done(&self, w: &LinkWorld) -> bool {
        // Budget spent, or no datagram will ever be in flight again.
        w.dup_budget == 0 || (w.requests.is_empty() && w.acked.iter().all(|&a| a))
    }
    fn step(&mut self, w: &mut LinkWorld, ctx: &mut Ctx) {
        let s = w.requests[0];
        w.requests.push(s);
        w.dup_budget -= 1;
        ctx.trace(format!("duplicate in-flight request {s}"));
    }
}

/// Adversary: swap the two head datagrams of the request channel
/// (adjacent swaps compose into arbitrary reorderings across steps).
struct SwapProc;

impl Process<LinkWorld> for SwapProc {
    fn ready(&self, w: &LinkWorld) -> bool {
        w.swap_budget > 0 && w.requests.len() >= 2
    }
    fn done(&self, w: &LinkWorld) -> bool {
        // Budget spent, or two datagrams can never be in flight again.
        w.swap_budget == 0 || (w.requests.is_empty() && w.acked.iter().all(|&a| a))
    }
    fn step(&mut self, w: &mut LinkWorld, ctx: &mut Ctx) {
        w.requests.swap(0, 1);
        w.swap_budget -= 1;
        ctx.trace(format!(
            "reorder: {} now ahead of {}",
            w.requests[0], w.requests[1]
        ));
    }
}

/// The per-link retransmit/dedup model.
pub struct RetransmitModel {
    /// Requests to deliver exactly once.
    pub msgs: usize,
    /// Sender in-flight window (also bounds the receiver stash).
    pub window: usize,
    /// Datagram duplications the adversary may inject.
    pub dup_budget: usize,
    /// Adjacent reorder swaps the adversary may perform.
    pub swap_budget: usize,
    /// Evict the cached reply when the reply is sent instead of when it
    /// is acked — the provably-broken variant.
    pub bug_evict_before_ack: bool,
}

impl Spec for RetransmitModel {
    type S = LinkWorld;

    fn build(&self) -> (LinkWorld, Vec<Box<dyn Process<LinkWorld>>>) {
        let world = LinkWorld {
            requests: Vec::new(),
            replies: Vec::new(),
            evict_acks: Vec::new(),
            next_to_send: 0,
            acked: vec![false; self.msgs],
            retransmit_left: vec![RETRIES; self.msgs],
            next: 0,
            stash: BTreeSet::new(),
            reply_cache: BTreeSet::new(),
            applied: vec![0; self.msgs],
            log: Vec::new(),
            dup_budget: self.dup_budget,
            swap_budget: self.swap_budget,
        };
        let procs: Vec<Box<dyn Process<LinkWorld>>> = vec![
            Box::new(SendProc {
                msgs: self.msgs,
                window: self.window,
            }),
            Box::new(RetransmitProc),
            Box::new(ReplyProc),
            Box::new(ReceiverProc {
                bug_evict_before_ack: self.bug_evict_before_ack,
            }),
            Box::new(DupProc),
            Box::new(SwapProc),
        ];
        (world, procs)
    }

    fn invariant(&self, w: &LinkWorld) -> Result<(), String> {
        if let Some(s) = (0..self.msgs).find(|&s| w.applied[s] > 1) {
            return Err(format!(
                "exactly-once violated: request {s} executed {} times",
                w.applied[s]
            ));
        }
        if w.stash.len() > self.window {
            return Err(format!(
                "reorder stash overran the window: {} held with window {}",
                w.stash.len(),
                self.window
            ));
        }
        if w.log.windows(2).any(|p| p[1] != p[0] + 1) || w.log.first().is_some_and(|&f| f != 0) {
            return Err(format!("delivery order violated: log {:?}", w.log));
        }
        Ok(())
    }

    fn terminal(&self, w: &LinkWorld) -> Result<(), String> {
        if let Some(s) = (0..self.msgs).find(|&s| w.applied[s] != 1) {
            return Err(format!(
                "request {s} executed {} times at the end",
                w.applied[s]
            ));
        }
        if !w.requests.is_empty() || !w.replies.is_empty() || !w.evict_acks.is_empty() {
            return Err("datagrams left in flight after completion".into());
        }
        if !w.stash.is_empty() {
            return Err(format!("stash not drained: {:?}", w.stash));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shuttle::Config;

    #[test]
    fn healthy_link_is_exactly_once_exhaustively() {
        let report = shuttle::check_exhaustive(
            &RetransmitModel {
                msgs: 2,
                window: 2,
                dup_budget: 1,
                swap_budget: 1,
                bug_evict_before_ack: false,
            },
            &Config {
                max_schedules: 200_000,
                ..Config::default()
            },
        );
        assert!(
            report.failure.is_none(),
            "healthy retransmit window failed: {}",
            report.failure.unwrap()
        );
        assert!(report.schedules > 100);
    }

    #[test]
    fn evict_before_ack_double_executes() {
        let report = shuttle::check_exhaustive(
            &RetransmitModel {
                msgs: 2,
                window: 2,
                dup_budget: 1,
                swap_budget: 1,
                bug_evict_before_ack: true,
            },
            &Config {
                max_schedules: 200_000,
                ..Config::default()
            },
        );
        let failure = report.failure.expect("early eviction must double-execute");
        assert!(
            failure.reason.contains("executed 2 times"),
            "unexpected failure: {}",
            failure.reason
        );
    }
}
