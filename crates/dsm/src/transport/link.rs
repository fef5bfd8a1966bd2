//! One peer's end of a UDP link, as a step function (DESIGN.md §5.12).
//!
//! A [`Link`] owns everything reliability needs toward one remote rank,
//! per logical channel: the send window (next sequence number, unacked
//! frames with their attempt count, and the retransmission timers), the
//! receive state (next expected sequence number, the bounded reorder
//! stash, fragment reassembly), and the session fence. Its one entry
//! point, [`Link::step`], takes an [`Event`] and the current time and
//! returns an [`Outbox`]: datagrams to transmit, acks to send, payloads to
//! deliver in order, and the counters the step moved.
//!
//! `now` is an argument: the link reads no clock and touches no socket,
//! queue or lock, so its outputs are a function of its inputs. The socket
//! transport ([`super::udp`]) steps it from its pump against real time;
//! the model checker steps two of them against a virtual clock it
//! advances itself, and a failing schedule replays from its seed.

use super::udp::{AckFrame, DataFrame, Datagram};
use super::TransportStats;
use crate::codec::to_frame;
use crate::net::RetransmitPolicy;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::time::Duration;

/// Largest payload fragment per datagram: comfortably under the UDP
/// payload ceiling (~65 507 B) with room for headers.
pub const MAX_FRAG_PAYLOAD: usize = 32 * 1024;
/// Largest reassembled payload the receiver will buffer (matches the
/// codec's frame bound).
const MAX_MESSAGE: usize = 1 << 28;
/// Out-of-order datagrams parked per channel before the receiver starts
/// shedding (shed copies are recovered by retransmission).
const REORDER_CAP: usize = 512;

/// What a [`Link`] is stepped on.
#[derive(Debug)]
pub enum Event {
    /// An application message to send on `chan`, fragmented as needed.
    Send {
        /// Logical channel (`CHAN_REQ`, `CHAN_REPLY` or `CHAN_DAEMON`).
        chan: u8,
        /// The protocol layer's own sequence number, carried through.
        env_seq: u64,
        /// Virtual arrival time carried through, in nanoseconds.
        arrive_ns: u64,
        /// The encoded message.
        payload: Vec<u8>,
    },
    /// A datagram from this link's peer, already parsed by `from_frame`.
    Datagram(Datagram),
    /// Fires every retransmission timer due at `now`.
    Tick,
}

/// One data datagram to put on the wire. `chan`, `seq` and `attempt`
/// name the transmission for a fault plan's fate.
#[derive(Debug, Clone)]
pub struct Transmit {
    /// Logical channel.
    pub chan: u8,
    /// Transport sequence number on that channel.
    pub seq: u64,
    /// 0 for the first transmission, then one per retransmission.
    pub attempt: u32,
    /// The framed datagram.
    pub bytes: Vec<u8>,
}

/// A reassembled message delivered in order: `(chan, env_seq, arrive_ns,
/// payload)`.
pub type Delivery = (u8, u64, u64, Vec<u8>);

/// What one step asks of its caller.
#[derive(Debug, Default)]
pub struct Outbox {
    /// Data datagrams to transmit.
    pub transmit: Vec<Transmit>,
    /// Framed acknowledgements to send.
    pub acks: Vec<Vec<u8>>,
    /// Messages completed in order.
    pub deliver: Vec<Delivery>,
    /// Counters this step moved.
    pub stats: TransportStats,
}

/// One unacknowledged data datagram: its latest transmission, and when
/// the first left.
struct Pending(Transmit, Duration);

/// One logical channel of the link, both directions.
#[derive(Default)]
struct Chan {
    next_seq: u64,
    unacked: BTreeMap<u64, Pending>,
    /// Next transport sequence number to deliver.
    expected: u64,
    /// Out-of-order datagrams parked until the gap fills.
    stash: BTreeMap<u64, DataFrame>,
    /// Reassembly buffer of the in-progress logical message.
    partial: Vec<u8>,
    /// Fragments accumulated so far.
    partial_frags: u32,
}

/// One rank's reliable link to one peer (module docs).
pub struct Link {
    session: u64,
    me: usize,
    policy: RetransmitPolicy,
    /// Indexed by channel id; an id past the end is malformed.
    chans: [Chan; 3],
    /// `(due, chan, seq)`; the top is always a live timer.
    timers: BinaryHeap<Reverse<(Duration, u8, u64)>>,
}

impl Link {
    /// Rank `me`'s link to one peer in `session`.
    pub fn new(session: u64, me: usize, policy: RetransmitPolicy) -> Self {
        Self {
            session,
            me,
            policy,
            chans: Default::default(),
            timers: BinaryHeap::new(),
        }
    }

    /// Steps the link on `event` at time `now`.
    pub fn step(&mut self, event: Event, now: Duration) -> Outbox {
        let mut out = Outbox::default();
        match event {
            Event::Send {
                chan,
                env_seq,
                arrive_ns,
                payload,
            } => self.send(chan, env_seq, arrive_ns, &payload, now, &mut out),
            Event::Datagram(datagram) => self.receive(datagram, now, &mut out),
            Event::Tick => self.fire(now, &mut out),
        }
        // Drop acked timers off the top, so `next_deadline` is a peek.
        while let Some(&Reverse((_, chan, seq))) = self.timers.peek() {
            let chan = self.chans.get(usize::from(chan));
            if chan.is_some_and(|c| c.unacked.contains_key(&seq)) {
                break;
            }
            self.timers.pop();
        }
        out
    }

    /// When the next retransmission timer fires, if any frame is unacked.
    pub fn next_deadline(&self) -> Option<Duration> {
        self.timers.peek().map(|Reverse((due, ..))| *due)
    }

    /// Data datagrams sent and not yet acknowledged.
    pub fn unacked(&self) -> usize {
        self.chans.iter().map(|c| c.unacked.len()).sum()
    }

    fn send(
        &mut self,
        chan: u8,
        env_seq: u64,
        arrive_ns: u64,
        payload: &[u8],
        now: Duration,
        out: &mut Outbox,
    ) {
        let (session, from) = (self.session, self.me);
        let Some(c) = self.chans.get_mut(usize::from(chan)) else {
            return;
        };
        let frags: Vec<&[u8]> = if payload.is_empty() {
            vec![&[]]
        } else {
            payload.chunks(MAX_FRAG_PAYLOAD).collect()
        };
        let frag_count = frags.len() as u32;
        let due = now + self.policy.rto(0);
        for (idx, frag) in frags.into_iter().enumerate() {
            let seq = c.next_seq;
            c.next_seq += 1;
            let bytes = to_frame(&Datagram::Data(DataFrame {
                session,
                from,
                chan,
                seq,
                frag_idx: idx as u32,
                frag_count,
                env_seq,
                arrive_ns,
                payload: frag.to_vec(),
            }));
            let frame = Transmit {
                chan,
                seq,
                attempt: 0,
                bytes,
            };
            out.transmit.push(frame.clone());
            c.unacked.insert(seq, Pending(frame, now));
            self.timers.push(Reverse((due, chan, seq)));
        }
    }

    /// Retransmits every frame whose timer is due: [`RetransmitPolicy`]
    /// backoff, and past `max_attempts` it keeps retrying at `max_rto` and
    /// counts the escalation — a slow peer is not a dead peer, and
    /// declaring death is the supervision layer's job.
    fn fire(&mut self, now: Duration, out: &mut Outbox) {
        while let Some(&Reverse((due, chan, seq))) = self.timers.peek() {
            if due > now {
                break;
            }
            self.timers.pop();
            let c = self.chans.get_mut(usize::from(chan));
            let Some(Pending(frame, _)) = c.and_then(|c| c.unacked.get_mut(&seq)) else {
                continue; // acked
            };
            frame.attempt += 1;
            let rto = if frame.attempt >= self.policy.max_attempts {
                out.stats.rto_escalations += 1;
                self.policy.max_rto
            } else {
                self.policy.rto(frame.attempt)
            };
            self.timers.push(Reverse((now + rto, chan, seq)));
            out.stats.retransmits += 1;
            out.transmit.push(frame.clone());
        }
    }

    fn receive(&mut self, datagram: Datagram, now: Duration, out: &mut Outbox) {
        let (session, chan) = match &datagram {
            Datagram::Data(d) => (d.session, d.chan),
            Datagram::Ack(a) => (a.session, a.chan),
        };
        if session != self.session {
            // A retransmission from an earlier run on this manifest (or a
            // datagram from a run not joined yet). Dropped *unacknowledged*:
            // a live later run must keep retransmitting until we join it.
            out.stats.stale_session_dropped += 1;
            return;
        }
        let Some(c) = self.chans.get_mut(usize::from(chan)) else {
            out.stats.malformed_dropped += 1;
            return;
        };
        let data = match datagram {
            Datagram::Ack(ack) => {
                // Karn's rule: only un-retransmitted datagrams yield RTT
                // samples (a retransmitted one's ack is ambiguous).
                let pending = c.unacked.remove(&ack.seq);
                if let Some(Pending(_, first_sent)) = pending.filter(|p| p.0.attempt == 0) {
                    out.stats.rtt_total += now.saturating_sub(first_sent);
                    out.stats.rtt_samples += 1;
                }
                return;
            }
            Datagram::Data(data) => data,
        };
        let from = self.me;
        let ack = |seq| {
            to_frame(&Datagram::Ack(AckFrame {
                session,
                from,
                chan,
                seq,
            }))
        };
        if data.seq < c.expected {
            // Duplicate of an already-delivered datagram: the ack was
            // lost; re-ack so the sender's window drains.
            out.stats.dups_dropped += 1;
            out.acks.push(ack(data.seq));
            return;
        }
        if data.seq > c.expected {
            if c.stash.len() < REORDER_CAP {
                out.acks.push(ack(data.seq));
                if c.stash.insert(data.seq, data).is_none() {
                    out.stats.reorder_stashed += 1;
                } else {
                    out.stats.dups_dropped += 1;
                }
            } else {
                // Window full: shed without acking; the sender's
                // retransmission redelivers once the gap fills.
                out.stats.reorder_overflow_dropped += 1;
            }
            return;
        }
        out.acks.push(ack(data.seq));
        c.accept_in_order(data, out);
        // The gap may have closed: drain consecutive stashed seqs.
        while let Some(next) = c.stash.remove(&c.expected) {
            c.accept_in_order(next, out);
        }
    }
}

impl Chan {
    /// Consumes the next-in-order datagram: advances the window,
    /// accumulates fragments, and delivers a completed message.
    fn accept_in_order(&mut self, data: DataFrame, out: &mut Outbox) {
        self.expected = data.seq + 1;
        if data.frag_idx != self.partial_frags
            || self.partial.len() + data.payload.len() > MAX_MESSAGE
        {
            // A fragment stream that restarts or overflows is only possible
            // with a buggy/malicious sender; typed drop, never a panic.
            out.stats.malformed_dropped += 1;
            self.partial.clear();
            self.partial_frags = 0;
            if data.frag_idx != 0 {
                return;
            }
        }
        self.partial.extend_from_slice(&data.payload);
        self.partial_frags += 1;
        if self.partial_frags < data.frag_count {
            return; // more fragments coming
        }
        self.partial_frags = 0;
        let payload = std::mem::take(&mut self.partial);
        out.deliver
            .push((data.chan, data.env_seq, data.arrive_ns, payload));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::from_frame;
    use crate::net::{CHAN_DAEMON, CHAN_REQ};

    const MS: Duration = Duration::from_millis(1);

    fn send(link: &mut Link, payload: Vec<u8>, now: Duration) -> Vec<Transmit> {
        let event = Event::Send {
            chan: CHAN_REQ,
            env_seq: 9,
            arrive_ns: 5,
            payload,
        };
        link.step(event, now).transmit
    }

    fn parse(bytes: &[u8]) -> Datagram {
        from_frame(bytes).expect("a link frames what it sends")
    }

    fn ack(session: u64, chan: u8, seq: u64) -> Event {
        let from = 1;
        Event::Datagram(Datagram::Ack(AckFrame {
            session,
            from,
            chan,
            seq,
        }))
    }

    /// The backoff, the escalation past `max_attempts`, and Karn's rule:
    /// a retransmitted frame's ack evicts it but yields no RTT sample.
    #[test]
    fn retransmits_back_off_and_karns_rule_holds() {
        let policy = RetransmitPolicy {
            initial_rto: 2 * MS,
            max_rto: 8 * MS,
            max_attempts: 3,
        };
        let mut a = Link::new(1, 0, policy);
        assert_eq!(send(&mut a, vec![7], Duration::ZERO).len(), 1);
        let mut now = Duration::ZERO;
        for (attempt, rto, escalations) in [(1, 4, 0), (2, 8, 0), (3, 8, 1), (4, 8, 1)] {
            now = a.next_deadline().expect("unacked frame has a timer");
            let out = a.step(Event::Tick, now);
            assert_eq!(out.transmit.len(), 1);
            assert_eq!(out.transmit[0].attempt, attempt);
            assert_eq!(out.stats.rto_escalations, escalations);
            assert_eq!(a.next_deadline(), Some(now + rto * MS));
        }
        let out = a.step(ack(1, CHAN_REQ, 0), now + MS);
        assert_eq!((out.stats.rtt_samples, a.unacked()), (0, 0));
        assert_eq!(a.next_deadline(), None);

        send(&mut a, vec![8], now);
        let out = a.step(ack(1, CHAN_REQ, 1), now + 3 * MS);
        assert_eq!(out.stats.rtt_samples, 1);
        assert_eq!(out.stats.rtt_total, 3 * MS);
    }

    /// Two fragments arriving out of order are stashed, acked, and
    /// delivered once, whole; duplicates are re-acked, never redelivered;
    /// another session is dropped unacked and an unknown channel is
    /// malformed, data and acks alike.
    #[test]
    fn fragments_reorder_dedup_and_fences() {
        let policy = RetransmitPolicy::default();
        let (mut a, mut b) = (Link::new(1, 0, policy), Link::new(1, 1, policy));
        let message = vec![3; MAX_FRAG_PAYLOAD + 1];
        let frames = send(&mut a, message.clone(), Duration::ZERO);
        assert_eq!(frames.len(), 2);
        let later = b.step(Event::Datagram(parse(&frames[1].bytes)), MS);
        assert_eq!((later.acks.len(), later.stats.reorder_stashed), (1, 1));
        assert!(later.deliver.is_empty());
        let first = b.step(Event::Datagram(parse(&frames[0].bytes)), MS);
        assert_eq!(first.deliver, vec![(CHAN_REQ, 9, 5, message)]);
        let again = b.step(Event::Datagram(parse(&frames[0].bytes)), MS);
        assert_eq!((again.acks.len(), again.stats.dups_dropped), (1, 1));
        assert!(again.deliver.is_empty());

        let stale = Link::new(2, 1, policy).step(Event::Datagram(parse(&frames[0].bytes)), MS);
        assert_eq!(stale.stats.stale_session_dropped, 1);
        assert!(stale.acks.is_empty() && stale.deliver.is_empty());

        let Datagram::Data(mut data) = parse(&frames[0].bytes) else {
            panic!("a data frame");
        };
        data.chan = CHAN_DAEMON + 5;
        let bad = b.step(Event::Datagram(Datagram::Data(data)), MS);
        assert_eq!(bad.stats.malformed_dropped, 1);
        assert!(bad.acks.is_empty());
        let bad = a.step(ack(1, CHAN_DAEMON + 5, 0), MS);
        assert_eq!((bad.stats.malformed_dropped, a.unacked()), (1, 2));
    }
}
