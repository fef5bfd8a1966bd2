//! The DSM's message transports: in-process channels and real UDP
//! sockets behind one interface (DESIGN.md §5.12).
//!
//! A [`Transport`] produces, per rank, the four channel endpoints the
//! protocol layer runs on ([`RankWiring`]): senders toward every
//! daemon, senders toward every worker's reply channel, and this rank's
//! own two inboxes. The contract: **every envelope is delivered exactly
//! once, in order per `(peer, channel)` link**. `Node` and `Daemon` are
//! written against it (DESIGN.md §5.7) and never retransmit or dedup; the
//! transport decides whether a send crosses a thread or a real network:
//!
//! * [`ChannelTransport`] wires all ranks of one process directly
//!   together (a channel keeps the contract trivially) — the transport
//!   behind [`DsmSystem::run`](crate::DsmSystem::run);
//! * [`udp::UdpTransport`] wires **one** rank into a multi-process
//!   cluster described by a [`manifest::ClusterManifest`]: remote sends
//!   are encoded through the wire codec, framed into sequenced,
//!   checksummed datagrams, and driven through an ack/retransmit/dedup
//!   reliability layer against genuinely lossy I/O.
//!
//! The submodules carry the rest of the subsystem: [`link`] (one peer's
//! reliability state as a clock-free step function, which the UDP
//! transport wraps and the model checker drives), [`manifest`] (peer
//! discovery) and [`clock`] (the sanctioned real-sleep primitive for
//! `simulate: true`).

pub mod clock;
pub mod link;
pub mod manifest;
pub mod udp;

use crate::daemon::{Outbox, Outgoing};
use crate::msg::{Envelope, ReplyEnvelope};
use crate::stats::NodeStats;
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::time::Duration;

/// The channel endpoints one rank's protocol layer runs on.
///
/// Index convention matches the rest of the crate: `daemon_tx[d]`
/// reaches daemon `d`'s inbox, `reply_tx[w]` reaches worker `w`'s reply
/// channel. On the UDP transport, entries for remote ranks lead into
/// bounded per-link send queues instead of directly into an inbox.
pub struct RankWiring {
    /// Senders toward every daemon's inbox (used by this rank's worker
    /// for requests and by its daemon for daemon-to-daemon control).
    pub daemon_tx: Vec<Sender<Envelope>>,
    /// Senders toward every worker's reply channel (used by this rank's
    /// daemon to answer requests).
    pub reply_tx: Vec<Sender<ReplyEnvelope>>,
    /// This rank's daemon inbox.
    pub daemon_rx: Receiver<Envelope>,
    /// This rank's worker reply channel.
    pub reply_rx: Receiver<ReplyEnvelope>,
}

/// Sends a daemon's outbox front to back over a rank's channel endpoints:
/// control messages into `daemon_tx[to]`, replies into `reply_tx[to]`.
/// Both callers of [`Daemon::step`](crate::daemon::Daemon::step) flush
/// through here while still holding the daemon: its thread, and its own
/// worker stepping it inline. A closed channel means its owner panicked;
/// the rest are still served, so the run can tear down cleanly.
pub(crate) fn flush(
    out: &mut Outbox,
    daemon_tx: &[Sender<Envelope>],
    reply_tx: &[Sender<ReplyEnvelope>],
) {
    for send in out.drain(..) {
        match send {
            Outgoing::Daemon(to, env) => {
                let _ = daemon_tx[to].send(env);
            }
            Outgoing::Reply(to, env) => {
                let _ = reply_tx[to].send(env);
            }
        }
    }
}

/// Counters of one rank's transport (all zero for channel transports).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Datagrams put on the wire (including retransmissions and chaos
    /// duplicates, excluding chaos-dropped attempts).
    pub datagrams_sent: u64,
    /// Datagrams received and structurally parsed.
    pub datagrams_received: u64,
    /// Acknowledgement datagrams sent.
    pub acks_sent: u64,
    /// Data datagrams retransmitted by the RTO machinery.
    pub retransmits: u64,
    /// Retransmission rounds past `RetransmitPolicy::max_attempts`; the
    /// socket transport keeps trying at `max_rto` (a real peer may be
    /// slow rather than dead — death is the supervision layer's call).
    pub rto_escalations: u64,
    /// Duplicate data datagrams suppressed (and re-acked).
    pub dups_dropped: u64,
    /// Datagrams rejected by the frame checksum.
    pub corrupt_dropped: u64,
    /// Datagrams rejected as malformed for any other reason (truncated,
    /// bad tag, oversize, trailing bytes, undecodable payload).
    pub malformed_dropped: u64,
    /// Datagrams from another session (an earlier/later run on the same
    /// manifest) dropped unacknowledged.
    pub stale_session_dropped: u64,
    /// Out-of-order data datagrams parked for in-order delivery.
    pub reorder_stashed: u64,
    /// Out-of-order datagrams dropped because the reorder window was
    /// full (recovered by retransmission).
    pub reorder_overflow_dropped: u64,
    /// Outbound datagrams the fault plan dropped.
    pub chaos_dropped: u64,
    /// Outbound datagrams the fault plan corrupted in flight.
    pub chaos_corrupted: u64,
    /// Extra outbound copies the fault plan duplicated.
    pub chaos_duplicated: u64,
    /// Sum of send→ack round-trip times (first transmission to first
    /// acknowledgement).
    pub rtt_total: Duration,
    /// Number of round trips in `rtt_total`.
    pub rtt_samples: u64,
}

impl TransportStats {
    /// Folds these counters into the owning machine's [`NodeStats`]
    /// (as the daemon's counters are, by `NodeStats::merge`).
    pub fn fold_into(&self, stats: &mut NodeStats) {
        stats.measured_network += self.rtt_total;
        stats.datagrams_sent += self.datagrams_sent;
        stats.datagrams_received += self.datagrams_received;
        stats.retransmits += self.retransmits;
        stats.dups_dropped += self.dups_dropped;
        stats.corrupt_dropped += self.corrupt_dropped;
        stats.malformed_dropped +=
            self.malformed_dropped + self.stale_session_dropped + self.reorder_overflow_dropped;
    }

    /// Mean observed round-trip time, if any round trip completed.
    pub fn mean_rtt(&self) -> Option<Duration> {
        (self.rtt_samples > 0).then(|| self.rtt_total / self.rtt_samples as u32)
    }
}

/// Adds the counters one [`link::Link`] step moved into a rank's totals.
impl std::ops::AddAssign for TransportStats {
    fn add_assign(&mut self, o: Self) {
        self.datagrams_sent += o.datagrams_sent;
        self.datagrams_received += o.datagrams_received;
        self.acks_sent += o.acks_sent;
        self.retransmits += o.retransmits;
        self.rto_escalations += o.rto_escalations;
        self.dups_dropped += o.dups_dropped;
        self.corrupt_dropped += o.corrupt_dropped;
        self.malformed_dropped += o.malformed_dropped;
        self.stale_session_dropped += o.stale_session_dropped;
        self.reorder_stashed += o.reorder_stashed;
        self.reorder_overflow_dropped += o.reorder_overflow_dropped;
        self.chaos_dropped += o.chaos_dropped;
        self.chaos_corrupted += o.chaos_corrupted;
        self.chaos_duplicated += o.chaos_duplicated;
        self.rtt_total += o.rtt_total;
        self.rtt_samples += o.rtt_samples;
    }
}

/// A message transport: builds the channel fabric the protocol layer
/// runs on, reports its counters, and shuts down cleanly.
pub trait Transport {
    /// Number of ranks this transport connects.
    fn nprocs(&self) -> usize;

    /// Takes rank `r`'s wiring. Each rank's wiring can be taken once;
    /// a [`udp::UdpTransport`] only has its own rank's.
    ///
    /// # Panics
    /// If the wiring was already taken or `r` is not available here.
    fn wiring(&mut self, r: usize) -> RankWiring;

    /// Transport counters accumulated so far.
    fn stats(&self) -> TransportStats;

    /// Flushes outstanding traffic and stops any I/O threads. Idempotent;
    /// also runs on drop.
    fn shutdown(&mut self);
}

/// The in-process transport: every rank's channels wired directly
/// together, exactly the fabric [`DsmSystem::run`](crate::DsmSystem::run)
/// has always used. Deterministic (no real I/O, no real time) — the test
/// double the socket transport is checked against for bit-identical
/// output.
pub struct ChannelTransport {
    wirings: Vec<Option<RankWiring>>,
}

impl ChannelTransport {
    /// Builds the full-mesh channel fabric for `nprocs` ranks.
    pub fn new(nprocs: usize) -> Self {
        let mut daemon_tx = Vec::with_capacity(nprocs);
        let mut daemon_rx = Vec::with_capacity(nprocs);
        for _ in 0..nprocs {
            let (tx, rx) = unbounded::<Envelope>();
            daemon_tx.push(tx);
            daemon_rx.push(rx);
        }
        let mut reply_tx = Vec::with_capacity(nprocs);
        let mut reply_rx = Vec::with_capacity(nprocs);
        for _ in 0..nprocs {
            let (tx, rx) = unbounded::<ReplyEnvelope>();
            reply_tx.push(tx);
            reply_rx.push(rx);
        }
        let wirings = daemon_rx
            .into_iter()
            .zip(reply_rx)
            .map(|(drx, rrx)| {
                Some(RankWiring {
                    daemon_tx: daemon_tx.clone(),
                    reply_tx: reply_tx.clone(),
                    daemon_rx: drx,
                    reply_rx: rrx,
                })
            })
            .collect();
        Self { wirings }
    }
}

impl Transport for ChannelTransport {
    fn nprocs(&self) -> usize {
        self.wirings.len()
    }

    fn wiring(&mut self, r: usize) -> RankWiring {
        match self.wirings.get_mut(r).and_then(Option::take) {
            Some(w) => w,
            None => panic!("wiring for rank {r} unavailable or already taken"),
        }
    }

    fn stats(&self) -> TransportStats {
        TransportStats::default()
    }

    fn shutdown(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::Msg;

    #[test]
    fn channel_transport_routes_between_ranks() {
        let mut t = ChannelTransport::new(2);
        assert_eq!(t.nprocs(), 2);
        let w0 = t.wiring(0);
        let w1 = t.wiring(1);
        // Rank 0's sender toward daemon 1 reaches rank 1's daemon inbox.
        w0.daemon_tx[1]
            .send(Envelope {
                msg: Msg::Shutdown,
                arrive: Duration::ZERO,
                src: 0,
                seq: 9,
            })
            .expect("send");
        let env = w1.daemon_rx.recv().expect("recv");
        assert_eq!(env.seq, 9);
        assert!(t.stats() == TransportStats::default());
    }

    #[test]
    #[should_panic(expected = "already taken")]
    fn wiring_is_single_take() {
        let mut t = ChannelTransport::new(1);
        let _a = t.wiring(0);
        let _b = t.wiring(0);
    }

    #[test]
    fn fold_into_maps_counters() {
        let t = TransportStats {
            datagrams_sent: 5,
            retransmits: 2,
            corrupt_dropped: 1,
            malformed_dropped: 3,
            stale_session_dropped: 1,
            rtt_total: Duration::from_millis(10),
            rtt_samples: 4,
            ..Default::default()
        };
        let mut s = NodeStats::default();
        t.fold_into(&mut s);
        assert_eq!(s.datagrams_sent, 5);
        assert_eq!(s.retransmits, 2);
        assert_eq!(s.corrupt_dropped, 1);
        assert_eq!(s.malformed_dropped, 4);
        assert_eq!(s.measured_network, Duration::from_millis(10));
        assert_eq!(t.mean_rtt(), Some(Duration::from_micros(2500)));
    }
}
