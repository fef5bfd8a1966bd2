//! The real-sockets transport: one UDP socket per rank, reliability on
//! top of genuinely lossy I/O.
//!
//! [`UdpTransport`] wires **one** rank of a multi-process cluster. Every
//! remote `Envelope`/`ReplyEnvelope` is encoded through the wire codec
//! ([`crate::codec`]), wrapped in an outer checksummed [`Datagram`]
//! carrying `(session, from, chan, seq, fragment)` headers, and handed to
//! its peer's [`Link`]: a clock-free step function per remote rank that
//! holds the ack/retransmit window, the dedup/reorder/reassembly window
//! and the session fence. The protocol layer above sees exactly the
//! channel semantics it has always had: reliable, in-order delivery per
//! `(peer, chan)` link. This file is the thread-and-socket wrapper around
//! the links, the way `Daemon::run` wraps `Daemon::step`.
//!
//! ## Thread structure (per process)
//!
//! * one **forwarder** per remote peer and direction (bounded queues):
//!   drains the channel the protocol layer sends into, encodes the
//!   payload, and hands it to the pump;
//! * one **pump**: steps the links on sends and due timers against real
//!   time and transmits what they emit;
//! * one **receiver**: parses datagrams (`from_frame::<`[`Datagram`]`>` —
//!   every malformation is a typed [`DsmError`] and a counter, never a
//!   panic), steps the sender's link (a rank out of range, or this rank,
//!   has none: malformed), sends the acks at once and decodes in-order
//!   deliveries into the local inboxes. Acks leave from the thread that
//!   read the datagram, with no hop: when a session's last ack lands sets
//!   which rank's linger ends first (DESIGN.md §5.12).
//!
//! ## Chaos on real datagrams
//!
//! A [`FaultPlan`]'s link fates plug into the pump's transmit step: `Drop`
//! suppresses the `send_to`, `Corrupt` flips a byte of the copy on the
//! wire (the receiver's checksum rejects it), and `Deliver { extra_delay,
//! duplicates }` holds the copy in a delay queue / emits extra copies —
//! producing *real* loss, corruption, duplication, and reordering for
//! the reliability layer to recover from. Fates apply to data datagrams
//! only; losing an ack is indistinguishable from losing the data it
//! acknowledges, so injecting on acks would only re-test the same path.
//!
//! ## Shutdown
//!
//! [`Transport::shutdown`] joins the forwarders (their input channels
//! disconnect when the protocol layer drops its senders) and stops the
//! pump once the unacked windows drained, then lingers the receiver
//! briefly so peer retransmissions still get acknowledged instead of
//! wedging the peer's window against its own shutdown timeout.

use super::link::{Event, Link, Outbox, Transmit};
use super::manifest::ClusterCtx;
use super::{RankWiring, Transport, TransportStats};
use crate::codec::{from_frame, to_frame, FrameReader, FrameWriter, Wire};
use crate::error::DsmError;
use crate::faults::FaultPlan;
use crate::msg::{Envelope, Msg, Reply, ReplyEnvelope};
use crate::net::{LinkMsg, RetransmitPolicy, TransmitFate, CHAN_DAEMON, CHAN_REPLY, CHAN_REQ};
use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Outer-frame tag of a data datagram.
pub const TPT_DATA: u8 = 0x40;
/// Outer-frame tag of an acknowledgement datagram.
pub const TPT_ACK: u8 = 0x41;

/// Capacity of each per-link forwarder queue and of the pump's command
/// queue (the "bounded queues" of the send path).
const QUEUE_CAP: usize = 1024;
/// Receiver poll interval (also the shutdown-flag check cadence).
const RECV_POLL: Duration = Duration::from_millis(10);
/// After shutdown begins: receiver exits once the wire has been quiet
/// this long...
const LINGER_IDLE: Duration = Duration::from_millis(250);
/// ...or after this hard cap, whichever comes first.
const LINGER_CAP: Duration = Duration::from_secs(3);
/// Hard cap on waiting for the unacked windows to drain at shutdown.
const DRAIN_CAP: Duration = Duration::from_secs(5);

/// One parsed data datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataFrame {
    /// Session discriminator of the sending run.
    pub session: u64,
    /// Sender's rank.
    pub from: usize,
    /// Logical channel ([`CHAN_REQ`], [`CHAN_REPLY`], [`CHAN_DAEMON`]).
    pub chan: u8,
    /// Transport sequence number on the `(from, chan)` link.
    pub seq: u64,
    /// Fragment index within the logical message.
    pub frag_idx: u32,
    /// Total fragments of the logical message.
    pub frag_count: u32,
    /// The protocol layer's own sequence number (`Envelope::seq`).
    pub env_seq: u64,
    /// Virtual arrival time carried by the envelope, in nanoseconds.
    pub arrive_ns: u64,
    /// This fragment's slice of the encoded message.
    pub payload: Vec<u8>,
}

/// One parsed acknowledgement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AckFrame {
    /// Session discriminator.
    pub session: u64,
    /// Acknowledging rank.
    pub from: usize,
    /// Channel of the acknowledged datagram.
    pub chan: u8,
    /// Sequence number being acknowledged.
    pub seq: u64,
}

/// A parsed datagram: data or acknowledgement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Datagram {
    /// A sequenced data fragment.
    Data(DataFrame),
    /// An acknowledgement.
    Ack(AckFrame),
}

/// Every datagram on the wire: parsing is [`from_frame`], pure and total —
/// every malformed input (truncated, oversized, bit-flipped, wrong tag,
/// trailing garbage, an impossible fragment header) is a typed
/// [`DsmError`], never a panic. The receive loop maps each error onto a
/// [`TransportStats`] counter and drops the datagram.
impl Wire for Datagram {
    fn encode(&self, w: &mut FrameWriter) {
        match self {
            Datagram::Data(d) => {
                w.u8(TPT_DATA);
                d.encode(w);
            }
            Datagram::Ack(a) => {
                w.u8(TPT_ACK);
                a.encode(w);
            }
        }
    }

    fn decode(r: &mut FrameReader<'_>) -> Result<Self, DsmError> {
        match r.u8()? {
            TPT_DATA => {
                let d = DataFrame::decode(r)?;
                if d.frag_count == 0 || d.frag_idx >= d.frag_count {
                    return Err(DsmError::Oversize {
                        len: d.frag_idx as usize,
                        max: d.frag_count.saturating_sub(1) as usize,
                    });
                }
                Ok(Datagram::Data(d))
            }
            TPT_ACK => Ok(Datagram::Ack(AckFrame::decode(r)?)),
            other => Err(DsmError::BadTag(other)),
        }
    }
}

crate::wire_struct!(DataFrame {
    session: u64,
    from: usize,
    chan: u8,
    seq: u64,
    frag_idx: u32,
    frag_count: u32,
    env_seq: u64,
    arrive_ns: u64,
    payload: Vec<u8>,
});

crate::wire_struct!(AckFrame {
    session: u64,
    from: usize,
    chan: u8,
    seq: u64,
});

// ---------------------------------------------------------------------
// Shared state
// ---------------------------------------------------------------------

struct Shared {
    socket: UdpSocket,
    peers: Vec<std::net::SocketAddr>,
    rank: usize,
    nprocs: usize,
    /// Time zero of the links' clock.
    epoch: Instant,
    /// One link per peer, `None` at this rank: the receiver steps them on
    /// datagrams, the pump on sends and timers.
    links: Mutex<Vec<Option<Link>>>,
    /// Set once the pump's windows drained (or `DRAIN_CAP` passed): the
    /// receiver lingers, then exits.
    stop: AtomicBool,
    stats: Mutex<TransportStats>,
}

impl Shared {
    fn stats(&self) -> MutexGuard<'_, TransportStats> {
        self.stats.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn links(&self) -> MutexGuard<'_, Vec<Option<Link>>> {
        self.links.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn send_to(&self, bytes: &[u8], peer: usize) -> bool {
        let addr = self.peers.get(peer);
        addr.is_some_and(|&addr| self.socket.send_to(bytes, addr).is_ok())
    }

    /// Steps `peer`'s link and counts what the step moved. A datagram
    /// naming a rank out of range, or this rank, has no link: malformed.
    fn step_link(&self, peer: usize, event: Event) -> Option<Outbox> {
        let now = self.epoch.elapsed();
        let mut links = self.links();
        let link = links.get_mut(peer).and_then(Option::as_mut);
        let out = link.map(|link| Link::step(link, event, now));
        drop(links);
        let mut stats = self.stats();
        match &out {
            Some(out) => *stats += out.stats,
            None => stats.malformed_dropped += 1,
        }
        out
    }
}

enum PumpCmd {
    Send { peer: usize, event: Event },
    Stop,
}

// ---------------------------------------------------------------------
// The transport
// ---------------------------------------------------------------------

/// One rank's endpoint of a multi-process UDP cluster (module docs
/// describe the full machinery).
pub struct UdpTransport {
    shared: Arc<Shared>,
    wiring: Option<RankWiring>,
    /// Taken by the shutdown, which runs once.
    pump_tx: Option<Sender<PumpCmd>>,
    forwarders: Vec<std::thread::JoinHandle<()>>,
    io_threads: Vec<std::thread::JoinHandle<()>>,
}

impl UdpTransport {
    /// Binds `ctx.rank`'s socket and spawns the transport threads.
    ///
    /// `faults` is the fault plan whose link fates are applied to
    /// outbound data datagrams. They are this transport's alone: the
    /// protocol layer above a measured fabric prices nothing, and reads
    /// the plan only for its crash/rejoin schedule.
    pub fn bind(
        ctx: &ClusterCtx,
        policy: RetransmitPolicy,
        faults: &FaultPlan,
    ) -> Result<Self, DsmError> {
        let nprocs = ctx.manifest.len();
        let rank = ctx.rank;
        if rank >= nprocs {
            return Err(DsmError::Manifest(format!(
                "rank {rank} out of range for a {nprocs}-node manifest"
            )));
        }
        let bind_addr = ctx.manifest.nodes[rank];
        let socket = UdpSocket::bind(bind_addr)
            .map_err(|e| DsmError::Manifest(format!("cannot bind {bind_addr}: {e}")))?;
        socket
            .set_read_timeout(Some(RECV_POLL))
            .map_err(|e| DsmError::Manifest(format!("cannot set socket timeout: {e}")))?;
        let links = (0..nprocs)
            .map(|peer| (peer != rank).then(|| Link::new(ctx.session, rank, policy)))
            .collect();
        let shared = Arc::new(Shared {
            socket,
            peers: ctx.manifest.nodes.clone(),
            rank,
            nprocs,
            epoch: Instant::now(),
            links: Mutex::new(links),
            stop: AtomicBool::new(false),
            stats: Mutex::new(TransportStats::default()),
        });

        // Local inboxes: delivered-to by the receiver and by same-rank sends,
        // consumed by this rank's daemon and worker.
        let (daemon_inbox_tx, daemon_rx) = unbounded::<Envelope>();
        let (reply_local_tx, reply_rx) = unbounded::<ReplyEnvelope>();

        let (pump_tx, pump_rx) = bounded::<PumpCmd>(QUEUE_CAP);

        // Per-remote-peer forwarders with bounded queues. The channel a
        // remote entry of the wiring leads into blocks the protocol
        // layer when QUEUE_CAP messages are already in flight toward
        // that peer — the transport's backpressure.
        let mut forwarders = Vec::new();
        let mut daemon_tx = Vec::with_capacity(nprocs);
        let mut reply_tx = Vec::with_capacity(nprocs);
        for peer in 0..nprocs {
            if peer == rank {
                daemon_tx.push(daemon_inbox_tx.clone());
                reply_tx.push(reply_local_tx.clone());
                continue;
            }
            let (etx, erx) = bounded::<Envelope>(QUEUE_CAP);
            daemon_tx.push(etx);
            let ptx = pump_tx.clone();
            forwarders.push(std::thread::spawn(move || {
                // The logical channel is recovered from the envelope
                // source: the local worker (`src == rank`) sends requests,
                // the local daemon (`src == nprocs + rank`) sends
                // daemon-to-daemon control.
                forward(peer, &erx, &ptx, |env: Envelope| {
                    let chan = if env.src == rank {
                        CHAN_REQ
                    } else {
                        CHAN_DAEMON
                    };
                    (chan, env.seq, env.arrive, to_frame(&env.msg))
                });
            }));
            let (rtx, rrx) = bounded::<ReplyEnvelope>(QUEUE_CAP);
            reply_tx.push(rtx);
            let ptx = pump_tx.clone();
            forwarders.push(std::thread::spawn(move || {
                forward(peer, &rrx, &ptx, |env: ReplyEnvelope| {
                    (CHAN_REPLY, env.seq, env.arrive, to_frame(&env.reply))
                });
            }));
        }

        let mut pump = Pump {
            shared: Arc::clone(&shared),
            faults: faults.clone(),
            delayed: BinaryHeap::new(),
            tie: 0,
        };
        let recv_shared = Arc::clone(&shared);
        let io_threads = vec![
            std::thread::spawn(move || pump.run(&pump_rx)),
            std::thread::spawn(move || {
                recv_loop(&recv_shared, &daemon_inbox_tx, &reply_local_tx);
            }),
        ];

        Ok(Self {
            shared,
            wiring: Some(RankWiring {
                daemon_tx,
                reply_tx,
                daemon_rx,
                reply_rx,
            }),
            pump_tx: Some(pump_tx),
            forwarders,
            io_threads,
        })
    }

    /// The rank this transport serves.
    pub fn rank(&self) -> usize {
        self.shared.rank
    }
}

impl Transport for UdpTransport {
    fn nprocs(&self) -> usize {
        self.shared.nprocs
    }

    fn wiring(&mut self, r: usize) -> RankWiring {
        if r != self.shared.rank {
            panic!(
                "UdpTransport serves rank {} only, not rank {r}",
                self.shared.rank
            );
        }
        match self.wiring.take() {
            Some(w) => w,
            None => panic!("wiring for rank {r} unavailable or already taken"),
        }
    }

    fn stats(&self) -> TransportStats {
        *self.shared.stats()
    }

    fn shutdown(&mut self) {
        let Some(pump_tx) = self.pump_tx.take() else {
            return;
        };
        // 1. Forwarders exit when the protocol layer's senders are gone
        //    (the caller drops the wiring before shutting down) and all
        //    queued messages reached the pump.
        for handle in self.forwarders.drain(..) {
            let _ = handle.join();
        }
        // 2. The pump waits for every outbound datagram to be acknowledged,
        //    with a hard cap (a vanished peer must not wedge teardown), then
        //    exits; the receiver lingers (it keeps re-acking peer
        //    retransmissions until the wire goes quiet).
        let _ = pump_tx.send(PumpCmd::Stop);
        for handle in self.io_threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for UdpTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Drains one rank's outbound envelopes or replies toward `peer`, each
/// split by `frame` into `(chan, env_seq, arrive, payload)`.
fn forward<T>(
    peer: usize,
    rx: &Receiver<T>,
    pump: &Sender<PumpCmd>,
    frame: impl Fn(T) -> (u8, u64, Duration, Vec<u8>),
) {
    while let Ok(env) = rx.recv() {
        let (chan, env_seq, arrive, payload) = frame(env);
        let arrive_ns = arrive.as_nanos() as u64;
        let event = Event::Send {
            chan,
            env_seq,
            arrive_ns,
            payload,
        };
        if pump.send(PumpCmd::Send { peer, event }).is_err() {
            return;
        }
    }
}

// ---------------------------------------------------------------------
// Pump: the links against real time, the fault plan at the transmit site
// ---------------------------------------------------------------------

/// A chaos-delayed (or duplicated) copy waiting to hit the wire: `(due,
/// tie, peer, bytes)`, the tie unique so the bytes are never compared.
type Delayed = Reverse<(Duration, u64, usize, Vec<u8>)>;

struct Pump {
    shared: Arc<Shared>,
    faults: FaultPlan,
    delayed: BinaryHeap<Delayed>,
    tie: u64,
}

impl Pump {
    fn run(&mut self, rx: &Receiver<PumpCmd>) {
        // Set by `Stop`: draining until this time.
        let mut drain_until = None;
        loop {
            let now = self.shared.epoch.elapsed();
            self.fire_due(now);
            if drain_until.is_some_and(|end| now >= end || self.drained()) {
                // Chaos-delayed copies further out are abandoned: their
                // data was acked or the run is over.
                break;
            }
            let wait = self
                .next_deadline()
                .map_or(Duration::from_millis(50), |due| {
                    due.saturating_sub(now).max(Duration::from_micros(100))
                });
            match rx.recv_timeout(wait) {
                Ok(PumpCmd::Send { peer, event }) => self.step(peer, event),
                Ok(PumpCmd::Stop) => drain_until = Some(now + DRAIN_CAP),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        self.shared.stop.store(true, Ordering::SeqCst);
    }

    fn drained(&self) -> bool {
        let links = self.shared.links();
        links.iter().flatten().all(|l| l.unacked() == 0)
    }

    fn next_deadline(&self) -> Option<Duration> {
        let links = self.shared.links();
        let timers = links.iter().flatten().filter_map(Link::next_deadline);
        let delayed = self.delayed.peek().map(|Reverse((due, ..))| *due);
        timers.chain(delayed).min()
    }

    fn fire_due(&mut self, now: Duration) {
        while let Some(top) = self.delayed.peek_mut().filter(|top| top.0 .0 <= now) {
            let Reverse((_, _, peer, bytes)) = PeekMut::pop(top);
            if self.shared.send_to(&bytes, peer) {
                self.shared.stats().datagrams_sent += 1;
            }
        }
        let deadline = |l: &Option<Link>| l.as_ref().and_then(Link::next_deadline);
        let due: Vec<usize> = (self.shared.links().iter().enumerate())
            .filter(|(_, l)| deadline(l).is_some_and(|d| d <= now))
            .map(|(peer, _)| peer)
            .collect();
        for peer in due {
            self.step(peer, Event::Tick);
        }
    }

    /// Steps `peer`'s link on a send or a timer and transmits what it emits.
    fn step(&mut self, peer: usize, event: Event) {
        let out = self.shared.step_link(peer, event).unwrap_or_default();
        let now = self.shared.epoch.elapsed();
        for t in out.transmit {
            self.transmit(peer, t, now);
        }
    }

    /// One transmission attempt, with the fault plan's verdict applied
    /// to the real datagram.
    fn transmit(&mut self, peer: usize, t: Transmit, now: Duration) {
        let clean = TransmitFate::Deliver {
            extra_delay: Duration::ZERO,
            duplicates: 0,
        };
        let fate = self.faults.fates().map_or(clean, |fate| {
            // Map the link onto the same virtual ids the in-process price
            // sees, so one seeded plan produces comparable adversity on
            // both transports.
            let (nprocs, rank) = (self.shared.nprocs, self.shared.rank);
            let (from, to) = match t.chan {
                CHAN_REQ => (rank, nprocs + peer),
                CHAN_REPLY => (nprocs + rank, peer),
                _ => (nprocs + rank, nprocs + peer),
            };
            fate(&LinkMsg {
                from,
                to,
                chan: t.chan,
                seq: t.seq,
                attempt: t.attempt,
            })
        });
        let mut bytes = t.bytes;
        match fate {
            TransmitFate::Drop => self.shared.stats().chaos_dropped += 1,
            TransmitFate::Corrupt => {
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0xff;
                if self.shared.send_to(&bytes, peer) {
                    let mut stats = self.shared.stats();
                    stats.datagrams_sent += 1;
                    stats.chaos_corrupted += 1;
                }
            }
            TransmitFate::Deliver {
                extra_delay,
                duplicates,
            } => {
                // The copy itself, then each duplicate 200 µs behind it.
                for extra in 0..=u32::from(duplicates) {
                    let due = now + extra_delay + Duration::from_micros(200) * extra;
                    if due == now {
                        if self.shared.send_to(&bytes, peer) {
                            self.shared.stats().datagrams_sent += 1;
                        }
                        continue;
                    }
                    self.shared.stats().chaos_duplicated += u64::from(extra > 0);
                    self.tie += 1;
                    let copy = (due, self.tie, peer, bytes.clone());
                    self.delayed.push(Reverse(copy));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Receiver: parse, step the sender's link, ack, deliver
// ---------------------------------------------------------------------

fn recv_loop(
    shared: &Shared,
    daemon_inbox: &Sender<Envelope>,
    reply_local: &Sender<ReplyEnvelope>,
) {
    let mut buf = vec![0u8; 65536];
    let mut stop_seen: Option<Instant> = None;
    let mut last_activity = Instant::now();
    loop {
        // A socket error (a timeout, or a transient ICMP-induced one) is
        // just another poll.
        if let Ok((n, _src)) = shared.socket.recv_from(&mut buf) {
            last_activity = Instant::now();
            // `n` is bounded by the buffer the kernel filled, but decode
            // paths stay index-free: a too-large count is malformed.
            match buf.get(..n).map(from_frame::<Datagram>) {
                Some(Ok(datagram)) => {
                    shared.stats().datagrams_received += 1;
                    handle_datagram(shared, datagram, daemon_inbox, reply_local);
                }
                Some(Err(DsmError::Checksum { .. })) => shared.stats().corrupt_dropped += 1,
                _ => shared.stats().malformed_dropped += 1,
            }
        }
        if shared.stop.load(Ordering::SeqCst) {
            let since = *stop_seen.get_or_insert_with(Instant::now);
            // Linger: keep re-acking peer retransmissions until the wire
            // goes quiet, so a slower peer's shutdown drains too.
            if last_activity.elapsed() >= LINGER_IDLE || since.elapsed() >= LINGER_CAP {
                return;
            }
        }
    }
}

/// Steps the sender's link on one datagram, sends the acks it asks for
/// and delivers what it completed into the local inboxes.
fn handle_datagram(
    shared: &Shared,
    datagram: Datagram,
    daemon_inbox: &Sender<Envelope>,
    reply_local: &Sender<ReplyEnvelope>,
) {
    let peer = match &datagram {
        Datagram::Data(d) => d.from,
        Datagram::Ack(a) => a.from,
    };
    let event = Event::Datagram(datagram);
    let out = shared.step_link(peer, event).unwrap_or_default();
    for ack in out.acks {
        if shared.send_to(&ack, peer) {
            shared.stats().acks_sent += 1;
        }
    }
    let n = shared.nprocs;
    for (chan, seq, arrive_ns, payload) in out.deliver {
        let arrive = Duration::from_nanos(arrive_ns);
        let src = if chan == CHAN_REQ { peer } else { n + peer };
        let delivered = match chan {
            CHAN_REPLY => from_frame::<Reply>(&payload).ok().map(|reply| {
                let env = ReplyEnvelope {
                    reply,
                    arrive,
                    src,
                    seq,
                };
                let _ = reply_local.send(env);
            }),
            // A launcher ends its own daemon in-process; a `Shutdown` from
            // the wire could only be forged.
            _ => from_frame::<Msg>(&payload)
                .ok()
                .filter(|msg| !matches!(msg, Msg::Shutdown))
                .map(|msg| {
                    let env = Envelope {
                        msg,
                        arrive,
                        src,
                        seq,
                    };
                    let _ = daemon_inbox.send(env);
                }),
        };
        if delivered.is_none() {
            shared.stats().malformed_dropped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::check_malformed;

    fn hex(frame: &[u8]) -> String {
        frame.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Also pins the exact bytes of one data and one ack datagram: ranks
    /// built from different trees must still understand each other.
    #[test]
    fn datagram_roundtrip() {
        let d = Datagram::Data(DataFrame {
            session: 7,
            from: 2,
            chan: CHAN_REQ,
            seq: 99,
            frag_idx: 0,
            frag_count: 1,
            env_seq: 5,
            arrive_ns: 123_456,
            payload: vec![1, 2, 3],
        });
        let frame = to_frame(&d);
        assert_eq!(
            hex(&frame),
            "40070000000000000002000000000000000063000000000000000000000001000000\
             050000000000000040e20100000000000300000000000000010203de010000"
        );
        assert_eq!(from_frame::<Datagram>(&frame).expect("parse"), d);
        let a = Datagram::Ack(AckFrame {
            session: 7,
            from: 1,
            chan: CHAN_REPLY,
            seq: 42,
        });
        let frame = to_frame(&a);
        assert_eq!(
            hex(&frame),
            "4107000000000000000100000000000000012a0000000000000074000000"
        );
        assert_eq!(from_frame::<Datagram>(&frame).expect("parse"), a);
    }

    #[test]
    fn parse_rejects_malformations_without_panicking() {
        let d = DataFrame {
            session: 1,
            from: 0,
            chan: CHAN_DAEMON,
            seq: 0,
            frag_idx: 0,
            frag_count: 1,
            env_seq: 0,
            arrive_ns: 0,
            payload: vec![9; 64],
        };
        let good = to_frame(&Datagram::Data(d.clone()));
        check_malformed::<Datagram>(&good).unwrap();
        let ack = Datagram::Ack(AckFrame {
            session: 1,
            from: 3,
            chan: CHAN_REQ,
            seq: 8,
        });
        check_malformed::<Datagram>(&to_frame(&ack)).unwrap();
        // Trailing garbage.
        let mut long = good.clone();
        long.extend_from_slice(&[0, 0, 0, 0]);
        assert!(from_frame::<Datagram>(&long).is_err());
        // Unknown tag with a valid checksum.
        let mut w = FrameWriter::default();
        w.u8(0x33);
        assert!(matches!(
            from_frame::<Datagram>(&w.finish()),
            Err(DsmError::BadTag(0x33))
        ));
        // Fragment header inconsistency.
        let mut zero_frags = d;
        zero_frags.frag_count = 0;
        assert!(from_frame::<Datagram>(&to_frame(&Datagram::Data(zero_frags))).is_err());
    }
}
