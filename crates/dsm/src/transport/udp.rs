//! The real-sockets transport: one UDP socket per rank, reliability on
//! top of genuinely lossy I/O.
//!
//! [`UdpTransport`] wires **one** rank of a multi-process cluster. Every
//! remote `Envelope`/`ReplyEnvelope` is encoded through the wire codec
//! ([`crate::codec`]), wrapped in an outer checksummed [`Datagram`]
//! carrying `(session, from, chan, seq, fragment)` headers, and driven
//! through a sender-side ack/retransmit machine and a receiver-side
//! dedup/reorder/reassembly machine, so the protocol layer above sees
//! exactly the channel semantics it has always had: reliable, in-order
//! delivery per `(peer, chan)` link.
//!
//! ## Thread structure (per process)
//!
//! * one **forwarder** per remote peer and direction (bounded queues):
//!   drains the channel the protocol layer sends into, encodes the
//!   payload, and hands it to the pump;
//! * one **pump**: assigns per-link sequence numbers, fragments large
//!   payloads, transmits, and owns the retransmission timers
//!   ([`RetransmitPolicy`] backoff; after `max_attempts` it keeps
//!   retrying at `max_rto` and counts the escalation — a slow peer is
//!   not a dead peer, and declaring death is the supervision layer's
//!   job, not the transport's);
//! * one **receiver**: parses datagrams (`from_frame::<`[`Datagram`]`>` —
//!   every malformation is a typed [`DsmError`] and a counter, never a
//!   panic),
//!   acknowledges, deduplicates, restores per-link order through a
//!   bounded reorder window, reassembles fragments, and delivers into
//!   the local inboxes.
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
//! disconnect when the protocol layer drops its senders), waits for the
//! unacked window to drain, then lingers the receiver briefly so peer
//! retransmissions still get acknowledged instead of wedging the peer's
//! window against its own shutdown timeout.

use super::manifest::ClusterCtx;
use super::{RankWiring, Transport, TransportStats};
use crate::codec::{
    decode_msg, decode_reply, from_frame, to_frame, FrameReader, FrameWriter, Wire,
};
use crate::error::DsmError;
use crate::faults::FaultPlan;
use crate::msg::{Envelope, Msg, ReplyEnvelope};
use crate::net::{LinkMsg, RetransmitPolicy, TransmitFate, CHAN_DAEMON, CHAN_REPLY, CHAN_REQ};
use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Outer-frame tag of a data datagram.
pub const TPT_DATA: u8 = 0x40;
/// Outer-frame tag of an acknowledgement datagram.
pub const TPT_ACK: u8 = 0x41;

/// Largest payload fragment per datagram: comfortably under the UDP
/// payload ceiling (~65 507 B) with room for headers.
const MAX_FRAG_PAYLOAD: usize = 32 * 1024;
/// Largest reassembled payload the receiver will buffer (matches the
/// codec's frame bound).
const MAX_MESSAGE: usize = 1 << 28;
/// Out-of-order datagrams parked per link before the receiver starts
/// shedding (shed copies are recovered by retransmission).
const REORDER_CAP: usize = 512;
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
/// Hard cap on waiting for the unacked window to drain at shutdown.
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
    session: u64,
    /// Set once shutdown begins; receiver switches to linger mode and
    /// the pump exits when its work is done.
    stop: AtomicBool,
    stats: Mutex<TransportStats>,
    /// Unacked outbound datagrams; guarded drain signal for shutdown.
    inflight: Mutex<usize>,
    drained: Condvar,
}

impl Shared {
    fn stats(&self) -> std::sync::MutexGuard<'_, TransportStats> {
        self.stats.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn send_ack(&self, to: usize, chan: u8, seq: u64) {
        // `to` comes from a wire-derived rank; an out-of-range value
        // means a malformed datagram and the ack is silently dropped.
        let Some(&addr) = self.peers.get(to) else {
            return;
        };
        let bytes = to_frame(&Datagram::Ack(AckFrame {
            session: self.session,
            from: self.rank,
            chan,
            seq,
        }));
        if self.socket.send_to(&bytes, addr).is_ok() {
            self.stats().acks_sent += 1;
        }
    }
}

enum PumpCmd {
    Data {
        peer: usize,
        chan: u8,
        env_seq: u64,
        arrive_ns: u64,
        payload: Vec<u8>,
    },
    Ack {
        peer: usize,
        chan: u8,
        seq: u64,
    },
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
    pump_tx: Sender<PumpCmd>,
    forwarders: Vec<std::thread::JoinHandle<()>>,
    io_threads: Vec<std::thread::JoinHandle<()>>,
    done: bool,
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
        let shared = Arc::new(Shared {
            socket,
            peers: ctx.manifest.nodes.clone(),
            rank,
            nprocs,
            session: ctx.session,
            stop: AtomicBool::new(false),
            stats: Mutex::new(TransportStats::default()),
            inflight: Mutex::new(0),
            drained: Condvar::new(),
        });

        // Local inboxes: delivered-to by the receiver thread and by
        // same-rank sends, consumed by this rank's daemon and worker.
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
                forward_envelopes(rank, peer, &erx, &ptx);
            }));
            let (rtx, rrx) = bounded::<ReplyEnvelope>(QUEUE_CAP);
            reply_tx.push(rtx);
            let ptx = pump_tx.clone();
            forwarders.push(std::thread::spawn(move || {
                forward_replies(peer, &rrx, &ptx);
            }));
        }

        let mut io_threads = Vec::new();
        {
            let shared = Arc::clone(&shared);
            let faults = faults.clone();
            io_threads.push(std::thread::spawn(move || {
                Pump::new(shared, policy, faults).run(&pump_rx);
            }));
        }
        {
            let shared = Arc::clone(&shared);
            let ptx = pump_tx.clone();
            io_threads.push(std::thread::spawn(move || {
                recv_loop(&shared, &daemon_inbox_tx, &reply_local_tx, &ptx);
            }));
        }

        Ok(Self {
            shared,
            wiring: Some(RankWiring {
                daemon_tx,
                reply_tx,
                daemon_rx,
                reply_rx,
            }),
            pump_tx,
            forwarders,
            io_threads,
            done: false,
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
        if self.done {
            return;
        }
        self.done = true;
        // 1. Forwarders exit when the protocol layer's senders are gone
        //    (the caller drops the wiring before shutting down) and all
        //    queued messages reached the pump.
        for handle in self.forwarders.drain(..) {
            let _ = handle.join();
        }
        // 2. Wait for every outbound datagram to be acknowledged, with
        //    a hard cap (a vanished peer must not wedge teardown).
        let deadline = Instant::now() + DRAIN_CAP;
        let mut inflight = self
            .shared
            .inflight
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        while *inflight > 0 {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                break;
            };
            inflight = self
                .shared
                .drained
                .wait_timeout(inflight, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        drop(inflight);
        // 3. Stop the pump; linger the receiver (it keeps re-acking peer
        //    retransmissions until the wire goes quiet).
        self.shared.stop.store(true, Ordering::SeqCst);
        let _ = self.pump_tx.send(PumpCmd::Stop);
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

/// Drains one rank's outbound envelopes toward `peer`. The logical
/// channel is recovered from the envelope source: the local worker
/// (`src == rank`) sends requests, the local daemon (`src == nprocs +
/// rank`) sends daemon-to-daemon control.
fn forward_envelopes(rank: usize, peer: usize, rx: &Receiver<Envelope>, pump: &Sender<PumpCmd>) {
    while let Ok(env) = rx.recv() {
        let chan = if env.src == rank {
            CHAN_REQ
        } else {
            CHAN_DAEMON
        };
        let payload = crate::codec::encode_msg(&env.msg);
        if pump
            .send(PumpCmd::Data {
                peer,
                chan,
                env_seq: env.seq,
                arrive_ns: env.arrive.as_nanos() as u64,
                payload,
            })
            .is_err()
        {
            return;
        }
    }
}

/// Drains the local daemon's replies toward worker `peer`.
fn forward_replies(peer: usize, rx: &Receiver<ReplyEnvelope>, pump: &Sender<PumpCmd>) {
    while let Ok(env) = rx.recv() {
        let payload = crate::codec::encode_reply(&env.reply);
        if pump
            .send(PumpCmd::Data {
                peer,
                chan: CHAN_REPLY,
                env_seq: env.seq,
                arrive_ns: env.arrive.as_nanos() as u64,
                payload,
            })
            .is_err()
        {
            return;
        }
    }
}

// ---------------------------------------------------------------------
// Pump: sequencing, fragmentation, transmission, retransmission
// ---------------------------------------------------------------------

struct Pending {
    bytes: Vec<u8>,
    peer: usize,
    chan: u8,
    attempt: u32,
    due: Instant,
    first_sent: Instant,
}

/// A chaos-delayed (or duplicated) copy waiting to hit the wire.
struct Delayed {
    due: Instant,
    tie: u64,
    peer: usize,
    bytes: Vec<u8>,
}

impl PartialEq for Delayed {
    fn eq(&self, other: &Self) -> bool {
        (self.due, self.tie) == (other.due, other.tie)
    }
}
impl Eq for Delayed {}
impl PartialOrd for Delayed {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Delayed {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.tie).cmp(&(other.due, other.tie))
    }
}

/// Identifies one in-flight frame: (peer, channel, sequence number).
type FrameKey = (usize, u8, u64);

struct Pump {
    shared: Arc<Shared>,
    policy: RetransmitPolicy,
    faults: FaultPlan,
    next_seq: HashMap<(usize, u8), u64>,
    unacked: HashMap<FrameKey, Pending>,
    timers: BinaryHeap<Reverse<(Instant, FrameKey)>>,
    delayed: BinaryHeap<Reverse<Delayed>>,
    tie: u64,
}

impl Pump {
    fn new(shared: Arc<Shared>, policy: RetransmitPolicy, faults: FaultPlan) -> Self {
        Self {
            shared,
            policy,
            faults,
            next_seq: HashMap::new(),
            unacked: HashMap::new(),
            timers: BinaryHeap::new(),
            delayed: BinaryHeap::new(),
            tie: 0,
        }
    }

    fn run(mut self, rx: &Receiver<PumpCmd>) {
        loop {
            let now = Instant::now();
            self.fire_due(now);
            let wait = self.next_deadline(now).unwrap_or(Duration::from_millis(50));
            match rx.recv_timeout(wait) {
                Ok(PumpCmd::Data {
                    peer,
                    chan,
                    env_seq,
                    arrive_ns,
                    payload,
                }) => self.send_new(peer, chan, env_seq, arrive_ns, payload),
                Ok(PumpCmd::Ack { peer, chan, seq }) => self.on_ack(peer, chan, seq),
                Ok(PumpCmd::Stop) | Err(RecvTimeoutError::Disconnected) => {
                    // Flush chaos-delayed copies that are already due;
                    // anything further out is abandoned (its data was
                    // acked or the run is over).
                    self.fire_due(Instant::now());
                    return;
                }
                Err(RecvTimeoutError::Timeout) => {}
            }
        }
    }

    fn next_deadline(&self, now: Instant) -> Option<Duration> {
        let timer = self.timers.peek().map(|Reverse((due, _))| *due);
        let delayed = self.delayed.peek().map(|Reverse(d)| d.due);
        let due = match (timer, delayed) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => return None,
        };
        Some(
            due.saturating_duration_since(now)
                .max(Duration::from_micros(100)),
        )
    }

    fn fire_due(&mut self, now: Instant) {
        while let Some(Reverse(d)) = self.delayed.peek() {
            if d.due > now {
                break;
            }
            let Some(Reverse(d)) = self.delayed.pop() else {
                break;
            };
            if self
                .shared
                .socket
                .send_to(&d.bytes, self.shared.peers[d.peer])
                .is_ok()
            {
                self.shared.stats().datagrams_sent += 1;
            }
        }
        while let Some(Reverse((due, key))) = self.timers.peek().copied() {
            if due > now {
                break;
            }
            self.timers.pop();
            let Some(pending) = self.unacked.get_mut(&key) else {
                continue; // acked; stale timer entry
            };
            if pending.due != due {
                continue; // superseded by a later retransmission timer
            }
            pending.attempt += 1;
            let attempt = pending.attempt;
            let rto = if attempt >= self.policy.max_attempts {
                self.shared.stats().rto_escalations += 1;
                self.policy.max_rto
            } else {
                self.policy.rto(attempt)
            };
            pending.due = now + rto;
            let bytes = pending.bytes.clone();
            let (peer, chan) = (pending.peer, pending.chan);
            self.timers.push(Reverse((now + rto, key)));
            self.shared.stats().retransmits += 1;
            self.transmit(peer, chan, key.2, attempt, bytes);
        }
    }

    fn send_new(&mut self, peer: usize, chan: u8, env_seq: u64, arrive_ns: u64, payload: Vec<u8>) {
        let frags: Vec<&[u8]> = if payload.is_empty() {
            vec![&[]]
        } else {
            payload.chunks(MAX_FRAG_PAYLOAD).collect()
        };
        let frag_count = frags.len() as u32;
        let now = Instant::now();
        for (idx, frag) in frags.into_iter().enumerate() {
            let counter = self.next_seq.entry((peer, chan)).or_insert(0);
            let seq = *counter;
            *counter += 1;
            let bytes = to_frame(&Datagram::Data(DataFrame {
                session: self.shared.session,
                from: self.shared.rank,
                chan,
                seq,
                frag_idx: idx as u32,
                frag_count,
                env_seq,
                arrive_ns,
                payload: frag.to_vec(),
            }));
            let rto = self.policy.rto(0);
            self.unacked.insert(
                (peer, chan, seq),
                Pending {
                    bytes: bytes.clone(),
                    peer,
                    chan,
                    attempt: 0,
                    due: now + rto,
                    first_sent: now,
                },
            );
            self.timers.push(Reverse((now + rto, (peer, chan, seq))));
            {
                let mut inflight = self
                    .shared
                    .inflight
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                *inflight += 1;
            }
            self.transmit(peer, chan, seq, 0, bytes);
        }
    }

    /// One transmission attempt, with the fault plan's verdict applied
    /// to the real datagram.
    fn transmit(&mut self, peer: usize, chan: u8, seq: u64, attempt: u32, bytes: Vec<u8>) {
        let clean = TransmitFate::Deliver {
            extra_delay: Duration::ZERO,
            duplicates: 0,
        };
        let fate = self.faults.fates().map_or(clean, |fate| {
            // Map the link onto the same virtual ids the in-process price
            // sees, so one seeded plan produces comparable adversity on
            // both transports.
            let nprocs = self.shared.nprocs;
            let (from, to) = match chan {
                CHAN_REQ => (self.shared.rank, nprocs + peer),
                CHAN_REPLY => (nprocs + self.shared.rank, peer),
                _ => (nprocs + self.shared.rank, nprocs + peer),
            };
            fate(&LinkMsg {
                from,
                to,
                chan,
                seq,
                attempt,
            })
        });
        match fate {
            TransmitFate::Drop => {
                self.shared.stats().chaos_dropped += 1;
            }
            TransmitFate::Corrupt => {
                let mut copy = bytes;
                let mid = copy.len() / 2;
                copy[mid] ^= 0xff;
                if self
                    .shared
                    .socket
                    .send_to(&copy, self.shared.peers[peer])
                    .is_ok()
                {
                    let mut stats = self.shared.stats();
                    stats.datagrams_sent += 1;
                    stats.chaos_corrupted += 1;
                }
            }
            TransmitFate::Deliver {
                extra_delay,
                duplicates,
            } => {
                if extra_delay.is_zero() {
                    if self
                        .shared
                        .socket
                        .send_to(&bytes, self.shared.peers[peer])
                        .is_ok()
                    {
                        self.shared.stats().datagrams_sent += 1;
                    }
                } else {
                    self.tie += 1;
                    self.delayed.push(Reverse(Delayed {
                        due: Instant::now() + extra_delay,
                        tie: self.tie,
                        peer,
                        bytes: bytes.clone(),
                    }));
                }
                for extra in 0..duplicates {
                    self.tie += 1;
                    self.shared.stats().chaos_duplicated += 1;
                    self.delayed.push(Reverse(Delayed {
                        due: Instant::now()
                            + extra_delay
                            + Duration::from_micros(200) * (extra as u32 + 1),
                        tie: self.tie,
                        peer,
                        bytes: bytes.clone(),
                    }));
                }
            }
        }
    }

    fn on_ack(&mut self, peer: usize, chan: u8, seq: u64) {
        let Some(pending) = self.unacked.remove(&(peer, chan, seq)) else {
            return; // duplicate ack
        };
        // Karn's rule: only un-retransmitted datagrams yield RTT samples
        // (a retransmitted one's ack is ambiguous).
        if pending.attempt == 0 {
            let rtt = pending.first_sent.elapsed();
            let mut stats = self.shared.stats();
            stats.rtt_total += rtt;
            stats.rtt_samples += 1;
        }
        let mut inflight = self
            .shared
            .inflight
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *inflight -= 1;
        if *inflight == 0 {
            self.shared.drained.notify_all();
        }
    }
}

// ---------------------------------------------------------------------
// Receiver: parse, ack, dedup, reorder, reassemble, deliver
// ---------------------------------------------------------------------

#[derive(Default)]
struct LinkRecv {
    /// Next transport sequence number to deliver.
    expected: u64,
    /// Out-of-order datagrams parked until the gap fills.
    stash: BTreeMap<u64, DataFrame>,
    /// Reassembly buffer of the in-progress logical message.
    partial: Vec<u8>,
    /// Fragments accumulated so far.
    partial_frags: u32,
}

fn recv_loop(
    shared: &Arc<Shared>,
    daemon_inbox: &Sender<Envelope>,
    reply_local: &Sender<ReplyEnvelope>,
    pump: &Sender<PumpCmd>,
) {
    let mut links: HashMap<(usize, u8), LinkRecv> = HashMap::new();
    let mut buf = vec![0u8; 65536];
    let mut stop_seen: Option<Instant> = None;
    let mut last_activity = Instant::now();
    loop {
        match shared.socket.recv_from(&mut buf) {
            Ok((n, _src)) => {
                last_activity = Instant::now();
                // `n` is bounded by the buffer the kernel filled, but
                // decode paths stay index-free: a too-large count drops
                // the datagram instead of panicking.
                let Some(datagram) = buf.get(..n) else {
                    continue;
                };
                handle_datagram(
                    shared,
                    datagram,
                    &mut links,
                    daemon_inbox,
                    reply_local,
                    pump,
                );
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => {
                // Transient socket error (e.g. ICMP-induced); keep going.
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

fn handle_datagram(
    shared: &Arc<Shared>,
    frame: &[u8],
    links: &mut HashMap<(usize, u8), LinkRecv>,
    daemon_inbox: &Sender<Envelope>,
    reply_local: &Sender<ReplyEnvelope>,
    pump: &Sender<PumpCmd>,
) {
    let parsed = match from_frame::<Datagram>(frame) {
        Ok(p) => p,
        Err(DsmError::Checksum { .. }) => {
            shared.stats().corrupt_dropped += 1;
            return;
        }
        Err(_) => {
            shared.stats().malformed_dropped += 1;
            return;
        }
    };
    shared.stats().datagrams_received += 1;
    match parsed {
        Datagram::Ack(ack) => {
            if ack.session != shared.session {
                shared.stats().stale_session_dropped += 1;
                return;
            }
            let _ = pump.send(PumpCmd::Ack {
                peer: ack.from,
                chan: ack.chan,
                seq: ack.seq,
            });
        }
        Datagram::Data(data) => {
            if data.session != shared.session {
                // A retransmission from an earlier run on this manifest
                // (or a datagram from a run we haven't joined yet).
                // Dropped *unacknowledged*: if the sender is a live later
                // run, it must keep retransmitting until we join it.
                shared.stats().stale_session_dropped += 1;
                return;
            }
            if data.from >= shared.nprocs
                || data.from == shared.rank
                || !matches!(data.chan, CHAN_REQ | CHAN_REPLY | CHAN_DAEMON)
            {
                shared.stats().malformed_dropped += 1;
                return;
            }
            let link = links.entry((data.from, data.chan)).or_default();
            if data.seq < link.expected {
                // Duplicate of an already-delivered datagram: the ack
                // was lost; re-ack so the sender's window drains.
                shared.stats().dups_dropped += 1;
                shared.send_ack(data.from, data.chan, data.seq);
                return;
            }
            if data.seq > link.expected {
                if link.stash.len() < REORDER_CAP {
                    shared.send_ack(data.from, data.chan, data.seq);
                    if link.stash.insert(data.seq, data).is_none() {
                        shared.stats().reorder_stashed += 1;
                    } else {
                        shared.stats().dups_dropped += 1;
                    }
                } else {
                    // Window full: shed without acking; the sender's
                    // retransmission redelivers once the gap fills.
                    shared.stats().reorder_overflow_dropped += 1;
                }
                return;
            }
            shared.send_ack(data.from, data.chan, data.seq);
            accept_in_order(shared, link, data, daemon_inbox, reply_local);
            // The gap may have closed: drain consecutive stashed seqs.
            while let Some(next) = link.stash.remove(&link.expected) {
                accept_in_order(shared, link, next, daemon_inbox, reply_local);
            }
        }
    }
}

/// Consumes the next-in-order datagram of a link: advances the window,
/// accumulates fragments, and on message completion decodes and
/// delivers into the local inboxes.
fn accept_in_order(
    shared: &Arc<Shared>,
    link: &mut LinkRecv,
    data: DataFrame,
    daemon_inbox: &Sender<Envelope>,
    reply_local: &Sender<ReplyEnvelope>,
) {
    link.expected = data.seq + 1;
    if data.frag_idx != link.partial_frags || link.partial.len() + data.payload.len() > MAX_MESSAGE
    {
        // A fragment stream that restarts or overflows is only possible
        // with a buggy/malicious sender; typed drop, never a panic.
        shared.stats().malformed_dropped += 1;
        link.partial.clear();
        link.partial_frags = 0;
        if data.frag_idx != 0 {
            return;
        }
    }
    link.partial.extend_from_slice(&data.payload);
    link.partial_frags += 1;
    if link.partial_frags < data.frag_count {
        return; // more fragments coming
    }
    let payload = std::mem::take(&mut link.partial);
    link.partial_frags = 0;
    let arrive = Duration::from_nanos(data.arrive_ns);
    match data.chan {
        CHAN_REPLY => match decode_reply(&payload) {
            Ok(reply) => {
                let _ = reply_local.send(ReplyEnvelope {
                    reply,
                    arrive,
                    src: shared.nprocs + data.from,
                    seq: data.env_seq,
                });
            }
            Err(_) => shared.stats().malformed_dropped += 1,
        },
        _ => match decode_msg(&payload) {
            // Harness-internal: a launcher ends its own daemon in-process;
            // from the wire it could only be forged.
            Ok(Msg::Shutdown) | Err(_) => shared.stats().malformed_dropped += 1,
            Ok(msg) => {
                let src = if data.chan == CHAN_REQ {
                    data.from
                } else {
                    shared.nprocs + data.from
                };
                let _ = daemon_inbox.send(Envelope {
                    msg,
                    arrive,
                    src,
                    seq: data.env_seq,
                });
            }
        },
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
