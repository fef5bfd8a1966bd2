//! The worker-facing node API: shared allocation, typed access, and the
//! JIAJIA synchronization primitives (`jia_lock` / `jia_unlock` /
//! `jia_setcv` / `jia_waitcv` / `jia_barrier`).
//!
//! The programming style is SPMD: every node runs the same closure and is
//! distinguished by [`Node::id`] (JIAJIA's `jiapid`). **Allocations are
//! collective**: every node must perform the same `alloc_*` calls in the
//! same order — they are satisfied from a deterministic local counter, so
//! all nodes compute identical addresses without communication.
//!
//! A node is the I/O half of a worker; the protocol half is its
//! [`Client`]. Each API call has the client queue the requests it needs,
//! sends them in order, and hands every reply back to the client, which
//! may queue more ([`crate::client`]). The node keeps what a process has
//! and a protocol does not: request numbering, loss pricing, the reply
//! channel and time.
//!
//! ## Virtual time
//!
//! The simulated cluster usually runs on fewer host cores than it has
//! nodes, so times and speed-ups are tracked on **virtual clocks**:
//! [`Node::advance`] adds modeled computation (`cells × calibrated cell
//! cost`); every message carries `sender clock + network cost`, and a
//! blocking operation moves the clock to the reply's virtual arrival,
//! charging the wait to its statistics bucket; [`crate::NodeStats::total`]
//! ends up the final virtual clock, so `computation + communication +
//! lock_cv + barrier` add up like the paper's Fig. 10. Real kernels still
//! run and produce real results; only *time* is modeled.
//!
//! ## The own daemon
//!
//! In-process, the worker steps its own daemon inline for every message
//! addressed to itself, under the mutex it shares with the daemon's
//! thread ([`crate::daemon::Daemon::run`]), and flushes the outbox before
//! unlocking, so a reply to itself is in its channel before it waits. The
//! envelope is built exactly as for a peer — same request id, same
//! modeled cost, unpriced on the loopback link — so the inline path moves
//! no virtual time. On the socket transport the worker sends to its own
//! inbox like any other.

use crate::client::Client;
use crate::config::{DsmConfig, SupervisionConfig};
use crate::daemon::{Daemon, Outbox};
use crate::error::DsmError;
use crate::faults::FaultPlan;
use crate::msg::{Envelope, Msg, Reply, ReplyEnvelope};
use crate::net::{self, NetworkModel, RetransmitPolicy, CHAN_REQ};
use crate::stats::NodeStats;
use crate::transport::clock::Clock;
use crate::transport::flush;
use crate::vec::{DsmData, GlobalAddr, GlobalVec};
use crossbeam::channel::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Which stats bucket a blocking DSM operation charges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Bucket {
    Communication,
    LockCv,
    Barrier,
}

/// A worker's ends of the fabric.
pub(crate) struct NodeWiring {
    /// Every daemon's inbox.
    pub(crate) daemon_tx: Vec<Sender<Envelope>>,
    /// This worker's reply channel.
    pub(crate) reply_rx: Receiver<ReplyEnvelope>,
    /// This rank's daemon, which the worker steps inline; `None` on the
    /// socket transport, where a message to it crosses the inbox.
    pub(crate) own: Option<OwnDaemon>,
}

/// A worker's handle on its own daemon, shared with the daemon's thread.
pub(crate) struct OwnDaemon {
    daemon: Arc<Mutex<Daemon>>,
    /// Every worker's reply channel, for what a step answers.
    reply_tx: Vec<Sender<ReplyEnvelope>>,
    /// What a step sent, emptied by every flush.
    out: Outbox,
}

impl OwnDaemon {
    pub(crate) fn new(daemon: Arc<Mutex<Daemon>>, reply_tx: Vec<Sender<ReplyEnvelope>>) -> Self {
        let out = Outbox::new();
        Self {
            daemon,
            reply_tx,
            out,
        }
    }

    /// Steps the daemon on `env` and flushes what it sent, both under its
    /// lock, exactly as its thread does: `step` numbers daemon-to-daemon
    /// envelopes, and a flush after unlocking could overtake the thread's.
    fn step(&mut self, env: Envelope, daemon_tx: &[Sender<Envelope>]) {
        let Ok(mut daemon) = self.daemon.lock() else {
            panic!("daemon {} panicked inside a step", env.src);
        };
        daemon.step(env, &mut self.out);
        flush(&mut self.out, daemon_tx, &self.reply_tx);
    }
}

/// One cluster node as seen by the application closure.
pub struct Node {
    /// The protocol state, and the protocol counters of `stats`.
    client: Client,
    network: NetworkModel,
    daemon_tx: Vec<Sender<Envelope>>,
    reply_rx: Receiver<ReplyEnvelope>,
    /// This rank's daemon, stepped inline for every message to it.
    own: Option<OwnDaemon>,
    /// This node's virtual clock.
    vclock: Duration,
    /// Relative CPU speed (heterogeneous-cluster support, §7).
    speed: f64,
    /// The run's fault plan: the crash/rejoin schedule, plus the link
    /// fates priced into in-process sends.
    faults: FaultPlan,
    /// Timeout policy the loss price is computed with.
    retransmit: RetransmitPolicy,
    /// Next request sequence number per daemon link.
    req_seq: Vec<u64>,
    /// Supervision layer configuration.
    supervision: SupervisionConfig,
    /// The run-wide cancellable sleep source; the only sanctioned way to
    /// really elapse modeled time (`network.simulate`).
    clock: Clock,
    /// Wired to the socket transport: waits charge *measured* wall time
    /// into the Fig. 10 buckets, `total` is real elapsed time, and sends
    /// are not priced.
    measured: bool,
    /// When this node started (the measured-mode epoch for `total`).
    started: Instant,
}

impl Node {
    pub(crate) fn new(
        id: usize,
        config: &DsmConfig,
        measured: bool,
        wiring: NodeWiring,
        clock: Clock,
    ) -> Self {
        let NodeWiring {
            daemon_tx,
            reply_rx,
            own,
        } = wiring;
        Self {
            client: Client::new(id, config),
            network: config.network,
            daemon_tx,
            reply_rx,
            own,
            vclock: Duration::ZERO,
            speed: config.speed_of(id),
            faults: config.faults.clone(),
            retransmit: config.retransmit,
            req_seq: vec![0; config.nprocs],
            supervision: config.supervision,
            clock,
            measured,
            started: Instant::now(),
        }
    }

    /// This node's id (JIAJIA's `jiapid`), in `0..nprocs`.
    pub fn id(&self) -> usize {
        self.client.id
    }

    /// Number of cluster nodes.
    pub fn nprocs(&self) -> usize {
        self.client.nprocs
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.client.page_size
    }

    /// Statistics collected so far.
    pub fn stats(&self) -> &NodeStats {
        &self.client.stats
    }

    /// The node's current virtual time.
    pub fn now(&self) -> Duration {
        self.vclock
    }

    /// Advances the virtual clock by modeled computation time, `work ×
    /// calibrated unit cost` at the reference speed (heterogeneous nodes
    /// scale it by their speed factor).
    pub fn advance(&mut self, d: Duration) {
        self.vclock += if self.speed == 1.0 {
            d
        } else {
            d.div_f64(self.speed)
        };
    }

    pub(crate) fn finish_stats(&mut self) -> NodeStats {
        // On the socket transport `total` is real elapsed time (the
        // buckets hold measured waits, so the breakdown stays coherent);
        // in-process it is the virtual clock as always.
        self.client.stats.total = if self.measured {
            self.started.elapsed()
        } else {
            self.vclock
        };
        self.client.stats.clone()
    }

    // ------------------------------------------------------------------
    // Allocation (collective, deterministic)
    // ------------------------------------------------------------------

    /// Allocates `bytes` of zeroed shared memory with pages distributed
    /// round-robin over the nodes. Collective: all nodes must call this in
    /// the same order with the same size.
    pub fn alloc_bytes(&mut self, bytes: usize) -> GlobalAddr {
        self.client.alloc(bytes, None)
    }

    /// Allocates `bytes` of zeroed shared memory homed entirely on `home`.
    pub fn alloc_bytes_on(&mut self, bytes: usize, home: usize) -> GlobalAddr {
        self.client.alloc(bytes, Some(home))
    }

    /// Allocates a typed shared array with round-robin homes.
    pub fn alloc_vec<T: DsmData>(&mut self, len: usize) -> GlobalVec<T> {
        GlobalVec::new(self.alloc_bytes(len * T::LEN), len)
    }

    /// Allocates a typed shared array homed on `home`.
    pub fn alloc_vec_on<T: DsmData>(&mut self, len: usize, home: usize) -> GlobalVec<T> {
        GlobalVec::new(self.alloc_bytes_on(len * T::LEN, home), len)
    }

    // ------------------------------------------------------------------
    // Messaging
    // ------------------------------------------------------------------

    /// Sends every request the client has queued, in order, blocking for
    /// the reply of each one that awaits one and handing it back to the
    /// client, which may queue more. Every wait is charged to `bucket`,
    /// the bucket of the API call in progress.
    fn drive(&mut self, bucket: Bucket) {
        while let Some((to, msg)) = self.client.next_request() {
            let awaits = msg.awaits_reply();
            let seq = self.send(to, msg, bucket);
            if awaits {
                let reply = self.recv_matching(to, seq, bucket);
                self.client.reply(reply);
            }
        }
    }

    /// Sends a request to daemon `to` over the exactly-once fabric and
    /// returns the id its reply is matched on: number it, price it, push
    /// one envelope — into the own daemon by an inline step, into `to`'s
    /// inbox otherwise. A fault plan costs an in-process run only time
    /// ([`net::loss_price`]): the copy is stamped with the first delivered
    /// copy's arrival, and a request that awaits a reply sits out the
    /// stall, charged to `bucket`. Loopback and a measured fabric (which
    /// takes its losses for real) are not priced.
    fn send(&mut self, to: usize, msg: Msg, bucket: Bucket) -> u64 {
        let id = self.id();
        let seq = self.req_seq[to];
        self.req_seq[to] += 1;
        let size = msg.wire_size();
        let cost = self.network.cost(id, to, size);
        let lossy = self.faults.fates().filter(|_| to != id && !self.measured);
        let link = (id, self.nprocs() + to, CHAN_REQ, seq);
        let price = net::loss_price(lossy, &self.retransmit, link, cost, self.vclock);
        let stats = &mut self.client.stats;
        stats.modeled_network += cost;
        stats.msgs_sent += price.copies;
        stats.bytes_sent += price.copies * size as u64;
        stats.retransmits += price.retransmits;
        stats.dups_dropped += price.dups_dropped;
        stats.corrupt_dropped += price.corrupt_dropped;
        if msg.awaits_reply() {
            self.charge(bucket, price.stall);
            self.vclock += price.stall;
        }
        let envelope = Envelope {
            msg,
            arrive: price.arrive,
            src: id,
            seq,
        };
        if let Some(own) = self.own.as_mut().filter(|_| to == id) {
            own.step(envelope, &self.daemon_tx);
        } else if self.daemon_tx[to].send(envelope).is_err() {
            // Daemons outlive every worker in DsmSystem::run; a closed
            // inbox means the daemon thread itself panicked.
            panic!("daemon {to} closed its inbox mid-run");
        }
        seq
    }

    /// Receives the reply for request `seq` of daemon `to`, moving the
    /// virtual clock to its arrival and charging the wait to `bucket`.
    /// A worker has one request outstanding, so the reply must carry its
    /// `(src, seq)` stamp; any other is a fabric fault.
    fn recv_matching(&mut self, to: usize, seq: u64, bucket: Bucket) -> Reply {
        let t0 = self.real_start();
        // Every daemon holds a clone of our reply sender for the whole
        // run; disconnection means they all panicked.
        let Ok(env) = self.reply_rx.recv() else {
            panic!("node {}: reply channel closed mid-run", self.id())
        };
        assert_eq!(
            (env.src, env.seq),
            (self.nprocs() + to, seq),
            "node {}: a reply (src, seq) that answers no outstanding request",
            self.id()
        );
        self.wait_until(env.arrive, bucket, t0);
        env.reply
    }

    fn charge(&mut self, bucket: Bucket, dt: Duration) {
        let stats = &mut self.client.stats;
        match bucket {
            Bucket::Communication => stats.communication += dt,
            Bucket::LockCv => stats.lock_cv += dt,
            Bucket::Barrier => stats.barrier += dt,
        }
    }

    /// When this node charges measured wall time (socket transport), the
    /// instant a blocking wait began; `None` in virtual-time mode.
    fn real_start(&self) -> Option<Instant> {
        self.measured.then(Instant::now)
    }

    /// Completes a blocking wait that ends at virtual time `arrive`: the
    /// wait `arrive - vclock` is charged to `bucket` and, under
    /// `network.simulate`, slept through the run's [`Clock`] (never a bare
    /// `thread::sleep`). In measured mode the wall time since
    /// `real_start` is charged instead, and the virtual clock still
    /// tracks `arrive` so modeled accounting stays comparable.
    fn wait_until(&mut self, arrive: Duration, bucket: Bucket, real_start: Option<Instant>) {
        if let Some(t0) = real_start {
            self.charge(bucket, t0.elapsed());
            self.vclock = self.vclock.max(arrive);
            return;
        }
        if arrive > self.vclock {
            let dt = arrive - self.vclock;
            self.charge(bucket, dt);
            self.vclock = arrive;
            if self.network.simulate {
                self.clock.sleep(dt);
            }
        }
    }

    // ------------------------------------------------------------------
    // Byte and typed access
    // ------------------------------------------------------------------

    /// Reads `out.len()` bytes starting at `addr` (may span pages).
    pub fn read_bytes(&mut self, addr: GlobalAddr, out: &mut [u8]) {
        let mut done = self.client.read_bytes(addr, out);
        while done < out.len() {
            self.drive(Bucket::Communication);
            done += self
                .client
                .read_bytes(addr.offset(done as u64), &mut out[done..]);
        }
    }

    /// Writes `data` starting at `addr` (may span pages).
    pub fn write_bytes(&mut self, addr: GlobalAddr, data: &[u8]) {
        let mut done = self.client.write_bytes(addr, data);
        while done < data.len() {
            self.drive(Bucket::Communication);
            done += self
                .client
                .write_bytes(addr.offset(done as u64), &data[done..]);
        }
    }

    /// Reads one typed value.
    pub fn read<T: DsmData>(&mut self, addr: GlobalAddr) -> T {
        let mut buf = vec![0u8; T::LEN];
        self.read_bytes(addr, &mut buf);
        T::load(&buf)
    }

    /// Writes one typed value.
    pub fn write<T: DsmData>(&mut self, addr: GlobalAddr, value: &T) {
        let mut buf = vec![0u8; T::LEN];
        value.store(&mut buf);
        self.write_bytes(addr, &buf);
    }

    /// Reads element `i` of a shared array.
    pub fn vec_get<T: DsmData>(&mut self, v: &GlobalVec<T>, i: usize) -> T {
        self.read(v.addr_of(i))
    }

    /// Writes element `i` of a shared array.
    pub fn vec_set<T: DsmData>(&mut self, v: &GlobalVec<T>, i: usize, value: T) {
        self.write(v.addr_of(i), &value);
    }

    /// Reads elements `range` of a shared array into a vector.
    pub fn vec_read_range<T: DsmData>(
        &mut self,
        v: &GlobalVec<T>,
        range: std::ops::Range<usize>,
    ) -> Vec<T> {
        assert!(range.end <= v.len, "range out of bounds");
        if range.is_empty() {
            return Vec::new();
        }
        let mut buf = vec![0u8; (range.end - range.start) * T::LEN];
        self.read_bytes(v.addr_of(range.start), &mut buf);
        buf.chunks(T::LEN).map(T::load).collect()
    }

    /// Writes `values` into a shared array starting at element `start`.
    pub fn vec_write_range<T: DsmData>(&mut self, v: &GlobalVec<T>, start: usize, values: &[T]) {
        assert!(start + values.len() <= v.len, "range out of bounds");
        if values.is_empty() {
            return;
        }
        let mut buf = vec![0u8; values.len() * T::LEN];
        for (chunk, value) in buf.chunks_mut(T::LEN).zip(values) {
            value.store(chunk);
        }
        self.write_bytes(v.addr_of(start), &buf);
    }

    // ------------------------------------------------------------------
    // Synchronization (jia_lock / jia_unlock / jia_setcv / jia_waitcv /
    // jia_barrier)
    // ------------------------------------------------------------------

    /// Acquires a global lock. The grant carries write notices, which
    /// invalidate the acquirer's stale copies (scope consistency).
    ///
    /// # Panics
    /// If this worker already holds a lock, the same one or another, in
    /// every build: a worker holds at most one DSM lock, which makes a
    /// lock-order inversion impossible. The message names both locks and
    /// both call sites.
    #[track_caller]
    pub fn lock(&mut self, lock: u32) {
        self.client.lock(lock);
        self.drive(Bucket::LockCv);
    }

    /// Releases a global lock: flushes the interval's diffs to the home
    /// nodes and attaches the write notices to the release message.
    pub fn unlock(&mut self, lock: u32) {
        self.client.unlock(lock);
        self.drive(Bucket::LockCv);
    }

    /// Signals a condition variable (JIAJIA's `jia_setcv`), with release
    /// semantics: local modifications are flushed and their notices ride
    /// on the signal, so the woken waiter sees them. Signals count
    /// (semaphore-style), so a signal before the wait is not lost.
    pub fn setcv(&mut self, cv: u32) {
        self.client.setcv(cv);
        self.drive(Bucket::LockCv);
    }

    /// Waits on a condition variable (JIAJIA's `jia_waitcv`), with acquire
    /// semantics: the grant's write notices invalidate stale copies.
    ///
    /// Panics if a node is declared dead while this node waits (the
    /// supervision layer's wake-up); failure-tolerant code uses
    /// [`Node::try_waitcv`] instead.
    pub fn waitcv(&mut self, cv: u32) {
        if let Err(e) = self.try_waitcv(cv) {
            panic!("waitcv({cv}): {e}");
        }
    }

    /// Waits on a condition variable, surfacing a
    /// [`DsmError::NodeFailed`] instead of blocking forever when a node
    /// is declared dead while this node waits. Only a death this worker
    /// has not unwound for yet is an error; a known one just parks the
    /// wait again.
    pub fn try_waitcv(&mut self, cv: u32) -> Result<(), DsmError> {
        self.client.waitcv(cv);
        self.drive(Bucket::LockCv);
        match self.client.failure.take() {
            Some(node) => Err(DsmError::NodeFailed { node }),
            None => Ok(()),
        }
    }

    /// Global barrier (JIAJIA's `jia_barrier`): flush diffs, send the
    /// notices of everything modified since the previous barrier, wait for
    /// all nodes, and invalidate the round's notices (Fig. 6). The grant
    /// arrives at the **latest** node's virtual arrival plus the return.
    pub fn barrier(&mut self) {
        let _ = self.barrier_wait();
    }

    /// Global barrier that also reports the nodes declared dead as of
    /// this round. With supervision enabled the barrier completes once
    /// every node has either arrived or been declared dead, so survivors
    /// are never stuck waiting for a corpse. Returns the round's dead set
    /// (empty on a healthy run), which replaces this worker's.
    pub fn barrier_wait(&mut self) -> Vec<usize> {
        if self.client.failed {
            return Vec::new();
        }
        self.client.barrier();
        self.drive(Bucket::Barrier);
        self.client.known_dead()
    }

    // ------------------------------------------------------------------
    // The fault plan's crash schedule (fail-stop model)
    // ------------------------------------------------------------------

    /// The work-unit ordinal at which this node is scheduled to fail-stop,
    /// if the configured fault plan crashes it. The wavefront driver polls
    /// it after every unit.
    pub fn crash_point(&self) -> Option<u64> {
        self.faults.crash_point(self.id())
    }

    /// The number of work units of virtual downtime after which this
    /// node, once fail-stopped, is scheduled to rejoin the run. `None`
    /// means the crash is permanent (the PR-4 takeover behaviour).
    pub fn rejoin_point(&self) -> Option<u64> {
        self.faults.rejoin_point(self.id())
    }

    // ------------------------------------------------------------------
    // Supervision (failure detection + takeover support)
    // ------------------------------------------------------------------

    /// Whether the supervision layer is enabled for this run.
    pub fn supervised(&self) -> bool {
        self.supervision.enabled
    }

    /// Fail-stops this worker: broadcasts its obituary to every daemon —
    /// every manager's timeout detector firing `detect_after` later — and
    /// makes all further synchronization calls inert. The closure must
    /// return promptly; unflushed modifications are lost. The machine's
    /// daemon (the node's stable storage) keeps running.
    pub fn fail_stop(&mut self) {
        if self.client.failed {
            return;
        }
        // Stamp the obituaries with the detection latency so survivors'
        // recovery starts when a real detector would have fired.
        self.vclock += self.supervision.detect_after;
        self.client.fail_stop();
        self.drive(Bucket::Communication);
    }

    /// Whether this worker has fail-stopped.
    pub fn failed(&self) -> bool {
        self.client.failed
    }

    /// Rejoins the run after a [`Node::fail_stop`], `downtime` later in
    /// virtual time: [`Client::rejoin`] discards all a fresh process would
    /// not have (a joiner serving stale cached pages is the protocol's
    /// canonical bug) and announces the return to daemon 0, which defers
    /// the admission to the workload boundary `admit_at_round` that
    /// joiner and survivors agree on ([`Node::round`]); admitted
    /// mid-workload, the rank would make in-flight rounds wait for an
    /// arrival that targets a later round. The [`Reply::RejoinAck`] sets
    /// the epoch, the home overrides and the dead set, which is returned.
    ///
    /// **This call blocks** (in host time) until that boundary. An
    /// announcement that arrives after it passed (delayed on a lossy
    /// transport) is re-deferred to the next `admit_at_round + k·stride`:
    /// compare [`Node::round`] afterwards. `stride == 0` disables that.
    pub fn rejoin(&mut self, downtime: Duration, admit_at_round: u64, stride: u64) -> Vec<usize> {
        if self.client.failed {
            self.vclock += downtime;
            self.client.stats.recovery_time += downtime;
            self.client.rejoin(admit_at_round, stride);
            self.drive(Bucket::Barrier);
        }
        self.client.known_dead()
    }

    /// This rank's incarnation: 0 for the original life, +1 per
    /// [`Node::rejoin`].
    pub fn incarnation(&self) -> u32 {
        self.client.incarnation
    }

    /// Completed barrier rounds as of this node's last grant (its
    /// consistency epoch): identical across live nodes at a common point
    /// such as a workload boundary, the base of `admit_at_round`.
    pub fn round(&self) -> u64 {
        self.client.epoch
    }

    /// The nodes this worker knows to be dead (sorted).
    pub fn known_dead(&self) -> Vec<usize> {
        self.client.known_dead()
    }

    /// Records that this node adopted and re-executed one dead node's
    /// work unit (reported via [`NodeStats::takeovers`]).
    pub fn note_takeover(&mut self) {
        self.client.stats.takeovers += 1;
    }

    /// Flushes only the modified pages backing `v` (diffs go home now,
    /// notices stay pending for the next release): how the takeover
    /// ledger persists its cursors. An empty `v` is a no-op.
    pub fn flush_vec<T: DsmData>(&mut self, v: &GlobalVec<T>) {
        self.client.flush_vec(v);
        self.drive(Bucket::Communication);
    }

    /// Drops this node's cached copies of the pages backing `v` (a
    /// modified one is flushed first). An adopter does this before reading
    /// a dead node's ledger, whose flushes no release ever noticed. An
    /// empty `v` is a no-op.
    pub fn invalidate_vec<T: DsmData>(&mut self, v: &GlobalVec<T>) {
        self.client.invalidate_vec(v);
        self.drive(Bucket::Communication);
    }
}
