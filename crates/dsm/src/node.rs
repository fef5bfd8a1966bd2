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
//! ## Virtual time
//!
//! The simulated cluster usually runs on fewer host cores than it has
//! nodes (this reproduction was built on a single-core machine), so
//! execution times and speed-ups are tracked on **virtual clocks**:
//!
//! * [`Node::advance`] adds modeled computation time (the strategies call
//!   it with `cells × calibrated cell cost`);
//! * every protocol message carries `sender clock + network cost`, and
//!   blocking operations move the clock to the reply's virtual arrival —
//!   the wait is charged to the operation's statistics bucket;
//! * [`crate::NodeStats::total`] ends up being the node's final virtual
//!   clock, so `computation + communication + lock_cv + barrier` add up
//!   exactly like the paper's Fig. 10.
//!
//! Real kernels still run and produce real results; only *time* is
//! modeled.
//!
//! ## The own daemon
//!
//! A node's daemon serves the pages, locks and cvs it is home for. On the
//! in-process fabric the worker steps its own daemon inline for every
//! message addressed to itself, blocking or not, under the mutex it
//! shares with the daemon's thread ([`crate::daemon::Daemon::run`]), and
//! flushes the daemon's outbox before unlocking; a reply to itself is
//! then in its reply channel before it waits. Only messages to peers
//! cross a channel to another thread. The envelope is built exactly as
//! for a peer — same request id, same modeled cost, unpriced on the
//! loopback link — so the inline path moves no virtual time. On the
//! socket transport the worker has no handle and sends to its own inbox
//! like any other.

use crate::config::{DsmConfig, SupervisionConfig};
use crate::daemon::{Daemon, Outbox};
use crate::error::DsmError;
use crate::faults::FaultPlan;
use crate::msg::{Envelope, Msg, Notice, Reply, ReplyEnvelope};
use crate::net::{self, NetworkModel, RetransmitPolicy, CHAN_REQ};
use crate::page::CachedPage;
use crate::stats::NodeStats;
use crate::transport::clock::Clock;
use crate::transport::flush;
use crate::vec::{DsmData, GlobalAddr, GlobalVec};
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::panic::Location;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How pages of an allocation are assigned to home nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HomeAssign {
    /// Page `p` lives on node `p mod nprocs` (JIAJIA's default NUMA
    /// distribution).
    RoundRobin,
    /// Every page of the allocation lives on one node.
    Fixed(usize),
}

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
    id: usize,
    nprocs: usize,
    page_size: usize,
    page_shift: u32,
    cache_capacity: usize,
    network: NetworkModel,
    daemon_tx: Vec<Sender<Envelope>>,
    reply_rx: Receiver<ReplyEnvelope>,
    /// This rank's daemon, stepped inline for every message to it.
    own: Option<OwnDaemon>,
    cache: HashMap<u64, CachedPage>,
    cache_order: VecDeque<u64>,
    modified: HashSet<u64>,
    /// Notices generated by flushes of the current release operation.
    pending_notices: Vec<Notice>,
    notices_since_barrier: Vec<Notice>,
    lock_seq: HashMap<u32, u64>,
    cv_seq: HashMap<u32, u64>,
    /// The one lock this worker holds, with the site that acquired it.
    /// A worker holds at most one DSM lock, so no two workers can wait on
    /// each other's locks (DESIGN.md §5.10).
    held_lock: Option<(u32, &'static Location<'static>)>,
    alloc_next_page: u64,
    home_map: Vec<(u64, HomeAssign)>, // (first page of range, assignment)
    stats: NodeStats,
    /// This node's virtual clock.
    vclock: Duration,
    /// Relative CPU speed (heterogeneous-cluster support, §7).
    speed: f64,
    /// Migration epoch (barrier count), attached to page requests.
    epoch: u64,
    /// Pages whose home moved away from the static map (home migration).
    home_overrides: HashMap<u64, usize>,
    /// The run's fault plan: the crash/rejoin schedule, plus the link
    /// fates priced into in-process sends.
    faults: FaultPlan,
    /// Timeout policy the loss price is computed with.
    retransmit: RetransmitPolicy,
    /// Next request sequence number per daemon link.
    req_seq: Vec<u64>,
    /// Supervision layer configuration.
    supervision: SupervisionConfig,
    /// Nodes this worker knows to be dead (from `NodeFailed` wake-ups,
    /// failure reports, and barrier grants).
    known_dead: BTreeSet<usize>,
    /// Every death this worker has *ever* learned about, never cleared —
    /// not even by a barrier grant that reports the rank re-admitted.
    /// Sent as the `known` list of cancel-probes so the failure
    /// detector's death *history* only cancels waits for deaths this
    /// worker genuinely has not yet processed.
    known_ever_dead: BTreeSet<usize>,
    /// Set by [`Node::fail_stop`]: this worker is dead and every further
    /// synchronization call is inert.
    failed: bool,
    /// Incarnation counter: bumped by every [`Node::rejoin`], carried in
    /// the rejoin announcement so daemons can tell apart announcements of
    /// distinct lives of the same rank.
    incarnation: u32,
    /// Latest membership epoch gossiped back by the local daemon's
    /// failure detector (bumped there on every obituary and admitted
    /// rejoin).
    membership_epoch: u64,
    /// The run-wide cancellable sleep source; the only sanctioned way to
    /// really elapse modeled time (`network.simulate`).
    clock: Clock,
    /// True when the launcher wired this node to the socket transport:
    /// blocking waits charge *measured* wall time into the Fig. 10
    /// buckets instead of modeled virtual time, `total` becomes real
    /// elapsed time, and sends are not priced.
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
            id,
            nprocs: config.nprocs,
            page_size: config.page_size,
            page_shift: config.page_size.trailing_zeros(),
            cache_capacity: config.cache_pages,
            network: config.network,
            daemon_tx,
            reply_rx,
            own,
            cache: HashMap::new(),
            cache_order: VecDeque::new(),
            modified: HashSet::new(),
            pending_notices: Vec::new(),
            notices_since_barrier: Vec::new(),
            lock_seq: HashMap::new(),
            cv_seq: HashMap::new(),
            held_lock: None,
            alloc_next_page: 0,
            home_map: Vec::new(),
            stats: NodeStats::default(),
            vclock: Duration::ZERO,
            speed: config.speed_of(id),
            epoch: 0,
            home_overrides: HashMap::new(),
            faults: config.faults.clone(),
            retransmit: config.retransmit,
            req_seq: vec![0; config.nprocs],
            supervision: config.supervision,
            known_dead: BTreeSet::new(),
            known_ever_dead: BTreeSet::new(),
            failed: false,
            incarnation: 0,
            membership_epoch: 0,
            clock,
            measured,
            started: Instant::now(),
        }
    }

    /// This node's id (JIAJIA's `jiapid`), in `0..nprocs`.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of cluster nodes.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Statistics collected so far.
    pub fn stats(&self) -> &NodeStats {
        &self.stats
    }

    /// The node's current virtual time.
    pub fn now(&self) -> Duration {
        self.vclock
    }

    /// Advances the virtual clock by modeled computation time. Call this
    /// after real compute sections with `work × calibrated unit cost`
    /// (for the reference node speed; heterogeneous nodes scale it by
    /// their configured speed factor).
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
        self.stats.total = if self.measured {
            self.started.elapsed()
        } else {
            self.vclock
        };
        self.stats.clone()
    }

    // ------------------------------------------------------------------
    // Allocation (collective, deterministic)
    // ------------------------------------------------------------------

    fn alloc_pages(&mut self, bytes: usize, assign: HomeAssign) -> GlobalAddr {
        let pages = bytes.div_ceil(self.page_size).max(1) as u64;
        let first = self.alloc_next_page;
        self.home_map.push((first, assign));
        self.alloc_next_page += pages;
        GlobalAddr(first << self.page_shift)
    }

    /// Allocates `bytes` of zeroed shared memory with pages distributed
    /// round-robin over the nodes. Collective: all nodes must call this in
    /// the same order with the same size.
    pub fn alloc_bytes(&mut self, bytes: usize) -> GlobalAddr {
        self.alloc_pages(bytes, HomeAssign::RoundRobin)
    }

    /// Allocates `bytes` of zeroed shared memory homed entirely on `home`.
    pub fn alloc_bytes_on(&mut self, bytes: usize, home: usize) -> GlobalAddr {
        assert!(home < self.nprocs, "home node out of range");
        self.alloc_pages(bytes, HomeAssign::Fixed(home))
    }

    /// Allocates a typed shared array with round-robin homes.
    pub fn alloc_vec<T: DsmData>(&mut self, len: usize) -> GlobalVec<T> {
        GlobalVec::new(self.alloc_bytes(len * T::LEN), len)
    }

    /// Allocates a typed shared array homed on `home`.
    pub fn alloc_vec_on<T: DsmData>(&mut self, len: usize, home: usize) -> GlobalVec<T> {
        GlobalVec::new(self.alloc_bytes_on(len * T::LEN, home), len)
    }

    fn page_home(&self, page: u64) -> usize {
        if let Some(&home) = self.home_overrides.get(&page) {
            return home;
        }
        // The home map is append-only and sorted by first page.
        let Some(idx) = self
            .home_map
            .partition_point(|(first, _)| *first <= page)
            .checked_sub(1)
        else {
            panic!("access to unallocated shared memory: page {page} precedes every allocation")
        };
        match self.home_map[idx].1 {
            HomeAssign::RoundRobin => (page as usize) % self.nprocs,
            HomeAssign::Fixed(n) => n,
        }
    }

    // ------------------------------------------------------------------
    // Messaging
    // ------------------------------------------------------------------

    /// Sends a request to daemon `to` over the exactly-once fabric:
    /// number it, price it, push one envelope — into this node's own
    /// daemon by an inline step when `to` is this node and it holds the
    /// handle, into `to`'s inbox otherwise. A fault plan costs an
    /// in-process run only time ([`net::loss_price`]): the one copy
    /// pushed is stamped with the first delivered copy's arrival, a
    /// blocking request (`bucket` set) sits out the stall on this node's
    /// clock and charges it to its bucket, and fire-and-forget requests
    /// (release-type; `bucket` `None`) leave the clock alone. Loopback
    /// (worker ↔ its own machine's daemon) never traverses the network,
    /// and a measured fabric takes its losses for real, so neither is
    /// priced.
    ///
    /// Returns the request id the reply is matched on.
    fn send(&mut self, to: usize, msg: Msg, bucket: Option<Bucket>) -> u64 {
        let seq = self.req_seq[to];
        self.req_seq[to] += 1;
        let size = msg.wire_size();
        let cost = self.network.cost(self.id, to, size);
        self.stats.modeled_network += cost;
        let link = (self.id, self.nprocs + to, CHAN_REQ, seq);
        let lossy = self
            .faults
            .fates()
            .filter(|_| to != self.id && !self.measured);
        let price = net::loss_price(lossy, &self.retransmit, link, cost, self.vclock);
        self.stats.msgs_sent += price.copies;
        self.stats.bytes_sent += price.copies * size as u64;
        self.stats.retransmits += price.retransmits;
        self.stats.dups_dropped += price.dups_dropped;
        self.stats.corrupt_dropped += price.corrupt_dropped;
        if let Some(b) = bucket {
            self.charge(b, price.stall);
            self.vclock += price.stall;
        }
        let envelope = Envelope {
            msg,
            arrive: price.arrive,
            src: self.id,
            seq,
        };
        if let Some(own) = self.own.as_mut().filter(|_| to == self.id) {
            own.step(envelope, &self.daemon_tx);
        } else if self.daemon_tx[to].send(envelope).is_err() {
            // Daemons outlive every worker in DsmSystem::run; a closed
            // inbox means the daemon thread itself panicked.
            panic!("daemon {to} closed its inbox mid-run");
        }
        seq
    }

    /// Receives the reply for request `seq` of daemon `to`, moving the
    /// virtual clock to the reply's arrival and charging the wait to
    /// `bucket`. Replies are matched on their `(src, seq)` stamp; the
    /// only unmatched ones the exactly-once fabric can hand us are
    /// answers to a watchdog probe whose wait was granted first
    /// ([`Node::try_waitcv`]), and they are skipped.
    fn recv_matching(&mut self, to: usize, seq: u64, bucket: Bucket) -> Reply {
        let t0 = self.real_start();
        loop {
            let ReplyEnvelope {
                reply,
                arrive,
                src,
                seq: rseq,
            } = match self.reply_rx.recv() {
                Ok(env) => env,
                // Every daemon holds a clone of our reply sender for the
                // whole run; disconnection means they all panicked.
                Err(_) => panic!("node {}: reply channel closed mid-run", self.id),
            };
            if src == self.nprocs + to && rseq == seq {
                self.wait_until(arrive, bucket, t0);
                return reply;
            }
            self.stats.dups_dropped += 1;
        }
    }

    fn charge(&mut self, bucket: Bucket, dt: Duration) {
        match bucket {
            Bucket::Communication => self.stats.communication += dt,
            Bucket::LockCv => self.stats.lock_cv += dt,
            Bucket::Barrier => self.stats.barrier += dt,
        }
    }

    /// When this node charges measured wall time (socket transport), the
    /// instant a blocking wait began; `None` in virtual-time mode.
    fn real_start(&self) -> Option<Instant> {
        self.measured.then(Instant::now)
    }

    /// Completes a blocking wait that ends at virtual time `arrive`.
    ///
    /// In virtual-time mode the wait `arrive - vclock` is charged to
    /// `bucket` and, under `network.simulate`, really slept through the
    /// run's [`Clock`] (never a bare `thread::sleep` — the workspace
    /// lint's no-sleep rule holds here too). In measured mode (socket
    /// transport) the *measured* wall time since `real_start` is charged
    /// instead — real sockets already make the wait physical — while the
    /// virtual clock still tracks `arrive` so modeled accounting stays
    /// comparable.
    fn wait_until(&mut self, arrive: Duration, bucket: Bucket, real_start: Option<Instant>) {
        if let Some(t0) = real_start {
            self.charge(bucket, t0.elapsed());
            if arrive > self.vclock {
                self.vclock = arrive;
            }
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
    // Page cache
    // ------------------------------------------------------------------

    fn fetch_page(&mut self, page: u64, bucket: Bucket) {
        let home = self.page_home(page);
        let seq = self.send(
            home,
            Msg::GetPage {
                page,
                from: self.id,
                epoch: self.epoch,
            },
            Some(bucket),
        );
        let data = match self.recv_matching(home, seq, bucket) {
            Reply::Page { page: p, data } => {
                debug_assert_eq!(p, page);
                data
            }
            other => panic!("expected Page reply, got {other:?}"),
        };
        self.stats.page_fetches += 1;
        self.insert_page(page, CachedPage::clean(data), bucket);
    }

    fn insert_page(&mut self, page: u64, cached: CachedPage, bucket: Bucket) {
        while self.cache.len() >= self.cache_capacity {
            self.evict_one(bucket);
        }
        self.cache.insert(page, cached);
        self.cache_order.push_back(page);
    }

    /// The replacement algorithm: evict the oldest clean page; if all
    /// cached pages are modified, flush the oldest one's diff first.
    fn evict_one(&mut self, bucket: Bucket) {
        let Some(victim) = self
            .cache_order
            .iter()
            .copied()
            .find(|p| !self.modified.contains(p))
            .or_else(|| self.cache_order.front().copied())
        else {
            unreachable!("evict_one is only called with a full (non-empty) cache")
        };
        if self.modified.contains(&victim) {
            self.flush_page(victim, bucket);
        }
        self.cache.remove(&victim);
        self.cache_order.retain(|&p| p != victim);
        self.stats.evictions += 1;
    }

    /// Sends one page's diff home and records the write notice.
    fn flush_page(&mut self, page: u64, bucket: Bucket) {
        let Some(cached) = self.cache.get_mut(&page) else {
            return;
        };
        let Some(patches) = cached.take_diff() else {
            return;
        };
        self.modified.remove(&page);
        if patches.is_empty() {
            return; // twinned but unchanged: nothing to publish
        }
        let home = self.page_home(page);
        let seq = self.send(
            home,
            Msg::Diff {
                page,
                from: self.id,
                patches,
                epoch: self.epoch,
            },
            Some(bucket),
        );
        match self.recv_matching(home, seq, bucket) {
            Reply::DiffAck => {}
            other => panic!("expected DiffAck, got {other:?}"),
        }
        self.stats.diffs_sent += 1;
        let notice = Notice {
            page,
            writer: self.id,
            home,
        };
        self.notices_since_barrier.push(notice);
        self.pending_notices.push(notice);
    }

    fn ensure_readable(&mut self, page: u64) {
        if !self.cache.contains_key(&page) {
            self.fetch_page(page, Bucket::Communication);
        }
    }

    fn ensure_writable(&mut self, page: u64) {
        self.ensure_readable(page);
        let Some(cached) = self.cache.get_mut(&page) else {
            unreachable!("ensure_readable just cached page {page}")
        };
        cached.ensure_writable();
        self.modified.insert(page);
    }

    /// Flushes all modified pages, returning the interval's write notices
    /// (including notices from pages flushed early by eviction).
    fn flush_all(&mut self, bucket: Bucket) -> Vec<Notice> {
        let mut pages: Vec<u64> = self.modified.iter().copied().collect();
        pages.sort_unstable(); // deterministic flush order
        for page in pages {
            self.flush_page(page, bucket);
        }
        std::mem::take(&mut self.pending_notices)
    }

    fn invalidate(&mut self, notices: &[Notice], bucket: Bucket) {
        for n in notices {
            if n.writer == self.id {
                continue; // own writes: home already has them, cache is fresh
            }
            if self.cache.contains_key(&n.page) {
                // An unflushed local modification of the same page must be
                // published before dropping the copy (nested intervals).
                if self.modified.contains(&n.page) {
                    self.flush_page(n.page, bucket);
                }
                self.cache.remove(&n.page);
                self.cache_order.retain(|&p| p != n.page);
                self.stats.invalidations += 1;
            }
        }
    }

    // ------------------------------------------------------------------
    // Byte and typed access
    // ------------------------------------------------------------------

    /// Reads `out.len()` bytes starting at `addr` (may span pages).
    pub fn read_bytes(&mut self, addr: GlobalAddr, out: &mut [u8]) {
        let mut pos = addr.0;
        let mut done = 0;
        while done < out.len() {
            let page = pos >> self.page_shift;
            let off = (pos & (self.page_size as u64 - 1)) as usize;
            let take = (self.page_size - off).min(out.len() - done);
            self.ensure_readable(page);
            let cached = &self.cache[&page];
            out[done..done + take].copy_from_slice(&cached.data[off..off + take]);
            pos += take as u64;
            done += take;
        }
    }

    /// Writes `data` starting at `addr` (may span pages).
    pub fn write_bytes(&mut self, addr: GlobalAddr, data: &[u8]) {
        let mut pos = addr.0;
        let mut done = 0;
        while done < data.len() {
            let page = pos >> self.page_shift;
            let off = (pos & (self.page_size as u64 - 1)) as usize;
            let take = (self.page_size - off).min(data.len() - done);
            self.ensure_writable(page);
            let Some(cached) = self.cache.get_mut(&page) else {
                unreachable!("ensure_writable just cached page {page}")
            };
            cached.data[off..off + take].copy_from_slice(&data[done..done + take]);
            pos += take as u64;
            done += take;
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
        if self.failed {
            return;
        }
        let site = Location::caller();
        if let Some((held, held_site)) = self.held_lock {
            panic!(
                "node {} acquired lock {lock} at {site} while holding lock {held} \
                 (acquired at {held_site}): a worker holds at most one DSM lock",
                self.id
            );
        }
        self.held_lock = Some((lock, site));
        let manager = lock as usize % self.nprocs;
        let last_seq = self.lock_seq.get(&lock).copied().unwrap_or(0);
        let seq = self.send(
            manager,
            Msg::Acquire {
                lock,
                from: self.id,
                last_seq,
            },
            Some(Bucket::LockCv),
        );
        match self.recv_matching(manager, seq, Bucket::LockCv) {
            Reply::LockGranted { notices, seq } => {
                self.lock_seq.insert(lock, seq);
                self.invalidate(&notices, Bucket::LockCv);
            }
            other => panic!("expected LockGranted, got {other:?}"),
        }
    }

    /// Releases a global lock: flushes the interval's diffs to the home
    /// nodes and attaches the write notices to the release message.
    pub fn unlock(&mut self, lock: u32) {
        if self.failed {
            return;
        }
        assert!(
            self.held_lock.take_if(|(held, _)| *held == lock).is_some(),
            "node {} released lock {lock} it does not hold",
            self.id
        );
        let notices = self.flush_all(Bucket::LockCv);
        let manager = lock as usize % self.nprocs;
        self.send(
            manager,
            Msg::Release {
                lock,
                from: self.id,
                notices,
            },
            None,
        );
    }

    /// Signals a condition variable (JIAJIA's `jia_setcv`), with release
    /// semantics: local modifications are flushed and their notices ride
    /// on the signal, so the woken waiter sees them. Signals count
    /// (semaphore-style), so a signal before the wait is not lost.
    pub fn setcv(&mut self, cv: u32) {
        if self.failed {
            return;
        }
        let notices = self.flush_all(Bucket::LockCv);
        let manager = cv as usize % self.nprocs;
        self.send(
            manager,
            Msg::SetCv {
                cv,
                from: self.id,
                notices,
            },
            None,
        );
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
    /// is declared dead while this node waits. With supervision enabled
    /// the wait also runs the host-time stall watchdog: after
    /// `watchdog` with no reply it probes the cv's manager for failures
    /// (cancelling this parked wait if deaths are confirmed), so a lost
    /// signal or live-lock resolves into the same recovery path. Only a
    /// death this worker has not unwound for yet is an error: a manager
    /// answers a wait it would park with every death it has not itself
    /// told this worker of, and a known one just parks the wait again.
    pub fn try_waitcv(&mut self, cv: u32) -> Result<(), DsmError> {
        if self.failed {
            return Ok(());
        }
        let manager = cv as usize % self.nprocs;
        let last_seq = self.cv_seq.get(&cv).copied().unwrap_or(0);
        let wseq = self.send(
            manager,
            Msg::WaitCv {
                cv,
                from: self.id,
                last_seq,
            },
            Some(Bucket::LockCv),
        );
        let t0 = self.real_start();
        let mut probe_seq: Option<u64> = None;
        loop {
            let env = if self.supervision.enabled {
                match self.reply_rx.recv_timeout(self.supervision.watchdog) {
                    Ok(env) => env,
                    Err(RecvTimeoutError::Timeout) => {
                        if probe_seq.is_none() {
                            // The probe's `known` list is the death
                            // *history* this worker has processed, so a
                            // rank that died and was re-admitted cannot
                            // spuriously re-cancel waits after the
                            // handback barrier cleared `known_dead`.
                            let known: Vec<usize> = self.known_ever_dead.iter().copied().collect();
                            probe_seq = Some(self.send(
                                manager,
                                Msg::ProbeFailures {
                                    from: self.id,
                                    cancel_waits: true,
                                    known,
                                },
                                Some(Bucket::LockCv),
                            ));
                        }
                        continue;
                    }
                    Err(RecvTimeoutError::Disconnected) => {
                        return Err(DsmError::Disconnected("reply channel closed mid-run"))
                    }
                }
            } else {
                self.reply_rx
                    .recv()
                    .map_err(|_| DsmError::Disconnected("reply channel closed mid-run"))?
            };
            let ReplyEnvelope {
                reply,
                arrive,
                src,
                seq: rseq,
            } = env;
            let from_manager = src == self.nprocs + manager;
            if from_manager && rseq == wseq {
                self.wait_until(arrive, Bucket::LockCv, t0);
                match reply {
                    Reply::CvGranted { notices, seq } => {
                        self.cv_seq.insert(cv, seq);
                        self.invalidate(&notices, Bucket::LockCv);
                        return Ok(());
                    }
                    Reply::NodeFailed { node } => {
                        if self.known_ever_dead.insert(node) {
                            self.known_dead.insert(node);
                            return Err(DsmError::NodeFailed { node });
                        }
                        // A death this worker unwound for already, told
                        // again by a manager that could not know: the
                        // wait stands (what a probe's `known` list buys),
                        // so park it again.
                        return self.try_waitcv(cv);
                    }
                    other => panic!("expected CvGranted, got {other:?}"),
                }
            } else if from_manager && probe_seq == Some(rseq) {
                // Mid-wait probe reply: in measured mode the whole wait
                // is charged once when the grant lands (t0 spans it), so
                // only advance the virtual clock here.
                if self.measured {
                    if arrive > self.vclock {
                        self.vclock = arrive;
                    }
                } else {
                    self.wait_until(arrive, Bucket::LockCv, None);
                }
                match reply {
                    Reply::FailureReport { dead, canceled, .. } => {
                        self.known_dead.extend(dead.iter().copied());
                        self.known_ever_dead.extend(dead.iter().copied());
                        if canceled {
                            let Some(&node) = dead.first() else {
                                unreachable!("a canceling FailureReport names the dead node")
                            };
                            return Err(DsmError::NodeFailed { node });
                        }
                        // No confirmed deaths: keep waiting, allow a new
                        // probe on the next watchdog timeout.
                        probe_seq = None;
                    }
                    other => panic!("expected FailureReport, got {other:?}"),
                }
            } else {
                self.stats.dups_dropped += 1;
            }
        }
    }

    /// Global barrier (JIAJIA's `jia_barrier`): flush diffs, send the
    /// write notices of everything modified since the previous barrier,
    /// wait for all nodes, and invalidate the round's notices (Fig. 6).
    /// In virtual time the grant arrives at the **latest** node's arrival
    /// plus the return cost.
    pub fn barrier(&mut self) {
        let _ = self.barrier_wait();
    }

    /// Global barrier that also reports the nodes declared dead as of
    /// this round. With supervision enabled the barrier completes once
    /// every node has either arrived or been declared dead, so survivors
    /// are never stuck waiting for a corpse. Returns the round's dead set
    /// (empty on a healthy run).
    pub fn barrier_wait(&mut self) -> Vec<usize> {
        if self.failed {
            return Vec::new();
        }
        self.flush_all(Bucket::Barrier);
        let notices = std::mem::take(&mut self.notices_since_barrier);
        let seq = self.send(
            0,
            Msg::Barrier {
                from: self.id,
                notices,
            },
            Some(Bucket::Barrier),
        );
        match self.recv_matching(0, seq, Bucket::Barrier) {
            Reply::BarrierDone {
                notices,
                migrations,
                dead,
            } => {
                self.invalidate(&notices, Bucket::Barrier);
                self.epoch += 1;
                for (page, new_home) in migrations {
                    self.home_overrides.insert(page, new_home);
                    self.stats.migrations += 1;
                }
                // The grant's dead vector is the authoritative membership
                // view of the completed round: *replace* the local dead
                // set rather than union it, so a rank admitted back by
                // [`Node::rejoin`] leaves every survivor's dead set at the
                // same global round. A death that races past a stale grant
                // is re-learned through the usual `NodeFailed` wake-ups
                // and failure probes at the next blocking point.
                self.known_dead = dead.iter().copied().collect();
                self.known_ever_dead.extend(dead.iter().copied());
                dead
            }
            other => panic!("expected BarrierDone, got {other:?}"),
        }
    }

    // ------------------------------------------------------------------
    // The fault plan's crash schedule (fail-stop model)
    // ------------------------------------------------------------------

    /// The work-unit ordinal at which this node is scheduled to fail-stop,
    /// if the configured fault plan crashes it. The wavefront driver polls
    /// it after every unit.
    pub fn crash_point(&self) -> Option<u64> {
        self.faults.crash_point(self.id)
    }

    /// The number of work units of virtual downtime after which this
    /// node, once fail-stopped, is scheduled to rejoin the run. `None`
    /// means the crash is permanent (the PR-4 takeover behaviour).
    pub fn rejoin_point(&self) -> Option<u64> {
        self.faults.rejoin_point(self.id)
    }

    // ------------------------------------------------------------------
    // Supervision (failure detection + takeover support)
    // ------------------------------------------------------------------

    /// Whether the supervision layer is enabled for this run.
    pub fn supervised(&self) -> bool {
        self.supervision.enabled
    }

    /// Fail-stops this worker: broadcasts its obituary to every daemon —
    /// the cooperative simulation of every manager's timeout detector
    /// firing `detect_after` later — and makes all further
    /// synchronization calls inert. The worker closure must return
    /// promptly afterwards; unflushed modifications are lost, which is
    /// fail-stop semantics. The machine's daemon (home pages and
    /// lock/cv/barrier managers, i.e. the node's stable storage) keeps
    /// running.
    pub fn fail_stop(&mut self) {
        if self.failed {
            return;
        }
        // Stamp the obituaries with the detection latency so survivors'
        // recovery starts when a real detector would have fired.
        self.vclock += self.supervision.detect_after;
        for d in 0..self.nprocs {
            self.send(
                d,
                Msg::Obituary {
                    node: self.id,
                    incarnation: self.incarnation,
                },
                None,
            );
        }
        self.failed = true;
    }

    /// Whether this worker has fail-stopped.
    pub fn failed(&self) -> bool {
        self.failed
    }

    /// Rejoins the run after a [`Node::fail_stop`]: the elastic-membership
    /// announce → admission half of the join/handback protocol.
    ///
    /// The virtual clock first advances by `downtime` (the time the rank
    /// was dead). Everything a fresh worker process would not have is then
    /// discarded: the whole page cache (clean copies, twins, unflushed
    /// modifications — a joiner serving stale cached pages is the
    /// protocol's canonical bug, which the checker's rejoin campaign
    /// catches as a scope-consistency violation),
    /// pending and unpublished write notices, held-lock bookkeeping, and
    /// the lock/cv notice watermarks (cleared watermarks make the next
    /// acquire replay full notice history, which is conservative and
    /// safe). The announcement is then sent to daemon 0 — the admission
    /// authority — which *defers* the admission until its completed
    /// barrier-round count reaches `admit_at_round`, a workload boundary
    /// the joiner and the survivors agree on by construction (see
    /// [`Node::round`]). Deferral is what makes the handback safe:
    /// admitting mid-workload would make the survivors' in-flight rounds
    /// wait for a rank whose next arrival targets a later round — a
    /// barrier deadlock — so until the boundary the joiner stays
    /// dead-credited and the survivors finish the current workload over
    /// the adopters. At the boundary, daemon 0 admits the rank, forwards
    /// the announcement to every other daemon (heartbeat refresh +
    /// membership-epoch bump everywhere), and answers with
    /// [`Reply::RejoinAck`]: the joiner resynchronizes its consistency
    /// epoch to the authoritative completed-round count, replays the
    /// cumulative home-migration log into `home_overrides` (stale
    /// overrides would fetch pages from homes that shipped them away),
    /// and replaces its dead set with the post-admission view. Returns
    /// that dead set.
    ///
    /// **This call blocks** (in host time) until the admission boundary
    /// is reached. The joiner's first barrier arrival afterwards is
    /// exactly the admitted round — normally `admit_at_round`, but if
    /// the announcement reached daemon 0 *after* that boundary had
    /// already passed (delayed or retransmitted on a lossy transport)
    /// the daemon re-defers it to the next boundary multiple
    /// `admit_at_round + k·stride`, never mid-workload. Compare
    /// [`Node::round`] after this call against `admit_at_round` to
    /// detect a missed boundary; campaign drivers skip the missed
    /// workload rounds. `stride == 0` disables re-deferral (single-shot
    /// workloads with no later boundary).
    pub fn rejoin(&mut self, downtime: Duration, admit_at_round: u64, stride: u64) -> Vec<usize> {
        if !self.failed {
            return self.known_dead();
        }
        self.vclock += downtime;
        self.cache.clear();
        self.cache_order.clear();
        self.modified.clear();
        self.pending_notices.clear();
        self.notices_since_barrier.clear();
        self.lock_seq.clear();
        self.cv_seq.clear();
        self.held_lock = None;
        self.failed = false;
        // The joiner has trivially "processed" its own death: without
        // this, its first post-rejoin cancel-probe would find its own
        // rank in the detector's death history and cancel its waits.
        self.known_ever_dead.insert(self.id);
        self.incarnation += 1;
        self.stats.rejoins += 1;
        self.stats.recovery_time += downtime;
        let seq = self.send(
            0,
            Msg::Rejoin {
                node: self.id,
                incarnation: self.incarnation,
                admit_at_round,
                stride,
            },
            Some(Bucket::Barrier),
        );
        match self.recv_matching(0, seq, Bucket::Barrier) {
            Reply::RejoinAck {
                round,
                dead,
                migrations,
            } => {
                self.epoch = round;
                for (page, home) in &migrations {
                    self.home_overrides.insert(*page, *home);
                }
                // The log is cumulative over the whole run, so its length
                // is the migration count every live node has observed.
                self.stats.migrations = self.stats.migrations.max(migrations.len() as u64);
                self.known_dead = dead.iter().copied().collect();
                self.known_ever_dead.extend(dead.iter().copied());
                dead
            }
            other => panic!("expected RejoinAck, got {other:?}"),
        }
    }

    /// This rank's incarnation: 0 for the original life, +1 per
    /// [`Node::rejoin`].
    pub fn incarnation(&self) -> u32 {
        self.incarnation
    }

    /// Completed barrier rounds as of this node's last grant (its
    /// consistency epoch). All live nodes observe the same global round
    /// sequence, so a value captured at a common point — say, a
    /// workload boundary — is identical across them; campaign drivers
    /// use it as the base for [`Node::rejoin`]'s `admit_at_round`.
    pub fn round(&self) -> u64 {
        self.epoch
    }

    /// Latest membership epoch gossiped by the local daemon (bumped on
    /// every obituary and every admitted rejoin); refreshed by
    /// [`Node::probe_failures`] / [`Node::probe_suspects`].
    pub fn membership_epoch(&self) -> u64 {
        self.membership_epoch
    }

    /// Sends a liveness heartbeat to the local daemon (piggybacked
    /// gossip; free on the loopback link). No-op when supervision is
    /// disabled.
    pub fn heartbeat(&mut self) {
        if !self.supervision.enabled || self.failed {
            return;
        }
        self.stats.heartbeats += 1;
        self.send(self.id, Msg::Heartbeat { node: self.id }, None);
    }

    /// Queries the local daemon's failure detector, folding confirmed
    /// deaths into this node's dead-set. Returns the full known dead set
    /// (sorted).
    pub fn probe_failures(&mut self) -> Vec<usize> {
        if self.failed {
            return Vec::new();
        }
        let seq = self.send(
            self.id,
            Msg::ProbeFailures {
                from: self.id,
                cancel_waits: false,
                known: Vec::new(),
            },
            Some(Bucket::LockCv),
        );
        match self.recv_matching(self.id, seq, Bucket::LockCv) {
            Reply::FailureReport { dead, epoch, .. } => {
                self.known_dead.extend(dead.iter().copied());
                self.known_ever_dead.extend(dead.iter().copied());
                self.membership_epoch = self.membership_epoch.max(epoch);
            }
            other => panic!("expected FailureReport, got {other:?}"),
        }
        self.known_dead()
    }

    /// The nodes this worker knows to be dead (sorted).
    pub fn known_dead(&self) -> Vec<usize> {
        self.known_dead.iter().copied().collect()
    }

    /// Queries the local daemon's failure detector and returns its
    /// *suspicion* state: nodes whose last heartbeat is stale beyond
    /// `detect_after`. Advisory only — suspicion may include
    /// slow-but-alive nodes, so recovery never acts on it alone.
    pub fn probe_suspects(&mut self) -> Vec<usize> {
        if self.failed {
            return Vec::new();
        }
        let seq = self.send(
            self.id,
            Msg::ProbeFailures {
                from: self.id,
                cancel_waits: false,
                known: Vec::new(),
            },
            Some(Bucket::LockCv),
        );
        match self.recv_matching(self.id, seq, Bucket::LockCv) {
            Reply::FailureReport {
                dead,
                suspects,
                epoch,
                ..
            } => {
                self.known_dead.extend(dead.iter().copied());
                self.known_ever_dead.extend(dead.iter().copied());
                self.membership_epoch = self.membership_epoch.max(epoch);
                suspects
            }
            other => panic!("expected FailureReport, got {other:?}"),
        }
    }

    /// Records that this node adopted and re-executed one dead node's
    /// work unit (reported via [`NodeStats::takeovers`]).
    pub fn note_takeover(&mut self) {
        self.stats.takeovers += 1;
    }

    /// Flushes only the modified pages backing `v` (diffs go home now;
    /// write notices stay pending for the next release). Used by the
    /// takeover ledger to persist progress cursors at work-unit
    /// boundaries without flushing unrelated result data.
    pub fn flush_vec<T: DsmData>(&mut self, v: &GlobalVec<T>) {
        for page in self.pages_of(v) {
            if self.modified.contains(&page) {
                self.flush_page(page, Bucket::Communication);
            }
        }
    }

    /// Drops this node's cached (clean) copies of the pages backing `v`,
    /// so the next read fetches the home's current contents. An adopter
    /// uses this before reading a dead node's ledger: the usual
    /// notice-driven invalidation never ran for writes the dead node
    /// flushed outside a release operation.
    pub fn invalidate_vec<T: DsmData>(&mut self, v: &GlobalVec<T>) {
        for page in self.pages_of(v) {
            if self.cache.contains_key(&page) {
                if self.modified.contains(&page) {
                    self.flush_page(page, Bucket::Communication);
                }
                self.cache.remove(&page);
                self.cache_order.retain(|&p| p != page);
                self.stats.invalidations += 1;
            }
        }
    }

    /// The global page numbers backing a shared array.
    fn pages_of<T: DsmData>(&self, v: &GlobalVec<T>) -> std::ops::RangeInclusive<u64> {
        let first = v.addr_of(0).0 >> self.page_shift;
        let bytes = (v.len * T::LEN).max(1) as u64;
        let last = (v.addr_of(0).0 + bytes - 1) >> self.page_shift;
        first..=last
    }
}
