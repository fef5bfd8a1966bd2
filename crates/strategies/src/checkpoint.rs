//! Shared takeover machinery: per-role progress ledgers in DSM, adopter
//! selection, and crash-safe on-disk checkpoint files.
//!
//! The supervision layer (crate `genomedsm-dsm`) turns a fail-stopped
//! node into typed [`DsmError::NodeFailed`] errors at every blocked
//! synchronization point. This module supplies the *application-level*
//! half of fault tolerance that the wavefront driver
//! ([`crate::wavefront`]) builds on:
//!
//! * a [`Ledger`] — per-role `[pushes, pops, done]` meta plus a push
//!   *log* of every border chunk a role has produced, all living in DSM
//!   and flushed at work-unit boundaries. Meta and log are homed on the
//!   role's own node, so per-op flushes are self-sends with **zero
//!   virtual network cost** on the fault-free path; the surviving daemon
//!   keeps them readable after the worker dies ("the process dies, the
//!   machine and its memory survive");
//! * [`adopter_of`] / [`adopted_roles`] — the deterministic takeover
//!   assignment: a dead role is re-executed by the next *alive* node in
//!   cyclic band order, so a contiguous run of corpses folds into the
//!   single survivor that ends it and every node computes the same
//!   assignment without communicating;
//! * [`AtomicFileWriter`] / [`read_verified`] — crash-safe file writes
//!   (stream to a temp file, append a checksummed length footer, fsync,
//!   atomically rename) with a reader that rejects truncated or
//!   corrupted files with typed [`std::io::ErrorKind::InvalidData`]
//!   errors instead of silently yielding garbage.
//!
//! The replay rules [`FlowChannel`] implements on top (see
//! `DESIGN.md` §5.8): a chunk whose ordinal is below the recorded
//! `pushes` of its producer is read back from the log instead of the
//! ring; a pop whose ordinal is below the recorded `pops` of its
//! consumer replays without touching condition variables; pushes onto a
//! *dead* producer's ring gate on the consumer's recorded pop count
//! (its credits died with it). Because the log is written before the
//! meta that publishes it, a torn death loses at most the last
//! unpublished unit — which the adopter then recomputes.

use genomedsm_dsm::{DsmData, DsmError, GlobalVec, Node};
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Typed error of a strategy run: an I/O failure (checkpoint and
/// saved-column files), a DSM-level failure that recovery could not
/// absorb, or a worker thread that died without producing a result.
#[derive(Debug)]
pub enum StrategyError {
    /// An I/O operation failed; `context` names the file and operation.
    Io {
        /// What was being done, e.g. `"write saved-column file node_2.cols"`.
        context: String,
        /// The underlying error.
        source: io::Error,
    },
    /// A DSM synchronization or transport error reached the strategy
    /// level (e.g. a `NodeFailed` in non-tolerant mode).
    Dsm(DsmError),
    /// A worker thread panicked or its result channel closed early.
    Worker(String),
}

impl fmt::Display for StrategyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StrategyError::Io { context, source } => write!(f, "{context}: {source}"),
            StrategyError::Dsm(e) => write!(f, "dsm: {e}"),
            StrategyError::Worker(what) => write!(f, "worker failed: {what}"),
        }
    }
}

impl std::error::Error for StrategyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StrategyError::Io { source, .. } => Some(source),
            StrategyError::Dsm(e) => Some(e),
            StrategyError::Worker(_) => None,
        }
    }
}

impl From<DsmError> for StrategyError {
    fn from(e: DsmError) -> Self {
        StrategyError::Dsm(e)
    }
}

impl StrategyError {
    /// Wraps an `io::Error` with a context string.
    pub fn io(context: impl Into<String>, source: io::Error) -> Self {
        StrategyError::Io {
            context: context.into(),
            source,
        }
    }
}

/// Convenience alias used by the strategy entry points.
pub type StrategyResult<T> = Result<T, StrategyError>;

// ---------------------------------------------------------------------------
// Adopter selection
// ---------------------------------------------------------------------------

/// The node that re-executes dead `role`'s work: the next *alive* node
/// cyclically after it. Panics if every node is dead (no survivors means
/// no run).
pub fn adopter_of(role: usize, nprocs: usize, dead: &[usize]) -> usize {
    assert!(role < nprocs);
    for step in 1..=nprocs {
        let cand = (role + step) % nprocs;
        if !dead.contains(&cand) {
            return cand;
        }
    }
    panic!("no survivors to adopt role {role}");
}

/// The dead roles node `me` is responsible for, in ascending role order.
/// Empty when `me` itself is dead (a corpse adopts nothing).
pub fn adopted_roles(me: usize, nprocs: usize, dead: &[usize]) -> Vec<usize> {
    if dead.contains(&me) {
        return Vec::new();
    }
    let mut mine: Vec<usize> = dead
        .iter()
        .copied()
        .filter(|&r| r < nprocs && adopter_of(r, nprocs, dead) == me)
        .collect();
    mine.sort_unstable();
    mine
}

/// The roles node `me` executes after adopting: its own plus its adopted
/// dead roles, ascending. Identical on every survivor for a given dead
/// set, which is what lets takeover proceed without any coordination
/// beyond the dead set itself.
pub fn merged_roles(me: usize, nprocs: usize, dead: &[usize]) -> Vec<usize> {
    let mut roles = adopted_roles(me, nprocs, dead);
    roles.push(me);
    roles.sort_unstable();
    roles
}

// ---------------------------------------------------------------------------
// DSM progress ledger
// ---------------------------------------------------------------------------

/// Snapshot of one role's published progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LedgerMeta {
    /// Chunks this role has pushed (log entries `0..pushes` are valid).
    pub pushes: u64,
    /// Chunks this role has consumed from its input ring.
    pub pops: u64,
    /// Whether the role finished its band loop and published results.
    pub done: bool,
    /// Strategy-defined word published at role completion (pre_process
    /// stores the role's best SW score here so a completed-then-died
    /// role's contribution survives the loss of its worker memory).
    pub user: i64,
}

const META_PUSHES: usize = 0;
const META_POPS: usize = 1;
const META_DONE: usize = 2;
const META_USER: usize = 3;
const META_LEN: usize = 4;

/// Per-role takeover ledger: `[pushes, pops, done]` meta words plus a
/// fixed-stride log of every chunk the role pushed, both homed on the
/// role's node. All methods are cheap self-sends on the fault-free path
/// and remote reads only during takeover.
#[derive(Debug)]
pub struct Ledger<T: DsmData> {
    metas: Vec<GlobalVec<i64>>,
    logs: Vec<GlobalVec<T>>,
    stride: usize,
}

impl<T: DsmData + Copy> Ledger<T> {
    /// Collectively allocates the ledger for `nroles` roles, each with a
    /// push log of `log_entries` chunks of up to `stride` elements.
    /// Role `r`'s meta and log are homed on node `r % nprocs`.
    pub fn new(node: &mut Node, nroles: usize, log_entries: usize, stride: usize) -> Self {
        assert!(stride >= 1, "degenerate ledger stride");
        let nprocs = node.nprocs();
        let mut metas = Vec::with_capacity(nroles);
        let mut logs = Vec::with_capacity(nroles);
        for r in 0..nroles {
            metas.push(node.alloc_vec_on::<i64>(META_LEN, r % nprocs));
            logs.push(node.alloc_vec_on::<T>(log_entries.max(1) * stride, r % nprocs));
        }
        Self {
            metas,
            logs,
            stride,
        }
    }

    /// Records that `role` pushed `data` as chunk `ordinal`: the chunk is
    /// appended to the log and the published push count advances to
    /// `ordinal + 1`. Log before meta, so a readable meta always covers
    /// fully written log entries.
    pub fn record_push(&self, node: &mut Node, role: usize, ordinal: u64, data: &[T]) {
        assert!(data.len() <= self.stride, "chunk exceeds ledger stride");
        let base = ordinal as usize * self.stride;
        node.vec_write_range(&self.logs[role], base, data);
        node.flush_vec(&self.logs[role]);
        node.vec_set(&self.metas[role], META_PUSHES, ordinal as i64 + 1);
        node.flush_vec(&self.metas[role]);
    }

    /// Publishes `role`'s consumed-chunk count.
    pub fn record_pop(&self, node: &mut Node, role: usize, pops: u64) {
        node.vec_set(&self.metas[role], META_POPS, pops as i64);
        node.flush_vec(&self.metas[role]);
    }

    /// Marks `role`'s band loop complete (results published).
    pub fn mark_done(&self, node: &mut Node, role: usize) {
        node.vec_set(&self.metas[role], META_DONE, 1);
        node.flush_vec(&self.metas[role]);
    }

    /// Publishes `role`'s strategy-defined completion word (see
    /// [`LedgerMeta::user`]). Publish it *before* [`Ledger::mark_done`]:
    /// a death between the two leaves `done` unset, so the role is
    /// re-executed rather than trusted with a stale word.
    pub fn set_user(&self, node: &mut Node, role: usize, value: i64) {
        node.vec_set(&self.metas[role], META_USER, value);
        node.flush_vec(&self.metas[role]);
    }

    /// Reads `role`'s current published progress, bypassing this node's
    /// stale cached copy.
    pub fn snapshot(&self, node: &mut Node, role: usize) -> LedgerMeta {
        node.invalidate_vec(&self.metas[role]);
        let words = node.vec_read_range(&self.metas[role], 0..META_LEN);
        LedgerMeta {
            pushes: words[META_PUSHES].max(0) as u64,
            pops: words[META_POPS].max(0) as u64,
            done: words[META_DONE] != 0,
            user: words[META_USER],
        }
    }

    /// Reads back chunk `ordinal` (`len` elements) from `role`'s push
    /// log, bypassing stale cache. Only valid for `ordinal <
    /// snapshot(role).pushes`.
    pub fn read_chunk(&self, node: &mut Node, role: usize, ordinal: u64, len: usize) -> Vec<T> {
        assert!(len <= self.stride, "read exceeds ledger stride");
        node.invalidate_vec(&self.logs[role]);
        let base = ordinal as usize * self.stride;
        node.vec_read_range(&self.logs[role], base..base + len)
    }
}

// ---------------------------------------------------------------------------
// Tolerant border flow
// ---------------------------------------------------------------------------

/// Border channel of the tolerant (takeover-capable) strategy paths.
///
/// In tolerant mode the producer's push *log* in the [`Ledger`] is the
/// data channel itself — ring slots are not used, because an adopter that
/// re-signals chunks the corpse may already have signaled could wake the
/// consumer into reading a half-overwritten slot; log entries have one
/// address per ordinal and cannot be torn that way. Condition variables
/// degrade to pure wake-up hints and the ledger meta is the one source of
/// truth:
///
/// * [`FlowChannel::consume`] waits only while the producer's published
///   push count is at or below the wanted ordinal. A spurious or
///   duplicated signal costs a wasted meta check, never a wrong read,
///   and a chunk whose signal died with a corpse is found by the meta
///   check without waiting at all.
/// * [`FlowChannel::produce`] gates on the consumer's *published* pop
///   count instead of local credits (an adopter cannot know how many ack
///   signals the corpse consumed). The gate is skipped when the consumer
///   is dead or executed by this very node — the log is unbounded in
///   ordinal space, so flow control serves no purpose there and would
///   deadlock against a ghost.
/// * a consumer records its pop *before* acknowledging, so a lost ack
///   implies the pop is already published and the producer's meta gate
///   cannot block on it.
///
/// On the fault-free path (`resume == false`, no known deaths) signals
/// and records are 1:1 exactly as in [`crate::ring::ChunkRing`], so the
/// channel trusts the signal count and never reads remote meta — the
/// only cost over the plain ring is the self-homed (zero virtual cost)
/// meta flush per chunk.
#[derive(Debug)]
pub struct FlowChannel {
    producer: usize,
    consumer: usize,
    data_cv: u32,
    ack_cv: u32,
    capacity: u64,
    /// Producer-side: chunks already in the log (skip re-recording).
    recorded_pushes: u64,
    /// Consumer-side: pops already published (replay below this).
    recorded_pops: u64,
    /// Consumer-side view of the producer's push meta.
    cached_pushes: u64,
    /// Producer-side view of the consumer's pop meta.
    cached_pops: u64,
    /// Whether signal counts are still 1:1 with records (fresh channel,
    /// no deaths absorbed). Cleared conservatively on any failure.
    trust_signals: bool,
}

impl FlowChannel {
    /// Builds the channel for ring `producer → consumer`, signaling data
    /// on `data_cv` and acknowledgements on `data_cv + 1`. With `resume`
    /// set (takeover or restart) the counters are initialized from the
    /// published ledger metas; a fresh channel starts from zero without
    /// touching the network.
    pub fn new<T: DsmData + Copy>(
        node: &mut Node,
        ledger: &Ledger<T>,
        producer: usize,
        consumer: usize,
        data_cv: u32,
        capacity: u64,
        resume: bool,
    ) -> Self {
        assert!(capacity >= 1, "degenerate flow channel");
        let (pushes, pops) = if resume {
            (
                ledger.snapshot(node, producer).pushes,
                ledger.snapshot(node, consumer).pops,
            )
        } else {
            (0, 0)
        };
        Self {
            producer,
            consumer,
            data_cv,
            ack_cv: data_cv + 1,
            capacity,
            recorded_pushes: pushes,
            recorded_pops: pops,
            cached_pushes: pushes,
            cached_pops: pops,
            trust_signals: !resume,
        }
    }

    /// Whether `role` runs on another node that is still alive (only
    /// such roles take part in flow control and wake-ups).
    fn external_alive(&self, node: &Node, role: usize, roles: &[usize]) -> bool {
        !roles.contains(&role) && !node.known_dead().contains(&role)
    }

    /// Absorbs a failure that does not change this node's merged role
    /// set (someone else's adopter handles it — retry the operation) and
    /// propagates one that does (the caller must restart its merged
    /// loop).
    fn absorb(&mut self, node: &Node, roles: &[usize], e: DsmError) -> Result<(), DsmError> {
        self.trust_signals = false;
        match e {
            DsmError::NodeFailed { .. } => {
                let now = merged_roles(node.id(), node.nprocs(), &node.known_dead());
                if now == roles {
                    Ok(())
                } else {
                    Err(e)
                }
            }
            other => Err(other),
        }
    }

    /// Producer side: delivers chunk `ordinal` of role `producer`.
    /// Already-recorded ordinals (replay after restart) skip the log
    /// write; an adopter still re-signals them in case the corpse died
    /// between recording and signaling. `roles` is the executing node's
    /// current merged role set.
    pub fn produce<T: DsmData + Copy>(
        &mut self,
        node: &mut Node,
        ledger: &Ledger<T>,
        roles: &[usize],
        ordinal: u64,
        data: &[T],
    ) -> Result<(), DsmError> {
        let fresh = ordinal >= self.recorded_pushes;
        // Flow-control gate: fresh chunks only, and only against a live
        // consumer on another node.
        while fresh
            && ordinal >= self.cached_pops + self.capacity
            && self.external_alive(node, self.consumer, roles)
        {
            match node.try_waitcv(self.ack_cv) {
                Ok(()) if self.trust_signals => self.cached_pops += 1,
                Ok(()) => self.cached_pops = ledger.snapshot(node, self.consumer).pops,
                Err(e) => {
                    self.absorb(node, roles, e)?;
                    self.cached_pops = ledger.snapshot(node, self.consumer).pops;
                }
            }
        }
        if fresh {
            ledger.record_push(node, self.producer, ordinal, data);
            self.recorded_pushes = ordinal + 1;
            // An internal consumer (both endpoints run here) reads the
            // meta through this same channel object.
            self.cached_pushes = self.cached_pushes.max(ordinal + 1);
        }
        let adopted = self.producer != node.id();
        // Signal every external consumer — even a dead one, whose
        // adopter may be parked on this cv re-executing the role (it
        // snapshots the meta after every wake-up, so surplus signals are
        // harmless while a withheld one would strand it).
        if !roles.contains(&self.consumer) && (fresh || (adopted && ordinal >= self.cached_pops)) {
            node.setcv(self.data_cv);
        }
        Ok(())
    }

    /// Consumer side: obtains chunk `ordinal` (`len` elements) of role
    /// `producer`, waiting while it is unpublished. Already-popped
    /// ordinals (replay) read the log without touching condition
    /// variables.
    pub fn consume<T: DsmData + Copy>(
        &mut self,
        node: &mut Node,
        ledger: &Ledger<T>,
        roles: &[usize],
        ordinal: u64,
        len: usize,
    ) -> Result<Vec<T>, DsmError> {
        while self.cached_pushes <= ordinal {
            debug_assert!(
                !roles.contains(&self.producer),
                "internal chunk {ordinal} of role {} consumed before production",
                self.producer
            );
            match node.try_waitcv(self.data_cv) {
                // Fresh channel, no deaths: one signal per record, so a
                // granted wait proves the chunk is published (the
                // producer records before signaling).
                Ok(()) if self.trust_signals => self.cached_pushes = ordinal + 1,
                Ok(()) => {
                    let seen = ledger.snapshot(node, self.producer).pushes;
                    self.cached_pushes = self.cached_pushes.max(seen);
                }
                Err(e) => {
                    self.absorb(node, roles, e)?;
                    let seen = ledger.snapshot(node, self.producer).pushes;
                    self.cached_pushes = self.cached_pushes.max(seen);
                }
            }
        }
        let data = ledger.read_chunk(node, self.producer, ordinal, len);
        if ordinal >= self.recorded_pops {
            // Publish before acking: a death after the ack can then
            // never hide a pop from the producer's meta gate.
            ledger.record_pop(node, self.consumer, ordinal + 1);
            self.recorded_pops = ordinal + 1;
            if !roles.contains(&self.producer) {
                node.setcv(self.ack_cv);
            }
        }
        Ok(data)
    }
}

// ---------------------------------------------------------------------------
// Takeover driver
// ---------------------------------------------------------------------------

/// The attempt/sweep skeleton every tolerant strategy runs.
///
/// `body(node, execute, resume)` must fully execute the given role set
/// (in the strategy's dependency order) and return its results; with
/// `resume` set it replays recorded progress from the ledger. The driver:
///
/// 1. **Attempts**: runs the node's merged role set; a
///    [`DsmError::NodeFailed`] that body propagates (the merged set
///    changed) restarts the attempt from scratch — recorded chunks
///    replay from the log, recomputation models the real cost of
///    checkpoint-free takeover.
/// 2. **Sweep**: loops on [`Node::barrier_wait`]; while the dead set
///    keeps growing, roles not yet handled by this node are re-executed
///    by pure replay (every producer has finished or died by then, so
///    nothing blocks). A healthy run's first barrier reports no deaths
///    and the sweep exits immediately — the fault-free path pays exactly
///    the one barrier the plain strategy already had.
///
/// The sweep's exit test compares each round's dead vector against the
/// *previous round's grant*: within one workload grants are monotone,
/// so this is equivalent to the per-node seen-union, and every live
/// node — receiving the identical global grant sequence — exits at the
/// same round.
///
/// Within one workload a fail-stop is **permanent**: this driver
/// returns `None` and the strategy returns its sentinel result. A
/// scheduled rejoin ([`Node::rejoin_point`]) is the campaign driver
/// [`run_elastic`]'s business — admission happens only at a workload
/// boundary, never mid-workload, because a joiner re-entering
/// mid-stream would race its own adopter on the flow-control condition
/// variables and desynchronize the anonymous barrier rounds.
pub fn run_with_takeover<R>(
    node: &mut Node,
    nprocs: usize,
    mut body: impl FnMut(&mut Node, &[usize], bool) -> Result<R, DsmError>,
) -> Option<Vec<R>> {
    if node.failed() {
        // A fail-stopped rank must not execute the body at all: its sync
        // ops are inert but its page reads are not, so running compute
        // here would resurrect the corpse. Campaign rounds after a
        // permanent death land here.
        return None;
    }
    let p = node.id();
    let mut pieces = Vec::new();
    let completed = loop {
        let dead = node.known_dead();
        let roles = merged_roles(p, nprocs, &dead);
        match body(node, &roles, !dead.is_empty()) {
            Ok(piece) => {
                pieces.push(piece);
                break roles;
            }
            Err(_) if node.failed() => return None,
            Err(DsmError::NodeFailed { .. }) => continue,
            Err(e) => panic!("unrecoverable DSM error during takeover: {e}"),
        }
    };
    for &r in &completed {
        if r != p {
            node.note_takeover();
        }
    }
    let mut handled: std::collections::BTreeSet<usize> = completed.into_iter().collect();
    let mut prev_dead: Vec<usize> = Vec::new();
    loop {
        let dead = node.barrier_wait();
        if dead.iter().all(|d| prev_dead.contains(d)) {
            break;
        }
        let mine = merged_roles(p, nprocs, &dead);
        let todo: Vec<usize> = mine
            .iter()
            .copied()
            .filter(|r| !handled.contains(r))
            .collect();
        if !todo.is_empty() {
            match body(node, &todo, true) {
                Ok(piece) => {
                    pieces.push(piece);
                    for &r in &todo {
                        handled.insert(r);
                        if r != p {
                            node.note_takeover();
                        }
                    }
                }
                Err(_) if node.failed() => return None,
                // The dead set grew mid-sweep: the next barrier round
                // recomputes the assignment and retries.
                Err(DsmError::NodeFailed { .. }) => {}
                Err(e) => panic!("unrecoverable DSM error during takeover: {e}"),
            }
        }
        prev_dead = dead;
    }
    Some(pieces)
}

/// Virtual downtime of a scheduled rejoin: `units` work units at the
/// strategy's calibrated per-unit cost.
pub fn rejoin_downtime(unit_time: Duration, units: u64) -> Duration {
    unit_time.saturating_mul(units.min(u64::from(u32::MAX)) as u32)
}

/// The elastic-membership campaign driver: runs `rounds` workloads and
/// implements the **join/handback protocol** around them.
///
/// Every node calls this with the same arguments; `body(node, w)` runs
/// workload `w` end to end (typically via [`run_with_takeover`]) and
/// must tolerate being called on a fail-stopped node (all its DSM sync
/// ops are inert; [`run_with_takeover`] returns `None` and the body
/// returns its sentinel).
///
/// The driver's contract is **round determinism**: each workload is
/// padded with empty barriers up to a fixed per-round `budget`, so the
/// global barrier-round number of every workload boundary is known to
/// every rank — even to a fail-stopped one whose own grants are inert.
/// That is what lets a joiner name its admission round: at the first
/// boundary after its crash it calls [`Node::rejoin`] with
/// `admit_at_round = base + (w+1) × budget`; daemon 0 parks the
/// announcement until the survivors' padding completes the boundary
/// round, the handback happens there, and the joiner re-enters the next
/// workload owning its original role again (the ledgers of the crashed
/// workload stay with the adopters — catch-up already replayed them).
///
/// `budget` must be at least the barrier count of the worst workload
/// **plus one**: the driver opens every round with a membership-refresh
/// barrier (the boundary round's own grant is issued before admissions
/// drain, so it still dead-credits the joiner), then the body's own
/// barriers follow — `1 + base_barriers + kills` (each observed death
/// adds at most one sweep round). The driver asserts it. `unit_time`
/// prices the joiner's virtual downtime ([`Node::rejoin_point`] is
/// denominated in work units).
///
/// Liveness assumes the transport's delivery bound: an announcement
/// sent at a boundary is delivered before the campaign's final barrier
/// tears the run down (the checker's rejoin campaign, in
/// `verify::daemon`, gates its last barrier on the same assumption).
/// Schedule rejoin points inside the campaign, not at its very end.
///
/// Returns one body result per workload round; rounds a late-admitted
/// joiner missed hold `R::default()`, the same sentinel a dead rank
/// reports.
pub fn run_elastic<R: Default>(
    node: &mut Node,
    rounds: usize,
    budget: usize,
    unit_time: Duration,
    mut body: impl FnMut(&mut Node, usize) -> R,
) -> Vec<R> {
    let base = node.round();
    let mut rejoined = false;
    let mut out = Vec::with_capacity(rounds);
    let mut w = 0usize;
    while w < rounds {
        // Boundary w: the first boundary after this rank's crash is
        // where it announces. Admission is deferred by daemon 0 to the
        // boundary round itself, so this blocks (in host time) until
        // every survivor has finished workload w-1 and its padding.
        if node.failed() && !rejoined {
            if let Some(units) = node.rejoin_point() {
                node.rejoin(
                    rejoin_downtime(unit_time, units),
                    base + (w as u64) * budget as u64,
                    budget as u64,
                );
                rejoined = true;
                // If the announcement missed its boundary (delayed or
                // retransmitted past it), daemon 0 re-deferred the
                // admission to a later boundary multiple. The missed
                // workloads ran without us — the survivors' adopters
                // owned our roles — so record their dead sentinel and
                // catch up to the admitted boundary's workload index.
                let admitted = node.round();
                while base + (w as u64) * (budget as u64) < admitted && w < rounds {
                    out.push(R::default());
                    w += 1;
                }
                if w >= rounds {
                    break;
                }
            }
        }
        let before = node.round();
        // Membership refresh: the boundary round's grant was issued
        // while the joiner was still dead-credited (admissions drain
        // after the grants go out), so every rank takes one barrier
        // before the body consults its membership view — this round's
        // grant reflects every admission drained at the boundary. Costs
        // one budget round; inert on a dead rank, as required.
        node.barrier_wait();
        out.push(body(node, w));
        let used = (node.round() - before) as usize;
        assert!(
            used <= budget,
            "workload {w} consumed {used} barrier rounds, budget is {budget}"
        );
        // Padding keeps every boundary at a globally known round number
        // regardless of how many sweep rounds the deaths cost. A failed
        // rank's barriers are inert, which is exactly right: it is
        // dead-credited until its admission boundary.
        for _ in used..budget {
            node.barrier_wait();
        }
        w += 1;
    }
    // Closing boundary: a rank whose crash landed in the last workload
    // (or whose scheduled downtime reaches past it) rejoins here, so a
    // campaign always ends with full membership and the rejoin is
    // observable in the run's stats. Stride 0: there is no boundary
    // after this one to re-defer a late announcement to.
    if node.failed() && !rejoined {
        if let Some(units) = node.rejoin_point() {
            node.rejoin(
                rejoin_downtime(unit_time, units),
                base + (rounds as u64) * budget as u64,
                0,
            );
        }
    }
    node.barrier();
    out
}

// ---------------------------------------------------------------------------
// Crash-safe checkpoint files
// ---------------------------------------------------------------------------

/// Footer magic of a complete checkpoint/saved-column file.
pub const FILE_MAGIC: u64 = 0x4753_4d43_4b50_5431; // "GSMCKPT1"

/// 64-bit FNV-1a over `bytes`, seeded by the running `state` (start from
/// [`FNV_OFFSET`]).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into a running FNV-1a state.
pub fn fnv1a_fold(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// Streaming crash-safe file writer: bytes go to `<path>.tmp` while a
/// running length and FNV-1a checksum accumulate; [`finish`] appends the
/// `payload_len | checksum | magic` footer, fsyncs, and atomically
/// renames over the final path. A crash at any earlier point leaves
/// either the old file or a `.tmp` that [`read_verified`] rejects —
/// never a silently truncated checkpoint. A writer dropped unfinished
/// (an I/O error mid-stream) unlinks its `.tmp`.
///
/// [`finish`]: AtomicFileWriter::finish
#[derive(Debug)]
pub struct AtomicFileWriter {
    tmp_path: PathBuf,
    final_path: PathBuf,
    out: BufWriter<File>,
    len: u64,
    fnv: u64,
    /// Whether [`finish`](Self::finish) moved the temp file into place.
    renamed: bool,
}

impl AtomicFileWriter {
    /// Opens `<path>.tmp` for writing.
    pub fn create(path: &Path) -> io::Result<Self> {
        let tmp_path = tmp_sibling(path);
        let out = BufWriter::new(File::create(&tmp_path)?);
        Ok(Self {
            tmp_path,
            final_path: path.to_path_buf(),
            out,
            len: 0,
            fnv: FNV_OFFSET,
            renamed: false,
        })
    }

    /// Appends payload bytes.
    pub fn write_all(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.out.write_all(bytes)?;
        self.len += bytes.len() as u64;
        self.fnv = fnv1a_fold(self.fnv, bytes);
        Ok(())
    }

    /// Payload bytes written so far.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether no payload has been written yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Writes the footer, fsyncs, and renames onto the final path.
    pub fn finish(mut self) -> io::Result<()> {
        let mut footer = [0u8; 24];
        footer[0..8].copy_from_slice(&self.len.to_le_bytes());
        footer[8..16].copy_from_slice(&self.fnv.to_le_bytes());
        footer[16..24].copy_from_slice(&FILE_MAGIC.to_le_bytes());
        self.out.write_all(&footer)?;
        self.out.flush()?;
        self.out.get_ref().sync_all()?;
        std::fs::rename(&self.tmp_path, &self.final_path)?;
        self.renamed = true;
        Ok(())
    }
}

impl Drop for AtomicFileWriter {
    fn drop(&mut self) {
        if !self.renamed {
            // Nothing useful to do with a failure here: the caller is
            // already returning the error that abandoned the write.
            let _ = std::fs::remove_file(&self.tmp_path);
        }
    }
}

fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Reads a file written by [`AtomicFileWriter`], verifying the footer:
/// returns the payload bytes, or an [`io::ErrorKind::InvalidData`] error
/// naming the defect (missing footer, bad magic, length mismatch,
/// checksum mismatch) for truncated or corrupted files.
pub fn read_verified(path: &Path) -> io::Result<Vec<u8>> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    let corrupt = |detail: String| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: {detail}", path.display()),
        )
    };
    if bytes.len() < 24 {
        return Err(corrupt(format!(
            "file too short for checkpoint footer ({} bytes)",
            bytes.len()
        )));
    }
    let body = bytes.len() - 24;
    let word = |at: usize| {
        let mut a = [0u8; 8];
        a.copy_from_slice(&bytes[at..at + 8]);
        u64::from_le_bytes(a)
    };
    let (len, fnv, magic) = (word(body), word(body + 8), word(body + 16));
    if magic != FILE_MAGIC {
        return Err(corrupt(format!("bad checkpoint magic {magic:#018x}")));
    }
    if len != body as u64 {
        return Err(corrupt(format!(
            "checkpoint footer claims {len} payload bytes, file has {body}"
        )));
    }
    let got = fnv1a_fold(FNV_OFFSET, &bytes[..body]);
    if got != fnv {
        return Err(corrupt(format!(
            "checkpoint checksum mismatch: footer {fnv:#018x}, computed {got:#018x}"
        )));
    }
    bytes.truncate(body);
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use genomedsm_dsm::{DsmConfig, DsmSystem};

    /// Writes `payload` crash-safely to `path` in one shot.
    fn write_verified(path: &Path, payload: &[u8]) -> io::Result<()> {
        let mut w = AtomicFileWriter::create(path)?;
        w.write_all(payload)?;
        w.finish()
    }

    #[test]
    fn adopters_fold_contiguous_dead_runs() {
        // 8 nodes, 1/2/6 dead: 2's adopter is 3; 1's adopter skips 2 to 3;
        // 6's is 7. Node 3 thus runs bands for roles {1, 2, 3}.
        let dead = vec![1, 2, 6];
        assert_eq!(adopter_of(1, 8, &dead), 3);
        assert_eq!(adopter_of(2, 8, &dead), 3);
        assert_eq!(adopter_of(6, 8, &dead), 7);
        assert_eq!(merged_roles(3, 8, &dead), vec![1, 2, 3]);
        assert_eq!(merged_roles(7, 8, &dead), vec![6, 7]);
        assert_eq!(merged_roles(0, 8, &dead), vec![0]);
        assert!(
            adopted_roles(2, 8, &dead).is_empty(),
            "corpses adopt nothing"
        );
    }

    #[test]
    fn adoption_wraps_cyclically() {
        // Last node dead: node 0 adopts it (band order wraps).
        let dead = vec![3];
        assert_eq!(adopter_of(3, 4, &dead), 0);
        assert_eq!(merged_roles(0, 4, &dead), vec![0, 3]);
    }

    #[test]
    fn ledger_roundtrips_across_nodes() {
        let run = DsmSystem::run(DsmConfig::new(2), |node| {
            let ledger = Ledger::<i32>::new(node, 2, 4, 3);
            node.barrier();
            if node.id() == 0 {
                ledger.record_push(node, 0, 0, &[1, 2, 3]);
                ledger.record_push(node, 0, 1, &[4, 5]);
                ledger.record_pop(node, 0, 7);
                ledger.set_user(node, 0, -9);
                ledger.mark_done(node, 0);
            }
            node.barrier();
            let meta = ledger.snapshot(node, 0);
            assert_eq!(
                meta,
                LedgerMeta {
                    pushes: 2,
                    pops: 7,
                    done: true,
                    user: -9
                }
            );
            let mut got = ledger.read_chunk(node, 0, 0, 3);
            got.extend(ledger.read_chunk(node, 0, 1, 2));
            node.barrier();
            got
        });
        for r in &run.results {
            assert_eq!(*r, vec![1, 2, 3, 4, 5]);
        }
    }

    #[test]
    fn ledger_survives_its_writers_death() {
        // The role's worker dies after publishing; the ledger lives in
        // its daemon, which survives, so the adopter still reads it.
        let cfg = DsmConfig::new(2).supervise(genomedsm_dsm::SupervisionConfig {
            enabled: true,
            detect_after: std::time::Duration::from_millis(100),
            watchdog: std::time::Duration::from_millis(500),
        });
        let run = DsmSystem::run(cfg, |node| {
            let ledger = Ledger::<i64>::new(node, 2, 2, 2);
            node.barrier();
            if node.id() == 1 {
                ledger.record_push(node, 1, 0, &[42, 43]);
                ledger.record_pop(node, 1, 1);
                node.fail_stop();
                return vec![];
            }
            let dead = node.barrier_wait();
            assert_eq!(dead, vec![1]);
            let meta = ledger.snapshot(node, 1);
            assert_eq!(meta.pushes, 1);
            assert_eq!(meta.pops, 1);
            assert!(!meta.done);
            ledger.read_chunk(node, 1, 0, 2)
        });
        assert_eq!(run.results[0], vec![42, 43]);
    }

    #[test]
    fn flow_channel_pipelines_fresh() {
        // Fault-free path: 40 chunks through a capacity-2 channel, data
        // carried by the ledger log, signals trusted 1:1.
        let run = DsmSystem::run(DsmConfig::new(2), |node| {
            let ledger = Ledger::<i32>::new(node, 2, 40, 3);
            node.barrier();
            let roles = [node.id()];
            let mut ch = FlowChannel::new(node, &ledger, 0, 1, 0, 2, false);
            let mut got = Vec::new();
            if node.id() == 0 {
                for c in 0..40 {
                    ch.produce(node, &ledger, &roles, c, &[c as i32, c as i32 * 2])
                        .unwrap();
                }
            } else {
                for c in 0..40 {
                    got.extend(ch.consume(node, &ledger, &roles, c, 2).unwrap());
                }
            }
            node.barrier();
            got
        });
        let expect: Vec<i32> = (0..40).flat_map(|c| [c, c * 2]).collect();
        assert_eq!(run.results[1], expect);
    }

    #[test]
    fn flow_channel_internal_endpoints_replay_from_log() {
        // Both endpoints on one executor (merged roles): record-only
        // produce, wait-free consume, no condition variables at all.
        let run = DsmSystem::run(DsmConfig::new(1), |node| {
            let ledger = Ledger::<i64>::new(node, 1, 8, 1);
            node.barrier();
            let roles = [0];
            let mut ch = FlowChannel::new(node, &ledger, 0, 0, 0, 1, false);
            for c in 0..8u64 {
                ch.produce(node, &ledger, &roles, c, &[c as i64 * 3])
                    .unwrap();
            }
            let mut sum = 0;
            for c in 0..8u64 {
                sum += ch.consume(node, &ledger, &roles, c, 1).unwrap()[0];
            }
            node.barrier();
            sum
        });
        assert_eq!(run.results[0], (0..8).map(|c| c * 3).sum::<i64>());
    }

    #[test]
    fn flow_channel_adopter_redelivers_after_death() {
        // Node 1 (middle of a 3-stage pipeline) dies after recording two
        // chunks but signaling only implicitly; node 2 adopts role 1,
        // replays its consumed input from node 0's log, and re-produces —
        // the downstream consumer (also node 2, internal) sees all data.
        let cfg = DsmConfig::new(3).supervise(genomedsm_dsm::SupervisionConfig {
            enabled: true,
            detect_after: std::time::Duration::from_millis(50),
            watchdog: std::time::Duration::from_millis(400),
        });
        let run = DsmSystem::run(cfg, |node| {
            let ledger = Ledger::<i32>::new(node, 3, 6, 1);
            node.barrier();
            match node.id() {
                0 => {
                    let roles = [0];
                    let mut out = FlowChannel::new(node, &ledger, 0, 1, 0, 6, false);
                    for c in 0..6 {
                        out.produce(node, &ledger, &roles, c, &[10 + c as i32])
                            .unwrap();
                    }
                    let dead = node.barrier_wait();
                    assert_eq!(dead, vec![1]);
                    Vec::new()
                }
                1 => {
                    let roles = [1];
                    let mut inp = FlowChannel::new(node, &ledger, 0, 1, 0, 6, false);
                    let mut out = FlowChannel::new(node, &ledger, 1, 2, 2, 6, false);
                    for c in 0..2 {
                        let v = inp.consume(node, &ledger, &roles, c, 1).unwrap()[0];
                        out.produce(node, &ledger, &roles, c, &[v * 2]).unwrap();
                    }
                    node.fail_stop();
                    Vec::new()
                }
                _ => {
                    let mut got = Vec::new();
                    let mut roles = vec![2];
                    let mut inp = FlowChannel::new(node, &ledger, 1, 2, 2, 6, false);
                    let mut c = 0u64;
                    while c < 6 {
                        match inp.consume(node, &ledger, &roles, c, 1) {
                            Ok(v) => {
                                got.push(v[0]);
                                c += 1;
                            }
                            Err(DsmError::NodeFailed { .. }) => {
                                // Adopt role 1: replay its input and
                                // re-produce; restart our own consume.
                                roles = merged_roles(2, 3, &node.known_dead());
                                assert_eq!(roles, vec![1, 2]);
                                let mut r_in = FlowChannel::new(node, &ledger, 0, 1, 0, 6, true);
                                let mut r_out = FlowChannel::new(node, &ledger, 1, 2, 2, 6, true);
                                for k in 0..6 {
                                    let v = r_in.consume(node, &ledger, &roles, k, 1).unwrap()[0];
                                    r_out.produce(node, &ledger, &roles, k, &[v * 2]).unwrap();
                                }
                                got.clear();
                                inp = FlowChannel::new(node, &ledger, 1, 2, 2, 6, true);
                                // Replayed pops of our own role: consume
                                // resumes where the meta says we left off.
                                let resumed = inp.recorded_pops;
                                for k in 0..resumed {
                                    got.push(ledger.read_chunk(node, 1, k, 1)[0]);
                                }
                                c = resumed;
                            }
                            Err(e) => panic!("unexpected: {e}"),
                        }
                    }
                    let dead = node.barrier_wait();
                    assert_eq!(dead, vec![1]);
                    got
                }
            }
        });
        assert_eq!(run.results[2], vec![20, 22, 24, 26, 28, 30]);
    }

    #[test]
    fn verified_file_roundtrip_and_corruption_detection() {
        let dir = std::env::temp_dir().join(format!("ckpt_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cols.bin");

        let payload: Vec<u8> = (0..=255).collect();
        write_verified(&path, &payload).unwrap();
        assert_eq!(read_verified(&path).unwrap(), payload);
        assert!(!path.with_file_name("cols.bin.tmp").exists());

        // Truncation (a torn write that lost the footer) is rejected.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        let err = read_verified(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // A single flipped payload bit is rejected by the checksum.
        let mut flipped = full.clone();
        flipped[10] ^= 0x40;
        std::fs::write(&path, &flipped).unwrap();
        let err = read_verified(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"));

        // Empty payloads are representable.
        write_verified(&path, &[]).unwrap();
        assert_eq!(read_verified(&path).unwrap(), Vec::<u8>::new());

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn streaming_writer_matches_one_shot() {
        let dir = std::env::temp_dir().join(format!("ckpt_stream_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.bin");
        let b = dir.join("b.bin");
        let payload = b"border rows, in pieces".to_vec();

        write_verified(&a, &payload).unwrap();
        let mut w = AtomicFileWriter::create(&b).unwrap();
        for piece in payload.chunks(5) {
            w.write_all(piece).unwrap();
        }
        assert_eq!(w.len(), payload.len() as u64);
        w.finish().unwrap();

        assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unfinished_writer_removes_its_temp_file() {
        let dir = std::env::temp_dir().join(format!("ckpt_drop_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cols.bin");
        let tmp = path.with_file_name("cols.bin.tmp");

        // Abandoned before any final file exists: nothing is left behind.
        let mut w = AtomicFileWriter::create(&path).unwrap();
        w.write_all(b"half a column").unwrap();
        assert!(tmp.exists());
        drop(w);
        assert!(!tmp.exists(), "abandoned temp file survived the writer");
        assert!(!path.exists());

        // Abandoned over an earlier complete file: that file is untouched.
        write_verified(&path, b"complete").unwrap();
        let mut w = AtomicFileWriter::create(&path).unwrap();
        w.write_all(b"half a rewrite").unwrap();
        drop(w);
        assert!(!tmp.exists());
        assert_eq!(read_verified(&path).unwrap(), b"complete");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejoin_downtime_is_units_times_unit_cost() {
        use std::time::Duration;
        assert_eq!(
            rejoin_downtime(Duration::from_millis(3), 7),
            Duration::from_millis(21)
        );
        assert_eq!(rejoin_downtime(Duration::from_millis(3), 0), Duration::ZERO);
        // Saturates instead of overflowing on absurd unit counts.
        let _ = rejoin_downtime(Duration::from_secs(1), u64::MAX);
    }

    #[test]
    fn ledger_replay_edge_cases() {
        // Satellite coverage: an empty (never-written) ledger snapshots to
        // all-zero progress; a resume-from-zero channel replays nothing
        // and then operates normally; sequential adoptions of the same
        // role pick up from the exact published cursor each time.
        let run = DsmSystem::run(DsmConfig::new(1), |node| {
            let ledger = Ledger::<i32>::new(node, 1, 8, 1);
            node.barrier();

            // Empty ledger: zero cursors, not done, zero user word.
            let meta = ledger.snapshot(node, 0);
            assert_eq!(
                meta,
                LedgerMeta {
                    pushes: 0,
                    pops: 0,
                    done: false,
                    user: 0
                }
            );

            // Replay-to-cursor-zero: a resume channel over the empty
            // ledger starts from ordinal 0 like a fresh one.
            let roles = [0usize];
            let mut ch = FlowChannel::new(node, &ledger, 0, 0, 0, 1, true);
            for c in 0..3u64 {
                ch.produce(node, &ledger, &roles, c, &[c as i32 + 1])
                    .unwrap();
            }
            for c in 0..3u64 {
                assert_eq!(
                    ch.consume(node, &ledger, &roles, c, 1).unwrap(),
                    vec![c as i32 + 1]
                );
            }

            // First adoption of role 0: the adopter's channel resumes at
            // the published cursors (3 pushes, 3 pops) and extends the
            // log; a second sequential adoption resumes at the new
            // cursor (5) — nothing is replayed twice, nothing skipped.
            for round in 0..2u64 {
                let mut adopted = FlowChannel::new(node, &ledger, 0, 0, 0, 1, true);
                let base = 3 + round * 2;
                for c in base..base + 2 {
                    adopted
                        .produce(node, &ledger, &roles, c, &[c as i32 + 1])
                        .unwrap();
                    assert_eq!(
                        adopted.consume(node, &ledger, &roles, c, 1).unwrap(),
                        vec![c as i32 + 1]
                    );
                }
                assert_eq!(ledger.snapshot(node, 0).pushes, base + 2);
            }

            // The full log is readable back byte-for-byte.
            let all: Vec<i32> = (0..7)
                .map(|c| ledger.read_chunk(node, 0, c, 1)[0])
                .collect();
            node.barrier();
            all
        });
        assert_eq!(run.results[0], vec![1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn elastic_driver_readmits_at_the_boundary() {
        // Three ranks, two campaign rounds with a barrier budget of 3
        // (refresh + one body barrier + one spare).
        // Rank 2 dies in round 0 and is scheduled to rejoin; the driver
        // must re-admit it at the round-1 boundary so round 1 runs on the
        // full cluster, and every rank's boundary rounds line up.
        let cfg = DsmConfig::new(3)
            .supervise(genomedsm_dsm::SupervisionConfig {
                enabled: true,
                detect_after: std::time::Duration::from_millis(50),
                watchdog: std::time::Duration::from_millis(400),
            })
            .faults(crate::crashes(&[(2, 1)], &[(2, 4)]));
        let run = DsmSystem::run(cfg, |node| {
            node.barrier();
            let base = node.round();
            let memberships = run_elastic(
                node,
                2,
                3,
                std::time::Duration::from_millis(1),
                |node, w| {
                    if node.failed() {
                        return usize::MAX;
                    }
                    if node.id() == 2 && w == 0 {
                        node.fail_stop();
                        return usize::MAX;
                    }
                    let dead = node.barrier_wait();
                    assert_eq!(
                        node.round(),
                        base + (w as u64) * 3 + 2,
                        "refresh + body barrier land inside the round's budget"
                    );
                    3 - dead.len()
                },
            );
            assert_eq!(node.round(), base + 7, "2 rounds × budget 3 + close");
            memberships
        });
        // Round 0 ran degraded (the kill fires before the body barrier on
        // rank 2), round 1 at full strength after the boundary handback.
        for id in 0..2 {
            assert_eq!(run.results[id], vec![2, 3], "rank {id} memberships");
        }
        assert_eq!(run.results[2], vec![usize::MAX, 3], "joiner's view");
        assert_eq!(run.stats.iter().map(|s| s.rejoins).sum::<u64>(), 1);
    }

    #[test]
    fn elastic_driver_leaves_a_permanent_death_degraded() {
        // Same shape but no scheduled rejoin: the cluster stays at N−1
        // for the rest of the campaign — the degradation baseline the
        // rejoin sweep compares against.
        let cfg = DsmConfig::new(3)
            .supervise(genomedsm_dsm::SupervisionConfig {
                enabled: true,
                detect_after: std::time::Duration::from_millis(50),
                watchdog: std::time::Duration::from_millis(400),
            })
            .faults(crate::crashes(&[(2, 1)], &[]));
        let run = DsmSystem::run(cfg, |node| {
            node.barrier();
            run_elastic(
                node,
                2,
                3,
                std::time::Duration::from_millis(1),
                |node, w| {
                    if node.failed() {
                        return usize::MAX;
                    }
                    if node.id() == 2 && w == 0 {
                        node.fail_stop();
                        return usize::MAX;
                    }
                    3 - node.barrier_wait().len()
                },
            )
        });
        for id in 0..2 {
            assert_eq!(run.results[id], vec![2, 2], "rank {id} stays degraded");
        }
        assert_eq!(run.stats.iter().map(|s| s.rejoins).sum::<u64>(), 0);
    }
}
