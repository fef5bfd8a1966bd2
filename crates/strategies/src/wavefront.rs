//! The one wavefront driver: every strategy and recovery mode runs this
//! stage × unit loop on a DSM [`Node`] (DESIGN.md §5.3).
//!
//! `heuristic` (§4.2) is `heuristic_block` (§4.3) without a blocking
//! factor and `pre_process` (§5) the same bands × chunks pipeline over a
//! cheaper cell: one dependency graph, a [`Grid`]. Stage `b` unit `k`
//! depends on `(b-1, k)` through a **border** chunk and on `(b, k-1)`
//! through state the [`Stage`] kernel keeps to itself; stage `b` belongs
//! to role `b mod P`. A strategy is a (grid, kernel, sink) triple; phase 2
//! is a grid whose chunks are empty, so nothing crosses a border.
//!
//! `traverse` is the only code that walks a grid. It pops and pushes
//! through one [`Border`] trait with exactly two implementations:
//! [`ChunkRing`]s on an unsupervised node, [`FlowChannel`]s over the
//! [`Ledger`] push log when `node.supervised()`. A crash means one thing:
//! a fail-stop whose roles the survivors adopt from the push ledger
//! (**takeover**, [`run_with_takeover`]), the victim free to come back at
//! the next workload boundary (**rejoin**, [`run_elastic`]). A fault plan
//! that schedules one has turned supervision on (`DsmConfig::faults`).
//!
//! A unit ordinal — what `--plan crash=node@unit` and
//! `FaultPlan::with_crash` name — counts the units a worker has
//! *completed*, over every role, takeover replay and campaign round. The
//! crash point is after the unit's compute and **before** its chunk is
//! pushed.

use crate::checkpoint::{run_elastic, run_with_takeover, FlowChannel, Ledger};
use crate::costs;
use crate::ring::ChunkRing;
use genomedsm_dsm::{DsmData, DsmError, Node};
use std::time::Duration;

/// The shape of a wavefront.
#[derive(Debug, Clone)]
pub struct Grid {
    /// Pipeline stages (row bands; column slices for `heuristic`).
    pub stages: usize,
    /// Roles `P`: stage `b` belongs to role `b mod P`.
    pub roles: usize,
    /// Border elements unit `k` of a stage hands to unit `k` of the next;
    /// zero means nothing crosses and nothing synchronizes.
    pub chunks: Vec<usize>,
    /// Chunks a producer may run ahead of its consumer (ring slots); a
    /// lone role feeds itself and needs a whole stage's worth.
    pub window: usize,
}

impl Grid {
    /// 1-based inclusive bounds of slice `k` of `total` cut into `parts`.
    pub fn slice(total: usize, parts: usize, k: usize) -> (usize, usize) {
        (k * total / parts + 1, (k + 1) * total / parts)
    }

    /// `stages` row bands cut into column `blocks` (1-based inclusive):
    /// a block of width `w` hands `w + 1` cells down — the diagonal corner
    /// plus its bottom row — and a producer may run a whole band ahead of
    /// its consumer (the pipelining Fig. 11 illustrates).
    pub fn tiled(stages: usize, blocks: &[(usize, usize)], roles: usize) -> Self {
        Self {
            stages,
            roles,
            chunks: blocks.iter().map(|&block| span(block) + 1).collect(),
            window: blocks.len(),
        }
    }

    /// Cells of a typical unit of an `across_stages` × `across_units`
    /// matrix, at least one: what prices a scheduled rejoin's downtime.
    pub fn tile_cells(&self, across_stages: usize, across_units: usize) -> usize {
        (across_stages / self.stages.max(1)).max(1)
            * (across_units / self.chunks.len().max(1)).max(1)
    }
}

/// Items in a 1-based inclusive range (none when `hi < lo`).
pub(crate) fn span((lo, hi): (usize, usize)) -> usize {
    (hi + 1).saturating_sub(lo)
}

/// Whether `node` is the lowest alive one: the rank that gathers and
/// cross-checks once the compute's closing barrier has fixed the dead set.
pub fn lowest_alive(node: &Node) -> bool {
    let dead = node.known_dead();
    (0..node.nprocs()).find(|q| !dead.contains(q)) == Some(node.id())
}

/// A strategy's cell kernel plus its result sink, driven stage by stage.
pub trait Stage {
    /// What crosses a border.
    type Cell: DsmData + Copy + Default;

    /// Resets the `(b, k-1)` state for `stage`.
    fn begin(&mut self, _stage: usize) {}

    /// Computes unit `k` of `stage` from the stage above's chunk
    /// (`Default` cells on stage 0), appends the chunk for the stage below
    /// to `outbound`, and returns the cells computed.
    fn unit(
        &mut self,
        node: &mut Node,
        stage: usize,
        k: usize,
        inbound: &[Self::Cell],
        outbound: &mut Vec<Self::Cell>,
    ) -> usize;

    /// Delivers the finished stage to the sink.
    fn end(&mut self, _node: &mut Node, _stage: usize) {}

    /// A word per executed role that outlives this worker (published in
    /// the ledger once the role completes).
    fn word(&self, _role: usize) -> i64 {
        0
    }
}

/// How border chunks travel between roles; a producer's chunks arrive in
/// push order.
pub trait Border<T> {
    /// Obtains the next chunk (`len` elements) role `from` pushed.
    fn pop(&mut self, node: &mut Node, from: usize, len: usize) -> Result<Vec<T>, DsmError>;

    /// Delivers `data` as the next chunk of role `role`.
    fn push(&mut self, node: &mut Node, role: usize, data: &[T]) -> Result<(), DsmError>;
}

/// Unsupervised DSM border: ring `q` carries chunks from role `q` to role
/// `(q+1) mod P`.
impl<T: DsmData + Copy> Border<T> for Vec<ChunkRing<T>> {
    fn pop(&mut self, node: &mut Node, from: usize, len: usize) -> Result<Vec<T>, DsmError> {
        Ok(self[from].pop(node, len))
    }

    fn push(&mut self, node: &mut Node, role: usize, data: &[T]) -> Result<(), DsmError> {
        self[role].push(node, data);
        Ok(())
    }
}

/// Supervised DSM border of a worker executing `roles`: per role, a
/// [`FlowChannel`] over the shared [`Ledger`] and the ordinals of the
/// next chunk to pop from and to push onto it.
struct LedgerBorder<'a, T: DsmData> {
    ledger: &'a Ledger<T>,
    channels: Vec<(FlowChannel, u64, u64)>,
    roles: &'a [usize],
}

impl<T: DsmData + Copy> Border<T> for LedgerBorder<'_, T> {
    fn pop(&mut self, node: &mut Node, from: usize, len: usize) -> Result<Vec<T>, DsmError> {
        let (channel, next, _) = &mut self.channels[from];
        let chunk = channel.consume(node, self.ledger, self.roles, *next, len)?;
        *next += 1;
        Ok(chunk)
    }

    fn push(&mut self, node: &mut Node, role: usize, data: &[T]) -> Result<(), DsmError> {
        let (channel, _, next) = &mut self.channels[role];
        channel.produce(node, self.ledger, self.roles, *next, data)?;
        *next += 1;
        Ok(())
    }
}

/// What a worker carries through every `traverse` it runs: the price of
/// a cell, its unit count, and the ordinal the fault plan crashes it at.
struct Worker {
    cell_cost: Duration,
    crash_at: Option<u64>,
    units: u64,
}

impl Worker {
    /// Counts a completed unit; true when the plan crashes the worker.
    fn tick(&mut self) -> bool {
        self.units += 1;
        self.crash_at == Some(self.units)
    }
}

/// Executes every stage whose role is in `execute`, ascending — the
/// wavefront order: stage `b` consumes only stage `b-1`'s chunks, which
/// this very loop produced earlier, the ledger replays, or a live
/// neighbour sends in real time.
fn traverse<K, B>(
    node: &mut Node,
    grid: &Grid,
    kernel: &mut K,
    border: &mut B,
    execute: &[usize],
    worker: &mut Worker,
) -> Result<(), DsmError>
where
    K: Stage,
    B: Border<K::Cell>,
{
    let p = grid.roles;
    let mut outbound: Vec<K::Cell> = Vec::new();
    for stage in (0..grid.stages).filter(|b| execute.contains(&(b % p))) {
        let role = stage % p;
        kernel.begin(stage);
        for (k, &len) in grid.chunks.iter().enumerate() {
            let inbound = if stage == 0 || len == 0 {
                vec![K::Cell::default(); len]
            } else {
                border.pop(node, (role + p - 1) % p, len)?
            };
            outbound.clear();
            let cells = kernel.unit(node, stage, k, &inbound, &mut outbound);
            node.advance(costs::cells(worker.cell_cost, cells));
            if worker.tick() {
                node.fail_stop();
                return Err(DsmError::Disconnected("injected fail-stop"));
            }
            if stage + 1 < grid.stages && len > 0 {
                border.push(node, role, &outbound)?;
            }
        }
        kernel.end(node, stage);
    }
    Ok(())
}

/// One round of a DSM wavefront as its `finish` step sees it.
pub struct Round<'a, K: Stage> {
    /// Virtual time at which the round's compute began.
    pub start: Duration,
    /// The kernels this worker completed — its own role's plus one per
    /// sweep that adopted more — or `None` if it fail-stopped.
    pub pieces: Option<Vec<K>>,
    ledger: Option<&'a Ledger<K::Cell>>,
}

impl<K: Stage> Round<'_, K> {
    /// Every role's published [`Stage::word`] (none unsupervised): what
    /// a role that completed and only then died still contributes.
    pub fn words(&self, node: &mut Node, roles: usize) -> Vec<i64> {
        let Some(ledger) = self.ledger else {
            return Vec::new();
        };
        (0..roles).map(|r| ledger.snapshot(node, r).user).collect()
    }
}

/// Concatenates the sinks of a round's kernels, moving the first —
/// normally the only — one instead of copying it.
pub fn concat<T>(parts: impl IntoIterator<Item = Vec<T>>) -> Vec<T> {
    let mut parts = parts.into_iter();
    let mut all = parts.next().unwrap_or_default();
    all.extend(parts.flatten());
    all
}

/// A wavefront run on the DSM: the grid, its prices, its campaign.
#[derive(Debug, Clone)]
pub struct Wavefront<'a> {
    /// The dependency grid.
    pub grid: &'a Grid,
    /// Virtual cost of one cell update.
    pub cell_cost: Duration,
    /// Cells of a typical unit ([`Grid::tile_cells`]).
    pub unit_cells: usize,
    /// Workloads run back to back on the same cluster (a campaign).
    pub rounds: usize,
    /// Barriers `finish` takes, for the rejoin protocol's round budget.
    pub finish_barriers: usize,
}

impl Wavefront<'_> {
    /// Runs the wavefront on this node, once per round: allocates the
    /// border (the ledger when `node.supervised()`, rings otherwise),
    /// executes this node's role and any it must adopt with kernels from
    /// `kernel(roles)`, and hands them to `finish`, which runs on every
    /// node, dead ones included, after the barrier that follows the last
    /// unit. Returns `finish`'s result per round (`R::default()` for one
    /// a late joiner missed).
    pub fn run<K, R>(
        &self,
        node: &mut Node,
        mut kernel: impl FnMut(&[usize]) -> K,
        mut finish: impl FnMut(&mut Node, Round<'_, K>) -> R,
    ) -> Vec<R>
    where
        K: Stage,
        R: Default,
    {
        let grid = self.grid;
        let (p, window) = (grid.roles, grid.window.max(1));
        let stride = grid.chunks.iter().copied().max().unwrap_or(0);
        let supervised = node.supervised();
        let mut worker = Worker {
            cell_cost: self.cell_cost,
            crash_at: node.crash_point(),
            units: 0,
        };
        let mut round = |node: &mut Node, w: usize| {
            // Fresh border and cvs per round: a prior round's push log or
            // signal surplus must not leak forward.
            let cv = |q: usize| (2 * (p * w + q)) as u32;
            // A role pushes at most one chunk per unit of each stage.
            let entries = grid.stages.div_ceil(p) * grid.chunks.len();
            let ledger = (supervised && stride > 0)
                .then(|| Ledger::<K::Cell>::new(node, p, entries, stride));
            let mut rings: Vec<ChunkRing<K::Cell>> = (0..p)
                .filter(|_| !supervised && stride > 0)
                .map(|q| ChunkRing::new(node, window, stride, q, cv(q), cv(q) + 1))
                .collect();
            node.barrier();
            let start = node.now();
            let pieces = run_with_takeover(node, p, |node, roles, resume| {
                let mut k = kernel(roles);
                let Some(ledger) = &ledger else {
                    traverse(node, grid, &mut k, &mut rings, roles, &mut worker)?;
                    return Ok(k);
                };
                let link = |q| {
                    let flow = window as u64;
                    let channel =
                        FlowChannel::new(node, ledger, q, (q + 1) % p, cv(q), flow, resume);
                    (channel, 0, 0)
                };
                let channels = (0..p).map(link).collect();
                let mut border = LedgerBorder {
                    ledger,
                    channels,
                    roles,
                };
                traverse(node, grid, &mut k, &mut border, roles, &mut worker)?;
                // Word before done flag: a death in between re-executes
                // the role rather than trusting a stale word.
                for &r in roles {
                    ledger.set_user(node, r, k.word(r));
                    ledger.mark_done(node, r);
                }
                Ok(k)
            });
            let ledger = ledger.as_ref();
            finish(
                node,
                Round {
                    start,
                    pieces,
                    ledger,
                },
            )
        };
        if !supervised {
            return (0..self.rounds).map(|w| round(node, w)).collect();
        }
        // Barrier budget: membership refresh, border barrier, a takeover
        // sweep of at most one round per node, and `finish`'s own.
        let budget = p + 2 + self.finish_barriers;
        let unit_time = costs::cells(self.cell_cost, self.unit_cells);
        run_elastic(node, self.rounds, budget, unit_time, round)
    }
}
