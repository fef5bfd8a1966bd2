//! The shipped serve admission gate under the model checker.
//!
//! [`AdmissionSpec`] steps one real [`AdmissionGate`]. Client `c` is
//! named by `NAMES[c]`, has weight `c + 1`, and offers its requests one
//! per step; request `i` carries `i + 1` work units. A worker is ready
//! when a request is queued or the gate is closed, as a worker blocked in
//! `AdmissionQueue::next` is woken, and calls the real `pick`; once the
//! gate is closed and drained it exits. A closer calls `close` at a point
//! the scheduler chooses.
//!
//! Checked after every step: the depth never exceeds the capacity; each
//! client's requests are dispatched once and in FIFO order; no client
//! with queued work has a strictly smaller `served / weight` than the
//! client picked; an offer after close is refused. At quiescence, per
//! client: offered = submitted + rejected and submitted = dispatched, in
//! the gate's own ledger.
//!
//! A [`Perturbation`] breaks the harness, never the gate, and must be
//! caught ([`SEEDED`]).

use genomedsm_serve::AdmissionGate;
use shuttle::check::Procs;
use shuttle::{Ctx, Process, Spec};
use std::collections::VecDeque;
use Proc::{Client, Closer, Worker};

/// Client names; the gate breaks fairness ties by name.
const NAMES: [&str; 3] = ["a", "b", "c"];

/// A deliberate break, applied by the harness; the gate runs unmodified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Perturbation {
    /// When the gate is full, the client treats a request as refused
    /// without offering it, so the gate's ledger never records it.
    DropOnReject,
}

/// `clients` clients offering `requests` each to a gate of `capacity`,
/// drained by `workers` workers.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionSpec {
    /// Offering clients, at most `NAMES.len()`.
    pub clients: usize,
    /// Requests each client offers.
    pub requests: u64,
    /// The gate's capacity.
    pub capacity: usize,
    /// Workers calling `pick`.
    pub workers: usize,
    /// The harness break, if any.
    pub broken: Option<Perturbation>,
}

/// The seeded regression: its report row, the workload that exercises
/// it, and the symptom the checker must report.
pub const SEEDED: (&str, AdmissionSpec, &str) = (
    "admission/drop-on-reject",
    AdmissionSpec {
        clients: 2,
        requests: 2,
        capacity: 1,
        workers: 1,
        broken: Some(Perturbation::DropOnReject),
    },
    "request lost",
);

/// The gate and what the checks track, per client.
pub struct World {
    spec: AdmissionSpec,
    gate: AdmissionGate<(usize, u64)>,
    offered: Vec<u64>,
    /// Accepted and not yet dispatched, in submission order.
    queued: Vec<VecDeque<u64>>,
    /// Work units dispatched.
    served: Vec<u64>,
    closed: bool,
    violations: Vec<String>,
}

impl World {
    fn depth(&self) -> usize {
        self.queued.iter().map(VecDeque::len).sum()
    }

    /// Client `c` offers its next request.
    fn offer(&mut self, c: usize, ctx: &mut Ctx) {
        let spec = self.spec;
        let i = self.offered[c];
        self.offered[c] += 1;
        let full = !self.closed && self.depth() >= spec.capacity;
        if full && spec.broken == Some(Perturbation::DropOnReject) {
            return ctx.trace(format!("client {c} drops request {i} unoffered"));
        }
        let accepted = self
            .gate
            .submit(NAMES[c], c as u64 + 1, i + 1, (c, i))
            .is_ok();
        ctx.trace(format!("client {c} offers {i}: accepted {accepted}"));
        if !accepted {
            return;
        }
        self.queued[c].push_back(i);
        let depth = self.depth();
        if self.closed {
            self.violations
                .push(format!("client {c} request {i} accepted after close"));
        } else if depth > spec.capacity {
            self.violations
                .push(format!("depth {depth} exceeds capacity {}", spec.capacity));
        }
    }

    /// A worker's `pick`; returns whether it exits.
    fn pick(&mut self, ctx: &mut Ctx) -> bool {
        let Some((name, (c, i))) = self.gate.pick() else {
            ctx.trace("pick: none");
            let depth = self.depth();
            if depth > 0 {
                self.violations
                    .push(format!("pick found nothing with {depth} queued"));
            }
            return true;
        };
        ctx.trace(format!("pick client {c} request {i}"));
        let weight = |d: usize| d as u128 + 1;
        for d in (0..self.queued.len()).filter(|&d| !self.queued[d].is_empty()) {
            if (self.served[d] as u128) * weight(c) < (self.served[c] as u128) * weight(d) {
                self.violations.push(format!(
                    "picked client {c} over client {d}, whose served/weight is smaller"
                ));
            }
        }
        if name != NAMES[c] || self.queued[c].pop_front() != Some(i) {
            self.violations.push(format!(
                "client {c} request {i} dispatched as {name:?} out of FIFO order or twice"
            ));
        }
        self.served[c] += i + 1;
        false
    }
}

/// One checker process: a client, a worker (`true` once exited), or the
/// closer.
#[derive(Debug, Clone, Copy)]
enum Proc {
    Client(usize),
    Worker(bool),
    Closer,
}

impl Process<World> for Proc {
    fn ready(&self, w: &World) -> bool {
        match *self {
            Client(c) => w.offered[c] < w.spec.requests,
            Worker(exited) => !exited && (w.closed || w.depth() > 0),
            Closer => !w.closed,
        }
    }

    fn done(&self, w: &World) -> bool {
        match *self {
            Worker(exited) => exited,
            _ => !self.ready(w),
        }
    }

    fn step(&mut self, w: &mut World, ctx: &mut Ctx) {
        match *self {
            Client(c) => w.offer(c, ctx),
            Worker(_) => *self = Worker(w.pick(ctx)),
            Closer => {
                w.gate.close();
                w.closed = true;
                ctx.trace("close");
            }
        }
    }
}

impl Spec for AdmissionSpec {
    type S = World;

    fn build(&self) -> (World, Procs<World>) {
        let world = World {
            spec: *self,
            gate: AdmissionGate::new(self.capacity),
            offered: vec![0; self.clients],
            queued: vec![VecDeque::new(); self.clients],
            served: vec![0; self.clients],
            closed: false,
            violations: Vec::new(),
        };
        let procs = (0..self.clients)
            .map(Client)
            .chain((0..self.workers).map(|_| Worker(false)))
            .chain([Closer])
            .map(|p| Box::new(p) as Box<dyn Process<World>>)
            .collect();
        (world, procs)
    }

    fn invariant(&self, w: &World) -> Result<(), String> {
        w.violations.first().cloned().map_or(Ok(()), Err)
    }

    fn terminal(&self, w: &World) -> Result<(), String> {
        let stats = w.gate.snapshot();
        for (c, &offered) in w.offered.iter().enumerate() {
            let row = stats.clients.iter().find(|r| r.client == NAMES[c]);
            let (submitted, rejected, dispatched) =
                row.map_or((0, 0, 0), |r| (r.submitted, r.rejected, r.dispatched));
            if submitted + rejected != offered {
                return Err(format!(
                    "client {c}: {submitted} submitted + {rejected} rejected != {offered} offered (request lost)"
                ));
            }
            if dispatched != submitted {
                return Err(format!(
                    "client {c}: {dispatched} of {submitted} submitted dispatched"
                ));
            }
        }
        Ok(())
    }
}
