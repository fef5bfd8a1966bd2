//! Admission control: a bounded queue with weighted fair dispatch.
//!
//! The service must degrade by **refusing**, never by hanging or by
//! silently dropping: when the queue is at capacity, `submit` returns a
//! typed [`Overloaded`] immediately (the caller turns it into an
//! `Overloaded` response), and once a request is accepted it is
//! dispatched exactly once. The decision is [`AdmissionGate`], which
//! names no lock; `genomedsm-verify` steps it under every interleaving of
//! clients, workers and a closer, and checks that the depth stays within
//! capacity, that each accepted request is dispatched once and in
//! client FIFO order, that nothing offered is lost, and that the fair
//! pick never passes over a client with a smaller ratio.
//!
//! Dispatch order is **weighted fair** across clients: among clients
//! with pending requests, pick the one with the smallest
//! `served_units / weight` ratio (compared exactly via cross
//! multiplication — no floats), FIFO within a client, lexicographic
//! client name as the deterministic tie-break. A client that floods the
//! queue can exhaust *its own* patience, not other clients' throughput:
//! the ratio ledger keeps light clients ahead of heavy ones at every
//! pick, which is the fairness the e2e test reads out of
//! [`AdmissionStats`].
//!
//! This sits *above* the batch scheduler's windowed backpressure: this
//! queue decides **which request** runs next; the scheduler's window
//! bounds in-flight jobs **within** the request that is running.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Typed rejection: the bounded queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Overloaded {
    /// Queue depth at the moment of rejection (== `limit`).
    pub depth: usize,
    /// The queue's capacity.
    pub limit: usize,
}

impl fmt::Display for Overloaded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "queue full: depth {} of {}", self.depth, self.limit)
    }
}

impl std::error::Error for Overloaded {}

/// One client's ledger row.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ClientStats {
    /// Client name.
    pub client: String,
    /// Scheduling weight (≥ 1).
    pub weight: u64,
    /// Requests accepted from this client.
    pub submitted: u64,
    /// Requests refused with [`Overloaded`].
    pub rejected: u64,
    /// Requests dispatched to a worker.
    pub dispatched: u64,
    /// Work units (query count) dispatched for this client.
    pub served_units: u64,
}

/// Queue-level counters plus the per-client ledger.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AdmissionStats {
    /// Requests currently queued.
    pub depth: u64,
    /// Highest depth ever observed (the watermark).
    pub high_water: u64,
    /// The admission limit.
    pub capacity: u64,
    /// Total requests accepted.
    pub submitted: u64,
    /// Total requests refused.
    pub rejected: u64,
    /// Total requests dispatched.
    pub dispatched: u64,
    /// Per-client rows, sorted by client name.
    pub clients: Vec<ClientStats>,
}

struct ClientState<T> {
    row: ClientStats,
    pending: VecDeque<(u64, T)>,
}

/// The admission decision, with no lock in it: the bounded queue, the
/// per-client ledger and the weighted fair pick. [`AdmissionQueue`] holds
/// one behind a `Mutex` and wakes waiting workers with a `Condvar`; the
/// `genomedsm-verify` checker steps one directly.
pub struct AdmissionGate<T> {
    capacity: usize,
    clients: HashMap<String, ClientState<T>>,
    depth: usize,
    high_water: usize,
    closed: bool,
}

impl<T> AdmissionGate<T> {
    /// A gate admitting at most `capacity` requests (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            clients: HashMap::new(),
            depth: 0,
            high_water: 0,
            closed: false,
        }
    }

    /// Admits or refuses a request from `client` (with scheduling
    /// `weight`, clamped to ≥ 1, and `units` of work for the fairness
    /// ledger), recording the outcome in the client's ledger.
    ///
    /// # Errors
    /// [`Overloaded`] when the queue is at capacity; the request is
    /// **not** enqueued. Also refused (as `Overloaded` at zero capacity)
    /// after [`close`](Self::close).
    pub fn submit(
        &mut self,
        client: &str,
        weight: u64,
        units: u64,
        item: T,
    ) -> Result<(), Overloaded> {
        let state = self
            .clients
            .entry(client.to_string())
            .or_insert_with(|| ClientState {
                row: ClientStats {
                    client: client.to_string(),
                    ..ClientStats::default()
                },
                pending: VecDeque::new(),
            });
        state.row.weight = weight.max(1);
        if self.closed || self.depth >= self.capacity {
            state.row.rejected += 1;
            let (depth, limit) = if self.closed {
                (0, 0)
            } else {
                (self.depth, self.capacity)
            };
            return Err(Overloaded { depth, limit });
        }
        state.pending.push_back((units, item));
        state.row.submitted += 1;
        self.depth += 1;
        self.high_water = self.high_water.max(self.depth);
        Ok(())
    }

    /// Dispatches the next request under the weighted fair policy and
    /// charges its units to the client's ledger in the same step. `None`
    /// when nothing is queued.
    pub fn pick(&mut self) -> Option<(String, T)> {
        let name = fair_pick(&self.clients)?;
        let state = self.clients.get_mut(&name)?;
        let (units, item) = state.pending.pop_front()?;
        state.row.dispatched += 1;
        state.row.served_units += units;
        self.depth -= 1;
        Some((name, item))
    }

    /// Refuses every later submission; queued requests still drain
    /// through [`pick`](Self::pick).
    pub fn close(&mut self) {
        self.closed = true;
    }

    /// A snapshot of the counters and the per-client ledger.
    pub fn snapshot(&self) -> AdmissionStats {
        let mut clients: Vec<ClientStats> = self.clients.values().map(|s| s.row.clone()).collect();
        clients.sort_by(|a, b| a.client.cmp(&b.client));
        let total = |count: fn(&ClientStats) -> u64| clients.iter().map(count).sum();
        AdmissionStats {
            depth: self.depth as u64,
            high_water: self.high_water as u64,
            capacity: self.capacity as u64,
            submitted: total(|c| c.submitted),
            rejected: total(|c| c.rejected),
            dispatched: total(|c| c.dispatched),
            clients,
        }
    }
}

/// The bounded, weighted-fair request queue: an [`AdmissionGate`] that
/// workers can block on.
///
/// `T` is the request payload; each entry also carries a work-unit count
/// used for the fairness ledger (the service uses the request's query
/// count).
pub struct AdmissionQueue<T> {
    gate: Mutex<AdmissionGate<T>>,
    ready: Condvar,
}

impl<T> AdmissionQueue<T> {
    /// A queue admitting at most `capacity` requests (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            gate: Mutex::new(AdmissionGate::new(capacity)),
            ready: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, AdmissionGate<T>> {
        self.gate.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The admission limit.
    pub fn capacity(&self) -> usize {
        self.lock().capacity
    }

    /// Offers a request; see [`AdmissionGate::submit`].
    ///
    /// # Errors
    /// [`Overloaded`] when the queue is full or closed.
    pub fn submit(&self, client: &str, weight: u64, units: u64, item: T) -> Result<(), Overloaded> {
        self.lock().submit(client, weight, units, item)?;
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next request under the weighted fair policy.
    /// Returns `None` once the queue is closed **and** drained.
    pub fn next(&self) -> Option<(String, T)> {
        let mut gate = self.lock();
        loop {
            if let Some(picked) = gate.pick() {
                return Some(picked);
            }
            if gate.closed {
                return None;
            }
            gate = self
                .ready
                .wait(gate)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes the queue: pending requests still drain through
    /// [`next`](Self::next); new submissions are refused; blocked workers
    /// wake up.
    pub fn close(&self) {
        self.lock().close();
        self.ready.notify_all();
    }

    /// A snapshot of the counters and the per-client ledger.
    pub fn stats(&self) -> AdmissionStats {
        self.lock().snapshot()
    }
}

/// The weighted fair pick: among clients with pending work, minimize
/// `served_units / weight` (exact integer cross-multiplication), breaking
/// ties by lexicographic client name. Deterministic given the ledger.
fn fair_pick<T>(clients: &HashMap<String, ClientState<T>>) -> Option<String> {
    let mut best: Option<&ClientStats> = None;
    for row in clients
        .values()
        .filter(|s| !s.pending.is_empty())
        .map(|s| &s.row)
    {
        best = Some(match best {
            None => row,
            Some(b) => {
                // row.served/row.weight < b.served/b.weight, exactly.
                let lhs = row.served_units as u128 * b.weight as u128;
                let rhs = b.served_units as u128 * row.weight as u128;
                if lhs < rhs || (lhs == rhs && row.client < b.client) {
                    row
                } else {
                    b
                }
            }
        });
    }
    best.map(|row| row.client.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn rejects_typed_when_full_and_never_hangs() {
        let q: AdmissionQueue<u32> = AdmissionQueue::new(2);
        q.submit("a", 1, 1, 1).unwrap();
        q.submit("a", 1, 1, 2).unwrap();
        let err = q.submit("a", 1, 1, 3).unwrap_err();
        assert_eq!(err, Overloaded { depth: 2, limit: 2 });
        let s = q.stats();
        assert_eq!((s.submitted, s.rejected, s.depth), (2, 1, 2));
        assert_eq!(s.high_water, 2);
    }

    #[test]
    fn fair_pick_follows_served_over_weight() {
        let q: AdmissionQueue<&'static str> = AdmissionQueue::new(16);
        // heavy has weight 2, light weight 1; heavy floods first.
        for i in 0..4 {
            q.submit("heavy", 2, 10, ["h0", "h1", "h2", "h3"][i])
                .unwrap();
        }
        q.submit("light", 1, 10, "l0").unwrap();
        // First pick: both ledgers at 0, tie broken by name → heavy.
        assert_eq!(q.next(), Some(("heavy".into(), "h0")));
        // heavy now at 10/2 = 5, light at 0/1 = 0 → light.
        assert_eq!(q.next(), Some(("light".into(), "l0")));
        // light at 10/1, heavy at 10/2 → heavy drains.
        assert_eq!(q.next(), Some(("heavy".into(), "h1")));
        assert_eq!(q.next(), Some(("heavy".into(), "h2")));
    }

    #[test]
    fn close_drains_then_returns_none() {
        let q: Arc<AdmissionQueue<u32>> = Arc::new(AdmissionQueue::new(4));
        q.submit("a", 1, 1, 7).unwrap();
        q.close();
        assert!(q.submit("a", 1, 1, 8).is_err(), "closed queue refuses");
        assert_eq!(q.next(), Some(("a".into(), 7)));
        assert_eq!(q.next(), None);
        // A blocked worker on an empty closed queue also gets None.
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.next());
        assert_eq!(h.join().ok().flatten(), None);
    }

    #[test]
    fn fifo_within_a_client() {
        let q: AdmissionQueue<u32> = AdmissionQueue::new(8);
        for i in 0..5 {
            q.submit("only", 1, 1, i).unwrap();
        }
        for i in 0..5 {
            assert_eq!(q.next(), Some(("only".into(), i)));
        }
    }
}
