//! Protocol messages exchanged between workers and daemons.
//!
//! Names mirror the paper's Fig. 6: GETPAGE, DIFF/DIFFGRANT, ACQ/GRANT,
//! BARR/BARRGRANT, plus the condition-variable pair (jia_setcv /
//! jia_waitcv).

/// A write notice: "page `page` was modified by node `writer`". Carried on
/// release-type messages and delivered to the next acquirer, which
/// invalidates the page (unless it is the writer itself). The page's
/// current home rides along so the barrier manager can drive home
/// migration without tracking allocations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Notice {
    /// Global page number.
    pub page: u64,
    /// Node that performed the modification.
    pub writer: usize,
    /// The page's home node at the time of the write.
    pub home: usize,
}

/// One contiguous patch of a diff: byte offset within the page plus the
/// new bytes. A diff travels as [`Patches`]; this is the form one run is
/// built from or read back as.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Patch {
    /// Byte offset within the page.
    pub offset: u32,
    /// Replacement bytes.
    pub data: Vec<u8>,
}

/// A page diff as one flat value: a table of `(offset, len)` runs and one
/// buffer holding every run's new bytes back to back, so a diff of any
/// number of runs is two allocations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Patches {
    table: Vec<(u32, u32)>,
    bytes: Vec<u8>,
}

impl Patches {
    /// Appends a run: `data` replaces the page bytes at `offset`.
    pub fn push(&mut self, offset: u32, data: &[u8]) {
        let Ok(len) = u32::try_from(data.len()) else {
            panic!("a run of {} bytes is longer than any page", data.len());
        };
        self.push_run(offset, len, data);
    }

    /// [`Patches::push`] for a caller that has checked `len == data.len()`.
    pub(crate) fn push_run(&mut self, offset: u32, len: u32, data: &[u8]) {
        debug_assert_eq!(len as usize, data.len());
        self.table.push((offset, len));
        self.bytes.extend_from_slice(data);
    }

    /// Number of runs.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the diff has no runs.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// The runs in order, each as its offset and new bytes.
    pub fn runs(&self) -> impl Iterator<Item = (u32, &[u8])> + '_ {
        let mut rest = self.bytes.as_slice();
        self.table.iter().map(move |&(offset, len)| {
            let (data, tail) = rest.split_at(len as usize);
            rest = tail;
            (offset, data)
        })
    }

    /// Wire-size estimate: each run's offset and length headers plus its
    /// data, `Σ(8 + len)`.
    pub fn wire_size(&self) -> usize {
        8 * self.table.len() + self.bytes.len()
    }

    /// Reserves room for `runs` more runs and `bytes` more data bytes.
    pub(crate) fn reserve(&mut self, runs: usize, bytes: usize) {
        self.table.reserve(runs);
        self.bytes.reserve(bytes);
    }
}

impl FromIterator<Patch> for Patches {
    fn from_iter<I: IntoIterator<Item = Patch>>(iter: I) -> Self {
        let mut patches = Patches::default();
        for p in iter {
            patches.push(p.offset, &p.data);
        }
        patches
    }
}

/// A request with its virtual arrival time at the daemon.
///
/// The simulated cluster keeps *virtual* clocks: workers advance theirs
/// with modeled computation ([`crate::Node::advance`]) and every message
/// is stamped with `sender clock + network cost`. Daemons answer with the
/// reply's own arrival stamp, so waiting times and speed-ups are derived
/// from the dependency DAG rather than from host wall time — essential on
/// machines with fewer cores than simulated nodes.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// The request.
    pub msg: Msg,
    /// Virtual time at which the message reaches the daemon.
    pub arrive: std::time::Duration,
    /// Transport source: worker index (`< nprocs`), daemon index
    /// (`nprocs + d`), or [`SYSTEM_SRC`] for harness-internal messages.
    pub src: usize,
    /// Per-(source, destination) link request id: the worker matches
    /// replies on it, the daemon's detect-only watermark checks it.
    pub seq: u64,
}

/// Transport source id for harness-internal messages (shutdown sentinel);
/// exempt from per-link request numbering. No wire source decodes to it.
pub const SYSTEM_SRC: usize = usize::MAX;

/// A reply with its virtual arrival time at the worker.
#[derive(Debug, Clone)]
pub struct ReplyEnvelope {
    /// The reply.
    pub reply: Reply,
    /// Virtual time at which the reply reaches the worker.
    pub arrive: std::time::Duration,
    /// Transport source: `nprocs + d` for daemon `d`.
    pub src: usize,
    /// Per-link reply sequence number (see [`Envelope::seq`]).
    pub seq: u64,
}

/// Requests sent to a daemon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Msg {
    /// Fetch a copy of a page from its home (remote access fault).
    GetPage {
        /// Global page number.
        page: u64,
        /// Requesting node.
        from: usize,
        /// The requester's migration epoch (barrier count). A daemon
        /// parks requests from the future until its own epoch catches up.
        epoch: u64,
    },
    /// Apply a diff to a home page (release-time flush).
    Diff {
        /// Global page number.
        page: u64,
        /// Writing node.
        from: usize,
        /// The modified ranges.
        patches: Patches,
        /// The writer's migration epoch.
        epoch: u64,
    },
    /// Acquire a lock managed by this daemon.
    Acquire {
        /// Lock id.
        lock: u32,
        /// Requesting node.
        from: usize,
        /// Highest notice sequence number this node has seen for the lock.
        last_seq: u64,
    },
    /// Release a lock, attaching the interval's write notices.
    Release {
        /// Lock id.
        lock: u32,
        /// Releasing node.
        from: usize,
        /// Pages modified inside the critical section.
        notices: Vec<Notice>,
    },
    /// Signal a condition variable (counting semantics), attaching write
    /// notices of the signalling interval.
    SetCv {
        /// Condition-variable id.
        cv: u32,
        /// Signalling node.
        from: usize,
        /// Pages modified before the signal.
        notices: Vec<Notice>,
    },
    /// Wait on a condition variable.
    WaitCv {
        /// Condition-variable id.
        cv: u32,
        /// Waiting node.
        from: usize,
        /// Highest notice sequence this node has seen for the cv.
        last_seq: u64,
    },
    /// Arrive at the global barrier (sent to node 0's daemon).
    Barrier {
        /// Arriving node.
        from: usize,
        /// Pages modified since the node's previous barrier.
        notices: Vec<Notice>,
    },
    /// Home migration (barrier manager → every daemon, once per barrier
    /// round when migration is enabled): advance the migration epoch and
    /// announce the pages this daemon is about to adopt.
    MigrationNotice {
        /// The new epoch (equals the barrier round number).
        epoch: u64,
        /// Pages whose data will arrive via [`Msg::AdoptPage`].
        incoming: Vec<u64>,
    },
    /// Home migration (barrier manager → the old home): ship the page to
    /// its new home and forget it.
    MigrateOut {
        /// Global page number.
        page: u64,
        /// The new home node.
        to: usize,
    },
    /// Home migration (old home daemon → new home daemon): the page data.
    AdoptPage {
        /// Global page number.
        page: u64,
        /// Authoritative page contents.
        data: Vec<u8>,
    },
    /// Stop the daemon (end of the run).
    Shutdown,
    /// Authoritative death notice for `node`, broadcast to every daemon by
    /// a fail-stopping worker (cooperative fail-stop) — the simulation
    /// analogue of every manager's timeout detector firing. The receiving
    /// daemon breaks `node`'s lock leases, removes its queued waits, wakes
    /// remaining cv waiters with [`Reply::NodeFailed`], and completes
    /// barriers over the survivors.
    Obituary {
        /// The node declared dead.
        node: usize,
        /// The incarnation of the life that died. A daemon drops an
        /// obituary for an incarnation older than the latest one it has
        /// admitted — on a lossy transport a delayed duplicate must not
        /// re-kill a rank that has since rejoined.
        incarnation: u32,
    },
    /// Elastic-membership announcement: a fail-stopped worker asks to come
    /// back. Sent to daemon 0 only — the barrier manager and admission
    /// authority. Daemon 0 *defers* the admission until its completed
    /// barrier-round count reaches `admit_at_round` (a workload boundary
    /// the joiner and the survivors agree on by construction): admitting
    /// mid-workload would make in-flight rounds wait for a rank that
    /// arrives at a different round, deadlocking the barrier. At the
    /// boundary, daemon 0 removes `node` from its dead set, forwards the
    /// announcement to every other daemon (which admit on receipt), and
    /// answers the joiner with [`Reply::RejoinAck`].
    Rejoin {
        /// The node rejoining the cluster.
        node: usize,
        /// The joiner's incarnation number (1 for the first rejoin).
        /// Carried so a daemon can fence stale obituaries of the previous
        /// life, and distinguish a fresh announcement from a
        /// retransmitted stale one.
        incarnation: u32,
        /// The completed-round count at which the admission takes effect;
        /// the joiner's first post-admission barrier arrival is exactly
        /// this round.
        admit_at_round: u64,
        /// Barrier rounds per workload boundary. If the announcement
        /// arrives *after* `admit_at_round` has already passed (a delayed
        /// or retransmitted announcement on a lossy transport), daemon 0
        /// must not admit mid-workload; it defers to the next boundary
        /// `admit_at_round + k·stride` strictly in the future. `0` means
        /// "no later boundary exists" and admits immediately when late.
        stride: u64,
    },
}

/// Replies delivered to a worker's reply channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Page copy (GETPAGE response).
    Page {
        /// Global page number.
        page: u64,
        /// Page contents.
        data: Vec<u8>,
    },
    /// Diff applied (DIFFGRANT).
    DiffAck,
    /// Lock granted, with the write notices accumulated since the
    /// acquirer last saw this lock.
    LockGranted {
        /// Notices to invalidate.
        notices: Vec<Notice>,
        /// New sequence watermark for the lock.
        seq: u64,
    },
    /// Condition-variable wait satisfied.
    CvGranted {
        /// Notices to invalidate.
        notices: Vec<Notice>,
        /// New sequence watermark for the cv.
        seq: u64,
    },
    /// All nodes arrived; proceed past the barrier (BARRGRANT).
    BarrierDone {
        /// Union of all notices of the round.
        notices: Vec<Notice>,
        /// Home migrations decided this round (page, new home); empty
        /// unless migration is enabled.
        migrations: Vec<(u64, usize)>,
        /// Nodes declared dead as of this round; the barrier completed
        /// over the survivors. Empty on a healthy run.
        dead: Vec<usize>,
    },
    /// A blocked wait was cancelled because a node was declared dead
    /// (lease break / cv wake-up path of the supervision layer).
    NodeFailed {
        /// The dead node that triggered the wake-up.
        node: usize,
    },
    /// Admission grant for a rejoining node ([`Msg::Rejoin`] response from
    /// daemon 0). Resynchronizes the joiner with everything it missed
    /// while dead.
    RejoinAck {
        /// Completed barrier rounds at admission: the joiner's new
        /// migration epoch (it missed the grants that would have advanced
        /// it).
        round: u64,
        /// The dead set after the joiner's removal (other nodes may still
        /// be down); becomes the joiner's `known_dead`.
        dead: Vec<usize>,
        /// The cumulative home-migration log `(page, new home)` since the
        /// start of the run, so the joiner rebuilds its `home_overrides`
        /// — stale overrides would fetch pages from homes that shipped
        /// them away long ago.
        migrations: Vec<(u64, usize)>,
    },
}

impl Msg {
    /// Whether the sender blocks for a [`Reply`]: every worker request
    /// but the release-type ones (`Release`, `SetCv`), the death notice
    /// (`Obituary`) and daemon control messages.
    pub fn awaits_reply(&self) -> bool {
        matches!(
            self,
            Msg::GetPage { .. }
                | Msg::Diff { .. }
                | Msg::Acquire { .. }
                | Msg::WaitCv { .. }
                | Msg::Barrier { .. }
                | Msg::Rejoin { .. }
        )
    }

    /// Wire-size estimate used by the network cost model.
    pub fn wire_size(&self) -> usize {
        const HDR: usize = 32; // UDP + protocol header estimate
        match self {
            Msg::GetPage { .. } => HDR,
            Msg::Diff { patches, .. } => HDR + patches.wire_size(),
            Msg::Acquire { .. } => HDR,
            Msg::Release { notices, .. } => HDR + notices.len() * 12,
            Msg::SetCv { notices, .. } => HDR + notices.len() * 12,
            Msg::WaitCv { .. } => HDR,
            Msg::Barrier { notices, .. } => HDR + notices.len() * 12,
            Msg::MigrationNotice { incoming, .. } => HDR + incoming.len() * 8,
            Msg::MigrateOut { .. } => HDR,
            Msg::AdoptPage { data, .. } => HDR + data.len(),
            Msg::Shutdown => HDR,
            Msg::Obituary { .. } => HDR,
            Msg::Rejoin { .. } => HDR,
        }
    }
}

impl Reply {
    /// Wire-size estimate used by the network cost model.
    pub fn wire_size(&self) -> usize {
        const HDR: usize = 32;
        match self {
            Reply::Page { data, .. } => HDR + data.len(),
            Reply::DiffAck => HDR,
            Reply::LockGranted { notices, .. } | Reply::CvGranted { notices, .. } => {
                HDR + notices.len() * 12
            }
            Reply::BarrierDone {
                notices,
                migrations,
                dead,
            } => HDR + notices.len() * 12 + migrations.len() * 12 + dead.len() * 4,
            Reply::NodeFailed { .. } => HDR,
            Reply::RejoinAck {
                dead, migrations, ..
            } => HDR + dead.len() * 4 + migrations.len() * 12,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_sizes_scale() {
        let small = Msg::GetPage {
            page: 0,
            from: 0,
            epoch: 0,
        }
        .wire_size();
        let diff = Msg::Diff {
            page: 0,
            from: 0,
            epoch: 0,
            patches: [Patch {
                offset: 0,
                data: vec![0; 100],
            }]
            .into_iter()
            .collect(),
        }
        .wire_size();
        assert!(diff > small + 100);
    }

    #[test]
    fn reply_page_counts_payload() {
        let r = Reply::Page {
            page: 1,
            data: vec![0; 4096],
        };
        assert!(r.wire_size() >= 4096);
    }
}
