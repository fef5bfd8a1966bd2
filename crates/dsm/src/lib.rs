//! A JIAJIA-like page-based software Distributed Shared Memory system,
//! simulated in-process (§3 of the paper).
//!
//! The paper runs its three strategies on JIAJIA v2.1: a page-based DSM
//! implementing the *Scope Consistency* memory model with a *home-based
//! write-invalidate multiple-writer* protocol. This crate reimplements
//! that protocol faithfully at the message level:
//!
//! * the global address space is split into fixed-size **pages**, each with
//!   a **home node** (NUMA-style distribution, §3.1);
//! * a page is always present at its home and copied to remote nodes on an
//!   access fault; remote copies are cached with a capacity limit and a
//!   replacement algorithm;
//! * writers make a **twin** of a page before modifying it; on a release
//!   access (unlock / barrier / condition-variable signal) the writer
//!   diffs the page against the twin and sends the **DIFF** to the home,
//!   which applies it and acknowledges (**DIFFGRANT**) — multiple writers
//!   of disjoint parts of a page merge cleanly;
//! * **write notices** (page numbers modified in the interval) ride on the
//!   lock-release / cv-signal / barrier messages to the manager; the next
//!   acquirer **invalidates** the noticed pages (Fig. 6's flow);
//! * locks and condition variables are distributed across **manager**
//!   nodes (`id mod nprocs`); the barrier manager is node 0.
//!
//! ## Substitutions vs. the real JIAJIA (documented in DESIGN.md)
//!
//! * Cluster nodes are OS **threads**; messages travel over channels, with
//!   a configurable [`NetworkModel`] accounting (and optionally really
//!   sleeping) per-message latency + bandwidth cost.
//! * SIGSEGV-driven page faults are replaced by an explicit access API
//!   ([`Node::read`]/[`Node::write`] and [`GlobalVec`]); the page state
//!   machine and the protocol messages are the same.
//! * The home node accesses its own pages through the same cache path
//!   (diffs to self cost zero network) — uniform code, identical message
//!   semantics.
//!
//! ## Example
//!
//! ```
//! use genomedsm_dsm::{DsmConfig, DsmSystem};
//!
//! let run = DsmSystem::run(DsmConfig::new(4), |node| {
//!     // SPMD: every node executes this closure; allocations are
//!     // collective and must happen in the same order on every node.
//!     let counter = node.alloc_vec::<i64>(1);
//!     node.barrier();
//!     node.lock(0);
//!     let v = node.vec_get(&counter, 0);
//!     node.vec_set(&counter, 0, v + 1);
//!     node.unlock(0);
//!     node.barrier();
//!     node.vec_get(&counter, 0)
//! });
//! assert!(run.results.iter().all(|&v| v == 4));
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod codec;
pub mod config;
pub mod daemon;
pub mod error;
pub mod faults;
pub mod msg;
pub mod net;
pub mod node;
pub mod page;
pub mod stats;
pub mod system;
pub mod transport;
pub mod vec;

pub use codec::{check_malformed, from_frame, to_frame, FrameReader, FrameWriter, Wire};
pub use config::{DsmConfig, SupervisionConfig};
pub use error::DsmError;
pub use faults::{CrashEvent, FaultPlan, LinkFaults, RejoinEvent};
pub use net::{
    LinkMsg, NetworkModel, RetransmitPolicy, TransmitFate, CHAN_DAEMON, CHAN_REPLY, CHAN_REQ,
};
pub use node::Node;
pub use stats::{breakdown_many, NodeStats, StatsBreakdown};
pub use system::{DsmRun, DsmSystem};
pub use transport::clock::Clock;
pub use transport::manifest::{ClusterCtx, ClusterManifest, CLUSTER_ENV};
pub use transport::udp::UdpTransport;
pub use transport::{ChannelTransport, RankWiring, Transport, TransportStats};
pub use vec::{DsmData, GlobalVec};
