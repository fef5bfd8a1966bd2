//! Model-checked verification of GenomeDSM's concurrency protocols.
//!
//! The vendored [`shuttle`] schedule-exploring checker runs shipped code,
//! stepped by scripted peers, with perturbations of the harness that must
//! be caught:
//!
//! * [`daemon`] runs both sides of the `genomedsm-dsm` protocol: real
//!   worker `Client`s, driven by scripts of API calls, against real
//!   daemons (lock handoff with write notices, the counting cv, the lease
//!   break on a fail-stop, the barrier manager's rejoin admission in a
//!   two-workload campaign, and the same campaign over a cv whose waiter
//!   only a death notice can wake) over checker-scheduled links;
//! * [`link`] runs two of the UDP transport's `Link`s (ack, retransmit,
//!   reorder, dedup and fragmentation under loss, and session turnover);
//! * [`admission`] runs the serve admission gate (capacity, FIFO, the
//!   weighted fair pick, close and drain) under clients, workers and a
//!   closer;
//! * [`merge`] runs the batch scheduler's work stealing, window gate and
//!   in-order merge cursor under workers and a merger.
//!
//! Every subject is shipped code. Lock order needs no subject: a worker
//! holds at most one DSM lock (`Node::lock` refuses a second).
//!
//! [`run_suite`] drives every healthy subject through thousands of
//! distinct interleavings (exhaustive where the state space allows,
//! seeded-random elsewhere); [`found_and_replayed`] proves a seeded bug is
//! *found* and *replayable from its printed seed*. The `genomedsm-verify`
//! binary prints both.

#![warn(missing_docs)]

pub mod admission;
pub mod daemon;
pub mod link;
pub mod merge;

use admission::AdmissionSpec;
use daemon::{DaemonSpec, Workload};
use link::Workload::{Exchange, Turnover};
use link::{Budget, LinkSpec};
use merge::MergeSpec;
use shuttle::{Config, Failure, Report, Spec};

/// One suite row: a model/strategy pair and its exploration report.
pub struct SuiteEntry {
    /// Human-readable model + strategy name.
    pub name: &'static str,
    /// The checker's report for this entry.
    pub report: Report,
}

fn exhaustive<M: Spec>(name: &'static str, spec: M, max_schedules: u64) -> SuiteEntry {
    let cfg = Config {
        max_schedules,
        ..Config::default()
    };
    let report = shuttle::check_exhaustive(&spec, &cfg);
    SuiteEntry { name, report }
}

fn random<M: Spec>(name: &'static str, spec: M, iterations: u64) -> SuiteEntry {
    let cfg = Config {
        iterations,
        ..Config::default()
    };
    let report = shuttle::check_random(&spec, &cfg);
    SuiteEntry { name, report }
}

/// Checks a seeded bug the way the binary reports it: random exploration
/// of `spec` must fail with a reason containing `expect` and record a
/// seed, and [`shuttle::replay_seed`] from that seed alone must reproduce
/// the identical reason and schedule. Prints the verdict under `name`;
/// returns the failure when all of that held.
pub fn found_and_replayed<M: Spec>(name: &str, spec: &M, expect: &str) -> Option<Failure> {
    let cfg = Config::default();
    let failure = match shuttle::check_random(spec, &cfg).failure {
        Some(f) if f.reason.contains(expect) && f.seed.is_some() => f,
        other => {
            println!(
                "{name}: FAIL (`{expect}` not found: {:?})",
                other.map(|f| f.reason)
            );
            return None;
        }
    };
    let seed = failure.seed.unwrap_or_default();
    println!("{name}: found `{}`", failure.reason);
    println!("  seed {seed:#018x}, schedule {:?}", failure.schedule);
    let replay = shuttle::replay_seed(spec, seed, &cfg).failure;
    let same = |rf: &Failure| rf.reason == failure.reason && rf.schedule == failure.schedule;
    if !replay.as_ref().is_some_and(same) {
        let got = replay.map(|rf| (rf.reason, rf.schedule));
        println!("  replay from seed: DIVERGED ({got:?})");
        return None;
    }
    println!("  replay from seed: identical failure reproduced — ok");
    Some(failure)
}

/// Run the full healthy-protocol suite.
///
/// Every entry is expected to report no failure; collectively the suite
/// explores well over ten thousand distinct schedules (asserted by the
/// `explore` integration test and re-checked by the binary).
pub fn run_suite() -> Vec<SuiteEntry> {
    use Workload::{Lease, Locks, Rejoin, Signals, Wake};
    let real = |workload| DaemonSpec(workload, None);
    let merge = |jobs, workers, window| MergeSpec {
        jobs,
        workers,
        window,
        broken: None,
    };
    let admission = |clients, capacity, workers| AdmissionSpec {
        clients,
        requests: 2,
        capacity,
        workers,
        broken: None,
    };
    let link = |traffic, fires, drops, dups, swaps| {
        let budget = Budget {
            fires,
            drops,
            dups,
            swaps,
        };
        LinkSpec(traffic, budget, None)
    };
    vec![
        exhaustive("daemon/locks 2x2 exhaustive", real(Locks(2, 2)), 200_000),
        exhaustive("daemon/locks 3x1 exhaustive", real(Locks(3, 1)), 200_000),
        random("daemon/locks 3x2 random", real(Locks(3, 2)), 6_000),
        exhaustive(
            "daemon/cv 1p1c x3 exhaustive",
            real(Signals(1, 1, 3)),
            200_000,
        ),
        exhaustive(
            "daemon/cv 2p2c x1 exhaustive",
            real(Signals(2, 2, 1)),
            200_000,
        ),
        random("daemon/cv 2p2c x2 random", real(Signals(2, 2, 2)), 6_000),
        exhaustive("daemon/lease 1u+1s exhaustive", real(Lease(1, 1)), 400_000),
        random("daemon/lease 3u+2s random", real(Lease(3, 2)), 6_000),
        exhaustive("daemon/rejoin 1u exhaustive", real(Rejoin(1)), 200_000),
        random("daemon/rejoin 2u random", real(Rejoin(2)), 6_000),
        exhaustive("daemon/wake 1s exhaustive", real(Wake(1)), 200_000),
        exhaustive("daemon/wake 2s exhaustive", real(Wake(2)), 200_000),
        exhaustive("merge/4j2w w1 exhaustive", merge(4, 2, 1), 50_000),
        random("merge/6j3w w2 random", merge(6, 3, 2), 6_000),
        exhaustive("admission/2c2r cap2 exhaustive", admission(2, 2, 1), 50_000),
        random("admission/3c2r cap2 2w random", admission(3, 2, 2), 6_000),
        exhaustive(
            "link/exchange d1s1 exhaustive",
            link(Exchange, 0, 1, 0, 1),
            50_000,
        ),
        exhaustive(
            "link/turnover d1 exhaustive",
            link(Turnover, 0, 1, 0, 0),
            50_000,
        ),
        random(
            "link/exchange f2d2u1s1 random",
            link(Exchange, 2, 2, 1, 1),
            6_000,
        ),
    ]
}
