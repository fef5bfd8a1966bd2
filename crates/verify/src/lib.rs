//! Model-checked verification of GenomeDSM's concurrency protocols.
//!
//! The vendored [`shuttle`] schedule-exploring checker runs two kinds of
//! subject:
//!
//! * [`daemon`] — the shipped `genomedsm-dsm` daemon, stepped by scripted
//!   workers over checker-scheduled links: lock handoff with write
//!   notices, the counting cv, the lease break on a fail-stop, and the
//!   barrier manager's rejoin admission in a two-workload campaign, plus
//!   five perturbations of the harness that must be caught;
//! * [`models`] — state machines of protocols that live elsewhere:
//!   [`models::merge`] (the batch scheduler's windowed in-order merge),
//!   [`models::inversion`] (the page-lock / lease-table lock order),
//!   [`models::retransmit`] (the UDP transport's retransmit/dedup window)
//!   and [`models::admission`] (the serve admission gate), each with the
//!   rejected variants that must fail.
//!
//! [`run_suite`] drives every healthy subject through thousands of
//! distinct interleavings (exhaustive where the state space allows,
//! seeded-random elsewhere); [`found_and_replayed`] proves a seeded bug is
//! *found* and *replayable from its printed seed*. The `genomedsm-verify`
//! binary prints both.

#![warn(missing_docs)]

pub mod daemon;

pub mod models {
    //! Models of the protocols the checker cannot run for real.
    pub mod admission;
    pub mod inversion;
    pub mod merge;
    pub mod retransmit;
}

use daemon::{DaemonSpec, Workload};
use models::{
    admission::AdmissionModel, inversion::InversionModel, merge::MergeModel,
    retransmit::RetransmitModel,
};
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
    use Workload::{Lease, Locks, Rejoin, Signals};
    let real = |workload| DaemonSpec(workload, None);
    let merge = |jobs, workers, window| MergeModel {
        jobs,
        workers,
        window,
        permit_bug: false,
    };
    let admission = |clients, capacity, workers| AdmissionModel {
        clients,
        requests_each: 2,
        capacity,
        workers,
        bug_drop_on_reject: false,
    };
    let retransmit = |msgs, dup_budget, swap_budget| RetransmitModel {
        msgs,
        window: 2,
        dup_budget,
        swap_budget,
        bug_evict_before_ack: false,
    };
    let consistent = InversionModel {
        inverted: false,
        rounds: 2,
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
        exhaustive("merge/4j2w w1 exhaustive", merge(4, 2, 1), 50_000),
        random("merge/6j3w w2 random", merge(6, 3, 2), 6_000),
        exhaustive("admission/2c2r cap1 exhaustive", admission(2, 1, 1), 50_000),
        random("admission/3c2r cap2 2w random", admission(3, 2, 2), 6_000),
        exhaustive(
            "retransmit/2m w2 d1 s1 exhaustive",
            retransmit(2, 1, 1),
            200_000,
        ),
        random("retransmit/3m w2 d2 s2 random", retransmit(3, 2, 2), 6_000),
        exhaustive("inversion/consistent exhaustive", consistent, 50_000),
    ]
}
