//! Acceptance: the seeded known-bad configurations are found by the
//! checker and replay deterministically from their recorded seed.

use genomedsm_verify::admission::{self, AdmissionSpec};
use genomedsm_verify::daemon::{DaemonSpec, SEEDED};
use genomedsm_verify::found_and_replayed;
use genomedsm_verify::link::{self, LinkSpec};
use genomedsm_verify::merge::{self, MergeSpec};
use shuttle::Config;

/// A client that treats a request as refused when the real gate is full,
/// without offering it, loses the request to the gate's ledger. The
/// failure replays from its seed, and the same workload offering every
/// request is clean.
#[test]
fn drop_on_reject_loses_a_request_and_replays_from_seed() {
    let (name, broken, symptom) = admission::SEEDED;
    found_and_replayed(name, &broken, symptom)
        .expect("dropping unoffered requests must be caught and replay from its seed");
    let healthy = AdmissionSpec {
        broken: None,
        ..broken
    };
    let report = shuttle::check_exhaustive(&healthy, &Config::default());
    report.assert_ok();
    assert!(report.exhausted);
}

/// A cursor published to the workers one merge late never lets the last
/// window-gated job start: the run deadlocks. The failure replays from
/// its seed, and the same workload publishing on time is clean.
#[test]
fn a_cursor_published_one_merge_late_deadlocks_and_replays_from_seed() {
    let (name, broken, symptom) = merge::SEEDED;
    found_and_replayed(name, &broken, symptom)
        .expect("a late cursor must deadlock and replay from its seed");
    let healthy = MergeSpec {
        broken: None,
        ..broken
    };
    let report = shuttle::check_exhaustive(&healthy, &Config::default());
    report.assert_ok();
    assert!(report.exhausted);
}

/// A window that evicts a frame on a forged ack, before the real one,
/// never retransmits a lost copy: the message is never delivered. The
/// failure replays from its seed, and the same workload with the real
/// acks alone is clean.
#[test]
fn evict_before_ack_loses_a_message_and_replays_from_seed() {
    let (name, broken, symptom) = link::SEEDED;
    found_and_replayed(name, &broken, symptom)
        .expect("early eviction must lose a message and replay from its seed");
    let LinkSpec(workload, budget, _) = broken;
    let healthy = LinkSpec(workload, budget, None);
    shuttle::check_exhaustive(&healthy, &Config::default()).assert_ok();
}

/// Seeded regression `i` of the real daemon is caught with its own
/// symptom and replays from its seed; the same workload unperturbed is
/// clean.
fn perturbation_is_caught(i: usize) {
    let (name, broken, symptom) = SEEDED[i];
    found_and_replayed(name, &broken, symptom)
        .expect("the perturbation must be caught and replay from its seed");
    shuttle::check_random(&DaemonSpec(broken.0, None), &Config::default()).assert_ok();
}

#[test]
fn grant_notices_stripped_are_a_scope_violation() {
    perturbation_is_caught(0);
}

#[test]
fn a_signal_dropped_at_an_empty_wait_queue_deadlocks_its_waiter() {
    perturbation_is_caught(1);
}

#[test]
fn an_uncommitted_release_before_the_obituary_is_a_grant_of_unreleased_state() {
    perturbation_is_caught(2);
}

#[test]
fn a_joiner_keeping_its_pre_crash_page_reads_stale_state() {
    perturbation_is_caught(3);
}

#[test]
fn a_rejoin_admitted_on_delivery_lands_outside_a_boundary() {
    perturbation_is_caught(4);
}

#[test]
fn a_dropped_wake_up_strands_its_waiter() {
    perturbation_is_caught(5);
}
