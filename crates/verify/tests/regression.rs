//! Acceptance: the seeded known-bad configurations are found by the
//! checker and replay deterministically from their recorded seed.

use genomedsm_verify::daemon::{DaemonSpec, SEEDED};
use genomedsm_verify::found_and_replayed;
use genomedsm_verify::models::inversion::InversionModel;
use genomedsm_verify::models::merge::MergeModel;
use genomedsm_verify::models::rejoin::RejoinModel;
use genomedsm_verify::models::retransmit::RetransmitModel;
use shuttle::Config;

/// The page-lock / lease-table AB-BA inversion: random exploration finds
/// the deadlock, replaying from nothing but the failure's seed
/// reproduces the identical schedule and reason, and so does the
/// recorded schedule on its own.
#[test]
fn lock_order_inversion_is_found_and_replays_from_seed() {
    let spec = InversionModel {
        inverted: true,
        rounds: 2,
    };
    let failure = found_and_replayed("inversion", &spec, "deadlock")
        .expect("AB-BA inversion must deadlock and replay from its seed");
    let by_schedule = shuttle::replay_schedule(&spec, &failure.schedule, &Config::default());
    let sf = by_schedule.failure.expect("schedule replay must re-fail");
    assert_eq!(sf.reason, failure.reason);
}

/// The rejected permit-counting window gate deadlocks; the correct
/// window gate on the same workload does not.
#[test]
fn permit_counting_merge_gate_deadlocks_but_window_gate_does_not() {
    let buggy = shuttle::check_exhaustive(
        &MergeModel {
            jobs: 2,
            workers: 2,
            window: 1,
            permit_bug: true,
        },
        &Config::default(),
    );
    let f = buggy.failure.expect("permit gate must deadlock");
    assert!(f.reason.contains("deadlock"), "{}", f.reason);

    let correct = shuttle::check_exhaustive(
        &MergeModel {
            jobs: 2,
            workers: 2,
            window: 1,
            permit_bug: false,
        },
        &Config::default(),
    );
    correct.assert_ok();
}

/// Evicting the cached reply before the sender's ack double-executes a
/// retransmitted request; the evict-on-ack lifetime on the same
/// adversarial workload stays exactly-once. The failure replays from
/// its recorded seed.
#[test]
fn evict_before_ack_double_executes_and_replays_from_seed() {
    let spec = RetransmitModel {
        msgs: 2,
        window: 2,
        dup_budget: 1,
        swap_budget: 1,
        bug_evict_before_ack: true,
    };
    found_and_replayed("retransmit/evict-before-ack", &spec, "executed 2 times")
        .expect("early eviction must double-execute and replay from its seed");
    let healthy = RetransmitModel {
        bug_evict_before_ack: false,
        ..spec
    };
    shuttle::check_random(&healthy, &Config::default()).assert_ok();
}

/// Handing the joiner its role back without invalidating its stale page
/// cache serves pre-crash column data; the checker catches the
/// divergence from the never-crashed run and the failure replays from
/// both its recorded seed and its recorded schedule. The full protocol
/// on the same workload stays clean.
#[test]
fn skipped_invalidation_diverges_and_replays_from_seed() {
    let spec = RejoinModel {
        units: 2,
        bug_skip_invalidation: true,
        bug_admit_mid_round: false,
    };
    let failure = found_and_replayed("rejoin/skip-invalidation", &spec, "saved columns diverge")
        .expect("skipped invalidation must serve stale columns and replay from its seed");
    let by_schedule = shuttle::replay_schedule(&spec, &failure.schedule, &Config::default());
    let sf = by_schedule.failure.expect("schedule replay must re-fail");
    assert_eq!(sf.reason, failure.reason);
    let healthy = RejoinModel {
        bug_skip_invalidation: false,
        ..spec
    };
    shuttle::check_random(&healthy, &Config::default()).assert_ok();
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
