//! Acceptance: the suite explores at least ten thousand distinct
//! schedules across the shipped daemon, link, admission gate and batch
//! merge with zero deadlocks, lost wakeups, or invariant violations.

#[test]
fn suite_is_clean_and_explores_ten_thousand_schedules() {
    let entries = genomedsm_verify::run_suite();
    let mut distinct = 0u64;
    for entry in &entries {
        assert!(
            entry.report.failure.is_none(),
            "{} failed: {}",
            entry.name,
            entry
                .report
                .failure
                .as_ref()
                .map(|f| f.reason.as_str())
                .unwrap_or("")
        );
        distinct += entry.report.distinct;
    }
    assert!(
        distinct >= 10_000,
        "suite explored only {distinct} distinct schedules"
    );
}

/// The rejoin campaign's state space keeps the schedules where the reaper
/// never fires: worker 0 finishing its first workload retires the reaper,
/// and the campaign then ends clean without any rejoin.
#[test]
fn a_campaign_the_reaper_never_interrupts_ends_clean() {
    use genomedsm_verify::daemon::{DaemonSpec, Workload};
    // Pids: members 0 and 1, the reaper 2, then the links to daemon 0 from
    // worker 0 (3) and from worker 1 (5). Per round both members act (a
    // unit, a barrier) and both arrivals are delivered; member 0's first
    // unit retires the reaper.
    let schedule = [
        0, 0, 1, 1, 3, 5, // workload 0: units and barriers
        0, 1, 3, 5, // the empty sweep round
        0, 0, 1, 1, 3, 5, // workload 1
        0, 1, 3, 5, // padding
        0, 1, // the last grants
    ];
    let spec = DaemonSpec(Workload::Rejoin(1), None);
    let report = shuttle::replay_schedule(&spec, &schedule, &shuttle::Config::default());
    report.assert_ok();
    assert_eq!(
        report.max_depth,
        schedule.len(),
        "the campaign ran to its end"
    );
}

/// The wake rows reach every situation they are there for: the victim's
/// fail-stop before and after each signal, an obituary that wakes a
/// parked wait and one that reaches the cv manager before the wait, a
/// wait by a worker a barrier named the victim dead to, and a wait parked
/// after the victim's readmission.
#[test]
fn the_wake_rows_reach_every_situation() {
    use genomedsm_verify::daemon::{DaemonSpec, Workload, World};
    use shuttle::check::Procs;
    use shuttle::{Config, Spec};
    use std::cell::RefCell;
    use std::collections::BTreeSet;

    /// A campaign that collects what each of its runs reached.
    struct Reach(DaemonSpec, RefCell<BTreeSet<String>>);
    impl Spec for Reach {
        type S = World;
        fn build(&self) -> (World, Procs<World>) {
            self.0.build()
        }
        fn invariant(&self, w: &World) -> Result<(), String> {
            self.0.invariant(w)
        }
        fn terminal(&self, w: &World) -> Result<(), String> {
            self.1.borrow_mut().extend(w.reached().iter().cloned());
            self.0.terminal(w)
        }
    }

    for signals in [1, 2] {
        let spec = DaemonSpec(Workload::Wake(signals), None);
        let reach = Reach(spec, RefCell::default());
        let cfg = Config {
            max_schedules: 200_000,
            ..Config::default()
        };
        let report = shuttle::check_exhaustive(&reach, &cfg);
        report.assert_ok();
        assert!(report.exhausted, "wake {signals}s not exhausted");
        let mut want: BTreeSet<String> = [
            "an obituary wakes a parked wait",
            "a wait after the obituary fails at once",
            "a wait after a barrier named the victim dead",
            "a wait parks after the victim's readmission",
        ]
        .map(String::from)
        .into();
        want.extend((0..=signals).map(|k| format!("fail-stop with {k} signal(s) sent")));
        assert_eq!(*reach.1.borrow(), want, "wake {signals}s");
    }
}
