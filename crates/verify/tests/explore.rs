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
