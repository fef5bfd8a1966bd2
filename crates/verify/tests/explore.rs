//! Acceptance: the suite explores at least ten thousand distinct
//! schedules across the real daemon's lock/cv and lease-break workloads
//! and the protocol models with zero deadlocks, lost wakeups, or
//! invariant violations.

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
