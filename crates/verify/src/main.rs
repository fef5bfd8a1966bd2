//! `genomedsm-verify`: run the model-checking suite and the seeded
//! regression checks, printing one row per model.
//!
//! Exit status is non-zero if any healthy model fails, the suite explored
//! fewer than 10 000 distinct schedules, or a seeded bug is not found and
//! deterministically replayed from its printed seed.

use genomedsm_verify::models::{
    admission::AdmissionModel, inversion::InversionModel, merge::MergeModel,
};
use genomedsm_verify::{daemon, found_and_replayed, link, run_suite};
use shuttle::Config;

fn main() {
    let mut failed = false;

    println!("== healthy protocol suite ==");
    println!(
        "{:<34} {:>9} {:>9} {:>6} {:>9}  result",
        "model", "schedules", "distinct", "depth", "exhausted"
    );
    let mut distinct_total: u64 = 0;
    for entry in run_suite() {
        let r = &entry.report;
        distinct_total += r.distinct;
        failed |= r.failure.is_some();
        let result = r.failure.as_ref().map(|f| format!("FAIL: {}", f.reason));
        let result = result.unwrap_or_else(|| "ok".to_string());
        println!(
            "{:<34} {:>9} {:>9} {:>6} {:>9}  {}",
            entry.name, r.schedules, r.distinct, r.max_depth, r.exhausted, result
        );
    }
    println!("total distinct schedules: {distinct_total}");
    if distinct_total < 10_000 {
        println!("FAIL: suite explored fewer than 10000 distinct schedules");
        failed = true;
    }

    println!();
    println!("== seeded regressions (must be found and replayed) ==");
    let (inverted, rounds) = (true, 2);
    let spec = InversionModel { inverted, rounds };
    failed |= found_and_replayed("inversion/page-lock-vs-lease-table", &spec, "deadlock").is_none();
    failed |= !check_permit_regression();
    let spec = AdmissionModel {
        clients: 2,
        requests_each: 2,
        capacity: 1,
        workers: 1,
        bug_drop_on_reject: true,
    };
    failed |= found_and_replayed("admission/drop-on-reject", &spec, "request lost").is_none();
    let (name, spec, symptom) = link::SEEDED;
    failed |= found_and_replayed(name, &spec, symptom).is_none();
    for (name, spec, symptom) in daemon::SEEDED {
        failed |= found_and_replayed(name, &spec, symptom).is_none();
    }

    if failed {
        std::process::exit(1);
    }
    println!();
    println!("verify: all models clean, all seeded bugs found and replayed");
}

/// The rejected permit-counting merge gate must deadlock.
fn check_permit_regression() -> bool {
    let permit = MergeModel {
        jobs: 2,
        workers: 2,
        window: 1,
        permit_bug: true,
    };
    match shuttle::check_exhaustive(&permit, &Config::default()).failure {
        Some(f) if f.reason.contains("deadlock") => {
            println!("merge/permit-counting: found `{}` — ok", f.reason);
            true
        }
        other => {
            let got = other.map(|f| f.reason);
            println!("merge/permit-counting: FAIL (deadlock not found: {got:?})");
            false
        }
    }
}
