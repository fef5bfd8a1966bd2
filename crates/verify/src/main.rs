//! `genomedsm-verify`: run the model-checking suite and the seeded
//! regression checks, printing one row per model.
//!
//! Exit status is non-zero if any healthy model fails, the suite explored
//! fewer than 10 000 distinct schedules, or a seeded bug is not found and
//! deterministically replayed from its printed seed.

use genomedsm_verify::{admission, daemon, found_and_replayed, link, merge, run_suite};

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
    let (name, spec, symptom) = admission::SEEDED;
    failed |= found_and_replayed(name, &spec, symptom).is_none();
    let (name, spec, symptom) = merge::SEEDED;
    failed |= found_and_replayed(name, &spec, symptom).is_none();
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
