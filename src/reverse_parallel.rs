//! Parallel Section-6 recovery — the paper's §7 immediate future work:
//! "we intend to implement the modifications suggested in Section 6 ...
//! in order to compare very long DNA sequences".
//!
//! Stage 1 (the linear-space end-point scan) is a single wavefront-free
//! pass; stage 2 recovers each end point independently over the reversed
//! prefixes — embarrassingly parallel, so the batch scheduler
//! ([`genomedsm_batch::run_jobs`]) maps directly onto it: one job per run
//! of end points, merged in input order. The greedy covered-end filter runs after
//! all recoveries and yields
//! exactly the set the serial [`genomedsm_core::reverse::reverse_align_all`]
//! produces (the filter only consults regions that sort earlier).

use genomedsm_core::reverse::{filter_covered, recover_end, sorted_ends, RecoveredAlignment};
use genomedsm_core::Scoring;

/// Parallel version of [`genomedsm_core::reverse::reverse_align_all`]:
/// recovers every end point scoring at least `min_score` on `threads`
/// scheduler workers.
pub fn reverse_align_all_parallel(
    s: &[u8],
    t: &[u8],
    scoring: &Scoring,
    min_score: i32,
    threads: usize,
) -> Vec<RecoveredAlignment> {
    let ends = sorted_ends(s, t, scoring, min_score);
    let workers = threads.max(1);
    let scheduler = genomedsm_batch::SchedulerConfig { workers, window: 0 };
    // End points are many and most recover in microseconds, so a job is a
    // run of them — several per worker, because the score-sorted list
    // puts the long recoveries first.
    let run_len = ends.len().div_ceil(workers * 16).max(1);
    let mut recovered = Vec::new();
    genomedsm_batch::run_jobs(
        ends.chunks(run_len).collect(),
        &scheduler,
        |_, run: &[(usize, usize, i32)]| {
            let recover = |&end| recover_end(s, t, scoring, end);
            run.iter().filter_map(recover).collect::<Vec<_>>()
        },
        |_, mut recs| recovered.append(&mut recs),
    );
    filter_covered(recovered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use genomedsm_core::reverse::reverse_align_all;
    use genomedsm_seq::{planted_pair, HomologyPlan};

    const SC: Scoring = Scoring::paper();

    #[test]
    fn parallel_equals_serial() {
        let (s, t, _) = planted_pair(600, 600, &HomologyPlan::paper_density(4_000), 61);
        let serial = reverse_align_all(&s, &t, &SC, 20);
        assert!(!serial.is_empty(), "workload must contain alignments");
        for threads in [1, 2, 4] {
            let par = reverse_align_all_parallel(&s, &t, &SC, 20, threads);
            assert_eq!(par.len(), serial.len(), "threads={threads}");
            for (a, b) in par.iter().zip(&serial) {
                assert_eq!(a.region, b.region);
                assert_eq!(a.alignment, b.alignment);
            }
        }
    }

    #[test]
    fn empty_input_yields_nothing() {
        assert!(reverse_align_all_parallel(b"", b"ACGT", &SC, 5, 2).is_empty());
    }

    #[test]
    fn recoveries_are_exact() {
        let (s, t, _) = planted_pair(400, 400, &HomologyPlan::paper_density(3_000), 62);
        for rec in reverse_align_all_parallel(&s, &t, &SC, 25, 2) {
            // The rebuilt alignment over the recovered window scores the
            // detected score exactly.
            assert_eq!(rec.alignment.score, rec.region.score);
            assert_eq!(rec.alignment.score, rec.alignment.recompute_score(&SC));
        }
    }
}
