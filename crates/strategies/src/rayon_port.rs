//! Modern shared-memory ports of the blocked strategy (ablation).
//!
//! The calibration question for this reproduction is how the paper's DSM
//! strategy maps onto today's shared-memory stacks. This module runs the
//! *same* band × block wavefront with plain scoped threads and channels —
//! no pages, no diffs, no write notices — so benchmarks can separate the
//! algorithmic cost of the wavefront from the DSM protocol overhead.
//! An antidiagonal variant on the batch scheduler is provided as a second
//! reference point for the classic wave-front formulation (Fig. 7), and
//! [`score_bands_shm`] runs the pre-process band pipeline on threads with
//! the vectorized [`genomedsm_kernels`] score kernel.

use crate::blocked::{regions_of, GridPlan, Tiles};
use crate::preprocess::{BandSink, Bands, ChunkPlan, PreprocessConfig};
use crate::wavefront::{run_shm, Grid};
use crate::Phase1Outcome;
use genomedsm_core::{finalize_queue, HCell, HeuristicParams, LocalRegion, RowKernel, Scoring};
use genomedsm_dsm::NodeStats;
use genomedsm_kernels::KernelChoice;
use std::time::Instant;

/// The blocked wavefront on plain threads + channels (no DSM). Identical
/// results to [`crate::heuristic_block_align`], minus the protocol.
pub fn heuristic_block_align_shm(
    s: &[u8],
    t: &[u8],
    scoring: &Scoring,
    params: &HeuristicParams,
    nprocs: usize,
    bands: usize,
    blocks: usize,
) -> Phase1Outcome {
    assert!(nprocs >= 1 && bands >= 1 && blocks >= 1);
    let t0 = Instant::now();
    let kernel = RowKernel::new(*scoring, *params);
    let bands = GridPlan::Uniform.bounds(s.len(), bands);
    let blocks = GridPlan::Uniform.bounds(t.len(), blocks);
    let grid = Grid::tiled(bands.len(), &blocks, nprocs);
    let done = run_shm(&grid, |_| Tiles::new(&kernel, s, t, &bands, &blocks));
    Phase1Outcome {
        regions: finalize_queue(regions_of(Some(done))),
        per_node: vec![NodeStats::default(); nprocs],
        // No virtual clock off-DSM: report the host's real wall for both.
        wall: t0.elapsed(),
        host_wall: t0.elapsed(),
    }
}

/// Result of a [`score_bands_shm`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShmScoreOutcome {
    /// The best local score anywhere in the matrix.
    pub best_score: i32,
    /// Number of cells scoring at least the threshold.
    pub hits: u64,
    /// Name of the kernel the majority of the work ran on
    /// (`"scalar"` or one of the striped engines).
    pub kernel: &'static str,
    /// Real host time for the whole pipeline.
    pub host_wall: std::time::Duration,
}

/// Sink of [`score_bands_shm`]: a hit count and a best score.
#[derive(Default)]
struct Tally {
    hits: u64,
    best: i32,
}

impl BandSink<()> for Tally {
    fn hits(&mut self, _: usize, hits: u64) {
        self.hits += hits;
    }

    fn end(&mut self, _: &mut (), _: usize, best: i32) {
        self.best = self.best.max(best);
    }
}

/// The pre-process band pipeline on plain threads + channels with the
/// vectorized score kernel: exact SW best score and threshold-hit count,
/// no DSM, no virtual clock. Bands of query rows are assigned cyclically
/// to `nprocs` threads; each band streams left-to-right in column chunks,
/// handing its bottom row to the band below through a channel — the
/// [`crate::preprocess`] kernel over a queue border.
pub fn score_bands_shm(
    s: &[u8],
    t: &[u8],
    scoring: &Scoring,
    threshold: i32,
    choice: KernelChoice,
    nprocs: usize,
    bands: usize,
) -> ShmScoreOutcome {
    assert!(nprocs >= 1 && bands >= 1);
    assert!(threshold >= 1, "hit threshold must be positive");
    let t0 = Instant::now();
    let bands = GridPlan::Uniform.bounds(s.len(), bands);
    let chunks = ChunkPlan::Fixed(2048).chunks(t.len());
    let grid = Grid::tiled(bands.len(), &chunks, nprocs);
    // The kernel's knobs travel in a strategy config; no column is saved.
    let mut config = PreprocessConfig::new(nprocs);
    (config.threshold, config.kernel) = (threshold, choice);
    let sink = Tally::default;
    let done = run_shm(&grid, |_| {
        Bands::new(s, t, scoring, &config, &bands, &chunks, sink())
    });
    let mut out = ShmScoreOutcome {
        best_score: 0,
        hits: 0,
        kernel: "scalar",
        host_wall: t0.elapsed(),
    };
    for bands in done {
        out.hits += bands.sink.hits;
        out.best_score = out.best_score.max(bands.sink.best);
        if bands.engine != "scalar" {
            out.kernel = bands.engine;
        }
    }
    out.host_wall = t0.elapsed();
    out
}

/// The classic Fig. 7 wave-front on the batch scheduler
/// ([`genomedsm_batch::run_jobs`]): cells of each antidiagonal are
/// independent (cell `(i, j)` needs only diagonals `d-1` and `d-2`), so
/// every antidiagonal is cut into one contiguous run of cells per worker
/// and the runs are merged in cell order. This is the
/// textbook formulation the paper contrasts with its column/band
/// assignments; results are identical to the serial driver because the
/// same [`RowKernel::update_cell`] runs per cell.
pub fn heuristic_antidiagonal_rayon(
    s: &[u8],
    t: &[u8],
    scoring: &Scoring,
    params: &HeuristicParams,
    threads: usize,
) -> Phase1Outcome {
    let t0 = Instant::now();
    let kernel = RowKernel::new(*scoring, *params);
    let m = s.len();
    let n = t.len();
    let workers = threads.max(1);
    let scheduler = genomedsm_batch::SchedulerConfig { workers, window: 0 };

    // Antidiagonal d holds cells (i, j) with i + j == d, 1 <= i <= m,
    // 1 <= j <= n. Buffers are indexed by i; index 0 stands for the zero
    // border row.
    let mut prev2: Vec<HCell> = vec![HCell::fresh(); m + 1]; // diagonal d-2
    let mut prev1: Vec<HCell> = vec![HCell::fresh(); m + 1]; // diagonal d-1
    let mut queue: Vec<LocalRegion> = Vec::new();

    for d in 2..=(m + n) {
        let i_lo = 1.max(d.saturating_sub(n));
        let i_hi = m.min(d - 1);
        if i_lo > i_hi {
            // Degenerate axis: nothing on this antidiagonal.
            std::mem::swap(&mut prev2, &mut prev1);
            prev1.iter_mut().for_each(|c| *c = HCell::fresh());
            continue;
        }
        let p2 = &prev2;
        let p1 = &prev1;
        let cell_at = |i: usize| {
            let j = d - i;
            // Predecessors: diag = (i-1, j-1) on d-2; up = (i-1, j)
            // and left = (i, j-1) on d-1. Border cells are fresh.
            let diag = p2[i - 1]; // (i-1, j-1): fresh border when on the rim
            let up = p1[i - 1]; // (i-1, j): the zero border row when i == 1
            let left = p1[i];
            let mut local_queue = Vec::new();
            let cell = kernel.update_cell(
                s[i - 1],
                t[j - 1],
                i,
                j,
                &diag,
                &up,
                &left,
                &mut local_queue,
            );
            // Edge flushes mirror the serial driver: rightmost
            // column per row, bottom row (corner once).
            if j == n {
                kernel.flush_open(&cell, i, n, &mut local_queue);
            } else if i == m {
                kernel.flush_open(&cell, m, j, &mut local_queue);
            }
            (i, cell, local_queue)
        };
        // One contiguous run of cells per worker; the in-order merge
        // hands the runs back in cell order.
        let run_len = (i_hi - i_lo + 1).div_ceil(workers);
        let runs: Vec<std::ops::Range<usize>> = (i_lo..=i_hi)
            .step_by(run_len)
            .map(|lo| lo..(lo + run_len).min(i_hi + 1))
            .collect();
        let mut results: Vec<(usize, HCell, Vec<LocalRegion>)> = Vec::new();
        genomedsm_batch::run_jobs(
            runs,
            &scheduler,
            |_, run| run.map(&cell_at).collect::<Vec<_>>(),
            |_, mut cells| results.append(&mut cells),
        );
        std::mem::swap(&mut prev2, &mut prev1);
        prev1.iter_mut().for_each(|c| *c = HCell::fresh());
        for (i, cell, mut local_queue) in results {
            prev1[i] = cell;
            queue.append(&mut local_queue);
        }
    }

    Phase1Outcome {
        regions: finalize_queue(queue),
        per_node: vec![NodeStats::default(); threads],
        wall: t0.elapsed(),
        host_wall: t0.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genomedsm_core::heuristic_align;
    use genomedsm_seq::{planted_pair, HomologyPlan, MutationProfile};

    const SC: Scoring = Scoring::paper();

    fn params() -> HeuristicParams {
        HeuristicParams {
            open_threshold: 8,
            close_threshold: 8,
            min_score: 15,
        }
    }

    #[test]
    fn shm_port_matches_serial_and_dsm() {
        let (s, t, _) = planted_pair(
            350,
            350,
            &HomologyPlan {
                region_count: 4,
                region_len_mean: 70,
                region_len_jitter: 10,
                profile: MutationProfile::similar(),
            },
            41,
        );
        let serial = heuristic_align(&s, &t, &SC, &params());
        for nprocs in [1, 2, 4] {
            let shm = heuristic_block_align_shm(&s, &t, &SC, &params(), nprocs, 8, 8);
            assert_eq!(shm.regions, serial, "nprocs={nprocs}");
        }
        let dsm = crate::heuristic_block_align(
            &s,
            &t,
            &SC,
            &params(),
            &crate::BlockedConfig::new(2, 8, 8),
        );
        assert_eq!(dsm.regions, serial);
    }

    #[test]
    fn antidiagonal_matches_serial() {
        let (s, t, _) = planted_pair(
            220,
            260,
            &HomologyPlan {
                region_count: 3,
                region_len_mean: 50,
                region_len_jitter: 15,
                profile: MutationProfile::similar(),
            },
            42,
        );
        let serial = heuristic_align(&s, &t, &SC, &params());
        for threads in [1, 2, 4] {
            let wave = heuristic_antidiagonal_rayon(&s, &t, &SC, &params(), threads);
            assert_eq!(wave.regions, serial, "threads={threads}");
        }
    }

    #[test]
    fn antidiagonal_degenerate_inputs() {
        for (s, t) in [(&b""[..], &b"ACGT"[..]), (b"ACGT", b""), (b"A", b"A")] {
            let serial = heuristic_align(s, t, &SC, &params());
            let wave = heuristic_antidiagonal_rayon(s, t, &SC, &params(), 2);
            assert_eq!(wave.regions, serial);
        }
    }

    #[test]
    fn shm_band_scorer_matches_the_oracle() {
        use genomedsm_core::linear::sw_score_linear;
        let (s, t, _) = planted_pair(
            500,
            460,
            &HomologyPlan {
                region_count: 3,
                region_len_mean: 80,
                region_len_jitter: 20,
                profile: MutationProfile::similar(),
            },
            43,
        );
        let threshold = 14;
        let oracle = sw_score_linear(&s, &t, &SC, threshold);
        for choice in [KernelChoice::Scalar, KernelChoice::Simd, KernelChoice::Auto] {
            for nprocs in [1, 2, 4] {
                let out = score_bands_shm(&s, &t, &SC, threshold, choice, nprocs, 7);
                assert_eq!(out.best_score, oracle.best_score, "{choice:?} p={nprocs}");
                assert_eq!(out.hits, oracle.hits, "{choice:?} p={nprocs}");
            }
        }
    }

    #[test]
    fn shm_band_scorer_degenerate_inputs() {
        use genomedsm_core::linear::sw_score_linear;
        for (s, t) in [(&b""[..], &b"ACGT"[..]), (b"ACGT", b""), (b"A", b"A")] {
            let oracle = sw_score_linear(s, t, &SC, 1);
            let out = score_bands_shm(s, t, &SC, 1, KernelChoice::Auto, 2, 3);
            assert_eq!(out.best_score, oracle.best_score);
            assert_eq!(out.hits, oracle.hits);
        }
    }

    #[test]
    fn degenerate_sizes() {
        let serial = heuristic_align(b"ACGTACGTAC", b"ACGT", &SC, &params());
        let shm = heuristic_block_align_shm(b"ACGTACGTAC", b"ACGT", &SC, &params(), 4, 6, 6);
        assert_eq!(shm.regions, serial);
    }
}
