//! Measuring code shared by the experiment families: the harness's
//! scoring, the strategy entry points under it, and host-time helpers.

use crate::HarnessArgs;
use genomedsm_core::{HeuristicParams, Scoring};
use genomedsm_strategies::{
    heuristic_align_dsm, heuristic_block_align, BandScheme, BlockedConfig, ChunkPlan,
    HeuristicDsmConfig, Phase1Outcome, PreprocessConfig,
};
use std::time::{Duration, Instant};

pub(crate) const SC: Scoring = Scoring::paper();

pub(crate) fn params() -> HeuristicParams {
    HeuristicParams::default_for_dna()
}

/// The non-blocked heuristic strategy under the harness's scoring. One
/// node is the serial reference: virtual time = cells x calibrated cell
/// cost plus negligible self-messaging, which matches the sequential
/// program the paper compares against.
pub(crate) fn heuristic(s: &[u8], t: &[u8], config: &HeuristicDsmConfig) -> Phase1Outcome {
    heuristic_align_dsm(s, t, &SC, &params(), config)
}

/// The blocked heuristic strategy under the harness's scoring.
pub(crate) fn blocked(s: &[u8], t: &[u8], config: &BlockedConfig) -> Phase1Outcome {
    heuristic_block_align(s, t, &SC, &params(), config)
}

/// The pre-process configuration every fault and I/O experiment starts
/// from: balanced bands and fixed chunks of the "1K" class, scaled with
/// the sizes.
pub(crate) fn preprocess_1k(args: &HarnessArgs, nprocs: usize) -> PreprocessConfig {
    let mut config = PreprocessConfig::new(nprocs);
    config.band = BandScheme::Balanced(args.size(1024));
    config.chunk = ChunkPlan::Fixed(args.size(1024));
    config
}

/// `(a / b - 1)` as a signed percentage.
pub(crate) fn percent_over(a: Duration, b: Duration) -> f64 {
    (crate::speedup(a, b) - 1.0) * 100.0
}

/// The last result and the best host time of `reps` runs.
pub(crate) fn best_of<R>(reps: usize, run: impl Fn() -> R) -> (R, Duration) {
    let mut best = Duration::MAX;
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        last = Some(std::hint::black_box(run()));
        best = best.min(t0.elapsed());
    }
    (last.expect("at least one repetition"), best)
}

pub(crate) fn gcups(cells: f64, time: Duration) -> f64 {
    cells / time.as_secs_f64().max(1e-9) / 1e9
}
