//! The paper's three parallel strategies for local sequence alignment on
//! the DSM substrate, plus phase 2.
//!
//! | Strategy | Paper | Module | Character |
//! |----------|-------|--------|-----------|
//! | `heuristic` | §4.2 | [`heuristic_dsm`] | wavefront, column partition, **per-cell** border handoff via lock-free cv protocol — approximate (Martins heuristic), slow on synchronization |
//! | `heuristic_block` | §4.3 | [`blocked`] | bands × blocks with a blocking multiplier; border rows cross in **chunks** — approximate, much faster |
//! | `pre_process` | §5 | [`preprocess`] | exact SW scores, no candidate tracking; result matrix of threshold hits + selected columns saved to disk |
//! | phase 2 | §4.4 | [`phase2`] | scattered-mapping global alignment of the phase-1 regions, no locks/cvs |
//!
//! All of them are (grid, kernel, sink) triples run by the one driver in
//! [`wavefront`], which also owns what a crash means: takeover and rejoin.
//!
//! Every strategy computes the serial reference's cells exactly:
//! `heuristic` drives the same [`genomedsm_core::RowKernel`] that
//! `heuristic_align` uses, `heuristic_block` runs each tile on
//! [`genomedsm_kernels::HeuristicTile`] (the row kernel's recurrence one
//! anti-diagonal at a time, on SIMD lanes), and `pre_process` the plain SW
//! recurrence on `BandScorer` or scalar. Parallel and serial results are
//! identical cell-for-cell; the integration tests assert exactly that.

#![warn(missing_docs)]
// Index-based loops are the clearest way to write DP stencils.
#![allow(clippy::needless_range_loop)]

pub mod blocked;
pub mod checkpoint;
pub mod costs;
pub mod hcell_data;
pub mod heuristic_dsm;
pub mod phase2;
pub mod preprocess;
pub mod ring;
pub mod wavefront;
pub mod wire;

pub use blocked::{heuristic_block_align, BlockedConfig, GridPlan};
pub use checkpoint::{StrategyError, StrategyResult};
pub use heuristic_dsm::{
    heuristic_align_dsm, heuristic_campaign, CampaignOutcome, CampaignRound, HeuristicDsmConfig,
};
pub use phase2::{phase2_scattered, phase2_scattered_with};
pub use preprocess::{
    preprocess_align, BandScheme, ChunkPlan, IoMode, PreprocessConfig, PreprocessOutcome,
};
pub use wire::{WireIndexed, WireRegions};

use genomedsm_core::{finalize_queue, LocalRegion};
use genomedsm_dsm::{DsmRun, NodeStats};
use std::time::{Duration, Instant};

/// Result of a phase-1 strategy run: the finalized queue of candidate
/// alignments plus execution measurements.
#[derive(Debug, Clone)]
pub struct Phase1Outcome {
    /// Candidate local alignments, sorted by size and deduplicated.
    pub regions: Vec<LocalRegion>,
    /// Per-node DSM statistics (index = node id).
    pub per_node: Vec<NodeStats>,
    /// Total execution time of the simulated cluster: the maximum node
    /// virtual clock (computation at the calibrated per-cell cost plus
    /// protocol waits). The paper's speed-ups are computed on this.
    pub wall: Duration,
    /// Real time the simulation took on the host (diagnostic only).
    pub host_wall: Duration,
}

impl Phase1Outcome {
    /// Merges the per-node candidate queues of a DSM run started at `t0`.
    pub(crate) fn gather(run: DsmRun<WireRegions>, t0: Instant) -> Self {
        let all = run.results.into_iter().flat_map(|w| w.0).collect();
        Self {
            regions: finalize_queue(all),
            wall: run.stats.iter().map(|s| s.total).max().unwrap_or_default(),
            per_node: run.stats,
            host_wall: t0.elapsed(),
        }
    }

    /// The Fig. 10 execution-time breakdown over all nodes.
    pub fn breakdown(&self) -> genomedsm_dsm::StatsBreakdown {
        genomedsm_dsm::breakdown_many(&self.per_node)
    }
}

/// A fault plan over perfect links: `(node, unit)` crashes and rejoins.
#[cfg(test)]
pub(crate) fn crashes(
    crashes: &[(usize, u64)],
    rejoins: &[(usize, u64)],
) -> genomedsm_dsm::FaultPlan {
    use genomedsm_dsm::FaultPlan;
    let plan = crashes
        .iter()
        .fold(FaultPlan::quiet(0), |plan, &(n, u)| plan.with_crash(n, u));
    rejoins
        .iter()
        .fold(plan, |plan, &(n, u)| plan.with_rejoin(n, u))
}
