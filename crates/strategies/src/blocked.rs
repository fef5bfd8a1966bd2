//! Strategy 2 (§4.3): parallel heuristic alignment **with** blocking
//! factors.
//!
//! The similarity matrix is divided into `bands` row groups × `blocks`
//! column groups (Fig. 11). Bands are assigned to processors cyclically
//! (band `b` → processor `b mod P`). A processor computes its band block
//! by block, left to right; when it finishes a block it sends the block's
//! **last row** to the owner of the band below in one chunk — "grouping
//! many values from the border column into one single communication".
//! Chunk transfer uses the same cv-synchronized shared-memory protocol as
//! strategy 1, but the ring holds a whole band of blocks so producers can
//! run ahead (the pipelining Fig. 11 illustrates: P0 starts block (1,4)
//! while P1 is at (2,1)).
//!
//! Table 3's *blocking multiplier* `a × h` maps to `blocks = a·P` and
//! `bands = h·P`.

use crate::hcell_data::HCellData;
use crate::wavefront::{concat, span, Grid, Stage, Wavefront};
use crate::Phase1Outcome;
use genomedsm_core::{HCell, HeuristicParams, LocalRegion, RowKernel, Scoring};
use genomedsm_dsm::{DsmConfig, DsmSystem, Node};
use genomedsm_kernels::HeuristicTile;
use std::time::Instant;

/// How the matrix is cut into bands and blocks.
///
/// §4.3: "the similar array can be divided into bands and blocks of
/// different heights and widths. Small chunks can be used at the
/// beginning of computation in order to allow the processors to start
/// computing earlier. In the same way, small chunks can also be used at
/// the end of the computation in order to make processors finish
/// calculating later."
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridPlan {
    /// Equal-sized bands and blocks.
    Uniform,
    /// The first and last `edge_splits` bands/blocks are each halved, so
    /// the pipeline fills and drains on small chunks.
    Ramped {
        /// How many edge bands/blocks to halve on each side.
        edge_splits: usize,
    },
}

impl GridPlan {
    /// Cuts `total` items into `parts` ranges (1-based inclusive bounds),
    /// applying the plan's edge refinement.
    pub fn bounds(&self, total: usize, parts: usize) -> Vec<(usize, usize)> {
        let uniform: Vec<(usize, usize)> =
            (0..parts).map(|k| Grid::slice(total, parts, k)).collect();
        match *self {
            GridPlan::Uniform => uniform,
            GridPlan::Ramped { edge_splits } => {
                let n = uniform.len();
                let mut out = Vec::with_capacity(n + 2 * edge_splits);
                for (k, &(lo, hi)) in uniform.iter().enumerate() {
                    let len = (hi + 1).saturating_sub(lo);
                    let split = (k < edge_splits || k >= n.saturating_sub(edge_splits)) && len >= 2;
                    if split {
                        let mid = lo + len / 2 - 1;
                        out.push((lo, mid));
                        out.push((mid + 1, hi));
                    } else {
                        out.push((lo, hi));
                    }
                }
                out
            }
        }
    }
}

/// Configuration of the blocked heuristic strategy.
#[derive(Debug, Clone)]
pub struct BlockedConfig {
    /// Number of row bands (the paper's best 50 kBP run uses 40).
    pub bands: usize,
    /// Number of column blocks per band.
    pub blocks: usize,
    /// Band/block sizing plan (uniform, or ramped edges per §4.3).
    pub plan: GridPlan,
    /// DSM cluster configuration.
    pub dsm: DsmConfig,
    /// Virtual cost of one heuristic cell update (era-calibrated default,
    /// see [`crate::costs`]).
    pub cell_cost: std::time::Duration,
}

impl BlockedConfig {
    /// `nprocs` nodes, an explicit `bands × blocks` grid, paper-era
    /// network and kernel cost model.
    pub fn new(nprocs: usize, bands: usize, blocks: usize) -> Self {
        assert!(bands >= 1 && blocks >= 1, "need at least one band/block");
        Self {
            bands,
            blocks,
            plan: GridPlan::Uniform,
            dsm: DsmConfig::new(nprocs).network(genomedsm_dsm::NetworkModel::paper_cluster()),
            cell_cost: crate::costs::HCELL_CELL,
        }
    }

    /// Enables §4.3's small-edge-chunks refinement.
    pub fn ramped(mut self, edge_splits: usize) -> Self {
        self.plan = GridPlan::Ramped { edge_splits };
        self
    }

    /// Table 3 semantics: a blocking multiplier `a × h` divides the matrix
    /// into `h·P` bands, each containing `a·P` blocks.
    pub fn from_multiplier(nprocs: usize, a: usize, h: usize) -> Self {
        Self::new(nprocs, h * nprocs, a * nprocs)
    }
}

/// The §4.1 cell kernel over one band × block tile: stage = band, unit =
/// block, border = the tile's bottom row (`width + 1` cells, index 0 the
/// diagonal corner). The sink is the candidate queue.
struct Tiles<'a> {
    kernel: &'a RowKernel,
    s: &'a [u8],
    t: &'a [u8],
    bands: &'a [(usize, usize)],
    blocks: &'a [(usize, usize)],
    /// The band's column left of the current block, one cell per row: the
    /// `(b, k-1)` dependency.
    left_col: Vec<HCell>,
    /// The inbound border and the outbound one, as plain cells.
    top: Vec<HCell>,
    bottom: Vec<HCell>,
    tile: HeuristicTile,
    /// Candidate regions found so far.
    queue: Vec<LocalRegion>,
}

impl<'a> Tiles<'a> {
    fn new(
        kernel: &'a RowKernel,
        s: &'a [u8],
        t: &'a [u8],
        bands: &'a [(usize, usize)],
        blocks: &'a [(usize, usize)],
    ) -> Self {
        Self {
            kernel,
            s,
            t,
            bands,
            blocks,
            left_col: Vec::new(),
            top: Vec::new(),
            bottom: Vec::new(),
            tile: HeuristicTile::new(*kernel),
            queue: Vec::new(),
        }
    }
}

impl Stage for Tiles<'_> {
    type Cell = HCellData;

    fn begin(&mut self, stage: usize) {
        self.left_col.clear();
        self.left_col
            .resize(span(self.bands[stage]), HCell::fresh());
    }

    fn unit(
        &mut self,
        _: &mut Node,
        stage: usize,
        k: usize,
        top: &[HCellData],
        bottom: &mut Vec<HCellData>,
    ) -> usize {
        let (m, n) = (self.s.len(), self.t.len());
        let ((i0, _), (c_lo, _)) = (self.bands[stage], self.blocks[k]);
        let (h, width) = (span(self.bands[stage]), span(self.blocks[k]));
        if h == 0 {
            bottom.extend_from_slice(top); // empty band: the passage row flows through
        } else if width == 0 {
            // Empty block: its "bottom row" is the single border cell of
            // the band's last row, already computed by the previous block.
            bottom.push(HCellData(self.left_col[h - 1]));
        } else {
            debug_assert_eq!(top.len(), width + 1);
            self.top.clear();
            self.top.extend(top.iter().map(|c| c.0));
            self.bottom.resize(width + 1, HCell::fresh());
            self.tile.run(
                (self.s, self.t),
                (i0, c_lo),
                &self.top,
                &mut self.left_col,
                &mut self.bottom,
                &mut self.queue,
            );
            bottom.extend(self.bottom.iter().copied().map(HCellData));
        }
        // Right edge of the matrix: flush open candidates row by row
        // (mirrors the serial driver's per-row flush).
        if k + 1 == self.blocks.len() {
            for (r, cell) in self.left_col.iter().enumerate() {
                self.kernel.flush_open(cell, i0 + r, n, &mut self.queue);
            }
        }
        // Bottom row of the matrix: flush (column n excluded, the
        // right-edge rule above already covered it).
        if stage + 1 == self.bands.len() {
            for (idx, cell) in bottom.iter().enumerate().skip(1) {
                let j = c_lo - 1 + idx;
                if j < n {
                    self.kernel.flush_open(&cell.0, m, j, &mut self.queue);
                }
            }
        }
        h * width
    }
}

/// Runs strategy 2 on a simulated cluster. Under supervision
/// ([`DsmConfig::supervise`]) a surviving node adopts a dead node's
/// cyclic band set and re-executes it (see [`crate::wavefront`]).
pub fn heuristic_block_align(
    s: &[u8],
    t: &[u8],
    scoring: &Scoring,
    params: &HeuristicParams,
    config: &BlockedConfig,
) -> Phase1Outcome {
    let t0 = Instant::now();
    let kernel = RowKernel::new(*scoring, *params);
    let bands = config.plan.bounds(s.len(), config.bands);
    let blocks = config.plan.bounds(t.len(), config.blocks);
    let grid = Grid::tiled(bands.len(), &blocks, config.dsm.nprocs);
    let wavefront = Wavefront {
        grid: &grid,
        cell_cost: config.cell_cost,
        unit_cells: grid.tile_cells(s.len(), t.len()),
        rounds: 1,
        finish_barriers: 0,
    };
    let run = DsmSystem::run_wire(config.dsm.clone(), |node: &mut Node| {
        let mut rounds = wavefront.run(
            node,
            |_| Tiles::new(&kernel, s, t, &bands, &blocks),
            |_, round| regions_of(round.pieces),
        );
        crate::wire::WireRegions(rounds.pop().unwrap_or_default())
    });
    Phase1Outcome::gather(run, t0)
}

/// The queues of a round's kernels (none for a fail-stopped worker).
fn regions_of(pieces: Option<Vec<Tiles<'_>>>) -> Vec<LocalRegion> {
    concat(pieces.into_iter().flatten().map(|tiles| tiles.queue))
}

#[cfg(test)]
mod tests {
    use super::*;
    use genomedsm_core::heuristic_align;
    use genomedsm_dsm::NodeStats;
    use genomedsm_seq::{planted_pair, HomologyPlan, MutationProfile};

    const SC: Scoring = Scoring::paper();

    fn params() -> HeuristicParams {
        HeuristicParams {
            open_threshold: 8,
            close_threshold: 8,
            min_score: 15,
        }
    }

    fn workload(len: usize, seed: u64) -> (Vec<u8>, Vec<u8>) {
        let (s, t, _) = planted_pair(
            len,
            len,
            &HomologyPlan {
                region_count: 4,
                region_len_mean: 60,
                region_len_jitter: 20,
                profile: MutationProfile::similar(),
            },
            seed,
        );
        (s.into_bytes(), t.into_bytes())
    }

    #[test]
    fn multiplier_matches_paper_example() {
        // "a 3 × 5 blocking multiplier for 8 processors divides the matrix
        // into 40 bands, each one containing 24 blocks".
        let c = BlockedConfig::from_multiplier(8, 3, 5);
        assert_eq!(c.bands, 40);
        assert_eq!(c.blocks, 24);
    }

    #[test]
    fn matches_serial_reference_across_grids() {
        let (s, t) = workload(320, 11);
        let serial = heuristic_align(&s, &t, &SC, &params());
        for (nprocs, bands, blocks) in [
            (1, 4, 4),
            (2, 4, 4),
            (2, 8, 3),
            (4, 8, 8),
            (3, 7, 5),
            (4, 16, 2),
            // Tiles about one vector of i32 lanes (4 or 8) high and wide.
            (2, 46, 40),
            (2, 40, 36),
            (3, 36, 46),
            (2, 19, 19),
        ] {
            let out = heuristic_block_align(
                &s,
                &t,
                &SC,
                &params(),
                &BlockedConfig::new(nprocs, bands, blocks),
            );
            assert_eq!(
                out.regions, serial,
                "nprocs={nprocs} bands={bands} blocks={blocks}"
            );
        }
    }

    #[test]
    fn degenerate_grids_match_serial() {
        let (s, t) = workload(90, 12);
        let serial = heuristic_align(&s, &t, &SC, &params());
        // More bands than rows, more blocks than columns; then one-row and
        // one-column tiles about one vector of i32 lanes long.
        for (nprocs, bands, blocks) in [
            (2, 120, 7),
            (2, 5, 100),
            (4, 100, 100),
            (2, 90, 10),
            (2, 90, 5),
            (2, 12, 90),
            (3, 5, 90),
        ] {
            let out = heuristic_block_align(
                &s,
                &t,
                &SC,
                &params(),
                &BlockedConfig::new(nprocs, bands, blocks),
            );
            assert_eq!(out.regions, serial, "bands={bands} blocks={blocks}");
        }
    }

    #[test]
    fn single_band_single_block_is_serial() {
        let (s, t) = workload(120, 13);
        let serial = heuristic_align(&s, &t, &SC, &params());
        let out = heuristic_block_align(&s, &t, &SC, &params(), &BlockedConfig::new(1, 1, 1));
        assert_eq!(out.regions, serial);
    }

    #[test]
    fn fewer_messages_than_unblocked() {
        let (s, t) = workload(400, 14);
        let blocked = heuristic_block_align(&s, &t, &SC, &params(), &BlockedConfig::new(4, 8, 8));
        let unblocked =
            crate::heuristic_align_dsm(&s, &t, &SC, &params(), &crate::HeuristicDsmConfig::new(4));
        let mb = NodeStats::aggregate(&blocked.per_node).msgs_sent;
        let mu = NodeStats::aggregate(&unblocked.per_node).msgs_sent;
        assert!(mb * 2 < mu, "blocked should message far less: {mb} vs {mu}");
        assert_eq!(blocked.regions, unblocked.regions);
    }

    #[test]
    #[should_panic(expected = "at least one band")]
    fn zero_bands_rejected() {
        let _ = BlockedConfig::new(2, 0, 4);
    }

    fn tolerant(nprocs: usize, bands: usize, blocks: usize) -> BlockedConfig {
        let mut c = BlockedConfig::new(nprocs, bands, blocks);
        c.dsm = c.dsm.supervise(genomedsm_dsm::SupervisionConfig {
            enabled: true,
            detect_after: std::time::Duration::from_millis(40),
        });
        c
    }

    #[test]
    fn tolerant_mode_without_failures_matches_serial() {
        let (s, t) = workload(300, 21);
        let serial = heuristic_align(&s, &t, &SC, &params());
        for (nprocs, bands, blocks) in [(1, 4, 4), (2, 8, 3), (4, 8, 8), (3, 7, 5)] {
            let out =
                heuristic_block_align(&s, &t, &SC, &params(), &tolerant(nprocs, bands, blocks));
            assert_eq!(out.regions, serial, "nprocs={nprocs}");
        }
    }

    #[test]
    fn single_death_mid_run_recovers_bit_identical() {
        let (s, t) = workload(300, 22);
        let serial = heuristic_align(&s, &t, &SC, &params());
        let mut cfg = tolerant(3, 9, 6);
        cfg.dsm = cfg.dsm.faults(crate::crashes(&[(1, 8)], &[]));
        let out = heuristic_block_align(&s, &t, &SC, &params(), &cfg);
        assert_eq!(out.regions, serial);
        assert!(NodeStats::aggregate(&out.per_node).takeovers >= 1);
    }

    #[test]
    fn death_of_final_band_owner_is_swept() {
        // The owner of the last band pushes nothing, so its death is
        // only discovered at the barrier and recovered by the sweep.
        let (s, t) = workload(260, 23);
        let serial = heuristic_align(&s, &t, &SC, &params());
        let mut cfg = tolerant(3, 6, 4);
        // Node 2 owns bands 2 and 5 (the last): 8 blocks total, die on
        // its very last block.
        cfg.dsm = cfg.dsm.faults(crate::crashes(&[(2, 8)], &[]));
        let out = heuristic_block_align(&s, &t, &SC, &params(), &cfg);
        assert_eq!(out.regions, serial);
    }

    #[test]
    fn double_death_with_ramped_grid_recovers() {
        let (s, t) = workload(280, 24);
        let serial = heuristic_align(&s, &t, &SC, &params());
        let mut cfg = tolerant(4, 8, 8).ramped(1);
        cfg.dsm = cfg.dsm.faults(crate::crashes(&[(1, 11), (2, 23)], &[]));
        let out = heuristic_block_align(&s, &t, &SC, &params(), &cfg);
        assert_eq!(out.regions, serial);
    }
}

#[cfg(test)]
mod grid_tests {
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
    fn uniform_plan_matches_slice_bounds() {
        let b = GridPlan::Uniform.bounds(103, 8);
        assert_eq!(b.len(), 8);
        assert_eq!(b[0].0, 1);
        assert_eq!(b[7].1, 103);
    }

    #[test]
    fn ramped_plan_halves_edges_and_covers_everything() {
        let b = GridPlan::Ramped { edge_splits: 2 }.bounds(160, 8);
        assert_eq!(b.len(), 12); // 8 + 2 splits on each side
        assert_eq!(b[0].0, 1);
        assert_eq!(b.last().unwrap().1, 160);
        for w in b.windows(2) {
            assert_eq!(w[0].1 + 1, w[1].0, "bounds must be contiguous");
        }
        // Edge chunks are half the size of middle ones.
        let width = |r: (usize, usize)| r.1 + 1 - r.0;
        assert_eq!(width(b[0]), 10);
        assert_eq!(width(b[5]), 20);
        assert_eq!(width(*b.last().unwrap()), 10);
    }

    #[test]
    fn ramped_plan_degenerate_sizes() {
        // Single-row ranges cannot be split.
        let b = GridPlan::Ramped { edge_splits: 3 }.bounds(4, 4);
        assert_eq!(b.len(), 4);
        assert_eq!(b.last().unwrap().1, 4);
        // Zero total yields empty-ish bounds without panicking.
        let b = GridPlan::Ramped { edge_splits: 1 }.bounds(0, 3);
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn ramped_strategy_matches_serial() {
        let (s, t, _) = planted_pair(
            300,
            300,
            &HomologyPlan {
                region_count: 3,
                region_len_mean: 60,
                region_len_jitter: 10,
                profile: MutationProfile::similar(),
            },
            51,
        );
        let serial = heuristic_align(&s, &t, &SC, &params());
        for nprocs in [1, 2, 4] {
            let out = heuristic_block_align(
                &s,
                &t,
                &SC,
                &params(),
                &BlockedConfig::new(nprocs, 6, 6).ramped(2),
            );
            assert_eq!(out.regions, serial, "nprocs={nprocs}");
        }
    }

    #[test]
    fn ramped_reduces_pipeline_fill_time() {
        // With few, huge blocks the fill dominates; halving the edge
        // blocks lets downstream processors start earlier. Compare
        // simulated cluster times at 4 procs, 4x4 grid.
        let (s, t, _) = planted_pair(1200, 1200, &HomologyPlan::paper_density(1200), 52);
        let uniform = heuristic_block_align(&s, &t, &SC, &params(), &BlockedConfig::new(4, 4, 4));
        let ramped = heuristic_block_align(
            &s,
            &t,
            &SC,
            &params(),
            &BlockedConfig::new(4, 4, 4).ramped(1),
        );
        assert_eq!(uniform.regions, ramped.regions);
        assert!(
            ramped.wall < uniform.wall,
            "ramped {is:?} should beat uniform {was:?}",
            is = ramped.wall,
            was = uniform.wall
        );
    }
}

#[cfg(test)]
mod feature_interplay_tests {
    use super::*;
    use genomedsm_core::heuristic_align;
    use genomedsm_seq::{planted_pair, HomologyPlan};

    const SC: Scoring = Scoring::paper();

    fn params() -> HeuristicParams {
        HeuristicParams {
            open_threshold: 8,
            close_threshold: 8,
            min_score: 15,
        }
    }

    /// JIAJIA's home migration must be invisible to results.
    #[test]
    fn migration_does_not_change_results() {
        let (s, t, _) = planted_pair(400, 400, &HomologyPlan::paper_density(2_500), 81);
        let serial = heuristic_align(&s, &t, &SC, &params());
        let mut config = BlockedConfig::new(4, 8, 8);
        config.dsm = config.dsm.home_migration(true);
        let out = heuristic_block_align(&s, &t, &SC, &params(), &config);
        assert_eq!(out.regions, serial);
    }

    /// Heterogeneous node speeds slow the clock but not the answers.
    #[test]
    fn heterogeneity_does_not_change_results() {
        let (s, t, _) = planted_pair(400, 400, &HomologyPlan::paper_density(2_500), 82);
        let serial = heuristic_align(&s, &t, &SC, &params());
        let homogeneous =
            heuristic_block_align(&s, &t, &SC, &params(), &BlockedConfig::new(4, 8, 8));
        let mut config = BlockedConfig::new(4, 8, 8);
        config.dsm = config.dsm.speeds(vec![1.0, 0.5, 1.0, 0.25]);
        let hetero = heuristic_block_align(&s, &t, &SC, &params(), &config);
        assert_eq!(hetero.regions, serial);
        assert!(
            hetero.wall > homogeneous.wall,
            "slow nodes must lengthen the simulated run: {:?} vs {:?}",
            hetero.wall,
            homogeneous.wall
        );
    }

    /// All features at once: ramped grid + migration + heterogeneity.
    #[test]
    fn all_features_together_stay_correct() {
        let (s, t, _) = planted_pair(350, 350, &HomologyPlan::paper_density(2_000), 83);
        let serial = heuristic_align(&s, &t, &SC, &params());
        let mut config = BlockedConfig::new(3, 6, 6).ramped(1);
        config.dsm = config.dsm.home_migration(true).speeds(vec![1.0, 0.7, 0.9]);
        let out = heuristic_block_align(&s, &t, &SC, &params(), &config);
        assert_eq!(out.regions, serial);
    }
}
