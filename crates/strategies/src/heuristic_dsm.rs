//! Strategy 1 (§4.2): parallel heuristic alignment **without** blocking
//! factors.
//!
//! Work is assigned on a column basis: processor `p` computes columns
//! `p·n/P+1 ..= (p+1)·n/P` of every row (Fig. 8), keeping only two local
//! row slices. The wave-front evolves row by row: when processor `p`
//! finishes its slice of row `i`, it writes the border cell (its last
//! column) to shared memory and signals processor `p+1` through a
//! condition variable; `p+1` reads the value, acknowledges, and computes
//! its slice. "Each value of the border column is passed individually
//! between processors Pi and Pi+1. Thus, no blocking factors are used to
//! group any values" — this is exactly why the strategy synchronizes
//! heavily, the effect Table 1/Fig. 9 quantify.
//!
//! Barriers are used only at the beginning and end of the computation.

use crate::hcell_data::HCellData;
use crate::wavefront::{concat, span, Grid, Stage, Wavefront};
use crate::Phase1Outcome;
use genomedsm_core::{finalize_queue, HCell, HeuristicParams, LocalRegion, RowKernel, Scoring};
use genomedsm_dsm::{DsmConfig, DsmSystem, Node};
use std::time::{Duration, Instant};

/// Configuration of the non-blocked heuristic strategy.
#[derive(Debug, Clone)]
pub struct HeuristicDsmConfig {
    /// DSM cluster configuration (node count, page size, network model).
    pub dsm: DsmConfig,
    /// Virtual cost of one heuristic cell update (era-calibrated default,
    /// see [`crate::costs`]).
    pub cell_cost: Duration,
}

impl HeuristicDsmConfig {
    /// A cluster of `nprocs` nodes with the paper-era network and kernel
    /// cost model.
    pub fn new(nprocs: usize) -> Self {
        Self {
            dsm: DsmConfig::new(nprocs).network(genomedsm_dsm::NetworkModel::paper_cluster()),
            cell_cost: crate::costs::HCELL_CELL,
        }
    }
}

/// The §4.1 cell kernel over one row of a column slice: stage = the
/// slice of processor `p` (Fig. 8), unit = one row, border = the slice's
/// last cell — "each value of the border column is passed individually".
/// Two local rows are the `(b, k-1)` state; the sink is the queue.
struct Rows<'a> {
    kernel: &'a RowKernel,
    s: &'a [u8],
    t: &'a [u8],
    slices: usize,
    /// First column of the current slice (1-based).
    j_lo: usize,
    prev: Vec<HCell>,
    cur: Vec<HCell>,
    queue: Vec<LocalRegion>,
}

impl Stage for Rows<'_> {
    type Cell = HCellData;

    fn begin(&mut self, stage: usize) {
        let slice = Grid::slice(self.t.len(), self.slices, stage);
        // Empty when there are more processors than columns; its owner
        // still relays border cells so the pipeline stays connected.
        let width = span(slice);
        self.j_lo = slice.0;
        self.prev.clear();
        self.prev.resize(width + 1, HCell::fresh());
        self.cur.clone_from(&self.prev);
    }

    fn unit(
        &mut self,
        _: &mut Node,
        stage: usize,
        k: usize,
        left: &[HCellData],
        right: &mut Vec<HCellData>,
    ) -> usize {
        let (i, n) = (k + 1, self.t.len());
        let width = self.cur.len() - 1;
        self.cur[0] = left[0].0;
        if width > 0 {
            self.kernel.process_row_segment(
                i,
                self.s[i - 1],
                self.t,
                self.j_lo,
                &self.prev,
                &mut self.cur,
                &mut self.queue,
            );
        }
        right.push(HCellData(self.cur[width]));
        if stage + 1 == self.slices {
            // Rightmost column of the whole matrix: flush candidates
            // running off the right edge (mirrors the serial driver).
            self.kernel
                .flush_open(&self.cur[width], i, n, &mut self.queue);
        }
        std::mem::swap(&mut self.prev, &mut self.cur);
        width
    }

    fn end(&mut self, _: &mut Node, _: usize) {
        // Bottom row: flush open candidates. Column n is excluded — the
        // right-edge rule already flushed it on the last slice.
        for (k, cell) in self.prev.iter().enumerate().skip(1) {
            let j = self.j_lo - 1 + k;
            if j < self.t.len() {
                self.kernel
                    .flush_open(cell, self.s.len(), j, &mut self.queue);
            }
        }
    }
}

/// Runs `rounds` strategy-1 workloads on `node`: the grid `stages = P,
/// units = m, chunk = 1`, one-slot window (every border value is acked
/// before the next). Returns each round's start time and queue.
fn run_rounds(
    node: &mut Node,
    kernel: &RowKernel,
    s: &[u8],
    t: &[u8],
    config: &HeuristicDsmConfig,
    rounds: usize,
) -> Vec<(Duration, Vec<LocalRegion>)> {
    let nprocs = config.dsm.nprocs;
    let grid = Grid {
        stages: nprocs,
        roles: nprocs,
        chunks: vec![1; s.len()],
        window: 1,
    };
    let wavefront = Wavefront {
        grid: &grid,
        cell_cost: config.cell_cost,
        unit_cells: grid.tile_cells(t.len(), s.len()),
        rounds,
        finish_barriers: 0,
    };
    let rows = |_: &[usize]| Rows {
        kernel,
        s,
        t,
        slices: nprocs,
        j_lo: 1,
        prev: Vec::new(),
        cur: Vec::new(),
        queue: Vec::new(),
    };
    wavefront.run(node, rows, |_, round| {
        let pieces = round.pieces.into_iter().flatten();
        (round.start, concat(pieces.map(|rows| rows.queue)))
    })
}

/// Runs strategy 1 on a simulated cluster and returns the finalized queue
/// of candidate alignments plus execution statistics. With supervision
/// enabled a surviving node adopts a dead neighbour's column slice and
/// re-executes it (see [`crate::wavefront`]).
pub fn heuristic_align_dsm(
    s: &[u8],
    t: &[u8],
    scoring: &Scoring,
    params: &HeuristicParams,
    config: &HeuristicDsmConfig,
) -> Phase1Outcome {
    let t0 = Instant::now();
    let kernel = RowKernel::new(*scoring, *params);
    let run = DsmSystem::run_wire(config.dsm.clone(), |node| {
        let (_, queue) = run_rounds(node, &kernel, s, t, config, 1)
            .pop()
            .unwrap_or_default();
        crate::wire::WireRegions(queue)
    });
    Phase1Outcome::gather(run, t0)
}

/// Per-round result of an elastic campaign (see [`heuristic_campaign`]).
#[derive(Debug)]
pub struct CampaignRound {
    /// Finalized candidate regions of this round's workload.
    pub regions: Vec<LocalRegion>,
    /// Virtual wall of the round: the slowest node's elapsed virtual
    /// time across the workload, its boundary padding, and any rejoin
    /// downtime charged at the following boundary.
    pub wall: Duration,
}

/// Outcome of [`heuristic_campaign`].
#[derive(Debug)]
pub struct CampaignOutcome {
    /// One entry per workload round, in execution order.
    pub rounds: Vec<CampaignRound>,
    /// Final per-node DSM statistics (cumulative over the campaign).
    pub per_node: Vec<genomedsm_dsm::NodeStats>,
    /// Real host time of the whole campaign.
    pub host_wall: Duration,
}

/// Runs `rounds` back-to-back strategy-1 workloads on one supervised
/// cluster — the elastic-membership campaign behind the `paper rejoin`
/// sweep (summary claim 20). A rank killed by the fault plan sits out
/// the rest of its workload (survivors adopt its role via the push
/// ledgers); if the plan also schedules a rejoin it is re-admitted at
/// the next workload boundary and later rounds run at full strength,
/// while without one the cluster stays degraded at N−k for the rest of
/// the campaign. Every round recomputes the same alignment, so each
/// round's regions must equal a fault-free run's — the bench asserts
/// exactly that bit-identity.
pub fn heuristic_campaign(
    s: &[u8],
    t: &[u8],
    scoring: &Scoring,
    params: &HeuristicParams,
    config: &HeuristicDsmConfig,
    rounds: usize,
) -> CampaignOutcome {
    let t0 = Instant::now();
    let kernel = RowKernel::new(*scoring, *params);
    let run = DsmSystem::run(config.dsm.clone(), |node| {
        assert!(node.supervised(), "elastic campaigns require supervision");
        let per_round = run_rounds(node, &kernel, s, t, config, rounds);
        (per_round, node.now())
    });

    let mut results = run.results;
    let mut out = Vec::with_capacity(rounds);
    for w in 0..rounds {
        let regions: Vec<LocalRegion> = results
            .iter_mut()
            .flat_map(|(r, _)| std::mem::take(&mut r[w].1))
            .collect();
        // A round lasts until the next starts (or the campaign ends).
        let wall = results
            .iter()
            .map(|(r, end)| {
                r.get(w + 1)
                    .map_or(*end, |next| next.0)
                    .saturating_sub(r[w].0)
            })
            .max()
            .unwrap_or_default();
        out.push(CampaignRound {
            regions: finalize_queue(regions),
            wall,
        });
    }
    CampaignOutcome {
        rounds: out,
        per_node: run.stats,
        host_wall: t0.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genomedsm_core::heuristic_align;
    use genomedsm_dsm::NodeStats;
    use genomedsm_seq::{planted_pair, HomologyPlan};

    const SC: Scoring = Scoring::paper();

    fn params() -> HeuristicParams {
        HeuristicParams {
            open_threshold: 8,
            close_threshold: 8,
            min_score: 15,
        }
    }

    #[test]
    fn column_slices_partition_the_matrix() {
        let n = 103;
        let mut covered = 0;
        for p in 0..8 {
            let (lo, hi) = Grid::slice(n, 8, p);
            covered += hi + 1 - lo;
            if p > 0 {
                assert_eq!(lo, Grid::slice(n, 8, p - 1).1 + 1);
            }
        }
        assert_eq!(covered, n);
        assert_eq!(Grid::slice(n, 8, 7).1, n);
    }

    #[test]
    fn matches_serial_reference_small() {
        let (s, t, _) = planted_pair(
            300,
            300,
            &HomologyPlan {
                region_count: 3,
                region_len_mean: 60,
                region_len_jitter: 10,
                profile: genomedsm_seq::MutationProfile::similar(),
            },
            5,
        );
        let serial = heuristic_align(&s, &t, &SC, &params());
        for nprocs in [1, 2, 3, 4] {
            let out = heuristic_align_dsm(&s, &t, &SC, &params(), &HeuristicDsmConfig::new(nprocs));
            assert_eq!(out.regions, serial, "nprocs = {nprocs}");
        }
    }

    #[test]
    fn empty_sequences_return_empty() {
        let out = heuristic_align_dsm(b"", b"ACGT", &SC, &params(), &HeuristicDsmConfig::new(2));
        assert!(out.regions.is_empty());
    }

    #[test]
    fn more_processors_than_columns_degenerates_gracefully() {
        // 3 columns, 8 processors: some slices are empty.
        let out = heuristic_align_dsm(
            b"ACGTACGT",
            b"ACG",
            &SC,
            &params(),
            &HeuristicDsmConfig::new(8),
        );
        let serial = heuristic_align(b"ACGTACGT", b"ACG", &SC, &params());
        assert_eq!(out.regions, serial);
    }

    fn tolerant(nprocs: usize) -> HeuristicDsmConfig {
        let mut c = HeuristicDsmConfig::new(nprocs);
        c.dsm = c.dsm.supervise(genomedsm_dsm::SupervisionConfig {
            enabled: true,
            detect_after: std::time::Duration::from_millis(40),
        });
        c
    }

    fn test_pair() -> (genomedsm_seq::DnaSeq, genomedsm_seq::DnaSeq) {
        let (s, t, _) = planted_pair(
            260,
            260,
            &HomologyPlan {
                region_count: 3,
                region_len_mean: 50,
                region_len_jitter: 10,
                profile: genomedsm_seq::MutationProfile::similar(),
            },
            11,
        );
        (s, t)
    }

    #[test]
    fn tolerant_mode_without_failures_matches_serial() {
        let (s, t) = test_pair();
        let serial = heuristic_align(&s, &t, &SC, &params());
        for nprocs in [1, 2, 4] {
            let out = heuristic_align_dsm(&s, &t, &SC, &params(), &tolerant(nprocs));
            assert_eq!(out.regions, serial, "nprocs = {nprocs}");
        }
    }

    #[test]
    fn single_death_mid_run_recovers_bit_identical() {
        let (s, t) = test_pair();
        let serial = heuristic_align(&s, &t, &SC, &params());
        let mut cfg = tolerant(3);
        cfg.dsm = cfg.dsm.faults(crate::crashes(&[(1, 97)], &[]));
        let out = heuristic_align_dsm(&s, &t, &SC, &params(), &cfg);
        assert_eq!(out.regions, serial);
        let agg = NodeStats::aggregate(&out.per_node);
        assert!(agg.takeovers >= 1, "takeovers {}", agg.takeovers);
    }

    #[test]
    fn last_node_death_is_recovered_by_the_barrier_sweep() {
        // The last role's border feeds no one, so its death goes
        // unnoticed until the final barrier; the sweep re-executes it
        // (adoption wraps to node 0).
        let (s, t) = test_pair();
        let serial = heuristic_align(&s, &t, &SC, &params());
        let mut cfg = tolerant(3);
        cfg.dsm = cfg.dsm.faults(crate::crashes(&[(2, 150)], &[]));
        let out = heuristic_align_dsm(&s, &t, &SC, &params(), &cfg);
        assert_eq!(out.regions, serial);
    }

    #[test]
    fn contiguous_double_death_folds_onto_one_adopter() {
        let (s, t) = test_pair();
        let serial = heuristic_align(&s, &t, &SC, &params());
        let mut cfg = tolerant(4);
        cfg.dsm = cfg.dsm.faults(crate::crashes(&[(1, 60), (2, 120)], &[]));
        let out = heuristic_align_dsm(&s, &t, &SC, &params(), &cfg);
        assert_eq!(out.regions, serial);
    }

    #[test]
    fn stats_reflect_heavy_synchronization() {
        let (s, t, _) = planted_pair(400, 400, &HomologyPlan::paper_density(400), 6);
        let out = heuristic_align_dsm(&s, &t, &SC, &params(), &HeuristicDsmConfig::new(4));
        let agg = NodeStats::aggregate(&out.per_node);
        // 400 rows x 3 boundaries x (data + ack) = at least 2400 cv ops.
        assert!(agg.msgs_sent > 2000, "msgs {}", agg.msgs_sent);
    }
}
