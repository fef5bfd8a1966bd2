//! Phase 2 (§4.4): retrieving the actual alignments.
//!
//! For each similar region found in phase 1, the corresponding
//! subsequences are aligned globally (Needleman–Wunsch). The distributed
//! algorithm treats the queue as a vector sorted by subsequence size and
//! uses a **scattered mapping**: processor `Pi` handles positions
//! `i, i+P, i+2P, …` of the vector and records its results at the same
//! scattered positions of a shared vector — "this strategy eliminates the
//! need for synchronization operations such as those provided by locks
//! and condition variables"; barriers are used only at the beginning and
//! the end.

use crate::checkpoint::{StrategyError, StrategyResult};
use crate::wavefront::{concat, lowest_alive, Grid, Stage, Wavefront};
use genomedsm_core::nw::{align_region, RegionAlignment};
use genomedsm_core::{LocalRegion, Scoring};
use genomedsm_dsm::{DsmConfig, DsmSystem, GlobalVec, Node, NodeStats};
use std::time::{Duration, Instant};

/// Result of a phase-2 run.
#[derive(Debug, Clone)]
pub struct Phase2Outcome {
    /// One global alignment per input region, in input order.
    pub alignments: Vec<RegionAlignment>,
    /// Per-node DSM statistics.
    pub per_node: Vec<NodeStats>,
    /// Total simulated cluster time (max node virtual clock).
    pub wall: Duration,
    /// Real time the simulation took on the host (diagnostic only).
    pub host_wall: Duration,
}

/// Global alignment as a borderless [`Stage`]: "role `b mod P` does stage
/// `b`", a stage being one queue position — the scattered mapping. The
/// sink is the indexed alignment list.
struct Aligner<'a> {
    s: &'a [u8],
    t: &'a [u8],
    regions: &'a [LocalRegion],
    scoring: Scoring,
    /// The similarity scores, at the same positions in shared memory.
    scores: &'a GlobalVec<i32>,
    mine: Vec<(usize, RegionAlignment)>,
}

impl Stage for Aligner<'_> {
    type Cell = i32;

    fn unit(
        &mut self,
        node: &mut Node,
        stage: usize,
        _: usize,
        _: &[i32],
        _: &mut Vec<i32>,
    ) -> usize {
        let r = &self.regions[stage];
        let ra = align_region(self.s, self.t, r, &self.scoring);
        node.vec_set(self.scores, stage, ra.alignment.score);
        self.mine.push((stage, ra));
        r.s_len() * r.t_len()
    }
}

/// Runs phase 2 on a simulated DSM cluster with the scattered mapping.
///
/// Returns one [`RegionAlignment`] per input region (same order). The
/// similarity scores are also written into a shared DSM vector at the
/// scattered positions, exactly as the paper describes, and cross-checked
/// on node 0.
pub fn phase2_scattered(
    s: &[u8],
    t: &[u8],
    regions: &[LocalRegion],
    scoring: &Scoring,
    nprocs: usize,
) -> StrategyResult<Phase2Outcome> {
    let config = DsmConfig::new(nprocs).network(genomedsm_dsm::NetworkModel::paper_cluster());
    phase2_scattered_with(s, t, regions, scoring, &config)
}

/// [`phase2_scattered`] with an explicit DSM configuration, so callers can
/// attach a fault plan, retransmission policy, or network model (the
/// chaos suite runs phase 2 under injected loss through this entry).
///
/// With supervision enabled the run tolerates fail-stop deaths: the
/// scattered mapping has no mid-run synchronization, so deaths surface at
/// the end-of-compute barrier, where survivors deterministically adopt
/// the dead roles' scattered indices (the driver's takeover sweep, see
/// [`crate::wavefront`]) and re-align them — duplicates across rounds
/// overwrite with identical alignments. The cross-check falls to the
/// lowest *alive* node. Locks and condition variables stay unused either
/// way.
///
/// # Errors
///
/// Returns [`StrategyError::Worker`] if any region ends the run
/// unaligned (every worker holding it died and no survivor adopted it —
/// cannot happen while at least one node survives).
pub fn phase2_scattered_with(
    s: &[u8],
    t: &[u8],
    regions: &[LocalRegion],
    scoring: &Scoring,
    config: &DsmConfig,
) -> StrategyResult<Phase2Outcome> {
    let t0 = Instant::now();
    let grid = Grid {
        stages: regions.len(),
        roles: config.nprocs,
        chunks: vec![0],
        window: 1,
    };
    // A scheduled rejoin's downtime is priced at the mean stage cost.
    let total_cells: usize = regions.iter().map(|r| r.s_len() * r.t_len()).sum();
    let wavefront = Wavefront {
        grid: &grid,
        cell_cost: crate::costs::NW_CELL,
        unit_cells: grid.tile_cells(total_cells, 1),
        rounds: 1,
        finish_barriers: 1,
    };
    let run = DsmSystem::run_wire(config.clone(), |node| {
        let scores = node.alloc_vec::<i32>(regions.len().max(1));
        let aligner = |_: &[usize]| Aligner {
            s,
            t,
            regions,
            scoring: *scoring,
            scores: &scores,
            mine: Vec::new(),
        };
        let mut rounds = wavefront.run(node, aligner, |node, round| {
            let Some(pieces) = round.pieces else {
                return Vec::new(); // fail-stopped: its memory is lost
            };
            // Cross-check the shared vector on the lowest alive node (every
            // score must have come through the multiple-writer protocol).
            if lowest_alive(node) {
                for i in 0..regions.len() {
                    let _ = node.vec_get(&scores, i);
                }
            }
            node.barrier_wait();
            // Re-aligning an index twice is harmless — the alignment is
            // deterministic and overwrites itself.
            concat(pieces.into_iter().map(|a| a.mine))
        });
        crate::wire::WireIndexed(rounds.pop().unwrap_or_default())
    });

    let mut alignments: Vec<Option<RegionAlignment>> = vec![None; regions.len()];
    for (idx, ra) in run.results.into_iter().flat_map(|w| w.0) {
        alignments[idx] = Some(ra);
    }
    let missing = |idx| StrategyError::Worker(format!("region {idx} was never aligned"));
    let alignments: Vec<RegionAlignment> = alignments
        .into_iter()
        .enumerate()
        .map(|(idx, a)| a.ok_or_else(|| missing(idx)))
        .collect::<Result<_, _>>()?;
    Ok(Phase2Outcome {
        alignments,
        wall: run.stats.iter().map(|s| s.total).max().unwrap_or_default(),
        host_wall: t0.elapsed(),
        per_node: run.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use genomedsm_core::heuristic_align;
    use genomedsm_core::nw::nw_score;
    use genomedsm_core::HeuristicParams;
    use genomedsm_seq::{planted_pair, HomologyPlan};

    const SC: Scoring = Scoring::paper();

    fn regions_for_test(len: usize, seed: u64) -> (Vec<u8>, Vec<u8>, Vec<LocalRegion>) {
        let (s, t, _) = planted_pair(len, len, &HomologyPlan::paper_density(len * 8), seed);
        let params = HeuristicParams {
            open_threshold: 8,
            close_threshold: 8,
            min_score: 15,
        };
        let regions = heuristic_align(&s, &t, &SC, &params);
        (s.into_bytes(), t.into_bytes(), regions)
    }

    #[test]
    fn aligns_every_region_in_order() {
        let (s, t, regions) = regions_for_test(600, 31);
        assert!(!regions.is_empty(), "need regions to align");
        for nprocs in [1, 2, 4] {
            let out = phase2_scattered(&s, &t, &regions, &SC, nprocs).unwrap();
            assert_eq!(out.alignments.len(), regions.len());
            for (ra, r) in out.alignments.iter().zip(&regions) {
                assert_eq!(ra.region, *r);
                // Alignment score equals the NW score of the subsequences.
                let expect = nw_score(&s[r.s_begin..r.s_end], &t[r.t_begin..r.t_end], &SC);
                assert_eq!(ra.alignment.score, expect);
            }
        }
    }

    #[test]
    fn no_locks_are_used() {
        let (s, t, regions) = regions_for_test(400, 33);
        let out = phase2_scattered(&s, &t, &regions, &SC, 4).unwrap();
        // Scattered mapping: zero lock/cv messages; only page traffic and
        // the start/end barriers.
        for s in &out.per_node {
            // lock_cv time must be zero: no locks or cvs at all.
            assert_eq!(s.lock_cv, Duration::ZERO);
        }
    }

    #[test]
    fn empty_region_list() {
        let out = phase2_scattered(b"ACGT", b"ACGT", &[], &SC, 2).unwrap();
        assert!(out.alignments.is_empty());
    }

    #[test]
    fn more_processors_than_regions() {
        let (s, t, regions) = regions_for_test(300, 34);
        let take = regions.into_iter().take(2).collect::<Vec<_>>();
        let out = phase2_scattered(&s, &t, &take, &SC, 8).unwrap();
        assert_eq!(out.alignments.len(), take.len());
    }

    fn tolerant_config(nprocs: usize) -> DsmConfig {
        DsmConfig::new(nprocs)
            .network(genomedsm_dsm::NetworkModel::paper_cluster())
            .supervise(genomedsm_dsm::SupervisionConfig {
                enabled: true,
                detect_after: std::time::Duration::from_millis(40),
            })
    }

    #[test]
    fn tolerant_mode_keeps_lockless_invariant() {
        let (s, t, regions) = regions_for_test(400, 33);
        let plain = phase2_scattered(&s, &t, &regions, &SC, 4).unwrap();
        let out = phase2_scattered_with(&s, &t, &regions, &SC, &tolerant_config(4)).unwrap();
        assert_eq!(out.alignments, plain.alignments);
        // Barriers only — still zero lock/cv time.
        for st in &out.per_node {
            assert_eq!(st.lock_cv, Duration::ZERO);
        }
    }

    #[test]
    fn tolerant_mode_survives_single_death() {
        let (s, t, regions) = regions_for_test(900, 31);
        assert!(regions.len() >= 6, "need enough regions to kill mid-role");
        let expect = phase2_scattered(&s, &t, &regions, &SC, 3).unwrap();
        let config = tolerant_config(3).faults(crate::crashes(&[(1, 2)], &[]));
        let out = phase2_scattered_with(&s, &t, &regions, &SC, &config).unwrap();
        assert_eq!(out.alignments, expect.alignments);
        assert!(
            NodeStats::aggregate(&out.per_node).takeovers >= 1,
            "no takeover recorded"
        );
    }

    #[test]
    fn death_of_node_zero_moves_the_crosscheck() {
        let (s, t, regions) = regions_for_test(900, 32);
        assert!(regions.len() >= 4);
        let expect = phase2_scattered(&s, &t, &regions, &SC, 2).unwrap();
        let config = tolerant_config(2).faults(crate::crashes(&[(0, 1)], &[]));
        let out = phase2_scattered_with(&s, &t, &regions, &SC, &config).unwrap();
        assert_eq!(out.alignments, expect.alignments);
    }
}
