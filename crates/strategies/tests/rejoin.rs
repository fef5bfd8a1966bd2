//! Elastic-membership suite (ISSUE acceptance): killing nodes mid-run
//! and scheduling them to **rejoin** must leave every phase-1 strategy
//! and phase 2 with results bit-identical to a fault-free run, end the
//! run with full membership (the joiner is re-admitted at the closing
//! boundary), and — in a multi-round campaign — recover the cluster's
//! throughput after the boundary handback instead of staying degraded
//! at N−k.

use genomedsm_core::{HeuristicParams, Scoring};
use genomedsm_dsm::{FaultPlan, NodeStats};
use genomedsm_seq::{planted_pair, HomologyPlan};
use genomedsm_strategies::{
    heuristic_align_dsm, heuristic_block_align, heuristic_campaign, phase2_scattered_with,
    preprocess_align, BandScheme, BlockedConfig, ChunkPlan, HeuristicDsmConfig, IoMode,
    PreprocessConfig,
};

const SC: Scoring = Scoring::paper();
const NPROCS: usize = 8;

fn workload(len: usize, seed: u64) -> (Vec<u8>, Vec<u8>) {
    let (s, t, _) = planted_pair(len, len, &HomologyPlan::paper_density(len * 8), seed);
    (s.into_bytes(), t.into_bytes())
}

fn params() -> HeuristicParams {
    HeuristicParams {
        open_threshold: 8,
        close_threshold: 8,
        min_score: 15,
    }
}

fn supervise(dsm: genomedsm_dsm::DsmConfig) -> genomedsm_dsm::DsmConfig {
    dsm.supervise(genomedsm_dsm::SupervisionConfig {
        enabled: true,
        detect_after: std::time::Duration::from_millis(40),
    })
}

/// Kills nodes `1..=k` at staggered work-unit counts and schedules each
/// to rejoin after a short virtual downtime.
fn kill_rejoin(k: usize, stagger: &[u64]) -> FaultPlan {
    let mut plan = FaultPlan::quiet(0);
    for victim in 1..=k {
        plan = plan
            .with_crash(victim, stagger[victim - 1])
            .with_rejoin(victim, 8);
    }
    plan
}

#[test]
fn heuristic_kill_then_rejoin_is_bit_identical_and_readmits() {
    let (s, t) = workload(400, 41);
    let expect = heuristic_align_dsm(&s, &t, &SC, &params(), &HeuristicDsmConfig::new(NPROCS));
    assert!(!expect.regions.is_empty(), "workload must find regions");
    for k in 1..=2 {
        let mut config = HeuristicDsmConfig::new(NPROCS);
        config.dsm = supervise(config.dsm).faults(kill_rejoin(k, &[40, 90]));
        let out = heuristic_align_dsm(&s, &t, &SC, &params(), &config);
        assert_eq!(out.regions, expect.regions, "k={k}: regions diverged");
        let agg = NodeStats::aggregate(&out.per_node);
        assert_eq!(agg.rejoins, k as u64, "k={k}: every victim rejoins");
        assert!(agg.takeovers >= k as u64, "k={k}: too few takeovers");
    }
}

#[test]
fn blocked_kill_then_rejoin_is_bit_identical_and_readmits() {
    let (s, t) = workload(500, 42);
    let expect = heuristic_block_align(&s, &t, &SC, &params(), &BlockedConfig::new(NPROCS, 16, 8));
    assert!(!expect.regions.is_empty(), "workload must find regions");
    for k in 1..=2 {
        let mut config = BlockedConfig::new(NPROCS, 16, 8);
        config.dsm = supervise(config.dsm).faults(kill_rejoin(k, &[5, 9]));
        let out = heuristic_block_align(&s, &t, &SC, &params(), &config);
        assert_eq!(out.regions, expect.regions, "k={k}: regions diverged");
        assert_eq!(
            NodeStats::aggregate(&out.per_node).rejoins,
            k as u64,
            "k={k}"
        );
    }
}

#[test]
fn preprocess_kill_then_rejoin_keeps_saved_files_bit_identical() {
    let (s, t) = workload(300, 43);
    let dir = std::env::temp_dir().join("genomedsm_rejoin_pp");
    let run = |sub: String, plan: Option<FaultPlan>| {
        let d = dir.join(sub);
        std::fs::create_dir_all(&d).unwrap();
        let mut config = PreprocessConfig::new(NPROCS);
        config.band = BandScheme::Fixed(48);
        config.chunk = ChunkPlan::Fixed(64);
        config.threshold = 12;
        config.result_interleave = 50;
        config.save_interleave = 16;
        config.io_mode = IoMode::Immediate;
        config.save_dir = Some(d);
        if let Some(plan) = plan {
            config.dsm = supervise(config.dsm).faults(plan);
        }
        let out = preprocess_align(&s, &t, &SC, &config).unwrap();
        let mut files: Vec<(String, Vec<u8>)> = out
            .files
            .iter()
            .map(|f| {
                let name = f.file_name().unwrap().to_string_lossy().into_owned();
                (name, std::fs::read(f).unwrap())
            })
            .collect();
        files.sort();
        (out, files)
    };
    let (expect, expect_files) = run("clean".into(), None);
    assert!(!expect_files.is_empty(), "test needs saved-column files");
    let (out, files) = run("rejoin".into(), Some(kill_rejoin(1, &[3])));
    assert_eq!(out.result, expect.result, "scoreboard diverged");
    assert_eq!(out.best_score, expect.best_score);
    assert_eq!(
        files, expect_files,
        "joiner-era saved-column files must be byte-identical"
    );
    assert_eq!(out.per_node.iter().map(|st| st.rejoins).sum::<u64>(), 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn phase2_kill_then_rejoin_is_bit_identical_and_readmits() {
    let (s, t, _) = planted_pair(900, 900, &HomologyPlan::paper_density(900 * 8), 31);
    let (s, t) = (s.into_bytes(), t.into_bytes());
    let regions = genomedsm_core::heuristic_align(&s, &t, &SC, &params());
    assert!(regions.len() >= 4, "need enough regions");
    let clean_cfg =
        genomedsm_dsm::DsmConfig::new(NPROCS).network(genomedsm_dsm::NetworkModel::paper_cluster());
    let expect = phase2_scattered_with(&s, &t, &regions, &SC, &clean_cfg).unwrap();
    for k in 1..=2 {
        let config = supervise(clean_cfg.clone()).faults(kill_rejoin(k, &[1, 1]));
        let out = phase2_scattered_with(&s, &t, &regions, &SC, &config).unwrap();
        assert_eq!(
            out.alignments, expect.alignments,
            "k={k}: alignments diverged"
        );
        assert_eq!(
            out.per_node.iter().map(|st| st.rejoins).sum::<u64>(),
            k as u64,
            "k={k}: every victim rejoins"
        );
    }
}

#[test]
fn campaign_recovers_throughput_after_the_boundary_handback() {
    // Three workload rounds. A kill in round 0 with a scheduled rejoin
    // restores full membership from round 1 on; a permanent kill leaves
    // rounds 1..3 degraded at N−1. Every round of every scenario must
    // still be bit-identical to the fault-free workload, and the elastic
    // run's post-rejoin rounds must beat the degraded ones.
    let (s, t) = workload(400, 44);
    let rounds = 3usize;

    let mut clean_cfg = HeuristicDsmConfig::new(NPROCS);
    clean_cfg.dsm = supervise(clean_cfg.dsm);
    let clean = heuristic_campaign(&s, &t, &SC, &params(), &clean_cfg, rounds);
    assert!(
        !clean.rounds[0].regions.is_empty(),
        "workload finds regions"
    );

    let kill_2_at_40 = FaultPlan::quiet(0).with_crash(2, 40);
    let mut elastic_cfg = HeuristicDsmConfig::new(NPROCS);
    elastic_cfg.dsm = supervise(elastic_cfg.dsm).faults(kill_2_at_40.clone().with_rejoin(2, 8));
    let elastic = heuristic_campaign(&s, &t, &SC, &params(), &elastic_cfg, rounds);

    let mut degraded_cfg = HeuristicDsmConfig::new(NPROCS);
    degraded_cfg.dsm = supervise(degraded_cfg.dsm).faults(kill_2_at_40);
    let degraded = heuristic_campaign(&s, &t, &SC, &params(), &degraded_cfg, rounds);

    for w in 0..rounds {
        assert_eq!(
            elastic.rounds[w].regions, clean.rounds[w].regions,
            "round {w}: elastic run diverged"
        );
        assert_eq!(
            degraded.rounds[w].regions, clean.rounds[w].regions,
            "round {w}: degraded run diverged"
        );
    }
    assert_eq!(
        elastic.per_node.iter().map(|st| st.rejoins).sum::<u64>(),
        1,
        "the victim rejoins exactly once"
    );
    // Post-rejoin rounds run at full strength: strictly faster than the
    // permanently degraded cluster's same rounds.
    for w in 1..rounds {
        assert!(
            elastic.rounds[w].wall < degraded.rounds[w].wall,
            "round {w}: elastic {:?} must beat degraded {:?}",
            elastic.rounds[w].wall,
            degraded.rounds[w].wall
        );
    }
}
