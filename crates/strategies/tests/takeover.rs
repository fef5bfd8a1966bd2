//! Degradation suite (ISSUE acceptance): on an 8-node cluster, killing
//! 1–3 nodes mid-run must leave every phase-1 strategy and phase 2
//! completing on the survivors with results **bit-identical** to a
//! fault-free run — including the pre-process strategy's saved-column
//! files, whose dead owners' contents are reproduced by the adopters.

use genomedsm_core::{HeuristicParams, Scoring};
use genomedsm_dsm::{FaultPlan, NodeStats};
use genomedsm_kernels::{KernelChoice, Rung};
use genomedsm_seq::{planted_pair, HomologyPlan};
use genomedsm_strategies::{
    heuristic_align_dsm, heuristic_block_align, phase2_scattered_with, preprocess_align,
    BandScheme, BlockedConfig, ChunkPlan, HeuristicDsmConfig, IoMode, PreprocessConfig,
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

/// Kills nodes `1..=k` at staggered work-unit counts so the deaths land
/// mid-run, at different depths of the wavefront.
fn kills(k: usize, stagger: &[u64]) -> FaultPlan {
    let mut plan = FaultPlan::quiet(0);
    for victim in 1..=k {
        plan = plan.with_crash(victim, stagger[victim - 1]);
    }
    plan
}

#[test]
fn heuristic_degrades_bit_identically_with_1_to_3_deaths() {
    let (s, t) = workload(400, 41);
    let expect = heuristic_align_dsm(&s, &t, &SC, &params(), &HeuristicDsmConfig::new(NPROCS));
    assert!(!expect.regions.is_empty(), "workload must find regions");
    for k in 0..=3 {
        let mut config = HeuristicDsmConfig::new(NPROCS);
        config.dsm = supervise(config.dsm);
        if k > 0 {
            config.dsm = config.dsm.faults(kills(k, &[40, 90, 140]));
        }
        let out = heuristic_align_dsm(&s, &t, &SC, &params(), &config);
        assert_eq!(out.regions, expect.regions, "k={k}: regions diverged");
        let agg = NodeStats::aggregate(&out.per_node);
        if k > 0 {
            assert!(agg.takeovers >= k as u64, "k={k}: too few takeovers");
            assert_eq!(agg.obituaries % NPROCS as u64, 0);
        } else {
            assert_eq!(agg.takeovers, 0, "fault-free run took over work");
        }
    }
}

#[test]
fn blocked_degrades_bit_identically_with_1_to_3_deaths() {
    let (s, t) = workload(500, 42);
    let expect = heuristic_block_align(&s, &t, &SC, &params(), &BlockedConfig::new(NPROCS, 16, 8));
    assert!(!expect.regions.is_empty(), "workload must find regions");
    for k in 0..=3 {
        let mut config = BlockedConfig::new(NPROCS, 16, 8);
        config.dsm = supervise(config.dsm);
        if k > 0 {
            config.dsm = config.dsm.faults(kills(k, &[5, 9, 13]));
        }
        let out = heuristic_block_align(&s, &t, &SC, &params(), &config);
        assert_eq!(out.regions, expect.regions, "k={k}: regions diverged");
        if k > 0 {
            assert!(
                NodeStats::aggregate(&out.per_node).takeovers >= k as u64,
                "k={k}: too few takeovers"
            );
        }
    }
}

fn pp_config(dir: &std::path::Path) -> PreprocessConfig {
    let mut config = PreprocessConfig::new(NPROCS);
    config.band = BandScheme::Fixed(48);
    config.chunk = ChunkPlan::Fixed(64);
    config.threshold = 12;
    config.result_interleave = 50;
    config.save_interleave = 16;
    config.io_mode = IoMode::Immediate;
    config.save_dir = Some(dir.to_path_buf());
    config
}

#[test]
fn preprocess_degrades_bit_identically_including_saved_files() {
    let (s, t) = workload(300, 43);
    let dir = std::env::temp_dir().join("genomedsm_takeover_pp");
    let run = |sub: String, k: usize| {
        let d = dir.join(sub);
        std::fs::create_dir_all(&d).unwrap();
        let mut config = pp_config(&d);
        if k > 0 {
            config.dsm = supervise(config.dsm).faults(kills(k, &[2, 3, 4]));
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
    let (expect, expect_files) = run("clean".into(), 0);
    assert!(!expect_files.is_empty(), "test needs saved-column files");
    for k in 1..=3 {
        let (out, files) = run(format!("k{k}"), k);
        assert_eq!(out.result, expect.result, "k={k}: scoreboard diverged");
        assert_eq!(out.best_score, expect.best_score, "k={k}");
        assert_eq!(files, expect_files, "k={k}: saved-column files diverged");
        let takeovers: u64 = out.per_node.iter().map(|st| st.takeovers).sum();
        assert!(takeovers >= k as u64, "k={k}: too few takeovers");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn preprocess_past_the_i16_ceiling_is_kernel_blind_clean_and_under_takeover() {
    // 6 650 shared bases at 5 a match: the diagonal passes 32 000 near
    // row and column 6 750, inside band 13 of 14 and chunk 13 of 18. Unit
    // (13, 13) is the first to saturate i16 lanes, re-runs on i32, and
    // the four units right of it stay wide; the other 247 never leave
    // i16. The scalar loop is the reference for every byte.
    let steep = Scoring::new(5, -4, -8);
    let dna = |len, seed| genomedsm_seq::random_dna(len, seed).into_bytes();
    let shared = dna(6_650, 1);
    let s = [dna(350, 2), shared.clone()].concat();
    let t = [dna(350, 3), shared, dna(2_000, 4)].concat();
    let dir = std::env::temp_dir().join("genomedsm_takeover_pp_wide");
    let run = |sub: &str, kernel: KernelChoice, kill: Option<(usize, u64)>| {
        let d = dir.join(sub);
        std::fs::create_dir_all(&d).unwrap();
        let mut config = PreprocessConfig::new(4);
        config.band = BandScheme::Fixed(500);
        config.chunk = ChunkPlan::Fixed(500);
        config.threshold = 30_000;
        config.result_interleave = 500;
        config.save_interleave = 250;
        config.io_mode = IoMode::Deferred;
        config.save_dir = Some(d);
        config.kernel = kernel;
        if let Some((victim, units)) = kill {
            let plan = FaultPlan::quiet(0).with_crash(victim, units);
            config.dsm = supervise(config.dsm).faults(plan);
        }
        let out = preprocess_align(&s, &t, &steep, &config).unwrap();
        let files: Vec<Vec<u8>> = out
            .files
            .iter()
            .map(|f| std::fs::read(f).unwrap())
            .collect();
        (out, files)
    };
    let (scalar, scalar_files) = run("scalar", KernelChoice::Scalar, None);
    assert!(scalar.best_score > 32_000 && scalar.total_hits() > 0);
    assert_eq!(scalar_files.len(), 4, "every node saves columns");
    assert_eq!(scalar.rung_units, [0, 0, 14 * 18]);

    // `auto` is what the CLI runs; `simd` makes a host without vector
    // units climb the portable ladder instead of comparing the scalar loop
    // with itself.
    let (auto, auto_files) = run("auto", KernelChoice::Auto, None);
    let ladder = [14 * 18 - 5, 5, 0];
    let auto_units = KernelChoice::Auto
        .isa()
        .map_or(scalar.rung_units, |_| ladder);
    assert_eq!(auto.rung_units, auto_units);
    let (clean, clean_files) = run("clean", KernelChoice::Simd, None);
    assert_eq!(clean.rung_units, ladder);
    // Node 1 owns bands 1, 5, 9 and 13: its 70th unit is unit 15 of band
    // 13, two past the escalation. The adopter replays the band from its
    // boundary checkpoint and must escalate at the same unit.
    let (killed, killed_files) = run("killed", KernelChoice::Simd, Some((1, 3 * 18 + 15)));
    assert!(killed.per_node.iter().map(|st| st.takeovers).sum::<u64>() >= 1);
    assert_eq!(
        killed.rung_units[Rung::I32 as usize],
        5,
        "{:?}",
        killed.rung_units
    );
    for (what, out, files) in [
        ("auto", auto, auto_files),
        ("clean", clean, clean_files),
        ("killed", killed, killed_files),
    ] {
        assert_eq!(out.result, scalar.result, "{what}: result matrix diverged");
        assert_eq!(out.best_score, scalar.best_score, "{what}");
        assert_eq!(files, scalar_files, "{what}: saved-column files diverged");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn phase2_degrades_bit_identically_with_1_to_3_deaths() {
    let (s, t, _) = planted_pair(900, 900, &HomologyPlan::paper_density(900 * 8), 31);
    let (s, t) = (s.into_bytes(), t.into_bytes());
    let regions = genomedsm_core::heuristic_align(&s, &t, &SC, &params());
    assert!(regions.len() >= 4, "need enough regions for the sweep");
    let clean_cfg =
        genomedsm_dsm::DsmConfig::new(NPROCS).network(genomedsm_dsm::NetworkModel::paper_cluster());
    let expect = phase2_scattered_with(&s, &t, &regions, &SC, &clean_cfg).unwrap();
    for k in 1..=3 {
        let config = supervise(clean_cfg.clone()).faults(kills(k, &[1, 1, 1]));
        let out = phase2_scattered_with(&s, &t, &regions, &SC, &config).unwrap();
        assert_eq!(
            out.alignments, expect.alignments,
            "k={k}: alignments diverged"
        );
        assert!(
            NodeStats::aggregate(&out.per_node).takeovers >= k as u64,
            "k={k}: too few takeovers"
        );
    }
}
