//! Cross-crate integration tests: the full two-phase pipeline on every
//! strategy, at every cluster size the paper evaluates (1, 2, 4, 8).

use genomedsm::prelude::*;
use genomedsm_core::heuristic_align;
use genomedsm_core::linear::sw_score_linear;
use genomedsm_core::nw::nw_score;
use genomedsm_dotplot::{ascii_plot, svg_plot, PlotSpec};
use genomedsm_strategies::{BandScheme, ChunkPlan, HeuristicDsmConfig};

const SC: Scoring = Scoring::paper();

fn params() -> HeuristicParams {
    HeuristicParams {
        open_threshold: 10,
        close_threshold: 10,
        min_score: 25,
    }
}

fn workload(len: usize, seed: u64) -> (Vec<u8>, Vec<u8>, usize) {
    let plan = HomologyPlan {
        region_count: (len / 400).max(2),
        region_len_mean: 200,
        region_len_jitter: 50,
        profile: genomedsm_seq::MutationProfile::similar(),
    };
    let (s, t, truth) = genomedsm_seq::planted_pair(len, len, &plan, seed);
    (s.into_bytes(), t.into_bytes(), truth.len())
}

#[test]
fn all_strategies_agree_on_all_cluster_sizes() {
    let (s, t, _) = workload(900, 71);
    let serial = heuristic_align(&s, &t, &SC, &params());
    assert!(!serial.is_empty(), "workload must produce regions");
    for nprocs in [1, 2, 4, 8] {
        let s1 = heuristic_align_dsm(&s, &t, &SC, &params(), &HeuristicDsmConfig::new(nprocs));
        assert_eq!(s1.regions, serial, "strategy 1, P={nprocs}");
        let s2 = heuristic_block_align(
            &s,
            &t,
            &SC,
            &params(),
            &BlockedConfig::new(nprocs, 2 * nprocs, 2 * nprocs),
        );
        assert_eq!(s2.regions, serial, "strategy 2, P={nprocs}");
    }
}

#[test]
fn phase1_finds_the_planted_homology() {
    let (s, t, planted) = workload(2_000, 72);
    let out = heuristic_block_align(&s, &t, &SC, &params(), &BlockedConfig::new(4, 8, 8));
    // Every strong planted region should be covered; allow a small miss
    // margin for regions weakened by mutation.
    assert!(
        out.regions.len() + 1 >= planted,
        "found {} of {planted}",
        out.regions.len()
    );
}

#[test]
fn full_pipeline_phase1_phase2_dotplot() {
    let (s, t, _) = workload(1_200, 73);
    for nprocs in [1, 2, 4, 8] {
        let phase1 =
            heuristic_block_align(&s, &t, &SC, &params(), &BlockedConfig::new(nprocs, 8, 8));
        let phase2 = phase2_scattered(&s, &t, &phase1.regions, &SC, nprocs).unwrap();
        assert_eq!(phase2.alignments.len(), phase1.regions.len());
        for ra in &phase2.alignments {
            let r = &ra.region;
            let expect = nw_score(&s[r.s_begin..r.s_end], &t[r.t_begin..r.t_end], &SC);
            assert_eq!(ra.alignment.score, expect);
            assert_eq!(ra.alignment.score, ra.alignment.recompute_score(&SC));
        }
        let spec = PlotSpec::new(s.len(), t.len());
        let ascii = ascii_plot(&phase1.regions, &spec, 40, 20);
        assert!(ascii.contains('*'));
        let svg = svg_plot(&phase1.regions, &spec, 640, 640);
        assert!(svg.contains("<line"));
    }
}

#[test]
fn preprocess_exactness_across_cluster_sizes() {
    let (s, t, _) = workload(700, 74);
    let oracle = sw_score_linear(&s, &t, &SC, 20);
    for nprocs in [1, 2, 4, 8] {
        let mut config = PreprocessConfig::new(nprocs);
        config.band = BandScheme::Fixed(97);
        config.chunk = ChunkPlan::Fixed(128);
        config.threshold = 20;
        config.result_interleave = 64;
        let out = preprocess_align(&s, &t, &SC, &config).unwrap();
        assert_eq!(out.total_hits(), oracle.hits as i64, "P={nprocs}");
        assert_eq!(out.best_score, oracle.best_score, "P={nprocs}");
    }
}

#[test]
fn preprocess_band_schemes_agree() {
    let (s, t, _) = workload(600, 75);
    let mut totals = Vec::new();
    for band in [
        BandScheme::Fixed(64),
        BandScheme::Equal,
        BandScheme::Balanced(100),
    ] {
        let mut config = PreprocessConfig::new(3);
        config.band = band;
        config.chunk = ChunkPlan::Arithmetic {
            start: 32,
            step: 32,
        };
        config.threshold = 18;
        let out = preprocess_align(&s, &t, &SC, &config).unwrap();
        totals.push((out.total_hits(), out.best_score));
    }
    assert_eq!(totals[0], totals[1]);
    assert_eq!(totals[1], totals[2]);
}

#[test]
fn reverse_exact_agrees_with_phase1_peak() {
    let (s, t, _) = workload(800, 76);
    let exact = genomedsm_core::reverse::reverse_align_best(&s, &t, &SC).expect("has alignment");
    let oracle = sw_score_linear(&s, &t, &SC, i32::MAX);
    assert_eq!(exact.region.score, oracle.best_score);
    // The heuristic queue's best region should overlap the exact best.
    let phase1 = heuristic_block_align(&s, &t, &SC, &params(), &BlockedConfig::new(2, 4, 4));
    let best_heur = phase1.regions.iter().max_by_key(|r| r.score).expect("some");
    assert!(
        best_heur.overlaps(&exact.region),
        "heuristic best {best_heur:?} misses exact best {:?}",
        exact.region
    );
}

#[test]
fn blast_and_genomedsm_find_the_same_top_region() {
    let (s, t, _) = workload(1_500, 77);
    let dsm = heuristic_block_align(&s, &t, &SC, &params(), &BlockedConfig::new(2, 6, 6));
    let blast = genomedsm_blast::BlastN::default()
        .search(&s, &t)
        .expect("clean DNA input");
    let top_dsm = dsm.regions.iter().max_by_key(|r| r.score).expect("regions");
    assert!(
        blast.iter().any(|h| h.overlaps(top_dsm)),
        "no BlastN HSP overlaps the top GenomeDSM region"
    );
}

#[test]
fn fasta_round_trip_preserves_pipeline_results() {
    let (s, t, _) = workload(500, 78);
    let dir = std::env::temp_dir().join("genomedsm_pipeline_fasta");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("pair.fa");
    let records = vec![
        genomedsm_seq::fasta::FastaRecord {
            id: "s".into(),
            seq: DnaSeq::from_bases(s.clone()),
        },
        genomedsm_seq::fasta::FastaRecord {
            id: "t".into(),
            seq: DnaSeq::from_bases(t.clone()),
        },
    ];
    genomedsm_seq::fasta::write_fasta_file(&path, &records).unwrap();
    let back = genomedsm_seq::fasta::read_fasta_file(&path).unwrap();
    let before = heuristic_align(&s, &t, &SC, &params());
    let after = heuristic_align(
        back[0].seq.as_bytes(),
        back[1].seq.as_bytes(),
        &SC,
        &params(),
    );
    assert_eq!(before, after);
    std::fs::remove_file(&path).ok();
}
