//! A BlastN-like seed-and-extend heuristic local aligner.
//!
//! Table 2 of the paper compares GenomeDSM's output against NCBI BlastN on
//! two 50 kBP mitochondrial genomes and observes that "the results obtained
//! by both programs are very close but not the same", both being
//! heuristics with different parameters. The NCBI binary is not available
//! here, so this crate implements the same algorithmic family from
//! scratch:
//!
//! 1. **Seeding** — index every `word_size`-mer of `t`
//!    ([`kmer::KmerIndex`]), then stream the `word_size`-mers of `s` and
//!    look up exact matches (the classic BLAST word hit).
//! 2. **Ungapped extension** — extend each hit left and right along the
//!    diagonal with an X-drop rule ([`extend::extend_ungapped`]).
//! 3. **Gapped refinement** — re-align promising HSPs with a banded
//!    Needleman–Wunsch over the extended window
//!    ([`genomedsm_core::nw::nw_banded`]).
//! 4. **Filtering** — deduplicate per diagonal, drop HSPs below
//!    `min_score`, sort by score.
//!
//! The output type is the same [`LocalRegion`] the GenomeDSM strategies
//! produce, so the Table 2 comparison is a direct coordinate diff.

#![warn(missing_docs)]

pub mod extend;
pub mod filter;
pub mod hsp;
pub mod kmer;
pub mod stats;

use genomedsm_core::{LocalRegion, Scoring};
use std::fmt;

pub use extend::extend_ungapped;
pub use filter::{dust_mask, dust_score, DustParams};
pub use hsp::dedup_hsps;
pub use kmer::KmerIndex;
pub use stats::KarlinAltschul;

/// Typed error of the BlastN-like searcher (same conventions as the
/// strategies' `StrategyError`: a contextual message per variant, `Display`
/// + `Error` impls, and a `Result` alias).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlastError {
    /// A parameter combination the search cannot run with.
    BadParams(String),
    /// An input sequence contained a byte outside `{A,C,G,T}`.
    InvalidBase {
        /// Which input: `"query"` or `"subject"`.
        which: &'static str,
        /// Byte offset of the first offending character.
        position: usize,
        /// The offending byte.
        byte: u8,
    },
}

impl fmt::Display for BlastError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlastError::BadParams(what) => write!(f, "bad blast parameters: {what}"),
            BlastError::InvalidBase {
                which,
                position,
                byte,
            } => write!(
                f,
                "{which} has invalid base 0x{byte:02x} at position {position}"
            ),
        }
    }
}

impl std::error::Error for BlastError {}

/// Convenience alias used by the search entry points.
pub type BlastResult<T> = Result<T, BlastError>;

/// Rejects bytes outside `{A,C,G,T}` before they can reach the 2-bit
/// k-mer encoder or the DUST scorer, whose panics would otherwise be the
/// first to notice.
fn validate_bases(which: &'static str, seq: &[u8]) -> BlastResult<()> {
    match seq
        .iter()
        .position(|&b| !matches!(b, b'A' | b'C' | b'G' | b'T'))
    {
        None => Ok(()),
        Some(position) => Err(BlastError::InvalidBase {
            which,
            position,
            byte: seq[position],
        }),
    }
}

/// Parameters of the BlastN-like search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlastParams {
    /// Exact-match seed length (NCBI blastn default: 11).
    pub word_size: usize,
    /// Stop extending once the running score drops this far below the
    /// best seen (the X-drop).
    pub x_drop: i32,
    /// Report HSPs scoring at least this much.
    pub min_score: i32,
    /// Band half-width for the gapped refinement pass.
    pub band: usize,
    /// Two-hit seeding (BLAST 2.0): require a second non-overlapping word
    /// hit on the same diagonal within this distance before extending.
    /// `None` = classic one-hit seeding.
    pub two_hit_window: Option<usize>,
    /// DUST-style low-complexity masking of the query (`None` = off).
    pub dust: Option<filter::DustParams>,
    /// Column scoring scheme (defaults to the paper's +1/−1/−2).
    pub scoring: Scoring,
    /// Score kernel for the gapped-refinement re-score of each HSP window
    /// (striped SIMD when available and applicable, scalar otherwise).
    pub kernel: genomedsm_kernels::KernelChoice,
}

impl Default for BlastParams {
    fn default() -> Self {
        Self {
            word_size: 11,
            x_drop: 12,
            min_score: 20,
            band: 16,
            two_hit_window: None,
            dust: None,
            scoring: Scoring::paper(),
            kernel: genomedsm_kernels::KernelChoice::Auto,
        }
    }
}

/// The seed-and-extend searcher.
#[derive(Debug, Clone)]
pub struct BlastN {
    /// Search parameters.
    pub params: BlastParams,
}

impl BlastN {
    /// Creates a searcher with the given parameters.
    ///
    /// # Errors
    /// Returns [`BlastError::BadParams`] for a word size outside the 2-bit
    /// packer's `4..=31` range or a non-positive X-drop.
    pub fn new(params: BlastParams) -> BlastResult<Self> {
        if params.word_size < 4 {
            return Err(BlastError::BadParams(format!(
                "word size {} too small to seed (need >= 4)",
                params.word_size
            )));
        }
        if params.word_size > 31 {
            return Err(BlastError::BadParams(format!(
                "word size {} exceeds the 2-bit packer's limit of 31",
                params.word_size
            )));
        }
        if params.x_drop <= 0 {
            return Err(BlastError::BadParams(format!(
                "x_drop must be positive, got {}",
                params.x_drop
            )));
        }
        Ok(Self { params })
    }

    /// Searches for local alignments of `s` against `t`, returning HSP
    /// coordinates sorted by descending score.
    ///
    /// # Errors
    /// Returns [`BlastError::InvalidBase`] if either input contains a byte
    /// outside `{A,C,G,T}` (FASTA inputs parsed by `genomedsm-seq` are
    /// always clean; this guards hand-built byte slices).
    pub fn search(&self, s: &[u8], t: &[u8]) -> BlastResult<Vec<LocalRegion>> {
        let p = &self.params;
        validate_bases("query", s)?;
        validate_bases("subject", t)?;
        if s.len() < p.word_size || t.len() < p.word_size {
            return Ok(Vec::new());
        }
        let index = KmerIndex::build(t, p.word_size);
        let mask = p.dust.map(|dp| filter::dust_mask(s, &dp));
        // Per-diagonal high-water mark: skip word hits already covered by
        // an extension on the same diagonal (BLAST's hit culling).
        let mut diag_reach: std::collections::HashMap<i64, usize> =
            std::collections::HashMap::new();
        // Two-hit seeding: remember the last unextended hit per diagonal.
        let mut diag_last_hit: std::collections::HashMap<i64, usize> =
            std::collections::HashMap::new();
        let mut hsps: Vec<LocalRegion> = Vec::new();

        for (i, word) in kmer::kmers(s, p.word_size) {
            if let Some(mask) = &mask {
                // Skip seeds starting in masked (low-complexity) query.
                if mask[i] {
                    continue;
                }
            }
            for &j in index.lookup(word) {
                let j = j as usize;
                let diag = i as i64 - j as i64;
                if diag_reach.get(&diag).is_some_and(|&reach| i < reach) {
                    continue;
                }
                if let Some(window) = p.two_hit_window {
                    // BLAST 2.0: extend only when a second non-overlapping
                    // hit lands on the diagonal within the window.
                    match diag_last_hit.get(&diag) {
                        Some(&prev) if i > prev + p.word_size - 1 && i - prev <= window => {}
                        _ => {
                            diag_last_hit.insert(diag, i);
                            continue;
                        }
                    }
                }
                let hsp = extend::extend_ungapped(s, t, i, j, p.word_size, &p.scoring, p.x_drop);
                diag_reach.insert(diag, hsp.s_end);
                if hsp.score >= p.min_score {
                    hsps.push(hsp);
                }
            }
        }
        let hsps = self.refine_gapped_batch(s, t, hsps);
        let mut out = dedup_hsps(hsps);
        out.retain(|h| h.score >= p.min_score);
        Ok(out)
    }

    /// Re-scores ungapped HSPs over their windows, keeping per HSP the best
    /// of the ungapped score, a banded global alignment (gapped alignment
    /// can only help if the window truly contains indels), and an exact
    /// local SW score. The local score dominates both others (it may skip
    /// the window's rim and is never banded), so on SIMD hardware this is
    /// both the tightest and the cheapest bound per cell.
    ///
    /// The SW re-scores for *all* windows go through one
    /// [`genomedsm_batch::score_pairs`] call instead of per-window kernel
    /// launches: windows over a byte-identical subject slice share a lane
    /// group, and a window with a subject of its own is a group of one,
    /// striped over all lanes as the single-pair kernel would run it.
    fn refine_gapped_batch(&self, s: &[u8], t: &[u8], hsps: Vec<LocalRegion>) -> Vec<LocalRegion> {
        let p = &self.params;
        let pairs: Vec<(&[u8], &[u8])> = hsps
            .iter()
            .map(|h| (&s[h.s_begin..h.s_end], &t[h.t_begin..h.t_end]))
            .collect();
        // One worker: BlastN searches often already run one-per-thread
        // (phase-1 strategies, benches), so refinement stays inline.
        let scheduler = genomedsm_batch::SchedulerConfig {
            workers: 1,
            window: 1,
        };
        let locals = genomedsm_batch::score_pairs(p.kernel, &pairs, &p.scoring, 0, &scheduler);
        hsps.into_iter()
            .zip(locals)
            .map(|(mut best, local)| {
                let sub_s = &s[best.s_begin..best.s_end];
                let sub_t = &t[best.t_begin..best.t_end];
                if let Some(g) = genomedsm_core::nw::nw_banded(sub_s, sub_t, &p.scoring, p.band) {
                    best.score = best.score.max(g.score);
                }
                best.score = best.score.max(local.best_score);
                best
            })
            .collect()
    }
}

impl Default for BlastN {
    fn default() -> Self {
        Self::new(BlastParams::default()).expect("default parameters are valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genomedsm_seq::{planted_pair, HomologyPlan};

    #[test]
    fn finds_a_planted_exact_repeat() {
        let mut s = vec![b'A'; 200];
        let mut t = vec![b'C'; 200];
        let repeat = b"GATTACAGATTACAGATTACAGATTACA"; // 28 bp
        s[50..50 + repeat.len()].copy_from_slice(repeat);
        t[120..120 + repeat.len()].copy_from_slice(repeat);
        let hits = BlastN::default().search(&s, &t).unwrap();
        assert!(!hits.is_empty());
        let best = &hits[0];
        assert!(best.score >= 20, "score {}", best.score);
        assert!(best.s_begin >= 45 && best.s_end <= 85);
        assert!(best.t_begin >= 115 && best.t_end <= 155);
    }

    #[test]
    fn no_hits_between_unrelated_homopolymers() {
        let s = vec![b'A'; 300];
        let t = vec![b'C'; 300];
        assert!(BlastN::default().search(&s, &t).unwrap().is_empty());
    }

    #[test]
    fn too_short_inputs_yield_nothing() {
        assert!(BlastN::default()
            .search(b"ACGT", b"ACGTACGTACGTACG")
            .unwrap()
            .is_empty());
    }

    #[test]
    fn finds_planted_homology_with_mutations() {
        let plan = HomologyPlan {
            region_count: 4,
            region_len_mean: 250,
            region_len_jitter: 30,
            profile: genomedsm_seq::MutationProfile::similar(),
        };
        let (s, t, truth) = planted_pair(8_000, 8_000, &plan, 77);
        let hits = BlastN::default().search(&s, &t).unwrap();
        // Every planted region should be hit by at least one HSP whose
        // t-interval overlaps it.
        for region in &truth {
            let covered = hits
                .iter()
                .any(|h| h.t_begin < region.t_end && region.t_start < h.t_end);
            assert!(covered, "planted region {region:?} not found");
        }
    }

    #[test]
    fn results_sorted_by_score() {
        let plan = HomologyPlan {
            region_count: 6,
            region_len_mean: 150,
            region_len_jitter: 60,
            profile: genomedsm_seq::MutationProfile::similar(),
        };
        let (s, t, _) = planted_pair(6_000, 6_000, &plan, 3);
        let hits = BlastN::default().search(&s, &t).unwrap();
        for w in hits.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn two_hit_seeding_still_finds_long_homology() {
        let plan = HomologyPlan {
            region_count: 3,
            region_len_mean: 300,
            region_len_jitter: 20,
            profile: genomedsm_seq::MutationProfile::similar(),
        };
        let (s, t, truth) = planted_pair(6_000, 6_000, &plan, 91);
        let blast = BlastN::new(BlastParams {
            two_hit_window: Some(40),
            ..Default::default()
        })
        .unwrap();
        let hits = blast.search(&s, &t).unwrap();
        for region in &truth {
            let covered = hits
                .iter()
                .any(|h| h.t_begin < region.t_end && region.t_start < h.t_end);
            assert!(covered, "two-hit seeding missed {region:?}");
        }
        // And it prunes spurious one-off seeds: no more HSPs than one-hit.
        let one_hit = BlastN::default().search(&s, &t).unwrap();
        assert!(hits.len() <= one_hit.len());
    }

    #[test]
    fn dust_masking_suppresses_homopolymer_hits() {
        // Both sequences share a 60-bp poly-A run (biologically
        // meaningless); with DUST on, it is not reported.
        let mut x: u64 = 5;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut s: Vec<u8> = (0..500).map(|_| b"ACGT"[(next() % 4) as usize]).collect();
        let mut t: Vec<u8> = (0..500).map(|_| b"ACGT"[(next() % 4) as usize]).collect();
        for b in s[100..160].iter_mut() {
            *b = b'A';
        }
        for b in t[300..360].iter_mut() {
            *b = b'A';
        }
        let unmasked = BlastN::default().search(&s, &t).unwrap();
        assert!(
            unmasked.iter().any(|h| h.s_begin >= 90 && h.s_end <= 170),
            "poly-A should hit without DUST"
        );
        let masked = BlastN::new(BlastParams {
            dust: Some(filter::DustParams::default()),
            ..Default::default()
        })
        .unwrap()
        .search(&s, &t)
        .unwrap();
        assert!(
            !masked.iter().any(|h| h.s_begin >= 90 && h.s_end <= 170),
            "poly-A must be masked: {masked:?}"
        );
    }

    #[test]
    fn kernel_choices_give_identical_results() {
        use genomedsm_core::sw_score_linear;
        use genomedsm_kernels::KernelChoice;
        let plan = HomologyPlan {
            region_count: 5,
            region_len_mean: 180,
            region_len_jitter: 40,
            profile: genomedsm_seq::MutationProfile::similar(),
        };
        let (s, t, _) = planted_pair(5_000, 5_000, &plan, 12);
        let runs: Vec<_> = [KernelChoice::Scalar, KernelChoice::Simd, KernelChoice::Auto]
            .into_iter()
            .map(|kernel| {
                BlastN::new(BlastParams {
                    kernel,
                    ..Default::default()
                })
                .unwrap()
                .search(&s, &t)
                .unwrap()
            })
            .collect();
        assert_eq!(runs[0], runs[1], "scalar vs simd");
        assert_eq!(runs[0], runs[2], "scalar vs auto");
        assert!(!runs[0].is_empty());

        // The all-singles shape: every window has a subject slice of its
        // own, so each is a lane group of one. From a zero seed score the
        // refined score is the window's exact local score.
        let windows: Vec<LocalRegion> = (0..6)
            .map(|i| LocalRegion {
                s_begin: 400 * i,
                s_end: 400 * i + 150 + 9 * i,
                t_begin: 700 * i + 13,
                t_end: 700 * i + 190,
                score: 0,
            })
            .collect();
        for kernel in [KernelChoice::Scalar, KernelChoice::Simd, KernelChoice::Auto] {
            let blast = BlastN::new(BlastParams {
                kernel,
                ..Default::default()
            })
            .unwrap();
            let (s, t) = (s.as_bytes(), t.as_bytes());
            let refined = blast.refine_gapped_batch(s, t, windows.clone());
            for (w, r) in windows.iter().zip(&refined) {
                let (ws, wt) = (&s[w.s_begin..w.s_end], &t[w.t_begin..w.t_end]);
                let want = sw_score_linear(ws, wt, &blast.params.scoring, 0).best_score;
                assert_eq!(r.score, want, "{kernel} window at s={}", w.s_begin);
            }
        }
    }

    #[test]
    fn rejects_bad_parameters_with_typed_errors() {
        for (params, needle) in [
            (
                BlastParams {
                    word_size: 2,
                    ..Default::default()
                },
                "word size",
            ),
            (
                BlastParams {
                    word_size: 40,
                    ..Default::default()
                },
                "2-bit packer",
            ),
            (
                BlastParams {
                    x_drop: 0,
                    ..Default::default()
                },
                "x_drop",
            ),
        ] {
            match BlastN::new(params) {
                Err(BlastError::BadParams(msg)) => {
                    assert!(msg.contains(needle), "`{msg}` missing `{needle}`")
                }
                other => panic!("expected BadParams, got {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_non_dna_input_instead_of_panicking() {
        let blast = BlastN::default();
        let good = vec![b'A'; 20];
        let mut bad = good.clone();
        bad[7] = b'N';
        let err = blast.search(&bad, &good).unwrap_err();
        assert_eq!(
            err,
            BlastError::InvalidBase {
                which: "query",
                position: 7,
                byte: b'N'
            }
        );
        let err = blast.search(&good, &bad).unwrap_err();
        assert!(matches!(
            err,
            BlastError::InvalidBase {
                which: "subject",
                ..
            }
        ));
        // And the error formats usefully.
        assert!(err.to_string().contains("subject"));
    }
}
