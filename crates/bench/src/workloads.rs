//! Workload generation for the harness.
//!
//! All experiments run on planted-homology pairs at the paper's
//! "mitochondrial" density (123 similar regions of ~253 bp per 50 kBP),
//! seeded per size so runs are reproducible.

use genomedsm_core::LocalRegion;
use genomedsm_seq::fasta::FastaRecord;
use genomedsm_seq::{
    planted_pair, random_dna, DnaSeq, HomologyPlan, MutationProfile, PlantedRegion,
};

/// The standard harness plan for a sequence of `len` bp.
pub fn plan_for(len: usize) -> HomologyPlan {
    HomologyPlan {
        region_count: (123 * len / 50_000).max(2),
        region_len_mean: 253,
        region_len_jitter: 80,
        profile: MutationProfile::similar(),
    }
}

/// A reproducible planted pair of `len` bp sequences.
pub fn pair(len: usize, seed: u64) -> (Vec<u8>, Vec<u8>, Vec<PlantedRegion>) {
    let (s, t, truth) = planted_pair(len, len, &plan_for(len), seed ^ len as u64);
    (s.into_bytes(), t.into_bytes(), truth)
}

/// Pairs of ~`mean` bp subsequences for the phase-2 experiments (Fig. 15:
/// the paper's average subsequence size is 253 bytes).
pub fn subsequence_pairs(count: usize, mean: usize, seed: u64) -> Vec<(DnaSeq, DnaSeq)> {
    let plan = HomologyPlan {
        region_count: 1,
        region_len_mean: mean,
        region_len_jitter: mean / 5,
        profile: MutationProfile::similar(),
    };
    (0..count)
        .map(|i| {
            let (s, t, regions) =
                planted_pair(mean * 2, mean * 2, &plan, seed.wrapping_add(i as u64));
            match regions.first() {
                Some(r) => (
                    s.slice(r.s_start, r.s_end),
                    t.slice(r.t_start, r.t_end.min(t.len())),
                ),
                None => (s, t),
            }
        })
        .collect()
}

/// [`subsequence_pairs`] concatenated into one pair of sequences plus one
/// region per pair, so phase 2 sees the same scattered work the paper
/// describes.
pub fn scattered_regions(
    count: usize,
    mean: usize,
    seed: u64,
) -> (Vec<u8>, Vec<u8>, Vec<LocalRegion>) {
    let mut s = Vec::new();
    let mut t = Vec::new();
    let mut regions = Vec::with_capacity(count);
    for (ps, pt) in subsequence_pairs(count, mean, seed) {
        regions.push(LocalRegion {
            s_begin: s.len(),
            s_end: s.len() + ps.len(),
            t_begin: t.len(),
            t_end: t.len() + pt.len(),
            score: 0,
        });
        s.extend_from_slice(ps.as_bytes());
        t.extend_from_slice(pt.as_bytes());
    }
    (s, t, regions)
}

/// `records` random DNA database records of ragged lengths around
/// `t_len` (the batch engine's database and the service's FASTA files).
pub fn dna_records(records: usize, t_len: usize, seed: u64) -> Vec<FastaRecord> {
    (0..records)
        .map(|i| FastaRecord {
            id: format!("rec{i}"),
            seq: random_dna(t_len / 2 + (i * 29) % t_len, seed + i as u64),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_is_reproducible() {
        let a = pair(1000, 7);
        let b = pair(1000, 7);
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
    }

    #[test]
    fn density_matches_paper() {
        // 50 kBP => 123 regions requested.
        assert_eq!(plan_for(50_000).region_count, 123);
    }

    #[test]
    fn subsequence_pairs_have_requested_stats() {
        let pairs = subsequence_pairs(50, 253, 3);
        assert_eq!(pairs.len(), 50);
        let avg: usize = pairs.iter().map(|(s, _)| s.len()).sum::<usize>() / 50;
        assert!((150..400).contains(&avg), "avg {avg}");
    }
}
