//! Seeded input generators.
//!
//! Every input of every workload is a pure function of `--seed`. The
//! program under test only ever sees the FASTA and manifest files written
//! from these values. Lengths are ragged (the planner, the lane packer
//! and the scheduler all behave differently on uniform lengths) but their
//! sum is the same for every seed, so an operation is the same number of
//! DP cells whatever the seed.

use genomedsm::seq::{
    planted_pair, random_dna, random_protein, FastaRecord, HomologyPlan, ProteinRecord,
};

/// SplitMix64: the length/shuffle stream (sequence bytes come from the
/// `seq` crate's own seeded generators).
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// An independent seed for stream `tag` of workload seed `seed`.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    SplitMix64::new(seed ^ tag.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// `count` lengths in `mean - spread ..= mean + spread` whose sum is
/// exactly `count * mean`: drawn as mirrored pairs `mean ± d`, then
/// shuffled.
pub fn ragged_lengths(
    count: usize,
    mean: usize,
    spread: usize,
    rng: &mut SplitMix64,
) -> Vec<usize> {
    assert!(spread < mean, "lengths must stay positive");
    let mut out = Vec::with_capacity(count);
    for _ in 0..count / 2 {
        let d = rng.below(2 * spread as u64 + 1) as usize;
        out.push(mean + spread - d);
        out.push(mean - spread + d);
    }
    if count % 2 == 1 {
        out.push(mean);
    }
    for i in (1..out.len()).rev() {
        out.swap(i, rng.below(i as u64 + 1) as usize);
    }
    out
}

/// Random DNA records `"{prefix}{i}"` of the given lengths.
pub fn dna_records(prefix: &str, lengths: &[usize], seed: u64) -> Vec<FastaRecord> {
    lengths
        .iter()
        .enumerate()
        .map(|(i, &len)| FastaRecord {
            id: format!("{prefix}{i}"),
            seq: random_dna(len, sub_seed(seed, i as u64)),
        })
        .collect()
}

/// Random protein records `"{prefix}{i}"` of the given lengths.
pub fn protein_records(prefix: &str, lengths: &[usize], seed: u64) -> Vec<ProteinRecord> {
    lengths
        .iter()
        .enumerate()
        .map(|(i, &len)| ProteinRecord {
            id: format!("{prefix}{i}"),
            seq: random_protein(len, sub_seed(seed, i as u64)),
        })
        .collect()
}

/// The paper's workload: two `len`-bp sequences with mutated copies of
/// stretches of the first planted in the second at the paper's density.
pub fn planted_pair_records(len: usize, seed: u64) -> Vec<FastaRecord> {
    let (s, t, truth) = planted_pair(len, len, &HomologyPlan::paper_density(len), seed);
    vec![
        FastaRecord {
            id: format!("s len={len} seed={seed}"),
            seq: s,
        },
        FastaRecord {
            id: format!("t len={len} seed={seed} planted={}", truth.len()),
            seq: t,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ragged_lengths_keep_the_sum_and_the_range() {
        for (count, mean, spread) in [(256, 150, 100), (7, 300, 150), (1, 10, 3)] {
            let lens = ragged_lengths(count, mean, spread, &mut SplitMix64::new(9));
            assert_eq!(lens.len(), count);
            assert_eq!(lens.iter().sum::<usize>(), count * mean);
            assert!(lens
                .iter()
                .all(|&l| (mean - spread..=mean + spread).contains(&l)));
        }
        let lens = ragged_lengths(64, 150, 100, &mut SplitMix64::new(9));
        assert!(lens.iter().max() > lens.iter().min(), "not ragged");
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let lens = |seed| ragged_lengths(32, 150, 100, &mut SplitMix64::new(seed));
        assert_eq!(lens(4), lens(4));
        assert_ne!(lens(4), lens(5));
        assert_eq!(dna_records("r", &lens(4), 4), dna_records("r", &lens(4), 4));
        assert_ne!(dna_records("r", &lens(4), 4), dna_records("r", &lens(4), 5));
        assert_eq!(
            protein_records("p", &[40, 50], 1),
            protein_records("p", &[40, 50], 1)
        );
        assert_eq!(planted_pair_records(600, 3), planted_pair_records(600, 3));
        assert_ne!(planted_pair_records(600, 3), planted_pair_records(600, 4));
    }

    #[test]
    fn records_differ_from_each_other() {
        let recs = dna_records("r", &[80, 80, 80], 12);
        assert_ne!(recs[0].seq, recs[1].seq);
        assert_ne!(recs[1].seq, recs[2].seq);
    }
}
