//! The prefiltered protein search driver: composition bounds before DP.
//!
//! [`prefiltered_search`] runs the same top-k database search as
//! [`crate::engine::oracle_search_mode`] in protein mode, but consults the
//! ALAE-style composition index (`genomedsm-index`) before every DP
//! launch. Records are scanned in **descending bound order** (ties by
//! ascending record index), and a record is pruned without scoring when
//!
//! * its bound is `< 1` — no positive-scoring alignment is possible, so
//!   the record can never produce a hit at all; or
//! * the query's top-k is full **and** the bound is strictly below the
//!   k-th (worst kept) score. Strictness matters: a record whose bound
//!   *equals* the k-th score could still yield an equal-score hit at a
//!   lower target index, which the [`crate::topk::Hit`] order ranks above
//!   the current k-th — pruning it would change the answer.
//!
//! Because bounds never undershoot the true score (the exactness property
//! `genomedsm-index` proves and tests), neither rule can drop a record
//! that belongs in the final top-k: the result is **bit-identical** to
//! the unfiltered search, only cheaper. Scanning best-bound-first is what
//! makes the second rule effective — the top-k fills with high scores
//! early, so the cutoff rises as fast as possible.
//!
//! The driver is sequential per query (the per-record kernel calls are
//! where the time goes, and pruning decisions are inherently ordered);
//! parallel callers run queries, not records, in parallel. Each query is a
//! one-query lane group: its profile is built once, outside the scan.

use crate::db::SeqDatabase;
use crate::engine::offer;
use crate::topk::{Hit, TopK};
use genomedsm_core::submat::MatrixScoring;
use genomedsm_index::{PrefilterStats, ProteinIndex, QueryBound};
use genomedsm_kernels::{kernel_for, score_group, GroupProfile, KernelChoice};

/// One prefiltered top-k protein search: every query against every
/// record, with index-pruned DP. Returns per-query hit lists (input
/// order, best hit first — exactly [`crate::engine::oracle_search_mode`]'s
/// protein answer) plus the aggregate pruning counters.
///
/// `index` must have been built over this database's records in database
/// order ([`build_index`] does exactly that); the function only sees
/// composition counts, so a stale index silently degrades to wrong
/// answers — keep the pair together.
pub fn prefiltered_search(
    db: &SeqDatabase,
    index: &ProteinIndex,
    queries: &[&[u8]],
    ms: &MatrixScoring,
    kernel: KernelChoice,
    top_k: usize,
) -> (Vec<Vec<Hit>>, PrefilterStats) {
    debug_assert_eq!(index.len(), db.len(), "index built over a different db");
    let k = kernel_for(kernel);
    let mut stats = PrefilterStats::default();
    let hits = queries
        .iter()
        .map(|q| {
            let qb = QueryBound::new(q, ms);
            // One profile and one DP state per query, reused down the scan.
            // A query past the a-priori i16 envelope gets none and goes
            // pair by pair through the per-pair lane-width ladder.
            let mut group = kernel
                .isa()
                .and_then(|isa| GroupProfile::new(&[q], ms, isa));
            let mut tk = TopK::new(top_k);
            for (t, bound) in index.scan_order(&qb) {
                // Bounds are non-increasing down the scan, so the first
                // prune decides every remaining record too — stop outright.
                let cutoff_hit = top_k == 0
                    || (tk.len() == top_k
                        && tk.worst().is_some_and(|w| bound < i64::from(w.score)));
                if bound < 1 || cutoff_hit {
                    break;
                }
                stats.scored += 1;
                let r = match &mut group {
                    Some(group) => score_group(group, db.seq(t), 0).swap_remove(0),
                    None => k.score_affine(q, db.seq(t), ms, 0),
                };
                offer(&mut tk, t, &r);
            }
            tk.into_sorted()
        })
        .collect();
    // Every record's bound was (at least implicitly) evaluated; whatever
    // was not scored was pruned.
    stats.evaluated = queries.len() * db.len();
    stats.pruned = stats.evaluated - stats.scored;
    (hits, stats)
}

/// Builds the composition index over a database, in database record
/// order — the pairing [`prefiltered_search`] requires.
pub fn build_index(db: &SeqDatabase) -> ProteinIndex {
    ProteinIndex::build((0..db.len()).map(|i| db.seq(i)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{oracle_search_mode, ScoreMode};
    use genomedsm_core::scoring::Scoring;
    use genomedsm_core::submat::SubstMatrix;
    use genomedsm_seq::{random_protein, ProteinRecord};

    fn protein_db(n: usize, base_len: usize, seed: u64) -> SeqDatabase {
        let records: Vec<ProteinRecord> = (0..n)
            .map(|i| ProteinRecord {
                id: format!("p{i}"),
                seq: random_protein(base_len / 2 + (i * 17) % base_len.max(1), seed + i as u64),
            })
            .collect();
        SeqDatabase::from_protein_records(records)
    }

    fn check_identical(db: &SeqDatabase, queries: &[&[u8]], ms: &MatrixScoring, top_k: usize) {
        let index = build_index(db);
        let want = oracle_search_mode(
            db,
            queries,
            &ScoreMode::Protein(*ms),
            &Scoring::paper(),
            top_k,
        );
        for kernel in [KernelChoice::Scalar, KernelChoice::Simd, KernelChoice::Auto] {
            let (got, stats) = prefiltered_search(db, &index, queries, ms, kernel, top_k);
            assert_eq!(got, want, "prefilter changed the top-k ({kernel})");
            assert_eq!(stats.evaluated, queries.len() * db.len());
            assert_eq!(stats.pruned + stats.scored, stats.evaluated);
        }
    }

    #[test]
    fn prefiltered_top_k_is_bit_identical_to_the_full_scan() {
        let db = protein_db(40, 60, 5);
        let queries: Vec<genomedsm_seq::ProteinSeq> =
            (0..9).map(|i| random_protein(25, 700 + i)).collect();
        let refs: Vec<&[u8]> = queries.iter().map(|q| q.as_bytes()).collect();
        let ms = MatrixScoring::blosum62();
        for top_k in [0usize, 1, 3, 10, 1000] {
            check_identical(&db, &refs, &ms, top_k);
        }
    }

    #[test]
    fn prefilter_exactness_survives_planted_near_duplicates() {
        // Ties are the dangerous case: duplicate records produce
        // equal-score hits whose order depends only on target index. The
        // strict `<` cutoff must keep all of them alive until scored.
        let q = random_protein(40, 1);
        let mut records: Vec<ProteinRecord> = (0..6)
            .map(|i| ProteinRecord {
                id: format!("dup{i}"),
                seq: q.clone(),
            })
            .collect();
        for i in 0..10 {
            records.push(ProteinRecord {
                id: format!("noise{i}"),
                seq: random_protein(40, 100 + i),
            });
        }
        let db = SeqDatabase::from_protein_records(records);
        let refs: Vec<&[u8]> = vec![q.as_bytes()];
        // k smaller than the duplicate count: exactly the first k copies
        // (by target index) must win.
        check_identical(&db, &refs, &MatrixScoring::blosum62(), 3);
    }

    #[test]
    fn prefilter_exactness_on_pam250_and_degenerate_queries() {
        let db = protein_db(25, 40, 77);
        let long = vec![b'W'; 3000]; // past the i16 envelope: scalar spill
        let queries: Vec<&[u8]> = vec![b"", b"W", &long, b"WQHKRWCEW"];
        let ms = MatrixScoring::new(SubstMatrix::pam250(), -10, -2);
        check_identical(&db, &queries, &ms, 4);
    }

    #[test]
    fn disjoint_composition_actually_prunes() {
        // Poly-W queries against a poly-P database: every bound is 0, so
        // the driver must prune everything without a single DP launch.
        let records: Vec<ProteinRecord> = (0..12)
            .map(|i| ProteinRecord {
                id: format!("p{i}"),
                seq: genomedsm_seq::ProteinSeq::new("P".repeat(30 + i)).unwrap(),
            })
            .collect();
        let db = SeqDatabase::from_protein_records(records);
        let index = build_index(&db);
        let q = vec![b'W'; 25];
        let refs: Vec<&[u8]> = vec![&q];
        let ms = MatrixScoring::blosum62();
        let (hits, stats) = prefiltered_search(&db, &index, &refs, &ms, KernelChoice::Auto, 5);
        assert!(hits[0].is_empty());
        assert_eq!(stats.scored, 0);
        assert_eq!(stats.pruned, 12);
        assert!((stats.pruning_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_database_and_empty_queries() {
        let db = SeqDatabase::from_protein_records(vec![]);
        let index = build_index(&db);
        let ms = MatrixScoring::blosum62();
        let (hits, stats) = prefiltered_search(&db, &index, &[b"WCE"], &ms, KernelChoice::Auto, 5);
        assert_eq!(hits, vec![Vec::<Hit>::new()]);
        assert_eq!(stats.evaluated, 0);
        let (hits, _) = prefiltered_search(&db, &index, &[], &ms, KernelChoice::Auto, 5);
        assert!(hits.is_empty());
    }
}
