//! The database layer: many FASTA records in one arena, sorted by length.
//!
//! A database search touches every record once per lane group, so the
//! store is optimized for streaming: all sequence bytes live in a single
//! contiguous arena (one allocation, no per-record pointer chasing) and
//! records are ordered by ascending length. Length ordering does two
//! things for the scheduler above: a contiguous *slab* of records has
//! near-uniform per-record cost (so work-stealing granules stay balanced
//! without size-aware splitting), and the per-query result tie-break
//! "lowest target index wins" becomes a fixed, documented order.
//!
//! Per-record metadata ([`RecordMeta`]) keeps the FASTA id and the
//! record's position in the *source file*, so results can always be
//! reported in the user's own terms.

use crate::BatchError;
use genomedsm_seq::fasta::{read_fasta_file, read_protein_fasta_file, FastaRecord, ProteinRecord};
use std::ops::Range;
use std::path::Path;

/// Metadata of one database record (the bytes live in the arena).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordMeta {
    /// FASTA header text (without `>`).
    pub id: String,
    /// 0-based position of the record in the source FASTA file, before
    /// length sorting.
    pub source_index: usize,
    offset: usize,
    len: usize,
}

impl RecordMeta {
    /// Sequence length in bases.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the record is empty (cannot happen for FASTA-loaded
    /// databases; the parser rejects empty records).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// An arena-packed, length-sorted store of target sequences.
#[derive(Debug, Clone, Default)]
pub struct SeqDatabase {
    arena: Vec<u8>,
    meta: Vec<RecordMeta>,
}

impl SeqDatabase {
    /// Builds a database from parsed records, sorting by ascending length
    /// (ties broken by source order, keeping the layout deterministic).
    pub fn from_records(records: Vec<FastaRecord>) -> Self {
        Self::from_named_seqs(
            records
                .into_iter()
                .map(|r| (r.id, r.seq.into_bytes()))
                .collect(),
        )
    }

    /// Builds a database from parsed protein records; same ordering rules
    /// as [`from_records`](Self::from_records). The store is
    /// alphabet-agnostic — only the scoring mode decides how the bytes are
    /// interpreted downstream.
    pub fn from_protein_records(records: Vec<ProteinRecord>) -> Self {
        Self::from_named_seqs(
            records
                .into_iter()
                .map(|r| (r.id, r.seq.into_bytes()))
                .collect(),
        )
    }

    /// The shared constructor: `(id, sequence bytes)` pairs into the
    /// length-sorted arena.
    fn from_named_seqs(records: Vec<(String, Vec<u8>)>) -> Self {
        let mut order: Vec<usize> = (0..records.len()).collect();
        order.sort_by_key(|&i| (records[i].1.len(), i));
        let total: usize = records.iter().map(|r| r.1.len()).sum();
        let mut arena = Vec::with_capacity(total);
        let mut meta = Vec::with_capacity(records.len());
        for &i in &order {
            let (id, seq) = &records[i];
            let offset = arena.len();
            arena.extend_from_slice(seq);
            meta.push(RecordMeta {
                id: id.clone(),
                source_index: i,
                offset,
                len: seq.len(),
            });
        }
        Self { arena, meta }
    }

    /// Loads a multi-record FASTA file into a database.
    ///
    /// # Errors
    /// Fails on unreadable or malformed FASTA ([`BatchError::Fasta`]) and
    /// on a file with zero records ([`BatchError::EmptyDatabase`]) — a
    /// search over nothing is always a caller mistake.
    pub fn load_fasta_file(path: impl AsRef<Path>) -> Result<Self, BatchError> {
        let path = path.as_ref();
        let records = read_fasta_file(path).map_err(|source| BatchError::Fasta {
            path: path.to_path_buf(),
            source,
        })?;
        if records.is_empty() {
            return Err(BatchError::EmptyDatabase {
                path: path.to_path_buf(),
            });
        }
        Ok(Self::from_records(records))
    }

    /// Loads a multi-record protein FASTA file into a database, with the
    /// same emptiness/parse error contract as
    /// [`load_fasta_file`](Self::load_fasta_file).
    pub fn load_protein_fasta_file(path: impl AsRef<Path>) -> Result<Self, BatchError> {
        let path = path.as_ref();
        let records = read_protein_fasta_file(path).map_err(|source| BatchError::Fasta {
            path: path.to_path_buf(),
            source,
        })?;
        if records.is_empty() {
            return Err(BatchError::EmptyDatabase {
                path: path.to_path_buf(),
            });
        }
        Ok(Self::from_protein_records(records))
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    /// Whether the database holds no records.
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }

    /// Total bases across all records.
    pub fn total_bases(&self) -> usize {
        self.arena.len()
    }

    /// The bytes of record `i` (in length-sorted database order).
    pub fn seq(&self, i: usize) -> &[u8] {
        let m = &self.meta[i];
        &self.arena[m.offset..m.offset + m.len]
    }

    /// Metadata of record `i` (in length-sorted database order).
    pub fn meta(&self, i: usize) -> &RecordMeta {
        &self.meta[i]
    }

    /// Iterates `(database index, sequence)` over a slab of records.
    pub fn slab(&self, range: Range<usize>) -> impl DoubleEndedIterator<Item = (usize, &[u8])> {
        range.map(move |i| (i, self.seq(i)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genomedsm_seq::DnaSeq;

    fn rec(id: &str, seq: &str) -> FastaRecord {
        FastaRecord {
            id: id.into(),
            seq: DnaSeq::new(seq).unwrap(),
        }
    }

    #[test]
    fn records_are_length_sorted_with_stable_ties() {
        let db = SeqDatabase::from_records(vec![
            rec("long", "ACGTACGTACGT"),
            rec("tie-b", "ACGT"),
            rec("tie-a", "TTTT"),
            rec("short", "AC"),
        ]);
        let ids: Vec<&str> = (0..db.len()).map(|i| db.meta(i).id.as_str()).collect();
        // Ascending length; the two 4-mers keep their file order.
        assert_eq!(ids, ["short", "tie-b", "tie-a", "long"]);
        assert_eq!(db.seq(0), b"AC");
        assert_eq!(db.seq(3), b"ACGTACGTACGT");
        assert_eq!(db.meta(1).source_index, 1);
        assert_eq!(db.meta(2).source_index, 2);
        assert_eq!(db.total_bases(), 22);
    }

    #[test]
    fn arena_is_contiguous_in_sorted_order() {
        let db = SeqDatabase::from_records(vec![rec("b", "GGG"), rec("a", "AA")]);
        assert_eq!(db.arena, b"AAGGG");
        let collected: Vec<(usize, &[u8])> = db.slab(0..db.len()).collect();
        assert_eq!(collected, vec![(0, &b"AA"[..]), (1, &b"GGG"[..])]);
    }

    #[test]
    fn empty_database_is_fine_in_memory() {
        let db = SeqDatabase::from_records(vec![]);
        assert!(db.is_empty());
        assert_eq!(db.total_bases(), 0);
    }

    #[test]
    fn protein_records_load_with_the_same_ordering_rules() {
        use genomedsm_seq::ProteinSeq;
        let db = SeqDatabase::from_protein_records(vec![
            ProteinRecord {
                id: "long".into(),
                seq: ProteinSeq::new("WQHKRWCEW").unwrap(),
            },
            ProteinRecord {
                id: "short".into(),
                seq: ProteinSeq::new("MK").unwrap(),
            },
        ]);
        assert_eq!(db.meta(0).id, "short");
        assert_eq!(db.seq(1), b"WQHKRWCEW");

        let dir = std::env::temp_dir().join("genomedsm_batch_db_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("prot.fa");
        std::fs::write(&path, ">a\nMKWQ\n>b\nWC\n").unwrap();
        let loaded = SeqDatabase::load_protein_fasta_file(&path).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded.seq(0), b"WC");
        // A protein-only residue fails through the DNA loader but loads
        // here; a gap character is a typed error in both.
        assert!(SeqDatabase::load_fasta_file(&path).is_err());
        std::fs::write(&path, ">a\nMK-WQ\n").unwrap();
        assert!(matches!(
            SeqDatabase::load_protein_fasta_file(&path),
            Err(BatchError::Fasta { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_fasta_file_round_trips_and_rejects_empty() {
        let dir = std::env::temp_dir().join("genomedsm_batch_db_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.fa");
        std::fs::write(&path, ">x\nACGTACGT\n>y\nTT\n").unwrap();
        let db = SeqDatabase::load_fasta_file(&path).unwrap();
        assert_eq!(db.len(), 2);
        assert_eq!(db.meta(0).id, "y");
        let empty = dir.join("empty.fa");
        std::fs::write(&empty, "").unwrap();
        assert!(matches!(
            SeqDatabase::load_fasta_file(&empty),
            Err(BatchError::EmptyDatabase { .. })
        ));
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&empty).ok();
    }
}
