//! Multi-query batch alignment: database search as a first-class workload.
//!
//! The per-pair kernel path (`genomedsm-kernels`) is fast *per launch*;
//! a database search of thousands of small queries dies by a thousand
//! launches — profile builds, state allocation, and one mostly-idle SIMD
//! register file per pair. This crate turns the workload sideways, the way
//! DSA and SWIPE do (see PAPERS.md): pack a **different query into every
//! lane** — an 8-bit lane where the scheme fits one, 32 per AVX2 vector,
//! with a record re-scored at i16 only where a query's 8-bit score
//! saturates — score the whole pack against each database record, and
//! keep per-query top-k hits. A lane group too small to fill the vector —
//! the whole of a one-query search — is striped over all lanes instead
//! (`genomedsm_kernels::GroupProfile` decides, per group).
//!
//! Four layers, bottom up:
//!
//! * [`db`] — [`SeqDatabase`]: multi-record FASTA loading into one
//!   length-sorted arena with per-record metadata.
//! * [`planner`] — [`plan_lane_groups`]: greedy length-binning of queries
//!   into lane groups sized to the active ISA and lane width (provably minimal
//!   padding for chunked groups).
//! * [`scheduler`] — [`run_jobs`]: FIFO work stealing with windowed
//!   backpressure and a strictly in-order merge, so results are
//!   deterministic for any worker count.
//! * [`engine`] — [`BatchEngine::search`] (top-k database search over
//!   *(lane group × target slab)* jobs) and [`score_pairs`] (the batch
//!   drop-in for loops of single-pair kernel calls).
//!
//! Everything is bit-exact against the scalar single-pair oracle
//! (`sw_score_linear`): lane packing, scheduling, and top-k selection are
//! pure reorganizations of the same arithmetic.

#![warn(missing_docs)]

pub mod db;
pub mod engine;
pub mod planner;
pub mod prefilter;
pub mod run;
pub mod scheduler;
pub mod topk;

pub use db::{RecordMeta, SeqDatabase};
pub use engine::{
    oracle_search, oracle_search_mode, score_pairs, BatchConfig, BatchEngine, BatchOutcome,
    BatchStats, ScoreMode,
};
pub use planner::{plan_lane_groups, plan_lane_groups_fitting, LanePlan};
pub use prefilter::{build_index, prefiltered_search};
pub use run::{execute, load_inputs, load_protein_inputs, verify_against_oracle, SearchInputs};
pub use scheduler::{run_jobs, SchedulerConfig};
pub use topk::{Hit, TopK};

use genomedsm_seq::fasta::FastaError;
use std::fmt;
use std::io;
use std::path::PathBuf;

/// Typed error of the batch subsystem (loading and configuration; the
/// search itself is infallible by construction).
#[derive(Debug)]
pub enum BatchError {
    /// An I/O operation failed; `context` names the file and operation.
    Io {
        /// What was being done.
        context: String,
        /// The underlying error.
        source: io::Error,
    },
    /// A FASTA file failed to parse.
    Fasta {
        /// The offending file.
        path: PathBuf,
        /// The parse error.
        source: FastaError,
    },
    /// A database file contained no records.
    EmptyDatabase {
        /// The offending file.
        path: PathBuf,
    },
    /// A query file contained no records.
    EmptyQueries {
        /// The offending file.
        path: PathBuf,
    },
    /// An invalid configuration value.
    BadConfig(String),
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchError::Io { context, source } => write!(f, "{context}: {source}"),
            BatchError::Fasta { path, source } => {
                write!(f, "{}: {source}", path.display())
            }
            BatchError::EmptyDatabase { path } => {
                write!(f, "{}: database has no records", path.display())
            }
            BatchError::EmptyQueries { path } => {
                write!(f, "{}: query file has no records", path.display())
            }
            BatchError::BadConfig(what) => write!(f, "bad config: {what}"),
        }
    }
}

impl std::error::Error for BatchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BatchError::Io { source, .. } => Some(source),
            BatchError::Fasta { source, .. } => Some(source),
            BatchError::EmptyDatabase { .. }
            | BatchError::EmptyQueries { .. }
            | BatchError::BadConfig(_) => None,
        }
    }
}

impl BatchError {
    /// Wraps an `io::Error` with a context string.
    pub fn io(context: impl Into<String>, source: io::Error) -> Self {
        BatchError::Io {
            context: context.into(),
            source,
        }
    }
}

/// Loads a multi-record FASTA query file (rejects an empty file — a
/// search with zero queries is always a caller mistake).
pub fn load_query_file(path: impl AsRef<std::path::Path>) -> Result<Vec<Vec<u8>>, BatchError> {
    let path = path.as_ref();
    let records =
        genomedsm_seq::fasta::read_fasta_file(path).map_err(|source| BatchError::Fasta {
            path: path.to_path_buf(),
            source,
        })?;
    if records.is_empty() {
        return Err(BatchError::EmptyQueries {
            path: path.to_path_buf(),
        });
    }
    Ok(records.into_iter().map(|r| r.seq.into_bytes()).collect())
}

/// Loads a multi-record protein FASTA query file (same emptiness contract
/// as [`load_query_file`]).
pub fn load_protein_query_file(
    path: impl AsRef<std::path::Path>,
) -> Result<Vec<Vec<u8>>, BatchError> {
    let path = path.as_ref();
    let records = genomedsm_seq::fasta::read_protein_fasta_file(path).map_err(|source| {
        BatchError::Fasta {
            path: path.to_path_buf(),
            source,
        }
    })?;
    if records.is_empty() {
        return Err(BatchError::EmptyQueries {
            path: path.to_path_buf(),
        });
    }
    Ok(records.into_iter().map(|r| r.seq.into_bytes()).collect())
}
