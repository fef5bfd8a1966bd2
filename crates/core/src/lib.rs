//! Alignment kernels for the GenomeDSM reproduction.
//!
//! This crate implements every sequential algorithm the paper builds on:
//!
//! * [`scoring`] — the column scoring scheme (+1 match / −1 mismatch /
//!   −2 space by default, §2).
//! * [`matrix`] — the full O(n²)-space Smith–Waterman and Needleman–Wunsch
//!   similarity arrays with traceback arrows (§2.1–2.3, Figs. 3–4). Used
//!   for small inputs and as the test oracle for everything else.
//! * [`linear`] — the two-row linear-space SW recurrence (§4.1 opening),
//!   the building block of all three parallel strategies.
//! * [`heuristic`] — the Martins-style candidate-alignment tracking
//!   heuristic (§4.1): per-cell metadata, open/close thresholds, the
//!   `2·matches + 2·mismatches + gaps` tie-break, and the alignment queue.
//! * [`nw`] — global alignment with full traceback (§2.3), used by phase 2.
//! * [`hirschberg`] — linear-space global alignment (the paper cites
//!   Hirschberg's method as the small-n′ option in §6).
//! * [`reverse`] — the Section-6 exact space-reduction algorithm:
//!   detect alignment end points in linear space, recover start points by
//!   dynamic programming over the reversed prefixes (Observation 6.1),
//!   prune with the zero-elimination theorem (Theorem 6.2), and measure
//!   the ~30% useful-area bound of Eqs. (2)–(3).
//! * [`alignment`] — shared result types: local regions, global
//!   alignments, and the queue post-processing (sort by size, dedup).
//! * [`affine`] — a production extension beyond the paper: Gotoh
//!   affine-gap local/global alignment (degenerates to the paper's
//!   linear gaps when open == extend), including the scalar
//!   [`sw_score_affine`]/[`sw_score_profile`] oracles the striped affine
//!   kernels are bit-checked against.
//! * [`submat`] — protein substitution matrices (BLOSUM62/BLOSUM50/PAM250
//!   baked in, NCBI-format text loadable) and the canonical 24-letter
//!   amino-acid alphabet.

#![warn(missing_docs)]
// Index-based loops are the clearest way to write DP stencils; silence
// clippy's iterator-adaptor suggestion crate-wide.
#![allow(clippy::needless_range_loop)]

pub mod affine;
pub mod alignment;
pub mod heuristic;
pub mod hirschberg;
pub mod linear;
pub mod matrix;
pub mod nw;
pub mod reverse;
pub mod scoring;
pub mod submat;

pub use affine::{sw_score_affine, sw_score_profile, AffineScoring};
pub use alignment::{finalize_queue, GlobalAlignment, LocalRegion};
pub use heuristic::{heuristic_align, HCell, HeuristicParams, RowKernel};
pub use linear::{sw_score_linear, LinearSwResult};
pub use scoring::Scoring;
pub use submat::{aa_index, MatrixError, MatrixScoring, SubstMatrix, AA_ALPHABET, AA_N};
