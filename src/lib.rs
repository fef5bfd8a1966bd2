//! # GenomeDSM-RS
//!
//! A reproduction of *"Parallel Strategies for the Local Biological
//! Sequence Alignment in a Cluster of Workstations"* (Boukerche, de Melo,
//! Ayala-Rincón, Walter): three parallel strategies for running the
//! Smith–Waterman local-alignment algorithm over a JIAJIA-like software
//! Distributed Shared Memory system, simulated in-process on threads.
//!
//! This facade crate re-exports the public API of every workspace member:
//!
//! * [`core`] — alignment kernels (SW, NW, Hirschberg, the Martins
//!   candidate heuristic, the Section-6 reverse space reduction).
//! * [`dsm`] — the page-based software DSM substrate (scope consistency,
//!   home-based write-invalidate multiple-writer protocol, locks,
//!   condition variables, barriers) and its deterministic fault plans:
//!   seeded per-link drop/corrupt/duplicate/reorder rates and scheduled
//!   fail-stop node crashes and rejoins.
//! * [`kernels`] — vectorized Smith–Waterman score kernels: Farrar
//!   striped layout, SSE2/AVX2 with runtime ISA dispatch, scalar oracle.
//! * [`seq`] — DNA sequence generation with planted homologous regions,
//!   mutation models, and FASTA I/O.
//! * [`blast`] — a BlastN-like seed-and-extend baseline.
//! * [`batch`] — the multi-query batch alignment engine: database search
//!   with inter-sequence lane packing (a different query per SIMD lane),
//!   a work-stealing scheduler with bounded in-flight batches, and
//!   deterministic per-query top-k merging. Scores DNA (linear gaps) or
//!   protein (affine Gotoh under a substitution matrix), optionally
//!   through the composition prefilter.
//! * [`index`] — the ALAE-style protein prefilter: per-record
//!   composition profiles and an exact score upper bound that prunes DP
//!   launches without ever changing the top-k.
//! * [`strategies`] — the paper's three parallel strategies plus the
//!   phase-2 scattered-mapping global aligner, on one wavefront driver.
//! * [`serve`] — the always-on alignment service: the batch engine
//!   behind a checksummed line protocol on a Unix socket, with bounded
//!   admission control, per-client weighted fair scheduling, an
//!   epoch-keyed result cache, and hot-reloadable databases.
//! * [`dotplot`] — dot-plot visualization of similar regions.
//!
//! ## Quickstart
//!
//! ```
//! use genomedsm::prelude::*;
//!
//! // Two tiny sequences with a planted similar region.
//! let (s, t, _truth) = planted_pair(600, 600, &HomologyPlan::paper_density(6_000), 42);
//!
//! // Phase 1: find similar regions with the blocked heuristic strategy
//! // on a 4-node simulated DSM cluster.
//! let config = BlockedConfig::new(4, 4, 4);
//! let outcome = heuristic_block_align(
//!     &s, &t, &Scoring::paper(), &HeuristicParams::default_for_dna(), &config);
//! // Phase 2: retrieve actual alignments for the regions found.
//! let phase2 = phase2_scattered(&s, &t, &outcome.regions, &Scoring::paper(), 4).unwrap();
//! assert_eq!(phase2.alignments.len(), outcome.regions.len());
//! ```

#![warn(missing_docs)]

pub mod cluster;
pub mod reverse_parallel;

pub use genomedsm_batch as batch;
pub use genomedsm_blast as blast;
pub use genomedsm_core as core;
pub use genomedsm_dotplot as dotplot;
pub use genomedsm_dsm as dsm;
pub use genomedsm_index as index;
pub use genomedsm_kernels as kernels;
pub use genomedsm_seq as seq;
pub use genomedsm_serve as serve;
pub use genomedsm_strategies as strategies;

/// Everything needed for the common pipeline in one import.
pub mod prelude {
    pub use genomedsm_batch::{BatchConfig, BatchEngine, SeqDatabase};
    pub use genomedsm_core::{
        finalize_queue, heuristic_align, GlobalAlignment, HeuristicParams, LocalRegion, Scoring,
    };
    pub use genomedsm_dsm::{FaultPlan, LinkFaults};
    pub use genomedsm_kernels::{kernel_for, KernelChoice, ScoreKernel};
    pub use genomedsm_seq::{planted_pair, random_dna, DnaSeq, HomologyPlan};
    pub use genomedsm_strategies::{
        heuristic_align_dsm, heuristic_block_align, phase2_scattered, preprocess_align,
        BlockedConfig, HeuristicDsmConfig, PreprocessConfig,
    };
}
