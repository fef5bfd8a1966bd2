//! Quickstart: the full GenomeDSM pipeline on a small synthetic workload.
//!
//! 1. Generate two DNA sequences with planted homologous regions.
//! 2. Phase 1: find similar regions with the blocked heuristic strategy
//!    on a 4-node simulated DSM cluster (§4.3).
//! 3. Phase 2: globally align each region with the scattered mapping
//!    (§4.4).
//! 4. Print the Fig. 16-style alignments, an ASCII dot plot (Fig. 14),
//!    and the Fig. 10-style execution-time breakdown.
//!
//! Run with: `cargo run --release --example quickstart`

use genomedsm::prelude::*;
use genomedsm_core::nw::render_region_alignment;
use genomedsm_dotplot::{ascii_plot, PlotSpec};

fn main() {
    let len = 4_000;
    let nprocs = 4;
    println!("== GenomeDSM quickstart: {len} bp x {len} bp, {nprocs} simulated nodes ==\n");

    let (s, t, truth) = planted_pair(len, len, &HomologyPlan::paper_density(len * 4), 2024);
    println!(
        "generated sequences with {} planted similar regions (~300 bp each)\n",
        truth.len()
    );

    // Phase 1: blocked heuristic strategy (bands x blocks = 16 x 16).
    let scoring = Scoring::paper();
    let params = HeuristicParams::default_for_dna();
    let config = BlockedConfig::new(nprocs, 16, 16);
    let phase1 = heuristic_block_align(&s, &t, &scoring, &params, &config);
    println!(
        "phase 1 (heuristic_block): {} candidate regions, simulated cluster time {:.2?} (host {:.2?})",
        phase1.regions.len(),
        phase1.wall,
        phase1.host_wall
    );

    // Fig. 10-style execution-time breakdown.
    let agg = genomedsm::dsm::NodeStats::aggregate(&phase1.per_node);
    let b = phase1.breakdown();
    println!(
        "  breakdown: computation {:.1}%  communication {:.1}%  lock+cv {:.1}%  barrier {:.1}%",
        b.computation * 100.0,
        b.communication * 100.0,
        b.lock_cv * 100.0,
        b.barrier * 100.0
    );
    println!(
        "  protocol: {} messages, {} page fetches, {} diffs\n",
        agg.msgs_sent, agg.page_fetches, agg.diffs_sent
    );

    // Phase 2: scattered-mapping global alignment.
    let phase2 = phase2_scattered(&s, &t, &phase1.regions, &scoring, nprocs).unwrap();
    println!(
        "phase 2 (scattered mapping): {} global alignments, simulated cluster time {:.2?}\n",
        phase2.alignments.len(),
        phase2.wall
    );

    // Show the two best alignments in the paper's Fig. 16 format.
    for ra in phase2.alignments.iter().take(2) {
        println!("{}", render_region_alignment(ra));
    }

    // Fig. 14: the dot plot of similar regions.
    println!("dot plot of the similar regions (x = s, y = t):");
    let spec = PlotSpec::new(s.len(), t.len());
    print!("{}", ascii_plot(&phase1.regions, &spec, 64, 24));
}
