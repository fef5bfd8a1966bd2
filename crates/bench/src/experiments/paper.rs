//! The paper's own evaluation: Tables 1-4, Figs. 9-20, the Section-6
//! worked example, and the §7 what-ifs — all in virtual time.

use super::measure::{blocked, heuristic, percent_over, preprocess_1k, SC};
use super::Points;
use crate::report::{Report, Table};
use crate::{secs, speedup, workloads, HarnessArgs};
use genomedsm_core::nw::render_region_alignment;
use genomedsm_core::reverse::{
    recover_start, reverse_align_all, reverse_align_best, theoretical_necessary_fraction,
};
use genomedsm_core::LocalRegion;
use genomedsm_dotplot::{ascii_plot, svg_plot, PlotSpec};
use genomedsm_dsm::{breakdown_many, DsmConfig, DsmSystem, NetworkModel};
use genomedsm_strategies::{
    phase2_scattered, preprocess_align, BandScheme, BlockedConfig, ChunkPlan, HeuristicDsmConfig,
    IoMode, PreprocessConfig,
};
use std::time::Duration;

// ---------------------------------------------------------------------
// Table 1 / Fig. 9 / Fig. 10 — heuristic strategy without blocking
// ---------------------------------------------------------------------

/// Table 1 and Figs. 9-10. The gate keeps the smallest size and the
/// 150 kBP class at the largest processor count.
pub fn table1(args: &HarnessArgs, points: Points, report: &mut Report) {
    let maxp = args.max_procs();
    let (paper_sizes, procs): (&[usize], Vec<usize>) = match points {
        Points::Sweep => (
            &[15_000, 50_000, 80_000, 150_000, 400_000],
            args.parallel_procs(),
        ),
        Points::Gate => (&[15_000, 150_000], vec![maxp]),
    };
    let mut header: Vec<String> = vec!["size (n x n)".into(), "serial".into()];
    header.extend(procs.iter().map(|p| format!("{p} proc")));
    let mut t1 = Table::new(
        "Table 1: total execution times (s), heuristic strategy (no blocking)",
        &header,
    );
    header[1] = "serial (=1)".into();
    let mut f9 = Table::new("Fig. 9: absolute speed-ups, heuristic strategy", &header);
    let mut f10 = Table::new(
        "Fig. 10: execution-time breakdown at max procs (%)",
        &["size", "computation", "communication", "lock+cv", "barrier"],
    );

    let mut at_maxp: Vec<(usize, f64)> = Vec::new(); // (paper size, speed-up)
    for &paper_bp in paper_sizes {
        let len = args.size(paper_bp);
        let (s, t, _) = workloads::pair(len, 1);
        let serial = heuristic(&s, &t, &HeuristicDsmConfig::new(1));
        let mut row = vec![format!("{len}x{len}"), secs(serial.wall)];
        let mut srow = vec![format!("{len}x{len}"), "1.00".into()];
        let mut last = None;
        for &p in &procs {
            let out = heuristic(&s, &t, &HeuristicDsmConfig::new(p));
            assert_eq!(
                out.regions.len(),
                serial.regions.len(),
                "parallel must match serial"
            );
            let sp = speedup(serial.wall, out.wall);
            row.push(secs(out.wall));
            srow.push(format!("{sp:.2}"));
            if p == maxp {
                at_maxp.push((paper_bp, sp));
            }
            last = Some(out);
        }
        t1.row(&row);
        f9.row(&srow);
        if let Some(out) = last {
            let b = breakdown_many(&out.per_node);
            f10.row(&[
                format!("{len}"),
                format!("{:.1}", b.computation * 100.0),
                format!("{:.1}", b.communication * 100.0),
                format!("{:.1}", b.lock_cv * 100.0),
                format!("{:.1}", b.barrier * 100.0),
            ]);
        }
        eprintln!("[table1] {len} done");
    }
    report.table("table1.csv", t1);
    report.table("fig9.csv", f9);
    report.table("fig10.csv", f10);
    let at = |paper_bp| at_maxp.iter().find(|r| r.0 == paper_bp).map(|r| r.1);
    if let (Some(lo), Some(hi)) = (at(15_000), at(150_000)) {
        report.claim(
            "speed-up grows with sequence size (Fig. 9)",
            hi > lo && hi > 1.5,
            format!(
                "{lo:.2} @ {} bp -> {hi:.2} @ {} bp",
                args.size(15_000),
                args.size(150_000)
            ),
        );
    }
}

// ---------------------------------------------------------------------
// Table 2 — GenomeDSM vs BlastN
// ---------------------------------------------------------------------

/// Table 2.
pub fn table2(args: &HarnessArgs, _: Points, report: &mut Report) {
    let len = args.size(50_000);
    let (s, t, _) = workloads::pair(len, 2);
    let dsm = blocked(&s, &t, &BlockedConfig::new(args.max_procs(), 40, 40));
    let blast = genomedsm_blast::BlastN::default()
        .search(&s, &t)
        .expect("clean DNA input");

    let mut best: Vec<&LocalRegion> = dsm.regions.iter().collect();
    best.sort_by_key(|r| -r.score);
    let mut tab = Table::new(
        "Table 2: GenomeDSM vs BlastN best-alignment coordinates",
        &["alignment", "", "GenomeDSM", "BlastN"],
    );
    for (rank, region) in best.iter().take(3).enumerate() {
        let near = blast.iter().find(|h| h.overlaps(region));
        let ((sb, tb), (se, te)) = region.paper_coords();
        let (bb, be) = match near {
            Some(h) => {
                let ((a, b), (c, d)) = h.paper_coords();
                (format!("({a},{b})"), format!("({c},{d})"))
            }
            None => ("-".into(), "-".into()),
        };
        tab.row(&[
            format!("Alignment {}", rank + 1),
            "begin".into(),
            format!("({sb},{tb})"),
            bb,
        ]);
        tab.row(&[String::new(), "end".into(), format!("({se},{te})"), be]);
    }
    report.table("table2.csv", tab);
    report.note(format!(
        "GenomeDSM regions: {}; BlastN HSPs: {} (close but not identical, as in the paper)",
        dsm.regions.len(),
        blast.len()
    ));
}

// ---------------------------------------------------------------------
// Table 3 — blocking-multiplier sweep
// ---------------------------------------------------------------------

/// Table 3.
pub fn table3(args: &HarnessArgs, _: Points, report: &mut Report) {
    let len = args.size(50_000);
    let (s, t, _) = workloads::pair(len, 3);
    let nprocs = args.max_procs();
    let mut tab = Table::new(
        &format!("Table 3: {nprocs}-proc times for varying blocking multipliers ({len} bp)"),
        &["blocking factor", "time (s)", "gain vs 1x1 (%)"],
    );
    let mut base: Option<Duration> = None;
    for mult in 1..=5usize {
        let out = blocked(&s, &t, &BlockedConfig::from_multiplier(nprocs, mult, mult));
        let base = *base.get_or_insert(out.wall);
        tab.row(&[
            format!("{mult} x {mult}"),
            secs(out.wall),
            format!("{:.0}", percent_over(base, out.wall)),
        ]);
        eprintln!("[table3] {mult}x{mult} done");
    }
    report.table("table3.csv", tab);
}

// ---------------------------------------------------------------------
// Table 4 / Fig. 12 / Fig. 13 — blocked strategy
// ---------------------------------------------------------------------

/// Table 4 and Figs. 12-13. The gate is Fig. 13's 50 kBP point alone:
/// blocked 40 x 25 against non-blocked at the largest processor count.
pub fn table4(args: &HarnessArgs, points: Points, report: &mut Report) {
    let maxp = args.max_procs();
    if points == Points::Gate {
        let (s, t, _) = workloads::pair(args.size(50_000), 3);
        let with = blocked(&s, &t, &BlockedConfig::new(maxp, 40, 25));
        let without = heuristic(&s, &t, &HeuristicDsmConfig::new(maxp));
        let factor = speedup(without.wall, with.wall);
        report.claim(
            "blocking beats non-blocking by a large factor (Fig. 13)",
            factor > 2.0,
            format!("{factor:.1}x (paper: ~3.8x)"),
        );
        report.claim(
            "blocked and non-blocked find identical regions",
            with.regions == without.regions,
            format!("{} regions", with.regions.len()),
        );
        return;
    }
    // (paper size, bands, blocks) per Table 4.
    let setups = [(8_000usize, 40, 40), (15_000, 40, 40), (50_000, 40, 25)];
    let mut header: Vec<String> = vec!["size".into(), "bands".into(), "serial".into()];
    for p in args.parallel_procs() {
        header.push(format!("{p}p time"));
        header.push(format!("{p}p spdup"));
    }
    let mut t4 = Table::new(
        "Table 4 / Fig. 12: blocked strategy times (s) and speed-ups",
        &header,
    );
    let mut f13 = Table::new(
        "Fig. 13: blocked vs non-blocked at max procs (s)",
        &["size", "serial", "maxp blocked", "maxp non-blocked"],
    );
    for (paper_bp, bands, blocks) in setups {
        let len = args.size(paper_bp);
        let (s, t, _) = workloads::pair(len, 4);
        let serial = blocked(&s, &t, &BlockedConfig::new(1, bands, blocks)).wall;
        let mut row = vec![format!("{len}"), format!("{bands}x{blocks}"), secs(serial)];
        let mut blocked_maxp = Duration::ZERO;
        for p in args.parallel_procs() {
            let out = blocked(&s, &t, &BlockedConfig::new(p, bands, blocks));
            row.push(secs(out.wall));
            row.push(format!("{:.2}", speedup(serial, out.wall)));
            if p == maxp {
                blocked_maxp = out.wall;
            }
        }
        t4.row(&row);
        if paper_bp >= 15_000 {
            let noblock = heuristic(&s, &t, &HeuristicDsmConfig::new(maxp));
            f13.row(&[
                format!("{len}"),
                secs(serial),
                secs(blocked_maxp),
                secs(noblock.wall),
            ]);
        }
        eprintln!("[table4] {len} done");
    }
    report.table("table4.csv", t4);
    report.table("fig13.csv", f13);
}

// ---------------------------------------------------------------------
// Fig. 14 — dot plot
// ---------------------------------------------------------------------

/// Fig. 14.
pub fn fig14(args: &HarnessArgs, _: Points, report: &mut Report) {
    let len = args.size(50_000);
    let (s, t, _) = workloads::pair(len, 2);
    let out = blocked(&s, &t, &BlockedConfig::new(args.max_procs(), 40, 40));
    let spec = PlotSpec::new(s.len(), t.len());
    let path = args.artifact("fig14.svg");
    std::fs::write(&path, svg_plot(&out.regions, &spec, 800, 800)).expect("write svg");
    // Zoom into the densest quadrant, like the paper's zoom feature.
    let zoom_spec = PlotSpec::new(s.len(), t.len()).zoom(0..len / 2, 0..len / 2);
    let zpath = args.artifact("fig14_zoom.svg");
    std::fs::write(&zpath, svg_plot(&out.regions, &zoom_spec, 800, 800)).expect("write svg");
    report.note(format!(
        "== Fig. 14: dot plot of the {len} bp comparison ({} similar regions) ==\n{}wrote {} and {}",
        out.regions.len(),
        ascii_plot(&out.regions, &spec, 72, 28),
        path.display(),
        zpath.display()
    ));
}

// ---------------------------------------------------------------------
// Fig. 15 — phase-2 speed-ups
// ---------------------------------------------------------------------

/// Fig. 15. The gate is one 400-pair queue at the largest processor
/// count.
pub fn fig15(args: &HarnessArgs, points: Points, report: &mut Report) {
    let maxp = args.max_procs();
    let (counts, procs): (&[usize], Vec<usize>) = match points {
        Points::Sweep => (&[100, 1000, 2000, 3000, 4000, 5000], args.parallel_procs()),
        Points::Gate => (&[400], vec![maxp]),
    };
    let mut header: Vec<String> = vec!["pairs".into(), "serial (s)".into()];
    header.extend(procs.iter().map(|p| format!("{p}p spdup")));
    let mut tab = Table::new(
        "Fig. 15: phase-2 speed-ups (global alignment of ~253 bp subsequence pairs)",
        &header,
    );
    for &count in counts {
        let (s, t, regions) = workloads::scattered_regions(count, 253, 5);
        let serial = phase2_scattered(&s, &t, &regions, &SC, 1).unwrap();
        let mut row = vec![format!("{count}"), secs(serial.wall)];
        for &p in &procs {
            let out = phase2_scattered(&s, &t, &regions, &SC, p).unwrap();
            assert_eq!(out.alignments, serial.alignments);
            let sp = speedup(serial.wall, out.wall);
            row.push(format!("{sp:.2}"));
            if points == Points::Gate {
                report.claim(
                    "phase-2 scattered mapping is near-linear (Fig. 15)",
                    sp > 0.75 * p as f64,
                    format!("{sp:.2} on {p} procs"),
                );
                report.claim(
                    "phase 2 uses no locks or condition variables (§4.4)",
                    out.per_node.iter().all(|n| n.lock_cv == Duration::ZERO),
                    "lock_cv time is zero on every node".into(),
                );
            }
        }
        tab.row(&row);
        eprintln!("[fig15] {count} pairs done");
    }
    report.table("fig15.csv", tab);
}

// ---------------------------------------------------------------------
// Fig. 16 — sample phase-2 alignments
// ---------------------------------------------------------------------

/// Fig. 16.
pub fn fig16(args: &HarnessArgs, _: Points, report: &mut Report) {
    let len = args.size(50_000).min(8_000);
    let (s, t, _) = workloads::pair(len, 2);
    let phase1 = blocked(&s, &t, &BlockedConfig::new(4, 16, 16));
    let phase2 = phase2_scattered(&s, &t, &phase1.regions, &SC, 4).unwrap();
    report.note("== Fig. 16: global alignments of two subsequences generated in phase 1 ==");
    for ra in phase2.alignments.iter().take(2) {
        report.note(render_region_alignment(ra));
    }
}

// ---------------------------------------------------------------------
// Fig. 18 / Fig. 19 — pre-process strategy
// ---------------------------------------------------------------------

fn preprocess_configs(args: &HarnessArgs, nprocs: usize) -> Vec<(String, PreprocessConfig)> {
    let b1k = args.size(1024); // "1K" blocks, scaled with the sizes
    let b4k = args.size(4096);
    let mk = |band: BandScheme, chunk: usize| {
        let mut c = PreprocessConfig::new(nprocs);
        c.band = band;
        c.chunk = ChunkPlan::Fixed(chunk);
        c.result_interleave = chunk;
        c.save_interleave = chunk;
        c
    };
    vec![
        (
            format!("Bal. {b1k} blks"),
            mk(BandScheme::Balanced(b1k), b1k),
        ),
        ("Equal blks".into(), mk(BandScheme::Equal, b1k)),
        (format!("{b1k} blks"), mk(BandScheme::Fixed(b1k), b1k)),
        (
            format!("Bal. {b4k} blks"),
            mk(BandScheme::Balanced(b4k), b4k),
        ),
        (format!("{b4k} blks"), mk(BandScheme::Fixed(b4k), b4k)),
    ]
}

/// Figs. 18-19.
pub fn fig18(args: &HarnessArgs, _: Points, report: &mut Report) {
    let paper_sizes = [16_000usize, 40_000, 80_000];
    let mut f19 = Table::new(
        "Fig. 19: effect of blocking options on pre-process core times (s), no I/O",
        &["procs", "size", "config", "core (s)"],
    );
    let mut header: Vec<String> = vec!["size".into()];
    for &p in &args.procs {
        header.push(format!("{p}p avg-spdup"));
        header.push(format!("{p}p best-spdup"));
    }
    let mut f18 = Table::new(
        "Fig. 18: pre-process speed-ups on average and best core times",
        &header,
    );
    for &paper_bp in &paper_sizes {
        let len = args.size(paper_bp);
        let (s, t, _) = workloads::pair(len, 6);
        // (procs, avg core, best core) over the blocking options.
        let mut per_proc: Vec<(usize, Duration, Duration)> = Vec::new();
        for &p in &args.procs {
            let mut cores = Vec::new();
            for (name, config) in preprocess_configs(args, p) {
                let out = preprocess_align(&s, &t, &SC, &config).unwrap();
                f19.row(&[
                    format!("{p}"),
                    format!("{len}"),
                    name,
                    secs(out.core_time()),
                ]);
                cores.push(out.core_time());
            }
            let avg = cores.iter().sum::<Duration>() / cores.len() as u32;
            let best = *cores.iter().min().expect("non-empty");
            per_proc.push((p, avg, best));
            eprintln!("[fig18] size {len} procs {p} done");
        }
        let serial = *per_proc
            .iter()
            .find(|(p, _, _)| *p == 1)
            .unwrap_or(&per_proc[0]);
        let mut row = vec![format!("{len}")];
        for &(_, avg, best) in &per_proc {
            row.push(format!("{:.2}", speedup(serial.1, avg)));
            row.push(format!("{:.2}", speedup(serial.2, best)));
        }
        f18.row(&row);
    }
    report.table("fig18.csv", f18);
    report.table("fig19.csv", f19);
}

// ---------------------------------------------------------------------
// Fig. 20 — I/O modes
// ---------------------------------------------------------------------

/// Fig. 20. The gate is the 40 kBP pair at the largest processor count,
/// without I/O (checked against the serial oracle) and with immediate
/// column saving.
pub fn fig20(args: &HarnessArgs, points: Points, report: &mut Report) {
    let dir = args.artifact("fig20_columns");
    std::fs::create_dir_all(&dir).expect("column dir");
    let run = |s: &[u8], t: &[u8], mut config: PreprocessConfig, mode: IoMode| {
        config.io_mode = mode;
        if mode != IoMode::None {
            config.save_dir = Some(dir.clone());
        }
        preprocess_align(s, t, &SC, &config).unwrap()
    };
    if points == Points::Gate {
        let (s, t, _) = workloads::pair(args.size(40_000), 7);
        let config = preprocess_1k(args, args.max_procs());
        let out = run(&s, &t, config.clone(), IoMode::None);
        let oracle = genomedsm_core::linear::sw_score_linear(&s, &t, &SC, config.threshold);
        report.claim(
            "pre-process strategy is exact (§5)",
            out.total_hits() == oracle.hits as i64 && out.best_score == oracle.best_score,
            format!("{} hits, best {}", out.total_hits(), out.best_score),
        );
        let with_io = run(&s, &t, config, IoMode::Immediate);
        let overhead = percent_over(with_io.core_time(), out.core_time());
        report.claim(
            "column saving costs little (Fig. 20)",
            overhead < 10.0,
            format!("{overhead:.1}% overhead"),
        );
    } else {
        let b1k = args.size(1024);
        let mut tab = Table::new(
            "Fig. 20: effect of I/O options on pre-process core times (s), 1K-class blocks",
            &["procs", "size", "no IO", "immediate IO", "deferred IO"],
        );
        for &p in &args.procs {
            for paper_bp in [16_000usize, 40_000, 80_000] {
                let len = args.size(paper_bp);
                let (s, t, _) = workloads::pair(len, 7);
                let mut config = preprocess_1k(args, p);
                config.result_interleave = b1k;
                config.save_interleave = b1k;
                let mut cells = vec![format!("{p}"), format!("{len}")];
                for mode in [IoMode::None, IoMode::Immediate, IoMode::Deferred] {
                    cells.push(secs(run(&s, &t, config.clone(), mode).core_time()));
                }
                tab.row(&cells);
            }
            eprintln!("[fig20] procs {p} done");
        }
        report.table("fig20.csv", tab);
    }
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// Section 6 — worked example and useful-area measurement
// ---------------------------------------------------------------------

/// The Tables 5-7 worked example; its gate is the example itself.
pub fn section6(_: &HarnessArgs, _: Points, report: &mut Report) {
    let s = b"TCTCGACGGATTAGTATATATATA";
    let t = b"ATATGATCGGAATAGCTCT";
    let full = genomedsm_core::matrix::sw_matrix(s, t, &SC);
    let (ei, ej, best) = full.maximum();
    let start = recover_start(s, t, &SC, ei, ej, best);
    report.claim(
        "Section-6 worked example (score 6 at (14,15), start recovery)",
        best == 6 && (ei, ej) == (14, 15) && start.is_some(),
        format!("score {best} at ({ei},{ej})"),
    );
    let mut text = format!(
        "== Section 6 (Tables 5-7): worked example ==\ns = {}\nt = {}\n\
         Table 5: best score {best} detected at positions ({ei}, {ej}) — paper: score 6 at (14, 15)",
        String::from_utf8_lossy(s),
        String::from_utf8_lossy(t)
    );
    if let Some(((i0, j0), stats)) = start {
        text += &format!(
            "\nTable 6/7: reverse DP recovers the start at ({}, {}) evaluating {} cells \
             (full reverse window {} cells — zero elimination skipped {:.0}%)",
            i0 + 1,
            j0 + 1,
            stats.evaluated_cells,
            ei * ej,
            (1.0 - stats.evaluated_cells as f64 / (ei * ej) as f64) * 100.0
        );
    }
    for rec in reverse_align_all(s, t, &SC, best) {
        text += &format!(
            "\n\nrecovered alignment ({}):\n{}",
            rec.region,
            rec.alignment.pretty(60)
        );
    }
    report.note(text);
}

/// Eqs. 2-3 over planted regions of growing length; the gate keeps the
/// 1000 bp region.
pub fn section6_area(_: &HarnessArgs, points: Points, report: &mut Report) {
    let region_lens: &[usize] = match points {
        Points::Sweep => &[100, 300, 1000, 3000],
        Points::Gate => &[1000],
    };
    let mut tab = Table::new(
        "Section 6 (Eqs. 2-3): necessary area of the n' x n' reverse window",
        &["n'", "evaluated cells", "measured %", "theory %"],
    );
    for &region_len in region_lens {
        let plan = genomedsm_seq::HomologyPlan {
            region_count: 1,
            region_len_mean: region_len,
            region_len_jitter: 0,
            profile: genomedsm_seq::MutationProfile::similar(),
        };
        let (s, t, _) =
            genomedsm_seq::planted_pair(region_len * 3, region_len * 3, &plan, region_len as u64);
        let Some(rec) = reverse_align_best(&s, &t, &SC) else {
            continue;
        };
        let n_prime = rec.region.s_len().max(rec.region.t_len());
        let frac = rec.stats.evaluated_fraction();
        tab.row(&[
            format!("{n_prime}"),
            format!("{}", rec.stats.evaluated_cells),
            format!("{:.1}", frac * 100.0),
            format!("{:.1}", theoretical_necessary_fraction(n_prime) * 100.0),
        ]);
        if region_len == 1000 {
            report.claim(
                "reverse-window useful area ~ 1/3 (Eqs. 2-3)",
                (0.2..0.5).contains(&frac),
                format!("{:.1}% (theory 33.4%)", frac * 100.0),
            );
        }
    }
    report.table("section6_area.csv", tab);
    report.note("(paper: ~30% of the window is necessary in the worst case)");
}

// ---------------------------------------------------------------------
// Heterogeneous cluster (the paper's §7 future work)
// ---------------------------------------------------------------------

/// The §7 heterogeneous-cluster what-if.
pub fn hetero(args: &HarnessArgs, _: Points, report: &mut Report) {
    let len = args.size(50_000);
    let (s, t, _) = workloads::pair(len, 8);
    let nprocs = args.max_procs();
    let slow = |from: usize, speed: f64| -> Vec<f64> {
        (0..nprocs)
            .map(|i| if i >= from { speed } else { 1.0 })
            .collect()
    };
    let profiles = [
        ("homogeneous", vec![1.0; nprocs]),
        ("half slow (0.5x)", slow(nprocs / 2, 0.5)),
        ("one straggler (0.25x)", slow(nprocs - 1, 0.25)),
    ];
    let mut tab = Table::new(
        &format!("Heterogeneous cluster (§7): blocked strategy, {nprocs} nodes, {len} bp"),
        &["profile", "time (s)", "vs homogeneous"],
    );
    let mut base: Option<Duration> = None;
    for (name, speeds) in profiles {
        let mut config = BlockedConfig::new(nprocs, 40, 25);
        config.dsm = config.dsm.speeds(speeds);
        let out = blocked(&s, &t, &config);
        let base = *base.get_or_insert(out.wall);
        tab.row(&[
            name.to_string(),
            secs(out.wall),
            format!("{:.2}x", speedup(out.wall, base)),
        ]);
        eprintln!("[hetero] {name} done");
    }
    report.table("hetero.csv", tab);
    report.note(
        "(cyclic band assignment gives no rebalancing: the wavefront throttles to the\n \
         slowest node, the §7 motivation for heterogeneity-aware scheduling)",
    );
}

// ---------------------------------------------------------------------
// Ablations: ramped grids and network models
// ---------------------------------------------------------------------

/// Design-choice ablations.
pub fn ablation(args: &HarnessArgs, _: Points, report: &mut Report) {
    let len = args.size(50_000);
    let (s, t, _) = workloads::pair(len, 9);
    let nprocs = args.max_procs();

    let mut ramp = Table::new(
        &format!("Ablation: uniform vs ramped grids (§4.3), {nprocs} procs, {len} bp"),
        &["grid", "uniform (s)", "ramped (s)", "gain (%)"],
    );
    for (bands, blocks) in [(nprocs, nprocs), (2 * nprocs, 2 * nprocs), (40, 25)] {
        let uni = blocked(&s, &t, &BlockedConfig::new(nprocs, bands, blocks));
        let ram = blocked(&s, &t, &BlockedConfig::new(nprocs, bands, blocks).ramped(2));
        assert_eq!(uni.regions, ram.regions);
        ramp.row(&[
            format!("{bands}x{blocks}"),
            secs(uni.wall),
            secs(ram.wall),
            format!("{:.0}", percent_over(uni.wall, ram.wall)),
        ]);
        eprintln!("[ablation] ramp {bands}x{blocks} done");
    }

    let mut net = Table::new(
        &format!("Ablation: network models, blocked 40x25, {nprocs} procs, {len} bp"),
        &["network", "time (s)", "speed-up vs serial"],
    );
    let serial = blocked(&s, &t, &BlockedConfig::new(1, 40, 25)).wall;
    for (name, model) in [
        ("paper cluster (750us)", NetworkModel::paper_cluster()),
        ("fast ethernet (70us)", NetworkModel::fast_ethernet()),
        ("zero-cost", NetworkModel::zero()),
    ] {
        let mut config = BlockedConfig::new(nprocs, 40, 25);
        config.dsm = config.dsm.network(model);
        let out = blocked(&s, &t, &config);
        net.row(&[
            name.to_string(),
            secs(out.wall),
            format!("{:.2}", speedup(serial, out.wall)),
        ]);
        eprintln!("[ablation] net {name} done");
    }

    // JIAJIA's home-migration feature. The alignment strategies already
    // home their shared buffers on the writers, so the feature shows on
    // the classic migration-friendly pattern instead: an iterative
    // owner-computes kernel over a round-robin-homed array (each node
    // repeatedly rewrites its own block, ~ (P-1)/P of which starts
    // remote). With migration the single-writer pages move to their
    // writers after the first round and the diff traffic collapses.
    let mut mig = Table::new(
        &format!("Ablation: home migration (jia_config), owner-computes kernel, {nprocs} procs"),
        &["feature", "cluster time", "diffs", "migrations"],
    );
    for on in [false, true] {
        let config = DsmConfig::new(nprocs)
            .network(NetworkModel::paper_cluster())
            .home_migration(on);
        let run = DsmSystem::run(config, |node| {
            const ELEMS_PER_NODE: usize = 8 * 512; // 8 pages each
            let p = node.nprocs();
            let v = node.alloc_vec::<i64>(ELEMS_PER_NODE * p);
            node.barrier();
            for round in 0..20i64 {
                let base = node.id() * ELEMS_PER_NODE;
                for k in 0..ELEMS_PER_NODE {
                    node.vec_set(&v, base + k, round + k as i64);
                }
                node.advance(Duration::from_micros(500)); // modeled compute
                node.barrier();
            }
        });
        let agg = genomedsm_dsm::NodeStats::aggregate(&run.stats);
        mig.row(&[
            if on {
                "migration ON"
            } else {
                "migration OFF (JIAJIA default)"
            }
            .to_string(),
            secs(agg.total),
            format!("{}", agg.diffs_sent),
            format!("{}", agg.migrations),
        ]);
        eprintln!("[ablation] migration {on} done");
    }
    report.table("ablation_ramp.csv", ramp);
    report.table("ablation_network.csv", net);
    report.table("ablation_migration.csv", mig);
}
