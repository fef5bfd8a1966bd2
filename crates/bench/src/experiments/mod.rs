//! The experiment registry: every table, figure and sweep of the
//! evaluation is one [`Experiment`] value in [`REGISTRY`], and the
//! harness's dispatch, its help text, `all` and `summary` are derived
//! from that one list.
//!
//! An experiment is one function from [`HarnessArgs`] and a choice of
//! [`Points`] to the [`Report`] it fills: under [`Points::Sweep`] it runs
//! the full sweep behind its tables, under [`Points::Gate`] the few points
//! its headline claims rest on — through the same measuring code, so a
//! claim cannot drift from the experiment it vouches for. [`summary`] measures
//! nothing itself: it folds the registry's gate reports into the
//! reproduction table.
//!
//! The families: [`paper`] (the paper's own tables and figures, virtual
//! time), [`engines`] (host-time GCUPS of the kernel, batch and protein
//! layers), [`service`] (the alignment service and the multi-process UDP
//! cluster) and [`faults`] (loss, fail-stop and rejoin sweeps).

pub mod engines;
pub mod faults;
mod measure;
pub mod paper;
pub mod service;

use crate::report::{Report, Table};
use crate::HarnessArgs;

/// Which of its points an experiment runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Points {
    /// The full sweep behind the experiment's tables and artifacts.
    Sweep,
    /// Only the points its headline claims rest on (what `summary` runs).
    Gate,
}

/// One experiment of the evaluation.
#[derive(Debug)]
pub struct Experiment {
    /// The names `paper <name>` dispatches on: its own first, then the
    /// figures printed by the same run.
    pub names: &'static [&'static str],
    /// One help line.
    pub help: &'static str,
    /// The claims its gate checks, in the order `summary` prints them
    /// (the kernel row repeats once per kernel of an AVX2 host).
    pub claims: &'static [&'static str],
    /// Runs the experiment at the given points, adding its tables, notes
    /// and claims to the report.
    pub run: fn(&HarnessArgs, Points, &mut Report),
}

impl Experiment {
    /// What the experiment reports at the given points.
    pub fn report(&self, args: &HarnessArgs, points: Points) -> Report {
        let mut report = Report::default();
        (self.run)(args, points, &mut report);
        report
    }
}

/// Every experiment, in the order `all` runs them and `summary` folds
/// their claims.
pub static REGISTRY: &[Experiment] = &[
    Experiment {
        names: &["table1", "fig9", "fig10"],
        help: "heuristic strategy: total times, speed-ups (Fig. 9), time breakdown (Fig. 10)",
        claims: &["speed-up grows with sequence size (Fig. 9)"],
        run: paper::table1,
    },
    Experiment {
        names: &["table2"],
        help: "GenomeDSM vs BlastN best-alignment coordinates",
        claims: &[],
        run: paper::table2,
    },
    Experiment {
        names: &["table3"],
        help: "blocking-multiplier sweep (50 kBP class, max procs)",
        claims: &[],
        run: paper::table3,
    },
    Experiment {
        names: &["table4", "fig12", "fig13"],
        help: "blocked strategy: times and speed-ups (Fig. 12), blocked vs non-blocked (Fig. 13)",
        claims: &[
            "blocking beats non-blocking by a large factor (Fig. 13)",
            "blocked and non-blocked find identical regions",
        ],
        run: paper::table4,
    },
    Experiment {
        names: &["fig14"],
        help: "dot plot of the 50 kBP-class comparison (ASCII + SVG artifacts)",
        claims: &[],
        run: paper::fig14,
    },
    Experiment {
        names: &["fig15"],
        help: "phase-2 speed-ups over subsequence-pair counts",
        claims: &[
            "phase-2 scattered mapping is near-linear (Fig. 15)",
            "phase 2 uses no locks or condition variables (§4.4)",
        ],
        run: paper::fig15,
    },
    Experiment {
        names: &["fig16"],
        help: "sample phase-2 global alignments",
        claims: &[],
        run: paper::fig16,
    },
    Experiment {
        names: &["fig18", "fig19"],
        help:
            "pre-process strategy: speed-ups on avg and best core times, blocking options (Fig. 19)",
        claims: &[],
        run: paper::fig18,
    },
    Experiment {
        names: &["fig20"],
        help: "pre-process strategy: I/O-mode comparison, exactness against the serial oracle",
        claims: &[
            "pre-process strategy is exact (§5)",
            "column saving costs little (Fig. 20)",
        ],
        run: paper::fig20,
    },
    Experiment {
        names: &["section6"],
        help: "the Tables 5-7 worked example",
        claims: &["Section-6 worked example (score 6 at (14,15), start recovery)"],
        run: paper::section6,
    },
    Experiment {
        names: &["section6-area"],
        help: "measured vs theoretical useful area of the reverse window (Eqs. 2-3)",
        claims: &["reverse-window useful area ~ 1/3 (Eqs. 2-3)"],
        run: paper::section6_area,
    },
    Experiment {
        names: &["hetero"],
        help: "heterogeneous-cluster what-if (the paper's §7 future work)",
        claims: &[],
        run: paper::hetero,
    },
    Experiment {
        names: &["ablation"],
        help: "design-choice ablations: ramped grids, network models, home migration",
        claims: &[],
        run: paper::ablation,
    },
    Experiment {
        names: &["kernels"],
        help: "vectorized-kernel GCUPS: scalar vs striped SIMD on a 10k x 10k score-only pass",
        claims: &[
            engines::KERNEL_ROW,
            engines::KERNEL_ROW,
            engines::KERNEL_ROW,
            engines::KERNEL_ROW,
            "striped SIMD kernel >= 3x scalar (10k x 10k score-only)",
        ],
        run: engines::kernels,
    },
    Experiment {
        names: &["chaos"],
        help:
            "reliability sweep: pre-process under 0-15% per-link loss, dup/reorder and a node crash",
        claims: &["exactly-once under 5% loss + crash, bit-identical scoreboard (§5.7)"],
        run: faults::chaos,
    },
    Experiment {
        names: &["takeover"],
        help: "degradation sweep: every strategy with 0-3 nodes fail-stopped mid-run, exact match",
        claims: &["N-1 run matches fault-free output exactly (§5.8 takeover)"],
        run: faults::takeover,
    },
    Experiment {
        names: &["batch"],
        help: "batch engine: lane-packed many-small-queries search vs per-pair kernel launches",
        claims: &["batch engine beats per-pair launches on many small queries (§5.9)"],
        run: engines::batch,
    },
    Experiment {
        names: &["serve"],
        help: "alignment service: multi-client cold/warm sweep and a hot reload under load",
        claims: &["service cache hits and hot reload are bit-exact (§5.11)"],
        run: service::serve,
    },
    Experiment {
        names: &["sockets"],
        help: "multi-process UDP sweep: real OS processes over loopback at rising drop rates",
        claims: &["4-process UDP run bit-identical under 15% datagram loss (§5.12)"],
        run: service::sockets,
    },
    Experiment {
        names: &["rejoin"],
        help: "elastic-membership sweep: 3-round campaign, k nodes killed then readmitted",
        claims: &["kill-then-rejoin campaign: bit-identical, throughput recovered (§5.13)"],
        run: faults::rejoin,
    },
    Experiment {
        names: &["protein"],
        help:
            "protein subsystem: striped Gotoh GCUPS under BLOSUM62, composition prefilter pruning",
        claims: &["protein Gotoh: SIMD >= 2x scalar, prefilter prunes, all bit-exact (§5.14)"],
        run: engines::protein,
    },
];

/// The experiment one of whose names is `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().find(|e| e.names.contains(&name))
}

/// The harness's help text: one line per registry entry, then the two
/// commands over the registry.
pub fn help() -> String {
    let mut out = String::from(
        "usage: paper <experiment> [--scale N] [--procs 1,2,4,8] [--out DIR]\n\nexperiments:\n",
    );
    for e in REGISTRY {
        out += &format!("  {:<19} {}\n", e.names.join(" "), e.help);
    }
    out + "  summary             machine-checked repro gate: every experiment's claims, PASS/FAIL\n  \
           all                 every experiment above (the default)\n"
}

/// The reproduction gate: folds every experiment's gate report into one
/// PASS/FAIL table. Thresholds are deliberately loose — they guard the
/// *shape* of each result (who wins, which direction trends point), not
/// exact numbers — and live with the experiments that measure them.
pub fn summary(args: &HarnessArgs) -> Report {
    let mut table = Table::new(
        "Reproduction gate: headline claims",
        &["claim", "verdict", "evidence"],
    );
    let (mut total, mut failures) = (0, 0);
    for experiment in REGISTRY.iter().filter(|e| !e.claims.is_empty()) {
        let gate = experiment.report(args, Points::Gate);
        let mut checked: Vec<&str> = gate.claims.iter().map(|c| c.text).collect();
        let mut declared = experiment.claims.to_vec();
        checked.dedup();
        declared.dedup();
        assert_eq!(checked, declared, "{} dropped a claim", experiment.names[0]);
        for claim in gate.claims {
            total += 1;
            failures += usize::from(!claim.pass);
            table.row(&[
                claim.text.to_string(),
                if claim.pass { "PASS" } else { "FAIL" }.to_string(),
                claim.evidence,
            ]);
        }
        eprintln!("[summary] {} done", experiment.names[0]);
    }
    let mut report = Report::default();
    report.table("summary.csv", table);
    if failures > 0 {
        report.failure = Some(format!("{failures} claim(s) FAILED"));
    } else {
        report.note(format!("all {total} claims PASS"));
    }
    report
}
