//! Fault sweeps in virtual time: per-link loss priced on the in-process
//! fabric (DESIGN.md §5.7), fail-stop takeover (§5.8) and elastic rejoin
//! (§5.13). Every row is checked against the fault-free run.

use super::measure::{blocked, heuristic, params, percent_over, preprocess_1k, SC};
use super::Points;
use crate::report::{Report, Table};
use crate::{secs, speedup, workloads, HarnessArgs};
use genomedsm_core::LocalRegion;
use genomedsm_dsm::{DsmConfig, FaultPlan, NodeStats};
use genomedsm_strategies::{
    heuristic_campaign, preprocess_align, BlockedConfig, HeuristicDsmConfig, Phase1Outcome,
};
use std::time::Duration;

fn yes_no(ok: bool) -> String {
    if ok { "yes" } else { "NO" }.to_string()
}

// ---------------------------------------------------------------------
// Chaos: the reliability-layer sweep
// ---------------------------------------------------------------------

/// Pre-process runs under increasing per-link drop rates (with fixed 1%
/// corruption, 5% duplication and 5% reordering), plus one run that also
/// crashes a node mid-band. Every row must stay bit-identical to the
/// fault-free scoreboard; the table records what the transport paid for
/// that. The gate is the 5%-loss-plus-crash case on a 30 kBP-class pair,
/// with the counters proving faults were actually injected and absorbed.
pub fn chaos(args: &HarnessArgs, points: Points, report: &mut Report) {
    let (paper_bp, cases): (usize, &[(f64, bool)]) = match points {
        Points::Sweep => (
            40_000,
            &[
                (0.02, false),
                (0.05, false),
                (0.10, false),
                (0.15, false),
                (0.05, true),
            ],
        ),
        Points::Gate => (30_000, &[(0.05, true)]),
    };
    let len = args.size(paper_bp);
    let (s, t, _) = workloads::pair(len, 47);
    let nprocs = args.max_procs();
    let clean = preprocess_align(&s, &t, &SC, &preprocess_1k(args, nprocs)).unwrap();

    let mut tab = Table::new(
        &format!(
            "Chaos sweep: pre-process, {len} bp x {len} bp, {nprocs} nodes (dup 5%, reorder 5%)"
        ),
        &[
            "drop",
            "crash",
            "identical",
            "retransmits",
            "dups dropped",
            "corrupt dropped",
            "takeovers",
            "time (s)",
            "overhead",
        ],
    );
    for &(drop, crash) in cases {
        let mut plan = FaultPlan::paper_chaos(4242);
        plan.link.drop = drop;
        if crash {
            plan = plan.with_crash(1 % nprocs, 2);
        }
        let mut config = preprocess_1k(args, nprocs);
        config.dsm = config.dsm.faults(plan);
        let out = preprocess_align(&s, &t, &SC, &config).unwrap();
        let identical = out.result == clean.result && out.best_score == clean.best_score;
        let agg = NodeStats::aggregate(&out.per_node);
        tab.row(&[
            format!("{:.0}%", drop * 100.0),
            if crash { "1@2".into() } else { "-".to_string() },
            yes_no(identical),
            agg.retransmits.to_string(),
            agg.dups_dropped.to_string(),
            agg.corrupt_dropped.to_string(),
            agg.takeovers.to_string(),
            secs(out.wall),
            format!("{:+.1}%", percent_over(out.wall, clean.wall)),
        ]);
        if points == Points::Gate {
            report.claim(
                "exactly-once under 5% loss + crash, bit-identical scoreboard (§5.7)",
                identical && agg.retransmits > 0 && agg.dups_dropped > 0 && agg.takeovers > 0,
                format!(
                    "{} retransmits, {} dups dropped, {} takeover",
                    agg.retransmits, agg.dups_dropped, agg.takeovers
                ),
            );
        }
        eprintln!("[chaos] drop={drop} crash={crash} done");
    }
    report.table("chaos.csv", tab);
}

// ---------------------------------------------------------------------
// Takeover: the graceful-degradation sweep
// ---------------------------------------------------------------------

/// What a supervised run must reproduce exactly — the candidate regions
/// of a heuristic strategy or the scoreboard and best score of the
/// pre-process one — and what it cost.
struct Survived {
    result: (Vec<LocalRegion>, Vec<Vec<i64>>, i32),
    agg: NodeStats,
    wall: Duration,
}

impl Survived {
    fn phase1(out: Phase1Outcome) -> Self {
        Self {
            agg: NodeStats::aggregate(&out.per_node),
            wall: out.wall,
            result: (out.regions, Vec::new(), 0),
        }
    }
}

/// Runs every phase-1 strategy with 0–3 of the cluster's nodes
/// fail-stopped mid-run and verifies the survivors' results match the
/// fault-free run exactly, recording takeover counts and the
/// virtual-time cost of each death. The `killed=0` supervised row
/// measures the supervision layer's fault-free overhead. The gate is
/// one death in the blocked strategy on a 30 kBP-class pair.
pub fn takeover(args: &HarnessArgs, points: Points, report: &mut Report) {
    let (paper_bp, nprocs) = match points {
        Points::Sweep => (20_000, args.max_procs().max(4)),
        Points::Gate => (30_000, args.max_procs()),
    };
    let len = args.size(paper_bp);
    let (s, t, _) = workloads::pair(len, 53);
    let (s, t) = (&s, &t);

    // Each runner takes what the run does to its cluster configuration:
    // nothing, supervision alone, or a fail-stop plan.
    type Dsm<'a> = &'a dyn Fn(DsmConfig) -> DsmConfig;
    let run_heuristic = |dsm: Dsm| {
        let mut config = HeuristicDsmConfig::new(nprocs);
        config.dsm = dsm(config.dsm);
        Survived::phase1(heuristic(s, t, &config))
    };
    let run_blocked = |dsm: Dsm| {
        let mut config = BlockedConfig::new(nprocs, 24, 12);
        config.dsm = dsm(config.dsm);
        Survived::phase1(blocked(s, t, &config))
    };
    let run_preprocess = |dsm: Dsm| {
        let mut config = preprocess_1k(args, nprocs);
        config.dsm = dsm(config.dsm);
        let out = preprocess_align(s, t, &SC, &config).expect("preprocess");
        Survived {
            agg: NodeStats::aggregate(&out.per_node),
            wall: out.wall,
            result: (Vec::new(), out.result, out.best_score),
        }
    };

    if points == Points::Gate {
        let clean = run_blocked(&|dsm| dsm);
        let plan = FaultPlan::quiet(0).with_crash(1 % nprocs, 7);
        let degraded = run_blocked(&|dsm| dsm.faults(plan.clone()));
        let agg = &degraded.agg;
        report.claim(
            "N-1 run matches fault-free output exactly (§5.8 takeover)",
            degraded.result == clean.result && agg.takeovers >= 1 && agg.obituaries > 0,
            format!(
                "{} regions, {} takeover(s), {} obituaries",
                degraded.result.0.len(),
                agg.takeovers,
                agg.obituaries
            ),
        );
        return;
    }

    let max_killed = 3.min(nprocs - 1);
    let mut tab = Table::new(
        &format!("Takeover sweep: {len} bp x {len} bp, {nprocs} nodes, 0-{max_killed} killed"),
        &[
            "strategy",
            "killed",
            "exact match",
            "takeovers",
            "obituaries",
            "time (s)",
            "overhead",
        ],
    );
    // (strategy name, work-unit stagger, runner): the fail-stops are
    // staggered across work-unit depths so the deaths land at different
    // stages of the wavefront.
    type Run<'a> = &'a dyn Fn(Dsm) -> Survived;
    let rows = s.len() as u64;
    let strategies: [(&str, [u64; 3], Run); 3] = [
        (
            "heuristic",
            [rows / 20, rows / 10, rows * 3 / 20],
            &run_heuristic,
        ),
        ("blocked", [5, 9, 13], &run_blocked),
        ("preprocess", [3, 5, 7], &run_preprocess),
    ];
    for (name, stagger, run) in strategies {
        let clean = run(&|dsm| dsm);
        for k in 0..=max_killed {
            let plan = (1..=k).fold(FaultPlan::quiet(0), |plan, victim| {
                plan.with_crash(victim, stagger[(victim - 1) % stagger.len()])
            });
            // The `killed=0` row is supervision with nothing to do.
            let out = run(&|dsm| dsm.tolerate_failures().faults(plan.clone()));
            tab.row(&[
                name.to_string(),
                k.to_string(),
                yes_no(out.result == clean.result),
                out.agg.takeovers.to_string(),
                out.agg.obituaries.to_string(),
                secs(out.wall),
                format!("{:+.1}%", percent_over(out.wall, clean.wall)),
            ]);
            eprintln!("[takeover] {name} killed={k} done");
        }
    }
    report.table("takeover.csv", tab);
}

// ---------------------------------------------------------------------
// Rejoin: the elastic-membership sweep
// ---------------------------------------------------------------------

/// Runs a 3-round heuristic campaign three ways — fault-free, with k
/// nodes killed in round 0 and readmitted at the next workload
/// boundary, and with the same k kills left permanent — checking that
/// every round of every scenario stays bit-identical to the fault-free
/// campaign and recording whether the post-rejoin rounds recover
/// full-strength throughput instead of staying degraded at N−k. The
/// gate is one victim on a 15 kBP-class pair.
pub fn rejoin(args: &HarnessArgs, points: Points, report: &mut Report) {
    let (paper_bp, nprocs, max_killed) = match points {
        Points::Sweep => {
            let nprocs = args.max_procs().max(4);
            (20_000, nprocs, 2.min(nprocs - 1))
        }
        Points::Gate => (15_000, args.max_procs(), 1),
    };
    let len = args.size(paper_bp);
    let (s, t, _) = workloads::pair(len, 61);
    let rounds = 3usize;
    // Round-0 fail-stop points, staggered inside each victim's share of
    // the wavefront (heuristic work units are per-node rows), and a
    // short virtual downtime so the boundary admission lands the
    // joiner at the round-1 membership-refresh barrier.
    let per_node_rows = (s.len() / nprocs) as u64;
    let stagger = [per_node_rows / 5, per_node_rows / 2];
    let downtime = 8u64;

    let campaign = |plan: FaultPlan| {
        let mut config = HeuristicDsmConfig::new(nprocs);
        config.dsm = config.dsm.tolerate_failures().faults(plan);
        heuristic_campaign(&s, &t, &SC, &params(), &config, rounds)
    };
    let clean = campaign(FaultPlan::quiet(0));

    let mut tab = Table::new(
        &format!("Rejoin sweep: {len} bp x {len} bp, {nprocs} nodes, {rounds}-round campaign"),
        &[
            "killed",
            "round",
            "exact match",
            "rejoins",
            "elastic (s)",
            "degraded (s)",
            "clean (s)",
            "recovered",
        ],
    );
    for k in 1..=max_killed {
        let mut rejoining = FaultPlan::quiet(0);
        let mut permanent = FaultPlan::quiet(0);
        for i in 0..k {
            let (victim, at) = ((i + 1) % nprocs, stagger[i % stagger.len()]);
            rejoining = rejoining
                .with_crash(victim, at)
                .with_rejoin(victim, downtime);
            permanent = permanent.with_crash(victim, at);
        }
        let elastic = campaign(rejoining);
        let degraded = campaign(permanent);
        let rejoins: u64 = elastic.per_node.iter().map(|st| st.rejoins).sum();
        let exact = |w: usize| {
            elastic.rounds[w].regions == clean.rounds[w].regions
                && degraded.rounds[w].regions == clean.rounds[w].regions
        };
        // Round 0 contains the deaths; full strength is only owed from
        // the first post-rejoin round on.
        let recovered = |w: usize| elastic.rounds[w].wall < degraded.rounds[w].wall;
        for w in 0..rounds {
            tab.row(&[
                k.to_string(),
                w.to_string(),
                yes_no(exact(w)),
                rejoins.to_string(),
                secs(elastic.rounds[w].wall),
                secs(degraded.rounds[w].wall),
                secs(clean.rounds[w].wall),
                if w == 0 {
                    "n/a".to_string()
                } else {
                    yes_no(recovered(w))
                },
            ]);
        }
        if points == Points::Gate {
            let gain = speedup(degraded.rounds[1].wall, elastic.rounds[1].wall);
            report.claim(
                "kill-then-rejoin campaign: bit-identical, throughput recovered (§5.13)",
                (0..rounds).all(exact) && rejoins == 1 && (1..rounds).all(recovered),
                format!(
                    "{rounds} rounds bit-identical; {rejoins} rejoin; post-rejoin round \
                     {gain:.2}x faster than permanent N-1"
                ),
            );
        }
        eprintln!("[rejoin] killed={k} done");
    }
    report.table("rejoin.csv", tab);
}
