//! Multi-process cluster driver: the fixed workload a `genomedsm node`
//! process runs, and the launcher that spawns one OS process per rank
//! and checks the results bit-for-bit against the in-process run.
//!
//! The workload is deterministic end to end: the sequence pair is
//! regenerated from `(len, seed)` in every process, all three phase-1
//! strategies and phase 2 run over it, and the report is built only
//! from *gathered* results (identical on every rank by construction of
//! [`genomedsm_dsm::DsmSystem::run_wire`]'s all-gather) — so every
//! process prints the same bytes, and those bytes equal what a plain
//! in-process simulation prints. Timings and transport counters differ
//! per rank and therefore go to the metrics channel (stderr), never the
//! report.

use genomedsm_core::{HeuristicParams, Scoring};
use genomedsm_dsm::{ClusterCtx, ClusterManifest, DsmConfig, FaultPlan, NetworkModel, NodeStats};
use genomedsm_seq::{planted_pair, HomologyPlan};
use genomedsm_strategies::{
    heuristic_align_dsm, heuristic_block_align, phase2_scattered_with, preprocess_align,
    BandScheme, BlockedConfig, ChunkPlan, HeuristicDsmConfig, PreprocessConfig,
};
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Duration;

/// What a `node` process computes: the sequence pair and cluster shape.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Length of each generated sequence (bp).
    pub len: usize,
    /// Seed for the planted-homology generator.
    pub seed: u64,
    /// Number of DSM nodes (= OS processes in a multi-process run).
    pub procs: usize,
    /// Optional chaos plan spec (see [`FaultPlan::parse`]) injected into
    /// the transport: link faults only, a `crash=` is refused.
    pub plan: Option<String>,
}

impl WorkloadSpec {
    /// The default quick-run shape: big enough that every strategy finds
    /// regions, small enough for CI.
    pub fn quick(procs: usize) -> Self {
        WorkloadSpec {
            len: 1500,
            seed: 42,
            procs,
            plan: None,
        }
    }
}

/// One strategy's per-rank measurement, for the metrics channel.
#[derive(Debug, Clone)]
pub struct StrategyMetric {
    /// Strategy name (`heuristic`, `blocked`, `preprocess`, `phase2`).
    pub strategy: String,
    /// Cluster wall time (max node total).
    pub wall: Duration,
    /// This rank's own stats entry (transport counters live here in a
    /// multi-process run).
    pub local: NodeStats,
}

/// Everything a node run produces: the deterministic report (stdout)
/// plus per-strategy metrics (stderr / CSV).
#[derive(Debug, Clone)]
pub struct NodeOutcome {
    /// Bit-identical across ranks and vs the in-process run.
    pub report: String,
    /// Per-strategy measurements for this rank only.
    pub metrics: Vec<StrategyMetric>,
}

/// Renders the metrics as `#metric` stderr lines the launcher can strip
/// back out of a child's stderr.
pub fn render_metrics(rank: usize, metrics: &[StrategyMetric]) -> String {
    let mut out = String::new();
    for m in metrics {
        let _ = writeln!(
            out,
            "#metric strategy={} rank={rank} wall_us={} datagrams_sent={} \
             datagrams_received={} retransmits={} dups_dropped={} \
             measured_network_us={}",
            m.strategy,
            m.wall.as_micros(),
            m.local.datagrams_sent,
            m.local.datagrams_received,
            m.local.retransmits,
            m.local.dups_dropped,
            m.local.measured_network.as_micros(),
        );
    }
    out
}

/// Parses one `#metric` line back into `(key, value)` pairs.
pub fn parse_metric_line(line: &str) -> Option<Vec<(String, String)>> {
    let rest = line.strip_prefix("#metric ")?;
    Some(
        rest.split_whitespace()
            .filter_map(|kv| kv.split_once('='))
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
    )
}

/// Session-number offsets for the four DSM runs inside one workload.
/// Distinct sessions fence the runs from each other's retransmitted
/// stragglers on the shared manifest.
const SESSIONS: [u64; 4] = [1, 2, 3, 4];

fn dsm_for(
    spec: &WorkloadSpec,
    cluster: Option<(&ClusterManifest, usize, u64)>,
    which: usize,
) -> Result<DsmConfig, String> {
    let mut config = DsmConfig::new(spec.procs);
    if let Some(text) = &spec.plan {
        let plan =
            FaultPlan::parse(text).map_err(|e| format!("invalid fault plan '{text}': {e}"))?;
        // The report is gathered from every rank and compared byte for
        // byte; a rank that fail-stops mid-workload has none to give.
        if !plan.crashes.is_empty() {
            return Err(format!(
                "fault plan '{text}': crash= is not supported by node/launch"
            ));
        }
        plan.check(spec.procs)
            .map_err(|e| format!("fault plan '{text}': {e}"))?;
        config = config.faults(plan);
    }
    if let Some((manifest, rank, base)) = cluster {
        manifest
            .expect_ranks(spec.procs)
            .map_err(|e| e.to_string())?;
        let ctx = ClusterCtx::new(rank, manifest.clone(), base + SESSIONS[which])
            .map_err(|e| format!("invalid cluster context: {e}"))?;
        config = config.cluster(ctx);
    }
    Ok(config)
}

/// Runs the full workload — all three phase-1 strategies and phase 2 —
/// either in-process (`cluster` = `None`) or as one rank of a socket
/// cluster (`cluster` = manifest, own rank, session base).
///
/// # Errors
///
/// Returns a message if the cluster context is invalid or a strategy
/// fails (I/O, unaligned region).
pub fn run_workload(
    spec: &WorkloadSpec,
    cluster: Option<(&ClusterManifest, usize, u64)>,
) -> Result<NodeOutcome, String> {
    let scoring = Scoring::paper();
    let params = HeuristicParams {
        open_threshold: 8,
        close_threshold: 8,
        min_score: 15,
    };
    let (s, t, _) = planted_pair(
        spec.len,
        spec.len,
        &HomologyPlan::paper_density(spec.len * 8),
        spec.seed,
    );
    let (s, t) = (s.into_bytes(), t.into_bytes());
    let rank = cluster.map_or(0, |(_, r, _)| r);
    let mut report = String::new();
    let mut metrics = Vec::new();

    // Strategy 1: per-cell heuristic.
    let mut config = HeuristicDsmConfig::new(spec.procs);
    config.dsm = dsm_for(spec, cluster, 0)?;
    let h = heuristic_align_dsm(&s, &t, &scoring, &params, &config);
    let _ = writeln!(report, "heuristic: {} regions", h.regions.len());
    for r in h.regions.iter().take(5) {
        let _ = writeln!(report, "  {r}");
    }
    metrics.push(StrategyMetric {
        strategy: "heuristic".into(),
        wall: h.wall,
        local: h.per_node[rank].clone(),
    });

    // Strategy 2: blocked heuristic.
    let mut config = BlockedConfig::new(spec.procs, 8, 8);
    config.dsm = dsm_for(spec, cluster, 1)?;
    let b = heuristic_block_align(&s, &t, &scoring, &params, &config);
    let _ = writeln!(report, "blocked: {} regions", b.regions.len());
    for r in b.regions.iter().take(5) {
        let _ = writeln!(report, "  {r}");
    }
    metrics.push(StrategyMetric {
        strategy: "blocked".into(),
        wall: b.wall,
        local: b.per_node[rank].clone(),
    });

    // Strategy 3: exact pre-process (no I/O in the fixed workload).
    let mut config = PreprocessConfig::new(spec.procs);
    config.band = BandScheme::Balanced(256.min(spec.len.max(1)));
    config.chunk = ChunkPlan::Fixed(256.min(spec.len.max(1)));
    config.threshold = params.min_score;
    config.dsm = dsm_for(spec, cluster, 2)?;
    let p = preprocess_align(&s, &t, &scoring, &config).map_err(|e| format!("preprocess: {e}"))?;
    let _ = writeln!(
        report,
        "preprocess: best score {}, {} threshold hits",
        p.best_score,
        p.total_hits()
    );
    metrics.push(StrategyMetric {
        strategy: "preprocess".into(),
        wall: p.wall,
        local: p.per_node[rank].clone(),
    });

    // Phase 2: global alignment of the blocked strategy's regions.
    let p2_config = dsm_for(spec, cluster, 3)?.network(NetworkModel::paper_cluster());
    let p2 = phase2_scattered_with(&s, &t, &b.regions, &scoring, &p2_config)
        .map_err(|e| format!("phase 2: {e}"))?;
    let total: i64 = p2
        .alignments
        .iter()
        .map(|ra| ra.alignment.score as i64)
        .sum();
    let best = p2
        .alignments
        .iter()
        .map(|ra| ra.alignment.score)
        .max()
        .unwrap_or(0);
    let _ = writeln!(
        report,
        "phase2: {} alignments, total score {total}, best {best}",
        p2.alignments.len()
    );
    metrics.push(StrategyMetric {
        strategy: "phase2".into(),
        wall: p2.wall,
        local: p2.per_node[rank].clone(),
    });

    Ok(NodeOutcome { report, metrics })
}

/// What [`launch`] observed across the whole process fleet.
#[derive(Debug)]
pub struct LaunchOutcome {
    /// The (identical) report every process printed.
    pub report: String,
    /// `#metric` lines collected from every child's stderr.
    pub metric_lines: Vec<String>,
    /// Summed transport datagrams sent across ranks and strategies.
    pub datagrams_sent: u64,
    /// Summed retransmissions across ranks and strategies.
    pub retransmits: u64,
}

/// Reserves `n` loopback ports by binding ephemeral sockets, then frees
/// them for the child processes to rebind.
///
/// # Errors
///
/// Returns a message when the loopback interface refuses a bind.
pub fn ephemeral_manifest(n: usize) -> Result<ClusterManifest, String> {
    let mut holds = Vec::with_capacity(n);
    for _ in 0..n {
        holds.push(
            std::net::UdpSocket::bind("127.0.0.1:0")
                .map_err(|e| format!("cannot bind loopback socket: {e}"))?,
        );
    }
    let mut nodes = Vec::with_capacity(n);
    for s in &holds {
        nodes.push(s.local_addr().map_err(|e| format!("local addr: {e}"))?);
    }
    Ok(ClusterManifest::new(nodes))
}

/// Spawns `spec.procs` copies of `exe` (`genomedsm node --rank R ...`)
/// on a fresh loopback manifest, waits for them, and asserts that every
/// process printed bit-identical output equal to the in-process run of
/// the same workload **without** faults (chaos must be invisible in the
/// results).
///
/// # Errors
///
/// Returns a message if a child fails to spawn, exits non-zero, or any
/// output diverges.
pub fn launch(exe: &Path, spec: &WorkloadSpec, session_base: u64) -> Result<LaunchOutcome, String> {
    dsm_for(spec, None, 0)?; // a plan no rank would accept spawns none
    let manifest = ephemeral_manifest(spec.procs)?;
    let dir = std::env::temp_dir();
    let manifest_path = dir.join(format!(
        "genomedsm-cluster-{}-{session_base}.toml",
        std::process::id()
    ));
    std::fs::write(&manifest_path, manifest.to_toml())
        .map_err(|e| format!("cannot write {}: {e}", manifest_path.display()))?;

    let mut children = Vec::new();
    for rank in 0..spec.procs {
        let mut cmd = Command::new(exe);
        cmd.arg("node")
            .arg("--rank")
            .arg(rank.to_string())
            .arg("--cluster")
            .arg(&manifest_path)
            .arg("--session")
            .arg(session_base.to_string())
            .arg("--len")
            .arg(spec.len.to_string())
            .arg("--seed")
            .arg(spec.seed.to_string())
            .arg("--procs")
            .arg(spec.procs.to_string())
            // The manifest env var must not leak into children.
            .env_remove(genomedsm_dsm::CLUSTER_ENV)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        if let Some(plan) = &spec.plan {
            cmd.arg("--plan").arg(plan);
        }
        children.push(
            cmd.spawn()
                .map_err(|e| format!("cannot spawn rank {rank}: {e}"))?,
        );
    }

    let mut outputs = Vec::new();
    let mut failures = Vec::new();
    for (rank, child) in children.into_iter().enumerate() {
        let out = child
            .wait_with_output()
            .map_err(|e| format!("rank {rank} did not finish: {e}"))?;
        if !out.status.success() {
            failures.push(format!(
                "rank {rank} exited with {}: {}",
                out.status,
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        outputs.push(out);
    }
    let _ = std::fs::remove_file(&manifest_path);
    if let Some(first) = failures.first() {
        return Err(first.clone());
    }

    let stdouts: Vec<String> = outputs
        .iter()
        .map(|o| String::from_utf8_lossy(&o.stdout).into_owned())
        .collect();
    for (rank, s) in stdouts.iter().enumerate().skip(1) {
        if s != &stdouts[0] {
            return Err(format!(
                "rank {rank}'s report diverges from rank 0's:\n--- rank 0\n{}\n--- rank {rank}\n{s}",
                stdouts[0]
            ));
        }
    }

    // The clean in-process simulation is the reference: the socket runs
    // (chaotic or not) must reproduce it bit for bit.
    let reference = run_workload(
        &WorkloadSpec {
            plan: None,
            ..spec.clone()
        },
        None,
    )?;
    if stdouts[0] != reference.report {
        return Err(format!(
            "multi-process report diverges from the in-process run:\n--- in-process\n{}\n--- sockets\n{}",
            reference.report, stdouts[0]
        ));
    }

    let mut metric_lines = Vec::new();
    let mut datagrams_sent = 0u64;
    let mut retransmits = 0u64;
    for out in &outputs {
        for line in String::from_utf8_lossy(&out.stderr).lines() {
            if let Some(kvs) = parse_metric_line(line) {
                for (k, v) in &kvs {
                    let add = v.parse::<u64>().unwrap_or(0);
                    match k.as_str() {
                        "datagrams_sent" => datagrams_sent += add,
                        "retransmits" => retransmits += add,
                        _ => {}
                    }
                }
                metric_lines.push(line.to_string());
            }
        }
    }

    Ok(LaunchOutcome {
        report: stdouts[0].clone(),
        metric_lines,
        datagrams_sent,
        retransmits,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lines_roundtrip() {
        let metrics = vec![StrategyMetric {
            strategy: "blocked".into(),
            wall: Duration::from_micros(1234),
            local: NodeStats {
                datagrams_sent: 7,
                retransmits: 2,
                ..NodeStats::default()
            },
        }];
        let text = render_metrics(3, &metrics);
        let kvs = parse_metric_line(text.trim()).expect("metric line");
        let get = |k: &str| kvs.iter().find(|(n, _)| n == k).map(|(_, v)| v.as_str());
        assert_eq!(get("strategy"), Some("blocked"));
        assert_eq!(get("rank"), Some("3"));
        assert_eq!(get("wall_us"), Some("1234"));
        assert_eq!(get("datagrams_sent"), Some("7"));
        assert_eq!(get("retransmits"), Some("2"));
    }

    #[test]
    fn a_crash_in_the_plan_is_refused_not_ignored() {
        let spec = WorkloadSpec {
            plan: Some("drop=0.05,crash=1@3".into()),
            ..WorkloadSpec::quick(2)
        };
        let err = run_workload(&spec, None).expect_err("crash= must not run");
        assert!(err.contains("crash= is not supported"), "{err}");
        let err = launch(Path::new("/nonexistent"), &spec, 0).expect_err("nor spawn");
        assert!(err.contains("crash= is not supported"), "{err}");
    }

    #[test]
    fn non_metric_lines_are_ignored() {
        assert!(parse_metric_line("plain stderr noise").is_none());
        assert!(parse_metric_line("#metrical but wrong prefix").is_none());
    }
}
