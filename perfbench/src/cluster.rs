//! The cluster as `W` real `genomedsm node` processes over loopback UDP, for
//! the ledger's `dsm.udp.*` probes. Not an end-to-end workload: under 15 %
//! loss a cluster run now and then does not end well (a rank deadlock was
//! seen once at 1 200 bp, and the benchmark's acceptance check saw a failed
//! run at 600 bp where 130 runs here saw none), and a workload's operations
//! may not fail. The ledger makes such a run again.

use crate::child::{Env, Exit, Running};
use crate::workloads::read;
use genomedsm::cluster::{ephemeral_manifest, parse_metric_line, WorkloadSpec};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The chaos plan's own seed is fixed: a datagram's fate is a hash of
/// (plan seed, link, sequence number), so the *same* share of the traffic
/// is lost whatever sequences `--seed` generates.
pub const LOSS15: &str = "seed=7,drop=0.15";

/// A healthy 400-bp run takes 2 s and one that hit a transport stall 5 s;
/// ranks that have deadlocked never end, and must not take the whole
/// benchmark run with them.
const CLUSTER_TIMEOUT: Duration = Duration::from_secs(20);

/// One `#metric` line of one rank: what one strategy's session cost it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankMetric {
    pub strategy: String,
    pub rank: usize,
    pub wall_us: u64,
    pub datagrams_sent: u64,
    pub retransmits: u64,
    pub dups_dropped: u64,
}

/// One whole-cluster run.
#[derive(Debug)]
pub struct ClusterRun {
    /// First spawn → last rank reaped.
    pub wall: Duration,
    /// Every rank exited 0 in time.
    pub ok: bool,
    /// Per rank: spawn → reaped.
    pub rank_walls: Vec<Duration>,
    pub stderrs: Vec<PathBuf>,
}

impl ClusterRun {
    pub fn metrics(&self) -> Result<Vec<RankMetric>, String> {
        let mut out = Vec::new();
        for path in &self.stderrs {
            out.extend(read(path)?.lines().filter_map(parse_rank_metric));
        }
        Ok(out)
    }
}

fn parse_rank_metric(line: &str) -> Option<RankMetric> {
    let kvs = parse_metric_line(line)?;
    let get = |key: &str| kvs.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str());
    let num = |key: &str| get(key)?.parse::<u64>().ok();
    Some(RankMetric {
        strategy: get("strategy")?.to_string(),
        rank: num("rank")? as usize,
        wall_us: num("wall_us")?,
        datagrams_sent: num("datagrams_sent")?,
        retransmits: num("retransmits")?,
        dups_dropped: num("dups_dropped")?,
    })
}

/// Spawns one `genomedsm node` per rank of `spec` on fresh loopback ports
/// and waits for all of them. `tag` names the files the run leaves in the
/// scratch directory; `session` must differ between runs so that one run's
/// stragglers are fenced from the next.
pub fn run_cluster(
    env: &Env,
    spec: &WorkloadSpec,
    tag: &str,
    session: u64,
) -> Result<ClusterRun, String> {
    let manifest = ephemeral_manifest(spec.procs)?;
    let manifest_path = env.path(&format!("{tag}.toml"));
    std::fs::write(&manifest_path, manifest.to_toml())
        .map_err(|e| format!("write {}: {e}", manifest_path.display()))?;
    let files = |kind: &str| -> Vec<PathBuf> {
        (0..spec.procs)
            .map(|r| env.path(&format!("{tag}-rank{r}.{kind}")))
            .collect()
    };
    let (stdouts, stderrs) = (files("out"), files("err"));

    let t0 = Instant::now();
    let mut ranks = Vec::with_capacity(spec.procs);
    for rank in 0..spec.procs {
        let mut cmd = env.genomedsm();
        cmd.arg("node")
            .args(["--rank", &rank.to_string()])
            .arg("--cluster")
            .arg(&manifest_path)
            .args(["--session", &session.to_string()])
            .args(["--len", &spec.len.to_string()])
            .args(["--seed", &spec.seed.to_string()])
            .args(["--procs", &spec.procs.to_string()]);
        if let Some(plan) = &spec.plan {
            cmd.args(["--plan", plan]);
        }
        ranks.push(Running::spawn(cmd, &stdouts[rank], &stderrs[rank])?);
    }
    // The slowest rank sets the time, so all are watched together.
    let deadline = t0 + CLUSTER_TIMEOUT;
    let mut exits: Vec<Option<Exit>> = vec![None; spec.procs];
    while exits.iter().any(Option::is_none) {
        for (rank, exit) in ranks.iter_mut().zip(exits.iter_mut()) {
            if exit.is_none() {
                *exit = rank.poll(deadline);
            }
        }
        std::thread::sleep(Duration::from_micros(500));
    }
    let wall = t0.elapsed();
    let exits: Vec<Exit> = exits.into_iter().flatten().collect();
    Ok(ClusterRun {
        wall,
        ok: exits.iter().all(|e| e.ok),
        rank_walls: exits.iter().map(|e| e.wall).collect(),
        stderrs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_metric_lines_parse() {
        let line = "#metric strategy=blocked rank=1 wall_us=1234 datagrams_sent=70 \
                    datagrams_received=68 retransmits=9 dups_dropped=2 measured_network_us=55";
        assert_eq!(
            parse_rank_metric(line),
            Some(RankMetric {
                strategy: "blocked".into(),
                rank: 1,
                wall_us: 1234,
                datagrams_sent: 70,
                retransmits: 9,
                dups_dropped: 2,
            })
        );
        assert_eq!(parse_rank_metric("rank 1 finished in 3.05s"), None);
    }
}
