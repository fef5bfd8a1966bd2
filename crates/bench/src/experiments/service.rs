//! The layers that run as real servers and processes: the always-on
//! alignment service (DESIGN.md §5.11) and the multi-process UDP cluster
//! (§5.12). Host time, with every answer checked bit-for-bit.

use super::Points;
use crate::report::{Report, Table};
use crate::{secs, workloads, HarnessArgs};
use genomedsm::cluster::{launch, WorkloadSpec};
use genomedsm_batch::{BatchConfig, BatchEngine, SeqDatabase};
use genomedsm_seq::fasta::write_fasta_file;
use genomedsm_seq::random_dna;
use genomedsm_serve::{ServeClient, Server, ServerConfig, ServiceStats};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const TOP_K: usize = 5;

/// Generates a serve database and writes it as FASTA; returns the same
/// records as a [`SeqDatabase`] for the local oracle.
fn serve_db_file(path: &Path, records: usize, t_len: usize, seed: u64) -> SeqDatabase {
    let recs = workloads::dna_records(records, t_len, seed);
    write_fasta_file(path, &recs).expect("write serve db");
    SeqDatabase::from_records(recs)
}

fn queries(count: usize, spread: usize, seed: u64) -> Vec<Vec<u8>> {
    (0..count)
        .map(|i| random_dna(32 + (i * 13) % spread, seed + i as u64).into_bytes())
        .collect()
}

/// A running server over the first of two generated databases, the
/// second ready for a hot reload, and the local engine every answer is
/// checked against. Database files and socket live in a scratch
/// directory that [`Service::finish`] removes.
struct Service {
    server: Server,
    scratch: PathBuf,
    dbs: [SeqDatabase; 2],
    db2_path: PathBuf,
    oracle: BatchEngine,
}

impl Service {
    /// `dbs` gives (records, seed) of the two databases.
    fn start(
        args: &HarnessArgs,
        dbs: [(usize, u64); 2],
        t_len: usize,
        tune: impl FnOnce(&mut ServerConfig),
    ) -> Self {
        let scratch = args.artifact("serve_scratch");
        std::fs::create_dir_all(&scratch).expect("scratch dir");
        let db1_path = scratch.join("db1.fa");
        let db2_path = scratch.join("db2.fa");
        let dbs = [
            serve_db_file(&db1_path, dbs[0].0, t_len, dbs[0].1),
            serve_db_file(&db2_path, dbs[1].0, t_len, dbs[1].1),
        ];
        let mut config = ServerConfig::new(scratch.join("serve.sock"), &db1_path);
        config.workers = 2;
        tune(&mut config);
        Self {
            server: Server::start(config).expect("start server"),
            scratch,
            dbs,
            db2_path,
            oracle: BatchEngine::new(BatchConfig {
                top_k: TOP_K,
                ..BatchConfig::default()
            }),
        }
    }

    /// The local engine's answer over database `epoch` (1 or 2).
    fn want(&self, epoch: usize, qs: &[Vec<u8>]) -> Vec<Vec<genomedsm_batch::Hit>> {
        let refs: Vec<&[u8]> = qs.iter().map(Vec::as_slice).collect();
        self.oracle.search(&self.dbs[epoch - 1], &refs).hits
    }

    fn client(&self, name: &str) -> ServeClient {
        let mut cl = ServeClient::connect(self.server.socket()).expect("connect");
        cl.hello(name, 1).expect("hello");
        cl
    }

    fn db2(&self) -> &str {
        self.db2_path.to_str().expect("utf8 path")
    }

    /// Stops the server and removes the scratch directory.
    fn finish(self) -> ServiceStats {
        let stats = self.server.stats();
        self.server.stop();
        std::fs::remove_dir_all(&self.scratch).ok();
        stats
    }
}

/// The always-on service. The sweep is a multi-client cold/warm pass
/// against a running server, then a hot reload under load; the gate is
/// one client's cold, warm and post-reload answers. Every answer —
/// computed or cached, before or after the reload — is checked
/// bit-for-bit against a local [`BatchEngine`] run.
pub fn serve(args: &HarnessArgs, points: Points, report: &mut Report) {
    if points == Points::Gate {
        let svc = Service::start(args, [(48, 17_000), (64, 18_000)], 192, |_| {});
        let qs = queries(12, 48, 19_000);
        let (want1, want2) = (svc.want(1, &qs), svc.want(2, &qs));
        let mut cl = svc.client("summary");
        let cold = cl.search(&qs, TOP_K, |_| {}).expect("cold search");
        let warm = cl.search(&qs, TOP_K, |_| {}).expect("warm search");
        let cold_ok = cold.hit_lists() == want1 && cold.answers.iter().all(|a| !a.cached);
        let warm_ok = warm.hit_lists() == want1 && warm.answers.iter().all(|a| a.cached);
        let (epoch, _records, purged) = cl.reload(svc.db2()).expect("reload");
        let after = cl.search(&qs, TOP_K, |_| {}).expect("post-reload search");
        let reload_ok = epoch == 2
            && after.hit_lists() == want2
            && after.answers.iter().all(|a| !a.cached && a.epoch == 2);
        let stats = svc.finish();
        report.claim(
            "service cache hits and hot reload are bit-exact (§5.11)",
            cold_ok && warm_ok && reload_ok && stats.protocol_errors == 0,
            format!(
                "cold/warm/post-reload all match the local engine; warm fully cached; \
                 reload purged {purged} entries; {} protocol errors",
                stats.protocol_errors
            ),
        );
        return;
    }

    let reqs_per_client = 2;
    let svc = Service::start(args, [(96, 7_000), (128, 8_000)], 256, |config| {
        config.queue_capacity = 64;
        config.cache_capacity = 4096;
    });
    let mut tab = Table::new(
        "Always-on service: cold/warm multi-client sweep, single host",
        &[
            "clients",
            "phase",
            "time (s)",
            "req/s",
            "answers",
            "cached",
            "identical",
        ],
    );
    for &clients in &[1usize, 2, 4] {
        // A fresh query set per client count keeps the cold pass cold
        // (the server cache persists across the sweep).
        let qs = queries(48, 64, 11_000 + clients as u64 * 997);
        let want = svc.want(1, &qs);
        for phase in ["cold", "warm"] {
            let t0 = Instant::now();
            let per_client: Vec<(usize, usize, bool)> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..clients)
                    .map(|c| {
                        let (qs, want, svc) = (&qs, &want, &svc);
                        scope.spawn(move || {
                            let mut cl = svc.client(&format!("bench-{c}"));
                            let mut answers = 0usize;
                            let mut cached = 0usize;
                            let mut identical = true;
                            for _ in 0..reqs_per_client {
                                let sum = cl.search(qs, TOP_K, |_| {}).expect("search");
                                answers += sum.answers.len();
                                cached += sum.answers.iter().filter(|a| a.cached).count();
                                identical &= sum.hit_lists() == *want;
                            }
                            (answers, cached, identical)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client"))
                    .collect()
            });
            let elapsed = t0.elapsed();
            let answers: usize = per_client.iter().map(|r| r.0).sum();
            let cached: usize = per_client.iter().map(|r| r.1).sum();
            assert!(
                per_client.iter().all(|r| r.2),
                "{clients}-client {phase} pass diverged from local engine"
            );
            let requests = clients * reqs_per_client;
            tab.row(&[
                clients.to_string(),
                phase.into(),
                secs(elapsed),
                format!("{:.1}", requests as f64 / elapsed.as_secs_f64()),
                answers.to_string(),
                cached.to_string(),
                "yes".into(),
            ]);
            eprintln!("[serve] {clients} clients / {phase} done");
        }
    }

    // Hot reload under load: a runner hammers one query set while an
    // admin swaps the database; every answer must match the local oracle
    // for whichever epoch the server says it was computed against.
    let qs = queries(24, 64, 15_000);
    let (want1, want2) = (svc.want(1, &qs), svc.want(2, &qs));
    let (e1_answers, e2_answers, mismatched) = std::thread::scope(|scope| {
        let runner = scope.spawn(|| {
            let mut cl = svc.client("reload-runner");
            let (mut e1, mut e2, mut bad) = (0usize, 0usize, 0usize);
            // Hammer until a full post-reload pass has been seen
            // (bounded, in case the reload fails outright).
            for round in 0..400 {
                let sum = cl.search(&qs, TOP_K, |_| {}).expect("search under reload");
                for a in &sum.answers {
                    let want = if a.epoch == 1 { &want1 } else { &want2 };
                    if a.hits != want[a.query] {
                        bad += 1;
                    } else if a.epoch == 1 {
                        e1 += 1;
                    } else {
                        e2 += 1;
                    }
                }
                if round >= 40 && e2 >= qs.len() {
                    break;
                }
            }
            (e1, e2, bad)
        });
        let admin = scope.spawn(|| {
            let mut cl = ServeClient::connect(svc.server.socket()).expect("connect admin");
            std::thread::sleep(Duration::from_millis(20));
            cl.reload(svc.db2()).expect("reload")
        });
        let (epoch, records, purged) = admin.join().expect("admin");
        eprintln!(
            "[serve] reload -> epoch {epoch}, {records} records, {purged} cache entries purged"
        );
        runner.join().expect("runner")
    });
    assert_eq!(
        mismatched, 0,
        "answers under reload diverged from their epoch's oracle"
    );

    let stats = svc.finish();
    assert_eq!(stats.protocol_errors, 0, "service saw protocol errors");
    report.table("serve.csv", tab);
    report.note(format!(
        "(reload under load: {e1_answers} epoch-1 + {e2_answers} epoch-2 answers, 0 mismatches;\n \
         cache {} hits / {} misses, {} purged by reload; {} rejected, {} protocol errors)",
        stats.cache_hits,
        stats.cache_misses,
        stats.cache_stale_purged,
        stats.rejected,
        stats.protocol_errors
    ));
}

/// Resolves the `genomedsm` CLI binary, which `cluster::launch` re-execs
/// as the per-rank `node` processes. Cargo places every workspace binary
/// in the same target directory, so it lives next to this harness.
fn genomedsm_exe() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = me
        .parent()
        .ok_or_else(|| "harness binary has no parent directory".to_string())?;
    let exe = dir.join(format!("genomedsm{}", std::env::consts::EXE_SUFFIX));
    if exe.is_file() {
        Ok(exe)
    } else {
        Err(format!(
            "{} not found — build the workspace (`cargo build --release`) so the \
             genomedsm CLI sits next to the paper harness",
            exe.display()
        ))
    }
}

/// The full strategy workload as real OS processes over loopback UDP at
/// increasing injected drop rates (plus corruption, duplication and
/// reordering whenever drop > 0). The gate is four ranks at 15 % loss,
/// with the transport counters proving the loss was real and absorbed.
pub fn sockets(args: &HarnessArgs, points: Points, report: &mut Report) {
    const CLAIM: &str = "4-process UDP run bit-identical under 15% datagram loss (§5.12)";
    let exe = match genomedsm_exe() {
        Ok(exe) => exe,
        Err(e) => {
            report.failure = Some(format!("sockets: {e}"));
            report.claim(CLAIM, false, e);
            return;
        }
    };
    let len = args.size(8_000);
    let (ranks, drops, session_base): (usize, &[f64], u64) = match points {
        Points::Sweep => (args.max_procs().max(2), &[0.0, 0.05, 0.15, 0.25], 1_000),
        Points::Gate => (4, &[0.15], 2_000),
    };
    let mut tab = Table::new(
        &format!(
            "Sockets sweep: {ranks} OS processes over loopback UDP, {len} bp x {len} bp \
             (corrupt 3%, dup 5%, reorder 10% whenever drop > 0)"
        ),
        &[
            "drop",
            "identical",
            "datagrams",
            "retransmits",
            "host time (s)",
        ],
    );
    for (i, &drop) in drops.iter().enumerate() {
        let plan =
            (drop > 0.0).then(|| format!("seed=11,drop={drop},corrupt=0.03,dup=0.05,reorder=0.1"));
        let spec = WorkloadSpec {
            len,
            seed: 42,
            procs: ranks,
            plan,
        };
        let t0 = Instant::now();
        // `launch` itself asserts every rank's report is byte-identical
        // and matches a clean in-process reference run.
        let out = launch(&exe, &spec, session_base + (i as u64) * 10);
        let host = t0.elapsed();
        let percent = format!("{:.0}%", drop * 100.0);
        match out {
            Ok(out) => {
                tab.row(&[
                    percent,
                    "yes".into(),
                    out.datagrams_sent.to_string(),
                    out.retransmits.to_string(),
                    secs(host),
                ]);
                if points == Points::Gate {
                    report.claim(
                        CLAIM,
                        out.retransmits > 0,
                        format!(
                            "{ranks} processes over UDP, reports bit-identical to in-process \
                             ({} datagrams, {} retransmits)",
                            out.datagrams_sent, out.retransmits
                        ),
                    );
                }
            }
            Err(e) => {
                eprintln!("[sockets] drop={drop} FAILED: {e}");
                tab.row(&[percent, "NO".into(), "-".into(), "-".into(), secs(host)]);
                report.failure =
                    Some("sockets: at least one multi-process run diverged".to_string());
                if points == Points::Gate {
                    report.claim(CLAIM, false, e);
                }
            }
        }
        eprintln!("[sockets] drop={drop} done");
    }
    report.table("sockets.csv", tab);
}
