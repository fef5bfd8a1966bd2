//! End-to-end service tests over a real Unix socket: the acceptance
//! demonstrations of ISSUE 6 — cached ≡ recomputed, hot-reload with zero
//! failed in-flight requests, typed overload rejection (never a hang),
//! per-client fairness in the stats ledger, and zero protocol errors.

use genomedsm_batch::{oracle_search, BatchConfig, BatchEngine, SchedulerConfig, SeqDatabase};
use genomedsm_core::Scoring;
use genomedsm_seq::fasta::{write_fasta_file, FastaRecord};
use genomedsm_seq::random_dna;
use genomedsm_serve::{ServeClient, ServeError, Server, ServerConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gdsm-e2e-{}-{name}", std::process::id()))
}

fn write_db(path: &PathBuf, n: usize, len: usize, seed: u64) -> SeqDatabase {
    let records: Vec<FastaRecord> = (0..n)
        .map(|i| FastaRecord {
            id: format!("r{i}"),
            seq: random_dna(len / 2 + (i * 13) % len.max(1), seed + i as u64),
        })
        .collect();
    write_fasta_file(path, &records).unwrap();
    SeqDatabase::from_records(
        records
            .iter()
            .map(|r| FastaRecord {
                id: r.id.clone(),
                seq: r.seq.clone(),
            })
            .collect(),
    )
}

fn queries(n: usize, len: usize, seed: u64) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| random_dna(len / 2 + (i * 7) % len.max(1), seed ^ (i as u64) << 3).into_bytes())
        .collect()
}

fn local_answer(db: &SeqDatabase, qs: &[Vec<u8>], top_k: usize) -> Vec<Vec<genomedsm_batch::Hit>> {
    let engine = BatchEngine::new(BatchConfig {
        top_k,
        ..BatchConfig::default()
    });
    let refs: Vec<&[u8]> = qs.iter().map(Vec::as_slice).collect();
    engine.search(db, &refs).hits
}

#[test]
fn cached_and_recomputed_answers_are_bit_identical() {
    let db_path = tmp("cache-db.fa");
    let db = write_db(&db_path, 20, 60, 11);
    let server = Server::start(ServerConfig::new(tmp("cache.sock"), &db_path)).unwrap();

    let qs = queries(7, 50, 5);
    let want = local_answer(&db, &qs, 5);

    let mut client = ServeClient::connect(server.socket()).unwrap();
    client.hello("alice", 1).unwrap();

    // Cold pass: everything computed; answers equal the local engine's.
    let cold = client.search(&qs, 5, |_| {}).unwrap();
    assert!(cold.answers.iter().all(|a| !a.cached));
    assert_eq!(cold.hit_lists(), want);

    // Warm pass: everything served from cache, byte-identical.
    let warm = client.search(&qs, 5, |_| {}).unwrap();
    assert!(warm.answers.iter().all(|a| a.cached), "all answers cached");
    assert_eq!(warm.hit_lists(), want, "cache hit == recompute");

    // Streaming order: ascending query index, a prefix of the final
    // answer at every step.
    let mut seen = Vec::new();
    let third = client
        .search(&qs, 5, |qh| {
            assert_eq!(qh.query, seen.len());
            seen.push(qh.hits.clone());
            assert_eq!(seen[..], want[..seen.len()], "prefix property");
        })
        .unwrap();
    assert_eq!(third.hit_lists(), want);

    // A one-query request is a lane group of one, which the engine runs
    // striped over the whole vector: same answer as the scalar scan, and
    // the replay comes from the cache.
    let scan = |qs: &[Vec<u8>]| {
        let refs: Vec<&[u8]> = qs.iter().map(Vec::as_slice).collect();
        oracle_search(&db, &refs, &Scoring::paper(), 5)
    };
    let fresh = queries(3, 120, 41);
    let one = &fresh[..1];
    let cold = client.search(one, 5, |_| {}).unwrap();
    assert!(!cold.answers[0].cached);
    assert_eq!(cold.hit_lists(), scan(one));
    let replay = client.search(one, 5, |_| {}).unwrap();
    assert!(replay.answers[0].cached);
    assert_eq!(replay.hit_lists(), scan(one));

    // Three queries with the middle one cached: the two misses are one
    // (striped) group, and the answers still stream in ascending order.
    let trio = vec![fresh[1].clone(), fresh[0].clone(), fresh[2].clone()];
    let mut order = Vec::new();
    let mixed = client.search(&trio, 5, |qh| order.push(qh.query)).unwrap();
    assert_eq!(order, [0, 1, 2]);
    let from_cache: Vec<bool> = mixed.answers.iter().map(|a| a.cached).collect();
    assert_eq!(from_cache, [false, true, false]);
    assert_eq!(mixed.hit_lists(), scan(&trio));

    let stats = server.stop();
    assert_eq!(stats.protocol_errors, 0);
    assert!(stats.cache_hits >= qs.len() as u64 * 2);
    std::fs::remove_file(&db_path).ok();
}

#[test]
fn hot_reload_mid_run_fails_no_inflight_request() {
    let db1_path = tmp("reload-db1.fa");
    let db2_path = tmp("reload-db2.fa");
    let db1 = write_db(&db1_path, 16, 50, 21);
    let db2 = write_db(&db2_path, 24, 50, 99);
    let server = Server::start(ServerConfig::new(tmp("reload.sock"), &db1_path)).unwrap();
    let socket = server.socket().to_path_buf();

    let qs = queries(5, 40, 17);
    let want_epoch1 = local_answer(&db1, &qs, 4);
    let want_epoch2 = local_answer(&db2, &qs, 4);

    // A worker hammers searches while the main thread reloads mid-run.
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let qs2 = qs.clone();
    let runner = std::thread::spawn(move || {
        let mut client = ServeClient::connect(&socket).unwrap();
        client.hello("steady", 1).unwrap();
        let mut epochs_seen = Vec::new();
        let mut completed = 0u64;
        while !stop2.load(Ordering::SeqCst) {
            let summary = client
                .search(&qs2, 4, |_| {})
                .expect("in-flight search failed");
            for a in &summary.answers {
                // Every answer must match the database of the epoch it
                // claims — stale hits would disagree.
                let want = match a.epoch {
                    1 => &want_epoch1[a.query],
                    2 => &want_epoch2[a.query],
                    e => panic!("unexpected epoch {e}"),
                };
                assert_eq!(&a.hits, want, "epoch {} answer exact", a.epoch);
                epochs_seen.push(a.epoch);
            }
            completed += 1;
        }
        (completed, epochs_seen)
    });

    // Let a few searches land, then hot-reload.
    std::thread::sleep(Duration::from_millis(100));
    let mut admin = ServeClient::connect(server.socket()).unwrap();
    let (epoch, records, _purged) = admin.reload(db2_path.to_str().unwrap()).unwrap();
    assert_eq!(epoch, 2);
    assert_eq!(records, 24);
    std::thread::sleep(Duration::from_millis(100));
    stop.store(true, Ordering::SeqCst);
    let (completed, epochs_seen) = runner.join().unwrap();

    assert!(completed > 0, "runner made progress");
    assert!(epochs_seen.contains(&2), "post-reload answers on epoch 2");
    let stats = server.stop();
    assert_eq!(stats.protocol_errors, 0);
    std::fs::remove_file(&db1_path).ok();
    std::fs::remove_file(&db2_path).ok();
}

#[test]
fn overload_rejects_typed_and_never_hangs() {
    let db_path = tmp("overload-db.fa");
    write_db(&db_path, 120, 400, 31);
    let mut config = ServerConfig::new(tmp("overload.sock"), &db_path);
    config.queue_capacity = 1;
    config.workers = 1;
    config.cache_capacity = 0; // every request must really compute
    config.engine.scheduler = SchedulerConfig {
        workers: 1,
        window: 1,
    };
    let server = Server::start(config).unwrap();

    // Fire eight heavy searches concurrently: capacity 1 + a single
    // slow worker ⇒ admission control must refuse some, answer all.
    let heavy = queries(4, 800, 3);
    let socket = server.socket().to_path_buf();
    let handles: Vec<_> = (0..8)
        .map(|i| {
            let socket = socket.clone();
            let heavy = heavy.clone();
            std::thread::spawn(move || {
                let mut c = ServeClient::connect(&socket).unwrap();
                c.hello(&format!("storm-{i}"), 1).unwrap();
                match c.search(&heavy, 3, |_| {}) {
                    Ok(_) => (1u64, 0u64),
                    Err(ServeError::Overloaded { depth, limit }) => {
                        assert_eq!(limit, 1);
                        assert!(depth >= 1);
                        (0, 1)
                    }
                    Err(other) => panic!("unexpected error: {other}"),
                }
            })
        })
        .collect();
    let (mut done, mut rejected) = (0u64, 0u64);
    for h in handles {
        let (d, r) = h.join().unwrap();
        done += d;
        rejected += r;
    }
    assert_eq!(done + rejected, 8, "every request answered: no hang");
    assert!(rejected > 0, "admission control rejected under overload");
    let stats = server.stop();
    assert_eq!(stats.rejected, rejected);
    assert_eq!(stats.dispatched, done);
    assert_eq!(stats.protocol_errors, 0);
    assert!(stats.high_water <= 1, "queue depth never exceeded capacity");
    std::fs::remove_file(&db_path).ok();
}

#[test]
fn slow_client_does_not_stall_fast_client() {
    let db_path = tmp("chaos-db.fa");
    write_db(&db_path, 30, 80, 41);
    let mut config = ServerConfig::new(tmp("chaos.sock"), &db_path);
    config.workers = 2;
    let server = Server::start(config).unwrap();
    let socket = server.socket().to_path_buf();

    // Chaos-injected slow client: reads its streamed answers with a
    // delay per message, keeping its connection (and socket buffer)
    // dawdling for the whole test.
    let slow_socket = socket.clone();
    let slow = std::thread::spawn(move || {
        let mut c = ServeClient::connect(&slow_socket).unwrap();
        c.hello("slow", 1).unwrap();
        let qs = queries(6, 60, 77);
        c.search(&qs, 4, |_| {
            std::thread::sleep(Duration::from_millis(150));
        })
        .unwrap();
    });

    // Meanwhile the fast client must complete a burst of searches.
    let mut fast = ServeClient::connect(&socket).unwrap();
    fast.hello("fast", 1).unwrap();
    let qs = queries(3, 40, 7);
    let start = std::time::Instant::now();
    for _ in 0..10 {
        fast.search(&qs, 3, |_| {}).unwrap();
    }
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "fast client unimpeded by the slow one"
    );
    slow.join().unwrap();

    let stats = server.stop();
    assert_eq!(stats.protocol_errors, 0);
    let ledger: Vec<_> = stats.clients.iter().map(|c| c.client.as_str()).collect();
    assert!(ledger.contains(&"fast") && ledger.contains(&"slow"));
    std::fs::remove_file(&db_path).ok();
}

#[test]
fn fairness_ledger_accounts_per_client() {
    let db_path = tmp("fair-db.fa");
    write_db(&db_path, 25, 60, 51);
    let mut config = ServerConfig::new(tmp("fair.sock"), &db_path);
    config.workers = 1; // serialize dispatch so the ledger is exact
    let server = Server::start(config).unwrap();
    let socket = server.socket().to_path_buf();

    let handles: Vec<_> = [("ant", 1u32, 6usize), ("bee", 2, 6)]
        .into_iter()
        .map(|(name, weight, reqs)| {
            let socket = socket.clone();
            std::thread::spawn(move || {
                let mut c = ServeClient::connect(&socket).unwrap();
                c.hello(name, weight).unwrap();
                let qs = queries(4, 50, weight as u64 * 1000);
                for _ in 0..reqs {
                    c.search(&qs, 3, |_| {}).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let stats = server.stop();
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(stats.clients.len(), 2);
    for row in &stats.clients {
        assert_eq!(row.submitted, 6, "{}", row.client);
        assert_eq!(row.dispatched, 6, "{}", row.client);
        assert_eq!(row.served_units, 24, "{}", row.client);
        assert_eq!(row.rejected, 0, "{}", row.client);
    }
    let weights: Vec<u64> = stats.clients.iter().map(|c| c.weight).collect();
    assert_eq!(weights, vec![1, 2], "ant then bee, weights recorded");
    std::fs::remove_file(&db_path).ok();
}

#[test]
fn remote_shutdown_stops_the_server() {
    let db_path = tmp("shutdown-db.fa");
    write_db(&db_path, 5, 40, 61);
    let server = Server::start(ServerConfig::new(tmp("shutdown.sock"), &db_path)).unwrap();
    let socket = server.socket().to_path_buf();

    let waiter = std::thread::spawn(move || server.wait());
    let mut client = ServeClient::connect(&socket).unwrap();
    client.shutdown().unwrap();
    let stats = waiter.join().unwrap();
    assert_eq!(stats.protocol_errors, 0);
    assert!(!socket.exists(), "socket file removed on teardown");
    std::fs::remove_file(&db_path).ok();
}

#[test]
fn protein_mode_serves_gotoh_answers_with_params_keyed_caching() {
    use genomedsm_batch::{oracle_search_mode, ScoreMode, SeqDatabase};
    use genomedsm_core::scoring::Scoring;
    use genomedsm_core::submat::{MatrixScoring, SubstMatrix};
    use genomedsm_seq::fasta::{write_protein_fasta_file, ProteinRecord};
    use genomedsm_seq::random_protein;

    let db_path = tmp("protein-db.fa");
    let records: Vec<ProteinRecord> = (0..15)
        .map(|i| ProteinRecord {
            id: format!("p{i}"),
            seq: random_protein(30 + (i * 7) % 40, 900 + i as u64),
        })
        .collect();
    write_protein_fasta_file(&db_path, &records).unwrap();
    let db = SeqDatabase::from_protein_records(records);

    // The server's configured mode is protein BLOSUM62: the database
    // loads (and would hot-reload) through the protein parser.
    let blosum = MatrixScoring::blosum62();
    let mut config = ServerConfig::new(tmp("protein.sock"), &db_path);
    config.engine.mode = ScoreMode::Protein(blosum);
    let server = Server::start(config).unwrap();

    let qs: Vec<Vec<u8>> = (0..5)
        .map(|i| random_protein(20 + i, 700 + i as u64).into_bytes())
        .collect();
    let refs: Vec<&[u8]> = qs.iter().map(Vec::as_slice).collect();
    let top_k = 4;

    let mut client = ServeClient::connect(server.socket()).unwrap();
    client.hello("prot", 1).unwrap();

    // Default mode (no override): the scalar Gotoh oracle's answer,
    // byte for byte.
    let want_blosum = oracle_search_mode(
        &db,
        &refs,
        &ScoreMode::Protein(blosum),
        &Scoring::paper(),
        top_k,
    );
    let cold = client.search(&qs, top_k, |_| {}).unwrap();
    assert_eq!(cold.hit_lists(), want_blosum);
    assert!(cold.answers.iter().all(|a| !a.cached));

    // Same queries under a DIFFERENT scheme (PAM250, other gaps): the
    // override travels in the request; the params-keyed cache must MISS
    // — a BLOSUM62 answer can never be served for a PAM250 ask.
    let pam = MatrixScoring::new(SubstMatrix::pam250(), -10, -2);
    let want_pam = oracle_search_mode(
        &db,
        &refs,
        &ScoreMode::Protein(pam),
        &Scoring::paper(),
        top_k,
    );
    let other = client.search_scored(&qs, top_k, Some(pam), |_| {}).unwrap();
    assert_eq!(other.hit_lists(), want_pam);
    assert!(
        other.answers.iter().all(|a| !a.cached),
        "different scoring params must never hit the cache"
    );

    // Warm passes under each scheme hit their own cache lines and stay
    // bit-identical.
    let warm = client.search(&qs, top_k, |_| {}).unwrap();
    assert!(warm.answers.iter().all(|a| a.cached));
    assert_eq!(warm.hit_lists(), want_blosum);
    let warm_pam = client.search_scored(&qs, top_k, Some(pam), |_| {}).unwrap();
    assert!(warm_pam.answers.iter().all(|a| a.cached));
    assert_eq!(warm_pam.hit_lists(), want_pam);

    let stats = server.stop();
    assert_eq!(stats.protocol_errors, 0);
    std::fs::remove_file(&db_path).ok();
}

#[test]
fn scoring_override_on_a_dna_server_is_a_typed_error() {
    use genomedsm_core::submat::MatrixScoring;
    let db_path = tmp("dna-override-db.fa");
    let db = write_db(&db_path, 6, 40, 31);
    let server = Server::start(ServerConfig::new(tmp("dna-override.sock"), &db_path)).unwrap();
    let qs = queries(3, 30, 9);

    let mut client = ServeClient::connect(server.socket()).unwrap();
    client.hello("mixed-up", 1).unwrap();
    // Nucleotide records must never be scored under a protein matrix.
    let refused = client.search_scored(&qs, 3, Some(MatrixScoring::blosum62()), |_| {});
    assert!(
        matches!(refused, Err(ServeError::Server(ref m)) if m.contains("DNA mode")),
        "got {refused:?}"
    );
    // The connection and the DNA path are unharmed.
    let plain = client.search(&qs, 3, |_| {}).unwrap();
    assert_eq!(plain.hit_lists(), local_answer(&db, &qs, 3));

    let stats = server.stop();
    assert_eq!(stats.protocol_errors, 0);
    std::fs::remove_file(&db_path).ok();
}

#[test]
fn bad_gap_penalties_are_a_typed_error_and_leave_the_worker_alive() {
    use genomedsm_batch::ScoreMode;
    use genomedsm_core::submat::MatrixScoring;
    use genomedsm_seq::fasta::{write_protein_fasta_file, ProteinRecord};
    use genomedsm_seq::random_protein;

    let db_path = tmp("bad-gaps-db.fa");
    let records: Vec<ProteinRecord> = (0..8)
        .map(|i| ProteinRecord {
            id: format!("p{i}"),
            seq: random_protein(40, 300 + i as u64),
        })
        .collect();
    write_protein_fasta_file(&db_path, &records).unwrap();
    let mut config = ServerConfig::new(tmp("bad-gaps.sock"), &db_path);
    config.engine.mode = ScoreMode::Protein(MatrixScoring::blosum62());
    config.workers = 1;
    let server = Server::start(config).unwrap();
    let socket = server.socket().to_path_buf();

    // A zero extension used to kill the only worker mid-job, so neither
    // this request nor the valid one behind it was ever answered: the
    // exchange runs under a deadline instead of hanging the suite.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut client = ServeClient::connect(&socket).unwrap();
        client.hello("gaps", 1).unwrap();
        let qs = vec![random_protein(15, 5).into_bytes()];
        let bad = MatrixScoring {
            gap_extend: 0,
            ..MatrixScoring::blosum62()
        };
        let refused = client.search_scored(&qs, 3, Some(bad), |_| {});
        let valid = client.search(&qs, 3, |_| {}).map(|a| a.hit_lists());
        tx.send((refused, valid)).ok();
    });
    let (refused, valid) = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("both requests answered");
    assert!(
        matches!(refused, Err(ServeError::Server(ref m)) if m.contains("gap penalties")),
        "got {refused:?}"
    );
    assert_eq!(valid.unwrap().len(), 1);

    let stats = server.stop();
    assert_eq!(stats.protocol_errors, 1);
    assert_eq!((stats.submitted, stats.dispatched), (1, 1));
    std::fs::remove_file(&db_path).ok();
}

#[test]
fn malformed_lines_are_counted_and_answered_not_fatal() {
    use std::io::{BufRead, BufReader, Write};
    let db_path = tmp("garbage-db.fa");
    write_db(&db_path, 5, 40, 71);
    let server = Server::start(ServerConfig::new(tmp("garbage.sock"), &db_path)).unwrap();

    let mut raw = std::os::unix::net::UnixStream::connect(server.socket()).unwrap();
    raw.write_all(b"not-hex-at-all\n").unwrap();
    raw.write_all(b"abcd\n").unwrap(); // valid hex, garbage frame
    let mut reader = BufReader::new(raw.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let frame = genomedsm_serve::from_hex_line(&line).unwrap();
    assert!(matches!(
        genomedsm_serve::Response::decode(&frame).unwrap(),
        genomedsm_serve::Response::Error { .. }
    ));

    // The same server keeps serving a healthy client afterwards.
    let mut client = ServeClient::connect(server.socket()).unwrap();
    let (epoch, records) = client.hello("healthy", 1).unwrap();
    assert_eq!((epoch, records), (1, 5));

    let stats = server.stop();
    assert_eq!(stats.protocol_errors, 2);
    std::fs::remove_file(&db_path).ok();
}
