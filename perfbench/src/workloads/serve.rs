//! `serve_cold`: unique one-query requests against a running `genomedsm
//! serve`, closed loop, `W` persistent connections.
//!
//! There is no warm (all cache hits) end-to-end workload. A hit is 30 – 70 µs
//! of thread hand-offs and almost none of the program's own work, and on two
//! cores the kernel places those wake-ups in one of two ways for minutes at a
//! time (median 28 µs with 5 ms stalls, or 67 µs without), so every quantile
//! of such a workload flips between runs of one binary. The cached path is
//! in the per-layer ledger instead (`serve.warm.*`, `serve.cache.*`,
//! `serve.proto.*`).

use super::db::{engine_config, walk_jobs, write_records, Ragged, TOP_K};
use super::{timed, BudgetRow, Measured, Workload};
use crate::child::{Env, Running, OP_TIMEOUT};
use crate::gen::{self, SplitMix64};
use crate::stats::median;
use crate::trace::Tracer;
use genomedsm::batch::{BatchEngine, Hit, ScoreMode, SeqDatabase};
use genomedsm::core::{sw_score_linear, Scoring};
use genomedsm::seq::random_dna;
use genomedsm::serve::{
    from_hex_line, to_hex_line, QueryKey, Request, Response, ResultCache, ServeClient, ServeError,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Throw-away requests each connection sends before anything is timed.
const WARM_UP_REQUESTS: usize = 10;

pub struct Serve {
    records: Ragged,
    query_len: usize,
    /// Distinct queries a run draws from, in order: forty times what a
    /// ten-second run sends today. A connection that finds the pool empty
    /// stops early.
    pool: usize,
    queries: Vec<Vec<u8>>,
    server: Option<Running>,
    clients: Vec<ServeClient>,
    /// First query not yet sent.
    next: usize,
    /// `(query, hits)` of every answer received.
    answers: Vec<(usize, Vec<Hit>)>,
    /// Answers that claimed to come from the cache: no query is sent twice.
    wrong: u64,
}

impl Serve {
    /// Unique 150-bp queries against 100 kbp: every request takes the
    /// engine path — admission, a cache miss and insert, one lane of
    /// sixteen busy — and the protocol twice.
    pub fn cold(smoke: bool) -> Self {
        Self {
            records: Ragged {
                count: if smoke { 40 } else { 400 },
                mean: 250,
                spread: 125,
            },
            query_len: 150,
            pool: if smoke { 2_000 } else { 20_000 },
            queries: Vec::new(),
            server: None,
            clients: Vec::new(),
            next: 0,
            answers: Vec::new(),
            wrong: 0,
        }
    }

    fn db_path(env: &Env) -> PathBuf {
        env.path("serve-db.fa")
    }

    fn socket(env: &Env) -> PathBuf {
        env.path("serve.sock")
    }

    fn connect(env: &Env, name: &str) -> Result<ServeClient, String> {
        let mut client =
            ServeClient::connect(Self::socket(env)).map_err(|e| format!("connect: {e}"))?;
        client.hello(name, 1).map_err(|e| format!("hello: {e}"))?;
        Ok(client)
    }

    fn start_server(&mut self, env: &Env) -> Result<(), String> {
        let socket = Self::socket(env);
        if socket.as_os_str().len() > 100 {
            return Err(format!(
                "socket path too long for sun_path: {}",
                socket.display()
            ));
        }
        let mut cmd = env.genomedsm();
        cmd.arg("serve")
            .arg("--db")
            .arg(Self::db_path(env))
            .arg("--socket")
            .arg(&socket)
            .args(["--service-workers", &env.workers.to_string()])
            .args(["--workers", "1"]);
        let mut server = Running::spawn(cmd, &env.path("serve.out"), &env.path("serve.err"))?;
        let deadline = Instant::now() + OP_TIMEOUT;
        // Ready means the first `hello` is answered.
        let first = loop {
            if let Ok(client) = Self::connect(env, "perf-0") {
                break client;
            }
            if server.poll(deadline).is_some() {
                return Err("genomedsm serve exited before accepting a connection".into());
            }
            std::thread::sleep(Duration::from_micros(500));
        };
        self.server = Some(server);
        self.clients.push(first);
        for c in 1..env.workers {
            self.clients.push(Self::connect(env, &format!("perf-{c}"))?);
        }
        Ok(())
    }

    /// A server's first second is slower than the rest of its life (its
    /// allocator is still sizing itself to the request shape: the same
    /// request takes 50 ms, then 37). Clients of a resident service see the
    /// rest of its life, so every connection sends some throw-away queries
    /// first; the time this takes is part of `setup_s`.
    fn warm_up(&mut self) -> Result<(), String> {
        let m = self.measure_requests(Duration::ZERO, WARM_UP_REQUESTS as u64, None);
        self.answers.clear();
        match m.failed {
            0 => Ok(()),
            n => Err(format!("{n} warm-up requests failed")),
        }
    }

    /// The closed loop: every connection sends its next unused query, waits
    /// for the answer, and repeats until `budget` has passed and it has
    /// sent `min_ops`. `tracer` gets a span per request.
    fn measure_requests(
        &mut self,
        budget: Duration,
        min_ops: u64,
        tracer: Option<&mut Tracer>,
    ) -> Measured {
        let Self {
            queries,
            clients,
            server,
            next,
            ..
        } = self;
        let (first, stride) = (*next, clients.len());
        let queries: &[Vec<u8>] = queries;
        let done = AtomicUsize::new(0);
        let phase_start_ns = tracer.as_ref().map_or(0, |t| t.now_ns());
        let t0 = Instant::now();
        let logs: Vec<ClientLog> = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    let done = &done;
                    scope.spawn(move || {
                        let mut log = ClientLog::default();
                        while t0.elapsed() < budget || log.attempted < min_ops {
                            let q = first + c + log.attempted as usize * stride;
                            let Some(query) = queries.get(q) else { break };
                            log.attempted += 1;
                            let start = t0.elapsed();
                            let reply = client.search(std::slice::from_ref(query), TOP_K, |_| {});
                            let end = t0.elapsed();
                            match reply {
                                Ok(mut summary) if summary.answers.len() == 1 => {
                                    log.requests
                                        .push((start.as_nanos() as u64, end.as_nanos() as u64));
                                    let answer = summary.answers.remove(0);
                                    log.cached += u64::from(answer.cached);
                                    log.answers.push((q, answer.hits));
                                }
                                // A malformed answer, or a refusal: the
                                // connection is still good.
                                Ok(_) | Err(ServeError::Overloaded { .. }) => log.failed += 1,
                                Err(_) => {
                                    log.failed += 1;
                                    break;
                                }
                            }
                        }
                        done.fetch_add(1, Ordering::SeqCst);
                        log
                    })
                })
                .collect();
            // A server that stops answering is killed, which ends every
            // blocked read with an error.
            let hard_stop = Instant::now() + budget + OP_TIMEOUT;
            while done.load(Ordering::SeqCst) < stride {
                if Instant::now() > hard_stop {
                    *server = None;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut m = Measured {
            connections: stride,
            ..Measured::default()
        };
        let mut last_end = 0u64;
        let mut tracer = tracer;
        for (c, log) in logs.into_iter().enumerate() {
            m.attempted += log.attempted;
            m.failed += log.failed;
            self.wrong += log.cached;
            *next = (*next).max(first + log.attempted as usize * stride);
            for (i, &(start, end)) in log.requests.iter().enumerate() {
                m.op_ms.push((end - start) as f64 / 1e6);
                last_end = last_end.max(end);
                if let Some(tracer) = tracer.as_deref_mut() {
                    let op = (c + i * stride) as u64;
                    tracer.record(
                        "serve.request",
                        op,
                        phase_start_ns + start,
                        phase_start_ns + end,
                    );
                }
            }
            self.answers.extend(log.answers);
        }
        m.wall_s = last_end as f64 / 1e9;
        m
    }
}

/// What one connection did during a measured phase.
#[derive(Default)]
struct ClientLog {
    /// `(start, end)` of each completed request, ns since the phase began.
    requests: Vec<(u64, u64)>,
    answers: Vec<(usize, Vec<Hit>)>,
    attempted: u64,
    failed: u64,
    cached: u64,
}

impl Workload for Serve {
    fn set_up(&mut self, env: &Env, seed: u64) -> Result<(), String> {
        let mut rng = SplitMix64::new(gen::sub_seed(seed, 0));
        let records = self.records.lengths(&mut rng);
        write_records(
            false,
            "r",
            &records,
            gen::sub_seed(seed, 1),
            &Self::db_path(env),
        )?;
        let q_seed = gen::sub_seed(seed, 3);
        self.queries = (0..self.pool)
            .map(|i| random_dna(self.query_len, gen::sub_seed(q_seed, i as u64)).into_bytes())
            .collect();
        self.start_server(env)?;
        self.warm_up()
    }

    fn tear_down(&mut self, env: &Env) {
        self.clients.clear();
        self.answers.clear();
        self.next = 0;
        if let Some(server) = self.server.take() {
            server.note_peak_rss();
            // Ask politely, so that the exit path is the one users take; a
            // server that does not leave is killed when `server` drops.
            let asked = ServeClient::connect(Self::socket(env))
                .and_then(|mut c| c.shutdown())
                .is_ok();
            if asked {
                server.wait(Instant::now() + Duration::from_secs(5));
            }
        }
    }

    fn measure(
        &mut self,
        _env: &Env,
        budget: Duration,
        min_ops: u64,
        tracer: &mut Tracer,
    ) -> Result<Measured, String> {
        Ok(self.measure_requests(budget, min_ops, Some(tracer)))
    }

    fn verify(&mut self, env: &Env) -> Result<u64, String> {
        let db = SeqDatabase::load_fasta_file(Self::db_path(env))
            .map_err(|e| format!("load db: {e}"))?;
        // Every answer against a local search of the same database.
        let refs: Vec<&[u8]> = self
            .answers
            .iter()
            .map(|(q, _)| self.queries[*q].as_slice())
            .collect();
        let local = BatchEngine::new(engine_config(ScoreMode::Dna, env.workers)).search(&db, &refs);
        let mut wrong = self.wrong;
        wrong += self
            .answers
            .iter()
            .zip(&local.hits)
            .filter(|((_, got), want)| got != *want)
            .count() as u64;
        // The local search is the engine too: re-score a sample of the
        // reported hits pair by pair with the scalar oracle.
        let step = (self.answers.len() / 8).max(1);
        for (q, hits) in self.answers.iter().step_by(step) {
            for h in hits {
                let r = sw_score_linear(&self.queries[*q], db.seq(h.target), &Scoring::paper(), 0);
                if (r.best_score, r.best_end) != (h.score, h.end) {
                    wrong += 1;
                }
            }
        }
        let stats = Self::connect(env, "perf-verify")?
            .stats()
            .map_err(|e| format!("stats: {e}"))?;
        Ok(wrong + stats.rejected + stats.protocol_errors)
    }

    fn cells_per_op(&self) -> f64 {
        (self.query_len * self.records.residues()) as f64
    }

    fn replay(&mut self, env: &Env, tracer: &mut Tracer) -> Result<Vec<BudgetRow>, String> {
        let db = SeqDatabase::load_fasta_file(Self::db_path(env))
            .map_err(|e| format!("load db: {e}"))?;
        let query = self.queries[0].clone();
        let median_of = |tracer: &mut Tracer, name: &str, reps: usize, f: &mut dyn FnMut()| {
            let walls: Vec<f64> = (0..reps).map(|_| timed(tracer, name, &mut *f).1).collect();
            median(&walls)
        };

        let request = Request::Search {
            id: 1,
            top_k: TOP_K as u32,
            queries: vec![query.clone()],
            scoring: None,
        };
        let request_s = median_of(tracer, "serve.proto.request", 200, &mut || {
            let line = to_hex_line(&request.encode());
            let frame = from_hex_line(&line).expect("own line");
            std::hint::black_box(Request::decode(&frame).expect("own frame"));
        });

        // The engine as the server runs it for one query: `--workers 1`.
        let engine = BatchEngine::new(engine_config(ScoreMode::Dna, 1));
        let refs = [query.as_slice()];
        let hits = Arc::new(engine.search(&db, &refs).hits[0].clone());
        let engine_s = median_of(tracer, "batch.engine.search", 5, &mut || {
            std::hint::black_box(engine.search(&db, &refs));
        });
        let walk = walk_jobs(&db, &refs, &ScoreMode::Dna, 1, tracer);

        let cache = ResultCache::new(1024);
        let key = QueryKey::of(&query);
        let cache_s = median_of(tracer, "serve.cache.miss_insert", 200, &mut || {
            std::hint::black_box(cache.get(key, TOP_K, 1, 1));
            cache.insert(key, TOP_K, 1, 1, Arc::clone(&hits));
            cache.purge_epoch(2);
        });

        let replies = [
            Response::Hits {
                id: 1,
                query: 0,
                cached: false,
                epoch: 1,
                hits: hits.to_vec(),
            },
            Response::Done { id: 1, queries: 1 },
        ];
        let reply_s = median_of(tracer, "serve.proto.response", 200, &mut || {
            for r in &replies {
                let frame = from_hex_line(&to_hex_line(&r.encode())).expect("own line");
                std::hint::black_box(Response::decode(&frame).expect("own frame"));
            }
        });

        let scale = (engine_s - walk.plan_s).max(0.0) / walk.job_s().max(1e-12);
        Ok(vec![
            BudgetRow {
                name: "request: encode + hex, unhex + decode (serve::proto)",
                seconds: request_s,
            },
            BudgetRow {
                name: "cache miss + insert (serve::cache)",
                seconds: cache_s,
            },
            BudgetRow {
                name: "plan (batch::planner)",
                seconds: walk.plan_s,
            },
            BudgetRow {
                name: "profile build (kernels packed profile)",
                seconds: walk.profile_s * scale,
            },
            BudgetRow {
                name: "kernel, 1 lane of 16 busy (kernels packed score)",
                seconds: walk.kernel_s * scale,
            },
            BudgetRow {
                name: "merge / top-k (batch::topk)",
                seconds: walk.topk_s * scale,
            },
            BudgetRow {
                name: "reply: encode + hex, unhex + decode (serve::proto)",
                seconds: reply_s,
            },
        ])
    }
}
