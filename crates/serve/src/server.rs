//! The Unix-socket alignment server.
//!
//! Thread layout (see DESIGN.md §5.11):
//!
//! ```text
//! listener ──accept──▶ per-connection reader ──Search──▶ admission queue
//!                          │ (Hello/Reload/Stats/                │ fair pick
//!                          │  Shutdown handled inline)           ▼
//!                          │                               worker pool
//!                          ▼                                     │
//!                    per-connection writer ◀──mpsc──────────────┘
//! ```
//!
//! * The **reader** thread parses hex lines into [`Request`]s. Admin
//!   requests (`Hello`, `Reload`, `Stats`, `Shutdown`) are answered
//!   inline — they must not sit behind queued searches. `Search` goes
//!   through [`AdmissionQueue::submit`]; a full queue answers
//!   [`Response::Overloaded`] immediately (refuse, never hang).
//! * **Workers** pull requests under the weighted fair policy, snapshot
//!   the database epoch once ([`EpochDb::current`] — held for the whole
//!   request, so a concurrent hot-reload cannot fail it), consult the
//!   result cache per query, batch the misses through the shared
//!   engine-core path, and stream each query's final top-k in ascending
//!   query order.
//! * The **writer** thread serializes responses from an unbounded mpsc
//!   channel, so a slow client blocks only its own writer — never a
//!   worker, never another client (the chaos e2e test injects exactly
//!   this).
//! * The **listener** joins the reader threads of ended connections on
//!   each accept, so the server holds thread resources only for live
//!   connections, not for every connection it ever accepted.
//!
//! Shutdown never sleeps or spins: a flag plus a self-connection to the
//! listener plus socket read timeouts wake every blocked thread.

use crate::admission::AdmissionQueue;
use crate::cache::{QueryKey, ResultCache};
use crate::epoch::EpochDb;
use crate::proto::{from_hex_line, to_hex_line, ClientLedger, Request, Response, ServiceStats};
use crate::ServeError;
use genomedsm_batch::{run, BatchConfig, BatchEngine, Hit, ScoreMode};
use genomedsm_core::submat::MatrixScoring;
use std::io::{Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// How often blocked reads re-check the shutdown flag.
const READ_TICK: Duration = Duration::from_millis(50);
/// Bound on a writer blocked against a dead-but-open client socket.
const WRITE_LIMIT: Duration = Duration::from_secs(10);

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Unix socket path to listen on (created at start, removed at stop).
    pub socket: PathBuf,
    /// FASTA file holding the initial database.
    pub db_path: PathBuf,
    /// Admission limit: queued requests beyond this are refused.
    pub queue_capacity: usize,
    /// Result-cache capacity in answers (0 disables caching).
    pub cache_capacity: usize,
    /// Service worker threads (each runs one request at a time).
    pub workers: usize,
    /// Engine configuration; `top_k` is the default when a request asks
    /// for 0.
    pub engine: BatchConfig,
}

impl ServerConfig {
    /// A config with serving defaults: queue of 16, cache of 1024,
    /// 2 workers.
    pub fn new(socket: impl Into<PathBuf>, db_path: impl Into<PathBuf>) -> Self {
        Self {
            socket: socket.into(),
            db_path: db_path.into(),
            queue_capacity: 16,
            cache_capacity: 1024,
            workers: 2,
            engine: BatchConfig::default(),
        }
    }
}

/// One queued search, carrying its response channel.
struct SearchJob {
    id: u64,
    top_k: usize,
    queries: Vec<Vec<u8>>,
    scoring: Option<MatrixScoring>,
    reply: Sender<Response>,
}

/// Cache-key fingerprint of a scoring mode. DNA linear-gap scoring is a
/// fixed sentinel (the config's `Scoring` never varies per request);
/// protein schemes hash the full matrix plus both gap penalties, so two
/// requests share a cache line only when every scoring parameter agrees.
fn mode_fingerprint(mode: &ScoreMode) -> u64 {
    match mode {
        ScoreMode::Dna => 0x646e_615f_6d6f_6465, // "dna_mode"
        ScoreMode::Protein(ms) => ms.fingerprint(),
    }
}

struct Shared {
    config: ServerConfig,
    queue: AdmissionQueue<SearchJob>,
    cache: ResultCache,
    db: EpochDb,
    shutdown: AtomicBool,
    protocol_errors: AtomicU64,
    anon: AtomicU64,
    conns: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    fn stats(&self) -> ServiceStats {
        let snap = self.db.current();
        let q = self.queue.stats();
        let c = self.cache.stats();
        ServiceStats {
            epoch: snap.epoch,
            records: snap.db.len() as u64,
            depth: q.depth,
            high_water: q.high_water,
            capacity: q.capacity,
            submitted: q.submitted,
            rejected: q.rejected,
            dispatched: q.dispatched,
            cache_hits: c.hits,
            cache_misses: c.misses,
            cache_inserts: c.inserts,
            cache_evicted: c.evicted,
            cache_stale_purged: c.stale_purged,
            protocol_errors: self.protocol_errors.load(Ordering::SeqCst),
            clients: q
                .clients
                .into_iter()
                .map(|s| ClientLedger {
                    client: s.client,
                    weight: s.weight,
                    submitted: s.submitted,
                    rejected: s.rejected,
                    dispatched: s.dispatched,
                    served_units: s.served_units,
                })
                .collect(),
        }
    }

    /// Wakes everything that could be blocked: workers (queue close),
    /// the listener (self-connect), readers (their read timeouts see the
    /// flag).
    fn initiate_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue.close();
        if let Ok(stream) = UnixStream::connect(&self.config.socket) {
            drop(stream);
        }
    }
}

/// A running alignment server; dropping it shuts it down.
pub struct Server {
    shared: Arc<Shared>,
    listener: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Loads the database from `config.db_path` and starts serving.
    ///
    /// # Errors
    /// [`ServeError`] if the database fails to load or the socket cannot
    /// be bound.
    pub fn start(config: ServerConfig) -> Result<Self, ServeError> {
        // A protein-mode engine gets a protein-alphabet database (and
        // protein-alphabet hot reloads); DNA otherwise.
        let db = match config.engine.mode {
            ScoreMode::Protein(_) => EpochDb::load_protein(&config.db_path)?,
            ScoreMode::Dna => EpochDb::load(&config.db_path)?,
        };
        Self::start_with(config, db)
    }

    /// Starts serving an already-loaded database.
    ///
    /// # Errors
    /// [`ServeError::Io`] if the socket cannot be bound.
    pub fn start_with(config: ServerConfig, db: EpochDb) -> Result<Self, ServeError> {
        if config.socket.exists() {
            std::fs::remove_file(&config.socket)
                .map_err(|e| ServeError::io(format!("remove stale {:?}", config.socket), e))?;
        }
        let listener = UnixListener::bind(&config.socket)
            .map_err(|e| ServeError::io(format!("bind {:?}", config.socket), e))?;
        let worker_count = config.workers.max(1);
        let shared = Arc::new(Shared {
            queue: AdmissionQueue::new(config.queue_capacity),
            cache: ResultCache::new(config.cache_capacity),
            db,
            shutdown: AtomicBool::new(false),
            protocol_errors: AtomicU64::new(0),
            anon: AtomicU64::new(0),
            conns: Mutex::new(Vec::new()),
            config,
        });
        let workers = (0..worker_count)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        let accept_shared = Arc::clone(&shared);
        let listener_handle = std::thread::spawn(move || accept_loop(&accept_shared, &listener));
        Ok(Self {
            shared,
            listener: Some(listener_handle),
            workers,
        })
    }

    /// The socket clients connect to.
    pub fn socket(&self) -> &Path {
        &self.shared.config.socket
    }

    /// A live statistics snapshot (same data as the `Stats` request).
    pub fn stats(&self) -> ServiceStats {
        self.shared.stats()
    }

    /// Blocks until a client sends `Shutdown`, then tears down and
    /// returns the final statistics. This is what `genomedsm serve`
    /// parks on.
    pub fn wait(mut self) -> ServiceStats {
        if let Some(h) = self.listener.take() {
            let _ = h.join();
        }
        self.teardown()
    }

    /// Initiates shutdown and tears down: pending accepted requests are
    /// drained (never dropped), threads are joined, the socket file is
    /// removed. Returns the final statistics.
    pub fn stop(mut self) -> ServiceStats {
        self.shared.initiate_shutdown();
        if let Some(h) = self.listener.take() {
            let _ = h.join();
        }
        self.teardown()
    }

    fn teardown(&mut self) -> ServiceStats {
        self.shared.initiate_shutdown();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        let conns = {
            let mut guard = self
                .shared
                .conns
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            std::mem::take(&mut *guard)
        };
        for h in conns {
            let _ = h.join();
        }
        std::fs::remove_file(&self.shared.config.socket).ok();
        self.shared.stats()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.listener.is_some() || !self.workers.is_empty() {
            self.shared.initiate_shutdown();
            if let Some(h) = self.listener.take() {
                let _ = h.join();
            }
            self.teardown();
        }
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: &UnixListener) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match stream {
            Ok(stream) => {
                let conn_shared = Arc::clone(shared);
                let handle = std::thread::spawn(move || connection_loop(&conn_shared, stream));
                // Join the connections that have ended: an unjoined thread
                // keeps its resources, so the server would grow with every
                // connection it ever accepted.
                let mut conns = shared.conns.lock().unwrap_or_else(PoisonError::into_inner);
                conns.push(handle);
                let (ended, live): (Vec<_>, Vec<_>) =
                    conns.drain(..).partition(JoinHandle::is_finished);
                *conns = live;
                drop(conns);
                for h in ended {
                    let _ = h.join();
                }
            }
            Err(_) => break,
        }
    }
}

/// Reads newline-delimited hex frames with a periodic shutdown check.
struct LineReader {
    stream: UnixStream,
    buf: Vec<u8>,
    pos: usize,
}

impl LineReader {
    fn new(stream: UnixStream) -> Self {
        stream.set_read_timeout(Some(READ_TICK)).ok();
        Self {
            stream,
            buf: Vec::new(),
            pos: 0,
        }
    }

    /// The next complete line, or `None` on EOF / error / shutdown.
    fn next_line(&mut self, shutdown: &AtomicBool) -> Option<String> {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(nl) = self.buf[self.pos..].iter().position(|&b| b == b'\n') {
                let line = String::from_utf8_lossy(&self.buf[self.pos..self.pos + nl]).into_owned();
                self.pos += nl + 1;
                if self.pos > 1 << 16 {
                    self.buf.drain(..self.pos);
                    self.pos = 0;
                }
                return Some(line);
            }
            if shutdown.load(Ordering::SeqCst) {
                return None;
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return None,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    continue;
                }
                Err(_) => return None,
            }
        }
    }
}

fn connection_loop(shared: &Arc<Shared>, stream: UnixStream) {
    let writer_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let (tx, rx) = mpsc::channel::<Response>();
    let writer = std::thread::spawn(move || writer_loop(writer_stream, &rx));

    let mut reader = LineReader::new(stream);
    let anon = shared.anon.fetch_add(1, Ordering::SeqCst);
    let mut client = format!("anon-{anon}");
    let mut weight: u64 = 1;

    while let Some(line) = reader.next_line(&shared.shutdown) {
        if line.trim().is_empty() {
            continue;
        }
        let req = match from_hex_line(&line).and_then(|f| Request::decode(&f).map_err(Into::into)) {
            Ok(req) => req,
            Err(e) => {
                shared.protocol_errors.fetch_add(1, Ordering::SeqCst);
                tx.send(Response::Error {
                    id: 0,
                    message: e.to_string(),
                })
                .ok();
                continue;
            }
        };
        match req {
            Request::Hello {
                client: name,
                weight: w,
            } => {
                client = name;
                weight = u64::from(w.max(1));
                let snap = shared.db.current();
                tx.send(Response::Welcome {
                    epoch: snap.epoch,
                    records: snap.db.len() as u64,
                })
                .ok();
            }
            Request::Search {
                id,
                top_k,
                queries,
                scoring,
            } => {
                let units = queries.len().max(1) as u64;
                let job = SearchJob {
                    id,
                    top_k: top_k as usize,
                    queries,
                    scoring,
                    reply: tx.clone(),
                };
                if let Err(over) = shared.queue.submit(&client, weight, units, job) {
                    tx.send(Response::Overloaded {
                        id,
                        depth: over.depth as u64,
                        limit: over.limit as u64,
                    })
                    .ok();
                }
            }
            Request::Reload { path } => match shared.db.reload(&path) {
                Ok(snap) => {
                    let purged = shared.cache.purge_epoch(snap.epoch);
                    tx.send(Response::Reloaded {
                        epoch: snap.epoch,
                        records: snap.db.len() as u64,
                        purged,
                    })
                    .ok();
                }
                Err(e) => {
                    tx.send(Response::Error {
                        id: 0,
                        message: e.to_string(),
                    })
                    .ok();
                }
            },
            Request::Stats => {
                tx.send(Response::StatsReply(shared.stats())).ok();
            }
            Request::Shutdown => {
                tx.send(Response::Done { id: 0, queries: 0 }).ok();
                shared.initiate_shutdown();
                break;
            }
        }
    }
    drop(tx);
    let _ = writer.join();
}

fn writer_loop(stream: UnixStream, rx: &mpsc::Receiver<Response>) {
    stream.set_write_timeout(Some(WRITE_LIMIT)).ok();
    let mut out = std::io::BufWriter::new(stream);
    while let Ok(resp) = rx.recv() {
        let line = to_hex_line(&resp.encode());
        if out
            .write_all(line.as_bytes())
            .and_then(|()| out.write_all(b"\n"))
            .and_then(|()| out.flush())
            .is_err()
        {
            break;
        }
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some((_client, job)) = shared.queue.next() {
        serve_job(shared, job);
    }
}

/// Serves one search: cache consults per query, one batch over the
/// misses, responses streamed in ascending query order, every computed
/// answer cached under the epoch it was computed against.
fn serve_job(shared: &Arc<Shared>, job: SearchJob) {
    let snap = shared.db.current();
    let epoch = snap.epoch;
    let top_k = if job.top_k == 0 {
        shared.config.engine.top_k
    } else {
        job.top_k
    };
    // A request-level scoring override replaces a protein server's matrix
    // for this job; otherwise the server's configured mode runs. A DNA
    // server holds nucleotide records, which no protein matrix can score.
    let mode = match (job.scoring, shared.config.engine.mode) {
        (Some(_), ScoreMode::Dna) => {
            job.reply
                .send(Response::Error {
                    id: job.id,
                    message: "scoring override sent to a server in DNA mode".into(),
                })
                .ok();
            return;
        }
        (Some(ms), ScoreMode::Protein(_)) => ScoreMode::Protein(ms),
        (None, mode) => mode,
    };
    let params = mode_fingerprint(&mode);
    let keys: Vec<QueryKey> = job.queries.iter().map(|q| QueryKey::of(q)).collect();
    let cached: Vec<Option<Arc<Vec<Hit>>>> = keys
        .iter()
        .map(|&k| shared.cache.get(k, top_k, epoch, params))
        .collect();
    let missed: Vec<usize> = (0..job.queries.len())
        .filter(|&q| cached[q].is_none())
        .collect();

    let send_hits = |q: usize, cached_hit: bool, hits: &[Hit]| {
        job.reply
            .send(Response::Hits {
                id: job.id,
                query: q as u32,
                cached: cached_hit,
                epoch,
                hits: hits.to_vec(),
            })
            .ok();
    };

    // Stream in ascending query order: computed answers arrive in
    // ascending (sub-)index order from the engine; cached answers are
    // interleaved ahead of each one, and flushed at the end.
    let mut next_to_send = 0usize;
    let flush_cached_below = |bound: usize, next_to_send: &mut usize| {
        while *next_to_send < bound {
            if let Some(hits) = &cached[*next_to_send] {
                send_hits(*next_to_send, true, hits);
            }
            *next_to_send += 1;
        }
    };

    if !missed.is_empty() {
        let engine = BatchEngine::new(BatchConfig {
            top_k,
            mode,
            ..shared.config.engine
        });
        let refs: Vec<&[u8]> = missed.iter().map(|&q| job.queries[q].as_slice()).collect();
        run::execute(&engine, &snap.db, &refs, |sub, hits| {
            let orig = missed[sub];
            flush_cached_below(orig, &mut next_to_send);
            send_hits(orig, false, hits);
            next_to_send = orig + 1;
            shared
                .cache
                .insert(keys[orig], top_k, epoch, params, Arc::new(hits.to_vec()));
        });
    }
    flush_cached_below(job.queries.len(), &mut next_to_send);
    job.reply
        .send(Response::Done {
            id: job.id,
            queries: job.queries.len() as u32,
        })
        .ok();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServeClient;
    use genomedsm_batch::SeqDatabase;
    use genomedsm_seq::fasta::FastaRecord;

    #[test]
    fn ended_connections_are_joined_on_accept() {
        let dir = std::env::temp_dir();
        let socket = dir.join(format!("gdsm-conns-{}.sock", std::process::id()));
        let record = FastaRecord {
            id: "r0".into(),
            seq: genomedsm_seq::random_dna(40, 1),
        };
        let db = EpochDb::new(
            SeqDatabase::from_records(vec![record]),
            dir.join("unused.fa"),
        );
        let server = Server::start_with(ServerConfig::new(&socket, "unused.fa"), db).unwrap();
        for _ in 0..100 {
            let mut client = ServeClient::connect(&socket).unwrap();
            client.stats().unwrap();
        }
        let retained = server.shared.conns.lock().unwrap().len();
        assert!(retained <= 10, "{retained} connection handles retained");
        server.stop();
    }
}
