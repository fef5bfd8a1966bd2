//! Strategy 3 (§5): the exact pre-process strategy.
//!
//! "The key goal of this third strategy was to calculate the similar array
//! for local sequence alignment *without introducing heuristics*". No
//! candidate-alignment tracking is kept; instead:
//!
//! * rows are grouped into **bands** assigned cyclically to nodes; a band
//!   is processed **by columns**, and once the bottom of a column group
//!   (a **chunk** of the *passage band*) is calculated it is sent to the
//!   next node (Fig. 17);
//! * each computed cell is compared to a threshold; the per-band,
//!   per-column-group hit counts form the **result matrix** `R`, where
//!   cell `R[i][j]` sums the hits of band `i`'s columns with
//!   `⌊col/ip⌋ = j` (`ip` = result-matrix interleave) — allocated so each
//!   node writes its own rows locally;
//! * selected **columns are saved to disk** (save interleave: column `c`
//!   is saved if `c ≠ 0` and `c mod ip ≡ 0`) under one of three I/O modes:
//!   disabled, *immediate* (blocking write as the column completes), or
//!   *deferred* (kept in memory, written after the computation);
//! * band sizing follows one of three schemes: **fixed** height, **equal**
//!   (every node gets the same amount of data), or **balanced** (the
//!   paper's `bandsproc`/`bsizedown`/`bsizeup` equations).
//!
//! The measured times mirror the paper's: **init** (DSM start-up to the
//! first barrier), **core** (score-matrix computation; "the largest of
//! the measured times"), **term** (deferred I/O + final barrier).
//!
//! The traversal, and what happens when a node crashes, belong to
//! [`crate::wavefront`]. Saved columns are buffered per role and written
//! crash-safely at termination (an adopter reproduces a dead node's
//! `node_r.cols` byte for byte); the lowest *alive* node gathers the
//! result matrix. The files carry the checksummed
//! [`crate::checkpoint::FILE_MAGIC`] footer (temp file + fsync + atomic
//! rename), and [`read_saved_columns`] rejects truncated or corrupted
//! ones with a typed error.

use crate::checkpoint::{read_verified, AtomicFileWriter, StrategyError, StrategyResult};
use crate::wavefront::{lowest_alive, Grid, Stage, Wavefront};
use genomedsm_core::Scoring;
use genomedsm_dsm::{
    DsmConfig, DsmError, DsmSystem, FrameReader, FrameWriter, GlobalVec, Node, NodeStats, Wire,
};
use genomedsm_kernels::{BandScorer, KernelChoice, Rung};
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Band (row-group) sizing scheme (§5's three schemes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BandScheme {
    /// Fixed band height in rows; the last band may be shorter.
    Fixed(usize),
    /// One band per node, all of (nearly) the same height.
    Equal,
    /// The paper's balancing equations: all nodes process the same number
    /// of bands of equal size, while staying close to the requested
    /// height.
    Balanced(usize),
}

impl BandScheme {
    /// Computes the band boundaries (1-based inclusive row ranges).
    pub fn bands(&self, rows: usize, nprocs: usize) -> Vec<(usize, usize)> {
        if rows == 0 {
            return Vec::new();
        }
        let heights: Vec<usize> = match *self {
            BandScheme::Fixed(h) => {
                let h = h.max(1);
                let full = rows / h;
                let mut v = vec![h; full];
                if !rows.is_multiple_of(h) {
                    v.push(rows % h);
                }
                v
            }
            BandScheme::Equal => {
                let b = nprocs.min(rows);
                (0..b)
                    .map(|k| ((k + 1) * rows / b) - (k * rows / b))
                    .collect()
            }
            BandScheme::Balanced(h) => {
                let h = h.max(1);
                // bandsproc = ceil(ceil(rows/h) / nprocs)
                let bandsproc = rows.div_ceil(h).div_ceil(nprocs).max(1);
                let down = rows.div_ceil(bandsproc * nprocs).max(1);
                let up = if bandsproc > 1 {
                    rows.div_ceil((bandsproc - 1) * nprocs).max(1)
                } else {
                    down
                };
                // Pick whichever is nearer the requested height.
                let chosen = if up.abs_diff(h) < down.abs_diff(h) {
                    up
                } else {
                    down
                };
                let full = rows / chosen;
                let mut v = vec![chosen; full];
                if !rows.is_multiple_of(chosen) {
                    v.push(rows % chosen);
                }
                v
            }
        };
        let mut out = Vec::with_capacity(heights.len());
        let mut row = 1;
        for h in heights {
            out.push((row, row + h - 1));
            row += h;
        }
        debug_assert_eq!(row - 1, rows);
        out
    }
}

/// Chunk (column-group) sizing of the passage band: "the size of the
/// chunks can be set to a fixed value or grow in arithmetic or geometric
/// projections".
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChunkPlan {
    /// All chunks have this width (the last may be shorter).
    Fixed(usize),
    /// Widths `start, start+step, start+2·step, …`.
    Arithmetic {
        /// First chunk width.
        start: usize,
        /// Width increase per chunk.
        step: usize,
    },
    /// Widths `start, start·factor, start·factor², …`.
    Geometric {
        /// First chunk width.
        start: usize,
        /// Multiplier per chunk (>= 2 to actually grow).
        factor: usize,
    },
}

impl ChunkPlan {
    /// Splits `cols` columns into chunk ranges (1-based inclusive).
    pub fn chunks(&self, cols: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let mut next_width = match *self {
            ChunkPlan::Fixed(w) => w.max(1),
            ChunkPlan::Arithmetic { start, .. } => start.max(1),
            ChunkPlan::Geometric { start, .. } => start.max(1),
        };
        let mut lo = 1;
        while lo <= cols {
            let hi = (lo + next_width - 1).min(cols);
            out.push((lo, hi));
            lo = hi + 1;
            next_width = match *self {
                ChunkPlan::Fixed(w) => w.max(1),
                ChunkPlan::Arithmetic { step, .. } => next_width + step,
                ChunkPlan::Geometric { factor, .. } => {
                    next_width.saturating_mul(factor.max(1)).min(cols.max(1))
                }
            };
        }
        out
    }
}

/// Disk-saving mode for the selected columns (§5's three I/O modes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoMode {
    /// "The simplest is the disabling of any storing operation."
    None,
    /// Charge each selected column's blocking write as soon as it is
    /// ready (the file itself appears atomically at termination).
    Immediate,
    /// Keep selected columns in memory and write them after the whole
    /// matrix has been calculated.
    Deferred,
}

/// Configuration of the pre-process strategy.
#[derive(Debug, Clone)]
pub struct PreprocessConfig {
    /// Band sizing scheme.
    pub band: BandScheme,
    /// Passage-band chunking.
    pub chunk: ChunkPlan,
    /// Hit threshold: cells scoring at least this count into `R`.
    pub threshold: i32,
    /// Result-matrix interleave `ip`: columns `c` with the same
    /// `(c−1) / ip` share one cell of `R`.
    pub result_interleave: usize,
    /// Save interleave: column `c` is saved when `c mod ip == 0`.
    pub save_interleave: usize,
    /// I/O mode for the saved columns.
    pub io_mode: IoMode,
    /// Virtual cost of one plain SW cell update (era-calibrated default,
    /// see [`crate::costs`]).
    pub cell_cost: Duration,
    /// Virtual cost per byte written to disk (era NFS with buffer cache:
    /// writes land in the client cache at roughly 20 MB/s effective).
    pub io_byte_cost: Duration,
    /// Directory for the per-node column files (required unless
    /// `io_mode == None`).
    pub save_dir: Option<PathBuf>,
    /// Score-kernel selection for the per-band inner loop: the striped
    /// SIMD kernel when it applies ([`genomedsm_kernels::BandScorer`], at
    /// whatever lane width each unit's values need), otherwise the plain
    /// scalar recurrence. Either way the results are bit-identical; only
    /// host time changes (the simulated cluster time is driven by
    /// `cell_cost` regardless).
    pub kernel: KernelChoice,
    /// DSM cluster configuration.
    pub dsm: DsmConfig,
}

impl PreprocessConfig {
    /// 1 K blocking everywhere, no I/O — the Fig. 19 baseline
    /// configuration.
    pub fn new(nprocs: usize) -> Self {
        Self {
            band: BandScheme::Fixed(1024),
            chunk: ChunkPlan::Fixed(1024),
            threshold: 30,
            result_interleave: 1024,
            save_interleave: 1024,
            io_mode: IoMode::None,
            cell_cost: crate::costs::PLAIN_CELL,
            io_byte_cost: Duration::from_nanos(50), // ~20 MB/s buffered
            save_dir: None,
            kernel: KernelChoice::Auto,
            dsm: DsmConfig::new(nprocs).network(genomedsm_dsm::NetworkModel::paper_cluster()),
        }
    }
}

/// One column segment kept for disk storage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SavedColumn {
    /// Band index.
    pub band: u32,
    /// Column number (1-based).
    pub col: u32,
    /// Scores of the band's rows in this column, top to bottom.
    pub values: Vec<i32>,
}

/// Result of a pre-process run.
#[derive(Debug, Clone)]
pub struct PreprocessOutcome {
    /// The result matrix: `result[band][group]` = number of cells at or
    /// above the threshold.
    pub result: Vec<Vec<i64>>,
    /// Band row ranges (1-based inclusive).
    pub band_bounds: Vec<(usize, usize)>,
    /// The best score seen anywhere (kept for validation; the paper keeps
    /// "only a scoreboard of points of interest").
    pub best_score: i32,
    /// Per-node init times (DSM start to first barrier).
    pub init: Vec<Duration>,
    /// Per-node core times (score-matrix computation).
    pub core: Vec<Duration>,
    /// Per-node termination times (deferred I/O + final barrier).
    pub term: Vec<Duration>,
    /// DSM statistics per node.
    pub per_node: Vec<NodeStats>,
    /// Total simulated cluster time (max node virtual clock).
    pub wall: Duration,
    /// Real time the simulation took on the host (diagnostic only).
    pub host_wall: Duration,
    /// Files written (empty when I/O is disabled).
    pub files: Vec<PathBuf>,
    /// Wavefront units per kernel rung (indexed by `Rung as usize`), over
    /// the bands the surviving nodes completed: which lane width the cells
    /// were actually scored at.
    pub rung_units: [u64; 3],
}

impl PreprocessOutcome {
    /// The paper's reported processing time: the largest core time.
    pub fn core_time(&self) -> Duration {
        self.core.iter().copied().max().unwrap_or_default()
    }

    /// Total hits across the result matrix.
    pub fn total_hits(&self) -> i64 {
        self.result.iter().flatten().sum()
    }
}

/// Per-node output of a pre-process worker. `Default` doubles as the
/// sentinel a fail-stopped worker leaves behind.
#[derive(Debug, Default)]
struct NodeOut {
    init: Duration,
    core: Duration,
    term: Duration,
    best: i32,
    gathered: Vec<i64>,
    /// See [`PreprocessOutcome::rung_units`].
    rung_units: [u64; 3],
    /// First I/O failure, deferred to the end of the run so the worker
    /// keeps lockstep with its peers instead of deadlocking them.
    io_err: Option<(String, io::Error)>,
}

impl Wire for NodeOut {
    fn encode(&self, w: &mut FrameWriter) {
        self.init.encode(w);
        self.core.encode(w);
        self.term.encode(w);
        self.best.encode(w);
        self.gathered.encode(w);
        let [narrow, wide, scalar] = self.rung_units;
        (narrow, wide, scalar).encode(w);
        // An `io::Error` does not round-trip structurally; what the
        // gather consumer needs is the message, so that is what travels.
        let flat = self
            .io_err
            .as_ref()
            .map(|(ctx, e)| (ctx.clone(), e.to_string()));
        flat.encode(w);
    }
    fn decode(r: &mut FrameReader<'_>) -> Result<Self, DsmError> {
        Ok(NodeOut {
            init: Duration::decode(r)?,
            core: Duration::decode(r)?,
            term: Duration::decode(r)?,
            best: i32::decode(r)?,
            gathered: Vec::<i64>::decode(r)?,
            rung_units: <(u64, u64, u64)>::decode(r).map(|(a, b, c)| [a, b, c])?,
            io_err: Option::<(String, String)>::decode(r)?
                .map(|(ctx, msg)| (ctx, io::Error::other(msg))),
        })
    }
}

/// Adds per-rung unit counts (`Rung as usize`).
fn add_units(sum: &mut [u64; 3], units: [u64; 3]) {
    for (sum, n) in sum.iter_mut().zip(units) {
        *sum += n;
    }
}

/// The exact SW cell kernel over one band × chunk tile: stage = band,
/// unit = column chunk of the passage band, border = the diagonal corner
/// plus the tile's bottom row. The inner loop is the striped
/// [`BandScorer`] when `choice` and the ISA allow it — which picks each
/// unit's lane width from the unit's own values — and the scalar
/// recurrence otherwise: the same cells either way.
struct Bands<'a> {
    s: &'a [u8],
    t: &'a [u8],
    scoring: &'a Scoring,
    /// Supplies `threshold`, `kernel` and the save interleave.
    config: &'a PreprocessConfig,
    bands: &'a [(usize, usize)],
    chunks: &'a [(usize, usize)],
    scorer: Option<BandScorer>,
    /// The band's column left of the current chunk (index 0 = the border
    /// row): the `(b, k-1)` dependency. The striped path uses only its
    /// last entry, the next chunk's corner.
    left_col: Vec<i32>,
    cur_col: Vec<i32>,
    col_hits: Vec<u64>,
    saved: Vec<(usize, Vec<i32>)>,
    /// Best score of the current band's scalar chunks.
    best: i32,
    /// Units of the completed bands per rung (`Rung as usize`).
    rung_units: [u64; 3],
    /// Where hits, saved columns and best scores go.
    sink: Scoreboard<'a>,
}

impl<'a> Bands<'a> {
    fn new(
        s: &'a [u8],
        t: &'a [u8],
        scoring: &'a Scoring,
        config: &'a PreprocessConfig,
        bands: &'a [(usize, usize)],
        chunks: &'a [(usize, usize)],
        sink: Scoreboard<'a>,
    ) -> Self {
        Self {
            s,
            t,
            scoring,
            config,
            bands,
            chunks,
            scorer: None,
            left_col: Vec::new(),
            cur_col: Vec::new(),
            col_hits: Vec::new(),
            saved: Vec::new(),
            best: 0,
            rung_units: [0; 3],
            sink,
        }
    }

    /// Columns whose index is a multiple of it go to the sink in full.
    fn save_every(&self) -> Option<usize> {
        let saving = self.config.io_mode != IoMode::None && self.config.save_interleave > 0;
        saving.then_some(self.config.save_interleave)
    }
}

impl Stage for Bands<'_> {
    type Cell = i32;

    fn begin(&mut self, stage: usize) {
        let (i0, i1) = self.bands[stage];
        // `None` whenever the striped kernel does not apply (choice, ISA,
        // degenerate scheme, empty band, non-positive threshold).
        self.scorer = BandScorer::new(
            self.config.kernel,
            &self.s[i0 - 1..i1],
            (self.s.len(), self.t.len()),
            self.scoring,
            self.config.threshold,
            self.save_every(),
        );
        self.left_col.clear();
        self.left_col.resize(i1 + 2 - i0, 0);
        self.best = 0;
    }

    fn unit(
        &mut self,
        node: &mut Node,
        stage: usize,
        k: usize,
        top: &[i32],
        bottom: &mut Vec<i32>,
    ) -> usize {
        let (i0, i1) = self.bands[stage];
        let (c_lo, c_hi) = self.chunks[k];
        let h = i1 + 1 - i0;
        bottom.push(self.left_col[h]); // H[i1][c_lo - 1]; 0 at the left border
        if let Some(scorer) = self.scorer.as_mut() {
            // Striped SIMD inner loop: the same cells, vectorized.
            self.col_hits.clear();
            scorer.advance(
                &self.t[c_lo - 1..c_hi],
                top,
                c_lo,
                bottom,
                &mut self.col_hits,
                &mut self.saved,
            );
            for (idx, &hits) in self.col_hits.iter().enumerate() {
                self.sink.hits(c_lo + idx, hits);
            }
            for (col, values) in self.saved.drain(..) {
                self.sink.column(node, stage, col, values);
            }
            self.left_col[h] = bottom[bottom.len() - 1];
        } else {
            // Column by column, top to bottom. `left_col` doubles as the
            // previous column: its border entry comes from `top`.
            self.left_col[0] = top[0];
            self.cur_col.resize(h + 1, 0);
            let band_s = &self.s[i0 - 1..i1];
            let (scoring, threshold) = (*self.scoring, self.config.threshold);
            let save_every = self.save_every();
            for j in c_lo..=c_hi {
                let (prev, cur) = (&self.left_col[..=h], &mut self.cur_col[..=h]);
                let tc = self.t[j - 1];
                cur[0] = top[j - c_lo + 1];
                // Two passes, because written as one the `max`es compile to
                // branches that random DNA mispredicts: first everything
                // but the `up` dependency (vectorizes), then the serial
                // chain.
                for ((e, &sc), w) in cur[1..].iter_mut().zip(band_s).zip(prev.windows(2)) {
                    *e = (w[0] + scoring.subst(sc, tc))
                        .max(w[1] + scoring.gap)
                        .max(0);
                }
                let (mut up, mut hits, mut best) = (cur[0], 0u64, self.best);
                for e in &mut cur[1..] {
                    up = (*e).max(up + scoring.gap);
                    *e = up;
                    hits += u64::from(up >= threshold);
                    best = best.max(up);
                }
                self.best = best;
                self.sink.hits(j, hits);
                bottom.push(self.cur_col[h]);
                if save_every.is_some_and(|every| j % every == 0) {
                    self.sink.column(node, stage, j, self.cur_col[1..].to_vec());
                }
                std::mem::swap(&mut self.left_col, &mut self.cur_col);
            }
        }
        h * (c_hi + 1 - c_lo)
    }

    fn end(&mut self, node: &mut Node, stage: usize) {
        let mut units = [0; 3];
        units[Rung::Scalar as usize] = self.chunks.len() as u64;
        let (striped, units) = self
            .scorer
            .as_ref()
            .map_or((0, units), |scorer| (scorer.best_score(), scorer.units()));
        add_units(&mut self.rung_units, units);
        self.sink.end(node, stage, self.best.max(striped));
    }

    fn word(&self, role: usize) -> i64 {
        self.sink.word(role)
    }
}

/// The DSM sink: threshold hits become the band's row of the result
/// matrix, selected columns are buffered for the role's column file.
struct Scoreboard<'a> {
    config: &'a PreprocessConfig,
    /// The result matrix, one row per band (see [`preprocess_align`]).
    rows: &'a [GlobalVec<i64>],
    hits_row: Vec<i64>,
    /// The roles executed; each gets a column file, even with no band.
    roles: Vec<usize>,
    /// Best score per role.
    best: Vec<i32>,
    /// Selected columns in execution order — per role, band then column,
    /// so an adopter reproduces a dead owner's file byte for byte.
    saved: Vec<SavedColumn>,
}

impl Scoreboard<'_> {
    /// `hits` cells of column `col` reached the threshold.
    fn hits(&mut self, col: usize, hits: u64) {
        self.hits_row[(col - 1) / self.config.result_interleave] += hits as i64;
    }

    /// Column `col` of band `stage` was selected by the save interleave.
    fn column(&mut self, node: &mut Node, stage: usize, col: usize, values: Vec<i32>) {
        let (band, col) = (stage as u32, col as u32);
        let column = SavedColumn { band, col, values };
        if self.config.io_mode == IoMode::Immediate {
            // The blocking write is charged as the column completes;
            // the file itself appears, crash-safely, at termination.
            let bytes = column.encoded_len();
            node.advance(crate::costs::cells(self.config.io_byte_cost, bytes));
        }
        self.saved.push(column);
    }

    /// Band `stage` is complete; `best` is its best score.
    fn end(&mut self, node: &mut Node, stage: usize, best: i32) {
        let role = stage % self.best.len();
        self.best[role] = self.best[role].max(best);
        // Publish the band's result-matrix row and flush it to its home
        // (a self-send for the owner; a remote write only during
        // takeover) so it survives this worker's later death.
        if !self.hits_row.is_empty() {
            node.vec_write_range(&self.rows[stage], 0, &self.hits_row);
            node.flush_vec(&self.rows[stage]);
        }
        self.hits_row.fill(0);
    }

    /// See [`Stage::word`].
    fn word(&self, role: usize) -> i64 {
        i64::from(self.best[role])
    }
}

/// Runs the pre-process strategy: exact SW scores over a banded wavefront,
/// producing the result matrix of threshold hits and (optionally) saved
/// columns.
///
/// # Errors
///
/// Returns [`StrategyError::Io`] when a saved-column file cannot be
/// created, written, or atomically finished (the computation itself still
/// ran to completion — the error reports the first failing file).
pub fn preprocess_align(
    s: &[u8],
    t: &[u8],
    scoring: &Scoring,
    config: &PreprocessConfig,
) -> StrategyResult<PreprocessOutcome> {
    assert!(config.result_interleave >= 1, "interleave must be >= 1");
    assert!(
        config.io_mode == IoMode::None || config.save_dir.is_some(),
        "saving columns requires a save_dir"
    );
    let t_start = Instant::now();
    let nprocs = config.dsm.nprocs;
    let (m, n) = (s.len(), t.len());
    let bands = config.band.bands(m, nprocs);
    let nbands = bands.len();
    let chunks = config.chunk.chunks(n);
    let groups = n.div_ceil(config.result_interleave);
    let grid = Grid::tiled(nbands, &chunks, nprocs);
    let wavefront = Wavefront {
        grid: &grid,
        cell_cost: config.cell_cost,
        unit_cells: grid.tile_cells(m, n),
        rounds: 1,
        finish_barriers: 1,
    };

    let run = DsmSystem::run_wire(config.dsm.clone(), |node: &mut Node| {
        // The result matrix, one row per band, each homed on the band's
        // owner so writes are local ("allocated in such a way as to allow
        // each node to handle writes locally", §5.1).
        let rows: Vec<GlobalVec<i64>> = (0..nbands)
            .map(|b| node.alloc_vec_on::<i64>(groups.max(1), b % nprocs))
            .collect();
        let kernel = |roles: &[usize]| {
            let sink = Scoreboard {
                config,
                rows: &rows,
                hits_row: vec![0; groups],
                roles: roles.to_vec(),
                best: vec![0; nprocs],
                saved: Vec::new(),
            };
            Bands::new(s, t, scoring, config, &bands, &chunks, sink)
        };
        let mut rounds = wavefront.run(node, kernel, |node, round| {
            let Some(pieces) = round.pieces.as_ref() else {
                return NodeOut::default(); // this worker fail-stopped
            };
            let core = node.now() - round.start;
            let term_start = node.now();

            // At most one *surviving* node holds a role's results (adoption
            // only changes when the adopter dies); duplicates replayed
            // within this node are identical — last wins.
            let mut by_role = std::collections::BTreeMap::new();
            for sink in pieces.iter().map(|bands| &bands.sink) {
                by_role.extend(sink.roles.iter().map(|&role| (role, sink)));
            }
            let mut rung_units = [0u64; 3];
            for bands in pieces {
                add_units(&mut rung_units, bands.rung_units);
            }
            let mut best = 0i32;
            let mut io_err: Option<(String, io::Error)> = None;
            let saving = config.io_mode != IoMode::None;
            for (&role, sink) in &by_role {
                best = best.max(sink.best[role]);
                let Some(dir) = config.save_dir.as_ref().filter(|_| saving) else {
                    continue;
                };
                let path = dir.join(format!("node_{role}.cols"));
                let owned = |c: &&SavedColumn| c.band as usize % nprocs == role;
                let mut bytes = 0usize;
                let res = write_role_file(&path, sink.saved.iter().filter(owned), &mut bytes);
                if config.io_mode == IoMode::Deferred {
                    // Immediate mode charged each column as selected;
                    // deferred pays for the whole file here.
                    node.advance(crate::costs::cells(config.io_byte_cost, bytes));
                }
                if let Err(e) = res {
                    io_err
                        .get_or_insert((format!("write saved-column file {}", path.display()), e));
                }
            }

            // The lowest alive node gathers the result matrix; every row
            // went home before the barrier that closed the compute.
            let mut gathered = Vec::new();
            if lowest_alive(node) {
                if groups > 0 {
                    for row in &rows {
                        // A dead writer's flush carried no write notice.
                        node.invalidate_vec(row);
                        gathered.extend(node.vec_read_range(row, 0..groups));
                    }
                }
                // The ledger words cover a role whose worker completed,
                // published, and only then died: its memory is gone.
                for word in round.words(node, nprocs) {
                    best = best.max(word as i32);
                }
            }
            node.barrier_wait();
            NodeOut {
                init: round.start,
                core,
                term: node.now() - term_start,
                best,
                gathered,
                rung_units,
                io_err,
            }
        });
        rounds.pop().unwrap_or_default()
    });

    let mut init = Vec::new();
    let mut core = Vec::new();
    let mut term = Vec::new();
    let mut best_score = 0;
    let mut rung_units = [0u64; 3];
    let mut flat = Vec::new();
    for out in run.results {
        if let Some((context, source)) = out.io_err {
            return Err(StrategyError::io(context, source));
        }
        init.push(out.init);
        core.push(out.core);
        term.push(out.term);
        best_score = best_score.max(out.best);
        add_units(&mut rung_units, out.rung_units);
        if !out.gathered.is_empty() {
            flat = out.gathered;
        }
    }
    let result: Vec<Vec<i64>> = if groups == 0 {
        vec![Vec::new(); nbands]
    } else {
        flat.chunks(groups).map(<[i64]>::to_vec).collect()
    };
    let files = match (&config.save_dir, config.io_mode) {
        (Some(dir), IoMode::Immediate | IoMode::Deferred) => (0..nprocs)
            .map(|p| dir.join(format!("node_{p}.cols")))
            .filter(|f| f.exists())
            .collect(),
        _ => Vec::new(),
    };
    Ok(PreprocessOutcome {
        result,
        band_bounds: bands,
        best_score,
        init,
        core,
        term,
        wall: run.stats.iter().map(|s| s.total).max().unwrap_or_default(),
        host_wall: t_start.elapsed(),
        per_node: run.stats,
        files,
        rung_units,
    })
}

// ---------------------------------------------------------------------------
// Saved-column files
// ---------------------------------------------------------------------------

impl SavedColumn {
    /// Bytes of the column's file record.
    fn encoded_len(&self) -> usize {
        12 + 4 * self.values.len()
    }

    /// Serializes the record (band, col, len, values — all LE).
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.band.to_le_bytes());
        buf.extend_from_slice(&self.col.to_le_bytes());
        buf.extend_from_slice(&(self.values.len() as u32).to_le_bytes());
        for v in &self.values {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// Writes a whole saved-column file crash-safely (temp file + checksummed
/// footer + fsync + atomic rename), reporting the payload size in
/// `bytes`.
fn write_role_file<'c>(
    path: &Path,
    cols: impl Iterator<Item = &'c SavedColumn>,
    bytes: &mut usize,
) -> io::Result<()> {
    let mut w = AtomicFileWriter::create(path)?;
    let mut buf = Vec::new();
    for c in cols {
        buf.clear();
        c.encode(&mut buf);
        w.write_all(&buf)?;
        *bytes += buf.len();
    }
    w.finish()
}

/// Reads back a per-node column file written by [`preprocess_align`],
/// first verifying the checksummed footer (see
/// [`crate::checkpoint::read_verified`]).
///
/// A truncated or corrupted file — torn footer, bad magic, length or
/// checksum mismatch, or a malformed record inside a valid envelope —
/// yields a typed [`std::io::ErrorKind::InvalidData`] error rather than a
/// panic, so a recovery path probing a half-written file can fall back
/// cleanly.
pub fn read_saved_columns(path: &std::path::Path) -> std::io::Result<Vec<SavedColumn>> {
    fn bad(what: &str) -> std::io::Error {
        std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string())
    }
    fn take_u32(data: &[u8], pos: &mut usize) -> std::io::Result<u32> {
        let end = pos
            .checked_add(4)
            .filter(|&e| e <= data.len())
            .ok_or_else(|| bad("truncated column record"))?;
        let mut a = [0u8; 4];
        a.copy_from_slice(&data[*pos..end]);
        let v = u32::from_le_bytes(a);
        *pos = end;
        Ok(v)
    }
    let data = read_verified(path)?;
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < data.len() {
        let band = take_u32(&data, &mut pos)?;
        let col = take_u32(&data, &mut pos)?;
        let len = take_u32(&data, &mut pos)? as usize;
        if len > (data.len() - pos) / 4 {
            return Err(bad("column length exceeds file size"));
        }
        let mut values = Vec::with_capacity(len);
        for _ in 0..len {
            values.push(take_u32(&data, &mut pos)? as i32);
        }
        out.push(SavedColumn { band, col, values });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use genomedsm_core::linear::sw_score_linear;
    use genomedsm_core::matrix::sw_matrix;
    use genomedsm_seq::{planted_pair, HomologyPlan};

    const SC: Scoring = Scoring::paper();

    fn workload(len: usize, seed: u64) -> (Vec<u8>, Vec<u8>) {
        let (s, t, _) = planted_pair(len, len, &HomologyPlan::paper_density(len * 10), seed);
        (s.into_bytes(), t.into_bytes())
    }

    #[test]
    fn band_schemes_cover_all_rows() {
        for scheme in [
            BandScheme::Fixed(10),
            BandScheme::Fixed(7),
            BandScheme::Equal,
            BandScheme::Balanced(13),
        ] {
            let bands = scheme.bands(101, 4);
            assert_eq!(bands[0].0, 1);
            assert_eq!(bands.last().unwrap().1, 101);
            for w in bands.windows(2) {
                assert_eq!(w[0].1 + 1, w[1].0);
            }
        }
    }

    #[test]
    fn balanced_scheme_gives_every_node_equal_bands() {
        let bands = BandScheme::Balanced(1000).bands(8192, 4);
        // All bands but possibly the last have the same height.
        let h0 = bands[0].1 + 1 - bands[0].0;
        for &(lo, hi) in &bands[..bands.len() - 1] {
            assert_eq!(hi + 1 - lo, h0);
        }
    }

    #[test]
    fn chunk_plans_cover_all_columns() {
        for plan in [
            ChunkPlan::Fixed(100),
            ChunkPlan::Arithmetic {
                start: 10,
                step: 20,
            },
            ChunkPlan::Geometric {
                start: 8,
                factor: 2,
            },
        ] {
            let chunks = plan.chunks(777);
            assert_eq!(chunks[0].0, 1);
            assert_eq!(chunks.last().unwrap().1, 777);
            for w in chunks.windows(2) {
                assert_eq!(w[0].1 + 1, w[1].0);
            }
        }
    }

    #[test]
    fn geometric_chunks_grow() {
        let chunks = ChunkPlan::Geometric {
            start: 4,
            factor: 2,
        }
        .chunks(1000);
        let w0 = chunks[0].1 + 1 - chunks[0].0;
        let w1 = chunks[1].1 + 1 - chunks[1].0;
        assert_eq!(w0, 4);
        assert_eq!(w1, 8);
    }

    #[test]
    fn hits_and_best_match_the_oracle() {
        let (s, t) = workload(250, 21);
        let threshold = 12;
        let oracle = sw_score_linear(&s, &t, &SC, threshold);
        for nprocs in [1, 2, 4] {
            let mut config = PreprocessConfig::new(nprocs);
            config.band = BandScheme::Fixed(40);
            config.chunk = ChunkPlan::Fixed(64);
            config.threshold = threshold;
            config.result_interleave = 50;
            let out = preprocess_align(&s, &t, &SC, &config).unwrap();
            assert_eq!(out.total_hits(), oracle.hits as i64, "nprocs={nprocs}");
            assert_eq!(out.best_score, oracle.best_score, "nprocs={nprocs}");
        }
    }

    #[test]
    fn result_matrix_cells_match_full_matrix_counts() {
        let (s, t) = workload(120, 22);
        let threshold = 8;
        let mut config = PreprocessConfig::new(2);
        config.band = BandScheme::Fixed(30);
        config.chunk = ChunkPlan::Fixed(50);
        config.threshold = threshold;
        config.result_interleave = 25;
        let out = preprocess_align(&s, &t, &SC, &config).unwrap();
        let full = sw_matrix(&s, &t, &SC);
        for (b, &(i0, i1)) in out.band_bounds.iter().enumerate() {
            for g in 0..out.result[b].len() {
                let mut expect = 0i64;
                for i in i0..=i1 {
                    for j in 1..=t.len() {
                        if (j - 1) / 25 == g && full.get(i, j) >= threshold {
                            expect += 1;
                        }
                    }
                }
                assert_eq!(out.result[b][g], expect, "band {b} group {g}");
            }
        }
    }

    #[test]
    fn io_modes_write_identical_files() {
        let (s, t) = workload(150, 23);
        let dir = std::env::temp_dir().join("genomedsm_pp_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let mut results = Vec::new();
        for (mode, sub) in [(IoMode::Immediate, "imm"), (IoMode::Deferred, "def")] {
            let d = dir.join(sub);
            std::fs::create_dir_all(&d).unwrap();
            let mut config = PreprocessConfig::new(2);
            config.band = BandScheme::Fixed(40);
            config.chunk = ChunkPlan::Fixed(32);
            config.save_interleave = 16;
            config.io_mode = mode;
            config.save_dir = Some(d.clone());
            let out = preprocess_align(&s, &t, &SC, &config).unwrap();
            assert!(!out.files.is_empty());
            let mut cols: Vec<SavedColumn> = out
                .files
                .iter()
                .flat_map(|f| read_saved_columns(f).unwrap())
                .collect();
            cols.sort_by_key(|c| (c.band, c.col));
            results.push(cols);
        }
        assert_eq!(results[0], results[1], "modes must save the same data");
        assert!(!results[0].is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn saved_columns_match_full_matrix() {
        let (s, t) = workload(100, 24);
        let dir = std::env::temp_dir().join("genomedsm_pp_cols_test");
        std::fs::create_dir_all(&dir).unwrap();
        let mut config = PreprocessConfig::new(2);
        config.band = BandScheme::Fixed(25);
        config.chunk = ChunkPlan::Fixed(40);
        config.save_interleave = 20;
        config.io_mode = IoMode::Immediate;
        config.save_dir = Some(dir.clone());
        let out = preprocess_align(&s, &t, &SC, &config).unwrap();
        let full = sw_matrix(&s, &t, &SC);
        let mut seen = 0;
        for f in &out.files {
            for col in read_saved_columns(f).unwrap() {
                let (i0, _) = out.band_bounds[col.band as usize];
                for (r, &v) in col.values.iter().enumerate() {
                    assert_eq!(v, full.get(i0 + r, col.col as usize));
                    seen += 1;
                }
            }
        }
        assert!(seen > 0, "no saved cells checked");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn kernel_choices_agree_with_scalar() {
        let (s, t) = workload(300, 25);
        let dir = std::env::temp_dir().join("genomedsm_pp_kernel_test");
        let mut outs = Vec::new();
        for (choice, sub) in [
            (KernelChoice::Scalar, "scalar"),
            (KernelChoice::Simd, "simd"),
        ] {
            let d = dir.join(sub);
            std::fs::create_dir_all(&d).unwrap();
            let mut config = PreprocessConfig::new(2);
            config.band = BandScheme::Fixed(37);
            config.chunk = ChunkPlan::Fixed(41);
            config.threshold = 10;
            config.result_interleave = 29;
            config.save_interleave = 23;
            config.io_mode = IoMode::Deferred;
            config.save_dir = Some(d.clone());
            config.kernel = choice;
            let out = preprocess_align(&s, &t, &SC, &config).unwrap();
            let mut cols: Vec<SavedColumn> = out
                .files
                .iter()
                .flat_map(|f| read_saved_columns(f).unwrap())
                .collect();
            cols.sort_by_key(|c| (c.band, c.col));
            outs.push((out.result.clone(), out.best_score, out.total_hits(), cols));
        }
        assert_eq!(outs[0], outs[1], "striped path must be bit-identical");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_inputs() {
        let out = preprocess_align(b"", b"ACGT", &SC, &PreprocessConfig::new(2)).unwrap();
        assert_eq!(out.total_hits(), 0);
        assert_eq!(out.best_score, 0);
    }

    #[test]
    #[should_panic(expected = "requires a save_dir")]
    fn saving_without_dir_rejected() {
        let mut config = PreprocessConfig::new(1);
        config.io_mode = IoMode::Immediate;
        let _ = preprocess_align(b"ACGT", b"ACGT", &SC, &config);
    }

    #[test]
    fn corrupt_saved_column_file_is_rejected() {
        let (s, t) = workload(80, 26);
        let dir = std::env::temp_dir().join("genomedsm_pp_corrupt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let mut config = PreprocessConfig::new(1);
        config.band = BandScheme::Fixed(40);
        config.chunk = ChunkPlan::Fixed(40);
        config.save_interleave = 20;
        config.io_mode = IoMode::Deferred;
        config.save_dir = Some(dir.clone());
        let out = preprocess_align(&s, &t, &SC, &config).unwrap();
        let file = &out.files[0];
        assert!(!read_saved_columns(file).unwrap().is_empty());
        let mut bytes = std::fs::read(file).unwrap();
        bytes[3] ^= 0x10;
        std::fs::write(file, &bytes).unwrap();
        let err = read_saved_columns(file).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn base_config(nprocs: usize, dir: &std::path::Path) -> PreprocessConfig {
        let mut c = PreprocessConfig::new(nprocs);
        c.band = BandScheme::Fixed(30);
        c.chunk = ChunkPlan::Fixed(48);
        c.threshold = 10;
        c.result_interleave = 40;
        c.save_interleave = 16;
        c.io_mode = IoMode::Deferred;
        c.save_dir = Some(dir.to_path_buf());
        c
    }

    fn tolerant(mut c: PreprocessConfig) -> PreprocessConfig {
        c.dsm = c.dsm.supervise(genomedsm_dsm::SupervisionConfig {
            enabled: true,
            detect_after: std::time::Duration::from_millis(40),
        });
        c
    }

    /// Asserts that two runs produced identical result matrices, best
    /// scores, and byte-identical per-node saved-column files.
    fn assert_identical(a: &PreprocessOutcome, b: &PreprocessOutcome, nprocs: usize) {
        assert_eq!(a.result, b.result);
        assert_eq!(a.best_score, b.best_score);
        assert_eq!(a.total_hits(), b.total_hits());
        let dir_a = a.files[0].parent().unwrap();
        let dir_b = b.files[0].parent().unwrap();
        for p in 0..nprocs {
            let fa = std::fs::read(dir_a.join(format!("node_{p}.cols"))).unwrap();
            let fb = std::fs::read(dir_b.join(format!("node_{p}.cols"))).unwrap();
            assert_eq!(fa, fb, "node_{p}.cols differs");
        }
    }

    #[test]
    fn tolerant_mode_without_failures_matches_plain() {
        let (s, t) = workload(220, 31);
        let dir = std::env::temp_dir().join("genomedsm_pp_tol_parity");
        for nprocs in [1, 2, 3] {
            let d_plain = dir.join(format!("plain_{nprocs}"));
            let d_tol = dir.join(format!("tol_{nprocs}"));
            std::fs::create_dir_all(&d_plain).unwrap();
            std::fs::create_dir_all(&d_tol).unwrap();
            let plain = preprocess_align(&s, &t, &SC, &base_config(nprocs, &d_plain)).unwrap();
            let tol =
                preprocess_align(&s, &t, &SC, &tolerant(base_config(nprocs, &d_tol))).unwrap();
            assert_identical(&plain, &tol, nprocs);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn single_death_recovers_bit_identical_including_files() {
        // Node 1 dies mid-band; node 2 adopts its bands, re-selects its
        // columns, and writes node_1.cols itself — every artifact must
        // match the fault-free run exactly. Immediate mode exercises the
        // per-column charge path.
        let (s, t) = workload(220, 32);
        let dir = std::env::temp_dir().join("genomedsm_pp_tol_death");
        let d_plain = dir.join("plain");
        let d_tol = dir.join("tol");
        std::fs::create_dir_all(&d_plain).unwrap();
        std::fs::create_dir_all(&d_tol).unwrap();
        let mut plain_cfg = base_config(3, &d_plain);
        plain_cfg.io_mode = IoMode::Immediate;
        let plain = preprocess_align(&s, &t, &SC, &plain_cfg).unwrap();
        let mut cfg = tolerant(base_config(3, &d_tol));
        cfg.io_mode = IoMode::Immediate;
        cfg.dsm = cfg.dsm.faults(crate::crashes(&[(1, 4)], &[]));
        let tol = preprocess_align(&s, &t, &SC, &cfg).unwrap();
        assert_identical(&plain, &tol, 3);
        let takeovers: u64 = tol.per_node.iter().map(|s| s.takeovers).sum();
        assert!(takeovers >= 1, "no takeover recorded");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn contiguous_double_death_recovers() {
        let (s, t) = workload(240, 33);
        let dir = std::env::temp_dir().join("genomedsm_pp_tol_double");
        let d_plain = dir.join("plain");
        let d_tol = dir.join("tol");
        std::fs::create_dir_all(&d_plain).unwrap();
        std::fs::create_dir_all(&d_tol).unwrap();
        let plain = preprocess_align(&s, &t, &SC, &base_config(4, &d_plain)).unwrap();
        let mut cfg = tolerant(base_config(4, &d_tol));
        cfg.dsm = cfg.dsm.faults(crate::crashes(&[(1, 3), (2, 5)], &[]));
        let tol = preprocess_align(&s, &t, &SC, &cfg).unwrap();
        assert_identical(&plain, &tol, 4);
        std::fs::remove_dir_all(&dir).ok();
    }
}
