//! Host-time GCUPS of the compute layers: the vectorized kernels, the
//! lane-packed batch engine, and the protein (Gotoh) subsystem with its
//! composition prefilter (DESIGN.md §5.5, §5.9, §5.14). Sizes are fixed:
//! these are host-hardware claims, not paper-scale reproductions.

use super::measure::{best_of, gcups, SC};
use super::Points;
use crate::report::{Report, Table};
use crate::{secs, speedup, workloads, HarnessArgs};
use genomedsm_batch::{
    build_index, oracle_search_mode, prefiltered_search, BatchConfig, BatchEngine, Hit, ScoreMode,
    SeqDatabase, TopK,
};
use genomedsm_core::submat::MatrixScoring;
use genomedsm_kernels::{available_kernels, kernel_for, KernelChoice};
use genomedsm_seq::{random_dna, random_protein, ProteinRecord, ProteinSeq};
use std::time::Duration;

type Hits = Vec<Vec<Hit>>;

/// The per-kernel row of the reproduction gate.
pub const KERNEL_ROW: &str = "kernel GCUPS (10k x 10k score-only, 1 thread)";

/// Single-thread score-only rates of every kernel the host can run; the
/// gate is the sweep.
pub fn kernels(_: &HarnessArgs, _: Points, report: &mut Report) {
    let len = 10_000usize;
    let (s, t, _) = workloads::pair(len, 31);
    let cells = (len * len) as f64;
    let mut tab = Table::new(
        "Kernel layer: single-thread score-only rates, 10k x 10k (host hardware)",
        &["kernel", "time (s)", "GCUPS", "speed-up vs scalar"],
    );
    let mut base: Option<Duration> = None;
    let mut best_speedup = 0.0f64;
    for kernel in available_kernels() {
        // `i32::MAX` disables the threshold, which turns off hit counting
        // in every kernel.
        let (_, time) = best_of(3, || kernel.score(&s, &t, &SC, i32::MAX));
        let base = *base.get_or_insert(time); // first row is the scalar kernel
        let sp = speedup(base, time);
        best_speedup = best_speedup.max(sp);
        tab.row(&[
            kernel.name().into(),
            secs(time),
            format!("{:.3}", gcups(cells, time)),
            format!("{sp:.2}"),
        ]);
        report.claim(
            KERNEL_ROW,
            true,
            format!(
                "{}: {:.3} GCUPS ({sp:.2}x scalar)",
                kernel.name(),
                gcups(cells, time)
            ),
        );
        eprintln!("[kernels] {} done", kernel.name());
    }
    report.claim(
        "striped SIMD kernel >= 3x scalar (10k x 10k score-only)",
        best_speedup >= 3.0,
        format!("best striped kernel at {best_speedup:.1}x"),
    );
    report.table("kernels.csv", tab);
}

// ---------------------------------------------------------------------
// The database-search ladder shared by the DNA and protein engines
// ---------------------------------------------------------------------

const TOP_K: usize = 5;

/// How a ladder rung searches the database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    /// One kernel launch per (query, record) pair, the same top-k
    /// bookkeeping as the engine.
    PerPair,
    /// The lane-packed batch engine.
    Batch,
}

/// What one rung measured.
struct Timed {
    rung: Rung,
    hits: Hits,
    time: Duration,
}

/// A database-search workload in one scoring mode.
struct Search {
    queries: Vec<Vec<u8>>,
    db: SeqDatabase,
    mode: ScoreMode,
}

impl Search {
    fn refs(&self) -> Vec<&[u8]> {
        self.queries.iter().map(Vec::as_slice).collect()
    }

    fn cells(&self) -> f64 {
        self.queries.iter().map(|q| q.len() as f64).sum::<f64>() * self.db.total_bases() as f64
    }

    fn title(&self, what: &str, detail: &str) -> String {
        format!(
            "{what}: {} queries x {} records ({:.1} Mcells), {detail}",
            self.queries.len(),
            self.db.len(),
            self.cells() / 1e6
        )
    }

    /// The sequential scalar scan every path must reproduce.
    fn oracle(&self) -> Hits {
        oracle_search_mode(&self.db, &self.refs(), &self.mode, &SC, TOP_K)
    }

    fn search(&self, (path, kernel): Rung) -> Hits {
        if path == Path::Batch {
            let config = BatchConfig {
                kernel,
                top_k: TOP_K,
                mode: self.mode,
                ..BatchConfig::default()
            };
            return BatchEngine::new(config).search(&self.db, &self.refs()).hits;
        }
        let kernel = kernel_for(kernel);
        let per_query = |q: &Vec<u8>| {
            let mut tk = TopK::new(TOP_K);
            for t in 0..self.db.len() {
                let r = match &self.mode {
                    ScoreMode::Dna => kernel.score(q, self.db.seq(t), &SC, 0),
                    ScoreMode::Protein(ms) => kernel.score_affine(q, self.db.seq(t), ms, 0),
                };
                if r.best_score > 0 {
                    tk.push(Hit {
                        score: r.best_score,
                        target: t,
                        end: r.best_end,
                    });
                }
            }
            tk.into_sorted()
        };
        self.queries.iter().map(per_query).collect()
    }

    /// Times every rung (best of 3) and tabulates it against the first.
    fn ladder(&self, tag: &str, title: &str, rungs: &[Rung]) -> (Table, Vec<Timed>) {
        let mut tab = Table::new(
            title,
            &["path", "kernel", "time (s)", "GCUPS", "vs per-pair scalar"],
        );
        let mut runs: Vec<Timed> = Vec::new();
        for &rung in rungs {
            let (hits, time) = best_of(3, || self.search(rung));
            let base = runs.first().map_or(time, |first| first.time);
            let (path, kernel) = rung;
            let path = if path == Path::Batch {
                "batch"
            } else {
                "per-pair"
            };
            tab.row(&[
                path.into(),
                format!("{kernel}"),
                secs(time),
                format!("{:.3}", gcups(self.cells(), time)),
                format!("{:.2}", speedup(base, time)),
            ]);
            eprintln!("[{tag}] {path}/{kernel} done");
            runs.push(Timed { rung, hits, time });
        }
        (tab, runs)
    }
}

fn time_of(runs: &[Timed], rung: Rung) -> Duration {
    let run = runs.iter().find(|r| r.rung == rung);
    run.expect("rung was run").time
}

type Rung = (Path, KernelChoice);
const PAIR_SCALAR: Rung = (Path::PerPair, KernelChoice::Scalar);
const PAIR_SIMD: Rung = (Path::PerPair, KernelChoice::Simd);
const BATCH_SCALAR: Rung = (Path::Batch, KernelChoice::Scalar);
const BATCH_SIMD: Rung = (Path::Batch, KernelChoice::Simd);
/// Every rung, in table order.
const ALL_RUNGS: [Rung; 4] = [PAIR_SCALAR, PAIR_SIMD, BATCH_SCALAR, BATCH_SIMD];

// ---------------------------------------------------------------------
// Batch engine: lane-packed database search vs per-pair kernel launches
// ---------------------------------------------------------------------

/// The many-small-queries workload the per-pair path handles worst:
/// every (query, record) pair pays a full kernel launch (profile build,
/// state allocation, mostly-idle lanes on a short query), while the
/// batch engine packs a different query per lane and reuses one packed
/// profile across a whole slab of records.
fn batch_workload(queries: usize, q_len: usize, records: usize, t_len: usize) -> Search {
    Search {
        queries: (0..queries)
            .map(|i| random_dna(q_len / 2 + (i * 13) % q_len, 9_000 + i as u64).into_bytes())
            .collect(),
        db: SeqDatabase::from_records(workloads::dna_records(records, t_len, 7_000)),
        mode: ScoreMode::Dna,
    }
}

/// Aggregate GCUPS of the batch engine against per-pair launches, every
/// path bit-identical to the first. The gate runs the two SIMD paths on
/// a smaller database.
pub fn batch(_: &HarnessArgs, points: Points, report: &mut Report) {
    let (work, rungs): (Search, &[_]) = match points {
        Points::Sweep => (batch_workload(96, 64, 192, 256), &ALL_RUNGS),
        Points::Gate => (batch_workload(64, 64, 128, 256), &[PAIR_SIMD, BATCH_SIMD]),
    };
    let title = work.title("Batch engine", "single host");
    let (tab, runs) = work.ladder("batch", &title, rungs);
    let identical = runs.iter().all(|r| r.hits == runs[0].hits);
    assert!(
        identical || points == Points::Gate,
        "a path diverged from per-pair scalar"
    );
    let (t_pair, t_batch) = (time_of(&runs, PAIR_SIMD), time_of(&runs, BATCH_SIMD));
    let (g_pair, g_batch) = (gcups(work.cells(), t_pair), gcups(work.cells(), t_batch));
    report.table("batch.csv", tab);
    report.note(format!(
        "(lane packing: a different query per i16 lane, one packed profile per record slab;\n \
         per-pair: one kernel launch per (query, record) pair — {g_batch:.3} GCUPS batch aggregate)"
    ));
    let ratio = speedup(t_pair, t_batch);
    report.claim(
        "batch engine beats per-pair launches on many small queries (§5.9)",
        identical && ratio > 1.0,
        format!("{g_batch:.3} vs {g_pair:.3} GCUPS ({ratio:.2}x), identical top-k"),
    );
}

// ---------------------------------------------------------------------
// Protein: striped Gotoh engines + composition prefilter
// ---------------------------------------------------------------------

/// Protein database-search workload mirroring [`batch_workload`]:
/// standard-residue queries and records at protein-typical lengths.
fn protein_workload(
    ms: MatrixScoring,
    queries: usize,
    q_len: usize,
    records: usize,
    t_len: usize,
) -> Search {
    let record = |i: usize| ProteinRecord {
        id: format!("p{i}"),
        seq: random_protein(t_len / 2 + (i * 29) % t_len, 31_000 + i as u64),
    };
    Search {
        queries: (0..queries)
            .map(|i| random_protein(q_len / 2 + (i * 13) % q_len, 29_000 + i as u64).into_bytes())
            .collect(),
        db: SeqDatabase::from_protein_records((0..records).map(record).collect()),
        mode: ScoreMode::Protein(ms),
    }
}

/// The prefilter's honest use case: a database where composition and
/// length actually separate hits from chaff. Each query is planted
/// verbatim into `top_k` long "homolog" records (so the k-th best score
/// is the query's self-score), and the background is mostly short random
/// records whose composition bound provably cannot reach it.
fn prefilter_workload(
    ms: MatrixScoring,
    queries: usize,
    q_len: usize,
    top_k: usize,
    background: usize,
    bg_len: usize,
) -> Search {
    let qs: Vec<Vec<u8>> = (0..queries)
        .map(|i| random_protein(q_len / 2 + (i * 11) % q_len, 41_000 + i as u64).into_bytes())
        .collect();
    // `top_k` rounds of homolog records; each round packs every query
    // into one of `queries / per_rec` records, so each query appears in
    // exactly `top_k` distinct records.
    let per_rec = 6usize;
    let groups = queries.div_ceil(per_rec);
    let mut records: Vec<ProteinRecord> = Vec::new();
    for round in 0..top_k {
        for g in 0..groups {
            let mut bytes = random_protein(40, 43_000 + (round * groups + g) as u64).into_bytes();
            for (qi, q) in qs.iter().enumerate() {
                if qi % groups == g {
                    bytes.extend_from_slice(q);
                    bytes.extend_from_slice(
                        random_protein(20, 45_000 + (round * queries + qi) as u64).as_bytes(),
                    );
                }
            }
            records.push(ProteinRecord {
                id: format!("hom{round}_{g}"),
                seq: ProteinSeq::from_residues(bytes),
            });
        }
    }
    for i in 0..background {
        records.push(ProteinRecord {
            id: format!("bg{i}"),
            seq: random_protein(bg_len / 4 + (i * 37) % bg_len, 47_000 + i as u64),
        });
    }
    Search {
        queries: qs,
        db: SeqDatabase::from_protein_records(records),
        mode: ScoreMode::Protein(ms),
    }
}

/// Striped Gotoh GCUPS under BLOSUM62 and the composition prefilter's
/// pruning rate, every path bit-identical to the sequential scalar Gotoh
/// scan. The gate runs the two lane-packed paths and one prefiltered
/// pass, each on a smaller database.
pub fn protein(_: &HarnessArgs, points: Points, report: &mut Report) {
    let ms = MatrixScoring::blosum62();
    let sweep = points == Points::Sweep;

    // ---- Engine GCUPS on a uniform random workload.
    let (work, rungs) = match points {
        Points::Sweep => (protein_workload(ms, 64, 96, 160, 320), &ALL_RUNGS[..]),
        Points::Gate => (
            protein_workload(ms, 48, 96, 128, 320),
            &[BATCH_SCALAR, BATCH_SIMD][..],
        ),
    };
    let title = work.title("Protein engines", "BLOSUM62 -11/-1");
    let (tab, runs) = work.ladder("protein", &title, rungs);
    let want = work.oracle();
    let engines_exact = runs.iter().all(|r| r.hits == want);
    assert!(engines_exact || !sweep, "a path diverged from scalar Gotoh");
    let t_batch = time_of(&runs, BATCH_SIMD);
    let ratio = speedup(time_of(&runs, BATCH_SCALAR), t_batch);
    report.table("protein.csv", tab);
    report.note(format!(
        "(striped Gotoh: E/F lanes in the Farrar layout, lazy-F correction; \
         {:.3} GCUPS batch aggregate)",
        gcups(work.cells(), t_batch)
    ));

    // ---- Prefilter: planted-homolog workload where the composition
    // bound has something to prune; full scan vs prefiltered scan.
    let planted = match points {
        Points::Sweep => prefilter_workload(ms, 48, 96, TOP_K, 240, 160),
        Points::Gate => prefilter_workload(ms, 32, 96, TOP_K, 160, 160),
    };
    let (pdb, prefs, pcells) = (&planted.db, planted.refs(), planted.cells());
    let pwant = planted.oracle();
    let (index, t_index) = best_of(1, || build_index(pdb));
    let mut ptab = Table::new(
        &planted.title("Composition prefilter", "planted homologs"),
        &[
            "path",
            "time (s)",
            "GCUPS",
            "DP launches",
            "pruned",
            "pruning rate",
        ],
    );
    let mut full_t = Duration::ZERO;
    if sweep {
        let (full_hits, t) = best_of(3, || planted.search(PAIR_SIMD));
        assert_eq!(
            full_hits, pwant,
            "full simd scan diverged from scalar Gotoh"
        );
        full_t = t;
        ptab.row(&[
            "full scan (simd)".into(),
            secs(full_t),
            format!("{:.3}", gcups(pcells, full_t)),
            format!("{}", prefs.len() * pdb.len()),
            "0".into(),
            "0.0%".into(),
        ]);
    }
    let ((pf_hits, stats), pf_t) = best_of(if sweep { 3 } else { 1 }, || {
        prefiltered_search(pdb, &index, &prefs, &ms, KernelChoice::Simd, TOP_K)
    });
    assert!(
        pf_hits == pwant || !sweep,
        "prefiltered scan changed the top-k"
    );
    ptab.row(&[
        "prefiltered (simd)".into(),
        secs(pf_t),
        format!("{:.3}", gcups(pcells, pf_t)),
        format!("{}", stats.scored),
        format!("{}", stats.pruned),
        format!("{:.1}%", stats.pruning_rate() * 100.0),
    ]);
    report.table("protein_prefilter.csv", ptab);
    report.note(format!(
        "(index built in {} — 24 counts + a length per record; every pruned record is\n \
         provably below the k-th best score, so both rows are bit-identical;\n \
         {:.2}x end-to-end over the unfiltered simd scan)",
        secs(t_index),
        speedup(full_t, pf_t)
    ));
    report.claim(
        "protein Gotoh: SIMD >= 2x scalar, prefilter prunes, all bit-exact (§5.14)",
        engines_exact && pf_hits == pwant && ratio >= 2.0 && stats.pruned > 0,
        format!(
            "striped Gotoh {ratio:.2}x over scalar; prefilter pruned {} of {} DP \
             launches ({:.0}%), top-k unchanged",
            stats.pruned,
            stats.evaluated,
            stats.pruning_rate() * 100.0
        ),
    );
}
