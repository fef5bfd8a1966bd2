//! The batch engine: database search and pair-list scoring.
//!
//! [`BatchEngine::search`] is the serving entry point: every query against
//! every database record, top-k hits per query. The work unit is a
//! *(lane group × target slab)* job: one [`GroupProfile`] is built per
//! job and re-scored against a contiguous slab of records, so the profile
//! build (the launch overhead the per-pair path pays per record) amortizes
//! over the whole slab. The planner cuts groups [`group_lanes`] wide — a
//! query per `i8` lane where the scheme's parameters fit one, which is
//! twice the `i16` lane count — but still admits each query a priori at
//! `i16`, so the profile's `i16` re-run of a record whose `i8` pass
//! saturated is always exact. The profile picks the group's lane layout
//! and width from its occupancy — a full group packs a query per `i8`
//! lane, a group of at most one `i16` vector packs at `i16`, the lone
//! query of a one-query request is striped over all lanes — without the
//! plan or the job grid changing. Jobs flow through the work-stealing
//! scheduler; per-job partial top-ks merge in fixed job order, and the
//! strict total order on [`Hit`]s makes the final top-k independent of
//! worker count and interleaving.
//!
//! [`score_pairs`] is the drop-in for loops of single-pair kernel calls
//! (BlastN refinement windows, phase-2 style pair lists): pairs sharing an
//! identical target byte-string share a lane group; the rest run as
//! one-query (striped) groups. Results come back in input order, bit-exact
//! per pair.

use crate::db::SeqDatabase;
use crate::planner::{plan_lane_groups, LanePlan};
use crate::scheduler::{run_jobs, SchedulerConfig};
use crate::topk::{Hit, TopK};
use genomedsm_core::linear::{sw_score_linear, LinearSwResult};
use genomedsm_core::scoring::Scoring;
use genomedsm_core::submat::MatrixScoring;
use genomedsm_core::sw_score_profile;
use genomedsm_kernels::{
    group_lanes, score_batch, score_group, GroupProfile, Isa, KernelChoice, Scheme,
};
use std::collections::HashMap;
use std::ops::Range;

/// Which alignment arithmetic a search runs.
///
/// `Dna` is the original linear-gap path over [`Scoring`] (the config's
/// `scoring` field); `Protein` runs the same engine — planner admission,
/// packed kernels, scalar spill, and the `--check` oracle — under the
/// affine-gap (Gotoh) recurrence over a substitution matrix: the mode is
/// resolved once into the [`Scheme`] every layer is generic over. The
/// variant carries the full scoring scheme so a [`BatchConfig`] remains
/// one plain `Copy` value that completely determines the search
/// arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
// The 1.2 kB matrix lives inline by design: boxing it would cost `Copy`,
// and configs are copied, not stored in bulk.
#[allow(clippy::large_enum_variant)]
pub enum ScoreMode {
    /// Linear-gap DNA scoring via the config's [`Scoring`].
    #[default]
    Dna,
    /// Affine-gap protein scoring via a substitution matrix.
    Protein(MatrixScoring),
}

/// Tuning knobs of a batch search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchConfig {
    /// Kernel selection, as everywhere else in the workspace.
    pub kernel: KernelChoice,
    /// Column scoring scheme (the DNA path; ignored in protein mode).
    pub scoring: Scoring,
    /// Alignment arithmetic: linear-gap DNA or affine-gap protein.
    pub mode: ScoreMode,
    /// Hits to keep per query.
    pub top_k: usize,
    /// Scheduler shape (workers + in-flight window).
    pub scheduler: SchedulerConfig,
    /// Database records per job. `0` picks a slab that yields a few jobs
    /// per worker per lane group.
    pub slab: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            kernel: KernelChoice::Auto,
            scoring: Scoring::paper(),
            mode: ScoreMode::Dna,
            top_k: 10,
            scheduler: SchedulerConfig::default(),
            slab: 0,
        }
    }
}

/// Work- and shape-counters of one search, for benches and logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchStats {
    /// DP cells computed if every (query, target) pair ran exactly:
    /// `Σ |q| × |t|`. GCUPS = `cells / seconds / 1e9`.
    pub cells: u64,
    /// Lane groups the planner formed.
    pub lane_groups: usize,
    /// Lane groups whose jobs ran striped (each query over all lanes)
    /// rather than packed, as their [`GroupProfile`] chose.
    pub striped_groups: usize,
    /// Lane groups whose jobs ran packed on `i8` lanes.
    pub narrow_groups: usize,
    /// (group, record) passes of those groups re-run at `i16` because the
    /// `i8` pass saturated on the record.
    pub reruns: u64,
    /// Queries that ran on the scalar oracle instead of in a lane group.
    pub scalar_queries: usize,
    /// Scheduler jobs executed.
    pub jobs: usize,
    /// Padding rows accepted by the lane plan (see
    /// [`crate::planner::LanePlan::padding_rows`]).
    pub padding_rows: usize,
}

/// Everything a search returns.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Per query (input order): up to `top_k` hits, best first.
    pub hits: Vec<Vec<Hit>>,
    /// Work counters.
    pub stats: BatchStats,
}

/// One scheduler job: a set of queries against a slab of records.
struct Job {
    /// Caller query indices; one lane group iff `packed`, else scalar spill.
    queries: Vec<usize>,
    targets: Range<usize>,
    packed: bool,
}

/// What a job hands to the merge.
struct JobOutput {
    /// Per job query: its partial top-k over the job's slab.
    partials: Vec<(usize, TopK)>,
    /// Whether the job's group profile chose the striped layout.
    striped: bool,
    /// Whether it ran on `i8` lanes.
    narrow: bool,
    /// Records of the slab it re-scored at `i16`.
    reruns: u64,
}

/// The multi-query database search engine.
#[derive(Debug, Clone, Default)]
pub struct BatchEngine {
    /// The engine's configuration (public: it is plain data).
    pub config: BatchConfig,
}

impl BatchEngine {
    /// An engine with the given configuration.
    pub fn new(config: BatchConfig) -> Self {
        Self { config }
    }

    /// The most queries one lane group holds for this engine's kernel and
    /// scheme on this host ([`group_lanes`]): the width the planner cuts
    /// groups at.
    pub fn group_width(&self) -> usize {
        match &self.config.mode {
            ScoreMode::Dna => group_lanes(self.config.kernel, &self.config.scoring),
            ScoreMode::Protein(ms) => group_lanes(self.config.kernel, ms),
        }
    }

    /// Scores every query against every database record, returning the
    /// top-k hits per query (only strictly positive scores are hits).
    ///
    /// Output is deterministic: the same inputs yield the same hits for
    /// every worker count and for both lane-packed and scalar execution
    /// (the kernels are bit-exact against each other).
    pub fn search(&self, db: &SeqDatabase, queries: &[&[u8]]) -> BatchOutcome {
        let mut hits: Vec<Vec<Hit>> = Vec::with_capacity(queries.len());
        let stats = self.search_streaming(db, queries, |q, h| {
            debug_assert_eq!(q, hits.len(), "streaming emission out of order");
            hits.push(h);
        });
        BatchOutcome { hits, stats }
    }

    /// [`search`](Self::search) with incremental delivery: `on_query(q,
    /// hits)` fires once per query, **in ascending query index order**,
    /// as soon as that query's top-k can no longer change.
    ///
    /// A query's hits are final once every job touching its lane group
    /// (or its scalar spill) has passed the scheduler's strictly in-order
    /// merge, so each emitted list is already the exact final answer —
    /// the stream of emissions is a growing prefix of the full result,
    /// which is what lets a server forward partial responses that never
    /// need correction. Emission order and content are deterministic for
    /// every worker count (the merge is in fixed job order and the hit
    /// order is a strict total order).
    pub fn search_streaming(
        &self,
        db: &SeqDatabase,
        queries: &[&[u8]],
        on_query: impl FnMut(usize, Vec<Hit>),
    ) -> BatchStats {
        match &self.config.mode {
            ScoreMode::Dna => self.search_with(&self.config.scoring, db, queries, on_query),
            ScoreMode::Protein(ms) => self.search_with(ms, db, queries, on_query),
        }
    }

    /// [`search_streaming`](Self::search_streaming) under one scheme:
    /// plan, packed jobs and scalar spill are the same code for both.
    fn search_with<S: Scheme>(
        &self,
        scheme: &S,
        db: &SeqDatabase,
        queries: &[&[u8]],
        mut on_query: impl FnMut(usize, Vec<Hit>),
    ) -> BatchStats {
        let cfg = &self.config;
        let mut stats = BatchStats {
            cells: cell_count(db, queries),
            ..BatchStats::default()
        };
        if queries.is_empty() {
            return stats;
        }
        if db.is_empty() {
            for q in 0..queries.len() {
                on_query(q, Vec::new());
            }
            return stats;
        }
        let plan = plan_lane_groups(queries, group_lanes(cfg.kernel, scheme), scheme);
        stats.lane_groups = plan.groups.len();
        stats.scalar_queries = plan.scalar.len();
        stats.padding_rows = plan.padding_rows;
        let (workers, _) = cfg.scheduler.resolved(usize::MAX);
        let slab = self.slab_size(db.len(), &plan, workers);
        let slabs = db.len().div_ceil(slab);
        // Work units in job-layout order: packed groups, then scalar
        // spill singletons. Jobs are unit-major × slab (build_jobs), so
        // job j belongs to unit j / slabs and a unit is complete exactly
        // when its last job, (unit + 1) * slabs - 1, merges.
        let units: Vec<Vec<usize>> = plan
            .groups
            .iter()
            .cloned()
            .chain(plan.scalar.iter().map(|&q| vec![q]))
            .collect();
        let jobs = build_jobs(&plan, db.len(), slab);
        stats.jobs = jobs.len();

        let isa = Isa::best_available();
        let mut best: Vec<TopK> = (0..queries.len()).map(|_| TopK::new(cfg.top_k)).collect();
        // Reorder buffer: units finalize in unit order, but the contract
        // is ascending query order — the same cursor-and-buffer scheme as
        // the scheduler's merge, one level up.
        let mut finalized: Vec<Option<Vec<Hit>>> = (0..queries.len()).map(|_| None).collect();
        let mut cursor = 0usize;
        run_jobs(
            jobs,
            &cfg.scheduler,
            |_, job| exec_job(&job, db, queries, scheme, cfg.top_k, isa),
            |j, out: JobOutput| {
                for (q, tk) in out.partials {
                    best[q].merge(tk);
                }
                stats.reruns += out.reruns;
                if (j + 1) % slabs == 0 {
                    // The layout depends on the group alone, so its last
                    // job speaks for all of them.
                    stats.striped_groups += usize::from(out.striped);
                    stats.narrow_groups += usize::from(out.narrow);
                    for &q in &units[j / slabs] {
                        let done = std::mem::replace(&mut best[q], TopK::new(0));
                        finalized[q] = Some(done.into_sorted());
                    }
                    while cursor < finalized.len() {
                        match finalized[cursor].take() {
                            Some(hits) => {
                                on_query(cursor, hits);
                                cursor += 1;
                            }
                            None => break,
                        }
                    }
                }
            },
        );
        debug_assert_eq!(cursor, queries.len(), "a query never finalized");
        stats
    }

    /// Records per job: aim for several jobs per worker within each lane
    /// group so stealing has granules to balance, without collapsing to
    /// per-record jobs (which would re-pay the profile build everywhere).
    fn slab_size(&self, records: usize, plan: &LanePlan, workers: usize) -> usize {
        if self.config.slab > 0 {
            return self.config.slab;
        }
        let groups = (plan.groups.len() + plan.scalar.len()).max(1);
        let target_jobs = (workers * 4).div_ceil(groups).max(2);
        records.div_ceil(target_jobs).max(1)
    }
}

/// Total exact-DP cells of the full cross product.
fn cell_count(db: &SeqDatabase, queries: &[&[u8]]) -> u64 {
    let qsum: u64 = queries.iter().map(|q| q.len() as u64).sum();
    qsum * db.total_bases() as u64
}

/// Jobs in a fixed, deterministic order: packed groups first (each ×
/// every slab), then scalar spill queries (each × every slab).
fn build_jobs(plan: &LanePlan, records: usize, slab: usize) -> Vec<Job> {
    let slabs: Vec<Range<usize>> = (0..records.div_ceil(slab))
        .map(|s| s * slab..((s + 1) * slab).min(records))
        .collect();
    let mut jobs = Vec::with_capacity((plan.groups.len() + plan.scalar.len()) * slabs.len());
    for group in &plan.groups {
        for slab in &slabs {
            jobs.push(Job {
                queries: group.clone(),
                targets: slab.clone(),
                packed: true,
            });
        }
    }
    for &q in &plan.scalar {
        for slab in &slabs {
            jobs.push(Job {
                queries: vec![q],
                targets: slab.clone(),
                packed: false,
            });
        }
    }
    jobs
}

/// Runs one job: profile built once, scored against every slab record.
fn exec_job<S: Scheme>(
    job: &Job,
    db: &SeqDatabase,
    queries: &[&[u8]],
    scheme: &S,
    top_k: usize,
    isa: Isa,
) -> JobOutput {
    let mut partials: Vec<(usize, TopK)> =
        job.queries.iter().map(|&q| (q, TopK::new(top_k))).collect();
    let group = if job.packed {
        let qs: Vec<&[u8]> = job.queries.iter().map(|&q| queries[q]).collect();
        GroupProfile::new(&qs, scheme, isa)
    } else {
        None
    };
    let Some(mut group) = group else {
        // Scalar spill — or a group the kernel rejected (cannot happen
        // for planner-admitted groups, but fall back rather than trust).
        for (t, target) in db.slab(job.targets.clone()) {
            for (lane, &q) in job.queries.iter().enumerate() {
                let r = scheme.oracle(queries[q], target, 0);
                offer(&mut partials[lane].1, t, &r);
            }
        }
        return JobOutput {
            partials,
            striped: false,
            narrow: false,
            reruns: 0,
        };
    };
    // Longest record first (the slab is length-sorted), so the state a
    // packed group carries along a target is allocated once, at its full
    // length; the top-k sets do not depend on the order.
    for (t, target) in db.slab(job.targets.clone()).rev() {
        for (lane, r) in score_group(&mut group, target, 0).into_iter().enumerate() {
            offer(&mut partials[lane].1, t, &r);
        }
    }
    JobOutput {
        partials,
        striped: group.is_striped(),
        narrow: group.is_narrow(),
        reruns: group.reruns(),
    }
}

/// Offers one pair result to a collector (shared with the prefiltered
/// driver so "what counts as a hit" has a single definition).
pub(crate) fn offer(tk: &mut TopK, target: usize, r: &LinearSwResult) {
    if r.best_score > 0 {
        tk.push(Hit {
            score: r.best_score,
            target,
            end: r.best_end,
        });
    }
}

/// Scores a list of (query, target) pairs, returning one exact
/// [`LinearSwResult`] per pair in input order — the batch drop-in for a
/// loop of single-pair kernel calls.
///
/// Pairs sharing a byte-identical target are grouped and share lane
/// groups (a BlastN run refining many windows of the same subject,
/// phase-2 regions against a common reference); a pair whose target
/// nobody shares is a group of one, which [`score_batch`] runs striped
/// over all lanes, as the per-pair kernel would. Each target group is one
/// scheduler job.
pub fn score_pairs(
    kernel: KernelChoice,
    pairs: &[(&[u8], &[u8])],
    scoring: &Scoring,
    threshold: i32,
    scheduler: &SchedulerConfig,
) -> Vec<LinearSwResult> {
    // Group pair indices by identical target bytes, first-seen order.
    let mut group_of: HashMap<&[u8], usize> = HashMap::new();
    let mut groups: Vec<(&[u8], Vec<usize>)> = Vec::new();
    for (i, &(_, t)) in pairs.iter().enumerate() {
        match group_of.get(t) {
            Some(&g) => groups[g].1.push(i),
            None => {
                group_of.insert(t, groups.len());
                groups.push((t, vec![i]));
            }
        }
    }
    let zero = LinearSwResult {
        best_score: 0,
        best_end: (0, 0),
        hits: 0,
    };
    let mut out = vec![zero; pairs.len()];
    run_jobs(
        groups,
        scheduler,
        |_, (target, members): (&[u8], Vec<usize>)| {
            let qs: Vec<&[u8]> = members.iter().map(|&i| pairs[i].0).collect();
            let results = score_batch(kernel, &qs, target, scoring, threshold);
            members.into_iter().zip(results).collect::<Vec<_>>()
        },
        |_, scored| {
            for (i, r) in scored {
                out[i] = r;
            }
        },
    );
    out
}

/// The sequential per-pair reference answer: every query scored against
/// every record with the scalar oracle [`sw_score_linear`], identical
/// top-k bookkeeping to the engine.
///
/// This is the `--check` oracle of `genomedsm batch` and the reference
/// the engine's own tests compare against: [`BatchEngine::search`] must
/// equal it byte for byte on every kernel choice and worker count. It is
/// deliberately the dumbest possible implementation — no lane packing,
/// no slabs, no scheduler — so a disagreement always indicts the engine.
pub fn oracle_search(
    db: &SeqDatabase,
    queries: &[&[u8]],
    scoring: &Scoring,
    top_k: usize,
) -> Vec<Vec<Hit>> {
    oracle_search_mode(db, queries, &ScoreMode::Dna, scoring, top_k)
}

/// [`oracle_search`] generalized over the scoring mode: the scalar
/// per-pair reference for whichever arithmetic the engine ran — linear
/// [`sw_score_linear`] for DNA, the scalar Gotoh [`sw_score_profile`] for
/// protein. Still deliberately the dumbest possible implementation.
pub fn oracle_search_mode(
    db: &SeqDatabase,
    queries: &[&[u8]],
    mode: &ScoreMode,
    scoring: &Scoring,
    top_k: usize,
) -> Vec<Vec<Hit>> {
    queries
        .iter()
        .map(|q| {
            let mut tk = TopK::new(top_k);
            for t in 0..db.len() {
                let r = match mode {
                    ScoreMode::Dna => sw_score_linear(q, db.seq(t), scoring, 0),
                    ScoreMode::Protein(ms) => sw_score_profile(q, db.seq(t), ms, 0),
                };
                offer(&mut tk, t, &r);
            }
            tk.into_sorted()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use genomedsm_kernels::kernel_for;
    use genomedsm_seq::fasta::FastaRecord;
    use genomedsm_seq::{random_dna, DnaSeq};

    const SC: Scoring = Scoring::paper();

    fn test_db(n: usize, len: usize, seed: u64) -> SeqDatabase {
        let records = (0..n)
            .map(|i| FastaRecord {
                id: format!("rec{i}"),
                seq: random_dna(len / 2 + (i * 37) % len.max(1), seed + i as u64),
            })
            .collect();
        SeqDatabase::from_records(records)
    }

    fn test_queries(n: usize, len: usize, seed: u64) -> Vec<DnaSeq> {
        (0..n)
            .map(|i| random_dna(len / 3 + (i * 11) % len.max(1), seed ^ (i as u64) << 4))
            .collect()
    }

    /// The sequential single-pair reference the engine must equal.
    fn brute_force(db: &SeqDatabase, queries: &[&[u8]], k: usize) -> Vec<Vec<Hit>> {
        oracle_search(db, queries, &SC, k)
    }

    #[test]
    fn search_matches_brute_force_for_all_kernels() {
        let db = test_db(23, 60, 7);
        let queries = test_queries(19, 45, 99);
        let refs: Vec<&[u8]> = queries.iter().map(|q| q.as_bytes()).collect();
        let want = brute_force(&db, &refs, 5);
        for kernel in [KernelChoice::Scalar, KernelChoice::Simd, KernelChoice::Auto] {
            let engine = BatchEngine::new(BatchConfig {
                kernel,
                top_k: 5,
                scheduler: SchedulerConfig {
                    workers: 3,
                    window: 2,
                },
                ..BatchConfig::default()
            });
            let got = engine.search(&db, &refs);
            assert_eq!(got.hits, want, "kernel {kernel}");
            assert!(got.stats.cells > 0);
        }
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let db = test_db(31, 80, 3);
        let queries = test_queries(27, 50, 5);
        let refs: Vec<&[u8]> = queries.iter().map(|q| q.as_bytes()).collect();
        let runs: Vec<Vec<Vec<Hit>>> = [1usize, 2, 5, 8]
            .iter()
            .map(|&workers| {
                BatchEngine::new(BatchConfig {
                    top_k: 4,
                    scheduler: SchedulerConfig { workers, window: 3 },
                    slab: 4,
                    ..BatchConfig::default()
                })
                .search(&db, &refs)
                .hits
            })
            .collect();
        for r in &runs[1..] {
            assert_eq!(r, &runs[0]);
        }
    }

    #[test]
    fn empty_inputs_yield_empty_hit_lists() {
        let db = test_db(4, 30, 1);
        let engine = BatchEngine::default();
        assert!(engine.search(&db, &[]).hits.is_empty());
        let q: Vec<&[u8]> = vec![b"ACGT"];
        let empty = SeqDatabase::from_records(vec![]);
        assert_eq!(engine.search(&empty, &q).hits, vec![Vec::<Hit>::new()]);
    }

    #[test]
    fn mixed_degenerate_queries_are_exact() {
        let db = test_db(9, 40, 11);
        let long = vec![b'A'; 40_000];
        let queries: Vec<&[u8]> = vec![b"", b"A", &long, b"GATTACA"];
        let engine = BatchEngine::new(BatchConfig {
            top_k: 3,
            scheduler: SchedulerConfig {
                workers: 4,
                window: 0,
            },
            ..BatchConfig::default()
        });
        assert_eq!(
            engine.search(&db, &queries).hits,
            brute_force(&db, &queries, 3)
        );
    }

    #[test]
    fn streaming_emits_final_answers_in_ascending_query_order() {
        let db = test_db(17, 70, 21);
        let queries = test_queries(23, 40, 77);
        let refs: Vec<&[u8]> = queries.iter().map(|q| q.as_bytes()).collect();
        let want = brute_force(&db, &refs, 4);
        for workers in [1usize, 3, 6] {
            let engine = BatchEngine::new(BatchConfig {
                top_k: 4,
                scheduler: SchedulerConfig { workers, window: 2 },
                slab: 5,
                ..BatchConfig::default()
            });
            let mut seen: Vec<(usize, Vec<Hit>)> = Vec::new();
            engine.search_streaming(&db, &refs, |q, hits| seen.push((q, hits)));
            // One emission per query, strictly ascending, each already final.
            assert_eq!(seen.len(), refs.len(), "workers {workers}");
            for (i, (q, hits)) in seen.iter().enumerate() {
                assert_eq!(*q, i);
                assert_eq!(hits, &want[i], "workers {workers} query {i}");
            }
        }
    }

    #[test]
    fn few_queries_and_a_tail_keep_the_job_grid_and_the_answers() {
        use genomedsm_seq::{random_protein, ProteinRecord};
        // Equal lengths, so which groups stripe is known: a lone query
        // does, a group one short of full does not. Both schemes fit `i8`
        // lanes, so a group wider than one `i16` vector runs narrow.
        let lanes = group_lanes(KernelChoice::Simd, &SC);
        assert_eq!(
            lanes,
            group_lanes(KernelChoice::Simd, &MatrixScoring::blosum62())
        );
        let i16_lanes = genomedsm_kernels::effective_lanes(KernelChoice::Simd);
        let dna: Vec<Vec<u8>> = (0..=lanes)
            .map(|i| random_dna(48, 300 + i as u64).into_bytes())
            .collect();
        let protein: Vec<Vec<u8>> = (0..=lanes)
            .map(|i| random_protein(40, 500 + i as u64).into_bytes())
            .collect();
        let protein_db = SeqDatabase::from_protein_records(
            (0..21)
                .map(|i| ProteinRecord {
                    id: format!("p{i}"),
                    seq: random_protein(30 + (i * 13) % 50, 400 + i as u64),
                })
                .collect(),
        );
        let blosum = ScoreMode::Protein(MatrixScoring::blosum62());
        for (db, pool, mode) in [
            (&test_db(23, 60, 7), &dna, ScoreMode::Dna),
            (&protein_db, &protein, blosum),
        ] {
            // One query, a few, one short of a full group, a full group
            // plus a one-query tail.
            for (n, striped) in [
                (1, Some(1)),
                (3, None),
                (lanes - 1, Some(0)),
                (lanes + 1, Some(1)),
            ] {
                let refs: Vec<&[u8]> = pool[..n].iter().map(Vec::as_slice).collect();
                let want = oracle_search_mode(db, &refs, &mode, &SC, 4);
                for workers in [1usize, 2] {
                    let engine = BatchEngine::new(BatchConfig {
                        kernel: KernelChoice::Simd,
                        mode,
                        top_k: 4,
                        scheduler: SchedulerConfig { workers, window: 2 },
                        slab: 5,
                        ..BatchConfig::default()
                    });
                    let got = engine.search(db, &refs);
                    assert_eq!(got.hits, want, "{n} queries, {workers} workers");
                    let mut seen: Vec<(usize, Vec<Hit>)> = Vec::new();
                    let stats = engine.search_streaming(db, &refs, |q, hits| seen.push((q, hits)));
                    let (order, streamed): (Vec<usize>, Vec<Vec<Hit>>) = seen.into_iter().unzip();
                    assert_eq!(order, (0..n).collect::<Vec<_>>());
                    assert_eq!(streamed, want);
                    // The grid is the planner's alone: layout moves nothing.
                    assert_eq!(stats, got.stats);
                    assert_eq!(stats.lane_groups, n.div_ceil(lanes));
                    assert_eq!(stats.jobs, n.div_ceil(lanes) * db.len().div_ceil(5));
                    assert_eq!((stats.scalar_queries, stats.padding_rows), (0, 0));
                    if let Some(striped) = striped {
                        assert_eq!(stats.striped_groups, striped, "{n} queries");
                    }
                    let narrow = (0..n)
                        .step_by(lanes)
                        .filter(|&first| (n - first).min(lanes) > i16_lanes)
                        .count();
                    // Random sequences score far below the 8-bit ceiling.
                    assert_eq!((stats.narrow_groups, stats.reruns), (narrow, 0));
                }
            }
        }
    }

    #[test]
    fn saturating_members_of_narrow_groups_match_the_oracle_for_any_worker_count() {
        use genomedsm_seq::{random_protein, ProteinRecord};
        // 37 queries: a full 8-bit group and a tail. Every third one is cut
        // whole from a database record, so against that record it scores
        // far past the i8 ceiling and its half group re-runs at i16; the
        // others are random and stay far under.
        let dna_db = test_db(12, 400, 5);
        let protein_db = SeqDatabase::from_protein_records(
            (0..12)
                .map(|i| ProteinRecord {
                    id: format!("p{i}"),
                    seq: random_protein(200 + i * 17, 60 + i as u64),
                })
                .collect(),
        );
        let blosum = ScoreMode::Protein(MatrixScoring::blosum62());
        for (db, mode) in [(&dna_db, ScoreMode::Dna), (&protein_db, blosum)] {
            let queries: Vec<Vec<u8>> = (0..37)
                .map(|i| match (i % 3, mode) {
                    (0, _) => db.seq(i % db.len())[10..140 + i].to_vec(),
                    (_, ScoreMode::Dna) => random_dna(60 + 3 * i, 700 + i as u64).into_bytes(),
                    (_, ScoreMode::Protein(_)) => {
                        random_protein(60 + 3 * i, 800 + i as u64).into_bytes()
                    }
                })
                .collect();
            let refs: Vec<&[u8]> = queries.iter().map(Vec::as_slice).collect();
            let want = oracle_search_mode(db, &refs, &mode, &SC, 3);
            for workers in [1usize, 2, 4] {
                let engine = BatchEngine::new(BatchConfig {
                    kernel: KernelChoice::Simd,
                    mode,
                    top_k: 3,
                    scheduler: SchedulerConfig { workers, window: 2 },
                    slab: 5,
                    ..BatchConfig::default()
                });
                let got = engine.search(db, &refs);
                assert_eq!(got.hits, want, "{mode:?}, {workers} workers");
                let stats = got.stats;
                assert!(
                    stats.narrow_groups > 0 && stats.reruns > 0,
                    "{mode:?}: {stats:?}"
                );
            }
        }
    }

    #[test]
    fn score_pairs_matches_per_pair_kernel_calls() {
        let targets: Vec<DnaSeq> = (0..4).map(|i| random_dna(70, 50 + i)).collect();
        let queries = test_queries(13, 35, 17);
        // Repeat targets so grouping actually packs lanes.
        let pairs: Vec<(&[u8], &[u8])> = queries
            .iter()
            .enumerate()
            .map(|(i, q)| (q.as_bytes(), targets[i % targets.len()].as_bytes()))
            .collect();
        for kernel in [KernelChoice::Scalar, KernelChoice::Simd, KernelChoice::Auto] {
            for workers in [1, 4] {
                let got = score_pairs(
                    kernel,
                    &pairs,
                    &SC,
                    2,
                    &SchedulerConfig { workers, window: 2 },
                );
                let want: Vec<LinearSwResult> = pairs
                    .iter()
                    .map(|&(q, t)| kernel_for(kernel).score(q, t, &SC, 2))
                    .collect();
                assert_eq!(got, want, "kernel {kernel} workers {workers}");
            }
        }
    }

    #[test]
    fn protein_search_matches_gotoh_oracle_for_all_kernels() {
        use genomedsm_seq::random_protein;
        let ms = MatrixScoring::blosum62();
        let mode = ScoreMode::Protein(ms);
        let records: Vec<genomedsm_seq::ProteinRecord> = (0..21)
            .map(|i| genomedsm_seq::ProteinRecord {
                id: format!("p{i}"),
                seq: random_protein(30 + (i * 13) % 50, 400 + i as u64),
            })
            .collect();
        let db = SeqDatabase::from_protein_records(records);
        let queries: Vec<genomedsm_seq::ProteinSeq> = (0..17)
            .map(|i| random_protein(10 + (i * 7) % 40, 900 + i as u64))
            .collect();
        let refs: Vec<&[u8]> = queries.iter().map(|q| q.as_bytes()).collect();
        let want = oracle_search_mode(&db, &refs, &mode, &SC, 5);
        for kernel in [KernelChoice::Scalar, KernelChoice::Simd, KernelChoice::Auto] {
            for workers in [1usize, 4] {
                let engine = BatchEngine::new(BatchConfig {
                    kernel,
                    mode,
                    top_k: 5,
                    scheduler: SchedulerConfig { workers, window: 2 },
                    slab: 4,
                    ..BatchConfig::default()
                });
                let got = engine.search(&db, &refs);
                assert_eq!(got.hits, want, "kernel {kernel} workers {workers}");
            }
        }
    }

    #[test]
    fn protein_mode_spills_oversized_queries_exactly() {
        // A query past the BLOSUM62 i16 envelope (min(m,·)·11 > 32 000)
        // must run on the scalar Gotoh path and still match the oracle.
        let ms = MatrixScoring::blosum62();
        let mode = ScoreMode::Protein(ms);
        let records: Vec<genomedsm_seq::ProteinRecord> = (0..4)
            .map(|i| genomedsm_seq::ProteinRecord {
                id: format!("p{i}"),
                seq: genomedsm_seq::random_protein(60, i as u64),
            })
            .collect();
        let db = SeqDatabase::from_protein_records(records);
        let huge = vec![b'W'; 3000];
        let queries: Vec<&[u8]> = vec![&huge, b"WQHKRWCEW", b""];
        let want = oracle_search_mode(&db, &queries, &mode, &SC, 3);
        let engine = BatchEngine::new(BatchConfig {
            mode,
            top_k: 3,
            ..BatchConfig::default()
        });
        let got = engine.search(&db, &queries);
        assert_eq!(got.hits, want);
        assert!(got.stats.scalar_queries >= 1);
    }

    #[test]
    fn score_pairs_empty_list() {
        assert!(
            score_pairs(KernelChoice::Auto, &[], &SC, 0, &SchedulerConfig::default()).is_empty()
        );
    }
}
