//! `db_dna` and `db_protein`: a batch of short queries against a database,
//! through `genomedsm batch`.

use super::{all_equal, cli_ops, process_start_s, read, timed, BudgetRow, Measured, Workload};
use crate::child::Env;
use crate::gen::{self, SplitMix64};
use crate::trace::Tracer;
use genomedsm::batch::{
    load_inputs, load_protein_inputs, oracle_search_mode, plan_lane_groups_fitting, BatchConfig,
    BatchEngine, Hit, LanePlan, SchedulerConfig, ScoreMode, SeqDatabase, TopK,
};
use genomedsm::core::submat::{MatrixScoring, SubstMatrix};
use genomedsm::core::{sw_score_linear, sw_score_profile, Scoring};
use genomedsm::kernels::{
    effective_lanes, fits_i16_affine_query, fits_i16_query, score_batch_packed,
    score_batch_packed_affine, Isa, KernelChoice, LinearSwResult, PackedAffineProfile,
    PackedProfile,
};
use genomedsm::seq::fasta::{write_fasta_file, write_protein_fasta_file};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub const TOP_K: usize = 5;
const SCORING: Scoring = Scoring::paper();

/// BLOSUM62 with the CLI's default gap penalties.
pub fn protein_scoring() -> MatrixScoring {
    MatrixScoring::new(SubstMatrix::blosum62(), -11, -1)
}

/// `count` sequences of `mean ± spread` residues.
#[derive(Debug, Clone, Copy)]
pub struct Ragged {
    pub count: usize,
    pub mean: usize,
    pub spread: usize,
}

impl Ragged {
    pub fn lengths(&self, rng: &mut SplitMix64) -> Vec<usize> {
        gen::ragged_lengths(self.count, self.mean, self.spread, rng)
    }

    pub fn residues(&self) -> usize {
        self.count * self.mean
    }
}

pub struct Db {
    mode: ScoreMode,
    queries: Ragged,
    records: Ragged,
    /// Two queries (by index) with their brute-force top-k, from set-up.
    oracle: Vec<(usize, Vec<Hit>)>,
    outputs: Vec<PathBuf>,
}

impl Db {
    /// Reads of 50 – 250 bp against records of 500 – 1 500 bp: every query
    /// inside the i16 envelope and the lanes full, so the packed kernel,
    /// the planner and the scheduler do nearly all the work.
    pub fn dna(smoke: bool) -> Self {
        let (queries, records) = if smoke { (16, 40) } else { (128, 640) };
        Self {
            mode: ScoreMode::Dna,
            queries: Ragged {
                count: queries,
                mean: 150,
                spread: 100,
            },
            records: Ragged {
                count: records,
                mean: 1000,
                spread: 500,
            },
            oracle: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// 150 – 450 aa queries against 100 – 600 aa records under BLOSUM62
    /// -11/-1: the same engine used differently (affine kernels, a profile
    /// row per matrix row, fewer and longer lane groups).
    pub fn protein(smoke: bool) -> Self {
        let (queries, records) = if smoke { (16, 40) } else { (64, 1000) };
        Self {
            mode: ScoreMode::Protein(protein_scoring()),
            queries: Ragged {
                count: queries,
                mean: 300,
                spread: 150,
            },
            records: Ragged {
                count: records,
                mean: 350,
                spread: 250,
            },
            oracle: Vec::new(),
            outputs: Vec::new(),
        }
    }

    fn is_protein(&self) -> bool {
        matches!(self.mode, ScoreMode::Protein(_))
    }

    fn db_path(env: &Env) -> PathBuf {
        env.path("db.fa")
    }

    fn query_path(env: &Env) -> PathBuf {
        env.path("queries.fa")
    }

    fn load(&self, env: &Env) -> Result<genomedsm::batch::SearchInputs, String> {
        if self.is_protein() {
            load_protein_inputs(Self::db_path(env), Self::query_path(env))
        } else {
            load_inputs(Self::db_path(env), Self::query_path(env))
        }
        .map_err(|e| format!("load inputs: {e}"))
    }
}

/// Writes a FASTA file of random records `"{prefix}{i}"` of the given
/// lengths; shared with the service workload and the ledger.
pub fn write_records(
    protein: bool,
    prefix: &str,
    lengths: &[usize],
    seed: u64,
    path: &std::path::Path,
) -> Result<(), String> {
    if protein {
        write_protein_fasta_file(path, &gen::protein_records(prefix, lengths, seed))
    } else {
        write_fasta_file(path, &gen::dna_records(prefix, lengths, seed))
    }
    .map_err(|e| format!("write {}: {e}", path.display()))
}

/// A hit as `genomedsm batch` prints it: score, record id, end cell.
type PrintedHit = (i32, String, (usize, usize));

/// The hits `genomedsm batch` printed, per query, and the text with its one
/// timing line removed.
fn parse_batch_output(text: &str) -> Result<(Vec<Vec<PrintedHit>>, String), String> {
    let mut hits: Vec<Vec<PrintedHit>> = Vec::new();
    let mut answer = String::new();
    let bad = |line: &str| format!("unexpected batch output line: {line:?}");
    for line in text.lines() {
        if line.contains("aggregate GCUPS") {
            continue;
        }
        answer.push_str(line);
        answer.push('\n');
        if line.starts_with("query ") {
            hits.push(Vec::new());
        } else if line.starts_with("  score") {
            let f: Vec<&str> = line.split_whitespace().collect();
            let num = |s: &str| {
                s.trim_matches(|c: char| !c.is_ascii_digit())
                    .parse::<usize>()
                    .map_err(|_| bad(line))
            };
            if f.len() != 6 {
                return Err(bad(line));
            }
            let score = f[1].parse::<i32>().map_err(|_| bad(line))?;
            let hit = (score, f[2].to_string(), (num(f[4])?, num(f[5])?));
            hits.last_mut().ok_or_else(|| bad(line))?.push(hit);
        }
    }
    Ok((hits, answer))
}

fn pair_oracle(mode: &ScoreMode, query: &[u8], target: &[u8]) -> LinearSwResult {
    match mode {
        ScoreMode::Dna => sw_score_linear(query, target, &SCORING, 0),
        ScoreMode::Protein(ms) => sw_score_profile(query, target, ms, 0),
    }
}

impl Workload for Db {
    fn set_up(&mut self, env: &Env, seed: u64) -> Result<(), String> {
        let mut rng = SplitMix64::new(gen::sub_seed(seed, 0));
        let records = self.records.lengths(&mut rng);
        let queries = self.queries.lengths(&mut rng);
        let protein = self.is_protein();
        let (db_seed, q_seed) = (gen::sub_seed(seed, 1), gen::sub_seed(seed, 2));
        write_records(protein, "r", &records, db_seed, &Self::db_path(env))?;
        write_records(protein, "q", &queries, q_seed, &Self::query_path(env))?;
        // The reference answers: two queries in full against the brute-force
        // search of what was written. A random one and one of the mirrored
        // length, so that every seed's set-up fills the same number of cells.
        let inputs = self.load(env)?;
        let first = SplitMix64::new(gen::sub_seed(seed, 3)).below(queries.len() as u64) as usize;
        let mirrored = 2 * self.queries.mean - queries[first];
        let second = (0..queries.len())
            .find(|&q| q != first && queries[q] == mirrored)
            .unwrap_or(first);
        self.oracle = [first, second]
            .into_iter()
            .map(|q| {
                let query = [inputs.queries[q].as_slice()];
                let mut want = oracle_search_mode(&inputs.db, &query, &self.mode, &SCORING, TOP_K);
                (q, want.remove(0))
            })
            .collect();
        Ok(())
    }

    fn tear_down(&mut self, _env: &Env) {}

    fn measure(
        &mut self,
        env: &Env,
        budget: Duration,
        min_ops: u64,
        tracer: &mut Tracer,
    ) -> Result<Measured, String> {
        let first = self.outputs.len();
        let protein = self.is_protein();
        let m = cli_ops(
            env,
            budget,
            min_ops,
            tracer,
            "cli.batch",
            first,
            |env| {
                let mut cmd = env.genomedsm();
                cmd.arg("batch")
                    .arg("--db")
                    .arg(Self::db_path(env))
                    .arg("--queries")
                    .arg(Self::query_path(env))
                    .args(["--top-k", &TOP_K.to_string()])
                    .args(["--workers", &env.workers.to_string()]);
                if protein {
                    cmd.args(["--mode", "protein"]);
                }
                cmd
            },
            |i| env.path(&format!("batch-{i}.out")),
        )?;
        self.outputs.extend(
            (first..first + m.attempted as usize).map(|i| env.path(&format!("batch-{i}.out"))),
        );
        Ok(m)
    }

    fn verify(&mut self, env: &Env) -> Result<u64, String> {
        let inputs = self.load(env)?;
        let index_of: HashMap<&str, usize> = (0..inputs.db.len())
            .map(|i| (inputs.db.meta(i).id.as_str(), i))
            .collect();
        let mut answers = Vec::new();
        let mut parsed = Vec::new();
        for path in &self.outputs {
            let (hits, answer) = parse_batch_output(&read(path)?)?;
            answers.push(answer);
            parsed.push(hits);
        }
        if !all_equal(&answers) {
            return Ok(1);
        }
        // Identical outputs: check the first, charge every operation.
        let all = self.outputs.len() as u64;
        let hits = &parsed[0];
        if hits.len() != inputs.queries.len() {
            return Ok(all);
        }
        let mut as_hits: Vec<Vec<Hit>> = Vec::with_capacity(hits.len());
        for (q, list) in hits.iter().enumerate() {
            let mut converted = Vec::with_capacity(list.len());
            for (score, id, end) in list {
                let Some(&target) = index_of.get(id.as_str()) else {
                    return Ok(all);
                };
                // Every reported hit, re-scored on its own by the scalar oracle.
                let r = pair_oracle(&self.mode, &inputs.queries[q], inputs.db.seq(target));
                if (r.best_score, r.best_end) != (*score, *end) {
                    return Ok(all);
                }
                converted.push(Hit {
                    score: *score,
                    target,
                    end: *end,
                });
            }
            as_hits.push(converted);
        }
        // The reported hits are also the *best* ones, in the right order.
        if self.oracle.iter().any(|(q, want)| *want != as_hits[*q]) {
            return Ok(all);
        }
        Ok(0)
    }

    fn cells_per_op(&self) -> f64 {
        self.queries.residues() as f64 * self.records.residues() as f64
    }

    fn replay(&mut self, env: &Env, tracer: &mut Tracer) -> Result<Vec<BudgetRow>, String> {
        let start_s = process_start_s(env, tracer)?;
        let (inputs, load_s) = timed(tracer, "batch.load_inputs", || self.load(env));
        let inputs = inputs?;
        let refs = inputs.query_refs();
        let walk = walk_jobs(&inputs.db, &refs, &self.mode, env.workers, tracer);
        let engine = BatchEngine::new(engine_config(self.mode, env.workers));
        let (out, engine_s) = timed(tracer, "batch.engine.search", || {
            engine.search(&inputs.db, &refs)
        });
        let (_, print_s) = timed(tracer, "report.format", || {
            let mut text = String::new();
            for (q, hits) in out.hits.iter().enumerate() {
                let _ = writeln!(
                    text,
                    "query {q} ({} bp): {} hit(s)",
                    refs[q].len(),
                    hits.len()
                );
                for h in hits {
                    let _ = writeln!(
                        text,
                        "  score {:>6}  {}  end (q={}, t={})",
                        h.score,
                        inputs.db.meta(h.target).id,
                        h.end.0,
                        h.end.1
                    );
                }
            }
            std::hint::black_box(text.len())
        });
        // The engine ran on W workers; the walk says how one worker's time
        // divides, and the engine's wall is divided the same way.
        let scale = (engine_s - walk.plan_s).max(0.0) / walk.job_s().max(1e-12);
        Ok(vec![
            BudgetRow {
                name: "process start",
                seconds: start_s,
            },
            BudgetRow {
                name: "FASTA load (seq::fasta + batch::db)",
                seconds: load_s,
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
                name: "kernel (kernels packed score)",
                seconds: walk.kernel_s * scale,
            },
            BudgetRow {
                name: "merge / top-k (batch::topk)",
                seconds: walk.topk_s * scale,
            },
            BudgetRow {
                name: "print",
                seconds: print_s,
            },
        ])
    }
}

/// The engine configuration `genomedsm batch --top-k 5 --workers W` builds.
pub fn engine_config(mode: ScoreMode, workers: usize) -> BatchConfig {
    BatchConfig {
        mode,
        top_k: TOP_K,
        scheduler: SchedulerConfig { workers, window: 0 },
        ..BatchConfig::default()
    }
}

/// One worker's walk over the engine's job grid, a layer at a time.
#[derive(Debug, Default)]
pub struct Walk {
    pub plan_s: f64,
    pub profile_s: f64,
    pub kernel_s: f64,
    pub topk_s: f64,
    pub jobs: usize,
    pub plan: Option<LanePlan>,
    pub hits: Vec<Vec<Hit>>,
}

impl Walk {
    pub fn job_s(&self) -> f64 {
        self.profile_s + self.kernel_s + self.topk_s
    }
}

// One value at a time, on the stack, for the length of a job.
#[allow(clippy::large_enum_variant)]
enum Packed {
    Dna(PackedProfile),
    Protein(PackedAffineProfile),
}

/// Does what `BatchEngine::search` does for lane-packed queries — plan,
/// then per (lane group × record slab) job: build the profile, score every
/// record of the slab, offer the results to the per-query top-k — on one
/// thread and through the same public functions, timing each layer apart.
/// `workers` only sizes the slabs the way the engine would for that many
/// workers. Queries outside the i16 envelope are not walked (none of the
/// generated ones are).
pub fn walk_jobs(
    db: &SeqDatabase,
    queries: &[&[u8]],
    mode: &ScoreMode,
    workers: usize,
    tracer: &mut Tracer,
) -> Walk {
    let isa = Isa::best_available();
    let lanes = effective_lanes(KernelChoice::Auto);
    let mut walk = Walk::default();
    let (plan, plan_s) = timed(tracer, "batch.planner.plan", || match mode {
        ScoreMode::Dna => {
            plan_lane_groups_fitting(queries, lanes, |len| fits_i16_query(len, &SCORING))
        }
        ScoreMode::Protein(ms) => {
            plan_lane_groups_fitting(queries, lanes, |len| fits_i16_affine_query(len, ms))
        }
    });
    walk.plan_s = plan_s;
    // `BatchEngine::slab_size`, for the default `slab = 0`.
    let units = (plan.groups.len() + plan.scalar.len()).max(1);
    let slab = db
        .len()
        .div_ceil((workers * 4).div_ceil(units).max(2))
        .max(1);
    let mut best: Vec<TopK> = (0..queries.len()).map(|_| TopK::new(TOP_K)).collect();
    for group in &plan.groups {
        let qs: Vec<&[u8]> = group.iter().map(|&q| queries[q]).collect();
        for first in (0..db.len()).step_by(slab) {
            let targets = first..(first + slab).min(db.len());
            walk.jobs += 1;
            let t0 = Instant::now();
            let profile = tracer.span("kernels.packed.profile_build", 0, |_| match mode {
                ScoreMode::Dna => PackedProfile::new(&qs, &SCORING, isa).map(Packed::Dna),
                ScoreMode::Protein(ms) => {
                    PackedAffineProfile::new(&qs, ms, isa).map(Packed::Protein)
                }
            });
            let t1 = Instant::now();
            let Some(mut profile) = profile else { continue };
            let scores: Vec<Vec<LinearSwResult>> = tracer.span("kernels.packed.score", 0, |_| {
                db.slab(targets.clone())
                    .map(|(_, target)| match &mut profile {
                        Packed::Dna(p) => score_batch_packed(p, target, 0),
                        Packed::Protein(p) => score_batch_packed_affine(p, target, 0),
                    })
                    .collect()
            });
            let t2 = Instant::now();
            tracer.span("batch.topk.offer", 0, |_| {
                for (t, per_lane) in targets.clone().zip(&scores) {
                    for (lane, r) in per_lane.iter().enumerate() {
                        if r.best_score > 0 {
                            best[group[lane]].push(Hit {
                                score: r.best_score,
                                target: t,
                                end: r.best_end,
                            });
                        }
                    }
                }
            });
            walk.profile_s += (t1 - t0).as_secs_f64();
            walk.kernel_s += (t2 - t1).as_secs_f64();
            walk.topk_s += t2.elapsed().as_secs_f64();
        }
    }
    let t0 = Instant::now();
    walk.hits = best.into_iter().map(TopK::into_sorted).collect();
    walk.topk_s += t0.elapsed().as_secs_f64();
    walk.plan = Some(plan);
    walk
}

#[cfg(test)]
mod tests {
    use super::*;
    use genomedsm::seq::FastaRecord;

    #[test]
    fn batch_output_parses_and_drops_the_timing_line() {
        let text = "query 0 (120 bp): 2 hit(s)\n  score     31  r7  end (q=100, t=532)\n  \
                    score     30  r2  end (q=9, t=14)\nquery 1 (80 bp): 0 hit(s)\n\n\
                    123 cells in 1.20s: 8.100 aggregate GCUPS (8 lane groups, 0 scalar spill, 16 jobs)\n";
        let (hits, answer) = parse_batch_output(text).unwrap();
        assert_eq!(
            hits,
            vec![
                vec![
                    (31, "r7".to_string(), (100, 532)),
                    (30, "r2".to_string(), (9, 14))
                ],
                vec![]
            ]
        );
        assert!(!answer.contains("GCUPS") && answer.contains("query 1 (80 bp)"));
        assert!(parse_batch_output("  score x r1 end (q=1, t=2)\n").is_err());
    }

    #[test]
    fn the_walk_finds_what_the_engine_finds() {
        let mut rng = SplitMix64::new(3);
        let records: Vec<FastaRecord> =
            gen::dna_records("r", &gen::ragged_lengths(30, 200, 100, &mut rng), 5);
        let queries = gen::dna_records("q", &gen::ragged_lengths(20, 60, 30, &mut rng), 6);
        let db = SeqDatabase::from_records(records);
        let refs: Vec<&[u8]> = queries.iter().map(|q| q.seq.as_bytes()).collect();
        let walk = walk_jobs(&db, &refs, &ScoreMode::Dna, 2, &mut Tracer::new(true));
        let engine = BatchEngine::new(engine_config(ScoreMode::Dna, 2)).search(&db, &refs);
        assert_eq!(walk.hits, engine.hits);
        assert_eq!(walk.jobs, engine.stats.jobs);
    }
}
