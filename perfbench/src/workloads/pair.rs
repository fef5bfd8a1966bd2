//! `pair_blocked` and `pair_exact`: the paper's own pipeline, one pair of
//! long sequences through `genomedsm align` on `W` simulated nodes.

use super::{all_equal, cli_ops, process_start_s, read, timed, BudgetRow, Measured, Workload};
use crate::child::Env;
use crate::gen;
use crate::trace::Tracer;
use genomedsm::core::{sw_score_linear, HeuristicParams, Scoring};
use genomedsm::seq::fasta::{read_fasta_file, write_fasta_file};
use genomedsm::seq::FastaRecord;
use genomedsm::strategies::{
    heuristic_block_align, phase2_scattered, preprocess_align, BandScheme, BlockedConfig,
    ChunkPlan, PreprocessConfig,
};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

/// The CLI's defaults, which is what the operations run with.
const PARAMS: HeuristicParams = HeuristicParams {
    open_threshold: 15,
    close_threshold: 15,
    min_score: 50,
};
const GRID: usize = 40;
const SCORING: Scoring = Scoring::paper();

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Strategy {
    Blocked,
    Exact,
}

pub struct Pair {
    strategy: Strategy,
    len: usize,
    records: Vec<FastaRecord>,
    /// The reference answer (see [`Pair::expected_head`]), computed in set-up.
    expected: String,
    outputs: Vec<PathBuf>,
}

impl Pair {
    /// 12 kbp: the heuristic cell never touches the SIMD kernels, so size
    /// only has to give the wavefront enough blocks to overlap.
    pub fn blocked(smoke: bool) -> Self {
        Self::new(Strategy::Blocked, if smoke { 1_500 } else { 12_000 })
    }

    /// 33 kbp: `fits_i16` admits at most `min(m, n) * match = 32 000`, so
    /// this is the smallest round size on the paper's side of that ceiling
    /// (the paper's pairs start at 50 kbp), where `auto` means scalar.
    pub fn exact(smoke: bool) -> Self {
        Self::new(Strategy::Exact, if smoke { 2_000 } else { 33_000 })
    }

    fn new(strategy: Strategy, len: usize) -> Self {
        Self {
            strategy,
            len,
            records: Vec::new(),
            expected: String::new(),
            outputs: Vec::new(),
        }
    }

    fn fasta(env: &Env) -> PathBuf {
        env.path("pair.fa")
    }

    fn strategy_flag(&self) -> &'static str {
        match self.strategy {
            Strategy::Blocked => "blocked",
            Strategy::Exact => "preprocess",
        }
    }

    fn pair(&self) -> (&[u8], &[u8]) {
        (
            self.records[0].seq.as_bytes(),
            self.records[1].seq.as_bytes(),
        )
    }

    /// The configuration `genomedsm align --strategy preprocess` builds.
    fn exact_config(&self, procs: usize) -> PreprocessConfig {
        let mut config = PreprocessConfig::new(procs);
        config.band = BandScheme::Balanced(1024.min(self.len));
        config.chunk = ChunkPlan::Fixed(1024.min(self.len));
        config.threshold = PARAMS.min_score;
        config
    }

    /// The lines the CLI's report must start with, from an independent
    /// computation of the answer.
    fn expected_head(&self) -> String {
        let (s, t) = self.pair();
        let mut head = String::new();
        match self.strategy {
            Strategy::Blocked => {
                // One node: no wavefront, no DSM traffic, the same regions.
                let serial = heuristic_block_align(
                    s,
                    t,
                    &SCORING,
                    &PARAMS,
                    &BlockedConfig::new(1, GRID, GRID),
                );
                let n = serial.regions.len();
                let _ = writeln!(head, "phase 1: {n} candidate similar regions");
                for r in serial.regions.iter().take(10) {
                    let _ = writeln!(head, "  {r}");
                }
                if n > 10 {
                    let _ = writeln!(head, "  ... {} more", n - 10);
                }
            }
            Strategy::Exact => {
                let oracle = sw_score_linear(s, t, &SCORING, PARAMS.min_score);
                let _ = writeln!(
                    head,
                    "pre-process: best score {}, {} threshold hits",
                    oracle.best_score, oracle.hits
                );
            }
        }
        head
    }
}

/// Simulated (virtual) times differ a little from run to run and are not
/// an answer: drop them before comparing outputs.
fn without_virtual_times(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        let cut = [" (simulated", ", simulated"]
            .iter()
            .find_map(|pat| line.find(pat))
            .unwrap_or(line.len());
        out.push_str(&line[..cut]);
        out.push('\n');
    }
    out
}

impl Workload for Pair {
    fn set_up(&mut self, env: &Env, seed: u64) -> Result<(), String> {
        self.records = gen::planted_pair_records(self.len, seed);
        write_fasta_file(Self::fasta(env), &self.records)
            .map_err(|e| format!("write pair: {e}"))?;
        self.expected = self.expected_head();
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
        let flag = self.strategy_flag();
        let m = cli_ops(
            env,
            budget,
            min_ops,
            tracer,
            "cli.align",
            first,
            |env| {
                let mut cmd = env.genomedsm();
                cmd.arg("align")
                    .arg(Self::fasta(env))
                    .args(["--strategy", flag, "--procs"])
                    .arg(env.workers.to_string());
                cmd
            },
            |i| env.path(&format!("align-{i}.out")),
        )?;
        self.outputs.extend(
            (first..first + m.attempted as usize).map(|i| env.path(&format!("align-{i}.out"))),
        );
        Ok(m)
    }

    fn verify(&mut self, _env: &Env) -> Result<u64, String> {
        let texts = self
            .outputs
            .iter()
            .map(|p| read(p).map(|t| without_virtual_times(&t)))
            .collect::<Result<Vec<_>, _>>()?;
        let wrong = texts
            .iter()
            .filter(|t| !t.starts_with(&self.expected))
            .count() as u64;
        if wrong == 0 && !all_equal(&texts) {
            // Right regions, but phase 2 printed something else this time.
            return Ok(1);
        }
        Ok(wrong)
    }

    fn cells_per_op(&self) -> f64 {
        (self.len * self.len) as f64
    }

    fn replay(&mut self, env: &Env, tracer: &mut Tracer) -> Result<Vec<BudgetRow>, String> {
        let start_s = process_start_s(env, tracer)?;
        let (loaded, load_s) = timed(tracer, "seq.fasta.read", || {
            read_fasta_file(Self::fasta(env))
        });
        let loaded = loaded.map_err(|e| format!("read pair: {e}"))?;
        let (s, t) = (loaded[0].seq.as_bytes(), loaded[1].seq.as_bytes());
        let w = env.workers;
        let mut rows = vec![
            BudgetRow {
                name: "process start",
                seconds: start_s,
            },
            BudgetRow {
                name: "FASTA load",
                seconds: load_s,
            },
        ];
        match self.strategy {
            Strategy::Blocked => {
                let (out, phase1_s) = timed(tracer, "strategies.blocked", || {
                    heuristic_block_align(
                        s,
                        t,
                        &SCORING,
                        &PARAMS,
                        &BlockedConfig::new(w, GRID, GRID),
                    )
                });
                let (p2, phase2_s) = timed(tracer, "strategies.phase2", || {
                    phase2_scattered(s, t, &out.regions, &SCORING, w)
                });
                let p2 = p2.map_err(|e| format!("phase 2: {e}"))?;
                let (_, print_s) = timed(tracer, "report.format", || {
                    let mut text = String::new();
                    for ra in p2.alignments.iter().take(3) {
                        text.push_str(&genomedsm::core::nw::render_region_alignment(ra));
                    }
                    std::hint::black_box(text.len())
                });
                rows.push(BudgetRow {
                    name: "phase 1 (strategies::blocked + dsm + core heuristic cell)",
                    seconds: phase1_s,
                });
                rows.push(BudgetRow {
                    name: "phase 2 (strategies::phase2 + dsm + core nw)",
                    seconds: phase2_s,
                });
                rows.push(BudgetRow {
                    name: "print",
                    seconds: print_s,
                });
            }
            Strategy::Exact => {
                let config = self.exact_config(w);
                let (out, exact_s) = timed(tracer, "strategies.preprocess", || {
                    preprocess_align(s, t, &SCORING, &config)
                });
                out.map_err(|e| format!("preprocess: {e}"))?;
                rows.push(BudgetRow {
                    name: "exact scan (strategies::preprocess + dsm + kernels band / scalar)",
                    seconds: exact_s,
                });
            }
        }
        Ok(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_times_are_dropped_and_answers_kept() {
        let text = "phase 1: 4 candidate similar regions (simulated cluster time 1.20s)\n  \
                    begin (1,2) end (3,4) score 9\n\
                    pre-process: best score 7, 2 threshold hits, simulated core time 3.1ms\n";
        assert_eq!(
            without_virtual_times(text),
            "phase 1: 4 candidate similar regions\n  begin (1,2) end (3,4) score 9\n\
             pre-process: best score 7, 2 threshold hits\n"
        );
    }
}
