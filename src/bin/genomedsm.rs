//! The `genomedsm` command-line tool: end-to-end local alignment of two
//! FASTA sequences with any of the paper's strategies.
//!
//! ```text
//! genomedsm generate --len 50000 --out pair.fa [--seed 42]
//! genomedsm generate --mode protein --records N --len L --out db.fa
//! genomedsm align s.fa t.fa [options]
//! genomedsm exact s.fa t.fa [--min-score N]
//! genomedsm score s.fa t.fa [--threshold N] [--kernel scalar|simd|auto]
//! genomedsm chaos s.fa t.fa [--plan SPEC] [--strategy S] [--procs N]
//!                 [--bands N] [--blocks N] [--kernel K]
//! genomedsm batch --db db.fa --queries q.fa [--top-k N] [--kernel K]
//!                 [--workers N] [--check] [--mode dna|protein]
//!                 [--matrix M] [--gap-open N] [--gap-extend N]
//!                 [--prefilter]
//! genomedsm serve --db db.fa --socket PATH [--queue N] [--cache N]
//!                 [--service-workers N] [--workers N] [--kernel K]
//!                 [--mode dna|protein] [--matrix M] [--gap-open N]
//!                 [--gap-extend N]
//! genomedsm client --socket PATH [--name NAME] [--weight W]
//!                  (--queries q.fa [--top-k N] [--mode protein
//!                   [--matrix M] [--gap-open N] [--gap-extend N]] |
//!                   --reload db.fa | --stats | --shutdown)
//! genomedsm node --rank R --cluster FILE [--session N] [--len N]
//!                [--seed N] [--procs N] [--plan SPEC]
//! genomedsm launch [--ranks N] [--cluster loopback] [--len N]
//!                  [--seed N] [--session N] [--plan SPEC]
//!
//! Every subcommand refuses (exit 2) a flag it does not read, and a flag
//! that takes a value but is given none.
//!
//! align options:
//!   --strategy heuristic|blocked|preprocess   (default blocked)
//!   --procs N          simulated cluster nodes (default 8)
//!   --bands N --blocks N                      (default 40x40)
//!   --min-score N      report alignments scoring at least N (default 50)
//!   --open N --close N heuristic thresholds   (default 15/15)
//!   --kernel K         score kernel for the preprocess strategy:
//!                      scalar | simd | auto   (default auto)
//!   --svg FILE         write a dot plot of the similar regions
//!   --alignments N     print the N best phase-2 alignments (default 3)
//!   --tolerate-failures  enable the cluster supervision layer
//!                      (lock-lease recovery, work takeover)
//!   --plan SPEC        run under a fault plan (the `chaos` syntax below):
//!                      `crash=NODE@UNIT` fail-stops NODE after UNIT work
//!                      units and the survivors take its role over (this
//!                      implies --tolerate-failures); `rejoin=NODE@UNIT`
//!                      readmits it after UNIT work units of downtime, at
//!                      the next workload boundary (DESIGN.md §5.13). A
//!                      plan that crashes every node is refused.
//!
//! node: one rank of a real multi-process cluster. Binds the UDP socket
//! the manifest assigns to --rank, runs all three phase-1 strategies and
//! phase 2 over the deterministic (--len, --seed) workload, and prints a
//! report built only from gathered results — bit-identical on every rank
//! and to the in-process simulation. Per-rank timings and transport
//! counters go to stderr as `#metric` lines. The manifest comes from
//! --cluster FILE (TOML) or the GENOMEDSM_CLUSTER environment variable.
//!
//! launch: spawns --ranks copies of this binary as `node` processes on a
//! fresh loopback manifest, waits for them, and verifies every rank's
//! report is bit-identical to the in-process run (with --plan, the chaos
//! happens on real datagrams and must be invisible in the results).
//!
//! score: exact SW best score + threshold-hit count on the host (no DSM
//! simulation), timed, using the selected vectorized kernel.
//!
//! batch: multi-query database search — every query of --queries against
//! every record of --db, in lane groups (a full group packs a different
//! query per SIMD lane; a group with few queries, down to the single
//! query of a one-query file, is striped over all lanes instead) that are
//! work-stolen across --workers threads, reporting the --top-k hits per
//! query, aggregate GCUPS and how many groups ran striped. --check
//! re-runs the search with sequential per-pair kernel calls and verifies
//! the hits are identical.
//! --mode protein scores with the affine-gap Gotoh recurrence under a
//! substitution matrix (--matrix: blosum62|blosum50|pam250 or an
//! NCBI-format file; --gap-open/--gap-extend, defaults -11/-1), parsing
//! both FASTA files with the amino-acid alphabet. --prefilter (protein
//! only) consults the ALAE-style composition index before every DP
//! launch and reports the pruning rate — the answer is provably
//! bit-identical to the unfiltered scan.
//!
//! serve: the always-on alignment service. Loads --db once, listens on
//! the --socket Unix socket, and answers `client` searches with a
//! bounded admission queue (--queue, refused-not-hung overload), a
//! result cache keyed by (query digest, db epoch) (--cache answers),
//! per-client weighted fair scheduling across --service-workers request
//! workers, and hot-reloadable databases (client --reload). A request's
//! cache misses are one batch search, so a one-query request runs its
//! query striped over all SIMD lanes. Runs until a client sends
//! --shutdown.
//!
//! client: one interaction with a running server — a search streamed
//! answer by answer (each query's final top-k arrives as soon as it is
//! ready), a database hot-reload, a statistics snapshot, or shutdown.
//!
//! chaos: runs the selected strategy twice — fault-free and under the
//! fault plan — verifies the results are bit-identical, and reports the
//! reliability layer's work (retransmits, duplicates dropped, corrupt
//! frames), what supervision did about a scheduled crash, and the
//! virtual-time overhead.
//!   --plan SPEC   "none", "paper", or key=value list:
//!                 seed=N drop=P corrupt=P dup=P reorder=P delay_us=N
//!                 crash=NODE@UNIT rejoin=NODE@UNIT  (default "paper")
//!   --strategy heuristic|blocked|preprocess  (default preprocess)
//! ```

use genomedsm::dsm::{DsmConfig, NetworkModel, NodeStats};
use genomedsm::prelude::*;
use genomedsm::reverse_parallel::reverse_align_all_parallel;
use genomedsm_core::nw::render_region_alignment;
use genomedsm_dotplot::{svg_plot, PlotSpec};
use genomedsm_kernels::Rung;
use genomedsm_seq::fasta::{read_fasta_file, write_fasta_file, FastaRecord};
use genomedsm_strategies::{BandScheme, ChunkPlan, Phase1Outcome, PreprocessOutcome};
use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("generate") => generate(&args[1..]),
        Some("align") => align(&args[1..]),
        Some("exact") => exact(&args[1..]),
        Some("score") => score(&args[1..]),
        Some("chaos") => chaos(&args[1..]),
        Some("batch") => batch(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("client") => client(&args[1..]),
        Some("node") => node(&args[1..]),
        Some("launch") => launch(&args[1..]),
        Some("--help") | Some("-h") | None => {
            eprintln!("{USAGE}");
        }
        Some(other) => {
            eprintln!("unknown command '{other}'\n{USAGE}");
            exit(2);
        }
    }
}

const USAGE: &str = "usage: genomedsm <generate|align|exact|score|chaos|batch|serve|client\
     |node|launch> [options]  (--help for details)";

fn opt_kernel(args: &[String]) -> KernelChoice {
    match opt(args, "--kernel") {
        Some(v) => KernelChoice::parse(&v).unwrap_or_else(|| {
            eprintln!("invalid --kernel '{v}' (scalar|simd|auto)");
            exit(2);
        }),
        None => KernelChoice::Auto,
    }
}

fn opt(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Parses the shared protein-scoring flags: `--matrix` names a baked-in
/// matrix (blosum62, blosum50, pam250) or an NCBI-format matrix file,
/// `--gap-open`/`--gap-extend` set the affine penalties (negative;
/// defaults −11/−1).
fn opt_matrix_scoring(args: &[String]) -> genomedsm::core::submat::MatrixScoring {
    use genomedsm::core::submat::{MatrixScoring, SubstMatrix};
    let matrix = match opt(args, "--matrix") {
        None => SubstMatrix::blosum62(),
        Some(spec) => SubstMatrix::by_name(&spec).unwrap_or_else(|| {
            let text = std::fs::read_to_string(&spec).unwrap_or_else(|e| {
                eprintln!("--matrix '{spec}': not a built-in name (blosum62|blosum50|pam250) and not a readable file: {e}");
                exit(2);
            });
            SubstMatrix::parse_ncbi(&text).unwrap_or_else(|e| {
                eprintln!("--matrix {spec}: {e}");
                exit(2);
            })
        }),
    };
    let ms = MatrixScoring::new(
        matrix,
        opt_num(args, "--gap-open", -11),
        opt_num(args, "--gap-extend", -1),
    );
    if !ms.gaps_valid() {
        eprintln!(
            "--gap-open {} --gap-extend {}: gap penalties must lie in {}..=-1",
            ms.gap_open,
            ms.gap_extend,
            MatrixScoring::MIN_GAP
        );
        exit(2);
    }
    ms
}

/// Parses `--mode dna|protein` (default dna); protein mode picks up the
/// `--matrix`/`--gap-open`/`--gap-extend` flags.
fn opt_mode(args: &[String]) -> genomedsm::batch::ScoreMode {
    use genomedsm::batch::ScoreMode;
    match opt(args, "--mode").as_deref() {
        None | Some("dna") => ScoreMode::Dna,
        Some("protein") => ScoreMode::Protein(opt_matrix_scoring(args)),
        Some(other) => {
            eprintln!("invalid --mode '{other}' (dna|protein)");
            exit(2);
        }
    }
}

/// Option flags that take no value (everything else is `--flag VALUE`).
const BOOL_FLAGS: &[&str] = &[
    "--tolerate-failures",
    "--check",
    "--stats",
    "--shutdown",
    "--prefilter",
];

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Refuses (exit 2) a flag `command` does not read — `known` lists the
/// ones it does, space-separated — and a valued flag given without its
/// value. Each subcommand calls it once it has read its flags, before
/// any work.
fn check_flags(args: &[String], command: &str, known: &str) {
    let mut rest = args.iter().map(String::as_str);
    while let Some(flag) = rest.next() {
        if !flag.starts_with("--") {
            continue; // a positional argument
        }
        if !known.split_whitespace().any(|k| k == flag) {
            eprintln!("{command}: unknown flag {flag}\n{USAGE}");
            exit(2);
        }
        if !BOOL_FLAGS.contains(&flag) && rest.next().is_none_or(|v| v.starts_with("--")) {
            eprintln!("{command}: {flag} needs a value");
            exit(2);
        }
    }
}

/// The flags `align` and `chaos` share: the cluster and fault plan they
/// read, and the strategy options [`run_strategy`] reads.
const STRATEGY_FLAGS: &str = "--strategy --procs --plan --open --close --min-score --bands \
                              --blocks --kernel";

/// Parses a `--plan` spec for a cluster of `procs` nodes, refusing one
/// that does not fit it ([`FaultPlan::check`]: a node outside the
/// cluster, no survivor to hold the answer).
fn parse_plan(spec: &str, procs: usize) -> FaultPlan {
    let plan = FaultPlan::parse(spec).unwrap_or_else(|e| {
        eprintln!("invalid --plan '{spec}': {e}");
        exit(2);
    });
    if let Err(e) = plan.check(procs) {
        eprintln!("--plan '{spec}' does not fit --procs {procs}: {e}");
        exit(2);
    }
    plan
}

/// Reports what the supervision layer did during a tolerant run.
fn print_supervision(per_node: &[NodeStats]) {
    let agg = NodeStats::aggregate(per_node);
    println!(
        "supervision: {} obituaries, {} lease(s) broken, {} role takeover(s), \
         {} waiter(s) woken",
        agg.obituaries, agg.leases_broken, agg.takeovers, agg.waiters_woken
    );
}

fn opt_num<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    match opt(args, name) {
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("invalid value for {name}: {v}");
            exit(2);
        }),
        None => default,
    }
}

/// `--min-score N` or `--threshold N` (`name`): the least score a
/// reported alignment or threshold hit has. At least 1, or exit 2 —
/// every cell of a local alignment scores 0 or more, so a bound of 0
/// would report the whole matrix, and the score kernels count no hit
/// below 1.
fn opt_min_score(args: &[String], name: &str) -> i32 {
    let n: i32 = opt_num(args, name, 50);
    if n < 1 {
        eprintln!("{name} {n}: must be at least 1");
        exit(2);
    }
    n
}

/// A `--flag N` count (nodes, grid cuts, records, residues, hits): at
/// least 1, or exit 2.
fn opt_count(args: &[String], name: &str, default: usize) -> usize {
    let n = opt_num(args, name, default);
    if n == 0 {
        eprintln!("{name} must be at least 1");
        exit(2);
    }
    n
}

fn generate(args: &[String]) {
    if opt(args, "--mode").as_deref() == Some("protein") {
        return generate_protein(args);
    }
    let len = opt_count(args, "--len", 50_000);
    let seed: u64 = opt_num(args, "--seed", 42);
    let out = opt(args, "--out").unwrap_or_else(|| "pair.fa".into());
    check_flags(args, "generate", "--mode --len --seed --out");
    let (s, t, truth) = planted_pair(len, len, &HomologyPlan::paper_density(len), seed);
    let records = vec![
        FastaRecord {
            id: format!("s len={len} seed={seed}"),
            seq: s,
        },
        FastaRecord {
            id: format!("t len={len} seed={seed} planted={}", truth.len()),
            seq: t,
        },
    ];
    write_fasta_file(&out, &records).unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        exit(1);
    });
    println!(
        "wrote {out}: two {len} bp sequences, {} planted similar regions",
        truth.len()
    );
}

/// `generate --mode protein`: a multi-record random protein FASTA
/// (uniform over the 20 standard residues), ready for `batch`/`serve`.
fn generate_protein(args: &[String]) {
    use genomedsm::seq::fasta::{write_protein_fasta_file, ProteinRecord};
    use genomedsm::seq::random_protein;
    let n = opt_count(args, "--records", 8);
    let len = opt_count(args, "--len", 300);
    let seed: u64 = opt_num(args, "--seed", 42);
    let out = opt(args, "--out").unwrap_or_else(|| "proteins.fa".into());
    check_flags(args, "generate", "--mode --records --len --seed --out");
    let records: Vec<ProteinRecord> = (0..n)
        .map(|i| {
            // Spread over len/2 .. len/2 + len, and never empty.
            let len = (len / 2).max(1) + (i * 31) % len;
            ProteinRecord {
                id: format!("p{i} len={len} seed={seed}"),
                seq: random_protein(len, seed + i as u64),
            }
        })
        .collect();
    let total: usize = records.iter().map(|r| r.seq.len()).sum();
    write_protein_fasta_file(&out, &records).unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        exit(1);
    });
    println!("wrote {out}: {n} protein records, {total} residues total");
}

/// The two sequences of the positional FASTA files: one file with two
/// records, or two files with one each. Any other count exits 2.
fn load_pair(args: &[String]) -> (Vec<u8>, Vec<u8>) {
    // Positional arguments: everything that is neither an option flag nor
    // the value that follows one.
    let mut files: Vec<&String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if BOOL_FLAGS.contains(&args[i].as_str()) {
            i += 1; // bare flag, no value
        } else if args[i].starts_with("--") {
            i += 2; // skip the flag and its value
        } else {
            files.push(&args[i]);
            i += 1;
        }
    }
    let mut seqs: Vec<Vec<u8>> = Vec::new();
    for f in &files {
        match read_fasta_file(f) {
            Ok(records) => {
                for r in records {
                    seqs.push(r.seq.into_bytes());
                }
            }
            Err(e) => {
                eprintln!("cannot read {f}: {e}");
                exit(1);
            }
        }
    }
    if seqs.len() != 2 {
        eprintln!(
            "need two sequences (one file with two records, or two files), got {}",
            seqs.len()
        );
        exit(2);
    }
    let t = seqs.pop().expect("two");
    let s = seqs.pop().expect("one");
    (s, t)
}

/// What phase 1 of the chosen strategy produced.
enum Phase1 {
    /// `heuristic` / `blocked`: candidate similar regions.
    Regions(Phase1Outcome),
    /// `preprocess`: the exact hit scoreboard.
    Scoreboard(PreprocessOutcome),
}

impl Phase1 {
    fn per_node(&self) -> &[NodeStats] {
        match self {
            Phase1::Regions(out) => &out.per_node,
            Phase1::Scoreboard(out) => &out.per_node,
        }
    }

    fn wall(&self) -> std::time::Duration {
        match self {
            Phase1::Regions(out) => out.wall,
            Phase1::Scoreboard(out) => out.wall,
        }
    }

    /// What a run under faults must reproduce bit for bit.
    fn answer(&self) -> (&[LocalRegion], &[Vec<i64>], i32) {
        match self {
            Phase1::Regions(out) => (&out.regions, &[], 0),
            Phase1::Scoreboard(out) => (&[], &out.result, out.best_score),
        }
    }
}

/// Builds the `strategy` the command line describes for `procs` nodes,
/// checks the flags against `command`'s `known` list, and runs it on a
/// cluster configured by `dsm`.
fn run_strategy(
    args: &[String],
    (command, known): (&str, &str),
    (strategy, procs): (&str, usize),
    (s, t): (&[u8], &[u8]),
    dsm: &dyn Fn(DsmConfig) -> DsmConfig,
) -> Phase1 {
    let scoring = Scoring::paper();
    let params = HeuristicParams {
        open_threshold: opt_num(args, "--open", 15),
        close_threshold: opt_num(args, "--close", 15),
        min_score: opt_min_score(args, "--min-score"),
    };
    if !params.thresholds_valid() {
        eprintln!(
            "--open {} --close {}: heuristic thresholds must be at least 1",
            params.open_threshold, params.close_threshold
        );
        exit(2);
    }
    let bands = opt_count(args, "--bands", 40);
    let blocks = opt_count(args, "--blocks", 40);
    let kernel = opt_kernel(args);
    check_flags(args, command, known);
    match strategy {
        "heuristic" => {
            let mut config = HeuristicDsmConfig::new(procs);
            config.dsm = dsm(config.dsm);
            Phase1::Regions(heuristic_align_dsm(s, t, &scoring, &params, &config))
        }
        "blocked" => {
            let mut config = BlockedConfig::new(procs, bands, blocks);
            config.dsm = dsm(config.dsm);
            Phase1::Regions(heuristic_block_align(s, t, &scoring, &params, &config))
        }
        "preprocess" => {
            let mut config = PreprocessConfig::new(procs);
            config.band = BandScheme::Balanced(1024.min(s.len().max(1)));
            config.chunk = ChunkPlan::Fixed(1024.min(t.len().max(1)));
            config.threshold = params.min_score;
            config.kernel = kernel;
            config.dsm = dsm(config.dsm);
            let out = preprocess_align(s, t, &scoring, &config).unwrap_or_else(|e| {
                eprintln!("preprocess failed: {e}");
                exit(1);
            });
            Phase1::Scoreboard(out)
        }
        other => {
            eprintln!("unknown strategy '{other}' (heuristic|blocked|preprocess)");
            exit(2);
        }
    }
}

fn align(args: &[String]) {
    let (s, t) = load_pair(args);
    let strategy = opt(args, "--strategy").unwrap_or_else(|| "blocked".into());
    let procs = opt_count(args, "--procs", 8);
    let plan = opt(args, "--plan").map_or(FaultPlan::quiet(0), |spec| parse_plan(&spec, procs));
    let fortify = |mut dsm: DsmConfig| {
        if has_flag(args, "--tolerate-failures") {
            dsm = dsm.tolerate_failures();
        }
        dsm.faults(plan.clone())
    };
    let tolerate = fortify(DsmConfig::new(procs)).supervision.enabled;
    let show: usize = opt_num(args, "--alignments", 3);

    eprintln!(
        "aligning {} bp x {} bp with strategy '{strategy}' on {procs} simulated nodes...",
        s.len(),
        t.len()
    );
    let flags = format!("{STRATEGY_FLAGS} --tolerate-failures --alignments --svg");
    let out = match run_strategy(
        args,
        ("align", &flags),
        (&strategy, procs),
        (&s, &t),
        &fortify,
    ) {
        Phase1::Regions(out) => out,
        Phase1::Scoreboard(out) => {
            println!(
                "pre-process: best score {}, {} threshold hits, simulated core time {:.2?}",
                out.best_score,
                out.total_hits(),
                out.core_time()
            );
            let units: Vec<String> = Rung::ALL
                .iter()
                .map(|&rung| format!("{} {}", out.rung_units[rung as usize], rung.name()))
                .collect();
            println!("kernel rungs, in wavefront units: {}", units.join(", "));
            if tolerate {
                print_supervision(&out.per_node);
            }
            println!("(exact strategy keeps a hit scoreboard; use `exact` to retrieve alignments)");
            return;
        }
    };
    if tolerate {
        print_supervision(&out.per_node);
    }
    let regions = out.regions;

    println!(
        "phase 1: {} candidate similar regions (simulated cluster time {:.2?})",
        regions.len(),
        out.wall
    );
    for r in regions.iter().take(10) {
        println!("  {r}");
    }
    if regions.len() > 10 {
        println!("  ... {} more", regions.len() - 10);
    }

    if let Some(svg_path) = opt(args, "--svg") {
        let spec = PlotSpec::new(s.len(), t.len());
        std::fs::write(&svg_path, svg_plot(&regions, &spec, 800, 800)).unwrap_or_else(|e| {
            eprintln!("cannot write {svg_path}: {e}");
            exit(1);
        });
        println!("dot plot written to {svg_path}");
    }

    if show > 0 && !regions.is_empty() {
        let p2_config = fortify(DsmConfig::new(procs).network(NetworkModel::paper_cluster()));
        let scoring = Scoring::paper();
        let phase2 =
            genomedsm_strategies::phase2_scattered_with(&s, &t, &regions, &scoring, &p2_config)
                .unwrap_or_else(|e| {
                    eprintln!("phase 2 failed: {e}");
                    exit(1);
                });
        if tolerate {
            print_supervision(&phase2.per_node);
        }
        println!("\nphase 2: best alignments");
        let mut ranked: Vec<_> = phase2.alignments.iter().collect();
        ranked.sort_by_key(|ra| -ra.alignment.score);
        for ra in ranked.into_iter().take(show) {
            println!("{}", render_region_alignment(ra));
        }
    }
}

fn score(args: &[String]) {
    let (s, t) = load_pair(args);
    let threshold = opt_min_score(args, "--threshold");
    let choice = opt_kernel(args);
    check_flags(args, "score", "--threshold --kernel");
    let kernel = kernel_for(choice);
    eprintln!(
        "exact SW score of {} bp x {} bp on the '{}' kernel (threshold {threshold})...",
        s.len(),
        t.len(),
        kernel.name()
    );
    let t0 = std::time::Instant::now();
    let (result, rung) = kernel.score_on(&s, &t, &Scoring::paper(), threshold);
    let elapsed = t0.elapsed();
    let cells = s.len() as f64 * t.len() as f64;
    println!(
        "best score {} at (s={}, t={}), {} cells >= {threshold}",
        result.best_score, result.best_end.0, result.best_end.1, result.hits
    );
    println!(
        "{} cells in {elapsed:.2?} on '{}', answered on the {} rung ({:.3} GCUPS)",
        cells as u64,
        kernel.name(),
        rung.name(),
        cells / elapsed.as_secs_f64().max(1e-9) / 1e9
    );
}

fn chaos(args: &[String]) {
    let (s, t) = load_pair(args);
    let spec = opt(args, "--plan").unwrap_or_else(|| "paper".into());
    let strategy = opt(args, "--strategy").unwrap_or_else(|| "preprocess".into());
    let procs = opt_count(args, "--procs", 4);
    let plan = parse_plan(&spec, procs);
    let crashes = !plan.crashes.is_empty();
    eprintln!(
        "chaos run: {} bp x {} bp, strategy '{strategy}', {procs} nodes, plan '{spec}'",
        s.len(),
        t.len()
    );

    let run = |dsm: &dyn Fn(DsmConfig) -> DsmConfig| {
        run_strategy(
            args,
            ("chaos", STRATEGY_FLAGS),
            (&strategy, procs),
            (&s, &t),
            dsm,
        )
    };
    let clean = run(&|dsm| dsm);
    let faulty = run(&|dsm| dsm.faults(plan.clone()));
    let identical = clean.answer() == faulty.answer();
    let clean_stats = NodeStats::aggregate(clean.per_node());
    let faulty_stats = NodeStats::aggregate(faulty.per_node());
    let (clean_wall, faulty_wall) = (clean.wall(), faulty.wall());

    println!(
        "results: {}",
        if identical {
            "BIT-IDENTICAL to fault-free run"
        } else {
            "DIVERGED from fault-free run"
        }
    );
    println!(
        "reliability: {} retransmits, {} duplicates dropped, {} corrupt frames dropped",
        faulty_stats.retransmits, faulty_stats.dups_dropped, faulty_stats.corrupt_dropped
    );
    println!(
        "traffic: {} msgs / {} KiB fault-free vs {} msgs / {} KiB under faults",
        clean_stats.msgs_sent,
        clean_stats.bytes_sent / 1024,
        faulty_stats.msgs_sent,
        faulty_stats.bytes_sent / 1024
    );
    if crashes {
        print_supervision(faulty.per_node());
    }
    let overhead = faulty_wall.as_secs_f64() / clean_wall.as_secs_f64().max(1e-12) - 1.0;
    println!(
        "virtual time: {clean_wall:.2?} fault-free vs {faulty_wall:.2?} under faults \
         ({:+.1}% overhead)",
        overhead * 100.0
    );
    if !identical {
        exit(1);
    }
}

/// The flags [`batch_config`] reads.
const ENGINE_FLAGS: &str = "--kernel --top-k --mode --workers --matrix --gap-open --gap-extend";

/// Parses the engine knobs shared by `batch` and `serve`.
fn batch_config(args: &[String], default_top_k: usize) -> BatchConfig {
    BatchConfig {
        kernel: opt_kernel(args),
        top_k: opt_count(args, "--top-k", default_top_k),
        mode: opt_mode(args),
        scheduler: genomedsm::batch::SchedulerConfig {
            workers: opt_num(args, "--workers", 0),
            window: 0,
        },
        ..BatchConfig::default()
    }
}

fn batch(args: &[String]) {
    let db_path = opt(args, "--db").unwrap_or_else(|| {
        eprintln!("batch needs --db FILE (multi-record FASTA database)\n{USAGE}");
        exit(2);
    });
    let q_path = opt(args, "--queries").unwrap_or_else(|| {
        eprintln!("batch needs --queries FILE (multi-record FASTA queries)\n{USAGE}");
        exit(2);
    });
    let config = batch_config(args, 5);
    let flags = format!("--db --queries --prefilter --check {ENGINE_FLAGS}");
    check_flags(args, "batch", &flags);
    // The shared engine-core path: the same load + execute + oracle steps
    // the server and the bench harness run. Protein mode parses the
    // amino-acid alphabet (no DNA ambiguity folding).
    let inputs = match config.mode {
        genomedsm::batch::ScoreMode::Protein(_) => {
            genomedsm::batch::load_protein_inputs(&db_path, &q_path)
        }
        genomedsm::batch::ScoreMode::Dna => genomedsm::batch::load_inputs(&db_path, &q_path),
    }
    .unwrap_or_else(|e| {
        eprintln!("cannot load inputs: {e}");
        exit(1);
    });
    let (db, refs) = (&inputs.db, inputs.query_refs());
    let engine = BatchEngine::new(config);
    eprintln!(
        "batch search ({}): {} queries ({} bp) x {} records ({} bp), kernel '{}', \
         {} lanes...",
        match config.mode {
            genomedsm::batch::ScoreMode::Dna => "dna",
            genomedsm::batch::ScoreMode::Protein(_) => "protein",
        },
        refs.len(),
        refs.iter().map(|q| q.len()).sum::<usize>(),
        db.len(),
        db.total_bases(),
        config.kernel,
        engine.group_width(),
    );
    if has_flag(args, "--prefilter") {
        prefiltered_batch(args, &config, db, &refs);
        return;
    }
    let t0 = std::time::Instant::now();
    // Streaming: each query prints the moment its top-k is final.
    let out = genomedsm::batch::execute(&engine, db, &refs, |q, hits| {
        println!("query {q} ({} bp): {} hit(s)", refs[q].len(), hits.len());
        for h in hits {
            println!(
                "  score {:>6}  {}  end (q={}, t={})",
                h.score,
                db.meta(h.target).id,
                h.end.0,
                h.end.1
            );
        }
    });
    let elapsed = t0.elapsed();
    println!(
        "\n{} cells in {elapsed:.2?}: {:.3} aggregate GCUPS \
         ({} lane groups, {} striped, {} i8, {} i16 re-run(s), {} scalar spill, {} jobs)",
        out.stats.cells,
        out.stats.cells as f64 / elapsed.as_secs_f64().max(1e-9) / 1e9,
        out.stats.lane_groups,
        out.stats.striped_groups,
        out.stats.narrow_groups,
        out.stats.reruns,
        out.stats.scalar_queries,
        out.stats.jobs
    );
    if has_flag(args, "--check") {
        let t0 = std::time::Instant::now();
        let verdict = genomedsm::batch::verify_against_oracle(&engine, db, &refs, &out.hits);
        let seq_elapsed = t0.elapsed();
        let oracle_name = match engine.config.mode {
            genomedsm::batch::ScoreMode::Dna => "sequential per-pair scoring",
            genomedsm::batch::ScoreMode::Protein(_) => "the sequential scalar Gotoh oracle",
        };
        match verdict {
            Ok(()) => println!(
                "check: IDENTICAL to {oracle_name} \
                 ({seq_elapsed:.2?} sequential, {:.1}x speedup)",
                seq_elapsed.as_secs_f64() / elapsed.as_secs_f64().max(1e-9)
            ),
            Err(q) => {
                eprintln!("check: batch hits DIVERGE from {oracle_name} (first at query {q})");
                exit(1);
            }
        }
    }
}

/// The `batch --prefilter` path: composition-bound pruning before every
/// DP launch (protein mode only), bit-identical to the full scan.
fn prefiltered_batch(args: &[String], config: &BatchConfig, db: &SeqDatabase, refs: &[&[u8]]) {
    use genomedsm::batch::{build_index, oracle_search_mode, prefiltered_search, ScoreMode};
    let ScoreMode::Protein(ms) = config.mode else {
        eprintln!(
            "--prefilter requires --mode protein (the bound is a substitution-matrix property)"
        );
        exit(2);
    };
    let t_index = std::time::Instant::now();
    let index = build_index(db);
    let index_elapsed = t_index.elapsed();
    let t0 = std::time::Instant::now();
    let (hits, stats) = prefiltered_search(db, &index, refs, &ms, config.kernel, config.top_k);
    let elapsed = t0.elapsed();
    for (q, hs) in hits.iter().enumerate() {
        println!("query {q} ({} bp): {} hit(s)", refs[q].len(), hs.len());
        for h in hs {
            println!(
                "  score {:>6}  {}  end (q={}, t={})",
                h.score,
                db.meta(h.target).id,
                h.end.0,
                h.end.1
            );
        }
    }
    println!(
        "\nprefilter: {} of {} record visits pruned ({:.1}%), {} scored, \
         index built in {index_elapsed:.2?}, search {elapsed:.2?}",
        stats.pruned,
        stats.evaluated,
        stats.pruning_rate() * 100.0,
        stats.scored
    );
    if has_flag(args, "--check") {
        let t0 = std::time::Instant::now();
        let want = oracle_search_mode(db, refs, &config.mode, &config.scoring, config.top_k);
        let seq_elapsed = t0.elapsed();
        if hits == want {
            println!(
                "check: IDENTICAL to the unfiltered scalar Gotoh scan \
                 ({seq_elapsed:.2?} sequential)"
            );
        } else {
            let q = hits.iter().zip(&want).position(|(g, w)| g != w);
            eprintln!(
                "check: prefiltered hits DIVERGE from the unfiltered scan \
                 (first at query {q:?})"
            );
            exit(1);
        }
    }
}

fn serve(args: &[String]) {
    let db_path = opt(args, "--db").unwrap_or_else(|| {
        eprintln!("serve needs --db FILE (multi-record FASTA database)\n{USAGE}");
        exit(2);
    });
    let socket = opt(args, "--socket").unwrap_or_else(|| {
        eprintln!("serve needs --socket PATH (Unix socket to listen on)\n{USAGE}");
        exit(2);
    });
    let mut config = genomedsm::serve::ServerConfig::new(&socket, &db_path);
    config.queue_capacity = opt_num(args, "--queue", 16);
    config.cache_capacity = opt_num(args, "--cache", 1024);
    config.workers = opt_num(args, "--service-workers", 2);
    config.engine = batch_config(args, 5);
    let flags = format!("--db --socket --queue --cache --service-workers {ENGINE_FLAGS}");
    check_flags(args, "serve", &flags);
    let server = genomedsm::serve::Server::start(config).unwrap_or_else(|e| {
        eprintln!("cannot start server: {e}");
        exit(1);
    });
    let stats = server.stats();
    eprintln!(
        "serving {} records (epoch {}) on {socket} — queue {}, cache enabled, \
         awaiting clients (send --shutdown to stop)",
        stats.records, stats.epoch, stats.capacity
    );
    let end = server.wait();
    println!(
        "served {} request(s) ({} rejected, {} protocol error(s)), \
         cache {} hit(s) / {} miss(es), final epoch {}",
        end.dispatched,
        end.rejected,
        end.protocol_errors,
        end.cache_hits,
        end.cache_misses,
        end.epoch
    );
}

fn client(args: &[String]) {
    let socket = opt(args, "--socket").unwrap_or_else(|| {
        eprintln!("client needs --socket PATH (a running `genomedsm serve`)\n{USAGE}");
        exit(2);
    });
    // Before connecting: a refused flag needs no server. (The wire's 0
    // means "the server's default"; the command line spells that by
    // leaving the flag out.)
    let top_k = opt_count(args, "--top-k", 5);
    let flags = "--socket --name --weight --queries --top-k --mode --matrix --gap-open \
                 --gap-extend --reload --stats --shutdown";
    check_flags(args, "client", flags);
    let mut client = genomedsm::serve::ServeClient::connect(&socket).unwrap_or_else(|e| {
        eprintln!("cannot connect: {e}");
        exit(1);
    });
    let name = opt(args, "--name").unwrap_or_else(|| format!("cli-{}", std::process::id()));
    let weight: u32 = opt_num(args, "--weight", 1);
    let (epoch, records) = client.hello(&name, weight).unwrap_or_else(|e| {
        eprintln!("handshake failed: {e}");
        exit(1);
    });
    eprintln!("connected to {socket}: {records} records, epoch {epoch}");

    if let Some(q_path) = opt(args, "--queries") {
        // Protein mode sends the full scoring scheme with the request
        // (matrix + gaps); the server caches under its fingerprint.
        let scoring = match opt_mode(args) {
            genomedsm::batch::ScoreMode::Protein(ms) => Some(ms),
            genomedsm::batch::ScoreMode::Dna => None,
        };
        let queries = if scoring.is_some() {
            genomedsm::batch::load_protein_query_file(&q_path)
        } else {
            genomedsm::batch::load_query_file(&q_path)
        }
        .unwrap_or_else(|e| {
            eprintln!("cannot load queries: {e}");
            exit(1);
        });
        let t0 = std::time::Instant::now();
        let result = client.search_scored(&queries, top_k, scoring, |qh| {
            println!(
                "query {} ({}): {} hit(s){}",
                qh.query,
                if qh.cached { "cached" } else { "computed" },
                qh.hits.len(),
                if qh.epoch != epoch {
                    format!(" [epoch {}]", qh.epoch)
                } else {
                    String::new()
                }
            );
            for h in &qh.hits {
                println!(
                    "  score {:>6}  target {}  end (q={}, t={})",
                    h.score, h.target, h.end.0, h.end.1
                );
            }
        });
        match result {
            Ok(summary) => {
                let cached = summary.answers.iter().filter(|a| a.cached).count();
                println!(
                    "\n{} answer(s) in {:.2?} ({cached} from cache)",
                    summary.answers.len(),
                    t0.elapsed()
                );
            }
            Err(genomedsm::serve::ServeError::Overloaded { depth, limit }) => {
                eprintln!("server overloaded (queue {depth}/{limit}); retry later");
                exit(3);
            }
            Err(e) => {
                eprintln!("search failed: {e}");
                exit(1);
            }
        }
    } else if let Some(path) = opt(args, "--reload") {
        match client.reload(&path) {
            Ok((epoch, records, purged)) => println!(
                "reloaded: epoch {epoch}, {records} records, {purged} stale cache entr(ies) purged"
            ),
            Err(e) => {
                eprintln!("reload failed: {e}");
                exit(1);
            }
        }
    } else if has_flag(args, "--stats") {
        match client.stats() {
            Ok(s) => {
                println!(
                    "epoch {} | {} records | queue {}/{} (high water {}) | \
                     {} submitted, {} rejected, {} dispatched | cache {} hit(s), \
                     {} miss(es), {} resident-insert(s), {} evicted, {} stale purged | \
                     {} protocol error(s)",
                    s.epoch,
                    s.records,
                    s.depth,
                    s.capacity,
                    s.high_water,
                    s.submitted,
                    s.rejected,
                    s.dispatched,
                    s.cache_hits,
                    s.cache_misses,
                    s.cache_inserts,
                    s.cache_evicted,
                    s.cache_stale_purged,
                    s.protocol_errors
                );
                for c in &s.clients {
                    println!(
                        "  client {:<16} weight {} | {} submitted, {} rejected, \
                         {} dispatched, {} unit(s) served",
                        c.client, c.weight, c.submitted, c.rejected, c.dispatched, c.served_units
                    );
                }
            }
            Err(e) => {
                eprintln!("stats failed: {e}");
                exit(1);
            }
        }
    } else if has_flag(args, "--shutdown") {
        match client.shutdown() {
            Ok(()) => println!("server acknowledged shutdown"),
            Err(e) => {
                eprintln!("shutdown failed: {e}");
                exit(1);
            }
        }
    } else {
        eprintln!("client needs one of --queries, --reload, --stats, --shutdown\n{USAGE}");
        exit(2);
    }
}

/// The flags [`workload_spec`] reads.
const WORKLOAD_FLAGS: &str = "--len --seed --plan";

/// Shared workload flags of `node` and `launch`.
fn workload_spec(args: &[String], procs: usize) -> genomedsm::cluster::WorkloadSpec {
    let mut spec = genomedsm::cluster::WorkloadSpec::quick(procs);
    spec.len = opt_count(args, "--len", spec.len);
    spec.seed = opt_num(args, "--seed", spec.seed);
    spec.plan = opt(args, "--plan");
    spec
}

fn node(args: &[String]) {
    let rank: usize = match opt(args, "--rank") {
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("invalid --rank '{v}'");
            exit(2);
        }),
        None => {
            eprintln!("node needs --rank R\n{USAGE}");
            exit(2);
        }
    };
    // `load` prefers the GENOMEDSM_CLUSTER environment variable, so the
    // flag is optional when the launcher exports the manifest instead.
    let cluster_file = opt(args, "--cluster").unwrap_or_default();
    if cluster_file.is_empty() && std::env::var(genomedsm::dsm::CLUSTER_ENV).is_err() {
        eprintln!(
            "node needs --cluster FILE (or ${})\n{USAGE}",
            genomedsm::dsm::CLUSTER_ENV
        );
        exit(2);
    }
    let manifest = genomedsm::dsm::ClusterManifest::load(&cluster_file).unwrap_or_else(|e| {
        eprintln!("cannot load cluster manifest '{cluster_file}': {e}");
        exit(1);
    });
    let session: u64 = opt_num(args, "--session", 0);
    let spec = workload_spec(args, opt_num(args, "--procs", manifest.len()));
    let flags = format!("--rank --cluster --session --procs {WORKLOAD_FLAGS}");
    check_flags(args, "node", &flags);
    if let Err(e) = manifest.expect_ranks(spec.procs) {
        eprintln!("{e}");
        exit(2);
    }
    let t0 = std::time::Instant::now();
    let outcome = genomedsm::cluster::run_workload(&spec, Some((&manifest, rank, session)))
        .unwrap_or_else(|e| {
            eprintln!("rank {rank} failed: {e}");
            exit(1);
        });
    print!("{}", outcome.report);
    eprint!(
        "{}",
        genomedsm::cluster::render_metrics(rank, &outcome.metrics)
    );
    eprintln!("rank {rank} finished in {:.2?}", t0.elapsed());
}

fn launch(args: &[String]) {
    let ranks = opt_count(args, "--ranks", 4);
    let cluster = opt(args, "--cluster").unwrap_or_else(|| "loopback".into());
    if cluster != "loopback" {
        eprintln!("launch only supports --cluster loopback (ephemeral local ports)");
        exit(2);
    }
    let session: u64 = opt_num(args, "--session", 100);
    let spec = workload_spec(args, ranks);
    let flags = format!("--ranks --cluster --session {WORKLOAD_FLAGS}");
    check_flags(args, "launch", &flags);
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("cannot locate own executable: {e}");
        exit(1);
    });
    eprintln!(
        "launching {ranks} `genomedsm node` processes over loopback UDP \
         ({} bp workload{})...",
        spec.len,
        spec.plan
            .as_deref()
            .map(|p| format!(", chaos plan '{p}'"))
            .unwrap_or_default()
    );
    let t0 = std::time::Instant::now();
    match genomedsm::cluster::launch(&exe, &spec, session) {
        Ok(out) => {
            print!("{}", out.report);
            println!(
                "launch: {ranks} processes, reports BIT-IDENTICAL to the in-process run \
                 ({} datagrams, {} retransmits, {:.2?})",
                out.datagrams_sent,
                out.retransmits,
                t0.elapsed()
            );
        }
        Err(e) => {
            eprintln!("launch failed: {e}");
            exit(1);
        }
    }
}

fn exact(args: &[String]) {
    let (s, t) = load_pair(args);
    let min_score = opt_min_score(args, "--min-score");
    let threads: usize = opt_num(args, "--threads", 4);
    check_flags(args, "exact", "--min-score --threads");
    eprintln!(
        "exact Section-6 recovery over {} bp x {} bp (min score {min_score})...",
        s.len(),
        t.len()
    );
    let recs = reverse_align_all_parallel(&s, &t, &Scoring::paper(), min_score, threads);
    println!("{} exact local alignments:", recs.len());
    for rec in recs.iter().take(5) {
        println!(
            "\n{} (evaluated {:.0}% of the n'^2 window)",
            rec.region,
            rec.stats.evaluated_fraction() * 100.0
        );
        print!("{}", rec.alignment.pretty(64));
    }
    if recs.len() > 5 {
        println!("... {} more", recs.len() - 5);
    }
}
