//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p genomedsm-bench --bin paper -- <experiment> [options]
//! ```
//!
//! `paper --help` lists the experiments: the list is
//! `genomedsm_bench::experiments::REGISTRY`, from which this dispatch, the
//! help text, `all` and `summary` are all derived.
//!
//! ```text
//! options:
//!   --scale N      divide the paper's sequence sizes by N (default 10;
//!                  --scale 1 reproduces the original sizes — hours!)
//!   --procs LIST   comma-separated processor counts (default 1,2,4,8)
//!   --out DIR      artifact directory (default bench_out/)
//! ```

use genomedsm_bench::experiments::{self, Experiment, Points, REGISTRY};
use genomedsm_bench::HarnessArgs;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut experiment: Option<&str> = None;
    let mut args = HarnessArgs::default();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                args.scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--scale needs a positive integer");
            }
            "--procs" => {
                args.procs = it
                    .next()
                    .expect("--procs needs a list")
                    .split(',')
                    .map(|p| p.parse().expect("processor count"))
                    .collect();
            }
            "--out" => {
                args.out_dir = it.next().expect("--out needs a path").into();
            }
            "--help" | "-h" => {
                print!("{}", experiments::help());
                return;
            }
            other if experiment.is_none() => experiment = Some(other),
            other => panic!("unexpected argument: {other}"),
        }
    }
    assert!(!args.procs.is_empty(), "need at least one processor count");
    let experiment = experiment.unwrap_or("all");

    println!(
        "# paper harness: experiment={experiment} scale=1/{} procs={:?}\n",
        args.scale, args.procs
    );
    let sweep = |e: &Experiment| e.report(&args, Points::Sweep).emit(&args);
    let ok = match experiment {
        "summary" => experiments::summary(&args).emit(&args),
        "all" => REGISTRY.iter().all(sweep),
        name => match experiments::find(name) {
            Some(e) => sweep(e),
            None => {
                eprintln!("unknown experiment '{name}'\n{}", experiments::help());
                std::process::exit(2);
            }
        },
    };
    if !ok {
        std::process::exit(1);
    }
}
