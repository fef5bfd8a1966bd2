//! The `analyze` binary: run the hygiene rules and every structural
//! analysis over the workspace and fail on any finding.
//!
//! ```text
//! genomedsm-analyze [ROOT] [--crosscheck EDGE_FILE]
//! ```
//!
//! `ROOT` defaults to the workspace this binary was built from.
//! `--crosscheck` additionally verifies that every runtime lock-order
//! edge in `EDGE_FILE` (the dump written by the `lock_order_dump` test
//! under `GENOMEDSM_LOCK_EDGES_OUT`) has a static counterpart — the
//! static graph must be a superset of anything the runtime witnessed.

use genomedsm_analyze::{lockorder, Model};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut crosscheck: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--crosscheck" => {
                let Some(path) = args.next() else {
                    eprintln!("--crosscheck requires a file argument");
                    return ExitCode::FAILURE;
                };
                crosscheck = Some(PathBuf::from(path));
            }
            other => root = Some(PathBuf::from(other)),
        }
    }
    let root = root.unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."));

    let model = match Model::from_workspace(&root) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("failed to read workspace at {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };

    let mut findings = model.analyze();
    if let Some(path) = crosscheck {
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                let lines: Vec<String> = text.lines().map(str::to_string).collect();
                println!(
                    "cross-checking {} runtime lock-order edges from {}",
                    lines.iter().filter(|l| !l.trim().is_empty()).count(),
                    path.display()
                );
                findings.extend(lockorder::crosscheck(&model, &lines));
            }
            Err(e) => {
                eprintln!("failed to read crosscheck file {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }

    let files = model.files.len();
    let fns: usize = model.files.iter().map(|f| f.fns.len()).sum();
    for finding in &findings {
        println!("{finding}");
    }
    println!(
        "analyzed {files} files / {fns} fns: {} finding(s)",
        findings.len()
    );
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
