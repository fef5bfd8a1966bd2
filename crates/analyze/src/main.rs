//! The `analyze` binary: run the hygiene rules and every structural
//! analysis over the workspace and fail on any finding.
//!
//! ```text
//! genomedsm-analyze [ROOT]
//! ```
//!
//! `ROOT` defaults to the workspace this binary was built from.

use genomedsm_analyze::Model;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let root = std::env::args().nth(1).map_or_else(
        || PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."),
        PathBuf::from,
    );

    let model = match Model::from_workspace(&root) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("failed to read workspace at {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };

    let findings = model.analyze();
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
