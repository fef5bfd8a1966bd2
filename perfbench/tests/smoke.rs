//! Runs the benchmark the way the driver does — through `run.sh`, against
//! the real `genomedsm` binary — on every workload at smoke sizes, and
//! checks the shape of what it prints against `BENCHMARK.json`.

use std::path::Path;
use std::process::Command;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository root")
}

/// The last line of a run's stdout (the result object).
fn run(workload: &str, trace: u8) -> String {
    let out = Command::new("bash")
        .current_dir(repo_root())
        .args(["perfbench/run.sh", "--workload", workload, "--seed", "5"])
        .args(["--seconds", "0.3", "--trace", &trace.to_string(), "--smoke"])
        .output()
        .expect("run bash");
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    stdout
        .trim_end()
        .lines()
        .last()
        .expect("a result line")
        .to_string()
}

/// The `name`s under `key` in BENCHMARK.json, in order.
fn declared(key: &str) -> Vec<String> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let section = text
        .split(&format!("\"{key}\": ["))
        .nth(1)
        .expect("section");
    let section = section.split("\n  ]").next().expect("section end");
    section
        .split("{\"name\": \"")
        .skip(1)
        .map(|rest| rest.split('"').next().expect("name").to_string())
        .collect()
}

fn assert_result(line: &str, names: &[String], context: &str) {
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": ") && line.contains("\"failed\": 0, "),
        "{context}: {line}"
    );
    for name in names {
        assert!(
            line.contains(&format!("\"{name}\": {{\"value\": ")),
            "{context}: no {name} in {line}"
        );
    }
    assert_eq!(
        line.matches("{\"value\": ").count(),
        names.len(),
        "{context}: metrics beyond the declared ones"
    );
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    let workloads = declared("workloads");
    assert_eq!(workloads.len(), 5);
    let metrics = declared("end_to_end");
    for workload in &workloads {
        assert_result(&run(workload, 0), &metrics, workload);
    }
}

#[test]
fn a_traced_run_reports_every_per_layer_metric() {
    assert_result(&run("db_dna", 1), &declared("per_layer"), "db_dna traced");
}
