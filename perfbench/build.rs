//! Records the compiler's version for the run header. Asking `rustc` at run
//! time would make it a child of the benchmark, and its 30 MB would then be
//! the peak resident set reported for every workload smaller than that.

use std::process::Command;

fn main() {
    // Without this, touching any file of the package (the README, say)
    // re-runs this script and rebuilds the benchmark.
    println!("cargo:rerun-if-changed=build.rs");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .unwrap_or_else(|| "rustc unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={}", version.trim());
}
