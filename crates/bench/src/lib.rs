//! The `paper` harness: the experiment registry, workload generation,
//! table rendering, and CSV artifacts.
//!
//! The binary `paper` (src/bin/paper.rs) regenerates every table and
//! figure of the paper's evaluation by running entries of
//! [`experiments::REGISTRY`]; see DESIGN.md's per-experiment index for
//! the mapping and EXPERIMENTS.md for recorded paper-vs-measured results.

#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod workloads;

use std::path::PathBuf;

/// Harness options shared by all experiments.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Divide the paper's sequence sizes by this factor (default 10; 1 =
    /// the paper's original sizes — expect hours for the big tables).
    pub scale: usize,
    /// Processor counts to sweep (default `[1, 2, 4, 8]`, the paper's).
    pub procs: Vec<usize>,
    /// Directory for CSV/SVG artifacts.
    pub out_dir: PathBuf,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        Self {
            scale: 10,
            procs: vec![1, 2, 4, 8],
            out_dir: PathBuf::from("bench_out"),
        }
    }
}

impl HarnessArgs {
    /// Scales one of the paper's sequence sizes (at least 64 bp).
    pub fn size(&self, paper_bp: usize) -> usize {
        (paper_bp / self.scale.max(1)).max(64)
    }

    /// The largest processor count of the sweep.
    pub fn max_procs(&self) -> usize {
        *self.procs.iter().max().expect("procs")
    }

    /// The processor counts above one, in the order given.
    pub fn parallel_procs(&self) -> Vec<usize> {
        self.procs.iter().copied().filter(|&p| p > 1).collect()
    }

    /// Ensures the artifact directory exists and returns a path inside it.
    pub fn artifact(&self, name: &str) -> PathBuf {
        std::fs::create_dir_all(&self.out_dir).expect("create out dir");
        self.out_dir.join(name)
    }
}

/// Formats a `Duration` in seconds with two decimals (the paper's tables
/// report seconds).
pub fn secs(d: std::time::Duration) -> String {
    format!("{:.2}", d.as_secs_f64())
}

/// Speed-up of `serial` over `parallel` (the paper's absolute speed-up on
/// total execution times).
pub fn speedup(serial: std::time::Duration, parallel: std::time::Duration) -> f64 {
    serial.as_secs_f64() / parallel.as_secs_f64().max(1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn size_scaling() {
        let a = HarnessArgs::default();
        assert_eq!(a.size(50_000), 5_000);
        let full = HarnessArgs {
            scale: 1,
            ..Default::default()
        };
        assert_eq!(full.size(50_000), 50_000);
        assert_eq!(a.size(100), 64); // floor
    }

    #[test]
    fn speedup_math() {
        let s = speedup(Duration::from_secs(8), Duration::from_secs(2));
        assert!((s - 4.0).abs() < 1e-9);
    }
}
