//! Child processes and the files around them.
//!
//! Every end-to-end number comes from the real `genomedsm` binary running
//! as a child of this process. This module owns what that needs: where
//! the binary is, a scratch directory inside the checkout that is removed
//! on every exit path, a hard timeout on every wait, and the children's
//! peak memory.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// No single child of any workload takes a tenth of this.
pub const OP_TIMEOUT: Duration = Duration::from_secs(60);

/// The same parallelism for workers, simulated nodes, ranks and client
/// connections; input sizes never depend on it.
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

/// Where things are for this run.
#[derive(Debug)]
pub struct Env {
    /// The binary under test.
    pub genomedsm: PathBuf,
    /// Scratch directory, removed when this value is dropped. Relative to
    /// the working directory, so that the Unix socket paths inside it stay
    /// under the 108-byte limit however deep the checkout is.
    pub scratch: PathBuf,
    /// Where a traced run leaves `trace.json` and `budget.txt`.
    pub out_dir: PathBuf,
    /// `W`.
    pub workers: usize,
}

impl Env {
    /// Locates the build tree the way `run.sh` lays it out: this program
    /// and `genomedsm` in `$CARGO_TARGET_DIR/release`.
    pub fn new(workload: &str, seed: u64) -> Result<Self, String> {
        let target = PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or("target".into()));
        let genomedsm = target.join("release").join("genomedsm");
        if !genomedsm.is_file() {
            return Err(format!(
                "{} not found: start the benchmark with `bash perfbench/run.sh`, which builds it",
                genomedsm.display()
            ));
        }
        let scratch = target
            .join("perfbench-run")
            .join(std::process::id().to_string());
        let out_dir = target
            .join("perfbench-out")
            .join(format!("{workload}-seed{seed}"));
        std::fs::create_dir_all(&scratch)
            .map_err(|e| format!("create {}: {e}", scratch.display()))?;
        Ok(Self {
            genomedsm,
            scratch,
            out_dir,
            workers: parallelism(),
        })
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.scratch.join(name)
    }

    /// A `genomedsm` command with the cluster manifest variable removed, so
    /// a manifest exported in the caller's shell cannot redirect a rank.
    pub fn genomedsm(&self) -> Command {
        let mut cmd = Command::new(&self.genomedsm);
        cmd.env_remove(genomedsm::dsm::CLUSTER_ENV)
            .stdin(Stdio::null());
        cmd
    }
}

impl Drop for Env {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.scratch);
    }
}

/// A running child that is killed and reaped if it is still running when
/// this value goes away (error returns and panics included).
#[derive(Debug)]
pub struct Running {
    child: Child,
    started: Instant,
    polls: u32,
}

/// How a child ended.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Exit code 0 and not killed by the timeout.
    pub ok: bool,
    /// Spawn to reaped.
    pub wall: Duration,
}

impl Running {
    /// Spawns `cmd` with stdout and stderr going to the two files.
    pub fn spawn(mut cmd: Command, stdout: &Path, stderr: &Path) -> Result<Self, String> {
        let create = |p: &Path| File::create(p).map_err(|e| format!("create {}: {e}", p.display()));
        cmd.stdout(create(stdout)?).stderr(create(stderr)?);
        let started = Instant::now();
        let child = cmd
            .spawn()
            .map_err(|e| format!("spawn {:?}: {e}", cmd.get_program()))?;
        Ok(Self {
            child,
            started,
            polls: 0,
        })
    }

    /// Whether the child has ended; a child past `deadline` is killed and
    /// reported as failed.
    pub fn poll(&mut self, deadline: Instant) -> Option<Exit> {
        // Callers poll every 500 µs; the high-water mark is read every 5 ms.
        if self.polls.is_multiple_of(10) {
            self.note_peak_rss();
        }
        self.polls += 1;
        let status = match self.child.try_wait() {
            Ok(Some(status)) => Some(status.success()),
            Ok(None) if Instant::now() < deadline => None,
            // Timed out, or the wait itself failed: either way it is over.
            _ => {
                let _ = self.child.kill();
                let _ = self.child.wait();
                Some(false)
            }
        };
        status.map(|ok| Exit {
            ok,
            wall: self.started.elapsed(),
        })
    }

    /// Records the child's peak resident set so far; for a long-lived child
    /// that is not being polled (a server), call this before ending it.
    pub fn note_peak_rss(&self) {
        note_peak_rss(self.child.id());
    }

    /// Waits for the child, at most until `deadline`.
    pub fn wait(mut self, deadline: Instant) -> Exit {
        loop {
            if let Some(exit) = self.poll(deadline) {
                return exit;
            }
            // Fine against operations of hundreds of milliseconds, and far
            // too coarse to steal a core from the child.
            std::thread::sleep(Duration::from_micros(500));
        }
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Runs one CLI invocation to completion; stdout lands in `stdout`.
pub fn run_to_exit(cmd: Command, stdout: &Path, stderr: &Path) -> Result<Exit, String> {
    Ok(Running::spawn(cmd, stdout, stderr)?.wait(Instant::now() + OP_TIMEOUT))
}

/// Largest resident-set high-water mark seen in any child, in kB.
static PEAK_RSS_KB: AtomicU64 = AtomicU64::new(0);

/// Reads the child's `VmHWM` (peak resident set since its `exec`) while it
/// is still alive. `getrusage(RUSAGE_CHILDREN)` would be exact to the last
/// page, but a child's `ru_maxrss` starts at its *parent's* resident set at
/// the moment of `exec`, so every child smaller than this process would
/// report this process.
fn note_peak_rss(pid: u32) {
    let Ok(status) = std::fs::read_to_string(format!("/proc/{pid}/status")) else {
        return;
    };
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok());
    if let Some(kb) = kb {
        PEAK_RSS_KB.fetch_max(kb, Ordering::Relaxed);
    }
}

/// Peak resident set, in MB, of the largest child so far (sampled every
/// 5 ms while a child is being waited for, so growth in a child's last
/// milliseconds can be missed).
pub fn children_peak_rss_mb() -> f64 {
    PEAK_RSS_KB.load(Ordering::Relaxed) as f64 / 1024.0
}
