//! The workloads: what each one generates, runs, checks and replays.

pub mod db;
pub mod pair;
pub mod serve;

use crate::child::{run_to_exit, Env};
use crate::trace::Tracer;
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

/// What one measured phase produced.
#[derive(Debug, Default)]
pub struct Measured {
    /// Wall time of every operation that completed, in milliseconds.
    pub op_ms: Vec<f64>,
    /// First operation started → last operation ended.
    pub wall_s: f64,
    /// Connections issuing operations at the same time (1 for the CLI
    /// workloads, which run one operation at a time).
    pub connections: usize,
    /// Operations started.
    pub attempted: u64,
    /// Operations that errored, were refused, exited non-zero or timed out
    /// (wrong answers are added by [`Workload::verify`]).
    pub failed: u64,
}

/// One row of the budget table: where an operation's wall time goes.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetRow {
    pub name: &'static str,
    pub seconds: f64,
}

pub trait Workload {
    /// Everything that must happen before the first operation can be
    /// issued: inputs generated from the seed and written out, the server
    /// (if any) started, loaded and greeted, caches filled.
    fn set_up(&mut self, env: &Env, seed: u64) -> Result<(), String>;

    /// Undoes [`set_up`](Self::set_up), so that it can be timed again.
    fn tear_down(&mut self, env: &Env);

    /// Issues operations until `budget` has passed, and `min_ops` of them
    /// (per connection) at least. May be called more than once between a
    /// set-up and a tear-down.
    fn measure(
        &mut self,
        env: &Env,
        budget: Duration,
        min_ops: u64,
        tracer: &mut Tracer,
    ) -> Result<Measured, String>;

    /// Checks every answer the measured phases produced, outside any timed
    /// region. Returns how many operations answered wrongly.
    fn verify(&mut self, env: &Env) -> Result<u64, String>;

    /// DP cells whose result one operation delivers.
    fn cells_per_op(&self) -> f64;

    /// Replays one operation's pipeline in this process, a span around each
    /// call into a layer, and says how long each layer takes. The caller
    /// sets that against the operation's wall time on the real binary and
    /// adds the remainder as the `idle / unattributed` row.
    fn replay(&mut self, env: &Env, tracer: &mut Tracer) -> Result<Vec<BudgetRow>, String>;
}

/// Sizes are fixed per workload; `smoke` shrinks every one of them so that
/// the whole benchmark can be exercised in seconds.
pub fn build(name: &str, smoke: bool) -> Option<Box<dyn Workload>> {
    Some(match name {
        "pair_blocked" => Box::new(pair::Pair::blocked(smoke)),
        "pair_exact" => Box::new(pair::Pair::exact(smoke)),
        "db_dna" => Box::new(db::Db::dna(smoke)),
        "db_protein" => Box::new(db::Db::protein(smoke)),
        "serve_cold" => Box::new(serve::Serve::cold(smoke)),
        _ => return None,
    })
}

pub const NAMES: [&str; 5] = [
    "pair_blocked",
    "pair_exact",
    "db_dna",
    "db_protein",
    "serve_cold",
];

/// The closed loop of the CLI workloads: one `genomedsm` process at a time,
/// spawn → exit, until the budget has passed and `min_ops` have run. `command(i)` builds the i-th
/// invocation and `stdout(i)` names the file its output is kept in for
/// [`Workload::verify`]; `first` numbers the first operation.
#[allow(clippy::too_many_arguments)]
pub fn cli_ops(
    env: &Env,
    budget: Duration,
    min_ops: u64,
    tracer: &mut Tracer,
    span: &str,
    first: usize,
    command: impl Fn(&Env) -> Command,
    stdout: impl Fn(usize) -> PathBuf,
) -> Result<Measured, String> {
    let mut m = Measured {
        connections: 1,
        ..Measured::default()
    };
    let t0 = Instant::now();
    while t0.elapsed() < budget || m.attempted < min_ops {
        let i = first + m.attempted as usize;
        m.attempted += 1;
        let exit = tracer.span(span, i as u64, |_| {
            run_to_exit(command(env), &stdout(i), &env.path("stderr.txt"))
        })?;
        if exit.ok {
            m.op_ms.push(exit.wall.as_secs_f64() * 1e3);
        } else {
            m.failed += 1;
        }
    }
    m.wall_s = t0.elapsed().as_secs_f64();
    Ok(m)
}

/// Median wall time, in seconds, of starting the binary and having it exit
/// without doing anything: the floor under every CLI operation.
pub fn process_start_s(env: &Env, tracer: &mut Tracer) -> Result<f64, String> {
    let mut walls = Vec::new();
    for i in 0..5 {
        let mut cmd = env.genomedsm();
        cmd.arg("--help");
        let exit = tracer.span("process.start", i, |_| {
            run_to_exit(cmd, &env.path("help.out"), &env.path("help.err"))
        })?;
        walls.push(exit.wall.as_secs_f64());
    }
    Ok(crate::stats::median(&walls))
}

/// Times `f` inside a span and returns its result with the seconds taken.
pub fn timed<R>(tracer: &mut Tracer, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = tracer.span(name, 0, |_| f());
    (out, t0.elapsed().as_secs_f64())
}

/// Whether every text equals the first.
pub fn all_equal(texts: &[String]) -> bool {
    texts.windows(2).all(|w| w[0] == w[1])
}

pub fn read(path: &std::path::Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))
}
