//! `perfbench`: the host-time benchmark of this repository.
//!
//! ```text
//! bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! One run is one workload: inputs generated from `--seed`, the real
//! `genomedsm` binary driven for `--seconds` seconds, every answer checked,
//! and one JSON object printed as the last line of stdout. `--trace 0`
//! reports the end-to-end metrics with no span recorded anywhere;
//! `--trace 1` is the separate traced pass: the same operations inside
//! spans, an in-process replay of one operation layer by layer (the budget
//! table), and the per-layer ledger. All clocks are host wall time
//! (`Instant`); nothing virtual is reported. See `perfbench/README.md`.

mod child;
mod cluster;
mod gen;
mod ledger;
mod stats;
mod trace;
mod workloads;

use child::Env;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::{BudgetRow, Measured, Workload};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Self, String> {
        let usage = format!(
            "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--smoke]",
            workloads::NAMES.join("|")
        );
        let value = |flag: &str| -> Result<&str, String> {
            argv.iter()
                .position(|a| a == flag)
                .and_then(|i| argv.get(i + 1))
                .map(String::as_str)
                .ok_or_else(|| format!("missing {flag}\n{usage}"))
        };
        let bad = |flag: &str| format!("invalid value for {flag}\n{usage}");
        let args = Self {
            workload: value("--workload")?.to_string(),
            seed: value("--seed")?.parse().map_err(|_| bad("--seed"))?,
            seconds: value("--seconds")?.parse().map_err(|_| bad("--seconds"))?,
            trace: match value("--trace")? {
                "0" => false,
                "1" => true,
                _ => return Err(bad("--trace")),
            },
            smoke: argv.iter().any(|a| a == "--smoke"),
        };
        if !(args.seconds > 0.0 && args.seconds <= 60.0) {
            return Err(bad("--seconds"));
        }
        Ok(args)
    }
}

/// What a run reports: the contract's four keys.
struct Report {
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)`.
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " }
            );
        }
        out.push_str("}}");
        out
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(report) => {
            for (name, value, unit) in &report.metrics {
                println!("{name:<44} {value:>16.6} {unit}");
            }
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(argv: &[String]) -> Result<Report, String> {
    let args = Args::parse(argv)?;
    let mut workload = workloads::build(&args.workload, args.smoke)
        .ok_or_else(|| format!("unknown workload '{}'", args.workload))?;
    let env = Env::new(&args.workload, args.seed)?;
    print_header(&env, &args);
    let report = if args.trace {
        traced(&mut *workload, &env, &args)
    } else {
        end_to_end(&mut *workload, &env, &args)
    };
    // On the error path too: no server outlives the run.
    workload.tear_down(&env);
    report
}

fn print_header(env: &Env, args: &Args) {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    println!(
        "perfbench: workload {} seed {} seconds {} trace {}{} | W = {} | isa {} | {} | {cpu}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.smoke { " (smoke sizes)" } else { "" },
        env.workers,
        genomedsm::kernels::Isa::best_available().name(),
        env!("PERFBENCH_RUSTC"),
    );
}

/// Sets the workload up repeatedly and returns the median time of one
/// set-up; the last one is left standing.
fn set_up_repeatedly(workload: &mut dyn Workload, env: &Env, args: &Args) -> Result<f64, String> {
    let mut walls = Vec::new();
    let t0 = Instant::now();
    loop {
        let start = Instant::now();
        workload.set_up(env, args.seed)?;
        walls.push(start.elapsed().as_secs_f64());
        // Three set-ups, and two seconds of them at least (a server start
        // takes 0.4 s; a CLI workload's reference answers 1 – 8 s).
        let enough = t0.elapsed() >= Duration::from_secs(2);
        if walls.len() >= 3 && (enough || args.smoke) {
            return Ok(stats::median(&walls));
        }
        workload.tear_down(env);
    }
}

/// Adds wrong answers to the failures; an operation fails once.
fn with_wrong_answers(m: &mut Measured, wrong: u64) {
    m.failed = (m.failed + wrong).min(m.attempted);
}

fn end_to_end(workload: &mut dyn Workload, env: &Env, args: &Args) -> Result<Report, String> {
    let setup_s = set_up_repeatedly(workload, env, args)?;
    let budget = Duration::from_secs_f64(args.seconds);
    let mut m = workload.measure(env, budget, 2, &mut Tracer::new(false))?;
    let wrong = workload.verify(env)?;
    with_wrong_answers(&mut m, wrong);
    // Reap the server before asking what the children peaked at.
    workload.tear_down(env);

    let ops_per_s = stats::sustained_ops_per_s(&m.op_ms, m.connections);
    let (tail_ms, tail_pct) = stats::tail(&m.op_ms);
    println!(
        "{} operations in {:.3} s, {} failed; p{tail_pct:.2} of {} samples is {tail_ms:.6} ms",
        m.attempted,
        m.wall_s,
        m.failed,
        m.op_ms.len()
    );
    Ok(Report {
        attempted: m.attempted,
        failed: m.failed,
        metrics: vec![
            ("op_wall_ms", stats::median(&m.op_ms), "ms"),
            ("ops_per_s", ops_per_s, "1/s"),
            ("gcups", workload.cells_per_op() * ops_per_s / 1e9, "GCUPS"),
            ("peak_rss_mb", child::children_peak_rss_mb(), "MB"),
            ("setup_s", setup_s, "s"),
        ],
    })
}

/// Share of `--seconds` a traced run spends on the workload's own
/// operations; the ledger takes what it needs after that.
const TRACED_OPS_SHARE: f64 = 0.3;

fn traced(workload: &mut dyn Workload, env: &Env, args: &Args) -> Result<Report, String> {
    workload.set_up(env, args.seed)?;
    let mut tracer = Tracer::new(false);
    // The same operations with recording off and on, turn about: the ratio
    // of the two medians is what tracing costs.
    let ops_budget = Duration::from_secs_f64(args.seconds * TRACED_OPS_SHARE);
    let slice = ops_budget / 4;
    let (mut off, mut on) = (Measured::default(), Measured::default());
    let t0 = Instant::now();
    while t0.elapsed() < ops_budget || on.attempted == 0 {
        for (enabled, total) in [(false, &mut off), (true, &mut on)] {
            tracer.set_enabled(enabled);
            let m = workload.measure(env, slice, 1, &mut tracer)?;
            total.op_ms.extend(m.op_ms);
            total.attempted += m.attempted;
            total.failed += m.failed;
        }
    }
    let wrong = workload.verify(env)?;
    on.attempted += off.attempted;
    on.failed += off.failed;
    with_wrong_answers(&mut on, wrong);

    let op_s = stats::median(&off.op_ms) / 1e3;
    let rows = tracer.span("replay", 0, |t| workload.replay(env, t))?;
    let attributed: f64 = rows.iter().map(|r| r.seconds).sum();
    let table = budget_table(&args.workload, op_s, &rows);
    print!("{table}");

    let mut ledger = ledger::Ledger::new(env, &mut tracer, args.seed, args.seconds);
    ledger.put("trace.op_wall_ms", stats::median(&on.op_ms));
    ledger.put("trace.op_tail_ms", stats::tail(&on.op_ms).0);
    ledger.put(
        "trace.overhead_ratio",
        stats::median(&on.op_ms) / stats::median(&off.op_ms),
    );
    ledger.put("budget.unattributed_share", (op_s - attributed) / op_s);
    ledger.run()?;
    let mut values = ledger.values().to_vec();
    values.push(("trace.spans", tracer.spans().len() as f64));

    std::fs::create_dir_all(&env.out_dir)
        .map_err(|e| format!("create {}: {e}", env.out_dir.display()))?;
    let write = |name: &str, text: &str| {
        let path = env.out_dir.join(name);
        std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))
    };
    write("trace.json", &tracer.chrome_json(&args.workload))?;
    write(
        "budget.txt",
        &format!("{table}\n{}", self_time_table(&tracer)),
    )?;
    println!("trace and budget written to {}", env.out_dir.display());

    let mut metrics = Vec::with_capacity(ledger::METRICS.len());
    for (name, unit, _) in ledger::METRICS {
        let value = values
            .iter()
            .find(|v| v.0 == *name)
            .ok_or_else(|| format!("the ledger did not measure {name}"))?
            .1;
        metrics.push((*name, value, *unit));
    }
    Ok(Report {
        attempted: on.attempted,
        failed: on.failed,
        metrics,
    })
}

/// Where one operation's wall time goes: seconds and share of the wall the
/// real binary took with tracing off. The last row is the remainder, so
/// the rows always sum to the wall; a large remainder is the finding.
fn budget_table(workload: &str, op_s: f64, rows: &[BudgetRow]) -> String {
    let mut out = format!(
        "budget of one {workload} operation ({:.6} s untraced):\n",
        op_s
    );
    let mut line = |name: &str, seconds: f64| {
        let _ = writeln!(
            out,
            "  {name:<88} {seconds:>12.6} s {:>7.2} %",
            100.0 * seconds / op_s
        );
    };
    for row in rows {
        line(row.name, row.seconds);
    }
    let attributed: f64 = rows.iter().map(|r| r.seconds).sum();
    line(
        "idle / unattributed (exit, allocator, scheduling, sockets, waiting on other threads)",
        op_s - attributed,
    );
    out
}

fn self_time_table(tracer: &Tracer) -> String {
    let mut out = String::from("spans by name: count, total s, self s\n");
    for (name, t) in tracer.totals() {
        let _ = writeln!(
            out,
            "  {name:<44} {:>8} {:>14.6} {:>14.6}",
            t.count,
            t.total_ns as f64 / 1e9,
            t.self_ns as f64 / 1e9
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = Args::parse(&argv("--workload db_dna --seed 11 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace, a.smoke),
            ("db_dna", 11, 10.0, true, false)
        );
        assert!(Args::parse(&argv("--workload db_dna --seed 11 --seconds 10")).is_err());
        assert!(Args::parse(&argv("--workload db_dna --seed x --seconds 10 --trace 0")).is_err());
        assert!(Args::parse(&argv("--workload db_dna --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(Args::parse(&argv("--workload db_dna --seed 1 --seconds 5 --trace 2")).is_err());
    }

    #[test]
    fn the_result_line_has_the_four_keys_and_full_precision() {
        let report = Report {
            attempted: 7,
            failed: 0,
            metrics: vec![
                ("op_wall_ms", 1_512.034_567_8, "ms"),
                ("setup_s", f64::NAN, "s"),
            ],
        };
        assert_eq!(
            report.json(),
            "{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": {\
             \"op_wall_ms\": {\"value\": 1512.0345678, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
        let failed = Report {
            attempted: 2,
            failed: 1,
            metrics: Vec::new(),
        };
        assert!(failed.json().starts_with("{\"correct\": false"));
    }

    #[test]
    fn every_workload_name_builds() {
        for name in workloads::NAMES {
            assert!(workloads::build(name, true).is_some(), "{name}");
        }
        assert!(workloads::build("nope", true).is_none());
    }

    #[test]
    fn budget_rows_and_remainder_sum_to_the_wall() {
        let rows = [
            BudgetRow {
                name: "load",
                seconds: 0.25,
            },
            BudgetRow {
                name: "kernel",
                seconds: 0.5,
            },
        ];
        let table = budget_table("db_dna", 1.0, &rows);
        assert!(table.contains("25.00 %") && table.contains("50.00 %"));
        let idle = table.lines().last().unwrap();
        assert!(
            idle.contains("0.250000 s") && idle.contains("25.00 %"),
            "{idle}"
        );
    }
}
