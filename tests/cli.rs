//! End-to-end tests of the `genomedsm` command-line binary.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_genomedsm"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("genomedsm_cli_{tag}"));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn generate_align_exact_round_trip() {
    let dir = temp_dir("roundtrip");
    let fa = dir.join("pair.fa");
    let svg = dir.join("plot.svg");

    let out = bin()
        .args(["generate", "--len", "3000", "--seed", "7", "--out"])
        .arg(&fa)
        .output()
        .expect("run generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(fa.exists());

    let out = bin()
        .arg("align")
        .arg(&fa)
        .args(["--procs", "2", "--alignments", "1", "--svg"])
        .arg(&svg)
        .output()
        .expect("run align");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("candidate similar regions"), "{stdout}");
    assert!(stdout.contains("similarity:"), "{stdout}");
    assert!(svg.exists());
    let svg_text = std::fs::read_to_string(&svg).unwrap();
    assert!(svg_text.contains("<line"), "dot plot must contain regions");

    let out = bin()
        .arg("exact")
        .arg(&fa)
        .args(["--min-score", "80", "--threads", "2"])
        .output()
        .expect("run exact");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("exact local alignments"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn align_preprocess_strategy_reports_scoreboard() {
    let dir = temp_dir("preprocess");
    let fa = dir.join("pair.fa");
    assert!(bin()
        .args(["generate", "--len", "2000", "--out"])
        .arg(&fa)
        .status()
        .expect("generate")
        .success());
    let out = bin()
        .arg("align")
        .arg(&fa)
        .args(["--strategy", "preprocess", "--procs", "2"])
        .output()
        .expect("run align");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("best score"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_command_exits_nonzero() {
    let out = bin().arg("frobnicate").output().expect("run");
    assert!(!out.status.success());
}

#[test]
fn missing_input_file_is_a_clean_error() {
    let out = bin()
        .args(["align", "/nonexistent/definitely_missing.fa"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot read"), "{stderr}");
}

#[test]
fn a_pair_command_refuses_more_than_two_sequences() {
    // A third record or a third file is refused, never dropped: the
    // answer would be about two sequences the user did not single out.
    let dir = temp_dir("three_seqs");
    let record = |name: &str, seq: &str| format!(">{name}\n{seq}\n");
    let three = dir.join("three.fa");
    let body = record("a", "ACGTACGTAC") + &record("b", "ACGTTCGTAC") + &record("c", "TTGTACG");
    std::fs::write(&three, body).expect("write three.fa");
    let one: Vec<PathBuf> = ["x", "y", "z"]
        .iter()
        .map(|name| {
            let path = dir.join(format!("{name}.fa"));
            std::fs::write(&path, record(name, "ACGTACGTAC")).expect("write one record");
            path
        })
        .collect();
    for command in ["align", "score", "exact"] {
        for files in [vec![three.clone()], one.clone()] {
            let out = bin().arg(command).args(&files).output().expect("run");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{command} {files:?}: {stderr}");
            assert!(stderr.contains("got 3"), "{command}: {stderr}");
            assert!(out.stdout.is_empty(), "{command}: nothing may run");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A 600 bp planted pair (seed 3): small, and the blocked strategy finds
/// regions in it.
fn small_pair(dir: &std::path::Path) -> PathBuf {
    let fa = dir.join("pair.fa");
    assert!(bin()
        .args(["generate", "--len", "600", "--seed", "3", "--out"])
        .arg(&fa)
        .status()
        .expect("generate")
        .success());
    fa
}

#[test]
fn a_plan_that_crashes_every_node_is_refused_before_running() {
    // With nobody left to adopt the dead roles the run would end with an
    // empty answer and exit 0; the plan must be refused up front.
    let dir = temp_dir("no_survivor");
    let fa = small_pair(&dir);
    let plan = "crash=0@3,crash=1@3";
    let out = bin()
        .arg("align")
        .arg(&fa)
        .args(["--strategy", "blocked", "--procs", "2"])
        .args(["--bands", "4", "--blocks", "4", "--plan", plan])
        .output()
        .expect("run align");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(plan), "{stderr}");
    assert!(stderr.contains("no survivor"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing may run");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_crash_naming_a_node_outside_the_cluster_is_refused() {
    // Node 9 of a 4-node cluster used to crash nothing: exit 0, no
    // supervision line, "BIT-IDENTICAL" and 0 obituaries.
    let dir = temp_dir("crash_outside");
    let fa = small_pair(&dir);
    for command in ["align", "chaos"] {
        let out = bin()
            .arg(command)
            .arg(&fa)
            .args(["--strategy", "blocked", "--procs", "4"])
            .args(["--bands", "4", "--blocks", "4", "--plan", "crash=9@3"])
            .output()
            .expect("run");
        assert_eq!(out.status.code(), Some(2), "{command}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("node 9"), "{command}: {stderr}");
        assert!(stderr.contains("--procs 4"), "{command}: {stderr}");
        assert!(out.stdout.is_empty(), "{command}: nothing may run");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chaos_takes_a_scheduled_crash_over_instead_of_dropping_it() {
    // A crash in the plan must fire for every strategy — never identical
    // traffic, "+0.0% overhead" and no word of the crash.
    let dir = temp_dir("chaos_crash");
    let fa = small_pair(&dir);
    let out = bin()
        .arg("chaos")
        .arg(&fa)
        .args(["--strategy", "blocked", "--procs", "3"])
        .args(["--bands", "6", "--blocks", "6", "--plan", "crash=1@5"])
        .output()
        .expect("run chaos");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("BIT-IDENTICAL"), "{stdout}");
    let supervision = stdout
        .lines()
        .find(|line| line.starts_with("supervision:"))
        .unwrap_or_else(|| panic!("no supervision line:\n{stdout}"));
    assert!(!supervision.contains(" 0 role takeover"), "{supervision}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_gap_penalty_that_is_not_negative_or_too_large_is_refused() {
    // A zero extension used to panic a batch worker (exit 101); a huge
    // penalty silently overflowed the oracle's scores.
    let dir = temp_dir("bad_gaps");
    let db = dir.join("prot.fa");
    assert!(bin()
        .args(["generate", "--mode", "protein", "--records", "8"])
        .args(["--len", "40", "--seed", "9", "--out"])
        .arg(&db)
        .status()
        .expect("generate")
        .success());
    for gaps in [["-11", "0"], ["1", "-1"], ["-2000000000", "-2000000000"]] {
        let out = bin()
            .args(["batch", "--mode", "protein", "--db"])
            .arg(&db)
            .arg("--queries")
            .arg(&db)
            .args(["--gap-open", gaps[0], "--gap-extend", gaps[1]])
            .output()
            .expect("run batch");
        assert_eq!(out.status.code(), Some(2), "{gaps:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--gap-extend"), "{stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_threshold_or_count_below_one_is_refused_by_name() {
    // Each of these used to reach an assert in `RowKernel::new`,
    // `BlockedConfig::new`, `DsmConfig::new` or `sw_ends_over` and panic
    // (exit 101), or ran phase 1 and printed its regions first; `score`
    // printed a hit count of 0 for a threshold every cell meets. The
    // bound is refused before the flag check that would refuse the
    // `--alignments` every row adds.
    let dir = temp_dir("bad_counts");
    let fa = small_pair(&dir);
    let cases: [(&str, &[&str]); 13] = [
        ("align", &["--open", "0"]),
        ("align", &["--open", "-3"]),
        ("align", &["--close", "0"]),
        ("align", &["--bands", "0"]),
        ("align", &["--blocks", "0"]),
        ("align", &["--procs", "0"]),
        ("chaos", &["--strategy", "blocked", "--bands", "0"]),
        ("align", &["--min-score", "0"]),
        ("exact", &["--min-score", "0"]),
        ("score", &["--threshold", "0"]),
        ("score", &["--threshold", "-5"]),
        ("align", &["--alignments", "x"]),
        ("align", &["--alignments", "-1"]),
    ];
    for (command, flags) in cases {
        let out = bin()
            .arg(command)
            .arg(&fa)
            .args(flags)
            .args(["--alignments", "0"])
            .output()
            .expect("run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{command} {flags:?}: {stderr}");
        let flag = flags.iter().rev().nth(1).expect("a flag");
        assert!(stderr.contains(flag), "{command} {flags:?}: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "{command} {flags:?}: nothing may run"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_zero_count_is_refused_before_anything_is_written_or_spawned() {
    // `launch --ranks 0` used to panic in `DsmConfig::new` (exit 101);
    // `generate` with a zero count wrote a FASTA the loaders refuse, exit
    // 0; `client --top-k 0` asked the server for its default top-k.
    let dir = temp_dir("zero_counts");
    let out = dir.join("never.fa");
    let socket = dir.join("no.sock");
    let out_s = out.to_str().expect("utf-8 path");
    let socket_s = socket.to_str().expect("utf-8 path");
    std::fs::remove_file(&out).ok();
    let cases: [&[&str]; 5] = [
        &["generate", "--out", out_s, "--len", "0"],
        &[
            "generate", "--out", out_s, "--mode", "protein", "--len", "0",
        ],
        &[
            "generate",
            "--out",
            out_s,
            "--mode",
            "protein",
            "--records",
            "0",
        ],
        &["launch", "--ranks", "0"],
        &[
            "client",
            "--socket",
            socket_s,
            "--queries",
            out_s,
            "--top-k",
            "0",
        ],
    ];
    for args in cases {
        let run = bin().args(args).output().expect("run");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{args:?}: {stderr}");
        let flag = args.iter().rev().nth(1).expect("a flag");
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
        assert!(run.stdout.is_empty(), "{args:?}: nothing may run");
        assert!(!out.exists(), "{args:?}: nothing may be written");
    }
    // One residue is the least: every record of a one-residue protein
    // file is one residue long, not empty.
    let run = bin()
        .args(["generate", "--mode", "protein", "--len", "1", "--out"])
        .arg(&out)
        .output()
        .expect("run generate");
    assert!(run.status.success());
    let text = std::fs::read_to_string(&out).expect("written");
    assert!(text
        .lines()
        .filter(|l| !l.starts_with('>'))
        .all(|l| l.len() == 1));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_zero_workload_length_is_refused_before_any_rank_starts() {
    // `launch --len 0` used to run every rank over an empty pair, print
    // "BIT-IDENTICAL" over zero regions and exit 0; `node --len 0` ran its
    // rank the same way.
    let runs = [
        bin()
            .args(["launch", "--ranks", "2", "--len", "0"])
            .output(),
        bin()
            .args(["node", "--rank", "0", "--len", "0"])
            .env("GENOMEDSM_CLUSTER", "127.0.0.1:0")
            .output(),
    ];
    for run in runs {
        let run = run.expect("run");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{stderr}");
        assert!(stderr.contains("--len"), "{stderr}");
        assert!(run.stdout.is_empty(), "no rank may report: {stderr}");
        assert!(
            !stderr.contains("launching") && !stderr.contains("finished"),
            "no rank may start: {stderr}"
        );
    }
}

#[test]
fn batch_refuses_a_top_k_of_zero_by_name() {
    // `--top-k 0` used to run the whole search and print "0 hit(s)" for
    // every query, exit 0; `serve` reads a request's 0 as "the default".
    let dir = temp_dir("bad_top_k");
    let fa = small_pair(&dir);
    for mode in ["dna", "protein"] {
        let out = bin()
            .args(["batch", "--mode", mode, "--db"])
            .arg(&fa)
            .arg("--queries")
            .arg(&fa)
            .args(["--top-k", "0"])
            .output()
            .expect("run batch");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{mode}: {stderr}");
        assert!(stderr.contains("--top-k"), "{mode}: {stderr}");
        assert!(out.stdout.is_empty(), "{mode}: nothing may run");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn batch_names_an_empty_query_file_as_the_query_file() {
    // An empty query file used to be reported as "database has no
    // records", sending the user to the wrong file.
    let dir = temp_dir("empty_queries");
    let fa = small_pair(&dir);
    let empty = dir.join("empty.fa");
    std::fs::write(&empty, "").expect("write empty query file");
    for mode in ["dna", "protein"] {
        let out = bin()
            .args(["batch", "--mode", mode, "--db"])
            .arg(&fa)
            .arg("--queries")
            .arg(&empty)
            .output()
            .expect("run batch");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{mode}: {stderr}");
        assert!(
            stderr.contains("query file has no records"),
            "{mode}: {stderr}"
        );
        assert!(!stderr.contains("database"), "{mode}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_flag_the_command_does_not_read_or_a_flag_without_its_value_is_refused() {
    // Each of these used to run with the flag silently dropped and exit 0:
    // `--procz 4` on the default 8 nodes, `--treshold 5` at threshold 50,
    // and a trailing `--procs` at its default.
    let dir = temp_dir("unknown_flags");
    let fa = small_pair(&dir);
    let cases: [(&str, &[&str], &str); 3] = [
        ("align", &["--procz", "4"], "unknown flag --procz"),
        ("score", &["--treshold", "5"], "unknown flag --treshold"),
        (
            "align",
            &["--alignments", "0", "--procs"],
            "--procs needs a value",
        ),
    ];
    for (command, flags, said) in cases {
        let out = bin()
            .arg(command)
            .arg(&fa)
            .args(flags)
            .output()
            .expect("run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{command} {flags:?}: {stderr}");
        assert!(stderr.contains(said), "{command} {flags:?}: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "{command} {flags:?}: nothing may run"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
