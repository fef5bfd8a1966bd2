//! The registry is the one list of experiments: names dispatch, the help
//! text and the binary's module doc cannot drift from it, the claim list
//! is pinned, and the cheap deterministic gates run here.

use genomedsm_bench::experiments::{find, help, Points, REGISTRY};
use genomedsm_bench::HarnessArgs;
use std::collections::HashSet;

/// Every claim `paper summary` prints on an AVX2 host, in order. A claim
/// that disappears from its experiment fails here, not silently.
const CLAIMS: [&str; 21] = [
    "speed-up grows with sequence size (Fig. 9)",
    "blocking beats non-blocking by a large factor (Fig. 13)",
    "blocked and non-blocked find identical regions",
    "phase-2 scattered mapping is near-linear (Fig. 15)",
    "phase 2 uses no locks or condition variables (§4.4)",
    "pre-process strategy is exact (§5)",
    "column saving costs little (Fig. 20)",
    "Section-6 worked example (score 6 at (14,15), start recovery)",
    "reverse-window useful area ~ 1/3 (Eqs. 2-3)",
    "kernel GCUPS (10k x 10k score-only, 1 thread)",
    "kernel GCUPS (10k x 10k score-only, 1 thread)",
    "kernel GCUPS (10k x 10k score-only, 1 thread)",
    "kernel GCUPS (10k x 10k score-only, 1 thread)",
    "striped SIMD kernel >= 3x scalar (10k x 10k score-only)",
    "exactly-once under 5% loss + crash, bit-identical scoreboard (§5.7)",
    "N-1 run matches fault-free output exactly (§5.8 takeover)",
    "batch engine beats per-pair launches on many small queries (§5.9)",
    "service cache hits and hot reload are bit-exact (§5.11)",
    "4-process UDP run bit-identical under 15% datagram loss (§5.12)",
    "kill-then-rejoin campaign: bit-identical, throughput recovered (§5.13)",
    "protein Gotoh: SIMD >= 2x scalar, prefilter prunes, all bit-exact (§5.14)",
];

/// The two commands over the registry, which `main` matches before it.
const COMMANDS: [&str; 2] = ["summary", "all"];

/// Every name the harness answers to, in registry order.
fn names() -> Vec<&'static str> {
    REGISTRY.iter().flat_map(|e| e.names).copied().collect()
}

#[test]
fn names_are_unique_and_dispatch() {
    let mut seen = HashSet::new();
    for e in REGISTRY {
        assert!(!e.names.is_empty(), "an experiment needs a name");
        for name in e.names {
            assert!(seen.insert(*name), "{name} is registered twice");
            let found = find(name).unwrap_or_else(|| panic!("{name} does not dispatch"));
            assert!(std::ptr::eq(found, e), "{name} dispatches elsewhere");
        }
    }
    for command in COMMANDS {
        assert!(!seen.contains(command), "an experiment shadows {command}");
    }
    assert!(find("no-such-experiment").is_none());
}

#[test]
fn help_lists_exactly_the_registry() {
    let text = help();
    let listed: Vec<&str> = text
        .lines()
        .skip_while(|l| *l != "experiments:")
        .skip(1)
        .take_while(|l| !l.is_empty())
        .flat_map(|l| {
            // Names come first, separated from the help line by 2+ spaces.
            let names = l.trim_start().split("  ").next().expect("a names column");
            names.split(' ')
        })
        .collect();
    let mut want = names();
    want.extend(COMMANDS);
    assert_eq!(listed, want);
}

#[test]
fn module_doc_names_no_experiment_of_its_own() {
    // The binary's doc defers to `--help`; any experiment it did name
    // would be a second, hand-kept copy of the registry.
    let source = include_str!("../src/bin/paper.rs");
    let doc: Vec<&str> = source.lines().filter(|l| l.starts_with("//!")).collect();
    assert!(doc.iter().any(|l| l.contains("`paper --help`")));
    assert!(doc.iter().any(|l| l.contains("experiments::REGISTRY")));
    let known: HashSet<&str> = names().into_iter().collect();
    for word in doc
        .iter()
        .flat_map(|l| l.split(|c: char| !c.is_alphanumeric() && c != '-'))
    {
        assert!(!known.contains(word), "module doc names experiment {word}");
    }
}

#[test]
fn the_21_claims_are_pinned_in_order() {
    let declared: Vec<&str> = REGISTRY
        .iter()
        .flat_map(|e| e.claims.iter().copied())
        .collect();
    assert_eq!(declared, CLAIMS);
}

#[test]
fn cheap_deterministic_gates_run_and_pass() {
    let args = HarnessArgs::default();
    for name in ["section6", "section6-area"] {
        let e = find(name).expect("registered");
        let report = e.report(&args, Points::Gate);
        let checked: Vec<&str> = report.claims.iter().map(|c| c.text).collect();
        assert_eq!(checked, e.claims, "{name} checks what it declares");
        for claim in &report.claims {
            assert!(claim.pass, "{}: {}", claim.text, claim.evidence);
        }
    }
    let section6 = find("section6").unwrap().report(&args, Points::Gate);
    assert_eq!(section6.claims[0].evidence, "score 6 at (14,15)");
}
