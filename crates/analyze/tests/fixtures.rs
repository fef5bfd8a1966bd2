//! The seeded-bad corpus: each fixture under `fixtures/` must produce
//! exactly its one expected finding when analyzed as live protocol
//! code. This is the proof that every analysis actually fires — a
//! clean workspace report means nothing if the checks are vacuous.

use genomedsm_analyze::{Finding, Model};
use std::path::PathBuf;

/// Analyzes one fixture file as if it lived at `as_path` in `crate_name`.
fn analyze_fixture(fixture: &str, as_path: &str, crate_name: &str) -> Vec<Finding> {
    let src = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(fixture);
    let text = std::fs::read_to_string(&src)
        .unwrap_or_else(|e| panic!("read fixture {}: {e}", src.display()));
    let model = Model::from_sources(vec![(PathBuf::from(as_path), crate_name.to_string(), text)]);
    model.analyze()
}

#[test]
fn block_under_lock_fixture_is_caught() {
    let f = analyze_fixture(
        "block_under_lock.rs",
        "crates/serve/src/block_under_lock.rs",
        "serve",
    );
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].analysis, "blocking-while-locked");
    assert!(
        f[0].message.contains("`recv` can block"),
        "{}",
        f[0].message
    );
    assert!(f[0].message.contains("guard `stats`"), "{}", f[0].message);
}

#[test]
fn dead_variant_fixture_is_caught() {
    let f = analyze_fixture("dead_variant.rs", "crates/dsm/src/dead_variant.rs", "dsm");
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].analysis, "wire-exhaustiveness");
    assert!(f[0].message.contains("Msg::Pong"), "{}", f[0].message);
    assert!(
        f[0].message.contains("handler match arm"),
        "{}",
        f[0].message
    );
}

#[test]
fn indexed_decode_fixture_is_caught() {
    let f = analyze_fixture(
        "indexed_decode.rs",
        "crates/dsm/src/indexed_decode.rs",
        "dsm",
    );
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].analysis, "panic-surface");
    assert!(
        f[0].message.contains("decode_msg -> header"),
        "{}",
        f[0].message
    );
}

#[test]
fn fixtures_are_test_scoped_when_pathed_under_tests() {
    // The same seeded-bad code under a `tests/` path must NOT flag
    // blocking/panic findings (test code is out of scope), proving the
    // analyses respect the live/test boundary rather than matching text.
    let f = analyze_fixture(
        "block_under_lock.rs",
        "crates/serve/tests/block_under_lock.rs",
        "serve",
    );
    assert!(f.is_empty(), "{f:?}");
    let f = analyze_fixture(
        "indexed_decode.rs",
        "crates/dsm/tests/indexed_decode.rs",
        "dsm",
    );
    assert!(f.is_empty(), "{f:?}");
}
