//! The workspace must lint clean — with zero allowlist entries.

use std::path::PathBuf;

#[test]
fn workspace_has_no_lint_findings() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let findings = genomedsm_analyze::Model::from_workspace(&root)
        .expect("walk workspace")
        .hygiene;
    for finding in &findings {
        eprintln!("{finding}");
    }
    assert!(
        findings.is_empty(),
        "{} lint finding(s); see stderr",
        findings.len()
    );
}
