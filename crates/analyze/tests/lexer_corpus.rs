//! Runs the lexer over the fixture corpus in `fixtures/lexer_corpus/`.
//!
//! Each corpus file is plain data (`fixtures/` is neither compiled nor
//! walked by the analyzer) carrying a self-describing contract:
//! every identifier matching `MUST_SURVIVE_<word>` sits in code
//! position and must remain in [`genomedsm_analyze::lexer::scan`]'s masked
//! output, and every identifier matching `MUST_VANISH_<word>` sits
//! inside a comment or literal and must be blanked. Marker mentions in
//! prose use a trailing `*` so they never match the identifier pattern.

use genomedsm_analyze::lexer::scan;
use std::path::PathBuf;

/// Extracts every maximal identifier starting with `prefix` from `src`.
fn markers(src: &str, prefix: &str) -> Vec<String> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while let Some(pos) = src.get(i..).and_then(|s| s.find(prefix)) {
        let start = i + pos;
        // Must start a token, not be the tail of a longer identifier.
        let standalone =
            start == 0 || !(bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_');
        let mut end = start + prefix.len();
        while end < bytes.len() && (bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_') {
            end += 1;
        }
        // Require at least one word char after the prefix (skips prose
        // mentions written as `PREFIX_*`).
        if standalone && end > start + prefix.len() {
            out.push(src[start..end].to_string());
        }
        i = end.max(start + 1);
    }
    out.sort();
    out.dedup();
    out
}

#[test]
fn corpus_contract_holds() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/lexer_corpus");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("corpus dir exists")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    files.sort();
    assert!(files.len() >= 3, "corpus should have several files");

    for file in files {
        let src = std::fs::read_to_string(&file).expect("read corpus file");
        let s = scan(&src);
        let name = file.file_name().unwrap().to_string_lossy().into_owned();

        // The mask preserves byte length and line structure exactly.
        assert_eq!(s.code.len(), src.len(), "{name}: masked length changed");
        assert_eq!(
            s.code.matches('\n').count(),
            src.matches('\n').count(),
            "{name}: line structure changed"
        );

        let survive = markers(&src, "MUST_SURVIVE_");
        let vanish = markers(&src, "MUST_VANISH_");
        assert!(!survive.is_empty(), "{name}: no MUST_SURVIVE markers");
        assert!(!vanish.is_empty(), "{name}: no MUST_VANISH markers");
        for m in &survive {
            assert!(
                s.code.contains(m.as_str()),
                "{name}: lexer blanked code token {m}"
            );
        }
        for m in &vanish {
            assert!(
                !s.code.contains(m.as_str()),
                "{name}: lexer leaked literal/comment token {m}"
            );
        }
    }
}

#[test]
fn comment_text_is_captured_per_line() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/lexer_corpus");
    let src = std::fs::read_to_string(dir.join("comments.rs")).expect("read comments corpus");
    let s = scan(&src);
    let joined = s.comments.join("\n");
    assert!(joined.contains("MUST_VANISH_line_comment"));
    assert!(joined.contains("MUST_VANISH_doc_comment"));
    assert!(joined.contains("MUST_VANISH_nested_block"));
}
