//! The token-level hygiene pass: the lint rules and the per-file rule
//! engine (formerly the separate `genomedsm-lint` crate).
//!
//! Five rules, mirroring the workspace's concurrency-hygiene policy:
//!
//! * **safety-comment** (every first-party file): each `unsafe` keyword
//!   must carry a `// SAFETY:` comment on the same line or the contiguous
//!   comment/attribute block directly above it (a `# Safety` rustdoc
//!   section on an `unsafe fn` also counts).
//! * **no-unwrap** (protocol crates only): no `.unwrap()` / `.expect(`
//!   outside test code — protocol errors must propagate as typed
//!   `DsmError`s or panic through an explicit `panic!`/`unreachable!`
//!   with protocol context. `unwrap_or*` / `expect_err` are fine.
//! * **no-relaxed** (protocol crates only): `Ordering::Relaxed` must not
//!   appear at all — cross-thread handoff flags need acquire/release
//!   edges, and no counter in these crates is hot enough to justify the
//!   footgun.
//! * **no-sleep** (protocol crates only): `thread::sleep` in protocol
//!   code hides lost-wakeup bugs behind timing; blocking must use the
//!   channel/cv primitives.
//! * **no-todo** (protocol crates only): `todo!`, `unimplemented!`, and
//!   `dbg!` must not ship in protocol `src/` — a stubbed protocol path
//!   is a runtime panic waiting for a schedule, and `dbg!` output
//!   corrupts the line-oriented serve protocol on shared stderr.
//!
//! Test code is excluded structurally: files under `tests/` and
//! `benches/` are never walked, and `#[cfg(test)]` items inside `src/`
//! are span-skipped by brace matching on the masked source.

use crate::lexer::{is_ident, scan, skip_balanced, skip_ws, Scanned};
use crate::Finding;
use std::ops::Range;

/// Which rule families apply to a file.
#[derive(Debug, Clone, Copy)]
pub struct RuleScope {
    /// The `no-unwrap` / `no-relaxed` / `no-sleep` protocol rules.
    pub protocol: bool,
}

/// Byte ranges of `#[cfg(test)]`-gated items in masked code.
///
/// Public so the structural parse shares exactly the rule engine's
/// notion of what counts as test code.
pub fn test_spans(code: &str) -> Vec<Range<usize>> {
    let bytes = code.as_bytes();
    let mut spans = Vec::new();
    let mut i = 0usize;
    while let Some(rel) = code[i..].find("#[") {
        let attr_start = i + rel;
        i = skip_balanced(bytes, attr_start + 1, b'[', b']');
        let attr = &code[attr_start..i];
        if !(attr.contains("cfg") && has_word(attr, "test")) {
            continue;
        }
        // Skip whitespace and any further attributes, then span the item:
        // a `{…}` block (brace-matched) or up to the first `;`.
        let mut k = skip_ws(bytes, i);
        while code[k..].starts_with("#[") {
            k = skip_ws(bytes, skip_balanced(bytes, k + 1, b'[', b']'));
        }
        let opens = bytes[k..].iter().position(|&b| b == b'{' || b == b';');
        i = match opens.map(|rel| k + rel) {
            Some(at) if bytes[at] == b'{' => skip_balanced(bytes, at, b'{', b'}'),
            Some(at) => at + 1,
            None => bytes.len(),
        };
        spans.push(attr_start..i);
    }
    spans
}

fn in_spans(spans: &[Range<usize>], at: usize) -> bool {
    spans.iter().any(|s| s.contains(&at))
}

/// Whole-word occurrences of `word` in `hay` (ASCII identifier bounds).
fn word_positions(hay: &str, word: &str) -> Vec<usize> {
    let bytes = hay.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while let Some(rel) = hay[i..].find(word) {
        let at = i + rel;
        let before_ok = at == 0 || !is_ident(bytes[at - 1]);
        let end = at + word.len();
        let after_ok = end >= bytes.len() || !is_ident(bytes[end]);
        if before_ok && after_ok {
            out.push(at);
        }
        i = at + word.len();
    }
    out
}

fn has_word(hay: &str, word: &str) -> bool {
    !word_positions(hay, word).is_empty()
}

/// True if a masked code line is "transparent" for the SAFETY
/// scan-upward: blank (comment-only lines mask to blank) or attribute.
fn is_transparent(code_line: &str) -> bool {
    let t = code_line.trim();
    t.is_empty() || (t.starts_with('#') && t.ends_with(']'))
}

/// Does the `unsafe` at `line` (0-based) have a justification comment?
///
/// Accepted: a `SAFETY:` (or `# Safety` rustdoc) comment on the `unsafe`
/// line itself, on the nearest code line above, or anywhere in the
/// contiguous comment/attribute/blank block directly above. The first
/// code line above ends the walk, so a SAFETY comment cannot leak past
/// intervening statements to sanction an unrelated `unsafe`.
fn unsafe_is_documented(s: &Scanned, code_lines: &[&str], line: usize) -> bool {
    let says = |l: usize| {
        s.comments
            .get(l)
            .is_some_and(|c| c.contains("SAFETY:") || c.contains("# Safety"))
    };
    if says(line) {
        return true;
    }
    let mut l = line;
    while l > 0 {
        l -= 1;
        if says(l) {
            return true;
        }
        if !is_transparent(code_lines.get(l).copied().unwrap_or("")) {
            return false;
        }
    }
    false
}

/// Lints one file's source text.
pub fn lint_source(file: &std::path::Path, src: &str, scope: RuleScope) -> Vec<Finding> {
    let s = scan(src);
    let code_lines: Vec<&str> = s.code.split('\n').collect();
    let skip = test_spans(&s.code);
    let mut findings = Vec::new();
    let mut push = |at: usize, rule: &'static str, message: String| {
        findings.push(Finding {
            file: file.to_path_buf(),
            line: s.line_of(at) + 1,
            analysis: rule,
            message,
        });
    };

    for at in word_positions(&s.code, "unsafe") {
        if in_spans(&skip, at) {
            continue;
        }
        let line = s.line_of(at);
        if !unsafe_is_documented(&s, &code_lines, line) {
            push(
                at,
                "safety-comment",
                "`unsafe` without a `// SAFETY:` comment (or `# Safety` rustdoc) on or \
                 directly above it"
                    .into(),
            );
        }
    }

    if scope.protocol {
        for pat in [".unwrap()", ".expect("] {
            let mut i = 0usize;
            while let Some(rel) = s.code[i..].find(pat) {
                let at = i + rel;
                i = at + pat.len();
                if in_spans(&skip, at) {
                    continue;
                }
                push(
                    at,
                    "no-unwrap",
                    format!(
                        "`{pat}` in protocol code — propagate a typed DsmError (or use an \
                         explicit panic!/unreachable! stating the protocol invariant)",
                        pat = pat.trim_end_matches('(')
                    ),
                );
            }
        }
        for at in word_positions(&s.code, "Relaxed") {
            if in_spans(&skip, at) {
                continue;
            }
            push(
                at,
                "no-relaxed",
                "`Ordering::Relaxed` in protocol code — cross-thread handoffs need \
                 acquire/release edges"
                    .into(),
            );
        }
        let mut i = 0usize;
        while let Some(rel) = s.code[i..].find("thread::sleep") {
            let at = i + rel;
            i = at + "thread::sleep".len();
            if in_spans(&skip, at) {
                continue;
            }
            push(
                at,
                "no-sleep",
                "`thread::sleep` in protocol code — blocking must go through the \
                 channel/cv primitives, not timing"
                    .into(),
            );
        }
        for mac in ["todo", "unimplemented", "dbg"] {
            for at in word_positions(&s.code, mac) {
                if in_spans(&skip, at) {
                    continue;
                }
                // Only the macro invocation `name!` is banned; the bare
                // word (e.g. in an identifier path) is not.
                if s.code.as_bytes().get(at + mac.len()).copied() != Some(b'!') {
                    continue;
                }
                push(
                    at,
                    "no-todo",
                    format!(
                        "`{mac}!` in protocol code — stubs and debug prints must not \
                         ship on protocol paths"
                    ),
                );
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    const PROTO: RuleScope = RuleScope { protocol: true };
    const PLAIN: RuleScope = RuleScope { protocol: false };

    fn lint(src: &str, scope: RuleScope) -> Vec<Finding> {
        lint_source(Path::new("x.rs"), src, scope)
    }

    #[test]
    fn documented_unsafe_passes() {
        let src = "
// SAFETY: bounds checked above.
let x = unsafe { *p };
";
        assert!(lint(src, PLAIN).is_empty());
    }

    #[test]
    fn same_line_safety_comment_passes() {
        let src = "let x = unsafe { *p }; // SAFETY: p is valid\n";
        assert!(lint(src, PLAIN).is_empty());
    }

    #[test]
    fn safety_doc_section_passes_through_attributes() {
        let src = "
/// Does things.
///
/// # Safety
/// Caller must ensure `p` is valid.
#[target_feature(enable = \"avx2\")]
pub unsafe fn f(p: *const u8) {}
";
        assert!(lint(src, PLAIN).is_empty());
    }

    #[test]
    fn undocumented_unsafe_is_flagged_with_line() {
        let src = "fn f(p: *const u8) {\n    let x = unsafe { *p };\n}\n";
        let f = lint(src, PLAIN);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].analysis, "safety-comment");
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn unrelated_comment_above_does_not_count() {
        let src = "// reads the byte\nlet x = unsafe { *p };\n";
        assert_eq!(lint(src, PLAIN).len(), 1);
    }

    #[test]
    fn unsafe_in_string_or_comment_is_ignored() {
        let src = "let s = \"unsafe\"; // the word unsafe in prose\n";
        assert!(lint(src, PLAIN).is_empty());
    }

    #[test]
    fn unwrap_and_expect_flagged_only_in_protocol_scope() {
        let src = "fn f() { x.unwrap(); y.expect(\"reason\"); }\n";
        assert!(lint(src, PLAIN).is_empty());
        let f = lint(src, PROTO);
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|f| f.analysis == "no-unwrap"));
    }

    #[test]
    fn unwrap_or_variants_are_fine() {
        let src = "fn f() { x.unwrap_or(0); x.unwrap_or_else(id); x.unwrap_or_default(); \
                   r.expect_err(\"no\"); }\n";
        assert!(lint(src, PROTO).is_empty());
    }

    #[test]
    fn cfg_test_items_are_skipped() {
        let src = "
fn live() {}

#[cfg(test)]
mod tests {
    fn t() { x.unwrap(); let y = unsafe { *p }; std::thread::sleep(d); }
}
";
        assert!(lint(src, PROTO).is_empty());
    }

    #[test]
    fn code_after_a_test_mod_is_still_linted() {
        let src = "
#[cfg(test)]
mod tests { fn t() { x.unwrap(); } }

fn live() { y.unwrap(); }
";
        let f = lint(src, PROTO);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 5);
    }

    #[test]
    fn relaxed_and_sleep_flagged_in_protocol_scope() {
        let src = "fn f() { a.store(1, Ordering::Relaxed); std::thread::sleep(d); }\n";
        let f = lint(src, PROTO);
        assert_eq!(f.len(), 2);
        assert_eq!(f[0].analysis, "no-relaxed");
        assert_eq!(f[1].analysis, "no-sleep");
    }

    #[test]
    fn acquire_release_orderings_pass() {
        let src = "fn f() { a.store(1, Ordering::Release); b.load(Ordering::Acquire); }\n";
        assert!(lint(src, PROTO).is_empty());
    }

    #[test]
    fn todo_macros_flagged_only_in_protocol_scope() {
        let src =
            "fn f() { todo!(\"later\"); }\nfn g() { unimplemented!() }\nfn h() { dbg!(x); }\n";
        assert!(lint(src, PLAIN).is_empty());
        let f = lint(src, PROTO);
        assert_eq!(f.len(), 3);
        assert!(f.iter().all(|f| f.analysis == "no-todo"));
        assert_eq!((f[0].line, f[1].line, f[2].line), (1, 2, 3));
    }

    #[test]
    fn todo_word_without_bang_passes() {
        let src = "fn f() { let todo = 1; mark_todo(todo); } // TODO: prose is fine\n";
        assert!(lint(src, PROTO).is_empty());
    }

    #[test]
    fn todo_in_cfg_test_is_skipped() {
        let src = "#[cfg(test)]\nmod tests { fn t() { todo!(); dbg!(1); } }\n";
        assert!(lint(src, PROTO).is_empty());
    }

    #[test]
    fn cfg_feature_strings_do_not_trigger_test_skip() {
        let src = "#[cfg(feature = \"test-utils\")]\nfn f() { x.unwrap(); }\n";
        let f = lint(src, PROTO);
        assert_eq!(f.len(), 1, "feature strings are masked, not cfg(test)");
    }
}
