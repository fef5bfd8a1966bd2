//! The structural parse: items, fn bodies, and call sites.
//!
//! Built on [`crate::lexer::scan`], which blanks comments and
//! literal interiors while preserving byte offsets — so everything here
//! operates on *masked* source where every remaining byte is code. On
//! top of that surface this module recovers the structure the analyses
//! need: `fn` items with their body spans and owning `impl`/`trait`
//! type, `#[cfg(test)]` attribution, call sites (plain, method,
//! qualified, macro — with turbofish), and syntactic indexing sites.
//!
//! The parse is deliberately not a full grammar: brace/paren/bracket
//! balancing over masked code is exact for the constructs above, and
//! every consumer is an over-approximating analysis that tolerates the
//! places (macro bodies, const generics) where token-level structure is
//! all we have.

use crate::hygiene::test_spans;
use crate::lexer::{is_ident, scan, skip_balanced, skip_ws};
use std::ops::Range;
use std::path::PathBuf;

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Callee {
    /// `name(...)` — a free function in the caller's scope.
    Plain(String),
    /// `.name(...)` — a method on some receiver.
    Method(String),
    /// `Qual::name(...)` — the last two path segments, generics stripped.
    Qualified(String, String),
    /// `name!(...)` — a macro invocation.
    Macro(String),
}

impl Callee {
    /// The bare callee name (last path segment / macro name).
    pub fn name(&self) -> &str {
        match self {
            Callee::Plain(n) | Callee::Method(n) | Callee::Macro(n) => n,
            Callee::Qualified(_, n) => n,
        }
    }
}

/// One call site inside a fn body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Byte offset of the callee name in the masked file.
    pub at: usize,
    /// What is being called.
    pub callee: Callee,
    /// Argument text (whitespace-stripped) — captured only for the
    /// names the analyses inspect (`lock`, `drop`, `join`,
    /// the condvar `wait` family); empty otherwise.
    pub args: String,
    /// Number of top-level arguments at the call site (closure pipes
    /// skipped). Name resolution filters candidates by arity — an
    /// in-crate call always passes exactly the declared parameters.
    pub args_n: usize,
}

/// One `fn` item.
#[derive(Debug)]
pub struct FnItem {
    /// The fn's name.
    pub name: String,
    /// Owning `impl`/`trait` type name, if inside one.
    pub owner: Option<String>,
    /// Inside a `#[cfg(test)]` item.
    pub cfg_test: bool,
    /// Number of declared parameters, `self` excluded.
    pub params: usize,
    /// The first parameter is a `self` receiver.
    pub has_self: bool,
    /// Span from the `fn` keyword to the body's `{` (or the `;`).
    pub sig: Range<usize>,
    /// Body span including braces; `None` for bodyless trait methods.
    pub body: Option<Range<usize>>,
    /// Call sites attributed to this fn (innermost-body attribution).
    pub calls: Vec<CallSite>,
    /// Byte offsets of syntactic indexing (`expr[`).
    pub indexing: Vec<usize>,
}

impl FnItem {
    /// The signature declares a `MutexGuard` return — callers treat a
    /// call to this fn like an argless `.lock()`.
    pub fn returns_guard(&self, code: &str) -> bool {
        code.get(self.sig.clone())
            .is_some_and(|s| s.contains("MutexGuard"))
    }
}

/// One parsed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root.
    pub path: PathBuf,
    /// Short crate name (`dsm`, `serve`, …) the file belongs to.
    pub crate_name: String,
    /// Lives under a `tests/` directory (integration-test context).
    pub is_test_file: bool,
    /// Masked source (comments/literals blanked).
    pub code: String,
    /// Byte offsets of line starts, for offset→line conversion.
    line_starts: Vec<usize>,
    /// The fn items, ordered by signature start.
    pub fns: Vec<FnItem>,
}

impl SourceFile {
    /// 1-based line of byte offset `at`.
    pub fn line_of(&self, at: usize) -> usize {
        self.line_starts.partition_point(|&s| s <= at)
    }

    /// Index of the innermost fn whose body contains `at`.
    pub fn fn_at(&self, at: usize) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, f) in self.fns.iter().enumerate() {
            if let Some(body) = &f.body {
                if body.contains(&at)
                    && best.is_none_or(|b| {
                        self.fns[b]
                            .body
                            .as_ref()
                            .is_some_and(|bb| bb.start < body.start)
                    })
                {
                    best = Some(i);
                }
            }
        }
        best
    }
}

/// The identifier ending just before `end` (exclusive), if any.
fn ident_ending_at(bytes: &[u8], end: usize) -> Option<(usize, String)> {
    let mut start = end;
    while start > 0 && is_ident(bytes[start - 1]) {
        start -= 1;
    }
    if start == end || bytes[start].is_ascii_digit() {
        return None;
    }
    std::str::from_utf8(&bytes[start..end])
        .ok()
        .map(|s| (start, s.to_string()))
}

/// Whole-word occurrences of `word` (ASCII identifier bounds).
pub(crate) fn word_positions(code: &str, word: &str) -> Vec<usize> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while let Some(rel) = code.get(i..).and_then(|s| s.find(word)) {
        let at = i + rel;
        let end = at + word.len();
        let before_ok = at == 0 || !is_ident(bytes[at - 1]);
        let after_ok = end >= bytes.len() || !is_ident(bytes[end]);
        if before_ok && after_ok {
            out.push(at);
        }
        i = at + word.len().max(1);
    }
    out
}

/// `impl`/`trait` blocks: (type name, body span).
fn owner_spans(code: &str) -> Vec<(String, Range<usize>)> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    for kw in ["impl", "trait"] {
        for at in word_positions(code, kw) {
            // Header runs to the block's `{`; generics may nest.
            let mut i = at + kw.len();
            let mut angle = 0usize;
            while i < bytes.len() {
                match bytes[i] {
                    b'<' => angle += 1,
                    b'>' => angle = angle.saturating_sub(1),
                    b'{' if angle == 0 => break,
                    b'(' => i = skip_balanced(bytes, i, b'(', b')').saturating_sub(1),
                    b';' if angle == 0 => break, // e.g. `impl Trait` in a type position
                    _ => {}
                }
                i += 1;
            }
            if i >= bytes.len() || bytes[i] != b'{' {
                continue;
            }
            let Some(header) = code.get(at + kw.len()..i) else {
                continue;
            };
            let name = owner_name(header, kw == "trait");
            let end = skip_balanced(bytes, i, b'{', b'}');
            if let Some(name) = name {
                out.push((name, i..end));
            }
        }
    }
    out
}

/// Extracts the implemented type (or trait name) from an impl/trait
/// header: strips leading generics, takes the part after ` for ` when
/// present, then the last path segment with generics removed.
fn owner_name(header: &str, is_trait: bool) -> Option<String> {
    let mut h = header.trim();
    if let Some(rest) = h.strip_prefix('<') {
        // `impl<T: Bound> …` — drop the parameter list.
        let mut depth = 1usize;
        let mut cut = rest.len();
        for (i, c) in rest.char_indices() {
            match c {
                '<' => depth += 1,
                '>' => {
                    depth -= 1;
                    if depth == 0 {
                        cut = i + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        h = rest.get(cut..).unwrap_or("").trim();
    }
    if is_trait {
        let name: String = h
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        return (!name.is_empty()).then_some(name);
    }
    if let Some(pos) = h.find(" for ") {
        h = h.get(pos + 5..).unwrap_or("").trim();
    }
    // Last path segment, generics stripped.
    let h = h.split('<').next().unwrap_or(h).trim();
    let seg = h.rsplit("::").next().unwrap_or(h);
    let name: String = seg
        .trim_start_matches(['&', ' '])
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    (!name.is_empty()).then_some(name)
}

/// Splits a paren group starting at `open` into top-level segments.
/// Closure parameter pipes (`|a, b|` directly after `(`/`,`/`move`) are
/// skipped so their commas don't count as argument separators.
fn paren_segments(code: &str, open: usize) -> Vec<String> {
    let bytes = code.as_bytes();
    let end = skip_balanced(bytes, open, b'(', b')');
    let inner_start = open + 1;
    let inner_end = end.saturating_sub(1).max(inner_start);
    let mut segs = Vec::new();
    let mut depth = 0usize;
    let mut seg_start = inner_start;
    let mut i = inner_start;
    let mut arg_head = true; // at the start of an argument
    while i < inner_end {
        match bytes[i] {
            b'(' | b'[' | b'{' => {
                depth += 1;
                arg_head = false;
            }
            b')' | b']' | b'}' => depth = depth.saturating_sub(1),
            b',' if depth == 0 => {
                segs.push(code[seg_start..i].trim().to_string());
                seg_start = i + 1;
                arg_head = true;
            }
            b'|' if depth == 0 => {
                // Closure-open only at an argument head (possibly after
                // `move`); otherwise it's a bitwise/boolean operator.
                let is_closure = arg_head
                    || code[seg_start..i].trim() == "move"
                    || code[seg_start..i].trim().is_empty();
                if is_closure {
                    let mut j = i + 1;
                    let mut d2 = 0usize;
                    while j < inner_end {
                        match bytes[j] {
                            b'(' | b'[' | b'{' => d2 += 1,
                            b')' | b']' | b'}' => d2 = d2.saturating_sub(1),
                            b'|' if d2 == 0 => break,
                            _ => {}
                        }
                        j += 1;
                    }
                    i = j;
                }
                arg_head = false;
            }
            b if !b.is_ascii_whitespace() => arg_head = false,
            _ => {}
        }
        i += 1;
    }
    let last = code[seg_start..inner_end].trim();
    if !last.is_empty() {
        segs.push(last.to_string());
    }
    segs.retain(|s| !s.is_empty());
    segs
}

/// Is this parameter segment a `self` receiver (`self`, `&self`,
/// `&mut self`, `&'a self`, `mut self`, `self: …`)?
fn is_self_param(seg: &str) -> bool {
    let mut s = seg.trim().trim_start_matches('&').trim_start();
    if let Some(rest) = s.strip_prefix('\'') {
        s = rest.split_whitespace().next().map_or("", |_| {
            rest.find(char::is_whitespace)
                .map_or("", |i| rest[i..].trim_start())
        });
    }
    let s = s.strip_prefix("mut ").unwrap_or(s).trim_start();
    s == "self" || s.starts_with("self:") || s.starts_with("self ")
}

/// Keywords that look like `word (` but are not calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "as", "let", "else", "move", "fn",
    "unsafe", "where", "impl", "dyn",
];

/// Names whose argument text the analyses need.
const CAPTURE_ARGS: &[&str] = &["lock", "drop", "join", "wait", "wait_timeout", "wait_while"];

/// Parses one file. `crate_name` is the short crate directory name;
/// `is_test_file` marks integration-test context (everything cfg-test).
pub fn parse_file(path: PathBuf, crate_name: &str, is_test_file: bool, src: &str) -> SourceFile {
    let scanned = scan(src);
    let code = scanned.code;
    let bytes = code.as_bytes();
    let n = bytes.len();

    let mut line_starts = vec![0usize];
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'\n' {
            line_starts.push(i + 1);
        }
    }

    let owners = owner_spans(&code);
    let tests = test_spans(&code);
    let in_tests = |at: usize| tests.iter().any(|s| s.contains(&at));

    // Collect fn items.
    let mut fns: Vec<FnItem> = Vec::new();
    for at in word_positions(&code, "fn") {
        let mut i = skip_ws(bytes, at + 2);
        let Some(name_start) =
            (i < n && is_ident(bytes[i]) && !bytes[i].is_ascii_digit()).then_some(i)
        else {
            continue; // `fn(` pointer type
        };
        while i < n && is_ident(bytes[i]) {
            i += 1;
        }
        let Ok(name) = std::str::from_utf8(&bytes[name_start..i]) else {
            continue;
        };
        let name = name.to_string();
        i = skip_ws(bytes, i);
        // Generic parameter list.
        if i < n && bytes[i] == b'<' {
            let mut depth = 0usize;
            while i < n {
                match bytes[i] {
                    b'<' => depth += 1,
                    b'>' => {
                        depth -= 1;
                        if depth == 0 {
                            i += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
            i = skip_ws(bytes, i);
        }
        if i >= n || bytes[i] != b'(' {
            continue;
        }
        let param_segs = paren_segments(&code, i);
        let has_self = param_segs.first().is_some_and(|s| is_self_param(s));
        let params = param_segs.len() - usize::from(has_self);
        i = skip_balanced(bytes, i, b'(', b')');
        // Return type / where clause up to the body `{` or a `;`.
        let mut j = i;
        while j < n {
            match bytes[j] {
                b'{' => break,
                b';' => break,
                b'(' => j = skip_balanced(bytes, j, b'(', b')').saturating_sub(1),
                b'[' => j = skip_balanced(bytes, j, b'[', b']').saturating_sub(1),
                _ => {}
            }
            j += 1;
        }
        let body = (j < n && bytes[j] == b'{').then(|| j..skip_balanced(bytes, j, b'{', b'}'));
        let owner = owners
            .iter()
            .filter(|(_, span)| span.contains(&at))
            .max_by_key(|(_, span)| span.start)
            .map(|(name, _)| name.clone());
        fns.push(FnItem {
            name,
            owner,
            cfg_test: is_test_file || in_tests(at),
            params,
            has_self,
            sig: at..j,
            body,
            calls: Vec::new(),
            indexing: Vec::new(),
        });
    }
    fns.sort_by_key(|f| f.sig.start);

    let mut file = SourceFile {
        path,
        crate_name: crate_name.to_string(),
        is_test_file,
        code,
        line_starts,
        fns,
    };

    // Whole-file event scan, attributed to the innermost containing fn.
    let code = file.code.clone();
    let bytes = code.as_bytes();
    let mut i = 0usize;
    while i < n {
        let b = bytes[i];
        if is_ident(b) && (i == 0 || !is_ident(bytes[i - 1])) && !b.is_ascii_digit() {
            let start = i;
            while i < n && is_ident(bytes[i]) {
                i += 1;
            }
            let Ok(word) = std::str::from_utf8(&bytes[start..i]) else {
                continue;
            };
            if NON_CALL_KEYWORDS.contains(&word) {
                continue;
            }
            let word = word.to_string();
            let mut k = skip_ws(bytes, i);
            // Turbofish `name::<…>(`.
            if bytes.get(k) == Some(&b':') && bytes.get(k + 1) == Some(&b':') {
                let t = skip_ws(bytes, k + 2);
                if bytes.get(t) == Some(&b'<') {
                    let mut depth = 0usize;
                    let mut m = t;
                    while m < n {
                        match bytes[m] {
                            b'<' => depth += 1,
                            b'>' => {
                                depth -= 1;
                                if depth == 0 {
                                    m += 1;
                                    break;
                                }
                            }
                            _ => {}
                        }
                        m += 1;
                    }
                    k = skip_ws(bytes, m);
                } else {
                    // `name::next` — not a call of `name`; keep scanning
                    // (the final segment will be picked up on its own).
                    continue;
                }
            }
            let is_macro = bytes.get(k) == Some(&b'!');
            if is_macro {
                k = skip_ws(bytes, k + 1);
            }
            if bytes.get(k).copied() != Some(b'(')
                && !(is_macro && matches!(bytes.get(k).copied(), Some(b'[') | Some(b'{')))
            {
                continue;
            }
            // Argument capture for the names the analyses inspect.
            let args = if CAPTURE_ARGS.contains(&word.as_str()) && bytes.get(k) == Some(&b'(') {
                let end = skip_balanced(bytes, k, b'(', b')');
                code.get(k + 1..end.saturating_sub(1))
                    .unwrap_or("")
                    .split_whitespace()
                    .collect::<String>()
            } else {
                String::new()
            };
            let args_n = if !is_macro && bytes.get(k) == Some(&b'(') {
                paren_segments(&code, k).len()
            } else {
                0
            };
            // Qualifier: look immediately before the name.
            let callee = if is_macro {
                Callee::Macro(word)
            } else {
                let mut p = start;
                while p > 0 && bytes[p - 1].is_ascii_whitespace() {
                    p -= 1;
                }
                if p > 0 && bytes[p - 1] == b'.' {
                    Callee::Method(word)
                } else if p >= 2 && bytes[p - 1] == b':' && bytes[p - 2] == b':' {
                    let mut q = p - 2;
                    // Skip a generic arg list `<…>` between path segments.
                    while q > 0 && bytes[q - 1].is_ascii_whitespace() {
                        q -= 1;
                    }
                    if q > 0 && bytes[q - 1] == b'>' {
                        let mut depth = 0usize;
                        while q > 0 {
                            q -= 1;
                            match bytes[q] {
                                b'>' => depth += 1,
                                b'<' => {
                                    depth -= 1;
                                    if depth == 0 {
                                        break;
                                    }
                                }
                                _ => {}
                            }
                        }
                    }
                    match ident_ending_at(bytes, q) {
                        Some((_, qual)) => Callee::Qualified(qual, word),
                        None => Callee::Plain(word),
                    }
                } else {
                    Callee::Plain(word)
                }
            };
            if let Some(fi) = file.fn_at(start) {
                file.fns[fi].calls.push(CallSite {
                    at: start,
                    callee,
                    args,
                    args_n,
                });
            }
            continue;
        }
        // Syntactic indexing: `[` directly after an expression tail.
        if b == b'['
            && i > 0
            && (is_ident(bytes[i - 1]) || bytes[i - 1] == b')' || bytes[i - 1] == b']')
        {
            if let Some(fi) = file.fn_at(i) {
                file.fns[fi].indexing.push(i);
            }
        }
        i += 1;
    }

    file
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn parse(src: &str) -> SourceFile {
        parse_file(Path::new("x.rs").to_path_buf(), "dsm", false, src)
    }

    #[test]
    fn fn_items_with_owner_and_body() {
        let f = parse(
            "impl Node {\n    fn lockit(&self) { self.inner.go(); }\n}\nfn free() {}\n\
             trait T { fn decl(&self); }\n",
        );
        let names: Vec<_> = f
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.owner.as_deref()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("lockit", Some("Node")),
                ("free", None),
                ("decl", Some("T"))
            ]
        );
        assert!(f.fns[0].body.is_some());
        assert!(f.fns[2].body.is_none());
    }

    #[test]
    fn impl_trait_for_type_owner_is_the_type() {
        let f = parse("impl<T: Ord> fmt::Display for Wrapper<T> { fn fmt(&self) {} }\n");
        assert_eq!(f.fns[0].owner.as_deref(), Some("Wrapper"));
    }

    #[test]
    fn call_sites_classified() {
        let f = parse(
            "fn f(node: &N) {\n    helper();\n    node.lock(PAGE);\n    N::make(1);\n    \
             go::<u32>(2);\n    self.array::<4>();\n    vec![1, 2];\n    node.unlock(PAGE);\n}\n",
        );
        let calls: Vec<_> = f.fns[0].calls.iter().map(|c| c.callee.clone()).collect();
        assert!(calls.contains(&Callee::Plain("helper".into())));
        assert!(calls.contains(&Callee::Method("lock".into())));
        assert!(calls.contains(&Callee::Qualified("N".into(), "make".into())));
        assert!(calls.contains(&Callee::Plain("go".into())));
        assert!(calls.contains(&Callee::Method("array".into())));
        assert!(calls.contains(&Callee::Macro("vec".into())));
    }

    #[test]
    fn argless_lock_is_captured_with_empty_args() {
        let f = parse("fn f(&self) { let g = self.inner.lock(); g.touch(); }\n");
        assert!(f.fns[0]
            .calls
            .iter()
            .any(|c| c.callee == Callee::Method("lock".into()) && c.args.is_empty()));
    }

    #[test]
    fn indexing_detected_but_not_attributes_or_slices() {
        let f = parse(
            "#[derive(Debug)]\nfn f(v: &[u8]) -> u8 {\n    let a = v[0];\n    let b: [u8; 4] = \
             [0; 4];\n    let &[x, y] = pair else { return 0 };\n    a + b[1] + x + y\n}\n",
        );
        assert_eq!(f.fns[0].indexing.len(), 2, "{:?}", f.fns[0].indexing);
    }

    #[test]
    fn cfg_test_fns_are_marked() {
        let f = parse("fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n");
        assert!(!f.fns[0].cfg_test);
        assert!(f.fns[1].cfg_test);
    }

    #[test]
    fn innermost_attribution_for_nested_fns() {
        let f = parse("fn outer() {\n    fn inner() { deep(); }\n    shallow();\n}\n");
        let outer = &f.fns[0];
        let inner = &f.fns[1];
        assert_eq!(outer.name, "outer");
        assert!(outer.calls.iter().all(|c| c.callee.name() != "deep"));
        assert!(outer.calls.iter().any(|c| c.callee.name() == "shallow"));
        assert!(inner.calls.iter().any(|c| c.callee.name() == "deep"));
    }

    #[test]
    fn line_numbers_are_one_based() {
        let f = parse("fn a() {}\nfn b() { c(); }\n");
        let call = &f.fns[1].calls[0];
        assert_eq!(f.line_of(call.at), 2);
    }
}
