//! Whole-workspace static analysis for GenomeDSM: one lexer, one
//! workspace walker, one [`Finding`], one binary.
//!
//! A token-surface scanner ([`lexer`]) separates code from comments and
//! literals (the build is hermetic, so there is no `syn`). On top of it
//! sit a brace-aware, item-aware parse ([`parse`]) of every protocol
//! crate, an intra-crate call graph ([`callgraph`]), and four passes
//! that prove properties over *all* source — including paths no test
//! schedule has visited:
//!
//! * [`hygiene`] — token-level policy on every first-party `src/`:
//!   SAFETY comments on every `unsafe`, and in the
//!   [`PROTOCOL_CRATES`] no `unwrap()`/`expect()`, no
//!   `Ordering::Relaxed`, no `thread::sleep`, no
//!   `todo!`/`unimplemented!`/`dbg!`, all outside test code;
//! * [`blocking`] — calls that can block (`recv`, `join`, `wait`, …)
//!   reachable while a std `Mutex` guard is held;
//! * [`wire`] — every `Msg`/`Reply`/`Request`/`Response` variant and
//!   `TPT_*`/`REQ_*`/`RSP_*` tag must have an encode site, a decode
//!   site, and a handler match arm (no silently-dead variants);
//! * [`panics`] — indexing/`panic!`/`assert!`/`unwrap` reachable from
//!   the protocol decode entry points, reported with the call chain.
//!
//! Run it with `cargo run -p genomedsm-analyze` (CI runs it in the
//! `analyze` job). There is **no allowlist**: the workspace must be
//! clean, and seeded-bad fixtures under `fixtures/` prove each
//! structural analysis actually fires.

#![warn(missing_docs)]

pub mod blocking;
pub mod callgraph;
pub mod hygiene;
pub mod lexer;
pub mod panics;
pub mod parse;
pub mod wire;

use parse::SourceFile;
use std::fmt;
use std::path::{Path, PathBuf};

/// Crates the structural analyses cover (`src/` and `tests/`).
pub const SCOPE_CRATES: &[&str] = &["dsm", "strategies", "batch", "serve"];

/// Crates whose `src/` is subject to the protocol hygiene rules
/// (`no-unwrap`, `no-relaxed`, `no-sleep`, `no-todo`) in addition to
/// `safety-comment`, which applies to every first-party `src/`.
pub const PROTOCOL_CRATES: &[&str] = &["dsm", "strategies", "batch", "index", "serve"];

/// One analysis finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// File the finding is in (workspace-relative).
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Stable analysis slug (`blocking-while-locked`,
    /// `wire-exhaustiveness`, `panic-surface`) or hygiene rule slug
    /// (`safety-comment`, `no-unwrap`, …).
    pub analysis: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.analysis,
            self.message
        )
    }
}

/// The parsed model of every in-scope source file.
pub struct Model {
    /// All parsed files, in deterministic (sorted-path) order.
    pub files: Vec<SourceFile>,
    /// The name-resolution tables over `files`.
    pub graph: callgraph::CallGraph,
    /// What the [`hygiene`] rules found on the walk that built the model
    /// (empty for a model built from bare sources).
    pub hygiene: Vec<Finding>,
}

impl Model {
    /// Parses `sources` (workspace-relative path, crate name, text)
    /// into a model. Test context is inferred from the path.
    pub fn from_sources(sources: Vec<(PathBuf, String, String)>) -> Self {
        let mut files: Vec<SourceFile> = sources
            .into_iter()
            .map(|(path, crate_name, text)| {
                let is_test = path
                    .components()
                    .any(|c| c.as_os_str() == "tests" || c.as_os_str() == "benches");
                parse::parse_file(path, &crate_name, is_test, &text)
            })
            .collect();
        files.sort_by(|a, b| a.path.cmp(&b.path));
        let graph = callgraph::CallGraph::build(&files);
        Self {
            files,
            graph,
            hygiene: Vec::new(),
        }
    }

    /// Walks the workspace at `root` once: the root package's `src/` and
    /// every `crates/*/src` go through the [`hygiene`] rules (vendored
    /// shims, `tests/` and `benches/` are out of their scope), and the
    /// `src/` and `tests/` of each [`SCOPE_CRATES`] member are parsed for
    /// the structural analyses.
    ///
    /// # Errors
    /// Propagates I/O errors from walking or reading the tree.
    pub fn from_workspace(root: &Path) -> std::io::Result<Self> {
        // (directory, crate name); the root package goes by "".
        let mut crates: Vec<(PathBuf, String)> = std::fs::read_dir(root.join("crates"))?
            .filter_map(Result::ok)
            .filter(|e| e.path().is_dir())
            .map(|e| (e.path(), e.file_name().to_string_lossy().into_owned()))
            .collect();
        crates.sort();
        crates.insert(0, (root.to_path_buf(), String::new()));

        let mut hygiene = Vec::new();
        let mut structural = Vec::new();
        for (dir, name) in crates {
            let scope = hygiene::RuleScope {
                protocol: PROTOCOL_CRATES.contains(&name.as_str()),
            };
            let src = read_sources(root, &dir.join("src"), &name)?;
            for (path, _, text) in &src {
                hygiene.extend(hygiene::lint_source(path, text, scope));
            }
            if SCOPE_CRATES.contains(&name.as_str()) {
                structural.extend(src);
                structural.extend(read_sources(root, &dir.join("tests"), &name)?);
            }
        }
        let mut model = Self::from_sources(structural);
        model.hygiene = hygiene;
        Ok(model)
    }

    /// Runs every analysis and returns the sorted findings.
    pub fn analyze(&self) -> Vec<Finding> {
        let mut findings = self.hygiene.clone();
        findings.extend(blocking::findings(self));
        findings.extend(wire::findings(self));
        findings.extend(panics::findings(self));
        findings.sort_by(|a, b| (&a.file, a.line, a.analysis).cmp(&(&b.file, b.line, b.analysis)));
        findings
    }
}

/// Reads every `.rs` file under `dir` (if it exists) as a
/// (workspace-relative path, crate name, text) source triple.
fn read_sources(
    root: &Path,
    dir: &Path,
    crate_name: &str,
) -> std::io::Result<Vec<(PathBuf, String, String)>> {
    let mut files = Vec::new();
    if dir.is_dir() {
        rust_files(dir, &mut files)?;
    }
    files
        .into_iter()
        .map(|file| {
            let text = std::fs::read_to_string(&file)?;
            let rel = file.strip_prefix(root).unwrap_or(&file).to_path_buf();
            Ok((rel, crate_name.to_string(), text))
        })
        .collect()
}

/// Recursively collects `.rs` files under `dir` (sorted for determinism).
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Convenience for fixture tests: parse one file as the `src/` of a
/// pseudo-crate named `crate_name` and return the model.
pub fn model_of(path: &str, crate_name: &str, text: &str) -> Model {
    Model::from_sources(vec![(
        PathBuf::from(path),
        crate_name.to_string(),
        text.to_string(),
    )])
}
