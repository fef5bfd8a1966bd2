//! Every function `genomedsm-strategies` re-exports at its crate root
//! must have a caller in the program: the CLI and facade (`src/`), the
//! `paper` harness (`crates/bench/src/`) or the benchmark
//! (`perfbench/src/`). An entry point only its own tests reach is an
//! orphan — it keeps type parameters and dependencies alive for nobody.

use std::fs;
use std::path::{Path, PathBuf};

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("read {}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// The file's code: comment-only lines dropped.
fn code_of(path: &Path) -> String {
    let text = fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let code = text.lines().filter(|l| !l.trim_start().starts_with("//"));
    code.collect::<Vec<_>>().join("\n")
}

/// Whether `code` holds `word` as a whole identifier followed by one of
/// `next`: `(` makes it a call, `(` or `<` after `pub fn ` a definition.
fn mentions(code: &str, word: &str, next: &[char]) -> bool {
    code.match_indices(word).any(|(at, _)| {
        let ident = |c: char| c.is_alphanumeric() || c == '_';
        !code[..at].ends_with(ident) && code[at + word.len()..].starts_with(next)
    })
}

/// The `(module, item)` pairs of the `pub use module::…;` statements.
fn reexports(lib: &str) -> Vec<(String, String)> {
    let mut pairs = Vec::new();
    for statement in lib.split("pub use ").skip(1) {
        let statement = &statement[..statement.find(';').expect("unterminated `pub use`")];
        let Some((module, items)) = statement.split_once("::") else {
            continue; // a whole-crate re-export names no item
        };
        let items = items.trim().trim_start_matches('{').trim_end_matches('}');
        for item in items.split(',').map(str::trim).filter(|i| !i.is_empty()) {
            pairs.push((module.trim().to_string(), item.to_string()));
        }
    }
    pairs
}

#[test]
fn every_reexported_strategy_fn_has_a_caller_in_the_program() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let strategies = root.join("crates/strategies/src");
    let exported = reexports(&code_of(&strategies.join("lib.rs")));
    let fns: Vec<&(String, String)> = exported
        .iter()
        .filter(|(module, item)| {
            let source = code_of(&strategies.join(format!("{module}.rs")));
            mentions(&source, &format!("pub fn {item}"), &['(', '<'])
        })
        .collect();
    assert!(
        fns.len() >= 4,
        "suspiciously few re-exported fns ({}) — parser broken?",
        fns.len()
    );

    let mut program = Vec::new();
    for dir in ["src", "crates/bench/src", "perfbench/src"] {
        rust_files(&root.join(dir), &mut program);
    }
    let program: Vec<String> = program.iter().map(|path| code_of(path)).collect();
    let orphans: Vec<String> = fns
        .iter()
        .filter(|(_, item)| !program.iter().any(|code| mentions(code, item, &['('])))
        .map(|(module, item)| format!("{module}::{item}"))
        .collect();
    assert!(
        orphans.is_empty(),
        "re-exported by genomedsm-strategies but called from nowhere under src/, \
         crates/bench/src/ or perfbench/src/ — delete them or give them a caller: {orphans:?}"
    );
}
