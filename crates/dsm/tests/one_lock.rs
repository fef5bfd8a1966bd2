//! The one-lock rule: a worker holds at most one DSM lock, so no two
//! workers can each wait for a lock the other holds. `Node::lock`
//! refuses a second acquisition with a panic in every build, release
//! included (`cargo test --release -p genomedsm-dsm --test one_lock`).

use genomedsm_dsm::{DsmConfig, DsmSystem, Node, SupervisionConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// Runs `script` on node 0 of a supervised two-node cluster (node 1
/// manages the odd locks) and returns the run's panic message, if any.
fn panic_of(script: fn(&mut Node)) -> Option<String> {
    let config = DsmConfig::new(2).supervise(SupervisionConfig {
        enabled: true,
        detect_after: Duration::from_millis(40),
    });
    let run = catch_unwind(AssertUnwindSafe(|| {
        DsmSystem::run(config, |node| {
            if node.id() == 0 {
                script(node);
            }
        })
    }));
    let payload = run.err()?;
    let text = payload.downcast_ref::<String>().cloned();
    Some(text.unwrap_or_else(|| format!("{payload:?}")))
}

/// The `file:line` call sites in `message` that lie in this file.
fn sites_here(message: &str) -> Vec<&str> {
    message
        .split_whitespace()
        .filter(|w| w.contains(file!()))
        .collect()
}

#[test]
fn a_worker_holds_at_most_one_dsm_lock() {
    // (row, script, fragments of the refusal; None = runs to the end)
    type Row = (&'static str, fn(&mut Node), Option<[&'static str; 2]>);
    let rows: [Row; 5] = [
        (
            "re-locking the held lock",
            |node| {
                node.lock(1);
                node.lock(1);
            },
            Some(["acquired lock 1", "while holding lock 1"]),
        ),
        (
            "locking a second lock",
            |node| {
                node.lock(1);
                node.lock(2);
            },
            Some(["acquired lock 2", "while holding lock 1"]),
        ),
        (
            "unlocking a lock other than the held one",
            |node| {
                node.lock(1);
                node.unlock(2);
            },
            Some(["released lock 2", "does not hold"]),
        ),
        (
            "lock, unlock, lock another",
            |node| {
                node.lock(1);
                node.unlock(1);
                node.lock(2);
                node.unlock(2);
            },
            None,
        ),
        (
            "fail-stop holding a lock, rejoin, lock again",
            |node| {
                node.lock(1);
                node.fail_stop();
                node.rejoin(Duration::from_millis(10), node.round(), 0);
                node.lock(3);
                node.unlock(3);
            },
            None,
        ),
    ];
    let mut wrong = Vec::new();
    for (row, script, refusal) in rows {
        let message = panic_of(script);
        let right = match (refusal, &message) {
            (None, None) => true,
            (Some(fragments), Some(text)) => {
                let sites = sites_here(text);
                fragments.iter().all(|f| text.contains(f))
                    && (!text.contains("while holding") || sites.len() == 2 && sites[0] != sites[1])
            }
            _ => false,
        };
        if !right {
            wrong.push(format!("{row}: expected {refusal:?}, got {message:?}"));
        }
    }
    assert!(wrong.is_empty(), "{wrong:#?}");
}
