//! The axes shared by the linear and affine differential suites. Lane
//! width: one pair through the per-pair ladder on every runnable ISA,
//! asserting the oracle's answer *and* the rung that produced it. Group
//! size: every prefix of a query pool as one lane group, on every runnable
//! ISA, each lane against the scheme's oracle.

// Each suite uses its own subset.
#![allow(dead_code)]

use genomedsm_kernels::{
    fits_i16_query, score_batch, score_group, GroupProfile, Isa, KernelChoice, LinearSwResult,
    Rung, Scheme, StripedKernel,
};

/// The striped kernel of every ISA this host runs.
pub fn engines() -> Vec<StripedKernel> {
    Isa::ALL
        .into_iter()
        .filter_map(StripedKernel::new)
        .collect()
}

/// Scores one pair through the per-pair ladder on every engine. Each must
/// return the oracle's result, and from the rung the data calls for: `I16`
/// when no cell passes 32 000 — whatever the dimensions would have allowed
/// — `I32` when one does, `Scalar` for an empty side or a scheme without a
/// [`Scheme::column_cap`]. Returns the oracle's result and that rung.
pub fn check_ladder<S: Scheme>(
    s: &[u8],
    t: &[u8],
    scheme: &S,
    threshold: i32,
) -> (LinearSwResult, Rung) {
    let oracle = scheme.oracle(s, t, threshold);
    let want = if s.is_empty() || t.is_empty() || scheme.column_cap().is_none() {
        Rung::Scalar
    } else if oracle.best_score <= 32_000 {
        Rung::I16
    } else {
        Rung::I32
    };
    for kernel in engines() {
        let (got, rung) = kernel.score_under(s, t, scheme, threshold);
        let what = format!(
            "{} on |s|={} |t|={} thr={threshold}",
            kernel.isa().name(),
            s.len(),
            t.len()
        );
        assert_eq!(got, oracle, "{what}");
        assert_eq!(rung, want, "{what}: best score {}", oracle.best_score);
    }
    (oracle, want)
}

/// How many groups of a sweep ran in each layout.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Layouts {
    pub striped: usize,
    pub packed: usize,
}

/// Builds `pool[..g]` as one [`GroupProfile`] for every `g` up to the lane
/// count of every ISA this host runs, and scores it against each target in
/// turn — the same profile, so state left over from one target would show
/// in the next. A group is refused only when a member is past the i16
/// envelope; `score_batch` must then spill exactly that member.
pub fn sweep_group_sizes<S: Scheme>(
    pool: &[&[u8]],
    targets: &[&[u8]],
    scheme: &S,
    threshold: i32,
) -> Layouts {
    let mut seen = Layouts::default();
    for isa in Isa::ALL.into_iter().filter(|isa| isa.available()) {
        for g in 1..=isa.lanes().min(pool.len()) {
            let qs = &pool[..g];
            let Some(mut group) = GroupProfile::new(qs, scheme, isa) else {
                assert!(
                    qs.iter().any(|q| !fits_i16_query(q.len(), scheme)),
                    "{} refused an admissible group of {g}",
                    isa.name()
                );
                for t in targets {
                    let got = score_batch(KernelChoice::Simd, qs, t, scheme, threshold);
                    for (lane, (q, r)) in qs.iter().zip(got).enumerate() {
                        assert_eq!(r, scheme.oracle(q, t, threshold), "spill g={g} lane {lane}");
                    }
                }
                continue;
            };
            if group.is_striped() {
                seen.striped += 1;
            } else {
                seen.packed += 1;
            }
            for t in targets {
                let got = score_group(&mut group, t, threshold);
                assert_eq!(got.len(), g);
                for (lane, (q, r)) in qs.iter().zip(got).enumerate() {
                    assert_eq!(
                        r,
                        scheme.oracle(q, t, threshold),
                        "{} g={g} lane {lane} striped={} (|q|={} |t|={} thr={threshold})",
                        isa.name(),
                        group.is_striped(),
                        q.len(),
                        t.len()
                    );
                }
            }
        }
    }
    seen
}
