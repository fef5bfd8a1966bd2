//! The axes shared by the linear and affine differential suites. Lane
//! width: one pair through the per-pair ladder on every runnable ISA,
//! asserting the oracle's answer *and* the rung that produced it. Group
//! size and group width: every prefix of a query pool as one lane group,
//! up to the widest group the scheme allows, on every runnable ISA, each
//! lane against the scheme's oracle and each record against the rung
//! (`i8`, or `i8` re-run at `i16`) its scores call for.

// Each suite uses its own subset.
#![allow(dead_code)]

use genomedsm_kernels::{
    effective_lanes, fits_i16_query, group_lanes, score_batch, score_group, GroupProfile, Isa,
    KernelChoice, LinearSwResult, Rung, Scheme, StripedKernel,
};

/// The highest score an `i8` lane answers for itself; a record on which
/// some member of an `i8` group scores more is re-run at `i16`.
pub const I8_CEILING: i32 = 120;

/// Ragged query lengths for the group-size sweeps: 32 picked by hand,
/// then the same lengths again in a stride-7 order. 129 of them fill two
/// of the widest groups (64 members on `i8` lanes, on AVX-512) and leave
/// one query over.
pub const RAGGED: [usize; 129] = {
    const PICKED: [usize; 32] = [
        40, 3, 17, 1, 29, 8, 33, 12, 5, 21, 2, 37, 9, 26, 14, 6, 31, 4, 19, 11, 36, 7, 24, 15, 2,
        28, 10, 35, 13, 22, 1, 18,
    ];
    let mut lens = [0; 129];
    let mut i = 0;
    while i < 129 {
        lens[i] = if i < 32 {
            PICKED[i]
        } else {
            PICKED[(7 * i + 3) % 32]
        };
        i += 1;
    }
    lens
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

/// How many groups of a sweep ran in each layout and width, and how many
/// of the narrow groups' records were re-run at `i16`.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Layouts {
    pub striped: usize,
    pub packed: usize,
    pub narrow: usize,
    pub reruns: u64,
}

/// Builds `pool[..g]` as one [`GroupProfile`] for every `g` up to the
/// widest group `scheme` allows on every ISA this host runs — twice the
/// `i16` lane count where the scheme fits `i8` lanes — and scores it
/// against each target in turn: the same profile, so state left over from
/// one target would show in the next. A group wider than one `i16` vector
/// must run on `i8` lanes and re-run a record at `i16` exactly when some
/// member's oracle score passes [`I8_CEILING`]. A group is refused only
/// when a member is past the i16 envelope; `score_batch` must then spill
/// exactly that member. Last, the whole pool goes through `score_batch`:
/// full groups and a tail, each query against the oracle.
pub fn sweep_group_sizes<S: Scheme>(
    pool: &[&[u8]],
    targets: &[&[u8]],
    scheme: &S,
    threshold: i32,
) -> Layouts {
    let mut seen = Layouts::default();
    let widening =
        group_lanes(KernelChoice::Simd, scheme) / effective_lanes(KernelChoice::Simd).max(1);
    for isa in Isa::ALL.into_iter().filter(|isa| isa.available()) {
        for g in 1..=(widening * isa.lanes()).min(pool.len()) {
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
            let narrow = g > isa.lanes();
            assert_eq!(group.is_narrow(), narrow, "{} g={g}", isa.name());
            if narrow {
                seen.narrow += 1;
            } else if group.is_striped() {
                seen.striped += 1;
            } else {
                seen.packed += 1;
            }
            for t in targets {
                let before = group.reruns();
                let got = score_group(&mut group, t, threshold);
                assert_eq!(got.len(), g);
                let mut saturates = false;
                for (lane, (q, r)) in qs.iter().zip(got).enumerate() {
                    let want = scheme.oracle(q, t, threshold);
                    saturates |= want.best_score > I8_CEILING;
                    assert_eq!(
                        r,
                        want,
                        "{} g={g} lane {lane} striped={} narrow={narrow} (|q|={} |t|={} thr={threshold})",
                        isa.name(),
                        group.is_striped(),
                        q.len(),
                        t.len()
                    );
                }
                let reran = group.reruns() - before;
                assert_eq!(
                    reran,
                    u64::from(narrow && saturates),
                    "{} g={g} |t|={}: the record's rung",
                    isa.name(),
                    t.len()
                );
                seen.reruns += reran;
            }
        }
    }
    for t in targets {
        let got = score_batch(KernelChoice::Simd, pool, t, scheme, threshold);
        for (i, (q, r)) in pool.iter().zip(got).enumerate() {
            assert_eq!(
                r,
                scheme.oracle(q, t, threshold),
                "pool member {i} of {}",
                pool.len()
            );
        }
    }
    seen
}
