//! The group-size axis shared by the linear and affine differential
//! suites: every prefix of a query pool as one lane group, on every
//! runnable ISA, each lane against the scheme's oracle.

use genomedsm_kernels::{
    fits_i16_query, score_batch, score_group, GroupProfile, Isa, KernelChoice, Scheme,
};

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
