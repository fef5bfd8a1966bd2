//! Affine-gap (Gotoh) scoring as a [`Scheme`]: the protein path's two
//! column kernels and its admission rule — everything around them
//! (profiles, drivers, batching, ISA dispatch) is the shared skeleton.
//!
//! The linear-gap kernels in [`crate::engine`]/[`crate::batch`] collapse
//! the horizontal gap state (`E[i][j] = H[i][j-1] - gap` exactly). With
//! affine penalties that shortcut is gone: the recurrence carries two
//! extra states per element,
//!
//! ```text
//! E[i][j] = max(E[i][j-1] + ge, H[i][j-1] + go)   (gap in the query)
//! F[i][j] = max(F[i-1][j] + ge, H[i-1][j] + go)   (gap in the target)
//! H[i][j] = max(0, H[i-1][j-1] + s(q_i, t_j), E[i][j], F[i][j])
//! ```
//!
//! with `go`/`ge` the (negative) open/extend penalties and `s` a full
//! substitution matrix ([`MatrixScoring`]). One column function per
//! layout, each mirroring its linear counterpart:
//!
//! * **Striped** (one query across all lanes, SSW-style): the `E` values
//!   live in a per-element striped buffer written one column ahead; `F`
//!   runs down the column and crosses stripe boundaries through a lazy
//!   correction loop. The affine lazy loop continues while any lane has
//!   `F > H - go` — strictly longer than the linear kernel's `F > H`
//!   test, because an `F` chain that cannot raise this element's `H` may
//!   still beat *re-opening* a gap below it. Whenever the loop raises an
//!   `H`, it also refreshes the stored `E` (`E ← max(E, H_new + go)`),
//!   which restores the exact Gotoh `E` for the next column: the main
//!   loop already folded in `E + ge` and the old `H + go`, and the
//!   raised `H` only adds the third candidate. Propagating the chain as
//!   `F - ge` alone is complete because admission requires
//!   `gap_open <= gap_extend`, so extending an existing gap dominates
//!   re-opening from any lazily-raised `H` (which equals that same `F`).
//! * **Packed** (a different query per lane, batch-style): lanes are
//!   independent alignments, so `F` is computed exactly on the way down
//!   the rows — no lazy loop at all. Only the extra `E` buffer is new.
//!
//! Exactness: a pass over these columns is bit-identical to
//! [`sw_score_profile`] (score, row-major-first end point tie-break,
//! threshold hit count) whenever no `H` it writes exceeds the lane
//! width's ceiling — known beforehand for what [`crate::fits_i16_query`]
//! admits (the batch path at `i16`), checked afterwards by the per-pair
//! ladder, which re-runs on `i32` lanes what saturated `i16`, and by
//! [`crate::GroupProfile`], which re-runs on `i16` lanes the records whose
//! packed `i8` pass saturated (see [`crate::engine`]). `E`/`F` values that
//! saturate toward the type's minimum need no check: they are already
//! dominated by the `H + go` re-open branch (`>= -28 000`, or `>= -120`
//! for a scheme the `i8` rung takes) everywhere they are consumed.

use crate::batch::{refill, PackedState, Strip};
use crate::engine::{Elem, Engine, StripedState};
use crate::profile::{Scheme, I16_PARAM_CEILING};
use genomedsm_core::linear::LinearSwResult;
use genomedsm_core::submat::MatrixScoring;
use genomedsm_core::sw_score_profile;

/// Gap state of one affine pass: both penalties as positive lane values,
/// the per-element `E` column, written one target column ahead, and a
/// packed pass's `F` edge.
pub struct AffineGap<T> {
    go: T,
    ge: T,
    pe: Vec<T>,
    /// Per target column, `F` of the row above the current strip
    /// (`columns * lanes`; packed passes only): `NEG_INF` before the
    /// first strip, then each strip's last row.
    fe: Vec<T>,
}

impl Scheme for MatrixScoring {
    type Gap<T: Elem> = AffineGap<T>;

    #[inline(always)]
    fn subst(&self, q: u8, c: u8) -> i16 {
        self.matrix.score(q, c)
    }

    fn column_cap(&self) -> Option<i32> {
        // Both penalties negative; open at least as costly as extend
        // (signed `gap_open <= gap_extend`) — the affine lazy-F loop's
        // "extension dominates re-opening" argument requires it, and every
        // standard protein scheme satisfies it.
        let gaps_ok = self.gap_extend < 0 && self.gap_open <= self.gap_extend;
        // Every parameter must stay clear of the padding sentinel, and the
        // matrix offer a positive score somewhere (otherwise every result is
        // the zero result and the scalar oracle is free anyway).
        let maxs = i32::from(self.matrix.max_score());
        (gaps_ok && maxs > 0 && self.param_bound() <= I16_PARAM_CEILING).then_some(maxs)
    }

    fn param_bound(&self) -> u32 {
        [
            self.gap_open,
            self.gap_extend,
            i32::from(self.matrix.max_score()),
            i32::from(self.matrix.min_score()),
        ]
        .map(i32::unsigned_abs)
        .into_iter()
        .max()
        .unwrap_or(0)
    }

    fn oracle(&self, s: &[u8], t: &[u8], threshold: i32) -> LinearSwResult {
        sw_score_profile(s, t, self, threshold)
    }

    fn gap_state<T: Elem>(&self, cells: usize) -> AffineGap<T> {
        // E entering the first real column is exactly `gap_open` for every
        // element (opened from the zero boundary column).
        AffineGap {
            go: T::from_i32(-self.gap_open),
            ge: T::from_i32(-self.gap_extend),
            pe: vec![T::from_i32(self.gap_open); cells],
            fe: Vec::new(),
        }
    }

    fn reset_gap<T: Elem>(&self, gap: &mut AffineGap<T>, cells: usize) {
        gap.pe.clear();
        gap.pe.resize(cells, T::from_i32(self.gap_open));
    }

    fn reset_edge<T: Elem>(&self, gap: &mut AffineGap<T>, cells: usize) {
        refill(&mut gap.fe, cells, T::NEG_INF);
    }

    // SAFETY: same contract as `affine_column`, which the caller upholds.
    #[inline(always)]
    unsafe fn striped_column<E: Engine>(
        gap: &mut AffineGap<E::T>,
        st: &mut StripedState<E::T>,
        row: &[E::T],
    ) {
        affine_column::<E>(st, &mut gap.pe, row, gap.go, gap.ge)
    }

    // SAFETY: same contract as `packed_affine_column`, which the caller upholds.
    #[inline(always)]
    unsafe fn packed_column<E: Engine>(
        gap: &mut AffineGap<E::T>,
        st: &mut PackedState<E::T>,
        j: usize,
        row: &[E::T],
        strip: &mut Strip<'_, E>,
    ) {
        packed_affine_column::<E>(st, gap, j, row, strip)
    }
}

/// Computes one target column of the affine recurrence into `st.ch`,
/// updating the striped `E` buffer `pe` in place for the next column.
///
/// On entry `pe[q]` holds `E[q][j]` (written while processing column
/// `j-1`; initialized to `gap_open` before the first column, which is the
/// exact `E[q][1]` from the zero boundary column). On exit `st.ch` holds
/// the exact `H[.][j]` and `pe` the exact `E[.][j+1]`.
///
/// # Safety
/// The caller must guarantee the engine's ISA is available on the running
/// CPU (or call this through a `#[target_feature]` wrapper), and `st`,
/// `pe`, and `prof_row` must all be striped for `E::LANES` lanes with `p`
/// stripes.
#[inline(always)]
unsafe fn affine_column<E: Engine>(
    st: &mut StripedState<E::T>,
    pe: &mut [E::T],
    prof_row: &[E::T],
    go: E::T,
    ge: E::T,
) {
    let p = st.p;
    let l = E::LANES;
    debug_assert_eq!(l, st.lanes);
    debug_assert_eq!(prof_row.len(), p * l);
    debug_assert_eq!(pe.len(), p * l);
    let vgo = E::splat(go);
    let vge = E::splat(ge);
    let vzero = E::splat(E::T::ZERO);
    let mut vf = E::splat(E::T::NEG_INF);
    // Diagonal feed for stripe 0: last stripe of the previous column,
    // rotated one lane, with the zero top-left boundary in lane 0.
    let mut vh = E::shift_in(E::load(st.ph.as_ptr().add((p - 1) * l)), E::T::ZERO);
    for k in 0..p {
        let off = k * l;
        let ve = E::load(pe.as_ptr().add(off));
        vh = E::adds(vh, E::load(prof_row.as_ptr().add(off)));
        vh = E::max(vh, ve);
        vh = E::max(vh, vf);
        vh = E::max(vh, vzero);
        E::store(st.ch.as_mut_ptr().add(off), vh);
        // E for the next column: extend, or re-open from this H.
        E::store(
            pe.as_mut_ptr().add(off),
            E::max(E::subs(ve, vge), E::subs(vh, vgo)),
        );
        // F down the column: extend, or open from this H.
        vf = E::max(E::subs(vf, vge), E::subs(vh, vgo));
        vh = E::load(st.ph.as_ptr().add(off));
    }
    // Affine lazy F: the vertical chain crossing the stripe-0 boundary.
    // Continue while F could still beat a re-opened gap (`F > H - go`);
    // the boundary value entering element 0 is the zero row's `0 + go`,
    // which can never pass that test — NEG_INF stands in for it. Each
    // pass raises H where F wins and refreshes the stored E from the
    // raised H; the chain itself advances as `F - ge` only, which is
    // complete because `go >= ge` makes extension dominate re-opening
    // from a lazily-raised H (that H *is* this F). Termination: F drops
    // by `ge >= 1` per stripe while `H - go >= -go` is fixed from below.
    vf = E::shift_in(vf, E::T::NEG_INF);
    let mut k = 0;
    loop {
        let off = k * l;
        let cur = E::load(st.ch.as_ptr().add(off));
        if E::gt_bytes(vf, E::subs(cur, vgo)) == 0 {
            break;
        }
        let raised = E::max(cur, vf);
        E::store(st.ch.as_mut_ptr().add(off), raised);
        E::store(
            pe.as_mut_ptr().add(off),
            E::max(E::load(pe.as_ptr().add(off)), E::subs(raised, vgo)),
        );
        vf = E::subs(vf, vge);
        k += 1;
        if k == p {
            k = 0;
            vf = E::shift_in(vf, E::T::NEG_INF);
        }
    }
}

/// Column `j` of one strip of the packed affine recurrence. Lanes are
/// independent alignments, so `F` is exact on the way down the rows,
/// entering from the carried `F` and `H` edges: over the first strip
/// `max(NEG_INF + ge, 0 + go) = go`, precisely the open-from-the-zero-row
/// value.
///
/// # Safety
/// Same contract as the linear `packed_column`: the engine's ISA must be
/// enabled, `st`/`gap.pe`/`prof_row` packed for `E::LANES` lanes with the
/// strip's rows, and both edges hold more than `j` columns.
#[inline(always)]
unsafe fn packed_affine_column<E: Engine>(
    st: &mut PackedState<E::T>,
    gap: &mut AffineGap<E::T>,
    j: usize,
    prof_row: &[E::T],
    strip: &mut Strip<'_, E>,
) {
    let l = E::LANES;
    let vzero = E::splat(E::T::ZERO);
    let vgo = E::splat(gap.go);
    let vge = E::splat(gap.ge);
    let pe = gap.pe.as_mut_ptr();
    let (edge, fedge) = (
        st.edge.as_mut_ptr().add(j * l),
        gap.fe.as_mut_ptr().add(j * l),
    );
    let mut diag = strip.corner; // H[i-1][j-1]
    let mut up_h = E::load(edge); // H[i-1][j]
    let mut vf = E::load(fedge); // F[i-1][j]
    strip.corner = up_h;
    for i in 0..strip.rows() {
        let off = i * l;
        let left = E::load(st.ph.as_ptr().add(off)); // H[i][j-1]
        let ve = E::load(pe.add(off)); // E[i][j]
        vf = E::max(E::subs(vf, vge), E::subs(up_h, vgo)); // F[i][j]
        let mut vh = E::adds(diag, E::load(prof_row.as_ptr().add(off)));
        vh = E::max(vh, ve);
        vh = E::max(vh, vf);
        vh = E::max(vh, vzero);
        E::store(st.ch.as_mut_ptr().add(off), vh);
        strip.row(st, i, vh);
        E::store(pe.add(off), E::max(E::subs(ve, vge), E::subs(vh, vgo)));
        diag = left;
        up_h = vh;
    }
    E::store(edge, up_h);
    E::store(fedge, vf);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::StripedGroup;
    use crate::profile::StripedProfile;
    use crate::{
        fits_i16_affine, score_batch, score_batch_packed_affine, Isa, KernelChoice,
        PackedAffineProfile,
    };
    use genomedsm_core::submat::SubstMatrix;

    fn bl62() -> MatrixScoring {
        MatrixScoring::blosum62()
    }

    /// The striped pass on `isa`, through the one dispatch, at both lane
    /// widths (which must agree: nothing here comes near either ceiling).
    fn striped(isa: Isa, s: &[u8], t: &[u8], ms: &MatrixScoring, threshold: i32) -> LinearSwResult {
        let mut narrow = StripedGroup::<_, i16>::new(&[s], ms, isa).score(t, threshold);
        let wide = StripedGroup::<_, i32>::new(&[s], ms, isa).score(t, threshold);
        assert_eq!(narrow, wide, "{}: i16 and i32 lanes disagree", isa.name());
        narrow.swap_remove(0)
    }

    fn oracle_each(
        queries: &[&[u8]],
        t: &[u8],
        ms: &MatrixScoring,
        thr: i32,
    ) -> Vec<LinearSwResult> {
        queries
            .iter()
            .map(|q| sw_score_profile(q, t, ms, thr))
            .collect()
    }

    #[test]
    fn striped_profile_rows_match_matrix() {
        let ms = bl62();
        let s = b"MKVLAWQHKRW";
        let mut prof = StripedProfile::<_, i16>::new(s, &ms, 4);
        for c in [b'W', b'A', b'X', b'*'] {
            let row: Vec<i16> = prof.row(c).to_vec();
            for (q, &sc) in s.iter().enumerate() {
                assert_eq!(row[prof.index_of(q)], ms.matrix.score(sc, c), "q={q} c={c}");
            }
        }
    }

    #[test]
    fn striped_affine_matches_oracle_every_engine() {
        let ms = bl62();
        let s = b"MKVLAWQHKRWCEWLTNHGGAVDSTRQEFFPK";
        let t = b"GAVDSMKVLAWQHKRWTTTRQEFFPKAWQHK";
        assert!(fits_i16_affine(s.len(), t.len(), &ms));
        for thr in [0, 1, 5, i32::MAX] {
            let want = sw_score_profile(s, t, &ms, thr);
            for isa in Isa::ALL {
                if !isa.available() {
                    continue;
                }
                let got = striped(isa, s, t, &ms, thr);
                assert_eq!(got, want, "isa {} thr {thr}", isa.name());
            }
        }
    }

    #[test]
    fn packed_affine_matches_oracle_on_a_ragged_pack() {
        let ms = bl62();
        let queries: Vec<&[u8]> = vec![
            b"MKVLAWQHKRWCEWLTNHGG",
            b"",
            b"W",
            b"GAVDSTRQEFFPK",
            b"AWQHKAWQHKAWQHKAWQHKAWQHK",
            b"CCCCCCCC",
        ];
        let t = b"GAVDSMKVLAWQHKRWTTTRQEFFPKAWQHKWCEWLTN";
        for thr in [0, 1, 4, i32::MAX] {
            let want = oracle_each(&queries, t, &ms, thr);
            for isa in Isa::ALL {
                if !isa.available() {
                    continue;
                }
                let mut prof = PackedAffineProfile::new(&queries, &ms, isa).unwrap();
                let got = score_batch_packed_affine(&mut prof, t, thr);
                assert_eq!(got, want, "isa {} thr {thr}", isa.name());
            }
        }
    }

    #[test]
    fn packed_affine_profile_reuse_across_targets_stays_exact() {
        let ms = bl62();
        let queries: Vec<&[u8]> = vec![b"MKVLAWQHKR", b"GAVDSTRQEF", b"WCEWLTNHGGAV"];
        let targets: [&[u8]; 3] = [b"AWQHKRWCEWLTNHGGAVDSTRQ", b"MKVL", b""];
        let mut prof = PackedAffineProfile::new(&queries, &ms, Isa::Portable).unwrap();
        for t in targets {
            assert_eq!(
                score_batch_packed_affine(&mut prof, t, 2),
                oracle_each(&queries, t, &ms, 2)
            );
        }
    }

    #[test]
    fn score_batch_spills_oversized_affine_queries_to_scalar() {
        let ms = bl62();
        // 40k residues exceed the i16 ceiling (40_000 * 11 cells); the
        // big query must fall back while its neighbours stay packed.
        let long = vec![b'W'; 40_000];
        let queries: Vec<&[u8]> = vec![b"MKVLAWQ", &long, b"GAVD"];
        let t = vec![b'W'; 500];
        let want = oracle_each(&queries, &t, &ms, 1);
        for choice in [KernelChoice::Scalar, KernelChoice::Simd, KernelChoice::Auto] {
            let got = score_batch(choice, &queries, &t, &ms, 1);
            assert_eq!(got, want, "choice {choice}");
        }
        // The per-pair ladder knows the target: 500 * 11 fits i16 lanes.
        let per_pair = crate::kernel_for(KernelChoice::Simd).score_affine_on(&long, &t, &ms, 1);
        assert_eq!(per_pair, (want[1].clone(), crate::Rung::I16));
    }

    #[test]
    fn deep_gap_runs_cross_many_stripe_boundaries() {
        // A long query with the strong match material at the *end* forces
        // vertical gap chains to propagate across stripe boundaries, which
        // is exactly what the lazy loop must get right.
        let ms = MatrixScoring::new(SubstMatrix::blosum62(), -2, -1);
        let mut s = vec![b'G'; 90];
        let motif = b"WWWWHHHHWWWW";
        let at = s.len() - motif.len();
        s[at..].copy_from_slice(motif);
        let mut t = vec![b'A'; 8];
        t.extend_from_slice(motif);
        for isa in Isa::ALL {
            if !isa.available() {
                continue;
            }
            let want = sw_score_profile(&s, &t, &ms, 3);
            let got = striped(isa, &s, &t, &ms, 3);
            assert_eq!(got, want, "isa {}", isa.name());
        }
    }
}
