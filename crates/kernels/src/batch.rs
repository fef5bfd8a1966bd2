//! Inter-sequence batch kernel: a **different query per lane**, at `i8`
//! or `i16`.
//!
//! The striped kernel ([`crate::engine`]) spends all its lanes on one
//! query; profitable for long pairs, wasteful for database search where
//! millions of *small* queries each pay a full kernel launch (profile
//! build, state allocation, lazy-F fixups) per pair. This module packs up
//! to `LANES` distinct queries into one vector register file and scores
//! them against a shared target in a single pass — the inter-sequence
//! parallelism of DSA and SWIPE (see PAPERS.md).
//!
//! The layout is plain row-major: vector `i` holds cell `(i, j)` of every
//! lane's private DP matrix, where row `i` is a query position and `j`
//! walks the shared target. Because the lanes are *independent
//! alignments*, there is no inter-lane dependency at all: the vertical
//! gap chain runs down the rows of one column, which the column loop
//! computes sequentially anyway. No striping, no lazy-F loop — every
//! instruction is useful work.
//!
//! The one code path is generic over the lane element: [`PackedProfile`]
//! and its pass are `PackedProfile<S, T>` with `T = i16` the default, and
//! the `i8` instance packs twice the queries per vector. Independence
//! makes exactness a per-lane property: a lane whose best score is within
//! `T`'s ceiling is exact, whatever its neighbours did
//! ([`crate::engine`]'s saturation argument), which is what lets
//! [`crate::GroupProfile`] run `i8` first and re-score at `i16` only what
//! saturated.
//!
//! Exactness contract: each lane's result is bit-identical to the
//! scheme's scalar oracle ([`Scheme::oracle`]) on that (query, target)
//! pair — same best score, same row-major-first end-point tie-break,
//! same threshold hit count. Queries outside the i16 envelope
//! ([`fits_i16_query`]) transparently fall back to the scalar oracle in
//! [`score_batch`].

use crate::engine::{assert_columns, dispatch, hit_floor, lane_bits, lanes_of, Elem, Engine, Pass};
use crate::group::{group_width, score_group, GroupProfile};
use crate::profile::Scheme;
use crate::{fits_i16_query, Isa, KernelChoice};
use genomedsm_core::linear::LinearSwResult;
use genomedsm_core::scoring::Scoring;

/// A batch of queries packed one-per-lane for a fixed ISA under scheme `S`
/// (linear-gap [`Scoring`] unless named otherwise;
/// [`crate::PackedAffineProfile`] is the protein instance) at lane width
/// `T` (`i16` unless named otherwise).
///
/// The profile precomputes, for each target symbol `c`, the row-major
/// vector sequence `prof[c][i * lanes + l] = subst(q_l[i], c)` (the
/// padding sentinel (`NEG_INF`) where lane `l` is shorter than row `i`),
/// so the inner loop is one saturating add per row. Rows are built lazily
/// per observed symbol. A profile is built **once per lane group** and
/// reused across every database record it is scored against — that
/// amortization is the batch engine's main launch-overhead win — and so
/// is the DP state of its passes, re-zeroed per record.
pub struct PackedProfile<S: Scheme = Scoring, T: Elem = i16> {
    isa: Isa,
    /// Vector width in `T` lanes.
    lanes: usize,
    /// Rows per column: the longest packed query's length.
    rows: usize,
    /// Per-lane query lengths (`lens.len()` = number of packed queries).
    lens: Vec<usize>,
    /// Per-row byte-granularity live-lane mask ([`lane_bits`] per live
    /// lane), matching the `movemask_epi8` convention of
    /// `Engine::gt_bytes`: lane `l` is live at row `i` iff `i < lens[l]`.
    valid: Vec<u64>,
    /// Lazily built profile rows, one per target symbol.
    sym_rows: Vec<Option<Box<[T]>>>,
    seqs: Vec<Box<[u8]>>,
    scheme: S,
    /// The last pass's state and gap buffers, kept for the next one.
    spare: Option<(PackedState<T>, S::Gap<T>)>,
}

impl<S: Scheme> PackedProfile<S> {
    /// Packs `queries` (at most `isa.lanes()` of them) for `isa` on `i16`
    /// lanes.
    ///
    /// Returns `None` when the pack is not exactly representable: the ISA
    /// is unavailable on this CPU, too many queries, or the scoring
    /// scheme / a query length fails [`fits_i16_query`]. Callers that
    /// need a never-fails path use [`score_batch`], which routes
    /// rejected queries to the scalar oracle instead.
    pub fn new(queries: &[&[u8]], scheme: &S, isa: Isa) -> Option<Self> {
        admits(queries, scheme, isa, isa.lanes()).then(|| Self::pack(queries, scheme, isa))
    }
}

impl<S: Scheme, T: Elem> PackedProfile<S, T> {
    /// Packs `queries` for `isa` on lanes of `T`. The caller has checked
    /// that there is a lane per query and that every parameter of
    /// `scheme` is representable at `T`; results are exact for every lane
    /// whose best score is within `T`'s ceiling.
    pub(crate) fn pack(queries: &[&[u8]], scheme: &S, isa: Isa) -> Self {
        let lanes = lanes_of::<T>(isa);
        debug_assert!(queries.len() <= lanes);
        let lens: Vec<usize> = queries.iter().map(|q| q.len()).collect();
        let rows = lens.iter().copied().max().unwrap_or(0);
        let mut valid = Vec::with_capacity(rows);
        for i in 0..rows {
            let mut mask = 0u64;
            for (l, &len) in lens.iter().enumerate() {
                if i < len {
                    mask |= lane_bits::<T>(l);
                }
            }
            valid.push(mask);
        }
        Self {
            isa,
            lanes,
            rows,
            lens,
            valid,
            sym_rows: vec![None; 256],
            seqs: queries.iter().map(|&q| q.into()).collect(),
            scheme: *scheme,
            spare: None,
        }
    }

    /// Number of queries packed into this profile.
    pub fn width(&self) -> usize {
        self.lens.len()
    }

    /// The ISA this profile is laid out for.
    pub fn isa(&self) -> Isa {
        self.isa
    }

    /// The packed queries, in lane order.
    pub(crate) fn queries(&self) -> Vec<&[u8]> {
        self.seqs.iter().map(|q| &q[..]).collect()
    }

    /// The scheme the rows are scored under.
    pub(crate) fn scheme(&self) -> &S {
        &self.scheme
    }

    /// The profile row for target symbol `c` (`rows * lanes` values),
    /// with the per-row live-lane masks.
    fn row(&mut self, c: u8) -> (&[T], &[u64]) {
        let slot = &mut self.sym_rows[c as usize];
        if slot.is_none() {
            let mut row = vec![T::NEG_INF; self.rows * self.lanes];
            for (l, q) in self.seqs.iter().enumerate() {
                for (i, &qc) in q.iter().enumerate() {
                    row[i * self.lanes + l] = T::from_i32(i32::from(self.scheme.subst(qc, c)));
                }
            }
            *slot = Some(row.into_boxed_slice());
        }
        (slot.as_deref().unwrap(), &self.valid)
    }

    /// Final reduction of a finished pass, one result per packed query:
    /// each lane's best cell as the pass recorded it (`0` at `(0, 0)`
    /// when no cell scored).
    fn reduce(&self, st: &PackedState<T>) -> Vec<LinearSwResult> {
        (0..self.lens.len())
            .map(|l| {
                let best_score = st.best[l].to_i32();
                let (i, j) = st.end[l];
                LinearSwResult {
                    best_score,
                    best_end: if best_score > 0 {
                        (i as usize + 1, j as usize + 1)
                    } else {
                        (0, 0)
                    },
                    hits: st.hits[l],
                }
            })
            .collect()
    }
}

/// Whether `queries` can share one lane group of at most `width` members
/// on `isa`, in any layout: the ISA runs here, the group is not too wide,
/// and every query passes [`fits_i16_query`] (which makes the `i16`
/// re-run of an `i8` pass exact).
pub(crate) fn admits<S: Scheme>(queries: &[&[u8]], scheme: &S, isa: Isa, width: usize) -> bool {
    isa.available()
        && queries.len() <= width
        && queries.iter().all(|q| fits_i16_query(q.len(), scheme))
}

/// Mutable per-scan state: two column buffers plus each lane's best cell
/// so far (an affine scheme's `E` buffer rides alongside in its
/// [`Scheme::Gap`]).
pub struct PackedState<T = i16> {
    /// Previous column's `H` (`rows * lanes`, row-major).
    pub(crate) ph: Vec<T>,
    /// Current column's `H`.
    pub(crate) ch: Vec<T>,
    /// Per lane, the best `H` scored so far.
    pub(crate) best: Vec<T>,
    /// Per lane, the 0-based `(row, column)` of the row-major-first cell
    /// holding `best`; `u32`, so a pass refuses a target of 2³² columns or
    /// more ([`assert_columns`]).
    pub(crate) end: Vec<(u32, u32)>,
    /// Per row, the [`lane_bits`] of the lanes whose `end` is in that row
    /// (lanes with a positive `best` only).
    pub(crate) ends_in_row: Vec<u64>,
    /// Per-lane threshold hits.
    pub(crate) hits: Vec<u64>,
}

impl<T: Elem> PackedState<T> {
    pub(crate) fn new(rows: usize, lanes: usize) -> Self {
        Self {
            ph: vec![T::ZERO; rows * lanes],
            ch: vec![T::ZERO; rows * lanes],
            best: vec![T::ZERO; lanes],
            end: vec![(0, 0); lanes],
            ends_in_row: vec![0; rows],
            hits: vec![0; lanes],
        }
    }

    /// Returns the state to what `new` builds, without reallocating.
    /// `ch` is overwritten whole by every column and `end` is read only
    /// where `best` rose during the pass, so neither is cleared.
    fn reset(&mut self) {
        self.ph.fill(T::ZERO);
        self.best.fill(T::ZERO);
        self.ends_in_row.fill(0);
        self.hits.fill(0);
    }

    #[inline(always)]
    pub(crate) fn flip(&mut self) {
        std::mem::swap(&mut self.ph, &mut self.ch);
    }
}

/// Computes one target column into `st.ch` from `st.ph`, folding each
/// row into the pass's statistics as it is written.
///
/// Per row `i` (lane-wise): `H[i][j] = max(0, H[i-1][j-1] + subst,
/// H[i-1][j] - gap, H[i][j-1] - gap)`. The top border (`i = -1`) is the
/// zero row of a fresh local alignment, so both `diag` and `up` start at
/// zero.
///
/// # Safety
/// The caller must guarantee the engine's ISA is available on the running
/// CPU (or call this through a `#[target_feature]` wrapper), and `st` /
/// `prof_row` must be packed for `E::LANES` lanes with at least `rows`
/// rows.
#[inline(always)]
pub(crate) unsafe fn packed_column<E: Engine>(
    st: &mut PackedState<E::T>,
    rows: usize,
    prof_row: &[E::T],
    gap: E::T,
    stats: &mut RowStats<'_, E>,
) {
    let l = E::LANES;
    let vzero = E::splat(E::T::ZERO);
    let vgap = E::splat(gap);
    let mut diag = vzero; // H[i-1][j-1]
    let mut up = vzero; // H[i-1][j]
    for i in 0..rows {
        let off = i * l;
        let left = E::load(st.ph.as_ptr().add(off)); // H[i][j-1]
        let mut vh = E::adds(diag, E::load(prof_row.as_ptr().add(off)));
        vh = E::max(vh, E::subs(left, vgap));
        vh = E::max(vh, E::subs(up, vgap));
        vh = E::max(vh, vzero);
        E::store(st.ch.as_mut_ptr().add(off), vh);
        stats.row(st, i, vh);
        diag = left;
        up = vh;
    }
}

/// One column's statistics, folded in row by row as the column is
/// written: per-lane threshold hits over live elements and each lane's
/// best cell, kept as the oracle's row-major-first tie-break picks it.
///
/// A cell can only displace the lane's best if it scores more, or as much
/// from a lower row than the best's (a cell of an earlier column in the
/// same or a lower row came first in row-major order). Two vector
/// compares per row against the best before this column find those
/// candidates; the rare ones are settled lane by lane against the current
/// best. Padding rows hold live values less gap penalties, so the live
/// masks only keep them out of the records.
///
/// `pub` only because [`Scheme::packed_column`] names it.
pub struct RowStats<'a, E: Engine> {
    /// Per row, the live lanes' [`lane_bits`].
    valid: &'a [u64],
    thr_minus_1: Option<E::V>,
    /// The lane's best before this column, and that less one.
    best: E::V,
    below_best: E::V,
    /// Lanes whose best is positive and ends in a row below the current
    /// one: a tie there wins.
    ties_win: u64,
    j0: u32,
}

impl<'a, E: Engine> RowStats<'a, E> {
    /// The statistics of column `j0`.
    ///
    /// # Safety
    /// `E`'s ISA must be enabled in the calling context.
    #[inline(always)]
    pub(crate) unsafe fn new(
        st: &PackedState<E::T>,
        valid: &'a [u64],
        thr_minus_1: Option<E::T>,
        j0: usize,
    ) -> Self {
        let best = E::load(st.best.as_ptr());
        Self {
            valid,
            thr_minus_1: thr_minus_1.map(|x| E::splat(x)),
            best,
            below_best: E::subs(best, E::splat(E::T::from_i32(1))),
            ties_win: E::gt_bytes(best, E::splat(E::T::ZERO)),
            j0: j0 as u32,
        }
    }

    /// Folds in row `i` of the column, whose `H` is `vh`.
    ///
    /// # Safety
    /// `E`'s ISA must be enabled in the calling context, and `i` a row of
    /// `st` and of the masks.
    #[inline(always)]
    pub(crate) unsafe fn row(&mut self, st: &mut PackedState<E::T>, i: usize, vh: E::V) {
        let lane_width = E::T::BYTES;
        let vmask = self.valid[i];
        if let Some(vt) = self.thr_minus_1 {
            let mut bits = E::gt_bytes(vh, vt) & vmask;
            while bits != 0 {
                let lane = bits.trailing_zeros() as usize / lane_width;
                st.hits[lane] += 1;
                bits &= !lane_bits::<E::T>(lane);
            }
        }
        self.ties_win &= !st.ends_in_row[i];
        let above = E::gt_bytes(vh, self.best);
        let reach = E::gt_bytes(vh, self.below_best);
        let mut bits = (above | (reach & self.ties_win)) & vmask;
        while bits != 0 {
            let lane = bits.trailing_zeros() as usize / lane_width;
            bits &= !lane_bits::<E::T>(lane);
            let (v, best) = (st.ch[i * E::LANES + lane], st.best[lane]);
            let row = i as u32;
            if v > best || (v == best && row < st.end[lane].0) {
                if best > E::T::ZERO {
                    st.ends_in_row[st.end[lane].0 as usize] &= !lane_bits::<E::T>(lane);
                }
                st.ends_in_row[i] |= lane_bits::<E::T>(lane);
                st.best[lane] = v;
                st.end[lane] = (row, self.j0);
                self.ties_win &= !lane_bits::<E::T>(lane);
            }
        }
    }
}

/// Full batch pass of every query packed in `prof` over `t`: one result
/// per query, oracle-exact for each whose best score is within `T`'s
/// ceiling (every one, for an `i16` pack admitted by [`fits_i16_query`]).
struct PackedScore<'a, S: Scheme, T: Elem> {
    prof: &'a mut PackedProfile<S, T>,
    t: &'a [u8],
    threshold: i32,
}

impl<S: Scheme, T: Elem> Pass for PackedScore<'_, S, T> {
    type T = T;
    type Out = Vec<LinearSwResult>;

    // SAFETY: the caller enables E's ISA; the assert pins the lane width
    // every buffer below is packed for.
    #[inline(always)]
    unsafe fn run<E: Engine<T = T>>(self) -> Vec<LinearSwResult> {
        let Self { prof, t, threshold } = self;
        assert_eq!(E::LANES, prof.lanes);
        assert_columns(t.len());
        let (rows, cells) = (prof.rows, prof.rows * prof.lanes);
        let (mut st, mut gap) = match prof.spare.take() {
            Some((mut st, mut gap)) => {
                st.reset();
                prof.scheme.reset_gap(&mut gap, cells);
                (st, gap)
            }
            None => (
                PackedState::new(rows, prof.lanes),
                prof.scheme.gap_state(cells),
            ),
        };
        let thr = hit_floor(threshold);
        for (j0, &c) in t.iter().enumerate() {
            let (row, valid) = prof.row(c);
            let mut stats = RowStats::new(&st, valid, thr, j0);
            S::packed_column::<E>(&mut gap, &mut st, rows, row, &mut stats);
            st.flip();
        }
        let out = prof.reduce(&st);
        prof.spare = Some((st, gap));
        out
    }
}

/// Scores every query packed in `prof` against `t`, one oracle-exact
/// [`LinearSwResult`] per query in pack order.
///
/// The profile is reusable: scoring mutates only its lazy symbol-row
/// cache and its spare pass state, so one profile can scan an entire
/// database of targets.
pub fn score_batch_packed<S: Scheme>(
    prof: &mut PackedProfile<S>,
    t: &[u8],
    threshold: i32,
) -> Vec<LinearSwResult> {
    score_packed(prof, t, threshold)
}

/// [`score_batch_packed`] at any lane width: exact for each query whose
/// best score is within `T`'s ceiling.
pub(crate) fn score_packed<S: Scheme, T: Elem>(
    prof: &mut PackedProfile<S, T>,
    t: &[u8],
    threshold: i32,
) -> Vec<LinearSwResult> {
    dispatch(prof.isa, PackedScore { prof, t, threshold })
}

/// Number of `i16` lanes one kernel invocation carries for `choice` on
/// this host, 1 for the scalar oracle. A lane group may hold up to twice
/// as many queries ([`group_lanes`]).
pub fn effective_lanes(choice: KernelChoice) -> usize {
    choice.isa().map_or(1, Isa::lanes)
}

/// The most queries one lane group holds for `choice` under `scheme` on
/// this host: a query per `i8` lane where every parameter of `scheme`
/// fits one, a query per `i16` lane otherwise, 1 for the scalar oracle.
/// Batch planners size their lane groups with this.
pub fn group_lanes<S: Scheme>(choice: KernelChoice, scheme: &S) -> usize {
    choice.isa().map_or(1, |isa| group_width(isa, scheme))
}

/// Scores many queries against one shared target, a lane group at a
/// time: the batch drop-in for a loop of single-pair `score` calls, for
/// either scheme. Results are in query order and bit-identical to the
/// scheme's scalar oracle per pair.
///
/// Queries are grouped [`group_lanes`]`(choice, scheme)` at a time in the
/// given order (pre-sort by length to minimize padding) and each group
/// runs in the layout [`GroupProfile`] picks for it — a full group packed
/// one query per `i8` lane, re-scored at `i16` where that saturates, a
/// lone query striped over all lanes; queries outside the i16 envelope —
/// and every query under `KernelChoice::Scalar` or when no real SIMD is
/// available under `Auto` — run on the scalar oracle instead.
pub fn score_batch<S: Scheme>(
    choice: KernelChoice,
    queries: &[&[u8]],
    t: &[u8],
    scheme: &S,
    threshold: i32,
) -> Vec<LinearSwResult> {
    let zero = LinearSwResult {
        best_score: 0,
        best_end: (0, 0),
        hits: 0,
    };
    let mut out = vec![zero; queries.len()];
    let Some(isa) = choice.isa() else {
        for (slot, q) in out.iter_mut().zip(queries) {
            *slot = scheme.oracle(q, t, threshold);
        }
        return out;
    };
    let (packable, scalar): (Vec<usize>, Vec<usize>) =
        (0..queries.len()).partition(|&i| fits_i16_query(queries[i].len(), scheme));
    for members in packable.chunks(group_width(isa, scheme)) {
        let qs: Vec<&[u8]> = members.iter().map(|&i| queries[i]).collect();
        let mut group = GroupProfile::new(&qs, scheme, isa).expect("members passed fits_i16_query");
        for (&i, r) in members.iter().zip(score_group(&mut group, t, threshold)) {
            out[i] = r;
        }
    }
    for i in scalar {
        out[i] = scheme.oracle(queries[i], t, threshold);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use genomedsm_core::linear::sw_score_linear;

    const SC: Scoring = Scoring::paper();

    fn oracle_each(queries: &[&[u8]], t: &[u8], thr: i32) -> Vec<LinearSwResult> {
        queries
            .iter()
            .map(|q| sw_score_linear(q, t, &SC, thr))
            .collect()
    }

    #[test]
    fn packed_profile_rejects_overfull_and_oversized() {
        let qs: Vec<&[u8]> = (0..9).map(|_| &b"ACGT"[..]).collect();
        assert!(PackedProfile::new(&qs, &SC, Isa::Portable).is_none());
        let long = vec![b'A'; 40_000];
        assert!(PackedProfile::new(&[&long], &SC, Isa::Portable).is_none());
        assert!(PackedProfile::new(&[b"ACGT"], &SC, Isa::Portable).is_some());
    }

    #[test]
    fn every_isa_matches_the_oracle_on_a_ragged_pack() {
        let queries: Vec<&[u8]> = vec![
            b"TCTCGACGGATTAGTATATATATAGGCATTCA",
            b"",
            b"A",
            b"GATTACA",
            b"ATATGATCGGAATAGCTCTTAGGCATT",
            b"CCCCCCCC",
        ];
        let t = b"ATATGATCGGAATAGCTCTTAGGCATTCAGATTACA";
        for thr in [0, 1, 3, i32::MAX] {
            let want = oracle_each(&queries, t, thr);
            for isa in Isa::ALL {
                if !isa.available() {
                    continue;
                }
                let mut prof = PackedProfile::new(&queries, &SC, isa).unwrap();
                let got = score_batch_packed(&mut prof, t, thr);
                assert_eq!(got, want, "isa {} thr {thr}", isa.name());
            }
        }
    }

    #[test]
    fn profile_reuse_across_targets_stays_exact() {
        let queries: Vec<&[u8]> = vec![b"GACGGATTAG", b"TTTTAGGCAT", b"ACGTACGTACGT"];
        let targets: [&[u8]; 3] = [b"GATCGGAATAGGGACCATTTACCA", b"ACGT", b""];
        let mut prof = PackedProfile::new(&queries, &SC, Isa::Portable).unwrap();
        for t in targets {
            assert_eq!(
                score_batch_packed(&mut prof, t, 2),
                oracle_each(&queries, t, 2)
            );
        }
    }

    #[test]
    fn score_batch_spills_oversized_queries_to_scalar() {
        // 40k identical bases exceed the i16 ceiling with paper scoring;
        // the big query must fall back while its neighbours stay packed.
        let long = vec![b'A'; 40_000];
        let queries: Vec<&[u8]> = vec![b"GATTACA", &long, b"ACGT"];
        let t = vec![b'A'; 1000];
        let want = oracle_each(&queries, &t, 1);
        for choice in [KernelChoice::Scalar, KernelChoice::Simd, KernelChoice::Auto] {
            let got = score_batch(choice, &queries, &t, &SC, 1);
            assert_eq!(got, want, "choice {choice}");
        }
        // Batch admission is a priori because a group's targets are not
        // known yet. The per-pair ladder sees this one — 1000 is all it can
        // score — and keeps the same query on i16 lanes.
        let per_pair = crate::kernel_for(KernelChoice::Simd).score_on(&long, &t, &SC, 1);
        assert_eq!(per_pair, (want[1].clone(), crate::Rung::I16));
    }

    #[test]
    fn more_queries_than_lanes_chunks_correctly() {
        let base = b"TCTCGACGGATTAGTATATATATAGGCATTCAGATTACA";
        let queries: Vec<&[u8]> = (0..37).map(|i| &base[i % 8..8 + (i * 3) % 30]).collect();
        let t = b"ATATGATCGGAATAGCTCTTAGGCATTCA";
        for choice in [KernelChoice::Simd, KernelChoice::Auto] {
            assert_eq!(
                score_batch(choice, &queries, t, &SC, 2),
                oracle_each(&queries, t, 2),
                "choice {choice}"
            );
        }
    }

    #[test]
    fn tie_break_matches_oracle_on_repetitive_sequences() {
        // Periodic sequences create many equal-scoring maxima; the batch
        // reduction must pick the same (row-major-first) end point.
        let queries: Vec<&[u8]> = vec![b"ATATATATAT", b"TATATATA", b"ATAT"];
        let t = b"ATATATATATATATAT";
        let mut prof = PackedProfile::new(&queries, &SC, Isa::Portable).unwrap();
        assert_eq!(
            score_batch_packed(&mut prof, t, 1),
            oracle_each(&queries, t, 1)
        );
    }

    #[test]
    fn avx512_groups_pack_64_queries() {
        if Isa::Avx512.available() {
            assert_eq!(group_lanes(KernelChoice::Simd, &Scoring::paper()), 64);
            assert_eq!(group_width(Isa::Avx512, &Scoring::paper()), 64);
            assert_eq!(effective_lanes(KernelChoice::Simd), 32);
        }
    }

    #[test]
    fn effective_lanes_is_one_for_scalar() {
        assert_eq!(effective_lanes(KernelChoice::Scalar), 1);
        assert!(effective_lanes(KernelChoice::Simd) >= 8);
    }
}
