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
//! The layout is row-major: vector `i` holds cell `(i, j)` of every
//! lane's private DP matrix, where row `i` is a query position and `j`
//! walks the shared target. Because the lanes are *independent
//! alignments*, there is no inter-lane dependency at all: the vertical
//! gap chain runs down the rows of one column, which the column loop
//! computes sequentially anyway. No striping, no lazy-F loop — every
//! instruction is useful work.
//!
//! The pass walks the matrix in horizontal strips of
//! [`PACKED_STRIP_ROWS`] rows ([`Strip`]): each strip crosses every target
//! column before the next one starts, and each column carries a one-row
//! edge down to the next strip (`H` of the strip's last row, and `F` for
//! an affine scheme). A strip's column buffers and profile slices stay
//! in L1 however long the queries are; a whole 64-lane column of a
//! 450-row group does not. A pass whose rows fit one strip is simply the
//! case of one strip.
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
use crate::group::{group_width, score_group, GroupProfile, PACKED_STRIP_ROWS};
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
/// is the DP state of its passes, re-zeroed per record (its edges
/// re-sized to the record).
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

    /// Builds the profile row for target symbol `c` (`rows * lanes`
    /// values) unless it exists.
    fn row(&mut self, c: u8) {
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

/// Mutable per-scan state: one strip's two column buffers, the edge it
/// carries down to the next strip and each lane's best cell so far (an
/// affine scheme's `E` strip and `F` edge ride alongside in its
/// [`Scheme::Gap`]).
#[derive(Default)]
pub struct PackedState<T = i16> {
    /// Previous column's `H` over the current strip (`strip rows * lanes`,
    /// row-major); zeroed at each strip's start, the zero column left of
    /// the target.
    pub(crate) ph: Vec<T>,
    /// Current column's `H` over the current strip.
    pub(crate) ch: Vec<T>,
    /// Per target column, `H` of the row above the current strip
    /// (`columns * lanes`): the zero row before the first strip, then
    /// each strip's last row, written as its column is scored.
    pub(crate) edge: Vec<T>,
    /// Per lane, the best `H` scored so far.
    pub(crate) best: Vec<T>,
    /// Per lane, the 0-based `(row, column)` of the row-major-first cell
    /// holding `best`; `u32`, so a pass refuses a target of 2³² columns or
    /// more ([`assert_columns`]).
    pub(crate) end: Vec<(u32, u32)>,
    /// Per-lane threshold hits.
    pub(crate) hits: Vec<u64>,
}

impl<T: Elem> PackedState<T> {
    /// Readies the state for a pass over `columns` target columns in
    /// strips of `strip_cells` elements, without shrinking what an earlier
    /// pass allocated. `ph` is zeroed per strip and `ch` written whole
    /// over a strip's rows by each column before anything reads it, so
    /// neither is cleared here.
    fn reset(&mut self, lanes: usize, strip_cells: usize, columns: usize) {
        self.ph.resize(strip_cells, T::ZERO);
        self.ch.resize(strip_cells, T::ZERO);
        refill(&mut self.edge, columns * lanes, T::ZERO);
        refill(&mut self.best, lanes, T::ZERO);
        refill(&mut self.end, lanes, (0, 0));
        refill(&mut self.hits, lanes, 0);
    }

    #[inline(always)]
    pub(crate) fn flip(&mut self) {
        std::mem::swap(&mut self.ph, &mut self.ch);
    }
}

/// Refills `v` with `n` copies of `x`, growing it to exactly `n`: an edge
/// is sized to each target in turn, and grown by doubling it would hold up
/// to twice the longest one's columns. (The batch engine scores a slab
/// longest record first, so an edge grows once per job.)
pub(crate) fn refill<T: Copy>(v: &mut Vec<T>, n: usize, x: T) {
    if v.capacity() < n {
        *v = vec![x; n];
    } else {
        v.clear();
        v.resize(n, x);
    }
}

/// Computes column `j` of the current strip into `st.ch` from `st.ph`,
/// feeding each row to the strip's statistics as it is written.
///
/// Per row `i` (lane-wise): `H[i][j] = max(0, H[i-1][j-1] + subst,
/// H[i-1][j] - gap, H[i][j-1] - gap)`. Above the strip's first row,
/// `H[r0-1][j]` is the carried edge and `H[r0-1][j-1]` the strip's corner;
/// the strip's last row becomes column `j`'s edge for the next strip.
///
/// # Safety
/// The caller must guarantee the engine's ISA is available on the running
/// CPU (or call this through a `#[target_feature]` wrapper), and `st` /
/// `prof_row` must be packed for `E::LANES` lanes with the strip's rows,
/// and `st.edge` with more than `j` columns.
#[inline(always)]
pub(crate) unsafe fn packed_column<E: Engine>(
    st: &mut PackedState<E::T>,
    j: usize,
    prof_row: &[E::T],
    gap: E::T,
    strip: &mut Strip<'_, E>,
) {
    let l = E::LANES;
    let vzero = E::splat(E::T::ZERO);
    let vgap = E::splat(gap);
    let edge = st.edge.as_mut_ptr().add(j * l);
    let mut diag = strip.corner; // H[i-1][j-1]
    let mut up = E::load(edge); // H[i-1][j]
    strip.corner = up;
    for i in 0..strip.rows() {
        let off = i * l;
        let left = E::load(st.ph.as_ptr().add(off)); // H[i][j-1]
        let mut vh = E::adds(diag, E::load(prof_row.as_ptr().add(off)));
        vh = E::max(vh, E::subs(left, vgap));
        vh = E::max(vh, E::subs(up, vgap));
        vh = E::max(vh, vzero);
        E::store(st.ch.as_mut_ptr().add(off), vh);
        strip.row(st, i, vh);
        diag = left;
        up = vh;
    }
    E::store(edge, up);
}

/// One horizontal strip of a packed pass: its rows, the corner carried
/// from column to column, and the statistics of the column being scored.
///
/// A strip crosses every target column before the next one starts, so its
/// column buffers, `E` strip and profile slices stay in L1 whatever the
/// query length. Statistics are settled once per strip column: each row
/// only raises the column's running max (and, where a threshold is set,
/// counts its hits, which are per cell). A cell can displace the lane's
/// best only if it scores more, or as much from a lower row than the
/// best's (a cell of an earlier column in the same or a lower row came
/// first in row-major order) — and a best that ends in an earlier strip
/// is in a lower row than every cell here. So after the column, the lanes
/// whose max beats their best, or ties a best that ends in this strip,
/// are the only candidates; their rows are scanned in order against the
/// exact rule. Padding rows hold live values less gap penalties, so they
/// cannot raise a max above a best that is already settled; the live
/// masks keep them out of the scan and the hits.
///
/// `pub` only because [`Scheme::packed_column`] names it.
pub struct Strip<'a, E: Engine> {
    /// The strip's first row.
    r0: usize,
    /// Per row of the strip, the live lanes' [`lane_bits`].
    valid: &'a [u64],
    /// `H[r0-1][j-1]` for the column `j` about to be scored: column
    /// `j - 1`'s edge before that column overwrote it.
    pub(crate) corner: E::V,
    thr_minus_1: Option<E::V>,
    /// The running max of the column being scored.
    colmax: E::V,
    /// Each lane's best, and that less one.
    best: E::V,
    below_best: E::V,
    /// Lanes whose best ends in this strip: only there can a tie win.
    ends_here: u64,
}

impl<'a, E: Engine> Strip<'a, E> {
    /// The strip of `valid.len()` rows from `r0`, entering from the zero
    /// column left of the target.
    ///
    /// # Safety
    /// `E`'s ISA must be enabled in the calling context.
    #[inline(always)]
    unsafe fn new(
        st: &PackedState<E::T>,
        r0: usize,
        valid: &'a [u64],
        thr_minus_1: Option<E::T>,
    ) -> Self {
        let vzero = E::splat(E::T::ZERO);
        let mut strip = Self {
            r0,
            valid,
            corner: vzero,
            thr_minus_1: thr_minus_1.map(|x| E::splat(x)),
            colmax: vzero,
            best: vzero,
            below_best: vzero,
            ends_here: 0,
        };
        strip.load_best(st);
        strip
    }

    /// Rows in this strip.
    #[inline(always)]
    pub(crate) fn rows(&self) -> usize {
        self.valid.len()
    }

    /// Reloads each lane's best from `st`.
    ///
    /// # Safety
    /// `E`'s ISA must be enabled in the calling context, and `st.best`
    /// hold `E::LANES` values.
    #[inline(always)]
    unsafe fn load_best(&mut self, st: &PackedState<E::T>) {
        self.best = E::load(st.best.as_ptr());
        self.below_best = E::subs(self.best, E::splat(E::T::from_i32(1)));
    }

    /// Folds in row `i` of the strip column, whose `H` is `vh`.
    ///
    /// # Safety
    /// `E`'s ISA must be enabled in the calling context, and `i` a row of
    /// the strip.
    #[inline(always)]
    pub(crate) unsafe fn row(&mut self, st: &mut PackedState<E::T>, i: usize, vh: E::V) {
        self.colmax = E::max(self.colmax, vh);
        if let Some(vt) = self.thr_minus_1 {
            let mut bits = E::gt_bytes(vh, vt) & self.valid[i];
            while bits != 0 {
                let lane = bits.trailing_zeros() as usize / E::T::BYTES;
                st.hits[lane] += 1;
                bits &= !lane_bits::<E::T>(lane);
            }
        }
    }

    /// Settles column `j` of the strip, held in `st.ch`, into each lane's
    /// best cell, and starts the next column's max.
    ///
    /// # Safety
    /// `E`'s ISA must be enabled in the calling context.
    #[inline(always)]
    unsafe fn settle(&mut self, st: &mut PackedState<E::T>, j: usize) {
        let above = E::gt_bytes(self.colmax, self.best);
        let reach = E::gt_bytes(self.colmax, self.below_best);
        self.colmax = E::splat(E::T::ZERO);
        let mut lanes = above | (reach & self.ends_here);
        while lanes != 0 {
            let lane = lanes.trailing_zeros() as usize / E::T::BYTES;
            let bits = lane_bits::<E::T>(lane);
            lanes &= !bits;
            // A lane's live rows are a prefix of the strip.
            for (i, _) in self
                .valid
                .iter()
                .take_while(|&&m| m & bits != 0)
                .enumerate()
            {
                let (v, best) = (st.ch[i * E::LANES + lane], st.best[lane]);
                let row = (self.r0 + i) as u32;
                if v > best || (v == best && row < st.end[lane].0) {
                    st.best[lane] = v;
                    st.end[lane] = (row, j as u32);
                    self.ends_here |= bits;
                }
            }
        }
        self.load_best(st);
    }
}

/// Full batch pass of every query packed in `prof` over `t`, in strips of
/// `strip` rows: one result per query, oracle-exact for each whose best
/// score is within `T`'s ceiling (every one, for an `i16` pack admitted by
/// [`fits_i16_query`]).
struct PackedScore<'a, S: Scheme, T: Elem> {
    prof: &'a mut PackedProfile<S, T>,
    t: &'a [u8],
    threshold: i32,
    strip: usize,
}

impl<S: Scheme, T: Elem> Pass for PackedScore<'_, S, T> {
    type T = T;
    type Out = Vec<LinearSwResult>;

    // SAFETY: the caller enables E's ISA; the assert pins the lane width
    // every buffer below is packed for.
    #[inline(always)]
    unsafe fn run<E: Engine<T = T>>(self) -> Vec<LinearSwResult> {
        let Self {
            prof,
            t,
            threshold,
            strip,
        } = self;
        assert_eq!(E::LANES, prof.lanes);
        assert!(strip > 0, "a strip has at least one row");
        assert_columns(t.len());
        let (rows, lanes) = (prof.rows, prof.lanes);
        let (mut st, mut gap) = prof
            .spare
            .take()
            .unwrap_or_else(|| (PackedState::default(), prof.scheme.gap_state(0)));
        st.reset(lanes, strip.min(rows) * lanes, t.len());
        prof.scheme.reset_edge(&mut gap, t.len() * lanes);
        for &c in t {
            prof.row(c);
        }
        let thr = hit_floor(threshold);
        for r0 in (0..rows).step_by(strip) {
            let r1 = rows.min(r0 + strip);
            st.ph.fill(T::ZERO);
            prof.scheme.reset_gap(&mut gap, (r1 - r0) * lanes);
            let mut pass = Strip::new(&st, r0, &prof.valid[r0..r1], thr);
            for (j, &c) in t.iter().enumerate() {
                let row = prof.sym_rows[c as usize].as_deref().expect("built above");
                let row = &row[r0 * lanes..r1 * lanes];
                S::packed_column::<E>(&mut gap, &mut st, j, row, &mut pass);
                pass.settle(&mut st, j);
                st.flip();
            }
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
    score_packed_in_strips(prof, t, threshold, PACKED_STRIP_ROWS)
}

/// [`score_packed`] in strips of `strip` rows: the same results at any
/// height, which the tests check at heights that put strip edges where
/// [`PACKED_STRIP_ROWS`] would not.
pub(crate) fn score_packed_in_strips<S: Scheme, T: Elem>(
    prof: &mut PackedProfile<S, T>,
    t: &[u8],
    threshold: i32,
    strip: usize,
) -> Vec<LinearSwResult> {
    let pass = PackedScore {
        prof,
        t,
        threshold,
        strip,
    };
    dispatch(pass.prof.isa, pass)
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
    use genomedsm_core::submat::MatrixScoring;

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

    /// Strip heights that put strip edges where [`PACKED_STRIP_ROWS`]
    /// would not.
    const STRIPS: [usize; 4] = [1, 2, 3, 7];

    fn bl62() -> MatrixScoring {
        MatrixScoring::blosum62()
    }

    /// `n` symbols of `alphabet` from a fixed-seed generator.
    fn random_seq(seed: &mut u64, alphabet: &[u8], n: usize) -> Vec<u8> {
        (0..n)
            .map(|_| {
                *seed = seed
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                alphabet[(*seed >> 33) as usize % alphabet.len()]
            })
            .collect()
    }

    /// Scores `queries` on `T` lanes against each of `targets` in turn, on
    /// one reused profile per ISA and strip height, and holds every lane
    /// to the oracle: equal where the oracle's best is within `T`'s
    /// ceiling, past the ceiling (so a group would re-run it) where not.
    fn check_strips<S: Scheme, T: Elem>(
        queries: &[&[u8]],
        targets: &[&[u8]],
        scheme: &S,
        thresholds: &[i32],
    ) {
        for isa in Isa::ALL.into_iter().filter(|isa| isa.available()) {
            for strip in STRIPS {
                let mut prof = PackedProfile::<S, T>::pack(queries, scheme, isa);
                for (k, t) in targets.iter().enumerate() {
                    for &thr in thresholds {
                        let got = score_packed_in_strips(&mut prof, t, thr, strip);
                        for (l, (got, q)) in got.iter().zip(queries).enumerate() {
                            let want = scheme.oracle(q, t, thr);
                            let at = format!(
                                "{} i{} strip {strip} target {k} thr {thr} lane {l}",
                                isa.name(),
                                8 * T::BYTES
                            );
                            if want.best_score > T::CEILING {
                                assert!(got.best_score > T::CEILING, "{at}: {got:?}");
                            } else {
                                assert_eq!(got, &want, "{at}");
                            }
                        }
                    }
                }
            }
        }
    }

    /// Both schemes at both packed widths.
    fn check_strips_everywhere(
        dna: (&[&[u8]], &[&[u8]]),
        protein: (&[&[u8]], &[&[u8]]),
        thresholds: (&[i32], &[i32]),
    ) {
        check_strips::<_, i8>(dna.0, dna.1, &SC, thresholds.0);
        check_strips::<_, i16>(dna.0, dna.1, &SC, thresholds.0);
        check_strips::<_, i8>(protein.0, protein.1, &bl62(), thresholds.1);
        check_strips::<_, i16>(protein.0, protein.1, &bl62(), thresholds.1);
    }

    #[test]
    fn lanes_ending_at_above_and_below_a_strip_edge_match_the_oracle() {
        // Lengths h - 1, h and h + 1 for every strip height h, 2h for two
        // of them, and an empty lane.
        let mut seed = 3;
        let t_dna = random_seq(&mut seed, b"ACGT", 30);
        let t_aa = random_seq(&mut seed, b"ARNDCQEGHILKMFPSTWYV", 30);
        let lens = [0, 1, 2, 3, 4, 6, 7, 8];
        let dna: Vec<Vec<u8>> = lens.iter().map(|&n| t_dna[5..5 + n].to_vec()).collect();
        let aa: Vec<Vec<u8>> = lens.iter().map(|&n| t_aa[9..9 + n].to_vec()).collect();
        let dna: Vec<&[u8]> = dna.iter().map(Vec::as_slice).collect();
        let aa: Vec<&[u8]> = aa.iter().map(Vec::as_slice).collect();
        check_strips_everywhere(
            (&dna, &[&t_dna]),
            (&aa, &[&t_aa]),
            (&[0, 1, 3], &[0, 1, 20]),
        );
    }

    #[test]
    fn a_tie_between_an_upper_strips_later_column_and_a_lower_strips_earlier_one_keeps_the_upper() {
        // The query holds motif M1 at rows 0-3 and M2 at rows 14-17, the
        // target M2 at columns 0-3 and M1 at 10-13: the two equal maxima
        // end in different strips at every height, the upper one in the
        // later column, and row-major order picks it.
        let dna_q = b"AACCGGGGGGGGGGCCAA";
        let dna_t = b"CCAATTTTTTAACC";
        let aa_q = b"WWHHGGGGGGGGGGHHWW";
        let aa_t = b"HHWWPPPPPPWWHH";
        for (want, lower) in [
            (
                SC.oracle(dna_q, dna_t, 0),
                SC.oracle(&dna_q[14..], dna_t, 0),
            ),
            (
                bl62().oracle(aa_q, aa_t, 0),
                bl62().oracle(&aa_q[14..], aa_t, 0),
            ),
        ] {
            assert_eq!(want.best_end, (4, 14));
            assert_eq!(
                (lower.best_score, lower.best_end),
                (want.best_score, (4, 4))
            );
        }
        check_strips_everywhere(
            (&[&dna_q[..], b"CCAA", dna_t], &[dna_t, dna_q]),
            (&[&aa_q[..], b"HHWW", aa_t], &[aa_t, aa_q]),
            (&[0, 1, 2], &[0, 1, 16]),
        );
    }

    #[test]
    fn an_affine_gap_across_a_strip_edge_carries_its_f() {
        // Ten W against 5 W, 3 P, 5 W: the best alignment skips the three
        // P rows in one vertical gap (110 - 11 - 1 - 1), which crosses a
        // strip edge at every height, so F must come down the edge.
        let q = b"WWWWWPPPWWWWW";
        let t = b"WWWWWWWWWW";
        assert_eq!(bl62().oracle(q, t, 0).best_score, 97);
        let q_dna = b"ACGTATTTACGTA";
        let t_dna = b"ACGTAACGTA";
        check_strips_everywhere(
            (&[q_dna, t_dna], &[t_dna, q_dna]),
            (&[&q[..], t, b"WWWWWP"], &[t, q]),
            (&[0, 1, 4], &[0, 1, 60]),
        );
    }

    #[test]
    fn profile_reuse_resizes_the_edges_both_ways() {
        // Ragged random lanes against targets of many, one and no columns,
        // shrinking and then growing again on the same profile, with
        // query pieces planted so scores cross several strips.
        let mut seed = 11;
        for (alphabet, scheme_is_dna) in
            [(&b"ACGT"[..], true), (&b"ARNDCQEGHILKMFPSTWYV"[..], false)]
        {
            let lens = [0, 1, 5, 7, 8, 13, 22, 40];
            let queries: Vec<Vec<u8>> = lens
                .iter()
                .map(|&n| random_seq(&mut seed, alphabet, n))
                .collect();
            let mut long = random_seq(&mut seed, alphabet, 20);
            long.extend_from_slice(&queries[7][3..30]);
            long.extend(random_seq(&mut seed, alphabet, 10));
            long.extend_from_slice(&queries[6][..15]);
            long.extend(random_seq(&mut seed, alphabet, 7));
            let mid = random_seq(&mut seed, alphabet, 9);
            let one = &queries[5][4..5];
            let targets: [&[u8]; 7] = [&long, &mid, one, b"", one, &mid, &long];
            let qs: Vec<&[u8]> = queries.iter().map(Vec::as_slice).collect();
            if scheme_is_dna {
                check_strips::<_, i8>(&qs, &targets, &SC, &[0, 1, 5]);
                check_strips::<_, i16>(&qs, &targets, &SC, &[0, 1, 5]);
            } else {
                check_strips::<_, i8>(&qs, &targets, &bl62(), &[0, 1, 30]);
                check_strips::<_, i16>(&qs, &targets, &bl62(), &[0, 1, 30]);
            }
        }
    }

    #[test]
    fn a_saturated_i8_strip_pass_re_runs_exactly_at_i16() {
        // What NarrowGroup does, at every strip height: the lanes whose
        // i8 best passes the ceiling are exactly those whose oracle best
        // does, and the i16 half holding them re-scores them exactly.
        let mut seed = 5;
        let base = random_seq(&mut seed, b"ACGT", 150);
        let queries: Vec<&[u8]> = vec![
            &base[..130],
            b"ACGTACGT",
            &base[20..60],
            b"",
            &base[100..],
            &base[7..19],
            b"TTTT",
            &base[..121],
            &base[..120],
            &base[30..33],
        ];
        let t = &base[..];
        for isa in Isa::ALL.into_iter().filter(|isa| isa.available()) {
            let half = lanes_of::<i16>(isa);
            for strip in STRIPS {
                let mut narrow = PackedProfile::<_, i8>::pack(&queries, &SC, isa);
                for thr in [0, 1, 100] {
                    let mut got = score_packed_in_strips(&mut narrow, t, thr, strip);
                    let want = oracle_each(&queries, t, thr);
                    let saturated = |r: &LinearSwResult| r.best_score > <i8 as Elem>::CEILING;
                    let flags: Vec<bool> = got.iter().map(saturated).collect();
                    assert_eq!(flags, want.iter().map(saturated).collect::<Vec<_>>());
                    assert!(flags.iter().any(|&f| f), "the pack must saturate");
                    for (members, slots) in queries.chunks(half).zip(got.chunks_mut(half)) {
                        if slots.iter().any(saturated) {
                            let mut wide = PackedProfile::<_, i16>::pack(members, &SC, isa);
                            slots.clone_from_slice(&score_packed_in_strips(
                                &mut wide, t, thr, strip,
                            ));
                        }
                    }
                    assert_eq!(got, want, "{} strip {strip} thr {thr}", isa.name());
                }
            }
        }
        // And through the group itself, whose strips are PACKED_STRIP_ROWS
        // high: 130 rows are several of them.
        for isa in Isa::ALL.into_iter().filter(|isa| isa.available()) {
            let wide: Vec<&[u8]> = (0..=isa.lanes())
                .map(|i| queries[i % queries.len()])
                .collect();
            let mut group = GroupProfile::new(&wide, &SC, isa).unwrap();
            assert!(group.is_narrow());
            assert_eq!(score_group(&mut group, t, 1), oracle_each(&wide, t, 1));
            assert!(group.reruns() > 0, "{}", isa.name());
        }
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
