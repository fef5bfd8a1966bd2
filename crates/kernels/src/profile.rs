//! Scoring schemes and the Farrar striped query profile.
//!
//! The striped layout (Farrar 2007, see PAPERS.md: the SSW library and the
//! Knights Landing study both build on it) places query element `q` in
//! stripe `q % p`, lane `q / p`, where `p = ceil(m / LANES)` is the segment
//! length. A vector therefore holds `LANES` query positions that are `p`
//! apart, which makes the intra-column data dependency (the vertical gap
//! chain) span *vectors* instead of *lanes* and lets the whole substitution
//! add run unconditionally.
//!
//! The profile precomputes, for each database symbol `c`, the striped vector
//! sequence `prof[c][k*LANES + l] = subst(s[l*p + k], c)` so the inner loop
//! is a single saturating add per stripe. Rows are built lazily per observed
//! symbol (DNA touches 4–5 of the 256 slots, protein at most 24 plus folded
//! aliases). What `subst` is — and everything else that differs between
//! linear-gap DNA and affine-gap protein scoring — comes from the
//! [`Scheme`] the profile is built over.

use crate::batch::{packed_column, PackedState, Strip};
use crate::engine::{column, lane_bits, Elem, Engine, StripedState};
use genomedsm_core::linear::{sw_score_linear, LinearSwResult};
use genomedsm_core::scoring::Scoring;

/// Largest magnitude accepted for any scoring parameter, with margin
/// above the i16 padding sentinel ([`Elem::NEG_INF`]).
pub(crate) const I16_PARAM_CEILING: u32 = 28_000;

/// A scoring scheme the kernel skeleton can run: everything that differs
/// between linear-gap DNA ([`Scoring`]) and affine-gap protein
/// ([`MatrixScoring`](genomedsm_core::submat::MatrixScoring)) scoring.
/// Profiles, drivers, batching and ISA dispatch are written once over it;
/// it cannot be implemented outside this crate (the column functions name
/// crate-private state).
pub trait Scheme: Copy + Send + Sync {
    /// Gap state of one pass at lane width `T`: the penalties as positive
    /// lane values, plus whatever per-element buffer the gap model carries
    /// between columns (nothing for linear gaps, the `E` column for affine).
    type Gap<T: Elem>;

    /// Substitution score of query symbol `q` against target symbol `c`.
    fn subst(&self, q: u8, c: u8) -> i16;

    /// The largest score one alignment column can add, or `None` when the
    /// parameters are outside what the vector kernels handle exactly at
    /// `i16` and `i32` (degenerate or huge values are routed to
    /// [`oracle`](Self::oracle) rather than reasoned about).
    fn column_cap(&self) -> Option<i32>;

    /// The largest magnitude among the penalties and substitution scores:
    /// what a lane must hold besides the cells. The `i8` rung takes a
    /// scheme only when this is within its ceiling.
    fn param_bound(&self) -> u32;

    /// The scalar i32 reference every kernel must equal bit for bit, and
    /// the fallback for what no rung of the width ladder holds.
    fn oracle(&self, s: &[u8], t: &[u8], threshold: i32) -> LinearSwResult;

    /// Fresh gap state for a pass over columns of `cells` elements,
    /// entering from the zero boundary column.
    fn gap_state<T: Elem>(&self, cells: usize) -> Self::Gap<T>;

    /// Returns `gap` to what [`gap_state`](Self::gap_state)`(cells)`
    /// builds, so one gap state serves every target a reused profile is
    /// scored against; schemes that carry a buffer override this to keep it.
    fn reset_gap<T: Elem>(&self, gap: &mut Self::Gap<T>, cells: usize) {
        *gap = self.gap_state(cells);
    }

    /// Readies the gap values a packed pass carries from strip to strip
    /// over `cells` edge elements (`columns * lanes`) to the row above the
    /// first strip. Nothing for linear gaps, whose edge is `H` alone; the
    /// `F` edge, at `NEG_INF`, for affine.
    fn reset_edge<T: Elem>(&self, _gap: &mut Self::Gap<T>, _cells: usize) {}

    /// One target column of the striped layout under a zero top row:
    /// `st.ch` from `st.ph` and the profile row.
    ///
    /// # Safety
    /// The engine's ISA must be enabled in the calling context, and `st`,
    /// `gap` and `row` must be striped for `E::LANES` lanes with `st.p`
    /// stripes.
    unsafe fn striped_column<E: Engine>(
        gap: &mut Self::Gap<E::T>,
        st: &mut StripedState<E::T>,
        row: &[E::T],
    );

    /// Target column `j` of one strip of the packed (query-per-lane)
    /// layout under the edge carried from the strip above (the zero row,
    /// for the first), at `i8` or `i16`: batch admission at `i16` is a
    /// priori ([`fits_i16_query`](crate::fits_i16_query)), and an `i8`
    /// pass is checked afterwards per lane.
    ///
    /// # Safety
    /// The engine's ISA must be enabled in the calling context, `st`,
    /// `gap` and `row` must be packed for `E::LANES` lanes with the
    /// strip's rows, and the edges hold more than `j` columns.
    unsafe fn packed_column<E: Engine>(
        gap: &mut Self::Gap<E::T>,
        st: &mut PackedState<E::T>,
        j: usize,
        row: &[E::T],
        strip: &mut Strip<'_, E>,
    );
}

impl Scheme for Scoring {
    /// The gap penalty as a positive lane value; with open == extend the
    /// horizontal state is exactly `H[i][j-1] - gap`, so no buffer.
    type Gap<T: Elem> = T;

    #[inline(always)]
    fn subst(&self, q: u8, c: u8) -> i16 {
        Scoring::subst(self, q, c) as i16
    }

    fn column_cap(&self) -> Option<i32> {
        let params_ok = self.gap < 0
            && self.matches > 0
            && self.mismatch <= self.matches
            && self.param_bound() <= I16_PARAM_CEILING;
        params_ok.then_some(self.matches)
    }

    fn param_bound(&self) -> u32 {
        [self.matches, self.mismatch, self.gap]
            .map(i32::unsigned_abs)
            .into_iter()
            .max()
            .unwrap_or(0)
    }

    fn oracle(&self, s: &[u8], t: &[u8], threshold: i32) -> LinearSwResult {
        sw_score_linear(s, t, self, threshold)
    }

    fn gap_state<T: Elem>(&self, _cells: usize) -> T {
        T::from_i32(-self.gap)
    }

    // SAFETY: same contract as `column`, which the caller upholds.
    #[inline(always)]
    unsafe fn striped_column<E: Engine>(gap: &mut E::T, st: &mut StripedState<E::T>, row: &[E::T]) {
        // Zero top row: diagonal boundary 0, vertical-gap boundary -gap.
        column::<E>(st, row, *gap, E::T::ZERO, E::T::ZERO.sub(*gap))
    }

    // SAFETY: same contract as the linear `packed_column`, which the caller upholds.
    #[inline(always)]
    unsafe fn packed_column<E: Engine>(
        gap: &mut E::T,
        st: &mut PackedState<E::T>,
        j: usize,
        row: &[E::T],
        strip: &mut Strip<'_, E>,
    ) {
        packed_column::<E>(st, j, row, *gap, strip)
    }
}

/// Striped substitution profile for one query sequence at a fixed lane
/// count of element type `T`.
pub(crate) struct StripedProfile<S, T> {
    /// Query length.
    pub m: usize,
    /// Segment length: number of stripes, `ceil(m / lanes)`.
    pub p: usize,
    /// Vector width in `T` lanes.
    pub lanes: usize,
    /// The scheme the rows are scored under.
    pub scheme: S,
    /// Per-stripe byte-granularity validity mask ([`lane_bits`] per live
    /// lane), matching the `movemask_epi8` convention of
    /// [`Engine::gt_bytes`].
    pub valid: Vec<u64>,
    /// Lazily built profile rows, one per database symbol.
    rows: Vec<Option<Box<[T]>>>,
    seq: Box<[u8]>,
}

impl<S: Scheme, T: Elem> StripedProfile<S, T> {
    /// Builds the profile skeleton; rows are filled on first use.
    ///
    /// Caller must have checked [`Scheme::column_cap`] so every score and
    /// penalty is representable.
    pub fn new(s: &[u8], scheme: &S, lanes: usize) -> Self {
        debug_assert!(!s.is_empty());
        let m = s.len();
        let p = m.div_ceil(lanes);
        let mut valid = Vec::with_capacity(p);
        for k in 0..p {
            let mut mask = 0u64;
            for l in 0..lanes {
                if l * p + k < m {
                    mask |= lane_bits::<T>(l);
                }
            }
            valid.push(mask);
        }
        Self {
            m,
            p,
            lanes,
            scheme: *scheme,
            valid,
            rows: vec![None; 256],
            seq: s.into(),
        }
    }

    /// The query the profile was built over.
    pub fn seq(&self) -> &[u8] {
        &self.seq
    }

    /// The striped profile row for database symbol `c` (`p * lanes` values).
    pub fn row(&mut self, c: u8) -> &[T] {
        let slot = &mut self.rows[c as usize];
        if slot.is_none() {
            let mut row = vec![T::NEG_INF; self.p * self.lanes];
            for (q, &sc) in self.seq.iter().enumerate() {
                row[(q % self.p) * self.lanes + q / self.p] =
                    T::from_i32(i32::from(self.scheme.subst(sc, c)));
            }
            *slot = Some(row.into_boxed_slice());
        }
        slot.as_deref().unwrap()
    }

    /// Striped buffer index of query element `q`.
    #[inline(always)]
    pub fn index_of(&self, q: usize) -> usize {
        (q % self.p) * self.lanes + q / self.p
    }

    /// Final reduction of a finished pass: scanning live elements in query
    /// order with a strict `>` reproduces the oracle's row-major-first
    /// tie-break — `first_j` holds each row's first column reaching its
    /// max, and the lowest such row wins.
    pub fn reduce(&self, st: &StripedState<T>) -> LinearSwResult {
        let mut best = LinearSwResult {
            best_score: 0,
            best_end: (0, 0),
            hits: st.hits,
        };
        for q in 0..self.m {
            let idx = self.index_of(q);
            let v = st.vmax[idx].to_i32();
            if v > best.best_score {
                best.best_score = v;
                best.best_end = (q + 1, st.first_j[idx] as usize + 1);
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_round_trips_every_query_position() {
        let s = b"ACGTACGTACG"; // 11 elements, lanes=4 -> p=3, one padding lane slot
        let prof = StripedProfile::<_, i16>::new(s, &Scoring::paper(), 4);
        assert_eq!(prof.p, 3);
        let mut seen = vec![false; prof.p * prof.lanes];
        for q in 0..s.len() {
            let idx = prof.index_of(q);
            assert!(!seen[idx], "two query elements mapped to slot {idx}");
            seen[idx] = true;
        }
        assert_eq!(seen.iter().filter(|&&b| b).count(), s.len());
    }

    #[test]
    fn profile_row_scores_match_subst() {
        let s = b"ACGTT";
        let sc = Scoring::paper();
        let mut prof = StripedProfile::<_, i16>::new(s, &sc, 4);
        let row: Vec<i16> = prof.row(b'T').to_vec();
        for (q, &ch) in s.iter().enumerate() {
            assert_eq!(
                i32::from(row[prof.index_of(q)]),
                sc.subst(ch, b'T'),
                "q={q}"
            );
        }
        // Padding slots carry the sentinel.
        let live: Vec<usize> = (0..s.len()).map(|q| prof.index_of(q)).collect();
        for (idx, &slot) in row.iter().enumerate() {
            if !live.contains(&idx) {
                assert_eq!(slot, i16::NEG_INF);
            }
        }
    }

    #[test]
    fn valid_masks_cover_exactly_the_live_lanes() {
        // p=2, q=0..5: stripe 0 holds q = 0,2,4 (lanes 0,1,2); stripe 1
        // holds q = 1,3 (lanes 0,1).
        let prof = StripedProfile::<_, i16>::new(b"ACGTA", &Scoring::paper(), 4);
        assert_eq!(prof.valid[0], 0b00_11_11_11);
        assert_eq!(prof.valid[1], 0b00_00_11_11);
        // An i32 lane is four mask bits wide.
        let wide = StripedProfile::<_, i32>::new(b"ACGTA", &Scoring::paper(), 4);
        assert_eq!(wide.valid, [0x0fff, 0x00ff]);
    }
}
