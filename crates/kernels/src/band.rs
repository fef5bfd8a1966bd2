//! Streaming striped scorer for the banded pre-process wavefront.
//!
//! The pre-process strategy (§5) tiles the score matrix into horizontal
//! *bands* of query rows and walks each band left-to-right in column
//! *chunks*, handing the band's bottom row to the band below. That is
//! exactly a striped SW pass over the band's query slice with a non-zero top
//! border, so [`BandScorer`] keeps the striped `H` column and the running
//! per-element max alive across [`advance`](BandScorer::advance) calls and
//! injects the border values the caller computed for the band above.

use crate::engine::{dispatch, hit_floor, BandAdvance, StripedState};
use crate::profile::StripedProfile;
use crate::{fits_i16, Isa, KernelChoice};
use genomedsm_core::scoring::Scoring;

/// Incremental striped scorer for one horizontal band of the wavefront.
pub struct BandScorer {
    isa: Isa,
    st: StripedState,
    prof: StripedProfile<Scoring>,
    thr_minus_1: Option<i16>,
    save_every: Option<usize>,
    band_rows: usize,
}

impl BandScorer {
    /// Builds a scorer for the band holding query slice `band_s`, or `None`
    /// when the striped path does not apply: the caller asked for `scalar`,
    /// asked for `auto` on a machine with no SIMD win, the `threshold` is
    /// not positive (every cell is then a hit, which the striped hit
    /// counter cannot express), or the *full* problem (`full_dims`, whose
    /// border values flow through this band) does not fit i16 lanes.
    /// `None` means "run the scalar loop you
    /// already have" — the scorer never silently approximates.
    ///
    /// `save_every` mirrors the pre-process save interleave: columns whose
    /// absolute index is a multiple of it are de-striped and returned in
    /// full from [`advance`](Self::advance).
    pub fn new(
        choice: KernelChoice,
        band_s: &[u8],
        full_dims: (usize, usize),
        scoring: &Scoring,
        threshold: i32,
        save_every: Option<usize>,
    ) -> Option<Self> {
        let isa = choice.isa()?;
        if band_s.is_empty() || threshold < 1 || !fits_i16(full_dims.0, full_dims.1, scoring) {
            return None;
        }
        let prof = StripedProfile::new(band_s, scoring, isa.lanes());
        let st = StripedState::new(prof.p, prof.lanes, true);
        Some(Self {
            isa,
            st,
            prof,
            thr_minus_1: hit_floor(threshold),
            save_every,
            band_rows: band_s.len(),
        })
    }

    /// Which engine this scorer runs on.
    pub fn isa(&self) -> Isa {
        self.isa
    }

    /// Consumes the next column chunk. `top` carries the border row from
    /// the band above for these columns, with `top[0]` the corner value
    /// `H[row0][first_col - 1]` (all zeros for the top band); `first_col`
    /// is the absolute 1-based matrix column of `chunk[0]`.
    ///
    /// Appends one entry per column to `bottom` (the band's last-row value,
    /// i.e. the border for the band below) and to `col_hits` (threshold
    /// hits inside the band), and pushes any saved full columns onto
    /// `saved` as `(absolute_col, values)`.
    pub fn advance(
        &mut self,
        chunk: &[u8],
        top: &[i32],
        first_col: usize,
        bottom: &mut Vec<i32>,
        col_hits: &mut Vec<u64>,
        saved: &mut Vec<(usize, Vec<i32>)>,
    ) {
        assert_eq!(
            top.len(),
            chunk.len() + 1,
            "top border must cover the chunk plus its corner"
        );
        // `isa` was detected at construction, and `st` and `prof` were built
        // together for its lane width.
        dispatch(
            self.isa,
            BandAdvance {
                st: &mut self.st,
                prof: &mut self.prof,
                chunk,
                top,
                thr_minus_1: self.thr_minus_1,
                bottom,
                col_hits,
                first_col,
                save_every: self.save_every,
                saved,
            },
        )
    }

    /// Best local score seen anywhere in this band so far.
    pub fn best_score(&self) -> i32 {
        let mut best = 0i32;
        for q in 0..self.band_rows {
            best = best.max(i32::from(self.st.vmax[self.prof.index_of(q)]));
        }
        best
    }
}
