//! Streaming striped scorer for the banded pre-process wavefront.
//!
//! The pre-process strategy (§5) tiles the score matrix into horizontal
//! *bands* of query rows and walks each band left-to-right in column
//! *chunks*, handing the band's bottom row to the band below. That is
//! exactly a striped SW pass over the band's query slice with a non-zero top
//! border, so [`BandScorer`] keeps the striped `H` column and the running
//! per-element max alive across [`advance`](BandScorer::advance) calls and
//! injects the border values the caller computed for the band above.
//!
//! # The width ladder, per unit
//!
//! One `advance` call is one wavefront unit, and lane width is decided per
//! unit from the data, not per problem from its dimensions. A unit first
//! runs on `i16` lanes from a snapshot of the carried column; if a border
//! value handed in or any `H` written exceeds the `i16` ceiling
//! ([`crate::engine`] has the argument for why that test is exact), whatever
//! the attempt appended to the caller's vectors is truncated away, the
//! snapshot is widened and *that unit* re-runs on `i32` lanes. A band that
//! has widened stays wide until it ends (DESIGN.md §5.5 has the measurement
//! behind that choice); its neighbours, and the next band on the same
//! node, start narrow again. The caller sees none of it: borders are `i32`
//! either way.

use crate::engine::{dispatch, lanes_of, BandAdvance, BandUnit, Elem, StripedState};
use crate::profile::StripedProfile;
use crate::{fits, Isa, KernelChoice, Rung};
use genomedsm_core::scoring::Scoring;

/// The band's carried state and profile at one lane width.
struct Lanes<T: Elem> {
    st: StripedState<T>,
    prof: StripedProfile<Scoring, T>,
}

impl<T: Elem> Lanes<T> {
    fn new(band_s: &[u8], scoring: &Scoring, isa: Isa) -> Self {
        let prof = StripedProfile::new(band_s, scoring, lanes_of::<T>(isa));
        let st = StripedState::new(prof.p, prof.lanes);
        Self { st, prof }
    }

    /// Runs one unit at this width. `isa` was detected when the scorer was
    /// built, and `st` and `prof` were built together for its lanes of `T`.
    fn run(&mut self, isa: Isa, unit: &mut BandUnit<'_>) {
        dispatch(
            isa,
            BandAdvance {
                st: &mut self.st,
                prof: &mut self.prof,
                unit,
            },
        )
    }

    /// The running maximum over the band's own rows.
    fn best(&self) -> i32 {
        let live = (0..self.prof.m).map(|q| self.st.vmax[self.prof.index_of(q)].to_i32());
        live.max().unwrap_or(0)
    }
}

/// Incremental striped scorer for one horizontal band of the wavefront.
pub struct BandScorer {
    isa: Isa,
    threshold: i32,
    save_every: Option<usize>,
    narrow: Lanes<i16>,
    /// The `i32` rung: built by the first unit that needs it, and from
    /// then on where the band is carried.
    wide: Option<Lanes<i32>>,
    /// The narrow `ph` and `vmax` as the unit in flight found them.
    snap_ph: Vec<i16>,
    snap_vmax: Vec<i16>,
    /// Units answered per rung, indexed by `Rung as usize`.
    units: [u64; 3],
}

impl BandScorer {
    /// Builds a scorer for the band holding query slice `band_s`, or `None`
    /// when the striped path does not apply: the caller asked for `scalar`,
    /// asked for `auto` on a machine with no SIMD win, the `threshold` is
    /// not positive (every cell is then a hit, which the striped hit
    /// counter cannot express), or the *full* problem (`full_dims`, whose
    /// border values flow through this band) could outgrow even `i32`
    /// lanes or is scored under a scheme [`Scheme::column_cap`] calls
    /// degenerate. `None` means "run the scalar loop you already have" —
    /// the scorer never silently approximates.
    ///
    /// `save_every` mirrors the pre-process save interleave: columns whose
    /// absolute index is a multiple of it are de-striped and returned in
    /// full from [`advance`](Self::advance).
    ///
    /// [`Scheme::column_cap`]: crate::Scheme::column_cap
    pub fn new(
        choice: KernelChoice,
        band_s: &[u8],
        full_dims: (usize, usize),
        scoring: &Scoring,
        threshold: i32,
        save_every: Option<usize>,
    ) -> Option<Self> {
        Self::on(
            choice.isa()?,
            band_s,
            full_dims,
            scoring,
            threshold,
            save_every,
        )
    }

    /// [`new`](Self::new) on a given (available) engine.
    fn on(
        isa: Isa,
        band_s: &[u8],
        full_dims: (usize, usize),
        scoring: &Scoring,
        threshold: i32,
        save_every: Option<usize>,
    ) -> Option<Self> {
        if band_s.is_empty() || threshold < 1 || !fits::<i32, _>(full_dims.0, full_dims.1, scoring)
        {
            return None;
        }
        Some(Self {
            isa,
            threshold,
            save_every,
            narrow: Lanes::new(band_s, scoring, isa),
            wide: None,
            snap_ph: Vec::new(),
            snap_vmax: Vec::new(),
            units: [0; 3],
        })
    }

    /// Which engine this scorer runs on.
    pub fn isa(&self) -> Isa {
        self.isa
    }

    /// How many [`advance`](Self::advance) calls each rung of the ladder
    /// answered, indexed by `Rung as usize`; a unit that was re-run counts
    /// once, on `i32`, and none is ever answered by the scalar oracle.
    pub fn units(&self) -> [u64; 3] {
        self.units
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
        let mark = (bottom.len(), col_hits.len(), saved.len());
        let mut unit = BandUnit {
            chunk,
            top,
            threshold: self.threshold,
            bottom,
            col_hits,
            first_col,
            save_every: self.save_every,
            saved,
        };
        if self.wide.is_none() {
            let narrow = &mut self.narrow;
            // A border is the one input the after-the-fact test cannot see.
            if top.iter().all(|&v| v <= <i16 as Elem>::CEILING) {
                self.snap_ph.clone_from(&narrow.st.ph);
                self.snap_vmax.clone_from(&narrow.st.vmax);
                narrow.run(self.isa, &mut unit);
                if !narrow.st.saturated() {
                    self.units[Rung::I16 as usize] += 1;
                    return;
                }
                unit.bottom.truncate(mark.0);
                unit.col_hits.truncate(mark.1);
                unit.saved.truncate(mark.2);
                narrow.st.ph.copy_from_slice(&self.snap_ph);
                narrow.st.vmax.copy_from_slice(&self.snap_vmax);
            }
            self.wide = Some(self.widened());
        }
        let wide = self.wide.as_mut().expect("set just above");
        wide.run(self.isa, &mut unit);
        self.units[Rung::I32 as usize] += 1;
    }

    /// The narrow rung's carried column and running maxima, element by
    /// element, in the `i32` rung's (differently striped) layout.
    fn widened(&self) -> Lanes<i32> {
        let narrow = &self.narrow;
        let mut wide = Lanes::<i32>::new(narrow.prof.seq(), &narrow.prof.scheme, self.isa);
        for q in 0..narrow.prof.m {
            let (from, to) = (narrow.prof.index_of(q), wide.prof.index_of(q));
            wide.st.ph[to] = i32::from(narrow.st.ph[from]);
            wide.st.vmax[to] = i32::from(narrow.st.vmax[from]);
        }
        wide
    }

    /// Best local score seen anywhere in this band so far.
    pub fn best_score(&self) -> i32 {
        match &self.wide {
            Some(wide) => wide.best(),
            None => self.narrow.best(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SC: Scoring = Scoring::paper();

    /// One unit by the plain recurrence, from a zero left column: bottom
    /// border, hits per column and the best cell.
    fn scalar_unit(rows: &[u8], chunk: &[u8], top: &[i32], thr: i32) -> (Vec<i32>, Vec<u64>, i32) {
        let (mut bottom, mut hits, mut best) = (Vec::new(), Vec::new(), 0);
        let mut left = vec![0i32; rows.len() + 1];
        left[0] = top[0];
        for (jj, &tc) in chunk.iter().enumerate() {
            let mut cur = vec![top[jj + 1]];
            for (i, &sc) in rows.iter().enumerate() {
                let diag = left[i] + SC.subst(sc, tc);
                cur.push(diag.max(left[i + 1] + SC.gap).max(cur[i] + SC.gap).max(0));
            }
            hits.push(cur[1..].iter().filter(|&&h| h >= thr).count() as u64);
            best = best.max(cur[1..].iter().copied().max().unwrap_or(0));
            bottom.push(cur[rows.len()]);
            left = cur;
        }
        (bottom, hits, best)
    }

    #[test]
    fn a_border_past_the_i16_ceiling_starts_the_unit_wide_on_every_engine() {
        // `top[j] as i16` used to wrap 40 000 to -25 536; only the a-priori
        // gate kept such a border from ever arriving. The band is fresh, so
        // nothing but the border can tell the scorer to start on i32 lanes.
        let rows = b"GACGGATTAGGTACCAGGATTTACCAGAT";
        let chunk = b"GATCGGAATAGGGACCATTTACCA";
        for (border, thr) in [(40_000, 39_990), (31_995, 31_990)] {
            let top = vec![border; chunk.len() + 1];
            let want = scalar_unit(rows, chunk, &top, thr);
            assert!(want.2 > 32_000 && want.1.iter().sum::<u64>() > 0);
            for isa in Isa::ALL.into_iter().filter(|isa| isa.available()) {
                let dims = (50_000, 50_000);
                let mut scorer = BandScorer::on(isa, rows, dims, &SC, thr, None).unwrap();
                let (mut bottom, mut hits, mut saved) = (Vec::new(), Vec::new(), Vec::new());
                scorer.advance(chunk, &top, 1, &mut bottom, &mut hits, &mut saved);
                let what = format!("{} border {border}", isa.name());
                assert_eq!((&bottom, &hits), (&want.0, &want.1), "{what}");
                assert_eq!(scorer.best_score(), want.2, "{what}");
                // 31 995 is a legal i16 border, but the first match on it
                // is not a legal i16 cell: that attempt must be discarded.
                assert_eq!(scorer.units(), [0, 1, 0], "{what}");
            }
        }
    }
}
