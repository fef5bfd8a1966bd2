//! The lane-group profile: up to `LANES` queries prepared once and scored
//! against target after target, in whichever lane layout keeps the vector
//! busier for *this* group.
//!
//! The packed layout ([`PackedProfile`], DSA-style) costs `max |q|` vector
//! rows per target column however many lanes are live, so a group of one —
//! the one-query request — pays the full vector for a sixteenth of the
//! work. The striped layout (SSW-style) spreads each query over all lanes
//! and costs `Σ ⌈|q| / LANES⌉` rows per column, each somewhat dearer (the
//! lane rotation and the lazy-F loop). [`GroupProfile::new`] compares the
//! two row counts and builds the cheaper layout; both are bit-identical to
//! [`Scheme::oracle`], so the choice is invisible in the results
//! (DESIGN.md §5.5).

use crate::batch::{admits, score_batch_packed, PackedProfile};
use crate::engine::{dispatch, lanes_of, Elem, StripedScore, StripedState};
use crate::profile::{Scheme, StripedProfile};
use crate::Isa;
use genomedsm_core::linear::LinearSwResult;
use genomedsm_core::scoring::Scoring;

/// κ: what one striped vector row costs in packed vector rows, measured
/// on this host as the group size at which the two layouts cross
/// (DESIGN.md §5.5 has the table).
const STRIPED_ROW_COST: usize = 3;

/// The layout rule: striped iff its vector rows, weighted by κ, undercut
/// the packed layout's `max |q|`. A group with an empty member stays
/// packed, where a fully masked lane already yields the zero result.
fn stripes_win(lens: &[usize], lanes: usize) -> bool {
    let longest = lens.iter().copied().max().unwrap_or(0);
    let striped_rows: usize = lens.iter().map(|len| len.div_ceil(lanes)).sum();
    !lens.contains(&0) && STRIPED_ROW_COST * striped_rows < longest
}

/// Queries striped one after the other over all lanes of element type `T`:
/// a reusable profile each, and one state and gap buffer sized for the
/// longest and re-zeroed per pass.
pub(crate) struct StripedGroup<S: Scheme, T: Elem = i16> {
    isa: Isa,
    profs: Vec<StripedProfile<S, T>>,
    st: StripedState<T>,
    gap: S::Gap<T>,
}

impl<S: Scheme, T: Elem> StripedGroup<S, T> {
    /// Stripes `queries` for `isa`. The caller has checked that `isa` is
    /// available, that no query is empty and that the scheme has a
    /// [`Scheme::column_cap`]. Results are exact whenever admission says so
    /// a priori ([`crate::fits_i16_query`] per query, at `i16`) — or, after
    /// the fact, for every result whose best score is within `T`'s ceiling.
    pub(crate) fn new(queries: &[&[u8]], scheme: &S, isa: Isa) -> Self {
        let lanes = lanes_of::<T>(isa);
        let profs: Vec<_> = queries
            .iter()
            .map(|q| StripedProfile::new(q, scheme, lanes))
            .collect();
        let p = profs.iter().map(|prof| prof.p).max().unwrap_or(0);
        Self {
            isa,
            profs,
            st: StripedState::new(p, lanes, true),
            gap: scheme.gap_state(p * lanes),
        }
    }

    /// One result per query, in order.
    pub(crate) fn score(&mut self, t: &[u8], threshold: i32) -> Vec<LinearSwResult> {
        dispatch(
            self.isa,
            StripedScore {
                profs: &mut self.profs,
                st: &mut self.st,
                gap: &mut self.gap,
                t,
                threshold,
            },
        )
    }
}

/// A lane group of up to `isa.lanes()` queries under scheme `S`, built
/// **once** and reused across every target it is scored against with
/// [`score_group`] — the constructor every batch caller uses. Which lane
/// layout it holds is decided here, from the query lengths and the lane
/// width alone.
pub struct GroupProfile<S: Scheme = Scoring>(Layout<S>);

enum Layout<S: Scheme> {
    Packed(PackedProfile<S>),
    Striped(StripedGroup<S>),
}

impl<S: Scheme> GroupProfile<S> {
    /// Prepares `queries` (at most `isa.lanes()` of them) for `isa`.
    ///
    /// Returns `None` exactly when [`PackedProfile::new`] would: the ISA
    /// is unavailable on this CPU, too many queries, or the scoring
    /// scheme / a query length fails [`crate::fits_i16_query`]. Callers that
    /// need a never-fails path use [`crate::score_batch`].
    pub fn new(queries: &[&[u8]], scheme: &S, isa: Isa) -> Option<Self> {
        let lens: Vec<usize> = queries.iter().map(|q| q.len()).collect();
        let layout = if stripes_win(&lens, isa.lanes()) {
            admits(queries, scheme, isa)
                .then(|| Layout::Striped(StripedGroup::new(queries, scheme, isa)))
        } else {
            PackedProfile::new(queries, scheme, isa).map(Layout::Packed)
        };
        layout.map(Self)
    }

    /// Whether the group runs striped (each query over all lanes) rather
    /// than packed (a query per lane).
    pub fn is_striped(&self) -> bool {
        matches!(self.0, Layout::Striped(_))
    }
}

/// Scores every query of `group` against `t`, one oracle-exact
/// [`LinearSwResult`] per query in the order they were given.
///
/// Scoring mutates only caches and scratch state inside the group, so one
/// group profile can scan an entire database of targets.
pub fn score_group<S: Scheme>(
    group: &mut GroupProfile<S>,
    t: &[u8],
    threshold: i32,
) -> Vec<LinearSwResult> {
    match &mut group.0 {
        Layout::Packed(prof) => score_batch_packed(prof, t, threshold),
        Layout::Striped(striped) => striped.score(t, threshold),
    }
}
