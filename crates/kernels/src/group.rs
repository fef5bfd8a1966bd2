//! The lane-group profile: up to twice `LANES` queries prepared once and
//! scored against target after target, in whichever lane layout and lane
//! width keeps the vector busier for *this* group.
//!
//! The packed layout ([`PackedProfile`], DSA-style) costs `max |q|` vector
//! rows per target column however many lanes are live, so a group of one —
//! the one-query request — pays the full vector for a sixteenth of the
//! work. The striped layout (SSW-style) spreads each query over all lanes
//! and costs `Σ ⌈|q| / LANES⌉` rows per column, each somewhat dearer (the
//! lane rotation and the lazy-F loop). For a group of at most `LANES`
//! members [`GroupProfile::new`] compares the two row counts and builds
//! the cheaper layout at `i16`.
//!
//! A wider group — up to twice `LANES`, when every parameter of the
//! scheme fits an `i8` lane — is packed one query per `i8` lane: one pass
//! where two `i16` groups would take two. A record whose `i8` pass leaves
//! some member's best score above the 8-bit ceiling is re-scored at `i16`
//! by the half group holding that member; the halves are built on first
//! need and kept for the group's remaining records. Every member passed
//! [`crate::fits_i16_query`], so the re-run is exact, and a member within
//! the ceiling was exact already (lanes are independent alignments). All
//! of it is bit-identical to [`Scheme::oracle`], so the choice is
//! invisible in the results (DESIGN.md §5.5).

use crate::batch::{admits, score_packed, PackedProfile};
use crate::engine::{dispatch, lanes_of, Elem, StripedScore, StripedState};
use crate::profile::{Scheme, StripedProfile};
use crate::Isa;
use genomedsm_core::linear::LinearSwResult;
use genomedsm_core::scoring::Scoring;

/// κ: what one striped vector row costs in packed vector rows, measured
/// on this host as the group size at which the two layouts cross
/// (DESIGN.md §5.5 has the table).
const STRIPED_ROW_COST: usize = 3;

/// Query rows per horizontal strip of a packed pass
/// ([`crate::batch::Strip`]): small enough that a 64-lane `i8` strip's
/// column buffers, `E` strip and live profile slices stay in the 48 KB
/// L1d, tall enough that each column's edge traffic and settle are spread
/// over many rows. Measured, like κ, on a 2-core AVX-512 VM: 8 to 32
/// rows are within a few percent of each other, 16 the fastest, and 64
/// or more lose the gain (DESIGN.md §5.5 has the table).
pub(crate) const PACKED_STRIP_ROWS: usize = 16;

/// The layout rule: striped iff its vector rows, weighted by κ, undercut
/// the packed layout's `max |q|`. A group with an empty member stays
/// packed, where a fully masked lane already yields the zero result.
fn stripes_win(lens: &[usize], lanes: usize) -> bool {
    let longest = lens.iter().copied().max().unwrap_or(0);
    let striped_rows: usize = lens.iter().map(|len| len.div_ceil(lanes)).sum();
    !lens.contains(&0) && STRIPED_ROW_COST * striped_rows < longest
}

/// The most members a group under `scheme` may have on `isa`: a query
/// per `i8` lane when every parameter of the scheme fits one, a query per
/// `i16` lane otherwise. Within the 8-bit ceiling, the padding sentinel
/// (`i8::MIN`) stays below every real value and the `H + gap_open`
/// re-open branch above everything that saturated low.
pub(crate) fn group_width<S: Scheme>(isa: Isa, scheme: &S) -> usize {
    let fits_i8 =
        scheme.column_cap().is_some() && scheme.param_bound() <= <i8 as Elem>::CEILING as u32;
    if fits_i8 {
        lanes_of::<i8>(isa)
    } else {
        isa.lanes()
    }
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
            st: StripedState::new(p, lanes),
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

/// A lane group of up to [`crate::group_lanes`] queries under scheme `S`,
/// built **once** and reused across every target it is scored against with
/// [`score_group`] — the constructor every batch caller uses. Which lane
/// layout and width it holds is decided here, from the query lengths, the
/// scheme's parameters and the lane count alone.
pub struct GroupProfile<S: Scheme = Scoring>(Layout<S>);

enum Layout<S: Scheme> {
    Packed(PackedProfile<S>),
    Striped(StripedGroup<S>),
    Narrow(NarrowGroup<S>),
}

/// More than `isa.lanes()` queries packed one per `i8` lane, and the
/// `i16` half groups that re-score a record the `i8` pass saturated on.
struct NarrowGroup<S: Scheme> {
    prof: PackedProfile<S, i8>,
    /// Empty until a record first saturates; then `isa.lanes()` members
    /// each, in lane order.
    halves: Vec<GroupProfile<S>>,
    /// Records re-scored at `i16` so far.
    reruns: u64,
}

impl<S: Scheme> NarrowGroup<S> {
    fn score(&mut self, t: &[u8], threshold: i32) -> Vec<LinearSwResult> {
        let saturated = |r: &LinearSwResult| r.best_score > <i8 as Elem>::CEILING;
        let mut out = score_packed(&mut self.prof, t, threshold);
        if !out.iter().any(saturated) {
            return out;
        }
        self.reruns += 1;
        let (isa, lanes) = (self.prof.isa(), self.prof.isa().lanes());
        if self.halves.is_empty() {
            let scheme = *self.prof.scheme();
            self.halves = self
                .prof
                .queries()
                .chunks(lanes)
                .map(|half| {
                    GroupProfile::new(half, &scheme, isa).expect("a narrow group's halves fit i16")
                })
                .collect();
        }
        for (half, slots) in self.halves.iter_mut().zip(out.chunks_mut(lanes)) {
            if slots.iter().any(saturated) {
                slots.clone_from_slice(&score_group(half, t, threshold));
            }
        }
        out
    }
}

impl<S: Scheme> GroupProfile<S> {
    /// Prepares `queries` (at most [`crate::group_lanes`] of them) for
    /// `isa`: at most `isa.lanes()` striped or packed at `i16`, more
    /// packed at `i8`.
    ///
    /// Returns `None` when the group is not exactly representable: the ISA
    /// is unavailable on this CPU, too many queries, or the scoring
    /// scheme / a query length fails [`crate::fits_i16_query`]. Callers
    /// that need a never-fails path use [`crate::score_batch`].
    pub fn new(queries: &[&[u8]], scheme: &S, isa: Isa) -> Option<Self> {
        if !admits(queries, scheme, isa, group_width(isa, scheme)) {
            return None;
        }
        let lens: Vec<usize> = queries.iter().map(|q| q.len()).collect();
        let layout = if queries.len() > isa.lanes() {
            Layout::Narrow(NarrowGroup {
                prof: PackedProfile::pack(queries, scheme, isa),
                halves: Vec::new(),
                reruns: 0,
            })
        } else if stripes_win(&lens, isa.lanes()) {
            Layout::Striped(StripedGroup::new(queries, scheme, isa))
        } else {
            Layout::Packed(PackedProfile::pack(queries, scheme, isa))
        };
        Some(Self(layout))
    }

    /// Whether the group runs striped (each query over all lanes) rather
    /// than packed (a query per lane).
    pub fn is_striped(&self) -> bool {
        matches!(self.0, Layout::Striped(_))
    }

    /// Whether the group runs packed on `i8` lanes, re-scoring at `i16`
    /// what saturates.
    pub fn is_narrow(&self) -> bool {
        matches!(self.0, Layout::Narrow(_))
    }

    /// Records this group re-scored at `i16` so far, because its `i8` pass
    /// saturated on them (always 0 for an `i16` group).
    pub fn reruns(&self) -> u64 {
        match &self.0 {
            Layout::Narrow(narrow) => narrow.reruns,
            Layout::Packed(_) | Layout::Striped(_) => 0,
        }
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
        Layout::Packed(prof) => score_packed(prof, t, threshold),
        Layout::Striped(striped) => striped.score(t, threshold),
        Layout::Narrow(narrow) => narrow.score(t, threshold),
    }
}
