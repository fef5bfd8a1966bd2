//! The engine abstraction and the generic striped Smith–Waterman recurrence.
//!
//! Everything algorithmic lives here, written once against the tiny
//! [`Engine`] vector vocabulary and the [`Scheme`] being scored. The ISA
//! backends ([`crate::scalar`], [`crate::x86`]) only implement `Engine`;
//! [`dispatch`] is the one place a runtime [`Isa`] becomes an engine type,
//! through one `#[target_feature]` shell per x86 engine that a whole
//! [`Pass`] monomorphizes inside.
//!
//! # Why the linear-gap recurrence needs no `E` array
//!
//! With a single gap penalty `g` (open == extend), the affine horizontal
//! state collapses: `E[i][j] = H[i][j-1] - g` exactly, so the "left"
//! contribution is read straight from the previous column. Only the vertical
//! chain (`F`) needs Farrar's lazy-loop fixup, because it runs *within* the
//! current column across stripe boundaries.
//!
//! # Exactness and the width ladder
//!
//! Lane width is the engine's element type ([`Elem`]): `i8` and `i16`
//! (saturating arithmetic; four and two times the `i32` lane count) or
//! `i32`. A pass is bit-exact against the scheme's oracle (score, end
//! point with the same row-major-first tie-break, threshold hit count)
//! whenever every value that entered it and every `H` it wrote is at most
//! [`Elem::CEILING`], and that is checked *after* the pass, from the
//! values themselves: `H` is a `max` over its candidates, so a saturating
//! add that clipped leaves the type's maximum in the `H` it fed and in the
//! running maximum the statistics pass keeps anyway.
//! No `H` above the ceiling therefore means no add ever clipped. (Values
//! that saturate *low* — the `NEG_INF` chains of `F`, an affine `E` — are
//! negative before and after clipping and lose to `0` or to the
//! `H + gap_open` re-open branch wherever they are consumed.) The callers
//! ([`crate::BandScorer`] per wavefront unit, [`crate::StripedKernel`] per
//! pair) run `i16` first and re-run at `i32` what failed the check; only
//! the widest rung is admitted a priori, from `min(m, n) · column_cap`.
//!
//! The `i8` rung exists in the packed (query-per-lane) layout only, where
//! the lanes are independent alignments and the same argument holds per
//! lane: a lane whose best score is within the 8-bit ceiling is exact.
//! [`crate::GroupProfile`] runs a group of up to twice the `i16` lane count
//! on `i8` lanes and re-scores at `i16` the records whose pass saturated;
//! the batch planner admits every member at `i16` a priori, so that re-run
//! is always exact.

use crate::profile::{Scheme, StripedProfile};
use crate::Isa;
use genomedsm_core::linear::LinearSwResult;
use genomedsm_core::scoring::Scoring;

/// A lane element type: one rung of the width ladder.
///
/// `pub` for the same reason as [`Engine`]; implemented for `i8`, `i16`
/// and `i32` only. The bit operations are what the portable engine's lane
/// masks are made of.
pub trait Elem:
    Copy
    + Default
    + Ord
    + std::fmt::Debug
    + std::ops::BitAnd<Output = Self>
    + std::ops::Not<Output = Self>
{
    /// The portable engine at this width.
    type Portable: Engine<T = Self>;
    /// The 128-bit engine at this width.
    #[cfg(target_arch = "x86_64")]
    type Sse2: Engine<T = Self>;
    /// The 256-bit engine at this width.
    #[cfg(target_arch = "x86_64")]
    type Avx2: Engine<T = Self>;
    /// The 512-bit engine at this width.
    #[cfg(target_arch = "x86_64")]
    type Avx512: Engine<T = Self>;

    /// Bytes per element, which is also the bits per lane of an
    /// [`Engine::gt_bytes`] mask.
    const BYTES: usize;
    /// The zero boundary.
    const ZERO: Self;
    /// Sentinel for padding lanes (`q >= m`) and "no value" boundaries:
    /// low enough that adding any cell value to it stays negative, and far
    /// enough above the type's minimum that the gap chains subtracted from
    /// it neither wrap (`i32`) nor matter once they saturate (`i16`; `i8`
    /// has no room to spare and sits at the minimum itself).
    const NEG_INF: Self;
    /// Highest cell value a pass at this width is exact for. Below
    /// `i8::MAX` and `i16::MAX` by a margin nothing depends on; far enough
    /// below `i32::MAX` that `i32` lanes, which have no saturating
    /// instructions, cannot wrap: a lazy-`F` chain dies within
    /// `CEILING / gap` steps of its origin, so nothing ever falls below
    /// `NEG_INF - CEILING -` a penalty or two.
    const CEILING: i32;

    /// `x` at this width; `x` must be representable (a penalty or profile
    /// score within `I16_PARAM_CEILING` — within `CEILING` at `i8` — or a
    /// border value the caller checked against [`CEILING`](Self::CEILING)).
    fn from_i32(x: i32) -> Self;
    /// Widens back to the oracle's cell type.
    fn to_i32(self) -> i32;
    /// Lane addition as the engines do it: saturating for `i8` and `i16`,
    /// plain for `i32` (whose head-room is `CEILING`'s job).
    fn add(self, other: Self) -> Self;
    /// Lane subtraction, likewise.
    fn sub(self, other: Self) -> Self;
}

impl Elem for i8 {
    type Portable = crate::scalar::Portable<i8, 16>;
    #[cfg(target_arch = "x86_64")]
    type Sse2 = crate::x86::Sse2<i8>;
    #[cfg(target_arch = "x86_64")]
    type Avx2 = crate::x86::Avx2<i8>;
    #[cfg(target_arch = "x86_64")]
    type Avx512 = crate::x86::Avx512<i8>;

    const BYTES: usize = 1;
    const ZERO: i8 = 0;
    const NEG_INF: i8 = i8::MIN;
    const CEILING: i32 = 120;

    #[inline(always)]
    fn from_i32(x: i32) -> i8 {
        debug_assert!(i8::try_from(x).is_ok(), "{x} does not fit an i8 lane");
        x as i8
    }
    #[inline(always)]
    fn to_i32(self) -> i32 {
        i32::from(self)
    }
    #[inline(always)]
    fn add(self, other: i8) -> i8 {
        self.saturating_add(other)
    }
    #[inline(always)]
    fn sub(self, other: i8) -> i8 {
        self.saturating_sub(other)
    }
}

impl Elem for i16 {
    type Portable = crate::scalar::Portable<i16, 8>;
    #[cfg(target_arch = "x86_64")]
    type Sse2 = crate::x86::Sse2<i16>;
    #[cfg(target_arch = "x86_64")]
    type Avx2 = crate::x86::Avx2<i16>;
    #[cfg(target_arch = "x86_64")]
    type Avx512 = crate::x86::Avx512<i16>;

    const BYTES: usize = 2;
    const ZERO: i16 = 0;
    const NEG_INF: i16 = -30_000;
    const CEILING: i32 = 32_000;

    #[inline(always)]
    fn from_i32(x: i32) -> i16 {
        debug_assert!(i16::try_from(x).is_ok(), "{x} does not fit an i16 lane");
        x as i16
    }
    #[inline(always)]
    fn to_i32(self) -> i32 {
        i32::from(self)
    }
    #[inline(always)]
    fn add(self, other: i16) -> i16 {
        self.saturating_add(other)
    }
    #[inline(always)]
    fn sub(self, other: i16) -> i16 {
        self.saturating_sub(other)
    }
}

impl Elem for i32 {
    type Portable = crate::scalar::Portable<i32, 4>;
    #[cfg(target_arch = "x86_64")]
    type Sse2 = crate::x86::Sse2<i32>;
    #[cfg(target_arch = "x86_64")]
    type Avx2 = crate::x86::Avx2<i32>;
    #[cfg(target_arch = "x86_64")]
    type Avx512 = crate::x86::Avx512<i32>;

    const BYTES: usize = 4;
    const ZERO: i32 = 0;
    const NEG_INF: i32 = i32::MIN / 2;
    const CEILING: i32 = 1_000_000_000;

    #[inline(always)]
    fn from_i32(x: i32) -> i32 {
        x
    }
    #[inline(always)]
    fn to_i32(self) -> i32 {
        self
    }
    // Plain operators: a debug build panics on the overflow CEILING rules out.
    #[inline(always)]
    fn add(self, other: i32) -> i32 {
        self + other
    }
    #[inline(always)]
    fn sub(self, other: i32) -> i32 {
        self - other
    }
}

/// Lanes per vector of `isa` at element width `T` ([`Isa::lanes`] counts
/// `i16` lanes).
pub(crate) fn lanes_of<T: Elem>(isa: Isa) -> usize {
    isa.lanes() * <i16 as Elem>::BYTES / T::BYTES
}

/// The [`Engine::gt_bytes`] bits of lane `lane`.
#[inline(always)]
pub(crate) fn lane_bits<T: Elem>(lane: usize) -> u64 {
    ((1u64 << T::BYTES) - 1) << (lane * T::BYTES)
}

/// Minimal SIMD vocabulary the striped recurrence and the heuristic tile
/// ([`crate::HeuristicTile`]) need.
///
/// All operations are `unsafe fn` because the x86 backends lower to
/// `target_feature` intrinsics; the portable backend implements them safely.
/// A *lane mask* is a vector whose lanes are all ones (true) or zero
/// (false), as [`gt`](Engine::gt) and [`eq`](Engine::eq) make them.
///
/// # Safety
/// Every method shares one contract: the caller must ensure the engine's
/// ISA is enabled in the calling context (via runtime detection plus a
/// `#[target_feature]` wrapper, as the backends do), and `load`/`store`
/// pointers must be valid for `LANES` consecutive `T` reads/writes.
///
/// `pub` (like the two state types) only so the public [`Scheme`] trait may
/// name it in its column signatures; this module is private, so none of
/// them is reachable from outside the crate.
pub trait Engine: Copy {
    /// Lane element type.
    type T: Elem;
    /// Number of `T` lanes per vector.
    const LANES: usize;
    /// Vector register type.
    type V: Copy;

    /// Broadcast `x` to all lanes.
    ///
    /// # Safety
    /// The trait-level ISA contract must hold.
    unsafe fn splat(x: Self::T) -> Self::V;
    /// Unaligned load of `LANES` values.
    ///
    /// # Safety
    /// The trait-level ISA contract must hold and `src` must be valid for
    /// `LANES` consecutive `T` reads.
    unsafe fn load(src: *const Self::T) -> Self::V;
    /// Unaligned store of `LANES` values.
    ///
    /// # Safety
    /// The trait-level ISA contract must hold and `dst` must be valid for
    /// `LANES` consecutive `T` writes.
    unsafe fn store(dst: *mut Self::T, v: Self::V);
    /// Lane-wise [`Elem::add`]: saturating where the width has the
    /// instruction (`i8`, `i16`), plain otherwise.
    ///
    /// # Safety
    /// The trait-level ISA contract must hold.
    unsafe fn adds(a: Self::V, b: Self::V) -> Self::V;
    /// Lane-wise [`Elem::sub`], likewise.
    ///
    /// # Safety
    /// The trait-level ISA contract must hold.
    unsafe fn subs(a: Self::V, b: Self::V) -> Self::V;
    /// Lane-wise signed max.
    ///
    /// # Safety
    /// The trait-level ISA contract must hold.
    unsafe fn max(a: Self::V, b: Self::V) -> Self::V;
    /// Lane-wise signed min.
    ///
    /// # Safety
    /// The trait-level ISA contract must hold.
    unsafe fn min(a: Self::V, b: Self::V) -> Self::V;
    /// The lane mask of `a > b`.
    ///
    /// # Safety
    /// The trait-level ISA contract must hold.
    unsafe fn gt(a: Self::V, b: Self::V) -> Self::V;
    /// The lane mask of `a == b`.
    ///
    /// # Safety
    /// The trait-level ISA contract must hold.
    unsafe fn eq(a: Self::V, b: Self::V) -> Self::V;
    /// Per lane, `a` where the lane mask `m` is true and `b` where it is
    /// false.
    ///
    /// # Safety
    /// The trait-level ISA contract must hold.
    unsafe fn select(m: Self::V, a: Self::V, b: Self::V) -> Self::V;
    /// Bitwise `a & b`.
    ///
    /// # Safety
    /// The trait-level ISA contract must hold.
    unsafe fn and(a: Self::V, b: Self::V) -> Self::V;
    /// Bitwise `!a & b`.
    ///
    /// # Safety
    /// The trait-level ISA contract must hold.
    unsafe fn andnot(a: Self::V, b: Self::V) -> Self::V;
    /// `movemask_epi8`-style byte mask of `a > b` ([`Elem::BYTES`] bits per
    /// lane, lane `l` occupying [`lane_bits`]`(l)`). Zero iff no lane is
    /// greater.
    ///
    /// # Safety
    /// The trait-level ISA contract must hold.
    unsafe fn gt_bytes(a: Self::V, b: Self::V) -> u64;
    /// Shift lanes up by one (`lane l` receives `lane l-1`) inserting
    /// `first` into lane 0. This is the stripe-boundary rotation: lane `l`
    /// of stripe 0 (query `l*p`) depends on lane `l-1` of stripe `p-1`
    /// (query `l*p - 1`).
    ///
    /// # Safety
    /// The trait-level ISA contract must hold.
    unsafe fn shift_in(v: Self::V, first: Self::T) -> Self::V;
}

/// A whole kernel pass at one lane width, generic over the engine it will
/// run on: the unit [`dispatch`] hands to an ISA.
pub(crate) trait Pass {
    /// The lane width the pass's buffers are laid out for.
    type T: Elem;
    /// What the pass returns.
    type Out;

    /// Runs the pass on engine `E`. Implementations are `#[inline(always)]`
    /// so the body compiles inside the calling `#[target_feature]` shell.
    ///
    /// # Safety
    /// `E`'s ISA must be enabled in the calling context.
    unsafe fn run<E: Engine<T = Self::T>>(self) -> Self::Out;
}

/// Runs `pass` on `isa`'s engine for the pass's lane width.
///
/// # Panics
/// If the running CPU lacks `isa` (every caller picks it from
/// [`Isa::best_available`] or checks [`Isa::available`] first).
pub(crate) fn dispatch<P: Pass>(isa: Isa, pass: P) -> P::Out {
    assert!(isa.available(), "{} is not available here", isa.name());
    match isa {
        // SAFETY: the portable engine has no ISA requirement.
        Isa::Portable => unsafe { pass.run::<<P::T as Elem>::Portable>() },
        // SAFETY: available() above detected SSE2 at runtime, which is the
        // shell's target_feature contract.
        #[cfg(target_arch = "x86_64")]
        Isa::Sse2 => unsafe { crate::x86::run_sse2(pass) },
        // SAFETY: as above — available() detected AVX2.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { crate::x86::run_avx2(pass) },
        // SAFETY: as above — available() detected every feature the
        // shell enables.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => unsafe { crate::x86::run_avx512(pass) },
        #[cfg(not(target_arch = "x86_64"))]
        Isa::Sse2 | Isa::Avx2 | Isa::Avx512 => {
            unreachable!("Isa::available is false off x86_64")
        }
    }
}

/// The hit test `H > threshold - 1` as an operand of width `T`. Hits are
/// only counted for positive thresholds (matching the scalar oracle). A
/// threshold above `T`'s ceiling degenerates to "count nothing" *on this
/// rung*: no cell of a pass that is exact at this width reaches it, and a
/// pass that is not gets re-run one rung up, with that rung's floor.
pub(crate) fn hit_floor<T: Elem>(threshold: i32) -> Option<T> {
    (1..=T::CEILING)
        .contains(&threshold)
        .then(|| T::from_i32(threshold - 1))
}

/// Refuses a target of `columns` columns unless every 0-based column
/// index fits the `u32` a pass records end points in (`first_j`, a packed
/// lane's `end`): a record of 2³² columns or more is an error, not a
/// silently wrapped end point.
#[track_caller]
pub(crate) fn assert_columns(columns: usize) {
    assert!(
        u32::try_from(columns).is_ok(),
        "a target of {columns} columns: end points are recorded as u32 column indices"
    );
}

/// Mutable per-alignment state shared by all engines (plain buffers of the
/// lane element type in striped order; the engine only dictates the lane
/// width they are read with).
pub struct StripedState<T> {
    /// Stripes per column.
    pub p: usize,
    /// Lane width the buffers are striped for.
    pub lanes: usize,
    /// Previous column's `H` (the "load" buffer).
    pub ph: Vec<T>,
    /// Current column's `H` (the "store" buffer).
    pub ch: Vec<T>,
    /// Running per-element maximum over all columns seen so far.
    pub vmax: Vec<T>,
    /// Column index (0-based) of the first strict improvement that set the
    /// current `vmax` value for each element, which [`StripedState::reset`]
    /// adds for a full pass's end point; a band's state has none. A `u32`,
    /// so a pass refuses a wider target ([`assert_columns`]).
    pub first_j: Vec<u32>,
    /// Accumulated threshold hits over live elements.
    pub hits: u64,
    scratch: Vec<T>,
}

impl<T: Elem> StripedState<T> {
    pub fn new(p: usize, lanes: usize) -> Self {
        let n = p * lanes;
        Self {
            p,
            lanes,
            ph: vec![T::ZERO; n],
            ch: vec![T::ZERO; n],
            vmax: vec![T::ZERO; n],
            first_j: Vec::new(),
            hits: 0,
            scratch: vec![T::ZERO; n],
        }
    }

    /// Readies the state for a fresh full pass of a `p`-stripe query,
    /// with a zeroed `first_j` for its end point: the buffers are re-zeroed
    /// in place, so a state built for a group's longest query serves every
    /// member and every target without reallocating.
    pub fn reset(&mut self, p: usize) {
        let n = p * self.lanes;
        self.p = p;
        self.hits = 0;
        for buf in [
            &mut self.ph,
            &mut self.ch,
            &mut self.vmax,
            &mut self.scratch,
        ] {
            buf.clear();
            buf.resize(n, T::ZERO);
        }
        self.first_j.clear();
        self.first_j.resize(n, 0);
    }

    /// Makes the just-computed column the "previous" one.
    #[inline(always)]
    pub fn flip(&mut self) {
        std::mem::swap(&mut self.ph, &mut self.ch);
    }

    /// Whether some `H` written since the state was fresh exceeds `T`'s
    /// ceiling, i.e. whether the pass so far may have clipped (module
    /// docs). Padding elements are scanned too: they only ever hold
    /// gap-decayed copies of live values.
    pub fn saturated(&self) -> bool {
        self.vmax.iter().any(|v| v.to_i32() > T::CEILING)
    }
}

/// Computes one database column into `st.ch` from `st.ph`.
///
/// `diag0` is the boundary value entering query element 0's diagonal
/// (`H[row0][j-1]`); `f0` is the vertical-gap value entering element 0
/// (`H[row0][j] - gap`). For a plain local alignment both derive from a
/// zero top row; the banded pre-process wavefront injects real border
/// values here.
///
/// # Safety
/// The caller must guarantee the engine's ISA is available on the running
/// CPU (or call this through a `#[target_feature]` wrapper), and `st` must
/// have been built for `E::LANES` lanes with `p` stripes.
#[inline(always)]
pub(crate) unsafe fn column<E: Engine>(
    st: &mut StripedState<E::T>,
    prof_row: &[E::T],
    gap: E::T,
    diag0: E::T,
    f0: E::T,
) {
    let p = st.p;
    let l = E::LANES;
    debug_assert_eq!(l, st.lanes);
    debug_assert_eq!(prof_row.len(), p * l);
    let vgap = E::splat(gap);
    let vzero = E::splat(E::T::ZERO);
    let mut vf = E::splat(E::T::NEG_INF);
    // Diagonal feed for stripe 0: last stripe of the previous column,
    // rotated one lane, with the top-left boundary in lane 0.
    let mut vh = E::shift_in(E::load(st.ph.as_ptr().add((p - 1) * l)), diag0);
    for k in 0..p {
        let off = k * l;
        vh = E::adds(vh, E::load(prof_row.as_ptr().add(off)));
        // Left neighbour: previous column, same element (linear-gap E).
        vh = E::max(vh, E::subs(E::load(st.ph.as_ptr().add(off)), vgap));
        vh = E::max(vh, vf);
        vh = E::max(vh, vzero);
        E::store(st.ch.as_mut_ptr().add(off), vh);
        vf = E::subs(E::max(vf, vh), vgap);
        vh = E::load(st.ph.as_ptr().add(off));
    }
    // Farrar's lazy F: propagate vertical chains across the stripe-0
    // boundary until no lane can still improve. With a linear gap the break
    // test is simply `F <= H` — a chain through an element it cannot raise
    // was already propagated from that element's H in the stripe loop.
    vf = E::shift_in(vf, f0);
    let mut k = 0;
    loop {
        let cur = E::load(st.ch.as_ptr().add(k * l));
        if E::gt_bytes(vf, cur) == 0 {
            break;
        }
        E::store(st.ch.as_mut_ptr().add(k * l), E::max(cur, vf));
        vf = E::subs(vf, vgap);
        k += 1;
        if k == p {
            k = 0;
            vf = E::shift_in(vf, E::T::NEG_INF);
        }
    }
}

/// Post-column statistics pass over `st.ch`, column `j0`: threshold hits
/// (live lanes only), the running per-element max and, in a state that
/// keeps `first_j` (a full pass's), the column of its first strict
/// improvement.
///
/// # Safety
/// Same contract as [`column`]; additionally `valid` must cover all `p`
/// stripes of `st`.
#[inline(always)]
pub(crate) unsafe fn stats<E: Engine>(
    st: &mut StripedState<E::T>,
    valid: &[u64],
    thr_minus_1: Option<E::T>,
    j0: usize,
) {
    let p = st.p;
    let l = E::LANES;
    let lane_width = E::T::BYTES as u32;
    let vthr = thr_minus_1.map(|x| E::splat(x));
    for (k, &vmask) in valid.iter().enumerate().take(p) {
        let off = k * l;
        let vh = E::load(st.ch.as_ptr().add(off));
        if let Some(vt) = vthr {
            let m = E::gt_bytes(vh, vt) & vmask;
            st.hits += u64::from(m.count_ones() / lane_width);
        }
        let vm = E::load(st.vmax.as_ptr().add(off));
        let mut improved = E::gt_bytes(vh, vm);
        if improved != 0 {
            E::store(st.vmax.as_mut_ptr().add(off), E::max(vm, vh));
            if st.first_j.is_empty() {
                continue;
            }
            // Rare scalar fixup: record the first column each element's
            // running max changed in (strict `>` keeps the earliest).
            while improved != 0 {
                let lane = (improved.trailing_zeros() / lane_width) as usize;
                st.first_j[off + lane] = j0 as u32;
                improved &= !lane_bits::<E::T>(lane);
            }
        }
    }
}

/// Reads one element of the current column (pre-`flip`).
///
/// # Safety
/// Same contract as [`column`]; `q` must be a valid query index
/// (`q < p * lanes`).
#[inline(always)]
pub(crate) unsafe fn extract<E: Engine>(st: &mut StripedState<E::T>, q: usize) -> E::T {
    let k = q % st.p;
    let l = q / st.p;
    let v = E::load(st.ch.as_ptr().add(k * E::LANES));
    E::store(st.scratch.as_mut_ptr(), v);
    st.scratch[l]
}

/// De-stripes the current column (pre-`flip`) into `out[0..m]`.
///
/// # Safety
/// Same contract as [`column`]; `m` must not exceed the profile's query
/// length and `out` must hold at least `m` elements.
#[inline(always)]
pub(crate) unsafe fn destripe_column<E: Engine>(
    st: &StripedState<E::T>,
    m: usize,
    out: &mut [i32],
) {
    debug_assert!(out.len() >= m);
    for (q, slot) in out.iter_mut().enumerate().take(m) {
        *slot = st.ch[(q % st.p) * st.lanes + q / st.p].to_i32();
    }
}

/// Full striped local-alignment passes of a lane group's queries over `t`,
/// one after the other through the same state: one result per profile, in
/// order, each exact against the scheme's oracle unless its best score
/// exceeds `T`'s ceiling (module docs).
pub(crate) struct StripedScore<'a, S: Scheme, T: Elem> {
    pub profs: &'a mut [StripedProfile<S, T>],
    /// Reset per profile, never reallocated once it has held the longest.
    pub st: &'a mut StripedState<T>,
    pub gap: &'a mut S::Gap<T>,
    pub t: &'a [u8],
    pub threshold: i32,
}

impl<S: Scheme, T: Elem> Pass for StripedScore<'_, S, T> {
    type T = T;
    type Out = Vec<LinearSwResult>;

    // SAFETY: the caller enables E's ISA; the asserts pin the lane width
    // every buffer below is striped for.
    #[inline(always)]
    unsafe fn run<E: Engine<T = T>>(self) -> Vec<LinearSwResult> {
        let Self {
            profs,
            st,
            gap,
            t,
            threshold,
        } = self;
        assert_eq!(E::LANES, st.lanes);
        assert_columns(t.len());
        let thr = hit_floor(threshold);
        let mut out = Vec::with_capacity(profs.len());
        for prof in profs {
            assert_eq!(E::LANES, prof.lanes);
            st.reset(prof.p);
            prof.scheme.reset_gap(gap, prof.p * prof.lanes);
            for (j0, &c) in t.iter().enumerate() {
                let row = prof.row(c);
                S::striped_column::<E>(gap, st, row);
                stats::<E>(st, &prof.valid, thr, j0);
                st.flip();
            }
            out.push(prof.reduce(st));
        }
        out
    }
}

/// One wavefront unit of a band, independent of the lane width it runs at:
/// a horizontal chunk of the database sequence, the border row computed by
/// the band above, and where the results go.
pub(crate) struct BandUnit<'a> {
    pub chunk: &'a [u8],
    /// `top[0]` is the corner `H[row0][first_col-1]`, `top[1..]` the row
    /// above the chunk's columns.
    pub top: &'a [i32],
    pub threshold: i32,
    /// Per chunk column: `H` of the band's last query row (the bottom
    /// border handed to the next band of the wavefront).
    pub bottom: &'a mut Vec<i32>,
    /// Per chunk column: threshold hits among the band's rows.
    pub col_hits: &'a mut Vec<u64>,
    /// Absolute (1-based) matrix column of `chunk[0]`, used to decide which
    /// columns to de-stripe into `saved`.
    pub first_col: usize,
    /// Save every column whose absolute index is a multiple of this
    /// (`None` = save nothing).
    pub save_every: Option<usize>,
    /// De-striped full band columns `(absolute_col, values)` for the
    /// pre-process save stream.
    pub saved: &'a mut Vec<(usize, Vec<i32>)>,
}

/// Advances a banded wavefront state across one [`BandUnit`] at lane width
/// `T`. Linear gaps only: no caller has an affine band. Every `top` value
/// must be at most `T`'s ceiling — an entry condition the caller checks,
/// because a border is the one input the post-hoc saturation test cannot
/// see.
pub(crate) struct BandAdvance<'a, 'u, T: Elem> {
    pub st: &'a mut StripedState<T>,
    pub prof: &'a mut StripedProfile<Scoring, T>,
    pub unit: &'a mut BandUnit<'u>,
}

impl<T: Elem> Pass for BandAdvance<'_, '_, T> {
    type T = T;
    type Out = ();

    // SAFETY: the caller enables E's ISA; the assert pins the lane width
    // `st` and `prof` were built for.
    #[inline(always)]
    unsafe fn run<E: Engine<T = T>>(self) {
        let Self { st, prof, unit } = self;
        let (chunk, top) = (unit.chunk, unit.top);
        assert_eq!(E::LANES, prof.lanes);
        debug_assert_eq!(top.len(), chunk.len() + 1);
        debug_assert!(top.iter().all(|&v| v <= T::CEILING));
        let thr_minus_1 = hit_floor::<T>(unit.threshold);
        let gap: T = prof.scheme.gap_state(0);
        let m = prof.m;
        for (jj, &c) in chunk.iter().enumerate() {
            let row = prof.row(c);
            let diag0 = T::from_i32(top[jj]);
            let f0 = T::from_i32(top[jj + 1]).sub(gap);
            column::<E>(st, row, gap, diag0, f0);
            let hits_before = st.hits;
            stats::<E>(st, &prof.valid, thr_minus_1, jj);
            unit.col_hits.push(st.hits - hits_before);
            unit.bottom.push(extract::<E>(st, m - 1).to_i32());
            if let Some(every) = unit.save_every {
                let abs = unit.first_col + jj;
                if abs.is_multiple_of(every) {
                    let mut col = vec![0i32; m];
                    destripe_column::<E>(st, m, &mut col);
                    unit.saved.push((abs, col));
                }
            }
            st.flip();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::assert_columns;

    #[test]
    fn a_pass_takes_every_record_whose_column_indices_fit_a_u32() {
        assert_columns(0);
        assert_columns(u32::MAX as usize);
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    #[should_panic(expected = "recorded as u32 column indices")]
    fn a_pass_refuses_a_record_of_2_pow_32_columns() {
        assert_columns(u32::MAX as usize + 1);
    }
}
