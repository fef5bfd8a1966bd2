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
//! # Exactness
//!
//! The routines here are bit-exact against `sw_score_linear` (score, end
//! point with the same row-major-first tie-break, and threshold hit count)
//! whenever [`crate::fits_i16`] admits the problem; the public wrappers fall
//! back to the scalar oracle otherwise, so saturation can never corrupt a
//! result.

use crate::profile::{Scheme, StripedProfile, NEG_INF};
use crate::scalar::Portable;
use crate::Isa;
use genomedsm_core::linear::LinearSwResult;
use genomedsm_core::scoring::Scoring;

/// Minimal SIMD vocabulary the striped recurrence needs.
///
/// All operations are `unsafe fn` because the x86 backends lower to
/// `target_feature` intrinsics; the portable backend implements them safely.
///
/// # Safety
/// Every method shares one contract: the caller must ensure the engine's
/// ISA is enabled in the calling context (via runtime detection plus a
/// `#[target_feature]` wrapper, as the backends do), and `load`/`store`
/// pointers must be valid for `LANES` consecutive `i16` reads/writes.
///
/// `pub` (like the two state types) only so the public [`Scheme`] trait may
/// name it in its column signatures; this module is private, so none of
/// them is reachable from outside the crate.
pub trait Engine: Copy {
    /// Number of i16 lanes per vector.
    const LANES: usize;
    /// Vector register type.
    type V: Copy;

    /// Broadcast `x` to all lanes.
    ///
    /// # Safety
    /// The trait-level ISA contract must hold.
    unsafe fn splat(x: i16) -> Self::V;
    /// Unaligned load of `LANES` i16 values.
    ///
    /// # Safety
    /// The trait-level ISA contract must hold and `src` must be valid for
    /// `LANES` consecutive `i16` reads.
    unsafe fn load(src: *const i16) -> Self::V;
    /// Unaligned store of `LANES` i16 values.
    ///
    /// # Safety
    /// The trait-level ISA contract must hold and `dst` must be valid for
    /// `LANES` consecutive `i16` writes.
    unsafe fn store(dst: *mut i16, v: Self::V);
    /// Lane-wise saturating add.
    ///
    /// # Safety
    /// The trait-level ISA contract must hold.
    unsafe fn adds(a: Self::V, b: Self::V) -> Self::V;
    /// Lane-wise saturating subtract.
    ///
    /// # Safety
    /// The trait-level ISA contract must hold.
    unsafe fn subs(a: Self::V, b: Self::V) -> Self::V;
    /// Lane-wise signed max.
    ///
    /// # Safety
    /// The trait-level ISA contract must hold.
    unsafe fn max(a: Self::V, b: Self::V) -> Self::V;
    /// `movemask_epi8`-style byte mask of `a > b` (two bits per i16 lane,
    /// lane `l` occupying bits `2l` and `2l+1`). Zero iff no lane is greater.
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
    unsafe fn shift_in(v: Self::V, first: i16) -> Self::V;
}

/// A whole kernel pass, generic over the engine it will run on: the unit
/// [`dispatch`] hands to an ISA.
pub(crate) trait Pass {
    /// What the pass returns.
    type Out;

    /// Runs the pass on engine `E`. Implementations are `#[inline(always)]`
    /// so the body compiles inside the calling `#[target_feature]` shell.
    ///
    /// # Safety
    /// `E`'s ISA must be enabled in the calling context.
    unsafe fn run<E: Engine>(self) -> Self::Out;
}

/// Runs `pass` on `isa`'s engine.
///
/// # Panics
/// If the running CPU lacks `isa` (every caller picks it from
/// [`Isa::best_available`] or checks [`Isa::available`] first).
pub(crate) fn dispatch<P: Pass>(isa: Isa, pass: P) -> P::Out {
    assert!(isa.available(), "{} is not available here", isa.name());
    match isa {
        // SAFETY: the portable engine has no ISA requirement.
        Isa::Portable => unsafe { pass.run::<Portable>() },
        // SAFETY: available() above detected SSE2 at runtime, which is the
        // shell's target_feature contract.
        #[cfg(target_arch = "x86_64")]
        Isa::Sse2 => unsafe { crate::x86::run_sse2(pass) },
        // SAFETY: as above — available() detected AVX2.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { crate::x86::run_avx2(pass) },
        #[cfg(not(target_arch = "x86_64"))]
        Isa::Sse2 | Isa::Avx2 => unreachable!("Isa::available is false off x86_64"),
    }
}

/// The hit test `H > threshold - 1` as an i16 operand. Hits are only
/// counted for positive thresholds (matching the scalar oracle); a
/// threshold above the i16 range can never be reached by an admitted
/// problem, so it degenerates to "count nothing".
pub(crate) fn hit_floor(threshold: i32) -> Option<i16> {
    (threshold > 0 && threshold <= i32::from(i16::MAX)).then(|| (threshold - 1) as i16)
}

/// Mutable per-alignment state shared by all engines (plain i16 buffers in
/// striped order; the engine only dictates the lane width they are read
/// with).
pub struct StripedState {
    /// Stripes per column.
    pub p: usize,
    /// Lane width the buffers are striped for.
    pub lanes: usize,
    /// Previous column's `H` (the "load" buffer).
    pub ph: Vec<i16>,
    /// Current column's `H` (the "store" buffer).
    pub ch: Vec<i16>,
    /// Running per-element maximum over all columns seen so far.
    pub vmax: Vec<i16>,
    /// Column index (0-based) of the first strict improvement that set the
    /// current `vmax` value for each element; tracked only in argmax mode.
    pub first_j: Vec<u64>,
    /// Accumulated threshold hits over live elements.
    pub hits: u64,
    scratch: Vec<i16>,
}

impl StripedState {
    pub fn new(p: usize, lanes: usize, track_argmax: bool) -> Self {
        let n = p * lanes;
        Self {
            p,
            lanes,
            ph: vec![0; n],
            ch: vec![0; n],
            vmax: vec![0; n],
            first_j: if track_argmax { vec![0; n] } else { Vec::new() },
            hits: 0,
            scratch: vec![0; n],
        }
    }

    /// Returns an argmax-tracking state to what `new(p, lanes, true)`
    /// builds, for a fresh pass of a `p`-stripe query: the buffers are
    /// re-zeroed in place, so a state built for a group's longest query
    /// serves every member and every target without reallocating.
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
            buf.resize(n, 0);
        }
        self.first_j.clear();
        self.first_j.resize(n, 0);
    }

    /// Makes the just-computed column the "previous" one.
    #[inline(always)]
    pub fn flip(&mut self) {
        std::mem::swap(&mut self.ph, &mut self.ch);
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
    st: &mut StripedState,
    prof_row: &[i16],
    gap: i16,
    diag0: i16,
    f0: i16,
) {
    let p = st.p;
    let l = E::LANES;
    debug_assert_eq!(l, st.lanes);
    debug_assert_eq!(prof_row.len(), p * l);
    let vgap = E::splat(gap);
    let vzero = E::splat(0);
    let mut vf = E::splat(NEG_INF);
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
            vf = E::shift_in(vf, NEG_INF);
        }
    }
}

/// Post-column statistics pass over `st.ch`: threshold hits (live lanes
/// only) and, in argmax mode, the running per-element max plus the column
/// of its first strict improvement.
///
/// # Safety
/// Same contract as [`column`]; additionally `valid` must cover all `p`
/// stripes of `st`.
#[inline(always)]
pub(crate) unsafe fn stats<E: Engine>(
    st: &mut StripedState,
    valid: &[u64],
    thr_minus_1: Option<i16>,
    track_argmax: bool,
    j0: usize,
) {
    let p = st.p;
    let l = E::LANES;
    let vthr = thr_minus_1.map(|x| E::splat(x));
    for (k, &vmask) in valid.iter().enumerate().take(p) {
        let off = k * l;
        let vh = E::load(st.ch.as_ptr().add(off));
        if let Some(vt) = vthr {
            let m = E::gt_bytes(vh, vt) & vmask;
            st.hits += u64::from(m.count_ones() / 2);
        }
        if track_argmax {
            let vm = E::load(st.vmax.as_ptr().add(off));
            let improved = E::gt_bytes(vh, vm);
            if improved != 0 {
                E::store(st.vmax.as_mut_ptr().add(off), E::max(vm, vh));
                // Rare scalar fixup: record the first column each element's
                // running max changed in (strict `>` keeps the earliest).
                let mut bits = improved;
                while bits != 0 {
                    let lane = bits.trailing_zeros() as usize / 2;
                    st.first_j[off + lane] = j0 as u64;
                    bits &= !(0b11u64 << (lane * 2));
                }
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
pub(crate) unsafe fn extract<E: Engine>(st: &mut StripedState, q: usize) -> i16 {
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
pub(crate) unsafe fn destripe_column<E: Engine>(st: &StripedState, m: usize, out: &mut [i32]) {
    debug_assert!(out.len() >= m);
    for (q, slot) in out.iter_mut().enumerate().take(m) {
        *slot = i32::from(st.ch[(q % st.p) * st.lanes + q / st.p]);
    }
}

/// Full striped local-alignment passes of a lane group's queries over `t`,
/// one after the other through the same state: one result per profile, in
/// order, each exact against the scheme's oracle.
pub(crate) struct StripedScore<'a, S: Scheme> {
    pub profs: &'a mut [StripedProfile<S>],
    /// Reset per profile, never reallocated once it has held the longest.
    pub st: &'a mut StripedState,
    pub gap: &'a mut S::Gap,
    pub t: &'a [u8],
    pub threshold: i32,
}

impl<S: Scheme> Pass for StripedScore<'_, S> {
    type Out = Vec<LinearSwResult>;

    // SAFETY: the caller enables E's ISA; the asserts pin the lane width
    // every buffer below is striped for.
    #[inline(always)]
    unsafe fn run<E: Engine>(self) -> Vec<LinearSwResult> {
        let Self {
            profs,
            st,
            gap,
            t,
            threshold,
        } = self;
        assert_eq!(E::LANES, st.lanes);
        let thr = hit_floor(threshold);
        let mut out = Vec::with_capacity(profs.len());
        for prof in profs {
            assert_eq!(E::LANES, prof.lanes);
            st.reset(prof.p);
            prof.scheme.reset_gap(gap, prof.p * prof.lanes);
            for (j0, &c) in t.iter().enumerate() {
                let row = prof.row(c);
                S::striped_column::<E>(gap, st, row);
                stats::<E>(st, &prof.valid, thr, true, j0);
                st.flip();
            }
            out.push(prof.reduce(st));
        }
        out
    }
}

/// Advances a banded wavefront state across one horizontal chunk of the
/// database sequence, injecting the top border row computed by the band
/// above (`top[0]` is the corner `H[row0][first_col-1]`). Linear gaps
/// only: no caller has an affine band.
pub(crate) struct BandAdvance<'a> {
    pub st: &'a mut StripedState,
    pub prof: &'a mut StripedProfile<Scoring>,
    pub chunk: &'a [u8],
    pub top: &'a [i32],
    pub thr_minus_1: Option<i16>,
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

impl Pass for BandAdvance<'_> {
    type Out = ();

    // SAFETY: the caller enables E's ISA; the assert pins the lane width
    // `st` and `prof` were built for.
    #[inline(always)]
    unsafe fn run<E: Engine>(self) {
        let Self {
            st,
            prof,
            chunk,
            top,
            thr_minus_1,
            bottom,
            col_hits,
            first_col,
            save_every,
            saved,
        } = self;
        assert_eq!(E::LANES, prof.lanes);
        debug_assert_eq!(top.len(), chunk.len() + 1);
        let gap: i16 = prof.scheme.gap_state(0);
        let m = prof.m;
        for (jj, &c) in chunk.iter().enumerate() {
            let row = prof.row(c);
            let diag0 = top[jj] as i16;
            let f0 = (top[jj + 1] as i16).saturating_sub(gap);
            column::<E>(st, row, gap, diag0, f0);
            let hits_before = st.hits;
            stats::<E>(st, &prof.valid, thr_minus_1, true, 0);
            col_hits.push(st.hits - hits_before);
            bottom.push(i32::from(extract::<E>(st, m - 1)));
            if let Some(every) = save_every {
                let abs = first_col + jj;
                if abs.is_multiple_of(every) {
                    let mut col = vec![0i32; m];
                    destripe_column::<E>(st, m, &mut col);
                    saved.push((abs, col));
                }
            }
            st.flip();
        }
    }
}
