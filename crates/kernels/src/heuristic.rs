//! The §4.1 heuristic cell over a whole tile, one anti-diagonal at a time.
//!
//! [`RowKernel::update_cell`] carries a candidate alignment through every
//! cell: score, envelope, begin point, three counters and an open flag.
//! Row by row each cell waits on its left neighbour, so the row kernel is
//! scalar. Along an anti-diagonal no cell depends on another, so
//! [`HeuristicTile`] lays the nine fields out as structure-of-arrays `i32`
//! lanes indexed by tile row — the priority `2·matches + 2·mismatches +
//! gaps` in place of `mismatches`, so that the tie-break reads it instead
//! of summing three counters per predecessor — and runs [`update_cell`]'s
//! logic on a vector of cells at a time, as branch-free selects:
//!
//! * the Eq. 1 maximum over diagonal, vertical and horizontal predecessors
//!   and zero;
//! * the predecessor: among those reaching the maximum the largest
//!   priority, ties to horizontal, then
//!   vertical, then diagonal — a non-achiever's priority becomes `−1`, and
//!   a later origin replaces the pick only when strictly greater;
//! * the counter update, open on a rise, close (and push) on a drop;
//! * the zero cell, which resets every field.
//!
//! Every cell is the row kernel's cell, so the tile's bottom row and right
//! column are bit-identical to a row-by-row pass over the same borders. The
//! open and close selects, and the push of a closed candidate, run only
//! when a lane movemask says some lane opened or closed: both are rare, and
//! skipping an all-false select changes nothing. The pushes come in
//! diagonal order rather than row order, which
//! [`finalize_queue`](genomedsm_core::finalize_queue) does not see.
//!
//! # The priority rung
//!
//! Counters and priorities are `u32`/`u64` in an [`HCell`] and `i32` in a
//! lane. A cell's priority exceeds its predecessor's by at most 2, and a
//! tile's cells are at most `h + w` steps from its borders, so a tile whose
//! inbound priorities stay at most `i32::MAX − 2·(h + w)` — and whose
//! coordinates fit a lane — computes exactly on lanes. A tile that does not
//! runs on [`RowKernel::process_row_segment`] instead: decided per tile from
//! the values handed in, like [`crate::BandScorer`]'s `i16 → i32` step.
//!
//! [`update_cell`]: RowKernel::update_cell

use crate::engine::{dispatch, lane_bits, lanes_of, Engine, Pass};
use crate::{Isa, Rung};
use genomedsm_core::{HCell, LocalRegion, RowKernel};

/// Lane fields of a cell, in the order of [`HCell`]'s.
const SCORE: usize = 0;
const MAX: usize = 1;
const MIN: usize = 2;
const BEG_I: usize = 3;
const BEG_J: usize = 4;
const GAPS: usize = 5;
const MATCHES: usize = 6;
/// `2·matches + 2·mismatches + gaps` in place of `mismatches`, which
/// [`Diagonals::get`] recovers from it.
const PRIORITY: usize = 7;
const OPEN: usize = 8;
const FIELDS: usize = 9;

/// The structure-of-arrays scratch of one tile: three anti-diagonals (the
/// one being computed and the two it reads), each `FIELDS` arrays of
/// `stride` lanes indexed by tile row `0 ..= h` (row 0 the top border), and
/// the per-row and per-column inputs, padded so a vector may run past the
/// end of a diagonal.
#[derive(Debug, Default)]
struct Diagonals {
    stride: usize,
    cells: Vec<i32>,
    /// `s` at tile row `r` (index 0 unused).
    s_rows: Vec<i32>,
    /// `t` at tile column `w − x`, so that a diagonal's columns run forward
    /// with its rows.
    t_rev: Vec<i32>,
    /// `r` at index `r`.
    rows: Vec<i32>,
}

impl Diagonals {
    /// Zeroes the scratch for an `h × w` tile of `s_rows × t_cols` on lanes
    /// `lanes` wide.
    fn prepare(&mut self, s_rows: &[u8], t_cols: &[u8], lanes: usize) {
        let (h, w) = (s_rows.len(), t_cols.len());
        self.stride = h + lanes;
        self.cells.clear();
        self.cells.resize(3 * FIELDS * self.stride, 0);
        let code = |c: &u8| i32::from(*c);
        self.s_rows.clear();
        self.s_rows.push(0);
        self.s_rows.extend(s_rows.iter().map(code));
        self.s_rows.resize(h + lanes, 0);
        self.t_rev.clear();
        self.t_rev.extend(t_cols.iter().rev().map(code));
        self.t_rev.resize(w + lanes, 0);
        if self.rows.len() < h + lanes {
            self.rows = (0..(h + lanes) as i32).collect();
        }
    }

    /// Lane array `field` of the diagonal held in `slot`.
    fn at(&self, slot: usize, field: usize) -> usize {
        (slot * FIELDS + field) * self.stride
    }

    fn put(&mut self, slot: usize, r: usize, cell: &HCell) {
        let lanes = [
            cell.score,
            cell.max,
            cell.min,
            cell.beg_i as i32,
            cell.beg_j as i32,
            cell.gaps as i32,
            cell.matches as i32,
            cell.priority() as i32,
            -i32::from(cell.open),
        ];
        for (field, v) in lanes.into_iter().enumerate() {
            let at = self.at(slot, field) + r;
            self.cells[at] = v;
        }
    }

    fn get(&self, slot: usize, r: usize) -> HCell {
        let f = |field| self.cells[self.at(slot, field) + r];
        let aligned = (f(PRIORITY) - f(GAPS)) / 2;
        HCell {
            score: f(SCORE),
            max: f(MAX),
            min: f(MIN),
            beg_i: f(BEG_I) as u32,
            beg_j: f(BEG_J) as u32,
            gaps: f(GAPS) as u32,
            matches: f(MATCHES) as u32,
            mismatches: (aligned - f(MATCHES)) as u32,
            open: f(OPEN) != 0,
        }
    }
}

/// The exact heuristic tile kernel: an `h × w` block of the §4.1
/// recurrence from its top border and left column, on the widest engine
/// this CPU runs, with reusable scratch (module docs).
#[derive(Debug)]
pub struct HeuristicTile {
    isa: Isa,
    kernel: RowKernel,
    diags: Diagonals,
    /// The row-kernel rung's two rows.
    prev: Vec<HCell>,
    cur: Vec<HCell>,
}

impl HeuristicTile {
    /// A tile kernel for `kernel`'s scoring and thresholds on
    /// [`Isa::best_available`].
    pub fn new(kernel: RowKernel) -> Self {
        Self::on(Isa::best_available(), kernel).expect("the best available ISA is available")
    }

    /// A tile kernel on `isa`, or `None` if the CPU lacks it.
    pub fn on(isa: Isa, kernel: RowKernel) -> Option<Self> {
        isa.available().then(|| Self {
            isa,
            kernel,
            diags: Diagonals::default(),
            prev: Vec::new(),
            cur: Vec::new(),
        })
    }

    /// Computes the tile of rows `i0 .. i0 + h` and columns `j0 .. j0 + w`
    /// (1-based matrix coordinates) of `s × t`.
    ///
    /// `top` is the row above the tile, `w + 1` cells from the corner
    /// `(i0 − 1, j0 − 1)`; `left` is the column left of it, `h` cells from
    /// row `i0`, and on return holds the tile's right column. `bottom`
    /// (`w + 1` cells) receives the tile's last row from its left border
    /// cell on. Closed candidates are appended to `queue`. Returns the rung
    /// that ran: [`Rung::I32`] for the lanes, [`Rung::Scalar`] for the row
    /// kernel.
    pub fn run(
        &mut self,
        (s, t): (&[u8], &[u8]),
        (i0, j0): (usize, usize),
        top: &[HCell],
        left: &mut [HCell],
        bottom: &mut [HCell],
        queue: &mut Vec<LocalRegion>,
    ) -> Rung {
        let (h, w) = (left.len(), top.len().saturating_sub(1));
        assert!(h >= 1 && w >= 1, "a tile has at least one cell");
        assert_eq!(bottom.len(), w + 1, "bottom must match the top border");
        assert!(i0 >= 1 && j0 >= 1, "matrix coordinates are 1-based");
        let inbound = top.iter().chain(left.iter()).map(HCell::priority).max();
        let lane_max = i32::MAX as u64;
        let fits = inbound.unwrap_or(0) + 2 * (h + w) as u64 <= lane_max
            && ((i0 + h).max(j0 + w) as u64) <= lane_max;
        if !fits {
            self.rows((s, t), (i0, j0), top, left, bottom, queue);
            return Rung::Scalar;
        }
        let (s_rows, t_cols) = (&s[i0 - 1..i0 - 1 + h], &t[j0 - 1..j0 - 1 + w]);
        self.diags
            .prepare(s_rows, t_cols, lanes_of::<i32>(self.isa));
        dispatch(
            self.isa,
            TilePass {
                kernel: &self.kernel,
                diags: &mut self.diags,
                origin: (i0, j0),
                top,
                left,
                bottom,
                queue,
            },
        );
        Rung::I32
    }

    /// The scalar rung: [`run`](Self::run) row by row on the row kernel.
    fn rows(
        &mut self,
        (s, t): (&[u8], &[u8]),
        (i0, j0): (usize, usize),
        top: &[HCell],
        left: &mut [HCell],
        bottom: &mut [HCell],
        queue: &mut Vec<LocalRegion>,
    ) {
        let w = top.len() - 1;
        self.prev.clear();
        self.prev.extend_from_slice(top);
        self.cur.clear();
        self.cur.resize(w + 1, HCell::fresh());
        for (i, cell) in (i0..).zip(left.iter_mut()) {
            self.cur[0] = *cell;
            self.kernel
                .process_row_segment(i, s[i - 1], t, j0, &self.prev, &mut self.cur, queue);
            *cell = self.cur[w];
            std::mem::swap(&mut self.prev, &mut self.cur);
        }
        bottom.copy_from_slice(&self.prev);
    }
}

/// One tile on the lanes of an `i32` engine.
struct TilePass<'a> {
    kernel: &'a RowKernel,
    diags: &'a mut Diagonals,
    origin: (usize, usize),
    top: &'a [HCell],
    left: &'a mut [HCell],
    bottom: &'a mut [HCell],
    queue: &'a mut Vec<LocalRegion>,
}

impl Pass for TilePass<'_> {
    type T = i32;
    type Out = ();

    // SAFETY: the caller enables E's ISA; `prepare` sized every lane array
    // for `E::LANES` lanes of overrun past row `h` and column `w`.
    #[inline(always)]
    unsafe fn run<E: Engine<T = i32>>(self) {
        let Self {
            kernel,
            diags,
            origin: (i0, j0),
            top,
            left,
            bottom,
            queue,
        } = self;
        let l = E::LANES;
        let (h, w) = (left.len(), top.len() - 1);
        let stride = diags.stride;
        debug_assert_eq!(stride, h + l);
        assert!(
            l <= PUSH_LANES,
            "push's lane buffers hold {PUSH_LANES} lanes"
        );
        let k = Consts::<E>::new(kernel, i0);

        // Diagonal 0 is the corner, diagonal 1 the first top and left cells.
        bottom[0] = left[h - 1];
        diags.put(0, 0, &top[0]);
        diags.put(1, 0, &top[1]);
        diags.put(1, 1, &left[0]);
        let (s_rows, t_rev, rows) = (
            diags.s_rows.as_ptr(),
            diags.t_rev.as_ptr(),
            diags.rows.as_ptr(),
        );
        for d in 2..=h + w {
            let base = diags.cells.as_mut_ptr();
            let slot = |slot: usize| base.add(slot * FIELDS * stride);
            let (cur, up_left, diag) = (slot(d % 3), slot((d - 1) % 3), slot((d - 2) % 3));
            let (lo, hi) = (d.saturating_sub(w).max(1), h.min(d - 1));
            let vj = E::splat((j0 + d) as i32 - 1);
            let mut r = lo;
            while r <= hi {
                // Cell (r, d − r): up is (r − 1, ·) and left (r, ·) on the
                // previous diagonal, diag (r − 1, ·) on the one before.
                let preds = Preds::<E> {
                    left: fields::<E>(up_left.add(r), stride),
                    up: fields::<E>(up_left.add(r - 1), stride),
                    diag: fields::<E>(diag.add(r - 1), stride),
                };
                let same = E::eq(E::load(s_rows.add(r)), E::load(t_rev.add(w + r - d)));
                let vr = E::load(rows.add(r));
                let (i, j) = (E::adds(k.i0, vr), E::subs(vj, vr));
                let (cell, closed, closed_at) = update::<E>(&k, &preds, same, (i, j));
                if closed != 0 {
                    let at = (closed_at, cell[BEG_I], cell[BEG_J]);
                    push::<E>(kernel, at, closed, (i0, j0), (r, hi, d), queue);
                }
                for (field, &v) in cell.iter().enumerate() {
                    E::store(cur.add(field * stride + r), v);
                }
                r += l;
            }
            // The borders this diagonal reaches, written over any lanes
            // the last vector ran past `hi`; then the edge cells it holds.
            if d <= w {
                diags.put(d % 3, 0, &top[d]);
            }
            if d <= h {
                diags.put(d % 3, d, &left[d - 1]);
            }
            if d > h {
                bottom[d - h] = diags.get(d % 3, h);
            }
            if d > w {
                left[d - w - 1] = diags.get(d % 3, d - w);
            }
        }
    }
}

/// The most `i32` lanes any engine has.
const PUSH_LANES: usize = 16;

/// Splatted parameters of a tile pass.
struct Consts<E: Engine<T = i32>> {
    zero: E::V,
    one: E::V,
    none: E::V,
    matches: E::V,
    mismatch: E::V,
    gap: E::V,
    /// `x >= threshold` is `x > threshold − 1`; both are at least 1.
    open: E::V,
    close: E::V,
    /// Matrix row of tile row 0.
    i0: E::V,
}

impl<E: Engine<T = i32>> Consts<E> {
    /// # Safety
    /// `E`'s ISA must be enabled in the calling context.
    #[inline(always)]
    unsafe fn new(kernel: &RowKernel, i0: usize) -> Self {
        let (sc, params) = (kernel.scoring, kernel.params);
        Self {
            zero: E::splat(0),
            one: E::splat(1),
            none: E::splat(-1),
            matches: E::splat(sc.matches),
            mismatch: E::splat(sc.mismatch),
            gap: E::splat(sc.gap),
            open: E::splat(params.open_threshold - 1),
            close: E::splat(params.close_threshold - 1),
            i0: E::splat(i0 as i32 - 1),
        }
    }
}

/// A vector of cells' three predecessors, field by field.
struct Preds<E: Engine> {
    left: [E::V; FIELDS],
    up: [E::V; FIELDS],
    diag: [E::V; FIELDS],
}

/// The `FIELDS` lane vectors at `p`, one field every `stride` lanes.
///
/// # Safety
/// `E`'s ISA must be enabled in the calling context, and `p` valid for
/// `E::LANES` reads at each of the `FIELDS` offsets.
#[inline(always)]
unsafe fn fields<E: Engine<T = i32>>(p: *const i32, stride: usize) -> [E::V; FIELDS] {
    let mut out = [E::splat(0); FIELDS];
    for (field, v) in out.iter_mut().enumerate() {
        *v = E::load(p.add(field * stride));
    }
    out
}

/// [`RowKernel::update_cell`] on a vector of cells at matrix coordinates
/// `(i, j)` whose characters are equal where `same` is true. Returns the
/// new cells and, for the push, the [`Engine::gt_bytes`] bits of the lanes
/// that closed a candidate and the maximum it closed at.
///
/// # Safety
/// `E`'s ISA must be enabled in the calling context.
#[inline(always)]
unsafe fn update<E: Engine<T = i32>>(
    k: &Consts<E>,
    p: &Preds<E>,
    same: E::V,
    (i, j): (E::V, E::V),
) -> ([E::V; FIELDS], u64, E::V) {
    // Eq. 1.
    let cd = E::adds(p.diag[SCORE], E::select(same, k.matches, k.mismatch));
    let cu = E::adds(p.up[SCORE], k.gap);
    let cl = E::adds(p.left[SCORE], k.gap);
    let best = E::max(E::max(cd, cu), E::max(cl, k.zero));

    // The predecessor: a non-achiever's priority is −1, and a later origin
    // (vertical, then diagonal) wins only with a strictly larger one.
    let eh = E::select(E::eq(cl, best), p.left[PRIORITY], k.none);
    let ev = E::select(E::eq(cu, best), p.up[PRIORITY], k.none);
    let ed = E::select(E::eq(cd, best), p.diag[PRIORITY], k.none);
    let take_v = E::gt(ev, eh);
    let take_d = E::gt(ed, E::max(eh, ev));
    let mut c = [best; FIELDS];
    for (field, v) in c.iter_mut().enumerate().skip(1) {
        let h_or_v = E::select(take_v, p.up[field], p.left[field]);
        *v = E::select(take_d, p.diag[field], h_or_v);
    }

    // Counters: a diagonal step counts a match or a mismatch, 2 of
    // priority (a true mask is −1); a gap step counts a gap, 1.
    c[GAPS] = E::adds(E::adds(c[GAPS], k.one), take_d);
    c[MATCHES] = E::subs(c[MATCHES], E::and(take_d, same));
    c[PRIORITY] = E::subs(E::adds(c[PRIORITY], k.one), take_d);
    c[MAX] = E::max(c[MAX], best);
    c[MIN] = E::min(c[MIN], best);

    // Open on a rise; the envelope restarts at the opening point.
    let opens = E::andnot(c[OPEN], E::gt(E::subs(best, c[MIN]), k.open));
    if E::gt_bytes(k.zero, opens) != 0 {
        c[BEG_I] = E::select(opens, i, c[BEG_I]);
        c[BEG_J] = E::select(opens, j, c[BEG_J]);
        c[MAX] = E::select(opens, best, c[MAX]);
        c[MIN] = E::select(opens, best, c[MIN]);
        c[OPEN] = E::select(opens, opens, c[OPEN]);
    }

    // Close on a drop, and restart the envelope; a zero cell never closes.
    let live = E::gt(best, k.zero);
    let drop = E::gt(E::subs(c[MAX], best), k.close);
    let closes = E::and(live, E::and(c[OPEN], drop));
    let closed_at = c[MAX];
    let closed = E::gt_bytes(k.zero, closes);
    if closed != 0 {
        c[OPEN] = E::andnot(closes, c[OPEN]);
        c[MAX] = E::select(closes, best, c[MAX]);
        c[MIN] = E::select(closes, best, c[MIN]);
    }

    // A zero cell carries nothing: every field resets.
    for v in &mut c {
        *v = E::and(live, *v);
    }
    (c, closed, closed_at)
}

/// Pushes the candidates of the lanes whose [`Engine::gt_bytes`] bits are
/// set in `closed` — cells `(r + lane, d − r − lane)`, those at most `hi` —
/// that clear `min_score`, as [`RowKernel::flush_open`] would.
///
/// # Safety
/// `E`'s ISA must be enabled in the calling context, and `E::LANES` at
/// most [`PUSH_LANES`].
#[inline(always)]
unsafe fn push<E: Engine<T = i32>>(
    kernel: &RowKernel,
    (max, beg_i, beg_j): (E::V, E::V, E::V),
    mut closed: u64,
    (i0, j0): (usize, usize),
    (r, hi, d): (usize, usize, usize),
    queue: &mut Vec<LocalRegion>,
) {
    let mut lanes = [[0i32; PUSH_LANES]; 3];
    for (out, v) in lanes.iter_mut().zip([max, beg_i, beg_j]) {
        E::store(out.as_mut_ptr(), v);
    }
    while closed != 0 {
        let lane = closed.trailing_zeros() as usize / 4;
        closed &= !lane_bits::<i32>(lane);
        if r + lane > hi {
            break;
        }
        let cell = HCell {
            max: lanes[0][lane],
            beg_i: lanes[1][lane] as u32,
            beg_j: lanes[2][lane] as u32,
            open: true,
            ..HCell::fresh()
        };
        let (i, j) = (i0 + r + lane - 1, j0 + d - r - lane - 1);
        kernel.flush_open(&cell, i, j, queue);
    }
}
