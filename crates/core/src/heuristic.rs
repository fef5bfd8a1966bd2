//! The Martins-style candidate-alignment heuristic of §4.1.
//!
//! The linear-space recurrence of [`crate::linear`] finds scores but loses
//! the alignments. To keep O(n) space *and* recover alignment coordinates,
//! the paper augments every cell with metadata ([`HCell`]):
//!
//! * the current score `A[i,j]`,
//! * initial alignment coordinates (`beg`),
//! * maximal and minimal score seen along the carried candidate,
//! * gaps / matches / mismatches counters,
//! * a flag saying whether the cell carries an open candidate alignment.
//!
//! Rules (§4.1, our reading of the ambiguous points documented inline):
//!
//! * A candidate **opens** when the flag is 0 and `max >= min + open`,
//!   where `open` is the user's "minimum value for opening". The initial
//!   coordinates are set to the current position.
//! * A candidate **closes** when the flag is 1 and the current score drops
//!   to `max − close` or below. The candidate (begin, end, max score) is
//!   pushed onto the queue when its score clears `min_score`, and the flag
//!   returns to 0. *Interpretation:* we also reset the min/max envelope to
//!   the current score at close time so a later rise can re-open a fresh
//!   candidate; without this the stale maximum would block re-opening.
//!   The gap/match/mismatch counters are **not** reset (the paper is
//!   explicit about that).
//! * When the maximum of Eq. (1) is reached by several predecessors, the
//!   one with the largest `2·matches + 2·mismatches + gaps` wins; if that
//!   still ties, preference is horizontal (west), then vertical (north),
//!   then diagonal — "a trial to keep the gaps together".
//! * A zero cell carries no candidate: its state is fully reset
//!   (*interpretation:* a zero means no alignment passes through, so the
//!   counters restart; the paper's "not reset" clause concerns closing,
//!   not zero cells).
//!
//! [`RowKernel::process_row_segment`] processes a contiguous block of one
//! row given the previous row and a left-border cell. The serial driver
//! [`heuristic_align`] and both parallel strategies (in
//! `genomedsm-strategies`) are thin loops around it, so the sequential and
//! parallel implementations compute byte-identical cells.

use crate::alignment::{finalize_queue, LocalRegion};
use crate::scoring::Scoring;

/// Per-cell candidate-alignment state (§4.1). `score` is `A[i,j]`; the
/// remaining fields describe the candidate alignment carried through this
/// cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(C)]
pub struct HCell {
    /// Current similarity score `A[i,j]`.
    pub score: i32,
    /// Maximal score seen along the carried candidate.
    pub max: i32,
    /// Minimal score seen along the carried candidate.
    pub min: i32,
    /// Row coordinate where the candidate opened (matrix coords, 1-based).
    pub beg_i: u32,
    /// Column coordinate where the candidate opened.
    pub beg_j: u32,
    /// Gap counter (not reset on close).
    pub gaps: u32,
    /// Match counter (not reset on close).
    pub matches: u32,
    /// Mismatch counter (not reset on close).
    pub mismatches: u32,
    /// Candidate-open flag.
    pub open: bool,
}

impl HCell {
    /// Number of bytes in the portable encoding.
    pub const ENCODED_LEN: usize = 33;

    /// A cell carrying no candidate (score 0, everything reset). This is
    /// the state of the initial row/column and of any zero cell.
    pub const fn fresh() -> Self {
        Self {
            score: 0,
            max: 0,
            min: 0,
            beg_i: 0,
            beg_j: 0,
            gaps: 0,
            matches: 0,
            mismatches: 0,
            open: false,
        }
    }

    /// The tie-break priority of §4.1: `2·matches + 2·mismatches + gaps`
    /// ("gaps are penalized while matches and mismatches are rewarded" —
    /// the larger value wins as the origin of the current entry).
    #[inline]
    pub fn priority(&self) -> u64 {
        2 * self.matches as u64 + 2 * self.mismatches as u64 + self.gaps as u64
    }

    /// Serializes to a fixed-size little-endian byte layout (for moving
    /// cells through DSM pages).
    pub fn encode(&self, out: &mut [u8]) {
        assert!(out.len() >= Self::ENCODED_LEN);
        out[0..4].copy_from_slice(&self.score.to_le_bytes());
        out[4..8].copy_from_slice(&self.max.to_le_bytes());
        out[8..12].copy_from_slice(&self.min.to_le_bytes());
        out[12..16].copy_from_slice(&self.beg_i.to_le_bytes());
        out[16..20].copy_from_slice(&self.beg_j.to_le_bytes());
        out[20..24].copy_from_slice(&self.gaps.to_le_bytes());
        out[24..28].copy_from_slice(&self.matches.to_le_bytes());
        out[28..32].copy_from_slice(&self.mismatches.to_le_bytes());
        out[32] = self.open as u8;
    }

    /// Deserializes from [`Self::encode`]'s layout.
    pub fn decode(buf: &[u8]) -> Self {
        assert!(buf.len() >= Self::ENCODED_LEN);
        let le32 = |r: std::ops::Range<usize>| {
            let mut b = [0u8; 4];
            b.copy_from_slice(&buf[r]);
            b
        };
        Self {
            score: i32::from_le_bytes(le32(0..4)),
            max: i32::from_le_bytes(le32(4..8)),
            min: i32::from_le_bytes(le32(8..12)),
            beg_i: u32::from_le_bytes(le32(12..16)),
            beg_j: u32::from_le_bytes(le32(16..20)),
            gaps: u32::from_le_bytes(le32(20..24)),
            matches: u32::from_le_bytes(le32(24..28)),
            mismatches: u32::from_le_bytes(le32(28..32)),
            open: buf[32] != 0,
        }
    }
}

/// User parameters of the heuristic (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeuristicParams {
    /// "Minimum value for opening this alignment as a candidate":
    /// a candidate opens when `max >= min + open_threshold`.
    pub open_threshold: i32,
    /// "Value for closing an alignment": a candidate closes when the
    /// current score is `<= max − close_threshold`.
    pub close_threshold: i32,
    /// Minimal (maximum) score a closed candidate needs to enter the
    /// queue of reported alignments.
    pub min_score: i32,
}

impl HeuristicParams {
    /// Defaults tuned for the synthetic workloads: open at +15, close on a
    /// −15 drop, report alignments scoring at least 50 (≈ 75 bp of 90%
    /// identity under the +1/−1/−2 scheme — comfortably above the random
    /// background on multi-kBP inputs).
    pub fn default_for_dna() -> Self {
        Self {
            open_threshold: 15,
            close_threshold: 15,
            min_score: 50,
        }
    }

    /// Whether both thresholds are positive — the one check every path
    /// that admits parameters from outside the program (CLI flags) applies,
    /// and what [`RowKernel::new`] asserts. `min_score` may be anything.
    pub fn thresholds_valid(&self) -> bool {
        self.open_threshold > 0 && self.close_threshold > 0
    }
}

/// Which predecessor produced the current cell (tie-break order:
/// horizontal ≻ vertical ≻ diagonal).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Origin {
    Horizontal,
    Vertical,
    Diagonal,
}

/// The reusable row-block kernel shared by the serial driver and both
/// parallel strategies.
#[derive(Debug, Clone, Copy)]
pub struct RowKernel {
    /// Column scoring scheme.
    pub scoring: Scoring,
    /// Open/close/report thresholds.
    pub params: HeuristicParams,
}

impl RowKernel {
    /// Creates a kernel, validating the parameters.
    pub fn new(scoring: Scoring, params: HeuristicParams) -> Self {
        assert!(
            params.thresholds_valid(),
            "open_threshold and close_threshold must be positive: {params:?}"
        );
        Self { scoring, params }
    }

    /// Computes one cell at matrix position `(i, j)` from its three
    /// predecessors, appending any closed candidate to `queue`.
    #[inline]
    #[allow(clippy::too_many_arguments)] // the DP stencil really has 3 predecessors
    pub fn update_cell(
        &self,
        s_char: u8,
        t_char: u8,
        i: usize,
        j: usize,
        diag: &HCell,
        up: &HCell,
        left: &HCell,
        queue: &mut Vec<LocalRegion>,
    ) -> HCell {
        let cd = diag.score + self.scoring.subst(s_char, t_char);
        let cu = up.score + self.scoring.gap;
        let cl = left.score + self.scoring.gap;
        let best = cd.max(cu).max(cl).max(0);
        if best == 0 {
            return HCell::fresh();
        }

        // Candidate origins in preference order (horizontal, vertical,
        // diagonal); among achievers of `best` the largest priority wins,
        // ties resolved by that order.
        let mut chosen: Option<(Origin, &HCell)> = None;
        for (origin, value, cell) in [
            (Origin::Horizontal, cl, left),
            (Origin::Vertical, cu, up),
            (Origin::Diagonal, cd, diag),
        ] {
            if value == best {
                match chosen {
                    Some((_, c)) if c.priority() >= cell.priority() => {}
                    _ => chosen = Some((origin, cell)),
                }
            }
        }
        let (origin, pred) = chosen.expect("best > 0 implies an achiever");

        let mut cell = *pred;
        cell.score = best;
        match origin {
            Origin::Diagonal => {
                if s_char == t_char {
                    cell.matches += 1;
                } else {
                    cell.mismatches += 1;
                }
            }
            Origin::Horizontal | Origin::Vertical => cell.gaps += 1,
        }
        cell.max = cell.max.max(best);
        cell.min = cell.min.min(best);

        // Open on a *rise*: the current score has climbed open_threshold
        // above the running minimum. (The paper's wording compares the
        // maximal score to the minimum; taken literally that also fires
        // while the score *decays* after a close — the stale maximum keeps
        // the envelope wide — flooding the queue with one candidate per
        // decaying path. Since the score equals the maximum during a
        // genuine rise, this reading agrees with the paper's on rises and
        // only differs by not opening on decay.) Both tests compare a
        // difference, which a huge threshold cannot overflow: `min <= score
        // <= max` here, all non-negative.
        if !cell.open && cell.score - cell.min >= self.params.open_threshold {
            cell.open = true;
            cell.beg_i = i as u32;
            cell.beg_j = j as u32;
            // The candidate's score envelope starts fresh at the opening
            // point; a stale maximum from before the open would otherwise
            // close the new candidate instantly.
            cell.max = cell.score;
            cell.min = cell.score;
        }
        if cell.open && cell.max - cell.score >= self.params.close_threshold {
            self.close_candidate(&cell, i, j, queue);
            cell.open = false;
            // Restart the envelope so a later rise can re-open. The
            // gap/match/mismatch counters stay, per the paper.
            cell.max = cell.score;
            cell.min = cell.score;
        }
        cell
    }

    /// Pushes the candidate carried by `cell` (ending at `(i, j)`) onto the
    /// queue if it clears `min_score`.
    fn close_candidate(&self, cell: &HCell, i: usize, j: usize, queue: &mut Vec<LocalRegion>) {
        if cell.max >= self.params.min_score {
            queue.push(LocalRegion {
                s_begin: (cell.beg_i as usize).saturating_sub(1),
                s_end: i,
                t_begin: (cell.beg_j as usize).saturating_sub(1),
                t_end: j,
                score: cell.max,
            });
        }
    }

    /// Reports a still-open candidate when the sweep runs off the edge of
    /// the matrix (end of the last row / rightmost column). The paper
    /// leaves boundary flushing implicit; without it, alignments touching
    /// the sequence ends would never close.
    pub fn flush_open(&self, cell: &HCell, i: usize, j: usize, queue: &mut Vec<LocalRegion>) {
        if cell.open {
            self.close_candidate(cell, i, j, queue);
        }
    }

    /// Processes columns `j0 ..= j0 + len − 1` (1-based matrix columns) of
    /// row `i`.
    ///
    /// Layout convention shared with the parallel strategies: `prev` and
    /// `cur` have length `len + 1`; index `k` corresponds to matrix column
    /// `j0 − 1 + k`, so index 0 is the *border column* owned by the left
    /// neighbour. `prev` must hold row `i − 1`; on entry `cur[0]` must
    /// already hold this row's left-border cell; on exit `cur[1..]` holds
    /// the computed cells.
    #[allow(clippy::too_many_arguments)] // the DP stencil's natural arity
    pub fn process_row_segment(
        &self,
        i: usize,
        s_char: u8,
        t: &[u8],
        j0: usize,
        prev: &[HCell],
        cur: &mut [HCell],
        queue: &mut Vec<LocalRegion>,
    ) {
        let len = cur.len() - 1;
        assert_eq!(prev.len(), cur.len(), "row slices must align");
        assert!(j0 >= 1 && j0 + len - 1 <= t.len(), "segment out of range");
        for k in 1..=len {
            let j = j0 - 1 + k;
            let cell = self.update_cell(
                s_char,
                t[j - 1],
                i,
                j,
                &prev[k - 1],
                &prev[k],
                &cur[k - 1],
                queue,
            );
            cur[k] = cell;
        }
    }
}

/// Serial phase-1 driver: runs the heuristic over the whole matrix with two
/// rows of memory and returns the finalized queue of candidate local
/// alignments (sorted by size, deduplicated).
pub fn heuristic_align(
    s: &[u8],
    t: &[u8],
    scoring: &Scoring,
    params: &HeuristicParams,
) -> Vec<LocalRegion> {
    let kernel = RowKernel::new(*scoring, *params);
    let n = t.len();
    let mut queue = Vec::new();
    if s.is_empty() || n == 0 {
        return queue;
    }
    let mut prev = vec![HCell::fresh(); n + 1];
    let mut cur = vec![HCell::fresh(); n + 1];
    for (idx, &sc) in s.iter().enumerate() {
        let i = idx + 1;
        cur[0] = HCell::fresh();
        kernel.process_row_segment(i, sc, t, 1, &prev, &mut cur, &mut queue);
        // Rightmost column: a candidate running off the right edge.
        kernel.flush_open(&cur[n], i, n, &mut queue);
        std::mem::swap(&mut prev, &mut cur);
    }
    // Bottom row: candidates running off the bottom edge. `prev` holds the
    // final row after the last swap. The corner cell was already flushed.
    for j in 1..n {
        kernel.flush_open(&prev[j], s.len(), j, &mut queue);
    }
    finalize_queue(queue)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::sw_matrix;

    const SC: Scoring = Scoring::paper();

    fn params(open: i32, close: i32, min: i32) -> HeuristicParams {
        HeuristicParams {
            open_threshold: open,
            close_threshold: close,
            min_score: min,
        }
    }

    #[test]
    fn hcell_encode_decode_round_trip() {
        let c = HCell {
            score: -7,
            max: 42,
            min: -3,
            beg_i: 123,
            beg_j: 456,
            gaps: 7,
            matches: 8,
            mismatches: 9,
            open: true,
        };
        let mut buf = [0u8; HCell::ENCODED_LEN];
        c.encode(&mut buf);
        assert_eq!(HCell::decode(&buf), c);
    }

    #[test]
    fn fresh_cell_round_trips() {
        let mut buf = [0u8; HCell::ENCODED_LEN];
        HCell::fresh().encode(&mut buf);
        assert_eq!(HCell::decode(&buf), HCell::fresh());
    }

    #[test]
    fn scores_match_plain_linear_sw() {
        // The metadata must not change the computed scores: run the
        // heuristic keeping full rows and compare cell scores to the
        // full-matrix oracle.
        let s = b"TCTCGACGGATTAGTATATATATA";
        let t = b"ATATGATCGGAATAGCTCT";
        let kernel = RowKernel::new(SC, params(3, 3, 4));
        let full = sw_matrix(s, t, &SC);
        let n = t.len();
        let mut queue = Vec::new();
        let mut prev = vec![HCell::fresh(); n + 1];
        let mut cur = vec![HCell::fresh(); n + 1];
        for (idx, &sc) in s.iter().enumerate() {
            let i = idx + 1;
            cur[0] = HCell::fresh();
            kernel.process_row_segment(i, sc, t, 1, &prev, &mut cur, &mut queue);
            for j in 1..=n {
                assert_eq!(cur[j].score, full.get(i, j), "cell ({i},{j})");
            }
            std::mem::swap(&mut prev, &mut cur);
        }
    }

    #[test]
    fn finds_the_planted_fig1_alignment() {
        let s = b"TCTCGACGGATTAGTATATATATA";
        let t = b"ATATGATCGGAATAGCTCT";
        let regions = heuristic_align(s, t, &SC, &params(3, 3, 5));
        // The best local alignment (score 6, ending at (14, 15)) must be
        // reported.
        let hit = regions
            .iter()
            .find(|r| r.score >= 5 && r.s_end >= 13 && r.t_end >= 14);
        assert!(hit.is_some(), "regions: {regions:?}");
    }

    #[test]
    fn long_identical_run_reported_once() {
        // One perfect 60-bp repeat inside random context.
        let core: Vec<u8> =
            b"ACGTGCTAGCTTAGGCATCGATCGGATTACAGGCATGCATGGCTAGCTAGGCTAGCTAAG".to_vec();
        let mut s = b"TTTTTTTTTT".to_vec();
        s.extend_from_slice(&core);
        s.extend_from_slice(b"CCCCCCCCCC");
        let mut t = b"GGGGGGGGGG".to_vec();
        t.extend_from_slice(&core);
        t.extend_from_slice(b"AAAAAAAAAA");
        let regions = heuristic_align(&s, &t, &SC, &params(10, 8, 30));
        assert!(!regions.is_empty());
        let best = &regions[0];
        assert!(best.score >= 40, "score {}", best.score);
        // Coordinates point inside the planted repeat: opening clips the
        // first ~open_threshold columns (the paper's rule) and closing
        // overshoots the end by up to close_threshold/2 mismatch columns.
        assert!(best.s_begin >= 10 && best.s_end <= 10 + core.len() + 8);
        assert!(best.t_begin >= 10 && best.t_end <= 10 + core.len() + 8);
    }

    #[test]
    fn empty_inputs_yield_empty_queue() {
        assert!(heuristic_align(b"", b"ACGT", &SC, &params(3, 3, 1)).is_empty());
        assert!(heuristic_align(b"ACGT", b"", &SC, &params(3, 3, 1)).is_empty());
    }

    #[test]
    fn pure_random_pair_yields_no_high_scores() {
        // With threshold far above what random 200-bp sequences reach,
        // nothing is reported. (Use a real PRNG: modular patterns are
        // periodic and align almost perfectly.)
        let mut x: u64 = 0x243F6A8885A308D3;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let s: Vec<u8> = (0..200).map(|_| b"ACGT"[(next() % 4) as usize]).collect();
        let t: Vec<u8> = (0..200).map(|_| b"ACGT"[(next() % 4) as usize]).collect();
        let regions = heuristic_align(&s, &t, &SC, &params(15, 12, 60));
        assert!(regions.is_empty(), "unexpected: {regions:?}");
    }

    #[test]
    fn candidate_closes_after_score_drop() {
        let kernel = RowKernel::new(SC, params(2, 2, 2));
        let mut queue = Vec::new();
        // Manually walk a diagonal of matches followed by mismatches.
        let mut cell = HCell::fresh();
        for i in 1..=4 {
            cell = kernel.update_cell(
                b'A',
                b'A',
                i,
                i,
                &cell,
                &HCell::fresh(),
                &HCell::fresh(),
                &mut queue,
            );
        }
        assert!(cell.open);
        assert_eq!(cell.score, 4);
        // Two mismatches drop the score by 2: close fires.
        for i in 5..=6 {
            cell = kernel.update_cell(
                b'A',
                b'C',
                i,
                i,
                &cell,
                &HCell::fresh(),
                &HCell::fresh(),
                &mut queue,
            );
        }
        assert!(!cell.open);
        assert_eq!(queue.len(), 1);
        assert_eq!(queue[0].score, 4);
    }

    #[test]
    fn tie_break_prefers_higher_priority_then_horizontal() {
        let kernel = RowKernel::new(SC, params(100, 100, 100));
        let mut queue = Vec::new();
        // Build predecessors that tie on value but differ in counters.
        let lo = HCell {
            score: 2,
            matches: 1,
            ..HCell::fresh()
        };
        let hi = HCell {
            score: 2,
            matches: 5,
            ..HCell::fresh()
        };
        // left and up tie (2 - 2 = 0 each would be clamped; use scores so
        // both reach the same best): diag gives 2 + 1 = 3; up gives 5 - 2 = 3.
        let diag = HCell {
            score: 2,
            matches: 2,
            ..HCell::fresh()
        };
        let up = HCell {
            score: 5,
            matches: 9,
            ..HCell::fresh()
        };
        let cell = kernel.update_cell(b'A', b'A', 3, 3, &diag, &up, &lo, &mut queue);
        // up's priority (18) beats diag's (4): the gap path wins.
        assert_eq!(cell.score, 3);
        assert_eq!(cell.gaps, 1);
        assert_eq!(cell.matches, 9);
        let _ = hi;
    }

    #[test]
    fn horizontal_preferred_on_full_tie() {
        let kernel = RowKernel::new(SC, params(100, 100, 100));
        let mut queue = Vec::new();
        let p = HCell {
            score: 5,
            matches: 3,
            ..HCell::fresh()
        };
        // All three candidates reach 3 with equal priorities.
        let diag = HCell {
            score: 4,
            matches: 3,
            ..HCell::fresh()
        };
        let cell = kernel.update_cell(b'A', b'C', 2, 2, &diag, &p, &p, &mut queue);
        assert_eq!(cell.score, 3);
        // Horizontal chosen: gap counter incremented, and the begin
        // coordinates/metadata come from `left` (= p).
        assert_eq!(cell.gaps, 1);
        assert_eq!(cell.matches, 3);
    }

    #[test]
    fn flush_reports_open_candidate_at_edges() {
        // A perfect repeat that runs to the very end of both sequences.
        let s = b"TTTTTACGTGCTAGCTTAGGCATCGATCG";
        let t = b"GGGGGACGTGCTAGCTTAGGCATCGATCG";
        let regions = heuristic_align(s, t, &SC, &params(5, 5, 10));
        assert!(!regions.is_empty(), "edge alignment must be flushed");
        assert!(regions[0].score >= 15);
        assert_eq!(regions[0].s_end, s.len());
    }

    #[test]
    #[should_panic(expected = "open_threshold")]
    fn invalid_params_rejected() {
        let _ = RowKernel::new(SC, params(0, 3, 1));
    }

    #[test]
    fn thresholds_valid_means_both_positive() {
        assert!(params(1, 1, i32::MIN).thresholds_valid());
        for (open, close) in [(0, 3), (-3, 3), (3, 0), (3, -1)] {
            assert!(!params(open, close, 1).thresholds_valid(), "{open}/{close}");
        }
    }

    #[test]
    fn a_huge_threshold_opens_nothing_instead_of_wrapping() {
        // `min + open` used to wrap negative and open a candidate on every
        // cell of a release build.
        let s = b"ACGTGCTAGCTTAGGCATCGATCGGATTACAGG";
        assert!(heuristic_align(s, s, &SC, &params(i32::MAX, 3, 1)).is_empty());
        let once = heuristic_align(s, s, &SC, &params(3, i32::MAX, 1));
        assert_eq!(once.len(), 1, "flushed at the edge, never closed: {once:?}");
    }

    #[test]
    fn segment_processing_equals_whole_row() {
        // Splitting a row into two segments with a carried border must give
        // the same cells as one full-row call.
        let s = b"GACGGATTAG";
        let t = b"GATCGGAATAG";
        let kernel = RowKernel::new(SC, params(3, 3, 3));
        let n = t.len();
        let mut q1 = Vec::new();
        let mut q2 = Vec::new();

        let mut prev_full = vec![HCell::fresh(); n + 1];
        let mut cur_full = vec![HCell::fresh(); n + 1];
        let mut prev_split = vec![HCell::fresh(); n + 1];
        let mut cur_split = vec![HCell::fresh(); n + 1];
        let half = n / 2;
        for (idx, &sc) in s.iter().enumerate() {
            let i = idx + 1;
            cur_full[0] = HCell::fresh();
            kernel.process_row_segment(i, sc, t, 1, &prev_full, &mut cur_full, &mut q1);

            cur_split[0] = HCell::fresh();
            kernel.process_row_segment(
                i,
                sc,
                t,
                1,
                &prev_split[..half + 1],
                &mut cur_split[..half + 1],
                &mut q2,
            );
            kernel.process_row_segment(
                i,
                sc,
                t,
                half + 1,
                &prev_split[half..],
                &mut cur_split[half..],
                &mut q2,
            );
            assert_eq!(cur_full, cur_split, "row {i}");
            std::mem::swap(&mut prev_full, &mut cur_full);
            std::mem::swap(&mut prev_split, &mut cur_split);
        }
        assert_eq!(q1, q2);
    }
}
