//! Affine-gap alignment (Gotoh's algorithm) — a production extension.
//!
//! The paper scores every space at a flat −2 (§2). Real aligners usually
//! charge gap *opening* more than gap *extension* (affine penalties):
//! a run of `k` spaces costs `open + (k−1)·extend`. This module provides
//! the Gotoh three-matrix formulation for both local (SW) and global (NW)
//! alignment, plus a linear-space score variant. With
//! `open == extend == gap` it degenerates to the paper's linear model,
//! which the tests exploit as an oracle.

use crate::alignment::{GlobalAlignment, LocalRegion};
use crate::linear::LinearSwResult;
use crate::scoring::Scoring;
use crate::submat::MatrixScoring;

/// Affine gap scheme: `matches`/`mismatch` per column, `gap_open` for the
/// first space of a run, `gap_extend` for each further space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AffineScoring {
    /// Score for identical characters (positive).
    pub matches: i32,
    /// Score for differing characters (normally negative).
    pub mismatch: i32,
    /// Penalty for the first space of a gap run (negative).
    pub gap_open: i32,
    /// Penalty for each subsequent space (negative, usually milder).
    pub gap_extend: i32,
}

impl AffineScoring {
    /// A common DNA scheme: +1 / −1, opening −4, extending −1.
    pub const fn dna() -> Self {
        Self {
            matches: 1,
            mismatch: -1,
            gap_open: -4,
            gap_extend: -1,
        }
    }

    /// The degenerate scheme equivalent to the paper's linear gaps.
    pub const fn linear(scoring: Scoring) -> Self {
        Self {
            matches: scoring.matches,
            mismatch: scoring.mismatch,
            gap_open: scoring.gap,
            gap_extend: scoring.gap,
        }
    }

    #[inline]
    fn subst(&self, a: u8, b: u8) -> i32 {
        if a == b {
            self.matches
        } else {
            self.mismatch
        }
    }

    fn validate(&self) {
        assert!(self.matches > 0, "match score must be positive");
        assert!(
            self.gap_open < 0 && self.gap_extend < 0,
            "gap penalties must be negative"
        );
    }
}

const NEG: i32 = i32::MIN / 4;

/// Best local alignment score with affine gaps, in linear space, plus its
/// end point (matrix coordinates; `(0, 0)` when everything is zero).
pub fn sw_affine_score(s: &[u8], t: &[u8], scoring: &AffineScoring) -> (i32, (usize, usize)) {
    scoring.validate();
    let n = t.len();
    // H = best ending in a match/mismatch or fresh start; E = gap in s
    // (consuming t); F = gap in t (consuming s).
    let mut h_prev = vec![0i32; n + 1];
    let mut e_prev = vec![NEG; n + 1];
    let mut h_cur = vec![0i32; n + 1];
    let mut e_cur = vec![NEG; n + 1];
    let mut best = 0;
    let mut end = (0usize, 0usize);
    for (i, &sc) in s.iter().enumerate() {
        let mut f = NEG;
        h_cur[0] = 0;
        for j in 1..=n {
            let e = (e_prev[j] + scoring.gap_extend).max(h_prev[j] + scoring.gap_open);
            f = (f + scoring.gap_extend).max(h_cur[j - 1] + scoring.gap_open);
            let diag = h_prev[j - 1] + scoring.subst(sc, t[j - 1]);
            let h = diag.max(e).max(f).max(0);
            h_cur[j] = h;
            e_cur[j] = e;
            if h > best {
                best = h;
                end = (i + 1, j);
            }
        }
        std::mem::swap(&mut h_prev, &mut h_cur);
        std::mem::swap(&mut e_prev, &mut e_cur);
    }
    (best, end)
}

/// Runs the affine-gap (Gotoh) SW recurrence over `s` (rows) and `t`
/// (columns), mirroring [`sw_score_linear`](crate::linear::sw_score_linear)
/// exactly: same traversal order, same strict-`>` best with row-major-first
/// tie-break, same 1-based matrix end point, same `hits` rule (cells
/// scoring `>= threshold` when `threshold > 0`).
///
/// This is the canonical scalar oracle the striped affine kernels are
/// bit-checked against. With `gap_open == gap_extend` it degenerates to
/// the paper's linear model and agrees with `sw_score_linear` cell for
/// cell (the property tests exploit this).
pub fn sw_score_affine(
    s: &[u8],
    t: &[u8],
    scoring: &AffineScoring,
    threshold: i32,
) -> LinearSwResult {
    scoring.validate();
    sw_result_affine(
        s,
        t,
        |a, b| scoring.subst(a, b),
        scoring.gap_open,
        scoring.gap_extend,
        threshold,
    )
}

/// [`sw_score_affine`] with a full substitution matrix in place of the
/// match/mismatch pair — the protein-path scalar oracle. Semantics are
/// otherwise identical (same tie-break, end point, and hit rule).
pub fn sw_score_profile(
    s: &[u8],
    t: &[u8],
    scoring: &MatrixScoring,
    threshold: i32,
) -> LinearSwResult {
    assert!(
        scoring.gaps_valid(),
        "gap penalties must be negative and >= MatrixScoring::MIN_GAP"
    );
    sw_result_affine(
        s,
        t,
        |a, b| i32::from(scoring.matrix.score(a, b)),
        scoring.gap_open,
        scoring.gap_extend,
        threshold,
    )
}

fn sw_result_affine(
    s: &[u8],
    t: &[u8],
    subst: impl Fn(u8, u8) -> i32,
    gap_open: i32,
    gap_extend: i32,
    threshold: i32,
) -> LinearSwResult {
    let n = t.len();
    let mut h_prev = vec![0i32; n + 1];
    let mut e_prev = vec![NEG; n + 1];
    let mut h_cur = vec![0i32; n + 1];
    let mut e_cur = vec![NEG; n + 1];
    let mut best = LinearSwResult {
        best_score: 0,
        best_end: (0, 0),
        hits: 0,
    };
    for (i, &sc) in s.iter().enumerate() {
        let mut f = NEG;
        h_cur[0] = 0;
        for j in 1..=n {
            let e = (e_prev[j] + gap_extend).max(h_prev[j] + gap_open);
            f = (f + gap_extend).max(h_cur[j - 1] + gap_open);
            let diag = h_prev[j - 1] + subst(sc, t[j - 1]);
            let v = diag.max(e).max(f).max(0);
            h_cur[j] = v;
            e_cur[j] = e;
            if v >= threshold && threshold > 0 {
                best.hits += 1;
            }
            if v > best.best_score {
                best.best_score = v;
                best.best_end = (i + 1, j);
            }
        }
        std::mem::swap(&mut h_prev, &mut h_cur);
        std::mem::swap(&mut e_prev, &mut e_cur);
    }
    best
}

/// Global alignment score with affine gaps, linear space.
pub fn nw_affine_score(s: &[u8], t: &[u8], scoring: &AffineScoring) -> i32 {
    scoring.validate();
    let n = t.len();
    let gap_run = |k: usize| -> i32 {
        if k == 0 {
            0
        } else {
            scoring.gap_open + (k as i32 - 1) * scoring.gap_extend
        }
    };
    let mut h_prev: Vec<i32> = (0..=n).map(gap_run).collect();
    let mut e_prev: Vec<i32> = (0..=n)
        .map(|j| if j == 0 { NEG } else { gap_run(j) })
        .collect();
    let mut h_cur = vec![0i32; n + 1];
    let mut e_cur = vec![NEG; n + 1];
    for (i, &sc) in s.iter().enumerate() {
        let mut f = gap_run(i + 1);
        h_cur[0] = gap_run(i + 1);
        for j in 1..=n {
            let e = (e_prev[j] + scoring.gap_extend).max(h_prev[j] + scoring.gap_open);
            f = (f + scoring.gap_extend).max(h_cur[j - 1] + scoring.gap_open);
            let diag = h_prev[j - 1] + scoring.subst(sc, t[j - 1]);
            h_cur[j] = diag.max(e).max(f);
            e_cur[j] = e;
        }
        std::mem::swap(&mut h_prev, &mut h_cur);
        std::mem::swap(&mut e_prev, &mut e_cur);
    }
    h_prev[n]
}

/// Full-matrix global alignment with affine gaps and traceback.
pub fn nw_affine_align(s: &[u8], t: &[u8], scoring: &AffineScoring) -> GlobalAlignment {
    scoring.validate();
    let (m, n) = (s.len(), t.len());
    let w = n + 1;
    let idx = |i: usize, j: usize| i * w + j;
    let mut h = vec![NEG; (m + 1) * w];
    let mut e = vec![NEG; (m + 1) * w];
    let mut f = vec![NEG; (m + 1) * w];
    h[idx(0, 0)] = 0;
    for j in 1..=n {
        e[idx(0, j)] =
            (e[idx(0, j - 1)] + scoring.gap_extend).max(h[idx(0, j - 1)] + scoring.gap_open);
        h[idx(0, j)] = e[idx(0, j)];
    }
    for i in 1..=m {
        f[idx(i, 0)] =
            (f[idx(i - 1, 0)] + scoring.gap_extend).max(h[idx(i - 1, 0)] + scoring.gap_open);
        h[idx(i, 0)] = f[idx(i, 0)];
        for j in 1..=n {
            e[idx(i, j)] =
                (e[idx(i, j - 1)] + scoring.gap_extend).max(h[idx(i, j - 1)] + scoring.gap_open);
            f[idx(i, j)] =
                (f[idx(i - 1, j)] + scoring.gap_extend).max(h[idx(i - 1, j)] + scoring.gap_open);
            let diag = h[idx(i - 1, j - 1)] + scoring.subst(s[i - 1], t[j - 1]);
            h[idx(i, j)] = diag.max(e[idx(i, j)]).max(f[idx(i, j)]);
        }
    }

    // Traceback over the three matrices.
    #[derive(Clone, Copy, PartialEq)]
    enum Layer {
        H,
        E,
        F,
    }
    let (mut i, mut j) = (m, n);
    let mut layer = Layer::H;
    let mut rs = Vec::new();
    let mut rt = Vec::new();
    while i > 0 || j > 0 {
        match layer {
            Layer::H => {
                let v = h[idx(i, j)];
                if i > 0 && j > 0 && v == h[idx(i - 1, j - 1)] + scoring.subst(s[i - 1], t[j - 1]) {
                    i -= 1;
                    j -= 1;
                    rs.push(s[i]);
                    rt.push(t[j]);
                } else if j > 0 && v == e[idx(i, j)] {
                    layer = Layer::E;
                } else {
                    debug_assert!(i > 0 && v == f[idx(i, j)], "broken affine traceback");
                    layer = Layer::F;
                }
            }
            Layer::E => {
                rs.push(b'-');
                rt.push(t[j - 1]);
                let from_open = h[idx(i, j - 1)] + scoring.gap_open;
                let v = e[idx(i, j)];
                j -= 1;
                if v == from_open {
                    layer = Layer::H;
                } // else stay in E (gap extension)
            }
            Layer::F => {
                rs.push(s[i - 1]);
                rt.push(b'-');
                let from_open = h[idx(i - 1, j)] + scoring.gap_open;
                let v = f[idx(i, j)];
                i -= 1;
                if v == from_open {
                    layer = Layer::H;
                }
            }
        }
    }
    rs.reverse();
    rt.reverse();
    GlobalAlignment {
        aligned_s: rs,
        aligned_t: rt,
        score: h[idx(m, n)],
    }
}

/// Best local alignment with affine gaps: full matrix + traceback.
/// Returns the alignment and region, or `None` when the best score is 0.
pub fn sw_affine_align(
    s: &[u8],
    t: &[u8],
    scoring: &AffineScoring,
) -> Option<(GlobalAlignment, LocalRegion)> {
    scoring.validate();
    let (best, (ei, ej)) = sw_affine_score(s, t, scoring);
    if best <= 0 {
        return None;
    }
    // Recover the start with the reverse trick (Observation 6.1 carries
    // over to affine gaps: reversing both sequences preserves gap runs).
    let srev: Vec<u8> = s[..ei].iter().rev().copied().collect();
    let trev: Vec<u8> = t[..ej].iter().rev().copied().collect();
    let (rbest, (ri, rj)) = sw_affine_score(&srev, &trev, scoring);
    debug_assert_eq!(rbest, best, "reverse affine score must match");
    let (i0, j0) = (ei - ri, ej - rj);
    let alignment = nw_affine_align(&s[i0..ei], &t[j0..ej], scoring);
    Some((
        alignment,
        LocalRegion {
            s_begin: i0,
            s_end: ei,
            t_begin: j0,
            t_end: ej,
            score: best,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::sw_score_linear;
    use crate::matrix::nw_align;
    use crate::nw::nw_score;

    const PAPER: Scoring = Scoring::paper();

    #[test]
    fn linear_degenerate_matches_paper_sw() {
        let aff = AffineScoring::linear(PAPER);
        let s = b"TCTCGACGGATTAGTATATATATA";
        let t = b"ATATGATCGGAATAGCTCT";
        let (best, end) = sw_affine_score(s, t, &aff);
        let oracle = sw_score_linear(s, t, &PAPER, i32::MAX);
        assert_eq!(best, oracle.best_score);
        assert_eq!(end, oracle.best_end);
    }

    #[test]
    fn linear_degenerate_matches_paper_nw() {
        let aff = AffineScoring::linear(PAPER);
        let s = b"GACGGATTAG";
        let t = b"GATCGGAATAG";
        assert_eq!(nw_affine_score(s, t, &aff), nw_score(s, t, &PAPER));
        let g = nw_affine_align(s, t, &aff);
        assert_eq!(g.score, nw_align(s, t, &PAPER).score);
    }

    #[test]
    fn affine_prefers_one_long_gap_over_scattered_gaps() {
        // s has one 4-base insertion relative to t. With affine gaps the
        // whole insertion costs open + 3*extend = -7 instead of -16.
        let s = b"ACGTACGTAAAAACGTACGT";
        let t = b"ACGTACGTACGTACGT";
        let aff = AffineScoring::dna();
        let g = nw_affine_align(s, t, &aff);
        assert_eq!(g.score, 16 - 4 - 3); // 16 matches, open -4, 3 extends
                                         // The gap is one contiguous run in the t row.
        let trow = String::from_utf8(g.aligned_t.clone()).unwrap();
        assert!(trow.contains("----"), "gap should be contiguous: {trow}");
    }

    #[test]
    fn gotoh_score_equals_full_matrix_alignment() {
        let aff = AffineScoring::dna();
        let s = b"GATTACAGATTACA";
        let t = b"GATCACAGTTAA";
        let lin = nw_affine_score(s, t, &aff);
        let full = nw_affine_align(s, t, &aff);
        assert_eq!(lin, full.score);
    }

    #[test]
    fn traceback_rows_project_to_inputs() {
        let aff = AffineScoring::dna();
        let s = b"ACGTTTACGT";
        let t = b"ACGACGTCGT";
        let g = nw_affine_align(s, t, &aff);
        let ps: Vec<u8> = g.aligned_s.iter().copied().filter(|&c| c != b'-').collect();
        let pt: Vec<u8> = g.aligned_t.iter().copied().filter(|&c| c != b'-').collect();
        assert_eq!(ps, s);
        assert_eq!(pt, t);
    }

    #[test]
    fn local_affine_finds_planted_repeat() {
        let mut s = vec![b'A'; 60];
        let mut t = vec![b'C'; 60];
        let core = b"GATTACAGGGATTACAG";
        s[20..20 + core.len()].copy_from_slice(core);
        t[30..30 + core.len()].copy_from_slice(core);
        let (g, region) = sw_affine_align(&s, &t, &AffineScoring::dna()).expect("found");
        assert_eq!(g.score, core.len() as i32);
        assert_eq!(region.s_begin, 20);
        assert_eq!(region.t_begin, 30);
    }

    #[test]
    fn local_affine_none_when_nothing_aligns() {
        assert!(sw_affine_align(b"AAAA", b"CCCC", &AffineScoring::dna()).is_none());
    }

    #[test]
    fn empty_inputs() {
        let aff = AffineScoring::dna();
        assert_eq!(nw_affine_score(b"", b"", &aff), 0);
        assert_eq!(nw_affine_score(b"", b"ACG", &aff), -4 - 2);
        assert_eq!(sw_affine_score(b"", b"ACG", &aff).0, 0);
    }

    #[test]
    #[should_panic(expected = "gap penalties")]
    fn validates_gap_signs() {
        let bad = AffineScoring {
            matches: 1,
            mismatch: -1,
            gap_open: 0,
            gap_extend: -1,
        };
        let _ = nw_affine_score(b"A", b"A", &bad);
    }

    // Deterministic byte-sequence generator for the property tests.
    fn lcg_seq(seed: &mut u64, len: usize, alphabet: &[u8]) -> Vec<u8> {
        (0..len)
            .map(|_| {
                *seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                alphabet[((*seed >> 33) as usize) % alphabet.len()]
            })
            .collect()
    }

    #[test]
    fn sw_score_affine_matches_sw_affine_score_best() {
        let aff = AffineScoring::dna();
        let s = b"TCTCGACGGATTAGTATATATATA";
        let t = b"ATATGATCGGAATAGCTCT";
        let r = sw_score_affine(s, t, &aff, 3);
        let (best, end) = sw_affine_score(s, t, &aff);
        assert_eq!(r.best_score, best);
        assert_eq!(r.best_end, end);
        assert!(r.hits > 0);
    }

    #[test]
    fn degenerate_affine_equals_linear_kernel_property() {
        // Satellite: with gap_open == gap_extend the Gotoh recurrence
        // collapses to the paper's linear model — every field of the
        // result (score, end point incl. tie-break, hit count) must match
        // sw_score_linear bit for bit.
        let mut seed = 0x9e3779b97f4a7c15u64;
        for case in 0..200 {
            let m = (case * 7) % 37; // includes 0 and 1-length inputs
            let n = (case * 11) % 41;
            let s = lcg_seq(&mut seed, m, b"ACGT");
            let t = lcg_seq(&mut seed, n, b"ACGT");
            for scoring in [
                Scoring::paper(),
                Scoring {
                    matches: 2,
                    mismatch: -3,
                    gap: -5,
                },
            ] {
                let aff = AffineScoring::linear(scoring);
                for threshold in [0, 1, 3, i32::MAX] {
                    let lin = sw_score_linear(&s, &t, &scoring, threshold);
                    let got = sw_score_affine(&s, &t, &aff, threshold);
                    assert_eq!(got, lin, "case {case} threshold {threshold}");
                }
            }
        }
    }

    #[test]
    fn profile_oracle_matches_affine_on_uniform_matrix() {
        use crate::submat::{MatrixScoring, SubstMatrix, AA_N};
        // A matrix that is +1 on the diagonal, -1 off it, reproduces the
        // match/mismatch scheme on residue letters.
        let mut scores = [[-1i16; AA_N]; AA_N];
        for d in 0..AA_N {
            scores[d][d] = 1;
        }
        let ms = MatrixScoring::new(SubstMatrix::from_scores(scores), -4, -1);
        let aff = AffineScoring {
            matches: 1,
            mismatch: -1,
            gap_open: -4,
            gap_extend: -1,
        };
        let mut seed = 17u64;
        for case in 0..50 {
            let s = lcg_seq(&mut seed, (case * 5) % 31, b"ARNDCQEGHILKMFPSTWYV");
            let t = lcg_seq(&mut seed, (case * 13) % 29, b"ARNDCQEGHILKMFPSTWYV");
            for threshold in [0, 2, i32::MAX] {
                assert_eq!(
                    sw_score_profile(&s, &t, &ms, threshold),
                    sw_score_affine(&s, &t, &aff, threshold),
                    "case {case}"
                );
            }
        }
    }

    #[test]
    fn profile_oracle_blosum62_planted_motif() {
        use crate::submat::MatrixScoring;
        // A shared motif inside unrelated flanks: the local score is at
        // least the motif's self-score minus nothing (no gaps needed).
        let motif = b"WQHKRWCEW";
        let ms = MatrixScoring::blosum62();
        let mut s = vec![b'A'; 40];
        let mut t = vec![b'G'; 40];
        s[10..10 + motif.len()].copy_from_slice(motif);
        t[25..25 + motif.len()].copy_from_slice(motif);
        let self_score: i32 = motif
            .iter()
            .map(|&c| i32::from(ms.matrix.score(c, c)))
            .sum();
        let r = sw_score_profile(&s, &t, &ms, 1);
        assert!(
            r.best_score >= self_score,
            "{} < {self_score}",
            r.best_score
        );
        assert_eq!(r.best_end.0, 10 + motif.len());
        assert_eq!(r.best_end.1, 25 + motif.len());
    }

    #[test]
    #[should_panic(expected = "gap penalties")]
    fn profile_oracle_validates_gap_signs() {
        use crate::submat::MatrixScoring;
        let mut ms = MatrixScoring::blosum62();
        ms.gap_extend = 0;
        let _ = sw_score_profile(b"A", b"A", &ms, 1);
    }

    #[test]
    fn symmetric_in_arguments() {
        let aff = AffineScoring::dna();
        let s = b"ACGTGGTACCA";
        let t = b"TACGTGCAGTA";
        assert_eq!(sw_affine_score(s, t, &aff).0, sw_affine_score(t, s, &aff).0);
        assert_eq!(nw_affine_score(s, t, &aff), nw_affine_score(t, s, &aff));
    }
}
