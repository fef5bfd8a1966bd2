//! Property tests: every striped engine must reproduce the scalar oracle
//! (`sw_score_linear`) exactly — best score, best end position (including
//! the row-major-first tie-break), and threshold-hit count — on random
//! DNA and on adversarial shapes: runs up to and across the i16 ceiling,
//! empty and one-character sequences, and query lengths that do not divide
//! the stripe count. Every case also asserts the rung of the lane-width
//! ladder that answered: `i16` while no cell passes 32 000, `i32` when one
//! does, the oracle only for degenerate schemes — and `BandScorer` must
//! make the same choice per wavefront unit, against the scalar band loop.

mod common;

use common::{check_ladder, engines};
use genomedsm_core::linear::sw_score_linear;
use genomedsm_core::Scoring;
use genomedsm_kernels::{fits_i16, BandScorer, KernelChoice, Rung, ScoreKernel};
use proptest::prelude::*;

const SC: Scoring = Scoring::paper();

fn dna() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        proptest::sample::select(vec![b'A', b'C', b'G', b'T']),
        0..180,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn random_dna_matches_oracle(s in dna(), t in dna(), thr in 0i32..40) {
        check_ladder(&s, &t, &SC, thr);
    }

    #[test]
    fn lengths_off_stripe_boundaries(extra in 0usize..33, t in dna()) {
        // Query lengths straddling every residue class of the 4-, 8- and
        // 16-lane stripe counts, so padding lanes and the final partial
        // stripe are all exercised.
        let s: Vec<u8> = b"ACGTACGTACGTACGTACGTACGTACGTACGTA"[..extra].to_vec();
        check_ladder(&s, &t, &SC, 5);
    }

    #[test]
    fn alternative_scorings_match(s in dna(), t in dna(), ma in 1i32..6, mi in -6i32..0, gap in -6i32..-1) {
        check_ladder(&s, &t, &Scoring { matches: ma, mismatch: mi, gap }, 3);
    }
}

proptest! {
    // Saturation cases run long perfect matches; fewer, bigger cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn runs_across_the_i16_ceiling_match_oracle(len in 1000usize..2200) {
        // A perfect match of `len` bases at `matches = 20` drives H to
        // 20 * len: up to 1600 bases that stays within the i16 ceiling,
        // where a saturating-add bug would clamp scores early; past it the
        // i16 pass must notice and the i32 pass must answer. The threshold
        // sits above both ceilings' worth of i16, so the hit floor is
        // exercised on whichever rung answers.
        let scoring = Scoring { matches: 20, mismatch: -19, gap: -21 };
        let s: Vec<u8> = (0..len).map(|i| b"ACGT"[i % 4]).collect();
        let (oracle, rung) = check_ladder(&s, &s, &scoring, 10_000);
        prop_assert_eq!(oracle.best_score, 20 * len as i32);
        prop_assert_eq!(rung == Rung::I16, fits_i16(len, len, &scoring));
    }
}

#[test]
fn empty_and_single_char_sequences() {
    let cases: [(&[u8], &[u8]); 6] = [
        (b"", b""),
        (b"", b"ACGT"),
        (b"ACGT", b""),
        (b"A", b"A"),
        (b"A", b"C"),
        (b"G", b"TTTTGTTTT"),
    ];
    for (s, t) in cases {
        for thr in [0, 1, 2] {
            check_ladder(s, t, &SC, thr);
        }
    }
}

#[test]
fn steep_schemes_escalate_and_only_degenerate_ones_take_the_oracle() {
    // Four bases at 20 000 a match: the old a-priori gate sent this to the
    // scalar oracle; the ladder saturates i16 on the second column and
    // answers on i32 lanes.
    let steep = Scoring::new(20_000, -20_000, -20_000);
    assert!(!fits_i16(4, 4, &steep));
    let (oracle, rung) = check_ladder(b"ACGT", b"ACGT", &steep, 1);
    assert_eq!((oracle.best_score, rung), (80_000, Rung::I32));
    // The worst-case bound is not the data: random bases under a scheme
    // whose dimensions alone "could" saturate stay on i16 lanes.
    let s = genomedsm_seq::random_dna(2_000, 5).into_bytes();
    let t = genomedsm_seq::random_dna(2_000, 6).into_bytes();
    let blast_like = Scoring::new(20, -19, -21);
    assert!(!fits_i16(s.len(), t.len(), &blast_like));
    let (_, rung) = check_ladder(&s, &t, &blast_like, 100);
    assert_eq!(rung, Rung::I16);
    // No column cap (a free gap, a mismatch that pays, parameters past the
    // lane range): not reasoned about at any width.
    let free_gap = Scoring {
        matches: 1,
        mismatch: -1,
        gap: 0,
    };
    for degenerate in [
        free_gap,
        Scoring::new(1, 2, -2),
        Scoring::new(30_000, -1, -2),
    ] {
        let (_, rung) = check_ladder(b"ACGTTGCA", b"ACGATGCA", &degenerate, 1);
        assert_eq!(rung, Rung::Scalar);
    }
}

#[test]
fn a_threshold_past_i16_counts_hits_on_the_rung_that_can_hold_it() {
    // 2 100 identical bases at 20 a match score 42 000, so a threshold of
    // 40 000 has hits — 100 on the main diagonal plus their neighbours —
    // that an i16 hit floor cannot express. Under the old gate "count
    // nothing" was unreachable; on the ladder it must be per rung.
    let scoring = Scoring::new(20, -19, -21);
    let s: Vec<u8> = (0..2_100).map(|i| b"ACGT"[(i * 7 + i / 5) % 4]).collect();
    let (oracle, rung) = check_ladder(&s, &s, &scoring, 40_000);
    assert_eq!((oracle.best_score, rung), (42_000, Rung::I32));
    assert!(oracle.hits >= 100, "{} hits", oracle.hits);
    let run = band_run(&s, &s, &scoring, 40_000, 512, 512, None);
    assert_eq!(run.hits, oracle.hits);
    assert_eq!(run.best, oracle.best_score);
}

#[test]
fn tie_break_prefers_row_major_first() {
    // Two equally scoring perfect matches; the oracle reports the one
    // whose end has the smaller (row, column) in row-major order.
    let s = b"GATTACA";
    let t = b"GATTACAXXGATTACA";
    let (oracle, _) = check_ladder(s, t, &SC, 1);
    assert_eq!(oracle.best_end, (7, 7), "first occurrence must win");
    for kernel in engines() {
        assert_eq!(kernel.score(s, t, &SC, 1), oracle, "{}", kernel.name());
    }
}

/// The scalar band loop `strategies::preprocess` falls back to: the band's
/// column left of the current unit, entry 0 being the border row's.
struct ScalarBand<'a> {
    rows: &'a [u8],
    left: Vec<i32>,
}

/// What one unit hands back, plus its largest cell.
#[derive(Default)]
struct UnitOut {
    bottom: Vec<i32>,
    col_hits: Vec<u64>,
    saved: Vec<(usize, Vec<i32>)>,
    max: i32,
}

impl ScalarBand<'_> {
    fn unit(
        &mut self,
        chunk: &[u8],
        top: &[i32],
        first_col: usize,
        scoring: &Scoring,
        threshold: i32,
        save_every: Option<usize>,
    ) -> UnitOut {
        let mut out = UnitOut::default();
        self.left[0] = top[0];
        for (jj, &tc) in chunk.iter().enumerate() {
            let mut cur = vec![top[jj + 1]];
            for (i, &sc) in self.rows.iter().enumerate() {
                let h = (self.left[i] + scoring.subst(sc, tc))
                    .max(self.left[i + 1] + scoring.gap)
                    .max(cur[i] + scoring.gap)
                    .max(0);
                cur.push(h);
                out.max = out.max.max(h);
            }
            let hits = cur[1..].iter().filter(|&&h| h >= threshold).count();
            out.col_hits.push(hits as u64);
            out.bottom.push(cur[self.rows.len()]);
            if save_every.is_some_and(|every| (first_col + jj).is_multiple_of(every)) {
                out.saved.push((first_col + jj, cur[1..].to_vec()));
            }
            self.left = cur;
        }
        out
    }
}

/// A whole matrix through `BandScorer`, band by band and unit by unit,
/// each unit against [`ScalarBand`] fed the same borders.
struct BandRun {
    best: i32,
    hits: u64,
    /// Per band, per unit: whether some value the unit read or wrote
    /// exceeds the i16 ceiling.
    hot: Vec<Vec<bool>>,
    /// Per band: units answered per rung (`Rung as usize`).
    units: Vec<[u64; 3]>,
}

fn band_run(
    s: &[u8],
    t: &[u8],
    scoring: &Scoring,
    threshold: i32,
    band_rows: usize,
    chunk_cols: usize,
    save_every: Option<usize>,
) -> BandRun {
    let dims = (s.len(), t.len());
    let mut run = BandRun {
        best: 0,
        hits: 0,
        hot: Vec::new(),
        units: Vec::new(),
    };
    // Border row under the band above: entry j is H[row0][j].
    let mut border = vec![0i32; t.len() + 1];
    for rows in s.chunks(band_rows) {
        let mut scorer = BandScorer::new(
            KernelChoice::Simd,
            rows,
            dims,
            scoring,
            threshold,
            save_every,
        )
        .expect("simd runs the ladder on anything i32 lanes hold");
        let mut scalar = ScalarBand {
            rows,
            left: vec![0; rows.len() + 1],
        };
        let mut next_border = vec![0i32];
        let (mut hot, mut band_best) = (Vec::new(), 0);
        // Whatever the caller's vectors already hold must survive, and a
        // failed i16 attempt must leave nothing behind.
        let (mut bottom, mut col_hits, mut saved) = (vec![-7], vec![77], vec![(0, vec![-7])]);
        let mut col = 1;
        for chunk in t.chunks(chunk_cols) {
            let top = &border[col - 1..col + chunk.len()];
            let inbound = top.iter().chain(&scalar.left[1..]).copied().max();
            let want = scalar.unit(chunk, top, col, scoring, threshold, save_every);
            let mark = (bottom.len(), col_hits.len(), saved.len());
            scorer.advance(chunk, top, col, &mut bottom, &mut col_hits, &mut saved);
            assert_eq!(
                (&bottom[mark.0..], &col_hits[mark.1..], &saved[mark.2..]),
                (&want.bottom[..], &want.col_hits[..], &want.saved[..]),
                "unit at column {col}"
            );
            hot.push(inbound.max(Some(want.max)) > Some(32_000));
            band_best = band_best.max(want.max);
            run.hits += want.col_hits.iter().sum::<u64>();
            next_border.extend_from_slice(&want.bottom);
            col += chunk.len();
        }
        assert_eq!(
            (bottom[0], col_hits[0], &saved[0]),
            (-7, 77, &(0, vec![-7])),
            "advance must only append"
        );
        assert_eq!(scorer.best_score(), band_best);
        run.best = run.best.max(band_best);
        run.units.push(scorer.units());
        run.hot.push(hot);
        border = next_border;
    }
    run
}

#[test]
fn band_units_escalate_one_by_one_where_the_diagonal_runs_hot() {
    // 1 800 shared bases at 20 a match, off-centre in a 3 000 x 3 000
    // matrix: the diagonal passes 32 000 after 1 600 of them, in band 7 of
    // ten, and decays through bands 8 and 9. Everything before — and
    // every unit left of the diagonal in those bands — stays narrow.
    let scoring = Scoring::new(20, -19, -21);
    let shared = genomedsm_seq::random_dna(1_800, 1).into_bytes();
    let noise = |len, seed| genomedsm_seq::random_dna(len, seed).into_bytes();
    let s = [noise(600, 2), shared.clone(), noise(600, 3)].concat();
    let t = [noise(300, 4), shared, noise(900, 5)].concat();
    let oracle = sw_score_linear(&s, &t, &scoring, 25_000);
    assert!(oracle.best_score > 32_000, "{}", oracle.best_score);

    let run = band_run(&s, &t, &scoring, 25_000, 300, 300, Some(128));
    assert_eq!((run.best, run.hits), (oracle.best_score, oracle.hits));
    let mut wide_bands = 0;
    for (b, (hot, units)) in run.hot.iter().zip(&run.units).enumerate() {
        // A band widens at its first hot unit and stays wide; the units
        // before it ran once, on i16, and none ran scalar.
        let narrow = hot.iter().position(|&h| h).unwrap_or(hot.len()) as u64;
        let want = [narrow, hot.len() as u64 - narrow, 0];
        assert_eq!(*units, want, "band {b}: hot units {hot:?}");
        wide_bands += usize::from(units[Rung::I32 as usize] > 0);
    }
    assert!(
        (1..=4).contains(&wide_bands) && run.units[..7].iter().all(|u| u[Rung::I32 as usize] == 0),
        "{:?}",
        run.units
    );
}
