//! Property suite: every affine kernel path (per-pair `score_affine` on
//! each `KernelChoice`, plus the lane-packed `score_batch`) must
//! reproduce the scalar Gotoh oracle (`sw_score_profile`) exactly — best
//! score, best end position (including the row-major-first tie-break),
//! and threshold-hit count — on random residue sequences and adversarial
//! shapes: empty sequences, one-character sequences, ragged packs, and
//! problems past the i16 saturation boundary — where a packed query must
//! spill to the scalar path, and a pair must be answered by the rung of
//! the lane-width ladder its values call for (asserted on every ISA).
//!
//! Matrices covered: BLOSUM62, PAM250, and random symmetric custom
//! matrices with random (valid) affine penalties — and match/mismatch
//! matrices with `gap_open == gap_extend`, for which the harness also
//! demands the linear-gap kernels' answer under the equivalent `Scoring`
//! (linear gap is the degenerate affine gap, through both layouts on
//! every ISA). The group-size axis runs every lane group from one query
//! to the widest group on every ISA, in whichever layout and width its
//! `GroupProfile` picks — the `i8` rung with the records it must re-run
//! at `i16`.

mod common;

use common::{check_ladder, sweep_group_sizes, I8_CEILING, RAGGED};
use genomedsm_core::scoring::Scoring;
use genomedsm_core::submat::{MatrixScoring, SubstMatrix, AA_ALPHABET, AA_N};
use genomedsm_core::sw_score_profile;
use genomedsm_kernels::{
    available_kernels, effective_lanes, fits_i16_affine, fits_i16_affine_query, group_lanes,
    kernel_for, score_batch, score_batch_packed, Isa, KernelChoice, PackedProfile, Rung,
};
use proptest::prelude::*;

const CHOICES: [KernelChoice; 3] = [KernelChoice::Scalar, KernelChoice::Simd, KernelChoice::Auto];

fn residues(max: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(proptest::sample::select(AA_ALPHABET.to_vec()), 0..max)
}

fn query_set() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(residues(70), 0..36)
}

/// A random symmetric matrix with a positive diagonal, plus random valid
/// affine penalties (`gap_open <= gap_extend < 0`), all derived from one
/// sampled seed so failures replay.
fn random_scheme(seed: u64) -> MatrixScoring {
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as i64
    };
    let mut scores = [[0i16; AA_N]; AA_N];
    #[allow(clippy::needless_range_loop)] // symmetric fill needs both indices
    for a in 0..AA_N {
        for b in a..AA_N {
            let v = if a == b {
                1 + (next() % 10) as i16 // diagonal in 1..=10
            } else {
                -6 + (next() % 13) as i16 // off-diagonal in -6..=6
            };
            scores[a][b] = v;
            scores[b][a] = v;
        }
    }
    let ge = -(1 + (next() % 4) as i32); // extend in -4..=-1
    let go = ge - (next() % 12) as i32; // open <= extend
    MatrixScoring::new(SubstMatrix::from_scores(scores), go, ge)
}

/// The match/mismatch matrix with equal open and extend penalties that
/// scores residue sequences exactly as `lin` does.
fn linear_as_affine(lin: &Scoring) -> MatrixScoring {
    let mut scores = [[lin.mismatch as i16; AA_N]; AA_N];
    for (a, row) in scores.iter_mut().enumerate() {
        row[a] = lin.matches as i16;
    }
    MatrixScoring::new(SubstMatrix::from_scores(scores), lin.gap, lin.gap)
}

/// The linear-gap `Scoring` that `ms` degenerates to, if it does.
fn linear_twin(ms: &MatrixScoring) -> Option<Scoring> {
    let table = ms.matrix.table();
    let lin = Scoring {
        matches: i32::from(table[0][0]),
        mismatch: i32::from(table[0][1]),
        gap: ms.gap_open,
    };
    (ms.gap_open == ms.gap_extend && linear_as_affine(&lin) == *ms).then_some(lin)
}

/// One pair through every runnable kernel object and choice, and through
/// the width ladder of every ISA; returns the rung the ladder answered on.
fn check_pair(s: &[u8], t: &[u8], ms: &MatrixScoring, threshold: i32) -> Rung {
    let (want, rung) = check_ladder(s, t, ms, threshold);
    let twin = linear_twin(ms);
    if let Some(lin) = &twin {
        assert_eq!(
            check_ladder(s, t, lin, threshold),
            (want.clone(), rung),
            "twin"
        );
    }
    for k in available_kernels() {
        assert_eq!(
            k.score_affine(s, t, ms, threshold),
            want,
            "kernel {} (|s|={} |t|={} thr={threshold})",
            k.name(),
            s.len(),
            t.len()
        );
        if let Some(lin) = &twin {
            assert_eq!(
                k.score(s, t, lin, threshold),
                want,
                "linear twin on {}",
                k.name()
            );
        }
    }
    for choice in CHOICES {
        assert_eq!(
            kernel_for(choice).score_affine(s, t, ms, threshold),
            want,
            "choice {choice}"
        );
    }
    rung
}

/// One query set through the lane-packed batch path for every choice.
fn check_batch(queries: &[Vec<u8>], t: &[u8], ms: &MatrixScoring, threshold: i32) {
    let refs: Vec<&[u8]> = queries.iter().map(Vec::as_slice).collect();
    if let Some(lin) = linear_twin(ms) {
        for choice in CHOICES {
            assert_eq!(
                score_batch(choice, &refs, t, &lin, threshold),
                score_batch(choice, &refs, t, ms, threshold),
                "{choice} linear twin"
            );
        }
        for isa in Isa::ALL.into_iter().filter(|isa| isa.available()) {
            for pack in refs.chunks(isa.lanes()) {
                let mut linear = PackedProfile::new(pack, &lin, isa).expect("short queries fit");
                let mut affine = PackedProfile::new(pack, ms, isa).expect("short queries fit");
                assert_eq!(
                    score_batch_packed(&mut linear, t, threshold),
                    score_batch_packed(&mut affine, t, threshold),
                    "{} linear twin",
                    isa.name()
                );
            }
        }
    }
    for choice in CHOICES {
        let got = score_batch(choice, &refs, t, ms, threshold);
        assert_eq!(got.len(), queries.len());
        for (q, (query, result)) in queries.iter().zip(&got).enumerate() {
            let oracle = sw_score_profile(query, t, ms, threshold);
            assert_eq!(
                *result,
                oracle,
                "{choice} lane diverged on query {q} (|q|={} |t|={} thr={threshold})",
                query.len(),
                t.len()
            );
        }
    }
}

/// Degrades a sampled query set in place (one lane in six goes empty, one
/// in six shrinks to a single residue), driven by the sampled `shape`.
fn degrade(queries: &mut [Vec<u8>], mut shape: u64) {
    for q in queries.iter_mut() {
        match shape % 6 {
            0 => q.clear(),
            1 => q.truncate(1),
            _ => {}
        }
        shape /= 6;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn blosum62_pairs_match_oracle(s in residues(120), t in residues(120), thr in 0i32..40) {
        check_pair(&s, &t, &MatrixScoring::blosum62(), thr);
    }

    #[test]
    fn pam250_pairs_match_oracle(s in residues(100), t in residues(100), thr in 0i32..30) {
        let ms = MatrixScoring::new(SubstMatrix::pam250(), -10, -2);
        check_pair(&s, &t, &ms, thr);
    }

    #[test]
    fn random_matrix_pairs_match_oracle(s in residues(90), t in residues(90),
                                        seed in 0u64..u64::MAX, thr in 0i32..20) {
        check_pair(&s, &t, &random_scheme(seed), thr);
    }

    #[test]
    fn ragged_packs_match_oracle(mut queries in query_set(), t in residues(110),
                                 shape in 0u64..u64::MAX, thr in 0i32..20) {
        degrade(&mut queries, shape);
        check_batch(&queries, &t, &MatrixScoring::blosum62(), thr);
        let pam = MatrixScoring::new(SubstMatrix::pam250(), -11, -1);
        check_batch(&queries, &t, &pam, thr);
    }

    #[test]
    fn linear_gap_is_the_degenerate_affine_gap(s in residues(120), mut queries in query_set(),
                                               t in residues(110), shape in 0u64..u64::MAX,
                                               matches in 1i32..6, mismatch in -5i32..1,
                                               gap in -6i32..0, thr in 0i32..20) {
        let ms = linear_as_affine(&Scoring::new(matches, mismatch, gap));
        prop_assert!(linear_twin(&ms).is_some());
        check_pair(&s, &t, &ms, thr);
        degrade(&mut queries, shape);
        check_batch(&queries, &t, &ms, thr);
    }

    #[test]
    fn random_matrix_packs_match_oracle(mut queries in query_set(), t in residues(90),
                                        shape in 0u64..u64::MAX, seed in 0u64..u64::MAX) {
        degrade(&mut queries, shape);
        check_batch(&queries, &t, &random_scheme(seed), 3);
    }
}

#[test]
fn saturation_boundary_escalates_the_pair_and_spills_the_pack() {
    // BLOSUM62's best entry is 11 (W/W), so queries longer than
    // 32_000 / 11 = 2909 residues leave the a-priori i16 envelope. A W-run
    // of 3000 against a W-run target really does exceed i16::MAX (score
    // 33_000): every striped engine must detect that from its i16 pass and
    // answer on i32 lanes — not hand the pair to the oracle, as the
    // a-priori gate used to.
    let ms = MatrixScoring::blosum62();
    let boundary = 32_000 / 11; // 2909: largest admitted query length
    assert!(fits_i16_affine_query(boundary, &ms));
    assert!(!fits_i16_affine_query(boundary + 1, &ms));

    let s = vec![b'W'; 3000];
    let t = vec![b'W'; 3000];
    assert!(!fits_i16_affine(s.len(), t.len(), &ms));
    assert_eq!(check_pair(&s, &t, &ms, 32_500), Rung::I32);
    assert_eq!(sw_score_profile(&s, &t, &ms, 1).best_score, 33_000);
    // The same dimensions over unrelated residues saturate nothing: the
    // ladder follows the data and stays on i16 lanes.
    let a = genomedsm_seq::random_protein(3000, 7).into_bytes();
    let b = genomedsm_seq::random_protein(3000, 8).into_bytes();
    assert_eq!(check_pair(&a, &b, &ms, 40), Rung::I16);
    // The packed path admits a priori and must still spill.
    let queries: Vec<Vec<u8>> = vec![s.clone(), vec![b'W'; 10], Vec::new()];
    check_batch(&queries, &t, &ms, 1);
}

#[test]
fn problem_just_under_the_ceiling_stays_on_i16_exactly() {
    // min(m, n) * 11 = 31_999 < 32_000: every engine must produce the
    // exact (large) score on i16 lanes without saturating.
    let ms = MatrixScoring::blosum62();
    let m = 2909;
    let s = vec![b'W'; m];
    let t = vec![b'W'; 4000];
    assert!(fits_i16_affine(s.len(), t.len(), &ms));
    assert_eq!(check_pair(&s, &t, &ms, 100), Rung::I16);
}

#[test]
fn degenerate_shapes_on_every_matrix() {
    let schemes = [
        MatrixScoring::blosum62(),
        MatrixScoring::new(SubstMatrix::pam250(), -8, -3),
        random_scheme(0xfeed_beef),
    ];
    let shapes: [(&[u8], &[u8]); 6] = [
        (b"", b""),
        (b"", b"WCEW"),
        (b"WCEW", b""),
        (b"W", b"W"),
        (b"W", b"C"),
        (b"*", b"*"),
    ];
    for ms in &schemes {
        for (s, t) in shapes {
            check_pair(s, t, ms, 1);
        }
    }
}

#[test]
fn invalid_schemes_are_rejected_by_admission() {
    // Positive or zero penalties, open milder than extend, or an
    // all-non-positive matrix must all be routed to scalar.
    let mut flat = [[-1i16; AA_N]; AA_N];
    assert!(!fits_i16_affine_query(
        5,
        &MatrixScoring::new(SubstMatrix::from_scores(flat), -11, -1)
    ));
    flat[0][0] = 2;
    let ok = SubstMatrix::from_scores(flat);
    assert!(fits_i16_affine_query(5, &MatrixScoring::new(ok, -11, -1)));
    assert!(!fits_i16_affine_query(5, &MatrixScoring::new(ok, 0, -1)));
    assert!(!fits_i16_affine_query(5, &MatrixScoring::new(ok, -1, 0)));
    // open (-1) milder than extend (-2): the lazy-F argument breaks, so
    // admission must refuse.
    assert!(!fits_i16_affine_query(5, &MatrixScoring::new(ok, -1, -2)));
    // Equal penalties (the linear degenerate case) are admitted.
    assert!(fits_i16_affine_query(5, &MatrixScoring::new(ok, -2, -2)));
    // Rejection still yields exact results through the public kernels,
    // from the oracle: no lane width reasons about such a scheme.
    let ms = MatrixScoring::new(ok, -1, -2);
    assert_eq!(check_pair(b"AAAA", b"AAAA", &ms, 1), Rung::Scalar);
}

/// `lens` as queries cut from `protein`, member `i` at offset `step * i`.
fn cut<'a>(protein: &'a [u8], lens: &[usize], step: usize) -> Vec<&'a [u8]> {
    lens.iter()
        .enumerate()
        .map(|(i, &len)| &protein[step * i..step * i + len])
        .collect()
}

#[test]
fn every_group_size_matches_the_oracle_in_either_layout() {
    // One protein the long target also contains, so lanes score real
    // matches; the same profile then meets a target shorter than most
    // queries and an empty one.
    let protein = genomedsm_seq::random_protein(180, 1).into_bytes();
    let targets: [&[u8]; 3] = [&protein[5..50], &protein[20..24], b""];
    let mut short_first = RAGGED;
    short_first.swap(0, 8); // a lone 5-residue query: one stripe, mostly padding
    let mut with_empty = RAGGED;
    with_empty[1] = 0;
    let pam = MatrixScoring::new(SubstMatrix::pam250(), -10, -2);
    for lens in [[24; 129], RAGGED, short_first, with_empty] {
        for (ms, thr) in [(MatrixScoring::blosum62(), 0), (pam, 5)] {
            let seen = sweep_group_sizes(&cut(&protein, &lens, 1), &targets, &ms, thr);
            assert!(
                seen.striped > 0 && seen.packed > 0 && seen.narrow > 0,
                "{lens:?}: {seen:?}"
            );
        }
    }
    // BLOSUM62 x 100 (best entry 1100) puts the 33- and 37-residue members
    // past the envelope: groups holding one are refused, and score_batch
    // spills only them. No parameter fits an i8 lane, so no group runs
    // narrow.
    let steep = scaled_blosum62(100, -1100, -100);
    assert!(fits_i16_affine_query(29, &steep) && !fits_i16_affine_query(30, &steep));
    assert_eq!(
        group_lanes(KernelChoice::Simd, &steep),
        effective_lanes(KernelChoice::Simd)
    );
    let seen = sweep_group_sizes(&cut(&protein, &RAGGED, 1), &targets, &steep, 900);
    assert_eq!(seen.narrow, 0);
}

/// BLOSUM62 with every entry multiplied by `k`, under the given gaps.
fn scaled_blosum62(k: i16, gap_open: i32, gap_extend: i32) -> MatrixScoring {
    let mut scaled = *MatrixScoring::blosum62().matrix.table();
    for v in scaled.iter_mut().flatten() {
        *v *= k;
    }
    MatrixScoring::new(SubstMatrix::from_scores(scaled), gap_open, gap_extend)
}

#[test]
fn narrow_groups_re_run_at_i16_exactly_the_records_past_the_i8_ceiling() {
    let protein = genomedsm_seq::random_protein(600, 2).into_bytes();
    let targets: [&[u8]; 3] = [&protein, &protein[200..230], b""];
    // Under the +1/-1 matrix a member cut whole from the target scores its
    // own length: the RAGGED members stay under the 8-bit ceiling, and one
    // lands exactly on it (answered on i8 lanes) or one past it (its half
    // group re-runs the record at i16), in the first or the second half.
    let unit = linear_as_affine(&Scoring::paper());
    for ms in [unit, MatrixScoring::blosum62()] {
        assert_eq!(
            group_lanes(KernelChoice::Simd, &ms),
            2 * effective_lanes(KernelChoice::Simd)
        );
    }
    for (at, len) in [
        (3, 120),
        (3, 121),
        (20, 120),
        (20, 121),
        (31, 150),
        (40, 121),
        (63, 150),
    ] {
        let mut lens = RAGGED;
        lens[at] = len;
        let pool = cut(&protein, &lens, 3);
        assert_eq!(
            sw_score_profile(pool[at], &protein, &unit, 0).best_score,
            len as i32
        );
        for thr in [0, 120, 121] {
            let seen = sweep_group_sizes(&pool, &targets, &unit, thr);
            assert!(seen.narrow > 0, "{seen:?}");
            // Every narrow group holds lane 3; lanes 20 and 31 only the
            // widest AVX2 groups and the AVX-512 ones do, lanes 40 and 63
            // only the AVX-512 ones (their second 32-lane half re-runs).
            // Where some narrow group holds the member, its record re-runs.
            if at < group_lanes(KernelChoice::Simd, &unit) {
                assert_eq!(seen.reruns > 0, len as i32 > I8_CEILING, "{len}: {seen:?}");
            }
        }
        // BLOSUM62 with gap_open != gap_extend: the long member scores far
        // past the ceiling against itself.
        let seen = sweep_group_sizes(&pool, &targets, &MatrixScoring::blosum62(), 0);
        assert!(seen.narrow > 0, "{seen:?}");
    }
    // BLOSUM62 x 10 under -110/-10 still fits i8 lanes, but a single W/W
    // pair nearly reaches the ceiling, so nearly every record re-runs; and
    // a 291-residue member is past the i16 envelope, so groups holding it
    // are refused and score_batch spills it alone.
    let sharp = scaled_blosum62(10, -110, -10);
    assert!(fits_i16_affine_query(290, &sharp) && !fits_i16_affine_query(291, &sharp));
    assert_eq!(
        group_lanes(KernelChoice::Simd, &sharp),
        2 * effective_lanes(KernelChoice::Simd)
    );
    for at in [12, 24] {
        let mut lens = RAGGED;
        lens[at] = 291;
        let pool = cut(&protein, &lens, 2);
        for thr in [0, 150] {
            let seen = sweep_group_sizes(&pool, &targets, &sharp, thr);
            assert!(seen.narrow > 0 && seen.reruns > 0, "{seen:?}");
        }
    }
}
