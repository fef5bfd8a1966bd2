//! Property tests: lane-packed batch scoring must reproduce the scalar
//! single-pair oracle (`sw_score_linear`) exactly, per query — best
//! score, best end position (including the row-major-first tie-break),
//! and threshold-hit count — on random query sets and on adversarial
//! shapes: empty queries, one-character queries, queries too long for
//! the i16 envelope (which must spill to the scalar path), and ragged
//! mixes of all of the above sharing one pack. The group-size axis runs
//! every lane group from one query to the widest group on every ISA, so
//! every layout and width a [`GroupProfile`] can pick is held to the same
//! oracle — the `i8` rung with the records it must re-run at `i16` — and
//! one test pins the rule that picks the layout.

mod common;

use common::{sweep_group_sizes, I8_CEILING, RAGGED};
use genomedsm_core::linear::sw_score_linear;
use genomedsm_core::Scoring;
use genomedsm_kernels::{
    effective_lanes, fits_i16_query, group_lanes, score_batch, GroupProfile, Isa, KernelChoice,
};
use genomedsm_seq::random_dna;
use proptest::prelude::*;

const SC: Scoring = Scoring::paper();
const CHOICES: [KernelChoice; 3] = [KernelChoice::Scalar, KernelChoice::Simd, KernelChoice::Auto];

fn dna(max: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        proptest::sample::select(vec![b'A', b'C', b'G', b'T']),
        0..max,
    )
}

/// Query sets straddle the 8- and 16-lane pack widths (so chunking and
/// padding lanes both get exercised).
fn query_set() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(dna(90), 0..40)
}

/// Degrades a sampled query set in place: roughly one lane in six goes
/// empty and one in six shrinks to a single character, driven by `shape`
/// so the mix itself is part of the sampled input.
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

fn check(choice: KernelChoice, queries: &[Vec<u8>], t: &[u8], scoring: &Scoring, threshold: i32) {
    let refs: Vec<&[u8]> = queries.iter().map(Vec::as_slice).collect();
    let got = score_batch(choice, &refs, t, scoring, threshold);
    assert_eq!(got.len(), queries.len());
    for (q, (query, result)) in queries.iter().zip(&got).enumerate() {
        let oracle = sw_score_linear(query, t, scoring, threshold);
        assert_eq!(
            *result,
            oracle,
            "{choice} lane diverged on query {q} (|q|={} |t|={} thr={threshold})",
            query.len(),
            t.len()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_query_sets_match_oracle(mut queries in query_set(), t in dna(150),
                                      shape in 0u64..u64::MAX, thr in 0i32..30) {
        degrade(&mut queries, shape);
        for choice in CHOICES {
            check(choice, &queries, &t, &SC, thr);
        }
    }

    #[test]
    fn alternative_scorings_match(mut queries in query_set(), t in dna(120),
                                  shape in 0u64..u64::MAX,
                                  ma in 1i32..6, mi in -6i32..0, gap in -6i32..-1) {
        degrade(&mut queries, shape);
        let scoring = Scoring { matches: ma, mismatch: mi, gap };
        for choice in CHOICES {
            check(choice, &queries, &t, &scoring, 2);
        }
    }

    #[test]
    fn oversized_queries_spill_to_scalar_exactly(t in dna(100), n in 1usize..20) {
        // `matches = 20_000` pushes even a 2-base query past the i16
        // envelope: every lane must spill, and the spill must be exact.
        let scoring = Scoring { matches: 20_000, mismatch: -20_000, gap: -20_000 };
        let queries: Vec<Vec<u8>> = (0..n).map(|i| vec![b"ACGT"[i % 4]; 2 + i]).collect();
        prop_assert!(queries.iter().all(|q| !fits_i16_query(q.len(), &scoring)));
        for choice in CHOICES {
            check(choice, &queries, &t, &scoring, 1);
        }
    }
}

#[test]
fn ragged_mix_with_oversized_and_degenerate_lanes() {
    // One pack request holding everything at once: empties, single
    // characters, ordinary queries, and a query too long for the i16
    // envelope (40k bases of 'A' at +1 match exceeds the 32k ceiling).
    let long = vec![b'A'; 40_000];
    let queries: Vec<Vec<u8>> = vec![
        Vec::new(),
        b"A".to_vec(),
        long,
        b"GATTACA".to_vec(),
        vec![b'C'; 77],
        Vec::new(),
        b"ACGTACGTACGTACGTACGT".to_vec(),
    ];
    let t: Vec<u8> = (0..300).map(|i| b"ACGT"[(i * 7 + 3) % 4]).collect();
    for choice in CHOICES {
        for thr in [0, 1, 5, i32::MAX] {
            check(choice, &queries, &t, &SC, thr);
        }
    }
}

#[test]
fn tie_break_prefers_row_major_first_in_every_lane() {
    // Two equally scoring perfect matches per lane; each lane must report
    // the end with the smaller (row, column), exactly like the oracle.
    let queries: Vec<Vec<u8>> = vec![
        b"GATTACA".to_vec(),
        b"TTACAGA".to_vec(),
        b"GATTACAGATTACA".to_vec(),
    ];
    let t = b"GATTACATTGATTACATTGATTACA".to_vec();
    for choice in CHOICES {
        check(choice, &queries, &t, &SC, 1);
    }
}

#[test]
fn empty_target_and_empty_query_list() {
    for choice in CHOICES {
        assert!(score_batch(choice, &[], b"ACGT", &SC, 0).is_empty());
        let queries: Vec<Vec<u8>> = vec![b"ACGT".to_vec(), Vec::new()];
        check(choice, &queries, b"", &SC, 0);
    }
}

/// A pool of queries with the given lengths, cut from one sequence the
/// long target also contains, so lanes score real matches.
fn pool_of(lens: &[usize], genome: &[u8]) -> Vec<Vec<u8>> {
    lens.iter()
        .enumerate()
        .map(|(i, &len)| {
            let mut q = genome[i..i + len].to_vec();
            if len > 4 {
                q[len / 2] = b'N';
            }
            q
        })
        .collect()
}

#[test]
fn every_group_size_matches_the_oracle_in_either_layout() {
    let genome = random_dna(180, 1).into_bytes();
    // The same profile meets a long target, one shorter than most queries,
    // and an empty one, in that order.
    let targets: [&[u8]; 3] = [&genome[5..50], &genome[20..24], b""];
    let mut short_first = RAGGED;
    short_first.swap(0, 8); // a lone 5-base query: one stripe, mostly padding
    let mut with_empty = RAGGED;
    with_empty[1] = 0;
    for lens in [[24; 129], RAGGED, short_first, with_empty] {
        let pool = pool_of(&lens, &genome);
        let refs: Vec<&[u8]> = pool.iter().map(Vec::as_slice).collect();
        for thr in [0, 3] {
            let seen = sweep_group_sizes(&refs, &targets, &SC, thr);
            assert!(
                seen.striped > 0 && seen.packed > 0 && seen.narrow > 0,
                "{lens:?}: {seen:?}"
            );
            assert_eq!(
                seen.reruns, 0,
                "{lens:?}: nothing here passes the i8 ceiling"
            );
        }
    }
    // match = 1000 puts the 33- and 37-base members past the envelope:
    // groups holding one are refused, and score_batch spills only them.
    // No parameter fits an i8 lane, so no group runs narrow.
    let steep = Scoring::new(1000, -1000, -2000);
    assert!(fits_i16_query(32, &steep) && !fits_i16_query(33, &steep));
    assert_eq!(
        group_lanes(KernelChoice::Simd, &steep),
        effective_lanes(KernelChoice::Simd)
    );
    let pool = pool_of(&RAGGED, &genome);
    let refs: Vec<&[u8]> = pool.iter().map(Vec::as_slice).collect();
    let seen = sweep_group_sizes(&refs, &targets, &steep, 1500);
    assert_eq!(seen.narrow, 0);
}

#[test]
fn narrow_groups_re_run_at_i16_exactly_the_records_past_the_i8_ceiling() {
    // Members cut whole from the genome score their own length against it:
    // every RAGGED member stays under the 8-bit ceiling, and one member
    // lands exactly on it (answered on i8 lanes) or one past it (its half
    // group re-runs the record at i16), in the first or the second half.
    let genome = random_dna(600, 2).into_bytes();
    let targets: [&[u8]; 3] = [&genome, &genome[200..230], b""];
    assert_eq!(
        group_lanes(KernelChoice::Simd, &SC),
        2 * effective_lanes(KernelChoice::Simd)
    );
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
        let pool: Vec<&[u8]> = lens
            .iter()
            .enumerate()
            .map(|(i, &l)| &genome[3 * i..3 * i + l])
            .collect();
        assert_eq!(
            sw_score_linear(pool[at], &genome, &SC, 0).best_score,
            len as i32
        );
        // Hits counted at, just under and just past the ceiling.
        for thr in [0, 120, 121] {
            let seen = sweep_group_sizes(&pool, &targets, &SC, thr);
            assert!(seen.narrow > 0, "{seen:?}");
            // Every narrow group holds lane 3; lanes 20 and 31 only the
            // widest AVX2 groups and the AVX-512 ones do, lanes 40 and 63
            // only the AVX-512 ones (their second 32-lane half re-runs).
            // Where some narrow group holds the member, its record re-runs.
            if at < group_lanes(KernelChoice::Simd, &SC) {
                assert_eq!(seen.reruns > 0, len as i32 > I8_CEILING, "{len}: {seen:?}");
            }
        }
    }
    // match = 100 still fits i8 lanes, but two matches in a row pass the
    // ceiling, so nearly every record re-runs; and a 321-base member is
    // past the i16 envelope, so groups holding it are refused and
    // score_batch spills it alone.
    let sharp = Scoring::new(100, -100, -110);
    assert!(fits_i16_query(320, &sharp) && !fits_i16_query(321, &sharp));
    assert_eq!(
        group_lanes(KernelChoice::Simd, &sharp),
        2 * effective_lanes(KernelChoice::Simd)
    );
    for at in [12, 24] {
        let mut lens = RAGGED;
        lens[at] = 321;
        let pool: Vec<&[u8]> = lens
            .iter()
            .enumerate()
            .map(|(i, &l)| &genome[2 * i..2 * i + l])
            .collect();
        for thr in [0, 150] {
            let seen = sweep_group_sizes(&pool, &targets, &sharp, thr);
            assert!(seen.narrow > 0 && seen.reruns > 0, "{seen:?}");
        }
    }
}

#[test]
fn layout_follows_occupancy() {
    let striped = |m: usize, g: usize, isa: Isa| {
        let q = vec![b'A'; m];
        GroupProfile::new(&vec![q.as_slice(); g], &SC, isa)
            .expect("short queries fit")
            .is_striped()
    };
    for isa in Isa::ALL.into_iter().filter(|isa| isa.available()) {
        let lanes = isa.lanes();
        for m in [1, 2, 7, 8, 9, 15, 16, 17, 31, 33, 64, 150] {
            // Equal lengths: adding a member never turns packed into striped.
            for g in 1..lanes {
                assert!(
                    !striped(m, g + 1, isa) || striped(m, g, isa),
                    "{}: |q|={m} is striped at g={} but not at g={g}",
                    isa.name(),
                    g + 1
                );
            }
            assert!(!striped(m, lanes, isa), "{}: full group of {m}", isa.name());
            if m >= lanes {
                assert!(striped(m, 1, isa), "{}: lone query of {m}", isa.name());
            }
        }
    }
}
