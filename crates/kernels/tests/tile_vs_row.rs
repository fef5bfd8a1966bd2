//! The anti-diagonal heuristic tile against the row kernel it transcribes:
//! over the same block and the same borders, `HeuristicTile::run` must
//! produce `RowKernel::process_row_segment`'s bottom row, right column and
//! candidate queue (as a multiset: the tile pushes in diagonal order), on
//! every engine this host runs — the portable one included, which is what
//! Miri checks.

use genomedsm_core::{HCell, HeuristicParams, LocalRegion, RowKernel, Scoring};
use genomedsm_kernels::{HeuristicTile, Isa, Rung};

/// xorshift64: deterministic borders and sequences per case.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }

    fn small(&mut self, n: u64) -> u32 {
        self.below(n) as u32
    }
}

/// A border cell: fresh, or carrying a candidate (open or not) whose
/// counters come from a tiny range so that priorities tie often.
fn border_cell(rng: &mut Rng) -> HCell {
    if rng.below(4) == 0 {
        return HCell::fresh();
    }
    let score = rng.small(14) as i32;
    HCell {
        score,
        max: score + rng.small(6) as i32,
        min: score - rng.small(score as u64 + 1) as i32,
        beg_i: rng.small(40),
        beg_j: rng.small(40),
        gaps: rng.small(3),
        matches: rng.small(3),
        mismatches: rng.small(2),
        open: rng.below(2) == 0,
    }
}

struct Block {
    s: Vec<u8>,
    t: Vec<u8>,
    origin: (usize, usize),
    top: Vec<HCell>,
    left: Vec<HCell>,
}

impl Block {
    /// An `h × w` block at a random offset into random sequences over a
    /// two- or four-letter alphabet (two letters: long matching runs).
    fn random(h: usize, w: usize, rng: &mut Rng) -> Self {
        let alphabet: &[u8] = if rng.below(2) == 0 { b"AC" } else { b"ACGT" };
        let (i0, j0) = (1 + rng.below(5) as usize, 1 + rng.below(5) as usize);
        let mut seq = |len| -> Vec<u8> {
            (0..len)
                .map(|_| alphabet[rng.below(alphabet.len() as u64) as usize])
                .collect()
        };
        let (s, t) = (seq(i0 - 1 + h + 3), seq(j0 - 1 + w + 3));
        let mut top: Vec<HCell> = (0..=w).map(|_| border_cell(rng)).collect();
        let left = (0..h).map(|_| border_cell(rng)).collect();
        if rng.below(3) == 0 {
            top[0] = HCell::fresh(); // a zero corner
        }
        Self {
            s,
            t,
            origin: (i0, j0),
            top,
            left,
        }
    }
}

/// What a tile hands on: bottom row, right column, queue (sorted).
type Outcome = (Vec<HCell>, Vec<HCell>, Vec<LocalRegion>);

fn sorted(mut queue: Vec<LocalRegion>) -> Vec<LocalRegion> {
    queue.sort_by_key(|r| (r.s_begin, r.s_end, r.t_begin, r.t_end, r.score));
    queue
}

/// The reference: the block row by row on the row kernel.
fn by_rows(kernel: &RowKernel, b: &Block) -> Outcome {
    let (i0, j0) = b.origin;
    let w = b.top.len() - 1;
    let mut prev = b.top.clone();
    let mut cur = vec![HCell::fresh(); w + 1];
    let (mut right, mut queue) = (Vec::new(), Vec::new());
    for (r, &left) in b.left.iter().enumerate() {
        cur[0] = left;
        let i = i0 + r;
        kernel.process_row_segment(i, b.s[i - 1], &b.t, j0, &prev, &mut cur, &mut queue);
        right.push(cur[w]);
        std::mem::swap(&mut prev, &mut cur);
    }
    (prev, right, sorted(queue))
}

fn by_tile(tile: &mut HeuristicTile, b: &Block) -> (Outcome, Rung) {
    let mut right = b.left.clone();
    let mut bottom = vec![HCell::fresh(); b.top.len()];
    let mut queue = Vec::new();
    let rung = tile.run(
        (&b.s, &b.t),
        b.origin,
        &b.top,
        &mut right,
        &mut bottom,
        &mut queue,
    );
    ((bottom, right, sorted(queue)), rung)
}

fn engines() -> Vec<Isa> {
    let all = Isa::ALL.into_iter().filter(|isa| isa.available());
    // The x86 shells are beyond Miri; the portable body is what it checks.
    all.filter(|&isa| !cfg!(miri) || isa == Isa::Portable)
        .collect()
}

/// `b` on every engine must equal the row kernel, on the rung `want`.
fn check(kernel: RowKernel, b: &Block, want: Rung, what: &str) {
    let reference = by_rows(&kernel, b);
    for isa in engines() {
        let mut tile = HeuristicTile::on(isa, kernel).expect("available");
        let (got, rung) = by_tile(&mut tile, b);
        let what = format!("{what} on {}", isa.name());
        assert_eq!(got.0, reference.0, "bottom row, {what}");
        assert_eq!(got.1, reference.1, "right column, {what}");
        assert_eq!(got.2, reference.2, "queue, {what}");
        assert_eq!(rung, want, "{what}");
    }
}

fn schemes() -> [Scoring; 3] {
    [
        Scoring::paper(),
        Scoring::new(1, -1, -1), // gaps tie with mismatches
        Scoring::new(2, -3, -1),
    ]
}

#[test]
fn every_shape_matches_the_row_kernel_on_every_engine() {
    const SIDES: [usize; 9] = [3, 4, 5, 7, 8, 9, 15, 16, 17];
    let mut shapes = vec![(1, 1)];
    for &n in &SIDES {
        shapes.extend([(1, n), (n, 1)]);
        shapes.extend(SIDES.iter().map(|&m| (n, m)));
    }
    let (shapes, seeds) = if cfg!(miri) {
        (vec![(3, 5)], 1)
    } else {
        (shapes, 4)
    };
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    for (h, w) in shapes {
        for seed in 0..seeds {
            let b = Block::random(h, w, &mut rng);
            let scoring = schemes()[seed % 3];
            let params = HeuristicParams {
                open_threshold: 1 + rng.below(4) as i32,
                close_threshold: 1 + rng.below(4) as i32,
                min_score: rng.below(8) as i32 - 1,
            };
            let kernel = RowKernel::new(scoring, params);
            let what = format!("{h}x{w} seed {seed} {params:?} {scoring:?}");
            check(kernel, &b, Rung::I32, &what);
        }
    }
}

#[test]
fn a_whole_matrix_of_tiles_matches_the_serial_heuristic() {
    // Tiles chained through their borders, starting from fresh ones, must
    // reproduce the serial driver's cells: the last row, and every region.
    let mut rng = Rng(7);
    let (m, n) = if cfg!(miri) { (9, 11) } else { (61, 47) };
    let block = Block::random(m, n, &mut rng);
    let (s, t) = (&block.s[..m], &block.t[..n]);
    let params = HeuristicParams {
        open_threshold: 3,
        close_threshold: 2,
        min_score: 4,
    };
    let kernel = RowKernel::new(Scoring::paper(), params);
    let want = genomedsm_core::heuristic_align(s, t, &Scoring::paper(), &params);
    for isa in engines() {
        let mut tile = HeuristicTile::on(isa, kernel).expect("available");
        let (bh, bw) = (8, 9);
        let mut above = vec![HCell::fresh(); n + 1];
        let mut queue = Vec::new();
        for i0 in (1..=m).step_by(bh) {
            let h = bh.min(m + 1 - i0);
            let mut left = vec![HCell::fresh(); h];
            let mut below = vec![HCell::fresh(); n + 1];
            for j0 in (1..=n).step_by(bw) {
                let w = bw.min(n + 1 - j0);
                let top = &above[j0 - 1..=j0 - 1 + w];
                let mut bottom = vec![HCell::fresh(); w + 1];
                let rung = tile.run((s, t), (i0, j0), top, &mut left, &mut bottom, &mut queue);
                assert_eq!(rung, Rung::I32);
                below[j0 - 1..=j0 - 1 + w].copy_from_slice(&bottom);
                for (r, cell) in left.iter().enumerate().filter(|_| j0 + w - 1 == n) {
                    kernel.flush_open(cell, i0 + r, n, &mut queue);
                }
            }
            above = below;
        }
        for (j, cell) in above.iter().enumerate().take(n).skip(1) {
            kernel.flush_open(cell, m, j, &mut queue);
        }
        let got = genomedsm_core::finalize_queue(queue);
        assert_eq!(got, want, "{}", isa.name());
    }
}

#[test]
fn inbound_priorities_past_the_lane_bound_fall_back_to_the_row_kernel() {
    // A cell's priority grows by at most 2 a step and a tile is h + w steps
    // across: the lanes hold a tile whose inbound priority is at most
    // i32::MAX − 2·(h + w), and the row kernel takes one just past it.
    let kernel = RowKernel::new(
        Scoring::paper(),
        HeuristicParams {
            open_threshold: 2,
            close_threshold: 2,
            min_score: 1,
        },
    );
    let mut rng = Rng(11);
    for (h, w) in [(1, 1), (4, 9), (9, 4)] {
        let bound = i32::MAX as u32 - 2 * (h + w) as u32;
        // (in the left column?, index): the corner, both ends of each side.
        for (in_left, at) in [(false, 0), (false, w), (true, 0), (true, h - 1)] {
            for over in [false, true] {
                let mut b = Block::random(h, w, &mut rng);
                // All matches, and a score that dominates its neighbours:
                // the crafted counters grow through the whole tile.
                b.s.fill(b'A');
                b.t.fill(b'A');
                let crafted = HCell {
                    score: 50,
                    max: 50,
                    min: 30,
                    gaps: bound + u32::from(over),
                    open: true,
                    ..HCell::fresh()
                };
                if in_left {
                    b.left[at] = crafted;
                } else {
                    b.top[at] = crafted;
                }
                let want = if over { Rung::Scalar } else { Rung::I32 };
                let side = if in_left { "left" } else { "top" };
                let what = format!("{h}x{w}, priority {} at {side}[{at}]", crafted.priority());
                check(kernel, &b, want, &what);
            }
        }
    }
}
