//! Vectorized Smith–Waterman score kernels with runtime ISA dispatch.
//!
//! Every strategy in this reproduction bottoms out in the same per-cell SW
//! recurrence; this crate lifts that inner loop onto Farrar's striped SIMD
//! layout (the approach behind the SSW library — see PAPERS.md) and offers
//! it three ways behind one trait, on each engine:
//!
//! | engine       | lanes: i8 (packed only) / i16 / i32 | heuristic tile lanes | requires             |
//! |--------------|-------------------------------------|----------------------|----------------------|
//! | `scalar`     | 1 × i32                             | (`RowKernel`, 1 cell) | nothing (the oracle) |
//! | `portable`   | 16 / 8 / 4                          | 4 × i32              | nothing              |
//! | `sse2`       | 16 / 8 / 4                          | 4 × i32              | SSE2 (any x86_64)    |
//! | `avx2`       | 32 / 16 / 8                         | 8 × i32              | AVX2, detected at runtime |
//! | `avx512`     | 64 / 32 / 16                        | 16 × i32             | AVX-512 F, BW, VL, DQ and VBMI, detected at runtime |
//!
//! The §4.1 heuristic cell, whose candidate metadata the score kernels do
//! not carry, runs on the same engines as [`HeuristicTile`]: a tile of the
//! recurrence one anti-diagonal at a time, bit-identical to
//! `genomedsm_core::RowKernel` and falling back to it per tile.
//!
//! The crate is one skeleton with four orthogonal parameters: the scoring
//! [`Scheme`] (linear-gap `Scoring`, affine-gap `MatrixScoring`; chosen by
//! the type of the scoring value passed), the lane layout (striped: each
//! query over all lanes, [`ScoreKernel`] and [`BandScorer`]; packed: a
//! different query per lane, [`PackedProfile`]; a [`GroupProfile`], and
//! so [`score_batch`], picks per lane group whichever keeps the vector
//! busier), the ISA above and the lane width ([`Rung`]). Only the
//! per-column recurrence differs between schemes; profiles, drivers and
//! the ISA dispatch are written once, generic over the lane element
//! (DESIGN.md §5.5).
//!
//! All kernels are **bit-exact** against the scheme's scalar oracle
//! (`sw_score_linear` / `sw_score_profile`): same best score, same end
//! point (including the row-major-first tie-break), same threshold hit
//! count. Lane width is a ladder, not a gate: the per-pair kernels and
//! [`BandScorer`] run on `i16` lanes, prove from the values produced that
//! nothing saturated, and re-run on `i32` lanes the pair — or the one
//! wavefront unit — that did; the scalar oracle is left with degenerate
//! schemes and what even `i32` could not hold. Only the batch path still
//! admits a priori (see [`fits_i16_query`]), and it runs a rung below
//! that: a [`GroupProfile`] of up to twice the `i16` lane count packs a
//! query per `i8` lane and re-scores at `i16` the records its 8-bit pass
//! saturated on ([`group_lanes`]). Callers never trade correctness for
//! speed.
//!
//! Selection is by [`KernelChoice`] (`scalar | simd | auto`): `auto` picks
//! the fastest exact kernel for the host, `simd` forces the striped path
//! (portable fallback included), `scalar` forces the oracle.

mod affine;
mod band;
mod batch;
mod engine;
mod group;
mod heuristic;
mod profile;
mod scalar;
#[cfg(target_arch = "x86_64")]
mod x86;

pub use band::BandScorer;
pub use batch::{
    effective_lanes, group_lanes, score_batch, score_batch_packed,
    score_batch_packed as score_batch_packed_affine, PackedProfile,
};
pub use genomedsm_core::linear::LinearSwResult;
pub use group::{score_group, GroupProfile};
pub use heuristic::HeuristicTile;
pub use profile::Scheme;

use genomedsm_core::scoring::Scoring;
use genomedsm_core::submat::MatrixScoring;
use group::StripedGroup;

/// [`PackedProfile`] under an affine-gap protein scheme.
pub type PackedAffineProfile = PackedProfile<MatrixScoring>;

/// Instruction set a striped kernel runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Isa {
    /// Plain-array striped fallback; always available.
    Portable,
    /// 128-bit `std::arch::x86_64` engine.
    Sse2,
    /// 256-bit `std::arch::x86_64` engine.
    Avx2,
    /// 512-bit `std::arch::x86_64` engine (AVX-512 F, BW, VL, DQ and
    /// VBMI).
    Avx512,
}

impl Isa {
    /// All ISAs, strongest last (the order [`Isa::best_available`]
    /// searches from the end).
    pub const ALL: [Isa; 4] = [Isa::Portable, Isa::Sse2, Isa::Avx2, Isa::Avx512];

    /// i16 lanes per vector (the i32 rung has half as many).
    pub const fn lanes(self) -> usize {
        match self {
            Isa::Portable | Isa::Sse2 => 8,
            Isa::Avx2 => 16,
            Isa::Avx512 => 32,
        }
    }

    /// Human-readable kernel name (also used by the CLI and benches).
    pub const fn name(self) -> &'static str {
        match self {
            Isa::Portable => "striped-portable",
            Isa::Sse2 => "striped-sse2",
            Isa::Avx2 => "striped-avx2",
            Isa::Avx512 => "striped-avx512",
        }
    }

    /// Whether the running CPU can execute this engine.
    pub fn available(self) -> bool {
        match self {
            Isa::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Sse2 => is_x86_feature_detected!("sse2"),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => is_x86_feature_detected!("avx2"),
            // Every feature `x86::run_avx512` enables.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => {
                is_x86_feature_detected!("avx512f")
                    && is_x86_feature_detected!("avx512bw")
                    && is_x86_feature_detected!("avx512vl")
                    && is_x86_feature_detected!("avx512dq")
                    && is_x86_feature_detected!("avx512vbmi")
            }
            #[cfg(not(target_arch = "x86_64"))]
            Isa::Sse2 | Isa::Avx2 | Isa::Avx512 => false,
        }
    }

    /// The widest engine the running CPU supports.
    pub fn best_available() -> Isa {
        Isa::ALL
            .into_iter()
            .rfind(|isa| isa.available())
            .unwrap_or(Isa::Portable)
    }
}

/// User-facing kernel selection, as wired through configs and the CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelChoice {
    /// Always the plain i32 scalar recurrence.
    Scalar,
    /// Force the striped kernel on the widest available engine (portable
    /// fallback on non-x86 hosts).
    Simd,
    /// Pick whatever is fastest-and-exact for this host and problem.
    #[default]
    Auto,
}

impl KernelChoice {
    /// Parses `scalar | simd | auto` (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "scalar" => Some(Self::Scalar),
            "simd" => Some(Self::Simd),
            "auto" => Some(Self::Auto),
            _ => None,
        }
    }

    /// The canonical spelling `parse` accepts.
    pub const fn name(self) -> &'static str {
        match self {
            Self::Scalar => "scalar",
            Self::Simd => "simd",
            Self::Auto => "auto",
        }
    }

    /// The engine this choice runs the i16 kernels on here, or `None` for
    /// the scalar oracle. `auto` is scalar when no real SIMD is available:
    /// the portable engine exists for correctness coverage, and
    /// striped-on-arrays is slower than the plain scalar loop.
    pub fn isa(self) -> Option<Isa> {
        match self {
            KernelChoice::Scalar => None,
            KernelChoice::Simd => Some(Isa::best_available()),
            KernelChoice::Auto => Some(Isa::best_available()).filter(|&isa| isa != Isa::Portable),
        }
    }
}

impl std::str::FromStr for KernelChoice {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse(s).ok_or_else(|| format!("unknown kernel choice `{s}` (want scalar|simd|auto)"))
    }
}

impl std::fmt::Display for KernelChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Which rung of the lane-width ladder produced a result: the narrowest
/// one whose arithmetic was exact for the values that actually arose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rung {
    /// Saturating `i16` lanes, nothing above 32 000 seen.
    I16,
    /// `i32` lanes, after (or instead of) an `i16` attempt that saturated.
    I32,
    /// The scalar i32 oracle: the caller asked for it, the scheme is
    /// degenerate, or a side is empty.
    Scalar,
}

impl Rung {
    /// All rungs in declaration order (so `ALL[r as usize] == r`, which is
    /// how per-rung counters are indexed): narrowest vector first, the
    /// oracle last.
    pub const ALL: [Rung; 3] = [Rung::I16, Rung::I32, Rung::Scalar];

    /// Name for reports.
    pub const fn name(self) -> &'static str {
        match self {
            Rung::Scalar => "scalar",
            Rung::I16 => "i16",
            Rung::I32 => "i32",
        }
    }
}

/// Whether no cell of an `m × n` problem under `scheme` can exceed lane
/// width `T`'s ceiling, whatever the sequences hold.
///
/// Local scores are bounded by `min(m, n) * cap`, where `cap` is the most
/// one aligned column can add ([`Scheme::column_cap`]: the match score, or
/// the largest matrix entry — gaps only subtract). Degenerate schemes
/// (non-negative gap, huge magnitudes, mismatch above match, open milder
/// than extend) have no cap and fit nowhere: they are routed to scalar
/// rather than reasoned about. So are empty sides, whose zero result the
/// oracle returns for free.
fn fits<T: engine::Elem, S: Scheme>(m: usize, n: usize, scheme: &S) -> bool {
    m != 0 && n != 0 && fits_query::<T, S>(m.min(n), scheme)
}

/// [`fits`] for a query whose target length is not yet known:
/// `min(m, n) * cap <= m * cap` for any target length `n`.
fn fits_query<T: engine::Elem, S: Scheme>(m: usize, scheme: &S) -> bool {
    scheme
        .column_cap()
        .is_some_and(|cap| (m as i64).saturating_mul(i64::from(cap)) <= i64::from(T::CEILING))
}

/// Whether a problem of these dimensions cannot saturate `i16` lanes under
/// `scheme`, whatever the sequences hold: `min(m, n) * cap <= 32 000` (see
/// [`Scheme::column_cap`]).
///
/// This is a worst-case bound, and no longer a gate for the per-pair
/// kernels or [`BandScorer`]: they run `i16` lanes on any problem `i32`
/// lanes could hold and check the values afterwards. A problem that passes
/// simply never needs the check to fire.
pub fn fits_i16<S: Scheme>(m: usize, n: usize, scheme: &S) -> bool {
    fits::<i16, S>(m, n, scheme)
}

/// [`fits_i16`] for a query whose target length is not yet known — the
/// admission rule for packing a query into a [`PackedProfile`] that will be
/// reused across a whole database of targets.
///
/// `min(m, n) * cap <= m * cap` for any target length `n`, so bounding
/// `m * cap` rules out saturation against every possible target. Unlike
/// [`fits_i16`], an empty query is admitted: its lane is fully masked and
/// yields the oracle's zero result for free.
pub fn fits_i16_query<S: Scheme>(m: usize, scheme: &S) -> bool {
    fits_query::<i16, S>(m, scheme)
}

/// The same two rules, under the names protein callers know them by.
pub use self::{fits_i16 as fits_i16_affine, fits_i16_query as fits_i16_affine_query};

/// A drop-in replacement for `sw_score_linear`: same inputs, same exact
/// outputs, possibly much faster.
pub trait ScoreKernel: Send + Sync {
    /// Stable kernel name for logs, benches, and CSV rows.
    fn name(&self) -> &'static str;

    /// Scores `s` (rows) against `t` (columns); exact per the scalar
    /// oracle's contract (best score, row-major-first end point, threshold
    /// hit count with `threshold > 0` gating). Also says which [`Rung`]
    /// produced the answer.
    fn score_on(
        &self,
        s: &[u8],
        t: &[u8],
        scoring: &Scoring,
        threshold: i32,
    ) -> (LinearSwResult, Rung);

    /// Affine-gap (Gotoh) scoring under a full substitution matrix — the
    /// protein path. Exact per `sw_score_profile`'s contract, through the
    /// same width ladder.
    fn score_affine_on(
        &self,
        s: &[u8],
        t: &[u8],
        scoring: &MatrixScoring,
        threshold: i32,
    ) -> (LinearSwResult, Rung);

    /// [`score_on`](Self::score_on) without the rung.
    fn score(&self, s: &[u8], t: &[u8], scoring: &Scoring, threshold: i32) -> LinearSwResult {
        self.score_on(s, t, scoring, threshold).0
    }

    /// [`score_affine_on`](Self::score_affine_on) without the rung.
    fn score_affine(
        &self,
        s: &[u8],
        t: &[u8],
        scoring: &MatrixScoring,
        threshold: i32,
    ) -> LinearSwResult {
        self.score_affine_on(s, t, scoring, threshold).0
    }
}

/// The plain two-row i32 recurrence (the oracle itself).
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarKernel;

impl ScoreKernel for ScalarKernel {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn score_on(
        &self,
        s: &[u8],
        t: &[u8],
        scoring: &Scoring,
        threshold: i32,
    ) -> (LinearSwResult, Rung) {
        (scoring.oracle(s, t, threshold), Rung::Scalar)
    }

    fn score_affine_on(
        &self,
        s: &[u8],
        t: &[u8],
        scoring: &MatrixScoring,
        threshold: i32,
    ) -> (LinearSwResult, Rung) {
        (scoring.oracle(s, t, threshold), Rung::Scalar)
    }
}

/// Farrar striped kernel on a fixed engine, climbing the lane-width ladder
/// per pair.
#[derive(Debug, Clone, Copy)]
pub struct StripedKernel {
    isa: Isa,
}

impl StripedKernel {
    /// A striped kernel on `isa`, or `None` if the CPU lacks it.
    pub fn new(isa: Isa) -> Option<Self> {
        isa.available().then_some(Self { isa })
    }

    /// The striped kernel on the widest engine this CPU supports.
    pub fn best() -> Self {
        Self {
            isa: Isa::best_available(),
        }
    }

    /// Engine this kernel dispatches to.
    pub fn isa(&self) -> Isa {
        self.isa
    }

    /// One pair under either scheme, as a one-query striped group: on
    /// `i16` lanes first, again on `i32` lanes if that pass's best score
    /// says it saturated (the best score is the maximum `H` written, which
    /// is the whole test — DESIGN.md §5.5), and on the scheme's scalar
    /// oracle only for what no lane width holds.
    pub fn score_under<S: Scheme>(
        &self,
        s: &[u8],
        t: &[u8],
        scheme: &S,
        threshold: i32,
    ) -> (LinearSwResult, Rung) {
        if !self.isa.available() || !fits::<i32, S>(s.len(), t.len(), scheme) {
            return (scheme.oracle(s, t, threshold), Rung::Scalar);
        }
        let narrow = self.pass::<i16, S>(s, t, scheme, threshold);
        if narrow.best_score <= <i16 as engine::Elem>::CEILING {
            return (narrow, Rung::I16);
        }
        (self.pass::<i32, S>(s, t, scheme, threshold), Rung::I32)
    }

    /// One striped pass on lanes of `T`, exact iff its best score is
    /// within `T`'s ceiling.
    fn pass<T: engine::Elem, S: Scheme>(
        &self,
        s: &[u8],
        t: &[u8],
        scheme: &S,
        threshold: i32,
    ) -> LinearSwResult {
        StripedGroup::<S, T>::new(&[s], scheme, self.isa)
            .score(t, threshold)
            .swap_remove(0)
    }
}

impl ScoreKernel for StripedKernel {
    fn name(&self) -> &'static str {
        self.isa.name()
    }

    fn score_on(
        &self,
        s: &[u8],
        t: &[u8],
        scoring: &Scoring,
        threshold: i32,
    ) -> (LinearSwResult, Rung) {
        self.score_under(s, t, scoring, threshold)
    }

    fn score_affine_on(
        &self,
        s: &[u8],
        t: &[u8],
        scoring: &MatrixScoring,
        threshold: i32,
    ) -> (LinearSwResult, Rung) {
        self.score_under(s, t, scoring, threshold)
    }
}

static SCALAR: ScalarKernel = ScalarKernel;
static PORTABLE: StripedKernel = StripedKernel { isa: Isa::Portable };
static SSE2: StripedKernel = StripedKernel { isa: Isa::Sse2 };
static AVX2: StripedKernel = StripedKernel { isa: Isa::Avx2 };
static AVX512: StripedKernel = StripedKernel { isa: Isa::Avx512 };

fn striped_static(isa: Isa) -> &'static StripedKernel {
    match isa {
        Isa::Portable => &PORTABLE,
        Isa::Sse2 => &SSE2,
        Isa::Avx2 => &AVX2,
        Isa::Avx512 => &AVX512,
    }
}

/// Resolves a [`KernelChoice`] to a concrete kernel for this host (the
/// policy is [`KernelChoice::isa`]).
pub fn kernel_for(choice: KernelChoice) -> &'static dyn ScoreKernel {
    match choice.isa() {
        Some(isa) => striped_static(isa),
        None => &SCALAR,
    }
}

/// Every kernel runnable on this host (scalar first), for benches and the
/// CLI's kernel listing.
pub fn available_kernels() -> Vec<&'static dyn ScoreKernel> {
    let mut out: Vec<&'static dyn ScoreKernel> = vec![&SCALAR];
    for isa in Isa::ALL {
        if isa.available() {
            out.push(striped_static(isa));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use genomedsm_core::linear::sw_score_linear;

    const SC: Scoring = Scoring::paper();

    fn oracle(s: &[u8], t: &[u8], thr: i32) -> LinearSwResult {
        sw_score_linear(s, t, &SC, thr)
    }

    #[test]
    fn choice_parsing_round_trips() {
        for c in [KernelChoice::Scalar, KernelChoice::Simd, KernelChoice::Auto] {
            assert_eq!(KernelChoice::parse(c.name()), Some(c));
        }
        assert_eq!(KernelChoice::parse("AUTO"), Some(KernelChoice::Auto));
        assert!(KernelChoice::parse("avx9000").is_none());
        assert_eq!(KernelChoice::default(), KernelChoice::Auto);
    }

    #[test]
    fn fits_i16_accepts_paper_scale_and_rejects_saturation() {
        assert!(fits_i16(10_000, 10_000, &SC));
        assert!(!fits_i16(40_000, 40_000, &SC));
        assert!(!fits_i16(0, 10, &SC));
        assert!(!fits_i16(10, 0, &SC));
        // 1000 * 40 > 32_000 even though each sequence is short.
        assert!(!fits_i16(1000, 1000, &Scoring::new(40, -1, -2)));
        assert!(fits_i16(100, 100, &Scoring::new(40, -1, -2)));
        // The widest rung is the only one admitted a priori; it holds
        // anything the paper evaluates, and no degenerate scheme.
        assert!(fits::<i32, _>(400_000, 400_000, &SC));
        assert!(!fits::<i32, _>(
            400_000,
            400_000,
            &Scoring::new(20_000, -1, -2)
        ));
        assert!(!fits::<i32, _>(10, 10, &Scoring::new(40_000, -1, -2)));
    }

    #[test]
    fn every_available_kernel_matches_the_oracle_on_a_fixed_pair() {
        let s = b"TCTCGACGGATTAGTATATATATAGGCATTCA";
        let t = b"ATATGATCGGAATAGCTCTTAGGCATTC";
        for thr in [0, 1, 3, i32::MAX] {
            let want = oracle(s, t, thr);
            for k in available_kernels() {
                assert_eq!(
                    k.score(s, t, &SC, thr),
                    want,
                    "kernel {} thr {thr}",
                    k.name()
                );
            }
        }
    }

    #[test]
    fn striped_kernels_climb_to_i32_for_saturating_problems() {
        // With match = 2000, a 17-length identity run hits 34_000 and
        // saturates i16: every striped kernel must notice, answer exactly
        // on i32 lanes, and say so — one base fewer stays on i16.
        let sc = Scoring::new(2000, -1000, -2000);
        let s = vec![b'A'; 17];
        let want = sw_score_linear(&s, &s, &sc, 1);
        assert_eq!(want.best_score, 34_000);
        for k in available_kernels() {
            let striped = k.name() != ScalarKernel.name();
            let rung = |len| k.score_on(&s[..len], &s[..len], &sc, 1).1;
            assert_eq!(k.score_on(&s, &s, &sc, 1).0, want, "kernel {}", k.name());
            let want_rungs = if striped {
                (Rung::I16, Rung::I32)
            } else {
                (Rung::Scalar, Rung::Scalar)
            };
            assert_eq!((rung(16), rung(17)), want_rungs, "kernel {}", k.name());
        }
    }

    #[test]
    fn empty_inputs_yield_the_zero_result_on_all_kernels() {
        for k in available_kernels() {
            for (s, t) in [
                (&b""[..], &b"ACGT"[..]),
                (&b"ACGT"[..], &b""[..]),
                (&b""[..], &b""[..]),
            ] {
                let r = k.score(s, t, &SC, 1);
                assert_eq!(
                    (r.best_score, r.best_end, r.hits),
                    (0, (0, 0), 0),
                    "kernel {}",
                    k.name()
                );
            }
        }
    }

    #[test]
    fn auto_kernel_resolves_to_something_available() {
        let k = kernel_for(KernelChoice::Auto);
        let r = k.score(b"ACGTACGT", b"ACGTACGT", &SC, 1);
        assert_eq!(r.best_score, 8);
        assert_eq!(r.best_end, (8, 8));
    }

    #[test]
    fn band_scorer_reproduces_the_oracle_over_one_band() {
        // One band covering all of s, chunked t, zero top border: the
        // streamed hits and best must match a plain linear pass.
        let s = b"GACGGATTAGGTACCAGGAT";
        let t = b"GATCGGAATAGGGACCATTTACCA";
        let thr = 2;
        let want = oracle(s, t, thr);
        let mut scorer = BandScorer::new(KernelChoice::Simd, s, (s.len(), t.len()), &SC, thr, None)
            .expect("striped band scorer must build for simd choice");
        let mut bottom = Vec::new();
        let mut col_hits = Vec::new();
        let mut saved = Vec::new();
        let zeros = vec![0i32; t.len() + 1];
        let mut col = 1;
        for chunk in t.chunks(7) {
            scorer.advance(
                chunk,
                &zeros[..chunk.len() + 1],
                col,
                &mut bottom,
                &mut col_hits,
                &mut saved,
            );
            col += chunk.len();
        }
        assert_eq!(scorer.best_score(), want.best_score);
        assert_eq!(col_hits.iter().sum::<u64>(), want.hits);
        // Bottom row must equal the oracle's last DP row.
        let full = genomedsm_core::matrix::sw_matrix(s, t, &SC);
        for (j, &b) in bottom.iter().enumerate() {
            assert_eq!(b, full.get(s.len(), j + 1), "bottom col {}", j + 1);
        }
    }
}
