//! Substitution matrices for protein scoring — a production extension.
//!
//! DNA paths score columns with a match/mismatch pair ([`crate::scoring`]);
//! protein alignment replaces that pair with a full residue-pair matrix
//! (BLOSUM/PAM families). This module provides:
//!
//! * the canonical 24-letter amino-acid alphabet ([`AA_ALPHABET`]) —
//!   the 20 standard residues plus the ambiguity codes `B` (Asx), `Z`
//!   (Glx), `X` (any), and the stop/translation marker `*`;
//! * a total byte → alphabet-index map ([`aa_index`]) with fixed
//!   canonical representatives for the rare codes (`U` → `C`, `J` → `L`,
//!   `O` → `K`), mirroring the deterministic-representative rule of the
//!   DNA layer's IUPAC folding;
//! * [`SubstMatrix`]: a dense 24 × 24 score table, `Copy` so it can ride
//!   inside engine configs that are passed by value, with BLOSUM62,
//!   BLOSUM50, and PAM250 baked in and arbitrary matrices loadable from
//!   NCBI-format text ([`SubstMatrix::parse_ncbi`]);
//! * [`MatrixScoring`]: the full protein scoring scheme — a matrix plus
//!   affine gap penalties under the same convention as
//!   [`crate::affine::AffineScoring`] (a gap run of length `k` costs
//!   `gap_open + (k-1) * gap_extend`).

use std::fmt;

/// The canonical residue alphabet, in NCBI matrix order.
pub const AA_ALPHABET: &[u8; 24] = b"ARNDCQEGHILKMFPSTWYVBZX*";

/// Number of letters in [`AA_ALPHABET`].
pub const AA_N: usize = 24;

/// Alphabet index of the unknown-residue code `X`.
pub const AA_X: usize = 22;

const fn build_index() -> [u8; 256] {
    let mut idx = [AA_X as u8; 256];
    let mut i = 0;
    while i < AA_N {
        let c = AA_ALPHABET[i];
        idx[c as usize] = i as u8;
        idx[c.to_ascii_lowercase() as usize] = i as u8;
        i += 1;
    }
    // Fixed canonical representatives for the rare IUPAC codes, chosen
    // once so every layer folds identically (the DNA layer's N→A rule).
    idx[b'U' as usize] = 4; // selenocysteine scores as cysteine
    idx[b'u' as usize] = 4;
    idx[b'J' as usize] = 10; // Ile-or-Leu scores as leucine
    idx[b'j' as usize] = 10;
    idx[b'O' as usize] = 11; // pyrrolysine scores as lysine
    idx[b'o' as usize] = 11;
    idx
}

/// Total byte → alphabet-index map; bytes outside the alphabet fold to
/// `X` so scoring is defined for every input.
const AA_INDEX: [u8; 256] = build_index();

/// Alphabet index of residue byte `b` (total: unknown bytes fold to `X`).
#[inline(always)]
pub fn aa_index(b: u8) -> usize {
    AA_INDEX[b as usize] as usize
}

/// A dense residue-pair substitution matrix over [`AA_ALPHABET`].
///
/// Scores are addressed `scores[query_residue][target_residue]` —
/// relevant only for asymmetric custom matrices; the baked-in BLOSUM/PAM
/// tables are symmetric. The struct is plain arrays (`Copy`, ~1.2 KB) so
/// engine configs carrying it stay `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubstMatrix {
    scores: [[i16; AA_N]; AA_N],
}

impl SubstMatrix {
    /// BLOSUM62 — the default protein matrix (BLAST's default).
    pub const fn blosum62() -> Self {
        Self { scores: BLOSUM62 }
    }

    /// BLOSUM50 — softer clustering, for more divergent proteins.
    pub const fn blosum50() -> Self {
        Self { scores: BLOSUM50 }
    }

    /// PAM250 — the classic Dayhoff matrix for distant homologs.
    pub const fn pam250() -> Self {
        Self { scores: PAM250 }
    }

    /// A baked-in matrix by its canonical lowercase name.
    pub fn by_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "blosum62" => Some(Self::blosum62()),
            "blosum50" => Some(Self::blosum50()),
            "pam250" => Some(Self::pam250()),
            _ => None,
        }
    }

    /// A matrix from an explicit score table.
    pub const fn from_scores(scores: [[i16; AA_N]; AA_N]) -> Self {
        Self { scores }
    }

    /// Score of aligning query residue `a` against target residue `b`
    /// (total: any byte folds through [`aa_index`]).
    #[inline(always)]
    pub fn score(&self, a: u8, b: u8) -> i16 {
        self.scores[aa_index(a)][aa_index(b)]
    }

    /// Score at alphabet indices (callers that pre-fold bytes).
    #[inline(always)]
    pub fn score_at(&self, ai: usize, bi: usize) -> i16 {
        self.scores[ai][bi]
    }

    /// The raw 24 × 24 table, row-major in alphabet order.
    pub fn table(&self) -> &[[i16; AA_N]; AA_N] {
        &self.scores
    }

    /// Largest entry anywhere in the table (the per-column score cap the
    /// i16 admission rule and the index prefilter both build on).
    pub fn max_score(&self) -> i16 {
        let mut best = i16::MIN;
        for row in &self.scores {
            for &v in row {
                best = best.max(v);
            }
        }
        best
    }

    /// Smallest entry anywhere in the table (the admission rule bounds it
    /// away from the kernels' padding sentinel).
    pub fn min_score(&self) -> i16 {
        let mut worst = i16::MAX;
        for row in &self.scores {
            for &v in row {
                worst = worst.min(v);
            }
        }
        worst
    }

    /// A stable 64-bit fingerprint of the table contents (FNV-1a over the
    /// score bytes) — cache keys include it so answers computed under
    /// different matrices can never be confused.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for row in &self.scores {
            for &v in row {
                for b in v.to_le_bytes() {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x1000_0000_01b3);
                }
            }
        }
        h
    }

    /// Parses an NCBI-format matrix: `#` comment lines, a header row of
    /// residue letters, then one row per residue (`letter` followed by
    /// one integer per header column).
    ///
    /// Pairs the file does not mention default to the smallest parsed
    /// score (the conservative choice: an unlisted pairing can never beat
    /// a listed one).
    ///
    /// # Errors
    /// [`MatrixError`] describing the first malformed line.
    pub fn parse_ncbi(text: &str) -> Result<Self, MatrixError> {
        let mut lines = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'));
        let header = lines.next().ok_or(MatrixError::Empty)?;
        let cols: Vec<usize> = header
            .split_whitespace()
            .map(|tok| {
                let mut chars = tok.chars();
                match (chars.next(), chars.next()) {
                    (Some(c), None) if c.is_ascii() => Ok(aa_index(c as u8)),
                    _ => Err(MatrixError::BadHeader {
                        token: tok.to_string(),
                    }),
                }
            })
            .collect::<Result<_, _>>()?;
        if cols.is_empty() {
            return Err(MatrixError::Empty);
        }
        let mut entries: Vec<(usize, usize, i16)> = Vec::new();
        let mut floor = i16::MAX;
        for line in lines {
            let mut toks = line.split_whitespace();
            let row_tok = toks.next().ok_or(MatrixError::Empty)?;
            let mut chars = row_tok.chars();
            let row = match (chars.next(), chars.next()) {
                (Some(c), None) if c.is_ascii() => aa_index(c as u8),
                _ => {
                    return Err(MatrixError::BadHeader {
                        token: row_tok.to_string(),
                    })
                }
            };
            let scores: Vec<i16> = toks
                .map(|tok| {
                    tok.parse::<i16>().map_err(|_| MatrixError::BadNumber {
                        token: tok.to_string(),
                    })
                })
                .collect::<Result<_, _>>()?;
            if scores.len() != cols.len() {
                return Err(MatrixError::RowMismatch {
                    row: AA_ALPHABET[row] as char,
                    expected: cols.len(),
                    got: scores.len(),
                });
            }
            for (&col, &v) in cols.iter().zip(&scores) {
                floor = floor.min(v);
                entries.push((row, col, v));
            }
        }
        if entries.is_empty() {
            return Err(MatrixError::Empty);
        }
        let mut scores = [[floor; AA_N]; AA_N];
        for (r, c, v) in entries {
            scores[r][c] = v;
        }
        Ok(Self { scores })
    }

    /// Renders the table in the NCBI text format [`Self::parse_ncbi`]
    /// reads — round-trips exactly.
    pub fn to_ncbi_text(&self) -> String {
        let mut out = String::new();
        out.push(' ');
        for &c in AA_ALPHABET {
            out.push_str(&format!(" {:>3}", c as char));
        }
        out.push('\n');
        for (r, row) in self.scores.iter().enumerate() {
            out.push(AA_ALPHABET[r] as char);
            for &v in row {
                out.push_str(&format!(" {v:>3}"));
            }
            out.push('\n');
        }
        out
    }
}

/// Typed error of [`SubstMatrix::parse_ncbi`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatrixError {
    /// No header or no score rows.
    Empty,
    /// A header or row token was not a single residue letter.
    BadHeader {
        /// The offending token.
        token: String,
    },
    /// A score token was not an i16 integer.
    BadNumber {
        /// The offending token.
        token: String,
    },
    /// A row listed a different number of scores than the header.
    RowMismatch {
        /// Row residue letter.
        row: char,
        /// Header column count.
        expected: usize,
        /// Scores found on the row.
        got: usize,
    },
}

impl fmt::Display for MatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixError::Empty => write!(f, "matrix text has no header or score rows"),
            MatrixError::BadHeader { token } => {
                write!(f, "`{token}` is not a single residue letter")
            }
            MatrixError::BadNumber { token } => write!(f, "`{token}` is not an integer score"),
            MatrixError::RowMismatch { row, expected, got } => {
                write!(f, "row {row}: expected {expected} scores, found {got}")
            }
        }
    }
}

impl std::error::Error for MatrixError {}

/// The full protein scoring scheme: a substitution matrix plus affine gap
/// penalties (same convention as [`crate::affine::AffineScoring`]: a gap
/// run of length `k` costs `gap_open + (k-1) * gap_extend`, both
/// negative).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatrixScoring {
    /// The residue-pair score table.
    pub matrix: SubstMatrix,
    /// Penalty for the first space of a gap run (negative).
    pub gap_open: i32,
    /// Penalty for each subsequent space (negative, `>= gap_open`).
    pub gap_extend: i32,
}

impl MatrixScoring {
    /// The most negative gap penalty accepted: `i32::MIN / 4`, the scalar
    /// oracle's "minus infinity" sentinel. A penalty at or above it keeps
    /// every sum the recurrences form — sentinel + penalty, open +
    /// extend — above `i32::MIN`, so no score can wrap.
    pub const MIN_GAP: i32 = i32::MIN / 4;

    /// The default protein scheme: BLOSUM62 with −11/−1 gaps.
    pub const fn blosum62() -> Self {
        Self {
            matrix: SubstMatrix::blosum62(),
            gap_open: -11,
            gap_extend: -1,
        }
    }

    /// A scheme over `matrix` with the given gap penalties.
    pub const fn new(matrix: SubstMatrix, gap_open: i32, gap_extend: i32) -> Self {
        Self {
            matrix,
            gap_open,
            gap_extend,
        }
    }

    /// Whether both gap penalties are negative and no lower than
    /// [`MatrixScoring::MIN_GAP`] — the one check every path that admits a
    /// scheme from outside the program (CLI flags, a service request)
    /// applies. `gap_open` above `gap_extend` is valid.
    pub fn gaps_valid(&self) -> bool {
        [self.gap_open, self.gap_extend]
            .iter()
            .all(|g| (Self::MIN_GAP..0).contains(g))
    }

    /// A stable fingerprint over the matrix contents and both gap
    /// penalties (cache keying).
    pub fn fingerprint(&self) -> u64 {
        let mut h = self.matrix.fingerprint();
        for v in [self.gap_open, self.gap_extend] {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        }
        h
    }
}

impl Default for MatrixScoring {
    fn default() -> Self {
        Self::blosum62()
    }
}

// Row/column order: A R N D C Q E G H I L K M F P S T W Y V B Z X *.
#[rustfmt::skip]
const BLOSUM62: [[i16; AA_N]; AA_N] = [
    [ 4,-1,-2,-2, 0,-1,-1, 0,-2,-1,-1,-1,-1,-2,-1, 1, 0,-3,-2, 0,-2,-1, 0,-4],
    [-1, 5, 0,-2,-3, 1, 0,-2, 0,-3,-2, 2,-1,-3,-2,-1,-1,-3,-2,-3,-1, 0,-1,-4],
    [-2, 0, 6, 1,-3, 0, 0, 0, 1,-3,-3, 0,-2,-3,-2, 1, 0,-4,-2,-3, 3, 0,-1,-4],
    [-2,-2, 1, 6,-3, 0, 2,-1,-1,-3,-4,-1,-3,-3,-1, 0,-1,-4,-3,-3, 4, 1,-1,-4],
    [ 0,-3,-3,-3, 9,-3,-4,-3,-3,-1,-1,-3,-1,-2,-3,-1,-1,-2,-2,-1,-3,-3,-2,-4],
    [-1, 1, 0, 0,-3, 5, 2,-2, 0,-3,-2, 1, 0,-3,-1, 0,-1,-2,-1,-2, 0, 3,-1,-4],
    [-1, 0, 0, 2,-4, 2, 5,-2, 0,-3,-3, 1,-2,-3,-1, 0,-1,-3,-2,-2, 1, 4,-1,-4],
    [ 0,-2, 0,-1,-3,-2,-2, 6,-2,-4,-4,-2,-3,-3,-2, 0,-2,-2,-3,-3,-1,-2,-1,-4],
    [-2, 0, 1,-1,-3, 0, 0,-2, 8,-3,-3,-1,-2,-1,-2,-1,-2,-2, 2,-3, 0, 0,-1,-4],
    [-1,-3,-3,-3,-1,-3,-3,-4,-3, 4, 2,-3, 1, 0,-3,-2,-1,-3,-1, 3,-3,-3,-1,-4],
    [-1,-2,-3,-4,-1,-2,-3,-4,-3, 2, 4,-2, 2, 0,-3,-2,-1,-2,-1, 1,-4,-3,-1,-4],
    [-1, 2, 0,-1,-3, 1, 1,-2,-1,-3,-2, 5,-1,-3,-1, 0,-1,-3,-2,-2, 0, 1,-1,-4],
    [-1,-1,-2,-3,-1, 0,-2,-3,-2, 1, 2,-1, 5, 0,-2,-1,-1,-1,-1, 1,-3,-1,-1,-4],
    [-2,-3,-3,-3,-2,-3,-3,-3,-1, 0, 0,-3, 0, 6,-4,-2,-2, 1, 3,-1,-3,-3,-1,-4],
    [-1,-2,-2,-1,-3,-1,-1,-2,-2,-3,-3,-1,-2,-4, 7,-1,-1,-4,-3,-2,-2,-1,-2,-4],
    [ 1,-1, 1, 0,-1, 0, 0, 0,-1,-2,-2, 0,-1,-2,-1, 4, 1,-3,-2,-2, 0, 0, 0,-4],
    [ 0,-1, 0,-1,-1,-1,-1,-2,-2,-1,-1,-1,-1,-2,-1, 1, 5,-2,-2, 0,-1,-1, 0,-4],
    [-3,-3,-4,-4,-2,-2,-3,-2,-2,-3,-2,-3,-1, 1,-4,-3,-2,11, 2,-3,-4,-3,-2,-4],
    [-2,-2,-2,-3,-2,-1,-2,-3, 2,-1,-1,-2,-1, 3,-3,-2,-2, 2, 7,-1,-3,-2,-1,-4],
    [ 0,-3,-3,-3,-1,-2,-2,-3,-3, 3, 1,-2, 1,-1,-2,-2, 0,-3,-1, 4,-3,-2,-1,-4],
    [-2,-1, 3, 4,-3, 0, 1,-1, 0,-3,-4, 0,-3,-3,-2, 0,-1,-4,-3,-3, 4, 1,-1,-4],
    [-1, 0, 0, 1,-3, 3, 4,-2, 0,-3,-3, 1,-1,-3,-1, 0,-1,-3,-2,-2, 1, 4,-1,-4],
    [ 0,-1,-1,-1,-2,-1,-1,-1,-1,-1,-1,-1,-1,-1,-2, 0, 0,-2,-1,-1,-1,-1,-1,-4],
    [-4,-4,-4,-4,-4,-4,-4,-4,-4,-4,-4,-4,-4,-4,-4,-4,-4,-4,-4,-4,-4,-4,-4, 1],
];

#[rustfmt::skip]
const BLOSUM50: [[i16; AA_N]; AA_N] = [
    [ 5,-2,-1,-2,-1,-1,-1, 0,-2,-1,-2,-1,-1,-3,-1, 1, 0,-3,-2, 0,-2,-1,-1,-5],
    [-2, 7,-1,-2,-4, 1, 0,-3, 0,-4,-3, 3,-2,-3,-3,-1,-1,-3,-1,-3,-1, 0,-1,-5],
    [-1,-1, 7, 2,-2, 0, 0, 0, 1,-3,-4, 0,-2,-4,-2, 1, 0,-4,-2,-3, 4, 0,-1,-5],
    [-2,-2, 2, 8,-4, 0, 2,-1,-1,-4,-4,-1,-4,-5,-1, 0,-1,-5,-3,-4, 5, 1,-1,-5],
    [-1,-4,-2,-4,13,-3,-3,-3,-3,-2,-2,-3,-2,-2,-4,-1,-1,-5,-3,-1,-3,-3,-2,-5],
    [-1, 1, 0, 0,-3, 7, 2,-2, 1,-3,-2, 2, 0,-4,-1, 0,-1,-1,-1,-3, 0, 4,-1,-5],
    [-1, 0, 0, 2,-3, 2, 6,-3, 0,-4,-3, 1,-2,-3,-1,-1,-1,-3,-2,-3, 1, 5,-1,-5],
    [ 0,-3, 0,-1,-3,-2,-3, 8,-2,-4,-4,-2,-3,-4,-2, 0,-2,-3,-3,-4,-1,-2,-2,-5],
    [-2, 0, 1,-1,-3, 1, 0,-2,10,-4,-3, 0,-1,-1,-2,-1,-2,-3, 2,-4, 0, 0,-1,-5],
    [-1,-4,-3,-4,-2,-3,-4,-4,-4, 5, 2,-3, 2, 0,-3,-3,-1,-3,-1, 4,-4,-3,-1,-5],
    [-2,-3,-4,-4,-2,-2,-3,-4,-3, 2, 5,-3, 3, 1,-4,-3,-1,-2,-1, 1,-4,-3,-1,-5],
    [-1, 3, 0,-1,-3, 2, 1,-2, 0,-3,-3, 6,-2,-4,-1, 0,-1,-3,-2,-3, 0, 1,-1,-5],
    [-1,-2,-2,-4,-2, 0,-2,-3,-1, 2, 3,-2, 7, 0,-3,-2,-1,-1, 0, 1,-3,-1,-1,-5],
    [-3,-3,-4,-5,-2,-4,-3,-4,-1, 0, 1,-4, 0, 8,-4,-3,-2, 1, 4,-1,-4,-4,-2,-5],
    [-1,-3,-2,-1,-4,-1,-1,-2,-2,-3,-4,-1,-3,-4,10,-1,-1,-4,-3,-3,-2,-1,-2,-5],
    [ 1,-1, 1, 0,-1, 0,-1, 0,-1,-3,-3, 0,-2,-3,-1, 5, 2,-4,-2,-2, 0, 0,-1,-5],
    [ 0,-1, 0,-1,-1,-1,-1,-2,-2,-1,-1,-1,-1,-2,-1, 2, 5,-3,-2, 0, 0,-1, 0,-5],
    [-3,-3,-4,-5,-5,-1,-3,-3,-3,-3,-2,-3,-1, 1,-4,-4,-3,15, 2,-3,-5,-2,-3,-5],
    [-2,-1,-2,-3,-3,-1,-2,-3, 2,-1,-1,-2, 0, 4,-3,-2,-2, 2, 8,-1,-3,-2,-1,-5],
    [ 0,-3,-3,-4,-1,-3,-3,-4,-4, 4, 1,-3, 1,-1,-3,-2, 0,-3,-1, 5,-4,-3,-1,-5],
    [-2,-1, 4, 5,-3, 0, 1,-1, 0,-4,-4, 0,-3,-4,-2, 0, 0,-5,-3,-4, 5, 2,-1,-5],
    [-1, 0, 0, 1,-3, 4, 5,-2, 0,-3,-3, 1,-1,-4,-1, 0,-1,-2,-2,-3, 2, 5,-1,-5],
    [-1,-1,-1,-1,-2,-1,-1,-2,-1,-1,-1,-1,-1,-2,-2,-1, 0,-3,-1,-1,-1,-1,-1,-5],
    [-5,-5,-5,-5,-5,-5,-5,-5,-5,-5,-5,-5,-5,-5,-5,-5,-5,-5,-5,-5,-5,-5,-5, 1],
];

#[rustfmt::skip]
const PAM250: [[i16; AA_N]; AA_N] = [
    [ 2,-2, 0, 0,-2, 0, 0, 1,-1,-1,-2,-1,-1,-3, 1, 1, 1,-6,-3, 0, 0, 0, 0,-8],
    [-2, 6, 0,-1,-4, 1,-1,-3, 2,-2,-3, 3, 0,-4, 0, 0,-1, 2,-4,-2,-1, 0,-1,-8],
    [ 0, 0, 2, 2,-4, 1, 1, 0, 2,-2,-3, 1,-2,-3, 0, 1, 0,-4,-2,-2, 2, 1, 0,-8],
    [ 0,-1, 2, 4,-5, 2, 3, 1, 1,-2,-4, 0,-3,-6,-1, 0, 0,-7,-4,-2, 3, 3,-1,-8],
    [-2,-4,-4,-5,12,-5,-5,-3,-3,-2,-6,-5,-5,-4,-3, 0,-2,-8, 0,-2,-4,-5,-3,-8],
    [ 0, 1, 1, 2,-5, 4, 2,-1, 3,-2,-2, 1,-1,-5, 0,-1,-1,-5,-4,-2, 1, 3,-1,-8],
    [ 0,-1, 1, 3,-5, 2, 4, 0, 1,-2,-3, 0,-2,-5,-1, 0, 0,-7,-4,-2, 3, 3,-1,-8],
    [ 1,-3, 0, 1,-3,-1, 0, 5,-2,-3,-4,-2,-3,-5, 0, 1, 0,-7,-5,-1, 0, 0,-1,-8],
    [-1, 2, 2, 1,-3, 3, 1,-2, 6,-2,-2, 0,-2,-2, 0,-1,-1,-3, 0,-2, 1, 2,-1,-8],
    [-1,-2,-2,-2,-2,-2,-2,-3,-2, 5, 2,-2, 2, 1,-2,-1, 0,-5,-1, 4,-2,-2,-1,-8],
    [-2,-3,-3,-4,-6,-2,-3,-4,-2, 2, 6,-3, 4, 2,-3,-3,-2,-2,-1, 2,-3,-3,-1,-8],
    [-1, 3, 1, 0,-5, 1, 0,-2, 0,-2,-3, 5, 0,-5,-1, 0, 0,-3,-4,-2, 1, 0,-1,-8],
    [-1, 0,-2,-3,-5,-1,-2,-3,-2, 2, 4, 0, 6, 0,-2,-2,-1,-4,-2, 2,-2,-2,-1,-8],
    [-3,-4,-3,-6,-4,-5,-5,-5,-2, 1, 2,-5, 0, 9,-5,-3,-3, 0, 7,-1,-4,-5,-2,-8],
    [ 1, 0, 0,-1,-3, 0,-1, 0, 0,-2,-3,-1,-2,-5, 6, 1, 0,-6,-5,-1,-1, 0,-1,-8],
    [ 1, 0, 1, 0, 0,-1, 0, 1,-1,-1,-3, 0,-2,-3, 1, 2, 1,-2,-3,-1, 0, 0, 0,-8],
    [ 1,-1, 0, 0,-2,-1, 0, 0,-1, 0,-2, 0,-1,-3, 0, 1, 3,-5,-3, 0, 0,-1, 0,-8],
    [-6, 2,-4,-7,-8,-5,-7,-7,-3,-5,-2,-3,-4, 0,-6,-2,-5,17, 0,-6,-5,-6,-4,-8],
    [-3,-4,-2,-4, 0,-4,-4,-5, 0,-1,-1,-4,-2, 7,-5,-3,-3, 0,10,-2,-3,-4,-2,-8],
    [ 0,-2,-2,-2,-2,-2,-2,-1,-2, 4, 2,-2, 2,-1,-1,-1, 0,-6,-2, 4,-2,-2,-1,-8],
    [ 0,-1, 2, 3,-4, 1, 3, 0, 1,-2,-3, 1,-2,-4,-1, 0, 0,-5,-3,-2, 3, 2,-1,-8],
    [ 0, 0, 1, 3,-5, 3, 3, 0, 2,-2,-3, 0,-2,-5, 0, 0,-1,-6,-4,-2, 2, 3,-1,-8],
    [ 0,-1, 0,-1,-3,-1,-1,-1,-1,-1,-1,-1,-1,-2,-1, 0, 0,-4,-2,-1,-1,-1,-1,-8],
    [-8,-8,-8,-8,-8,-8,-8,-8,-8,-8,-8,-8,-8,-8,-8,-8,-8,-8,-8,-8,-8,-8,-8, 1],
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alphabet_indices_round_trip() {
        for (i, &c) in AA_ALPHABET.iter().enumerate() {
            assert_eq!(aa_index(c), i);
            assert_eq!(aa_index(c.to_ascii_lowercase()), i);
        }
    }

    #[test]
    fn rare_codes_fold_to_fixed_representatives() {
        assert_eq!(aa_index(b'U'), aa_index(b'C'));
        assert_eq!(aa_index(b'J'), aa_index(b'L'));
        assert_eq!(aa_index(b'O'), aa_index(b'K'));
        // Anything else is X.
        assert_eq!(aa_index(b'1'), AA_X);
        assert_eq!(aa_index(b'-'), AA_X);
    }

    #[test]
    fn builtin_matrices_are_symmetric_with_positive_diagonal() {
        for (name, m) in [
            ("blosum62", SubstMatrix::blosum62()),
            ("blosum50", SubstMatrix::blosum50()),
            ("pam250", SubstMatrix::pam250()),
        ] {
            for a in 0..AA_N {
                for b in 0..AA_N {
                    assert_eq!(
                        m.score_at(a, b),
                        m.score_at(b, a),
                        "{name}: {} vs {}",
                        AA_ALPHABET[a] as char,
                        AA_ALPHABET[b] as char
                    );
                }
            }
            for a in 0..AA_N {
                // Every self-pair scores at least as well as the alphabet
                // minimum; standard residues score themselves positively.
                if a < 20 {
                    assert!(m.score_at(a, a) > 0, "{name}: diag {a}");
                }
            }
        }
    }

    #[test]
    fn blosum62_spot_checks() {
        let m = SubstMatrix::blosum62();
        assert_eq!(m.score(b'W', b'W'), 11);
        assert_eq!(m.score(b'A', b'A'), 4);
        assert_eq!(m.score(b'E', b'K'), 1);
        assert_eq!(m.score(b'W', b'P'), -4);
        assert_eq!(m.score(b'*', b'*'), 1);
        assert_eq!(m.max_score(), 11);
    }

    #[test]
    fn ncbi_text_round_trips_every_builtin() {
        for m in [
            SubstMatrix::blosum62(),
            SubstMatrix::blosum50(),
            SubstMatrix::pam250(),
        ] {
            let text = m.to_ncbi_text();
            let back = SubstMatrix::parse_ncbi(&text).expect("round trip");
            assert_eq!(back, m);
        }
    }

    #[test]
    fn parser_rejects_malformed_input() {
        assert_eq!(SubstMatrix::parse_ncbi(""), Err(MatrixError::Empty));
        assert_eq!(
            SubstMatrix::parse_ncbi("# only comments\n"),
            Err(MatrixError::Empty)
        );
        assert!(matches!(
            SubstMatrix::parse_ncbi("A R\nA 1\n"),
            Err(MatrixError::RowMismatch { row: 'A', .. })
        ));
        assert!(matches!(
            SubstMatrix::parse_ncbi("A R\nA 1 x\n"),
            Err(MatrixError::BadNumber { .. })
        ));
        assert!(matches!(
            SubstMatrix::parse_ncbi("AB R\nA 1 2\n"),
            Err(MatrixError::BadHeader { .. })
        ));
    }

    #[test]
    fn partial_matrix_fills_unlisted_pairs_with_the_floor() {
        let m = SubstMatrix::parse_ncbi("  A C\nA 5 -2\nC -2 6\n").expect("parse");
        assert_eq!(m.score(b'A', b'A'), 5);
        assert_eq!(m.score(b'A', b'C'), -2);
        // W was never listed: both directions carry the floor (-2).
        assert_eq!(m.score(b'W', b'W'), -2);
        assert_eq!(m.score(b'A', b'W'), -2);
    }

    #[test]
    fn fingerprints_differ_across_builtins_and_gaps() {
        let a = MatrixScoring::blosum62();
        let b = MatrixScoring::new(SubstMatrix::pam250(), -11, -1);
        let c = MatrixScoring::new(SubstMatrix::blosum62(), -10, -1);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_eq!(a.fingerprint(), MatrixScoring::blosum62().fingerprint());
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = format!("# BLOSUM62\n\n{}", SubstMatrix::blosum62().to_ncbi_text());
        assert_eq!(
            SubstMatrix::parse_ncbi(&text).expect("parse"),
            SubstMatrix::blosum62()
        );
    }
}
