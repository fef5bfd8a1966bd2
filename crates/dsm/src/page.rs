//! Pages, twins, and diffs — the multiple-writer machinery.
//!
//! Before the first write of an interval a node copies the page (the
//! *twin*). At release time the current contents are compared with the
//! twin and only the changed bytes travel to the home node as a diff.
//! Because two nodes writing disjoint parts of the same page produce
//! disjoint diffs, both can write concurrently (Multiple-Writer protocol)
//! and the home merges them.

use crate::msg::Patches;

/// State of a cached page copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageState {
    /// Clean copy; reads allowed.
    ReadOnly,
    /// Twinned and modified this interval; reads and writes allowed.
    ReadWrite,
}

/// One page in a node's cache.
#[derive(Debug, Clone)]
pub struct CachedPage {
    /// Current contents.
    pub data: Vec<u8>,
    /// Copy taken before the first write of the interval.
    pub twin: Option<Vec<u8>>,
    /// Access state.
    pub state: PageState,
}

impl CachedPage {
    /// A clean read-only copy fetched from home.
    pub fn clean(data: Vec<u8>) -> Self {
        Self {
            data,
            twin: None,
            state: PageState::ReadOnly,
        }
    }

    /// Prepares the page for writing: creates the twin if this is the
    /// first write of the interval.
    pub fn ensure_writable(&mut self) {
        if self.state == PageState::ReadOnly {
            self.twin = Some(self.data.clone());
            self.state = PageState::ReadWrite;
        }
    }

    /// Computes the diff against the twin, drops the twin, and downgrades
    /// the page to read-only (the Fig. 6 "sets pages state to R/O" step).
    /// Returns `None` if the page was never written this interval.
    pub fn take_diff(&mut self) -> Option<Patches> {
        let twin = self.twin.take()?;
        self.state = PageState::ReadOnly;
        Some(diff_bytes(&twin, &self.data))
    }
}

/// Reads the eight bytes at `i` as one little-endian word, so byte `i`
/// is the word's lowest byte.
fn word(bytes: &[u8], i: usize) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&bytes[i..i + 8]);
    u64::from_le_bytes(w)
}

const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
const HIGH: u64 = 0x8080_8080_8080_8080;

/// The high bit of each byte of `x` that is zero, and no other bit. Exact
/// per byte: `(b & 0x7f) + 0x7f` never carries out of its byte.
fn zero_bytes(x: u64) -> u64 {
    !(((x & LOW7) + LOW7) | x) & HIGH
}

/// First index at or after `i` where `twin` and `current` differ.
fn next_changed(twin: &[u8], current: &[u8], mut i: usize) -> Option<usize> {
    let n = current.len();
    while i + 8 <= n {
        let x = word(twin, i) ^ word(current, i);
        if x != 0 {
            return Some(i + x.trailing_zeros() as usize / 8);
        }
        i += 8;
    }
    (i..n).find(|&k| twin[k] != current[k])
}

/// First index at or after `i` where `twin` and `current` agree, or the
/// page length.
fn next_unchanged(twin: &[u8], current: &[u8], mut i: usize) -> usize {
    let n = current.len();
    while i + 8 <= n {
        let same = zero_bytes(word(twin, i) ^ word(current, i));
        if same != 0 {
            return i + same.trailing_zeros() as usize / 8;
        }
        i += 8;
    }
    (i..n).find(|&k| twin[k] == current[k]).unwrap_or(n)
}

/// Diff of a page against its twin: each maximal run of changed bytes
/// becomes one run of the result, found eight bytes at a time.
pub fn diff_bytes(twin: &[u8], current: &[u8]) -> Patches {
    assert_eq!(twin.len(), current.len(), "a twin is its page's size");
    let mut patches = Patches::default();
    let mut i = 0;
    while let Some(start) = next_changed(twin, current, i) {
        i = next_unchanged(twin, current, start + 1);
        patches.push(start as u32, &current[start..i]);
    }
    patches
}

/// Applies a diff to a home page.
pub fn apply_patches(page: &mut [u8], patches: &Patches) {
    for (offset, data) in patches.runs() {
        let start = offset as usize;
        page[start..start + data.len()].copy_from_slice(data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::Msg;

    /// The byte-at-a-time diff [`diff_bytes`] must agree with run for run.
    fn oracle(twin: &[u8], current: &[u8]) -> Patches {
        let mut patches = Patches::default();
        let mut i = 0;
        let n = current.len();
        while i < n {
            if twin[i] == current[i] {
                i += 1;
                continue;
            }
            let start = i;
            while i < n && twin[i] != current[i] {
                i += 1;
            }
            patches.push(start as u32, &current[start..i]);
        }
        patches
    }

    /// `(offset, len)` of every run, for readable failures.
    fn runs(patches: &Patches) -> Vec<(u32, usize)> {
        patches.runs().map(|(o, d)| (o, d.len())).collect()
    }

    /// Checks `diff_bytes` against the oracle on one page: the same runs,
    /// a diff that rebuilds the page from its twin, and the wire size
    /// virtual time is priced from.
    fn check(twin: &[u8], current: &[u8]) {
        let got = diff_bytes(twin, current);
        let want = oracle(twin, current);
        assert_eq!(runs(&got), runs(&want), "run lists differ");
        assert_eq!(got, want, "run bytes differ");
        let mut home = twin.to_vec();
        apply_patches(&mut home, &got);
        assert_eq!(home, current, "applying the diff does not rebuild the page");
        let runs_size: usize = want.runs().map(|(_, d)| 8 + d.len()).sum();
        let diff = Msg::Diff {
            page: 0,
            from: 0,
            patches: got,
            epoch: 0,
        };
        assert_eq!(diff.wire_size(), 32 + runs_size);
    }

    /// A splitmix64 stream: seeded pages without a dependency.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    #[test]
    fn word_diff_equals_the_byte_oracle_on_random_pages() {
        let mut rng = Rng(0xd1ff);
        for size in [64, 65, 71, 100, 128, 1000, 4095, 4096] {
            for percent in [0, 1, 10, 50, 100] {
                for _ in 0..8 {
                    let twin: Vec<u8> = (0..size).map(|_| rng.next() as u8).collect();
                    let mut current = twin.clone();
                    for b in &mut current {
                        if rng.below(100) < percent {
                            // Never zero: a chosen byte really changes.
                            *b ^= 1 + rng.below(255) as u8;
                        }
                    }
                    check(&twin, &current);
                }
            }
        }
    }

    #[test]
    fn runs_at_word_edges_and_page_ends_equal_the_oracle() {
        for size in [64, 67, 4096] {
            let twin = vec![0u8; size];
            // Every run of 1..=17 bytes at every start in the first three
            // words and the last three: runs that end on, start on or
            // straddle an 8-byte edge, and runs on the first or last byte.
            for len in 1..=17 {
                let starts = (0..24).chain(size.saturating_sub(24)..size);
                for start in starts.filter(|s| s + len <= size) {
                    let mut current = twin.clone();
                    current[start..start + len].fill(0xa5);
                    check(&twin, &current);
                    // A second run one equal byte later.
                    if start + len + 1 < size {
                        current[start + len + 1] = 1;
                        check(&twin, &current);
                    }
                }
            }
            // Alternating changed and equal bytes: one-byte runs only.
            let current: Vec<u8> = (0..size).map(|i| (i % 2) as u8).collect();
            check(&twin, &current);
        }
    }

    #[test]
    fn diff_of_identical_is_empty() {
        assert!(diff_bytes(&[1, 2, 3], &[1, 2, 3]).is_empty());
        assert!(diff_bytes(&[9; 4096], &[9; 4096]).is_empty());
    }

    #[test]
    fn diff_finds_contiguous_runs() {
        let twin = vec![0u8; 10];
        let mut cur = twin.clone();
        cur[2] = 9;
        cur[3] = 9;
        cur[7] = 5;
        let d = diff_bytes(&twin, &cur);
        let got: Vec<(u32, &[u8])> = d.runs().collect();
        assert_eq!(got, [(2, &[9, 9][..]), (7, &[5][..])]);
    }

    #[test]
    fn apply_round_trips() {
        let twin = vec![7u8; 64];
        let mut cur = twin.clone();
        for i in (0..64).step_by(5) {
            cur[i] = i as u8;
        }
        let d = diff_bytes(&twin, &cur);
        let mut home = twin.clone();
        apply_patches(&mut home, &d);
        assert_eq!(home, cur);
    }

    #[test]
    fn disjoint_writers_merge() {
        // Multiple-writer property: two nodes modify disjoint halves of
        // the same page; applying both diffs to the home yields both sets
        // of changes.
        let original = vec![0u8; 32];
        let mut a = original.clone();
        let mut b = original.clone();
        a[..8].copy_from_slice(&[1; 8]);
        b[24..].copy_from_slice(&[2; 8]);
        let da = diff_bytes(&original, &a);
        let db = diff_bytes(&original, &b);
        let mut home = original.clone();
        apply_patches(&mut home, &da);
        apply_patches(&mut home, &db);
        assert_eq!(&home[..8], &[1; 8]);
        assert_eq!(&home[24..], &[2; 8]);
        assert_eq!(&home[8..24], &[0; 16]);
    }

    #[test]
    fn cached_page_twin_lifecycle() {
        let mut p = CachedPage::clean(vec![0; 16]);
        assert!(p.take_diff().is_none(), "clean page has no diff");
        p.ensure_writable();
        assert_eq!(p.state, PageState::ReadWrite);
        p.data[3] = 42;
        p.ensure_writable(); // idempotent: twin not re-taken
        p.data[4] = 43;
        let d = p.take_diff().expect("modified");
        let got: Vec<(u32, &[u8])> = d.runs().collect();
        assert_eq!(got, [(3, &[42, 43][..])]);
        assert_eq!(p.state, PageState::ReadOnly);
        assert!(p.twin.is_none());
    }

    #[test]
    fn whole_page_change_is_one_patch() {
        let twin = vec![0u8; 128];
        let cur = vec![1u8; 128];
        let d = diff_bytes(&twin, &cur);
        assert_eq!(runs(&d), [(0, 128)]);
    }
}
