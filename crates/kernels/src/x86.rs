//! SSE2 and AVX2 backends via `std::arch::x86_64` (no external crates).
//!
//! Each engine implements the [`Engine`] vocabulary with raw intrinsics and
//! exposes one `#[target_feature]` shell that runs any [`Pass`]; the
//! `#[inline(always)]` generic bodies monomorphize *inside* the shell, so
//! the whole recurrence compiles with the wide instruction set enabled.
//! [`crate::engine::dispatch`] gates on runtime detection before entering
//! a shell.
//!
//! The only non-obvious operation is [`Engine::shift_in`] on AVX2: a 256-bit
//! register is two 128-bit halves and `vpslldq` cannot shift across them, so
//! the lane rotation is `vperm2i128` (to place the low half under the high
//! half) followed by `vpalignr`, then an OR to drop the boundary value into
//! the zeroed lane 0.

#![cfg(target_arch = "x86_64")]

use std::arch::x86_64::*;

use crate::engine::{Engine, Pass};

/// 128-bit engine: 8 × i16 lanes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Sse2;

impl Engine for Sse2 {
    const LANES: usize = 8;
    type V = __m128i;

    // SAFETY: caller upholds the Engine contract — SSE2 is enabled.
    #[inline(always)]
    unsafe fn splat(x: i16) -> Self::V {
        _mm_set1_epi16(x)
    }

    // SAFETY: caller upholds the Engine contract — SSE2 is enabled and the pointer is valid for LANES i16s (unaligned ok).
    #[inline(always)]
    unsafe fn load(src: *const i16) -> Self::V {
        _mm_loadu_si128(src.cast())
    }

    // SAFETY: caller upholds the Engine contract — SSE2 is enabled and the pointer is valid for LANES i16s (unaligned ok).
    #[inline(always)]
    unsafe fn store(dst: *mut i16, v: Self::V) {
        _mm_storeu_si128(dst.cast(), v)
    }

    // SAFETY: caller upholds the Engine contract — SSE2 is enabled.
    #[inline(always)]
    unsafe fn adds(a: Self::V, b: Self::V) -> Self::V {
        _mm_adds_epi16(a, b)
    }

    // SAFETY: caller upholds the Engine contract — SSE2 is enabled.
    #[inline(always)]
    unsafe fn subs(a: Self::V, b: Self::V) -> Self::V {
        _mm_subs_epi16(a, b)
    }

    // SAFETY: caller upholds the Engine contract — SSE2 is enabled.
    #[inline(always)]
    unsafe fn max(a: Self::V, b: Self::V) -> Self::V {
        _mm_max_epi16(a, b)
    }

    // SAFETY: caller upholds the Engine contract — SSE2 is enabled.
    #[inline(always)]
    unsafe fn gt_bytes(a: Self::V, b: Self::V) -> u64 {
        _mm_movemask_epi8(_mm_cmpgt_epi16(a, b)) as u32 as u64
    }

    // SAFETY: caller upholds the Engine contract — SSE2 is enabled.
    #[inline(always)]
    unsafe fn shift_in(v: Self::V, first: i16) -> Self::V {
        // Byte-shift toward higher lanes zero-fills lane 0; OR the boundary in.
        let shifted = _mm_slli_si128::<2>(v);
        _mm_or_si128(shifted, _mm_setr_epi16(first, 0, 0, 0, 0, 0, 0, 0))
    }
}

/// 256-bit engine: 16 × i16 lanes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Avx2;

impl Engine for Avx2 {
    const LANES: usize = 16;
    type V = __m256i;

    // SAFETY: caller upholds the Engine contract — AVX2 is enabled.
    #[inline(always)]
    unsafe fn splat(x: i16) -> Self::V {
        _mm256_set1_epi16(x)
    }

    // SAFETY: caller upholds the Engine contract — AVX2 is enabled and the pointer is valid for LANES i16s (unaligned ok).
    #[inline(always)]
    unsafe fn load(src: *const i16) -> Self::V {
        _mm256_loadu_si256(src.cast())
    }

    // SAFETY: caller upholds the Engine contract — AVX2 is enabled and the pointer is valid for LANES i16s (unaligned ok).
    #[inline(always)]
    unsafe fn store(dst: *mut i16, v: Self::V) {
        _mm256_storeu_si256(dst.cast(), v)
    }

    // SAFETY: caller upholds the Engine contract — AVX2 is enabled.
    #[inline(always)]
    unsafe fn adds(a: Self::V, b: Self::V) -> Self::V {
        _mm256_adds_epi16(a, b)
    }

    // SAFETY: caller upholds the Engine contract — AVX2 is enabled.
    #[inline(always)]
    unsafe fn subs(a: Self::V, b: Self::V) -> Self::V {
        _mm256_subs_epi16(a, b)
    }

    // SAFETY: caller upholds the Engine contract — AVX2 is enabled.
    #[inline(always)]
    unsafe fn max(a: Self::V, b: Self::V) -> Self::V {
        _mm256_max_epi16(a, b)
    }

    // SAFETY: caller upholds the Engine contract — AVX2 is enabled.
    #[inline(always)]
    unsafe fn gt_bytes(a: Self::V, b: Self::V) -> u64 {
        _mm256_movemask_epi8(_mm256_cmpgt_epi16(a, b)) as u32 as u64
    }

    // SAFETY: caller upholds the Engine contract — AVX2 is enabled.
    #[inline(always)]
    unsafe fn shift_in(v: Self::V, first: i16) -> Self::V {
        // [zero, v.low] so vpalignr can pull v.low's top lane into the
        // high half; the whole-register byte shift then zero-fills lane 0.
        let carry = _mm256_permute2x128_si256::<0x08>(v, v);
        let shifted = _mm256_alignr_epi8::<14>(v, carry);
        let boundary = _mm256_setr_epi16(first, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0);
        _mm256_or_si256(shifted, boundary)
    }
}

/// # Safety
/// Caller must have verified SSE2 is available (always true on x86_64, but
/// kept symmetric with AVX2).
#[target_feature(enable = "sse2")]
pub(crate) unsafe fn run_sse2<P: Pass>(pass: P) -> P::Out {
    pass.run::<Sse2>()
}

/// # Safety
/// Caller must have verified AVX2 via `is_x86_feature_detected!`.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn run_avx2<P: Pass>(pass: P) -> P::Out {
    pass.run::<Avx2>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sse2_shift_in_matches_portable_semantics() {
        if !is_x86_feature_detected!("sse2") {
            return;
        }
        unsafe {
            let mut src = [0i16; 8];
            for (i, s) in src.iter_mut().enumerate() {
                *s = 10 + i as i16;
            }
            let v = Sse2::load(src.as_ptr());
            let mut out = [0i16; 8];
            Sse2::store(out.as_mut_ptr(), Sse2::shift_in(v, -7));
            assert_eq!(out, [-7, 10, 11, 12, 13, 14, 15, 16]);
        }
    }

    #[test]
    fn avx2_shift_in_crosses_the_128_bit_boundary() {
        if !is_x86_feature_detected!("avx2") {
            return;
        }
        unsafe {
            let mut src = [0i16; 16];
            for (i, s) in src.iter_mut().enumerate() {
                *s = 100 + i as i16;
            }
            let v = Avx2::load(src.as_ptr());
            let mut out = [0i16; 16];
            Avx2::store(out.as_mut_ptr(), Avx2::shift_in(v, -3));
            let mut want = [0i16; 16];
            want[0] = -3;
            for (l, w) in want.iter_mut().enumerate().skip(1) {
                *w = 100 + (l as i16 - 1);
            }
            assert_eq!(out, want, "lane 8 must receive lane 7 across the halves");
        }
    }

    #[test]
    fn movemask_convention_matches_portable() {
        if !is_x86_feature_detected!("avx2") {
            return;
        }
        unsafe {
            let mut a = [0i16; 16];
            a[0] = 1;
            a[9] = 4;
            a[15] = 2;
            let m = Avx2::gt_bytes(Avx2::load(a.as_ptr()), Avx2::splat(0));
            assert_eq!(m, 0b11 | (0b11 << 18) | (0b11 << 30));
        }
    }
}
