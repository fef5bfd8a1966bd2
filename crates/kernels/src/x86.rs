//! SSE2, AVX2 and AVX-512 backends via `std::arch::x86_64` (no external crates).
//!
//! Each engine implements the [`Engine`] vocabulary with raw intrinsics at
//! every lane width (`Sse2<i8>`, `Sse2<i16>`, `Sse2<i32>`, …), and each ISA exposes one
//! `#[target_feature]` shell that runs any [`Pass`] on the engine of the
//! pass's width; the `#[inline(always)]` generic bodies monomorphize
//! *inside* the shell, so the whole recurrence compiles with the wide
//! instruction set enabled. [`crate::engine::dispatch`] gates on runtime
//! detection before entering a shell.
//!
//! The only non-obvious operation is [`Engine::shift_in`] on AVX2: a 256-bit
//! register is two 128-bit halves and `vpslldq` cannot shift across them, so
//! the lane rotation is `vperm2i128` (to place the low half under the high
//! half) followed by `vpalignr`, then an OR to drop the boundary value into
//! the zeroed lane 0. The `i32` engines use plain `add`/`sub` — x86 has no
//! saturating 32-bit forms; [`Elem::CEILING`] is what keeps them from
//! wrapping — and SSE2 builds its `i8` and `i32` max and min, and every
//! `select`, from a compare and an and/andnot/or blend (`pmaxsb`, `pmaxsd`,
//! their `min` twins and `pblendvb` are SSE4.1); AVX2 selects with
//! `vpblendvb`.
//!
//! AVX-512 compares into mask registers (`__mmask*`, one bit per lane),
//! while the trait's lane masks are vectors: `gt`/`eq` widen the compare
//! mask with `vpmovm2*`, `select` narrows it back with `vpmov*2m` into a
//! masked blend, and the compiler folds each round trip into the mask
//! register itself. `gt_bytes` keeps the `movemask_epi8` layout
//! ([`crate::engine::lane_bits`]) by narrowing the widened mask at byte
//! granularity. Its `shift_in` crosses all four 128-bit lanes in one
//! instruction: `vpermb`/`vpermw` (VBMI/BW) under a mask that keeps the
//! broadcast boundary in lane 0, and `valignd` at `i32`.

#![cfg(target_arch = "x86_64")]

use std::arch::x86_64::*;
use std::marker::PhantomData;

use crate::engine::{Elem, Engine, Pass};

/// 128-bit engine: 16 × i8, 8 × i16 or 4 × i32 lanes.
#[derive(Debug, Clone, Copy)]
pub struct Sse2<T>(PhantomData<T>);

impl Engine for Sse2<i8> {
    type T = i8;
    const LANES: usize = 16;
    type V = __m128i;

    // SAFETY: caller upholds the Engine contract — SSE2 is enabled.
    #[inline(always)]
    unsafe fn splat(x: i8) -> Self::V {
        _mm_set1_epi8(x)
    }

    // SAFETY: caller upholds the Engine contract — SSE2 is enabled and the pointer is valid for LANES i8s (unaligned ok).
    #[inline(always)]
    unsafe fn load(src: *const i8) -> Self::V {
        _mm_loadu_si128(src.cast())
    }

    // SAFETY: caller upholds the Engine contract — SSE2 is enabled and the pointer is valid for LANES i8s (unaligned ok).
    #[inline(always)]
    unsafe fn store(dst: *mut i8, v: Self::V) {
        _mm_storeu_si128(dst.cast(), v)
    }

    // SAFETY: caller upholds the Engine contract — SSE2 is enabled.
    #[inline(always)]
    unsafe fn adds(a: Self::V, b: Self::V) -> Self::V {
        _mm_adds_epi8(a, b)
    }

    // SAFETY: caller upholds the Engine contract — SSE2 is enabled.
    #[inline(always)]
    unsafe fn subs(a: Self::V, b: Self::V) -> Self::V {
        _mm_subs_epi8(a, b)
    }

    // SAFETY: caller upholds the Engine contract — SSE2 is enabled.
    #[inline(always)]
    unsafe fn max(a: Self::V, b: Self::V) -> Self::V {
        Self::select(_mm_cmpgt_epi8(a, b), a, b)
    }

    // SAFETY: caller upholds the Engine contract — SSE2 is enabled.
    #[inline(always)]
    unsafe fn min(a: Self::V, b: Self::V) -> Self::V {
        Self::select(_mm_cmpgt_epi8(b, a), a, b)
    }

    // SAFETY: caller upholds the Engine contract — SSE2 is enabled.
    #[inline(always)]
    unsafe fn gt(a: Self::V, b: Self::V) -> Self::V {
        _mm_cmpgt_epi8(a, b)
    }

    // SAFETY: caller upholds the Engine contract — SSE2 is enabled.
    #[inline(always)]
    unsafe fn eq(a: Self::V, b: Self::V) -> Self::V {
        _mm_cmpeq_epi8(a, b)
    }

    // SAFETY: caller upholds the Engine contract — SSE2 is enabled.
    #[inline(always)]
    unsafe fn select(m: Self::V, a: Self::V, b: Self::V) -> Self::V {
        _mm_or_si128(_mm_and_si128(m, a), _mm_andnot_si128(m, b))
    }

    // SAFETY: caller upholds the Engine contract — SSE2 is enabled.
    #[inline(always)]
    unsafe fn and(a: Self::V, b: Self::V) -> Self::V {
        _mm_and_si128(a, b)
    }

    // SAFETY: caller upholds the Engine contract — SSE2 is enabled.
    #[inline(always)]
    unsafe fn andnot(a: Self::V, b: Self::V) -> Self::V {
        _mm_andnot_si128(a, b)
    }

    // SAFETY: caller upholds the Engine contract — SSE2 is enabled.
    #[inline(always)]
    unsafe fn gt_bytes(a: Self::V, b: Self::V) -> u64 {
        _mm_movemask_epi8(_mm_cmpgt_epi8(a, b)) as u32 as u64
    }

    // SAFETY: caller upholds the Engine contract — SSE2 is enabled.
    #[inline(always)]
    unsafe fn shift_in(v: Self::V, first: i8) -> Self::V {
        // As at i16, one lane being one byte.
        let shifted = _mm_slli_si128::<1>(v);
        _mm_or_si128(shifted, _mm_cvtsi32_si128(i32::from(first as u8)))
    }
}

impl Engine for Sse2<i16> {
    type T = i16;
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
    unsafe fn min(a: Self::V, b: Self::V) -> Self::V {
        _mm_min_epi16(a, b)
    }

    // SAFETY: caller upholds the Engine contract — SSE2 is enabled.
    #[inline(always)]
    unsafe fn gt(a: Self::V, b: Self::V) -> Self::V {
        _mm_cmpgt_epi16(a, b)
    }

    // SAFETY: caller upholds the Engine contract — SSE2 is enabled.
    #[inline(always)]
    unsafe fn eq(a: Self::V, b: Self::V) -> Self::V {
        _mm_cmpeq_epi16(a, b)
    }

    // SAFETY: caller upholds the Engine contract — SSE2 is enabled.
    #[inline(always)]
    unsafe fn select(m: Self::V, a: Self::V, b: Self::V) -> Self::V {
        _mm_or_si128(_mm_and_si128(m, a), _mm_andnot_si128(m, b))
    }

    // SAFETY: caller upholds the Engine contract — SSE2 is enabled.
    #[inline(always)]
    unsafe fn and(a: Self::V, b: Self::V) -> Self::V {
        _mm_and_si128(a, b)
    }

    // SAFETY: caller upholds the Engine contract — SSE2 is enabled.
    #[inline(always)]
    unsafe fn andnot(a: Self::V, b: Self::V) -> Self::V {
        _mm_andnot_si128(a, b)
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

impl Engine for Sse2<i32> {
    type T = i32;
    const LANES: usize = 4;
    type V = __m128i;

    // SAFETY: caller upholds the Engine contract — SSE2 is enabled.
    #[inline(always)]
    unsafe fn splat(x: i32) -> Self::V {
        _mm_set1_epi32(x)
    }

    // SAFETY: caller upholds the Engine contract — SSE2 is enabled and the pointer is valid for LANES i32s (unaligned ok).
    #[inline(always)]
    unsafe fn load(src: *const i32) -> Self::V {
        _mm_loadu_si128(src.cast())
    }

    // SAFETY: caller upholds the Engine contract — SSE2 is enabled and the pointer is valid for LANES i32s (unaligned ok).
    #[inline(always)]
    unsafe fn store(dst: *mut i32, v: Self::V) {
        _mm_storeu_si128(dst.cast(), v)
    }

    // SAFETY: caller upholds the Engine contract — SSE2 is enabled.
    #[inline(always)]
    unsafe fn adds(a: Self::V, b: Self::V) -> Self::V {
        _mm_add_epi32(a, b)
    }

    // SAFETY: caller upholds the Engine contract — SSE2 is enabled.
    #[inline(always)]
    unsafe fn subs(a: Self::V, b: Self::V) -> Self::V {
        _mm_sub_epi32(a, b)
    }

    // SAFETY: caller upholds the Engine contract — SSE2 is enabled.
    #[inline(always)]
    unsafe fn max(a: Self::V, b: Self::V) -> Self::V {
        Self::select(_mm_cmpgt_epi32(a, b), a, b)
    }

    // SAFETY: caller upholds the Engine contract — SSE2 is enabled.
    #[inline(always)]
    unsafe fn min(a: Self::V, b: Self::V) -> Self::V {
        Self::select(_mm_cmpgt_epi32(b, a), a, b)
    }

    // SAFETY: caller upholds the Engine contract — SSE2 is enabled.
    #[inline(always)]
    unsafe fn gt(a: Self::V, b: Self::V) -> Self::V {
        _mm_cmpgt_epi32(a, b)
    }

    // SAFETY: caller upholds the Engine contract — SSE2 is enabled.
    #[inline(always)]
    unsafe fn eq(a: Self::V, b: Self::V) -> Self::V {
        _mm_cmpeq_epi32(a, b)
    }

    // SAFETY: caller upholds the Engine contract — SSE2 is enabled.
    #[inline(always)]
    unsafe fn select(m: Self::V, a: Self::V, b: Self::V) -> Self::V {
        _mm_or_si128(_mm_and_si128(m, a), _mm_andnot_si128(m, b))
    }

    // SAFETY: caller upholds the Engine contract — SSE2 is enabled.
    #[inline(always)]
    unsafe fn and(a: Self::V, b: Self::V) -> Self::V {
        _mm_and_si128(a, b)
    }

    // SAFETY: caller upholds the Engine contract — SSE2 is enabled.
    #[inline(always)]
    unsafe fn andnot(a: Self::V, b: Self::V) -> Self::V {
        _mm_andnot_si128(a, b)
    }

    // SAFETY: caller upholds the Engine contract — SSE2 is enabled.
    #[inline(always)]
    unsafe fn gt_bytes(a: Self::V, b: Self::V) -> u64 {
        _mm_movemask_epi8(_mm_cmpgt_epi32(a, b)) as u32 as u64
    }

    // SAFETY: caller upholds the Engine contract — SSE2 is enabled.
    #[inline(always)]
    unsafe fn shift_in(v: Self::V, first: i32) -> Self::V {
        // As at i16, one lane being four bytes.
        let shifted = _mm_slli_si128::<4>(v);
        _mm_or_si128(shifted, _mm_setr_epi32(first, 0, 0, 0))
    }
}

/// 256-bit engine: 32 × i8, 16 × i16 or 8 × i32 lanes.
#[derive(Debug, Clone, Copy)]
pub struct Avx2<T>(PhantomData<T>);

impl Engine for Avx2<i8> {
    type T = i8;
    const LANES: usize = 32;
    type V = __m256i;

    // SAFETY: caller upholds the Engine contract — AVX2 is enabled.
    #[inline(always)]
    unsafe fn splat(x: i8) -> Self::V {
        _mm256_set1_epi8(x)
    }

    // SAFETY: caller upholds the Engine contract — AVX2 is enabled and the pointer is valid for LANES i8s (unaligned ok).
    #[inline(always)]
    unsafe fn load(src: *const i8) -> Self::V {
        _mm256_loadu_si256(src.cast())
    }

    // SAFETY: caller upholds the Engine contract — AVX2 is enabled and the pointer is valid for LANES i8s (unaligned ok).
    #[inline(always)]
    unsafe fn store(dst: *mut i8, v: Self::V) {
        _mm256_storeu_si256(dst.cast(), v)
    }

    // SAFETY: caller upholds the Engine contract — AVX2 is enabled.
    #[inline(always)]
    unsafe fn adds(a: Self::V, b: Self::V) -> Self::V {
        _mm256_adds_epi8(a, b)
    }

    // SAFETY: caller upholds the Engine contract — AVX2 is enabled.
    #[inline(always)]
    unsafe fn subs(a: Self::V, b: Self::V) -> Self::V {
        _mm256_subs_epi8(a, b)
    }

    // SAFETY: caller upholds the Engine contract — AVX2 is enabled.
    #[inline(always)]
    unsafe fn max(a: Self::V, b: Self::V) -> Self::V {
        _mm256_max_epi8(a, b)
    }

    // SAFETY: caller upholds the Engine contract — AVX2 is enabled.
    #[inline(always)]
    unsafe fn min(a: Self::V, b: Self::V) -> Self::V {
        _mm256_min_epi8(a, b)
    }

    // SAFETY: caller upholds the Engine contract — AVX2 is enabled.
    #[inline(always)]
    unsafe fn gt(a: Self::V, b: Self::V) -> Self::V {
        _mm256_cmpgt_epi8(a, b)
    }

    // SAFETY: caller upholds the Engine contract — AVX2 is enabled.
    #[inline(always)]
    unsafe fn eq(a: Self::V, b: Self::V) -> Self::V {
        _mm256_cmpeq_epi8(a, b)
    }

    // SAFETY: caller upholds the Engine contract — AVX2 is enabled.
    #[inline(always)]
    unsafe fn select(m: Self::V, a: Self::V, b: Self::V) -> Self::V {
        _mm256_blendv_epi8(b, a, m)
    }

    // SAFETY: caller upholds the Engine contract — AVX2 is enabled.
    #[inline(always)]
    unsafe fn and(a: Self::V, b: Self::V) -> Self::V {
        _mm256_and_si256(a, b)
    }

    // SAFETY: caller upholds the Engine contract — AVX2 is enabled.
    #[inline(always)]
    unsafe fn andnot(a: Self::V, b: Self::V) -> Self::V {
        _mm256_andnot_si256(a, b)
    }

    // SAFETY: caller upholds the Engine contract — AVX2 is enabled.
    #[inline(always)]
    unsafe fn gt_bytes(a: Self::V, b: Self::V) -> u64 {
        _mm256_movemask_epi8(_mm256_cmpgt_epi8(a, b)) as u32 as u64
    }

    // SAFETY: caller upholds the Engine contract — AVX2 is enabled.
    #[inline(always)]
    unsafe fn shift_in(v: Self::V, first: i8) -> Self::V {
        // As at i16, one lane being one byte.
        let carry = _mm256_permute2x128_si256::<0x08>(v, v);
        let shifted = _mm256_alignr_epi8::<15>(v, carry);
        let boundary = _mm256_set_m128i(
            _mm_setzero_si128(),
            _mm_cvtsi32_si128(i32::from(first as u8)),
        );
        _mm256_or_si256(shifted, boundary)
    }
}

impl Engine for Avx2<i16> {
    type T = i16;
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
    unsafe fn min(a: Self::V, b: Self::V) -> Self::V {
        _mm256_min_epi16(a, b)
    }

    // SAFETY: caller upholds the Engine contract — AVX2 is enabled.
    #[inline(always)]
    unsafe fn gt(a: Self::V, b: Self::V) -> Self::V {
        _mm256_cmpgt_epi16(a, b)
    }

    // SAFETY: caller upholds the Engine contract — AVX2 is enabled.
    #[inline(always)]
    unsafe fn eq(a: Self::V, b: Self::V) -> Self::V {
        _mm256_cmpeq_epi16(a, b)
    }

    // SAFETY: caller upholds the Engine contract — AVX2 is enabled.
    #[inline(always)]
    unsafe fn select(m: Self::V, a: Self::V, b: Self::V) -> Self::V {
        _mm256_blendv_epi8(b, a, m)
    }

    // SAFETY: caller upholds the Engine contract — AVX2 is enabled.
    #[inline(always)]
    unsafe fn and(a: Self::V, b: Self::V) -> Self::V {
        _mm256_and_si256(a, b)
    }

    // SAFETY: caller upholds the Engine contract — AVX2 is enabled.
    #[inline(always)]
    unsafe fn andnot(a: Self::V, b: Self::V) -> Self::V {
        _mm256_andnot_si256(a, b)
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

impl Engine for Avx2<i32> {
    type T = i32;
    const LANES: usize = 8;
    type V = __m256i;

    // SAFETY: caller upholds the Engine contract — AVX2 is enabled.
    #[inline(always)]
    unsafe fn splat(x: i32) -> Self::V {
        _mm256_set1_epi32(x)
    }

    // SAFETY: caller upholds the Engine contract — AVX2 is enabled and the pointer is valid for LANES i32s (unaligned ok).
    #[inline(always)]
    unsafe fn load(src: *const i32) -> Self::V {
        _mm256_loadu_si256(src.cast())
    }

    // SAFETY: caller upholds the Engine contract — AVX2 is enabled and the pointer is valid for LANES i32s (unaligned ok).
    #[inline(always)]
    unsafe fn store(dst: *mut i32, v: Self::V) {
        _mm256_storeu_si256(dst.cast(), v)
    }

    // SAFETY: caller upholds the Engine contract — AVX2 is enabled.
    #[inline(always)]
    unsafe fn adds(a: Self::V, b: Self::V) -> Self::V {
        _mm256_add_epi32(a, b)
    }

    // SAFETY: caller upholds the Engine contract — AVX2 is enabled.
    #[inline(always)]
    unsafe fn subs(a: Self::V, b: Self::V) -> Self::V {
        _mm256_sub_epi32(a, b)
    }

    // SAFETY: caller upholds the Engine contract — AVX2 is enabled.
    #[inline(always)]
    unsafe fn max(a: Self::V, b: Self::V) -> Self::V {
        _mm256_max_epi32(a, b)
    }

    // SAFETY: caller upholds the Engine contract — AVX2 is enabled.
    #[inline(always)]
    unsafe fn min(a: Self::V, b: Self::V) -> Self::V {
        _mm256_min_epi32(a, b)
    }

    // SAFETY: caller upholds the Engine contract — AVX2 is enabled.
    #[inline(always)]
    unsafe fn gt(a: Self::V, b: Self::V) -> Self::V {
        _mm256_cmpgt_epi32(a, b)
    }

    // SAFETY: caller upholds the Engine contract — AVX2 is enabled.
    #[inline(always)]
    unsafe fn eq(a: Self::V, b: Self::V) -> Self::V {
        _mm256_cmpeq_epi32(a, b)
    }

    // SAFETY: caller upholds the Engine contract — AVX2 is enabled.
    #[inline(always)]
    unsafe fn select(m: Self::V, a: Self::V, b: Self::V) -> Self::V {
        _mm256_blendv_epi8(b, a, m)
    }

    // SAFETY: caller upholds the Engine contract — AVX2 is enabled.
    #[inline(always)]
    unsafe fn and(a: Self::V, b: Self::V) -> Self::V {
        _mm256_and_si256(a, b)
    }

    // SAFETY: caller upholds the Engine contract — AVX2 is enabled.
    #[inline(always)]
    unsafe fn andnot(a: Self::V, b: Self::V) -> Self::V {
        _mm256_andnot_si256(a, b)
    }

    // SAFETY: caller upholds the Engine contract — AVX2 is enabled.
    #[inline(always)]
    unsafe fn gt_bytes(a: Self::V, b: Self::V) -> u64 {
        _mm256_movemask_epi8(_mm256_cmpgt_epi32(a, b)) as u32 as u64
    }

    // SAFETY: caller upholds the Engine contract — AVX2 is enabled.
    #[inline(always)]
    unsafe fn shift_in(v: Self::V, first: i32) -> Self::V {
        // As at i16, one lane being four bytes.
        let carry = _mm256_permute2x128_si256::<0x08>(v, v);
        let shifted = _mm256_alignr_epi8::<12>(v, carry);
        _mm256_or_si256(shifted, _mm256_setr_epi32(first, 0, 0, 0, 0, 0, 0, 0))
    }
}

/// Lane `l` of a `vpermb` / `vpermw` index takes lane `l − 1`; lane 0 is
/// masked off and receives the boundary instead.
const DOWN_ONE_I8: [u8; 64] = {
    let mut idx = [0u8; 64];
    let mut l = 1;
    while l < 64 {
        idx[l] = (l - 1) as u8;
        l += 1;
    }
    idx
};

/// [`DOWN_ONE_I8`] for 16-bit lanes.
const DOWN_ONE_I16: [u16; 32] = {
    let mut idx = [0u16; 32];
    let mut l = 1;
    while l < 32 {
        idx[l] = (l - 1) as u16;
        l += 1;
    }
    idx
};

/// Every lane but lane 0.
const ABOVE_LANE_0: u64 = !1;

/// 512-bit engine: 64 × i8, 32 × i16 or 16 × i32 lanes.
#[derive(Debug, Clone, Copy)]
pub struct Avx512<T>(PhantomData<T>);

impl Engine for Avx512<i8> {
    type T = i8;
    const LANES: usize = 64;
    type V = __m512i;

    // SAFETY: caller upholds the Engine contract — AVX-512 is enabled.
    #[inline(always)]
    unsafe fn splat(x: i8) -> Self::V {
        _mm512_set1_epi8(x)
    }

    // SAFETY: caller upholds the Engine contract — AVX-512 is enabled and the pointer is valid for LANES i8s (unaligned ok).
    #[inline(always)]
    unsafe fn load(src: *const i8) -> Self::V {
        _mm512_loadu_si512(src.cast())
    }

    // SAFETY: caller upholds the Engine contract — AVX-512 is enabled and the pointer is valid for LANES i8s (unaligned ok).
    #[inline(always)]
    unsafe fn store(dst: *mut i8, v: Self::V) {
        _mm512_storeu_si512(dst.cast(), v)
    }

    // SAFETY: caller upholds the Engine contract — AVX-512 is enabled.
    #[inline(always)]
    unsafe fn adds(a: Self::V, b: Self::V) -> Self::V {
        _mm512_adds_epi8(a, b)
    }

    // SAFETY: caller upholds the Engine contract — AVX-512 is enabled.
    #[inline(always)]
    unsafe fn subs(a: Self::V, b: Self::V) -> Self::V {
        _mm512_subs_epi8(a, b)
    }

    // SAFETY: caller upholds the Engine contract — AVX-512 is enabled.
    #[inline(always)]
    unsafe fn max(a: Self::V, b: Self::V) -> Self::V {
        _mm512_max_epi8(a, b)
    }

    // SAFETY: caller upholds the Engine contract — AVX-512 is enabled.
    #[inline(always)]
    unsafe fn min(a: Self::V, b: Self::V) -> Self::V {
        _mm512_min_epi8(a, b)
    }

    // SAFETY: caller upholds the Engine contract — AVX-512 is enabled.
    #[inline(always)]
    unsafe fn gt(a: Self::V, b: Self::V) -> Self::V {
        _mm512_movm_epi8(_mm512_cmpgt_epi8_mask(a, b))
    }

    // SAFETY: caller upholds the Engine contract — AVX-512 is enabled.
    #[inline(always)]
    unsafe fn eq(a: Self::V, b: Self::V) -> Self::V {
        _mm512_movm_epi8(_mm512_cmpeq_epi8_mask(a, b))
    }

    // SAFETY: caller upholds the Engine contract — AVX-512 is enabled.
    #[inline(always)]
    unsafe fn select(m: Self::V, a: Self::V, b: Self::V) -> Self::V {
        _mm512_mask_blend_epi8(_mm512_movepi8_mask(m), b, a)
    }

    // SAFETY: caller upholds the Engine contract — AVX-512 is enabled.
    #[inline(always)]
    unsafe fn and(a: Self::V, b: Self::V) -> Self::V {
        _mm512_and_si512(a, b)
    }

    // SAFETY: caller upholds the Engine contract — AVX-512 is enabled.
    #[inline(always)]
    unsafe fn andnot(a: Self::V, b: Self::V) -> Self::V {
        _mm512_andnot_si512(a, b)
    }

    // SAFETY: caller upholds the Engine contract — AVX-512 is enabled.
    #[inline(always)]
    unsafe fn gt_bytes(a: Self::V, b: Self::V) -> u64 {
        // One mask bit per byte lane already.
        _mm512_cmpgt_epi8_mask(a, b)
    }

    // SAFETY: caller upholds the Engine contract — AVX-512 is enabled.
    #[inline(always)]
    unsafe fn shift_in(v: Self::V, first: i8) -> Self::V {
        // vpermb moves bytes across all four 128-bit lanes; lane 0 keeps
        // the broadcast boundary.
        let idx = _mm512_loadu_si512(DOWN_ONE_I8.as_ptr().cast());
        _mm512_mask_permutexvar_epi8(_mm512_set1_epi8(first), ABOVE_LANE_0, idx, v)
    }
}

impl Engine for Avx512<i16> {
    type T = i16;
    const LANES: usize = 32;
    type V = __m512i;

    // SAFETY: caller upholds the Engine contract — AVX-512 is enabled.
    #[inline(always)]
    unsafe fn splat(x: i16) -> Self::V {
        _mm512_set1_epi16(x)
    }

    // SAFETY: caller upholds the Engine contract — AVX-512 is enabled and the pointer is valid for LANES i16s (unaligned ok).
    #[inline(always)]
    unsafe fn load(src: *const i16) -> Self::V {
        _mm512_loadu_si512(src.cast())
    }

    // SAFETY: caller upholds the Engine contract — AVX-512 is enabled and the pointer is valid for LANES i16s (unaligned ok).
    #[inline(always)]
    unsafe fn store(dst: *mut i16, v: Self::V) {
        _mm512_storeu_si512(dst.cast(), v)
    }

    // SAFETY: caller upholds the Engine contract — AVX-512 is enabled.
    #[inline(always)]
    unsafe fn adds(a: Self::V, b: Self::V) -> Self::V {
        _mm512_adds_epi16(a, b)
    }

    // SAFETY: caller upholds the Engine contract — AVX-512 is enabled.
    #[inline(always)]
    unsafe fn subs(a: Self::V, b: Self::V) -> Self::V {
        _mm512_subs_epi16(a, b)
    }

    // SAFETY: caller upholds the Engine contract — AVX-512 is enabled.
    #[inline(always)]
    unsafe fn max(a: Self::V, b: Self::V) -> Self::V {
        _mm512_max_epi16(a, b)
    }

    // SAFETY: caller upholds the Engine contract — AVX-512 is enabled.
    #[inline(always)]
    unsafe fn min(a: Self::V, b: Self::V) -> Self::V {
        _mm512_min_epi16(a, b)
    }

    // SAFETY: caller upholds the Engine contract — AVX-512 is enabled.
    #[inline(always)]
    unsafe fn gt(a: Self::V, b: Self::V) -> Self::V {
        _mm512_movm_epi16(_mm512_cmpgt_epi16_mask(a, b))
    }

    // SAFETY: caller upholds the Engine contract — AVX-512 is enabled.
    #[inline(always)]
    unsafe fn eq(a: Self::V, b: Self::V) -> Self::V {
        _mm512_movm_epi16(_mm512_cmpeq_epi16_mask(a, b))
    }

    // SAFETY: caller upholds the Engine contract — AVX-512 is enabled.
    #[inline(always)]
    unsafe fn select(m: Self::V, a: Self::V, b: Self::V) -> Self::V {
        _mm512_mask_blend_epi16(_mm512_movepi16_mask(m), b, a)
    }

    // SAFETY: caller upholds the Engine contract — AVX-512 is enabled.
    #[inline(always)]
    unsafe fn and(a: Self::V, b: Self::V) -> Self::V {
        _mm512_and_si512(a, b)
    }

    // SAFETY: caller upholds the Engine contract — AVX-512 is enabled.
    #[inline(always)]
    unsafe fn andnot(a: Self::V, b: Self::V) -> Self::V {
        _mm512_andnot_si512(a, b)
    }

    // SAFETY: caller upholds the Engine contract — AVX-512 is enabled.
    #[inline(always)]
    unsafe fn gt_bytes(a: Self::V, b: Self::V) -> u64 {
        // One bit per lane in the compare mask; two per lane in lane_bits,
        // so widen it through a vector of whole-lane masks.
        _mm512_movepi8_mask(Self::gt(a, b))
    }

    // SAFETY: caller upholds the Engine contract — AVX-512 is enabled.
    #[inline(always)]
    unsafe fn shift_in(v: Self::V, first: i16) -> Self::V {
        // As at i8, with vpermw.
        let idx = _mm512_loadu_si512(DOWN_ONE_I16.as_ptr().cast());
        _mm512_mask_permutexvar_epi16(_mm512_set1_epi16(first), ABOVE_LANE_0 as u32, idx, v)
    }
}

impl Engine for Avx512<i32> {
    type T = i32;
    const LANES: usize = 16;
    type V = __m512i;

    // SAFETY: caller upholds the Engine contract — AVX-512 is enabled.
    #[inline(always)]
    unsafe fn splat(x: i32) -> Self::V {
        _mm512_set1_epi32(x)
    }

    // SAFETY: caller upholds the Engine contract — AVX-512 is enabled and the pointer is valid for LANES i32s (unaligned ok).
    #[inline(always)]
    unsafe fn load(src: *const i32) -> Self::V {
        _mm512_loadu_si512(src.cast())
    }

    // SAFETY: caller upholds the Engine contract — AVX-512 is enabled and the pointer is valid for LANES i32s (unaligned ok).
    #[inline(always)]
    unsafe fn store(dst: *mut i32, v: Self::V) {
        _mm512_storeu_si512(dst.cast(), v)
    }

    // SAFETY: caller upholds the Engine contract — AVX-512 is enabled.
    #[inline(always)]
    unsafe fn adds(a: Self::V, b: Self::V) -> Self::V {
        _mm512_add_epi32(a, b)
    }

    // SAFETY: caller upholds the Engine contract — AVX-512 is enabled.
    #[inline(always)]
    unsafe fn subs(a: Self::V, b: Self::V) -> Self::V {
        _mm512_sub_epi32(a, b)
    }

    // SAFETY: caller upholds the Engine contract — AVX-512 is enabled.
    #[inline(always)]
    unsafe fn max(a: Self::V, b: Self::V) -> Self::V {
        _mm512_max_epi32(a, b)
    }

    // SAFETY: caller upholds the Engine contract — AVX-512 is enabled.
    #[inline(always)]
    unsafe fn min(a: Self::V, b: Self::V) -> Self::V {
        _mm512_min_epi32(a, b)
    }

    // SAFETY: caller upholds the Engine contract — AVX-512 is enabled.
    #[inline(always)]
    unsafe fn gt(a: Self::V, b: Self::V) -> Self::V {
        _mm512_movm_epi32(_mm512_cmpgt_epi32_mask(a, b))
    }

    // SAFETY: caller upholds the Engine contract — AVX-512 is enabled.
    #[inline(always)]
    unsafe fn eq(a: Self::V, b: Self::V) -> Self::V {
        _mm512_movm_epi32(_mm512_cmpeq_epi32_mask(a, b))
    }

    // SAFETY: caller upholds the Engine contract — AVX-512 is enabled.
    #[inline(always)]
    unsafe fn select(m: Self::V, a: Self::V, b: Self::V) -> Self::V {
        _mm512_mask_blend_epi32(_mm512_movepi32_mask(m), b, a)
    }

    // SAFETY: caller upholds the Engine contract — AVX-512 is enabled.
    #[inline(always)]
    unsafe fn and(a: Self::V, b: Self::V) -> Self::V {
        _mm512_and_si512(a, b)
    }

    // SAFETY: caller upholds the Engine contract — AVX-512 is enabled.
    #[inline(always)]
    unsafe fn andnot(a: Self::V, b: Self::V) -> Self::V {
        _mm512_andnot_si512(a, b)
    }

    // SAFETY: caller upholds the Engine contract — AVX-512 is enabled.
    #[inline(always)]
    unsafe fn gt_bytes(a: Self::V, b: Self::V) -> u64 {
        // As at i16, four bits per lane.
        _mm512_movepi8_mask(Self::gt(a, b))
    }

    // SAFETY: caller upholds the Engine contract — AVX-512 is enabled.
    #[inline(always)]
    unsafe fn shift_in(v: Self::V, first: i32) -> Self::V {
        // valignd over [splat(first), v] by 15 lanes: lane 0 is the
        // boundary's top lane, lane l ≥ 1 is v's lane l − 1.
        _mm512_alignr_epi32::<15>(v, _mm512_set1_epi32(first))
    }
}

/// # Safety
/// Caller must have verified SSE2 is available (always true on x86_64, but
/// kept symmetric with AVX2).
#[target_feature(enable = "sse2")]
pub(crate) unsafe fn run_sse2<P: Pass>(pass: P) -> P::Out {
    pass.run::<<P::T as Elem>::Sse2>()
}

/// # Safety
/// Caller must have verified AVX2 via `is_x86_feature_detected!`.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn run_avx2<P: Pass>(pass: P) -> P::Out {
    pass.run::<<P::T as Elem>::Avx2>()
}

/// # Safety
/// Caller must have verified every feature enabled here via
/// `is_x86_feature_detected!` ([`crate::Isa::available`] does).
#[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512dq,avx512vbmi")]
pub(crate) unsafe fn run_avx512<P: Pass>(pass: P) -> P::Out {
    pass.run::<<P::T as Elem>::Avx512>()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `E::shift_in` and `E::gt_bytes` on `E::LANES` distinct values must
    /// agree with the portable engine of the same width.
    unsafe fn agrees_with_portable<E: Engine>() {
        let val = |x: usize| E::T::from_i32(x as i32);
        let src: Vec<E::T> = (0..E::LANES).map(|i| val(70 - i)).collect();
        let first = E::T::from_i32(-3);
        let mut out = vec![E::T::ZERO; E::LANES];
        E::store(out.as_mut_ptr(), E::shift_in(E::load(src.as_ptr()), first));
        let mut want = vec![first];
        want.extend_from_slice(&src[..E::LANES - 1]);
        assert_eq!(
            out, want,
            "every lane must receive the one below it, across every 128-bit boundary"
        );

        // Each lane alone sets exactly its `Elem::BYTES` bits, and all of
        // them set `LANES * BYTES` — every bit of the u64 at 512 bits.
        let zero = E::splat(E::T::ZERO);
        for l in 0..E::LANES {
            let mut a = vec![E::T::ZERO; E::LANES];
            a[l] = val(1 + l);
            let m = E::gt_bytes(E::load(a.as_ptr()), zero);
            assert_eq!(m, crate::engine::lane_bits::<E::T>(l), "lane {l}");
        }
        let all = E::gt_bytes(E::load(src.as_ptr()), zero);
        assert_eq!(all.count_ones() as usize, E::LANES * E::T::BYTES);

        // The mask vocabulary, lane by lane: a mix of a < b, a == b, a > b.
        let a: Vec<E::T> = (0..E::LANES)
            .map(|i| E::T::from_i32(i as i32 % 3 - 1))
            .collect();
        let b = vec![E::T::ZERO; E::LANES];
        let (va, vb) = (E::load(a.as_ptr()), E::load(b.as_ptr()));
        let lanes = |v: E::V| {
            let mut out = vec![E::T::ZERO; E::LANES];
            E::store(out.as_mut_ptr(), v);
            out
        };
        let per_lane = |f: &dyn Fn(E::T, E::T) -> E::T| -> Vec<E::T> {
            a.iter().zip(&b).map(|(&x, &y)| f(x, y)).collect()
        };
        let mask = |c: bool| if c { !E::T::ZERO } else { E::T::ZERO };
        let gt = E::gt(va, vb);
        assert_eq!(lanes(gt), per_lane(&|x, y| mask(x > y)));
        assert_eq!(lanes(E::eq(va, vb)), per_lane(&|x, y| mask(x == y)));
        assert_eq!(lanes(E::min(va, vb)), per_lane(&|x, y| x.min(y)));
        assert_eq!(lanes(E::select(gt, va, vb)), per_lane(&|x, y| x.max(y)));
        assert_eq!(
            lanes(E::and(gt, va)),
            per_lane(&|x, y| if x > y { x } else { y })
        );
        assert_eq!(
            lanes(E::andnot(gt, va)),
            per_lane(&|x, y| if x > y { y } else { x })
        );
    }

    #[test]
    fn sse2_matches_portable_semantics_at_every_width() {
        if !is_x86_feature_detected!("sse2") {
            return;
        }
        unsafe {
            agrees_with_portable::<Sse2<i8>>();
            agrees_with_portable::<Sse2<i16>>();
            agrees_with_portable::<Sse2<i32>>();
            // SSE2 has no pmaxsd: the compare-and-blend must pick per lane.
            let max = Sse2::<i32>::max(
                _mm_setr_epi32(5, -9, 7, i32::MIN),
                _mm_setr_epi32(-5, 9, 7, 0),
            );
            let mut out = [0i32; 4];
            Sse2::<i32>::store(out.as_mut_ptr(), max);
            assert_eq!(out, [5, 9, 7, 0]);
            // Nor pmaxsb/pminsb: the same blend, signed, and saturating adds.
            let (a, b) = (_mm_set1_epi8(-128), _mm_set1_epi8(127));
            let mut out = [0i8; 16];
            Sse2::<i8>::store(out.as_mut_ptr(), Sse2::<i8>::max(a, b));
            assert_eq!(out, [127; 16]);
            Sse2::<i8>::store(out.as_mut_ptr(), Sse2::<i8>::min(a, b));
            assert_eq!(out, [-128; 16]);
            Sse2::<i8>::store(out.as_mut_ptr(), Sse2::<i8>::adds(b, b));
            assert_eq!(out, [127; 16]);
        }
    }

    #[test]
    fn avx512_matches_portable_semantics_at_every_width() {
        // The engine needs every feature its shell enables (AVX-512 BW
        // among them); elsewhere there is nothing to run it on.
        if !crate::Isa::Avx512.available() {
            return;
        }
        unsafe {
            agrees_with_portable::<Avx512<i8>>();
            agrees_with_portable::<Avx512<i16>>();
            agrees_with_portable::<Avx512<i32>>();
            // Saturation at both ends, and the signed byte compares.
            let (lo, hi) = (Avx512::<i8>::splat(-128), Avx512::<i8>::splat(127));
            let mut out = [0i8; 64];
            Avx512::<i8>::store(out.as_mut_ptr(), Avx512::<i8>::adds(hi, hi));
            assert_eq!(out, [127; 64]);
            Avx512::<i8>::store(out.as_mut_ptr(), Avx512::<i8>::subs(lo, hi));
            assert_eq!(out, [-128; 64]);
            Avx512::<i8>::store(out.as_mut_ptr(), Avx512::<i8>::max(lo, hi));
            assert_eq!(out, [127; 64]);
        }
    }

    #[test]
    fn avx2_shift_in_crosses_the_128_bit_boundary_at_every_width() {
        if !is_x86_feature_detected!("avx2") {
            return;
        }
        unsafe {
            agrees_with_portable::<Avx2<i8>>();
            agrees_with_portable::<Avx2<i16>>();
            agrees_with_portable::<Avx2<i32>>();
        }
    }
}
