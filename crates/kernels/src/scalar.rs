//! Portable striped backend: the [`Engine`] vocabulary on plain arrays.
//!
//! This serves two purposes: it is the fallback on targets without
//! `std::arch::x86_64`, and it exercises the exact same striped control flow
//! as the SIMD engines in tests, so layout bugs cannot hide behind an ISA
//! check. A 128-bit vector's worth of lanes (sixteen `i8`, eight `i16`,
//! four `i32`) keeps the geometry (padding, rotation, lazy-F wrap, lane
//! masks) identical to SSE2's at every width.

use crate::engine::{lane_bits, Elem, Engine};
use std::marker::PhantomData;

/// Portable array-based engine: `N` lanes of `T`.
#[derive(Debug, Clone, Copy)]
pub struct Portable<T, const N: usize>(PhantomData<T>);

impl<T: Elem, const N: usize> Engine for Portable<T, N> {
    type T = T;
    const LANES: usize = N;
    type V = [T; N];

    // SAFETY: trivially safe — plain array arithmetic; unsafe only to match the Engine signature.
    #[inline(always)]
    unsafe fn splat(x: T) -> Self::V {
        [x; N]
    }

    // SAFETY: the Engine contract guarantees the pointer is valid for LANES elements; unaligned access is explicit.
    #[inline(always)]
    unsafe fn load(src: *const T) -> Self::V {
        std::ptr::read_unaligned(src.cast::<Self::V>())
    }

    // SAFETY: the Engine contract guarantees the pointer is valid for LANES elements; unaligned access is explicit.
    #[inline(always)]
    unsafe fn store(dst: *mut T, v: Self::V) {
        std::ptr::write_unaligned(dst.cast::<Self::V>(), v);
    }

    // SAFETY: trivially safe — plain array arithmetic; unsafe only to match the Engine signature.
    #[inline(always)]
    unsafe fn adds(a: Self::V, b: Self::V) -> Self::V {
        std::array::from_fn(|l| a[l].add(b[l]))
    }

    // SAFETY: trivially safe — plain array arithmetic; unsafe only to match the Engine signature.
    #[inline(always)]
    unsafe fn subs(a: Self::V, b: Self::V) -> Self::V {
        std::array::from_fn(|l| a[l].sub(b[l]))
    }

    // SAFETY: trivially safe — plain array arithmetic; unsafe only to match the Engine signature.
    #[inline(always)]
    unsafe fn max(a: Self::V, b: Self::V) -> Self::V {
        std::array::from_fn(|l| a[l].max(b[l]))
    }

    // SAFETY: trivially safe — plain array arithmetic; unsafe only to match the Engine signature.
    #[inline(always)]
    unsafe fn min(a: Self::V, b: Self::V) -> Self::V {
        std::array::from_fn(|l| a[l].min(b[l]))
    }

    // SAFETY: trivially safe — plain array arithmetic; unsafe only to match the Engine signature.
    #[inline(always)]
    unsafe fn gt(a: Self::V, b: Self::V) -> Self::V {
        std::array::from_fn(|l| if a[l] > b[l] { !T::ZERO } else { T::ZERO })
    }

    // SAFETY: trivially safe — plain array arithmetic; unsafe only to match the Engine signature.
    #[inline(always)]
    unsafe fn eq(a: Self::V, b: Self::V) -> Self::V {
        std::array::from_fn(|l| if a[l] == b[l] { !T::ZERO } else { T::ZERO })
    }

    // SAFETY: trivially safe — plain array arithmetic; unsafe only to match the Engine signature.
    #[inline(always)]
    unsafe fn select(m: Self::V, a: Self::V, b: Self::V) -> Self::V {
        std::array::from_fn(|l| if m[l] != T::ZERO { a[l] } else { b[l] })
    }

    // SAFETY: trivially safe — plain array arithmetic; unsafe only to match the Engine signature.
    #[inline(always)]
    unsafe fn and(a: Self::V, b: Self::V) -> Self::V {
        std::array::from_fn(|l| a[l] & b[l])
    }

    // SAFETY: trivially safe — plain array arithmetic; unsafe only to match the Engine signature.
    #[inline(always)]
    unsafe fn andnot(a: Self::V, b: Self::V) -> Self::V {
        std::array::from_fn(|l| !a[l] & b[l])
    }

    // SAFETY: trivially safe — plain array arithmetic; unsafe only to match the Engine signature.
    #[inline(always)]
    unsafe fn gt_bytes(a: Self::V, b: Self::V) -> u64 {
        let mut mask = 0u64;
        for l in 0..N {
            if a[l] > b[l] {
                mask |= lane_bits::<T>(l);
            }
        }
        mask
    }

    // SAFETY: trivially safe — plain array arithmetic; unsafe only to match the Engine signature.
    #[inline(always)]
    unsafe fn shift_in(v: Self::V, first: T) -> Self::V {
        std::array::from_fn(|l| if l == 0 { first } else { v[l - 1] })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type P8 = <i8 as Elem>::Portable;
    type P16 = <i16 as Elem>::Portable;
    type P32 = <i32 as Elem>::Portable;

    #[test]
    fn shift_in_rotates_up_and_inserts() {
        unsafe {
            let v: [i16; 8] = [10, 11, 12, 13, 14, 15, 16, 17];
            assert_eq!(P16::shift_in(v, -7), [-7, 10, 11, 12, 13, 14, 15, 16]);
            assert_eq!(P32::shift_in([10, 11, 12, 13], -7), [-7, 10, 11, 12]);
        }
    }

    #[test]
    fn gt_bytes_sets_a_lanes_worth_of_bits_per_lane() {
        unsafe {
            let a: [i16; 8] = [1, 0, 5, 0, 0, 0, 0, 9];
            let b: [i16; 8] = [0; 8];
            let m = P16::gt_bytes(a, b);
            assert_eq!(m, 0b11 | (0b11 << 4) | (0b11 << 14));
            assert_eq!(P16::gt_bytes(b, b), 0);
            assert_eq!(P32::gt_bytes([1, 0, 5, 0], [0; 4]), 0xf | (0xf << 8));
        }
    }

    #[test]
    fn mask_ops_pick_per_lane() {
        unsafe {
            let (a, b) = ([3, -1, 7, 0], [3, 5, -2, 0]);
            let m = P32::gt(a, b);
            assert_eq!(m, [0, 0, -1, 0]);
            assert_eq!(P32::eq(a, b), [-1, 0, 0, -1]);
            assert_eq!(P32::select(m, a, b), P32::max(a, b));
            assert_eq!(P32::min(a, b), [3, -1, -2, 0]);
            assert_eq!(P32::and(m, a), [0, 0, 7, 0]);
            assert_eq!(P32::andnot(m, a), [3, -1, 0, 0]);
        }
    }

    #[test]
    fn i16_ops_saturate() {
        unsafe {
            let lo = P16::splat(i16::MIN);
            let hi = P16::splat(i16::MAX);
            assert_eq!(P16::subs(lo, P16::splat(100))[0], i16::MIN);
            assert_eq!(P16::adds(hi, P16::splat(100))[0], i16::MAX);
            assert_eq!(P8::adds(P8::splat(100), P8::splat(100)), [i8::MAX; 16]);
            assert_eq!(
                P8::subs(P8::splat(i8::NEG_INF), P8::splat(5)),
                [i8::MIN; 16]
            );
            // One mask bit per byte lane.
            let mut a = [0i8; 16];
            a[15] = 1;
            assert_eq!(P8::gt_bytes(a, [0; 16]), 1 << 15);
        }
    }

    #[test]
    fn i32_head_room_covers_the_deepest_chain() {
        // No saturating i32 instructions: the sentinel, less a whole
        // ceiling's worth of gap steps and a few penalties, must not wrap.
        let floor = i64::from(i32::NEG_INF) - i64::from(<i32 as Elem>::CEILING) - 4 * 28_000;
        assert!(floor > i64::from(i32::MIN));
        assert!(i64::from(<i32 as Elem>::CEILING) + 28_000 < i64::from(i32::MAX));
    }
}
