//! AVX-512F kernels for x86-64.
//!
//! Same structure and numerical contract as [`crate::x86`] (exact `f32 →
//! f64` widening, `f64` FMA accumulation), but with 8-wide `f64` vectors:
//! one `vcvtps2pd zmm, ymm` widens 8 floats at a time, halving the
//! conversion µop count that bounds the AVX2 path. Horizontal reduction
//! uses `_mm512_reduce_add_pd` (a shuffle tree, order fixed per width), so
//! results can differ from the other backends by O(ε) — covered by the
//! tolerance contract in [`crate::dispatch`].
//!
//! Safety: reachable only through the dispatch table, which installs these
//! kernels strictly after `is_x86_feature_detected!("avx512f")` and
//! `("fma")` both succeed.

#![cfg(target_arch = "x86_64")]

use std::arch::x86_64::*;

/// Widens 8 packed `f32`s to one 8-wide `f64` vector.
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn widen8(p: *const f32) -> __m512d {
    _mm512_cvtps_pd(_mm256_loadu_ps(p))
}

#[target_feature(enable = "avx512f")]
unsafe fn dot_body(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot: dimension mismatch");
    // Soundness: these bodies do raw pointer reads, so never trust one
    // slice's length for the other — clamp to the shorter operand (defined
    // truncation, like the scalar fallback) instead of reading out of
    // bounds if a caller slips past the debug assert in release builds.
    let n = a.len().min(b.len());
    let (ap, bp) = (a.as_ptr(), b.as_ptr());
    let mut acc = [_mm512_setzero_pd(); 4];
    let blocks = n / 32;
    for i in 0..blocks {
        let base = i * 32;
        for (lane, slot) in acc.iter_mut().enumerate() {
            let off = base + lane * 8;
            *slot = _mm512_fmadd_pd(widen8(ap.add(off)), widen8(bp.add(off)), *slot);
        }
    }
    let mut i = blocks * 32;
    while i + 8 <= n {
        acc[0] = _mm512_fmadd_pd(widen8(ap.add(i)), widen8(bp.add(i)), acc[0]);
        i += 8;
    }
    let mut sum = _mm512_reduce_add_pd(_mm512_add_pd(
        _mm512_add_pd(acc[0], acc[1]),
        _mm512_add_pd(acc[2], acc[3]),
    ));
    for j in i..n {
        sum += *ap.add(j) as f64 * *bp.add(j) as f64;
    }
    sum
}

#[target_feature(enable = "avx512f")]
unsafe fn sq_norm2_body(a: &[f32]) -> f64 {
    let n = a.len();
    let ap = a.as_ptr();
    let mut acc = [_mm512_setzero_pd(); 4];
    let blocks = n / 32;
    for i in 0..blocks {
        let base = i * 32;
        for (lane, slot) in acc.iter_mut().enumerate() {
            let v = widen8(ap.add(base + lane * 8));
            *slot = _mm512_fmadd_pd(v, v, *slot);
        }
    }
    let mut i = blocks * 32;
    while i + 8 <= n {
        let v = widen8(ap.add(i));
        acc[0] = _mm512_fmadd_pd(v, v, acc[0]);
        i += 8;
    }
    let mut sum = _mm512_reduce_add_pd(_mm512_add_pd(
        _mm512_add_pd(acc[0], acc[1]),
        _mm512_add_pd(acc[2], acc[3]),
    ));
    for j in i..n {
        let x = *ap.add(j) as f64;
        sum += x * x;
    }
    sum
}

#[target_feature(enable = "avx512f")]
unsafe fn sq_dist_body(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "sq_dist: dimension mismatch");
    // Soundness: these bodies do raw pointer reads, so never trust one
    // slice's length for the other — clamp to the shorter operand (defined
    // truncation, like the scalar fallback) instead of reading out of
    // bounds if a caller slips past the debug assert in release builds.
    let n = a.len().min(b.len());
    let (ap, bp) = (a.as_ptr(), b.as_ptr());
    let mut acc = [_mm512_setzero_pd(); 4];
    let blocks = n / 32;
    for i in 0..blocks {
        let base = i * 32;
        for (lane, slot) in acc.iter_mut().enumerate() {
            let off = base + lane * 8;
            let d = _mm512_sub_pd(widen8(ap.add(off)), widen8(bp.add(off)));
            *slot = _mm512_fmadd_pd(d, d, *slot);
        }
    }
    let mut i = blocks * 32;
    while i + 8 <= n {
        let d = _mm512_sub_pd(widen8(ap.add(i)), widen8(bp.add(i)));
        acc[0] = _mm512_fmadd_pd(d, d, acc[0]);
        i += 8;
    }
    let mut sum = _mm512_reduce_add_pd(_mm512_add_pd(
        _mm512_add_pd(acc[0], acc[1]),
        _mm512_add_pd(acc[2], acc[3]),
    ));
    for j in i..n {
        let d = *ap.add(j) as f64 - *bp.add(j) as f64;
        sum += d * d;
    }
    sum
}

#[target_feature(enable = "avx512f")]
unsafe fn norm1_body(a: &[f32]) -> f64 {
    let n = a.len();
    let ap = a.as_ptr();
    let mut acc = [_mm512_setzero_pd(); 4];
    let blocks = n / 32;
    for i in 0..blocks {
        let base = i * 32;
        for (lane, slot) in acc.iter_mut().enumerate() {
            *slot = _mm512_add_pd(*slot, _mm512_abs_pd(widen8(ap.add(base + lane * 8))));
        }
    }
    let mut i = blocks * 32;
    while i + 8 <= n {
        acc[0] = _mm512_add_pd(acc[0], _mm512_abs_pd(widen8(ap.add(i))));
        i += 8;
    }
    let mut sum = _mm512_reduce_add_pd(_mm512_add_pd(
        _mm512_add_pd(acc[0], acc[1]),
        _mm512_add_pd(acc[2], acc[3]),
    ));
    for j in i..n {
        sum += (*ap.add(j)).abs() as f64;
    }
    sum
}

#[target_feature(enable = "avx512f")]
unsafe fn dot4_body(a0: &[f32], a1: &[f32], a2: &[f32], a3: &[f32], b: &[f32]) -> [f64; 4] {
    debug_assert!(
        a0.len() == b.len() && a1.len() == b.len() && a2.len() == b.len() && a3.len() == b.len(),
        "dot4: dimension mismatch"
    );
    // Soundness: clamp to the shortest operand (see dot_body).
    let n = b
        .len()
        .min(a0.len())
        .min(a1.len())
        .min(a2.len())
        .min(a3.len());
    let bp = b.as_ptr();
    let rows = [a0.as_ptr(), a1.as_ptr(), a2.as_ptr(), a3.as_ptr()];
    // One widened load of `b` feeds four FMAs.
    let mut acc = [_mm512_setzero_pd(); 4];
    let chunks = n / 8;
    for i in 0..chunks {
        let vb = widen8(bp.add(i * 8));
        for (r, &rp) in rows.iter().enumerate() {
            acc[r] = _mm512_fmadd_pd(widen8(rp.add(i * 8)), vb, acc[r]);
        }
    }
    let mut out = [
        _mm512_reduce_add_pd(acc[0]),
        _mm512_reduce_add_pd(acc[1]),
        _mm512_reduce_add_pd(acc[2]),
        _mm512_reduce_add_pd(acc[3]),
    ];
    for i in chunks * 8..n {
        let x = *bp.add(i) as f64;
        for (r, &rp) in rows.iter().enumerate() {
            out[r] += *rp.add(i) as f64 * x;
        }
    }
    out
}

#[target_feature(enable = "avx512f")]
unsafe fn sq_dist4_body(a0: &[f32], a1: &[f32], a2: &[f32], a3: &[f32], b: &[f32]) -> [f64; 4] {
    debug_assert!(
        a0.len() == b.len() && a1.len() == b.len() && a2.len() == b.len() && a3.len() == b.len(),
        "sq_dist4: dimension mismatch"
    );
    // Soundness: clamp to the shortest operand (see dot_body).
    let n = b
        .len()
        .min(a0.len())
        .min(a1.len())
        .min(a2.len())
        .min(a3.len());
    let bp = b.as_ptr();
    let rows = [a0.as_ptr(), a1.as_ptr(), a2.as_ptr(), a3.as_ptr()];
    // One widened load of `b` feeds four sub+FMA chains.
    let mut acc = [_mm512_setzero_pd(); 4];
    let chunks = n / 8;
    for i in 0..chunks {
        let vb = widen8(bp.add(i * 8));
        for (r, &rp) in rows.iter().enumerate() {
            let d = _mm512_sub_pd(widen8(rp.add(i * 8)), vb);
            acc[r] = _mm512_fmadd_pd(d, d, acc[r]);
        }
    }
    let mut out = [
        _mm512_reduce_add_pd(acc[0]),
        _mm512_reduce_add_pd(acc[1]),
        _mm512_reduce_add_pd(acc[2]),
        _mm512_reduce_add_pd(acc[3]),
    ];
    for i in chunks * 8..n {
        let x = *bp.add(i) as f64;
        for (r, &rp) in rows.iter().enumerate() {
            let d = *rp.add(i) as f64 - x;
            out[r] += d * d;
        }
    }
    out
}

// --- 8-bit quantized (SQ8) kernels ------------------------------------------
//
// 512-bit versions of the integer tier in [`crate::x86`]: 32 u8 codes widen
// to i16 per `vpmovzxbw`, pair with sign-extended i8 query codes, reduce
// through the non-saturating `vpmaddwd`
// (see the AVX2 file for why `maddubs` is rejected), and accumulate in i32
// lanes. These need AVX-512BW (512-bit integer widen/madd), which the
// dispatcher's `avx512f` gate does not imply — `dispatch` detects BW once
// at table-selection time and installs these only when present (the AVX2
// bodies otherwise), so hypothetical F-without-BW silicon stays sound with
// zero per-call cost.

/// Widens 32 packed u8 codes to 32 i16 lanes.
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn widen32_u8(p: *const u8) -> __m512i {
    _mm512_cvtepu8_epi16(_mm256_loadu_si256(p as *const __m256i))
}

#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn dot4_i8_body(a0: &[u8], a1: &[u8], a2: &[u8], a3: &[u8], b: &[i8]) -> [i32; 4] {
    debug_assert!(
        a0.len() == b.len() && a1.len() == b.len() && a2.len() == b.len() && a3.len() == b.len(),
        "dot4_i8: dimension mismatch"
    );
    // Soundness: clamp to the shortest operand (see dot_body).
    let n = b
        .len()
        .min(a0.len())
        .min(a1.len())
        .min(a2.len())
        .min(a3.len());
    let bp = b.as_ptr();
    let rows = [a0.as_ptr(), a1.as_ptr(), a2.as_ptr(), a3.as_ptr()];
    let mut acc = [_mm512_setzero_si512(); 4];
    let chunks = n / 32;
    for i in 0..chunks {
        let vb = _mm512_cvtepi8_epi16(_mm256_loadu_si256(bp.add(i * 32) as *const __m256i));
        for (r, &rp) in rows.iter().enumerate() {
            acc[r] = _mm512_add_epi32(acc[r], _mm512_madd_epi16(widen32_u8(rp.add(i * 32)), vb));
        }
    }
    let mut out = [
        _mm512_reduce_add_epi32(acc[0]),
        _mm512_reduce_add_epi32(acc[1]),
        _mm512_reduce_add_epi32(acc[2]),
        _mm512_reduce_add_epi32(acc[3]),
    ];
    for i in chunks * 32..n {
        let x = *bp.add(i) as i32;
        for (r, &rp) in rows.iter().enumerate() {
            out[r] += *rp.add(i) as i32 * x;
        }
    }
    out
}

#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn dot_i8_body(a: &[u8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len(), "dot_i8: dimension mismatch");
    // Soundness: clamp to the shortest operand (see dot_body).
    let n = b.len().min(a.len());
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    let mut acc = _mm512_setzero_si512();
    let chunks = n / 32;
    for i in 0..chunks {
        let vb = _mm512_cvtepi8_epi16(_mm256_loadu_si256(bp.add(i * 32) as *const __m256i));
        acc = _mm512_add_epi32(acc, _mm512_madd_epi16(widen32_u8(ap.add(i * 32)), vb));
    }
    let mut out = _mm512_reduce_add_epi32(acc);
    for i in chunks * 32..n {
        out += *ap.add(i) as i32 * *bp.add(i) as i32;
    }
    out
}

// Safe wrappers installed into the dispatch table. Soundness: the table
// selects these only after runtime detection of avx512f (see
// `dispatch::select`); the i8 wrappers additionally require avx512bw,
// which `dispatch` verifies before installing them (hosts without BW get
// the AVX2 bodies instead — the check happens once at table selection,
// not per call).

pub(crate) fn dot(a: &[f32], b: &[f32]) -> f64 {
    unsafe { dot_body(a, b) }
}

pub(crate) fn sq_norm2(a: &[f32]) -> f64 {
    unsafe { sq_norm2_body(a) }
}

pub(crate) fn sq_dist(a: &[f32], b: &[f32]) -> f64 {
    unsafe { sq_dist_body(a, b) }
}

pub(crate) fn norm1(a: &[f32]) -> f64 {
    unsafe { norm1_body(a) }
}

pub(crate) fn dot4(a0: &[f32], a1: &[f32], a2: &[f32], a3: &[f32], b: &[f32]) -> [f64; 4] {
    unsafe { dot4_body(a0, a1, a2, a3, b) }
}

pub(crate) fn sq_dist4(a0: &[f32], a1: &[f32], a2: &[f32], a3: &[f32], b: &[f32]) -> [f64; 4] {
    unsafe { sq_dist4_body(a0, a1, a2, a3, b) }
}

pub(crate) fn dot4_i8(a0: &[u8], a1: &[u8], a2: &[u8], a3: &[u8], b: &[i8]) -> [i32; 4] {
    unsafe { dot4_i8_body(a0, a1, a2, a3, b) }
}

pub(crate) fn dot_i8(a: &[u8], b: &[i8]) -> i32 {
    unsafe { dot_i8_body(a, b) }
}
