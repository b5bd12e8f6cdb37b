//! Explicit AVX2+FMA kernels for x86-64.
//!
//! Every kernel keeps the crate's `f64`-accumulation contract: `f32` lanes
//! are widened to `f64` (`vcvtps2pd`, exact) before any arithmetic, and the
//! reductions run on 4-wide `f64` vectors with fused multiply-add. FMA skips
//! the intermediate rounding of the scalar `mul + add`, and the horizontal
//! reduction adds partial sums in a different order than the scalar kernels,
//! so results may differ from [`crate::scalar`] by O(ε) — bounded well
//! inside the 1e-4 relative tolerance documented in [`crate::dispatch`].
//!
//! Safety: each `#[target_feature]` function is only reachable through the
//! dispatch table, which installs these kernels strictly after
//! `is_x86_feature_detected!("avx2")` and `("fma")` both succeed.

#![cfg(target_arch = "x86_64")]

use std::arch::x86_64::*;

/// Horizontal sum of a 4-wide `f64` vector.
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn hsum_pd(v: __m256d) -> f64 {
    let lo = _mm256_castpd256_pd128(v);
    let hi = _mm256_extractf128_pd(v, 1);
    let sum2 = _mm_add_pd(lo, hi);
    let swapped = _mm_unpackhi_pd(sum2, sum2);
    _mm_cvtsd_f64(_mm_add_sd(sum2, swapped))
}

/// Widens 8 packed `f32`s to two 4-wide `f64`s via two 128-bit loads
/// (cheaper than one 256-bit load plus a cross-lane extract: the second
/// load rides the load ports instead of the shuffle port).
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn widen8(p: *const f32) -> (__m256d, __m256d) {
    (
        _mm256_cvtps_pd(_mm_loadu_ps(p)),
        _mm256_cvtps_pd(_mm_loadu_ps(p.add(4))),
    )
}

// The reduction kernels run several independent 4-wide f64 accumulators
// (4 for sq_dist/sq_norm2, 8 for dot — 16/32 floats per iteration): FMA
// latency is ~4 cycles, so too few chains leaves the FMA ports idle and the
// kernel latency-bound instead of throughput-bound.

#[target_feature(enable = "avx2,fma")]
unsafe fn dot_body(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot: dimension mismatch");
    // Soundness: these bodies do raw pointer reads, so never trust one
    // slice's length for the other — clamp to the shorter operand (defined
    // truncation, like the scalar fallback) instead of reading out of
    // bounds if a caller slips past the debug assert in release builds.
    let n = a.len().min(b.len());
    let (ap, bp) = (a.as_ptr(), b.as_ptr());
    let mut acc = [_mm256_setzero_pd(); 8];
    let blocks = n / 32;
    for i in 0..blocks {
        let base = i * 32;
        for (lane, slot) in acc.iter_mut().enumerate() {
            let off = base + lane * 4;
            *slot = _mm256_fmadd_pd(
                _mm256_cvtps_pd(_mm_loadu_ps(ap.add(off))),
                _mm256_cvtps_pd(_mm_loadu_ps(bp.add(off))),
                *slot,
            );
        }
    }
    let mut i = blocks * 32;
    while i + 8 <= n {
        let (a0, a1) = widen8(ap.add(i));
        let (b0, b1) = widen8(bp.add(i));
        acc[0] = _mm256_fmadd_pd(a0, b0, acc[0]);
        acc[1] = _mm256_fmadd_pd(a1, b1, acc[1]);
        i += 8;
    }
    let half = _mm256_add_pd(_mm256_add_pd(acc[0], acc[1]), _mm256_add_pd(acc[2], acc[3]));
    let half2 = _mm256_add_pd(_mm256_add_pd(acc[4], acc[5]), _mm256_add_pd(acc[6], acc[7]));
    let mut sum = hsum_pd(_mm256_add_pd(half, half2));
    for j in i..n {
        sum += *ap.add(j) as f64 * *bp.add(j) as f64;
    }
    sum
}

#[target_feature(enable = "avx2,fma")]
unsafe fn sq_norm2_body(a: &[f32]) -> f64 {
    let n = a.len();
    let ap = a.as_ptr();
    let mut acc = [_mm256_setzero_pd(); 4];
    let blocks = n / 16;
    for i in 0..blocks {
        let base = i * 16;
        let (a0, a1) = widen8(ap.add(base));
        let (a2, a3) = widen8(ap.add(base + 8));
        acc[0] = _mm256_fmadd_pd(a0, a0, acc[0]);
        acc[1] = _mm256_fmadd_pd(a1, a1, acc[1]);
        acc[2] = _mm256_fmadd_pd(a2, a2, acc[2]);
        acc[3] = _mm256_fmadd_pd(a3, a3, acc[3]);
    }
    let mut i = blocks * 16;
    while i + 8 <= n {
        let (a0, a1) = widen8(ap.add(i));
        acc[0] = _mm256_fmadd_pd(a0, a0, acc[0]);
        acc[1] = _mm256_fmadd_pd(a1, a1, acc[1]);
        i += 8;
    }
    let mut sum = hsum_pd(_mm256_add_pd(
        _mm256_add_pd(acc[0], acc[1]),
        _mm256_add_pd(acc[2], acc[3]),
    ));
    for j in i..n {
        let x = *ap.add(j) as f64;
        sum += x * x;
    }
    sum
}

#[target_feature(enable = "avx2,fma")]
unsafe fn sq_dist_body(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "sq_dist: dimension mismatch");
    // Soundness: these bodies do raw pointer reads, so never trust one
    // slice's length for the other — clamp to the shorter operand (defined
    // truncation, like the scalar fallback) instead of reading out of
    // bounds if a caller slips past the debug assert in release builds.
    let n = a.len().min(b.len());
    let (ap, bp) = (a.as_ptr(), b.as_ptr());
    let mut acc = [_mm256_setzero_pd(); 4];
    let blocks = n / 16;
    for i in 0..blocks {
        let base = i * 16;
        let (a0, a1) = widen8(ap.add(base));
        let (b0, b1) = widen8(bp.add(base));
        let (a2, a3) = widen8(ap.add(base + 8));
        let (b2, b3) = widen8(bp.add(base + 8));
        let d0 = _mm256_sub_pd(a0, b0);
        let d1 = _mm256_sub_pd(a1, b1);
        let d2 = _mm256_sub_pd(a2, b2);
        let d3 = _mm256_sub_pd(a3, b3);
        acc[0] = _mm256_fmadd_pd(d0, d0, acc[0]);
        acc[1] = _mm256_fmadd_pd(d1, d1, acc[1]);
        acc[2] = _mm256_fmadd_pd(d2, d2, acc[2]);
        acc[3] = _mm256_fmadd_pd(d3, d3, acc[3]);
    }
    let mut i = blocks * 16;
    while i + 8 <= n {
        let (a0, a1) = widen8(ap.add(i));
        let (b0, b1) = widen8(bp.add(i));
        let d0 = _mm256_sub_pd(a0, b0);
        let d1 = _mm256_sub_pd(a1, b1);
        acc[0] = _mm256_fmadd_pd(d0, d0, acc[0]);
        acc[1] = _mm256_fmadd_pd(d1, d1, acc[1]);
        i += 8;
    }
    let mut sum = hsum_pd(_mm256_add_pd(
        _mm256_add_pd(acc[0], acc[1]),
        _mm256_add_pd(acc[2], acc[3]),
    ));
    for j in i..n {
        let d = *ap.add(j) as f64 - *bp.add(j) as f64;
        sum += d * d;
    }
    sum
}

#[target_feature(enable = "avx2,fma")]
unsafe fn norm1_body(a: &[f32]) -> f64 {
    let n = a.len();
    let ap = a.as_ptr();
    // |x| in the f64 domain: clear the sign bit after widening (identical to
    // the scalar `x.abs() as f64`, since widening is exact and sign-symmetric).
    let sign_mask = _mm256_set1_pd(-0.0);
    let mut acc0 = _mm256_setzero_pd();
    let mut acc1 = _mm256_setzero_pd();
    let chunks = n / 8;
    for i in 0..chunks {
        let (lo, hi) = widen8(ap.add(i * 8));
        acc0 = _mm256_add_pd(acc0, _mm256_andnot_pd(sign_mask, lo));
        acc1 = _mm256_add_pd(acc1, _mm256_andnot_pd(sign_mask, hi));
    }
    let mut sum = hsum_pd(_mm256_add_pd(acc0, acc1));
    for i in chunks * 8..n {
        sum += (*ap.add(i)).abs() as f64;
    }
    sum
}

#[target_feature(enable = "avx2,fma")]
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
    // One widened load of `b` feeds four FMAs — the register-blocking that
    // makes multi-row matvec memory-bound on the rows instead of on `b`.
    let mut acc = [_mm256_setzero_pd(); 4];
    let chunks = n / 4;
    for i in 0..chunks {
        let vb = _mm256_cvtps_pd(_mm_loadu_ps(bp.add(i * 4)));
        for (r, &rp) in rows.iter().enumerate() {
            let va = _mm256_cvtps_pd(_mm_loadu_ps(rp.add(i * 4)));
            acc[r] = _mm256_fmadd_pd(va, vb, acc[r]);
        }
    }
    let mut out = [
        hsum_pd(acc[0]),
        hsum_pd(acc[1]),
        hsum_pd(acc[2]),
        hsum_pd(acc[3]),
    ];
    for i in chunks * 4..n {
        let x = *bp.add(i) as f64;
        for (r, &rp) in rows.iter().enumerate() {
            out[r] += *rp.add(i) as f64 * x;
        }
    }
    out
}

#[target_feature(enable = "avx2,fma")]
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
    // One widened load of `b` feeds four sub+FMA chains — the same
    // register-blocking as dot4, paying the query conversion once per block.
    let mut acc = [_mm256_setzero_pd(); 4];
    let chunks = n / 4;
    for i in 0..chunks {
        let vb = _mm256_cvtps_pd(_mm_loadu_ps(bp.add(i * 4)));
        for (r, &rp) in rows.iter().enumerate() {
            let d = _mm256_sub_pd(_mm256_cvtps_pd(_mm_loadu_ps(rp.add(i * 4))), vb);
            acc[r] = _mm256_fmadd_pd(d, d, acc[r]);
        }
    }
    let mut out = [
        hsum_pd(acc[0]),
        hsum_pd(acc[1]),
        hsum_pd(acc[2]),
        hsum_pd(acc[3]),
    ];
    for i in chunks * 4..n {
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
// Integer kernels for the quantized verification tier: u8 codes are
// widened to i16 (`vpmovzxbw`), i8 query codes sign-extended, and the
// pairs reduced with `vpmaddwd` (`_mm256_madd_epi16`), which multiplies
// i16 lanes and adds adjacent pairs into i32 — *without saturation*. The
// tempting one-step `vpmaddubsw` (`maddubs`, u8×i8) is NOT used: it
// saturates its i16 pair sums (two products of up to 255·127 overflow
// i16), which would break the exact-integer parity contract these kernels
// carry. Accumulation stays in i32 lanes — exact for lengths up to 2¹⁵ at
// worst-case magnitudes.

/// Horizontal sum of the eight i32 lanes of a 256-bit vector.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn hsum_epi32(v: __m256i) -> i32 {
    let lo = _mm256_castsi256_si128(v);
    let hi = _mm256_extracti128_si256(v, 1);
    let sum4 = _mm_add_epi32(lo, hi);
    let sum2 = _mm_add_epi32(sum4, _mm_shuffle_epi32(sum4, 0b00_00_11_10));
    let sum1 = _mm_add_epi32(sum2, _mm_shuffle_epi32(sum2, 0b00_00_00_01));
    _mm_cvtsi128_si32(sum1)
}

/// Widens 16 packed u8 codes to 16 i16 lanes.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn widen16_u8(p: *const u8) -> __m256i {
    _mm256_cvtepu8_epi16(_mm_loadu_si128(p as *const __m128i))
}

#[target_feature(enable = "avx2")]
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
    let mut acc = [_mm256_setzero_si256(); 4];
    let chunks = n / 16;
    for i in 0..chunks {
        // Sign-extend the query codes; products (u8 as i16) × (i8 as i16)
        // fit i16 × i16 → i32 exactly under vpmaddwd.
        let vb = _mm256_cvtepi8_epi16(_mm_loadu_si128(bp.add(i * 16) as *const __m128i));
        for (r, &rp) in rows.iter().enumerate() {
            let va = widen16_u8(rp.add(i * 16));
            acc[r] = _mm256_add_epi32(acc[r], _mm256_madd_epi16(va, vb));
        }
    }
    let mut out = [
        hsum_epi32(acc[0]),
        hsum_epi32(acc[1]),
        hsum_epi32(acc[2]),
        hsum_epi32(acc[3]),
    ];
    for i in chunks * 16..n {
        let x = *bp.add(i) as i32;
        for (r, &rp) in rows.iter().enumerate() {
            out[r] += *rp.add(i) as i32 * x;
        }
    }
    out
}

#[target_feature(enable = "avx2")]
unsafe fn dot_i8_body(a: &[u8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len(), "dot_i8: dimension mismatch");
    // Soundness: clamp to the shortest operand (see dot_body).
    let n = b.len().min(a.len());
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    let mut acc = _mm256_setzero_si256();
    let chunks = n / 16;
    for i in 0..chunks {
        // Sign-extend the query codes; products (u8 as i16) × (i8 as i16)
        // fit i16 × i16 → i32 exactly under vpmaddwd.
        let vb = _mm256_cvtepi8_epi16(_mm_loadu_si128(bp.add(i * 16) as *const __m128i));
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(widen16_u8(ap.add(i * 16)), vb));
    }
    let mut out = hsum_epi32(acc);
    for i in chunks * 16..n {
        out += *ap.add(i) as i32 * *bp.add(i) as i32;
    }
    out
}

// Safe wrappers installed into the dispatch table. Soundness: the table
// selects these only after runtime detection of avx2+fma (see
// `dispatch::select`), so the target-feature preconditions always hold.

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
