//! Portable scalar kernels — the reference implementations and the runtime
//! fallback on targets without a SIMD path.
//!
//! All reductions accumulate in `f64` over exactly-converted `f32` inputs
//! (every `f32` is representable in `f64`, so the only rounding happens in
//! the `f64` additions). The 4-way unrolling both helps the auto-vectorizer
//! and fixes an accumulation *shape* (four partial sums + tail) that the
//! explicit SIMD kernels reproduce closely; see [`crate::dispatch`] for the
//! cross-backend tolerance contract.

/// Inner product `⟨a, b⟩` with `f64` accumulation.
pub fn dot(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot: dimension mismatch");
    let mut acc = [0.0f64; 4];
    let chunks = a.len() / 4;
    let (a4, a_rest) = a.split_at(chunks * 4);
    let (b4, b_rest) = b.split_at(chunks * 4);
    for (ca, cb) in a4.chunks_exact(4).zip(b4.chunks_exact(4)) {
        acc[0] += ca[0] as f64 * cb[0] as f64;
        acc[1] += ca[1] as f64 * cb[1] as f64;
        acc[2] += ca[2] as f64 * cb[2] as f64;
        acc[3] += ca[3] as f64 * cb[3] as f64;
    }
    let mut tail = 0.0;
    for (&x, &y) in a_rest.iter().zip(b_rest) {
        tail += x as f64 * y as f64;
    }
    acc[0] + acc[1] + acc[2] + acc[3] + tail
}

/// Squared Euclidean norm `‖a‖²`.
pub fn sq_norm2(a: &[f32]) -> f64 {
    dot(a, a)
}

/// 1-norm `‖a‖₁ = Σ|aᵢ|`.
pub fn norm1(a: &[f32]) -> f64 {
    let mut acc = [0.0f64; 4];
    let chunks = a.len() / 4;
    let (a4, rest) = a.split_at(chunks * 4);
    for c in a4.chunks_exact(4) {
        acc[0] += c[0].abs() as f64;
        acc[1] += c[1].abs() as f64;
        acc[2] += c[2].abs() as f64;
        acc[3] += c[3].abs() as f64;
    }
    acc[0] + acc[1] + acc[2] + acc[3] + rest.iter().map(|x| x.abs() as f64).sum::<f64>()
}

/// Squared Euclidean distance `dis²(a, b)`.
pub fn sq_dist(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "sq_dist: dimension mismatch");
    let mut acc = [0.0f64; 4];
    let chunks = a.len() / 4;
    let (a4, a_rest) = a.split_at(chunks * 4);
    let (b4, b_rest) = b.split_at(chunks * 4);
    for (ca, cb) in a4.chunks_exact(4).zip(b4.chunks_exact(4)) {
        let d0 = ca[0] as f64 - cb[0] as f64;
        let d1 = ca[1] as f64 - cb[1] as f64;
        let d2 = ca[2] as f64 - cb[2] as f64;
        let d3 = ca[3] as f64 - cb[3] as f64;
        acc[0] += d0 * d0;
        acc[1] += d1 * d1;
        acc[2] += d2 * d2;
        acc[3] += d3 * d3;
    }
    let mut tail = 0.0;
    for (&x, &y) in a_rest.iter().zip(b_rest) {
        let d = x as f64 - y as f64;
        tail += d * d;
    }
    acc[0] + acc[1] + acc[2] + acc[3] + tail
}

/// Four simultaneous inner products `⟨aᵢ, b⟩` — the blocked primitive
/// behind multi-row matvec, `gemm_nt`, and batched candidate verification.
/// All five slices must have equal length.
///
/// The portable version is simply four [`dot`]s: interleaving the four
/// accumulations in one loop defeats the compiler's vectorizer and measures
/// ~2× slower than running the well-shaped single-row kernel four times.
pub fn dot4(a0: &[f32], a1: &[f32], a2: &[f32], a3: &[f32], b: &[f32]) -> [f64; 4] {
    [dot(a0, b), dot(a1, b), dot(a2, b), dot(a3, b)]
}

/// Four simultaneous squared distances `dis²(aᵢ, b)` — the blocked primitive
/// behind the projected-arena annulus scan, where four contiguous rows are
/// filtered against one projected query per call. All five slices must have
/// equal length.
///
/// Like [`dot4`], the portable version runs the well-shaped single-row
/// kernel four times rather than interleaving the accumulations.
pub fn sq_dist4(a0: &[f32], a1: &[f32], a2: &[f32], a3: &[f32], b: &[f32]) -> [f64; 4] {
    [
        sq_dist(a0, b),
        sq_dist(a1, b),
        sq_dist(a2, b),
        sq_dist(a3, b),
    ]
}

// --- 8-bit quantized (SQ8) kernels ------------------------------------------
//
// The verification tier stores original vectors as unsigned 8-bit codes
// (`code = round((x − min) / scale)`) and the query as signed 8-bit codes,
// so its reductions are *exact integer arithmetic*: every backend returns
// bit-identical sums, and the parity contract for these kernels is
// equality, not a tolerance. Accumulation is `i32`, which is exact for
// lengths up to 2¹⁵ (the worst-case per-term magnitude is 255·128 =
// 32 640).

/// Inner product of a u8 code vector with an i8 code vector,
/// `Σ aᵢ·bᵢ` with exact `i32` accumulation.
pub fn dot_i8(a: &[u8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len(), "dot_i8: dimension mismatch");
    a.iter().zip(b).map(|(&x, &y)| x as i32 * y as i32).sum()
}

/// Four simultaneous quantized inner products `Σ aᵢⱼ·bⱼ` against a shared
/// signed query code vector. All five slices must have equal length.
pub fn dot4_i8(a0: &[u8], a1: &[u8], a2: &[u8], a3: &[u8], b: &[i8]) -> [i32; 4] {
    [dot_i8(a0, b), dot_i8(a1, b), dot_i8(a2, b), dot_i8(a3, b)]
}
