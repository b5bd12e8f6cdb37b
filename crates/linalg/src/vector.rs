//! Vector kernels: inner product, norms, Euclidean distances.
//!
//! All kernels take `&[f32]` slices and accumulate in `f64`. Each call
//! routes through the runtime-dispatched table in [`crate::dispatch`] —
//! AVX2+FMA on x86-64 hosts that support it, the portable
//! [`crate::scalar`] implementations elsewhere.

use crate::dispatch::kernels;

/// Inner product `⟨a, b⟩` with `f64` accumulation.
///
/// # Panics
/// Panics in debug builds if the slices differ in length.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f64 {
    (kernels().dot)(a, b)
}

/// Squared Euclidean norm `‖a‖²`.
#[inline]
pub fn sq_norm2(a: &[f32]) -> f64 {
    (kernels().sq_norm2)(a)
}

/// Euclidean norm `‖a‖`.
#[inline]
pub fn norm2(a: &[f32]) -> f64 {
    sq_norm2(a).sqrt()
}

/// 1-norm `‖a‖₁ = Σ|aᵢ|` — the quantity Quick-Probe stores per point
/// (Theorem 4 of the paper bounds `dis(o,q) ≤ ‖o‖₁ + ‖q‖₁`).
#[inline]
pub fn norm1(a: &[f32]) -> f64 {
    (kernels().norm1)(a)
}

/// Squared Euclidean distance `dis²(a, b)`.
#[inline]
pub fn sq_dist(a: &[f32], b: &[f32]) -> f64 {
    (kernels().sq_dist)(a, b)
}

/// Euclidean distance `dis(a, b)`.
#[inline]
pub fn dist(a: &[f32], b: &[f32]) -> f64 {
    sq_dist(a, b).sqrt()
}

/// Four inner products `⟨aᵢ, b⟩` sharing one pass over `b` — the blocked
/// primitive behind [`crate::Matrix::matvec_into`] and
/// [`crate::Matrix::gemm_nt`].
#[inline]
pub fn dot4(a0: &[f32], a1: &[f32], a2: &[f32], a3: &[f32], b: &[f32]) -> [f64; 4] {
    (kernels().dot4)(a0, a1, a2, a3, b)
}

/// Four squared distances `dis²(aᵢ, b)` sharing one pass over `b` — the
/// blocked primitive behind the projected-arena annulus scan (four
/// contiguous decoded rows filtered against one projected query per call).
#[inline]
pub fn sq_dist4(a0: &[f32], a1: &[f32], a2: &[f32], a3: &[f32], b: &[f32]) -> [f64; 4] {
    (kernels().sq_dist4)(a0, a1, a2, a3, b)
}

/// Four quantized inner products `Σⱼ aᵢⱼ·bⱼ` (u8 code rows × i8 query)
/// sharing one pass over `b`. Exact integer arithmetic: every backend
/// returns identical sums. Valid for lengths up to 2¹⁵ (i32 lane
/// accumulation bound).
#[inline]
pub fn dot4_i8(a0: &[u8], a1: &[u8], a2: &[u8], a3: &[u8], b: &[i8]) -> [i32; 4] {
    (kernels().dot4_i8)(a0, a1, a2, a3, b)
}

/// One quantized inner product `Σⱼ aⱼ·bⱼ` (u8 code row × i8 query) — the
/// tail shape of the quantized verification screen, pairing with
/// [`dot4_i8`] the way [`dot`] pairs with [`dot4`]. Exact integer
/// arithmetic, same length bound as [`dot4_i8`].
#[inline]
pub fn dot_i8(a: &[u8], b: &[i8]) -> i32 {
    (kernels().dot_i8)(a, b)
}

/// Element-wise difference `a − b` into a fresh vector.
pub fn sub(a: &[f32], b: &[f32]) -> Vec<f32> {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(&x, &y)| x - y).collect()
}

/// `out += alpha * x` (the BLAS `axpy`), used by k-means centroid updates.
pub fn add_scaled(out: &mut [f64], alpha: f64, x: &[f32]) {
    debug_assert_eq!(out.len(), x.len());
    for (o, &v) in out.iter_mut().zip(x) {
        *o += alpha * v as f64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
        // length 5 exercises the tail path
        assert_eq!(dot(&[1.0; 5], &[2.0; 5]), 10.0);
    }

    #[test]
    fn norms_basic() {
        assert_eq!(sq_norm2(&[3.0, 4.0]), 25.0);
        assert_eq!(norm2(&[3.0, 4.0]), 5.0);
        assert_eq!(norm1(&[1.0, -2.0, 3.0, -4.0, 5.0]), 15.0);
    }

    #[test]
    fn distances_basic() {
        assert_eq!(sq_dist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(dist(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(dist(&[1.0; 7], &[1.0; 7]), 0.0);
    }

    #[test]
    fn dot4_matches_four_dots() {
        let rows: Vec<Vec<f32>> = (0..4)
            .map(|r| (0..13).map(|i| (r * 13 + i) as f32 * 0.25 - 3.0).collect())
            .collect();
        let b: Vec<f32> = (0..13).map(|i| (i as f32).cos()).collect();
        let got = dot4(&rows[0], &rows[1], &rows[2], &rows[3], &b);
        for r in 0..4 {
            let want = dot(&rows[r], &b);
            assert!(
                (got[r] - want).abs() <= 1e-9 * (1.0 + want.abs()),
                "row {r}"
            );
        }
    }

    #[test]
    fn sq_dist4_matches_four_sq_dists() {
        let rows: Vec<Vec<f32>> = (0..4)
            .map(|r| (0..13).map(|i| (r * 13 + i) as f32 * 0.25 - 3.0).collect())
            .collect();
        let b: Vec<f32> = (0..13).map(|i| (i as f32).cos()).collect();
        let got = sq_dist4(&rows[0], &rows[1], &rows[2], &rows[3], &b);
        for r in 0..4 {
            let want = sq_dist(&rows[r], &b);
            assert!(
                (got[r] - want).abs() <= 1e-9 * (1.0 + want.abs()),
                "row {r}"
            );
        }
    }

    #[test]
    fn quantized_kernels_basic() {
        // Length 5 exercises the SIMD tail path on every backend.
        let a: Vec<u8> = vec![0, 255, 10, 20, 30];
        let q: Vec<i8> = vec![-128, 127, 1, -1, 0];
        // a·q = 0·(−128) + 255·127 + 10·1 + 20·(−1) + 30·0
        let want_dot: i32 = 127 * 255 + 10 - 20;
        assert_eq!(dot4_i8(&a, &a, &a, &a, &q), [want_dot; 4]);
        assert_eq!(dot_i8(&a, &q), want_dot);
        assert_eq!(dot4_i8(&[], &[], &[], &[], &[]), [0; 4]);
        assert_eq!(dot_i8(&[], &[]), 0);
    }

    #[test]
    fn sub_and_axpy() {
        assert_eq!(sub(&[3.0, 2.0], &[1.0, 5.0]), vec![2.0, -3.0]);
        let mut acc = vec![1.0f64, 1.0];
        add_scaled(&mut acc, 2.0, &[3.0, -1.0]);
        assert_eq!(acc, vec![7.0, -1.0]);
    }

    proptest! {
        #[test]
        fn dot_matches_naive(v in proptest::collection::vec((-100.0f32..100.0, -100.0f32..100.0), 0..64)) {
            let a: Vec<f32> = v.iter().map(|p| p.0).collect();
            let b: Vec<f32> = v.iter().map(|p| p.1).collect();
            let naive: f64 = a.iter().zip(&b).map(|(&x, &y)| x as f64 * y as f64).sum();
            prop_assert!((dot(&a, &b) - naive).abs() <= 1e-9 * (1.0 + naive.abs()));
        }

        #[test]
        fn sq_dist_identity_with_ip(v in proptest::collection::vec((-50.0f32..50.0, -50.0f32..50.0), 1..48)) {
            // dis²(a,b) = ‖a‖² + ‖b‖² − 2⟨a,b⟩ — the identity ProMIPS's
            // searching conditions rest on.
            let a: Vec<f32> = v.iter().map(|p| p.0).collect();
            let b: Vec<f32> = v.iter().map(|p| p.1).collect();
            let lhs = sq_dist(&a, &b);
            let rhs = sq_norm2(&a) + sq_norm2(&b) - 2.0 * dot(&a, &b);
            prop_assert!((lhs - rhs).abs() <= 1e-6 * (1.0 + lhs.abs()));
        }

        #[test]
        fn norm1_dominates_norm2(a in proptest::collection::vec(-100.0f32..100.0, 1..64)) {
            // ‖a‖₂ ≤ ‖a‖₁ — the inequality behind Theorem 4.
            prop_assert!(norm2(&a) <= norm1(&a) + 1e-9);
        }

        #[test]
        fn triangle_inequality(ab in proptest::collection::vec((-10.0f32..10.0, -10.0f32..10.0, -10.0f32..10.0), 1..32)) {
            let a: Vec<f32> = ab.iter().map(|p| p.0).collect();
            let b: Vec<f32> = ab.iter().map(|p| p.1).collect();
            let c: Vec<f32> = ab.iter().map(|p| p.2).collect();
            prop_assert!(dist(&a, &c) <= dist(&a, &b) + dist(&b, &c) + 1e-9);
        }
    }

    /// SIMD/scalar parity: every backend the host can execute (not just the
    /// dispatched one) must agree with the portable reference within 1e-4
    /// relative tolerance (the contract in [`crate::dispatch`]). Lengths
    /// 0..200 sweep every unroll remainder across the 4/8/16/32-wide inner
    /// loops; magnitudes up to 1e3 stress cancellation in `sq_dist`.
    mod backend_parity {
        use super::*;
        use crate::dispatch::available_backends;
        use crate::scalar;

        fn close(got: f64, reference: f64) -> bool {
            (got - reference).abs() <= 1e-4 * reference.abs().max(1.0)
        }

        proptest! {
            #[test]
            fn dot_parity(v in proptest::collection::vec((-1e3f32..1e3, -1e3f32..1e3), 0..200)) {
                let a: Vec<f32> = v.iter().map(|p| p.0).collect();
                let b: Vec<f32> = v.iter().map(|p| p.1).collect();
                let want = scalar::dot(&a, &b);
                for k in available_backends() {
                    prop_assert!(close((k.dot)(&a, &b), want), "backend {}", k.name);
                }
            }

            #[test]
            fn sq_dist_parity(v in proptest::collection::vec((-1e3f32..1e3, -1e3f32..1e3), 0..200)) {
                let a: Vec<f32> = v.iter().map(|p| p.0).collect();
                let b: Vec<f32> = v.iter().map(|p| p.1).collect();
                let want = scalar::sq_dist(&a, &b);
                for k in available_backends() {
                    prop_assert!(close((k.sq_dist)(&a, &b), want), "backend {}", k.name);
                }
            }

            #[test]
            fn sq_norm2_parity(a in proptest::collection::vec(-1e3f32..1e3, 0..200)) {
                let want = scalar::sq_norm2(&a);
                for k in available_backends() {
                    prop_assert!(close((k.sq_norm2)(&a), want), "backend {}", k.name);
                }
            }

            #[test]
            fn norm1_parity(a in proptest::collection::vec(-1e3f32..1e3, 0..200)) {
                let want = scalar::norm1(&a);
                for k in available_backends() {
                    prop_assert!(close((k.norm1)(&a), want), "backend {}", k.name);
                }
            }

            #[test]
            fn dot4_parity(v in proptest::collection::vec(
                (-1e2f32..1e2, -1e2f32..1e2, -1e2f32..1e2, -1e2f32..1e2, -1e2f32..1e2),
                0..150,
            )) {
                let cols: Vec<Vec<f32>> = (0..5)
                    .map(|c| v.iter().map(|t| [t.0, t.1, t.2, t.3, t.4][c]).collect())
                    .collect();
                let want = scalar::dot4(&cols[0], &cols[1], &cols[2], &cols[3], &cols[4]);
                for k in available_backends() {
                    let got = (k.dot4)(&cols[0], &cols[1], &cols[2], &cols[3], &cols[4]);
                    for r in 0..4 {
                        prop_assert!(close(got[r], want[r]), "backend {} row {}", k.name, r);
                    }
                }
            }

            /// Quantized kernels are exact integer reductions: every
            /// backend must agree with the scalar reference *bit for bit*
            /// (no tolerance), across lengths sweeping the 16/32-code
            /// unroll remainders and the full u8/i8 code ranges.
            #[test]
            fn dot4_i8_parity(v in proptest::collection::vec(
                (0u16..256, 0u16..256, 0u16..256, 0u16..256, -128i16..128),
                0..200,
            )) {
                let rows: Vec<Vec<u8>> = (0..4)
                    .map(|c| v.iter().map(|t| [t.0, t.1, t.2, t.3][c] as u8).collect())
                    .collect();
                let q: Vec<i8> = v.iter().map(|t| t.4 as i8).collect();
                let want = scalar::dot4_i8(&rows[0], &rows[1], &rows[2], &rows[3], &q);
                for k in available_backends() {
                    let got = (k.dot4_i8)(&rows[0], &rows[1], &rows[2], &rows[3], &q);
                    prop_assert_eq!(got, want, "backend {}", k.name);
                }
            }

            #[test]
            fn dot_i8_parity(v in proptest::collection::vec(
                (0u16..256, -128i16..128),
                0..200,
            )) {
                let a: Vec<u8> = v.iter().map(|t| t.0 as u8).collect();
                let q: Vec<i8> = v.iter().map(|t| t.1 as i8).collect();
                let want = scalar::dot_i8(&a, &q);
                for k in available_backends() {
                    prop_assert_eq!((k.dot_i8)(&a, &q), want, "backend {}", k.name);
                }
            }

            #[test]
            fn sq_dist4_parity(v in proptest::collection::vec(
                (-1e2f32..1e2, -1e2f32..1e2, -1e2f32..1e2, -1e2f32..1e2, -1e2f32..1e2),
                0..150,
            )) {
                let cols: Vec<Vec<f32>> = (0..5)
                    .map(|c| v.iter().map(|t| [t.0, t.1, t.2, t.3, t.4][c]).collect())
                    .collect();
                let want = scalar::sq_dist4(&cols[0], &cols[1], &cols[2], &cols[3], &cols[4]);
                for k in available_backends() {
                    let got = (k.sq_dist4)(&cols[0], &cols[1], &cols[2], &cols[3], &cols[4]);
                    for r in 0..4 {
                        prop_assert!(close(got[r], want[r]), "backend {} row {}", k.name, r);
                    }
                }
            }
        }
    }
}
