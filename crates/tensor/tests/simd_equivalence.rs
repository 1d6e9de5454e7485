//! SIMD-vs-scalar equivalence suite: every dispatch arm the host can
//! execute must agree with the portable scalar arm within 4 ULP of the
//! accumulated magnitude, on odd sizes and unaligned tails.
//!
//! The arms sum in different orders (8-lane scalar chains, 4-wide AVX2
//! FMA chains, 2-wide NEON chains), so results are not bit-identical.
//! The one exception is the `avx512` arm, which must reproduce the
//! `avx2` arm bit for bit; `avx512_matmul_transb_matches_avx2_bits`
//! checks that with `to_bits`.
//! The comparison unit is the ULP of the *accumulation*, not of the
//! possibly-cancelled result: reassociated summation of `k` terms
//! drifts like a random walk of `O(√k)` roundings at magnitude
//! `Σ|aᵢ·bᵢ|`, so the suite pins every arm within
//! `4 ulp · √k · Σ|aᵢ·bᵢ|` of the scalar reference. A dropped lane or
//! a bad tail shows up at `Σ|aᵢ·bᵢ|/k` — ten orders of magnitude above
//! this tolerance — so the bound is tight where it matters.

use proptest::prelude::*;
use tensor::kernels::{self, Backend};

/// `|got - want| <= 4 ulp` at the reassociation magnitude
/// `√k · Σ|aᵢ·bᵢ|` of a length-`k` accumulation.
fn assert_within_4ulp(name: &str, got: f64, want: f64, mag: f64, k: usize) {
    let tol = 4.0 * f64::EPSILON * (k.max(1) as f64).sqrt() * mag.max(f64::MIN_POSITIVE);
    assert!(
        (got - want).abs() <= tol,
        "{name}: {got} vs scalar {want} (|Δ|={} > tol {tol}, mag {mag})",
        (got - want).abs()
    );
}

/// Deterministic pseudo-random buffer with sign changes and varied
/// magnitudes (so cancellation actually occurs).
fn filled(len: usize, seed: u64) -> Vec<f64> {
    (0..len)
        .map(|i| {
            let t = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ seed;
            let u = (t >> 11) as f64 / (1u64 << 53) as f64;
            (u - 0.5) * 16.0
        })
        .collect()
}

/// Per-element `Σ|aᵢ·bᵢ|` for `A · Bᵀ`.
fn absdot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x * y).abs()).sum()
}

/// The `avx512` arm and the `avx2` arm it must reproduce bit for bit,
/// or `None` on a host that cannot run both.
fn avx512_and_avx2() -> Option<(&'static Backend, &'static Backend)> {
    let arms = kernels::available();
    let find = |name: &str| arms.iter().copied().find(|b| b.name() == name);
    Some((find("avx512")?, find("avx2")?))
}

/// A left operand with exact zeros (every `zero_every`-th entry, none
/// when 0) and magnitudes spread over twelve decades, so sums cancel
/// and mix exponents.
fn mixed_lhs(len: usize, seed: u64, zero_every: usize) -> Vec<f64> {
    let mut v = filled(len, seed);
    for (i, x) in v.iter_mut().enumerate() {
        if zero_every > 0 && i % zero_every == 0 {
            *x = 0.0;
        } else {
            *x *= 10f64.powi((i * 7 % 13) as i32 - 6);
        }
    }
    v
}

/// Output widths for the bit-exact test: below one 8-row block, whole
/// blocks, and blocks plus a leftover quad and/or leftover singles.
const BITS_N: [usize; 11] = [1, 5, 8, 9, 10, 12, 15, 16, 64, 67, 144];

/// All arms the host can run except the scalar reference itself.
fn simd_arms() -> Vec<&'static Backend> {
    kernels::available()
        .into_iter()
        .filter(|b| b.name() != "scalar")
        .collect()
}

proptest! {
    /// `matmul_transb` agreement on odd shapes crossing the k-tile, the
    /// 2-row and 4-column micro-kernel remainders, with both operands at
    /// arbitrary (unaligned) element offsets into their backing buffers.
    #[test]
    fn matmul_transb_arms_agree(
        m in 1usize..9,
        n in 1usize..9,
        k in 1usize..700,
        aoff in 0usize..4,
        boff in 0usize..4,
        seed in 0u64..500,
    ) {
        let abuf = filled(aoff + m * k, seed);
        let bbuf = filled(boff + n * k, seed ^ 0xabcd);
        let a = &abuf[aoff..];
        let b = &bbuf[boff..];
        let mut want = vec![f64::NAN; m * n];
        kernels::scalar().matmul_transb(a, b, m, n, k, &mut want);
        for arm in simd_arms() {
            let mut got = vec![f64::NAN; m * n];
            arm.matmul_transb(a, b, m, n, k, &mut got);
            for i in 0..m {
                for j in 0..n {
                    let mag = absdot(&a[i * k..(i + 1) * k], &b[j * k..(j + 1) * k]);
                    assert_within_4ulp(arm.name(), got[i * n + j], want[i * n + j], mag, k);
                }
            }
        }
    }

    /// `gemm` agreement, including the zero-skip path (a block of the
    /// left operand is zeroed) and unaligned row starts.
    #[test]
    fn gemm_arms_agree(
        m in 1usize..7,
        k in 1usize..24,
        n in 1usize..19,
        aoff in 0usize..4,
        zero_from in 0usize..24,
        seed in 0u64..500,
    ) {
        let mut abuf = filled(aoff + m * k, seed);
        for v in abuf[aoff..].iter_mut().skip(zero_from.min(m * k)) {
            *v = 0.0;
        }
        let bbuf = filled(k * n, seed ^ 0x1234);
        let a = &abuf[aoff..];
        let mut want = vec![f64::NAN; m * n];
        kernels::scalar().gemm(a, &bbuf, m, k, n, &mut want);
        for arm in simd_arms() {
            let mut got = vec![f64::NAN; m * n];
            arm.gemm(a, &bbuf, m, k, n, &mut got);
            for i in 0..m {
                for j in 0..n {
                    let mag: f64 = (0..k).map(|kk| (a[i * k + kk] * bbuf[kk * n + j]).abs()).sum();
                    assert_within_4ulp(arm.name(), got[i * n + j], want[i * n + j], mag, k);
                }
            }
        }
    }

    /// `matvec` / `matvec_bias` agreement on odd row counts (exercising
    /// the row-quad remainder) and k past the column-block width.
    #[test]
    fn matvec_arms_agree(
        rows in 1usize..11,
        k in 1usize..3000,
        woff in 0usize..4,
        seed in 0u64..500,
    ) {
        let wbuf = filled(woff + rows * k, seed);
        let w = &wbuf[woff..];
        let x = filled(k, seed ^ 0x77);
        let bias = filled(rows, seed ^ 0x99);
        let mut want = vec![f64::NAN; rows];
        kernels::scalar().matvec(w, &x, &mut want);
        let mut want_bias = vec![f64::NAN; rows];
        kernels::scalar().matvec_bias(w, &x, &bias, &mut want_bias);
        for arm in simd_arms() {
            let mut got = vec![f64::NAN; rows];
            arm.matvec(w, &x, &mut got);
            let mut got_bias = vec![f64::NAN; rows];
            arm.matvec_bias(w, &x, &bias, &mut got_bias);
            for r in 0..rows {
                let mag = absdot(&w[r * k..(r + 1) * k], &x);
                assert_within_4ulp(arm.name(), got[r], want[r], mag, k);
                assert_within_4ulp(arm.name(), got_bias[r], want_bias[r], mag + bias[r].abs(), k);
            }
        }
    }

    /// The fused zonotope-affine entry point agrees across arms on both
    /// outputs (center and generator matrix).
    #[test]
    fn zonotope_affine_arms_agree(
        out_dim in 1usize..10,
        in_dim in 1usize..40,
        gens_n in 0usize..9,
        seed in 0u64..500,
    ) {
        let weights = filled(out_dim * in_dim, seed);
        let bias = filled(out_dim, seed ^ 0x5);
        let center = filled(in_dim, seed ^ 0x6);
        let gens = filled(gens_n * in_dim, seed ^ 0x7);
        let mut want_c = vec![f64::NAN; out_dim];
        let mut want_g = vec![f64::NAN; gens_n * out_dim];
        kernels::scalar().zonotope_affine(&weights, &bias, &center, &gens, &mut want_c, &mut want_g);
        for arm in simd_arms() {
            let mut got_c = vec![f64::NAN; out_dim];
            let mut got_g = vec![f64::NAN; gens_n * out_dim];
            arm.zonotope_affine(&weights, &bias, &center, &gens, &mut got_c, &mut got_g);
            for r in 0..out_dim {
                let mag = absdot(&weights[r * in_dim..(r + 1) * in_dim], &center) + bias[r].abs();
                assert_within_4ulp(arm.name(), got_c[r], want_c[r], mag, in_dim);
            }
            for g in 0..gens_n {
                for r in 0..out_dim {
                    let mag = absdot(
                        &gens[g * in_dim..(g + 1) * in_dim],
                        &weights[r * in_dim..(r + 1) * in_dim],
                    );
                    assert_within_4ulp(arm.name(), got_g[g * out_dim + r], want_g[g * out_dim + r], mag, in_dim);
                }
            }
        }
    }
}

proptest! {
    /// The `avx512` arm's `matmul_transb` equals the `avx2` arm's bit for
    /// bit: row counts off the 4-row tile, widths with a leftover quad
    /// and leftover singles, `k % 4 != 0` tails and `k` past the 512-wide
    /// k-tile, unaligned operands, and a left operand with zeros and mixed
    /// magnitudes. Hosts without AVX-512 have nothing to compare.
    #[test]
    fn avx512_matmul_transb_matches_avx2_bits(
        m in 1usize..14,
        n_pick in 0usize..BITS_N.len(),
        k in 1usize..1100,
        aoff in 0usize..4,
        boff in 0usize..4,
        zero_every in 0usize..5,
        seed in 0u64..500,
    ) {
        let Some((wide, narrow)) = avx512_and_avx2() else {
            return Ok(());
        };
        let n = BITS_N[n_pick];
        let abuf = mixed_lhs(aoff + m * k, seed, zero_every);
        let bbuf = filled(boff + n * k, seed ^ 0xbeef);
        let (a, b) = (&abuf[aoff..], &bbuf[boff..]);
        let mut want = vec![f64::NAN; m * n];
        narrow.matmul_transb(a, b, m, n, k, &mut want);
        let mut got = vec![f64::NAN; m * n];
        wide.matmul_transb(a, b, m, n, k, &mut got);
        let differ = (0..m * n).find(|&e| got[e].to_bits() != want[e].to_bits());
        prop_assert!(
            differ.is_none(),
            "{} vs {} at (row, col) {:?}: {:?} vs {:?}",
            wide.name(),
            narrow.name(),
            differ.map(|e| (e / n, e % n)),
            differ.map(|e| got[e]),
            differ.map(|e| want[e]),
        );
    }
}

/// The dispatch decision itself: with `CHARON_FORCE_SCALAR` unset the
/// active arm is whatever `available()` ranks best, and the arm cached
/// in the `OnceLock` never changes for the process lifetime.
#[test]
fn active_arm_is_stable() {
    let first = kernels::active().name();
    for _ in 0..8 {
        assert_eq!(kernels::active().name(), first);
    }
}

/// Directed case: k exactly at the 512 k-tile and 2048 column-block
/// boundaries, where off-by-one tiling bugs live.
#[test]
fn tile_boundary_sizes_agree() {
    for &k in &[511usize, 512, 513, 2047, 2048, 2049] {
        let (m, n) = (5, 6);
        let a = filled(m * k, 11);
        let b = filled(n * k, 13);
        let mut want = vec![f64::NAN; m * n];
        kernels::scalar().matmul_transb(&a, &b, m, n, k, &mut want);
        for arm in simd_arms() {
            let mut got = vec![f64::NAN; m * n];
            arm.matmul_transb(&a, &b, m, n, k, &mut got);
            for i in 0..m {
                for j in 0..n {
                    let mag = absdot(&a[i * k..(i + 1) * k], &b[j * k..(j + 1) * k]);
                    assert_within_4ulp(arm.name(), got[i * n + j], want[i * n + j], mag, k);
                }
            }
            let x = filled(k, 17);
            let mut wv = vec![f64::NAN; m];
            kernels::scalar().matvec(&a, &x, &mut wv);
            let mut gv = vec![f64::NAN; m];
            arm.matvec(&a, &x, &mut gv);
            for r in 0..m {
                let mag = absdot(&a[r * k..(r + 1) * k], &x);
                assert_within_4ulp(arm.name(), gv[r], wv[r], mag, k);
            }
        }
    }
}
