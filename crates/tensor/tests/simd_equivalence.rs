//! SIMD-vs-scalar equivalence suite: every dispatch arm the host can
//! execute must agree with the portable scalar arm within 4 ULP of the
//! accumulated magnitude, on odd sizes and unaligned tails.
//!
//! The arms sum in different orders (8-lane scalar chains, 4-wide AVX2
//! FMA chains, 2-wide NEON chains), so results are not bit-identical.
//! The exceptions are checked with `to_bits`: the `avx512` arm must
//! reproduce the `avx2` arm bit for bit
//! (`avx512_matmul_transb_matches_avx2_bits`), every arm's `matvec_wt`
//! must return its own `matvec`'s bits whatever it does with the
//! transpose (`matvec_wt_matches_matvec_bits`), so must its
//! `matmul_transb_wt` return its own `matmul_transb`'s
//! (`matmul_transb_wt_matches_matmul_transb_bits`), and every arm's
//! `matvec_transpose` must return the scalar loop's bits
//! (`matvec_transpose_matches_the_scalar_loop_bits`).
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

/// `w` (`rows×k` row-major) transposed to `k×rows`.
fn transposed(w: &[f64], rows: usize, k: usize) -> Vec<f64> {
    (0..k * rows).map(|e| w[(e % rows) * k + e / rows]).collect()
}

/// An input with `+0.0` at every `zero_every`-th entry and `-0.0` at the
/// entry after it (none when 0), the zeros a ReLU leaves behind.
fn relu_like(len: usize, seed: u64, zero_every: usize) -> Vec<f64> {
    let mut x = mixed_lhs(len, seed, 0);
    if zero_every > 0 {
        for i in (0..len).step_by(zero_every) {
            x[i] = 0.0;
            if i + 1 < len {
                x[i + 1] = -0.0;
            }
        }
    }
    x
}

/// Index and both values of the first entry whose bits differ.
fn first_bit_difference(got: &[f64], want: &[f64]) -> Option<(usize, f64, f64)> {
    (0..want.len())
        .find(|&e| got[e].to_bits() != want[e].to_bits())
        .map(|e| (e, got[e], want[e]))
}

/// [`first_bit_difference`], except that any two NaNs count as equal.
fn first_difference_but_nan_payload(got: &[f64], want: &[f64]) -> Option<(usize, f64, f64)> {
    (0..want.len())
        .find(|&e| got[e].to_bits() != want[e].to_bits() && !(got[e].is_nan() && want[e].is_nan()))
        .map(|e| (e, got[e], want[e]))
}

/// `matvec_wt` on `backend` against the same arm's `matvec`, bit for
/// bit, with the zero skip allowed and not.
fn check_matvec_wt(backend: &Backend, w: &[f64], x: &[f64], rows: usize) -> Result<(), String> {
    let wt = transposed(w, rows, x.len());
    let mut want = vec![f64::NAN; rows];
    backend.matvec(w, x, &mut want);
    for finite in [true, false] {
        let mut got = vec![f64::NAN; rows];
        backend.matvec_wt(w, &wt, x, finite, &mut got);
        let differ = first_bit_difference(&got, &want);
        prop_assert!(
            differ.is_none(),
            "{} matvec_wt (finite {}) vs matvec, {}x{}: (row, got, want) {:?}",
            backend.name(),
            finite,
            rows,
            x.len(),
            differ
        );
    }
    Ok(())
}

/// The scalar loop `matvec_transpose` must reproduce: ascending rows,
/// zero entries of `y` skipped, a separate multiply and add per term.
fn transpose_loop(w: &[f64], y: &[f64], cols: usize) -> Vec<f64> {
    let mut out = vec![0.0; cols];
    for (r, &yr) in y.iter().enumerate() {
        if yr == 0.0 {
            continue;
        }
        for (c, o) in out.iter_mut().enumerate() {
            *o += yr * w[r * cols + c];
        }
    }
    out
}

proptest! {
    /// `matvec_wt` equals `matvec` bit for bit on every arm: row counts
    /// with each `rows % 4` and `rows % 8`, inputs with each `k % 4`,
    /// unaligned weights, and inputs holding `+0.0` and `-0.0`.
    #[test]
    fn matvec_wt_matches_matvec_bits(
        rows in 1usize..41,
        k in 1usize..140,
        woff in 0usize..4,
        zero_every in 0usize..4,
        seed in 0u64..500,
    ) {
        let wbuf = filled(woff + rows * k, seed ^ 0x3c3c);
        let x = relu_like(k, seed, zero_every);
        for arm in kernels::available() {
            check_matvec_wt(arm, &wbuf[woff..], &x, rows)?;
        }
    }

    /// `matvec_transpose` equals the scalar loop bit for bit on every
    /// arm: column counts with every remainder of the 4- and 8-wide
    /// blocks, more than one 8-register block, rows past one 256-row
    /// gather chunk, and `y` holding `+0.0` and `-0.0`.
    #[test]
    fn matvec_transpose_matches_the_scalar_loop_bits(
        rows in 1usize..300,
        cols in 1usize..150,
        zero_every in 0usize..4,
        seed in 0u64..500,
    ) {
        let w = filled(rows * cols, seed ^ 0x7e7e);
        let y = relu_like(rows, seed, zero_every);
        let want = transpose_loop(&w, &y, cols);
        for arm in kernels::available() {
            let mut got = vec![f64::NAN; cols];
            arm.matvec_transpose(&w, &y, &mut got);
            let differ = first_bit_difference(&got, &want);
            prop_assert!(differ.is_none(), "{} {}x{}: {:?}", arm.name(), rows, cols, differ);
        }
    }
}

/// Output widths for `matmul_transb_wt`: under one block of eight, each
/// remainder of 16, 8 and 4, and the zoo's 32- and 64-wide layers.
const WT_N: [usize; 20] = [1, 5, 8, 12, 16, 20, 31, 32, 33, 36, 40, 44, 47, 48, 56, 64, 67, 72, 100, 128];

/// The values a poisoned entry takes: `+∞`, `-∞` and NaN.
const POISON: [f64; 3] = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN];

/// `v` with `+0.0` at every `zero_every`-th entry and `-0.0` at the entry
/// after it (none when 0), and `POISON[poison - 1]` at every 37th entry
/// from `shift` on (none when `poison` is 0).
fn signed_zeros_and_poison(mut v: Vec<f64>, zero_every: usize, poison: usize, shift: usize) -> Vec<f64> {
    if zero_every > 0 {
        for i in (0..v.len()).step_by(zero_every) {
            v[i] = 0.0;
            if i + 1 < v.len() {
                v[i + 1] = -0.0;
            }
        }
    }
    if poison > 0 {
        for x in v.iter_mut().skip(shift).step_by(37) {
            *x = POISON[poison - 1];
        }
    }
    v
}

proptest! {
    /// `matmul_transb_wt` equals the same arm's `matmul_transb` bit for
    /// bit on every arm: row counts under four and with each `m % 3`,
    /// widths under one block of eight and with each remainder of 16, 8
    /// and 4, every `k % 4` (`k < 4` too, where the tail is the whole
    /// sum), `k` past the 512-wide k-tile, `±0` in both operands, and NaN
    /// or `±∞` in the generators (`a`), the weights (`b`) or both.
    ///
    /// Where no NaN goes in, every NaN that comes out is made by the
    /// arithmetic (`∞ - ∞`, `0 · ∞`), which always gives the same NaN, so
    /// every entry must have the same bits. Where a NaN goes in, x86
    /// passes on the payload of whichever NaN operand an instruction
    /// reads first, and the order of an FMA's operands is the
    /// compiler's choice, so there the NaN entries need only both be NaN.
    #[test]
    fn matmul_transb_wt_matches_matmul_transb_bits(
        m in 1usize..40,
        n_pick in 0usize..WT_N.len(),
        k_pick in 0usize..200,
        spread in 0usize..2,
        zero_every in 0usize..5,
        poison_a in 0usize..4,
        poison_b in 0usize..4,
        seed in 0u64..500,
    ) {
        let n = WT_N[n_pick];
        // 1..=12 (all tail, or a short chain and a tail) three times in
        // ten, 1..=100 half the time, and 510..550, across the k-tile.
        let k = match k_pick {
            0..=59 => k_pick % 12 + 1,
            60..=159 => k_pick - 59,
            _ => k_pick + 350,
        };
        // Magnitudes over twelve decades, or all of one size so that no
        // term of a sum hides another's rounding.
        let lhs = if spread == 1 { mixed_lhs(m * k, seed, 0) } else { filled(m * k, seed) };
        let a = signed_zeros_and_poison(lhs, zero_every, poison_a, seed as usize % 37);
        let b = signed_zeros_and_poison(filled(n * k, seed ^ 0x5a5a), zero_every, poison_b, seed as usize % 11);
        let bt = transposed(&b, n, k);
        for arm in kernels::available() {
            let mut want = vec![f64::NAN; m * n];
            arm.matmul_transb(&a, &b, m, n, k, &mut want);
            let mut got = vec![f64::NAN; m * n];
            arm.matmul_transb_wt(&a, &b, &bt, m, n, k, &mut got);
            let differ = if poison_a == 3 || poison_b == 3 {
                first_difference_but_nan_payload(&got, &want)
            } else {
                first_bit_difference(&got, &want)
            };
            prop_assert!(
                differ.is_none(),
                "{} matmul_transb_wt vs matmul_transb, {}x{}x{}: (entry, got, want) {:?}",
                arm.name(),
                m,
                n,
                k,
                differ
            );
        }
    }
}

/// `matmul_transb_wt` on the zoo's shapes (mnist-9x64's 64×64 layers
/// with 193 generators, 64 → 32, 108 → 32 and 32×32), on either side of
/// the 32 KiB `Bᵀ` the `avx512` kernel computes itself, and on inputs
/// under eight wide, where the `k % 4` tail is most or all of each sum.
#[test]
fn matmul_transb_wt_matches_matmul_transb_bits_on_zoo_and_tail_shapes() {
    let mut shapes = vec![(193, 64, 64), (150, 32, 64), (150, 32, 108), (98, 32, 32), (9, 64, 65), (9, 16, 256), (9, 16, 257)];
    for k in 1..8 {
        for (m, n) in [(4, 16), (5, 24), (7, 64), (3, 32)] {
            shapes.push((m, n, k));
        }
    }
    for (m, n, k) in shapes {
        let a = filled(m * k, (m * 131 + k) as u64);
        let b = filled(n * k, (n * 17 + k) as u64);
        let bt = transposed(&b, n, k);
        for arm in kernels::available() {
            let mut want = vec![f64::NAN; m * n];
            arm.matmul_transb(&a, &b, m, n, k, &mut want);
            let mut got = vec![f64::NAN; m * n];
            arm.matmul_transb_wt(&a, &b, &bt, m, n, k, &mut got);
            let differ = first_bit_difference(&got, &want);
            assert!(differ.is_none(), "{} {m}x{n}x{k}: {differ:?}", arm.name());
        }
    }
}

/// Inputs wider than one 2048-wide column block take the row-form
/// kernel, and the zoo's own shapes (784 → 32, 64 → 64, 64 → 10) come
/// out bit for bit.
#[test]
fn matvec_wt_matches_matvec_bits_on_wide_and_zoo_shapes() {
    for (rows, k) in [(5, 2047), (6, 2048), (7, 2049), (9, 3001), (32, 784), (64, 64), (10, 64), (12, 1000)] {
        let w = filled(rows * k, rows as u64 * 31 + k as u64);
        let x = relu_like(k, k as u64, 3);
        for arm in kernels::available() {
            check_matvec_wt(arm, &w, &x, rows).unwrap();
        }
    }
}

/// A NaN or infinite weight in the column of a zero input must still
/// poison that row (`0 · NaN` and `0 · ∞` are NaN), so with `finite`
/// false no arm may skip the zero input; the other rows keep `matvec`'s
/// bits.
#[test]
fn matvec_wt_keeps_non_finite_weights_of_zero_inputs() {
    let (rows, k) = (13, 22);
    for (bad, poison) in [(f64::NAN, "NaN"), (f64::INFINITY, "+inf"), (f64::NEG_INFINITY, "-inf")] {
        let mut w = filled(rows * k, 5);
        // Inputs 3 and 17 are zero; rows 2 and 9 carry the bad weight
        // there, one in a four-lane chain and one in the `k % 4` tail.
        let mut x = filled(k, 6);
        x[3] = 0.0;
        x[21] = -0.0;
        w[2 * k + 3] = bad;
        w[9 * k + 21] = bad;
        let wt = transposed(&w, rows, k);
        for arm in kernels::available() {
            let mut want = vec![f64::NAN; rows];
            arm.matvec(&w, &x, &mut want);
            let mut got = vec![f64::NAN; rows];
            arm.matvec_wt(&w, &wt, &x, false, &mut got);
            assert!(got[2].is_nan() && got[9].is_nan(), "{} {poison}: {got:?}", arm.name());
            for r in (0..rows).filter(|&r| r != 2 && r != 9) {
                assert_eq!(got[r].to_bits(), want[r].to_bits(), "{} {poison} row {r}", arm.name());
            }
        }
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
