//! AVX-512 kernel arm (`x86_64`).
//!
//! Eight-wide `f64` vectors for `matmul_transb`, the zonotope generator
//! product, computing exactly the AVX2 arm's arithmetic so that every
//! output has the same bits as [`super::avx2`]. The AVX2 2×4 tile keeps
//! one 4-lane FMA chain per (left row, right row) pair and reduces four
//! chains at a time with `hsum4`. Here each `zmm` register carries two of
//! those chains side by side, output column `j + c` in the low half and
//! `j + 4 + c` in the high half, and the left row's 4-element chunk is
//! broadcast to both halves. A 4×8 tile (four left rows against eight
//! right rows) then holds 16 accumulators, half of the 32 `zmm`
//! registers, and every FMA does the work of two AVX2 ones. So that one
//! load feeds one chain pair, blocks of eight right rows are first
//! packed in chain order into a stack buffer of `8 × KB` doubles, as
//! many blocks as it holds. The reduction is AVX2's `hsum4` run on each
//! 256-bit half, and the `k % 4` tail is added after it, as in
//! `tile2x4`; the k-tile is the AVX2 arm's [`KB`].
//!
//! Each row quad sweeps every packed block before the next quad starts,
//! so output rows are written in order. Sweeping one block over all
//! rows instead writes a 64-wide output row in eight passes, and on the
//! end-to-end benchmark that made the ReLU which reads the generator
//! matrix next about 15 % slower.
//!
//! Left rows past the last multiple of four, a leftover quad of right
//! rows and leftover single right rows go through the AVX2 arm's
//! `dot1x4` and `dot`, which is how that arm computes them too. Shapes
//! too small for one tile, and the `gemm`, `matvec` and `matvec_bias`
//! entries, are the AVX2 arm's functions. `tests/simd_equivalence.rs`
//! pins the bit equality.
//!
//! Every function in this module is compiled with
//! `#[target_feature(enable = "avx512f,avx2,fma")]` and reached only
//! through the safe wrapper in the [`BACKEND`] table, which is only ever
//! selected after `is_x86_feature_detected!` confirmed all three features
//! (see `super::detect`).

use core::arch::x86_64::*;
use core::mem::MaybeUninit;

use super::avx2::{self, KB};
use super::Backend;

pub(super) static BACKEND: Backend = Backend {
    name: "avx512",
    matmul_transb,
    gemm: avx2::gemm,
    matvec: avx2::matvec,
    matvec_bias: avx2::matvec_bias,
};

fn matmul_transb(a: &[f64], b: &[f64], m: usize, n: usize, k: usize, out: &mut [f64]) {
    // SAFETY: the avx512 table is only selected after feature detection
    // confirmed avx512f, avx2 and fma, and `Backend::matmul_transb`
    // asserted the three buffer lengths.
    unsafe { matmul_transb_impl(a, b, m, n, k, out) }
}

/// `out = A · Bᵀ` with the 4×8 tile. Per k-tile, the blocks of eight
/// right rows are packed a panel at a time, as many as the stack buffer
/// holds (all of a 64-wide zoo layer, one block at the full 512-wide
/// k-tile), and every row quad of `a` sweeps the panel, so each output
/// row is written once per panel. The leftovers then run through the
/// AVX2 kernels, row by row.
///
/// # Safety
///
/// The CPU must support AVX-512F, AVX2 and FMA, and the buffers must
/// hold `m×k`, `n×k` and `m×n` elements.
#[target_feature(enable = "avx512f,avx2,fma")]
unsafe fn matmul_transb_impl(a: &[f64], b: &[f64], m: usize, n: usize, k: usize, out: &mut [f64]) {
    if m < 4 || n < 8 || k == 0 {
        // No full 4×8 tile: the AVX2 kernel computes these bits itself.
        // SAFETY: AVX2 and FMA are detected, and the lengths are this
        // function's own precondition.
        avx2::matmul_transb_impl(a, b, m, n, k, out);
        return;
    }
    out.fill(0.0);
    // Left uninitialized: zeroing 32 KiB would cost more than a small
    // product, and the tile reads only what `pack8` wrote.
    let mut pack = [MaybeUninit::<f64>::uninit(); 8 * KB];
    let (m4, n8, n4) = (m & !3, n & !7, n & !3);
    let mut k0 = 0;
    while k0 < k {
        let kb = KB.min(k - k0);
        let arow = |r: usize| &a[r * k + k0..r * k + k0 + kb];
        let brow = |r: usize| &b[r * k + k0..r * k + k0 + kb];
        let mut j0 = 0;
        while j0 < n8 {
            let jend = (j0 + 8 * (KB / kb)).min(n8);
            let filled = (jend - j0) * kb;
            for (j, block) in (j0..jend).step_by(8).zip(pack.chunks_exact_mut(8 * kb)) {
                pack8(block, &core::array::from_fn(|c| brow(j + c)));
            }
            // SAFETY: `pack8` wrote every element of the first `filled`
            // (at most `8 * KB`), and `MaybeUninit<f64>` has the layout
            // of `f64`.
            let panel = &*(&pack[..filled] as *const [MaybeUninit<f64>] as *const [f64]);
            let mut i = 0;
            while i < m4 {
                let ai = [arow(i), arow(i + 1), arow(i + 2), arow(i + 3)];
                for (j, block) in (j0..jend).step_by(8).zip(panel.chunks_exact(8 * kb)) {
                    // SAFETY: every row slice and `block` hold `kb` and
                    // `8 * kb` values.
                    let d = tile4x8(&ai, block);
                    for (r, dr) in d.into_iter().enumerate() {
                        let o = (i + r) * n + j;
                        accumulate8(&mut out[o..o + 8], dr);
                    }
                }
                i += 4;
            }
            j0 = jend;
        }
        // Everything outside the 4×8 tiles: the columns past `n8` of the
        // tiled rows, and every column of the last `m % 4` rows.
        for i in 0..m {
            let ai = arow(i);
            let orow = &mut out[i * n..(i + 1) * n];
            let mut j = if i < m4 { n8 } else { 0 };
            // SAFETY: every row slice is `kb` long, and `orow` windows
            // are sliced to their length.
            while j < n4 {
                let d = avx2::dot1x4(ai, brow(j), brow(j + 1), brow(j + 2), brow(j + 3));
                avx2::accumulate4(&mut orow[j..j + 4], d);
                j += 4;
            }
            while j < n {
                orow[j] += avx2::dot(ai, brow(j));
                j += 1;
            }
        }
        k0 += kb;
    }
}

/// Packs eight right rows of one k-tile (`kb` values each) into the
/// first `8 * kb` slots of `dst`. The chains come first, in FMA-chain
/// order: step `s` of the tile reads 32 consecutive values, and for `c`
/// in `0..4` those are the chunk `b[c][4s..4s + 4]` followed by
/// `b[c + 4][4s..4s + 4]`. The `kb % 4` tail follows, eight values (one
/// per row, in row order) for each tail index.
#[inline]
fn pack8(dst: &mut [MaybeUninit<f64>], b: &[&[f64]; 8]) {
    let kb = b[0].len();
    let kb4 = kb & !3;
    let (chains, tail) = dst[..8 * kb].split_at_mut(8 * kb4);
    for (s, step) in chains.chunks_exact_mut(32).enumerate() {
        let o = 4 * s;
        for (c, pair) in step.chunks_exact_mut(8).enumerate() {
            let src = b[c][o..o + 4].iter().chain(&b[c + 4][o..o + 4]);
            for (slot, &v) in pair.iter_mut().zip(src) {
                slot.write(v);
            }
        }
    }
    for (o, column) in (kb4..kb).zip(tail.chunks_exact_mut(8)) {
        for (slot, row) in column.iter_mut().zip(b) {
            slot.write(row[o]);
        }
    }
}

/// `out[0..8] += v`, unaligned.
///
/// # Safety
///
/// The CPU must support AVX-512F, and `out` must hold at least eight
/// elements.
#[target_feature(enable = "avx512f,avx2,fma")]
#[inline]
unsafe fn accumulate8(out: &mut [f64], v: __m512d) {
    let cur = _mm512_loadu_pd(out.as_ptr());
    _mm512_storeu_pd(out.as_mut_ptr(), _mm512_add_pd(cur, v));
}

/// AVX2's `hsum4` on each 256-bit half: lanes `0..4` hold the four
/// horizontal sums of the low halves of `v0..v3`, lanes `4..8` those of
/// the high halves, each summed as `(x0 + x1) + (x2 + x3)`.
///
/// # Safety
///
/// The CPU must support AVX-512F.
#[target_feature(enable = "avx512f,avx2,fma")]
#[inline]
unsafe fn hsum4x2(v0: __m512d, v1: __m512d, v2: __m512d, v3: __m512d) -> __m512d {
    // `hadd` per half: t01 = [v0a+v0b, v1a+v1b, v0c+v0d, v1c+v1d | …].
    let t01 = _mm512_add_pd(_mm512_unpacklo_pd(v0, v1), _mm512_unpackhi_pd(v0, v1));
    let t23 = _mm512_add_pd(_mm512_unpacklo_pd(v2, v3), _mm512_unpackhi_pd(v2, v3));
    // `permute2f128(t01, t23, 0x21)` per half: [t01 high pair, t23 low
    // pair]; indices 8.. select from `t23`.
    let swapped = _mm512_permutex2var_pd(t01, _mm512_set_epi64(13, 12, 7, 6, 9, 8, 3, 2), t23);
    // `blend(t01, t23, 0b1100)` per half.
    let blended = _mm512_mask_blend_pd(0b1100_1100, t01, t23);
    _mm512_add_pd(swapped, blended)
}

/// Four left rows against eight right rows: 16 accumulators of two FMA
/// chains each, reduced to one vector of eight dot products per left
/// row (output columns `j..j + 8` in order). `pack` holds the right
/// rows as [`pack8`] lays them out.
///
/// # Safety
///
/// The CPU must support AVX-512F, AVX2 and FMA; the four rows of `a`
/// must have one length `kb`, and `pack` must hold `8 * kb` values.
#[target_feature(enable = "avx512f,avx2,fma")]
#[inline]
unsafe fn tile4x8(a: &[&[f64]; 4], pack: &[f64]) -> [__m512d; 4] {
    let kb = a[0].len();
    let kb4 = kb & !3;
    debug_assert!(a.iter().all(|r| r.len() == kb) && pack.len() == 8 * kb);
    let mut acc = [[_mm512_setzero_pd(); 4]; 4];
    let mut p = pack.as_ptr();
    let mut o = 0;
    while o < kb4 {
        let vb = [
            _mm512_loadu_pd(p),
            _mm512_loadu_pd(p.add(8)),
            _mm512_loadu_pd(p.add(16)),
            _mm512_loadu_pd(p.add(24)),
        ];
        for (acc_r, a_r) in acc.iter_mut().zip(a) {
            let va = _mm512_broadcast_f64x4(_mm256_loadu_pd(a_r.as_ptr().add(o)));
            for (acc_rc, &vb_c) in acc_r.iter_mut().zip(&vb) {
                *acc_rc = _mm512_fmadd_pd(va, vb_c, *acc_rc);
            }
        }
        p = p.add(32);
        o += 4;
    }
    let mut d = [_mm512_setzero_pd(); 4];
    for (d_r, [v0, v1, v2, v3]) in d.iter_mut().zip(acc) {
        *d_r = hsum4x2(v0, v1, v2, v3);
    }
    if kb4 < kb {
        let tail = &pack[8 * kb4..];
        for (d_r, a_r) in d.iter_mut().zip(a) {
            let mut t = [0.0f64; 8];
            for (&x, column) in a_r[kb4..].iter().zip(tail.chunks_exact(8)) {
                for (t_c, &b_c) in t.iter_mut().zip(column) {
                    *t_c += x * b_c;
                }
            }
            *d_r = _mm512_add_pd(*d_r, _mm512_loadu_pd(t.as_ptr()));
        }
    }
    d
}
