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
//! `matmul_transb_wt`, the generator product of a zonotope whose network
//! holds `Wᵀ`, computes the same bits as `matmul_transb` from `Bᵀ`: the
//! tile's four FMA chains per output, one accumulator each, with one
//! lane per output column, so nothing is packed and nothing is summed
//! across lanes; see `matmul_transb_wt_impl`.
//!
//! `matvec_wt`, the forward pass of an attack evaluation, computes `W x`
//! from `Wᵀ` with the AVX2 `matvec`'s FMA chains laid across the lanes
//! of a register (one lane per output row), skipping zero inputs when
//! the weights are finite; see `matvec_wt_impl`. `matvec_transpose` is
//! the AVX2 arm's: the backward pass is bound by its loads, and an
//! 8-wide version measured within a few percent of it.
//!
//! Every function in this module is compiled with
//! `#[target_feature(enable = "avx512f,avx2,fma")]` and reached only
//! through the safe wrapper in the [`BACKEND`] table, which is only ever
//! selected after `is_x86_feature_detected!` confirmed all three features
//! (see `super::detect`).

use core::arch::x86_64::*;
use core::mem::MaybeUninit;

use super::avx2::{self, KB, MV_KB};
use super::Backend;

pub(super) static BACKEND: Backend = Backend {
    name: "avx512",
    matmul_transb,
    matmul_transb_wt: Some(matmul_transb_wt),
    gemm: avx2::gemm,
    matvec: avx2::matvec,
    matvec_bias: avx2::matvec_bias,
    matvec_wt: Some(matvec_wt),
    matvec_transpose: avx2::matvec_transpose,
};

fn matmul_transb(a: &[f64], b: &[f64], m: usize, n: usize, k: usize, out: &mut [f64]) {
    // SAFETY: the avx512 table is only selected after feature detection
    // confirmed avx512f, avx2 and fma, and `Backend::matmul_transb`
    // asserted the three buffer lengths.
    unsafe { matmul_transb_impl(a, b, m, n, k, out) }
}

fn matmul_transb_wt(a: &[f64], b: &[f64], bt: &[f64], m: usize, n: usize, k: usize, out: &mut [f64]) {
    // SAFETY: the avx512 table is only selected after feature detection
    // confirmed avx512f, avx2 and fma, and `Backend::matmul_transb_wt`
    // asserted the four buffer lengths.
    unsafe { matmul_transb_wt_impl(a, b, bt, m, n, k, out) }
}

fn matvec_wt(w: &[f64], wt: &[f64], x: &[f64], finite: bool, out: &mut [f64]) {
    // SAFETY: the avx512 table is only selected after feature detection
    // confirmed avx512f, avx2 and fma, and `Backend::matvec_wt` asserted
    // that `w` and `wt` both hold `out.len() * x.len()` values.
    unsafe { matvec_wt_impl(w, wt, x, finite, out) }
}

/// The stack panel of [`matmul_transb_impl`], on a 64-byte boundary.
#[repr(align(64))]
struct PackBuf([MaybeUninit<f64>; 8 * KB]);

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
    // product, and the tile reads only what `pack8` wrote. Cache-line
    // aligned, so each tile's eight-value loads never straddle two lines.
    let mut pack = PackBuf([MaybeUninit::<f64>::uninit(); 8 * KB]);
    let pack = &mut pack.0;
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

/// `out = A · Bᵀ` read from `bt = Bᵀ`, equal bit for bit to
/// [`matmul_transb_impl`].
///
/// That kernel sums each output `(i, j)` of a one-k-tile product as four
/// FMA chains: chain `s` adds `a[i][o] · b[j][o]` over the `o < k & !3`
/// with `o % 4 == s`, in ascending order, from `+0`. `hsum4` adds the
/// chains as `(c0 + c1) + (c2 + c3)` (the two pair sums in the other
/// order for half of the columns, which commutativity makes the same
/// bits), the `k % 4` tail, summed separately from `+0` with a multiply
/// and an add per term, is added after it, and the sum is added to the
/// zeroed output. Here lane `c` of a `zmm` accumulator is output column
/// `j + c` instead, and accumulator `s` holds chain `s`: a broadcast of
/// `a[i][o]` and the row `o` of `Bᵀ` feed eight columns, with no
/// horizontal sum and nothing packed. The same chains, pair sums, tail
/// and final `0 + d` give the same bits. That kernel's rows past the
/// last row quad go through `dot1x4`, which sums each column the same
/// way, so every row goes through the tiles here.
///
/// The tiles read `Bᵀ` down its whole height once per three rows of
/// `A`, which pays while `Bᵀ` stays in L1, and their loads stay within
/// a cache line only where every row of `Bᵀ` starts on one. So this
/// kernel computes a product itself only where `Bᵀ` holds at most
/// [`WT_MAX_LEN`] values, the output is at least [`WT_MIN_N`] columns
/// wide and a multiple of eight (on a 64-byte-aligned `Bᵀ`, every row is
/// then aligned), and `A` has four rows or more. Everything else goes
/// to that kernel whole. A per-call panel on the zoo's layers (64×64,
/// 64→32, 108→32, 32×32) measured this kernel 1.3–1.8× faster; on
/// widths that are not a multiple of eight, on 8-wide outputs and on a
/// larger `Bᵀ` it ranged from 0.78× to 1.38× and was slower on most.
///
/// # Safety
///
/// The CPU must support AVX-512F, AVX2 and FMA, and the buffers must
/// hold `m×k`, `n×k`, `k×n` and `m×n` elements.
#[target_feature(enable = "avx512f,avx2,fma")]
unsafe fn matmul_transb_wt_impl(a: &[f64], b: &[f64], bt: &[f64], m: usize, n: usize, k: usize, out: &mut [f64]) {
    if m < 4 || n < WT_MIN_N || !n.is_multiple_of(8) || k == 0 || k * n > WT_MAX_LEN {
        matmul_transb_impl(a, b, m, n, k, out);
        return;
    }
    let mut i = 0;
    while i < m {
        match m - i {
            1 => wt_rows::<1>(a, bt, i, n, k, out),
            2 => wt_rows::<2>(a, bt, i, n, k, out),
            _ => wt_rows::<3>(a, bt, i, n, k, out),
        }
        i += (m - i).min(3);
    }
}

/// The most values of `Bᵀ` that [`matmul_transb_wt_impl`] reads itself:
/// 32 KiB, two thirds of a 48 KiB L1 data cache.
const WT_MAX_LEN: usize = 4096;
/// The fewest output columns [`matmul_transb_wt_impl`] computes itself:
/// one tile of two blocks of eight.
const WT_MIN_N: usize = 16;

/// Rows `i..i + R` of `out = A · Bᵀ`, `n` a multiple of eight: tiles of
/// two blocks of eight columns, and one of a single block if the count
/// is odd.
///
/// # Safety
///
/// As [`matmul_transb_wt_impl`], with `i + R <= m`.
#[target_feature(enable = "avx512f,avx2,fma")]
#[inline]
unsafe fn wt_rows<const R: usize>(a: &[f64], bt: &[f64], i: usize, n: usize, k: usize, out: &mut [f64]) {
    let mut j = 0;
    while j + 16 <= n {
        wt_tile::<R, 2>(a, bt, i, j, k, n, out);
        j += 16;
    }
    if j < n {
        wt_tile::<R, 1>(a, bt, i, j, k, n, out);
    }
}

/// Rows `i..i + R` of `A` against output columns `j..j + 8 · C`, read
/// from `Bᵀ` (`k×n`): `4 · R · C` accumulators, the four chains of every
/// (row, column block), each step one row of `Bᵀ` loaded and `R`
/// broadcasts; then the chain sums, the `k % 4` tail and the store.
///
/// # Safety
///
/// The CPU must support AVX-512F, AVX2 and FMA; `a` holds at least
/// `(i + R) · k` values, `bt` holds `k · n`, `j + 8 · C <= n`, and `out`
/// holds at least `(i + R) · n`.
#[target_feature(enable = "avx512f,avx2,fma")]
#[inline]
#[allow(clippy::too_many_arguments)]
unsafe fn wt_tile<const R: usize, const C: usize>(
    a: &[f64],
    bt: &[f64],
    i: usize,
    j: usize,
    k: usize,
    n: usize,
    out: &mut [f64],
) {
    let k4 = k & !3;
    let ap = a.as_ptr().add(i * k);
    let bp = bt.as_ptr().add(j);
    let mut acc = [[[_mm512_setzero_pd(); C]; R]; 4];
    let mut o = 0;
    while o < k4 {
        for (s, acc_s) in acc.iter_mut().enumerate() {
            let row = bp.add((o + s) * n);
            let w: [__m512d; C] = core::array::from_fn(|c| _mm512_loadu_pd(row.add(8 * c)));
            for (r, acc_r) in acc_s.iter_mut().enumerate() {
                let x = _mm512_set1_pd(*ap.add(r * k + o + s));
                for (acc_rc, &w_c) in acc_r.iter_mut().zip(&w) {
                    *acc_rc = _mm512_fmadd_pd(x, w_c, *acc_rc);
                }
            }
        }
        o += 4;
    }
    for r in 0..R {
        for c in 0..C {
            let s01 = _mm512_add_pd(acc[0][r][c], acc[1][r][c]);
            let s23 = _mm512_add_pd(acc[2][r][c], acc[3][r][c]);
            let mut d = _mm512_add_pd(s01, s23);
            if k4 < k {
                let mut t = _mm512_setzero_pd();
                for o in k4..k {
                    let x = _mm512_set1_pd(*ap.add(r * k + o));
                    t = _mm512_add_pd(t, _mm512_mul_pd(x, _mm512_loadu_pd(bp.add(o * n + 8 * c))));
                }
                d = _mm512_add_pd(d, t);
            }
            let dst = out.as_mut_ptr().add((i + r) * n + j + 8 * c);
            _mm512_storeu_pd(dst, _mm512_add_pd(_mm512_setzero_pd(), d));
        }
    }
}

/// `out = W x` read from `wt = Wᵀ`, equal bit for bit to the AVX2 arm's
/// `matvec` of `w`.
///
/// That kernel gives each row quad four 4-lane FMA chains: lane `s` of
/// row `r`'s chain sums `x[i] · W[r][i]` over the inputs `i < k & !3`
/// with `i % 4 == s`, in ascending order, from `+0`. `hsum4` then adds
/// lanes `0 + 1` and `2 + 3` and the two pair sums, and the `k % 4`
/// tail, summed separately from `+0`, is added last. Here lane `c` of a
/// `zmm` accumulator is row `r0 + c` instead, and accumulator set `s`
/// holds lane `s` of eight rows' chains: one broadcast of `x[i]` and
/// one load of a row of `Wᵀ` feed eight rows, with no horizontal sum.
/// The same chains, pair sums and tail give the same bits. Rows past
/// the last quad are `avx2::dot` of the row of `W`, as in the AVX2
/// kernel; inputs wider than one of its column blocks and matrices
/// under four rows go to that kernel whole.
///
/// When `finite` is true the inputs that are exactly zero (the ReLU-off
/// neurons) are left out of the chains, and their rows of `Wᵀ` are never
/// read. That changes no sum: a chain starts at `+0` and so never holds
/// `-0` (an exact cancellation rounds to `+0`), and adding `0 · w = ±0`
/// for a finite `w` to a value other than `-0` returns it. The inputs of
/// each chain are gathered into a list first, without a branch per
/// input: a branch mispredicts on ReLU patterns that change between
/// calls.
///
/// # Safety
///
/// The CPU must support AVX-512F, AVX2 and FMA, and `w` and `wt` must
/// each hold `out.len() * x.len()` elements.
#[target_feature(enable = "avx512f,avx2,fma")]
unsafe fn matvec_wt_impl(w: &[f64], wt: &[f64], x: &[f64], finite: bool, out: &mut [f64]) {
    let (rows, k) = (out.len(), x.len());
    if k == 0 || k > MV_KB || rows < 4 {
        avx2::matvec(w, x, out);
        return;
    }
    // The inputs of chain `s`, ascending: `lists[s][..len[s]]`.
    let mut lists = [[MaybeUninit::<u32>::uninit(); MV_KB / 4]; 4];
    let mut len = [0usize; 4];
    for j in 0..k / 4 {
        for s in 0..4 {
            let i = 4 * j + s;
            // SAFETY: `len[s] <= j < k / 4 <= MV_KB / 4`.
            lists[s].get_unchecked_mut(len[s]).write(i as u32);
            len[s] += usize::from(!finite || *x.get_unchecked(i) != 0.0);
        }
    }
    // SAFETY: the gather wrote the first `len[s]` slots of `lists[s]`,
    // and `MaybeUninit<u32>` has the layout of `u32`.
    let chains: [&[u32]; 4] =
        core::array::from_fn(|s| &*(&lists[s][..len[s]] as *const [MaybeUninit<u32>] as *const [u32]));
    // Blocks of eight rows, eight at a time, then a last row quad in the
    // low half of one more block.
    let full = rows / 8;
    let mut b0 = 0;
    while b0 < full {
        let nb = (full - b0).min(8);
        match nb {
            8 => wt_block::<8, false>(wt, x, &chains, 8 * b0, out),
            7 => wt_block::<7, false>(wt, x, &chains, 8 * b0, out),
            6 => wt_block::<6, false>(wt, x, &chains, 8 * b0, out),
            5 => wt_block::<5, false>(wt, x, &chains, 8 * b0, out),
            4 => wt_block::<4, false>(wt, x, &chains, 8 * b0, out),
            3 => wt_block::<3, false>(wt, x, &chains, 8 * b0, out),
            2 => wt_block::<2, false>(wt, x, &chains, 8 * b0, out),
            _ => wt_block::<1, false>(wt, x, &chains, 8 * b0, out),
        }
        b0 += nb;
    }
    if rows % 8 >= 4 {
        wt_block::<1, true>(wt, x, &chains, 8 * full, out);
    }
    for r in (rows & !3)..rows {
        out[r] = 0.0 + avx2::dot(&w[r * k..(r + 1) * k], x);
    }
}

/// Rows `r0..r0 + 8 * NB` of `matvec_wt`, or with `QUAD` the four rows
/// `r0..r0 + 4` in the low lanes of one block: the four chains in two
/// pairs, then the `hsum4` pair sums, the `k % 4` tail and the store.
///
/// # Safety
///
/// The CPU must support AVX-512F, AVX2 and FMA; `wt` holds
/// `x.len() * out.len()` elements, every listed input is below
/// `x.len()`, and the rows written are below `out.len()`.
#[target_feature(enable = "avx512f,avx2,fma")]
#[inline]
unsafe fn wt_block<const NB: usize, const QUAD: bool>(
    wt: &[f64],
    x: &[f64],
    chains: &[&[u32]; 4],
    r0: usize,
    out: &mut [f64],
) {
    let (rows, k) = (out.len(), x.len());
    let k4 = k & !3;
    let p01 = chain_pair::<NB, QUAD>(wt, x, [chains[0], chains[1]], r0, rows);
    let p23 = chain_pair::<NB, QUAD>(wt, x, [chains[2], chains[3]], r0, rows);
    for b in 0..NB {
        // `hsum4` adds the two pair sums in one order for rows 0 and 1
        // of a quad and in the other for rows 2 and 3; addition is
        // commutative, so one add gives the same bits.
        let mut d = _mm512_add_pd(p01[b], p23[b]);
        if k4 < k {
            let mut t = _mm512_setzero_pd();
            for i in k4..k {
                let xv = _mm512_set1_pd(*x.get_unchecked(i));
                t = _mm512_add_pd(t, _mm512_mul_pd(xv, load::<QUAD>(wt.as_ptr().add(i * rows + r0 + 8 * b))));
            }
            d = _mm512_add_pd(d, t);
        }
        // The AVX2 kernel adds the quad's sums to a zeroed output.
        let o = out.as_mut_ptr().add(r0 + 8 * b);
        let v = _mm512_add_pd(_mm512_setzero_pd(), d);
        if QUAD {
            _mm512_mask_storeu_pd(o, 0x0f, v);
        } else {
            _mm512_storeu_pd(o, v);
        }
    }
}

/// Eight doubles at `p`, or with `QUAD` four and four zeros. Only the
/// quad uses a masked load, which cannot fold into the FMA.
#[target_feature(enable = "avx512f,avx2,fma")]
#[inline]
unsafe fn load<const QUAD: bool>(p: *const f64) -> __m512d {
    if QUAD {
        _mm512_maskz_loadu_pd(0x0f, p)
    } else {
        _mm512_loadu_pd(p)
    }
}

/// Two of the four chains over rows `r0..r0 + 8 * NB`, summed: `NB`
/// registers per chain, one broadcast input and one full row of `Wᵀ`
/// per step. The pair advances together while both have inputs left,
/// then the longer one finishes alone.
#[target_feature(enable = "avx512f,avx2,fma")]
#[inline]
unsafe fn chain_pair<const NB: usize, const QUAD: bool>(
    wt: &[f64],
    x: &[f64],
    chains: [&[u32]; 2],
    r0: usize,
    rows: usize,
) -> [__m512d; NB] {
    let step = |acc: &mut [__m512d; NB], i: u32| {
        let i = i as usize;
        let xv = _mm512_set1_pd(*x.get_unchecked(i));
        let p = wt.as_ptr().add(i * rows + r0);
        for (b, a) in acc.iter_mut().enumerate() {
            *a = _mm512_fmadd_pd(xv, load::<QUAD>(p.add(8 * b)), *a);
        }
    };
    let mut acc = [[_mm512_setzero_pd(); NB]; 2];
    let common = chains[0].len().min(chains[1].len());
    for j in 0..common {
        for (acc_s, chain) in acc.iter_mut().zip(chains) {
            step(acc_s, *chain.get_unchecked(j));
        }
    }
    for (acc_s, chain) in acc.iter_mut().zip(chains) {
        for &i in chain.get_unchecked(common..) {
            step(acc_s, i);
        }
    }
    core::array::from_fn(|b| _mm512_add_pd(acc[0][b], acc[1][b]))
}
