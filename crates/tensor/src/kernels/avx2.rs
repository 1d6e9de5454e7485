//! AVX2 + FMA kernel arm (`x86_64`).
//!
//! Four-wide `f64` vectors with fused multiply-add. The workhorse is a
//! 2×4 register micro-kernel for `matmul_transb`: two left rows against
//! four right rows needs 8 accumulator vectors, 2 left broadcasts-worth
//! of loads, and 4 right loads per step — 14 of the 16 architectural
//! `ymm` registers, the largest tile that does not spill. The four
//! per-row accumulators of each left row are reduced with the classic
//! `hadd`/`permute2f128`/`blend` transpose, producing four finished dot
//! products in a single vector store.
//!
//! Every function in this module is compiled with
//! `#[target_feature(enable = "avx2,fma")]` and reached only through the
//! safe dispatch wrappers in the [`BACKEND`] table or from the `avx512`
//! arm, which reuses them for its `gemm` and matvecs and for the rows
//! and columns its own kernels leave over; the calls are
//! sound because either table is only ever selected after
//! `is_x86_feature_detected!` confirmed both features (see
//! `super::detect`).

use core::arch::x86_64::*;
use core::mem::MaybeUninit;

use super::Backend;

pub(super) static BACKEND: Backend = Backend {
    name: "avx2",
    matmul_transb,
    matmul_transb_wt: None,
    gemm,
    matvec,
    matvec_bias,
    matvec_wt: None,
    matvec_transpose,
};

fn matmul_transb(a: &[f64], b: &[f64], m: usize, n: usize, k: usize, out: &mut [f64]) {
    // Safety: the avx2 table is only selected after feature detection.
    unsafe { matmul_transb_impl(a, b, m, n, k, out) }
}

pub(super) fn gemm(a: &[f64], b: &[f64], m: usize, k: usize, n: usize, out: &mut [f64]) {
    // SAFETY: the avx2 and avx512 tables are only selected after
    // feature detection confirmed avx2 and fma.
    unsafe { gemm_impl(a, b, m, k, n, out) }
}

pub(super) fn matvec(w: &[f64], x: &[f64], out: &mut [f64]) {
    // SAFETY: the avx2 and avx512 tables are only selected after
    // feature detection confirmed avx2 and fma.
    unsafe { matvec_impl(w, x, out) }
}

pub(super) fn matvec_bias(w: &[f64], x: &[f64], bias: &[f64], out: &mut [f64]) {
    // SAFETY: the avx2 and avx512 tables are only selected after
    // feature detection confirmed avx2 and fma.
    unsafe { matvec_bias_impl(w, x, bias, out) }
}

pub(super) fn matvec_transpose(w: &[f64], y: &[f64], out: &mut [f64]) {
    // SAFETY: the avx2 and avx512 tables are only selected after feature
    // detection confirmed avx2 and fma, and `Backend::matvec_transpose`
    // asserted `w.len()`.
    unsafe { matvec_transpose_impl(w, y, out) }
}

/// The k-tile of `matmul_transb`: each output is the sum, in order, of
/// one reduced dot product per 512-wide slice of `k`. The `avx512` arm
/// tiles `k` the same way, which is part of what keeps its outputs
/// bit-identical to this arm's.
pub(super) const KB: usize = 512;

/// `out = A · Bᵀ` with the 2×4 micro-kernel and two levels of cache
/// blocking: a 512-wide k-tile (L1, as in the scalar arm) and a 64-row
/// block of `b` (`JB·KB·8 = 256 KiB`, L2-resident). Without the
/// j-block, every pair of `a` rows re-streams the whole `b` operand
/// from memory and the kernel is bandwidth-bound on large shapes (a
/// 1024×1024 weight matrix is 8 MiB); with it, each `b` tile is pulled
/// from RAM once per k-tile and reused across the full `a` sweep.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA, and the buffers must hold `m×k`,
/// `n×k` and `m×n` elements.
#[target_feature(enable = "avx2,fma")]
pub(super) unsafe fn matmul_transb_impl(a: &[f64], b: &[f64], m: usize, n: usize, k: usize, out: &mut [f64]) {
    out.fill(0.0);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    const JB: usize = 64;
    let mut k0 = 0;
    while k0 < k {
        let kb = KB.min(k - k0);
        let arow = |r: usize| &a[r * k + k0..r * k + k0 + kb];
        let brow = |r: usize| &b[r * k + k0..r * k + k0 + kb];
        let mut j0 = 0;
        while j0 < n {
            let jb = JB.min(n - j0);
            let j4 = j0 + (jb & !3);
            let jend = j0 + jb;
            let mut i = 0;
            while i + 2 <= m {
                let (a0, a1) = (arow(i), arow(i + 1));
                let mut j = j0;
                while j < j4 {
                    let (d0, d1) = tile2x4(a0, a1, brow(j), brow(j + 1), brow(j + 2), brow(j + 3));
                    accumulate4(&mut out[i * n + j..i * n + j + 4], d0);
                    accumulate4(&mut out[(i + 1) * n + j..(i + 1) * n + j + 4], d1);
                    j += 4;
                }
                while j < jend {
                    let bj = brow(j);
                    out[i * n + j] += dot(a0, bj);
                    out[(i + 1) * n + j] += dot(a1, bj);
                    j += 1;
                }
                i += 2;
            }
            if i < m {
                let a0 = arow(i);
                let mut j = j0;
                while j < j4 {
                    let d = dot1x4(a0, brow(j), brow(j + 1), brow(j + 2), brow(j + 3));
                    accumulate4(&mut out[i * n + j..i * n + j + 4], d);
                    j += 4;
                }
                while j < jend {
                    out[i * n + j] += dot(a0, brow(j));
                    j += 1;
                }
            }
            j0 = jend;
        }
        k0 += kb;
    }
}

/// `out = A · B`: each nonzero `a[i][kk]` is broadcast and FMA'd along
/// the contiguous rows of `b` and `out`, four lanes at a time.
#[target_feature(enable = "avx2,fma")]
unsafe fn gemm_impl(a: &[f64], b: &[f64], m: usize, k: usize, n: usize, out: &mut [f64]) {
    out.fill(0.0);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let n4 = n & !3;
    for (arow, orow) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
        for (kk, &aik) in arow.iter().enumerate() {
            if aik == 0.0 {
                continue;
            }
            let va = _mm256_set1_pd(aik);
            let brow = &b[kk * n..(kk + 1) * n];
            let mut j = 0;
            while j < n4 {
                let vo = _mm256_loadu_pd(orow.as_ptr().add(j));
                let vb = _mm256_loadu_pd(brow.as_ptr().add(j));
                _mm256_storeu_pd(orow.as_mut_ptr().add(j), _mm256_fmadd_pd(va, vb, vo));
                j += 4;
            }
            while j < n {
                orow[j] += aik * brow[j];
                j += 1;
            }
        }
    }
}

/// `out = W x`: row quads share every `x` load; columns are blocked so
/// `x` and the four weight streams stay L1-resident on very wide rows.
#[target_feature(enable = "avx2,fma")]
unsafe fn matvec_impl(w: &[f64], x: &[f64], out: &mut [f64]) {
    let k = x.len();
    if k == 0 {
        out.fill(0.0);
        return;
    }
    out.fill(0.0);
    matvec_accumulate(w, x, out);
}

/// `out = W x + bias`, the same column-blocked row-quad loop seeded with
/// the bias instead of zero.
#[target_feature(enable = "avx2,fma")]
unsafe fn matvec_bias_impl(w: &[f64], x: &[f64], bias: &[f64], out: &mut [f64]) {
    let k = x.len();
    if k == 0 {
        out.copy_from_slice(bias);
        return;
    }
    out.copy_from_slice(bias);
    matvec_accumulate(w, x, out);
}

/// Column block for the matvec kernels: 2 KiB of `x` (16 KiB) plus four
/// weight streams stays comfortably inside a 32 KiB L1. The `avx512`
/// arm's `matvec_wt` reproduces one such block, so it hands wider inputs
/// back to [`matvec`].
pub(super) const MV_KB: usize = 2048;

/// `out += W x`, 4 rows at a time with a column-blocked outer loop.
///
/// Each quad of rows shares one `x` load per step (quartering the load
/// traffic of four independent dots), and the column blocking revisits
/// the same `x` window for every row quad before moving on, which is
/// what fixes the memory-bound single-pass behaviour of the old
/// `matvec_bias` on 1024×1024 shapes and larger.
#[target_feature(enable = "avx2,fma")]
unsafe fn matvec_accumulate(w: &[f64], x: &[f64], out: &mut [f64]) {
    let k = x.len();
    let rows = out.len();
    let mut k0 = 0;
    while k0 < k {
        let kb = MV_KB.min(k - k0);
        let xb = &x[k0..k0 + kb];
        let wrow = |r: usize| &w[r * k + k0..r * k + k0 + kb];
        let mut r = 0;
        while r + 4 <= rows {
            let d = dot1x4(xb, wrow(r), wrow(r + 1), wrow(r + 2), wrow(r + 3));
            accumulate4(&mut out[r..r + 4], d);
            r += 4;
        }
        while r < rows {
            out[r] += dot(wrow(r), xb);
            r += 1;
        }
        k0 += kb;
    }
}

/// `out[0..4] += v`, unaligned.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA, and `out` must hold at least four
/// elements.
#[target_feature(enable = "avx2,fma")]
#[inline]
pub(super) unsafe fn accumulate4(out: &mut [f64], v: __m256d) {
    let cur = _mm256_loadu_pd(out.as_ptr());
    _mm256_storeu_pd(out.as_mut_ptr(), _mm256_add_pd(cur, v));
}

/// Transposing reduction: four 4-lane accumulators become one vector
/// holding their four horizontal sums `[Σv0, Σv1, Σv2, Σv3]`.
#[target_feature(enable = "avx2,fma")]
#[inline]
unsafe fn hsum4(v0: __m256d, v1: __m256d, v2: __m256d, v3: __m256d) -> __m256d {
    // hadd pairs lanes within 128-bit halves:
    //   t01 = [v0a+v0b, v1a+v1b, v0c+v0d, v1c+v1d]
    let t01 = _mm256_hadd_pd(v0, v1);
    let t23 = _mm256_hadd_pd(v2, v3);
    // Swap the middle 128-bit halves and add: every lane ends up with
    // the full four-lane sum of its original vector.
    let swapped = _mm256_permute2f128_pd(t01, t23, 0x21);
    let blended = _mm256_blend_pd(t01, t23, 0b1100);
    _mm256_add_pd(swapped, blended)
}

/// Two left rows against four right rows: eight FMA accumulator chains,
/// reduced to two vectors of four dot products each.
#[target_feature(enable = "avx2,fma")]
#[inline]
unsafe fn tile2x4(
    a0: &[f64],
    a1: &[f64],
    b0: &[f64],
    b1: &[f64],
    b2: &[f64],
    b3: &[f64],
) -> (__m256d, __m256d) {
    let kb = a0.len();
    let kb4 = kb & !3;
    let mut acc00 = _mm256_setzero_pd();
    let mut acc01 = _mm256_setzero_pd();
    let mut acc02 = _mm256_setzero_pd();
    let mut acc03 = _mm256_setzero_pd();
    let mut acc10 = _mm256_setzero_pd();
    let mut acc11 = _mm256_setzero_pd();
    let mut acc12 = _mm256_setzero_pd();
    let mut acc13 = _mm256_setzero_pd();
    let mut o = 0;
    while o < kb4 {
        let va0 = _mm256_loadu_pd(a0.as_ptr().add(o));
        let va1 = _mm256_loadu_pd(a1.as_ptr().add(o));
        let vb0 = _mm256_loadu_pd(b0.as_ptr().add(o));
        let vb1 = _mm256_loadu_pd(b1.as_ptr().add(o));
        let vb2 = _mm256_loadu_pd(b2.as_ptr().add(o));
        let vb3 = _mm256_loadu_pd(b3.as_ptr().add(o));
        acc00 = _mm256_fmadd_pd(va0, vb0, acc00);
        acc01 = _mm256_fmadd_pd(va0, vb1, acc01);
        acc02 = _mm256_fmadd_pd(va0, vb2, acc02);
        acc03 = _mm256_fmadd_pd(va0, vb3, acc03);
        acc10 = _mm256_fmadd_pd(va1, vb0, acc10);
        acc11 = _mm256_fmadd_pd(va1, vb1, acc11);
        acc12 = _mm256_fmadd_pd(va1, vb2, acc12);
        acc13 = _mm256_fmadd_pd(va1, vb3, acc13);
        o += 4;
    }
    let mut d0 = hsum4(acc00, acc01, acc02, acc03);
    let mut d1 = hsum4(acc10, acc11, acc12, acc13);
    if kb4 < kb {
        let mut t0 = [0.0f64; 4];
        let mut t1 = [0.0f64; 4];
        for o in kb4..kb {
            let (x0, x1) = (a0[o], a1[o]);
            t0[0] += x0 * b0[o];
            t0[1] += x0 * b1[o];
            t0[2] += x0 * b2[o];
            t0[3] += x0 * b3[o];
            t1[0] += x1 * b0[o];
            t1[1] += x1 * b1[o];
            t1[2] += x1 * b2[o];
            t1[3] += x1 * b3[o];
        }
        d0 = _mm256_add_pd(d0, _mm256_loadu_pd(t0.as_ptr()));
        d1 = _mm256_add_pd(d1, _mm256_loadu_pd(t1.as_ptr()));
    }
    (d0, d1)
}

/// One shared row against four rows: the matvec workhorse. Returns the
/// four dot products as one vector.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA, and each of `b0..b3` must be at
/// least as long as `a`.
#[target_feature(enable = "avx2,fma")]
#[inline]
pub(super) unsafe fn dot1x4(a: &[f64], b0: &[f64], b1: &[f64], b2: &[f64], b3: &[f64]) -> __m256d {
    let kb = a.len();
    let kb4 = kb & !3;
    let mut acc0 = _mm256_setzero_pd();
    let mut acc1 = _mm256_setzero_pd();
    let mut acc2 = _mm256_setzero_pd();
    let mut acc3 = _mm256_setzero_pd();
    let mut o = 0;
    while o < kb4 {
        let va = _mm256_loadu_pd(a.as_ptr().add(o));
        acc0 = _mm256_fmadd_pd(va, _mm256_loadu_pd(b0.as_ptr().add(o)), acc0);
        acc1 = _mm256_fmadd_pd(va, _mm256_loadu_pd(b1.as_ptr().add(o)), acc1);
        acc2 = _mm256_fmadd_pd(va, _mm256_loadu_pd(b2.as_ptr().add(o)), acc2);
        acc3 = _mm256_fmadd_pd(va, _mm256_loadu_pd(b3.as_ptr().add(o)), acc3);
        o += 4;
    }
    let mut d = hsum4(acc0, acc1, acc2, acc3);
    if kb4 < kb {
        let mut t = [0.0f64; 4];
        for o in kb4..kb {
            let av = a[o];
            t[0] += av * b0[o];
            t[1] += av * b1[o];
            t[2] += av * b2[o];
            t[3] += av * b3[o];
        }
        d = _mm256_add_pd(d, _mm256_loadu_pd(t.as_ptr()));
    }
    d
}

/// Single dot product with four vector accumulator chains (16 elements
/// in flight), used for remainder rows and columns.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA, and `b` must be at least as long
/// as `a`.
#[target_feature(enable = "avx2,fma")]
#[inline]
pub(super) unsafe fn dot(a: &[f64], b: &[f64]) -> f64 {
    let kb = a.len();
    let kb16 = kb & !15;
    let mut acc0 = _mm256_setzero_pd();
    let mut acc1 = _mm256_setzero_pd();
    let mut acc2 = _mm256_setzero_pd();
    let mut acc3 = _mm256_setzero_pd();
    let mut o = 0;
    while o < kb16 {
        acc0 = _mm256_fmadd_pd(
            _mm256_loadu_pd(a.as_ptr().add(o)),
            _mm256_loadu_pd(b.as_ptr().add(o)),
            acc0,
        );
        acc1 = _mm256_fmadd_pd(
            _mm256_loadu_pd(a.as_ptr().add(o + 4)),
            _mm256_loadu_pd(b.as_ptr().add(o + 4)),
            acc1,
        );
        acc2 = _mm256_fmadd_pd(
            _mm256_loadu_pd(a.as_ptr().add(o + 8)),
            _mm256_loadu_pd(b.as_ptr().add(o + 8)),
            acc2,
        );
        acc3 = _mm256_fmadd_pd(
            _mm256_loadu_pd(a.as_ptr().add(o + 12)),
            _mm256_loadu_pd(b.as_ptr().add(o + 12)),
            acc3,
        );
        o += 16;
    }
    let kb4 = kb & !3;
    while o < kb4 {
        acc0 = _mm256_fmadd_pd(
            _mm256_loadu_pd(a.as_ptr().add(o)),
            _mm256_loadu_pd(b.as_ptr().add(o)),
            acc0,
        );
        o += 4;
    }
    let v = _mm256_add_pd(_mm256_add_pd(acc0, acc1), _mm256_add_pd(acc2, acc3));
    let hi = _mm256_extractf128_pd(v, 1);
    let lo = _mm256_castpd256_pd128(v);
    let pair = _mm_add_pd(lo, hi);
    let mut sum = _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)));
    while o < kb {
        sum += a[o] * b[o];
        o += 1;
    }
    sum
}

/// Row indices gathered per sweep of `matvec_transpose`'s output.
const NZ_ROWS: usize = 256;

/// Writes into `idx` the indices `offset + r` of the nonzero entries
/// `y[r]` (NaN counts as nonzero), ascending, and returns them.
/// Branch-free: each slot is written, and kept only if its entry is
/// nonzero.
///
/// # Panics
///
/// Panics if `y` is longer than `idx`.
#[inline]
fn gather_nonzero<'a>(
    y: &[f64],
    offset: usize,
    idx: &'a mut [MaybeUninit<usize>; NZ_ROWS],
) -> &'a [usize] {
    assert!(y.len() <= NZ_ROWS, "gather_nonzero: chunk longer than the index buffer");
    let mut n = 0;
    for (r, &v) in y.iter().enumerate() {
        // SAFETY: `n <= r < y.len() <= NZ_ROWS`.
        unsafe { idx.get_unchecked_mut(n) }.write(offset + r);
        n += usize::from(v != 0.0);
    }
    // SAFETY: the first `n` slots were written, and `MaybeUninit<usize>`
    // has the layout of `usize`.
    unsafe { &*(&idx[..n] as *const [MaybeUninit<usize>] as *const [usize]) }
}

/// `out = Wᵀ y` with blocks of up to 32 output columns held in eight
/// accumulator registers while the nonzero rows of `y` stream past, a
/// chunk of [`NZ_ROWS`] at a time. Each column adds its terms in
/// ascending row order with a separate multiply and add, exactly the
/// scalar arm's loop, so the bits are the same; the `cols % 4` tail
/// columns run that loop column by column.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA, and `w` must hold
/// `y.len() * out.len()` elements.
#[target_feature(enable = "avx2,fma")]
unsafe fn matvec_transpose_impl(w: &[f64], y: &[f64], out: &mut [f64]) {
    let cols = out.len();
    out.fill(0.0);
    if cols == 0 {
        return;
    }
    let c4 = cols & !3;
    let mut idx = [MaybeUninit::uninit(); NZ_ROWS];
    for (chunk, part) in y.chunks(NZ_ROWS).enumerate() {
        let rows = gather_nonzero(part, chunk * NZ_ROWS, &mut idx);
        let mut c0 = 0;
        while c0 < c4 {
            let nb = ((c4 - c0) / 4).min(8);
            match nb {
                8 => transpose_block::<8>(w, y, rows, c0, out),
                7 => transpose_block::<7>(w, y, rows, c0, out),
                6 => transpose_block::<6>(w, y, rows, c0, out),
                5 => transpose_block::<5>(w, y, rows, c0, out),
                4 => transpose_block::<4>(w, y, rows, c0, out),
                3 => transpose_block::<3>(w, y, rows, c0, out),
                2 => transpose_block::<2>(w, y, rows, c0, out),
                _ => transpose_block::<1>(w, y, rows, c0, out),
            }
            c0 += 4 * nb;
        }
        for c in c4..cols {
            let mut o = out[c];
            for &r in rows {
                o += y[r] * w[r * cols + c];
            }
            out[c] = o;
        }
    }
}

/// Columns `c0..c0 + 4 * NB` of `out += Wᵀ y` over the rows listed in
/// `rows`: `NB` accumulators loaded from `out`, one broadcast of `y[r]`
/// per row, stored back once.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA; `c0 + 4 * NB <= out.len()`, every
/// listed row is below `y.len()`, and `w` holds `y.len() * out.len()`
/// elements.
#[target_feature(enable = "avx2,fma")]
#[inline]
unsafe fn transpose_block<const NB: usize>(w: &[f64], y: &[f64], rows: &[usize], c0: usize, out: &mut [f64]) {
    let cols = out.len();
    let o = out.as_mut_ptr().add(c0);
    let mut acc = [_mm256_setzero_pd(); NB];
    for (b, a) in acc.iter_mut().enumerate() {
        *a = _mm256_loadu_pd(o.add(4 * b));
    }
    for &r in rows {
        let yv = _mm256_set1_pd(*y.get_unchecked(r));
        let p = w.as_ptr().add(r * cols + c0);
        for (b, a) in acc.iter_mut().enumerate() {
            *a = _mm256_add_pd(*a, _mm256_mul_pd(yv, _mm256_loadu_pd(p.add(4 * b))));
        }
    }
    for (b, a) in acc.iter().enumerate() {
        _mm256_storeu_pd(o.add(4 * b), *a);
    }
}
