//! Runtime-dispatched SIMD kernel backends.
//!
//! The hot kernels of the verifier — `matmul_transb` (zonotope generator
//! propagation, batched PGD's forward pass), `matmul_transb_wt` (the
//! same product from a network's cached `Wᵀ`, for the zonotope
//! transformer of a checked propagation), `gemm`, `matvec`/`matvec_bias`
//! (zonotope centers, policy features), `matvec_wt` (the concrete
//! forward pass of `nn::Network::forward`, from `W` and its transpose)
//! and `matvec_transpose` (`Wᵀ y`, the backward pass, DeepPoly's
//! back-substitution, training and the Lipschitz power iteration) —
//! exist in up to four arms:
//!
//! * **scalar** — the register-tiled portable kernels (4×4 tile, eight-way
//!   unrolled dots). Always available; the reference every other arm is
//!   tested against.
//! * **avx2** — `std::arch::x86_64` AVX2+FMA kernels (4-wide `f64`,
//!   fused multiply-add, 2×4 register micro-kernel). Selected at runtime
//!   when `is_x86_feature_detected!` confirms both features.
//! * **avx512** — the AVX2 arm with an 8-wide `matmul_transb` (4×8
//!   register tile over packed right rows), an 8-wide `matmul_transb_wt`
//!   that reads `Bᵀ` (one lane per output column) and an 8-wide
//!   `matvec_wt` that reads `Wᵀ` (one lane per output row), all
//!   performing exactly the AVX2 arm's arithmetic; `gemm`, `matvec` and
//!   `matvec_bias` are the AVX2 functions. Selected ahead of `avx2` when
//!   `avx512f`, `avx2` and `fma` are all detected.
//! * **neon** — `std::arch::aarch64` NEON kernels (2-wide `f64`).
//!   NEON is architecturally guaranteed on aarch64, so it is the default
//!   arm there.
//!
//! Only the `avx512` arm reads the transpose that `matvec_wt` and
//! `matmul_transb_wt` are handed; every other arm computes them as its
//! own `matvec` and `matmul_transb`, and [`Backend::reads_transpose`]
//! says which, so callers build `Wᵀ` only where it is read. A network
//! keeps one such copy per affine layer for both.
//!
//! Selection happens **once** per process: [`active`] probes the CPU on
//! first use and caches a `&'static Backend` in a [`OnceLock`]. Setting
//! the environment variable `CHARON_FORCE_SCALAR=1` (any non-empty value
//! other than `0`) pins the scalar arm, which CI uses to keep the
//! portable fallback green.
//!
//! The scalar, AVX2 and NEON arms compute the same contraction with
//! different association orders, so results agree to a few ULP of the
//! accumulated magnitude but are not bit-identical;
//! `tests/simd_equivalence.rs` pins every arm against the scalar
//! reference within a 4-ULP accumulation bound. Two exceptions are
//! bit-exact, and the same suite checks them with `to_bits`: the
//! `avx512` arm equals the `avx2` arm on every entry, so a host's
//! verdicts and certificates do not depend on which of the two it runs;
//! `matvec_wt` and `matmul_transb_wt` return the bits of the same arm's
//! `matvec` and `matmul_transb`, so handing a kernel `Wᵀ` changes no
//! answer; and `matvec_transpose` is the scalar arm's loop (ascending
//! rows, zero entries of `y` skipped, a separate multiply and add) on
//! every arm, so gradients never depend on the arm at all.

#[cfg(target_arch = "x86_64")]
mod avx2;
#[cfg(target_arch = "x86_64")]
mod avx512;
#[cfg(target_arch = "aarch64")]
mod neon;
mod scalar;

use std::sync::OnceLock;

/// `out = A · Bᵀ` over flat row-major buffers: `a` is `m×k`, `b` is
/// `n×k`, `out` is `m×n`. Overwrites `out`.
type MatmulTransbFn = fn(&[f64], &[f64], usize, usize, usize, &mut [f64]);
/// `out = A · Bᵀ` from `b` (`n×k` row-major) and its transpose `bt`
/// (`k×n`), as [`MatmulTransbFn`] otherwise.
type MatmulTransbWtFn = fn(&[f64], &[f64], &[f64], usize, usize, usize, &mut [f64]);
/// `out = A · B` over flat row-major buffers: `a` is `m×k`, `b` is
/// `k×n`, `out` is `m×n`. Overwrites `out`.
type GemmFn = fn(&[f64], &[f64], usize, usize, usize, &mut [f64]);
/// `out = W x`: `w` is `out.len()×x.len()` row-major.
type MatvecFn = fn(&[f64], &[f64], &mut [f64]);
/// `out = W x + bias`: `w` is `out.len()×x.len()` row-major.
type MatvecBiasFn = fn(&[f64], &[f64], &[f64], &mut [f64]);
/// `out = W x` from `w` (`out.len()×x.len()` row-major) and its
/// transpose `wt`; the flag says every entry of `w` is finite.
type MatvecWtFn = fn(&[f64], &[f64], &[f64], bool, &mut [f64]);
/// `out = Wᵀ y`: `w` is `y.len()×out.len()` row-major.
type MatvecTransposeFn = fn(&[f64], &[f64], &mut [f64]);

/// A dispatch table of kernel implementations for one instruction-set
/// arm.
///
/// Obtain one with [`active`] (the best arm for this CPU), [`scalar`]
/// (the portable reference), or [`available`] (every arm this host can
/// execute, for equivalence tests and benchmarks).
pub struct Backend {
    name: &'static str,
    matmul_transb: MatmulTransbFn,
    /// `None` where the arm has no kernel that reads `Bᵀ`:
    /// [`Backend::matmul_transb_wt`] then runs `matmul_transb`.
    matmul_transb_wt: Option<MatmulTransbWtFn>,
    gemm: GemmFn,
    matvec: MatvecFn,
    matvec_bias: MatvecBiasFn,
    /// `None` where the arm has no kernel that reads `Wᵀ`:
    /// [`Backend::matvec_wt`] then runs `matvec` on `W`.
    matvec_wt: Option<MatvecWtFn>,
    matvec_transpose: MatvecTransposeFn,
}

impl Backend {
    /// Short identifier of the arm: `"scalar"`, `"avx2"`, `"avx512"`, or
    /// `"neon"`.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// `out = A · Bᵀ` on flat row-major buffers (`a`: `m×k`, `b`: `n×k`,
    /// `out`: `m×n`, fully overwritten).
    ///
    /// # Panics
    ///
    /// Panics if a buffer length disagrees with its dimensions.
    pub fn matmul_transb(&self, a: &[f64], b: &[f64], m: usize, n: usize, k: usize, out: &mut [f64]) {
        assert_eq!(a.len(), m * k, "matmul_transb: lhs buffer length");
        assert_eq!(b.len(), n * k, "matmul_transb: rhs buffer length");
        assert_eq!(out.len(), m * n, "matmul_transb: output buffer length");
        (self.matmul_transb)(a, b, m, n, k, out);
    }

    /// `out = A · Bᵀ` for a caller that also holds `bt`, the transpose of
    /// `b` (`k×n` row-major), such as the zonotope transformer of a
    /// network's affine layer, whose `Bᵀ` is the layer's `Wᵀ`. Every arm
    /// returns the bits of its own [`Backend::matmul_transb`].
    ///
    /// Only the `avx512` arm reads `bt`: one `zmm` lane per output
    /// column, one accumulator per FMA chain, so the product needs no
    /// horizontal sum and no packing of `b`. It does so where `Bᵀ` stays
    /// in L1 (at most 32 KiB) and the output is a multiple of eight and
    /// at least 16 columns wide, as on the zoo's hidden layers; other
    /// shapes run its packed kernel.
    ///
    /// # Panics
    ///
    /// Panics if a buffer length disagrees with its dimensions or
    /// `bt.len() != b.len()`.
    #[allow(clippy::too_many_arguments)]
    pub fn matmul_transb_wt(
        &self,
        a: &[f64],
        b: &[f64],
        bt: &[f64],
        m: usize,
        n: usize,
        k: usize,
        out: &mut [f64],
    ) {
        assert_eq!(a.len(), m * k, "matmul_transb_wt: lhs buffer length");
        assert_eq!(b.len(), n * k, "matmul_transb_wt: rhs buffer length");
        assert_eq!(bt.len(), b.len(), "matmul_transb_wt: transposed rhs buffer length");
        assert_eq!(out.len(), m * n, "matmul_transb_wt: output buffer length");
        match self.matmul_transb_wt {
            Some(kernel) => kernel(a, b, bt, m, n, k, out),
            None => (self.matmul_transb)(a, b, m, n, k, out),
        }
    }

    /// `out = A · B` on flat row-major buffers (`a`: `m×k`, `b`: `k×n`,
    /// `out`: `m×n`, fully overwritten).
    ///
    /// # Panics
    ///
    /// Panics if a buffer length disagrees with its dimensions.
    pub fn gemm(&self, a: &[f64], b: &[f64], m: usize, k: usize, n: usize, out: &mut [f64]) {
        assert_eq!(a.len(), m * k, "gemm: lhs buffer length");
        assert_eq!(b.len(), k * n, "gemm: rhs buffer length");
        assert_eq!(out.len(), m * n, "gemm: output buffer length");
        (self.gemm)(a, b, m, k, n, out);
    }

    /// `out = W x` (`w`: `out.len()×x.len()` row-major).
    ///
    /// # Panics
    ///
    /// Panics if `w.len() != out.len() * x.len()`.
    pub fn matvec(&self, w: &[f64], x: &[f64], out: &mut [f64]) {
        assert_eq!(w.len(), out.len() * x.len(), "matvec: weight buffer length");
        (self.matvec)(w, x, out);
    }

    /// `out = W x + bias` (`w`: `out.len()×x.len()` row-major).
    ///
    /// # Panics
    ///
    /// Panics if `w.len() != out.len() * x.len()` or
    /// `bias.len() != out.len()`.
    pub fn matvec_bias(&self, w: &[f64], x: &[f64], bias: &[f64], out: &mut [f64]) {
        assert_eq!(w.len(), out.len() * x.len(), "matvec_bias: weight buffer length");
        assert_eq!(bias.len(), out.len(), "matvec_bias: bias length");
        (self.matvec_bias)(w, x, bias, out);
    }

    /// `out = W x` for a caller that also holds `wt`, the transpose of
    /// `w` (`x.len()×out.len()` row-major), such as a network's affine
    /// layer evaluated many times. Every arm returns the bits of its own
    /// [`Backend::matvec`] of `w`.
    ///
    /// Only the `avx512` arm reads `wt`: it runs 8-wide FMAs down the
    /// rows of `Wᵀ` in the AVX2 arm's accumulation order, so one
    /// broadcast input feeds eight output rows and no horizontal sum is
    /// needed. When `finite` is true it also skips the inputs that are
    /// exactly zero (the ReLU-off neurons) and never reads their rows of
    /// `Wᵀ`, which leaves every sum unchanged. Pass `finite` only when
    /// every entry of `w` is finite: `0 · ∞` and `0 · NaN` are NaN, so a
    /// non-finite weight must meet its zero input.
    ///
    /// # Panics
    ///
    /// Panics if `w.len() != out.len() * x.len()` or
    /// `wt.len() != w.len()`.
    pub fn matvec_wt(&self, w: &[f64], wt: &[f64], x: &[f64], finite: bool, out: &mut [f64]) {
        assert_eq!(w.len(), out.len() * x.len(), "matvec_wt: weight buffer length");
        assert_eq!(wt.len(), w.len(), "matvec_wt: transposed weight buffer length");
        match self.matvec_wt {
            Some(kernel) => kernel(w, wt, x, finite, out),
            None => (self.matvec)(w, x, out),
        }
    }

    /// Whether [`Backend::matvec_wt`] and [`Backend::matmul_transb_wt`]
    /// read the transpose they are handed. Only the `avx512` arm does; on
    /// every other arm a caller that holds `Wᵀ` only for these kernels
    /// need not build it.
    pub fn reads_transpose(&self) -> bool {
        self.matvec_wt.is_some() || self.matmul_transb_wt.is_some()
    }

    /// `out = Wᵀ y` (`w`: `y.len()×out.len()` row-major, `out` fully
    /// overwritten). Every arm returns the bits of the scalar loop: rows
    /// in ascending order, zero entries of `y` skipped, each term added
    /// as a separate multiply and add. The `avx2` and `avx512` arms hold
    /// a block of `out` in registers across all rows instead of loading
    /// and storing the whole output once per row.
    ///
    /// # Panics
    ///
    /// Panics if `w.len() != y.len() * out.len()`.
    pub fn matvec_transpose(&self, w: &[f64], y: &[f64], out: &mut [f64]) {
        assert_eq!(w.len(), y.len() * out.len(), "matvec_transpose: weight buffer length");
        (self.matvec_transpose)(w, y, out);
    }

    /// Fused zonotope affine transformer: pushes a center and a flat
    /// `G×in_dim` generator matrix through the layer `y = W x + b` in one
    /// call, streaming the generator buffer through `matmul_transb`.
    ///
    /// `weights` is `out_dim×in_dim` row-major with `out_dim ==
    /// bias.len() == out_center.len()` and `in_dim == center.len()`;
    /// `gens` is `G×in_dim` and `out_gens` is `G×out_dim`, both fully
    /// overwritten.
    ///
    /// # Panics
    ///
    /// Panics if any buffer length disagrees with the dimensions implied
    /// by `center`/`bias`.
    pub fn zonotope_affine(
        &self,
        weights: &[f64],
        bias: &[f64],
        center: &[f64],
        gens: &[f64],
        out_center: &mut [f64],
        out_gens: &mut [f64],
    ) {
        let in_dim = center.len();
        let out_dim = bias.len();
        assert_eq!(weights.len(), out_dim * in_dim, "zonotope_affine: weight buffer length");
        assert_eq!(out_center.len(), out_dim, "zonotope_affine: center output length");
        let num_gens = gens
            .len()
            .checked_div(in_dim)
            .or_else(|| out_gens.len().checked_div(out_dim))
            .unwrap_or(0);
        assert_eq!(gens.len(), num_gens * in_dim, "zonotope_affine: generator buffer length");
        assert_eq!(out_gens.len(), num_gens * out_dim, "zonotope_affine: generator output length");
        (self.matvec_bias)(weights, center, bias, out_center);
        (self.matmul_transb)(gens, weights, num_gens, out_dim, in_dim, out_gens);
    }
}

static ACTIVE: OnceLock<&'static Backend> = OnceLock::new();

/// The kernel arm selected for this process.
///
/// The first call probes `CHARON_FORCE_SCALAR` and the CPU's feature
/// flags; the choice is cached for the lifetime of the process, so the
/// per-call dispatch cost is one relaxed atomic load and an indirect
/// call.
pub fn active() -> &'static Backend {
    ACTIVE.get_or_init(|| if force_scalar() { scalar() } else { detect() })
}

/// The portable scalar arm (register-tiled, no `std::arch`).
pub fn scalar() -> &'static Backend {
    &scalar::BACKEND
}

/// Every arm this host can execute, scalar first and the arm that
/// detection prefers last.
///
/// Equivalence tests and benchmarks iterate this to cover all dispatch
/// arms reachable on the machine, independent of which one [`active`]
/// picked.
pub fn available() -> Vec<&'static Backend> {
    let mut arms = vec![scalar()];
    #[cfg(target_arch = "x86_64")]
    if has_avx2_fma() {
        arms.push(&avx2::BACKEND);
        if std::arch::is_x86_feature_detected!("avx512f") {
            arms.push(&avx512::BACKEND);
        }
    }
    #[cfg(target_arch = "aarch64")]
    arms.push(&neon::BACKEND);
    arms
}

/// True when `CHARON_FORCE_SCALAR` is set to a non-empty value other
/// than `0`.
fn force_scalar() -> bool {
    std::env::var_os("CHARON_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != "0")
}

#[cfg(target_arch = "x86_64")]
fn has_avx2_fma() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

#[cfg(target_arch = "x86_64")]
fn detect() -> &'static Backend {
    if !has_avx2_fma() {
        scalar()
    } else if std::arch::is_x86_feature_detected!("avx512f") {
        &avx512::BACKEND
    } else {
        &avx2::BACKEND
    }
}

#[cfg(target_arch = "aarch64")]
fn detect() -> &'static Backend {
    &neon::BACKEND
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
fn detect() -> &'static Backend {
    scalar()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_arm_is_always_available() {
        assert_eq!(available()[0].name(), "scalar");
    }

    #[test]
    fn active_arm_is_among_available() {
        let name = active().name();
        assert!(available().iter().any(|b| b.name() == name));
    }

    #[test]
    fn active_arm_is_the_preferred_available_one() {
        let want = if force_scalar() { "scalar" } else { available().last().unwrap().name() };
        assert_eq!(active().name(), want);
    }

    #[test]
    fn zonotope_affine_matches_separate_calls() {
        let (out_dim, in_dim, gens_n) = (5, 7, 3);
        let weights: Vec<f64> = (0..out_dim * in_dim).map(|i| (i as f64 * 0.37).sin()).collect();
        let bias: Vec<f64> = (0..out_dim).map(|i| i as f64 * 0.25 - 0.5).collect();
        let center: Vec<f64> = (0..in_dim).map(|i| (i as f64 * 0.11).cos()).collect();
        let gens: Vec<f64> = (0..gens_n * in_dim).map(|i| (i as f64 * 0.53).sin()).collect();
        for backend in available() {
            let mut fused_c = vec![f64::NAN; out_dim];
            let mut fused_g = vec![f64::NAN; gens_n * out_dim];
            backend.zonotope_affine(&weights, &bias, &center, &gens, &mut fused_c, &mut fused_g);
            let mut sep_c = vec![f64::NAN; out_dim];
            backend.matvec_bias(&weights, &center, &bias, &mut sep_c);
            let mut sep_g = vec![f64::NAN; gens_n * out_dim];
            backend.matmul_transb(&gens, &weights, gens_n, out_dim, in_dim, &mut sep_g);
            assert_eq!(fused_c, sep_c, "{} center", backend.name());
            assert_eq!(fused_g, sep_g, "{} generators", backend.name());
        }
    }

    #[test]
    fn zero_dimension_edge_cases_do_not_panic() {
        for backend in available() {
            let mut out = [f64::NAN; 3];
            backend.matvec(&[], &[], &mut out);
            assert_eq!(out, [0.0; 3], "{}", backend.name());
            let mut out = [f64::NAN; 2];
            backend.matvec_bias(&[], &[], &[1.0, 2.0], &mut out);
            assert_eq!(out, [1.0, 2.0], "{}", backend.name());
            let mut out = [f64::NAN; 6];
            backend.matmul_transb(&[], &[], 2, 3, 0, &mut out);
            assert_eq!(out, [0.0; 6], "{}", backend.name());
            let mut out = [f64::NAN; 6];
            backend.gemm(&[], &[], 2, 0, 3, &mut out);
            assert_eq!(out, [0.0; 6], "{}", backend.name());
            let mut out: [f64; 0] = [];
            backend.matmul_transb(&[1.0, 2.0], &[], 1, 0, 2, &mut out);
            backend.gemm(&[1.0, 2.0], &[], 1, 2, 0, &mut out);
        }
    }
}
