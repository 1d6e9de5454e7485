//! Slice-based vector operations.
//!
//! Vectors throughout the workspace are plain `Vec<f64>` / `&[f64]`; this
//! module collects the handful of BLAS-level-1 style helpers they need.

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// ```
/// assert_eq!(tensor::ops::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// Computes `y += alpha * x` in place.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * xi;
    }
}

/// Element-wise difference `a - b` as a new vector.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "sub: length mismatch");
    a.iter().zip(b.iter()).map(|(x, y)| x - y).collect()
}

/// Element-wise sum `a + b` as a new vector.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn add(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "add: length mismatch");
    a.iter().zip(b.iter()).map(|(x, y)| x + y).collect()
}

/// Scales a vector by `alpha`, returning a new vector.
pub fn scale(alpha: f64, a: &[f64]) -> Vec<f64> {
    a.iter().map(|x| alpha * x).collect()
}

/// Euclidean (L2) norm.
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Infinity norm (maximum absolute component).
pub fn norm_inf(a: &[f64]) -> f64 {
    a.iter().fold(0.0, |m, x| m.max(x.abs()))
}

/// Whether any component is NaN.
///
/// Each fixed-size chunk is folded without a short circuit, so the
/// compiler compares several lanes per instruction; the scan stops at the
/// first chunk that holds a NaN. The poisoning checks of the abstract
/// domains run it over whole generator matrices.
///
/// ```
/// assert!(!tensor::ops::has_nan(&[1.0, f64::INFINITY, -0.0]));
/// assert!(tensor::ops::has_nan(&[1.0, f64::NAN]));
/// ```
pub fn has_nan(a: &[f64]) -> bool {
    const CHUNK: usize = 32;
    let any = |c: &[f64]| c.iter().fold(false, |acc, x| acc | x.is_nan());
    let mut chunks = a.chunks_exact(CHUNK);
    chunks.any(any) || any(chunks.remainder())
}

/// Euclidean distance between two points.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn distance(a: &[f64], b: &[f64]) -> f64 {
    norm2(&sub(a, b))
}

/// Index of the maximum element. Ties resolve to the smallest index.
///
/// # Panics
///
/// Panics if the slice is empty.
pub fn argmax(a: &[f64]) -> usize {
    assert!(!a.is_empty(), "argmax of empty slice");
    let mut best = 0;
    for (i, v) in a.iter().enumerate().skip(1) {
        if *v > a[best] {
            best = i;
        }
    }
    best
}

/// Index of the minimum element. Ties resolve to the smallest index.
///
/// # Panics
///
/// Panics if the slice is empty.
pub fn argmin(a: &[f64]) -> usize {
    assert!(!a.is_empty(), "argmin of empty slice");
    let mut best = 0;
    for (i, v) in a.iter().enumerate().skip(1) {
        if *v < a[best] {
            best = i;
        }
    }
    best
}

/// Clamps every component of `x` into `[lo[i], hi[i]]` in place.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn clamp_box(x: &mut [f64], lo: &[f64], hi: &[f64]) {
    assert_eq!(x.len(), lo.len(), "clamp_box: length mismatch");
    assert_eq!(x.len(), hi.len(), "clamp_box: length mismatch");
    for i in 0..x.len() {
        x[i] = x[i].clamp(lo[i], hi[i]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, -1.0], &mut y);
        assert_eq!(y, vec![3.0, -1.0]);
    }

    #[test]
    fn argmax_prefers_first_on_tie() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), 1);
        assert_eq!(argmin(&[1.0, -3.0, -3.0]), 1);
    }

    #[test]
    fn clamp_box_clamps() {
        let mut x = vec![-2.0, 0.5, 9.0];
        clamp_box(&mut x, &[0.0, 0.0, 0.0], &[1.0, 1.0, 1.0]);
        assert_eq!(x, vec![0.0, 0.5, 1.0]);
    }

    #[test]
    fn has_nan_finds_a_nan_at_every_position() {
        for len in [0, 1, 31, 32, 33, 64, 100] {
            let clean: Vec<f64> = (0..len)
                .map(|i| if i % 3 == 0 { f64::INFINITY } else { -(i as f64) })
                .collect();
            assert!(!has_nan(&clean), "len {len}: no NaN");
            for at in 0..len {
                let mut poisoned = clean.clone();
                poisoned[at] = f64::NAN;
                assert!(has_nan(&poisoned), "len {len}: NaN at {at}");
            }
        }
    }

    proptest! {
        #[test]
        fn dot_is_commutative(a in proptest::collection::vec(-1e3f64..1e3, 1..16)) {
            let b: Vec<f64> = a.iter().rev().cloned().collect();
            prop_assert!((dot(&a, &b) - dot(&b, &a)).abs() < 1e-9);
        }

        #[test]
        fn norm2_triangle_inequality(
            a in proptest::collection::vec(-1e3f64..1e3, 4),
            b in proptest::collection::vec(-1e3f64..1e3, 4),
        ) {
            prop_assert!(norm2(&add(&a, &b)) <= norm2(&a) + norm2(&b) + 1e-9);
        }

        #[test]
        fn clamp_box_is_idempotent(x in proptest::collection::vec(-10.0f64..10.0, 5)) {
            let lo = vec![-1.0; 5];
            let hi = vec![1.0; 5];
            let mut once = x.clone();
            clamp_box(&mut once, &lo, &hi);
            let mut twice = once.clone();
            clamp_box(&mut twice, &lo, &hi);
            prop_assert_eq!(once, twice);
        }
    }
}
