use nn::{AffineLayer, MaxPoolLayer};
use tensor::Matrix;

use crate::{AbstractElement, Bounds, ReluCoordOps, Workspace};

/// The zonotope abstract domain.
///
/// A zonotope is the affine image of a hypercube of noise symbols:
/// `{ c + Σ_k ε_k g_k | ε_k ∈ [-1, 1] }`. Affine layers are handled
/// exactly; ReLU uses the sound λ-relaxation (one fresh noise symbol per
/// unstable neuron), as in the AI2/DeepZ line of work.
///
/// Generators are stored as a single flat row-major `Matrix` (one row per
/// noise symbol), so the affine transformer is one blocked `G · Wᵀ` matmul
/// plus one fused center matvec instead of a per-generator `matvec` over a
/// `Vec<Vec<f64>>`.
///
/// Unlike intervals, zonotopes are *relational*: the margin check
/// [`AbstractElement::margin_lower_bound`] evaluates `y_t - y_j` on the
/// shared noise symbols, which is what lets the domain verify Example 2.3
/// of the paper while the interval domain cannot.
#[derive(Debug, Clone, PartialEq)]
pub struct Zonotope {
    center: Vec<f64>,
    /// Generator rows, shape `num_generators × center.len()`.
    gens: Matrix,
}

impl Zonotope {
    /// The center point of the zonotope.
    pub fn center(&self) -> &[f64] {
        &self.center
    }

    /// The generator rows as a flat `G × dim` matrix.
    pub fn generator_matrix(&self) -> &Matrix {
        &self.gens
    }

    /// Iterator over generator rows (each of length `dim`).
    pub fn generator_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.gens.rows_iter()
    }

    /// Number of noise symbols currently in use.
    pub fn num_generators(&self) -> usize {
        self.gens.rows()
    }

    /// Total absolute generator weight of coordinate `i` (its deviation
    /// radius).
    fn radius(&self, i: usize) -> f64 {
        self.gens.rows_iter().map(|g| g[i].abs()).sum()
    }

    /// The lower and upper bound of every coordinate, each generator
    /// subtracted from (added to) the centre in row order. Unlike
    /// [`AbstractElement::bounds`] it accepts `∞ - ∞ = NaN` bounds, which
    /// an element without NaN has when a centre entry and its radius are
    /// both infinite.
    fn bound_vecs(&self) -> (Vec<f64>, Vec<f64>) {
        let mut lower = self.center.clone();
        let mut upper = self.center.clone();
        for g in self.gens.rows_iter() {
            for (i, v) in g.iter().enumerate() {
                let a = v.abs();
                lower[i] -= a;
                upper[i] += a;
            }
        }
        (lower, upper)
    }

    /// Removes generator rows that are identically zero (keeps propagation
    /// cheap after many ReLU layers). Called after ReLU / order reduction,
    /// where zero rows actually appear — *not* after every affine layer.
    fn prune_zero_generators(&mut self) {
        let n = self.gens.cols();
        let rows = self.gens.rows();
        let mut data = std::mem::replace(&mut self.gens, Matrix::zeros(0, n)).into_vec();
        let mut kept = 0usize;
        for r in 0..rows {
            let src = r * n;
            if data[src..src + n].iter().any(|v| *v != 0.0) {
                if kept != r {
                    data.copy_within(src..src + n, kept * n);
                }
                kept += 1;
            }
        }
        data.truncate(kept * n);
        self.gens = Matrix::from_vec(kept, n, data);
    }

    /// Order reduction: if more than `max_generators` noise symbols are in
    /// use, replaces the smallest ones (by L1 mass) with per-coordinate
    /// box generators. This is the standard Girard-style reduction: the
    /// result is a sound enlargement (the box generated by the removed
    /// symbols contains their Minkowski sum), trading relational precision
    /// for bounded representation size.
    ///
    /// Deep networks add one generator per unstable ReLU; without
    /// reduction the cost of each affine transformer grows linearly in
    /// network depth.
    pub fn reduce_order(&mut self, max_generators: usize) {
        if self.gens.rows() <= max_generators {
            return;
        }
        // Sort indices by generator mass, keep the heaviest.
        let mass: Vec<f64> = self
            .gens
            .rows_iter()
            .map(|g| g.iter().map(|v| v.abs()).sum())
            .collect();
        let mut order: Vec<usize> = (0..self.gens.rows()).collect();
        order.sort_by(|&a, &b| mass[b].total_cmp(&mass[a]));
        // Budget for kept relational generators: leave room for the box
        // generators that absorb the rest.
        let dim = self.dim();
        let keep = max_generators
            .saturating_sub(dim)
            .max(dim.min(max_generators) / 2);
        let (kept_idx, dropped_idx) = order.split_at(keep.min(order.len()));

        let mut absorbed = vec![0.0; dim];
        for &k in dropped_idx {
            for (acc, v) in absorbed.iter_mut().zip(self.gens.row(k).iter()) {
                *acc += v.abs();
            }
        }
        let mut kept = Matrix::zeros(0, dim);
        for &k in kept_idx {
            kept.push_row(self.gens.row(k));
        }
        for (i, a) in absorbed.iter().enumerate() {
            if *a > 0.0 {
                kept.push_axis_row(i, *a);
            }
        }
        self.gens = kept;
        self.prune_zero_generators();
    }

    /// The ReLU of a whole layer in one row-major pass over the
    /// generators: every `(i, lo, hi)` of `relax` gets the λ-relaxation
    /// (column `i` scaled by λ, centre shifted), every index of `project`
    /// is set to exactly zero, and then the relaxations' fresh box rows
    /// are appended in the order of `relax` after a single reserve.
    ///
    /// The indices are distinct. The result is bit-identical to calling
    /// [`ReluCoordOps::relax_relu_coord`] for `relax` in order, with
    /// [`ReluCoordOps::project_zero`] for `project` interleaved anywhere:
    /// each update touches only its own column, untouched columns are
    /// multiplied by 1.0 (exact), and a box row appended by one
    /// relaxation holds 0.0 in every later-relaxed column, which the
    /// per-coordinate form scales by a finite λ ≥ 0 into 0.0 again. (On
    /// infinite bounds λ is NaN and both forms are poisoned.)
    ///
    /// With `radius`, the same pass also sums `|v|` of every scaled
    /// column, row by row and before the projections, into `radius`
    /// (resized to the dimension): over the rows that existed before the
    /// fresh ones, exactly the sum `coord_bounds_into` starts with.
    fn relu_columns(
        &mut self,
        relax: &[(usize, f64, f64)],
        project: &[usize],
        mut radius: Option<&mut Vec<f64>>,
    ) {
        if let Some(r) = radius.as_deref_mut() {
            r.clear();
            r.resize(self.dim(), 0.0);
        }
        if relax.is_empty() && project.is_empty() {
            return;
        }
        let mut scale = vec![1.0; self.dim()];
        for &(i, lo, hi) in relax {
            let (lambda, mu) = relu_band(lo, hi);
            self.center[i] = lambda * self.center[i] + mu;
            scale[i] = lambda;
        }
        for &i in project {
            self.center[i] = 0.0;
        }
        for g in self.gens.rows_iter_mut() {
            match radius.as_deref_mut() {
                Some(r) => {
                    for ((v, s), acc) in g.iter_mut().zip(&scale).zip(r.iter_mut()) {
                        *v *= s;
                        *acc += v.abs();
                    }
                }
                None => {
                    for (v, s) in g.iter_mut().zip(&scale) {
                        *v *= s;
                    }
                }
            }
            for &i in project {
                g[i] = 0.0;
            }
        }
        self.gens.reserve_rows(relax.len());
        for &(i, lo, hi) in relax {
            self.gens.push_axis_row(i, relu_band(lo, hi).1);
        }
    }

    /// The plain ReLU given the element's bounds: non-positive
    /// coordinates are projected to zero and unstable ones relaxed in one
    /// pass (see `relu_columns`), then zero generator rows are pruned.
    fn relu_with_bounds(&mut self, lower: &[f64], upper: &[f64]) {
        let dim = self.dim();
        let mut relax = Vec::with_capacity(dim);
        let mut project = Vec::with_capacity(dim);
        for (i, (&lo, &hi)) in lower.iter().zip(upper.iter()).enumerate() {
            if hi <= 0.0 {
                project.push(i);
            } else if lo < 0.0 {
                relax.push((i, lo, hi));
            }
        }
        self.relu_columns(&relax, &project, None);
        self.prune_zero_generators();
    }
}

/// The λ-relaxation of `relu(x)` for `x ∈ [lo, hi]` with `lo < 0 < hi`:
/// `relu(x)` lies between `λx` and `λx - λ·lo`, with `λ = hi / (hi - lo)`.
/// Returns `(λ, μ)` with `μ = -λ·lo / 2`, the half width of that band:
/// the coordinate becomes `λx + μ` plus a fresh noise symbol of weight
/// `μ`.
///
/// A NaN bound passes the check (and makes `λ` NaN): the plain ReLU
/// relaxes a coordinate whose upper bound is `∞ - ∞`, as it always has,
/// and the checked propagation then reports the output poisoned.
fn relu_band(lo: f64, hi: f64) -> (f64, f64) {
    debug_assert!(
        !(lo >= 0.0 || hi <= 0.0),
        "relaxation needs an unstable coordinate"
    );
    let lambda = hi / (hi - lo);
    (lambda, -0.5 * lambda * lo)
}

impl AbstractElement for Zonotope {
    fn from_bounds(bounds: &Bounds) -> Self {
        let dim = bounds.dim();
        let center = bounds.center();
        let widths = bounds.widths();
        let nonzero = widths.iter().filter(|w| **w > 0.0).count();
        let mut gens = Matrix::zeros(nonzero, dim);
        let mut k = 0;
        for (i, w) in widths.iter().enumerate() {
            if *w > 0.0 {
                gens.row_mut(k)[i] = 0.5 * w;
                k += 1;
            }
        }
        Zonotope { center, gens }
    }

    fn dim(&self) -> usize {
        self.center.len()
    }

    fn bounds(&self) -> Bounds {
        let (lower, upper) = self.bound_vecs();
        Bounds::new(lower, upper)
    }

    fn affine(&self, layer: &AffineLayer) -> Self {
        // A fresh workspace has nothing pooled, so `take` allocates both
        // output buffers.
        self.affine_ws(layer, None, &mut Workspace::new())
    }

    /// With `wt`, the generator product reads the layer's `Wᵀ`
    /// ([`tensor::Backend::matmul_transb_wt`]), which gives the same bits
    /// as the packed product without it.
    fn affine_ws(&self, layer: &AffineLayer, wt: Option<&nn::Transposed>, ws: &mut Workspace) -> Self {
        assert_eq!(self.dim(), layer.input_dim(), "affine dimension mismatch");
        let out_dim = layer.output_dim();
        let mut center = ws.take(out_dim);
        let rows = self.gens.rows();
        let mut gdata = ws.take(rows * out_dim);
        // New generators are G · Wᵀ: each generator row maps through the
        // layer exactly, as one blocked matmul instead of per-row matvecs.
        // Zero rows are NOT pruned here — affine images of nonzero rows
        // are almost never zero, and the O(G·n) scan is pure overhead.
        // The fused kernel streams the flat generator buffer through the
        // runtime-selected SIMD arm (see `tensor::kernels`).
        let kernels = tensor::kernels::active();
        let weights = layer.weights.as_slice();
        match wt {
            Some(wt) => {
                kernels.matvec_bias(weights, &self.center, &layer.bias, &mut center);
                kernels.matmul_transb_wt(
                    self.gens.as_slice(),
                    weights,
                    wt.as_slice(),
                    rows,
                    out_dim,
                    self.dim(),
                    &mut gdata,
                );
            }
            None => kernels.zonotope_affine(
                weights,
                &layer.bias,
                &self.center,
                self.gens.as_slice(),
                &mut center,
                &mut gdata,
            ),
        }
        Zonotope {
            center,
            gens: Matrix::from_vec(rows, out_dim, gdata),
        }
    }

    fn recycle(self, ws: &mut Workspace) {
        ws.give(self.center);
        ws.give(self.gens.into_vec());
    }

    fn relu(mut self) -> Self {
        // One bounds pass, then one pass that rewrites every column in
        // index order.
        let (mut lower, mut upper) = (Vec::new(), Vec::new());
        self.coord_bounds_into(&mut lower, &mut upper);
        self.relu_with_bounds(&lower, &upper);
        self
    }

    /// The poisoning check is read off the bounds the ReLU computes
    /// anyway: finite bounds mean no NaN in the input and none in the
    /// output ([`ReluCoordOps`], "Finite-bounds contract"). Only
    /// non-finite bounds fall back to scanning the generators.
    fn relu_checked(mut self) -> Option<Self> {
        let (mut lower, mut upper) = (Vec::new(), Vec::new());
        self.coord_bounds_into(&mut lower, &mut upper);
        let finite = crate::all_finite(&lower, &upper);
        if !finite && self.is_poisoned() {
            return None;
        }
        self.relu_with_bounds(&lower, &upper);
        (finite || !self.is_poisoned()).then_some(self)
    }

    fn max_pool(&self, layer: &MaxPoolLayer) -> Self {
        assert_eq!(self.dim(), layer.input_dim, "max-pool dimension mismatch");
        let (in_lower, in_upper) = self.bound_vecs();
        let out_dim = layer.output_dim();
        let num_gens = self.gens.rows();
        let mut center = vec![0.0; out_dim];
        let mut gens = Matrix::zeros(num_gens, out_dim);
        let mut fresh: Vec<(usize, f64)> = Vec::new();

        for (out_idx, group) in layer.groups.iter().enumerate() {
            // If one input dominates all others, the max is exact and
            // relational information is preserved.
            let dominant = group.iter().copied().find(|&cand| {
                group
                    .iter()
                    .all(|&other| other == cand || in_lower[cand] >= in_upper[other])
            });
            match dominant {
                Some(idx) => {
                    center[out_idx] = self.center[idx];
                    for (gen_out, gen_in) in gens.rows_iter_mut().zip(self.gens.rows_iter()) {
                        gen_out[out_idx] = gen_in[idx];
                    }
                }
                None => {
                    // Interval fallback: the output lies in
                    // [max_j lo_j, max_j hi_j].
                    let lo = group
                        .iter()
                        .map(|&i| in_lower[i])
                        .fold(f64::NEG_INFINITY, f64::max);
                    let hi = group
                        .iter()
                        .map(|&i| in_upper[i])
                        .fold(f64::NEG_INFINITY, f64::max);
                    center[out_idx] = 0.5 * (lo + hi);
                    fresh.push((out_idx, 0.5 * (hi - lo)));
                }
            }
        }

        let mut out = Zonotope { center, gens };
        for (out_idx, radius) in fresh {
            if radius > 0.0 {
                out.gens.push_axis_row(out_idx, radius);
            }
        }
        out.prune_zero_generators();
        out
    }

    fn margin_lower_bound(&self, target: usize) -> f64 {
        assert!(target < self.dim(), "target class out of range");
        // dev[j] = Σ_k |g_k,target - g_k,j|, accumulated row-major.
        let mut dev = vec![0.0; self.dim()];
        for g in self.gens.rows_iter() {
            let gt = g[target];
            for (d, gj) in dev.iter_mut().zip(g.iter()) {
                *d += (gt - gj).abs();
            }
        }
        let ct = self.center[target];
        let mut worst = f64::INFINITY;
        for j in 0..self.dim() {
            if j == target {
                continue;
            }
            // min over noise of (y_t - y_j) = (c_t - c_j) - Σ_k |g_k,t - g_k,j|
            worst = crate::min_or_nan(worst, ct - self.center[j] - dev[j]);
        }
        worst
    }

    fn is_poisoned(&self) -> bool {
        tensor::ops::has_nan(&self.center) || tensor::ops::has_nan(self.gens.as_slice())
    }
}

impl ReluCoordOps for Zonotope {
    fn coord_bounds(&self, i: usize) -> (f64, f64) {
        let r = self.radius(i);
        (self.center[i] - r, self.center[i] + r)
    }

    fn project_zero(&mut self, i: usize) {
        self.center[i] = 0.0;
        for g in self.gens.rows_iter_mut() {
            g[i] = 0.0;
        }
    }

    /// One row-major pass: the radii accumulate into `upper` row by row,
    /// in the same order (and so to the same bits) as `coord_bounds`.
    fn coord_bounds_into(&self, lower: &mut Vec<f64>, upper: &mut Vec<f64>) {
        upper.clear();
        upper.resize(self.dim(), 0.0);
        for g in self.gens.rows_iter() {
            for (acc, v) in upper.iter_mut().zip(g.iter()) {
                *acc += v.abs();
            }
        }
        lower.clear();
        lower.extend(self.center.iter().zip(upper.iter()).map(|(c, r)| c - r));
        for (u, c) in upper.iter_mut().zip(self.center.iter()) {
            *u += c;
        }
    }

    fn relax_relu_coord(&mut self, i: usize, lo: f64, hi: f64) {
        let (lambda, mu) = relu_band(lo, hi);
        self.center[i] = lambda * self.center[i] + mu;
        for g in self.gens.rows_iter_mut() {
            g[i] *= lambda;
        }
        self.gens.push_axis_row(i, mu);
    }

    /// One row-major pass instead of the default's scaling pass, second
    /// bounds pass and strided column walks. The pass scales the relaxed
    /// columns and zeroes the projected ones (see `relu_columns`). A
    /// column outside `order` is projected by its bounds on entry: the
    /// relaxations leave them bit for bit as they were (column contract;
    /// the fresh rows add exact `+0.0` terms to its radius). The same
    /// pass sums the relaxed columns' `|v|` row by row, so each relaxed
    /// column's bounds after the relaxation come out as
    /// `coord_bounds_into` would compute them: its own fresh row adds
    /// `|μ|` and every other fresh row adds `+0.0`. The rare relaxed
    /// column that comes out non-positive is then projected by a column
    /// walk, as in the default.
    fn relax_and_project(
        &mut self,
        order: &[(usize, f64, f64)],
        lower: &mut Vec<f64>,
        upper: &mut Vec<f64>,
    ) {
        // Mark the relaxed columns so the entry bounds never project them.
        for &(i, _, _) in order {
            upper[i] = f64::INFINITY;
        }
        let project: Vec<usize> = (0..self.dim())
            .filter(|&i| upper[i] <= 0.0 && (lower[i] != 0.0 || upper[i] != 0.0))
            .collect();
        let radius = upper;
        self.relu_columns(order, &project, Some(&mut *radius));
        for &(i, lo, hi) in order {
            let r = radius[i] + relu_band(lo, hi).1.abs();
            let c = self.center[i];
            let (after_lo, after_hi) = (c - r, r + c);
            if after_hi <= 0.0 && (after_lo != 0.0 || after_hi != 0.0) {
                self.project_zero(i);
            }
        }
    }

    fn meet_coord_nonneg(&self, i: usize) -> Option<Self> {
        self.meet_coord_ge(i, 0.0)
    }

    fn meet_coord_nonpos(&self, i: usize) -> Option<Self> {
        self.meet_coord_le(i, 0.0)
    }
}

impl Zonotope {
    /// Sound join of two zonotopes with the *same* noise-symbol count:
    /// averages centers and generators and absorbs the per-coordinate
    /// residuals into fresh box generators.
    ///
    /// For any `p = c1 + G1 ε` in `self`, `p = c + G ε + r` where the
    /// residual satisfies `|r_i| <= |c1_i - c_i| + Σ_k |G1_ki - G_ki|`;
    /// taking the max residual over both operands per coordinate yields
    /// an enclosure of the union (Taylor1+-style join).
    ///
    /// # Panics
    ///
    /// Panics if dimensions or generator counts differ (the intended use
    /// joins two meets of the *same* parent zonotope, which always have
    /// matching symbols).
    pub fn join(&self, other: &Zonotope) -> Zonotope {
        assert_eq!(self.dim(), other.dim(), "join dimension mismatch");
        assert_eq!(
            self.gens.rows(),
            other.gens.rows(),
            "join requires matching noise symbols"
        );
        let dim = self.dim();
        let center: Vec<f64> = self
            .center
            .iter()
            .zip(other.center.iter())
            .map(|(a, b)| 0.5 * (a + b))
            .collect();
        let shared = self.gens.rows();
        let mut gens = Matrix::zeros(shared, dim);
        for (out, (g1, g2)) in gens
            .rows_iter_mut()
            .zip(self.gens.rows_iter().zip(other.gens.rows_iter()))
        {
            for (o, (a, b)) in out.iter_mut().zip(g1.iter().zip(g2.iter())) {
                *o = 0.5 * (a + b);
            }
        }
        // Per-coordinate residual radii over the shared (averaged)
        // symbols only; fresh box generators are appended afterwards so
        // they do not feed back into the residual computation. Both
        // residual sums accumulate row-major in one pass.
        let mut r1: Vec<f64> = self
            .center
            .iter()
            .zip(center.iter())
            .map(|(a, c)| (a - c).abs())
            .collect();
        let mut r2: Vec<f64> = other
            .center
            .iter()
            .zip(center.iter())
            .map(|(b, c)| (b - c).abs())
            .collect();
        for (gm, (g1, g2)) in gens
            .rows_iter()
            .zip(self.gens.rows_iter().zip(other.gens.rows_iter()))
        {
            for i in 0..dim {
                r1[i] += (g1[i] - gm[i]).abs();
                r2[i] += (g2[i] - gm[i]).abs();
            }
        }
        let mut out = Zonotope { center, gens };
        for (i, (a, b)) in r1.into_iter().zip(r2).enumerate() {
            let radius = a.max(b);
            if radius > 0.0 {
                out.gens.push_axis_row(i, radius);
            }
        }
        out.prune_zero_generators();
        out
    }

    /// The paper's original ReLU transformer (AI2, Figure 4): for each
    /// unstable coordinate, *split* the zonotope at `x_i = 0`, apply the
    /// exact ReLU on each half, and *join* the halves back into a single
    /// zonotope.
    ///
    /// This is sound but coarser than the λ-relaxation used by
    /// [`AbstractElement::relu`] — the join loses the relational
    /// information the paper's Example 2.3 depends on, which is exactly
    /// why the paper needs the powerset domain there.
    pub fn relu_split_join(&self) -> Zonotope {
        let mut out = self.clone();
        for i in 0..self.dim() {
            let (lo, hi) = out.coord_bounds(i);
            if hi <= 0.0 {
                out.project_zero(i);
                continue;
            }
            if lo >= 0.0 {
                continue;
            }
            let neg = out.meet_coord_le(i, 0.0).map(|mut z| {
                z.project_zero(i);
                z
            });
            let pos = out.meet_coord_ge(i, 0.0);
            out = match (neg, pos) {
                (Some(n), Some(p)) => {
                    // Meets only rescale existing symbols, so both halves
                    // share the parent's symbol count and can be joined.
                    n.join(&p)
                }
                (Some(only), None) | (None, Some(only)) => only,
                (None, None) => unreachable!("unstable coordinate has both signs"),
            };
        }
        out.prune_zero_generators();
        out
    }

    /// Over-approximates the intersection with `x_i >= threshold`.
    ///
    /// Returns `None` when the intersection is provably empty.
    pub fn meet_coord_ge(&self, i: usize, threshold: f64) -> Option<Self> {
        self.meet_halfspace(i, threshold, true)
    }

    /// Over-approximates the intersection with `x_i <= threshold`.
    ///
    /// Returns `None` when the intersection is provably empty.
    pub fn meet_coord_le(&self, i: usize, threshold: f64) -> Option<Self> {
        self.meet_halfspace(i, threshold, false)
    }

    /// Over-approximates the intersection with an external box, coordinate
    /// by coordinate. Used by the LP-refined zonotope propagation.
    ///
    /// Returns `None` when any coordinate meet is provably empty.
    ///
    /// # Panics
    ///
    /// Panics if `bounds.dim() != self.dim()`.
    pub fn meet_box(&self, bounds: &Bounds) -> Option<Self> {
        assert_eq!(bounds.dim(), self.dim(), "meet_box dimension mismatch");
        let mut out = self.clone();
        for i in 0..self.dim() {
            out = out.meet_coord_ge(i, bounds.lower()[i])?;
            out = out.meet_coord_le(i, bounds.upper()[i])?;
        }
        Some(out)
    }

    /// Over-approximates the intersection with the half space
    /// `x_i >= threshold` (`ge`) or `x_i <= threshold` by tightening the
    /// range of the single noise symbol with the largest influence on
    /// coordinate `i`, then re-centering.
    fn meet_halfspace(&self, i: usize, threshold: f64, ge: bool) -> Option<Self> {
        let (lo, hi) = self.coord_bounds(i);
        if ge {
            if lo >= threshold {
                return Some(self.clone());
            }
            if hi < threshold {
                return None;
            }
        } else {
            if hi <= threshold {
                return Some(self.clone());
            }
            if lo > threshold {
                return None;
            }
        }

        // Coordinate form: x_i - threshold = (c - threshold) + Σ_k g_k ε_k.
        let c = self.center[i] - threshold;
        let k_star = (0..self.gens.rows())
            .max_by(|&a, &b| self.gens.row(a)[i].abs().total_cmp(&self.gens.row(b)[i].abs()))?;
        let g_star = self.gens.row(k_star)[i];
        if g_star == 0.0 {
            // Coordinate is constant; the early exits above already
            // decided feasibility, so the constraint cannot tighten it.
            return Some(self.clone());
        }
        let rest: f64 = self
            .gens
            .rows_iter()
            .enumerate()
            .filter(|(k, _)| *k != k_star)
            .map(|(_, g)| g[i].abs())
            .sum();

        // For a point with x_i >= 0 (resp. <= 0):
        //   g* ε* >= -c - rest      (resp. g* ε* <= -c + rest)
        let (mut sym_lo, mut sym_hi) = (-1.0f64, 1.0f64);
        if ge {
            let threshold = (-c - rest) / g_star;
            if g_star > 0.0 {
                sym_lo = sym_lo.max(threshold);
            } else {
                sym_hi = sym_hi.min(threshold);
            }
        } else {
            let threshold = (-c + rest) / g_star;
            if g_star > 0.0 {
                sym_hi = sym_hi.min(threshold);
            } else {
                sym_lo = sym_lo.max(threshold);
            }
        }
        if sym_lo > sym_hi {
            return None;
        }

        // Re-parameterize ε* ∈ [sym_lo, sym_hi] back onto [-1, 1].
        let mid = 0.5 * (sym_lo + sym_hi);
        let rad = 0.5 * (sym_hi - sym_lo);
        let mut out = self.clone();
        {
            let g_row = out.gens.row(k_star);
            for (cv, gv) in out.center.iter_mut().zip(g_row.iter()) {
                *cv += mid * gv;
            }
        }
        for gv in out.gens.row_mut(k_star) {
            *gv *= rad;
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propagate;
    use nn::samples;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tensor::Matrix;

    fn unit_box(dim: usize) -> Bounds {
        Bounds::new(vec![0.0; dim], vec![1.0; dim])
    }

    /// The box `[∞, 0, -1]..[∞, ∞, 0]` gives centre `[∞, ∞, -0.5]`, so
    /// the term of class 1 is `∞ - ∞ - ∞`: the margin is NaN, not the `+∞`
    /// of class 2, although no entry is NaN.
    #[test]
    fn a_nan_class_term_makes_the_margin_nan() {
        let z = Zonotope::from_bounds(&Bounds::new(
            vec![f64::INFINITY, 0.0, -1.0],
            vec![f64::INFINITY, f64::INFINITY, 0.0],
        ));
        assert!(!z.is_poisoned());
        assert!(z.margin_lower_bound(0).is_nan());
    }

    /// A centre entry and its radius both `+∞` give the lower bound
    /// `∞ - ∞`: `bounds` reports it as NaN instead of panicking.
    #[test]
    fn an_infinite_centre_and_radius_give_nan_bounds_not_a_panic() {
        let z = Zonotope::from_bounds(&Bounds::new(vec![0.0, 1.0], vec![f64::INFINITY, 2.0]));
        assert!(!z.is_poisoned());
        let b = z.bounds();
        assert!(b.has_nan());
        assert!(b.lower()[0].is_nan());
        assert_eq!((b.upper()[0], b.lower()[1], b.upper()[1]), (f64::INFINITY, 1.0, 2.0));
    }

    #[test]
    fn from_bounds_bounds_roundtrip() {
        let b = Bounds::new(vec![-1.0, 2.0], vec![1.0, 4.0]);
        let z = Zonotope::from_bounds(&b);
        assert_eq!(z.bounds(), b);
    }

    #[test]
    fn affine_is_exact_on_bounds() {
        let layer = AffineLayer::new(
            Matrix::from_rows(&[&[1.0, 1.0], &[1.0, -1.0]]),
            vec![0.0; 2],
        );
        let z = Zonotope::from_bounds(&unit_box(2)).affine(&layer);
        let b = z.bounds();
        assert_eq!(b.lower(), &[0.0, -1.0]);
        assert_eq!(b.upper(), &[2.0, 1.0]);
        // Relational: y_0 - y_1 = 2*x_1 ∈ [0, 2], so margin for class 0 is 0.
        assert_eq!(z.margin_lower_bound(0), 0.0);
    }

    #[test]
    fn affine_ws_matches_affine() {
        let layer = AffineLayer::new(
            Matrix::from_rows(&[&[1.0, 1.0], &[1.0, -1.0], &[0.5, 0.25]]),
            vec![0.1, -0.2, 0.3],
        );
        let z = Zonotope::from_bounds(&Bounds::new(vec![-1.0, 0.0], vec![1.0, 2.0]));
        let mut ws = Workspace::new();
        // Run twice so the second call exercises recycled (dirty) buffers.
        let first = z.affine_ws(&layer, None, &mut ws);
        assert_eq!(first, z.affine(&layer));
        first.recycle(&mut ws);
        let second = z.affine_ws(&layer, None, &mut ws);
        assert_eq!(second, z.affine(&layer));
    }

    #[test]
    fn relu_stable_coordinates_untouched() {
        let b = Bounds::new(vec![1.0, -3.0], vec![2.0, -1.0]);
        let z = Zonotope::from_bounds(&b).relu();
        let out = z.bounds();
        assert_eq!(out.lower(), &[1.0, 0.0]);
        assert_eq!(out.upper(), &[2.0, 0.0]);
    }

    #[test]
    fn relu_relaxation_contains_true_range() {
        let b = Bounds::new(vec![-1.0], vec![3.0]);
        let z = Zonotope::from_bounds(&b).relu();
        let out = z.bounds();
        // True range of relu on [-1, 3] is [0, 3]; the relaxation may
        // be looser but must contain it.
        assert!(out.lower()[0] <= 0.0 + 1e-12);
        assert!(out.upper()[0] >= 3.0 - 1e-12);
    }

    #[test]
    fn zonotope_verifies_example_2_3_with_relational_margin() {
        // The λ-relaxation zonotope domain keeps enough correlation to
        // verify Example 2.3 directly (the paper's split-then-join
        // zonotope transformer cannot; see DESIGN.md).
        let net = samples::example_2_3_network();
        let out = propagate(&net, Zonotope::from_bounds(&unit_box(2)));
        assert!(out.margin_lower_bound(1) > 0.0);
    }

    #[test]
    fn interval_fails_example_2_3() {
        let net = samples::example_2_3_network();
        let out = propagate(&net, crate::Interval::from_bounds(&unit_box(2)));
        assert!(out.margin_lower_bound(1) < 0.0);
    }

    #[test]
    fn meet_nonneg_refines_bounds() {
        let b = Bounds::new(vec![-2.0], vec![2.0]);
        let z = Zonotope::from_bounds(&b);
        let m = z.meet_coord_nonneg(0).unwrap();
        let mb = m.bounds();
        assert!(mb.lower()[0] >= -1e-12, "lower bound should tighten to 0");
        assert_eq!(mb.upper()[0], 2.0);
    }

    #[test]
    fn meet_empty_cases() {
        let z = Zonotope::from_bounds(&Bounds::new(vec![1.0], vec![2.0]));
        assert!(z.meet_coord_nonpos(0).is_none());
        let z = Zonotope::from_bounds(&Bounds::new(vec![-2.0], vec![-1.0]));
        assert!(z.meet_coord_nonneg(0).is_none());
    }

    #[test]
    fn meet_is_sound_overapproximation() {
        // Points of the original zonotope satisfying the constraint stay
        // representable after the meet.
        let layer = AffineLayer::new(
            Matrix::from_rows(&[&[1.0, 1.0], &[1.0, -1.0]]),
            vec![0.0, 0.3],
        );
        let z =
            Zonotope::from_bounds(&Bounds::new(vec![-1.0, -1.0], vec![1.0, 1.0])).affine(&layer);
        let m = z.meet_coord_nonneg(1).unwrap();
        let mb = m.bounds();
        // Sample concrete points from the pre-image and check containment.
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..500 {
            let x = [rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)];
            let y = layer.apply(&x);
            if y[1] >= 0.0 {
                assert!(
                    y[0] >= mb.lower()[0] - 1e-9 && y[0] <= mb.upper()[0] + 1e-9,
                    "meet lost point {y:?}"
                );
                assert!(y[1] >= mb.lower()[1] - 1e-9 && y[1] <= mb.upper()[1] + 1e-9);
            }
        }
    }

    #[test]
    fn join_contains_both_operands() {
        let parent = Zonotope::from_bounds(&Bounds::new(vec![-1.0, -1.0], vec![1.0, 1.0]));
        let a = parent.meet_coord_ge(0, 0.2).unwrap();
        let b = parent.meet_coord_le(0, -0.3).unwrap();
        let j = a.join(&b);
        let jb = j.bounds();
        for z in [&a, &b] {
            let zb = z.bounds();
            for i in 0..2 {
                assert!(jb.lower()[i] <= zb.lower()[i] + 1e-9);
                assert!(jb.upper()[i] >= zb.upper()[i] - 1e-9);
            }
        }
    }

    #[test]
    fn split_join_relu_is_sound() {
        let net = samples::xor_network();
        let region = Bounds::new(vec![0.1, 0.1], vec![0.9, 0.9]);
        // Manual propagation with the split-join transformer.
        let mut z = Zonotope::from_bounds(&region);
        for layer in net.layers() {
            z = match layer {
                nn::Layer::Affine(a) => z.affine(a),
                nn::Layer::Relu => z.relu_split_join(),
                nn::Layer::MaxPool(p) => z.max_pool(p),
            };
        }
        let b = z.bounds();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..300 {
            let x = region.sample(&mut rng);
            let y = net.eval(&x);
            for i in 0..y.len() {
                assert!(y[i] >= b.lower()[i] - 1e-9 && y[i] <= b.upper()[i] + 1e-9);
            }
        }
    }

    #[test]
    fn split_join_reproduces_paper_example_2_3_failure() {
        // With the paper's split-then-join transformer the plain zonotope
        // domain cannot verify Example 2.3 (Figure 4's green zonotope
        // contains the unsafe point), while the powerset can — exactly
        // the paper's narrative. Our default λ-relaxation is tighter and
        // verifies it directly (see `zonotope_verifies_example_2_3_...`).
        let net = samples::example_2_3_network();
        let region = Bounds::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        let mut z = Zonotope::from_bounds(&region);
        for layer in net.layers() {
            z = match layer {
                nn::Layer::Affine(a) => z.affine(a),
                nn::Layer::Relu => z.relu_split_join(),
                nn::Layer::MaxPool(p) => z.max_pool(p),
            };
        }
        // The split-join margin collapses to (numerically) zero — the
        // joined zonotope touches the unsafe boundary, exactly Figure 4's
        // green zonotope containing the violation point. No robust
        // verification is possible from a margin of ~2e-16.
        let sj = z.margin_lower_bound(1);
        assert!(
            sj < 1e-9,
            "split-join margin should collapse to ~0 on Example 2.3, got {sj}"
        );
        // The λ-relaxation keeps a solid 0.1 margin...
        let mut lam = Zonotope::from_bounds(&region);
        for layer in net.layers() {
            lam = match layer {
                nn::Layer::Affine(a) => lam.affine(a),
                nn::Layer::Relu => lam.relu(),
                nn::Layer::MaxPool(p) => lam.max_pool(p),
            };
        }
        assert!(lam.margin_lower_bound(1) > 0.05);
        // ...and the 2-disjunct powerset verifies it too (paper's fix).
        let ps = propagate(&net, crate::Powerset::<Zonotope>::with_budget(&region, 2));
        assert!(ps.margin_lower_bound(1) > 0.0);
    }

    #[test]
    fn reduce_order_caps_generators_and_stays_sound() {
        let net = nn::train::random_mlp(4, &[16, 16, 16], 3, 3);
        let region = Bounds::linf_ball(&[0.1, 0.0, -0.1, 0.2], 0.3, None);
        let full = propagate(&net, Zonotope::from_bounds(&region));

        // Manual propagation with aggressive order reduction.
        let mut reduced = Zonotope::from_bounds(&region);
        for layer in net.layers() {
            reduced = match layer {
                nn::Layer::Affine(a) => reduced.affine(a),
                nn::Layer::Relu => reduced.relu(),
                nn::Layer::MaxPool(p) => reduced.max_pool(p),
            };
            reduced.reduce_order(12);
        }
        assert!(reduced.num_generators() <= 12 + reduced.dim());

        // Reduction must only enlarge: reduced bounds contain full bounds.
        let fb = full.bounds();
        let rb = reduced.bounds();
        for i in 0..fb.dim() {
            assert!(rb.lower()[i] <= fb.lower()[i] + 1e-9);
            assert!(rb.upper()[i] >= fb.upper()[i] - 1e-9);
        }

        // And still sound versus concrete execution.
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..100 {
            let x = region.sample(&mut rng);
            let y = net.eval(&x);
            for i in 0..y.len() {
                assert!(y[i] >= rb.lower()[i] - 1e-9 && y[i] <= rb.upper()[i] + 1e-9);
            }
        }
    }

    #[test]
    fn reduce_order_noop_under_budget() {
        let z = Zonotope::from_bounds(&Bounds::new(vec![0.0, 0.0], vec![1.0, 1.0]));
        let mut copy = z.clone();
        copy.reduce_order(10);
        assert_eq!(copy, z);
    }

    #[test]
    fn meet_box_tightens_both_sides() {
        let z = Zonotope::from_bounds(&Bounds::new(vec![-2.0, 0.0], vec![2.0, 1.0]));
        let target = Bounds::new(vec![-0.5, 0.0], vec![0.5, 1.0]);
        let m = z.meet_box(&target).unwrap();
        let b = m.bounds();
        assert!(b.lower()[0] >= -0.5 - 1e-9);
        assert!(b.upper()[0] <= 0.5 + 1e-9);
        // The untouched coordinate stays intact.
        assert_eq!(b.lower()[1], 0.0);
        assert_eq!(b.upper()[1], 1.0);
    }

    #[test]
    fn meet_box_empty_when_disjoint() {
        let z = Zonotope::from_bounds(&Bounds::new(vec![0.0], vec![1.0]));
        let disjoint = Bounds::new(vec![2.0], vec![3.0]);
        assert!(z.meet_box(&disjoint).is_none());
    }

    #[test]
    fn meet_box_is_sound() {
        // Points of the zonotope inside the box remain representable.
        let layer = AffineLayer::new(
            Matrix::from_rows(&[&[1.0, 1.0], &[1.0, -1.0]]),
            vec![0.0, 0.0],
        );
        let z =
            Zonotope::from_bounds(&Bounds::new(vec![-1.0, -1.0], vec![1.0, 1.0])).affine(&layer);
        let target = Bounds::new(vec![-0.8, -0.5], vec![0.8, 0.5]);
        let m = z.meet_box(&target).unwrap();
        let mb = m.bounds();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..300 {
            let x = [rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)];
            let y = layer.apply(&x);
            if target.contains(&y) {
                for k in 0..2 {
                    assert!(
                        y[k] >= mb.lower()[k] - 1e-9 && y[k] <= mb.upper()[k] + 1e-9,
                        "meet_box lost point {y:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn maxpool_dominant_passthrough_keeps_relations() {
        // Coordinate 0 in [5, 6] dominates coordinate 1 in [0, 1].
        let b = Bounds::new(vec![5.0, 0.0], vec![6.0, 1.0]);
        let z = Zonotope::from_bounds(&b);
        let pooled = z.max_pool(&MaxPoolLayer::new(2, vec![vec![0, 1]]));
        assert_eq!(pooled.bounds().lower(), &[5.0]);
        assert_eq!(pooled.bounds().upper(), &[6.0]);
        assert_eq!(pooled.num_generators(), 1);
    }

    #[test]
    fn maxpool_overlapping_falls_back_to_interval() {
        let b = Bounds::new(vec![0.0, 0.5], vec![2.0, 1.5]);
        let z = Zonotope::from_bounds(&b);
        let pooled = z.max_pool(&MaxPoolLayer::new(2, vec![vec![0, 1]]));
        // max over the box is in [0.5, 2.0]; fallback must cover it.
        assert!(pooled.bounds().lower()[0] <= 0.5);
        assert!(pooled.bounds().upper()[0] >= 2.0);
    }

    proptest! {
        /// End-to-end soundness on the XOR network: every concrete output
        /// lies within the propagated zonotope's bounds, and the margin
        /// lower bound never exceeds the true margin.
        #[test]
        fn zonotope_propagation_is_sound(seed in 0u64..300) {
            let net = samples::xor_network();
            let region = Bounds::new(vec![0.25, 0.3], vec![0.8, 0.75]);
            let out = propagate(&net, Zonotope::from_bounds(&region));
            let b = out.bounds();
            let mut rng = StdRng::seed_from_u64(seed);
            let x = region.sample(&mut rng);
            let y = net.eval(&x);
            for i in 0..y.len() {
                prop_assert!(y[i] >= b.lower()[i] - 1e-9);
                prop_assert!(y[i] <= b.upper()[i] + 1e-9);
            }
            let true_margin = nn::Network::eval(&net, &x)[1]
                - nn::Network::eval(&net, &x)[0];
            prop_assert!(out.margin_lower_bound(1) <= true_margin + 1e-9);
        }

        /// Soundness on random deeper networks: sampled concrete outputs
        /// stay within the propagated zonotope.
        #[test]
        fn zonotope_sound_on_random_mlps(seed in 0u64..40) {
            let mut rng = StdRng::seed_from_u64(seed);
            let net = nn::train::random_mlp(3, &[5, 5], 3, seed);
            let center: Vec<f64> = (0..3).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let region = Bounds::linf_ball(&center, 0.2, None);
            let out = propagate(&net, Zonotope::from_bounds(&region));
            let b = out.bounds();
            for _ in 0..20 {
                let x = region.sample(&mut rng);
                let y = net.eval(&x);
                for i in 0..y.len() {
                    prop_assert!(y[i] >= b.lower()[i] - 1e-9);
                    prop_assert!(y[i] <= b.upper()[i] + 1e-9);
                }
                // Margin lower bound never exceeds the true margin.
                for t in 0..3 {
                    prop_assert!(out.margin_lower_bound(t) <= nn::margin(&y, t) + 1e-9);
                }
            }
        }
    }
}
