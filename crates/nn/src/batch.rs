//! Batched evaluation and backpropagation: many input points at once.
//!
//! Each row of the input [`Matrix`] is one point. Affine layers apply to
//! the whole batch as a single `X·Wᵀ` kernel call ([`Matrix::matmul_transb`])
//! and the backward pass as one `G·W` ([`Matrix::matmul`]), so a batch of
//! PGD restarts pays one blocked matrix product per layer instead of one
//! strided matrix-vector product per point.

use tensor::Matrix;

use crate::{Layer, Network};

/// Reusable per-layer buffers for one batched forward pass and the
/// backward pass that reads it: the batched counterpart of
/// [`crate::Trace`].
#[derive(Debug, Clone, Default)]
pub struct BatchTrace {
    /// `acts[0]` is the input batch and `acts[i + 1]` the batch after
    /// layer `i`.
    acts: Vec<Matrix>,
    /// `grads[i]` is the gradient batch with respect to `acts[i]`.
    grads: Vec<Matrix>,
}

impl BatchTrace {
    /// An empty trace; the first forward pass sizes its buffers.
    pub fn new() -> Self {
        BatchTrace::default()
    }

    fn output(&self) -> &Matrix {
        self.acts.last().expect("trace holds no forward pass")
    }
}

impl Layer {
    /// Applies the layer to every row of `xs` at once, into a reusable
    /// matrix.
    ///
    /// Row `i` of the result equals `self.apply(xs.row(i))` for finite
    /// inputs up to the summation order of the blocked affine kernel.
    fn apply_batch(&self, xs: &Matrix, out: &mut Matrix) {
        match self {
            Layer::Affine(a) => {
                out.reset(xs.rows(), a.output_dim());
                xs.matmul_transb_into(&a.weights, out.as_mut_slice());
                for row in out.rows_iter_mut() {
                    for (o, b) in row.iter_mut().zip(a.bias.iter()) {
                        *o += b;
                    }
                }
            }
            Layer::Relu => {
                out.reset(xs.rows(), xs.cols());
                for (o, v) in out.as_mut_slice().iter_mut().zip(xs.as_slice()) {
                    *o = v.max(0.0);
                }
            }
            Layer::MaxPool(p) => {
                assert_eq!(xs.cols(), p.input_dim, "max-pool dimension mismatch");
                out.reset(xs.rows(), p.output_dim());
                for (x, o) in xs.rows_iter().zip(out.rows_iter_mut()) {
                    for (g, slot) in p.groups.iter().zip(o.iter_mut()) {
                        *slot = g.iter().map(|&i| x[i]).fold(f64::NEG_INFINITY, f64::max);
                    }
                }
            }
        }
    }
}

impl Network {
    /// Evaluates every row of `xs` into `trace` and returns the output
    /// batch. Row results depend only on the row and on its position in
    /// the batch (the blocked kernels tile rows), never on stale buffer
    /// contents.
    ///
    /// # Panics
    ///
    /// Panics if `xs.cols() != self.input_dim()`.
    pub fn forward_batch<'t>(&self, xs: &Matrix, trace: &'t mut BatchTrace) -> &'t Matrix {
        assert_eq!(xs.cols(), self.input_dim(), "input dimension mismatch");
        let acts = &mut trace.acts;
        acts.resize_with(self.layers().len() + 1, || Matrix::zeros(0, 0));
        acts[0].reset(xs.rows(), xs.cols());
        acts[0].as_mut_slice().copy_from_slice(xs.as_slice());
        for (idx, layer) in self.layers().iter().enumerate() {
            let (done, rest) = acts.split_at_mut(idx + 1);
            layer.apply_batch(&done[idx], &mut rest[0]);
        }
        trace.output()
    }

    /// Gradient of the robustness objective for every row of the batch
    /// held in `trace`, as a matrix whose row `i` is the gradient at input
    /// row `i`.
    ///
    /// Semantics per row match [`Network::objective_gradient`]: the seed is
    /// `+1` at `target` and `-1` at that row's strongest rival class, ReLU
    /// kinks use the `0` subgradient, and max-pool ties route to the lowest
    /// winning index.
    ///
    /// # Panics
    ///
    /// Panics if `target >= self.output_dim()` or `trace` does not hold a
    /// forward pass of this network.
    pub fn objective_backward_batch<'t>(
        &self,
        trace: &'t mut BatchTrace,
        target: usize,
    ) -> &'t Matrix {
        assert!(target < self.output_dim(), "target class out of range");
        let depth = self.layers().len();
        assert!(
            trace.acts.len() == depth + 1 && trace.output().cols() == self.output_dim(),
            "trace does not hold a forward pass of this network"
        );
        let BatchTrace { acts, grads } = trace;
        grads.resize_with(depth + 1, || Matrix::zeros(0, 0));
        let ys = &acts[depth];

        // Seed batch: one ±1 pair per row. Rival ties keep the last
        // maximum, as the per-point path does.
        let g = &mut grads[depth];
        g.reset(ys.rows(), ys.cols());
        for (y, seed) in ys.rows_iter().zip(g.rows_iter_mut()) {
            let mut rival = usize::MAX;
            for (j, v) in y.iter().enumerate() {
                if j != target && (rival == usize::MAX || *v >= y[rival]) {
                    rival = j;
                }
            }
            assert!(
                rival != usize::MAX,
                "network must have at least two outputs"
            );
            seed[target] = 1.0;
            seed[rival] = -1.0;
        }

        for (idx, layer) in self.layers().iter().enumerate().rev() {
            let input = &acts[idx];
            let (lower, upper) = grads.split_at_mut(idx + 1);
            let (g, back) = (&upper[0], &mut lower[idx]);
            back.reset(input.rows(), input.cols());
            match layer {
                // d(g·(Wx + b))/dx = Wᵀg, batched: G_prev = G · W.
                Layer::Affine(a) => g.gemm_into(&a.weights, back.as_mut_slice()),
                Layer::Relu => {
                    for ((p, gi), b) in input
                        .as_slice()
                        .iter()
                        .zip(g.as_slice())
                        .zip(back.as_mut_slice())
                    {
                        *b = if *p <= 0.0 { 0.0 } else { *gi };
                    }
                }
                Layer::MaxPool(p) => {
                    for ((pre, gr), br) in
                        input.rows_iter().zip(g.rows_iter()).zip(back.rows_iter_mut())
                    {
                        for (group, gi) in p.groups.iter().zip(gr.iter()) {
                            let winner = group
                                .iter()
                                .copied()
                                .reduce(|a, b| if pre[b] > pre[a] { b } else { a })
                                .expect("max-pool groups are non-empty");
                            br[winner] += gi;
                        }
                    }
                }
            }
        }
        &grads[0]
    }

    /// Evaluates the network on every row of `xs` at once.
    ///
    /// # Panics
    ///
    /// Panics if `xs.cols() != self.input_dim()`.
    pub fn eval_batch(&self, xs: &Matrix) -> Matrix {
        let mut trace = BatchTrace::new();
        self.forward_batch(xs, &mut trace);
        trace.acts.pop().expect("trace holds the input")
    }

    /// The robustness objective `F` (Eq. 2) for every row of `xs`.
    ///
    /// # Panics
    ///
    /// Panics if `target >= self.output_dim()` or the network has fewer
    /// than two outputs.
    pub fn objective_batch(&self, xs: &Matrix, target: usize) -> Vec<f64> {
        let ys = self.eval_batch(xs);
        ys.rows_iter().map(|y| crate::margin(y, target)).collect()
    }

    /// Gradient of the robustness objective for every row of `xs`: one
    /// [`Network::forward_batch`] plus one
    /// [`Network::objective_backward_batch`].
    ///
    /// # Panics
    ///
    /// Panics if `target >= self.output_dim()`.
    pub fn objective_gradient_batch(&self, xs: &Matrix, target: usize) -> Matrix {
        let mut trace = BatchTrace::new();
        self.forward_batch(xs, &mut trace);
        self.objective_backward_batch(&mut trace, target);
        trace.grads.swap_remove(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{samples, AffineLayer, MaxPoolLayer};

    fn batch_of(points: &[&[f64]]) -> Matrix {
        Matrix::from_rows(points)
    }

    #[test]
    fn eval_batch_matches_eval_per_row() {
        let net = crate::train::random_mlp(3, &[8, 6], 4, 21);
        let points: Vec<Vec<f64>> = (0..5)
            .map(|i| (0..3).map(|j| (i as f64 * 0.3 - j as f64 * 0.7).sin()).collect())
            .collect();
        let refs: Vec<&[f64]> = points.iter().map(Vec::as_slice).collect();
        let ys = net.eval_batch(&batch_of(&refs));
        for (x, y) in points.iter().zip(ys.rows_iter()) {
            // Not bitwise: the batched path runs through the register-tiled
            // matmul, whose summation association differs from matvec's.
            for (a, b) in y.iter().zip(net.eval(x).iter()) {
                assert!((a - b).abs() <= 1e-12 * b.abs().max(1.0), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn eval_batch_handles_maxpool() {
        let net = Network::new(
            4,
            vec![
                Layer::MaxPool(MaxPoolLayer::new(4, vec![vec![0, 1], vec![2, 3]])),
                Layer::Affine(AffineLayer::new(Matrix::identity(2), vec![0.5, -0.5])),
            ],
        )
        .unwrap();
        let xs = batch_of(&[&[1.0, 5.0, -2.0, -3.0], &[0.0, 0.0, 7.0, 7.0]]);
        let ys = net.eval_batch(&xs);
        assert_eq!(ys.row(0), &[5.5, -2.5]);
        assert_eq!(ys.row(1), &[0.5, 6.5]);
    }

    #[test]
    fn objective_batch_matches_objective() {
        let net = samples::xor_network();
        let xs = batch_of(&[&[0.1, 0.9], &[0.5, 0.5], &[0.95, 0.95]]);
        let f = net.objective_batch(&xs, 1);
        for (x, fi) in xs.rows_iter().zip(f.iter()) {
            assert_eq!(*fi, net.objective(x, 1));
        }
    }

    #[test]
    fn gradient_batch_matches_gradient_per_row() {
        let net = crate::train::random_mlp(4, &[10, 8], 3, 33);
        let points: Vec<Vec<f64>> = (0..6)
            .map(|i| {
                (0..4)
                    .map(|j| ((i * 7 + j * 3) as f64 * 0.17).cos() * 0.8)
                    .collect()
            })
            .collect();
        let refs: Vec<&[f64]> = points.iter().map(Vec::as_slice).collect();
        let gs = net.objective_gradient_batch(&batch_of(&refs), 2);
        for (x, g) in points.iter().zip(gs.rows_iter()) {
            let reference = net.objective_gradient(x, 2);
            for (a, b) in g.iter().zip(reference.iter()) {
                assert!(
                    (a - b).abs() <= 1e-12,
                    "batched gradient {a} vs per-point {b}"
                );
            }
        }
    }

    #[test]
    fn gradient_batch_routes_maxpool_ties_to_lowest_index() {
        let net = Network::new(
            4,
            vec![
                Layer::MaxPool(MaxPoolLayer::new(4, vec![vec![0, 1], vec![2, 3]])),
                Layer::Affine(AffineLayer::new(
                    Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]),
                    vec![0.0, 0.0],
                )),
            ],
        )
        .unwrap();
        // Both pool groups tie; the per-point path sends gradient to the
        // lowest index of each group.
        let xs = batch_of(&[&[2.0, 2.0, -1.0, -1.0]]);
        let g = net.objective_gradient_batch(&xs, 0);
        assert_eq!(g.row(0), net.objective_gradient(&[2.0, 2.0, -1.0, -1.0], 0));
    }
}
