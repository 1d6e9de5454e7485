//! One forward trace serving both the objective and its gradient.
//!
//! [`Network::forward`] evaluates a point into a reusable [`Trace`] (the
//! vector after every layer); [`Network::backward`] and
//! [`Network::objective_backward`] backpropagate through that same trace.
//! A descent loop that evaluates `F(x')` therefore already holds what the
//! gradient at `x'` needs: one forward pass plus one backward pass per
//! step, and no allocation once the buffers have grown to the network's
//! widths. [`Network::eval`], [`Network::objective`],
//! [`Network::gradient`] and [`Network::objective_gradient`] are thin
//! wrappers over this pair.

use std::cmp::Ordering;

use crate::{Layer, Network};

/// Reusable per-layer buffers for one forward pass and the backward pass
/// that reads it.
///
/// A trace is not tied to one network: [`Network::forward`] resizes the
/// buffers to whatever network it runs, reusing their capacity.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// `acts[0]` is the input and `acts[i + 1]` the output of layer `i`.
    pub(crate) acts: Vec<Vec<f64>>,
    /// `grads[i]` is the gradient with respect to `acts[i]`.
    pub(crate) grads: Vec<Vec<f64>>,
}

impl Trace {
    /// An empty trace; the first forward pass sizes its buffers.
    pub fn new() -> Self {
        Trace::default()
    }

    /// The network output of the last forward pass.
    ///
    /// # Panics
    ///
    /// Panics if no forward pass has run.
    pub fn output(&self) -> &[f64] {
        self.acts.last().expect("trace holds no forward pass")
    }

    /// The robustness objective `F` (Eq. 2) at the traced input: the
    /// [`crate::margin`] of the traced output.
    ///
    /// # Panics
    ///
    /// Panics if no forward pass has run, `target` is out of range, or
    /// the network has fewer than two outputs.
    pub fn objective(&self, target: usize) -> f64 {
        crate::margin(self.output(), target)
    }
}

impl Network {
    /// Evaluates `x` into `trace` and returns the network output.
    ///
    /// Each layer writes into its own reused buffer; affine layers run
    /// `matvec` followed by a separate bias add, exactly as
    /// [`crate::Layer::apply`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.input_dim()`.
    pub fn forward<'t>(&self, x: &[f64], trace: &'t mut Trace) -> &'t [f64] {
        assert_eq!(x.len(), self.input_dim(), "input dimension mismatch");
        let acts = &mut trace.acts;
        acts.resize_with(self.layers().len() + 1, Vec::new);
        acts[0].clear();
        acts[0].extend_from_slice(x);
        for (idx, layer) in self.layers().iter().enumerate() {
            let (done, rest) = acts.split_at_mut(idx + 1);
            layer.apply_into(&done[idx], &mut rest[0]);
        }
        trace.output()
    }

    /// Gradient of the scalar `seed . N(x)` with respect to the input,
    /// where `x` is the input of the forward pass held in `trace`.
    ///
    /// Reads the trace instead of re-evaluating: affine layers use the
    /// transposed product of [`tensor::Matrix::matvec_transpose`] (same
    /// loop order, zero entries skipped), ReLU kinks (pre-activation
    /// exactly zero) take the subgradient `0`, and at max-pool ties the
    /// lowest-index winner receives the gradient.
    ///
    /// # Panics
    ///
    /// Panics if `seed.len() != self.output_dim()` or `trace` does not
    /// hold a forward pass of this network.
    pub fn backward<'t>(&self, trace: &'t mut Trace, seed: &[f64]) -> &'t [f64] {
        assert_eq!(
            seed.len(),
            self.output_dim(),
            "seed dimension must equal output dimension"
        );
        let top = self.seed_index(trace);
        let out = &mut trace.grads[top];
        out.clear();
        out.extend_from_slice(seed);
        self.backpropagate(trace)
    }

    /// Gradient of the robustness objective `F` (Eq. 2) for class
    /// `target` at the input of the forward pass held in `trace`.
    ///
    /// `F(x) = N(x)_target - N(x)_j*` where `j*` is the strongest other
    /// class in the traced output (ties go to the last such class); the
    /// seed is `+1` at `target` and `-1` at `j*`.
    ///
    /// # Panics
    ///
    /// Panics if `target >= self.output_dim()`, the network has fewer
    /// than two outputs, or `trace` does not hold a forward pass of this
    /// network.
    pub fn objective_backward<'t>(&self, trace: &'t mut Trace, target: usize) -> &'t [f64] {
        let top = self.seed_index(trace);
        let rival = rival(trace.output(), target);
        let out = &mut trace.grads[top];
        out.clear();
        out.resize(self.output_dim(), 0.0);
        out[target] = 1.0;
        out[rival] = -1.0;
        self.backpropagate(trace)
    }

    /// Checks that `trace` holds a forward pass of this network, sizes
    /// its gradient buffers, and returns the index of the one the
    /// backward seed goes into.
    fn seed_index(&self, trace: &mut Trace) -> usize {
        let depth = self.layers().len();
        assert!(
            trace.acts.len() == depth + 1 && trace.acts[depth].len() == self.output_dim(),
            "trace does not hold a forward pass of this network"
        );
        trace.grads.resize_with(depth + 1, Vec::new);
        depth
    }

    /// Runs the backward pass from the seed in the last gradient buffer
    /// down to the input.
    fn backpropagate<'t>(&self, trace: &'t mut Trace) -> &'t [f64] {
        let Trace { acts, grads } = trace;
        for (idx, layer) in self.layers().iter().enumerate().rev() {
            let input = &acts[idx];
            let (lower, upper) = grads.split_at_mut(idx + 1);
            let (g, back) = (&upper[0], &mut lower[idx]);
            match layer {
                Layer::Affine(a) => {
                    back.resize(a.input_dim(), 0.0);
                    a.weights.matvec_transpose_into(g, back);
                }
                Layer::Relu => {
                    back.clear();
                    back.extend(
                        input
                            .iter()
                            .zip(g.iter())
                            .map(|(pre, gi)| if *pre > 0.0 { *gi } else { 0.0 }),
                    );
                }
                Layer::MaxPool(p) => {
                    back.clear();
                    back.resize(p.input_dim, 0.0);
                    for (out_idx, group) in p.groups.iter().enumerate() {
                        let winner = group
                            .iter()
                            .copied()
                            .max_by(|&a, &b| {
                                input[a]
                                    .partial_cmp(&input[b])
                                    .unwrap_or(Ordering::Equal)
                                    // Prefer the lower index on ties.
                                    .then(b.cmp(&a))
                            })
                            .expect("max-pool groups are non-empty");
                        back[winner] += g[out_idx];
                    }
                }
            }
        }
        &grads[0]
    }
}

/// The strongest class other than `target` in `y`; ties (and
/// incomparable NaN scores) go to the later index.
///
/// # Panics
///
/// Panics if `target >= y.len()` or `y.len() < 2`.
fn rival(y: &[f64], target: usize) -> usize {
    assert!(target < y.len(), "target class out of range");
    y.iter()
        .enumerate()
        .filter(|(j, _)| *j != target)
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(Ordering::Equal))
        .map(|(j, _)| j)
        .expect("network must have at least two outputs")
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tensor::Matrix;

    use crate::conv::{max_pool_groups, Conv2d, Shape3};
    use crate::{margin, AffineLayer, BatchTrace, Layer, Network, Trace};

    /// The evaluation as it was before the shared trace: a fresh vector
    /// per layer, affine layers as `matvec` plus a separate bias add.
    fn reference_trace(net: &Network, x: &[f64]) -> Vec<Vec<f64>> {
        let mut trace = vec![x.to_vec()];
        for layer in net.layers() {
            let v = trace.last().unwrap();
            let next = match layer {
                Layer::Affine(a) => {
                    let mut y = a.weights.matvec(v);
                    for (yi, bi) in y.iter_mut().zip(&a.bias) {
                        *yi += bi;
                    }
                    y
                }
                Layer::Relu => v.iter().map(|t| t.max(0.0)).collect(),
                Layer::MaxPool(p) => p
                    .groups
                    .iter()
                    .map(|g| g.iter().map(|&i| v[i]).fold(f64::NEG_INFINITY, f64::max))
                    .collect(),
            };
            trace.push(next);
        }
        trace
    }

    /// The objective gradient as it was before the shared trace: a rival
    /// from one evaluation, a second evaluation for the backward pass.
    fn reference_objective_gradient(net: &Network, x: &[f64], target: usize) -> Vec<f64> {
        let y = reference_trace(net, x).pop().unwrap();
        let rival = y
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != target)
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(j, _)| j)
            .unwrap();
        let mut g = vec![0.0; y.len()];
        g[target] = 1.0;
        g[rival] = -1.0;
        let trace = reference_trace(net, x);
        for (idx, layer) in net.layers().iter().enumerate().rev() {
            let input = &trace[idx];
            g = match layer {
                Layer::Affine(a) => {
                    let w = &a.weights;
                    let mut back = vec![0.0; w.cols()];
                    for (i, gi) in g.iter().enumerate() {
                        if *gi == 0.0 {
                            continue;
                        }
                        for (b, wij) in back.iter_mut().zip(w.row(i)) {
                            *b += gi * wij;
                        }
                    }
                    back
                }
                Layer::Relu => input
                    .iter()
                    .zip(&g)
                    .map(|(pre, gi)| if *pre > 0.0 { *gi } else { 0.0 })
                    .collect(),
                Layer::MaxPool(p) => {
                    let mut back = vec![0.0; p.input_dim];
                    for (out_idx, group) in p.groups.iter().enumerate() {
                        let winner = group
                            .iter()
                            .copied()
                            .max_by(|&a, &b| {
                                input[a]
                                    .partial_cmp(&input[b])
                                    .unwrap_or(std::cmp::Ordering::Equal)
                                    .then(b.cmp(&a))
                            })
                            .unwrap();
                        back[winner] += g[out_idx];
                    }
                    back
                }
            };
        }
        g
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A 1×6×6 input through a 2-channel 3×3 convolution, ReLU, 2×2 max
    /// pooling and a dense readout to `classes` scores.
    fn conv_pool_net(seed: u64, classes: usize) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        let input = Shape3::new(1, 6, 6);
        let weights = (0..18).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let conv = Conv2d::new(input, 2, (3, 3), (1, 1), weights, vec![0.1, -0.1]);
        let pool = max_pool_groups(conv.output_shape(), 2);
        let readout = Matrix::from_fn(classes, pool.output_dim(), |_, _| rng.gen_range(-1.0..1.0));
        Network::new(
            input.len(),
            vec![
                Layer::Affine(conv.to_affine()),
                Layer::Relu,
                Layer::MaxPool(pool),
                Layer::Affine(AffineLayer::new(readout, vec![0.0; classes])),
            ],
        )
        .unwrap()
    }

    /// `net` with random nonzero biases (`random_mlp` leaves them 0).
    fn with_biases(net: Network, seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xb1a5);
        let layers = net
            .layers()
            .iter()
            .map(|layer| match layer {
                Layer::Affine(a) => {
                    let bias = a.bias.iter().map(|_| rng.gen_range(-0.5..0.5)).collect();
                    Layer::Affine(AffineLayer::new(a.weights.clone(), bias))
                }
                other => other.clone(),
            })
            .collect();
        Network::new(net.input_dim(), layers).unwrap()
    }

    /// Random points plus the probes that hit the tie rules: the origin
    /// (every pre-activation of a zero-bias layer exactly 0, every pool
    /// group of a constant feature map tied) and a constant input.
    fn probes(dim: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let mut points: Vec<Vec<f64>> = (0..4)
            .map(|_| (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        points.push(vec![0.0; dim]);
        points.push(vec![0.5; dim]);
        points
    }

    /// One trace reused across every probe of every network must give
    /// the wrappers' and the reference's numbers bit for bit.
    fn check_shared_trace(nets: &[Network], seed: u64) -> Result<(), String> {
        let mut trace = Trace::new();
        for net in nets {
            for x in probes(net.input_dim(), seed) {
                let reference = reference_trace(net, &x);
                net.forward(&x, &mut trace);
                prop_assert_eq!(&trace.acts, &reference);
                for target in 0..net.output_dim() {
                    let f = trace.objective(target);
                    prop_assert_eq!(f.to_bits(), net.objective(&x, target).to_bits());
                    prop_assert_eq!(
                        f.to_bits(),
                        margin(reference.last().unwrap(), target).to_bits()
                    );
                    let g = net.objective_backward(&mut trace, target).to_vec();
                    prop_assert_eq!(bits(&g), bits(&net.objective_gradient(&x, target)));
                    prop_assert_eq!(
                        bits(&g),
                        bits(&reference_objective_gradient(net, &x, target))
                    );
                }
            }
        }
        Ok(())
    }

    proptest! {
        #[test]
        fn shared_trace_matches_objective_and_gradient_on_mlps(
            seed in 0u64..100_000,
            dim in 1usize..7,
            width in 1usize..10,
            classes in 2usize..5,
        ) {
            let deep = crate::train::random_mlp(dim, &[width, width + 3], classes, seed);
            let shallow = crate::train::random_mlp(dim + 2, &[width], classes, seed + 1);
            // Wider than one column block of the vector matvec kernels,
            // where a bias-seeded product would round differently.
            let wide = crate::train::random_mlp(2100, &[width], classes, seed + 2);
            check_shared_trace(&[deep, with_biases(shallow, seed), with_biases(wide, seed)], seed)?;
        }

        #[test]
        fn shared_trace_matches_objective_and_gradient_on_conv_pool_nets(
            seed in 0u64..100_000,
            classes in 2usize..5,
        ) {
            let mlp = crate::train::random_mlp(36, &[8], classes, seed);
            check_shared_trace(&[conv_pool_net(seed, classes), mlp], seed)?;
        }

        #[test]
        fn batch_trace_matches_objective_gradient_batch(
            seed in 0u64..100_000,
            classes in 2usize..5,
        ) {
            let mut trace = BatchTrace::new();
            for net in [conv_pool_net(seed, classes), crate::train::random_mlp(36, &[9, 7], classes, seed)] {
                let points = probes(net.input_dim(), seed);
                let rows: Vec<&[f64]> = points.iter().map(Vec::as_slice).collect();
                let xs = Matrix::from_rows(&rows);
                let ys = net.forward_batch(&xs, &mut trace).clone();
                prop_assert_eq!(&ys, &net.eval_batch(&xs));
                let target = seed as usize % classes;
                let gs = net.objective_backward_batch(&mut trace, target).clone();
                prop_assert_eq!(&gs, &net.objective_gradient_batch(&xs, target));
                for (x, g) in points.iter().zip(gs.rows_iter()) {
                    let reference = reference_objective_gradient(&net, x, target);
                    for (a, b) in g.iter().zip(&reference) {
                        prop_assert!((a - b).abs() <= 1e-12, "batched {} vs per-point {}", a, b);
                    }
                }
            }
        }
    }

    #[test]
    fn relu_input_exactly_at_zero_takes_the_zero_subgradient() {
        // Pre-activation x - 1 is exactly 0 at x = 1.
        let net = Network::new(
            1,
            vec![
                Layer::Affine(AffineLayer::new(Matrix::from_rows(&[&[1.0]]), vec![-1.0])),
                Layer::Relu,
                Layer::Affine(AffineLayer::new(
                    Matrix::from_rows(&[&[1.0], &[-1.0]]),
                    vec![0.0, 0.0],
                )),
            ],
        )
        .unwrap();
        let mut trace = Trace::new();
        net.forward(&[1.0], &mut trace);
        assert_eq!(trace.acts[1], vec![0.0]);
        assert_eq!(net.objective_backward(&mut trace, 0), &[0.0]);
        assert_eq!(net.objective_gradient(&[1.0], 0), vec![0.0]);
    }

    #[test]
    fn max_pool_ties_route_to_the_lowest_index() {
        let net = Network::new(
            4,
            vec![
                Layer::MaxPool(crate::MaxPoolLayer::new(4, vec![vec![0, 1], vec![2, 3]])),
                Layer::Affine(AffineLayer::new(Matrix::identity(2), vec![0.0, 0.0])),
            ],
        )
        .unwrap();
        let mut trace = Trace::new();
        net.forward(&[2.0, 2.0, -1.0, -1.0], &mut trace);
        assert_eq!(
            net.objective_backward(&mut trace, 0),
            &[1.0, 0.0, -1.0, 0.0]
        );
        assert_eq!(net.backward(&mut trace, &[1.0, 1.0]), &[1.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "trace does not hold a forward pass")]
    fn backward_without_forward_panics() {
        let net = crate::samples::xor_network();
        net.objective_backward(&mut Trace::new(), 0);
    }
}
