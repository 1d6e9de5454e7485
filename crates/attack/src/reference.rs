//! The attack as it ran before the shared forward trace, kept as a
//! bitwise reference: every PGD step evaluates the network three times
//! (`objective_gradient` runs `eval` for the rival and `eval_trace` for
//! the backward pass, then `objective` at the new iterate), and every
//! restart step twice. The tests below pin the trace-reusing search to
//! this one: same points, same objective bits, same evaluation counts.

use domains::Bounds;
use nn::Network;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tensor::Matrix;

use crate::{gradient_is_finite, sanitize_objective, PgdConfig};

/// Point, objective and evaluation count of one reference run.
type Run = (Vec<f64>, f64, usize);

fn pgd(net: &Network, region: &Bounds, target: usize, start: &[f64], config: &PgdConfig) -> Run {
    let mut x = start.to_vec();
    let mut best = x.clone();
    let mut best_f = sanitize_objective(net.objective(&x, target));
    let mut evals = 1;
    let mut step = config.step_fraction * region.mean_width().max(1e-12);
    for _ in 0..config.steps {
        if best_f <= 0.0 {
            break;
        }
        let g = net.objective_gradient(&x, target);
        evals += 1;
        if !gradient_is_finite(&g) {
            break;
        }
        let norm = tensor::ops::norm2(&g);
        if norm < 1e-12 {
            break;
        }
        for (xi, gi) in x.iter_mut().zip(g.iter()) {
            *xi -= step * gi / norm;
        }
        region.clamp(&mut x);
        let f = sanitize_objective(net.objective(&x, target));
        evals += 1;
        if f < best_f {
            best_f = f;
            best = x.clone();
        } else {
            step *= config.decay;
            if step < 1e-12 {
                break;
            }
        }
    }
    (best, best_f, evals)
}

fn coordinate_descent(
    net: &Network,
    region: &Bounds,
    target: usize,
    start: &[f64],
    sweeps: usize,
) -> Run {
    let mut x = start.to_vec();
    let mut best_f = sanitize_objective(net.objective(&x, target));
    let mut evals = 1;
    let free: Vec<usize> = region
        .widths()
        .iter()
        .enumerate()
        .filter(|(_, w)| **w > 0.0)
        .map(|(i, _)| i)
        .collect();
    for _ in 0..sweeps {
        if best_f <= 0.0 {
            break;
        }
        let mut improved = false;
        for &i in &free {
            let original = x[i];
            let mut local_best = best_f;
            let mut local_val = original;
            for candidate in [region.lower()[i], region.upper()[i]] {
                if candidate == original {
                    continue;
                }
                x[i] = candidate;
                let f = sanitize_objective(net.objective(&x, target));
                evals += 1;
                if f < local_best {
                    local_best = f;
                    local_val = candidate;
                }
            }
            x[i] = local_val;
            if local_best < best_f {
                best_f = local_best;
                improved = true;
            }
            if best_f <= 0.0 {
                break;
            }
        }
        if !improved {
            break;
        }
    }
    (x, best_f, evals)
}

fn pgd_batch(
    net: &Network,
    region: &Bounds,
    target: usize,
    starts: &Matrix,
    config: &PgdConfig,
) -> Run {
    let n = starts.cols();
    let base_step = config.step_fraction * region.mean_width().max(1e-12);
    let mut xs = starts.clone();
    let mut best = starts.clone();
    let mut best_f: Vec<f64> = net
        .objective_batch(&xs, target)
        .into_iter()
        .map(sanitize_objective)
        .collect();
    let mut evals = starts.rows();
    let mut step = vec![base_step; starts.rows()];
    let mut active = vec![true; starts.rows()];
    'outer: for _ in 0..config.steps {
        if best_f.iter().any(|f| *f <= 0.0) {
            break;
        }
        let live: Vec<usize> = (0..xs.rows()).filter(|&r| active[r]).collect();
        if live.is_empty() {
            break;
        }
        let mut packed = Matrix::zeros(0, n);
        for &r in &live {
            packed.push_row(xs.row(r));
        }
        let gs = net.objective_gradient_batch(&packed, target);
        evals += live.len();
        for ((&r, g), x) in live.iter().zip(gs.rows_iter()).zip(packed.rows_iter_mut()) {
            if !gradient_is_finite(g) {
                active[r] = false;
                continue;
            }
            let norm = tensor::ops::norm2(g);
            if norm < 1e-12 {
                active[r] = false;
                continue;
            }
            for (xi, gi) in x.iter_mut().zip(g.iter()) {
                *xi -= step[r] * gi / norm;
            }
            region.clamp(x);
            xs.row_mut(r).copy_from_slice(x);
        }
        let fs = net.objective_batch(&packed, target);
        for (&r, f) in live.iter().zip(fs.iter()) {
            if !active[r] {
                continue;
            }
            evals += 1;
            let f = sanitize_objective(*f);
            if f < best_f[r] {
                best_f[r] = f;
                best.row_mut(r).copy_from_slice(xs.row(r));
                if f <= 0.0 {
                    break 'outer;
                }
            } else {
                step[r] *= config.decay;
                if step[r] < 1e-12 {
                    active[r] = false;
                }
            }
        }
    }
    let winner = (0..best_f.len())
        .reduce(|a, b| if best_f[b] < best_f[a] { b } else { a })
        .unwrap();
    (best.row(winner).to_vec(), best_f[winner], evals)
}

fn fgsm_step(net: &Network, region: &Bounds, target: usize, start: &[f64]) -> Vec<f64> {
    let g = net.objective_gradient(start, target);
    if !gradient_is_finite(&g) {
        return start.to_vec();
    }
    let mut x: Vec<f64> = start
        .iter()
        .zip(g.iter())
        .zip(region.widths().iter())
        .map(|((xi, gi), w)| xi - w * gi.signum())
        .collect();
    region.clamp(&mut x);
    x
}

fn merge(a: Run, b: Run) -> Run {
    let evals = a.2 + b.2;
    let mut best = if b.1 < a.1 { b } else { a };
    best.2 = evals;
    best
}

/// `Minimizer::minimize_from` without the phase clock.
fn minimize_from(
    config: &PgdConfig,
    restarts: usize,
    seed: u64,
    net: &Network,
    region: &Bounds,
    target: usize,
    incumbent: Option<&[f64]>,
) -> Run {
    let center = region.center();
    let mut best = match incumbent {
        Some(x) => {
            let mut start: Vec<f64> = x
                .iter()
                .zip(&center)
                .map(|(v, c)| if v.is_finite() { *v } else { *c })
                .collect();
            region.clamp(&mut start);
            pgd(net, region, target, &start, config)
        }
        None => {
            let best = pgd(net, region, target, &center, config);
            if best.1 <= 0.0 {
                return best;
            }
            let corner = fgsm_step(net, region, target, &center);
            merge(best, pgd(net, region, target, &corner, config))
        }
    };
    if best.1 <= 0.0 {
        return best;
    }
    best = merge(best, coordinate_descent(net, region, target, &center, 2));
    if best.1 <= 0.0 || incumbent.is_some() {
        return best;
    }
    if restarts > 0 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut starts = Matrix::zeros(0, region.dim());
        for _ in 0..restarts {
            starts.push_row(&region.sample(&mut rng));
        }
        best = merge(best, pgd_batch(net, region, target, &starts, config));
    }
    best
}

mod tests {
    use super::*;
    use crate::{AttackResult, Minimizer};
    use nn::conv::{max_pool_groups, Conv2d, Shape3};
    use nn::{samples, AffineLayer, Layer};
    use rand::Rng;

    /// A 1×6×6 input through a 2-channel 3×3 convolution, ReLU, 2×2 max
    /// pooling and a dense 3-class readout.
    fn conv_pool_net() -> Network {
        let mut rng = StdRng::seed_from_u64(11);
        let input = Shape3::new(1, 6, 6);
        let weights = (0..18).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let conv = Conv2d::new(input, 2, (3, 3), (1, 1), weights, vec![0.05, -0.05]);
        let pool = max_pool_groups(conv.output_shape(), 2);
        let readout = Matrix::from_fn(3, pool.output_dim(), |_, _| rng.gen_range(-1.0..1.0));
        Network::new(
            input.len(),
            vec![
                Layer::Affine(conv.to_affine()),
                Layer::Relu,
                Layer::MaxPool(pool),
                Layer::Affine(AffineLayer::new(readout, vec![0.0; 3])),
            ],
        )
        .unwrap()
    }

    fn poisoned_net() -> Network {
        Network::new(
            1,
            vec![Layer::Affine(AffineLayer::new(
                Matrix::from_rows(&[&[f64::NAN], &[1.0]]),
                vec![0.0, 0.0],
            ))],
        )
        .unwrap()
    }

    /// `(network, region, target)` triples: robust and falsifiable
    /// regions on every network family the attack runs on.
    fn cases() -> Vec<(Network, Bounds, usize)> {
        let mlp = nn::train::random_mlp(4, &[10], 3, 17);
        let deep = nn::train::random_mlp(6, &[12, 8], 4, 5);
        let conv = conv_pool_net();
        let conv_center: Vec<f64> = (0..36)
            .map(|i| ((i * 7) as f64 * 0.13).sin().abs())
            .collect();
        let conv_target = conv.classify(&conv_center);
        let deep_center = [0.1, -0.2, 0.3, 0.0, 0.5, -0.4];
        let deep_target = deep.classify(&deep_center);
        vec![
            (
                samples::xor_network(),
                Bounds::new(vec![0.1, 0.1], vec![0.9, 0.9]),
                1,
            ),
            (
                samples::xor_network(),
                Bounds::new(vec![0.0, 0.0], vec![1.0, 1.0]),
                1,
            ),
            (
                samples::example_2_2_network(),
                Bounds::new(vec![-1.0], vec![2.0]),
                1,
            ),
            (
                samples::example_2_2_network(),
                Bounds::new(vec![-1.0], vec![1.0]),
                1,
            ),
            (
                mlp.clone(),
                Bounds::linf_ball(&[0.2, -0.1, 0.0, 0.5], 0.3, None),
                0,
            ),
            (
                mlp,
                Bounds::linf_ball(&[0.2, -0.1, 0.0, 0.5], 0.05, None),
                2,
            ),
            (
                deep.clone(),
                Bounds::linf_ball(&deep_center, 0.4, None),
                deep_target,
            ),
            (
                deep,
                Bounds::linf_ball(&deep_center, 0.02, None),
                deep_target,
            ),
            (
                conv.clone(),
                Bounds::linf_ball(&conv_center, 0.3, Some((0.0, 1.0))),
                conv_target,
            ),
            (
                conv,
                Bounds::linf_ball(&conv_center, 0.02, Some((0.0, 1.0))),
                conv_target,
            ),
            (poisoned_net(), Bounds::new(vec![0.0], vec![1.0]), 0),
        ]
    }

    /// The default schedule, and one whose steep decay retires batch rows
    /// at different steps (so restart batches shrink and repack).
    fn configs() -> [PgdConfig; 2] {
        [
            PgdConfig::default(),
            PgdConfig {
                steps: 120,
                step_fraction: 0.6,
                decay: 0.02,
            },
        ]
    }

    fn starts(region: &Bounds, seed: u64, count: usize) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut points = vec![region.center(), region.lower().to_vec()];
        points.extend((0..count).map(|_| region.sample(&mut rng)));
        points
    }

    fn assert_same(what: &str, got: &AttackResult, want: &Run) {
        assert_eq!(got.point, want.0, "{what}: point");
        assert_eq!(
            got.objective.to_bits(),
            want.1.to_bits(),
            "{what}: objective"
        );
        assert_eq!(got.evals, want.2, "{what}: evals");
    }

    #[test]
    fn pgd_matches_the_three_forward_reference() {
        for (k, (net, region, target)) in cases().iter().enumerate() {
            for config in &configs() {
                for (s, start) in starts(region, k as u64, 3).iter().enumerate() {
                    let got = crate::pgd(net, region, *target, start, config);
                    let want = pgd(net, region, *target, start, config);
                    assert_same(&format!("case {k} start {s}"), &got, &want);
                }
            }
        }
    }

    #[test]
    fn pgd_batch_matches_the_reference() {
        for (k, (net, region, target)) in cases().iter().enumerate() {
            for config in &configs() {
                for rows in [1, 3, 6] {
                    let points = starts(region, 100 + k as u64, rows);
                    let refs: Vec<&[f64]> = points.iter().map(Vec::as_slice).collect();
                    let batch = Matrix::from_rows(&refs[..rows]);
                    let got = crate::pgd_batch(net, region, *target, &batch, config);
                    let want = pgd_batch(net, region, *target, &batch, config);
                    assert_same(&format!("case {k} rows {rows}"), &got, &want);
                }
            }
        }
    }

    #[test]
    fn fgsm_and_coordinate_descent_match_the_reference() {
        for (k, (net, region, target)) in cases().iter().enumerate() {
            for (s, start) in starts(region, 200 + k as u64, 2).iter().enumerate() {
                let got = crate::fgsm_step(net, region, *target, start);
                assert_eq!(
                    got,
                    fgsm_step(net, region, *target, start),
                    "case {k} start {s}"
                );
                for sweeps in [1, 3] {
                    let got = crate::coordinate_descent(net, region, *target, start, sweeps);
                    let want = coordinate_descent(net, region, *target, start, sweeps);
                    assert_same(&format!("case {k} start {s} sweeps {sweeps}"), &got, &want);
                }
            }
        }
    }

    #[test]
    fn minimize_from_matches_the_reference_cold_and_warm() {
        for (k, (net, region, target)) in cases().iter().enumerate() {
            for config in configs() {
                for (seed, restarts) in [(1, 3), (7, 5)] {
                    let minimizer = Minimizer::new(seed)
                        .with_restarts(restarts)
                        .with_config(config.clone());
                    let incumbents = starts(region, 300 + k as u64, 1);
                    for incumbent in [None, Some(&incumbents[1]), Some(&incumbents[2])] {
                        let incumbent = incumbent.map(Vec::as_slice);
                        let got = minimizer.minimize_from(net, region, *target, incumbent);
                        let want =
                            minimize_from(&config, restarts, seed, net, region, *target, incumbent);
                        let what = format!("case {k} seed {seed} warm {}", incumbent.is_some());
                        assert_same(&what, &got, &want);
                        let phase_evals: usize = got.phases.iter().map(|p| p.evals).sum();
                        assert_eq!(phase_evals, got.evals, "{what}: phase evals");
                    }
                }
            }
        }
    }
}
