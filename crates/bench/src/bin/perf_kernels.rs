//! Performance-regression harness for the matrix-kernel hot path.
//!
//! Times the flat blocked kernels against naive per-generator references
//! and measures end-to-end region throughput, then emits machine-readable
//! `BENCH_kernels.json`. The committed baseline at the repo root is the
//! reference; regenerate it with `cargo run --release --bin perf_kernels`
//! after intentional kernel changes (see DESIGN.md, "Performance
//! architecture").
//!
//! Flags:
//! - `--smoke`: tiny shapes, one repetition — validates that the harness
//!   runs and the JSON schema is intact (used by `scripts/ci.sh`).
//! - `--out <path>`: write the JSON somewhere other than
//!   `BENCH_kernels.json` in the current directory.

use std::fmt::Write as _;
use std::time::Instant;

use domains::{AbstractElement, BaseDomain, Bounds, DomainChoice, Powerset, Workspace, Zonotope};
use nn::AffineLayer;
use tensor::kernels;
use tensor::Matrix;

/// One named measurement: times are medians over `reps` runs.
struct Sample {
    name: &'static str,
    /// Naive-reference median seconds (0 when no reference exists).
    naive_s: f64,
    /// Fast-path median seconds.
    fast_s: f64,
    /// Work-rate context (elements, regions, …) for human readers.
    note: String,
}

impl Sample {
    fn speedup(&self) -> f64 {
        if self.fast_s > 0.0 && self.naive_s > 0.0 {
            self.naive_s / self.fast_s
        } else {
            0.0
        }
    }
}

fn median(mut times: Vec<f64>) -> f64 {
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Times `f` `reps` times and returns the median seconds; a `sink`
/// accumulator defeats dead-code elimination.
fn time_median<F: FnMut() -> f64>(reps: usize, mut f: F) -> f64 {
    let mut times = Vec::with_capacity(reps);
    let mut sink = 0.0f64;
    for _ in 0..reps {
        let start = Instant::now();
        sink += f();
        times.push(start.elapsed().as_secs_f64());
    }
    assert!(sink.is_finite(), "benchmark computation poisoned");
    median(times)
}

/// Median seconds of `naive` and of `fast`, the two sides alternating
/// rep by rep, so that a drift in the host's speed (on a shared 2-vCPU
/// VM it exceeded the difference measured between back-to-back blocks
/// of reps) hits both sides alike.
fn time_alternating<N, F>(reps: usize, mut naive: N, mut fast: F) -> (f64, f64)
where
    N: FnMut() -> f64,
    F: FnMut() -> f64,
{
    let (mut naive_s, mut fast_s) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    let mut sink = 0.0f64;
    for _ in 0..reps {
        let start = Instant::now();
        sink += naive();
        naive_s.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        sink += fast();
        fast_s.push(start.elapsed().as_secs_f64());
    }
    assert!(sink.is_finite(), "benchmark computation poisoned");
    (median(naive_s), median(fast_s))
}

fn deterministic_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        (((r * 31 + c * 17) as f64 + seed as f64) * 0.193).sin()
    })
}

fn deterministic_layer(out_dim: usize, in_dim: usize, seed: u64) -> AffineLayer {
    AffineLayer::new(
        deterministic_matrix(out_dim, in_dim, seed),
        (0..out_dim).map(|r| (r as f64 * 0.53).cos()).collect(),
    )
}

/// Naive per-generator affine: the pre-flat `Vec<Vec<f64>>` hot path.
fn naive_zonotope_affine(
    center: &[f64],
    gens: &[Vec<f64>],
    layer: &AffineLayer,
) -> (Vec<f64>, Vec<Vec<f64>>) {
    let mut new_center = layer.weights.matvec(center);
    for (c, b) in new_center.iter_mut().zip(layer.bias.iter()) {
        *c += b;
    }
    let new_gens = gens
        .iter()
        .map(|g| layer.weights.matvec(g))
        .collect();
    (new_center, new_gens)
}

/// The tentpole target: one zonotope affine layer, 1024 neurons × 256
/// generators, naive per-generator matvecs vs one blocked matmul.
fn bench_zonotope_affine(neurons: usize, generators: usize, reps: usize) -> Sample {
    let layer = deterministic_layer(neurons, neurons, 3);
    // A `generators`-dim box has one noise symbol per coordinate; lifting
    // it through a `generators -> neurons` affine map yields a dense
    // zonotope with exactly the requested shape.
    let region = Bounds::new(vec![-1.0; generators], vec![1.0; generators]);
    let z = Zonotope::from_bounds(&region).affine(&deterministic_layer(neurons, generators, 5));
    let gens: Vec<Vec<f64>> = z.generator_rows().map(<[f64]>::to_vec).collect();
    let center = z.center().to_vec();

    let naive_s = time_median(reps, || {
        let (c, g) = naive_zonotope_affine(&center, &gens, &layer);
        c[0] + g.last().map_or(0.0, |r| r[0])
    });
    let mut ws = Workspace::new();
    let fast_s = time_median(reps, || {
        let out = z.affine_ws(&layer, None, &mut ws);
        let probe = out.center()[0];
        out.recycle(&mut ws);
        probe
    });
    Sample {
        name: "zonotope_affine",
        naive_s,
        fast_s,
        note: format!("{neurons} neurons x {} generators", z.num_generators()),
    }
}

/// Raw kernel: blocked `A·Bᵀ` vs the naive triple loop.
fn bench_matmul_transb(m: usize, k: usize, n: usize, reps: usize) -> Sample {
    let a = deterministic_matrix(m, k, 1);
    let b = deterministic_matrix(n, k, 2);
    let naive_s = time_median(reps, || {
        let mut acc = 0.0;
        for i in 0..m {
            for j in 0..n {
                let mut dot = 0.0;
                for kk in 0..k {
                    dot += a.row(i)[kk] * b.row(j)[kk];
                }
                acc += dot;
            }
        }
        acc
    });
    let fast_s = time_median(reps, || a.matmul_transb(&b).as_slice().iter().sum());
    Sample {
        name: "matmul_transb",
        naive_s,
        fast_s,
        note: format!("{m}x{k} . ({n}x{k})^T"),
    }
}

/// Fused center transform vs separate matvec + bias loop.
fn bench_matvec_bias(n: usize, reps: usize) -> Sample {
    let layer = deterministic_layer(n, n, 9);
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.17).sin()).collect();
    let naive_s = time_median(reps, || {
        let mut y = layer.weights.matvec(&x);
        for (yi, bi) in y.iter_mut().zip(layer.bias.iter()) {
            *yi += bi;
        }
        y[0]
    });
    let fast_s = time_median(reps, || layer.weights.matvec_bias(&x, &layer.bias)[0]);
    Sample {
        name: "matvec_bias",
        naive_s,
        fast_s,
        note: format!("{n}x{n} matrix"),
    }
}

/// Median seconds of `calls` back-to-back fused zonotope-affine calls on
/// `backend` (`neurons → neurons`, `generators` generators), timed at the
/// raw dispatch-table level (no element allocation in the loop).
fn time_fused_affine(
    backend: &kernels::Backend,
    neurons: usize,
    generators: usize,
    calls: usize,
    reps: usize,
) -> f64 {
    let weights = deterministic_matrix(neurons, neurons, 21);
    let bias: Vec<f64> = (0..neurons).map(|r| (r as f64 * 0.71).cos()).collect();
    let center: Vec<f64> = (0..neurons).map(|i| (i as f64 * 0.29).sin()).collect();
    let gens = deterministic_matrix(generators, neurons, 23);
    let mut out_c = vec![0.0; neurons];
    let mut out_g = vec![0.0; generators * neurons];
    time_median(reps, || {
        for _ in 0..calls {
            backend.zonotope_affine(
                weights.as_slice(),
                &bias,
                &center,
                gens.as_slice(),
                &mut out_c,
                &mut out_g,
            );
        }
        out_c[0] + out_g[out_g.len() - 1]
    })
}

/// The runtime-dispatched SIMD arm vs the portable scalar arm on the
/// fused zonotope-affine kernel. On hosts without a vector arm — or
/// under `CHARON_FORCE_SCALAR` — both sides time the scalar kernel and
/// the speedup sits at 1x by construction.
fn bench_simd_affine(neurons: usize, generators: usize, reps: usize) -> Sample {
    let active = kernels::active();
    Sample {
        name: "simd_affine",
        naive_s: time_fused_affine(kernels::scalar(), neurons, generators, 1, reps),
        fast_s: time_fused_affine(active, neurons, generators, 1, reps),
        note: format!("{} arm vs scalar, {neurons} neurons x {generators} generators", active.name()),
    }
}

/// The zonotope affine at the zoo's own shape: mnist-9x64's 64→64
/// hidden layers carry about 193 generators, and that shape takes most
/// of the e2ebench affine time. The active arm's packed generator
/// product (naive, `zonotope_affine`) against its product from the
/// layer's `Wᵀ` as a network holds it (fast, `matvec_bias` plus
/// `matmul_transb_wt`, what a zonotope gets from the checked
/// propagation), 100 calls per timing, after checking that both give
/// the same bits. Only
/// the `avx512` arm reads `Wᵀ`; on every other arm both sides run the
/// same kernel and the ratio is 1x by construction, so no gate applies.
fn bench_zoo_affine(reps: usize) -> Sample {
    const CALLS: usize = 100;
    let (neurons, generators) = (64, 193);
    let active = kernels::active();
    let bias: Vec<f64> = (0..neurons).map(|r| (r as f64 * 0.71).cos()).collect();
    let layer = AffineLayer::new(deterministic_matrix(neurons, neurons, 21), bias.clone());
    let center: Vec<f64> = (0..neurons).map(|i| (i as f64 * 0.29).sin()).collect();
    let gens = deterministic_matrix(generators, neurons, 23);
    // The network's own aligned copy of `Wᵀ`; an arm that does not read
    // it builds none and ignores the plain transpose it gets instead.
    let net = nn::Network::new(neurons, vec![nn::Layer::Affine(layer.clone())]).expect("one affine layer");
    let plain_t = layer.weights.transpose();
    let wt = net.transposed().and_then(|t| t[0].as_ref()).map_or(plain_t.as_slice(), |t| t.as_slice());
    let (w, g) = (layer.weights.as_slice(), gens.as_slice());
    let (mut packed_c, mut packed) = (vec![0.0; neurons], vec![0.0; generators * neurons]);
    let (mut wt_c, mut from_wt) = (vec![0.0; neurons], vec![f64::NAN; generators * neurons]);
    active.zonotope_affine(w, &bias, &center, g, &mut packed_c, &mut packed);
    active.matmul_transb_wt(g, w, wt, generators, neurons, neurons, &mut from_wt);
    assert!(
        packed.iter().zip(&from_wt).all(|(a, b)| a.to_bits() == b.to_bits()),
        "zoo_affine: the Wᵀ product differs from the packed one"
    );
    let (naive_s, fast_s) = time_alternating(
        reps,
        || {
            for _ in 0..CALLS {
                active.zonotope_affine(w, &bias, &center, g, &mut packed_c, &mut packed);
            }
            packed_c[0] + packed[packed.len() - 1]
        },
        || {
            for _ in 0..CALLS {
                active.matvec_bias(w, &center, &bias, &mut wt_c);
                active.matmul_transb_wt(g, w, wt, generators, neurons, neurons, &mut from_wt);
            }
            wt_c[0] + from_wt[from_wt.len() - 1]
        },
    );
    Sample {
        name: "zoo_affine",
        naive_s,
        fast_s,
        note: format!(
            "{} arm, packed vs Wᵀ generator product, {neurons} neurons x {generators} generators, {CALLS} calls",
            active.name()
        ),
    }
}

/// Region throughput of the region driver: the same refinement-heavy
/// verification run on one inline worker (naive) and on four
/// work-stealing workers (fast). On a host with fewer cores than workers
/// the parallel run cannot win; the row exists so scheduler regressions
/// are visible wherever the baseline was recorded.
fn bench_scheduler_throughput(reps: usize) -> Sample {
    use std::sync::Arc;
    let net = nn::samples::xor_network();
    let prop = charon::RobustnessProperty::new(Bounds::new(vec![0.3, 0.3], vec![0.7, 0.7]), 1);
    let threads = 4;
    let timed = |workers: usize| {
        let verifier = charon::parallel::ParallelVerifier::new(
            Arc::new(charon::policy::FixedPolicy::new(domains::DomainChoice::interval())),
            charon::VerifierConfig::default(),
            workers,
        );
        let net = &net;
        let prop = &prop;
        move || {
            let run = verifier.try_verify_run(net, prop).expect("bench verification");
            assert!(run.verdict.is_verified(), "bench property must verify");
            run.stats.regions as f64
        }
    };
    let naive_s = time_median(reps, timed(1));
    let fast_s = time_median(reps, timed(threads));
    Sample {
        name: "scheduler_throughput",
        naive_s,
        fast_s,
        note: format!("xor interval refinement, 1 inline worker vs {threads} work-stealing workers"),
    }
}

/// End-to-end: full zonotope propagation through a deep MLP, fresh
/// allocations vs the Workspace-recycled path.
fn bench_region_throughput(width: usize, depth: usize, reps: usize) -> Sample {
    let hidden = vec![width; depth];
    let net = nn::train::random_mlp(8, &hidden, 4, 42);
    let region = Bounds::linf_ball(&[0.05; 8], 0.1, None);

    let naive_s = time_median(reps, || {
        let mut e = Zonotope::from_bounds(&region);
        for layer in net.layers() {
            e = match layer {
                nn::Layer::Affine(a) => e.affine(a),
                nn::Layer::Relu => e.relu(),
                nn::Layer::MaxPool(p) => e.max_pool(p),
            };
        }
        e.margin_lower_bound(0)
    });
    let mut ws = Workspace::new();
    let transposed = net.transposed();
    let fast_s = time_median(reps, || {
        let mut e = Zonotope::from_bounds(&region);
        for (k, layer) in net.layers().iter().enumerate() {
            e = match layer {
                nn::Layer::Affine(a) => {
                    let next = e.affine_ws(a, transposed.and_then(|t| t[k].as_ref()), &mut ws);
                    e.recycle(&mut ws);
                    next
                }
                nn::Layer::Relu => e.relu(),
                nn::Layer::MaxPool(p) => {
                    let next = e.max_pool(p);
                    e.recycle(&mut ws);
                    next
                }
            };
        }
        let margin = e.margin_lower_bound(0);
        e.recycle(&mut ws);
        margin
    });
    Sample {
        name: "region_propagation",
        naive_s,
        fast_s,
        note: format!("8 -> {depth}x{width} -> 4 MLP"),
    }
}

/// One PGD run of the counterexample search (Algorithm 1, line 2):
/// `steps` descent steps written against the public per-point calls
/// (`objective_gradient`, then `objective` at the new iterate: two
/// forward passes and one backward pass per step) vs `attack::pgd`,
/// whose next gradient reads the forward trace of the objective
/// evaluation (one forward and one backward pass per step). Both sides
/// visit the same iterates bit for bit.
fn bench_attack_pgd(reps: usize) -> Sample {
    let steps = 60;
    let net = nn::train::random_mlp(784, &[32, 32, 32], 10, 7);
    let center: Vec<f64> = (0..784).map(|i| (i as f64 * 0.013).sin().abs()).collect();
    let target = net.classify(&center);
    let region = Bounds::linf_ball(&center, 0.002, Some((0.0, 1.0)));
    let config = attack::PgdConfig {
        steps,
        ..attack::PgdConfig::default()
    };

    let naive_s = time_median(reps, || {
        let mut x = center.clone();
        let mut best_f = net.objective(&x, target);
        let mut step = config.step_fraction * region.mean_width();
        for _ in 0..steps {
            let g = net.objective_gradient(&x, target);
            let norm = tensor::ops::norm2(&g);
            if best_f <= 0.0 || norm < 1e-12 {
                break;
            }
            for (xi, gi) in x.iter_mut().zip(&g) {
                *xi -= step * gi / norm;
            }
            region.clamp(&mut x);
            let f = net.objective(&x, target);
            if f < best_f {
                best_f = f;
            } else {
                step *= config.decay;
            }
        }
        best_f
    });
    let fast_s = time_median(reps, || {
        attack::pgd(&net, &region, target, &center, &config).objective
    });
    Sample {
        name: "attack_pgd",
        naive_s,
        fast_s,
        note: format!("{steps}-step PGD, 784 -> 3x32 -> 10 MLP"),
    }
}

/// The row-form attack evaluation, written out layer by layer:
/// each affine layer is `backend.matvec` of the rows of `W` plus the
/// bias, and the backward pass is the scalar arm's `matvec_transpose`
/// loop. Returns `F(x)` and writes `∇F(x)` into `grad`.
fn row_form_attack_eval(
    backend: &kernels::Backend,
    net: &nn::Network,
    x: &[f64],
    target: usize,
    acts: &mut Vec<Vec<f64>>,
    grad: &mut Vec<f64>,
) -> f64 {
    acts.resize_with(net.layers().len() + 1, Vec::new);
    acts[0].clear();
    acts[0].extend_from_slice(x);
    for (idx, layer) in net.layers().iter().enumerate() {
        let (done, rest) = acts.split_at_mut(idx + 1);
        let (v, y) = (&done[idx], &mut rest[0]);
        match layer {
            nn::Layer::Affine(a) => {
                y.resize(a.output_dim(), 0.0);
                backend.matvec(a.weights.as_slice(), v, y);
                for (yi, bi) in y.iter_mut().zip(&a.bias) {
                    *yi += bi;
                }
            }
            nn::Layer::Relu => {
                y.clear();
                y.extend(v.iter().map(|t| t.max(0.0)));
            }
            nn::Layer::MaxPool(_) => unreachable!("the sample network is an MLP"),
        }
    }
    let out = acts.last().expect("trace holds the output");
    let f = nn::margin(out, target);
    let rival = (0..out.len())
        .filter(|&j| j != target)
        .max_by(|&a, &b| out[a].partial_cmp(&out[b]).unwrap_or(std::cmp::Ordering::Equal))
        .expect("two classes");
    let mut g = vec![0.0; out.len()];
    g[target] = 1.0;
    g[rival] = -1.0;
    for (idx, layer) in net.layers().iter().enumerate().rev() {
        match layer {
            nn::Layer::Affine(a) => {
                grad.resize(a.input_dim(), 0.0);
                kernels::scalar().matvec_transpose(a.weights.as_slice(), &g, grad);
                std::mem::swap(&mut g, grad);
            }
            _ => {
                for (gi, pre) in g.iter_mut().zip(&acts[idx]) {
                    *gi = if *pre > 0.0 { *gi } else { 0.0 };
                }
            }
        }
    }
    std::mem::swap(&mut g, grad);
    f
}

/// One attack evaluation (`Network::forward` plus
/// `objective_backward`) on mnist-9x64's shape, a 64 → 8×64 → 10 MLP,
/// 1000 evaluations per timing at points whose hidden layers are about
/// half ReLU-off. Naive is the row-form path of the earlier kernels
/// ([`row_form_attack_eval`] on the `avx2` arm); fast is the network's
/// own path on the active arm. Both must give the same bits, which the
/// sample checks first. Hosts without AVX2 time the active arm's
/// `matvec` on the naive side.
fn bench_zoo_attack_eval(reps: usize) -> Sample {
    const CALLS: usize = 1000;
    let net = nn::train::random_mlp(64, &[64; 8], 10, 11);
    let points: Vec<Vec<f64>> = (0..8)
        .map(|p| (0..64).map(|i| ((i * 7 + p * 13) as f64 * 0.37).sin().abs()).collect())
        .collect();
    let target = net.classify(&points[0]);
    let active = kernels::active();
    let avx2 = kernels::available()
        .into_iter()
        .find(|b| b.name() == "avx2")
        .unwrap_or(active);
    let (mut acts, mut grad) = (Vec::new(), Vec::new());
    let mut trace = nn::Trace::new();
    for x in &points {
        let f = row_form_attack_eval(avx2, &net, x, target, &mut acts, &mut grad);
        net.forward(x, &mut trace);
        assert_eq!(f.to_bits(), trace.objective(target).to_bits(), "zoo_attack_eval objective");
        let g = net.objective_backward(&mut trace, target);
        assert!(
            g.iter().zip(&grad).all(|(a, b)| a.to_bits() == b.to_bits()),
            "zoo_attack_eval gradient"
        );
    }
    let naive_s = time_median(reps, || {
        let mut sum = 0.0;
        for c in 0..CALLS {
            let x = &points[c % points.len()];
            sum += row_form_attack_eval(avx2, &net, x, target, &mut acts, &mut grad) + grad[0];
        }
        sum
    });
    let fast_s = time_median(reps, || {
        let mut sum = 0.0;
        for c in 0..CALLS {
            net.forward(&points[c % points.len()], &mut trace);
            sum += trace.objective(target) + net.objective_backward(&mut trace, target)[0];
        }
        sum
    });
    Sample {
        name: "zoo_attack_eval",
        naive_s,
        fast_s,
        note: format!(
            "forward + objective_backward, 64 -> 8x64 -> 10 MLP, {} arm vs {} row form, {CALLS} evals",
            active.name(),
            avx2.name()
        ),
    }
}

/// Whether a `(Z, 2)` element holds a NaN, by the scan the checked
/// propagation used to make: a short-circuit `any(is_nan)` over every
/// centre and generator entry.
fn scalar_poisoned(e: &Powerset<Zonotope>) -> bool {
    e.disjuncts().iter().any(|z| {
        z.center().iter().any(|v| v.is_nan())
            || z.generator_matrix().as_slice().iter().any(|v| v.is_nan())
    })
}

/// The `(Z, 2)` margin of `region` by the checked propagation's earlier
/// loop, which scanned every intermediate element for NaN after every
/// layer with [`scalar_poisoned`]. NaN when an element is poisoned.
fn scan_every_layer_margin(
    net: &nn::Network,
    region: &Bounds,
    target: usize,
    ws: &mut Workspace,
) -> f64 {
    let mut e = Powerset::<Zonotope>::with_budget(region, 2);
    if scalar_poisoned(&e) {
        return f64::NAN;
    }
    let transposed = net.transposed();
    for (k, layer) in net.layers().iter().enumerate() {
        e = match layer {
            nn::Layer::Affine(a) => {
                let next = e.affine_ws(a, transposed.and_then(|t| t[k].as_ref()), ws);
                e.recycle(ws);
                next
            }
            nn::Layer::Relu => e.relu(),
            nn::Layer::MaxPool(p) => {
                let next = e.max_pool(p);
                e.recycle(ws);
                next
            }
        };
        if scalar_poisoned(&e) {
            return f64::NAN;
        }
    }
    let margin = e.margin_lower_bound(target);
    e.recycle(ws);
    margin
}

/// The `(Z, 2)` analysis the verifier ran on every region before it went
/// disjunct-major: the whole element through the checked propagation,
/// layer by layer, then its margin. NaN when poisoned.
fn layer_major_margin(
    net: &nn::Network,
    region: &Bounds,
    target: usize,
    ws: &mut Workspace,
) -> f64 {
    let element = Powerset::<Zonotope>::with_budget(region, 2);
    match domains::propagate_checked_ws(net, element, ws) {
        Some(e) => {
            let margin = e.margin_lower_bound(target);
            e.recycle(ws);
            margin
        }
        None => f64::NAN,
    }
}

/// mnist-9x64's shape, a 64 → 8×64 → 10 MLP, with eight small regions
/// where the `(Z, 2)` powerset splits and relaxes, and the class of the
/// first region's centre.
fn zoo_powerset_regions() -> (nn::Network, Vec<Bounds>, usize) {
    let net = nn::train::random_mlp(64, &[64; 8], 10, 11);
    let regions: Vec<Bounds> = (0..8)
        .map(|p| {
            let center: Vec<f64> =
                (0..64).map(|i| ((i * 7 + p * 13) as f64 * 0.37).sin().abs()).collect();
            Bounds::linf_ball(&center, 0.01, None)
        })
        .collect();
    let target = net.classify(&regions[0].center());
    (net, regions, target)
}

/// The checked propagation on [`zoo_powerset_regions`]. Naive is
/// [`scan_every_layer_margin`]; fast is the shipped checked propagation,
/// [`domains::propagate_checked_ws`], which reads the check off each
/// ReLU's bounds and scans only after the last layer, with the chunked
/// `tensor::ops::has_nan`. Both propagate the whole element layer by
/// layer through the same ReLU, so the sample times the checks alone.
/// Both must give the same margins bit for bit, which the sample checks
/// first.
fn bench_zoo_checked_propagation(reps: usize) -> Sample {
    const CALLS: usize = 40;
    let (net, regions, target) = zoo_powerset_regions();
    let (mut naive_ws, mut fast_ws) = (Workspace::new(), Workspace::new());
    for region in &regions {
        let naive = scan_every_layer_margin(&net, region, target, &mut naive_ws);
        let fast = layer_major_margin(&net, region, target, &mut fast_ws);
        assert_eq!(naive.to_bits(), fast.to_bits(), "zoo_checked_propagation margin");
    }
    let (naive_s, fast_s) = time_alternating(
        reps,
        || {
            (0..CALLS)
                .map(|c| scan_every_layer_margin(&net, &regions[c % regions.len()], target, &mut naive_ws))
                .sum()
        },
        || {
            (0..CALLS)
                .map(|c| layer_major_margin(&net, &regions[c % regions.len()], target, &mut fast_ws))
                .sum()
        },
    );
    Sample {
        name: "zoo_checked_propagation",
        naive_s,
        fast_s,
        note: format!(
            "propagate_checked_ws (Z, 2) + margin, 64 -> 8x64 -> 10 MLP, scan after every layer vs shipped, {CALLS} regions"
        ),
    }
}

/// The analysis the verifier runs on every region, on
/// [`zoo_powerset_regions`]: naive is [`layer_major_margin`], fast is
/// `analyze_margin_checked_ws` with `(Z, 2)`, which finishes the
/// disjuncts one at a time once the element is full and stops at the
/// first that cannot prove the margin. The sample first checks that both
/// reach the same outcome on every region, and the same margin bits
/// where it is proved.
fn bench_zoo_powerset_early_exit(reps: usize) -> Sample {
    const CALLS: usize = 40;
    let (net, regions, target) = zoo_powerset_regions();
    let choice = DomainChoice::powerset(BaseDomain::Zonotope, 2);
    let (mut naive_ws, mut fast_ws) = (Workspace::new(), Workspace::new());
    let mut proved = 0;
    for region in &regions {
        let naive = layer_major_margin(&net, region, target, &mut naive_ws);
        let (outcome, fast) = domains::analyze_margin_checked_ws(&net, region, target, choice, &mut fast_ws);
        assert_eq!(
            outcome == domains::AnalysisOutcome::Proved,
            naive > 0.0,
            "zoo_powerset_early_exit outcome"
        );
        assert!(
            !naive.is_nan() && outcome != domains::AnalysisOutcome::Poisoned,
            "zoo_powerset_early_exit poisoned"
        );
        if naive > 0.0 {
            assert_eq!(naive.to_bits(), fast.to_bits(), "zoo_powerset_early_exit margin");
            proved += 1;
        }
    }
    let (naive_s, fast_s) = time_alternating(
        reps,
        || {
            (0..CALLS)
                .map(|c| layer_major_margin(&net, &regions[c % regions.len()], target, &mut naive_ws))
                .sum()
        },
        || {
            (0..CALLS)
                .map(|c| {
                    let region = &regions[c % regions.len()];
                    domains::analyze_margin_checked_ws(&net, region, target, choice, &mut fast_ws).1
                })
                .sum()
        },
    );
    Sample {
        name: "zoo_powerset_early_exit",
        naive_s,
        fast_s,
        note: format!(
            "(Z, 2), 64 -> 8x64 -> 10 MLP, layer-major vs disjunct-major analysis, {CALLS} regions, {proved} of {} proved",
            regions.len()
        ),
    }
}

/// One small end-to-end verification, returning the engine's per-phase
/// metrics so kernel-level numbers sit next to where the verifier
/// actually spends its time. Tracing stays off (the default `NullSink`);
/// only the always-on metrics counters are exercised.
fn phase_metrics() -> charon::Metrics {
    let net = nn::samples::xor_network();
    let property =
        charon::RobustnessProperty::new(Bounds::new(vec![0.3, 0.3], vec![0.7, 0.7]), 1);
    match charon::Verifier::default().try_verify_run(&net, &property) {
        Ok(run) => run.stats.metrics,
        Err(_) => charon::Metrics::default(),
    }
}

/// Hand-rolled JSON (the workspace deliberately has no serde_json).
fn render_json(samples: &[Sample], smoke: bool, phases: &charon::Metrics) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"bench-kernels-v1\",");
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    let _ = writeln!(out, "  \"phases\": {},", phases.to_json());
    out.push_str("  \"samples\": [\n");
    for (i, s) in samples.iter().enumerate() {
        let comma = if i + 1 < samples.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"naive_s\": {:.9}, \"fast_s\": {:.9}, \
             \"speedup\": {:.3}, \"note\": \"{}\"}}{comma}",
            s.name,
            s.naive_s,
            s.fast_s,
            s.speedup(),
            s.note,
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Minimal structural check that the emitted JSON honours the schema the
/// CI smoke run relies on.
fn validate_json(json: &str) {
    for needle in [
        "\"schema\": \"bench-kernels-v1\"",
        "\"samples\": [",
        "\"name\": \"zonotope_affine\"",
        "\"name\": \"simd_affine\"",
        "\"name\": \"zoo_affine\"",
        "\"name\": \"scheduler_throughput\"",
        "\"name\": \"attack_pgd\"",
        "\"name\": \"zoo_attack_eval\"",
        "\"name\": \"zoo_checked_propagation\"",
        "\"name\": \"zoo_powerset_early_exit\"",
        "\"speedup\":",
        "\"phases\":",
    ] {
        assert!(json.contains(needle), "JSON schema lost field: {needle}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or_else(|| "BENCH_kernels.json".to_string(), String::clone);

    let (neurons, generators, mm, reps) = if smoke {
        (64, 16, 48, 3)
    } else {
        (1024, 256, 512, 9)
    };

    let samples = vec![
        bench_zonotope_affine(neurons, generators, reps),
        bench_simd_affine(neurons, generators, reps),
        bench_zoo_affine(reps),
        bench_matmul_transb(generators.max(8), mm, neurons.min(mm), reps),
        bench_matvec_bias(neurons, reps),
        bench_region_throughput(if smoke { 24 } else { 96 }, 4, reps),
        bench_scheduler_throughput(reps),
        bench_attack_pgd(reps),
        bench_zoo_attack_eval(reps),
        bench_zoo_checked_propagation(reps),
        bench_zoo_powerset_early_exit(reps),
    ];

    println!("kernel perf ({}):", if smoke { "smoke" } else { "full" });
    for s in &samples {
        println!(
            "  {:<20} naive {:>10.3e}s  fast {:>10.3e}s  speedup {:>6.2}x  [{}]",
            s.name,
            s.naive_s,
            s.fast_s,
            s.speedup(),
            s.note,
        );
    }

    let json = render_json(&samples, smoke, &phase_metrics());
    validate_json(&json);
    std::fs::write(&out_path, &json).expect("write benchmark JSON");
    println!("wrote {out_path}");

    if !smoke {
        // The naive reference (per-generator matvec) dispatches through
        // the same backend as the fast path, so the expected ratio
        // depends on the active arm: with a vector arm the fast path's
        // blocked matmul gains more from SIMD than the matvec reference;
        // scalar-only the two share the row-quad matvec and the margin
        // is just the blocking.
        let affine = &samples[0];
        let affine_floor = if kernels::active().name() == "scalar" {
            1.5
        } else {
            3.0
        };
        assert!(
            affine.speedup() >= affine_floor,
            "zonotope affine speedup regressed below {affine_floor}x: {:.2}x",
            affine.speedup()
        );
        // The SIMD acceptance gate applies only where a vector arm is
        // actually dispatched (skipped under CHARON_FORCE_SCALAR and on
        // hosts with no detected vector unit).
        if kernels::active().name() != "scalar" {
            let simd = samples
                .iter()
                .find(|s| s.name == "simd_affine")
                .expect("simd_affine sample present");
            assert!(
                simd.speedup() >= 2.0,
                "SIMD zonotope-affine arm regressed below 2x over scalar: {:.2}x",
                simd.speedup()
            );
        }
    }
}
