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

use domains::{AbstractElement, Bounds, Workspace, Zonotope};
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
        let out = z.affine_ws(&layer, &mut ws);
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

/// The runtime-dispatched SIMD arm vs the portable scalar arm on the
/// fused zonotope-affine kernel, timed at the raw dispatch-table level
/// (no element allocation in the loop). On hosts without a vector arm —
/// or under `CHARON_FORCE_SCALAR` — both sides time the scalar kernel
/// and the speedup sits at 1x by construction.
fn bench_simd_affine(neurons: usize, generators: usize, reps: usize) -> Sample {
    let weights = deterministic_matrix(neurons, neurons, 21);
    let bias: Vec<f64> = (0..neurons).map(|r| (r as f64 * 0.71).cos()).collect();
    let center: Vec<f64> = (0..neurons).map(|i| (i as f64 * 0.29).sin()).collect();
    let gens = deterministic_matrix(generators, neurons, 23);
    let mut out_c = vec![0.0; neurons];
    let mut out_g = vec![0.0; generators * neurons];
    let scalar = kernels::scalar();
    let active = kernels::active();
    let naive_s = time_median(reps, || {
        scalar.zonotope_affine(
            weights.as_slice(),
            &bias,
            &center,
            gens.as_slice(),
            &mut out_c,
            &mut out_g,
        );
        out_c[0] + out_g[out_g.len() - 1]
    });
    let fast_s = time_median(reps, || {
        active.zonotope_affine(
            weights.as_slice(),
            &bias,
            &center,
            gens.as_slice(),
            &mut out_c,
            &mut out_g,
        );
        out_c[0] + out_g[out_g.len() - 1]
    });
    Sample {
        name: "simd_affine",
        naive_s,
        fast_s,
        note: format!("{} arm vs scalar, {neurons} neurons x {generators} generators", active.name()),
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
    let fast_s = time_median(reps, || {
        let mut e = Zonotope::from_bounds(&region);
        for layer in net.layers() {
            e = match layer {
                nn::Layer::Affine(a) => {
                    let next = e.affine_ws(a, &mut ws);
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
        "\"name\": \"scheduler_throughput\"",
        "\"name\": \"attack_pgd\"",
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
        bench_matmul_transb(generators.max(8), mm, neurons.min(mm), reps),
        bench_matvec_bias(neurons, reps),
        bench_region_throughput(if smoke { 24 } else { 96 }, 4, reps),
        bench_scheduler_throughput(reps),
        bench_attack_pgd(reps),
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
