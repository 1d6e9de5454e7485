//! Attack evaluations allocate nothing per step.
//!
//! PGD evaluates through one reusable forward trace and keeps its best
//! point in a reused buffer; coordinate descent evaluates its candidates
//! through the same trace. So the allocations one call makes are a fixed
//! setup cost: they must not grow with `PgdConfig::steps` or with the
//! number of coordinate sweeps. This suite pins that with a counting
//! global allocator.
//!
//! The counter is thread-local (const-initialized, so the TLS access
//! itself never allocates), which keeps the measurements immune to other
//! tests running concurrently in the same process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use attack::{coordinate_descent, pgd, AttackResult, PgdConfig};
use domains::Bounds;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations on this thread while running `f`.
fn count_allocs(f: impl FnOnce() -> AttackResult) -> (u64, AttackResult) {
    let before = ALLOCS.with(Cell::get);
    let result = f();
    (ALLOCS.with(Cell::get) - before, result)
}

/// A box of radius `eps` on a 3-hidden-layer MLP, centred on the probe
/// point the network classifies with the widest margin, so the search
/// finds no counterexample and every step or sweep it may take runs.
fn robust_case(eps: f64) -> (nn::Network, Bounds, usize) {
    let net = nn::train::random_mlp(8, &[16, 16, 16], 3, 4);
    let margin = |x: &Vec<f64>| net.objective(x, net.classify(x));
    let center = (0..32)
        .map(|k| {
            (0..8)
                .map(|i| ((k * 8 + i) as f64 * 0.37).sin())
                .collect::<Vec<f64>>()
        })
        .max_by(|a, b| margin(a).total_cmp(&margin(b)))
        .expect("probe points exist");
    let target = net.classify(&center);
    (net, Bounds::linf_ball(&center, eps, None), target)
}

#[test]
fn pgd_allocations_do_not_grow_with_steps() {
    let (net, region, target) = robust_case(0.01);
    let config = |steps| PgdConfig {
        steps,
        step_fraction: 0.25,
        decay: 0.99,
    };
    let start = region.center();
    let (short_allocs, short) = count_allocs(|| pgd(&net, &region, target, &start, &config(5)));
    let (long_allocs, long) = count_allocs(|| pgd(&net, &region, target, &start, &config(200)));
    assert!(long.objective > 0.0, "region must stay robust");
    assert!(
        long.evals > 10 * short.evals,
        "the long run must take many more steps: {} vs {} evaluations",
        long.evals,
        short.evals
    );
    assert_eq!(
        long_allocs, short_allocs,
        "pgd allocated per step: {short_allocs} allocations for {} evaluations, \
         {long_allocs} for {}",
        short.evals, long.evals
    );
}

#[test]
fn coordinate_descent_allocations_do_not_grow_with_sweeps() {
    // Wide enough that the first sweep improves and a second one runs.
    let (net, region, target) = robust_case(0.05);
    let start = region.center();
    let (one_allocs, one) = count_allocs(|| coordinate_descent(&net, &region, target, &start, 1));
    let (many_allocs, many) = count_allocs(|| coordinate_descent(&net, &region, target, &start, 8));
    assert!(
        many.evals > one.evals,
        "more sweeps must evaluate more candidates: {} vs {}",
        many.evals,
        one.evals
    );
    assert_eq!(
        many_allocs, one_allocs,
        "coordinate descent allocated per sweep: {one_allocs} allocations for {} \
         evaluations, {many_allocs} for {}",
        one.evals, many.evals
    );
}
