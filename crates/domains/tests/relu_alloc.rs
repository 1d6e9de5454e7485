//! A ReLU layer allocates a fixed number of buffers, however many of its
//! neurons are unstable.
//!
//! The zonotope and powerset ReLUs relax every unstable neuron of a
//! disjunct in one bulk pass and reserve the fresh generator rows at
//! once, so the allocations of one layer must not grow with the number of
//! unstable coordinates at a fixed generator count. This suite pins that
//! with a counting global allocator.
//!
//! The counter is thread-local (const-initialized, so the TLS access
//! itself never allocates), which keeps the measurements immune to other
//! tests running concurrently in the same process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use domains::{AbstractElement, Bounds, Powerset, Zonotope};

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

/// Allocations on this thread while running `f`, and its result.
fn count_allocs<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let result = f();
    (ALLOCS.with(Cell::get) - before, result)
}

const DIM: usize = 64;

/// A 64-dimensional box with one generator per coordinate (so the same
/// generator count whatever `unstable` is): the first `unstable`
/// coordinates straddle zero with distinct widths, and the rest alternate
/// between stable-positive and stable-negative.
fn layer_input(unstable: usize) -> Bounds {
    let mut lower = Vec::with_capacity(DIM);
    let mut upper = Vec::with_capacity(DIM);
    for i in 0..DIM {
        let w = 1.0 + i as f64 / 64.0;
        let (lo, hi) = if i < unstable {
            (-w, 0.5 * w)
        } else if i % 2 == 0 {
            (0.5, 0.5 + w)
        } else {
            (-0.5 - w, -0.5)
        };
        lower.push(lo);
        upper.push(hi);
    }
    Bounds::new(lower, upper)
}

#[test]
fn powerset_relu_allocations_do_not_grow_with_unstable_neurons() {
    let run = |unstable: usize| {
        let input = Powerset::<Zonotope>::with_budget(&layer_input(unstable), 2);
        let (allocs, out) = count_allocs(|| input.relu());
        // The layer split once and relaxed the other unstable
        // coordinates in both disjuncts.
        assert_eq!(out.disjuncts().len(), 2);
        for d in out.disjuncts() {
            assert!(d.num_generators() >= DIM + unstable - 1);
        }
        allocs
    };
    let (few, many) = (run(4), run(48));
    assert!(
        many <= few,
        "48 unstable neurons allocated {many} times, 4 allocated {few}"
    );
}

#[test]
fn zonotope_relu_allocations_do_not_grow_with_unstable_neurons() {
    let run = |unstable: usize| {
        let input = Zonotope::from_bounds(&layer_input(unstable));
        let (allocs, out) = count_allocs(|| input.relu());
        // Dead coordinates lose their generator; unstable ones gain one.
        let dead = (unstable..DIM).filter(|i| i % 2 == 1).count();
        assert_eq!(out.num_generators(), DIM - dead + unstable);
        allocs
    };
    let (few, many) = (run(4), run(48));
    assert!(
        many <= few,
        "48 unstable neurons allocated {many} times, 4 allocated {few}"
    );
}
