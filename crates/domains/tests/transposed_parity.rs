//! The network's transposed weights change no bit of a zonotope
//! propagation.
//!
//! `propagate_checked_ws` hands each affine layer's `Wᵀ` copy
//! (`nn::Network::transposed`) to `affine_ws`, whose generator product
//! then reads it (`tensor::Backend::matmul_transb_wt`, on the `avx512`
//! arm). Without the copy the product runs the packed kernel. On the
//! zoo's shapes (8×8 and 6×6×3 inputs, 32- and 64-wide hidden layers, 10
//! classes) `(Z, 1)` and `(Z, 2)` must come out the same bit for bit
//! both ways, and the checked propagation must return the element the
//! loop with the copy makes. On an arm that does not read `Wᵀ` the
//! network holds no copy and both ways are the packed product.

mod common;

use common::ExactRepr;
use domains::{propagate_checked_ws, AbstractElement, Bounds, Powerset, Workspace, Zonotope};
use nn::{Layer, Network};
use proptest::prelude::*;

/// The zoo's MLP shapes: input dimension and hidden widths.
const ZOO: [(usize, &[usize]); 6] = [
    (64, &[32; 2]),
    (64, &[32; 5]),
    (64, &[64; 8]),
    (108, &[32; 2]),
    (108, &[32; 5]),
    (108, &[32; 8]),
];

/// `element` through `net`, each affine layer given its transposed
/// weights when `with_copy` is set and none otherwise.
fn propagate_ws<E: AbstractElement>(net: &Network, element: E, with_copy: bool, ws: &mut Workspace) -> E {
    let transposed = net.transposed().filter(|_| with_copy);
    let mut current = element;
    for (k, layer) in net.layers().iter().enumerate() {
        current = match layer {
            Layer::Affine(a) => {
                let next = current.affine_ws(a, transposed.and_then(|t| t[k].as_ref()), ws);
                current.recycle(ws);
                next
            }
            Layer::Relu => current.relu(),
            Layer::MaxPool(p) => current.max_pool(p),
        };
    }
    current
}

/// Both ways and the checked propagation agree on `element`.
fn check<E: AbstractElement + ExactRepr>(net: &Network, element: E, ws: &mut Workspace) -> Result<(), String> {
    let with = propagate_ws(net, element.clone(), true, ws);
    let without = propagate_ws(net, element.clone(), false, ws);
    prop_assert_eq!(with.repr(), without.repr(), "with and without the transposed copy");
    if let Some(checked) = propagate_checked_ws(net, element, ws) {
        prop_assert_eq!(checked.repr(), with.repr(), "checked propagation");
    }
    Ok(())
}

proptest! {
    /// Regions of three radii around a point in `[0, 1]`, so that the
    /// hidden layers hold stable and unstable neurons and `(Z, 2)`
    /// splits; every zoo shape, `(Z, 1)` and `(Z, 2)`.
    #[test]
    fn transposed_copy_changes_no_bit_on_zoo_shapes(
        seed in 0u64..1000,
        radius_pick in 0usize..3,
    ) {
        let radius = [0.002, 0.02, 0.2][radius_pick];
        let mut ws = Workspace::new();
        for (i, &(dim, hidden)) in ZOO.iter().enumerate() {
            let net = nn::train::random_mlp(dim, hidden, 10, seed * 7 + i as u64);
            prop_assert_eq!(net.transposed().is_some(), tensor::kernels::active().reads_transpose());
            let center: Vec<f64> = (0..dim)
                .map(|j| ((j as u64 * 2654435761 + seed) % 1000) as f64 / 1000.0)
                .collect();
            let region = Bounds::linf_ball(&center, radius, Some((0.0, 1.0)));
            check(&net, Zonotope::from_bounds(&region), &mut ws)?;
            check(&net, Powerset::<Zonotope>::with_budget(&region, 2), &mut ws)?;
        }
    }
}
