//! Exact representations of abstract elements, for the bit-for-bit
//! comparisons of the integration tests.

use domains::{Interval, Powerset, ReluCoordOps, Zonotope};

pub fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The exact representation of an element: its buffers as bits, plus
/// its shape (generator rows for a zonotope, disjuncts for a powerset),
/// so two elements are equal exactly when their representations are.
pub trait ExactRepr {
    fn repr(&self) -> Vec<u64>;
}

impl ExactRepr for Zonotope {
    fn repr(&self) -> Vec<u64> {
        let mut out = vec![self.num_generators() as u64];
        out.extend(bits(self.center()));
        out.extend(bits(self.generator_matrix().as_slice()));
        out
    }
}

impl ExactRepr for Interval {
    fn repr(&self) -> Vec<u64> {
        let mut out = bits(self.lower());
        out.extend(bits(self.upper()));
        out
    }
}

impl<D: ReluCoordOps + ExactRepr> ExactRepr for Powerset<D> {
    fn repr(&self) -> Vec<u64> {
        let mut out = vec![self.disjuncts().len() as u64];
        for d in self.disjuncts() {
            let r = d.repr();
            out.push(r.len() as u64);
            out.extend(r);
        }
        out
    }
}
