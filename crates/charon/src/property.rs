use domains::Bounds;

/// A local-robustness property `(I, K)` (§2.2): every input in the region
/// `I` must be assigned class `K`.
///
/// # Examples
///
/// ```
/// use charon::RobustnessProperty;
/// use domains::Bounds;
///
/// let p = RobustnessProperty::new(Bounds::new(vec![0.0], vec![1.0]), 1);
/// assert_eq!(p.target(), 1);
/// assert_eq!(p.region().dim(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessProperty {
    region: Bounds,
    target: usize,
}

impl RobustnessProperty {
    /// Creates a property from an input region and target class.
    pub fn new(region: Bounds, target: usize) -> Self {
        RobustnessProperty { region, target }
    }

    /// The input region `I`.
    pub fn region(&self) -> &Bounds {
        &self.region
    }

    /// The required class `K`.
    pub fn target(&self) -> usize {
        self.target
    }

    /// Returns the same property restricted to a sub-region.
    pub fn with_region(&self, region: Bounds) -> Self {
        RobustnessProperty {
            region,
            target: self.target,
        }
    }

    /// Checks the property on a single concrete point: is it classified as
    /// the target class?
    ///
    /// # Panics
    ///
    /// Panics if dimensions mismatch.
    pub fn holds_at(&self, net: &nn::Network, x: &[f64]) -> bool {
        net.classify(x) == self.target
    }

    /// Serializes the property to a line-oriented text format:
    ///
    /// ```text
    /// charon-prop 1
    /// target <class>
    /// dim <n>
    /// <lower_i> <upper_i>     (n lines)
    /// end
    /// ```
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        writeln!(out, "charon-prop 1").unwrap();
        writeln!(out, "target {}", self.target).unwrap();
        writeln!(out, "dim {}", self.region.dim()).unwrap();
        for (l, u) in self.region.lower().iter().zip(self.region.upper().iter()) {
            writeln!(out, "{l:?} {u:?}").unwrap();
        }
        out.push_str(
            "end
",
        );
        out
    }

    /// Parses a property from the text format produced by
    /// [`RobustnessProperty::to_text`].
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on any syntactic problem.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut lines = text.lines().map(str::trim).filter(|l| !l.is_empty());
        if lines.next() != Some("charon-prop 1") {
            return Err("bad header (expected 'charon-prop 1')".into());
        }
        let target = lines
            .next()
            .and_then(|l| l.strip_prefix("target "))
            .and_then(|s| s.parse::<usize>().ok())
            .ok_or("bad target line")?;
        let dim = lines
            .next()
            .and_then(|l| l.strip_prefix("dim "))
            .and_then(|s| s.parse::<usize>().ok())
            .ok_or("bad dim line")?;
        let mut lower = Vec::with_capacity(dim);
        let mut upper = Vec::with_capacity(dim);
        for _ in 0..dim {
            let line = lines.next().ok_or("missing bound line")?;
            let mut parts = line.split_whitespace();
            let l: f64 = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or("bad lower bound")?;
            let u: f64 = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or("bad upper bound")?;
            if l > u {
                return Err(format!("inverted bounds [{l}, {u}]"));
            }
            lower.push(l);
            upper.push(u);
        }
        if lines.next() != Some("end") {
            return Err("missing end marker".into());
        }
        Ok(RobustnessProperty::new(Bounds::new(lower, upper), target))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nn::samples;

    #[test]
    fn holds_at_checks_classification() {
        let net = samples::xor_network();
        let p = RobustnessProperty::new(Bounds::new(vec![0.0, 0.0], vec![1.0, 1.0]), 1);
        assert!(p.holds_at(&net, &[1.0, 0.0]));
        assert!(!p.holds_at(&net, &[0.0, 0.0]));
    }

    #[test]
    fn text_roundtrip() {
        let p = RobustnessProperty::new(Bounds::new(vec![0.1 + 0.2, -1.0], vec![1.0, 1e9]), 7);
        let parsed = RobustnessProperty::from_text(&p.to_text()).unwrap();
        assert_eq!(parsed, p);
    }

    #[test]
    fn from_text_rejects_garbage() {
        assert!(RobustnessProperty::from_text("nonsense").is_err());
        assert!(RobustnessProperty::from_text(
            "charon-prop 1
target 0
dim 1
2 1
end"
        )
        .is_err());
        assert!(RobustnessProperty::from_text(
            "charon-prop 1
target 0
dim 2
0 1
end"
        )
        .is_err());
    }

    #[test]
    fn with_region_keeps_target() {
        let p = RobustnessProperty::new(Bounds::new(vec![0.0], vec![1.0]), 3);
        let q = p.with_region(Bounds::new(vec![0.0], vec![0.5]));
        assert_eq!(q.target(), 3);
        assert_eq!(q.region().upper(), &[0.5]);
    }
}
