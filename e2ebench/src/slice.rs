//! The benchmark's input: a fixed slice of the paper's Fig. 6
//! brightening workload over the seven zoo networks.
//!
//! [`prepare`] is the untimed preparation step: it trains the zoo once
//! per slice seed into the benchmark's own cache directory and writes
//! the network and property files. Everything after it — setup, the
//! timed passes and the checks — reads only those files.

use std::path::{Path, PathBuf};

use charon::RobustnessProperty;
use data::properties::brightening_suite;
use data::zoo::{build, ZooConfig, ZooNetwork};
use nn::{Layer, Network};

/// Brightening thresholds τ of the slice (§7.1).
pub const TAUS: [f64; 3] = [0.75, 0.6, 0.45];

/// Evaluation images drawn per network before filtering for correct
/// classification (as `bench::build_suite` does).
const EVAL_IMAGES: usize = 200;

/// What the slice holds and the region budget every workload runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceSpec {
    /// Seed of zoo training and of the evaluation images.
    pub slice_seed: u64,
    /// Brightening properties per network.
    pub props_per_net: usize,
    /// `VerifierConfig::max_regions` / `VerifyRequest::max_regions`.
    pub budget: usize,
}

impl Default for SliceSpec {
    fn default() -> Self {
        SliceSpec {
            slice_seed: 0,
            props_per_net: 15,
            budget: 40,
        }
    }
}

impl SliceSpec {
    fn dir(&self, work: &Path) -> PathBuf {
        work.join(format!(
            "slice-s{}-p{}",
            self.slice_seed, self.props_per_net
        ))
    }
}

/// Trains (or loads from the benchmark's zoo cache) the seven networks
/// and writes `<net>.net` plus one `<net>-<i>.prop` per property into
/// the slice directory, which it returns.
///
/// # Errors
///
/// Any file-system error.
pub fn prepare(work: &Path, spec: &SliceSpec) -> std::io::Result<PathBuf> {
    let dir = spec.dir(work);
    std::fs::create_dir_all(&dir)?;
    let config = ZooConfig {
        seed: spec.slice_seed,
        cache_dir: Some(work.join("zoo")),
        ..ZooConfig::default()
    };
    let mut manifest = String::new();
    for which in ZooNetwork::ALL {
        let (net, _) = build(which, &config);
        let eval = which.dataset(EVAL_IMAGES, spec.slice_seed.wrapping_add(101));
        let suite = brightening_suite(&net, &eval, &TAUS, spec.props_per_net);
        nn::serialize::save(&net, &dir.join(format!("{}.net", which.name())))?;
        for (i, benchmark) in suite.iter().enumerate() {
            std::fs::write(
                dir.join(format!("{}-{i}.prop", which.name())),
                benchmark.property.to_text(),
            )?;
        }
        manifest.push_str(&format!("{} {}\n", which.name(), suite.len()));
    }
    std::fs::write(dir.join("slice.txt"), manifest)?;
    Ok(dir)
}

/// One property of the slice.
#[derive(Debug, Clone)]
pub struct Prop {
    /// Index of its network in [`Slice::nets`] order.
    pub net: usize,
    /// Index among its network's properties.
    pub index: usize,
    /// The `charon-prop 1` text, as sent to the server.
    pub text: String,
    /// The parsed property.
    pub property: RobustnessProperty,
}

/// A network of the slice.
#[derive(Debug, Clone)]
pub struct SliceNet {
    /// Zoo name, e.g. `mnist-3x32`.
    pub name: String,
    /// Path of its `charon-net` file.
    pub path: PathBuf,
    /// The loaded network.
    pub net: Network,
}

/// Layer kinds, for folding a trace's per-layer seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerKind {
    /// An affine (dense or lowered convolution) layer.
    Affine,
    /// A ReLU.
    Relu,
    /// A max-pool.
    MaxPool,
}

impl SliceNet {
    /// The kind of each layer, in order.
    pub fn layer_kinds(&self) -> Vec<LayerKind> {
        self.net
            .layers()
            .iter()
            .map(|layer| match layer {
                Layer::Affine(_) => LayerKind::Affine,
                Layer::Relu => LayerKind::Relu,
                Layer::MaxPool(_) => LayerKind::MaxPool,
            })
            .collect()
    }
}

fn manifest(dir: &Path) -> Result<Vec<(String, usize)>, String> {
    let path = dir.join("slice.txt");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .map(|line| {
            let (name, count) = line
                .split_once(' ')
                .ok_or_else(|| format!("bad manifest line {line:?}"))?;
            let count = count
                .parse()
                .map_err(|e| format!("bad manifest count {count:?}: {e}"))?;
            Ok((name.to_string(), count))
        })
        .collect()
}

/// Reads and parses every property file, in network order.
///
/// # Errors
///
/// A missing or malformed file.
pub fn load_properties(dir: &Path) -> Result<Vec<Prop>, String> {
    let mut props = Vec::new();
    for (net, (name, count)) in manifest(dir)?.into_iter().enumerate() {
        for index in 0..count {
            let path = dir.join(format!("{name}-{index}.prop"));
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let property = RobustnessProperty::from_text(&text)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            props.push(Prop {
                net,
                index,
                text,
                property,
            });
        }
    }
    Ok(props)
}

/// Loads every network file, in manifest order.
///
/// # Errors
///
/// A missing or malformed file.
pub fn load_networks(dir: &Path) -> Result<Vec<SliceNet>, String> {
    manifest(dir)?
        .into_iter()
        .map(|(name, _)| {
            let path = dir.join(format!("{name}.net"));
            let net = nn::serialize::load(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            Ok(SliceNet { name, path, net })
        })
        .collect()
}

/// The slice as the engine workloads use it.
#[derive(Debug, Clone)]
pub struct Slice {
    /// The seven networks.
    pub nets: Vec<SliceNet>,
    /// All properties, grouped by network.
    pub props: Vec<Prop>,
}

impl Slice {
    /// Loads networks and properties.
    ///
    /// # Errors
    ///
    /// As [`load_networks`] and [`load_properties`].
    pub fn load(dir: &Path) -> Result<Slice, String> {
        Ok(Slice {
            nets: load_networks(dir)?,
            props: load_properties(dir)?,
        })
    }

    /// `<net>/<index>` label of property `i`.
    pub fn label(&self, i: usize) -> String {
        let prop = &self.props[i];
        format!("{}/{}", self.nets[prop.net].name, prop.index)
    }

    /// The first property of each network: the untimed warm-up set.
    pub fn warmup(&self) -> Vec<usize> {
        (0..self.props.len())
            .filter(|&i| self.props[i].index == 0)
            .collect()
    }
}

/// A seeded permutation of `0..n` (Fisher–Yates over SplitMix64), the
/// order in which a pass visits the slice.
pub fn order(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed ^ 0x005e_ed0f_e2eb;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut out: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        out.swap(i, j);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_is_a_seeded_permutation() {
        let a = order(50, 7);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_eq!(a, order(50, 7));
        assert_ne!(a, order(50, 8));
    }
}
