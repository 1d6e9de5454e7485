//! Exact-count determinism at reduced size: two runs of the same
//! workload must agree on every count a later change may cite.

use std::path::{Path, PathBuf};

use e2ebench::outcome::{Decision, Pass};
use e2ebench::slice::SliceSpec;
use e2ebench::workload::{run, RunOptions, RunResult, Workload};

fn options(workload: Workload, work: &Path) -> RunOptions {
    RunOptions {
        workload,
        seed: 3,
        seconds: 0.0,
        trace: false,
        spec: SliceSpec {
            slice_seed: 0,
            props_per_net: 3,
            budget: 12,
        },
        work: work.to_path_buf(),
        expected: None,
        setup_reps: 1,
        passes: Some(2),
    }
}

fn twice(workload: Workload, work: &Path) -> (RunResult, RunResult) {
    let opts = options(workload, work);
    let a = run(&opts).expect("first run");
    let b = run(&opts).expect("second run");
    for r in [&a, &b] {
        assert_eq!(r.failed, 0, "{}: {:?}", workload.name(), r.failures);
    }
    (a, b)
}

fn verdicts(pass: &Pass) -> Vec<(usize, Decision)> {
    pass.results.iter().map(|(i, o)| (*i, o.decision)).collect()
}

fn engine_counts(pass: &Pass) -> (usize, u64, u64) {
    (
        pass.regions(),
        pass.metrics.attack_calls,
        pass.metrics.propagation_calls,
    )
}

#[test]
fn counts_repeat_exactly() {
    // One test, so the runs share the zoo cache one after another.
    let work = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("e2ebench-determinism");
    std::fs::create_dir_all(&work).unwrap();

    let (a, b) = twice(Workload::Fig6Seq, &work);
    assert_eq!(a.check, b.check);
    for (x, y) in a.passes.iter().zip(&b.passes) {
        assert_eq!(verdicts(x), verdicts(y));
        assert_eq!(engine_counts(x), engine_counts(y));
    }
    assert!(a.passes[0].metrics.attack_calls > 0);

    let (a, b) = twice(Workload::ServeRepeat, &work);
    for (x, y) in a.passes.iter().zip(&b.passes) {
        assert_eq!(verdicts(x), verdicts(y));
        assert_eq!(engine_counts(x), engine_counts(y));
        let cache = |p: &Pass| (p.service.cache_hits, p.service.cache_misses);
        assert_eq!(cache(x), cache(y));
        assert!(x.service.cache_hits > 0.0);
    }

    let (a, b) = twice(Workload::Fig6NocexPar2, &work);
    for (x, y) in a.passes.iter().zip(&b.passes) {
        assert_eq!(verdicts(x), verdicts(y));
    }
}
