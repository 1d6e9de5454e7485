//! `e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints every metric by name with its unit, then, as the last line,
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! Exits 0 when every correctness check passed, 1 when one failed, and
//! 2 when the run could not produce numbers at all.

use std::path::PathBuf;
use std::process::ExitCode;

use charon::json::{json_f64, json_str};
use e2ebench::alloc::CountingAlloc;
use e2ebench::slice::{Slice, SliceSpec};
use e2ebench::workload::{self, Metric, RunOptions, Workload};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Setup repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 11;

const USAGE: &str =
    "usage: e2ebench --workload <fig6-seq|fig6-nocex-par2|serve-repeat|cluster-2node> \
--seed <n> --seconds <s> --trace <0|1> [--slice-seed <n>] [--write-expected]";

struct Args {
    opts: RunOptions,
    write_expected: bool,
}

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn expected_path(spec: &SliceSpec) -> PathBuf {
    manifest_dir().join("expected").join(format!(
        "slice-s{}-p{}-b{}.txt",
        spec.slice_seed, spec.props_per_net, spec.budget
    ))
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut spec = SliceSpec::default();
    let mut write_expected = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--write-expected" {
            write_expected = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || -> Result<u64, String> {
            value.parse().map_err(|e| format!("{flag} {value:?}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()? as f64),
            "--trace" => trace = Some(number()? != 0),
            "--slice-seed" => spec.slice_seed = number()?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let missing = |what: &str| format!("missing {what}");
    let work = manifest_dir().join("work");
    Ok(Args {
        opts: RunOptions {
            workload: workload.ok_or_else(|| missing("--workload"))?,
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds: seconds.ok_or_else(|| missing("--seconds"))?,
            trace: trace.ok_or_else(|| missing("--trace"))?,
            expected: Some(expected_path(&spec)),
            spec,
            work,
            setup_reps: SETUP_REPS,
            passes: None,
        },
        write_expected,
    })
}

fn json_metrics(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_f64(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            return ExitCode::from(64);
        }
    };
    let mut opts = args.opts;
    // Sockets are bound by path relative to the working directory, which
    // keeps them within the Unix socket path limit wherever the
    // checkout lives.
    if let Err(e) =
        std::fs::create_dir_all(&opts.work).and_then(|()| std::env::set_current_dir(&opts.work))
    {
        eprintln!("e2ebench: work directory {}: {e}", opts.work.display());
        return ExitCode::from(2);
    }
    opts.work = PathBuf::from(".");
    let result = match workload::run(&opts) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.write_expected {
        let dir = PathBuf::from(format!(
            "slice-s{}-p{}",
            opts.spec.slice_seed, opts.spec.props_per_net
        ));
        let path = expected_path(&opts.spec);
        let written = Slice::load(&dir).and_then(|slice| {
            std::fs::write(&path, e2ebench::gate::expected_text(&slice, &result.check))
                .map_err(|e| format!("{}: {e}", path.display()))
        });
        match written {
            Ok(()) => println!("expected verdicts written to {}", path.display()),
            Err(e) => {
                eprintln!("e2ebench: {e}");
                return ExitCode::from(2);
            }
        }
    }

    for note in &result.notes {
        println!("{note}");
    }
    for failure in &result.failures {
        println!("FAILED: {failure}");
    }
    let shown = if opts.trace {
        &result.per_layer
    } else {
        &result.end_to_end
    };
    for m in result.end_to_end.iter().chain(&result.per_layer) {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{:<28} {:>9} of {} attempted",
        "failed", result.failed, result.attempted
    );
    let correct = result.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        result.attempted,
        result.failed,
        json_metrics(shown)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
