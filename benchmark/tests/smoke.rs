//! `polybench --smoke`: every workload, four slices each, with and
//! without the wrappers, every oracle on. Also keeps `BENCHMARK.json`
//! and the metric lists in the code in step.

use std::process::Command;

use polybench::estimate::Better;
use polybench::report::{END_TO_END, PER_LAYER};
use polybench::run::Workload;

#[test]
fn smoke_run_is_correct_and_complete() {
    let out = Command::new(env!("CARGO_BIN_EXE_polybench")).arg("--smoke").output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    if stderr.contains("needs at least 2 cores") {
        assert_eq!(out.status.code(), Some(2), "refusing to run is exit code 2");
        return; // nothing to smoke-test on a one-core machine
    }
    assert!(out.status.success(), "smoke failed\n{stdout}\n{stderr}");
    assert!(stdout.contains("smoke: every oracle held"));
    for w in Workload::ALL {
        for d in END_TO_END.iter().chain(PER_LAYER) {
            // A metric row reads `<workload> <metric> <number> <unit> ...`.
            let row = stdout.lines().find(|l| {
                let mut words = l.split_whitespace();
                words.next() == Some(w.name())
                    && words.next() == Some(d.name)
                    && words.next().is_some_and(|v| v.parse::<f64>().is_ok())
            });
            let row = row.unwrap_or_else(|| panic!("no row for {} {}", w.name(), d.name));
            for tag in ["cores=", "seed=", "rev=", "slices=4"] {
                assert!(row.contains(tag), "row lacks {tag}: {row}");
            }
        }
        assert!(stdout.contains(&format!("{}.spans.jsonl", w.name())));
    }
    assert!(!stdout.contains("GENERATOR-BOUND") && !stdout.contains("ORACLE"));
}

#[test]
fn bad_arguments_are_refused() {
    let run = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_polybench")).args(args).output().unwrap().status.code()
    };
    assert_eq!(run(&[]), Some(2));
    assert_eq!(run(&["--workload", "no-such"]), Some(2));
    assert_eq!(run(&["--workload", "set-mixed", "--trace", "2"]), Some(2));
    assert_eq!(run(&["--repeat", "1"]), Some(2));
}

/// The part of `BENCHMARK.json` this crate must agree with, read with
/// plain string matching (no JSON crate offline).
#[test]
fn benchmark_json_matches_the_code() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    for w in Workload::ALL {
        assert!(json.contains(&format!("\"name\": \"{}\"", w.name())), "workload {}", w.name());
    }
    for d in END_TO_END {
        let better = if d.better == Better::Higher { "higher" } else { "lower" };
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {}}}",
            d.name, d.unit, d.bound
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for d in PER_LAYER {
        let better = if d.better == Better::Higher { "higher" } else { "lower" };
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"}}",
            d.name, d.unit
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let listed = json.matches("\"better\":").count();
    assert_eq!(
        listed,
        END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json lists other metrics too"
    );
}
