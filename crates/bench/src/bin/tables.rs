//! Regenerate the experiment tables (E1–E10 and `micro` in DESIGN.md).
//!
//! ```text
//! cargo run --release -p polytm-bench --bin tables -- all
//! cargo run --release -p polytm-bench --bin tables -- e1 e4 micro
//! POLYTM_BENCH_FULL=1 cargo run --release -p polytm-bench --bin tables -- all
//! ```

use polytm_bench::experiments::{run_experiment, Profile};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ids: Vec<String> = if args.is_empty() { vec!["all".to_string()] } else { args };
    let profile = Profile::from_env();
    eprintln!(
        "profile: {:?} measure, {:?} warmup, threads {:?} (set POLYTM_BENCH_FULL=1 for longer runs)",
        profile.duration, profile.warmup, profile.threads
    );
    for id in &ids {
        match run_experiment(id, &profile) {
            Some(report) => println!("{report}"),
            None => {
                eprintln!("unknown experiment {id:?}; valid: e1..e10, micro, all");
                std::process::exit(2);
            }
        }
    }
}
