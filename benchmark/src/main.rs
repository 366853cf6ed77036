//! `polybench` command line.
//!
//! ```text
//! polybench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! polybench --all            [--seed N] [--seconds S] [--trace 0|1]
//! polybench --repeat N       [--seed N] [--seconds S]
//! polybench --smoke
//! ```
//!
//! A single-workload run prints its rows and, as the last line of
//! standard output, one JSON object. `--all`, `--repeat` and `--smoke`
//! run each workload in a child process of this same binary (a fresh
//! address space per run, as the benchmark driver gives it) and wait
//! for each child before starting the next.

use std::io::{self, BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use polybench::estimate::{median, quantile, Better};
use polybench::procfs::{cores, git_rev, pin_to_slot, HaltGuard};
use polybench::report::{MetricDef, RunResult, END_TO_END, PER_LAYER};
use polybench::run::{run, RunArgs, Workload, SLICE_NS};

/// 56 slices, as the issue sizes the full run.
const DEFAULT_SECONDS: f64 = 28.0;
const SMOKE_SECONDS: f64 = 2.0;

const USAGE: &str = "usage: polybench (--workload <wire-get|wire-put-sync|kv-htap|set-mixed> | \
                     --all | --repeat N | --smoke) [--seed N] [--seconds S] [--trace 0|1]";

enum Mode {
    One(Workload),
    All,
    Repeat(usize),
    Smoke,
}

struct Cli {
    mode: Mode,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli { mode: Mode::All, seed: 1, seconds: DEFAULT_SECONDS, trace: false };
    let mut mode = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w = Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;
                mode = Some(Mode::One(w));
            }
            "--all" => mode = Some(Mode::All),
            "--smoke" => mode = Some(Mode::Smoke),
            "--repeat" => {
                let n = value()?.parse::<usize>().map_err(|e| format!("--repeat: {e}"))?;
                if n < 2 {
                    return Err("--repeat needs at least 2 passes".into());
                }
                mode = Some(Mode::Repeat(n));
            }
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds >= 1.0 && cli.seconds <= 600.0) {
                    return Err("--seconds must be between 1 and 600".into());
                }
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    cli.mode = mode.ok_or("name a workload, --all, --repeat N or --smoke")?;
    Ok(cli)
}

/// Where spans go: `benchmark/out` when run from the repository root
/// (as the driver does), `out` when run from inside `benchmark/`.
fn out_dir() -> PathBuf {
    let nested = PathBuf::from("benchmark");
    if nested.join("Cargo.toml").is_file() {
        nested.join("out")
    } else {
        PathBuf::from("out")
    }
}

fn defs(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// One run in this process. The result line carries the verdict; the
/// exit code only says whether a result was produced.
fn run_one(workload: Workload, cli: &Cli) -> io::Result<()> {
    // Set-up work, the server's threads and every background thread a
    // store starts inherit the main thread's CPU.
    let awake = HaltGuard::start()?;
    pin_to_slot(0);
    let args = RunArgs {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        out_dir: out_dir(),
    };
    let tag = format!("cores={} seed={} rev={}", cores(), cli.seed, git_rev());
    println!(
        "polybench {} trace={} seconds={} {tag}",
        workload.name(),
        u8::from(cli.trace),
        cli.seconds
    );
    let result = run(&args)?;
    print_rows(workload, &result, defs(cli.trace), &tag);
    awake.finish();
    println!("{}", result.json_line(defs(cli.trace)));
    Ok(())
}

fn print_rows(workload: Workload, r: &RunResult, defs: &[MetricDef], tag: &str) {
    for line in &r.lines {
        println!("  {:<14} {line}", workload.name());
    }
    for d in defs {
        println!(
            "  {:<14} {:<38} {:>16.4} {:<6} {tag} slices={}",
            workload.name(),
            d.name,
            r.metrics.get(d.name),
            d.unit,
            r.slices
        );
    }
    println!(
        "  {:<14} correct: {}  attempted {}  failed {}  {tag} slices={}",
        workload.name(),
        r.correct,
        r.attempted,
        r.failed,
        r.slices
    );
    for note in &r.notes {
        println!("  {:<14} {note}", workload.name());
    }
}

/// What a parent needs from a child's result line.
struct ChildResult {
    correct: bool,
    values: Vec<f64>,
}

/// Pull `"<name>": {"value": <number>` out of a result line this
/// binary printed.
fn value_in(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].trim().parse().ok()
}

/// Run one workload in a child process, passing its output through,
/// and read its result line.
fn run_child(workload: Workload, seed: u64, seconds: f64, trace: bool) -> io::Result<ChildResult> {
    let mut child = Command::new(std::env::current_exe()?)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .spawn()?;
    let mut last = String::new();
    for line in BufReader::new(child.stdout.take().expect("stdout was piped")).lines() {
        let line = line?;
        if !line.starts_with('{') {
            println!("{line}");
        }
        last = line;
    }
    let status = child.wait()?;
    let bad = |what: &str| io::Error::other(format!("{} child: {what}", workload.name()));
    if !last.starts_with("{\"correct\"") {
        return Err(bad(&format!("no result line ({status})")));
    }
    let values = defs(trace)
        .iter()
        .map(|d| value_in(&last, d.name).ok_or_else(|| bad(&format!("result lacks {}", d.name))))
        .collect::<io::Result<Vec<f64>>>()?;
    Ok(ChildResult { correct: status.success() && last.starts_with("{\"correct\": true"), values })
}

fn run_all(cli: &Cli) -> io::Result<bool> {
    let mut ok = true;
    for w in Workload::ALL {
        ok &= run_child(w, cli.seed, cli.seconds, cli.trace)?.correct;
    }
    Ok(ok)
}

/// Four slices per workload, every oracle on, both with and without
/// the wrappers.
fn run_smoke(cli: &Cli) -> io::Result<bool> {
    let mut ok = true;
    for trace in [false, true] {
        for w in Workload::ALL {
            ok &= run_child(w, cli.seed, SMOKE_SECONDS, trace)?.correct;
        }
    }
    println!("smoke: {}", if ok { "every oracle held" } else { "FAILED" });
    Ok(ok)
}

/// `passes` alternating passes over all workloads, each pass with its
/// own seed. Odd and even passes form two half-sets; the table shows
/// whether two sets of runs of the same code agree within the bounds,
/// and which pairs can resolve a change of the size the issue named.
fn run_repeat(passes: usize, cli: &Cli) -> io::Result<bool> {
    let mut samples: Vec<Vec<Vec<f64>>> =
        vec![vec![Vec::new(); END_TO_END.len()]; Workload::ALL.len()];
    let mut ok = true;
    for pass in 0..passes {
        for (wi, w) in Workload::ALL.into_iter().enumerate() {
            let child = run_child(w, cli.seed + pass as u64, cli.seconds, false)?;
            ok &= child.correct;
            for (mi, v) in child.values.into_iter().enumerate() {
                samples[wi][mi].push(v);
            }
        }
    }
    let slices = (cli.seconds * 1e9 / SLICE_NS as f64).round() as usize;
    println!(
        "\nrepeat: {passes} passes, cores={} seeds={}..{} rev={} slices={slices}",
        cores(),
        cli.seed,
        cli.seed + passes as u64 - 1,
        git_rev()
    );
    println!(
        "| workload | metric | unit | median A | median B | IQR/median (all) | resolves | \
         A-B deviation / bound |"
    );
    println!("|---|---|---|---|---|---|---|---|");
    for (wi, w) in Workload::ALL.into_iter().enumerate() {
        for (mi, d) in END_TO_END.iter().enumerate() {
            let all = &samples[wi][mi];
            let half = |parity: usize| -> Vec<f64> {
                all.iter().enumerate().filter(|(i, _)| i % 2 == parity).map(|(_, v)| *v).collect()
            };
            let (a, b) = (median(&half(0)), median(&half(1)));
            let iqr = (quantile(all, 0.75) - quantile(all, 0.25)) / median(all);
            // B worse than A by this share of A, against the bound
            // (negative: B was better).
            let worse = match d.better {
                Better::Higher => (a - b) / a,
                Better::Lower => (b - a) / a,
            };
            let of_bound = worse / d.bound;
            ok &= of_bound.abs() <= 1.0;
            // Can a change of the size the issue named be told from
            // the spread of the same code?
            let resolves = if iqr <= d.target {
                format!("{:.0} %", d.target * 100.0)
            } else {
                format!("UNRESOLVED at {:.0} %", d.target * 100.0)
            };
            println!(
                "| {} | {} | {} | {a:.4} | {b:.4} | {:.2} % | {resolves} | {of_bound:+.2}{} |",
                w.name(),
                d.name,
                d.unit,
                iqr * 100.0,
                if of_bound.abs() > 1.0 { " EXCEEDS" } else { "" }
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("polybench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cores() < 2 {
        eprintln!("polybench: needs at least 2 cores, this machine reports {}", cores());
        return ExitCode::from(2);
    }
    let outcome = match cli.mode {
        Mode::One(w) => run_one(w, &cli).map(|()| true),
        Mode::All => run_all(&cli),
        Mode::Repeat(n) => run_repeat(n, &cli),
        Mode::Smoke => run_smoke(&cli),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("polybench: {e}");
            ExitCode::FAILURE
        }
    }
}
