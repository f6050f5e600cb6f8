//! `lima-perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload hpo-reuse|minibatch-trace|limad-mix|all --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` a run prints the end-to-end metrics (tracing off); with
//! `--trace 1` it prints the per-layer metrics of a separate traced run and
//! writes a merged Chrome trace. Human-readable lines come first; the last
//! line of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Any wrong output makes the command exit 1.
//!
//! Everything the run writes (spill files, the limad WAL, trace files) stays
//! under `.perfbench_out/` in the working directory.
//!
//! `limad-mix` computes its reference in a child process of this binary
//! (`lima-perfbench limad-reference <seed>`), so the workload's peak RSS is
//! the server's and the clients', not the reference computation's.

mod gen;
mod limad_mix;
mod lineage_split;
mod machine;
mod measure;
mod report;
mod scripts;
mod trace;

use report::{Metrics, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;

pub const WORKLOADS: [&str; 3] = ["hpo-reuse", "minibatch-trace", "limad-mix"];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    /// Scratch space for this process, inside the working directory.
    pub fn work_dir(&self) -> PathBuf {
        PathBuf::from(".perfbench_out").join(format!("run-{}", std::process::id()))
    }

    pub fn trace_path(&self) -> PathBuf {
        PathBuf::from(".perfbench_out")
            .join(format!("trace-{}-seed{}.json", self.workload, self.seed))
    }
}

/// What a workload measured.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub notes: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
    };
    let mut seed = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => args.seconds = num(&value)?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    args.seed = seed.ok_or("--seed is required")?;
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all, got '{}'",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

/// The layer-accounting table of a traced run.
pub fn account_lines(m: &Metrics) -> String {
    let g = |k: &str| m.get(k).unwrap_or(0.0);
    format!(
        "layer self times (ms): lang {:.3} | runtime {:.3} | matrix {:.3} | core.cache io {:.3} | \
         sum {:.3} of traced wall {:.3}, unaccounted {:.3} ({:.1}%)",
        g("account.lang_ms"),
        g("account.runtime_ms"),
        g("account.matrix_ms"),
        g("account.cache_io_ms"),
        g("account.layers_ms"),
        g("account.wall_ms"),
        g("account.unaccounted_ms"),
        100.0 * g("account.unaccounted_ms") / g("account.wall_ms").max(1e-9)
    )
}

fn run_workload(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "hpo-reuse" => scripts::run(args, scripts::hpo_inputs),
        "minibatch-trace" => scripts::run(args, scripts::minibatch_inputs),
        "limad-mix" => limad_mix::run(args),
        other => Err(format!("unknown workload {other}")),
    }
}

/// `--workload all`: the three workloads one after the other, each in a
/// fresh child process. Freed heap stays in the process, so resetting the
/// peak-RSS mark between workloads of one process would not isolate them.
fn run_all(args: &Args) -> bool {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("perfbench: cannot locate own executable");
        return false;
    };
    let mut ok = true;
    for w in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        ok &= matches!(status, Ok(s) if s.success());
    }
    ok
}

/// Runs one workload and prints its report; returns whether every output
/// was correct and every metric measured.
fn run_and_report(args: &Args) -> bool {
    let outcome = match run_workload(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return false;
        }
    };
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    let correct = outcome.failed == 0;
    let mut missing = Vec::new();
    let line = match report::result_line(
        catalogue,
        &outcome.metrics,
        !args.trace,
        correct,
        outcome.attempted,
        outcome.failed,
        &mut missing,
    ) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return false;
        }
    };
    println!("workload: {}", args.workload);
    for note in &outcome.notes {
        println!("{note}");
    }
    for &(name, unit, _) in catalogue {
        if let Some(v) = outcome.metrics.get(name) {
            println!("{name} = {v} {unit}");
        }
    }
    if !missing.is_empty() {
        println!(
            "not measured on {} (reported as 0): {}",
            args.workload,
            missing.join(", ")
        );
    }
    println!(
        "operations: attempted {}, failed {}",
        outcome.attempted, outcome.failed
    );
    println!("{line}");
    if !correct {
        eprintln!(
            "perfbench: {}: {} wrong or failed operations",
            args.workload, outcome.failed
        );
    }
    correct
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some(limad_mix::REFERENCE_MODE) {
        return match argv.get(2).map(|s| s.parse::<u64>()) {
            Some(Ok(seed)) => match limad_mix::print_reference(seed) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench: limad reference: {e}");
                    ExitCode::FAILURE
                }
            },
            _ => {
                eprintln!("perfbench: usage: {} <seed>", limad_mix::REFERENCE_MODE);
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = if args.workload == "all" {
        run_all(&args)
    } else {
        let work = args.work_dir();
        if let Err(e) = std::fs::create_dir_all(work.join("tmp")) {
            eprintln!("perfbench: {}: {e}", work.display());
            return ExitCode::FAILURE;
        }
        // The program's spill stores live under the system temp dir; keep
        // them inside the working directory. Set before any thread starts.
        match std::fs::canonicalize(work.join("tmp")) {
            Ok(tmp) => std::env::set_var("TMPDIR", tmp),
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
        let ok = run_and_report(&args);
        let _ = std::fs::remove_dir_all(&work);
        ok
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
