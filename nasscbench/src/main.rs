//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path nasscbench/Cargo.toml -- \
//!     --workload serve-corpus --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run from the repository root. With `--trace 0` it prints the end-to-end
//! metrics, with `--trace 1` the per-layer ones; the last line of standard
//! output is one JSON object. `BENCHMARK.json` names the `serve-corpus` and
//! `serve-serial` workloads; `eagle-qv` and `montreal-qft` run the same way
//! but are not in it, because their timings are not steady on a small
//! shared machine. Workloads and metrics are described in
//! `nasscbench/METRICS.md`.
//!
//! The in-process daemon writes one access-log line per request to stderr,
//! so the benchmark runs itself as a child whose stderr goes to a file next
//! to the executable; a failing child's last lines are copied to stderr.

mod affinity;
mod alloc;
mod check;
mod gen;
mod http;
mod library;
mod report;
mod serve;
mod staged;

use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Worker budget of every session the harness builds (`Transpiler::with_pool`).
/// One thread keeps timings steady on a small shared machine.
pub const POOL_THREADS: usize = 1;

const CHILD_ENV: &str = "NASSCBENCH_CHILD";

/// The child is killed if it runs longer than this.
const CHILD_LIMIT: Duration = Duration::from_secs(170);

const WORKLOADS: [&str; 4] = ["serve-corpus", "serve-serial", "eagle-qv", "montreal-qft"];

pub struct Args {
    workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10u64, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("invalid {flag} {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("invalid --trace {value:?}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}: expected one of {WORKLOADS:?}"
        ));
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Runs this executable again as the measuring child, its stderr captured
/// in a log file, and forwards the exit status.
fn supervise() -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let log_path = exe.with_file_name("nasscbench-stderr.log");
    let log =
        std::fs::File::create(&log_path).map_err(|e| format!("{}: {e}", log_path.display()))?;
    let mut child = Command::new(&exe)
        .args(std::env::args_os().skip(1))
        .env(CHILD_ENV, "1")
        .stdout(Stdio::inherit())
        .stderr(log)
        .spawn()
        .map_err(|e| e.to_string())?;
    let start = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
            break Some(status);
        }
        if start.elapsed() > CHILD_LIMIT {
            let _ = child.kill();
            let _ = child.wait();
            break None;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    if status.is_some_and(|s| s.success()) {
        return Ok(ExitCode::SUCCESS);
    }
    let lines: Vec<String> = std::fs::File::open(&log_path)
        .map(|f| BufReader::new(f).lines().map_while(Result::ok).collect())
        .unwrap_or_default();
    for line in &lines[lines.len().saturating_sub(40)..] {
        eprintln!("{line}");
    }
    match status {
        Some(status) => Err(format!("benchmark exited with {status}")),
        None => Err(format!(
            "benchmark ran longer than {} s and was killed",
            CHILD_LIMIT.as_secs()
        )),
    }
}

fn measure(args: &Args) -> Result<ExitCode, String> {
    nassc::trace::set_alloc_probe(alloc::total);
    let outcome = match args.workload.as_str() {
        "eagle-qv" => library::run(&library::EAGLE_QV, args)?,
        "montreal-qft" => library::run(&library::MONTREAL_QFT, args)?,
        "serve-serial" => serve::run(&serve::SERVE_SERIAL, args)?,
        _ => serve::run(&serve::SERVE_CORPUS, args)?,
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    println!("{}", outcome.to_json());
    Ok(if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| {
        if std::env::var_os(CHILD_ENV).is_some() {
            measure(&args)
        } else {
            supervise()
        }
    });
    result.unwrap_or_else(|e| {
        eprintln!("nasscbench: {e}");
        ExitCode::from(2)
    })
}
