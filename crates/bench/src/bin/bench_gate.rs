//! CI regression gate over `BENCH_*.json` reports.
//!
//! Validates that a report produced with `--json` parses, has rows, and that
//! named summary metrics stay within bounds:
//!
//! ```text
//! bench_gate BENCH_table1.json --min geomean_delta_cx_add 0.05
//! bench_gate BENCH_table2.json --min geomean_delta_depth_add 0.0 --max runs_regression 1.5
//! ```
//!
//! `--min NAME VALUE` fails when `summary[NAME] < VALUE` (or is missing or
//! NaN); `--max NAME VALUE` fails when `summary[NAME] > VALUE`. Both are
//! repeatable. Exit status is non-zero on any violation, which is what the
//! CI bench-smoke job keys off.
//!
//! `--emit-summary <path>` additionally writes a compact row-free summary
//! (artefact, suite, run parameters, the summary metrics) after the bounds
//! pass — the per-commit record the committed `bench_history/` directory
//! accumulates. Nothing is written when a bound fails: history entries are
//! passing runs only.

use std::path::PathBuf;
use std::process::ExitCode;

use nassc::trace::json_escape;
use nassc_bench::BenchReport;

/// One `--min`/`--max` constraint on a summary metric.
#[derive(Debug, Clone, PartialEq)]
struct Bound {
    metric: String,
    value: f64,
    is_min: bool,
}

/// Parsed command line: the report path plus the bounds to enforce.
#[derive(Debug, Clone, PartialEq)]
struct GateArgs {
    report: PathBuf,
    bounds: Vec<Bound>,
    emit_summary: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<GateArgs, String> {
    let mut report = None;
    let mut bounds = Vec::new();
    let mut emit_summary = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--emit-summary" => {
                let path = iter.next().ok_or("--emit-summary requires a path")?;
                emit_summary = Some(PathBuf::from(path));
            }
            "--min" | "--max" => {
                let metric = iter
                    .next()
                    .ok_or_else(|| format!("{arg} requires a metric name"))?
                    .clone();
                let value = iter
                    .next()
                    .ok_or_else(|| format!("{arg} {metric} requires a value"))?;
                let value: f64 = value
                    .parse()
                    .map_err(|_| format!("{arg} {metric}: invalid value {value:?}"))?;
                bounds.push(Bound {
                    metric,
                    value,
                    is_min: arg == "--min",
                });
            }
            other if report.is_none() && !other.starts_with("--") => {
                report = Some(PathBuf::from(other));
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(GateArgs {
        report: report.ok_or(
            "usage: bench_gate <report.json> [--min NAME VALUE] [--max NAME VALUE] \
             [--emit-summary <path>]",
        )?,
        bounds,
        emit_summary,
    })
}

/// The compact perf-history record for a passing report: everything except
/// the per-benchmark rows, as one JSON object. Metric names are crate-chosen
/// identifiers, but escape them anyway — the file is parsed by humans and
/// scripts alike.
fn summary_json(report: &BenchReport) -> String {
    let metrics = report
        .summary
        .iter()
        .map(|(name, value)| {
            let rendered = if value.is_finite() {
                format!("{value}")
            } else {
                "null".to_string()
            };
            format!("    \"{}\": {rendered}", json_escape(name))
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"artefact\": \"{}\",\n  \"suite\": \"{}\",\n  \"runs\": {},\n  \
         \"layout_trials\": {},\n  \"rows\": {},\n  \"summary\": {{\n{metrics}\n  }}\n}}\n",
        json_escape(&report.artefact),
        json_escape(&report.suite),
        report.runs,
        report.layout_trials,
        report.rows.len()
    )
}

/// Checks every bound, returning the list of violations.
fn check(report: &BenchReport, bounds: &[Bound]) -> Vec<String> {
    let mut violations = Vec::new();
    if report.rows.is_empty() {
        violations.push("report has no rows".to_string());
    }
    for bound in bounds {
        let Some(actual) = report.summary_value(&bound.metric) else {
            violations.push(format!("summary metric {:?} is missing", bound.metric));
            continue;
        };
        let ok = if bound.is_min {
            actual >= bound.value
        } else {
            actual <= bound.value
        };
        // NaN compares false either way, so a null/NaN metric always fails.
        if !ok {
            violations.push(format!(
                "summary metric {:?} = {actual} violates {} {}",
                bound.metric,
                if bound.is_min { "--min" } else { "--max" },
                bound.value
            ));
        }
    }
    violations
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("bench_gate: {message}");
            return ExitCode::FAILURE;
        }
    };
    let report = match BenchReport::read_from_file(&args.report) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("bench_gate: {}: {e}", args.report.display());
            return ExitCode::FAILURE;
        }
    };
    println!(
        "bench_gate: {} ({}, suite {}, {} runs, {} layout trials, {} rows)",
        args.report.display(),
        report.artefact,
        report.suite,
        report.runs,
        report.layout_trials,
        report.rows.len()
    );
    for (name, value) in &report.summary {
        println!("  {name} = {value}");
    }
    let violations = check(&report, &args.bounds);
    if violations.is_empty() {
        println!("bench_gate: OK ({} bounds checked)", args.bounds.len());
        if let Some(path) = &args.emit_summary {
            if let Err(e) = std::fs::write(path, summary_json(&report)) {
                eprintln!("bench_gate: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            println!("bench_gate: wrote {}", path.display());
        }
        ExitCode::SUCCESS
    } else {
        for violation in &violations {
            eprintln!("bench_gate: FAIL: {violation}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nassc_bench::ReportRow;

    fn strings(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    fn report_with_summary(summary: &[(&str, f64)]) -> BenchReport {
        let mut report = BenchReport::new("t", "T", "quick", 1);
        report.rows.push(ReportRow {
            name: "bench".to_string(),
            qubits: 4,
            metrics: Vec::new(),
        });
        report.summary = summary.iter().map(|(n, v)| (n.to_string(), *v)).collect();
        report
    }

    #[test]
    fn args_parse_path_and_repeated_bounds() {
        let args = parse_args(&strings(&[
            "r.json", "--min", "a", "0.5", "--max", "b", "2",
        ]))
        .unwrap();
        assert_eq!(args.report, PathBuf::from("r.json"));
        assert_eq!(args.bounds.len(), 2);
        assert!(args.bounds[0].is_min && !args.bounds[1].is_min);
        assert!(parse_args(&strings(&["--min", "a"])).is_err());
        assert!(parse_args(&strings(&[])).is_err());
        assert!(parse_args(&strings(&["r.json", "--min", "a", "zzz"])).is_err());
    }

    #[test]
    fn emit_summary_flag_parses_and_renders_compact_json() {
        let args = parse_args(&strings(&["r.json", "--emit-summary", "out.json"])).unwrap();
        assert_eq!(args.emit_summary, Some(PathBuf::from("out.json")));
        assert!(parse_args(&strings(&["r.json", "--emit-summary"])).is_err());

        let report = report_with_summary(&[("trace_overhead_ratio", 1.02), ("bad", f64::NAN)]);
        let json = summary_json(&report);
        assert!(json.contains("\"artefact\": \"t\""));
        assert!(json.contains("\"suite\": \"quick\""));
        assert!(json.contains("\"rows\": 1"));
        assert!(json.contains("\"trace_overhead_ratio\": 1.02"));
        assert!(json.contains("\"bad\": null"), "non-finite renders as null");
        assert!(!json.contains("\"metrics\""), "rows are dropped");
    }

    #[test]
    fn bounds_pass_and_fail_as_expected() {
        let report = report_with_summary(&[("g", 0.18)]);
        let min_ok = Bound {
            metric: "g".to_string(),
            value: 0.05,
            is_min: true,
        };
        assert!(check(&report, std::slice::from_ref(&min_ok)).is_empty());
        let min_bad = Bound {
            value: 0.5,
            ..min_ok.clone()
        };
        assert_eq!(check(&report, &[min_bad]).len(), 1);
        let max_bad = Bound {
            value: 0.1,
            is_min: false,
            ..min_ok
        };
        assert_eq!(check(&report, &[max_bad]).len(), 1);
    }

    #[test]
    fn missing_or_nan_metrics_and_empty_reports_fail() {
        let report = report_with_summary(&[("nan", f64::NAN)]);
        let bound = |metric: &str| Bound {
            metric: metric.to_string(),
            value: 0.0,
            is_min: true,
        };
        assert_eq!(check(&report, &[bound("absent")]).len(), 1);
        assert_eq!(check(&report, &[bound("nan")]).len(), 1);
        let empty = BenchReport::new("t", "T", "quick", 1);
        assert_eq!(check(&empty, &[]).len(), 1);
    }
}
