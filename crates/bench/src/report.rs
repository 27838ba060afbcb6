//! Machine-readable bench reports (`BENCH_*.json`).
//!
//! Every table/figure binary can serialize its results as a [`BenchReport`]
//! via `--json <path>`, so CI can archive the perf trajectory and gate on
//! regressions (see the `bench_gate` binary). The JSON is hand-rolled — the
//! build environment has no registry access, so no `serde` — but the format
//! is plain JSON any consumer can read:
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "artefact": "table1_cnot_montreal",
//!   "title": "Table I — additional CNOTs on ibmq_montreal",
//!   "suite": "quick",
//!   "runs": 1,
//!   "layout_trials": 1,
//!   "rows": [
//!     {
//!       "name": "Grover_4-qubits",
//!       "qubits": 4,
//!       "metrics": { "original_cx": 30, "delta_cx_add": 0.25 }
//!     }
//!   ],
//!   "summary": { "geomean_delta_cx_add": 0.18 }
//! }
//! ```
//!
//! `metrics`/`summary` are ordered name → value maps (insertion order is
//! preserved on both write and parse, so write→parse round-trips exactly).
//! Values are finite `f64`s; non-finite values serialize as `null` and parse
//! back as `NaN`.

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// Version stamp written into every report, bumped on schema changes.
pub const SCHEMA_VERSION: u64 = 1;

/// A named scalar map preserving insertion order (JSON object of numbers).
pub type Metrics = Vec<(String, f64)>;

/// One benchmark's row in a report.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReportRow {
    /// Benchmark name (prefixed with the coupling map for multi-map runs).
    pub name: String,
    /// Qubit count of the benchmark.
    pub qubits: usize,
    /// Named metric values for this row.
    pub metrics: Metrics,
}

impl ReportRow {
    /// Looks up a row metric by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

/// The machine-readable result of one table/figure reproduction run.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Schema version ([`SCHEMA_VERSION`] for reports written by this crate).
    pub schema_version: u64,
    /// Stable artefact id, e.g. `"table1_cnot_montreal"`.
    pub artefact: String,
    /// Human-readable title, e.g. `"Table I — additional CNOTs on ibmq_montreal"`.
    pub title: String,
    /// Which benchmark suite ran (`"quick"` or `"full"`).
    pub suite: String,
    /// Seeds averaged over per benchmark.
    pub runs: usize,
    /// Layout trials per transpile (`1` = single-trial compatibility mode).
    /// Written by every current report; reports predating the field parse
    /// back as `1`.
    pub layout_trials: usize,
    /// Per-benchmark rows.
    pub rows: Vec<ReportRow>,
    /// Aggregates over the rows (geomeans etc.) — what CI gates on.
    pub summary: Metrics,
}

impl BenchReport {
    /// An empty report skeleton for the given artefact.
    pub fn new(
        artefact: impl Into<String>,
        title: impl Into<String>,
        suite: impl Into<String>,
        runs: usize,
    ) -> Self {
        Self {
            schema_version: SCHEMA_VERSION,
            artefact: artefact.into(),
            title: title.into(),
            suite: suite.into(),
            runs,
            layout_trials: 1,
            rows: Vec::new(),
            summary: Vec::new(),
        }
    }

    /// Looks up a summary metric by name.
    pub fn summary_value(&self, name: &str) -> Option<f64> {
        self.summary
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Serializes the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema_version\": {},\n", self.schema_version));
        out.push_str(&format!(
            "  \"artefact\": {},\n",
            json_string(&self.artefact)
        ));
        out.push_str(&format!("  \"title\": {},\n", json_string(&self.title)));
        out.push_str(&format!("  \"suite\": {},\n", json_string(&self.suite)));
        out.push_str(&format!("  \"runs\": {},\n", self.runs));
        out.push_str(&format!("  \"layout_trials\": {},\n", self.layout_trials));
        out.push_str("  \"rows\": [");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\n");
            out.push_str(&format!("      \"name\": {},\n", json_string(&row.name)));
            out.push_str(&format!("      \"qubits\": {},\n", row.qubits));
            out.push_str("      \"metrics\": ");
            out.push_str(&json_metrics(&row.metrics, "      "));
            out.push_str("\n    }");
        }
        if !self.rows.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        out.push_str("  \"summary\": ");
        out.push_str(&json_metrics(&self.summary, "  "));
        out.push_str("\n}\n");
        out
    }

    /// Parses a report previously produced by [`Self::to_json`] (or any JSON
    /// matching the documented schema).
    ///
    /// # Errors
    ///
    /// Returns a [`ReportError`] describing the first syntax or schema
    /// violation encountered.
    pub fn from_json(text: &str) -> Result<Self, ReportError> {
        let value = Parser::new(text).parse_document()?;
        let object = value.as_object("report")?;
        let schema_version = get(object, "schema_version")?.as_u64("schema_version")?;
        let artefact = get(object, "artefact")?.as_string("artefact")?;
        let title = get(object, "title")?.as_string("title")?;
        let suite = get(object, "suite")?.as_string("suite")?;
        let runs = get(object, "runs")?.as_u64("runs")? as usize;
        // Optional for backward compatibility: schema-1 reports written
        // before the field existed are single-trial runs.
        let layout_trials = match object.iter().find(|(key, _)| key == "layout_trials") {
            Some((_, value)) => value.as_u64("layout_trials")? as usize,
            None => 1,
        };
        let rows = get(object, "rows")?
            .as_array("rows")?
            .iter()
            .map(|row| {
                let row = row.as_object("rows[]")?;
                Ok(ReportRow {
                    name: get(row, "name")?.as_string("name")?,
                    qubits: get(row, "qubits")?.as_u64("qubits")? as usize,
                    metrics: get(row, "metrics")?.as_metrics("metrics")?,
                })
            })
            .collect::<Result<Vec<_>, ReportError>>()?;
        let summary = get(object, "summary")?.as_metrics("summary")?;
        Ok(Self {
            schema_version,
            artefact,
            title,
            suite,
            runs,
            layout_trials,
            rows,
            summary,
        })
    }

    /// Writes the JSON serialization to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn write_to_file(&self, path: &Path) -> io::Result<()> {
        fs::write(path, self.to_json())
    }

    /// Reads and parses a report from `path`.
    ///
    /// # Errors
    ///
    /// Returns a [`ReportError`] for both I/O and parse failures.
    pub fn read_from_file(path: &Path) -> Result<Self, ReportError> {
        let text = fs::read_to_string(path)
            .map_err(|e| ReportError(format!("reading {}: {e}", path.display())))?;
        Self::from_json(&text)
    }
}

/// Error parsing or validating a [`BenchReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReportError(String);

impl ReportError {
    fn new(message: impl Into<String>) -> Self {
        Self(message.into())
    }
}

impl fmt::Display for ReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid bench report: {}", self.0)
    }
}

impl std::error::Error for ReportError {}

/// Escapes and quotes a string for JSON output.
fn json_string(s: &str) -> String {
    format!("\"{}\"", nassc::trace::json_escape(s))
}

/// Formats an `f64` as a JSON value that parses back to the same bits
/// (Rust's shortest-round-trip `Display`); non-finite values become `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Writes a metrics map as a JSON object, one entry per line.
fn json_metrics(metrics: &Metrics, indent: &str) -> String {
    if metrics.is_empty() {
        return "{}".to_string();
    }
    let mut out = String::from("{");
    for (i, (name, value)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n{indent}  {}: {}",
            json_string(name),
            json_number(*value)
        ));
    }
    out.push_str(&format!("\n{indent}}}"));
    out
}

/// Parsed JSON value — just enough of the grammar for the report schema.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Number(_) => "number",
            Json::String(_) => "string",
            Json::Array(_) => "array",
            Json::Object(_) => "object",
        }
    }

    fn as_object(&self, field: &str) -> Result<&[(String, Json)], ReportError> {
        match self {
            Json::Object(entries) => Ok(entries),
            other => Err(ReportError::new(format!(
                "expected {field} to be an object, found {}",
                other.type_name()
            ))),
        }
    }

    fn as_array(&self, field: &str) -> Result<&[Json], ReportError> {
        match self {
            Json::Array(items) => Ok(items),
            other => Err(ReportError::new(format!(
                "expected {field} to be an array, found {}",
                other.type_name()
            ))),
        }
    }

    fn as_string(&self, field: &str) -> Result<String, ReportError> {
        match self {
            Json::String(s) => Ok(s.clone()),
            other => Err(ReportError::new(format!(
                "expected {field} to be a string, found {}",
                other.type_name()
            ))),
        }
    }

    fn as_u64(&self, field: &str) -> Result<u64, ReportError> {
        match self {
            Json::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as u64),
            other => Err(ReportError::new(format!(
                "expected {field} to be a non-negative integer, found {other:?}"
            ))),
        }
    }

    fn as_f64(&self, field: &str) -> Result<f64, ReportError> {
        match self {
            Json::Number(n) => Ok(*n),
            Json::Null => Ok(f64::NAN),
            other => Err(ReportError::new(format!(
                "expected {field} to be a number or null, found {}",
                other.type_name()
            ))),
        }
    }

    fn as_metrics(&self, field: &str) -> Result<Metrics, ReportError> {
        self.as_object(field)?
            .iter()
            .map(|(name, value)| Ok((name.clone(), value.as_f64(name)?)))
            .collect()
    }
}

fn get<'a>(object: &'a [(String, Json)], key: &str) -> Result<&'a Json, ReportError> {
    object
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| ReportError::new(format!("missing field \"{key}\"")))
}

/// A minimal recursive-descent JSON parser over the report grammar.
struct Parser<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    offset: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            chars: text.chars().peekable(),
            offset: 0,
        }
    }

    fn err(&self, message: impl Into<String>) -> ReportError {
        ReportError::new(format!("{} at offset {}", message.into(), self.offset))
    }

    fn next(&mut self) -> Option<char> {
        let c = self.chars.next();
        if let Some(c) = c {
            self.offset += c.len_utf8();
        }
        c
    }

    fn peek(&mut self) -> Option<char> {
        self.chars.peek().copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t' | '\n' | '\r')) {
            self.next();
        }
    }

    fn expect(&mut self, want: char) -> Result<(), ReportError> {
        match self.next() {
            Some(c) if c == want => Ok(()),
            Some(c) => Err(self.err(format!("expected '{want}', found '{c}'"))),
            None => Err(self.err(format!("expected '{want}', found end of input"))),
        }
    }

    fn parse_document(&mut self) -> Result<Json, ReportError> {
        let value = self.parse_value()?;
        self.skip_whitespace();
        if self.peek().is_some() {
            return Err(self.err("trailing characters after document"));
        }
        Ok(value)
    }

    fn parse_value(&mut self) -> Result<Json, ReportError> {
        self.skip_whitespace();
        match self.peek() {
            Some('{') => self.parse_object(),
            Some('[') => self.parse_array(),
            Some('"') => Ok(Json::String(self.parse_string()?)),
            Some('t') => self.parse_keyword("true", Json::Bool(true)),
            Some('f') => self.parse_keyword("false", Json::Bool(false)),
            Some('n') => self.parse_keyword("null", Json::Null),
            Some(c) if c == '-' || c.is_ascii_digit() => self.parse_number(),
            Some(c) => Err(self.err(format!("unexpected character '{c}'"))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse_keyword(&mut self, keyword: &str, value: Json) -> Result<Json, ReportError> {
        for want in keyword.chars() {
            match self.next() {
                Some(c) if c == want => {}
                _ => return Err(self.err(format!("invalid literal, expected \"{keyword}\""))),
            }
        }
        Ok(value)
    }

    fn parse_number(&mut self) -> Result<Json, ReportError> {
        let mut text = String::new();
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E') {
                text.push(c);
                self.next();
            } else {
                break;
            }
        }
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| self.err(format!("invalid number \"{text}\"")))
    }

    fn parse_string(&mut self) -> Result<String, ReportError> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.next() {
                None => return Err(self.err("unterminated string")),
                Some('"') => return Ok(out),
                Some('\\') => match self.next() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('b') => out.push('\u{0008}'),
                    Some('f') => out.push('\u{000c}'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('u') => {
                        let unit = self.parse_hex4()?;
                        let c = if (0xD800..0xDC00).contains(&unit) {
                            // High surrogate: must pair with \uDC00..=\uDFFF.
                            self.expect('\\')?;
                            self.expect('u')?;
                            let low = self.parse_hex4()?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err(self.err("unpaired surrogate"));
                            }
                            let combined = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                            char::from_u32(combined)
                        } else {
                            char::from_u32(unit)
                        };
                        out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                    }
                    Some(c) => return Err(self.err(format!("invalid escape '\\{c}'"))),
                    None => return Err(self.err("unterminated escape")),
                },
                Some(c) => out.push(c),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, ReportError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let digit = self
                .next()
                .and_then(|c| c.to_digit(16))
                .ok_or_else(|| self.err("invalid \\u escape"))?;
            value = value * 16 + digit;
        }
        Ok(value)
    }

    fn parse_array(&mut self) -> Result<Json, ReportError> {
        self.expect('[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(']') {
            self.next();
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_whitespace();
            match self.next() {
                Some(',') => {}
                Some(']') => return Ok(Json::Array(items)),
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Json, ReportError> {
        self.expect('{')?;
        let mut entries = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some('}') {
            self.next();
            return Ok(Json::Object(entries));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect(':')?;
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_whitespace();
            match self.next() {
                Some(',') => {}
                Some('}') => return Ok(Json::Object(entries)),
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> BenchReport {
        let mut report = BenchReport::new("table1_cnot_montreal", "Table I — test", "quick", 2);
        report.rows.push(ReportRow {
            name: "Grover_4-qubits".to_string(),
            qubits: 4,
            metrics: vec![
                ("original_cx".to_string(), 30.0),
                ("delta_cx_add".to_string(), 0.25),
            ],
        });
        report.rows.push(ReportRow {
            name: "weird \"name\"\\with\nescapes\t«π»".to_string(),
            qubits: 25,
            metrics: vec![("tiny".to_string(), 1.25e-17)],
        });
        report.summary = vec![("geomean_delta_cx_add".to_string(), 0.18)];
        report.layout_trials = 4;
        report
    }

    #[test]
    fn reports_without_layout_trials_parse_as_single_trial() {
        let json = "{\"schema_version\": 1, \"artefact\": \"a\", \"title\": \"t\", \
                    \"suite\": \"s\", \"runs\": 1, \"rows\": [], \"summary\": {}}";
        let parsed = BenchReport::from_json(json).unwrap();
        assert_eq!(parsed.layout_trials, 1);
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = sample_report();
        let parsed = BenchReport::from_json(&report.to_json()).unwrap();
        assert_eq!(report, parsed);
    }

    #[test]
    fn empty_rows_and_summary_round_trip() {
        let report = BenchReport::new("x", "y", "full", 0);
        let parsed = BenchReport::from_json(&report.to_json()).unwrap();
        assert_eq!(report, parsed);
    }

    #[test]
    fn summary_and_row_lookups_work() {
        let report = sample_report();
        assert_eq!(report.summary_value("geomean_delta_cx_add"), Some(0.18));
        assert_eq!(report.summary_value("missing"), None);
        assert_eq!(report.rows[0].metric("original_cx"), Some(30.0));
        assert_eq!(report.rows[0].metric("missing"), None);
    }

    #[test]
    fn non_finite_metrics_become_null_and_parse_as_nan() {
        let mut report = BenchReport::new("a", "b", "quick", 1);
        report.summary = vec![("bad".to_string(), f64::INFINITY)];
        let json = report.to_json();
        assert!(json.contains("\"bad\": null"));
        let parsed = BenchReport::from_json(&json).unwrap();
        assert!(parsed.summary[0].1.is_nan());
    }

    #[test]
    fn malformed_documents_are_rejected_with_context() {
        for (text, fragment) in [
            ("", "unexpected end of input"),
            ("{\"schema_version\": 1", "expected"),
            ("{} trailing", "trailing characters"),
            ("{}", "missing field"),
            ("[1, 2]", "expected report to be an object"),
            ("{\"schema_version\": \"x\"}", "non-negative integer"),
            ("{\"a\": \"\\q\"}", "invalid escape"),
            ("{\"a\": \"\\ud800x\"}", "expected"),
            ("nul", "invalid literal"),
        ] {
            let err = BenchReport::from_json(text).unwrap_err();
            assert!(
                err.to_string().contains(fragment),
                "{text:?}: {err} does not mention {fragment:?}"
            );
        }
    }

    #[test]
    fn unicode_escapes_parse_including_surrogate_pairs() {
        let json = "{\"schema_version\": 1, \"artefact\": \"\\u0041\\ud83d\\ude00\", \
                    \"title\": \"t\", \"suite\": \"s\", \"runs\": 1, \"rows\": [], \
                    \"summary\": {}}";
        let parsed = BenchReport::from_json(json).unwrap();
        assert_eq!(parsed.artefact, "A😀");
    }

    #[test]
    fn file_round_trip_works() {
        let dir = std::env::temp_dir().join("nassc_report_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_roundtrip.json");
        let report = sample_report();
        report.write_to_file(&path).unwrap();
        assert_eq!(BenchReport::read_from_file(&path).unwrap(), report);
        std::fs::remove_file(&path).ok();
    }
}
