//! Merged trace reports: Chrome `trace_event` export and the aggregated
//! per-span table.
//!
//! [`TraceReport`] is the immutable result of [`take_report`]: every
//! buffered event in deterministic merge order plus the dropped-event
//! count. Two serializations cover the two consumers:
//!
//! * [`TraceReport::to_chrome_json`] — the Chrome `trace_event` array
//!   format (`"X"` complete events, `"C"` counter events, microsecond
//!   timestamps), loadable in `chrome://tracing` and Perfetto.
//! * [`TraceReport::span_table`] / [`span_table_json`] — per-span-name
//!   aggregates (count, total, p50/p99 wall time, allocation bytes) for
//!   profile reports, `?trace=1` response bodies and the `/trace`
//!   endpoint.
//!
//! [`take_report`]: crate::take_report
//! [`span_table_json`]: TraceReport::span_table_json

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A span or counter annotation value.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// An integer annotation (trial index, item count, ...).
    U64(u64),
    /// A float annotation (routing cost, ...).
    F64(f64),
    /// A text annotation (router name, ...).
    Text(String),
}

/// One completed span: `[start_ns, start_ns + dur_ns)` on its thread, at
/// nesting depth `depth` (0 = top level).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Span name (taxonomy: `prepare`, `layout_trial`, pass names, ...).
    pub name: String,
    /// Start, in nanoseconds since the process trace anchor.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
    /// Nesting depth on the recording thread when the span opened.
    pub depth: u32,
    /// Allocation-probe delta over the span (0 without a registered probe).
    pub alloc_bytes: u64,
    /// Annotations attached via the `arg_*` methods, in attachment order.
    pub args: Vec<(String, ArgValue)>,
}

/// One (possibly coalesced) counter addition.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterEvent {
    /// Counter name (`route.steps`, `cache.layout_hit`, ...).
    pub name: String,
    /// Timestamp of the last coalesced addition, ns since the anchor.
    pub ts_ns: u64,
    /// Sum of the coalesced additions.
    pub value: u64,
}

/// A recorded event: a completed span or a counter addition.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A completed span.
    Span(SpanEvent),
    /// A counter addition.
    Counter(CounterEvent),
}

/// One event in the merged stream, tagged with its merged thread id and
/// per-thread sequence number.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Index into [`TraceReport::threads`].
    pub tid: usize,
    /// Per-thread sequence number (record order on that thread).
    pub seq: u64,
    /// The event itself.
    pub kind: EventKind,
}

/// A thread that contributed events, in deterministic merge order.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadInfo {
    /// Merged thread id (index into the report's thread list).
    pub tid: usize,
    /// OS thread name at buffer registration (may be empty).
    pub name: String,
}

/// Aggregated statistics for one span name.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStat {
    /// Span name.
    pub name: String,
    /// Number of completed spans with this name.
    pub count: u64,
    /// Sum of wall-clock durations, ns.
    pub total_ns: u64,
    /// Median duration (nearest rank), ns.
    pub p50_ns: u64,
    /// 99th-percentile duration (nearest rank), ns.
    pub p99_ns: u64,
    /// Sum of allocation-probe deltas, bytes.
    pub alloc_bytes: u64,
}

/// The merged result of one recording window.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceReport {
    /// Contributing threads in merge order.
    pub threads: Vec<ThreadInfo>,
    /// Every event, ordered by (thread merge order, per-thread sequence).
    pub events: Vec<TraceEvent>,
    /// Events lost to the per-thread buffer bound during this window. A
    /// non-zero value means the trace is truncated, not complete.
    pub events_dropped: u64,
}

impl TraceReport {
    /// Iterates over the completed spans in merge order.
    pub fn spans(&self) -> impl Iterator<Item = &SpanEvent> {
        self.events.iter().filter_map(|event| match &event.kind {
            EventKind::Span(span) => Some(span),
            EventKind::Counter(_) => None,
        })
    }

    /// Number of completed spans named `name`.
    pub fn span_count(&self, name: &str) -> u64 {
        self.spans().filter(|span| span.name == name).count() as u64
    }

    /// Sum across every counter event named `name`.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.events
            .iter()
            .filter_map(|event| match &event.kind {
                EventKind::Counter(counter) if counter.name == name => Some(counter.value),
                _ => None,
            })
            .sum()
    }

    /// Wall time (ns) covered by the union of **top-level** spans (depth 0)
    /// across every thread — the double-count-free coverage figure profiles
    /// compare to wall clock. Nested spans lie inside their parent, but a
    /// batch helper's top-level span overlaps its caller's span, so
    /// overlapping intervals count once.
    pub fn top_level_span_ns(&self) -> u64 {
        let mut intervals: Vec<(u64, u64)> = self
            .spans()
            .filter(|span| span.depth == 0)
            .map(|span| (span.start_ns, span.start_ns.saturating_add(span.dur_ns)))
            .collect();
        intervals.sort_unstable();
        let (mut covered, mut covered_until) = (0, 0);
        for (start, end) in intervals {
            let start = start.max(covered_until);
            if end > start {
                covered += end - start;
                covered_until = end;
            }
        }
        covered
    }

    /// Per-counter totals, sorted by name.
    pub fn counter_totals(&self) -> Vec<(String, u64)> {
        let mut totals: BTreeMap<&str, u64> = BTreeMap::new();
        for event in &self.events {
            if let EventKind::Counter(counter) = &event.kind {
                *totals.entry(counter.name.as_str()).or_insert(0) += counter.value;
            }
        }
        totals
            .into_iter()
            .map(|(name, total)| (name.to_string(), total))
            .collect()
    }

    /// Aggregates spans by name: count, total, p50/p99 wall time (nearest
    /// rank) and allocation bytes, sorted by total time descending (name
    /// ascending on ties).
    pub fn span_table(&self) -> Vec<SpanStat> {
        let mut durations: BTreeMap<&str, (Vec<u64>, u64)> = BTreeMap::new();
        for span in self.spans() {
            let entry = durations.entry(span.name.as_str()).or_default();
            entry.0.push(span.dur_ns);
            entry.1 += span.alloc_bytes;
        }
        let mut stats: Vec<SpanStat> = durations
            .into_iter()
            .map(|(name, (mut durs, alloc_bytes))| {
                durs.sort_unstable();
                let total_ns = durs.iter().sum();
                SpanStat {
                    name: name.to_string(),
                    count: durs.len() as u64,
                    total_ns,
                    p50_ns: nearest_rank(&durs, 0.50),
                    p99_ns: nearest_rank(&durs, 0.99),
                    alloc_bytes,
                }
            })
            .collect();
        stats.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(&b.name)));
        stats
    }

    /// The span table, counter totals and dropped-event count as one JSON
    /// object — the `?trace=1` / `/trace` response body.
    pub fn span_table_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        for (index, stat) in self.span_table().iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"count\":{},\"total_ns\":{},\"p50_ns\":{},\"p99_ns\":{},\"alloc_bytes\":{}}}",
                json_escape(&stat.name),
                stat.count,
                stat.total_ns,
                stat.p50_ns,
                stat.p99_ns,
                stat.alloc_bytes
            );
        }
        out.push_str("],\"counters\":[");
        for (index, (name, total)) in self.counter_totals().iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"total\":{}}}",
                json_escape(name),
                total
            );
        }
        let _ = write!(out, "],\"events_dropped\":{}}}", self.events_dropped);
        out
    }

    /// A human-readable span table (for `--profile` console output).
    pub fn render_span_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<28} {:>8} {:>12} {:>12} {:>12} {:>12}",
            "span", "count", "total ms", "p50 ms", "p99 ms", "alloc KiB"
        );
        for stat in self.span_table() {
            let _ = writeln!(
                out,
                "{:<28} {:>8} {:>12.3} {:>12.3} {:>12.3} {:>12.1}",
                stat.name,
                stat.count,
                stat.total_ns as f64 / 1e6,
                stat.p50_ns as f64 / 1e6,
                stat.p99_ns as f64 / 1e6,
                stat.alloc_bytes as f64 / 1024.0
            );
        }
        for (name, total) in self.counter_totals() {
            let _ = writeln!(out, "{name:<28} {total:>8} (counter)");
        }
        if self.events_dropped > 0 {
            let _ = writeln!(
                out,
                "WARNING: {} events dropped (trace truncated)",
                self.events_dropped
            );
        }
        out
    }

    /// Serializes to the Chrome `trace_event` JSON object format: thread
    /// name metadata (`"M"`) events, complete-span (`"X"`) events and
    /// counter (`"C"`) events, with microsecond timestamps. Load the file
    /// in `chrome://tracing` or <https://ui.perfetto.dev>.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        let mut push = |entry: String, out: &mut String| {
            if !std::mem::take(&mut first) {
                out.push(',');
            }
            out.push_str(&entry);
        };
        for thread in &self.threads {
            let name = if thread.name.is_empty() {
                format!("thread-{}", thread.tid)
            } else {
                thread.name.clone()
            };
            push(
                format!(
                    "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    thread.tid,
                    json_escape(&name)
                ),
                &mut out,
            );
        }
        for event in &self.events {
            match &event.kind {
                EventKind::Span(span) => {
                    let mut args = String::new();
                    for (key, value) in &span.args {
                        if !args.is_empty() {
                            args.push(',');
                        }
                        let _ = write!(args, "\"{}\":{}", json_escape(key), arg_json(value));
                    }
                    if span.alloc_bytes > 0 {
                        if !args.is_empty() {
                            args.push(',');
                        }
                        let _ = write!(args, "\"alloc_bytes\":{}", span.alloc_bytes);
                    }
                    push(
                        format!(
                            "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"cat\":\"nassc\",\
                             \"name\":\"{}\",\"ts\":{:.3},\"dur\":{:.3},\"args\":{{{}}}}}",
                            event.tid,
                            json_escape(&span.name),
                            span.start_ns as f64 / 1e3,
                            span.dur_ns as f64 / 1e3,
                            args
                        ),
                        &mut out,
                    );
                }
                EventKind::Counter(counter) => {
                    push(
                        format!(
                            "{{\"ph\":\"C\",\"pid\":1,\"tid\":{},\"name\":\"{}\",\
                             \"ts\":{:.3},\"args\":{{\"value\":{}}}}}",
                            event.tid,
                            json_escape(&counter.name),
                            counter.ts_ns as f64 / 1e3,
                            counter.value
                        ),
                        &mut out,
                    );
                }
            }
        }
        let _ = write!(
            out,
            "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"events_dropped\":{}}}}}",
            self.events_dropped
        );
        out
    }
}

fn arg_json(value: &ArgValue) -> String {
    match value {
        ArgValue::U64(v) => v.to_string(),
        ArgValue::F64(v) if v.is_finite() => format!("{v}"),
        ArgValue::F64(_) => "null".to_string(),
        ArgValue::Text(v) => format!("\"{}\"", json_escape(v)),
    }
}

/// Nearest-rank percentile over an ascending-sorted slice (0 for empty).
fn nearest_rank(sorted: &[u64], quantile: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 - 1.0) * quantile).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Escapes a string for embedding in a JSON document: quotes, backslashes
/// and control characters. The one JSON string escaper of the workspace:
/// trace reports, daemon responses and bench reports all write through it.
pub fn json_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        assert_eq!(nearest_rank(&[], 0.5), 0);
        assert_eq!(nearest_rank(&[7], 0.5), 7);
        assert_eq!(nearest_rank(&[7], 0.99), 7);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 0.50), 51);
        assert_eq!(nearest_rank(&v, 0.99), 99);
    }

    #[test]
    fn json_escaping_covers_control_characters() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn span_table_aggregates_and_sorts_by_total() {
        let mk = |name: &str, start: u64, dur: u64, alloc: u64| TraceEvent {
            tid: 0,
            seq: 0,
            kind: EventKind::Span(SpanEvent {
                name: name.to_string(),
                start_ns: start,
                dur_ns: dur,
                depth: 0,
                alloc_bytes: alloc,
                args: Vec::new(),
            }),
        };
        let report = TraceReport {
            threads: vec![ThreadInfo {
                tid: 0,
                name: "main".to_string(),
            }],
            events: vec![mk("a", 0, 10, 4), mk("b", 10, 100, 0), mk("a", 110, 30, 4)],
            events_dropped: 0,
        };
        let table = report.span_table();
        assert_eq!(table[0].name, "b");
        assert_eq!(table[1].name, "a");
        assert_eq!(table[1].count, 2);
        assert_eq!(table[1].total_ns, 40);
        assert_eq!(table[1].alloc_bytes, 8);
        assert_eq!(report.top_level_span_ns(), 140);
    }

    #[test]
    fn top_level_coverage_counts_overlapping_threads_once() {
        let mk = |tid: usize, start: u64, dur: u64, depth: u32| TraceEvent {
            tid,
            seq: 0,
            kind: EventKind::Span(SpanEvent {
                name: "span".to_string(),
                start_ns: start,
                dur_ns: dur,
                depth,
                alloc_bytes: 0,
                args: Vec::new(),
            }),
        };
        let thread = |tid: usize, name: &str| ThreadInfo {
            tid,
            name: name.to_string(),
        };
        // The caller's top-level span with a nested child, a helper whose
        // top-level spans overlap it, and a later span after a gap: the
        // union is [0, 120) and [200, 230).
        let report = TraceReport {
            threads: vec![thread(0, "main"), thread(1, "nassc-worker-0")],
            events: vec![
                mk(0, 0, 100, 0),
                mk(0, 10, 40, 1),
                mk(1, 40, 80, 0),
                mk(1, 60, 20, 0),
                mk(0, 200, 30, 0),
            ],
            events_dropped: 0,
        };
        assert_eq!(report.top_level_span_ns(), 150);
    }
}
