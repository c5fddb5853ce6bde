//! Drained trace data: records, deterministic metrics rendering, and
//! Chrome `trace_event` JSON export.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json_escape;

/// A closed span: one Chrome `X` (complete) event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Category (Chrome `cat`), e.g. `"compile"` or `"sim"`.
    pub cat: String,
    /// Event name, e.g. `"compile.route"`.
    pub name: String,
    /// Start, in microseconds since the recorder epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Recorder-assigned thread id (dense, starts at 0).
    pub tid: u64,
}

/// A warn-level instant event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarnRecord {
    /// Category, e.g. `"router"` or `"calibration"`.
    pub cat: String,
    /// Human-readable diagnostic.
    pub message: String,
    /// Timestamp, in microseconds since the recorder epoch.
    pub ts_us: u64,
    /// Recorder-assigned thread id.
    pub tid: u64,
}

/// Count/sum/min/max reduction of `f64` observations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Histogram {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation (`+inf` when empty).
    pub min: f64,
    /// Largest observation (`-inf` when empty).
    pub max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Histogram {
    /// Folds one observation in.
    pub fn record(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Merges another histogram in (order-independent for
    /// `count`/`min`/`max`; `sum` is f64 addition).
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Mean observation, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Everything one [`crate::drain`] call took out of the recorder.
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    /// Closed spans, sorted by (start, tid, longest-first).
    pub spans: Vec<SpanRecord>,
    /// Final counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, Histogram>,
    /// Warn events, sorted by timestamp.
    pub warnings: Vec<WarnRecord>,
}

/// Aggregate over all spans sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotal {
    /// Number of spans with this name.
    pub calls: u64,
    /// Total duration across them, in microseconds.
    pub total_us: u64,
}

impl TraceReport {
    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
            && self.counters.is_empty()
            && self.histograms.is_empty()
            && self.warnings.is_empty()
    }

    /// Per-name span aggregates (calls and total duration), keyed and
    /// ordered by span name.
    pub fn span_totals(&self) -> BTreeMap<String, SpanTotal> {
        let mut totals: BTreeMap<String, SpanTotal> = BTreeMap::new();
        for s in &self.spans {
            let t = totals.entry(s.name.clone()).or_default();
            t.calls += 1;
            t.total_us += s.dur_us;
        }
        totals
    }

    /// Renders the **deterministic** metrics section: counters,
    /// histograms, and warn events — never timestamps or durations.
    /// For a deterministic workload this output is byte-identical
    /// across runs and thread counts.
    pub fn render_metrics_text(&self) -> String {
        let mut out = String::from("metrics:\n");
        if self.counters.is_empty() && self.histograms.is_empty() && self.warnings.is_empty() {
            out.push_str("  (none)\n");
            return out;
        }
        for (name, v) in &self.counters {
            let _ = writeln!(out, "  counter {name} = {v}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(
                out,
                "  histogram {name}: count {} min {:.6} mean {:.6} max {:.6}",
                h.count,
                h.min,
                h.mean(),
                h.max
            );
        }
        let mut warns: Vec<&WarnRecord> = self.warnings.iter().collect();
        warns.sort_by(|a, b| (a.cat.as_str(), a.message.as_str()).cmp(&(b.cat.as_str(), b.message.as_str())));
        for w in warns {
            let _ = writeln!(out, "  warn [{}] {}", w.cat, w.message);
        }
        out
    }

    /// Renders the human-facing profile: a per-span timing table
    /// (wall-clock — *not* deterministic) followed by the metrics
    /// section.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let totals = self.span_totals();
        if !totals.is_empty() {
            out.push_str("span                              calls    total_ms     mean_ms\n");
            for (name, t) in &totals {
                let total_ms = t.total_us as f64 / 1_000.0;
                let mean_ms = if t.calls == 0 {
                    0.0
                } else {
                    total_ms / t.calls as f64
                };
                let _ = writeln!(out, "{name:<32} {:>6} {total_ms:>11.3} {mean_ms:>11.3}", t.calls);
            }
        }
        out.push_str(&self.render_metrics_text());
        out
    }

    /// Serializes as Chrome `trace_event` JSON (the `{"traceEvents":
    /// [...]}` object form), loadable in Perfetto or `chrome://tracing`.
    ///
    /// Spans become `X` (complete) events, counters and histogram
    /// means become `C` (counter) samples at the end of the trace, and
    /// warn events become `I` (instant) events.
    pub fn to_chrome_json(&self) -> String {
        let mut events: Vec<String> = Vec::new();
        for s in &self.spans {
            events.push(format!(
                "{{\"name\": {}, \"cat\": {}, \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \"pid\": 1, \"tid\": {}}}",
                json_str(&s.name),
                json_str(&s.cat),
                s.start_us,
                s.dur_us,
                s.tid
            ));
        }
        let end_ts = self
            .spans
            .iter()
            .map(|s| s.start_us + s.dur_us)
            .chain(self.warnings.iter().map(|w| w.ts_us))
            .max()
            .unwrap_or(0);
        for (name, v) in &self.counters {
            events.push(format!(
                "{{\"name\": {}, \"ph\": \"C\", \"ts\": {end_ts}, \"pid\": 1, \"tid\": 0, \
                 \"args\": {{\"value\": {v}}}}}",
                json_str(name)
            ));
        }
        for (name, h) in &self.histograms {
            events.push(format!(
                "{{\"name\": {}, \"ph\": \"C\", \"ts\": {end_ts}, \"pid\": 1, \"tid\": 0, \
                 \"args\": {{\"value\": {}}}}}",
                json_str(name),
                json_num(h.mean())
            ));
        }
        for w in &self.warnings {
            events.push(format!(
                "{{\"name\": {}, \"cat\": \"warn\", \"ph\": \"I\", \"ts\": {}, \"pid\": 1, \"tid\": {}, \
                 \"s\": \"t\", \"args\": {{\"message\": {}}}}}",
                json_str(&w.cat),
                w.ts_us,
                w.tid,
                json_str(&w.message)
            ));
        }
        let mut out = String::from("{\n\"traceEvents\": [\n");
        out.push_str(&events.join(",\n"));
        out.push_str("\n]\n}\n");
        out
    }
}

/// JSON string literal: `s` escaped by [`json_escape`] and quoted.
pub(crate) fn json_str(s: &str) -> String {
    format!("\"{}\"", json_escape(s))
}

/// JSON number: finite floats as shortest-roundtrip decimal; non-finite
/// values (invalid in JSON) clamp to 0.
fn json_num(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    // "{}" prints integral floats without a dot; still a JSON number
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> TraceReport {
        let mut counters = BTreeMap::new();
        counters.insert("route.swaps_inserted".to_string(), 7u64);
        let mut histograms = BTreeMap::new();
        let mut h = Histogram::default();
        h.record(1.0);
        h.record(2.0);
        histograms.insert("alloc.region_size".to_string(), h);
        TraceReport {
            spans: vec![
                SpanRecord {
                    cat: "compile".to_string(),
                    name: "compile.route".to_string(),
                    start_us: 10,
                    dur_us: 100,
                    tid: 0,
                },
                SpanRecord {
                    cat: "compile".to_string(),
                    name: "compile.route".to_string(),
                    start_us: 120,
                    dur_us: 50,
                    tid: 0,
                },
            ],
            counters,
            histograms,
            warnings: vec![WarnRecord {
                cat: "router".to_string(),
                message: "fell back to \"hops\"".to_string(),
                ts_us: 15,
                tid: 0,
            }],
        }
    }

    #[test]
    fn metrics_text_has_no_timestamps() {
        let text = sample_report().render_metrics_text();
        assert!(text.contains("counter route.swaps_inserted = 7"));
        assert!(text.contains("histogram alloc.region_size: count 2 min 1.000000 mean 1.500000 max 2.000000"));
        assert!(text.contains("warn [router] fell back to \"hops\""));
        assert!(
            !text.contains("10"),
            "timestamps must not leak into metrics: {text}"
        );
    }

    #[test]
    fn span_totals_aggregate_by_name() {
        let totals = sample_report().span_totals();
        let t = totals.get("compile.route").copied().unwrap_or_default();
        assert_eq!(t.calls, 2);
        assert_eq!(t.total_us, 150);
    }

    #[test]
    fn chrome_json_is_valid_and_typed() {
        let json = sample_report().to_chrome_json();
        let stats = crate::validate_chrome_trace(&json).unwrap();
        assert_eq!(stats.spans, 2);
        assert_eq!(stats.counters, 2); // one counter + one histogram sample
        assert_eq!(stats.instants, 1);
    }

    #[test]
    fn chrome_json_escapes_strings() {
        let json = sample_report().to_chrome_json();
        assert!(json.contains("fell back to \\\"hops\\\""));
    }

    #[test]
    fn empty_report_renders_and_exports() {
        let r = TraceReport::default();
        assert!(r.is_empty());
        assert_eq!(r.render_metrics_text(), "metrics:\n  (none)\n");
        let stats = crate::validate_chrome_trace(&r.to_chrome_json()).unwrap();
        assert_eq!(stats.events, 0);
    }
}
