//! Prometheus-style text exposition for the daemon's `metrics` verb.
//!
//! The exposition is **byte-deterministic in structure**: family
//! order, label order, and the set of emitted lines are fixed — two
//! snapshots of the same daemon differ only in metric *values*, and
//! two identical seeded runs differ only on the timing lines
//! (latency quantiles, latency sums, and uptime). That property is
//! pinned by golden and determinism tests in `serve_telemetry`, and it
//! is what makes the output diffable and scrapable by line-oriented
//! tooling without a real Prometheus client.
//!
//! Latency quantiles are **exact** over a bounded window of recent
//! observations per verb (no bucket approximation): the recorder keeps
//! the last [`LATENCY_WINDOW`] samples and sorts a copy at render
//! time. Lifetime `_count` and `_sum` are kept separately, so `_count`
//! stays deterministic for a deterministic workload.

use std::sync::{Mutex, PoisonError};

use crate::metrics::Stats;

/// The verbs whose request latency is tracked, in the (sorted) order
/// their exposition lines render. Every verb always renders, zeros
/// included — the line set never depends on traffic.
pub const VERBS: &[&str] = &["audit", "compile", "metrics", "ping", "simulate", "stats"];

/// Recent-sample window per verb backing the exact quantiles.
pub const LATENCY_WINDOW: usize = 512;

/// The quantiles each verb exposes, with their label text.
const QUANTILES: &[(&str, f64)] = &[("0.5", 0.5), ("0.95", 0.95), ("0.99", 0.99)];

#[derive(Default)]
struct VerbWindow {
    /// Lifetime observation count (deterministic for a seeded run).
    count: u64,
    /// Lifetime sum of observed values, µs.
    sum_us: u64,
    /// The most recent observations, oldest first once saturated.
    window: Vec<u64>,
    /// Next overwrite position once the window is full.
    cursor: usize,
}

/// Per-verb request-latency recorder: lifetime count/sum plus a
/// bounded window of recent samples for exact quantile extraction.
pub struct LatencyRecorder {
    verbs: Vec<Mutex<VerbWindow>>,
}

impl std::fmt::Debug for LatencyRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyRecorder").field("verbs", &VERBS).finish()
    }
}

impl Default for LatencyRecorder {
    fn default() -> Self {
        LatencyRecorder {
            verbs: VERBS.iter().map(|_| Mutex::new(VerbWindow::default())).collect(),
        }
    }
}

impl LatencyRecorder {
    /// Records one request latency for `verb`. Unknown verbs (e.g.
    /// `shutdown`, which fires at most once) are ignored, keeping the
    /// exposed verb set fixed.
    pub fn record(&self, verb: &str, us: u64) {
        let Ok(idx) = VERBS.binary_search(&verb) else {
            return;
        };
        let mut w = self.verbs[idx].lock().unwrap_or_else(PoisonError::into_inner);
        w.count += 1;
        w.sum_us = w.sum_us.saturating_add(us);
        if w.window.len() < LATENCY_WINDOW {
            w.window.push(us);
        } else {
            let cursor = w.cursor;
            w.window[cursor] = us;
            w.cursor = (cursor + 1) % LATENCY_WINDOW;
        }
    }

    /// (count, sum_us, [p50, p95, p99]) for one verb index.
    fn stats(&self, idx: usize) -> (u64, u64, [u64; 3]) {
        let w = self.verbs[idx].lock().unwrap_or_else(PoisonError::into_inner);
        let mut sorted = w.window.clone();
        sorted.sort_unstable();
        let mut qs = [0u64; 3];
        if !sorted.is_empty() {
            for (slot, (_, p)) in qs.iter_mut().zip(QUANTILES) {
                // nearest-rank: the smallest sample ≥ the p-fraction
                let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
                *slot = sorted[rank - 1];
            }
        }
        (w.count, w.sum_us, qs)
    }
}

/// Everything one exposition snapshot needs, gathered by the server.
#[derive(Debug)]
pub struct ExpoInputs<'a> {
    /// The daemon's lifetime counters, read once for this snapshot.
    pub stats: Stats,
    /// Per-verb request latency.
    pub latency: &'a LatencyRecorder,
    /// Jobs currently queued (gauge).
    pub queue_depth: usize,
    /// Worker threads currently running their loop (gauge).
    pub workers_alive: u64,
    /// Anomaly dumps written, per trigger, in [`crate::dump::TRIGGERS`]
    /// order (all triggers always present).
    pub dumps: Vec<(&'static str, u64)>,
    /// Microseconds since the daemon started (the final line; always
    /// non-deterministic).
    pub uptime_us: u64,
}

/// Renders the full exposition. Line set and order are fixed; only
/// values vary between snapshots.
pub fn render_exposition(inputs: &ExpoInputs) -> String {
    let mut out = String::with_capacity(4096);
    for (key, value) in inputs.stats.counters() {
        out.push_str(&format!(
            "# TYPE quvad_{key}_total counter\nquvad_{key}_total {value}\n"
        ));
    }
    out.push_str(&format!(
        "# TYPE quvad_queue_depth gauge\nquvad_queue_depth {}\n",
        inputs.queue_depth
    ));
    out.push_str(&format!(
        "# TYPE quvad_workers_alive gauge\nquvad_workers_alive {}\n",
        inputs.workers_alive
    ));
    out.push_str(&format!(
        "# TYPE quvad_flight_dropped_total counter\nquvad_flight_dropped_total {}\n",
        inputs.stats.dropped_events
    ));
    out.push_str(&format!(
        "# TYPE quvad_journal_bytes_total counter\nquvad_journal_bytes_total {}\n",
        inputs.stats.journal_bytes
    ));
    out.push_str("# TYPE quvad_dumps_total counter\n");
    for (trigger, n) in &inputs.dumps {
        out.push_str(&format!("quvad_dumps_total{{trigger=\"{trigger}\"}} {n}\n"));
    }
    out.push_str("# TYPE quvad_latency_us summary\n");
    for (idx, verb) in VERBS.iter().enumerate() {
        let (count, sum_us, qs) = inputs.latency.stats(idx);
        for ((label, _), q) in QUANTILES.iter().zip(qs) {
            out.push_str(&format!(
                "quvad_latency_us{{verb=\"{verb}\",quantile=\"{label}\"}} {q}\n"
            ));
        }
        out.push_str(&format!("quvad_latency_us_sum{{verb=\"{verb}\"}} {sum_us}\n"));
        out.push_str(&format!("quvad_latency_us_count{{verb=\"{verb}\"}} {count}\n"));
    }
    out.push_str(&format!(
        "# TYPE quvad_uptime_us gauge\nquvad_uptime_us {}\n",
        inputs.uptime_us
    ));
    out
}

/// Whether an exposition line is one of the documented timing lines —
/// the only lines allowed to differ between two identical seeded runs
/// (latency quantiles, latency sums, uptime). `_count` lines are
/// deterministic and deliberately *not* matched.
pub fn is_timing_line(line: &str) -> bool {
    line.starts_with("quvad_uptime_us ")
        || line.starts_with("quvad_latency_us{")
        || line.starts_with("quvad_latency_us_sum{")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ServeMetrics;

    fn render_empty() -> String {
        let latency = LatencyRecorder::default();
        render_exposition(&ExpoInputs {
            stats: ServeMetrics::default().snapshot(0, 0),
            latency: &latency,
            queue_depth: 0,
            workers_alive: 2,
            dumps: crate::dump::TRIGGERS.iter().map(|t| (*t, 0)).collect(),
            uptime_us: 0,
        })
    }

    #[test]
    fn verbs_are_sorted_for_binary_search() {
        let mut sorted = VERBS.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, VERBS);
    }

    #[test]
    fn line_set_is_traffic_independent() {
        let empty = render_empty();
        // every verb renders 5 lines even with zero traffic
        for verb in VERBS {
            for q in ["0.5", "0.95", "0.99"] {
                assert!(
                    empty.contains(&format!(
                        "quvad_latency_us{{verb=\"{verb}\",quantile=\"{q}\"}} 0\n"
                    )),
                    "{verb}/{q} missing"
                );
            }
            assert!(empty.contains(&format!("quvad_latency_us_count{{verb=\"{verb}\"}} 0\n")));
        }
        for trigger in crate::dump::TRIGGERS {
            assert!(empty.contains(&format!("quvad_dumps_total{{trigger=\"{trigger}\"}} 0\n")));
        }
        assert!(empty.ends_with("quvad_uptime_us 0\n"));
    }

    #[test]
    fn exposition_syntax_is_well_formed() {
        let text = render_empty();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split(' ');
                let name = parts.next().unwrap_or("");
                let kind = parts.next().unwrap_or("");
                assert!(name.starts_with("quvad_"), "{line}");
                assert!(["counter", "gauge", "summary"].contains(&kind), "{line}");
            } else {
                let (metric, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("{line}"));
                assert!(metric.starts_with("quvad_"), "{line}");
                assert!(value.parse::<u64>().is_ok(), "{line}");
            }
        }
    }

    #[test]
    fn exact_quantiles_over_window() {
        let rec = LatencyRecorder::default();
        for us in 1..=100 {
            rec.record("ping", us);
        }
        let idx = VERBS.binary_search(&"ping").unwrap();
        let (count, sum, [p50, p95, p99]) = rec.stats(idx);
        assert_eq!(count, 100);
        assert_eq!(sum, 5050);
        assert_eq!((p50, p95, p99), (50, 95, 99));
    }

    #[test]
    fn window_is_bounded_but_lifetime_counts_are_not() {
        let rec = LatencyRecorder::default();
        for us in 0..(LATENCY_WINDOW as u64 * 3) {
            rec.record("stats", us);
        }
        let idx = VERBS.binary_search(&"stats").unwrap();
        let (count, _, [p50, _, p99]) = rec.stats(idx);
        assert_eq!(count, LATENCY_WINDOW as u64 * 3);
        // the window only retains the most recent samples
        assert!(p50 >= LATENCY_WINDOW as u64 * 2, "{p50}");
        assert!(p99 < LATENCY_WINDOW as u64 * 3, "{p99}");
    }

    #[test]
    fn unknown_verbs_are_ignored() {
        let rec = LatencyRecorder::default();
        rec.record("shutdown", 7);
        for idx in 0..VERBS.len() {
            assert_eq!(rec.stats(idx).0, 0);
        }
    }

    #[test]
    fn timing_line_filter_matches_exactly_the_nondeterministic_lines() {
        assert!(is_timing_line("quvad_uptime_us 123"));
        assert!(is_timing_line(
            "quvad_latency_us{verb=\"ping\",quantile=\"0.5\"} 4"
        ));
        assert!(is_timing_line("quvad_latency_us_sum{verb=\"ping\"} 4"));
        assert!(!is_timing_line("quvad_latency_us_count{verb=\"ping\"} 4"));
        assert!(!is_timing_line("quvad_requests_total 2"));
        assert!(!is_timing_line("# TYPE quvad_latency_us summary"));
    }
}
