//! Daemon-lifetime counters, readable over the wire via a `stats`
//! request and the `metrics` exposition.
//!
//! Each counter is declared once, as a row of [`COUNTERS`]: its `stats`
//! key and, if it has one, its trace twin — the `quva-obs` counter
//! [`ServeMetrics::bump`] adds to alongside the atomic, so the two
//! always agree. The atomics are always on: unlike `quva-obs`, the
//! stats endpoint must answer even in production runs with tracing
//! disabled. Key order in the rendered JSON is fixed, so stats lines
//! diff cleanly.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// Declares [`Counter`] and [`COUNTERS`] from one list, so a variant
/// and its table row cannot drift apart.
macro_rules! counter_table {
    ($($(#[$doc:meta])+ $name:ident => $key:literal, $twin:expr;)+) => {
        /// A counter the daemon bumps; its discriminant indexes
        /// [`COUNTERS`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Counter {
            $($(#[$doc])+ $name,)+
        }

        /// The counter table, in `stats` and exposition order: each
        /// row's `stats` key (its exposition line is
        /// `quvad_<key>_total`) and its trace twin, if any.
        pub const COUNTERS: &[(&str, Option<&str>)] = &[$(($key, $twin),)+];
    };
}

counter_table! {
    /// UTF-8 frames handed to the protocol parser, well-formed or not.
    Requests => "requests", Some("serve.requests");
    /// Responses with status `ok`.
    Ok => "ok", None;
    /// Responses with status `error` (malformed frames included).
    Errors => "errors", None;
    /// Responses with status `overloaded`: a full queue's refusal and a
    /// shed job's own reply.
    Overloaded => "overloaded", Some("serve.retry_after");
    /// Responses with status `deadline_exceeded`.
    DeadlineExceeded => "deadline_exceeded", Some("serve.deadline_exceeded");
    /// Responses with status `shutting_down`.
    ShuttingDown => "shutting_down", None;
    /// Job results served straight from the cache.
    CacheHits => "cache_hits", Some("serve.cache.hit");
    /// Jobs queued for a worker (cache misses).
    CacheMisses => "cache_misses", None;
    /// Queued jobs evicted by higher-priority arrivals.
    Shed => "shed", Some("serve.shed");
    /// Worker panics caught, by the per-job guard or the supervisor
    /// backstop.
    WorkerPanics => "worker_panics", Some("serve.worker.panic");
    /// Worker loops re-armed after a caught panic.
    WorkerRespawns => "worker_respawns", Some("serve.worker.respawn");
    /// Connections accepted.
    Connections => "connections", Some("serve.connections");
    /// Connections refused at the accept gate (too many open).
    ConnectionsRejected => "connections_rejected", None;
    /// Frames that are not UTF-8, exceed the byte limit, or fail
    /// protocol parsing.
    MalformedFrames => "malformed_frames", Some("serve.malformed");
    /// Jobs rejected at admission because even the optimistic static
    /// cost bound exceeded their deadline (status `infeasible`). These
    /// never reach a worker.
    JobsInfeasible => "jobs_infeasible", Some("serve.infeasible");
}

/// Lifetime counters for one server instance, one atomic per
/// [`COUNTERS`] row.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    counts: [AtomicU64; COUNTERS.len()],
}

impl ServeMetrics {
    /// Adds one to `counter` and to its trace twin (the twin only while
    /// the `quva-obs` recorder is enabled).
    pub fn bump(&self, counter: Counter) {
        let row = counter as usize;
        self.counts[row].fetch_add(1, Ordering::Relaxed);
        if let Some(twin) = COUNTERS[row].1 {
            quva_obs::counter(twin, 1);
        }
    }

    /// Reads every counter. The last two `stats` fields are not
    /// counted here but read from their sources by the caller:
    /// flight-ring evictions and audit-journal bytes.
    pub fn snapshot(&self, dropped_events: u64, journal_bytes: u64) -> Stats {
        Stats {
            counts: std::array::from_fn(|row| self.counts[row].load(Ordering::Relaxed)),
            dropped_events,
            journal_bytes,
        }
    }
}

/// One reading of every `stats` field, taken once per render.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stats {
    /// Counter values in [`COUNTERS`] order.
    pub counts: [u64; COUNTERS.len()],
    /// Flight-recorder ring evictions since arm
    /// (`quva_obs::flight::dropped`).
    pub dropped_events: u64,
    /// Lifetime bytes appended to the audit journal (0 when no journal
    /// is configured).
    pub journal_bytes: u64,
}

impl Stats {
    /// `(stats key, value)` for every table row, in order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        COUNTERS.iter().map(|row| row.0).zip(self.counts.iter().copied())
    }

    /// Renders the one-line `stats` JSON object with fixed key order:
    /// the table's keys, then `dropped_events` and `journal_bytes`.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        for (key, value) in self.counters() {
            let _ = write!(out, "\"{key}\":{value},");
        }
        let _ = write!(
            out,
            "\"dropped_events\":{},\"journal_bytes\":{}}}",
            self.dropped_events, self.journal_bytes
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_fixed_order_and_reparses() {
        let m = ServeMetrics::default();
        m.bump(Counter::Requests);
        m.bump(Counter::Requests);
        m.bump(Counter::CacheHits);
        let json = m.snapshot(0, 0).render_json();
        assert!(json.starts_with("{\"requests\":2,"), "{json}");
        let doc = quva_obs::parse_json(&json).unwrap();
        assert_eq!(doc.get("cache_hits").and_then(|v| v.as_f64()), Some(1.0));
        assert_eq!(doc.get("worker_panics").and_then(|v| v.as_f64()), Some(0.0));
    }

    #[test]
    fn telemetry_fields_append_after_original_keys() {
        // the byte-determinism contract: existing consumers parse by
        // position up to jobs_infeasible; new fields only ever append
        let m = ServeMetrics::default();
        let json = m.snapshot(7, 512).render_json();
        assert!(
            json.ends_with(",\"jobs_infeasible\":0,\"dropped_events\":7,\"journal_bytes\":512}"),
            "{json}"
        );
        let doc = quva_obs::parse_json(&json).unwrap();
        assert_eq!(doc.get("dropped_events").and_then(|v| v.as_f64()), Some(7.0));
        assert_eq!(doc.get("journal_bytes").and_then(|v| v.as_f64()), Some(512.0));
    }
}
