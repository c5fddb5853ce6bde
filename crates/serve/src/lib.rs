//! # quva-serve — compilation-as-a-service for the quva pipeline
//!
//! The paper's central operational claim is that variability-aware
//! policies must recompile against *each day's* calibration data
//! (§5–§6): mapping is not a one-shot build step but a recurring
//! service that runs every calibration cycle, for every queued
//! program. This crate is that service: `quvad`, a long-running
//! daemon that accepts compile / simulate / audit jobs over a
//! line-delimited JSON protocol on a TCP or Unix socket.
//!
//! Robustness is the design center, not an afterthought:
//!
//! * **Admission control** — a bounded priority queue fed by static
//!   cost envelopes (`quva-analysis`): a job whose *optimistic* cost
//!   bound already exceeds its deadline is answered `infeasible`
//!   before queueing, spending no worker time; a full queue answers
//!   `overloaded` with a `retry_after_ms` hint derived from the
//!   predicted drain time of the queued work, or sheds the outranked
//!   queued job with the worst predicted-cost-per-priority ratio.
//! * **Deadlines** — every job has one (its own `deadline_ms` or the
//!   server default); a missed deadline is a typed response, and the
//!   worker's eventual result still lands in the cache.
//! * **Panic isolation** — workers run jobs inside `catch_unwind`; a
//!   panicking job becomes a structured `error` response and a
//!   re-armed worker, never a dead daemon.
//! * **Graceful drain** — shutdown stops intake, finishes or
//!   deadline-expires in-flight jobs, and flushes every thread's
//!   `quva-obs` buffers before exit.
//! * **Determinism** — results are pure functions of the job spec, so
//!   the sharded cache (keyed by `Device::fingerprint` ×
//!   `Circuit::fingerprint`) replays byte-identical response lines.
//! * **Observability** — an always-on flight recorder mirrors spans
//!   and warnings into a bounded in-memory ring; anomalies (deadline
//!   misses, worker panics, shed and queue-flood events) snapshot it
//!   into size-capped rotated JSONL dumps; a `metrics` verb serves a
//!   Prometheus-style text exposition with exact per-verb latency
//!   quantiles; a per-job JSONL audit journal records every admission
//!   decision; and `"progress":true` simulate jobs stream
//!   chunk-boundary progress frames ahead of the final response.
//!
//! ```no_run
//! use quva_serve::{Listen, Server, ServerConfig};
//! use std::io::{BufRead, BufReader, Write};
//!
//! # fn main() -> std::io::Result<()> {
//! let handle = Server::spawn(ServerConfig {
//!     listen: Listen::Tcp("127.0.0.1:0".into()),
//!     ..ServerConfig::default()
//! })?;
//! let addr = handle.local_addr().ok_or(std::io::ErrorKind::AddrNotAvailable)?;
//! let mut conn = std::net::TcpStream::connect(addr)?;
//! writeln!(
//!     conn,
//!     r#"{{"id":"r1","kind":"audit","device":"q20","policy":"vqm","benchmark":"bv:8"}}"#
//! )?;
//! let mut line = String::new();
//! BufReader::new(conn).read_line(&mut line)?;
//! assert!(line.contains("\"status\":\"ok\""));
//! handle.shutdown();
//! handle.join();
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod backoff;
pub mod cache;
pub mod dump;
pub mod exec;
pub mod expo;
pub mod journal;
pub mod metrics;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod spec;

pub use backoff::Backoff;
pub use cache::{CacheKey, ResultCache};
pub use dump::{DumpSink, DUMP_HEADER_FIELDS, DUMP_SCHEMA, TRIGGERS};
pub use expo::{is_timing_line, render_exposition, ExpoInputs, LatencyRecorder};
pub use journal::{Journal, JournalRecord, JOURNAL_FIELDS, JOURNAL_SCHEMA};
pub use metrics::{Counter, ServeMetrics, Stats, COUNTERS};
pub use protocol::{
    parse_request, progress_frame, JobKind, JobSpec, ProtocolError, Request, RequestKind, Response,
    MAX_FRAME_BYTES,
};
pub use queue::{BoundedQueue, Pop, Push};
pub use server::{Listen, Server, ServerConfig, ServerHandle};
pub use spec::{parse_benchmark, parse_device, parse_policy, SpecError};
