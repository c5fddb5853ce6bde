//! The per-job audit journal: one JSONL record for every job frame the
//! daemon answers.
//!
//! Where the flight recorder answers "what was the daemon doing just
//! now?", the journal answers "what happened to job X?" — admission
//! decision, cost envelope, cache hit/miss, kernel, outcome, and
//! elapsed time, one line per job, in arrival-completion order per
//! connection thread. Records use schema `quva-serve-journal/v1` with
//! the fixed key order in [`JOURNAL_FIELDS`].
//!
//! The journal rotates by size: when appending a record would push the
//! active file past `max_bytes`, the file is renamed to `<path>.1`
//! (replacing any previous rotation) and a fresh file is started — at
//! most two files, bounded disk. [`Journal::bytes_written`] is
//! lifetime-monotonic across rotations; it backs the `journal_bytes`
//! stats field and the `quvad_journal_bytes_total` exposition line.
//! Writes are best-effort: an I/O failure loses the record, never the
//! daemon.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use quva_obs::json_escape;

/// Fixed key order of one journal record, kept in lockstep with the
/// DESIGN.md §17 table by the `doc_sync` test.
pub const JOURNAL_FIELDS: &[&str] = &[
    "schema",
    "id",
    "kind",
    "device",
    "policy",
    "benchmark",
    "admission",
    "cache_hit",
    "envelope_lo_ms",
    "envelope_hi_ms",
    "kernel",
    "outcome",
    "elapsed_us",
];

/// Schema marker on every journal record.
pub const JOURNAL_SCHEMA: &str = "quva-serve-journal/v1";

/// One job's journal record, rendered with fixed key order.
#[derive(Debug, Clone)]
pub struct JournalRecord {
    /// Echoed request id.
    pub id: String,
    /// Job kind wire name (`compile` / `simulate` / `audit`).
    pub kind: String,
    /// Device spec string as received.
    pub device: String,
    /// Policy spec string as received.
    pub policy: String,
    /// Benchmark spec string as received.
    pub benchmark: String,
    /// Admission decision: `cache`, `admitted`, `infeasible`,
    /// `overloaded`, `draining`, or `error` (spec rejected).
    pub admission: &'static str,
    /// Whether the result came from the cache.
    pub cache_hit: bool,
    /// Optimistic static cost bound, ms (0 when admission never got
    /// that far).
    pub envelope_lo_ms: u64,
    /// Pessimistic static cost bound, ms.
    pub envelope_hi_ms: u64,
    /// Monte-Carlo kernel the worker pool runs.
    pub kernel: String,
    /// Final response status for the job.
    pub outcome: String,
    /// Wall-clock from frame decode to response render, µs.
    pub elapsed_us: u64,
}

impl JournalRecord {
    /// Renders the record as one JSON line with [`JOURNAL_FIELDS`] key
    /// order.
    pub fn render(&self) -> String {
        format!(
            "{{\"schema\":\"{JOURNAL_SCHEMA}\",\"id\":\"{}\",\"kind\":\"{}\",\"device\":\"{}\",\
             \"policy\":\"{}\",\"benchmark\":\"{}\",\"admission\":\"{}\",\"cache_hit\":{},\
             \"envelope_lo_ms\":{},\"envelope_hi_ms\":{},\"kernel\":\"{}\",\"outcome\":\"{}\",\
             \"elapsed_us\":{}}}",
            json_escape(&self.id),
            json_escape(&self.kind),
            json_escape(&self.device),
            json_escape(&self.policy),
            json_escape(&self.benchmark),
            self.admission,
            self.cache_hit,
            self.envelope_lo_ms,
            self.envelope_hi_ms,
            json_escape(&self.kernel),
            json_escape(&self.outcome),
            self.elapsed_us
        )
    }
}

struct JournalState {
    file: Option<File>,
    bytes_in_file: u64,
}

/// A size-rotated JSONL journal file.
pub struct Journal {
    path: PathBuf,
    max_bytes: u64,
    state: Mutex<JournalState>,
    total: AtomicU64,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("path", &self.path)
            .field("max_bytes", &self.max_bytes)
            .field("bytes_written", &self.bytes_written())
            .finish()
    }
}

impl Journal {
    /// Creates a journal appending to `path`, rotating at `max_bytes`.
    ///
    /// # Errors
    ///
    /// Returns the underlying error if the parent directory cannot be
    /// created.
    pub fn new(path: PathBuf, max_bytes: u64) -> std::io::Result<Journal> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let bytes_in_file = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        Ok(Journal {
            path,
            max_bytes: max_bytes.max(1024),
            state: Mutex::new(JournalState {
                file: None,
                bytes_in_file,
            }),
            total: AtomicU64::new(0),
        })
    }

    /// The active journal path (`<path>.1` holds the rotated tail).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Lifetime bytes appended by this journal instance, monotonic
    /// across rotations.
    pub fn bytes_written(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Appends one record line. Best-effort: I/O errors are swallowed.
    pub fn append(&self, record: &JournalRecord) {
        let line = record.render();
        let cost = line.len() as u64 + 1;
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if state.bytes_in_file > 0 && state.bytes_in_file + cost > self.max_bytes {
            state.file = None;
            let _ = std::fs::rename(&self.path, self.path.with_extension("jsonl.1"));
            state.bytes_in_file = 0;
        }
        if state.file.is_none() {
            state.file = OpenOptions::new().create(true).append(true).open(&self.path).ok();
        }
        let Some(file) = state.file.as_mut() else {
            return;
        };
        if writeln!(file, "{line}").is_ok() {
            state.bytes_in_file += cost;
            self.total.fetch_add(cost, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("quva-journal-test-{tag}-{}.jsonl", std::process::id()))
    }

    fn record(id: &str) -> JournalRecord {
        JournalRecord {
            id: id.to_string(),
            kind: "simulate".into(),
            device: "q20".into(),
            policy: "vqm".into(),
            benchmark: "bv:8".into(),
            admission: "admitted",
            cache_hit: false,
            envelope_lo_ms: 1,
            envelope_hi_ms: 9,
            kernel: "bitparallel".into(),
            outcome: "ok".to_string(),
            elapsed_us: 1234,
        }
    }

    #[test]
    fn record_renders_fixed_order_and_reparses() {
        let line = record("j1").render();
        let doc = quva_obs::parse_json(&line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert_eq!(doc.get("schema").and_then(|v| v.as_str()), Some(JOURNAL_SCHEMA));
        assert_eq!(doc.get("cache_hit").and_then(|v| v.as_bool()), Some(false));
        assert_eq!(doc.get("elapsed_us").and_then(|v| v.as_f64()), Some(1234.0));
        let mut at = 0;
        for field in JOURNAL_FIELDS {
            let pos = line[at..]
                .find(&format!("\"{field}\":"))
                .unwrap_or_else(|| panic!("{field} missing or out of order in {line}"));
            at += pos;
        }
    }

    #[test]
    fn append_accumulates_and_survives_reopen() {
        let path = temp_path("append");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(path.with_extension("jsonl.1"));
        let journal = Journal::new(path.clone(), 1024 * 1024).unwrap();
        journal.append(&record("a"));
        journal.append(&record("b"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert_eq!(journal.bytes_written(), text.len() as u64);
        for line in text.lines() {
            assert!(quva_obs::parse_json(line).is_ok(), "{line}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rotation_caps_disk_but_bytes_written_is_monotonic() {
        let path = temp_path("rotate");
        let rotated = path.with_extension("jsonl.1");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&rotated);
        let journal = Journal::new(path.clone(), 1024).unwrap();
        for i in 0..64 {
            journal.append(&record(&format!("job-{i}")));
        }
        let active = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        let tail = std::fs::metadata(&rotated).map(|m| m.len()).unwrap_or(0);
        assert!(active <= 1024, "{active}");
        assert!(tail <= 1024, "{tail}");
        assert!(rotated.exists(), "rotation never happened");
        assert!(
            journal.bytes_written() > active + tail,
            "lifetime {} must exceed what rotation retained ({active} + {tail})",
            journal.bytes_written()
        );
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&rotated);
    }
}
