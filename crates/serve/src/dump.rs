//! Anomaly-triggered flight-recorder dumps: every incident ships its
//! own trace.
//!
//! When the daemon hits an anomaly — a missed deadline, a worker
//! panic, a shed, a queue flood — it snapshots the always-on
//! `quva_obs::flight` ring into a JSONL file in a dedicated dump
//! directory. Tracing never had to be enabled up front: the ring was
//! already recording, so the dump carries the daemon's recent history
//! *leading into* the incident, including the id-tagged notes the
//! server records at job admission and pickup.
//!
//! Disk usage is bounded twice over: one dump file is truncated to the
//! newest events that fit `max_file_bytes`, and the directory is
//! rotated — oldest `dump-*.jsonl` files deleted — until the total is
//! within `max_total_bytes` (the newest dump is always kept). The
//! `dump-storm` chaos scenario drives a sustained anomaly stream
//! against exactly these caps.
//!
//! Dump file layout: one header object line (schema
//! `quva-flight-dump/v1`, fields [`DUMP_HEADER_FIELDS`]) followed by
//! one `quva_obs::flight` event object per line (fields
//! `quva_obs::flight::EVENT_FIELDS`). Writes are best-effort: an I/O
//! failure loses the dump, never the daemon.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use quva_obs::{flight, json_escape};

/// The anomaly triggers, sorted; `counts` and the
/// `quvad_dumps_total{trigger=…}` exposition lines follow this order.
pub const TRIGGERS: &[&str] = &["deadline_exceeded", "queue_flood", "shed_weakest", "worker_panic"];

/// Fixed key order of a dump file's header line, kept in lockstep with
/// the DESIGN.md §17 table by the `doc_sync` test.
pub const DUMP_HEADER_FIELDS: &[&str] = &[
    "schema",
    "trigger",
    "job_id",
    "seq",
    "dropped",
    "truncated",
    "events",
];

/// Schema marker on every dump header line.
pub const DUMP_SCHEMA: &str = "quva-flight-dump/v1";

/// A rotated, size-capped directory of anomaly dumps.
pub struct DumpSink {
    dir: PathBuf,
    max_file_bytes: u64,
    max_total_bytes: u64,
    seq: AtomicU64,
    counts: Vec<AtomicU64>,
    /// Serializes write + rotation so concurrent anomalies cannot
    /// race the directory scan.
    rotate: Mutex<()>,
}

impl std::fmt::Debug for DumpSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DumpSink")
            .field("dir", &self.dir)
            .field("max_file_bytes", &self.max_file_bytes)
            .field("max_total_bytes", &self.max_total_bytes)
            .finish()
    }
}

impl DumpSink {
    /// Creates the sink, creating `dir` if needed.
    ///
    /// # Errors
    ///
    /// Returns the underlying error if the directory cannot be
    /// created.
    pub fn new(dir: PathBuf, max_file_bytes: u64, max_total_bytes: u64) -> std::io::Result<DumpSink> {
        std::fs::create_dir_all(&dir)?;
        let max_total_bytes = max_total_bytes.max(1024);
        Ok(DumpSink {
            dir,
            // per-file cap clamped to the directory cap: the
            // newest-dump-always-survives rotation rule would otherwise
            // let a single oversized dump overrun the total budget
            max_file_bytes: max_file_bytes.max(1024).min(max_total_bytes),
            max_total_bytes,
            seq: AtomicU64::new(0),
            counts: TRIGGERS.iter().map(|_| AtomicU64::new(0)).collect(),
            rotate: Mutex::new(()),
        })
    }

    /// The dump directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Dumps written per trigger, in [`TRIGGERS`] order.
    pub fn counts(&self) -> Vec<(&'static str, u64)> {
        TRIGGERS
            .iter()
            .zip(&self.counts)
            .map(|(t, c)| (*t, c.load(Ordering::Relaxed)))
            .collect()
    }

    /// Snapshots the flight ring into a new dump file for `trigger`.
    /// The trigger itself is recorded into the ring first (as a note
    /// carrying `job_id`), so the dump provably contains the incident
    /// it was written for. Best-effort: I/O errors are swallowed.
    pub fn record(&self, trigger: &'static str, job_id: &str) {
        flight::note("serve", &format!("anomaly {trigger} job={job_id}"));
        let snap = flight::snapshot();
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        if let Ok(idx) = TRIGGERS.binary_search(&trigger) {
            self.counts[idx].fetch_add(1, Ordering::Relaxed);
        }

        // newest events that fit the per-file cap, oldest first
        let mut lines: Vec<String> = Vec::with_capacity(snap.events.len());
        let mut body_bytes = 0u64;
        for event in snap.events.iter().rev() {
            let line = event.render_json();
            let cost = line.len() as u64 + 1;
            if body_bytes + cost > self.max_file_bytes.saturating_sub(512) {
                break; // 512 bytes reserved for the header line
            }
            body_bytes += cost;
            lines.push(line);
        }
        lines.reverse();
        let truncated = snap.events.len() - lines.len();

        let header = format!(
            "{{\"schema\":\"{DUMP_SCHEMA}\",\"trigger\":\"{trigger}\",\"job_id\":\"{}\",\"seq\":{seq},\
             \"dropped\":{},\"truncated\":{truncated},\"events\":{}}}",
            json_escape(job_id),
            snap.dropped,
            lines.len()
        );
        let mut contents = String::with_capacity(header.len() + body_bytes as usize + 1);
        contents.push_str(&header);
        contents.push('\n');
        for line in &lines {
            contents.push_str(line);
            contents.push('\n');
        }

        let path = self.dir.join(format!("dump-{seq:06}-{trigger}.jsonl"));
        let _guard = self.rotate.lock().unwrap_or_else(PoisonError::into_inner);
        if std::fs::write(&path, contents).is_err() {
            return;
        }
        self.enforce_total_cap();
    }

    /// Deletes oldest dump files until the directory total fits the
    /// cap; the newest dump always survives.
    fn enforce_total_cap(&self) {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return;
        };
        // dump-NNNNNN names sort oldest-first lexicographically
        let mut files: Vec<(String, PathBuf, u64)> = entries
            .flatten()
            .filter_map(|e| {
                let name = e.file_name().to_string_lossy().into_owned();
                if !(name.starts_with("dump-") && name.ends_with(".jsonl")) {
                    return None;
                }
                let len = e.metadata().ok()?.len();
                Some((name, e.path(), len))
            })
            .collect();
        files.sort();
        let mut total: u64 = files.iter().map(|(_, _, len)| len).sum();
        let mut idx = 0;
        // idx + 1 < len: the newest dump is never deleted
        while total > self.max_total_bytes && idx + 1 < files.len() {
            let (_, path, len) = &files[idx];
            if std::fs::remove_file(path).is_ok() {
                total -= len;
            }
            idx += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// The flight ring is process-global; dump tests serialize.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: StdMutex<()> = StdMutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("quva-dump-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn dump_files(dir: &Path) -> Vec<PathBuf> {
        let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
            .map(|entries| entries.flatten().map(|e| e.path()).collect())
            .unwrap_or_default();
        files.sort();
        files
    }

    #[test]
    fn triggers_are_sorted_for_binary_search() {
        let mut sorted = TRIGGERS.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, TRIGGERS);
    }

    #[test]
    fn dump_contains_header_and_ring_events() {
        let _g = guard();
        let dir = temp_dir("basic");
        let sink = DumpSink::new(dir.clone(), 64 * 1024, 1024 * 1024).unwrap();
        flight::arm(64);
        flight::note("serve", "job j1 admitted");
        sink.record("deadline_exceeded", "j1");
        flight::disarm();

        let files = dump_files(&dir);
        assert_eq!(files.len(), 1);
        let text = std::fs::read_to_string(&files[0]).unwrap();
        let mut lines = text.lines();
        let header = quva_obs::parse_json(lines.next().unwrap()).unwrap();
        assert_eq!(header.get("schema").and_then(|v| v.as_str()), Some(DUMP_SCHEMA));
        assert_eq!(
            header.get("trigger").and_then(|v| v.as_str()),
            Some("deadline_exceeded")
        );
        assert_eq!(header.get("job_id").and_then(|v| v.as_str()), Some("j1"));
        assert_eq!(header.get("events").and_then(|v| v.as_f64()), Some(2.0));
        // body: the admission note plus the anomaly note, each parseable
        let body: Vec<&str> = lines.collect();
        assert_eq!(body.len(), 2);
        for line in &body {
            assert!(quva_obs::parse_json(line).is_ok(), "{line}");
        }
        assert!(body[0].contains("job j1 admitted"));
        assert!(body[1].contains("anomaly deadline_exceeded job=j1"));
        assert_eq!(sink.counts()[0], ("deadline_exceeded", 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_cap_keeps_newest_events() {
        let _g = guard();
        let dir = temp_dir("filecap");
        let sink = DumpSink::new(dir.clone(), 1024, 1024 * 1024).unwrap();
        flight::arm(256);
        for i in 0..200 {
            flight::note("serve", &format!("filler event number {i}"));
        }
        sink.record("worker_panic", "jp");
        flight::disarm();
        let files = dump_files(&dir);
        let text = std::fs::read_to_string(&files[0]).unwrap();
        assert!(text.len() as u64 <= 1024 + 512, "{}", text.len());
        let header = quva_obs::parse_json(text.lines().next().unwrap()).unwrap();
        assert!(header.get("truncated").and_then(|v| v.as_f64()).unwrap() > 0.0);
        // the newest event (the anomaly note itself) survived truncation
        assert!(text.contains("anomaly worker_panic"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn total_cap_rotates_oldest_dumps_out() {
        let _g = guard();
        let dir = temp_dir("totalcap");
        let sink = DumpSink::new(dir.clone(), 64 * 1024, 2048).unwrap();
        flight::arm(64);
        for i in 0..30 {
            flight::note("serve", &format!("padding so each dump has some heft {i}"));
            sink.record("queue_flood", &format!("j{i}"));
        }
        flight::disarm();
        let files = dump_files(&dir);
        assert!(!files.is_empty());
        let total: u64 = files
            .iter()
            .map(|p| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0))
            .sum();
        assert!(total <= 2048, "directory grew past the cap: {total}");
        // the newest dump (seq 29) survived rotation
        assert!(
            files.iter().any(|p| p.to_string_lossy().contains("dump-000029")),
            "{files:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
