//! The `quvad` wire protocol: line-delimited JSON over a stream socket.
//!
//! Every request is one line of JSON; every response is exactly one
//! line of JSON, always sent — a client never waits forever for a
//! well-formed frame it managed to deliver. Responses are rendered
//! with fixed key order so identical jobs yield byte-identical lines
//! (the cache stores the rendered `result` fragment verbatim).
//!
//! Request frame:
//!
//! ```json
//! {"id": "r1", "kind": "simulate", "device": "q20", "policy": "vqm",
//!  "benchmark": "bv:8", "trials": 20000, "seed": 7,
//!  "priority": 5, "deadline_ms": 2000}
//! ```
//!
//! `kind` is one of `ping`, `stats`, `metrics`, `compile`,
//! `simulate`, `audit`, or `shutdown`. Job kinds
//! (`compile`/`simulate`/`audit`) require `device`, `policy`, and
//! `benchmark`; `trials` and `seed` only apply to `simulate`.
//! `priority` (0 = first shed … 9 = last shed, default 5),
//! `deadline_ms`, and `progress` (request interleaved progress
//! frames; only `simulate` emits them) are optional on every job.
//!
//! Response statuses: `ok`, `error`, `overloaded` (with
//! `retry_after_ms`), `infeasible` (with `predicted_ms` and
//! `deadline_ms`), `deadline_exceeded`, `shutting_down`.
//!
//! A job sent with `"progress":true` may receive interleaved
//! **progress frames** before its response: `{"id":…,"event":
//! "progress","done":…,"total":…}` ([`progress_frame`]). Progress
//! frames carry `event`, never `status`, so a client matching on
//! `status` skips them safely; the id keys them to their job.

use quva_obs::{json_escape, parse_json};

/// Upper bound on an accepted request line. Longer frames are rejected
/// before parsing — a malformed or hostile client cannot balloon
/// server memory with one giant line.
pub const MAX_FRAME_BYTES: usize = 64 * 1024;

/// Default job priority when the frame omits one.
pub const DEFAULT_PRIORITY: u8 = 5;

/// What a job asks the pipeline to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobKind {
    /// Map + route only; respond with circuit shape and analytic PST.
    Compile,
    /// Compile, then Monte-Carlo PST estimation.
    Simulate,
    /// Compile, then the static reliability audit.
    Audit,
}

impl JobKind {
    /// Wire name of the kind.
    pub fn name(self) -> &'static str {
        match self {
            JobKind::Compile => "compile",
            JobKind::Simulate => "simulate",
            JobKind::Audit => "audit",
        }
    }
}

/// A fully parsed job request (the work-carrying frames).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct JobSpec {
    /// What to run.
    pub kind: JobKind,
    /// Device spec string (`q20`, `grid:4x5@7`, ...).
    pub device: String,
    /// Policy spec string (`vqm`, `vqa-vqm`, ...).
    pub policy: String,
    /// Benchmark spec string (`bv:8`, `qft:12`, ...).
    pub benchmark: String,
    /// Monte-Carlo trial count (simulate only; 0 otherwise).
    pub trials: u64,
    /// Monte-Carlo seed (simulate only; 0 otherwise).
    pub seed: u64,
    /// Shed priority: 0 is shed first, 9 last.
    pub priority: u8,
    /// Per-request deadline override in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Whether the client asked for interleaved progress frames
    /// (meaningful for `simulate`; other kinds finish in one step).
    pub progress: bool,
}

/// Every frame the daemon understands.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestKind {
    /// Liveness probe; answered inline, never queued.
    Ping,
    /// Metrics snapshot; answered inline, never queued.
    Stats,
    /// Prometheus-style text exposition (wrapped in a one-line JSON
    /// envelope); answered inline, never queued.
    Metrics,
    /// Begin graceful drain and shut the daemon down.
    Shutdown,
    /// Deliberate worker panic — only honored when the server was
    /// started with chaos mode enabled; otherwise an error response.
    Panic,
    /// A queued pipeline job.
    Job(JobSpec),
}

/// One parsed request frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed on the response line.
    pub id: String,
    /// The decoded action.
    pub kind: RequestKind,
}

/// A request frame that could not be decoded. Carries the correlation
/// id when one was recoverable so the error response still correlates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// Echoed id, or empty when the frame was too broken to recover it.
    pub id: String,
    /// Human-readable reason.
    pub message: String,
}

impl ProtocolError {
    fn new(id: impl Into<String>, message: impl Into<String>) -> Self {
        ProtocolError {
            id: id.into(),
            message: message.into(),
        }
    }
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a [`ProtocolError`] on oversized frames, malformed JSON,
/// unknown kinds, or missing/ill-typed fields. Never panics: the input
/// is untrusted network data.
pub fn parse_request(line: &str) -> Result<Request, ProtocolError> {
    if line.len() > MAX_FRAME_BYTES {
        return Err(ProtocolError::new(
            "",
            format!("frame of {} bytes exceeds limit {MAX_FRAME_BYTES}", line.len()),
        ));
    }
    let doc = parse_json(line).map_err(|e| ProtocolError::new("", format!("malformed JSON: {e}")))?;
    let id = doc.get("id").and_then(|v| v.as_str()).unwrap_or("").to_string();
    if id.len() > 256 {
        return Err(ProtocolError::new("", "id longer than 256 bytes"));
    }
    let kind = doc
        .get("kind")
        .and_then(|v| v.as_str())
        .ok_or_else(|| ProtocolError::new(id.clone(), "missing \"kind\""))?;

    let job_kind = match kind {
        "ping" => {
            return Ok(Request {
                id,
                kind: RequestKind::Ping,
            })
        }
        "stats" => {
            return Ok(Request {
                id,
                kind: RequestKind::Stats,
            })
        }
        "metrics" => {
            return Ok(Request {
                id,
                kind: RequestKind::Metrics,
            })
        }
        "shutdown" => {
            return Ok(Request {
                id,
                kind: RequestKind::Shutdown,
            })
        }
        "panic" => {
            return Ok(Request {
                id,
                kind: RequestKind::Panic,
            })
        }
        "compile" => JobKind::Compile,
        "simulate" => JobKind::Simulate,
        "audit" => JobKind::Audit,
        other => return Err(ProtocolError::new(id, format!("unknown kind '{other}'"))),
    };

    let field = |name: &str| -> Result<String, ProtocolError> {
        doc.get(name)
            .and_then(|v| v.as_str())
            .map(str::to_string)
            .ok_or_else(|| ProtocolError::new(id.clone(), format!("job needs string field \"{name}\"")))
    };
    let device = field("device")?;
    let policy = field("policy")?;
    let benchmark = field("benchmark")?;

    let num = |name: &str, default: u64| -> Result<u64, ProtocolError> {
        match doc.get(name) {
            None => Ok(default),
            Some(v) => {
                let n = v
                    .as_f64()
                    .ok_or_else(|| ProtocolError::new(id.clone(), format!("\"{name}\" must be a number")))?;
                if !n.is_finite() || !(0.0..=1e15).contains(&n) || n.fract() != 0.0 {
                    return Err(ProtocolError::new(
                        id.clone(),
                        format!("\"{name}\" must be a non-negative integer"),
                    ));
                }
                Ok(n as u64)
            }
        }
    };

    let (trials, seed) = if job_kind == JobKind::Simulate {
        let trials = num("trials", 10_000)?;
        if trials == 0 || trials > 100_000_000 {
            return Err(ProtocolError::new(id, "\"trials\" must be in 1..=100000000"));
        }
        (trials, num("seed", 1)?)
    } else {
        (0, 0)
    };
    let priority = num("priority", u64::from(DEFAULT_PRIORITY))?;
    if priority > 9 {
        return Err(ProtocolError::new(id, "\"priority\" must be in 0..=9"));
    }
    let deadline_ms = match doc.get("deadline_ms") {
        None => None,
        Some(_) => {
            let d = num("deadline_ms", 0)?;
            if d == 0 {
                return Err(ProtocolError::new(id, "\"deadline_ms\" must be positive"));
            }
            Some(d)
        }
    };
    let progress = match doc.get("progress") {
        None => false,
        Some(v) => v
            .as_bool()
            .ok_or_else(|| ProtocolError::new(id.clone(), "\"progress\" must be a boolean"))?,
    };

    Ok(Request {
        id,
        kind: RequestKind::Job(JobSpec {
            kind: job_kind,
            device,
            policy,
            benchmark,
            trials,
            seed,
            priority: priority as u8,
            deadline_ms,
            progress,
        }),
    })
}

/// Renders one interleaved progress frame (no trailing newline). Key
/// order is fixed; carries `event`, never `status`.
pub fn progress_frame(id: &str, done: u64, total: u64) -> String {
    format!(
        "{{\"id\":\"{}\",\"event\":\"progress\",\"done\":{done},\"total\":{total}}}",
        json_escape(id)
    )
}

/// One response line (without the trailing newline).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Job finished; `result` is a pre-rendered JSON object fragment.
    Ok {
        /// Echoed request id.
        id: String,
        /// Rendered result object (exactly what the cache stores).
        result: String,
    },
    /// Request failed with a typed reason.
    Error {
        /// Echoed request id (may be empty for unparseable frames).
        id: String,
        /// Human-readable reason.
        message: String,
    },
    /// Admission control rejected the job; retry after the hint.
    Overloaded {
        /// Echoed request id.
        id: String,
        /// Client should wait at least this long before retrying.
        retry_after_ms: u64,
    },
    /// Admission control proved the job cannot meet its deadline: even
    /// the *optimistic* static cost bound exceeds it. Returned before
    /// the job is queued — no worker time is spent on it.
    Infeasible {
        /// Echoed request id.
        id: String,
        /// Optimistic end-to-end prediction, in milliseconds.
        predicted_ms: u64,
        /// The deadline the job asked for, in milliseconds.
        deadline_ms: u64,
    },
    /// The job missed its deadline (queue wait + execution).
    DeadlineExceeded {
        /// Echoed request id.
        id: String,
        /// The deadline that was missed, in milliseconds.
        deadline_ms: u64,
    },
    /// The daemon is draining and accepts no new jobs.
    ShuttingDown {
        /// Echoed request id.
        id: String,
    },
}

impl Response {
    /// Renders the response as one JSON line (no trailing newline).
    /// Key order is fixed; identical inputs produce identical bytes.
    pub fn render(&self) -> String {
        match self {
            Response::Ok { id, result } => {
                format!(
                    "{{\"id\":\"{}\",\"status\":\"ok\",\"result\":{}}}",
                    json_escape(id),
                    result
                )
            }
            Response::Error { id, message } => format!(
                "{{\"id\":\"{}\",\"status\":\"error\",\"error\":\"{}\"}}",
                json_escape(id),
                json_escape(message)
            ),
            Response::Overloaded { id, retry_after_ms } => format!(
                "{{\"id\":\"{}\",\"status\":\"overloaded\",\"retry_after_ms\":{}}}",
                json_escape(id),
                retry_after_ms
            ),
            Response::Infeasible {
                id,
                predicted_ms,
                deadline_ms,
            } => format!(
                "{{\"id\":\"{}\",\"status\":\"infeasible\",\"predicted_ms\":{},\"deadline_ms\":{}}}",
                json_escape(id),
                predicted_ms,
                deadline_ms
            ),
            Response::DeadlineExceeded { id, deadline_ms } => format!(
                "{{\"id\":\"{}\",\"status\":\"deadline_exceeded\",\"deadline_ms\":{}}}",
                json_escape(id),
                deadline_ms
            ),
            Response::ShuttingDown { id } => {
                format!("{{\"id\":\"{}\",\"status\":\"shutting_down\"}}", json_escape(id))
            }
        }
    }

    /// The `status` field this response renders with.
    pub fn status(&self) -> &'static str {
        match self {
            Response::Ok { .. } => "ok",
            Response::Error { .. } => "error",
            Response::Overloaded { .. } => "overloaded",
            Response::Infeasible { .. } => "infeasible",
            Response::DeadlineExceeded { .. } => "deadline_exceeded",
            Response::ShuttingDown { .. } => "shutting_down",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_job() {
        let r =
            parse_request(r#"{"id":"a","kind":"compile","device":"q20","policy":"vqm","benchmark":"bv:8"}"#)
                .unwrap();
        assert_eq!(r.id, "a");
        match r.kind {
            RequestKind::Job(job) => {
                assert_eq!(job.kind, JobKind::Compile);
                assert_eq!(job.priority, DEFAULT_PRIORITY);
                assert_eq!(job.deadline_ms, None);
                assert_eq!((job.trials, job.seed), (0, 0));
            }
            other => panic!("expected job, got {other:?}"),
        }
    }

    #[test]
    fn parses_simulate_with_knobs() {
        let line = r#"{"id":"s","kind":"simulate","device":"q5","policy":"baseline","benchmark":"ghz:3","trials":5000,"seed":42,"priority":9,"deadline_ms":1500}"#;
        let r = parse_request(line).unwrap();
        match r.kind {
            RequestKind::Job(job) => {
                assert_eq!(job.trials, 5000);
                assert_eq!(job.seed, 42);
                assert_eq!(job.priority, 9);
                assert_eq!(job.deadline_ms, Some(1500));
                assert!(!job.progress, "progress defaults to off");
            }
            other => panic!("expected job, got {other:?}"),
        }
    }

    #[test]
    fn progress_field_parses_and_type_checks() {
        let line = r#"{"id":"p","kind":"simulate","device":"q5","policy":"vqm","benchmark":"ghz:3","progress":true}"#;
        match parse_request(line).unwrap().kind {
            RequestKind::Job(job) => assert!(job.progress),
            other => panic!("expected job, got {other:?}"),
        }
        assert!(parse_request(
            r#"{"id":"p","kind":"simulate","device":"q5","policy":"vqm","benchmark":"ghz:3","progress":1}"#
        )
        .is_err());
    }

    #[test]
    fn progress_frames_render_fixed_order_and_reparse() {
        let frame = progress_frame("p\"q", 163840, 1000000);
        assert_eq!(
            frame,
            r#"{"id":"p\"q","event":"progress","done":163840,"total":1000000}"#
        );
        let doc = parse_json(&frame).unwrap();
        assert_eq!(doc.get("event").and_then(|v| v.as_str()), Some("progress"));
        assert!(doc.get("status").is_none(), "progress frames never carry status");
    }

    #[test]
    fn escaped_non_bmp_ids_echo_back_unchanged() {
        // Python's json.dumps writes "🎉" as a UTF-16 surrogate pair
        let r = parse_request(r#"{"id":"\ud83c\udf89","kind":"ping"}"#).unwrap();
        assert_eq!(r.id, "\u{1f389}");
        let echoed = parse_json(&progress_frame(&r.id, 1, 2)).unwrap();
        assert_eq!(echoed.get("id").and_then(|v| v.as_str()), Some("\u{1f389}"));
    }

    #[test]
    fn control_frames_parse() {
        for (kind, want) in [
            ("ping", RequestKind::Ping),
            ("stats", RequestKind::Stats),
            ("metrics", RequestKind::Metrics),
            ("shutdown", RequestKind::Shutdown),
            ("panic", RequestKind::Panic),
        ] {
            let r = parse_request(&format!(r#"{{"id":"c","kind":"{kind}"}}"#)).unwrap();
            assert_eq!(r.kind, want, "kind {kind}");
        }
    }

    #[test]
    fn malformed_frames_are_typed_errors() {
        assert!(parse_request("").is_err());
        assert!(parse_request("not json").is_err());
        assert!(parse_request("{}").is_err());
        assert!(parse_request(r#"{"id":"x","kind":"teleport"}"#).is_err());
        assert!(parse_request(r#"{"id":"x","kind":"compile"}"#).is_err());
        assert!(parse_request(
            r#"{"id":"x","kind":"simulate","device":"q20","policy":"vqm","benchmark":"bv:8","trials":0}"#
        )
        .is_err());
        assert!(parse_request(
            r#"{"id":"x","kind":"compile","device":"q20","policy":"vqm","benchmark":"bv:8","priority":12}"#
        )
        .is_err());
        let big = format!(r#"{{"id":"{}","kind":"ping"}}"#, "x".repeat(MAX_FRAME_BYTES));
        assert!(parse_request(&big).is_err());
    }

    #[test]
    fn error_keeps_recovered_id() {
        let e = parse_request(r#"{"id":"keepme","kind":"compile"}"#).unwrap_err();
        assert_eq!(e.id, "keepme");
    }

    #[test]
    fn responses_render_fixed_byte_order() {
        let ok = Response::Ok {
            id: "a".into(),
            result: "{\"pst\":0.5}".into(),
        };
        assert_eq!(ok.render(), r#"{"id":"a","status":"ok","result":{"pst":0.5}}"#);
        let over = Response::Overloaded {
            id: "b".into(),
            retry_after_ms: 40,
        };
        assert_eq!(
            over.render(),
            r#"{"id":"b","status":"overloaded","retry_after_ms":40}"#
        );
        let err = Response::Error {
            id: "c\"d".into(),
            message: "line1\nline2".into(),
        };
        assert_eq!(
            err.render(),
            r#"{"id":"c\"d","status":"error","error":"line1\nline2"}"#
        );
        let infeasible = Response::Infeasible {
            id: "f".into(),
            predicted_ms: 9000,
            deadline_ms: 100,
        };
        assert_eq!(
            infeasible.render(),
            r#"{"id":"f","status":"infeasible","predicted_ms":9000,"deadline_ms":100}"#
        );
        // every rendered response reparses as JSON
        for r in [
            ok,
            over,
            err,
            infeasible,
            Response::DeadlineExceeded {
                id: "d".into(),
                deadline_ms: 10,
            },
            Response::ShuttingDown { id: "e".into() },
        ] {
            assert!(parse_json(&r.render()).is_ok(), "{}", r.render());
        }
    }

    #[test]
    fn infeasible_status_and_fields_roundtrip() {
        let r = Response::Infeasible {
            id: "job".into(),
            predicted_ms: 1234,
            deadline_ms: 50,
        };
        assert_eq!(r.status(), "infeasible");
        let doc = parse_json(&r.render()).unwrap();
        assert_eq!(doc.get("status").and_then(|v| v.as_str()), Some("infeasible"));
        assert_eq!(doc.get("predicted_ms").and_then(|v| v.as_f64()), Some(1234.0));
        assert_eq!(doc.get("deadline_ms").and_then(|v| v.as_f64()), Some(50.0));
    }
}
