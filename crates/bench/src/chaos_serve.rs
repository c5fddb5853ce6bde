//! Fault-injection chaos harness for the `quvad` daemon.
//!
//! The companion of [`crate::chaos`], one layer up: where `chaos`
//! tortures the compile pipeline with corrupted calibrations, this
//! module tortures the *server* around it with hostile clients —
//! malformed frames, oversized frames, stalled half-frames, clients
//! that vanish mid-job, injected worker panics, and queue floods.
//!
//! The contract every scenario asserts (see DESIGN.md, "quvad: the
//! compilation daemon"):
//!
//! * the daemon never exits and never panics its accept loop — after
//!   any injected fault, a fresh well-formed request still gets a
//!   typed `ok` response (the *recovery probe*);
//! * every answered frame carries a typed status (`ok`, `error`,
//!   `overloaded`, `deadline_exceeded`, `shutting_down`) — nothing is
//!   silently dropped on a live connection;
//! * worker panics are absorbed: the job's client gets an `error`
//!   response and a respawned worker serves the next job.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use quva_serve::{Server, ServerConfig, ServerHandle};

/// How long a chaos client waits for one response line. Generous:
/// CI hosts may have a single CPU.
const CLIENT_READ_TIMEOUT: Duration = Duration::from_secs(60);

/// How long [`await_admission`] polls before giving up.
const ADMISSION_TIMEOUT: Duration = Duration::from_secs(30);

/// The record of one server chaos scenario.
#[derive(Debug, Clone)]
pub struct ServeChaosOutcome {
    /// Scenario name, as listed by [`serve_scenarios`].
    pub name: &'static str,
    /// Response lines received while the fault was being injected
    /// (order matches the injected frames; concurrent scenarios sort
    /// by status for determinism).
    pub fault_responses: Vec<String>,
    /// The response to the well-formed probe sent *after* the fault.
    pub probe_response: String,
    /// Final daemon metrics JSON, after graceful drain.
    pub final_metrics: String,
}

impl ServeChaosOutcome {
    /// Whether the daemon answered the post-fault probe with `ok` —
    /// the headline recovery property.
    pub fn recovered(&self) -> bool {
        self.probe_response.contains("\"status\":\"ok\"")
    }

    /// Reads one counter out of the final metrics JSON.
    pub fn metric(&self, name: &str) -> u64 {
        quva_obs::parse_json(&self.final_metrics)
            .ok()
            .and_then(|doc| doc.get(name).and_then(|v| v.as_f64()))
            .map_or(0, |v| v as u64)
    }
}

/// The named server fault scenarios the robustness tests walk.
pub fn serve_scenarios() -> Vec<&'static str> {
    vec![
        "malformed-frame",
        "oversized-frame",
        "slow-loris",
        "disconnect-mid-job",
        "worker-panic",
        "queue-flood",
        "dump-storm",
    ]
}

/// Runs one named scenario against a fresh in-process daemon.
///
/// # Errors
///
/// Returns `Err` on unknown names or when the daemon (or a chaos
/// client) hits an I/O failure the scenario does not inject on
/// purpose. Injected faults are *data* in the returned outcome, never
/// errors.
pub fn run_serve_chaos(name: &str) -> Result<ServeChaosOutcome, String> {
    match name {
        "malformed-frame" => malformed_frame(),
        "oversized-frame" => oversized_frame(),
        "slow-loris" => slow_loris(),
        "disconnect-mid-job" => disconnect_mid_job(),
        "worker-panic" => worker_panic(),
        "queue-flood" => queue_flood(),
        "dump-storm" => dump_storm(),
        other => Err(format!("unknown serve chaos scenario '{other}'")),
    }
}

/// A cheap well-formed job: audit is static analysis, no Monte-Carlo.
fn probe_line(id: &str) -> String {
    format!(
        "{{\"id\":\"{id}\",\"kind\":\"audit\",\"device\":\"q5\",\"policy\":\"vqm\",\"benchmark\":\"ghz:3\"}}"
    )
}

fn spawn_server(config: ServerConfig) -> Result<(ServerHandle, String), String> {
    let handle = Server::spawn(config).map_err(|e| format!("spawn failed: {e}"))?;
    let addr = handle
        .local_addr()
        .ok_or_else(|| "server has no TCP address".to_string())?
        .to_string();
    Ok((handle, addr))
}

fn connect(addr: &str) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(CLIENT_READ_TIMEOUT))
        .map_err(|e| format!("set_read_timeout: {e}"))?;
    Ok(stream)
}

/// Sends one frame and reads one response line on an existing
/// connection.
fn roundtrip(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    line: &str,
) -> Result<String, String> {
    stream
        .write_all(format!("{line}\n").as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    read_line(reader)
}

fn read_line(reader: &mut BufReader<TcpStream>) -> Result<String, String> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => Err("connection closed before a response arrived".to_string()),
        Ok(_) => Ok(line.trim_end().to_string()),
        Err(e) => Err(format!("recv: {e}")),
    }
}

/// Polls `stats` on a connection until the daemon has admitted at
/// least one job into its queue (`cache_misses >= 1`), failing after
/// [`ADMISSION_TIMEOUT`].
fn await_admission(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>) -> Result<(), String> {
    let started = Instant::now();
    loop {
        let stats = roundtrip(stream, reader, "{\"id\":\"stats\",\"kind\":\"stats\"}")?;
        let misses = quva_obs::parse_json(&stats)
            .ok()
            .and_then(|doc| {
                doc.get("result")
                    .and_then(|r| r.get("cache_misses"))
                    .and_then(|v| v.as_f64())
            })
            .unwrap_or(0.0);
        if misses >= 1.0 {
            return Ok(());
        }
        if started.elapsed() > ADMISSION_TIMEOUT {
            return Err(format!("no job admitted within {ADMISSION_TIMEOUT:?}: {stats}"));
        }
        thread::sleep(Duration::from_millis(5));
    }
}

fn open(addr: &str) -> Result<(TcpStream, BufReader<TcpStream>), String> {
    let stream = connect(addr)?;
    let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
    Ok((stream, reader))
}

/// Sends the recovery probe on a fresh connection, then drains the
/// daemon and returns the completed outcome.
fn finish(
    name: &'static str,
    fault_responses: Vec<String>,
    handle: ServerHandle,
    addr: &str,
) -> Result<ServeChaosOutcome, String> {
    let (mut stream, mut reader) = open(addr)?;
    let probe_response = roundtrip(&mut stream, &mut reader, &probe_line("probe"))?;
    drop((stream, reader));
    handle.shutdown();
    let final_metrics = handle.join();
    Ok(ServeChaosOutcome {
        name,
        fault_responses,
        probe_response,
        final_metrics,
    })
}

/// Garbage frames: invalid JSON, wrong types, a non-object document,
/// and a nesting bomb. Each must come back as a typed `error` on the
/// *same* connection, which stays usable.
fn malformed_frame() -> Result<ServeChaosOutcome, String> {
    let (handle, addr) = spawn_server(ServerConfig::default())?;
    let (mut stream, mut reader) = open(&addr)?;
    let bomb = "[".repeat(2_000);
    let frames = [
        "{not json at all",
        "{\"id\":\"f2\",\"kind\":42}",
        "[1,2,3]",
        "{\"id\":\"f4\",\"kind\":\"warp\"}",
        "{\"id\":\"f5\",\"kind\":\"simulate\",\"device\":\"q5\",\"benchmark\":\"ghz:3\",\"trials\":0}",
        bomb.as_str(),
    ];
    let mut fault_responses = Vec::new();
    for frame in frames {
        fault_responses.push(roundtrip(&mut stream, &mut reader, frame)?);
    }
    drop((stream, reader));
    finish("malformed-frame", fault_responses, handle, &addr)
}

/// One frame over the byte limit: the daemon answers with `error` and
/// closes that connection; a fresh connection still works.
fn oversized_frame() -> Result<ServeChaosOutcome, String> {
    let config = ServerConfig {
        max_line_bytes: 1024,
        ..ServerConfig::default()
    };
    let (handle, addr) = spawn_server(config)?;
    let (mut stream, mut reader) = open(&addr)?;
    // stream past the frame limit without ever terminating the line
    let huge = "x".repeat(4096);
    stream
        .write_all(huge.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let response = read_line(&mut reader)?;
    // the daemon hangs up after an oversized frame
    let closed = matches!(read_line(&mut reader), Err(ref e) if e.contains("closed"));
    let mut fault_responses = vec![response];
    fault_responses.push(format!("connection_closed:{closed}"));
    drop((stream, reader));
    finish("oversized-frame", fault_responses, handle, &addr)
}

/// A client that sends half a frame and stalls: the idle guard must
/// reap it with a typed error instead of pinning a connection slot
/// forever.
fn slow_loris() -> Result<ServeChaosOutcome, String> {
    let config = ServerConfig {
        idle_timeout_ms: 150,
        ..ServerConfig::default()
    };
    let (handle, addr) = spawn_server(config)?;
    let (mut stream, mut reader) = open(&addr)?;
    stream
        .write_all(b"{\"id\":\"half\",\"kind\":")
        .map_err(|e| format!("send: {e}"))?;
    // no newline, no more bytes: wait out the idle timeout
    let response = read_line(&mut reader)?;
    let fault_responses = vec![response];
    drop((stream, reader));
    finish("slow-loris", fault_responses, handle, &addr)
}

/// Clients that submit real jobs and vanish before the response: the
/// worker finishes (or sheds) the orphaned work and the daemon keeps
/// serving.
fn disconnect_mid_job() -> Result<ServeChaosOutcome, String> {
    let (handle, addr) = spawn_server(ServerConfig::default())?;
    for i in 0..3 {
        let mut stream = connect(&addr)?;
        let line = format!(
            "{{\"id\":\"ghost-{i}\",\"kind\":\"simulate\",\"device\":\"q20\",\"policy\":\"vqm\",\
             \"benchmark\":\"bv:8\",\"trials\":200000,\"seed\":{i}}}"
        );
        stream
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        drop(stream); // hang up without reading the response
    }
    finish("disconnect-mid-job", Vec::new(), handle, &addr)
}

/// An injected worker panic (the `--chaos` frame): the faulting job
/// gets a typed `error`, the worker respawns, and the next real job
/// on the same connection succeeds.
fn worker_panic() -> Result<ServeChaosOutcome, String> {
    let config = ServerConfig {
        workers: 1,
        chaos_panics: true,
        ..ServerConfig::default()
    };
    let (handle, addr) = spawn_server(config)?;
    let (mut stream, mut reader) = open(&addr)?;
    let panic_response = roundtrip(&mut stream, &mut reader, "{\"id\":\"boom\",\"kind\":\"panic\"}")?;
    // same connection, same (respawned) worker pool
    let after = roundtrip(&mut stream, &mut reader, &probe_line("after-panic"))?;
    drop((stream, reader));
    finish("worker-panic", vec![panic_response, after], handle, &addr)
}

/// Many concurrent jobs against one worker and a tiny queue: every
/// client gets a typed response (`ok` or `overloaded` with a
/// `retry_after_ms` hint), nothing hangs, nothing is dropped.
fn queue_flood() -> Result<ServeChaosOutcome, String> {
    let config = ServerConfig {
        workers: 1,
        queue_capacity: 2,
        default_deadline_ms: 60_000,
        ..ServerConfig::default()
    };
    let (handle, addr) = spawn_server(config)?;
    let clients: Vec<_> = (0..8u64)
        .map(|i| {
            let addr = addr.clone();
            thread::spawn(move || -> Result<String, String> {
                let (mut stream, mut reader) = open(&addr)?;
                let line = format!(
                    "{{\"id\":\"flood-{i}\",\"kind\":\"simulate\",\"device\":\"q20\",\"policy\":\"vqm\",\
                     \"benchmark\":\"bv:8\",\"trials\":150000,\"seed\":{i},\"priority\":{}}}",
                    if i % 2 == 0 { 1 } else { 8 }
                );
                roundtrip(&mut stream, &mut reader, &line)
            })
        })
        .collect();
    let mut fault_responses = Vec::new();
    for client in clients {
        let response = client.join().map_err(|_| "flood client panicked".to_string())??;
        fault_responses.push(response);
    }
    // concurrent arrival order is nondeterministic; sort for stable reports
    fault_responses.sort();
    finish("queue-flood", fault_responses, handle, &addr)
}

/// Distinguishes concurrent dump-storm runs inside one test process.
static STORM_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// Walks the dump directory and reports cap compliance and per-line
/// parseability as one synthetic fault-response line.
fn inspect_dump_dir(dir: &Path, total_cap: u64) -> String {
    let mut files = 0u64;
    let mut bytes = 0u64;
    let mut parse_ok = true;
    let mut headers_ok = true;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let Ok(text) = std::fs::read_to_string(entry.path()) else {
                parse_ok = false;
                continue;
            };
            files += 1;
            bytes += text.len() as u64;
            let mut lines = text.lines();
            let header_ok = lines
                .next()
                .and_then(|line| quva_obs::parse_json(line).ok())
                .and_then(|doc| doc.get("schema").and_then(|v| v.as_str().map(str::to_string)))
                .is_some_and(|schema| schema == quva_serve::DUMP_SCHEMA);
            headers_ok &= header_ok;
            for line in lines {
                parse_ok &= quva_obs::parse_json(line).is_ok();
            }
        }
    }
    format!(
        "dump_files:{files} dump_bytes:{bytes} within_cap:{} parse_ok:{parse_ok} headers_ok:{headers_ok}",
        bytes <= total_cap
    )
}

/// A sustained anomaly stream against tiny dump caps: a long simulate
/// pins the only worker, then a burst of 1 ms-deadline jobs all expire
/// in the queue — each expiry snapshots the flight ring into the dump
/// directory. The directory must stay under its total byte cap (rotate,
/// newest survives), every surviving dump must parse line by line, and
/// the daemon must still answer the recovery probe.
fn dump_storm() -> Result<ServeChaosOutcome, String> {
    let dump_dir = std::env::temp_dir().join(format!(
        "quva-dump-storm-{}-{}",
        std::process::id(),
        STORM_DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dump_dir);
    let total_cap: u64 = 8 * 1024;
    let config = ServerConfig {
        workers: 1,
        flight_capacity: 512,
        dump_dir: Some(dump_dir.clone()),
        dump_max_file_bytes: 2 * 1024,
        dump_max_total_bytes: total_cap,
        default_deadline_ms: 60_000,
        ..ServerConfig::default()
    };
    let (handle, addr) = spawn_server(config)?;
    // the blocker occupies the single worker for the whole storm; its
    // client hangs up without reading (the daemon tolerates ghosts)
    let mut blocker = connect(&addr)?;
    blocker
        .write_all(
            b"{\"id\":\"blocker\",\"kind\":\"simulate\",\"device\":\"q5\",\"policy\":\"vqm\",\
              \"benchmark\":\"ghz:3\",\"trials\":50000000,\"seed\":1}\n",
        )
        .map_err(|e| format!("send blocker: {e}"))?;
    let (mut stream, mut reader) = open(&addr)?;
    // The storm must queue behind the blocker. Had storm-0 reached the
    // worker first, its result would be cached, and the other frames,
    // as cache hits, would never reach the deadline path. One priority,
    // first-in first-out: once the blocker is admitted, every storm
    // frame waits behind it.
    await_admission(&mut stream, &mut reader).map_err(|e| format!("blocker: {e}"))?;
    let mut deadline_hits = 0u64;
    for i in 0..24 {
        let line = format!(
            "{{\"id\":\"storm-{i}\",\"kind\":\"audit\",\"device\":\"q5\",\"policy\":\"vqm\",\
             \"benchmark\":\"ghz:3\",\"deadline_ms\":1}}"
        );
        if roundtrip(&mut stream, &mut reader, &line)?.contains("\"status\":\"deadline_exceeded\"") {
            deadline_hits += 1;
        }
    }
    let fault_responses = vec![
        format!("deadline_hits:{deadline_hits}"),
        inspect_dump_dir(&dump_dir, total_cap),
    ];
    drop((stream, reader));
    drop(blocker);
    let outcome = finish("dump-storm", fault_responses, handle, &addr);
    let _ = std::fs::remove_dir_all(&dump_dir);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::catch_unwind;

    /// The headline property: no scenario panics the harness or the
    /// daemon, and after every fault the recovery probe answers `ok`.
    #[test]
    fn all_scenarios_recover() {
        for name in serve_scenarios() {
            let outcome = catch_unwind(|| run_serve_chaos(name))
                .unwrap_or_else(|_| panic!("scenario '{name}' panicked"))
                .unwrap_or_else(|e| panic!("scenario '{name}' failed: {e}"));
            assert!(
                outcome.recovered(),
                "scenario '{name}' did not recover: probe = {}",
                outcome.probe_response
            );
        }
    }

    #[test]
    fn scenario_list_is_large_enough() {
        assert!(
            serve_scenarios().len() >= 4,
            "need at least 4 server chaos scenarios"
        );
    }

    #[test]
    fn malformed_frames_get_typed_errors() {
        let outcome = run_serve_chaos("malformed-frame").unwrap();
        assert_eq!(outcome.fault_responses.len(), 6);
        for response in &outcome.fault_responses {
            assert!(
                response.contains("\"status\":\"error\""),
                "expected a typed error, got: {response}"
            );
        }
        assert!(
            outcome.metric("malformed_frames") >= 4,
            "{}",
            outcome.final_metrics
        );
    }

    #[test]
    fn oversized_frame_errors_then_closes() {
        let outcome = run_serve_chaos("oversized-frame").unwrap();
        assert!(
            outcome.fault_responses[0].contains("\"status\":\"error\""),
            "{:?}",
            outcome.fault_responses
        );
        assert_eq!(outcome.fault_responses[1], "connection_closed:true");
    }

    #[test]
    fn slow_loris_is_reaped_with_a_typed_error() {
        let outcome = run_serve_chaos("slow-loris").unwrap();
        assert!(
            outcome.fault_responses[0].contains("\"status\":\"error\"")
                && outcome.fault_responses[0].contains("idle"),
            "{:?}",
            outcome.fault_responses
        );
    }

    #[test]
    fn worker_panic_is_absorbed_and_worker_respawns() {
        let outcome = run_serve_chaos("worker-panic").unwrap();
        assert!(
            outcome.fault_responses[0].contains("\"status\":\"error\""),
            "{:?}",
            outcome.fault_responses
        );
        assert!(
            outcome.fault_responses[1].contains("\"status\":\"ok\""),
            "job after the panic should succeed: {:?}",
            outcome.fault_responses
        );
        assert!(outcome.metric("worker_panics") >= 1, "{}", outcome.final_metrics);
        assert!(
            outcome.metric("worker_respawns") >= 1,
            "{}",
            outcome.final_metrics
        );
    }

    #[test]
    fn dump_storm_respects_caps_and_recovers() {
        let outcome = run_serve_chaos("dump-storm").unwrap();
        let hits: u64 = outcome.fault_responses[0]
            .strip_prefix("deadline_hits:")
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("malformed hit count: {:?}", outcome.fault_responses));
        assert!(
            hits >= 1,
            "storm produced no deadline anomalies: {:?}",
            outcome.fault_responses
        );
        let report = &outcome.fault_responses[1];
        let files: u64 = report
            .strip_prefix("dump_files:")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("malformed dump report: {report}"));
        assert!(files >= 1, "no dump files survived the storm: {report}");
        assert!(
            report.contains("within_cap:true"),
            "dump directory outgrew its cap: {report}"
        );
        assert!(
            report.contains("parse_ok:true"),
            "a dump line failed to parse: {report}"
        );
        assert!(
            report.contains("headers_ok:true"),
            "a dump header drifted from schema: {report}"
        );
        assert!(
            outcome.recovered(),
            "probe after the storm: {}",
            outcome.probe_response
        );
    }

    #[test]
    fn queue_flood_answers_every_client_with_a_typed_status() {
        let outcome = run_serve_chaos("queue-flood").unwrap();
        assert_eq!(outcome.fault_responses.len(), 8);
        for response in &outcome.fault_responses {
            let typed = response.contains("\"status\":\"ok\"")
                || response.contains("\"status\":\"overloaded\"")
                || response.contains("\"status\":\"deadline_exceeded\"");
            assert!(typed, "untyped flood response: {response}");
        }
        // with one worker and a queue of two, eight concurrent jobs
        // cannot all be admitted
        let overloaded = outcome
            .fault_responses
            .iter()
            .filter(|r| r.contains("\"status\":\"overloaded\""))
            .count();
        assert!(overloaded >= 1, "{:#?}", outcome.fault_responses);
        for response in outcome
            .fault_responses
            .iter()
            .filter(|r| r.contains("\"status\":\"overloaded\""))
        {
            assert!(response.contains("\"retry_after_ms\""), "{response}");
        }
    }
}
