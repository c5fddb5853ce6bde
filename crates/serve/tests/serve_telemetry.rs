//! End-to-end telemetry tests for the `quvad` daemon: the `metrics`
//! exposition (syntax, golden bytes, cross-run determinism), anomaly
//! flight dumps, the per-job audit journal, streaming progress frames,
//! the pinned `stats` key order, the worker-respawn obs flush, and the
//! agreement of every trace counter with its `stats` twin.
//!
//! The flight ring and the `quva-obs` recorder are process-global, so
//! every test in this binary takes `guard()` to serialize.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};
use std::thread;
use std::time::Duration;

use quva_serve::{is_timing_line, Server, ServerConfig, ServerHandle, COUNTERS, DUMP_SCHEMA};

fn guard() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn spawn(config: ServerConfig) -> (ServerHandle, String) {
    let handle = Server::spawn(config).expect("daemon spawns");
    let addr = handle.local_addr().expect("tcp address").to_string();
    (handle, addr)
}

fn open(addr: &str) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

fn send(stream: &mut TcpStream, line: &str) {
    stream
        .write_all(format!("{line}\n").as_bytes())
        .expect("send frame");
}

fn recv(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    let n = reader.read_line(&mut line).expect("recv response");
    assert!(n > 0, "connection closed before a response arrived");
    line.trim_end().to_string()
}

fn roundtrip(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
    send(stream, line);
    recv(reader)
}

fn scrape_exposition(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, id: &str) -> String {
    let response = roundtrip(
        stream,
        reader,
        &format!("{{\"id\":\"{id}\",\"kind\":\"metrics\"}}"),
    );
    let doc = quva_obs::parse_json(&response).expect("metrics response parses");
    assert_eq!(
        doc.get("status").and_then(|v| v.as_str()),
        Some("ok"),
        "{response}"
    );
    doc.get("result")
        .and_then(|r| r.get("exposition"))
        .and_then(|e| e.as_str())
        .expect("exposition field")
        .to_string()
}

/// Runs the fixed seeded single-job sequence the golden and
/// determinism tests pin, returning the scraped exposition.
fn seeded_run_exposition() -> String {
    let (handle, addr) = spawn(ServerConfig::default());
    let (mut stream, mut reader) = open(&addr);
    let job = "{\"id\":\"g1\",\"kind\":\"simulate\",\"device\":\"q5\",\"policy\":\"vqm\",\
               \"benchmark\":\"ghz:3\",\"trials\":20000,\"seed\":9}";
    let response = roundtrip(&mut stream, &mut reader, job);
    assert!(response.contains("\"status\":\"ok\""), "{response}");
    let exposition = scrape_exposition(&mut stream, &mut reader, "m1");
    drop((stream, reader));
    handle.shutdown();
    handle.join();
    exposition
}

#[test]
fn exposition_is_syntactically_valid_prometheus_text() {
    let _g = guard();
    let exposition = seeded_run_exposition();
    assert!(!exposition.is_empty());
    for line in exposition.lines() {
        if let Some(comment) = line.strip_prefix("# ") {
            assert!(comment.starts_with("TYPE quvad_"), "bad comment line: {line}");
            continue;
        }
        let (name, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("bad line: {line}"));
        assert!(name.starts_with("quvad_"), "bad metric name: {line}");
        assert!(value.parse::<f64>().is_ok(), "bad sample value: {line}");
    }
    for required in [
        "quvad_requests_total 2",
        "quvad_queue_depth 0",
        "quvad_workers_alive 2",
        "quvad_flight_dropped_total 0",
        "quvad_dumps_total{trigger=\"deadline_exceeded\"} 0",
        "quvad_latency_us_count{verb=\"simulate\"} 1",
    ] {
        assert!(
            exposition.lines().any(|l| l == required),
            "missing line {required:?} in:\n{exposition}"
        );
    }
}

/// Timing-valued lines replaced by a placeholder; everything else is
/// byte-pinned by the golden file.
fn normalize(exposition: &str) -> String {
    let mut out = String::new();
    for line in exposition.lines() {
        if is_timing_line(line) {
            let name = line.rsplit_once(' ').map_or(line, |(n, _)| n);
            out.push_str(name);
            out.push_str(" <timing>\n");
        } else {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

#[test]
fn exposition_bytes_match_golden_for_seeded_run() {
    let _g = guard();
    let normalized = normalize(&seeded_run_exposition());
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/exposition.txt");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(golden_path, &normalized).expect("write golden");
        return;
    }
    let golden =
        std::fs::read_to_string(golden_path).expect("golden file missing; regenerate with UPDATE_GOLDEN=1");
    assert_eq!(
        normalized, golden,
        "exposition drifted from tests/golden/exposition.txt; \
         regenerate with UPDATE_GOLDEN=1 if intentional"
    );
}

#[test]
fn identical_runs_differ_only_on_timing_lines() {
    let _g = guard();
    let first = seeded_run_exposition();
    let second = seeded_run_exposition();
    let a: Vec<&str> = first.lines().collect();
    let b: Vec<&str> = second.lines().collect();
    assert_eq!(a.len(), b.len(), "line sets diverged:\n{first}\n---\n{second}");
    for (la, lb) in a.iter().zip(&b) {
        if la != lb {
            assert!(
                is_timing_line(la) && is_timing_line(lb),
                "non-timing line differs between identical runs:\n  {la}\n  {lb}"
            );
        }
    }
    // and the allowance is not vacuous: timing lines exist
    assert!(a.iter().any(|l| is_timing_line(l)));
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("quva-telemetry-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn deadline_anomaly_writes_parseable_dump_without_trace_flag() {
    let _g = guard();
    let dir = temp_dir("deadline");
    let (handle, addr) = spawn(ServerConfig {
        workers: 1,
        dump_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    // occupy the only worker so the urgent job cannot start in time
    let (mut blocker, mut blocker_reader) = open(&addr);
    send(
        &mut blocker,
        "{\"id\":\"slow\",\"kind\":\"simulate\",\"device\":\"q20\",\"policy\":\"vqm\",\
         \"benchmark\":\"bv:8\",\"trials\":50000000,\"seed\":1}",
    );
    thread::sleep(Duration::from_millis(100));
    let (mut stream, mut reader) = open(&addr);
    let response = roundtrip(
        &mut stream,
        &mut reader,
        "{\"id\":\"urgent\",\"kind\":\"audit\",\"device\":\"q5\",\"policy\":\"vqm\",\
         \"benchmark\":\"ghz:3\",\"deadline_ms\":1}",
    );
    assert!(
        response.contains("\"status\":\"deadline_exceeded\""),
        "{response}"
    );
    let _ = recv(&mut blocker_reader); // let the slow job finish

    let dumps: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("dump dir exists")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.to_string_lossy().contains("deadline_exceeded"))
        .collect();
    assert_eq!(dumps.len(), 1, "{dumps:?}");
    let text = std::fs::read_to_string(&dumps[0]).expect("dump readable");
    let mut lines = text.lines();
    let header = quva_obs::parse_json(lines.next().expect("header line")).expect("header parses");
    assert_eq!(header.get("schema").and_then(|v| v.as_str()), Some(DUMP_SCHEMA));
    assert_eq!(
        header.get("trigger").and_then(|v| v.as_str()),
        Some("deadline_exceeded")
    );
    assert_eq!(header.get("job_id").and_then(|v| v.as_str()), Some("urgent"));
    let body: Vec<&str> = lines.collect();
    assert!(!body.is_empty());
    for line in &body {
        assert!(quva_obs::parse_json(line).is_ok(), "unparseable event: {line}");
    }
    // the dump holds the offending job's history: its submit note and
    // the anomaly note, recorded without any --trace flag
    assert!(text.contains("job urgent submit"), "{text}");
    assert!(text.contains("anomaly deadline_exceeded job=urgent"), "{text}");
    // the exposition reflects the dump within one scrape
    let exposition = scrape_exposition(&mut stream, &mut reader, "m-dump");
    assert!(
        exposition
            .lines()
            .any(|l| l == "quvad_dumps_total{trigger=\"deadline_exceeded\"} 1"),
        "{exposition}"
    );
    drop((stream, reader, blocker, blocker_reader));
    handle.shutdown();
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn progress_jobs_stream_monotone_frames_before_the_final_response() {
    let _g = guard();
    let (handle, addr) = spawn(ServerConfig::default());
    let (mut stream, mut reader) = open(&addr);
    send(
        &mut stream,
        "{\"id\":\"p1\",\"kind\":\"simulate\",\"device\":\"q5\",\"policy\":\"vqm\",\
         \"benchmark\":\"ghz:3\",\"trials\":2000000,\"seed\":4,\"progress\":true}",
    );
    let mut frames: Vec<(u64, u64)> = Vec::new();
    let finale = loop {
        let line = recv(&mut reader);
        let doc = quva_obs::parse_json(&line).expect("frame parses");
        if doc.get("status").is_some() {
            break line;
        }
        assert_eq!(doc.get("id").and_then(|v| v.as_str()), Some("p1"), "{line}");
        assert_eq!(
            doc.get("event").and_then(|v| v.as_str()),
            Some("progress"),
            "progress frames carry event, never status: {line}"
        );
        let done = doc.get("done").and_then(|v| v.as_f64()).expect("done") as u64;
        let total = doc.get("total").and_then(|v| v.as_f64()).expect("total") as u64;
        frames.push((done, total));
    };
    assert!(finale.contains("\"status\":\"ok\""), "{finale}");
    assert!(!frames.is_empty(), "no progress frames streamed");
    let mut last = 0;
    for (done, total) in &frames {
        assert_eq!(*total, 2_000_000);
        assert!(*done > last, "progress not monotone: {frames:?}");
        assert!(*done <= *total);
        last = *done;
    }
    // the streamed result is byte-identical to a plain run of the
    // same spec on a fresh connection (cache replay of the estimate)
    let plain = roundtrip(
        &mut stream,
        &mut reader,
        "{\"id\":\"p1\",\"kind\":\"simulate\",\"device\":\"q5\",\"policy\":\"vqm\",\
         \"benchmark\":\"ghz:3\",\"trials\":2000000,\"seed\":4}",
    );
    assert_eq!(plain, finale, "{plain}");
    drop((stream, reader));
    handle.shutdown();
    handle.join();
}

#[test]
fn stats_appends_telemetry_fields_after_the_original_keys() {
    let _g = guard();
    let (handle, addr) = spawn(ServerConfig::default());
    let (mut stream, mut reader) = open(&addr);
    let stats = roundtrip(&mut stream, &mut reader, "{\"id\":\"s1\",\"kind\":\"stats\"}");
    let infeasible = stats
        .find("\"jobs_infeasible\":")
        .expect("original tail key present");
    let dropped = stats.find("\"dropped_events\":").expect("dropped_events present");
    let journal = stats.find("\"journal_bytes\":").expect("journal_bytes present");
    assert!(
        infeasible < dropped && dropped < journal,
        "new stats keys must append after the existing ones: {stats}"
    );
    // every pre-existing key still present, in its original order
    let mut at = 0;
    for key in [
        "requests",
        "ok",
        "errors",
        "cache_hits",
        "cache_misses",
        "jobs_infeasible",
        "dropped_events",
        "journal_bytes",
    ] {
        let needle = format!("\"{key}\":");
        let pos = stats
            .find(&needle)
            .unwrap_or_else(|| panic!("missing {key}: {stats}"));
        assert!(pos >= at, "{key} moved before an earlier key: {stats}");
        at = pos;
    }
    drop((stream, reader));
    handle.shutdown();
    handle.join();
}

#[test]
fn journal_records_every_job_with_admission_and_outcome() {
    let _g = guard();
    let path = temp_dir("journal").join("journal.jsonl");
    let (handle, addr) = spawn(ServerConfig {
        journal_path: Some(path.clone()),
        ..ServerConfig::default()
    });
    let (mut stream, mut reader) = open(&addr);
    let job = "{\"id\":\"a1\",\"kind\":\"audit\",\"device\":\"q5\",\"policy\":\"vqm\",\
               \"benchmark\":\"ghz:3\"}";
    assert!(roundtrip(&mut stream, &mut reader, job).contains("\"status\":\"ok\""));
    assert!(roundtrip(&mut stream, &mut reader, job).contains("\"status\":\"ok\""));
    let infeasible = roundtrip(
        &mut stream,
        &mut reader,
        "{\"id\":\"a2\",\"kind\":\"simulate\",\"device\":\"q20\",\"policy\":\"vqm\",\
         \"benchmark\":\"bv:8\",\"trials\":50000000,\"deadline_ms\":1}",
    );
    assert!(infeasible.contains("\"status\":\"infeasible\""), "{infeasible}");
    drop((stream, reader));
    handle.shutdown();
    handle.join();

    let text = std::fs::read_to_string(&path).expect("journal written");
    let records: Vec<_> = text
        .lines()
        .map(|l| quva_obs::parse_json(l).unwrap_or_else(|e| panic!("{e}: {l}")))
        .collect();
    assert_eq!(records.len(), 3, "{text}");
    let admissions: Vec<_> = records
        .iter()
        .map(|r| r.get("admission").and_then(|v| v.as_str()).unwrap().to_string())
        .collect();
    assert_eq!(admissions, ["admitted", "cache", "infeasible"], "{text}");
    assert_eq!(
        records[1].get("cache_hit").and_then(|v| v.as_bool()),
        Some(true),
        "{text}"
    );
    assert_eq!(
        records[2].get("outcome").and_then(|v| v.as_str()),
        Some("infeasible"),
        "{text}"
    );
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

#[test]
fn worker_panic_flushes_obs_buffers_before_the_respawn() {
    let _g = guard();
    quva_obs::reset();
    quva_obs::enable();
    let (handle, addr) = spawn(ServerConfig {
        chaos_panics: true,
        ..ServerConfig::default()
    });
    let (mut stream, mut reader) = open(&addr);
    let response = roundtrip(&mut stream, &mut reader, "{\"id\":\"boom\",\"kind\":\"panic\"}");
    assert!(response.contains("worker panicked"), "{response}");
    // regression: the respawned worker's panic-path counters must be
    // visible to a drain taken while the daemon is still running —
    // before the fix they sat in the dead loop's TLS until shutdown.
    // The client reply races the supervisor's flush by a few
    // microseconds, so poll; without the fix this times out because
    // nothing flushes until shutdown.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let (mut panics, mut respawns) = (0u64, 0u64);
    while panics < 1 || respawns < 1 {
        let report = quva_obs::drain();
        panics += report.counters.get("serve.worker.panic").copied().unwrap_or(0);
        respawns += report.counters.get("serve.worker.respawn").copied().unwrap_or(0);
        assert!(
            std::time::Instant::now() < deadline,
            "panic-path counters not flushed before respawn \
             (panic={panics}, respawn={respawns})"
        );
        thread::sleep(Duration::from_millis(20));
    }
    quva_obs::disable();
    // the daemon is still healthy after the respawn
    let probe = roundtrip(&mut stream, &mut reader, "{\"id\":\"alive\",\"kind\":\"ping\"}");
    assert!(probe.contains("\"status\":\"ok\""), "{probe}");
    drop((stream, reader));
    handle.shutdown();
    handle.join();
}

#[test]
fn every_trace_twin_equals_its_stats_counter() {
    let _g = guard();
    quva_obs::reset();
    quva_obs::enable();
    let (handle, addr) = spawn(ServerConfig {
        chaos_panics: true,
        max_line_bytes: 1024,
        ..ServerConfig::default()
    });
    let (mut stream, mut reader) = open(&addr);
    let ok = "\"status\":\"ok\"";
    assert!(roundtrip(&mut stream, &mut reader, "{\"id\":\"p\",\"kind\":\"ping\"}").contains(ok));
    let job = "{\"id\":\"a\",\"kind\":\"audit\",\"device\":\"q5\",\"policy\":\"vqm\",\
               \"benchmark\":\"ghz:3\"}";
    assert!(roundtrip(&mut stream, &mut reader, job).contains(ok));
    assert!(roundtrip(&mut stream, &mut reader, job).contains(ok)); // cache hit
    let malformed = roundtrip(&mut stream, &mut reader, "not json");
    assert!(malformed.contains("\"status\":\"error\""), "{malformed}");
    stream.write_all(b"\xff\xfe\n").expect("send frame");
    let not_utf8 = recv(&mut reader);
    assert!(not_utf8.contains("not valid UTF-8"), "{not_utf8}");
    let panicked = roundtrip(&mut stream, &mut reader, "{\"id\":\"boom\",\"kind\":\"panic\"}");
    assert!(panicked.contains("worker panicked"), "{panicked}");
    drop((stream, reader));
    // an oversized frame is answered, then its connection is closed
    let (mut stream, mut reader) = open(&addr);
    stream.write_all(&[b'x'; 2048]).expect("send oversized frame");
    let oversized = recv(&mut reader);
    assert!(oversized.contains("frame exceeds 1024 bytes"), "{oversized}");
    drop((stream, reader));
    handle.shutdown();
    let stats = handle.join();
    quva_obs::flush();
    let report = quva_obs::drain();
    quva_obs::disable();

    let doc = quva_obs::parse_json(&stats).expect("final stats parse");
    let stat = |key: &str| {
        doc.get(key)
            .and_then(|v| v.as_f64())
            .unwrap_or_else(|| panic!("{key}: {stats}")) as u64
    };
    // the drive reached the paths whose twins used to be missed
    assert_eq!(stat("malformed_frames"), 3, "{stats}");
    assert_eq!(stat("worker_panics"), 1, "{stats}");
    assert_eq!(stat("cache_hits"), 1, "{stats}");
    for (key, twin) in COUNTERS {
        if let Some(twin) = twin {
            assert_eq!(
                report.counters.get(*twin).copied().unwrap_or(0),
                stat(key),
                "trace counter {twin} drifted from stats field {key}: {stats}"
            );
        }
    }
}
