//! The `quvad` daemon: socket transport, admission control, worker
//! pool, and graceful drain.
//!
//! Thread model: one nonblocking accept loop, one thread per accepted
//! connection (bounded by `max_connections`), and a fixed worker pool
//! consuming the bounded job queue. Connection threads resolve specs,
//! consult the result cache, and run admission control; workers do the
//! heavy compile/simulate/audit work inside `catch_unwind`, so a
//! panicking job becomes a structured error response and a re-armed
//! worker, never a dead daemon.
//!
//! Failure containment invariants (chaos-tested in `quva-bench`):
//!
//! * every delivered well-formed frame gets exactly one response line;
//! * malformed frames get an `error` response, not a dropped socket;
//! * a full queue answers `overloaded` + `retry_after_ms`, where the
//!   hint is derived from the predicted drain time of the queued work
//!   (the configured value is only a floor);
//! * a job whose deadline is statically infeasible — the *optimistic*
//!   cost-envelope bound already exceeds it — answers `infeasible`
//!   before it is queued, spending no worker time;
//! * a worker panic answers `error` and bumps `serve.worker.respawn`;
//! * drain stops intake (`shutting_down`), finishes or
//!   deadline-expires in-flight jobs, and flushes every thread's obs
//!   buffers before exit.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use quva_analysis::{cost_envelope, CostModel};
use quva_obs::json_escape;
use quva_sim::{McEngine, McKernel};

use crate::cache::ResultCache;
use crate::dump::DumpSink;
use crate::exec::{execute, execute_with, resolve, ResolvedJob};
use crate::expo::{self, LatencyRecorder};
use crate::journal::{Journal, JournalRecord};
use crate::metrics::{Counter, ServeMetrics, Stats};
use crate::protocol::{
    parse_request, progress_frame, JobKind, JobSpec, RequestKind, Response, MAX_FRAME_BYTES,
};
use crate::queue::{BoundedQueue, Pop, Push};

/// Where the daemon listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Listen {
    /// TCP socket; `127.0.0.1:0` picks an ephemeral port.
    Tcp(String),
    /// Unix-domain socket at this path (removed and re-created).
    #[cfg(unix)]
    Unix(PathBuf),
}

/// Daemon tuning knobs. `Default` is sized for tests and smoke runs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listening transport and address.
    pub listen: Listen,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Monte-Carlo engine threads per worker (results are
    /// thread-count-independent; this is wall-clock only).
    pub engine_threads: usize,
    /// Monte-Carlo trial kernel the workers run. The default
    /// bit-parallel kernel and the scalar oracle are distinct
    /// deterministic samples of the same model, so this knob changes
    /// rendered estimates — keep it fixed across a fleet that shares
    /// a result cache.
    pub engine_kernel: McKernel,
    /// Bounded queue capacity — the admission-control limit.
    pub queue_capacity: usize,
    /// Deadline applied to jobs that do not carry `deadline_ms`.
    pub default_deadline_ms: u64,
    /// Floor of the backpressure hint attached to `overloaded`
    /// responses; the actual hint grows with the predicted drain time
    /// of the queued work.
    pub retry_after_ms: u64,
    /// Cost model powering envelope-based admission control. Replace
    /// it with a [`CostModel::from_bench`]-calibrated model when a
    /// measured baseline is available.
    pub cost_model: CostModel,
    /// Hard per-frame byte limit.
    pub max_line_bytes: usize,
    /// Close connections idle (or stalled mid-frame) this long.
    pub idle_timeout_ms: u64,
    /// Maximum concurrently open connections.
    pub max_connections: usize,
    /// Result-cache shard count.
    pub cache_shards: usize,
    /// Result-cache entries per shard.
    pub cache_capacity_per_shard: usize,
    /// Honor `panic` frames (fault injection). Off in production.
    pub chaos_panics: bool,
    /// Flight-recorder ring capacity in events; `0` selects the
    /// `quva-obs` default. The ring is always armed while the daemon
    /// runs — anomaly dumps need history from *before* the trigger.
    pub flight_capacity: usize,
    /// Directory receiving anomaly-triggered flight dumps (`None`
    /// disables dumping; the ring still records).
    pub dump_dir: Option<PathBuf>,
    /// Per-dump-file byte cap (oldest events truncated first).
    pub dump_max_file_bytes: u64,
    /// Total byte cap across the dump directory; oldest dump files
    /// are deleted to stay under it.
    pub dump_max_total_bytes: u64,
    /// Path of the per-job JSONL audit journal (`None` disables).
    pub journal_path: Option<PathBuf>,
    /// Journal size-rotation threshold in bytes.
    pub journal_max_bytes: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            listen: Listen::Tcp("127.0.0.1:0".to_string()),
            workers: 2,
            engine_threads: 1,
            engine_kernel: McKernel::default(),
            queue_capacity: 64,
            default_deadline_ms: 10_000,
            retry_after_ms: 50,
            cost_model: CostModel::default(),
            max_line_bytes: MAX_FRAME_BYTES,
            idle_timeout_ms: 10_000,
            max_connections: 64,
            cache_shards: 8,
            cache_capacity_per_shard: 64,
            chaos_panics: false,
            flight_capacity: 0,
            dump_dir: None,
            dump_max_file_bytes: 256 * 1024,
            dump_max_total_bytes: 4 * 1024 * 1024,
            journal_path: None,
            journal_max_bytes: 4 * 1024 * 1024,
        }
    }
}

/// What a worker hands back to the waiting connection thread.
enum JobOutcome {
    Done(Arc<str>),
    Failed(String),
    Shed,
    /// Chunk-boundary progress from a streaming simulate job; the
    /// connection thread forwards it as a `progress` frame and keeps
    /// waiting for a terminal outcome.
    Progress {
        done: u64,
        total: u64,
    },
}

/// Work items flowing through the queue.
enum Work {
    Run(Box<ResolvedJob>),
    InjectedPanic,
}

struct QueuedJob {
    /// Client-supplied request id — labels anomaly dumps and flight
    /// notes for the job.
    id: String,
    work: Work,
    reply: mpsc::Sender<JobOutcome>,
}

enum FrameOutcome {
    Reply(String),
    ReplyThenDrain(String),
}

enum WorkerExit {
    Drained,
    Respawn,
}

struct Shared {
    config: ServerConfig,
    queue: BoundedQueue<QueuedJob>,
    cache: ResultCache,
    metrics: ServeMetrics,
    draining: AtomicBool,
    active_connections: AtomicUsize,
    conn_handles: Mutex<Vec<JoinHandle<()>>>,
    started: Instant,
    latency: LatencyRecorder,
    dump: Option<DumpSink>,
    journal: Option<Journal>,
    workers_alive: AtomicU64,
}

impl Shared {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        quva_obs::counter("serve.drain", 1);
    }

    /// Backpressure hint for `overloaded` responses: the configured
    /// floor, raised to the predicted wall-clock (ms) for the worker
    /// pool to drain the currently queued work. Queue weights are the
    /// jobs' pessimistic cost bounds in nanoseconds, so the drain
    /// estimate is total weight over pool parallelism.
    fn retry_hint_ms(&self) -> u64 {
        let workers = self.config.workers.max(1) as u64;
        let drain_ms = self.queue.queued_weight() / (workers * 1_000_000);
        self.config.retry_after_ms.max(drain_ms)
    }

    /// Reads every `stats` field once: the counter table, flight-ring
    /// evictions and the audit journal's lifetime bytes.
    fn stats(&self) -> Stats {
        let journal_bytes = self.journal.as_ref().map_or(0, Journal::bytes_written);
        self.metrics.snapshot(quva_obs::flight::dropped(), journal_bytes)
    }

    /// Renders the Prometheus-style text exposition for the `metrics`
    /// verb — byte-deterministic modulo timing-valued lines.
    fn render_exposition(&self) -> String {
        let dumps = match &self.dump {
            Some(d) => d.counts(),
            None => crate::dump::TRIGGERS.iter().map(|t| (*t, 0)).collect(),
        };
        expo::render_exposition(&expo::ExpoInputs {
            stats: self.stats(),
            latency: &self.latency,
            queue_depth: self.queue.len(),
            workers_alive: self.workers_alive.load(Ordering::Relaxed),
            dumps,
            uptime_us: self.started.elapsed().as_micros() as u64,
        })
    }

    /// Decodes and answers one frame. Always produces a response line.
    /// `emit` writes an out-of-band frame (streaming progress) to the
    /// client ahead of the final response.
    fn handle_frame(&self, line: &str, emit: &mut dyn FnMut(&str) -> io::Result<()>) -> FrameOutcome {
        let _span = quva_obs::span("serve", "request");
        let frame_started = Instant::now();
        self.metrics.bump(Counter::Requests);
        let request = match parse_request(line) {
            Err(e) => {
                self.metrics.bump(Counter::MalformedFrames);
                self.metrics.bump(Counter::Errors);
                return FrameOutcome::Reply(
                    Response::Error {
                        id: e.id,
                        message: e.message,
                    }
                    .render(),
                );
            }
            Ok(r) => r,
        };
        let id = request.id;
        let verb: &'static str = match &request.kind {
            RequestKind::Ping => "ping",
            RequestKind::Stats => "stats",
            RequestKind::Metrics => "metrics",
            RequestKind::Shutdown => "shutdown",
            RequestKind::Panic => "panic",
            RequestKind::Job(spec) => spec.kind.name(),
        };
        let outcome = match request.kind {
            RequestKind::Ping => {
                self.metrics.bump(Counter::Ok);
                FrameOutcome::Reply(
                    Response::Ok {
                        id,
                        result: "{\"pong\":true}".to_string(),
                    }
                    .render(),
                )
            }
            RequestKind::Stats => {
                self.metrics.bump(Counter::Ok);
                FrameOutcome::Reply(
                    Response::Ok {
                        id,
                        result: self.stats().render_json(),
                    }
                    .render(),
                )
            }
            RequestKind::Metrics => {
                self.metrics.bump(Counter::Ok);
                let exposition = self.render_exposition();
                FrameOutcome::Reply(
                    Response::Ok {
                        id,
                        result: format!("{{\"exposition\":\"{}\"}}", json_escape(&exposition)),
                    }
                    .render(),
                )
            }
            RequestKind::Shutdown => {
                self.metrics.bump(Counter::Ok);
                FrameOutcome::ReplyThenDrain(
                    Response::Ok {
                        id,
                        result: "{\"draining\":true}".to_string(),
                    }
                    .render(),
                )
            }
            RequestKind::Panic => {
                if !self.config.chaos_panics {
                    self.metrics.bump(Counter::Errors);
                    return FrameOutcome::Reply(
                        Response::Error {
                            id,
                            message: "panic injection disabled (start with --chaos)".to_string(),
                        }
                        .render(),
                    );
                }
                let (rendered, _status) = self.submit(
                    id,
                    9,
                    1,
                    self.config.default_deadline_ms,
                    Work::InjectedPanic,
                    false,
                    emit,
                );
                FrameOutcome::Reply(rendered)
            }
            RequestKind::Job(spec) => FrameOutcome::Reply(self.handle_job(id, spec, emit)),
        };
        self.latency
            .record(verb, frame_started.elapsed().as_micros() as u64);
        outcome
    }

    /// Resolves, cache-checks, admits, and awaits one job, writing an
    /// audit-journal record describing what happened to it.
    fn handle_job(&self, id: String, spec: JobSpec, emit: &mut dyn FnMut(&str) -> io::Result<()>) -> String {
        let job_started = Instant::now();
        let mut record = JournalRecord {
            id: id.clone(),
            kind: spec.kind.name().to_string(),
            device: spec.device.clone(),
            policy: spec.policy.clone(),
            benchmark: spec.benchmark.clone(),
            admission: "error",
            cache_hit: false,
            envelope_lo_ms: 0,
            envelope_hi_ms: 0,
            kernel: format!("{:?}", self.config.engine_kernel),
            outcome: String::new(),
            elapsed_us: 0,
        };
        let rendered = self.handle_job_inner(id, spec, emit, &mut record);
        if let Some(journal) = &self.journal {
            record.elapsed_us = job_started.elapsed().as_micros() as u64;
            journal.append(&record);
        }
        rendered
    }

    /// The job path proper; fills `record` as admission decisions are
    /// made so [`Shared::handle_job`] can journal the job on every
    /// exit path.
    fn handle_job_inner(
        &self,
        id: String,
        spec: JobSpec,
        emit: &mut dyn FnMut(&str) -> io::Result<()>,
        record: &mut JournalRecord,
    ) -> String {
        if self.draining() {
            self.metrics.bump(Counter::ShuttingDown);
            record.admission = "draining";
            record.outcome = "shutting_down".to_string();
            return Response::ShuttingDown { id }.render();
        }
        let resolved = match resolve(&spec) {
            Err(message) => {
                self.metrics.bump(Counter::Errors);
                record.outcome = "error".to_string();
                return Response::Error { id, message }.render();
            }
            Ok(r) => r,
        };
        // cache first: saturation cannot delay a result we already have
        if let Some(hit) = self.cache.get(&resolved.key) {
            self.metrics.bump(Counter::CacheHits);
            self.metrics.bump(Counter::Ok);
            record.admission = "cache";
            record.cache_hit = true;
            record.outcome = "ok".to_string();
            return Response::Ok {
                id,
                result: hit.to_string(),
            }
            .render();
        }
        quva_obs::counter("serve.cache.miss", 1);
        let deadline_ms = spec.deadline_ms.unwrap_or(self.config.default_deadline_ms);
        // static admission: a job whose *optimistic* cost bound already
        // exceeds its deadline is answered typed-infeasible here, on
        // the connection thread — it never occupies a queue slot or a
        // worker. Rejecting on `lo` (never `hi`) keeps loose
        // pessimistic bounds from causing false rejections.
        let envelope = cost_envelope(
            &resolved.device,
            resolved.benchmark.circuit(),
            spec.trials,
            &self.config.cost_model,
        );
        record.envelope_lo_ms = envelope.predicted_ms_lo();
        record.envelope_hi_ms = (envelope.total_ns().hi / 1e6).ceil() as u64;
        if envelope.infeasible_for(deadline_ms) {
            self.metrics.bump(Counter::JobsInfeasible);
            record.admission = "infeasible";
            record.outcome = "infeasible".to_string();
            return Response::Infeasible {
                id,
                predicted_ms: envelope.predicted_ms_lo(),
                deadline_ms,
            }
            .render();
        }
        let weight = (envelope.total_ns().hi.ceil() as u64).max(1);
        let progress = spec.progress;
        let (rendered, status) = self.submit(
            id,
            spec.priority,
            weight,
            deadline_ms,
            Work::Run(Box::new(resolved)),
            progress,
            emit,
        );
        record.admission = match status {
            "overloaded" => "overloaded",
            "shutting_down" => "draining",
            _ => "admitted",
        };
        record.outcome = status.to_string();
        rendered
    }

    /// Pushes work through admission control and waits for its
    /// outcome or deadline, forwarding streamed progress frames via
    /// `emit` when `progress` is set. `weight` is the job's
    /// pessimistic cost bound in nanoseconds (it steers shed choice
    /// and drain-time retry hints). Returns the rendered response and
    /// a short status label for the audit journal.
    #[allow(clippy::too_many_arguments)]
    fn submit(
        &self,
        id: String,
        priority: u8,
        weight: u64,
        deadline_ms: u64,
        work: Work,
        progress: bool,
        emit: &mut dyn FnMut(&str) -> io::Result<()>,
    ) -> (String, &'static str) {
        quva_obs::flight::note("serve", &format!("job {id} submit"));
        let (reply, outcome) = mpsc::channel();
        match self.queue.push_weighted(
            priority,
            weight,
            QueuedJob {
                id: id.clone(),
                work,
                reply,
            },
        ) {
            Push::Admitted => {}
            Push::Shed(loser) => {
                // lower-priority queued job evicted to make room
                self.metrics.bump(Counter::Shed);
                if let Some(dump) = &self.dump {
                    dump.record("shed_weakest", &loser.id);
                }
                let _ = loser.reply.send(JobOutcome::Shed);
            }
            Push::Rejected(_) => {
                self.metrics.bump(Counter::Overloaded);
                if let Some(dump) = &self.dump {
                    dump.record("queue_flood", &id);
                }
                return (
                    Response::Overloaded {
                        id,
                        retry_after_ms: self.retry_hint_ms(),
                    }
                    .render(),
                    "overloaded",
                );
            }
            Push::Closed(_) => {
                self.metrics.bump(Counter::ShuttingDown);
                return (Response::ShuttingDown { id }.render(), "shutting_down");
            }
        }
        self.metrics.bump(Counter::CacheMisses);
        quva_obs::observe("serve.queue.depth", self.queue.len() as f64);
        let deadline_at = Instant::now() + Duration::from_millis(deadline_ms);
        loop {
            let remaining = deadline_at.saturating_duration_since(Instant::now());
            return match outcome.recv_timeout(remaining) {
                Ok(JobOutcome::Progress { done, total }) => {
                    // not terminal: forward (best-effort — a client
                    // that stopped reading still gets its final
                    // response attempt) and keep waiting
                    if progress {
                        let _ = emit(&progress_frame(&id, done, total));
                    }
                    continue;
                }
                Ok(JobOutcome::Done(result)) => {
                    self.metrics.bump(Counter::Ok);
                    (
                        Response::Ok {
                            id,
                            result: result.to_string(),
                        }
                        .render(),
                        "ok",
                    )
                }
                Ok(JobOutcome::Failed(message)) => {
                    self.metrics.bump(Counter::Errors);
                    (Response::Error { id, message }.render(), "error")
                }
                Ok(JobOutcome::Shed) => {
                    self.metrics.bump(Counter::Overloaded);
                    (
                        Response::Overloaded {
                            id,
                            retry_after_ms: self.retry_hint_ms(),
                        }
                        .render(),
                        "overloaded",
                    )
                }
                Err(RecvTimeoutError::Timeout) => {
                    self.metrics.bump(Counter::DeadlineExceeded);
                    if let Some(dump) = &self.dump {
                        dump.record("deadline_exceeded", &id);
                    }
                    (
                        Response::DeadlineExceeded { id, deadline_ms }.render(),
                        "deadline_exceeded",
                    )
                }
                Err(RecvTimeoutError::Disconnected) => {
                    // worker died between pop and reply — backstop path
                    self.metrics.bump(Counter::Errors);
                    (
                        Response::Error {
                            id,
                            message: "worker unavailable".to_string(),
                        }
                        .render(),
                        "error",
                    )
                }
            };
        }
    }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// One worker's pop-execute loop. Returns on drain or after a caught
/// job panic (so the supervisor can count the respawn).
fn worker_iterations(shared: &Shared) -> WorkerExit {
    let engine = McEngine::new(shared.config.engine_threads.max(1)).with_kernel(shared.config.engine_kernel);
    loop {
        let job = match shared.queue.pop(Duration::from_millis(100)) {
            Pop::Item(job) => job,
            Pop::TimedOut => continue,
            Pop::Drained => return WorkerExit::Drained,
        };
        quva_obs::observe("serve.queue.depth", shared.queue.len() as f64);
        quva_obs::flight::note("serve", &format!("job {} start", job.id));
        let _span = quva_obs::span("serve", "job");
        match job.work {
            Work::InjectedPanic => {
                let caught = catch_unwind(AssertUnwindSafe(|| -> () { panic!("injected chaos panic") }));
                if let Err(payload) = caught {
                    shared.metrics.bump(Counter::WorkerPanics);
                    if let Some(dump) = &shared.dump {
                        dump.record("worker_panic", &job.id);
                    }
                    let _ = job.reply.send(JobOutcome::Failed(format!(
                        "worker panicked: {}",
                        panic_text(payload.as_ref())
                    )));
                    return WorkerExit::Respawn;
                }
            }
            Work::Run(resolved) => {
                let want_progress = resolved.spec.progress && resolved.spec.kind == JobKind::Simulate;
                let caught = if want_progress {
                    // Sender is !Sync and the engine calls back from
                    // its trial threads, so the clone lives behind a
                    // mutex. Frames are throttled to decile
                    // boundaries; the decile check and the send share
                    // one lock so the stream stays strictly monotone
                    // even when work-stealing completes chunks out of
                    // order.
                    let progress_state = Mutex::new((job.reply.clone(), 0u64));
                    let callback = |done: u64, total: u64| {
                        let decile = (done * 10).checked_div(total).unwrap_or(10);
                        let mut state = progress_state.lock().unwrap_or_else(PoisonError::into_inner);
                        if decile > state.1 {
                            state.1 = decile;
                            let _ = state.0.send(JobOutcome::Progress { done, total });
                        }
                    };
                    catch_unwind(AssertUnwindSafe(|| {
                        execute_with(&resolved, engine, Some(&callback))
                    }))
                } else {
                    catch_unwind(AssertUnwindSafe(|| execute(&resolved, engine)))
                };
                match caught {
                    Ok(Ok(text)) => {
                        let rendered: Arc<str> = Arc::from(text.as_str());
                        shared.cache.insert(resolved.key.clone(), Arc::clone(&rendered));
                        quva_obs::counter("serve.cache.insert", 1);
                        let _ = job.reply.send(JobOutcome::Done(rendered));
                    }
                    Ok(Err(message)) => {
                        let _ = job.reply.send(JobOutcome::Failed(message));
                    }
                    Err(payload) => {
                        shared.metrics.bump(Counter::WorkerPanics);
                        let _ = job.reply.send(JobOutcome::Failed(format!(
                            "worker panicked: {}",
                            panic_text(payload.as_ref())
                        )));
                        return WorkerExit::Respawn;
                    }
                }
            }
        }
    }
}

/// Worker supervisor: re-arms the loop after every caught panic and
/// flushes this thread's obs buffers before exiting.
fn worker_main(shared: &Arc<Shared>) {
    loop {
        match catch_unwind(AssertUnwindSafe(|| worker_iterations(shared))) {
            Ok(WorkerExit::Drained) => break,
            Ok(WorkerExit::Respawn) => {
                shared.metrics.bump(Counter::WorkerRespawns);
                // flush *before* the replacement loop starts: the
                // respawn counter and any records buffered before the
                // panic must be visible to a mid-run drain, not parked
                // in this thread's TLS until final exit
                quva_obs::flush();
            }
            Err(_) => {
                // a panic escaped the per-job guard (supervisor backstop)
                shared.metrics.bump(Counter::WorkerPanics);
                shared.metrics.bump(Counter::WorkerRespawns);
                if let Some(dump) = &shared.dump {
                    dump.record("worker_panic", "");
                }
                quva_obs::flush();
            }
        }
    }
    quva_obs::flush();
}

enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Stream {
    fn set_read_timeout(&self, timeout: Duration) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(Some(timeout)),
            #[cfg(unix)]
            Stream::Unix(s) => s.set_read_timeout(Some(timeout)),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

impl Listener {
    fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| {
                let _ = s.set_nodelay(true); // latency over batching
                Stream::Tcp(s)
            }),
            #[cfg(unix)]
            Listener::Unix(l, _) => l.accept().map(|(s, _)| Stream::Unix(s)),
        }
    }

    fn set_nonblocking(&self) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(true),
            #[cfg(unix)]
            Listener::Unix(l, _) => l.set_nonblocking(true),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

fn write_line(stream: &mut Stream, line: &str) -> io::Result<()> {
    // one write per frame: a separate 1-byte newline write interacts
    // with Nagle + delayed ACK and costs ~40ms per response on TCP
    let mut framed = Vec::with_capacity(line.len() + 1);
    framed.extend_from_slice(line.as_bytes());
    framed.push(b'\n');
    stream.write_all(&framed)?;
    stream.flush()
}

/// Reads frames off one connection until EOF, error, idle timeout, or
/// drain; answers every complete frame.
fn handle_connection(mut stream: Stream, shared: &Arc<Shared>) {
    let poll = Duration::from_millis(shared.config.idle_timeout_ms.clamp(1, 250));
    if stream.set_read_timeout(poll).is_err() {
        return;
    }
    let idle_limit = Duration::from_millis(shared.config.idle_timeout_ms.max(1));
    let mut pending: Vec<u8> = Vec::new();
    let mut buf = [0u8; 4096];
    let mut last_activity = Instant::now();
    loop {
        while let Some(pos) = pending.iter().position(|&b| b == b'\n') {
            let mut line: Vec<u8> = pending.drain(..=pos).collect();
            line.pop(); // strip '\n'
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            last_activity = Instant::now();
            if line.is_empty() {
                continue;
            }
            let outcome = match String::from_utf8(line) {
                Ok(text) => {
                    // progress frames stream through this closure while
                    // the connection thread waits on the job outcome
                    let mut emit = |frame: &str| write_line(&mut stream, frame);
                    shared.handle_frame(&text, &mut emit)
                }
                Err(_) => {
                    shared.metrics.bump(Counter::MalformedFrames);
                    shared.metrics.bump(Counter::Errors);
                    FrameOutcome::Reply(
                        Response::Error {
                            id: String::new(),
                            message: "frame is not valid UTF-8".to_string(),
                        }
                        .render(),
                    )
                }
            };
            match outcome {
                FrameOutcome::Reply(text) => {
                    if write_line(&mut stream, &text).is_err() {
                        return;
                    }
                }
                FrameOutcome::ReplyThenDrain(text) => {
                    // drain first: once the client reads this reply,
                    // the daemon must already report itself draining
                    shared.begin_drain();
                    let _ = write_line(&mut stream, &text);
                    return;
                }
            }
        }
        if pending.len() > shared.config.max_line_bytes {
            shared.metrics.bump(Counter::MalformedFrames);
            shared.metrics.bump(Counter::Errors);
            let _ = write_line(
                &mut stream,
                &Response::Error {
                    id: String::new(),
                    message: format!("frame exceeds {} bytes", shared.config.max_line_bytes),
                }
                .render(),
            );
            return;
        }
        if shared.draining() && pending.is_empty() {
            return;
        }
        match stream.read(&mut buf) {
            Ok(0) => return, // client closed; any queued work still completes
            Ok(n) => {
                pending.extend_from_slice(&buf[..n]);
                last_activity = Instant::now();
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
                if last_activity.elapsed() >= idle_limit {
                    if !pending.is_empty() {
                        // slow-loris: a frame stalled mid-line
                        let _ = write_line(
                            &mut stream,
                            &Response::Error {
                                id: String::new(),
                                message: "connection idle mid-frame".to_string(),
                            }
                            .render(),
                        );
                    }
                    return;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

fn accept_loop(listener: Listener, shared: &Arc<Shared>) {
    loop {
        if shared.draining() {
            break;
        }
        match listener.accept() {
            Ok(mut stream) => {
                let open = shared.active_connections.fetch_add(1, Ordering::SeqCst) + 1;
                if open > shared.config.max_connections {
                    shared.metrics.bump(Counter::ConnectionsRejected);
                    let _ = write_line(
                        &mut stream,
                        &Response::Overloaded {
                            id: String::new(),
                            retry_after_ms: shared.retry_hint_ms(),
                        }
                        .render(),
                    );
                    shared.active_connections.fetch_sub(1, Ordering::SeqCst);
                    continue;
                }
                shared.metrics.bump(Counter::Connections);
                let conn_shared = Arc::clone(shared);
                let handle = std::thread::spawn(move || {
                    handle_connection(stream, &conn_shared);
                    conn_shared.active_connections.fetch_sub(1, Ordering::SeqCst);
                    quva_obs::flush();
                });
                shared
                    .conn_handles
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(handle);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                // transient accept errors (e.g. aborted handshake)
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
    drop(listener); // removes a unix socket file
    quva_obs::flush();
}

/// A running daemon. Dropping the handle does **not** stop the server;
/// call [`ServerHandle::shutdown`] (or send a `shutdown` frame) and
/// then [`ServerHandle::join`].
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    local_addr: Option<SocketAddr>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("local_addr", &self.local_addr)
            .field("draining", &self.shared.draining())
            .finish()
    }
}

impl ServerHandle {
    /// The bound TCP address (None for unix-socket servers). With a
    /// `127.0.0.1:0` config this is where the ephemeral port lives.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.local_addr
    }

    /// Begins graceful drain: stop accepting, refuse new jobs, let
    /// in-flight jobs finish or deadline-expire. Idempotent.
    pub fn shutdown(&self) {
        self.shared.begin_drain();
    }

    /// Whether drain has begun (via [`ServerHandle::shutdown`] or a
    /// client `shutdown` frame).
    pub fn draining(&self) -> bool {
        self.shared.draining()
    }

    /// A point-in-time Prometheus-style text exposition — the same
    /// bytes the `metrics` verb returns (modulo timing-valued lines).
    pub fn exposition(&self) -> String {
        self.shared.render_exposition()
    }

    /// Blocks until the daemon has fully drained: accept loop stopped,
    /// every connection closed, the queue drained, every worker exited
    /// (each flushing its obs buffers). Returns the final metrics
    /// snapshot.
    ///
    /// Without a prior [`ServerHandle::shutdown`] this blocks until a
    /// client sends a `shutdown` frame — that is the daemon's normal
    /// "run until asked to stop" mode.
    pub fn join(mut self) -> String {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        loop {
            let handles: Vec<JoinHandle<()>> = {
                let mut guard = self
                    .shared
                    .conn_handles
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                guard.drain(..).collect()
            };
            if handles.is_empty() {
                break;
            }
            for h in handles {
                let _ = h.join();
            }
        }
        self.shared.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        quva_obs::flush();
        self.shared.stats().render_json()
    }
}

/// A `quva-serve` daemon instance.
#[derive(Debug)]
pub struct Server;

impl Server {
    /// Binds the configured socket and spawns the accept loop and
    /// worker pool.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the socket cannot be bound.
    pub fn spawn(config: ServerConfig) -> io::Result<ServerHandle> {
        let (listener, local_addr) = match &config.listen {
            Listen::Tcp(addr) => {
                let l = TcpListener::bind(addr)?;
                let local = l.local_addr()?;
                (Listener::Tcp(l), Some(local))
            }
            #[cfg(unix)]
            Listen::Unix(path) => {
                let _ = std::fs::remove_file(path);
                let l = UnixListener::bind(path)?;
                (Listener::Unix(l, path.clone()), None)
            }
        };
        listener.set_nonblocking()?;

        // the flight recorder is always on while a daemon runs: anomaly
        // dumps need the history from *before* the trigger
        quva_obs::flight::arm(config.flight_capacity);
        let dump = match &config.dump_dir {
            Some(dir) => Some(DumpSink::new(
                dir.clone(),
                config.dump_max_file_bytes,
                config.dump_max_total_bytes,
            )?),
            None => None,
        };
        let journal = match &config.journal_path {
            Some(path) => Some(Journal::new(path.clone(), config.journal_max_bytes)?),
            None => None,
        };

        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(config.queue_capacity),
            cache: ResultCache::new(config.cache_shards, config.cache_capacity_per_shard),
            metrics: ServeMetrics::default(),
            draining: AtomicBool::new(false),
            active_connections: AtomicUsize::new(0),
            conn_handles: Mutex::new(Vec::new()),
            started: Instant::now(),
            latency: LatencyRecorder::default(),
            dump,
            journal,
            workers_alive: AtomicU64::new(0),
            config,
        });

        let workers = (0..shared.config.workers.max(1))
            .map(|_| {
                let worker_shared = Arc::clone(&shared);
                worker_shared.workers_alive.fetch_add(1, Ordering::SeqCst);
                std::thread::spawn(move || {
                    worker_main(&worker_shared);
                    worker_shared.workers_alive.fetch_sub(1, Ordering::SeqCst);
                })
            })
            .collect();

        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::spawn(move || accept_loop(listener, &accept_shared));

        Ok(ServerHandle {
            shared,
            accept: Some(accept),
            workers,
            local_addr,
        })
    }
}
