//! # quva-obs — deterministic tracing and metrics for the quva pipeline
//!
//! A zero-dependency observability layer shared by the compiler
//! (`quva`), the Monte-Carlo engine (`quva-sim`), and the experiment
//! harness (`quva-bench`). It records three kinds of signal:
//!
//! * **spans** — RAII-guarded intervals with monotonic timestamps
//!   ([`span`]), exported as Chrome `trace_event` complete events;
//! * **counters** — named `u64` accumulators ([`counter`]), merged by
//!   addition so the result is independent of thread schedule;
//! * **histograms** — named `f64` observations ([`observe`]) reduced to
//!   count/sum/min/max;
//!
//! plus **warn events** ([`warn`]): structured diagnostics that are
//! capturable in traces without altering a command's stdout/stderr
//! contract.
//!
//! # Determinism contract
//!
//! Every thread records into a thread-local buffer; buffers merge into
//! the process-wide recorder on [`flush`] (worker threads call it as
//! their last act; [`drain`] flushes the calling thread, and a
//! thread-local destructor backstops threads that forget). Counter merging is `u64` addition — associative
//! and commutative — so for a deterministic workload the drained
//! counter values are **identical for every thread count and every
//! work-stealing schedule**. Histograms merged across threads are
//! order-independent in `count`/`min`/`max`; instrumented code
//! therefore only records histograms from deterministic (single-thread)
//! contexts when the value feeds the metrics report. Timestamps are
//! excluded from [`TraceReport::render_metrics_text`] for the same
//! reason.
//!
//! # Overhead contract
//!
//! The recorder defaults to **off**: every entry point first checks one
//! relaxed atomic ([`enabled`]) and returns without allocating. The
//! disabled-path cost is gated in `quva-bench`'s `bench_sim` (< 2 % on
//! the Monte-Carlo hot loop).
//!
//! # Examples
//!
//! ```
//! quva_obs::reset();
//! quva_obs::enable();
//! {
//!     let _s = quva_obs::span("compile", "compile.route");
//!     quva_obs::counter("route.swaps_inserted", 3);
//!     quva_obs::observe("route.excess_weight", 0.25);
//! }
//! let report = quva_obs::drain();
//! quva_obs::disable();
//! assert_eq!(report.counters["route.swaps_inserted"], 3);
//! assert_eq!(report.spans.len(), 1);
//! assert!(report.to_chrome_json().contains("\"ph\": \"X\""));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod flight;
mod json;
mod trace;

pub use json::{
    json_escape, parse_json, parse_json_lenient, schema_summary, validate_chrome_trace, JsonValue,
    TraceStats, MAX_JSON_DEPTH,
};
pub use trace::{Histogram, SpanRecord, TraceReport, WarnRecord};

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Whether the recorder is collecting. Relaxed is sufficient: the flag
/// gates best-effort telemetry, never data the computation depends on.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Process-wide recorder state, created on first use.
struct Shared {
    /// The monotonic origin every timestamp is relative to.
    epoch: Instant,
    /// Merged records from exited threads and [`drain`] flushes.
    data: Mutex<GlobalData>,
    /// Small sequential ids handed to recording threads.
    next_tid: AtomicU64,
    /// Bumped by [`reset`]; stale thread-local buffers from an earlier
    /// generation are discarded instead of merged.
    generation: AtomicU64,
}

#[derive(Default)]
struct GlobalData {
    spans: Vec<SpanRecord>,
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, Histogram>,
    warns: Vec<WarnRecord>,
}

impl GlobalData {
    fn absorb(&mut self, buf: &mut LocalData) {
        self.spans.append(&mut buf.spans);
        for (k, v) in std::mem::take(&mut buf.counters) {
            *self.counters.entry(k).or_insert(0) += v;
        }
        for (k, h) in std::mem::take(&mut buf.hists) {
            self.hists.entry(k).or_default().merge(&h);
        }
        self.warns.append(&mut buf.warns);
    }
}

fn shared() -> &'static Shared {
    static SHARED: OnceLock<Shared> = OnceLock::new();
    SHARED.get_or_init(|| Shared {
        epoch: Instant::now(),
        data: Mutex::new(GlobalData::default()),
        next_tid: AtomicU64::new(0),
        generation: AtomicU64::new(0),
    })
}

/// Elapsed microseconds since the recorder epoch (monotonic).
fn now_us() -> u64 {
    (shared().epoch.elapsed().as_nanos() / 1_000) as u64
}

/// Recorder-assigned id of the calling thread (the buffer is created on
/// demand; stays 0 during thread teardown, when the TLS slot is gone).
pub(crate) fn local_tid() -> u64 {
    let mut tid = 0;
    with_local(|t, _| tid = t);
    tid
}

#[derive(Default)]
struct LocalData {
    spans: Vec<SpanRecord>,
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, Histogram>,
    warns: Vec<WarnRecord>,
}

/// Per-thread buffer; merges into the global recorder on thread exit.
struct LocalBuf {
    tid: u64,
    generation: u64,
    data: LocalData,
}

impl LocalBuf {
    fn new() -> Self {
        let sh = shared();
        LocalBuf {
            tid: sh.next_tid.fetch_add(1, Ordering::Relaxed),
            generation: sh.generation.load(Ordering::Relaxed),
            data: LocalData::default(),
        }
    }
}

impl Drop for LocalBuf {
    fn drop(&mut self) {
        let sh = shared();
        // a buffer from before the last reset() is stale test/command
        // state: discard it rather than polluting the new session
        if self.generation != sh.generation.load(Ordering::Relaxed) {
            return;
        }
        if let Ok(mut global) = sh.data.lock() {
            global.absorb(&mut self.data);
        }
    }
}

thread_local! {
    static LOCAL: RefCell<Option<LocalBuf>> = const { RefCell::new(None) };
}

/// Runs `f` against this thread's buffer (created or renewed on
/// demand). No-op during thread teardown, when the TLS slot is gone.
fn with_local<F: FnOnce(u64, &mut LocalData)>(f: F) {
    let _ = LOCAL.try_with(|cell| {
        let Ok(mut slot) = cell.try_borrow_mut() else {
            return; // re-entrant recording (e.g. from a Drop) is dropped
        };
        let current_gen = shared().generation.load(Ordering::Relaxed);
        let renew = slot.as_ref().is_some_and(|b| b.generation != current_gen);
        if renew {
            *slot = None; // stale generation: Drop discards it
        }
        let buf = slot.get_or_insert_with(LocalBuf::new);
        f(buf.tid, &mut buf.data);
    });
}

/// Turns the recorder on. Until [`disable`] (or [`reset`]), spans,
/// counters, histograms, and warn events are collected.
pub fn enable() {
    shared(); // pin the epoch before the first timestamp
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns the recorder off. Already-collected records are kept until
/// [`drain`] or [`reset`].
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether the recorder is currently collecting. One relaxed atomic
/// load — cheap enough for per-gate call sites; hot loops should still
/// hoist it once per run.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Disables the recorder and discards everything collected so far, in
/// every thread (stale thread-local buffers are dropped on their next
/// use or exit). The clean-slate primitive commands and tests start
/// sessions with.
pub fn reset() {
    disable();
    let sh = shared();
    sh.generation.fetch_add(1, Ordering::Relaxed);
    // drop this thread's buffer under the *new* generation: discarded
    let _ = LOCAL.try_with(|cell| {
        if let Ok(mut slot) = cell.try_borrow_mut() {
            *slot = None;
        }
    });
    if let Ok(mut global) = sh.data.lock() {
        *global = GlobalData::default();
    }
}

/// An in-flight span: records a Chrome `X` (complete) event over its
/// lifetime when the recorder was enabled at creation.
///
/// Created by [`span`]; the interval closes when the guard drops.
#[derive(Debug)]
#[must_use = "a span records its interval when dropped"]
pub struct Span {
    start_us: u64,
    cat: String,
    name: String,
    active: bool,
    main: bool,
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let end_us = now_us();
        let dur_us = end_us.saturating_sub(self.start_us);
        // the flight mirror runs outside with_local: its own tid lookup
        // must not hit the already-borrowed TLS slot
        if flight::armed() {
            flight::record_span(&self.cat, &self.name, self.start_us, dur_us);
        }
        if !self.main {
            return;
        }
        let record = SpanRecord {
            cat: std::mem::take(&mut self.cat),
            name: std::mem::take(&mut self.name),
            start_us: self.start_us,
            dur_us,
            tid: 0,
        };
        with_local(|tid, data| {
            data.spans.push(SpanRecord { tid, ..record });
        });
    }
}

/// Opens a span named `name` under category `cat`. The interval is
/// recorded by the main recorder when [`enabled`], and mirrored into
/// the [`flight`] ring when armed. With both off this allocates
/// nothing and the guard is inert.
pub fn span(cat: &str, name: &str) -> Span {
    let main = enabled();
    if !main && !flight::armed() {
        return Span {
            start_us: 0,
            cat: String::new(),
            name: String::new(),
            active: false,
            main: false,
        };
    }
    Span {
        start_us: now_us(),
        cat: cat.to_string(),
        name: name.to_string(),
        active: true,
        main,
    }
}

/// Adds `n` to the named counter. Merging is `u64` addition, so
/// drained totals are independent of thread count and schedule.
pub fn counter(name: &str, n: u64) {
    if !enabled() || n == 0 {
        return;
    }
    with_local(|_, data| match data.counters.get_mut(name) {
        Some(slot) => *slot += n,
        None => {
            data.counters.insert(name.to_string(), n);
        }
    });
}

/// Records one observation into the named histogram
/// (count/sum/min/max). Values that feed the deterministic metrics
/// report must be recorded from a deterministic context — see the
/// crate-level determinism contract.
pub fn observe(name: &str, value: f64) {
    if !enabled() {
        return;
    }
    with_local(|_, data| match data.hists.get_mut(name) {
        Some(h) => h.record(value),
        None => {
            let mut h = Histogram::default();
            h.record(value);
            data.hists.insert(name.to_string(), h);
        }
    });
}

/// Records a warn-level event: a structured diagnostic that shows up
/// in traces and metrics reports without touching stdout/stderr. Also
/// mirrored into the [`flight`] ring when armed.
pub fn warn(cat: &str, message: &str) {
    let main = enabled();
    let armed = flight::armed();
    if !main && !armed {
        return;
    }
    let ts_us = now_us();
    if armed {
        flight::record_warn(cat, message, ts_us);
    }
    if !main {
        return;
    }
    with_local(|tid, data| {
        data.warns.push(WarnRecord {
            cat: cat.to_string(),
            message: message.to_string(),
            ts_us,
            tid,
        });
    });
}

/// Merges the calling thread's buffer into the global recorder now.
///
/// Worker threads must call this as their last act: thread-local
/// destructors are **not** guaranteed to have run by the time a
/// `thread::scope` (or `join`) returns, so without an explicit flush a
/// subsequent [`drain`] on the parent thread can miss late merges. The
/// destructor-time merge still exists, but only as a backstop.
pub fn flush() {
    let _ = LOCAL.try_with(|cell| {
        if let Ok(mut slot) = cell.try_borrow_mut() {
            *slot = None; // LocalBuf::drop merges into the global
        }
    });
}

/// Flushes the calling thread's buffer and takes everything merged so
/// far as a [`TraceReport`]. The recorder's enabled state is
/// unchanged; collected data is consumed.
///
/// Live threads other than the caller are *not* drained — workers call
/// [`flush`] before exiting, and callers drain after joining them.
pub fn drain() -> TraceReport {
    flush();
    let mut data = match shared().data.lock() {
        Ok(mut g) => std::mem::take(&mut *g),
        Err(_) => GlobalData::default(),
    };
    data.spans.sort_by(|a, b| {
        (a.start_us, a.tid, std::cmp::Reverse(a.dur_us))
            .cmp(&(b.start_us, b.tid, std::cmp::Reverse(b.dur_us)))
            .then_with(|| a.name.cmp(&b.name))
    });
    data.warns.sort_by(|a, b| {
        (a.ts_us, a.tid)
            .cmp(&(b.ts_us, b.tid))
            .then_with(|| (a.cat.as_str(), a.message.as_str()).cmp(&(b.cat.as_str(), b.message.as_str())))
    });
    TraceReport {
        spans: data.spans,
        counters: data.counters,
        histograms: data.hists,
        warnings: data.warns,
    }
}

#[cfg(test)]
pub(crate) mod tests_support {
    use std::sync::{Mutex, MutexGuard};

    /// The recorder and the flight ring are process-global; every test
    /// in this crate that touches either serializes on this one lock
    /// (per-module locks would not serialize across modules).
    pub(crate) fn guard() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::guard;
    use super::*;

    #[test]
    fn disabled_recorder_collects_nothing() {
        let _g = guard();
        reset();
        {
            let _s = span("t", "t.span");
            counter("t.count", 5);
            observe("t.hist", 1.0);
            warn("t", "nope");
        }
        let report = drain();
        assert!(report.spans.is_empty());
        assert!(report.counters.is_empty());
        assert!(report.histograms.is_empty());
        assert!(report.warnings.is_empty());
    }

    #[test]
    fn spans_counters_hists_and_warns_roundtrip() {
        let _g = guard();
        reset();
        enable();
        {
            let _outer = span("t", "t.outer");
            let _inner = span("t", "t.inner");
            counter("t.count", 2);
            counter("t.count", 3);
            observe("t.hist", 1.0);
            observe("t.hist", 3.0);
            warn("t", "something drifted");
        }
        let report = drain();
        disable();
        assert_eq!(report.spans.len(), 2);
        assert_eq!(report.counters["t.count"], 5);
        let h = &report.histograms["t.hist"];
        assert_eq!(h.count, 2);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 3.0);
        assert!((h.mean() - 2.0).abs() < 1e-12);
        assert_eq!(report.warnings.len(), 1);
        assert_eq!(report.warnings[0].message, "something drifted");
        // inner closed before outer: containment in timestamps
        let outer = report.spans.iter().find(|s| s.name == "t.outer").expect("outer");
        let inner = report.spans.iter().find(|s| s.name == "t.inner").expect("inner");
        assert!(inner.start_us >= outer.start_us);
        assert!(inner.start_us + inner.dur_us <= outer.start_us + outer.dur_us);
    }

    #[test]
    fn worker_thread_buffers_merge_at_exit() {
        let _g = guard();
        reset();
        enable();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    {
                        let _s = span("t", "t.worker");
                        counter("t.work", 10);
                    }
                    flush();
                });
            }
        });
        let report = drain();
        disable();
        assert_eq!(report.counters["t.work"], 40);
        assert_eq!(report.spans.iter().filter(|s| s.name == "t.worker").count(), 4);
        // distinct threads got distinct tids
        let tids: std::collections::HashSet<u64> = report.spans.iter().map(|s| s.tid).collect();
        assert_eq!(tids.len(), 4);
    }

    #[test]
    fn counter_totals_are_schedule_independent() {
        let _g = guard();
        let run_with = |threads: usize| -> BTreeMap<String, u64> {
            reset();
            enable();
            std::thread::scope(|scope| {
                for t in 0..threads {
                    scope.spawn(move || {
                        for i in 0..100u64 {
                            counter("t.ticks", 1);
                            if (t + i as usize).is_multiple_of(3) {
                                counter("t.thirds", 1);
                            }
                        }
                        flush();
                    });
                }
            });
            let report = drain();
            disable();
            report.counters
        };
        // the same logical work split 1 vs 8 ways drains identically…
        let one = run_with(1);
        assert_eq!(one["t.ticks"], 100);
        // …per-thread work scales, totals stay schedule-independent
        let eight_a = run_with(8);
        let eight_b = run_with(8);
        assert_eq!(eight_a, eight_b);
        assert_eq!(eight_a["t.ticks"], 800);
    }

    #[test]
    fn reset_discards_pending_records() {
        let _g = guard();
        reset();
        enable();
        counter("t.stale", 1);
        reset(); // discards, disables
        enable();
        counter("t.fresh", 1);
        let report = drain();
        disable();
        assert!(!report.counters.contains_key("t.stale"));
        assert_eq!(report.counters["t.fresh"], 1);
    }

    #[test]
    fn drain_consumes() {
        let _g = guard();
        reset();
        enable();
        counter("t.once", 1);
        let first = drain();
        let second = drain();
        disable();
        assert_eq!(first.counters["t.once"], 1);
        assert!(second.counters.is_empty());
    }

    #[test]
    fn span_guard_is_inert_when_disabled_mid_flight() {
        let _g = guard();
        reset();
        let s = span("t", "t.never"); // created disabled → inert
        enable();
        drop(s);
        let report = drain();
        disable();
        assert!(report.spans.is_empty());
    }
}
