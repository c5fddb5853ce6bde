//! `ledger` — the repository benchmark: one command that runs a named
//! workload from a seed, checks every output against an oracle that
//! does not share code with the path under test, and prints the
//! metrics `BENCHMARK.json` names as the last line of stdout.
//!
//! ```text
//! ledger --workload <policy-sweep|mc-sweep|serve-mixed> --seed N --seconds N --trace 0|1
//! ```
//!
//! With `--trace 0` the result carries the end-to-end metrics. With
//! `--trace 1` it carries the per-layer rows: self-time shares of each
//! layer's public calls, timed from this package only, which add up
//! with the `unattributed_share` row to the traced per-operation time
//! (`layer_total_us`). Lines before the result are a human-readable
//! ledger and a host record.

mod layers;
mod mc;
mod serve;
mod sweep;
mod util;

use std::fmt::Write as _;
use std::time::Instant;

use layers::{Layers, Slot};

/// The parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} expects a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds as f64,
        trace: trace.unwrap_or(false),
    })
}

/// What a workload measured. In a traced run the end-to-end fields
/// come from its untraced rounds and only feed the ledger lines.
#[derive(Debug, Default)]
pub struct Outcome {
    pub threads: usize,
    pub connections: usize,
    pub attempted: u64,
    pub failed: u64,
    /// Wall time of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Work units completed (cases, trials, ok responses) in `elapsed_s`.
    pub units: f64,
    pub elapsed_s: f64,
    /// Work units per second of each untraced round (or time window);
    /// their median is the reported throughput, which a burst of host
    /// noise in part of a run does not move.
    pub rates: Vec<f64>,
    /// Per-operation latency samples.
    pub latencies_us: Vec<f64>,
    /// Static ESP points of the workload's compiled outputs.
    pub esp: Vec<f64>,
    /// SWAPs inserted over the same outputs.
    pub swaps: u64,
    pub trace: Option<Trace>,
}

/// The traced rounds' accounting, which the [`Layers`] slots partition.
#[derive(Debug, Default)]
pub struct Trace {
    /// Traced end-to-end time the measured-phase slots add up to.
    pub measured_ns: f64,
    pub ops: u64,
    /// Traced set-up time the set-up slots add up to.
    pub setup_ns: f64,
    /// Traced over untraced per-operation time, minus one.
    pub overhead: f64,
    pub route_swaps: f64,
    pub trials: f64,
    pub cache_hit_ratio: f64,
}

/// Repeats a workload's set-up `reps` times and keeps the last state,
/// handing every earlier one to `teardown`.
pub fn repeat_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T),
) -> Result<(T, Vec<f64>, f64), String> {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for _ in 0..reps.max(1) {
        if let Some(old) = kept.take() {
            teardown(old);
        }
        let start = Instant::now();
        kept = Some(setup()?);
        times.push(start.elapsed().as_secs_f64());
    }
    let total: f64 = times.iter().sum();
    Ok((kept.ok_or("no set-up ran")?, times, total * 1e9))
}

/// The measured phase: latency samples of untraced and traced rounds.
#[derive(Debug, Default)]
pub struct Measured {
    pub plain_us: Vec<f64>,
    pub traced_us: Vec<f64>,
    pub failed: u64,
    pub elapsed_s: f64,
    /// Operations per second of each untraced round.
    pub op_rates: Vec<f64>,
}

impl Measured {
    pub fn ops(&self) -> u64 {
        (self.plain_us.len() + self.traced_us.len()) as u64
    }

    /// The traced rounds' totals; per-workload counts are filled in by
    /// the caller.
    pub fn trace(&self, setup_ns: f64) -> Trace {
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        Trace {
            measured_ns: self.traced_us.iter().sum::<f64>() * 1e3,
            ops: self.traced_us.len() as u64,
            setup_ns,
            overhead: mean(&self.traced_us) / mean(&self.plain_us) - 1.0,
            ..Trace::default()
        }
    }
}

/// Runs whole rounds (every case once, so each is equally weighted)
/// until `--seconds` have passed. In a traced run, rounds alternate
/// untraced and traced, so the tracing overhead compares like with
/// like. `round` pushes one latency per operation and returns its
/// failure count.
pub fn measure(args: &Args, layers: &Layers, mut round: impl FnMut(&mut Vec<f64>) -> u64) -> Measured {
    let mut m = Measured::default();
    let start = Instant::now();
    for k in 0.. {
        let traced = args.trace && k % 2 == 1;
        let samples = if traced { &mut m.traced_us } else { &mut m.plain_us };
        let (before, round_start) = (samples.len(), Instant::now());
        layers.set_tracing(traced);
        m.failed += round(samples);
        layers.set_tracing(false);
        if !traced {
            let ops = (m.plain_us.len() - before) as f64;
            m.op_rates.push(ops / round_start.elapsed().as_secs_f64());
        }
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    m.elapsed_s = start.elapsed().as_secs_f64();
    m
}

fn metric(out: &mut String, name: &str, value: f64, unit: &str, bad: &mut Vec<String>) {
    let value = if value.is_finite() {
        value
    } else {
        bad.push(name.to_string());
        0.0
    };
    if !out.is_empty() {
        out.push_str(", ");
    }
    let _ = write!(out, "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
}

fn end_to_end(o: &Outcome, bad: &mut Vec<String>) -> String {
    let mut lat = o.latencies_us.clone();
    lat.sort_by(f64::total_cmp);
    let mut m = String::new();
    metric(&mut m, "setup_s", util::median(&o.setup_s), "s", bad);
    metric(
        &mut m,
        "peak_rss_mb",
        util::peak_rss_mb().unwrap_or(f64::NAN),
        "MB",
        bad,
    );
    let ok = o.attempted.saturating_sub(o.failed) as f64 / o.attempted.max(1) as f64;
    metric(&mut m, "ok_frac", ok, "frac", bad);
    metric(&mut m, "throughput_per_s", util::median(&o.rates), "1/s", bad);
    metric(&mut m, "p50_us", util::percentile(&lat, 0.50), "us", bad);
    metric(&mut m, "p99_us", util::percentile(&lat, 0.99), "us", bad);
    metric(&mut m, "esp_geomean", util::geomean(&o.esp), "prob", bad);
    metric(&mut m, "swaps", o.swaps as f64, "count", bad);
    m
}

fn per_layer(t: &Trace, layers: &Layers, bad: &mut Vec<String>) -> String {
    let mut m = String::new();
    for setup in [false, true] {
        let total = if setup { t.setup_ns } else { t.measured_ns };
        for slot in Slot::ALL.into_iter().filter(|s| s.is_setup() == setup) {
            metric(
                &mut m,
                &format!("{}_share", slot.name()),
                layers.ns(slot) / total,
                "frac",
                bad,
            );
        }
        let rest = 1.0 - layers.total_ns(setup) / total;
        let name = if setup {
            "setup.unattributed_share"
        } else {
            "unattributed_share"
        };
        metric(&mut m, name, rest, "frac", bad);
    }
    metric(
        &mut m,
        "layer_total_us",
        t.measured_ns / t.ops.max(1) as f64 / 1e3,
        "us",
        bad,
    );
    metric(&mut m, "tracing_overhead", t.overhead, "frac", bad);
    metric(&mut m, "core.route_swaps", t.route_swaps, "count", bad);
    metric(&mut m, "sim.trials", t.trials, "count", bad);
    metric(&mut m, "serve.cache_hit_ratio", t.cache_hit_ratio, "frac", bad);
    m
}

/// Human-readable ledger rows: µs per operation and share per layer,
/// and the reconciliation of layers plus remainder against the total.
fn print_ledger(t: &Trace, layers: &Layers) {
    let ops = t.ops.max(1) as f64;
    println!("# layer                        us/op      share");
    for slot in Slot::ALL.into_iter().filter(|s| !s.is_setup()) {
        let ns = layers.ns(slot);
        if ns > 0.0 {
            println!(
                "# {:<26} {:>10.2} {:>10.4}",
                slot.name(),
                ns / ops / 1e3,
                ns / t.measured_ns
            );
        }
    }
    let layered = layers.total_ns(false);
    let rest = t.measured_ns - layered;
    println!(
        "# {:<26} {:>10.2} {:>10.4}",
        "unattributed",
        rest / ops / 1e3,
        rest / t.measured_ns
    );
    println!(
        "# reconcile: layers {:.1} us + unattributed {:.1} us = traced total {:.1} us over {} ops; \
         tracing overhead {:+.2}%",
        layered / 1e3,
        rest / 1e3,
        t.measured_ns / 1e3,
        t.ops,
        t.overhead * 100.0
    );
    for slot in Slot::ALL.into_iter().filter(|s| s.is_setup()) {
        let ns = layers.ns(slot);
        if ns > 0.0 {
            println!(
                "# {:<26} {:>10.2} ms {:>8.4} of set-up",
                slot.name(),
                ns / 1e6,
                ns / t.setup_ns
            );
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ledger: {e}");
            std::process::exit(2);
        }
    };
    let layers = Layers::default();
    let result = match args.workload.as_str() {
        "policy-sweep" => sweep::run(&args, &layers),
        "mc-sweep" => mc::run(&args, &layers),
        "serve-mixed" => serve::run(&args, &layers),
        other => Err(format!(
            "unknown workload {other} (policy-sweep, mc-sweep, serve-mixed)"
        )),
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("ledger: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };

    println!(
        "{}",
        util::host_record(&args.workload, outcome.threads, outcome.connections)
    );
    println!(
        "# {} ops, {:.0} units in {:.3} s; p99 over {} samples ({} beyond it)",
        outcome.latencies_us.len(),
        outcome.units,
        outcome.elapsed_s,
        outcome.latencies_us.len(),
        outcome.latencies_us.len() / 100
    );
    let mut rates = outcome.rates.clone();
    rates.sort_by(f64::total_cmp);
    println!(
        "# throughput over {} rounds: p25 {:.6e}, p50 {:.6e}, p75 {:.6e} per s",
        rates.len(),
        util::percentile(&rates, 0.25),
        util::percentile(&rates, 0.5),
        util::percentile(&rates, 0.75)
    );
    if outcome.latencies_us.len() < 1000 {
        println!("# warning: fewer than 1000 latency samples, p99 has under 10 samples beyond it");
    }
    let mut bad = Vec::new();
    let metrics = match (&outcome.trace, args.trace) {
        (Some(t), true) => {
            print_ledger(t, &layers);
            per_layer(t, &layers, &mut bad)
        }
        (_, false) => end_to_end(&outcome, &mut bad),
        (None, true) => {
            eprintln!("ledger: {}: traced run produced no trace", args.workload);
            std::process::exit(1);
        }
    };
    if !bad.is_empty() {
        eprintln!("ledger: non-finite metrics: {}", bad.join(", "));
    }
    let correct = outcome.failed == 0 && bad.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.attempted.max(1),
        outcome.failed
    );
}
