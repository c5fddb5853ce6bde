//! Machine-readable simulator benchmark: times the Monte-Carlo trial
//! kernels (the scalar oracle and the production bit-parallel SWAR
//! kernel) and the parallel [`McEngine`] at 1/2/4/8 threads, writes
//! `BENCH_sim.json` (schema `quva-bench-sim/v2`), and (with
//! `--check`) gates CI on wall-clock regressions against a committed
//! baseline.
//!
//! The workload (`run_trials/bv-16` in the JSON) is bv-16 compiled
//! with the baseline policy onto IBM-Q20, faults injected per gate
//! event. Regressions are judged on normalized
//! ns/trial so `--quick` runs remain comparable to a full baseline.
//!
//! ```text
//! bench_sim [--trials N] [--reps N] [--quick] [--out PATH]
//!           [--check BASELINE] [--tolerance FRAC]
//! ```
//!
//! Exit status is non-zero when `--check` finds the bit-parallel
//! kernel more than `--tolerance` (default 0.15) slower per trial
//! than the baseline's `bitparallel` row, when the bit-parallel
//! kernel fails to run >= 10x faster than the scalar oracle (judged
//! against the better of the same-run scalar row and the committed
//! baseline's scalar row), when a host with >= 4 CPUs fails to reach
//! a 2x speedup at 4 threads (on smaller hosts the assertion is
//! visibly skipped, not silently passed), or when the
//! disabled-tracing dispatch (`McEngine::run` with the `quva-obs`
//! recorder off) costs more than 5% over the uninstrumented reference
//! loop (`McEngine::run_reference`). The obs threshold was 2% in the
//! scalar era (1.5 ns of 75 ns/trial); at the bit-parallel kernel's
//! ~8 ns/trial, 2% is ~160 ps — below timing resolution on a shared
//! runner — so the gate now allows 5%, still far below the cost of
//! any real dispatch-path regression.

use quva::MappingPolicy;
use quva_analysis::{cost_envelope, total_events, CostModel};
use quva_bench::cost_check::{violations, CostCheck};
use quva_device::Device;
use quva_sim::{CoherenceModel, FailureProfile, McEngine, McKernel};
use std::time::Instant;

/// One timed engine configuration.
struct Row {
    name: &'static str,
    threads: usize,
    ns: u128,
    ns_per_trial: f64,
}

struct Config {
    trials: u64,
    reps: u32,
    out: String,
    check: Option<String>,
    tolerance: f64,
}

fn parse_args() -> Config {
    let mut cfg = Config {
        trials: 1_000_000,
        reps: 3,
        out: "BENCH_sim.json".into(),
        check: None,
        tolerance: 0.15,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| die(&format!("{flag} requires a value")))
        };
        match arg.as_str() {
            "--trials" => {
                cfg.trials = value("--trials")
                    .parse()
                    .unwrap_or_else(|_| die("--trials expects an integer"));
            }
            "--reps" => {
                cfg.reps = value("--reps")
                    .parse()
                    .unwrap_or_else(|_| die("--reps expects an integer"));
            }
            "--quick" => {
                cfg.trials = 200_000;
                cfg.reps = 3;
            }
            "--out" => cfg.out = value("--out"),
            "--check" => cfg.check = Some(value("--check")),
            "--tolerance" => {
                cfg.tolerance = value("--tolerance")
                    .parse()
                    .unwrap_or_else(|_| die("--tolerance expects a fraction"));
            }
            other => die(&format!("unknown argument `{other}`")),
        }
    }
    if cfg.trials == 0 || cfg.reps == 0 {
        die("--trials and --reps must be positive");
    }
    cfg
}

fn die(msg: &str) -> ! {
    eprintln!("bench_sim: {msg}");
    std::process::exit(2);
}

/// Best-of-`reps` per-invocation wall clock of `f`, after one warm-up
/// invocation that doubles as a batch-size estimate.
///
/// The bit-parallel kernel finishes a `--quick` workload in ~2 ms —
/// short enough that a single invocation is at the mercy of scheduler
/// noise on a shared CI runner. Each timed sample therefore batches
/// enough invocations to span >= 50 ms and reports the per-invocation
/// mean, which keeps normalized ns/trial comparable between `--quick`
/// runs and the full committed baseline.
fn best_of<F: FnMut()>(reps: u32, mut f: F) -> u128 {
    let start = Instant::now();
    f();
    let once = start.elapsed().as_nanos().max(1);
    let iters = u128::min(50_000_000 / once, 63) as u32 + 1;
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() / u128::from(iters)
        })
        .min()
        .unwrap_or(0)
}

/// Best-of-`reps` wall clock for one engine configuration.
fn time_engine(engine: &McEngine, profile: &FailureProfile, trials: u64, reps: u32) -> u128 {
    best_of(reps, || {
        std::hint::black_box(engine.run(profile, trials, 1));
    })
}

/// Interleaved best-of comparison of two timed closures: per-
/// invocation best-of-`reps` for each side, alternating A and B
/// batches rep by rep so slow host-state drift (thermal throttling, a
/// neighbour VM waking up) hits both sides equally instead of biasing
/// whichever side ran last. Ratios of the two sides are therefore far
/// more stable than ratios of independently timed rows.
fn best_of_pair<A: FnMut(), B: FnMut()>(reps: u32, mut a: A, mut b: B) -> (u128, u128) {
    let iters_of = |once: u128| u128::min(50_000_000 / once.max(1), 63) + 1;
    let start = Instant::now();
    a();
    let ia = iters_of(start.elapsed().as_nanos());
    let start = Instant::now();
    b();
    let ib = iters_of(start.elapsed().as_nanos());
    let mut best_a = u128::MAX;
    let mut best_b = u128::MAX;
    for _ in 0..reps {
        let start = Instant::now();
        for _ in 0..ia {
            a();
        }
        best_a = best_a.min(start.elapsed().as_nanos() / ia);
        let start = Instant::now();
        for _ in 0..ib {
            b();
        }
        best_b = best_b.min(start.elapsed().as_nanos() / ib);
    }
    (best_a, best_b)
}

/// Disabled-recorder overhead of the observability layer: with the
/// recorder off, `McEngine::run` dispatches to the reference loop
/// after one relaxed atomic load, so its best-of-`reps` wall clock
/// must track `McEngine::run_reference` to within noise. Returns the
/// fractional overhead (`dispatch / reference - 1`, may be negative).
fn measure_obs_overhead(profile: &FailureProfile, trials: u64, reps: u32) -> f64 {
    assert!(!quva_obs::enabled(), "overhead baseline needs the recorder off");
    let engine = McEngine::sequential();
    let (dispatch, reference) = best_of_pair(
        reps.max(3),
        || {
            std::hint::black_box(engine.run(profile, trials, 1));
        },
        || {
            std::hint::black_box(engine.run_reference(profile, trials, 1));
        },
    );
    if reference == 0 || reference == u128::MAX {
        return 0.0;
    }
    dispatch as f64 / reference as f64 - 1.0
}

/// Same-run kernel ratio: scalar-oracle ns/trial over bit-parallel
/// ns/trial, interleaved so both kernels see the same host phases.
fn measure_kernel_ratio(profile: &FailureProfile, trials: u64, reps: u32) -> f64 {
    let bp_engine = McEngine::sequential();
    let scalar_engine = McEngine::sequential().with_kernel(McKernel::Scalar);
    let (bp, scalar) = best_of_pair(
        reps,
        || {
            std::hint::black_box(bp_engine.run(profile, trials, 1));
        },
        || {
            std::hint::black_box(scalar_engine.run(profile, trials, 1));
        },
    );
    if bp == 0 || bp == u128::MAX {
        return 1.0;
    }
    scalar as f64 / bp as f64
}

/// Pulls `"key": <number>` out of a hand-rolled JSON line.
fn extract_f64(line: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\":");
    let rest = &line[line.find(&tag)? + tag.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// A named row's normalized ns/trial, read from a previous
/// `BENCH_sim.json`.
fn baseline_row_ns_per_trial(text: &str, name: &str) -> Option<f64> {
    let tag = format!("\"name\": \"{name}\"");
    text.lines()
        .find(|l| l.contains(&tag))
        .and_then(|l| extract_f64(l, "ns_per_trial"))
}

/// The baseline row the regression gate compares against: the
/// `bitparallel` row of a v2 file, or the `sequential` row of a
/// pre-kernel v1 file (which timed the then-default scalar loop).
fn baseline_gate_ns_per_trial(text: &str, path: &str) -> f64 {
    baseline_row_ns_per_trial(text, "bitparallel")
        .or_else(|| baseline_row_ns_per_trial(text, "sequential"))
        .unwrap_or_else(|| {
            die(&format!(
                "baseline {path} has no bitparallel or sequential ns_per_trial"
            ))
        })
}

fn main() {
    let cfg = parse_args();
    let device = Device::ibm_q20();
    let program = quva_benchmarks::bv(16);
    let compile_start = Instant::now();
    let compiled = MappingPolicy::baseline()
        .compile(&program, &device)
        .expect("bv-16 compiles on ibm-q20");
    let compile_ns = compile_start.elapsed().as_nanos() as f64;
    let profile = FailureProfile::new(&device, compiled.physical(), CoherenceModel::Disabled)
        .expect("compiled circuit is routed");
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    let configs: [(&str, McEngine); 6] = [
        ("scalar", McEngine::sequential().with_kernel(McKernel::Scalar)),
        ("bitparallel", McEngine::sequential()),
        ("threads-1", McEngine::new(1)),
        ("threads-2", McEngine::new(2)),
        ("threads-4", McEngine::new(4)),
        ("threads-8", McEngine::new(8)),
    ];
    assert_eq!(
        configs[1].1.kernel(),
        McKernel::BitParallel,
        "the default kernel is bit-parallel"
    );

    // Every bit-parallel configuration must sample the identical
    // estimate before we bother timing it — the gate doubles as a
    // determinism check. The scalar oracle is a *different*
    // deterministic sample, checked for its own thread-invariance.
    let reference = configs[1].1.run(&profile, cfg.trials, 1);
    for (name, engine) in &configs[2..] {
        let est = engine.run(&profile, cfg.trials, 1);
        assert!(
            est.pst.to_bits() == reference.pst.to_bits() && est.trials == reference.trials,
            "{name} diverged from the sequential bit-parallel estimate"
        );
    }
    let oracle = configs[0].1.run(&profile, cfg.trials, 1);
    let oracle_mt = McEngine::new(4)
        .with_kernel(McKernel::Scalar)
        .run(&profile, cfg.trials, 1);
    assert!(
        oracle.pst.to_bits() == oracle_mt.pst.to_bits(),
        "the scalar oracle diverged across thread counts"
    );
    assert!(
        oracle.successes != reference.successes || cfg.trials < 1_000,
        "scalar and bit-parallel drew the same sample — the kernels are aliased"
    );

    let rows: Vec<Row> = configs
        .iter()
        .map(|(name, engine)| {
            let ns = time_engine(engine, &profile, cfg.trials, cfg.reps);
            eprintln!(
                "{name:<12} {ns:>12} ns  ({:.2} ns/trial)",
                ns as f64 / cfg.trials as f64
            );
            Row {
                name,
                threads: engine.threads(),
                ns,
                ns_per_trial: ns as f64 / cfg.trials as f64,
            }
        })
        .collect();

    let obs_overhead = measure_obs_overhead(&profile, cfg.trials, cfg.reps);
    eprintln!(
        "obs dispatch overhead (recorder off): {:+.2}%",
        obs_overhead * 100.0
    );

    let row_ns = |name: &str| {
        rows.iter()
            .find(|r| r.name == name)
            .map(|r| r.ns_per_trial)
            .unwrap_or_else(|| die(&format!("missing {name} row")))
    };
    let bp = row_ns("bitparallel");
    // the headline ratio is measured interleaved, not derived from the
    // independently timed rows — row timings land in different host
    // phases and their quotient wobbles far more than the kernels do
    let speedup_vs_scalar = measure_kernel_ratio(&profile, cfg.trials, cfg.reps);
    let speedup_4t = bp / row_ns("threads-4");
    eprintln!("bit-parallel vs scalar oracle (interleaved): {speedup_vs_scalar:.1}x");

    // Envelope-validation stage: predict [lo, hi] wall-clock bounds
    // from the *logical* circuit with the shipped default CostModel
    // (the model quvad admits jobs on), then require this run's
    // measured compile and sequential Monte-Carlo times to land inside
    // the band. The slack factors making this fair across host speeds
    // are part of the model (`CostModel::mc_slack` / `compile_slack`).
    let envelope = cost_envelope(&device, &program, cfg.trials, &CostModel::default());
    let checks = [
        CostCheck {
            resource: "compile_ns",
            measured_ns: compile_ns,
            bound: envelope.compile_ns,
        },
        CostCheck {
            resource: "mc_ns",
            measured_ns: bp * cfg.trials as f64,
            bound: envelope.mc_ns,
        },
    ];
    let envelope_violations = violations("run_trials/bv-16/ibm-q20/baseline", &checks);
    for v in &envelope_violations {
        eprintln!("bench_sim: envelope {v}");
    }
    let envelope_holds = envelope_violations.is_empty();
    eprintln!("envelope: {}", if envelope_holds { "HOLDS" } else { "VIOLATED" });

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"quva-bench-sim/v2\",\n");
    json.push_str("  \"workload\": \"run_trials/bv-16/ibm-q20/baseline\",\n");
    json.push_str(&format!("  \"trials\": {},\n", cfg.trials));
    json.push_str(&format!("  \"reps\": {},\n", cfg.reps));
    json.push_str(&format!("  \"host_threads\": {host_threads},\n"));
    json.push_str("  \"results\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        // the bitparallel row carries its headline ratio so the gate
        // (and readers of the committed file) need not recompute it
        let extra = if row.name == "bitparallel" {
            format!(", \"speedup_vs_scalar\": {speedup_vs_scalar}")
        } else {
            String::new()
        };
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"threads\": {}, \"ns\": {}, \"ns_per_trial\": {}{extra}}}{comma}\n",
            row.name, row.threads, row.ns, row.ns_per_trial
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"envelope\": {{\"compile_lo_ns\": {}, \"compile_hi_ns\": {}, \"measured_compile_ns\": {}, \
         \"mc_lo_ns\": {}, \"mc_hi_ns\": {}, \"measured_mc_ns\": {}, \"holds\": {envelope_holds}}},\n",
        envelope.compile_ns.lo,
        envelope.compile_ns.hi,
        compile_ns,
        envelope.mc_ns.lo,
        envelope.mc_ns.hi,
        (bp * cfg.trials as f64) as u64,
    ));
    json.push_str(&format!("  \"obs_overhead\": {obs_overhead},\n"));
    json.push_str(&format!("  \"speedup_4t\": {speedup_4t}\n"));
    json.push_str("}\n");
    std::fs::write(&cfg.out, &json).unwrap_or_else(|e| die(&format!("cannot write {}: {e}", cfg.out)));
    println!(
        "wrote {} (bit-parallel {speedup_vs_scalar:.1}x vs scalar, {speedup_4t:.2}x at 4 threads)",
        cfg.out
    );

    if let Some(baseline) = &cfg.check {
        let text = std::fs::read_to_string(baseline)
            .unwrap_or_else(|e| die(&format!("cannot read baseline {baseline}: {e}")));
        let base = baseline_gate_ns_per_trial(&text, baseline);
        let limit = base * (1.0 + cfg.tolerance);
        // Confirm-on-fail: a shared CI runner can sit in a slow phase
        // for the whole first pass, so a miss is re-measured once with
        // doubled reps before failing — a genuine regression fails
        // both times, a throttling phase usually does not.
        let mut bp = bp;
        if bp > limit {
            eprintln!("bench_sim: bitparallel {bp:.3} ns/trial over limit {limit:.3} — re-measuring");
            let engine = McEngine::sequential();
            let retry = time_engine(&engine, &profile, cfg.trials, cfg.reps * 2);
            bp = bp.min(retry as f64 / cfg.trials as f64);
        }
        println!("regression gate: bitparallel {bp:.3} ns/trial vs baseline {base:.3} (limit {limit:.3})");
        if bp > limit {
            eprintln!(
                "bench_sim: FAIL — run_trials regressed {:.1}% (> {:.0}% tolerance)",
                (bp / base - 1.0) * 100.0,
                cfg.tolerance * 100.0
            );
            std::process::exit(1);
        }
        // Kernel-speedup gate: the bit-parallel kernel must hold a
        // >= 10x per-trial advantage over the scalar oracle. Judged
        // against the better of the same-run scalar row (host-state
        // independent: both sides saw the same thermal/scheduler
        // conditions) and the committed baseline's scalar row (the
        // acceptance reference; absent in pre-kernel v1 baselines).
        let committed_scalar = baseline_row_ns_per_trial(&text, "scalar");
        let vs_committed = committed_scalar.map(|s| s / bp);
        let mut speedup_vs_scalar = speedup_vs_scalar;
        let mut best_ratio = vs_committed.map_or(speedup_vs_scalar, |r| r.max(speedup_vs_scalar));
        if best_ratio < 10.0 {
            eprintln!("bench_sim: kernel ratio {best_ratio:.1}x below 10x — re-measuring");
            speedup_vs_scalar =
                speedup_vs_scalar.max(measure_kernel_ratio(&profile, cfg.trials, cfg.reps * 2));
            best_ratio = vs_committed.map_or(speedup_vs_scalar, |r| r.max(speedup_vs_scalar));
        }
        match vs_committed {
            Some(r) => println!(
                "kernel gate: bit-parallel {speedup_vs_scalar:.1}x vs same-run scalar, \
                 {r:.1}x vs committed scalar row (need >= 10x)"
            ),
            None => println!(
                "kernel gate: bit-parallel {speedup_vs_scalar:.1}x vs same-run scalar \
                 (baseline {baseline} predates the scalar row; need >= 10x)"
            ),
        }
        if best_ratio < 10.0 {
            eprintln!(
                "bench_sim: FAIL — bit-parallel kernel is only {best_ratio:.1}x faster than the \
                 scalar oracle (need >= 10x)"
            );
            std::process::exit(1);
        }
        if host_threads >= 4 {
            if speedup_4t < 2.0 {
                eprintln!(
                    "bench_sim: FAIL — {speedup_4t:.2}x speedup at 4 threads on a \
                     {host_threads}-CPU host (need >= 2x)"
                );
                std::process::exit(1);
            }
        } else {
            println!(
                "speedup_4t gate NOT ARMED: host_threads = {host_threads} (< 4 CPUs) — \
                 the >=2x@4-threads assertion was skipped, not passed"
            );
        }
        let mut obs_overhead = obs_overhead;
        if obs_overhead > 0.05 {
            eprintln!(
                "bench_sim: obs overhead {:.1}% over the 5% limit — re-measuring",
                obs_overhead * 100.0
            );
            obs_overhead = obs_overhead.min(measure_obs_overhead(&profile, cfg.trials, cfg.reps * 2));
        }
        if obs_overhead > 0.05 {
            eprintln!(
                "bench_sim: FAIL — disabled tracing costs {:.1}% over the reference loop (> 5%)",
                obs_overhead * 100.0
            );
            std::process::exit(1);
        }
        if !envelope_holds {
            eprintln!("bench_sim: FAIL — measured wall-clock escaped the default-model cost envelope");
            std::process::exit(1);
        }
        // Calibrate-predict-verify: the ns-per-event the committed
        // baseline implies must still bound this host's measurements.
        let events_per_trial = total_events(compiled.physical()) as f64;
        let calibrated = CostModel::from_bench(&text, events_per_trial).unwrap_or_else(|e| {
            die(&format!(
                "baseline {baseline} cannot calibrate the cost model: {e}"
            ))
        });
        let recal = cost_envelope(&device, &program, cfg.trials, &calibrated);
        let recal_checks = [
            CostCheck {
                resource: "compile_ns",
                measured_ns: compile_ns,
                bound: recal.compile_ns,
            },
            CostCheck {
                resource: "mc_ns",
                measured_ns: bp * cfg.trials as f64,
                bound: recal.mc_ns,
            },
        ];
        let recal_violations = violations("calibrated/bv-16/ibm-q20/baseline", &recal_checks);
        if !recal_violations.is_empty() {
            for v in &recal_violations {
                eprintln!("bench_sim: envelope {v}");
            }
            eprintln!("bench_sim: FAIL — measured wall-clock escaped the baseline-calibrated envelope");
            std::process::exit(1);
        }
        println!("envelope gate: PASS (default and baseline-calibrated models)");
        println!("regression gate: PASS");
    }
}
