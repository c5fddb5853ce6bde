//! `mc-sweep`: the `quva simulate` path over the table-1 suite under
//! baseline and vqa-vqm on q20. Each program is compiled once during
//! set-up; every measured case then computes the analytic PST and a
//! large-trial bit-parallel Monte-Carlo estimate on the engine threads.
//!
//! Oracles: each estimate lies within ±4 binomial standard errors of
//! the analytic PST, and repeats bit for bit in every round. The
//! per-case Monte-Carlo seeds are fixed, so the statistical check has
//! been settled once for all runs; `--seed` orders the cases.

use std::time::Instant;

use quva::CompiledCircuit;
use quva_analysis::{esp_interval, EspConfig};
use quva_benchmarks::table1_suite;
use quva_cli::spec::{parse_device, parse_policy};
use quva_device::Device;
use quva_sim::{monte_carlo_pst_with, CoherenceModel, McEngine};

use crate::layers::{Layers, Slot};
use crate::util::{cpus, micros, par_map, Rng};
use crate::{measure, repeat_setup, Args, Outcome, Trace};

const POLICIES: [&str; 2] = ["baseline", "vqa-vqm"];
/// Trials per case: enough that the kernel dominates the case time.
const TRIALS: u64 = 400_000;
/// Root of the fixed per-case Monte-Carlo seeds (the CLI default is 7).
const SEED_BASE: u64 = 7;
const SETUP_REPS: usize = 5;
const ENGINE_THREADS: usize = 2;

struct Mc {
    device: Device,
    cases: Vec<CompiledCircuit>,
}

fn setup(layers: &Layers, threads: usize) -> Result<Mc, String> {
    let device = layers
        .time(Slot::SetupDevice, || parse_device("q20"))
        .map_err(|e| e.to_string())?;
    let suite = layers.time(Slot::SetupCircuit, table1_suite);
    let cases = layers.time(Slot::SetupCompile, || -> Result<Vec<_>, String> {
        let policies = POLICIES
            .iter()
            .map(|p| parse_policy(p).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let jobs: Vec<_> = policies
            .iter()
            .flat_map(|p| suite.iter().map(move |b| (p, b)))
            .collect();
        par_map(threads, &jobs, |(policy, bench)| {
            policy.compile(bench.circuit(), &device)
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())
    })?;
    Ok(Mc { device, cases })
}

pub fn run(args: &Args, layers: &Layers) -> Result<Outcome, String> {
    let threads = ENGINE_THREADS.min(cpus());
    let engine = McEngine::new(threads);
    layers.set_tracing(args.trace);
    let (mc, setup_s, setup_ns) = repeat_setup(SETUP_REPS, || setup(layers, threads), drop)?;
    layers.set_tracing(false);

    let esp: Vec<f64> = mc
        .cases
        .iter()
        .map(|c| esp_interval(&mc.device, c.physical(), &EspConfig::default()).point)
        .collect();
    let swaps: u64 = mc.cases.iter().map(|c| c.inserted_swaps() as u64).sum();

    // successes of each case's first estimate, which every later round
    // must reproduce exactly
    let mut first: Vec<Option<u64>> = vec![None; mc.cases.len()];
    let mut rng = Rng::new(args.seed);
    let mut order: Vec<usize> = (0..mc.cases.len()).collect();
    let m = measure(args, layers, |latencies| {
        rng.shuffle(&mut order);
        let mut failed = 0;
        for &i in &order {
            let start = Instant::now();
            let compiled = &mc.cases[i];
            let analytic = layers.time(Slot::SimAnalytic, || {
                compiled.analytic_pst(&mc.device, CoherenceModel::Disabled)
            });
            let estimate = layers.time(Slot::SimRun, || {
                monte_carlo_pst_with(
                    &mc.device,
                    compiled.physical(),
                    TRIALS,
                    SEED_BASE + i as u64,
                    CoherenceModel::Disabled,
                    engine,
                )
            });
            latencies.push(micros(start));
            let ok = match (analytic, estimate) {
                (Ok(a), Ok(e)) => {
                    let se = (a.pst * (1.0 - a.pst) / TRIALS as f64).sqrt();
                    let repeat = *first[i].get_or_insert(e.successes) == e.successes;
                    let close = (e.pst - a.pst).abs() <= 4.0 * se;
                    if !(repeat && close) {
                        eprintln!(
                            "ledger: case {i}: estimate {} vs analytic {} (se {se}), repeat {repeat}",
                            e.pst, a.pst
                        );
                    }
                    repeat && close
                }
                (a, e) => {
                    eprintln!("ledger: case {i}: analytic {:?} estimate {:?}", a.err(), e.err());
                    false
                }
            };
            failed += u64::from(!ok);
        }
        failed
    });
    let trace = args.trace.then(|| Trace {
        route_swaps: swaps as f64 / mc.cases.len() as f64,
        trials: TRIALS as f64,
        ..m.trace(setup_ns)
    });
    Ok(Outcome {
        threads,
        connections: 0,
        attempted: m.ops(),
        failed: m.failed,
        setup_s,
        units: m.plain_us.len() as f64 * TRIALS as f64,
        elapsed_s: m.elapsed_s,
        rates: m.op_rates.iter().map(|r| r * TRIALS as f64).collect(),
        latencies_us: m.plain_us,
        esp,
        swaps,
        trace,
    })
}
