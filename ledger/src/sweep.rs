//! `policy-sweep`: the CLI compile path over the golden suite — every
//! table-1-style benchmark of `crates/cli/tests/golden_compile.rs` under
//! baseline, vqm, vqm-mah:4 and vqa-vqm on q20, plus VQM portfolio
//! routing at width 4 per benchmark. Each case compiles through a
//! pipeline of [`TimedPass`]-wrapped passes ending in verification,
//! then runs the static ESP interval, the reliability audit, the cost
//! envelope, and a QASM emit/parse round trip.
//!
//! Oracles: the 28 committed golden QASM files (read, never written),
//! the unwrapped `Pipeline::for_policy(..).validate()?.run(..)` output
//! for every case, and for portfolio cases the documented guarantee
//! that their ESP never falls below single-candidate VQM routing.

use std::time::Instant;

use quva::pipeline::{
    static_esp_point, AllocatePass, CheckedPipeline, Pipeline, PortfolioRoutePass, RoutePass,
    SelectAlternativePass, VerifyPass,
};
use quva::{AllocationStrategy, MappingPolicy};
use quva_analysis::{audit_compiled, cost_envelope, esp_interval, CostModel, EspConfig, Verifier};
use quva_benchmarks::Benchmark;
use quva_circuit::qasm;
use quva_cli::spec::{parse_benchmark, parse_device, parse_policy};
use quva_device::Device;

use crate::layers::{Layers, Slot, TimedPass};
use crate::util::{cpus, micros, par_map, Rng};
use crate::{measure, repeat_setup, Args, Outcome, Trace};

const POLICIES: [&str; 4] = ["baseline", "vqm", "vqm-mah:4", "vqa-vqm"];
const SUITE: [&str; 7] = [
    "bv:16",
    "qft:12",
    "ghz:20",
    "alu",
    "triswap",
    "rnd-sd:16:32",
    "rnd-ld:16:32",
];
const GOLDEN_DIR: &str = "crates/cli/tests/golden/compile";
const PORTFOLIO_WIDTH: usize = 4;
/// The trial budget the cost envelope is asked about (the `quva cost`
/// default order of magnitude).
const ENVELOPE_TRIALS: u64 = 100_000;
const SETUP_REPS: usize = 5;
const WORKERS: usize = 2;

struct Case {
    bench: usize,
    pipeline: usize,
    /// Golden bytes for the policy cases, the unwrapped pipeline's
    /// bytes for portfolio cases.
    expected: String,
    /// Portfolio cases: the single-candidate VQM ESP they must not
    /// fall below.
    esp_floor: f64,
}

struct Sweep<'a> {
    device: Device,
    benches: Vec<Benchmark>,
    pipelines: Vec<CheckedPipeline<'a>>,
    cases: Vec<Case>,
    /// Set-up oracle failures (unwrapped pipeline against golden).
    setup_failures: u64,
}

/// The policy's standard pipeline with every pass wrapped, mirroring
/// `Pipeline::for_policy_with(policy, Some(verifier))`; with `portfolio`
/// the route pass is `PortfolioRoutePass` as in
/// `Pipeline::for_policy_portfolio`. The unwrapped-pipeline oracle
/// catches any drift between this and the library's construction.
fn wrapped<'a>(
    policy: &MappingPolicy,
    portfolio: bool,
    verifier: &'a Verifier,
    layers: &'a Layers,
) -> Pipeline<'a> {
    let mut p = Pipeline::new().with_pass(TimedPass {
        inner: AllocatePass {
            strategy: policy.allocation,
        },
        layers,
    });
    p = if portfolio {
        p.with_pass(TimedPass {
            inner: PortfolioRoutePass {
                metric: policy.routing,
                width: PORTFOLIO_WIDTH,
            },
            layers,
        })
    } else {
        p.with_pass(TimedPass {
            inner: RoutePass {
                metric: policy.routing,
            },
            layers,
        })
    };
    if matches!(policy.allocation, AllocationStrategy::StrongestSubgraph { .. }) {
        p = p.with_pass(TimedPass {
            inner: SelectAlternativePass {
                alternative: MappingPolicy {
                    allocation: AllocationStrategy::GreedyInteraction,
                    routing: policy.routing,
                },
            },
            layers,
        });
    }
    p.with_pass(TimedPass {
        inner: VerifyPass::new(verifier),
        layers,
    })
}

fn setup<'a>(verifier: &'a Verifier, layers: &'a Layers, threads: usize) -> Result<Sweep<'a>, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let device = layers
        .time(Slot::SetupDevice, || parse_device("q20"))
        .map_err(|e| err(&e))?;
    let (benches, goldens) = layers.time(Slot::SetupCircuit, || -> Result<_, String> {
        let benches = SUITE
            .iter()
            .map(|s| parse_benchmark(s).map_err(|e| err(&e)))
            .collect::<Result<Vec<_>, _>>()?;
        let mut goldens = Vec::new();
        for policy in POLICIES {
            for bench in SUITE {
                let name = format!("{}__{}.qasm", policy.replace(':', "-"), bench.replace(':', "-"));
                let path = format!("{GOLDEN_DIR}/{name}");
                goldens.push(std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?);
            }
        }
        Ok((benches, goldens))
    })?;

    layers.time(Slot::SetupCompile, || -> Result<Sweep<'a>, String> {
        let vqm = MappingPolicy::vqm();
        let mut pipelines = Vec::new();
        let mut plain = Vec::new();
        for spec in POLICIES {
            let policy = parse_policy(spec).map_err(|e| err(&e))?;
            pipelines.push(
                wrapped(&policy, false, verifier, layers)
                    .validate()
                    .map_err(|e| err(&e))?,
            );
            plain.push(Pipeline::for_policy(&policy).validate().map_err(|e| err(&e))?);
        }
        pipelines.push(
            wrapped(&vqm, true, verifier, layers)
                .validate()
                .map_err(|e| err(&e))?,
        );
        plain.push(
            Pipeline::for_policy_portfolio(&vqm, PORTFOLIO_WIDTH)
                .validate()
                .map_err(|e| err(&e))?,
        );

        // the unwrapped pipelines' outputs, policy-major like the goldens
        let jobs: Vec<(usize, usize)> = (0..plain.len())
            .flat_map(|p| (0..SUITE.len()).map(move |b| (p, b)))
            .collect();
        let references = par_map(threads, &jobs, |&(p, b)| {
            plain[p].run(benches[b].circuit(), &device).map(|out| {
                let esp = static_esp_point(&device, out.physical());
                (qasm::to_qasm(out.physical()), esp)
            })
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| err(&e))?;

        let vqm_row = POLICIES.iter().position(|p| *p == "vqm").ok_or("vqm missing")?;
        let mut setup_failures = 0;
        let mut cases = Vec::new();
        for (k, ((text, _), &(p, b))) in references.iter().zip(&jobs).enumerate() {
            let (expected, esp_floor) = match goldens.get(k) {
                Some(golden) => {
                    if text != golden {
                        eprintln!(
                            "ledger: unwrapped {} {} differs from its golden",
                            POLICIES[p], SUITE[b]
                        );
                        setup_failures += 1;
                    }
                    (golden.clone(), 0.0)
                }
                None => (text.clone(), references[vqm_row * SUITE.len() + b].1),
            };
            cases.push(Case {
                bench: b,
                pipeline: p,
                expected,
                esp_floor,
            });
        }
        Ok(Sweep {
            device,
            benches,
            pipelines,
            cases,
            setup_failures,
        })
    })
}

/// One case's results, for the quality metrics and the oracle.
struct Evaluated {
    esp: f64,
    swaps: usize,
    ok: bool,
}

impl Sweep<'_> {
    fn eval(&self, i: usize, layers: &Layers) -> Result<Evaluated, String> {
        let case = &self.cases[i];
        let source = self.benches[case.bench].circuit();
        let compiled = self.pipelines[case.pipeline]
            .run(source, &self.device)
            .map_err(|e| e.to_string())?;
        let physical = compiled.physical();
        let esp = layers.time(Slot::AnalysisEsp, || {
            esp_interval(&self.device, physical, &EspConfig::default())
        });
        let audit = layers.time(Slot::AnalysisAudit, || {
            audit_compiled(source, &self.device, &compiled)
        });
        let envelope = layers.time(Slot::AnalysisEnvelope, || {
            cost_envelope(&self.device, source, ENVELOPE_TRIALS, &CostModel::default())
        });
        let (text, parsed) = layers.time(Slot::CircuitQasm, || {
            let text = qasm::to_qasm(physical);
            let parsed = qasm::from_qasm(&text);
            (text, parsed)
        });
        let ok = text == case.expected
            && parsed.is_ok_and(|c| c.len() == physical.len())
            && esp.lo <= esp.point
            && esp.point <= esp.hi
            && esp.point > 0.0
            && esp.point >= case.esp_floor
            && audit.esp.point == esp.point
            && envelope.total_ns().lo <= envelope.total_ns().hi;
        Ok(Evaluated {
            esp: esp.point,
            swaps: compiled.inserted_swaps(),
            ok,
        })
    }
}

pub fn run(args: &Args, layers: &Layers) -> Result<Outcome, String> {
    // Cases are shared out to one worker per CPU (up to two): a single
    // thread reads whichever CPU it lands on, and on a shared host the
    // CPUs need not run at the same speed.
    let threads = WORKERS.min(cpus());
    let verifier = Verifier::new();
    layers.set_tracing(args.trace);
    let (sweep, setup_s, setup_ns) = repeat_setup(SETUP_REPS, || setup(&verifier, layers, threads), drop)?;
    layers.set_tracing(false);

    // quality: one untimed pass in case order, which is deterministic
    let mut esp = Vec::new();
    let mut swaps = 0;
    let mut failed = sweep.setup_failures;
    for i in 0..sweep.cases.len() {
        let e = sweep.eval(i, layers)?;
        esp.push(e.esp);
        swaps += e.swaps as u64;
        failed += u64::from(!e.ok);
    }

    let mut rng = Rng::new(args.seed);
    let mut order: Vec<usize> = (0..sweep.cases.len()).collect();
    let m = measure(args, layers, |latencies| {
        rng.shuffle(&mut order);
        let results = par_map(threads, &order, |&i| {
            let start = Instant::now();
            let result = sweep.eval(i, layers);
            (micros(start), i, result)
        });
        let mut failed = 0;
        for (us, i, result) in results {
            latencies.push(us);
            match result {
                Ok(e) if e.ok => {}
                Ok(_) => {
                    eprintln!("ledger: case {i} failed its oracle");
                    failed += 1;
                }
                Err(msg) => {
                    eprintln!("ledger: case {i} errored: {msg}");
                    failed += 1;
                }
            }
        }
        failed
    });
    let trace = args.trace.then(|| Trace {
        route_swaps: swaps as f64 / sweep.cases.len() as f64,
        ..m.trace(setup_ns)
    });
    Ok(Outcome {
        threads,
        connections: 0,
        attempted: m.ops(),
        failed: failed + m.failed,
        setup_s,
        units: m.plain_us.len() as f64,
        elapsed_s: m.elapsed_s,
        rates: m.op_rates,
        latencies_us: m.plain_us,
        esp,
        swaps,
        trace,
    })
}
