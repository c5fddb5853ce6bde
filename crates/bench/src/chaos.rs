//! Fault-injection chaos harness for the compile pipeline.
//!
//! The pipeline (allocate → route → compile → verify → simulate) must
//! *degrade*,
//! never panic, under calibration faults: dead links, NaN or negative
//! fields, error rates at or above one, spiked (valid but terrible)
//! links, inverted coherence times, stale snapshots, and oversized
//! programs. A [`FaultPlan`] describes a seeded combination of such
//! faults; [`run_chaos`] drives the whole pipeline under it and records
//! the outcome of every stage as data — a typed error or a success,
//! nothing in between.
//!
//! Degradation contract exercised here (see DESIGN.md, "Failure modes &
//! degradation policy"):
//!
//! * raw calibration faults are repaired by [`SanitizePolicy::Clamp`]
//!   before the device is built (the CLI's `--lenient` path);
//! * dead links route around, or surface as
//!   [`quva::CompileError::Disconnected`] / [`quva::RouteError`] when
//!   they split the coupling graph;
//! * oversized programs surface as allocation errors;
//! * the simulator rejects unrouted circuits with a typed
//!   [`quva_sim::SimError`].

use std::fmt;

use quva::{MappingPolicy, Router};
use quva_benchmarks::ghz;
use quva_circuit::{Gate, PhysQubit};
use quva_device::{
    CalField, CalibrationGenerator, Device, RawCalibration, SanitizePolicy, Topology, VariationProfile,
};
use quva_sim::{monte_carlo_pst_with, CoherenceModel, McEngine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One injected fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// Disable the `nth` coupling link (modulo the link count).
    DropLink {
        /// Link index to kill (taken modulo the device's link count).
        nth: usize,
    },
    /// Disable every link incident to one qubit, cutting it off.
    IsolateQubit {
        /// The qubit to isolate (modulo the qubit count).
        qubit: usize,
    },
    /// Overwrite one calibration entry with NaN.
    NanField {
        /// Which table.
        field: CalField,
        /// Entry index (modulo the table length).
        index: usize,
    },
    /// Overwrite one error-rate entry with a negative value.
    NegativeRate {
        /// Which error table.
        field: CalField,
        /// Entry index (modulo the table length).
        index: usize,
    },
    /// Overwrite one 2Q error rate with a value ≥ 1 (certain failure).
    SuperUnityRate {
        /// Link index (modulo the link count).
        index: usize,
    },
    /// Spike one 2Q error rate to a *valid* but terrible value ≥ 0.5.
    SpikeLinkError {
        /// Link index (modulo the link count).
        index: usize,
        /// The spiked rate, clamped into `[0.5, 1)`.
        rate: f64,
    },
    /// Invert one qubit's coherence times (T2 far above 2·T1).
    InvertCoherence {
        /// Qubit index (modulo the qubit count).
        qubit: usize,
    },
    /// Compile against a snapshot `days` older than the freshest one.
    StaleSnapshot {
        /// Age of the snapshot in days.
        days: usize,
    },
    /// Make the program `extra` qubits larger than the device.
    OversizedCircuit {
        /// Qubits beyond the device size.
        extra: usize,
    },
    /// Configure a broken pass pipeline (route without allocate). The
    /// contract checker must refuse it with a typed
    /// [`quva::CompileError::Contract`] before any pass executes; the
    /// run then proceeds with the correct pipeline as the recovery
    /// probe. Never drawn by [`FaultPlan::generate`] — it is a
    /// configuration fault, not a calibration one.
    MisconfiguredPipeline,
}

/// A seeded combination of faults to inject into one pipeline run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the base calibration and the simulator.
    pub seed: u64,
    /// The faults, applied in order.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// Generates a random plan of 1–4 faults from a seed. The same seed
    /// always yields the same plan.
    pub fn generate(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_c0de);
        let count = rng.random_range(1..=4usize);
        let faults = (0..count).map(|_| random_fault(&mut rng)).collect();
        FaultPlan { seed, faults }
    }
}

fn random_fault(rng: &mut StdRng) -> Fault {
    let fields = [
        CalField::T1,
        CalField::T2,
        CalField::Err1q,
        CalField::ErrReadout,
        CalField::Err2q,
    ];
    match rng.random_range(0..9u32) {
        0 => Fault::DropLink {
            nth: rng.random_range(0..64usize),
        },
        1 => Fault::IsolateQubit {
            qubit: rng.random_range(0..32usize),
        },
        2 => Fault::NanField {
            field: fields[rng.random_range(0..5usize)],
            index: rng.random_range(0..64usize),
        },
        3 => Fault::NegativeRate {
            field: [CalField::Err1q, CalField::ErrReadout, CalField::Err2q][rng.random_range(0..3usize)],
            index: rng.random_range(0..64usize),
        },
        4 => Fault::SuperUnityRate {
            index: rng.random_range(0..64usize),
        },
        5 => Fault::SpikeLinkError {
            index: rng.random_range(0..64usize),
            rate: 0.5 + rng.random_range(0..45u32) as f64 / 100.0,
        },
        6 => Fault::InvertCoherence {
            qubit: rng.random_range(0..32usize),
        },
        7 => Fault::StaleSnapshot {
            days: rng.random_range(1..60usize),
        },
        _ => Fault::OversizedCircuit {
            extra: rng.random_range(1..8usize),
        },
    }
}

/// The outcome of one pipeline stage: `Ok` carries a short summary,
/// `Err` the typed error's message.
#[derive(Debug, Clone, PartialEq)]
pub struct StageResult {
    /// Stage name: `sanitize`, `contract`, `allocate`, `route`,
    /// `compile`, `verify`, or `simulate`.
    pub stage: &'static str,
    /// What happened.
    pub outcome: Result<String, String>,
}

/// The full record of one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosRun {
    /// The plan that was injected.
    pub plan: FaultPlan,
    /// Per-stage outcomes, in pipeline order. Stages after a hard
    /// failure are skipped (not recorded).
    pub stages: Vec<StageResult>,
    /// Number of calibration issues the sanitizer repaired.
    pub repaired_fields: usize,
}

impl ChaosRun {
    /// Whether every recorded stage succeeded.
    pub fn fully_succeeded(&self) -> bool {
        self.stages.iter().all(|s| s.outcome.is_ok())
    }

    /// The outcome of a named stage, if it was reached.
    pub fn stage(&self, name: &str) -> Option<&StageResult> {
        self.stages.iter().find(|s| s.stage == name)
    }
}

impl fmt::Display for ChaosRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "chaos seed {} with {} fault(s):",
            self.plan.seed,
            self.plan.faults.len()
        )?;
        for s in &self.stages {
            match &s.outcome {
                Ok(msg) => writeln!(f, "  {:<9} ok   {msg}", s.stage)?,
                Err(msg) => writeln!(f, "  {:<9} ERR  {msg}", s.stage)?,
            }
        }
        Ok(())
    }
}

/// Runs the whole pipeline under a fault plan with one mapping policy.
///
/// Every stage ends in a typed success or a typed error; this function
/// never panics for any plan (the property the chaos tests assert).
pub fn run_chaos(plan: &FaultPlan, policy: MappingPolicy) -> ChaosRun {
    let topo = Topology::ibm_q20_tokyo();
    let mut stages = Vec::new();

    // base snapshot, aged by the largest StaleSnapshot fault
    let stale_days = plan
        .faults
        .iter()
        .filter_map(|f| match f {
            Fault::StaleSnapshot { days } => Some(*days),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    let mut generator = CalibrationGenerator::new(VariationProfile::ibm_q20_paper(), plan.seed);
    let series = generator.daily_series(&topo, stale_days + 1);
    let base = &series[0]; // oldest snapshot: stale by `stale_days` days

    // corrupt the raw tables
    let mut raw = RawCalibration::from(base);
    for fault in &plan.faults {
        apply_calibration_fault(&mut raw, *fault, &topo);
    }

    // sanitize leniently (the CLI's default): faults become repairs
    let (cal, report) = match raw.sanitize(&topo, SanitizePolicy::Clamp, None) {
        Ok(pair) => pair,
        Err(rejected) => {
            stages.push(StageResult {
                stage: "sanitize",
                outcome: Err(rejected.to_string()),
            });
            return ChaosRun {
                plan: plan.clone(),
                stages,
                repaired_fields: 0,
            };
        }
    };
    let repaired_fields = report.repaired();
    stages.push(StageResult {
        stage: "sanitize",
        outcome: Ok(format!("{repaired_fields} field(s) repaired")),
    });

    // build the device and kill links
    let mut device = match Device::from_parts(topo, cal) {
        Ok(d) => d,
        Err(e) => {
            stages.push(StageResult {
                stage: "sanitize",
                outcome: Err(e.to_string()),
            });
            return ChaosRun {
                plan: plan.clone(),
                stages,
                repaired_fields,
            };
        }
    };
    for fault in &plan.faults {
        apply_link_fault(&mut device, *fault);
    }

    // program: a GHZ chain touching every requested qubit, so a split
    // device cannot host it without a cross-component interaction
    let extra = plan
        .faults
        .iter()
        .filter_map(|f| match f {
            Fault::OversizedCircuit { extra } => Some(*extra),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    let circuit = ghz(device.num_qubits() + extra);

    // stage: contract — a misconfigured pass pipeline must be refused
    // by the static contract check, with a typed error and no partial
    // compile; every later stage is then the recovery probe (the
    // correctly-configured pipeline must still work)
    if plan.faults.contains(&Fault::MisconfiguredPipeline) {
        let broken = quva::Pipeline::new().with_pass(quva::pipeline::RoutePass {
            metric: policy.routing,
        });
        let outcome = match broken.compile(&circuit, &device) {
            Err(quva::CompileError::Contract(err)) => Ok(format!(
                "refused before any pass ran ({} violation(s))",
                err.violations().len()
            )),
            Err(other) => Err(format!("expected a contract refusal, got: {other}")),
            Ok(_) => Err("misconfigured pipeline produced a compile".to_string()),
        };
        stages.push(StageResult {
            stage: "contract",
            outcome,
        });
    }

    // stage: allocate
    let mapping = policy.allocation.allocate(&circuit, &device);
    stages.push(StageResult {
        stage: "allocate",
        outcome: mapping
            .as_ref()
            .map(|m| format!("{} qubits placed", m.num_prog()))
            .map_err(Clone::clone),
    });

    // stage: route — plan a movement for the first separated CNOT
    if let Ok(mapping) = &mapping {
        let router = Router::new(&device, policy.routing);
        let pair = circuit.iter().find_map(|g| match g {
            Gate::Cnot { control, target } => {
                let (pa, pb) = (mapping.phys_of(*control), mapping.phys_of(*target));
                (!device.has_active_link(pa, pb)).then_some((pa, pb))
            }
            _ => None,
        });
        let outcome = match pair {
            Some((pa, pb)) => router
                .plan(pa, pb)
                .map(|p| format!("{} swap(s) {pa}->{pb}", p.swap_count()))
                .map_err(|e| e.to_string()),
            None => Ok("all pairs already adjacent".to_string()),
        };
        stages.push(StageResult {
            stage: "route",
            outcome,
        });
    }

    // stage: compile
    let compiled = policy.compile(&circuit, &device);
    stages.push(StageResult {
        stage: "compile",
        outcome: compiled
            .as_ref()
            .map(|c| format!("{} inserted swap(s)", c.inserted_swaps()))
            .map_err(|e| e.to_string()),
    });

    // stage: verify — whatever survives compilation must also pass
    // static verification, faults or not
    if let Ok(compiled) = &compiled {
        let report = quva_analysis::verify_compiled(&circuit, &device, compiled);
        let outcome = if report.is_clean() {
            Ok(format!("clean ({} warning(s))", report.warning_count()))
        } else {
            Err(report.render_text())
        };
        stages.push(StageResult {
            stage: "verify",
            outcome,
        });
    }

    // stage: simulate — the parallel engine is part of the pipeline
    // under test; its estimate is thread-count-independent, so chaos
    // reports stay comparable across hosts
    if let Ok(compiled) = &compiled {
        let outcome = monte_carlo_pst_with(
            &device,
            compiled.physical(),
            500,
            plan.seed,
            CoherenceModel::IdleWindow,
            McEngine::auto(),
        )
        .map(|r| format!("PST {:.4}", r.pst))
        .map_err(|e| e.to_string());
        stages.push(StageResult {
            stage: "simulate",
            outcome,
        });
    }

    ChaosRun {
        plan: plan.clone(),
        stages,
        repaired_fields,
    }
}

fn table_of(raw: &mut RawCalibration, field: CalField) -> &mut Vec<f64> {
    match field {
        CalField::T1 => &mut raw.t1_us,
        CalField::T2 => &mut raw.t2_us,
        CalField::Err1q => &mut raw.err_1q,
        CalField::ErrReadout => &mut raw.err_readout,
        CalField::Err2q => &mut raw.err_2q,
    }
}

fn apply_calibration_fault(raw: &mut RawCalibration, fault: Fault, topo: &Topology) {
    let nq = topo.num_qubits();
    let nl = topo.num_links();
    match fault {
        Fault::NanField { field, index } => {
            let t = table_of(raw, field);
            if !t.is_empty() {
                let i = index % t.len();
                t[i] = f64::NAN;
            }
        }
        Fault::NegativeRate { field, index } => {
            let t = table_of(raw, field);
            if !t.is_empty() {
                let i = index % t.len();
                t[i] = -0.25;
            }
        }
        Fault::SuperUnityRate { index } => {
            if nl > 0 {
                raw.err_2q[index % nl] = 1.5;
            }
        }
        Fault::SpikeLinkError { index, rate } => {
            if nl > 0 {
                raw.err_2q[index % nl] = rate.clamp(0.5, 1.0 - 1e-6);
            }
        }
        Fault::InvertCoherence { qubit } => {
            let q = qubit % nq;
            raw.t2_us[q] = raw.t1_us[q] * 4.0;
        }
        Fault::DropLink { .. }
        | Fault::IsolateQubit { .. }
        | Fault::StaleSnapshot { .. }
        | Fault::OversizedCircuit { .. }
        | Fault::MisconfiguredPipeline => {}
    }
}

fn apply_link_fault(device: &mut Device, fault: Fault) {
    match fault {
        Fault::DropLink { nth } => {
            let links = device.topology().links();
            if !links.is_empty() {
                let link = links[nth % links.len()];
                device.disable_link(link.low(), link.high());
            }
        }
        Fault::IsolateQubit { qubit } => {
            let q = PhysQubit((qubit % device.num_qubits()) as u32);
            for nb in device.topology().neighbors(q).to_vec() {
                device.disable_link(q, nb);
            }
        }
        _ => {}
    }
}

/// The named fault scenarios the robustness tests walk: at least one
/// per fault kind plus combined stress cases.
pub fn scenarios() -> Vec<(&'static str, FaultPlan)> {
    vec![
        (
            "dead-link",
            FaultPlan {
                seed: 1,
                faults: vec![Fault::DropLink { nth: 3 }],
            },
        ),
        (
            "isolated-qubit",
            FaultPlan {
                seed: 2,
                faults: vec![Fault::IsolateQubit { qubit: 7 }],
            },
        ),
        (
            "split-device",
            FaultPlan {
                seed: 3,
                faults: (0..10).map(|q| Fault::IsolateQubit { qubit: 2 * q }).collect(),
            },
        ),
        (
            "nan-2q-error",
            FaultPlan {
                seed: 4,
                faults: vec![Fault::NanField {
                    field: CalField::Err2q,
                    index: 5,
                }],
            },
        ),
        (
            "nan-coherence",
            FaultPlan {
                seed: 5,
                faults: vec![Fault::NanField {
                    field: CalField::T1,
                    index: 0,
                }],
            },
        ),
        (
            "negative-readout",
            FaultPlan {
                seed: 6,
                faults: vec![Fault::NegativeRate {
                    field: CalField::ErrReadout,
                    index: 2,
                }],
            },
        ),
        (
            "super-unity-2q",
            FaultPlan {
                seed: 7,
                faults: vec![Fault::SuperUnityRate { index: 4 }],
            },
        ),
        (
            "spiked-weak-link",
            FaultPlan {
                seed: 8,
                faults: vec![Fault::SpikeLinkError { index: 0, rate: 0.6 }],
            },
        ),
        (
            "inverted-coherence",
            FaultPlan {
                seed: 9,
                faults: vec![Fault::InvertCoherence { qubit: 3 }],
            },
        ),
        (
            "stale-snapshot",
            FaultPlan {
                seed: 10,
                faults: vec![Fault::StaleSnapshot { days: 45 }],
            },
        ),
        (
            "oversized-circuit",
            FaultPlan {
                seed: 11,
                faults: vec![Fault::OversizedCircuit { extra: 4 }],
            },
        ),
        (
            "pipeline-misconfig",
            FaultPlan {
                seed: 13,
                faults: vec![Fault::MisconfiguredPipeline],
            },
        ),
        (
            "kitchen-sink",
            FaultPlan {
                seed: 12,
                faults: vec![
                    Fault::DropLink { nth: 1 },
                    Fault::NanField {
                        field: CalField::Err2q,
                        index: 9,
                    },
                    Fault::SpikeLinkError { index: 2, rate: 0.9 },
                    Fault::InvertCoherence { qubit: 14 },
                    Fault::StaleSnapshot { days: 10 },
                ],
            },
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn policies() -> Vec<MappingPolicy> {
        vec![
            MappingPolicy::baseline(),
            MappingPolicy::vqm(),
            MappingPolicy::vqm_hop_limited(),
            MappingPolicy::vqa_vqm(),
            MappingPolicy::native(5),
        ]
    }

    /// The headline property: no scenario panics any stage of the
    /// pipeline under any policy — unwinds are caught and failed.
    #[test]
    fn named_scenarios_never_panic() {
        for (name, plan) in scenarios() {
            for policy in policies() {
                let result = catch_unwind(AssertUnwindSafe(|| run_chaos(&plan, policy)));
                let run =
                    result.unwrap_or_else(|_| panic!("scenario '{name}' panicked under {}", policy.name()));
                assert!(!run.stages.is_empty(), "scenario '{name}' recorded no stages");
            }
        }
    }

    #[test]
    fn scenario_list_is_large_enough() {
        assert!(scenarios().len() >= 8, "need at least 8 chaos scenarios");
    }

    #[test]
    fn clean_run_succeeds_end_to_end() {
        let plan = FaultPlan {
            seed: 0,
            faults: vec![],
        };
        let run = run_chaos(&plan, MappingPolicy::vqa_vqm());
        assert!(run.fully_succeeded(), "{run}");
        assert_eq!(run.repaired_fields, 0);
        assert!(run.stage("simulate").is_some(), "{run}");
    }

    #[test]
    fn dead_link_routes_around() {
        let (_, plan) = scenarios().swap_remove(0);
        let run = run_chaos(&plan, MappingPolicy::vqm());
        assert!(run.fully_succeeded(), "{run}");
    }

    #[test]
    fn split_device_is_typed_error_not_panic() {
        let plan = scenarios()
            .into_iter()
            .find(|(n, _)| *n == "split-device")
            .map(|(_, p)| p)
            .unwrap();
        for policy in policies() {
            let run = run_chaos(&plan, policy);
            // isolating half the qubits leaves no 20-qubit connected
            // region: allocation or compilation must fail, cleanly
            let compile = run.stage("compile").unwrap();
            assert!(compile.outcome.is_err(), "{}: {run}", policy.name());
        }
    }

    #[test]
    fn oversized_circuit_fails_at_allocation() {
        let plan = scenarios()
            .into_iter()
            .find(|(n, _)| *n == "oversized-circuit")
            .map(|(_, p)| p)
            .unwrap();
        let run = run_chaos(&plan, MappingPolicy::baseline());
        let alloc = run.stage("allocate").unwrap();
        let err = alloc.outcome.as_ref().unwrap_err();
        assert!(err.contains("qubits"), "{run}");
        // route/simulate are skipped, compile reports the same failure
        assert!(run.stage("compile").unwrap().outcome.is_err(), "{run}");
    }

    #[test]
    fn corrupted_fields_are_repaired_then_compile_succeeds() {
        for name in [
            "nan-2q-error",
            "nan-coherence",
            "negative-readout",
            "super-unity-2q",
        ] {
            let plan = scenarios()
                .into_iter()
                .find(|(n, _)| *n == name)
                .map(|(_, p)| p)
                .unwrap();
            let run = run_chaos(&plan, MappingPolicy::vqa_vqm());
            assert!(run.repaired_fields >= 1, "{name}: no repairs recorded\n{run}");
            assert!(run.fully_succeeded(), "{name}: {run}");
        }
    }

    #[test]
    fn spiked_link_still_compiles_and_vqm_avoids_it() {
        let plan = FaultPlan {
            seed: 8,
            faults: vec![Fault::SpikeLinkError { index: 0, rate: 0.6 }],
        };
        let run = run_chaos(&plan, MappingPolicy::vqm());
        assert!(run.fully_succeeded(), "{run}");
    }

    /// Whenever compilation survives a fault plan, the compiled output
    /// must still pass static verification: faults may abort the
    /// pipeline, never corrupt what it emits.
    #[test]
    fn surviving_compiles_verify_clean() {
        for (name, plan) in scenarios() {
            for policy in policies() {
                let run = run_chaos(&plan, policy);
                if run.stage("compile").is_some_and(|s| s.outcome.is_ok()) {
                    let verify = run.stage("verify").unwrap_or_else(|| {
                        panic!(
                            "scenario '{name}' compiled but never verified under {}",
                            policy.name()
                        )
                    });
                    assert!(
                        verify.outcome.is_ok(),
                        "scenario '{name}' under {}: {run}",
                        policy.name()
                    );
                }
            }
        }
    }

    /// The contract-rejected pipeline is refused before any pass
    /// executes — typed error, no partial compile — and the recovery
    /// probe (the correct pipeline) passes every later stage.
    #[test]
    fn pipeline_misconfig_is_refused_before_any_pass_runs() {
        let plan = scenarios()
            .into_iter()
            .find(|(n, _)| *n == "pipeline-misconfig")
            .map(|(_, p)| p)
            .unwrap();
        for policy in policies() {
            let run = run_chaos(&plan, policy);
            let contract = run
                .stage("contract")
                .unwrap_or_else(|| panic!("no contract stage under {}: {run}", policy.name()));
            let msg = contract
                .outcome
                .as_ref()
                .unwrap_or_else(|e| panic!("{}: refusal not typed: {e}\n{run}", policy.name()));
            assert!(msg.contains("refused before any pass ran"), "{run}");
            // the refusal precedes allocation — nothing executed first
            let pos = |name| run.stages.iter().position(|s| s.stage == name);
            assert!(pos("contract").unwrap() < pos("allocate").unwrap(), "{run}");
            // recovery probe: the correct pipeline passes end to end
            assert!(run.fully_succeeded(), "{}: {run}", policy.name());
        }
    }

    #[test]
    fn generated_plans_are_deterministic() {
        for seed in [0u64, 1, 17, 999] {
            assert_eq!(FaultPlan::generate(seed), FaultPlan::generate(seed));
        }
        assert_ne!(FaultPlan::generate(1), FaultPlan::generate(2));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Random fault plans across seeds: the pipeline never panics
        /// under any policy, for any generated combination of faults.
        #[test]
        fn random_fault_plans_never_panic(seed in 0u64..4096) {
            let plan = FaultPlan::generate(seed);
            for policy in [MappingPolicy::baseline(), MappingPolicy::vqa_vqm()] {
                let result = catch_unwind(AssertUnwindSafe(|| run_chaos(&plan, policy)));
                let run = result.unwrap_or_else(|_| {
                    panic!("seed {seed} plan {:?} panicked under {}", plan.faults, policy.name())
                });
                prop_assert!(!run.stages.is_empty());
            }
        }
    }
}
