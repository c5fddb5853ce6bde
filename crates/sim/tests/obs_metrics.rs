//! Observability determinism contract of the Monte-Carlo engine.
//!
//! These tests own the process-global `quva-obs` recorder, so they live
//! in their own integration-test binary (one process) and serialize on
//! a local mutex; `reset()` gives each test a clean recorder.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

use quva_circuit::{Circuit, PhysQubit};
use quva_device::{Calibration, Device, Topology};
use quva_sim::{CoherenceModel, FailureProfile, McEngine, McKernel};

fn guard() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn profile() -> FailureProfile {
    let dev = Device::new(Topology::linear(4), |t| {
        Calibration::uniform(t, 0.08, 0.002, 0.02)
    });
    let mut c: Circuit<PhysQubit> = Circuit::new(4);
    for _ in 0..5 {
        c.cnot(PhysQubit(0), PhysQubit(1));
        c.h(PhysQubit(2));
        c.swap(PhysQubit(2), PhysQubit(3));
    }
    c.measure_all();
    FailureProfile::new(&dev, &c, CoherenceModel::Disabled).unwrap()
}

const KERNELS: [McKernel; 2] = [McKernel::Scalar, McKernel::BitParallel];

/// Runs `trials` under the recorder and returns (estimate, counters).
fn traced_run(
    kernel: McKernel,
    threads: usize,
    trials: u64,
    seed: u64,
) -> (quva_sim::McEstimate, BTreeMap<String, u64>) {
    let p = profile();
    quva_obs::reset();
    quva_obs::enable();
    let est = McEngine::new(threads)
        .with_chunk_trials(1_000)
        .with_kernel(kernel)
        .run(&p, trials, seed);
    let report = quva_obs::drain();
    quva_obs::disable();
    (est, report.counters)
}

#[test]
fn traced_counters_are_identical_across_runs() {
    let _g = guard();
    let (est_a, counters_a) = traced_run(McKernel::default(), 8, 50_000, 11);
    let (est_b, counters_b) = traced_run(McKernel::default(), 8, 50_000, 11);
    assert_eq!(est_a, est_b);
    assert_eq!(
        counters_a, counters_b,
        "same seed + threads must drain identical counters"
    );
}

#[test]
fn traced_counters_are_identical_across_thread_counts() {
    let _g = guard();
    for kernel in KERNELS {
        let (est_seq, mut seq) = traced_run(kernel, 1, 50_000, 7);
        let (est_par, mut par) = traced_run(kernel, 8, 50_000, 7);
        assert_eq!(est_seq, est_par, "{kernel}");
        // the worker count is configuration, not measurement: it is the
        // one counter allowed to differ between schedules
        assert_eq!(seq.remove("sim.workers"), Some(1), "{kernel}");
        assert_eq!(par.remove("sim.workers"), Some(8), "{kernel}");
        assert_eq!(seq, par, "{kernel}: counters must be schedule-independent");
    }
}

#[test]
fn tracing_does_not_perturb_the_estimate() {
    let _g = guard();
    let p = profile();
    for kernel in KERNELS {
        let engine = McEngine::new(4).with_chunk_trials(1_000).with_kernel(kernel);
        quva_obs::reset();
        let baseline = engine.run(&p, 30_000, 3); // recorder off → reference path
        quva_obs::enable();
        let traced = engine.run(&p, 30_000, 3);
        quva_obs::drain();
        quva_obs::disable();
        let reference = engine.run_reference(&p, 30_000, 3);
        assert_eq!(baseline, reference, "{kernel}");
        assert_eq!(
            traced, reference,
            "{kernel}: traced path must draw the same RNG stream"
        );
    }
}

#[test]
fn abort_classes_account_for_every_failed_trial() {
    let _g = guard();
    for kernel in KERNELS {
        let (est, counters) = traced_run(kernel, 4, 40_000, 5);
        let aborted: u64 = counters
            .iter()
            .filter(|(k, _)| k.starts_with("sim.abort."))
            .map(|(_, &v)| v)
            .sum();
        assert_eq!(aborted, est.trials - est.successes, "{kernel}");
        assert_eq!(counters["sim.trials"], 40_000);
        assert_eq!(counters["sim.chunks"], 40);
        // this profile exposes cnot, swap, one-qubit, and readout faults;
        // at 40k trials each class fires
        for class in ["cnot", "swap", "one_qubit", "readout"] {
            assert!(
                counters.contains_key(&format!("sim.abort.{class}")),
                "{kernel}: missing abort class {class}: {counters:?}"
            );
        }
    }
}

#[test]
fn disabled_recorder_stays_empty_through_a_run() {
    let _g = guard();
    let p = profile();
    quva_obs::reset();
    McEngine::new(4).run(&p, 10_000, 1);
    let report = quva_obs::drain();
    assert!(report.is_empty(), "disabled run must record nothing");
}
