//! Decoherence-exposure analysis: idle windows per qubit vs T1.
//!
//! Builds the ASAP schedule of the compiled circuit under the device's
//! calibrated gate durations, measures each physical qubit's idle time
//! between its first and last gate (the simulator's idle-window
//! coherence model), converts it to a decay failure probability
//! `½·(1 − e^(−t_idle/T1))`, and flags qubits whose exposure exceeds a
//! threshold.

use quva_circuit::{Circuit, GateTimes, PhysQubit, Schedule};
use quva_device::Device;

use crate::diagnostic::{Diagnostic, LintCode};
use crate::pass::{CompiledContext, CompiledPass};

/// One qubit's idle-window decoherence exposure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IdleExposure {
    /// The physical qubit.
    pub qubit: usize,
    /// Idle nanoseconds between its first and last gate.
    pub idle_ns: f64,
    /// The qubit's T1, microseconds.
    pub t1_us: f64,
    /// Decay failure probability `½·(1 − e^(−t_idle/T1))` — the
    /// simulator's idle-window model.
    pub failure: f64,
}

/// Idle-window exposure of every *used* physical qubit, sorted by
/// descending failure probability (ties by qubit index). Matches the
/// simulator's `CoherenceModel::IdleWindow` exactly.
pub fn idle_exposure(device: &Device, circuit: &Circuit<PhysQubit>) -> Vec<IdleExposure> {
    let cal = device.calibration();
    let dur = cal.durations();
    let times = GateTimes {
        one_qubit_ns: dur.one_qubit_ns,
        two_qubit_ns: dur.two_qubit_ns,
        readout_ns: dur.readout_ns,
    };
    let schedule = Schedule::asap(circuit, times);
    let mut rows: Vec<IdleExposure> = (0..circuit.num_qubits())
        .filter(|&q| schedule.is_used(q))
        .map(|q| {
            let idle_ns = schedule.idle_ns(q);
            let t1_us = cal.t1_us(q);
            let idle_us = idle_ns / 1000.0;
            IdleExposure {
                qubit: q,
                idle_ns,
                t1_us,
                failure: 0.5 * (1.0 - (-idle_us / t1_us).exp()),
            }
        })
        .collect();
    rows.sort_by(|a, b| b.failure.total_cmp(&a.failure).then(a.qubit.cmp(&b.qubit)));
    rows
}

/// The decoherence-exposure pass: emits [`QV303`] for every qubit whose
/// idle-window decay probability exceeds the threshold.
///
/// [`QV303`]: LintCode::ExcessiveIdling
#[derive(Debug, Clone)]
pub struct DecoherenceExposure {
    /// [`LintCode::ExcessiveIdling`] fires when a qubit's idle-decay
    /// failure probability exceeds this value.
    pub failure_threshold: f64,
}

impl Default for DecoherenceExposure {
    fn default() -> Self {
        DecoherenceExposure {
            failure_threshold: 0.05,
        }
    }
}

impl CompiledPass for DecoherenceExposure {
    fn name(&self) -> &'static str {
        "decoherence-exposure"
    }

    fn codes(&self) -> &'static [LintCode] {
        &[LintCode::ExcessiveIdling]
    }

    fn run(&self, cx: &CompiledContext<'_>, out: &mut Vec<Diagnostic>) {
        for row in idle_exposure(cx.device, cx.compiled.physical()) {
            if row.failure > self.failure_threshold {
                out.push(Diagnostic::new(
                    LintCode::ExcessiveIdling,
                    None,
                    format!(
                        "physical qubit {} idles {:.0} ns against T1 = {:.0} us \
                         (decay probability {:.4} > {})",
                        row.qubit, row.idle_ns, row.t1_us, row.failure, self.failure_threshold
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quva::{CompiledCircuit, Mapping};
    use quva_circuit::Qubit;
    use quva_device::{Calibration, Topology};

    /// A long serial chain on qubit 0 forces qubit 1 to idle between
    /// its opening gate and the closing CNOT.
    fn idling_physical(n_serial: usize) -> Circuit<PhysQubit> {
        let mut c: Circuit<PhysQubit> = Circuit::new(2);
        c.h(PhysQubit(1));
        for _ in 0..n_serial {
            c.h(PhysQubit(0));
        }
        c.cnot(PhysQubit(0), PhysQubit(1));
        c
    }

    #[test]
    fn exposure_matches_simulator_model() {
        let dev = Device::new(Topology::linear(2), |t| Calibration::uniform(t, 0.0, 0.0, 0.0));
        let rows = idle_exposure(&dev, &idling_physical(3));
        let q1 = rows.iter().find(|r| r.qubit == 1).expect("qubit 1 used");
        // window 0..450 ns, busy 50 (H) + 300 (CNOT) => idle 100 ns
        assert!((q1.idle_ns - 100.0).abs() < 1e-9, "{rows:?}");
        let expected = 0.5 * (1.0 - (-0.1 / q1.t1_us).exp());
        assert!((q1.failure - expected).abs() < 1e-15);
    }

    #[test]
    fn long_idle_fires_qv303() {
        // T1 of 1 us (pathologically short) so even modest idling decays
        let topo = Topology::linear(2);
        let dev = Device::new(topo, |t| {
            Calibration::new(
                t,
                vec![1.0; 2],
                vec![1.0; 2],
                vec![0.0; 2],
                vec![0.0; 2],
                vec![0.0; t.num_links()],
                quva_device::GateDurations::default(),
            )
            .expect("valid calibration")
        });
        let physical = idling_physical(20);
        let mut source = Circuit::new(2);
        source.h(Qubit(0));
        let mapping = Mapping::identity(2, 2);
        let compiled = CompiledCircuit::from_parts(physical, mapping.clone(), mapping, 0);
        let cx = CompiledContext {
            source: &source,
            device: &dev,
            compiled: &compiled,
        };
        let mut out = Vec::new();
        DecoherenceExposure::default().run(&cx, &mut out);
        assert!(
            out.iter().any(|d| d.code() == LintCode::ExcessiveIdling),
            "{out:?}"
        );
    }

    #[test]
    fn tight_circuit_is_quiet() {
        let dev = Device::new(Topology::linear(2), |t| Calibration::uniform(t, 0.01, 0.0, 0.0));
        let mut physical: Circuit<PhysQubit> = Circuit::new(2);
        physical.cnot(PhysQubit(0), PhysQubit(1));
        let mut source = Circuit::new(2);
        source.cnot(Qubit(0), Qubit(1));
        let mapping = Mapping::identity(2, 2);
        let compiled = CompiledCircuit::from_parts(physical, mapping.clone(), mapping, 0);
        let cx = CompiledContext {
            source: &source,
            device: &dev,
            compiled: &compiled,
        };
        let mut out = Vec::new();
        DecoherenceExposure::default().run(&cx, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }
}
