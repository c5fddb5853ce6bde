//! Calibration-sanity escape detection: values that should have been
//! stopped by `quva-device`'s sanitization but are visible to policy
//! code anyway.

use quva_circuit::Circuit;
use quva_device::Device;

use crate::diagnostic::{Diagnostic, LintCode};
use crate::pass::{CircuitPass, CompiledContext, CompiledPass};

/// Device-level calibration sanity for `quva lint --device ...`: every
/// escape is [`QV008`]. A no-op when no device is supplied.
///
/// [`QV008`]: LintCode::CalibrationEscape
#[derive(Debug, Default)]
pub struct CalibrationSanity;

impl CircuitPass for CalibrationSanity {
    fn name(&self) -> &'static str {
        "calibration-sanity"
    }

    fn run(&self, _circuit: &Circuit, device: Option<&Device>, out: &mut Vec<Diagnostic>) {
        if let Some(dev) = device {
            check_device(dev, out);
        }
    }
}

/// The same check as part of post-compile verification: the device the
/// compiler just consumed must not carry escaped garbage.
#[derive(Debug, Default)]
pub struct CompiledCalibrationSanity;

impl CompiledPass for CompiledCalibrationSanity {
    fn name(&self) -> &'static str {
        "calibration-sanity"
    }

    fn codes(&self) -> &'static [LintCode] {
        &[LintCode::CalibrationEscape]
    }

    fn run(&self, cx: &CompiledContext<'_>, out: &mut Vec<Diagnostic>) {
        check_device(cx.device, out);
    }
}

/// Mirrors the validity contract of `quva-device::validate`: error
/// rates live in `[0, 1)`, coherence times are positive and finite.
/// Disabled links are exempt — their calibration is dead data.
pub(crate) fn check_device(device: &Device, out: &mut Vec<Diagnostic>) {
    let cal = device.calibration();
    let topo = device.topology();
    for id in 0..topo.num_links() {
        if !device.link_enabled(id) {
            continue;
        }
        let e = cal.two_qubit_error(id);
        if !(0.0..1.0).contains(&e) {
            let link = topo.links()[id];
            out.push(Diagnostic::new(
                LintCode::CalibrationEscape,
                None,
                format!(
                    "two-qubit error {e} on link {}-{} escaped sanitization",
                    link.low(),
                    link.high()
                ),
            ));
        }
    }
    for q in 0..device.num_qubits() {
        for (what, v) in [
            ("one-qubit error", cal.one_qubit_error(q)),
            ("readout error", cal.readout_error(q)),
        ] {
            if !(0.0..1.0).contains(&v) {
                out.push(Diagnostic::new(
                    LintCode::CalibrationEscape,
                    None,
                    format!("{what} {v} on qubit {q} escaped sanitization"),
                ));
            }
        }
        for (what, t) in [("T1", cal.t1_us(q)), ("T2", cal.t2_us(q))] {
            if !(t.is_finite() && t > 0.0) {
                out.push(Diagnostic::new(
                    LintCode::CalibrationEscape,
                    None,
                    format!("{what} = {t} µs on qubit {q} escaped sanitization"),
                ));
            }
        }
    }
}
