//! The pass abstraction and the registry that runs passes over
//! circuits and compiled outputs.

use std::fmt;

use quva::CompiledCircuit;
use quva_circuit::Circuit;
use quva_device::Device;

use crate::diagnostic::{Diagnostic, LintCode, Report, Severity};
use crate::passes;
use crate::passes::esp::EspConfig;

/// A static pass over a *logical* (program) circuit, optionally aware
/// of the device it is intended for.
///
/// `Send + Sync` are supertraits so a registry (and the `Verifier`
/// built on it) satisfies `quva::CompileAudit`'s `Sync` bound and can
/// sit inside a cached, thread-shared compile pipeline.
pub trait CircuitPass: Send + Sync {
    /// The stable pass name shown in reports.
    fn name(&self) -> &'static str;
    /// Runs the pass, appending any findings to `out`.
    fn run(&self, circuit: &Circuit, device: Option<&Device>, out: &mut Vec<Diagnostic>);
}

/// Everything a compiled-output pass can look at: the source program,
/// the device it was compiled for, and the compiler's output.
#[derive(Debug, Clone, Copy)]
pub struct CompiledContext<'a> {
    /// The logical program that was compiled.
    pub source: &'a Circuit,
    /// The device the output claims to target.
    pub device: &'a Device,
    /// The compiler's output under audit.
    pub compiled: &'a CompiledCircuit,
}

/// A static pass over a compiled circuit (no simulation involved).
///
/// `Send + Sync` are supertraits for the same reason as on
/// [`CircuitPass`].
pub trait CompiledPass: Send + Sync {
    /// The stable pass name shown in reports.
    fn name(&self) -> &'static str;
    /// Every code the pass can emit. [`PassRegistry::verify_errors`]
    /// runs the pass only when one of them is [`Severity::Error`], so
    /// a code missing here can hide an error from compile-time
    /// verification.
    fn codes(&self) -> &'static [LintCode];
    /// Runs the pass, appending any findings to `out`.
    fn run(&self, cx: &CompiledContext<'_>, out: &mut Vec<Diagnostic>);
}

/// The fixed, ordered set of built-in passes: circuit-level lints and
/// compiled-output verification passes.
///
/// # Examples
///
/// ```
/// use quva_analysis::PassRegistry;
/// use quva_circuit::{Circuit, Qubit, Cbit};
///
/// let mut c = Circuit::new(2);
/// c.h(Qubit(0)).cnot(Qubit(0), Qubit(1));
/// c.measure(Qubit(0), Cbit(0)).measure(Qubit(1), Cbit(1));
/// let report = PassRegistry::standard().lint_circuit(&c, None);
/// assert!(report.is_clean());
/// ```
pub struct PassRegistry {
    circuit: Vec<Box<dyn CircuitPass>>,
    compiled: Vec<Box<dyn CompiledPass>>,
}

impl fmt::Debug for PassRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PassRegistry")
            .field("circuit", &self.circuit_pass_names())
            .field("compiled", &self.compiled_pass_names())
            .finish()
    }
}

impl PassRegistry {
    /// The standard registry: every built-in pass.
    ///
    /// Circuit lints: qubit liveness & width, measurement coverage,
    /// redundancy, calibration sanity (when a device is supplied).
    /// Compiled passes: coupler legality, permutation & sequence
    /// consistency, physical hygiene (use-after-measure, redundancy),
    /// calibration sanity, then the reliability-semantic passes (ESP
    /// bound & attribution, decoherence exposure, missed-VQM routes,
    /// weak-region allocation) and the cost budget.
    pub fn standard() -> Self {
        PassRegistry::with_esp_config(EspConfig::default())
    }

    /// The standard passes with the ESP reliability pass judging its
    /// bound at `config`'s drift, so an audit's findings agree with the
    /// ESP interval it reports.
    pub(crate) fn with_esp_config(config: EspConfig) -> Self {
        PassRegistry {
            circuit: vec![
                Box::new(passes::liveness::QubitLiveness),
                Box::new(passes::measurement::MeasurementCoverage),
                Box::new(passes::redundancy::Redundancy),
                Box::new(passes::calibration::CalibrationSanity),
            ],
            compiled: vec![
                Box::new(passes::coupler::CouplerLegality),
                Box::new(passes::permutation::PermutationConsistency),
                Box::new(passes::liveness::PhysicalLiveness),
                Box::new(passes::redundancy::PhysicalRedundancy),
                Box::new(passes::calibration::CompiledCalibrationSanity),
                Box::new(passes::esp::EspReliability::with_config(config)),
                Box::new(passes::decoherence::DecoherenceExposure),
                Box::new(passes::routing::MissedVqm),
                Box::new(passes::region::WeakRegion),
                Box::new(passes::cost::CostBudget::default()),
            ],
        }
    }

    /// The registered circuit-pass names, in run order.
    pub fn circuit_pass_names(&self) -> Vec<&'static str> {
        self.circuit.iter().map(|p| p.name()).collect()
    }

    /// The registered compiled-pass names, in run order.
    pub fn compiled_pass_names(&self) -> Vec<&'static str> {
        self.compiled_passes().map(|p| p.name()).collect()
    }

    /// The registered compiled-output passes, in run order.
    pub fn compiled_passes(&self) -> impl Iterator<Item = &dyn CompiledPass> {
        self.compiled.iter().map(|p| p.as_ref())
    }

    /// Runs every circuit-level pass over a logical circuit. Passing a
    /// device enables the device-dependent lints (width, calibration
    /// sanity).
    pub fn lint_circuit(&self, circuit: &Circuit, device: Option<&Device>) -> Report {
        let mut report = Report::default();
        for pass in &self.circuit {
            let mut out = Vec::new();
            pass.run(circuit, device, &mut out);
            report.record_pass(pass.name());
            report.extend(out);
        }
        report
    }

    /// Runs every compiled-output pass over a compiled circuit.
    pub fn verify(&self, source: &Circuit, device: &Device, compiled: &CompiledCircuit) -> Report {
        self.run_compiled(source, device, compiled, |_| true)
    }

    /// Runs only the compiled-output passes that can report an error:
    /// those declaring an error-severity code in [`CompiledPass::codes`].
    /// Every other pass emits warnings only, so this report is clean
    /// exactly when [`PassRegistry::verify`]'s is, at a fraction of
    /// the cost.
    pub fn verify_errors(&self, source: &Circuit, device: &Device, compiled: &CompiledCircuit) -> Report {
        self.run_compiled(source, device, compiled, |pass| {
            pass.codes().iter().any(|c| c.severity() == Severity::Error)
        })
    }

    fn run_compiled(
        &self,
        source: &Circuit,
        device: &Device,
        compiled: &CompiledCircuit,
        selected: impl Fn(&dyn CompiledPass) -> bool,
    ) -> Report {
        let cx = CompiledContext {
            source,
            device,
            compiled,
        };
        let mut report = Report::default();
        for pass in self.compiled_passes().filter(|&p| selected(p)) {
            let mut out = Vec::new();
            pass.run(&cx, &mut out);
            report.record_pass(pass.name());
            report.extend(out);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quva_circuit::Qubit;

    #[test]
    fn standard_registry_has_all_passes() {
        let r = PassRegistry::standard();
        assert!(r.circuit_pass_names().contains(&"qubit-liveness"));
        assert!(r.circuit_pass_names().contains(&"measurement-coverage"));
        assert!(r.compiled_pass_names().contains(&"coupler-legality"));
        assert!(r.compiled_pass_names().contains(&"permutation-consistency"));
        assert!(r.compiled_pass_names().len() >= 4);
        // every error code has a compiled pass that declares it, so
        // `verify_errors` can never skip an error check; the QV5xx block
        // is exempt because `check_pipeline` emits it before compiling
        for code in LintCode::ALL {
            if code.severity() == Severity::Error && !code.code().starts_with("QV5") {
                assert!(
                    r.compiled_passes().any(|p| p.codes().contains(&code)),
                    "no compiled pass declares {}",
                    code.code()
                );
            }
        }
    }

    #[test]
    fn verify_errors_runs_only_the_passes_that_can_fail() {
        let device = Device::new(quva_device::Topology::linear(2), |t| {
            quva_device::Calibration::uniform(t, 0.02, 0.001, 0.02)
        });
        let mut source = Circuit::new(2);
        source.cnot(Qubit(0), Qubit(1));
        let physical = source.map_qubits(2, |q| quva_circuit::PhysQubit(q.0));
        let mapping = quva::Mapping::identity(2, 2);
        let compiled = CompiledCircuit::from_parts(physical, mapping.clone(), mapping, 0);
        let report = PassRegistry::standard().verify_errors(&source, &device, &compiled);
        assert_eq!(
            report.passes(),
            [
                "coupler-legality",
                "permutation-consistency",
                "physical-liveness",
                "calibration-sanity"
            ]
        );
        assert!(report.is_clean(), "{}", report.render_text());
    }

    #[test]
    fn debug_lists_pass_names() {
        let r = PassRegistry::standard();
        let dbg = format!("{r:?}");
        assert!(dbg.contains("coupler-legality"), "{dbg}");
    }
}
