//! The pass abstraction and the registry that runs passes over
//! circuits and compiled outputs.

use std::fmt;

use quva::CompiledCircuit;
use quva_circuit::Circuit;
use quva_device::Device;

use crate::diagnostic::{Diagnostic, LintCode, Report, Severity};
use crate::passes;

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

/// An ordered collection of passes: circuit-level lints and
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
#[derive(Default)]
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
    /// An empty registry; add passes with
    /// [`PassRegistry::register_circuit_pass`] /
    /// [`PassRegistry::register_compiled_pass`].
    pub fn empty() -> Self {
        PassRegistry::default()
    }

    /// The standard registry: every built-in pass.
    ///
    /// Circuit lints: qubit liveness & width, measurement coverage,
    /// redundancy, calibration sanity (when a device is supplied).
    /// Compiled passes: coupler legality, permutation & sequence
    /// consistency, physical hygiene (use-after-measure, redundancy),
    /// calibration sanity, then the reliability-semantic passes (ESP
    /// bound & attribution, decoherence exposure, missed-VQM routes,
    /// weak-region allocation).
    pub fn standard() -> Self {
        let mut r = PassRegistry::empty();
        r.register_circuit_pass(Box::new(passes::liveness::QubitLiveness));
        r.register_circuit_pass(Box::new(passes::measurement::MeasurementCoverage));
        r.register_circuit_pass(Box::new(passes::redundancy::Redundancy));
        r.register_circuit_pass(Box::new(passes::calibration::CalibrationSanity));
        r.register_compiled_pass(Box::new(passes::coupler::CouplerLegality));
        r.register_compiled_pass(Box::new(passes::permutation::PermutationConsistency));
        r.register_compiled_pass(Box::new(passes::liveness::PhysicalLiveness));
        r.register_compiled_pass(Box::new(passes::redundancy::PhysicalRedundancy));
        r.register_compiled_pass(Box::new(passes::calibration::CompiledCalibrationSanity));
        r.register_compiled_pass(Box::new(passes::esp::EspReliability::default()));
        r.register_compiled_pass(Box::new(passes::decoherence::DecoherenceExposure::default()));
        r.register_compiled_pass(Box::new(passes::routing::MissedVqm::default()));
        r.register_compiled_pass(Box::new(passes::region::WeakRegion::default()));
        r.register_compiled_pass(Box::new(passes::cost::CostBudget::default()));
        r
    }

    /// Appends a circuit-level pass.
    pub fn register_circuit_pass(&mut self, pass: Box<dyn CircuitPass>) -> &mut Self {
        self.circuit.push(pass);
        self
    }

    /// Appends a compiled-output pass.
    pub fn register_compiled_pass(&mut self, pass: Box<dyn CompiledPass>) -> &mut Self {
        self.compiled.push(pass);
        self
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
    use crate::diagnostic::{LintCode, Span};
    use quva_circuit::Qubit;

    struct AlwaysWarn;
    impl CircuitPass for AlwaysWarn {
        fn name(&self) -> &'static str {
            "always-warn"
        }
        fn run(&self, _: &Circuit, _: Option<&Device>, out: &mut Vec<Diagnostic>) {
            out.push(Diagnostic::new(
                LintCode::NoMeasurements,
                Some(Span::gate(0)),
                "synthetic",
            ));
        }
    }

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
    fn custom_pass_registration() {
        let mut r = PassRegistry::empty();
        r.register_circuit_pass(Box::new(AlwaysWarn));
        let mut c = Circuit::new(1);
        c.h(Qubit(0));
        let report = r.lint_circuit(&c, None);
        assert_eq!(report.passes(), ["always-warn"]);
        assert_eq!(report.warning_count(), 1);
        assert!(report.is_clean(), "warnings do not fail verification");
    }

    #[test]
    fn debug_lists_pass_names() {
        let r = PassRegistry::standard();
        let dbg = format!("{r:?}");
        assert!(dbg.contains("coupler-legality"), "{dbg}");
    }
}
