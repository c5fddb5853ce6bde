//! # quva-analysis — static verification & lint framework
//!
//! Machine-checked answers to "did the compiler emit a *legal* circuit?"
//! — without running a single simulation. The paper's entire argument
//! rests on compiled circuits being legal (every two-qubit gate on an
//! active coupler, SWAP chains that really realize the claimed
//! permutation); this crate proves it statically, per artifact.
//!
//! Four layers:
//!
//! - **Diagnostics** ([`Diagnostic`], [`Severity`], stable [`LintCode`]s
//!   `QV001`–`QV504`, gate-index [`Span`]s) aggregated into a [`Report`]
//!   renderable as text or JSON.
//! - **Passes** ([`CircuitPass`] over logical circuits, [`CompiledPass`]
//!   over compiler output) in the fixed [`PassRegistry`], plus the
//!   [`contracts`] checker that validates `quva::pipeline` pass
//!   pipelines *before they run*.
//! - **Reliability analyses** over physical circuits: static ESP
//!   intervals (one fold over the gate stream, whole-circuit and per
//!   qubit), link attribution, decoherence exposure, missed-VQM routes
//!   and weak-region allocations.
//! - **The [`Verifier`]**, which bundles the standard registry and plugs
//!   into `MappingPolicy::compile_with` via [`quva::CompileAudit`],
//!   running there only the passes that can report an error; the
//!   [`audit_compiled`] entry point adds the reliability report
//!   (ESP bound + attribution) on top of full verification.
//!
//! Severity policy: `QV0xx` codes are [`Severity::Error`] — the artifact
//! is illegal or semantically wrong and verification fails. `QV1xx`,
//! `QV2xx`, the reliability block `QV3xx`, and the cost block `QV4xx`
//! are [`Severity::Warning`] — legal but suspicious, wasteful, or
//! budget-hostile; a report with only warnings still
//! [`Report::is_clean`]. The pipeline-contract block `QV5xx` is
//! [`Severity::Error`] again: a misconfigured pipeline cannot produce a
//! legal artifact, so it is refused before it runs.
//!
//! ## Examples
//!
//! Verifying a compiled circuit end to end:
//!
//! ```
//! use quva::MappingPolicy;
//! use quva_analysis::verify_compiled;
//! use quva_benchmarks::bv;
//! use quva_device::Device;
//!
//! # fn main() -> Result<(), quva::CompileError> {
//! let device = Device::ibm_q20();
//! let program = bv(8);
//! let compiled = MappingPolicy::vqa_vqm().compile(&program, &device)?;
//! let report = verify_compiled(&program, &device, &compiled);
//! assert!(report.is_clean(), "{}", report.render_text());
//! # Ok(())
//! # }
//! ```
//!
//! Catching a corrupted output (an off-coupler CNOT):
//!
//! ```
//! use quva::{CompiledCircuit, Mapping, MappingPolicy};
//! use quva_analysis::{verify_compiled, LintCode};
//! use quva_circuit::{Circuit, PhysQubit, Qubit};
//! use quva_device::{Calibration, Device, Topology};
//!
//! let device = Device::new(Topology::linear(4), |t| Calibration::uniform(t, 0.02, 0.001, 0.02));
//! let mut program = Circuit::new(2);
//! program.cnot(Qubit(0), Qubit(1));
//! let mut physical: Circuit<PhysQubit> = Circuit::with_cbits(4, 2);
//! physical.cnot(PhysQubit(0), PhysQubit(2)); // 0 and 2 are not coupled
//! let mapping = Mapping::from_assignment(2, 4, |q| PhysQubit(q.0 * 2)).unwrap();
//! let forged = CompiledCircuit::from_parts(physical, mapping.clone(), mapping, 0);
//! let report = verify_compiled(&program, &device, &forged);
//! assert!(report.has_code(LintCode::OffCouplerGate));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod audit;
pub mod contracts;
mod diagnostic;
mod pass;
pub mod passes;

pub use audit::{audit_compiled, audit_with, AuditReport, QubitReliability};
pub use contracts::{check_pipeline, violation_code};
pub use diagnostic::{Diagnostic, LintCode, Report, Severity, Span};
pub use pass::{CircuitPass, CompiledContext, CompiledPass, PassRegistry};
pub use passes::cost::{
    cost_envelope, envelope_of, total_events, CostBudget, CostEnvelope, CostInterval, CostModel,
    FRAME_BUDGET_BYTES,
};
pub use passes::esp::{
    esp_interval, link_attribution, per_qubit_esp, EspConfig, EspInterval, LinkAttribution,
};

use quva::{CompileAudit, CompiledCircuit};
use quva_circuit::Circuit;
use quva_device::Device;

/// The standard verifier: every built-in pass, usable directly or as a
/// [`quva::CompileAudit`] plugged into `MappingPolicy::compile_with`.
///
/// [`Verifier::verify`] and [`Verifier::lint`] run every pass and
/// report every finding. As a `CompileAudit` it only decides accept or
/// reject, so it runs just the passes that can report an error
/// ([`PassRegistry::verify_errors`]): the verdict is the full report's
/// [`Report::is_clean`], and a rejection lists those passes' findings.
///
/// # Examples
///
/// ```
/// use quva::{CompileOptions, MappingPolicy};
/// use quva_analysis::Verifier;
/// use quva_benchmarks::ghz;
/// use quva_device::Device;
///
/// # fn main() -> Result<(), quva::CompileError> {
/// let verifier = Verifier::new();
/// let options = CompileOptions { verify: Some(&verifier) };
/// let device = Device::ibm_q20();
/// let compiled = MappingPolicy::vqm().compile_with(&ghz(6), &device, &options)?;
/// assert!(compiled.inserted_swaps() < 20);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Verifier {
    registry: PassRegistry,
}

impl Default for Verifier {
    /// Same as [`Verifier::new`]: the standard pass registry.
    fn default() -> Self {
        Verifier::new()
    }
}

impl Verifier {
    /// A verifier over [`PassRegistry::standard`].
    pub fn new() -> Self {
        Verifier {
            registry: PassRegistry::standard(),
        }
    }

    /// Runs every compiled-output pass.
    pub fn verify(&self, source: &Circuit, device: &Device, compiled: &CompiledCircuit) -> Report {
        self.registry.verify(source, device, compiled)
    }

    /// Runs every circuit-level lint pass.
    pub fn lint(&self, circuit: &Circuit, device: Option<&Device>) -> Report {
        self.registry.lint_circuit(circuit, device)
    }
}

impl CompileAudit for Verifier {
    fn audit(&self, source: &Circuit, device: &Device, compiled: &CompiledCircuit) -> Result<(), String> {
        let report = self.registry.verify_errors(source, device, compiled);
        if report.is_clean() {
            Ok(())
        } else {
            Err(report.render_text())
        }
    }
}

/// Lints a logical circuit with the standard passes. Passing a device
/// enables the device-dependent lints.
pub fn lint_circuit(circuit: &Circuit, device: Option<&Device>) -> Report {
    Verifier::new().lint(circuit, device)
}

/// Verifies a compiled circuit against its source program and device
/// with the standard passes.
pub fn verify_compiled(source: &Circuit, device: &Device, compiled: &CompiledCircuit) -> Report {
    Verifier::new().verify(source, device, compiled)
}
