//! Qubit liveness: register width, unused-but-allocated qubits, and
//! operations on already-measured state.

use quva_circuit::{Circuit, Gate, QubitId};
use quva_device::Device;

use crate::diagnostic::{Diagnostic, LintCode, Span};
use crate::pass::{CircuitPass, CompiledContext, CompiledPass};

/// Logical-circuit liveness: flags circuits wider than the device
/// ([`QV006`]), allocated-but-unused qubits ([`QV101`]), and
/// use-after-measure ([`QV005`] / [`QV105`]).
///
/// [`QV005`]: LintCode::UseAfterMeasure
/// [`QV006`]: LintCode::WidthExceeded
/// [`QV101`]: LintCode::UnusedQubit
/// [`QV105`]: LintCode::SwapAfterMeasure
#[derive(Debug, Default)]
pub struct QubitLiveness;

impl CircuitPass for QubitLiveness {
    fn name(&self) -> &'static str {
        "qubit-liveness"
    }

    fn run(&self, circuit: &Circuit, device: Option<&Device>, out: &mut Vec<Diagnostic>) {
        if let Some(dev) = device {
            if circuit.num_qubits() > dev.num_qubits() {
                out.push(Diagnostic::new(
                    LintCode::WidthExceeded,
                    None,
                    format!(
                        "circuit uses {} qubits, device has {}",
                        circuit.num_qubits(),
                        dev.num_qubits()
                    ),
                ));
            }
        }
        if !circuit.is_empty() {
            let mut used = vec![false; circuit.num_qubits()];
            for q in circuit.used_qubits() {
                used[q.index()] = true;
            }
            for (q, &u) in used.iter().enumerate() {
                if !u {
                    out.push(Diagnostic::new(
                        LintCode::UnusedQubit,
                        None,
                        format!("qubit q{q} is allocated but never referenced"),
                    ));
                }
            }
        }
        use_after_measure(circuit, out);
    }
}

/// Physical-circuit liveness: use-after-measure over the compiled gate
/// stream, with measured state tracked *through* SWAPs (a routing SWAP
/// moving measured state is only the [`QV105`] warning; any other gate
/// touching it is the [`QV005`] error).
///
/// [`QV005`]: LintCode::UseAfterMeasure
/// [`QV105`]: LintCode::SwapAfterMeasure
#[derive(Debug, Default)]
pub struct PhysicalLiveness;

impl CompiledPass for PhysicalLiveness {
    fn name(&self) -> &'static str {
        "physical-liveness"
    }

    fn codes(&self) -> &'static [LintCode] {
        &[LintCode::UseAfterMeasure, LintCode::SwapAfterMeasure]
    }

    fn run(&self, cx: &CompiledContext<'_>, out: &mut Vec<Diagnostic>) {
        use_after_measure(cx.compiled.physical(), out);
    }
}

/// Shared use-after-measure walk: works over logical or physical
/// circuits because measured-ness is a property of the *state*, which
/// SWAPs move between locations.
pub(crate) fn use_after_measure<Q: QubitId>(circuit: &Circuit<Q>, out: &mut Vec<Diagnostic>) {
    let mut measured = vec![false; circuit.num_qubits()];
    for (i, g) in circuit.iter().enumerate() {
        match g {
            Gate::Barrier { .. } => {}
            Gate::Swap { a, b } => {
                if measured[a.index()] || measured[b.index()] {
                    out.push(Diagnostic::new(
                        LintCode::SwapAfterMeasure,
                        Some(Span::gate(i)),
                        format!("{g} moves already-measured state"),
                    ));
                }
                measured.swap(a.index(), b.index());
            }
            Gate::Measure { qubit, .. } => {
                if measured[qubit.index()] {
                    out.push(Diagnostic::new(
                        LintCode::UseAfterMeasure,
                        Some(Span::gate(i)),
                        format!("{g}: {qubit} was already measured"),
                    ));
                }
                measured[qubit.index()] = true;
            }
            Gate::OneQubit { .. } | Gate::Cnot { .. } => {
                for q in g.qubits() {
                    if measured[q.index()] {
                        out.push(Diagnostic::new(
                            LintCode::UseAfterMeasure,
                            Some(Span::gate(i)),
                            format!("{g} operates on {q} after it was measured"),
                        ));
                    }
                }
            }
        }
    }
}
