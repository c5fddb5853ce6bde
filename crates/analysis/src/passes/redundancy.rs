//! Redundancy lints: gates that demonstrably waste error budget.

use quva_circuit::{Circuit, Gate, QubitId};
use quva_device::Device;

use crate::diagnostic::{Diagnostic, LintCode, Span};
use crate::pass::{CircuitPass, CompiledContext, CompiledPass};

/// Logical-circuit redundancy: adjacent self-canceling pairs
/// ([`QV201`]) and SWAPs with no observable effect ([`QV202`]).
///
/// [`QV201`]: LintCode::RedundantPair
/// [`QV202`]: LintCode::ZeroEffectSwap
#[derive(Debug, Default)]
pub struct Redundancy;

impl CircuitPass for Redundancy {
    fn name(&self) -> &'static str {
        "redundancy"
    }

    fn run(&self, circuit: &Circuit, _device: Option<&Device>, out: &mut Vec<Diagnostic>) {
        find_redundancies(circuit, out);
    }
}

/// The same lints over the compiled physical stream, where every
/// useless gate costs real fidelity.
#[derive(Debug, Default)]
pub struct PhysicalRedundancy;

impl CompiledPass for PhysicalRedundancy {
    fn name(&self) -> &'static str {
        "physical-redundancy"
    }

    fn codes(&self) -> &'static [LintCode] {
        &[LintCode::RedundantPair, LintCode::ZeroEffectSwap]
    }

    fn run(&self, cx: &CompiledContext<'_>, out: &mut Vec<Diagnostic>) {
        find_redundancies(cx.compiled.physical(), out);
    }
}

pub(crate) fn find_redundancies<Q: QubitId>(circuit: &Circuit<Q>, out: &mut Vec<Diagnostic>) {
    let gates = circuit.gates();

    // QV201: a pair cancels when the *immediately preceding* gate on
    // every operand is one and the same gate, over the same qubit set,
    // and the two are exact inverses. Barriers break adjacency; a
    // matched pair is consumed so chains report floor(n/2) pairs.
    let mut prev: Vec<Option<usize>> = vec![None; circuit.num_qubits()];
    for (i, g) in gates.iter().enumerate() {
        if g.is_barrier() {
            for q in g.qubits() {
                prev[q.index()] = None;
            }
            continue;
        }
        let qs = g.qubits();
        let shared_prev = match qs.first().map(|q| prev[q.index()]) {
            Some(Some(p)) if qs.iter().all(|q| prev[q.index()] == Some(p)) => Some(p),
            _ => None,
        };
        if let Some(p) = shared_prev {
            if same_qubit_set(&gates[p], g) && cancels(&gates[p], g) {
                out.push(Diagnostic::new(
                    LintCode::RedundantPair,
                    Some(Span::range(p, i)),
                    format!("{} and {g} cancel exactly", gates[p]),
                ));
                for q in qs {
                    prev[q.index()] = None;
                }
                continue;
            }
        }
        for q in qs {
            prev[q.index()] = Some(i);
        }
    }

    // QV202: a SWAP after which neither operand is ever touched again
    // has no observable effect.
    let mut last_touch: Vec<Option<usize>> = vec![None; circuit.num_qubits()];
    for (i, g) in gates.iter().enumerate() {
        if g.is_barrier() {
            continue;
        }
        for q in g.qubits() {
            last_touch[q.index()] = Some(i);
        }
    }
    for (i, g) in gates.iter().enumerate() {
        if let Gate::Swap { a, b } = g {
            if last_touch[a.index()] == Some(i) && last_touch[b.index()] == Some(i) {
                out.push(Diagnostic::new(
                    LintCode::ZeroEffectSwap,
                    Some(Span::gate(i)),
                    format!("{g}: neither operand is used or measured afterwards"),
                ));
            }
        }
    }
}

/// Whether two non-barrier gates (one or two operands each) act on the
/// same qubits, in either operand order.
fn same_qubit_set<Q: QubitId>(a: &Gate<Q>, b: &Gate<Q>) -> bool {
    match (&*a.qubits(), &*b.qubits()) {
        ([a0], [b0]) => a0 == b0,
        ([a0, a1], [b0, b1]) => (a0, a1) == (b0, b1) || (a0, a1) == (b1, b0),
        _ => false,
    }
}

fn cancels<Q: QubitId>(first: &Gate<Q>, second: &Gate<Q>) -> bool {
    match (first, second) {
        (Gate::OneQubit { kind: ka, qubit: qa }, Gate::OneQubit { kind: kb, qubit: qb }) => {
            qa == qb && *kb == ka.inverse()
        }
        (
            Gate::Cnot {
                control: c1,
                target: t1,
            },
            Gate::Cnot {
                control: c2,
                target: t2,
            },
        ) => c1 == c2 && t1 == t2,
        (Gate::Swap { a: a1, b: b1 }, Gate::Swap { a: a2, b: b2 }) => {
            (a1 == a2 && b1 == b2) || (a1 == b2 && b1 == a2)
        }
        _ => false,
    }
}
