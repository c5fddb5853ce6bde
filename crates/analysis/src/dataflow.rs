//! A generic forward-dataflow engine over physical circuits.
//!
//! Abstract interpretation of a gate stream: each physical qubit
//! carries an abstract state (an element of a join-semilattice), and
//! every gate applies a transfer function to its operands' states. A
//! circuit is straight-line code, so one sweep in program order reaches
//! the fixpoint: each gate reads its operands' current states and
//! writes its outputs back.
//!
//! The ESP interval analysis ([`crate::passes::esp`]) is the flagship
//! client: its state is a `[lo, hi]` success-probability interval per
//! qubit. The framework itself is domain-agnostic — see the gate-count
//! example below.
//!
//! # Examples
//!
//! Counting the operations each qubit participates in:
//!
//! ```
//! use quva_analysis::dataflow::{run_forward, ForwardAnalysis, JoinSemiLattice};
//! use quva_circuit::{Circuit, Gate, PhysQubit};
//!
//! #[derive(Clone, PartialEq, Debug)]
//! struct Count(u32);
//! impl JoinSemiLattice for Count {
//!     fn join(&self, other: &Self) -> Self {
//!         Count(self.0.max(other.0))
//!     }
//! }
//!
//! struct GateCount;
//! impl ForwardAnalysis for GateCount {
//!     type State = Count;
//!     fn name(&self) -> &'static str {
//!         "gate-count"
//!     }
//!     fn boundary(&self, _qubit: usize) -> Count {
//!         Count(0)
//!     }
//!     fn transfer(&self, _gate: &Gate<PhysQubit>, _index: usize, inputs: &[Count]) -> Vec<Count> {
//!         inputs.iter().map(|c| Count(c.0 + 1)).collect()
//!     }
//! }
//!
//! let mut c: Circuit<PhysQubit> = Circuit::new(2);
//! c.h(PhysQubit(0));
//! c.cnot(PhysQubit(0), PhysQubit(1));
//! let result = run_forward(&GateCount, &c, 2);
//! assert_eq!(result.exit[0], Count(2));
//! assert_eq!(result.exit[1], Count(1));
//! ```

use quva_circuit::{Circuit, Gate, PhysQubit};

/// An element of a join-semilattice: the abstract state one physical
/// qubit carries through the analysis.
pub trait JoinSemiLattice: Clone + PartialEq + std::fmt::Debug {
    /// The least upper bound of two states. The engine never joins
    /// states on straight-line circuits (each qubit has a single
    /// predecessor chain), but transfer functions and future
    /// control-flow extensions rely on it.
    fn join(&self, other: &Self) -> Self;
}

/// A forward dataflow analysis: a boundary state per qubit and a
/// transfer function per gate.
pub trait ForwardAnalysis {
    /// The per-qubit abstract state.
    type State: JoinSemiLattice;

    /// The analysis name (shown in debug output and reports).
    fn name(&self) -> &'static str;

    /// The state each physical qubit enters the circuit with.
    fn boundary(&self, qubit: usize) -> Self::State;

    /// Applies one gate: `inputs` holds the incoming state of each
    /// operand in [`Gate::qubits`] order; the returned vector gives the
    /// outgoing state of the same operands, in the same order.
    ///
    /// Must be *pure*: outputs depend only on the gate and `inputs`.
    fn transfer(&self, gate: &Gate<PhysQubit>, index: usize, inputs: &[Self::State]) -> Vec<Self::State>;
}

/// The fixpoint of a forward analysis over one circuit.
#[derive(Debug, Clone)]
pub struct DataflowResult<S> {
    /// The state of every physical qubit after its last gate (boundary
    /// state for untouched qubits).
    pub exit: Vec<S>,
    /// Per gate index: the operand output states (in operand order).
    /// Barriers carry no entry (`None`), matching their identity
    /// transfer.
    pub after_gate: Vec<Option<Vec<S>>>,
}

/// Runs `analysis` forward over `circuit` to a fixpoint.
///
/// `num_qubits` is the width of the state vector — pass the *device*
/// size when exit states for unused physical qubits matter.
///
/// One sweep in program order suffices: a gate's operands were last
/// written by earlier gates, so each gate reads its operands' current
/// states from one per-qubit vector and writes its outputs back.
pub fn run_forward<A: ForwardAnalysis>(
    analysis: &A,
    circuit: &Circuit<PhysQubit>,
    num_qubits: usize,
) -> DataflowResult<A::State> {
    let width = num_qubits.max(circuit.num_qubits());
    let mut state: Vec<A::State> = (0..width).map(|q| analysis.boundary(q)).collect();
    let after_gate = circuit
        .gates()
        .iter()
        .enumerate()
        .map(|(i, gate)| {
            if gate.is_barrier() {
                return None;
            }
            let operands = gate.qubits();
            let ins: Vec<A::State> = operands.iter().map(|q| state[q.index()].clone()).collect();
            let outs = analysis.transfer(gate, i, &ins);
            debug_assert_eq!(
                outs.len(),
                ins.len(),
                "{}: transfer must produce one state per operand",
                analysis.name()
            );
            for (q, out) in operands.iter().zip(&outs) {
                state[q.index()] = out.clone();
            }
            Some(outs)
        })
        .collect();
    DataflowResult {
        exit: state,
        after_gate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quva_circuit::Cbit;

    #[derive(Clone, PartialEq, Debug)]
    struct Sum(f64);
    impl JoinSemiLattice for Sum {
        fn join(&self, other: &Self) -> Self {
            Sum(self.0.max(other.0))
        }
    }

    /// Charges every operand 1.0 per gate, 0.25 per measurement.
    struct Charge;
    impl ForwardAnalysis for Charge {
        type State = Sum;
        fn name(&self) -> &'static str {
            "charge"
        }
        fn boundary(&self, _q: usize) -> Sum {
            Sum(0.0)
        }
        fn transfer(&self, gate: &Gate<PhysQubit>, _i: usize, inputs: &[Sum]) -> Vec<Sum> {
            let amount = if gate.is_measurement() { 0.25 } else { 1.0 };
            inputs.iter().map(|s| Sum(s.0 + amount)).collect()
        }
    }

    #[test]
    fn straight_line_converges_in_one_pass() {
        let mut c: Circuit<PhysQubit> = Circuit::with_cbits(3, 3);
        c.h(PhysQubit(0));
        c.cnot(PhysQubit(0), PhysQubit(1));
        c.swap(PhysQubit(1), PhysQubit(2));
        c.measure(PhysQubit(2), Cbit(0));
        let r = run_forward(&Charge, &c, 3);
        assert_eq!(r.exit[0], Sum(2.0));
        assert_eq!(r.exit[1], Sum(2.0));
        assert_eq!(r.exit[2], Sum(1.25));
    }

    #[test]
    fn per_gate_states_are_recorded() {
        let mut c: Circuit<PhysQubit> = Circuit::new(2);
        c.h(PhysQubit(1));
        c.cnot(PhysQubit(0), PhysQubit(1));
        let r = run_forward(&Charge, &c, 2);
        // gate 0 touches only qubit 1
        assert_eq!(r.after_gate[0].as_ref().unwrap().as_slice(), &[Sum(1.0)]);
        // gate 1: control entered at boundary, target carried the H
        assert_eq!(
            r.after_gate[1].as_ref().unwrap().as_slice(),
            &[Sum(1.0), Sum(2.0)]
        );
    }

    #[test]
    fn barriers_are_identity() {
        let mut c: Circuit<PhysQubit> = Circuit::new(2);
        c.h(PhysQubit(0));
        c.barrier_all();
        c.h(PhysQubit(0));
        let r = run_forward(&Charge, &c, 2);
        assert_eq!(r.exit[0], Sum(2.0));
        assert_eq!(r.exit[1], Sum(0.0));
        assert!(r.after_gate[1].is_none(), "barrier carries no state");
    }

    #[test]
    fn device_wider_than_circuit_keeps_boundary_states() {
        let mut c: Circuit<PhysQubit> = Circuit::new(1);
        c.h(PhysQubit(0));
        let r = run_forward(&Charge, &c, 5);
        assert_eq!(r.exit.len(), 5);
        assert_eq!(r.exit[4], Sum(0.0));
    }

    #[test]
    fn empty_circuit_is_all_boundary() {
        let c: Circuit<PhysQubit> = Circuit::new(3);
        let r = run_forward(&Charge, &c, 3);
        assert!(r.exit.iter().all(|s| *s == Sum(0.0)));
        assert!(r.after_gate.is_empty());
    }
}
