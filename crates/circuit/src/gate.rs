//! The gate set of the circuit IR.
//!
//! The set mirrors what the paper's workloads need: the standard
//! single-qubit Cliffords + T, parameterized rotations, CNOT as the only
//! native two-qubit entangler (IBM hardware of that era), SWAP (compiled
//! to 3 CNOTs on hardware without a native SWAP), measurement, and
//! barriers.

use std::fmt;
use std::ops::Deref;

use crate::qubit::{Cbit, Qubit};

/// The single-qubit operation kinds supported by the IR.
///
/// # Examples
///
/// ```
/// use quva_circuit::OneQubitKind;
///
/// assert!(OneQubitKind::H.is_clifford());
/// assert!(!OneQubitKind::T.is_clifford());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OneQubitKind {
    /// Identity (explicit idle).
    I,
    /// Pauli-X (NOT).
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z.
    Z,
    /// Hadamard.
    H,
    /// Phase gate S = sqrt(Z).
    S,
    /// Inverse phase gate.
    Sdg,
    /// T = sqrt(S).
    T,
    /// Inverse T.
    Tdg,
    /// Rotation about X by the contained angle (radians).
    Rx(f64),
    /// Rotation about Y by the contained angle (radians).
    Ry(f64),
    /// Rotation about Z by the contained angle (radians).
    Rz(f64),
}

impl OneQubitKind {
    /// The inverse operation: applying a kind then its inverse is the
    /// identity.
    ///
    /// # Examples
    ///
    /// ```
    /// use quva_circuit::OneQubitKind;
    ///
    /// assert_eq!(OneQubitKind::S.inverse(), OneQubitKind::Sdg);
    /// assert_eq!(OneQubitKind::H.inverse(), OneQubitKind::H);
    /// ```
    pub fn inverse(self) -> Self {
        match self {
            OneQubitKind::S => OneQubitKind::Sdg,
            OneQubitKind::Sdg => OneQubitKind::S,
            OneQubitKind::T => OneQubitKind::Tdg,
            OneQubitKind::Tdg => OneQubitKind::T,
            OneQubitKind::Rx(a) => OneQubitKind::Rx(-a),
            OneQubitKind::Ry(a) => OneQubitKind::Ry(-a),
            OneQubitKind::Rz(a) => OneQubitKind::Rz(-a),
            self_inverse => self_inverse,
        }
    }

    /// Whether this operation is a Clifford gate (stabilizer-preserving).
    ///
    /// Rotations are conservatively classified non-Clifford even at
    /// Clifford angles.
    pub fn is_clifford(self) -> bool {
        !matches!(
            self,
            OneQubitKind::T
                | OneQubitKind::Tdg
                | OneQubitKind::Rx(_)
                | OneQubitKind::Ry(_)
                | OneQubitKind::Rz(_)
        )
    }

    /// The lowercase OpenQASM 2.0 mnemonic for this kind.
    pub fn qasm_name(self) -> &'static str {
        match self {
            OneQubitKind::I => "id",
            OneQubitKind::X => "x",
            OneQubitKind::Y => "y",
            OneQubitKind::Z => "z",
            OneQubitKind::H => "h",
            OneQubitKind::S => "s",
            OneQubitKind::Sdg => "sdg",
            OneQubitKind::T => "t",
            OneQubitKind::Tdg => "tdg",
            OneQubitKind::Rx(_) => "rx",
            OneQubitKind::Ry(_) => "ry",
            OneQubitKind::Rz(_) => "rz",
        }
    }

    /// The rotation angle carried by the kind, if any.
    pub fn angle(self) -> Option<f64> {
        match self {
            OneQubitKind::Rx(a) | OneQubitKind::Ry(a) | OneQubitKind::Rz(a) => Some(a),
            _ => None,
        }
    }
}

impl fmt::Display for OneQubitKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.angle() {
            Some(a) => write!(f, "{}({:.6})", self.qasm_name(), a),
            None => f.write_str(self.qasm_name()),
        }
    }
}

/// One instruction of a quantum program.
///
/// Generic over the qubit index type so the same IR serves both the
/// source program (over [`Qubit`]) and the routed, hardware-level program
/// (over [`crate::PhysQubit`]).
///
/// # Examples
///
/// ```
/// use quva_circuit::{Gate, OneQubitKind, Qubit};
///
/// let g = Gate::cnot(Qubit(0), Qubit(1));
/// assert!(g.is_two_qubit());
/// assert_eq!(*g.qubits(), [Qubit(0), Qubit(1)]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Gate<Q = Qubit> {
    /// A single-qubit operation.
    OneQubit {
        /// Which operation.
        kind: OneQubitKind,
        /// Target qubit.
        qubit: Q,
    },
    /// Controlled-NOT between two (coupled, after routing) qubits.
    Cnot {
        /// Control qubit.
        control: Q,
        /// Target qubit.
        target: Q,
    },
    /// State exchange between two neighbouring qubits (3 CNOTs on IBM
    /// hardware).
    Swap {
        /// First qubit.
        a: Q,
        /// Second qubit.
        b: Q,
    },
    /// Projective Z-basis measurement into a classical bit.
    Measure {
        /// Measured qubit.
        qubit: Q,
        /// Destination classical bit.
        cbit: Cbit,
    },
    /// Scheduling barrier across the listed qubits.
    Barrier {
        /// Qubits the barrier spans.
        qubits: Vec<Q>,
    },
}

impl<Q: Copy> Gate<Q> {
    /// Convenience constructor for a single-qubit gate.
    pub fn one(kind: OneQubitKind, qubit: Q) -> Self {
        Gate::OneQubit { kind, qubit }
    }

    /// Convenience constructor for a CNOT.
    pub fn cnot(control: Q, target: Q) -> Self {
        Gate::Cnot { control, target }
    }

    /// Convenience constructor for a SWAP.
    pub fn swap(a: Q, b: Q) -> Self {
        Gate::Swap { a, b }
    }

    /// Convenience constructor for a measurement.
    pub fn measure(qubit: Q, cbit: Cbit) -> Self {
        Gate::Measure { qubit, cbit }
    }

    /// All qubits this gate touches, in operand order, as a view that
    /// allocates nothing.
    pub fn qubits(&self) -> Operands<'_, Q> {
        Operands(match self {
            Gate::OneQubit { qubit, .. } | Gate::Measure { qubit, .. } => Held::Inline([*qubit; 2], 1),
            Gate::Cnot { control, target } => Held::Inline([*control, *target], 2),
            Gate::Swap { a, b } => Held::Inline([*a, *b], 2),
            Gate::Barrier { qubits } => Held::Borrowed(qubits),
        })
    }

    /// Whether the gate involves exactly two qubits (CNOT or SWAP).
    pub fn is_two_qubit(&self) -> bool {
        matches!(self, Gate::Cnot { .. } | Gate::Swap { .. })
    }

    /// Whether the gate is a measurement.
    pub fn is_measurement(&self) -> bool {
        matches!(self, Gate::Measure { .. })
    }

    /// Whether the gate is a barrier (no physical operation).
    pub fn is_barrier(&self) -> bool {
        matches!(self, Gate::Barrier { .. })
    }

    /// The number of physical CNOTs this gate costs on CNOT-native
    /// hardware: 1 for a CNOT, 3 for a SWAP, 0 otherwise.
    pub fn cnot_cost(&self) -> usize {
        match self {
            Gate::Cnot { .. } => 1,
            Gate::Swap { .. } => 3,
            _ => 0,
        }
    }

    /// Applies `f` to every qubit operand, producing a gate over a new
    /// index type. Used to rewrite program qubits to physical qubits.
    pub fn map_qubits<R: Copy>(&self, mut f: impl FnMut(Q) -> R) -> Gate<R> {
        match self {
            Gate::OneQubit { kind, qubit } => Gate::OneQubit {
                kind: *kind,
                qubit: f(*qubit),
            },
            Gate::Cnot { control, target } => Gate::Cnot {
                control: f(*control),
                target: f(*target),
            },
            Gate::Swap { a, b } => Gate::Swap { a: f(*a), b: f(*b) },
            Gate::Measure { qubit, cbit } => Gate::Measure {
                qubit: f(*qubit),
                cbit: *cbit,
            },
            Gate::Barrier { qubits } => Gate::Barrier {
                qubits: qubits.iter().map(|&q| f(q)).collect(),
            },
        }
    }
}

/// The qubit operands of one gate, in operand order (see
/// [`Gate::qubits`]).
///
/// A one- or two-qubit gate's operands are held inline and a barrier's
/// list is borrowed, so visiting a gate's qubits never allocates. The
/// view derefs to `[Q]`, and iterating it by value yields the qubits.
///
/// # Examples
///
/// ```
/// use quva_circuit::{Gate, Qubit};
///
/// let g = Gate::swap(Qubit(3), Qubit(1));
/// let qs = g.qubits();
/// assert_eq!(qs.len(), 2);
/// assert_eq!(qs.iter().max(), Some(&Qubit(3)));
/// let indices: Vec<u32> = qs.into_iter().map(|q| q.0).collect();
/// assert_eq!(indices, [3, 1]);
/// ```
#[derive(Clone, Copy)]
pub struct Operands<'a, Q>(Held<'a, Q>);

#[derive(Clone, Copy)]
enum Held<'a, Q> {
    /// The first `n` entries are the operands.
    Inline([Q; 2], usize),
    Borrowed(&'a [Q]),
}

impl<Q> Deref for Operands<'_, Q> {
    type Target = [Q];

    fn deref(&self) -> &[Q] {
        match &self.0 {
            Held::Inline(qs, n) => &qs[..*n],
            Held::Borrowed(qs) => qs,
        }
    }
}

impl<Q: fmt::Debug> fmt::Debug for Operands<'_, Q> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a, Q: Copy> IntoIterator for Operands<'a, Q> {
    type Item = Q;
    type IntoIter = OperandsIter<'a, Q>;

    fn into_iter(self) -> OperandsIter<'a, Q> {
        OperandsIter {
            operands: self,
            next: 0,
        }
    }
}

/// The by-value iterator over an [`Operands`] view.
#[derive(Debug, Clone)]
pub struct OperandsIter<'a, Q> {
    operands: Operands<'a, Q>,
    next: usize,
}

impl<Q: Copy> Iterator for OperandsIter<'_, Q> {
    type Item = Q;

    fn next(&mut self) -> Option<Q> {
        let q = *self.operands.get(self.next)?;
        self.next += 1;
        Some(q)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.operands.len() - self.next;
        (left, Some(left))
    }
}

impl<Q: Copy> ExactSizeIterator for OperandsIter<'_, Q> {}

impl<Q: Copy + fmt::Display> fmt::Display for Gate<Q> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Gate::OneQubit { kind, qubit } => write!(f, "{kind} {qubit}"),
            Gate::Cnot { control, target } => write!(f, "cx {control}, {target}"),
            Gate::Swap { a, b } => write!(f, "swap {a}, {b}"),
            Gate::Measure { qubit, cbit } => write!(f, "measure {qubit} -> {cbit}"),
            Gate::Barrier { qubits } => {
                f.write_str("barrier ")?;
                for (i, q) in qubits.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{q}")?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qubit::PhysQubit;

    #[test]
    fn qubits_of_each_variant() {
        assert_eq!(*Gate::one(OneQubitKind::H, Qubit(0)).qubits(), [Qubit(0)]);
        assert_eq!(*Gate::cnot(Qubit(1), Qubit(2)).qubits(), [Qubit(1), Qubit(2)]);
        assert_eq!(*Gate::swap(Qubit(3), Qubit(4)).qubits(), [Qubit(3), Qubit(4)]);
        assert_eq!(*Gate::measure(Qubit(5), Cbit(0)).qubits(), [Qubit(5)]);
        let b: Gate = Gate::Barrier {
            qubits: vec![Qubit(0), Qubit(1)],
        };
        assert_eq!(b.qubits().len(), 2);
    }

    #[test]
    fn cnot_cost() {
        assert_eq!(Gate::cnot(Qubit(0), Qubit(1)).cnot_cost(), 1);
        assert_eq!(Gate::swap(Qubit(0), Qubit(1)).cnot_cost(), 3);
        assert_eq!(Gate::one(OneQubitKind::H, Qubit(0)).cnot_cost(), 0);
        assert_eq!(Gate::measure(Qubit(0), Cbit(0)).cnot_cost(), 0);
    }

    #[test]
    fn classification() {
        assert!(Gate::cnot(Qubit(0), Qubit(1)).is_two_qubit());
        assert!(Gate::swap(Qubit(0), Qubit(1)).is_two_qubit());
        assert!(!Gate::measure(Qubit(0), Cbit(0)).is_two_qubit());
        assert!(Gate::measure(Qubit(0), Cbit(0)).is_measurement());
        let b: Gate = Gate::Barrier { qubits: vec![] };
        assert!(b.is_barrier());
    }

    #[test]
    fn map_qubits_to_physical() {
        let g = Gate::cnot(Qubit(0), Qubit(1));
        let p: Gate<PhysQubit> = g.map_qubits(|q| PhysQubit(q.0 + 10));
        assert_eq!(p, Gate::cnot(PhysQubit(10), PhysQubit(11)));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Gate::cnot(Qubit(0), Qubit(1)).to_string(), "cx q0, q1");
        assert_eq!(Gate::one(OneQubitKind::H, Qubit(2)).to_string(), "h q2");
        assert_eq!(Gate::measure(Qubit(0), Cbit(0)).to_string(), "measure q0 -> c0");
        let rz = Gate::one(OneQubitKind::Rz(1.5), Qubit(0));
        assert!(rz.to_string().starts_with("rz(1.5"));
    }

    #[test]
    fn clifford_classification() {
        for k in [
            OneQubitKind::I,
            OneQubitKind::X,
            OneQubitKind::Y,
            OneQubitKind::Z,
            OneQubitKind::H,
            OneQubitKind::S,
            OneQubitKind::Sdg,
        ] {
            assert!(k.is_clifford(), "{k:?} should be Clifford");
        }
        for k in [
            OneQubitKind::T,
            OneQubitKind::Tdg,
            OneQubitKind::Rx(0.1),
            OneQubitKind::Ry(0.1),
            OneQubitKind::Rz(0.1),
        ] {
            assert!(!k.is_clifford(), "{k:?} should not be Clifford");
        }
    }

    #[test]
    fn angle_extraction() {
        assert_eq!(OneQubitKind::Rx(0.5).angle(), Some(0.5));
        assert_eq!(OneQubitKind::H.angle(), None);
    }
}
