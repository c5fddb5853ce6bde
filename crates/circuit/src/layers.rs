//! ASAP layer partitioning of a circuit (§4.5 step 3 of the paper).
//!
//! A *layer* is a set of gates that touch pairwise-disjoint qubits and
//! whose dependencies are all satisfied by earlier layers, so the whole
//! layer can execute in parallel. Both the baseline mapper and the
//! variation-aware mappers iterate layer by layer.

use crate::circuit::{Circuit, QubitId};
use crate::gate::Gate;

/// The result of partitioning a circuit into parallel layers.
///
/// Layers store indices into the original circuit's gate list, so no gate
/// is cloned: one flat array holds every layer's gate indices, layer
/// after layer, and a second holds where each layer starts in it.
///
/// # Examples
///
/// ```
/// use quva_circuit::{Circuit, Qubit, Layers};
///
/// let mut c = Circuit::new(3);
/// c.h(Qubit(0));
/// c.h(Qubit(1));            // parallel with the first H
/// c.cnot(Qubit(0), Qubit(1)); // must wait for both
///
/// let layers = Layers::of(&c);
/// assert_eq!(layers.len(), 2);
/// assert_eq!(layers.layer(0).len(), 2);
/// assert_eq!(layers.layer(1).len(), 1);
/// assert_eq!(layers.order(), &[0, 1, 2]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layers {
    /// Gate indices, layer after layer, in program order within a layer.
    order: Vec<usize>,
    /// `starts[i]..starts[i + 1]` is layer `i`'s range in `order`; the
    /// last entry is `order.len()`.
    starts: Vec<usize>,
}

impl Layers {
    /// Partitions `circuit` into ASAP layers.
    ///
    /// Each gate is placed in the earliest layer strictly after every
    /// layer containing a gate that shares a qubit with it. Barriers
    /// force all subsequent gates on their qubits into later layers but
    /// occupy no layer themselves.
    pub fn of<Q: QubitId>(circuit: &Circuit<Q>) -> Self {
        const NO_LAYER: usize = usize::MAX;
        let mut frontier = vec![0usize; circuit.num_qubits()];
        let mut level = vec![NO_LAYER; circuit.len()];
        // first the gate count of each layer; every layer holds a gate,
        // so there are at most `len` layers plus the closing entry
        let mut starts: Vec<usize> = Vec::with_capacity(circuit.len() + 1);
        for (idx, gate) in circuit.iter().enumerate() {
            let qs = gate.qubits();
            if qs.is_empty() {
                continue;
            }
            let at = qs.iter().map(|q| frontier[q.index()]).max().unwrap_or(0);
            if gate.is_barrier() {
                // A barrier aligns its qubits to a common level without
                // consuming a layer slot.
                for q in qs {
                    frontier[q.index()] = at;
                }
                continue;
            }
            if at == starts.len() {
                starts.push(0);
            }
            starts[at] += 1;
            level[idx] = at;
            for q in qs {
                frontier[q.index()] = at + 1;
            }
        }
        // then each layer's end, and a backward fill that leaves
        // `starts[i]` at layer i's start with gates in program order
        let mut end = 0;
        for s in &mut starts {
            end += *s;
            *s = end;
        }
        let mut order = vec![0usize; end];
        for (idx, &at) in level.iter().enumerate().rev() {
            if at != NO_LAYER {
                starts[at] -= 1;
                order[starts[at]] = idx;
            }
        }
        starts.push(end);
        Layers { order, starts }
    }

    /// The number of layers (the circuit depth excluding barriers).
    pub fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// Whether there are no layers.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The gate indices of layer `i`, in program order.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn layer(&self, i: usize) -> &[usize] {
        &self.order[self.range(i)]
    }

    /// The positions of layer `i`'s gate indices within
    /// [`Layers::order`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn range(&self, i: usize) -> std::ops::Range<usize> {
        self.starts[i]..self.starts[i + 1]
    }

    /// Every layer's gate indices, layer after layer: barriers are left
    /// out, every other gate appears once.
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// Iterates over layers as slices of gate indices.
    pub fn iter(&self) -> impl Iterator<Item = &[usize]> {
        self.starts.windows(2).map(|w| &self.order[w[0]..w[1]])
    }

    /// The CNOT gates of layer `i` as `(control, target)` pairs, resolved
    /// against `circuit`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()` or the layering was built from a
    /// different circuit.
    pub fn cnots_in_layer<Q: QubitId>(&self, circuit: &Circuit<Q>, i: usize) -> Vec<(Q, Q)> {
        self.layer(i)
            .iter()
            .filter_map(|&g| match &circuit.gates()[g] {
                Gate::Cnot { control, target } => Some((*control, *target)),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qubit::Qubit;

    #[test]
    fn serial_chain_gets_one_gate_per_layer() {
        let mut c = Circuit::new(2);
        c.h(Qubit(0)).x(Qubit(0)).z(Qubit(0));
        let l = Layers::of(&c);
        assert_eq!(l.len(), 3);
        for i in 0..3 {
            assert_eq!(l.layer(i), &[i]);
        }
    }

    #[test]
    fn independent_gates_share_layer() {
        let mut c = Circuit::new(4);
        c.h(Qubit(0)).h(Qubit(1)).cnot(Qubit(2), Qubit(3));
        let l = Layers::of(&c);
        assert_eq!(l.len(), 1);
        assert_eq!(l.layer(0).len(), 3);
    }

    #[test]
    fn cnot_waits_for_both_operands() {
        let mut c = Circuit::new(3);
        c.h(Qubit(0));
        c.h(Qubit(0)); // q0 busy for 2 layers
        c.cnot(Qubit(0), Qubit(1));
        let l = Layers::of(&c);
        assert_eq!(l.len(), 3);
        assert_eq!(l.layer(2), &[2]);
    }

    #[test]
    fn layers_cover_all_gates_exactly_once() {
        let mut c = Circuit::new(4);
        c.h(Qubit(0))
            .cnot(Qubit(0), Qubit(1))
            .cnot(Qubit(2), Qubit(3))
            .cnot(Qubit(1), Qubit(2))
            .measure_all();
        let l = Layers::of(&c);
        let mut seen: Vec<usize> = l.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..c.len()).collect::<Vec<_>>());
    }

    #[test]
    fn gates_within_layer_are_disjoint() {
        let mut c = Circuit::new(6);
        for i in 0..5 {
            c.cnot(Qubit(i), Qubit(i + 1));
        }
        c.h(Qubit(0));
        let l = Layers::of(&c);
        for i in 0..l.len() {
            let mut used = [false; 6];
            for &g in l.layer(i) {
                for q in c.gates()[g].qubits() {
                    assert!(!used[q.index()], "layer {i} reuses {q}");
                    used[q.index()] = true;
                }
            }
        }
    }

    #[test]
    fn barrier_separates_layers() {
        let mut c = Circuit::new(2);
        c.h(Qubit(0));
        c.barrier_all();
        c.h(Qubit(1));
        let l = Layers::of(&c);
        // without the barrier both H's would share layer 0
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn cnots_in_layer_extracts_pairs() {
        let mut c = Circuit::new(4);
        c.cnot(Qubit(0), Qubit(1)).cnot(Qubit(2), Qubit(3)).h(Qubit(0));
        let l = Layers::of(&c);
        let pairs = l.cnots_in_layer(&c, 0);
        assert_eq!(pairs, vec![(Qubit(0), Qubit(1)), (Qubit(2), Qubit(3))]);
    }

    #[test]
    fn empty_circuit_has_no_layers() {
        let c: Circuit = Circuit::new(3);
        let l = Layers::of(&c);
        assert!(l.is_empty());
    }

    #[test]
    fn layer_count_matches_depth() {
        let mut c = Circuit::new(5);
        c.h(Qubit(0))
            .cnot(Qubit(0), Qubit(1))
            .cnot(Qubit(1), Qubit(2))
            .cnot(Qubit(3), Qubit(4));
        let l = Layers::of(&c);
        assert_eq!(l.len(), c.depth());
    }
}
