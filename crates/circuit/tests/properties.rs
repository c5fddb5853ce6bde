//! Property tests over the circuit IR.

use proptest::prelude::*;
use quva_circuit::{optimize, qasm, Circuit, Gate, Layers, OneQubitKind, Qubit};

/// Strategy: a random circuit over `n` qubits.
fn arb_circuit(n: usize, max_gates: usize) -> impl Strategy<Value = Circuit> {
    let gate = prop_oneof![
        // single-qubit gates
        (0..n, 0usize..9).prop_map(move |(q, k)| {
            let kind = [
                OneQubitKind::I,
                OneQubitKind::X,
                OneQubitKind::Y,
                OneQubitKind::Z,
                OneQubitKind::H,
                OneQubitKind::S,
                OneQubitKind::Sdg,
                OneQubitKind::T,
                OneQubitKind::Tdg,
            ][k];
            GateSpec::One(q as u32, kind)
        }),
        // rotations, at ordinary and at tiny angles
        (0..n, arb_angle(), 0usize..3).prop_map(|(q, angle, axis)| {
            let kind = match axis {
                0 => OneQubitKind::Rx(angle),
                1 => OneQubitKind::Ry(angle),
                _ => OneQubitKind::Rz(angle),
            };
            GateSpec::One(q as u32, kind)
        }),
        // two-qubit gates
        (0..n, 0..n, any::<bool>()).prop_filter_map("distinct", move |(a, b, is_swap)| {
            (a != b).then_some(GateSpec::Two(a as u32, b as u32, is_swap))
        }),
    ];
    prop::collection::vec(gate, 0..max_gates).prop_map(move |specs| {
        let mut c = Circuit::new(n);
        for s in specs {
            match s {
                GateSpec::One(q, kind) => {
                    c.one(kind, Qubit(q));
                }
                GateSpec::Two(a, b, true) => {
                    c.swap(Qubit(a), Qubit(b));
                }
                GateSpec::Two(a, b, false) => {
                    c.cnot(Qubit(a), Qubit(b));
                }
            }
        }
        c
    })
}

/// How many tiny angles [`tiny_angle`] numbers.
const TINY_ANGLES: usize = 73;

/// The angles below 0.01 that a fixed-precision decimal loses: π/2^i
/// for i in 0..=70, then 1e-300 and the smallest subnormal.
fn tiny_angle(i: usize) -> f64 {
    match i {
        0..=70 => std::f64::consts::PI / 2f64.powi(i as i32),
        71 => 1e-300,
        _ => f64::from_bits(1),
    }
}

/// Strategy: tenths in [-3, 3), or a tiny angle of either sign.
fn arb_angle() -> impl Strategy<Value = f64> {
    prop_oneof![
        (-30i32..30).prop_map(|a| a as f64 / 10.0),
        (0..TINY_ANGLES, any::<bool>()).prop_map(|(i, neg)| if neg { -tiny_angle(i) } else { tiny_angle(i) }),
    ]
}

#[test]
fn qasm_roundtrips_every_tiny_angle_of_either_sign() {
    let mut c = Circuit::new(1);
    for a in (0..TINY_ANGLES).map(tiny_angle) {
        c.rz(a, Qubit(0)).rx(-a, Qubit(0));
    }
    let back = qasm::from_qasm(&qasm::to_qasm(&c)).expect("exported qasm parses");
    for (g, h) in c.iter().zip(back.iter()) {
        let angle = |g: &Gate| match g {
            Gate::OneQubit { kind, .. } => kind.angle().map(f64::to_bits),
            _ => None,
        };
        assert_eq!(angle(g), angle(h), "{g} came back as {h}");
    }
    assert_eq!(c, back);
}

#[derive(Debug, Clone, Copy)]
enum GateSpec {
    One(u32, OneQubitKind),
    Two(u32, u32, bool),
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// QASM export → import is the identity.
    #[test]
    fn qasm_roundtrip(c in arb_circuit(5, 40)) {
        let mut with_measures = c.clone();
        with_measures.measure_all();
        let text = qasm::to_qasm(&with_measures);
        let back = qasm::from_qasm(&text).expect("exported qasm parses");
        prop_assert_eq!(with_measures, back);
    }

    /// The optimizer never grows a circuit and never changes register
    /// shapes.
    #[test]
    fn optimizer_shrinks(c in arb_circuit(5, 40)) {
        let (opt, stats) = optimize(&c);
        prop_assert!(opt.len() <= c.len());
        prop_assert_eq!(c.len() - opt.len(), stats.total_removed());
        prop_assert_eq!(opt.num_qubits(), c.num_qubits());
        prop_assert_eq!(opt.num_cbits(), c.num_cbits());
    }

    /// The optimizer is idempotent: a second pass removes nothing.
    #[test]
    fn optimizer_is_idempotent(c in arb_circuit(4, 30)) {
        let (once, _) = optimize(&c);
        let (twice, stats) = optimize(&once);
        prop_assert_eq!(once, twice);
        prop_assert_eq!(stats.total_removed(), 0);
    }

    /// Layering covers every gate exactly once and respects dependencies.
    #[test]
    fn layering_is_a_valid_schedule(c in arb_circuit(6, 50)) {
        let layers = Layers::of(&c);
        let mut seen: Vec<usize> = layers.iter().flatten().copied().collect();
        seen.sort_unstable();
        let expected: Vec<usize> = (0..c.len()).collect();
        prop_assert_eq!(seen, expected);
        // within a layer, gates touch disjoint qubits
        for i in 0..layers.len() {
            let mut used = vec![false; c.num_qubits()];
            for &g in layers.layer(i) {
                for q in c.gates()[g].qubits() {
                    prop_assert!(!used[q.index()]);
                    used[q.index()] = true;
                }
            }
        }
    }

    /// Depth equals the number of layers for barrier-free circuits.
    #[test]
    fn depth_equals_layer_count(c in arb_circuit(5, 40)) {
        prop_assert_eq!(c.depth(), Layers::of(&c).len());
    }

    /// Gate counts are consistent.
    #[test]
    fn gate_count_identities(c in arb_circuit(5, 40)) {
        prop_assert_eq!(
            c.op_count(),
            c.one_qubit_gate_count() + c.cnot_count() + c.swap_count() + c.measure_count()
        );
        prop_assert_eq!(c.total_cnot_cost(), c.cnot_count() + 3 * c.swap_count());
    }
}

/// Non-proptest regression: a barrier round-trips through QASM.
#[test]
fn barrier_roundtrip() {
    let mut c = Circuit::new(3);
    c.h(Qubit(0));
    c.barrier_all();
    c.cnot(Qubit(0), Qubit(1));
    let back = qasm::from_qasm(&qasm::to_qasm(&c)).unwrap();
    assert_eq!(c, back);
    assert!(matches!(back.gates()[1], Gate::Barrier { .. }));
}
