//! Generators for the paper's benchmark circuits (Table 1 and §7).

use quva_circuit::{Cbit, Circuit, Qubit};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a Bernstein–Vazirani circuit over `n` qubits (`n − 1` data
/// qubits plus one ancilla) for the given secret bit-string.
///
/// The secret's bit `i` controls whether data qubit `i` CNOTs into the
/// ancilla; measuring the data register recovers the secret in one shot.
///
/// # Panics
///
/// Panics if `n < 2` or if the secret has bits at or above `n − 1`.
///
/// # Examples
///
/// ```
/// use quva_benchmarks::bv_with_secret;
///
/// let c = bv_with_secret(4, 0b111);
/// assert_eq!(c.num_qubits(), 4);
/// assert_eq!(c.cnot_count(), 3);
/// ```
pub fn bv_with_secret(n: usize, secret: u64) -> Circuit {
    assert!(n >= 2, "Bernstein–Vazirani needs a data qubit and an ancilla");
    let data = n - 1;
    assert!(
        secret < (1u64 << data),
        "secret has bits beyond the data register"
    );
    let mut c = Circuit::new(n);
    let ancilla = Qubit((n - 1) as u32);
    // |-> on the ancilla
    c.x(ancilla);
    c.h(ancilla);
    for i in 0..data {
        c.h(Qubit(i as u32));
    }
    for i in 0..data {
        if secret >> i & 1 == 1 {
            c.cnot(Qubit(i as u32), ancilla);
        }
    }
    for i in 0..data {
        c.h(Qubit(i as u32));
    }
    for i in 0..data {
        c.measure(Qubit(i as u32), Cbit(i as u32));
    }
    c
}

/// Bernstein–Vazirani with the all-ones secret (the maximal-CNOT
/// configuration the paper's `bv-n` rows use).
pub fn bv(n: usize) -> Circuit {
    bv_with_secret(n, (1u64 << (n - 1)) - 1)
}

/// Builds an `n`-qubit Quantum Fourier Transform with controlled-phase
/// gates decomposed to {CNOT, Rz} and the final reversal SWAPs.
///
/// # Panics
///
/// Panics if `n == 0`.
///
/// # Examples
///
/// ```
/// use quva_benchmarks::qft;
///
/// let c = qft(4);
/// // each of the C(4,2)=6 controlled phases costs 2 CNOTs
/// assert_eq!(c.cnot_count(), 12);
/// assert_eq!(c.swap_count(), 2);
/// ```
pub fn qft(n: usize) -> Circuit {
    assert!(n >= 1, "QFT needs at least one qubit");
    let mut c = Circuit::new(n);
    for i in 0..n {
        c.h(Qubit(i as u32));
        for j in (i + 1)..n {
            // a power of two is exact at any distance, so no shift can overflow
            let angle = std::f64::consts::PI / 2f64.powi((j - i) as i32);
            controlled_phase(&mut c, Qubit(j as u32), Qubit(i as u32), angle);
        }
    }
    // bit reversal
    for i in 0..n / 2 {
        c.swap(Qubit(i as u32), Qubit((n - 1 - i) as u32));
    }
    c.measure_all();
    c
}

/// Appends a controlled-phase CU1(angle) using the standard
/// {Rz, CNOT} decomposition.
fn controlled_phase(c: &mut Circuit, control: Qubit, target: Qubit, angle: f64) {
    c.rz(angle / 2.0, control);
    c.cnot(control, target);
    c.rz(-angle / 2.0, target);
    c.cnot(control, target);
    c.rz(angle / 2.0, target);
}

/// Appends a Toffoli (CCNOT) via the textbook 6-CNOT, 7-T decomposition.
fn toffoli(c: &mut Circuit, a: Qubit, b: Qubit, t: Qubit) {
    c.h(t);
    c.cnot(b, t);
    c.tdg(t);
    c.cnot(a, t);
    c.t(t);
    c.cnot(b, t);
    c.tdg(t);
    c.cnot(a, t);
    c.t(b);
    c.t(t);
    c.h(t);
    c.cnot(a, b);
    c.t(a);
    c.tdg(b);
    c.cnot(a, b);
}

/// Builds the paper's `alu` workload: a Cuccaro ripple-carry quantum
/// adder computing `a + b` for two `bits`-bit operands, on
/// `2·bits + 2` qubits (carry-in ancilla + a-register + b-register +
/// carry-out). `bits = 4` gives the 10-qubit `alu` of Table 1.
///
/// Register layout: qubit 0 = carry-in, qubits `1..=bits` = a, qubits
/// `bits+1..=2·bits` = b (receives the sum), last qubit = carry-out.
///
/// # Panics
///
/// Panics if `bits == 0`.
pub fn alu_adder(bits: usize, a_value: u64, b_value: u64) -> Circuit {
    assert!(bits >= 1, "adder needs at least one bit");
    let n = 2 * bits + 2;
    let mut c = Circuit::new(n);
    let a = |i: usize| Qubit((1 + i) as u32);
    let b = |i: usize| Qubit((1 + bits + i) as u32);
    let carry_in = Qubit(0);
    let carry_out = Qubit((n - 1) as u32);
    // operand initialization
    for i in 0..bits {
        if a_value >> i & 1 == 1 {
            c.x(a(i));
        }
        if b_value >> i & 1 == 1 {
            c.x(b(i));
        }
    }
    // MAJ ladder
    maj(&mut c, carry_in, b(0), a(0));
    for i in 1..bits {
        maj(&mut c, a(i - 1), b(i), a(i));
    }
    c.cnot(a(bits - 1), carry_out);
    // UMA ladder
    for i in (1..bits).rev() {
        uma(&mut c, a(i - 1), b(i), a(i));
    }
    uma(&mut c, carry_in, b(0), a(0));
    // read the sum from the b register and the carry
    for i in 0..bits {
        c.measure(b(i), Cbit(i as u32));
    }
    c.measure(carry_out, Cbit(bits as u32));
    c
}

/// The Table 1 `alu` benchmark: the 10-qubit, 4-bit Cuccaro adder
/// computing 9 + 5.
pub fn alu() -> Circuit {
    alu_adder(4, 9, 5)
}

fn maj(c: &mut Circuit, x: Qubit, y: Qubit, z: Qubit) {
    c.cnot(z, y);
    c.cnot(z, x);
    toffoli(c, x, y, z);
}

fn uma(c: &mut Circuit, x: Qubit, y: Qubit, z: Qubit) {
    toffoli(c, x, y, z);
    c.cnot(z, x);
    c.cnot(x, y);
}

/// Builds an `n`-qubit GHZ state preparation followed by measurement
/// (§7's `GHZ-3`): H on qubit 0, then a CNOT chain.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn ghz(n: usize) -> Circuit {
    assert!(n >= 2, "GHZ needs at least two qubits");
    let mut c = Circuit::new(n);
    c.h(Qubit(0));
    for i in 1..n {
        c.cnot(Qubit((i - 1) as u32), Qubit(i as u32));
    }
    c.measure_all();
    c
}

/// Builds §7's `TriSwap` kernel: rotate the basis state |100⟩ through
/// three qubits with two SWAPs (each compiled to 3 CNOTs on hardware),
/// ending in |001⟩.
pub fn triswap() -> Circuit {
    let mut c = Circuit::new(3);
    c.x(Qubit(0));
    c.swap(Qubit(0), Qubit(1));
    c.swap(Qubit(1), Qubit(2));
    c.measure_all();
    c
}

/// Communication-distance band for the random benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RandDistance {
    /// `rnd-SD`: CNOT partners at index distance 1–2 (local traffic).
    Short,
    /// `rnd-LD`: CNOT partners at index distance ≥ n/4 (global traffic).
    Long,
}

/// Builds the paper's randomized CNOT benchmark: `num_cnots` CNOTs over
/// `n` qubits with partner distance governed by `distance`, followed by
/// measurement of every qubit. Deterministic per seed.
///
/// # Panics
///
/// Panics if `n < 4`.
///
/// # Examples
///
/// ```
/// use quva_benchmarks::{rnd, RandDistance};
///
/// let c = rnd(20, 100, RandDistance::Short, 1);
/// assert_eq!(c.cnot_count(), 100);
/// ```
pub fn rnd(n: usize, num_cnots: usize, distance: RandDistance, seed: u64) -> Circuit {
    assert!(n >= 4, "random benchmark needs at least 4 qubits");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    for _ in 0..num_cnots {
        let (a, b) = loop {
            let a = rng.random_range(0..n);
            let d = match distance {
                RandDistance::Short => rng.random_range(1..=2usize),
                RandDistance::Long => rng.random_range(n / 4..n),
            };
            let b = if rng.random::<bool>() {
                a + d
            } else {
                a.wrapping_sub(d)
            };
            if b < n && b != a {
                break (a, b);
            }
        };
        c.cnot(Qubit(a as u32), Qubit(b as u32));
    }
    c.measure_all();
    c
}

/// Builds a *mirror* benchmark: a random layered circuit followed by
/// its inverse, so an ideal machine always returns |0…0⟩. Mirror
/// circuits are the standard scalable NISQ reliability probe — any
/// deviation from the all-zeros outcome is machine error, not
/// algorithmic distribution.
///
/// `depth` counts forward layers; each layer applies a random
/// single-qubit gate to every qubit and CNOTs across a random pairing.
///
/// # Panics
///
/// Panics if `n < 2`.
///
/// # Examples
///
/// ```
/// use quva_benchmarks::mirror;
///
/// let c = mirror(4, 3, 7);
/// // forward and inverse halves plus measurement
/// assert_eq!(c.measure_count(), 4);
/// assert_eq!(c.cnot_count() % 2, 0);
/// ```
pub fn mirror(n: usize, depth: usize, seed: u64) -> Circuit {
    assert!(n >= 2, "mirror benchmark needs at least 2 qubits");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut forward = Circuit::new(n);
    for _ in 0..depth {
        for q in 0..n {
            let kind = match rng.random_range(0..5) {
                0 => quva_circuit::OneQubitKind::H,
                1 => quva_circuit::OneQubitKind::S,
                2 => quva_circuit::OneQubitKind::T,
                3 => quva_circuit::OneQubitKind::X,
                _ => quva_circuit::OneQubitKind::Rz(rng.random_range(-314..314) as f64 / 100.0),
            };
            forward.one(kind, Qubit(q as u32));
        }
        // random disjoint pairing
        let mut order: Vec<u32> = (0..n as u32).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.random_range(0..=i));
        }
        for pair in order.chunks_exact(2) {
            forward.cnot(Qubit(pair[0]), Qubit(pair[1]));
        }
    }
    // the forward half is built gate-by-gate with no measurements, so
    // inversion cannot fail; fall back to an empty suffix structurally
    let inverse = forward.inverse().unwrap_or_else(|_| Circuit::new(n));
    let mut c = forward;
    c.append(&inverse);
    c.measure_all();
    c
}

/// Builds a 2-qubit Grover search for the given marked item (0–3):
/// one Grover iteration finds the item with certainty on an ideal
/// machine — the smallest algorithm with a deterministic non-trivial
/// answer, a classic NISQ demo kernel.
///
/// # Panics
///
/// Panics if `marked > 3`.
///
/// # Examples
///
/// ```
/// use quva_benchmarks::grover2;
///
/// let c = grover2(0b10);
/// assert_eq!(c.num_qubits(), 2);
/// assert_eq!(c.measure_count(), 2);
/// ```
pub fn grover2(marked: u64) -> Circuit {
    assert!(marked <= 3, "2-qubit Grover marks an item in 0..4");
    let mut c = Circuit::new(2);
    let (q0, q1) = (Qubit(0), Qubit(1));
    c.h(q0);
    c.h(q1);
    // oracle: flip the phase of |marked⟩ via CZ conjugated by X's
    if marked & 1 == 0 {
        c.x(q0);
    }
    if marked >> 1 & 1 == 0 {
        c.x(q1);
    }
    cz(&mut c, q0, q1);
    if marked & 1 == 0 {
        c.x(q0);
    }
    if marked >> 1 & 1 == 0 {
        c.x(q1);
    }
    // diffusion about the mean
    c.h(q0);
    c.h(q1);
    c.x(q0);
    c.x(q1);
    cz(&mut c, q0, q1);
    c.x(q0);
    c.x(q1);
    c.h(q0);
    c.h(q1);
    c.measure_all();
    c
}

/// Appends a controlled-Z as H-conjugated CNOT.
fn cz(c: &mut Circuit, control: Qubit, target: Qubit) {
    c.h(target);
    c.cnot(control, target);
    c.h(target);
}

/// Builds an `n`-qubit W-state preparation (a single excitation in
/// equal superposition over all qubits) using the cascade of
/// controlled-Ry rotations plus CNOTs, followed by measurement. Ideal
/// outcomes are exactly the `n` one-hot bit strings.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn w_state(n: usize) -> Circuit {
    assert!(n >= 2, "a W state needs at least 2 qubits");
    let mut c = Circuit::new(n);
    c.x(Qubit(0));
    // distribute the excitation: at step k (0-based), split amplitude
    // between qubit k and qubit k+1 with the angle that leaves 1/(n-k)
    // of the remaining weight on qubit k
    for k in 0..n - 1 {
        let remaining = (n - k) as f64;
        let theta = 2.0 * (1.0 / remaining.sqrt()).acos();
        let (a, b) = (Qubit(k as u32), Qubit((k + 1) as u32));
        // controlled-Ry(theta) from a onto b, decomposed to Ry halves
        // around a CNOT
        c.ry(theta / 2.0, b);
        c.cnot(a, b);
        c.ry(-theta / 2.0, b);
        c.cnot(a, b);
        // move the "remaining" excitation marker: if b took the
        // excitation, clear a
        c.cnot(b, a);
    }
    c.measure_all();
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use quva_circuit::Gate;

    #[test]
    fn bv_structure() {
        let c = bv(16);
        assert_eq!(c.num_qubits(), 16);
        assert_eq!(c.cnot_count(), 15);
        assert_eq!(c.measure_count(), 15);
        // H data twice + ancilla H = 31, plus ancilla X
        assert_eq!(c.one_qubit_gate_count(), 32);
    }

    #[test]
    fn bv_secret_controls_cnots() {
        let c = bv_with_secret(5, 0b1010);
        assert_eq!(c.cnot_count(), 2);
    }

    #[test]
    #[should_panic(expected = "beyond the data register")]
    fn bv_rejects_oversized_secret() {
        bv_with_secret(3, 0b100);
    }

    #[test]
    fn qft_gate_counts() {
        let n = 12;
        let c = qft(n);
        let pairs = n * (n - 1) / 2;
        assert_eq!(c.cnot_count(), 2 * pairs);
        assert_eq!(c.swap_count(), n / 2);
        assert_eq!(c.measure_count(), n);
    }

    #[test]
    fn qft_phases_keep_shrinking_past_64_qubits() {
        let magnitudes: Vec<f64> = qft(66)
            .gates()
            .iter()
            .filter_map(|g| match g {
                Gate::OneQubit {
                    kind: quva_circuit::OneQubitKind::Rz(angle),
                    ..
                } => Some(angle.abs()),
                _ => None,
            })
            .collect();
        // the most distant pair (65 apart) rotates by about π/2^66
        let smallest = magnitudes.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(smallest < 1e-18, "smallest rotation {smallest}");
        // neighbours take the widest phase, π/2, applied as ±π/4 halves
        let largest = magnitudes.iter().copied().fold(0.0, f64::max);
        assert_eq!(largest, std::f64::consts::FRAC_PI_4);
    }

    #[test]
    fn qft_table1_scale() {
        // Table 1: qft-12 has ~344 instructions — ours lands in that band
        let c = qft(12);
        assert!(
            (300..400).contains(&c.op_count()),
            "qft-12 op count {}",
            c.op_count()
        );
    }

    #[test]
    fn alu_is_ten_qubits_and_table1_scale() {
        let c = alu();
        assert_eq!(c.num_qubits(), 10);
        // Table 1 lists 299 instructions in IBM's u1/u2/u3+cx basis; our
        // compact Toffoli decomposition lands lower but same order.
        assert!(
            (120..350).contains(&c.op_count()),
            "alu op count {}",
            c.op_count()
        );
        // 8 toffolis x 6 CX + 2 CX per MAJ/UMA + carry CX
        assert_eq!(c.cnot_count(), 8 * 6 + 8 * 2 + 1);
    }

    #[test]
    fn ghz_chain() {
        let c = ghz(3);
        assert_eq!(c.cnot_count(), 2);
        assert_eq!(c.measure_count(), 3);
    }

    #[test]
    fn triswap_two_swaps() {
        let c = triswap();
        assert_eq!(c.swap_count(), 2);
        assert_eq!(c.total_cnot_cost(), 6);
    }

    #[test]
    fn rnd_is_deterministic_per_seed() {
        let a = rnd(20, 100, RandDistance::Long, 5);
        let b = rnd(20, 100, RandDistance::Long, 5);
        assert_eq!(a, b);
        let c = rnd(20, 100, RandDistance::Long, 6);
        assert_ne!(a, c);
    }

    #[test]
    fn rnd_short_distance_band() {
        let c = rnd(20, 100, RandDistance::Short, 2);
        for g in c.gates() {
            if let Gate::Cnot { control, target } = g {
                let d = control.index().abs_diff(target.index());
                assert!((1..=2).contains(&d), "short-distance CNOT at distance {d}");
            }
        }
    }

    #[test]
    fn rnd_long_distance_band() {
        let c = rnd(20, 100, RandDistance::Long, 2);
        for g in c.gates() {
            if let Gate::Cnot { control, target } = g {
                let d = control.index().abs_diff(target.index());
                assert!(d >= 5, "long-distance CNOT at distance {d}");
            }
        }
    }

    #[test]
    fn mirror_is_deterministic_and_balanced() {
        let a = mirror(4, 3, 7);
        let b = mirror(4, 3, 7);
        assert_eq!(a, b);
        assert_ne!(a, mirror(4, 3, 8));
        // the forward and inverse halves contribute equal CNOT counts
        assert_eq!(a.cnot_count() % 2, 0);
        assert_eq!(a.measure_count(), 4);
    }

    #[test]
    fn grover2_structure() {
        let c = grover2(3);
        assert_eq!(c.num_qubits(), 2);
        assert_eq!(c.cnot_count(), 2); // two CZs, each one CNOT
        assert!(std::panic::catch_unwind(|| grover2(4)).is_err());
    }

    #[test]
    fn w_state_structure() {
        let c = w_state(4);
        assert_eq!(c.num_qubits(), 4);
        // 3 cascade steps x 3 CNOTs
        assert_eq!(c.cnot_count(), 9);
        assert_eq!(c.measure_count(), 4);
        assert!(std::panic::catch_unwind(|| w_state(1)).is_err());
    }

    #[test]
    fn generators_validate_inputs() {
        assert!(std::panic::catch_unwind(|| bv(1)).is_err());
        assert!(std::panic::catch_unwind(|| ghz(1)).is_err());
        assert!(std::panic::catch_unwind(|| rnd(3, 10, RandDistance::Short, 0)).is_err());
        assert!(std::panic::catch_unwind(|| alu_adder(0, 0, 0)).is_err());
    }
}
