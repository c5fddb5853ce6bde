//! Named benchmark workloads with their success criteria.
//!
//! A [`Benchmark`] bundles a circuit with the set of classical outcomes
//! that count as a *successful trial* — the predicate behind the PST
//! metric. Suites reproduce the paper's workload tables: Table 1's
//! simulation set, §7's IBM-Q5 set, and §8's 10-qubit partitioning set.

use quva_circuit::Circuit;

use crate::generators::{self, RandDistance};

/// A named NISQ workload: circuit plus success predicate.
///
/// `accepted` lists the classical outcomes (bit `i` of the mask = cbit
/// `i`) an ideal machine can produce; a trial whose measured outcome is
/// in this set counts as successful. `None` means the workload has no
/// closed-form answer set (the random kernels) and success is judged by
/// fault-freeness alone.
#[derive(Debug, Clone, PartialEq)]
pub struct Benchmark {
    name: String,
    circuit: Circuit,
    accepted: Option<Vec<u64>>,
}

impl Benchmark {
    /// Bundles a circuit under a display name with an optional accepted
    /// outcome set.
    pub fn new(name: impl Into<String>, circuit: Circuit, accepted: Option<Vec<u64>>) -> Self {
        Benchmark {
            name: name.into(),
            circuit,
            accepted,
        }
    }

    /// The display name used in tables ("bv-16", "qft-12", ...).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The workload circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The accepted classical outcomes, if the workload has an exact
    /// answer set.
    pub fn accepted(&self) -> Option<&[u64]> {
        self.accepted.as_deref()
    }

    /// Whether a measured outcome counts as a successful trial.
    /// Workloads without an answer set accept every outcome (their PST
    /// is judged by fault-injection instead).
    pub fn is_success(&self, outcome: u64) -> bool {
        match &self.accepted {
            Some(set) => set.contains(&outcome),
            None => true,
        }
    }

    /// Bernstein–Vazirani over `n` qubits with the all-ones secret; the
    /// accepted outcome is the secret itself.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn bv(n: usize) -> Self {
        let secret = (1u64 << (n - 1)) - 1;
        Benchmark::new(format!("bv-{n}"), generators::bv(n), Some(vec![secret]))
    }

    /// `n`-qubit QFT applied to |0…0⟩. Every outcome is equally likely
    /// on an ideal machine, so there is no answer set; reliability is
    /// assessed by fault-injection.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn qft(n: usize) -> Self {
        Benchmark::new(format!("qft-{n}"), generators::qft(n), None)
    }

    /// The 10-qubit Cuccaro adder computing 9 + 5 = 14; accepted outcome
    /// is the 5-bit sum `0b01110`.
    pub fn alu() -> Self {
        Benchmark::new("alu", generators::alu(), Some(vec![14]))
    }

    /// `n`-qubit GHZ preparation; ideal outcomes are all-zeros and
    /// all-ones.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `n > 64` (an outcome is a `u64` mask).
    pub fn ghz(n: usize) -> Self {
        let circuit = generators::ghz(n);
        assert!(n <= 64, "a GHZ outcome mask holds at most 64 qubits");
        let ones = u64::MAX >> (64 - n);
        Benchmark::new(format!("GHZ-{n}"), circuit, Some(vec![0, ones]))
    }

    /// §7's TriSwap kernel; the excitation ends on qubit 2.
    pub fn triswap() -> Self {
        Benchmark::new("TriSwap", generators::triswap(), Some(vec![0b100]))
    }

    /// Random short-distance CNOT kernel (`rnd-SD`).
    pub fn rnd_sd(n: usize, num_cnots: usize, seed: u64) -> Self {
        Benchmark::new(
            "rnd-SD",
            generators::rnd(n, num_cnots, RandDistance::Short, seed),
            None,
        )
    }

    /// Random long-distance CNOT kernel (`rnd-LD`).
    pub fn rnd_ld(n: usize, num_cnots: usize, seed: u64) -> Self {
        Benchmark::new(
            "rnd-LD",
            generators::rnd(n, num_cnots, RandDistance::Long, seed),
            None,
        )
    }

    /// 2-qubit Grover search for `marked`; the only ideal outcome is the
    /// marked item itself.
    ///
    /// # Panics
    ///
    /// Panics if `marked > 3`.
    pub fn grover2(marked: u64) -> Self {
        Benchmark::new(
            format!("grover2-{marked}"),
            generators::grover2(marked),
            Some(vec![marked]),
        )
    }

    /// `n`-qubit W state; ideal outcomes are the `n` one-hot strings.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn w_state(n: usize) -> Self {
        let accepted = (0..n).map(|i| 1u64 << i).collect();
        Benchmark::new(format!("w-{n}"), generators::w_state(n), Some(accepted))
    }

    /// Mirror benchmark: random layers followed by their inverse, so
    /// the only accepted outcome is all-zeros. The standard scalable
    /// machine-reliability probe.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn mirror(n: usize, depth: usize, seed: u64) -> Self {
        Benchmark::new(
            format!("mirror-{n}x{depth}"),
            generators::mirror(n, depth, seed),
            Some(vec![0]),
        )
    }
}

/// The seven Table 1 workloads, in table order: alu, bv-16, bv-20,
/// qft-12, qft-14, rnd-SD, rnd-LD.
///
/// # Examples
///
/// ```
/// use quva_benchmarks::table1_suite;
///
/// let suite = table1_suite();
/// assert_eq!(suite.len(), 7);
/// assert_eq!(suite[1].name(), "bv-16");
/// ```
pub fn table1_suite() -> Vec<Benchmark> {
    vec![
        Benchmark::alu(),
        Benchmark::bv(16),
        Benchmark::bv(20),
        Benchmark::qft(12),
        Benchmark::qft(14),
        Benchmark::rnd_sd(20, 80, 1),
        Benchmark::rnd_ld(20, 80, 2),
    ]
}

/// The §7 IBM-Q5 workloads: bv-3, bv-4, TriSwap, GHZ-3.
pub fn ibm_q5_suite() -> Vec<Benchmark> {
    vec![
        Benchmark::bv(3),
        Benchmark::bv(4),
        Benchmark::triswap(),
        Benchmark::ghz(3),
    ]
}

/// The §8 partitioning workloads, modified to 10 program qubits:
/// alu-10, bv-10, qft-10.
pub fn partition_suite() -> Vec<Benchmark> {
    vec![
        Benchmark::new("alu_10", generators::alu(), Some(vec![14])),
        Benchmark::new("bv_10", generators::bv(10), Some(vec![(1 << 9) - 1])),
        Benchmark::new("qft_10", generators::qft(10), None),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bv_accepts_only_secret() {
        let b = Benchmark::bv(4);
        assert!(b.is_success(0b111));
        assert!(!b.is_success(0b110));
    }

    #[test]
    fn ghz_accepts_both_poles() {
        let b = Benchmark::ghz(3);
        assert!(b.is_success(0));
        assert!(b.is_success(0b111));
        assert!(!b.is_success(0b010));
    }

    #[test]
    fn qft_accepts_everything() {
        let b = Benchmark::qft(4);
        assert!(b.is_success(0));
        assert!(b.is_success(13));
        assert_eq!(b.accepted(), None);
    }

    #[test]
    fn alu_expects_fourteen() {
        let b = Benchmark::alu();
        assert!(b.is_success(14));
        assert!(!b.is_success(9));
    }

    #[test]
    fn triswap_expects_excitation_on_q2() {
        let b = Benchmark::triswap();
        assert!(b.is_success(0b100));
        assert!(!b.is_success(0b001));
    }

    #[test]
    fn table1_names_and_sizes() {
        let suite = table1_suite();
        let names: Vec<&str> = suite.iter().map(Benchmark::name).collect();
        assert_eq!(
            names,
            ["alu", "bv-16", "bv-20", "qft-12", "qft-14", "rnd-SD", "rnd-LD"]
        );
        assert_eq!(suite[0].circuit().num_qubits(), 10);
        assert_eq!(suite[2].circuit().num_qubits(), 20);
        assert_eq!(suite[5].circuit().num_qubits(), 20);
    }

    #[test]
    fn q5_suite_fits_five_qubits() {
        for b in ibm_q5_suite() {
            assert!(b.circuit().num_qubits() <= 5, "{} too large", b.name());
        }
    }

    #[test]
    fn partition_suite_is_ten_qubits() {
        for b in partition_suite() {
            assert_eq!(b.circuit().num_qubits(), 10, "{}", b.name());
        }
    }
}
