//! The Monte-Carlo fault-injection simulator of Fig. 10.
//!
//! Each trial walks the routed circuit and draws an independent
//! Bernoulli per operation (and per qubit for coherence exposure); a
//! trial succeeds iff no fault fires. PST = successful / total trials —
//! exactly the estimator the paper runs 1 million trials of per
//! workload.

use quva_circuit::{Circuit, PhysQubit};
use quva_device::Device;

use crate::engine::McEngine;
use crate::error::SimError;
use crate::profile::{CoherenceModel, FailureProfile};

/// Result of a Monte-Carlo PST estimation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McEstimate {
    /// Estimated probability of a successful trial.
    pub pst: f64,
    /// Number of successful trials.
    pub successes: u64,
    /// Total trials performed.
    pub trials: u64,
}

impl McEstimate {
    /// Builds an estimate from raw counts.
    ///
    /// Zero-trial convention (shared by every accessor): an empty run
    /// estimates `pst = 0.0` with `std_error() = 0.0`, and is the
    /// identity element of [`McEstimate::merge`].
    pub fn from_counts(successes: u64, trials: u64) -> Self {
        let pst = if trials == 0 {
            0.0
        } else {
            successes as f64 / trials as f64
        };
        McEstimate {
            pst,
            successes,
            trials,
        }
    }

    /// Merges two independent estimates of the same quantity by
    /// pooling their counts. Associative and commutative, with the
    /// zero-trial estimate as identity — which is what makes chunked
    /// parallel execution bit-identical to sequential.
    pub fn merge(self, other: McEstimate) -> McEstimate {
        McEstimate::from_counts(self.successes + other.successes, self.trials + other.trials)
    }

    /// Binomial standard error of the estimate (`0.0` for an empty
    /// run, matching the zero-trial convention of
    /// [`McEstimate::from_counts`]).
    pub fn std_error(&self) -> f64 {
        if self.trials == 0 {
            return 0.0;
        }
        (self.pst * (1.0 - self.pst) / self.trials as f64).sqrt()
    }
}

/// Runs `trials` fault-injection trials of a routed circuit and reports
/// the observed PST.
///
/// Deterministic for a given `seed`.
///
/// # Errors
///
/// Returns [`SimError`] if the circuit is unrouted for `device` or uses
/// more qubits than the device has.
///
/// # Examples
///
/// ```
/// use quva_circuit::{Circuit, PhysQubit};
/// use quva_device::{Calibration, Device, Topology};
/// use quva_sim::{monte_carlo_pst, CoherenceModel};
///
/// # fn main() -> Result<(), quva_sim::SimError> {
/// let dev = Device::new(Topology::linear(2), |t| Calibration::uniform(t, 0.1, 0.0, 0.0));
/// let mut c: Circuit<PhysQubit> = Circuit::new(2);
/// c.cnot(PhysQubit(0), PhysQubit(1));
/// let est = monte_carlo_pst(&dev, &c, 100_000, 7, CoherenceModel::Disabled)?;
/// assert!((est.pst - 0.9).abs() < 0.01); // converges to the analytic value
/// # Ok(())
/// # }
/// ```
pub fn monte_carlo_pst(
    device: &Device,
    circuit: &Circuit<PhysQubit>,
    trials: u64,
    seed: u64,
    coherence: CoherenceModel,
) -> Result<McEstimate, SimError> {
    monte_carlo_pst_with(device, circuit, trials, seed, coherence, McEngine::auto())
}

/// [`monte_carlo_pst`] with an explicit execution [`McEngine`] — the
/// CLI's `--threads` flag and the benchmark harness land here. The
/// engine affects wall-clock only: the estimate is bit-identical for
/// every thread count.
///
/// # Errors
///
/// Returns [`SimError`] if the circuit is unrouted for `device` or uses
/// more qubits than the device has.
pub fn monte_carlo_pst_with(
    device: &Device,
    circuit: &Circuit<PhysQubit>,
    trials: u64,
    seed: u64,
    coherence: CoherenceModel,
    engine: McEngine,
) -> Result<McEstimate, SimError> {
    let profile = {
        let _s = quva_obs::span("sim", "sim.profile");
        FailureProfile::new(device, circuit, coherence)?
    };
    Ok(engine.run(&profile, trials, seed))
}

/// [`monte_carlo_pst_with`] with a chunk-boundary progress callback
/// (`f(done_trials, total_trials)` after each completed chunk) — the
/// daemon's streaming progress frames land here. Progress observes
/// the run without altering it: the estimate is bit-identical to
/// [`monte_carlo_pst_with`] for the same engine. See
/// [`McEngine::run_with_progress`] for the callback's threading
/// contract.
///
/// # Errors
///
/// Returns [`SimError`] if the circuit is unrouted for `device` or uses
/// more qubits than the device has.
pub fn monte_carlo_pst_progress(
    device: &Device,
    circuit: &Circuit<PhysQubit>,
    trials: u64,
    seed: u64,
    coherence: CoherenceModel,
    engine: McEngine,
    progress: &(dyn Fn(u64, u64) + Sync),
) -> Result<McEstimate, SimError> {
    let profile = {
        let _s = quva_obs::span("sim", "sim.profile");
        FailureProfile::new(device, circuit, coherence)?
    };
    Ok(engine.run_with_progress(&profile, trials, seed, progress))
}

#[cfg(test)]
mod tests {
    use super::*;
    use quva_device::{Calibration, Topology};

    fn device(e2q: f64) -> Device {
        Device::new(Topology::linear(3), |t| Calibration::uniform(t, e2q, 0.0, 0.0))
    }

    fn chain(len: usize) -> Circuit<PhysQubit> {
        let mut c: Circuit<PhysQubit> = Circuit::new(3);
        for _ in 0..len {
            c.cnot(PhysQubit(0), PhysQubit(1));
        }
        c
    }

    #[test]
    fn deterministic_per_seed() {
        let dev = device(0.1);
        let c = chain(5);
        let a = monte_carlo_pst(&dev, &c, 10_000, 3, CoherenceModel::Disabled).unwrap();
        let b = monte_carlo_pst(&dev, &c, 10_000, 3, CoherenceModel::Disabled).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn converges_to_analytic() {
        let dev = device(0.05);
        let c = chain(10);
        let analytic = 0.95f64.powi(10);
        let est = monte_carlo_pst(&dev, &c, 200_000, 1, CoherenceModel::Disabled).unwrap();
        assert!(
            (est.pst - analytic).abs() < 4.0 * est.std_error().max(1e-4),
            "MC {} vs analytic {analytic}",
            est.pst
        );
    }

    #[test]
    fn error_free_device_always_succeeds() {
        let dev = device(0.0);
        let est = monte_carlo_pst(&dev, &chain(20), 1000, 0, CoherenceModel::Disabled).unwrap();
        assert_eq!(est.pst, 1.0);
        assert_eq!(est.successes, 1000);
    }

    #[test]
    fn hopeless_device_never_succeeds() {
        let dev = Device::new(Topology::linear(3), |t| Calibration::uniform(t, 0.999, 0.0, 0.0));
        let est = monte_carlo_pst(&dev, &chain(10), 1000, 0, CoherenceModel::Disabled).unwrap();
        assert!(est.pst < 0.01);
    }

    #[test]
    fn uncoupled_operands_is_typed_error() {
        let dev = device(0.1);
        let mut c: Circuit<PhysQubit> = Circuit::new(3);
        c.cnot(PhysQubit(0), PhysQubit(2)); // ends of the line: unrouted
        let err = monte_carlo_pst(&dev, &c, 100, 0, CoherenceModel::Disabled).unwrap_err();
        assert_eq!(
            err,
            SimError::UncoupledOperands {
                gate_index: 0,
                a: PhysQubit(0),
                b: PhysQubit(2)
            }
        );
    }

    #[test]
    fn too_many_qubits_is_typed_error() {
        let dev = device(0.1);
        let c: Circuit<PhysQubit> = Circuit::new(5);
        let err = monte_carlo_pst(&dev, &c, 100, 0, CoherenceModel::Disabled).unwrap_err();
        assert_eq!(
            err,
            SimError::TooManyQubits {
                circuit: 5,
                device: 3
            }
        );
    }

    #[test]
    fn dead_link_rejected_like_missing_link() {
        // a disabled coupler must look exactly like an absent one to
        // the simulator: the gate is unroutable, not silently simulated
        let mut dev = device(0.1);
        assert!(dev.disable_link(PhysQubit(0), PhysQubit(1)));
        let err = monte_carlo_pst(&dev, &chain(1), 100, 0, CoherenceModel::Disabled).unwrap_err();
        assert_eq!(
            err,
            SimError::UncoupledOperands {
                gate_index: 0,
                a: PhysQubit(0),
                b: PhysQubit(1)
            }
        );
    }

    #[test]
    fn std_error_shrinks_with_trials() {
        let dev = device(0.1);
        let c = chain(3);
        let small = monte_carlo_pst(&dev, &c, 1_000, 0, CoherenceModel::Disabled).unwrap();
        let large = monte_carlo_pst(&dev, &c, 100_000, 0, CoherenceModel::Disabled).unwrap();
        assert!(large.std_error() < small.std_error());
    }

    #[test]
    fn zero_trials_reports_zero() {
        let dev = device(0.1);
        let est = monte_carlo_pst(&dev, &chain(1), 0, 0, CoherenceModel::Disabled).unwrap();
        assert_eq!(est.trials, 0);
        assert_eq!(est.pst, 0.0);
        assert_eq!(est.std_error(), 0.0);
    }

    #[test]
    fn from_counts_and_std_error_share_the_zero_convention() {
        let empty = McEstimate::from_counts(0, 0);
        assert_eq!(empty.pst, 0.0);
        assert_eq!(empty.std_error(), 0.0);
        let full = McEstimate::from_counts(3, 4);
        assert_eq!(full.pst, 0.75);
        assert!(full.std_error() > 0.0);
    }

    #[test]
    fn merge_pools_counts() {
        let a = McEstimate::from_counts(10, 100);
        let b = McEstimate::from_counts(40, 100);
        let m = a.merge(b);
        assert_eq!(m, McEstimate::from_counts(50, 200));
        assert_eq!(m.pst, 0.25);
        // commutative
        assert_eq!(m, b.merge(a));
    }

    #[test]
    fn merging_empty_chunks_is_identity() {
        let empty = McEstimate::from_counts(0, 0);
        let est = McEstimate::from_counts(7, 9);
        assert_eq!(est.merge(empty), est);
        assert_eq!(empty.merge(est), est);
        assert_eq!(empty.merge(empty), empty);
    }

    #[test]
    fn unrouted_circuit_rejected() {
        let dev = device(0.1);
        let mut c: Circuit<PhysQubit> = Circuit::new(3);
        c.cnot(PhysQubit(0), PhysQubit(2));
        assert!(monte_carlo_pst(&dev, &c, 10, 0, CoherenceModel::Disabled).is_err());
    }
}
