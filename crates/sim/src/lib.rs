//! # quva-sim — reliability evaluation for NISQ programs
//!
//! Three evaluation engines over a routed circuit + device:
//!
//! * [`analytic_pst`] — exact PST under the paper's uncorrelated error
//!   model (§4.3): the product of per-event success probabilities, with
//!   a gate/readout/coherence failure-weight decomposition;
//! * [`monte_carlo_pst`] — the Fig. 10 Monte-Carlo fault injector,
//!   which converges to the analytic value (property-tested). Trial
//!   execution runs on the deterministic parallel [`McEngine`]:
//!   chunked, seed-derived, and bit-identical for every thread count.
//!   Two kernels are available via [`McKernel`]: the default
//!   bit-parallel SWAR kernel (64 trials per `u64` lane-word) and the
//!   scalar per-trial loop retained as its cross-validation oracle;
//! * [`run_noisy_trials`] — a dense state-vector simulation with
//!   stochastic Pauli gate noise and readout flips, the stand-in for
//!   the paper's real-hardware IBM-Q5 runs (§7).
//!
//! # Examples
//!
//! ```
//! use quva_circuit::{Circuit, PhysQubit};
//! use quva_device::{Calibration, Device, Topology};
//! use quva_sim::{analytic_pst, monte_carlo_pst, CoherenceModel};
//!
//! # fn main() -> Result<(), quva_sim::SimError> {
//! let dev = Device::new(Topology::linear(3), |t| Calibration::uniform(t, 0.04, 0.001, 0.02));
//! let mut c: Circuit<PhysQubit> = Circuit::new(3);
//! c.h(PhysQubit(0));
//! c.cnot(PhysQubit(0), PhysQubit(1));
//! c.swap(PhysQubit(1), PhysQubit(2));
//!
//! let exact = analytic_pst(&dev, &c, CoherenceModel::Disabled)?.pst;
//! let sampled = monte_carlo_pst(&dev, &c, 100_000, 7, CoherenceModel::Disabled)?.pst;
//! assert!((exact - sampled).abs() < 0.01);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod analytic;
mod bitparallel;
mod complex;
mod correlated;
mod crosstalk;
mod density;
mod engine;
mod error;
mod exact;
mod montecarlo;
mod noisy;
mod profile;
mod statevector;

pub use analytic::{analytic_pst, PstReport};
pub use bitparallel::BLOCK as BITPARALLEL_BLOCK_ROWS;
pub use complex::Complex64;
pub use correlated::{monte_carlo_pst_correlated, CorrelatedModel};
pub use crosstalk::{analytic_pst_with_crosstalk, CrosstalkModel};
pub use density::{DensityMatrix, MAX_DENSITY_QUBITS};
pub use engine::{McEngine, McKernel, DEFAULT_CHUNK_TRIALS};
pub use error::SimError;
pub use exact::exact_noisy_distribution;
pub use montecarlo::{monte_carlo_pst, monte_carlo_pst_progress, monte_carlo_pst_with, McEstimate};
pub use noisy::{run_noisy_trials, TrialOutcomes};
pub use profile::{CoherenceModel, EventClass, FailureProfile};
pub use statevector::{matrix_of, StateVector, MAX_STATEVECTOR_QUBITS};
