//! # quva-circuit — quantum circuit IR for the quva NISQ compiler
//!
//! This crate provides the intermediate representation shared by every
//! other `quva` crate:
//!
//! * [`Qubit`] / [`PhysQubit`] / [`Cbit`] index newtypes, so program and
//!   physical addressing can never be confused;
//! * [`Gate`] — the NISQ-era gate set (single-qubit Cliffords + T and
//!   rotations, CNOT, SWAP, measurement, barriers);
//! * [`Circuit`] — an ordered gate list with a fluent builder API;
//! * [`Layers`] — ASAP partitioning into parallel layers, the unit the
//!   mapping policies iterate over;
//! * [`InteractionGraph`] and [`qubit_activity`] — the static analyses
//!   variation-aware allocation feeds on;
//! * [`qasm`] — OpenQASM 2.0 export and subset import.
//!
//! # Examples
//!
//! Build a GHZ state preparation and inspect its structure:
//!
//! ```
//! use quva_circuit::{Circuit, Layers, Qubit};
//!
//! let mut c = Circuit::new(3);
//! c.h(Qubit(0));
//! c.cnot(Qubit(0), Qubit(1));
//! c.cnot(Qubit(1), Qubit(2));
//! c.measure_all();
//!
//! assert_eq!(c.two_qubit_gate_count(), 2);
//! let layers = Layers::of(&c);
//! assert_eq!(layers.len(), c.depth());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod analysis;
mod circuit;
mod dag;
mod gate;
mod layers;
mod optimize;
pub mod qasm;
mod qubit;
mod schedule;

pub use analysis::{qubit_activity, qubits_by_activity, InteractionGraph};
pub use circuit::{Circuit, QubitId};
pub use dag::GateDag;
pub use gate::{Gate, OneQubitKind, Operands, OperandsIter};
pub use layers::Layers;
pub use optimize::{optimize, OptimizeStats};
pub use qubit::{Cbit, PhysQubit, Qubit};
pub use schedule::{GateTimes, Schedule};
