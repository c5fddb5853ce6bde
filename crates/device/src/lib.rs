//! # quva-device — NISQ device substrate
//!
//! Everything the variation-aware policies need to know about a machine:
//!
//! * [`Topology`] — the coupling graph, with the paper's layouts
//!   ([`Topology::ibm_q20_tokyo`], [`Topology::ibm_q5_tenerife`]) and
//!   generic meshes;
//! * [`Calibration`] — one characterization snapshot: T1/T2, 1Q/readout
//!   error per qubit, 2Q error per link;
//! * [`CalibrationGenerator`] — seeded synthetic characterization
//!   reproducing the statistics the paper measured on IBM-Q20 (§3);
//! * [`Device`] — topology + calibration, the policy input;
//! * [`HopMatrix`] / [`ReliabilityMatrix`] — the two distance metrics
//!   (SWAP count vs failure weight);
//! * [`node_strengths`] / [`k_core_numbers`] / [`strongest_subgraph`] —
//!   the strength machinery behind VQA.
//!
//! # Examples
//!
//! ```
//! use quva_device::Device;
//! use quva_circuit::PhysQubit;
//!
//! let dev = Device::ibm_q20();
//! // The worst link of Fig. 9: Q14–Q18 at 15% error.
//! assert_eq!(dev.link_error(PhysQubit(14), PhysQubit(18)), Some(0.15));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod calgen;
mod calibration;
mod device;
mod distances;
mod layouts;
mod log;
mod strength;
mod topology;
pub mod validate;

pub use calgen::{
    ibm_q20_average_calibration, ibm_q5_average_calibration, CalibrationGenerator, VariationProfile,
};
pub use calibration::{Calibration, CalibrationError, GateDurations};
pub use device::Device;
pub use distances::{HopMatrix, ReliabilityMatrix, UNREACHABLE_HOPS};
pub use log::CalibrationLog;
pub use strength::{
    best_region, candidate_regions, k_core_numbers, node_strengths, region_internal_success,
    strongest_subgraph, try_strongest_subgraph,
};
pub use topology::{Link, Topology};
pub use validate::{
    CalField, CalibrationIssue, CalibrationRejected, CalibrationReport, IssueKind, RawCalibration,
    SanitizePolicy,
};
