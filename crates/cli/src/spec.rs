//! Textual specifications for devices, policies, and workloads — the
//! vocabulary of the `quva` CLI.
//!
//! The parsers themselves live in `quva_serve::spec` (they are shared
//! with the daemon's wire protocol); this module adapts their typed
//! [`quva_serve::SpecError`] into the CLI's [`ArgsError`].

use quva::MappingPolicy;
use quva_benchmarks::Benchmark;
use quva_device::Device;

use crate::args::ArgsError;

/// Builds a device from a spec string.
///
/// Supported specs:
/// * `q20` — IBM-Q20 Tokyo with the paper's average error map;
/// * `q5` — IBM-Q5 Tenerife with the §7 error map;
/// * `linear:N`, `ring:N`, `grid:RxC`, `full:N` — generic layouts with a
///   seeded synthetic calibration (append `@SEED` to change the seed,
///   e.g. `grid:4x5@7`).
///
/// # Errors
///
/// Fails on unknown names, malformed dimensions, and the layouts
/// [`quva_serve::parse_device`] refuses (too small, or over its qubit
/// or link cap).
pub fn parse_device(spec: &str) -> Result<Device, ArgsError> {
    quva_serve::parse_device(spec).map_err(|e| ArgsError::new(e.to_string()))
}

/// Builds a mapping policy from a spec string: `baseline`, `vqm`,
/// `vqm-mah:K`, `vqa-vqm`, `vqa`, `native:SEED`.
///
/// # Errors
///
/// Fails on unknown names or malformed parameters.
pub fn parse_policy(spec: &str) -> Result<MappingPolicy, ArgsError> {
    quva_serve::parse_policy(spec).map_err(|e| ArgsError::new(e.to_string()))
}

/// Builds a named benchmark workload: `bv:N`, `qft:N`, `ghz:N`, `alu`,
/// `triswap`, `rnd-sd:N:CNOTS`, `rnd-ld:N:CNOTS`.
///
/// # Errors
///
/// Fails on unknown names, malformed parameters, and the sizes
/// [`quva_serve::parse_benchmark`] refuses (below a generator's
/// minimum, or over its cap).
pub fn parse_benchmark(spec: &str) -> Result<Benchmark, ArgsError> {
    quva_serve::parse_benchmark(spec).map_err(|e| ArgsError::new(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use quva::RoutingMetric;

    #[test]
    fn named_devices() {
        assert_eq!(parse_device("q20").unwrap().num_qubits(), 20);
        assert_eq!(parse_device("q5").unwrap().num_qubits(), 5);
    }

    #[test]
    fn parametric_devices() {
        assert_eq!(parse_device("melbourne").unwrap().num_qubits(), 14);
        assert_eq!(parse_device("heavyhex:3x5").unwrap().num_qubits(), 15);
        assert_eq!(parse_device("linear:7").unwrap().num_qubits(), 7);
        assert_eq!(parse_device("grid:3x4").unwrap().num_qubits(), 12);
        assert_eq!(parse_device("ring:5").unwrap().num_qubits(), 5);
        assert_eq!(parse_device("full:4").unwrap().num_qubits(), 4);
    }

    #[test]
    fn device_seed_changes_calibration() {
        let a = parse_device("grid:3x4@1").unwrap();
        let b = parse_device("grid:3x4@2").unwrap();
        assert_ne!(a.calibration(), b.calibration());
        // same seed reproduces
        let c = parse_device("grid:3x4@1").unwrap();
        assert_eq!(a.calibration(), c.calibration());
    }

    #[test]
    fn bad_devices_error() {
        assert!(parse_device("mesh").is_err());
        assert!(parse_device("grid:3").is_err());
        assert!(parse_device("linear:0").is_err());
        assert!(parse_device("linear:abc").is_err());
        assert!(parse_device("grid:3x4@x").is_err());
    }

    #[test]
    fn policies() {
        assert_eq!(parse_policy("baseline").unwrap(), MappingPolicy::baseline());
        assert_eq!(parse_policy("vqm").unwrap(), MappingPolicy::vqm());
        assert_eq!(parse_policy("vqa-vqm").unwrap(), MappingPolicy::vqa_vqm());
        assert_eq!(parse_policy("native:7").unwrap(), MappingPolicy::native(7));
        let mah2 = parse_policy("vqm-mah:2").unwrap();
        assert_eq!(
            mah2.routing,
            RoutingMetric::Reliability {
                max_additional_hops: Some(2),
                optimize_meeting_edge: false
            }
        );
        assert!(parse_policy("qiskit").is_err());
        assert!(parse_policy("vqm-mah:x").is_err());
    }

    #[test]
    fn benchmarks() {
        assert_eq!(parse_benchmark("bv:16").unwrap().name(), "bv-16");
        assert_eq!(parse_benchmark("w:4").unwrap().name(), "w-4");
        assert_eq!(parse_benchmark("grover2:2").unwrap().name(), "grover2-2");
        assert_eq!(parse_benchmark("mirror:5:4").unwrap().name(), "mirror-5x4");
        assert_eq!(parse_benchmark("alu").unwrap().name(), "alu");
        assert_eq!(parse_benchmark("triswap").unwrap().name(), "TriSwap");
        assert_eq!(parse_benchmark("rnd-ld:20:80").unwrap().name(), "rnd-LD");
        assert!(parse_benchmark("shor:2048").is_err());
        assert!(parse_benchmark("bv").is_err());
    }
}
