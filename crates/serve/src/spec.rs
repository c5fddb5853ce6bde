//! Textual specifications for devices, policies, and workloads — the
//! shared vocabulary of the `quva` CLI and the `quvad` wire protocol.
//!
//! This module is the canonical parser; `quva-cli::spec` delegates
//! here. Every function returns a typed [`SpecError`] — spec strings
//! arrive over the network, so nothing in this module may panic.

use std::error::Error;
use std::fmt;

use quva::{AllocationStrategy, MappingPolicy, RoutingMetric};
use quva_benchmarks::Benchmark;
use quva_device::{CalibrationGenerator, Device, Topology, VariationProfile};

/// A device, policy, or benchmark spec string could not be understood.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(String);

impl SpecError {
    fn new(msg: impl Into<String>) -> Self {
        SpecError(msg.into())
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Error for SpecError {}

/// The most qubits a device spec may ask for. Every device-derived
/// table is n×n (the hop matrix alone holds n² entries), so a spec is
/// measured against this cap before its topology is built. The largest
/// layout the workloads use has 30 qubits. A benchmark wider than this
/// is refused too: no accepted device could host it. It is the QASM
/// parser's register cap, so every parsed program fits some device.
const MAX_SPEC_QUBITS: usize = quva_circuit::qasm::MAX_QASM_WIDTH;

/// The most links a device spec may ask for. Each table build walks
/// every link once per source qubit, so links bound its time as qubits
/// bound its size: `full:1024` (523 776 links) takes seconds to cost
/// and longer to compile. Every layout but `full:N` has fewer than two
/// links per qubit, so only `full:N` with N > 64 reaches this cap.
const MAX_SPEC_LINKS: usize = 2 * MAX_SPEC_QUBITS;

/// The widest `qft:N` a spec may ask for. A QFT holds N(N−1)/2
/// controlled phases, so its size grows as N², and quvad builds it on
/// the connection thread before admission: `qft:256` is about 164 000
/// gates.
const MAX_QFT_QUBITS: usize = 256;

/// The most CNOTs an `rnd-sd:N:CNOTS` or `rnd-ld:N:CNOTS` spec may ask
/// for.
const MAX_RND_CNOTS: usize = 100_000;

/// The deepest `mirror:N:DEPTH` a spec may ask for. Each layer holds
/// about 1.5·N gates and the inverse half doubles them, so
/// `mirror:1024:64` is about 197 000 gates.
const MAX_MIRROR_DEPTH: usize = 64;

/// The widest `bv`, `ghz` or `w` spec: these workloads list their
/// accepted outcomes as `u64` masks, one bit per measured qubit.
const MAX_OUTCOME_QUBITS: usize = 64;

/// Builds a device from a spec string.
///
/// Supported specs:
/// * `q20` — IBM-Q20 Tokyo with the paper's average error map;
/// * `q5` — IBM-Q5 Tenerife with the §7 error map;
/// * `melbourne` — IBM-Q16 with a seeded synthetic calibration;
/// * `linear:N`, `ring:N`, `grid:RxC`, `heavyhex:RxC`, `full:N` —
///   generic layouts with a seeded synthetic calibration (append
///   `@SEED` to change the seed, e.g. `grid:4x5@7`).
///
/// # Errors
///
/// Fails on unknown names, malformed dimensions, a layout below its
/// minimum (`ring:N` needs N ≥ 3, `heavyhex:RxC` needs R ≥ 2 and
/// C ≥ 3), more than 1024 qubits, or more than 2048 links.
pub fn parse_device(spec: &str) -> Result<Device, SpecError> {
    match spec {
        "q20" | "ibm-q20" => return Ok(Device::ibm_q20()),
        "q5" | "ibm-q5" => return Ok(Device::ibm_q5()),
        "melbourne" | "ibm-q16" => {
            let topo = Topology::ibm_q16_melbourne();
            let mut generator = CalibrationGenerator::new(VariationProfile::ibm_q20_paper(), 1);
            let cal = generator.snapshot(&topo);
            return Device::from_parts(topo, cal).map_err(|e| SpecError::new(e.to_string()));
        }
        _ => {}
    }
    let (shape, seed) = match spec.split_once('@') {
        Some((s, seed)) => {
            let seed: u64 = seed
                .parse()
                .map_err(|_| SpecError::new(format!("bad calibration seed in device spec '{spec}'")))?;
            (s, seed)
        }
        None => (spec, 1),
    };
    let (kind, dims) = shape.split_once(':').ok_or_else(|| {
        SpecError::new(format!(
            "unknown device '{spec}' (try q20, q5, linear:N, grid:RxC)"
        ))
    })?;
    let topology = match kind {
        "linear" => {
            let n = parse_dim(spec, dims)?;
            check_size(spec, n)?;
            Topology::linear(n)
        }
        "ring" => {
            let n = parse_dim(spec, dims)?;
            if n < 3 {
                return Err(SpecError::new(format!(
                    "a ring needs at least 3 qubits, got '{spec}'"
                )));
            }
            check_size(spec, n)?;
            Topology::ring(n)
        }
        "full" => {
            let n = parse_dim(spec, dims)?;
            check_size(spec, n)?;
            let links = n * (n - 1) / 2;
            if links > MAX_SPEC_LINKS {
                return Err(SpecError::new(format!(
                    "device '{spec}' has {links} links; at most {MAX_SPEC_LINKS} are supported"
                )));
            }
            Topology::fully_connected(n)
        }
        "grid" => {
            let (r, c) = dims
                .split_once('x')
                .ok_or_else(|| SpecError::new(format!("grid spec needs RxC, got '{spec}'")))?;
            let (r, c) = (parse_dim(spec, r)?, parse_dim(spec, c)?);
            check_size(spec, r.saturating_mul(c))?;
            Topology::grid(r, c)
        }
        "heavyhex" => {
            let (r, c) = dims
                .split_once('x')
                .ok_or_else(|| SpecError::new(format!("heavyhex spec needs RxC, got '{spec}'")))?;
            let (r, c) = (parse_dim(spec, r)?, parse_dim(spec, c)?);
            if r < 2 || c < 3 {
                return Err(SpecError::new(format!(
                    "heavy-hex needs at least a 2x3 cell, got '{spec}'"
                )));
            }
            check_size(spec, r.saturating_mul(c))?;
            Topology::heavy_hex(r, c)
        }
        _ => {
            return Err(SpecError::new(format!(
                "unknown device kind '{kind}' in '{spec}'"
            )))
        }
    };
    let mut generator = CalibrationGenerator::new(VariationProfile::ibm_q20_paper(), seed);
    let calibration = generator.snapshot(&topology);
    Device::from_parts(topology, calibration).map_err(|e| SpecError::new(e.to_string()))
}

fn parse_dim(spec: &str, text: &str) -> Result<usize, SpecError> {
    let d: usize = text
        .parse()
        .map_err(|_| SpecError::new(format!("bad dimension '{text}' in device spec '{spec}'")))?;
    if d == 0 {
        return Err(SpecError::new(format!("dimension 0 out of range in '{spec}'")));
    }
    Ok(d)
}

/// Refuses a layout of more than [`MAX_SPEC_QUBITS`] qubits.
fn check_size(spec: &str, qubits: usize) -> Result<(), SpecError> {
    if qubits > MAX_SPEC_QUBITS {
        return Err(SpecError::new(format!(
            "device '{spec}' has {qubits} qubits; at most {MAX_SPEC_QUBITS} are supported"
        )));
    }
    Ok(())
}

/// Builds a mapping policy from a spec string: `baseline`, `vqm`,
/// `vqm-mah:K`, `vqa-vqm`, `vqa`, `native:SEED`.
///
/// # Errors
///
/// Fails on unknown names or malformed parameters.
pub fn parse_policy(spec: &str) -> Result<MappingPolicy, SpecError> {
    Ok(match spec {
        "baseline" => MappingPolicy::baseline(),
        "vqm" => MappingPolicy::vqm(),
        "vqm-mah4" => MappingPolicy::vqm_hop_limited(),
        "vqa-vqm" | "vqa+vqm" => MappingPolicy::vqa_vqm(),
        "vqa-ro-vqm" => MappingPolicy {
            allocation: AllocationStrategy::vqa_readout_aware(),
            routing: RoutingMetric::reliability(),
        },
        "vqa" => MappingPolicy {
            allocation: AllocationStrategy::vqa(),
            routing: RoutingMetric::Hops,
        },
        _ => {
            if let Some(k) = spec.strip_prefix("vqm-mah:") {
                let mah: u32 = k
                    .parse()
                    .map_err(|_| SpecError::new(format!("bad MAH value in policy '{spec}'")))?;
                MappingPolicy {
                    allocation: AllocationStrategy::GreedyInteraction,
                    routing: RoutingMetric::Reliability {
                        max_additional_hops: Some(mah),
                        optimize_meeting_edge: false,
                    },
                }
            } else if let Some(seed) = spec.strip_prefix("native:") {
                let seed: u64 = seed
                    .parse()
                    .map_err(|_| SpecError::new(format!("bad seed in policy '{spec}'")))?;
                MappingPolicy::native(seed)
            } else {
                return Err(SpecError::new(format!(
                    "unknown policy '{spec}' (try baseline, vqm, vqm-mah:K, vqa-vqm, native:SEED)"
                )));
            }
        }
    })
}

/// Builds a named benchmark workload: `bv:N`, `qft:N`, `ghz:N`, `alu`,
/// `triswap`, `w:N`, `grover2:N`, `mirror:N:DEPTH`, `rnd-sd:N:CNOTS`,
/// `rnd-ld:N:CNOTS`.
///
/// Every parameter is checked before a generator runs: `bv`, `ghz` and
/// `w` take 2 to 64 qubits, `qft` 1 to 256, `mirror` and `rnd-*` up to
/// 1024 (at least 2 and 4); a mirror is at most 64 layers deep, a
/// random kernel at most 100 000 CNOTs, and `grover2` marks an item in
/// 0 to 3.
///
/// # Errors
///
/// Fails on unknown names, malformed parameters, and parameters out of
/// range; the message names the spec.
pub fn parse_benchmark(spec: &str) -> Result<Benchmark, SpecError> {
    let bad = |what: &str| SpecError::new(format!("bad {what} in benchmark '{spec}'"));
    let bounded = |text: &str, what: &str, min: usize, max: usize| -> Result<usize, SpecError> {
        let value: usize = text.parse().map_err(|_| bad(what))?;
        if (min..=max).contains(&value) {
            Ok(value)
        } else {
            Err(SpecError::new(format!(
                "{what} {value} out of range {min}..={max} in benchmark '{spec}'"
            )))
        }
    };
    if spec == "alu" {
        return Ok(Benchmark::alu());
    }
    if spec == "triswap" {
        return Ok(Benchmark::triswap());
    }
    if let Some((kind, rest)) = spec.split_once(':') {
        return match kind {
            "bv" => Ok(Benchmark::bv(bounded(rest, "size", 2, MAX_OUTCOME_QUBITS)?)),
            "w" => Ok(Benchmark::w_state(bounded(rest, "size", 2, MAX_OUTCOME_QUBITS)?)),
            "grover2" => Ok(Benchmark::grover2(bounded(rest, "marked item", 0, 3)? as u64)),
            "mirror" => {
                let (n, depth) = rest.split_once(':').ok_or_else(|| bad("shape (want N:DEPTH)"))?;
                Ok(Benchmark::mirror(
                    bounded(n, "size", 2, MAX_SPEC_QUBITS)?,
                    bounded(depth, "depth", 0, MAX_MIRROR_DEPTH)?,
                    1,
                ))
            }
            "qft" => Ok(Benchmark::qft(bounded(rest, "size", 1, MAX_QFT_QUBITS)?)),
            "ghz" => Ok(Benchmark::ghz(bounded(rest, "size", 2, MAX_OUTCOME_QUBITS)?)),
            "rnd-sd" | "rnd-ld" => {
                let (n, cnots) = rest.split_once(':').ok_or_else(|| bad("shape (want N:CNOTS)"))?;
                let n = bounded(n, "size", 4, MAX_SPEC_QUBITS)?;
                let cnots = bounded(cnots, "cnot count", 0, MAX_RND_CNOTS)?;
                Ok(if kind == "rnd-sd" {
                    Benchmark::rnd_sd(n, cnots, 1)
                } else {
                    Benchmark::rnd_ld(n, cnots, 2)
                })
            }
            _ => Err(SpecError::new(format!("unknown benchmark '{spec}'"))),
        };
    }
    Err(SpecError::new(format!(
        "unknown benchmark '{spec}' (try bv:16, qft:12, ghz:3, alu, triswap)"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_devices() {
        assert_eq!(parse_device("q20").unwrap().num_qubits(), 20);
        assert_eq!(parse_device("q5").unwrap().num_qubits(), 5);
        assert_eq!(parse_device("melbourne").unwrap().num_qubits(), 14);
    }

    #[test]
    fn parametric_devices_and_seeds() {
        assert_eq!(parse_device("linear:7").unwrap().num_qubits(), 7);
        assert_eq!(parse_device("grid:3x4").unwrap().num_qubits(), 12);
        let a = parse_device("grid:3x4@1").unwrap();
        let b = parse_device("grid:3x4@2").unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), parse_device("grid:3x4@1").unwrap().fingerprint());
    }

    #[test]
    fn bad_specs_are_typed_errors() {
        assert!(parse_device("mesh").is_err());
        assert!(parse_device("grid:3").is_err());
        assert!(parse_device("linear:0").is_err());
        assert!(parse_policy("qiskit").is_err());
        assert!(parse_policy("vqm-mah:x").is_err());
        assert!(parse_benchmark("shor:2048").is_err());
        assert!(parse_benchmark("bv").is_err());
    }

    #[test]
    fn device_size_is_capped_before_building() {
        assert_eq!(parse_device("linear:1024").unwrap().num_qubits(), 1024);
        assert_eq!(parse_device("grid:32x32").unwrap().num_qubits(), 1024);
        for spec in [
            "linear:1025",
            "full:1025",
            "grid:25x41",
            "heavyhex:41x25",
            "grid:1000x1000",
            "grid:18446744073709551615x2",
        ] {
            let err = parse_device(spec).unwrap_err().to_string();
            assert!(err.contains("at most 1024"), "{spec}: {err}");
        }
        assert_eq!(parse_device("full:64").unwrap().topology().num_links(), 2016);
        for (spec, links) in [("full:65", 2080), ("full:1024", 523_776)] {
            let err = parse_device(spec).unwrap_err().to_string();
            assert!(
                err.contains(&format!("{links} links; at most 2048")),
                "{spec}: {err}"
            );
        }
    }

    #[test]
    fn layouts_below_their_minimum_are_refused() {
        assert!(parse_device("ring:3").is_ok());
        assert!(parse_device("heavyhex:2x3").is_ok());
        for spec in ["ring:1", "ring:2", "heavyhex:1x3", "heavyhex:2x2"] {
            assert!(parse_device(spec).is_err(), "{spec}");
        }
    }

    #[test]
    fn benchmark_parameters_are_checked_before_building() {
        // every family just below its minimum, at it, at its cap, and
        // one past the cap
        let table = [
            ("bv:1", false),
            ("bv:2", true),
            ("bv:64", true),
            ("bv:65", false),
            ("w:1", false),
            ("w:2", true),
            ("w:64", true),
            ("w:65", false),
            ("ghz:1", false),
            ("ghz:2", true),
            ("ghz:64", true),
            ("ghz:65", false),
            ("grover2:-1", false),
            ("grover2:0", true),
            ("grover2:3", true),
            ("grover2:4", false),
            ("qft:0", false),
            ("qft:1", true),
            ("qft:256", true),
            ("qft:257", false),
            ("mirror:1:1", false),
            ("mirror:2:0", true),
            ("mirror:1024:64", true),
            ("mirror:1025:1", false),
            ("mirror:2:65", false),
            ("rnd-sd:3:0", false),
            ("rnd-sd:4:0", true),
            ("rnd-sd:1024:100000", true),
            ("rnd-sd:1025:1", false),
            ("rnd-sd:4:100001", false),
            ("rnd-ld:3:0", false),
            ("rnd-ld:4:0", true),
            ("rnd-ld:1024:100000", true),
            ("rnd-ld:1025:1", false),
            ("rnd-ld:4:100001", false),
        ];
        for (spec, accepted) in table {
            match std::panic::catch_unwind(|| parse_benchmark(spec)) {
                Ok(Ok(_)) => assert!(accepted, "{spec} was accepted"),
                Ok(Err(e)) => {
                    assert!(!accepted, "{spec}: {e}");
                    assert!(e.to_string().contains(spec), "{spec}: {e}");
                }
                Err(_) => panic!("{spec} panicked"),
            }
        }
        // the widest GHZ still accepts all-ones
        assert!(parse_benchmark("ghz:64").unwrap().is_success(u64::MAX));
    }

    #[test]
    fn policies_and_benchmarks_parse() {
        assert_eq!(parse_policy("baseline").unwrap(), MappingPolicy::baseline());
        assert_eq!(parse_policy("native:7").unwrap(), MappingPolicy::native(7));
        assert_eq!(parse_benchmark("bv:16").unwrap().name(), "bv-16");
        assert_eq!(parse_benchmark("ghz:4").unwrap().name(), "GHZ-4");
    }
}
