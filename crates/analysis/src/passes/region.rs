//! Weak-region lint (missed-VQA): score the subgraph the compiler
//! allocated into against the strongest k-region of the device.
//!
//! VQA (paper §6, Algorithm 2) allocates program qubits into the
//! connected region with the highest aggregate link strength. This pass
//! recomputes that search on the live device and compares the *actual*
//! allocation — the physical qubits occupied by the initial mapping —
//! on the same internal-link-success scale. An allocation much weaker
//! than the best available region is a missed-VQA finding ([`QV305`]).
//!
//! [`QV305`]: LintCode::WeakRegionAllocation

use quva_circuit::PhysQubit;
use quva_device::{best_region, region_internal_success};

use crate::diagnostic::{Diagnostic, LintCode};
use crate::pass::{CompiledContext, CompiledPass};

/// Minimum acceptable ratio of allocated-region strength to best-region
/// strength.
const RATIO_THRESHOLD: f64 = 0.75;

/// The weak-region pass: emits [`QV305`] when the allocated region's
/// internal success mass falls below 0.75 of the best k-region's.
///
/// [`QV305`]: LintCode::WeakRegionAllocation
#[derive(Debug, Default)]
pub struct WeakRegion;

/// The physical qubits the initial mapping occupies, ascending.
pub fn allocated_region(cx: &CompiledContext<'_>) -> Vec<PhysQubit> {
    let mapping = cx.compiled.initial_mapping();
    let mut region: Vec<PhysQubit> = (0..mapping.num_phys() as u32)
        .map(PhysQubit)
        .filter(|&p| mapping.prog_of(p).is_some())
        .collect();
    region.sort_by_key(|p| p.index());
    region
}

impl CompiledPass for WeakRegion {
    fn name(&self) -> &'static str {
        "weak-region"
    }

    fn codes(&self) -> &'static [LintCode] {
        &[LintCode::WeakRegionAllocation]
    }

    fn run(&self, cx: &CompiledContext<'_>, out: &mut Vec<Diagnostic>) {
        if cx.compiled.initial_mapping().num_phys() != cx.device.num_qubits() {
            return; // shape mismatch; QV006 covers it
        }
        let region = allocated_region(cx);
        let k = region.len();
        if k < 2 {
            return; // no internal links to score
        }
        let allocated = region_internal_success(cx.device, &region);
        let Some((best, best_score)) = best_region(cx.device, k) else {
            return; // no connected k-region exists at all
        };
        if best_score <= 0.0 {
            return;
        }
        let ratio = allocated / best_score;
        if ratio < RATIO_THRESHOLD {
            let preview: Vec<String> = best.iter().take(6).map(|p| p.to_string()).collect();
            out.push(Diagnostic::new(
                LintCode::WeakRegionAllocation,
                None,
                format!(
                    "allocated region has internal strength {:.3}, {:.0}% of the best {}-qubit \
                     region's {:.3} (strongest region starts {}{})",
                    allocated,
                    100.0 * ratio,
                    k,
                    best_score,
                    preview.join(", "),
                    if best.len() > 6 { ", ..." } else { "" }
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quva::{CompiledCircuit, Mapping};
    use quva_circuit::{Circuit, Qubit};
    use quva_device::{Calibration, Device, Topology};

    /// A 6-qubit line whose right half (3–4–5) is pristine and left half
    /// (0–1–2) is terrible.
    fn split_device() -> Device {
        Device::new(Topology::linear(6), |t| {
            let mut c = Calibration::uniform(t, 0.005, 0.0, 0.0);
            c.set_two_qubit_error(0, 0.3); // 0–1
            c.set_two_qubit_error(1, 0.3); // 1–2
            c.set_two_qubit_error(2, 0.3); // 2–3 (bridge)
            c
        })
    }

    fn compiled_on(phys: [u32; 2]) -> (Circuit, CompiledCircuit) {
        let mut source = Circuit::new(2);
        source.cnot(Qubit(0), Qubit(1));
        let mut physical: Circuit<PhysQubit> = Circuit::new(6);
        physical.cnot(PhysQubit(phys[0]), PhysQubit(phys[1]));
        let mapping =
            Mapping::from_assignment(2, 6, |q| PhysQubit(phys[q.0 as usize])).expect("distinct targets");
        let compiled = CompiledCircuit::from_parts(physical, mapping.clone(), mapping, 0);
        (source, compiled)
    }

    fn run_pass(dev: &Device, source: &Circuit, compiled: &CompiledCircuit) -> Vec<Diagnostic> {
        let cx = CompiledContext {
            source,
            device: dev,
            compiled,
        };
        let mut out = Vec::new();
        WeakRegion.run(&cx, &mut out);
        out
    }

    #[test]
    fn weak_allocation_is_flagged() {
        let dev = split_device();
        let (source, compiled) = compiled_on([0, 1]); // the 0.3-error link
        let out = run_pass(&dev, &source, &compiled);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].code(), LintCode::WeakRegionAllocation);
    }

    #[test]
    fn strong_allocation_is_quiet() {
        let dev = split_device();
        let (source, compiled) = compiled_on([4, 5]); // pristine link
        let out = run_pass(&dev, &source, &compiled);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn single_qubit_allocation_is_quiet() {
        let dev = split_device();
        let mut source = Circuit::new(1);
        source.h(Qubit(0));
        let mut physical: Circuit<PhysQubit> = Circuit::new(6);
        physical.h(PhysQubit(0));
        let mapping = Mapping::from_assignment(1, 6, |_| PhysQubit(0)).expect("one target");
        let compiled = CompiledCircuit::from_parts(physical, mapping.clone(), mapping, 0);
        let out = run_pass(&dev, &source, &compiled);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn allocated_region_lists_occupied_qubits() {
        let dev = split_device();
        let (source, compiled) = compiled_on([4, 2]);
        let cx = CompiledContext {
            source: &source,
            device: &dev,
            compiled: &compiled,
        };
        assert_eq!(allocated_region(&cx), vec![PhysQubit(2), PhysQubit(4)]);
    }
}
