//! Integration properties of the verifier:
//!
//! 1. Every benchmark-suite circuit compiled under all four paper
//!    policies verifies clean (no `Severity::Error`).
//! 2. Each seeded corruption — off-coupler CNOT, broken permutation,
//!    use-after-measure, swapped operands, dropped SWAP — is caught
//!    with its expected stable `LintCode`.
//! 3. On all of those outputs, each pass emits only the codes it
//!    declares, and compile-time verification (which runs only the
//!    passes that can report an error) accepts exactly the clean ones.

use proptest::prelude::*;
use quva::{CompileAudit, CompiledCircuit, Mapping, MappingPolicy};
use quva_analysis::{
    lint_circuit, verify_compiled, CompiledContext, LintCode, PassRegistry, Report, Verifier,
};
use quva_benchmarks::{ibm_q5_suite, table1_suite, Benchmark};
use quva_circuit::{Circuit, Gate, PhysQubit, Qubit};
use quva_device::Device;

fn policies() -> [MappingPolicy; 4] {
    [
        MappingPolicy::baseline(),
        MappingPolicy::vqm(),
        MappingPolicy::vqm_hop_limited(),
        MappingPolicy::vqa_vqm(),
    ]
}

fn compile(bench: &Benchmark, policy: MappingPolicy, device: &Device) -> CompiledCircuit {
    policy
        .compile(bench.circuit(), device)
        .unwrap_or_else(|e| panic!("{} failed to compile {}: {e}", policy.name(), bench.name()))
}

/// [`verify_compiled`], checking on the way that every standard pass
/// emits only codes from its `codes()` and that `Verifier`'s
/// compile-time audit accepts exactly when the full report is clean.
fn verify_checked(source: &Circuit, device: &Device, compiled: &CompiledCircuit) -> Report {
    let cx = CompiledContext {
        source,
        device,
        compiled,
    };
    for pass in PassRegistry::standard().compiled_passes() {
        let mut out = Vec::new();
        pass.run(&cx, &mut out);
        for d in &out {
            assert!(
                pass.codes().contains(&d.code()),
                "{} emitted undeclared {}",
                pass.name(),
                d.code().code()
            );
        }
    }
    let report = verify_compiled(source, device, compiled);
    assert_eq!(
        Verifier::new().audit(source, device, compiled).is_ok(),
        report.is_clean(),
        "{}",
        report.render_text()
    );
    report
}

/// Rebuilds a physical circuit with `edit` applied to every gate
/// (returning `None` drops the gate).
fn rewrite(
    circuit: &Circuit<PhysQubit>,
    mut edit: impl FnMut(usize, &Gate<PhysQubit>) -> Option<Gate<PhysQubit>>,
) -> Circuit<PhysQubit> {
    let mut out = Circuit::with_cbits(circuit.num_qubits(), circuit.num_cbits());
    for (i, g) in circuit.iter().enumerate() {
        if let Some(g) = edit(i, g) {
            out.push(g);
        }
    }
    out
}

#[test]
fn table1_suite_verifies_clean_under_all_policies() {
    let device = Device::ibm_q20();
    for bench in table1_suite() {
        for policy in policies() {
            let compiled = compile(&bench, policy, &device);
            let report = verify_checked(bench.circuit(), &device, &compiled);
            assert!(
                report.is_clean(),
                "{} under {} is not clean:\n{}",
                bench.name(),
                policy.name(),
                report.render_text()
            );
        }
    }
}

#[test]
fn q5_suite_verifies_clean_under_all_policies() {
    let device = Device::ibm_q5();
    for bench in ibm_q5_suite() {
        for policy in policies() {
            let compiled = compile(&bench, policy, &device);
            let report = verify_checked(bench.circuit(), &device, &compiled);
            assert!(
                report.is_clean(),
                "{} under {} is not clean:\n{}",
                bench.name(),
                policy.name(),
                report.render_text()
            );
        }
    }
}

#[test]
fn suite_circuits_lint_clean() {
    let device = Device::ibm_q20();
    for bench in table1_suite() {
        let report = lint_circuit(bench.circuit(), Some(&device));
        assert!(
            report.is_clean(),
            "{} lints dirty:\n{}",
            bench.name(),
            report.render_text()
        );
    }
}

/// Seeded corruption 1: an off-coupler CNOT is QV001, distinct from the
/// other corruption codes.
#[test]
fn off_coupler_cnot_is_qv001() {
    let device = Device::ibm_q20();
    let bench = Benchmark::bv(8);
    let compiled = compile(&bench, MappingPolicy::vqm(), &device);

    // find a physically uncoupled pair to corrupt a CNOT onto
    let topo = device.topology();
    let (a, b) = (0..device.num_qubits())
        .flat_map(|i| (0..device.num_qubits()).map(move |j| (i, j)))
        .map(|(i, j)| (PhysQubit(i as u32), PhysQubit(j as u32)))
        .find(|&(a, b)| a != b && topo.link_id(a, b).is_none())
        .expect("q20 is not fully connected");

    let mut corrupted_any = false;
    let physical = rewrite(compiled.physical(), |_, g| {
        if !corrupted_any && matches!(g, Gate::Cnot { .. }) {
            corrupted_any = true;
            Some(Gate::cnot(a, b))
        } else {
            Some(g.clone())
        }
    });
    assert!(corrupted_any);
    let forged = CompiledCircuit::from_parts(
        physical,
        compiled.initial_mapping().clone(),
        compiled.final_mapping().clone(),
        compiled.inserted_swaps(),
    );
    let report = verify_checked(bench.circuit(), &device, &forged);
    assert!(
        report.has_code(LintCode::OffCouplerGate),
        "{}",
        report.render_text()
    );
    assert_eq!(LintCode::OffCouplerGate.code(), "QV001");
}

/// Seeded corruption 2: a final mapping that the SWAPs do not realize
/// is QV003 — and only QV003, since the gate stream itself is intact.
#[test]
fn broken_permutation_is_qv003() {
    let device = Device::ibm_q20();
    let bench = Benchmark::ghz(6);
    let compiled = compile(&bench, MappingPolicy::vqa_vqm(), &device);

    let mut wrong = compiled.final_mapping().clone();
    let p0 = wrong.phys_of(Qubit(0));
    let other = (0..device.num_qubits() as u32)
        .map(PhysQubit)
        .find(|&p| p != p0)
        .expect("device has more than one qubit");
    wrong.apply_swap(p0, other);
    assert_ne!(&wrong, compiled.final_mapping());

    let forged = CompiledCircuit::from_parts(
        compiled.physical().clone(),
        compiled.initial_mapping().clone(),
        wrong,
        compiled.inserted_swaps(),
    );
    let report = verify_checked(bench.circuit(), &device, &forged);
    assert!(
        report.has_code(LintCode::PermutationMismatch),
        "{}",
        report.render_text()
    );
    assert!(
        !report.has_code(LintCode::SequenceMismatch),
        "{}",
        report.render_text()
    );
    assert_eq!(LintCode::PermutationMismatch.code(), "QV003");
}

/// Seeded corruption 3: operating on a measured qubit is QV005, caught
/// both by the circuit lint and by post-compile verification.
#[test]
fn use_after_measure_is_qv005() {
    let mut circuit = Circuit::new(2);
    circuit.h(Qubit(0));
    circuit.measure(Qubit(0), quva_circuit::Cbit(0));
    circuit.cnot(Qubit(0), Qubit(1));
    let report = lint_circuit(&circuit, None);
    assert!(
        report.has_code(LintCode::UseAfterMeasure),
        "{}",
        report.render_text()
    );
    assert!(!report.is_clean());
    assert_eq!(LintCode::UseAfterMeasure.code(), "QV005");

    // the same program, "compiled" 1:1 onto a 2-qubit line
    let device = Device::ibm_q5();
    let physical = circuit.map_qubits(device.num_qubits(), |q| PhysQubit(q.0));
    let mapping = Mapping::identity(2, device.num_qubits());
    let compiled = CompiledCircuit::from_parts(physical, mapping.clone(), mapping, 0);
    let report = verify_checked(&circuit, &device, &compiled);
    assert!(
        report.has_code(LintCode::UseAfterMeasure),
        "{}",
        report.render_text()
    );
}

/// The three seeded-corruption codes are pairwise distinct.
#[test]
fn seeded_corruption_codes_are_distinct() {
    let codes = [
        LintCode::OffCouplerGate.code(),
        LintCode::PermutationMismatch.code(),
        LintCode::UseAfterMeasure.code(),
    ];
    assert_eq!(codes, ["QV001", "QV003", "QV005"]);
}

/// Swapped operand indices on a CNOT (flipped orientation) break the
/// sequence: QV004.
#[test]
fn flipped_cnot_orientation_is_qv004() {
    let device = Device::ibm_q20();
    let bench = Benchmark::bv(8);
    let compiled = compile(&bench, MappingPolicy::baseline(), &device);

    let mut flipped_any = false;
    let physical = rewrite(compiled.physical(), |_, g| match g {
        Gate::Cnot { control, target } if !flipped_any => {
            flipped_any = true;
            Some(Gate::cnot(*target, *control))
        }
        _ => Some(g.clone()),
    });
    assert!(flipped_any);
    let forged = CompiledCircuit::from_parts(
        physical,
        compiled.initial_mapping().clone(),
        compiled.final_mapping().clone(),
        compiled.inserted_swaps(),
    );
    let report = verify_checked(bench.circuit(), &device, &forged);
    assert!(
        report.has_code(LintCode::SequenceMismatch),
        "{}",
        report.render_text()
    );
}

/// Dropping an inserted SWAP desynchronizes the replay: the report must
/// not be clean, via QV003 and/or QV004.
#[test]
fn dropped_swap_is_caught() {
    let device = Device::ibm_q20();
    let bench = Benchmark::bv(16);
    let compiled = compile(&bench, MappingPolicy::vqm(), &device);
    assert!(compiled.inserted_swaps() > 0, "bv-16 on q20 must need SWAPs");

    let mut dropped = false;
    let physical = rewrite(compiled.physical(), |_, g| {
        if !dropped && matches!(g, Gate::Swap { .. }) {
            dropped = true;
            None
        } else {
            Some(g.clone())
        }
    });
    assert!(dropped);
    let forged = CompiledCircuit::from_parts(
        physical,
        compiled.initial_mapping().clone(),
        compiled.final_mapping().clone(),
        compiled.inserted_swaps().saturating_sub(1),
    );
    let report = verify_checked(bench.circuit(), &device, &forged);
    assert!(
        !report.is_clean(),
        "dropped SWAP went unnoticed:\n{}",
        report.render_text()
    );
    assert!(
        report.has_code(LintCode::PermutationMismatch) || report.has_code(LintCode::SequenceMismatch),
        "{}",
        report.render_text()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random dense kernels across seeds compile and verify clean
    /// under an unaware and an aware policy.
    #[test]
    fn random_kernels_verify_clean(seed in 0u64..1024) {
        let device = Device::ibm_q20();
        let bench = Benchmark::rnd_sd(16, 32, seed);
        for policy in [MappingPolicy::baseline(), MappingPolicy::vqa_vqm()] {
            let compiled = compile(&bench, policy, &device);
            let report = verify_checked(bench.circuit(), &device, &compiled);
            prop_assert!(
                report.is_clean(),
                "seed {} under {}:\n{}",
                seed,
                policy.name(),
                report.render_text()
            );
        }
    }

    /// Any corruption of the claimed final mapping is caught as QV003,
    /// wherever the displaced qubit lands.
    #[test]
    fn corrupted_final_mapping_always_caught(seed in 0u64..512) {
        let device = Device::ibm_q20();
        let bench = Benchmark::qft(6);
        let compiled = compile(&bench, MappingPolicy::vqm(), &device);

        let n = device.num_qubits() as u32;
        let mut wrong = compiled.final_mapping().clone();
        let p0 = wrong.phys_of(Qubit((seed % 6) as u32));
        let shifted = PhysQubit((p0.0 + 1 + (seed as u32 % (n - 1))) % n);
        prop_assert!(shifted != p0);
        wrong.apply_swap(p0, shifted);
        prop_assert!(&wrong != compiled.final_mapping());

        let forged = CompiledCircuit::from_parts(
            compiled.physical().clone(),
            compiled.initial_mapping().clone(),
            wrong,
            compiled.inserted_swaps(),
        );
        let report = verify_checked(bench.circuit(), &device, &forged);
        prop_assert!(report.has_code(LintCode::PermutationMismatch), "{}", report.render_text());
    }
}
