//! Envelope soundness: measured wall-clock must land inside the
//! statically predicted [`quva_analysis::CostEnvelope`].
//!
//! The deterministic sweep covers the acceptance criterion directly —
//! table-1 suite × the four policies on the stock IBM-Q20, quick-mode
//! trials — and the proptest re-runs random slices of that matrix on
//! *seeded* synthetic calibrations, checking the prediction is sound
//! for any device the generator can produce, not just the shipped one.
//! The slack factors making this fair across host speeds are part of
//! the model ([`quva_analysis::CostModel::mc_slack`] /
//! [`quva_analysis::CostModel::compile_slack`]), not hidden here.

use proptest::prelude::*;
use quva::MappingPolicy;
use quva_analysis::CostModel;
use quva_bench::cost_check::{measure_case, violations};
use quva_benchmarks::table1_suite;
use quva_device::{CalibrationGenerator, Device, Topology, VariationProfile};

const QUICK_TRIALS: u64 = 2_000;

fn policies() -> [MappingPolicy; 4] {
    [
        MappingPolicy::baseline(),
        MappingPolicy::vqm(),
        MappingPolicy::vqm_hop_limited(),
        MappingPolicy::vqa_vqm(),
    ]
}

#[test]
fn suite_times_four_policies_stay_inside_the_envelope_on_stock_q20() {
    let device = Device::ibm_q20();
    let model = CostModel::default();
    let mut bad = Vec::new();
    for bench in table1_suite() {
        for policy in policies() {
            let checks = measure_case(&device, &bench, &policy, QUICK_TRIALS, &model);
            bad.extend(violations(
                &format!("{}/{}", bench.name(), policy.name()),
                &checks,
            ));
        }
    }
    assert!(bad.is_empty(), "envelope violated:\n{}", bad.join("\n"));
}

/// A long circuit at PST ≈ 0, where every lane-word saturates within a
/// few hundred of its ~8 000 events and stops: the optimistic bound
/// must not charge a trial for the events it never evaluates. In a
/// release build on a 2-vCPU VM the run took 25-37 ms, against a
/// 60 ms `lo` that charged every event to every trial.
#[test]
fn a_long_hopeless_circuit_stays_inside_the_envelope() {
    let device = Device::ibm_q20();
    let bench = quva_benchmarks::Benchmark::rnd_sd(20, 4_000, 1);
    let checks = measure_case(
        &device,
        &bench,
        &MappingPolicy::baseline(),
        2_000_000,
        &CostModel::default(),
    );
    let bad = violations("rnd-sd-20-4000/baseline", &checks);
    assert!(bad.is_empty(), "envelope violated:\n{}", bad.join("\n"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any seeded q20 calibration: the prediction depends only on the
    /// topology, so it must bound the measurement no matter which
    /// snapshot the generator dealt.
    #[test]
    fn measured_cost_lies_within_the_envelope_on_seeded_devices(
        (seed, bench_ix, policy_ix) in (0u64..1_000_000, 0usize..16, 0usize..4)
    ) {
        let topology = Topology::ibm_q20_tokyo();
        let mut generator = CalibrationGenerator::new(VariationProfile::ibm_q20_paper(), seed);
        let cal = generator.snapshot(&topology);
        let device = Device::new(topology, |_| cal);
        let suite = table1_suite();
        let bench = &suite[bench_ix % suite.len()];
        let policy = &policies()[policy_ix % 4];
        let checks = measure_case(&device, bench, policy, QUICK_TRIALS, &CostModel::default());
        let bad = violations(&format!("{}/{}", bench.name(), policy.name()), &checks);
        prop_assert!(bad.is_empty(), "{bad:?}");
    }
}
