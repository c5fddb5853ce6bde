//! Missed-VQM lint: replay router-inserted SWAP chains and compare each
//! against the reliability-optimal route on the live device.
//!
//! For every executed two-qubit source gate the pass reconstructs the
//! movement that served it — the inserted SWAPs (since the previous
//! served gate) that actually displaced either operand — and weighs
//! that route in failure-weight space (`Σ −ln` of SWAP successes plus
//! the executed CNOT's weight). A fresh [`Router`] under the
//! unconstrained reliability metric (paper Algorithm 1, VQM) then plans
//! the optimal route from the same starting positions. When the
//! log-reliability gap exceeds a threshold the chain is flagged as
//! [`QV304`], reporting the hop-slack the optimal route spends (the MAH
//! budget of §5.3 it would need).
//!
//! [`QV304`]: LintCode::MissedVqmRoute

use std::collections::VecDeque;

use quva::{Router, RoutingMetric};
use quva_circuit::{Gate, PhysQubit};

use crate::diagnostic::{Diagnostic, LintCode, Span};
use crate::pass::{CompiledContext, CompiledPass};

/// Minimum log-reliability gap (nats) between the replayed route and the
/// optimal one before a chain is flagged: 0.25 nats means the chosen
/// route loses ≥ 22 % relative success probability.
const GAP_THRESHOLD: f64 = 0.25;

/// The missed-VQM pass: emits [`QV304`] for SWAP chains whose failure
/// weight exceeds the reliability-optimal route's by more than 0.25
/// nats.
///
/// [`QV304`]: LintCode::MissedVqmRoute
#[derive(Debug, Default)]
pub struct MissedVqm;

impl CompiledPass for MissedVqm {
    fn name(&self) -> &'static str {
        "missed-vqm"
    }

    fn codes(&self) -> &'static [LintCode] {
        &[LintCode::MissedVqmRoute]
    }

    fn run(&self, cx: &CompiledContext<'_>, out: &mut Vec<Diagnostic>) {
        let source = cx.source;
        let compiled = cx.compiled;
        let initial = compiled.initial_mapping();

        // The replay below indexes mappings and pending queues; bad
        // shapes are QV006 territory (permutation-consistency) — this
        // pass silently declines rather than duplicating the findings.
        if initial.num_prog() != source.num_qubits()
            || initial.num_phys() != cx.device.num_qubits()
            || compiled.final_mapping().num_prog() != initial.num_prog()
            || compiled.final_mapping().num_phys() != initial.num_phys()
        {
            return;
        }
        for gate in compiled.physical().iter() {
            if gate.qubits().iter().any(|p| p.index() >= initial.num_phys()) {
                return;
            }
        }

        let router = Router::new(cx.device, RoutingMetric::reliability());

        // Pending source operations per program qubit — the same
        // program/inserted SWAP discrimination as permutation
        // consistency.
        let mut pending: Vec<VecDeque<usize>> = vec![VecDeque::new(); source.num_qubits()];
        for (i, g) in source.iter().enumerate() {
            if g.is_barrier() {
                continue;
            }
            for q in g.qubits() {
                pending[q.index()].push_back(i);
            }
        }

        let mut mapping = initial.clone();
        // Inserted SWAPs since the last served two-qubit source gate,
        // with the mapping snapshot taken when the chain opened.
        let mut chain: Vec<(PhysQubit, PhysQubit)> = Vec::new();
        let mut chain_start = mapping.clone();

        for (i, gate) in compiled.physical().iter().enumerate() {
            match gate {
                Gate::Swap { a: pa, b: pb } => {
                    if pa == pb {
                        return; // malformed; QV004 covers it
                    }
                    let program_swap = match (mapping.prog_of(*pa), mapping.prog_of(*pb)) {
                        (Some(qa), Some(qb)) => {
                            match (pending[qa.index()].front(), pending[qb.index()].front()) {
                                (Some(&ia), Some(&ib)) if ia == ib => {
                                    matches!(&source.gates()[ia], Gate::Swap { a, b }
                                        if (*a == qa && *b == qb) || (*a == qb && *b == qa))
                                    .then_some((qa, qb))
                                }
                                _ => None,
                            }
                        }
                        _ => None,
                    };
                    match program_swap {
                        Some((qa, qb)) => {
                            pending[qa.index()].pop_front();
                            pending[qb.index()].pop_front();
                        }
                        None => {
                            if chain.is_empty() {
                                chain_start = mapping.clone();
                            }
                            chain.push((*pa, *pb));
                            mapping.apply_swap(*pa, *pb);
                        }
                    }
                }
                Gate::Cnot {
                    control: pc,
                    target: pt,
                } => {
                    let (Some(qc), Some(qt)) = (mapping.prog_of(*pc), mapping.prog_of(*pt)) else {
                        return; // QV007 covers it
                    };
                    let matched = match (pending[qc.index()].front(), pending[qt.index()].front()) {
                        (Some(&ia), Some(&ib)) if ia == ib => {
                            matches!(&source.gates()[ia], Gate::Cnot { control, target }
                                if *control == qc && *target == qt)
                        }
                        _ => false,
                    };
                    if !matched {
                        return; // QV004 covers it
                    }
                    pending[qc.index()].pop_front();
                    pending[qt.index()].pop_front();

                    if !chain.is_empty() {
                        self.audit_chain(cx, &router, &chain_start, &chain, qc, qt, i, out);
                        chain.clear();
                    }
                }
                Gate::OneQubit { qubit: p, .. } | Gate::Measure { qubit: p, .. } => {
                    let Some(q) = mapping.prog_of(*p) else {
                        return;
                    };
                    if pending[q.index()].front().is_some() {
                        pending[q.index()].pop_front();
                    } else {
                        return;
                    }
                }
                Gate::Barrier { .. } => {}
            }
        }
    }
}

impl MissedVqm {
    /// Weighs the movement that served one executed CNOT against the
    /// reliability-optimal plan from the same starting positions and
    /// pushes [`LintCode::MissedVqmRoute`] when the gap is excessive.
    #[allow(clippy::too_many_arguments)]
    fn audit_chain(
        &self,
        cx: &CompiledContext<'_>,
        router: &Router<'_>,
        chain_start: &quva::Mapping,
        chain: &[(PhysQubit, PhysQubit)],
        qc: quva_circuit::Qubit,
        qt: quva_circuit::Qubit,
        gate_index: usize,
        out: &mut Vec<Diagnostic>,
    ) {
        // Forward-simulate the two operands from their chain-start
        // positions; only SWAPs that displaced one of them belong to
        // this pair's route (other movement in the window serves later
        // gates and is audited when they execute).
        let mut pos_c = chain_start.phys_of(qc);
        let mut pos_t = chain_start.phys_of(qt);
        let start = (pos_c, pos_t);
        let mut used: Vec<(PhysQubit, PhysQubit)> = Vec::new();
        for &(a, b) in chain {
            let mut moved = false;
            for pos in [&mut pos_c, &mut pos_t] {
                if *pos == a {
                    *pos = b;
                    moved = true;
                } else if *pos == b {
                    *pos = a;
                    moved = true;
                }
            }
            if moved {
                used.push((a, b));
            }
        }
        if used.is_empty() {
            return; // operands were already adjacent; nothing to audit
        }

        let Some(cnot_w) = cx.device.cnot_failure_weight(pos_c, pos_t) else {
            return; // illegal execution edge; QV001 covers it
        };
        let actual: f64 = used
            .iter()
            .map(|&(a, b)| cx.device.swap_failure_weight(a, b).unwrap_or(f64::INFINITY))
            .sum::<f64>()
            + cnot_w;

        let Ok(plan) = router.plan(start.0, start.1) else {
            return; // disconnected under current link state
        };
        let optimal = router.plan_failure_weight(&plan);
        let gap = actual - optimal;
        if gap <= GAP_THRESHOLD || !gap.is_finite() {
            return;
        }

        let min_swaps = router.hop_matrix().swaps_needed(start.0, start.1) as usize;
        let hop_slack = plan.swap_count().saturating_sub(min_swaps);
        out.push(Diagnostic::new(
            LintCode::MissedVqmRoute,
            Some(Span::gate(gate_index)),
            format!(
                "route {}->{} used {} SWAP(s) costing {:.3} nats; reliability-optimal route costs \
                 {:.3} (gap {:.3} nats, {:.0}% relative success lost; optimal needs {} SWAP(s), \
                 MAH hop-slack {})",
                start.0,
                start.1,
                used.len(),
                actual,
                optimal,
                gap,
                100.0 * (1.0 - (-gap).exp()),
                plan.swap_count(),
                hop_slack
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quva::{CompiledCircuit, Mapping};
    use quva_circuit::{Circuit, Qubit};
    use quva_device::{Calibration, Device, Topology};

    /// A 4-cycle where the 0–1–2 side is pristine and the 0–3–2 side is
    /// terrible: routing 0 to meet 2 through qubit 3 is a missed VQM.
    fn ring_device() -> Device {
        let topo = Topology::from_links("ring4", 4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
        Device::new(topo, |t| {
            let mut c = Calibration::uniform(t, 0.005, 0.0, 0.0);
            let bad_23 = t.link_id(PhysQubit(2), PhysQubit(3)).expect("link 2-3");
            let bad_30 = t.link_id(PhysQubit(3), PhysQubit(0)).expect("link 3-0");
            c.set_two_qubit_error(bad_23, 0.25);
            c.set_two_qubit_error(bad_30, 0.25);
            c
        })
    }

    fn cnot_source() -> Circuit {
        let mut c = Circuit::new(4);
        c.cnot(Qubit(0), Qubit(2));
        c
    }

    fn compiled_via(route: &[(u32, u32)], exec: (u32, u32)) -> CompiledCircuit {
        let mut physical: Circuit<PhysQubit> = Circuit::new(4);
        let initial = Mapping::identity(4, 4);
        let mut final_mapping = initial.clone();
        for &(a, b) in route {
            physical.swap(PhysQubit(a), PhysQubit(b));
            final_mapping.apply_swap(PhysQubit(a), PhysQubit(b));
        }
        physical.cnot(PhysQubit(exec.0), PhysQubit(exec.1));
        CompiledCircuit::from_parts(physical, initial, final_mapping, route.len())
    }

    fn run_pass(dev: &Device, source: &Circuit, compiled: &CompiledCircuit) -> Vec<Diagnostic> {
        let cx = CompiledContext {
            source,
            device: dev,
            compiled,
        };
        let mut out = Vec::new();
        MissedVqm.run(&cx, &mut out);
        out
    }

    #[test]
    fn weak_detour_is_flagged() {
        let dev = ring_device();
        let source = cnot_source();
        // move qubit 0's occupant through the terrible 0–3 link, then
        // execute across the terrible 3–2 link
        let compiled = compiled_via(&[(0, 3)], (3, 2));
        let out = run_pass(&dev, &source, &compiled);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].code(), LintCode::MissedVqmRoute);
        assert!(out[0].message().contains("MAH hop-slack"), "{}", out[0].message());
    }

    #[test]
    fn optimal_route_is_quiet() {
        let dev = ring_device();
        let source = cnot_source();
        // the strong side: swap 0's occupant to 1, execute across 1–2
        let compiled = compiled_via(&[(0, 1)], (1, 2));
        let out = run_pass(&dev, &source, &compiled);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn adjacent_gate_without_swaps_is_quiet() {
        let dev = ring_device();
        let mut source = Circuit::new(4);
        source.cnot(Qubit(0), Qubit(1));
        let compiled = compiled_via(&[], (0, 1));
        let out = run_pass(&dev, &source, &compiled);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn unrelated_movement_is_not_charged() {
        // qubit 3's occupant shuffles to 2's side for a later gate; the
        // 0–1 CNOT executes adjacently and must not inherit that cost.
        let dev = ring_device();
        let mut source = Circuit::new(4);
        source.cnot(Qubit(0), Qubit(1));
        source.cnot(Qubit(3), Qubit(1));
        let mut physical: Circuit<PhysQubit> = Circuit::new(4);
        let initial = Mapping::identity(4, 4);
        let mut final_mapping = initial.clone();
        physical.swap(PhysQubit(3), PhysQubit(2));
        final_mapping.apply_swap(PhysQubit(3), PhysQubit(2));
        physical.cnot(PhysQubit(0), PhysQubit(1));
        physical.swap(PhysQubit(2), PhysQubit(1));
        final_mapping.apply_swap(PhysQubit(2), PhysQubit(1));
        physical.cnot(PhysQubit(1), PhysQubit(2));
        let compiled = CompiledCircuit::from_parts(physical, initial, final_mapping, 2);
        let out = run_pass(&dev, &source, &compiled);
        // the 3->2->1 movement rides the weak 2–3 link but IS the best
        // route for program qubit 3 given where it started, so both
        // gates stay quiet; the point of this test is that the first
        // CNOT (zero own movement) produces no finding at all.
        assert!(
            out.iter().all(|d| d.span() != Some(Span::gate(1))),
            "adjacent CNOT must not be charged for unrelated SWAPs: {out:?}"
        );
    }

    #[test]
    fn malformed_output_declines_quietly() {
        let dev = ring_device();
        let source = cnot_source();
        // final mapping of the wrong shape
        let physical: Circuit<PhysQubit> = Circuit::new(4);
        let compiled =
            CompiledCircuit::from_parts(physical, Mapping::identity(4, 4), Mapping::identity(2, 4), 0);
        let out = run_pass(&dev, &source, &compiled);
        assert!(out.is_empty());
    }
}
