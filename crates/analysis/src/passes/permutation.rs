//! Permutation and sequence consistency: replaying the compiled gate
//! stream from the initial mapping must (a) consume exactly the logical
//! program under the evolving mapping and (b) land on the claimed final
//! mapping.

use std::collections::VecDeque;

use quva_circuit::Gate;

use crate::diagnostic::{Diagnostic, LintCode, Span};
use crate::pass::{CompiledContext, CompiledPass};

/// Replays router-inserted SWAPs from `initial_mapping` and proves the
/// result equals `final_mapping` ([`QV003`]), while matching every
/// non-SWAP physical gate against the logical program under the
/// evolving mapping ([`QV004`], [`QV007`]). Shape mismatches between
/// circuit, mappings, and device abort the replay with [`QV006`].
///
/// Program SWAPs are distinguished from router-inserted ones by the
/// source program itself: a physical `swap P,Q` realizes a program SWAP
/// exactly when the *same* source SWAP gate is the next pending
/// operation of both mapped program qubits. Program SWAPs exchange
/// register contents but leave the mapping untouched (homes stay);
/// inserted SWAPs move the mapping.
///
/// [`QV003`]: LintCode::PermutationMismatch
/// [`QV004`]: LintCode::SequenceMismatch
/// [`QV006`]: LintCode::WidthExceeded
/// [`QV007`]: LintCode::UnmappedOperand
#[derive(Debug, Default)]
pub struct PermutationConsistency;

impl CompiledPass for PermutationConsistency {
    fn name(&self) -> &'static str {
        "permutation-consistency"
    }

    fn codes(&self) -> &'static [LintCode] {
        &[
            LintCode::WidthExceeded,
            LintCode::UnmappedOperand,
            LintCode::SequenceMismatch,
            LintCode::PermutationMismatch,
        ]
    }

    fn run(&self, cx: &CompiledContext<'_>, out: &mut Vec<Diagnostic>) {
        let source = cx.source;
        let compiled = cx.compiled;
        let initial = compiled.initial_mapping();
        let final_mapping = compiled.final_mapping();

        // Shape checks first: a replay over mismatched shapes would
        // index out of range, so any failure aborts the pass.
        let mut shape_ok = true;
        if initial.num_prog() != source.num_qubits() {
            out.push(Diagnostic::new(
                LintCode::WidthExceeded,
                None,
                format!(
                    "initial mapping covers {} program qubits, source circuit has {}",
                    initial.num_prog(),
                    source.num_qubits()
                ),
            ));
            shape_ok = false;
        }
        if initial.num_phys() != cx.device.num_qubits() {
            out.push(Diagnostic::new(
                LintCode::WidthExceeded,
                None,
                format!(
                    "initial mapping spans {} physical qubits, device has {}",
                    initial.num_phys(),
                    cx.device.num_qubits()
                ),
            ));
            shape_ok = false;
        }
        if final_mapping.num_prog() != initial.num_prog() || final_mapping.num_phys() != initial.num_phys() {
            out.push(Diagnostic::new(
                LintCode::WidthExceeded,
                None,
                "initial and final mappings have different shapes".to_string(),
            ));
            shape_ok = false;
        }
        if !shape_ok {
            return;
        }

        // Per-program-qubit queues of pending source gate indices. The
        // matching is order-independent across qubits but preserves
        // each qubit's own dependency order, which is exactly the
        // freedom layer-ordered emission has.
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
        let mut sequence_ok = true;

        'replay: for (i, gate) in compiled.physical().iter().enumerate() {
            if gate.is_barrier() {
                continue;
            }
            for p in gate.qubits() {
                if p.index() >= mapping.num_phys() {
                    out.push(Diagnostic::new(
                        LintCode::WidthExceeded,
                        Some(Span::gate(i)),
                        format!("{gate} addresses a physical qubit outside the mapping"),
                    ));
                    sequence_ok = false;
                    break 'replay;
                }
            }
            match gate {
                Gate::Swap { a: pa, b: pb } => {
                    if pa == pb {
                        out.push(Diagnostic::new(
                            LintCode::SequenceMismatch,
                            Some(Span::gate(i)),
                            format!("{gate} has identical operands"),
                        ));
                        sequence_ok = false;
                        break 'replay;
                    }
                    // A program SWAP iff one source SWAP gate is the
                    // next pending operation of both occupants.
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
                            // register contents exchange, homes stay
                            pending[qa.index()].pop_front();
                            pending[qb.index()].pop_front();
                        }
                        None => mapping.apply_swap(*pa, *pb),
                    }
                }
                Gate::OneQubit { kind, qubit: p } => {
                    let Some(q) = mapping.prog_of(*p) else {
                        out.push(unmapped(i, gate, *p));
                        sequence_ok = false;
                        break 'replay;
                    };
                    let matched = pending[q.index()].front().is_some_and(|&si| {
                        matches!(&source.gates()[si], Gate::OneQubit { kind: sk, qubit: sq }
                            if sk == kind && *sq == q)
                    });
                    if matched {
                        pending[q.index()].pop_front();
                    } else {
                        out.push(mismatch(i, gate, q));
                        sequence_ok = false;
                        break 'replay;
                    }
                }
                Gate::Measure { qubit: p, cbit } => {
                    let Some(q) = mapping.prog_of(*p) else {
                        out.push(unmapped(i, gate, *p));
                        sequence_ok = false;
                        break 'replay;
                    };
                    let matched = pending[q.index()].front().is_some_and(|&si| {
                        matches!(&source.gates()[si], Gate::Measure { qubit: sq, cbit: sc }
                            if *sq == q && sc == cbit)
                    });
                    if matched {
                        pending[q.index()].pop_front();
                    } else {
                        out.push(mismatch(i, gate, q));
                        sequence_ok = false;
                        break 'replay;
                    }
                }
                Gate::Cnot {
                    control: pc,
                    target: pt,
                } => {
                    let (qc, qt) = match (mapping.prog_of(*pc), mapping.prog_of(*pt)) {
                        (Some(qc), Some(qt)) => (qc, qt),
                        (None, _) => {
                            out.push(unmapped(i, gate, *pc));
                            sequence_ok = false;
                            break 'replay;
                        }
                        (_, None) => {
                            out.push(unmapped(i, gate, *pt));
                            sequence_ok = false;
                            break 'replay;
                        }
                    };
                    let matched = match (pending[qc.index()].front(), pending[qt.index()].front()) {
                        (Some(&ia), Some(&ib)) if ia == ib => {
                            matches!(&source.gates()[ia], Gate::Cnot { control, target }
                                if *control == qc && *target == qt)
                        }
                        _ => false,
                    };
                    if matched {
                        pending[qc.index()].pop_front();
                        pending[qt.index()].pop_front();
                    } else {
                        out.push(mismatch(i, gate, qc));
                        sequence_ok = false;
                        break 'replay;
                    }
                }
                Gate::Barrier { .. } => {}
            }
        }

        if sequence_ok {
            let leftover: usize = pending.iter().map(VecDeque::len).sum();
            if leftover > 0 {
                out.push(Diagnostic::new(
                    LintCode::SequenceMismatch,
                    None,
                    format!("{leftover} source gate operand(s) missing from the compiled stream"),
                ));
                sequence_ok = false;
            }
        }

        // A sequence failure leaves the replayed mapping meaningless, so
        // the final-mapping comparison only runs on a clean sequence.
        if sequence_ok && &mapping != final_mapping {
            out.push(Diagnostic::new(
                LintCode::PermutationMismatch,
                None,
                format!("replayed SWAPs yield {mapping}, compiler claims {final_mapping}"),
            ));
        }
    }
}

fn unmapped<Q: std::fmt::Display, G: std::fmt::Display>(i: usize, gate: G, p: Q) -> Diagnostic {
    Diagnostic::new(
        LintCode::UnmappedOperand,
        Some(Span::gate(i)),
        format!("{gate}: no program qubit occupies {p} at this point"),
    )
}

fn mismatch<Q: std::fmt::Display, G: std::fmt::Display>(i: usize, gate: G, q: Q) -> Diagnostic {
    Diagnostic::new(
        LintCode::SequenceMismatch,
        Some(Span::gate(i)),
        format!("{gate} is not the next pending operation of program qubit {q}"),
    )
}
