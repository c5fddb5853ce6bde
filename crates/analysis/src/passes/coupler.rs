//! Coupler legality: every physical two-qubit gate must sit on an
//! active, non-disabled link of the device.

use crate::diagnostic::{Diagnostic, LintCode, Span};
use crate::pass::{CompiledContext, CompiledPass};

/// Flags two-qubit gates addressing pairs with no coupler ([`QV001`])
/// or a disabled coupler ([`QV002`]).
///
/// [`QV001`]: LintCode::OffCouplerGate
/// [`QV002`]: LintCode::DisabledLinkGate
#[derive(Debug, Default)]
pub struct CouplerLegality;

impl CompiledPass for CouplerLegality {
    fn name(&self) -> &'static str {
        "coupler-legality"
    }

    fn codes(&self) -> &'static [LintCode] {
        &[
            LintCode::WidthExceeded,
            LintCode::OffCouplerGate,
            LintCode::DisabledLinkGate,
        ]
    }

    fn run(&self, cx: &CompiledContext<'_>, out: &mut Vec<Diagnostic>) {
        let topo = cx.device.topology();
        let n = cx.device.num_qubits();
        for (i, gate) in cx.compiled.physical().iter().enumerate() {
            if !gate.is_two_qubit() {
                continue;
            }
            let qs = gate.qubits();
            let (a, b) = (qs[0], qs[1]);
            if a.index() >= n || b.index() >= n {
                out.push(Diagnostic::new(
                    LintCode::WidthExceeded,
                    Some(Span::gate(i)),
                    format!("{gate} addresses a physical qubit outside the {n}-qubit device"),
                ));
                continue;
            }
            match topo.link_id(a, b) {
                None => out.push(Diagnostic::new(
                    LintCode::OffCouplerGate,
                    Some(Span::gate(i)),
                    format!("{gate}: no coupler between {a} and {b}"),
                )),
                Some(id) if !cx.device.link_enabled(id) => out.push(Diagnostic::new(
                    LintCode::DisabledLinkGate,
                    Some(Span::gate(i)),
                    format!("{gate}: the {a}-{b} coupler is disabled"),
                )),
                Some(_) => {}
            }
        }
    }
}
