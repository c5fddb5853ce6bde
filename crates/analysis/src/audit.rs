//! The reliability audit: one structured report combining the static
//! ESP bound, per-link/per-qubit error attribution, idle-window
//! decoherence exposure, and every verification finding.
//!
//! This is the simulation-free fast path for triaging compiled
//! circuits: everything here derives from calibration data and the
//! compiled gate stream, so auditing is microseconds per circuit where
//! Monte-Carlo is milliseconds-to-seconds. The `quva audit` CLI command
//! renders it as deterministic JSON or text.

use quva::CompiledCircuit;
use quva_circuit::Circuit;
use quva_device::Device;
use quva_obs::json_escape;

use crate::diagnostic::Report;
use crate::pass::PassRegistry;
use crate::passes::decoherence::idle_exposure;
use crate::passes::esp::{
    esp_interval, link_attribution, per_qubit_esp, EspConfig, EspInterval, LinkAttribution,
};

/// One qubit's row in the attribution table: its exit reliability
/// interval and idle-window decoherence exposure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QubitReliability {
    /// The physical qubit.
    pub qubit: usize,
    /// Exit success interval of every operation the qubit participated
    /// in (two-qubit failures charge both operands).
    pub esp: EspInterval,
    /// Idle nanoseconds between the qubit's first and last gate.
    pub idle_ns: f64,
    /// Idle-window decay probability `½·(1 − e^(−t_idle/T1))`.
    pub decay: f64,
}

/// The full reliability audit of one compiled circuit.
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// Whole-circuit static ESP bound (gate + readout model).
    pub esp: EspInterval,
    /// Per-link failure-weight attribution, heaviest first.
    pub links: Vec<LinkAttribution>,
    /// Per-qubit reliability rows for every qubit the circuit uses,
    /// weakest (lowest `esp.point`) first.
    pub qubits: Vec<QubitReliability>,
    /// Every finding from the standard verification passes (legality,
    /// consistency, and the reliability lints).
    pub findings: Report,
}

/// Audits a compiled circuit under the default drift configuration.
pub fn audit_compiled(source: &Circuit, device: &Device, compiled: &CompiledCircuit) -> AuditReport {
    audit_with(source, device, compiled, &EspConfig::default())
}

/// Audits a compiled circuit under an explicit drift configuration:
/// the ESP interval, the per-qubit rows and the low-ESP finding
/// ([`QV302`]) all use `config`'s drift.
///
/// [`QV302`]: crate::LintCode::LowEspBound
pub fn audit_with(
    source: &Circuit,
    device: &Device,
    compiled: &CompiledCircuit,
    config: &EspConfig,
) -> AuditReport {
    let physical = compiled.physical();
    let esp = esp_interval(device, physical, config);
    let links = link_attribution(device, physical);
    let per_qubit = per_qubit_esp(device, physical, config);
    let exposure = idle_exposure(device, physical);

    let mut qubits: Vec<QubitReliability> = exposure
        .iter()
        .map(|row| QubitReliability {
            qubit: row.qubit,
            esp: per_qubit.get(row.qubit).copied().unwrap_or_else(EspInterval::one),
            idle_ns: row.idle_ns,
            decay: row.failure,
        })
        .collect();
    qubits.sort_by(|a, b| a.esp.point.total_cmp(&b.esp.point).then(a.qubit.cmp(&b.qubit)));

    let findings = PassRegistry::with_esp_config(*config).verify(source, device, compiled);

    AuditReport {
        esp,
        links,
        qubits,
        findings,
    }
}

impl AuditReport {
    /// Renders the audit as deterministic JSON: fixed key order, rows in
    /// their documented sort orders, floats via Rust's shortest-roundtrip
    /// formatting — byte-identical across reruns for identical inputs.
    pub fn render_json(&self) -> String {
        self.render_json_with_extras(&[])
    }

    /// [`AuditReport::render_json`] with extra top-level fields spliced
    /// in after `findings` (the CLI uses this to embed Monte-Carlo
    /// cross-check results). Each extra is `(key, raw JSON value)`.
    pub fn render_json_with_extras(&self, extras: &[(&str, String)]) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"esp\": {{\"lo\": {}, \"hi\": {}, \"point\": {}}},\n",
            self.esp.lo, self.esp.hi, self.esp.point
        ));

        out.push_str("  \"links\": [");
        for (i, l) in self.links.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"link\": \"{}-{}\", \"uses\": {}, \"error\": {}, \"weight\": {}}}",
                l.a.index(),
                l.b.index(),
                l.uses,
                l.error,
                l.weight
            ));
        }
        if !self.links.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");

        out.push_str("  \"qubits\": [");
        for (i, q) in self.qubits.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"qubit\": {}, \"lo\": {}, \"hi\": {}, \"point\": {}, \"idle_ns\": {}, \
                 \"decay\": {}}}",
                q.qubit, q.esp.lo, q.esp.hi, q.esp.point, q.idle_ns, q.decay
            ));
        }
        if !self.qubits.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");

        out.push_str("  \"findings\": [");
        let ordered = self.findings.ordered();
        for (i, d) in ordered.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            out.push_str(&d.json_object());
        }
        if !ordered.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");

        for (key, value) in extras {
            out.push_str(&format!("  \"{key}\": {value},\n"));
        }

        out.push_str(&format!("  \"errors\": {},\n", self.findings.error_count()));
        out.push_str(&format!("  \"warnings\": {},\n", self.findings.warning_count()));
        out.push_str("  \"passes\": [");
        for (i, p) in self.findings.passes().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\"", json_escape(p)));
        }
        out.push_str("]\n}\n");
        out
    }

    /// Renders the audit as human-readable text.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "static ESP: {:.6} in [{:.6}, {:.6}]\n",
            self.esp.point, self.esp.lo, self.esp.hi
        ));
        if !self.links.is_empty() {
            out.push_str("link attribution (heaviest first):\n");
            for l in &self.links {
                out.push_str(&format!(
                    "  {}-{}: {} use(s), error {:.5}, weight {:.5}\n",
                    l.a.index(),
                    l.b.index(),
                    l.uses,
                    l.error,
                    l.weight
                ));
            }
        }
        if !self.qubits.is_empty() {
            out.push_str("qubit reliability (weakest first):\n");
            for q in &self.qubits {
                out.push_str(&format!(
                    "  q{}: point {:.6} in [{:.6}, {:.6}], idle {:.0} ns, decay {:.6}\n",
                    q.qubit, q.esp.point, q.esp.lo, q.esp.hi, q.idle_ns, q.decay
                ));
            }
        }
        out.push_str(&self.findings.render_text());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quva::MappingPolicy;
    use quva_benchmarks::bv;

    fn audited() -> AuditReport {
        let device = Device::ibm_q20();
        let program = bv(8);
        let compiled = MappingPolicy::vqa_vqm()
            .compile(&program, &device)
            .unwrap_or_else(|e| panic!("compile failed: {e}"));
        audit_compiled(&program, &device, &compiled)
    }

    #[test]
    fn audit_is_populated_and_consistent() {
        let report = audited();
        assert!(report.esp.lo <= report.esp.point && report.esp.point <= report.esp.hi);
        assert!(report.esp.point > 0.0 && report.esp.point < 1.0);
        assert!(!report.links.is_empty());
        assert!(!report.qubits.is_empty());
        // attribution is sorted heaviest first
        for pair in report.links.windows(2) {
            assert!(pair[0].weight >= pair[1].weight);
        }
        // qubit rows are sorted weakest first
        for pair in report.qubits.windows(2) {
            assert!(pair[0].esp.point <= pair[1].esp.point);
        }
        assert!(report.findings.is_clean(), "{}", report.findings.render_text());
    }

    #[test]
    fn json_is_byte_deterministic() {
        let a = audited().render_json();
        let b = audited().render_json();
        assert_eq!(a, b);
        assert!(a.contains("\"esp\""));
        assert!(a.contains("\"links\""));
        assert!(a.contains("\"findings\""));
    }

    #[test]
    fn corrupted_link_tops_attribution() {
        let device = Device::ibm_q20();
        let program = bv(8);
        let compiled = MappingPolicy::baseline()
            .compile(&program, &device)
            .unwrap_or_else(|e| panic!("compile failed: {e}"));
        // corrupt the most-used link and re-audit on the corrupted device
        let baseline = audit_compiled(&program, &device, &compiled);
        let busiest = baseline.links[0];
        let topo = device.topology();
        let id = topo
            .link_id(busiest.a, busiest.b)
            .unwrap_or_else(|| panic!("attributed link must exist"));
        let mut cal = device.calibration().clone();
        cal.set_two_qubit_error(id, 0.45);
        let corrupted = device
            .with_calibration(cal)
            .unwrap_or_else(|e| panic!("calibration valid: {e}"));
        let report = audit_compiled(&program, &corrupted, &compiled);
        assert_eq!(
            (report.links[0].a, report.links[0].b),
            (busiest.a, busiest.b),
            "corrupted link must dominate the attribution table"
        );
        assert!(report.esp.point < baseline.esp.point);
    }

    #[test]
    fn text_rendering_mentions_esp_and_links() {
        let t = audited().render_text();
        assert!(t.starts_with("static ESP:"), "{t}");
        assert!(t.contains("link attribution"), "{t}");
    }
}
