//! Static ESP interval analysis: bound the estimated success
//! probability of a routed circuit from calibration error rates alone.
//!
//! Every operation succeeds with probability `1 − e` (a SWAP with
//! `(1 − e)³`, exactly the simulator's failure model), but calibration
//! data drifts between the characterization run and execution. The
//! analysis therefore propagates *intervals*: each error rate `e` is
//! widened to `[e·(1 − δ), min(1, e·(1 + δ))]` for a relative drift
//! uncertainty `δ` ([`EspConfig::drift`]), and success intervals
//! multiply through the circuit.
//!
//! Two products are computed:
//!
//! * the **whole-circuit ESP bound** — one interval over *gates*
//!   (each operation counted once), whose point estimate equals the
//!   simulator's analytic PST under the gate + readout model;
//! * **per-qubit reliability states** — one fold over a per-qubit
//!   vector in program order: each qubit's interval accumulates every
//!   operation it participates in (two-qubit failures charge both
//!   operands), yielding the error-attribution table that names the
//!   weakest qubits and links.

use quva_circuit::{Circuit, Gate, PhysQubit};
use quva_device::Device;

use crate::diagnostic::{Diagnostic, LintCode};
use crate::pass::{CompiledContext, CompiledPass};

/// Configuration of the ESP interval analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EspConfig {
    /// Relative calibration-drift uncertainty applied to every error
    /// rate: `e` is widened to `[e·(1 − drift), e·(1 + drift)]`
    /// (clamped to `[0, 1]`). The paper's daily-calibration study (§6.5)
    /// motivates the default of 10 %.
    pub drift: f64,
}

impl Default for EspConfig {
    fn default() -> Self {
        EspConfig { drift: 0.10 }
    }
}

/// A closed success-probability interval with its point estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EspInterval {
    /// Pessimistic bound (every rate drifted `drift` worse).
    pub lo: f64,
    /// Optimistic bound (every rate drifted `drift` better).
    pub hi: f64,
    /// Point estimate at the calibrated rates — identical to the
    /// simulator's analytic PST under the gate + readout error model.
    pub point: f64,
}

impl EspInterval {
    /// The interval `[1, 1]`: certain success (no operations yet).
    pub fn one() -> Self {
        EspInterval {
            lo: 1.0,
            hi: 1.0,
            point: 1.0,
        }
    }

    /// Whether `p` lies within `[lo, hi]`.
    pub fn contains(&self, p: f64) -> bool {
        self.lo <= p && p <= self.hi
    }

    /// Interval product (independent failure events).
    pub fn mul(&self, other: &EspInterval) -> EspInterval {
        EspInterval {
            lo: self.lo * other.lo,
            hi: self.hi * other.hi,
            point: self.point * other.point,
        }
    }

    /// The success interval of one event with error rate `e` under
    /// drift uncertainty `delta`, raised to `power` repetitions (a SWAP
    /// is three CNOTs).
    fn of_error(e: f64, delta: f64, power: i32) -> EspInterval {
        let e_lo = (e * (1.0 - delta)).clamp(0.0, 1.0);
        let e_hi = (e * (1.0 + delta)).clamp(0.0, 1.0);
        EspInterval {
            lo: (1.0 - e_hi).powi(power),
            hi: (1.0 - e_lo).powi(power),
            point: (1.0 - e).powi(power),
        }
    }
}

/// The success interval of one operation under drift `delta`, or
/// `None` for a barrier and for a two-qubit gate on an uncoupled or
/// disabled pair (coupler legality reports those; the ESP analysis
/// skips them to stay total).
fn gate_interval(device: &Device, gate: &Gate<PhysQubit>, delta: f64) -> Option<EspInterval> {
    let cal = device.calibration();
    match gate {
        Gate::OneQubit { qubit, .. } => Some(EspInterval::of_error(
            cal.one_qubit_error(qubit.index()),
            delta,
            1,
        )),
        Gate::Cnot { control, target } => device
            .link_error(*control, *target)
            .map(|e| EspInterval::of_error(e, delta, 1)),
        Gate::Swap { a, b } => device
            .link_error(*a, *b)
            .map(|e| EspInterval::of_error(e, delta, 3)),
        Gate::Measure { qubit, .. } => {
            Some(EspInterval::of_error(cal.readout_error(qubit.index()), delta, 1))
        }
        Gate::Barrier { .. } => None,
    }
}

/// The whole-circuit static ESP bound of a routed circuit: the product
/// of every operation's success interval (gate + readout model,
/// coherence excluded — matching the policy comparisons of the paper
/// and the Monte-Carlo cross-validation).
///
/// Two-qubit gates on uncoupled or disabled pairs contribute nothing
/// (coupler legality flags them separately).
///
/// # Examples
///
/// ```
/// use quva_analysis::{esp_interval, EspConfig};
/// use quva_circuit::{Cbit, Circuit, PhysQubit};
/// use quva_device::{Calibration, Device, Topology};
///
/// let device = Device::new(Topology::linear(2), |t| Calibration::uniform(t, 0.1, 0.0, 0.0));
/// let mut c: Circuit<PhysQubit> = Circuit::new(2);
/// c.cnot(PhysQubit(0), PhysQubit(1));
/// let esp = esp_interval(&device, &c, &EspConfig { drift: 0.5 });
/// assert!((esp.point - 0.9).abs() < 1e-12);
/// assert!((esp.lo - 0.85).abs() < 1e-12);
/// assert!((esp.hi - 0.95).abs() < 1e-12);
/// ```
pub fn esp_interval(device: &Device, circuit: &Circuit<PhysQubit>, config: &EspConfig) -> EspInterval {
    circuit
        .iter()
        .filter_map(|g| gate_interval(device, g, config.drift))
        .fold(EspInterval::one(), |acc, iv| acc.mul(&iv))
}

/// Per-qubit reliability intervals at circuit exit: each physical
/// qubit's interval accumulates every operation it participated in
/// (two-qubit failures charge both operands, so the per-qubit product
/// is *not* the circuit ESP — it is the attribution view).
///
/// Index `q` is physical qubit `q`, for every qubit of the device (or
/// of the circuit, if wider); untouched qubits report
/// [`EspInterval::one`].
pub fn per_qubit_esp(device: &Device, circuit: &Circuit<PhysQubit>, config: &EspConfig) -> Vec<EspInterval> {
    let mut states = vec![EspInterval::one(); device.num_qubits().max(circuit.num_qubits())];
    for gate in circuit.iter() {
        let Some(iv) = gate_interval(device, gate, config.drift) else {
            continue;
        };
        let (first, second) = match *gate {
            Gate::Cnot { control, target } => (control, Some(target)),
            Gate::Swap { a, b } => (a, Some(b)),
            Gate::OneQubit { qubit, .. } | Gate::Measure { qubit, .. } => (qubit, None),
            Gate::Barrier { .. } => continue,
        };
        for q in std::iter::once(first).chain(second) {
            let state = &mut states[q.index()];
            *state = state.mul(&iv);
        }
    }
    states
}

/// A link triggers [`LintCode::DominantWeakLink`] when it carries more
/// than this share of the circuit's two-qubit failure weight…
const DOMINANCE_SHARE: f64 = 0.4;

/// …and its error rate is at least this multiple of the device mean.
const DOMINANCE_ERROR_RATIO: f64 = 2.0;

/// [`LintCode::LowEspBound`] fires when the optimistic bound `hi` drops
/// below this floor.
const ESP_FLOOR: f64 = 0.05;

/// The ESP reliability pass: computes the whole-circuit bound plus the
/// link attribution and emits [`QV301`]/[`QV302`] findings.
///
/// [`QV301`]: LintCode::DominantWeakLink
/// [`QV302`]: LintCode::LowEspBound
#[derive(Debug, Clone, Default)]
pub struct EspReliability {
    config: EspConfig,
}

impl EspReliability {
    /// The pass under a specific drift configuration.
    pub fn with_config(config: EspConfig) -> Self {
        EspReliability { config }
    }
}

/// Per-link failure-weight attribution of a routed circuit: for every
/// coupling link used by the circuit, the accumulated failure weight
/// `Σ −ln(1 − e)` (a SWAP charges three CNOT-equivalents) and the use
/// count in CNOT-equivalents.
///
/// Sorted heaviest first (ties by link id), so `[0]` is the weakest
/// link of the compiled circuit.
pub fn link_attribution(device: &Device, circuit: &Circuit<PhysQubit>) -> Vec<LinkAttribution> {
    let topo = device.topology();
    let mut uses = vec![0u64; topo.num_links()];
    for gate in circuit.iter() {
        let (pair, cost) = match gate {
            Gate::Cnot { control, target } => ((*control, *target), 1),
            Gate::Swap { a, b } => ((*a, *b), 3),
            _ => continue,
        };
        if let Some(id) = device.active_link_id(pair.0, pair.1) {
            uses[id] += cost;
        }
    }
    let mut rows: Vec<LinkAttribution> = uses
        .iter()
        .enumerate()
        .filter(|&(_, &u)| u > 0)
        .map(|(id, &u)| {
            let link = topo.links()[id];
            let e = device.calibration().two_qubit_error(id);
            LinkAttribution {
                link_id: id,
                a: link.low(),
                b: link.high(),
                uses: u,
                error: e,
                weight: u as f64 * device.cnot_weight(id),
            }
        })
        .collect();
    rows.sort_by(|x, y| y.weight.total_cmp(&x.weight).then(x.link_id.cmp(&y.link_id)));
    rows
}

/// One row of the link attribution table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkAttribution {
    /// The topology link id.
    pub link_id: usize,
    /// Lower-numbered endpoint.
    pub a: PhysQubit,
    /// Higher-numbered endpoint.
    pub b: PhysQubit,
    /// CNOT-equivalent uses (a SWAP counts three).
    pub uses: u64,
    /// The link's calibrated two-qubit error rate.
    pub error: f64,
    /// Accumulated failure weight `uses · −ln(1 − e)`.
    pub weight: f64,
}

impl CompiledPass for EspReliability {
    fn name(&self) -> &'static str {
        "esp-reliability"
    }

    fn codes(&self) -> &'static [LintCode] {
        &[LintCode::LowEspBound, LintCode::DominantWeakLink]
    }

    fn run(&self, cx: &CompiledContext<'_>, out: &mut Vec<Diagnostic>) {
        let circuit = cx.compiled.physical();
        let esp = esp_interval(cx.device, circuit, &self.config);
        if esp.hi < ESP_FLOOR {
            out.push(Diagnostic::new(
                LintCode::LowEspBound,
                None,
                format!(
                    "static ESP is at most {:.4} (point {:.4}, floor {}): trials are mostly noise",
                    esp.hi, esp.point, ESP_FLOOR
                ),
            ));
        }

        let links = link_attribution(cx.device, circuit);
        let total: f64 = links.iter().map(|l| l.weight).sum();
        if let Some(top) = links.first() {
            let share = if total > 0.0 { top.weight / total } else { 0.0 };
            let mean = cx.device.calibration().mean_two_qubit_error();
            if share > DOMINANCE_SHARE && mean > 0.0 && top.error >= DOMINANCE_ERROR_RATIO * mean {
                out.push(Diagnostic::new(
                    LintCode::DominantWeakLink,
                    None,
                    format!(
                        "link {}\u{2013}{} (error {:.4}, {:.1}x device mean) carries {:.0}% of the \
                         circuit's two-qubit failure weight",
                        top.a,
                        top.b,
                        top.error,
                        top.error / mean,
                        100.0 * share
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quva_circuit::Cbit;
    use quva_device::{Calibration, Topology};

    fn device(e2q: f64, e1q: f64, ero: f64) -> Device {
        Device::new(Topology::linear(3), |t| Calibration::uniform(t, e2q, e1q, ero))
    }

    fn bell() -> Circuit<PhysQubit> {
        let mut c: Circuit<PhysQubit> = Circuit::with_cbits(3, 2);
        c.h(PhysQubit(0));
        c.cnot(PhysQubit(0), PhysQubit(1));
        c.measure(PhysQubit(0), Cbit(0));
        c.measure(PhysQubit(1), Cbit(1));
        c
    }

    #[test]
    fn point_matches_profile_product() {
        let dev = device(0.1, 0.01, 0.02);
        let esp = esp_interval(&dev, &bell(), &EspConfig::default());
        let expected = 0.99 * 0.9 * 0.98 * 0.98;
        assert!((esp.point - expected).abs() < 1e-12, "{esp:?}");
        assert!(esp.lo <= esp.point && esp.point <= esp.hi);
    }

    #[test]
    fn zero_drift_collapses_interval() {
        let dev = device(0.1, 0.01, 0.02);
        let esp = esp_interval(&dev, &bell(), &EspConfig { drift: 0.0 });
        assert_eq!(esp.lo.to_bits(), esp.point.to_bits());
        assert_eq!(esp.hi.to_bits(), esp.point.to_bits());
    }

    #[test]
    fn wider_drift_widens_interval() {
        let dev = device(0.1, 0.01, 0.02);
        let narrow = esp_interval(&dev, &bell(), &EspConfig { drift: 0.05 });
        let wide = esp_interval(&dev, &bell(), &EspConfig { drift: 0.2 });
        assert!(wide.lo < narrow.lo && wide.hi > narrow.hi);
        assert_eq!(wide.point.to_bits(), narrow.point.to_bits());
    }

    #[test]
    fn swap_charges_three_cnots() {
        let dev = device(0.1, 0.0, 0.0);
        let mut c: Circuit<PhysQubit> = Circuit::new(3);
        c.swap(PhysQubit(0), PhysQubit(1));
        let esp = esp_interval(&dev, &c, &EspConfig { drift: 0.0 });
        assert!((esp.point - 0.9f64.powi(3)).abs() < 1e-12);
    }

    #[test]
    fn per_qubit_states_charge_both_operands() {
        let dev = device(0.1, 0.0, 0.0);
        let mut c: Circuit<PhysQubit> = Circuit::new(3);
        c.cnot(PhysQubit(0), PhysQubit(1));
        let states = per_qubit_esp(&dev, &c, &EspConfig { drift: 0.0 });
        assert!((states[0].point - 0.9).abs() < 1e-12);
        assert!((states[1].point - 0.9).abs() < 1e-12);
        assert_eq!(states[2], EspInterval::one(), "untouched qubit stays at one");
    }

    #[test]
    fn barriers_are_identity() {
        // one-qubit ops cost 1 %, so a charged barrier would show
        let dev = device(0.1, 0.01, 0.0);
        let mut c: Circuit<PhysQubit> = Circuit::new(3);
        c.h(PhysQubit(0));
        c.barrier_all();
        c.h(PhysQubit(0));
        let states = per_qubit_esp(&dev, &c, &EspConfig { drift: 0.0 });
        assert!((states[0].point - 0.99 * 0.99).abs() < 1e-12, "{states:?}");
        assert_eq!(states[1], EspInterval::one());
        assert_eq!(states[2], EspInterval::one());
    }

    #[test]
    fn device_wider_than_circuit_keeps_boundary_states() {
        let dev = device(0.1, 0.01, 0.0);
        let mut c: Circuit<PhysQubit> = Circuit::new(2);
        c.cnot(PhysQubit(0), PhysQubit(1));
        let states = per_qubit_esp(&dev, &c, &EspConfig { drift: 0.0 });
        assert_eq!(states.len(), 3, "one state per device qubit");
        assert!((states[0].point - 0.9).abs() < 1e-12);
        assert!((states[1].point - 0.9).abs() < 1e-12);
        assert_eq!(states[2], EspInterval::one(), "outside qubit stays at one");
    }

    #[test]
    fn empty_circuit_is_all_boundary() {
        let dev = device(0.1, 0.01, 0.02);
        let states = per_qubit_esp(&dev, &Circuit::new(3), &EspConfig::default());
        assert_eq!(states, vec![EspInterval::one(); 3]);
    }

    #[test]
    fn link_attribution_ranks_weak_links_first() {
        let topo = Topology::linear(3);
        let dev = Device::new(topo, |t| {
            let mut c = Calibration::uniform(t, 0.02, 0.0, 0.0);
            c.set_two_qubit_error(1, 0.3); // link 1–2 is terrible
            c
        });
        let mut c: Circuit<PhysQubit> = Circuit::new(3);
        c.cnot(PhysQubit(0), PhysQubit(1));
        c.cnot(PhysQubit(1), PhysQubit(2));
        let rows = link_attribution(&dev, &c);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].link_id, 1, "weakest link must rank first");
        assert!(rows[0].weight > rows[1].weight);
        assert_eq!(rows[0].uses, 1);
    }

    #[test]
    fn dominant_weak_link_fires_on_corruption() {
        use quva_circuit::Qubit;
        let topo = Topology::linear(4);
        let dev = Device::new(topo, |t| {
            let mut c = Calibration::uniform(t, 0.02, 0.0, 0.0);
            c.set_two_qubit_error(1, 0.4);
            c
        });
        let mut source = Circuit::new(4);
        source.cnot(Qubit(0), Qubit(1));
        source.cnot(Qubit(1), Qubit(2));
        source.cnot(Qubit(2), Qubit(3));
        let mut physical: Circuit<PhysQubit> = Circuit::new(4);
        physical.cnot(PhysQubit(0), PhysQubit(1));
        physical.cnot(PhysQubit(1), PhysQubit(2));
        physical.cnot(PhysQubit(2), PhysQubit(3));
        let mapping = quva::Mapping::identity(4, 4);
        let compiled = quva::CompiledCircuit::from_parts(physical, mapping.clone(), mapping, 0);
        let cx = CompiledContext {
            source: &source,
            device: &dev,
            compiled: &compiled,
        };
        let mut out = Vec::new();
        EspReliability::default().run(&cx, &mut out);
        assert!(
            out.iter().any(|d| d.code() == LintCode::DominantWeakLink),
            "{out:?}"
        );
    }

    #[test]
    fn low_esp_bound_fires_on_hopeless_circuit() {
        let dev = device(0.3, 0.0, 0.0);
        let mut source = Circuit::new(2);
        let mut physical: Circuit<PhysQubit> = Circuit::new(3);
        for _ in 0..10 {
            source.cnot(quva_circuit::Qubit(0), quva_circuit::Qubit(1));
            physical.cnot(PhysQubit(0), PhysQubit(1));
        }
        let mapping = quva::Mapping::identity(2, 3);
        let compiled = quva::CompiledCircuit::from_parts(physical, mapping.clone(), mapping, 0);
        let cx = CompiledContext {
            source: &source,
            device: &dev,
            compiled: &compiled,
        };
        let mut out = Vec::new();
        EspReliability::default().run(&cx, &mut out);
        assert!(out.iter().any(|d| d.code() == LintCode::LowEspBound), "{out:?}");
    }
}
