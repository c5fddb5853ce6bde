//! The end-to-end mapping pipeline: allocate, then route layer by
//! layer, emitting a physical circuit.

use std::error::Error;
use std::fmt;

use quva_circuit::{Circuit, Gate, Layers, PhysQubit, Qubit};
use quva_device::{Device, ReliabilityMatrix};
use quva_sim::{analytic_pst, CoherenceModel, PstReport, SimError};

use crate::allocator::AllocationStrategy;
use crate::mapping::Mapping;
use crate::router::RoutingMetric;

/// A complete mapping policy: an allocation strategy plus a routing
/// metric. The paper's four policies are provided as constructors.
///
/// # Examples
///
/// ```
/// use quva::MappingPolicy;
/// use quva_device::Device;
/// use quva_benchmarks::bv;
///
/// # fn main() -> Result<(), quva::CompileError> {
/// let device = Device::ibm_q20();
/// let program = bv(16);
/// let compiled = MappingPolicy::vqa_vqm().compile(&program, &device)?;
/// assert!(compiled.physical().two_qubit_gate_count() >= program.two_qubit_gate_count());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MappingPolicy {
    /// Initial placement strategy.
    pub allocation: AllocationStrategy,
    /// Movement cost metric.
    pub routing: RoutingMetric,
}

impl MappingPolicy {
    /// The variation-unaware baseline (§4.5): greedy interaction
    /// placement + minimum-SWAP routing.
    pub fn baseline() -> Self {
        MappingPolicy {
            allocation: AllocationStrategy::GreedyInteraction,
            routing: RoutingMetric::Hops,
        }
    }

    /// VQM (§5): baseline allocation, reliability-optimal movement.
    pub fn vqm() -> Self {
        MappingPolicy {
            allocation: AllocationStrategy::GreedyInteraction,
            routing: RoutingMetric::reliability(),
        }
    }

    /// Hop-limited VQM with the paper's MAH = 4 (§5.3).
    pub fn vqm_hop_limited() -> Self {
        MappingPolicy {
            allocation: AllocationStrategy::GreedyInteraction,
            routing: RoutingMetric::reliability_hop_limited(),
        }
    }

    /// VQA + VQM (§6): strongest-subgraph allocation, reliability
    /// movement — the paper's headline policy.
    pub fn vqa_vqm() -> Self {
        MappingPolicy {
            allocation: AllocationStrategy::vqa(),
            routing: RoutingMetric::reliability(),
        }
    }

    /// The IBM-native-compiler stand-in (§6.4): seeded random
    /// allocation, minimum-SWAP routing.
    pub fn native(seed: u64) -> Self {
        MappingPolicy {
            allocation: AllocationStrategy::Random { seed },
            routing: RoutingMetric::Hops,
        }
    }

    /// A short display name for tables.
    pub fn name(&self) -> String {
        match (self.allocation, self.routing) {
            (AllocationStrategy::Random { .. }, _) => "native".into(),
            (AllocationStrategy::GreedyInteraction, RoutingMetric::Hops) => "baseline".into(),
            (
                AllocationStrategy::GreedyInteraction,
                RoutingMetric::Reliability {
                    max_additional_hops: None,
                    ..
                },
            ) => "VQM".into(),
            (
                AllocationStrategy::GreedyInteraction,
                RoutingMetric::Reliability {
                    max_additional_hops: Some(m),
                    ..
                },
            ) => {
                format!("VQM(MAH={m})")
            }
            (AllocationStrategy::StrongestSubgraph { .. }, RoutingMetric::Hops) => "VQA".into(),
            (AllocationStrategy::StrongestSubgraph { .. }, RoutingMetric::Reliability { .. }) => {
                "VQA+VQM".into()
            }
        }
    }

    /// Compiles a program circuit into a routed physical circuit.
    ///
    /// The strongest-subgraph (VQA) allocation is a *restriction* of the
    /// placement space, so the compiler treats it as a portfolio: it
    /// also routes the unrestricted interaction-greedy placement and
    /// keeps whichever compiled circuit the analytic gate-error model
    /// predicts to be more reliable. This realizes the paper's Fig. 13
    /// property that VQA+VQM never falls below VQM alone.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] when the program does not fit the device
    /// or a required movement is impossible — the topology is
    /// disconnected outright, or disabled links split it into pieces
    /// too small or too far apart. Dead links never panic the pipeline.
    pub fn compile(&self, circuit: &Circuit, device: &Device) -> Result<CompiledCircuit, CompileError> {
        self.compile_with(circuit, device, &CompileOptions::default())
    }

    /// Like [`MappingPolicy::compile`], with explicit [`CompileOptions`].
    ///
    /// This is now a thin front over the pass pipeline: the policy is
    /// expressed as [`crate::pipeline::Pipeline::for_policy_with`],
    /// contract-validated, and run. Standard policy pipelines always
    /// validate; verification — when [`CompileOptions::verify`] is set —
    /// is a pipeline pass that runs exactly once, on the finally chosen
    /// circuit (after VQA portfolio selection). A finding surfaces as
    /// [`CompileError::Verification`].
    ///
    /// # Errors
    ///
    /// Everything [`MappingPolicy::compile`] returns, plus
    /// [`CompileError::Verification`] when the audit rejects the output.
    pub fn compile_with(
        &self,
        circuit: &Circuit,
        device: &Device,
        options: &CompileOptions<'_>,
    ) -> Result<CompiledCircuit, CompileError> {
        let _total = quva_obs::span("compile", "compile.total");
        crate::pipeline::Pipeline::for_policy_with(self, options.verify).compile(circuit, device)
    }

    /// Compiles with the *plan-based* router instead of the default
    /// stepwise lookahead router: each separated two-qubit gate gets a
    /// whole SWAP chain from [`crate::Router::plan`] at once, with no
    /// lookahead over future gates. Kept as the architecture ablation —
    /// the stepwise router exists because this variant's trajectories
    /// are chaotic on dense workloads (see DESIGN.md).
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] when the program does not fit the device
    /// or a required movement is impossible.
    pub fn compile_plan_based(
        &self,
        circuit: &Circuit,
        device: &Device,
    ) -> Result<CompiledCircuit, CompileError> {
        let mut mapping = self
            .allocation
            .allocate(circuit, device)
            .map_err(CompileError::Allocation)?;
        let router = crate::router::Router::new(device, self.routing);
        let initial = mapping.clone();
        let mut out: Circuit<PhysQubit> =
            Circuit::with_cbits(device.num_qubits(), circuit.num_cbits().max(1));
        let mut inserted = 0usize;

        let layers = Layers::of(circuit);
        for li in 0..layers.len() {
            for &gi in layers.layer(li) {
                match &circuit.gates()[gi] {
                    Gate::OneQubit { kind, qubit } => {
                        out.one(*kind, mapping.phys_of(*qubit));
                    }
                    Gate::Measure { qubit, cbit } => {
                        out.measure(mapping.phys_of(*qubit), *cbit);
                    }
                    Gate::Barrier { qubits } => {
                        let mapped = qubits.iter().map(|&q| mapping.phys_of(q)).collect();
                        out.push(Gate::Barrier { qubits: mapped });
                    }
                    Gate::Cnot {
                        control: a,
                        target: b,
                    }
                    | Gate::Swap { a, b } => {
                        let (pa, pb) = (mapping.phys_of(*a), mapping.phys_of(*b));
                        if !device.has_active_link(pa, pb) {
                            let plan = router
                                .plan(pa, pb)
                                .map_err(|_| CompileError::Disconnected { a: *a, b: *b })?;
                            for (u, v) in plan.swaps() {
                                out.swap(u, v);
                                mapping.apply_swap(u, v);
                                inserted += 1;
                            }
                        }
                        let (pa, pb) = (mapping.phys_of(*a), mapping.phys_of(*b));
                        match &circuit.gates()[gi] {
                            Gate::Cnot { .. } => {
                                out.cnot(pa, pb);
                            }
                            _ => {
                                out.swap(pa, pb);
                            }
                        }
                    }
                }
            }
        }
        Ok(CompiledCircuit {
            physical: out,
            initial,
            final_mapping: mapping,
            inserted_swaps: inserted,
        })
    }
}

/// A post-compile audit over the compiler's chosen output.
///
/// Defined here so `quva` never depends on the analysis machinery
/// (dependency inversion): `quva-analysis::Verifier` implements this
/// trait, and callers thread it in through [`CompileOptions::verify`].
///
/// An audit only decides accept or reject, so it may skip checks that
/// can never reject: `Verifier` runs only its passes that can report
/// an error here, and leaves the warning-only passes to `verify`,
/// `lint` and `audit`.
///
/// `Sync` is a supertrait so a verify pass holding an auditor keeps
/// checked pipelines shareable across threads (`quvad` caches them).
pub trait CompileAudit: Sync {
    /// Audits `compiled` against its source program and target device.
    ///
    /// # Errors
    ///
    /// A human-readable description of the findings of the checks that
    /// ran; it fails the compile as [`CompileError::Verification`].
    fn audit(&self, source: &Circuit, device: &Device, compiled: &CompiledCircuit) -> Result<(), String>;
}

/// Options for [`MappingPolicy::compile_with`].
#[derive(Default)]
pub struct CompileOptions<'a> {
    /// Post-compile audit to run on the chosen output, if any.
    pub verify: Option<&'a dyn CompileAudit>,
}

impl fmt::Debug for CompileOptions<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompileOptions")
            .field("verify", &self.verify.is_some())
            .finish()
    }
}

/// Error produced when compilation fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// Initial allocation failed (program larger than device, ...).
    Allocation(String),
    /// Two program qubits must interact but their physical locations
    /// are disconnected.
    Disconnected {
        /// First program qubit.
        a: Qubit,
        /// Second program qubit.
        b: Qubit,
    },
    /// The post-compile audit rejected the output; the string is the
    /// auditor's rendered report.
    Verification(String),
    /// The pass pipeline was rejected by the static contract checker
    /// before any pass executed.
    Contract(crate::pipeline::ContractError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Allocation(msg) => write!(f, "allocation failed: {msg}"),
            CompileError::Disconnected { a, b } => {
                write!(f, "program qubits {a} and {b} sit on disconnected device regions")
            }
            CompileError::Verification(report) => {
                write!(f, "compiled output failed verification:\n{report}")
            }
            CompileError::Contract(err) => write!(f, "{err}"),
        }
    }
}

impl Error for CompileError {}

/// The output of compilation: a hardware-level circuit plus the mapping
/// bookkeeping needed to interpret it.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledCircuit {
    physical: Circuit<PhysQubit>,
    initial: Mapping,
    final_mapping: Mapping,
    inserted_swaps: usize,
}

impl CompiledCircuit {
    /// Assembles a compiled circuit from raw parts.
    ///
    /// No invariant is checked here — the parts are *trusted*, exactly
    /// like the compiler's own output. `quva-analysis` exists to audit
    /// them; this constructor is the interop/test seam that lets a
    /// verifier be pointed at hand-built (or deliberately corrupted)
    /// outputs.
    pub fn from_parts(
        physical: Circuit<PhysQubit>,
        initial: Mapping,
        final_mapping: Mapping,
        inserted_swaps: usize,
    ) -> Self {
        CompiledCircuit {
            physical,
            initial,
            final_mapping,
            inserted_swaps,
        }
    }

    /// The routed physical circuit (every two-qubit gate on a coupling
    /// link).
    pub fn physical(&self) -> &Circuit<PhysQubit> {
        &self.physical
    }

    /// Where each program qubit started.
    pub fn initial_mapping(&self) -> &Mapping {
        &self.initial
    }

    /// Where each program qubit ended up.
    pub fn final_mapping(&self) -> &Mapping {
        &self.final_mapping
    }

    /// Number of SWAPs the router inserted (excludes SWAPs present in
    /// the source program).
    pub fn inserted_swaps(&self) -> usize {
        self.inserted_swaps
    }

    /// Analytic PST of the compiled circuit on `device`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the circuit does not fit `device` (e.g.
    /// it was compiled for a different machine).
    pub fn analytic_pst(&self, device: &Device, coherence: CoherenceModel) -> Result<PstReport, SimError> {
        analytic_pst(device, &self.physical, coherence)
    }

    /// Per-link utilization in physical CNOT-equivalents (a SWAP counts
    /// as 3): index i = link id of `device.topology().links()[i]`.
    /// Gates on pairs absent from the device, or on *disabled* links, are
    /// skipped here — such gates are illegal output, and it is the
    /// verifier's job (`quva-analysis`, QV001/QV002) to flag them, not
    /// this profile's to silently fold them into utilization.
    ///
    /// The core claim of the paper — variation-aware policies *steer
    /// traffic away from weak links* — is directly observable in this
    /// profile (see the `vqm_shifts_traffic_off_weak_links` test).
    pub fn link_utilization(&self, device: &Device) -> Vec<usize> {
        let topo = device.topology();
        let mut use_count = vec![0usize; topo.num_links()];
        for gate in &self.physical {
            if let Gate::Cnot {
                control: a,
                target: b,
            }
            | Gate::Swap { a, b } = gate
            {
                if let Some(id) = device.active_link_id(*a, *b) {
                    use_count[id] += gate.cnot_cost();
                }
            }
        }
        use_count
    }

    /// The utilization-weighted mean link error of the compiled
    /// circuit: the average two-qubit error rate actually *experienced*
    /// per CNOT-equivalent. Lower is better; variation-aware policies
    /// push this below the device's plain mean.
    pub fn experienced_link_error(&self, device: &Device) -> f64 {
        let usage = self.link_utilization(device);
        let total: usize = usage.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let cal = device.calibration();
        usage
            .iter()
            .enumerate()
            .map(|(id, &u)| u as f64 * cal.two_qubit_error(id))
            .sum::<f64>()
            / total as f64
    }
}

/// How many upcoming two-qubit gates the router's lookahead inspects.
const LOOKAHEAD_WINDOW: usize = 16;
/// Relative weight of the lookahead term against the current gate.
const LOOKAHEAD_WEIGHT: f64 = 0.5;

/// The metric distance table between physical locations — expected
/// failure weight (reliability) or SWAP count (hops) to bring them
/// together — borrowed from the device, which builds it once.
///
/// Every reliability weight is finite and non-negative: a calibration
/// stores 2Q errors in `[0, 1)` and the SWAP weight clamps the success
/// at `f64::MIN_POSITIVE`, so `ReliabilityMatrix::of_active`'s
/// assertion never fires on a device's table.
fn metric_distances(device: &Device, metric: RoutingMetric) -> &ReliabilityMatrix {
    match metric {
        RoutingMetric::Reliability { .. } => device.swap_distances(),
        RoutingMetric::Hops => device.unit_distances(),
    }
}

/// The routing order shared by every candidate of a portfolio: gates
/// flattened in layer order, the positions of two-qubit gates (feeding
/// the lookahead), and per-layer position bounds so the portfolio
/// router can extend candidates one layer at a time.
pub(crate) struct RouteBase {
    /// Gate indices in layer order.
    pub(crate) order: Vec<usize>,
    /// Positions (into `order`) of the two-qubit gates.
    pub(crate) two_qubit_positions: Vec<usize>,
    /// Per position, the count of two-qubit gates at positions `<=`
    /// it: the lookahead starts at `two_qubit_positions[rank_2q[pos]]`.
    pub(crate) rank_2q: Vec<usize>,
    /// Half-open `(start, end)` position ranges, one per circuit layer.
    pub(crate) layer_bounds: Vec<(usize, usize)>,
}

impl RouteBase {
    pub(crate) fn of(circuit: &Circuit) -> Self {
        let layers = Layers::of(circuit);
        let mut order = Vec::new();
        let mut layer_bounds = Vec::with_capacity(layers.len());
        for li in 0..layers.len() {
            let start = order.len();
            order.extend_from_slice(layers.layer(li));
            layer_bounds.push((start, order.len()));
        }
        let two_qubit_positions: Vec<usize> = (0..order.len())
            .filter(|&i| circuit.gates()[order[i]].is_two_qubit())
            .collect();
        let mut rank_2q = vec![0usize; order.len()];
        let mut rank = 0usize;
        for (pos, &gi) in order.iter().enumerate() {
            if circuit.gates()[gi].is_two_qubit() {
                rank += 1;
            }
            rank_2q[pos] = rank;
        }
        RouteBase {
            order,
            two_qubit_positions,
            rank_2q,
            layer_bounds,
        }
    }
}

/// Routes the positions in `range` (indices into `base.order`) onto
/// `out`, advancing `mapping` and `inserted` — the stepwise routing
/// step shared by [`route`] (whole circuit at once) and the portfolio
/// router (layer by layer per candidate).
#[allow(clippy::too_many_arguments)]
pub(crate) fn route_positions(
    circuit: &Circuit,
    device: &Device,
    metric: RoutingMetric,
    excess_router: Option<&crate::router::Router<'_>>,
    base: &RouteBase,
    range: std::ops::Range<usize>,
    mapping: &mut Mapping,
    out: &mut Circuit<PhysQubit>,
    inserted: &mut usize,
) -> Result<(), CompileError> {
    for pos in range {
        let gi = base.order[pos];
        let gate = &circuit.gates()[gi];
        match gate {
            Gate::OneQubit { kind, qubit } => {
                out.one(*kind, mapping.phys_of(*qubit));
            }
            Gate::Measure { qubit, cbit } => {
                out.measure(mapping.phys_of(*qubit), *cbit);
            }
            Gate::Barrier { qubits } => {
                let mapped = qubits.iter().map(|&q| mapping.phys_of(q)).collect();
                out.push(Gate::Barrier { qubits: mapped });
            }
            Gate::Cnot {
                control: a,
                target: b,
            }
            | Gate::Swap { a, b } => {
                debug_assert!(pos < base.order.len());
                let upcoming: Vec<(Qubit, Qubit)> = base.two_qubit_positions[base.rank_2q[pos]..]
                    .iter()
                    .take(LOOKAHEAD_WINDOW)
                    .map(|&i| {
                        let qs = circuit.gates()[base.order[i]].qubits();
                        (qs[0], qs[1])
                    })
                    .collect();
                let start_len = out.gates().len();
                let start_locs = (mapping.phys_of(*a), mapping.phys_of(*b));
                bring_together(device, metric, mapping, out, inserted, *a, *b, &upcoming)?;
                let (pa, pb) = (mapping.phys_of(*a), mapping.phys_of(*b));
                match gate {
                    Gate::Cnot { .. } => {
                        out.cnot(pa, pb);
                    }
                    // a SWAP demanded by the source program executes
                    // physically; register contents exchange, homes stay
                    _ => {
                        out.swap(pa, pb);
                    }
                }
                if let Some(router) = excess_router {
                    if matches!(gate, Gate::Cnot { .. }) && start_locs.0 != start_locs.1 {
                        observe_excess_weight(device, router, start_locs, &out.gates()[start_len..]);
                    }
                }
            }
        }
    }
    Ok(())
}

/// Routes an allocated circuit with stepwise SWAP insertion: for each
/// two-qubit gate whose operands are separated, single SWAPs are chosen
/// one at a time by a score combining the metric's cost of the SWAP,
/// the remaining separation of the active pair, and a lookahead over
/// the next [`LOOKAHEAD_WINDOW`] two-qubit gates — the displacement of
/// bystander qubits is thereby accounted for instead of compounding
/// silently (the instability the paper's MAH heuristic also targets).
///
/// All distance matrices are built over the device's *active* coupling
/// graph: disabled links are never routed over, and a mapping split
/// across dead links surfaces as [`CompileError::Disconnected`].
pub(crate) fn route(
    circuit: &Circuit,
    device: &Device,
    mut mapping: Mapping,
    metric: RoutingMetric,
) -> Result<CompiledCircuit, CompileError> {
    let _route_span = quva_obs::span("compile", "compile.route");
    // chosen-vs-best bookkeeping: when tracing is on, each separated
    // CNOT's realized failure weight is compared against the plan-based
    // router's optimum for the same endpoints (negative excess means
    // the stepwise lookahead beat the single-gate plan)
    let excess_router = (quva_obs::enabled() && matches!(metric, RoutingMetric::Reliability { .. }))
        .then(|| crate::router::Router::new(device, metric));

    let initial = mapping.clone();
    let mut out: Circuit<PhysQubit> = Circuit::with_cbits(device.num_qubits(), circuit.num_cbits().max(1));
    let mut inserted = 0usize;

    let base = RouteBase::of(circuit);
    route_positions(
        circuit,
        device,
        metric,
        excess_router.as_ref(),
        &base,
        0..base.order.len(),
        &mut mapping,
        &mut out,
        &mut inserted,
    )?;

    quva_obs::counter("route.gates", base.two_qubit_positions.len() as u64);
    quva_obs::counter("route.swaps_inserted", inserted as u64);
    Ok(CompiledCircuit {
        physical: out,
        initial,
        final_mapping: mapping,
        inserted_swaps: inserted,
    })
}

/// Records how much failure weight the stepwise router's realized gate
/// sequence (`emitted`: inserted SWAPs plus the executed CNOT) spent
/// over the plan-based optimum for the same starting endpoints.
///
/// The value may be *negative*: the stepwise lookahead sometimes finds
/// a better meeting split than the plan's, and bounding it at zero
/// would hide exactly the signal this histogram exists to expose.
fn observe_excess_weight(
    device: &Device,
    router: &crate::router::Router<'_>,
    start: (PhysQubit, PhysQubit),
    emitted: &[Gate<PhysQubit>],
) {
    let Ok(plan) = router.plan(start.0, start.1) else {
        return;
    };
    let best = router.plan_failure_weight(&plan);
    let chosen: f64 = emitted
        .iter()
        .map(|g| match g {
            Gate::Swap { a, b } => device.swap_failure_weight(*a, *b).unwrap_or(f64::INFINITY),
            Gate::Cnot {
                control: a,
                target: b,
            } => device.cnot_failure_weight(*a, *b).unwrap_or(f64::INFINITY),
            _ => 0.0,
        })
        .sum();
    if chosen.is_finite() && best.is_finite() {
        quva_obs::observe("route.excess_weight", chosen - best);
    }
}

/// Inserts SWAPs one at a time until program qubits `a` and `b` sit on
/// coupled physical qubits.
#[allow(clippy::too_many_arguments)]
fn bring_together(
    device: &Device,
    metric: RoutingMetric,
    mapping: &mut Mapping,
    out: &mut Circuit<PhysQubit>,
    inserted: &mut usize,
    a: Qubit,
    b: Qubit,
    upcoming: &[(Qubit, Qubit)],
) -> Result<(), CompileError> {
    let hops = device.hop_matrix();
    let dist = metric_distances(device, metric);
    if hops.get(mapping.phys_of(a), mapping.phys_of(b)) == quva_device::UNREACHABLE_HOPS {
        return Err(CompileError::Disconnected { a, b });
    }
    let start_swaps = hops.swaps_needed(mapping.phys_of(a), mapping.phys_of(b)) as usize;
    // after this budget, fall back to strict hop descent (guaranteed
    // progress); MAH additionally caps the exploratory phase
    let explore_budget = match metric {
        RoutingMetric::Reliability {
            max_additional_hops: Some(mah),
            ..
        } => start_swaps + mah as usize,
        _ => start_swaps + 4,
    };
    let mut steps = 0usize;
    let mut last_swap: Option<(PhysQubit, PhysQubit)> = None;
    let mut candidates = 0u64;

    loop {
        let (pa, pb) = (mapping.phys_of(a), mapping.phys_of(b));
        if device.has_active_link(pa, pb) {
            quva_obs::counter("route.candidates", candidates);
            return Ok(());
        }
        let strict = steps >= explore_budget;

        // candidate swaps: active links incident to either active
        // location (SWAPs across dead links are impossible)
        let mut best: Option<(f64, (PhysQubit, PhysQubit))> = None;
        for &active in &[pa, pb] {
            for (nb, id) in device.active_neighbor_links(active) {
                let cand = (active, nb);
                candidates += 1;
                if last_swap == Some((cand.1, cand.0)) || last_swap == Some(cand) {
                    continue; // never undo the previous step
                }
                // positions after the candidate swap
                let move_pos = |p: PhysQubit| -> PhysQubit {
                    if p == cand.0 {
                        cand.1
                    } else if p == cand.1 {
                        cand.0
                    } else {
                        p
                    }
                };
                let (na, nbq) = (move_pos(pa), move_pos(pb));
                if strict && hops.get(na, nbq) >= hops.get(pa, pb) {
                    continue; // strict mode: only hop-descending swaps
                }
                let swap_cost = match metric {
                    RoutingMetric::Hops => 1.0,
                    RoutingMetric::Reliability { .. } => {
                        // a link with an unusable weight is never swapped over
                        match device.swap_weight(id) {
                            w if w.is_finite() => w,
                            _ => continue,
                        }
                    }
                };
                // remaining cost after this swap: the swap-weight
                // distance, except that with the meeting-edge extension
                // a landing edge is charged at its true execution cost
                // (1× the link weight instead of a SWAP's 3×)
                let remaining = match metric {
                    RoutingMetric::Reliability {
                        optimize_meeting_edge: true,
                        ..
                    } if device.has_active_link(na, nbq) => device
                        .cnot_failure_weight(na, nbq)
                        .unwrap_or_else(|| dist.get(na, nbq)),
                    _ => dist.get(na, nbq),
                };
                let mut score = swap_cost + remaining;
                if !upcoming.is_empty() {
                    let mut future = 0.0;
                    for &(fa, fb) in upcoming {
                        let (fa_p, fb_p) = (mapping.phys_of(fa), mapping.phys_of(fb));
                        future += dist.get(move_pos(fa_p), move_pos(fb_p));
                    }
                    score += LOOKAHEAD_WEIGHT * future / upcoming.len() as f64;
                }
                let better = match best {
                    None => true,
                    Some((bs, bc)) => score < bs - 1e-12 || (score < bs + 1e-12 && cand < bc),
                };
                if better {
                    best = Some((score, cand));
                }
            }
        }

        // a separated pair connected in the active graph always has a
        // candidate swap; anything else (e.g. every incident weight
        // unusable) degrades to a typed error instead of a panic
        let Some((_, (u, v))) = best else {
            quva_obs::counter("route.candidates", candidates);
            return Err(CompileError::Disconnected { a, b });
        };
        out.swap(u, v);
        mapping.apply_swap(u, v);
        *inserted += 1;
        last_swap = Some((u, v));
        steps += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quva_circuit::Cbit;
    use quva_device::{Calibration, Topology};

    fn uniform(topo: Topology, e: f64) -> Device {
        Device::new(topo, |t| Calibration::uniform(t, e, 0.001, 0.02))
    }

    fn long_cnot_program() -> Circuit {
        let mut c = Circuit::new(4);
        c.h(Qubit(0));
        c.cnot(Qubit(0), Qubit(3));
        c.measure(Qubit(3), Cbit(0));
        c
    }

    /// Every two-qubit gate of a compiled circuit must sit on a link.
    fn assert_routed(compiled: &CompiledCircuit, device: &Device) {
        for g in compiled.physical() {
            if let Gate::Cnot {
                control: a,
                target: b,
            }
            | Gate::Swap { a, b } = g
            {
                assert!(device.topology().has_link(*a, *b), "{g} not on a coupling link");
            }
        }
    }

    #[test]
    fn compile_produces_routed_circuit() {
        let dev = uniform(Topology::linear(4), 0.05);
        for policy in [
            MappingPolicy::baseline(),
            MappingPolicy::vqm(),
            MappingPolicy::vqm_hop_limited(),
            MappingPolicy::vqa_vqm(),
            MappingPolicy::native(3),
        ] {
            let compiled = policy.compile(&long_cnot_program(), &dev).unwrap();
            assert_routed(&compiled, &dev);
            assert_eq!(compiled.physical().cnot_count(), 1, "{}", policy.name());
        }
    }

    #[test]
    fn adjacent_cnot_needs_no_swaps() {
        let dev = uniform(Topology::linear(2), 0.05);
        let mut c = Circuit::new(2);
        c.cnot(Qubit(0), Qubit(1));
        let compiled = MappingPolicy::baseline().compile(&c, &dev).unwrap();
        assert_eq!(compiled.inserted_swaps(), 0);
        assert_eq!(compiled.physical().swap_count(), 0);
    }

    #[test]
    fn swap_chain_updates_mapping() {
        // on a line, allocation may already place q0 and q3 adjacent;
        // force the identity placement via the native policy with a
        // seed that yields identity? Instead test the mapping algebra
        // directly: compile and check measurements land correctly.
        let dev = uniform(Topology::linear(4), 0.05);
        let compiled = MappingPolicy::baseline()
            .compile(&long_cnot_program(), &dev)
            .unwrap();
        // the measured physical qubit must be q3's final home
        let measured = compiled
            .physical()
            .iter()
            .find_map(|g| match g {
                Gate::Measure { qubit, .. } => Some(*qubit),
                _ => None,
            })
            .unwrap();
        assert_eq!(measured, compiled.final_mapping().phys_of(Qubit(3)));
    }

    #[test]
    fn program_swaps_execute_physically() {
        let dev = uniform(Topology::linear(3), 0.05);
        let mut c = Circuit::new(3);
        c.swap(Qubit(0), Qubit(1));
        let compiled = MappingPolicy::baseline().compile(&c, &dev).unwrap();
        assert_eq!(compiled.physical().swap_count(), 1);
        assert_eq!(compiled.inserted_swaps(), 0);
    }

    #[test]
    fn vqm_avoids_weak_link_at_cost_of_swaps() {
        // ring with a weak arc between the allocated qubits
        let topo = Topology::ring(5);
        let dev = Device::new(topo, |t| {
            let mut cal = Calibration::uniform(t, 0.02, 0.0, 0.0);
            cal.set_two_qubit_error(0, 0.45); // 0-1
            cal.set_two_qubit_error(1, 0.45); // 1-2
            cal
        });
        let mut c = Circuit::new(5);
        // identity-friendly: touch all qubits so allocation is full
        for i in 0..5u32 {
            c.h(Qubit(i));
        }
        c.cnot(Qubit(0), Qubit(2));
        let base = MappingPolicy::native(0).compile(&c, &dev).unwrap();
        let vqm = MappingPolicy {
            allocation: AllocationStrategy::Random { seed: 0 },
            routing: RoutingMetric::reliability(),
        }
        .compile(&c, &dev)
        .unwrap();
        let pst_base = base.analytic_pst(&dev, CoherenceModel::Disabled).unwrap().pst;
        let pst_vqm = vqm.analytic_pst(&dev, CoherenceModel::Disabled).unwrap().pst;
        assert!(
            pst_vqm >= pst_base,
            "VQM PST {pst_vqm} must not lose to baseline {pst_base} with identical allocation"
        );
    }

    #[test]
    fn disconnected_device_reports_error() {
        let dev = uniform(Topology::from_links("split", 4, [(0, 1), (2, 3)]), 0.05);
        let mut c = Circuit::new(4);
        c.h(Qubit(0)).h(Qubit(1)).h(Qubit(2)).h(Qubit(3));
        c.cnot(Qubit(0), Qubit(3));
        // random placement may or may not split the pair; try seeds until
        // the pair lands on different components to exercise the error
        let mut saw_error = false;
        for seed in 0..16 {
            match MappingPolicy::native(seed).compile(&c, &dev) {
                Err(CompileError::Disconnected { .. }) => {
                    saw_error = true;
                    break;
                }
                Ok(compiled) => assert_routed(&compiled, &dev),
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(saw_error, "no seed exercised the disconnected path");
    }

    #[test]
    fn dead_links_split_yields_error_not_panic() {
        // a 2x3 grid split in half by disabling the three rung links
        let topo = Topology::grid(2, 3);
        let dev = uniform(topo, 0.05).with_disabled_links([
            (PhysQubit(0), PhysQubit(3)),
            (PhysQubit(1), PhysQubit(4)),
            (PhysQubit(2), PhysQubit(5)),
        ]);
        // a 6-qubit CNOT chain: any placement over two 3-qubit
        // components leaves at least one chain edge crossing the split
        let mut c = Circuit::new(6);
        for i in 0..5u32 {
            c.cnot(Qubit(i), Qubit(i + 1));
        }
        for policy in [
            MappingPolicy::baseline(),
            MappingPolicy::vqm(),
            MappingPolicy::vqm_hop_limited(),
            MappingPolicy::vqa_vqm(),
            MappingPolicy::native(1),
        ] {
            let err = policy.compile(&c, &dev).unwrap_err();
            assert!(
                matches!(
                    err,
                    CompileError::Disconnected { .. } | CompileError::Allocation(_)
                ),
                "{}: {err}",
                policy.name()
            );
        }
        let err = MappingPolicy::baseline()
            .compile_plan_based(&c, &dev)
            .unwrap_err();
        assert!(matches!(err, CompileError::Disconnected { .. }));
    }

    #[test]
    fn compile_routes_around_dead_link() {
        // ring stays connected with one dead link; every policy must
        // still produce a fully routed circuit avoiding it
        let dead = (PhysQubit(0), PhysQubit(1));
        let dev = uniform(Topology::ring(5), 0.05).with_disabled_links([dead]);
        let mut c = Circuit::new(5);
        for i in 0..5u32 {
            c.h(Qubit(i));
        }
        c.cnot(Qubit(0), Qubit(1));
        c.cnot(Qubit(2), Qubit(4));
        for policy in [
            MappingPolicy::baseline(),
            MappingPolicy::vqm(),
            MappingPolicy::vqa_vqm(),
        ] {
            let compiled = policy.compile(&c, &dev).unwrap();
            for g in compiled.physical() {
                if let Gate::Cnot {
                    control: a,
                    target: b,
                }
                | Gate::Swap { a, b } = g
                {
                    assert!(
                        dev.has_active_link(*a, *b),
                        "{}: {g} uses a dead link",
                        policy.name()
                    );
                }
            }
        }
    }

    #[test]
    fn plan_based_compile_is_routed_and_consistent() {
        let dev = uniform(Topology::linear(4), 0.05);
        for policy in [MappingPolicy::baseline(), MappingPolicy::vqm()] {
            let compiled = policy.compile_plan_based(&long_cnot_program(), &dev).unwrap();
            assert_routed(&compiled, &dev);
            assert_eq!(compiled.physical().cnot_count(), 1);
            // mapping bookkeeping holds
            let measured = compiled
                .physical()
                .iter()
                .find_map(|g| match g {
                    Gate::Measure { qubit, .. } => Some(*qubit),
                    _ => None,
                })
                .unwrap();
            assert_eq!(measured, compiled.final_mapping().phys_of(Qubit(3)));
        }
    }

    #[test]
    fn policy_names() {
        assert_eq!(MappingPolicy::baseline().name(), "baseline");
        assert_eq!(MappingPolicy::vqm().name(), "VQM");
        assert_eq!(MappingPolicy::vqm_hop_limited().name(), "VQM(MAH=4)");
        assert_eq!(MappingPolicy::vqa_vqm().name(), "VQA+VQM");
        assert_eq!(MappingPolicy::native(7).name(), "native");
    }

    #[test]
    fn oversized_program_is_allocation_error() {
        let dev = uniform(Topology::linear(3), 0.05);
        let c = Circuit::new(5);
        let err = MappingPolicy::baseline().compile(&c, &dev).unwrap_err();
        assert!(matches!(err, CompileError::Allocation(_)));
        assert!(err.to_string().contains("allocation failed"));
    }

    #[test]
    fn link_utilization_skips_disabled_links() {
        let mut phys: Circuit<PhysQubit> = Circuit::with_cbits(3, 3);
        phys.cnot(PhysQubit(0), PhysQubit(1));
        phys.cnot(PhysQubit(1), PhysQubit(2));
        let m = Mapping::identity(3, 3);
        let compiled = CompiledCircuit::from_parts(phys, m.clone(), m, 0);

        let dev = uniform(Topology::linear(3), 0.05);
        assert_eq!(compiled.link_utilization(&dev), vec![1, 1]);
        assert!((compiled.experienced_link_error(&dev) - 0.05).abs() < 1e-12);

        let degraded = uniform(Topology::linear(3), 0.05).with_disabled_links([(PhysQubit(0), PhysQubit(1))]);
        assert_eq!(compiled.link_utilization(&degraded), vec![0, 1]);
        assert!((compiled.experienced_link_error(&degraded) - 0.05).abs() < 1e-12);
    }

    struct RejectAll;
    impl CompileAudit for RejectAll {
        fn audit(&self, _: &Circuit, _: &Device, _: &CompiledCircuit) -> Result<(), String> {
            Err("synthetic audit failure".into())
        }
    }

    struct AcceptAll;
    impl CompileAudit for AcceptAll {
        fn audit(&self, _: &Circuit, _: &Device, _: &CompiledCircuit) -> Result<(), String> {
            Ok(())
        }
    }

    #[test]
    fn compile_with_runs_the_audit() {
        let dev = uniform(Topology::linear(4), 0.05);
        let program = long_cnot_program();
        let accepted = MappingPolicy::baseline().compile_with(
            &program,
            &dev,
            &CompileOptions {
                verify: Some(&AcceptAll),
            },
        );
        assert!(accepted.is_ok());
        let err = MappingPolicy::baseline()
            .compile_with(
                &program,
                &dev,
                &CompileOptions {
                    verify: Some(&RejectAll),
                },
            )
            .unwrap_err();
        assert!(matches!(err, CompileError::Verification(_)));
        assert!(err.to_string().contains("synthetic audit failure"));
    }

    #[test]
    fn compile_options_debug_shows_presence() {
        assert!(format!("{:?}", CompileOptions::default()).contains("verify: false"));
        let opts = CompileOptions {
            verify: Some(&AcceptAll),
        };
        assert!(format!("{opts:?}").contains("verify: true"));
    }

    #[test]
    fn compiled_pst_on_wrong_device_errors() {
        let dev = uniform(Topology::linear(4), 0.05);
        let small = uniform(Topology::linear(2), 0.05);
        let compiled = MappingPolicy::baseline()
            .compile(&long_cnot_program(), &dev)
            .unwrap();
        assert!(compiled.analytic_pst(&small, CoherenceModel::Disabled).is_err());
    }
}
