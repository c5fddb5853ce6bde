//! The statically-checked compile pipeline: compilation as a sequence
//! of registered passes over a typed [`PassContext`], each declaring a
//! [`PassContract`] — the invariants it requires, guarantees, and
//! clobbers — so that a whole pipeline can be *validated before it
//! runs*.
//!
//! The contract vocabulary is a fixed lattice of [`Invariant`]s.
//! [`Pipeline::violations`] walks the pass sequence with a forward
//! dataflow over that lattice and reports every misconfiguration:
//! a pass whose precondition no earlier pass establishes, a pass whose
//! precondition an intermediate pass *clobbered*, a pass that neither
//! adds nor disturbs anything (dead in this pipeline), and a pipeline
//! that never produces a compiled circuit at all. Only a pipeline with
//! zero violations converts into a [`CheckedPipeline`], the sole type
//! that can execute — a rejected pipeline is refused before any pass
//! runs.
//!
//! `quva-analysis::contracts` maps these typed violations onto the
//! stable `QV5xx` lint codes; `quva pipeline --check` renders them.
//!
//! The four paper policies are expressible as pipeline configurations
//! ([`Pipeline::for_policy`]) whose compiled output is byte-identical
//! to the historical monolithic compiler — pinned by the golden QASM
//! tests in `quva-cli`. On top of the single-candidate [`RoutePass`],
//! [`PortfolioRoutePass`] keeps several candidate routings alive per
//! layer (ForeSight-style) and prunes them by *static* projected ESP —
//! no Monte-Carlo in the loop.

use std::error::Error;
use std::fmt;

use quva_circuit::{Circuit, Gate, PhysQubit};
use quva_device::Device;
use quva_sim::CoherenceModel;

use crate::allocator::AllocationStrategy;
use crate::compiler::{
    route, route_positions, CompileAudit, CompileError, CompiledCircuit, MappingPolicy, RouteBase,
};
use crate::mapping::Mapping;
use crate::router::{Router, RoutingMetric};

/// The fixed invariant vocabulary pass contracts draw from.
///
/// Invariants describe what has been *established about the context* at
/// a point in the pipeline: they are set by a pass's guarantees and
/// removed by a later pass's clobbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Invariant {
    /// The working circuit has been through the peephole optimizer.
    Optimized,
    /// An initial program-to-physical mapping exists.
    Mapped,
    /// A compiled circuit exists whose two-qubit gates all sit on
    /// coupling links reachable from the mapping.
    Routed,
    /// Every two-qubit gate of the compiled circuit addresses an
    /// *active* coupler.
    CouplerLegal,
    /// Replaying the compiled SWAPs from the initial mapping reproduces
    /// the final mapping.
    PermutationConsistent,
    /// A static ESP bound has been computed for the compiled circuit.
    EspBounded,
    /// The compiled circuit is the best of a candidate portfolio, not
    /// merely the first one found.
    BestOfPortfolio,
    /// The compiled circuit passed a post-compile audit.
    Verified,
}

impl Invariant {
    /// Every invariant, in declaration order.
    pub const ALL: [Invariant; 8] = [
        Invariant::Optimized,
        Invariant::Mapped,
        Invariant::Routed,
        Invariant::CouplerLegal,
        Invariant::PermutationConsistent,
        Invariant::EspBounded,
        Invariant::BestOfPortfolio,
        Invariant::Verified,
    ];

    /// The stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Invariant::Optimized => "Optimized",
            Invariant::Mapped => "Mapped",
            Invariant::Routed => "Routed",
            Invariant::CouplerLegal => "CouplerLegal",
            Invariant::PermutationConsistent => "PermutationConsistent",
            Invariant::EspBounded => "EspBounded",
            Invariant::BestOfPortfolio => "BestOfPortfolio",
            Invariant::Verified => "Verified",
        }
    }

    fn idx(self) -> usize {
        match self {
            Invariant::Optimized => 0,
            Invariant::Mapped => 1,
            Invariant::Routed => 2,
            Invariant::CouplerLegal => 3,
            Invariant::PermutationConsistent => 4,
            Invariant::EspBounded => 5,
            Invariant::BestOfPortfolio => 6,
            Invariant::Verified => 7,
        }
    }
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What a pass declares about itself: the invariants it needs live on
/// entry, the ones it establishes, and the ones it destroys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassContract {
    /// Invariants that must be live when the pass runs.
    pub requires: &'static [Invariant],
    /// Invariants live after the pass ran.
    pub guarantees: &'static [Invariant],
    /// Invariants the pass destroys (applied before `guarantees`).
    pub clobbers: &'static [Invariant],
}

/// One statically-detected pipeline misconfiguration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContractViolation {
    kind: ContractViolationKind,
    pass: &'static str,
    index: usize,
}

/// The misconfiguration classes the checker distinguishes. Each maps
/// onto a stable `QV5xx` lint code in `quva-analysis`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContractViolationKind {
    /// A required invariant is not live and no earlier pass ever
    /// established it (`QV501`).
    MissingPrecondition {
        /// The invariant the pass requires.
        invariant: Invariant,
    },
    /// A required invariant was established and then destroyed by an
    /// intermediate pass (`QV502`).
    ClobberedInvariant {
        /// The invariant the pass requires.
        invariant: Invariant,
        /// The pass that destroyed it.
        clobbered_by: &'static str,
    },
    /// The pass neither adds a new invariant nor disturbs a live one:
    /// it is dead in this pipeline (`QV503`).
    UnreachablePass,
    /// The pipeline terminates without the invariant a compiled output
    /// needs (`QV504`).
    OutputMissing {
        /// The missing terminal invariant.
        invariant: Invariant,
    },
}

impl ContractViolation {
    /// The misconfiguration class.
    pub fn kind(&self) -> &ContractViolationKind {
        &self.kind
    }

    /// The name of the offending pass (`"<end>"` for terminal checks).
    pub fn pass(&self) -> &'static str {
        self.pass
    }

    /// The position of the offending pass in the pipeline (the pass
    /// count for terminal checks).
    pub fn index(&self) -> usize {
        self.index
    }
}

impl fmt::Display for ContractViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            ContractViolationKind::MissingPrecondition { invariant } => write!(
                f,
                "pass '{}' (position {}) requires {invariant}, which no earlier pass guarantees",
                self.pass, self.index
            ),
            ContractViolationKind::ClobberedInvariant {
                invariant,
                clobbered_by,
            } => write!(
                f,
                "pass '{}' (position {}) requires {invariant}, which pass '{clobbered_by}' clobbered",
                self.pass, self.index
            ),
            ContractViolationKind::UnreachablePass => write!(
                f,
                "pass '{}' (position {}) adds no invariant and disturbs none: it is dead in this pipeline",
                self.pass, self.index
            ),
            ContractViolationKind::OutputMissing { invariant } => write!(
                f,
                "pipeline ends after {} pass(es) without establishing {invariant}: no compiled circuit \
                 would be produced",
                self.index
            ),
        }
    }
}

/// The aggregate outcome of a failed contract check: every violation,
/// in pipeline order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContractError {
    violations: Vec<ContractViolation>,
}

impl ContractError {
    /// Every violation, in pipeline order.
    pub fn violations(&self) -> &[ContractViolation] {
        &self.violations
    }

    fn single(v: ContractViolation) -> Self {
        ContractError { violations: vec![v] }
    }
}

impl fmt::Display for ContractError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pipeline contract check failed:")?;
        for v in &self.violations {
            write!(f, "\n  - {v}")?;
        }
        Ok(())
    }
}

impl Error for ContractError {}

/// Everything a compile pass can read and write: the source program,
/// the target device, and the artifacts established so far.
#[derive(Debug)]
pub struct PassContext<'a> {
    /// The logical program handed to the pipeline.
    pub source: &'a Circuit,
    /// The target device.
    pub device: &'a Device,
    /// The rewritten working circuit, if an optimizing pass produced
    /// one; passes read the program through [`PassContext::circuit`].
    pub work: Option<Circuit>,
    /// The initial program-to-physical mapping, once allocated.
    pub mapping: Option<Mapping>,
    /// The compiled circuit, once routed.
    pub compiled: Option<CompiledCircuit>,
    /// The static ESP point estimate of `compiled`, when a pass
    /// computed one (portfolio routing does).
    pub esp_point: Option<f64>,
    /// The position of the currently running pass (set by the runner;
    /// used to anchor runtime contract errors).
    pub pass_index: usize,
}

impl<'a> PassContext<'a> {
    fn new(source: &'a Circuit, device: &'a Device) -> Self {
        PassContext {
            source,
            device,
            work: None,
            mapping: None,
            compiled: None,
            esp_point: None,
            pass_index: 0,
        }
    }

    /// The circuit passes should compile: the optimized working copy
    /// when one exists, the source program otherwise.
    pub fn circuit(&self) -> &Circuit {
        self.work.as_ref().unwrap_or(self.source)
    }

    /// A typed runtime error for a pass entered without `invariant`
    /// materialized — unreachable through [`CheckedPipeline`], but
    /// custom passes with dishonest contracts degrade to this instead
    /// of panicking.
    pub fn missing(&self, pass: &'static str, invariant: Invariant) -> CompileError {
        CompileError::Contract(ContractError::single(ContractViolation {
            kind: ContractViolationKind::MissingPrecondition { invariant },
            pass,
            index: self.pass_index,
        }))
    }
}

/// One registered compile pass. Mirrors `quva-analysis::PassRegistry`'s
/// pass idiom, with a declared [`PassContract`] on top.
///
/// `Send + Sync` is a supertrait so checked pipelines can be cached and
/// shared across worker threads (`quvad` reuses them across jobs).
pub trait CompilePass: Send + Sync {
    /// The stable pass name shown in reports and span names.
    fn name(&self) -> &'static str;
    /// The declared contract, validated before any pass runs.
    fn contract(&self) -> PassContract;
    /// Executes the pass over the evolving context.
    ///
    /// # Errors
    ///
    /// Any [`CompileError`] aborts the pipeline at this pass.
    fn run(&self, cx: &mut PassContext<'_>) -> Result<(), CompileError>;
}

/// Peephole-optimizes the working circuit (`quva-circuit::optimize`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptimizePass;

impl CompilePass for OptimizePass {
    fn name(&self) -> &'static str {
        "optimize"
    }

    fn contract(&self) -> PassContract {
        PassContract {
            requires: &[],
            guarantees: &[Invariant::Optimized],
            // rewriting the program invalidates every placement-derived
            // artifact
            clobbers: &[
                Invariant::Mapped,
                Invariant::Routed,
                Invariant::CouplerLegal,
                Invariant::PermutationConsistent,
                Invariant::EspBounded,
                Invariant::BestOfPortfolio,
                Invariant::Verified,
            ],
        }
    }

    fn run(&self, cx: &mut PassContext<'_>) -> Result<(), CompileError> {
        let _opt = quva_obs::span("compile", "compile.optimize");
        let (optimized, stats) = quva_circuit::optimize(cx.circuit());
        quva_obs::counter("optimize.gates_removed", stats.total_removed() as u64);
        cx.work = Some(optimized);
        cx.mapping = None;
        cx.compiled = None;
        cx.esp_point = None;
        Ok(())
    }
}

/// Establishes the initial mapping with an [`AllocationStrategy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocatePass {
    /// The placement strategy to run.
    pub strategy: AllocationStrategy,
}

impl CompilePass for AllocatePass {
    fn name(&self) -> &'static str {
        "allocate"
    }

    fn contract(&self) -> PassContract {
        PassContract {
            requires: &[],
            guarantees: &[Invariant::Mapped],
            clobbers: &[
                Invariant::Routed,
                Invariant::CouplerLegal,
                Invariant::PermutationConsistent,
                Invariant::EspBounded,
                Invariant::BestOfPortfolio,
                Invariant::Verified,
            ],
        }
    }

    fn run(&self, cx: &mut PassContext<'_>) -> Result<(), CompileError> {
        let mapping = {
            let _alloc = quva_obs::span("compile", "compile.allocate");
            self.strategy
                .allocate(cx.circuit(), cx.device)
                .map_err(CompileError::Allocation)?
        };
        cx.mapping = Some(mapping);
        cx.compiled = None;
        cx.esp_point = None;
        Ok(())
    }
}

/// Routes the mapped circuit with the single-candidate stepwise router
/// — the historical `MappingPolicy` movement engine, byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoutePass {
    /// The movement cost metric.
    pub metric: RoutingMetric,
}

impl CompilePass for RoutePass {
    fn name(&self) -> &'static str {
        "route"
    }

    fn contract(&self) -> PassContract {
        PassContract {
            requires: &[Invariant::Mapped],
            guarantees: &[
                Invariant::Routed,
                Invariant::CouplerLegal,
                Invariant::PermutationConsistent,
            ],
            clobbers: &[
                Invariant::EspBounded,
                Invariant::BestOfPortfolio,
                Invariant::Verified,
            ],
        }
    }

    fn run(&self, cx: &mut PassContext<'_>) -> Result<(), CompileError> {
        let mapping = match cx.mapping.clone() {
            Some(m) => m,
            None => return Err(cx.missing("route", Invariant::Mapped)),
        };
        let compiled = route(cx.circuit(), cx.device, mapping, self.metric)?;
        cx.compiled = Some(compiled);
        cx.esp_point = None;
        Ok(())
    }
}

/// The VQA portfolio selection (paper Fig. 13): also compiles an
/// alternative policy and keeps whichever output the analytic
/// gate-error model predicts to be more reliable. Ties keep the
/// current (restricted-placement) output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelectAlternativePass {
    /// The unrestricted policy to compile as the comparison candidate.
    pub alternative: MappingPolicy,
}

impl CompilePass for SelectAlternativePass {
    fn name(&self) -> &'static str {
        "select"
    }

    fn contract(&self) -> PassContract {
        PassContract {
            requires: &[Invariant::Routed],
            guarantees: &[Invariant::BestOfPortfolio],
            clobbers: &[Invariant::EspBounded, Invariant::Verified],
        }
    }

    fn run(&self, cx: &mut PassContext<'_>) -> Result<(), CompileError> {
        let current = match cx.compiled.take() {
            Some(c) => c,
            None => return Err(cx.missing("select", Invariant::Routed)),
        };
        let _portfolio = quva_obs::span("compile", "compile.portfolio");
        let device = cx.device;
        let alt = Pipeline::for_policy(&self.alternative)
            .validate()
            .ok()
            .and_then(|p| p.run(cx.circuit(), device).ok());
        let pst = |c: &CompiledCircuit| {
            c.analytic_pst(device, CoherenceModel::Disabled)
                .map(|r| r.pst)
                .unwrap_or(0.0)
        };
        cx.compiled = Some(match alt {
            Some(alt) if pst(&alt) > pst(&current) => {
                quva_obs::counter("compile.portfolio.greedy_won", 1);
                alt
            }
            Some(_) => {
                quva_obs::counter("compile.portfolio.vqa_won", 1);
                current
            }
            None => current,
        });
        cx.esp_point = None;
        Ok(())
    }
}

/// Runs a post-compile audit exactly once per compile.
pub struct VerifyPass<'v> {
    auditor: &'v dyn CompileAudit,
}

impl<'v> VerifyPass<'v> {
    /// A verify pass over the given auditor.
    pub fn new(auditor: &'v dyn CompileAudit) -> Self {
        VerifyPass { auditor }
    }
}

impl fmt::Debug for VerifyPass<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VerifyPass").finish_non_exhaustive()
    }
}

impl CompilePass for VerifyPass<'_> {
    fn name(&self) -> &'static str {
        "verify"
    }

    fn contract(&self) -> PassContract {
        PassContract {
            requires: &[
                Invariant::Routed,
                Invariant::CouplerLegal,
                Invariant::PermutationConsistent,
            ],
            guarantees: &[Invariant::Verified],
            clobbers: &[],
        }
    }

    fn run(&self, cx: &mut PassContext<'_>) -> Result<(), CompileError> {
        let compiled = match cx.compiled.as_ref() {
            Some(c) => c,
            None => return Err(cx.missing("verify", Invariant::Routed)),
        };
        let _verify = quva_obs::span("compile", "compile.verify");
        quva_obs::counter("compile.verify.runs", 1);
        self.auditor
            .audit(cx.circuit(), cx.device, compiled)
            .map_err(CompileError::Verification)
    }
}

/// ForeSight-style multi-candidate routing: per circuit layer, every
/// surviving candidate is extended under a small family of routing
/// metrics, and the beam is pruned to `width` candidates ranked by
/// *static* projected ESP (the analytic success-probability point
/// estimate — no Monte-Carlo in the loop).
///
/// The candidate that always extends with the base metric is protected
/// from pruning, so the final selection can never score below the
/// single-candidate [`RoutePass`] baseline for the same metric — the
/// structural analogue of the VQA-never-loses-to-VQM portfolio
/// property.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortfolioRoutePass {
    /// The base movement metric (the protected candidate's).
    pub metric: RoutingMetric,
    /// How many candidates stay alive per layer (min 1).
    pub width: usize,
}

impl PortfolioRoutePass {
    /// The metric family candidates are extended under: the base
    /// metric first (the protected chain), then the remaining distinct
    /// paper metrics.
    fn metric_family(&self) -> Vec<RoutingMetric> {
        let mut family = vec![self.metric];
        for m in [
            RoutingMetric::reliability(),
            RoutingMetric::reliability_hop_limited(),
            RoutingMetric::reliability_with_meeting_edge(),
            RoutingMetric::Hops,
        ] {
            if !family.contains(&m) {
                family.push(m);
            }
        }
        family
    }
}

/// A beam entry: a routed chain whose latest layer is the arena
/// segment `tip` (`None` before the first layer).
struct RouteCandidate {
    mapping: Mapping,
    tip: Option<usize>,
    inserted: usize,
    protected: bool,
    score: f64,
}

/// One kept candidate's routed layer, linked to the segment before it:
/// candidates share their prefixes instead of each copying its output.
struct Segment {
    parent: Option<usize>,
    gates: Circuit<PhysQubit>,
}

impl CompilePass for PortfolioRoutePass {
    fn name(&self) -> &'static str {
        "portfolio"
    }

    fn contract(&self) -> PassContract {
        PassContract {
            requires: &[Invariant::Mapped],
            guarantees: &[
                Invariant::Routed,
                Invariant::CouplerLegal,
                Invariant::PermutationConsistent,
                Invariant::EspBounded,
                Invariant::BestOfPortfolio,
            ],
            clobbers: &[Invariant::Verified],
        }
    }

    fn run(&self, cx: &mut PassContext<'_>) -> Result<(), CompileError> {
        let initial = match cx.mapping.clone() {
            Some(m) => m,
            None => return Err(cx.missing("portfolio", Invariant::Mapped)),
        };
        let _route_span = quva_obs::span("compile", "compile.route");
        let device = cx.device;
        let width = self.width.max(1);
        let (compiled, score) = {
            let circuit = cx.circuit();
            let base = RouteBase::of(circuit);
            let empty = || Circuit::with_cbits(device.num_qubits(), circuit.num_cbits().max(1));
            // per-metric excess-weight probes (tracing only)
            let family: Vec<(RoutingMetric, Option<Router<'_>>)> = self
                .metric_family()
                .into_iter()
                .map(|m| {
                    let probe = (quva_obs::enabled() && matches!(m, RoutingMetric::Reliability { .. }))
                        .then(|| Router::new(device, m));
                    (m, probe)
                })
                .collect();

            let mut arena: Vec<Segment> = Vec::new();
            let mut candidates = vec![RouteCandidate {
                mapping: initial.clone(),
                tip: None,
                inserted: 0,
                protected: true,
                score: 1.0,
            }];

            for &(lo, hi) in &base.layer_bounds {
                // each child routes the layer into a fresh segment
                let mut children: Vec<(RouteCandidate, Circuit<PhysQubit>)> = Vec::new();
                let mut pruned = 0u64;
                for cand in &candidates {
                    for (mi, (metric, probe)) in family.iter().enumerate() {
                        let mut child = RouteCandidate {
                            mapping: cand.mapping.clone(),
                            tip: cand.tip,
                            inserted: cand.inserted,
                            protected: cand.protected && mi == 0,
                            score: 0.0,
                        };
                        let mut segment = empty();
                        let routed = route_positions(
                            circuit,
                            device,
                            *metric,
                            probe.as_ref(),
                            &base,
                            lo..hi,
                            &mut child.mapping,
                            &mut segment,
                            &mut child.inserted,
                        );
                        match routed {
                            Ok(()) => {
                                // routing only appends, so the parent's
                                // score folds on over the new segment
                                child.score = esp_fold(device, cand.score, segment.gates());
                                // identical siblings add no diversity;
                                // the earliest (base-metric-first) copy
                                // survives, so the protected chain is
                                // never the one dropped
                                let duplicate = children.iter().any(|(c, _)| {
                                    c.score.to_bits() == child.score.to_bits()
                                        && c.inserted == child.inserted
                                        && c.mapping == child.mapping
                                });
                                if duplicate {
                                    pruned += 1;
                                } else {
                                    children.push((child, segment));
                                }
                            }
                            // the protected chain failing means the
                            // single-candidate baseline fails: propagate
                            // its error instead of silently switching
                            // metric
                            Err(e) if child.protected => return Err(e),
                            Err(_) => pruned += 1,
                        }
                    }
                }
                // prune to the beam width by projected static ESP;
                // the protected chain always survives
                let mut ranked: Vec<usize> = (0..children.len()).collect();
                ranked.sort_by(|&ia, &ib| {
                    children[ib]
                        .0
                        .score
                        .total_cmp(&children[ia].0.score)
                        .then_with(|| ia.cmp(&ib))
                });
                let mut keep: Vec<usize> = Vec::with_capacity(width);
                if let Some(pi) = children.iter().position(|(c, _)| c.protected) {
                    keep.push(pi);
                }
                for i in ranked {
                    if keep.len() >= width {
                        break;
                    }
                    if !keep.contains(&i) {
                        keep.push(i);
                    }
                }
                keep.sort_unstable();
                pruned += (children.len() - keep.len()) as u64;
                let mut next = Vec::with_capacity(keep.len());
                for (i, (mut child, gates)) in children.into_iter().enumerate() {
                    if keep.contains(&i) {
                        arena.push(Segment {
                            parent: child.tip,
                            gates,
                        });
                        child.tip = Some(arena.len() - 1);
                        next.push(child);
                    }
                }
                quva_obs::counter("portfolio.kept", next.len() as u64);
                quva_obs::counter("portfolio.pruned", pruned);
                candidates = next;
            }

            let best = candidates
                .into_iter()
                .enumerate()
                .max_by(|(ia, a), (ib, b)| {
                    a.score
                        .total_cmp(&b.score)
                        .then_with(|| a.protected.cmp(&b.protected))
                        .then_with(|| ib.cmp(ia))
                })
                .map(|(_, c)| c);
            let Some(chosen) = best else {
                // width >= 1 and the protected candidate survives every
                // layer, so an empty beam is unreachable; degrade to a
                // typed error all the same
                return Err(cx.missing("portfolio", Invariant::Mapped));
            };
            // concatenate the chosen chain's segments, oldest first
            let mut chain = Vec::new();
            let mut at = chosen.tip;
            while let Some(i) = at {
                chain.push(i);
                at = arena[i].parent;
            }
            let mut out = empty();
            for &i in chain.iter().rev() {
                out.append(&arena[i].gates);
            }
            quva_obs::counter("route.gates", base.two_qubit_positions.len() as u64);
            quva_obs::counter("route.swaps_inserted", chosen.inserted as u64);
            (
                CompiledCircuit::from_parts(out, initial, chosen.mapping, chosen.inserted),
                chosen.score,
            )
        };
        cx.compiled = Some(compiled);
        cx.esp_point = Some(score);
        Ok(())
    }
}

/// The static ESP point estimate of a physical circuit: the product of
/// every operation's success probability at the calibrated rates —
/// computed gate-by-gate in circuit order, matching
/// `quva-analysis::esp_interval(..).point` bit for bit (and the
/// simulator's analytic PST under the gate + readout model).
///
/// Two-qubit gates on uncoupled or disabled pairs contribute nothing,
/// exactly as in the interval analysis.
pub fn static_esp_point(device: &Device, circuit: &Circuit<PhysQubit>) -> f64 {
    esp_fold(device, 1.0, circuit.gates())
}

/// Multiplies `point` by each gate's success factor, left to right.
/// Continuing a prefix's point over the gates appended after it gives
/// the longer circuit's [`static_esp_point`] bit for bit.
fn esp_fold(device: &Device, mut point: f64, gates: &[Gate<PhysQubit>]) -> f64 {
    let cal = device.calibration();
    for gate in gates {
        let factor = match gate {
            Gate::OneQubit { qubit, .. } => (1.0 - cal.one_qubit_error(qubit.index())).powi(1),
            Gate::Cnot { control, target } => match device.link_error(*control, *target) {
                Some(e) => (1.0 - e).powi(1),
                None => continue,
            },
            Gate::Swap { a, b } => match device.link_error(*a, *b) {
                Some(e) => (1.0 - e).powi(3),
                None => continue,
            },
            Gate::Measure { qubit, .. } => (1.0 - cal.readout_error(qubit.index())).powi(1),
            Gate::Barrier { .. } => continue,
        };
        point *= factor;
    }
    point
}

/// An ordered, not-yet-validated sequence of compile passes.
///
/// # Examples
///
/// A policy's standard pipeline validates cleanly and compiles:
///
/// ```
/// use quva::pipeline::Pipeline;
/// use quva::MappingPolicy;
/// use quva_benchmarks::bv;
/// use quva_device::Device;
///
/// # fn main() -> Result<(), quva::CompileError> {
/// let device = Device::ibm_q20();
/// let checked = Pipeline::for_policy(&MappingPolicy::vqm())
///     .validate()
///     .expect("standard pipelines are contract-clean");
/// let compiled = checked.run(&bv(8), &device)?;
/// assert!(compiled.physical().two_qubit_gate_count() >= 7);
/// # Ok(())
/// # }
/// ```
///
/// A misconfigured pipeline is refused before any pass runs:
///
/// ```
/// use quva::pipeline::{Pipeline, RoutePass};
/// use quva::RoutingMetric;
///
/// let broken = Pipeline::new().with_pass(RoutePass { metric: RoutingMetric::Hops });
/// let violations = broken.violations();
/// assert!(!violations.is_empty(), "routing without allocating must be rejected");
/// assert!(broken.validate().is_err());
/// ```
pub struct Pipeline<'a> {
    passes: Vec<Box<dyn CompilePass + 'a>>,
}

impl fmt::Debug for Pipeline<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pipeline")
            .field("passes", &self.pass_names())
            .finish()
    }
}

impl Default for Pipeline<'_> {
    fn default() -> Self {
        Pipeline::new()
    }
}

impl<'a> Pipeline<'a> {
    /// An empty pipeline (which, as such, fails validation: it never
    /// establishes [`Invariant::Routed`]).
    pub fn new() -> Self {
        Pipeline { passes: Vec::new() }
    }

    /// Appends a pass (builder style).
    #[must_use]
    pub fn with_pass(mut self, pass: impl CompilePass + 'a) -> Self {
        self.passes.push(Box::new(pass));
        self
    }

    /// Appends a boxed pass.
    pub fn push(&mut self, pass: Box<dyn CompilePass + 'a>) {
        self.passes.push(pass);
    }

    /// Number of registered passes.
    pub fn len(&self) -> usize {
        self.passes.len()
    }

    /// Whether the pipeline has no passes.
    pub fn is_empty(&self) -> bool {
        self.passes.is_empty()
    }

    /// The registered pass names, in run order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// The registered passes' names and contracts, in run order.
    pub fn contracts(&self) -> Vec<(&'static str, PassContract)> {
        self.passes.iter().map(|p| (p.name(), p.contract())).collect()
    }

    /// The pipeline configuration equivalent to a policy's historical
    /// monolithic compile: allocate, route, and — for the VQA
    /// restricted-placement policies — the portfolio selection.
    pub fn for_policy(policy: &MappingPolicy) -> Pipeline<'static> {
        let mut p = Pipeline::new()
            .with_pass(AllocatePass {
                strategy: policy.allocation,
            })
            .with_pass(RoutePass {
                metric: policy.routing,
            });
        if matches!(policy.allocation, AllocationStrategy::StrongestSubgraph { .. }) {
            p = p.with_pass(SelectAlternativePass {
                alternative: MappingPolicy {
                    allocation: AllocationStrategy::GreedyInteraction,
                    routing: policy.routing,
                },
            });
        }
        p
    }

    /// The ESP-pruned portfolio variant of a policy's pipeline:
    /// [`Pipeline::for_policy`] with the single-candidate route pass
    /// replaced by [`PortfolioRoutePass`] at `width`, every other pass
    /// kept. Because the portfolio's protected chain *is* the
    /// single-candidate route and every later pass (the VQA selection)
    /// takes a pointwise maximum, this pipeline's static ESP point can
    /// never fall below [`Pipeline::for_policy`]'s on the same inputs.
    pub fn for_policy_portfolio(policy: &MappingPolicy, width: usize) -> Pipeline<'static> {
        let mut p = Pipeline::new()
            .with_pass(AllocatePass {
                strategy: policy.allocation,
            })
            .with_pass(PortfolioRoutePass {
                metric: policy.routing,
                width,
            });
        if matches!(policy.allocation, AllocationStrategy::StrongestSubgraph { .. }) {
            p = p.with_pass(SelectAlternativePass {
                alternative: MappingPolicy {
                    allocation: AllocationStrategy::GreedyInteraction,
                    routing: policy.routing,
                },
            });
        }
        p
    }

    /// [`Pipeline::for_policy`] plus a trailing verify pass when an
    /// auditor is supplied — the `compile_with` configuration.
    pub fn for_policy_with(policy: &MappingPolicy, verify: Option<&'a dyn CompileAudit>) -> Pipeline<'a> {
        let mut p = Pipeline::for_policy(policy);
        if let Some(auditor) = verify {
            p = p.with_pass(VerifyPass::new(auditor));
        }
        p
    }

    /// Statically checks every pass contract against the pass order:
    /// a forward walk over the invariant lattice reporting missing
    /// preconditions, clobbered invariants, dead passes, and a missing
    /// terminal [`Invariant::Routed`]. Empty means the pipeline is
    /// well-formed.
    pub fn violations(&self) -> Vec<ContractViolation> {
        let n = Invariant::ALL.len();
        // which pass established each live invariant / destroyed each
        // dead one (for clobber attribution)
        let mut live: Vec<Option<&'static str>> = vec![None; n];
        let mut killed: Vec<Option<&'static str>> = vec![None; n];
        let mut out = Vec::new();

        for (index, pass) in self.passes.iter().enumerate() {
            let name = pass.name();
            let contract = pass.contract();
            let mut requires_ok = true;
            for &req in contract.requires {
                if live[req.idx()].is_some() {
                    continue;
                }
                requires_ok = false;
                let kind = match killed[req.idx()] {
                    Some(clobberer) => ContractViolationKind::ClobberedInvariant {
                        invariant: req,
                        clobbered_by: clobberer,
                    },
                    None => ContractViolationKind::MissingPrecondition { invariant: req },
                };
                out.push(ContractViolation {
                    kind,
                    pass: name,
                    index,
                });
            }
            // a pass that adds nothing new and disturbs nothing live is
            // dead; only meaningful when its preconditions held (a
            // mis-ordered pass gets the precise precondition diagnostic
            // instead)
            let adds_nothing = contract.guarantees.iter().all(|g| live[g.idx()].is_some());
            let disturbs_nothing = contract.clobbers.iter().all(|c| live[c.idx()].is_none());
            if requires_ok && adds_nothing && disturbs_nothing {
                out.push(ContractViolation {
                    kind: ContractViolationKind::UnreachablePass,
                    pass: name,
                    index,
                });
            }
            for &c in contract.clobbers {
                if live[c.idx()].take().is_some() {
                    killed[c.idx()] = Some(name);
                }
            }
            for &g in contract.guarantees {
                live[g.idx()] = Some(name);
                killed[g.idx()] = None;
            }
        }

        if live[Invariant::Routed.idx()].is_none() {
            out.push(ContractViolation {
                kind: ContractViolationKind::OutputMissing {
                    invariant: Invariant::Routed,
                },
                pass: "<end>",
                index: self.passes.len(),
            });
        }
        out
    }

    /// Converts the pipeline into its runnable form, or reports every
    /// contract violation. Only a [`CheckedPipeline`] can execute.
    ///
    /// # Errors
    ///
    /// [`ContractError`] carrying each [`ContractViolation`] in
    /// pipeline order.
    pub fn validate(self) -> Result<CheckedPipeline<'a>, ContractError> {
        let violations = self.violations();
        if violations.is_empty() {
            Ok(CheckedPipeline { passes: self.passes })
        } else {
            Err(ContractError { violations })
        }
    }

    /// Validates, then runs: the one-call form used where the pipeline
    /// is built per compile.
    ///
    /// # Errors
    ///
    /// [`CompileError::Contract`] when validation rejects the pipeline
    /// (before any pass executes), otherwise whatever the failing pass
    /// returned.
    pub fn compile(self, circuit: &Circuit, device: &Device) -> Result<CompiledCircuit, CompileError> {
        let checked = self.validate().map_err(CompileError::Contract)?;
        checked.run(circuit, device)
    }
}

/// A contract-validated pipeline: the only pipeline form that can run.
pub struct CheckedPipeline<'a> {
    passes: Vec<Box<dyn CompilePass + 'a>>,
}

impl fmt::Debug for CheckedPipeline<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CheckedPipeline")
            .field("passes", &self.pass_names())
            .finish()
    }
}

impl CheckedPipeline<'_> {
    /// The pass names, in run order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Runs every pass in order over a fresh [`PassContext`].
    ///
    /// # Errors
    ///
    /// The first failing pass's [`CompileError`]; later passes do not
    /// run.
    pub fn run(&self, circuit: &Circuit, device: &Device) -> Result<CompiledCircuit, CompileError> {
        let mut cx = PassContext::new(circuit, device);
        for (index, pass) in self.passes.iter().enumerate() {
            cx.pass_index = index;
            let _pass_span = quva_obs::enabled()
                .then(|| quva_obs::span("pipeline", &format!("pipeline.pass.{}", pass.name())));
            pass.run(&mut cx)?;
        }
        match cx.compiled.take() {
            Some(compiled) => Ok(compiled),
            // unreachable through validation (Routed is terminal-checked)
            None => Err(cx.missing("<end>", Invariant::Routed)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quva_circuit::{Cbit, Qubit};
    use quva_device::{Calibration, Topology};

    fn uniform(topo: Topology, e: f64) -> Device {
        Device::new(topo, |t| Calibration::uniform(t, e, 0.001, 0.02))
    }

    fn program() -> Circuit {
        let mut c = Circuit::new(4);
        c.h(Qubit(0));
        c.cnot(Qubit(0), Qubit(3));
        c.cnot(Qubit(1), Qubit(2));
        c.measure(Qubit(3), Cbit(0));
        c
    }

    fn policies() -> [MappingPolicy; 5] {
        [
            MappingPolicy::baseline(),
            MappingPolicy::vqm(),
            MappingPolicy::vqm_hop_limited(),
            MappingPolicy::vqa_vqm(),
            MappingPolicy::native(3),
        ]
    }

    #[test]
    fn standard_policy_pipelines_are_contract_clean() {
        for policy in policies() {
            let p = Pipeline::for_policy(&policy);
            assert_eq!(p.violations(), vec![], "{}", policy.name());
        }
    }

    #[test]
    fn pipeline_output_matches_monolithic_compile() {
        let dev = uniform(Topology::grid(2, 3), 0.05);
        for policy in policies() {
            let mono = policy.compile(&program(), &dev).unwrap();
            let piped = Pipeline::for_policy(&policy).compile(&program(), &dev).unwrap();
            assert_eq!(mono, piped, "{}", policy.name());
        }
    }

    #[test]
    fn empty_pipeline_reports_missing_output() {
        let v = Pipeline::new().violations();
        assert_eq!(v.len(), 1);
        assert!(matches!(
            v[0].kind(),
            ContractViolationKind::OutputMissing {
                invariant: Invariant::Routed
            }
        ));
        assert_eq!(v[0].pass(), "<end>");
    }

    #[test]
    fn route_without_allocate_is_missing_precondition() {
        let v = Pipeline::new()
            .with_pass(RoutePass {
                metric: RoutingMetric::Hops,
            })
            .violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(matches!(
            v[0].kind(),
            ContractViolationKind::MissingPrecondition {
                invariant: Invariant::Mapped
            }
        ));
        assert_eq!((v[0].pass(), v[0].index()), ("route", 0));
    }

    #[test]
    fn optimize_between_allocate_and_route_is_clobbered_invariant() {
        let v = Pipeline::new()
            .with_pass(AllocatePass {
                strategy: AllocationStrategy::GreedyInteraction,
            })
            .with_pass(OptimizePass)
            .with_pass(RoutePass {
                metric: RoutingMetric::Hops,
            })
            .violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(matches!(
            v[0].kind(),
            ContractViolationKind::ClobberedInvariant {
                invariant: Invariant::Mapped,
                clobbered_by: "optimize"
            }
        ));
    }

    #[test]
    fn duplicate_pass_is_unreachable() {
        let v = Pipeline::new()
            .with_pass(AllocatePass {
                strategy: AllocationStrategy::GreedyInteraction,
            })
            .with_pass(AllocatePass {
                strategy: AllocationStrategy::GreedyInteraction,
            })
            .with_pass(RoutePass {
                metric: RoutingMetric::Hops,
            })
            .violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(matches!(v[0].kind(), ContractViolationKind::UnreachablePass));
        assert_eq!(v[0].index(), 1);
    }

    #[test]
    fn double_verify_is_unreachable() {
        let verifier = AcceptAll;
        let v = Pipeline::new()
            .with_pass(AllocatePass {
                strategy: AllocationStrategy::GreedyInteraction,
            })
            .with_pass(RoutePass {
                metric: RoutingMetric::Hops,
            })
            .with_pass(VerifyPass::new(&verifier))
            .with_pass(VerifyPass::new(&verifier))
            .violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(matches!(v[0].kind(), ContractViolationKind::UnreachablePass));
        assert_eq!(v[0].index(), 3);
    }

    #[test]
    fn rejected_pipeline_never_runs_a_pass() {
        let dev = uniform(Topology::linear(4), 0.05);
        let err = Pipeline::new()
            .with_pass(RoutePass {
                metric: RoutingMetric::Hops,
            })
            .compile(&program(), &dev)
            .unwrap_err();
        let CompileError::Contract(contract) = err else {
            panic!("expected a contract rejection");
        };
        assert_eq!(contract.violations().len(), 1);
        assert!(contract.to_string().contains("requires Mapped"));
    }

    #[test]
    fn contract_error_display_lists_every_violation() {
        let verifier = AcceptAll;
        let err = Pipeline::new()
            .with_pass(VerifyPass::new(&verifier))
            .validate()
            .unwrap_err();
        let text = err.to_string();
        assert!(text.contains("pass 'verify'"), "{text}");
        assert!(text.contains("Routed"), "{text}");
        assert!(text.contains("no compiled circuit"), "{text}");
    }

    #[test]
    fn optimize_pass_rewrites_working_circuit() {
        let dev = uniform(Topology::linear(4), 0.05);
        let mut c = Circuit::new(2);
        c.h(Qubit(0));
        c.h(Qubit(0)); // cancels
        c.cnot(Qubit(0), Qubit(1));
        c.measure(Qubit(1), Cbit(0));
        let compiled = Pipeline::new()
            .with_pass(OptimizePass)
            .with_pass(AllocatePass {
                strategy: AllocationStrategy::GreedyInteraction,
            })
            .with_pass(RoutePass {
                metric: RoutingMetric::Hops,
            })
            .compile(&c, &dev)
            .unwrap();
        assert_eq!(compiled.physical().one_qubit_gate_count(), 0);
    }

    struct AcceptAll;
    impl CompileAudit for AcceptAll {
        fn audit(&self, _: &Circuit, _: &Device, _: &CompiledCircuit) -> Result<(), String> {
            Ok(())
        }
    }

    #[test]
    fn static_esp_point_matches_analytic_pst() {
        let dev = uniform(Topology::linear(4), 0.05);
        let compiled = MappingPolicy::vqm().compile(&program(), &dev).unwrap();
        let pst = compiled.analytic_pst(&dev, CoherenceModel::Disabled).unwrap().pst;
        let point = static_esp_point(&dev, compiled.physical());
        assert!((pst - point).abs() < 1e-12, "pst {pst} vs esp point {point}");
    }

    #[test]
    fn portfolio_score_is_the_static_esp_point_of_its_output() {
        let dev = Device::ibm_q20();
        let policy = MappingPolicy::vqm();
        for bench in quva_benchmarks::table1_suite() {
            for width in [1, 4, 8] {
                let mut cx = PassContext::new(bench.circuit(), &dev);
                AllocatePass {
                    strategy: policy.allocation,
                }
                .run(&mut cx)
                .unwrap();
                PortfolioRoutePass {
                    metric: policy.routing,
                    width,
                }
                .run(&mut cx)
                .unwrap();
                let physical = cx.compiled.as_ref().unwrap().physical();
                assert_eq!(
                    cx.esp_point.map(f64::to_bits),
                    Some(static_esp_point(&dev, physical).to_bits()),
                    "{} at width {width}",
                    bench.name()
                );
            }
        }
    }

    #[test]
    fn portfolio_routing_never_scores_below_single_candidate() {
        let dev = uniform(Topology::grid(2, 3), 0.05);
        for policy in [MappingPolicy::baseline(), MappingPolicy::vqm()] {
            let single = policy.compile(&program(), &dev).unwrap();
            let baseline_point = static_esp_point(&dev, single.physical());
            let portfolio = Pipeline::new()
                .with_pass(AllocatePass {
                    strategy: policy.allocation,
                })
                .with_pass(PortfolioRoutePass {
                    metric: policy.routing,
                    width: 4,
                })
                .compile(&program(), &dev)
                .unwrap();
            let portfolio_point = static_esp_point(&dev, portfolio.physical());
            assert!(
                portfolio_point >= baseline_point,
                "{}: portfolio {portfolio_point} < baseline {baseline_point}",
                policy.name()
            );
        }
    }

    #[test]
    fn portfolio_width_one_reproduces_single_candidate_routing() {
        let dev = uniform(Topology::grid(2, 3), 0.05);
        let policy = MappingPolicy::vqm();
        let single = policy.compile(&program(), &dev).unwrap();
        let portfolio = Pipeline::new()
            .with_pass(AllocatePass {
                strategy: policy.allocation,
            })
            .with_pass(PortfolioRoutePass {
                metric: policy.routing,
                width: 1,
            })
            .compile(&program(), &dev)
            .unwrap();
        assert_eq!(single, portfolio, "width-1 portfolio must be the protected chain");
    }

    #[test]
    fn portfolio_pipeline_is_contract_clean_and_verifiable() {
        let verifier = AcceptAll;
        let p = Pipeline::new()
            .with_pass(AllocatePass {
                strategy: AllocationStrategy::GreedyInteraction,
            })
            .with_pass(PortfolioRoutePass {
                metric: RoutingMetric::reliability(),
                width: 3,
            })
            .with_pass(VerifyPass::new(&verifier));
        assert_eq!(p.violations(), vec![]);
        let dev = uniform(Topology::grid(2, 3), 0.05);
        assert!(p.compile(&program(), &dev).is_ok());
    }

    #[test]
    fn checked_pipeline_is_reusable_across_jobs() {
        let dev = uniform(Topology::grid(2, 3), 0.05);
        let checked = Pipeline::for_policy(&MappingPolicy::vqm()).validate().unwrap();
        let a = checked.run(&program(), &dev).unwrap();
        let b = checked.run(&program(), &dev).unwrap();
        assert_eq!(a, b, "a checked pipeline must be a pure function of its inputs");
        assert_eq!(checked.pass_names(), ["allocate", "route"]);
    }

    #[test]
    fn pipeline_debug_and_introspection() {
        let p = Pipeline::for_policy(&MappingPolicy::vqa_vqm());
        assert_eq!(p.pass_names(), ["allocate", "route", "select"]);
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
        assert!(format!("{p:?}").contains("select"));
        let contracts = p.contracts();
        assert_eq!(contracts[1].0, "route");
        assert!(contracts[1].1.requires.contains(&Invariant::Mapped));
    }

    #[test]
    fn invariant_vocabulary_is_stable() {
        assert_eq!(Invariant::ALL.len(), 8);
        for (i, inv) in Invariant::ALL.into_iter().enumerate() {
            assert_eq!(inv.idx(), i);
            assert!(!inv.name().is_empty());
        }
        assert_eq!(Invariant::Mapped.to_string(), "Mapped");
    }
}
