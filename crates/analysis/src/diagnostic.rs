//! The diagnostics vocabulary of the lint framework: stable codes,
//! severities, gate-index spans, and the [`Report`] they aggregate into.

use std::fmt;

use quva_obs::json_escape;

/// How serious a diagnostic is.
///
/// The severity policy is fixed per [`LintCode`] (see
/// [`LintCode::severity`]): *errors* mean the artifact is illegal or
/// semantically wrong (a compiler emitting it has a bug), *warnings*
/// mean it is legal but wasteful or suspicious.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Legal but suspicious or wasteful; never fails verification.
    Warning,
    /// Illegal or semantically wrong; fails verification.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => f.write_str("warning"),
            Severity::Error => f.write_str("error"),
        }
    }
}

/// The stable identity of a lint finding.
///
/// Codes are append-only: a released code never changes meaning,
/// number, or default severity, so reports can be compared across
/// versions and CI can grep for a specific code.
///
/// # Examples
///
/// ```
/// use quva_analysis::{LintCode, Severity};
///
/// assert_eq!(LintCode::OffCouplerGate.code(), "QV001");
/// assert_eq!(LintCode::OffCouplerGate.severity(), Severity::Error);
/// assert_eq!(LintCode::RedundantPair.severity(), Severity::Warning);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LintCode {
    /// A two-qubit gate addresses a pair of physical qubits with no
    /// coupler between them.
    OffCouplerGate,
    /// A two-qubit gate addresses a coupler that exists but has been
    /// disabled (a dead link).
    DisabledLinkGate,
    /// Replaying the compiled circuit's SWAPs from the initial mapping
    /// does not reproduce the claimed final mapping.
    PermutationMismatch,
    /// The compiled gate stream is not the logical program under the
    /// evolving qubit mapping (wrong operands, reordered dependencies,
    /// dropped or invented gates).
    SequenceMismatch,
    /// A qubit is operated on after it has been measured.
    UseAfterMeasure,
    /// The circuit needs more qubits than the device provides, or a
    /// mapping's shape does not match the circuit/device it claims to
    /// connect.
    WidthExceeded,
    /// A physical gate operates on a location no program qubit
    /// occupies at that point.
    UnmappedOperand,
    /// An invalid calibration value (NaN, negative, or ≥ 1 error rate;
    /// non-positive coherence time) escaped sanitization and is
    /// visible to policy code.
    CalibrationEscape,
    /// A register qubit is allocated but never referenced by any gate.
    UnusedQubit,
    /// A used qubit is never measured although the circuit measures
    /// others.
    UnmeasuredQubit,
    /// The circuit contains no measurements at all.
    NoMeasurements,
    /// Two measurements write the same classical bit; the first result
    /// is lost.
    ClobberedCbit,
    /// A SWAP moves a qubit that has already been measured.
    SwapAfterMeasure,
    /// Two adjacent gates cancel each other exactly.
    RedundantPair,
    /// A SWAP whose effect is unobservable: neither operand is used or
    /// measured afterwards.
    ZeroEffectSwap,
    /// A single coupling link dominates the circuit's static failure
    /// weight — the compiled circuit leans on the device's weakest link.
    DominantWeakLink,
    /// The whole-circuit static ESP upper bound is below the floor: even
    /// under optimistic calibration drift the circuit is unlikely to
    /// produce a correct trial.
    LowEspBound,
    /// A qubit idles long enough between its first and last gate for
    /// T1 decoherence to become a material failure source.
    ExcessiveIdling,
    /// A router-inserted SWAP chain is measurably less reliable than the
    /// best path available on the live device (a missed-VQM route).
    MissedVqmRoute,
    /// The allocated physical region is substantially weaker than the
    /// strongest same-size region on the device (a missed-VQA
    /// allocation).
    WeakRegionAllocation,
    /// Even the optimistic bound of the static cost envelope exceeds
    /// the job's deadline: the job cannot finish in time on any
    /// plausible host.
    DeadlineInfeasibleJob,
    /// The requested trial budget cannot reach the requested
    /// confidence-interval width: the estimate will be noisier than
    /// asked for no matter how the trials land.
    TrialBudgetTooSmall,
    /// The worst-case SWAP overhead dwarfs the source program: routing
    /// on this topology can blow the compile and execution cost up by
    /// more than the configured ratio.
    PathologicalRoutingBlowup,
    /// The pessimistic bound of the rendered-response size exceeds the
    /// wire protocol's frame budget: the daemon would refuse to frame
    /// the result.
    ResponseExceedsFrameBudget,
    /// A compile pass requires an invariant that no earlier pass in the
    /// pipeline establishes.
    PipelineMissingPrecondition,
    /// A compile pass requires an invariant that an earlier pass
    /// established but an intermediate pass then destroyed.
    PipelineClobberedInvariant,
    /// A compile pass neither establishes a new invariant nor disturbs
    /// a live one: it is dead in this pipeline.
    PipelineUnreachablePass,
    /// The pipeline terminates without establishing the invariant a
    /// compiled output needs: no compiled circuit would be produced.
    PipelineOutputMissing,
}

impl LintCode {
    /// Every released code, in code order. The doc-sync test walks this
    /// to keep the DESIGN.md code table and the enum in lockstep.
    pub const ALL: [LintCode; 28] = [
        LintCode::OffCouplerGate,
        LintCode::DisabledLinkGate,
        LintCode::PermutationMismatch,
        LintCode::SequenceMismatch,
        LintCode::UseAfterMeasure,
        LintCode::WidthExceeded,
        LintCode::UnmappedOperand,
        LintCode::CalibrationEscape,
        LintCode::UnusedQubit,
        LintCode::UnmeasuredQubit,
        LintCode::NoMeasurements,
        LintCode::ClobberedCbit,
        LintCode::SwapAfterMeasure,
        LintCode::RedundantPair,
        LintCode::ZeroEffectSwap,
        LintCode::DominantWeakLink,
        LintCode::LowEspBound,
        LintCode::ExcessiveIdling,
        LintCode::MissedVqmRoute,
        LintCode::WeakRegionAllocation,
        LintCode::DeadlineInfeasibleJob,
        LintCode::TrialBudgetTooSmall,
        LintCode::PathologicalRoutingBlowup,
        LintCode::ResponseExceedsFrameBudget,
        LintCode::PipelineMissingPrecondition,
        LintCode::PipelineClobberedInvariant,
        LintCode::PipelineUnreachablePass,
        LintCode::PipelineOutputMissing,
    ];

    /// Resolves a `QVnnn` code or a slug name back to its variant.
    ///
    /// # Examples
    ///
    /// ```
    /// use quva_analysis::LintCode;
    ///
    /// assert_eq!(LintCode::from_code("QV001"), Some(LintCode::OffCouplerGate));
    /// assert_eq!(LintCode::from_code("missed-vqm-route"), Some(LintCode::MissedVqmRoute));
    /// assert_eq!(LintCode::from_code("QV999"), None);
    /// ```
    pub fn from_code(s: &str) -> Option<LintCode> {
        LintCode::ALL
            .into_iter()
            .find(|c| c.code().eq_ignore_ascii_case(s) || c.name() == s)
    }
    /// The stable short code, e.g. `QV001`.
    pub fn code(self) -> &'static str {
        match self {
            LintCode::OffCouplerGate => "QV001",
            LintCode::DisabledLinkGate => "QV002",
            LintCode::PermutationMismatch => "QV003",
            LintCode::SequenceMismatch => "QV004",
            LintCode::UseAfterMeasure => "QV005",
            LintCode::WidthExceeded => "QV006",
            LintCode::UnmappedOperand => "QV007",
            LintCode::CalibrationEscape => "QV008",
            LintCode::UnusedQubit => "QV101",
            LintCode::UnmeasuredQubit => "QV102",
            LintCode::NoMeasurements => "QV103",
            LintCode::ClobberedCbit => "QV104",
            LintCode::SwapAfterMeasure => "QV105",
            LintCode::RedundantPair => "QV201",
            LintCode::ZeroEffectSwap => "QV202",
            LintCode::DominantWeakLink => "QV301",
            LintCode::LowEspBound => "QV302",
            LintCode::ExcessiveIdling => "QV303",
            LintCode::MissedVqmRoute => "QV304",
            LintCode::WeakRegionAllocation => "QV305",
            LintCode::DeadlineInfeasibleJob => "QV401",
            LintCode::TrialBudgetTooSmall => "QV402",
            LintCode::PathologicalRoutingBlowup => "QV403",
            LintCode::ResponseExceedsFrameBudget => "QV404",
            LintCode::PipelineMissingPrecondition => "QV501",
            LintCode::PipelineClobberedInvariant => "QV502",
            LintCode::PipelineUnreachablePass => "QV503",
            LintCode::PipelineOutputMissing => "QV504",
        }
    }

    /// The human-readable slug, e.g. `off-coupler-gate`.
    pub fn name(self) -> &'static str {
        match self {
            LintCode::OffCouplerGate => "off-coupler-gate",
            LintCode::DisabledLinkGate => "disabled-link-gate",
            LintCode::PermutationMismatch => "permutation-mismatch",
            LintCode::SequenceMismatch => "sequence-mismatch",
            LintCode::UseAfterMeasure => "use-after-measure",
            LintCode::WidthExceeded => "width-exceeded",
            LintCode::UnmappedOperand => "unmapped-operand",
            LintCode::CalibrationEscape => "calibration-escape",
            LintCode::UnusedQubit => "unused-qubit",
            LintCode::UnmeasuredQubit => "unmeasured-qubit",
            LintCode::NoMeasurements => "no-measurements",
            LintCode::ClobberedCbit => "clobbered-cbit",
            LintCode::SwapAfterMeasure => "swap-after-measure",
            LintCode::RedundantPair => "redundant-pair",
            LintCode::ZeroEffectSwap => "zero-effect-swap",
            LintCode::DominantWeakLink => "dominant-weak-link",
            LintCode::LowEspBound => "low-esp-bound",
            LintCode::ExcessiveIdling => "excessive-idling",
            LintCode::MissedVqmRoute => "missed-vqm-route",
            LintCode::WeakRegionAllocation => "weak-region-allocation",
            LintCode::DeadlineInfeasibleJob => "deadline-infeasible-job",
            LintCode::TrialBudgetTooSmall => "trial-budget-too-small",
            LintCode::PathologicalRoutingBlowup => "pathological-routing-blowup",
            LintCode::ResponseExceedsFrameBudget => "response-exceeds-frame-budget",
            LintCode::PipelineMissingPrecondition => "pipeline-missing-precondition",
            LintCode::PipelineClobberedInvariant => "pipeline-clobbered-invariant",
            LintCode::PipelineUnreachablePass => "pipeline-unreachable-pass",
            LintCode::PipelineOutputMissing => "pipeline-output-missing",
        }
    }

    /// The fixed severity of this code.
    pub fn severity(self) -> Severity {
        match self {
            LintCode::OffCouplerGate
            | LintCode::DisabledLinkGate
            | LintCode::PermutationMismatch
            | LintCode::SequenceMismatch
            | LintCode::UseAfterMeasure
            | LintCode::WidthExceeded
            | LintCode::UnmappedOperand
            | LintCode::CalibrationEscape => Severity::Error,
            // pipeline contract violations are construction bugs: the
            // pipeline cannot produce a legal artifact, so they gate
            LintCode::PipelineMissingPrecondition
            | LintCode::PipelineClobberedInvariant
            | LintCode::PipelineUnreachablePass
            | LintCode::PipelineOutputMissing => Severity::Error,
            LintCode::UnusedQubit
            | LintCode::UnmeasuredQubit
            | LintCode::NoMeasurements
            | LintCode::ClobberedCbit
            | LintCode::SwapAfterMeasure
            | LintCode::RedundantPair
            | LintCode::ZeroEffectSwap
            | LintCode::DominantWeakLink
            | LintCode::LowEspBound
            | LintCode::ExcessiveIdling
            | LintCode::MissedVqmRoute
            | LintCode::WeakRegionAllocation
            | LintCode::DeadlineInfeasibleJob
            | LintCode::TrialBudgetTooSmall
            | LintCode::PathologicalRoutingBlowup
            | LintCode::ResponseExceedsFrameBudget => Severity::Warning,
        }
    }

    /// One-sentence description of what the code reports, as shown by
    /// `quva lint --explain`.
    pub fn description(self) -> &'static str {
        match self {
            LintCode::OffCouplerGate => {
                "a two-qubit gate addresses a pair of physical qubits with no coupler between them"
            }
            LintCode::DisabledLinkGate => {
                "a two-qubit gate addresses a coupler that exists but has been disabled (a dead link)"
            }
            LintCode::PermutationMismatch => {
                "replaying the compiled SWAPs from the initial mapping does not reproduce the claimed \
                 final mapping"
            }
            LintCode::SequenceMismatch => {
                "the compiled gate stream is not the logical program under the evolving qubit mapping"
            }
            LintCode::UseAfterMeasure => "a qubit is operated on after it has been measured",
            LintCode::WidthExceeded => {
                "the circuit needs more qubits than the device provides, or a mapping's shape does not \
                 match the circuit/device it claims to connect"
            }
            LintCode::UnmappedOperand => {
                "a physical gate operates on a location no program qubit occupies at that point"
            }
            LintCode::CalibrationEscape => {
                "an invalid calibration value escaped sanitization and is visible to policy code"
            }
            LintCode::UnusedQubit => "a register qubit is allocated but never referenced by any gate",
            LintCode::UnmeasuredQubit => {
                "a used qubit is never measured although the circuit measures others"
            }
            LintCode::NoMeasurements => "the circuit contains no measurements at all",
            LintCode::ClobberedCbit => {
                "two measurements write the same classical bit; the first result is lost"
            }
            LintCode::SwapAfterMeasure => "a SWAP moves a qubit that has already been measured",
            LintCode::RedundantPair => "two adjacent gates cancel each other exactly",
            LintCode::ZeroEffectSwap => {
                "a SWAP whose effect is unobservable: neither operand is used or measured afterwards"
            }
            LintCode::DominantWeakLink => {
                "a single coupling link dominates the circuit's static failure weight"
            }
            LintCode::LowEspBound => "the whole-circuit static ESP upper bound is below the success floor",
            LintCode::ExcessiveIdling => {
                "a qubit idles long enough between gates for T1 decoherence to become a material \
                 failure source"
            }
            LintCode::MissedVqmRoute => {
                "a router-inserted SWAP chain is measurably less reliable than the best path on the \
                 live device"
            }
            LintCode::WeakRegionAllocation => {
                "the allocated physical region is substantially weaker than the strongest same-size \
                 region on the device"
            }
            LintCode::DeadlineInfeasibleJob => {
                "even the optimistic bound of the static cost envelope exceeds the job's deadline"
            }
            LintCode::TrialBudgetTooSmall => {
                "the trial budget cannot reach the requested confidence-interval width"
            }
            LintCode::PathologicalRoutingBlowup => {
                "worst-case SWAP overhead on this topology dwarfs the source program"
            }
            LintCode::ResponseExceedsFrameBudget => {
                "the pessimistic bound of the rendered-response size exceeds the wire protocol's \
                 frame budget"
            }
            LintCode::PipelineMissingPrecondition => {
                "a compile pass requires an invariant that no earlier pass in the pipeline establishes"
            }
            LintCode::PipelineClobberedInvariant => {
                "a compile pass requires an invariant that an earlier pass established but an \
                 intermediate pass then destroyed"
            }
            LintCode::PipelineUnreachablePass => {
                "a compile pass neither establishes a new invariant nor disturbs a live one: it is \
                 dead in this pipeline"
            }
            LintCode::PipelineOutputMissing => {
                "the pipeline terminates without establishing the invariant a compiled output needs"
            }
        }
    }

    /// Why the code matters — the consequence of ignoring it, as shown
    /// by `quva lint --explain`.
    pub fn rationale(self) -> &'static str {
        match self {
            LintCode::OffCouplerGate | LintCode::DisabledLinkGate => {
                "the hardware cannot execute the gate: the run would be rejected or silently rerouted \
                 by the vendor stack"
            }
            LintCode::PermutationMismatch | LintCode::SequenceMismatch | LintCode::UnmappedOperand => {
                "the compiled circuit computes a different function than the source program — every \
                 downstream PST number would describe the wrong circuit"
            }
            LintCode::UseAfterMeasure | LintCode::SwapAfterMeasure => {
                "operations after measurement cannot affect the recorded outcome; the gate is wasted \
                 or the measurement is misplaced"
            }
            LintCode::WidthExceeded => "the artifact cannot be placed on the device at all",
            LintCode::CalibrationEscape => {
                "policy code consuming NaN or out-of-range rates produces unreliable mappings"
            }
            LintCode::UnusedQubit
            | LintCode::UnmeasuredQubit
            | LintCode::NoMeasurements
            | LintCode::ClobberedCbit => {
                "results are dropped or qubits wasted; usually a program-generation bug"
            }
            LintCode::RedundantPair | LintCode::ZeroEffectSwap => {
                "pure overhead: extra error exposure with no observable effect"
            }
            LintCode::DominantWeakLink => {
                "rerouting around one link (or re-allocating away from it) would recover most of the \
                 lost success probability — the cheapest reliability fix available"
            }
            LintCode::LowEspBound => {
                "trials are mostly noise at this success rate; shrink the circuit or improve the \
                 mapping before spending shots"
            }
            LintCode::ExcessiveIdling => {
                "idle decoherence is unmodelled by gate-error-only policies; scheduling the qubit \
                 later or compacting the critical path recovers fidelity"
            }
            LintCode::MissedVqmRoute => {
                "a variability-aware router (VQM) would have found a more reliable chain within the \
                 hop budget — the gap is free PST"
            }
            LintCode::WeakRegionAllocation => {
                "a variability-aware allocator (VQA) would have placed the program on a stronger \
                 subgraph — the gap is free PST"
            }
            LintCode::DeadlineInfeasibleJob => {
                "running the job would burn a worker slot only to miss the deadline anyway; reject \
                 it at admission and let the client resize or re-budget"
            }
            LintCode::TrialBudgetTooSmall => {
                "the Monte-Carlo estimate will be wider than the requested interval — either raise \
                 the trial budget or relax the width before spending compute"
            }
            LintCode::PathologicalRoutingBlowup => {
                "the cost envelope degenerates on long-diameter topologies; pick a denser device or \
                 shrink the program before trusting static admission decisions"
            }
            LintCode::ResponseExceedsFrameBudget => {
                "a response the daemon cannot frame is indistinguishable from a failed job to the \
                 client; trim the workload or raise the frame budget"
            }
            LintCode::PipelineMissingPrecondition => {
                "the pass would run on state that does not exist — catching it statically turns a \
                 runtime compile failure into a construction-time rejection"
            }
            LintCode::PipelineClobberedInvariant => {
                "the pass would consume state a reordered pass already invalidated; reorder the \
                 pipeline so consumers run before clobberers"
            }
            LintCode::PipelineUnreachablePass => {
                "a dead pass burns compile time for no effect and usually means a duplicated or \
                 misplaced stage; delete or move it"
            }
            LintCode::PipelineOutputMissing => {
                "running the pipeline could only ever fail — no sequence of these passes produces a \
                 routed circuit to return"
            }
        }
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.code())
    }
}

/// A gate-index range in the analyzed circuit: `start..=end` in gate
/// (instruction) order. A single-gate finding has `start == end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Span {
    /// First gate index (0-based, inclusive).
    pub start: usize,
    /// Last gate index (0-based, inclusive).
    pub end: usize,
}

impl Span {
    /// A span covering exactly one gate.
    pub fn gate(index: usize) -> Self {
        Span {
            start: index,
            end: index,
        }
    }

    /// A span covering `start..=end`.
    pub fn range(start: usize, end: usize) -> Self {
        Span {
            start: start.min(end),
            end: start.max(end),
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.start == self.end {
            write!(f, "gate {}", self.start)
        } else {
            write!(f, "gates {}-{}", self.start, self.end)
        }
    }
}

/// One finding of one pass: a stable code, an optional gate-index span
/// (device-level findings have none), and a human-readable message.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    code: LintCode,
    span: Option<Span>,
    message: String,
}

impl Diagnostic {
    /// Builds a diagnostic; the severity comes from the code.
    pub fn new(code: LintCode, span: Option<Span>, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            span,
            message: message.into(),
        }
    }

    /// The stable lint code.
    pub fn code(&self) -> LintCode {
        self.code
    }

    /// The severity (fixed per code).
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }

    /// The gate-index span, if the finding is anchored to gates.
    pub fn span(&self) -> Option<Span> {
        self.span
    }

    /// The human-readable explanation.
    pub fn message(&self) -> &str {
        &self.message
    }

    /// The diagnostic as a single-line JSON object — the shared schema
    /// of `Report::render_json` and the audit report.
    pub(crate) fn json_object(&self) -> String {
        let span = match self.span {
            Some(s) => format!("{{\"start\": {}, \"end\": {}}}", s.start, s.end),
            None => "null".to_string(),
        };
        format!(
            "{{\"code\": \"{}\", \"name\": \"{}\", \"severity\": \"{}\", \"span\": {}, \"message\": \"{}\"}}",
            self.code.code(),
            self.code.name(),
            self.severity(),
            span,
            json_escape(&self.message)
        )
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{} {}]",
            self.severity(),
            self.code.code(),
            self.code.name()
        )?;
        if let Some(span) = self.span {
            write!(f, " @ {span}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// The aggregated outcome of running a set of passes: every diagnostic
/// plus the names of the passes that ran (so "clean" is distinguishable
/// from "nothing ran").
#[derive(Debug, Clone, Default)]
pub struct Report {
    diagnostics: Vec<Diagnostic>,
    passes: Vec<&'static str>,
}

impl Report {
    /// Builds a report from raw parts.
    pub fn new(diagnostics: Vec<Diagnostic>, passes: Vec<&'static str>) -> Self {
        Report { diagnostics, passes }
    }

    /// Every diagnostic, in pass order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// The names of the passes that produced this report.
    pub fn passes(&self) -> &[&'static str] {
        &self.passes
    }

    /// Number of error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Error)
            .count()
    }

    /// Number of warning-severity diagnostics.
    pub fn warning_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Warning)
            .count()
    }

    /// Whether the report carries no errors (warnings allowed). This is
    /// the CI / `quva lint` pass criterion.
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }

    /// Whether any diagnostic carries the given code.
    pub fn has_code(&self, code: LintCode) -> bool {
        self.diagnostics.iter().any(|d| d.code() == code)
    }

    /// The diagnostics carrying a given code.
    pub fn with_code(&self, code: LintCode) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.code() == code).collect()
    }

    /// Merges another report into this one: diagnostics and pass names
    /// concatenate (rendering re-sorts diagnostics anyway).
    pub fn merge(mut self, other: Report) -> Report {
        self.diagnostics.extend(other.diagnostics);
        self.passes.extend(other.passes);
        self
    }

    /// The diagnostics in the deterministic rendering order: by span
    /// (gate-anchored findings first, in gate order), then code, then
    /// message. Both renderers use this order, so reports are
    /// byte-stable across runs regardless of pass scheduling.
    pub fn ordered(&self) -> Vec<&Diagnostic> {
        let mut v: Vec<&Diagnostic> = self.diagnostics.iter().collect();
        v.sort_by(|a, b| {
            let key = |d: &Diagnostic| {
                let (s, e) = d.span().map_or((usize::MAX, usize::MAX), |s| (s.start, s.end));
                (s, e, d.code().code())
            };
            key(a).cmp(&key(b)).then_with(|| a.message().cmp(b.message()))
        });
        v
    }

    /// Renders the report as human-readable text, one diagnostic per
    /// line plus a summary line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in self.ordered() {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        let summary = format!(
            "{} error(s), {} warning(s) from {} pass(es)",
            self.error_count(),
            self.warning_count(),
            self.passes.len()
        );
        if self.diagnostics.is_empty() {
            out.push_str(&format!(
                "clean: no diagnostics from {} pass(es)\n",
                self.passes.len()
            ));
        } else {
            out.push_str(&summary);
            out.push('\n');
        }
        out
    }

    /// Renders the report as a JSON document (hand-rolled, mirroring
    /// the dependency policy of `quva-device::snapshot`).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"diagnostics\": [");
        for (i, d) in self.ordered().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            out.push_str(&d.json_object());
        }
        if !self.diagnostics.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        out.push_str(&format!("  \"errors\": {},\n", self.error_count()));
        out.push_str(&format!("  \"warnings\": {},\n", self.warning_count()));
        out.push_str("  \"passes\": [");
        for (i, p) in self.passes.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\"", json_escape(p)));
        }
        out.push_str("]\n}\n");
        out
    }

    pub(crate) fn record_pass(&mut self, name: &'static str) {
        self.passes.push(name);
    }

    pub(crate) fn extend(&mut self, diagnostics: Vec<Diagnostic>) {
        self.diagnostics.extend(diagnostics);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report::new(
            vec![
                Diagnostic::new(
                    LintCode::OffCouplerGate,
                    Some(Span::gate(3)),
                    "cx Q0, Q7 has no coupler",
                ),
                Diagnostic::new(LintCode::RedundantPair, Some(Span::range(5, 4)), "h/h cancels"),
                Diagnostic::new(LintCode::CalibrationEscape, None, "link 2 error is NaN"),
            ],
            vec!["coupler-legality", "redundancy", "calibration-sanity"],
        )
    }

    #[test]
    fn codes_are_stable_and_unique() {
        let all = LintCode::ALL;
        let mut codes: Vec<&str> = all.iter().map(|c| c.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), all.len(), "duplicate lint codes");
        // the three seeded-corruption codes are distinct and fixed
        assert_eq!(LintCode::OffCouplerGate.code(), "QV001");
        assert_eq!(LintCode::PermutationMismatch.code(), "QV003");
        assert_eq!(LintCode::UseAfterMeasure.code(), "QV005");
        // the reliability block is appended, never renumbered
        assert_eq!(LintCode::DominantWeakLink.code(), "QV301");
        assert_eq!(LintCode::WeakRegionAllocation.code(), "QV305");
    }

    #[test]
    fn from_code_resolves_codes_and_slugs() {
        for c in LintCode::ALL {
            assert_eq!(LintCode::from_code(c.code()), Some(c));
            assert_eq!(LintCode::from_code(c.name()), Some(c));
        }
        assert_eq!(LintCode::from_code("qv304"), Some(LintCode::MissedVqmRoute));
        assert_eq!(LintCode::from_code("QV999"), None);
        assert_eq!(LintCode::from_code(""), None);
    }

    #[test]
    fn every_code_has_explanation_text() {
        for c in LintCode::ALL {
            assert!(!c.description().is_empty(), "{} lacks a description", c.code());
            assert!(!c.rationale().is_empty(), "{} lacks a rationale", c.code());
        }
    }

    #[test]
    fn rendering_sorts_by_span_then_code() {
        // built in deliberately scrambled order
        let r = Report::new(
            vec![
                Diagnostic::new(LintCode::RedundantPair, Some(Span::gate(9)), "late"),
                Diagnostic::new(LintCode::CalibrationEscape, None, "device-level"),
                Diagnostic::new(LintCode::ZeroEffectSwap, Some(Span::gate(2)), "zes"),
                Diagnostic::new(LintCode::OffCouplerGate, Some(Span::gate(2)), "ocg"),
            ],
            vec!["p"],
        );
        let order: Vec<&str> = r.ordered().iter().map(|d| d.code().code()).collect();
        assert_eq!(order, ["QV001", "QV202", "QV201", "QV008"]);
        // text follows the same order
        let text = r.render_text();
        let first = text.find("QV001").unwrap();
        let last = text.find("QV008").unwrap();
        assert!(first < last, "{text}");
    }

    #[test]
    fn merge_concatenates_reports() {
        let a = Report::new(
            vec![Diagnostic::new(LintCode::UnusedQubit, None, "a")],
            vec!["pass-a"],
        );
        let b = Report::new(
            vec![Diagnostic::new(LintCode::OffCouplerGate, None, "b")],
            vec!["pass-b"],
        );
        let merged = a.merge(b);
        assert_eq!(merged.diagnostics().len(), 2);
        assert_eq!(merged.passes(), ["pass-a", "pass-b"]);
        assert_eq!(merged.error_count(), 1);
    }

    #[test]
    fn severity_policy() {
        assert_eq!(LintCode::OffCouplerGate.severity(), Severity::Error);
        assert_eq!(LintCode::DisabledLinkGate.severity(), Severity::Error);
        assert_eq!(LintCode::UnusedQubit.severity(), Severity::Warning);
        assert!(Severity::Error > Severity::Warning);
    }

    #[test]
    fn report_counts_and_cleanliness() {
        let r = sample();
        assert_eq!(r.error_count(), 2);
        assert_eq!(r.warning_count(), 1);
        assert!(!r.is_clean());
        assert!(r.has_code(LintCode::OffCouplerGate));
        assert!(!r.has_code(LintCode::UseAfterMeasure));
        assert_eq!(r.with_code(LintCode::RedundantPair).len(), 1);
        let clean = Report::new(vec![], vec!["coupler-legality"]);
        assert!(clean.is_clean());
    }

    #[test]
    fn text_rendering() {
        let text = sample().render_text();
        assert!(text.contains("error[QV001 off-coupler-gate] @ gate 3"), "{text}");
        assert!(
            text.contains("warning[QV201 redundant-pair] @ gates 4-5"),
            "{text}"
        );
        assert!(
            text.contains("2 error(s), 1 warning(s) from 3 pass(es)"),
            "{text}"
        );
        let clean = Report::new(vec![], vec!["a", "b"]).render_text();
        assert!(clean.contains("clean"), "{clean}");
    }

    #[test]
    fn json_rendering() {
        let json = sample().render_json();
        assert!(json.contains("\"code\": \"QV001\""), "{json}");
        assert!(json.contains("\"severity\": \"error\""), "{json}");
        assert!(json.contains("\"span\": {\"start\": 3, \"end\": 3}"), "{json}");
        assert!(json.contains("\"span\": null"), "{json}");
        assert!(json.contains("\"errors\": 2"), "{json}");
        assert!(json.contains("\"passes\": [\"coupler-legality\""), "{json}");
    }

    #[test]
    fn json_escapes_strings() {
        let r = Report::new(
            vec![Diagnostic::new(
                LintCode::NoMeasurements,
                None,
                "a \"quoted\"\nline\\path",
            )],
            vec![],
        );
        let json = r.render_json();
        assert!(json.contains("a \\\"quoted\\\"\\nline\\\\path"), "{json}");
    }

    #[test]
    fn span_display_and_normalization() {
        assert_eq!(Span::gate(7).to_string(), "gate 7");
        assert_eq!(Span::range(9, 2), Span { start: 2, end: 9 });
    }
}
