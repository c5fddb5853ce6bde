//! Static cost-envelope analysis: WCET-style resource bounds for a job
//! before it runs.
//!
//! The paper's argument is that calibration-derived *static* estimates
//! are good enough to drive policy decisions without executing the
//! program; [`crate::passes::esp`] proved that for reliability, and
//! this module repeats the move for *cost*. From nothing but the
//! source circuit, the device (its distance matrix bounds worst-case
//! SWAP insertion), a requested trial budget, and a handful of
//! calibrated coefficients, it derives a [`CostEnvelope`]: closed
//! `[lo, hi]` intervals on compile time, Monte-Carlo time, peak
//! memory, and rendered-response size.
//!
//! The envelope is deliberately wide — `lo` divides and `hi`
//! multiplies by a documented slack factor ([`CostModel::mc_slack`],
//! [`CostModel::compile_slack`]) so that the bound holds across CI
//! hosts of very different speeds — but it is *sound enough to act
//! on*: quvad rejects a job whose **optimistic** total already
//! exceeds its deadline (the typed `infeasible` response), weighs
//! shed decisions by predicted cost, and derives `retry_after_ms`
//! from the predicted queue drain. The `bench_sim` / `bench_serve`
//! harnesses close the calibrate-predict-verify loop by gating that
//! measured wall-clock actually falls inside the envelope.
//!
//! Coefficients calibrate against the committed `BENCH_sim.json`
//! baseline via [`CostModel::from_bench`]; the defaults are derived
//! from the same baseline and keep the analysis usable without the
//! file. Envelopes are not memoized. Their one costly input, the hop
//! matrix, is built once per `Device` and shared with the compile that
//! follows; the rest takes about a microsecond on q20, less than
//! fingerprinting the device and circuit to key a memo.

use quva_circuit::{Circuit, Gate};
use quva_device::Device;

use crate::diagnostic::{Diagnostic, LintCode};
use crate::pass::{CompiledContext, CompiledPass};

/// A closed `[lo, hi]` bound on one scalar resource (nanoseconds or
/// bytes, by context). `lo ≤ hi` always; both are non-negative.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostInterval {
    /// Optimistic bound.
    pub lo: f64,
    /// Pessimistic bound.
    pub hi: f64,
}

impl CostInterval {
    /// The interval `[0, 0]`: no cost.
    pub fn zero() -> Self {
        CostInterval { lo: 0.0, hi: 0.0 }
    }

    /// A degenerate interval at one value.
    pub fn point(v: f64) -> Self {
        CostInterval { lo: v, hi: v }
    }

    /// Interval sum (costs of independent stages add).
    pub fn add(&self, other: &CostInterval) -> CostInterval {
        CostInterval {
            lo: self.lo + other.lo,
            hi: self.hi + other.hi,
        }
    }

    /// Whether `v` lies within `[lo, hi]`.
    pub fn contains(&self, v: f64) -> bool {
        self.lo <= v && v <= self.hi
    }
}

/// The Monte-Carlo fault events one gate contributes per trial: a SWAP
/// is three CNOT-equivalents (the simulator's failure model), a
/// barrier is free, everything else is one event.
fn event_weight<Q>(gate: &Gate<Q>) -> u64 {
    match gate {
        Gate::Barrier { .. } => 0,
        Gate::Swap { .. } => 3,
        _ => 1,
    }
}

/// Total Monte-Carlo fault events one trial of `circuit` generates:
/// the per-gate event weights summed over the whole program (a SWAP is
/// 3, a barrier 0, anything else 1). Callers calibrating
/// [`CostModel::from_bench`] use this on the *compiled* baseline
/// circuit to turn measured ns-per-trial into ns-per-event.
pub fn total_events<Q: quva_circuit::QubitId>(circuit: &Circuit<Q>) -> u64 {
    circuit.gates().iter().map(event_weight).sum()
}

/// Calibrated coefficients of the cost model, plus the documented
/// slack factors that widen point predictions into sound envelopes.
///
/// The defaults are derived from the committed `BENCH_sim.json`
/// baseline's bit-parallel row (≈ 8 ns/trial for bv-16 on IBM-Q20,
/// ≈ 72 fault events per trial); [`CostModel::from_bench`] re-derives
/// `ns_per_event` from a measured baseline file so the model tracks
/// the host it gates on. The scalar oracle is ~10x slower than this
/// rate — `mc_slack` comfortably covers it, so envelopes stay sound
/// for jobs explicitly pinned to the scalar kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Nanoseconds one Monte-Carlo fault event costs (per trial).
    pub ns_per_event: f64,
    /// Nanoseconds one unit of routing work costs (one gate emission
    /// or one hop examined by the router).
    pub ns_per_route_unit: f64,
    /// Documented slack factor of the Monte-Carlo envelope: `lo`
    /// divides by it, `hi` multiplies — the band absorbs host-speed
    /// variance between the calibration run and the gated run.
    pub mc_slack: f64,
    /// Documented slack factor of the compile envelope. Wider than
    /// [`CostModel::mc_slack`]: routing work is bounded, not modelled.
    pub compile_slack: f64,
    /// Bytes of peak working set one fault-table event costs.
    pub bytes_per_event: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            ns_per_event: 0.12,
            ns_per_route_unit: 40.0,
            mc_slack: 16.0,
            compile_slack: 64.0,
            bytes_per_event: 16.0,
        }
    }
}

impl CostModel {
    /// Calibrates `ns_per_event` against a `BENCH_sim.json` document:
    /// the committed baseline's per-trial cost of the *production*
    /// Monte-Carlo path divided by the fault events per trial of the
    /// baseline workload (bv-16 on IBM-Q20, which the caller counts
    /// via [`total_events`] on the compiled circuit). All other
    /// coefficients keep their defaults.
    ///
    /// Schema `quva-bench-sim/v2` calibrates on the `bitparallel` row
    /// (the default kernel everything downstream runs); pre-kernel
    /// `v1` baselines calibrate on their `sequential` row, which timed
    /// the then-default scalar loop.
    pub fn from_bench(json: &str, events_per_trial: f64) -> Result<CostModel, String> {
        if !events_per_trial.is_finite() || events_per_trial <= 0.0 {
            return Err("events_per_trial must be positive".to_string());
        }
        let doc = quva_obs::parse_json(json)?;
        let schema = doc.get("schema").and_then(|v| v.as_str()).unwrap_or("");
        let row_name = match schema {
            "quva-bench-sim/v2" => "bitparallel",
            "quva-bench-sim/v1" => "sequential",
            _ => return Err(format!("unsupported bench schema {schema:?}")),
        };
        let rows = doc
            .get("results")
            .and_then(|v| v.as_arr())
            .ok_or_else(|| "missing results array".to_string())?;
        let row = rows
            .iter()
            .find(|r| r.get("name").and_then(|n| n.as_str()) == Some(row_name))
            .ok_or_else(|| format!("missing {row_name} row"))?;
        let ns_per_trial = row
            .get("ns_per_trial")
            .and_then(|v| v.as_f64())
            .filter(|v| *v > 0.0)
            .ok_or_else(|| format!("{row_name} row lacks a positive ns_per_trial"))?;
        Ok(CostModel {
            ns_per_event: ns_per_trial / events_per_trial,
            ..CostModel::default()
        })
    }
}

/// The most fault events the optimistic Monte-Carlo bound charges one
/// trial: the rows of one block of the bit-parallel kernel
/// (`quva_sim::BITPARALLEL_BLOCK_ROWS`, which a test keeps equal). A
/// 64-trial word stops once all its trials have failed, checking after
/// each block, so a hopeless circuit costs about one block per word
/// however long it is; only the first block is certain work.
const MC_EVENTS_LO_CAP: u64 = 32;

/// Fixed pessimistic overhead added to the Monte-Carlo `hi` bound:
/// profile construction, chunk scheduling, and thread spawn are paid
/// once per run regardless of the trial budget.
const MC_FIXED_OVERHEAD_NS: f64 = 20_000_000.0;

/// Fixed pessimistic overhead added to the compile `hi` bound:
/// allocation scoring and IR bookkeeping paid once per compile.
const COMPILE_FIXED_OVERHEAD_NS: f64 = 50_000_000.0;

/// The wire protocol's frame budget ([`ResponseExceedsFrameBudget`]
/// fires when the pessimistic response-size bound exceeds it). Kept
/// equal to `quva_serve::MAX_FRAME_BYTES` by a cross-crate test.
pub const FRAME_BUDGET_BYTES: f64 = 64.0 * 1024.0;

/// Static `[lo, hi]` resource bounds for compiling and simulating one
/// circuit on one device, before either happens.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEnvelope {
    /// Wall-clock bound on compilation (allocation + routing), ns.
    pub compile_ns: CostInterval,
    /// Wall-clock bound on the Monte-Carlo estimate at the requested
    /// trial budget, ns (`[0, 0]` when no trials are requested). `lo`
    /// charges each trial at most one kernel block of events, because
    /// a word whose trials have all failed stops early; `hi` charges
    /// every event.
    pub mc_ns: CostInterval,
    /// Peak working-set bound (fault table + chunk buffers), bytes.
    pub peak_bytes: CostInterval,
    /// Rendered-response size bound, bytes.
    pub response_bytes: CostInterval,
    /// Fault events per trial: `lo` assumes routing inserts no SWAPs,
    /// `hi` assumes every two-qubit gate pays the device-diameter
    /// worst case.
    pub events_lo: u64,
    /// See [`CostEnvelope::events_lo`].
    pub events_hi: u64,
    /// The trial budget the Monte-Carlo bound was computed for.
    pub trials: u64,
}

impl CostEnvelope {
    /// End-to-end wall-clock bound: compile plus Monte-Carlo.
    pub fn total_ns(&self) -> CostInterval {
        self.compile_ns.add(&self.mc_ns)
    }

    /// Whether a deadline is *statically infeasible*: even the
    /// optimistic total exceeds it. This is the admission criterion —
    /// rejecting on `lo` (never on `hi`) keeps false rejections out of
    /// the fast path no matter how loose the pessimistic bound is.
    pub fn infeasible_for(&self, deadline_ms: u64) -> bool {
        self.total_ns().lo > deadline_ms as f64 * 1e6
    }

    /// The optimistic end-to-end prediction in whole milliseconds
    /// (rounded up so a nonzero prediction never reads as 0 ms).
    pub fn predicted_ms_lo(&self) -> u64 {
        (self.total_ns().lo / 1e6).ceil() as u64
    }
}

/// Computes the static cost envelope of `circuit` on `device` at a
/// trial budget.
pub fn cost_envelope(device: &Device, circuit: &Circuit, trials: u64, model: &CostModel) -> CostEnvelope {
    let _span = quva_obs::span("cost", "envelope");
    let hops = device.hop_matrix();
    let n = device.num_qubits() as u64;
    // Unreachable pairs report a sentinel distance; a connected route
    // never exceeds n−1 hops, so the worst-case bound caps there.
    let diameter = u64::from(hops.diameter()).min(n.saturating_sub(1));
    let worst_swaps_per_gate = diameter.saturating_sub(1);

    let base_events = total_events(circuit);
    let g2 = circuit.two_qubit_gate_count() as u64;
    let ops = circuit.op_count() as u64;
    let events_lo = base_events;
    let events_hi = base_events + g2 * worst_swaps_per_gate * 3;

    let mc_ns = if trials == 0 {
        CostInterval::zero()
    } else {
        CostInterval {
            lo: trials as f64 * events_lo.min(MC_EVENTS_LO_CAP) as f64 * model.ns_per_event / model.mc_slack,
            hi: trials as f64 * events_hi as f64 * model.ns_per_event * model.mc_slack + MC_FIXED_OVERHEAD_NS,
        }
    };

    // Routing work: every candidate allocation (bounded by the device
    // size) may route every emitted gate (source ops plus worst-case
    // inserted SWAPs), each examining up to `diameter` hops.
    let emitted_hi = ops + g2 * worst_swaps_per_gate;
    let route_units_hi = n.max(1) * emitted_hi * diameter.max(1);
    let compile_ns = CostInterval {
        lo: ops as f64 * model.ns_per_route_unit / model.compile_slack,
        hi: route_units_hi as f64 * model.ns_per_route_unit * model.compile_slack + COMPILE_FIXED_OVERHEAD_NS,
    };

    let peak_bytes = CostInterval {
        lo: events_lo as f64 * 8.0,
        hi: events_hi as f64 * model.bytes_per_event + 65_536.0,
    };

    // Response size: the audit kind is the largest renderer — a fixed
    // head, per-qubit reliability rows, and up to one finding per
    // source op (plus one per qubit for device-level findings).
    let response_bytes = CostInterval {
        lo: 64.0,
        hi: 512.0 + n as f64 * 96.0 + (ops + n) as f64 * 96.0,
    };

    CostEnvelope {
        compile_ns,
        mc_ns,
        peak_bytes,
        response_bytes,
        events_lo,
        events_hi,
        trials,
    }
}

/// The former name of [`cost_envelope`], kept for callers that still
/// use it.
pub use self::cost_envelope as envelope_of;

/// QV403 fires when worst-case SWAP events exceed this multiple of the
/// source program's own events.
const SWAP_BLOWUP_RATIO: f64 = 16.0;

/// The QV4xx cost-budget pass: evaluates the static cost envelope of
/// the *source* program against the configured budgets.
///
/// QV401 (deadline) and QV402 (trial budget vs CI width) only fire
/// when the corresponding budget is configured — the standard
/// registry runs with both unset, so plain `quva lint` / `quva audit`
/// stay quiet about budgets nobody declared. QV403 and QV404 guard
/// intrinsic pathologies and are always armed.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostBudget {
    /// The cost model to evaluate under.
    pub model: CostModel,
    /// Deadline to check the envelope against (QV401); `None` disables.
    pub deadline_ms: Option<u64>,
    /// Trial budget of the job under audit (QV401's Monte-Carlo term
    /// and QV402's sample size); `None` means compile-only.
    pub trials: Option<u64>,
    /// Requested 95 % confidence-interval half-width (QV402); `None`
    /// disables.
    pub ci_half_width: Option<f64>,
}

impl CostBudget {
    /// The trials needed for a 95 % CI half-width of `w` at the
    /// worst-case success rate p = 0.5: `n ≥ (1/w)²` (half-width
    /// ≈ 2·√(p(1−p)/n) = 1/√n).
    pub fn trials_needed(w: f64) -> u64 {
        if w <= 0.0 {
            return u64::MAX;
        }
        (1.0 / (w * w)).ceil() as u64
    }
}

impl CompiledPass for CostBudget {
    fn name(&self) -> &'static str {
        "cost-budget"
    }

    fn codes(&self) -> &'static [LintCode] {
        &[
            LintCode::DeadlineInfeasibleJob,
            LintCode::TrialBudgetTooSmall,
            LintCode::PathologicalRoutingBlowup,
            LintCode::ResponseExceedsFrameBudget,
        ]
    }

    fn run(&self, cx: &CompiledContext<'_>, out: &mut Vec<Diagnostic>) {
        let trials = self.trials.unwrap_or(0);
        let envelope = cost_envelope(cx.device, cx.source, trials, &self.model);

        if let Some(deadline_ms) = self.deadline_ms {
            if envelope.infeasible_for(deadline_ms) {
                out.push(Diagnostic::new(
                    LintCode::DeadlineInfeasibleJob,
                    None,
                    format!(
                        "optimistic cost bound {} ms exceeds the {} ms deadline (compile ≥ {:.0} ns, \
                         {} trials ≥ {:.0} ns)",
                        envelope.predicted_ms_lo(),
                        deadline_ms,
                        envelope.compile_ns.lo,
                        trials,
                        envelope.mc_ns.lo,
                    ),
                ));
            }
        }

        if let (Some(trials), Some(w)) = (self.trials, self.ci_half_width) {
            let needed = CostBudget::trials_needed(w);
            if trials < needed {
                out.push(Diagnostic::new(
                    LintCode::TrialBudgetTooSmall,
                    None,
                    format!(
                        "{trials} trials cannot reach a ±{w} CI half-width; ≥ {needed} trials needed \
                         at worst-case variance"
                    ),
                ));
            }
        }

        let swap_events_hi = envelope.events_hi - envelope.events_lo;
        if envelope.events_lo > 0 && swap_events_hi as f64 > SWAP_BLOWUP_RATIO * envelope.events_lo as f64 {
            out.push(Diagnostic::new(
                LintCode::PathologicalRoutingBlowup,
                None,
                format!(
                    "worst-case routing adds {swap_events_hi} fault events to a {}-event program \
                     (> {}x): the topology's diameter makes static admission bounds degenerate",
                    envelope.events_lo, SWAP_BLOWUP_RATIO,
                ),
            ));
        }

        if envelope.response_bytes.hi > FRAME_BUDGET_BYTES {
            out.push(Diagnostic::new(
                LintCode::ResponseExceedsFrameBudget,
                None,
                format!(
                    "pessimistic response bound {:.0} B exceeds the {:.0} B frame budget",
                    envelope.response_bytes.hi, FRAME_BUDGET_BYTES,
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass::CompiledContext;
    use quva::MappingPolicy;
    use quva_benchmarks::Benchmark;
    use quva_device::{Device, Topology};

    fn envelope_for(bench: &Benchmark, device: &Device, trials: u64) -> CostEnvelope {
        cost_envelope(device, bench.circuit(), trials, &CostModel::default())
    }

    #[test]
    fn intervals_are_ordered_and_contain_the_point() {
        let device = Device::ibm_q20();
        let e = envelope_for(&Benchmark::bv(16), &device, 100_000);
        for iv in [e.compile_ns, e.mc_ns, e.peak_bytes, e.response_bytes] {
            assert!(iv.lo >= 0.0 && iv.lo <= iv.hi, "{iv:?}");
        }
        assert!(e.events_lo <= e.events_hi);
        assert!(e.total_ns().lo >= e.compile_ns.lo);
    }

    #[test]
    fn zero_trials_zeroes_the_mc_term() {
        let device = Device::ibm_q20();
        let e = envelope_for(&Benchmark::bv(16), &device, 0);
        assert_eq!(e.mc_ns, CostInterval::zero());
        assert!(e.compile_ns.hi > 0.0);
    }

    #[test]
    fn mc_bound_scales_with_trials() {
        let device = Device::ibm_q20();
        let small = envelope_for(&Benchmark::bv(16), &device, 1_000);
        let large = envelope_for(&Benchmark::bv(16), &device, 1_000_000);
        assert!(large.mc_ns.lo > small.mc_ns.lo * 500.0);
        assert!(large.mc_ns.hi > small.mc_ns.hi);
    }

    #[test]
    fn events_bound_contains_the_compiled_reality() {
        // The pre-compile event interval must contain the events the
        // compiled circuit actually produces, for every policy.
        let device = Device::ibm_q20();
        for bench in quva_benchmarks::table1_suite() {
            let e = envelope_for(&bench, &device, 0);
            for policy in [
                MappingPolicy::baseline(),
                MappingPolicy::vqm(),
                MappingPolicy::vqm_hop_limited(),
                MappingPolicy::vqa_vqm(),
            ] {
                let compiled = policy
                    .compile(bench.circuit(), &device)
                    .unwrap_or_else(|err| panic!("{} / {}: {err}", policy.name(), bench.name()));
                let actual: u64 = compiled.physical().gates().iter().map(event_weight).sum();
                assert!(
                    e.events_lo <= actual && actual <= e.events_hi,
                    "{} / {}: {actual} outside [{}, {}]",
                    policy.name(),
                    bench.name(),
                    e.events_lo,
                    e.events_hi,
                );
            }
        }
    }

    #[test]
    fn optimistic_mc_bound_charges_one_kernel_block_per_trial() {
        let device = Device::ibm_q20();
        let model = CostModel::default();
        // bv-8's 30 events fit in one block, so all of them are charged
        let short = envelope_for(&Benchmark::bv(8), &device, 1_000_000);
        assert_eq!(short.events_lo, 30);
        let per_event = 1_000_000.0 * model.ns_per_event / model.mc_slack;
        assert!((short.mc_ns.lo - 30.0 * per_event).abs() < 1e-6);
        // a long program is charged one block, but `hi` keeps every event
        let long = envelope_for(&Benchmark::rnd_sd(20, 4_000, 1), &device, 1_000_000);
        assert!(long.events_lo > 4_000);
        assert!((long.mc_ns.lo - MC_EVENTS_LO_CAP as f64 * per_event).abs() < 1e-6);
        assert!(long.mc_ns.hi > long.events_hi as f64 * 1_000_000.0 * model.ns_per_event);
    }

    #[test]
    fn optimistic_mc_cap_is_one_kernel_block() {
        assert_eq!(MC_EVENTS_LO_CAP, quva_sim::BITPARALLEL_BLOCK_ROWS as u64);
    }

    #[test]
    fn envelopes_are_deterministic_and_argument_sensitive() {
        let device = Device::ibm_q20();
        let bench = Benchmark::bv(8);
        let model = CostModel::default();
        let first = envelope_of(&device, bench.circuit(), 1_000, &model);
        let again = envelope_of(&device, bench.circuit(), 1_000, &model);
        assert_eq!(first, again);
        // a larger trial budget widens the bound
        let more = envelope_of(&device, bench.circuit(), 2_000, &model);
        assert!(more.mc_ns.hi > first.mc_ns.hi);
        // a slower model raises it
        let recal = CostModel {
            ns_per_event: 123.0,
            ..model
        };
        let scaled = envelope_of(&device, bench.circuit(), 1_000, &recal);
        assert!(scaled.mc_ns.lo > first.mc_ns.lo);
    }

    #[test]
    fn from_bench_calibrates_ns_per_event() {
        let json = r#"{
            "schema": "quva-bench-sim/v1",
            "results": [
                {"name": "sequential", "threads": 1, "ns": 75000000, "ns_per_trial": 75.0},
                {"name": "threads-4", "threads": 4, "ns": 20000000, "ns_per_trial": 20.0}
            ]
        }"#;
        let model = CostModel::from_bench(json, 50.0).unwrap();
        assert!((model.ns_per_event - 1.5).abs() < 1e-12);
        assert_eq!(model.mc_slack, CostModel::default().mc_slack);

        assert!(CostModel::from_bench(json, 0.0).is_err());
        assert!(CostModel::from_bench("{\"schema\": \"other\"}", 50.0).is_err());
        assert!(CostModel::from_bench("{\"schema\": \"quva-bench-sim/v1\"}", 50.0).is_err());
    }

    #[test]
    fn from_bench_v2_calibrates_on_the_bitparallel_row() {
        let json = r#"{
            "schema": "quva-bench-sim/v2",
            "results": [
                {"name": "scalar", "threads": 1, "ns": 80000000, "ns_per_trial": 80.0},
                {"name": "bitparallel", "threads": 1, "ns": 8000000, "ns_per_trial": 8.0,
                 "speedup_vs_scalar": 10.0},
                {"name": "threads-4", "threads": 4, "ns": 8000000, "ns_per_trial": 8.0}
            ]
        }"#;
        let model = CostModel::from_bench(json, 80.0).unwrap();
        assert!(
            (model.ns_per_event - 0.1).abs() < 1e-12,
            "v2 must calibrate on bitparallel, not scalar: got {}",
            model.ns_per_event
        );

        // a v2 file without the production row cannot calibrate
        let missing = r#"{
            "schema": "quva-bench-sim/v2",
            "results": [{"name": "scalar", "threads": 1, "ns": 80000000, "ns_per_trial": 80.0}]
        }"#;
        assert!(CostModel::from_bench(missing, 80.0).is_err());
    }

    fn run_budget(budget: CostBudget, bench: &Benchmark, device: &Device) -> Vec<Diagnostic> {
        let compiled = MappingPolicy::baseline()
            .compile(bench.circuit(), device)
            .unwrap_or_else(|e| panic!("{e}"));
        let cx = CompiledContext {
            source: bench.circuit(),
            device,
            compiled: &compiled,
        };
        let mut out = Vec::new();
        budget.run(&cx, &mut out);
        out
    }

    #[test]
    fn default_budget_is_quiet_on_the_suite() {
        let device = Device::ibm_q20();
        for bench in quva_benchmarks::table1_suite() {
            let out = run_budget(CostBudget::default(), &bench, &device);
            assert!(out.is_empty(), "{}: {out:?}", bench.name());
        }
    }

    #[test]
    fn qv401_fires_on_an_impossible_deadline() {
        let device = Device::ibm_q20();
        let budget = CostBudget {
            deadline_ms: Some(1),
            trials: Some(100_000_000),
            ..CostBudget::default()
        };
        let out = run_budget(budget, &Benchmark::bv(16), &device);
        assert!(
            out.iter().any(|d| d.code() == LintCode::DeadlineInfeasibleJob),
            "{out:?}"
        );
    }

    #[test]
    fn qv401_stays_quiet_on_a_generous_deadline() {
        let device = Device::ibm_q20();
        let budget = CostBudget {
            deadline_ms: Some(3_600_000),
            trials: Some(10_000),
            ..CostBudget::default()
        };
        let out = run_budget(budget, &Benchmark::bv(16), &device);
        assert!(
            !out.iter().any(|d| d.code() == LintCode::DeadlineInfeasibleJob),
            "{out:?}"
        );
    }

    #[test]
    fn qv402_fires_when_trials_cannot_reach_the_width() {
        let device = Device::ibm_q20();
        let budget = CostBudget {
            trials: Some(100),
            ci_half_width: Some(0.01),
            ..CostBudget::default()
        };
        let out = run_budget(budget, &Benchmark::bv(8), &device);
        assert!(
            out.iter().any(|d| d.code() == LintCode::TrialBudgetTooSmall),
            "{out:?}"
        );
        // 10_000 trials reach a 0.01 half-width exactly
        let enough = CostBudget {
            trials: Some(10_000),
            ci_half_width: Some(0.01),
            ..CostBudget::default()
        };
        let out = run_budget(enough, &Benchmark::bv(8), &device);
        assert!(!out.iter().any(|d| d.code() == LintCode::TrialBudgetTooSmall));
    }

    #[test]
    fn qv403_fires_on_a_long_linear_chain() {
        let topo = Topology::linear(30);
        let device = Device::new(topo, |t| {
            quva_device::CalibrationGenerator::new(quva_device::VariationProfile::ibm_q20_paper(), 7)
                .snapshot(t)
        });
        let out = run_budget(CostBudget::default(), &Benchmark::qft(8), &device);
        assert!(
            out.iter()
                .any(|d| d.code() == LintCode::PathologicalRoutingBlowup),
            "{out:?}"
        );
    }

    #[test]
    fn qv404_fires_on_an_oversized_program() {
        let device = Device::ibm_q20();
        let bench = Benchmark::rnd_sd(16, 2_000, 7);
        let out = run_budget(CostBudget::default(), &bench, &device);
        assert!(
            out.iter()
                .any(|d| d.code() == LintCode::ResponseExceedsFrameBudget),
            "{out:?}"
        );
    }

    #[test]
    fn interval_algebra() {
        let a = CostInterval { lo: 1.0, hi: 4.0 };
        let b = CostInterval { lo: 2.0, hi: 3.0 };
        assert_eq!(a.add(&b), CostInterval { lo: 3.0, hi: 7.0 });
        assert!(a.contains(4.0));
        assert!(!a.contains(4.1));
        assert_eq!(CostInterval::point(2.0), CostInterval { lo: 2.0, hi: 2.0 });
    }
}
