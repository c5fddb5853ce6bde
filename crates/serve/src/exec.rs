//! Job resolution and execution: from spec strings to a rendered
//! result fragment.
//!
//! Resolution (spec strings → device/policy/circuit) runs on the
//! connection thread so the cache can be consulted before admission;
//! execution (compile/simulate/audit) runs on a worker. Both are
//! hardened: the spec parsers refuse out-of-range sizes (e.g. `bv:1`)
//! with an error naming the spec before any generator runs, resolution
//! still wraps them in `catch_unwind` as a backstop for a generator
//! assertion they miss, and execution is wrapped again by the worker
//! loop as the last line of panic isolation.

use std::panic::{catch_unwind, AssertUnwindSafe};

use quva::{MappingPolicy, Pipeline};
use quva_analysis::audit_compiled;
use quva_benchmarks::Benchmark;
use quva_device::Device;
use quva_sim::{monte_carlo_pst_progress, monte_carlo_pst_with, CoherenceModel, McEngine};

use crate::cache::CacheKey;
use crate::protocol::{JobKind, JobSpec};
use crate::spec::{parse_benchmark, parse_device, parse_policy};

/// A job whose specs resolved to concrete pipeline inputs.
#[derive(Debug, Clone)]
pub struct ResolvedJob {
    /// The original wire spec.
    pub spec: JobSpec,
    /// Resolved target device.
    pub device: Device,
    /// Resolved workload.
    pub benchmark: Benchmark,
    /// Resolved mapping policy.
    pub policy: MappingPolicy,
    /// Fingerprint-derived cache identity.
    pub key: CacheKey,
}

/// Resolves a job's spec strings into pipeline inputs and its cache
/// key.
///
/// # Errors
///
/// Returns a message naming the offending spec on parse failure, or a
/// generic message if a generator asserted on a parameter the parser
/// let through.
pub fn resolve(spec: &JobSpec) -> Result<ResolvedJob, String> {
    let spec = spec.clone();
    catch_unwind(AssertUnwindSafe(move || -> Result<ResolvedJob, String> {
        let device = parse_device(&spec.device).map_err(|e| e.to_string())?;
        let policy = parse_policy(&spec.policy).map_err(|e| e.to_string())?;
        let benchmark = parse_benchmark(&spec.benchmark).map_err(|e| e.to_string())?;
        let key = CacheKey {
            device_fp: device.fingerprint(),
            circuit_fp: benchmark.circuit().fingerprint(),
            policy: spec.policy.clone(),
            kind: spec.kind,
            trials: spec.trials,
            seed: spec.seed,
        };
        Ok(ResolvedJob {
            spec,
            device,
            benchmark,
            policy,
            key,
        })
    }))
    .unwrap_or_else(|_| Err("job spec rejected: workload parameters out of range".to_string()))
}

/// Runs a resolved job and renders its result as a one-line JSON
/// object fragment (fixed key order — identical jobs render identical
/// bytes).
///
/// # Errors
///
/// Returns a message on compile or simulation failure. Panics are the
/// caller's job to contain (the worker loop wraps this in
/// `catch_unwind`).
pub fn execute(job: &ResolvedJob, engine: McEngine) -> Result<String, String> {
    execute_with(job, engine, None)
}

/// [`execute`] with an optional chunk-boundary progress callback,
/// invoked as `f(done_trials, total_trials)` during `simulate` jobs
/// (compile and audit finish in one step and never call it). Progress
/// observes the run without altering it — the rendered result is
/// byte-identical to [`execute`].
///
/// # Errors
///
/// Returns a message on compile or simulation failure, like
/// [`execute`].
pub fn execute_with(
    job: &ResolvedJob,
    engine: McEngine,
    progress: Option<&(dyn Fn(u64, u64) + Sync)>,
) -> Result<String, String> {
    // building and checking a pipeline costs well under a microsecond,
    // so each job builds its own
    let pipeline = Pipeline::for_policy(&job.policy)
        .validate()
        .map_err(|e| format!("pipeline rejected: {e}"))?;
    let compiled = {
        // same span compile_with emits, so serve traces keep the
        // compile.total > compile.allocate/route nesting
        let _total = quva_obs::span("compile", "compile.total");
        pipeline
            .run(job.benchmark.circuit(), &job.device)
            .map_err(|e| format!("compile failed: {e}"))?
    };
    let physical = compiled.physical();
    let head = format!(
        "{{\"benchmark\":\"{}\",\"device_fp\":\"{:016x}\",\"circuit_fp\":\"{:016x}\",\
         \"gates\":{},\"depth\":{},\"swaps\":{}",
        job.benchmark.name(),
        job.key.device_fp,
        job.key.circuit_fp,
        physical.len(),
        physical.depth(),
        compiled.inserted_swaps()
    );
    match job.spec.kind {
        JobKind::Compile => {
            let pst = compiled
                .analytic_pst(&job.device, CoherenceModel::Disabled)
                .map_err(|e| format!("analytic PST failed: {e}"))?;
            Ok(format!("{head},\"analytic_pst\":{}}}", pst.pst))
        }
        JobKind::Simulate => {
            let est = match progress {
                Some(f) => monte_carlo_pst_progress(
                    &job.device,
                    physical,
                    job.spec.trials,
                    job.spec.seed,
                    CoherenceModel::Disabled,
                    engine,
                    f,
                ),
                None => monte_carlo_pst_with(
                    &job.device,
                    physical,
                    job.spec.trials,
                    job.spec.seed,
                    CoherenceModel::Disabled,
                    engine,
                ),
            }
            .map_err(|e| format!("simulation failed: {e}"))?;
            Ok(format!(
                "{head},\"pst\":{},\"successes\":{},\"trials\":{},\"std_error\":{}}}",
                est.pst,
                est.successes,
                est.trials,
                est.std_error()
            ))
        }
        JobKind::Audit => {
            let report = audit_compiled(job.benchmark.circuit(), &job.device, &compiled);
            Ok(format!(
                "{head},\"esp_lo\":{},\"esp_hi\":{},\"esp_point\":{},\"errors\":{},\"warnings\":{},\
                 \"clean\":{}}}",
                report.esp.lo,
                report.esp.hi,
                report.esp.point,
                report.findings.error_count(),
                report.findings.warning_count(),
                report.findings.is_clean()
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quva_obs::parse_json;

    fn spec(kind: JobKind) -> JobSpec {
        JobSpec {
            kind,
            device: "q20".into(),
            policy: "vqm".into(),
            benchmark: "bv:8".into(),
            trials: if kind == JobKind::Simulate { 2_000 } else { 0 },
            seed: 7,
            priority: 5,
            deadline_ms: None,
            progress: false,
        }
    }

    #[test]
    fn resolve_builds_fingerprint_key() {
        let job = resolve(&spec(JobKind::Compile)).unwrap();
        assert_eq!(job.key.device_fp, job.device.fingerprint());
        assert_eq!(job.key.circuit_fp, job.benchmark.circuit().fingerprint());
        assert_eq!(job.key.kind, JobKind::Compile);
    }

    #[test]
    fn resolve_rejects_bad_specs_without_panicking() {
        let mut s = spec(JobKind::Compile);
        s.device = "hexagon:9".into();
        assert!(resolve(&s).is_err());
        // bv:1 asserts inside the generator — must come back as Err
        let mut s = spec(JobKind::Compile);
        s.benchmark = "bv:1".into();
        assert!(resolve(&s).is_err());
    }

    #[test]
    fn execute_renders_parseable_deterministic_results() {
        for kind in [JobKind::Compile, JobKind::Simulate, JobKind::Audit] {
            let job = resolve(&spec(kind)).unwrap();
            let a = execute(&job, McEngine::sequential()).unwrap();
            let b = execute(&job, McEngine::new(4)).unwrap();
            assert_eq!(a, b, "{kind:?} result must be engine-independent");
            let doc = parse_json(&a).unwrap_or_else(|e| panic!("{kind:?}: {e}\n{a}"));
            assert_eq!(doc.get("benchmark").and_then(|v| v.as_str()), Some("bv-8"));
            assert!(doc.get("gates").and_then(|v| v.as_f64()).unwrap() > 0.0);
        }
    }

    #[test]
    fn pipeline_reuse_matches_fresh_compile_bytes() {
        // a checked pipeline run again on the same device (reading the
        // tables the first run built) must compile byte-identically to
        // the one-shot MappingPolicy::compile path on a fresh device
        let job = resolve(&spec(JobKind::Compile)).unwrap();
        let pipeline = Pipeline::for_policy(&job.policy).validate().unwrap();
        let first = pipeline.run(job.benchmark.circuit(), &job.device).unwrap();
        let via_pipeline = pipeline.run(job.benchmark.circuit(), &job.device).unwrap();
        assert_eq!(
            quva_circuit::qasm::to_qasm(first.physical()),
            quva_circuit::qasm::to_qasm(via_pipeline.physical())
        );
        let fresh = resolve(&spec(JobKind::Compile)).unwrap();
        let via_policy = fresh
            .policy
            .compile(fresh.benchmark.circuit(), &fresh.device)
            .unwrap();
        assert_eq!(
            quva_circuit::qasm::to_qasm(via_pipeline.physical()),
            quva_circuit::qasm::to_qasm(via_policy.physical())
        );
        assert_eq!(via_pipeline.inserted_swaps(), via_policy.inserted_swaps());
    }

    #[test]
    fn progress_callback_leaves_result_bytes_unchanged() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let mut s = spec(JobKind::Simulate);
        s.trials = 40_000; // several chunks at the default granularity
        let job = resolve(&s).unwrap();
        let plain = execute(&job, McEngine::sequential()).unwrap();
        let calls = AtomicU64::new(0);
        let peak = AtomicU64::new(0);
        let cb = |done: u64, total: u64| {
            calls.fetch_add(1, Ordering::Relaxed);
            peak.fetch_max(done, Ordering::Relaxed);
            assert_eq!(total, 40_000);
        };
        let streamed = execute_with(&job, McEngine::sequential(), Some(&cb)).unwrap();
        assert_eq!(plain, streamed);
        assert!(calls.load(Ordering::Relaxed) >= 3, "expected one call per chunk");
        assert_eq!(peak.load(Ordering::Relaxed), 40_000);
        // compile jobs never invoke the callback
        let compile = resolve(&spec(JobKind::Compile)).unwrap();
        let before = calls.load(Ordering::Relaxed);
        execute_with(&compile, McEngine::sequential(), Some(&cb)).unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), before);
    }

    #[test]
    fn simulate_result_carries_estimate() {
        let job = resolve(&spec(JobKind::Simulate)).unwrap();
        let out = execute(&job, McEngine::sequential()).unwrap();
        let doc = parse_json(&out).unwrap();
        let pst = doc.get("pst").and_then(|v| v.as_f64()).unwrap();
        assert!(pst > 0.0 && pst < 1.0, "{out}");
        assert_eq!(doc.get("trials").and_then(|v| v.as_f64()), Some(2_000.0));
    }
}
