//! Implementations of the `quva` subcommands. Each returns its output
//! as a `String` so the logic is testable without capturing stdout.

use std::fmt::Write as _;

use quva::{partition_analysis, CompileOptions, MappingPolicy, PartitionChoice};
use quva_analysis::Verifier;
use quva_circuit::{qasm, Circuit};
use quva_device::{node_strengths, Device, SanitizePolicy};
use quva_obs::json_escape;
use quva_sim::{monte_carlo_pst_with, run_noisy_trials, CoherenceModel, McEngine, McKernel};
use quva_stats::{fmt3, Table};

use crate::args::{ArgsError, ParsedArgs};
use crate::snapshot;
use crate::spec::{parse_benchmark, parse_device, parse_policy};

/// Top-level dispatch: runs one subcommand and returns its report text.
///
/// With `--trace <file>` or `--metrics` (or for `profile`, which
/// implies both-style instrumentation) the process-global `quva-obs`
/// recorder is enabled around the command: the Chrome `trace_event`
/// JSON is written to the `--trace` path (even when the command fails,
/// so aborted compiles can be profiled) and `--metrics` appends the
/// deterministic counter/histogram summary to the report. Without
/// either flag the recorder stays off and the output is byte-identical
/// to an uninstrumented build.
///
/// A command line with an argument the command did not use writes no
/// file: the check runs before the `--trace`, `compile --out` and
/// `characterize --export` writes.
///
/// # Errors
///
/// Returns a message for unknown commands, malformed specs, I/O
/// problems, or compilation failures, and fails naming every option,
/// switch or positional the command did not use.
pub fn run(args: &ParsedArgs) -> Result<String, ArgsError> {
    let out = run_observed(args)?;
    args.reject_unread()?;
    Ok(out)
}

/// [`run`] without the unused-option check: dispatches the command,
/// wrapped in the `quva-obs` recorder when `--trace` or `--metrics`
/// asks for it.
fn run_observed(args: &ParsedArgs) -> Result<String, ArgsError> {
    // `trace-verify` reads a --trace file; never re-enter the recorder
    // for it (the wrapper would overwrite its input).
    if args.command() == "trace-verify" {
        return dispatch(args);
    }
    let profiling = args.command() == "profile";
    // read both flags before the unused-argument check below, whichever
    // of them is given
    let trace = args.get("trace");
    let metrics = args.has_switch("metrics");
    if trace.is_none() && !metrics && !profiling {
        return dispatch(args);
    }
    quva_obs::reset();
    quva_obs::enable();
    let result = dispatch(args);
    let report = quva_obs::drain();
    quva_obs::disable();
    if result.is_ok() {
        args.reject_unread()?;
    }
    if let Some(path) = trace {
        std::fs::write(path, report.to_chrome_json())
            .map_err(|e| ArgsError::new(format!("cannot write {path}: {e}")))?;
    }
    let mut out = result?;
    if profiling {
        out.push_str(&report.render_text());
    } else if metrics {
        out.push_str(&report.render_metrics_text());
    }
    Ok(out)
}

fn dispatch(args: &ParsedArgs) -> Result<String, ArgsError> {
    match args.command() {
        "compile" => cmd_compile(args),
        "pipeline" => cmd_pipeline(args),
        "lint" => cmd_lint(args),
        "audit" => cmd_audit(args),
        "cost" => cmd_cost(args),
        "pst" => cmd_pst(args),
        "simulate" => cmd_simulate(args),
        "trials" => cmd_trials(args),
        "characterize" => cmd_characterize(args),
        "partition" => cmd_partition(args),
        "profile" => cmd_profile(args),
        "serve" => cmd_serve(args),
        "top" => cmd_top(args),
        "trace-verify" => cmd_trace_verify(args),
        "help" | "--help" | "-h" => Ok(usage()),
        other => Err(ArgsError::new(format!(
            "unknown command '{other}'\n\n{}",
            usage()
        ))),
    }
}

/// The CLI usage text.
pub fn usage() -> String {
    "\
quva — variation-aware qubit mapping for NISQ machines

USAGE:
    quva <COMMAND> [OPTIONS]

FLAGS:
    --stats       (compile) prefix the QASM with compilation statistics
    --optimize    (compile) run the peephole optimizer before mapping
    --verify      (compile) statically verify the routed output against
                  the source program; any QV error aborts the compile
    --strict      reject a --calibration snapshot with any invalid field
    --lenient     clamp invalid snapshot fields to pessimistic values,
                  reporting each repair on stderr (the default)
    --deny-warnings  (lint, audit) treat warnings as failures: exit
                  nonzero when any warning-severity finding is reported
    --metrics     append the deterministic observability summary
                  (counters, histograms, warnings) to the report

COMMANDS:
    compile       compile a program and emit routed OpenQASM
    pipeline      statically check a pass pipeline's contracts before it
                  runs (--check, the default): missing preconditions,
                  clobbered invariants, unreachable passes, and missing
                  output are QV5xx errors; or --compare portfolio
                  routing against the single-candidate baseline by
                  static ESP (no Monte Carlo)
    lint          run the static lint passes over a program (no compile);
                  with --policy, also compile and run the compiled-output
                  passes (legality + reliability lints)
    audit         compile a program and emit the static reliability
                  report: ESP bounds, per-link/per-qubit attribution,
                  and every verification finding
    cost          static WCET-style cost envelope: [lo, hi] bounds on
                  compile time, Monte-Carlo time, peak memory, and
                  response size, computed before compiling anything —
                  the same envelope quvad's admission control uses
    pst           estimate the probability of a successful trial
    simulate      Monte-Carlo PST as machine-readable JSON
    trials        run noisy state-vector trials and report outcomes
    characterize  print a device's calibration summary
    partition     decide between one strong copy and two copies (§8)
    profile       compile + simulate a suite × policy matrix and report
                  per-stage timings, counters, and cache statistics
    serve         run the quvad compilation daemon: line-delimited JSON
                  jobs (compile / simulate / audit) over TCP or a unix
                  socket, with a bounded queue, deadlines, a result
                  cache, and graceful drain (see DESIGN.md §12)
    top           live quvad telemetry: poll the daemon's `metrics`
                  verb and render queue depth, per-verb latency
                  quantiles, counters, and anomaly-dump totals
                  (see DESIGN.md §17)
    trace-verify  structurally validate a --trace output file (JSON
                  parses, spans nest, no negative durations)
    help          show this message

EXIT CODE: 0 on success (warnings allowed unless --deny-warnings);
    nonzero when any error-severity finding is reported, when
    --deny-warnings is set and a warning fires, when an audit
    Monte-Carlo cross-check (--mc-trials) falls outside the static ESP
    bound, or on usage/compile errors.

COMMON OPTIONS:
    --device  q20 | q5 | linear:N | ring:N | grid:RxC | full:N (append @SEED)
    --policy  baseline | vqm | vqm-mah:K | vqa-vqm | native:SEED
    --bench   bv:N | qft:N | ghz:N | alu | triswap | rnd-sd:N:C | rnd-ld:N:C
    --qasm    path to an OpenQASM 2.0 file (alternative to --bench)
    --format  (lint, audit, cost, pipeline) text | json
    --explain (lint) QVxxx or slug: print the code's description,
              severity, and rationale, then exit

PIPELINE OPTIONS:
    --check             contract-check mode (the default): validate the
                        pipeline statically; exit nonzero on any QV5xx
    --passes a,b,c      explicit pass list instead of the --policy
                        pipeline (optimize, allocate, route, select,
                        portfolio, verify); compile runs it too
    --verify            append the verification pass to the --policy
                        pipeline
    --width N           portfolio candidates kept per layer (default 4)
    --compare           compile --bench through the single-candidate
                        pipeline and the ESP-pruned portfolio router,
                        report both static ESP points, and exit nonzero
                        if the portfolio is worse

COST OPTIONS:
    --trials N          Monte-Carlo budget the envelope is computed for
                        (default 0: compile-only)
    --deadline-ms N     report feasibility against this deadline; exit
                        nonzero when it is statically infeasible
    --ci-half-width W   report the trial budget a 95% confidence
                        half-width of W requires
    --calibrate FILE    re-derive ns-per-event from a measured
                        BENCH_sim.json baseline instead of the defaults
    --policy SPEC       also compile and report the realized fault-event
                        count against the predicted interval
    --drift   (audit) relative calibration-drift uncertainty widening
              every error rate into an interval (default 0.1)
    --mc-trials (audit) also run a Monte-Carlo PST estimate with this
              many trials and fail unless it falls inside the bound
    --threads (pst, simulate) Monte-Carlo worker threads; defaults to
              the available parallelism. The estimate is bit-identical
              for every thread count — 1 gives the exact same numbers
              on a single thread
    --engine  (pst, simulate, audit) Monte-Carlo trial kernel:
              bitparallel (64 trials per lane-word, the default) or
              scalar (the per-trial loop kept as the cross-validation
              oracle). The kernels are distinct deterministic samples
              of the same model
    --seed    (pst, simulate) Monte-Carlo root seed (default 7)
    --calibration  JSON calibration snapshot overriding the device's
                   (export one with: characterize --export cal.json)
    --trace   write a Chrome trace_event JSON file of the run — open it
              in Perfetto (https://ui.perfetto.dev) or chrome://tracing.
              Never alters the command's stdout
    --bench / --policy  (profile) restrict the matrix to one benchmark
              or one policy; defaults: the table-1 suite × baseline,
              vqm, vqm-mah:4, vqa-vqm

SERVE OPTIONS:
    --listen ADDR       TCP address (default 127.0.0.1:7411; port 0
                        picks an ephemeral port)
    --socket PATH       serve on a unix-domain socket instead of TCP
    --workers N         job worker threads (default 2)
    --queue N           bounded queue capacity (default 64); a full
                        queue answers overloaded + retry_after_ms
    --deadline-ms N     default per-job deadline (default 10000)
    --retry-after-ms N  backpressure hint on overloaded responses
    --idle-timeout-ms N close idle / stalled connections (default 10000)
    --max-connections N concurrent connection cap (default 64)
    --chaos             honor 'panic' fault-injection frames (testing)
    --flight-capacity N flight-recorder ring capacity in events
                        (default 4096); the ring is always armed
    --dump-dir DIR      write anomaly-triggered flight dumps here
                        (off unless given)
    --dump-file-cap-bytes N   per-dump-file byte cap (default 256 KiB)
    --dump-cap-bytes N  dump-directory total byte cap (default 4 MiB);
                        oldest dumps rotate out
    --journal FILE      append a per-job JSONL audit journal here
                        (off unless given)
    --journal-cap-bytes N     journal size-rotation threshold
                        (default 4 MiB; rotates to FILE.1)

TOP OPTIONS:
    --addr ADDR         daemon address (default 127.0.0.1:7411)
    --interval-ms N     refresh period (default 1000)
    --count N           number of refreshes, 0 = until interrupted
                        (default 0)
    --raw               print the raw exposition text instead of the
                        rendered dashboard (no screen clearing)

EXAMPLES:
    quva compile --device q20 --policy vqa-vqm --bench bv:16 --stats --verify
    quva pipeline --check --policy vqa-vqm --verify
    quva pipeline --check --passes allocate,route --format json
    quva pipeline --compare --device q20 --policy vqm --bench bv:16 --width 4
    quva lint --explain QV501
    quva lint --bench qft:12
    quva lint --qasm program.qasm --device q20 --format json
    quva lint --explain QV304
    quva lint --bench bv:16 --device q20 --policy baseline --deny-warnings
    quva audit --device q20 --policy vqa-vqm --bench bv:16 --format json
    quva audit --device q20 --policy baseline --bench qft:12 --mc-trials 100000
    quva cost --device q20 --bench bv:16 --trials 20000 --deadline-ms 2000
    quva cost --device q20 --policy vqm --bench bv:8 --format json
    quva cost --bench qft:12 --trials 100000 --ci-half-width 0.01 --calibrate BENCH_sim.json
    quva pst --device q20 --policy baseline --bench qft:12 --trials 100000
    quva simulate --device q20 --policy vqa-vqm --bench bv:16 --threads 8
    quva simulate --device q5 --policy baseline --bench ghz:3 --engine scalar
    quva trials --device q5 --policy vqa-vqm --bench ghz:3 --trials 4096
    quva characterize --device q20
    quva partition --device q20 --policy vqa-vqm --bench bv:10
    quva compile --device q20 --policy vqm --bench bv:16 --trace out.json
    quva simulate --device q20 --bench bv:16 --metrics
    quva profile --device q20 --trace profile.json
    quva trace-verify profile.json
    quva serve --listen 127.0.0.1:7411 --workers 2 --trace served.json
    quva serve --socket /tmp/quvad.sock --queue 128 --deadline-ms 5000
    quva serve --listen 127.0.0.1:7411 --dump-dir /var/tmp/quvad-dumps --journal /var/tmp/quvad.jsonl
    quva top --addr 127.0.0.1:7411 --interval-ms 500
    quva top --addr 127.0.0.1:7411 --count 1 --raw
"
    .to_string()
}

/// Loads the input program from `--bench` or `--qasm`.
fn load_program(args: &ParsedArgs) -> Result<(String, Circuit), ArgsError> {
    match (args.get("bench"), args.get("qasm")) {
        (Some(spec), None) => {
            let b = parse_benchmark(spec)?;
            Ok((b.name().to_string(), b.circuit().clone()))
        }
        (None, Some(path)) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| ArgsError::new(format!("cannot read {path}: {e}")))?;
            let circuit = qasm::from_qasm(&text).map_err(|e| ArgsError::new(e.to_string()))?;
            Ok((path.to_string(), circuit))
        }
        (Some(_), Some(_)) => Err(ArgsError::new("give either --bench or --qasm, not both")),
        (None, None) => Err(ArgsError::new(
            "missing program: give --bench <spec> or --qasm <file>",
        )),
    }
}

fn load_setup(args: &ParsedArgs) -> Result<(Device, MappingPolicy, String, Circuit), ArgsError> {
    let device = load_device(args, "q20")?;
    let policy = parse_policy(args.get_or("policy", "vqa-vqm"))?;
    let (name, program) = load_program(args)?;
    Ok((device, policy, name, program))
}

/// The calibration-sanitization policy selected by `--strict` /
/// `--lenient` (default: lenient, i.e. clamp bad fields and warn).
fn sanitize_policy(args: &ParsedArgs) -> Result<SanitizePolicy, ArgsError> {
    match (args.has_switch("strict"), args.has_switch("lenient")) {
        (true, true) => Err(ArgsError::new("give either --strict or --lenient, not both")),
        (true, false) => Ok(SanitizePolicy::Reject),
        _ => Ok(SanitizePolicy::Clamp),
    }
}

/// Builds the device from `--device`, optionally replacing its
/// calibration with a JSON snapshot from `--calibration` (as exported by
/// `characterize --export`).
///
/// Snapshot fields are validated before use: under `--strict` any issue
/// rejects the snapshot; otherwise bad fields are clamped to pessimistic
/// values and each repair is reported on stderr.
fn load_device(args: &ParsedArgs, default_spec: &str) -> Result<Device, ArgsError> {
    let device = parse_device(args.get_or("device", default_spec))?;
    let policy = sanitize_policy(args)?;
    let Some(path) = args.get("calibration") else {
        return Ok(device);
    };
    let text =
        std::fs::read_to_string(path).map_err(|e| ArgsError::new(format!("cannot read {path}: {e}")))?;
    let raw = snapshot::parse_raw(&text)
        .map_err(|e| ArgsError::new(format!("{path} is not a calibration snapshot: {e}")))?;
    let (calibration, report) = raw
        .sanitize(device.topology(), policy, None)
        .map_err(|e| ArgsError::new(format!("{path} does not fit the device: {e}")))?;
    for line in report.diagnostics() {
        // stderr stays byte-identical with the recorder on or off; the
        // structured copy only surfaces under --trace / --metrics
        eprintln!("{path}: {line}");
        quva_obs::warn("calibration", &format!("{path}: {line}"));
    }
    device
        .with_calibration(calibration)
        .map_err(|e| ArgsError::new(format!("{path} does not fit the device: {e}")))
}

/// The `program` and `device` members a JSON report opens with. Both
/// echo user input (a `--qasm` path may hold quotes), so both are
/// escaped.
fn json_subject(name: &str, args: &ParsedArgs) -> String {
    format!(
        "  \"program\": \"{}\",\n  \"device\": \"{}\",\n",
        json_escape(name),
        json_escape(args.get_or("device", "q20"))
    )
}

fn cmd_compile(args: &ParsedArgs) -> Result<String, ArgsError> {
    let (device, policy, name, mut program) = load_setup(args)?;
    let mut removed = 0;
    if args.has_switch("optimize") {
        let (optimized, stats) = quva_circuit::optimize(&program);
        removed = stats.total_removed();
        program = optimized;
    }
    let verifier = Verifier::new();
    let options = CompileOptions {
        verify: args
            .has_switch("verify")
            .then_some(&verifier as &dyn quva::CompileAudit),
    };
    let compiled = match args.get("passes") {
        // an explicit pass list replaces the --policy pipeline, exactly
        // as `quva pipeline --passes` builds and checks it
        Some(names) => {
            let pipeline = pipeline_from_names(names, &policy, portfolio_width(args)?, &verifier)?;
            let _total = quva_obs::span("compile", "compile.total");
            pipeline.compile(&program, &device)
        }
        None => policy.compile_with(&program, &device, &options),
    }
    .map_err(|e| ArgsError::new(e.to_string()))?;
    let mut out = String::new();
    if args.has_switch("optimize") && args.has_switch("stats") {
        let _ = writeln!(out, "// optimizer removed : {removed} gates");
    }
    if args.has_switch("stats") {
        let report = compiled
            .analytic_pst(&device, CoherenceModel::Disabled)
            .map_err(|e| ArgsError::new(e.to_string()))?;
        let _ = writeln!(out, "// program          : {name}");
        let _ = writeln!(out, "// device           : {device}");
        let _ = writeln!(out, "// policy           : {}", policy.name());
        let _ = writeln!(out, "// inserted swaps   : {}", compiled.inserted_swaps());
        let _ = writeln!(
            out,
            "// physical 2Q gates: {}",
            compiled.physical().two_qubit_gate_count()
        );
        let _ = writeln!(out, "// analytic PST     : {:.6}", report.pst);
        let _ = writeln!(out, "// initial mapping  : {}", compiled.initial_mapping());
        let _ = writeln!(out, "// final mapping    : {}", compiled.final_mapping());
    }
    out.push_str(&qasm::to_qasm(compiled.physical()));
    if let Some(path) = args.get("out") {
        args.reject_unread()?;
        std::fs::write(path, &out).map_err(|e| ArgsError::new(format!("cannot write {path}: {e}")))?;
        return Ok(format!("wrote routed program to {path}\n"));
    }
    Ok(out)
}

/// The portfolio beam width from `--width` (default 4, at least 1).
fn portfolio_width(args: &ParsedArgs) -> Result<usize, ArgsError> {
    match args.get_parsed("width")?.unwrap_or(4) {
        0 => Err(ArgsError::new("--width must be at least 1")),
        width => Ok(width),
    }
}

/// Builds a pipeline from a `--passes` comma list. Pass names:
/// `optimize`, `allocate`, `route`, `select`, `portfolio`, `verify`;
/// strategies and metrics come from `--policy`, the portfolio width
/// from `--width`, and `verify` audits with the standard [`Verifier`].
fn pipeline_from_names<'v>(
    names: &str,
    policy: &MappingPolicy,
    width: usize,
    verifier: &'v Verifier,
) -> Result<quva::Pipeline<'v>, ArgsError> {
    use quva::pipeline::{
        AllocatePass, OptimizePass, PortfolioRoutePass, RoutePass, SelectAlternativePass, VerifyPass,
    };
    let mut pipeline = quva::Pipeline::new();
    for name in names.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        pipeline = match name {
            "optimize" => pipeline.with_pass(OptimizePass),
            "allocate" => pipeline.with_pass(AllocatePass {
                strategy: policy.allocation,
            }),
            "route" => pipeline.with_pass(RoutePass {
                metric: policy.routing,
            }),
            "select" => pipeline.with_pass(SelectAlternativePass {
                alternative: MappingPolicy {
                    allocation: quva::AllocationStrategy::GreedyInteraction,
                    routing: policy.routing,
                },
            }),
            "portfolio" => pipeline.with_pass(PortfolioRoutePass {
                metric: policy.routing,
                width,
            }),
            "verify" => pipeline.with_pass(VerifyPass::new(verifier)),
            other => {
                return Err(ArgsError::new(format!(
                    "unknown pass '{other}' (passes: optimize, allocate, route, select, portfolio, verify)"
                )))
            }
        };
    }
    Ok(pipeline)
}

/// `quva pipeline`: statically checks a pass pipeline's contracts
/// (the default, `--check`) or compares portfolio routing against the
/// single-candidate baseline by static ESP (`--compare`).
///
/// The check never compiles anything: the pipeline is built — from
/// `--policy` (the standard policy pipeline, `--verify` appending the
/// verification pass) or from an explicit `--passes a,b,c` list — and
/// its contracts are walked exactly as `Pipeline::validate` would
/// before a compile. Violations render as stable `QV5xx` diagnostics
/// (see `quva lint --explain QV501`) in deterministic text or JSON,
/// and any violation makes the command exit nonzero, so CI can gate on
/// pipeline configurations the same way it gates on lints.
fn cmd_pipeline(args: &ParsedArgs) -> Result<String, ArgsError> {
    match (args.has_switch("check"), args.has_switch("compare")) {
        (true, true) => return Err(ArgsError::new("give either --check or --compare, not both")),
        (false, true) => return cmd_pipeline_compare(args),
        _ => {}
    }
    let policy = parse_policy(args.get_or("policy", "vqa-vqm"))?;
    let width = portfolio_width(args)?;
    let verifier = Verifier::new();
    let pipeline = match args.get("passes") {
        Some(names) => pipeline_from_names(names, &policy, width, &verifier)?,
        None => quva::Pipeline::for_policy_with(
            &policy,
            args.has_switch("verify")
                .then_some(&verifier as &dyn quva::CompileAudit),
        ),
    };
    let report = quva_analysis::check_pipeline(&pipeline);
    let rendered = match args.get_or("format", "text") {
        "text" => {
            let mut out = String::new();
            let _ = writeln!(out, "pipeline check for policy {}", policy.name());
            let names = pipeline.pass_names();
            let _ = writeln!(
                out,
                "passes: {}",
                if names.is_empty() {
                    "(none)".to_string()
                } else {
                    names.join(" -> ")
                }
            );
            let inv_list =
                |list: &[quva::Invariant]| list.iter().map(|i| i.name()).collect::<Vec<_>>().join(", ");
            for (name, contract) in pipeline.contracts() {
                let _ = writeln!(
                    out,
                    "  {name}: requires [{}] guarantees [{}] clobbers [{}]",
                    inv_list(contract.requires),
                    inv_list(contract.guarantees),
                    inv_list(contract.clobbers)
                );
            }
            out.push_str(&report.render_text());
            out
        }
        "json" => report.render_json(),
        other => {
            return Err(ArgsError::new(format!(
                "unknown --format '{other}' (use text or json)"
            )))
        }
    };
    if report.is_clean() {
        Ok(rendered)
    } else {
        Err(ArgsError::new(rendered))
    }
}

/// `quva pipeline --compare`: compiles a benchmark twice — through the
/// policy's single-candidate pipeline and through the ESP-pruned
/// portfolio router at `--width` — and reports both static ESP points.
/// No Monte Carlo runs: the comparison is the same gate-order
/// `static_esp_point` fold the portfolio prunes by, so CI can assert
/// "portfolio never worse than baseline" cheaply and deterministically.
/// Exits nonzero if the portfolio falls below the baseline.
fn cmd_pipeline_compare(args: &ParsedArgs) -> Result<String, ArgsError> {
    use quva::pipeline::static_esp_point;
    let (device, policy, name, program) = load_setup(args)?;
    let width = portfolio_width(args)?;
    let baseline = quva::Pipeline::for_policy(&policy)
        .compile(&program, &device)
        .map_err(|e| ArgsError::new(e.to_string()))?;
    let portfolio = quva::Pipeline::for_policy_portfolio(&policy, width)
        .compile(&program, &device)
        .map_err(|e| ArgsError::new(e.to_string()))?;
    let baseline_esp = static_esp_point(&device, baseline.physical());
    let portfolio_esp = static_esp_point(&device, portfolio.physical());
    let not_worse = portfolio_esp >= baseline_esp;
    let rendered = match args.get_or("format", "text") {
        "text" => {
            let mut out = String::new();
            let _ = writeln!(
                out,
                "portfolio comparison for {name} ({} on {device})",
                policy.name()
            );
            let _ = writeln!(out, "portfolio width    : {width}");
            let _ = writeln!(out, "baseline  esp point: {baseline_esp:.9}");
            let _ = writeln!(out, "portfolio esp point: {portfolio_esp:.9}");
            let _ = writeln!(out, "baseline  swaps    : {}", baseline.inserted_swaps());
            let _ = writeln!(out, "portfolio swaps    : {}", portfolio.inserted_swaps());
            let _ = writeln!(
                out,
                "result             : {}",
                if not_worse {
                    "portfolio >= baseline"
                } else {
                    "portfolio < baseline (REGRESSION)"
                }
            );
            out
        }
        "json" => {
            let mut out = String::new();
            out.push_str("{\n");
            out.push_str(&json_subject(&name, args));
            let _ = writeln!(out, "  \"policy\": \"{}\",", policy.name());
            let _ = writeln!(out, "  \"width\": {width},");
            let _ = writeln!(out, "  \"baseline_esp_point\": {baseline_esp},");
            let _ = writeln!(out, "  \"portfolio_esp_point\": {portfolio_esp},");
            let _ = writeln!(out, "  \"baseline_swaps\": {},", baseline.inserted_swaps());
            let _ = writeln!(out, "  \"portfolio_swaps\": {},", portfolio.inserted_swaps());
            let _ = writeln!(out, "  \"portfolio_not_worse\": {not_worse}");
            out.push_str("}\n");
            out
        }
        other => {
            return Err(ArgsError::new(format!(
                "unknown --format '{other}' (use text or json)"
            )))
        }
    };
    if not_worse {
        Ok(rendered)
    } else {
        Err(ArgsError::new(rendered))
    }
}

/// `quva lint --explain QVxxx`: the code's description, severity, and
/// rationale.
fn explain_code(spec: &str) -> Result<String, ArgsError> {
    let code = quva_analysis::LintCode::from_code(spec).ok_or_else(|| {
        ArgsError::new(format!(
            "unknown lint code '{spec}' (codes are QV001..QV504; try e.g. QV304 or missed-vqm-route)"
        ))
    })?;
    Ok(format!(
        "{} ({})\nseverity : {}\n{}\n\nrationale: {}\n",
        code.code(),
        code.name(),
        code.severity(),
        code.description(),
        code.rationale()
    ))
}

/// `quva lint`: runs the static circuit passes over a program without
/// compiling it. With `--device` the device-dependent checks (register
/// width, calibration sanity) run too; with `--policy` (requires a
/// device) the program is additionally compiled and the compiled-output
/// passes — legality, consistency, and the reliability lints — run over
/// the result.
///
/// Exit-code contract: any error-severity finding makes the command
/// fail, so CI can gate on the exit code; warnings are reported but do
/// not fail the lint unless `--deny-warnings` is set.
fn cmd_lint(args: &ParsedArgs) -> Result<String, ArgsError> {
    if let Some(spec) = args.get("explain") {
        return explain_code(spec);
    }
    let (name, program) = load_program(args)?;
    let device = match args.get("device") {
        Some(_) => Some(load_device(args, "q20")?),
        None => None,
    };
    let mut report = quva_analysis::lint_circuit(&program, device.as_ref());
    if let Some(policy_spec) = args.get("policy") {
        let Some(device) = device.as_ref() else {
            return Err(ArgsError::new("--policy needs a --device to compile for"));
        };
        let policy = parse_policy(policy_spec)?;
        let compiled = policy
            .compile(&program, device)
            .map_err(|e| ArgsError::new(e.to_string()))?;
        report = report.merge(quva_analysis::verify_compiled(&program, device, &compiled));
    }
    let rendered = match args.get_or("format", "text") {
        "text" => format!("lint report for {name}\n{}", report.render_text()),
        "json" => report.render_json(),
        other => {
            return Err(ArgsError::new(format!(
                "unknown --format '{other}' (use text or json)"
            )))
        }
    };
    let denied = args.has_switch("deny-warnings") && report.warning_count() > 0;
    if report.is_clean() && !denied {
        Ok(rendered)
    } else {
        Err(ArgsError::new(rendered))
    }
}

/// `quva audit`: compiles a program and emits the static reliability
/// report — whole-circuit ESP interval, per-link/per-qubit error
/// attribution, decoherence exposure, and every verification finding.
///
/// With `--mc-trials N` a Monte-Carlo PST estimate (deterministic for a
/// fixed `--seed`, default 7) is embedded in the report and the command
/// fails if the estimate falls outside the static `[lo, hi]` bound —
/// the CI cross-check between the static ESP analysis and the
/// simulator. `--drift` (default 0.1) widens every error rate for the
/// interval, the per-qubit rows and the low-ESP finding (QV302) alike.
fn cmd_audit(args: &ParsedArgs) -> Result<String, ArgsError> {
    let (device, policy, name, program) = load_setup(args)?;
    let drift: f64 = args.get_parsed("drift")?.unwrap_or(0.1);
    if !(0.0..1.0).contains(&drift) {
        return Err(ArgsError::new("--drift must be in [0, 1)"));
    }
    let compiled = policy
        .compile(&program, &device)
        .map_err(|e| ArgsError::new(e.to_string()))?;
    let report = quva_analysis::audit_with(&program, &device, &compiled, &quva_analysis::EspConfig { drift });

    let mc = match args.get_parsed::<u64>("mc-trials")? {
        Some(0) => return Err(ArgsError::new("--mc-trials must be at least 1")),
        Some(trials) => {
            let seed: u64 = args.get_parsed("seed")?.unwrap_or(7);
            let engine = parse_engine(args)?;
            let estimate = monte_carlo_pst_with(
                &device,
                compiled.physical(),
                trials,
                seed,
                CoherenceModel::Disabled,
                engine,
            )
            .map_err(|e| ArgsError::new(e.to_string()))?;
            Some((trials, seed, estimate.pst))
        }
        None => None,
    };
    // containment up to 4 binomial standard errors of sampling noise:
    // circuits with ESP well below 1/trials would otherwise fail on a
    // statistically-empty sample
    let mc_ok = mc.is_none_or(|(trials, _, pst)| {
        let p = report.esp.hi.max(pst);
        let tol = 4.0 * (p * (1.0 - p) / trials as f64).sqrt();
        report.esp.lo - tol <= pst && pst <= report.esp.hi + tol
    });

    let rendered = match args.get_or("format", "text") {
        "json" => {
            let spec = json_escape(args.get_or("device", "q20"));
            let mut extras: Vec<(&str, String)> = vec![
                ("program", format!("\"{}\"", json_escape(&name))),
                ("device", format!("\"{spec}\"")),
                ("policy", format!("\"{}\"", policy.name())),
                ("drift", drift.to_string()),
            ];
            if let Some((trials, seed, pst)) = mc {
                extras.push(("mc_trials", trials.to_string()));
                extras.push(("mc_seed", seed.to_string()));
                extras.push(("mc_pst", pst.to_string()));
                extras.push(("mc_within_bounds", mc_ok.to_string()));
            }
            report.render_json_with_extras(&extras)
        }
        "text" => {
            let mut out = format!("reliability audit for {name} ({} on {device})\n", policy.name());
            out.push_str(&report.render_text());
            if let Some((trials, _, pst)) = mc {
                let _ = writeln!(
                    out,
                    "monte-carlo PST: {pst:.6} over {trials} trials — {} the static bound",
                    if mc_ok { "inside" } else { "OUTSIDE" }
                );
            }
            out
        }
        other => {
            return Err(ArgsError::new(format!(
                "unknown --format '{other}' (use text or json)"
            )))
        }
    };

    let denied = args.has_switch("deny-warnings") && report.findings.warning_count() > 0;
    if report.findings.is_clean() && mc_ok && !denied {
        Ok(rendered)
    } else {
        Err(ArgsError::new(rendered))
    }
}

/// `quva cost`: the static WCET-style cost envelope of a job — closed
/// `[lo, hi]` bounds on compile time, Monte-Carlo time, peak memory,
/// and rendered-response size, derived from the source program, the
/// device's distance matrix, and the requested trial budget *before*
/// compiling or simulating anything. This is the same envelope quvad's
/// admission control evaluates when answering `infeasible`, picking a
/// shed victim, and deriving `retry_after_ms`.
///
/// With `--policy` the program is additionally compiled and the
/// realized fault-event count is reported next to the predicted
/// `[events_lo, events_hi]` interval — it must fall inside (the same
/// containment the envelope-soundness CI stage checks suite-wide).
/// With `--deadline-ms` the command reports feasibility and fails on a
/// statically infeasible deadline; `--ci-half-width` reports the trial
/// budget a 95 % confidence half-width needs. `--calibrate
/// BENCH_sim.json` re-derives ns-per-event from the committed measured
/// baseline (bv-16 on ibm-q20 under baseline mapping — the file's
/// workload) instead of the built-in defaults.
fn cmd_cost(args: &ParsedArgs) -> Result<String, ArgsError> {
    let device = load_device(args, "q20")?;
    let (name, program) = load_program(args)?;
    let trials: u64 = args.get_parsed("trials")?.unwrap_or(0);
    let deadline_ms: Option<u64> = args.get_parsed("deadline-ms")?;
    let ci_half_width: Option<f64> = args.get_parsed("ci-half-width")?;
    if let Some(w) = ci_half_width {
        if !(w > 0.0 && w < 1.0) {
            return Err(ArgsError::new("--ci-half-width must be in (0, 1)"));
        }
    }
    let model = match args.get("calibrate") {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| ArgsError::new(format!("cannot read {path}: {e}")))?;
            // events/trial of the file's workload — bv-16 on ibm-q20
            // under baseline mapping — counted on the compiled circuit
            let baseline = parse_benchmark("bv:16")?;
            let q20 = parse_device("q20")?;
            let compiled = MappingPolicy::baseline()
                .compile(baseline.circuit(), &q20)
                .map_err(|e| ArgsError::new(e.to_string()))?;
            let events = quva_analysis::total_events(compiled.physical()) as f64;
            quva_analysis::CostModel::from_bench(&text, events)
                .map_err(|e| ArgsError::new(format!("{path}: {e}")))?
        }
        None => quva_analysis::CostModel::default(),
    };
    let envelope = quva_analysis::cost_envelope(&device, &program, trials, &model);
    let compiled_events = match args.get("policy") {
        Some(spec) => {
            let policy = parse_policy(spec)?;
            let compiled = policy
                .compile(&program, &device)
                .map_err(|e| ArgsError::new(e.to_string()))?;
            Some((policy.name(), quva_analysis::total_events(compiled.physical())))
        }
        None => None,
    };
    let feasible = deadline_ms.map(|d| !envelope.infeasible_for(d));
    let trials_needed = ci_half_width.map(quva_analysis::CostBudget::trials_needed);

    // conservative integer rendering: lo floors, hi ceils, so the
    // printed interval always contains the computed one
    let ns = |i: quva_analysis::CostInterval| (i.lo.floor() as u64, i.hi.ceil() as u64);
    let rendered = match args.get_or("format", "text") {
        "json" => {
            // Hand-rolled JSON (vendor policy: no serde); fixed key
            // order, integer bounds — byte-deterministic per input.
            let pair = |i| {
                let (lo, hi) = ns(i);
                format!("{{\"lo\": {lo}, \"hi\": {hi}}}")
            };
            let mut out = String::from("{\n");
            out.push_str(&json_subject(&name, args));
            let _ = writeln!(out, "  \"trials\": {trials},");
            let _ = writeln!(out, "  \"ns_per_event\": {},", model.ns_per_event);
            let _ = writeln!(
                out,
                "  \"events\": {{\"lo\": {}, \"hi\": {}}},",
                envelope.events_lo, envelope.events_hi
            );
            let _ = writeln!(out, "  \"compile_ns\": {},", pair(envelope.compile_ns));
            let _ = writeln!(out, "  \"mc_ns\": {},", pair(envelope.mc_ns));
            let _ = writeln!(out, "  \"total_ns\": {},", pair(envelope.total_ns()));
            let _ = writeln!(out, "  \"peak_bytes\": {},", pair(envelope.peak_bytes));
            let _ = writeln!(out, "  \"response_bytes\": {},", pair(envelope.response_bytes));
            let _ = write!(out, "  \"predicted_ms\": {}", envelope.predicted_ms_lo());
            if let Some((policy, events)) = &compiled_events {
                let _ = write!(out, ",\n  \"compiled_policy\": \"{policy}\"");
                let _ = write!(out, ",\n  \"compiled_events\": {events}");
            }
            if let (Some(d), Some(f)) = (deadline_ms, feasible) {
                let _ = write!(out, ",\n  \"deadline_ms\": {d}");
                let _ = write!(out, ",\n  \"feasible\": {f}");
            }
            if let (Some(w), Some(n)) = (ci_half_width, trials_needed) {
                let _ = write!(out, ",\n  \"ci_half_width\": {w}");
                let _ = write!(out, ",\n  \"trials_needed\": {n}");
            }
            out.push_str("\n}\n");
            out
        }
        "text" => {
            let mut out = format!("static cost envelope for {name} on {device} ({trials} trial(s))\n");
            let row = |label: &str, i, unit: &str| {
                let (lo, hi) = ns(i);
                format!("  {label:<16}: [{lo}, {hi}] {unit}\n")
            };
            let _ = writeln!(
                out,
                "  {:<16}: [{}, {}] per trial",
                "fault events", envelope.events_lo, envelope.events_hi
            );
            out.push_str(&row("compile", envelope.compile_ns, "ns"));
            out.push_str(&row("monte-carlo", envelope.mc_ns, "ns"));
            out.push_str(&row("total", envelope.total_ns(), "ns"));
            out.push_str(&row("peak memory", envelope.peak_bytes, "B"));
            out.push_str(&row("response size", envelope.response_bytes, "B"));
            let _ = writeln!(out, "  {:<16}: ≥ {} ms", "predicted", envelope.predicted_ms_lo());
            if let Some((policy, events)) = &compiled_events {
                let inside = (envelope.events_lo..=envelope.events_hi).contains(events);
                let _ = writeln!(
                    out,
                    "  {:<16}: {events} ({policy}) — {} the predicted interval",
                    "compiled events",
                    if inside { "inside" } else { "OUTSIDE" }
                );
            }
            if let (Some(d), Some(f)) = (deadline_ms, feasible) {
                let _ = writeln!(
                    out,
                    "  {:<16}: {} ms — {}",
                    "deadline",
                    d,
                    if f { "feasible" } else { "statically INFEASIBLE" }
                );
            }
            if let (Some(w), Some(n)) = (ci_half_width, trials_needed) {
                let _ = writeln!(
                    out,
                    "  {:<16}: ±{w} needs ≥ {n} trial(s) (requested {trials})",
                    "ci half-width"
                );
            }
            out
        }
        other => {
            return Err(ArgsError::new(format!(
                "unknown --format '{other}' (use text or json)"
            )))
        }
    };
    if feasible == Some(false) {
        return Err(ArgsError::new(rendered));
    }
    Ok(rendered)
}

/// The Monte-Carlo execution engine selected by `--threads N`
/// (default: one worker per available hardware thread) and `--engine
/// scalar|bitparallel` (default: bit-parallel). The thread count
/// affects wall-clock only — estimates are bit-identical for every
/// thread count; the kernel selects which deterministic sample is
/// drawn (the scalar oracle and the bit-parallel kernel are distinct
/// samples of the same model).
fn parse_engine(args: &ParsedArgs) -> Result<McEngine, ArgsError> {
    let engine = match args.get_parsed::<usize>("threads")? {
        Some(0) => return Err(ArgsError::new("--threads must be at least 1")),
        Some(n) => McEngine::new(n),
        None => McEngine::auto(),
    };
    let kernel = match args.get("engine") {
        Some(spec) => spec.parse::<McKernel>().map_err(ArgsError::new)?,
        None => McKernel::default(),
    };
    Ok(engine.with_kernel(kernel))
}

fn cmd_pst(args: &ParsedArgs) -> Result<String, ArgsError> {
    let (device, policy, name, program) = load_setup(args)?;
    let trials: u64 = args.get_parsed("trials")?.unwrap_or(100_000);
    let seed: u64 = args.get_parsed("seed")?.unwrap_or(7);
    let engine = parse_engine(args)?;
    let compiled = policy
        .compile(&program, &device)
        .map_err(|e| ArgsError::new(e.to_string()))?;
    let analytic = compiled
        .analytic_pst(&device, CoherenceModel::Disabled)
        .map_err(|e| ArgsError::new(e.to_string()))?;
    let mc = monte_carlo_pst_with(
        &device,
        compiled.physical(),
        trials,
        seed,
        CoherenceModel::Disabled,
        engine,
    )
    .map_err(|e| ArgsError::new(e.to_string()))?;
    let mut table = Table::new(["metric", "value"]);
    table.row(["program".into(), name]);
    table.row(["policy".into(), policy.name()]);
    table.row(["inserted swaps".into(), compiled.inserted_swaps().to_string()]);
    table.row(["analytic PST".into(), format!("{:.6}", analytic.pst)]);
    table.row([
        "monte-carlo PST".into(),
        format!("{:.6} ± {:.6}", mc.pst, mc.std_error()),
    ]);
    table.row(["trials".into(), trials.to_string()]);
    Ok(table.to_string())
}

/// `quva simulate`: the Monte-Carlo estimator with machine-readable
/// JSON output.
///
/// The output never mentions the engine configuration: for a fixed
/// `(program, device, policy, trials, seed)` the bytes are identical
/// whatever `--threads` is. CI diffs `--threads 1` against
/// `--threads 8` across the benchmark suite to guard the engine's
/// seed-derivation contract.
fn cmd_simulate(args: &ParsedArgs) -> Result<String, ArgsError> {
    let (device, policy, name, program) = load_setup(args)?;
    let trials: u64 = args.get_parsed("trials")?.unwrap_or(100_000);
    let seed: u64 = args.get_parsed("seed")?.unwrap_or(7);
    let engine = parse_engine(args)?;
    let compiled = policy
        .compile(&program, &device)
        .map_err(|e| ArgsError::new(e.to_string()))?;
    let analytic = compiled
        .analytic_pst(&device, CoherenceModel::Disabled)
        .map_err(|e| ArgsError::new(e.to_string()))?;
    let mc = monte_carlo_pst_with(
        &device,
        compiled.physical(),
        trials,
        seed,
        CoherenceModel::Disabled,
        engine,
    )
    .map_err(|e| ArgsError::new(e.to_string()))?;
    // Hand-rolled JSON (vendor policy: no serde). Floats use Rust's
    // shortest-roundtrip Display — platform-independent bytes.
    let mut out = String::from("{\n");
    out.push_str(&json_subject(&name, args));
    let _ = writeln!(out, "  \"policy\": \"{}\",", policy.name());
    let _ = writeln!(out, "  \"inserted_swaps\": {},", compiled.inserted_swaps());
    let _ = writeln!(out, "  \"trials\": {trials},");
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(out, "  \"successes\": {},", mc.successes);
    let _ = writeln!(out, "  \"pst\": {},", mc.pst);
    let _ = writeln!(out, "  \"std_error\": {},", mc.std_error());
    let _ = writeln!(out, "  \"analytic_pst\": {}", analytic.pst);
    out.push_str("}\n");
    Ok(out)
}

fn cmd_trials(args: &ParsedArgs) -> Result<String, ArgsError> {
    let device = load_device(args, "q5")?;
    let policy = parse_policy(args.get_or("policy", "vqa-vqm"))?;
    let bench = parse_benchmark(args.require("bench")?)?;
    let trials: u64 = args.get_parsed("trials")?.unwrap_or(4096);
    let compiled = policy
        .compile(bench.circuit(), &device)
        .map_err(|e| ArgsError::new(e.to_string()))?;
    let outcomes = run_noisy_trials(&device, compiled.physical(), trials, 11)
        .map_err(|e| ArgsError::new(e.to_string()))?;

    let mut rows: Vec<(u64, u64)> = outcomes.histogram().iter().map(|(&o, &c)| (o, c)).collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut table = Table::new(["outcome", "count", "fraction", "accepted"]);
    for (outcome, count) in rows.into_iter().take(10) {
        table.row([
            format!("{outcome:0width$b}", width = bench.circuit().num_qubits()),
            count.to_string(),
            fmt3(count as f64 / trials as f64),
            if bench.is_success(outcome) {
                "yes".into()
            } else {
                "no".to_string()
            },
        ]);
    }
    let mut out = table.to_string();
    let _ = writeln!(
        out,
        "\nPST (output correctness): {:.4} over {trials} noisy trials",
        outcomes.success_rate(|o| bench.is_success(o))
    );
    Ok(out)
}

fn cmd_characterize(args: &ParsedArgs) -> Result<String, ArgsError> {
    let device = load_device(args, "q20")?;
    if let Some(path) = args.get("export") {
        args.reject_unread()?;
        let json = snapshot::to_json(device.calibration());
        std::fs::write(path, json).map_err(|e| ArgsError::new(format!("cannot write {path}: {e}")))?;
        return Ok(format!("wrote calibration snapshot to {path}\n"));
    }
    let cal = device.calibration();
    let topo = device.topology();
    let strengths = node_strengths(&device);

    let mut out = format!("{device}\n\n");
    // ASCII device map for grid-convention layouts
    let shape = match args.get_or("device", "q20") {
        "q20" | "ibm-q20" => Some((4, 5)),
        spec => spec.strip_prefix("grid:").and_then(|dims| {
            let dims = dims.split('@').next().unwrap_or(dims);
            let (r, c) = dims.split_once('x')?;
            Some((r.parse().ok()?, c.parse().ok()?))
        }),
    };
    if let Some((r, c)) = shape {
        out.push_str(&quva_viz::render_grid_map(&device, r, c));
        out.push('\n');
    }
    let mut qubits = Table::new(["qubit", "T1_us", "T2_us", "err_1q", "err_readout", "strength"]);
    for q in topo.qubits() {
        let i = q.index();
        qubits.row([
            q.to_string(),
            format!("{:.1}", cal.t1_us(i)),
            format!("{:.1}", cal.t2_us(i)),
            format!("{:.4}", cal.one_qubit_error(i)),
            format!("{:.4}", cal.readout_error(i)),
            format!("{:.2}", strengths[i]),
        ]);
    }
    out.push_str(&qubits.to_string());

    let mut links = Table::new(["link", "err_2q", "swap_success"]);
    for (id, link) in topo.links().iter().enumerate() {
        links.row([
            link.to_string(),
            format!("{:.4}", cal.two_qubit_error(id)),
            format!("{:.4}", (1.0 - cal.two_qubit_error(id)).powi(3)),
        ]);
    }
    out.push('\n');
    out.push_str(&links.to_string());
    let (best, worst) = cal.two_qubit_error_range();
    let _ = writeln!(
        out,
        "\nbest link {best:.3}, worst link {worst:.3}, spread {:.1}x, mean {:.3}",
        cal.variation_ratio(),
        cal.mean_two_qubit_error()
    );
    Ok(out)
}

fn cmd_partition(args: &ParsedArgs) -> Result<String, ArgsError> {
    let (device, policy, name, program) = load_setup(args)?;
    let report = partition_analysis(&program, &device, policy, CoherenceModel::Disabled)
        .map_err(|e| ArgsError::new(e.to_string()))?;
    let mut out = format!("partitioning analysis for {name} on {device}\n\n");
    let _ = writeln!(
        out,
        "one strong copy : PST {:.4} (STPT {:.4})",
        report.one_strong.pst,
        report.stpt_one()
    );
    match &report.two_copies {
        Some((x, y)) => {
            let _ = writeln!(
                out,
                "two copies      : PST {:.4} + {:.4} (STPT {:.4})",
                x.pst,
                y.pst,
                report.stpt_two()
            );
        }
        None => {
            let _ = writeln!(out, "two copies      : do not fit");
        }
    }
    let verdict = match report.recommend() {
        PartitionChoice::OneStrongCopy => "run ONE strong copy",
        PartitionChoice::TwoCopies => "run TWO concurrent copies",
    };
    let _ = writeln!(out, "recommendation  : {verdict}");
    Ok(out)
}

/// `quva profile`: compiles and simulates a suite × policy matrix
/// under the observability recorder and reports, per case, the
/// analytic PST, the static ESP interval, and a Monte-Carlo estimate,
/// all three read from the one compiled circuit. The caller ([`run`])
/// appends the per-stage span table and the counter summary.
///
/// Defaults: the table-1 suite × {baseline, vqm, vqm-mah:4, vqa-vqm}
/// on `q20`; `--bench` / `--policy` restrict the matrix to one row or
/// column.
fn cmd_profile(args: &ParsedArgs) -> Result<String, ArgsError> {
    let device = load_device(args, "q20")?;
    let trials: u64 = args.get_parsed("trials")?.unwrap_or(20_000);
    if trials == 0 {
        return Err(ArgsError::new("--trials must be at least 1"));
    }
    let seed: u64 = args.get_parsed("seed")?.unwrap_or(7);
    let engine = parse_engine(args)?;
    let benches = match args.get("bench") {
        Some(spec) => vec![parse_benchmark(spec)?],
        None => quva_benchmarks::table1_suite(),
    };
    let policies = match args.get("policy") {
        Some(spec) => vec![parse_policy(spec)?],
        None => vec![
            MappingPolicy::baseline(),
            MappingPolicy::vqm(),
            parse_policy("vqm-mah:4")?,
            MappingPolicy::vqa_vqm(),
        ],
    };

    let mut table = Table::new(["bench", "policy", "analytic_pst", "esp_lo", "esp_hi", "mc_pst"]);
    for bench in &benches {
        for &policy in &policies {
            let _case = quva_obs::span("profile", "profile.case");
            quva_obs::counter("profile.cases", 1);
            let compiled = policy
                .compile(bench.circuit(), &device)
                .map_err(|e| ArgsError::new(format!("{} on {}: {e}", policy.name(), bench.name())))?;
            let pst = compiled
                .analytic_pst(&device, CoherenceModel::Disabled)
                .map_err(|e| ArgsError::new(e.to_string()))?
                .pst;
            let esp = quva_analysis::esp_interval(
                &device,
                compiled.physical(),
                &quva_analysis::EspConfig::default(),
            );
            let mc = {
                let _mc = quva_obs::span("profile", "profile.simulate");
                monte_carlo_pst_with(
                    &device,
                    compiled.physical(),
                    trials,
                    seed,
                    CoherenceModel::Disabled,
                    engine,
                )
                .map_err(|e| ArgsError::new(e.to_string()))?
            };
            table.row([
                bench.name().to_string(),
                policy.name(),
                format!("{pst:.4}"),
                format!("{:.4}", esp.lo),
                format!("{:.4}", esp.hi),
                format!("{:.4}", mc.pst),
            ]);
        }
    }
    Ok(format!(
        "profile: {} case(s) on {device}, {trials} trials, seed {seed}\n\n{table}\n",
        benches.len() * policies.len()
    ))
}

/// `quva serve`: runs the `quvad` compilation daemon until a client
/// sends a `shutdown` frame, then drains gracefully and reports the
/// final metrics. See DESIGN.md §12 for the protocol and failure-mode
/// table.
///
/// With `--trace <file>` the whole daemon lifetime is recorded: every
/// request span, queue-depth sample, and cache/shed/retry counter
/// lands in the Chrome trace written after the drain completes.
fn cmd_serve(args: &ParsedArgs) -> Result<String, ArgsError> {
    use quva_serve::{Listen, Server, ServerConfig};
    fn knob<T: std::str::FromStr + PartialEq + Default>(
        args: &ParsedArgs,
        name: &str,
        default: T,
    ) -> Result<T, ArgsError> {
        match args.get_parsed::<T>(name)? {
            Some(n) if n == T::default() => Err(ArgsError::new(format!("--{name} must be at least 1"))),
            Some(n) => Ok(n),
            None => Ok(default),
        }
    }
    let listen = match (args.get("listen"), args.get("socket")) {
        (Some(_), Some(_)) => {
            return Err(ArgsError::new("give either --listen or --socket, not both"));
        }
        (None, Some(path)) => Listen::Unix(std::path::PathBuf::from(path)),
        (addr, None) => Listen::Tcp(addr.unwrap_or("127.0.0.1:7411").to_string()),
    };
    let defaults = ServerConfig::default();
    let config = ServerConfig {
        listen,
        workers: knob(args, "workers", defaults.workers)?,
        engine_threads: knob(args, "threads", defaults.engine_threads)?,
        engine_kernel: match args.get("engine") {
            Some(spec) => spec.parse::<McKernel>().map_err(ArgsError::new)?,
            None => McKernel::default(),
        },
        queue_capacity: knob(args, "queue", defaults.queue_capacity)?,
        default_deadline_ms: knob(args, "deadline-ms", defaults.default_deadline_ms)?,
        retry_after_ms: args
            .get_parsed("retry-after-ms")?
            .unwrap_or(defaults.retry_after_ms),
        idle_timeout_ms: knob(args, "idle-timeout-ms", defaults.idle_timeout_ms)?,
        max_connections: knob(args, "max-connections", defaults.max_connections)?,
        chaos_panics: args.has_switch("chaos"),
        flight_capacity: args
            .get_parsed("flight-capacity")?
            .unwrap_or(defaults.flight_capacity),
        dump_dir: args.get("dump-dir").map(std::path::PathBuf::from),
        dump_max_file_bytes: args
            .get_parsed("dump-file-cap-bytes")?
            .unwrap_or(defaults.dump_max_file_bytes),
        dump_max_total_bytes: args
            .get_parsed("dump-cap-bytes")?
            .unwrap_or(defaults.dump_max_total_bytes),
        journal_path: args.get("journal").map(std::path::PathBuf::from),
        journal_max_bytes: args
            .get_parsed("journal-cap-bytes")?
            .unwrap_or(defaults.journal_max_bytes),
        ..defaults
    };
    // the daemon runs until stopped, so refuse an unused option now
    args.reject_unread()?;

    let workers = config.workers;
    let queue = config.queue_capacity;
    let endpoint = match &config.listen {
        Listen::Tcp(addr) => addr.clone(),
        Listen::Unix(path) => path.display().to_string(),
    };
    let handle = Server::spawn(config).map_err(|e| ArgsError::new(format!("cannot bind {endpoint}: {e}")))?;
    let bound = handle
        .local_addr()
        .map_or_else(|| endpoint.clone(), |a| a.to_string());
    // announce on stderr: stdout carries only the final drain report
    eprintln!("quvad listening on {bound} ({workers} worker(s), queue {queue})");
    let metrics = handle.join();
    Ok(format!("quvad drained cleanly\nfinal metrics: {metrics}\n"))
}

/// One numeric sample scraped off an exposition line.
fn expo_value(line: &str) -> Option<(&str, f64)> {
    let (name, value) = line.rsplit_once(' ')?;
    Some((name, value.parse().ok()?))
}

/// The label value inside `name{key="value"}` for a given key.
fn expo_label<'a>(name: &'a str, key: &str) -> Option<&'a str> {
    let rest = name.split_once('{')?.1;
    let marker = format!("{key}=\"");
    let tail = rest.split_once(marker.as_str())?.1;
    tail.split_once('"').map(|(v, _)| v)
}

/// Renders one `quva top` dashboard frame from an exposition snapshot.
/// Pure text-to-text, so it is testable without a daemon.
fn render_top(exposition: &str) -> String {
    let mut queue_depth = 0.0;
    let mut workers = 0.0;
    let mut uptime_us = 0.0;
    let mut counters: Vec<(String, f64)> = Vec::new();
    let mut dumps: Vec<(String, f64)> = Vec::new();
    // verb -> [p50, p95, p99, count]
    let mut latency: Vec<(String, [f64; 4])> = Vec::new();
    for line in exposition.lines() {
        if line.starts_with('#') {
            continue;
        }
        let Some((name, value)) = expo_value(line) else {
            continue;
        };
        if name == "quvad_queue_depth" {
            queue_depth = value;
        } else if name == "quvad_workers_alive" {
            workers = value;
        } else if name == "quvad_uptime_us" {
            uptime_us = value;
        } else if name.starts_with("quvad_dumps_total{") {
            if let Some(trigger) = expo_label(name, "trigger") {
                dumps.push((trigger.to_string(), value));
            }
        } else if name.starts_with("quvad_latency_us{") || name.starts_with("quvad_latency_us_count{") {
            let Some(verb) = expo_label(name, "verb") else {
                continue;
            };
            let slot = match latency.iter().position(|(v, _)| v == verb) {
                Some(i) => i,
                None => {
                    latency.push((verb.to_string(), [0.0; 4]));
                    latency.len() - 1
                }
            };
            if name.starts_with("quvad_latency_us_count{") {
                latency[slot].1[3] = value;
            } else if let Some(q) = expo_label(name, "quantile") {
                match q {
                    "0.5" => latency[slot].1[0] = value,
                    "0.95" => latency[slot].1[1] = value,
                    "0.99" => latency[slot].1[2] = value,
                    _ => {}
                }
            }
        } else if let Some(counter) = name.strip_prefix("quvad_").and_then(|n| n.strip_suffix("_total")) {
            if !name.contains('{') {
                counters.push((counter.to_string(), value));
            }
        }
    }
    let mut out = format!(
        "quvad · up {:.1}s · queue depth {} · workers alive {}\n\n",
        uptime_us / 1e6,
        queue_depth as u64,
        workers as u64
    );
    out.push_str("counters:\n");
    for (name, value) in &counters {
        let _ = writeln!(out, "  {name:<22} {}", *value as u64);
    }
    out.push_str("\nlatency (us):\n");
    let _ = writeln!(
        out,
        "  {:<10} {:>10} {:>10} {:>10} {:>8}",
        "verb", "p50", "p95", "p99", "count"
    );
    for (verb, [p50, p95, p99, count]) in &latency {
        let _ = writeln!(
            out,
            "  {verb:<10} {:>10} {:>10} {:>10} {:>8}",
            *p50 as u64, *p95 as u64, *p99 as u64, *count as u64
        );
    }
    out.push_str("\nanomaly dumps:\n");
    for (trigger, value) in &dumps {
        let _ = writeln!(out, "  {trigger:<22} {}", *value as u64);
    }
    out
}

/// Pulls the exposition text out of one `metrics` response line.
fn extract_exposition(line: &str) -> Result<String, ArgsError> {
    let doc = quva_obs::parse_json(line.trim())
        .map_err(|e| ArgsError::new(format!("malformed metrics response: {e}: {line}")))?;
    if doc.get("status").and_then(|v| v.as_str()) != Some("ok") {
        return Err(ArgsError::new(format!("daemon refused metrics request: {line}")));
    }
    doc.get("result")
        .and_then(|r| r.get("exposition"))
        .and_then(|e| e.as_str())
        .map(str::to_string)
        .ok_or_else(|| ArgsError::new(format!("metrics response has no exposition: {line}")))
}

/// `quva top`: poll a running daemon's `metrics` verb and render live
/// telemetry. `--count N` stops after N refreshes (the last frame is
/// the command's output); `--raw` prints exposition text verbatim.
fn cmd_top(args: &ParsedArgs) -> Result<String, ArgsError> {
    use std::io::{BufRead, BufReader, Write};
    let addr = args.get_or("addr", "127.0.0.1:7411");
    let interval =
        std::time::Duration::from_millis(args.get_parsed::<u64>("interval-ms")?.unwrap_or(1000).max(50));
    let count: u64 = args.get_parsed("count")?.unwrap_or(0);
    let raw = args.has_switch("raw");
    // with --count 0 this polls until interrupted: check options first
    args.reject_unread()?;
    let stream = std::net::TcpStream::connect(addr)
        .map_err(|e| ArgsError::new(format!("cannot connect to {addr}: {e}")))?;
    let mut writer = stream
        .try_clone()
        .map_err(|e| ArgsError::new(format!("cannot clone connection: {e}")))?;
    let mut reader = BufReader::new(stream);
    let mut refresh: u64 = 0;
    loop {
        refresh += 1;
        writeln!(writer, "{{\"id\":\"top-{refresh}\",\"kind\":\"metrics\"}}")
            .map_err(|e| ArgsError::new(format!("connection to {addr} lost: {e}")))?;
        let mut line = String::new();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| ArgsError::new(format!("connection to {addr} lost: {e}")))?;
        if n == 0 {
            return Err(ArgsError::new(format!("daemon at {addr} closed the connection")));
        }
        let exposition = extract_exposition(&line)?;
        let frame = if raw { exposition } else { render_top(&exposition) };
        if count != 0 && refresh >= count {
            return Ok(frame);
        }
        if raw {
            println!("{frame}");
        } else {
            // clear + home between refreshes; the final frame goes
            // through the normal report path instead
            print!("\x1b[2J\x1b[H{frame}");
            let _ = std::io::stdout().flush();
        }
        std::thread::sleep(interval);
    }
}

/// `quva trace-verify <file>`: structural validation of a `--trace`
/// output — the JSON parses, every event carries the trace_event
/// schema, durations are non-negative, and spans nest per lane.
fn cmd_trace_verify(args: &ParsedArgs) -> Result<String, ArgsError> {
    let path = args
        .positionals()
        .first()
        .map(String::as_str)
        .or_else(|| args.get("trace"))
        .ok_or_else(|| ArgsError::new("missing trace file: quva trace-verify <trace.json>"))?;
    let text =
        std::fs::read_to_string(path).map_err(|e| ArgsError::new(format!("cannot read {path}: {e}")))?;
    let stats = quva_obs::validate_chrome_trace(&text)
        .map_err(|e| ArgsError::new(format!("{path}: invalid trace: {e}")))?;
    let mut out = format!("{path}: valid Chrome trace\n");
    let _ = writeln!(out, "  events    : {}", stats.events);
    let _ = writeln!(out, "  spans     : {}", stats.spans);
    let _ = writeln!(out, "  counters  : {}", stats.counters);
    let _ = writeln!(out, "  instants  : {}", stats.instants);
    let _ = writeln!(out, "  lanes     : {}", stats.threads);
    let _ = writeln!(out, "  max depth : {}", stats.max_depth);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_line(line: &[&str]) -> Result<String, ArgsError> {
        let parsed = ParsedArgs::parse(line, crate::SWITCHES).unwrap();
        run(&parsed)
    }

    #[test]
    fn help_lists_commands() {
        let out = run_line(&["help"]).unwrap();
        for cmd in ["compile", "pst", "trials", "characterize", "partition"] {
            assert!(out.contains(cmd), "usage missing {cmd}");
        }
    }

    #[test]
    fn unknown_command_errors_with_usage() {
        let err = run_line(&["frobnicate"]).unwrap_err();
        assert!(err.to_string().contains("unknown command"));
        assert!(err.to_string().contains("USAGE"));
    }

    #[test]
    fn compile_emits_qasm() {
        let out = run_line(&[
            "compile", "--device", "q20", "--policy", "vqa-vqm", "--bench", "bv:8",
        ])
        .unwrap();
        assert!(out.contains("OPENQASM 2.0;"));
        assert!(out.contains("cx q["));
    }

    #[test]
    fn compile_optimize_flag() {
        // a program with a cancellable pair: the optimizer shrinks it
        let out = run_line(&[
            "compile",
            "--device",
            "q5",
            "--policy",
            "baseline",
            "--bench",
            "bv:3",
            "--optimize",
            "--stats",
        ])
        .unwrap();
        assert!(out.contains("// optimizer removed"));
    }

    #[test]
    fn compile_stats_header() {
        let out = run_line(&[
            "compile", "--device", "q20", "--policy", "baseline", "--bench", "ghz:4", "--stats",
        ])
        .unwrap();
        assert!(out.contains("// analytic PST"));
        assert!(out.contains("// inserted swaps"));
    }

    #[test]
    fn compile_verify_flag_passes_on_real_output() {
        let out = run_line(&[
            "compile", "--device", "q20", "--policy", "vqa-vqm", "--bench", "bv:8", "--verify",
        ])
        .unwrap();
        assert!(out.contains("OPENQASM 2.0;"));
    }

    #[test]
    fn lint_clean_bench_reports_clean() {
        let out = run_line(&["lint", "--bench", "ghz:4"]).unwrap();
        assert!(out.contains("clean"), "{out}");
    }

    #[test]
    fn lint_with_device_runs_device_checks() {
        // bv's ancilla draws an unmeasured-qubit warning: reported, but
        // warnings alone keep the lint passing
        let out = run_line(&["lint", "--bench", "bv:8", "--device", "q20"]).unwrap();
        assert!(out.contains("0 error(s)"), "{out}");
        assert!(out.contains("QV102"), "{out}");
    }

    #[test]
    fn lint_catches_use_after_measure_in_qasm() {
        let dir = std::env::temp_dir().join("quva-cli-lint-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("uam.qasm");
        std::fs::write(
            &path,
            "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\nh q[0];\nmeasure q[0] -> c[0];\ncx q[0],q[1];\nmeasure q[1] -> c[1];\n",
        )
        .unwrap();
        let err = run_line(&["lint", "--qasm", path.to_str().unwrap()]).unwrap_err();
        assert!(err.to_string().contains("QV005"), "{err}");
        // json format carries the same code and also fails
        let err = run_line(&["lint", "--qasm", path.to_str().unwrap(), "--format", "json"]).unwrap_err();
        assert!(err.to_string().contains("\"code\": \"QV005\""), "{err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn lint_json_format_renders_json() {
        let out = run_line(&["lint", "--bench", "ghz:4", "--format", "json"]).unwrap();
        assert!(out.contains("\"errors\": 0"), "{out}");
        assert!(out.contains("\"passes\""), "{out}");
    }

    #[test]
    fn lint_rejects_unknown_format() {
        let err = run_line(&["lint", "--bench", "ghz:4", "--format", "yaml"]).unwrap_err();
        assert!(err.to_string().contains("unknown --format"), "{err}");
    }

    #[test]
    fn pst_reports_both_estimators() {
        let out = run_line(&[
            "pst", "--device", "q5", "--policy", "vqm", "--bench", "bv:4", "--trials", "20000",
        ])
        .unwrap();
        assert!(out.contains("analytic PST"));
        assert!(out.contains("monte-carlo PST"));
    }

    #[test]
    fn pst_accepts_threads_and_seed() {
        let a = run_line(&[
            "pst",
            "--device",
            "q5",
            "--policy",
            "vqm",
            "--bench",
            "bv:4",
            "--trials",
            "20000",
            "--threads",
            "1",
            "--seed",
            "3",
        ])
        .unwrap();
        let b = run_line(&[
            "pst",
            "--device",
            "q5",
            "--policy",
            "vqm",
            "--bench",
            "bv:4",
            "--trials",
            "20000",
            "--threads",
            "4",
            "--seed",
            "3",
        ])
        .unwrap();
        assert_eq!(a, b, "thread count leaked into the pst report");
    }

    #[test]
    fn simulate_emits_json() {
        let out = run_line(&[
            "simulate", "--device", "q5", "--policy", "baseline", "--bench", "ghz:3", "--trials", "10000",
        ])
        .unwrap();
        assert!(out.contains("\"pst\":"), "{out}");
        assert!(out.contains("\"successes\":"), "{out}");
        assert!(out.contains("\"seed\": 7"), "{out}");
    }

    #[test]
    fn json_reports_escape_the_echoed_qasm_path() {
        let dir = std::env::temp_dir().join("quva-cli-escape-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bv \"4\" \\ copy.qasm");
        std::fs::write(
            &path,
            "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\nh q[0];\ncx q[0],q[1];\nmeasure q[0] -> c[0];\nmeasure q[1] -> c[1];\n",
        )
        .unwrap();
        let path_str = path.to_str().unwrap();
        let common = ["--device", "q5", "--policy", "baseline", "--qasm", path_str];
        for command in [
            &["simulate", "--trials", "1000"][..],
            &["audit", "--format", "json"],
            &["cost", "--format", "json"],
            &["pipeline", "--compare", "--format", "json"],
        ] {
            let out = run_line(&[command, &common].concat()).unwrap();
            let doc = quva_obs::parse_json(&out).unwrap_or_else(|e| panic!("{command:?}: {e}\n{out}"));
            assert_eq!(
                doc.get("program").and_then(quva_obs::JsonValue::as_str),
                Some(path_str)
            );
            assert_eq!(
                doc.get("device").and_then(quva_obs::JsonValue::as_str),
                Some("q5")
            );
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn simulate_is_byte_identical_across_thread_counts() {
        let run_with = |threads: &str| {
            run_line(&[
                "simulate",
                "--device",
                "q20",
                "--policy",
                "vqa-vqm",
                "--bench",
                "bv:8",
                "--trials",
                "50000",
                "--threads",
                threads,
            ])
            .unwrap()
        };
        let single = run_with("1");
        for threads in ["2", "4", "8"] {
            assert_eq!(single, run_with(threads), "--threads {threads} diverged");
        }
    }

    #[test]
    fn zero_threads_is_rejected() {
        let err =
            run_line(&["simulate", "--device", "q5", "--bench", "ghz:3", "--threads", "0"]).unwrap_err();
        assert!(err.to_string().contains("--threads"), "{err}");
    }

    #[test]
    fn default_engine_is_bitparallel() {
        let base = &[
            "simulate", "--device", "q5", "--policy", "vqm", "--bench", "bv:4", "--trials", "20000",
        ];
        let implicit = run_line(base).unwrap();
        let mut explicit_args = base.to_vec();
        explicit_args.extend_from_slice(&["--engine", "bitparallel"]);
        let explicit = run_line(&explicit_args).unwrap();
        assert_eq!(implicit, explicit, "default kernel is not the bit-parallel one");
    }

    #[test]
    fn scalar_engine_draws_a_distinct_sample() {
        let run_with = |kernel: &str| {
            run_line(&[
                "simulate", "--device", "q5", "--policy", "vqm", "--bench", "bv:4", "--trials", "20000",
                "--engine", kernel,
            ])
            .unwrap()
        };
        assert_ne!(
            run_with("scalar"),
            run_with("bitparallel"),
            "the two kernels should be distinct deterministic samples"
        );
    }

    #[test]
    fn unknown_engine_is_rejected() {
        let err = run_line(&["pst", "--device", "q5", "--bench", "ghz:3", "--engine", "simd"]).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("simd") && msg.contains("scalar|bitparallel"),
            "{msg}"
        );
    }

    #[test]
    fn trials_reports_histogram_and_pst() {
        let out = run_line(&["trials", "--device", "q5", "--bench", "ghz:3", "--trials", "512"]).unwrap();
        assert!(out.contains("outcome"));
        assert!(out.contains("PST (output correctness)"));
    }

    #[test]
    fn characterize_lists_links() {
        let out = run_line(&["characterize", "--device", "q5"]).unwrap();
        assert!(out.contains("Q0–Q1") || out.contains("err_2q"));
        assert!(out.contains("spread"));
    }

    #[test]
    fn characterize_draws_the_tokyo_map() {
        let out = run_line(&["characterize", "--device", "q20"]).unwrap();
        assert!(out.contains("diagonal couplings"), "missing map in:\n{out}");
    }

    #[test]
    fn characterize_draws_grid_maps() {
        let out = run_line(&["characterize", "--device", "grid:2x3"]).unwrap();
        assert!(out.contains("Q5"), "missing grid map in:\n{out}");
    }

    #[test]
    fn partition_recommends() {
        let out = run_line(&["partition", "--device", "q20", "--bench", "bv:10"]).unwrap();
        assert!(out.contains("recommendation"));
    }

    #[test]
    fn calibration_roundtrip_through_files() {
        let dir = std::env::temp_dir().join("quva-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cal.json");
        let path_str = path.to_str().unwrap();
        let out = run_line(&["characterize", "--device", "q5", "--export", path_str]).unwrap();
        assert!(out.contains("wrote calibration snapshot"));
        // reuse the exported snapshot on the same topology
        let report = run_line(&[
            "pst",
            "--device",
            "q5",
            "--calibration",
            path_str,
            "--bench",
            "bv:3",
        ])
        .unwrap();
        assert!(report.contains("analytic PST"));
        // and reject it on a mismatched topology
        let err = run_line(&[
            "pst",
            "--device",
            "q20",
            "--calibration",
            path_str,
            "--bench",
            "bv:3",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("does not fit"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn corrupt_snapshot_strict_rejects_lenient_repairs() {
        let dir = std::env::temp_dir().join("quva-cli-corrupt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.json");
        let path_str = path.to_str().unwrap();
        // export a valid q5 snapshot, then corrupt one 2Q error rate
        run_line(&["characterize", "--device", "q5", "--export", path_str]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let cal = snapshot::parse_raw(&text).unwrap();
        let mut bad = cal;
        bad.err_2q[0] = f64::NAN;
        let dev = parse_device("q5").unwrap();
        let (repaired, _) = bad.sanitize(dev.topology(), SanitizePolicy::Clamp, None).unwrap();
        // serialize the NaN directly — the snapshot format carries it
        let mut doc = snapshot::to_json(&repaired);
        let good = format!("{}", repaired.two_qubit_error(0));
        doc = doc.replacen(&good, "NaN", 1);
        std::fs::write(&path, &doc).unwrap();

        let err = run_line(&[
            "pst",
            "--device",
            "q5",
            "--calibration",
            path_str,
            "--bench",
            "bv:3",
            "--strict",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("err_2q"), "{err}");

        // lenient mode repairs and proceeds
        let out = run_line(&[
            "pst",
            "--device",
            "q5",
            "--calibration",
            path_str,
            "--bench",
            "bv:3",
            "--lenient",
        ])
        .unwrap();
        assert!(out.contains("analytic PST"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn strict_and_lenient_conflict() {
        let err = run_line(&[
            "pst",
            "--device",
            "q5",
            "--bench",
            "bv:3",
            "--strict",
            "--lenient",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("not both"));
    }

    #[test]
    fn missing_program_is_friendly() {
        let err = run_line(&["pst", "--device", "q20"]).unwrap_err();
        assert!(err.to_string().contains("--bench"));
    }

    #[test]
    fn qasm_and_bench_conflict() {
        let err = run_line(&["pst", "--bench", "bv:4", "--qasm", "x.qasm"]).unwrap_err();
        assert!(err.to_string().contains("not both"));
    }

    #[test]
    fn explain_describes_a_code_by_id_or_name() {
        let out = run_line(&["lint", "--explain", "QV304"]).unwrap();
        assert!(out.contains("missed-vqm-route"), "{out}");
        assert!(out.contains("rationale"), "{out}");
        // names resolve too, case-insensitively
        let by_name = run_line(&["lint", "--explain", "weak-region-allocation"]).unwrap();
        assert!(by_name.contains("QV305"), "{by_name}");
    }

    #[test]
    fn explain_rejects_unknown_codes() {
        let err = run_line(&["lint", "--explain", "QV999"]).unwrap_err();
        assert!(err.to_string().contains("unknown lint code"), "{err}");
    }

    #[test]
    fn deny_warnings_flips_warning_only_lint_to_failure() {
        // bv's ancilla produces QV102 warnings: exit 0 by default…
        let out = run_line(&["lint", "--bench", "bv:8", "--device", "q20"]).unwrap();
        assert!(out.contains("0 error(s)"), "{out}");
        // …but nonzero under --deny-warnings
        let err = run_line(&["lint", "--bench", "bv:8", "--device", "q20", "--deny-warnings"]).unwrap_err();
        assert!(err.to_string().contains("QV102"), "{err}");
        // a genuinely clean program still passes under the flag
        let ok = run_line(&["lint", "--bench", "ghz:4", "--deny-warnings"]).unwrap();
        assert!(ok.contains("clean"), "{ok}");
    }

    #[test]
    fn lint_policy_merges_compiled_findings() {
        let out = run_line(&[
            "lint", "--bench", "bv:8", "--device", "q20", "--policy", "baseline", "--format", "json",
        ])
        .unwrap();
        // compiled-output passes ran alongside the source-level ones
        assert!(out.contains("esp-reliability"), "{out}");
        assert!(out.contains("coupler-legality"), "{out}");
        assert!(out.contains("QV102"), "{out}");
    }

    #[test]
    fn lint_policy_requires_device() {
        let err = run_line(&["lint", "--bench", "bv:8", "--policy", "baseline"]).unwrap_err();
        assert!(err.to_string().contains("--device"), "{err}");
    }

    #[test]
    fn audit_text_reports_esp_and_attribution() {
        let out = run_line(&[
            "audit", "--device", "q20", "--policy", "vqa-vqm", "--bench", "bv:8",
        ])
        .unwrap();
        assert!(out.contains("reliability audit"), "{out}");
        assert!(out.contains("static ESP:"), "{out}");
        assert!(out.contains("link attribution"), "{out}");
    }

    #[test]
    fn audit_json_is_deterministic_and_schema_complete() {
        let line = [
            "audit", "--device", "q20", "--policy", "vqm", "--bench", "bv:8", "--format", "json",
        ];
        let a = run_line(&line).unwrap();
        let b = run_line(&line).unwrap();
        assert_eq!(a, b, "audit JSON must be byte-deterministic");
        for key in [
            "\"esp\"",
            "\"links\"",
            "\"qubits\"",
            "\"findings\"",
            "\"program\"",
            "\"device\"",
            "\"policy\"",
            "\"drift\"",
            "\"passes\"",
        ] {
            assert!(a.contains(key), "audit JSON missing {key}:\n{a}");
        }
    }

    #[test]
    fn audit_mc_cross_check_lands_inside_interval() {
        let out = run_line(&[
            "audit",
            "--device",
            "q5",
            "--policy",
            "vqm",
            "--bench",
            "bv:4",
            "--mc-trials",
            "20000",
            "--format",
            "json",
        ])
        .unwrap();
        assert!(out.contains("\"mc_within_bounds\": true"), "{out}");
        assert!(out.contains("\"mc_trials\": 20000"), "{out}");
    }

    #[test]
    fn audit_rejects_bad_drift() {
        for bad in ["1.5", "-0.1", "nope"] {
            let err = run_line(&[
                "audit", "--device", "q5", "--policy", "vqm", "--bench", "bv:4", "--drift", bad,
            ])
            .unwrap_err();
            assert!(err.to_string().contains("--drift"), "{err}");
        }
    }

    #[test]
    fn audit_rejects_zero_mc_trials() {
        let err = run_line(&[
            "audit",
            "--device",
            "q5",
            "--policy",
            "vqm",
            "--bench",
            "bv:4",
            "--mc-trials",
            "0",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("--mc-trials"), "{err}");
    }

    #[test]
    fn pipeline_check_accepts_every_standard_policy() {
        for policy in ["baseline", "vqm", "vqm-mah:4", "vqa-vqm", "native:7"] {
            let out = run_line(&["pipeline", "--check", "--policy", policy]).unwrap();
            assert!(out.contains("clean"), "{policy}: {out}");
            let out = run_line(&["pipeline", "--check", "--policy", policy, "--verify"]).unwrap();
            assert!(out.contains("verify"), "{policy}: {out}");
        }
    }

    #[test]
    fn pipeline_check_rejects_broken_pass_lists_with_stable_codes() {
        // one per violation class, each with its QV5xx code in the output
        for (passes, code) in [
            ("route", "QV501"),
            ("allocate,optimize,route", "QV502"),
            ("allocate,allocate,route", "QV503"),
            ("allocate", "QV504"),
        ] {
            let err = run_line(&["pipeline", "--check", "--passes", passes]).unwrap_err();
            assert!(err.to_string().contains(code), "{passes}: {err}");
        }
    }

    #[test]
    fn pipeline_check_json_is_deterministic_and_carries_codes() {
        let err = run_line(&["pipeline", "--check", "--passes", "route", "--format", "json"]).unwrap_err();
        let again = run_line(&["pipeline", "--check", "--passes", "route", "--format", "json"]).unwrap_err();
        assert_eq!(err.to_string(), again.to_string());
        assert!(err.to_string().contains("\"code\": \"QV501\""), "{err}");
        assert!(err.to_string().contains("\"pipeline-contracts\""), "{err}");
    }

    #[test]
    fn pipeline_check_portfolio_list_is_clean() {
        let out = run_line(&[
            "pipeline",
            "--check",
            "--passes",
            "allocate,portfolio,verify",
            "--width",
            "3",
        ])
        .unwrap();
        assert!(out.contains("portfolio"), "{out}");
        assert!(out.contains("clean"), "{out}");
    }

    #[test]
    fn pipeline_rejects_unknown_pass_and_zero_width() {
        let err = run_line(&["pipeline", "--check", "--passes", "allocate,teleport"]).unwrap_err();
        assert!(err.to_string().contains("unknown pass 'teleport'"), "{err}");
        let err = run_line(&["pipeline", "--check", "--width", "0"]).unwrap_err();
        assert!(err.to_string().contains("--width"), "{err}");
    }

    #[test]
    fn pipeline_compare_portfolio_not_worse_than_baseline() {
        let out = run_line(&[
            "pipeline",
            "--compare",
            "--device",
            "q5",
            "--policy",
            "vqm",
            "--bench",
            "bv:4",
        ])
        .unwrap();
        assert!(out.contains("portfolio >= baseline"), "{out}");
    }

    #[test]
    fn pipeline_compare_json_reports_both_points() {
        let out = run_line(&[
            "pipeline",
            "--compare",
            "--device",
            "q5",
            "--policy",
            "baseline",
            "--bench",
            "ghz:4",
            "--format",
            "json",
        ])
        .unwrap();
        assert!(out.contains("\"baseline_esp_point\""), "{out}");
        assert!(out.contains("\"portfolio_not_worse\": true"), "{out}");
    }

    #[test]
    fn explain_covers_pipeline_codes() {
        for code in ["QV501", "QV502", "QV503", "QV504"] {
            let out = run_line(&["lint", "--explain", code]).unwrap();
            assert!(out.contains("severity : error"), "{code}: {out}");
            assert!(out.contains("pipeline"), "{code}: {out}");
        }
    }

    #[test]
    fn render_top_shows_all_dashboard_sections() {
        let exposition = "\
# TYPE quvad_requests_total counter\n\
quvad_requests_total 42\n\
# TYPE quvad_queue_depth gauge\n\
quvad_queue_depth 3\n\
# TYPE quvad_workers_alive gauge\n\
quvad_workers_alive 2\n\
quvad_dumps_total{trigger=\"deadline_exceeded\"} 1\n\
quvad_latency_us{verb=\"simulate\",quantile=\"0.5\"} 120\n\
quvad_latency_us{verb=\"simulate\",quantile=\"0.95\"} 900\n\
quvad_latency_us{verb=\"simulate\",quantile=\"0.99\"} 1500\n\
quvad_latency_us_count{verb=\"simulate\"} 7\n\
quvad_uptime_us 2500000\n";
        let out = render_top(exposition);
        assert!(out.contains("up 2.5s"), "{out}");
        assert!(out.contains("queue depth 3"), "{out}");
        assert!(out.contains("workers alive 2"), "{out}");
        assert!(out.contains("requests"), "{out}");
        assert!(out.contains("simulate"), "{out}");
        assert!(out.contains("1500"), "{out}");
        assert!(out.contains("deadline_exceeded"), "{out}");
    }

    #[test]
    fn top_scrapes_a_live_daemon() {
        use quva_serve::{Listen, Server, ServerConfig};
        let handle = Server::spawn(ServerConfig {
            listen: Listen::Tcp("127.0.0.1:0".to_string()),
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = handle.local_addr().unwrap().to_string();
        let raw = run_line(&["top", "--addr", &addr, "--count", "1", "--raw"]).unwrap();
        assert!(raw.contains("quvad_requests_total"), "{raw}");
        assert!(raw.contains("quvad_queue_depth"), "{raw}");
        assert!(
            raw.contains("quvad_latency_us{verb=\"metrics\",quantile=\"0.99\"}"),
            "{raw}"
        );
        let rendered = run_line(&["top", "--addr", &addr, "--count", "1"]).unwrap();
        assert!(rendered.contains("workers alive 2"), "{rendered}");
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn unused_options_are_rejected_by_name() {
        let err = run_line(&[
            "compile",
            "--device",
            "q20",
            "--policy",
            "vqm",
            "--bench",
            "bv:8",
            "--bogus-option",
            "3",
        ])
        .unwrap_err()
        .to_string();
        assert!(err.contains("--bogus-option"), "{err}");
        let err = run_line(&[
            "simulate", "--device", "q20", "--bench", "bv:8", "--passes", "route", "--width", "9",
        ])
        .unwrap_err()
        .to_string();
        assert!(err.contains("--passes, --width"), "{err}");
        // --check is pipeline's default mode, so naming it is no error
        run_line(&["pipeline", "--check", "--policy", "vqm"]).unwrap();
    }

    /// Shell values standing in for the CI workflow's loop variables:
    /// one representative value each, longer names first (`$p` is a
    /// prefix of `$passes`).
    const CI_VARIABLES: &[(&str, &str)] = &[
        ("$passes", "allocate,portfolio,select,verify"),
        ("$qasm", "program.qasm"),
        ("$out", "trace-out/out"),
        ("$p", "vqa-vqm"),
        ("$b", "bv:16"),
        ("$e", "bitparallel"),
        ("$1", "route"),
    ];

    /// The argv of every `quva` command line in `usage()`'s EXAMPLES and
    /// in the CI workflow (continuation lines joined, shell variables
    /// replaced by [`CI_VARIABLES`], redirections dropped).
    fn documented_command_lines() -> Vec<Vec<String>> {
        let usage = usage();
        let (_, examples) = usage.split_once("EXAMPLES:").unwrap();
        let examples = examples
            .lines()
            .filter_map(|l| l.trim().strip_prefix("quva "))
            .map(str::to_string);
        let ci = include_str!("../../../.github/workflows/ci.yml").replace("\\\n", " ");
        let ci_lines = ci.lines().filter_map(|l| {
            let (_, rest) = l
                .split_once("target/release/quva ")
                .or_else(|| l.split_once("--bin quva -- "))?;
            let mut line = rest.to_string();
            for (var, value) in CI_VARIABLES {
                line = line.replace(var, value);
            }
            Some(line)
        });
        examples
            .chain(ci_lines)
            .map(|line| {
                line.split_whitespace()
                    .map(|tok| tok.trim_matches('"'))
                    .take_while(|tok| !tok.starts_with(['>', '|', ';']) && !tok.starts_with("2>"))
                    .filter(|tok| *tok != "$@")
                    .inspect(|tok| assert!(!tok.contains('$'), "no value for {tok} in CI_VARIABLES"))
                    .map(str::to_string)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn documented_command_lines_use_every_option() {
        let dir = std::env::temp_dir().join(format!("quva-cli-documented-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("program.qasm"),
            "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\nh q[0];\ncx q[0],q[1];\n\
             measure q[0] -> c[0];\nmeasure q[1] -> c[1];\n",
        )
        .unwrap();
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let lines = documented_command_lines();
        assert!(lines.len() > 40, "{lines:?}");
        for line in lines {
            // files the repository holds are read from it; every other
            // path lands in the scratch directory
            let argv: Vec<String> = line
                .iter()
                .map(|tok| {
                    let is_path = tok.contains('/') || tok.ends_with(".json") || tok.ends_with(".qasm");
                    match (is_path, root.join(tok).exists()) {
                        (false, _) => tok.clone(),
                        (true, true) => root.join(tok).display().to_string(),
                        (true, false) => dir.join(tok.replace('/', "_")).display().to_string(),
                    }
                })
                .collect();
            // serve and top run until stopped: point them where they
            // fail at once, after reading their options
            let (argv, refusal) = match argv[0].as_str() {
                "serve" => {
                    let mut argv = argv;
                    if let Some(at) = argv.iter().position(|tok| tok == "--listen") {
                        argv.drain(at..at + 2);
                    }
                    let unbindable = dir.join("no-such-dir").join("quvad.sock");
                    argv.extend(["--socket".to_string(), unbindable.display().to_string()]);
                    (argv, Some("cannot bind"))
                }
                "top" => (
                    [argv, vec!["--addr".to_string(), "127.0.0.1:0".to_string()]].concat(),
                    Some("cannot connect"),
                ),
                _ => (argv, None),
            };
            let args = ParsedArgs::parse(&argv, crate::SWITCHES).unwrap();
            let result = run(&args);
            if let Some(refusal) = refusal {
                let err = result.unwrap_err().to_string();
                assert!(err.contains(refusal), "{line:?}: {err}");
            }
            // any other outcome may be a deliberate failure (a refused
            // pipeline); only the options matter here
            args.reject_unread().unwrap_or_else(|e| panic!("{line:?}: {e}"));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
