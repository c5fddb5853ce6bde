//! Observability contract of the CLI: `--trace` / `--metrics` /
//! `profile` / `trace-verify`.
//!
//! Every `--trace`/`--metrics` invocation owns the process-global
//! `quva-obs` recorder, so these tests live in their own
//! integration-test binary and serialize on a local mutex. The trace
//! schema golden pins the *shape* of the Chrome JSON (phases, keys,
//! event names) — timestamps and durations are excluded by
//! construction, so the golden is stable across machines.
//!
//! To regenerate after an intentional schema change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p quva-cli --test obs
//! ```

use std::sync::{Mutex, MutexGuard};

use quva_cli::args::ParsedArgs;
use quva_cli::commands;

fn guard() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn run(line: &[&str]) -> String {
    let parsed =
        ParsedArgs::parse(line, quva_cli::SWITCHES).unwrap_or_else(|e| panic!("argv parse failed: {e}"));
    commands::run(&parsed).unwrap_or_else(|e| panic!("command failed: {e}"))
}

fn check_golden(name: &str, actual: &str) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    assert_eq!(
        actual, expected,
        "{name} drifted from its golden; run with UPDATE_GOLDEN=1 if the change is intentional"
    );
}

fn temp_path(name: &str) -> String {
    let dir = std::env::temp_dir().join("quva-cli-obs-test");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name).to_str().unwrap().to_string()
}

/// The metrics block appended by `--metrics` (everything from the
/// `metrics:` line on). Counters and histograms carry no timestamps,
/// so this block is fully deterministic.
fn metrics_block(out: &str) -> &str {
    let at = out
        .find("metrics:")
        .unwrap_or_else(|| panic!("no metrics block in:\n{out}"));
    &out[at..]
}

#[test]
fn simulate_metrics_are_byte_identical_across_runs_and_threads() {
    let _g = guard();
    let run_with = |threads: &str| {
        run(&[
            "simulate",
            "--device",
            "q5",
            "--policy",
            "vqm",
            "--bench",
            "bv:4",
            "--trials",
            "20000",
            "--threads",
            threads,
            "--metrics",
        ])
    };
    let single = run_with("1");
    assert_eq!(
        single,
        run_with("1"),
        "same configuration must print identical bytes"
    );
    // the full output embeds sim.workers (configuration, not
    // measurement); everything else in the metrics block must be
    // schedule-independent
    let par = run_with("8");
    let strip = |s: &str| {
        s.lines()
            .filter(|l| !l.contains("sim.workers"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        strip(metrics_block(&single)),
        strip(metrics_block(&par)),
        "--threads leaked into the metrics block"
    );
    assert!(single.contains("counter sim.trials = 20000"), "{single}");
}

#[test]
fn compile_stdout_is_unchanged_by_trace() {
    let _g = guard();
    let line = [
        "compile", "--device", "q20", "--policy", "vqm", "--bench", "bv:8", "--verify",
    ];
    let plain = run(&line);
    let path = temp_path("compile_unchanged.json");
    let mut traced_line: Vec<&str> = line.to_vec();
    traced_line.extend(["--trace", &path]);
    let traced = run(&traced_line);
    assert_eq!(plain, traced, "--trace must not alter the QASM on stdout");
    std::fs::remove_file(&path).ok();
}

#[test]
fn compile_trace_schema_matches_golden() {
    let _g = guard();
    let path = temp_path("compile_schema.json");
    // compile once untraced first, so any process-global memo on the
    // compile path is warm and the traced run records the same counters
    // whatever order this binary's tests run in. The compile path has
    // no such memo today, so the golden holds no cache counter; the
    // warm-up keeps that true if a memo joins the path later
    run(&[
        "compile", "--device", "q20", "--policy", "vqm", "--bench", "bv:8", "--verify",
    ]);
    run(&[
        "compile", "--device", "q20", "--policy", "vqm", "--bench", "bv:8", "--verify", "--trace", &path,
    ]);
    let text = std::fs::read_to_string(&path).unwrap();
    // structural validity first: spans nest, durations non-negative
    let stats = quva_obs::validate_chrome_trace(&text).unwrap_or_else(|e| panic!("invalid trace: {e}"));
    assert!(
        stats.spans >= 4,
        "expected allocation/routing/verification spans, got {stats:?}"
    );
    assert!(
        stats.max_depth >= 2,
        "compile.total must contain its passes: {stats:?}"
    );
    // then the timestamp-free schema, pinned against a golden
    let schema = quva_obs::schema_summary(&text).unwrap();
    check_golden("compile_q20_vqm_bv8.trace-schema.txt", &schema);
    std::fs::remove_file(&path).ok();
}

#[test]
fn compile_verify_runs_exactly_once_per_compile() {
    let _g = guard();
    // `--verify` is threaded through the pipeline's verify pass — not
    // run again by CompileOptions — so one compile must mean exactly
    // one verification, pinned by the pass's own counter
    let out = run(&[
        "compile",
        "--device",
        "q5",
        "--policy",
        "vqm",
        "--bench",
        "bv:4",
        "--verify",
        "--metrics",
    ]);
    assert!(
        out.contains("counter compile.verify.runs = 1"),
        "verification must execute exactly once:\n{}",
        metrics_block(&out)
    );
    // and without --verify, not at all
    let out = run(&[
        "compile",
        "--device",
        "q5",
        "--policy",
        "vqm",
        "--bench",
        "bv:4",
        "--metrics",
    ]);
    assert!(
        !out.contains("compile.verify.runs"),
        "verification ran without --verify:\n{}",
        metrics_block(&out)
    );
}

#[test]
fn portfolio_compare_records_per_candidate_excess_weight() {
    let _g = guard();
    // the portfolio router probes route.excess_weight for every
    // reliability-routed candidate extension, and the whole run is
    // deterministic — so the histogram count (baseline route + every
    // surviving portfolio candidate) is pinnable exactly
    let out = run(&[
        "pipeline",
        "--compare",
        "--device",
        "q20",
        "--policy",
        "vqm",
        "--bench",
        "bv:16",
        "--metrics",
    ]);
    assert!(out.contains("portfolio >= baseline"), "{out}");
    assert!(
        out.contains("histogram route.excess_weight: count 111"),
        "per-candidate excess-weight count drifted:\n{}",
        metrics_block(&out)
    );
    assert!(out.contains("counter portfolio.kept = 45"), "{out}");
    assert!(out.contains("counter portfolio.pruned = 123"), "{out}");
}

#[test]
fn profile_reports_stage_timings_and_counters() {
    let _g = guard();
    let out = run(&[
        "profile",
        "--device",
        "q5",
        "--bench",
        "ghz:3",
        "--trials",
        "2000",
        "--threads",
        "1",
    ]);
    // the matrix: one bench × the four default policies
    assert!(out.contains("4 case(s)"), "{out}");
    // per-stage span table
    for span in ["compile.total", "compile.route", "sim.run", "profile.case"] {
        assert!(out.contains(span), "profile output missing span {span}:\n{out}");
    }
    // counter summary: one compile and one simulation per case
    assert!(out.contains("counter profile.cases = 4"), "{out}");
    assert!(out.contains("counter sim.runs = 4"), "{out}");
}

#[test]
fn trace_verify_accepts_real_traces_and_rejects_corrupt_ones() {
    let _g = guard();
    let path = temp_path("verify_roundtrip.json");
    run(&[
        "profile",
        "--device",
        "q5",
        "--bench",
        "bv:3",
        "--policy",
        "vqm",
        "--trials",
        "2000",
        "--threads",
        "1",
        "--trace",
        &path,
    ]);
    let ok = run(&["trace-verify", &path]);
    assert!(ok.contains("valid Chrome trace"), "{ok}");
    assert!(ok.contains("spans"), "{ok}");

    // corrupt it: not a trace document at all
    std::fs::write(&path, "{\"nope\": []}").unwrap();
    let parsed = ParsedArgs::parse(&["trace-verify", &path], quva_cli::SWITCHES).unwrap();
    let err = commands::run(&parsed).unwrap_err();
    assert!(err.to_string().contains("traceEvents"), "{err}");
    std::fs::remove_file(&path).ok();
}
