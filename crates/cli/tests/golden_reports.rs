//! Golden-file tests for the machine-readable report surfaces.
//!
//! `lint --format json` and `audit --format json` are consumed by CI
//! jobs and external tooling, so their schema and byte-level rendering
//! are contractual: fixed key order, documented row sort orders, floats
//! via Rust's shortest-roundtrip formatting. These tests pin the exact
//! bytes against checked-in goldens. The `simulate` goldens also pin
//! the Monte-Carlo sample: an engine optimization must reproduce every
//! success count they record.
//!
//! To regenerate after an intentional schema change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p quva-cli --test golden_reports
//! ```

use quva_cli::args::ParsedArgs;
use quva_cli::commands;

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

#[test]
fn lint_json_matches_golden() {
    let out = run(&["lint", "--bench", "ghz:4", "--format", "json"]);
    check_golden("lint_ghz4.json", &out);
}

#[test]
fn audit_json_matches_golden() {
    let out = run(&[
        "audit",
        "--device",
        "q5",
        "--policy",
        "vqm",
        "--bench",
        "bv:4",
        "--format",
        "json",
        "--mc-trials",
        "20000",
    ]);
    check_golden("audit_q5_vqm_bv4.json", &out);
}

#[test]
fn audit_judges_its_esp_bound_at_the_requested_drift() {
    let audit = |drift: &str| {
        run(&[
            "audit", "--device", "q20", "--policy", "baseline", "--bench", "alu", "--drift", drift,
            "--format", "json",
        ])
    };
    // at 90 % drift the optimistic bound is about 0.69, far above the
    // 5 % floor, so the same report must not call the bound low
    let wide = audit("0.9");
    assert!(wide.contains("\"hi\": 0.68"), "{wide}");
    assert!(!wide.contains("QV302"), "{wide}");
    // at the default 10 % the bound is about 0.03 and QV302 fires
    let narrow = audit("0.1");
    assert!(narrow.contains("\"code\": \"QV302\""), "{narrow}");
}

#[test]
fn cost_json_matches_golden() {
    let out = run(&[
        "cost", "--device", "q20", "--policy", "vqm", "--bench", "bv:8", "--format", "json",
    ]);
    check_golden("cost_q20_vqm_bv8.json", &out);
}

#[test]
fn cost_json_is_deterministic_and_schema_complete() {
    let line = [
        "cost",
        "--device",
        "q20",
        "--bench",
        "bv:16",
        "--trials",
        "20000",
        "--deadline-ms",
        "60000",
        "--ci-half-width",
        "0.01",
        "--format",
        "json",
    ];
    let a = run(&line);
    assert_eq!(a, run(&line), "cost JSON must be byte-deterministic");
    for key in [
        "\"events\"",
        "\"compile_ns\"",
        "\"mc_ns\"",
        "\"total_ns\"",
        "\"peak_bytes\"",
        "\"response_bytes\"",
        "\"predicted_ms\"",
        "\"feasible\": true",
        "\"trials_needed\": 10000",
    ] {
        assert!(a.contains(key), "cost JSON missing {key}:\n{a}");
    }
}

/// `simulate` at 200 000 trials and seed 7 must print the golden bytes
/// at one and two engine threads: the goldens pin the Monte-Carlo
/// sample itself, so a kernel change that moves a single draw fails
/// here even when every thread count still agrees with every other.
#[test]
fn simulate_json_matches_golden_at_one_and_two_threads() {
    for (name, policy, bench) in [
        ("simulate_q20_baseline_alu.json", "baseline", "alu"),
        (
            "simulate_q20_baseline_rnd-ld-16-32.json",
            "baseline",
            "rnd-ld:16:32",
        ),
        ("simulate_q20_vqa-vqm_qft-12.json", "vqa-vqm", "qft:12"),
        ("simulate_q20_vqa-vqm_bv-16.json", "vqa-vqm", "bv:16"),
    ] {
        for threads in ["1", "2"] {
            let out = run(&[
                "simulate",
                "--device",
                "q20",
                "--policy",
                policy,
                "--bench",
                bench,
                "--trials",
                "200000",
                "--seed",
                "7",
                "--threads",
                threads,
            ]);
            check_golden(name, &out);
        }
    }
}

#[test]
fn audit_golden_is_thread_count_invariant() {
    let base = run(&[
        "audit",
        "--device",
        "q5",
        "--policy",
        "vqm",
        "--bench",
        "bv:4",
        "--format",
        "json",
        "--mc-trials",
        "20000",
    ]);
    let threaded = run(&[
        "audit",
        "--device",
        "q5",
        "--policy",
        "vqm",
        "--bench",
        "bv:4",
        "--format",
        "json",
        "--mc-trials",
        "20000",
        "--threads",
        "3",
    ]);
    assert_eq!(base, threaded, "--threads leaked into the audit JSON");
}

#[test]
fn diagnostics_sort_by_span_then_code() {
    // baseline routing of bv-8 on q20 emits a mix of spanned (QV105,
    // QV303-free) and span-less diagnostics; the JSON must order them
    // span-first (span-less last), then by code, deterministically.
    let out = run(&[
        "lint", "--bench", "bv:8", "--device", "q20", "--policy", "baseline", "--format", "json",
    ]);
    let codes: Vec<&str> = out
        .lines()
        .filter_map(|l| l.split("\"code\": \"").nth(1))
        .filter_map(|rest| rest.split('"').next())
        .collect();
    assert!(!codes.is_empty(), "expected diagnostics in:\n{out}");
    let rerun = run(&[
        "lint", "--bench", "bv:8", "--device", "q20", "--policy", "baseline", "--format", "json",
    ]);
    assert_eq!(out, rerun, "lint JSON must be deterministic");
}
