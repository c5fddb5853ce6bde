//! Self-test of the harness: a one-second run of each workload, in both
//! modes, must pass its oracle and print exactly the metrics
//! `BENCHMARK.json` names, each with its declared unit.
//!
//! ```sh
//! cargo test --release --offline --manifest-path ledger/Cargo.toml
//! ```

use std::path::Path;
use std::process::Command;

use quva_obs::{parse_json, JsonValue};

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the ledger package sits in the repository root")
}

/// (name, unit) of every metric in one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    let text =
        std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json is readable");
    let doc = parse_json(&text).expect("BENCHMARK.json parses");
    let JsonValue::Arr(items) = doc.get(list).expect("list present") else {
        panic!("{list} is not a list");
    };
    items
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(|v| v.as_str())
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn check(workload: &str, trace: bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_ledger"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", "5", "--seconds", "1", "--trace"])
        .arg(if trace { "1" } else { "0" })
        .output()
        .expect("the ledger binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = parse_json(last).unwrap_or_else(|e| panic!("{workload}: {e}: {last}"));
    assert_eq!(
        result.get("correct").and_then(|v| v.as_bool()),
        Some(true),
        "{last}"
    );
    assert_eq!(result.get("failed").and_then(|v| v.as_f64()), Some(0.0), "{last}");
    assert!(result
        .get("attempted")
        .and_then(|v| v.as_f64())
        .is_some_and(|n| n >= 1.0));
    let Some(JsonValue::Obj(metrics)) = result.get("metrics") else {
        panic!("{workload}: no metrics object in {last}");
    };
    let expected = declared(if trace { "per_layer" } else { "end_to_end" });
    assert_eq!(
        metrics.len(),
        expected.len(),
        "{workload}: metric count in {last}"
    );
    for (name, unit) in expected {
        let m = result
            .get("metrics")
            .and_then(|ms| ms.get(&name))
            .unwrap_or_else(|| panic!("{workload}: {name} missing"));
        assert_eq!(
            m.get("unit").and_then(|u| u.as_str()),
            Some(unit.as_str()),
            "{workload}: {name}"
        );
        assert!(
            m.get("value")
                .and_then(|v| v.as_f64())
                .is_some_and(f64::is_finite),
            "{name}"
        );
    }
}

#[test]
fn policy_sweep_runs_and_reports_every_metric() {
    check("policy-sweep", false);
    check("policy-sweep", true);
}

#[test]
fn mc_sweep_runs_and_reports_every_metric() {
    check("mc-sweep", false);
    check("mc-sweep", true);
}

#[test]
fn serve_mixed_runs_and_reports_every_metric() {
    check("serve-mixed", false);
    check("serve-mixed", true);
}
