//! A `quva` command line with an argument its command does not read
//! exits 1, names the argument, and writes no file; so does one whose
//! benchmark spec is out of range.

use std::path::PathBuf;
use std::process::Command;

const COMPILE: [&str; 7] = ["compile", "--device", "q20", "--policy", "vqm", "--bench", "bv:8"];

/// Runs `quva` and returns its stderr, asserting exit status 1.
fn refused(argv: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_quva"))
        .args(argv)
        .output()
        .unwrap_or_else(|e| panic!("quva did not start: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "{argv:?}: {stderr}");
    stderr
}

fn fresh_temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("quva-unread-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
    dir
}

#[test]
fn out_of_range_benchmarks_are_named() {
    let err = refused(&["cost", "--device", "q20", "--bench", "bv:0"]);
    assert!(err.contains("'bv:0'"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn stray_positionals_are_named() {
    let err = refused(&[&COMPILE[..], &["stray.qasm"]].concat());
    assert!(err.contains("stray.qasm"), "{err}");
    // a switch takes no value, so the `3` is a positional no command reads
    let err = refused(&[&COMPILE[..], &["--stats", "3"]].concat());
    assert!(err.contains("'3'"), "{err}");
}

#[test]
fn unread_options_write_no_file() {
    let dir = fresh_temp_dir("writes");
    let out = dir.join("routed.qasm");
    let trace = dir.join("trace.json");
    let export = dir.join("cal.json");
    let lines: [Vec<&str>; 3] = [
        [&COMPILE[..], &["--out", out.to_str().unwrap(), "--bogus", "1"]].concat(),
        [
            &COMPILE[..],
            &["--trace", trace.to_str().unwrap(), "--bogus", "1"],
        ]
        .concat(),
        vec![
            "characterize",
            "--device",
            "q5",
            "--export",
            export.to_str().unwrap(),
            "--bogus",
            "1",
        ],
    ];
    for (argv, path) in lines.iter().zip([&out, &trace, &export]) {
        let err = refused(argv);
        assert!(err.contains("--bogus"), "{argv:?}: {err}");
        assert!(!path.exists(), "{argv:?} wrote {}", path.display());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_and_metrics_are_both_used() {
    let dir = fresh_temp_dir("observed");
    let out = dir.join("routed.qasm");
    let trace = dir.join("trace.json");
    let trace_arg = trace.to_str().unwrap();
    let run = |argv: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_quva"))
            .args(argv)
            .output()
            .unwrap_or_else(|e| panic!("quva did not start: {e}"));
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_eq!(out.status.code(), Some(0), "{argv:?}: {stderr}");
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let stdout = run(&[&COMPILE[..], &["--trace", trace_arg, "--metrics"]].concat());
    assert!(
        stdout.contains("OPENQASM") && stdout.contains("metrics:"),
        "{stdout}"
    );
    assert!(trace.exists(), "no trace written");
    std::fs::remove_file(&trace).unwrap();
    let stdout = run(&[
        &COMPILE[..],
        &["--trace", trace_arg, "--metrics", "--out", out.to_str().unwrap()],
    ]
    .concat());
    assert!(stdout.contains("metrics:"), "{stdout}");
    assert!(trace.exists() && out.exists(), "a file was not written");
    let _ = std::fs::remove_dir_all(&dir);
}
