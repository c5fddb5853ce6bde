//! # quva-cli — command-line interface for the quva NISQ compiler
//!
//! Subcommands: `compile` (emit routed OpenQASM), `pipeline`
//! (statically contract-check a pass pipeline, or compare portfolio
//! routing against the single-candidate baseline by static ESP),
//! `lint` (static checks without compiling), `audit` (compile + static reliability
//! report: ESP bounds, error attribution, findings), `cost` (static
//! WCET-style cost envelope: `[lo, hi]` bounds on compile time,
//! Monte-Carlo time, memory, and response size — the envelope quvad's
//! admission control evaluates), `pst` (reliability
//! estimation), `simulate` (Monte-Carlo PST as machine-readable JSON),
//! `trials` (noisy state-vector execution), `characterize` (calibration
//! summary), `partition` (§8 one-vs-two copies analysis), `profile`
//! (suite × policy matrix with per-stage timings and counters),
//! `trace-verify` (structural validation of a `--trace` output),
//! `serve` (the `quvad` compilation daemon: line-delimited JSON jobs
//! over TCP or a unix socket, with admission control, deadlines, and
//! graceful drain), and `top` (live daemon telemetry: polls the
//! `metrics` verb and renders queue depth, per-verb latency quantiles,
//! and anomaly-dump totals). See [`commands::usage`] for the full
//! syntax.
//!
//! Monte-Carlo commands accept `--threads N` (default: available
//! parallelism); results are bit-identical for every thread count.
//! Every pipeline command additionally accepts `--trace <file>` (write
//! Chrome `trace_event` JSON for Perfetto / `chrome://tracing`) and
//! `--metrics` (append the deterministic counter/histogram summary).
//!
//! # Examples
//!
//! ```
//! use quva_cli::{args::ParsedArgs, commands};
//!
//! let argv = ["pst", "--device", "q5", "--bench", "ghz:3", "--trials", "10000"];
//! let parsed = ParsedArgs::parse(&argv, quva_cli::SWITCHES).unwrap();
//! let report = commands::run(&parsed).unwrap();
//! assert!(report.contains("analytic PST"));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod args;
pub mod commands;
pub mod snapshot;
pub mod spec;

/// The boolean switches every subcommand recognizes: `--stats`,
/// `--optimize`, and `--verify` (compile, pipeline), `--deny-warnings`
/// (lint / audit), `--metrics` (append the observability summary),
/// `--chaos` (serve: honor `panic` fault-injection frames), `--check` /
/// `--compare` (pipeline: contract check / portfolio-vs-baseline ESP
/// comparison), `--raw` (top: print the exposition text verbatim),
/// plus the `--strict` / `--lenient` calibration-sanitization modes.
pub const SWITCHES: &[&str] = &[
    "stats",
    "optimize",
    "verify",
    "strict",
    "lenient",
    "deny-warnings",
    "metrics",
    "chaos",
    "check",
    "compare",
    "raw",
];
