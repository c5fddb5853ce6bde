//! Reading and writing calibration snapshots as JSON, without trusting
//! the contents.
//!
//! The writer ([`to_json`]) emits the stable snapshot layout used by
//! `quva characterize --export`. The reader ([`parse_raw`]) produces a
//! [`RawCalibration`] on purpose: real calibration feeds contain NaNs,
//! `Infinity`, negative rates, and missing entries, so it parses with
//! [`quva_obs::parse_json_lenient`], which accepts any numeric token
//! including the non-standard `NaN` / `Infinity` spellings. `null`
//! entries also read as NaN. Policy decisions are left to
//! [`RawCalibration::sanitize`].

use std::error::Error;
use std::fmt;

use quva_device::{Calibration, GateDurations, RawCalibration};
use quva_obs::JsonValue;

/// A snapshot file could not be understood structurally (tokens, types,
/// or missing fields). Defective *values* are not parse errors — they
/// flow through to sanitization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotError {
    message: String,
}

impl SnapshotError {
    fn new(message: impl Into<String>) -> Self {
        SnapshotError {
            message: message.into(),
        }
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "calibration snapshot: {}", self.message)
    }
}

impl Error for SnapshotError {}

/// Serializes a calibration into the snapshot JSON layout.
pub fn to_json(cal: &Calibration) -> String {
    let mut out = String::from("{\n");
    for (name, table) in [
        ("t1_us", cal.t1_table()),
        ("t2_us", cal.t2_table()),
        ("err_1q", cal.one_qubit_errors()),
        ("err_readout", cal.readout_errors()),
        ("err_2q", cal.two_qubit_errors()),
    ] {
        out.push_str(&format!("  \"{name}\": ["));
        for (i, v) in table.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&fmt_f64(*v));
        }
        out.push_str("],\n");
    }
    let d = cal.durations();
    out.push_str(&format!(
        "  \"durations\": {{ \"one_qubit_ns\": {}, \"two_qubit_ns\": {}, \"readout_ns\": {} }}\n}}\n",
        fmt_f64(d.one_qubit_ns),
        fmt_f64(d.two_qubit_ns),
        fmt_f64(d.readout_ns)
    ));
    out
}

/// Formats an `f64` so it round-trips exactly and integers keep a
/// decimal point (`80` → `80.0`), with non-finite values using the
/// spellings the parser accepts.
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "Infinity".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Infinity".to_string()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Parses a snapshot into an unvalidated [`RawCalibration`].
///
/// # Errors
///
/// Returns [`SnapshotError`] on malformed JSON, wrong value types, or a
/// missing table. Out-of-range and non-finite *numbers* parse fine.
pub fn parse_raw(text: &str) -> Result<RawCalibration, SnapshotError> {
    let value = quva_obs::parse_json_lenient(text).map_err(SnapshotError::new)?;
    if !matches!(value, JsonValue::Obj(_)) {
        return Err(SnapshotError::new("top level must be an object"));
    }
    let table = |name: &str| -> Result<Vec<f64>, SnapshotError> {
        match value.get(name) {
            Some(JsonValue::Arr(items)) => items
                .iter()
                .map(|v| match v {
                    JsonValue::Num(n) => Ok(*n),
                    JsonValue::Null => Ok(f64::NAN),
                    other => Err(SnapshotError::new(format!(
                        "'{name}' entries must be numbers, found {}",
                        kind(other)
                    ))),
                })
                .collect(),
            Some(other) => Err(SnapshotError::new(format!(
                "'{name}' must be an array, found {}",
                kind(other)
            ))),
            None => Err(SnapshotError::new(format!("missing field '{name}'"))),
        }
    };
    let durations = match value.get("durations") {
        Some(d @ JsonValue::Obj(_)) => {
            let num = |name: &str| -> Result<f64, SnapshotError> {
                match d.get(name) {
                    Some(JsonValue::Num(n)) => Ok(*n),
                    Some(other) => Err(SnapshotError::new(format!(
                        "durations.{name} must be a number, found {}",
                        kind(other)
                    ))),
                    None => Err(SnapshotError::new(format!("durations is missing '{name}'"))),
                }
            };
            Some(GateDurations {
                one_qubit_ns: num("one_qubit_ns")?,
                two_qubit_ns: num("two_qubit_ns")?,
                readout_ns: num("readout_ns")?,
            })
        }
        Some(other) => {
            return Err(SnapshotError::new(format!(
                "'durations' must be an object, found {}",
                kind(other)
            )))
        }
        None => None,
    };
    Ok(RawCalibration {
        t1_us: table("t1_us")?,
        t2_us: table("t2_us")?,
        err_1q: table("err_1q")?,
        err_readout: table("err_readout")?,
        err_2q: table("err_2q")?,
        durations,
    })
}

/// How a value reads in a type error: "found a boolean".
fn kind(value: &JsonValue) -> &'static str {
    match value {
        JsonValue::Null => "null",
        JsonValue::Bool(_) => "a boolean",
        JsonValue::Num(_) => "a number",
        JsonValue::Str(_) => "a string",
        JsonValue::Arr(_) => "an array",
        JsonValue::Obj(_) => "an object",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quva_device::{SanitizePolicy, Topology};

    #[test]
    fn roundtrip_preserves_every_table() {
        let t = Topology::ibm_q20_tokyo();
        let cal = Calibration::uniform(&t, 0.031_25, 0.0042, 0.0211);
        let raw = parse_raw(&to_json(&cal)).unwrap();
        assert_eq!(raw.t1_us, cal.t1_table());
        assert_eq!(raw.err_2q, cal.two_qubit_errors());
        assert_eq!(raw.durations, Some(cal.durations()));
        let (back, report) = raw.sanitize(&t, SanitizePolicy::Reject, None).unwrap();
        assert!(report.is_clean());
        assert_eq!(&back, &cal);
    }

    #[test]
    fn parser_accepts_nan_and_infinity_tokens() {
        let raw = parse_raw(
            r#"{"t1_us": [NaN, Infinity], "t2_us": [-Infinity, null],
                "err_1q": [0.1, 2e-3], "err_readout": [0.0, 0.5], "err_2q": [1.5]}"#,
        )
        .unwrap();
        assert!(raw.t1_us[0].is_nan());
        assert_eq!(raw.t1_us[1], f64::INFINITY);
        assert_eq!(raw.t2_us[0], f64::NEG_INFINITY);
        assert!(raw.t2_us[1].is_nan());
        assert_eq!(raw.err_1q[1], 0.002);
        assert_eq!(raw.err_2q[0], 1.5);
        assert_eq!(raw.durations, None);
    }

    #[test]
    fn strings_with_escapes_parse() {
        let v = quva_obs::parse_json_lenient(r#""a\n\"bA""#).unwrap();
        assert_eq!(v, JsonValue::Str("a\n\"bA".to_string()));
        // An escaped key names its table, and an escaped extra string
        // field is skipped over.
        let raw = parse_raw(
            r#"{"note": "tab\there \"quoted\"", "t1\u005fus": [80.0], "t2_us": [60.0],
                "err_1q": [0.001], "err_readout": [0.02], "err_2q": [0.03]}"#,
        )
        .unwrap();
        assert_eq!(raw.t1_us, vec![80.0]);
        assert_eq!(raw.err_2q, vec![0.03]);
    }

    #[test]
    fn missing_table_is_a_parse_error() {
        let err = parse_raw(r#"{"t1_us": [1.0]}"#).unwrap_err();
        assert!(err.to_string().contains("missing field 't2_us'"), "{err}");
    }

    #[test]
    fn wrong_types_are_parse_errors() {
        let err = parse_raw(r#"{"t1_us": "not a list"}"#).unwrap_err();
        assert!(err.to_string().contains("must be an array"), "{err}");
        let err = parse_raw(r#"{"t1_us": [true]}"#).unwrap_err();
        assert!(err.to_string().contains("must be numbers"), "{err}");
    }

    #[test]
    fn malformed_json_is_reported_with_position() {
        for text in ["", "{", "[1, ", "{\"a\" 1}", "{\"a\": 1} trailing", "nul"] {
            let err = parse_raw(text).unwrap_err();
            assert!(err.to_string().contains("at byte"), "{text:?} -> {err}");
        }
    }

    #[test]
    fn serializer_spells_out_non_finite_values() {
        assert_eq!(fmt_f64(f64::NAN), "NaN");
        assert_eq!(fmt_f64(f64::INFINITY), "Infinity");
        assert_eq!(fmt_f64(f64::NEG_INFINITY), "-Infinity");
        assert_eq!(fmt_f64(80.0), "80.0");
        assert_eq!(fmt_f64(0.0042), "0.0042");
    }

    #[test]
    fn every_byte_truncation_is_a_typed_error() {
        // A partially-written snapshot (crash mid-flush, torn download)
        // must never panic — every prefix parses to Err or, for the
        // rare prefix that is itself complete JSON, to a missing-field
        // error caught by the structural checks.
        let t = Topology::ibm_q5_tenerife();
        let full = to_json(&Calibration::uniform(&t, 0.031_25, 0.0042, 0.0211));
        assert!(parse_raw(&full).is_ok());
        // Trailing whitespace aside, every strict prefix leaves the
        // top-level object unclosed and must fail.
        let doc = full.trim_end();
        for cut in 0..doc.len() {
            if !doc.is_char_boundary(cut) {
                continue;
            }
            assert!(parse_raw(&doc[..cut]).is_err(), "prefix of {cut} bytes parsed");
        }
    }

    #[test]
    fn garbage_bytes_are_typed_errors() {
        for garbage in [
            "\u{0}\u{1}\u{2}",
            "PK\u{3}\u{4}not-json-at-all",
            "{\"t1_us\": [1.0,,]}",
            "[[[[",
            "{\"a\": {\"b\": ",
            "\"\\u12\"",
            "{\"t1_us\"; [1.0]}",
        ] {
            assert!(parse_raw(garbage).is_err(), "garbage {garbage:?} parsed");
        }
    }

    #[test]
    fn nesting_bomb_is_an_error_not_a_stack_overflow() {
        for open in ["[", "{\"k\":"] {
            let bomb = open.repeat(100_000);
            let err = parse_raw(&bomb).unwrap_err();
            assert!(err.to_string().contains("nesting depth"), "{err}");
        }
        // Depth at the limit still parses structurally, then fails the
        // snapshot field checks, which is the expected typed error.
        let depth = quva_obs::MAX_JSON_DEPTH;
        let deep = format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
        let err = parse_raw(&deep).unwrap_err();
        assert!(err.to_string().contains("top level must be an object"), "{err}");
    }
}
