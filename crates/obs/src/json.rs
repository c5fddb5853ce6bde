//! The workspace's one JSON reader and string escaper, plus Chrome
//! `trace_event` validation.
//!
//! The workspace vendors no serde. This recursive-descent parser covers
//! objects, arrays, strings, numbers, booleans and null. [`parse_json`]
//! is strict and reads quvad frames and traces; [`parse_json_lenient`]
//! also reads the `NaN` / `Infinity` literals of calibration snapshots.
//! Every parse error names its byte offset. The same parser powers the
//! CI `observability` job's structural checks: every event well-typed,
//! no negative durations, and complete (`X`) spans properly nested per
//! thread.

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, held as `f64`.
    Num(f64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member lookup on objects (first match), `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number inside, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean inside, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string inside, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Maximum container nesting depth the parsers accept. Inputs may come
/// from untrusted sources (network frames, on-disk traces and
/// calibration snapshots); the recursive-descent parser must return an
/// error on `[[[[…` bombs instead of overflowing the stack, which would
/// abort the process.
pub const MAX_JSON_DEPTH: usize = 64;

/// Parses a complete JSON document. Errors carry a byte offset.
/// Container nesting beyond [`MAX_JSON_DEPTH`] is a parse error.
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    Parser::parse(text, false)
}

/// [`parse_json`], but also reading the non-standard `NaN`, `Infinity`
/// and `-Infinity` literals as numbers: the spellings calibration feeds
/// use for non-finite values. Network frames and traces go through the
/// strict [`parse_json`], which rejects them.
pub fn parse_json_lenient(text: &str) -> Result<JsonValue, String> {
    Parser::parse(text, true)
}

/// Escapes a string for embedding in a JSON string literal (the quotes
/// themselves are the caller's).
pub fn json_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Recursive-descent reader over one document. `pos` is a byte offset
/// that only ever stops on a char boundary: it advances over ASCII
/// bytes, or over whole string runs that end before an ASCII byte.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Accept `NaN`, `Infinity` and `-Infinity` as numbers.
    lenient: bool,
}

impl Parser<'_> {
    fn parse(text: &str, lenient: bool) -> Result<JsonValue, String> {
        let mut p = Parser {
            text,
            pos: 0,
            lenient,
        };
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(p.err("trailing data"));
        }
        Ok(value)
    }

    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace, then consumes `lit` if the input continues
    /// with it.
    fn eat(&mut self, lit: &str) -> bool {
        self.skip_ws();
        let hit = self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes());
        if hit {
            self.pos += lit.len();
        }
        hit
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.skip_ws();
        if depth > MAX_JSON_DEPTH {
            return Err(self.err(&format!("nesting depth exceeds {MAX_JSON_DEPTH}")));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b't') if self.eat("true") => Ok(JsonValue::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(JsonValue::Bool(false)),
            Some(b'n') if self.eat("null") => Ok(JsonValue::Null),
            Some(b't' | b'f' | b'n') => Err(self.err("invalid literal")),
            _ if self.lenient && self.eat("NaN") => Ok(JsonValue::Num(f64::NAN)),
            _ if self.lenient && self.eat("Infinity") => Ok(JsonValue::Num(f64::INFINITY)),
            _ if self.lenient && self.eat("-Infinity") => Ok(JsonValue::Num(f64::NEG_INFINITY)),
            Some(_) => self.number(),
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        let (text, bytes) = (self.text, self.text.as_bytes());
        self.pos += 1; // '"'
        let mut out = String::new();
        loop {
            // copy the run up to the next '"' or '\' whole: both are
            // ASCII, so the run ends on a char boundary, and each byte is
            // read once however long the string
            let run = self.pos;
            while !matches!(bytes.get(self.pos), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(&text[run..self.pos]);
            match bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => self.pos += 1, // '\'
            }
            let c = match bytes.get(self.pos) {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'b') => '\u{0008}',
                Some(b'f') => '\u{000c}',
                Some(b'u') => self.unicode_escape()?,
                _ => return Err(self.err("bad escape")),
            };
            out.push(c);
            self.pos += 1;
        }
    }

    /// Decodes the `\uXXXX` escape whose `u` is at `pos`, leaving `pos`
    /// on its last hex digit. A high surrogate followed by a `\u` low
    /// surrogate decodes to the one scalar the UTF-16 pair encodes (the
    /// way Python's `json.dumps` writes non-BMP text); a lone surrogate
    /// decodes to U+FFFD.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let unit = self.hex4()?;
        if (0xd800..0xdc00).contains(&unit)
            && self.text.as_bytes().get(self.pos + 1..self.pos + 3) == Some(b"\\u")
        {
            let high_end = self.pos;
            self.pos += 2;
            let low = self.hex4()?;
            if (0xdc00..0xe000).contains(&low) {
                let scalar = 0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00);
                return Ok(char::from_u32(scalar).unwrap_or('\u{fffd}'));
            }
            // not a pair: the second escape decodes on its own
            self.pos = high_end;
        }
        Ok(char::from_u32(unit).unwrap_or('\u{fffd}'))
    }

    /// Reads the four hex digits after the `u` at `pos` and leaves `pos`
    /// on the last one.
    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .text
            .as_bytes()
            .get(self.pos + 1..self.pos + 5)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let unit = digits
            .iter()
            .try_fold(0, |acc, &b| Some(acc * 16 + char::from(b).to_digit(16)?))
            .ok_or_else(|| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(unit)
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        if self.eat("]") {
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            if self.eat("]") {
                return Ok(JsonValue::Arr(items));
            }
            if !self.eat(",") {
                return Err(self.err("expected ',' or ']'"));
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.pos += 1; // '{'
        let mut members = Vec::new();
        if self.eat("}") {
            return Ok(JsonValue::Obj(members));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected object key"));
            }
            let key = self.string()?;
            if !self.eat(":") {
                return Err(self.err("expected ':'"));
            }
            members.push((key, self.value(depth + 1)?));
            if self.eat("}") {
                return Ok(JsonValue::Obj(members));
            }
            if !self.eat(",") {
                return Err(self.err("expected ',' or '}'"));
            }
        }
    }
}

/// Structural statistics of a validated Chrome trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Total events.
    pub events: usize,
    /// `X` (complete span) events.
    pub spans: usize,
    /// `C` (counter) events.
    pub counters: usize,
    /// `I` (instant) events.
    pub instants: usize,
    /// Distinct `(pid, tid)` lanes seen.
    pub threads: usize,
    /// Deepest span nesting across all lanes (1 = no nesting).
    pub max_depth: usize,
}

/// Validates Chrome `trace_event` JSON structurally:
///
/// * the document parses and is `{"traceEvents": [...]}`;
/// * every event has string `name`/`ph` and numeric non-negative
///   `ts`/`pid`/`tid`, with `ph` one of `X`, `C`, `I`;
/// * every `X` event has a non-negative `dur`;
/// * per `(pid, tid)` lane, `X` spans nest properly — each span lies
///   entirely inside (or entirely outside) every other.
///
/// Returns structural statistics on success.
pub fn validate_chrome_trace(text: &str) -> Result<TraceStats, String> {
    let doc = parse_json(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| "missing \"traceEvents\" array".to_string())?;

    let mut stats = TraceStats {
        events: events.len(),
        ..TraceStats::default()
    };
    // (pid, tid) -> spans as (ts, dur)
    let mut lanes: BTreeMap<(u64, u64), Vec<(u64, u64)>> = BTreeMap::new();

    for (i, ev) in events.iter().enumerate() {
        let ctx = |what: &str| format!("event {i}: {what}");
        let name = ev
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| ctx("missing string \"name\""))?;
        let ph = ev
            .get("ph")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| ctx("missing string \"ph\""))?;
        let num_field = |field: &str| -> Result<u64, String> {
            let v = ev
                .get(field)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| ctx(&format!("missing numeric \"{field}\"")))?;
            if v < 0.0 {
                return Err(ctx(&format!("negative \"{field}\" ({v}) in \"{name}\"")));
            }
            Ok(v as u64)
        };
        let ts = num_field("ts")?;
        let pid = num_field("pid")?;
        let tid = num_field("tid")?;
        match ph {
            "X" => {
                stats.spans += 1;
                let dur = num_field("dur")?;
                lanes.entry((pid, tid)).or_default().push((ts, dur));
            }
            "C" => stats.counters += 1,
            "I" => stats.instants += 1,
            other => return Err(ctx(&format!("unsupported phase {other:?} in \"{name}\""))),
        }
    }

    // nesting check per lane: sort (start asc, longest first) and walk
    // a stack of open intervals; every span must fit inside the top
    for ((pid, tid), mut spans) in lanes {
        spans.sort_by_key(|&(ts, dur)| (ts, std::cmp::Reverse(dur)));
        let mut stack: Vec<(u64, u64)> = Vec::new(); // (start, end)
        for (ts, dur) in spans {
            let end = ts + dur;
            while let Some(&(_, open_end)) = stack.last() {
                if open_end <= ts {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&(_, open_end)) = stack.last() {
                if end > open_end {
                    return Err(format!(
                        "lane (pid {pid}, tid {tid}): span [{ts}, {end}) overlaps enclosing span \
                         ending at {open_end} without nesting"
                    ));
                }
            }
            stack.push((ts, end));
            stats.max_depth = stats.max_depth.max(stack.len());
        }
        stats.threads += 1;
    }

    Ok(stats)
}

/// Reduces Chrome trace JSON to a timestamp-free schema summary: per
/// phase, the sorted union of member keys (dotting into `args`) and the
/// sorted set of event names. Two traces of the same workload produce
/// identical summaries even though timestamps differ — the anchor for
/// golden-file schema tests.
pub fn schema_summary(text: &str) -> Result<String, String> {
    let doc = parse_json(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| "missing \"traceEvents\" array".to_string())?;

    // phase -> (key set, name set)
    let mut phases: BTreeMap<String, (BTreeSet<String>, BTreeSet<String>)> = BTreeMap::new();
    for ev in events {
        let ph = ev
            .get("ph")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| "event missing \"ph\"".to_string())?;
        let name = ev
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| "event missing \"name\"".to_string())?;
        let entry = phases.entry(ph.to_string()).or_default();
        entry.1.insert(name.to_string());
        if let JsonValue::Obj(members) = ev {
            for (key, value) in members {
                if key == "args" {
                    if let JsonValue::Obj(args) = value {
                        for (arg_key, _) in args {
                            entry.0.insert(format!("args.{arg_key}"));
                        }
                        continue;
                    }
                }
                entry.0.insert(key.clone());
            }
        }
    }

    let mut out = String::new();
    for (ph, (keys, names)) in &phases {
        let keys: Vec<&str> = keys.iter().map(String::as_str).collect();
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        let _ = writeln!(out, "phase {ph} keys=[{}]", keys.join(","));
        let _ = writeln!(out, "phase {ph} names=[{}]", names.join(","));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        let doc = parse_json(r#"{"a": [1, -2.5, "x\ny", true, null], "b": {"c": 3e2}}"#).unwrap();
        let arr = doc.get("a").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].as_f64(), Some(-2.5));
        assert_eq!(arr[2].as_str(), Some("x\ny"));
        assert_eq!(arr[3], JsonValue::Bool(true));
        assert_eq!(arr[4], JsonValue::Null);
        assert_eq!(
            doc.get("b").and_then(|b| b.get("c")).and_then(JsonValue::as_f64),
            Some(300.0)
        );
        for (text, want) in [
            (r#""a\n\"bA""#, "a\n\"bA"),
            (r#""\u0041\/\b\f\\""#, "A/\u{8}\u{c}\\"),
            ("\"h\u{e9}llo \u{1f389}\"", "h\u{e9}llo \u{1f389}"),
        ] {
            assert_eq!(parse_json(text), Ok(JsonValue::Str(want.to_string())), "{text}");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        // every error names its byte offset
        for (text, want) in [
            ("", "unexpected end of input at byte 0"),
            ("[1, ", "unexpected end of input at byte 4"),
            (r#"{"k": "ab"#, "unterminated string at byte 9"),
        ] {
            assert_eq!(parse_json(text).unwrap_err(), want);
        }
        for text in [
            "{",
            r#"{"a": }"#,
            r#"{"a": 1} trailing"#,
            r#""unterminated"#,
            "[1 2]",
            r#"{"a" 1}"#,
            "nul",
            "-x",
            r#""\q""#,
            r#""\u12""#,
            r#""\u12zz""#,
            r#""\ud83c\u12""#,
            "NaN",
            "-Infinity",
        ] {
            let err = parse_json(text).unwrap_err();
            assert!(err.contains(" at byte "), "{text:?} -> {err}");
        }
    }

    #[test]
    fn lenient_parser_reads_non_finite_literals() {
        let doc = parse_json_lenient("[NaN, Infinity, -Infinity, -1.5, null]").unwrap();
        let nums: Vec<Option<f64>> = doc.as_arr().unwrap().iter().map(JsonValue::as_f64).collect();
        assert!(nums[0].unwrap().is_nan());
        assert_eq!(
            &nums[1..],
            [Some(f64::INFINITY), Some(f64::NEG_INFINITY), Some(-1.5), None]
        );
        assert!(parse_json("[NaN]").is_err());
        assert!(parse_json("[Infinity]").is_err());
        assert!(parse_json_lenient("[Inf]").is_err());
    }

    #[test]
    fn surrogate_pairs_decode_to_one_scalar() {
        let str_of = |text: &str| parse_json(text).unwrap().as_str().unwrap().to_string();
        // Python's json.dumps("🎉")
        assert_eq!(str_of(r#""\ud83c\udf89""#), "\u{1f389}");
        assert_eq!(str_of(r#""\uD83C\uDF89!""#), "\u{1f389}!");
        // a lone surrogate, of either half, is U+FFFD
        assert_eq!(str_of(r#""\ud83c""#), "\u{fffd}");
        assert_eq!(str_of(r#""\ud83cx""#), "\u{fffd}x");
        assert_eq!(str_of(r#""\udf89\ud83c""#), "\u{fffd}\u{fffd}");
        // a high surrogate before a non-surrogate escape: both decode
        assert_eq!(str_of(r#""\ud83c\u0041""#), "\u{fffd}A");
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        let body = "x".repeat(1 << 20);
        let start = std::time::Instant::now();
        let doc = parse_json(&format!("{{\"s\": \"{body}\"}}")).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(doc.get("s").and_then(JsonValue::as_str), Some(body.as_str()));
        assert!(elapsed.as_secs_f64() < 2.0, "1 MiB string took {elapsed:?}");
    }

    #[test]
    fn escaped_strings_roundtrip() {
        for text in [
            "plain",
            "a \"quoted\"\nline\\path",
            "tab\there\r\u{1}\u{1f}",
            "\u{e9}\u{1f389}",
        ] {
            let escaped = json_escape(text);
            assert!(!escaped.chars().any(|c| (c as u32) < 0x20), "{escaped:?}");
            assert_eq!(
                parse_json(&format!("\"{escaped}\"")),
                Ok(JsonValue::Str(text.to_string()))
            );
        }
        assert_eq!(json_escape("a\"b\\c\u{1}"), r#"a\"b\\c\u0001"#);
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        // A nesting bomb must come back as Err, never abort the process.
        for open in ["[", "{\"k\":"] {
            let bomb = open.repeat(100_000);
            let err = parse_json(&bomb).unwrap_err();
            assert!(err.contains("nesting depth"), "unexpected error: {err}");
        }
        // Exactly at the limit still parses.
        let depth = MAX_JSON_DEPTH;
        let ok = format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse_json(&ok).is_ok());
        let too_deep = format!("{}1{}", "[".repeat(depth + 1), "]".repeat(depth + 1));
        assert!(parse_json(&too_deep).is_err());
    }

    #[test]
    fn validates_a_well_formed_trace() {
        let json = r#"{"traceEvents": [
            {"name": "outer", "cat": "t", "ph": "X", "ts": 0, "dur": 100, "pid": 1, "tid": 0},
            {"name": "inner", "cat": "t", "ph": "X", "ts": 10, "dur": 20, "pid": 1, "tid": 0},
            {"name": "c", "ph": "C", "ts": 100, "pid": 1, "tid": 0, "args": {"value": 3}},
            {"name": "w", "cat": "warn", "ph": "I", "ts": 5, "pid": 1, "tid": 0, "s": "t",
             "args": {"message": "m"}}
        ]}"#;
        let stats = validate_chrome_trace(json).unwrap();
        assert_eq!(stats.events, 4);
        assert_eq!(stats.spans, 2);
        assert_eq!(stats.counters, 1);
        assert_eq!(stats.instants, 1);
        assert_eq!(stats.threads, 1);
        assert_eq!(stats.max_depth, 2);
    }

    #[test]
    fn rejects_overlapping_spans_in_one_lane() {
        let json = r#"{"traceEvents": [
            {"name": "a", "ph": "X", "ts": 0, "dur": 50, "pid": 1, "tid": 0},
            {"name": "b", "ph": "X", "ts": 25, "dur": 50, "pid": 1, "tid": 0}
        ]}"#;
        let err = validate_chrome_trace(json).unwrap_err();
        assert!(err.contains("overlaps"), "unexpected error: {err}");
    }

    #[test]
    fn accepts_overlap_across_lanes() {
        let json = r#"{"traceEvents": [
            {"name": "a", "ph": "X", "ts": 0, "dur": 50, "pid": 1, "tid": 0},
            {"name": "b", "ph": "X", "ts": 25, "dur": 50, "pid": 1, "tid": 1}
        ]}"#;
        let stats = validate_chrome_trace(json).unwrap();
        assert_eq!(stats.threads, 2);
        assert_eq!(stats.max_depth, 1);
    }

    #[test]
    fn rejects_negative_duration_and_bad_phase() {
        let neg = r#"{"traceEvents": [
            {"name": "a", "ph": "X", "ts": 0, "dur": -1, "pid": 1, "tid": 0}
        ]}"#;
        assert!(validate_chrome_trace(neg).unwrap_err().contains("negative"));
        let phase = r#"{"traceEvents": [
            {"name": "a", "ph": "B", "ts": 0, "pid": 1, "tid": 0}
        ]}"#;
        assert!(validate_chrome_trace(phase)
            .unwrap_err()
            .contains("unsupported phase"));
    }

    #[test]
    fn schema_summary_ignores_timestamps() {
        let a = r#"{"traceEvents": [
            {"name": "s", "cat": "t", "ph": "X", "ts": 1, "dur": 2, "pid": 1, "tid": 0}
        ]}"#;
        let b = r#"{"traceEvents": [
            {"name": "s", "cat": "t", "ph": "X", "ts": 900, "dur": 7, "pid": 1, "tid": 0}
        ]}"#;
        let sa = schema_summary(a).unwrap();
        assert_eq!(sa, schema_summary(b).unwrap());
        assert!(sa.contains("phase X keys=[cat,dur,name,ph,pid,tid,ts]"));
        assert!(sa.contains("phase X names=[s]"));
    }
}
