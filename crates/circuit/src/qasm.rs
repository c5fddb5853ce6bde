//! OpenQASM 2.0 export and a parser for the subset this IR emits.
//!
//! The exporter writes every circuit the compiler produces; the parser
//! accepts that dialect back plus common real-world conveniences:
//! multiple named quantum/classical registers (flattened into one index
//! space in declaration order), standard gate names, `cx`, `swap`,
//! `measure`, `barrier`, `pi`-expression angles, and comments.

use std::borrow::Cow;
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

use crate::circuit::{Circuit, QubitId};
use crate::gate::{Gate, OneQubitKind};
use crate::qubit::{Cbit, Qubit};

/// The most qubits, and the most classical bits, that the registers of
/// one parsed program may declare in all: the largest device a spec can
/// name, so every parsed circuit fits some device.
pub const MAX_QASM_WIDTH: usize = 1024;

/// Serializes a circuit as OpenQASM 2.0.
///
/// The quantum register is named `q` and the classical register `c`.
///
/// # Examples
///
/// ```
/// use quva_circuit::{Circuit, Qubit, qasm};
///
/// let mut c = Circuit::new(2);
/// c.h(Qubit(0)).cnot(Qubit(0), Qubit(1));
/// let text = qasm::to_qasm(&c);
/// assert!(text.contains("cx q[0], q[1];"));
/// ```
pub fn to_qasm<Q: QubitId>(circuit: &Circuit<Q>) -> String {
    // a line is under 32 bytes unless it is a barrier or an angle of
    // many digits; the rare longer text grows the buffer
    let mut out = String::with_capacity(64 + 32 * circuit.len());
    out.push_str("OPENQASM 2.0;\n");
    out.push_str("include \"qelib1.inc\";\n");
    let _ = writeln!(out, "qreg q[{}];", circuit.num_qubits());
    if circuit.num_cbits() > 0 {
        let _ = writeln!(out, "creg c[{}];", circuit.num_cbits());
    }
    for gate in circuit {
        let _ = match gate {
            // `{a}` is the shortest decimal that reads back as `a`
            Gate::OneQubit { kind, qubit } => match kind.angle() {
                Some(a) => writeln!(out, "{}({a}) q[{}];", kind.qasm_name(), qubit.index()),
                None => writeln!(out, "{} q[{}];", kind.qasm_name(), qubit.index()),
            },
            Gate::Cnot { control, target } => {
                writeln!(out, "cx q[{}], q[{}];", control.index(), target.index())
            }
            Gate::Swap { a, b } => writeln!(out, "swap q[{}], q[{}];", a.index(), b.index()),
            Gate::Measure { qubit, cbit } => {
                writeln!(out, "measure q[{}] -> c[{}];", qubit.index(), cbit.index())
            }
            Gate::Barrier { qubits } => {
                out.push_str("barrier ");
                for (i, q) in qubits.iter().enumerate() {
                    let sep = if i > 0 { ", " } else { "" };
                    let _ = write!(out, "{sep}q[{}]", q.index());
                }
                writeln!(out, ";")
            }
        };
    }
    out
}

/// Error produced when parsing OpenQASM fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseQasmError {
    line: usize,
    message: String,
}

impl ParseQasmError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        ParseQasmError {
            line,
            message: message.into(),
        }
    }

    /// 1-based line number where parsing failed.
    pub fn line(&self) -> usize {
        self.line
    }
}

impl fmt::Display for ParseQasmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "qasm parse error at line {}: {}", self.line, self.message)
    }
}

impl Error for ParseQasmError {}

/// Parses the OpenQASM 2.0 subset produced by [`to_qasm`].
///
/// # Errors
///
/// Returns [`ParseQasmError`] on unknown statements, malformed operands,
/// out-of-range indices, or missing register declarations.
///
/// # Examples
///
/// ```
/// use quva_circuit::qasm;
///
/// # fn main() -> Result<(), quva_circuit::qasm::ParseQasmError> {
/// let c = qasm::from_qasm(
///     "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nh q[0];\ncx q[0], q[1];\n",
/// )?;
/// assert_eq!(c.num_qubits(), 2);
/// assert_eq!(c.cnot_count(), 1);
/// # Ok(())
/// # }
/// ```
pub fn from_qasm(text: &str) -> Result<Circuit, ParseQasmError> {
    // first pass: registers (multiple qregs/cregs are concatenated into
    // one global index space, in declaration order)
    let mut qregs = RegisterTable::default();
    let mut cregs = RegisterTable::default();
    for (lineno, stmt) in statements(text) {
        if let Some(rest) = stmt.strip_prefix("qreg") {
            qregs.declare(lineno, rest)?;
        } else if let Some(rest) = stmt.strip_prefix("creg") {
            cregs.declare(lineno, rest)?;
        }
    }

    if qregs.total == 0 {
        return Err(ParseQasmError::new(1, "missing qreg declaration"));
    }
    let mut c = Circuit::with_cbits(qregs.total, cregs.total.max(qregs.total));
    // second pass: every statement that is not a header or declaration
    for (lineno, stmt) in statements(text) {
        if !["OPENQASM", "include", "qreg", "creg"]
            .iter()
            .any(|p| stmt.starts_with(p))
        {
            parse_statement(&mut c, &qregs, &cregs, lineno, stmt)?;
        }
    }
    Ok(c)
}

/// The non-empty `;`-separated statements of `text`, trimmed and
/// without comments, each with its 1-based line number.
fn statements(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines().enumerate().flat_map(|(i, raw)| {
        strip_comment(raw)
            .split(';')
            .map(str::trim)
            .filter(|stmt| !stmt.is_empty())
            .map(move |stmt| (i + 1, stmt))
    })
}

fn strip_comment(line: &str) -> &str {
    match line.find("//") {
        Some(pos) => &line[..pos],
        None => line,
    }
}

/// Named registers flattened into one global index space.
#[derive(Debug, Default)]
struct RegisterTable<'a> {
    /// (name, offset, size), in declaration order.
    regs: Vec<(&'a str, usize, usize)>,
    /// At most [`MAX_QASM_WIDTH`].
    total: usize,
}

impl<'a> RegisterTable<'a> {
    fn declare(&mut self, lineno: usize, rest: &'a str) -> Result<(), ParseQasmError> {
        let rest = rest.trim();
        let open = rest
            .find('[')
            .ok_or_else(|| ParseQasmError::new(lineno, "malformed register declaration"))?;
        let close = rest
            .find(']')
            .ok_or_else(|| ParseQasmError::new(lineno, "malformed register declaration"))?;
        let name = rest[..open].trim();
        if name.is_empty() || !name.chars().all(|ch| ch.is_ascii_alphanumeric() || ch == '_') {
            return Err(ParseQasmError::new(lineno, format!("bad register name '{name}'")));
        }
        if self.regs.iter().any(|(n, _, _)| *n == name) {
            return Err(ParseQasmError::new(
                lineno,
                format!("register '{name}' declared twice"),
            ));
        }
        let size: usize = rest[open + 1..close]
            .trim()
            .parse()
            .map_err(|_| ParseQasmError::new(lineno, "register size is not a number"))?;
        let total = self
            .total
            .checked_add(size)
            .filter(|&t| t <= MAX_QASM_WIDTH)
            .ok_or_else(|| {
                ParseQasmError::new(
                    lineno,
                    format!(
                        "register '{name}' of size {size} declares more than {MAX_QASM_WIDTH} bits in all"
                    ),
                )
            })?;
        self.regs.push((name, self.total, size));
        self.total = total;
        Ok(())
    }

    /// Resolves `name[i]` to a global index.
    fn resolve(&self, lineno: usize, text: &str) -> Result<u32, ParseQasmError> {
        let text = text.trim();
        let open = text.find('[').ok_or_else(|| {
            ParseQasmError::new(lineno, format!("expected operand like reg[i], got '{text}'"))
        })?;
        let inner = text[open + 1..]
            .strip_suffix(']')
            .ok_or_else(|| ParseQasmError::new(lineno, format!("unclosed index in operand '{text}'")))?;
        let name = text[..open].trim();
        let idx: usize = inner
            .trim()
            .parse()
            .map_err(|_| ParseQasmError::new(lineno, format!("bad index in operand '{text}'")))?;
        let (_, offset, size) = self
            .regs
            .iter()
            .find(|(n, _, _)| *n == name)
            .ok_or_else(|| ParseQasmError::new(lineno, format!("unknown register '{name}'")))?;
        if idx >= *size {
            return Err(ParseQasmError::new(
                lineno,
                format!("index {idx} out of range for register '{name}' of size {size}"),
            ));
        }
        // below the total, which is at most MAX_QASM_WIDTH
        Ok((offset + idx) as u32)
    }
}

/// Parses an angle, refusing one that is not finite (`nan`, `inf`,
/// `pi/0`), which OpenQASM 2.0 cannot write.
fn parse_angle(lineno: usize, text: &str) -> Result<f64, ParseQasmError> {
    let text = text.trim();
    // Accept simple `pi`-expressions: pi, pi/2, -pi/4, 2*pi, plus numbers.
    let normalized = if text.contains(' ') {
        Cow::Owned(text.replace(' ', ""))
    } else {
        Cow::Borrowed(text)
    };
    let bad = || ParseQasmError::new(lineno, format!("bad angle '{text}'"));
    let value = if let Some(rest) = normalized.strip_prefix("-") {
        -parse_angle(lineno, rest)?
    } else if normalized == "pi" {
        std::f64::consts::PI
    } else if let Some(den) = normalized.strip_prefix("pi/") {
        std::f64::consts::PI / den.parse::<f64>().map_err(|_| bad())?
    } else if let Some(mul) = normalized.strip_suffix("*pi") {
        mul.parse::<f64>().map_err(|_| bad())? * std::f64::consts::PI
    } else {
        normalized.parse().map_err(|_| bad())?
    };
    if !value.is_finite() {
        return Err(ParseQasmError::new(
            lineno,
            format!("angle '{text}' is not finite"),
        ));
    }
    Ok(value)
}

fn parse_statement(
    c: &mut Circuit,
    qregs: &RegisterTable,
    cregs: &RegisterTable,
    lineno: usize,
    stmt: &str,
) -> Result<(), ParseQasmError> {
    let (head, args) = match stmt.find(|ch: char| ch.is_whitespace()) {
        Some(pos) => (&stmt[..pos], stmt[pos..].trim()),
        None => {
            return Err(ParseQasmError::new(
                lineno,
                format!("malformed statement '{stmt}'"),
            ))
        }
    };

    if head == "measure" {
        let (q, b) = match args.split_once("->") {
            Some((q, b)) if !b.contains("->") => (q, b),
            _ => return Err(ParseQasmError::new(lineno, "measure needs 'q[i] -> c[j]'")),
        };
        let q = qregs.resolve(lineno, q)?;
        let b = cregs.resolve(lineno, b)?;
        if (b as usize) >= c.num_cbits() {
            return Err(ParseQasmError::new(
                lineno,
                format!("classical index {b} out of range"),
            ));
        }
        c.measure(Qubit(q), Cbit(b));
        return Ok(());
    }

    if head == "barrier" {
        let mut qubits = Vec::new();
        for part in args.split(',') {
            qubits.push(Qubit(qregs.resolve(lineno, part)?));
        }
        c.push(Gate::Barrier { qubits });
        return Ok(());
    }

    if head == "cx" || head == "swap" {
        let mut parts = args.split(',');
        let (Some(a), Some(b), None) = (parts.next(), parts.next(), parts.next()) else {
            return Err(ParseQasmError::new(lineno, format!("{head} needs two operands")));
        };
        let a = Qubit(qregs.resolve(lineno, a)?);
        let b = Qubit(qregs.resolve(lineno, b)?);
        if a == b {
            return Err(ParseQasmError::new(
                lineno,
                format!("{head} operands must differ"),
            ));
        }
        if head == "cx" {
            c.cnot(a, b);
        } else {
            c.swap(a, b);
        }
        return Ok(());
    }

    // Single-qubit gates, possibly parameterized: name(angle) q[i]
    let (name, angle) = match head.find('(') {
        Some(open) => {
            let close = head
                .rfind(')')
                .ok_or_else(|| ParseQasmError::new(lineno, "unclosed parameter list"))?;
            (&head[..open], Some(parse_angle(lineno, &head[open + 1..close])?))
        }
        None => (head, None),
    };
    let kind = match (name, angle) {
        ("id", None) => OneQubitKind::I,
        ("x", None) => OneQubitKind::X,
        ("y", None) => OneQubitKind::Y,
        ("z", None) => OneQubitKind::Z,
        ("h", None) => OneQubitKind::H,
        ("s", None) => OneQubitKind::S,
        ("sdg", None) => OneQubitKind::Sdg,
        ("t", None) => OneQubitKind::T,
        ("tdg", None) => OneQubitKind::Tdg,
        ("rx", Some(a)) => OneQubitKind::Rx(a),
        ("ry", Some(a)) => OneQubitKind::Ry(a),
        ("rz", Some(a)) => OneQubitKind::Rz(a),
        _ => {
            return Err(ParseQasmError::new(lineno, format!("unsupported gate '{head}'")));
        }
    };
    c.one(kind, Qubit(qregs.resolve(lineno, args)?));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qubit::Qubit;

    fn sample() -> Circuit {
        let mut c = Circuit::new(3);
        c.h(Qubit(0))
            .x(Qubit(1))
            .rz(0.5, Qubit(2))
            .cnot(Qubit(0), Qubit(1))
            .swap(Qubit(1), Qubit(2))
            .barrier_all()
            .measure_all();
        c
    }

    #[test]
    fn roundtrip_preserves_circuit() {
        let c = sample();
        let text = to_qasm(&c);
        let back = from_qasm(&text).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn export_contains_headers() {
        let text = to_qasm(&sample());
        assert!(text.starts_with("OPENQASM 2.0;"));
        assert!(text.contains("qreg q[3];"));
        assert!(text.contains("creg c[3];"));
    }

    #[test]
    fn parses_pi_angles() {
        let c = from_qasm("qreg q[1];\nrz(pi/2) q[0];\nrx(-pi/4) q[0];\nry(2*pi) q[0];\n").unwrap();
        let angles: Vec<f64> = c
            .iter()
            .filter_map(|g| match g {
                Gate::OneQubit { kind, .. } => kind.angle(),
                _ => None,
            })
            .collect();
        assert!((angles[0] - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        assert!((angles[1] + std::f64::consts::FRAC_PI_4).abs() < 1e-12);
        assert!((angles[2] - 2.0 * std::f64::consts::PI).abs() < 1e-12);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let c = from_qasm("// header\nqreg q[1];\n\nh q[0]; // inline\n").unwrap();
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn multiple_statements_on_one_line() {
        let c = from_qasm("qreg q[2]; h q[0]; cx q[0], q[1];").unwrap();
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn rejects_unknown_gate() {
        let err = from_qasm("qreg q[1];\nfoo q[0];\n").unwrap_err();
        assert_eq!(err.line(), 2);
        assert!(err.to_string().contains("unsupported gate"));
    }

    #[test]
    fn rejects_missing_qreg() {
        let err = from_qasm("h q[0];\n").unwrap_err();
        assert!(err.to_string().contains("malformed statement") || err.to_string().contains("missing qreg"));
    }

    #[test]
    fn rejects_out_of_range_qubit() {
        let err = from_qasm("qreg q[2];\ncx q[0], q[5];\n").unwrap_err();
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn rejects_equal_cx_operands() {
        let err = from_qasm("qreg q[2];\ncx q[1], q[1];\n").unwrap_err();
        assert!(err.to_string().contains("must differ"));
    }

    #[test]
    fn parse_error_reports_line_number() {
        let err = from_qasm("qreg q[1];\nh q[0];\nbadness q[0];\n").unwrap_err();
        assert_eq!(err.line(), 3);
    }

    #[test]
    fn multiple_registers_flatten_in_declaration_order() {
        let c = from_qasm(
            "qreg a[2];\nqreg b[3];\ncreg m[2];\ncreg n[1];\n\
             h a[0];\ncx a[1], b[0];\nx b[2];\nmeasure b[0] -> n[0];\n",
        )
        .unwrap();
        assert_eq!(c.num_qubits(), 5);
        // a[1] = global 1, b[0] = global 2
        assert_eq!(c.gates()[1], Gate::cnot(crate::Qubit(1), crate::Qubit(2)));
        // b[2] = global 4
        assert_eq!(c.gates()[2], Gate::one(OneQubitKind::X, crate::Qubit(4)));
        // n[0] = global cbit 2
        assert_eq!(c.gates()[3], Gate::measure(crate::Qubit(2), Cbit(2)));
    }

    #[test]
    fn register_errors_are_descriptive() {
        let err = from_qasm("qreg a[2];\nqreg a[3];\n").unwrap_err();
        assert!(err.to_string().contains("declared twice"));
        let err = from_qasm("qreg a[2];\nh z[0];\n").unwrap_err();
        assert!(err.to_string().contains("unknown register 'z'"));
        let err = from_qasm("qreg a[2];\nh a[5];\n").unwrap_err();
        assert!(err.to_string().contains("out of range for register 'a'"));
    }

    #[test]
    fn refuses_a_register_past_the_width_cap() {
        // would otherwise reach a 3 GB allocation in Circuit::used_qubits
        let err = from_qasm("qreg q[3000000000]; h q[0];").unwrap_err();
        assert_eq!(err.line(), 1);
        assert!(err.to_string().contains("more than 1024"), "{err}");
        let err = from_qasm("qreg q[2];\ncreg c[1000];\ncreg d[25];\n").unwrap_err();
        assert_eq!(err.line(), 3);
        let c = from_qasm(&format!(
            "qreg q[{MAX_QASM_WIDTH}];\ncreg c[{MAX_QASM_WIDTH}];\nh q[1023];\n"
        ))
        .unwrap();
        assert_eq!((c.num_qubits(), c.num_cbits()), (MAX_QASM_WIDTH, MAX_QASM_WIDTH));
    }

    #[test]
    fn refuses_register_sizes_that_wrap_the_total() {
        // the total would wrap to 1, and `h b[0]` then panic in push
        let err = from_qasm("qreg a[18446744073709551615]; qreg b[2]; h b[0];").unwrap_err();
        assert_eq!(err.line(), 1);
        let err = from_qasm("qreg a[1000];\nqreg b[18446744073709551615];\n").unwrap_err();
        assert_eq!(err.line(), 2);
    }

    #[test]
    fn refuses_indices_past_u32_instead_of_truncating_them() {
        // q[4294967296] would become q[0] as a u32
        let err = from_qasm("qreg q[4294967298]; cx q[0], q[4294967296];").unwrap_err();
        assert_eq!(err.line(), 1);
        assert!(!err.to_string().contains("must differ"), "{err}");
    }

    #[test]
    fn refuses_non_finite_angles() {
        let program = |angle: &str| format!("qreg q[2];\ncreg c[2];\nrz({angle}) q[0];\ncx q[0], q[1];\n");
        for angle in [
            "nan", "-nan", "inf", "-inf", "infinity", "pi/0", "-pi/0", "1e308*pi",
        ] {
            let err = from_qasm(&program(angle)).unwrap_err();
            assert_eq!(err.line(), 3, "{angle}");
            assert!(err.to_string().contains("not finite"), "{angle}: {err}");
        }
        let err = from_qasm("qreg q[2]; creg c[2];\nrx(pi/2) q[0];\nrx(pi/0) q[1];\n").unwrap_err();
        assert_eq!(err.line(), 3);
    }

    #[test]
    fn measure_and_two_qubit_operand_counts_are_checked() {
        let err = from_qasm("qreg q[2];\ncreg c[2];\nmeasure q[0] -> c[0] -> c[1];\n").unwrap_err();
        assert!(err.to_string().contains("measure needs"), "{err}");
        let err = from_qasm("qreg q[3];\nswap q[0], q[1], q[2];\n").unwrap_err();
        assert!(err.to_string().contains("swap needs two operands"), "{err}");
        let err = from_qasm("qreg q[3];\ncx q[0];\n").unwrap_err();
        assert!(err.to_string().contains("cx needs two operands"), "{err}");
    }

    #[test]
    fn angle_roundtrip_precision() {
        let mut c = Circuit::new(1);
        c.rz(std::f64::consts::PI / 3.0, Qubit(0));
        let back = from_qasm(&to_qasm(&c)).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn small_angles_are_written_exactly() {
        let mut c = Circuit::new(1);
        c.rz(std::f64::consts::PI / 512.0, Qubit(0)).rx(-4e-18, Qubit(0));
        let text = to_qasm(&c);
        // the {:.17} form, 0.00613592315154256, reads back as another double
        assert!(text.contains("rz(0.006135923151542565) q[0];"), "{text}");
        assert!(text.contains("rx(-0.000000000000000004) q[0];"), "{text}");
        assert_eq!(from_qasm(&text).unwrap(), c);
    }
}
