//! Per-device calibration data: the error rates and coherence times that
//! the variation-aware policies consume.
//!
//! A [`Calibration`] is one characterization snapshot of a device — what
//! IBM publishes after each calibration cycle (§3 of the paper): T1/T2
//! coherence times and readout/1Q error per qubit, plus a 2Q error rate
//! per coupling link.

use std::error::Error;
use std::fmt;

use crate::topology::Topology;

/// Wall-clock durations of the primitive operations, used by the
/// coherence-error model (§4.4: gate errors dominate, but decoherence of
/// idle qubits is still modeled).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateDurations {
    /// Duration of a single-qubit gate, nanoseconds.
    pub one_qubit_ns: f64,
    /// Duration of a CNOT, nanoseconds.
    pub two_qubit_ns: f64,
    /// Duration of a readout operation, nanoseconds.
    pub readout_ns: f64,
}

impl Default for GateDurations {
    /// IBM-Q20-era typical values: 50 ns single-qubit pulses, 300 ns
    /// CNOTs, 3.5 µs readout.
    fn default() -> Self {
        GateDurations {
            one_qubit_ns: 50.0,
            two_qubit_ns: 300.0,
            readout_ns: 3500.0,
        }
    }
}

/// Error returned when calibration data is inconsistent with its device.
#[derive(Debug, Clone, PartialEq)]
pub enum CalibrationError {
    /// A per-qubit vector had the wrong length.
    QubitCountMismatch {
        /// Which field was wrong.
        field: &'static str,
        /// Expected length (device qubit count).
        expected: usize,
        /// Observed length.
        actual: usize,
    },
    /// The per-link error vector had the wrong length.
    LinkCountMismatch {
        /// Expected length (device link count).
        expected: usize,
        /// Observed length.
        actual: usize,
    },
    /// A probability fell outside `[0, 1)`.
    InvalidProbability {
        /// Which field was wrong.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A coherence time was not strictly positive.
    InvalidCoherence {
        /// The offending value in microseconds.
        value: f64,
    },
}

impl fmt::Display for CalibrationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CalibrationError::QubitCountMismatch {
                field,
                expected,
                actual,
            } => {
                write!(f, "{field} has {actual} entries, device has {expected} qubits")
            }
            CalibrationError::LinkCountMismatch { expected, actual } => {
                write!(
                    f,
                    "two-qubit error table has {actual} entries, device has {expected} links"
                )
            }
            CalibrationError::InvalidProbability { field, value } => {
                write!(
                    f,
                    "{field} contains {value}, which is not a probability in [0, 1)"
                )
            }
            CalibrationError::InvalidCoherence { value } => {
                write!(f, "coherence time {value} µs is not strictly positive")
            }
        }
    }
}

impl Error for CalibrationError {}

/// One characterization snapshot of a device.
///
/// Two-qubit errors are indexed by *link id* (the link's position in
/// [`Topology::links`]); per-qubit quantities by qubit index.
///
/// # Examples
///
/// ```
/// use quva_device::{Calibration, Topology};
///
/// let topo = Topology::linear(3);
/// let cal = Calibration::uniform(&topo, 0.04, 0.001, 0.03);
/// assert_eq!(cal.two_qubit_error(0), 0.04);
/// assert!((cal.mean_two_qubit_error() - 0.04).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    t1_us: Vec<f64>,
    t2_us: Vec<f64>,
    err_1q: Vec<f64>,
    err_readout: Vec<f64>,
    err_2q: Vec<f64>,
    durations: GateDurations,
}

impl Calibration {
    /// Builds a calibration from explicit tables, validating every entry
    /// against the device shape.
    ///
    /// # Errors
    ///
    /// Returns a [`CalibrationError`] if a table has the wrong length,
    /// a probability is outside `[0, 1)`, or a coherence time is not
    /// positive.
    pub fn new(
        topology: &Topology,
        t1_us: Vec<f64>,
        t2_us: Vec<f64>,
        err_1q: Vec<f64>,
        err_readout: Vec<f64>,
        err_2q: Vec<f64>,
        durations: GateDurations,
    ) -> Result<Self, CalibrationError> {
        let n = topology.num_qubits();
        for (field, v) in [
            ("t1", &t1_us),
            ("t2", &t2_us),
            ("err_1q", &err_1q),
            ("err_readout", &err_readout),
        ] {
            if v.len() != n {
                return Err(CalibrationError::QubitCountMismatch {
                    field,
                    expected: n,
                    actual: v.len(),
                });
            }
        }
        if err_2q.len() != topology.num_links() {
            return Err(CalibrationError::LinkCountMismatch {
                expected: topology.num_links(),
                actual: err_2q.len(),
            });
        }
        for &t in t1_us.iter().chain(t2_us.iter()) {
            if t.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                return Err(CalibrationError::InvalidCoherence { value: t });
            }
        }
        for (field, v) in [
            ("err_1q", &err_1q),
            ("err_readout", &err_readout),
            ("err_2q", &err_2q),
        ] {
            for &p in v.iter() {
                if !(0.0..1.0).contains(&p) {
                    return Err(CalibrationError::InvalidProbability { field, value: p });
                }
            }
        }
        Ok(Calibration {
            t1_us,
            t2_us,
            err_1q,
            err_readout,
            err_2q,
            durations,
        })
    }

    /// A variation-free calibration: every link has 2Q error `err_2q`,
    /// every qubit has 1Q error `err_1q` and readout error
    /// `err_readout`, with generous coherence times.
    ///
    /// Under a uniform calibration the variation-aware policies must
    /// coincide with the baseline (tested property).
    ///
    /// **Invariant:** the result is always a valid calibration. Error
    /// rates outside `[0, 1)` (including NaN) are clamped into range
    /// rather than rejected — NaN maps to just below 1 so a garbage
    /// rate reads as "assume the worst", never as a crash.
    pub fn uniform(topology: &Topology, err_2q: f64, err_1q: f64, err_readout: f64) -> Self {
        let n = topology.num_qubits();
        match Calibration::new(
            topology,
            vec![80.0; n],
            vec![40.0; n],
            vec![clamp_error_rate(err_1q); n],
            vec![clamp_error_rate(err_readout); n],
            vec![clamp_error_rate(err_2q); topology.num_links()],
            GateDurations::default(),
        ) {
            Ok(cal) => cal,
            // clamp_error_rate guarantees every probability is in
            // range, coherence times are constants, and table lengths
            // come from the topology itself
            Err(_) => unreachable!("clamped uniform calibration is always valid"),
        }
    }

    /// T1 relaxation time of `q`, microseconds.
    pub fn t1_us(&self, q: usize) -> f64 {
        self.t1_us[q]
    }

    /// T2 dephasing time of `q`, microseconds.
    pub fn t2_us(&self, q: usize) -> f64 {
        self.t2_us[q]
    }

    /// Single-qubit gate error rate of `q`.
    pub fn one_qubit_error(&self, q: usize) -> f64 {
        self.err_1q[q]
    }

    /// Readout error rate of `q`.
    pub fn readout_error(&self, q: usize) -> f64 {
        self.err_readout[q]
    }

    /// Two-qubit (CNOT) error rate of the link with id `link_id`.
    pub fn two_qubit_error(&self, link_id: usize) -> f64 {
        self.err_2q[link_id]
    }

    /// Overwrites the two-qubit error of one link.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1)`.
    pub fn set_two_qubit_error(&mut self, link_id: usize, p: f64) {
        assert!((0.0..1.0).contains(&p), "error rate {p} out of range");
        self.err_2q[link_id] = p;
    }

    /// The whole per-link error table, indexed by link id.
    pub fn two_qubit_errors(&self) -> &[f64] {
        &self.err_2q
    }

    /// All T1 values, indexed by qubit.
    pub fn t1_table(&self) -> &[f64] {
        &self.t1_us
    }

    /// All T2 values, indexed by qubit.
    pub fn t2_table(&self) -> &[f64] {
        &self.t2_us
    }

    /// All single-qubit error rates, indexed by qubit.
    pub fn one_qubit_errors(&self) -> &[f64] {
        &self.err_1q
    }

    /// All readout error rates, indexed by qubit.
    pub fn readout_errors(&self) -> &[f64] {
        &self.err_readout
    }

    /// Gate durations for the coherence model.
    pub fn durations(&self) -> GateDurations {
        self.durations
    }

    /// Mean two-qubit error across links.
    pub fn mean_two_qubit_error(&self) -> f64 {
        mean(&self.err_2q)
    }

    /// Population standard deviation of two-qubit error across links.
    pub fn std_two_qubit_error(&self) -> f64 {
        std_dev(&self.err_2q)
    }

    /// `(best, worst)` two-qubit error across links.
    pub fn two_qubit_error_range(&self) -> (f64, f64) {
        let best = self.err_2q.iter().copied().fold(f64::INFINITY, f64::min);
        let worst = self.err_2q.iter().copied().fold(0.0f64, f64::max);
        (best, worst)
    }

    /// Worst/best two-qubit error ratio — the paper's "7.5x" spread
    /// metric (§3.5).
    pub fn variation_ratio(&self) -> f64 {
        let (best, worst) = self.two_qubit_error_range();
        worst / best
    }

    /// Coefficient of variation (σ/µ) of the two-qubit errors — the
    /// knob Table 2 scales.
    pub fn two_qubit_cov(&self) -> f64 {
        self.std_two_qubit_error() / self.mean_two_qubit_error()
    }

    /// Returns a copy with every error rate multiplied by `factor`
    /// (coherence times untouched). Used for the Table 2 "10x lower
    /// error rate" scenario.
    ///
    /// # Panics
    ///
    /// Panics if scaling would push an error rate outside `[0, 1)`.
    pub fn with_errors_scaled(&self, factor: f64) -> Self {
        let scale = |v: &[f64], field: &str| -> Vec<f64> {
            v.iter()
                .map(|&p| {
                    let s = p * factor;
                    assert!(
                        (0.0..1.0).contains(&s),
                        "scaling {field} by {factor} leaves range"
                    );
                    s
                })
                .collect()
        };
        Calibration {
            t1_us: self.t1_us.clone(),
            t2_us: self.t2_us.clone(),
            err_1q: scale(&self.err_1q, "err_1q"),
            err_readout: scale(&self.err_readout, "err_readout"),
            err_2q: scale(&self.err_2q, "err_2q"),
            durations: self.durations,
        }
    }

    /// Returns a copy whose two-qubit errors are spread around their
    /// mean by `cov_factor` (1.0 = unchanged, 2.0 = double the
    /// coefficient of variation), clamped to `[1e-5, 0.5]`. Used for the
    /// Table 2 "2×Cov" scenario.
    ///
    /// # Panics
    ///
    /// Panics if `cov_factor` is NaN or infinite: the clamp passes NaN
    /// through, which would break the `[0, 1)` error-rate invariant.
    pub fn with_two_qubit_cov_scaled(&self, cov_factor: f64) -> Self {
        assert!(cov_factor.is_finite(), "cov factor {cov_factor} is not finite");
        let mu = self.mean_two_qubit_error();
        let err_2q = self
            .err_2q
            .iter()
            .map(|&p| (mu + (p - mu) * cov_factor).clamp(1e-5, 0.5))
            .collect();
        Calibration {
            err_2q,
            ..self.clone()
        }
    }
}

/// Forces an error rate into the valid `[0, 1)` range: negatives become
/// 0, values at or above 1 become just below 1, and NaN — an *unknown*
/// rate — pessimistically becomes just below 1 as well.
pub(crate) fn clamp_error_rate(p: f64) -> f64 {
    const MAX: f64 = 1.0 - 1e-6;
    if p.is_nan() {
        MAX
    } else {
        p.clamp(0.0, MAX)
    }
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

fn std_dev(v: &[f64]) -> f64 {
    if v.len() < 2 {
        return 0.0;
    }
    let m = mean(v);
    (v.iter().map(|x| (x - m).powi(2)).sum::<f64>() / v.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::linear(4)
    }

    #[test]
    fn uniform_fills_everything() {
        let t = topo();
        let c = Calibration::uniform(&t, 0.05, 0.001, 0.02);
        assert_eq!(c.two_qubit_errors().len(), 3);
        assert_eq!(c.one_qubit_error(2), 0.001);
        assert_eq!(c.readout_error(0), 0.02);
        assert_eq!(c.variation_ratio(), 1.0);
        assert!(c.std_two_qubit_error() < 1e-12);
    }

    #[test]
    fn uniform_clamps_out_of_range_rates() {
        let t = topo();
        let c = Calibration::uniform(&t, 1.7, -0.3, f64::NAN);
        assert_eq!(c.two_qubit_error(0), 1.0 - 1e-6);
        assert_eq!(c.one_qubit_error(0), 0.0);
        assert_eq!(c.readout_error(0), 1.0 - 1e-6);
    }

    #[test]
    fn new_rejects_wrong_qubit_count() {
        let t = topo();
        let err = Calibration::new(
            &t,
            vec![80.0; 3],
            vec![40.0; 4],
            vec![0.0; 4],
            vec![0.0; 4],
            vec![0.01; 3],
            GateDurations::default(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            CalibrationError::QubitCountMismatch { field: "t1", .. }
        ));
    }

    #[test]
    fn new_rejects_wrong_link_count() {
        let t = topo();
        let err = Calibration::new(
            &t,
            vec![80.0; 4],
            vec![40.0; 4],
            vec![0.0; 4],
            vec![0.0; 4],
            vec![0.01; 5],
            GateDurations::default(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            CalibrationError::LinkCountMismatch {
                expected: 3,
                actual: 5
            }
        ));
    }

    #[test]
    fn new_rejects_bad_probability() {
        let t = topo();
        let err = Calibration::new(
            &t,
            vec![80.0; 4],
            vec![40.0; 4],
            vec![0.0; 4],
            vec![0.0; 4],
            vec![1.5; 3],
            GateDurations::default(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            CalibrationError::InvalidProbability { field: "err_2q", .. }
        ));
    }

    #[test]
    fn new_rejects_nonpositive_coherence() {
        let t = topo();
        let err = Calibration::new(
            &t,
            vec![0.0; 4],
            vec![40.0; 4],
            vec![0.0; 4],
            vec![0.0; 4],
            vec![0.01; 3],
            GateDurations::default(),
        )
        .unwrap_err();
        assert!(matches!(err, CalibrationError::InvalidCoherence { .. }));
    }

    #[test]
    fn error_display_is_informative() {
        let e = CalibrationError::LinkCountMismatch {
            expected: 3,
            actual: 5,
        };
        assert!(e.to_string().contains("3 links"));
    }

    #[test]
    fn statistics() {
        let t = topo();
        let mut c = Calibration::uniform(&t, 0.04, 0.001, 0.02);
        c.set_two_qubit_error(0, 0.02);
        c.set_two_qubit_error(2, 0.15);
        let (best, worst) = c.two_qubit_error_range();
        assert_eq!(best, 0.02);
        assert_eq!(worst, 0.15);
        assert!((c.variation_ratio() - 7.5).abs() < 1e-12);
        assert!((c.mean_two_qubit_error() - 0.07).abs() < 1e-12);
    }

    #[test]
    fn scaled_errors_shrink_uniformly() {
        let t = topo();
        let c = Calibration::uniform(&t, 0.04, 0.004, 0.02).with_errors_scaled(0.1);
        assert!((c.two_qubit_error(0) - 0.004).abs() < 1e-12);
        assert!((c.one_qubit_error(0) - 0.0004).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "leaves range")]
    fn scaling_up_past_one_panics() {
        let t = topo();
        let _ = Calibration::uniform(&t, 0.5, 0.0, 0.0).with_errors_scaled(3.0);
    }

    #[test]
    fn cov_scaling_doubles_spread() {
        let t = topo();
        let mut c = Calibration::uniform(&t, 0.04, 0.0, 0.0);
        c.set_two_qubit_error(0, 0.03);
        c.set_two_qubit_error(2, 0.05);
        let spread = c.with_two_qubit_cov_scaled(2.0);
        assert!((spread.mean_two_qubit_error() - c.mean_two_qubit_error()).abs() < 1e-12);
        assert!((spread.two_qubit_cov() / c.two_qubit_cov() - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn cov_scaling_by_nan_panics() {
        let _ = Calibration::uniform(&topo(), 0.04, 0.0, 0.0).with_two_qubit_cov_scaled(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn cov_scaling_by_infinity_panics() {
        let _ = Calibration::uniform(&topo(), 0.04, 0.0, 0.0).with_two_qubit_cov_scaled(f64::INFINITY);
    }

    #[test]
    fn cov_scaling_clamps_low_end() {
        let t = topo();
        let mut c = Calibration::uniform(&t, 0.01, 0.0, 0.0);
        c.set_two_qubit_error(0, 0.0001);
        let spread = c.with_two_qubit_cov_scaled(10.0);
        for &p in spread.two_qubit_errors() {
            assert!((1e-5..0.5).contains(&p) || p == 0.5);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_error_validates() {
        let t = topo();
        let mut c = Calibration::uniform(&t, 0.01, 0.0, 0.0);
        c.set_two_qubit_error(0, 1.0);
    }
}
