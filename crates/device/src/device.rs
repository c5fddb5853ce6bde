//! A [`Device`]: a coupling topology paired with one calibration
//! snapshot. This is the object every policy and simulator consumes.

use std::fmt;
use std::sync::OnceLock;

use quva_circuit::PhysQubit;

use crate::calibration::{Calibration, CalibrationError};
use crate::distances::{HopMatrix, ReliabilityMatrix};
use crate::topology::Topology;

/// A NISQ machine at a point in time: its coupling graph plus the error
/// rates measured at the most recent calibration cycle.
///
/// A link can be *disabled* ([`Device::disable_link`]) to model a dead
/// coupler — a link the calibration feed stopped reporting or that
/// operations declared unusable. Every link-level query
/// ([`Device::link_error`], [`Device::swap_failure_weight`], ...)
/// treats a disabled link exactly like an absent one, so policies built
/// on those queries route around dead links automatically.
///
/// # Examples
///
/// ```
/// use quva_device::{Calibration, Device, Topology};
/// use quva_circuit::PhysQubit;
///
/// let dev = Device::new(Topology::linear(3), |t| Calibration::uniform(t, 0.1, 0.001, 0.02));
/// assert_eq!(dev.num_qubits(), 3);
/// assert_eq!(dev.link_error(PhysQubit(0), PhysQubit(1)), Some(0.1));
/// assert_eq!(dev.link_error(PhysQubit(0), PhysQubit(2)), None);
/// let swap = dev.swap_success(PhysQubit(0), PhysQubit(1)).unwrap();
/// assert!((swap - 0.9f64.powi(3)).abs() < 1e-12);
///
/// let dead = dev.with_disabled_links([(PhysQubit(0), PhysQubit(1))]);
/// assert_eq!(dead.link_error(PhysQubit(0), PhysQubit(1)), None);
/// assert!(!dead.has_active_link(PhysQubit(0), PhysQubit(1)));
/// ```
///
/// Every link query searches one short neighbour row of the topology
/// and reads each link's CNOT and SWAP failure weights, computed once
/// with the device, so it neither hashes nor allocates.
///
/// The distance tables and strongest regions the policies read
/// ([`Device::hop_matrix`], [`Device::swap_distances`],
/// [`Device::strongest_region`], ...) depend only on the device, so
/// each is built on first use and then shared by every compile, pass
/// and lint that borrows this device.
#[derive(Debug, Clone)]
pub struct Device {
    topology: Topology,
    calibration: Calibration,
    /// `disabled[id]` marks links the policies must not use.
    disabled: Vec<bool>,
    /// `cnot_weights[id]`: the failure weight `−ln(1 − e2q)` of one CNOT.
    cnot_weights: Vec<f64>,
    /// `swap_weights[id]`: the failure weight `−ln((1 − e2q)³)` of one SWAP.
    swap_weights: Vec<f64>,
    tables: Tables,
}

/// The tables derived from a [`Device`], each filled on first use.
/// [`Device::disable_link`] drops them all.
#[derive(Clone, Default)]
struct Tables {
    hops: OnceLock<HopMatrix>,
    swap: OnceLock<ReliabilityMatrix>,
    cnot: OnceLock<ReliabilityMatrix>,
    unit: OnceLock<ReliabilityMatrix>,
    /// `regions[k]` holds the strongest connected k-region, `0 <= k <= n`.
    regions: OnceLock<Vec<OnceLock<Option<Vec<PhysQubit>>>>>,
}

impl fmt::Debug for Tables {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Tables { .. }")
    }
}

impl Device {
    /// Builds a device, deriving the calibration from the topology via a
    /// closure — convenient because most constructors need the topology
    /// twice.
    pub fn new(topology: Topology, calibration: impl FnOnce(&Topology) -> Calibration) -> Self {
        let calibration = calibration(&topology);
        Device::assemble(topology, calibration)
    }

    /// A device with every link enabled, its per-link weights derived
    /// and no table built yet.
    fn assemble(topology: Topology, calibration: Calibration) -> Self {
        let disabled = vec![false; topology.num_links()];
        let successes = || (0..topology.num_links()).map(|id| 1.0 - calibration.two_qubit_error(id));
        let cnot_weights = successes().map(|s| -s.max(f64::MIN_POSITIVE).ln()).collect();
        let swap_weights = successes()
            .map(|s| -s.powi(3).max(f64::MIN_POSITIVE).ln())
            .collect();
        Device {
            topology,
            calibration,
            disabled,
            cnot_weights,
            swap_weights,
            tables: Tables::default(),
        }
    }

    /// Builds a device from independently constructed parts.
    ///
    /// # Errors
    ///
    /// Returns a [`CalibrationError`] if the calibration tables do not
    /// match the topology shape.
    pub fn from_parts(topology: Topology, calibration: Calibration) -> Result<Self, CalibrationError> {
        // Re-validate through the constructor to catch shape mismatches.
        let revalidated = Calibration::new(
            &topology,
            calibration.t1_table().to_vec(),
            calibration.t2_table().to_vec(),
            calibration.one_qubit_errors().to_vec(),
            calibration.readout_errors().to_vec(),
            calibration.two_qubit_errors().to_vec(),
            calibration.durations(),
        )?;
        Ok(Device::assemble(topology, revalidated))
    }

    /// The IBM-Q20 Tokyo machine with the paper's deterministic average
    /// error map (the primary evaluation configuration).
    pub fn ibm_q20() -> Self {
        let topology = Topology::ibm_q20_tokyo();
        let calibration = crate::calgen::ibm_q20_average_calibration(&topology);
        Device::assemble(topology, calibration)
    }

    /// The IBM-Q5 Tenerife machine with the §7 average error map.
    pub fn ibm_q5() -> Self {
        let topology = Topology::ibm_q5_tenerife();
        let calibration = crate::calgen::ibm_q5_average_calibration(&topology);
        Device::assemble(topology, calibration)
    }

    /// Marks the link between `a` and `b` as dead, dropping every
    /// table built so far. Returns `false` (and changes nothing) when
    /// the pair is not coupled; disabling an already-dead link is a
    /// no-op returning `true`.
    pub fn disable_link(&mut self, a: PhysQubit, b: PhysQubit) -> bool {
        match self.topology.link_id(a, b) {
            Some(id) => {
                self.disabled[id] = true;
                self.tables = Tables::default();
                true
            }
            None => false,
        }
    }

    /// Builder form of [`Device::disable_link`]: pairs that are not
    /// coupled are silently ignored.
    #[must_use]
    pub fn with_disabled_links(mut self, pairs: impl IntoIterator<Item = (PhysQubit, PhysQubit)>) -> Self {
        for (a, b) in pairs {
            self.disable_link(a, b);
        }
        self
    }

    /// Whether the coupled pair `a`–`b` has been disabled. `false` for
    /// pairs that were never coupled.
    pub fn is_link_disabled(&self, a: PhysQubit, b: PhysQubit) -> bool {
        self.topology.link_id(a, b).is_some_and(|id| self.disabled[id])
    }

    /// Whether the link with this id is usable (not disabled).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a valid link id.
    pub fn link_enabled(&self, id: usize) -> bool {
        !self.disabled[id]
    }

    /// Number of disabled links.
    pub fn disabled_link_count(&self) -> usize {
        self.disabled.iter().filter(|&&d| d).count()
    }

    /// Whether `a` and `b` are coupled by a *usable* link.
    pub fn has_active_link(&self, a: PhysQubit, b: PhysQubit) -> bool {
        self.active_link_id(a, b).is_some()
    }

    /// The id of the usable link between `a` and `b`; `None` when the
    /// pair is not coupled, the link is disabled, `a == b`, or either
    /// qubit is outside the device.
    pub fn active_link_id(&self, a: PhysQubit, b: PhysQubit) -> Option<usize> {
        self.topology.link_id(a, b).filter(|&id| !self.disabled[id])
    }

    /// The neighbors of `q` over usable links only, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn active_neighbors(&self, q: PhysQubit) -> impl Iterator<Item = PhysQubit> + '_ {
        self.active_neighbor_links(q).map(|(nb, _)| nb)
    }

    /// The neighbors of `q` over usable links only, ascending, each with
    /// the id of the link to it.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn active_neighbor_links(&self, q: PhysQubit) -> impl Iterator<Item = (PhysQubit, usize)> + '_ {
        self.topology
            .neighbor_links(q)
            .filter(move |&(_, id)| !self.disabled[id])
    }

    /// The coupling topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The calibration snapshot.
    pub fn calibration(&self) -> &Calibration {
        &self.calibration
    }

    /// Number of physical qubits.
    pub fn num_qubits(&self) -> usize {
        self.topology.num_qubits()
    }

    /// Replaces the calibration (e.g. the next day's snapshot),
    /// validating it against the topology. Disabled links stay disabled.
    ///
    /// # Errors
    ///
    /// Returns a [`CalibrationError`] on shape mismatch.
    pub fn with_calibration(&self, calibration: Calibration) -> Result<Self, CalibrationError> {
        let mut next = Device::from_parts(self.topology.clone(), calibration)?;
        next.disabled = self.disabled.clone();
        Ok(next)
    }

    /// A 64-bit structural fingerprint of this device: topology shape,
    /// every calibration table (exact bit patterns), gate durations,
    /// and the disabled-link mask.
    ///
    /// Two devices with equal fingerprints evaluate any circuit
    /// identically, which is what makes the fingerprint a sound cache
    /// key for memoizing per-device work (e.g. repeated PST
    /// evaluations of the same benchmark in the experiment harness).
    /// Not a cryptographic hash — collisions are astronomically
    /// unlikely in practice but not impossible.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{DefaultHasher, Hash, Hasher};
        let mut h = DefaultHasher::new();
        self.topology.num_qubits().hash(&mut h);
        for link in self.topology.links() {
            link.low().index().hash(&mut h);
            link.high().index().hash(&mut h);
        }
        let cal = &self.calibration;
        for table in [
            cal.t1_table(),
            cal.t2_table(),
            cal.one_qubit_errors(),
            cal.readout_errors(),
            cal.two_qubit_errors(),
        ] {
            table.len().hash(&mut h);
            for &v in table {
                v.to_bits().hash(&mut h);
            }
        }
        let dur = cal.durations();
        dur.one_qubit_ns.to_bits().hash(&mut h);
        dur.two_qubit_ns.to_bits().hash(&mut h);
        dur.readout_ns.to_bits().hash(&mut h);
        self.disabled.hash(&mut h);
        h.finish()
    }

    /// CNOT error rate across a link, `None` when the qubits are not
    /// coupled or the link is disabled.
    pub fn link_error(&self, a: PhysQubit, b: PhysQubit) -> Option<f64> {
        self.active_link_id(a, b)
            .map(|id| self.calibration.two_qubit_error(id))
    }

    /// CNOT success probability across a link, `None` when uncoupled.
    pub fn cnot_success(&self, a: PhysQubit, b: PhysQubit) -> Option<f64> {
        self.link_error(a, b).map(|e| 1.0 - e)
    }

    /// SWAP success probability across a link: a SWAP is 3 CNOTs, so
    /// `(1 − e)³` (paper §2.1 / Fig. 2d).
    pub fn swap_success(&self, a: PhysQubit, b: PhysQubit) -> Option<f64> {
        self.cnot_success(a, b).map(|s| s.powi(3))
    }

    /// The failure weight `−ln(p)` of one CNOT on a link, the additive
    /// cost VQM minimizes. `None` when uncoupled.
    pub fn cnot_failure_weight(&self, a: PhysQubit, b: PhysQubit) -> Option<f64> {
        self.active_link_id(a, b).map(|id| self.cnot_weights[id])
    }

    /// The failure weight `−ln(p³)` of one SWAP on a link.
    pub fn swap_failure_weight(&self, a: PhysQubit, b: PhysQubit) -> Option<f64> {
        self.active_link_id(a, b).map(|id| self.swap_weights[id])
    }

    /// The CNOT failure weight of link `id`, whether or not the link is
    /// disabled.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a valid link id.
    pub fn cnot_weight(&self, id: usize) -> f64 {
        self.cnot_weights[id]
    }

    /// The SWAP failure weight of link `id`, whether or not the link is
    /// disabled.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a valid link id.
    pub fn swap_weight(&self, id: usize) -> f64 {
        self.swap_weights[id]
    }

    /// The sub-device induced by a region of physical qubits: the
    /// region's qubits renumbered `0..region.len()` (in the order
    /// given), keeping only internal *usable* links (disabled links are
    /// dropped from the sub-topology) and the matching calibration
    /// rows. Returns the device plus the new-index → original-qubit
    /// table.
    ///
    /// Used by the §8 partitioning study to compile a program copy onto
    /// one half of a machine.
    ///
    /// # Panics
    ///
    /// Panics if the region is empty, repeats a qubit, or references a
    /// qubit outside the device.
    pub fn induced(&self, region: &[PhysQubit]) -> (Device, Vec<PhysQubit>) {
        assert!(!region.is_empty(), "induced region is empty");
        let n = self.num_qubits();
        let mut new_of_old = vec![usize::MAX; n];
        for (new, &q) in region.iter().enumerate() {
            assert!(q.index() < n, "{q} outside the device");
            assert!(new_of_old[q.index()] == usize::MAX, "{q} repeated in region");
            new_of_old[q.index()] = new;
        }
        let links: Vec<(u32, u32)> = self
            .topology
            .links()
            .iter()
            .enumerate()
            .filter(|&(id, _)| !self.disabled[id])
            .map(|(_, l)| l)
            .filter(|l| {
                new_of_old[l.low().index()] != usize::MAX && new_of_old[l.high().index()] != usize::MAX
            })
            .map(|l| {
                (
                    new_of_old[l.low().index()] as u32,
                    new_of_old[l.high().index()] as u32,
                )
            })
            .collect();
        let topology = Topology::from_links(
            format!("{}[{}q-region]", self.topology.name(), region.len()),
            region.len(),
            links,
        );
        let cal = &self.calibration;
        let pick = |f: &dyn Fn(usize) -> f64| -> Vec<f64> { region.iter().map(|q| f(q.index())).collect() };
        let err_2q: Vec<f64> = topology
            .links()
            .iter()
            .map(|l| {
                let (a, b) = (region[l.low().index()], region[l.high().index()]);
                self.link_error(a, b)
                    .unwrap_or_else(|| unreachable!("induced link exists in parent"))
            })
            .collect();
        let calibration = Calibration::new(
            &topology,
            pick(&|i| cal.t1_us(i)),
            pick(&|i| cal.t2_us(i)),
            pick(&|i| cal.one_qubit_error(i)),
            pick(&|i| cal.readout_error(i)),
            err_2q,
            cal.durations(),
        )
        .unwrap_or_else(|e| unreachable!("subset of a valid calibration stays valid: {e}"));
        (Device::assemble(topology, calibration), region.to_vec())
    }

    /// All-pairs hop distances over the active links
    /// ([`HopMatrix::of_active`]), built on first use.
    pub fn hop_matrix(&self) -> &HopMatrix {
        self.tables.hops.get_or_init(|| HopMatrix::of_active(self))
    }

    /// Reliability distances under the SWAP failure weight
    /// `−ln((1 − e2q)³)` of [`Device::swap_failure_weight`] — the VQM
    /// routing metric — built on first use.
    pub fn swap_distances(&self) -> &ReliabilityMatrix {
        self.tables
            .swap
            .get_or_init(|| ReliabilityMatrix::of_active(self, |id| self.swap_weights[id]))
    }

    /// Reliability distances under the CNOT failure weight
    /// `−ln(1 − e2q)` — VQA's placement metric — built on first use.
    pub fn cnot_distances(&self) -> &ReliabilityMatrix {
        self.tables
            .cnot
            .get_or_init(|| ReliabilityMatrix::of_active(self, |id| self.cnot_weights[id]))
    }

    /// Reliability distances with every active link weighing 1 — hop
    /// counts with next-hop reconstruction, the baseline routing
    /// metric — built on first use.
    pub fn unit_distances(&self) -> &ReliabilityMatrix {
        self.tables
            .unit
            .get_or_init(|| ReliabilityMatrix::of_active(self, |_| 1.0))
    }

    /// The strongest connected `k`-region (the first of
    /// [`crate::candidate_regions`]), built on first use for each `k`;
    /// `None` when `k` is zero or exceeds the device, or no connected
    /// k-region exists over the active links.
    pub fn strongest_region(&self, k: usize) -> Option<&[PhysQubit]> {
        let n = self.num_qubits();
        if k > n {
            return None;
        }
        let regions = self
            .tables
            .regions
            .get_or_init(|| (0..=n).map(|_| OnceLock::new()).collect());
        regions[k]
            .get_or_init(|| crate::strength::candidate_regions(self, k).into_iter().next())
            .as_deref()
    }
}

impl fmt::Display for Device {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [mean 2Q err {:.2}%, spread {:.1}x",
            self.topology,
            100.0 * self.calibration.mean_two_qubit_error(),
            self.calibration.variation_ratio()
        )?;
        if self.disabled_link_count() > 0 {
            write!(f, ", {} dead link(s)", self.disabled_link_count())?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calgen::{CalibrationGenerator, VariationProfile};
    use crate::strength::candidate_regions;

    /// Builds every cached table of `dev` (if not built yet) and checks
    /// each against a fresh build on the device as it is now.
    fn assert_tables_match_fresh_builds(dev: &Device) {
        let weight = |w: fn(&Device, PhysQubit, PhysQubit) -> Option<f64>| {
            move |id: usize| {
                let link = dev.topology().links()[id];
                w(dev, link.low(), link.high()).unwrap()
            }
        };
        assert_eq!(dev.hop_matrix(), &HopMatrix::of_active(dev));
        assert_eq!(
            dev.swap_distances(),
            &ReliabilityMatrix::of_active(dev, weight(Device::swap_failure_weight))
        );
        assert_eq!(
            dev.cnot_distances(),
            &ReliabilityMatrix::of_active(dev, weight(Device::cnot_failure_weight))
        );
        assert_eq!(dev.unit_distances(), &ReliabilityMatrix::of_active(dev, |_| 1.0));
        for k in 0..=dev.num_qubits() + 1 {
            assert_eq!(
                dev.strongest_region(k).map(<[PhysQubit]>::to_vec),
                candidate_regions(dev, k).into_iter().next(),
                "{dev}: k = {k}"
            );
        }
    }

    fn q20_with_two_dead_links() -> Device {
        Device::ibm_q20().with_disabled_links([(PhysQubit(14), PhysQubit(18)), (PhysQubit(1), PhysQubit(2))])
    }

    #[test]
    fn cached_tables_equal_fresh_builds() {
        let grid = Device::new(Topology::grid(4, 4), |t| {
            CalibrationGenerator::new(VariationProfile::ibm_q20_paper(), 3).snapshot(t)
        });
        let dead = q20_with_two_dead_links();
        assert_eq!(dead.disabled_link_count(), 2);
        for dev in [Device::ibm_q20(), Device::ibm_q5(), grid, dead] {
            assert_tables_match_fresh_builds(&dev);
        }
    }

    /// The id of the `a`–`b` link found by scanning `links()`.
    fn scanned_link_id(dev: &Device, a: PhysQubit, b: PhysQubit) -> Option<usize> {
        let pair = (a.min(b), a.max(b));
        dev.topology()
            .links()
            .iter()
            .position(|l| a != b && l.endpoints() == pair)
    }

    #[test]
    fn link_queries_equal_a_scan_of_the_link_list() {
        let synthetic = |topology: Topology, seed: u64| {
            Device::new(topology, |t| {
                CalibrationGenerator::new(VariationProfile::ibm_q20_paper(), seed).snapshot(t)
            })
        };
        let degraded = q20_with_two_dead_links();
        let next_snapshot =
            CalibrationGenerator::new(VariationProfile::ibm_q20_paper(), 9).snapshot(degraded.topology());
        let recalibrated = degraded.with_calibration(next_snapshot).unwrap();
        let devices = [
            Device::ibm_q20(),
            Device::ibm_q5(),
            synthetic(Topology::grid(4, 4), 3),
            synthetic(Topology::heavy_hex(4, 5), 4),
            synthetic(Topology::fully_connected(5), 5),
            degraded,
            recalibrated,
        ];
        let bits = |w: Option<f64>| w.map(f64::to_bits);
        for dev in &devices {
            let n = dev.num_qubits();
            let topo = dev.topology();
            for a in (0..n + 2).map(|i| PhysQubit(i as u32)) {
                for b in (0..n + 2).map(|i| PhysQubit(i as u32)) {
                    let id = scanned_link_id(dev, a, b);
                    let active = id.filter(|&id| dev.link_enabled(id));
                    let error = active.map(|id| dev.calibration().two_qubit_error(id));
                    let cnot = error.map(|e| -(1.0 - e).max(f64::MIN_POSITIVE).ln());
                    let swap = error.map(|e| -(1.0 - e).powi(3).max(f64::MIN_POSITIVE).ln());
                    let at = format!("{dev}: {a}-{b}");
                    assert_eq!(topo.link_id(a, b), id, "{at}");
                    assert_eq!(topo.has_link(a, b), id.is_some(), "{at}");
                    assert_eq!(dev.has_active_link(a, b), active.is_some(), "{at}");
                    assert_eq!(bits(dev.link_error(a, b)), bits(error), "{at}");
                    assert_eq!(bits(dev.cnot_failure_weight(a, b)), bits(cnot), "{at}");
                    assert_eq!(bits(dev.swap_failure_weight(a, b)), bits(swap), "{at}");
                }
            }
            for q in topo.qubits() {
                let coupled: Vec<PhysQubit> = topo
                    .qubits()
                    .filter(|&p| scanned_link_id(dev, q, p).is_some())
                    .collect();
                let usable: Vec<PhysQubit> = coupled
                    .iter()
                    .copied()
                    .filter(|&p| scanned_link_id(dev, q, p).is_some_and(|id| dev.link_enabled(id)))
                    .collect();
                assert_eq!(topo.neighbors(q), coupled, "{dev}: {q}");
                assert_eq!(dev.active_neighbors(q).collect::<Vec<_>>(), usable, "{dev}: {q}");
            }
        }
    }

    #[test]
    fn disable_link_drops_cached_tables() {
        let mut dev = Device::ibm_q20();
        assert_tables_match_fresh_builds(&dev);
        assert!(dev.disable_link(PhysQubit(14), PhysQubit(18)));
        assert!(dev.disable_link(PhysQubit(1), PhysQubit(2)));
        assert_tables_match_fresh_builds(&dev);
        // the degraded tables are those of a device built degraded
        let built_dead = q20_with_two_dead_links();
        assert_eq!(dev.hop_matrix(), built_dead.hop_matrix());
        assert_eq!(dev.swap_distances(), built_dead.swap_distances());
    }

    #[test]
    fn from_parts_validates_shape() {
        let topo3 = Topology::linear(3);
        let topo4 = Topology::linear(4);
        let cal3 = Calibration::uniform(&topo3, 0.1, 0.0, 0.0);
        assert!(Device::from_parts(topo4, cal3).is_err());
    }

    #[test]
    fn ibm_presets_build() {
        let q20 = Device::ibm_q20();
        assert_eq!(q20.num_qubits(), 20);
        assert!((q20.calibration().variation_ratio() - 7.5).abs() < 1e-9);
        let q5 = Device::ibm_q5();
        assert_eq!(q5.num_qubits(), 5);
    }

    #[test]
    fn swap_success_is_cube_of_cnot() {
        let dev = Device::new(Topology::linear(2), |t| Calibration::uniform(t, 0.1, 0.0, 0.0));
        let c = dev.cnot_success(PhysQubit(0), PhysQubit(1)).unwrap();
        let s = dev.swap_success(PhysQubit(0), PhysQubit(1)).unwrap();
        assert!((s - c.powi(3)).abs() < 1e-15);
    }

    #[test]
    fn failure_weights_are_nonnegative_and_monotone() {
        let dev = Device::new(Topology::linear(3), |t| {
            let mut c = Calibration::uniform(t, 0.05, 0.0, 0.0);
            c.set_two_qubit_error(1, 0.2);
            c
        });
        let w_good = dev.cnot_failure_weight(PhysQubit(0), PhysQubit(1)).unwrap();
        let w_bad = dev.cnot_failure_weight(PhysQubit(1), PhysQubit(2)).unwrap();
        assert!(w_good >= 0.0);
        assert!(w_bad > w_good, "weaker link must have larger failure weight");
        let sw = dev.swap_failure_weight(PhysQubit(0), PhysQubit(1)).unwrap();
        assert!((sw - 3.0 * w_good).abs() < 1e-12);
    }

    #[test]
    fn uncoupled_pair_returns_none() {
        let dev = Device::new(Topology::linear(3), |t| Calibration::uniform(t, 0.1, 0.0, 0.0));
        assert_eq!(dev.cnot_success(PhysQubit(0), PhysQubit(2)), None);
        assert_eq!(dev.swap_failure_weight(PhysQubit(0), PhysQubit(2)), None);
    }

    #[test]
    fn with_calibration_swaps_snapshot() {
        let dev = Device::new(Topology::linear(3), |t| Calibration::uniform(t, 0.1, 0.0, 0.0));
        let next = Calibration::uniform(dev.topology(), 0.05, 0.0, 0.0);
        let dev2 = dev.with_calibration(next).unwrap();
        assert_eq!(dev2.link_error(PhysQubit(0), PhysQubit(1)), Some(0.05));
        // original untouched
        assert_eq!(dev.link_error(PhysQubit(0), PhysQubit(1)), Some(0.1));
    }

    #[test]
    fn display_mentions_spread() {
        let dev = Device::ibm_q20();
        let s = dev.to_string();
        assert!(s.contains("7.5x"), "{s}");
    }

    #[test]
    fn induced_subdevice_preserves_errors() {
        let dev = Device::ibm_q20();
        let region = [PhysQubit(5), PhysQubit(6), PhysQubit(7)];
        let (sub, back) = dev.induced(&region);
        assert_eq!(sub.num_qubits(), 3);
        assert_eq!(back, region);
        // link 5-6 maps to new link 0-1 with the same error
        assert_eq!(
            sub.link_error(PhysQubit(0), PhysQubit(1)),
            dev.link_error(PhysQubit(5), PhysQubit(6))
        );
        // per-qubit quantities follow the region ordering
        assert_eq!(sub.calibration().t1_us(2), dev.calibration().t1_us(7));
    }

    #[test]
    fn induced_drops_external_links() {
        let dev = Device::new(Topology::linear(4), |t| Calibration::uniform(t, 0.1, 0.0, 0.0));
        let (sub, _) = dev.induced(&[PhysQubit(0), PhysQubit(2)]);
        assert_eq!(sub.topology().num_links(), 0);
    }

    #[test]
    fn disabled_link_behaves_as_absent() {
        let mut dev = Device::new(Topology::linear(3), |t| Calibration::uniform(t, 0.1, 0.0, 0.0));
        assert!(dev.disable_link(PhysQubit(0), PhysQubit(1)));
        assert!(
            !dev.disable_link(PhysQubit(0), PhysQubit(2)),
            "uncoupled pair cannot be disabled"
        );
        assert_eq!(dev.disabled_link_count(), 1);
        assert!(dev.is_link_disabled(PhysQubit(0), PhysQubit(1)));
        assert_eq!(dev.link_error(PhysQubit(0), PhysQubit(1)), None);
        assert_eq!(dev.cnot_success(PhysQubit(0), PhysQubit(1)), None);
        assert_eq!(dev.swap_failure_weight(PhysQubit(0), PhysQubit(1)), None);
        assert!(!dev.has_active_link(PhysQubit(0), PhysQubit(1)));
        assert_eq!(
            dev.active_neighbors(PhysQubit(1)).collect::<Vec<_>>(),
            vec![PhysQubit(2)]
        );
        // the live link is untouched
        assert_eq!(dev.link_error(PhysQubit(1), PhysQubit(2)), Some(0.1));
        // the topology itself still records the physical coupler
        assert!(dev.topology().has_link(PhysQubit(0), PhysQubit(1)));
    }

    #[test]
    fn disabled_links_survive_recalibration() {
        let dev = Device::new(Topology::linear(3), |t| Calibration::uniform(t, 0.1, 0.0, 0.0))
            .with_disabled_links([(PhysQubit(1), PhysQubit(2))]);
        let next = Calibration::uniform(dev.topology(), 0.05, 0.0, 0.0);
        let dev2 = dev.with_calibration(next).unwrap();
        assert!(dev2.is_link_disabled(PhysQubit(1), PhysQubit(2)));
        assert_eq!(dev2.link_error(PhysQubit(0), PhysQubit(1)), Some(0.05));
    }

    #[test]
    fn induced_drops_disabled_links() {
        let dev = Device::new(Topology::linear(4), |t| Calibration::uniform(t, 0.1, 0.0, 0.0))
            .with_disabled_links([(PhysQubit(1), PhysQubit(2))]);
        let (sub, _) = dev.induced(&[PhysQubit(1), PhysQubit(2), PhysQubit(3)]);
        assert!(
            !sub.topology().has_link(PhysQubit(0), PhysQubit(1)),
            "dead link carried into sub-device"
        );
        assert!(sub.topology().has_link(PhysQubit(1), PhysQubit(2)));
    }

    #[test]
    fn display_counts_dead_links() {
        let dev = Device::new(Topology::linear(3), |t| Calibration::uniform(t, 0.1, 0.0, 0.0))
            .with_disabled_links([(PhysQubit(0), PhysQubit(1))]);
        assert!(dev.to_string().contains("1 dead link"), "{dev}");
    }

    #[test]
    fn fingerprint_tracks_everything_that_affects_evaluation() {
        let dev = Device::new(Topology::linear(3), |t| Calibration::uniform(t, 0.1, 0.0, 0.0));
        let same = Device::new(Topology::linear(3), |t| Calibration::uniform(t, 0.1, 0.0, 0.0));
        assert_eq!(dev.fingerprint(), same.fingerprint());

        // a calibration change must change the key
        let recal = dev
            .with_calibration(dev.calibration().with_errors_scaled(0.5))
            .unwrap();
        assert_ne!(dev.fingerprint(), recal.fingerprint());

        // a dead link must change the key (same calibration tables)
        let dead = dev.clone().with_disabled_links([(PhysQubit(0), PhysQubit(1))]);
        assert_ne!(dev.fingerprint(), dead.fingerprint());

        // a different topology must change the key
        let ring = Device::new(Topology::ring(3), |t| Calibration::uniform(t, 0.1, 0.0, 0.0));
        assert_ne!(dev.fingerprint(), ring.fingerprint());
    }

    #[test]
    #[should_panic(expected = "repeated")]
    fn induced_rejects_duplicates() {
        let dev = Device::new(Topology::linear(3), |t| Calibration::uniform(t, 0.1, 0.0, 0.0));
        dev.induced(&[PhysQubit(0), PhysQubit(0)]);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn induced_rejects_out_of_range() {
        let dev = Device::new(Topology::linear(3), |t| Calibration::uniform(t, 0.1, 0.0, 0.0));
        dev.induced(&[PhysQubit(7)]);
    }
}
