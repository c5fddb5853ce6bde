//! Node strength and strongest-subgraph search (paper §6, Algorithm 2).
//!
//! * **node strength** dᵢ = Σⱼ (1 − e2q(i, j)): the weighted degree of a
//!   physical qubit under link *success* weights — strong qubits have
//!   many reliable couplings;
//! * **k-core decomposition** (Batagelj–Zaveršnik) — VQA uses it to peel
//!   off weakly-connected qubits before picking an allocation region;
//! * **strongest k-subgraph** — the connected set of k physical qubits
//!   with the highest aggregate node strength (ANS), the region VQA
//!   allocates into.

use quva_circuit::PhysQubit;

use crate::device::Device;
use crate::topology::Topology;

/// Node strength of every physical qubit: Σ over incident links of the
/// link success probability `1 − e2q`.
///
/// # Examples
///
/// ```
/// use quva_device::{node_strengths, Calibration, Device, Topology};
///
/// let topo = Topology::linear(3);
/// let dev = Device::new(topo, |t| Calibration::uniform(t, 0.1, 0.0, 0.0));
/// let s = node_strengths(&dev);
/// assert!((s[1] - 1.8).abs() < 1e-12); // two links of success 0.9
/// assert!((s[0] - 0.9).abs() < 1e-12);
/// ```
pub fn node_strengths(device: &Device) -> Vec<f64> {
    let topo = device.topology();
    let mut strengths = vec![0.0; topo.num_qubits()];
    for (id, link) in topo.links().iter().enumerate() {
        // dead links contribute no strength: a qubit whose couplers are
        // all disabled is as weak as an isolated one
        if !device.link_enabled(id) {
            continue;
        }
        let success = 1.0 - device.calibration().two_qubit_error(id);
        strengths[link.low().index()] += success;
        strengths[link.high().index()] += success;
    }
    strengths
}

/// K-core decomposition of the coupling graph: `core[q]` is the largest
/// k such that `q` belongs to a subgraph where every member has degree
/// ≥ k inside the subgraph.
///
/// Linear-time peeling algorithm (Batagelj–Zaveršnik, the paper's
/// reference \[2\]).
///
/// # Examples
///
/// ```
/// use quva_device::{k_core_numbers, Topology};
///
/// // a triangle with a pendant vertex
/// let t = Topology::from_links("t", 4, [(0, 1), (1, 2), (2, 0), (2, 3)]);
/// let core = k_core_numbers(&t);
/// assert_eq!(core, vec![2, 2, 2, 1]);
/// ```
pub fn k_core_numbers(topology: &Topology) -> Vec<usize> {
    let n = topology.num_qubits();
    let mut degree: Vec<usize> = (0..n).map(|q| topology.degree(PhysQubit(q as u32))).collect();
    let mut core = vec![0usize; n];
    let mut removed = vec![false; n];
    let mut current_k = 0usize;
    for _ in 0..n {
        // peel the remaining vertex of minimum residual degree; its core
        // number is the running maximum of residual degrees at removal
        let v = (0..n)
            .filter(|&v| !removed[v])
            .min_by_key(|&v| degree[v])
            .unwrap_or_else(|| unreachable!("n iterations over n vertices"));
        current_k = current_k.max(degree[v]);
        core[v] = current_k;
        removed[v] = true;
        for u in topology.neighbors(PhysQubit(v as u32)) {
            let ui = u.index();
            if !removed[ui] && degree[ui] > 0 {
                degree[ui] -= 1;
            }
        }
    }
    core
}

/// The connected subgraph of exactly `k` qubits maximizing aggregate
/// node strength (ANS = Σ strengths), found by greedy expansion from
/// every seed qubit; exact for k ≤ 3 and near-optimal in practice.
///
/// Returns the chosen qubits sorted by descending node strength — the
/// order VQA assigns the most active program qubits in.
///
/// # Panics
///
/// Panics if `k` is zero or exceeds the device size, or if no connected
/// k-subgraph exists (disconnected device smaller than k per component).
/// Use [`try_strongest_subgraph`] for a fallible variant.
///
/// # Examples
///
/// ```
/// use quva_device::{strongest_subgraph, Calibration, Device, Topology};
///
/// let topo = Topology::linear(4);
/// let dev = Device::new(topo, |t| {
///     let mut c = Calibration::uniform(t, 0.10, 0.0, 0.0);
///     c.set_two_qubit_error(2, 0.01); // link 2–3 is excellent
///     c
/// });
/// let best = strongest_subgraph(&dev, 2);
/// assert_eq!(best.len(), 2);
/// assert!(best.contains(&quva_circuit::PhysQubit(2)));
/// assert!(best.contains(&quva_circuit::PhysQubit(3)));
/// ```
pub fn strongest_subgraph(device: &Device, k: usize) -> Vec<PhysQubit> {
    let topo = device.topology();
    let n = topo.num_qubits();
    assert!(
        k >= 1 && k <= n,
        "subgraph size {k} out of range for {n}-qubit device"
    );
    try_strongest_subgraph(device, k)
        .unwrap_or_else(|| panic!("device has no connected subgraph of the requested size"))
}

/// Fallible variant of [`strongest_subgraph`]: returns `None` when `k`
/// is out of range or no connected k-subgraph exists.
pub fn try_strongest_subgraph(device: &Device, k: usize) -> Option<Vec<PhysQubit>> {
    candidate_regions(device, k).into_iter().next()
}

/// All distinct connected k-qubit regions found by greedy
/// strength-growth from every seed qubit, strongest first. The §8
/// partitioning study walks this list to find a region pair whose
/// complement can host the second program copy.
pub fn candidate_regions(device: &Device, k: usize) -> Vec<Vec<PhysQubit>> {
    let topo = device.topology();
    let n = topo.num_qubits();
    if k == 0 || k > n {
        return Vec::new();
    }
    let strengths = node_strengths(device);
    // only active links can connect a region — growth over a dead
    // coupler would produce an unroutable allocation
    let adjacency = active_adjacency(device);

    let mut found: Vec<(f64, Vec<usize>, Vec<bool>)> = Vec::new();
    for seed in 0..n {
        // Greedy: grow from the seed, always absorbing the frontier
        // vertex that adds the most *internal* link success.
        let mut members = vec![seed];
        let mut in_set = vec![false; n];
        in_set[seed] = true;
        while members.len() < k {
            let mut candidate: Option<(f64, usize)> = None;
            for &m in &members {
                for &(v, _) in &adjacency[m] {
                    if in_set[v] {
                        continue;
                    }
                    // gain = success mass of links from v into the set
                    let gain: f64 = adjacency[v]
                        .iter()
                        .filter(|&&(u, _)| in_set[u])
                        .map(|&(_, success)| success)
                        .sum::<f64>()
                        + 1e-3 * strengths[v]; // tie-break by global strength
                    match candidate {
                        Some((g, c)) if g > gain || (g == gain && c <= v) => {}
                        _ => candidate = Some((gain, v)),
                    }
                }
            }
            let Some((_, v)) = candidate else { break };
            in_set[v] = true;
            members.push(v);
        }
        if members.len() < k {
            continue; // component too small
        }
        let ans: f64 =
            internal_success(device, &members) + 1e-6 * members.iter().map(|&v| strengths[v]).sum::<f64>();
        // order members by descending node strength — the order VQA
        // assigns the most active program qubits in
        members.sort_by(|&a, &b| strengths[b].total_cmp(&strengths[a]).then(a.cmp(&b)));
        if !found.iter().any(|(_, _, set)| *set == in_set) {
            found.push((ans, members, in_set));
        }
    }

    found.sort_by(|a, b| b.0.total_cmp(&a.0));
    found
        .into_iter()
        .map(|(_, members, _)| members.into_iter().map(|v| PhysQubit(v as u32)).collect())
        .collect()
}

/// Each qubit's active neighbours with the link's success `1 − e2q`,
/// ascending by neighbour like [`Device::active_neighbors`]: the greedy's
/// tie-breaks and the order its gains are summed in follow this order.
fn active_adjacency(device: &Device) -> Vec<Vec<(usize, f64)>> {
    let topo = device.topology();
    let mut adjacency = vec![Vec::new(); topo.num_qubits()];
    for (id, link) in topo.links().iter().enumerate() {
        if device.link_enabled(id) {
            let success = 1.0 - device.calibration().two_qubit_error(id);
            let (a, b) = (link.low().index(), link.high().index());
            adjacency[a].push((b, success));
            adjacency[b].push((a, success));
        }
    }
    for row in &mut adjacency {
        row.sort_unstable_by_key(|&(v, _)| v);
    }
    adjacency
}

/// Total link success mass internal to `region`: Σ over active links
/// with both endpoints inside of `1 − e2q`. The aggregate-strength
/// objective of Algorithm 2, exposed so allocation audits can score an
/// *arbitrary* region (e.g. the one a compiler actually used) on the
/// same scale as [`candidate_regions`].
///
/// # Examples
///
/// ```
/// use quva_circuit::PhysQubit;
/// use quva_device::{region_internal_success, Calibration, Device, Topology};
///
/// let dev = Device::new(Topology::linear(3), |t| Calibration::uniform(t, 0.1, 0.0, 0.0));
/// let s = region_internal_success(&dev, &[PhysQubit(0), PhysQubit(1)]);
/// assert!((s - 0.9).abs() < 1e-12);
/// ```
pub fn region_internal_success(device: &Device, region: &[PhysQubit]) -> f64 {
    let members: Vec<usize> = region.iter().map(|q| q.index()).collect();
    internal_success(device, &members)
}

/// The strongest connected k-region and its internal success mass, or
/// `None` when no connected k-subgraph exists.
pub fn best_region(device: &Device, k: usize) -> Option<(Vec<PhysQubit>, f64)> {
    let region = try_strongest_subgraph(device, k)?;
    let score = region_internal_success(device, &region);
    Some((region, score))
}

/// Total link success mass internal to a vertex set — the objective the
/// greedy maximizes.
fn internal_success(device: &Device, members: &[usize]) -> f64 {
    let topo = device.topology();
    let mut in_set = vec![false; topo.num_qubits()];
    for &m in members {
        in_set[m] = true;
    }
    topo.links()
        .iter()
        .enumerate()
        .filter(|&(id, l)| device.link_enabled(id) && in_set[l.low().index()] && in_set[l.high().index()])
        .map(|(id, _)| 1.0 - device.calibration().two_qubit_error(id))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::Calibration;

    fn uniform_device(topo: Topology, e: f64) -> Device {
        Device::new(topo, |t| Calibration::uniform(t, e, 0.0, 0.0))
    }

    #[test]
    fn strengths_sum_link_successes() {
        let dev = uniform_device(Topology::ring(4), 0.2);
        let s = node_strengths(&dev);
        for v in s {
            assert!((v - 1.6).abs() < 1e-12); // 2 links × 0.8
        }
    }

    #[test]
    fn strengths_reflect_variation() {
        let topo = Topology::linear(3);
        let dev = Device::new(topo, |t| {
            let mut c = Calibration::uniform(t, 0.1, 0.0, 0.0);
            c.set_two_qubit_error(0, 0.3); // link 0–1 weak
            c
        });
        let s = node_strengths(&dev);
        assert!(s[2] > s[0]);
    }

    #[test]
    fn k_core_of_line_is_one() {
        let core = k_core_numbers(&Topology::linear(5));
        assert_eq!(core, vec![1; 5]);
    }

    #[test]
    fn k_core_of_clique() {
        let core = k_core_numbers(&Topology::fully_connected(4));
        assert_eq!(core, vec![3; 4]);
    }

    #[test]
    fn k_core_triangle_with_tail() {
        let t = Topology::from_links("t", 5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]);
        let core = k_core_numbers(&t);
        assert_eq!(core[0], 2);
        assert_eq!(core[1], 2);
        assert_eq!(core[2], 2);
        assert_eq!(core[3], 1);
        assert_eq!(core[4], 1);
    }

    #[test]
    fn tokyo_core_is_at_least_two() {
        let core = k_core_numbers(&Topology::ibm_q20_tokyo());
        assert!(
            core.iter().all(|&c| c >= 2),
            "mesh interior should be 2-core: {core:?}"
        );
    }

    #[test]
    fn strongest_subgraph_is_connected() {
        let dev = uniform_device(Topology::ibm_q20_tokyo(), 0.05);
        for k in [2, 4, 8, 12] {
            let sg = strongest_subgraph(&dev, k);
            assert_eq!(sg.len(), k);
            // connectivity check by BFS inside the set
            let topo = dev.topology();
            let in_set: Vec<bool> = (0..20).map(|i| sg.contains(&PhysQubit(i))).collect();
            let mut seen = [false; 20];
            let mut stack = vec![sg[0]];
            seen[sg[0].index()] = true;
            let mut count = 1;
            while let Some(v) = stack.pop() {
                for u in topo.neighbors(v) {
                    if in_set[u.index()] && !seen[u.index()] {
                        seen[u.index()] = true;
                        count += 1;
                        stack.push(u);
                    }
                }
            }
            assert_eq!(count, k, "k={k} subgraph disconnected");
        }
    }

    #[test]
    fn strongest_subgraph_avoids_weak_region() {
        let topo = Topology::linear(6);
        let dev = Device::new(topo, |t| {
            let mut c = Calibration::uniform(t, 0.02, 0.0, 0.0);
            // poison the left half
            c.set_two_qubit_error(0, 0.3);
            c.set_two_qubit_error(1, 0.3);
            c
        });
        let sg = strongest_subgraph(&dev, 3);
        for q in &sg {
            assert!(q.index() >= 2, "picked weak-region qubit {q}");
        }
    }

    #[test]
    fn strongest_subgraph_orders_by_strength() {
        let dev = uniform_device(Topology::ibm_q20_tokyo(), 0.05);
        let strengths = node_strengths(&dev);
        let sg = strongest_subgraph(&dev, 5);
        for w in sg.windows(2) {
            assert!(strengths[w[0].index()] >= strengths[w[1].index()]);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn strongest_subgraph_rejects_zero() {
        let dev = uniform_device(Topology::linear(3), 0.05);
        strongest_subgraph(&dev, 0);
    }

    #[test]
    fn full_size_subgraph_is_everything() {
        let dev = uniform_device(Topology::linear(4), 0.05);
        let sg = strongest_subgraph(&dev, 4);
        assert_eq!(sg.len(), 4);
    }

    #[test]
    fn dead_links_shrink_strength_and_regions() {
        let dev =
            uniform_device(Topology::linear(4), 0.1).with_disabled_links([(PhysQubit(1), PhysQubit(2))]);
        let s = node_strengths(&dev);
        assert!((s[1] - 0.9).abs() < 1e-12, "dead link still adds strength: {s:?}");
        // the active graph is 0-1 / 2-3: no connected 3-subgraph exists
        assert!(try_strongest_subgraph(&dev, 3).is_none());
        let pair = try_strongest_subgraph(&dev, 2).unwrap();
        let mut sorted = pair.clone();
        sorted.sort();
        assert!(sorted == vec![PhysQubit(0), PhysQubit(1)] || sorted == vec![PhysQubit(2), PhysQubit(3)]);
    }

    #[test]
    fn try_variant_handles_impossible_sizes() {
        let dev = uniform_device(Topology::from_links("split", 4, [(0, 1), (2, 3)]), 0.05);
        assert!(
            try_strongest_subgraph(&dev, 3).is_none(),
            "no connected 3-subgraph exists"
        );
        assert!(try_strongest_subgraph(&dev, 2).is_some());
        assert!(try_strongest_subgraph(&dev, 0).is_none());
        assert!(try_strongest_subgraph(&dev, 9).is_none());
    }
}
