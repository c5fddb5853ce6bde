//! Route planning for qubit movement (paper §5).
//!
//! Given two physical locations that must interact, a [`Router`]
//! produces the SWAP chain that brings them together:
//!
//! * metric [`RoutingMetric::Hops`] — the baseline: fewest SWAPs,
//!   deterministic tie-break (§4.5);
//! * metric [`RoutingMetric::Reliability`] — VQM: minimize accumulated
//!   failure weight, optionally hop-limited by *Maximum Additional
//!   Hops* (Algorithm 1).
//!
//! A route is a path plus a *meeting edge*: the occupant of one end
//! swaps forward along the prefix, the occupant of the other end swaps
//! backward along the suffix, and the CNOT executes across the meeting
//! edge. Under the reliability metric the meeting edge is chosen to
//! minimize total failure weight (a SWAP costs three CNOTs, so routing
//! *through* a weak link costs 3× what executing *across* it does).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use quva_circuit::PhysQubit;
use quva_device::{Device, HopMatrix};

/// The cost metric a router optimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingMetric {
    /// Minimize the number of SWAPs (variation-unaware baseline).
    Hops,
    /// Minimize accumulated failure weight (VQM). `max_additional_hops`
    /// caps the detour length relative to the shortest path; `None`
    /// leaves it unconstrained.
    Reliability {
        /// The MAH budget of §5.3; the paper's hop-limited policy uses 4.
        max_additional_hops: Option<u32>,
        /// Extension beyond the paper: also choose *which* edge of the
        /// route the CNOT executes across (swapping through the strong
        /// edges and executing across the weakest one costs `1×` the
        /// weak edge instead of `3×`). The paper's Algorithm 1 always
        /// makes the moved qubit adjacent to the stationary one, i.e.
        /// executes across the final path edge.
        optimize_meeting_edge: bool,
    },
}

impl RoutingMetric {
    /// The unconstrained VQM metric (paper Algorithm 1).
    pub fn reliability() -> Self {
        RoutingMetric::Reliability {
            max_additional_hops: None,
            optimize_meeting_edge: false,
        }
    }

    /// The hop-limited VQM metric with the paper's MAH = 4.
    pub fn reliability_hop_limited() -> Self {
        RoutingMetric::Reliability {
            max_additional_hops: Some(4),
            optimize_meeting_edge: false,
        }
    }

    /// VQM extended with meeting-edge optimization (see
    /// [`RoutingMetric::Reliability::optimize_meeting_edge`]); evaluated
    /// as an ablation in the benchmark harness.
    pub fn reliability_with_meeting_edge() -> Self {
        RoutingMetric::Reliability {
            max_additional_hops: None,
            optimize_meeting_edge: true,
        }
    }
}

/// Why a route could not be planned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteError {
    /// Both endpoints are the same physical qubit — there is nothing to
    /// route and the request indicates a mapping bug upstream.
    SelfRoute(PhysQubit),
    /// No path of *active* links connects the endpoints (the coupling
    /// graph is split, possibly by disabled links).
    Disconnected {
        /// One endpoint of the failed route.
        a: PhysQubit,
        /// The other endpoint.
        b: PhysQubit,
    },
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::SelfRoute(q) => write!(f, "cannot route {q} to itself"),
            RouteError::Disconnected { a, b } => {
                write!(f, "no active path connects {a} and {b}")
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// A movement plan: bring the occupants of `path[0]` and `path.last()`
/// together across the meeting edge `(path[meet], path[meet + 1])`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutePlan {
    /// The physical qubits along the route, endpoints inclusive.
    pub path: Vec<PhysQubit>,
    /// Index of the meeting edge within `path` (`0 ..= path.len() − 2`).
    pub meet: usize,
}

impl RoutePlan {
    /// The SWAPs to perform, in order: prefix swaps move the first
    /// occupant forward, suffix swaps move the second occupant backward.
    pub fn swaps(&self) -> Vec<(PhysQubit, PhysQubit)> {
        let mut out = Vec::with_capacity(self.path.len() - 2);
        for j in 0..self.meet {
            out.push((self.path[j], self.path[j + 1]));
        }
        for j in ((self.meet + 1)..(self.path.len() - 1)).rev() {
            out.push((self.path[j + 1], self.path[j]));
        }
        out
    }

    /// Where the occupant of `path[0]` ends up.
    pub fn first_lands_at(&self) -> PhysQubit {
        self.path[self.meet]
    }

    /// Where the occupant of `path.last()` ends up.
    pub fn second_lands_at(&self) -> PhysQubit {
        self.path[self.meet + 1]
    }

    /// Number of SWAPs the plan inserts.
    pub fn swap_count(&self) -> usize {
        self.path.len() - 2
    }
}

/// FNV-1a over a handful of words — the deterministic "arbitrary"
/// tie-break for shortest-route selection.
fn fnv_mix(words: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &w in words {
        for byte in w.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Plans routes over one device under one metric.
#[derive(Debug)]
pub struct Router<'d> {
    device: &'d Device,
    metric: RoutingMetric,
    hops: &'d HopMatrix,
}

impl<'d> Router<'d> {
    /// Builds a router over the device's hop-distance matrix
    /// ([`Device::hop_matrix`], over the *active* coupling graph —
    /// disabled links are never routed over).
    pub fn new(device: &'d Device, metric: RoutingMetric) -> Self {
        Router {
            device,
            metric,
            hops: device.hop_matrix(),
        }
    }

    /// The metric this router optimizes.
    pub fn metric(&self) -> RoutingMetric {
        self.metric
    }

    /// The hop-distance matrix (shared with allocators).
    pub fn hop_matrix(&self) -> &'d HopMatrix {
        self.hops
    }

    /// Plans the movement that lets the occupants of `a` and `b`
    /// interact.
    ///
    /// # Errors
    ///
    /// * [`RouteError::SelfRoute`] when `a == b`;
    /// * [`RouteError::Disconnected`] when no path of active links joins
    ///   the endpoints (split topology or dead links in the way).
    pub fn plan(&self, a: PhysQubit, b: PhysQubit) -> Result<RoutePlan, RouteError> {
        quva_obs::counter("router.plans", 1);
        if a == b {
            return Err(RouteError::SelfRoute(a));
        }
        let disconnected = RouteError::Disconnected { a, b };
        let path = match self.metric {
            RoutingMetric::Hops => self.shortest_hop_path(a, b).ok_or(disconnected)?,
            RoutingMetric::Reliability {
                max_additional_hops, ..
            } => {
                let cap = max_additional_hops.map(|mah| self.hops.get(a, b).saturating_add(mah));
                self.most_reliable_path(a, b, cap).ok_or(disconnected)?
            }
        };
        let meet = match self.metric {
            // total failure weight = Σ swap_w(all edges) − swap_w(meet)
            // + exec_w(meet); with swap_w = 3·exec_w, minimize by
            // putting the meeting on the *weakest* edge of the path
            RoutingMetric::Reliability {
                optimize_meeting_edge: true,
                ..
            } => {
                let mut best = 0;
                let mut best_w = f64::NEG_INFINITY;
                for j in 0..path.len() - 1 {
                    // every path edge is an active link, so the weight is
                    // present; fall back to the default split otherwise
                    let Some(w) = self.device.cnot_failure_weight(path[j], path[j + 1]) else {
                        continue;
                    };
                    if w > best_w {
                        best_w = w;
                        best = j;
                    }
                }
                best
            }
            // default: meet in the middle — both occupants move toward
            // the route's center (any split has the same SWAP count for
            // this gate, but central meeting keeps the pair's
            // neighbourhoods compact for future gates)
            _ => (path.len() - 1) / 2,
        };
        Ok(RoutePlan { path, meet })
    }

    /// The total failure weight of executing a CNOT via `plan`:
    /// SWAP weights over non-meeting edges plus the execution weight of
    /// the meeting edge.
    ///
    /// A plan whose edges are not all active links (e.g. one produced
    /// before a link was disabled) weighs `f64::INFINITY` — certain
    /// failure — rather than panicking.
    pub fn plan_failure_weight(&self, plan: &RoutePlan) -> f64 {
        let mut total = 0.0;
        for j in 0..plan.path.len() - 1 {
            let (u, v) = (plan.path[j], plan.path[j + 1]);
            let w = if j == plan.meet {
                self.device.cnot_failure_weight(u, v)
            } else {
                self.device.swap_failure_weight(u, v)
            };
            total += w.unwrap_or(f64::INFINITY);
        }
        total
    }

    /// Deterministic BFS shortest path. Ties between equally-short
    /// routes are broken by a hash of the endpoints and position — the
    /// paper's baseline "may arbitrarily pick one" of the shortest
    /// routes (§2.4), and an arbitrary-but-deterministic spread avoids
    /// artificially funnelling all traffic through one corridor (which
    /// would make the variation-unaware baseline look far worse than it
    /// is whenever that corridor contains a weak link).
    fn shortest_hop_path(&self, a: PhysQubit, b: PhysQubit) -> Option<Vec<PhysQubit>> {
        if self.hops.get(a, b) == quva_device::UNREACHABLE_HOPS {
            return None;
        }
        let mut path = vec![a];
        let mut cur = a;
        while cur != b {
            let closer = |n: &PhysQubit| self.hops.get(*n, b) == self.hops.get(cur, b) - 1;
            let descending = self.device.active_neighbors(cur).filter(closer).count();
            if descending == 0 {
                // unreachable in practice: a finite active hop distance
                // implies a descending active neighbor
                return None;
            }
            let pick = fnv_mix(&[a.0, b.0, cur.0]) as usize % descending;
            let next = self.device.active_neighbors(cur).filter(closer).nth(pick)?;
            path.push(next);
            cur = next;
        }
        Some(path)
    }

    /// Dijkstra over SWAP failure weights, optionally capped at
    /// `max_hops` edges.
    fn most_reliable_path(
        &self,
        a: PhysQubit,
        b: PhysQubit,
        max_hops: Option<u32>,
    ) -> Option<Vec<PhysQubit>> {
        let topo = self.device.topology();
        let n = topo.num_qubits();
        let cap = max_hops.map(|c| c.min(n as u32)).unwrap_or(n as u32) as usize;

        // state = (node, hops used); dist and parent tables per state
        let idx = |node: usize, hops: usize| node * (cap + 1) + hops;
        let mut dist = vec![f64::INFINITY; n * (cap + 1)];
        let mut parent = vec![usize::MAX; n * (cap + 1)];
        dist[idx(a.index(), 0)] = 0.0;

        #[derive(PartialEq)]
        struct Entry {
            cost: f64,
            node: usize,
            hops: usize,
        }
        impl Eq for Entry {}
        impl Ord for Entry {
            fn cmp(&self, o: &Self) -> Ordering {
                o.cost
                    .total_cmp(&self.cost)
                    .then(o.hops.cmp(&self.hops))
                    .then(o.node.cmp(&self.node))
            }
        }
        impl PartialOrd for Entry {
            fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
                Some(self.cmp(o))
            }
        }

        let mut heap = BinaryHeap::new();
        heap.push(Entry {
            cost: 0.0,
            node: a.index(),
            hops: 0,
        });
        let mut pops = 0u64;
        while let Some(Entry { cost, node, hops }) = heap.pop() {
            pops += 1;
            if cost > dist[idx(node, hops)] {
                continue;
            }
            if node == b.index() {
                // reconstruct
                let mut rev = vec![b];
                let (mut cn, mut ch) = (node, hops);
                while !(cn == a.index() && ch == 0) {
                    let p = parent[idx(cn, ch)];
                    debug_assert_ne!(p, usize::MAX);
                    cn = p;
                    ch -= 1;
                    rev.push(PhysQubit(cn as u32));
                }
                rev.reverse();
                quva_obs::counter("router.dijkstra_pops", pops);
                return Some(rev);
            }
            if hops == cap {
                continue;
            }
            for (nb, id) in self.device.active_neighbor_links(PhysQubit(node as u32)) {
                // a link whose weight is unusable is simply not traversed
                let w = self.device.swap_weight(id);
                if !w.is_finite() {
                    continue;
                }
                let nd = cost + w;
                let ni = idx(nb.index(), hops + 1);
                if nd < dist[ni] {
                    dist[ni] = nd;
                    parent[ni] = node;
                    heap.push(Entry {
                        cost: nd,
                        node: nb.index(),
                        hops: hops + 1,
                    });
                }
            }
        }
        quva_obs::counter("router.dijkstra_pops", pops);
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quva_device::{Calibration, Topology};

    fn uniform(topo: Topology, e: f64) -> Device {
        Device::new(topo, |t| Calibration::uniform(t, e, 0.0, 0.0))
    }

    #[test]
    fn hop_route_is_shortest_and_deterministic() {
        let dev = uniform(Topology::grid(2, 3), 0.05);
        let r = Router::new(&dev, RoutingMetric::Hops);
        // 0-1-2 / 3-4-5: from 0 to 5 every route is 3 hops
        let plan = r.plan(PhysQubit(0), PhysQubit(5)).unwrap();
        assert_eq!(plan.swap_count(), 2);
        assert_eq!(plan.path.len(), 4);
        // deterministic: replanning yields the identical route
        assert_eq!(plan, r.plan(PhysQubit(0), PhysQubit(5)).unwrap());
        // and the route is a real path over links
        for w in plan.path.windows(2) {
            assert!(dev.topology().has_link(w[0], w[1]));
        }
    }

    #[test]
    fn hop_tie_break_spreads_traffic() {
        // on a 5x5 grid many corner-to-corner pairs have route choices;
        // the arbitrary tie-break should not send every pair through
        // one corridor
        let dev = uniform(Topology::grid(5, 5), 0.05);
        let r = Router::new(&dev, RoutingMetric::Hops);
        let mut used = std::collections::HashSet::new();
        for b in [6u32, 12, 18, 24, 16, 8] {
            let plan = r.plan(PhysQubit(0), PhysQubit(b)).unwrap();
            used.extend(plan.path);
        }
        assert!(used.len() > 8, "routes collapsed onto {} nodes", used.len());
    }

    #[test]
    fn adjacent_pair_needs_no_swaps() {
        let dev = uniform(Topology::linear(3), 0.05);
        for metric in [RoutingMetric::Hops, RoutingMetric::reliability()] {
            let r = Router::new(&dev, metric);
            let plan = r.plan(PhysQubit(0), PhysQubit(1)).unwrap();
            assert_eq!(plan.swap_count(), 0);
            assert!(plan.swaps().is_empty());
            assert_eq!(plan.first_lands_at(), PhysQubit(0));
            assert_eq!(plan.second_lands_at(), PhysQubit(1));
        }
    }

    #[test]
    fn reliability_route_detours_around_weak_link() {
        // Figure 1: 5-qubit ring where the short path crosses weak links
        // and the long way round is stronger.
        let topo = Topology::ring(5);
        let dev = Device::new(topo, |t| {
            let mut c = Calibration::uniform(t, 0.1, 0.0, 0.0);
            // ring links: (0,1) (1,2) (2,3) (3,4) (4,0)
            c.set_two_qubit_error(0, 0.4); // A-B weak
            c.set_two_qubit_error(1, 0.3); // B-C weak
            c
        });
        let hop_router = Router::new(&dev, RoutingMetric::Hops);
        let rel_router = Router::new(&dev, RoutingMetric::reliability());
        let short = hop_router.plan(PhysQubit(0), PhysQubit(2)).unwrap();
        let strong = rel_router.plan(PhysQubit(0), PhysQubit(2)).unwrap();
        assert_eq!(short.swap_count(), 1);
        assert_eq!(
            strong.swap_count(),
            2,
            "VQM should take the longer, stronger route"
        );
        assert_eq!(
            strong.path,
            vec![PhysQubit(0), PhysQubit(4), PhysQubit(3), PhysQubit(2)]
        );
        assert!(rel_router.plan_failure_weight(&strong) < rel_router.plan_failure_weight(&short));
    }

    #[test]
    fn hop_limit_constrains_detour() {
        // same weak ring, but MAH = 0 forbids any detour
        let topo = Topology::ring(5);
        let dev = Device::new(topo, |t| {
            let mut c = Calibration::uniform(t, 0.1, 0.0, 0.0);
            c.set_two_qubit_error(0, 0.4);
            c.set_two_qubit_error(1, 0.3);
            c
        });
        let r = Router::new(
            &dev,
            RoutingMetric::Reliability {
                max_additional_hops: Some(0),
                optimize_meeting_edge: false,
            },
        );
        let plan = r.plan(PhysQubit(0), PhysQubit(2)).unwrap();
        assert_eq!(plan.swap_count(), 1, "MAH=0 must keep the shortest hop count");
    }

    #[test]
    fn uniform_errors_make_metrics_agree_on_length() {
        let dev = uniform(Topology::ibm_q20_tokyo(), 0.05);
        let hop = Router::new(&dev, RoutingMetric::Hops);
        let rel = Router::new(&dev, RoutingMetric::reliability());
        for a in 0..20u32 {
            for b in 0..20u32 {
                if a == b {
                    continue;
                }
                let ph = hop.plan(PhysQubit(a), PhysQubit(b)).unwrap();
                let pr = rel.plan(PhysQubit(a), PhysQubit(b)).unwrap();
                assert_eq!(ph.swap_count(), pr.swap_count(), "{a}->{b}");
            }
        }
    }

    #[test]
    fn meeting_edge_extension_picks_weakest_on_path() {
        // line with a weak middle link: with the extension enabled the
        // CNOT executes across the weak link rather than swapping
        // through it (1 use vs 3)
        let topo = Topology::linear(4);
        let dev = Device::new(topo, |t| {
            let mut c = Calibration::uniform(t, 0.02, 0.0, 0.0);
            c.set_two_qubit_error(1, 0.2); // link 1-2 weak
            c
        });
        let r = Router::new(&dev, RoutingMetric::reliability_with_meeting_edge());
        let plan = r.plan(PhysQubit(0), PhysQubit(3)).unwrap();
        assert_eq!(plan.meet, 1, "meeting edge should be the weak 1–2 link");
        let swaps = plan.swaps();
        assert_eq!(
            swaps,
            vec![(PhysQubit(0), PhysQubit(1)), (PhysQubit(3), PhysQubit(2))]
        );
        assert_eq!(plan.first_lands_at(), PhysQubit(1));
        assert_eq!(plan.second_lands_at(), PhysQubit(2));
        // the extension never costs more failure weight than the
        // default central meeting
        let faithful = Router::new(&dev, RoutingMetric::reliability());
        let default_plan = faithful.plan(PhysQubit(0), PhysQubit(3)).unwrap();
        let ext_plan = r.plan(PhysQubit(0), PhysQubit(3)).unwrap();
        assert!(r.plan_failure_weight(&ext_plan) <= faithful.plan_failure_weight(&default_plan) + 1e-12);
    }

    #[test]
    fn swaps_meet_in_the_middle() {
        let dev = uniform(Topology::linear(4), 0.05);
        let r = Router::new(&dev, RoutingMetric::Hops);
        let plan = r.plan(PhysQubit(0), PhysQubit(3)).unwrap();
        // central meeting: both occupants move one step
        assert_eq!(plan.meet, 1);
        assert_eq!(
            plan.swaps(),
            vec![(PhysQubit(0), PhysQubit(1)), (PhysQubit(3), PhysQubit(2))]
        );
        assert_eq!(plan.first_lands_at(), PhysQubit(1));
        assert_eq!(plan.second_lands_at(), PhysQubit(2));
    }

    #[test]
    fn disconnected_pair_is_typed_error() {
        let dev = uniform(Topology::from_links("split", 4, [(0, 1), (2, 3)]), 0.05);
        for metric in [RoutingMetric::Hops, RoutingMetric::reliability()] {
            let r = Router::new(&dev, metric);
            assert_eq!(
                r.plan(PhysQubit(0), PhysQubit(3)),
                Err(RouteError::Disconnected {
                    a: PhysQubit(0),
                    b: PhysQubit(3)
                })
            );
        }
    }

    #[test]
    fn self_route_rejected() {
        let dev = uniform(Topology::linear(2), 0.05);
        let r = Router::new(&dev, RoutingMetric::Hops);
        assert_eq!(
            r.plan(PhysQubit(0), PhysQubit(0)),
            Err(RouteError::SelfRoute(PhysQubit(0)))
        );
    }

    #[test]
    fn dead_link_forces_detour() {
        // ring 0-1-2-3-4; with 0-1 dead, 0→1 must go the long way round
        let dev = uniform(Topology::ring(5), 0.05).with_disabled_links([(PhysQubit(0), PhysQubit(1))]);
        for metric in [RoutingMetric::Hops, RoutingMetric::reliability()] {
            let r = Router::new(&dev, metric);
            let plan = r.plan(PhysQubit(0), PhysQubit(1)).unwrap();
            assert_eq!(
                plan.path,
                vec![
                    PhysQubit(0),
                    PhysQubit(4),
                    PhysQubit(3),
                    PhysQubit(2),
                    PhysQubit(1)
                ]
            );
            for w in plan.path.windows(2) {
                assert!(dev.has_active_link(w[0], w[1]));
            }
        }
    }

    #[test]
    fn dead_links_splitting_device_yield_error() {
        // line 0-1-2-3 with the middle link dead: the halves cannot talk
        let dev = uniform(Topology::linear(4), 0.05).with_disabled_links([(PhysQubit(1), PhysQubit(2))]);
        for metric in [
            RoutingMetric::Hops,
            RoutingMetric::reliability(),
            RoutingMetric::reliability_hop_limited(),
        ] {
            let r = Router::new(&dev, metric);
            assert_eq!(
                r.plan(PhysQubit(0), PhysQubit(3)),
                Err(RouteError::Disconnected {
                    a: PhysQubit(0),
                    b: PhysQubit(3)
                })
            );
            // pairs inside one half still route fine
            assert!(r.plan(PhysQubit(0), PhysQubit(1)).is_ok());
        }
    }

    #[test]
    fn route_error_displays() {
        let e = RouteError::Disconnected {
            a: PhysQubit(0),
            b: PhysQubit(3),
        };
        assert!(e.to_string().contains("no active path"));
        assert!(RouteError::SelfRoute(PhysQubit(2)).to_string().contains("itself"));
    }

    #[test]
    fn metric_constructors() {
        assert_eq!(
            RoutingMetric::reliability(),
            RoutingMetric::Reliability {
                max_additional_hops: None,
                optimize_meeting_edge: false
            }
        );
        assert_eq!(
            RoutingMetric::reliability_hop_limited(),
            RoutingMetric::Reliability {
                max_additional_hops: Some(4),
                optimize_meeting_edge: false
            }
        );
        assert_eq!(
            RoutingMetric::reliability_with_meeting_edge(),
            RoutingMetric::Reliability {
                max_additional_hops: None,
                optimize_meeting_edge: true
            }
        );
    }
}
