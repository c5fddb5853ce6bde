//! Coupling topology of a NISQ device.
//!
//! A topology is an undirected graph whose nodes are physical qubits and
//! whose edges are coupling links: a two-qubit gate can only be applied
//! across an edge (paper §2.4).

use std::collections::BTreeSet;
use std::fmt;

use quva_circuit::PhysQubit;

/// An undirected coupling link between two physical qubits, stored with
/// the smaller index first so that `(a, b)` and `(b, a)` compare equal.
///
/// # Examples
///
/// ```
/// use quva_device::Link;
/// use quva_circuit::PhysQubit;
///
/// assert_eq!(Link::new(PhysQubit(3), PhysQubit(1)), Link::new(PhysQubit(1), PhysQubit(3)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Link {
    a: PhysQubit,
    b: PhysQubit,
}

impl Link {
    /// Creates a normalized link.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` (self-loops are not physical couplings).
    pub fn new(a: PhysQubit, b: PhysQubit) -> Self {
        assert!(a != b, "coupling link endpoints must differ");
        if a < b {
            Link { a, b }
        } else {
            Link { a: b, b: a }
        }
    }

    /// The endpoint with the smaller index.
    pub fn low(self) -> PhysQubit {
        self.a
    }

    /// The endpoint with the larger index.
    pub fn high(self) -> PhysQubit {
        self.b
    }

    /// Both endpoints, low first.
    pub fn endpoints(self) -> (PhysQubit, PhysQubit) {
        (self.a, self.b)
    }

    /// Whether `q` is one of the endpoints.
    pub fn touches(self, q: PhysQubit) -> bool {
        self.a == q || self.b == q
    }

    /// Given one endpoint, returns the other; `None` if `q` is not an
    /// endpoint.
    pub fn other(self, q: PhysQubit) -> Option<PhysQubit> {
        if q == self.a {
            Some(self.b)
        } else if q == self.b {
            Some(self.a)
        } else {
            None
        }
    }
}

impl fmt::Display for Link {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}–{}", self.a, self.b)
    }
}

/// The coupling graph of a device.
///
/// # Examples
///
/// ```
/// use quva_device::Topology;
/// use quva_circuit::PhysQubit;
///
/// let t = Topology::linear(3);
/// assert_eq!(t.num_qubits(), 3);
/// assert!(t.has_link(PhysQubit(0), PhysQubit(1)));
/// assert!(!t.has_link(PhysQubit(0), PhysQubit(2)));
/// ```
#[derive(Debug, Clone)]
pub struct Topology {
    name: String,
    links: Vec<Link>,
    adjacency: Adjacency,
}

/// A compressed-sparse-row adjacency: row `q` lists `q`'s neighbours in
/// ascending order, next to the id of the link to each.
#[derive(Debug, Clone)]
struct Adjacency {
    /// Row `q` spans `offsets[q]..offsets[q + 1]`.
    offsets: Vec<usize>,
    neighbors: Vec<PhysQubit>,
    link_ids: Vec<usize>,
}

impl Adjacency {
    /// The adjacency of `num_qubits` qubits over `links`.
    fn of_links(num_qubits: usize, links: &[Link]) -> Self {
        let mut offsets = vec![0; num_qubits + 1];
        for link in links {
            offsets[link.low().index() + 1] += 1;
            offsets[link.high().index() + 1] += 1;
        }
        for q in 0..num_qubits {
            offsets[q + 1] += offsets[q];
        }
        let mut entries = vec![(PhysQubit(0), 0); offsets[num_qubits]];
        let mut fill = offsets.clone();
        for (id, link) in links.iter().enumerate() {
            for (from, to) in [(link.low(), link.high()), (link.high(), link.low())] {
                entries[fill[from.index()]] = (to, id);
                fill[from.index()] += 1;
            }
        }
        for q in 0..num_qubits {
            entries[offsets[q]..offsets[q + 1]].sort_unstable();
        }
        Adjacency {
            offsets,
            neighbors: entries.iter().map(|&(q, _)| q).collect(),
            link_ids: entries.iter().map(|&(_, id)| id).collect(),
        }
    }

    fn num_rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `q`'s neighbours, ascending.
    fn row(&self, q: PhysQubit) -> &[PhysQubit] {
        &self.neighbors[self.offsets[q.index()]..self.offsets[q.index() + 1]]
    }

    /// `q`'s neighbours, ascending, each with the id of the link to it.
    fn row_links(&self, q: PhysQubit) -> impl Iterator<Item = (PhysQubit, usize)> + '_ {
        let span = self.offsets[q.index()]..self.offsets[q.index() + 1];
        self.neighbors[span.clone()]
            .iter()
            .copied()
            .zip(self.link_ids[span].iter().copied())
    }

    /// The id of the `a`–`b` link, found in `a`'s row; `None` when
    /// `a == b`, either qubit is out of range, or the row lacks `b`.
    fn link_id(&self, a: PhysQubit, b: PhysQubit) -> Option<usize> {
        if a == b || a.index() >= self.num_rows() || b.index() >= self.num_rows() {
            return None;
        }
        let start = self.offsets[a.index()];
        let row = self.row(a);
        row.binary_search(&b).ok().map(|at| self.link_ids[start + at])
    }
}

impl Topology {
    /// Builds a topology from an explicit link list.
    ///
    /// Duplicate links are collapsed.
    ///
    /// # Panics
    ///
    /// Panics if a link references a qubit `>= num_qubits`, or if a link
    /// is a self-loop.
    pub fn from_links(
        name: impl Into<String>,
        num_qubits: usize,
        link_pairs: impl IntoIterator<Item = (u32, u32)>,
    ) -> Self {
        let mut links: Vec<Link> = Vec::new();
        let mut seen = BTreeSet::new();
        for (a, b) in link_pairs {
            assert!(
                (a as usize) < num_qubits && (b as usize) < num_qubits,
                "link ({a},{b}) out of range"
            );
            let link = Link::new(PhysQubit(a), PhysQubit(b));
            if seen.insert(link) {
                links.push(link);
            }
        }
        let adjacency = Adjacency::of_links(num_qubits, &links);
        Topology {
            name: name.into(),
            links,
            adjacency,
        }
    }

    /// A human-readable name ("ibm-q20-tokyo", "linear-5", ...).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of physical qubits.
    pub fn num_qubits(&self) -> usize {
        self.adjacency.num_rows()
    }

    /// Number of undirected coupling links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// All links, in insertion order. The position of a link in this
    /// slice is its *link id*, used by calibration data.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// The id of a link (its index into [`Topology::links`]), if present:
    /// a search of `a`'s neighbour row. `None` for `a == b` and for
    /// qubits outside the device.
    pub fn link_id(&self, a: PhysQubit, b: PhysQubit) -> Option<usize> {
        self.adjacency.link_id(a, b)
    }

    /// Whether qubits `a` and `b` are directly coupled.
    pub fn has_link(&self, a: PhysQubit, b: PhysQubit) -> bool {
        self.link_id(a, b).is_some()
    }

    /// The neighbors of `q`, in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn neighbors(&self, q: PhysQubit) -> &[PhysQubit] {
        assert!(q.index() < self.num_qubits(), "{q} out of range");
        self.adjacency.row(q)
    }

    /// The neighbors of `q` in ascending order, each with the id of the
    /// link to it.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn neighbor_links(&self, q: PhysQubit) -> impl Iterator<Item = (PhysQubit, usize)> + '_ {
        assert!(q.index() < self.num_qubits(), "{q} out of range");
        self.adjacency.row_links(q)
    }

    /// The coupling degree of `q`.
    pub fn degree(&self, q: PhysQubit) -> usize {
        self.neighbors(q).len()
    }

    /// Whether every qubit can reach every other via coupling links.
    pub fn is_connected(&self) -> bool {
        if self.num_qubits() == 0 {
            return true;
        }
        let mut seen = vec![false; self.num_qubits()];
        let mut stack = vec![PhysQubit(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for &n in self.neighbors(v) {
                if !seen[n.index()] {
                    seen[n.index()] = true;
                    count += 1;
                    stack.push(n);
                }
            }
        }
        count == self.num_qubits()
    }

    /// Iterates over all physical qubits.
    pub fn qubits(&self) -> impl Iterator<Item = PhysQubit> + '_ {
        (0..self.num_qubits()).map(|i| PhysQubit(i as u32))
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} qubits, {} links)",
            self.name,
            self.num_qubits(),
            self.num_links()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_normalizes_order() {
        let l = Link::new(PhysQubit(5), PhysQubit(2));
        assert_eq!(l.low(), PhysQubit(2));
        assert_eq!(l.high(), PhysQubit(5));
        assert_eq!(l.endpoints(), (PhysQubit(2), PhysQubit(5)));
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn link_rejects_self_loop() {
        Link::new(PhysQubit(1), PhysQubit(1));
    }

    #[test]
    fn link_other_endpoint() {
        let l = Link::new(PhysQubit(0), PhysQubit(1));
        assert_eq!(l.other(PhysQubit(0)), Some(PhysQubit(1)));
        assert_eq!(l.other(PhysQubit(1)), Some(PhysQubit(0)));
        assert_eq!(l.other(PhysQubit(2)), None);
        assert!(l.touches(PhysQubit(0)));
        assert!(!l.touches(PhysQubit(2)));
    }

    #[test]
    fn from_links_collapses_duplicates() {
        let t = Topology::from_links("t", 3, [(0, 1), (1, 0), (1, 2)]);
        assert_eq!(t.num_links(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_links_rejects_bad_qubit() {
        Topology::from_links("t", 2, [(0, 2)]);
    }

    #[test]
    fn link_ids_are_stable() {
        let t = Topology::from_links("t", 4, [(0, 1), (1, 2), (2, 3)]);
        assert_eq!(t.link_id(PhysQubit(1), PhysQubit(2)), Some(1));
        assert_eq!(t.link_id(PhysQubit(2), PhysQubit(1)), Some(1));
        assert_eq!(t.link_id(PhysQubit(0), PhysQubit(3)), None);
        assert_eq!(t.link_id(PhysQubit(0), PhysQubit(0)), None);
    }

    #[test]
    fn neighbors_sorted() {
        let t = Topology::from_links("t", 4, [(2, 1), (2, 3), (2, 0)]);
        assert_eq!(
            t.neighbors(PhysQubit(2)),
            vec![PhysQubit(0), PhysQubit(1), PhysQubit(3)]
        );
        assert_eq!(t.degree(PhysQubit(2)), 3);
        assert_eq!(t.degree(PhysQubit(0)), 1);
    }

    #[test]
    fn connectivity_detection() {
        let connected = Topology::from_links("c", 3, [(0, 1), (1, 2)]);
        assert!(connected.is_connected());
        let disconnected = Topology::from_links("d", 4, [(0, 1), (2, 3)]);
        assert!(!disconnected.is_connected());
    }

    #[test]
    fn display_includes_counts() {
        let t = Topology::from_links("demo", 3, [(0, 1)]);
        assert_eq!(t.to_string(), "demo (3 qubits, 1 links)");
    }
}
