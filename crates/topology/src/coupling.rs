//! Hardware coupling maps.

use crate::distance::{DistanceMatrix, UNREACHABLE};

/// The qubit-connectivity graph of a quantum device.
///
/// Connectivity is treated as undirected (the IBM basis supports CNOTs in
/// both directions after adding Hadamards, and the paper's cost model counts
/// CNOTs independent of direction).
///
/// # Example
///
/// ```
/// use nassc_topology::CouplingMap;
///
/// let line = CouplingMap::linear(4);
/// assert!(line.are_connected(1, 2));
/// assert!(!line.are_connected(0, 3));
/// assert_eq!(line.distance_matrix().hops(0, 3), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CouplingMap {
    num_qubits: usize,
    edges: Vec<(usize, usize)>,
    adjacency: Vec<Vec<usize>>,
}

impl CouplingMap {
    /// Creates a coupling map from an undirected edge list.
    ///
    /// Edges are normalised to `(min, max)` and deduplicated.
    ///
    /// # Panics
    ///
    /// Panics when an edge references a qubit `>= num_qubits` or is a
    /// self-loop.
    pub fn new(num_qubits: usize, edges: &[(usize, usize)]) -> Self {
        let mut normalized: Vec<(usize, usize)> = Vec::new();
        let mut adjacency = vec![Vec::new(); num_qubits];
        for &(a, b) in edges {
            assert!(
                a < num_qubits && b < num_qubits,
                "edge ({a},{b}) out of range"
            );
            assert_ne!(a, b, "self-loop edge ({a},{b}) is not allowed");
            let e = (a.min(b), a.max(b));
            if !normalized.contains(&e) {
                normalized.push(e);
                adjacency[a].push(b);
                adjacency[b].push(a);
            }
        }
        for neighbors in &mut adjacency {
            neighbors.sort_unstable();
        }
        Self {
            num_qubits,
            edges: normalized,
            adjacency,
        }
    }

    /// A 1-D nearest-neighbour chain of `n` qubits.
    pub fn linear(n: usize) -> Self {
        let edges: Vec<(usize, usize)> = (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect();
        Self::new(n, &edges)
    }

    /// A `rows × cols` 2-D grid.
    pub fn grid(rows: usize, cols: usize) -> Self {
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                let q = r * cols + c;
                if c + 1 < cols {
                    edges.push((q, q + 1));
                }
                if r + 1 < rows {
                    edges.push((q, q + cols));
                }
            }
        }
        Self::new(rows * cols, &edges)
    }

    /// A fully connected device of `n` qubits.
    pub fn fully_connected(n: usize) -> Self {
        let mut edges = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                edges.push((a, b));
            }
        }
        Self::new(n, &edges)
    }

    /// The 27-qubit heavy-hex coupling map of `ibmq_montreal` (IBM Falcon),
    /// as used throughout the paper's evaluation.
    pub fn ibmq_montreal() -> Self {
        let edges = [
            (0, 1),
            (1, 2),
            (1, 4),
            (2, 3),
            (3, 5),
            (4, 7),
            (5, 8),
            (6, 7),
            (7, 10),
            (8, 9),
            (8, 11),
            (10, 12),
            (11, 14),
            (12, 13),
            (12, 15),
            (13, 14),
            (14, 16),
            (15, 18),
            (16, 19),
            (17, 18),
            (18, 21),
            (19, 20),
            (19, 22),
            (21, 23),
            (22, 25),
            (23, 24),
            (24, 25),
            (25, 26),
        ];
        Self::new(27, &edges)
    }

    /// A heavy-hex lattice of code distance `d` (odd, `>= 3`), the topology
    /// family of IBM's Falcon/Eagle/Osprey processors.
    ///
    /// The lattice is `d` rows of qubits (row 0 omits its rightmost column,
    /// row `d-1` its leftmost) joined by `d-1` gaps of rung qubits; rungs sit
    /// on columns `≡ 0 (mod 4)` in even gaps and `≡ 2 (mod 4)` in odd gaps,
    /// each connecting the same-column qubits of the two adjacent rows.
    /// `heavy_hex(7)` reproduces the 127-qubit / 144-edge Eagle graph
    /// (`ibm_washington`); `heavy_hex(13)` the 433-qubit Osprey graph.
    ///
    /// # Panics
    ///
    /// Panics when `d` is even or `< 3`.
    pub fn heavy_hex(d: usize) -> Self {
        assert!(
            d >= 3 && d % 2 == 1,
            "heavy-hex distance must be odd and >= 3, got {d}"
        );
        let width = 2 * d + 1;
        let row_cols = |r: usize| {
            if r == 0 {
                0..width - 1
            } else if r == d - 1 {
                1..width
            } else {
                0..width
            }
        };
        let mut index = 0usize;
        let mut row_at = vec![vec![usize::MAX; width]; d];
        let mut edges = Vec::new();
        // Per-gap rung qubits as (column, qubit index), interleaved with the
        // rows so numbering runs row 0, gap 0, row 1, gap 1, ... row d-1.
        let mut rungs: Vec<Vec<(usize, usize)>> = Vec::new();
        for (r, row) in row_at.iter_mut().enumerate() {
            let mut prev = None;
            for c in row_cols(r) {
                row[c] = index;
                if let Some(p) = prev {
                    edges.push((p, index));
                }
                prev = Some(index);
                index += 1;
            }
            if r + 1 < d {
                let mut gap = Vec::new();
                let mut c = if r % 2 == 0 { 0 } else { 2 };
                while c < width {
                    gap.push((c, index));
                    index += 1;
                    c += 4;
                }
                rungs.push(gap);
            }
        }
        for (g, gap) in rungs.iter().enumerate() {
            for &(c, q) in gap {
                edges.push((row_at[g][c], q));
                edges.push((row_at[g + 1][c], q));
            }
        }
        Self::new(index, &edges)
    }

    /// The number of qubits (nodes).
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The undirected edge list, each edge as `(min, max)`.
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// The neighbours of a physical qubit.
    pub fn neighbors(&self, qubit: usize) -> &[usize] {
        &self.adjacency[qubit]
    }

    /// The degree of a physical qubit.
    pub fn degree(&self, qubit: usize) -> usize {
        self.adjacency[qubit].len()
    }

    /// Whether two physical qubits share an edge.
    pub fn are_connected(&self, a: usize, b: usize) -> bool {
        self.adjacency[a].binary_search(&b).is_ok()
    }

    /// Whether the graph is connected.
    pub fn is_connected(&self) -> bool {
        if self.num_qubits == 0 {
            return true;
        }
        let d = self.distance_matrix();
        (0..self.num_qubits).all(|q| d.hops(0, q) != usize::MAX)
    }

    /// The all-pairs shortest-path (hop-count) distance matrix via BFS,
    /// run straight into the matrix's compact hop table.
    pub fn distance_matrix(&self) -> DistanceMatrix {
        let n = self.num_qubits;
        let mut hops = vec![UNREACHABLE; n * n];
        let mut queue = std::collections::VecDeque::new();
        for (source, row) in hops.chunks_exact_mut(n.max(1)).enumerate() {
            row[source] = 0;
            queue.push_back(source);
            while let Some(u) = queue.pop_front() {
                let du = row[u];
                for &v in self.neighbors(u) {
                    if row[v] == UNREACHABLE {
                        row[v] = du + 1;
                        queue.push_back(v);
                    }
                }
            }
        }
        DistanceMatrix::from_compact_hops(n, hops)
    }

    /// The graph diameter (longest shortest path). Returns `None` when the
    /// graph is disconnected or empty.
    pub fn diameter(&self) -> Option<usize> {
        if self.num_qubits == 0 {
            return None;
        }
        let d = self.distance_matrix();
        let mut max = 0;
        for i in 0..self.num_qubits {
            for j in 0..self.num_qubits {
                let h = d.hops(i, j);
                if h == usize::MAX {
                    return None;
                }
                max = max.max(h);
            }
        }
        Some(max)
    }

    /// The shortest path between two physical qubits (inclusive of both
    /// endpoints), or `None` when unreachable.
    pub fn shortest_path(&self, from: usize, to: usize) -> Option<Vec<usize>> {
        let n = self.num_qubits;
        let mut prev = vec![usize::MAX; n];
        let mut seen = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        seen[from] = true;
        queue.push_back(from);
        while let Some(u) = queue.pop_front() {
            if u == to {
                break;
            }
            for &v in self.neighbors(u) {
                if !seen[v] {
                    seen[v] = true;
                    prev[v] = u;
                    queue.push_back(v);
                }
            }
        }
        if !seen[to] {
            return None;
        }
        let mut path = vec![to];
        let mut cur = to;
        while cur != from {
            cur = prev[cur];
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_structure() {
        let line = CouplingMap::linear(5);
        assert_eq!(line.num_qubits(), 5);
        assert_eq!(line.edges().len(), 4);
        assert_eq!(line.degree(0), 1);
        assert_eq!(line.degree(2), 2);
        assert_eq!(line.diameter(), Some(4));
    }

    #[test]
    fn grid_structure() {
        let grid = CouplingMap::grid(5, 5);
        assert_eq!(grid.num_qubits(), 25);
        assert_eq!(grid.edges().len(), 2 * 5 * 4);
        assert_eq!(grid.diameter(), Some(8));
        assert!(grid.are_connected(0, 1));
        assert!(grid.are_connected(0, 5));
        assert!(!grid.are_connected(0, 6));
    }

    #[test]
    fn fully_connected_has_diameter_one() {
        let full = CouplingMap::fully_connected(6);
        assert_eq!(full.edges().len(), 15);
        assert_eq!(full.diameter(), Some(1));
    }

    #[test]
    fn montreal_is_the_published_heavy_hex() {
        let m = CouplingMap::ibmq_montreal();
        assert_eq!(m.num_qubits(), 27);
        assert_eq!(m.edges().len(), 28);
        assert!(m.is_connected());
        // Heavy-hex degree profile: no qubit exceeds degree 3.
        assert!((0..27).all(|q| m.degree(q) <= 3));
        assert!(m.are_connected(0, 1));
        assert!(m.are_connected(25, 26));
        assert!(!m.are_connected(0, 26));
    }

    #[test]
    fn heavy_hex_reproduces_eagle_and_osprey() {
        // d=7 is the 127-qubit Eagle graph (ibm_washington): 144 edges.
        let eagle = CouplingMap::heavy_hex(7);
        assert_eq!(eagle.num_qubits(), 127);
        assert_eq!(eagle.edges().len(), 144);
        // d=13 is the 433-qubit Osprey graph.
        let osprey = CouplingMap::heavy_hex(13);
        assert_eq!(osprey.num_qubits(), 433);
        assert_eq!(osprey.edges().len(), 504);
    }

    #[test]
    fn heavy_hex_shares_the_montreal_invariants() {
        // Same checks the published Montreal heavy-hex test pins: connected,
        // degree <= 3, symmetric distances. Rung qubits have degree exactly 2.
        for d in [3usize, 5, 7] {
            let m = CouplingMap::heavy_hex(d);
            assert!(m.is_connected(), "heavy_hex({d}) must be connected");
            assert!(
                (0..m.num_qubits()).all(|q| m.degree(q) <= 3),
                "heavy_hex({d}) exceeds degree 3"
            );
            // Handshake: every edge counted twice across degrees.
            let total: usize = (0..m.num_qubits()).map(|q| m.degree(q)).sum();
            assert_eq!(total, 2 * m.edges().len());
            let dist = m.distance_matrix();
            for i in 0..m.num_qubits() {
                assert_eq!(dist.hops(i, i), 0);
                for j in 0..m.num_qubits() {
                    assert_eq!(dist.hops(i, j), dist.hops(j, i));
                }
            }
        }
        // The smallest member of the family.
        assert_eq!(CouplingMap::heavy_hex(3).num_qubits(), 23);
    }

    #[test]
    #[should_panic(expected = "must be odd")]
    fn heavy_hex_rejects_even_distance() {
        let _ = CouplingMap::heavy_hex(4);
    }

    #[test]
    fn distances_are_symmetric_and_triangle() {
        let m = CouplingMap::ibmq_montreal();
        let d = m.distance_matrix();
        for i in 0..27 {
            assert_eq!(d.hops(i, i), 0);
            for j in 0..27 {
                assert_eq!(d.hops(i, j), d.hops(j, i));
                for k in 0..27 {
                    assert!(d.hops(i, j) <= d.hops(i, k) + d.hops(k, j));
                }
            }
        }
    }

    #[test]
    fn shortest_path_endpoints_and_adjacency() {
        let m = CouplingMap::grid(3, 3);
        let p = m.shortest_path(0, 8).unwrap();
        assert_eq!(p.first(), Some(&0));
        assert_eq!(p.last(), Some(&8));
        assert_eq!(p.len(), m.distance_matrix().hops(0, 8) + 1);
        for w in p.windows(2) {
            assert!(m.are_connected(w[0], w[1]));
        }
    }

    #[test]
    fn duplicate_edges_are_ignored() {
        let m = CouplingMap::new(3, &[(0, 1), (1, 0), (1, 2)]);
        assert_eq!(m.edges().len(), 2);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        let _ = CouplingMap::new(3, &[(1, 1)]);
    }

    #[test]
    fn disconnected_graph_detected() {
        let m = CouplingMap::new(4, &[(0, 1), (2, 3)]);
        assert!(!m.is_connected());
        assert_eq!(m.diameter(), None);
        assert_eq!(m.shortest_path(0, 3), None);
    }
}
