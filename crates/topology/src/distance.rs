//! All-pairs distance matrices.

/// An all-pairs distance matrix over the physical qubits of a device: one
/// `f64` per ordered pair, row-major, `f64::INFINITY` where there is no path.
///
/// [`CouplingMap::distance_matrix`](crate::CouplingMap::distance_matrix)
/// fills it with BFS hop counts (the plain SABRE distance), which are exact
/// in `f64`; [`noise_aware_distance`](crate::noise_aware_distance) with the
/// weighted shortest paths of Eq. 3 (the HA variants).
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceMatrix {
    n: usize,
    weights: Vec<f64>,
}

impl DistanceMatrix {
    /// Builds a matrix from `n × n` row-major distances; panics on any
    /// other length.
    pub fn from_weights(n: usize, weights: Vec<f64>) -> Self {
        assert_eq!(weights.len(), n * n);
        Self { n, weights }
    }

    /// The number of physical qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// The distance between two physical qubits.
    pub fn weight(&self, a: usize, b: usize) -> f64 {
        self.weights[a * self.n + b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unreachable_is_infinite_weight() {
        let d = DistanceMatrix::from_weights(2, vec![0.0, f64::INFINITY, 2.5, 0.0]);
        assert!(d.weight(0, 1).is_infinite());
        assert_eq!(d.weight(1, 0), 2.5);
        assert_eq!(d.num_qubits(), 2);
    }
}
