//! All-pairs distance matrices (hop count and noise-aware weights).

/// An all-pairs distance matrix over the physical qubits of a device.
///
/// Two views are provided: integer hop counts (the plain SABRE distance) and
/// floating-point weights (used by the noise-aware HA-style distance of
/// Eq. 3 in the paper, where an edge's weight mixes its error rate, duration
/// and unit distance).
/// Sentinel for "unreachable" in the compact hop storage; surfaced to
/// callers as `usize::MAX` so the public API is unchanged.
pub(crate) const UNREACHABLE: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct DistanceMatrix {
    n: usize,
    // Hop counts are stored as u32 — at 433 qubits (IBM Osprey) the n² hop
    // table drops from 1.5 MB to 750 KB and halves the cache traffic of the
    // routing hot loop. Device diameters are tiny, so u32 never saturates.
    hops: Vec<u32>,
    weights: Vec<f64>,
}

impl DistanceMatrix {
    /// Builds a matrix from BFS hop counts; weights default to the hop count.
    pub fn from_hops(n: usize, hops: Vec<usize>) -> Self {
        Self::from_compact_hops(n, hops.into_iter().map(Self::compact_hop).collect())
    }

    /// [`from_hops`](Self::from_hops) over hop counts already in their
    /// stored form, [`UNREACHABLE`] where there is no path: the hop table is
    /// kept as given, and only the weights are built.
    pub(crate) fn from_compact_hops(n: usize, hops: Vec<u32>) -> Self {
        assert_eq!(hops.len(), n * n);
        let weights = hops
            .iter()
            .map(|&h| {
                if h == UNREACHABLE {
                    f64::INFINITY
                } else {
                    f64::from(h)
                }
            })
            .collect();
        Self { n, hops, weights }
    }

    /// Builds a matrix from explicit floating-point weights, deriving the hop
    /// view by rounding (used only for display; routing reads `weight`).
    pub fn from_weights(n: usize, weights: Vec<f64>) -> Self {
        assert_eq!(weights.len(), n * n);
        let hops = weights
            .iter()
            .map(|&w| {
                if w.is_finite() {
                    Self::compact_hop(w.round() as usize)
                } else {
                    UNREACHABLE
                }
            })
            .collect();
        Self { n, hops, weights }
    }

    fn compact_hop(h: usize) -> u32 {
        if h == usize::MAX {
            UNREACHABLE
        } else {
            u32::try_from(h).expect("hop count exceeds u32 range")
        }
    }

    /// The number of physical qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Hop-count distance between two physical qubits
    /// (`usize::MAX` when unreachable).
    pub fn hops(&self, a: usize, b: usize) -> usize {
        let h = self.hops[a * self.n + b];
        if h == UNREACHABLE {
            usize::MAX
        } else {
            h as usize
        }
    }

    /// Weighted distance between two physical qubits.
    pub fn weight(&self, a: usize, b: usize) -> f64 {
        self.weights[a * self.n + b]
    }

    /// Replaces the weighted view while keeping the hop view.
    pub fn with_weights(mut self, weights: Vec<f64>) -> Self {
        assert_eq!(weights.len(), self.n * self.n);
        self.weights = weights;
        self
    }

    /// The largest finite hop count in the matrix.
    pub fn max_hops(&self) -> usize {
        self.hops
            .iter()
            .copied()
            .filter(|&h| h != UNREACHABLE)
            .max()
            .unwrap_or(0) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hop_and_weight_views_agree_by_default() {
        let d = DistanceMatrix::from_hops(2, vec![0, 3, 3, 0]);
        assert_eq!(d.hops(0, 1), 3);
        assert!((d.weight(0, 1) - 3.0).abs() < 1e-12);
        assert_eq!(d.max_hops(), 3);
    }

    #[test]
    fn unreachable_is_infinite_weight() {
        let d = DistanceMatrix::from_hops(2, vec![0, usize::MAX, usize::MAX, 0]);
        assert!(d.weight(0, 1).is_infinite());
    }

    #[test]
    fn weights_can_be_overridden() {
        let d =
            DistanceMatrix::from_hops(2, vec![0, 1, 1, 0]).with_weights(vec![0.0, 2.5, 2.5, 0.0]);
        assert_eq!(d.hops(0, 1), 1);
        assert!((d.weight(0, 1) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn from_weights_rounds_for_hops() {
        let d = DistanceMatrix::from_weights(2, vec![0.0, 1.9, 1.9, 0.0]);
        assert_eq!(d.hops(0, 1), 2);
    }
}
