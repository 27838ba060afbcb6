//! Device calibration data and the noise-aware distance matrix (Eq. 3).
//!
//! The paper's noise-aware variants (SABRE+HA and NASSC+HA) replace the plain
//! hop-count distance matrix with one whose edge weights mix the CNOT error
//! rate, the SWAP execution time and the unit hop distance:
//!
//! ```text
//! D_noise[i][j] = α1·ε[i][j] + α2·T[i][j] + α3·D[i][j]        (Eq. 3)
//! ```
//!
//! The paper's experiments fix `α = (0.5, 0, 0.5)`, and so does
//! [`noise_aware_distance`]: the three α are private constants, not
//! parameters. The original artifact reads ε and T from the IBM backend; we
//! generate a synthetic but realistic calibration (documented in DESIGN.md)
//! because real backend access is not available offline.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::coupling::CouplingMap;
use crate::distance::DistanceMatrix;

/// Per-device calibration data: error rates and durations.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    num_qubits: usize,
    cx_error: HashMap<(usize, usize), f64>,
    cx_duration_ns: HashMap<(usize, usize), f64>,
    sq_error: Vec<f64>,
    readout_error: Vec<f64>,
}

impl Calibration {
    /// Builds a calibration with uniform (noise-free-ish) values, useful as a
    /// neutral default in tests.
    pub fn uniform(coupling: &CouplingMap, cx_error: f64, readout_error: f64) -> Self {
        let mut cx = HashMap::new();
        let mut dur = HashMap::new();
        for &(a, b) in coupling.edges() {
            cx.insert((a, b), cx_error);
            dur.insert((a, b), 300.0);
        }
        Self {
            num_qubits: coupling.num_qubits(),
            cx_error: cx,
            cx_duration_ns: dur,
            sq_error: vec![cx_error / 10.0; coupling.num_qubits()],
            readout_error: vec![readout_error; coupling.num_qubits()],
        }
    }

    /// Generates a synthetic calibration with a realistic spread: CNOT errors
    /// in `0.6%–2.5%`, durations in `250–550 ns`, single-qubit errors a tenth
    /// of the CNOT error, readout errors in `1%–4%`. Deterministic for a
    /// given seed.
    pub fn synthetic(coupling: &CouplingMap, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cx = HashMap::new();
        let mut dur = HashMap::new();
        for &(a, b) in coupling.edges() {
            cx.insert((a, b), rng.gen_range(0.006..0.025));
            dur.insert((a, b), rng.gen_range(250.0..550.0));
        }
        let sq_error = (0..coupling.num_qubits())
            .map(|_| rng.gen_range(0.0002..0.001))
            .collect();
        let readout_error = (0..coupling.num_qubits())
            .map(|_| rng.gen_range(0.01..0.04))
            .collect();
        Self {
            num_qubits: coupling.num_qubits(),
            cx_error: cx,
            cx_duration_ns: dur,
            sq_error,
            readout_error,
        }
    }

    /// The number of qubits covered by this calibration.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The CNOT error rate of an edge (direction-insensitive). Returns `None`
    /// for non-edges.
    pub fn cx_error(&self, a: usize, b: usize) -> Option<f64> {
        let key = (a.min(b), a.max(b));
        self.cx_error.get(&key).copied()
    }

    /// The CNOT duration of an edge in nanoseconds.
    pub fn cx_duration_ns(&self, a: usize, b: usize) -> Option<f64> {
        let key = (a.min(b), a.max(b));
        self.cx_duration_ns.get(&key).copied()
    }

    /// The single-qubit gate error of a qubit.
    pub fn sq_error(&self, q: usize) -> f64 {
        self.sq_error[q]
    }

    /// The readout (measurement) error of a qubit.
    pub fn readout_error(&self, q: usize) -> f64 {
        self.readout_error[q]
    }
}

/// Eq. 3's `α1`, the weight of the CNOT error term (the paper's 0.5).
const ALPHA_ERROR: f64 = 0.5;

/// Eq. 3's `α2`, the weight of the SWAP-duration term (the paper's 0).
const ALPHA_TIME: f64 = 0.0;

/// Eq. 3's `α3`, the weight of the plain hop-distance term (the paper's 0.5).
const ALPHA_DISTANCE: f64 = 0.5;

/// Builds the noise-aware distance matrix of Eq. 3 with the paper's
/// `α = (0.5, 0, 0.5)`.
///
/// Edge weights are `α1·ε̂ + α2·T̂ + α3·1` where `ε̂`/`T̂` are the edge error
/// and duration normalised to `[0, 1]` over the device, and all-pairs
/// distances are shortest weighted paths (Dijkstra from every source). The
/// hop view of the returned matrix remains the plain BFS hop count so the
/// routers can still reason about adjacency.
pub fn noise_aware_distance(coupling: &CouplingMap, calibration: &Calibration) -> DistanceMatrix {
    let n = coupling.num_qubits();
    let base = coupling.distance_matrix();

    let max_err = coupling
        .edges()
        .iter()
        .filter_map(|&(a, b)| calibration.cx_error(a, b))
        .fold(0.0_f64, f64::max)
        .max(1e-12);
    let max_dur = coupling
        .edges()
        .iter()
        .filter_map(|&(a, b)| calibration.cx_duration_ns(a, b))
        .fold(0.0_f64, f64::max)
        .max(1e-12);

    let edge_weight = |a: usize, b: usize| -> f64 {
        let err = calibration.cx_error(a, b).unwrap_or(max_err) / max_err;
        let dur = calibration.cx_duration_ns(a, b).unwrap_or(max_dur) / max_dur;
        ALPHA_ERROR * err + ALPHA_TIME * dur + ALPHA_DISTANCE
    };

    // Dijkstra from every source over the weighted graph.
    let mut weights = vec![f64::INFINITY; n * n];
    for source in 0..n {
        let mut dist = vec![f64::INFINITY; n];
        let mut done = vec![false; n];
        dist[source] = 0.0;
        for _ in 0..n {
            let mut u = usize::MAX;
            let mut best = f64::INFINITY;
            for (q, &d) in dist.iter().enumerate() {
                if !done[q] && d < best {
                    best = d;
                    u = q;
                }
            }
            if u == usize::MAX {
                break;
            }
            done[u] = true;
            for &v in coupling.neighbors(u) {
                let cand = dist[u] + edge_weight(u, v);
                if cand < dist[v] {
                    dist[v] = cand;
                }
            }
        }
        for (q, &d) in dist.iter().enumerate() {
            weights[source * n + q] = d;
        }
    }

    base.with_weights(weights)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_calibration_is_deterministic_and_in_range() {
        let map = CouplingMap::ibmq_montreal();
        let a = Calibration::synthetic(&map, 7);
        let b = Calibration::synthetic(&map, 7);
        assert_eq!(a, b);
        for &(x, y) in map.edges() {
            let e = a.cx_error(x, y).unwrap();
            assert!((0.006..0.025).contains(&e));
            let d = a.cx_duration_ns(x, y).unwrap();
            assert!((250.0..550.0).contains(&d));
        }
        for q in 0..27 {
            assert!((0.01..0.04).contains(&a.readout_error(q)));
        }
    }

    #[test]
    fn non_edge_has_no_calibration() {
        let map = CouplingMap::linear(4);
        let cal = Calibration::uniform(&map, 0.01, 0.02);
        assert!(cal.cx_error(0, 3).is_none());
        assert!(cal.cx_error(0, 1).is_some());
        assert_eq!(cal.cx_error(1, 0), cal.cx_error(0, 1));
    }

    #[test]
    fn noise_aware_distance_reduces_to_scaled_hops_for_uniform_errors() {
        let map = CouplingMap::linear(5);
        let cal = Calibration::uniform(&map, 0.01, 0.02);
        let d = noise_aware_distance(&map, &cal);
        // Uniform errors: every edge weight is 0.5*1 + 0.5 = 1.0, so the
        // weighted distance equals the hop count.
        for i in 0..5 {
            for j in 0..5 {
                assert!((d.weight(i, j) - d.hops(i, j) as f64).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn noisy_edge_is_penalized() {
        // A triangle where the direct edge (0,2) is very noisy: the weighted
        // distance should still prefer it only if cheaper than the detour.
        let map = CouplingMap::new(3, &[(0, 1), (1, 2), (0, 2)]);
        let mut cal = Calibration::uniform(&map, 0.01, 0.02);
        cal.cx_error.insert((0, 2), 0.10);
        let d = noise_aware_distance(&map, &cal);
        // Direct edge weight: 0.5*1.0 + 0.5 = 1.0 (it is the max error).
        // Detour: 2 * (0.5*0.1 + 0.5) = 1.1. Direct edge still wins but the
        // penalty is visible relative to a clean edge.
        assert!(d.weight(0, 2) > d.weight(0, 1));
        assert!(d.weight(0, 2) <= 1.0 + 1e-9);
    }

    #[test]
    fn alphas_default_matches_paper() {
        // α = (0.5, 0, 0.5): an edge weighs half its normalised CNOT error
        // plus half a hop, whatever its duration.
        let map = CouplingMap::linear(3);
        let mut cal = Calibration::uniform(&map, 0.02, 0.02);
        cal.cx_error.insert((1, 2), 0.01);
        cal.cx_duration_ns.insert((1, 2), 900.0);
        let d = noise_aware_distance(&map, &cal);
        assert_eq!((d.weight(0, 1), d.weight(1, 2)), (1.0, 0.75));
    }
}
