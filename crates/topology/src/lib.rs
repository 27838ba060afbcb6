//! Hardware-topology models for the NASSC reproduction.
//!
//! Provides the device-side abstractions the routers consume:
//!
//! * [`CouplingMap`] — qubit connectivity graphs, including the paper's three
//!   evaluation topologies (`ibmq_montreal` heavy-hex, linear chain, 2-D
//!   grid) plus fully connected devices,
//! * [`DistanceMatrix`] — all-pairs hop counts and weighted distances,
//! * [`Calibration`] and [`noise_aware_distance`] — synthetic calibration
//!   data and the noise-aware distance of Eq. 3 (the HA variants),
//! * [`Layout`] — the logical↔physical qubit mapping mutated by routing.
//!
//! # Example
//!
//! ```
//! use nassc_topology::{CouplingMap, Layout};
//!
//! let device = CouplingMap::ibmq_montreal();
//! let distances = device.distance_matrix();
//! assert_eq!(distances.hops(0, 1), 1);
//!
//! let mut layout = Layout::trivial(device.num_qubits());
//! layout.swap_physical(0, 1);
//! assert_eq!(layout.logical_of(0), 1);
//! ```

pub mod calibration;
pub mod coupling;
pub mod distance;
pub mod layout;

pub use calibration::{noise_aware_distance, Calibration};
pub use coupling::CouplingMap;
pub use distance::DistanceMatrix;
pub use layout::Layout;
