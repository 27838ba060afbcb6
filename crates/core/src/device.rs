//! The first-class [`Device`] type: a named target a [`Transpiler`] session
//! is constructed for.
//!
//! A [`Device`] is a named coupling map: a stable name plus the
//! connectivity graph. It implements [`FromStr`] once, so every front end
//! (the `transpile_qasm` CLI, the `nassc-serve` daemon) shares a single
//! parser for `montreal` / `linear:<n>` / `grid:<r>x<c>` with a single error
//! message. Calibration data is not part of the device: it is set per
//! request, through
//! [`TranspileOptions::calibration`](crate::pipeline::TranspileOptions::calibration).
//!
//! [`Transpiler::new`] takes `impl Into<Device>`; [`From<CouplingMap>`] keeps
//! every existing `Transpiler::new(coupling, options)` call site compiling
//! unchanged.
//!
//! [`Transpiler`]: crate::session::Transpiler
//! [`Transpiler::new`]: crate::session::Transpiler::new

use std::fmt;
use std::str::FromStr;

use nassc_qasm::MAX_QUBITS;
use nassc_topology::CouplingMap;

/// A transpilation target: a named coupling map.
///
/// Constructors cover the devices of the paper's evaluation
/// ([`montreal`](Self::montreal), [`linear`](Self::linear),
/// [`grid`](Self::grid)); [`FromStr`] accepts the same specs every CLI flag
/// and daemon config uses (`montreal`, `linear:<n>`, `grid:<rows>x<cols>`),
/// up to the [`MAX_QUBITS`] a parsed source may declare.
///
/// # Example
///
/// ```
/// use nassc_core::Device;
///
/// let device: Device = "grid:3x4".parse().unwrap();
/// assert_eq!(device.name(), "grid:3x4");
/// assert_eq!(device.num_qubits(), 12);
/// assert!("grid:3".parse::<Device>().is_err());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Device {
    name: String,
    coupling: CouplingMap,
}

impl Device {
    /// A device with an explicit name and coupling map.
    pub fn new(name: impl Into<String>, coupling: CouplingMap) -> Self {
        Self {
            name: name.into(),
            coupling,
        }
    }

    /// The 27-qubit heavy-hex `ibmq_montreal` device of the paper's
    /// evaluation.
    pub fn montreal() -> Self {
        Self::new("montreal", CouplingMap::ibmq_montreal())
    }

    /// The 127-qubit IBM Eagle-class heavy-hex device
    /// ([`CouplingMap::heavy_hex`] at distance 7, the `ibm_washington`
    /// graph).
    pub fn eagle() -> Self {
        Self::new("eagle", CouplingMap::heavy_hex(7))
    }

    /// The 433-qubit IBM Osprey-class heavy-hex device
    /// ([`CouplingMap::heavy_hex`] at distance 13).
    pub fn osprey() -> Self {
        Self::new("osprey", CouplingMap::heavy_hex(13))
    }

    /// A heavy-hex lattice of code distance `d` (odd, `>= 3`).
    ///
    /// # Panics
    ///
    /// Panics when `d` is even or `< 3`. The [`FromStr`] path reports the
    /// same constraint as an error instead.
    pub fn heavy_hex(d: usize) -> Self {
        Self::new(format!("heavy-hex:{d}"), CouplingMap::heavy_hex(d))
    }

    /// A 1-D nearest-neighbour chain of `n` qubits (`n >= 2`).
    ///
    /// # Panics
    ///
    /// Panics when `n < 2` — a routing target needs at least one edge. The
    /// [`FromStr`] path reports the same constraint as an error instead.
    pub fn linear(n: usize) -> Self {
        assert!(n >= 2, "a linear device needs at least 2 qubits, got {n}");
        Self::new(format!("linear:{n}"), CouplingMap::linear(n))
    }

    /// A `rows × cols` 2-D grid (`rows * cols >= 2`).
    ///
    /// # Panics
    ///
    /// Panics when `rows * cols < 2` — a routing target needs at least one
    /// edge. The [`FromStr`] path reports the same constraint as an error
    /// instead.
    pub fn grid(rows: usize, cols: usize) -> Self {
        assert!(
            rows * cols >= 2,
            "a grid device needs at least 2 qubits, got {rows}x{cols}"
        );
        Self::new(format!("grid:{rows}x{cols}"), CouplingMap::grid(rows, cols))
    }

    /// The device's stable name (what the daemon's device registry and the
    /// `--device` flag key on).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The qubit-connectivity graph.
    pub fn coupling(&self) -> &CouplingMap {
        &self.coupling
    }

    /// The number of physical qubits.
    pub fn num_qubits(&self) -> usize {
        self.coupling.num_qubits()
    }
}

impl From<CouplingMap> for Device {
    /// An anonymous device around a bare coupling map — the compatibility
    /// path keeping `Transpiler::new(coupling, options)` call sites working.
    fn from(coupling: CouplingMap) -> Self {
        let name = format!("custom:{}q", coupling.num_qubits());
        Self::new(name, coupling)
    }
}

impl fmt::Display for Device {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} qubits)", self.name, self.num_qubits())
    }
}

/// The error of [`Device::from_str`]: one canonical message shared by every
/// front end that parses device specs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceParseError {
    spec: String,
}

impl DeviceParseError {
    /// The rejected spec string.
    pub fn spec(&self) -> &str {
        &self.spec
    }
}

impl fmt::Display for DeviceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid device {:?}: expected montreal, eagle, osprey, \
             heavy-hex:<d> (odd d >= 3), linear:<n> (n >= 2) \
             or grid:<rows>x<cols> (rows*cols >= 2), \
             of at most {MAX_QUBITS} qubits",
            self.spec
        )
    }
}

impl std::error::Error for DeviceParseError {}

impl FromStr for Device {
    type Err = DeviceParseError;

    /// Parses `montreal`, `eagle`, `osprey`, `heavy-hex:<d>` (odd `d >= 3`),
    /// `linear:<n>` (`n >= 2`) or `grid:<rows>x<cols>` (`rows * cols >= 2`).
    /// The size is checked before anything is built: a spec over
    /// [`MAX_QUBITS`] qubits is rejected, so a few characters cannot ask for
    /// a coupling map of billions of qubits.
    fn from_str(spec: &str) -> Result<Self, Self::Err> {
        let reject = || DeviceParseError {
            spec: spec.to_string(),
        };
        if spec == "montreal" {
            return Ok(Self::montreal());
        }
        if spec == "eagle" {
            return Ok(Self::eagle());
        }
        if spec == "osprey" {
            return Ok(Self::osprey());
        }
        if let Some(d) = spec.strip_prefix("heavy-hex:") {
            let d: usize = d.parse().map_err(|_| reject())?;
            if d < 3 || d.is_multiple_of(2) || heavy_hex_qubits(d) > MAX_QUBITS {
                return Err(reject());
            }
            return Ok(Self::heavy_hex(d));
        }
        if let Some(n) = spec.strip_prefix("linear:") {
            let n: usize = n.parse().map_err(|_| reject())?;
            if !(2..=MAX_QUBITS).contains(&n) {
                return Err(reject());
            }
            return Ok(Self::linear(n));
        }
        if let Some(dims) = spec.strip_prefix("grid:") {
            let (rows, cols) = dims.split_once('x').ok_or_else(reject)?;
            let rows: usize = rows.parse().map_err(|_| reject())?;
            let cols: usize = cols.parse().map_err(|_| reject())?;
            let qubits = rows.checked_mul(cols).ok_or_else(reject)?;
            if !(2..=MAX_QUBITS).contains(&qubits) {
                return Err(reject());
            }
            return Ok(Self::grid(rows, cols));
        }
        Err(reject())
    }
}

/// The qubit count of [`CouplingMap::heavy_hex`] at odd distance `d >= 3`:
/// `d` rows of `2d + 1` qubits less the two trimmed corners, plus `d - 1`
/// gaps of `(d + 1) / 2` rungs. Saturates instead of overflowing.
fn heavy_hex_qubits(d: usize) -> usize {
    let rows = d.saturating_mul(d.saturating_mul(2).saturating_add(1)) - 2;
    rows.saturating_add((d - 1).saturating_mul(d / 2 + 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_constructors_match_their_coupling_maps() {
        assert_eq!(*Device::montreal().coupling(), CouplingMap::ibmq_montreal());
        assert_eq!(*Device::linear(5).coupling(), CouplingMap::linear(5));
        assert_eq!(*Device::grid(3, 4).coupling(), CouplingMap::grid(3, 4));
        assert_eq!(Device::montreal().num_qubits(), 27);
        assert_eq!(Device::grid(3, 4).name(), "grid:3x4");
    }

    #[test]
    fn heavy_hex_constructors_match_their_coupling_maps() {
        assert_eq!(*Device::eagle().coupling(), CouplingMap::heavy_hex(7));
        assert_eq!(*Device::osprey().coupling(), CouplingMap::heavy_hex(13));
        assert_eq!(Device::eagle().num_qubits(), 127);
        assert_eq!(Device::osprey().num_qubits(), 433);
        assert_eq!(Device::heavy_hex(5).name(), "heavy-hex:5");
        assert_eq!(
            *Device::heavy_hex(7).coupling(),
            *Device::eagle().coupling()
        );
    }

    #[test]
    fn from_str_round_trips_every_named_spec() {
        for spec in [
            "montreal",
            "eagle",
            "osprey",
            "heavy-hex:3",
            "heavy-hex:7",
            "linear:2",
            "linear:25",
            "grid:5x5",
            "grid:1x2",
        ] {
            let device: Device = spec.parse().unwrap();
            assert_eq!(device.name(), spec);
            // The name re-parses to the same device.
            assert_eq!(device.name().parse::<Device>().unwrap(), device);
        }
    }

    #[test]
    fn from_str_rejects_malformed_specs_with_one_message() {
        for spec in [
            "",
            "Montreal",
            "linear",
            "linear:",
            "linear:1",
            "linear:x",
            "grid:",
            "grid:3",
            "grid:3x",
            "grid:0x1",
            "grid:ax b",
            "torus:3x3",
            "Eagle",
            "heavy-hex",
            "heavy-hex:",
            "heavy-hex:1",
            "heavy-hex:4",
            "heavy-hex:x",
        ] {
            let err = spec.parse::<Device>().unwrap_err();
            assert_eq!(err.spec(), spec);
            assert!(err.to_string().contains("expected montreal"), "{err}");
        }
    }

    #[test]
    fn from_str_bounds_the_device_size_before_building() {
        // The first grid's `rows * cols` wraps to 8,589,934,593 in a
        // release build; building it exhausted memory.
        for spec in [
            "grid:4294967297x4294967297",
            "grid:65x64",
            "linear:4097",
            "heavy-hex:41",
        ] {
            let err = spec.parse::<Device>().unwrap_err();
            assert!(err.to_string().contains("of at most 4096 qubits"), "{err}");
        }
        for (spec, qubits) in [
            ("grid:64x64", 4096),
            ("linear:4096", 4096),
            ("heavy-hex:39", 3839),
        ] {
            assert_eq!(spec.parse::<Device>().unwrap().num_qubits(), qubits);
        }
    }

    #[test]
    fn heavy_hex_qubit_count_matches_the_built_map() {
        for d in (3..=15).step_by(2) {
            assert_eq!(heavy_hex_qubits(d), CouplingMap::heavy_hex(d).num_qubits());
        }
        assert_eq!(heavy_hex_qubits(41), 4241);
        assert_eq!(heavy_hex_qubits(usize::MAX), usize::MAX);
    }

    #[test]
    fn coupling_map_converts_to_anonymous_device() {
        let device: Device = CouplingMap::linear(7).into();
        assert_eq!(device.name(), "custom:7q");
        assert_eq!(device.num_qubits(), 7);
    }
}
