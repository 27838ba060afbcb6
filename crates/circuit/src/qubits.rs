//! Compact qubit-index storage for instructions.
//!
//! Every fixed-arity gate in the IR touches at most three qubits (the
//! 3-qubit `ccx`/`cswap` are the widest), so instruction qubit lists live
//! inline as `[u32; 3]` with no heap allocation; only barriers and other
//! variable-arity operations spill to a boxed slice. At 24 bytes the list is
//! the same size as the `Vec<usize>` it replaced, but a `QuantumCircuit` of
//! named gates is now one contiguous buffer — pushing a gate (including every
//! SWAP the router inserts) allocates nothing.

/// Inline capacity: covers every fixed-arity gate in the IR.
const INLINE: usize = 3;

#[derive(Clone)]
enum Repr {
    Inline { len: u8, qs: [u32; INLINE] },
    Spill(Box<[u32]>),
}

/// The qubit indices an instruction acts on, in gate-specific order.
///
/// Indices are stored as `u32` (4 billion qubits is beyond any device this
/// pipeline will meet) and surfaced as `usize` everywhere. Lists of up to
/// three qubits are stored inline without heap allocation.
///
/// # Example
///
/// ```
/// use nassc_circuit::QubitList;
///
/// let qs: QubitList = [2usize, 5].into();
/// assert_eq!(qs.len(), 2);
/// assert_eq!(qs.get(1), 5);
/// assert_eq!(qs.to_vec(), vec![2, 5]);
/// ```
#[derive(Clone)]
pub struct QubitList(Repr);

impl QubitList {
    fn to_u32(q: usize) -> u32 {
        u32::try_from(q).expect("qubit index exceeds u32 range")
    }

    /// Builds a list from a slice of qubit indices.
    ///
    /// # Panics
    ///
    /// Panics when an index does not fit in `u32`.
    pub fn from_slice(qubits: &[usize]) -> Self {
        if qubits.len() <= INLINE {
            let mut qs = [0u32; INLINE];
            for (slot, &q) in qs.iter_mut().zip(qubits) {
                *slot = Self::to_u32(q);
            }
            Self(Repr::Inline {
                len: qubits.len() as u8,
                qs,
            })
        } else {
            Self(Repr::Spill(
                qubits.iter().map(|&q| Self::to_u32(q)).collect(),
            ))
        }
    }

    /// The raw `u32` index slice (the storage representation).
    pub fn as_u32(&self) -> &[u32] {
        match &self.0 {
            Repr::Inline { len, qs } => &qs[..*len as usize],
            Repr::Spill(qs) => qs,
        }
    }

    /// The number of qubits in the list.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Spill(qs) => qs.len(),
        }
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The qubit at position `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i >= len()`.
    pub fn get(&self, i: usize) -> usize {
        self.as_u32()[i] as usize
    }

    /// Iterates the qubit indices as `usize` values.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = usize> + ExactSizeIterator + '_ {
        self.as_u32().iter().map(|&q| q as usize)
    }

    /// Whether the list contains the given qubit.
    pub fn contains(&self, qubit: usize) -> bool {
        u32::try_from(qubit).is_ok_and(|q| self.as_u32().contains(&q))
    }

    /// The first qubit the list holds twice, if any. Lists wider than the
    /// inline capacity (only barriers) are checked on a sorted copy: a
    /// 4096-wide barrier would otherwise cost 8M pairwise comparisons.
    pub fn duplicate(&self) -> Option<usize> {
        let qs = self.as_u32();
        let found = if qs.len() <= INLINE {
            (0..qs.len())
                .find(|&i| qs[i + 1..].contains(&qs[i]))
                .map(|i| qs[i])
        } else {
            let mut sorted = qs.to_vec();
            sorted.sort_unstable();
            sorted
                .windows(2)
                .find(|pair| pair[0] == pair[1])
                .map(|pair| pair[0])
        };
        found.map(|q| q as usize)
    }

    /// The list as a freshly allocated `Vec<usize>`.
    pub fn to_vec(&self) -> Vec<usize> {
        self.iter().collect()
    }

    /// The list with every qubit remapped through `f` (allocation-free for
    /// inline lists).
    pub fn map(&self, f: impl Fn(usize) -> usize) -> Self {
        match &self.0 {
            Repr::Inline { len, qs } => {
                let mut mapped = [0u32; INLINE];
                for (slot, &q) in mapped.iter_mut().zip(&qs[..*len as usize]) {
                    *slot = Self::to_u32(f(q as usize));
                }
                Self(Repr::Inline {
                    len: *len,
                    qs: mapped,
                })
            }
            Repr::Spill(qs) => Self(Repr::Spill(
                qs.iter().map(|&q| Self::to_u32(f(q as usize))).collect(),
            )),
        }
    }
}

impl PartialEq for QubitList {
    fn eq(&self, other: &Self) -> bool {
        self.as_u32() == other.as_u32()
    }
}

impl Eq for QubitList {}

impl std::fmt::Debug for QubitList {
    /// Formats exactly like the `Vec<usize>` this type replaced, keeping
    /// `Display for Instruction` (and the lossy QASM comment path) stable.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_u32().iter()).finish()
    }
}

impl From<Vec<usize>> for QubitList {
    fn from(qubits: Vec<usize>) -> Self {
        Self::from_slice(&qubits)
    }
}

impl From<&[usize]> for QubitList {
    fn from(qubits: &[usize]) -> Self {
        Self::from_slice(qubits)
    }
}

impl<const N: usize> From<[usize; N]> for QubitList {
    fn from(qubits: [usize; N]) -> Self {
        Self::from_slice(&qubits)
    }
}

impl<'a> IntoIterator for &'a QubitList {
    type Item = usize;
    type IntoIter = std::iter::Map<std::slice::Iter<'a, u32>, fn(&u32) -> usize>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_u32().iter().map(|&q| q as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_up_to_three_qubits() {
        for n in 0..=3usize {
            let qubits: Vec<usize> = (10..10 + n).collect();
            let list = QubitList::from_slice(&qubits);
            assert!(matches!(list.0, Repr::Inline { .. }), "{n} qubits");
            assert_eq!(list.to_vec(), qubits);
            assert_eq!(list.len(), n);
        }
    }

    #[test]
    fn spills_beyond_three_qubits() {
        let qubits: Vec<usize> = (0..7).collect();
        let list = QubitList::from_slice(&qubits);
        assert!(matches!(list.0, Repr::Spill(_)));
        assert_eq!(list.to_vec(), qubits);
    }

    #[test]
    fn equality_and_debug_match_the_vec_representation() {
        let a: QubitList = vec![4usize, 9].into();
        let b: QubitList = [4usize, 9].into();
        assert_eq!(a, b);
        assert_ne!(a, [9usize, 4].into());
        assert_eq!(format!("{a:?}"), format!("{:?}", vec![4usize, 9]));
    }

    #[test]
    fn map_and_contains() {
        let list: QubitList = [1usize, 2, 3].into();
        assert!(list.contains(2));
        assert!(!list.contains(7));
        assert_eq!(list.map(|q| q * 10).to_vec(), vec![10, 20, 30]);
        let wide: QubitList = (0..5).collect::<Vec<_>>().into();
        assert_eq!(wide.map(|q| q + 1).to_vec(), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn stays_pointer_sized() {
        // The whole point: no bigger than the Vec<usize> it replaced.
        assert!(std::mem::size_of::<QubitList>() <= std::mem::size_of::<Vec<usize>>());
    }

    #[test]
    #[should_panic(expected = "exceeds u32 range")]
    fn rejects_indices_beyond_u32() {
        if usize::BITS <= 32 {
            // Cannot construct the offending index on 32-bit targets.
            panic!("qubit index exceeds u32 range");
        }
        let _ = QubitList::from_slice(&[u32::MAX as usize + 1]);
    }
}
