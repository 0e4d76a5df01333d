//! Octree nodes and their packed 24-bit hardware encoding.
//!
//! §5.2: "The node information (24 bits) consists of occupancy information
//! of all octants and the addresses for children nodes corresponding to
//! partially occupied octants." We encode 8 octants × 2-bit occupancy
//! (16 bits) plus an 8-bit *child base address*: the children of the
//! partially occupied octants are stored contiguously starting at that
//! address, in octant order. This is exactly 24 bits per node and gives the
//! 0.75 KB SRAM budget quoted in §7.2.2 for a 256-node octree.

/// Occupancy state of one octant (2 bits in hardware).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Occupancy {
    /// No obstacle intersects this octant.
    #[default]
    Empty,
    /// Obstacles cover part of the octant; a child node refines it.
    Partial,
    /// The octant is entirely inside an obstacle (or is an occupied leaf).
    Full,
}

impl Occupancy {
    /// The 2-bit hardware encoding (00 empty, 01 partial, 10 full).
    pub fn to_bits(self) -> u8 {
        match self {
            Occupancy::Empty => 0b00,
            Occupancy::Partial => 0b01,
            Occupancy::Full => 0b10,
        }
    }

    /// Decodes the 2-bit encoding.
    ///
    /// # Errors
    ///
    /// Returns `Err` on the reserved pattern `0b11` or values above 3.
    pub fn from_bits(bits: u8) -> Result<Occupancy, DecodeNodeError> {
        match bits {
            0b00 => Ok(Occupancy::Empty),
            0b01 => Ok(Occupancy::Partial),
            0b10 => Ok(Occupancy::Full),
            other => Err(DecodeNodeError::ReservedOccupancy(other)),
        }
    }

    /// Whether this octant holds any obstacle volume.
    pub fn is_occupied(self) -> bool {
        !matches!(self, Occupancy::Empty)
    }
}

/// Error decoding a packed node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeNodeError {
    /// An octant used the reserved `0b11` occupancy pattern.
    ReservedOccupancy(u8),
}

impl core::fmt::Display for DecodeNodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DecodeNodeError::ReservedOccupancy(bits) => {
                write!(f, "reserved occupancy bit pattern {bits:#04b}")
            }
        }
    }
}

impl std::error::Error for DecodeNodeError {}

/// Error packing a node into the 24-bit format.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PackNodeError {
    /// The child base address does not fit in 8 bits (octree has more than
    /// 256 nodes — exceeds the accelerator's on-chip SRAM budget).
    ChildBaseTooLarge(u32),
}

impl core::fmt::Display for PackNodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PackNodeError::ChildBaseTooLarge(base) => {
                write!(
                    f,
                    "child base address {base} exceeds the 8-bit hardware limit"
                )
            }
        }
    }
}

impl std::error::Error for PackNodeError {}

/// One octree node: eight octant occupancies plus the base address where the
/// children of its partial octants are stored contiguously.
///
/// # Examples
///
/// ```
/// use mp_octree::node::{Node, Occupancy};
///
/// let mut n = Node::empty();
/// n.set_occupancy(3, Occupancy::Full);
/// assert_eq!(n.occupancy(3), Occupancy::Full);
/// assert_eq!(n.occupied_octants().count(), 1);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Node {
    occupancy: [Occupancy; 8],
    child_base: u32,
}

impl Node {
    /// A node with all octants empty.
    pub fn empty() -> Node {
        Node::default()
    }

    /// Creates a node from occupancies and the child base address.
    pub fn new(occupancy: [Occupancy; 8], child_base: u32) -> Node {
        Node {
            occupancy,
            child_base,
        }
    }

    /// Occupancy of octant `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i > 7`.
    pub fn occupancy(&self, i: usize) -> Occupancy {
        self.occupancy[i]
    }

    /// Sets the occupancy of octant `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i > 7`.
    pub fn set_occupancy(&mut self, i: usize, occ: Occupancy) {
        self.occupancy[i] = occ;
    }

    /// The base address of this node's children block.
    pub fn child_base(&self) -> u32 {
        self.child_base
    }

    /// Sets the child base address.
    pub fn set_child_base(&mut self, base: u32) {
        self.child_base = base;
    }

    /// Octant indices that hold any obstacle volume (partial or full).
    pub fn occupied_octants(&self) -> impl Iterator<Item = usize> + '_ {
        (0..8).filter(|&i| self.occupancy[i].is_occupied())
    }

    /// Octant indices that are partially occupied (have children).
    pub fn partial_octants(&self) -> impl Iterator<Item = usize> + '_ {
        (0..8).filter(|&i| self.occupancy[i] == Occupancy::Partial)
    }

    /// The child node address for partial octant `i`: children are stored
    /// contiguously from `child_base` in octant order, counting only partial
    /// octants. Returns `None` for non-partial octants.
    ///
    /// # Panics
    ///
    /// Panics if `i > 7`.
    pub fn child_address(&self, i: usize) -> Option<u32> {
        if self.occupancy[i] != Occupancy::Partial {
            return None;
        }
        let rank = self.occupancy[..i]
            .iter()
            .filter(|&&o| o == Occupancy::Partial)
            .count() as u32;
        Some(self.child_base + rank)
    }

    /// Packs into the 24-bit hardware word: bits 0..16 are the 8 × 2-bit
    /// occupancies (octant 0 in the low bits), bits 16..24 the child base.
    ///
    /// # Errors
    ///
    /// Fails if the child base exceeds 8 bits.
    pub fn pack(&self) -> Result<u32, PackNodeError> {
        if self.child_base > 0xFF {
            return Err(PackNodeError::ChildBaseTooLarge(self.child_base));
        }
        let mut word = 0u32;
        for (i, occ) in self.occupancy.iter().enumerate() {
            word |= (occ.to_bits() as u32) << (2 * i);
        }
        word |= self.child_base << 16;
        Ok(word)
    }

    /// Decodes a 24-bit hardware word.
    ///
    /// # Errors
    ///
    /// Fails on reserved occupancy bit patterns.
    pub fn unpack(word: u32) -> Result<Node, DecodeNodeError> {
        let mut occupancy = [Occupancy::Empty; 8];
        for (i, occ) in occupancy.iter_mut().enumerate() {
            *occ = Occupancy::from_bits(((word >> (2 * i)) & 0b11) as u8)?;
        }
        Ok(Node {
            occupancy,
            child_base: (word >> 16) & 0xFF,
        })
    }

    /// Size of one packed node in bits.
    pub const PACKED_BITS: u32 = 24;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_bits_roundtrip() {
        for occ in [Occupancy::Empty, Occupancy::Partial, Occupancy::Full] {
            assert_eq!(Occupancy::from_bits(occ.to_bits()), Ok(occ));
        }
        assert!(Occupancy::from_bits(0b11).is_err());
    }

    #[test]
    fn child_addresses_are_contiguous_by_rank() {
        let mut n = Node::empty();
        n.set_occupancy(1, Occupancy::Partial);
        n.set_occupancy(4, Occupancy::Full);
        n.set_occupancy(6, Occupancy::Partial);
        n.set_child_base(10);
        assert_eq!(n.child_address(1), Some(10));
        assert_eq!(n.child_address(6), Some(11));
        assert_eq!(n.child_address(4), None); // full, no child
        assert_eq!(n.child_address(0), None); // empty
    }

    #[test]
    fn occupied_vs_partial_iterators() {
        let mut n = Node::empty();
        n.set_occupancy(0, Occupancy::Full);
        n.set_occupancy(7, Occupancy::Partial);
        assert_eq!(n.occupied_octants().collect::<Vec<_>>(), vec![0, 7]);
        assert_eq!(n.partial_octants().collect::<Vec<_>>(), vec![7]);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let mut n = Node::empty();
        n.set_occupancy(2, Occupancy::Partial);
        n.set_occupancy(3, Occupancy::Full);
        n.set_occupancy(5, Occupancy::Partial);
        n.set_child_base(0xAB);
        let word = n.pack().unwrap();
        assert!(word < (1 << 24));
        assert_eq!(Node::unpack(word).unwrap(), n);
    }

    #[test]
    fn pack_rejects_wide_child_base() {
        let mut n = Node::empty();
        n.set_child_base(256);
        assert_eq!(n.pack(), Err(PackNodeError::ChildBaseTooLarge(256)));
    }

    #[test]
    fn unpack_rejects_reserved_pattern() {
        // Octant 0 = 0b11.
        assert!(Node::unpack(0b11).is_err());
    }

    #[test]
    fn packed_word_layout() {
        let mut n = Node::empty();
        n.set_occupancy(0, Occupancy::Partial); // 0b01 at bits 0-1
        n.set_occupancy(7, Occupancy::Full); // 0b10 at bits 14-15
        n.set_child_base(1);
        let w = n.pack().unwrap();
        assert_eq!(w & 0b11, 0b01);
        assert_eq!((w >> 14) & 0b11, 0b10);
        assert_eq!(w >> 16, 1);
    }
}
