//! Flattened, cache-ordered octree arena.
//!
//! [`crate::Octree`] stores BFS-ordered nodes whose octant AABBs would have
//! to be *recomputed* on every traversal (and, on the OOCD hardware-model
//! path, re-*quantized* on every visit). The [`FlatOctree`] mirror
//! precomputes everything a traversal touches into linear arrays:
//!
//! * per node, the contiguous **entry range** of its occupied octants —
//!   a traversal step yields a candidate *range*, not a candidate node;
//! * per entry, the octant id, the child address (partials only; a full
//!   entry has none), and the octant AABB in structure-of-arrays form
//!   ([`AabbSoa`]), whose six coordinate lanes the collision walks feed to
//!   `mp_geometry::soa::HoistedCascade`;
//! * two AABB chains, because the two consumers derive boxes differently:
//!   the **pure `f32` chain** (each child box is an exact eighth of its
//!   parent — what `Octree::collides_with` would compute on the fly) and
//!   the **OOCD chain**, where the hardware model re-quantizes each level's
//!   box to Q3.12 and children subdivide it widened back to `f32`. Both are
//!   bit-identical to what the corresponding on-the-fly traversal produces.
//!
//! The entries and the `f32` chain are emitted during the build, not
//! derived from the finished tree: the octree builder's one breadth-first
//! loop classifies a node's eight octants at once and, in the same step,
//! appends each occupied octant as an entry with its box, giving a partial
//! one the next node address and its node box (`Octree::pruned` replays a
//! tree through the same loop). Nodes are numbered in creation order, so
//! every array only grows at its end, and the arena stays a pure function
//! of the node array and root box.
//!
//! Only the OOCD hardware model reads the Q3.12 chain, so the build leaves
//! it out: the first [`FlatOctree::aabbs_oocd`] or
//! [`FlatOctree::node_aabb_oocd`] call derives it in one pass over the
//! entries in address order (a node's box is always derived before its
//! children's) and caches it in the arena, which every clone of the tree
//! shares. A map-then-plan loop on the `f32` checker never pays for it.
//!
//! The builder classifies each node against only the obstacles its
//! ancestors kept. An octant drops an obstacle when it misses the
//! obstacle's culling box: the obstacle grown by one Q3.12 step times the
//! largest coordinate magnitude in play. The f32 rounding between exact
//! geometry and any descendant's computed box and overlap test stays under
//! 2^-19 of that magnitude, so a dropped obstacle touches no descendant:
//! culling changes no occupancy, and so no entry or box of the arena.
//!
//! **Parked buffers.** A map-then-plan loop builds and drops a tree per
//! query. When the last handle to an arena drops, its growing arrays are
//! cleared, their capacity kept, and parked in one thread-local slot; the
//! next arena built on that thread starts from them, and a later drop
//! replaces (and frees) what is parked. Growing fresh arrays on every
//! build instead let the allocator return the freed tree's pages to the
//! system and fault them back in on the next build. The parked struct has
//! no `Drop` impl of its own, and a thread that is exiting parks nothing.
//! The OOCD chain is not parked; it is freed with its arena.

use std::cell::Cell;
use std::mem;
use std::sync::OnceLock;

use mp_fixed::Fx;
use mp_geometry::soa::AabbSoa;
use mp_geometry::AabbF;

use crate::octree::Octree;

/// Child-address sentinel for fully occupied entries (no child node).
pub const NO_CHILD: u32 = u32::MAX;

/// The flattened arena (see the module docs).
#[derive(Clone, Debug, Default)]
pub struct FlatOctree {
    /// `entry_start[n]..entry_start[n + 1]` indexes node `n`'s entries.
    entry_start: Vec<u32>,
    /// Octant id (0–7) of each entry, ascending within a node.
    octants: Vec<u8>,
    /// Child node address of partial entries; [`NO_CHILD`] for full ones.
    children: Vec<u32>,
    /// Octant AABBs, pure `f32` chain, SoA layout.
    aabbs: AabbSoa<f32>,
    /// Per-node box, pure chain (what the entry boxes subdivide).
    node_aabbs: Vec<AabbF>,
    /// The OOCD chain, derived on first use (see the module docs).
    oocd: OnceLock<OocdChain>,
}

/// The OOCD quantize-roundtrip chain of a [`FlatOctree`].
#[derive(Clone, Debug)]
struct OocdChain {
    /// Octant AABBs in Q3.12, SoA layout (the boxes the Intersection Unit
    /// is fed).
    aabbs: AabbSoa<Fx>,
    /// Per-node box: the parent, round-tripped through Q3.12, that the
    /// hardware model subdivides at this node.
    node_aabbs: Vec<AabbF>,
}

/// Equal when the node structure and the `f32` chain are; the OOCD chain is
/// a function of both, so whether either side has derived it yet does not
/// matter.
impl PartialEq for FlatOctree {
    fn eq(&self, other: &FlatOctree) -> bool {
        self.entry_start == other.entry_start
            && self.octants == other.octants
            && self.children == other.children
            && self.aabbs == other.aabbs
            && self.node_aabbs == other.node_aabbs
    }
}

thread_local! {
    // The buffers of the last arena dropped on this thread, cleared with
    // their capacity kept, for the next one built here (see the module
    // docs).
    static PARKED: Cell<ArenaBuffers> = Cell::new(ArenaBuffers::default());
}

/// A [`FlatOctree`]'s growing arrays, parked between trees. It has no
/// `Drop` impl of its own, so a slot that is freed at thread exit parks
/// nothing again.
#[derive(Default)]
struct ArenaBuffers {
    entry_start: Vec<u32>,
    octants: Vec<u8>,
    children: Vec<u32>,
    aabbs: AabbSoa<f32>,
    node_aabbs: Vec<AabbF>,
}

/// Parks the arena's buffers for the next `FlatOctree::new` on this
/// thread, replacing (and freeing) any parked before; on a thread that is
/// exiting it frees them.
impl Drop for FlatOctree {
    fn drop(&mut self) {
        let mut parked = ArenaBuffers {
            entry_start: mem::take(&mut self.entry_start),
            octants: mem::take(&mut self.octants),
            children: mem::take(&mut self.children),
            aabbs: mem::take(&mut self.aabbs),
            node_aabbs: mem::take(&mut self.node_aabbs),
        };
        parked.entry_start.clear();
        parked.octants.clear();
        parked.children.clear();
        parked.aabbs.clear();
        parked.node_aabbs.clear();
        let _ = PARKED.try_with(|slot| slot.set(parked));
    }
}

impl FlatOctree {
    /// An arena holding only the root node's box, in the buffers parked on
    /// this thread if there are any. The octree builder appends nodes with
    /// [`FlatOctree::open_node`] and [`FlatOctree::push_entry`] and seals
    /// it with [`FlatOctree::close`].
    pub(crate) fn new(root: AabbF) -> FlatOctree {
        let mut b = PARKED.try_with(Cell::take).unwrap_or_default();
        b.node_aabbs.push(root);
        FlatOctree {
            entry_start: b.entry_start,
            octants: b.octants,
            children: b.children,
            aabbs: b.aabbs,
            node_aabbs: b.node_aabbs,
            oocd: OnceLock::new(),
        }
    }

    /// How many nodes the arena has room for before it grows.
    pub(crate) fn node_capacity(&self) -> usize {
        self.node_aabbs.capacity()
    }

    /// Starts the next node's entry range.
    #[inline]
    pub(crate) fn open_node(&mut self) {
        self.entry_start.push(self.octants.len() as u32);
    }

    /// Appends an occupied octant of the open node with its `f32` box.
    /// `child` is the address of the node refining a partial octant (`None`
    /// for a full one); it must be the next unused address, whose node box
    /// this records. The OOCD chain is not built here (see the module docs).
    #[inline]
    pub(crate) fn push_entry(&mut self, octant: usize, aabb: &AabbF, child: Option<u32>) {
        self.octants.push(octant as u8);
        self.children.push(child.unwrap_or(NO_CHILD));
        self.aabbs.push(aabb);
        if let Some(child) = child {
            debug_assert_eq!(child as usize, self.node_aabbs.len());
            self.node_aabbs.push(*aabb);
        }
    }

    /// Ends the last node's entry range.
    ///
    /// Spare capacity from growth is kept on purpose: the buffers are
    /// parked when the tree is dropped, and the next tree built on the
    /// thread grows into them.
    pub(crate) fn close(&mut self) {
        self.entry_start.push(self.octants.len() as u32);
    }

    /// The OOCD chain, derived on the first call in one pass over the
    /// nodes in address order: each octant of a node's box is quantized,
    /// and a partial entry's box, widened back to `f32`, becomes its child's
    /// node box. A child's address is above its parent's, so every node's
    /// box is known before its entries are visited.
    fn oocd(&self) -> &OocdChain {
        self.oocd.get_or_init(|| {
            let mut chain = OocdChain {
                aabbs: AabbSoa::with_capacity(self.entry_count()),
                node_aabbs: Vec::with_capacity(self.node_aabbs.len()),
            };
            chain.node_aabbs.extend(self.node_aabbs.first());
            for addr in 0..self.entry_start.len().saturating_sub(1) {
                let parent = chain.node_aabbs[addr];
                for e in self.entries(addr as u32) {
                    let oct = Octree::octant_aabb(&parent, self.octant(e) as usize).quantize();
                    chain.aabbs.push(&oct);
                    if !self.is_full(e) {
                        debug_assert_eq!(self.child(e) as usize, chain.node_aabbs.len());
                        chain.node_aabbs.push(oct.to_f32());
                    }
                }
            }
            chain
        })
    }

    /// Total entries (occupied octants) in the arena.
    #[inline]
    pub fn entry_count(&self) -> usize {
        self.octants.len()
    }

    /// The entry range of node `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    #[inline]
    pub fn entries(&self, addr: u32) -> core::ops::Range<usize> {
        let a = addr as usize;
        self.entry_start[a] as usize..self.entry_start[a + 1] as usize
    }

    /// The octant id (0–7) of entry `e`.
    #[inline]
    pub fn octant(&self, e: usize) -> u8 {
        self.octants[e]
    }

    /// Whether entry `e` is fully occupied (else partially): a full entry
    /// has no child node.
    #[inline]
    pub fn is_full(&self, e: usize) -> bool {
        self.children[e] == NO_CHILD
    }

    /// The child node address of a partial entry ([`NO_CHILD`] for full).
    #[inline]
    pub fn child(&self, e: usize) -> u32 {
        self.children[e]
    }

    /// All entry AABBs of the pure `f32` chain, in SoA layout.
    #[inline]
    pub fn aabbs(&self) -> &AabbSoa<f32> {
        &self.aabbs
    }

    /// All entry AABBs of the OOCD quantize-roundtrip chain, in SoA layout
    /// (derived on the first OOCD call, see the module docs).
    #[inline]
    pub fn aabbs_oocd(&self) -> &AabbSoa<Fx> {
        &self.oocd().aabbs
    }

    /// Entry `e`'s box of the pure chain, reconstructed (bit-identical to
    /// what `Octree::octant_aabb` produces along the same path).
    #[inline]
    pub fn aabb(&self, e: usize) -> AabbF {
        self.aabbs.get(e)
    }

    /// Node `addr`'s box of the pure chain.
    #[inline]
    pub fn node_aabb(&self, addr: u32) -> AabbF {
        self.node_aabbs[addr as usize]
    }

    /// Node `addr`'s Q3.12-round-tripped parent box of the OOCD chain — what a
    /// decode of the node's packed word subdivides into its octant boxes
    /// (derived on the first OOCD call, see the module docs).
    #[inline]
    pub fn node_aabb_oocd(&self, addr: u32) -> AabbF {
        self.oocd().node_aabbs[addr as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Occupancy;
    use mp_geometry::{Aabb, Vec3};

    fn sample_tree() -> Octree {
        let obs = [
            Aabb::new(Vec3::new(0.5, 0.5, 0.5), Vec3::splat(0.08)),
            Aabb::new(Vec3::new(-0.4, 0.1, -0.2), Vec3::splat(0.11)),
        ];
        Octree::build(&obs, 4)
    }

    #[test]
    fn entries_mirror_nodes_exactly() {
        let t = sample_tree();
        let flat = t.flat();
        assert_eq!(flat.entry_start.len(), t.node_count() + 1);
        for addr in 0..t.node_count() as u32 {
            let node = t.node(addr);
            let range = flat.entries(addr);
            let occupied: Vec<usize> = (0..8)
                .filter(|&o| node.occupancy(o).is_occupied())
                .collect();
            assert_eq!(range.len(), occupied.len());
            for (e, &octant) in range.clone().zip(occupied.iter()) {
                assert_eq!(flat.octant(e) as usize, octant);
                assert_eq!(flat.is_full(e), node.occupancy(octant) == Occupancy::Full);
                if flat.is_full(e) {
                    assert_eq!(flat.child(e), NO_CHILD);
                } else {
                    assert_eq!(Some(flat.child(e)), node.child_address(octant));
                }
            }
        }
    }

    #[test]
    fn pure_chain_matches_on_the_fly_subdivision() {
        let t = sample_tree();
        let flat = t.flat();
        // Walk like collides_with does and compare boxes bit-for-bit.
        let mut stack = vec![(0u32, t.root_aabb())];
        while let Some((addr, parent)) = stack.pop() {
            assert_eq!(flat.node_aabb(addr), parent);
            for e in flat.entries(addr) {
                let want = Octree::octant_aabb(&parent, flat.octant(e) as usize);
                assert_eq!(flat.aabb(e), want, "entry {e}");
                if !flat.is_full(e) {
                    stack.push((flat.child(e), want));
                }
            }
        }
    }

    #[test]
    fn oocd_chain_matches_quantize_roundtrip_subdivision() {
        let t = sample_tree();
        let flat = t.flat();
        // Walk like run_oocd does: quantize each level, subdivide the box
        // widened back to f32.
        let mut stack = vec![(0u32, t.root_aabb())];
        let mut visited = 0;
        while let Some((addr, parent)) = stack.pop() {
            visited += 1;
            assert_eq!(bits(&flat.node_aabb_oocd(addr)), bits(&parent));
            for e in flat.entries(addr) {
                let want = Octree::octant_aabb(&parent, flat.octant(e) as usize).quantize();
                let lanes = flat.aabbs_oocd().coord_lanes().map(|lane| lane[e]);
                let [c, h] = [want.center, want.half];
                assert_eq!(lanes, [c.x, c.y, c.z, h.x, h.y, h.z], "entry {e}");
                if !flat.is_full(e) {
                    stack.push((flat.child(e), want.to_f32()));
                }
            }
        }
        assert_eq!(visited, t.node_count());
        assert_eq!(flat.aabbs_oocd().len(), flat.entry_count());
    }

    /// A box's six coordinates as bit patterns, so that `-0.0 != 0.0`.
    fn bits(b: &AabbF) -> [u32; 6] {
        [
            b.center.x, b.center.y, b.center.z, b.half.x, b.half.y, b.half.z,
        ]
        .map(f32::to_bits)
    }

    #[test]
    fn equality_ignores_whether_the_oocd_chain_is_derived() {
        let (a, b) = (sample_tree(), sample_tree());
        assert!(a.flat().oocd.get().is_none(), "the build leaves it out");
        assert_eq!(a.flat(), b.flat());
        let _ = a.flat().aabbs_oocd();
        assert!(a.flat().oocd.get().is_some());
        assert!(b.flat().oocd.get().is_none());
        assert_eq!(a.flat(), b.flat());
    }

    #[test]
    fn empty_tree_has_no_entries() {
        let t = Octree::build(&[], 3);
        let flat = t.flat();
        assert_eq!(flat.entry_count(), 0);
        assert_eq!(flat.entries(0), 0..0);
        assert!(flat.aabbs_oocd().is_empty());
        assert_eq!(bits(&flat.node_aabb_oocd(0)), bits(&t.root_aabb()));
    }
}
