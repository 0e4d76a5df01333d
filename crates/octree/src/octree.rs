//! Octree construction and traversal.

use std::cell::Cell;
use std::sync::Arc;

use mp_fixed::RESOLUTION;
use mp_geometry::{AabbF, Vec3};

use crate::flat::{FlatOctree, NO_CHILD};
use crate::node::{Node, Occupancy, PackNodeError};

thread_local! {
    // Reusable depth-first traversal stack. Collision queries run millions
    // of times per benchmark; taking the buffer out of the cell (and
    // putting it back after the walk) keeps the hot path allocation-free
    // while staying safe under reentrancy — a nested query simply finds an
    // empty cell and allocates its own stack. Octant boxes come from the
    // flat arena now, so the stack holds bare node addresses.
    static TRAVERSAL_STACK: Cell<Vec<u32>> = const { Cell::new(Vec::new()) };
    // The builder's scratch, taken and put back the same way: a
    // map-then-plan loop builds a tree per query.
    static BUILD_SCRATCH: Cell<BuildScratch> = Cell::new(BuildScratch::default());
}

/// Octant masks of the low and high half along each axis: octant `i`'s
/// bit is set when bit `axis` of `i` is clear (low) or set (high).
const LOW_HALF: [u8; 3] = [0x55, 0x33, 0x0F];
const HIGH_HALF: [u8; 3] = [0xAA, 0xCC, 0xF0];

/// What [`Octree::try_build_in`] rejects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OctreeError {
    /// The depth limit is 0 or above [`MAX_SUPPORTED_DEPTH`].
    Depth(u32),
    /// The root box has a NaN or infinite coordinate or a negative half
    /// extent.
    Root,
    /// The obstacle at this index has a NaN or infinite centre or half
    /// extent coordinate.
    NonFiniteObstacle(usize),
    /// The obstacle at this index has a negative half extent.
    NegativeHalfExtent(usize),
}

impl std::fmt::Display for OctreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            OctreeError::Depth(depth) => write!(
                f,
                "max_depth must be in 1..={MAX_SUPPORTED_DEPTH}, got {depth}"
            ),
            OctreeError::Root => {
                write!(
                    f,
                    "the root box has a non-finite coordinate or a negative half extent"
                )
            }
            OctreeError::NonFiniteObstacle(i) => {
                write!(f, "obstacle {i} has a non-finite centre or half extent")
            }
            OctreeError::NegativeHalfExtent(i) => {
                write!(f, "obstacle {i} has a negative half extent")
            }
        }
    }
}

impl std::error::Error for OctreeError {}

/// The builder's reusable buffers (see `BUILD_SCRATCH`).
#[derive(Default)]
struct BuildScratch {
    /// Candidate obstacle indices; a pending node's candidates are a range
    /// of it.
    pool: Vec<u32>,
    /// Pending nodes in address order: candidate range and depth.
    queue: Vec<((u32, u32), u32)>,
    /// The culling mask of each candidate of the node being classified.
    masks: Vec<u8>,
    /// Per obstacle and axis: centre, half extent, culling half extent.
    axes: Vec<[[f32; 3]; 3]>,
}

/// Maximum tree depth the builder accepts (leaf size = extent / 2^depth).
pub const MAX_SUPPORTED_DEPTH: u32 = 10;

/// Statistics from one traversal of the octree.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraversalStats {
    /// Nodes fetched (≙ SRAM reads in the OOCD).
    pub nodes_visited: u32,
    /// Primitive intersection tests performed against octant AABBs.
    pub tests_performed: u32,
}

/// An octree over the environment, built from cuboid obstacles.
///
/// The environment is the axis-aligned cube the tree was built in (the
/// normalized workspace `[-1, 1]³` by default). Nodes are stored in BFS
/// order so that each node's children occupy a contiguous block, matching
/// the hardware's 8-bit child-base addressing (§5.2).
///
/// # Examples
///
/// ```
/// use mp_geometry::{Aabb, Vec3};
/// use mp_octree::Octree;
///
/// let obstacle = Aabb::new(Vec3::new(0.5, 0.5, 0.5), Vec3::splat(0.1));
/// let tree = Octree::build(&[obstacle], 4);
/// assert!(tree.contains_point(Vec3::new(0.5, 0.5, 0.5)));
/// assert!(!tree.contains_point(Vec3::new(-0.5, -0.5, -0.5)));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Octree {
    nodes: Vec<Node>,
    root: AabbF,
    max_depth: u32,
    // Deterministic function of (nodes, root), so the derived Clone and
    // PartialEq stay consistent: its entries and f32 chain are emitted in
    // the same pass as the nodes, its Q3.12 OOCD chain is derived on first
    // OOCD use. Behind an Arc because trees are cloned per checker
    // throughout the benchmarks, the arena is by far the largest part of
    // the struct, and every clone then shares the one derived OOCD chain.
    flat: Arc<FlatOctree>,
}

impl Octree {
    /// Builds an octree over the normalized workspace `[-1, 1]³`.
    ///
    /// # Panics
    ///
    /// Panics with the message of the [`OctreeError`] that
    /// [`Octree::try_build_in`] returns.
    pub fn build(obstacles: &[AabbF], max_depth: u32) -> Octree {
        Octree::build_in(
            AabbF::new(Vec3::zero(), Vec3::splat(1.0)),
            obstacles,
            max_depth,
        )
    }

    /// [`Octree::try_build_in`], panicking on its error.
    ///
    /// # Panics
    ///
    /// Panics with the message of the [`OctreeError`] that
    /// [`Octree::try_build_in`] returns.
    pub fn build_in(root: AabbF, obstacles: &[AabbF], max_depth: u32) -> Octree {
        Octree::try_build_in(root, obstacles, max_depth).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds an octree over an arbitrary root cube.
    ///
    /// Partially occupied octants at the maximum depth are conservatively
    /// marked fully occupied (leaf quantization), so the tree *over*-covers
    /// the true obstacle set — collision detection against it can produce
    /// false positives but never false negatives.
    ///
    /// An octant is full when some obstacle contains it, partial when some
    /// obstacle overlaps it, and empty otherwise. Each node is classified
    /// only against the obstacles that survived culling at its ancestors,
    /// which gives exactly the occupancies a scan over every obstacle would.
    /// A node's eight octants are classified together: along each axis its
    /// four low and four high octants share one centre coordinate and one
    /// half extent, so each candidate obstacle takes the culling,
    /// containment and overlap comparison once per axis and half, and the
    /// results combine into one bit per octant.
    ///
    /// # Errors
    ///
    /// [`OctreeError::Depth`] if `max_depth` is 0 or exceeds
    /// [`MAX_SUPPORTED_DEPTH`]; [`OctreeError::Root`] if the root box has a
    /// NaN or infinite coordinate or a negative half extent (a NaN root
    /// maps nothing); [`OctreeError::NonFiniteObstacle`] or
    /// [`OctreeError::NegativeHalfExtent`], naming the first such
    /// obstacle, if a coordinate of one is NaN or infinite or a half
    /// extent is negative. Such an obstacle compares false against every
    /// octant, or misses its own centre, so it would drop out of the map.
    pub fn try_build_in(
        root: AabbF,
        obstacles: &[AabbF],
        max_depth: u32,
    ) -> Result<Octree, OctreeError> {
        if !(1..=MAX_SUPPORTED_DEPTH).contains(&max_depth) {
            return Err(OctreeError::Depth(max_depth));
        }
        let finite = |b: &AabbF| {
            [b.center, b.half]
                .map(axes)
                .as_flattened()
                .iter()
                .all(|v| v.is_finite())
        };
        let negative = |b: &AabbF| axes(b.half).iter().any(|&v| v < 0.0);
        if !finite(&root) || negative(&root) {
            return Err(OctreeError::Root);
        }
        for (i, o) in obstacles.iter().enumerate() {
            if !finite(o) {
                return Err(OctreeError::NonFiniteObstacle(i));
            }
            if negative(o) {
                return Err(OctreeError::NegativeHalfExtent(i));
            }
        }
        let mut scratch = BUILD_SCRATCH.with(Cell::take);
        let BuildScratch {
            pool,
            queue,
            masks,
            axes: obstacle_axes,
        } = &mut scratch;
        // Culling. A child octant keeps the parent's candidates whose
        // culling box overlaps it: the obstacle grown on every side by one
        // Q3.12 step times the largest coordinate magnitude in play (the
        // root's, or the obstacle's own where larger). Between exact
        // geometry and a descendant's computed box and overlap test lie at
        // most ten subdivisions and the test itself, whose f32 rounding
        // stays under 2^-19 of that magnitude, 128 times below the slack.
        // So an obstacle that misses an octant's culling box overlaps (and
        // so contains) no box ever subdivided from it, and dropping it
        // changes no occupancy. For a root centred on the origin the slack
        // is an eighth of a depth-10 leaf's side, so little survives that a
        // tighter box would drop.
        let reach = |b: &AabbF| (b.center.abs() + b.half.abs()).max_element();
        let root_reach = reach(&root);
        obstacle_axes.clear();
        obstacle_axes.extend(obstacles.iter().map(|o| {
            let slack = RESOLUTION * root_reach.max(reach(o));
            let culling = AabbF::new(o.center, o.half + Vec3::splat(slack));
            let [c, h, hc] = [o.center, o.half, culling.half].map(axes);
            [0, 1, 2].map(|a| [c[a], h[a], hc[a]])
        }));
        // Candidate lists: a range of obstacle indices per pending node.
        pool.clear();
        pool.extend(0..obstacles.len() as u32);
        queue.clear();
        queue.push(((0, pool.len() as u32), 0));
        let tree = emit(root, max_depth, queue, |(lo, hi), split, refine| {
            // One bit per octant: some culled-in candidate contains it
            // (`full`) or overlaps it (`partial`).
            let (mut full, mut partial) = (0u8, 0u8);
            masks.clear();
            for &i in &pool[lo as usize..hi as usize] {
                let o = &obstacle_axes[i as usize];
                let (mut cull, mut contains, mut overlaps) = (0xFFu8, 0xFFu8, 0xFFu8);
                for a in 0..3 {
                    let ([oc, oh, hc], qa) = (o[a], split.half[a]);
                    let [dl, dh] = split.sides[a].map(|s| (oc - s).abs());
                    let halves =
                        |l: bool, h: bool| (LOW_HALF[a] * l as u8) | (HIGH_HALF[a] * h as u8);
                    // `AabbF::overlaps` of the culling box and of the
                    // obstacle, and `AabbF::contains_aabb`, on this axis.
                    cull &= halves(dl <= hc + qa, dh <= hc + qa);
                    contains &= halves(dl + qa <= oh, dh + qa <= oh);
                    overlaps &= halves(dl <= oh + qa, dh <= oh + qa);
                }
                full |= cull & contains;
                partial |= cull & overlaps;
                if refine {
                    masks.push(cull);
                }
            }
            let partial = partial & !full;
            // A refined octant's candidates: every culled-in one, in the
            // parent's order, whether or not it overlaps the octant.
            let mut child = [(0, 0); 8];
            if refine {
                for octant in bits(partial) {
                    let start = pool.len() as u32;
                    for (k, &m) in (lo..hi).zip(masks.iter()) {
                        if m >> octant & 1 != 0 {
                            pool.push(pool[k as usize]);
                        }
                    }
                    child[octant] = (start, pool.len() as u32);
                }
            }
            NodeClass {
                full,
                partial,
                child,
            }
        });
        BUILD_SCRATCH.with(|cell| cell.set(scratch));
        Ok(tree)
    }

    /// The flattened arena mirror of this tree (entry ranges, precomputed
    /// octant boxes in SoA layout — see [`crate::flat`]).
    #[inline]
    pub fn flat(&self) -> &FlatOctree {
        &self.flat
    }

    /// The AABB of octant `i` (0–7) of a parent box. Bit 0 selects the +x
    /// half, bit 1 the +y half, bit 2 the +z half.
    ///
    /// # Panics
    ///
    /// Panics if `octant > 7`.
    #[inline]
    pub fn octant_aabb(parent: &AabbF, octant: usize) -> AabbF {
        assert!(octant < 8, "octant index out of range: {octant}");
        Split::new(parent).octant(octant)
    }

    /// The node at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    pub fn node(&self, addr: u32) -> &Node {
        &self.nodes[addr as usize]
    }

    /// All nodes in address order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The root cube of the environment.
    pub fn root_aabb(&self) -> AabbF {
        self.root
    }

    /// The depth limit the tree was built with.
    pub fn max_depth(&self) -> u32 {
        self.max_depth
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// On-chip storage in bytes (24 bits per node, as stored in the OOCD's
    /// SRAM).
    pub fn storage_bytes(&self) -> usize {
        (self.nodes.len() * Node::PACKED_BITS as usize).div_ceil(8)
    }

    /// Whether the tree fits the accelerator's 8-bit node addressing
    /// (≤ 256 nodes ⇒ 0.75 KB SRAM, §7.2.2).
    pub fn fits_hardware(&self) -> bool {
        self.nodes.len() <= 256
    }

    /// Packs all nodes into their 24-bit hardware words.
    ///
    /// # Errors
    ///
    /// Fails if any node's child base exceeds the 8-bit address space.
    pub fn pack(&self) -> Result<Vec<u32>, PackNodeError> {
        self.nodes.iter().map(Node::pack).collect()
    }

    /// Whether a point lies in occupied space.
    pub fn contains_point(&self, p: Vec3) -> bool {
        let probe = AabbF::new(p, Vec3::zero());
        self.collides_with(|oct| oct.contains_point(p) || oct.overlaps(&probe))
    }

    /// Whether an axis-aligned query box touches occupied space.
    pub fn overlaps_aabb(&self, q: &AabbF) -> bool {
        self.collides_with(|oct| oct.overlaps(q))
    }

    /// Generic collision query: traverses the tree depth-first, calling
    /// `overlaps_octant` for each *occupied* octant AABB. Returns `true` as
    /// soon as a fully occupied octant passes the test; partially occupied
    /// octants that pass are refined through their child node.
    ///
    /// This is the canonical object–octree collision algorithm of §2.2; the
    /// OOCD hardware model executes the same traversal cycle by cycle.
    pub fn collides_with(&self, mut overlaps_octant: impl FnMut(&AabbF) -> bool) -> bool {
        self.collides_with_stats(&mut overlaps_octant).0
    }

    /// Like [`Octree::collides_with`], also returning traversal statistics.
    pub fn collides_with_stats(
        &self,
        overlaps_octant: &mut impl FnMut(&AabbF) -> bool,
    ) -> (bool, TraversalStats) {
        let mut stats = TraversalStats::default();
        let mut stack = TRAVERSAL_STACK.with(Cell::take);
        stack.clear();
        stack.push(0u32);
        let mut hit = false;
        let flat = &self.flat;
        'walk: while let Some(addr) = stack.pop() {
            stats.nodes_visited += 1;
            for e in flat.entries(addr) {
                // Precomputed in the arena — bit-identical to the
                // `octant_aabb` chain the on-the-fly walk used to compute.
                let oct_aabb = flat.aabb(e);
                stats.tests_performed += 1;
                if !overlaps_octant(&oct_aabb) {
                    continue;
                }
                if flat.is_full(e) {
                    hit = true;
                    break 'walk;
                }
                stack.push(flat.child(e));
            }
        }
        stack.clear();
        TRAVERSAL_STACK.with(|cell| cell.set(stack));
        (hit, stats)
    }

    /// All fully occupied leaf boxes (useful for tests and visualization).
    pub fn occupied_leaves(&self) -> Vec<AabbF> {
        let mut out = Vec::new();
        let mut stack = vec![(0u32, self.root)];
        while let Some((addr, aabb)) = stack.pop() {
            let node = &self.nodes[addr as usize];
            for octant in 0..8 {
                let oct_aabb = Octree::octant_aabb(&aabb, octant);
                match node.occupancy(octant) {
                    Occupancy::Full => out.push(oct_aabb),
                    Occupancy::Partial => {
                        let child = node
                            .child_address(octant)
                            .expect("partial octant must have a child");
                        stack.push((child, oct_aabb));
                    }
                    Occupancy::Empty => {}
                }
            }
        }
        out
    }

    /// Prunes the tree to at most `max_depth` levels: partially occupied
    /// octants at the new frontier become fully occupied.
    ///
    /// This is the §8 RoboRun-style variable-precision knob ("the
    /// environment's octree representation supports variable precision
    /// using octree node pruning"): a runtime can trade collision-detection
    /// precision (more false positives, never false negatives) for SRAM
    /// footprint and traversal latency, e.g. when the robot moves fast and
    /// far from obstacles.
    ///
    /// # Panics
    ///
    /// Panics if `max_depth` is 0.
    pub fn pruned(&self, max_depth: u32) -> Octree {
        assert!(max_depth >= 1, "pruned tree needs at least one level");
        if max_depth >= self.max_depth {
            return self.clone();
        }
        // Replay the stored occupancies; the emitter's leaf quantization
        // turns the partial octants at the new depth limit full.
        emit(self.root, max_depth, &mut vec![(0u32, 0)], |addr, _, _| {
            let node = &self.nodes[addr as usize];
            let mask = |occ| (0..8).fold(0, |m, o| m | u8::from(node.occupancy(o) == occ) << o);
            NodeClass {
                full: mask(Occupancy::Full),
                partial: mask(Occupancy::Partial),
                child: std::array::from_fn(|o| node.child_address(o).unwrap_or(NO_CHILD)),
            }
        })
    }

    /// Fraction of the root volume that is occupied (leaf-quantized).
    pub fn occupied_volume_fraction(&self) -> f32 {
        let total: f32 = self.root.volume();
        if total <= 0.0 {
            return 0.0;
        }
        self.occupied_leaves()
            .iter()
            .map(AabbF::volume)
            .sum::<f32>()
            / total
    }
}

/// A box's three coordinates in axis order.
fn axes(v: Vec3) -> [f32; 3] {
    [v.x, v.y, v.z]
}

/// The set bits of an octant mask, lowest first.
fn bits(mut mask: u8) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let octant = mask.trailing_zeros() as usize;
        mask &= mask.wrapping_sub(1);
        (octant < 8).then_some(octant)
    })
}

/// A box split into its eight octants: along each axis, the centre
/// coordinate of the four low and of the four high octants (the parent's
/// centre minus and plus a quarter of its side), and the octants' half
/// extent.
struct Split {
    sides: [[f32; 2]; 3],
    half: [f32; 3],
}

impl Split {
    fn new(parent: &AabbF) -> Split {
        let q = parent.half * 0.5;
        let (c, half, q) = (axes(parent.center), axes(q.abs()), axes(q));
        Split {
            sides: [0, 1, 2].map(|a| [c[a] + -q[a], c[a] + q[a]]),
            half,
        }
    }

    /// Octant `octant`'s box: bit `a` of `octant` picks the high half
    /// along axis `a`.
    fn octant(&self, octant: usize) -> AabbF {
        let [x, y, z] = [0, 1, 2].map(|a| self.sides[a][octant >> a & 1]);
        let [hx, hy, hz] = self.half;
        AabbF::new(Vec3::new(x, y, z), Vec3::new(hx, hy, hz))
    }
}

/// A node's classification: one bit per octant in each of the disjoint
/// `full` and `partial` masks, and the state each partial octant's child
/// node is classified from.
struct NodeClass<S> {
    full: u8,
    partial: u8,
    child: [S; 8],
}

/// The breadth-first emitter behind [`Octree::try_build_in`] and
/// [`Octree::pruned`]: grows the node array and its flat arena's entries
/// and `f32` chain in one pass. The arena derives its Q3.12 OOCD chain on
/// first use, not here.
///
/// `queue` holds the root's state and depth 0 on entry; the emitter
/// appends each child's, so `queue[addr]` is node `addr`'s.
/// `classify(state, split, refine)` classifies a whole node from its state
/// and its box's [`Split`]; `refine` is whether the node lies above the
/// depth limit, and only then are the child states read. A partial octant
/// at the depth limit becomes full (leaf quantization).
fn emit<S: Copy>(
    root: AabbF,
    max_depth: u32,
    queue: &mut Vec<(S, u32)>,
    mut classify: impl FnMut(S, &Split, bool) -> NodeClass<S>,
) -> Octree {
    let mut flat = FlatOctree::new(root);
    let mut nodes = Vec::with_capacity(flat.node_capacity());
    nodes.push(Node::empty());
    // A child takes the next free address when it is created, so the queue
    // holds nodes in address order.
    let mut addr = 0;
    while let Some(&(state, depth)) = queue.get(addr) {
        let refine = depth + 1 < max_depth;
        let split = Split::new(&flat.node_aabb(addr as u32));
        let class = classify(state, &split, refine);
        let (full, partial) = match refine {
            true => (class.full, class.partial),
            false => (class.full | class.partial, 0),
        };
        let child_base = nodes.len() as u32;
        flat.open_node();
        for octant in bits(full | partial) {
            let child = (partial >> octant & 1 != 0).then(|| {
                nodes.push(Node::empty());
                queue.push((class.child[octant], depth + 1));
                nodes.len() as u32 - 1
            });
            flat.push_entry(octant, &split.octant(octant), child);
        }
        let occupancy = std::array::from_fn(|o| match (full >> o & 1, partial >> o & 1) {
            (1, _) => Occupancy::Full,
            (_, 1) => Occupancy::Partial,
            _ => Occupancy::Empty,
        });
        nodes[addr] = Node::new(occupancy, child_base);
        addr += 1;
    }
    flat.close();
    Octree {
        nodes,
        root,
        max_depth,
        flat: Arc::new(flat),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_geometry::Aabb;

    fn small_obstacle() -> AabbF {
        Aabb::new(Vec3::new(0.5, 0.5, 0.5), Vec3::splat(0.08))
    }

    #[test]
    fn empty_environment_is_a_single_empty_node() {
        let t = Octree::build(&[], 4);
        assert_eq!(t.node_count(), 1);
        assert!(!t.contains_point(Vec3::zero()));
        assert!(!t.overlaps_aabb(&Aabb::new(Vec3::zero(), Vec3::splat(1.0))));
        assert_eq!(t.occupied_volume_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "max_depth")]
    fn zero_depth_rejected() {
        let _ = Octree::build(&[], 0);
    }

    #[test]
    fn octant_indexing_covers_parent() {
        let parent = Aabb::new(Vec3::new(0.1, -0.2, 0.3), Vec3::new(0.4, 0.6, 0.8));
        let mut vol = 0.0;
        for i in 0..8 {
            let o = Octree::octant_aabb(&parent, i);
            vol += o.volume();
            // Tolerate an ulp of float rounding on the shared boundaries.
            assert!(
                o.min_corner()
                    .min(parent.min_corner())
                    .distance(parent.min_corner())
                    < 1e-5
            );
            assert!(
                o.max_corner()
                    .max(parent.max_corner())
                    .distance(parent.max_corner())
                    < 1e-5
            );
        }
        assert!((vol - parent.volume()).abs() < 1e-5);
        // Octant 7 is the +x +y +z corner.
        let o7 = Octree::octant_aabb(&parent, 7);
        assert!(o7.center.x > parent.center.x);
        assert!(o7.center.y > parent.center.y);
        assert!(o7.center.z > parent.center.z);
    }

    #[test]
    fn point_queries_match_obstacles() {
        let obs = small_obstacle();
        let t = Octree::build(&[obs], 5);
        assert!(t.contains_point(obs.center));
        assert!(!t.contains_point(Vec3::new(-0.5, -0.5, -0.5)));
        // Conservative: points just outside may be flagged (leaf quantization),
        // but points far outside must not be.
        assert!(!t.contains_point(Vec3::new(0.5, 0.5, -0.5)));
    }

    #[test]
    fn octree_overcovers_obstacles() {
        // Every point inside an obstacle must be inside the octree's
        // occupied set (no false negatives from leaf quantization).
        let obs = [
            Aabb::new(Vec3::new(0.33, -0.41, 0.12), Vec3::new(0.05, 0.11, 0.07)),
            Aabb::new(Vec3::new(-0.6, 0.2, -0.3), Vec3::new(0.1, 0.04, 0.09)),
        ];
        let t = Octree::build(&obs, 4);
        for o in &obs {
            for dx in [-0.9f32, 0.0, 0.9] {
                for dy in [-0.9f32, 0.0, 0.9] {
                    for dz in [-0.9f32, 0.0, 0.9] {
                        let p = o.center + Vec3::new(dx * o.half.x, dy * o.half.y, dz * o.half.z);
                        assert!(t.contains_point(p), "missed interior point {p:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn deeper_trees_fit_obstacles_tighter() {
        let obs = [small_obstacle()];
        let shallow = Octree::build(&obs, 2);
        let deep = Octree::build(&obs, 5);
        assert!(deep.occupied_volume_fraction() < shallow.occupied_volume_fraction());
        assert!(deep.node_count() > shallow.node_count());
    }

    #[test]
    fn children_are_contiguous_blocks() {
        let obs = [
            small_obstacle(),
            Aabb::new(Vec3::new(-0.4, 0.0, 0.0), Vec3::splat(0.1)),
        ];
        let t = Octree::build(&obs, 4);
        for node in t.nodes() {
            let addrs: Vec<u32> = (0..8).filter_map(|i| node.child_address(i)).collect();
            for (k, &a) in addrs.iter().enumerate() {
                assert_eq!(a, node.child_base() + k as u32);
                assert!((a as usize) < t.node_count());
            }
        }
    }

    #[test]
    fn full_octant_coverage_via_big_obstacle() {
        // One obstacle covering the whole +x+y+z octant exactly.
        let obs = Aabb::new(Vec3::splat(0.5), Vec3::splat(0.5));
        let t = Octree::build(&[obs], 3);
        assert_eq!(t.node(0).occupancy(7), Occupancy::Full);
        // Only the root node is needed: nothing partial at depth 0 except none.
        assert!(t.node(0).partial_octants().count() <= 7);
    }

    #[test]
    fn traversal_stats_monotone_in_query_size() {
        let obs = [
            small_obstacle(),
            Aabb::new(Vec3::new(-0.3, 0.4, -0.5), Vec3::splat(0.09)),
        ];
        let t = Octree::build(&obs, 5);
        let small_q = Aabb::new(Vec3::new(0.9, 0.9, 0.9), Vec3::splat(0.01));
        let big_q = Aabb::new(Vec3::zero(), Vec3::splat(0.95));
        let mut f_small = |o: &AabbF| o.overlaps(&small_q);
        let mut f_big = |o: &AabbF| o.overlaps(&big_q);
        let (hit_small, s_small) = t.collides_with_stats(&mut f_small);
        let (hit_big, s_big) = t.collides_with_stats(&mut f_big);
        assert!(!hit_small);
        assert!(hit_big);
        assert!(s_small.tests_performed <= s_big.tests_performed + 16);
        assert!(s_small.nodes_visited >= 1);
    }

    #[test]
    fn storage_accounting() {
        let t = Octree::build(&[small_obstacle()], 4);
        assert_eq!(t.storage_bytes(), (t.node_count() * 24).div_ceil(8));
        if t.node_count() <= 256 {
            assert!(t.fits_hardware());
            let packed = t.pack().unwrap();
            assert_eq!(packed.len(), t.node_count());
            for (i, &w) in packed.iter().enumerate() {
                assert_eq!(&Node::unpack(w).unwrap(), t.node(i as u32));
            }
        }
    }

    #[test]
    fn pruning_is_conservative_and_smaller() {
        let obs = [
            small_obstacle(),
            Aabb::new(Vec3::new(-0.4, 0.3, -0.2), Vec3::splat(0.07)),
        ];
        let full = Octree::build(&obs, 5);
        for depth in [1, 2, 3, 4] {
            let pruned = full.pruned(depth);
            assert_eq!(pruned.max_depth(), depth);
            assert!(pruned.node_count() <= full.node_count());
            assert!(pruned.storage_bytes() <= full.storage_bytes());
            // Conservative: everything occupied in the full tree stays
            // occupied in the pruned tree.
            for leaf in full.occupied_leaves() {
                assert!(
                    pruned.overlaps_aabb(&leaf),
                    "depth {depth} lost occupied leaf {leaf:?}"
                );
            }
            // Volume only grows as precision drops.
            assert!(pruned.occupied_volume_fraction() >= full.occupied_volume_fraction() - 1e-6);
        }
        // Pruning to >= current depth is a no-op.
        assert_eq!(full.pruned(5), full);
        assert_eq!(full.pruned(9), full);
    }

    #[test]
    fn pruning_reduces_volume_precision_monotonically() {
        let obs = [small_obstacle()];
        let full = Octree::build(&obs, 5);
        let mut last = 0.0f32;
        for depth in [5, 4, 3, 2, 1] {
            let v = full.pruned(depth).occupied_volume_fraction();
            assert!(v >= last - 1e-6, "volume should grow as depth shrinks");
            last = v;
        }
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn pruning_to_zero_rejected() {
        let _ = Octree::build(&[small_obstacle()], 4).pruned(0);
    }

    #[test]
    fn occupied_leaves_cover_and_only_cover_occupied_space() {
        let obs = [small_obstacle()];
        let t = Octree::build(&obs, 4);
        let leaves = t.occupied_leaves();
        assert!(!leaves.is_empty());
        // Every leaf overlaps the obstacle (they were carved from it).
        for leaf in &leaves {
            assert!(
                obs[0].overlaps(leaf),
                "leaf {leaf:?} does not touch obstacle"
            );
        }
    }
}
