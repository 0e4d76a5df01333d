//! Environment representation for the MPAccel reproduction.
//!
//! The accelerator stores its environment as an octree (§2.2, Fig 4): each
//! node records the occupancy of its eight octants in a packed 24-bit word
//! and refines partially occupied octants through contiguously stored child
//! nodes. This crate provides:
//!
//! * [`node`] — octree nodes and their 24-bit hardware encoding,
//! * [`octree`] — construction from cuboid obstacles and the canonical
//!   early-exit traversal used for collision queries,
//! * [`voxel`] — dense voxel grids (the CODAcc-style alternative the paper
//!   compares against in §7.2.2),
//! * [`scene`] — randomized benchmark environments matching §6 (5–9 cuboid
//!   obstacles of 3–12 % extent, ten scenarios).
//!
//! # Examples
//!
//! ```
//! use mp_octree::{Scene, SceneConfig};
//!
//! let scene = Scene::random(SceneConfig::paper(), 0);
//! let tree = scene.octree();
//! // The benchmark octrees fit the accelerator's 0.75 KB node SRAM.
//! assert!(tree.fits_hardware());
//! assert!(tree.storage_bytes() <= 768);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flat;
pub mod node;
pub mod octree;
pub mod scene;
pub mod voxel;

pub use flat::FlatOctree;
pub use node::{Node, Occupancy};
pub use octree::{Octree, OctreeError, TraversalStats};
pub use scene::{benchmark_scenes, Scene, SceneConfig};
pub use voxel::VoxelGrid;
