//! Heap allocations of a repeated octree build. A dropped tree parks its
//! flat arena's buffers for the next build on the same thread, and the
//! builder keeps its scratch in a thread-local, so rebuilding a scene
//! allocates only the new tree's node array and the arena's shared handle.
//! Growing the arena on every build instead refaults its pages in a
//! map-then-plan loop. A counting global allocator counts the current
//! thread's allocations (reallocations included), so the test harness's
//! other threads do not disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mpaccel::octree::{Octree, Scene, SceneConfig};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a const-initialized thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn a_rebuilt_scene_allocates_only_its_node_array_and_arena_handle() {
    // The `plan_clutter` map: 24 obstacles, depth 6.
    let obstacles = Scene::random(SceneConfig::with_obstacles(24), 1)
        .obstacles()
        .to_vec();
    drop(Octree::build(&obstacles, 6));
    let before = allocations();
    let tree = Octree::build(&obstacles, 6);
    let allocated = allocations() - before;
    assert!(tree.flat().entry_count() > 1000, "a cluttered map");
    drop(tree);
    assert_eq!(allocated, 2, "heap allocations of the second build");
}
