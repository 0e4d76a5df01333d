//! Consistent-hash ring with bounded-load power-of-two-choices routing.
//!
//! The fleet partitions the plan catalog across shards by hashing each
//! request's `(tenant, key)` route key onto a circle of virtual nodes.
//! Consistent hashing gives the two properties failover needs:
//!
//! * **Minimal movement** — removing a shard re-routes *only* that
//!   shard's keys (everything else keeps its primary), and restoring it
//!   recovers the exact original mapping.
//! * **Balance** — with enough virtual nodes per shard, each shard owns a
//!   near-equal slice of the key space.
//!
//! Pure hashing ignores instantaneous load, so on top of the ring the
//! router applies *bounded-load power-of-two-choices*: a request goes to
//! its primary shard unless that shard's queue exceeds a bound derived
//! from the fleet-average load, in which case it spills to the next
//! distinct shard clockwise (its deterministic second choice). The bound
//! follows consistent-hashing-with-bounded-loads: capacity is
//! `ceil(c · (total_load + 1) / alive_shards)` with `c` a percentage knob.
//!
//! Routing cost: a key is hashed to its [`Slot`] (the first virtual node
//! clockwise of its point) once, by [`HashRing::slot`]: one hash and one
//! binary search. The slot does not depend on liveness, so a caller may
//! keep it for the life of a request. Every lookup after that is one
//! table read: for each virtual node the ring keeps the first two
//! distinct alive shards clockwise, and rebuilds that table only when a
//! shard's liveness changes ([`HashRing::remove`],
//! [`HashRing::restore`]), in one O(vnodes) sweep.
//!
//! Everything is integer arithmetic on seeded hashes (`mp_sim::mix`):
//! the same ring and the same loads route the same request identically
//! on any machine.

use mp_sim::mix;

/// A route key's position on a [`HashRing`]: the index of the first
/// virtual node clockwise of the key's point. Independent of which
/// shards are alive, so it stays valid across crashes and rejoins.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Slot(u32);

impl Slot {
    /// Index of the slot's virtual node in [`HashRing::vnode_shards`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// No alive shard in a successor-table entry.
const NONE: u32 = u32::MAX;

/// A consistent-hash ring over `shards` shards with liveness tracking.
#[derive(Clone, Debug)]
pub struct HashRing {
    /// Sorted circle points of the virtual nodes.
    points: Vec<u64>,
    /// Shard of each virtual node, in circle order.
    vnode_shards: Vec<u32>,
    /// Per virtual node, the first two distinct alive shards at or
    /// clockwise after it ([`NONE`] where fewer are alive).
    succ: Vec<[u32; 2]>,
    /// Per-shard liveness (dead shards are skipped by alive lookups).
    alive: Vec<bool>,
    alive_count: usize,
    /// Salt for hashing route keys onto the circle.
    key_salt: u64,
}

impl HashRing {
    /// Builds a ring of `shards` shards with `vnodes` virtual nodes each,
    /// placed by the seed. All shards start alive.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0` or `vnodes == 0`, or if there are 2^32
    /// virtual nodes or more.
    pub fn new(shards: usize, vnodes: usize, seed: u64) -> HashRing {
        assert!(shards > 0, "ring needs at least one shard");
        assert!(vnodes > 0, "ring needs at least one vnode per shard");
        assert!(
            shards
                .checked_mul(vnodes)
                .is_some_and(|n| n < NONE as usize),
            "ring vnodes must fit a u32 slot"
        );
        let mut points = Vec::with_capacity(shards * vnodes);
        for shard in 0..shards {
            for v in 0..vnodes {
                let h = mix(seed ^ ((shard as u64) << 32) ^ ((v as u64) << 1) ^ 0x51D0_0C1E);
                points.push((h, shard as u32));
            }
        }
        // Sorting by (point, shard) also breaks the astronomically rare
        // point collision deterministically.
        points.sort_unstable();
        let mut ring = HashRing {
            vnode_shards: points.iter().map(|&(_, s)| s).collect(),
            points: points.into_iter().map(|(h, _)| h).collect(),
            succ: vec![[NONE; 2]; shards * vnodes],
            alive: vec![true; shards],
            alive_count: shards,
            key_salt: mix(seed ^ 0x6B3A_5CA1),
        };
        ring.rebuild();
        ring
    }

    /// Refills the successor table from the liveness flags: two laps
    /// backwards round the circle, so the first lap leaves the
    /// wrap-around successors in `next` for the second to finish with.
    fn rebuild(&mut self) {
        let n = self.vnode_shards.len();
        let mut next = [NONE; 2];
        for i in (0..2 * n).rev() {
            let shard = self.vnode_shards[i % n];
            if self.alive[shard as usize] && next[0] != shard {
                next = [shard, next[0]];
            }
            if i < n {
                self.succ[i] = next;
            }
        }
    }

    /// Total shards (alive or dead).
    pub fn shards(&self) -> usize {
        self.alive.len()
    }

    /// Shards currently alive.
    pub fn alive_count(&self) -> usize {
        self.alive_count
    }

    /// Whether `shard` is alive.
    pub fn is_alive(&self, shard: usize) -> bool {
        self.alive[shard]
    }

    /// Shard of each virtual node, in clockwise circle order
    /// ([`Slot::index`] indexes it).
    pub fn vnode_shards(&self) -> &[u32] {
        &self.vnode_shards
    }

    /// Marks `shard` dead; its keys flow to their clockwise successors.
    pub fn remove(&mut self, shard: usize) {
        if self.alive[shard] {
            self.alive[shard] = false;
            self.alive_count -= 1;
            self.rebuild();
        }
    }

    /// Marks `shard` alive again; its keys return to it exactly.
    pub fn restore(&mut self, shard: usize) {
        if !self.alive[shard] {
            self.alive[shard] = true;
            self.alive_count += 1;
            self.rebuild();
        }
    }

    /// The slot of route key `key`: the first virtual node clockwise of
    /// the key's point on the circle.
    pub fn slot(&self, key: u64) -> Slot {
        let h = mix(self.key_salt ^ key);
        let i = self.points.partition_point(|&p| p <= h);
        Slot((i % self.points.len()) as u32)
    }

    /// The shard owning `slot` ignoring liveness — where an unrouted
    /// client would still send the request while the shard is down.
    pub fn owner(&self, slot: Slot) -> usize {
        self.vnode_shards[slot.index()] as usize
    }

    /// First *alive* shard clockwise of `slot` (`None` if all are dead).
    pub fn primary(&self, slot: Slot) -> Option<usize> {
        self.successor(slot, 0)
    }

    /// The next alive shard clockwise after the primary, distinct from
    /// it — the hedge / spill target (`None` with fewer than two alive).
    pub fn secondary(&self, slot: Slot) -> Option<usize> {
        self.successor(slot, 1)
    }

    fn successor(&self, slot: Slot, n: usize) -> Option<usize> {
        let shard = self.succ[slot.index()][n];
        (shard != NONE).then_some(shard as usize)
    }

    /// Routes `slot` with bounded-load power-of-two-choices: the primary
    /// shard, unless its entry in `loads` exceeds
    /// `ceil(bound_pct% · (total + 1) / alive)`, in which case the
    /// secondary; if both exceed the bound, the less loaded of the two
    /// (ties to the primary). `loads` is indexed by shard; dead shards'
    /// entries are ignored.
    pub fn route(&self, slot: Slot, loads: &[usize], bound_pct: u64) -> Option<usize> {
        debug_assert_eq!(loads.len(), self.alive.len());
        let p = self.primary(slot)?;
        let Some(s) = self.secondary(slot) else {
            return Some(p);
        };
        let total: u64 = self
            .alive
            .iter()
            .zip(loads)
            .filter(|(a, _)| **a)
            .map(|(_, &l)| l as u64)
            .sum();
        let bound = (bound_pct * (total + 1)).div_ceil(100 * self.alive_count as u64) as usize;
        if loads[p] < bound || (loads[s] >= bound && loads[s] >= loads[p]) {
            Some(p)
        } else {
            Some(s)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_is_the_first_vnode_past_the_key_point() {
        let ring = HashRing::new(8, 32, 42);
        let pairs: Vec<(u64, u32)> = ring
            .points
            .iter()
            .copied()
            .zip(ring.vnode_shards.iter().copied())
            .collect();
        for key in 0..1_000u64 {
            let h = mix(ring.key_salt ^ key);
            let (Ok(i) | Err(i)) = pairs.binary_search(&(h, u32::MAX));
            assert_eq!(ring.slot(key).index(), i % pairs.len(), "key {key}");
        }
    }

    #[test]
    fn primary_is_deterministic_and_alive() {
        let ring = HashRing::new(8, 32, 42);
        for key in 0..1_000u64 {
            let slot = ring.slot(key);
            let p = ring.primary(slot).unwrap();
            assert_eq!(slot, ring.slot(key));
            assert!(ring.is_alive(p));
            assert_eq!(p, ring.owner(slot));
        }
    }

    #[test]
    fn secondary_is_distinct_from_primary() {
        let ring = HashRing::new(4, 16, 7);
        for key in 0..500u64 {
            let slot = ring.slot(key);
            assert_ne!(ring.primary(slot), ring.secondary(slot));
        }
    }

    #[test]
    fn removal_moves_only_the_dead_shards_keys() {
        let mut ring = HashRing::new(8, 32, 3);
        let primaries = |ring: &HashRing| -> Vec<usize> {
            (0..2_000u64)
                .map(|k| ring.primary(ring.slot(k)).unwrap())
                .collect()
        };
        let before = primaries(&ring);
        ring.remove(5);
        for (k, &owner) in before.iter().enumerate() {
            let now = ring.primary(ring.slot(k as u64)).unwrap();
            if owner != 5 {
                assert_eq!(now, owner, "key {k} moved although its owner lived");
            } else {
                assert_ne!(now, 5, "key {k} still routed to the dead shard");
            }
        }
        ring.restore(5);
        assert_eq!(
            before,
            primaries(&ring),
            "restore must recover the exact mapping"
        );
    }

    #[test]
    fn route_spills_off_an_overloaded_primary() {
        let ring = HashRing::new(4, 16, 9);
        let key = ring.slot(1234);
        let p = ring.primary(key).unwrap();
        let s = ring.secondary(key).unwrap();
        // Balanced loads: stay on the primary.
        assert_eq!(ring.route(key, &[1; 4], 125), Some(p));
        // Primary far above the bound: spill to the secondary.
        let mut loads = [0usize; 4];
        loads[p] = 100;
        assert_eq!(ring.route(key, &loads, 125), Some(s));
        // Both above the bound: the less loaded of the two wins.
        let mut loads = [0usize; 4];
        loads[p] = 100;
        loads[s] = 60;
        assert_eq!(ring.route(key, &loads, 125), Some(s));
    }

    #[test]
    fn lone_survivor_takes_everything_and_extinction_routes_nowhere() {
        let mut ring = HashRing::new(3, 8, 1);
        ring.remove(0);
        ring.remove(2);
        for key in 0..100u64 {
            let slot = ring.slot(key);
            assert_eq!(ring.primary(slot), Some(1));
            assert_eq!(ring.secondary(slot), None);
            assert_eq!(ring.route(slot, &[7, 7, 7], 125), Some(1));
        }
        ring.remove(1);
        assert_eq!(ring.primary(ring.slot(0)), None);
        assert_eq!(ring.route(ring.slot(0), &[0, 0, 0], 125), None);
        assert_eq!(ring.alive_count(), 0);
    }
}
