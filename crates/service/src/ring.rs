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
//! Everything is integer arithmetic on seeded hashes: the same ring and
//! the same loads route the same request identically on any machine.

/// splitmix64-style finalizer, shared with the fleet loop's request-key
/// assignment and fault-stream seeding.
pub(crate) fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A consistent-hash ring over `shards` shards with liveness tracking.
#[derive(Clone, Debug)]
pub struct HashRing {
    /// Sorted `(circle point, shard)` virtual nodes.
    points: Vec<(u64, usize)>,
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
    /// Panics if `shards == 0` or `vnodes == 0`.
    pub fn new(shards: usize, vnodes: usize, seed: u64) -> HashRing {
        assert!(shards > 0, "ring needs at least one shard");
        assert!(vnodes > 0, "ring needs at least one vnode per shard");
        let mut points = Vec::with_capacity(shards * vnodes);
        for shard in 0..shards {
            for v in 0..vnodes {
                let h = mix(seed ^ ((shard as u64) << 32) ^ ((v as u64) << 1) ^ 0x51D0_0C1E);
                points.push((h, shard));
            }
        }
        // Sorting by (point, shard) also breaks the astronomically rare
        // point collision deterministically.
        points.sort_unstable();
        HashRing {
            points,
            alive: vec![true; shards],
            alive_count: shards,
            key_salt: mix(seed ^ 0x6B3A_5CA1),
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

    /// Marks `shard` dead; its keys flow to their clockwise successors.
    pub fn remove(&mut self, shard: usize) {
        if self.alive[shard] {
            self.alive[shard] = false;
            self.alive_count -= 1;
        }
    }

    /// Marks `shard` alive again; its keys return to it exactly.
    pub fn restore(&mut self, shard: usize) {
        if !self.alive[shard] {
            self.alive[shard] = true;
            self.alive_count += 1;
        }
    }

    /// Index into `points` of the first vnode clockwise of `key`'s point.
    fn start(&self, key: u64) -> usize {
        let h = mix(self.key_salt ^ key);
        match self.points.binary_search(&(h, usize::MAX)) {
            Ok(i) | Err(i) => i % self.points.len(),
        }
    }

    /// The shard owning `key` ignoring liveness — where an unrouted
    /// client would still send the request while the shard is down.
    pub fn owner(&self, key: u64) -> usize {
        if self.alive.len() == 1 {
            return 0; // a one-shard ring owns every key
        }
        self.points[self.start(key)].1
    }

    /// First *alive* shard clockwise of `key` (`None` if all are dead).
    pub fn primary(&self, key: u64) -> Option<usize> {
        self.nth_alive(key, 0)
    }

    /// The next alive shard clockwise after the primary, distinct from
    /// it — the hedge / spill target (`None` with fewer than two alive).
    pub fn secondary(&self, key: u64) -> Option<usize> {
        self.nth_alive(key, 1)
    }

    fn nth_alive(&self, key: u64, n: usize) -> Option<usize> {
        if self.alive_count <= n {
            return None;
        }
        let start = self.start(key);
        let mut seen: Vec<usize> = Vec::with_capacity(n + 1);
        for off in 0..self.points.len() {
            let shard = self.points[(start + off) % self.points.len()].1;
            if self.alive[shard] && !seen.contains(&shard) {
                if seen.len() == n {
                    return Some(shard);
                }
                seen.push(shard);
            }
        }
        None
    }

    /// Routes `key` with bounded-load power-of-two-choices: the primary
    /// shard, unless its entry in `loads` exceeds
    /// `ceil(bound_pct% · (total + 1) / alive)`, in which case the
    /// secondary; if both exceed the bound, the less loaded of the two
    /// (ties to the primary). `loads` is indexed by shard; dead shards'
    /// entries are ignored.
    pub fn route(&self, key: u64, loads: &[usize], bound_pct: u64) -> Option<usize> {
        debug_assert_eq!(loads.len(), self.alive.len());
        let p = self.primary(key)?;
        let Some(s) = self.secondary(key) else {
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
    fn primary_is_deterministic_and_alive() {
        let ring = HashRing::new(8, 32, 42);
        for key in 0..1_000u64 {
            let p = ring.primary(key).unwrap();
            assert_eq!(Some(p), ring.primary(key));
            assert!(ring.is_alive(p));
            assert_eq!(p, ring.owner(key));
        }
    }

    #[test]
    fn secondary_is_distinct_from_primary() {
        let ring = HashRing::new(4, 16, 7);
        for key in 0..500u64 {
            assert_ne!(ring.primary(key), ring.secondary(key));
        }
    }

    #[test]
    fn removal_moves_only_the_dead_shards_keys() {
        let mut ring = HashRing::new(8, 32, 3);
        let before: Vec<usize> = (0..2_000u64).map(|k| ring.primary(k).unwrap()).collect();
        ring.remove(5);
        for (k, &owner) in before.iter().enumerate() {
            let now = ring.primary(k as u64).unwrap();
            if owner != 5 {
                assert_eq!(now, owner, "key {k} moved although its owner lived");
            } else {
                assert_ne!(now, 5, "key {k} still routed to the dead shard");
            }
        }
        ring.restore(5);
        let after: Vec<usize> = (0..2_000u64).map(|k| ring.primary(k).unwrap()).collect();
        assert_eq!(before, after, "restore must recover the exact mapping");
    }

    #[test]
    fn route_spills_off_an_overloaded_primary() {
        let ring = HashRing::new(4, 16, 9);
        let key = 1234;
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
            assert_eq!(ring.primary(key), Some(1));
            assert_eq!(ring.secondary(key), None);
            assert_eq!(ring.route(key, &[7, 7, 7], 125), Some(1));
        }
        ring.remove(1);
        assert_eq!(ring.primary(0), None);
        assert_eq!(ring.alive_count(), 0);
    }
}
