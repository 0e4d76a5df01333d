//! Property-based tests of the consistent-hash ring: key balance within a
//! bound at 1/4/16 shards, minimal key movement on removal/rejoin, and
//! table lookups that agree with a linear scan of the circle under any
//! sequence of crashes and rejoins.

use mp_service::{HashRing, Slot};
use proptest::prelude::*;

const KEYS: u64 = 4_096;
const VNODES: usize = 64;

fn owners(ring: &HashRing) -> Vec<usize> {
    (0..KEYS)
        .map(|k| ring.primary(ring.slot(k)).expect("alive"))
        .collect()
}

fn shares(ring: &HashRing, shards: usize) -> Vec<usize> {
    let mut counts = vec![0usize; shards];
    for owner in owners(ring) {
        counts[owner] += 1;
    }
    counts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// With enough vnodes, every shard's share of the key space stays
    /// within a constant factor of fair at N ∈ {1, 4, 16}.
    #[test]
    fn keys_balance_within_bound(seed in any::<u64>()) {
        for shards in [1usize, 4, 16] {
            let ring = HashRing::new(shards, VNODES, seed);
            let counts = shares(&ring, shards);
            let fair = KEYS as usize / shards;
            for (shard, &n) in counts.iter().enumerate() {
                prop_assert!(
                    n * 2 >= fair && n <= fair * 2,
                    "seed {seed}: shard {shard}/{shards} owns {n} of {KEYS} keys (fair {fair})"
                );
            }
        }
    }

    /// Removing one shard moves exactly that shard's keys — everyone
    /// else's primary is untouched — and restoring it recovers the
    /// original mapping byte for byte.
    #[test]
    fn removal_is_minimal_and_rejoin_exact(seed in any::<u64>(), dead in 0usize..16) {
        let mut ring = HashRing::new(16, VNODES, seed);
        let before = owners(&ring);
        ring.remove(dead);
        prop_assert_eq!(ring.alive_count(), 15);
        let during = owners(&ring);
        for (k, (&b, &d)) in before.iter().zip(&during).enumerate() {
            if b == dead {
                prop_assert!(d != dead, "key {k} still routed to the dead shard");
            } else {
                prop_assert!(d == b, "key {k} moved although its owner lived");
            }
        }
        ring.restore(dead);
        prop_assert_eq!(owners(&ring), before, "rejoin must recover the exact mapping");
    }

    /// The two hedge/spill choices are always alive and distinct whenever
    /// at least two shards are alive, for any subset of dead shards.
    #[test]
    fn primary_and_secondary_stay_alive_and_distinct(
        seed in any::<u64>(),
        dead_mask in 0u16..u16::MAX, // never all-dead
    ) {
        let mut ring = HashRing::new(16, 8, seed);
        for shard in 0..16 {
            if dead_mask & (1 << shard) != 0 {
                ring.remove(shard);
            }
        }
        for key in 0..256u64 {
            let slot = ring.slot(key);
            let p = ring.primary(slot).expect("at least one shard alive");
            prop_assert!(ring.is_alive(p));
            if ring.alive_count() >= 2 {
                let s = ring.secondary(slot).expect("two alive shards");
                prop_assert!(ring.is_alive(s));
                prop_assert_ne!(p, s);
            } else {
                prop_assert_eq!(ring.secondary(slot), None);
            }
        }
    }

    /// The ring's successor table answers `owner`, `primary`,
    /// `secondary` and `route` exactly as a linear scan of the circle
    /// does, at 1–32 shards, after every step of a random crash/rejoin
    /// sequence (all shards dead included).
    #[test]
    fn table_lookups_match_a_linear_scan(
        seed in any::<u64>(),
        shards in 1usize..33,
        flips in prop::collection::vec((0usize..32, any::<bool>()), 0..48),
        loads_seed in any::<u64>(),
    ) {
        let mut ring = HashRing::new(shards, 4, seed);
        let mut alive = vec![true; shards];
        let loads: Vec<usize> = (0..shards)
            .map(|s| (loads_seed.rotate_left(s as u32 * 5) % 23) as usize)
            .collect();
        // Every step flips one shard; a run of removals kills them all.
        let steps = flips.iter().map(|&(s, up)| (s % shards, up));
        let steps = (0..shards).map(|s| (s, false)).chain(steps);
        for (shard, up) in std::iter::once((0, true)).chain(steps) {
            if up {
                ring.restore(shard);
            } else {
                ring.remove(shard);
            }
            alive[shard] = up;
            prop_assert_eq!(ring.alive_count(), alive.iter().filter(|&&a| a).count());
            for key in 0..64u64 {
                let slot = ring.slot(key);
                let scan = Scan { ring: &ring, alive: &alive, slot };
                prop_assert_eq!(ring.owner(slot), ring.vnode_shards()[slot.index()] as usize);
                prop_assert_eq!(ring.primary(slot), scan.nth_alive(0));
                prop_assert_eq!(ring.secondary(slot), scan.nth_alive(1));
                prop_assert_eq!(ring.route(slot, &loads, 125), scan.route(&loads, 125));
            }
        }
    }
}

/// The linear-scan reference: walk the circle clockwise from the slot's
/// virtual node, collecting distinct alive shards.
struct Scan<'a> {
    ring: &'a HashRing,
    alive: &'a [bool],
    slot: Slot,
}

impl Scan<'_> {
    fn nth_alive(&self, n: usize) -> Option<usize> {
        let vnodes = self.ring.vnode_shards();
        let mut seen = Vec::new();
        for off in 0..vnodes.len() {
            let shard = vnodes[(self.slot.index() + off) % vnodes.len()] as usize;
            if self.alive[shard] && !seen.contains(&shard) {
                if seen.len() == n {
                    return Some(shard);
                }
                seen.push(shard);
            }
        }
        None
    }

    /// Bounded-load power-of-two-choices, spelled out.
    fn route(&self, loads: &[usize], bound_pct: u64) -> Option<usize> {
        let p = self.nth_alive(0)?;
        let Some(s) = self.nth_alive(1) else {
            return Some(p);
        };
        let alive = self.alive.iter().filter(|&&a| a).count() as u64;
        let total: u64 = (0..loads.len())
            .filter(|&i| self.alive[i])
            .map(|i| loads[i] as u64)
            .sum();
        let bound = (bound_pct * (total + 1)).div_ceil(100 * alive) as usize;
        let primary_fits = loads[p] < bound;
        let spill_no_better = loads[s] >= bound && loads[s] >= loads[p];
        Some(if primary_fits || spill_no_better {
            p
        } else {
            s
        })
    }
}
