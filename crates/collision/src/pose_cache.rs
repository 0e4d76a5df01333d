//! An exact, bounded cache of per-pose results, and the exact pose key it
//! and the planners' memos use.
//!
//! A recorded MPNet trace asks the same pose again and again: replanning
//! re-validates a whole path after every detour, shortcutting re-checks
//! motions that share an anchor pose, and adjacent segments share an
//! endpoint, and the trace's CD batches list every one of those motions.
//! The scheduler's `CecduCdu` (in `mpaccel-core`), which dispatches a
//! whole trace to the CECDU model, keeps a [`PoseCache`] of what the
//! model answered for recent poses, so a repeat is served without
//! rerunning FK and the OOCD walks. It is keyed on the pose's joint bits
//! and compares the whole key, never a hash alone, so a hit returns
//! exactly what the walk returned.
//!
//! The software checker keeps no such cache: the planners know which
//! poses they check twice and replay those themselves (see
//! [`check_motion_replaying`](crate::check_motion_replaying)).
//!
//! The trace replay keeps it because it pays there. With `CecduCdu`
//! calling `CecduSim::check_pose` on every dispatch, `mp-benchmark`'s
//! `accel_replay` workload ran its median trace 70% slower (`op_p50_ms`
//! 0.194 -> 0.329 ms, `op_p99_ms` +63%, ten interleaved pairs on a 2-vCPU
//! Xeon guest, none won) with identical outputs, and an exact, unbounded
//! map in its place was no faster and took 8% more memory.
//!
//! The cache holds [`POSE_CACHE_SLOTS`] poses in sets of
//! [`POSE_CACHE_WAYS`]: a pose lives in the set its key hashes to, and a
//! new pose evicts the set's least recently used one. Its storage is
//! allocated on the first insert, so an unused cache costs nothing.

use std::hash::Hasher;

use mp_robot::JointConfig;

/// Widest pose a [`PoseKey`] holds (Baxter has 7 joints).
pub const MAX_KEY_DOF: usize = 8;

/// Poses a [`PoseCache`] holds.
///
/// Sized from the reuse distance of MPNet's pose checks on the ten paper
/// scenes, measured on the planner's own checker (checks between a pose
/// and its repeat): p50 152, p95 399, p99 1,087. 54.4 of the 55.7
/// percentage points of repeated checks fall within 512 checks. A trace's
/// CD batches list those checks' motions in the same order; how the
/// scheduler's dispatch order moves the reuse distance is not measured.
/// With `CecduCdu`'s 72-byte slots that is 36 KiB per replayed trace.
pub const POSE_CACHE_SLOTS: usize = 512;

/// Poses per set of a [`PoseCache`]. On MPNet's checks a 512-pose cache
/// answers 40.2% of them direct-mapped, 46.6% with two ways and 50.8%
/// with four (54.4% is the most any 512-pose cache can).
pub const POSE_CACHE_WAYS: usize = 4;

const SET_BITS: u32 = (POSE_CACHE_SLOTS / POSE_CACHE_WAYS).trailing_zeros();

/// A key lane past the pose's DOF. It is a NaN bit pattern, and a pose
/// with a joint of exactly these bits has no key, so a key's lanes say
/// its DOF and the all-`PAD` key (the empty slot) matches no pose.
const PAD: u32 = u32::MAX;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// A pose's joint values as exact bits, padded to a fixed width so
/// lookups allocate nothing. Two poses have equal keys exactly when they
/// have the same DOF and bit-identical joints (`-0.0` and `0.0` differ).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PoseKey([u32; MAX_KEY_DOF]);

impl PoseKey {
    /// The key of an empty cache slot, which no pose has.
    const EMPTY: PoseKey = PoseKey([PAD; MAX_KEY_DOF]);

    /// The key of `pose`, or `None` if it has no joints, more than
    /// [`MAX_KEY_DOF`] joints, or a joint whose bits are `u32::MAX` (one
    /// NaN pattern). Callers answer such a pose without a cache.
    pub fn new(pose: &JointConfig) -> Option<PoseKey> {
        let joints = pose.as_slice();
        if joints.is_empty() || joints.len() > MAX_KEY_DOF {
            return None;
        }
        let mut bits = [PAD; MAX_KEY_DOF];
        for (b, v) in bits.iter_mut().zip(joints) {
            *b = v.to_bits();
            if *b == PAD {
                return None;
            }
        }
        Some(PoseKey(bits))
    }

    /// The first slot of the set this key maps to: FNV-1a over whole
    /// lanes, then a Fibonacci multiply, whose top bits depend on every
    /// lane.
    fn set(&self) -> usize {
        let h = self.0.iter().fold(FNV_OFFSET, |h, &lane| {
            (h ^ u64::from(lane)).wrapping_mul(FNV_PRIME)
        });
        (h.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - SET_BITS)) as usize * POSE_CACHE_WAYS
    }
}

/// FNV-1a over the hashed bytes, for hash maps keyed by [`PoseKey`]s.
/// The keys are short fixed-size integer tuples queried millions of
/// times; FNV beats the default SipHash severalfold there, and
/// hash-flooding resistance is irrelevant for a result memo.
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> FnvHasher {
        FnvHasher(FNV_OFFSET)
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }
}

/// A set-associative cache from [`PoseKey`] to a checker's compact
/// per-pose result `V`: [`POSE_CACHE_SLOTS`] slots in sets of
/// [`POSE_CACHE_WAYS`], each set kept in most-recently-used order.
///
/// It answers only for the checker it was filled by; a checker cannot
/// change its environment, cascade or trig once built.
#[derive(Clone, Debug)]
pub struct PoseCache<V> {
    // Empty until the first insert, then `POSE_CACHE_SLOTS` long.
    slots: Vec<(PoseKey, V)>,
}

impl<V> Default for PoseCache<V> {
    fn default() -> PoseCache<V> {
        PoseCache { slots: Vec::new() }
    }
}

impl<V: Copy + Default> PoseCache<V> {
    /// An empty cache; it allocates on its first insert.
    pub fn new() -> PoseCache<V> {
        PoseCache::default()
    }

    /// The result cached for exactly `key`, if its set holds it; the
    /// pose becomes its set's most recently used.
    #[inline]
    pub fn get(&mut self, key: &PoseKey) -> Option<V> {
        let set = self.slots.get_mut(key.set()..key.set() + POSE_CACHE_WAYS)?;
        let way = set.iter().position(|(k, _)| k == key)?;
        set[..=way].rotate_right(1);
        Some(set[0].1)
    }

    /// Caches `value` for `key`, a pose [`get`](PoseCache::get) just
    /// missed, evicting its set's least recently used pose.
    pub fn insert(&mut self, key: PoseKey, value: V) {
        if self.slots.is_empty() {
            self.slots = vec![(PoseKey::EMPTY, V::default()); POSE_CACHE_SLOTS];
        }
        let set = &mut self.slots[key.set()..key.set() + POSE_CACHE_WAYS];
        set.rotate_right(1);
        set[0] = (key, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pose(joints: &[f32]) -> JointConfig {
        JointConfig::new(joints.to_vec())
    }

    #[test]
    fn keys_are_exact_bits_and_dof() {
        let a = PoseKey::new(&pose(&[0.5, 0.0])).unwrap();
        assert_eq!(a, PoseKey::new(&pose(&[0.5, 0.0])).unwrap());
        assert_ne!(a, PoseKey::new(&pose(&[0.5, -0.0])).unwrap());
        assert_ne!(a, PoseKey::new(&pose(&[0.5])).unwrap());
        assert_ne!(a, PoseKey::new(&pose(&[0.5, 0.0, 0.0])).unwrap());
    }

    #[test]
    fn poses_the_key_cannot_hold_have_none() {
        assert_eq!(PoseKey::new(&pose(&[])), None);
        assert_eq!(PoseKey::new(&pose(&[0.0; MAX_KEY_DOF + 1])), None);
        assert_eq!(PoseKey::new(&pose(&[0.0, f32::from_bits(PAD)])), None);
        assert!(PoseKey::new(&pose(&[0.0; MAX_KEY_DOF])).is_some());
        assert!(PoseKey::new(&pose(&[f32::NAN])).is_some());
    }

    #[test]
    fn cache_returns_only_the_exact_key() {
        let mut cache: PoseCache<u32> = PoseCache::new();
        let a = PoseKey::new(&pose(&[0.25, 1.0])).unwrap();
        assert_eq!(cache.get(&a), None);
        cache.insert(a, 7);
        assert_eq!(cache.get(&a), Some(7));
        let b = PoseKey::new(&pose(&[0.25, -1.0])).unwrap();
        assert_eq!(cache.get(&b), None);
    }

    #[test]
    fn a_full_set_evicts_its_least_recently_used_pose() {
        let mut cache: PoseCache<usize> = PoseCache::new();
        let keys: Vec<PoseKey> = (0..)
            .map(|i| PoseKey::new(&pose(&[i as f32, 0.5])).unwrap())
            .filter(|k| k.set() == 0)
            .take(POSE_CACHE_WAYS + 1)
            .collect();
        for (i, k) in keys[..POSE_CACHE_WAYS].iter().enumerate() {
            cache.insert(*k, i);
        }
        // Using the oldest pose makes the second oldest the least recent.
        assert_eq!(cache.get(&keys[0]), Some(0));
        cache.insert(keys[POSE_CACHE_WAYS], POSE_CACHE_WAYS);
        assert_eq!(cache.get(&keys[1]), None);
        for i in (0..=POSE_CACHE_WAYS).filter(|&i| i != 1) {
            assert_eq!(cache.get(&keys[i]), Some(i), "pose {i}");
        }
    }

    #[test]
    fn sets_spread_over_the_cache() {
        // Poses one motion step apart must not pile into a few sets.
        let sets = POSE_CACHE_SLOTS / POSE_CACHE_WAYS;
        let used: std::collections::HashSet<usize> = (0..sets)
            .map(|i| {
                let t = i as f32 * 0.01;
                PoseKey::new(&pose(&[0.3 + t, -1.2 + 0.5 * t, 0.7]))
                    .unwrap()
                    .set()
            })
            .collect();
        assert!(used.len() > sets / 2, "{} sets used", used.len());
    }
}
