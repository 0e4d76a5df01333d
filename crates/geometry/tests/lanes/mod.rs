//! Seeded OBB–AABB pairs that reach the cascade's SAT stages, in the three
//! arithmetic lanes of the production kernel, and the check that
//! `HoistedCascade` equals the scalar oracle `cascaded_obb_aabb` (proposed
//! configuration) on every one of them: verdict, exit stage, separating
//! axis, multiplications and stages.
//!
//! Shared by the workspace's facade test `tests/cascade_kernel.rs` and
//! this crate's ignored long sweep `tests/cascade_lanes.rs`.
//!
//! Which Q3.12 SAT lane a box takes follows from `IntSat`'s bounds in
//! `mp_geometry::soa`, with `RAIL = 32767` raw and rotation entries within
//! ±1 (4096 raw):
//!
//! - Integer lanes: for OBB half extents up to 0.5, the translation bound
//!   is at least `((RAIL / 3) << 12) / 4096` raw (2.66) and the extent
//!   bound at least `(RAIL - 2049) / 3` raw (2.49), so every box
//!   [`Lane::Q312Integer`] draws (translations and extents below 2.4)
//!   lies inside them.
//! - Saturating lanes: a rotation has an entry of at least `1/√3` in
//!   magnitude (2365 raw), so neither bound exceeds
//!   `((RAIL / 3) << 12) / 2365` raw (4.62) for any OBB, and every box
//!   [`Lane::Q312Saturating`] draws (one extent of at least 4.7) lies
//!   outside them.

use mp_geometry::cascade::{cascaded_obb_aabb, CascadeConfig, ExitStage};
use mp_geometry::soa::HoistedCascade;
use mp_geometry::{Aabb, AabbF, Mat3, Obb, Scalar, Vec3};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The arithmetic and box sizes of one lane.
#[derive(Clone, Copy, Debug)]
pub enum Lane {
    /// `f32` boxes.
    F32,
    /// Q3.12 boxes inside the integer SAT lanes' bounds.
    Q312Integer,
    /// Q3.12 boxes with one extent beyond any integer-lane bound, so the
    /// SAT stages take the saturating lanes.
    Q312Saturating,
}

/// How many compared pairs left the cascade at `Sat(1)`, `Sat(2)`,
/// `Sat(3)` and `Exhausted`.
pub type SatExits = [u64; 4];

/// Boxes drawn against each OBB.
const BOXES_PER_OBB: usize = 16;

/// Compares `HoistedCascade` with the oracle in `lane` until `pairs`
/// seeded pairs have reached a SAT stage, and returns their exits. Each
/// box the sphere filters decide is redrawn (up to 64 times); every drawn
/// box is compared, and one `HoistedCascade` per OBB sees all of them.
///
/// # Panics
///
/// Panics on the first pair whose outcomes differ, and on a drawn Q3.12
/// box outside its lane.
pub fn sweep(lane: Lane, seed: u64, pairs: u64) -> SatExits {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut exits = [0; 4];
    let mut reached = 0;
    while reached < pairs {
        let obb = random_obb(&mut rng);
        reached += match lane {
            Lane::F32 => compare(&obb, &mut exits, || {
                let half = small_half(&mut rng);
                past_the_filters(&mut rng, &obb, half)
            }),
            Lane::Q312Integer => compare(&obb.quantize(), &mut exits, || {
                let half = small_half(&mut rng);
                let b = past_the_filters(&mut rng, &obb, half).quantize();
                let t = obb.quantize().center - b.center;
                let most = t.abs().max_element().max(b.half.max_element());
                assert!(most.to_f32() < 2.4, "box {b:?} outside the integer lanes");
                b
            }),
            Lane::Q312Saturating => compare(&obb.quantize(), &mut exits, || {
                let big = rng.gen_range(0..3usize);
                let mut f = |k: usize| {
                    let (lo, hi) = if k == big { (4.7, 6.0) } else { (0.02, 0.5) };
                    rng.gen_range(lo..hi)
                };
                let half = Vec3::new(f(0), f(1), f(2));
                let b = past_the_filters(&mut rng, &obb, half).quantize();
                assert!(b.half.max_element().to_f32() >= 4.7, "box {b:?} fits");
                b
            }),
        };
    }
    exits
}

/// Drives one `HoistedCascade` over `obb` across [`BOXES_PER_OBB`] boxes
/// from `draw`, each redrawn until it reaches a SAT stage; returns how
/// many reached one.
fn compare<S: Scalar>(
    obb: &Obb<S>,
    exits: &mut SatExits,
    mut draw: impl FnMut() -> Aabb<S>,
) -> u64 {
    let cfg = CascadeConfig::proposed();
    let mut hoisted = HoistedCascade::new(obb);
    let mut reached = 0;
    for _ in 0..BOXES_PER_OBB {
        for _ in 0..64 {
            let b = draw();
            let want = cascaded_obb_aabb(obb, &b, &cfg);
            let (c, h) = (b.center, b.half);
            let got = hoisted.outcome(c.x, c.y, c.z, h.x, h.y, h.z);
            assert_eq!(got, want, "obb {obb:?} box {b:?}");
            let exit = match want.exit {
                ExitStage::Sat(k) => usize::from(k) - 1,
                ExitStage::Exhausted => 3,
                ExitStage::BoundingSphere | ExitStage::InscribedSphere => continue,
            };
            exits[exit] += 1;
            reached += 1;
            break;
        }
    }
    reached
}

/// An OBB with its centre within ±1, half extents 0.02–0.5 and an
/// arbitrary rotation.
fn random_obb(rng: &mut StdRng) -> Obb<f32> {
    let mut f = |lo: f32, hi: f32| rng.gen_range(lo..hi);
    let rotation = Mat3::rotation_z(f(-3.2, 3.2))
        * Mat3::rotation_y(f(-1.6, 1.6))
        * Mat3::rotation_x(f(-3.2, 3.2));
    Obb::new(
        Vec3::new(f(-1.0, 1.0), f(-1.0, 1.0), f(-1.0, 1.0)),
        Vec3::new(f(0.02, 0.5), f(0.02, 0.5), f(0.02, 0.5)),
        rotation,
    )
}

fn small_half(rng: &mut StdRng) -> Vec3 {
    let mut f = || rng.gen_range(0.02f32..0.5);
    Vec3::new(f(), f(), f())
}

/// A box with half extents `half` whose nearest point lies strictly
/// between `obb`'s inscribed and bounding radii from its centre, in a
/// random direction, so the `f32` sphere filters leave it to the SAT
/// stages.
fn past_the_filters(rng: &mut StdRng, obb: &Obb<f32>, half: Vec3) -> AabbF {
    let s = rng.gen_range(0.05f32..0.95);
    let d = obb.inscribed_radius + s * (obb.bounding_radius - obb.inscribed_radius);
    let mut f = || rng.gen_range(-1.0f32..1.0);
    let dir = Vec3::new(f(), f(), f());
    let w = dir.abs() * (1.0 / dir.abs().length().max(1e-6));
    // Per axis the box starts `d * w` past the centre, so its nearest
    // point lies at distance `d`.
    let off = |x: f32, w: f32, h: f32| (d * w + h).copysign(x);
    let center = obb.center
        + Vec3::new(
            off(dir.x, w.x, half.x),
            off(dir.y, w.y, half.y),
            off(dir.z, w.z, half.z),
        );
    Aabb::new(center, half)
}
