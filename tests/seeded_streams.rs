//! Every seeded random stream the simulation draws, pinned to digests.
//!
//! The fault injectors, the arrival processes, the shard-failure
//! schedule and the consistent-hash ring are pure functions of their
//! seeds, and every committed soak, integrity and fleet artifact depends
//! on them. Each group below is pinned to an FNV digest of its `Debug`
//! text, so a change to a generator, a seed derivation or a mixer fails
//! here, before it shows up as a moved service digest or artifact.

use mpaccel::service::HashRing;
use mpaccel::sim::arrival::{ArrivalKind, ArrivalProcess};
use mpaccel::sim::fault::{
    FaultInjector, FaultKind, FaultPlan, SdcInjector, SdcPlan, ShardFaultEvent, ShardFaultKind,
    ShardFaultPlan,
};

/// FNV-1a (64-bit) of a `Debug` text.
fn digest(text: &str) -> u64 {
    text.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

/// The stream the service draws: `fires` over `FaultKind::ALL`, once per
/// dispatch.
#[test]
fn fault_injector_streams_match_their_pinned_digest() {
    let mut text = String::new();
    for seed in [0, 1, 42, u64::MAX] {
        let plan = FaultKind::ALL
            .iter()
            .enumerate()
            .fold(FaultPlan::none(seed), |plan, (i, &kind)| {
                plan.with_rate(kind, 0.05 + 0.15 * i as f64)
            });
        let mut inj = FaultInjector::new(plan);
        for _ in 0..400 {
            let fired: Vec<bool> = FaultKind::ALL.iter().map(|&k| inj.fires(k)).collect();
            text.push_str(&format!("{fired:?}\n"));
        }
        text.push_str(&format!("{:?}\n", inj.counters()));
    }
    assert_eq!(
        digest(&text),
        0x1EE1_0E5C_5BD6_3267,
        "fault injector streams moved"
    );
}

#[test]
fn sdc_streams_match_their_pinned_digest() {
    let mut text = String::new();
    for seed in [0, 7, 1_234_567] {
        let plan = SdcPlan::uniform(0.3, seed);
        for instance in 0..6 {
            let stream = plan.stream(instance);
            let mut inj = SdcInjector::new(stream);
            let flips: Vec<bool> = (0..256).map(|_| inj.flips_verdict()).collect();
            text.push_str(&format!("{}|{flips:?}\n", stream.seed));
        }
    }
    assert_eq!(digest(&text), 0x3211_85B0_BCFA_23F4, "SDC streams moved");
}

#[test]
fn arrival_streams_match_their_pinned_digest() {
    let kinds = [
        ArrivalKind::Poisson,
        ArrivalKind::Bursty {
            burst_factor: 4.0,
            period_us: 2_000,
            duty: 0.25,
        },
        ArrivalKind::Adversarial { batch: 16 },
    ];
    let mut text = String::new();
    for kind in kinds {
        for seed in [0, 3, 101] {
            let p = ArrivalProcess {
                kind,
                rate_per_s: 20_000.0,
                seed,
            };
            text.push_str(&format!("{:?}\n", p.generate(20_000_000)));
            text.push_str(&format!(
                "{:?}\n",
                p.generate_between(5_000_000, 15_000_000)
            ));
        }
    }
    assert_eq!(
        digest(&text),
        0x11AF_FFAA_6CF2_8636,
        "arrival streams moved"
    );
}

#[test]
fn shard_fault_schedules_match_their_pinned_digest() {
    let flap = ShardFaultEvent {
        at_ns: 3_000_000,
        shard: 2,
        kind: ShardFaultKind::Flap,
        duration_ns: 0,
        slow_factor: 1,
    };
    let mut text = String::new();
    for seed in [0, 9, 77] {
        let plan = ShardFaultPlan {
            crash_rate_per_s: 40.0,
            stall_rate_per_s: 20.0,
            flap_rate_per_s: 10.0,
            ..ShardFaultPlan::scripted(seed, vec![flap])
        };
        text.push_str(&format!("{:?}\n", plan.schedule(8, 200_000_000)));
    }
    assert_eq!(
        digest(&text),
        0x8E2C_80E8_FE27_689B,
        "shard fault schedules moved"
    );
}

#[test]
fn hash_ring_slots_and_routes_match_their_pinned_digest() {
    let mut text = String::new();
    for seed in [0, 5, 0xDEAD_BEEF] {
        let mut ring = HashRing::new(8, 16, seed);
        text.push_str(&format!("{:?}\n", ring.vnode_shards()));
        let loads: Vec<usize> = (0..8).map(|s| (s * 7 + seed as usize) % 11).collect();
        for key in 0..200u64 {
            let slot = ring.slot(key.wrapping_mul(0x0123_4567_89AB_CDEF));
            text.push_str(&format!(
                "{}:{:?} ",
                slot.index(),
                ring.route(slot, &loads, 125)
            ));
        }
        ring.remove(3);
        ring.remove(6);
        for key in 0..200u64 {
            let slot = ring.slot(key);
            text.push_str(&format!("{:?} ", ring.route(slot, &loads, 110)));
        }
        text.push('\n');
    }
    assert_eq!(
        digest(&text),
        0x8FE6_74F2_4000_EA8D,
        "hash ring routes moved"
    );
}
