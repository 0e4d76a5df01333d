//! `run_sas` is cycle-exact: it skips the cycles in which nothing can
//! dispatch, and its result is the one stepping every cycle gives.
//!
//! The reference below is the scheduler loop as it was before it skipped
//! idle cycles, kept verbatim. Both loops run every `SasConfig` preset (also
//! `idealized()`, `ms()` and a smaller group), the binary-recursive and
//! random policies and a cap of two in-flight queries per motion, under
//! all three `FunctionMode`s, on seeded batches, some larger than the
//! inter-motion group. Each loop drives its own scripted CDU: the k-th
//! query gets the k-th scripted response (latency 1–200 cycles, a random
//! verdict and random work), so the two runs agree only if they dispatch
//! the same poses in the same order. The test requires equal pose
//! sequences, `cycles`, `queries`, `ops`, `motion_results` and `outcome`,
//! and that some Feasibility and Connectivity runs stop early with queries
//! still in flight (their billed `cd_queries` fall short of `queries`).

use mpaccel::accel::sas::{
    run_sas, CduModel, CduResponse, FunctionMode, IntraPolicy, SasConfig, SasOutcome, SasRunResult,
};
use mpaccel::robot::{JointConfig, MotionDescriptor};
use mpaccel::sim::OpCounter;
use mpaccel::telemetry as mp_telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A CDU that answers the k-th query with the k-th response of a seeded
/// script and records every pose it is asked.
struct ScriptedCdu {
    rng: StdRng,
    max_latency: u64,
    collide_per_mille: u32,
    poses: Vec<Vec<u32>>,
}

impl ScriptedCdu {
    fn new(seed: u64, max_latency: u64, collide_per_mille: u32) -> ScriptedCdu {
        ScriptedCdu {
            rng: StdRng::seed_from_u64(seed),
            max_latency,
            collide_per_mille,
            poses: Vec::new(),
        }
    }
}

impl CduModel for ScriptedCdu {
    fn query(&mut self, pose: &JointConfig) -> CduResponse {
        self.poses
            .push(pose.as_slice().iter().map(|q| q.to_bits()).collect());
        CduResponse {
            colliding: self.rng.gen_range(0..1000u32) < self.collide_per_mille,
            latency: self.rng.gen_range(1..=self.max_latency),
            ops: OpCounter {
                cd_queries: 1,
                mults: self.rng.gen_range(0..500u64),
                box_tests: self.rng.gen_range(0..50u64),
                ..OpCounter::default()
            },
        }
    }
}

/// A batch of `n` two-joint motions of 1–30 poses each.
fn batch(rng: &mut StdRng, n: usize) -> Vec<MotionDescriptor> {
    (0..n)
        .map(|_| MotionDescriptor {
            start: JointConfig::new(vec![
                rng.gen_range(-1.0f32..1.0),
                rng.gen_range(-1.0f32..1.0),
            ]),
            delta: JointConfig::new(vec![
                rng.gen_range(-0.05f32..0.05),
                rng.gen_range(-0.05f32..0.05),
            ]),
            count: rng.gen_range(1..=30usize),
        })
        .collect()
}

/// Every preset at 1, 3 and 16 CDUs, each also idealized, plus the
/// policies and caps no preset covers.
fn configs() -> Vec<SasConfig> {
    let mut out = Vec::new();
    for n in [1usize, 3, 16] {
        let presets = [
            SasConfig::sequential(),
            SasConfig::naive_parallel(n),
            SasConfig::mcsp(n),
            SasConfig::csp(n),
            SasConfig::inter_only(n),
            SasConfig::ms(n),
            SasConfig::mcsp(n).with_group_size(4),
            SasConfig {
                intra: IntraPolicy::BinaryRecursive,
                ..SasConfig::mcsp(n)
            },
            SasConfig {
                intra: IntraPolicy::Random { seed: 5 },
                ..SasConfig::csp(n)
            },
            SasConfig {
                max_outstanding_per_motion: 2,
                ..SasConfig::mcsp(n)
            },
        ];
        for cfg in presets {
            out.push(cfg);
            out.push(cfg.idealized());
        }
    }
    out
}

#[test]
fn skipping_idle_cycles_matches_stepping_every_cycle() {
    let modes = [
        FunctionMode::Feasibility,
        FunctionMode::Connectivity,
        FunctionMode::Complete,
    ];
    let mut rng = StdRng::seed_from_u64(2023);
    let mut runs = 0u32;
    let mut early_with_work_in_flight = [0u32; 2];
    for (c, cfg) in configs().iter().enumerate() {
        for (b, size) in [1usize, 6, 20, 40].into_iter().enumerate() {
            let motions = batch(&mut rng, size);
            let max_latency = [1u64, 3, 40, 200][(c + b) % 4];
            let collide = [0u32, 15, 120][(c + 2 * b) % 3];
            for (mi, mode) in modes.into_iter().enumerate() {
                let seed = (c * 100 + b * 10 + mi) as u64;
                let mut fast_cdu = ScriptedCdu::new(seed, max_latency, collide);
                let mut ref_cdu = ScriptedCdu::new(seed, max_latency, collide);
                let fast = run_sas(&motions, mode, cfg, &mut fast_cdu);
                let want = reference_run_sas(&motions, mode, cfg, &mut ref_cdu);
                let ctx = format!("cfg {cfg:?} batch {size} mode {mode:?} seed {seed}");
                assert_eq!(fast_cdu.poses, ref_cdu.poses, "dispatch order: {ctx}");
                assert_eq!(fast, want, "{ctx}");
                runs += 1;
                let SasRunResult { queries, ops, .. } = want;
                if ops.cd_queries < queries {
                    match want.outcome {
                        SasOutcome::CollisionFound(_) => early_with_work_in_flight[0] += 1,
                        SasOutcome::FreeMotionFound(_) => early_with_work_in_flight[1] += 1,
                        _ => {}
                    }
                }
            }
        }
    }
    assert_eq!(runs, 60 * 4 * 3);
    assert!(
        early_with_work_in_flight.iter().all(|&n| n >= 5),
        "early stops with queries in flight (feasibility, connectivity): \
         {early_with_work_in_flight:?}"
    );
}

/// Per-motion scheduling state.
struct MotionState {
    descriptor: MotionDescriptor,
    order: Vec<usize>,
    next: usize,
    outstanding: usize,
    checked: usize,
    result: Option<bool>,
}

impl MotionState {
    fn resolved(&self) -> bool {
        self.result.is_some()
    }
    fn has_pending(&self) -> bool {
        self.result.is_none() && self.next < self.order.len()
    }
}

/// The cycle-stepping scheduler loop `run_sas` had before it skipped idle
/// cycles, kept verbatim as the reference: it steps one cycle at a time,
/// clones every descriptor and allocates per cycle and per query.
fn reference_run_sas(
    motions: &[MotionDescriptor],
    mode: FunctionMode,
    cfg: &SasConfig,
    cdu: &mut impl CduModel,
) -> SasRunResult {
    assert!(!motions.is_empty(), "SAS needs at least one motion");
    assert!(cfg.num_cdus >= 1, "SAS needs at least one CDU");
    assert!(cfg.group_size >= 1, "group size must be at least 1");

    let batch_span = mp_telemetry::span_args(
        "core",
        "sas_batch",
        mp_telemetry::arg1("motions", mp_telemetry::ArgValue::U64(motions.len() as u64)),
    );

    let mut states: Vec<MotionState> = motions
        .iter()
        .enumerate()
        .map(|(i, d)| MotionState {
            descriptor: d.clone(),
            order: cfg.intra.order(d.count, i),
            next: 0,
            outstanding: 0,
            checked: 0,
            result: None,
        })
        .collect();

    // CDU array: busy-until time and the in-flight completion.
    struct InFlight {
        finish: u64,
        motion: usize,
        colliding: bool,
        ops: OpCounter,
    }
    let mut cdus: Vec<Option<InFlight>> = (0..cfg.num_cdus).map(|_| None).collect();

    let mut t: u64 = 0;
    let mut queries: u64 = 0;
    let mut ops = OpCounter::default();
    let mut rr_cursor = 0usize; // round-robin over the motion window

    let outcome = 'run: loop {
        // 1. Retire completions due at or before t.
        for slot in cdus.iter_mut() {
            let Some(f) = slot else { continue };
            if f.finish > t {
                continue;
            }
            let m = &mut states[f.motion];
            m.outstanding -= 1;
            m.checked += 1;
            ops += f.ops;
            if f.colliding && m.result.is_none() {
                // Remove the motion from the schedule (§5.1: "It removes a
                // motion from the scheduling list if an intermediate pose
                // for this motion is found to be colliding").
                m.result = Some(true);
                m.next = m.order.len();
                if mode == FunctionMode::Feasibility {
                    let idx = f.motion;
                    *slot = None;
                    break 'run SasOutcome::CollisionFound(idx);
                }
            } else if m.result.is_none() && m.checked == m.descriptor.count && m.outstanding == 0 {
                m.result = Some(false);
                if mode == FunctionMode::Connectivity {
                    let idx = f.motion;
                    *slot = None;
                    break 'run SasOutcome::FreeMotionFound(idx);
                }
            }
            *slot = None;
        }

        // 2. Build the dispatch window.
        let window: Vec<usize> = if cfg.inter_motion {
            states
                .iter()
                .enumerate()
                .filter(|(_, m)| !m.resolved())
                .map(|(i, _)| i)
                .take(cfg.group_size)
                .collect()
        } else {
            states
                .iter()
                .enumerate()
                .find(|(_, m)| m.has_pending() || m.outstanding > 0)
                .map(|(i, _)| vec![i])
                .unwrap_or_default()
        };

        // 3. Dispatch up to dispatch_per_cycle queries to free CDUs. The
        // slot index only feeds the telemetry CDU-lane events.
        let mut dispatched = 0usize;
        if !window.is_empty() {
            for (slot_idx, slot) in cdus.iter_mut().enumerate() {
                if dispatched >= cfg.dispatch_per_cycle {
                    break;
                }
                if slot.is_some() {
                    continue;
                }
                // Round-robin over window members that still have poses.
                let mut chosen = None;
                for k in 0..window.len() {
                    let mi = window[(rr_cursor + k) % window.len()];
                    if states[mi].has_pending()
                        && states[mi].outstanding < cfg.max_outstanding_per_motion
                    {
                        chosen = Some(mi);
                        rr_cursor = (rr_cursor + k + 1) % window.len();
                        break;
                    }
                }
                let Some(mi) = chosen else { break };
                let m = &mut states[mi];
                let pose_idx = m.order[m.next];
                m.next += 1;
                m.outstanding += 1;
                let pose = m.descriptor.pose(pose_idx);
                let resp = cdu.query(&pose);
                queries += 1;
                dispatched += 1;
                // One Perfetto row per CDU dispatch slot, timestamped in
                // cycles (the SAS clock), showing lane occupancy.
                mp_telemetry::complete_at(
                    mp_telemetry::Lane::new("cdu", slot_idx as u32),
                    "core",
                    "cd_query",
                    t,
                    resp.latency.max(1),
                    mp_telemetry::arg2(
                        "motion",
                        mp_telemetry::ArgValue::U64(mi as u64),
                        "colliding",
                        mp_telemetry::ArgValue::U64(resp.colliding as u64),
                    ),
                );
                *slot = Some(InFlight {
                    finish: t + resp.latency.max(1),
                    motion: mi,
                    colliding: resp.colliding,
                    ops: resp.ops,
                });
            }
        }

        // 4. Check global termination.
        let all_resolved = states.iter().all(MotionState::resolved);
        let any_inflight = cdus.iter().any(Option::is_some);
        if all_resolved && !any_inflight {
            break match mode {
                FunctionMode::Feasibility => SasOutcome::AllFree,
                FunctionMode::Connectivity => SasOutcome::NoFreeMotion,
                FunctionMode::Complete => SasOutcome::Completed,
            };
        }

        // 5. Advance time: next cycle if we can still dispatch, else jump
        // to the earliest completion.
        let can_dispatch_next =
            states.iter().any(MotionState::has_pending) && cdus.iter().any(Option::is_none);
        if can_dispatch_next {
            t += 1;
        } else {
            // Loop invariant: the batch is not finished (checked above),
            // so either a motion has pending work and a CDU is free
            // (handled in the branch above) or some CDU is busy — an
            // empty in-flight set here would mean lost work.
            let next_finish = cdus
                .iter()
                .flatten()
                .map(|f| f.finish)
                .min()
                .expect("in-flight work must exist if nothing can dispatch");
            t = next_finish.max(t + 1);
        }
    };

    // Account for the result aggregation cycle (§5.1, step 6).
    batch_span.end_with(|| {
        mp_telemetry::arg2(
            "cycles",
            mp_telemetry::ArgValue::U64(t + 1),
            "queries",
            mp_telemetry::ArgValue::U64(queries),
        )
    });
    SasRunResult {
        cycles: t + 1,
        queries,
        ops,
        motion_results: states.into_iter().map(|m| m.result).collect(),
        outcome,
    }
}
