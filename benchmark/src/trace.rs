//! Tracing from outside the crates: wrappers that time the calls a
//! workload makes into each layer, an in-memory span store, and the
//! Chrome trace-event writer.
//!
//! Every operation gets one root span keyed by its index. Child spans
//! come from [`TimedChecker`], [`TimedSampler`] and [`Probe::time`]. Every
//! operation sums its child time per layer; only sampled operations (every
//! [`SAMPLE_EVERY`]th) keep each individual span and the poses they
//! checked, which the traced run later replays through forward kinematics.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

use mp_collision::{CdStats, CollisionChecker};
use mp_planner::NeuralSampler;
use mp_robot::{JointConfig, RobotModel};

use crate::json::{write_num, write_str};

/// Operations whose individual spans (and checked poses) are kept.
pub const SAMPLE_EVERY: u64 = 50;

/// The layers a child span can belong to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `CollisionChecker::check_pose` (crate `mp-collision`).
    Check,
    /// `NeuralSampler::next_pose` (crate `mp-planner`).
    Sample,
    /// `Octree::build` (crate `mp-octree`).
    Build,
    /// `MpAccelSystem::run_trace_ledgered` (crate `mpaccel-core`).
    RunTrace,
    /// `run_service` (crate `mp-service`).
    Service,
    /// `run_fleet` (crate `mp-service`).
    Fleet,
}

impl Layer {
    /// Number of layers.
    pub const COUNT: usize = 6;

    /// Every layer, in index order.
    pub const ALL: [Layer; Layer::COUNT] = [
        Layer::Check,
        Layer::Sample,
        Layer::Build,
        Layer::RunTrace,
        Layer::Service,
        Layer::Fleet,
    ];

    /// Span name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Check => "collision.check_pose",
            Layer::Sample => "planner.next_pose",
            Layer::Build => "octree.build",
            Layer::RunTrace => "core.run_trace_ledgered",
            Layer::Service => "service.run_service",
            Layer::Fleet => "service.run_fleet",
        }
    }
}

/// One kept child span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// The layer it belongs to.
    pub layer: Layer,
    /// Owning operation.
    pub op: u64,
    /// Start, ns since the probe's epoch.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
}

/// One operation's root span with its accounting: `self_ns`, the layer
/// sums in `children_ns` and `unattributed_ns` add up to `dur_ns` exactly.
#[derive(Clone, Debug)]
pub struct Root {
    /// Operation index.
    pub op: u64,
    /// Start, ns since the probe's epoch.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
    /// Child time per layer ([`Layer`] index order).
    pub layer_ns: [u64; Layer::COUNT],
    /// Estimated cost of the instrumentation itself inside the span
    /// (clock reads and bookkeeping around each child call), which belongs
    /// to no layer of the program.
    pub unattributed_ns: u64,
    /// What is left: the caller's own time (the planner's own work, or
    /// the code around the simulation calls).
    pub self_ns: u64,
    /// Whether the operation kept its individual spans.
    pub sampled: bool,
}

impl Root {
    /// Total child time.
    pub fn children_ns(&self) -> u64 {
        self.layer_ns.iter().sum()
    }
}

#[derive(Default)]
struct State {
    op: u64,
    sampled: bool,
    layer_ns: [u64; Layer::COUNT],
    layer_calls: [u64; Layer::COUNT],
    calls: u64,
    // Run-wide stores.
    roots: Vec<Root>,
    spans: Vec<Span>,
    poses: Vec<JointConfig>,
    check_ns: Vec<u32>,
    check_hits: u64,
    build_ns: Vec<u64>,
    totals_ns: [u64; Layer::COUNT],
    totals_calls: [u64; Layer::COUNT],
}

/// The span store and clock shared by every wrapper of a traced run.
pub struct Probe {
    epoch: Instant,
    /// Root-span time one wrapped call adds outside its own child span
    /// (clock reads and bookkeeping), measured on a call that does
    /// nothing.
    call_cost_ns: f64,
    state: RefCell<State>,
}

impl Default for Probe {
    fn default() -> Probe {
        Probe::new()
    }
}

impl Probe {
    /// A probe whose epoch is now. Prices the instrumentation by running
    /// wrapped calls that do nothing inside a root span: what the root
    /// holds beyond their child spans is the wrappers' own cost, which the
    /// traced operations' root spans then report as unattributed.
    pub fn new() -> Probe {
        let mut probe = Probe {
            epoch: Instant::now(),
            call_cost_ns: 0.0,
            state: RefCell::new(State::default()),
        };
        let calls = 100_000u32;
        let home = JointConfig::zeros(0);
        probe.begin(1);
        let start = probe.now();
        for _ in 0..calls {
            let t0 = probe.now();
            std::hint::black_box(&home);
            let t1 = probe.now();
            probe.record_check(t0, t1, false, &home);
        }
        let end = probe.now();
        let spans = probe.state.borrow().layer_ns[Layer::Check as usize];
        probe.call_cost_ns = (end - start).saturating_sub(spans) as f64 / f64::from(calls);
        probe.state = RefCell::new(State::default());
        probe
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts operation `op`.
    pub fn begin(&self, op: u64) {
        let mut s = self.state.borrow_mut();
        s.op = op;
        s.sampled = op.is_multiple_of(SAMPLE_EVERY);
        s.layer_ns = [0; Layer::COUNT];
        s.layer_calls = [0; Layer::COUNT];
        s.calls = 0;
    }

    /// Closes the current operation's root span `[start_ns, end_ns)`.
    pub fn end(&self, start_ns: u64, end_ns: u64) {
        let mut s = self.state.borrow_mut();
        let dur_ns = end_ns - start_ns;
        let children: u64 = s.layer_ns.iter().sum();
        let spare = dur_ns.saturating_sub(children);
        let unattributed_ns = ((s.calls as f64 * self.call_cost_ns) as u64).min(spare);
        let root = Root {
            op: s.op,
            start_ns,
            dur_ns,
            layer_ns: s.layer_ns,
            unattributed_ns,
            self_ns: spare - unattributed_ns,
            sampled: s.sampled,
        };
        for l in 0..Layer::COUNT {
            s.totals_ns[l] += s.layer_ns[l];
            s.totals_calls[l] += s.layer_calls[l];
        }
        s.roots.push(root);
    }

    fn record(&self, layer: Layer, t0: u64, t1: u64) {
        let mut s = self.state.borrow_mut();
        let dur = t1 - t0;
        s.layer_ns[layer as usize] += dur;
        s.layer_calls[layer as usize] += 1;
        s.calls += 1;
        if s.sampled {
            let op = s.op;
            s.spans.push(Span {
                layer,
                op,
                start_ns: t0,
                dur_ns: dur,
            });
        }
        if layer == Layer::Build {
            s.build_ns.push(dur);
        }
    }

    /// Times `f` as one call into `layer`.
    pub fn time<T>(&self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let t0 = self.now();
        let out = f();
        let t1 = self.now();
        self.record(layer, t0, t1);
        out
    }

    fn record_check(&self, t0: u64, t1: u64, hit: bool, pose: &JointConfig) {
        self.record(Layer::Check, t0, t1);
        let mut s = self.state.borrow_mut();
        s.check_ns.push((t1 - t0).min(u64::from(u32::MAX)) as u32);
        s.check_hits += u64::from(hit);
        if s.sampled {
            s.poses.push(pose.clone());
        }
    }

    /// Consumes the probe into its recorded data.
    pub fn finish(self) -> Recorded {
        let s = self.state.into_inner();
        Recorded {
            roots: s.roots,
            spans: s.spans,
            poses: s.poses,
            check_ns: s.check_ns,
            check_hits: s.check_hits,
            build_ns: s.build_ns,
            totals_ns: s.totals_ns,
            totals_calls: s.totals_calls,
        }
    }
}

/// Everything a traced pass recorded.
pub struct Recorded {
    /// One root span per operation.
    pub roots: Vec<Root>,
    /// Child spans of the sampled operations.
    pub spans: Vec<Span>,
    /// Poses checked by the sampled operations.
    pub poses: Vec<JointConfig>,
    /// Duration of every timed `check_pose` call (ns).
    pub check_ns: Vec<u32>,
    /// Timed `check_pose` calls that reported a collision.
    pub check_hits: u64,
    /// Duration of every timed `Octree::build` (ns).
    pub build_ns: Vec<u64>,
    /// Child time per layer over the whole pass (ns).
    pub totals_ns: [u64; Layer::COUNT],
    /// Child calls per layer over the whole pass.
    pub totals_calls: [u64; Layer::COUNT],
}

impl Recorded {
    /// Total root-span time (ns).
    pub fn root_ns(&self) -> u64 {
        self.roots.iter().map(|r| r.dur_ns).sum()
    }

    /// Writes the spans as Chrome trace-event JSON on the host clock
    /// (µs), one track for root spans and one for their children.
    pub fn chrome_json(&self, workload: &str) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        let mut first = true;
        let mut event =
            |out: &mut String, name: &str, tid: u32, start: u64, dur: u64, args: &str| {
                if !first {
                    out.push_str(",\n");
                }
                first = false;
                out.push_str("{\"name\":");
                write_str(out, name);
                let _ = write!(out, ",\"cat\":");
                write_str(out, workload);
                out.push_str(",\"ph\":\"X\",\"pid\":1,\"tid\":");
                let _ = write!(out, "{tid},\"ts\":");
                write_num(out, start as f64 / 1e3);
                out.push_str(",\"dur\":");
                write_num(out, dur as f64 / 1e3);
                out.push_str(",\"args\":{");
                out.push_str(args);
                out.push_str("}}");
            };
        for r in &self.roots {
            let mut args = format!(
                "\"op\":{},\"start_ns\":{},\"dur_ns\":{},\"self_ns\":{},\"children_ns\":{},\"unattributed_ns\":{},\"sampled\":{}",
                r.op,
                r.start_ns,
                r.dur_ns,
                r.self_ns,
                r.children_ns(),
                r.unattributed_ns,
                r.sampled
            );
            for l in Layer::ALL {
                let _ = write!(args, ",\"{}_ns\":{}", l.name(), r.layer_ns[l as usize]);
            }
            event(&mut out, "op", 1, r.start_ns, r.dur_ns, &args);
        }
        for s in &self.spans {
            let args = format!(
                "\"op\":{},\"start_ns\":{},\"dur_ns\":{}",
                s.op, s.start_ns, s.dur_ns
            );
            event(&mut out, s.layer.name(), 2, s.start_ns, s.dur_ns, &args);
        }
        out.push_str("\n]}\n");
        out
    }
}

/// A [`CollisionChecker`] that times every `check_pose` call of the
/// checker it wraps.
pub struct TimedChecker<'p, C> {
    inner: C,
    probe: &'p Probe,
}

impl<'p, C: CollisionChecker> TimedChecker<'p, C> {
    /// Wraps `inner`, recording into `probe`.
    pub fn new(inner: C, probe: &'p Probe) -> TimedChecker<'p, C> {
        TimedChecker { inner, probe }
    }
}

impl<C: CollisionChecker> CollisionChecker for TimedChecker<'_, C> {
    fn robot(&self) -> &RobotModel {
        self.inner.robot()
    }

    fn check_pose(&mut self, cfg: &JointConfig) -> bool {
        let t0 = self.probe.now();
        let hit = self.inner.check_pose(cfg);
        let t1 = self.probe.now();
        self.probe.record_check(t0, t1, hit, cfg);
        hit
    }

    fn stats(&self) -> CdStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }
}

/// A [`NeuralSampler`] that times every `next_pose` call of the sampler
/// it wraps.
pub struct TimedSampler<'p, S> {
    inner: S,
    probe: &'p Probe,
}

impl<'p, S: NeuralSampler> TimedSampler<'p, S> {
    /// Wraps `inner`, recording into `probe`.
    pub fn new(inner: S, probe: &'p Probe) -> TimedSampler<'p, S> {
        TimedSampler { inner, probe }
    }
}

impl<S: NeuralSampler> NeuralSampler for TimedSampler<'_, S> {
    fn next_pose(&mut self, current: &JointConfig, goal: &JointConfig) -> JointConfig {
        self.probe
            .time(Layer::Sample, || self.inner.next_pose(current, goal))
    }

    fn macs(&self) -> u64 {
        self.inner.macs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_collision::SoftwareChecker;
    use mp_octree::{Scene, SceneConfig};

    #[test]
    fn root_accounting_is_exact_and_children_nest() {
        let probe = Probe::new();
        let scene = Scene::random(SceneConfig::paper(), 1);
        let robot = RobotModel::jaco2();
        probe.begin(0);
        let t0 = probe.now();
        let mut c = TimedChecker::new(SoftwareChecker::new(robot.clone(), scene.octree()), &probe);
        for _ in 0..5 {
            let _ = c.check_pose(&robot.home());
        }
        let t1 = probe.now();
        probe.end(t0, t1);
        let rec = probe.finish();
        let r = &rec.roots[0];
        assert_eq!(r.self_ns + r.children_ns() + r.unattributed_ns, r.dur_ns);
        assert_eq!(rec.spans.len(), 5);
        assert_eq!(rec.poses.len(), 5);
        assert_eq!(rec.check_ns.len(), 5);
        for s in &rec.spans {
            assert!(s.start_ns >= r.start_ns && s.start_ns + s.dur_ns <= r.start_ns + r.dur_ns);
        }
        assert!(rec.chrome_json("t").contains("collision.check_pose"));
    }
}
