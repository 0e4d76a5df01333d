//! The four workloads. Each turns the run seed into its inputs, times
//! nothing itself (the runner does), checks its outputs, and reports the
//! deterministic accounting the modeled metrics are computed from.

use std::collections::BTreeMap;

use crate::trace::{Probe, Recorded};
use crate::{Fnv, Scale};

pub mod accel_replay;
pub mod plan_clutter;
pub mod plan_paper;
pub mod planning;
pub mod service_overload;

/// Deterministic accounting over a fixed prefix of operations, from
/// which the modeled end-to-end metrics are computed. Identical for a
/// given seed on any host.
#[derive(Clone, Debug, Default)]
pub struct Det {
    /// Operations accounted.
    pub ops: u64,
    /// Successful outcomes (`ok_frac` numerator).
    pub ok: u64,
    /// Attempts the successes are counted against.
    pub attempts: u64,
    /// Plans delivered (`uj_per_plan` denominator).
    pub plans: u64,
    /// Modeled energy of the delivered plans, pJ.
    pub plan_energy_pj: f64,
    /// Units of work done.
    pub work: u64,
    /// Modeled energy of that work, pJ.
    pub work_energy_pj: f64,
    /// Sum of the modeled latency of every plan, µs.
    pub modeled_sum_us: f64,
    /// Plans in that sum.
    pub modeled_n: u64,
    /// Tail samples, µs: per-plan values whose p99 is taken, or per-call
    /// p99s whose median is taken (see [`Workload::TAIL_OF_CALLS`]).
    pub tail_us: Vec<f64>,
    /// Named deterministic counts, printed and compared across runs.
    pub counts: BTreeMap<&'static str, u64>,
    /// Digest of every output.
    pub digest: Fnv,
}

impl Det {
    /// Adds `n` to the named count.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_insert(0) += n;
    }
}

/// Per-layer values a workload derives from its outputs and the traced
/// pass; names are per-layer metric names of `BENCHMARK.json`.
pub type LayerValues = BTreeMap<&'static str, f64>;

/// One benchmark workload.
pub trait Workload: Sized {
    /// One operation's input.
    type Input;
    /// One operation's output.
    type Output;

    /// Workload name.
    const NAME: &'static str;
    /// Whether `Det::tail_us` holds per-call p99s (median taken) rather
    /// than per-plan values (p99 taken).
    const TAIL_OF_CALLS: bool = false;

    /// Builds the program state the operations need. Timed as set-up.
    fn setup(seed: u64, scale: Scale, probe: Option<&Probe>) -> Self;

    /// Inputs are generated this many operations at a time.
    fn chunk(&self) -> usize;

    /// Warm-up operations before timing starts.
    fn warmup(&self) -> u64;

    /// Operations in the deterministic prefix, which also get the
    /// expensive output checks.
    fn det_ops(&self) -> u64;

    /// Inputs for operations `start..start + n`, a pure function of the
    /// seed and the indices (never repeated).
    fn inputs(&mut self, start: u64, n: usize) -> Vec<Self::Input>;

    /// The timed operation. With a probe, calls into the layers go through
    /// the timing wrappers.
    fn run(&mut self, op: u64, input: &Self::Input, probe: Option<&Probe>) -> Self::Output;

    /// Units of work the operation did.
    fn work(out: &Self::Output) -> u64;

    /// Correctness checks of one output (untimed). `thorough` is set for
    /// the leading operations that get the expensive checks.
    ///
    /// # Errors
    ///
    /// Returns what was wrong.
    fn check(
        &mut self,
        input: &Self::Input,
        out: &Self::Output,
        thorough: bool,
    ) -> Result<(), String>;

    /// Adds one output to the deterministic accounting (untimed).
    ///
    /// # Errors
    ///
    /// Returns a correctness violation the accounting exposes.
    fn account(
        &mut self,
        input: &Self::Input,
        out: &Self::Output,
        det: &mut Det,
    ) -> Result<(), String>;

    /// Adds one traced operation to the per-layer sums (untimed).
    fn layer_account(
        &mut self,
        op: u64,
        input: &Self::Input,
        out: &Self::Output,
        sums: &mut LayerValues,
    );

    /// Finishes the per-layer values from the traced pass: `sums` holds
    /// what [`Workload::layer_account`] added, and `det` the pass's
    /// deterministic accounting, over `det.ops` operations.
    fn layer_finish(&mut self, rec: &Recorded, sums: &LayerValues, det: &Det) -> LayerValues;
}

/// Adds `v` to the named per-layer sum.
pub fn add(sums: &mut LayerValues, name: &'static str, v: f64) {
    *sums.entry(name).or_insert(0.0) += v;
}

/// Host ns per item of `f` over `items`, best of three passes (the
/// replays that price FK and CECDU poses); 0 when there are no items.
pub fn replay_ns_per_item<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    (0..3)
        .map(|_| {
            let t = std::time::Instant::now();
            items.iter().for_each(&mut f);
            t.elapsed().as_nanos() as f64 / items.len() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
