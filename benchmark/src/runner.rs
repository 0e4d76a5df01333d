//! The closed-loop runner shared by every workload: set-up, warm-up, the
//! timed window, the correctness gate, and the metric lines and records.
//!
//! One client sends operations back to back; the next starts when the
//! previous returns. Only the operation call itself is timed: inputs are
//! generated and outputs checked a chunk at a time between calls.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::json::{write_num, write_str};
use crate::spec::{spec, Metric};
use crate::trace::Probe;
use crate::workloads::{ratio, Det, LayerValues, Workload};
use crate::{calibrate, median, peak_rss_mib, percentile, Scale, REFERENCE_CALIB_NS};

/// Operation time between two runs of the calibration kernel in a timed
/// window. The host's interference episodes last seconds to minutes, so
/// the kernel reads the host's speed often enough to follow them, at a
/// cost of under 1% of the window.
const CALIB_EVERY_NS: u64 = 50_000_000;

/// Pauses in a timed window, each of which times one more set-up, so the
/// set-ups sample the host at moments seconds apart.
const PAUSES: u64 = 2;

/// Operations re-run after the window to check that outputs repeat.
const REPLAY_OPS: u64 = 8;

/// Settings of one `run` of one workload.
#[derive(Clone, Debug)]
pub struct Options {
    /// Input seed.
    pub seed: u64,
    /// Length of the timed window (s).
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Where the traced run writes its CSV and Chrome trace.
    pub trace_dir: std::path::PathBuf,
    /// Where each run writes its JSON record.
    pub out_dir: std::path::PathBuf,
    /// Input scale.
    pub scale: Scale,
}

/// Everything one run printed.
pub struct Report {
    /// `workload metric value unit` lines, then the final JSON line.
    pub lines: Vec<String>,
    /// Whether every correctness check passed.
    pub correct: bool,
}

/// Which operations of a pass are timed.
#[derive(Clone, Copy)]
enum Timing {
    /// Until this much operation time has been measured.
    Window(u64),
    /// Exactly this many operations.
    Count(u64),
}

/// What a pass runs, times, accounts and checks.
#[derive(Clone, Copy)]
struct Plan {
    /// First operation.
    from: u64,
    /// Which operations are timed.
    timing: Timing,
    /// Operations below this index always run (untimed past the window) and
    /// are the ones accounted; `None` accounts exactly the timed ones.
    det_until: Option<u64>,
    /// Whether outputs are checked, and below which index the expensive
    /// checks run.
    gate: Option<u64>,
    /// After this many accounted operations the digest is snapshotted.
    snapshot_at: u64,
}

/// Results of one or more passes.
#[derive(Default)]
struct Pass {
    op_ns: Vec<u64>,
    op_work: Vec<u64>,
    /// Calibration-kernel times (ns), each with the number of timed
    /// operations before it: one as a timed window opens and one after
    /// every [`CALIB_EVERY_NS`] of operation time and as it closes.
    calib: Vec<(usize, u64)>,
    det: Det,
    /// Digest and counts after the first `Plan::snapshot_at` accounted
    /// operations.
    prefix: Option<(u64, BTreeMap<&'static str, u64>)>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    sums: LayerValues,
}

impl Pass {
    /// Every timed operation's host time (ns) scaled to the reference
    /// host's speed: times [`REFERENCE_CALIB_NS`] over the mean of the
    /// calibration-kernel times before and after the stretch of operations
    /// it belongs to. Other tenants of a shared host slow this process by
    /// up to 2x for seconds to minutes at a time; the kernel slows with
    /// it. Without kernel runs (the traced run, which compares neighbouring
    /// chunks instead) the times are raw.
    fn scaled_ns(&self) -> Vec<f64> {
        let mut scale = vec![1.0; self.op_ns.len()];
        for pair in self.calib.windows(2) {
            let ((from, before), (to, after)) = (pair[0], pair[1]);
            scale[from..to].fill(REFERENCE_CALIB_NS * 2.0 / (before + after) as f64);
        }
        self.op_ns
            .iter()
            .zip(scale)
            .map(|(&d, s)| d as f64 * s)
            .collect()
    }

    /// The host's slowdown over the window: the median calibration-kernel
    /// time over [`REFERENCE_CALIB_NS`] (information).
    fn slowdown(&self) -> f64 {
        let calib: Vec<f64> = self.calib.iter().map(|&(_, ns)| ns as f64).collect();
        median(&calib) / REFERENCE_CALIB_NS
    }

    /// The end-to-end metrics a pass gives (all but set-up and memory).
    fn end_to_end<W: Workload>(&self) -> BTreeMap<&'static str, f64> {
        let scaled = self.scaled_ns();
        let secs = scaled.iter().sum::<f64>() * 1e-9;
        let work: u64 = self.op_work.iter().sum();
        let mut ms: Vec<f64> = scaled.iter().map(|&n| n / 1e6).collect();
        ms.sort_by(f64::total_cmp);
        let d = &self.det;
        let mut tail = d.tail_us.clone();
        tail.sort_by(f64::total_cmp);
        let tail = if W::TAIL_OF_CALLS {
            median(&tail)
        } else {
            percentile(&tail, 0.99)
        };
        BTreeMap::from([
            ("op_p50_ms", percentile(&ms, 0.50)),
            ("op_p99_ms", percentile(&ms, 0.99)),
            ("ops_per_s", ratio(ms.len() as f64, secs)),
            ("work_per_s", ratio(work as f64, secs)),
            ("uj_per_plan", ratio(d.plan_energy_pj / 1e6, d.plans as f64)),
            ("pj_per_work", ratio(d.work_energy_pj, d.work as f64)),
            (
                "modeled_us_per_plan",
                ratio(d.modeled_sum_us, d.modeled_n as f64),
            ),
            ("modeled_p99_us", tail),
            ("ok_frac", ratio(d.ok as f64, d.attempts as f64)),
        ])
    }
}

/// The chunk of inputs currently loaded.
struct Feed<W: Workload> {
    start: u64,
    inputs: Vec<W::Input>,
}

impl<W: Workload> Feed<W> {
    fn new() -> Feed<W> {
        Feed {
            start: 0,
            inputs: Vec::new(),
        }
    }

    fn holds(&self, op: u64) -> bool {
        op >= self.start && op < self.start + self.inputs.len() as u64
    }

    fn load(&mut self, w: &mut W, op: u64) {
        self.start = op;
        self.inputs = w.inputs(op, w.chunk());
    }

    fn get(&self, op: u64) -> &W::Input {
        &self.inputs[(op - self.start) as usize]
    }
}

/// Runs the operations `plan` names, adding what they did to `p`. A timed
/// window runs the calibration kernel as it opens, every
/// [`CALIB_EVERY_NS`] and as it closes, and is cut into [`PAUSES`] + 1
/// equal parts with `pause` called between them.
fn pass<W: Workload>(
    w: &mut W,
    feed: &mut Feed<W>,
    plan: Plan,
    probe: Option<&Probe>,
    p: &mut Pass,
    pause: &mut dyn FnMut(),
) {
    let mut pending: Vec<(u64, W::Output, bool)> = Vec::new();
    let mut measured = 0u64;
    let mut paused = 0u64;
    let window = match plan.timing {
        Timing::Window(ns) => Some(ns),
        Timing::Count(_) => None,
    };
    if window.is_some() {
        p.calib.push((p.op_ns.len(), calibrate()));
    }
    let mut next_calib = CALIB_EVERY_NS;
    let mut op = plan.from;
    loop {
        let timed = match plan.timing {
            Timing::Window(ns) => {
                if paused < PAUSES && measured >= ns / (PAUSES + 1) * (paused + 1) {
                    pause();
                    paused += 1;
                }
                measured < ns
            }
            Timing::Count(n) => op < plan.from + n,
        };
        if !timed && plan.det_until.is_none_or(|d| op >= d) {
            break;
        }
        if !feed.holds(op) {
            flush(w, feed, &mut pending, plan, probe.is_some(), p);
            feed.load(w, op);
        }
        let input = feed.get(op);
        if let Some(pr) = probe {
            pr.begin(op);
        }
        let start = probe.map(Probe::now);
        let t0 = Instant::now();
        let out = w.run(op, input, probe);
        let dt = t0.elapsed().as_nanos() as u64;
        if let (Some(pr), Some(a)) = (probe, start) {
            pr.end(a, pr.now());
        }
        if timed {
            measured += dt;
            p.op_ns.push(dt);
            p.op_work.push(W::work(&out));
            if window.is_some_and(|ns| measured >= next_calib.min(ns)) {
                p.calib.push((p.op_ns.len(), calibrate()));
                next_calib = measured + CALIB_EVERY_NS;
            }
        }
        p.attempted += 1;
        pending.push((op, out, timed));
        op += 1;
    }
    flush(w, feed, &mut pending, plan, probe.is_some(), p);
}

/// Checks, accounts and (when traced) layer-accounts the outputs of the
/// loaded chunk.
fn flush<W: Workload>(
    w: &mut W,
    feed: &Feed<W>,
    pending: &mut Vec<(u64, W::Output, bool)>,
    plan: Plan,
    traced: bool,
    p: &mut Pass,
) {
    for (op, out, timed) in pending.drain(..) {
        let input = feed.get(op);
        let mut verdict = match plan.gate {
            Some(thorough_until) => w.check(input, &out, op < thorough_until),
            None => Ok(()),
        };
        if plan.det_until.map_or(timed, |d| op < d) {
            verdict = verdict.and(w.account(input, &out, &mut p.det));
            if p.det.ops == plan.snapshot_at {
                p.prefix = Some((p.det.digest.0, p.det.counts.clone()));
            }
        }
        if let Err(e) = verdict {
            p.failed += 1;
            if p.failures.len() < 5 {
                p.failures.push(format!("op {op}: {e}"));
            }
        }
        if traced {
            w.layer_account(op, input, &out, &mut p.sums);
        }
    }
}

/// Runs operations `0..warmup` untimed and unchecked.
fn warm_up<W: Workload>(w: &mut W, feed: &mut Feed<W>) {
    for op in 0..w.warmup() {
        if !feed.holds(op) {
            feed.load(w, op);
        }
        std::hint::black_box(w.run(op, feed.get(op), None));
    }
}

/// The calibration kernel's time before a workload (median of nine runs),
/// printed so `compare` can flag runs on a slowed host.
fn calibration_ns() -> f64 {
    median(&(0..9).map(|_| calibrate() as f64).collect::<Vec<_>>())
}

fn line(workload: &str, name: &str, value: f64, unit: &str) -> String {
    format!("{workload} {name} {value:?} {unit}")
}

/// The contract line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
    values: &BTreeMap<&str, f64>,
) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        write_str(&mut s, &m.name);
        s.push_str(": {\"value\": ");
        write_num(&mut s, values[m.name.as_str()]);
        s.push_str(", \"unit\": ");
        write_str(&mut s, &m.unit);
        s.push('}');
    }
    s.push_str("}}");
    s
}

/// The run record `compare` reads: the contract line plus the seed,
/// calibration time, output digest and deterministic counts.
fn record_json(workload: &str, o: &Options, calib_ns: f64, det: &Det, result: &str) -> String {
    let mut s = String::from("{\"workload\": ");
    write_str(&mut s, workload);
    let _ = write!(
        s,
        ", \"seed\": {}, \"smoke\": {}, \"seconds\": ",
        o.seed,
        o.scale == Scale::Smoke
    );
    write_num(&mut s, o.seconds);
    s.push_str(", \"calib_ns\": ");
    write_num(&mut s, calib_ns);
    let _ = write!(
        s,
        ", \"output_digest\": \"{:016x}\", \"det_counts\": {{",
        det.digest.0
    );
    for (i, (k, v)) in det.counts.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        write_str(&mut s, k);
        let _ = write!(s, ": {v}");
    }
    s.push_str("}, \"result\": ");
    s.push_str(result);
    s.push_str("}\n");
    s
}

fn write_file(dir: &Path, name: &str, text: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Runs one workload per `o` and returns its printed lines.
///
/// # Errors
///
/// Returns a message when an output file cannot be written or the host
/// cannot report memory use.
pub fn run<W: Workload>(o: &Options) -> Result<Report, String> {
    if o.trace {
        run_traced::<W>(o)
    } else {
        run_end_to_end::<W>(o)
    }
}

fn run_end_to_end<W: Workload>(o: &Options) -> Result<Report, String> {
    let name = W::NAME;
    let calib_ns = calibration_ns();
    // Set-up builds the program state and loads the first chunk of
    // inputs. It is timed here and at each pause of the window, each time
    // scaled to the reference host's speed like the operations, and the
    // median is reported.
    let set_up = || {
        let t = Instant::now();
        let mut w = W::setup(o.seed, o.scale, None);
        let mut feed = Feed::new();
        feed.load(&mut w, 0);
        let secs = t.elapsed().as_secs_f64();
        (w, feed, secs * REFERENCE_CALIB_NS / calibrate() as f64)
    };
    let (mut w, mut feed, first) = set_up();
    let mut setup_s = vec![first];
    warm_up(&mut w, &mut feed);
    let from = w.warmup();
    let det_until = from + w.det_ops();
    let replay_ops = REPLAY_OPS.min(w.det_ops());
    let main = Plan {
        from,
        timing: Timing::Window((o.seconds * 1e9) as u64),
        det_until: Some(det_until),
        gate: Some(from + w.det_ops()),
        snapshot_at: replay_ops,
    };
    // Set-up is timed again at every pause of the window, so its
    // repetitions sample the host at moments seconds apart. Memory is read
    // at the first pause, before a second program state exists.
    let mut peak_rss = None;
    let mut pause = || {
        peak_rss.get_or_insert_with(peak_rss_mib);
        setup_s.push(set_up().2);
    };
    let mut p = Pass::default();
    pass(&mut w, &mut feed, main, None, &mut p, &mut pause);

    // Determinism: the first operations, re-run, reproduce their outputs.
    let replay = Plan {
        from,
        timing: Timing::Count(0),
        det_until: Some(from + replay_ops),
        gate: None,
        snapshot_at: replay_ops,
    };
    let mut again = Pass::default();
    pass(&mut w, &mut feed, replay, None, &mut again, &mut || {});
    let repeats = p.prefix.as_ref().is_some_and(|(digest, counts)| {
        *digest == again.det.digest.0 && *counts == again.det.counts
    });
    let mut failures = p.failures.clone();
    if !repeats {
        failures.push("re-running the first operations changed their outputs".to_string());
    }

    let mut values = p.end_to_end::<W>();
    values.insert("peak_rss_mb", peak_rss.unwrap_or_else(peak_rss_mib)?);
    values.insert("setup_s", median(&setup_s));
    let correct = p.failed == 0 && repeats;

    let metrics = &spec().end_to_end;
    if let Some(m) = metrics
        .iter()
        .find(|m| !values.contains_key(m.name.as_str()))
    {
        return Err(format!(
            "{name} does not measure end-to-end metric {}",
            m.name
        ));
    }
    let mut lines: Vec<String> = metrics
        .iter()
        .map(|m| line(name, &m.name, values[m.name.as_str()], &m.unit))
        .collect();
    lines.push(line(name, "info.samples", p.op_ns.len() as f64, "count"));
    lines.push(line(name, "info.calib_ns", calib_ns, "ns"));
    lines.push(line(name, "info.host_slowdown", p.slowdown(), "x"));
    let raw_secs = p.op_ns.iter().sum::<u64>() as f64 * 1e-9;
    let raw_work = p.op_work.iter().sum::<u64>() as f64;
    lines.push(line(
        name,
        "info.unscaled_work_per_s",
        ratio(raw_work, raw_secs),
        "1/s",
    ));
    for (k, v) in &p.det.counts {
        lines.push(line(name, &format!("info.det.{k}"), *v as f64, "count"));
    }
    lines.push(format!(
        "{name} info.output_digest {:016x} fnv1a",
        p.det.digest.0
    ));
    for f in &failures {
        lines.push(format!("{name} FAILED {f}"));
    }
    let result = result_json(correct, p.attempted, p.failed, metrics, &values);
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    write_file(
        &o.out_dir,
        &format!("{name}.seed{}.{stamp}.json", o.seed),
        &record_json(name, o, calib_ns, &p.det, &result),
    )?;
    lines.push(result);
    Ok(Report { lines, correct })
}

fn run_traced<W: Workload>(o: &Options) -> Result<Report, String> {
    let name = W::NAME;
    let calib_ns = calibration_ns();
    let probe = Probe::new();
    let mut w = W::setup(o.seed, o.scale, Some(&probe));
    let mut feed = Feed::new();
    feed.load(&mut w, 0);
    warm_up(&mut w, &mut feed);
    // Each chunk of operations runs untraced and then traced, so the two
    // see the same inputs and the same moment of host contention; their
    // difference is the tracing overhead. Half the window goes to each.
    let chunk = w.chunk() as u64;
    let from = w.warmup().div_ceil(chunk) * chunk;
    let (mut plain, mut traced) = (Pass::default(), Pass::default());
    let window = (o.seconds * 0.5e9) as u64;
    let mut op = from;
    while plain.op_ns.iter().sum::<u64>() < window {
        let plan = |gate| Plan {
            from: op,
            timing: Timing::Count(chunk),
            det_until: None,
            gate,
            snapshot_at: 0,
        };
        pass(&mut w, &mut feed, plan(None), None, &mut plain, &mut || {});
        let thorough = Some(from + w.det_ops());
        pass(
            &mut w,
            &mut feed,
            plan(thorough),
            Some(&probe),
            &mut traced,
            &mut || {},
        );
        op += chunk;
    }
    let n = op - from;
    let mut failures = traced.failures.clone();
    if plain.det.digest.0 != traced.det.digest.0 {
        failures.push("tracing changed the operations' outputs".to_string());
    }
    let rec = probe.finish();
    let mut values = w.layer_finish(&rec, &traced.sums, &traced.det);
    let root_ns = rec.root_ns() as f64;
    let unattributed: u64 = rec.roots.iter().map(|r| r.unattributed_ns).sum();
    let plain_ns: u64 = plain.op_ns.iter().sum();
    values.insert(
        "bench.unattributed_frac",
        ratio(unattributed as f64, root_ns),
    );
    values.insert(
        "bench.trace_overhead_frac",
        ratio(root_ns - plain_ns as f64, plain_ns as f64),
    );

    // A layer the workload does not reach reads 0, but every value it
    // measures must be a listed metric.
    let metrics = &spec().per_layer;
    if let Some(k) = values
        .keys()
        .find(|k| !metrics.iter().any(|m| m.name == **k))
    {
        return Err(format!(
            "{name} measures {k}, which BENCHMARK.json does not list"
        ));
    }
    for m in metrics {
        values.entry(m.name.as_str()).or_insert(0.0);
    }
    let mut lines: Vec<String> = metrics
        .iter()
        .map(|m| line(name, &m.name, values[m.name.as_str()], &m.unit))
        .collect();
    let mut csv = String::from("metric,value,unit\n");
    for m in metrics {
        let _ = writeln!(csv, "{},{:?},{}", m.name, values[m.name.as_str()], m.unit);
    }
    let (before, after) = (plain.end_to_end::<W>(), traced.end_to_end::<W>());
    for m in spec()
        .end_to_end
        .iter()
        .filter(|m| before.contains_key(m.name.as_str()))
    {
        let delta = after[m.name.as_str()] - before[m.name.as_str()];
        lines.push(line(name, &format!("overhead.{}", m.name), delta, &m.unit));
        let _ = writeln!(csv, "overhead.{},{delta:?},{}", m.name, m.unit);
    }
    lines.push(line(name, "info.samples", n as f64, "count"));
    lines.push(line(name, "info.calib_ns", calib_ns, "ns"));
    for f in &failures {
        lines.push(format!("{name} FAILED {f}"));
    }
    write_file(&o.trace_dir, &format!("{name}.layers.csv"), &csv)?;
    write_file(
        &o.trace_dir,
        &format!("{name}.trace.json"),
        &rec.chrome_json(name),
    )?;
    let correct = failures.is_empty();
    lines.push(result_json(
        correct,
        traced.attempted,
        traced.failed,
        metrics,
        &values,
    ));
    Ok(Report { lines, correct })
}
