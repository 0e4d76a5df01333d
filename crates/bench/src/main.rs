//! `mp-bench`: the one command line of the evaluation suite.
//!
//! ```text
//! cargo run --release -p mp-bench -- <experiment> [--out FILE] [--csv FILE]
//!     [--trace FILE] [--flight FILE] [--metrics FILE]
//! cargo run --release -p mp-bench -- all
//! cargo run --release -p mp-bench -- traces [DIR]
//! ```
//!
//! * `<experiment>` is any name in [`engine::experiments`] (`fig07`,
//!   `table3`, `soak`, ...). It prints the report to stdout; `--out` also
//!   writes the text report and `--csv` the CSV table. The experiments
//!   with a telemetry capture (`soak`, `integrity`, `fleet`) run one extra
//!   fully-instrumented run for `--trace` (Chrome trace-event JSON, open
//!   in Perfetto; validated before it is written), `--flight`
//!   (flight-recorder snapshots around each incident) and `--metrics`
//!   (the metrics registry: a text table, or CSV when the path ends in
//!   `.csv`).
//! * `all` prints every report in canonical order, writes `BENCH.json`
//!   (the run's modeled CD work and energy; path: `MPACCEL_BENCH_JSON`)
//!   and, when `MPACCEL_CSV_DIR` is set, one CSV per report. Experiments
//!   fan out over `MPACCEL_THREADS` threads; stdout, `BENCH.json` and the
//!   CSVs are byte-identical at any width.
//! * `traces` generates MPNet traces, stores them as text in `DIR`
//!   (default `target/mpnet_traces`), and checks that every stored trace
//!   replays exactly like the in-memory one.
//!
//! `MPACCEL_BENCH_SCALE` selects `quick` (default) or `full` (paper-scale)
//! workloads. Usage errors exit with code 2, write failures with code 1.
//!
//! Every report is deterministic, so `mp-bench` never reads a clock: host
//! wall time, per layer, is measured by a traced `mp-benchmark run`.

use std::fmt::Display;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use mp_bench::engine::{self, Experiment};
use mp_bench::workloads::BenchWorkload;
use mp_bench::Scale;
use mp_robot::RobotModel;
use mpaccel_core::mpaccel::{MpAccelSystem, SystemConfig};
use mpaccel_core::trace::PlannerTrace;
use threadpool::ThreadPool;

const USAGE: &str = "usage: mp-bench <experiment> [--out FILE] [--csv FILE] \
[--trace FILE] [--flight FILE] [--metrics FILE]
       mp-bench all
       mp-bench traces [DIR]";

/// The path flags; the last three need an experiment with a capture.
const FLAGS: [&str; 5] = ["--out", "--csv", "--trace", "--flight", "--metrics"];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(code) => code,
    }
}

/// Reports a usage error; the caller returns the exit code 2.
fn usage_error(msg: impl Display) -> ExitCode {
    eprintln!("mp-bench: {msg} (try --help)");
    ExitCode::from(2)
}

/// Reports a failed file operation; the caller returns the exit code 1.
fn io_error(what: &str, path: impl AsRef<Path>, e: impl Display) -> ExitCode {
    eprintln!("mp-bench: cannot {what} `{}`: {e}", path.as_ref().display());
    ExitCode::FAILURE
}

fn write(what: &str, path: &str, content: &str) -> Result<(), ExitCode> {
    fs::write(path, content).map_err(|e| io_error(&format!("write {what} to"), path, e))
}

fn scale() -> Result<Scale, ExitCode> {
    Scale::from_env().map_err(usage_error)
}

fn names(list: &[Experiment]) -> String {
    let names: Vec<&str> = list.iter().map(|x| x.name).collect();
    names.join(", ")
}

fn select(wanted: &[&str]) -> Result<Vec<Experiment>, ExitCode> {
    engine::select(wanted).map_err(|unknown| {
        usage_error(format!(
            "unknown command or experiment `{unknown}`; experiments: {}",
            names(&engine::experiments())
        ))
    })
}

fn run(args: &[String]) -> Result<(), ExitCode> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return Ok(());
    }
    let Some((cmd, rest)) = args.split_first() else {
        return Err(usage_error("missing command"));
    };
    let rest: Vec<&str> = rest.iter().map(String::as_str).collect();
    match (cmd.as_str(), rest.as_slice()) {
        ("all", []) => all(),
        ("all", _) => Err(usage_error("`all` takes no arguments")),
        ("traces", []) => traces(Path::new("target/mpnet_traces")),
        ("traces", [dir]) => traces(Path::new(dir)),
        ("traces", _) => Err(usage_error("`traces` takes at most one directory")),
        (name, flags) => experiment(select(&[name])?[0], flags),
    }
}

/// `all`: one engine run over the whole suite. Prints every report,
/// writes one CSV per report under `MPACCEL_CSV_DIR` and `BENCH.json`.
/// Both destinations are gated outputs, so their directories are created
/// before the suite runs and any write failure exits 1.
fn all() -> Result<(), ExitCode> {
    let scale = scale()?;
    let bench_json = PathBuf::from(
        std::env::var_os("MPACCEL_BENCH_JSON").unwrap_or_else(|| "BENCH.json".into()),
    );
    let csv_dir = std::env::var_os("MPACCEL_CSV_DIR").map(PathBuf::from);
    for dir in bench_json.parent().into_iter().chain(csv_dir.as_deref()) {
        if !dir.as_os_str().is_empty() {
            fs::create_dir_all(dir).map_err(|e| io_error("create directory", dir, e))?;
        }
    }
    let pool = ThreadPool::from_env();
    println!("MPAccel reproduction — full evaluation at {scale:?} scale\n");
    eprintln!("running with {} thread(s)", pool.threads());
    let summary = engine::run_selected(&engine::experiments(), scale, &pool);
    for r in &summary.results {
        println!("{}", r.report);
        if let Some(dir) = &csv_dir {
            let path = dir.join(format!("{}.csv", r.name));
            fs::write(&path, r.report.to_csv()).map_err(|e| io_error("write", &path, e))?;
        }
    }
    fs::write(&bench_json, summary.to_json()).map_err(|e| io_error("write", &bench_json, e))?;
    eprintln!("wrote {}", bench_json.display());
    Ok(())
}

/// One experiment: print its report and write the requested artifacts.
fn experiment(exp: Experiment, args: &[&str]) -> Result<(), ExitCode> {
    let mut paths: [Option<&str>; 5] = [None; 5];
    let mut args = args.iter();
    while let Some(&arg) = args.next() {
        if let Some(i) = FLAGS.iter().position(|&f| f == arg) {
            if i >= 2 && exp.capture.is_none() {
                let captured: Vec<Experiment> = engine::experiments()
                    .into_iter()
                    .filter(|x| x.capture.is_some())
                    .collect();
                return Err(usage_error(format!(
                    "{arg} needs an experiment with a telemetry capture ({}), not `{}`",
                    names(&captured),
                    exp.name
                )));
            }
            let path = args
                .next()
                .ok_or_else(|| usage_error(format!("{arg} requires a file path")))?;
            paths[i] = Some(path);
        } else {
            return Err(usage_error(format!(
                "unknown argument `{arg}` for `{}`",
                exp.name
            )));
        }
    }
    let [out, csv, trace, flight, metrics] = paths;
    let scale = scale()?;
    let report = (exp.runner)(scale);
    println!("{report}");
    if let Some(p) = out {
        write("report", p, &report.to_string())?;
    }
    if let Some(p) = csv {
        write("CSV", p, &report.to_csv())?;
    }
    if trace.or(flight).or(metrics).is_none() {
        return Ok(());
    }
    let capture = exp
        .capture
        .expect("telemetry flags are accepted only with a capture");
    let (session, registry) = capture(scale, &ThreadPool::from_env());
    let streams = session.streams();
    if let Some(p) = trace {
        let json = mp_telemetry::chrome_trace_json(&streams);
        if let Err(e) = mp_telemetry::validate_json(&json) {
            eprintln!("mp-bench: generated trace JSON is invalid: {e}");
            return Err(ExitCode::FAILURE);
        }
        write("trace", p, &json)?;
        let events: usize = streams.iter().map(|s| s.events.len()).sum();
        eprintln!(
            "mp-bench: wrote {events} events across {} streams to `{p}` (open in https://ui.perfetto.dev)",
            streams.len()
        );
    }
    if let Some(p) = flight {
        write("flight report", p, &mp_telemetry::flight_report(&streams))?;
        eprintln!(
            "mp-bench: wrote flight recorder ({} incidents seen) to `{p}`",
            session.incidents_seen()
        );
    }
    if let Some(p) = metrics {
        let dump = if p.ends_with(".csv") {
            registry.to_csv()
        } else {
            registry.render_text()
        };
        write("metrics", p, &dump)?;
        eprintln!("mp-bench: wrote {} metrics to `{p}`", registry.len());
    }
    Ok(())
}

/// Trace generation and replay — the artifact's A.3/A.4 workflow: plan
/// once (expensive), store the MPNet traces as text, reload them and
/// replay them on the accelerator model.
fn traces(dir: &Path) -> Result<(), ExitCode> {
    let scale = scale()?;
    let robot = RobotModel::baxter();
    println!("generating MPNet traces at {scale:?} scale…");
    let w = BenchWorkload::cached(robot.clone(), scale);
    fs::create_dir_all(dir).map_err(|e| io_error("create trace directory", dir, e))?;
    let mut paths: Vec<PathBuf> = Vec::new();
    for (i, (scene, trace)) in w.traces.iter().enumerate() {
        let path = dir.join(format!("bench{scene}_query{i}.trace"));
        fs::write(&path, trace.to_text()).map_err(|e| io_error("write", &path, e))?;
        paths.push(path);
    }
    println!("wrote {} traces to {}", paths.len(), dir.display());
    let (mut total_ms, mut mismatches) = (0.0, 0);
    for (path, (scene, original)) in paths.iter().zip(&w.traces) {
        let text = fs::read_to_string(path).map_err(|e| io_error("read back", path, e))?;
        let loaded = PlannerTrace::from_text(&text).map_err(|e| io_error("parse", path, e))?;
        let sys = MpAccelSystem::new(
            robot.clone(),
            w.octree(*scene),
            SystemConfig::paper_default(),
        );
        let replayed = sys.run_trace(&loaded);
        total_ms += replayed.total_ms;
        mismatches += usize::from(replayed.cd_queries != sys.run_trace(original).cd_queries);
    }
    println!(
        "replayed {} traces: cumulative {total_ms:.3} ms on MPAccel 16x4 mc; {mismatches} replay mismatches",
        paths.len()
    );
    if mismatches != 0 {
        eprintln!("mp-bench: serialized traces must replay identically ({mismatches} mismatches)");
        return Err(ExitCode::FAILURE);
    }
    Ok(())
}
