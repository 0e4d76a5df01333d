//! Command line of the repository benchmark.
//!
//! ```text
//! mp-benchmark run --seed <u64> [--workload <name>] [--seconds <s>] [--trace 0|1]
//!                  [--trace-dir <dir>] [--out <dir>] [--scale full|smoke]
//! mp-benchmark compare <parent-dir> <change-dir>
//! ```
//!
//! Without `--workload`, `run` runs every workload, each in a child
//! process of its own, one at a time, single-threaded.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use mp_benchmark::runner::{self, Options, Report};
use mp_benchmark::spec::spec;
use mp_benchmark::workloads::accel_replay::AccelReplay;
use mp_benchmark::workloads::plan_clutter::PlanClutter;
use mp_benchmark::workloads::plan_paper::PlanPaper;
use mp_benchmark::workloads::service_overload::ServiceOverload;
use mp_benchmark::{compare, Scale};

const USAGE: &str = "usage:
  mp-benchmark run --seed <u64> [--workload <name>] [--seconds <s>] [--trace 0|1]
                   [--trace-dir <dir>] [--out <dir>] [--scale full|smoke]
  mp-benchmark compare <parent-dir> <change-dir>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") => compare_cmd(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("mp-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// `--flag value` pairs and positional arguments.
type Parsed = (Vec<(String, String)>, Vec<String>);

/// Splits `--flag value` pairs and positional arguments.
fn parse_flags(args: &[String]) -> Result<Parsed, String> {
    let (mut flags, mut positional) = (Vec::new(), Vec::new());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(flag) = a.strip_prefix("--") {
            let v = it
                .next()
                .ok_or(format!("--{flag} needs a value\n{USAGE}"))?;
            flags.push((flag.to_string(), v.clone()));
        } else {
            positional.push(a.clone());
        }
    }
    Ok((flags, positional))
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let (flags, positional) = parse_flags(args)?;
    if !positional.is_empty() {
        return Err(format!("unexpected argument `{}`\n{USAGE}", positional[0]));
    }
    let mut seed = None;
    let mut workload = None;
    let mut seconds = None;
    let mut o = Options {
        seed: 0,
        seconds: 10.0,
        trace: false,
        trace_dir: PathBuf::from("benchmark/out/trace"),
        out_dir: PathBuf::from("benchmark/out/runs"),
        scale: Scale::Full,
    };
    for (flag, v) in &flags {
        match flag.as_str() {
            "seed" => seed = Some(v.parse::<u64>().map_err(|_| format!("bad --seed `{v}`"))?),
            "workload" => {
                let workloads = &spec().workloads;
                if !workloads.contains(v) {
                    return Err(format!("unknown workload `{v}`; one of {workloads:?}"));
                }
                workload = Some(v.clone());
            }
            "seconds" => {
                let s = v.parse::<f64>().ok().filter(|s| s.is_finite() && *s > 0.0);
                seconds = Some(s.ok_or(format!("bad --seconds `{v}`"))?);
            }
            "trace" => {
                o.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "trace-dir" => o.trace_dir = PathBuf::from(v),
            "out" => o.out_dir = PathBuf::from(v),
            "scale" => o.scale = Scale::parse(v).ok_or(format!("bad --scale `{v}`"))?,
            other => return Err(format!("unknown flag --{other}\n{USAGE}")),
        }
    }
    o.seed = seed.ok_or(format!("--seed is required\n{USAGE}"))?;
    o.seconds = seconds.unwrap_or(match o.scale {
        Scale::Full => 10.0,
        Scale::Smoke => 0.2,
    });
    match workload {
        Some(w) => run_one(&w, &o),
        None => run_children(args),
    }
}

fn run_one(workload: &str, o: &Options) -> Result<ExitCode, String> {
    let report: Report = match workload {
        "plan_paper" => runner::run::<PlanPaper>(o)?,
        "plan_clutter" => runner::run::<PlanClutter>(o)?,
        "accel_replay" => runner::run::<AccelReplay>(o)?,
        "service_overload" => runner::run::<ServiceOverload>(o)?,
        other => return Err(format!("unknown workload `{other}`")),
    };
    for l in &report.lines {
        println!("{l}");
    }
    Ok(if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs every workload in its own child process, one after another.
fn run_children(args: &[String]) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
    let mut ok = true;
    for w in &spec().workloads {
        let status = Command::new(&exe)
            .arg("run")
            .args(args)
            .args(["--workload", w.as_str()])
            .env("MPACCEL_THREADS", "1")
            .stdin(Stdio::null())
            .status()
            .map_err(|e| format!("cannot start the {w} child: {e}"))?;
        ok &= status.success();
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_cmd(args: &[String]) -> Result<ExitCode, String> {
    let [parent, change] = args else {
        return Err(USAGE.to_string());
    };
    let metrics = &spec().end_to_end;
    let p = compare::read_records(Path::new(parent))?;
    let c = compare::read_records(Path::new(change))?;
    let rows = compare::compare(metrics, &p, &c);
    print!("{}", compare::render(&rows, metrics, &p, &c));
    let regressed = rows
        .iter()
        .any(|r| r.verdict == compare::Verdict::Regression);
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
