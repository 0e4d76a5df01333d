//! The command line shared by the `soak`, `integrity` and `fleet_soak`
//! binaries: parse `--out/--csv/--trace/--flight/--metrics` (plus
//! `fleet_soak`'s `--scaling-csv`), print the experiment report, and write
//! the requested artifacts. Bad arguments exit with code 2, write
//! failures with code 1.

use std::process::ExitCode;

use mp_telemetry::{Registry, TelemetrySession};
use threadpool::ThreadPool;

use crate::{Report, Scale};

/// One soak binary: its name and the experiment entry points it drives.
pub struct SoakCli<S> {
    /// Binary name, prefixing every message.
    pub name: &'static str,
    /// The experiment report printed to stdout.
    pub run: fn(Scale) -> Report,
    /// An extra report written by `--scaling-csv` (the flag exists only
    /// when this is set).
    pub scaling: Option<fn(Scale) -> Report>,
    /// The instrumented run behind `--trace/--flight/--metrics`.
    pub capture: fn(Scale, &ThreadPool) -> (TelemetrySession, S),
    /// The metrics registry of a captured run.
    pub metrics: fn(&S) -> Registry,
}

impl<S> SoakCli<S> {
    fn write(&self, what: &str, path: &str, content: &str) -> Result<(), ExitCode> {
        std::fs::write(path, content).map_err(|e| {
            eprintln!("{}: cannot write {what} to `{path}`: {e}", self.name);
            ExitCode::FAILURE
        })
    }

    /// Runs the binary on the process arguments.
    pub fn main(&self) -> ExitCode {
        match self.run_with(std::env::args().skip(1)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(code) => code,
        }
    }

    fn run_with(&self, mut args: impl Iterator<Item = String>) -> Result<(), ExitCode> {
        let name = self.name;
        let mut flags: Vec<&str> = vec!["--out", "--csv"];
        if self.scaling.is_some() {
            flags.push("--scaling-csv");
        }
        flags.extend(["--trace", "--flight", "--metrics"]);
        let mut paths: Vec<Option<String>> = vec![None; flags.len()];
        while let Some(arg) = args.next() {
            if let Some(i) = flags.iter().position(|&f| f == arg) {
                let Some(path) = args.next() else {
                    eprintln!("{name}: {arg} requires a file path");
                    return Err(ExitCode::from(2));
                };
                paths[i] = Some(path);
            } else if arg == "--help" || arg == "-h" {
                let usage: Vec<String> = flags.iter().map(|f| format!("[{f} FILE]")).collect();
                println!("usage: {name} {}", usage.join(" "));
                return Ok(());
            } else {
                eprintln!("{name}: unknown argument `{arg}` (try --help)");
                return Err(ExitCode::from(2));
            }
        }
        let path = |flag: &str| {
            flags
                .iter()
                .position(|&f| f == flag)
                .and_then(|i| paths[i].as_deref())
        };

        let scale = Scale::from_env();
        let report = (self.run)(scale);
        println!("{report}");
        if let Some(p) = path("--out") {
            self.write("report", p, &report.to_string())?;
        }
        if let Some(p) = path("--csv") {
            self.write("CSV", p, &report.to_csv())?;
        }
        if let (Some(scaling), Some(p)) = (self.scaling, path("--scaling-csv")) {
            let scaling = scaling(scale);
            println!("{scaling}");
            self.write("scaling CSV", p, &scaling.to_csv())?;
        }

        let (trace, flight, metrics) = (path("--trace"), path("--flight"), path("--metrics"));
        if trace.is_none() && flight.is_none() && metrics.is_none() {
            return Ok(());
        }
        let (session, summary) = (self.capture)(scale, &ThreadPool::from_env());
        let streams = session.streams();
        if let Some(p) = trace {
            let json = mp_telemetry::chrome_trace_json(&streams);
            if let Err(e) = mp_telemetry::validate_json(&json) {
                eprintln!("{name}: generated trace JSON is invalid: {e}");
                return Err(ExitCode::FAILURE);
            }
            self.write("trace", p, &json)?;
            let events: usize = streams.iter().map(|s| s.events.len()).sum();
            eprintln!(
                "{name}: wrote {events} events across {} streams to `{p}` (open in https://ui.perfetto.dev)",
                streams.len()
            );
        }
        if let Some(p) = flight {
            self.write("flight report", p, &mp_telemetry::flight_report(&streams))?;
            eprintln!(
                "{name}: wrote flight recorder ({} incidents seen) to `{p}`",
                session.incidents_seen()
            );
        }
        if let Some(p) = metrics {
            let reg = (self.metrics)(&summary);
            let dump = if p.ends_with(".csv") {
                reg.to_csv()
            } else {
                reg.render_text()
            };
            self.write("metrics", p, &dump)?;
            eprintln!("{name}: wrote {} metrics to `{p}`", reg.len());
        }
        Ok(())
    }
}
