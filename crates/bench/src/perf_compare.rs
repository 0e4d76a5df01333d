//! Diffs two `BENCH.json` files (schema `mpaccel-bench/1`): per-experiment
//! wall-time deltas plus the headline CD-throughput change and the modeled
//! energy trajectory (pJ/CD-check and uJ/plan — absent in baselines
//! written before those keys existed, in which case the energy rows are
//! skipped).
//!
//! Usage: `mp-bench perf_compare [BASELINE [FRESH]]`, defaulting to
//! `BENCH.baseline.json` vs `BENCH.json`. Intended as a non-gating CI
//! step: copy the committed `BENCH.json` aside, regenerate it with
//! `mp-bench perf`, then run this to print the trajectory. Comparison
//! never fails the build — only unreadable/unparseable inputs exit
//! non-zero.
//!
//! The parser is hand-rolled for the one schema the engine writes (the
//! workspace is hermetic, no serde): top-level scalar keys plus the flat
//! `experiments` array of `{"name": ..., "wall_s": ...}` records.

use std::process::ExitCode;

/// The fields of one `BENCH.json` this comparison reads.
struct Summary {
    scale: String,
    threads: u64,
    total_wall_s: f64,
    cd_checks: u64,
    cd_checks_per_sec: f64,
    /// Modeled energy keys (`None` for baselines predating them).
    pj_per_cd_check: Option<f64>,
    uj_per_plan_full: Option<f64>,
    experiments: Vec<(String, f64)>,
}

/// Value of a top-level `"key": value` scalar (number or quoted string),
/// as the raw token text.
fn scalar<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let at = json.find(&pat)? + pat.len();
    let rest = json[at..].trim_start();
    let end = rest.find([',', '\n', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

fn parse(json: &str, origin: &str) -> Result<Summary, String> {
    let err = |what: &str| format!("{origin}: missing or malformed {what}");
    if scalar(json, "schema") != Some("mpaccel-bench/1") {
        return Err(err("schema (want mpaccel-bench/1)"));
    }
    let mut experiments = Vec::new();
    // Records are flat and one per line; split on the object openers past
    // the "experiments" key.
    let tail = &json[json
        .find("\"experiments\"")
        .ok_or_else(|| err("experiments"))?..];
    for rec in tail.split('{').skip(1) {
        let name = scalar(rec, "name").ok_or_else(|| err("experiment name"))?;
        let wall: f64 = scalar(rec, "wall_s")
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| err("experiment wall_s"))?;
        experiments.push((name.to_string(), wall));
    }
    let num = |key: &str| -> Result<f64, String> {
        scalar(json, key)
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| err(key))
    };
    Ok(Summary {
        scale: scalar(json, "scale")
            .ok_or_else(|| err("scale"))?
            .to_string(),
        threads: num("threads")? as u64,
        total_wall_s: num("total_wall_s")?,
        cd_checks: num("cd_checks")? as u64,
        cd_checks_per_sec: num("cd_checks_per_sec")?,
        pj_per_cd_check: num("pj_per_cd_check").ok(),
        uj_per_plan_full: num("uj_per_plan_full").ok(),
        experiments,
    })
}

fn load(path: &str) -> Result<Summary, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(&text, path)
}

/// `new` relative to `old` as a signed percentage; 0 when the baseline is 0.
fn pct(old: f64, new: f64) -> f64 {
    if old.abs() < 1e-12 {
        0.0
    } else {
        (new - old) / old * 100.0
    }
}

/// Prints the comparison of two `BENCH.json` files. Only unreadable or
/// malformed inputs fail (exit code 2); the deltas never do.
pub fn run(baseline_path: &str, fresh_path: &str) -> Result<(), ExitCode> {
    let (base, fresh) = match (load(baseline_path), load(fresh_path)) {
        (Ok(b), Ok(f)) => (b, f),
        (b, f) => {
            for e in [b.err(), f.err()].into_iter().flatten() {
                eprintln!("mp-bench: {e}");
            }
            return Err(ExitCode::from(2));
        }
    };
    println!("perf comparison: {baseline_path} (baseline) vs {fresh_path} (fresh)");
    if base.scale != fresh.scale || base.threads != fresh.threads {
        println!(
            "warning: configurations differ (baseline {} scale, {} thread(s) vs fresh {} scale, {} thread(s)); deltas are not like-for-like",
            base.scale, base.threads, fresh.scale, fresh.threads
        );
    }
    println!(
        "  total wall      {:>10.3} s  -> {:>10.3} s  ({:+.1}%)",
        base.total_wall_s,
        fresh.total_wall_s,
        pct(base.total_wall_s, fresh.total_wall_s)
    );
    println!(
        "  cd checks       {:>10}    -> {:>10}",
        base.cd_checks, fresh.cd_checks
    );
    let speedup = fresh.cd_checks_per_sec / base.cd_checks_per_sec.max(1e-12);
    println!(
        "  cd checks/sec   {:>10.0}    -> {:>10.0}  ({:+.1}%, {speedup:.2}x)",
        base.cd_checks_per_sec,
        fresh.cd_checks_per_sec,
        pct(base.cd_checks_per_sec, fresh.cd_checks_per_sec),
    );
    // Energy trajectory (modeled, so deltas here are real regressions or
    // wins in work done, never host noise). Skipped when either side
    // predates the energy keys. Each row: stdout label, step-summary
    // label, baseline, fresh.
    let energy = [
        (
            "pJ/CD-check",
            "pJ/CD-check",
            base.pj_per_cd_check,
            fresh.pj_per_cd_check,
        ),
        (
            "uJ/plan (full)",
            "uJ/plan (full tier)",
            base.uj_per_plan_full,
            fresh.uj_per_plan_full,
        ),
    ];
    for (label, _, b, f) in energy {
        match (b, f) {
            (Some(b), Some(f)) => println!(
                "  {label:<16}{b:>10.3}    -> {f:>10.3}  ({:+.1}%)",
                pct(b, f)
            ),
            _ => println!("  {label:<16}(absent on one side; skipped)"),
        }
    }
    println!(
        "  {:<12} {:>12} {:>12} {:>9}",
        "experiment", "base [ms]", "fresh [ms]", "delta"
    );
    for (name, old_wall) in &base.experiments {
        match fresh.experiments.iter().find(|(n, _)| n == name) {
            Some((_, new_wall)) => println!(
                "  {:<12} {:>12.1} {:>12.1} {:>+8.1}%",
                name,
                old_wall * 1e3,
                new_wall * 1e3,
                pct(*old_wall, *new_wall)
            ),
            None => println!(
                "  {name:<12} {:>12.1} {:>12} (removed)",
                old_wall * 1e3,
                "-"
            ),
        }
    }
    for (name, new_wall) in &fresh.experiments {
        if !base.experiments.iter().any(|(n, _)| n == name) {
            println!("  {name:<12} {:>12} {:>12.1} (new)", "-", new_wall * 1e3);
        }
    }
    // On CI, surface the headline numbers — CD throughput, energy and the
    // planners experiment wall — in the job's step summary so the perf
    // trajectory is readable without opening the log.
    let Ok(path) = std::env::var("GITHUB_STEP_SUMMARY") else {
        return Ok(());
    };
    let energy_rows: String = energy
        .iter()
        .filter_map(|&(_, label, b, f)| {
            let (b, f) = (b?, f?);
            Some(format!(
                "| {label} | {b:.3} | {f:.3} | {:+.1}% |\n",
                pct(b, f)
            ))
        })
        .collect();
    let wall = |s: &Summary| {
        s.experiments
            .iter()
            .find(|(n, _)| n == "planners")
            .map(|(_, w)| *w)
    };
    let planners = match (wall(&base), wall(&fresh)) {
        (Some(b), Some(f)) => format!(
            "| planners wall | {:.1} ms | {:.1} ms | {:+.1}% |\n",
            b * 1e3,
            f * 1e3,
            pct(b, f)
        ),
        _ => String::new(),
    };
    let md = format!(
        "### Perf vs committed baseline ({} scale, {} thread(s))\n\n\
         | metric | baseline | fresh | delta |\n|---|---|---|---|\n\
         | cd_checks_per_sec | {:.0} | {:.0} | {:+.1}% ({speedup:.2}x) |\n\
         | total wall | {:.3} s | {:.3} s | {:+.1}% |\n{energy_rows}{planners}",
        fresh.scale,
        fresh.threads,
        base.cd_checks_per_sec,
        fresh.cd_checks_per_sec,
        pct(base.cd_checks_per_sec, fresh.cd_checks_per_sec),
        base.total_wall_s,
        fresh.total_wall_s,
        pct(base.total_wall_s, fresh.total_wall_s),
    );
    if let Err(e) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| std::io::Write::write_all(&mut f, md.as_bytes()))
    {
        eprintln!("mp-bench: warning: could not write step summary {path}: {e}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "schema": "mpaccel-bench/1",
  "scale": "quick",
  "threads": 1,
  "total_wall_s": 0.50,
  "workload": {"build_wall_s": 0.01, "scenes": 4, "traces": 12, "scenes_per_sec": 400.0},
  "cd_checks": 75324,
  "cd_checks_per_sec": 150648.0,
  "cd_energy_pj": 602592.0,
  "pj_per_cd_check": 8.001,
  "uj_per_plan_full": 1.234,
  "experiments": [
    {"name": "fig01b", "wall_s": 0.007803},
    {"name": "planners", "wall_s": 0.104}
  ]
}
"#;

    #[test]
    fn parses_engine_schema() {
        let s = parse(SAMPLE, "sample").expect("parse");
        assert_eq!(s.scale, "quick");
        assert_eq!(s.threads, 1);
        assert_eq!(s.cd_checks, 75324);
        assert!((s.total_wall_s - 0.5).abs() < 1e-9);
        assert!((s.cd_checks_per_sec - 150648.0).abs() < 1e-6);
        assert!((s.pj_per_cd_check.unwrap() - 8.001).abs() < 1e-9);
        assert!((s.uj_per_plan_full.unwrap() - 1.234).abs() < 1e-9);
        assert_eq!(s.experiments.len(), 2);
        assert_eq!(s.experiments[0].0, "fig01b");
        assert!((s.experiments[1].1 - 0.104).abs() < 1e-9);
    }

    #[test]
    fn tolerates_baselines_without_energy_keys() {
        let legacy: String = SAMPLE
            .lines()
            .filter(|l| {
                !l.contains("cd_energy_pj")
                    && !l.contains("pj_per_cd_check")
                    && !l.contains("uj_per_plan_full")
            })
            .collect::<Vec<_>>()
            .join("\n");
        let s = parse(&legacy, "legacy").expect("parse");
        assert!(s.pj_per_cd_check.is_none());
        assert!(s.uj_per_plan_full.is_none());
        assert_eq!(s.cd_checks, 75324);
    }

    #[test]
    fn rejects_unknown_schema() {
        let bad = SAMPLE.replace("mpaccel-bench/1", "other/9");
        assert!(parse(&bad, "bad").is_err());
    }

    #[test]
    fn percentage_is_signed_and_zero_safe() {
        assert!((pct(2.0, 1.0) + 50.0).abs() < 1e-9);
        assert!((pct(1.0, 2.0) - 100.0).abs() < 1e-9);
        assert_eq!(pct(0.0, 5.0), 0.0);
    }
}
