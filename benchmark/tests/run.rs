//! End-to-end checks of the `mp-benchmark` command at smoke scale.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use mp_benchmark::json::Json;
use mp_benchmark::spec::spec;

/// A fresh scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

/// Runs `mp-benchmark run --scale smoke` with `args`, writing under
/// `dir`; returns stdout and the run time.
fn smoke(dir: &Path, args: &[&str]) -> (String, Duration) {
    let t = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_mp-benchmark"))
        .args(["run", "--scale", "smoke"])
        .args(args)
        .arg("--out")
        .arg(dir.join("runs"))
        .arg("--trace-dir")
        .arg(dir.join("trace"))
        .output()
        .expect("the benchmark starts");
    let elapsed = t.elapsed();
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "run {args:?} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    (stdout, elapsed)
}

/// The contract lines (`{"correct", ...}`) of a run's output, in order.
fn results(stdout: &str) -> Vec<Json> {
    stdout
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| Json::parse(l).expect("result line is JSON"))
        .collect()
}

/// `workload name -> value` of the `workload name value unit` lines.
fn lines(stdout: &str) -> BTreeMap<(String, String), (String, String)> {
    stdout
        .lines()
        .filter(|l| !l.starts_with('{'))
        .filter_map(|l| {
            let f: Vec<&str> = l.split(' ').collect();
            (f.len() == 4).then(|| {
                (
                    (f[0].to_string(), f[1].to_string()),
                    (f[2].to_string(), f[3].to_string()),
                )
            })
        })
        .collect()
}

#[test]
fn smoke_run_of_every_workload_is_quick_and_correct() {
    let dir = scratch("smoke_all");
    let (stdout, elapsed) = smoke(&dir, &["--seed", "1"]);
    let res = results(&stdout);
    assert_eq!(res.len(), spec().workloads.len(), "one result per workload");
    for r in &res {
        assert_eq!(r.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(r.get("failed").and_then(Json::num), Some(0.0));
        assert!(r.get("attempted").and_then(Json::num).unwrap() >= 1.0);
    }
    assert!(
        elapsed < Duration::from_secs(10),
        "smoke run took {elapsed:?}"
    );
}

#[test]
fn every_benchmark_metric_is_printed_with_its_unit() {
    let spec = spec();
    for (trace, metrics) in [("0", &spec.end_to_end), ("1", &spec.per_layer)] {
        let dir = scratch(&format!("units_{trace}"));
        let (stdout, _) = smoke(&dir, &["--seed", "2", "--trace", trace]);
        let printed = lines(&stdout);
        let res = results(&stdout);
        let mut measured = BTreeMap::new();
        for (w, r) in spec.workloads.iter().zip(&res) {
            let json = r.get("metrics").and_then(Json::obj).unwrap();
            assert_eq!(json.len(), metrics.len(), "{w}: exactly the listed metrics");
            for m in metrics {
                let (value, unit) = &printed[&(w.clone(), m.name.clone())];
                assert_eq!(unit, &m.unit, "{w} {}", m.name);
                let value: f64 = value.parse().unwrap();
                assert!(value.is_finite());
                let entry = &json[&m.name];
                assert_eq!(entry.get("unit").and_then(Json::str), Some(m.unit.as_str()));
                assert_eq!(entry.get("value").and_then(Json::num), Some(value));
                *measured.entry(&m.name).or_insert(false) |= value != 0.0;
            }
        }
        // A per-layer metric reads 0 on workloads that do not reach its
        // layer; every listed metric must be measured on some workload,
        // except a count of events the smoke inputs are too few to meet.
        for (name, nonzero) in measured {
            assert!(
                nonzero || name == "core.cecdu_unsafe_mismatches",
                "{name} reads 0 on every workload"
            );
        }
    }
}

#[test]
fn same_seed_repeats_and_another_seed_differs() {
    let digests = |seed: &str, tag: &str| {
        let (stdout, _) = smoke(&scratch(tag), &["--seed", seed]);
        lines(&stdout)
            .into_iter()
            .filter(|((_, name), _)| name.starts_with("info.det.") || name == "info.output_digest")
            .collect::<BTreeMap<_, _>>()
    };
    let a = digests("7", "seed7a");
    let b = digests("7", "seed7b");
    let c = digests("8", "seed8");
    assert!(!a.is_empty());
    assert_eq!(a, b, "the same seed must give identical outputs");
    for w in &spec().workloads {
        let key = (w.clone(), "info.output_digest".to_string());
        assert_ne!(a[&key], c[&key], "{w}: another seed must give other inputs");
    }
}

#[test]
fn traced_accounting_adds_up() {
    let dir = scratch("traced");
    let (stdout, _) = smoke(&dir, &["--seed", "3", "--trace", "1"]);
    let printed = lines(&stdout);
    for w in &spec().workloads {
        assert!(dir.join(format!("trace/{w}.layers.csv")).exists());
        let text = std::fs::read_to_string(dir.join(format!("trace/{w}.trace.json"))).unwrap();
        let doc = Json::parse(&text).expect("Chrome trace parses");
        let events = doc.get("traceEvents").and_then(Json::arr).unwrap();
        let arg = |e: &Json, k: &str| {
            e.get("args")
                .and_then(|a| a.get(k))
                .and_then(Json::num)
                .unwrap()
        };
        let mut roots = BTreeMap::new();
        for e in events
            .iter()
            .filter(|e| e.get("name").and_then(Json::str) == Some("op"))
        {
            let (dur, own) = (arg(e, "dur_ns"), arg(e, "self_ns"));
            let children = arg(e, "children_ns");
            assert_eq!(
                own + children + arg(e, "unattributed_ns"),
                dur,
                "{w}: self + children + unattributed = span"
            );
            roots.insert(arg(e, "op") as u64, (arg(e, "start_ns"), dur, children));
        }
        assert!(!roots.is_empty(), "{w}: one root span per operation");
        let mut child_sum: BTreeMap<u64, f64> = BTreeMap::new();
        for e in events
            .iter()
            .filter(|e| e.get("name").and_then(Json::str) != Some("op"))
        {
            let op = arg(e, "op") as u64;
            let (start, dur, _) = roots[&op];
            let (s, d) = (arg(e, "start_ns"), arg(e, "dur_ns"));
            assert!(
                s >= start && s + d <= start + dur,
                "{w}: child inside its parent"
            );
            *child_sum.entry(op).or_default() += d;
        }
        for (op, sum) in child_sum {
            assert_eq!(
                sum, roots[&op].2,
                "{w}: kept spans sum to the op's child time"
            );
        }
        if w.starts_with("plan_") {
            let (v, _) = &printed[&(w.clone(), "bench.unattributed_frac".to_string())];
            assert!(v.parse::<f64>().unwrap() <= 0.05, "{w}: unattributed {v}");
        }
    }
}
