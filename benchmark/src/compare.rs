//! `compare`: judges a change against its parent from two directories of
//! run records (at least ten runs each, interleaved with the parent's).
//!
//! For every workload and end-to-end metric it reports each side's median
//! and quartiles and the share of same-seed pairs the change wins (ties
//! count for neither).
//!
//! A host-time metric regresses when the change's median is worse than
//! the parent's by more than the metric's bound in `BENCHMARK.json`. When
//! the parent's own quartile spread is wider than the bound the metric is
//! "unresolved" — unless every change run beats every parent run.
//!
//! A deterministic metric repeats exactly for a seed, so its spread across
//! seeds is the inputs' variation, not noise: it is judged pair by pair on
//! the same seed with bound 0. Any same-seed pair in which the change reads
//! worse is a regression; any pair that differs otherwise is reported as
//! better.
//!
//! Runs whose calibration kernel deviates more than 10% from their set's
//! median are flagged as noisy.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::json::Json;
use crate::spec::{Better, Metric};
use crate::{median, quartiles};

/// One run record.
#[derive(Clone, Debug)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Calibration-kernel time (ns).
    pub calib_ns: f64,
    /// Output digest.
    pub digest: String,
    /// Whether the run passed its correctness checks.
    pub correct: bool,
    /// End-to-end metric values.
    pub metrics: BTreeMap<String, f64>,
    /// File the record came from.
    pub file: String,
}

/// Reads every `*.json` run record in `dir`.
///
/// # Errors
///
/// Returns a message when the directory or a record cannot be read.
pub fn read_records(dir: &Path) -> Result<Vec<Record>, String> {
    let mut out = Vec::new();
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    for path in paths {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let bad = || format!("{} is not a run record", path.display());
        let result = doc.get("result").ok_or_else(bad)?;
        let metrics = result
            .get("metrics")
            .and_then(Json::obj)
            .ok_or_else(bad)?
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.num()?)))
            .collect();
        out.push(Record {
            workload: doc
                .get("workload")
                .and_then(Json::str)
                .ok_or_else(bad)?
                .to_string(),
            seed: doc.get("seed").and_then(Json::num).ok_or_else(bad)? as u64,
            calib_ns: doc.get("calib_ns").and_then(Json::num).unwrap_or(0.0),
            digest: doc
                .get("output_digest")
                .and_then(Json::str)
                .unwrap_or("")
                .to_string(),
            correct: result.get("correct") == Some(&Json::Bool(true)),
            metrics,
            file: path.display().to_string(),
        });
    }
    Ok(out)
}

/// Verdict for one (workload, metric) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound (for a deterministic metric: identical on every
    /// seed).
    Ok,
    /// Worse than the bound allows (for a deterministic metric: worse on
    /// some seed).
    Regression,
    /// The parent's own spread is wider than the bound, or (for a
    /// deterministic metric) no seed was run on both sides.
    Unresolved,
    /// Every change run beats every parent run (for a deterministic
    /// metric: changed on some seed and worse on none).
    Better,
}

/// The comparison of one metric on one workload.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Parent quartiles.
    pub parent: [f64; 3],
    /// Change quartiles.
    pub change: [f64; 3],
    /// Share of same-seed pairs the change wins.
    pub wins: f64,
    /// Pairs compared.
    pub pairs: usize,
    /// Change median relative to the parent's, signed so positive is
    /// worse.
    pub worse_by: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compares the change's records against the parent's on `metrics`.
pub fn compare(metrics: &[Metric], parent: &[Record], change: &[Record]) -> Vec<Row> {
    let mut workloads: Vec<&str> = parent.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let mut rows = Vec::new();
    for wl in workloads {
        let side = |rs: &[Record]| -> Vec<Record> {
            rs.iter().filter(|r| r.workload == wl).cloned().collect()
        };
        let (p, c) = (side(parent), side(change));
        if c.is_empty() {
            continue;
        }
        for m in metrics {
            let vals = |rs: &[Record]| -> Vec<f64> {
                rs.iter()
                    .filter_map(|r| r.metrics.get(&m.name).copied())
                    .collect()
            };
            let (pv, cv) = (vals(&p), vals(&c));
            if pv.is_empty() || cv.is_empty() {
                continue;
            }
            let better = |x: f64, y: f64| match m.better {
                Better::Higher => x > y,
                Better::Lower => x < y,
            };
            // Pair runs by seed, in file order within a seed.
            let mut by_seed: BTreeMap<u64, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
            for r in &p {
                if let Some(&v) = r.metrics.get(&m.name) {
                    by_seed.entry(r.seed).or_default().0.push(v);
                }
            }
            for r in &c {
                if let Some(&v) = r.metrics.get(&m.name) {
                    by_seed.entry(r.seed).or_default().1.push(v);
                }
            }
            let (mut pairs, mut wins, mut losses) = (0usize, 0usize, 0usize);
            for (ps, cs) in by_seed.values() {
                for (&x, &y) in ps.iter().zip(cs) {
                    pairs += 1;
                    wins += usize::from(better(y, x));
                    losses += usize::from(better(x, y));
                }
            }
            let (pq, cq) = (quartiles(&pv), quartiles(&cv));
            let (pm, cm) = (median(&pv), median(&cv));
            let sign = match m.better {
                Better::Higher => -1.0,
                Better::Lower => 1.0,
            };
            let worse_by = if pm == 0.0 {
                0.0
            } else {
                sign * (cm - pm) / pm.abs()
            };
            let spread = if pm == 0.0 {
                0.0
            } else {
                (pq[2] - pq[0]) / pm.abs()
            };
            let bound = m.bound.unwrap_or(0.0);
            let all_better = cv.iter().all(|&y| pv.iter().all(|&x| better(y, x)));
            let verdict = if m.deterministic {
                if pairs == 0 {
                    Verdict::Unresolved
                } else if losses > 0 {
                    Verdict::Regression
                } else if wins > 0 {
                    Verdict::Better
                } else {
                    Verdict::Ok
                }
            } else if all_better {
                Verdict::Better
            } else if spread > bound {
                Verdict::Unresolved
            } else if worse_by > bound {
                Verdict::Regression
            } else {
                Verdict::Ok
            };
            rows.push(Row {
                workload: wl.to_string(),
                metric: m.name.clone(),
                parent: pq,
                change: cq,
                wins: if pairs == 0 {
                    0.0
                } else {
                    wins as f64 / pairs as f64
                },
                pairs,
                worse_by,
                verdict,
            });
        }
    }
    rows
}

/// Runs whose calibration time is more than 10% from their set's median.
pub fn noisy(records: &[Record]) -> Vec<&Record> {
    let calib: Vec<f64> = records.iter().map(|r| r.calib_ns).collect();
    let mid = median(&calib);
    records
        .iter()
        .filter(|r| mid > 0.0 && (r.calib_ns - mid).abs() > 0.1 * mid)
        .collect()
}

/// Same-seed runs of one set whose output digests differ.
pub fn nondeterministic(records: &[Record]) -> Vec<(String, u64)> {
    let mut seen: BTreeMap<(&str, u64), &str> = BTreeMap::new();
    let mut out = Vec::new();
    for r in records {
        let key = (r.workload.as_str(), r.seed);
        match seen.get(&key) {
            Some(&d) if d != r.digest => out.push((r.workload.clone(), r.seed)),
            Some(_) => {}
            None => {
                seen.insert(key, &r.digest);
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Renders the comparison report.
pub fn render(rows: &[Row], metrics: &[Metric], parent: &[Record], change: &[Record]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<17} {:<20} {:>38} {:>38} {:>6} {:>8} verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "worse"
    );
    for r in rows {
        let unit = metrics
            .iter()
            .find(|m| m.name == r.metric)
            .map_or("", |m| m.unit.as_str());
        let q = |v: [f64; 3]| format!("{:.6} [{:.6}, {:.6}] {unit}", v[1], v[0], v[2]);
        let _ = writeln!(
            s,
            "{:<17} {:<20} {:>38} {:>38} {:>5.0}% {:>+7.2}% {:?} ({} pairs)",
            r.workload,
            r.metric,
            q(r.parent),
            q(r.change),
            r.wins * 100.0,
            r.worse_by * 100.0,
            r.verdict,
            r.pairs
        );
    }
    for (label, set) in [("parent", parent), ("change", change)] {
        for r in noisy(set) {
            let _ = writeln!(s, "noisy {label} run (calibration off by >10%): {}", r.file);
        }
        for r in set.iter().filter(|r| !r.correct) {
            let _ = writeln!(s, "incorrect {label} run: {}", r.file);
        }
        for (wl, seed) in nondeterministic(set) {
            let _ = writeln!(s, "{label}: {wl} seed {seed} gave differing outputs");
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(workload: &str, seed: u64, v: f64) -> Record {
        Record {
            workload: workload.to_string(),
            seed,
            calib_ns: 1e7,
            digest: "d".to_string(),
            correct: true,
            metrics: BTreeMap::from([("lat".to_string(), v)]),
            file: String::new(),
        }
    }

    fn lat(bound: f64) -> Vec<Metric> {
        vec![Metric {
            name: "lat".to_string(),
            unit: "ms".to_string(),
            better: Better::Lower,
            bound: Some(bound),
            deterministic: false,
        }]
    }

    #[test]
    fn flags_regressions_beyond_the_bound_only() {
        let parent: Vec<Record> = (0..10)
            .map(|s| rec("w", s, 10.0 + s as f64 * 0.01))
            .collect();
        let same: Vec<Record> = (0..10)
            .map(|s| rec("w", s, 10.0 + s as f64 * 0.01))
            .collect();
        let slow: Vec<Record> = (0..10)
            .map(|s| rec("w", s, 12.0 + s as f64 * 0.01))
            .collect();
        let rows = compare(&lat(0.1), &parent, &same);
        assert_eq!(rows[0].verdict, Verdict::Ok);
        assert_eq!(rows[0].pairs, 10);
        assert_eq!(rows[0].wins, 0.0);
        let rows = compare(&lat(0.1), &parent, &slow);
        assert_eq!(rows[0].verdict, Verdict::Regression);
        let fast: Vec<Record> = (0..10).map(|s| rec("w", s, 5.0)).collect();
        let rows = compare(&lat(0.1), &parent, &fast);
        assert_eq!(rows[0].verdict, Verdict::Better);
        assert_eq!(rows[0].wins, 1.0);
    }

    #[test]
    fn wide_parent_spread_is_unresolved() {
        let parent: Vec<Record> = (0..10).map(|s| rec("w", s, 5.0 + s as f64)).collect();
        let change: Vec<Record> = (0..10).map(|s| rec("w", s, 6.0 + s as f64)).collect();
        let rows = compare(&lat(0.05), &parent, &change);
        assert_eq!(rows[0].verdict, Verdict::Unresolved);
    }

    #[test]
    fn deterministic_metrics_allow_no_worsening_on_any_seed() {
        let mut det = lat(0.2);
        det[0].deterministic = true;
        // Seeds spread the parent by far more than the change moves it.
        let parent: Vec<Record> = (0..10).map(|s| rec("w", s, 10.0 + s as f64)).collect();
        let rows = compare(&det, &parent, &parent.clone());
        assert_eq!(rows[0].verdict, Verdict::Ok);
        let worse: Vec<Record> = (0..10)
            .map(|s| rec("w", s, (10.0 + s as f64) * 1.15))
            .collect();
        assert_eq!(
            compare(&lat(0.2), &parent, &worse)[0].verdict,
            Verdict::Unresolved
        );
        assert_eq!(
            compare(&det, &parent, &worse)[0].verdict,
            Verdict::Regression
        );
        let mut one_better = parent.clone();
        one_better[3].metrics.insert("lat".to_string(), 1.0);
        assert_eq!(
            compare(&det, &parent, &one_better)[0].verdict,
            Verdict::Better
        );
        let other_seeds: Vec<Record> = (10..20).map(|s| rec("w", s, 10.0)).collect();
        assert_eq!(
            compare(&det, &parent, &other_seeds)[0].verdict,
            Verdict::Unresolved
        );
    }

    #[test]
    fn flags_noisy_calibration_and_nondeterminism() {
        let mut rs: Vec<Record> = (0..5).map(|s| rec("w", s, 1.0)).collect();
        rs[2].calib_ns = 2e7;
        assert_eq!(noisy(&rs).len(), 1);
        let mut twin = rec("w", 1, 1.0);
        twin.digest = "e".to_string();
        rs.push(twin);
        assert_eq!(nondeterministic(&rs), vec![("w".to_string(), 1)]);
    }
}
