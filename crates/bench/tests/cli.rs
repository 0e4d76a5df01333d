//! The `mp-bench` command line: exit codes (0, 2 for usage errors, 1 for
//! write failures) and the files `--out` / `--csv` write.

use std::path::PathBuf;
use std::process::{Command, Output};

use mp_bench::experiments::table2;
use mp_bench::Scale;

fn mp_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mp-bench"))
        .args(args)
        .env("MPACCEL_BENCH_SCALE", "quick")
        .output()
        .expect("mp-bench runs")
}

fn code(args: &[&str]) -> Option<i32> {
    mp_bench(args).status.code()
}

/// A fresh directory for one test's files.
fn scratch_dir(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("cli-{test}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test directory");
    dir
}

#[test]
fn help_exits_zero() {
    let out = mp_bench(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: mp-bench"));
}

#[test]
fn usage_errors_exit_two() {
    assert_eq!(code(&[]), Some(2), "missing command");
    assert_eq!(code(&["fig99"]), Some(2), "unknown subcommand");
    assert_eq!(code(&["table2", "--bogus"]), Some(2), "unknown flag");
    assert_eq!(code(&["table2", "--timings"]), Some(2), "table3-only flag");
    assert_eq!(code(&["table2", "--out"]), Some(2), "flag without a path");
    assert_eq!(code(&["soak", "--metrics"]), Some(2), "flag without a path");
    for flag in ["--trace", "--flight", "--metrics"] {
        assert_eq!(
            code(&["table2", flag, "unused.txt"]),
            Some(2),
            "{flag} on an experiment without a capture"
        );
    }
    assert_eq!(code(&["all", "extra"]), Some(2));
    for retired in [&["perf"][..], &["perf", "fig99"], &["perf_compare"]] {
        assert_eq!(code(retired), Some(2), "{retired:?} is not a command");
    }
    assert_eq!(code(&["traces", "a", "b"]), Some(2));
}

#[test]
fn unknown_scale_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_mp-bench"))
        .arg("table2")
        .env("MPACCEL_BENCH_SCALE", "ful")
        .output()
        .expect("mp-bench runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing runs at the wrong scale");
    assert!(String::from_utf8_lossy(&out.stderr).contains("quick|full"));
}

#[test]
fn unwritable_out_path_exits_one() {
    let dir = scratch_dir("unwritable");
    let path = dir.join("missing").join("table2.txt");
    assert_eq!(
        code(&["table2", "--out", path.to_str().expect("utf-8 path")]),
        Some(1)
    );
}

#[test]
fn unwritable_suite_outputs_exit_one_before_the_suite_runs() {
    let dir = scratch_dir("unwritable-suite");
    let file = dir.join("not-a-directory");
    std::fs::write(&file, "").expect("create a regular file");
    for (var, path) in [
        ("MPACCEL_BENCH_JSON", file.join("BENCH.json")),
        ("MPACCEL_CSV_DIR", file.join("csv")),
    ] {
        // `var` is the one unwritable output; the other stays writable.
        let out = Command::new(env!("CARGO_BIN_EXE_mp-bench"))
            .arg("all")
            .env("MPACCEL_BENCH_SCALE", "quick")
            .env("MPACCEL_BENCH_JSON", dir.join("BENCH.json"))
            .env_remove("MPACCEL_CSV_DIR")
            .env(var, &path)
            .output()
            .expect("mp-bench runs");
        assert_eq!(out.status.code(), Some(1), "{var} under a regular file");
        assert!(
            out.stdout.is_empty(),
            "nothing runs when {var} is unwritable"
        );
    }
}

#[test]
fn out_and_csv_write_the_printed_report() {
    let dir = scratch_dir("out-csv");
    let (out, csv) = (dir.join("table2.txt"), dir.join("table2.csv"));
    let run = mp_bench(&[
        "table2",
        "--out",
        out.to_str().expect("utf-8 path"),
        "--csv",
        csv.to_str().expect("utf-8 path"),
    ]);
    assert_eq!(run.status.code(), Some(0));
    let report = table2::run(Scale::Quick);
    assert_eq!(String::from_utf8_lossy(&run.stdout), format!("{report}\n"));
    assert_eq!(std::fs::read_to_string(&out).unwrap(), report.to_string());
    assert_eq!(std::fs::read_to_string(&csv).unwrap(), report.to_csv());
}
