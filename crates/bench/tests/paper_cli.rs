//! End-to-end checks of the `paper` binary: its `--json`/`--csv` exports
//! are diffed byte for byte against the golden files in `tests/golden/`
//! (see `tests/golden/README` for the command lines that regenerate them).

use std::path::{Path, PathBuf};
use std::process::Command;

/// Scale and worker count every golden file was generated with.
const GOLDEN_ARGS: [&str; 4] = ["--scale", "20000", "--threads", "2"];

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

/// A fresh scratch directory for one test's outputs.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("paper-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Panic with the first differing line when `got` is not byte-identical
/// to the golden file `name`.
fn assert_golden(name: &str, got: &Path) {
    let want = std::fs::read_to_string(golden_dir().join(name))
        .unwrap_or_else(|e| panic!("golden file {name}: {e}"));
    let got = std::fs::read_to_string(got).unwrap_or_else(|e| panic!("export {name}: {e}"));
    if got == want {
        return;
    }
    let mut sep = ['\n', ','];
    if name.ends_with(".json") {
        // One-line JSON: diff field by field instead.
        sep = [',', ','];
    }
    let (mut g, mut w) = (got.split(sep), want.split(sep));
    for i in 0.. {
        match (g.next(), w.next()) {
            (Some(a), Some(b)) if a == b => continue,
            (a, b) => panic!("{name} differs at item {i}: got {a:?}, golden {b:?}"),
        }
    }
}

/// Run `paper` with `args` plus the golden scale/threads, exporting into
/// a scratch directory, and diff both exports against `<stem>.json` /
/// `<stem>.csv`.
fn check_golden(stem: &str, args: &[&str]) {
    let dir = scratch(stem);
    let (json, csv) = (dir.join("out.json"), dir.join("out.csv"));
    let status = Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(args)
        .args(GOLDEN_ARGS)
        .arg("--out")
        .arg(dir.join("results"))
        .arg("--json")
        .arg(&json)
        .arg("--csv")
        .arg(&csv)
        .output()
        .expect("run paper");
    assert!(
        status.status.success(),
        "paper {args:?} failed: {}",
        String::from_utf8_lossy(&status.stderr)
    );
    assert_golden(&format!("{stem}.json"), &json);
    assert_golden(&format!("{stem}.csv"), &csv);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn golden_all() {
    check_golden("all", &["all"]);
}

#[test]
fn golden_scheduler_columns() {
    check_golden(
        "table1-icount",
        &["--filter", "table1", "--scheduler", "icount"],
    );
}

#[test]
fn golden_machine_columns() {
    check_golden("table1-2x8", &["--filter", "table1", "--machine", "2x8"]);
}

#[test]
fn golden_traffic_columns() {
    check_golden(
        "traffic-poisson",
        &["--filter", "traffic", "--arrivals", "poisson:0.02"],
    );
}

#[test]
fn golden_fleet_columns() {
    check_golden(
        "fleet-4x4x2",
        &["--filter", "fleet", "--fleet", "paper-4x4*2"],
    );
}

#[test]
fn golden_telemetry_columns() {
    let dir = scratch("metrics");
    let metrics = dir.join("m.prom");
    check_golden(
        "table1-metrics",
        &[
            "--filter",
            "table1",
            "--metrics",
            metrics.to_str().expect("utf-8 temp path"),
        ],
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The rendered exhibit text of `paper all` is byte-identical to
/// `paper-all.txt`, minus the final wall-clock `done in …` line.
#[test]
fn golden_stdout() {
    let dir = scratch("stdout");
    let out = Command::new(env!("CARGO_BIN_EXE_paper"))
        .arg("all")
        .args(GOLDEN_ARGS)
        .arg("--out")
        .arg(dir.join("results"))
        .output()
        .expect("run paper");
    assert!(
        out.status.success(),
        "paper all failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let (text, last) = stdout
        .trim_end_matches('\n')
        .rsplit_once('\n')
        .expect("multi-line stdout");
    assert!(last.starts_with("done in "), "last line: {last:?}");
    let got = dir.join("paper-all.txt");
    std::fs::write(&got, format!("{text}\n")).expect("write stdout");
    assert_golden("paper-all.txt", &got);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--scale 0` would clamp to a full-length run; it is rejected up front
/// like `--threads 0`, before anything is simulated.
#[test]
fn zero_scale_is_rejected() {
    let out = Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(["--filter", "table1", "--scale", "0"])
        .output()
        .expect("run paper");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--scale needs a positive number"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "nothing runs: {:?}", out.stdout);
}
