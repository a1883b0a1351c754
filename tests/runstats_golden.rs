//! Full-`RunStats` golden snapshot of the OS layer.
//!
//! The golden `paper` exports (`crates/bench/tests/paper_cli.rs`) carry
//! only the exported columns, and `core_equivalence` compares two core
//! models of one build. Neither catches a driver change that shifts the
//! non-exported counters of both models alike: engine stats (OS queue
//! pushes/pops/depth, idle spans), idle context-cycles, migrations, merge
//! and cache counters, per-thread RNG states. This test renders the
//! `{:#?}` of every cell's whole `RunStats` over a small fixed grid of
//! closed, open and fleet runs, under both core models, and diffs it byte
//! for byte against `tests/golden/runstats.txt`.
//!
//! Regenerate (only when a simulated result is meant to change, and
//! record it in CHANGES.md):
//!
//! ```text
//! cargo test --test runstats_golden -- --ignored regenerate
//! ```

use std::path::{Path, PathBuf};
use vliw_tms::core::catalog;
use vliw_tms::fleet::FleetSpec;
use vliw_tms::sim::os::Machine;
use vliw_tms::sim::runner::{make_threads, ImageCache};
use vliw_tms::sim::{run_fleet, CoreModel, SimConfig, WorkloadRef};

/// Scale of every cell: 5 000-instruction budgets, 1 000-cycle quanta.
const SCALE: u64 = 20_000;

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/runstats.txt")
}

/// One grid cell: a label and how to run it under a core model.
struct Cell {
    label: &'static str,
    scheme: &'static str,
    members: &'static [&'static str],
    traffic: &'static str,
    max_cycles: u64,
    /// `Some(spec)` routes the members through a fleet instead.
    fleet: Option<&'static str>,
}

const LLLL: &[&str] = &["mcf", "bzip2", "blowfish", "gsmencode"];
const LLHH: &[&str] = &["mcf", "bzip2", "x264", "idct"];
const EIGHT: &[&str] = &[
    "mcf",
    "bzip2",
    "x264",
    "idct",
    "cjpeg",
    "blowfish",
    "djpeg",
    "gsmencode",
];

const GRID: &[Cell] = &[
    Cell {
        label: "closed ST/LLLL (timeslicing)",
        scheme: "ST",
        members: LLLL,
        traffic: "closed",
        max_cycles: u64::MAX,
        fleet: None,
    },
    Cell {
        label: "closed 2SC3/LLHH (migrations)",
        scheme: "2SC3",
        members: LLHH,
        traffic: "closed",
        max_cycles: u64::MAX,
        fleet: None,
    },
    Cell {
        label: "closed 1S/LLHH aborted at max_cycles",
        scheme: "1S",
        members: LLHH,
        traffic: "closed",
        max_cycles: 2_500,
        fleet: None,
    },
    Cell {
        label: "open 2SC3 poisson",
        scheme: "2SC3",
        members: EIGHT,
        traffic: "poisson:0.002",
        max_cycles: u64::MAX,
        fleet: None,
    },
    Cell {
        label: "open 2SC3 bursty",
        scheme: "2SC3",
        members: EIGHT,
        traffic: "bursty:0.001:4:4",
        max_cycles: u64::MAX,
        fleet: None,
    },
    Cell {
        label: "open ST overloaded (sheds)",
        scheme: "ST",
        members: &["idct"; 12],
        traffic: "poisson:1",
        max_cycles: u64::MAX,
        fleet: None,
    },
    Cell {
        label: "open 1S poisson aborted at max_cycles",
        scheme: "1S",
        members: &["idct"; 8],
        traffic: "poisson:0.0004",
        max_cycles: 24_000,
        fleet: None,
    },
    Cell {
        label: "fleet paper-4x4*2",
        scheme: "3SSS",
        members: LLHH,
        traffic: "poisson:0.01",
        max_cycles: u64::MAX,
        fleet: Some("paper-4x4*2"),
    },
    Cell {
        label: "fleet edge@least-queued",
        scheme: "3SSS",
        members: EIGHT,
        traffic: "poisson:0.01",
        max_cycles: u64::MAX,
        fleet: Some("edge@least-queued"),
    },
];

/// Render every cell's `RunStats` under `model`.
fn render(model: CoreModel) -> String {
    let cache = ImageCache::new();
    let mut out = String::new();
    for cell in GRID {
        let scheme = catalog::by_name(cell.scheme).expect("catalog scheme");
        let mut cfg = SimConfig::paper(scheme, SCALE)
            .with_core_model(model)
            .with_traffic(cell.traffic.parse().expect("traffic spec"));
        cfg.max_cycles = cell.max_cycles;
        let stats = match cell.fleet {
            Some(spec) => {
                let fleet: FleetSpec = spec.parse().expect("fleet spec");
                let workload = WorkloadRef::members(cell.label, cell.members);
                run_fleet(&cache, &cfg, &fleet, &workload, 1)
            }
            None => {
                let threads = make_threads(&cache, &cfg, cell.members).expect("threads");
                Machine::new(&cfg, threads).expect("machine").run()
            }
        };
        out.push_str(&format!("== {} ==\n{stats:#?}\n", cell.label));
    }
    out
}

#[test]
fn runstats_match_the_golden_snapshot_under_both_core_models() {
    let want = std::fs::read_to_string(golden_path()).expect("tests/golden/runstats.txt");
    for model in [CoreModel::EventDriven, CoreModel::CycleAccurate] {
        let got = render(model);
        if got == want {
            continue;
        }
        let (line, (g, w)) = got
            .lines()
            .zip(want.lines())
            .enumerate()
            .find(|(_, (g, w))| g != w)
            .unwrap_or((
                got.lines().count().min(want.lines().count()),
                ("<end>", "<end>"),
            ));
        panic!(
            "{model:?}: runstats.txt differs at line {}: got {g:?}, golden {w:?}",
            line + 1
        );
    }
}

#[test]
#[ignore = "rewrites tests/golden/runstats.txt"]
fn regenerate() {
    std::fs::write(golden_path(), render(CoreModel::EventDriven)).expect("write snapshot");
}
