//! Fleet dispatch showdown: one arrival stream, many machines, three
//! routing policies.
//!
//! A single machine judges merge schemes by how well they pack one core.
//! At fleet scale the question inverts: given a *set* of machines behind
//! a dispatcher, where should each arriving job go? This example holds
//! the scheme, the workload and the offered load fixed and sweeps the
//! fleet shape instead — a homogeneous scaling arc (one, two, four paper
//! machines) and the heterogeneous `edge` mix under each built-in
//! dispatcher policy (`round-robin`, `least-queued`, `affinity`). Every
//! fleet run is deterministic and worker-count independent, so the
//! routing splits printed here are reproducible bytes, not samples.
//!
//! ```text
//! cargo run --release --example fleet_dispatch
//! ```
//!
//! Paper exhibit: the `fleet` exhibit of the `paper` harness — a
//! beyond-the-paper two-level scheduling study (dispatcher above, the
//! paper's OS scheduler below) motivated by the ROADMAP's serving-stack
//! north star.

use vliw_tms::sim::experiments::traffic_workload;
use vliw_tms::sim::plan::{CellQuery, FleetSpec, Plan, Session};

fn main() {
    // The ladder: scale out homogeneously, then mix geometries and let
    // the dispatcher decide. A bare machine spec is a singleton fleet.
    let fleets: Vec<FleetSpec> = [
        "paper-4x4",
        "paper-4x4*2",
        "paper-4x4*4",
        "edge@round-robin",
        "edge@least-queued",
        "edge", // the edge preset defaults to the affinity policy
    ]
    .iter()
    .map(|s| s.parse().expect("canonical spellings"))
    .collect();

    let set = Plan::new()
        .scheme("2SC3")
        .workload(traffic_workload())
        .fleets(fleets.iter().cloned())
        .arrival("poisson:0.0005".parse().expect("canonical spelling"))
        .scale(20_000)
        .run(&Session::new());

    println!("fleet dispatch under a saturating Poisson stream (2SC3, 12 jobs)");
    println!("routed = per-machine job counts in fleet order\n");
    println!(
        "{:>18} | {:>12} | {:>9} | {:>4} | {:>11} | {:>11} | {:>6}",
        "fleet", "dispatcher", "routed", "shed", "p50 sojourn", "p95 sojourn", "IPC"
    );
    for fleet in &fleets {
        let r = set
            .cell(&CellQuery::default().fleet(fleet))
            .expect("the plan covers every ladder rung");
        let fs = r.stats.fleet.as_ref().expect("fleet cells carry stats");
        let routed = fs
            .machines
            .iter()
            .map(|m| m.routed.to_string())
            .collect::<Vec<_>>()
            .join("/");
        let t = &r.stats.traffic;
        println!(
            "{:>18} | {:>12} | {:>9} | {:>4} | {:>11} | {:>11} | {:>6.2}",
            fleet.label(),
            fleet.dispatcher.name(),
            routed,
            t.shed,
            t.p50_sojourn,
            t.p95_sojourn,
            r.ipc()
        );
    }

    // The load-bearing observations, spelled out.
    let one = set.cell(&CellQuery::default().fleet(&fleets[0])).unwrap();
    let four = set.cell(&CellQuery::default().fleet(&fleets[2])).unwrap();
    println!(
        "\nscaling out 1 -> 4 machines cuts p95 sojourn {} -> {} cycles \
         at the same offered load",
        one.stats.traffic.p95_sojourn, four.stats.traffic.p95_sojourn
    );
}
