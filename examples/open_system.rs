//! Open-system load sweep: SMT vs the headline hybrid under rising traffic.
//!
//! Closed runs can only compare schemes by throughput. With an arrival
//! process ([`TrafficSpec`]) the machine becomes an open system: jobs
//! arrive over time, wait in a bounded admission queue (or are shed when
//! it is full), and every job's sojourn time — arrival to completion — is
//! recorded. This example sweeps a Poisson offered-load ladder over
//! 4-thread SMT (`3SSS`) and the paper's best hybrid (`2SC3`) on a 12-job
//! stream and prints the latency-vs-load table: the serving-stack view of
//! the same hardware trade the paper judges by IPC.
//!
//! ```text
//! cargo run --release --example open_system
//! ```
//!
//! Paper exhibit: the `traffic` exhibit of the `paper` harness — a
//! beyond-the-paper open-system comparison (tail latency at a given
//! offered load) of the Figure-10 schemes, motivated by the ROADMAP's
//! heavy-traffic north star.

use vliw_tms::sim::experiments::traffic_workload;
use vliw_tms::sim::plan::{CellQuery, Plan, Session, TrafficSpec};

fn main() {
    let schemes = ["3SSS", "2SC3"];
    let loads: Vec<TrafficSpec> = ["poisson:0.00005", "poisson:0.0002", "poisson:0.001"]
        .iter()
        .map(|s| s.parse().expect("canonical spellings"))
        .collect();
    let set = Plan::new()
        .schemes(schemes)
        .workload(traffic_workload())
        .arrivals(loads.clone())
        .scale(20_000)
        .run(&Session::new());

    println!("sojourn latency (cycles, arrival -> completion) vs offered load");
    println!("12-job LLHH-x3 stream; jobs arriving at a full admission queue are shed\n");
    println!(
        "{:>16} | {:^32} | {:^32}",
        "", "3SSS (4T SMT)", "2SC3 (hybrid)"
    );
    println!(
        "{:>16} | {:>8} {:>8} {:>8} {:>4} | {:>8} {:>8} {:>8} {:>4}",
        "arrivals/cycle", "p50", "p95", "p99", "shed", "p50", "p95", "p99", "shed"
    );
    for &load in &loads {
        print!("{:>16} |", load.offered_rate().to_string());
        for scheme in schemes {
            let t = &set
                .cell(&CellQuery::default().scheme(scheme).traffic(load))
                .expect("grid covers every cell")
                .stats
                .traffic;
            print!(
                " {:>8} {:>8} {:>8} {:>4} {}",
                t.p50_sojourn,
                t.p95_sojourn,
                t.p99_sojourn,
                t.shed,
                if scheme == schemes[0] { "|" } else { "" }
            );
        }
        println!();
    }

    // The punchline: at the saturating point, how much tail latency does
    // the cheap hybrid give up against full SMT?
    let heavy = *loads.last().expect("ladder is non-empty");
    let p99 = |scheme: &str| {
        set.cell(&CellQuery::default().scheme(scheme).traffic(heavy))
            .expect("grid covers every cell")
            .stats
            .traffic
            .p99_sojourn
    };
    let (smt, hybrid) = (p99("3SSS"), p99("2SC3"));
    println!(
        "\nat {} arrivals/cycle: p99 sojourn {} (SMT) vs {} (2SC3) — {:+.1}%\n\
         (the paper's throughput story carries over: cluster-level merging\n\
         stays competitive even when the score is tail latency under load)",
        heavy.offered_rate(),
        smt,
        hybrid,
        (hybrid as f64 / smt as f64 - 1.0) * 100.0,
    );
}
