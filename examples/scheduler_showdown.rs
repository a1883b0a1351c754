//! Scheduler showdown: the four built-in OS scheduling policies compared
//! on one oversubscribed machine.
//!
//! The paper fixes its OS model (§5.1): full eviction every 1M-cycle
//! quantum, refill from a random shuffle. That model is now one policy of
//! the pluggable `vliw_sim::sched` API; this example runs the Table-2
//! `LLHH` mix (mcf + blowfish + x264 + idct, four Table-1 benchmarks) on
//! the 2-context `1S` machine — four threads competing for two hardware
//! contexts — under every built-in policy, and compares throughput,
//! fairness and the new scheduler metrics (quantum expiries, migrations,
//! idle context-cycles).
//!
//! ```text
//! cargo run --release --example scheduler_showdown
//! ```
//!
//! Paper exhibit: the §5.1 OS model (random refill, full eviction,
//! 1M-cycle quantum) opened into a scheduling-policy axis — a
//! beyond-the-paper ablation of the context-management policy.

use vliw_tms::sim::plan::{CellQuery, Plan, Session};
use vliw_tms::sim::sched::SchedulerSpec;

fn main() {
    let mix = "LLHH";
    let scheme = "1S";
    let set = Plan::new()
        .scheme(scheme)
        .workload(mix)
        .schedulers(SchedulerSpec::all())
        .scale(2_000)
        .run(&Session::new());

    let cell = CellQuery::default().scheme(scheme).workload(mix);

    println!("{mix} on the 2-context {scheme} machine, one row per OS policy:\n");
    println!(
        "{:<18} {:>6} {:>10} {:>9} {:>12} {:>10} {:>9}",
        "scheduler", "IPC", "cycles", "quanta", "migrations", "idle c-c", "fairness"
    );
    for spec in SchedulerSpec::all() {
        let r = set
            .cell(&cell.scheduler(spec))
            .expect("plan covers every scheduler");
        println!(
            "{:<18} {:>6.2} {:>10} {:>9} {:>12} {:>10} {:>9.3}",
            spec.name(),
            r.ipc(),
            r.stats.cycles,
            r.stats.context_switches,
            r.stats.migrations,
            r.stats.idle_context_cycles,
            r.stats.fairness(),
        );
    }

    println!("\nper-thread retired instructions (scheduling fairness in the raw):");
    for spec in SchedulerSpec::all() {
        let threads = &set.cell(&cell.scheduler(spec)).unwrap().stats.threads;
        let per: Vec<String> = threads
            .iter()
            .map(|t| format!("{}={}", t.name, t.instrs))
            .collect();
        println!("  {:<18} {}", spec.name(), per.join("  "));
    }

    // The serialized exhibit now carries the scheduler axis.
    let csv = set.to_csv();
    println!("\nCSV exhibit (note the scheduler column):\n{csv}");
}
