//! Figure/table-level experiment drivers.
//!
//! Every simulated exhibit starts from a `*_plan` function that builds the
//! declarative [`Plan`] (which schemes × workloads × axes at which scale).
//! The paper's own exhibits add a `*_data`/`*_rows` projection of the
//! executed [`ResultSet`] by *keyed lookup* (no positional index
//! arithmetic): `table1_rows(&table1_plan(scale).run(&session))`; the
//! fidelity tests read those shapes. The beyond-paper exhibits (geometry,
//! traffic, fleet) need no projection: `vliw-bench`'s renderers read their
//! result sets directly. The trace exhibit maps every traced cell into a
//! [`TraceRow`] on the worker that ran it ([`Plan::run_traced`]).
//!
//! All drivers take a `scale` divisor (1 = the paper's full
//! 100M-instruction runs).

use crate::plan::{JobKey, MachineSpec, MemoryModel, Plan, ResultSet, WorkloadRef};
use crate::runner::RunResult;
use crate::sched::SchedulerSpec;
use std::sync::Arc;
use vliw_core::catalog;
use vliw_trace::Trace;
use vliw_workloads::{all_benchmarks, mixes::mix, table2_mixes};

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Benchmark name.
    pub name: Arc<str>,
    /// ILP class letter.
    pub ilp: char,
    /// Measured IPC with real memory.
    pub ipcr: f64,
    /// Measured IPC with perfect memory.
    pub ipcp: f64,
    /// Paper's IPCr.
    pub paper_ipcr: f64,
    /// Paper's IPCp.
    pub paper_ipcp: f64,
}

/// The Table-1 sweep: every benchmark alone on the single-thread machine,
/// under both memory models.
pub fn table1_plan(scale: u64) -> Plan {
    Plan::new()
        .scheme("ST")
        .workloads(all_benchmarks())
        .axes([MemoryModel::Real, MemoryModel::Perfect])
        .scale(scale)
}

/// Project an executed [`table1_plan`] sweep into Table-1 rows.
pub fn table1_rows(set: &ResultSet) -> Vec<Table1Row> {
    all_benchmarks()
        .iter()
        .map(|b| Table1Row {
            name: b.name.clone(),
            ilp: b.ilp.letter(),
            ipcr: set
                .ipc("ST", &b.name, MemoryModel::Real)
                .expect("table1 grid covers every benchmark"),
            ipcp: set
                .ipc("ST", &b.name, MemoryModel::Perfect)
                .expect("table1 grid covers every benchmark"),
            paper_ipcr: b.paper_ipcr,
            paper_ipcp: b.paper_ipcp,
        })
        .collect()
}

/// Figure 4 data: per-mix and average IPC of SMT with 1, 2 and 4 hardware
/// threads.
#[derive(Debug, Clone)]
pub struct Fig4Data {
    /// Mix labels in Table-2 order.
    pub mixes: Vec<&'static str>,
    /// IPC per mix for [single-thread, 2-thread SMT, 4-thread SMT].
    pub ipc: Vec<[f64; 3]>,
}

impl Fig4Data {
    /// Average IPC across mixes for each processor width.
    pub fn averages(&self) -> [f64; 3] {
        let mut acc = [0.0f64; 3];
        for row in &self.ipc {
            for k in 0..3 {
                acc[k] += row[k];
            }
        }
        acc.map(|x| x / self.ipc.len().max(1) as f64)
    }
}

/// Schemes of the Figure-4 sweep, in column order.
const FIG4_SCHEMES: [&str; 3] = ["ST", "1S", "3SSS"];

/// The Figure-4 sweep: 1/2/4-thread SMT over every Table-2 mix.
pub fn fig4_plan(scale: u64) -> Plan {
    Plan::new()
        .schemes(FIG4_SCHEMES)
        .workloads(table2_mixes())
        .scale(scale)
}

/// Project an executed [`fig4_plan`] sweep into Figure-4 shape.
pub fn fig4_data(set: &ResultSet) -> Fig4Data {
    let mixes: Vec<&'static str> = table2_mixes().iter().map(|m| m.name).collect();
    let ipc = mixes
        .iter()
        .map(|mix| {
            FIG4_SCHEMES.map(|s| {
                set.ipc(s, mix, MemoryModel::Real)
                    .expect("fig4 grid covers every scheme x mix")
            })
        })
        .collect();
    Fig4Data { mixes, ipc }
}

/// Figure 6 data: SMT's advantage over CSMT per mix, in percent.
#[derive(Debug, Clone)]
pub struct Fig6Data {
    /// (mix label, SMT IPC, CSMT IPC, advantage %).
    pub rows: Vec<(&'static str, f64, f64, f64)>,
}

impl Fig6Data {
    /// Average advantage across mixes.
    pub fn average(&self) -> f64 {
        self.rows.iter().map(|r| r.3).sum::<f64>() / self.rows.len().max(1) as f64
    }
}

/// The Figure-6 sweep: 4-thread SMT vs 4-thread CSMT over every mix.
pub fn fig6_plan(scale: u64) -> Plan {
    Plan::new()
        .schemes(["3SSS", "3CCC"])
        .workloads(table2_mixes())
        .scale(scale)
}

/// Project an executed [`fig6_plan`] sweep into Figure-6 shape.
pub fn fig6_data(set: &ResultSet) -> Fig6Data {
    let rows = table2_mixes()
        .iter()
        .map(|m| {
            let smt = set
                .ipc("3SSS", m.name, MemoryModel::Real)
                .expect("fig6 grid covers every mix");
            let csmt = set
                .ipc("3CCC", m.name, MemoryModel::Real)
                .expect("fig6 grid covers every mix");
            (m.name, smt, csmt, (smt / csmt - 1.0) * 100.0)
        })
        .collect();
    Fig6Data { rows }
}

/// Figure 10 data: IPC of every scheme on every mix.
#[derive(Debug, Clone)]
pub struct Fig10Data {
    /// Scheme names (catalog order: C4 ... 3SSS).
    pub schemes: Vec<String>,
    /// Mix labels.
    pub mixes: Vec<&'static str>,
    /// `ipc[scheme][mix]`.
    pub ipc: Vec<Vec<f64>>,
}

impl Fig10Data {
    /// IPC of `scheme` averaged over mixes.
    pub fn average_of(&self, scheme: &str) -> Option<f64> {
        let i = self.schemes.iter().position(|s| s == scheme)?;
        Some(self.ipc[i].iter().sum::<f64>() / self.ipc[i].len().max(1) as f64)
    }

    /// All per-scheme averages, in scheme order.
    pub fn averages(&self) -> Vec<(String, f64)> {
        self.schemes
            .iter()
            .enumerate()
            .map(|(i, s)| {
                (
                    s.clone(),
                    self.ipc[i].iter().sum::<f64>() / self.ipc[i].len().max(1) as f64,
                )
            })
            .collect()
    }
}

/// The Figure-10 sweep: all 16 catalog schemes (plus the implicit 1S
/// member of the catalog) across the 9 mixes. Also feeds Figures 11/12 and
/// the §5.2 headline claims.
pub fn fig10_plan(scale: u64) -> Plan {
    Plan::new()
        .schemes(catalog::paper_schemes())
        .workloads(table2_mixes())
        .scale(scale)
}

/// Project an executed [`fig10_plan`] sweep into Figure-10 shape.
pub fn fig10_data(set: &ResultSet) -> Fig10Data {
    let schemes: Vec<String> = set.schemes().iter().map(|s| s.name().to_string()).collect();
    let mixes: Vec<&'static str> = table2_mixes().iter().map(|m| m.name).collect();
    let ipc = schemes
        .iter()
        .map(|s| {
            mixes
                .iter()
                .map(|m| {
                    set.ipc(s, m, MemoryModel::Real)
                        .expect("fig10 grid covers every scheme x mix")
                })
                .collect()
        })
        .collect();
    Fig10Data {
        schemes,
        mixes,
        ipc,
    }
}

/// Schemes of the geometry sweep: the paper's reference points (1-thread,
/// 4-thread CSMT, 4-thread SMT) plus the headline hybrid.
pub const GEOMETRY_SCHEMES: [&str; 4] = ["ST", "3CCC", "2SC3", "3SSS"];

/// The geometry sweep (beyond the paper): [`GEOMETRY_SCHEMES`] over every
/// Table-2 mix across all [`MachineSpec::presets`] — Alipour &
/// Taghdisi-style "which architecture suits how much TLP", with the
/// hwcost model pricing each scheme on its actual geometry.
pub fn geometry_plan(scale: u64) -> Plan {
    Plan::new()
        .schemes(GEOMETRY_SCHEMES)
        .workloads(table2_mixes())
        .machines(MachineSpec::presets())
        .scale(scale)
}

/// One row of the trace exhibit: the cycle-level decomposition of one
/// grid cell's run, derived from its full event trace.
#[derive(Debug, Clone)]
pub struct TraceRow {
    /// Cell label (scheme, plus any non-default axis values).
    pub label: String,
    /// Workload of the cell.
    pub workload: String,
    /// Executed cycles.
    pub cycles: u64,
    /// Cell IPC.
    pub ipc: f64,
    /// Stall cycles by kind, from the trace's stall events (equals the
    /// run's `RunStats::stall_breakdown` — the conservation invariant).
    pub stalls: vliw_trace::StallBreakdown,
    /// Cross-context thread migrations.
    pub migrations: u64,
    /// Merge/split transitions of the issuing-context mask.
    pub merge_transitions: u64,
    /// Fraction of context-cycles with a thread installed.
    pub occupancy: f64,
    /// Events in the cell's trace.
    pub events: usize,
}

impl TraceRow {
    /// Project one traced cell into its row (stall decomposition,
    /// migrations, merge/split dynamics, occupancy): the `map` of
    /// [`Plan::run_traced`] over a [`trace_plan`], or any plan — the
    /// `paper` binary applies the CLI's scheduler/machine axes first.
    pub fn of(key: &JobKey, result: &RunResult, trace: &Trace) -> Self {
        let mut label = key.scheme.name().to_string();
        if key.scheduler != SchedulerSpec::PaperRandom {
            label.push_str(&format!(" {}", key.scheduler.name()));
        }
        if key.machine != MachineSpec::Paper4x4 {
            label.push_str(&format!(" @{}", key.machine.label()));
        }
        if key.memory != MemoryModel::Real {
            label.push_str(" (perfect)");
        }
        let occupied: u64 = vliw_trace::occupancy_timeline(trace)
            .iter()
            .map(|s| s.len())
            .sum();
        let ctx_cycles = result.stats.cycles * u64::from(trace.n_contexts);
        TraceRow {
            label,
            workload: key.workload.name().to_string(),
            cycles: result.stats.cycles,
            ipc: result.ipc(),
            stalls: vliw_trace::StallBreakdown::from_events(&trace.events),
            migrations: result.stats.migrations,
            merge_transitions: trace
                .events
                .iter()
                .filter(|e| matches!(e, vliw_trace::TraceEvent::MergeTransition { .. }))
                .count() as u64,
            occupancy: if ctx_cycles == 0 {
                0.0
            } else {
                occupied as f64 / ctx_cycles as f64
            },
            events: trace.len(),
        }
    }
}

/// Run-length floor for the trace exhibit: full event streams grow
/// linearly with run length, so the exhibit never runs longer than
/// 1/5000 of the paper's budget (20k retired instructions per thread).
pub const TRACE_SCALE_FLOOR: u64 = 5_000;

/// The trace-exhibit sweep: 4-thread SMT vs 4-thread CSMT on the LLHH
/// mix — the cell pair behind the paper's peak Figure-6 advantage —
/// fully traced. `scale` is floored at [`TRACE_SCALE_FLOOR`].
pub fn trace_plan(scale: u64) -> Plan {
    Plan::new()
        .schemes(["3SSS", "3CCC"])
        .workload("LLHH")
        .scale(scale.max(TRACE_SCALE_FLOOR))
}

/// Schemes of the traffic exhibit: the paper's reference points (1-thread,
/// 4-thread CSMT, 4-thread SMT) plus the headline hybrid — the same set
/// the geometry sweep compares, now judged by tail latency instead of
/// throughput.
pub const TRAFFIC_SCHEMES: [&str; 4] = GEOMETRY_SCHEMES;

/// Offered-load ladder of the traffic exhibit (canonical
/// [`TrafficSpec`](crate::plan::TrafficSpec) spellings): light, moderate
/// and saturating Poisson arrivals. The heavy point oversubscribes every
/// scheme's admission limit, so the shed column becomes part of the
/// comparison.
pub const TRAFFIC_LOADS: [&str; 3] = ["poisson:0.00002", "poisson:0.0001", "poisson:0.0005"];

/// Run-length floor for the traffic exhibit: open-system runs last until
/// the *last arrival* drains, so the exhibit never runs jobs longer than
/// 1/5000 of the paper's budget (20k retired instructions per job).
pub const TRAFFIC_SCALE_FLOOR: u64 = 5_000;

/// The open-system job stream: the LLHH mix tripled to 12 jobs, so the
/// arrival process oversubscribes even the 4-context schemes'
/// multiprogramming limit and the admission queue genuinely decides who
/// waits.
pub fn traffic_workload() -> WorkloadRef {
    let llhh = mix("LLHH").expect("Table-2 catalog has LLHH");
    let specs = llhh
        .members
        .iter()
        .cycle()
        .take(llhh.members.len() * 3)
        .map(|name| {
            vliw_workloads::benchmark(name)
                .expect("mix members are Table-1 benchmarks")
                .clone()
        })
        .collect();
    WorkloadRef::custom("LLHH-x3", specs)
}

/// The traffic sweep (beyond the paper): [`TRAFFIC_SCHEMES`] under the
/// [`TRAFFIC_LOADS`] Poisson ladder on the 12-job [`traffic_workload`] —
/// latency-vs-offered-load curves, the open-system comparison the
/// ROADMAP's serving-stack north star calls for. `scale` is floored at
/// [`TRAFFIC_SCALE_FLOOR`].
pub fn traffic_plan(scale: u64) -> Plan {
    Plan::new()
        .schemes(TRAFFIC_SCHEMES)
        .workload(traffic_workload())
        .arrivals(
            TRAFFIC_LOADS
                .iter()
                .map(|s| s.parse().expect("ladder spellings are canonical")),
        )
        .scale(scale.max(TRAFFIC_SCALE_FLOOR))
}

/// Scheme of the fleet exhibit: the headline hybrid, judged at fleet scale.
pub const FLEET_SCHEME: &str = "2SC3";

/// Fleet ladder of the fleet exhibit (canonical
/// [`FleetSpec`](crate::plan::FleetSpec) spellings): a homogeneous
/// scaling arc (one, two, four paper machines) followed by
/// the heterogeneous `edge` mix under each dispatcher policy, so one table
/// shows both how tail latency falls with machine count and which policy
/// wins when the lanes differ.
pub const FLEET_LADDER: [&str; 6] = [
    "paper-4x4",
    "paper-4x4*2",
    "paper-4x4*4",
    "edge@round-robin",
    "edge@least-queued",
    "edge",
];

/// Arrival process of the fleet exhibit: the traffic exhibit's saturating
/// point — heavy enough to shed jobs on a single machine, light enough
/// that a four-machine fleet absorbs everything.
pub const FLEET_ARRIVALS: &str = "poisson:0.0005";

/// Run-length floor for the fleet exhibit (same open-system reasoning as
/// [`TRAFFIC_SCALE_FLOOR`]).
pub const FLEET_SCALE_FLOOR: u64 = TRAFFIC_SCALE_FLOOR;

/// The fleet sweep (beyond the paper): the [`FLEET_LADDER`] under one
/// saturating arrival process on the 12-job [`traffic_workload`], at the
/// headline [`FLEET_SCHEME`] — the dispatcher showdown the ROADMAP's
/// serving-stack north star calls for. `scale` is floored at
/// [`FLEET_SCALE_FLOOR`].
pub fn fleet_plan(scale: u64) -> Plan {
    Plan::new()
        .scheme(FLEET_SCHEME)
        .workload(traffic_workload())
        .fleets(
            FLEET_LADDER
                .iter()
                .map(|s| s.parse().expect("ladder spellings are canonical")),
        )
        .arrival(
            FLEET_ARRIVALS
                .parse()
                .expect("ladder spelling is canonical"),
        )
        .scale(scale.max(FLEET_SCALE_FLOOR))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{CellQuery, FleetSpec, Session};

    // Tiny-scale smoke tests: the full-size validations live in the
    // integration suite and the paper harness.

    #[test]
    fn table1_smoke() {
        let rows = table1_rows(&table1_plan(20_000).run(&Session::with_parallelism(4)));
        assert_eq!(rows.len(), 12);
        for r in &rows {
            assert!(
                r.ipcp >= r.ipcr * 0.95,
                "{}: perfect memory can't lose",
                r.name
            );
            assert!(r.ipcr > 0.1 && r.ipcp < 16.0, "{}", r.name);
        }
    }

    #[test]
    fn fig4_smoke_ordering() {
        let d = fig4_data(&fig4_plan(20_000).run(&Session::with_parallelism(4)));
        let [st, smt2, smt4] = d.averages();
        assert!(smt2 > st, "2T SMT {smt2:.2} must beat 1T {st:.2}");
        assert!(smt4 > smt2, "4T SMT {smt4:.2} must beat 2T {smt2:.2}");
    }

    #[test]
    fn fig6_smoke_smt_wins() {
        let d = fig6_data(&fig6_plan(20_000).run(&Session::with_parallelism(4)));
        assert!(d.average() > 0.0, "SMT must beat CSMT on average");
    }

    #[test]
    fn trace_exhibit_decomposes_both_schemes() {
        let traced =
            |scale| trace_plan(scale).run_traced(&Session::with_parallelism(2), TraceRow::of);
        let (set, rows) = traced(50_000);
        assert_eq!(set.scale(), 50_000, "above the floor, scale passes through");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].label, "3SSS");
        assert_eq!(rows[1].label, "3CCC");
        for r in &rows {
            assert_eq!(r.workload, "LLHH");
            assert!(r.ipc > 0.0);
            assert!(r.stalls.total() > 0, "{}: no stalls traced", r.label);
            assert!(r.merge_transitions > 0, "{}: mask never changed", r.label);
            assert!(r.events > 0);
            // 4 threads on 4 contexts: fully occupied.
            assert!(r.occupancy > 0.99, "{}: occupancy {}", r.label, r.occupancy);
        }
        // The floor engages below it.
        assert_eq!(trace_plan(1).jobs().len(), 2);
        assert_eq!(traced(u64::MAX).0.scale(), u64::MAX);
    }

    #[test]
    fn geometry_sweep_covers_every_machine_and_prices_merge_logic() {
        let set = geometry_plan(200_000).run(&Session::with_parallelism(4));
        assert_eq!(set.machines(), MachineSpec::presets());
        assert_eq!(set.schemes().len(), GEOMETRY_SCHEMES.len());
        for &m in set.machines() {
            for s in GEOMETRY_SCHEMES {
                let q = CellQuery::default().scheme(s).machine(m);
                assert!(set.mean(&q).unwrap() > 0.0, "{m}/{s}");
                let cost = set.merge_cost(s, m).unwrap();
                let per_area = set.ipc_per_area(s, m, MemoryModel::Real);
                if s == "ST" {
                    assert_eq!(cost.transistors, 0, "ST has no merge hardware");
                    assert!(per_area.is_none());
                } else {
                    assert!(cost.transistors > 0, "{m}/{s}");
                    assert!(per_area.unwrap() > 0.0);
                }
            }
        }
        // Cost follows geometry: 2 fat clusters price differently than the
        // paper's 4x4 for the same scheme.
        let t = |m: MachineSpec| set.merge_cost("3SSS", m).unwrap().transistors;
        assert_ne!(t(MachineSpec::Paper4x4), t(MachineSpec::Wide2x8));
    }

    #[test]
    fn traffic_exhibit_sweeps_the_load_ladder() {
        let run = |scale| traffic_plan(scale).run(&Session::with_parallelism(4));
        let set = run(100_000);
        assert_eq!(
            set.scale(),
            100_000,
            "above the floor, scale passes through"
        );
        assert_eq!(set.len(), TRAFFIC_SCHEMES.len() * TRAFFIC_LOADS.len());
        for (key, r) in set.iter() {
            let t = &r.stats.traffic;
            let label = format!("{}/{}", key.scheme.name(), key.traffic);
            assert_eq!(t.offered, 12, "{label}: 12-job stream");
            assert_eq!(t.completed + t.shed, t.offered, "{label}");
            assert!(t.p50_sojourn <= t.p95_sojourn && t.p95_sojourn <= t.p99_sojourn);
            assert!(key.traffic.offered_rate() > 0.0);
            if t.completed > 0 {
                assert!(r.ipc() > 0.0, "{label}");
            }
        }
        // Tail latency responds to offered load: for every scheme the
        // saturating point is no faster than the light one.
        for scheme in TRAFFIC_SCHEMES {
            let p95 = |spec: &str| {
                let q = CellQuery::default().scheme(scheme);
                let r = set.cell(&q.traffic(spec.parse().unwrap())).unwrap();
                r.stats.traffic.p95_sojourn
            };
            let (light, heavy) = (p95(TRAFFIC_LOADS[0]), p95(TRAFFIC_LOADS[2]));
            assert!(
                heavy >= light,
                "{scheme}: heavy p95 {heavy} vs light {light}"
            );
        }
        // The floor engages below it.
        assert_eq!(traffic_plan(1).jobs().len(), 12);
        assert_eq!(run(u64::MAX).scale(), u64::MAX);
    }

    #[test]
    fn fleet_exhibit_climbs_the_ladder() {
        let set = fleet_plan(5_000).run(&Session::with_parallelism(4));
        assert_eq!(set.scale(), FLEET_SCALE_FLOOR);
        let fleets: Vec<&FleetSpec> = set.fleets().collect();
        assert_eq!(fleets.len(), FLEET_LADDER.len());
        let cell = |f| set.cell(&CellQuery::default().fleet(f)).unwrap();
        for (&fleet, spec) in fleets.iter().zip(FLEET_LADDER) {
            assert_eq!(fleet.label(), spec, "ladder spellings are canonical");
            let r = cell(fleet);
            let t = &r.stats.traffic;
            let routed: Vec<u64> = r
                .stats
                .fleet
                .as_ref()
                .unwrap()
                .machines
                .iter()
                .map(|m| m.routed)
                .collect();
            assert_eq!(t.offered, 12, "{spec}: 12-job stream");
            assert_eq!(t.completed + t.shed, t.offered, "{spec}: conservation");
            assert_eq!(routed.len(), fleet.n_machines(), "{spec}");
            assert_eq!(routed.iter().sum::<u64>(), t.offered, "{spec}");
            assert!(t.p50_sojourn <= t.p95_sojourn && t.p95_sojourn <= t.p99_sojourn);
            assert!(r.ipc() > 0.0, "{spec}");
        }
        // More machines can only help the tail at fixed offered load.
        let (one, four) = (
            &cell(fleets[0]).stats.traffic,
            &cell(fleets[2]).stats.traffic,
        );
        assert_eq!(fleets[2].n_machines(), 4);
        assert!(
            four.p95_sojourn <= one.p95_sojourn,
            "4 machines p95 {} vs 1 machine {}",
            four.p95_sojourn,
            one.p95_sojourn
        );
        assert!(four.shed <= one.shed);
    }

    #[test]
    fn data_projections_agree_with_keyed_lookup() {
        let set = fig4_plan(50_000).run(&Session::with_parallelism(2));
        let d = fig4_data(&set);
        for (i, mix) in d.mixes.iter().enumerate() {
            for (k, scheme) in FIG4_SCHEMES.iter().enumerate() {
                assert_eq!(
                    d.ipc[i][k],
                    set.ipc(scheme, mix, MemoryModel::Real).unwrap(),
                    "{scheme}/{mix}"
                );
            }
        }
    }
}
