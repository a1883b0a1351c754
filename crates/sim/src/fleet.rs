//! Fleet driver: N independent machines behind one dispatcher.
//!
//! A *fleet* run advances several [`Machine`]s (possibly heterogeneous —
//! see [`vliw_fleet::FleetSpec`]) under a single arrival process. Each
//! arriving thread is routed by the fleet's [`vliw_fleet::Dispatcher`]
//! policy into one machine's bounded admission queue, giving two-level
//! scheduling: the dispatcher picks the machine, that machine's OS policy
//! picks the hardware context. The member is compiled *for the machine it
//! lands on*, so a heterogeneous fleet executes genuinely different
//! schedules per geometry.
//!
//! Determinism contract: lanes advance in lockstep to each arrival cycle
//! (a fully idle lane still advances its clock), routing decisions are
//! sequential over consistent [`LaneView`] snapshots, and lane work is
//! spread over a [`rayon`] pool whose results never feed back into
//! ordering — so the output is byte-identical for any worker count, and
//! bit-identical across both [`crate::CoreModel`]s (each lane inherits
//! the core-equivalence contract of a single machine).

use crate::config::SimConfig;
use crate::os::{LaneOutcome, Machine};
use crate::plan::WorkloadRef;
use crate::runner::ImageCache;
use crate::stats::{stall_rollup, RunStats};
use crate::thread::{ProgramMeta, SoftThread};
use rayon::prelude::*;
use rayon::ThreadPoolBuilder;
use std::sync::Mutex;
use vliw_core::MergeStats;
use vliw_fleet::{FleetSpec, FleetStats, LaneView, MachineLaneStats};
use vliw_mem::CacheStats;
use vliw_telemetry::NullTelemetry;
use vliw_trace::{Trace, TraceEvent};
use vliw_traffic::{ArrivalProcess, LatencySummary, TrafficStats};

/// Static width hint of a compiled member: mean operations per VLIW
/// instruction, rounded to nearest (min 1). The affinity dispatcher
/// compares this against each lane's per-cluster issue width.
fn width_hint(meta: &ProgramMeta) -> u32 {
    let mut ops: u64 = 0;
    let mut instrs: u64 = 0;
    for b in meta.blocks.iter() {
        instrs += b.instrs.len() as u64;
        ops += b.instrs.iter().map(|i| u64::from(i.sig.n_ops)).sum::<u64>();
    }
    if instrs == 0 {
        return 1;
    }
    ((ops * 2 + instrs) / (2 * instrs)).max(1) as u32
}

/// Run `workload` through `fleet` under `cfg`'s arrival process and
/// return the merged fleet-level statistics (`stats.fleet` is `Some`).
///
/// `cfg.machine` serves as the *reference* geometry: width hints are
/// computed from each member's compile for it, so routing decisions are
/// a function of the plan's configured machine, not of the fleet mix.
/// Each lane otherwise inherits `cfg` with its own geometry swapped in.
///
/// `parallelism` bounds the worker threads advancing lanes (clamped to
/// the fleet size); the result is byte-identical for every value.
pub fn run_fleet(
    cache: &ImageCache,
    cfg: &SimConfig,
    fleet: &FleetSpec,
    workload: &WorkloadRef,
    parallelism: usize,
) -> RunStats {
    run_fleet_traced(cache, cfg, fleet, workload, parallelism).0
}

/// Like [`run_fleet`], additionally returning the fleet-level [`Trace`]:
/// one [`TraceEvent::RoutedTo`] per arrival, in arrival order. Per-lane
/// cycle-level events are not recorded (each lane runs its monomorphized
/// untraced path); trace a single-machine run for those.
pub fn run_fleet_traced(
    cache: &ImageCache,
    cfg: &SimConfig,
    fleet: &FleetSpec,
    workload: &WorkloadRef,
    parallelism: usize,
) -> (RunStats, Trace) {
    let machines = fleet.machines();
    let lane_cfgs: Vec<SimConfig> = machines
        .iter()
        .map(|&m| cfg.clone().with_machine(m))
        .collect();
    let lanes: Vec<Mutex<Machine>> = lane_cfgs
        .iter()
        .map(|c| Mutex::new(Machine::open_lane(c)))
        .collect();
    let n = workload.n_threads();
    let arrivals = ArrivalProcess::take_cycles(cfg.traffic, cfg.seed, n);
    // Width hints come from the reference compile (cfg.machine), one per
    // member, so the dispatcher's view of a thread does not depend on
    // where previous threads were routed.
    let hints: Vec<u32> = (0..n)
        .map(|i| width_hint(&workload.image_for(i, cache, &cfg.machine, &NullTelemetry).1))
        .collect();
    let mut dispatcher = fleet.dispatcher.build();
    let mut routed: Vec<u64> = vec![0; lanes.len()];
    let mut events: Vec<TraceEvent> = Vec::new();
    let pool = ThreadPoolBuilder::new()
        .num_threads(parallelism.clamp(1, lanes.len().max(1)))
        .build()
        .expect("fleet pool");
    pool.install(|| {
        for (i, &at) in arrivals.iter().enumerate() {
            // Lockstep: every lane reaches the arrival cycle before the
            // routing decision reads its load.
            lanes
                .par_iter()
                .for_each(|l| l.lock().expect("lane mutex").lane_advance(at));
            let views: Vec<LaneView> = lanes
                .iter()
                .zip(machines.iter().zip(routed.iter()))
                .map(|(l, (&machine, &r))| {
                    let lane = l.lock().expect("lane mutex");
                    LaneView {
                        machine,
                        queue_len: lane.lane_queue_len(),
                        in_flight: lane.lane_in_flight(),
                        routed: r,
                    }
                })
                .collect();
            let to = dispatcher.route(&views, hints[i]);
            routed[to] += 1;
            events.push(TraceEvent::RoutedTo {
                cycle: at,
                tid: i as u32,
                to: to as u32,
            });
            let image = workload.image_for(i, cache, &lane_cfgs[to].machine, &NullTelemetry);
            let t = SoftThread::new(&image.0, image.1.clone(), i as u64, cfg.seed);
            lanes[to].lock().expect("lane mutex").lane_inject(t);
        }
        lanes
            .par_iter()
            .for_each(|l| l.lock().expect("lane mutex").lane_run_to_completion());
    });
    let outcomes: Vec<LaneOutcome> = lanes
        .into_iter()
        .map(|l| l.into_inner().expect("lane mutex").lane_collect())
        .collect();
    let stats = merge(&machines, &routed, outcomes);
    let threads = workload
        .member_names()
        .iter()
        .enumerate()
        .map(|(i, n)| (i as u32, n.to_string()))
        .collect();
    let trace = Trace {
        events,
        n_contexts: cfg.n_contexts() as u8,
        threads,
        end_cycle: stats.cycles,
        dropped: 0,
    };
    (stats, trace)
}

/// Merge per-lane outcomes into one fleet-level [`RunStats`].
fn merge(
    machines: &[vliw_isa::MachineSpec],
    routed: &[u64],
    outcomes: Vec<LaneOutcome>,
) -> RunStats {
    let fleet_end = outcomes.iter().map(|o| o.stats.cycles).max().unwrap_or(0);
    let mut threads = Vec::new();
    let mut sojourns = LatencySummary::new();
    let mut waits = LatencySummary::new();
    let mut lane_stats = Vec::with_capacity(outcomes.len());
    let (mut offered, mut completed, mut shed) = (0u64, 0u64, 0u64);
    let mut depth_cycles = 0.0f64;
    for ((o, &machine), &r) in outcomes.iter().zip(machines.iter()).zip(routed.iter()) {
        threads.extend(o.stats.threads.iter().cloned());
        sojourns.absorb(&o.sojourns);
        waits.absorb(&o.waits);
        offered += o.stats.traffic.offered;
        completed += o.stats.traffic.completed;
        shed += o.stats.traffic.shed;
        depth_cycles += o.stats.traffic.mean_queue_depth * o.stats.cycles as f64;
        lane_stats.push(MachineLaneStats {
            machine,
            routed: r,
            completed: o.stats.traffic.completed,
            shed: o.stats.traffic.shed,
            cycles: o.stats.cycles,
            ops: o.stats.total_ops,
            instrs: o.stats.total_instrs,
            utilization: o.stats.utilization(),
            ipc: o.stats.ipc(),
        });
    }
    threads.sort_by_key(|t| t.tid);
    let sum = |f: fn(&RunStats) -> u64| outcomes.iter().map(|o| f(&o.stats)).sum::<u64>();
    // Engine health rolls up across lanes: sums for queue traffic and
    // span counts, maxima for the high-water marks.
    let mut engine = crate::stats::EngineStats::default();
    for o in &outcomes {
        engine.absorb(&o.stats.engine);
    }
    let traffic = TrafficStats::summarize(
        offered,
        completed,
        shed,
        &sojourns,
        &waits,
        if fleet_end == 0 {
            0.0
        } else {
            depth_cycles / fleet_end as f64
        },
    );
    RunStats {
        cycles: fleet_end,
        total_ops: sum(|s| s.total_ops),
        total_instrs: sum(|s| s.total_instrs),
        vertical_waste_cycles: sum(|s| s.vertical_waste_cycles),
        horizontal_waste_slots: sum(|s| s.horizontal_waste_slots),
        // Fleet-wide slot bandwidth: the sum of the lanes' issue widths
        // (utilization() then reads ops over the pooled bandwidth).
        issue_width: outcomes.iter().map(|o| o.stats.issue_width).sum(),
        stall_breakdown: stall_rollup(&threads),
        threads,
        // Merge-network and cache counters are per-machine concepts; the
        // fleet roll-up carries empty placeholders (they are not part of
        // any serialized exhibit cell).
        merge: MergeStats::new(0),
        icache: CacheStats::default(),
        dcache: CacheStats::default(),
        context_switches: sum(|s| s.context_switches),
        scheduler: outcomes
            .first()
            .map(|o| o.stats.scheduler.clone())
            .unwrap_or_else(|| "paper-random".into()),
        migrations: sum(|s| s.migrations),
        idle_context_cycles: sum(|s| s.idle_context_cycles),
        traffic,
        fleet: Some(FleetStats {
            machines: lane_stats,
        }),
        engine,
        cache_hits: 0,
        cache_misses: 0,
        trace_dropped: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_core::catalog;
    use vliw_fleet::DispatcherSpec;

    fn cfg() -> SimConfig {
        let mut c = SimConfig::paper(catalog::smt_cascade(4), 2000);
        c.traffic = "poisson:0.01".parse().expect("traffic spec");
        c
    }

    #[test]
    fn fleet_conserves_arrivals_and_fills_fleet_stats() {
        let cache = ImageCache::new();
        let wl = WorkloadRef::from("LLHH");
        let fleet: FleetSpec = "paper-4x4*2".parse().expect("fleet spec");
        let stats = run_fleet(&cache, &cfg(), &fleet, &wl, 1);
        let fs = stats.fleet.as_ref().expect("fleet stats present");
        assert_eq!(fs.n_machines(), 2);
        assert_eq!(fs.routed_total(), stats.traffic.offered);
        assert_eq!(fs.routed_total(), wl.n_threads() as u64);
        assert!(fs.conserves_arrivals());
        assert_eq!(
            stats.traffic.completed + stats.traffic.shed,
            stats.traffic.offered,
            "fleet-wide conservation"
        );
        assert!(stats.traffic.completed > 0, "something must finish");
        assert_eq!(stats.threads.len(), stats.traffic.completed as usize);
    }

    #[test]
    fn fleet_output_is_worker_count_independent() {
        let cache = ImageCache::new();
        let wl = WorkloadRef::from("LLHH");
        let fleet = FleetSpec::edge();
        let runs: Vec<String> = [1usize, 2, 4]
            .iter()
            .map(|&p| format!("{:?}", run_fleet(&cache, &cfg(), &fleet, &wl, p)))
            .collect();
        assert_eq!(runs[0], runs[1], "1 vs 2 workers");
        assert_eq!(runs[0], runs[2], "1 vs 4 workers");
    }

    #[test]
    fn fleet_is_bit_identical_across_core_models() {
        use crate::core::CoreModel;
        let cache = ImageCache::new();
        let wl = WorkloadRef::from("LLHH");
        let fleet: FleetSpec = "edge@least-queued".parse().expect("fleet spec");
        let fast = run_fleet(&cache, &cfg(), &fleet, &wl, 2);
        let oracle = run_fleet(
            &cache,
            &cfg().with_core_model(CoreModel::CycleAccurate),
            &fleet,
            &wl,
            2,
        );
        assert_eq!(format!("{fast:?}"), format!("{oracle:?}"));
    }

    #[test]
    fn round_robin_spreads_and_trace_records_routing() {
        let cache = ImageCache::new();
        let wl = WorkloadRef::from("LLHH");
        let fleet = FleetSpec::homogeneous(
            vliw_isa::MachineSpec::Paper4x4,
            4,
            DispatcherSpec::RoundRobin,
        )
        .expect("homogeneous fleet");
        let (stats, trace) = run_fleet_traced(&cache, &cfg(), &fleet, &wl, 2);
        let fs = stats.fleet.expect("fleet stats");
        assert_eq!(
            fs.machines.iter().map(|m| m.routed).collect::<Vec<_>>(),
            vec![1, 1, 1, 1],
            "round-robin, 4 arrivals over 4 machines"
        );
        assert_eq!(trace.events.len(), 4, "one RoutedTo per arrival");
        let tos: Vec<u32> = trace
            .events
            .iter()
            .map(|e| match e {
                TraceEvent::RoutedTo { to, .. } => *to,
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(tos, vec![0, 1, 2, 3]);
        assert_eq!(trace.threads.len(), 4);
        assert_eq!(trace.end_cycle, stats.cycles);
    }

    #[test]
    fn heterogeneous_fleet_sums_issue_width() {
        let cache = ImageCache::new();
        let wl = WorkloadRef::from("LLHH");
        let fleet = FleetSpec::edge();
        let stats = run_fleet(&cache, &cfg(), &fleet, &wl, 1);
        // edge = paper-4x4*2 / 2x8 / 8x2: 16+16+16+16 = 64 slots.
        assert_eq!(stats.issue_width, 64);
        let fs = stats.fleet.expect("fleet stats");
        assert_eq!(fs.n_machines(), 4);
        // Per-lane utilization/ipc agree with the recorded counters.
        for m in &fs.machines {
            if m.cycles > 0 {
                assert!((m.ipc - m.ops as f64 / m.cycles as f64).abs() < 1e-12);
            }
        }
    }
}
