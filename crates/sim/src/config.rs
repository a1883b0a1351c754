//! Simulation configuration.

use crate::core::CoreModel;
use crate::sched::SchedulerSpec;
use vliw_core::{MergeScheme, PriorityPolicy};
use vliw_isa::{MachineConfig, MachineSpec};
use vliw_mem::MemConfig;
use vliw_trace::TraceSpec;
use vliw_traffic::TrafficSpec;

/// Everything a run needs besides the workload itself.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Processor geometry and latencies.
    pub machine: MachineConfig,
    /// Memory system (set `mem.perfect` for the paper's IPCp runs).
    pub mem: MemConfig,
    /// The merging scheme under test (its port count is the hardware
    /// thread count).
    pub scheme: MergeScheme,
    /// Thread→port rotation policy (paper setup: round-robin).
    pub priority: PriorityPolicy,
    /// OS scheduling quantum in cycles (paper: 1M).
    pub timeslice: u64,
    /// OS context-management policy (paper: random refill with full
    /// eviction, i.e. [`SchedulerSpec::PaperRandom`]). See
    /// [`crate::sched`] for the policy catalog.
    pub scheduler: SchedulerSpec,
    /// Retired-VLIW-instruction budget: the run ends when any software
    /// thread retires this many instructions (paper: 100M).
    pub instr_budget: u64,
    /// Safety valve: abort the run after this many cycles.
    pub max_cycles: u64,
    /// Seed for OS scheduling and branch/address draws.
    pub seed: u64,
    /// Cycle-level event tracing ([`TraceSpec::Off`] by default). Consulted
    /// by the trace-collecting entry points
    /// ([`crate::os::Machine::run_with_trace`],
    /// [`crate::plan::Plan::run_traced`], [`crate::plan::Plan::trace_cell`]);
    /// the plain [`crate::os::Machine::run`] always executes the
    /// monomorphized zero-cost untraced path regardless.
    pub trace: TraceSpec,
    /// Core execution model: the event-driven fast core (default) or the
    /// cycle-accurate oracle it is differentially tested against. Both
    /// produce bit-identical statistics and traces — this switch trades
    /// wall-clock only. See [`CoreModel`].
    pub core_model: CoreModel,
    /// Arrival process driving the run ([`TrafficSpec::Closed`] by
    /// default: all threads present at cycle 0, the historical batch
    /// semantics). Any open spec (`poisson`/`bursty`/`diurnal`) stages
    /// the workload's threads on deterministic arrival cycles behind a
    /// bounded admission queue and records per-thread latency
    /// lifecycles — see [`crate::RunStats::traffic`].
    pub traffic: TrafficSpec,
}

impl SimConfig {
    /// The paper's configuration for a given scheme, scaled down by
    /// `scale` (1 = the paper's full 100M-instruction runs; 100 = 1M
    /// instructions with a 10k-cycle quantum — the default for tests).
    ///
    /// Scale bounds: `scale` is clamped to ≥ 1, and both derived run
    /// lengths have floors so extreme divisors still produce meaningful
    /// runs — `timeslice` never drops below 1 000 cycles (pinned from
    /// scale 1 000 up) and `instr_budget` never drops below 1 000 retired
    /// instructions (pinned from scale 100 000 up). Beyond scale 100 000
    /// further increases therefore do not shorten the run.
    pub fn paper(scheme: MergeScheme, scale: u64) -> Self {
        let scale = scale.max(1);
        SimConfig {
            machine: MachineConfig::paper_baseline(),
            mem: MemConfig::paper_baseline(),
            scheme,
            priority: PriorityPolicy::RoundRobin,
            scheduler: SchedulerSpec::PaperRandom,
            timeslice: (1_000_000 / scale).max(1_000),
            instr_budget: (100_000_000 / scale).max(1_000),
            max_cycles: u64::MAX,
            seed: 0xC0FFEE,
            trace: TraceSpec::Off,
            core_model: CoreModel::default(),
            traffic: TrafficSpec::Closed,
        }
    }

    /// Same configuration with perfect memory (IPCp measurements).
    pub fn with_perfect_memory(mut self) -> Self {
        self.mem.perfect = true;
        self
    }

    /// Same configuration on a different machine geometry (named preset or
    /// `CxI[+muls+mems]` spec — see [`MachineSpec`]). The spec lowers to a
    /// validated [`MachineConfig`]; `with_machine(MachineSpec::Paper4x4)`
    /// reproduces [`SimConfig::paper`]'s default machine bit-for-bit.
    pub fn with_machine(mut self, machine: MachineSpec) -> Self {
        self.machine = machine.config();
        self
    }

    /// Same configuration under a different OS scheduling policy.
    pub fn with_scheduler(mut self, scheduler: SchedulerSpec) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Same configuration with cycle-level event tracing
    /// ([`TraceSpec::Full`] records everything, [`TraceSpec::Ring`] keeps
    /// a bounded most-recent window). Takes effect through the
    /// trace-collecting entry points — see
    /// [`crate::os::Machine::run_with_trace`].
    pub fn with_trace(mut self, trace: TraceSpec) -> Self {
        self.trace = trace;
        self
    }

    /// Same configuration under a different core execution model
    /// ([`CoreModel::EventDriven`] is the default;
    /// [`CoreModel::CycleAccurate`] selects the oracle loop). Statistics
    /// and traces are bit-identical either way.
    pub fn with_core_model(mut self, core_model: CoreModel) -> Self {
        self.core_model = core_model;
        self
    }

    /// Same configuration under a different arrival process
    /// ([`TrafficSpec::Closed`] restores the batch default). Open specs
    /// turn the run into an open system: threads arrive over time, wait
    /// in a bounded admission queue, and their sojourn/wait latencies are
    /// summarized in [`crate::RunStats::traffic`].
    pub fn with_traffic(mut self, traffic: TrafficSpec) -> Self {
        self.traffic = traffic;
        self
    }

    /// Number of hardware thread contexts (the scheme's port count).
    pub fn n_contexts(&self) -> usize {
        self.scheme.n_ports() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_core::catalog;

    #[test]
    fn paper_config_scales() {
        let c = SimConfig::paper(catalog::smt_cascade(4), 100);
        assert_eq!(c.instr_budget, 1_000_000);
        assert_eq!(c.timeslice, 10_000);
        assert_eq!(c.n_contexts(), 4);
        let full = SimConfig::paper(catalog::smt_cascade(2), 1);
        assert_eq!(full.instr_budget, 100_000_000);
        assert_eq!(full.timeslice, 1_000_000);
        assert_eq!(full.n_contexts(), 2);
    }

    #[test]
    fn extreme_scales_hit_both_floors() {
        let c = SimConfig::paper(catalog::smt_cascade(4), 10_000_000);
        assert_eq!(c.timeslice, 1_000, "timeslice floor");
        assert_eq!(c.instr_budget, 1_000, "instr budget floor");
        let c0 = SimConfig::paper(catalog::smt_cascade(4), 0);
        assert_eq!(c0.instr_budget, 100_000_000, "scale clamps to 1");
    }

    #[test]
    fn with_machine_swaps_the_geometry() {
        let c = SimConfig::paper(catalog::smt_cascade(4), 100);
        assert_eq!(c.machine, MachineSpec::Paper4x4.config());
        let c = c.with_machine(MachineSpec::Narrow8x2);
        assert_eq!(c.machine.n_clusters, 8);
        assert_eq!(c.machine.issue_per_cluster, 2);
        // The paper preset restores the baseline bit-for-bit.
        let back = c.with_machine(MachineSpec::Paper4x4);
        assert_eq!(back.machine, MachineConfig::paper_baseline());
    }

    #[test]
    fn perfect_memory_flag() {
        let c = SimConfig::paper(catalog::csmt_serial(4), 100).with_perfect_memory();
        assert!(c.mem.perfect);
    }

    #[test]
    fn paper_scheduler_is_the_random_default() {
        let c = SimConfig::paper(catalog::smt_cascade(4), 100);
        assert_eq!(c.scheduler, SchedulerSpec::PaperRandom);
        let c = c.with_scheduler(SchedulerSpec::Icount);
        assert_eq!(c.scheduler, SchedulerSpec::Icount);
    }

    #[test]
    fn event_core_is_the_default_model() {
        let c = SimConfig::paper(catalog::smt_cascade(4), 100);
        assert_eq!(c.core_model, CoreModel::EventDriven);
        let c = c.with_core_model(CoreModel::CycleAccurate);
        assert_eq!(c.core_model, CoreModel::CycleAccurate);
        assert_eq!(CoreModel::parse("oracle"), Some(CoreModel::CycleAccurate));
        assert_eq!(CoreModel::parse("EVENT"), Some(CoreModel::EventDriven));
        assert_eq!(CoreModel::parse("nope"), None);
        for m in CoreModel::all() {
            assert_eq!(CoreModel::parse(m.name()), Some(m), "{m} round-trips");
        }
    }

    #[test]
    fn traffic_is_closed_by_default() {
        let c = SimConfig::paper(catalog::smt_cascade(4), 100);
        assert_eq!(c.traffic, TrafficSpec::Closed);
        assert!(c.traffic.is_closed());
        let spec: TrafficSpec = "poisson:0.02".parse().unwrap();
        let c = c.with_traffic(spec);
        assert_eq!(c.traffic, spec);
        assert!(!c.traffic.is_closed());
    }

    #[test]
    fn tracing_is_off_by_default() {
        let c = SimConfig::paper(catalog::smt_cascade(4), 100);
        assert_eq!(c.trace, TraceSpec::Off);
        let c = c.with_trace(TraceSpec::Ring(4096));
        assert_eq!(c.trace, TraceSpec::Ring(4096));
        assert_eq!(c.with_trace(TraceSpec::Full).trace, TraceSpec::Full);
    }
}
