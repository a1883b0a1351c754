//! Declarative experiment plans: typed sweeps, keyed result sets, exhibits.
//!
//! The paper's exhibits are all shaped the same way: a grid of
//! *scheme* × *workload* × *memory-model* simulations. This module expresses
//! that grid declaratively —
//!
//! ```
//! use vliw_sim::plan::{MemoryModel, Plan, Session};
//!
//! let set = Plan::new()
//!     .schemes(["ST", "2SC3"])
//!     .workload("LLHH")
//!     .axis(MemoryModel::Real)
//!     .scale(100_000)
//!     .run(&Session::with_parallelism(2));
//! let ipc = set.ipc("2SC3", "LLHH", MemoryModel::Real).unwrap();
//! assert!(ipc > 0.0);
//! ```
//!
//! — and lets the runtime place the work: a [`Plan`] expands to a
//! deterministic job list, [`Plan::run`] fans it out over rayon, and the
//! returned [`ResultSet`] offers keyed lookup, aggregation helpers, and
//! hand-rolled JSON/CSV serialization whose bytes are independent of the
//! worker count. [`Plan::run`], [`Plan::run_metered`] and
//! [`Plan::run_traced`] share one executor over [`runner::run_jobs`];
//! `run_traced` maps each cell's trace to a value on the worker that ran
//! the cell, so no trace outlives its cell.
//!
//! Keys are typed: [`SchemeRef`] and [`WorkloadRef`] carry owned
//! (`Arc<str>`) names, so custom merge schemes and generated workloads
//! participate exactly like the paper's catalog and Table-2 mixes. Every
//! workload member is a benchmark spec, Table-1 or custom alike.
//!
//! Beyond schemes and workloads, a plan can sweep five optional axes, each
//! with a default it runs under when the plan names no value: the OS
//! scheduling policy ([`Plan::schedulers`], default
//! [`SchedulerSpec::PaperRandom`]), the machine geometry
//! ([`Plan::machines`], default the paper's §5.1 4×4 machine; images are
//! compiled per `(benchmark, machine)`, so geometries never share code), a
//! fleet of machines behind a dispatcher ([`Plan::fleets`], default one
//! plain machine), the arrival process ([`Plan::arrivals`], default
//! closed) and the memory model ([`Plan::axes`], default real). The grid
//! expands schemes ▸ workloads ▸ schedulers ▸ machines ▸ fleets ▸ traffic
//! ▸ memory, row-major.
//!
//! Every axis is looked up the same way: a [`CellQuery`] names values on
//! any axes and the unnamed ones resolve to their first value, and
//! [`ResultSet::mean`] / [`ResultSet::means_by`] average IPC over the
//! workloads. Exports follow one table of column groups: naming a
//! scheduler, machine, fleet or arrival process adds that axis's
//! column/field (and its metrics) to the CSV/JSON, and metered runs
//! ([`Plan::run_metered`]) add the telemetry columns; a plan that names
//! none serializes in the historical byte format. [`ResultSet::merge_cost`]
//! and [`ResultSet::ipc_per_area`] price each scheme's merge-control
//! hardware for its actual geometry via `vliw-hwcost`.

use crate::config::SimConfig;
use crate::core::CoreModel;
use crate::os::Machine;
use crate::runner::{self, ImageCache, RunResult};
use crate::sched::SchedulerSpec;
use crate::stats::ThreadStats;
use crate::thread::SoftThread;
use std::fmt::{Display, Write as _};
use std::sync::Arc;
use vliw_core::{catalog, MergeScheme, PriorityPolicy};
use vliw_hwcost::{scheme_cost, SchemeCost};
use vliw_telemetry::{NullTelemetry, Telemetry};
use vliw_trace::{Trace, TraceSpec};
use vliw_workloads::{benchmark, mixes, BenchmarkSpec, WorkloadMix};

pub use vliw_fleet::{DispatcherSpec, FleetError, FleetSpec};
pub use vliw_isa::MachineSpec;
pub use vliw_traffic::{TrafficError, TrafficSpec};

/// The memory-model axis of a sweep: the paper's IPCr (real caches) vs
/// IPCp (perfect memory) measurements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryModel {
    /// The paper's cache hierarchy (IPCr).
    Real,
    /// Every access hits (IPCp).
    Perfect,
}

impl MemoryModel {
    /// Stable lowercase label used in serialized exhibits.
    pub fn label(self) -> &'static str {
        match self {
            MemoryModel::Real => "real",
            MemoryModel::Perfect => "perfect",
        }
    }
}

impl std::fmt::Display for MemoryModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Typed key naming one merge scheme of a plan.
///
/// Carries the scheme itself, so job workers never consult the catalog, and
/// custom (non-catalog) schemes sweep like paper ones. Equality and lookup
/// go by name.
#[derive(Debug, Clone)]
pub struct SchemeRef {
    name: Arc<str>,
    scheme: MergeScheme,
}

impl SchemeRef {
    /// Resolve a catalog scheme by paper name (`"ST"`, `"2SC3"`, ...).
    ///
    /// Panics on unknown names — plans fail at build time, not mid-sweep.
    pub fn named(name: &str) -> Self {
        Self::try_named(name).unwrap_or_else(|| panic!("unknown scheme {name:?} (not in catalog)"))
    }

    /// Resolve a catalog scheme by paper name, or `None`.
    pub fn try_named(name: &str) -> Option<Self> {
        catalog::by_name(name).map(Self::custom)
    }

    /// Wrap an arbitrary (possibly non-catalog) scheme.
    pub fn custom(scheme: MergeScheme) -> Self {
        SchemeRef {
            name: scheme.name().into(),
            scheme,
        }
    }

    /// The scheme's name (the lookup key).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The underlying merge scheme.
    pub fn scheme(&self) -> &MergeScheme {
        &self.scheme
    }
}

impl From<&str> for SchemeRef {
    fn from(name: &str) -> Self {
        SchemeRef::named(name)
    }
}

impl From<MergeScheme> for SchemeRef {
    fn from(scheme: MergeScheme) -> Self {
        SchemeRef::custom(scheme)
    }
}

impl From<&MergeScheme> for SchemeRef {
    fn from(scheme: &MergeScheme) -> Self {
        SchemeRef::custom(scheme.clone())
    }
}

/// Typed key naming one workload of a plan: a single benchmark or a
/// multiprogrammed mix, of Table-1 and/or custom benchmark specs.
///
/// Names are owned (`Arc<str>`), so generated workloads with computed names
/// are first-class. Equality and lookup go by name.
#[derive(Debug, Clone)]
pub struct WorkloadRef {
    name: Arc<str>,
    members: Arc<[Arc<BenchmarkSpec>]>,
}

impl WorkloadRef {
    /// A single Table-1 benchmark, run alone (the Table-1 setup).
    ///
    /// Panics on unknown benchmark names — plans fail at build time.
    pub fn benchmark(name: &str) -> Self {
        let spec = benchmark(name)
            .unwrap_or_else(|| panic!("unknown benchmark {name:?} (not in Table 1)"));
        WorkloadRef::custom(name, vec![spec.clone()])
    }

    /// A multiprogrammed workload of Table-1 benchmarks under `name`.
    ///
    /// Panics when any member is not a Table-1 benchmark.
    pub fn members(name: &str, members: &[&str]) -> Self {
        let specs = members
            .iter()
            .map(|m| {
                benchmark(m)
                    .unwrap_or_else(|| panic!("workload {name:?}: unknown benchmark {m:?}"))
                    .clone()
            })
            .collect();
        WorkloadRef::custom(name, specs)
    }

    /// A workload of custom benchmark specs (threads in `specs` order).
    /// Spec names are the compilation-cache identity — give distinct
    /// programs distinct names. Panics when a spec reuses a Table-1 name
    /// with different knobs (it would silently alias the catalog image in
    /// any shared [`Session`]).
    pub fn custom(name: &str, specs: Vec<BenchmarkSpec>) -> Self {
        assert!(!specs.is_empty(), "workload {name:?} needs members");
        for s in &specs {
            assert!(
                benchmark(&s.name).is_none_or(|table1| table1 == s),
                "workload {name:?}: custom spec {:?} shadows a Table-1 benchmark \
                 with different knobs; rename the variant (names are the \
                 compilation-cache identity)",
                s.name
            );
        }
        WorkloadRef {
            name: name.into(),
            members: specs.into_iter().map(Arc::new).collect(),
        }
    }

    /// The workload's name (the lookup key).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of software threads this workload admits.
    pub fn n_threads(&self) -> usize {
        self.members.len()
    }

    /// Member benchmark names, thread order.
    pub fn member_names(&self) -> Vec<&str> {
        self.members.iter().map(|s| &*s.name).collect()
    }

    /// Compile member `idx` for `machine` through the shared cache. The
    /// fleet driver compiles each member for the machine it is routed to,
    /// not the plan's reference machine. `t` meters compile/verify wall
    /// time and live probe hits (free under [`NullTelemetry`]).
    pub(crate) fn image_for<T: Telemetry>(
        &self,
        idx: usize,
        cache: &ImageCache,
        machine: &vliw_isa::MachineConfig,
        t: &T,
    ) -> crate::runner::CachedImage {
        cache
            .get_spec_metered(&self.members[idx], machine, t)
            .expect("plan cells are validated up front")
    }

    /// Instantiate the software threads (worker-side; compile results come
    /// from the shared cache).
    fn threads<T: Telemetry>(&self, cache: &ImageCache, cfg: &SimConfig, t: &T) -> Vec<SoftThread> {
        (0..self.members.len())
            .map(|tid| {
                let entry = self.image_for(tid, cache, &cfg.machine, t);
                SoftThread::new(&entry.0, entry.1.clone(), tid as u64, cfg.seed)
            })
            .collect()
    }
}

impl From<&WorkloadMix> for WorkloadRef {
    fn from(mix: &WorkloadMix) -> Self {
        WorkloadRef::members(mix.name, &mix.members)
    }
}

impl From<&BenchmarkSpec> for WorkloadRef {
    /// A single spec, run alone under its own name.
    fn from(spec: &BenchmarkSpec) -> Self {
        WorkloadRef::custom(&spec.name, vec![spec.clone()])
    }
}

impl From<&str> for WorkloadRef {
    /// Resolve a name as a Table-2 mix first, then as a Table-1 benchmark.
    fn from(name: &str) -> Self {
        if let Some(mix) = mixes::mix(name) {
            return WorkloadRef::from(mix);
        }
        assert!(
            benchmark(name).is_some(),
            "unknown workload {name:?} (neither a Table-2 mix nor a Table-1 benchmark)"
        );
        WorkloadRef::benchmark(name)
    }
}

/// One cell of the expanded job grid.
#[derive(Debug, Clone)]
pub struct JobKey {
    /// The merge scheme under test.
    pub scheme: SchemeRef,
    /// The workload run on it.
    pub workload: WorkloadRef,
    /// The OS scheduling policy used.
    pub scheduler: SchedulerSpec,
    /// The machine geometry simulated.
    pub machine: MachineSpec,
    /// The machine fleet the cell ran on (`None` = the ordinary
    /// single-machine cell; `Some` = the whole workload was dispatched
    /// across the fleet's machines — see [`crate::fleet::run_fleet`]).
    pub fleet: Option<FleetSpec>,
    /// The arrival process driving the cell.
    pub traffic: TrafficSpec,
    /// The memory model used.
    pub memory: MemoryModel,
}

/// Shared run context for executing plans: the compiled-image cache and the
/// rayon worker count. Reuse one session across plans to compile each
/// benchmark once.
pub struct Session {
    cache: ImageCache,
    parallelism: usize,
}

impl Session {
    /// A session with the default parallelism (cores − 1).
    pub fn new() -> Self {
        Self::with_parallelism(runner::default_parallelism())
    }

    /// A session with an explicit rayon worker count (≥ 1).
    pub fn with_parallelism(parallelism: usize) -> Self {
        Session {
            cache: ImageCache::new(),
            parallelism: parallelism.max(1),
        }
    }

    /// The session's image cache (shared across all plans it runs).
    pub fn cache(&self) -> &ImageCache {
        &self.cache
    }

    /// The session's rayon worker count.
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }
}

impl Default for Session {
    fn default() -> Self {
        Self::new()
    }
}

/// One optional axis of the grid: the values a plan named, or its default
/// alone. Naming any value (`explicit`) is what adds the axis's column
/// group to the exports.
#[derive(Debug, Clone)]
struct Axis<T> {
    values: Vec<T>,
    explicit: bool,
}

impl<T> Axis<T> {
    fn implicit(default: T) -> Self {
        Axis {
            values: vec![default],
            explicit: false,
        }
    }

    /// Name `value` on the axis: the first name replaces the default, and
    /// a value `same` as one already named is ignored.
    fn add(&mut self, value: T, same: impl Fn(&T, &T) -> bool) {
        if !self.explicit {
            self.values.clear();
            self.explicit = true;
        }
        if !self.values.iter().any(|v| same(v, &value)) {
            self.values.push(value);
        }
    }
}

/// The grid a [`Plan`] expands and its [`ResultSet`] is keyed by: seven
/// axes, row-major (schemes outermost, memory models innermost), addressed
/// by one mixed-radix index.
#[derive(Debug, Clone)]
struct Grid {
    schemes: Vec<SchemeRef>,
    workloads: Vec<WorkloadRef>,
    schedulers: Axis<SchedulerSpec>,
    machines: Axis<MachineSpec>,
    /// `None` is the default: a plain single-machine cell.
    fleets: Axis<Option<FleetSpec>>,
    traffics: Axis<TrafficSpec>,
    memory: Axis<MemoryModel>,
}

impl Grid {
    fn new() -> Self {
        Grid {
            schemes: Vec::new(),
            workloads: Vec::new(),
            schedulers: Axis::implicit(SchedulerSpec::default()),
            machines: Axis::implicit(MachineSpec::Paper4x4),
            fleets: Axis::implicit(None),
            traffics: Axis::implicit(TrafficSpec::Closed),
            memory: Axis::implicit(MemoryModel::Real),
        }
    }

    /// Axis lengths in grid order.
    fn radices(&self) -> [usize; 7] {
        [
            self.schemes.len(),
            self.workloads.len(),
            self.schedulers.values.len(),
            self.machines.values.len(),
            self.fleets.values.len(),
            self.traffics.values.len(),
            self.memory.values.len(),
        ]
    }

    fn len(&self) -> usize {
        self.radices().iter().product()
    }

    /// The key of cell `i`.
    fn key(&self, mut i: usize) -> JobKey {
        let mut d = [0; 7];
        for (digit, radix) in d.iter_mut().zip(self.radices()).rev() {
            *digit = i % radix;
            i /= radix;
        }
        JobKey {
            scheme: self.schemes[d[0]].clone(),
            workload: self.workloads[d[1]].clone(),
            scheduler: self.schedulers.values[d[2]],
            machine: self.machines.values[d[3]],
            fleet: self.fleets.values[d[4]].clone(),
            traffic: self.traffics.values[d[5]],
            memory: self.memory.values[d[6]],
        }
    }

    /// The index of the cell `q` names, `None` when a named value is not
    /// on its axis.
    fn find(&self, q: &CellQuery) -> Option<usize> {
        let digits = [
            digit(&self.schemes, q.scheme, |s, n| s.name() == *n)?,
            digit(&self.workloads, q.workload, |w, n| w.name() == *n)?,
            digit(&self.schedulers.values, q.scheduler, PartialEq::eq)?,
            digit(&self.machines.values, q.machine, PartialEq::eq)?,
            digit(&self.fleets.values, q.fleet, |f, x| f.as_ref() == Some(*x))?,
            digit(&self.traffics.values, q.traffic, PartialEq::eq)?,
            digit(&self.memory.values, q.memory, PartialEq::eq)?,
        ];
        Some(
            self.radices()
                .iter()
                .zip(digits)
                .fold(0, |i, (radix, d)| i * radix + d),
        )
    }

    /// The column groups this grid's exports carry (`metered` adds the
    /// telemetry group).
    fn shape(&self, metered: bool) -> ColumnShape {
        let groups = [
            (self.schedulers.explicit, SCHEDULER),
            (self.machines.explicit, MACHINE),
            (self.fleets.explicit, FLEET),
            (self.traffics.explicit, TRAFFIC),
            (metered, TELEMETRY),
        ];
        ColumnShape(groups.iter().filter(|g| g.0).fold(0, |bits, g| bits | g.1))
    }
}

/// The position on one axis of the value `want` names (`None` = the
/// first value).
fn digit<T, K>(values: &[T], want: Option<K>, is: impl Fn(&T, &K) -> bool) -> Option<usize> {
    match want {
        Some(k) => values.iter().position(|v| is(v, &k)),
        None => (!values.is_empty()).then_some(0),
    }
}

/// A declarative experiment plan: the scheme × workload × memory-model grid
/// of one exhibit, plus run-length and policy knobs.
///
/// Build with the fluent methods, then [`Plan::run`]. The grid expands in a
/// deterministic row-major order (schemes outermost, memory models
/// innermost) that the returned [`ResultSet`] preserves.
#[derive(Debug, Clone)]
pub struct Plan {
    grid: Grid,
    scale: u64,
    priority: PriorityPolicy,
    seed: Option<u64>,
    trace: TraceSpec,
    core_model: CoreModel,
}

impl Plan {
    /// An empty plan: no schemes/workloads yet, real memory, the paper's
    /// random scheduler, scale 20 (1/20 of the paper's 100M-instruction
    /// runs), round-robin priority.
    pub fn new() -> Self {
        Plan {
            grid: Grid::new(),
            scale: 20,
            priority: PriorityPolicy::RoundRobin,
            seed: None,
            trace: TraceSpec::Off,
            core_model: CoreModel::default(),
        }
    }

    /// Add one scheme (name, `MergeScheme`, or `SchemeRef`).
    pub fn scheme(mut self, scheme: impl Into<SchemeRef>) -> Self {
        self.grid.schemes.push(scheme.into());
        self
    }

    /// Add many schemes.
    pub fn schemes<I, S>(mut self, schemes: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<SchemeRef>,
    {
        self.grid
            .schemes
            .extend(schemes.into_iter().map(Into::into));
        self
    }

    /// Add one workload (mix/benchmark name, `&WorkloadMix`, spec, or
    /// `WorkloadRef`).
    pub fn workload(mut self, workload: impl Into<WorkloadRef>) -> Self {
        self.grid.workloads.push(workload.into());
        self
    }

    /// Add many workloads.
    pub fn workloads<I, W>(mut self, workloads: I) -> Self
    where
        I: IntoIterator<Item = W>,
        W: Into<WorkloadRef>,
    {
        self.grid
            .workloads
            .extend(workloads.into_iter().map(Into::into));
        self
    }

    /// Add one OS scheduling policy to the scheduler axis (by
    /// [`SchedulerSpec`] or name; duplicates are ignored). A plan that
    /// never names a scheduler runs under the default
    /// [`SchedulerSpec::PaperRandom`] only, with unchanged (pre-axis)
    /// serialization bytes; an explicit axis adds a `scheduler`
    /// column/field to the exhibits.
    pub fn scheduler(mut self, scheduler: impl Into<SchedulerSpec>) -> Self {
        self.grid.schedulers.add(scheduler.into(), PartialEq::eq);
        self
    }

    /// Add several scheduling policies (e.g.
    /// [`SchedulerSpec::all()`](SchedulerSpec::all) for the full
    /// catalog).
    pub fn schedulers<I, S>(mut self, schedulers: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<SchedulerSpec>,
    {
        for s in schedulers {
            self = self.scheduler(s);
        }
        self
    }

    /// Add one machine geometry to the machine axis (named preset or
    /// grammar spec; duplicates — by label — are ignored). The spec is
    /// validated here, so plans fail at build time, not mid-sweep. A plan
    /// that never names a machine runs on the paper's §5.1 geometry only,
    /// with unchanged (pre-axis) serialization bytes; an explicit axis
    /// adds a `machine` column/field to the exhibits.
    ///
    /// Note the Table-1 suite needs at least one multiplier and one memory
    /// unit per cluster (see [`MachineSpec::runs_full_suite`]); sweeping
    /// leaner geometries is only possible with custom ALU-only workloads.
    pub fn machine(mut self, machine: MachineSpec) -> Self {
        // Lowering validates (panics with the MachineError for hand-built
        // invalid customs) and gives label-level dedup: two spec spellings
        // of one geometry would collide as serialized keys.
        let _ = machine.config();
        self.grid
            .machines
            .add(machine, |a, b| a.label() == b.label());
        self
    }

    /// Add several machine geometries (e.g.
    /// [`MachineSpec::presets()`](MachineSpec::presets) for the full
    /// catalog).
    pub fn machines<I: IntoIterator<Item = MachineSpec>>(mut self, machines: I) -> Self {
        for m in machines {
            self = self.machine(m);
        }
        self
    }

    /// Add one machine fleet to the fleet axis (duplicates — by label —
    /// are ignored). A fleet cell dispatches the whole workload across
    /// the fleet's machines through its dispatcher policy instead of
    /// running on one machine (see [`crate::fleet::run_fleet`]); the
    /// cell's [`JobKey::machine`] then only serves as the *reference*
    /// geometry for routing width hints. A plan that never names a fleet
    /// runs single-machine cells only, with unchanged (pre-axis)
    /// serialization bytes; an explicit axis adds a `fleet` column/field
    /// plus the fleet metric columns to the exhibits. Specs usually come
    /// from the string grammar:
    /// `"paper-4x4*2/2x8@least-queued".parse().unwrap()`.
    pub fn fleet(mut self, fleet: FleetSpec) -> Self {
        self.grid.fleets.add(Some(fleet), |a, b| {
            a.as_ref().map(FleetSpec::label) == b.as_ref().map(FleetSpec::label)
        });
        self
    }

    /// Add several fleets (e.g. a ladder of fleet sizes for a scaling
    /// curve).
    pub fn fleets<I: IntoIterator<Item = FleetSpec>>(mut self, fleets: I) -> Self {
        for f in fleets {
            self = self.fleet(f);
        }
        self
    }

    /// Add one arrival process to the traffic axis (duplicates are
    /// ignored). A plan that never names one runs closed (every thread
    /// present at cycle 0), with unchanged (pre-axis) serialization
    /// bytes; an explicit axis adds a `traffic` column/field plus the
    /// open-system metric columns to the exhibits. Specs usually come
    /// from the string grammar: `"poisson:0.02".parse().unwrap()`.
    pub fn arrival(mut self, traffic: TrafficSpec) -> Self {
        self.grid.traffics.add(traffic, PartialEq::eq);
        self
    }

    /// Add several arrival processes (e.g. a ladder of offered loads for
    /// a latency-vs-load curve).
    pub fn arrivals<I: IntoIterator<Item = TrafficSpec>>(mut self, traffics: I) -> Self {
        for t in traffics {
            self = self.arrival(t);
        }
        self
    }

    /// Add a memory-model axis (duplicates are ignored). A plan with no
    /// explicit axis runs with real memory only.
    pub fn axis(mut self, axis: MemoryModel) -> Self {
        self.grid.memory.add(axis, PartialEq::eq);
        self
    }

    /// Add several memory-model axes.
    pub fn axes<I: IntoIterator<Item = MemoryModel>>(mut self, axes: I) -> Self {
        for a in axes {
            self = self.axis(a);
        }
        self
    }

    /// Run-length divisor: 1 = the paper's full 100M-instruction runs (see
    /// [`SimConfig::paper`] for the floors at extreme scales).
    pub fn scale(mut self, scale: u64) -> Self {
        self.scale = scale.max(1);
        self
    }

    /// Thread→port rotation policy (default: the paper's round-robin).
    pub fn priority(mut self, priority: PriorityPolicy) -> Self {
        self.priority = priority;
        self
    }

    /// Core execution model for every cell (default:
    /// [`CoreModel::EventDriven`]). Results are bit-identical across
    /// models, so this setting never appears in the serialized exhibits —
    /// it exists for the differential suite and the perf benches, which
    /// pin the [`CoreModel::CycleAccurate`] oracle.
    pub fn core_model(mut self, core_model: CoreModel) -> Self {
        self.core_model = core_model;
        self
    }

    /// Override the simulation seed (default: [`SimConfig::paper`]'s).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Cycle-level tracing for the trace-collecting runs
    /// ([`Plan::run_traced`] / [`Plan::trace_cell`]):
    /// [`TraceSpec::Ring`] bounds per-cell memory, [`TraceSpec::Full`]
    /// keeps everything. The default [`TraceSpec::Off`] also records fully
    /// when a trace-collecting entry point is used (calling one *is* the
    /// request to trace); [`Plan::run`] never traces regardless.
    pub fn trace(mut self, spec: TraceSpec) -> Self {
        self.trace = spec;
        self
    }

    /// The column groups this plan's result sets export (before the
    /// telemetry group a metered run adds).
    pub fn shape(&self) -> ColumnShape {
        self.grid.shape(false)
    }

    /// Expand the plan into its deterministic job grid, row-major: schemes
    /// outermost, then workloads, then schedulers, then machines, then
    /// fleets, then traffic, memory models innermost.
    pub fn jobs(&self) -> Vec<JobKey> {
        (0..self.grid.len()).map(|i| self.grid.key(i)).collect()
    }

    /// The simulation configuration of one job.
    fn config_for(&self, key: &JobKey) -> SimConfig {
        let mut cfg = SimConfig::paper(key.scheme.scheme().clone(), self.scale)
            .with_machine(key.machine)
            .with_traffic(key.traffic);
        cfg.priority = self.priority;
        cfg.scheduler = key.scheduler;
        cfg.trace = self.trace;
        cfg.core_model = self.core_model;
        if let Some(seed) = self.seed {
            cfg.seed = seed;
        }
        if key.memory == MemoryModel::Perfect {
            cfg = cfg.with_perfect_memory();
        }
        cfg
    }

    /// Run the whole grid in a session (shared image cache, rayon fan-out).
    ///
    /// Results are deterministic and ordered by the grid regardless of the
    /// session's worker count.
    pub fn run(&self, session: &Session) -> ResultSet {
        self.run_metered(session, &NullTelemetry)
    }

    /// [`Plan::run`] with harness telemetry: per-cell wall time and the
    /// compile/simulate split (timing class), plus the full deterministic
    /// schema of [`crate::metrics`] harvested post-hoc from the results in
    /// row-major grid order — so the deterministic export is byte-stable
    /// across worker counts and core models. The returned set marks its
    /// telemetry axis explicit, which gates the cache/trace metric
    /// columns in CSV/JSON exactly like the other optional axes.
    ///
    /// With [`NullTelemetry`] this *is* [`Plan::run`] (every emission site
    /// monomorphizes away — differentially benchmarked in
    /// `benches/telemetry.rs`).
    pub fn run_metered<T: Telemetry>(&self, session: &Session, t: &T) -> ResultSet {
        self.execute(session, t, false, |_, _, _| ()).0
    }

    /// Run the whole grid with per-cell tracing, mapping each cell's key,
    /// result and recorded [`Trace`] through `map`. Returns the same
    /// [`ResultSet`] as [`Plan::run`] plus the mapped values in row-major
    /// grid order, regardless of the session's worker count.
    ///
    /// `map` runs on the worker that ran the cell, and the trace is dropped
    /// as soon as it returns, so at most one trace per worker is resident,
    /// never the whole grid. Use [`TraceSpec::Ring`] via [`Plan::trace`] to
    /// bound the per-cell footprint too.
    ///
    /// The per-cell sink follows [`Plan::trace`]; the default
    /// [`TraceSpec::Off`] records fully here, since calling this method is
    /// the explicit request to trace. Statistics are identical to
    /// [`Plan::run`] — tracing observes, never perturbs.
    pub fn run_traced<X, F>(&self, session: &Session, map: F) -> (ResultSet, Vec<X>)
    where
        X: Send,
        F: Fn(&JobKey, &RunResult, &Trace) -> X + Sync,
    {
        self.execute(session, &NullTelemetry, true, map)
    }

    /// The one sweep body behind [`Plan::run`], [`Plan::run_metered`] and
    /// [`Plan::run_traced`]: fan the grid out over the session's workers,
    /// map each cell (and its trace, when `traced`) on the worker that ran
    /// it, then attribute cache economics and harvest telemetry in grid
    /// order.
    fn execute<T, X, F>(
        &self,
        session: &Session,
        t: &T,
        traced: bool,
        map: F,
    ) -> (ResultSet, Vec<X>)
    where
        T: Telemetry,
        X: Send,
        F: Fn(&JobKey, &RunResult, &Trace) -> X + Sync,
    {
        let (cache, parallelism) = (session.cache(), session.parallelism());
        self.validate();
        crate::metrics::register_schema(t);
        let jobs = self.jobs();
        if T::ENABLED {
            t.cells_planned(jobs.len() as u64);
            t.counter_add(crate::metrics::names::CELLS_TOTAL, jobs.len() as u64);
        }
        // Image-cache economics are harvested as *deltas* over this run:
        // misses = distinct images built (map-size delta), hits = the
        // remaining lookups. Both ingredients are commutative sums, so the
        // split is exact and worker-count independent by construction.
        let requests_before = cache.requests();
        let unique_before = cache.len() as u64;
        let refs: Vec<&JobKey> = jobs.iter().collect();
        let cells = runner::run_jobs(
            refs,
            |key| {
                let start = t.now_ns();
                let (result, trace) = self.run_cell(cache, key, t, traced);
                let mapped = map(key, &result, &trace);
                if T::ENABLED {
                    let wall = t.now_ns().saturating_sub(start);
                    t.observe(crate::metrics::names::CELL_WALL_NS, wall);
                    t.cell_done(cache.requests(), cache.len() as u64);
                }
                (result, mapped)
            },
            parallelism,
        );
        let (mut results, mapped): (Vec<RunResult>, Vec<X>) = cells.into_iter().unzip();
        self.attribute_cache(&jobs, &mut results);
        if T::ENABLED {
            use crate::metrics::names::{CACHE_HITS, CACHE_MISSES, CACHE_REQUESTS};
            let requests = cache.requests() - requests_before;
            let misses = cache.len() as u64 - unique_before;
            t.counter_add(CACHE_REQUESTS, requests);
            t.counter_add(CACHE_MISSES, misses);
            t.counter_add(CACHE_HITS, requests - misses);
            let refs: Vec<&RunResult> = results.iter().collect();
            crate::metrics::harvest(&refs, t);
        }
        (self.result_set(results, T::ENABLED), mapped)
    }

    /// Statically attribute image-cache economics to cells: walk the grid
    /// row-major and charge each member's `(benchmark, machine)` key a
    /// *miss* on its first appearance and a *hit* after — the plan-level
    /// compile footprint, independent of which rayon worker actually
    /// compiled what. Fleet cells are charged their reference-geometry
    /// hint compiles; per-lane compiles for routed geometries are counted
    /// in the registry's delta-derived totals but not attributed to cells
    /// (routing is an execution outcome, not a plan property).
    fn attribute_cache(&self, jobs: &[JobKey], results: &mut [RunResult]) {
        let mut seen: std::collections::HashSet<(Arc<str>, vliw_isa::MachineConfig)> =
            std::collections::HashSet::new();
        for (key, r) in jobs.iter().zip(results.iter_mut()) {
            let machine = key.machine.config();
            for m in key.workload.members.iter() {
                if seen.insert((m.name.clone(), machine.clone())) {
                    r.stats.cache_misses += 1;
                } else {
                    r.stats.cache_hits += 1;
                }
            }
        }
    }

    /// Run *one* cell of the grid with tracing, returning its result and
    /// recorded [`Trace`] — the surgical "why does this cell behave like
    /// that" probe (the `paper` binary's `--trace` flag uses it). The key
    /// usually comes from [`Plan::jobs`]; any key assembled from the
    /// plan's axes works. Sink choice follows [`Plan::trace`] exactly like
    /// [`Plan::run_traced`].
    pub fn trace_cell(&self, session: &Session, key: &JobKey) -> (RunResult, Trace) {
        self.run_cell(session.cache(), key, &NullTelemetry, true)
    }

    /// Grid-level invariants shared by every run entry point.
    fn validate(&self) {
        let (schemes, workloads) = (&self.grid.schemes, &self.grid.workloads);
        assert!(!schemes.is_empty(), "plan has no schemes");
        assert!(!workloads.is_empty(), "plan has no workloads");
        // Names are the lookup keys: a duplicate would make its later grid
        // cells unreachable by key and double-count in the aggregations.
        assert_unique("scheme", schemes.iter().map(SchemeRef::name));
        assert_unique("workload", workloads.iter().map(WorkloadRef::name));
        // Specs sharing a name across workloads must be identical: the
        // image cache is keyed by name, so differing knobs would make a
        // cell's result depend on which rayon worker compiles first.
        let mut specs: std::collections::HashMap<&str, &BenchmarkSpec> =
            std::collections::HashMap::new();
        for s in workloads.iter().flat_map(|w| w.members.iter()) {
            let first = *specs.entry(&s.name).or_insert(s);
            assert!(
                first == &**s,
                "plan uses two different custom specs named {:?}; names are the \
                 compilation-cache identity, so rename one variant",
                s.name
            );
        }
    }

    /// Execute one cell. `t` meters the compile and simulate shares of
    /// its wall time (free under [`NullTelemetry`]); with `traced` a
    /// machine cell's [`Trace`] is recorded too, otherwise it comes back
    /// empty. A fleet cell always returns its routing trace (one event
    /// per arrival).
    ///
    /// Fleet cells run single-threaded internally (`parallelism = 1`):
    /// the plan's rayon fan-out is *across* cells, and nesting worker
    /// pools would oversubscribe without changing any output byte. They
    /// compile inside the driver per routed lane, so the whole cell is
    /// accounted as simulate time.
    fn run_cell<T: Telemetry>(
        &self,
        cache: &ImageCache,
        key: &JobKey,
        t: &T,
        traced: bool,
    ) -> (RunResult, Trace) {
        use crate::metrics::names::{CELL_COMPILE_NS, CELL_SIMULATE_NS};
        let cfg = self.config_for(key);
        let mut sim_start = t.now_ns();
        let (stats, trace) = match &key.fleet {
            Some(fleet) => crate::fleet::run_fleet_traced(cache, &cfg, fleet, &key.workload, 1),
            None => {
                let threads = key.workload.threads(cache, &cfg, t);
                let compiled = t.now_ns();
                t.observe(CELL_COMPILE_NS, compiled.saturating_sub(sim_start));
                sim_start = compiled;
                let machine = Machine::new(&cfg, threads)
                    .expect("WorkloadRef guarantees at least one member thread");
                if traced {
                    machine.run_with_trace()
                } else {
                    (machine.run(), Trace::default())
                }
            }
        };
        t.observe(CELL_SIMULATE_NS, t.now_ns().saturating_sub(sim_start));
        let result = RunResult {
            scheme: key.scheme.name().to_string(),
            workload: key.workload.name().to_string(),
            stats,
        };
        (result, trace)
    }

    /// Wrap executed results into the keyed [`ResultSet`]; `metered`
    /// (set by the metered entry points when their sink is enabled) adds
    /// the telemetry column group.
    fn result_set(&self, results: Vec<RunResult>, metered: bool) -> ResultSet {
        ResultSet {
            grid: self.grid.clone(),
            metered,
            scale: self.scale,
            priority: self.priority,
            seed: self.seed,
            results,
        }
    }
}

impl Default for Plan {
    fn default() -> Self {
        Self::new()
    }
}

/// A keyed lookup of one cell of a [`ResultSet`]: name a value on any of
/// the grid's axes; every axis left unnamed resolves to its first value
/// (for an optional axis the plan never named, that is its default).
///
/// ```
/// use vliw_sim::plan::{CellQuery, Plan, Session};
/// use vliw_sim::SchedulerSpec;
///
/// let set = Plan::new()
///     .scheme("1S")
///     .workload("LLHH")
///     .schedulers(SchedulerSpec::all())
///     .scale(100_000)
///     .run(&Session::with_parallelism(2));
/// let q = CellQuery::default().scheme("1S").workload("LLHH");
/// let icount = set.cell(&q.scheduler(SchedulerSpec::Icount)).unwrap();
/// assert!(icount.ipc() > 0.0);
/// // Mean IPC over the workloads, per scheduler in plan order.
/// assert_eq!(set.means_by::<SchedulerSpec>(&q).len(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct CellQuery<'a> {
    scheme: Option<&'a str>,
    workload: Option<&'a str>,
    scheduler: Option<SchedulerSpec>,
    machine: Option<MachineSpec>,
    fleet: Option<&'a FleetSpec>,
    traffic: Option<TrafficSpec>,
    memory: Option<MemoryModel>,
}

impl<'a> CellQuery<'a> {
    /// Name the scheme.
    pub fn scheme(mut self, scheme: &'a str) -> Self {
        self.scheme = Some(scheme);
        self
    }

    /// Name the workload.
    pub fn workload(mut self, workload: &'a str) -> Self {
        self.workload = Some(workload);
        self
    }

    /// Name the OS scheduling policy.
    pub fn scheduler(mut self, scheduler: SchedulerSpec) -> Self {
        self.scheduler = Some(scheduler);
        self
    }

    /// Name the machine geometry.
    pub fn machine(mut self, machine: MachineSpec) -> Self {
        self.machine = Some(machine);
        self
    }

    /// Name the fleet (only fleets the plan named resolve).
    pub fn fleet(mut self, fleet: &'a FleetSpec) -> Self {
        self.fleet = Some(fleet);
        self
    }

    /// Name the arrival process.
    pub fn traffic(mut self, traffic: TrafficSpec) -> Self {
        self.traffic = Some(traffic);
        self
    }

    /// Name the memory model.
    pub fn memory(mut self, memory: MemoryModel) -> Self {
        self.memory = Some(memory);
        self
    }
}

/// The value type of one grid axis, so [`ResultSet::means_by`] can fan an
/// aggregation out over that axis.
pub trait AxisValue: Sized {
    /// The axis's values in `set`, plan order.
    fn values(set: &ResultSet) -> Vec<Self>;
    /// `q` with this axis set to `self`.
    fn pin<'a>(&'a self, q: CellQuery<'a>) -> CellQuery<'a>;
}

impl AxisValue for SchemeRef {
    fn values(set: &ResultSet) -> Vec<Self> {
        set.schemes().to_vec()
    }
    fn pin<'a>(&'a self, q: CellQuery<'a>) -> CellQuery<'a> {
        q.scheme(self.name())
    }
}

impl AxisValue for SchedulerSpec {
    fn values(set: &ResultSet) -> Vec<Self> {
        set.schedulers().to_vec()
    }
    fn pin<'a>(&'a self, q: CellQuery<'a>) -> CellQuery<'a> {
        q.scheduler(*self)
    }
}

impl AxisValue for MachineSpec {
    fn values(set: &ResultSet) -> Vec<Self> {
        set.machines().to_vec()
    }
    fn pin<'a>(&'a self, q: CellQuery<'a>) -> CellQuery<'a> {
        q.machine(*self)
    }
}

impl AxisValue for FleetSpec {
    fn values(set: &ResultSet) -> Vec<Self> {
        set.fleets().cloned().collect()
    }
    fn pin<'a>(&'a self, q: CellQuery<'a>) -> CellQuery<'a> {
        q.fleet(self)
    }
}

impl AxisValue for TrafficSpec {
    fn values(set: &ResultSet) -> Vec<Self> {
        set.traffics().to_vec()
    }
    fn pin<'a>(&'a self, q: CellQuery<'a>) -> CellQuery<'a> {
        q.traffic(*self)
    }
}

/// The keyed results of one executed [`Plan`].
///
/// Storage is row-major over the plan's grid — schemes outermost, then
/// workloads, schedulers, machines, fleets, traffic, memory axes
/// innermost — so positional consumers and keyed lookups always agree.
#[derive(Debug, Clone)]
pub struct ResultSet {
    grid: Grid,
    /// Whether the set came from a metered run with an enabled sink,
    /// which adds the telemetry column group.
    metered: bool,
    scale: u64,
    priority: PriorityPolicy,
    seed: Option<u64>,
    results: Vec<RunResult>,
}

impl ResultSet {
    /// The column groups this set's own exports carry: one per optional
    /// axis the plan named, plus telemetry for metered runs.
    pub fn shape(&self) -> ColumnShape {
        self.grid.shape(self.metered)
    }

    /// Schemes of the grid, in plan order.
    pub fn schemes(&self) -> &[SchemeRef] {
        &self.grid.schemes
    }

    /// Workloads of the grid, in plan order.
    pub fn workloads(&self) -> &[WorkloadRef] {
        &self.grid.workloads
    }

    /// Scheduling policies of the grid, in plan order (the default
    /// `[PaperRandom]` when the plan named none).
    pub fn schedulers(&self) -> &[SchedulerSpec] {
        &self.grid.schedulers.values
    }

    /// Machine geometries of the grid, in plan order (the default
    /// `[Paper4x4]` when the plan named none).
    pub fn machines(&self) -> &[MachineSpec] {
        &self.grid.machines.values
    }

    /// Fleets of the grid, in plan order — none when the plan named none
    /// (its cells run on one plain machine).
    pub fn fleets(&self) -> impl Iterator<Item = &FleetSpec> {
        self.grid.fleets.values.iter().flatten()
    }

    /// Arrival processes of the grid, in plan order (the default
    /// `[Closed]` when the plan named none).
    pub fn traffics(&self) -> &[TrafficSpec] {
        &self.grid.traffics.values
    }

    /// Memory axes of the grid, in plan order.
    pub fn axes(&self) -> &[MemoryModel] {
        &self.grid.memory.values
    }

    /// The plan's run-length divisor.
    pub fn scale(&self) -> u64 {
        self.scale
    }

    /// The rotation policy the plan ran with.
    pub fn priority(&self) -> PriorityPolicy {
        self.priority
    }

    /// The plan's seed override, if any (`None` = [`SimConfig::paper`]'s
    /// default seed).
    pub fn seed(&self) -> Option<u64> {
        self.seed
    }

    /// Number of cells in the grid.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// Whether the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// Keyed lookup of the cell `q` names; `None` when a named value is
    /// not part of the grid.
    pub fn cell(&self, q: &CellQuery) -> Option<&RunResult> {
        self.results.get(self.grid.find(q)?)
    }

    /// Keyed lookup of one cell under the first value of every optional
    /// axis (see [`ResultSet::cell`] for the others).
    pub fn get(&self, scheme: &str, workload: &str, memory: MemoryModel) -> Option<&RunResult> {
        self.cell(
            &CellQuery::default()
                .scheme(scheme)
                .workload(workload)
                .memory(memory),
        )
    }

    /// IPC of one cell (see [`ResultSet::get`]).
    pub fn ipc(&self, scheme: &str, workload: &str, memory: MemoryModel) -> Option<f64> {
        self.get(scheme, workload, memory).map(RunResult::ipc)
    }

    /// Per-thread breakdown of one cell (see [`ResultSet::get`]; from
    /// [`crate::stats::RunStats`]).
    pub fn threads(
        &self,
        scheme: &str,
        workload: &str,
        memory: MemoryModel,
    ) -> Option<&[ThreadStats]> {
        self.get(scheme, workload, memory)
            .map(|r| r.stats.threads.as_slice())
    }

    /// All results in row-major grid order (schemes outermost, memory axes
    /// innermost).
    pub fn results(&self) -> &[RunResult] {
        &self.results
    }

    /// Consume the set into its row-major result vector.
    pub fn into_results(self) -> Vec<RunResult> {
        self.results
    }

    /// Iterate `(key, result)` pairs in row-major grid order.
    pub fn iter(&self) -> impl Iterator<Item = (JobKey, &RunResult)> + '_ {
        self.results
            .iter()
            .enumerate()
            .map(|(i, r)| (self.grid.key(i), r))
    }

    /// Mean IPC over the grid's workloads of the cells `q` names (its
    /// workload, if named, is ignored) — the one aggregation behind every
    /// mean helper. `None` when a named value is not part of the grid.
    pub fn mean(&self, q: &CellQuery) -> Option<f64> {
        let xs: Vec<f64> = self
            .grid
            .workloads
            .iter()
            .filter_map(|w| self.cell(&q.workload(w.name())).map(RunResult::ipc))
            .collect();
        (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
    }

    /// [`ResultSet::mean`] for every value of axis `A`, plan order (the
    /// query's own value on that axis is replaced). For example
    /// `means_by::<SchedulerSpec>` is the scheduler-ablation view and
    /// `means_by::<TrafficSpec>` throughput vs offered load.
    pub fn means_by<A: AxisValue>(&self, q: &CellQuery) -> Vec<(A, f64)> {
        A::values(self)
            .into_iter()
            .filter_map(|v| {
                let mean = self.mean(&v.pin(*q))?;
                Some((v, mean))
            })
            .collect()
    }

    /// Mean IPC of one scheme across all workloads on one memory axis
    /// (first value of every optional axis).
    pub fn mean_ipc(&self, scheme: &str, memory: MemoryModel) -> Option<f64> {
        self.mean(&CellQuery::default().scheme(scheme).memory(memory))
    }

    /// Mean IPC of every scheme (plan order) on one memory axis.
    pub fn scheme_means(&self, memory: MemoryModel) -> Vec<(Arc<str>, f64)> {
        let q = CellQuery::default().memory(memory);
        self.means_by::<SchemeRef>(&q)
            .into_iter()
            .map(|(s, m)| (s.name, m))
            .collect()
    }

    /// Mean-IPC ratio of `scheme` over `baseline` on one memory axis
    /// (1.0 = parity; the paper's "+14%" style claims are `ratio - 1`).
    pub fn speedup(&self, scheme: &str, baseline: &str, memory: MemoryModel) -> Option<f64> {
        let s = self.mean_ipc(scheme, memory)?;
        let b = self.mean_ipc(baseline, memory)?;
        if b == 0.0 {
            None
        } else {
            Some(s / b)
        }
    }

    /// Gate-level cost of one scheme's merge-control hardware priced for
    /// one machine geometry of this grid (transistors, gate delays — see
    /// [`vliw_hwcost::scheme_cost()`]). `None` when the scheme or machine is
    /// not part of the grid; the cost is per-geometry, so an `8x2` machine
    /// prices 8 clusters of 2-issue merge logic, not the paper's 4×4.
    pub fn merge_cost(&self, scheme: &str, machine: MachineSpec) -> Option<SchemeCost> {
        let s = self.schemes().iter().find(|s| s.name() == scheme)?;
        self.machines().iter().find(|&&m| m == machine)?;
        let cfg = machine.config();
        Some(scheme_cost(
            s.scheme(),
            cfg.n_clusters,
            cfg.issue_per_cluster,
        ))
    }

    /// Area efficiency of one (scheme, machine) pair: mean IPC across the
    /// grid's workloads per *kilotransistor* of merge-control hardware on
    /// that machine's actual geometry (first scheduler). Absolute values
    /// inherit the cost model's calibration; orderings are structural.
    pub fn ipc_per_area(
        &self,
        scheme: &str,
        machine: MachineSpec,
        memory: MemoryModel,
    ) -> Option<f64> {
        let cost = self.merge_cost(scheme, machine)?;
        let q = CellQuery::default().scheme(scheme).machine(machine);
        let ipc = self.mean(&q.memory(memory))?;
        if cost.transistors == 0 {
            return None;
        }
        Some(ipc / (cost.transistors as f64 / 1000.0))
    }

    /// Serialize as a self-contained JSON object (hand-rolled, no external
    /// deps, byte-deterministic: independent of worker count or platform).
    ///
    /// Floats use Rust's shortest round-trip `Display`, so parsing a value
    /// back yields the exact `f64`.
    pub fn to_json(&self) -> String {
        let columns: Vec<&Column> = self.shape().columns().collect();
        let cells: Vec<Vec<Value>> = self
            .iter()
            .map(|(key, r)| columns.iter().map(|c| (c.value)(&key, r)).collect())
            .collect();
        let seed = self
            .seed
            .map_or_else(|| "null".to_string(), |s| s.to_string());
        let mut fields = vec![
            ("scale", num(self.scale)),
            ("priority", text(priority_label(self.priority))),
            ("seed", Value::Num(seed)),
        ];
        // Each key column's axis, as its distinct values in grid order.
        for (i, c) in columns.iter().enumerate() {
            let Some(plural) = c.plural else { continue };
            let mut axis: Vec<Value> = Vec::new();
            for values in &cells {
                if !axis.contains(&values[i]) {
                    axis.push(values[i].clone());
                }
            }
            fields.push((plural, Value::List(axis)));
        }
        let names = || columns.iter().map(|c| c.name);
        let results = cells
            .into_iter()
            .map(|v| Value::Object(names().zip(v).collect()));
        fields.push(("results", Value::List(results.collect())));
        let mut s = String::with_capacity(256 + 256 * self.results.len());
        Value::Object(fields).json(&mut s);
        s
    }

    /// Serialize as CSV with header `self.shape().csv_header()`, one row
    /// per grid cell in row-major order. Byte-deterministic like
    /// [`ResultSet::to_json`].
    pub fn to_csv(&self) -> String {
        let shape = self.shape();
        format!("{}\n{}", shape.csv_header(), self.csv_rows(None, shape))
    }

    /// The CSV data rows alone, widened to `shape` (the union of `shape`
    /// and the set's own, so a swept axis is never dropped): pass the
    /// union of several sets' shapes and every row matches one
    /// [`ColumnShape::csv_header`]. A widened key column carries the
    /// cell's actual value — the axis default for sets that never named
    /// it. With `exhibit` set, each row is prefixed with that id (for
    /// combined multi-exhibit exports — prepend `"exhibit,"` to the
    /// header). Names are CSV-quoted when needed, since computed
    /// scheme/workload names may contain delimiters.
    pub fn csv_rows(&self, exhibit: Option<&str>, shape: ColumnShape) -> String {
        let columns: Vec<&Column> = shape.union(self.shape()).csv_columns().collect();
        let mut s = String::new();
        for (key, r) in self.iter() {
            if let Some(id) = exhibit {
                s.push_str(&csv_field(id));
                s.push(',');
            }
            for (j, c) in columns.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                (c.value)(&key, r).csv(&mut s);
            }
            s.push('\n');
        }
        s
    }
}

/// Which optional column groups an export carries: one per optional axis
/// a plan named (scheduler, machine, fleet, traffic) and telemetry for
/// metered runs. Shapes only widen: [`ResultSet::csv_rows`] takes the
/// union of a requested shape and the set's own, which is how the `paper`
/// binary fits every captured set under one header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ColumnShape(u8);

/// Column-group bits of a [`ColumnShape`] (a column of group 0 is always
/// present).
const SCHEDULER: u8 = 1;
const MACHINE: u8 = 2;
const FLEET: u8 = 4;
const TRAFFIC: u8 = 8;
const TELEMETRY: u8 = 16;

impl ColumnShape {
    /// The groups of either shape.
    pub fn union(self, other: ColumnShape) -> ColumnShape {
        ColumnShape(self.0 | other.0)
    }

    /// The CSV header of rows in this shape.
    pub fn csv_header(self) -> String {
        let names: Vec<&str> = self.csv_columns().map(|c| c.name).collect();
        names.join(",")
    }

    /// The columns of this shape, output order.
    fn columns(self) -> impl Iterator<Item = &'static Column> {
        COLUMNS.iter().filter(move |c| self.0 & c.group == c.group)
    }

    fn csv_columns(self) -> impl Iterator<Item = &'static Column> {
        self.columns().filter(|c| c.csv)
    }
}

/// One column of the CSV/JSON exports.
struct Column {
    /// CSV column and JSON field name.
    name: &'static str,
    /// The column group it belongs to (0 = always present).
    group: u8,
    /// For a key column, the set-level JSON array listing its axis.
    plural: Option<&'static str>,
    /// Whether the column is in the CSV; every column is a JSON field.
    csv: bool,
    value: fn(&JobKey, &RunResult) -> Value,
}

impl Column {
    /// A key column: the cell's value on one grid axis.
    const fn key(name: &'static str, plural: &'static str, group: u8, value: Cell) -> Self {
        let plural = Some(plural);
        Column {
            name,
            group,
            plural,
            csv: true,
            value,
        }
    }

    /// A metric in both the CSV and the JSON.
    const fn both(group: u8, name: &'static str, value: Cell) -> Self {
        Column {
            name,
            group,
            plural: None,
            csv: true,
            value,
        }
    }

    /// A metric in the JSON only.
    const fn json(group: u8, name: &'static str, value: Cell) -> Self {
        Column {
            name,
            group,
            plural: None,
            csv: false,
            value,
        }
    }
}

/// How a column reads its value from a cell.
type Cell = fn(&JobKey, &RunResult) -> Value;

/// Every export column, in output order: the keys in grid order, the
/// always-present metrics, then each group's metrics. The JSON object of
/// a cell carries all columns of its shape plus the per-thread breakdown;
/// the CSV carries those marked `csv`.
static COLUMNS: [Column; 37] = [
    Column::key("scheme", "schemes", 0, |k, _| text(k.scheme.name())),
    Column::key("workload", "workloads", 0, |k, _| text(k.workload.name())),
    Column::key("scheduler", "schedulers", SCHEDULER, |k, _| {
        text(k.scheduler.name())
    }),
    Column::key("machine", "machines", MACHINE, |k, _| {
        text(k.machine.label())
    }),
    // A plain cell widened into a fleet export is its own singleton fleet,
    // labelled by its machine (the one-machine fleet spelling).
    Column::key("fleet", "fleets", FLEET, |k, _| match &k.fleet {
        Some(f) => text(f.label()),
        None => text(k.machine.label()),
    }),
    Column::key("traffic", "traffics", TRAFFIC, |k, _| {
        text(k.traffic.label())
    }),
    Column::key("memory", "axes", 0, |k, _| text(k.memory.label())),
    Column::both(0, "ipc", |_, r| num(r.ipc())),
    Column::both(0, "cycles", |_, r| num(r.stats.cycles)),
    Column::both(0, "instrs", |_, r| num(r.stats.total_instrs)),
    Column::both(0, "ops", |_, r| num(r.stats.total_ops)),
    Column::json(0, "vertical_waste", |_, r| num(r.stats.vertical_waste())),
    Column::json(0, "horizontal_waste", |_, r| {
        num(r.stats.horizontal_waste())
    }),
    Column::json(0, "context_switches", |_, r| num(r.stats.context_switches)),
    Column::json(SCHEDULER, "migrations", |_, r| num(r.stats.migrations)),
    Column::json(SCHEDULER, "idle_context_cycles", |_, r| {
        num(r.stats.idle_context_cycles)
    }),
    // Open-system metrics: admission counts, sojourn quantiles and queue
    // depth (all zero for closed cells).
    Column::both(TRAFFIC, "offered", |_, r| num(r.stats.traffic.offered)),
    Column::both(TRAFFIC, "completed", |_, r| num(r.stats.traffic.completed)),
    Column::both(TRAFFIC, "shed", |_, r| num(r.stats.traffic.shed)),
    Column::both(TRAFFIC, "p50_sojourn", |_, r| {
        num(r.stats.traffic.p50_sojourn)
    }),
    Column::both(TRAFFIC, "p95_sojourn", |_, r| {
        num(r.stats.traffic.p95_sojourn)
    }),
    Column::both(TRAFFIC, "p99_sojourn", |_, r| {
        num(r.stats.traffic.p99_sojourn)
    }),
    Column::json(TRAFFIC, "mean_sojourn", |_, r| {
        num(r.stats.traffic.mean_sojourn)
    }),
    Column::json(TRAFFIC, "mean_wait", |_, r| num(r.stats.traffic.mean_wait)),
    Column::both(TRAFFIC, "mean_queue_depth", |_, r| {
        num(r.stats.traffic.mean_queue_depth)
    }),
    // Fleet metrics: per-machine values in fleet order (a plain cell is
    // one machine that routed nothing); the sojourn quantiles are
    // fleet-wide (merged sample multisets, not averaged per-machine
    // quantiles).
    Column::both(FLEET, "fleet_machines", |_, r| {
        num(r.stats.fleet.as_ref().map_or(1, |f| f.n_machines()))
    }),
    Column::both(FLEET, "fleet_routed", |_, r| {
        per_machine(r, |m| num(m.routed))
    }),
    Column::both(FLEET, "fleet_shed", |_, r| per_machine(r, |m| num(m.shed))),
    Column::json(FLEET, "fleet_utilization", |_, r| {
        per_machine(r, |m| num(m.utilization))
    }),
    Column::json(FLEET, "fleet_ipc", |_, r| per_machine(r, |m| num(m.ipc))),
    Column::both(FLEET, "fleet_p50_sojourn", |_, r| {
        num(r.stats.traffic.p50_sojourn)
    }),
    Column::both(FLEET, "fleet_p95_sojourn", |_, r| {
        num(r.stats.traffic.p95_sojourn)
    }),
    Column::both(FLEET, "fleet_p99_sojourn", |_, r| {
        num(r.stats.traffic.p99_sojourn)
    }),
    // Telemetry: statically-attributed image-cache economics and ring-sink
    // trace drops, on metered runs.
    Column::both(TELEMETRY, "cache_hits", |_, r| num(r.stats.cache_hits)),
    Column::both(TELEMETRY, "cache_misses", |_, r| num(r.stats.cache_misses)),
    Column::both(TELEMETRY, "trace_dropped", |_, r| {
        num(r.stats.trace_dropped)
    }),
    Column::json(0, "threads", |_, r| {
        Value::List(r.stats.threads.iter().map(thread).collect())
    }),
];

/// One value of the exports.
#[derive(Clone, PartialEq)]
enum Value {
    /// A name: JSON-quoted, CSV-quoted when needed.
    Text(String),
    /// A number, in its shortest round-trip `Display` form.
    Num(String),
    /// A list: a JSON array, slash-joined in CSV.
    List(Vec<Value>),
    /// A JSON object (never in the CSV).
    Object(Vec<(&'static str, Value)>),
}

fn text(s: impl Into<String>) -> Value {
    Value::Text(s.into())
}

fn num(x: impl Display) -> Value {
    Value::Num(x.to_string())
}

/// One thread's row of a cell's per-thread breakdown.
fn thread(t: &ThreadStats) -> Value {
    Value::Object(vec![
        ("name", text(&*t.name)),
        ("tid", num(t.tid)),
        ("instrs", num(t.instrs)),
        ("ops", num(t.ops)),
        ("dstall", num(t.dstall_cycles)),
        ("istall", num(t.istall_cycles)),
        ("branch_stall", num(t.branch_stall_cycles)),
        ("taken_branches", num(t.taken_branches)),
    ])
}

/// A value per machine of a fleet cell, fleet order (none for a plain
/// cell).
fn per_machine(r: &RunResult, f: fn(&vliw_fleet::MachineLaneStats) -> Value) -> Value {
    let lanes = r.stats.fleet.iter().flat_map(|fs| &fs.machines);
    Value::List(lanes.map(f).collect())
}

impl Value {
    fn csv(&self, out: &mut String) {
        match self {
            Value::Text(s) => out.push_str(&csv_field(s)),
            Value::Num(s) => out.push_str(s),
            Value::List(xs) => {
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        out.push('/');
                    }
                    x.csv(out);
                }
            }
            Value::Object(_) => unreachable!("objects are JSON-only columns"),
        }
    }

    fn json(&self, out: &mut String) {
        match self {
            Value::Text(s) => json_string(out, s),
            Value::Num(s) => out.push_str(s),
            Value::List(xs) => {
                out.push('[');
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    x.json(out);
                }
                out.push(']');
            }
            Value::Object(fields) => {
                out.push('{');
                for (i, (name, x)) in fields.iter().enumerate() {
                    let _ = write!(out, "{}\"{name}\":", if i > 0 { "," } else { "" });
                    x.json(out);
                }
                out.push('}');
            }
        }
    }
}

/// Quote a CSV field when it contains a delimiter, quote or newline
/// (RFC-4180 style: wrap in quotes, double internal quotes).
fn csv_field(value: &str) -> String {
    if value.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", value.replace('"', "\"\""))
    } else {
        value.to_string()
    }
}

/// Panic when an axis of the plan grid repeats a name (keys must be
/// unique for keyed lookup and aggregation to be meaningful).
fn assert_unique<'a>(kind: &str, names: impl Iterator<Item = &'a str>) {
    let mut seen = std::collections::HashSet::new();
    for name in names {
        assert!(
            seen.insert(name),
            "plan lists {kind} {name:?} more than once; names are lookup keys and must be unique"
        );
    }
}

/// Stable lowercase label of a rotation policy for serialized exhibits.
fn priority_label(policy: PriorityPolicy) -> &'static str {
    match policy {
        PriorityPolicy::Fixed => "fixed",
        PriorityPolicy::RoundRobin => "round-robin",
        PriorityPolicy::LeastRecentlyIssued => "least-recently-issued",
    }
}

/// Append `value` as a JSON string literal (quotes + escapes).
fn json_string(out: &mut String, value: &str) {
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_expands_row_major() {
        let plan = Plan::new()
            .schemes(["ST", "1S"])
            .workloads(["idct", "mcf", "LLHH"])
            .axes([MemoryModel::Real, MemoryModel::Perfect]);
        let jobs = plan.jobs();
        assert_eq!(jobs.len(), 2 * 3 * 2);
        // Schemes outermost, axes innermost.
        assert_eq!(jobs[0].scheme.name(), "ST");
        assert_eq!(jobs[0].workload.name(), "idct");
        assert_eq!(jobs[0].memory, MemoryModel::Real);
        assert_eq!(jobs[1].memory, MemoryModel::Perfect);
        assert_eq!(jobs[2].workload.name(), "mcf");
        assert_eq!(jobs[6].scheme.name(), "1S");
    }

    #[test]
    fn scheduler_axis_expands_between_workloads_and_memory() {
        let plan = Plan::new()
            .schemes(["ST", "1S"])
            .workload("idct")
            .schedulers([SchedulerSpec::PaperRandom, SchedulerSpec::Icount])
            .axes([MemoryModel::Real, MemoryModel::Perfect]);
        let jobs = plan.jobs();
        // 2 schemes x 1 workload x 2 schedulers x 2 memory axes.
        assert_eq!(jobs.len(), 8);
        assert_eq!(jobs[0].scheduler, SchedulerSpec::PaperRandom);
        assert_eq!(jobs[0].memory, MemoryModel::Real);
        assert_eq!(jobs[1].scheduler, SchedulerSpec::PaperRandom);
        assert_eq!(jobs[1].memory, MemoryModel::Perfect);
        assert_eq!(jobs[2].scheduler, SchedulerSpec::Icount);
        assert_eq!(jobs[4].scheme.name(), "1S");
    }

    #[test]
    fn scheduler_axis_deduplicates_and_accepts_names() {
        let plan = Plan::new()
            .scheduler("icount")
            .scheduler(SchedulerSpec::Icount)
            .schedulers(["round-robin"]);
        assert_eq!(
            plan.grid.schedulers.values,
            vec![SchedulerSpec::Icount, SchedulerSpec::RoundRobin]
        );
        // No scheduler named: the paper's default, alone.
        assert_eq!(
            Plan::new().grid.schedulers.values,
            vec![SchedulerSpec::PaperRandom]
        );
    }

    #[test]
    fn scheduler_sweep_is_keyed_and_serialized() {
        let set = Plan::new()
            .scheme("1S")
            .workload("LLHH")
            .schedulers(SchedulerSpec::all())
            .scale(100_000)
            .run(&Session::with_parallelism(2));
        assert_eq!(set.len(), 4);
        let q = CellQuery::default().scheme("1S").workload("LLHH");
        // 3-arg lookup resolves the first scheduler of the axis.
        assert_eq!(
            set.get("1S", "LLHH", MemoryModel::Real)
                .unwrap()
                .stats
                .cycles,
            set.cell(&q.scheduler(SchedulerSpec::PaperRandom))
                .unwrap()
                .stats
                .cycles
        );
        for spec in SchedulerSpec::all() {
            let r = set
                .cell(&q.scheduler(spec))
                .unwrap_or_else(|| panic!("missing {spec} cell"));
            assert!(r.ipc() > 0.0);
        }
        let means = set.means_by::<SchedulerSpec>(&q);
        assert_eq!(means.len(), 4);
        // Serialized exhibits carry the axis and per-cell labels.
        let json = set.to_json();
        assert!(json.contains(
            "\"schedulers\":[\"paper-random\",\"round-robin\",\"icount\",\"cluster-affinity\"]"
        ));
        assert!(json.contains("\"scheduler\":\"icount\""));
        assert!(json.contains("\"migrations\":"));
        let csv = set.to_csv();
        assert_eq!(
            csv.lines().next(),
            Some("scheme,workload,scheduler,memory,ipc,cycles,instrs,ops")
        );
        assert!(csv
            .lines()
            .any(|l| l.starts_with("1S,LLHH,cluster-affinity,real,")));
    }

    #[test]
    fn default_plans_keep_the_pre_axis_serialization_format() {
        let set = Plan::new()
            .scheme("ST")
            .workload("idct")
            .scale(100_000)
            .run(&Session::with_parallelism(1));
        let json = set.to_json();
        assert!(!json.contains("\"schedulers\""), "no axis array: {json}");
        assert!(!json.contains("\"scheduler\""), "no per-cell field");
        assert!(!json.contains("\"migrations\""), "no new metrics");
        assert_eq!(
            set.to_csv().lines().next(),
            Some("scheme,workload,memory,ipc,cycles,instrs,ops")
        );
    }

    #[test]
    fn machine_axis_expands_between_schedulers_and_memory() {
        let plan = Plan::new()
            .schemes(["ST", "1S"])
            .workload("idct")
            .machines([MachineSpec::Paper4x4, MachineSpec::Narrow8x2])
            .axes([MemoryModel::Real, MemoryModel::Perfect]);
        let jobs = plan.jobs();
        // 2 schemes x 1 workload x 1 scheduler x 2 machines x 2 memory.
        assert_eq!(jobs.len(), 8);
        assert_eq!(jobs[0].machine, MachineSpec::Paper4x4);
        assert_eq!(jobs[0].memory, MemoryModel::Real);
        assert_eq!(jobs[1].machine, MachineSpec::Paper4x4);
        assert_eq!(jobs[1].memory, MemoryModel::Perfect);
        assert_eq!(jobs[2].machine, MachineSpec::Narrow8x2);
        assert_eq!(jobs[4].scheme.name(), "1S");
    }

    #[test]
    fn machine_axis_deduplicates_by_label() {
        // `4x4+2+1` canonicalizes to the paper preset; listing both must
        // leave one machine, not two cells with one serialized label.
        let plan = Plan::new()
            .machine(MachineSpec::Paper4x4)
            .machine("4x4+2+1".parse().unwrap())
            .machine(MachineSpec::Wide2x8);
        assert_eq!(
            plan.grid.machines.values,
            vec![MachineSpec::Paper4x4, MachineSpec::Wide2x8]
        );
        // No machine named: the paper geometry, alone.
        assert_eq!(
            Plan::new().grid.machines.values,
            vec![MachineSpec::Paper4x4]
        );
    }

    #[test]
    fn machine_sweep_is_keyed_serialized_and_priced() {
        let set = Plan::new()
            .schemes(["ST", "2SC3"])
            .workload("LLHH")
            .machines([MachineSpec::Paper4x4, MachineSpec::Wide2x8])
            .scale(100_000)
            .run(&Session::with_parallelism(2));
        assert_eq!(set.len(), 4);
        let q = CellQuery::default().scheme("2SC3").workload("LLHH");
        // 3-arg lookup resolves the first machine of the axis.
        assert_eq!(
            set.get("2SC3", "LLHH", MemoryModel::Real)
                .unwrap()
                .stats
                .cycles,
            set.cell(&q.machine(MachineSpec::Paper4x4))
                .unwrap()
                .stats
                .cycles
        );
        for m in [MachineSpec::Paper4x4, MachineSpec::Wide2x8] {
            let r = set
                .cell(&q.machine(m))
                .unwrap_or_else(|| panic!("missing {m} cell"));
            assert!(r.ipc() > 0.0);
        }
        // The geometries genuinely differ (different compiled schedules).
        assert_ne!(
            set.cell(&q.machine(MachineSpec::Paper4x4))
                .unwrap()
                .stats
                .cycles,
            set.cell(&q.machine(MachineSpec::Wide2x8))
                .unwrap()
                .stats
                .cycles,
            "machine axis must be a real axis, not a relabeling"
        );
        let means = set.means_by::<MachineSpec>(&q);
        assert_eq!(means.len(), 2);
        // hwcost coupling: costs follow the actual geometry, and the
        // area-efficiency aggregation is defined for merging schemes.
        let paper_cost = set.merge_cost("2SC3", MachineSpec::Paper4x4).unwrap();
        let wide_cost = set.merge_cost("2SC3", MachineSpec::Wide2x8).unwrap();
        assert!(paper_cost.transistors > 0);
        assert_ne!(
            paper_cost.transistors, wide_cost.transistors,
            "cost must be priced per geometry"
        );
        let eff = set
            .ipc_per_area("2SC3", MachineSpec::Paper4x4, MemoryModel::Real)
            .unwrap();
        assert!(eff > 0.0);
        // ST has no merge hardware: no area, no efficiency number.
        assert!(set
            .ipc_per_area("ST", MachineSpec::Paper4x4, MemoryModel::Real)
            .is_none());
        // Serialized exhibits carry the axis and per-cell labels.
        let json = set.to_json();
        assert!(
            json.contains("\"machines\":[\"paper-4x4\",\"2x8\"]"),
            "{json}"
        );
        assert!(json.contains("\"machine\":\"2x8\""));
        let csv = set.to_csv();
        assert_eq!(
            csv.lines().next(),
            Some("scheme,workload,machine,memory,ipc,cycles,instrs,ops")
        );
        assert!(csv.lines().any(|l| l.starts_with("2SC3,LLHH,2x8,real,")));
    }

    #[test]
    fn default_plans_have_no_machine_serialization() {
        let set = Plan::new()
            .scheme("ST")
            .workload("idct")
            .scale(100_000)
            .run(&Session::with_parallelism(1));
        let json = set.to_json();
        assert!(!json.contains("\"machines\""), "no axis array: {json}");
        assert!(!json.contains("\"machine\""), "no per-cell field");
        assert_eq!(
            set.to_csv().lines().next(),
            Some("scheme,workload,memory,ipc,cycles,instrs,ops")
        );
        // The implicit machine is still addressable.
        assert_eq!(set.machines(), &[MachineSpec::Paper4x4]);
    }

    #[test]
    fn traffic_axis_expands_between_machines_and_memory() {
        let plan = Plan::new()
            .schemes(["ST", "1S"])
            .workload("idct")
            .arrivals([TrafficSpec::Closed, "poisson:0.001".parse().unwrap()])
            .axes([MemoryModel::Real, MemoryModel::Perfect]);
        let jobs = plan.jobs();
        // 2 schemes x 1 workload x 1 sched x 1 machine x 2 traffics x 2 memory.
        assert_eq!(jobs.len(), 8);
        assert_eq!(jobs[0].traffic, TrafficSpec::Closed);
        assert_eq!(jobs[0].memory, MemoryModel::Real);
        assert_eq!(jobs[1].traffic, TrafficSpec::Closed);
        assert_eq!(jobs[1].memory, MemoryModel::Perfect);
        assert_eq!(jobs[2].traffic, "poisson:0.001".parse().unwrap());
        assert_eq!(jobs[4].scheme.name(), "1S");
    }

    #[test]
    fn traffic_axis_deduplicates() {
        let plan = Plan::new()
            .arrival("poisson:0.02".parse().unwrap())
            .arrival("poisson:0.020000".parse().unwrap())
            .arrivals([TrafficSpec::Closed]);
        assert_eq!(
            plan.grid.traffics.values,
            vec!["poisson:0.02".parse().unwrap(), TrafficSpec::Closed]
        );
        // No arrival process named: closed (batch), alone.
        assert_eq!(Plan::new().grid.traffics.values, vec![TrafficSpec::Closed]);
    }

    #[test]
    fn traffic_sweep_is_keyed_and_serialized() {
        let open: TrafficSpec = "poisson:0.002".parse().unwrap();
        let set = Plan::new()
            .scheme("1S")
            .workload("LLHH")
            .arrivals([TrafficSpec::Closed, open])
            .scale(100_000)
            .run(&Session::with_parallelism(2));
        assert_eq!(set.len(), 2);
        let q = CellQuery::default().scheme("1S").workload("LLHH");
        // 3-arg lookup resolves the first arrival process of the axis.
        assert_eq!(
            set.get("1S", "LLHH", MemoryModel::Real)
                .unwrap()
                .stats
                .cycles,
            set.cell(&q.traffic(TrafficSpec::Closed))
                .unwrap()
                .stats
                .cycles
        );
        let closed = set.cell(&q.traffic(TrafficSpec::Closed)).unwrap();
        let opened = set.cell(&q.traffic(open)).unwrap();
        assert_eq!(closed.stats.traffic, Default::default());
        assert_eq!(opened.stats.traffic.offered, 4, "LLHH stages 4 jobs");
        assert!(opened.ipc() > 0.0);
        let means = set.means_by::<TrafficSpec>(&q);
        assert_eq!(means.len(), 2);
        assert_eq!(means[0].0, TrafficSpec::Closed);
        // Serialized exhibits carry the axis, per-cell labels and metrics.
        let json = set.to_json();
        assert!(
            json.contains("\"traffics\":[\"closed\",\"poisson:0.002\"]"),
            "{json}"
        );
        assert!(json.contains("\"traffic\":\"poisson:0.002\""));
        assert!(json.contains("\"offered\":4"));
        assert!(json.contains("\"p99_sojourn\":"));
        let csv = set.to_csv();
        assert_eq!(
            csv.lines().next(),
            Some(
                "scheme,workload,traffic,memory,ipc,cycles,instrs,ops,offered,completed,shed,\
                 p50_sojourn,p95_sojourn,p99_sojourn,mean_queue_depth"
            )
        );
        assert!(
            csv.lines()
                .any(|l| l.starts_with("1S,LLHH,poisson:0.002,real,")),
            "{csv}"
        );
    }

    #[test]
    fn default_plans_have_no_traffic_serialization() {
        let set = Plan::new()
            .scheme("ST")
            .workload("idct")
            .scale(100_000)
            .run(&Session::with_parallelism(1));
        let json = set.to_json();
        assert!(!json.contains("\"traffics\""), "no axis array: {json}");
        assert!(!json.contains("\"traffic\""), "no per-cell field");
        assert!(!json.contains("\"offered\""), "no open-system metrics");
        assert_eq!(
            set.to_csv().lines().next(),
            Some("scheme,workload,memory,ipc,cycles,instrs,ops")
        );
        // The implicit closed process is still addressable.
        assert_eq!(set.traffics(), &[TrafficSpec::Closed]);
    }

    #[test]
    fn both_axes_explicit_order_scheduler_then_machine() {
        let set = Plan::new()
            .scheme("1S")
            .workload("idct")
            .scheduler(SchedulerSpec::Icount)
            .machine(MachineSpec::Lite4x4)
            .scale(100_000)
            .run(&Session::with_parallelism(1));
        assert_eq!(
            set.shape().csv_header(),
            "scheme,workload,scheduler,machine,memory,ipc,cycles,instrs,ops"
        );
        let csv = set.to_csv();
        assert!(
            csv.lines()
                .any(|l| l.starts_with("1S,idct,icount,4x4-lite,real,")),
            "{csv}"
        );
        let json = set.to_json();
        assert!(json.contains("\"scheduler\":\"icount\",\"machine\":\"4x4-lite\""));
        let q = CellQuery::default().scheme("1S").workload("idct");
        assert!(set
            .cell(
                &q.scheduler(SchedulerSpec::Icount)
                    .machine(MachineSpec::Lite4x4)
            )
            .is_some());
    }

    #[test]
    #[should_panic(expected = "cluster count 0")]
    fn invalid_machine_specs_fail_at_plan_build_time() {
        let _ = Plan::new().machine(MachineSpec::Custom {
            clusters: 0,
            issue: 4,
            units: None,
        });
    }

    #[test]
    fn axis_deduplicates() {
        let plan = Plan::new()
            .axis(MemoryModel::Real)
            .axis(MemoryModel::Real)
            .axis(MemoryModel::Perfect);
        assert_eq!(plan.grid.memory.values.len(), 2);
    }

    #[test]
    fn workload_ref_resolves_mixes_and_benchmarks() {
        let mix = WorkloadRef::from("LLHH");
        assert_eq!(mix.n_threads(), 4);
        assert_eq!(mix.member_names()[0], "mcf");
        let single = WorkloadRef::from("idct");
        assert_eq!(single.n_threads(), 1);
    }

    #[test]
    #[should_panic(expected = "unknown workload")]
    fn unknown_workload_panics_at_build_time() {
        let _ = WorkloadRef::from("QUAKE");
    }

    #[test]
    #[should_panic(expected = "shadows a Table-1 benchmark")]
    fn modified_spec_under_table1_name_is_rejected() {
        let mut spec = benchmark("idct").unwrap().clone();
        spec.unroll = 1; // changed knobs, unchanged name: must not alias
        let _ = WorkloadRef::from(&spec);
    }

    #[test]
    fn unmodified_table1_spec_converts_to_named_workload() {
        let wl = WorkloadRef::from(benchmark("idct").unwrap());
        assert_eq!(wl.name(), "idct");
        assert_eq!(wl.n_threads(), 1);
    }

    #[test]
    #[should_panic(expected = "more than once")]
    fn duplicate_keys_are_rejected_at_run_time() {
        let _ = Plan::new()
            .schemes(["ST", "ST"])
            .workload("idct")
            .run(&Session::with_parallelism(1));
    }

    #[test]
    #[should_panic(expected = "two different custom specs named")]
    fn conflicting_custom_specs_across_workloads_are_rejected() {
        let mut a = benchmark("idct").unwrap().clone();
        a.name = "gen".into();
        let mut b = a.clone();
        b.unroll += 1; // same name, different program
        let _ = Plan::new()
            .scheme("ST")
            .workload(WorkloadRef::custom("wa", vec![a]))
            .workload(WorkloadRef::custom("wb", vec![b]))
            .scale(100_000)
            .run(&Session::with_parallelism(1));
    }

    #[test]
    #[should_panic(expected = "shadows a Table-1 benchmark")]
    fn custom_workload_rejects_shadowed_table1_names() {
        let mut spec = benchmark("idct").unwrap().clone();
        spec.unroll = 1; // changed knobs, unchanged name: must not alias
        let _ = WorkloadRef::custom("mix", vec![spec]);
    }

    #[test]
    #[should_panic(expected = "unknown scheme")]
    fn unknown_scheme_panics_at_build_time() {
        let _ = SchemeRef::from("9ZZZ");
    }

    #[test]
    fn keyed_lookup_matches_row_major_results() {
        let session = Session::with_parallelism(2);
        let set = Plan::new()
            .schemes(["ST", "1S"])
            .workloads(["idct", "LLHH"])
            .axes([MemoryModel::Real, MemoryModel::Perfect])
            .scale(100_000)
            .run(&session);
        assert_eq!(set.len(), 8);
        for (i, (key, r)) in set.iter().enumerate() {
            let by_key = set
                .get(key.scheme.name(), key.workload.name(), key.memory)
                .unwrap();
            assert_eq!(by_key.stats.cycles, r.stats.cycles, "cell {i}");
            assert!(std::ptr::eq(by_key, &set.results()[i]), "cell {i}");
        }
        // Aggregations agree with manual recomputation.
        let mean = set.mean_ipc("1S", MemoryModel::Real).unwrap();
        let manual = (set.ipc("1S", "idct", MemoryModel::Real).unwrap()
            + set.ipc("1S", "LLHH", MemoryModel::Real).unwrap())
            / 2.0;
        assert!((mean - manual).abs() < 1e-12);
        let speedup = set.speedup("1S", "ST", MemoryModel::Real).unwrap();
        assert!(speedup > 1.0, "1S must beat ST on average");
        // Perfect memory dominates on every cell.
        for s in ["ST", "1S"] {
            for w in ["idct", "LLHH"] {
                let r = set.ipc(s, w, MemoryModel::Real).unwrap();
                let p = set.ipc(s, w, MemoryModel::Perfect).unwrap();
                assert!(p >= r * 0.95, "{s}/{w}: perfect {p:.2} vs real {r:.2}");
            }
        }
    }

    #[test]
    fn custom_workloads_with_computed_names_run() {
        // A generated spec whose name exists only at runtime: the shape the
        // old `&'static str` plumbing could not express.
        let mut spec = benchmark("idct").unwrap().clone();
        let variant = 3u32;
        spec.name = format!("idct-gen-{variant}").into();
        let wl = WorkloadRef::custom(&format!("gen-mix-{variant}"), vec![spec; 2]);
        let set = Plan::new()
            .scheme("1S")
            .workload(wl)
            .scale(100_000)
            .run(&Session::with_parallelism(1));
        let r = set.get("1S", "gen-mix-3", MemoryModel::Real).unwrap();
        assert_eq!(r.stats.threads.len(), 2);
        assert_eq!(&*r.stats.threads[0].name, "idct-gen-3");
        assert!(r.ipc() > 0.0);
    }

    #[test]
    fn json_and_csv_are_wellformed() {
        let set = Plan::new()
            .scheme("ST")
            .workload("idct")
            .scale(100_000)
            .run(&Session::with_parallelism(1));
        let json = set.to_json();
        assert!(json.starts_with("{\"scale\":100000,\"priority\":\"round-robin\",\"seed\":null,"));
        assert!(json.contains("\"scheme\":\"ST\""));
        assert!(json.ends_with("]}"));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
        let csv = set.to_csv();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next(),
            Some("scheme,workload,memory,ipc,cycles,instrs,ops")
        );
        let row = lines.next().unwrap();
        assert!(row.starts_with("ST,idct,real,"));
    }

    #[test]
    fn run_traced_maps_every_cell_in_grid_order() {
        let plan = Plan::new()
            .schemes(["ST", "1S"])
            .workload("idct")
            .axes([MemoryModel::Real, MemoryModel::Perfect])
            .scale(100_000);
        let (set, seen) = plan.run_traced(&Session::with_parallelism(2), |key, result, trace| {
            assert!(!trace.is_empty(), "every cell records events");
            assert_eq!(trace.end_cycle, result.stats.cycles);
            // Trace-derived stall decomposition matches the cell's stats.
            assert_eq!(
                vliw_trace::StallBreakdown::from_events(&trace.events),
                result.stats.stall_breakdown
            );
            (
                key.scheme.name().to_string(),
                key.memory.label().to_string(),
            )
        });
        // One value per cell, row-major (schemes outer, memory inner).
        assert_eq!(
            seen,
            vec![
                ("ST".into(), "real".into()),
                ("ST".into(), "perfect".into()),
                ("1S".into(), "real".into()),
                ("1S".into(), "perfect".into()),
            ]
        );
        // The returned set is the plain `run` result set.
        let plain = plan.run(&Session::with_parallelism(1));
        assert_eq!(
            set.get("1S", "idct", MemoryModel::Perfect)
                .unwrap()
                .stats
                .cycles,
            plain
                .get("1S", "idct", MemoryModel::Perfect)
                .unwrap()
                .stats
                .cycles
        );
    }

    #[test]
    fn trace_cell_probes_one_cell_with_bounded_memory() {
        let plan = Plan::new()
            .scheme("1S")
            .workload("LLHH")
            .scale(50_000)
            .trace(TraceSpec::Ring(256));
        let key = plan.jobs().remove(0);
        let (result, trace) = plan.trace_cell(&Session::with_parallelism(1), &key);
        assert_eq!(result.workload, "LLHH");
        assert_eq!(trace.events.len(), 256, "ring cap respected");
        assert!(trace.dropped > 0);
        assert_eq!(trace.threads.len(), 4);
    }

    #[test]
    fn json_escapes_control_and_quote_characters() {
        let mut s = String::new();
        json_string(&mut s, "a\"b\\c\nd");
        assert_eq!(s, "\"a\\\"b\\\\c\\u000ad\"");
    }

    #[test]
    fn csv_quotes_computed_names_with_delimiters() {
        assert_eq!(csv_field("LLHH"), "LLHH");
        assert_eq!(csv_field("fir,taps=4"), "\"fir,taps=4\"");
        assert_eq!(csv_field("a\"b"), "\"a\"\"b\"");
        let mut spec = benchmark("idct").unwrap().clone();
        spec.name = "gen,v1".into();
        let set = Plan::new()
            .scheme("ST")
            .workload(WorkloadRef::custom("w,1", vec![spec]))
            .scale(500_000)
            .run(&Session::with_parallelism(1));
        let row = set.to_csv().lines().nth(1).unwrap().to_string();
        assert!(row.starts_with("ST,\"w,1\",real,"), "row: {row}");
    }
}
