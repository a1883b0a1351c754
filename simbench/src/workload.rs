//! The benchmark's three workloads and the two ways their cells are driven:
//! untraced through the public sweep entry points (`Plan::run`, or
//! `runner::run_jobs` + `run_mix`), and traced cell by cell through
//! `runner::run_jobs` with a span around every public call.

use crate::spans::{Recorder, SpanId};
use std::collections::HashSet;
use std::time::Instant;
use vliw_core::catalog::by_name;
use vliw_isa::MachineConfig;
use vliw_sim::experiments::{
    self, FLEET_ARRIVALS, FLEET_LADDER, FLEET_SCHEME, TRAFFIC_LOADS, TRAFFIC_SCHEMES,
};
use vliw_sim::os::Machine;
use vliw_sim::runner::{self, ImageCache};
use vliw_sim::{
    CoreModel, FleetSpec, MemoryModel, Plan, ResultSet, RunStats, Session, SimConfig, WorkloadRef,
};
use vliw_traffic::TrafficSpec;
use vliw_workloads::{table2_mixes, WorkloadMix};

/// I$/D$ miss penalty of the `memory-bound` workload, in cycles (the
/// paper's is 20). The same slow-memory setting as the event-core ratio
/// bench, so most simulated cycles fall in idle spans.
pub const SLOW_MISS_PENALTY: u32 = 200;

/// Schemes of the `memory-bound` workload: one without a merge network and
/// one with a single SMT block over two contexts.
const MEMORY_BOUND_SCHEMES: [&str; 2] = ["ST", "1S"];

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Closed batch: the Figure-10 sweep plus the geometry sweep.
    PaperSweep,
    /// Closed batch: ST and 1S over the Table-2 mixes with slow memory.
    MemoryBound,
    /// Open loop: the Poisson traffic ladder and the fleet ladder.
    OpenFleet,
}

impl Kind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Kind; 3] = [Kind::PaperSweep, Kind::MemoryBound, Kind::OpenFleet];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperSweep => "paper-sweep",
            Kind::MemoryBound => "memory-bound",
            Kind::OpenFleet => "open-fleet",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Run-length divisor of the paper's 100M-instruction budget. Chosen
    /// so one pass over the workload takes one to two and a half seconds
    /// on two workers, which lets a 30-second run report a median of a
    /// dozen passes or more. The open workload runs below the exhibits'
    /// 5000 floor so its jobs are long against the arrival gaps.
    pub fn scale(self) -> u64 {
        match self {
            Kind::PaperSweep => 4_000,
            Kind::MemoryBound => 200,
            Kind::OpenFleet => 1_000,
        }
    }

    /// I$/D$ miss penalty the workload's cells run with, in cycles.
    pub fn miss_penalty(self) -> u32 {
        match self {
            Kind::MemoryBound => SLOW_MISS_PENALTY,
            _ => vliw_mem::CacheConfig::paper_baseline().miss_penalty,
        }
    }
}

/// One simulated cell, described completely enough to drive it by hand.
pub struct Cell {
    /// Index of the result set (plan) the cell belongs to.
    pub set: usize,
    /// Scheme name.
    pub scheme: String,
    /// The workload as `run_fleet` takes it.
    pub workload_ref: WorkloadRef,
    /// The Table-2 mix, for cells driven through `run_mix`.
    pub mix: Option<&'static WorkloadMix>,
    /// The cell's full simulation configuration.
    pub cfg: SimConfig,
    /// The fleet the cell runs on, if any.
    pub fleet: Option<FleetSpec>,
}

impl Cell {
    /// Member benchmark names in thread order.
    pub fn members(&self) -> Vec<&str> {
        self.workload_ref.member_names()
    }

    /// Whether the cell runs under an open arrival process.
    pub fn is_open(&self) -> bool {
        !self.cfg.traffic.is_closed()
    }
}

/// A workload expanded into its plans, cells and compile set.
pub struct Prepared {
    /// The plans run by the untraced pass (empty for `memory-bound`).
    pub plans: Vec<Plan>,
    /// Every cell, in the order the untraced pass returns them.
    pub cells: Vec<Cell>,
    /// Every distinct `(benchmark, machine)` image the cells need.
    pub images: Vec<(String, MachineConfig)>,
    /// Per cell, the `(cache_hits, cache_misses)` that `Plan::run`
    /// attributes to it: a member's `(benchmark, machine)` key is a miss on
    /// its first appearance in the plan and a hit after.
    pub attribution: Vec<(u64, u64)>,
}

/// The simulation configuration `Plan::run` gives one of its cells.
fn plan_cell_config(key: &vliw_sim::plan::JobKey, scale: u64, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::paper(key.scheme.scheme().clone(), scale)
        .with_machine(key.machine)
        .with_traffic(key.traffic)
        .with_scheduler(key.scheduler);
    cfg.seed = seed;
    if key.memory == MemoryModel::Perfect {
        cfg = cfg.with_perfect_memory();
    }
    cfg
}

fn parse_traffic(s: &str) -> TrafficSpec {
    s.parse()
        .expect("experiment ladder spellings are canonical")
}

/// The workload's plans at its scale, seeded with `seed`.
fn plans(kind: Kind, seed: u64) -> Vec<Plan> {
    let scale = kind.scale();
    match kind {
        Kind::PaperSweep => vec![
            experiments::fig10_plan(scale).seed(seed),
            experiments::geometry_plan(scale).seed(seed),
        ],
        Kind::MemoryBound => Vec::new(),
        Kind::OpenFleet => vec![
            Plan::new()
                .schemes(TRAFFIC_SCHEMES)
                .workload(experiments::traffic_workload())
                .arrivals(TRAFFIC_LOADS.iter().map(|s| parse_traffic(s)))
                .scale(scale)
                .seed(seed),
            Plan::new()
                .scheme(FLEET_SCHEME)
                .workload(experiments::traffic_workload())
                .fleets(
                    FLEET_LADDER
                        .iter()
                        .map(|s| s.parse().expect("fleet ladder spellings are canonical")),
                )
                .arrival(parse_traffic(FLEET_ARRIVALS))
                .scale(scale)
                .seed(seed),
        ],
    }
}

/// Expand a workload for `seed`: build its plans and cells and list the
/// images they need.
pub fn prepare(kind: Kind, seed: u64) -> Prepared {
    let plans = plans(kind, seed);
    let mut cells = Vec::new();
    for (set, plan) in plans.iter().enumerate() {
        for key in plan.jobs() {
            cells.push(Cell {
                set,
                scheme: key.scheme.name().to_string(),
                cfg: plan_cell_config(&key, kind.scale(), seed),
                workload_ref: key.workload,
                mix: None,
                fleet: key.fleet,
            });
        }
    }
    if kind == Kind::MemoryBound {
        for scheme in MEMORY_BOUND_SCHEMES {
            for mix in table2_mixes() {
                let mut cfg =
                    SimConfig::paper(by_name(scheme).expect("catalog scheme names"), kind.scale());
                cfg.seed = seed;
                cfg.mem.icache.miss_penalty = SLOW_MISS_PENALTY;
                cfg.mem.dcache.miss_penalty = SLOW_MISS_PENALTY;
                cells.push(Cell {
                    set: 0,
                    scheme: scheme.to_string(),
                    workload_ref: WorkloadRef::from(mix),
                    mix: Some(mix),
                    cfg,
                    fleet: None,
                });
            }
        }
    }
    let mut seen = HashSet::new();
    let mut images = Vec::new();
    let mut attribution = Vec::with_capacity(cells.len());
    let mut plan_seen: HashSet<(usize, String, MachineConfig)> = HashSet::new();
    for cell in &cells {
        let mut machines = vec![cell.cfg.machine.clone()];
        if let Some(fleet) = &cell.fleet {
            machines.extend(fleet.machines().into_iter().map(|m| m.config()));
        }
        for name in cell.members() {
            for machine in &machines {
                if seen.insert((name.to_string(), machine.clone())) {
                    images.push((name.to_string(), machine.clone()));
                }
            }
        }
        let (mut hits, mut misses) = (0, 0);
        if cell.mix.is_none() {
            for name in cell.members() {
                if plan_seen.insert((cell.set, name.to_string(), cell.cfg.machine.clone())) {
                    misses += 1;
                } else {
                    hits += 1;
                }
            }
        }
        attribution.push((hits, misses));
    }
    Prepared {
        plans,
        cells,
        images,
        attribution,
    }
}

/// Compile every image the workload needs into `cache`, one at a time.
pub fn compile_all(p: &Prepared, cache: &ImageCache) -> Result<(), String> {
    for (name, machine) in &p.images {
        cache
            .get(name, machine)
            .map_err(|e| format!("compiling {name}: {e}"))?;
    }
    Ok(())
}

/// What one cell execution returned.
pub type CellResult = Result<RunStats, String>;

/// One untraced pass over the workload.
pub struct Pass {
    /// Host seconds from the first cell's start to the last cell's end.
    pub wall_s: f64,
    /// Per cell, in [`Prepared::cells`] order.
    pub results: Vec<CellResult>,
    /// The plans' result sets (empty for `memory-bound`).
    pub sets: Vec<ResultSet>,
    /// Image-cache lookups the pass made.
    pub cache_requests: u64,
    /// Images the pass had to compile (0 after a complete set-up).
    pub cache_builds: u64,
}

/// Run the workload once through its public sweep entry points.
pub fn run_untraced(p: &Prepared, session: &Session) -> Pass {
    let cache = session.cache();
    let (requests, built) = (cache.requests(), cache.len());
    let start = Instant::now();
    let (sets, mixed) = if p.plans.is_empty() {
        let jobs: Vec<&Cell> = p.cells.iter().collect();
        let mixed = runner::run_jobs(
            jobs,
            |c| {
                let mix = c.mix.expect("memory-bound cells carry their mix");
                runner::run_mix(cache, &c.cfg, mix)
            },
            session.parallelism(),
        );
        (Vec::new(), mixed)
    } else {
        let sets: Vec<ResultSet> = p.plans.iter().map(|plan| plan.run(session)).collect();
        (sets, Vec::new())
    };
    let wall_s = start.elapsed().as_secs_f64();
    let results = if sets.is_empty() {
        mixed
            .into_iter()
            .map(|r| r.map(|r| r.stats).map_err(|e| e.to_string()))
            .collect()
    } else {
        sets.iter()
            .flat_map(|s| s.results().iter().map(|r| Ok(r.stats.clone())))
            .collect()
    };
    Pass {
        wall_s,
        results,
        sets,
        cache_requests: cache.requests() - requests,
        cache_builds: (cache.len() - built) as u64,
    }
}

/// Drive one cell by hand through the public layer calls, the way
/// `Plan::run` and `run_mix` do, with a span around each call. The
/// `(cache_hits, cache_misses)` attribution of `Plan::run` is applied by
/// the caller.
fn drive_cell(
    p: &Prepared,
    index: usize,
    cache: &ImageCache,
    model: CoreModel,
    rec: &Recorder,
    parent: Option<SpanId>,
) -> CellResult {
    let cell = &p.cells[index];
    let cfg = cell.cfg.clone().with_core_model(model);
    rec.cell_span(index, parent, |id| {
        let names = cell.members();
        rec.span("runner.image", Some(id), |_| {
            names
                .iter()
                .try_for_each(|n| cache.get(n, &cfg.machine).map(drop))
                .map_err(|e| e.to_string())
        })?;
        if let Some(fleet) = &cell.fleet {
            return Ok(rec.span("fleet.run_fleet", Some(id), |_| {
                vliw_sim::run_fleet(cache, &cfg, fleet, &cell.workload_ref, 1)
            }));
        }
        let threads = rec
            .span("runner.make_threads", Some(id), |_| {
                runner::make_threads(cache, &cfg, &names)
            })
            .map_err(|e| e.to_string())?;
        let machine = rec
            .span("os.machine_new", Some(id), |_| Machine::new(&cfg, threads))
            .map_err(|e| e.to_string())?;
        Ok(rec.span("os.run", Some(id), |_| machine.run()))
    })
}

/// Drive every cell by hand, one result set after the other on the
/// session's workers, as the untraced pass runs its plans.
pub fn drive_all(
    p: &Prepared,
    session: &Session,
    rec: &Recorder,
    parent: Option<SpanId>,
) -> Vec<CellResult> {
    let sets = p.cells.iter().map(|c| c.set).max().map_or(0, |m| m + 1);
    (0..sets)
        .flat_map(|set| {
            let indices: Vec<usize> = (0..p.cells.len())
                .filter(|&i| p.cells[i].set == set)
                .collect();
            drive_cells(p, session, &indices, CoreModel::EventDriven, rec, parent)
        })
        .collect()
}

/// Drive the cells at `indices` with `model` on the session's workers,
/// applying `Plan::run`'s cache attribution so the results compare
/// field for field with the untraced pass.
pub fn drive_cells(
    p: &Prepared,
    session: &Session,
    indices: &[usize],
    model: CoreModel,
    rec: &Recorder,
    parent: Option<SpanId>,
) -> Vec<CellResult> {
    let cache = session.cache();
    runner::run_jobs(
        indices.to_vec(),
        |&i| {
            let mut r = drive_cell(p, i, cache, model, rec, parent);
            if let Ok(stats) = &mut r {
                (stats.cache_hits, stats.cache_misses) = p.attribution[i];
            }
            r
        },
        session.parallelism(),
    )
}
