//! Per-layer numbers: host-time replays of single layers' public calls on
//! the workload's own inputs, and ratios of the deterministic counts in
//! `RunStats`.

use crate::workload::Prepared;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::hint::black_box;
use std::time::Instant;
use vliw_core::catalog::by_name;
use vliw_core::{MergeEvaluator, PortInput};
use vliw_isa::signature::InstrSignature;
use vliw_mem::Cache;
use vliw_sim::runner::{make_threads, ImageCache};
use vliw_sim::{Core, RunStats, SimConfig};
use vliw_traffic::{ArrivalProcess, TrafficSpec};

/// Schemes whose merge-evaluation cost is reported by name.
pub const MERGE_SCHEMES: [&str; 4] = ["1S", "3CCC", "2SC3", "3SSS"];
/// Schemes whose per-cycle core step cost is reported by name.
pub const STEP_SCHEMES: [&str; 4] = ["ST", "1S", "2SC3", "3SSS"];

/// Repetitions of every replay; the median is kept.
const REPLAY_REPS: usize = 5;
const MERGE_EVALS: usize = 40_000;
const CORE_STEPS: usize = 20_000;
const CACHE_ACCESSES: usize = 200_000;
const ARRIVALS: usize = 200_000;

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Median over [`REPLAY_REPS`] runs of `f`, in ns per operation; `f` does
/// `ops` operations.
fn ns_per_op(ops: usize, mut f: impl FnMut()) -> f64 {
    median(
        (0..REPLAY_REPS)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_nanos() as f64 / ops as f64
            })
            .collect(),
    )
}

/// Host cost of single layers, replayed outside the simulation loop.
pub struct Replays {
    /// ns per `MergeEvaluator::evaluate`, by scheme.
    pub merge_eval_ns: BTreeMap<String, f64>,
    /// ns per `Core::step` with the workload's first mix installed, by
    /// scheme.
    pub step_ns: BTreeMap<String, f64>,
    /// ns per `Cache::access` that hits.
    pub cache_hit_ns: f64,
    /// ns per `Cache::access` that misses.
    pub cache_miss_ns: f64,
    /// ns per arrival drawn from the workload's open arrival processes.
    pub arrival_ns: Option<f64>,
}

/// The schemes the workload runs plus the ones reported by name.
fn schemes_of(p: &Prepared) -> BTreeSet<String> {
    let mut out: BTreeSet<String> = p.cells.iter().map(|c| c.scheme.clone()).collect();
    out.extend(
        MERGE_SCHEMES
            .iter()
            .chain(&STEP_SCHEMES)
            .map(|s| s.to_string()),
    );
    out
}

/// Head signatures of every instruction in the workload's images for the
/// reference machine.
fn signatures(p: &Prepared, cache: &ImageCache, cfg: &SimConfig) -> Vec<InstrSignature> {
    let mut sigs = Vec::new();
    for (name, machine) in &p.images {
        if *machine != cfg.machine {
            continue;
        }
        let image = cache
            .get(name, machine)
            .expect("set-up compiled every image");
        for block in image.1.blocks.iter() {
            sigs.extend(block.instrs.iter().map(|i| i.sig));
        }
    }
    sigs
}

/// Replay the merge network, the core step, the caches and the arrival
/// processes on the workload's inputs.
pub fn replay(p: &Prepared, cache: &ImageCache, seed: u64) -> Result<Replays, String> {
    let base = &p.cells[0].cfg;
    let sigs = signatures(p, cache, base);
    if sigs.is_empty() {
        return Err("the workload's images hold no instructions".to_string());
    }
    let evaluator = MergeEvaluator::new(&base.machine);
    let mut merge_eval_ns = BTreeMap::new();
    let mut step_ns = BTreeMap::new();
    let members = p.cells[0].members();
    for name in schemes_of(p) {
        let scheme = by_name(&name).ok_or_else(|| format!("unknown scheme {name}"))?;
        let compiled = scheme.compile();
        let ports = usize::from(compiled.n_ports());
        // Inputs walk the signature list with a stride coprime to most
        // lengths, so neighbouring evaluations see different heads.
        let inputs: Vec<PortInput> = (0..MERGE_EVALS * ports)
            .map(|k| PortInput::ready(sigs[(k * 7919) % sigs.len()]))
            .collect();
        merge_eval_ns.insert(
            name.clone(),
            ns_per_op(MERGE_EVALS, || {
                for chunk in inputs.chunks_exact(ports) {
                    black_box(evaluator.evaluate(&compiled, black_box(chunk)));
                }
            }),
        );

        let mut cfg = base.clone();
        cfg.scheme = scheme;
        let names: Vec<&str> = members.iter().copied().cycle().take(ports).collect();
        let ns = median(
            (0..REPLAY_REPS)
                .map(|_| {
                    let mut core = Core::new(&cfg);
                    let threads = make_threads(cache, &cfg, &names).expect("images are cached");
                    for (ctx, t) in threads.into_iter().enumerate() {
                        core.install(ctx, t);
                    }
                    let t = Instant::now();
                    for _ in 0..CORE_STEPS {
                        black_box(core.step());
                    }
                    t.elapsed().as_nanos() as f64 / CORE_STEPS as f64
                })
                .collect(),
        );
        step_ns.insert(name, ns);
    }

    let dcfg = base.mem.dcache;
    let hot_lines = (dcfg.size_bytes / dcfg.line_bytes / 4).max(1) as u64;
    let mut cache_hit = Cache::new(dcfg);
    let cache_hit_ns = ns_per_op(CACHE_ACCESSES, || {
        for k in 0..CACHE_ACCESSES as u64 {
            black_box(cache_hit.access(
                black_box((k % hot_lines) * u64::from(dcfg.line_bytes)),
                false,
                0,
            ));
        }
    });
    let mut cache_miss = Cache::new(dcfg);
    let mut next = 0u64;
    let cache_miss_ns = ns_per_op(CACHE_ACCESSES, || {
        for _ in 0..CACHE_ACCESSES {
            // A fresh line every access: every lookup misses and evicts.
            next += u64::from(dcfg.line_bytes);
            black_box(cache_miss.access(black_box(next), false, 0));
        }
    });

    let open: HashSet<TrafficSpec> = p
        .cells
        .iter()
        .filter(|c| c.is_open())
        .map(|c| c.cfg.traffic)
        .collect();
    let arrival_ns = (!open.is_empty()).then(|| {
        median(
            open.into_iter()
                .map(|spec| {
                    ns_per_op(ARRIVALS, || {
                        black_box(ArrivalProcess::new(spec, seed).take(ARRIVALS).last());
                    })
                })
                .collect(),
        )
    });

    Ok(Replays {
        merge_eval_ns,
        step_ns,
        cache_hit_ns,
        cache_miss_ns,
        arrival_ns,
    })
}

/// Cycles in which at least one thread issued.
pub fn issue_cycles(s: &RunStats) -> u64 {
    s.cycles.saturating_sub(s.vertical_waste_cycles)
}

/// Deterministic per-workload sums of the `RunStats` counters.
#[derive(Default)]
pub struct Counts {
    /// Σ `RunStats::cycles`.
    pub cycles: u64,
    /// Σ instructions retired.
    pub instrs: u64,
    /// Σ cycles in which something issued.
    pub issue_cycles: u64,
    /// Σ merge-block conflict checks.
    pub merge_attempts: u64,
    /// Σ merge-block conflict checks that passed.
    pub merge_successes: u64,
    /// Σ I$ accesses and misses.
    pub icache: (u64, u64),
    /// Σ D$ accesses and misses.
    pub dcache: (u64, u64),
    /// Σ cycles inside idle spans.
    pub idle_cycles: u64,
    /// Σ OS event-queue pushes and pops.
    pub queue_ops: u64,
    /// Σ OS context switches.
    pub context_switches: u64,
    /// Σ jobs offered under open arrivals.
    pub offered: u64,
    /// Σ jobs shed.
    pub shed: u64,
    /// Σ mean admission-queue depth over the open cells, and their count.
    pub queue_depth: (f64, u64),
    /// Σ cycles of every fleet lane.
    pub lane_cycles: u64,
}

impl Counts {
    /// Sum the counters of `stats`.
    pub fn of<'a>(stats: impl IntoIterator<Item = &'a RunStats>) -> Counts {
        let mut c = Counts::default();
        for s in stats {
            c.cycles += s.cycles;
            c.instrs += s.total_instrs;
            c.issue_cycles += issue_cycles(s);
            c.merge_attempts += s.merge.attempts().iter().sum::<u64>();
            c.merge_successes += s.merge.successes().iter().sum::<u64>();
            c.icache.0 += s.icache.total_accesses();
            c.icache.1 += s.icache.total_misses();
            c.dcache.0 += s.dcache.total_accesses();
            c.dcache.1 += s.dcache.total_misses();
            c.idle_cycles += s.engine.idle_span_cycles;
            c.queue_ops += s.engine.queue_pushes + s.engine.queue_pops;
            c.context_switches += s.context_switches;
            if s.traffic.offered > 0 {
                c.offered += s.traffic.offered;
                c.shed += s.traffic.shed;
                c.queue_depth.0 += s.traffic.mean_queue_depth;
                c.queue_depth.1 += 1;
            }
            if let Some(f) = &s.fleet {
                c.lane_cycles += f.machines.iter().map(|m| m.cycles).sum::<u64>();
            }
        }
        c
    }
}

/// `num / den`, or 0 when there is nothing to divide.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Replay estimate of one cell's time inside `os.run`, split into merge
/// evaluation, cache accesses and the rest of the core step, in ns.
pub fn os_run_split(r: &Replays, scheme: &str, s: &RunStats) -> [f64; 3] {
    let issue = issue_cycles(s) as f64;
    let merge = r.merge_eval_ns[scheme] * issue;
    let (acc, miss) = (
        s.icache.total_accesses() + s.dcache.total_accesses(),
        s.icache.total_misses() + s.dcache.total_misses(),
    );
    let mem = r.cache_hit_ns * (acc - miss) as f64 + r.cache_miss_ns * miss as f64;
    let core = (r.step_ns[scheme] * issue - merge - mem).max(0.0);
    [merge, mem, core]
}
