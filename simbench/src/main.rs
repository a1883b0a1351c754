//! End-to-end and per-layer benchmark of the simulator.
//!
//! ```text
//! cargo run --release --manifest-path simbench/Cargo.toml -- \
//!     --workload paper-sweep --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` the workload's plans run untraced, pass after pass, for
//! `--seconds` seconds, and the last line of standard output carries the
//! end-to-end metrics. With `--trace 1` every untraced pass is followed by a
//! traced one that drives every cell by hand with a span around each public
//! call; the last line carries the per-layer metrics. Both modes check every
//! result (see `checks`) and write a full report under `.simbench/`.

mod checks;
mod hostspeed;
mod layers;
mod report;
mod spans;
mod workload;

use checks::Ledger;
use hostspeed::Reference;
use layers::{ratio, Counts};
use report::{Values, END_TO_END, END_TO_END_EXTRA, PER_LAYER, PER_LAYER_EXTRA};
use spans::Recorder;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use vliw_sim::{experiments, CoreModel, ResultSet, Session};
use workload::{CellResult, Kind, Pass, Prepared};

const USAGE: &str = "usage: simbench --workload <paper-sweep|memory-bound|open-fleet> \
                     --seed <u64> --seconds <1..=600> --trace <0|1>";

/// Set-ups after every timed pass; the median over the run is reported.
const SETUP_REPS: usize = 3;
/// Fewest timed passes in a run, however long they take.
const MIN_PASSES: usize = 3;
/// Worker threads, at most.
const MAX_WORKERS: usize = 2;
/// Cells per run re-simulated under the cycle-accurate core.
const EQUIVALENCE_SAMPLE: usize = 3;
/// Where reports, spans and digests are written, relative to the checkout.
const OUT_DIR: &str = ".simbench";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or(format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("simbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Deterministic distinct sample of `k` indices below `n`.
fn sample(seed: u64, n: usize, k: usize) -> Vec<usize> {
    let mut state = seed ^ 0x5eed_5a3b_1e00_0001;
    let mut out = Vec::new();
    while out.len() < k.min(n) {
        // splitmix64
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        let i = ((z ^ (z >> 31)) % n as u64) as usize;
        if !out.contains(&i) {
            out.push(i);
        }
    }
    out
}

/// The export of a pass: the result sets' JSON and CSV, or for the
/// plan-less workload the canonical cell renderings.
fn export(pass: &Pass) -> String {
    if pass.sets.is_empty() {
        pass.results
            .iter()
            .map(|r| {
                r.as_ref()
                    .map_or_else(|e| format!("error: {e}"), checks::canonical)
            })
            .collect::<Vec<_>>()
            .join("\n")
    } else {
        pass.sets
            .iter()
            .map(|s| s.to_json() + &s.to_csv())
            .collect()
    }
}

/// Mean absolute gap, in percentage points, between the measured §5.2
/// headline and the paper's, with the per-comparison rows. Same
/// computation as the `headline` exhibit.
fn paper_gap(fig10: &ResultSet) -> (f64, Vec<(&'static str, f64, f64)>) {
    let d = experiments::fig10_data(fig10);
    let avg = |n: &str| d.average_of(n).unwrap_or(0.0);
    let rows: Vec<_> = [("3CCC", 14.0), ("1S", 45.0), ("3SSS", -11.0)]
        .into_iter()
        .map(|(base, paper)| (base, (avg("2SC3") / avg(base) - 1.0) * 100.0, paper))
        .collect();
    let gap = rows
        .iter()
        .map(|(_, got, want)| (got - want).abs())
        .sum::<f64>()
        / 3.0;
    (gap, rows)
}

/// Identity of the running executable, so digests recorded by one build
/// are only compared with runs of the same build.
fn build_id() -> u64 {
    let meta = std::env::current_exe().and_then(std::fs::metadata);
    let stamp = meta
        .as_ref()
        .ok()
        .and_then(|m| m.modified().ok())
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_nanos());
    let len = meta.map_or(0, |m| m.len());
    checks::digest(format!("{stamp}:{len}").as_bytes())
}

/// The export digest an earlier run of this build recorded for the same
/// workload and seed, recording `digest` when there is none yet.
fn recorded_digest(args: &Args, digest: u64) -> Result<u64, String> {
    let path = format!(
        "{OUT_DIR}/digest-{}-seed{}-build{:016x}.txt",
        args.kind.name(),
        args.seed,
        build_id()
    );
    match std::fs::read_to_string(&path) {
        Ok(s) => u64::from_str_radix(s.trim(), 16).map_err(|e| format!("{path}: {e}")),
        Err(_) => {
            std::fs::write(&path, format!("{digest:016x}\n"))
                .map_err(|e| format!("{path}: {e}"))?;
            Ok(digest)
        }
    }
}

struct Setup {
    prepared: Prepared,
    session: Session,
    /// Seconds per set-up (build the plans, open a session, compile),
    /// scaled to the reference host speed. Only the set-ups made between
    /// kernel timings, not the first one.
    setup_s: Vec<f64>,
    /// Host seconds per set-up spent compiling.
    compile_s: Vec<f64>,
}

impl Setup {
    /// Build the plans and compile every image into a fresh session.
    fn new(args: &Args, workers: usize) -> Result<Setup, String> {
        let prepared = workload::prepare(args.kind, args.seed);
        let session = Session::with_parallelism(workers);
        let compile_start = Instant::now();
        workload::compile_all(&prepared, session.cache())?;
        Ok(Setup {
            prepared,
            session,
            compile_s: vec![compile_start.elapsed().as_secs_f64()],
            setup_s: Vec::new(),
        })
    }

    /// Set up [`SETUP_REPS`] more times from scratch, keeping the session
    /// in use. Called between timed passes, so the set-up samples span the
    /// same stretch of the run as the passes. Returns the host seconds of
    /// each set-up.
    fn sample(&mut self, args: &Args) -> Result<Vec<f64>, String> {
        let mut times = Vec::with_capacity(SETUP_REPS);
        for _ in 0..SETUP_REPS {
            let start = Instant::now();
            let again = Setup::new(args, self.session.parallelism())?;
            times.push(start.elapsed().as_secs_f64());
            self.compile_s.extend(again.compile_s);
        }
        Ok(times)
    }
}

/// The timed passes of a run: their walls, raw and scaled to the reference
/// host speed, the first pass with its canonical cell renderings, and the
/// image-cache lookups they made.
struct Untraced {
    walls: Vec<f64>,
    scaled_walls: Vec<f64>,
    /// Per pass, the host-speed scale factor.
    factors: Vec<f64>,
    first: Pass,
    reference: Vec<String>,
    digest: u64,
    cache_requests: u64,
    cache_builds: u64,
}

/// The traced passes of a `--trace 1` run: spans and walls.
struct Traced {
    rec: Recorder,
    walls: Vec<f64>,
}

/// Untraced passes until `budget` has elapsed (at least [`MIN_PASSES`]),
/// each checked against the first, with set-up samples between them. Every
/// pass and every batch of set-ups lies between two timings of the
/// reference kernel, which scale its time to the reference host speed.
/// With `traced`, every untraced pass is followed by a traced one, so both
/// see the same stretch of host speed.
fn run_passes(
    args: &Args,
    s: &mut Setup,
    budget: Duration,
    ledger: &mut Ledger,
    mut traced: Option<&mut Traced>,
) -> Result<Untraced, String> {
    let start = Instant::now();
    let host = Reference::new(s.session.parallelism());
    let (mut walls, mut scaled_walls, mut factors) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<(Pass, Vec<String>, u64)> = None;
    let (mut cache_requests, mut cache_builds) = (0, 0);
    let mut before = host.measure();
    while walls.len() < MIN_PASSES || start.elapsed() < budget {
        let pass = workload::run_untraced(&s.prepared, &s.session);
        let after = host.measure();
        let factor = hostspeed::factor(before, after);
        walls.push(pass.wall_s);
        scaled_walls.push(pass.wall_s * factor);
        factors.push(factor);
        let setups = s.sample(args)?;
        let next = host.measure();
        let factor = hostspeed::factor(after, next);
        s.setup_s.extend(setups.into_iter().map(|t| t * factor));
        before = next;
        cache_requests += pass.cache_requests;
        cache_builds += pass.cache_builds;
        let digest = checks::digest(export(&pass).as_bytes());
        let indexed: Vec<(usize, &CellResult)> = pass.results.iter().enumerate().collect();
        let label = format!("pass {}", walls.len());
        let (first_pass, reference, expected) = match first.take() {
            Some((f, reference, expected)) => {
                ledger.check(&label, &indexed, &reference, Some((digest, expected)));
                (f, reference, expected)
            }
            None => {
                let reference: Vec<String> = pass
                    .results
                    .iter()
                    .map(|r| {
                        r.as_ref()
                            .map_or_else(|e| format!("error: {e}"), checks::canonical)
                    })
                    .collect();
                let expected = recorded_digest(args, digest)?;
                ledger.check(&label, &indexed, &reference, Some((digest, expected)));
                drop(indexed);
                (pass, reference, expected)
            }
        };
        if let Some(t) = traced.as_deref_mut() {
            let clock = Instant::now();
            let results = t.rec.span("bench.pass", None, |id| {
                workload::drive_all(&s.prepared, &s.session, &t.rec, Some(id))
            });
            t.walls.push(clock.elapsed().as_secs_f64());
            let indexed: Vec<(usize, &CellResult)> = results.iter().enumerate().collect();
            let label = format!("traced pass {}", t.walls.len());
            ledger.check(&label, &indexed, &reference, None);
            // Timed on its own, like the export a `paper` run writes after
            // its sweep.
            t.rec.span("plan.export", None, |_| {
                std::hint::black_box(export(&first_pass))
            });
            before = host.measure();
        }
        first = Some((first_pass, reference, expected));
    }
    let (first, reference, digest) = first.expect("at least one pass");
    Ok(Untraced {
        walls,
        scaled_walls,
        factors,
        first,
        reference,
        digest,
        cache_requests,
        cache_builds,
    })
}

/// Re-simulate a sample of cells under the cycle-accurate core; they must
/// match the event-driven results exactly.
fn check_equivalence(args: &Args, s: &Setup, u: &Untraced, ledger: &mut Ledger) {
    let idx = sample(args.seed, s.prepared.cells.len(), EQUIVALENCE_SAMPLE);
    let results = workload::drive_cells(
        &s.prepared,
        &s.session,
        &idx,
        CoreModel::CycleAccurate,
        &Recorder::disabled(),
        None,
    );
    let indexed: Vec<(usize, &CellResult)> = idx.iter().copied().zip(&results).collect();
    ledger.check("cycle-accurate sample", &indexed, &u.reference, None);
}

fn run(args: &Args) -> Result<String, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = nproc.min(MAX_WORKERS);
    let kind = args.kind;
    println!(
        "simbench {} seed={} trace={}",
        kind.name(),
        args.seed,
        u8::from(args.trace)
    );

    let mut s = Setup::new(args, workers)?;
    let cells = s.prepared.cells.len();
    let provenance = [
        ("git_describe", report::quote(&report::git_describe())),
        ("rustc", report::quote(report::rustc_version())),
        ("nproc", nproc.to_string()),
        ("workers", workers.to_string()),
        ("scale", kind.scale().to_string()),
        ("seed", args.seed.to_string()),
        ("miss_penalty_cycles", kind.miss_penalty().to_string()),
        ("cells", cells.to_string()),
        ("images", s.prepared.images.len().to_string()),
        ("core_model", report::quote(CoreModel::default().name())),
        (
            "modelled_caches",
            report::quote("start empty in every cell"),
        ),
        ("run_seconds", args.seconds.to_string()),
    ];
    println!(
        "provenance: {}",
        provenance
            .iter()
            .map(|(k, v)| format!("{k}={}", v.trim_matches('"')))
            .collect::<Vec<_>>()
            .join(" ")
    );

    let mut ledger = Ledger::default();
    let mut traced_passes = args.trace.then(|| Traced {
        rec: Recorder::new(),
        walls: Vec::new(),
    });
    let budget = Duration::from_secs(args.seconds);
    let u = run_passes(args, &mut s, budget, &mut ledger, traced_passes.as_mut())?;
    check_equivalence(args, &s, &u, &mut ledger);

    let ok_stats: Vec<&vliw_sim::RunStats> = u
        .first
        .results
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .collect();
    let counts = Counts::of(ok_stats.iter().copied());
    let wall_s = median(u.scaled_walls.clone());
    let per_worker = wall_s * workers as f64;

    let mut values = Values::default();
    values.set("wall_s", wall_s);
    values.set("setup_s", median(s.setup_s.clone()));
    values.set("sim_mcycles_per_s", counts.cycles as f64 / per_worker / 1e6);
    values.set("sim_mips", counts.instrs as f64 / per_worker / 1e6);
    let mut headline = Vec::new();
    if kind == Kind::PaperSweep {
        let (gap, rows) = paper_gap(&u.first.sets[0]);
        values.set("paper_gap_pp", gap);
        headline = rows;
    }

    let mut self_time = Vec::new();
    if let Some(t) = traced_passes {
        self_time = per_layer(args, &s, &u, t, &counts, workers, &mut values)?;
    }
    values.set("peak_rss_mb", report::peak_rss_mb()?);
    values.set("failed_frac", ledger.failed_frac());

    // Human-readable summary.
    let sorted = {
        let mut w = u.scaled_walls.clone();
        w.sort_by(f64::total_cmp);
        w
    };
    println!(
        "timed passes: n={} wall_s min={:.4} median={:.4} max={:.4} (no percentile above the \
         median has ten samples beyond it)",
        sorted.len(),
        sorted[0],
        wall_s,
        sorted[sorted.len() - 1]
    );
    println!(
        "host speed: raw wall-clock median {:.4} s; scale factor to the reference host \
         median {:.4} (reference kernel {} s at nominal speed)",
        median(u.walls.clone()),
        median(u.factors.clone()),
        hostspeed::NOMINAL_S
    );
    println!(
        "simulated work per pass: {} cycles, {} instructions, export digest {:016x} \
         (deterministic)",
        counts.cycles, counts.instrs, u.digest
    );
    println!(
        "end-to-end (tracing off; host time is wall-clock scaled to the reference host speed, \
         simulated time in cycles):"
    );
    for d in END_TO_END.iter().chain(&END_TO_END_EXTRA) {
        if let Some(v) = values.get(d.name) {
            println!("  {:<24} {:>14.6} {}", d.name, v, d.unit);
        }
    }
    for (base, got, want) in &headline {
        println!("    2SC3 vs {base:<5} measured {got:+.2}%  paper {want:+.0}%");
    }
    if headline.is_empty() {
        println!("  paper_gap_pp: only on paper-sweep, whose Fig-10 sweep gives the §5.2 headline");
    }
    println!(
        "checks: {} of {} cell executions failed{}",
        ledger.failed,
        ledger.attempted,
        if ledger.problems.is_empty() {
            String::new()
        } else {
            format!(": {}", ledger.problems.join("; "))
        }
    );
    if args.trace {
        print_tables(&values, &self_time);
    }

    let report_path = format!(
        "{OUT_DIR}/report-{}-seed{}-trace{}.json",
        kind.name(),
        args.seed,
        u8::from(args.trace)
    );
    let report = format!(
        "{{\"workload\": {}, \"provenance\": {{{}}}, \"timed_pass_walls_s\": {:?}, \
         \"host_speed_factors\": {:?}, \"export_digest\": \"{:016x}\", \"simulated_cycles\": {}, \
         \"checks\": {{\"attempted\": {}, \"failed\": {}, \"problems\": [{}]}}, \
         \"metrics\": {}, \"self_time_s\": {{{}}}}}\n",
        report::quote(kind.name()),
        provenance
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect::<Vec<_>>()
            .join(", "),
        u.walls,
        u.factors,
        u.digest,
        counts.cycles,
        ledger.attempted,
        ledger.failed,
        ledger
            .problems
            .iter()
            .map(|p| report::quote(p))
            .collect::<Vec<_>>()
            .join(", "),
        report::all_values_json(&values)?,
        self_time
            .iter()
            .map(|(n, v)| format!("\"{n}\": {v:?}"))
            .collect::<Vec<_>>()
            .join(", "),
    );
    std::fs::write(&report_path, report).map_err(|e| format!("{report_path}: {e}"))?;
    println!("report: {report_path}");

    let defs: &[report::MetricDef] = if args.trace { &PER_LAYER } else { &END_TO_END };
    Ok(report::result_line(
        ledger.failed == 0,
        ledger.attempted,
        ledger.failed,
        &report::metrics_json(defs, &values)?,
    ))
}

/// Per-layer metrics from the traced passes, the run's counts and the
/// single-layer replays. Returns the self-time table, in seconds per
/// traced pass.
fn per_layer(
    args: &Args,
    s: &Setup,
    u: &Untraced,
    t: Traced,
    counts: &Counts,
    workers: usize,
    values: &mut Values,
) -> Result<Vec<(String, f64)>, String> {
    let p = &s.prepared;
    let walls = t.walls;
    let passes = walls.len() as f64;
    let spans = t.rec.take();
    let path = format!(
        "{OUT_DIR}/spans-{}-seed{}.jsonl",
        args.kind.name(),
        args.seed
    );
    std::fs::write(&path, spans::to_jsonl(&spans)).map_err(|e| format!("{path}: {e}"))?;
    println!("spans: {path} ({} spans)", spans.len());

    let replays = layers::replay(p, s.session.cache(), args.seed)?;
    let stats: Vec<Option<&vliw_sim::RunStats>> =
        u.first.results.iter().map(|r| r.as_ref().ok()).collect();

    values.set("compiler.images", p.images.len() as f64);
    values.set(
        "compiler.build_ms_per_image",
        median(s.compile_s.clone()) * 1e3 / p.images.len().max(1) as f64,
    );
    for name in layers::MERGE_SCHEMES {
        values.set(
            &format!("core.merge_eval_ns.{name}"),
            replays.merge_eval_ns[name],
        );
    }
    values.set(
        "core.merge_attempts_per_kcycle",
        ratio(counts.merge_attempts as f64 * 1e3, counts.cycles as f64),
    );
    values.set(
        "core.merge_accept_ratio",
        ratio(counts.merge_successes as f64, counts.merge_attempts as f64),
    );
    values.set("mem.cache_hit_ns", replays.cache_hit_ns);
    values.set("mem.cache_miss_ns", replays.cache_miss_ns);
    values.set(
        "mem.icache_miss_ratio",
        ratio(counts.icache.1 as f64, counts.icache.0 as f64),
    );
    values.set(
        "mem.dcache_miss_ratio",
        ratio(counts.dcache.1 as f64, counts.dcache.0 as f64),
    );
    for name in layers::STEP_SCHEMES {
        values.set(&format!("sim.core.step_ns.{name}"), replays.step_ns[name]);
    }
    values.set(
        "sim.core.issue_cycle_frac",
        ratio(counts.issue_cycles as f64, counts.cycles as f64),
    );
    values.set(
        "sim.events.idle_cycle_frac",
        ratio(counts.idle_cycles as f64, counts.cycles as f64),
    );
    values.set(
        "sim.events.queue_ops_per_kcycle",
        ratio(counts.queue_ops as f64 * 1e3, counts.cycles as f64),
    );
    values.set(
        "sim.os.context_switches_per_mcycle",
        ratio(counts.context_switches as f64 * 1e6, counts.cycles as f64),
    );

    // Host time inside os.run, per cell, and its replay-estimated split.
    let cell_of: std::collections::HashMap<u64, usize> = spans
        .iter()
        .filter_map(|s| s.cell.map(|c| (s.id, c)))
        .collect();
    let mut os_run_ns = vec![0u64; p.cells.len()];
    let mut fleet_ns = 0u64;
    for sp in &spans {
        let cell = sp.parent.and_then(|id| cell_of.get(&id)).copied();
        match (sp.name, cell) {
            ("os.run", Some(c)) => os_run_ns[c] += sp.end_ns - sp.start_ns,
            ("fleet.run_fleet", Some(_)) => fleet_ns += sp.end_ns - sp.start_ns,
            _ => {}
        }
    }
    let (mut run_ns, mut run_cycles, mut open_ns, mut open_cycles) = (0.0, 0.0, 0.0, 0.0);
    let mut split = [0.0f64; 3];
    for (i, cell) in p.cells.iter().enumerate() {
        let Some(st) = stats[i] else { continue };
        if cell.fleet.is_some() {
            continue;
        }
        let ns = os_run_ns[i] as f64 / passes;
        run_ns += ns;
        run_cycles += st.cycles as f64;
        if cell.is_open() {
            open_ns += ns;
            open_cycles += st.cycles as f64;
        }
        let parts = layers::os_run_split(&replays, &cell.scheme, st);
        for (acc, part) in split.iter_mut().zip(parts) {
            *acc += part;
        }
    }
    values.set("sim.os.run_ns_per_cycle", ratio(run_ns, run_cycles));

    let mut cell_s: Vec<f64> = spans
        .iter()
        .filter(|s| s.cell.is_some())
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
        .collect();
    cell_s.sort_by(f64::total_cmp);
    values.set("plan.cell_s_p50", median(cell_s.clone()));
    let p90 = cell_s[(cell_s.len() * 9) / 10];
    if cell_s.iter().filter(|&&v| v > p90).count() >= 10 {
        values.set("plan.cell_s_p90", p90);
    }
    values.set(
        "runner.worker_busy_frac",
        cell_s.iter().sum::<f64>() / (walls.iter().sum::<f64>() * workers as f64),
    );
    values.set(
        "runner.image_cache_hit_ratio",
        ratio(
            (u.cache_requests - u.cache_builds) as f64,
            u.cache_requests as f64,
        ),
    );
    values.set(
        "plan.export_ms",
        spans::total_ns(&spans, "plan.export") as f64 / passes / 1e6,
    );
    // Each traced pass ran right after an untraced one: the median of the
    // pairwise ratios cancels slow drift in host speed.
    values.set(
        "bench.trace_overhead",
        median(walls.iter().zip(&u.walls).map(|(t, u)| t / u).collect()),
    );

    if let Some(ns) = replays.arrival_ns {
        values.set("traffic.arrival_ns", ns);
        values.set(
            "traffic.shed_frac",
            ratio(counts.shed as f64, counts.offered as f64),
        );
        values.set(
            "traffic.mean_queue_depth",
            ratio(counts.queue_depth.0, counts.queue_depth.1 as f64),
        );
    }
    if counts.lane_cycles > 0 {
        let per_lane_cycle = fleet_ns as f64 / passes / counts.lane_cycles as f64;
        values.set("fleet.run_ns_per_lane_cycle", per_lane_cycle);
        values.set(
            "fleet.dispatch_overhead",
            per_lane_cycle / ratio(open_ns, open_cycles),
        );
    }

    // Self time per layer, per traced pass; os.run split by the replays.
    let mut table: Vec<(String, f64)> = spans::self_time_ns(&spans)
        .into_iter()
        .map(|(name, ns)| (name.to_string(), ns as f64 / passes / 1e9))
        .collect();
    if run_ns > 0.0 {
        let names = ["core.merge_eval", "mem.cache_access", "sim.core.step_rest"];
        for (name, ns) in names.iter().zip(split) {
            table.push((format!("os.run/{name} (replay estimate)"), ns / 1e9));
        }
        table.push((
            "os.run/unattributed".to_string(),
            (run_ns - split.iter().sum::<f64>()) / 1e9,
        ));
    }
    Ok(table)
}

fn print_tables(values: &Values, self_time: &[(String, f64)]) {
    let top: f64 = self_time
        .iter()
        .filter(|(n, _)| !n.starts_with("os.run/"))
        .map(|(_, v)| v)
        .sum();
    println!("self time per layer (traced run, seconds per pass; share of all span self time):");
    for (name, v) in self_time {
        println!("  {name:<44} {v:>10.4} s {:>6.1}%", 100.0 * v / top);
    }
    println!("per-layer metrics (traced run):");
    println!(
        "  {:<36} {:>14} {:<9} {:<18} on",
        "metric", "value", "unit", "moves"
    );
    for d in PER_LAYER.iter().chain(&PER_LAYER_EXTRA) {
        if let Some(v) = values.get(d.name) {
            println!(
                "  {:<36} {:>14.6} {:<9} {:<18} {}",
                d.name, v, d.unit, d.moves, d.on
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_sim::MemoryModel;

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let ok = parse("--workload memory-bound --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (ok.kind, ok.seed, ok.seconds, ok.trace),
            (Kind::MemoryBound, 3, 10, true)
        );
        for bad in [
            "--workload nope --seed 3 --seconds 10 --trace 1",
            "--workload memory-bound --seed x --seconds 10 --trace 1",
            "--workload memory-bound --seed 3 --seconds 0 --trace 1",
            "--workload memory-bound --seed 3 --seconds 10 --trace 2",
            "--workload memory-bound --seed 3 --seconds 10",
            "--workload memory-bound --seed 3 --seconds 10 --trace",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn sample_is_distinct_deterministic_and_bounded() {
        let a = sample(7, 18, 3);
        assert_eq!(a, sample(7, 18, 3));
        assert_eq!(a.len(), 3);
        assert!(a.iter().all(|&i| i < 18));
        assert_eq!(sample(7, 2, 3).len(), 2);
    }

    #[test]
    fn memory_model_is_real_everywhere() {
        // Every cell models its caches: none runs with perfect memory.
        for kind in Kind::ALL {
            let p = workload::prepare(kind, 1);
            assert!(p.cells.iter().all(|c| !c.cfg.mem.perfect));
            assert!(p
                .plans
                .iter()
                .all(|plan| plan.jobs().iter().all(|k| k.memory == MemoryModel::Real)));
        }
    }
}
