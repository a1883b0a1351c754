//! # vliw-tms — Thread Merging Schemes for Multithreaded Clustered VLIW Processors
//!
//! A full reproduction of Gupta, Sánchez & Llosa (ICPP 2009) as a Rust
//! workspace. This facade crate re-exports every subsystem:
//!
//! * [`isa`] — the VEX-like clustered VLIW ISA model;
//! * [`compiler`] — dependence graphs, Bottom-Up-Greedy cluster assignment,
//!   list scheduling, unrolling;
//! * [`workloads`] — the synthetic Table-1 benchmark suite and Table-2
//!   workload mixes;
//! * [`mem`] — the shared I$/D$ hierarchy;
//! * [`core`] — **the paper's contribution**: SMT/CSMT hybrid merging
//!   schemes, their evaluation and routing;
//! * [`hwcost`] — gate-level transistor/delay models of the merge-control
//!   hardware;
//! * [`sim`] — the cycle-accurate multithreaded processor simulator with
//!   pluggable OS scheduling policies (`sim::sched`) and the experiment
//!   drivers;
//! * [`trace`] — zero-cost cycle-level event tracing: typed events,
//!   monomorphized sinks (the disabled path compiles to the untraced
//!   code), timeline analyses, and Chrome-trace/JSONL/CSV exporters;
//! * [`traffic`] — open-system load generation: deterministic arrival
//!   processes (`poisson`/`bursty`/`diurnal` [`traffic::TrafficSpec`]s),
//!   the bounded admission queue with shed accounting, and exact
//!   sojourn/wait latency quantiles;
//! * [`fleet`] — fleet-scale simulation: the [`fleet::FleetSpec`] grammar
//!   naming heterogeneous machine sets (`paper-4x4*2/2x8@least-queued`),
//!   deterministic [`fleet::Dispatcher`] routing policies, and per-machine
//!   [`fleet::FleetStats`] (driven by `sim::run_fleet` and the
//!   `Plan::fleet` axis);
//! * [`analyze`] — compiler-independent static verification of compiled
//!   images: CFG/bundle/dataflow/stream checks as typed diagnostics, plus
//!   per-block static performance bounds (`paper --lint` and the
//!   `VLIW_VERIFY_IMAGES` cache gate are built on it).
//!
//! ## Quickstart
//!
//! Experiments are declared as typed plans — which schemes × workloads ×
//! scheduling policies × memory models at which scale — and read back by
//! key:
//!
//! ```
//! use vliw_tms::sim::plan::{CellQuery, MemoryModel, Plan, Session};
//! use vliw_tms::sim::sched::SchedulerSpec;
//!
//! // The paper's headline scheme 2SC3 vs full SMT on the LLHH mix.
//! let set = Plan::new()
//!     .schemes(["2SC3", "3SSS"])
//!     .workload("LLHH")
//!     .scale(50_000) // heavily scaled down
//!     .run(&Session::new());
//! let ipc = set.ipc("2SC3", "LLHH", MemoryModel::Real).unwrap();
//! assert!(ipc > 1.0 && ipc <= 16.0);
//!
//! // Sweep the OS policy too: 4 threads on 2 contexts, icount vs the
//! // paper's random scheduler.
//! let set = Plan::new()
//!     .scheme("1S")
//!     .workload("LLHH")
//!     .schedulers([SchedulerSpec::PaperRandom, SchedulerSpec::Icount])
//!     .scale(100_000)
//!     .run(&Session::new());
//! let q = CellQuery::default().scheme("1S").workload("LLHH");
//! let icount = set.cell(&q.scheduler(SchedulerSpec::Icount)).unwrap();
//! assert!(icount.ipc() > 0.0);
//! // Mean IPC over the workloads, one entry per policy.
//! assert_eq!(set.means_by::<SchedulerSpec>(&q).len(), 2);
//! ```

pub use vliw_analyze as analyze;
pub use vliw_compiler as compiler;
pub use vliw_core as core;
pub use vliw_fleet as fleet;
pub use vliw_hwcost as hwcost;
pub use vliw_isa as isa;
pub use vliw_mem as mem;
pub use vliw_sim as sim;
pub use vliw_trace as trace;
pub use vliw_traffic as traffic;
pub use vliw_workloads as workloads;
