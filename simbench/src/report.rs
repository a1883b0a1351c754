//! Metric catalogue, the result line and run provenance.

use std::process::Command;

/// A metric the benchmark can emit: name, unit, the end-to-end metric it
/// should move and the workload it should move it on.
pub struct MetricDef {
    /// Dotted metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// End-to-end metric a change to this layer should move.
    pub moves: &'static str,
    /// Workload where it should move it.
    pub on: &'static str,
}

const fn def(
    name: &'static str,
    unit: &'static str,
    moves: &'static str,
    on: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        moves,
        on,
    }
}

/// End-to-end metrics of the untraced run, as `BENCHMARK.json` lists them.
pub const END_TO_END: [MetricDef; 5] = [
    def("wall_s", "s", "", ""),
    def("setup_s", "s", "", ""),
    def("sim_mcycles_per_s", "Mcycle/s", "", ""),
    def("sim_mips", "MIPS", "", ""),
    def("peak_rss_mb", "MB", "", ""),
];

/// End-to-end figures printed beside the above but kept out of the result
/// line: `failed_frac` is 0 when the program is correct (the line carries
/// `failed` and `attempted` instead), and `paper_gap_pp` exists only on
/// `paper-sweep`.
pub const END_TO_END_EXTRA: [MetricDef; 2] = [
    def("failed_frac", "ratio", "", ""),
    def("paper_gap_pp", "pp", "", ""),
];

/// Per-layer metrics of the traced run that every workload defines, as
/// `BENCHMARK.json` lists them.
pub const PER_LAYER: [MetricDef; 26] = [
    def("compiler.images", "count", "setup_s", "paper-sweep"),
    def(
        "compiler.build_ms_per_image",
        "ms",
        "setup_s",
        "paper-sweep",
    ),
    def(
        "core.merge_eval_ns.1S",
        "ns",
        "sim_mcycles_per_s",
        "paper-sweep",
    ),
    def(
        "core.merge_eval_ns.3CCC",
        "ns",
        "sim_mcycles_per_s",
        "paper-sweep",
    ),
    def(
        "core.merge_eval_ns.2SC3",
        "ns",
        "sim_mcycles_per_s",
        "paper-sweep",
    ),
    def(
        "core.merge_eval_ns.3SSS",
        "ns",
        "sim_mcycles_per_s",
        "paper-sweep",
    ),
    def(
        "core.merge_attempts_per_kcycle",
        "1/kcycle",
        "sim_mcycles_per_s",
        "paper-sweep",
    ),
    def(
        "core.merge_accept_ratio",
        "ratio",
        "sim_mcycles_per_s",
        "paper-sweep",
    ),
    def(
        "mem.cache_hit_ns",
        "ns",
        "sim_mips",
        "paper-sweep,memory-bound",
    ),
    def(
        "mem.cache_miss_ns",
        "ns",
        "sim_mips",
        "paper-sweep,memory-bound",
    ),
    def(
        "mem.icache_miss_ratio",
        "ratio",
        "sim_mips",
        "paper-sweep,memory-bound",
    ),
    def(
        "mem.dcache_miss_ratio",
        "ratio",
        "sim_mips",
        "paper-sweep,memory-bound",
    ),
    def(
        "sim.core.step_ns.ST",
        "ns",
        "sim_mcycles_per_s",
        "paper-sweep",
    ),
    def(
        "sim.core.step_ns.1S",
        "ns",
        "sim_mcycles_per_s",
        "paper-sweep",
    ),
    def(
        "sim.core.step_ns.2SC3",
        "ns",
        "sim_mcycles_per_s",
        "paper-sweep",
    ),
    def(
        "sim.core.step_ns.3SSS",
        "ns",
        "sim_mcycles_per_s",
        "paper-sweep",
    ),
    def(
        "sim.core.issue_cycle_frac",
        "ratio",
        "sim_mcycles_per_s",
        "paper-sweep",
    ),
    def(
        "sim.events.idle_cycle_frac",
        "ratio",
        "sim_mcycles_per_s",
        "memory-bound",
    ),
    def(
        "sim.events.queue_ops_per_kcycle",
        "1/kcycle",
        "sim_mcycles_per_s",
        "memory-bound",
    ),
    def(
        "sim.os.run_ns_per_cycle",
        "ns",
        "wall_s",
        "memory-bound,open-fleet",
    ),
    def(
        "sim.os.context_switches_per_mcycle",
        "1/Mcycle",
        "wall_s",
        "memory-bound,open-fleet",
    ),
    def("plan.cell_s_p50", "s", "wall_s", "paper-sweep"),
    def("runner.worker_busy_frac", "ratio", "wall_s", "paper-sweep"),
    def(
        "runner.image_cache_hit_ratio",
        "ratio",
        "wall_s",
        "paper-sweep",
    ),
    def("plan.export_ms", "ms", "wall_s", "paper-sweep"),
    def("bench.trace_overhead", "ratio", "wall_s", "all"),
];

/// Per-layer metrics that exist only on some workloads: printed in the
/// table and the report, kept out of the result line.
pub const PER_LAYER_EXTRA: [MetricDef; 6] = [
    def(
        "traffic.arrival_ns",
        "ns",
        "sim_mcycles_per_s",
        "open-fleet",
    ),
    def(
        "traffic.shed_frac",
        "ratio",
        "sim_mcycles_per_s",
        "open-fleet",
    ),
    def(
        "traffic.mean_queue_depth",
        "jobs",
        "sim_mcycles_per_s",
        "open-fleet",
    ),
    def(
        "fleet.run_ns_per_lane_cycle",
        "ns",
        "sim_mcycles_per_s",
        "open-fleet",
    ),
    def(
        "fleet.dispatch_overhead",
        "ratio",
        "sim_mcycles_per_s",
        "open-fleet",
    ),
    def("plan.cell_s_p90", "s", "wall_s", "paper-sweep"),
];

/// Find a metric's definition in any of the catalogues.
pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(&END_TO_END_EXTRA)
        .chain(&PER_LAYER)
        .chain(&PER_LAYER_EXTRA)
        .find(|d| d.name == name)
}

/// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]+`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Measured values by metric name, in insertion order.
#[derive(Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Record `value` under `name`, which must be catalogued.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = lookup(name).unwrap_or_else(|| panic!("metric {name} is not catalogued"));
        self.0.push((def.name, value));
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// JSON number for a finite float (full precision), or an error.
fn number(name: &str, v: f64) -> Result<String, String> {
    if v.is_finite() {
        Ok(format!("{v:?}"))
    } else {
        Err(format!("metric {name} is not finite: {v}"))
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}` for the metrics in `defs`,
/// taking values from `values`. Fails when one is missing or not finite.
pub fn metrics_json<'a>(
    defs: impl IntoIterator<Item = &'a MetricDef>,
    values: &Values,
) -> Result<String, String> {
    let mut parts = Vec::new();
    for d in defs {
        if !valid_name(d.name) {
            return Err(format!("invalid metric name {:?}", d.name));
        }
        let v = values
            .get(d.name)
            .ok_or_else(|| format!("metric {} was not measured", d.name))?;
        parts.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            d.name,
            number(d.name, v)?,
            d.unit
        ));
    }
    Ok(format!("{{{}}}", parts.join(", ")))
}

/// Every recorded value, in the same form.
pub fn all_values_json(values: &Values) -> Result<String, String> {
    let defs = values
        .0
        .iter()
        .map(|(n, _)| lookup(n).expect("recorded metrics are catalogued"));
    metrics_json(defs, values)
}

/// The result line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}"
    )
}

/// JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `git describe` of the working directory, or `unknown` when it is not a
/// git checkout (git is then not run, so nothing outside it is read).
pub fn git_describe() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".to_string();
    }
    Command::new("git")
        .args(["describe", "--always", "--dirty", "--tags"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Version of the compiler that built this benchmark.
pub fn rustc_version() -> &'static str {
    env!("SIMBENCH_RUSTC_VERSION")
}

/// Host memory high-water mark of this process, in MB (Linux `VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all() -> impl Iterator<Item = &'static MetricDef> {
        END_TO_END
            .iter()
            .chain(&END_TO_END_EXTRA)
            .chain(&PER_LAYER)
            .chain(&PER_LAYER_EXTRA)
    }

    #[test]
    fn every_metric_name_is_valid_unique_and_has_a_unit() {
        let mut seen = std::collections::HashSet::new();
        for d in all() {
            assert!(valid_name(d.name), "bad metric name {}", d.name);
            assert!(seen.insert(d.name), "duplicate metric name {}", d.name);
            assert!(
                !d.unit.is_empty() && d.unit.len() <= 16,
                "{} has no unit",
                d.name
            );
            assert!(
                d.unit
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                "bad unit {} of {}",
                d.unit,
                d.name
            );
        }
        assert!(!valid_name("a b"));
        assert!(!valid_name(""));
    }

    #[test]
    fn the_result_line_lists_exactly_the_benchmark_json_metrics() {
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let listed = spec.matches("\"name\":").count();
        // Workload names are listed too.
        let workloads = crate::workload::Kind::ALL.len();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len() + workloads);
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", d.name, d.unit);
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn missing_or_non_finite_values_are_errors() {
        let mut v = Values::default();
        v.set("wall_s", 1.5);
        assert!(metrics_json(&END_TO_END[..1], &v).is_ok());
        assert!(metrics_json(&END_TO_END[..2], &v).is_err());
        v.set("setup_s", f64::NAN);
        assert!(metrics_json(&END_TO_END[..2], &v).is_err());
    }

    #[test]
    fn result_line_shape() {
        let mut v = Values::default();
        v.set("wall_s", 0.25);
        let line = result_line(true, 3, 0, &metrics_json(&END_TO_END[..1], &v).unwrap());
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
