//! Output checks. Every cell execution the benchmark makes is counted here,
//! and one fails when it returned an error, broke a conservation law, or
//! differs from the reference pass; a result set whose export digest
//! differs fails all of its cells.

use crate::workload::CellResult;
use vliw_sim::RunStats;

/// Canonical rendering of a cell's statistics. `RunStats` derives `Debug`
/// over every field, and floats print in their shortest exact form, so two
/// renderings are equal exactly when the statistics are.
pub fn canonical(stats: &RunStats) -> String {
    format!("{stats:?}")
}

/// 64-bit FNV-1a digest.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The conservation laws of one cell: every offered job completed or was
/// shed, and on a fleet every arrival was routed to a machine that
/// accounts for it.
pub fn conservation(stats: &RunStats) -> Result<(), String> {
    let t = &stats.traffic;
    if t.completed + t.shed != t.offered {
        return Err(format!(
            "completed {} + shed {} != offered {}",
            t.completed, t.shed, t.offered
        ));
    }
    if let Some(fleet) = &stats.fleet {
        if fleet.routed_total() != t.offered {
            return Err(format!(
                "routed {} != offered {}",
                fleet.routed_total(),
                t.offered
            ));
        }
        if !fleet.conserves_arrivals() {
            return Err("a fleet machine lost or invented a job".to_string());
        }
    }
    Ok(())
}

/// Attempted and failed cell executions, with the first few reasons.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Cell executions checked.
    pub attempted: u64,
    /// Cell executions that failed a check.
    pub failed: u64,
    /// Why cells failed (first few only).
    pub problems: Vec<String>,
}

const MAX_PROBLEMS: usize = 8;

impl Ledger {
    fn note(&mut self, problem: String) {
        if self.problems.len() < MAX_PROBLEMS {
            self.problems.push(problem);
        }
    }

    /// Check one batch of cell executions against the reference
    /// renderings, position by position. `digests` is the batch's export
    /// digest and the expected one, when the batch produced an export.
    pub fn check(
        &mut self,
        label: &str,
        results: &[(usize, &CellResult)],
        reference: &[String],
        digests: Option<(u64, u64)>,
    ) {
        let digest_ok = digests.is_none_or(|(got, want)| got == want);
        if !digest_ok {
            self.note(format!("{label}: export digest differs from the reference"));
        }
        for &(i, result) in results {
            self.attempted += 1;
            let problem = match result {
                Err(e) => Some(format!("cell {i} failed: {e}")),
                Ok(stats) => match conservation(stats) {
                    Err(e) => Some(format!("cell {i}: {e}")),
                    Ok(()) if canonical(stats) != reference[i] => {
                        Some(format!("cell {i}: statistics differ from the reference"))
                    }
                    Ok(()) => None,
                },
            };
            if let Some(p) = problem {
                self.note(format!("{label}: {p}"));
                self.failed += 1;
            } else if !digest_ok {
                self.failed += 1;
            }
        }
    }

    /// Failed executions as a share of those attempted.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failed as f64 / self.attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_sim::runner::ImageCache;
    use vliw_sim::SimConfig;

    /// A real, short open-system cell: one benchmark under Poisson load.
    fn sample_stats() -> RunStats {
        let scheme = vliw_core::catalog::by_name("2SC3").expect("catalog scheme");
        let cfg = SimConfig::paper(scheme, 50_000)
            .with_traffic("poisson:0.001".parse().expect("canonical spelling"));
        let mix = &vliw_workloads::table2_mixes()[0];
        vliw_sim::run_mix(&ImageCache::new(), &cfg, mix)
            .expect("sample cell runs")
            .stats
    }

    fn check_one(stats: &RunStats, reference: &str, digests: Option<(u64, u64)>) -> Ledger {
        let mut ledger = Ledger::default();
        let result: CellResult = Ok(stats.clone());
        ledger.check("test", &[(0, &result)], &[reference.to_string()], digests);
        ledger
    }

    #[test]
    fn an_unchanged_cell_passes() {
        let stats = sample_stats();
        assert!(stats.traffic.offered > 0, "the sample cell is open");
        let ledger = check_one(&stats, &canonical(&stats), Some((7, 7)));
        assert_eq!((ledger.attempted, ledger.failed), (1, 0));
    }

    #[test]
    fn a_perturbed_cell_stat_fails() {
        let stats = sample_stats();
        let reference = canonical(&stats);
        let mut bad = stats.clone();
        bad.cycles += 1;
        assert_eq!(check_one(&bad, &reference, None).failed, 1);
        let mut bad = stats;
        bad.dcache.writebacks += 1;
        assert_eq!(check_one(&bad, &reference, None).failed, 1);
    }

    #[test]
    fn a_digest_mismatch_fails_every_cell_of_the_set() {
        let stats = sample_stats();
        let reference = canonical(&stats);
        let ok: CellResult = Ok(stats);
        let mut ledger = Ledger::default();
        let refs = vec![reference.clone(), reference];
        ledger.check("test", &[(0, &ok), (1, &ok)], &refs, Some((1, 2)));
        assert_eq!((ledger.attempted, ledger.failed), (2, 2));
        assert!(ledger.problems[0].contains("digest"));
    }

    #[test]
    fn a_conservation_violation_fails() {
        let stats = sample_stats();
        let mut bad = stats.clone();
        bad.traffic.shed += 1;
        // Even against a reference that carries the same corruption.
        assert_eq!(check_one(&bad, &canonical(&bad), None).failed, 1);
        assert!(conservation(&stats).is_ok());
    }

    #[test]
    fn an_error_cell_fails() {
        let mut ledger = Ledger::default();
        let err: CellResult = Err("boom".to_string());
        ledger.check("test", &[(0, &err)], &[String::new()], None);
        assert_eq!(ledger.failed, 1);
        assert_eq!(ledger.failed_frac(), 1.0);
    }

    #[test]
    fn digest_is_fnv1a() {
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
