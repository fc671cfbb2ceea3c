//! The firmware kill matrix: every PLIC mutant against every firmware
//! test, the software-driven analog of `symsc_mutate`'s register-level
//! matrix. Rows reuse [`MutantRow`]/[`CellResult`] (they are column
//! agnostic); only the columns change from the register-level `TestId`
//! to [`FirmwareId`].

use symsc_mutate::{CellResult, Mutant, MutantRow};
use symsc_plic::{Mutation, PlicConfig};
use symsysc_core::Verifier;

use crate::suite::{run_firmware_test, FirmwareId};

/// The firmware suite's result on the unmutated baseline for one test.
///
/// Same shape as the TLM suite's [`symsc_mutate::BaselineRow`], keyed by
/// [`FirmwareId`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FirmwareBaselineRow {
    /// Which firmware test.
    pub test: FirmwareId,
    /// Whether the baseline passes (it must, for kills to count).
    pub passed: bool,
    /// Paths explored.
    pub paths: u64,
    /// Distinct symbolic fork sites decided — firmware branches and
    /// peripheral decode forks land in the same site space.
    pub branch_sites: u64,
    /// Branch directions exercised.
    pub branches_covered: u64,
}

/// The full firmware kill matrix: firmware tests × mutants.
#[derive(Clone, Debug)]
pub struct FirmwareKillMatrix {
    /// The (unmutated) configuration every run derives from.
    pub config: PlicConfig,
    /// The firmware tests that ran (columns).
    pub tests: Vec<FirmwareId>,
    /// Baseline results on the unmutated configuration.
    pub baseline: Vec<FirmwareBaselineRow>,
    /// One row per mutant.
    pub mutants: Vec<MutantRow>,
}

impl FirmwareKillMatrix {
    /// Killed mutants over total mutants, in percent.
    pub fn kill_rate(&self) -> f64 {
        if self.mutants.is_empty() {
            return 0.0;
        }
        let killed = self.mutants.iter().filter(|m| m.killed()).count();
        100.0 * killed as f64 / self.mutants.len() as f64
    }

    /// The mutants no firmware test killed.
    pub fn survivors(&self) -> Vec<&MutantRow> {
        self.mutants.iter().filter(|m| !m.killed()).collect()
    }

    /// Kills per test, parallel to [`tests`](Self::tests).
    pub fn kills_per_test(&self) -> Vec<usize> {
        (0..self.tests.len())
            .map(|t| self.mutants.iter().filter(|m| m.cells[t].killed).count())
            .collect()
    }

    /// Whether the named mutant exists in the matrix and was killed.
    pub fn killed_mutant(&self, name: &str) -> bool {
        self.mutants.iter().any(|m| m.name == name && m.killed())
    }

    /// A deterministic rendering of the whole matrix: no timing, no
    /// worker-dependent data — two runs at any worker count, fork
    /// strategy or exploration order must produce byte-identical strings.
    pub fn stable_view(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "fw-kill-matrix sources={} maxp={} variant={:?}",
            self.config.sources, self.config.max_priority, self.config.variant
        );
        for b in &self.baseline {
            let _ = writeln!(
                s,
                "baseline {}: {} paths={} sites={} covered={}",
                b.test,
                if b.passed { "pass" } else { "FAIL" },
                b.paths,
                b.branch_sites,
                b.branches_covered
            );
        }
        for m in &self.mutants {
            let _ = write!(
                s,
                "mutant {}{}:",
                m.name,
                if m.preset { " [preset]" } else { "" }
            );
            for (t, cell) in self.tests.iter().zip(&m.cells) {
                let verdict = if cell.killed {
                    format!("kill({})", cell.distinct_errors)
                } else {
                    "pass".to_string()
                };
                let _ = write!(
                    s,
                    " {t}={verdict} paths={} sites={} covered={}",
                    cell.paths, cell.branch_sites, cell.branches_covered
                );
            }
            let _ = writeln!(s, " => {}", if m.killed() { "killed" } else { "SURVIVED" });
        }
        let killed = self.mutants.iter().filter(|m| m.killed()).count();
        let _ = writeln!(s, "killed {}/{}", killed, self.mutants.len());
        s
    }
}

/// Runs `tests` against the unmutated `config` and against every mutant,
/// with `workers` explorer workers per cell. The matrix content is
/// identical for any worker count.
pub fn run_firmware_kill_matrix(
    config: PlicConfig,
    mutants: &[Mutant],
    tests: &[FirmwareId],
    workers: usize,
) -> FirmwareKillMatrix {
    run_firmware_kill_matrix_with(config, mutants, tests, |name| {
        Verifier::new(name).workers(workers)
    })
}

/// Like [`run_firmware_kill_matrix`], but with full control over the
/// verifier each cell uses (exploration order, fork strategy, budgets);
/// `verifier` receives the cell's name (`"F3/stuck_enable_1"`). Every
/// verifier configuration explores the same path set, so the matrix is
/// byte-identical for any choice — the determinism tests pin this.
pub fn run_firmware_kill_matrix_with<F: Fn(&str) -> Verifier>(
    config: PlicConfig,
    mutants: &[Mutant],
    tests: &[FirmwareId],
    verifier: F,
) -> FirmwareKillMatrix {
    let baseline: Vec<FirmwareBaselineRow> = tests
        .iter()
        .map(|&test| {
            let o = run_firmware_test(test, config, &verifier(test.name()));
            FirmwareBaselineRow {
                test,
                passed: o.passed(),
                paths: o.report.stats.paths,
                branch_sites: o.report.stats.branch_sites(),
                branches_covered: o.report.stats.branches_covered(),
            }
        })
        .collect();

    let rows: Vec<MutantRow> = mutants
        .iter()
        .map(|mutant| {
            let cells: Vec<CellResult> = tests
                .iter()
                .zip(&baseline)
                .map(|(&test, base)| {
                    let name = format!("{}/{}", test.name(), Mutation::name(mutant));
                    let o = run_firmware_test(test, config.mutate(mutant.op()), &verifier(&name));
                    CellResult {
                        killed: base.passed && !o.passed(),
                        distinct_errors: o.report.distinct_errors().len(),
                        paths: o.report.stats.paths,
                        branch_sites: o.report.stats.branch_sites(),
                        branches_covered: o.report.stats.branches_covered(),
                    }
                })
                .collect();
            MutantRow {
                name: Mutation::name(mutant),
                description: mutant.description(),
                op: mutant.op(),
                preset: mutant.preset().is_some(),
                cells,
            }
        })
        .collect();

    FirmwareKillMatrix {
        config,
        tests: tests.to_vec(),
        baseline,
        mutants: rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symsc_plic::PlicVariant;

    #[test]
    fn a_small_firmware_matrix_kills_the_presets_it_should() {
        let config = PlicConfig::fe310_scaled().variant(PlicVariant::Fixed);
        let mutants = symsc_mutate::presets();
        let matrix =
            run_firmware_kill_matrix(config, &mutants, &[FirmwareId::F1, FirmwareId::F2], 1);
        assert!(
            matrix.baseline.iter().all(|b| b.passed),
            "{}",
            matrix.stable_view()
        );
        // IF1 (gateway off-by-one) falls to F1's invalid-id branch; IF6
        // (threshold off-by-one) to F2's two-sided eligibility check.
        assert!(matrix.killed_mutant("IF1"), "{}", matrix.stable_view());
        assert!(matrix.killed_mutant("IF6"), "{}", matrix.stable_view());
    }
}
