//! # symsc-mutate — mutation testing for the T1–T5 oracle
//!
//! The paper validates its test suite against six hand-picked injected
//! faults (IF1–IF6, Table 2). This crate turns that spot check into a
//! *mutation-testing* harness: it derives dozens of first-order mutants of
//! the PLIC by sweeping the parameters of the open mutation registry
//! ([`MutationOp`]), runs the symbolic suite against every mutant, and
//! reports the **kill matrix** — which test kills which mutant, the
//! overall kill rate, and the mutants that survive all five tests.
//!
//! A mutant is *killed* when at least one test that passes on the fixed
//! PLIC fails on the mutated one. Surviving mutants are either genuine
//! oracle gaps (behavior no test observes) or *equivalent mutants* whose
//! change is semantically invisible (e.g. a duplicated notification that
//! the kernel's override rules absorb).
//!
//! The matrix also records each exploration's **symbolic branch coverage**
//! (fork sites and directions, see
//! `symsc_symex::ExplorationStats::branches`); the
//! [`KillMatrix::coverage_kill_correlation`] column quantifies how well a
//! test's branch coverage predicts its kill count. On this suite the
//! correlation is *negative*: the decode-interface tests T4/T5 fork the
//! most but kill nothing, because every mutant lives in the delivery
//! logic their coverage never touches — raw coverage is a poor oracle
//! proxy, which is the point of measuring kills directly. Everything in
//! [`KillMatrix::stable_view`] is a pure function of the explored path
//! sets, so the rendered matrix is byte-identical across worker counts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cross;

pub use cross::{
    run_cross_kill_matrix, run_cross_kill_matrix_with, CrossBaselineRow, CrossKillMatrix,
    CrossMutantRow,
};

use symsc_plic::{InjectedFault, Mutation, MutationOp, PlicConfig, ThresholdCmp};
use symsc_testbench::{run_test, SuiteParams, TestId};
use symsysc_core::Verifier;

/// A generated (or preset) mutant: a named [`MutationOp`] instance.
#[derive(Clone, Debug)]
pub struct Mutant {
    name: String,
    description: String,
    op: MutationOp,
    preset: Option<InjectedFault>,
}

impl Mutant {
    /// A mutant with an explicit name and description.
    pub fn new(name: &str, description: &str, op: MutationOp) -> Mutant {
        Mutant {
            name: name.to_string(),
            description: description.to_string(),
            op,
            preset: None,
        }
    }

    /// The mutant for one of the paper's named fault presets.
    pub fn from_preset(fault: InjectedFault) -> Mutant {
        Mutant {
            name: Mutation::name(&fault),
            description: fault.description(),
            op: fault.op(),
            preset: Some(fault),
        }
    }

    /// The preset this mutant corresponds to, if any.
    pub fn preset(&self) -> Option<InjectedFault> {
        self.preset
    }
}

impl Mutation for Mutant {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn description(&self) -> String {
        self.description.clone()
    }

    fn op(&self) -> MutationOp {
        self.op
    }
}

/// The paper's six injected faults as mutants (IF1–IF6, in order).
pub fn presets() -> Vec<Mutant> {
    InjectedFault::ALL
        .iter()
        .copied()
        .map(Mutant::from_preset)
        .collect()
}

/// Generates the first-order mutant sweep for `config`.
///
/// Parameters are derived from the configuration (source count, priority
/// width), so the same sweep adapts to the full FE310 and the scaled test
/// configurations. The sweep deliberately includes mutants expected to be
/// *equivalent* (e.g. [`MutationOp::DuplicateNotify`]) — finding them
/// alive is part of validating the harness. Presets are not repeated;
/// duplicate operators (possible on very small configurations) are pruned.
pub fn generate(config: &PlicConfig) -> Vec<Mutant> {
    let s = config.sources;
    let mut out: Vec<Mutant> = Vec::new();

    // Gateway bound off-by-N (the +1 case is preset IF1).
    for delta in [2i32, -1, -2] {
        let sign = if delta >= 0 { "p" } else { "m" };
        out.push(Mutant::new(
            &format!("gateway_bound_{sign}{}", delta.unsigned_abs()),
            &format!("gateway accepts ids 1..=sources{delta:+}"),
            MutationOp::GatewayBoundOffset(delta),
        ));
    }

    // Dropped notifications across the id range; `s + 1` is rejected by
    // the gateway before the hook and must survive (equivalent mutant).
    for id in [1, 2, s / 2 - 1, s / 2, s, s + 1] {
        out.push(Mutant::new(
            &format!("drop_notify_{id}"),
            &format!("e_run notification dropped for interrupt id {id}"),
            MutationOp::DropNotifyForId(id),
        ));
    }

    out.push(Mutant::new(
        "dup_notify",
        "gateway notifies e_run twice (absorbed by override rules)",
        MutationOp::DuplicateNotify,
    ));

    // Sticky pending bits at several ids (id 7 is preset IF5).
    for id in [1, 3, s - 3, s] {
        out.push(Mutant::new(
            &format!("early_clear_{id}"),
            &format!("clear_pending returns early for id {id}"),
            MutationOp::EarlyClearReturnForId(id),
        ));
    }

    // Boundary/factor sweep of the late-notify timing fault; a boundary
    // of `s` leaves no valid id above it and must survive.
    for (boundary, factor) in [(0, 10), (s / 4, 10), (s / 2, 2), (s, 10)] {
        out.push(Mutant::new(
            &format!("late_notify_a{boundary}_x{factor}"),
            &format!("{factor}x delivery latency for ids above {boundary}"),
            MutationOp::LateNotifyAboveBoundary {
                boundary: Some(boundary),
                factor,
            },
        ));
    }

    // Threshold comparison flavors (>= is preset IF6).
    out.push(Mutant::new(
        "cmp_always",
        "threshold ignored: every enabled pending interrupt is eligible",
        MutationOp::ThresholdCompare(ThresholdCmp::AlwaysPass),
    ));
    out.push(Mutant::new(
        "cmp_never",
        "threshold comparison never passes: delivery is dead",
        MutationOp::ThresholdCompare(ThresholdCmp::NeverPass),
    ));

    out.push(Mutant::new(
        "tiebreak_highest",
        "priority ties select the highest id instead of the lowest",
        MutationOp::TieBreakHighestId,
    ));

    // Stuck-at-0 priority datapath bits.
    for bit in [0u8, 1, 2] {
        out.push(Mutant::new(
            &format!("stuck_prio_bit_{bit}"),
            &format!("bit {bit} of every priority register reads as zero"),
            MutationOp::StuckPriorityBit(bit),
        ));
    }

    // No test disables a source, so a stuck-at-1 enable bit must survive.
    out.push(Mutant::new(
        "stuck_enable_1",
        "enable bit of source 1 reads as always set",
        MutationOp::StuckEnableForId(1),
    ));

    out.push(Mutant::new(
        "claim_skips_clear",
        "claim returns the interrupt but leaves its pending bit set",
        MutationOp::ClaimSkipsClear,
    ));
    out.push(Mutant::new(
        "complete_keeps_eip",
        "completion leaves hart_eip set, blocking further interrupts",
        MutationOp::CompleteKeepsEip,
    ));

    // Prune operators that collide with each other (tiny configurations)
    // or with a preset: the presets run as their own matrix rows.
    let preset_ops: Vec<MutationOp> = InjectedFault::ALL.iter().map(|f| f.op()).collect();
    let mut seen: Vec<MutationOp> = Vec::new();
    out.retain(|m| {
        let op = m.op();
        if preset_ops.contains(&op) || seen.contains(&op) {
            return false;
        }
        seen.push(op);
        true
    });
    out
}

/// The complete mutant registry for `config`: the six IF presets followed
/// by the generated first-order sweep, in stable registry order. This is
/// the population every matrix harness and the campaign orchestrator
/// iterate over.
pub fn registry(config: &PlicConfig) -> Vec<Mutant> {
    let mut out = presets();
    out.extend(generate(config));
    out
}

/// Resolves one mutant of the registry by name. Campaign journals persist
/// mutant selections as names; resume reconstructs the operators through
/// this lookup, so a name that no longer resolves is a spec mismatch.
pub fn by_name(config: &PlicConfig, name: &str) -> Option<Mutant> {
    registry(config).into_iter().find(|m| m.name == name)
}

/// One (mutant, test) cell of the kill matrix. Every field is a pure
/// function of the explored path set — deterministic across worker counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CellResult {
    /// The test failed on the mutant (and passes on the baseline).
    pub killed: bool,
    /// Distinct errors the test reported on the mutant.
    pub distinct_errors: usize,
    /// Paths explored.
    pub paths: u64,
    /// Distinct symbolic fork sites decided.
    pub branch_sites: u64,
    /// Branch directions exercised (at most `2 * branch_sites`).
    pub branches_covered: u64,
}

/// The suite's result on the unmutated baseline configuration for one test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BaselineRow {
    /// Which test.
    pub test: TestId,
    /// Whether the baseline passes (it must, for kills to be meaningful).
    pub passed: bool,
    /// Paths explored.
    pub paths: u64,
    /// Distinct symbolic fork sites decided.
    pub branch_sites: u64,
    /// Branch directions exercised.
    pub branches_covered: u64,
}

/// One mutant's row: its verdict under every test.
#[derive(Clone, Debug)]
pub struct MutantRow {
    /// The mutant's name.
    pub name: String,
    /// One-line description of the seeded defect.
    pub description: String,
    /// The operator that was injected.
    pub op: MutationOp,
    /// Whether this row is one of the paper's IF presets.
    pub preset: bool,
    /// Per-test results, parallel to [`KillMatrix::tests`].
    pub cells: Vec<CellResult>,
}

impl MutantRow {
    /// Whether any test killed this mutant.
    pub fn killed(&self) -> bool {
        self.cells.iter().any(|c| c.killed)
    }
}

/// The full kill matrix: tests × mutants, plus the baseline row.
#[derive(Clone, Debug)]
pub struct KillMatrix {
    /// The (unmutated) configuration every run derives from.
    pub config: PlicConfig,
    /// The tests that ran (columns).
    pub tests: Vec<TestId>,
    /// Baseline results (the suite on the unmutated configuration).
    pub baseline: Vec<BaselineRow>,
    /// One row per mutant.
    pub mutants: Vec<MutantRow>,
}

impl KillMatrix {
    /// Killed mutants over total mutants, in percent.
    pub fn kill_rate(&self) -> f64 {
        if self.mutants.is_empty() {
            return 0.0;
        }
        let killed = self.mutants.iter().filter(|m| m.killed()).count();
        100.0 * killed as f64 / self.mutants.len() as f64
    }

    /// The mutants no test killed.
    pub fn survivors(&self) -> Vec<&MutantRow> {
        self.mutants.iter().filter(|m| !m.killed()).collect()
    }

    /// Kills per test, parallel to [`tests`](Self::tests).
    pub fn kills_per_test(&self) -> Vec<usize> {
        (0..self.tests.len())
            .map(|t| self.mutants.iter().filter(|m| m.cells[t].killed).count())
            .collect()
    }

    /// Pearson correlation between a test's baseline branch coverage
    /// (directions exercised) and its kill count. Zero when degenerate
    /// (fewer than two tests, or no variance on either axis).
    pub fn coverage_kill_correlation(&self) -> f64 {
        let xs: Vec<f64> = self
            .baseline
            .iter()
            .map(|b| b.branches_covered as f64)
            .collect();
        let ys: Vec<f64> = self.kills_per_test().iter().map(|&k| k as f64).collect();
        pearson(&xs, &ys)
    }

    /// A deterministic rendering of the whole matrix. Contains no timing
    /// and no worker-dependent data, so two runs of the same matrix — at
    /// any worker counts — produce byte-identical strings.
    pub fn stable_view(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "kill-matrix sources={} maxp={} variant={:?}",
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

fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len();
    if n < 2 || n != ys.len() {
        return 0.0;
    }
    let mx = xs.iter().sum::<f64>() / n as f64;
    let my = ys.iter().sum::<f64>() / n as f64;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    if vx == 0.0 || vy == 0.0 {
        return 0.0;
    }
    cov / (vx.sqrt() * vy.sqrt())
}

/// Runs `tests` against the unmutated `config` and against every mutant.
///
/// `config` should be the *fixed* variant (mutants are judged against a
/// passing baseline, the usual mutation-testing setup); a failing baseline
/// test is recorded as such and kills nothing. `workers` is forwarded to
/// the explorer — the matrix content is identical for any value.
pub fn run_kill_matrix(
    config: PlicConfig,
    mutants: &[Mutant],
    tests: &[TestId],
    workers: usize,
) -> KillMatrix {
    run_kill_matrix_with(config, mutants, tests, |name| {
        Verifier::new(name).workers(workers)
    })
}

/// Like [`run_kill_matrix`], but with full control over the verifier each
/// exploration uses (exploration order, fork strategy, budgets): `verifier`
/// receives the cell's test name. Every verifier configuration is a pure
/// optimization of the same exhaustive exploration, so the matrix content
/// must be identical for any choice — the regression tests pin this.
pub fn run_kill_matrix_with<F: Fn(&str) -> Verifier>(
    config: PlicConfig,
    mutants: &[Mutant],
    tests: &[TestId],
    verifier: F,
) -> KillMatrix {
    let params = SuiteParams::default();

    let baseline: Vec<BaselineRow> = tests
        .iter()
        .map(|&test| {
            let o = run_test(test, config, &params, &verifier(test.name()));
            BaselineRow {
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
                    let o = run_test(test, config.mutate(mutant.op()), &params, &verifier(&name));
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
                preset: mutant.preset.is_some(),
                cells,
            }
        })
        .collect();

    KillMatrix {
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
    fn presets_are_the_six_paper_faults() {
        let p = presets();
        let names: Vec<String> = p.iter().map(|m| m.name.clone()).collect();
        assert_eq!(names, ["IF1", "IF2", "IF3", "IF4", "IF5", "IF6"]);
        assert!(p.iter().all(|m| m.preset().is_some()));
    }

    #[test]
    fn generated_sweep_is_large_and_disjoint_from_presets() {
        let mutants = generate(&PlicConfig::fe310_scaled());
        assert!(mutants.len() >= 20, "only {} mutants", mutants.len());
        let preset_ops: Vec<MutationOp> = InjectedFault::ALL.iter().map(|f| f.op()).collect();
        for (i, a) in mutants.iter().enumerate() {
            assert!(!preset_ops.contains(&a.op()), "{} is a preset", a.name);
            for b in &mutants[i + 1..] {
                assert_ne!(a.op(), b.op(), "{} and {} collide", a.name, b.name);
            }
        }
    }

    #[test]
    fn generated_sweep_adapts_to_tiny_configs() {
        let mut tiny = PlicConfig::small();
        tiny.sources = 4;
        let mutants = generate(&tiny);
        // Ids collapse onto each other but the sweep stays duplicate-free.
        for (i, a) in mutants.iter().enumerate() {
            for b in &mutants[i + 1..] {
                assert_ne!(a.op(), b.op());
            }
        }
    }

    #[test]
    fn kill_matrix_kills_and_spares_as_expected() {
        let config = PlicConfig::small().variant(PlicVariant::Fixed);
        let mutants = vec![
            Mutant::new(
                "cmp_never",
                "delivery dead",
                MutationOp::ThresholdCompare(ThresholdCmp::NeverPass),
            ),
            Mutant::new("dup_notify", "double notify", MutationOp::DuplicateNotify),
        ];
        let matrix = run_kill_matrix(config, &mutants, &[TestId::T1], 1);
        assert!(matrix.baseline[0].passed, "baseline T1 must pass");
        assert!(matrix.baseline[0].branch_sites > 0, "T1 forks symbolically");
        assert!(matrix.mutants[0].killed(), "dead delivery must be caught");
        assert!(
            !matrix.mutants[1].killed(),
            "duplicate notify is equivalent"
        );
        assert!((matrix.kill_rate() - 50.0).abs() < 1e-9);
        assert_eq!(matrix.survivors().len(), 1);
        assert_eq!(matrix.kills_per_test(), vec![1]);
        let view = matrix.stable_view();
        assert!(view.contains("mutant cmp_never"));
        assert!(view.contains("SURVIVED"));
        assert!(view.contains("killed 1/2"));
    }

    #[test]
    fn pearson_handles_degenerate_inputs() {
        assert_eq!(pearson(&[1.0], &[2.0]), 0.0);
        assert_eq!(pearson(&[1.0, 1.0], &[1.0, 2.0]), 0.0);
        let r = pearson(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]);
        assert!((r - 1.0).abs() < 1e-9);
        let r = pearson(&[1.0, 2.0, 3.0], &[6.0, 4.0, 2.0]);
        assert!((r + 1.0).abs() < 1e-9);
    }
}
