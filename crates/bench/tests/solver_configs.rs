//! The explorer's solver configurations, pinned on the T1-pattern
//! workloads at 32 sources.
//!
//! Four configurations run each workload: the shipped default (layered
//! stack + incremental core), the layered stack alone, the flat reference
//! (no cache layer, no incremental core) and the incremental core alone.
//! Every one of them, at 1, 2 and 8 workers, must produce a report
//! byte-identical to the layered stack's one-worker report: the layers
//! are pure optimizations. At one worker the solver counters are exact
//! functions of the explored path set, so they are pinned exactly.

use std::fmt::Write as _;

use symsc_bench::workloads::{bench_config, t1_cross_pattern, t1_pattern};
use symsc_smt::SolverStats;
use symsc_symex::{Explorer, Report, SymCtx};

const SOURCES: u32 = 32;

#[derive(Clone, Copy, Debug)]
enum Config {
    Default,
    Layered,
    Flat,
    Incremental,
}

impl Config {
    const ALL: [Config; 4] = [
        Config::Default,
        Config::Layered,
        Config::Flat,
        Config::Incremental,
    ];

    fn explorer(self, workers: usize) -> Explorer {
        let explorer = Explorer::new().workers(workers);
        match self {
            Config::Default => explorer,
            Config::Layered => explorer.incremental(false),
            Config::Flat => explorer.solver_stack(false).incremental(false),
            Config::Incremental => explorer.solver_stack(false),
        }
    }
}

/// The scheduling-independent projection of a report: everything the
/// equivalence check compares, as one canonical string.
fn stable_view(report: &Report) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "paths={} completed={} passed={}",
        report.stats.paths,
        report.completed,
        report.passed()
    );
    for e in &report.errors {
        let _ = writeln!(
            out,
            "error kind={:?} path={} msg={} cex={}",
            e.kind, e.path, e.message, e.counterexample
        );
    }
    for (bin, count) in &report.coverage {
        let _ = writeln!(out, "cover {bin}={count}");
    }
    out
}

/// Runs `bench` under every configuration at 1, 2 and 8 workers, checks
/// every report against the layered one-worker reference and returns the
/// one-worker solver stats of the layered, flat and incremental runs.
fn run_all<F: Fn(&SymCtx) + Sync>(name: &str, bench: F, paths: u64) -> [SolverStats; 3] {
    let reference = Config::Layered.explorer(1).explore(&bench);
    assert_eq!(reference.stats.paths, paths, "[{name}] paths");
    assert!(reference.completed, "[{name}] exploration completed");
    let view = stable_view(&reference);
    let mut one_worker = [SolverStats::default(); 3];
    for config in Config::ALL {
        for workers in [1, 2, 8] {
            let report = config.explorer(workers).explore(&bench);
            assert_eq!(
                stable_view(&report),
                view,
                "[{name}] {config:?} at {workers} workers differs from the layered reference"
            );
            let slot = match config {
                Config::Default => continue,
                Config::Layered => 0,
                Config::Flat => 1,
                Config::Incremental => 2,
            };
            if workers == 1 {
                one_worker[slot] = report.stats.solver;
            }
        }
    }
    one_worker
}

/// The one-worker counters one workload must reproduce exactly.
struct Expected {
    layered_core_calls: u64,
    flat_core_calls: u64,
    above_core_rate: f64,
    assumption_solves: u64,
    contexts: u64,
    clauses_retained: u64,
}

fn check_counters(name: &str, [layered, flat, incremental]: [SolverStats; 3], want: Expected) {
    assert_eq!(
        layered.sat_core_calls, want.layered_core_calls,
        "[{name}] layered core calls"
    );
    assert_eq!(
        flat.sat_core_calls, want.flat_core_calls,
        "[{name}] flat core calls"
    );
    // The incremental core decides each probe in one assumption solve, so
    // it makes exactly the flat configuration's core calls.
    assert_eq!(
        incremental.sat_core_calls, want.flat_core_calls,
        "[{name}] incremental core calls"
    );
    assert!(
        layered.above_core_rate() >= want.above_core_rate - 0.10,
        "[{name}] above-core rate {:.4} fell more than 0.10 below {:.4}",
        layered.above_core_rate(),
        want.above_core_rate
    );
    let inc = &incremental.incremental;
    assert_eq!(
        inc.assumption_solves, want.assumption_solves,
        "[{name}] assumption solves"
    );
    assert_eq!(inc.contexts, want.contexts, "[{name}] contexts");
    assert_eq!(
        inc.clauses_retained, want.clauses_retained,
        "[{name}] clauses retained"
    );
    assert_eq!(
        flat.incremental.contexts + flat.incremental.assumption_solves,
        0,
        "[{name}] the flat run reports incremental activity"
    );
}

#[test]
fn t1_reports_and_counters_are_pinned_across_solver_configs() {
    let stats = run_all("t1", t1_pattern(bench_config(SOURCES)), 32);
    check_counters(
        "t1",
        stats,
        Expected {
            layered_core_calls: 72,
            flat_core_calls: 134,
            above_core_rate: 0.4627,
            assumption_solves: 99,
            contexts: 32,
            clauses_retained: 60,
        },
    );
}

#[test]
fn t1_cross_reports_and_counters_are_pinned_across_solver_configs() {
    let stats = run_all("t1_cross", t1_cross_pattern(bench_config(SOURCES)), 128);
    let [layered, flat, incremental] = stats;
    check_counters(
        "t1_cross",
        stats,
        Expected {
            layered_core_calls: 79,
            flat_core_calls: 675,
            above_core_rate: 0.8564,
            assumption_solves: 400,
            contexts: 128,
            clauses_retained: 194,
        },
    );
    // Two independent ladders: the slice layer must reuse slices.
    assert!(layered.slice_hits > 0, "t1_cross shows no slice hits");
    // Clauses learnt along a path keep paying on its later probes.
    assert!(
        incremental.sat_conflicts < flat.sat_conflicts,
        "incremental core took {} conflicts, flat {}",
        incremental.sat_conflicts,
        flat.sat_conflicts
    );
}
