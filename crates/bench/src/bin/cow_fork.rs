//! The copy-on-write fork-engine ablation harness.
//!
//! Runs two workload families at several source counts twice each — once
//! with the default copy-on-write snapshot fork engine and once with the
//! re-execution oracle (forked prefixes re-solved from scratch) — at 1,
//! 2 and 8 workers, and verifies three things:
//!
//! 1. **Equivalence** (the hard bar): every strategy × worker-count
//!    combination produces a byte-identical report — paths, verdicts,
//!    errors, counterexamples, coverage, branch fingerprints. The COW
//!    engine is a pure optimization; re-execution is the differential
//!    oracle.
//! 2. **Effectiveness**: on the probe-dense `claim_ladder` workload at
//!    the largest source count, the COW engine cuts sequential
//!    wall-clock by at least 2x. (`t1` rides along as the real-suite
//!    datapoint: its wall-clock is dominated by the peripheral model's
//!    native re-execution, which both strategies pay, so its speedup is
//!    structurally smaller.)
//! 3. **Observability**: the snapshot counters are live — under COW
//!    every path past the root is resumed from a snapshot
//!    (`fork_snapshots == paths - 1`) and fast-forwarded decisions are
//!    recorded; under the oracle both counters stay zero.
//!
//! Both strategies run with every solver accelerator off — layered
//! solver stack, incremental per-path core. Each of those layers absorbs
//! or amortizes exactly the re-solved prefix work this ablation measures
//! (the shared counterexample cache answers sibling prefix slices; the
//! incremental context retains learned clauses across them).
//! Accelerator-free runs also make every counter a pure function of the
//! explored path set — reproducible at any worker count.
//!
//! Exits nonzero on any violation. With `--emit FILE`, writes the
//! measured counters as JSON (the `BENCH_cow_fork.json` trajectory
//! datapoint).
//!
//! Usage: `cow_fork [--smoke] [--emit FILE]`
//! (`--smoke` restricts to the smallest source count and skips the
//! timing floor; used as the fast CI smoke).

use std::fmt::Write as _;
use std::time::Instant;

use symsc_bench::workloads::{bench_config, claim_ladder, t1_pattern};
use symsc_symex::{Explorer, ForkStrategy, Report, SymCtx};

/// The speedup the COW engine must show over re-execution on the
/// fork-cost stress workload at the largest measured source count
/// (sequential wall-clock ratio).
const SPEEDUP_FLOOR: f64 = 2.0;

/// The scheduling-independent projection of a report: everything the
/// equivalence check compares, as one canonical string.
fn stable_view(report: &Report) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "paths={} decisions={} completed={} passed={}",
        report.stats.paths,
        report.stats.decisions,
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
    for (site, bc) in &report.stats.branches {
        let _ = writeln!(out, "branch {site:032x}={}/{}", bc.taken, bc.not_taken);
    }
    out
}

struct RunResult {
    view: String,
    paths: u64,
    fork_snapshots: u64,
    fast_forward_decisions: u64,
    queries: u64,
    seconds: f64,
}

fn run<F: Fn(&SymCtx) + Sync>(bench: &F, fork: ForkStrategy, workers: usize) -> RunResult {
    let start = Instant::now();
    let report = Explorer::new()
        .solver_stack(false)
        .incremental(false)
        .fork_strategy(fork)
        .workers(workers)
        .explore(bench);
    RunResult {
        view: stable_view(&report),
        paths: report.stats.paths,
        fork_snapshots: report.stats.fork_snapshots,
        fast_forward_decisions: report.stats.fast_forward_decisions,
        queries: report.stats.solver.queries,
        seconds: start.elapsed().as_secs_f64(),
    }
}

struct WorkloadOutcome {
    name: String,
    sources: u32,
    paths: u64,
    fork_snapshots: u64,
    fast_forward_decisions: u64,
    cow_queries: u64,
    reexec_queries: u64,
    cow_seconds: f64,
    reexec_seconds: f64,
    speedup: f64,
    ok: bool,
}

fn run_workload<F: Fn(&SymCtx) + Sync>(
    family: &str,
    sources: u32,
    bench: F,
    worker_counts: &[usize],
) -> WorkloadOutcome {
    let name = format!("{family}@{sources}");
    let mut ok = true;

    // The sequential re-execution oracle is the reference everything else
    // must match byte for byte.
    let oracle = run(&bench, ForkStrategy::Reexec, 1);
    let cow = run(&bench, ForkStrategy::CowSnapshot, 1);
    if cow.view != oracle.view {
        println!("MISMATCH [{name}]: COW vs re-execution reports differ at 1 worker");
        ok = false;
    }
    // The shipped default configuration (all accelerators on, COW forks)
    // must land on the same stable view as well.
    let default_view = stable_view(&Explorer::new().workers(1).explore(&bench));
    if default_view != oracle.view {
        println!("MISMATCH [{name}]: default full-stack report differs at 1 worker");
        ok = false;
    }
    for &workers in worker_counts {
        for fork in [ForkStrategy::CowSnapshot, ForkStrategy::Reexec] {
            let r = run(&bench, fork, workers);
            if r.view != oracle.view {
                println!("MISMATCH [{name}]: report differs at {workers} workers ({fork:?})");
                ok = false;
            }
        }
    }

    // Counter liveness: COW must resume every non-root path from a
    // snapshot; the oracle must never touch the snapshot machinery.
    if cow.fork_snapshots != cow.paths.saturating_sub(1) {
        println!(
            "MISMATCH [{name}]: {} fork snapshots for {} paths \
             (expected paths - 1 under COW)",
            cow.fork_snapshots, cow.paths
        );
        ok = false;
    }
    if cow.fast_forward_decisions == 0 {
        println!("MISMATCH [{name}]: no fast-forwarded decisions under COW");
        ok = false;
    }
    if oracle.fork_snapshots != 0 || oracle.fast_forward_decisions != 0 {
        println!("MISMATCH [{name}]: re-execution oracle reports snapshot activity");
        ok = false;
    }

    let speedup = if cow.seconds > 0.0 {
        oracle.seconds / cow.seconds
    } else {
        f64::INFINITY
    };

    println!("[{name}] {} paths", cow.paths);
    println!(
        "  cow:    {:.3}s | {} queries | {} snapshots | {} fast-forward decisions",
        cow.seconds, cow.queries, cow.fork_snapshots, cow.fast_forward_decisions,
    );
    println!(
        "  reexec: {:.3}s | {} queries",
        oracle.seconds, oracle.queries,
    );
    println!("  speedup: {speedup:.2}x (sequential wall-clock)");

    WorkloadOutcome {
        name,
        sources,
        paths: cow.paths,
        fork_snapshots: cow.fork_snapshots,
        fast_forward_decisions: cow.fast_forward_decisions,
        cow_queries: cow.queries,
        reexec_queries: oracle.queries,
        cow_seconds: cow.seconds,
        reexec_seconds: oracle.seconds,
        speedup,
        ok,
    }
}

fn main() {
    let mut smoke = false;
    let mut emit: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--emit" {
            emit = args.next();
        } else if arg == "--smoke" {
            smoke = true;
        }
    }
    let source_counts: &[u32] = if smoke { &[8] } else { &[8, 16, 32] };
    let worker_counts = [2usize, 8];

    println!(
        "cow fork ablation: sources={source_counts:?}, workers=[1, 2, 8]{}",
        if smoke { " (smoke)" } else { "" }
    );
    let mut outcomes: Vec<WorkloadOutcome> = Vec::new();
    for &sources in source_counts {
        outcomes.push(run_workload(
            "t1",
            sources,
            t1_pattern(bench_config(sources)),
            &worker_counts,
        ));
        outcomes.push(run_workload(
            "claim_ladder",
            sources,
            claim_ladder(bench_config(sources)),
            &worker_counts,
        ));
    }

    let mut ok = outcomes.iter().all(|o| o.ok);
    // The acceptance gate: on the fork-cost stress workload at the
    // largest source count, the COW engine must at least halve
    // sequential wall-clock vs. re-execution. The smoke scale is too
    // small for stable timing, so the floor applies to the full
    // ablation only.
    if !smoke {
        let gated = outcomes
            .iter()
            .find(|o| o.name == "claim_ladder@32")
            .expect("full ablation includes claim_ladder@32");
        if gated.speedup < SPEEDUP_FLOOR {
            println!(
                "MISMATCH [{}]: COW speedup {:.2}x below the {SPEEDUP_FLOOR:.1}x floor",
                gated.name, gated.speedup
            );
            ok = false;
        }
    }

    if let Some(path) = emit {
        let mut json = String::from("{\n  \"harness\": \"cow_fork\",\n");
        let _ = writeln!(json, "  \"smoke\": {smoke},");
        let _ = writeln!(json, "  \"worker_counts_checked\": [1, 2, 8],");
        let _ = writeln!(json, "  \"equivalent\": {ok},");
        let _ = writeln!(json, "  \"speedup_floor\": {SPEEDUP_FLOOR:.1},");
        let _ = writeln!(json, "  \"workloads\": [");
        for (i, w) in outcomes.iter().enumerate() {
            let _ = writeln!(json, "    {{");
            let _ = writeln!(json, "      \"name\": \"{}\",", w.name);
            let _ = writeln!(json, "      \"sources\": {},", w.sources);
            let _ = writeln!(json, "      \"paths\": {},", w.paths);
            let _ = writeln!(json, "      \"fork_snapshots\": {},", w.fork_snapshots);
            let _ = writeln!(
                json,
                "      \"fast_forward_decisions\": {},",
                w.fast_forward_decisions
            );
            let _ = writeln!(json, "      \"cow_queries\": {},", w.cow_queries);
            let _ = writeln!(json, "      \"reexec_queries\": {},", w.reexec_queries);
            let _ = writeln!(json, "      \"cow_seconds\": {:.3},", w.cow_seconds);
            let _ = writeln!(json, "      \"reexec_seconds\": {:.3},", w.reexec_seconds);
            let _ = writeln!(json, "      \"speedup\": {:.2}", w.speedup);
            let _ = writeln!(
                json,
                "    }}{}",
                if i + 1 == outcomes.len() { "" } else { "," }
            );
        }
        json.push_str("  ]\n}\n");
        if let Err(e) = std::fs::write(&path, json) {
            println!("MISMATCH: could not write {path}: {e}");
            ok = false;
        } else {
            println!("wrote {path}");
        }
    }

    if !ok {
        std::process::exit(1);
    }
}
