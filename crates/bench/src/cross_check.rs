//! The cross-level equivalence kill harness, shared between the
//! `cross_check` binary and the CI/nightly smoke arms.
//!
//! Runs the cross-level suite X1–X3 (the TLM PLIC and the cycle-level
//! model driven from one symbolic transaction stream, each level the
//! other's oracle) against the paper's six fault presets plus the
//! generated first-order mutant sweep — every mutant injected into the
//! cycle model *and* into the TLM model — and verifies:
//!
//! 1. **Baseline**: the two fixed models are solver-proven equivalent on
//!    every X test.
//! 2. **Unique kill**: at least one mutant that the committed TLM-only
//!    matrix (`BENCH_mutation_kill.json`) lists as a survivor is killed
//!    here by pure equivalence — the headline is `stuck_enable_1`, which
//!    no expectation-based TLM test kills (none ever disables a source)
//!    but X3's symbolic enable word catches in both injection
//!    directions.
//! 3. **Determinism**: a reduced matrix re-run at 1/2/8 workers across
//!    both fork strategies and two exploration orders renders a
//!    byte-identical [`stable_view`](symsc_mutate::CrossKillMatrix).
//! 4. **Sweep**: kill counts and the overall rate stay above the floors.

use std::fmt::Write as _;
use std::time::Instant;

use symsc_mutate::{generate, presets, run_cross_kill_matrix_with, Mutant};
use symsc_plic::{Mutation, PlicConfig, PlicVariant};
use symsc_symex::{ExploreOrder, ForkStrategy};
use symsc_testbench::CrossId;
use symsysc_core::Verifier;

/// The committed TLM-only matrix the uniqueness claim is made against.
const TLM_BASELINE: &str = include_str!("../../../BENCH_mutation_kill.json");

/// The generated mutants the smoke matrix keeps: one per operator family
/// with a distinctive cross-level story, plus the headline
/// `stuck_enable_1` and the cross-level-equivalent `dup_notify`.
const SMOKE_GENERATED: [&str; 6] = [
    "gateway_bound_p2",
    "drop_notify_1",
    "cmp_never",
    "stuck_enable_1",
    "dup_notify",
    "complete_keeps_eip",
];

/// Parsed harness options (the same flag set as `firmware_kill`).
pub struct CrossCheckOptions {
    /// Reduced matrix for CI (X1/X3 x presets + `SMOKE_GENERATED`).
    pub smoke: bool,
    /// Overall kill-rate floor in percent.
    pub floor: f64,
    /// Explorer worker count (0 = one per hardware thread).
    pub workers: usize,
    /// Exploration order for every cell.
    pub order: ExploreOrder,
    /// The order's CLI spelling, echoed into the emission.
    pub order_name: &'static str,
    /// Emit the summary JSON to this path.
    pub emit: Option<String>,
}

impl Default for CrossCheckOptions {
    fn default() -> Self {
        Self {
            smoke: false,
            floor: 50.0,
            workers: 0,
            order: ExploreOrder::Exhaustive,
            order_name: "exhaustive",
            emit: None,
        }
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The survivor names recorded in the committed TLM-only baseline.
fn tlm_survivors() -> Vec<String> {
    let doc = crate::json::parse(TLM_BASELINE).expect("committed TLM baseline parses");
    doc.get("survivors")
        .and_then(crate::json::Json::as_arr)
        .map(|arr| {
            arr.iter()
                .filter_map(|s| s.get("name").and_then(crate::json::Json::as_str))
                .map(str::to_string)
                .collect()
        })
        .unwrap_or_default()
}

/// Runs the cross-level kill matrix under `opts`; returns `false` on any
/// MISMATCH (baseline failure, missing unique kill, determinism break,
/// floor violation, unwritable emission path).
pub fn run(opts: &CrossCheckOptions) -> bool {
    let config = PlicConfig::fe310_scaled().variant(PlicVariant::Fixed);
    let tests: Vec<CrossId> = if opts.smoke {
        vec![CrossId::X1, CrossId::X3]
    } else {
        CrossId::ALL.to_vec()
    };
    let mut mutants: Vec<Mutant> = presets();
    let preset_total = mutants.len();
    let generated: Vec<Mutant> = if opts.smoke {
        generate(&config)
            .into_iter()
            .filter(|m| SMOKE_GENERATED.contains(&Mutation::name(m).as_str()))
            .collect()
    } else {
        generate(&config)
    };
    let generated_total = generated.len();
    mutants.extend(generated);

    println!(
        "cross_check: {} tests x {} mutants ({} presets + {} generated) x 2 directions, \
         sources={}, floor={}%, order={}{}",
        tests.len(),
        mutants.len(),
        preset_total,
        generated_total,
        config.sources,
        opts.floor,
        opts.order_name,
        if opts.smoke { " [smoke]" } else { "" }
    );

    let start = Instant::now();
    let matrix = run_cross_kill_matrix_with(config, &mutants, &tests, |name| {
        Verifier::new(name)
            .workers(opts.workers)
            .explore_order(opts.order)
    });
    let seconds = start.elapsed().as_secs_f64();

    let mut ok = true;
    for b in &matrix.baseline {
        println!(
            "baseline {}: {} ({} paths, {} fork sites, {} directions)",
            b.test,
            if b.passed { "pass" } else { "FAIL" },
            b.paths,
            b.branch_sites,
            b.branches_covered
        );
        if !b.passed {
            println!(
                "MISMATCH: baseline {} fails — the fixed models are not equivalent",
                b.test
            );
            ok = false;
        }
    }

    let preset_killed = matrix
        .mutants
        .iter()
        .filter(|m| m.preset && m.killed())
        .count();
    let generated_killed = matrix
        .mutants
        .iter()
        .filter(|m| !m.preset && m.killed())
        .count();
    for m in &matrix.mutants {
        let mut by = Vec::new();
        for (side, cells) in [("cycle", &m.cycle_cells), ("tlm", &m.tlm_cells)] {
            for (t, c) in tests.iter().zip(cells) {
                if c.killed {
                    by.push(format!("{t}@{side}({})", c.distinct_errors));
                }
            }
        }
        println!(
            "mutant {:24} {}",
            m.name,
            if by.is_empty() {
                "SURVIVED".to_string()
            } else {
                format!("killed by {}", by.join(" "))
            }
        );
    }

    // The uniqueness claim: mutants the committed TLM-only matrix lists
    // as survivors, killed here by equivalence alone.
    let unique: Vec<String> = tlm_survivors()
        .into_iter()
        .filter(|name| matrix.killed_mutant(name))
        .collect();
    let stuck_enable_1_killed = matrix.killed_mutant("stuck_enable_1");
    println!(
        "kill rate {:.1}% ({} presets, {} generated killed); \
         unique vs TLM-only matrix: [{}]; {seconds:.1}s",
        matrix.kill_rate(),
        preset_killed,
        generated_killed,
        unique.join(", ")
    );

    if unique.is_empty() {
        println!(
            "MISMATCH: no TLM-matrix survivor is killed by equivalence \
             (the cross-level suite's unique contribution is gone)"
        );
        ok = false;
    }
    if !stuck_enable_1_killed {
        println!("MISMATCH: stuck_enable_1 survived the cross-level suite");
        ok = false;
    }
    if matrix.kill_rate() < opts.floor {
        println!(
            "MISMATCH: kill rate {:.1}% below the {}% floor",
            matrix.kill_rate(),
            opts.floor
        );
        ok = false;
    }

    // The determinism contract: the reduced matrix renders byte-identical
    // stable views at 1/2/8 workers across both fork strategies and two
    // exploration orders.
    let ident_mutants: Vec<Mutant> = mutants
        .iter()
        .filter(|m| ["stuck_enable_1", "cmp_never"].contains(&Mutation::name(*m).as_str()))
        .cloned()
        .collect();
    let ident_tests = [CrossId::X1, CrossId::X3];
    let reference = run_cross_kill_matrix_with(config, &ident_mutants, &ident_tests, |name| {
        Verifier::new(name).workers(1)
    })
    .stable_view();
    let mut reports_identical = true;
    for (workers, fork, order, label) in [
        (
            2,
            ForkStrategy::CowSnapshot,
            ExploreOrder::Exhaustive,
            "w2/cow/exhaustive",
        ),
        (
            8,
            ForkStrategy::CowSnapshot,
            ExploreOrder::MergeEager,
            "w8/cow/eager",
        ),
        (
            2,
            ForkStrategy::Reexec,
            ExploreOrder::Exhaustive,
            "w2/reexec/exhaustive",
        ),
        (
            8,
            ForkStrategy::Reexec,
            ExploreOrder::MergeEager,
            "w8/reexec/eager",
        ),
    ] {
        let view = run_cross_kill_matrix_with(config, &ident_mutants, &ident_tests, |name| {
            Verifier::new(name)
                .workers(workers)
                .fork_strategy(fork)
                .explore_order(order)
        })
        .stable_view();
        if view != reference {
            println!("MISMATCH: stable view differs at {label}");
            reports_identical = false;
            ok = false;
        }
    }
    println!(
        "determinism: reduced matrix {} across 1/2/8 workers x fork strategies x orders",
        if reports_identical {
            "byte-identical"
        } else {
            "DIVERGED"
        }
    );

    if let Some(path) = &opts.emit {
        let mut json = String::from("{\n  \"harness\": \"cross_check\",\n");
        let _ = writeln!(json, "  \"smoke\": {},", opts.smoke);
        let _ = writeln!(json, "  \"order\": \"{}\",", opts.order_name);
        let _ = writeln!(
            json,
            "  \"config\": {{\"sources\": {}, \"max_priority\": {}}},",
            config.sources, config.max_priority
        );
        let names: Vec<String> = tests.iter().map(|t| format!("\"{t}\"")).collect();
        let _ = writeln!(json, "  \"tests\": [{}],", names.join(", "));
        let _ = writeln!(json, "  \"mutants_total\": {},", matrix.mutants.len());
        let _ = writeln!(
            json,
            "  \"mutants_killed\": {},",
            preset_killed + generated_killed
        );
        let _ = writeln!(json, "  \"kill_rate\": {:.2},", matrix.kill_rate());
        let _ = writeln!(json, "  \"presets_total\": {preset_total},");
        let _ = writeln!(json, "  \"presets_killed\": {preset_killed},");
        let _ = writeln!(json, "  \"generated_total\": {generated_total},");
        let _ = writeln!(json, "  \"generated_killed\": {generated_killed},");
        let _ = writeln!(
            json,
            "  \"stuck_enable_1_killed\": {stuck_enable_1_killed},"
        );
        let uq: Vec<String> = unique
            .iter()
            .map(|n| format!("\"{}\"", json_escape(n)))
            .collect();
        let _ = writeln!(json, "  \"unique_kills\": [{}],", uq.join(", "));
        let _ = writeln!(
            json,
            "  \"baseline_passed\": {},",
            matrix.baseline.iter().all(|b| b.passed)
        );
        let _ = writeln!(json, "  \"reports_identical\": {reports_identical},");
        let _ = writeln!(json, "  \"survivors\": [");
        let survivors = matrix.survivors();
        for (i, m) in survivors.iter().enumerate() {
            let _ = writeln!(
                json,
                "    {{\"name\": \"{}\", \"description\": \"{}\"}}{}",
                json_escape(&m.name),
                json_escape(&m.description),
                if i + 1 == survivors.len() { "" } else { "," }
            );
        }
        let _ = writeln!(json, "  ],");
        let _ = writeln!(json, "  \"per_test\": [");
        for (i, b) in matrix.baseline.iter().enumerate() {
            let kills = matrix
                .mutants
                .iter()
                .filter(|m| {
                    tests
                        .iter()
                        .position(|&t| t == b.test)
                        .is_some_and(|col| m.cycle_cells[col].killed || m.tlm_cells[col].killed)
                })
                .count();
            let _ = writeln!(
                json,
                "    {{\"test\": \"{}\", \"kills\": {kills}, \"baseline_paths\": {}, \
                 \"branch_sites\": {}, \"branches_covered\": {}}}{}",
                b.test,
                b.paths,
                b.branch_sites,
                b.branches_covered,
                if i + 1 == matrix.baseline.len() {
                    ""
                } else {
                    ","
                }
            );
        }
        let _ = writeln!(json, "  ],");
        let _ = writeln!(json, "  \"seconds\": {seconds:.1}");
        json.push_str("}\n");
        if let Err(e) = std::fs::write(path, json) {
            println!("MISMATCH: could not write {path}: {e}");
            ok = false;
        } else {
            println!("wrote {path}");
        }
    }

    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_committed_tlm_baseline_feeds_the_uniqueness_claim() {
        let survivors = tlm_survivors();
        assert!(
            survivors.contains(&"stuck_enable_1".to_string()),
            "the TLM-only matrix must still list stuck_enable_1 as a survivor \
             for the cross-level uniqueness claim to mean anything: {survivors:?}"
        );
    }
}
