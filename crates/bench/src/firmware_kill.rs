//! The firmware-in-the-loop mutation kill harness, shared between the
//! `firmware_kill` binary and `mutation_kill --suite firmware`.
//!
//! Runs the firmware suite F1–F5 (RV32I driver programs on the symbolic
//! ISS, talking to the TLM PLIC through the router) against the paper's
//! six fault presets plus the generated first-order mutant sweep, and
//! verifies:
//!
//! 1. **Baseline**: every firmware test passes on the unmutated fixed
//!    PLIC.
//! 2. **Unique kill**: `stuck_enable_1` — the enable-bit stuck-at-1
//!    mutant that survives the whole register-level suite T1–T5 because
//!    no TLM test ever *disables* a source — is killed (F5's racy driver
//!    masks source 1 and proves delivery stays off).
//! 3. **Sweep**: at least `generated_floor` generated mutants are killed
//!    and the overall kill rate does not drop below `floor`.
//!
//! The smoke matrix keeps the headline property checkable in CI time:
//! F1/F2/F5 against the presets plus a named slice of generated mutants
//! that includes `stuck_enable_1`.

use std::fmt::Write as _;
use std::time::Instant;

use symsc_firmware::{run_firmware_kill_matrix_with, FirmwareId};
use symsc_mutate::{generate, presets, Mutant};
use symsc_plic::{Mutation, PlicConfig, PlicVariant};
use symsc_symex::ExploreOrder;
use symsysc_core::Verifier;

/// The generated mutants the smoke matrix keeps: one per operator family
/// the firmware suite exercises differently from the TLM suite, plus the
/// headline `stuck_enable_1`.
const SMOKE_GENERATED: [&str; 6] = [
    "gateway_bound_p2",
    "drop_notify_1",
    "cmp_always",
    "cmp_never",
    "stuck_enable_1",
    "complete_keeps_eip",
];

/// Parsed harness options (the same flag set as `mutation_kill`).
pub struct FirmwareKillOptions {
    /// Reduced matrix for CI (F1/F2/F5 × presets + `SMOKE_GENERATED`).
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

impl Default for FirmwareKillOptions {
    fn default() -> Self {
        Self {
            smoke: false,
            floor: 80.0,
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

/// Runs the firmware kill matrix under `opts`; returns `false` on any
/// MISMATCH (baseline failure, missing headline kill, floor violation,
/// unwritable emission path).
pub fn run(opts: &FirmwareKillOptions) -> bool {
    let config = PlicConfig::fe310_scaled().variant(PlicVariant::Fixed);
    let tests: Vec<FirmwareId> = if opts.smoke {
        vec![FirmwareId::F1, FirmwareId::F2, FirmwareId::F5]
    } else {
        FirmwareId::ALL.to_vec()
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
        "firmware_kill: {} tests x {} mutants ({} presets + {} generated), \
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
    let matrix = run_firmware_kill_matrix_with(config, &mutants, &tests, |name| {
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
            println!("MISMATCH: baseline {} fails on the fixed PLIC", b.test);
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
        let by: Vec<String> = tests
            .iter()
            .zip(&m.cells)
            .filter(|(_, c)| c.killed)
            .map(|(t, c)| format!("{t}({})", c.distinct_errors))
            .collect();
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
    let kills = matrix.kills_per_test();
    for (t, k) in tests.iter().zip(&kills) {
        println!("test {t}: {k}/{} mutants killed", matrix.mutants.len());
    }
    let stuck_enable_1_killed = matrix.killed_mutant("stuck_enable_1");
    println!(
        "kill rate {:.1}% ({} presets, {} generated killed); \
         stuck_enable_1 {}; {seconds:.1}s",
        matrix.kill_rate(),
        preset_killed,
        generated_killed,
        if stuck_enable_1_killed {
            "killed"
        } else {
            "SURVIVED"
        }
    );

    if !stuck_enable_1_killed {
        println!(
            "MISMATCH: stuck_enable_1 survived the firmware suite \
             (the kill unique to firmware-in-the-loop is gone)"
        );
        ok = false;
    }
    let generated_floor = if opts.smoke { 4 } else { 20 };
    if generated_killed < generated_floor {
        println!(
            "MISMATCH: only {generated_killed} generated mutants killed \
             (need >= {generated_floor})"
        );
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

    if let Some(path) = &opts.emit {
        let mut json = String::from("{\n  \"harness\": \"firmware_kill\",\n");
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
        for (i, (b, k)) in matrix.baseline.iter().zip(&kills).enumerate() {
            let _ = writeln!(
                json,
                "    {{\"test\": \"{}\", \"kills\": {k}, \"baseline_paths\": {}, \
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
