//! `fuzz`: coverage-guided differential fuzzing of the fixed scaled
//! FE310 on two lanes — TLM against the reference model (`tlm`) and the
//! cycle-level model against the TLM model (`cycle`, the `rtl` layer).
//! `fuzz_firmware` runs the third lane, driver firmware on the ISS
//! against a golden machine (`iss`). Each lane starts from its dictionary, uses the
//! workload seed and a fixed execution budget; the final corpora are then
//! replayed input by input to time single executions. No exec issues a
//! solver query, so this workload is predicted not to move under solver
//! changes.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use symsc_fuzz::{
    cycle_differential_bench, dictionary, differential_bench, firmware_dictionary,
    firmware_differential_bench, run_cycle_input, run_firmware_input, run_input, FuzzReport,
    Fuzzer, InputRunner, Program,
};
use symsc_plic::{PlicConfig, PlicVariant};
use symsc_symex::{Explorer, Report};

use crate::arith::{admit_rate, median, ratio, tail};
use crate::common::{
    cpu_s, median_of, metric, timed_setup, Ctx, LayerTotals, Metric, Outcome, Prediction,
};
use crate::trace::Tracer;

/// Execution budget of each lane campaign (rounded up to whole rounds).
pub const EXECS_PER_LANE: u64 = 4096;
/// Seconds of `--seconds` per sub-seeded pass: a run makes
/// `ceil(seconds / SECONDS_PER_PASS)` passes, each over every lane with
/// its own seed derived from the workload seed. Averaging over distinct
/// inputs keeps one run's figure from hinging on one corpus.
pub const SECONDS_PER_PASS: f64 = 5.0;
/// Single-exec latency samples per lane in the corpus replay.
pub const REPLAY_SAMPLES_PER_LANE: usize = 1000;

/// A differential fuzz lane.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// TLM model against the reference PLIC.
    Tlm,
    /// Cycle-level model against the TLM model.
    Cycle,
    /// Driver firmware on the ISS against the golden machine.
    Firmware,
}

impl Lane {
    fn name(self) -> &'static str {
        match self {
            Lane::Tlm => "tlm",
            Lane::Cycle => "cycle",
            Lane::Firmware => "firmware",
        }
    }

    fn runner(self) -> InputRunner {
        match self {
            Lane::Tlm => run_input,
            Lane::Cycle => run_cycle_input,
            Lane::Firmware => run_firmware_input,
        }
    }

    fn dictionary(self, config: &PlicConfig) -> Vec<Vec<u8>> {
        match self {
            Lane::Tlm | Lane::Cycle => dictionary(config),
            Lane::Firmware => firmware_dictionary(config),
        }
    }

    /// The concolic trace the lane's runner performs, with its stats.
    fn trace(self, config: PlicConfig, input: &[u8]) -> Report {
        let program = Program::decode(input);
        let assignment = program.to_assignment();
        let explorer = Explorer::new();
        let len = program.len();
        match self {
            Lane::Tlm => explorer.trace(&assignment, differential_bench(config, len)),
            Lane::Cycle => explorer.trace(&assignment, cycle_differential_bench(config, len)),
            Lane::Firmware => explorer.trace(&assignment, firmware_differential_bench(config, len)),
        }
    }
}

/// The `fuzz` workload's lanes. The firmware lane is not among them: on
/// the fixed model it diverges from its golden machine (a `Fuzzer` seeded
/// 1 diverges at exec 13), so it runs as the separate `fuzz_firmware`
/// workload, which reports the divergences.
pub const FUZZ_LANES: [Lane; 2] = [Lane::Tlm, Lane::Cycle];

struct Plan {
    config: PlicConfig,
    lanes: Vec<(Lane, Vec<Vec<u8>>)>,
}

fn plan(lanes: &[Lane]) -> Plan {
    let config = PlicConfig::fe310_scaled().variant(PlicVariant::Fixed);
    let lanes = lanes.iter().map(|&l| (l, l.dictionary(&config))).collect();
    Plan { config, lanes }
}

/// One pass over the lanes: Σ `Fuzzer::run` wall time and each
/// lane's wall time and report.
struct Pass {
    verdict_s: f64,
    cpu_s: f64,
    lanes: Vec<(f64, FuzzReport)>,
}

/// The seed of pass `k` of a run with workload seed `seed` (splitmix64).
fn pass_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(k + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn fuzz_pass(ctx: &Ctx, plan: &Plan, seed: u64) -> Pass {
    let tracer = &ctx.tracer;
    tracer.span("fuzz", None, |root| {
        let cpu0 = cpu_s();
        let lanes: Vec<(f64, FuzzReport)> = plan
            .lanes
            .iter()
            .map(|(lane, dict)| {
                let fuzzer = Fuzzer::new(plan.config)
                    .seed(seed)
                    .workers(ctx.nproc)
                    .max_execs(EXECS_PER_LANE)
                    .seeds(dict.clone())
                    .runner(lane.runner());
                tracer.span(&format!("fuzz.{}.run", lane.name()), root, |_| {
                    let t = Instant::now();
                    let report = fuzzer.run();
                    (t.elapsed().as_secs_f64(), report)
                })
            })
            .collect();
        Pass {
            verdict_s: lanes.iter().map(|(s, _)| s).sum(),
            cpu_s: cpu_s() - cpu0,
            lanes,
        }
    })
}

fn judge(plan: &Plan, pass: &Pass, out: &mut Outcome) -> BTreeMap<String, u64> {
    let mut counts = BTreeMap::new();
    for ((lane, _), (_, report)) in plan.lanes.iter().zip(&pass.lanes) {
        // Every finding is at least one exec that diverged on the fixed
        // model, where no divergence is the known answer.
        out.attempted += report.execs;
        out.failed += report.findings.len() as u64;
        for f in &report.findings {
            out.notes.push(format!(
                "{}: exec {} diverged: {}",
                lane.name(),
                f.exec,
                f.message
            ));
        }
        let n = lane.name();
        counts.insert(format!("fuzz.{n}.execs"), report.execs);
        counts.insert(format!("fuzz.{n}.corpus_len"), report.corpus.len() as u64);
        counts.insert(
            format!("fuzz.{n}.coverage_points"),
            report.coverage.len() as u64,
        );
        counts.insert(format!("fuzz.{n}.findings"), report.findings.len() as u64);
    }
    counts
}

/// Replays each lane's final corpus input by input (all of it, cycling
/// until the lane has at least [`REPLAY_SAMPLES_PER_LANE`] samples) and
/// returns the per-lane latencies in microseconds. Checks every replayed input
/// is divergence-free and that one cycle through a corpus re-covers the
/// lane's whole coverage map.
fn replay(tracer: &Tracer, plan: &Plan, pass: &Pass, out: &mut Outcome) -> Vec<Vec<f64>> {
    tracer.span("replay", None, |root| {
        plan.lanes
            .iter()
            .zip(&pass.lanes)
            .map(|((lane, _), (_, report))| {
                let wanted = REPLAY_SAMPLES_PER_LANE.max(report.corpus.len());
                let mut samples = Vec::with_capacity(wanted);
                let mut covered = BTreeSet::new();
                let name = format!("exec.{}", lane.name());
                for (i, input) in report.corpus.iter().cycle().take(wanted).enumerate() {
                    let outcome = tracer.span(&name, root, |_| {
                        let t = Instant::now();
                        let outcome = lane.runner()(plan.config, input);
                        samples.push(t.elapsed().as_secs_f64() * 1e6);
                        outcome
                    });
                    out.attempted += 1;
                    if !outcome.errors.is_empty() {
                        out.failed += 1;
                        out.notes.push(format!("{}: replay diverged", lane.name()));
                    }
                    if i < report.corpus.len() {
                        covered.extend(outcome.coverage);
                    }
                }
                if covered != report.coverage {
                    out.failed += 1;
                    out.notes.push(format!(
                        "{}: corpus replay covers {} points, the campaign {}",
                        lane.name(),
                        covered.len(),
                        report.coverage.len()
                    ));
                }
                samples
            })
            .collect()
    })
}

/// Re-executes each lane's corpus as the concolic trace its runner
/// performs, to read the `ExplorationStats` the runner does not return.
fn trace_stats(plan: &Plan, pass: &Pass) -> LayerTotals {
    let mut totals = LayerTotals::default();
    for ((lane, _), (_, report)) in plan.lanes.iter().zip(&pass.lanes) {
        for input in &report.corpus {
            totals.add(&lane.trace(plan.config, input).stats, true);
        }
    }
    totals
}

fn latency_metrics(prefix: &str, samples: &[f64]) -> Vec<Metric> {
    let mut m = vec![
        metric(
            format!("{prefix}p50_us"),
            median(samples).unwrap_or(0.0),
            "us",
        ),
        metric(format!("{prefix}samples"), samples.len() as f64, "count"),
    ];
    if let Some((pct, value)) = tail(samples) {
        m.push(metric(format!("{prefix}tail_us"), value, "us"));
        m.push(metric(format!("{prefix}tail_pct"), pct, "%"));
    }
    m
}

/// Runs the workload on `lanes`.
pub fn run(ctx: &Ctx, lanes: &[Lane]) -> Outcome {
    let (setup_s, plan) = timed_setup(ctx.t0, |_| plan(lanes));
    let mut out = Outcome::default();
    let n_passes = (ctx.seconds / SECONDS_PER_PASS).ceil().max(1.0) as u64;
    let passes: Vec<Pass> = (0..n_passes)
        .map(|k| fuzz_pass(ctx, &plan, pass_seed(ctx.seed, k)))
        .collect();
    for pass in &passes {
        for (name, value) in judge(&plan, pass, &mut out) {
            *out.counts.entry(name).or_default() += value;
        }
    }
    let last = passes.last().expect("one pass");
    let samples = replay(&ctx.tracer, &plan, last, &mut out);

    let wall_s: f64 = passes.iter().map(|p| p.verdict_s).sum();
    let execs: u64 = passes
        .iter()
        .flat_map(|p| &p.lanes)
        .map(|(_, r)| r.execs)
        .sum();
    out.end_to_end = vec![
        metric("setup_s", setup_s, "s"),
        metric("verdict_s", median_of(&passes, |p| p.verdict_s), "s"),
        metric("verdict_cpu_s", median_of(&passes, |p| p.cpu_s), "s"),
        metric("execs_per_s", ratio(execs as f64, wall_s), "execs/s"),
        metric("passes", passes.len() as f64, "count"),
    ];
    out.end_to_end
        .extend(latency_metrics("exec_", &samples.concat()));
    if !ctx.tracer.on() {
        return out;
    }

    let totals = trace_stats(&plan, last);
    for (name, value) in totals.counts() {
        out.counts.insert(name.to_string(), value);
    }
    out.per_layer = totals.metrics();
    for (((lane, _), (secs, report)), lane_samples) in
        plan.lanes.iter().zip(&last.lanes).zip(&samples)
    {
        let n = lane.name();
        let execs = report.execs;
        let corpus = report.corpus.len() as u64;
        out.per_layer.extend([
            metric(format!("fuzz.{n}.execs"), execs as f64, "count"),
            metric(
                format!("fuzz.{n}.execs_per_s"),
                ratio(execs as f64, *secs),
                "execs/s",
            ),
            metric(format!("fuzz.{n}.corpus_len"), corpus as f64, "count"),
            metric(
                format!("fuzz.{n}.coverage_points"),
                report.coverage.len() as f64,
                "count",
            ),
            metric(
                format!("fuzz.{n}.findings"),
                report.findings.len() as f64,
                "count",
            ),
            metric(
                format!("fuzz.{n}.admit_rate"),
                admit_rate(corpus, execs),
                "ratio",
            ),
        ]);
        out.per_layer
            .extend(latency_metrics(&format!("exec.{n}."), lane_samples));
    }
    let queries = out
        .per_layer
        .iter()
        .find(|m| m.name == "smt.queries")
        .map_or(0.0, |m| m.value);
    out.predictions.push(Prediction {
        claim: "smt.queries = 0 on fuzz",
        holds: queries == 0.0,
        detail: format!("{queries} queries over the replayed corpora"),
    });
    out
}
