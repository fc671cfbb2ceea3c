//! `prove`: the single-user "how long until I have a verdict" case.
//! Paper T1–T5 on the faithful FE310 at 16 sources and 32 priority
//! levels, then X1–X3 (cross-level) and F1–F5 (firmware) on the fixed
//! scaled FE310, every test on one explorer worker. The exploration is
//! exhaustive, so the seed does not change the inputs.

use std::collections::BTreeMap;
use std::time::Instant;

use symsc_firmware::{run_firmware_test, FirmwareId};
use symsc_plic::{PlicConfig, PlicVariant};
use symsc_symex::Report;
use symsc_testbench::{run_cross_test, run_test, CrossId, SuiteParams, TestId};
use symsysc_core::Verifier;

use crate::arith::ratio;
use crate::common::{
    cpu_s, median_of, metric, repeat_units, same_counts, timed_setup, Ctx, LayerTotals, Outcome,
    Prediction,
};
use crate::oracle::{check_verdict, PROVE_ANSWERS};
use crate::trace::Tracer;

#[derive(Clone, Copy)]
enum Test {
    Tlm(TestId),
    Cross(CrossId),
    Firmware(FirmwareId),
}

impl Test {
    fn name(self) -> &'static str {
        match self {
            Test::Tlm(t) => t.name(),
            Test::Cross(x) => x.name(),
            Test::Firmware(f) => f.name(),
        }
    }
}

/// Everything set up before the first timed call.
struct Plan {
    faithful: PlicConfig,
    fixed: PlicConfig,
    params: SuiteParams,
    tests: Vec<(Test, Verifier, &'static [&'static str])>,
}

fn plan() -> Plan {
    let tests = TestId::ALL
        .into_iter()
        .map(Test::Tlm)
        .chain(CrossId::ALL.into_iter().map(Test::Cross))
        .chain(FirmwareId::ALL.into_iter().map(Test::Firmware))
        .zip(PROVE_ANSWERS)
        .map(|(test, (name, answer))| {
            assert_eq!(test.name(), name, "answer table out of run order");
            (test, Verifier::new(name).workers(1), answer)
        })
        .collect();
    Plan {
        faithful: PlicConfig {
            sources: 16,
            ..PlicConfig::fe310()
        },
        fixed: PlicConfig::fe310_scaled().variant(PlicVariant::Fixed),
        params: SuiteParams::default(),
        tests,
    }
}

fn run_one(plan: &Plan, test: Test, verifier: &Verifier) -> Report {
    match test {
        Test::Tlm(t) => run_test(t, plan.faithful, &plan.params, verifier).report,
        Test::Cross(x) => run_cross_test(x, plan.fixed, plan.fixed, verifier).report,
        Test::Firmware(f) => run_firmware_test(f, plan.fixed, verifier).report,
    }
}

/// One suite pass: the wall time from the first test call to the 13th
/// verdict, plus each test's report and wall time.
struct Pass {
    verdict_s: f64,
    cpu_s: f64,
    reports: Vec<(&'static str, f64, Report)>,
}

fn suite_pass(tracer: &Tracer, plan: &Plan) -> Pass {
    tracer.span("prove", None, |root| {
        let start = Instant::now();
        let cpu0 = cpu_s();
        let reports = plan
            .tests
            .iter()
            .map(|(test, verifier, _)| {
                let name = test.name();
                tracer.span(&format!("test.{name}"), root, |_| {
                    let t = Instant::now();
                    let report = run_one(plan, *test, verifier);
                    (name, t.elapsed().as_secs_f64(), report)
                })
            })
            .collect();
        Pass {
            verdict_s: start.elapsed().as_secs_f64(),
            cpu_s: cpu_s() - cpu0,
            reports,
        }
    })
}

fn judge(plan: &Plan, pass: &Pass, out: &mut Outcome) -> BTreeMap<String, u64> {
    let mut totals = LayerTotals::default();
    let mut counts = BTreeMap::new();
    for ((_, _, answer), (name, _, report)) in plan.tests.iter().zip(&pass.reports) {
        out.attempted += 1;
        if let Some(why) = check_verdict(answer, report) {
            out.failed += 1;
            out.notes.push(format!("{name}: {why}"));
        }
        totals.add(&report.stats, true);
        counts.insert(format!("test.{name}.paths"), report.stats.paths);
    }
    for (name, value) in totals.counts() {
        counts.insert(name.to_string(), value);
    }
    counts
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let (setup_s, plan) = timed_setup(ctx.t0, |_| plan());
    let mut out = Outcome::default();
    let passes = repeat_units(ctx.seconds, || suite_pass(&ctx.tracer, &plan));
    let mut unit_counts: Vec<_> = passes.iter().map(|p| judge(&plan, p, &mut out)).collect();
    out.notes.extend(same_counts(&unit_counts));
    out.counts = unit_counts.swap_remove(0);
    out.end_to_end = vec![
        metric("setup_s", setup_s, "s"),
        metric("verdict_s", median_of(&passes, |p| p.verdict_s), "s"),
        metric("verdict_cpu_s", median_of(&passes, |p| p.cpu_s), "s"),
        metric("passes", passes.len() as f64, "count"),
    ];
    if !ctx.tracer.on() {
        return out;
    }

    let pass = passes.last().expect("one pass");
    let mut totals = LayerTotals::default();
    for (_, _, report) in &pass.reports {
        totals.add(&report.stats, true);
    }
    out.per_layer = totals.metrics();
    for (name, secs, report) in &pass.reports {
        out.per_layer
            .push(metric(format!("test.{name}.s"), *secs, "s"));
        out.per_layer.push(metric(
            format!("test.{name}.paths"),
            report.stats.paths as f64,
            "count",
        ));
    }
    out.predictions.push(Prediction {
        claim: "smt.busy_s >= 0.9 * verdict_s on prove",
        holds: totals.smt_busy_s() >= 0.9 * pass.verdict_s,
        detail: format!(
            "{:.3} s of {:.3} s ({:.1} %)",
            totals.smt_busy_s(),
            pass.verdict_s,
            100.0 * ratio(totals.smt_busy_s(), pass.verdict_s)
        ),
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use symsc_plic::InjectedFault;

    #[test]
    fn a_wrong_verdict_makes_failed_share_positive() {
        // The oracle must not be vacuous: T2 run against an IF3 preset
        // (completion skips the re-trigger, so the second interrupt is
        // never delivered) fails where Table 1 says Pass.
        let plan = plan();
        let scaled = PlicConfig::fe310_scaled();
        let run = |test, config| run_test(test, config, &plan.params, &Verifier::new("T")).report;
        let t1 = run(TestId::T1, scaled);
        let failed_share = |t2: Report| {
            let pass = Pass {
                verdict_s: 0.0,
                cpu_s: 0.0,
                reports: vec![("T1", 0.0, t1.clone()), ("T2", 0.0, t2)],
            };
            let mut out = Outcome::default();
            judge(&plan, &pass, &mut out);
            assert_eq!(out.attempted, 2);
            ratio(out.failed as f64, out.attempted as f64)
        };
        assert_eq!(failed_share(run(TestId::T2, scaled)), 0.0);
        let wrong = run(TestId::T2, scaled.fault(InjectedFault::If3SkipRetrigger));
        assert_eq!(failed_share(wrong), 0.5);
    }
}
