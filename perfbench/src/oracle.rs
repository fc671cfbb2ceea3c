//! Known answers. The `prove` verdicts come from the paper's Table 1
//! (T1–T5 on the faithful FE310) and from the fixed model passing every
//! cross-level and firmware test; the campaign and fuzz answers from the
//! mutation-testing setup (a clean baseline, every IF preset killed, no
//! divergence on the fixed model). None of them is read off a run.

use std::collections::BTreeSet;

use symsc_campaign::CampaignOutcome;
use symsc_symex::Report;

/// Expected distinct failures per `prove` test (empty = Pass), in run
/// order: the paper's Table 1, then X1–X3 and F1–F5 on the fixed model.
pub const PROVE_ANSWERS: [(&str, &[&str]); 13] = [
    ("T1", &["F1"]),
    ("T2", &[]),
    ("T3", &[]),
    ("T4", &["F2", "F3", "F5"]),
    ("T5", &["F3", "F4", "F5", "F6"]),
    ("X1", &[]),
    ("X2", &[]),
    ("X3", &[]),
    ("F1", &[]),
    ("F2", &[]),
    ("F3", &[]),
    ("F4", &[]),
    ("F5", &[]),
];

/// The paper's bug label for an error message (the check messages of the
/// six original bugs), `None` for anything else.
pub fn bug_label(message: &str) -> Option<&'static str> {
    const LABELS: [(&str, &str); 6] = [
        ("interrupt id out of range", "F1"),
        ("must be 4-byte aligned", "F2"),
        ("no register mapping", "F3"),
        ("does not allow this access mode", "F4"),
        ("runs past the register boundary", "F5"),
        ("without external interrupt in flight", "F6"),
    ];
    LABELS
        .iter()
        .find(|(needle, _)| message.contains(needle))
        .map(|&(_, label)| label)
}

/// Compares one exploration report with its known answer; `Some(reason)`
/// when they differ. An error outside the six labelled bugs, or a search
/// cut short by a budget, is a mismatch too.
pub fn check_verdict(expected: &[&str], report: &Report) -> Option<String> {
    if !report.completed {
        return Some("exploration truncated by a budget".to_string());
    }
    let mut found = BTreeSet::new();
    for error in report.distinct_errors() {
        match bug_label(&error.message) {
            Some(label) => {
                found.insert(label);
            }
            None => return Some(format!("unexpected error: {}", error.message)),
        }
    }
    let expected: BTreeSet<&str> = expected.iter().copied().collect();
    (found != expected).then(|| format!("expected {expected:?}, found {found:?}"))
}

/// The campaign's known answer, counted per job: a clean baseline, every
/// IF preset killed, and every planned job executed. Returns the failed
/// job count (all of them when the campaign returned an error) and the
/// reasons.
pub fn check_campaign(
    outcome: &Result<CampaignOutcome, String>,
    plan_size: u64,
) -> (u64, Vec<String>) {
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => return (plan_size, vec![format!("campaign error: {e}")]),
    };
    let Some(report) = outcome.report.as_ref().filter(|_| !outcome.halted) else {
        return (
            plan_size,
            vec!["campaign halted without a report".to_string()],
        );
    };
    let mut failed = 0;
    let mut reasons = Vec::new();
    if outcome.total != plan_size || outcome.queue.executed != plan_size {
        let missing = plan_size.saturating_sub(outcome.queue.executed).max(1);
        failed += missing;
        reasons.push(format!(
            "executed {} of {} jobs (plan {plan_size})",
            outcome.queue.executed, outcome.total
        ));
    }
    if !report.baseline_clean {
        failed += 1;
        reasons.push("baseline is not clean".to_string());
    }
    for row in &report.rows {
        if !(row.preset && row.killed()) {
            failed += 1;
            reasons.push(format!("mutant {} survived or is not a preset", row.name));
        }
    }
    if report.rows.len() != 6 {
        failed += 1;
        reasons.push(format!(
            "{} mutants, expected the 6 IF presets",
            report.rows.len()
        ));
    }
    (failed, reasons)
}

#[cfg(test)]
mod tests {
    use super::*;
    use symsc_plic::PlicConfig;
    use symsc_testbench::{run_test, SuiteParams, TestId};
    use symsysc_core::Verifier;

    fn answer(name: &str) -> &'static [&'static str] {
        PROVE_ANSWERS.iter().find(|(n, _)| *n == name).unwrap().1
    }

    #[test]
    fn labels_cover_the_six_original_bugs() {
        assert_eq!(bug_label("interrupt id out of range (id 17)"), Some("F1"));
        assert_eq!(
            bug_label("write without external interrupt in flight"),
            Some("F6")
        );
        assert_eq!(bug_label("something else"), None);
    }

    #[test]
    fn a_missing_or_extra_bug_fails_the_oracle() {
        // T1 finds F1 on the faithful model; expecting Pass must fail, and
        // so must expecting an extra bug.
        let report = run_test(
            TestId::T1,
            PlicConfig::fe310_scaled(),
            &SuiteParams::default(),
            &Verifier::new("T1").workers(1),
        )
        .report;
        assert_eq!(check_verdict(answer("T1"), &report), None);
        assert!(check_verdict(&[], &report).is_some());
        assert!(check_verdict(&["F1", "F6"], &report).is_some());
    }

    #[test]
    fn a_failed_campaign_counts_every_job() {
        let (failed, reasons) = check_campaign(&Err("boom".to_string()), 58);
        assert_eq!(failed, 58);
        assert_eq!(reasons.len(), 1);
    }
}
