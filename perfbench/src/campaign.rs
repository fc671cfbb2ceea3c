//! `campaign`: the verification-as-a-service path. The smoke campaign
//! (six IF presets × T1–T3, four probes per mutant, fuzz lanes, confirm)
//! runs as one closed batch with every job queued up front, on `nproc`
//! queue workers. The traced run adds a root span around `start`, one
//! event per completed job, and a decomposed pass that runs every
//! planned job's body through the same public functions the orchestrator
//! uses, timing them by job kind.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use symsc_campaign::{
    plan, start, CampaignOutcome, CampaignReport, CampaignSpec, Job, JobKind, JobResult,
    ResolvedSpec, RunOptions, WireFinding, JOURNAL_FILE, REPORT_JSON, STORE_FILE,
};
use symsc_fuzz::{
    confirm_by_replay, confirm_by_trace, dictionary, minimize, scripted_bench,
    scripted_cycle_bench, Fuzzer, Probe, ProbeLane, Program,
};
use symsc_plic::Mutation;
use symsc_symex::{Explorer, Report};
use symsc_testbench::{run_test, SuiteParams};
use symsysc_core::Verifier;

use crate::arith::{cpu_util, fnv64, idle_s, ratio};
use crate::common::{
    cpu_s, median_of, metric, repeat_units, same_counts, timed_setup, Ctx, LayerTotals, Outcome,
};
use crate::oracle::check_campaign;

struct Plan {
    spec: CampaignSpec,
    resolved: ResolvedSpec,
    jobs: Vec<Job>,
}

fn campaign_plan(seed: u64) -> Plan {
    let spec = CampaignSpec::smoke(seed);
    let resolved = spec.resolve().expect("the smoke spec resolves");
    let jobs = plan(
        spec.tests.len(),
        resolved.probes.len(),
        resolved.mutants.len(),
    );
    Plan {
        spec,
        resolved,
        jobs,
    }
}

/// One `start` call and what it left behind.
struct Run {
    wall_s: f64,
    cpu_s: f64,
    outcome: Result<CampaignOutcome, String>,
    report_json: String,
    store_bytes: u64,
    journal_bytes: u64,
}

fn run_campaign(ctx: &Ctx, plan: &Plan, dir: &Path) -> Run {
    let tracer = &ctx.tracer;
    let options = RunOptions {
        workers: ctx.nproc,
        halt_after: None,
    };
    let cpu0 = cpu_s();
    let (wall_s, outcome) = tracer.span("campaign.start", None, |root| {
        let on_event =
            |e: &symsc_campaign::JobEvent| tracer.event(&format!("job.{}", e.label), root);
        let t = Instant::now();
        let outcome = start(dir, &plan.spec, &options, &on_event);
        (t.elapsed().as_secs_f64(), outcome)
    });
    let cpu_s = cpu_s() - cpu0;
    let size = |f: &str| std::fs::metadata(dir.join(f)).map_or(0, |m| m.len());
    Run {
        wall_s,
        cpu_s,
        report_json: std::fs::read_to_string(dir.join(REPORT_JSON)).unwrap_or_default(),
        store_bytes: size(STORE_FILE),
        journal_bytes: size(JOURNAL_FILE),
        outcome,
    }
}

fn judge(plan: &Plan, run: &Run, out: &mut Outcome) -> BTreeMap<String, u64> {
    let size = plan.jobs.len() as u64;
    let (failed, reasons) = check_campaign(&run.outcome, size);
    out.attempted += size;
    out.failed += failed;
    out.notes.extend(reasons);
    let executed = run.outcome.as_ref().map_or(0, |o| o.queue.executed);
    BTreeMap::from([
        ("campaign.executed".to_string(), executed),
        // Byte identity of report.json across units, runs and the traced
        // run, through the repeat check.
        (
            "campaign.report_fnv".to_string(),
            fnv64(run.report_json.as_bytes()),
        ),
    ])
}

/// The job kinds, in `campaign.busy_s.<kind>` order.
const KINDS: [&str; 4] = ["symtest", "probe", "fuzz", "confirm"];

fn kind_index(kind: &JobKind) -> usize {
    match kind {
        JobKind::SymTest { .. } => 0,
        JobKind::Probe { .. } => 1,
        JobKind::Fuzz { .. } => 2,
        JobKind::Confirm { .. } => 3,
    }
}

/// What the decomposed pass measured.
struct Decomposed {
    busy_s: [f64; 4],
    totals: LayerTotals,
    results: Vec<JobResult>,
}

/// One job's body, through the public functions the orchestrator's
/// `run_job` calls. A probe runs the bounded exploration behind
/// `Probe::run` directly, so its `ExplorationStats` are visible; its seeds
/// are derived exactly as `Probe::run` derives them.
fn job_body(
    plan: &Plan,
    id: usize,
    done: &[Option<JobResult>],
    totals: &Mutex<LayerTotals>,
) -> JobResult {
    let spec = &plan.spec;
    let resolved = &plan.resolved;
    let config = resolved.config;
    let mutated = |m: usize| config.mutate(resolved.mutants[m].op());
    let add = |report: &Report, single_worker: bool| {
        totals
            .lock()
            .expect("totals poisoned")
            .add(&report.stats, single_worker);
    };
    match &plan.jobs[id].kind {
        JobKind::SymTest { test, mutant } => {
            let test = spec.tests[*test];
            let config = mutant.map_or(config, mutated);
            let outcome = run_test(
                test,
                config,
                &SuiteParams::default(),
                &Verifier::new(test.name()).workers(1),
            );
            add(&outcome.report, true);
            JobResult::SymTest {
                passed: outcome.passed(),
                paths: outcome.report.stats.paths,
                errors: outcome
                    .report
                    .distinct_errors()
                    .iter()
                    .map(|e| (e.kind, e.message.clone()))
                    .collect(),
            }
        }
        JobKind::Probe { probe, mutant } => {
            let report = probe_exploration(&resolved.probes[*probe], mutated(*mutant));
            add(&report, false);
            let mut seen = BTreeSet::new();
            let pins = resolved.probes[*probe].pins.len();
            let seeds = report
                .distinct_errors()
                .iter()
                .map(|e| Program::from_assignment(&e.counterexample, pins).encode())
                .filter(|bytes| seen.insert(bytes.clone()))
                .collect();
            JobResult::Probe { seeds }
        }
        JobKind::Fuzz { mutant: None } => {
            let dict = dictionary(&config);
            let report = Fuzzer::new(config)
                .seed(spec.seed)
                .max_execs(spec.baseline_execs)
                .batch(spec.batch)
                .seeds(dict.clone())
                .run();
            let mut shared = dict;
            let mut seen: BTreeSet<Vec<u8>> = shared.iter().cloned().collect();
            for entry in minimize(config, &report.corpus) {
                if seen.insert(entry.clone()) {
                    shared.push(entry);
                }
            }
            JobResult::Fuzz {
                execs: report.execs,
                corpus: shared,
                coverage_points: report.coverage.len() as u64,
                findings: wire(&report.findings),
            }
        }
        JobKind::Fuzz { mutant: Some(m) } => {
            let deps = &plan.jobs[id].deps;
            let Some(JobResult::Fuzz { corpus, .. }) = &done[deps[0]] else {
                unreachable!("fuzz lane dep 0 is the baseline fuzz job");
            };
            let mut seeds = corpus.clone();
            let mut seen: BTreeSet<Vec<u8>> = seeds.iter().cloned().collect();
            let mut producers = deps[1..].to_vec();
            producers.sort_unstable();
            for p in producers {
                let Some(JobResult::Probe { seeds: s }) = &done[p] else {
                    unreachable!("fuzz lane deps 1.. are probes");
                };
                seeds.extend(s.iter().filter(|x| seen.insert((*x).clone())).cloned());
            }
            let report = Fuzzer::new(mutated(*m))
                .seed(spec.seed.wrapping_add(0x9E37 * (*m as u64 + 1)))
                .max_execs(spec.fuzz_execs)
                .batch(spec.batch)
                .seeds(seeds)
                .stop_on_finding(true)
                .run();
            JobResult::Fuzz {
                execs: report.execs,
                corpus: report.corpus,
                coverage_points: report.coverage.len() as u64,
                findings: wire(&report.findings),
            }
        }
        JobKind::Confirm { mutant } => {
            let Some(JobResult::Fuzz { findings, .. }) = &done[plan.jobs[id].deps[0]] else {
                unreachable!("confirm dep 0 is the mutant's fuzz lane");
            };
            let config = mutated(*mutant);
            let (mut confirmed_trace, mut confirmed_replay) = (0, 0);
            for finding in findings {
                let traced = confirm_by_trace(config, &finding.input);
                let replayed = confirm_by_replay(config, &finding.input);
                add(&traced, true);
                add(&replayed, true);
                confirmed_trace += u64::from(!traced.passed());
                confirmed_replay += u64::from(!replayed.passed());
            }
            JobResult::Confirm {
                findings: findings.len() as u64,
                confirmed_trace,
                confirmed_replay,
            }
        }
    }
}

/// The bounded exploration `Probe::run` performs (default explorer
/// workers, the probe's path budget).
fn probe_exploration(probe: &Probe, config: symsc_plic::PlicConfig) -> Report {
    let explorer = Explorer::new().max_paths(probe.max_paths);
    match probe.lane {
        ProbeLane::Tlm => explorer.explore(scripted_bench(config, probe.pins.clone())),
        ProbeLane::Cross => explorer.explore(scripted_cycle_bench(config, probe.pins.clone())),
    }
}

fn wire(findings: &[symsc_fuzz::Finding]) -> Vec<WireFinding> {
    findings
        .iter()
        .map(|f| WireFinding {
            kind: f.kind,
            message: f.message.clone(),
            input: f.input.clone(),
        })
        .collect()
}

/// Runs every planned job, wave by wave (a wave is every job whose
/// dependencies are done), each wave on `nproc` threads, timing each job
/// body under a span named after its kind.
fn decomposed_pass(ctx: &Ctx, plan: &Plan) -> Decomposed {
    let tracer = &ctx.tracer;
    let n = plan.jobs.len();
    let mut done: Vec<Option<JobResult>> = vec![None; n];
    let busy = Mutex::new([0.0f64; 4]);
    let totals = Mutex::new(LayerTotals::default());
    tracer.span("campaign.decomposed", None, |root| {
        while done.iter().any(Option::is_none) {
            let wave: Vec<usize> = (0..n)
                .filter(|&id| {
                    done[id].is_none() && plan.jobs[id].deps.iter().all(|d| done[*d].is_some())
                })
                .collect();
            let next = AtomicUsize::new(0);
            let results: Mutex<Vec<(usize, JobResult)>> = Mutex::new(Vec::new());
            let done_ref = &done;
            std::thread::scope(|scope| {
                for _ in 0..ctx.nproc.min(wave.len()) {
                    scope.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&id) = wave.get(i) else { break };
                        let kind = kind_index(&plan.jobs[id].kind);
                        let (secs, result) =
                            tracer.span(&format!("campaign.job.{}", KINDS[kind]), root, |_| {
                                let t = Instant::now();
                                let r = job_body(plan, id, done_ref, &totals);
                                (t.elapsed().as_secs_f64(), r)
                            });
                        busy.lock().expect("busy poisoned")[kind] += secs;
                        results.lock().expect("results poisoned").push((id, result));
                    });
                }
            });
            for (id, result) in results.into_inner().expect("results poisoned") {
                done[id] = Some(result);
            }
        }
    });
    Decomposed {
        busy_s: busy.into_inner().expect("busy poisoned"),
        totals: totals.into_inner().expect("totals poisoned"),
        results: done
            .into_iter()
            .map(|r| r.expect("every job ran"))
            .collect(),
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let (setup_s, (plan, dir)) = timed_setup(ctx.t0, |rep| {
        let plan = campaign_plan(ctx.seed);
        let dir: PathBuf = ctx.scratch.join(format!("campaign-{rep}"));
        std::fs::create_dir_all(&dir).expect("creating the campaign directory");
        (plan, dir)
    });
    let mut out = Outcome::default();
    let mut unit = 0;
    let runs = repeat_units(ctx.seconds, || {
        let d = if unit == 0 {
            dir.clone()
        } else {
            ctx.scratch.join(format!("unit-{unit}"))
        };
        unit += 1;
        run_campaign(ctx, &plan, &d)
    });
    let mut unit_counts: Vec<_> = runs.iter().map(|r| judge(&plan, r, &mut out)).collect();
    out.notes.extend(same_counts(&unit_counts));
    out.counts = unit_counts.swap_remove(0);
    let verdict_s = median_of(&runs, |r| r.wall_s);
    let jobs = plan.jobs.len() as f64;
    out.end_to_end = vec![
        metric("setup_s", setup_s, "s"),
        metric("verdict_s", verdict_s, "s"),
        metric("verdict_cpu_s", median_of(&runs, |r| r.cpu_s), "s"),
        metric("jobs_per_s", ratio(jobs, verdict_s), "jobs/s"),
        metric("passes", runs.len() as f64, "count"),
    ];
    if !ctx.tracer.on() {
        return out;
    }

    let traced = runs.last().expect("one run");
    let pass = decomposed_pass(ctx, &plan);
    let rebuilt = CampaignReport::build(&plan.resolved, &plan.jobs, &pass.results).render_json();
    if rebuilt != traced.report_json {
        out.failed += 1;
        out.notes
            .push("the decomposed pass does not rebuild the campaign's report".to_string());
    }
    for (name, value) in pass.totals.counts() {
        out.counts.insert(name.to_string(), value);
    }
    out.per_layer = pass.totals.metrics();
    let Ok(o) = &traced.outcome else {
        return out;
    };
    let report = o.report.as_ref();
    let busy: f64 = pass.busy_s.iter().sum();
    out.per_layer.extend([
        metric("campaign.executed", o.queue.executed as f64, "count"),
        metric("campaign.steals", o.queue.steals as f64, "count"),
        metric(
            "campaign.seeds_exchanged",
            report.map_or(0, |r| r.seeds_exchanged()) as f64,
            "count",
        ),
        metric(
            "campaign.findings_exchanged",
            report.map_or(0, |r| r.findings_exchanged()) as f64,
            "count",
        ),
    ]);
    for (kind, secs) in KINDS.iter().zip(pass.busy_s) {
        out.per_layer
            .push(metric(format!("campaign.busy_s.{kind}"), secs, "s"));
    }
    out.per_layer.extend([
        metric(
            "campaign.idle_s",
            idle_s(ctx.nproc, traced.wall_s, busy),
            "s",
        ),
        metric(
            "campaign.cpu_util",
            cpu_util(traced.cpu_s, traced.wall_s, ctx.nproc),
            "ratio",
        ),
        metric("campaign.store_bytes", traced.store_bytes as f64, "bytes"),
        metric(
            "campaign.journal_bytes",
            traced.journal_bytes as f64,
            "bytes",
        ),
    ]);
    out
}
