//! `symsc-perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload prove|campaign|fuzz --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload, checks every output against a known answer, prints
//! every metric by name with its unit, and ends with one JSON line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}` holding
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics of the
//! traced run (`--trace 1`). Exits 1 when any output or repeated count is
//! wrong. See `README.md` for the metrics and workloads.

mod arith;
mod campaign;
mod common;
mod fuzz;
mod oracle;
mod prove;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use crate::arith::{fnv64, ratio};
use crate::common::{
    cpu_s, metric, peak_rss_mb, record_verdict, recorded_verdict, repeat_check, Ctx, Metric,
    WORK_DIR,
};
use crate::trace::Tracer;

/// End-to-end metrics every workload reports (`BENCHMARK.json`). The
/// time to a verdict is gated as CPU time: on a shared host the wall
/// time also carries the CPU the hypervisor steals (`verdict_s` is
/// printed beside it).
const END_TO_END: [&str; 3] = ["setup_s", "verdict_cpu_s", "peak_rss_mb"];

/// Per-layer metrics every workload's traced run reports
/// (`BENCHMARK.json`). Workload-specific layers (`test.*`, `fuzz.*`,
/// `exec.*`, `campaign.*`) are printed and traced but only on the
/// workload they belong to.
const PER_LAYER: [&str; 20] = [
    "smt.busy_s",
    "smt.queries",
    "smt.sat_core_calls",
    "smt.s_per_core_call",
    "smt.above_core_rate",
    "smt.cache_hits",
    "smt.slice_hits",
    "smt.cex_subset_hits",
    "smt.model_reuse_hits",
    "smt.assumption_solves",
    "smt.restarts",
    "symex.paths",
    "symex.executed_paths",
    "symex.instructions",
    "symex.decisions",
    "symex.fork_snapshots",
    "symex.fast_forward_decisions",
    "symex.self_s",
    "proc.cpu_s",
    "trace.overhead_s",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

fn print_metrics(section: &str, metrics: &[Metric]) {
    for m in metrics {
        println!("{section} {} = {} {}", m.name, m.value, m.unit);
    }
}

fn json_metrics(metrics: &[Metric], names: &[&str]) -> Result<String, String> {
    let fields = names
        .iter()
        .map(|name| {
            let m = metrics
                .iter()
                .find(|m| m.name == *name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            Ok(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.value, m.unit
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(format!("{{{}}}", fields.join(", ")))
}

/// Identifies the benchmark build, so counts recorded by one build are
/// never compared with another build's.
fn build_id() -> u64 {
    std::env::current_exe()
        .and_then(std::fs::read)
        .map_or(0, |bytes| fnv64(&bytes))
}

fn main() -> ExitCode {
    let t0 = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(WORK_DIR);
    let scratch = work.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        t0,
        tracer: Tracer::new(args.trace),
        scratch,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let mut out = match args.workload.as_str() {
        "prove" => prove::run(&ctx),
        "campaign" => campaign::run(&ctx),
        "fuzz" => fuzz::run(&ctx, &fuzz::FUZZ_LANES),
        "fuzz_firmware" => fuzz::run(&ctx, &[fuzz::Lane::Firmware]),
        other => {
            eprintln!(
                "perfbench: unknown workload {other:?} (prove, campaign, fuzz, fuzz_firmware)"
            );
            let _ = std::fs::remove_dir_all(&ctx.scratch);
            return ExitCode::from(2);
        }
    };
    out.end_to_end
        .push(metric("peak_rss_mb", peak_rss_mb(), "MB"));
    out.end_to_end.push(metric(
        "failed_share",
        ratio(out.failed as f64, out.attempted as f64),
        "ratio",
    ));
    let build = format!("{}-{:016x}", args.workload, build_id());
    // The counts are a function of the seed and (for fuzz, through the
    // number of passes) of the measurement budget.
    let inputs = format!("{build}-{}-{}", args.seed, args.seconds);
    out.notes.extend(repeat_check(&work, &inputs, &out.counts));
    let verdict_s = out
        .end_to_end
        .iter()
        .find(|m| m.name == "verdict_s")
        .map(|m| m.value);
    if args.trace {
        out.per_layer.push(metric("proc.cpu_s", cpu_s(), "s"));
        out.per_layer
            .push(metric("trace.overhead_s", ctx.tracer.overhead_s(), "s"));
        // The same overhead seen end to end: this traced run against the
        // untraced runs of this build (noisier; absent until one ran).
        if let (Some(traced), Some(untraced)) = (verdict_s, recorded_verdict(&work, &build)) {
            out.per_layer
                .push(metric("trace.verdict_delta_s", traced - untraced, "s"));
        }
        let path = work.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = ctx.tracer.write(&path) {
            out.notes
                .push(format!("cannot write {}: {e}", path.display()));
        }
    } else if let Some(v) = verdict_s {
        if let Err(e) = record_verdict(&work, &build, v) {
            out.notes.push(format!("cannot record verdict_s: {e}"));
        }
    }
    let _ = std::fs::remove_dir_all(&ctx.scratch);

    println!(
        "workload {} seed {} seconds {} trace {} nproc {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        ctx.nproc
    );
    print_metrics("end_to_end", &out.end_to_end);
    print_metrics("per_layer", &out.per_layer);
    for (name, value) in &out.counts {
        println!("count {name} = {value}");
    }
    for p in &out.predictions {
        let verdict = if p.holds { "holds" } else { "FAILS" };
        println!("prediction {} : {verdict} ({})", p.claim, p.detail);
    }
    for note in &out.notes {
        eprintln!("perfbench: FAILED CHECK: {note}");
    }
    let (metrics, names): (&[Metric], &[&str]) = if args.trace {
        (&out.per_layer, &PER_LAYER)
    } else {
        (&out.end_to_end, &END_TO_END)
    };
    let metrics = match json_metrics(metrics, names) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let correct = out.failed == 0 && out.notes.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        out.attempted, out.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
