//! What every workload shares: the run context, metric records, the
//! per-layer totals read from `ExplorationStats`, the set-up and
//! timed-unit loops, process counters, and the exact-count repeat check.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use symsc_symex::ExplorationStats;

use crate::arith::{median, ratio};
use crate::trace::Tracer;

/// One named measurement with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name (`verdict_s`, `smt.queries`, …).
    pub name: String,
    /// Value, as measured.
    pub value: f64,
    /// Unit (`s`, `count`, `ratio`, …).
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Everything a workload run hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    /// Operations checked against a known answer.
    pub attempted: u64,
    /// Operations whose outcome differed from the known answer.
    pub failed: u64,
    /// Why each failure (or failed check) happened.
    pub notes: Vec<String>,
    /// End-to-end metrics (host time, tracing off).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced run only).
    pub per_layer: Vec<Metric>,
    /// Counts that must repeat exactly for one seed.
    pub counts: BTreeMap<String, u64>,
    /// Recorded predictions and whether they held (traced run).
    pub predictions: Vec<Prediction>,
}

/// A prediction the benchmark records about the seed code.
pub struct Prediction {
    /// What is predicted.
    pub claim: &'static str,
    /// Whether this run bears it out.
    pub holds: bool,
    /// The numbers behind the verdict.
    pub detail: String,
}

/// The run's fixed inputs.
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Process start (the origin of `setup_s`).
    pub t0: Instant,
    /// Span recorder (disabled unless `--trace 1`).
    pub tracer: Tracer,
    /// Scratch directory of this process (removed at exit).
    pub scratch: PathBuf,
    /// Hardware threads available.
    pub nproc: usize,
}

/// Work directory, relative to the directory the benchmark runs from
/// (the repository root): scratch campaigns, traces and recorded counts.
pub const WORK_DIR: &str = ".bench_work";

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 51;

/// Runs `setup` [`SETUP_REPS`] times and returns the median duration and
/// the last result. The first repetition is timed from process start.
pub fn timed_setup<T>(t0: Instant, mut setup: impl FnMut(usize) -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for rep in 0..SETUP_REPS {
        let start = if rep == 0 { t0 } else { Instant::now() };
        last = Some(setup(rep));
        times.push(start.elapsed().as_secs_f64());
    }
    (
        median(&times).expect("at least one set-up"),
        last.expect("at least one set-up"),
    )
}

/// Median of `f` over `items` (0 when empty).
pub fn median_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
}

/// Repeats a timed unit of work: at least once, and again while one more
/// unit (as long as the last one took) still fits in `seconds`.
pub fn repeat_units<T>(seconds: f64, mut unit: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        let t = Instant::now();
        out.push(unit());
        let last = t.elapsed().as_secs_f64();
        if start.elapsed().as_secs_f64() + last > seconds {
            return out;
        }
    }
}

/// Per-layer totals summed over exploration reports.
#[derive(Clone, Debug, Default)]
pub struct LayerTotals {
    smt_busy_s: f64,
    sat_core_s: f64,
    queries: u64,
    non_trivial: u64,
    above_core: u64,
    sat_core_calls: u64,
    cache_hits: u64,
    slice_hits: u64,
    cex_subset_hits: u64,
    model_reuse_hits: u64,
    assumption_solves: u64,
    restarts: u64,
    paths: u64,
    executed_paths: u64,
    instructions: u64,
    decisions: u64,
    fork_snapshots: u64,
    fast_forward_decisions: u64,
    symex_self_s: f64,
    /// Queries, core calls and paths of single-worker explorations.
    single_worker: [u64; 3],
}

impl LayerTotals {
    /// Adds one report's stats. `single_worker` marks explorations that
    /// ran on one thread: only for those is wall minus solver time the
    /// engine's own time, so only they feed `symex.self_s`.
    pub fn add(&mut self, stats: &ExplorationStats, single_worker: bool) {
        let s = &stats.solver;
        self.smt_busy_s += stats.solver_time.as_secs_f64();
        self.sat_core_s += s.sat_core_time.as_secs_f64();
        self.queries += s.queries;
        self.non_trivial += s.non_trivial();
        self.above_core += s.answered_above_core();
        self.sat_core_calls += s.sat_core_calls;
        self.cache_hits += s.cache_hits;
        self.slice_hits += s.slice_hits;
        self.cex_subset_hits += s.cex_subset_hits;
        self.model_reuse_hits += s.model_reuse_hits;
        self.assumption_solves += s.incremental.assumption_solves;
        self.restarts += s.incremental.restarts;
        self.paths += stats.paths;
        self.executed_paths += stats.executed_paths;
        self.instructions += stats.instructions;
        self.decisions += stats.decisions;
        self.fork_snapshots += stats.fork_snapshots;
        self.fast_forward_decisions += stats.fast_forward_decisions;
        if single_worker {
            self.symex_self_s +=
                (stats.time.as_secs_f64() - stats.solver_time.as_secs_f64()).max(0.0);
            self.single_worker[0] += s.queries;
            self.single_worker[1] += s.sat_core_calls;
            self.single_worker[2] += stats.paths;
        }
    }

    /// Solver worker-seconds (a per-worker sum, never a share of wall).
    pub fn smt_busy_s(&self) -> f64 {
        self.smt_busy_s
    }

    /// The counts that must repeat exactly for one seed: those of
    /// single-worker explorations. A multi-worker exploration's solver
    /// counts depend on how its workers interleave.
    pub fn counts(&self) -> [(&'static str, u64); 3] {
        [
            ("smt.queries.single_worker", self.single_worker[0]),
            ("smt.sat_core_calls.single_worker", self.single_worker[1]),
            ("symex.paths.single_worker", self.single_worker[2]),
        ]
    }

    /// The `smt.*` and `symex.*` per-layer metrics.
    pub fn metrics(&self) -> Vec<Metric> {
        let c = |v: u64| v as f64;
        vec![
            metric("smt.busy_s", self.smt_busy_s, "s"),
            metric("smt.queries", c(self.queries), "count"),
            metric("smt.sat_core_calls", c(self.sat_core_calls), "count"),
            metric(
                "smt.s_per_core_call",
                ratio(self.sat_core_s, c(self.sat_core_calls)),
                "s",
            ),
            metric(
                "smt.above_core_rate",
                ratio(c(self.above_core), c(self.non_trivial)),
                "ratio",
            ),
            metric("smt.cache_hits", c(self.cache_hits), "count"),
            metric("smt.slice_hits", c(self.slice_hits), "count"),
            metric("smt.cex_subset_hits", c(self.cex_subset_hits), "count"),
            metric("smt.model_reuse_hits", c(self.model_reuse_hits), "count"),
            metric("smt.assumption_solves", c(self.assumption_solves), "count"),
            metric("smt.restarts", c(self.restarts), "count"),
            metric("symex.paths", c(self.paths), "count"),
            metric("symex.executed_paths", c(self.executed_paths), "count"),
            metric("symex.instructions", c(self.instructions), "count"),
            metric("symex.decisions", c(self.decisions), "count"),
            metric("symex.fork_snapshots", c(self.fork_snapshots), "count"),
            metric(
                "symex.fast_forward_decisions",
                c(self.fast_forward_decisions),
                "count",
            ),
            metric("symex.self_s", self.symex_self_s, "s"),
        ]
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

/// CPU seconds (user + system, all threads, exited ones included) this
/// process has used so far.
pub fn cpu_s() -> f64 {
    const CLK_TCK: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / CLK_TCK
}

/// Checks `counts` against the counts an earlier run of the same
/// workload and seed left in `dir`, then records the union. Returns one
/// message per count that differs.
pub fn repeat_check(dir: &Path, key: &str, counts: &BTreeMap<String, u64>) -> Vec<String> {
    let path = dir.join(format!("counts-{key}.txt"));
    let mut known: BTreeMap<String, u64> = std::fs::read_to_string(&path)
        .unwrap_or_default()
        .lines()
        .filter_map(|l| {
            let (k, v) = l.split_once(' ')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect();
    let mut diffs = Vec::new();
    for (name, &value) in counts {
        match known.get(name) {
            Some(&before) if before != value => diffs.push(format!(
                "count {name} = {value}, but an earlier run of this seed counted {before}"
            )),
            Some(_) => {}
            None => {
                known.insert(name.clone(), value);
            }
        }
    }
    let text: String = known.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    if let Err(e) = std::fs::write(&path, text) {
        diffs.push(format!("cannot record counts in {}: {e}", path.display()));
    }
    diffs
}

/// Appends an untraced run's `verdict_s` to the record kept for `key`.
pub fn record_verdict(dir: &Path, key: &str, verdict_s: f64) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join(format!("verdicts-{key}.txt")))?;
    writeln!(f, "{verdict_s}")
}

/// Median `verdict_s` of the untraced runs recorded for `key`, if any.
pub fn recorded_verdict(dir: &Path, key: &str) -> Option<f64> {
    let text = std::fs::read_to_string(dir.join(format!("verdicts-{key}.txt"))).ok()?;
    let values: Vec<f64> = text.lines().filter_map(|l| l.parse().ok()).collect();
    median(&values)
}

/// Checks that every unit of one run produced the same counts; returns
/// one message per differing unit.
pub fn same_counts(units: &[BTreeMap<String, u64>]) -> Vec<String> {
    units
        .iter()
        .enumerate()
        .skip(1)
        .filter(|(_, c)| *c != &units[0])
        .map(|(i, c)| format!("unit {i} counted {c:?}, unit 0 counted {:?}", units[0]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_check_records_then_compares() {
        let dir = Path::new(WORK_DIR).join(format!("test-counts-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut counts = BTreeMap::from([("a".to_string(), 1u64)]);
        assert!(repeat_check(&dir, "w-1", &counts).is_empty());
        assert!(repeat_check(&dir, "w-1", &counts).is_empty());
        // A new key is recorded, not compared.
        counts.insert("b".to_string(), 5);
        assert!(repeat_check(&dir, "w-1", &counts).is_empty());
        counts.insert("b".to_string(), 6);
        assert_eq!(repeat_check(&dir, "w-1", &counts).len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
        // Leaves the work directory alone when a benchmark run uses it.
        let _ = std::fs::remove_dir(WORK_DIR);
    }

    #[test]
    fn same_counts_flags_a_differing_unit() {
        let a = BTreeMap::from([("x".to_string(), 1u64)]);
        let b = BTreeMap::from([("x".to_string(), 2u64)]);
        assert!(same_counts(&[a.clone(), a.clone()]).is_empty());
        assert_eq!(same_counts(&[a.clone(), b, a]).len(), 1);
    }

    #[test]
    fn proc_counters_read_this_process() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_s() >= 0.0);
    }
}
