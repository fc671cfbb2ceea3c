//! SAT-core throughput check in seconds, without the full benchmark.
//!
//! Bit-blasts the PLIC-shaped first-match selection chain ("shape A":
//! `n` one-hot candidates selected by a symbolic index, asking for a
//! selection that differs from the index — UNSAT), loads it as CNF into a
//! fresh CDCL core and solves it, printing the encoding and search times
//! and the core's counters, including propagations per second.
//!
//! Usage: `sat_diag [n]` (default 24).
use std::time::Instant;
use symsc_smt::blast::Blaster;
use symsc_smt::cnf::{load_aig, CnfResult};
use symsc_smt::sat::SatSolver;
use symsc_smt::{TermPool, Width};

fn main() {
    let n: u32 = std::env::args()
        .nth(1)
        .and_then(|x| x.parse().ok())
        .unwrap_or(24);
    let w = Width::W32;
    let mut p = TermPool::new();
    let i = p.var("i", w);
    let one = p.constant(1, w);
    let nn = p.constant(u64::from(n), w);
    let lo = p.uge(i, one);
    let hi = p.ule(i, nn);
    let zero = p.constant(0, w);
    let mut best = zero;
    for k in 1..=n {
        let kc = p.constant(u64::from(k), w);
        let pend = p.eq(i, kc);
        let bz = p.eq(best, zero);
        let take = p.and(pend, bz);
        best = p.ite(take, kc, best);
    }
    let sel = p.eq(best, i);
    let bad = p.not(sel);

    let t0 = Instant::now();
    let mut blaster = Blaster::new();
    let roots: Vec<_> = [lo, hi, bad]
        .iter()
        .map(|&c| blaster.blast(&p, c)[0])
        .collect();
    let blast_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let mut sat = SatSolver::new();
    if let CnfResult::TriviallyUnsat = load_aig(blaster.aig(), &roots, &mut sat) {
        println!("shape A n={n}: trivially unsat");
        return;
    }
    let cnf_s = t1.elapsed().as_secs_f64();
    let t2 = Instant::now();
    let satisfiable = sat.solve();
    let solve_s = t2.elapsed().as_secs_f64();
    let s = sat.stats();
    println!(
        "shape A n={n}: {} | aig_nodes={} vars={} | blast={blast_s:.3}s cnf={cnf_s:.3}s solve={solve_s:.3}s",
        if satisfiable { "sat" } else { "unsat" },
        blaster.aig().len(),
        sat.num_vars(),
    );
    println!(
        "decisions={} propagations={} conflicts={} restarts={} learnt={} propagations/s={:.0}",
        s.decisions,
        s.propagations,
        s.conflicts,
        s.restarts,
        s.learnt_clauses,
        s.propagations as f64 / solve_s.max(1e-9),
    );
}
