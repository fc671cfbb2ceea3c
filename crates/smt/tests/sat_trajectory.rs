//! Trajectory golden test for the CDCL core.
//!
//! The SAT core's storage (clause arena, literal-indexed values, analysis
//! buffers, arena compaction) may change for speed, but its *search* may
//! not: every decision, propagation, conflict, learnt clause and restart
//! must happen exactly as before, so verdicts, models and every committed
//! counter downstream (benchmark baselines, counterexamples, campaign
//! reports) stay byte-identical.
//!
//! Each case below runs a fixed formula and pins the solver's
//! [`SatStats`], its verdict and its model bits. The pinned values were
//! recorded from the solver as it stood *before* the flat clause arena
//! replaced the per-clause `Vec<Lit>` storage (the `Vec<Clause>` /
//! per-variable `Assign` representation), so a failure here means the
//! search trajectory changed — a bug in the storage change, not a
//! baseline to regenerate.

use symsc_smt::blast::Blaster;
use symsc_smt::cnf::{load_aig, CnfResult};
use symsc_smt::sat::{Lit, SatSolver, SatStats, Var};
use symsc_smt::{TermPool, Width};

/// One solve's outcome: verdict, cumulative counters and the model bits
/// of `vars` (hex-packed, `vars[0]` in the lowest bit; empty when UNSAT).
fn record(s: &SatSolver, sat: bool, vars: &[Var]) -> String {
    let SatStats {
        decisions,
        propagations,
        conflicts,
        restarts,
        learnt_clauses,
    } = s.stats();
    let mut model = String::new();
    if sat {
        let bits: Vec<bool> = vars.iter().map(|&v| s.value(v)).collect();
        for chunk in bits.chunks(4).rev() {
            let nibble = chunk
                .iter()
                .enumerate()
                .fold(0u32, |acc, (i, &b)| acc | u32::from(b) << i);
            model.push(char::from_digit(nibble, 16).expect("nibble"));
        }
    }
    format!(
        "{} d={decisions} p={propagations} c={conflicts} r={restarts} l={learnt_clauses} m={model}",
        if sat { "sat" } else { "unsat" }
    )
}

fn pigeonhole(pigeons: usize, holes: usize) -> String {
    let mut s = SatSolver::new();
    let p: Vec<Var> = (0..pigeons * holes).map(|_| s.new_var()).collect();
    for i in 0..pigeons {
        let clause: Vec<Lit> = (0..holes)
            .map(|j| Lit::new(p[i * holes + j], false))
            .collect();
        s.add_clause(&clause);
    }
    for j in 0..holes {
        for i1 in 0..pigeons {
            for i2 in (i1 + 1)..pigeons {
                s.add_clause(&[
                    Lit::new(p[i1 * holes + j], true),
                    Lit::new(p[i2 * holes + j], true),
                ]);
            }
        }
    }
    let r = s.solve();
    record(&s, r, &p)
}

/// Uniform random 3-SAT with `clauses` clauses over `n` variables from a
/// seeded xorshift64 stream.
fn random_3sat(seed: u64, n: usize, clauses: usize) -> String {
    let mut state = seed;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut s = SatSolver::new();
    let vars: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
    for _ in 0..clauses {
        let clause: Vec<Lit> = (0..3)
            .map(|_| {
                let v = (next() % n as u64) as usize;
                Lit::new(vars[v], next() & 1 == 1)
            })
            .collect();
        s.add_clause(&clause);
    }
    let r = s.solve();
    record(&s, r, &vars)
}

/// `x0 ^ ... ^ x(n-1) = 1` through a chain of Tseitin-encoded xors.
fn xor_chain(n: usize) -> String {
    let mut s = SatSolver::new();
    let x: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
    let mut vars = x.clone();
    let mut t_prev = x[0];
    for &xi in x.iter().skip(1) {
        let t = s.new_var();
        vars.push(t);
        let (a, b, c) = (
            Lit::new(t_prev, false),
            Lit::new(xi, false),
            Lit::new(t, false),
        );
        s.add_clause(&[a.negated(), b.negated(), c.negated()]);
        s.add_clause(&[a, b, c.negated()]);
        s.add_clause(&[a.negated(), b, c]);
        s.add_clause(&[a, b.negated(), c]);
        t_prev = t;
    }
    s.add_clause(&[Lit::new(t_prev, false)]);
    let r = s.solve();
    record(&s, r, &vars)
}

/// Assumption probes on a formula that grows between solves: pigeonhole
/// at-most-one constraints first, then placements probed as assumptions,
/// then the at-least-one clauses pigeon by pigeon, re-probing after each.
fn assumption_probes(pigeons: usize, holes: usize) -> Vec<String> {
    let mut s = SatSolver::new();
    let p: Vec<Var> = (0..pigeons * holes).map(|_| s.new_var()).collect();
    let at = |i: usize, j: usize, neg: bool| Lit::new(p[i * holes + j], neg);
    for j in 0..holes {
        for i1 in 0..pigeons {
            for i2 in (i1 + 1)..pigeons {
                s.add_clause(&[at(i1, j, true), at(i2, j, true)]);
            }
        }
    }
    let mut out = Vec::new();
    for i in 0..pigeons {
        // Probe: pigeon i in each hole, alongside pigeon 0 in hole 0.
        for j in 0..holes {
            let r = s.solve_with_assumptions(&[at(0, 0, false), at(i, j, false)]);
            out.push(record(&s, r, &p));
        }
        let clause: Vec<Lit> = (0..holes).map(|j| at(i, j, false)).collect();
        s.add_clause(&clause);
        let r = s.solve_with_assumptions(&[at(i, holes - 1, true)]);
        out.push(record(&s, r, &p));
    }
    let r = s.solve();
    out.push(record(&s, r, &p));
    out
}

/// `sat_diag` shape A: the PLIC-style first-match selection chain over
/// `n` one-hot candidates, asking for a selection that differs from the
/// symbolic index (UNSAT).
fn selection_chain(n: u32) -> String {
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
    let mut blaster = Blaster::new();
    let roots: Vec<_> = [lo, hi, bad]
        .iter()
        .map(|&c| blaster.blast(&p, c)[0])
        .collect();
    let mut sat = SatSolver::new();
    match load_aig(blaster.aig(), &roots, &mut sat) {
        CnfResult::TriviallyUnsat => "trivially unsat".to_string(),
        CnfResult::Loaded(_) => {
            let r = sat.solve();
            assert!(!r, "the selection always equals the index");
            format!("vars={} {}", sat.num_vars(), record(&sat, r, &[]))
        }
    }
}

#[test]
fn pigeonhole_trajectories() {
    assert_eq!(pigeonhole(5, 4), "unsat d=31 p=277 c=28 r=0 l=24 m=");
    assert_eq!(pigeonhole(6, 5), "unsat d=201 p=1790 c=155 r=1 l=150 m=");
}

#[test]
fn random_3sat_trajectories() {
    // 150 variables at the 4.26 clause/variable threshold.
    assert_eq!(
        random_3sat(0x9E37_79B9_7F4A_7C15, 150, 639),
        "sat d=2122 p=54124 c=1742 r=11 l=1742 m=3f873859ebc58bf11c953b77e8d9c5e2b73b5d"
    );
    assert_eq!(
        random_3sat(0x2545_F491_4F6C_DD1D, 150, 639),
        "sat d=652 p=15902 c=540 r=4 l=540 m=2388c163d85f48aeb0cb679f5b18b02cd31347"
    );
    assert_eq!(
        random_3sat(0xD1B5_4A32_D192_ED03, 150, 639),
        "sat d=2634 p=66804 c=2162 r=13 l=2162 m=142de3404ff7a756086fec6060b59d4b890a02"
    );
}

#[test]
fn long_run_through_database_reductions() {
    // 200 variables at the threshold, UNSAT after ~11k conflicts: several
    // learnt-database reductions (and with them arena compactions) and
    // variable-activity rescales happen mid-search.
    assert_eq!(
        random_3sat(0x3C6E_F372_FE94_F82A, 200, 852),
        "unsat d=13152 p=408583 c=10915 r=45 l=10906 m="
    );
}

#[test]
fn xor_chain_trajectory() {
    assert_eq!(xor_chain(8), "sat d=7 p=15 c=0 r=0 l=0 m=4080");
}

#[test]
fn assumption_probe_trajectory() {
    let expected = [
        "sat d=15 p=20 c=0 r=0 l=0 m=00001",
        "sat d=25 p=40 c=0 r=0 l=0 m=00003",
        "sat d=31 p=60 c=0 r=0 l=0 m=00007",
        "sat d=33 p=80 c=0 r=0 l=0 m=0000f",
        "sat d=41 p=100 c=0 r=0 l=0 m=00007",
        "unsat d=41 p=105 c=0 r=0 l=0 m=",
        "sat d=47 p=125 c=0 r=0 l=0 m=00025",
        "sat d=53 p=145 c=0 r=0 l=0 m=00061",
        "sat d=55 p=165 c=0 r=0 l=0 m=000e1",
        "sat d=63 p=185 c=0 r=0 l=0 m=00061",
        "unsat d=63 p=190 c=0 r=0 l=0 m=",
        "sat d=68 p=210 c=0 r=0 l=0 m=00241",
        "sat d=70 p=230 c=0 r=0 l=0 m=00681",
        "sat d=71 p=250 c=0 r=0 l=0 m=00c21",
        "sat d=78 p=270 c=0 r=0 l=0 m=00421",
        "unsat d=78 p=275 c=0 r=0 l=0 m=",
        "sat d=79 p=295 c=0 r=0 l=0 m=02481",
        "sat d=82 p=322 c=1 r=0 l=1 m=04821",
        "sat d=83 p=342 c=1 r=0 l=1 m=08421",
        "sat d=86 p=362 c=1 r=0 l=1 m=01428",
        "unsat d=86 p=367 c=1 r=0 l=1 m=",
        "unsat d=87 p=392 c=3 r=0 l=3 m=",
        "unsat d=87 p=411 c=4 r=0 l=4 m=",
        "unsat d=88 p=435 c=6 r=0 l=6 m=",
        "unsat d=114 p=645 c=26 r=0 l=25 m=",
        "unsat d=118 p=697 c=31 r=0 l=27 m=",
    ];
    assert_eq!(assumption_probes(5, 4), expected);
}

#[test]
fn selection_chain_trajectory() {
    assert_eq!(
        selection_chain(24),
        "vars=1098 unsat d=91 p=22416 c=61 r=0 l=58 m="
    );
}
