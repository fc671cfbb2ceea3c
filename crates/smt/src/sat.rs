//! A CDCL SAT solver in the MiniSat tradition.
//!
//! Features: two-watched-literal propagation, VSIDS variable ordering with
//! an indexed binary heap, first-UIP conflict analysis with cheap clause
//! minimization, phase saving, Luby-sequence restarts and activity-based
//! learnt-clause database reduction.
//!
//! The solver is incremental in the MiniSat style: clauses may be added
//! between solves, and [`SatSolver::solve_with_assumptions`] decides the
//! formula under a set of assumption literals posted as pseudo-decisions.
//! Learned clauses, variable activities and saved phases all survive from
//! one call to the next, which matches the workload of re-execution based
//! symbolic exploration: along one path the constraint set only grows, so
//! the conjuncts seen so far can stay asserted while each fork probe is a
//! single assumption on top.
//!
//! # Storage
//!
//! Unit propagation dominates the run time on the bit-blasted formulas
//! exploration produces, and it is bound by memory traffic, so the layout
//! is built for it: every clause lives in one flat `u32` arena addressed
//! by offset, literal values are one byte per literal code, and binary
//! clauses are decided from their watcher alone. A watcher visit is one
//! load for the blocker's value and, for a longer clause, one contiguous
//! read of the clause. Clauses deleted by database reduction are
//! compacted away once they waste half the arena. None of
//! this changes the search: decisions, propagation order, learnt clauses,
//! restarts and models — and hence every [`SatStats`] counter — are the
//! same as for a solver that kept each clause in its own allocation
//! (`crates/smt/tests/sat_trajectory.rs` pins them).

use std::fmt;

/// A propositional variable.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub(crate) u32);

impl Var {
    /// The variable's dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A literal: a variable with a polarity.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(u32);

impl Lit {
    /// Builds a literal from a variable; `negated` selects polarity.
    pub fn new(var: Var, negated: bool) -> Lit {
        Lit(var.0 << 1 | u32::from(negated))
    }

    /// The underlying variable.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Whether the literal is the negative polarity.
    pub fn is_negated(self) -> bool {
        self.0 & 1 == 1
    }

    /// The opposite literal.
    pub fn negated(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    fn code(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_negated() {
            write!(f, "¬v{}", self.0 >> 1)
        } else {
            write!(f, "v{}", self.0 >> 1)
        }
    }
}

/// Literal values, one byte per literal code.
const UNDEF: u8 = 0;
const TRUE: u8 = 1;
const FALSE: u8 = 2;

const NO_REASON: u32 = u32::MAX;

/// Words before a clause's literals: the header, then the activity `f64`
/// as two words (low half first).
const HEADER_WORDS: usize = 3;
const LEARNT_BIT: u32 = 1 << 31;
const DELETED_BIT: u32 = 1 << 30;
const LEN_MASK: u32 = DELETED_BIT - 1;

/// The clause database: every clause in one flat `u32` vector, addressed
/// by the offset of its header word.
///
/// ```text
/// [len | learnt | deleted][activity lo][activity hi][lit 0][lit 1]...
/// ```
///
/// Offsets stay below [`BINARY_WATCH`] (the arena holds under 2^31
/// words). Clauses are appended in creation order and compaction
/// preserves that order, so walking the arena front to back visits
/// clauses in creation order. Deleted clauses stay in place (their
/// watchers are dropped lazily) until `SatSolver::collect_garbage`
/// compacts them away.
#[derive(Debug, Default)]
struct Arena {
    words: Vec<u32>,
    /// Words held by deleted clauses.
    wasted: usize,
}

impl Arena {
    fn alloc(&mut self, lits: &[Lit], learnt: bool) -> u32 {
        assert!(
            lits.len() <= LEN_MASK as usize
                && self.words.len() + HEADER_WORDS + lits.len() < BINARY_WATCH as usize,
            "clause arena exceeds 2^31 words"
        );
        let cref = self.words.len() as u32;
        let learnt_bit = if learnt { LEARNT_BIT } else { 0 };
        self.words.push(lits.len() as u32 | learnt_bit);
        self.words.extend_from_slice(&[0, 0]); // activity 0.0
        self.words.extend(lits.iter().map(|l| l.0));
        cref
    }

    fn len(&self, c: u32) -> usize {
        (self.words[c as usize] & LEN_MASK) as usize
    }

    /// Offset of the clause after `c`.
    fn next(&self, c: u32) -> u32 {
        c + (HEADER_WORDS + self.len(c)) as u32
    }

    fn is_learnt(&self, c: u32) -> bool {
        self.words[c as usize] & LEARNT_BIT != 0
    }

    fn is_deleted(&self, c: u32) -> bool {
        self.words[c as usize] & DELETED_BIT != 0
    }

    fn delete(&mut self, c: u32) {
        self.words[c as usize] |= DELETED_BIT;
        self.wasted += HEADER_WORDS + self.len(c);
    }

    fn lit(&self, c: u32, k: usize) -> Lit {
        Lit(self.words[c as usize + HEADER_WORDS + k])
    }

    fn lits(&self, c: u32) -> &[u32] {
        let start = c as usize + HEADER_WORDS;
        &self.words[start..start + self.len(c)]
    }

    fn activity(&self, c: u32) -> f64 {
        let c = c as usize;
        f64::from_bits(u64::from(self.words[c + 1]) | u64::from(self.words[c + 2]) << 32)
    }

    fn set_activity(&mut self, c: u32, activity: f64) {
        let bits = activity.to_bits();
        let c = c as usize;
        self.words[c + 1] = bits as u32;
        self.words[c + 2] = (bits >> 32) as u32;
    }

    /// Multiplies every clause's activity by `factor`.
    fn scale_activities(&mut self, factor: f64) {
        let mut c = 0;
        while (c as usize) < self.words.len() {
            let scaled = self.activity(c) * factor;
            self.set_activity(c, scaled);
            c = self.next(c);
        }
    }
}

/// Watcher flag (in the clause word) marking a binary clause. Its blocker
/// is always the clause's other literal, so propagation decides it from
/// the watcher alone without touching the arena.
const BINARY_WATCH: u32 = 1 << 31;

#[derive(Clone, Copy, Debug)]
struct Watcher {
    /// Arena offset of the clause, or'ed with [`BINARY_WATCH`].
    clause: u32,
    blocker: Lit,
}

impl Watcher {
    fn cref(self) -> u32 {
        self.clause & !BINARY_WATCH
    }
}

/// Per-variable trail data, kept together because conflict analysis reads
/// both for every literal it visits.
#[derive(Clone, Copy, Debug)]
struct VarData {
    reason: u32,
    level: u32,
}

/// Cumulative solver counters, useful for benchmark reporting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SatStats {
    /// Number of branching decisions.
    pub decisions: u64,
    /// Number of literals propagated.
    pub propagations: u64,
    /// Number of conflicts analyzed.
    pub conflicts: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of clauses learnt.
    pub learnt_clauses: u64,
}

/// The CDCL solver.
///
/// # Example
///
/// ```
/// use symsc_smt::sat::{Lit, SatSolver};
///
/// let mut s = SatSolver::new();
/// let a = s.new_var();
/// let b = s.new_var();
/// // (a | b) & (!a | b) & (!b | a)  =>  a = b = true
/// s.add_clause(&[Lit::new(a, false), Lit::new(b, false)]);
/// s.add_clause(&[Lit::new(a, true), Lit::new(b, false)]);
/// s.add_clause(&[Lit::new(b, true), Lit::new(a, false)]);
/// assert!(s.solve());
/// assert!(s.value(a) && s.value(b));
/// ```
#[derive(Debug)]
pub struct SatSolver {
    arena: Arena,
    /// Live learnt clauses in creation order (deleted ones are dropped by
    /// [`reduce_db`](Self::reduce_db)).
    learnts: Vec<u32>,
    watches: Vec<Vec<Watcher>>,
    /// Value of every literal, indexed by literal code.
    vals: Vec<u8>,
    vars: Vec<VarData>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f64,
    heap: Vec<u32>,
    heap_pos: Vec<i32>,
    phase: Vec<bool>,
    seen: Vec<bool>,
    /// Scratch buffers reused across calls: the clause being added, the
    /// clause being learnt and the variables analysis marked as seen.
    add_buf: Vec<Lit>,
    learnt_buf: Vec<Lit>,
    to_clear: Vec<usize>,
    ok: bool,
    reduce_count: u64,
    stats: SatStats,
}

const VAR_DECAY: f64 = 1.0 / 0.95;
const CLA_DECAY: f64 = 1.0 / 0.999;

impl Default for SatSolver {
    fn default() -> SatSolver {
        SatSolver::new()
    }
}

impl SatSolver {
    /// Creates an empty solver.
    pub fn new() -> SatSolver {
        SatSolver {
            arena: Arena::default(),
            learnts: Vec::new(),
            watches: Vec::new(),
            vals: Vec::new(),
            vars: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            heap: Vec::new(),
            heap_pos: Vec::new(),
            phase: Vec::new(),
            seen: Vec::new(),
            add_buf: Vec::new(),
            learnt_buf: Vec::new(),
            to_clear: Vec::new(),
            ok: true,
            reduce_count: 0,
            stats: SatStats::default(),
        }
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> SatStats {
        self.stats
    }

    /// Number of learnt clauses currently alive in the database (survivors
    /// of `reduce_db`, not the cumulative count).
    pub fn num_learnt(&self) -> usize {
        self.learnts.len()
    }

    /// Whether the clause database is still consistent. Once a root-level
    /// conflict makes this `false`, every later solve returns `false`.
    pub fn is_ok(&self) -> bool {
        self.ok
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.vars.len() as u32);
        self.vals.extend_from_slice(&[UNDEF, UNDEF]);
        self.vars.push(VarData {
            reason: NO_REASON,
            level: 0,
        });
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.heap_pos.push(-1);
        self.heap_insert(v.0);
        v
    }

    /// The model value of `v` after a successful [`solve`](Self::solve).
    /// Unassigned (don't-care) variables read as `false`.
    pub fn value(&self, v: Var) -> bool {
        self.vals[Lit::new(v, false).code()] == TRUE
    }

    /// Adds a clause. Returns `false` if the formula became trivially
    /// unsatisfiable (empty clause or root-level conflict).
    ///
    /// May be called between solves: the solver first backtracks to the
    /// root level, so only level-0 assignments participate in the
    /// satisfied/false-literal filtering below.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        self.backtrack(0);
        if !self.ok {
            return false;
        }
        // Sort, dedupe, drop false literals, detect tautology / satisfied.
        let mut c = std::mem::take(&mut self.add_buf);
        c.clear();
        c.extend_from_slice(lits);
        c.sort_unstable();
        c.dedup();
        let mut kept = 0;
        let mut satisfied = false;
        for i in 0..c.len() {
            let l = c[i];
            // Tautology (l and !l both present) or satisfied at root level.
            if (i + 1 < c.len() && c[i + 1] == l.negated()) || self.vals[l.code()] == TRUE {
                satisfied = true;
                break;
            }
            if self.vals[l.code()] == UNDEF {
                c[kept] = l;
                kept += 1;
            } // false at root level: drop
        }
        c.truncate(kept);
        let result = if satisfied {
            true
        } else {
            match c.len() {
                0 => {
                    self.ok = false;
                    false
                }
                1 => {
                    self.unchecked_enqueue(c[0], NO_REASON);
                    if self.propagate().is_some() {
                        self.ok = false;
                    }
                    self.ok
                }
                _ => {
                    self.attach_clause(&c, false);
                    true
                }
            }
        };
        self.add_buf = c;
        result
    }

    fn attach_clause(&mut self, lits: &[Lit], learnt: bool) -> u32 {
        debug_assert!(lits.len() >= 2);
        let cref = self.arena.alloc(lits, learnt);
        let clause = if lits.len() == 2 {
            cref | BINARY_WATCH
        } else {
            cref
        };
        self.watches[lits[0].code()].push(Watcher {
            clause,
            blocker: lits[1],
        });
        self.watches[lits[1].code()].push(Watcher {
            clause,
            blocker: lits[0],
        });
        if learnt {
            self.learnts.push(cref);
            self.stats.learnt_clauses += 1;
        }
        cref
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn unchecked_enqueue(&mut self, l: Lit, reason: u32) {
        debug_assert_eq!(self.vals[l.code()], UNDEF);
        self.vals[l.code()] = TRUE;
        self.vals[l.negated().code()] = FALSE;
        self.vars[l.var().index()] = VarData {
            reason,
            level: self.decision_level(),
        };
        self.trail.push(l);
    }

    /// Unit propagation. Returns the offset of a conflicting clause, if
    /// any.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = p.negated();
            let mut ws = std::mem::take(&mut self.watches[false_lit.code()]);
            let mut i = 0;
            let mut kept = 0;
            let mut conflict = None;
            while i < ws.len() {
                let w = ws[i];
                i += 1;
                // Quick skip via blocker.
                let blocker_val = self.vals[w.blocker.code()];
                if blocker_val == TRUE {
                    ws[kept] = w;
                    kept += 1;
                    continue;
                }
                if w.clause & BINARY_WATCH != 0 {
                    // The blocker is the other literal: unit or conflict.
                    ws[kept] = w;
                    kept += 1;
                    if blocker_val == FALSE {
                        // Analysis reads a conflict clause in order; store
                        // it as [other, false literal], the order watch
                        // repair leaves a longer clause in.
                        let start = w.cref() as usize + HEADER_WORDS;
                        self.arena.words[start] = w.blocker.0;
                        self.arena.words[start + 1] = false_lit.0;
                        conflict = Some(w.cref());
                        break;
                    } else {
                        self.unchecked_enqueue(w.blocker, w.cref());
                    }
                    continue;
                }
                let c = w.clause as usize;
                let header = self.arena.words[c];
                if header & DELETED_BIT != 0 {
                    continue; // drop watcher of deleted clause
                }
                let start = c + HEADER_WORDS;
                let lits = &mut self.arena.words[start..start + (header & LEN_MASK) as usize];
                // Ensure the false literal is at position 1.
                if lits[0] == false_lit.0 {
                    lits.swap(0, 1);
                }
                debug_assert_eq!(lits[1], false_lit.0);
                let first = Lit(lits[0]);
                let first_val = self.vals[first.code()];
                if first != w.blocker && first_val == TRUE {
                    ws[kept] = Watcher {
                        clause: w.clause,
                        blocker: first,
                    };
                    kept += 1;
                    continue;
                }
                // Look for a new literal to watch.
                if let Some(k) = (2..lits.len()).find(|&k| self.vals[lits[k] as usize] != FALSE) {
                    lits.swap(1, k);
                    self.watches[lits[1] as usize].push(Watcher {
                        clause: w.clause,
                        blocker: first,
                    });
                    continue;
                }
                // Clause is unit or conflicting; keep this watcher.
                ws[kept] = Watcher {
                    clause: w.clause,
                    blocker: first,
                };
                kept += 1;
                if first_val == FALSE {
                    conflict = Some(w.clause);
                    break;
                }
                self.unchecked_enqueue(first, w.clause);
            }
            if conflict.is_some() {
                // Keep the watchers not yet visited and stop propagating.
                ws.copy_within(i.., kept);
                kept += ws.len() - i;
                self.qhead = self.trail.len();
            }
            ws.truncate(kept);
            self.watches[false_lit.code()] = ws;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    fn bump_var(&mut self, v: usize) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        if self.heap_pos[v] >= 0 {
            self.heap_sift_up(self.heap_pos[v] as usize);
        }
    }

    fn bump_clause(&mut self, c: u32) {
        let activity = self.arena.activity(c) + self.cla_inc;
        self.arena.set_activity(c, activity);
        if activity > 1e20 {
            self.arena.scale_activities(1e-20);
            self.cla_inc *= 1e-20;
        }
    }

    /// First-UIP conflict analysis. Leaves the learnt clause (asserting
    /// literal first) in `learnt_buf` and returns the backtrack level.
    fn analyze(&mut self, mut confl: u32) -> u32 {
        let mut learnt = std::mem::take(&mut self.learnt_buf);
        learnt.clear();
        learnt.push(Lit(0)); // slot for the asserting literal
        let mut path_count = 0u32;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let current = self.decision_level();

        loop {
            debug_assert_ne!(confl, NO_REASON);
            self.bump_clause(confl);
            // A reason clause's implied literal is the pivot `p`; skip it
            // by variable, since binary clauses are not kept in
            // implied-literal-first order.
            let pivot = p.map(|l| l.var().index());
            for j in 0..self.arena.len(confl) {
                let q = self.arena.lit(confl, j);
                let v = q.var().index();
                if Some(v) == pivot {
                    continue;
                }
                if !self.seen[v] && self.vars[v].level > 0 {
                    self.seen[v] = true;
                    self.to_clear.push(v);
                    self.bump_var(v);
                    if self.vars[v].level >= current {
                        path_count += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select the next literal on the trail to resolve on.
            while !self.seen[self.trail[index - 1].var().index()] {
                index -= 1;
            }
            index -= 1;
            let pl = self.trail[index];
            let v = pl.var().index();
            confl = self.vars[v].reason;
            self.seen[v] = false;
            path_count -= 1;
            p = Some(pl);
            if path_count == 0 {
                break;
            }
        }
        learnt[0] = p.expect("asserting literal").negated();

        // Cheap clause minimization: drop literals implied by the rest.
        let mut kept = 1;
        for k in 1..learnt.len() {
            if !self.literal_redundant(learnt[k]) {
                learnt[kept] = learnt[k];
                kept += 1;
            }
        }
        learnt.truncate(kept);

        // The asserting literal's variable was already cleared inside the
        // loop; clear everything else analysis marked.
        for v in self.to_clear.drain(..) {
            self.seen[v] = false;
        }

        // Compute the backtrack level (second-highest level in the clause).
        let bt_level = if learnt.len() == 1 {
            0
        } else {
            let level = |l: Lit| self.vars[l.var().index()].level;
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if level(learnt[i]) > level(learnt[max_i]) {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            level(learnt[1])
        };
        self.learnt_buf = learnt;
        bt_level
    }

    /// A literal is redundant if its reason clause is entirely made of
    /// seen literals (or root-level literals).
    fn literal_redundant(&self, l: Lit) -> bool {
        let v = l.var().index();
        let r = self.vars[v].reason;
        if r == NO_REASON {
            return false;
        }
        self.arena.lits(r).iter().all(|&q| {
            let qv = (q >> 1) as usize;
            qv == v || self.seen[qv] || self.vars[qv].level == 0
        })
    }

    fn backtrack(&mut self, target: u32) {
        if self.decision_level() <= target {
            return;
        }
        let lim = self.trail_lim[target as usize];
        for i in (lim..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var().index();
            self.phase[v] = !l.is_negated();
            self.vals[l.code()] = UNDEF;
            self.vals[l.negated().code()] = UNDEF;
            self.vars[v].reason = NO_REASON;
            if self.heap_pos[v] < 0 {
                self.heap_insert(v as u32);
            }
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(target as usize);
        self.qhead = self.trail.len();
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        while let Some(v) = self.heap_pop() {
            if self.vals[Lit::new(Var(v), false).code()] == UNDEF {
                let lit = Lit::new(Var(v), !self.phase[v as usize]);
                return Some(lit);
            }
        }
        None
    }

    /// Deletes the less active half of the learnt clauses longer than two
    /// literals (skipping those that are the reason of a current
    /// assignment), then compacts the arena once deleted clauses waste
    /// more than half of it.
    fn reduce_db(&mut self) {
        self.reduce_count += 1;
        let mut candidates: Vec<u32> = self
            .learnts
            .iter()
            .copied()
            .filter(|&c| self.arena.len(c) > 2)
            .collect();
        debug_assert!(candidates.iter().all(|&c| self.arena.is_learnt(c)));
        // Stable sort: ties keep creation order.
        candidates.sort_by(|&a, &b| {
            self.arena
                .activity(a)
                .partial_cmp(&self.arena.activity(b))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let target = candidates.len() / 2;
        let mut removed = 0;
        for &c in &candidates {
            if removed >= target {
                break;
            }
            let lit0 = self.arena.lit(c, 0);
            let locked =
                self.vars[lit0.var().index()].reason == c && self.vals[lit0.code()] == TRUE;
            if locked {
                continue;
            }
            self.arena.delete(c);
            removed += 1;
        }
        let arena = &self.arena;
        self.learnts.retain(|&c| !arena.is_deleted(c));
        // Propagation drops a deleted clause's watchers lazily as it meets
        // them; compaction drops the rest at once.
        if self.arena.wasted > self.arena.words.len() / 2 {
            self.collect_garbage();
        }
    }

    /// Compacts the arena, dropping deleted clauses. Live clauses keep
    /// their relative order, and so do the watchers in every watch list,
    /// so propagation visits clauses exactly as it would have without the
    /// compaction.
    fn collect_garbage(&mut self) {
        let mut old = std::mem::take(&mut self.arena.words);
        let mut words = Vec::with_capacity(old.len() - self.arena.wasted);
        let mut c = 0;
        while c < old.len() {
            let header = old[c];
            let size = HEADER_WORDS + (header & LEN_MASK) as usize;
            if header & DELETED_BIT == 0 {
                let moved = words.len() as u32;
                words.extend_from_slice(&old[c..c + size]);
                // Forwarding address in the old activity slot.
                old[c + 1] = moved;
            }
            c += size;
        }
        let forward = |c: u32| old[c as usize + 1];
        for ws in &mut self.watches {
            ws.retain_mut(|w| {
                let live = old[w.cref() as usize] & DELETED_BIT == 0;
                if live {
                    w.clause = forward(w.cref()) | w.clause & BINARY_WATCH;
                }
                live
            });
        }
        // Only assigned variables carry a reason, and a reason is never
        // deleted (reduce_db skips locked clauses).
        for l in &self.trail {
            let data = &mut self.vars[l.var().index()];
            if data.reason != NO_REASON {
                data.reason = forward(data.reason);
            }
        }
        for c in &mut self.learnts {
            *c = forward(*c);
        }
        self.arena = Arena { words, wasted: 0 };
    }

    /// Solves the formula. Returns `true` if satisfiable; the model is then
    /// available through [`value`](Self::value).
    pub fn solve(&mut self) -> bool {
        self.solve_with_assumptions(&[])
    }

    /// Solves the formula under `assumptions`, posted as pseudo-decisions
    /// before any branching. Returns `true` if satisfiable together with
    /// the assumptions; the model is then available through
    /// [`value`](Self::value).
    ///
    /// `false` means unsatisfiable *under the assumptions*: unless the
    /// clause database itself became unsatisfiable (a root-level
    /// conflict), the solver stays usable and a later call with different
    /// assumptions may succeed. Learned clauses are derived from the
    /// clause database alone — assumptions enter the trail as decisions,
    /// never as antecedents — so everything learned here remains valid
    /// for every future call.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> bool {
        if !self.ok {
            return false;
        }
        self.backtrack(0);
        if self.propagate().is_some() {
            self.ok = false;
            return false;
        }
        let mut restarts = 0u64;
        loop {
            let conflict_budget = luby(restarts) * 100;
            match self.search(conflict_budget, assumptions) {
                SearchResult::Sat => return true,
                SearchResult::Unsat => {
                    self.ok = false;
                    return false;
                }
                SearchResult::AssumpUnsat => {
                    self.backtrack(0);
                    return false;
                }
                SearchResult::Restart => {
                    restarts += 1;
                    self.stats.restarts += 1;
                    self.backtrack(0);
                }
            }
        }
    }

    fn search(&mut self, conflict_budget: u64, assumptions: &[Lit]) -> SearchResult {
        let mut conflicts = 0u64;
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts += 1;
                if self.decision_level() == 0 {
                    return SearchResult::Unsat;
                }
                let bt = self.analyze(confl);
                self.backtrack(bt);
                let learnt = std::mem::take(&mut self.learnt_buf);
                if learnt.len() == 1 {
                    self.unchecked_enqueue(learnt[0], NO_REASON);
                } else {
                    let c = self.attach_clause(&learnt, true);
                    self.bump_clause(c);
                    self.unchecked_enqueue(learnt[0], c);
                }
                self.learnt_buf = learnt;
                self.var_inc *= VAR_DECAY;
                self.cla_inc *= CLA_DECAY;
            } else {
                if conflicts >= conflict_budget {
                    return SearchResult::Restart;
                }
                if self.learnts.len() > 2000 + 500 * self.reduce_count as usize {
                    self.reduce_db();
                }
                // Re-establish assumptions before any free branching: one
                // pseudo-decision level per assumption, in order, so
                // conflict analysis can backtrack through them and the
                // next iteration repairs whatever it undid.
                let mut posted = false;
                while (self.decision_level() as usize) < assumptions.len() {
                    let a = assumptions[self.decision_level() as usize];
                    match self.vals[a.code()] {
                        TRUE => {
                            // Already implied: dummy level keeps the
                            // level-index == assumption-index mapping.
                            self.trail_lim.push(self.trail.len());
                        }
                        FALSE => return SearchResult::AssumpUnsat,
                        _ => {
                            self.trail_lim.push(self.trail.len());
                            self.unchecked_enqueue(a, NO_REASON);
                            posted = true;
                            break;
                        }
                    }
                }
                if posted {
                    continue; // propagate the assumption first
                }
                match self.pick_branch() {
                    None => return SearchResult::Sat,
                    Some(next) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        self.unchecked_enqueue(next, NO_REASON);
                    }
                }
            }
        }
    }

    // ----- indexed max-heap ordered by var activity -----

    fn heap_insert(&mut self, v: u32) {
        self.heap_pos[v as usize] = self.heap.len() as i32;
        self.heap.push(v);
        self.heap_sift_up(self.heap.len() - 1);
    }

    fn heap_pop(&mut self) -> Option<u32> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        self.heap_pos[top as usize] = -1;
        let last = self.heap.pop().expect("non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.heap_pos[last as usize] = 0;
            self.heap_sift_down(0);
        }
        Some(top)
    }

    fn heap_sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.activity[self.heap[i] as usize] <= self.activity[self.heap[parent] as usize] {
                break;
            }
            self.heap_swap(i, parent);
            i = parent;
        }
    }

    fn heap_sift_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut largest = i;
            if l < self.heap.len()
                && self.activity[self.heap[l] as usize] > self.activity[self.heap[largest] as usize]
            {
                largest = l;
            }
            if r < self.heap.len()
                && self.activity[self.heap[r] as usize] > self.activity[self.heap[largest] as usize]
            {
                largest = r;
            }
            if largest == i {
                break;
            }
            self.heap_swap(i, largest);
            i = largest;
        }
    }

    fn heap_swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.heap_pos[self.heap[a] as usize] = a as i32;
        self.heap_pos[self.heap[b] as usize] = b as i32;
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SearchResult {
    Sat,
    Unsat,
    /// Unsatisfiable only under the current assumptions; the clause
    /// database itself is still consistent.
    AssumpUnsat,
    Restart,
}

/// The Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
fn luby(i: u64) -> u64 {
    let mut size = 1u64;
    let mut seq = 0u32;
    while size < i + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    let mut x = i;
    while size - 1 != x {
        size = (size - 1) >> 1;
        seq -= 1;
        x %= size;
    }
    1u64 << seq
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(s: &mut SatSolver, vars: &mut Vec<Var>, i: usize, neg: bool) -> Lit {
        while vars.len() <= i {
            vars.push(s.new_var());
        }
        Lit::new(vars[i], neg)
    }

    #[test]
    fn luby_prefix() {
        let expected = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expected.iter().enumerate() {
            assert_eq!(luby(i as u64), e, "luby({i})");
        }
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = SatSolver::new();
        assert!(s.solve());
    }

    #[test]
    fn single_unit_clause() {
        let mut s = SatSolver::new();
        let v = s.new_var();
        assert!(s.add_clause(&[Lit::new(v, false)]));
        assert!(s.solve());
        assert!(s.value(v));
    }

    #[test]
    fn contradictory_units_unsat() {
        let mut s = SatSolver::new();
        let v = s.new_var();
        assert!(s.add_clause(&[Lit::new(v, false)]));
        assert!(!s.add_clause(&[Lit::new(v, true)]) || !s.solve());
    }

    #[test]
    fn tautologies_are_ignored() {
        let mut s = SatSolver::new();
        let v = s.new_var();
        assert!(s.add_clause(&[Lit::new(v, false), Lit::new(v, true)]));
        assert!(s.solve());
    }

    #[test]
    fn implication_chain_propagates() {
        // x0 & (x0 -> x1) & (x1 -> x2) ... forces all true.
        let mut s = SatSolver::new();
        let vars: Vec<Var> = (0..20).map(|_| s.new_var()).collect();
        s.add_clause(&[Lit::new(vars[0], false)]);
        for w in vars.windows(2) {
            s.add_clause(&[Lit::new(w[0], true), Lit::new(w[1], false)]);
        }
        assert!(s.solve());
        for &v in &vars {
            assert!(s.value(v));
        }
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // 3 pigeons, 2 holes: classic small UNSAT instance that requires
        // real search, not just propagation.
        let mut s = SatSolver::new();
        let mut vars = Vec::new();
        // p[i][j] = pigeon i in hole j ; var index = i*2 + j
        for i in 0..3 {
            let a = lit(&mut s, &mut vars, i * 2, false);
            let b = lit(&mut s, &mut vars, i * 2 + 1, false);
            s.add_clause(&[a, b]); // every pigeon somewhere
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    let a = lit(&mut s, &mut vars, i1 * 2 + j, true);
                    let b = lit(&mut s, &mut vars, i2 * 2 + j, true);
                    s.add_clause(&[a, b]); // no two share a hole
                }
            }
        }
        assert!(!s.solve());
    }

    #[test]
    fn pigeonhole_5_into_4_is_unsat() {
        let (pigeons, holes) = (5usize, 4usize);
        let mut s = SatSolver::new();
        let mut vars = Vec::new();
        for i in 0..pigeons {
            let clause: Vec<Lit> = (0..holes)
                .map(|j| lit(&mut s, &mut vars, i * holes + j, false))
                .collect();
            s.add_clause(&clause);
        }
        for j in 0..holes {
            for i1 in 0..pigeons {
                for i2 in (i1 + 1)..pigeons {
                    let a = lit(&mut s, &mut vars, i1 * holes + j, true);
                    let b = lit(&mut s, &mut vars, i2 * holes + j, true);
                    s.add_clause(&[a, b]);
                }
            }
        }
        assert!(!s.solve());
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn random_3sat_models_satisfy_all_clauses() {
        // Deterministic pseudo-random satisfiable-ish instances: generate a
        // planted solution, emit clauses consistent with it, check that the
        // found model satisfies every clause.
        let mut seed = 0x12345678u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _round in 0..10 {
            let n = 30usize;
            let mut s = SatSolver::new();
            let vars: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
            let planted: Vec<bool> = (0..n).map(|_| next() & 1 == 1).collect();
            let mut clauses: Vec<Vec<Lit>> = Vec::new();
            for _ in 0..120 {
                let mut clause = Vec::new();
                // Ensure at least one literal agrees with the planted model.
                let forced = (next() as usize) % n;
                clause.push(Lit::new(vars[forced], !planted[forced]));
                for _ in 0..2 {
                    let v = (next() as usize) % n;
                    clause.push(Lit::new(vars[v], next() & 1 == 1));
                }
                clauses.push(clause);
            }
            for c in &clauses {
                assert!(s.add_clause(c));
            }
            assert!(s.solve(), "planted instance must be satisfiable");
            for c in &clauses {
                assert!(
                    c.iter().any(|&l| s.value(l.var()) != l.is_negated()),
                    "model violates clause {c:?}"
                );
            }
        }
    }

    #[test]
    fn assumptions_flip_verdict_without_poisoning() {
        // (a | b) with assumptions probing each polarity: the same solver
        // instance must answer SAT/UNSAT per call and stay consistent.
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::new(a, false), Lit::new(b, false)]);
        assert!(!s.solve_with_assumptions(&[Lit::new(a, true), Lit::new(b, true)]));
        assert!(s.is_ok(), "assumption UNSAT must not poison the solver");
        assert!(s.solve_with_assumptions(&[Lit::new(a, true)]));
        assert!(s.value(b), "!a forces b");
        assert!(s.solve_with_assumptions(&[Lit::new(b, true)]));
        assert!(s.value(a), "!b forces a");
        assert!(s.solve(), "still satisfiable with no assumptions");
    }

    #[test]
    fn clauses_added_between_solves_take_effect() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::new(a, false), Lit::new(b, false)]);
        assert!(s.solve());
        // Grow the formula after a solve: force !a, so b carries a|b.
        assert!(s.add_clause(&[Lit::new(a, true)]));
        assert!(s.solve());
        assert!(!s.value(a), "unit !a must hold");
        assert!(s.value(b), "a|b with !a forces b");
        // And a new variable allocated after solving works too.
        let c = s.new_var();
        assert!(s.add_clause(&[Lit::new(c, false)]));
        assert!(s.solve());
        assert!(s.value(c));
    }

    #[test]
    fn assumption_probes_on_a_growing_formula() {
        // At-most-one-per-hole constraints for 4 pigeons / 3 holes: probe
        // placements via assumptions, then grow the formula to the full
        // (UNSAT) pigeonhole instance in the same solver.
        let (pigeons, holes) = (4usize, 3usize);
        let mut s = SatSolver::new();
        let mut vars = Vec::new();
        for j in 0..holes {
            for i1 in 0..pigeons {
                for i2 in (i1 + 1)..pigeons {
                    let a = lit(&mut s, &mut vars, i1 * holes + j, true);
                    let b = lit(&mut s, &mut vars, i2 * holes + j, true);
                    s.add_clause(&[a, b]);
                }
            }
        }
        // Two pigeons in one hole: rejected, solver stays consistent.
        assert!(
            !s.solve_with_assumptions(&[Lit::new(vars[0], false), Lit::new(vars[holes], false),])
        );
        assert!(s.is_ok());
        // A proper partial placement: accepted.
        assert!(s.solve_with_assumptions(&[
            Lit::new(vars[0], false),             // pigeon 0 in hole 0
            Lit::new(vars[holes + 1], false),     // pigeon 1 in hole 1
            Lit::new(vars[2 * holes + 2], false), // pigeon 2 in hole 2
        ]));
        // Grow to the full pigeonhole instance: now genuinely UNSAT.
        for i in 0..pigeons {
            let clause: Vec<Lit> = (0..holes)
                .map(|j| lit(&mut s, &mut vars, i * holes + j, false))
                .collect();
            s.add_clause(&clause);
        }
        assert!(!s.solve());
        assert!(s.stats().conflicts > 0, "full instance needs search");
    }

    #[test]
    fn arena_compaction_keeps_verdicts_and_bounds_waste() {
        // A long incremental session: random 3-SAT blocks at the 4.26
        // threshold over shared variables, each guarded by its own
        // activation literal, probed under assumptions until the learnt
        // database has been reduced several times. Every verdict must
        // match a fresh solver on the same formula, and the arena never
        // holds more than twice the words of its live clauses.
        let mut seed = 0x005E_ED0F_A7E4_u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let n = 150usize;
        let mut s = SatSolver::new();
        let vars: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
        let mut random_lit = || Lit::new(vars[(next() % n as u64) as usize], next() & 1 == 1);
        let mut clauses: Vec<Vec<Lit>> = Vec::new();
        let mut activations: Vec<Lit> = Vec::new();
        let mut compactions = 0;
        let mut verdicts = [0usize; 2];
        while s.reduce_count < 6 {
            assert!(activations.len() < 40, "session too short to reduce");
            let act = Lit::new(s.new_var(), false);
            for _ in 0..639 {
                let mut clause: Vec<Lit> = (0..3).map(|_| random_lit()).collect();
                clause.push(act.negated());
                s.add_clause(&clause);
                clauses.push(clause);
            }
            activations.push(act);
            let k = activations.len();
            let probes = [
                vec![act],
                vec![activations[k.saturating_sub(2)], act],
                vec![act, random_lit(), random_lit()],
            ];
            for assumptions in probes {
                let words_before = s.arena.words.len();
                let verdict = s.solve_with_assumptions(&assumptions);
                if s.arena.words.len() < words_before {
                    compactions += 1;
                }
                let live = s.arena.words.len() - s.arena.wasted;
                assert!(
                    s.arena.words.len() <= 2 * live,
                    "arena {} words for {live} live words",
                    s.arena.words.len()
                );
                assert!(s.is_ok(), "the guarded database itself stays satisfiable");
                let mut fresh = SatSolver::new();
                while fresh.num_vars() < s.num_vars() {
                    fresh.new_var();
                }
                for c in &clauses {
                    fresh.add_clause(c);
                }
                let units = assumptions.iter().all(|&a| fresh.add_clause(&[a]));
                assert_eq!(verdict, units && fresh.solve(), "probe {assumptions:?}");
                verdicts[usize::from(verdict)] += 1;
            }
        }
        assert!(compactions >= 2, "reductions must trigger compactions");
        assert!(
            verdicts[0] > 0 && verdicts[1] > 0,
            "mixed verdicts {verdicts:?}"
        );
    }

    #[test]
    fn xor_chain_requires_learning() {
        // Encode x0 ^ x1 ^ ... ^ x7 = 1 via CNF of pairwise xors with
        // auxiliary variables, then also assert x-parity = 0 on a subset to
        // create conflicts.
        let mut s = SatSolver::new();
        let n = 8;
        let x: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
        // t_i = x_0 ^ ... ^ x_i
        let mut t_prev = x[0];
        for &xi in x.iter().skip(1) {
            let t = s.new_var();
            // t = t_prev ^ x_i  (4 clauses)
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
        // Parity must be 1.
        s.add_clause(&[Lit::new(t_prev, false)]);
        assert!(s.solve());
        let parity = x.iter().fold(false, |acc, &v| acc ^ s.value(v));
        assert!(parity, "xor chain parity must be 1");
    }
}
