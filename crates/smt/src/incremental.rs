//! Per-path incremental solving: a retained bit-blast + CDCL context.
//!
//! Along one exploration path the constraint set only grows: every
//! `decide()` pushes a conjunct, and every fork probe asks about the same
//! prefix plus one fresh condition. The layered solver answers most of
//! those probes above the SAT core; this module makes the ones that *do*
//! reach the core cheap as well. A [`SolverCtx`] keeps the path prefix
//! bit-blasted, Tseitin-encoded and asserted in a single [`SatSolver`]
//! whose learned clauses, variable activities and saved phases persist,
//! and decides each probe as one assumption solve on top
//! ([`SatSolver::solve_with_assumptions`]). New conjuncts append — the
//! AIG, the node→variable table and the clause database never rebuild.
//!
//! # Determinism
//!
//! An assumption solve's model depends on the solver's accumulated
//! history (activities, phases, learned clauses), so it is *not* the
//! canonical model the deterministic one-shot core would produce. The
//! context is therefore only ever used for verdicts
//! ([`Solver::check_feasible`](crate::Solver::check_feasible)), where
//! SAT/UNSAT is unique and hence history-independent; nothing a context
//! computes is written to any cache except UNSAT verdicts, which are
//! canonical facts. Model-producing queries keep using the fresh
//! deterministic core, so reports stay byte-identical whether the
//! incremental layer is on or off.

use crate::aig::AigLit;
use crate::blast::Blaster;
use crate::cnf::{self, NodeVars};
use crate::sat::{SatSolver, SatStats};
use crate::term::{TermId, TermPool};

/// Counters for the incremental per-path solving layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Fresh per-path solver contexts created.
    pub contexts: u64,
    /// Probes decided by an assumption solve in a retained context.
    pub assumption_solves: u64,
    /// Learnt clauses alive at the start of each assumption solve, summed
    /// across solves — a proxy for how much learned work carried over.
    pub clauses_retained: u64,
    /// CDCL restarts performed inside retained contexts.
    pub restarts: u64,
}

impl IncrementalStats {
    /// Merges `other` into `self` (summing all counters).
    pub fn merge(&mut self, other: &IncrementalStats) {
        self.contexts += other.contexts;
        self.assumption_solves += other.assumption_solves;
        self.clauses_retained += other.clauses_retained;
        self.restarts += other.restarts;
    }
}

/// A retained incremental solving context for one path's constraint
/// prefix.
///
/// The context is append-only: [`extend_prefix`](SolverCtx::extend_prefix)
/// asserts newly pushed conjuncts on top of everything already loaded, and
/// [`solve_assuming`](SolverCtx::solve_assuming) decides the prefix plus
/// one focus condition without asserting the focus — so a probe on `¬c`
/// never poisons the context for a later prefix that contains `c`.
///
/// A context is bound to the [`TermPool`] it was created against
/// ([`TermPool::pool_id`]): [`TermId`]s are dense indices with no pool tag,
/// and the blaster memoizes per id, so ids minted by another pool must be
/// rejected rather than silently resolved to the wrong term.
#[derive(Debug)]
pub struct SolverCtx {
    blaster: Blaster,
    sat: SatSolver,
    node_var: NodeVars,
    /// Sorted fingerprints of the conjuncts asserted so far.
    loaded: Vec<u128>,
    pool_id: u64,
    /// Set when asserting the prefix itself conflicted at the root level;
    /// the caller falls back to the fresh deterministic core.
    failed: bool,
}

impl SolverCtx {
    /// Creates an empty context bound to `pool`.
    pub fn new(pool: &TermPool) -> SolverCtx {
        SolverCtx {
            blaster: Blaster::new(),
            sat: SatSolver::new(),
            node_var: NodeVars::new(),
            loaded: Vec::new(),
            pool_id: pool.pool_id(),
            failed: false,
        }
    }

    /// Whether this context can serve a probe whose base prefix has the
    /// given sorted fingerprints: same pool, not failed, and everything
    /// already asserted is still part of the prefix (constraint sets only
    /// grow along a path; anything else needs a fresh context).
    pub fn compatible(&self, pool: &TermPool, base_fps: &[u128]) -> bool {
        !self.failed && self.pool_id == pool.pool_id() && is_sorted_subset(&self.loaded, base_fps)
    }

    /// Asserts every not-yet-loaded conjunct of `base` (canonicalized
    /// `(fingerprint, id)` entries, sorted by fingerprint) as a unit on
    /// top of the retained clause database.
    ///
    /// Only call when [`compatible`](SolverCtx::compatible) holds for the
    /// base's fingerprints.
    pub fn extend_prefix(&mut self, pool: &TermPool, base: &[(u128, TermId)]) {
        debug_assert!(self.compatible(pool, &base.iter().map(|&(fp, _)| fp).collect::<Vec<_>>()));
        for &(fp, id) in base {
            if self.loaded.binary_search(&fp).is_ok() {
                continue;
            }
            let bits = self.blaster.blast(pool, id);
            debug_assert_eq!(bits.len(), 1, "prefix conjuncts are boolean");
            if !cnf::assert_roots(
                self.blaster.aig(),
                &[bits[0]],
                &mut self.sat,
                &mut self.node_var,
            ) {
                // A feasible-by-construction prefix cannot conflict; if it
                // somehow does, poison the context instead of guessing.
                self.failed = true;
                return;
            }
        }
        self.loaded = base.iter().map(|&(fp, _)| fp).collect();
    }

    /// Decides `prefix ∪ {focus}` with the focus posted as an assumption.
    /// Returns `None` when the context cannot answer (poisoned prefix or
    /// an inconsistent clause database) and the caller should fall back to
    /// a fresh solve.
    pub fn solve_assuming(&mut self, pool: &TermPool, focus: TermId) -> Option<bool> {
        if self.failed || !self.sat.is_ok() {
            return None;
        }
        let bits = self.blaster.blast(pool, focus);
        debug_assert_eq!(bits.len(), 1, "focus must be boolean");
        let root = bits[0];
        if root == AigLit::TRUE {
            // AIG simplification proved the focus; the prefix is feasible
            // by the caller's precondition.
            return Some(true);
        }
        if root == AigLit::FALSE {
            return Some(false);
        }
        let lit = cnf::encode_lit(self.blaster.aig(), root, &mut self.sat, &mut self.node_var);
        Some(self.sat.solve_with_assumptions(&[lit]))
    }

    /// Number of learnt clauses currently alive in the retained database.
    pub fn learnt_alive(&self) -> usize {
        self.sat.num_learnt()
    }

    /// The retained SAT core's cumulative counters.
    pub fn sat_stats(&self) -> SatStats {
        self.sat.stats()
    }
}

/// Whether sorted `a` is a subset of sorted `b` (two-pointer merge walk).
fn is_sorted_subset(a: &[u128], b: &[u128]) -> bool {
    let mut j = 0;
    for &x in a {
        while j < b.len() && b[j] < x {
            j += 1;
        }
        if j == b.len() || b[j] != x {
            return false;
        }
        j += 1;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Width;

    fn canon(pool: &TermPool, cs: &[TermId]) -> Vec<(u128, TermId)> {
        let mut entries: Vec<(u128, TermId)> =
            cs.iter().map(|&c| (pool.fingerprint(c), c)).collect();
        entries.sort_unstable_by_key(|&(fp, _)| fp);
        entries.dedup_by_key(|&mut (fp, _)| fp);
        entries
    }

    #[test]
    fn sorted_subset_walk() {
        assert!(is_sorted_subset(&[], &[]));
        assert!(is_sorted_subset(&[], &[1]));
        assert!(is_sorted_subset(&[2], &[1, 2, 3]));
        assert!(is_sorted_subset(&[1, 3], &[1, 2, 3]));
        assert!(!is_sorted_subset(&[4], &[1, 2, 3]));
        assert!(!is_sorted_subset(&[1, 2], &[2, 3]));
        assert!(!is_sorted_subset(&[1], &[]));
    }

    #[test]
    fn growing_prefix_reuses_the_context() {
        let mut pool = TermPool::new();
        let x = pool.var("x", Width::W8);
        let ten = pool.constant(10, Width::W8);
        let five = pool.constant(5, Width::W8);
        let three = pool.constant(3, Width::W8);
        let seven = pool.constant(7, Width::W8);
        let c1 = pool.ult(x, ten);
        let c2 = pool.ult(x, five);
        let eq3 = pool.eq(x, three);
        let eq7 = pool.eq(x, seven);

        let mut ctx = SolverCtx::new(&pool);
        let base1 = canon(&pool, &[c1]);
        ctx.extend_prefix(&pool, &base1);
        assert_eq!(ctx.solve_assuming(&pool, eq3), Some(true));
        assert_eq!(ctx.solve_assuming(&pool, eq7), Some(true));

        // Grow the prefix: x < 5 joins. The old load stays valid.
        let base2 = canon(&pool, &[c1, c2]);
        assert!(ctx.compatible(&pool, &base2.iter().map(|&(fp, _)| fp).collect::<Vec<_>>()));
        ctx.extend_prefix(&pool, &base2);
        assert_eq!(ctx.solve_assuming(&pool, eq3), Some(true));
        assert_eq!(ctx.solve_assuming(&pool, eq7), Some(false), "x < 5 now");
        // And a failed assumption must not poison later probes.
        assert_eq!(ctx.solve_assuming(&pool, eq3), Some(true));
    }

    #[test]
    fn shrunk_prefix_is_incompatible() {
        let mut pool = TermPool::new();
        let x = pool.var("x", Width::W8);
        let k = pool.constant(9, Width::W8);
        let c = pool.ult(x, k);
        let mut ctx = SolverCtx::new(&pool);
        ctx.extend_prefix(&pool, &canon(&pool, &[c]));
        assert!(!ctx.compatible(&pool, &[]), "loaded ⊄ empty prefix");
    }

    #[test]
    fn foreign_pool_is_rejected() {
        let mut pool_a = TermPool::new();
        let x = pool_a.var("x", Width::W8);
        let k = pool_a.constant(3, Width::W8);
        let c = pool_a.ult(x, k);
        let entries = canon(&pool_a, &[c]);
        let fps: Vec<u128> = entries.iter().map(|&(fp, _)| fp).collect();

        let ctx = SolverCtx::new(&pool_a);
        assert!(ctx.compatible(&pool_a, &fps));
        let pool_b = pool_a.clone(); // fresh identity by design
        assert!(!ctx.compatible(&pool_b, &fps));
    }
}
