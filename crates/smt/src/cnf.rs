//! Tseitin transformation from an [`Aig`] to CNF clauses in a SAT solver.

use crate::aig::{Aig, AigLit, AigNode};
use crate::sat::{Lit, SatSolver, Var};

const UNENCODED: u32 = u32::MAX;

/// The SAT variable of every encoded AIG node: a dense table indexed by
/// node id, since the encoder looks up every gate input it visits.
#[derive(Debug, Default)]
pub struct NodeVars {
    vars: Vec<u32>,
}

impl NodeVars {
    /// An empty table.
    pub fn new() -> NodeVars {
        NodeVars::default()
    }

    /// The SAT variable of `node`, if its cone has been encoded.
    pub fn get(&self, node: u32) -> Option<Var> {
        match self.vars.get(node as usize) {
            Some(&v) if v != UNENCODED => Some(Var(v)),
            _ => None,
        }
    }

    fn contains(&self, node: u32) -> bool {
        self.vars[node as usize] != UNENCODED
    }

    fn var(&self, node: u32) -> Var {
        self.get(node).expect("cone encoded before use")
    }

    fn insert(&mut self, node: u32, v: Var) {
        self.vars[node as usize] = v.0;
    }
}

/// Outcome of loading AIG roots into a SAT solver.
#[derive(Debug)]
pub enum CnfResult {
    /// All roots encoded; the table gives the SAT variable of each AIG
    /// node in the cone of influence.
    Loaded(NodeVars),
    /// A root was the constant false literal — the query is trivially
    /// unsatisfiable without calling the solver.
    TriviallyUnsat,
}

/// Encodes the cones of `roots` into `solver` and asserts each root true.
///
/// Each AIG node in the cone gets one SAT variable; and-gates produce the
/// three standard Tseitin clauses. Constant-true roots are skipped;
/// a constant-false root short-circuits to [`CnfResult::TriviallyUnsat`].
pub fn load_aig(aig: &Aig, roots: &[AigLit], solver: &mut SatSolver) -> CnfResult {
    let mut node_var = NodeVars::new();
    if assert_roots(aig, roots, solver, &mut node_var) {
        CnfResult::Loaded(node_var)
    } else {
        CnfResult::TriviallyUnsat
    }
}

/// Incrementally asserts `roots` true on top of whatever the solver
/// already holds, reusing and extending a persistent node→variable table so
/// previously encoded cones are shared rather than re-blasted. Returns
/// `false` when the asserted set became trivially unsatisfiable (a
/// constant-false root or a root-level conflict).
pub fn assert_roots(
    aig: &Aig,
    roots: &[AigLit],
    solver: &mut SatSolver,
    node_var: &mut NodeVars,
) -> bool {
    for &root in roots {
        if root == AigLit::TRUE {
            continue;
        }
        if root == AigLit::FALSE {
            return false;
        }
        let lit = encode_lit(aig, root, solver, node_var);
        if !solver.add_clause(&[lit]) {
            return false;
        }
    }
    true
}

/// Encodes the cone of a non-constant AIG literal into `solver` (reusing
/// the persistent table) and returns the corresponding SAT literal
/// *without* asserting it — the caller may pass it as an assumption.
pub fn encode_lit(aig: &Aig, lit: AigLit, solver: &mut SatSolver, node_var: &mut NodeVars) -> Lit {
    debug_assert!(lit != AigLit::TRUE && lit != AigLit::FALSE);
    encode_cone(aig, lit.node(), solver, node_var);
    Lit::new(node_var.var(lit.node()), lit.complemented())
}

fn encode_cone(aig: &Aig, root: u32, solver: &mut SatSolver, node_var: &mut NodeVars) {
    if node_var.vars.len() < aig.len() {
        node_var.vars.resize(aig.len(), UNENCODED);
    }
    let mut stack = vec![root];
    while let Some(&n) = stack.last() {
        if node_var.contains(n) {
            stack.pop();
            continue;
        }
        match aig.node(n) {
            AigNode::Const => {
                // Constant literals never appear inside gates after AIG
                // simplification, and constant roots are handled above.
                let v = solver.new_var();
                solver.add_clause(&[Lit::new(v, true)]); // node value = false
                node_var.insert(n, v);
                stack.pop();
            }
            AigNode::Input(_) => {
                let v = solver.new_var();
                node_var.insert(n, v);
                stack.pop();
            }
            AigNode::And(a, b) => {
                let (na, nb) = (a.node(), b.node());
                let mut ready = true;
                if !node_var.contains(na) {
                    stack.push(na);
                    ready = false;
                }
                if !node_var.contains(nb) {
                    stack.push(nb);
                    ready = false;
                }
                if !ready {
                    continue;
                }
                let y = solver.new_var();
                node_var.insert(n, y);
                let la = Lit::new(node_var.var(na), a.complemented());
                let lb = Lit::new(node_var.var(nb), b.complemented());
                let ly = Lit::new(y, false);
                // y <-> (la & lb)
                solver.add_clause(&[ly.negated(), la]);
                solver.add_clause(&[ly.negated(), lb]);
                solver.add_clause(&[la.negated(), lb.negated(), ly]);
                stack.pop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivially_unsat_root() {
        let aig = Aig::new();
        let mut solver = SatSolver::new();
        match load_aig(&aig, &[AigLit::FALSE], &mut solver) {
            CnfResult::TriviallyUnsat => {}
            CnfResult::Loaded(_) => panic!("false root must be trivially unsat"),
        }
    }

    #[test]
    fn true_roots_are_skipped() {
        let aig = Aig::new();
        let mut solver = SatSolver::new();
        match load_aig(&aig, &[AigLit::TRUE], &mut solver) {
            CnfResult::Loaded(map) => assert_eq!(map.get(AigLit::TRUE.node()), None),
            CnfResult::TriviallyUnsat => panic!("true root must load"),
        }
        assert!(solver.solve());
    }

    #[test]
    fn simple_and_gate_is_satisfiable_and_forced() {
        let mut aig = Aig::new();
        let a = aig.input(0);
        let b = aig.input(1);
        let both = aig.and(a, b);
        let mut solver = SatSolver::new();
        let map = match load_aig(&aig, &[both], &mut solver) {
            CnfResult::Loaded(map) => map,
            CnfResult::TriviallyUnsat => panic!("satisfiable"),
        };
        assert!(solver.solve());
        // Asserting a&b forces both inputs true.
        assert!(solver.value(map.get(a.node()).expect("encoded")));
        assert!(solver.value(map.get(b.node()).expect("encoded")));
    }

    #[test]
    fn contradictory_roots_are_unsat() {
        let mut aig = Aig::new();
        let a = aig.input(0);
        let mut solver = SatSolver::new();
        match load_aig(&aig, &[a, a.not()], &mut solver) {
            CnfResult::Loaded(_) => assert!(!solver.solve()),
            CnfResult::TriviallyUnsat => {} // also acceptable (unit conflict)
        }
    }
}
