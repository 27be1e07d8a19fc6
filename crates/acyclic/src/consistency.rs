//! Semijoin programs, full reduction and consistency of states.
//!
//! For *acyclic* schemas, Yannakakis' full reducer — one bottom-up and one
//! top-down semijoin sweep over a join tree — removes exactly the dangling
//! tuples, after which pairwise consistency coincides with global (join)
//! consistency.  On cyclic schemas no semijoin program is a full reducer
//! (the classic triangle witnesses this, see tests).

use ids_relational::{DatabaseState, SchemeId};

use crate::gyo::JoinTree;

/// The semijoin program of a join tree: a list of `(target, source)` pairs
/// meaning `r_target := r_target ⋉ r_source`, bottom-up then top-down.
pub(crate) fn semijoin_program(tree: &JoinTree) -> Vec<(usize, usize)> {
    let mut program = Vec::new();
    // Bottom-up: in elimination order, parent absorbs child filter.
    for &i in &tree.elimination_order {
        if let Some(p) = tree.parent[i] {
            program.push((p, i));
        }
    }
    // Top-down: reverse order, children filtered by parents.
    for &i in tree.elimination_order.iter().rev() {
        if let Some(p) = tree.parent[i] {
            program.push((i, p));
        }
    }
    program
}

/// Runs the full reducer in place; returns the number of tuples removed.
pub fn full_reduce(state: &mut DatabaseState, tree: &JoinTree) -> usize {
    let before = state.total_tuples();
    for (target, source) in semijoin_program(tree) {
        let reduced = {
            let src = state.relation(SchemeId::from_index(source));
            state.relation(SchemeId::from_index(target)).semijoin(src)
        };
        *state.relation_mut(SchemeId::from_index(target)) = reduced;
    }
    before - state.total_tuples()
}

/// Pairwise consistency: for every pair of relations the projections onto
/// the shared attributes coincide.
pub fn is_pairwise_consistent(state: &DatabaseState) -> bool {
    let rels: Vec<_> = state.iter().map(|(_, r)| r).collect();
    for i in 0..rels.len() {
        for j in (i + 1)..rels.len() {
            let shared = rels[i].attrs().intersect(rels[j].attrs());
            if shared.is_empty() {
                continue;
            }
            if !rels[i].project(shared).set_eq(&rels[j].project(shared)) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gyo::join_tree;
    use ids_relational::{DatabaseSchema, Universe, Value};

    fn v(n: u64) -> Value {
        Value::int(n)
    }

    fn chain_schema() -> DatabaseSchema {
        let u = Universe::from_names(["A", "B", "C"]).unwrap();
        DatabaseSchema::parse(u, &[("AB", "AB"), ("BC", "BC")]).unwrap()
    }

    #[test]
    fn full_reducer_removes_dangling_tuples() {
        let d = chain_schema();
        let tree = join_tree(&d.join_dependency_components()).unwrap();
        let mut p = DatabaseState::empty(&d);
        p.insert(SchemeId(0), vec![v(1), v(2)]).unwrap();
        p.insert(SchemeId(0), vec![v(3), v(9)]).unwrap(); // dangling
        p.insert(SchemeId(1), vec![v(2), v(5)]).unwrap();
        let removed = full_reduce(&mut p, &tree);
        assert_eq!(removed, 1);
        assert!(p.is_join_consistent());
        assert!(is_pairwise_consistent(&p));
    }

    #[test]
    fn reduced_acyclic_state_pairwise_implies_global() {
        let d = chain_schema();
        let tree = join_tree(&d.join_dependency_components()).unwrap();
        let mut p = DatabaseState::empty(&d);
        for i in 0..10u64 {
            p.insert(SchemeId(0), vec![v(i), v(100 + i % 3)]).unwrap();
            p.insert(SchemeId(1), vec![v(100 + i % 3), v(200 + i)])
                .unwrap();
        }
        full_reduce(&mut p, &tree);
        assert_eq!(is_pairwise_consistent(&p), p.is_join_consistent());
        assert!(p.is_join_consistent());
    }

    #[test]
    fn triangle_pairwise_but_not_global() {
        // The classic cyclic counterexample: pairwise consistent but no
        // universal instance projects onto all three relations.
        let u = Universe::from_names(["A", "B", "C"]).unwrap();
        let d = DatabaseSchema::parse(u, &[("AB", "AB"), ("BC", "BC"), ("CA", "CA")]).unwrap();
        let mut p = DatabaseState::empty(&d);
        // A parity gadget: each pair joins, the triangle does not close.
        p.insert(SchemeId(0), vec![v(0), v(0)]).unwrap();
        p.insert(SchemeId(0), vec![v(1), v(1)]).unwrap();
        p.insert(SchemeId(1), vec![v(0), v(1)]).unwrap();
        p.insert(SchemeId(1), vec![v(1), v(0)]).unwrap();
        p.insert(SchemeId(2), vec![v(0), v(0)]).unwrap();
        p.insert(SchemeId(2), vec![v(1), v(1)]).unwrap();
        assert!(is_pairwise_consistent(&p));
        assert!(!p.is_join_consistent());
    }

    #[test]
    fn semijoin_program_touches_every_non_root_edge_twice() {
        let u = Universe::from_names(["A", "B", "C", "D"]).unwrap();
        let d = DatabaseSchema::parse(u, &[("AB", "AB"), ("BC", "BC"), ("CD", "CD")]).unwrap();
        let tree = join_tree(&d.join_dependency_components()).unwrap();
        let prog = semijoin_program(&tree);
        assert_eq!(prog.len(), 2 * (d.len() - 1));
    }

    #[test]
    fn full_reduce_on_consistent_state_is_noop() {
        let d = chain_schema();
        let tree = join_tree(&d.join_dependency_components()).unwrap();
        let mut univ = ids_relational::Relation::new(d.universe().all());
        univ.insert(vec![v(1), v(2), v(3)]).unwrap();
        univ.insert(vec![v(4), v(5), v(6)]).unwrap();
        let mut p = DatabaseState::project_universal(&d, &univ);
        assert_eq!(full_reduce(&mut p, &tree), 0);
    }
}
