//! Yannakakis' join-tree evaluation.
//!
//! After full reduction, joining the relations *in join-tree order* never
//! creates dangling intermediate tuples: every intermediate result is a
//! projection-extension of the final join, so the work is bounded by input
//! plus output (\[Y\]).  This is the constructive content of "acyclic
//! schemes are easy" that the paper's Theorem 1 discussion points to.

use ids_relational::{DatabaseState, Relation};

use crate::consistency::full_reduce;
use crate::gyo::JoinTree;

/// Computes the full join `*p` of a state along a join tree: full-reduce,
/// then fold children into parents bottom-up (elimination order).
///
/// Returns the join and the largest intermediate row count observed (used
/// by tests and benches to certify output-boundedness).
pub fn yannakakis_join(state: &DatabaseState, tree: &JoinTree) -> (Relation, usize) {
    let mut reduced = state.clone();
    full_reduce(&mut reduced, tree);

    // Current relation per tree node; children merge into parents.
    let mut current: Vec<Relation> = reduced.iter().map(|(_, r)| r.clone()).collect();
    let mut max_intermediate = current.iter().map(Relation::len).max().unwrap_or(0);

    for &i in &tree.elimination_order {
        let Some(p) = tree.parent[i] else {
            // Root: done.
            return (current[i].clone(), max_intermediate);
        };
        let merged = current[p].natural_join(&current[i]);
        max_intermediate = max_intermediate.max(merged.len());
        current[p] = merged;
    }
    unreachable!("elimination order ends at the root")
}

/// Reference implementation for tests: fold the join in schema order with
/// no reduction (can build large dangling intermediates on purpose).
pub fn naive_join(state: &DatabaseState) -> Option<Relation> {
    ids_relational::join_all(state.iter().map(|(_, r)| r).collect::<Vec<_>>().into_iter())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gyo::join_tree;
    use ids_relational::{DatabaseSchema, SchemeId, Universe, Value};

    fn v(n: u64) -> Value {
        Value::int(n)
    }

    /// Counts dangling-intermediate waste of the naive order: the largest
    /// intermediate size (for the E5-style comparison).
    fn naive_join_max_intermediate(state: &DatabaseState) -> usize {
        let mut iter = state.iter().map(|(_, r)| r);
        let Some(first) = iter.next() else { return 0 };
        let mut acc = first.clone();
        let mut max = acc.len();
        for r in iter {
            acc = acc.natural_join(r);
            max = max.max(acc.len());
        }
        max
    }

    fn chain4() -> DatabaseSchema {
        let u = Universe::from_names(["A", "B", "C", "D"]).unwrap();
        DatabaseSchema::parse(u, &[("AB", "AB"), ("BC", "BC"), ("CD", "CD")]).unwrap()
    }

    #[test]
    fn yannakakis_equals_naive_join() {
        let d = chain4();
        let tree = join_tree(&d.join_dependency_components()).unwrap();
        let mut p = DatabaseState::empty(&d);
        for i in 0..6u64 {
            p.insert(SchemeId(0), vec![v(i), v(i % 2)]).unwrap();
            p.insert(SchemeId(1), vec![v(i % 2), v(i % 3)]).unwrap();
            p.insert(SchemeId(2), vec![v(i % 3), v(100 + i)]).unwrap();
        }
        let (yj, _) = yannakakis_join(&p, &tree);
        let nj = naive_join(&p).unwrap();
        assert!(yj.set_eq(&nj));
    }

    #[test]
    fn yannakakis_avoids_dangling_blowup() {
        // A chain where the middle relation is large but almost entirely
        // dangling: the naive left-to-right join materializes the cross
        // section before discovering nothing matches downstream.
        let d = chain4();
        let tree = join_tree(&d.join_dependency_components()).unwrap();
        let mut p = DatabaseState::empty(&d);
        // AB: many tuples sharing B=0.
        for i in 0..30u64 {
            p.insert(SchemeId(0), vec![v(i), v(0)]).unwrap();
        }
        // BC: many tuples from B=0 to distinct C's.
        for i in 0..30u64 {
            p.insert(SchemeId(1), vec![v(0), v(i)]).unwrap();
        }
        // CD: only C=999 continues — everything upstream is dangling.
        p.insert(SchemeId(2), vec![v(999), v(1)]).unwrap();

        let naive_max = naive_join_max_intermediate(&p);
        let (yj, yann_max) = yannakakis_join(&p, &tree);
        assert_eq!(yj.len(), 0);
        assert_eq!(naive_max, 900, "naive builds the full AB×BC cross section");
        assert!(
            yann_max <= 30,
            "reduced join must stay input-bounded, got {yann_max}"
        );
    }

    #[test]
    fn single_relation_tree() {
        let u = Universe::from_names(["A", "B"]).unwrap();
        let d = DatabaseSchema::parse(u, &[("AB", "AB")]).unwrap();
        let tree = join_tree(&d.join_dependency_components()).unwrap();
        let mut p = DatabaseState::empty(&d);
        p.insert(SchemeId(0), vec![v(1), v(2)]).unwrap();
        let (j, _) = yannakakis_join(&p, &tree);
        assert_eq!(j.len(), 1);
    }

    #[test]
    fn star_join_with_selective_satellite() {
        let u = Universe::from_names(["K", "A", "B"]).unwrap();
        let d = DatabaseSchema::parse(u, &[("KA", "KA"), ("KB", "KB")]).unwrap();
        let tree = join_tree(&d.join_dependency_components()).unwrap();
        let mut p = DatabaseState::empty(&d);
        for i in 0..10u64 {
            p.insert(SchemeId(0), vec![v(i), v(100 + i)]).unwrap();
        }
        p.insert(SchemeId(1), vec![v(3), v(7)]).unwrap();
        let (j, max_inter) = yannakakis_join(&p, &tree);
        assert_eq!(j.len(), 1);
        assert!(max_inter <= 10);
        assert!(j.contains(&[v(3), v(103), v(7)]));
    }
}
