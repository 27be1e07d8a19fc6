//! The acyclic join planner: Yannakakis-style semijoin reduction over
//! barrier-free per-relation reads.
//!
//! [`crate::Database::join`] hands this module the distinct relations of
//! a join (plus optional pushed-down per-relation predicates).  When
//! [`ids_acyclic::join_tree`] certifies the relation set α-acyclic, the
//! join runs as a two-pass reduction over the join tree:
//!
//! 1. **Bottom-up** (ear-elimination order): every *constrained*
//!    relation — one with a user filter, or with reducers already
//!    received from its own children — ships the **distinct projection**
//!    of its matching tuples onto the attributes it shares with its
//!    parent.  Join keys, not tuples ([`ReadShape::Distinct`]); the keys
//!    narrow the parent as per-column `In` guards.  Unconstrained
//!    relations ship nothing in this pass.
//! 2. **Top-down** (root first): each relation is fetched
//!    ([`ReadShape::Tuples`]), children narrowed by `In` reducers computed
//!    from their parent's already-fetched tuples.  The fetched relations
//!    are assembled client-side by folding each child into its parent in
//!    elimination order — the standard join-tree evaluation.
//!
//! Per-column `In` sets over-approximate composite join keys; that is
//! sound because reducers only ever *narrow* (they may fail to drop a
//! non-participating tuple, they never drop a participating one), and
//! the final client-side assembly computes the exact natural join of
//! whatever was fetched.  Cyclic relation sets fall back to the naive
//! fold: one filtered read per distinct relation, joined left to right.
//!
//! ## Consistency
//!
//! Every engine round trip is the barrier-free per-relation read of
//! [`crate::Database::rows`]: a cut of that relation's own history.
//! The planner issues **at most two** reads per relation (reduction
//! keys, then the fetch), and each relation's tuples in the result come
//! entirely from its single fetch cut — so every returned row is a
//! genuine join of per-relation cuts.  Under writes landing between a
//! relation's two reads the reducers may additionally hide rows that
//! only those late writes complete; with no such interleaving (in
//! particular, in single-threaded use) the result is exactly the
//! natural join of the fetch cuts.

use ids_acyclic::join_tree;
use ids_relational::{
    join_all, AttrId, AttrSet, Predicate, ReadPlan, ReadShape, Relation, SchemeId, Tuple, Value,
};

use crate::engine::Engine;
use crate::error::Error;
use crate::query::JoinReport;

/// Rebuilds a [`Relation`] over `attrs` from the rows a
/// [`ReadShape::Tuples`] read shipped.
pub(crate) fn relation_of(attrs: AttrSet, tuples: Vec<Tuple>) -> Result<Relation, Error> {
    let mut rel = Relation::new(attrs);
    for t in tuples {
        rel.insert(t.into_vec())?;
    }
    Ok(rel)
}

/// Executes a join over the **distinct** relations `ids` (attribute sets
/// in `attrs`, pushed-down per-relation predicates in `filters`; all
/// three aligned).  Callers dedup repeated relations first — that is the
/// self-join contract: one relation, one cut, however often it is
/// listed.  Returns the joined relation plus the execution report.
pub(crate) fn execute_join(
    engine: &dyn Engine,
    ids: &[SchemeId],
    attrs: &[AttrSet],
    filters: &[Predicate],
) -> Result<(Relation, JoinReport), Error> {
    debug_assert_eq!(ids.len(), attrs.len());
    debug_assert_eq!(ids.len(), filters.len());
    let mut report = JoinReport::default();
    if ids.is_empty() {
        return Err(Error::EmptyJoin);
    }
    // One plan per relation: its predicate only ever narrows, its shape
    // flips from join keys (pass 1) to tuples (the fetch).
    let mut plans: Vec<ReadPlan> = filters.iter().cloned().map(ReadPlan::tuples).collect();
    let fetch = |plan: &ReadPlan, i: usize, report: &mut JoinReport| -> Result<Relation, Error> {
        let tuples = engine.read(ids[i], plan)?.rows;
        report.tuples_shipped += tuples.len();
        relation_of(attrs[i], tuples)
    };
    if ids.len() == 1 {
        // A single relation needs no plan: one filtered read is the join.
        let rel = fetch(&plans[0], 0, &mut report)?;
        return Ok((rel, report));
    }
    let Some(tree) = join_tree(attrs) else {
        // Cyclic: the naive fold over one filtered read per relation.
        let mut rels = Vec::with_capacity(ids.len());
        for (i, plan) in plans.iter().enumerate() {
            rels.push(fetch(plan, i, &mut report)?);
        }
        let joined = join_all(rels.iter()).ok_or(Error::EmptyJoin)?;
        return Ok((joined, report));
    };
    report.planned = true;

    // Pass 1, bottom-up: constrained relations ship distinct join keys
    // into their parents.
    let mut constrained: Vec<bool> = plans.iter().map(|p| !p.predicate.is_true()).collect();
    for &i in &tree.elimination_order {
        let Some(p) = tree.parent[i] else { continue };
        if !constrained[i] {
            continue;
        }
        let shared: Vec<AttrId> = attrs[i].intersect(attrs[p]).iter().collect();
        if shared.is_empty() {
            continue;
        }
        plans[i].shape = ReadShape::Distinct(shared.clone());
        let keys = engine.read(ids[i], &plans[i])?.rows;
        report.keys_shipped += keys.len();
        for (k, &attr) in shared.iter().enumerate() {
            let vals: Vec<Value> = keys.iter().map(|row| row[k]).collect();
            plans[p].predicate = std::mem::take(&mut plans[p].predicate).and_in(attr, vals);
        }
        constrained[p] = true;
    }

    // Pass 2, top-down: fetch root-first, narrowing each child with
    // reducers projected from its parent's fetched tuples.
    let mut fetched: Vec<Option<Relation>> = vec![None; ids.len()];
    for &i in tree.elimination_order.iter().rev() {
        if let Some(p) = tree.parent[i] {
            // Reversed elimination order visits a parent before its children.
            let parent = fetched[p].as_ref().expect("parents fetch first");
            for attr in attrs[i].intersect(attrs[p]).iter() {
                let pos = attrs[p].rank(attr);
                let mut vals: Vec<Value> = parent.iter().map(|t| t[pos]).collect();
                vals.sort_unstable();
                vals.dedup();
                report.keys_shipped += vals.len();
                plans[i].predicate = std::mem::take(&mut plans[i].predicate).and_in(attr, vals);
            }
        }
        plans[i].shape = ReadShape::Tuples;
        fetched[i] = Some(fetch(&plans[i], i, &mut report)?);
    }

    // Assemble: fold each child into its parent in elimination order;
    // the root accumulates the full join.
    for &i in &tree.elimination_order {
        let Some(p) = tree.parent[i] else { continue };
        // Pass 2 filled every slot; elimination order removes a node only
        // after all its children, and each node appears in it once.
        let child = fetched[i].take().expect("each edge folds exactly once");
        let parent = fetched[p].take().expect("parent folds after its children");
        fetched[p] = Some(parent.natural_join(&child));
    }
    // The root has no parent, so no fold above took it.
    let joined = fetched[tree.root()].take().expect("root holds the join");
    Ok((joined, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids_core::{analyze, LocalMaintainer, Maintainer};
    use ids_deps::FdSet;
    use ids_relational::{DatabaseSchema, DatabaseState, Universe};

    fn v(n: u64) -> Value {
        Value::int(n)
    }

    fn maintainer(schema: &DatabaseSchema) -> LocalMaintainer {
        let analysis = analyze(schema, &FdSet::new());
        LocalMaintainer::from_analysis(schema, &analysis, DatabaseState::empty(schema)).unwrap()
    }

    fn setup(
        schema: &DatabaseSchema,
        rows: &[(&str, &[(u64, u64)])],
    ) -> (Vec<SchemeId>, Vec<AttrSet>, LocalMaintainer) {
        let mut m = maintainer(schema);
        let mut ids = Vec::new();
        let mut attrs = Vec::new();
        for (name, tuples) in rows {
            let id = schema.scheme_by_name(name).unwrap();
            ids.push(id);
            attrs.push(schema.attrs(id));
            for &(a, b) in *tuples {
                Maintainer::insert(&mut m, id, vec![v(a), v(b)]).unwrap();
            }
        }
        (ids, attrs, m)
    }

    /// The planned chain join equals the naive fold, ships only what the
    /// filter admits, and reports itself as planned.
    #[test]
    fn planned_acyclic_join_matches_the_naive_fold_and_ships_less() {
        let u = Universe::from_names(["A", "B", "C", "D"]).unwrap();
        let schema = DatabaseSchema::parse(u, &[("R1", "AB"), ("R2", "BC"), ("R3", "CD")]).unwrap();
        let (ids, attrs, m) = setup(
            &schema,
            &[
                ("R1", &[(1, 10), (2, 20), (3, 30)]),
                ("R2", &[(10, 100), (20, 200)]),
                ("R3", &[(100, 7), (200, 8), (999, 9)]),
            ],
        );
        let engine: &dyn Engine = &m;
        let a = schema.universe().attr("A").unwrap();

        // Unfiltered: planner result ≡ whole-relation fold.
        let empty = vec![Predicate::new(); 3];
        let (planned, report) = execute_join(engine, &ids, &attrs, &empty).unwrap();
        assert!(report.planned);
        let naive = join_all(ids.iter().map(|&id| m.state().relation(id))).unwrap();
        assert!(planned.set_eq(&naive));
        assert_eq!(planned.len(), 2);

        // Filtered on R1.A: one row survives, and only matching tuples
        // ever crossed the engine boundary (1 per relation here).
        let filters = vec![
            Predicate::new().and_eq(a, v(1)),
            Predicate::new(),
            Predicate::new(),
        ];
        let (filtered, report) = execute_join(engine, &ids, &attrs, &filters).unwrap();
        assert!(report.planned);
        assert_eq!(filtered.len(), 1);
        assert!(filtered.contains(&[v(1), v(10), v(100), v(7)]));
        assert_eq!(report.tuples_shipped, 3, "one matching tuple per relation");
        assert!(report.keys_shipped > 0, "reducers were shipped");
    }

    /// Cyclic sets fall back to the (self-join-safe) naive fold and say so.
    #[test]
    fn cyclic_sets_fall_back_to_the_naive_fold() {
        let u = Universe::from_names(["A", "B", "C"]).unwrap();
        let schema = DatabaseSchema::parse(u, &[("AB", "AB"), ("BC", "BC"), ("CA", "AC")]).unwrap();
        let (ids, attrs, m) = setup(
            &schema,
            &[
                ("AB", &[(1, 2), (5, 6)]),
                ("BC", &[(2, 3)]),
                // CA has scheme {A, C}: canonical order (A, C).
                ("CA", &[(1, 3)]),
            ],
        );
        let engine: &dyn Engine = &m;
        let empty = vec![Predicate::new(); 3];
        let (joined, report) = execute_join(engine, &ids, &attrs, &empty).unwrap();
        assert!(!report.planned);
        assert_eq!(joined.len(), 1);
        assert!(joined.contains(&[v(1), v(2), v(3)]));
        assert_eq!(report.tuples_shipped, 4, "the fold ships every tuple");
        assert_eq!(report.keys_shipped, 0);
    }

    /// The caller-facing degenerate shapes: empty input, single relation.
    #[test]
    fn degenerate_shapes() {
        let u = Universe::from_names(["A", "B"]).unwrap();
        let schema = DatabaseSchema::parse(u, &[("R", "AB")]).unwrap();
        let (ids, attrs, m) = setup(&schema, &[("R", &[(1, 2), (3, 4)])]);
        let engine: &dyn Engine = &m;
        assert!(matches!(
            execute_join(engine, &[], &[], &[]),
            Err(Error::EmptyJoin)
        ));
        let (rel, report) = execute_join(engine, &ids, &attrs, &[Predicate::new()]).unwrap();
        assert!(!report.planned);
        assert_eq!(rel.len(), 2);
    }
}
