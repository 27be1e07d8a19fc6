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
//!    from their parent's already-fetched tuples.  The fetched tuples are
//!    then folded **flat**: in elimination order each child is hash-joined
//!    into its parent — one hash join per join-tree edge, straight into a
//!    row-major `Vec<Value>` ([`Joined`]), with no `Relation` built and no
//!    allocation per row.  Rows come out parent-major: the parent's
//!    tuples in fetch order, each followed by its matches in the child's
//!    fetch order.
//!
//! The fold needs **no de-duplication**.  Every read ships a set (a
//! relation holds each tuple once, and a read returns each match once),
//! and the natural join of duplicate-free inputs is duplicate-free: an
//! output row projects back onto exactly one row of each input, so two
//! equal output rows would come from the same pair of input rows — which
//! the fold visits once.
//!
//! Per-column `In` sets over-approximate composite join keys; that is
//! sound because reducers only ever *narrow* (they may fail to drop a
//! non-participating tuple, they never drop a participating one), and
//! the fold computes the exact natural join of whatever was fetched.
//! Cyclic relation sets fall back to the naive plan: one filtered read
//! per distinct relation, folded left to right by the same hash join.
//!
//! ## Consistency
//!
//! Every store round trip is the barrier-free per-relation read of
//! [`crate::Database::rows`]: a cut of that relation's own history.  All
//! of one join's round trips run in the one [`Era`] its caller resolved
//! the relation names in, so a concurrent alter cannot move a relation
//! between two of them.
//! The planner issues **at most two** reads per relation (reduction
//! keys, then the fetch), and each relation's tuples in the result come
//! entirely from its single fetch cut — so every returned row is a
//! genuine join of per-relation cuts.  Under writes landing between a
//! relation's two reads the reducers may additionally hide rows that
//! only those late writes complete; with no such interleaving (in
//! particular, in single-threaded use) the result is exactly the
//! natural join of the fetch cuts.

use std::collections::hash_map::{Entry, HashMap};

use ids_acyclic::join_tree;
use ids_relational::{AttrId, AttrSet, Predicate, ReadPlan, ReadShape, SchemeId, Tuple, Value};
use ids_store::Era;

use crate::query::JoinReport;
use crate::Error;

/// End of a match chain in [`Joined::join`].
const NO_MATCH: usize = usize::MAX;

/// A join result, flat: `len` rows of `attrs.len()` values each, stored
/// row-major in one `Vec`, every row laid out in `attrs`' ascending
/// attribute order (the layout of a tuple over `attrs`).
#[derive(Debug)]
pub(crate) struct Joined {
    attrs: AttrSet,
    len: usize,
    values: Vec<Value>,
}

impl Joined {
    /// The tuples one read shipped, flattened.
    fn of(attrs: AttrSet, tuples: &[Tuple]) -> Self {
        let mut values = Vec::with_capacity(tuples.len() * attrs.len());
        for t in tuples {
            values.extend_from_slice(t);
        }
        Joined {
            attrs,
            len: tuples.len(),
            values,
        }
    }

    /// The attributes of every row, in row layout order.
    pub(crate) fn attrs(&self) -> AttrSet {
        self.attrs
    }

    /// Row `i`.
    fn row(&self, i: usize) -> &[Value] {
        let width = self.attrs.len();
        &self.values[i * width..(i + 1) * width]
    }

    /// The rows, in order.
    pub(crate) fn rows(&self) -> impl ExactSizeIterator<Item = &[Value]> + '_ {
        (0..self.len).map(|i| self.row(i))
    }

    /// `self ⋈ other`: one hash join on the shared attributes.  `other`
    /// is indexed by its key — a chain of its rows per distinct key, in
    /// row order — and `self` probes it, so the output is `self`'s rows
    /// in order, each followed by its matches in `other`'s order.  Keys
    /// are slices of one gathered buffer and the output is one `Vec`:
    /// no allocation per row.
    fn join(&self, other: &Joined) -> Joined {
        let common: Vec<AttrId> = self.attrs.intersect(other.attrs).iter().collect();
        let attrs = self.attrs.union(other.attrs);
        let width = self.attrs.len();
        // Each output value's source: a column of the probing row, or —
        // offset by its width — a column of the match.
        let sources: Vec<usize> = attrs
            .iter()
            .map(|a| {
                if self.attrs.contains(a) {
                    self.attrs.rank(a)
                } else {
                    width + other.attrs.rank(a)
                }
            })
            .collect();

        let other_key: Vec<usize> = common.iter().map(|&a| other.attrs.rank(a)).collect();
        let k = other_key.len();
        let mut keys: Vec<Value> = Vec::with_capacity(other.len * k);
        for row in other.rows() {
            keys.extend(other_key.iter().map(|&p| row[p]));
        }
        // Key → (first, last) row of its chain; `next` links the chain.
        let mut chains: HashMap<&[Value], (usize, usize)> = HashMap::with_capacity(other.len);
        let mut next = vec![NO_MATCH; other.len];
        for j in 0..other.len {
            match chains.entry(&keys[j * k..(j + 1) * k]) {
                Entry::Occupied(mut chain) => {
                    let (_, last) = chain.get_mut();
                    next[*last] = j;
                    *last = j;
                }
                Entry::Vacant(slot) => {
                    slot.insert((j, j));
                }
            }
        }

        let self_key: Vec<usize> = common.iter().map(|&a| self.attrs.rank(a)).collect();
        let mut probe: Vec<Value> = Vec::with_capacity(k);
        let mut out = Joined {
            attrs,
            len: 0,
            values: Vec::with_capacity(self.len.max(other.len) * attrs.len()),
        };
        for row in self.rows() {
            probe.clear();
            probe.extend(self_key.iter().map(|&p| row[p]));
            let Some(&(first, _)) = chains.get(&probe[..]) else {
                continue;
            };
            let mut j = first;
            while j != NO_MATCH {
                let matched = other.row(j);
                out.values.extend(sources.iter().map(|&s| {
                    if s < width {
                        row[s]
                    } else {
                        matched[s - width]
                    }
                }));
                out.len += 1;
                j = next[j];
            }
        }
        out
    }
}

/// Executes a join over the **distinct** relations `ids` (attribute sets
/// in `attrs`, pushed-down per-relation predicates in `filters`; all
/// three aligned).  Callers dedup repeated relations first — that is the
/// self-join contract: one relation, one cut, however often it is
/// listed.  Returns the joined rows plus the execution report.
pub(crate) fn execute_join(
    era: &Era<'_>,
    ids: &[SchemeId],
    attrs: &[AttrSet],
    filters: &[Predicate],
) -> Result<(Joined, JoinReport), Error> {
    debug_assert_eq!(ids.len(), attrs.len());
    debug_assert_eq!(ids.len(), filters.len());
    let mut report = JoinReport::default();
    if ids.is_empty() {
        return Err(Error::EmptyJoin);
    }
    // One plan per relation: its predicate only ever narrows, its shape
    // flips from join keys (pass 1) to tuples (the fetch).
    let mut plans: Vec<ReadPlan> = filters.iter().cloned().map(ReadPlan::tuples).collect();
    let fetch = |plan: &ReadPlan, i: usize, report: &mut JoinReport| -> Result<Joined, Error> {
        let tuples = era.read(ids[i], plan)?.rows;
        report.tuples_shipped += tuples.len();
        Ok(Joined::of(attrs[i], &tuples))
    };
    let Some(tree) = join_tree(attrs).filter(|_| ids.len() > 1) else {
        // Cyclic, or one relation (no tree to reduce): one filtered read
        // per relation, folded left to right.
        let mut joined = fetch(&plans[0], 0, &mut report)?;
        for (i, plan) in plans.iter().enumerate().skip(1) {
            joined = joined.join(&fetch(plan, i, &mut report)?);
        }
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
        let keys = era.read(ids[i], &plans[i])?.rows;
        report.keys_shipped += keys.len();
        for (k, &attr) in shared.iter().enumerate() {
            let vals: Vec<Value> = keys.iter().map(|row| row[k]).collect();
            plans[p].predicate = std::mem::take(&mut plans[p].predicate).and_in(attr, vals);
        }
        constrained[p] = true;
    }

    // Pass 2, top-down: fetch root-first, narrowing each child with
    // reducers projected from its parent's fetched tuples.
    let mut fetched: Vec<Option<Joined>> = (0..ids.len()).map(|_| None).collect();
    for &i in tree.elimination_order.iter().rev() {
        if let Some(p) = tree.parent[i] {
            // Reversed elimination order visits a parent before its children.
            let parent = fetched[p].as_ref().expect("parents fetch first");
            for attr in attrs[i].intersect(attrs[p]).iter() {
                let pos = attrs[p].rank(attr);
                let mut vals: Vec<Value> = parent.rows().map(|t| t[pos]).collect();
                vals.sort_unstable();
                vals.dedup();
                report.keys_shipped += vals.len();
                plans[i].predicate = std::mem::take(&mut plans[i].predicate).and_in(attr, vals);
            }
        }
        plans[i].shape = ReadShape::Tuples;
        fetched[i] = Some(fetch(&plans[i], i, &mut report)?);
    }

    // Fold: hash-join each child into its parent in elimination order;
    // the root accumulates the full join.
    for &i in &tree.elimination_order {
        let Some(p) = tree.parent[i] else { continue };
        // Pass 2 filled every slot; elimination order removes a node only
        // after all its children, and each node appears in it once.
        let child = fetched[i].take().expect("each edge folds exactly once");
        let parent = fetched[p]
            .as_ref()
            .expect("parent folds after its children");
        fetched[p] = Some(parent.join(&child));
    }
    // The root has no parent, so no fold above took it.
    let joined = fetched[tree.root()].take().expect("root holds the join");
    Ok((joined, report))
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use ids_deps::FdSet;
    use ids_relational::{join_all, DatabaseSchema, Universe};
    use ids_store::{Schema, Store, StoreConfig};

    fn v(n: u64) -> Value {
        Value::int(n)
    }

    fn setup(
        schema: &DatabaseSchema,
        rows: &[(&str, &[(u64, u64)])],
    ) -> (Vec<SchemeId>, Vec<AttrSet>, Store) {
        let handle = Schema::canonical(schema, &FdSet::new());
        let store = Store::open(handle, StoreConfig::default()).unwrap();
        let mut ids = Vec::new();
        let mut attrs = Vec::new();
        for (name, tuples) in rows {
            let id = schema.scheme_by_name(name).unwrap();
            ids.push(id);
            attrs.push(schema.attrs(id));
            for &(a, b) in *tuples {
                store.insert(id, vec![v(a), v(b)]).unwrap();
            }
        }
        (ids, attrs, store)
    }

    /// The flat rows as a set — asserting on the way that the fold
    /// produced no duplicate.
    fn row_set(joined: &Joined) -> BTreeSet<Vec<Value>> {
        let mut set = BTreeSet::new();
        for row in joined.rows() {
            assert!(set.insert(row.to_vec()), "duplicate row {row:?}");
        }
        set
    }

    /// The planned chain join equals the naive fold, ships only what the
    /// filter admits, and reports itself as planned.
    #[test]
    fn planned_acyclic_join_matches_the_naive_fold_and_ships_less() {
        let u = Universe::from_names(["A", "B", "C", "D"]).unwrap();
        let schema = DatabaseSchema::parse(u, &[("R1", "AB"), ("R2", "BC"), ("R3", "CD")]).unwrap();
        let (ids, attrs, store) = setup(
            &schema,
            &[
                ("R1", &[(1, 10), (2, 20), (3, 30)]),
                ("R2", &[(10, 100), (20, 200)]),
                ("R3", &[(100, 7), (200, 8), (999, 9)]),
            ],
        );
        let a = schema.universe().attr("A").unwrap();

        // Unfiltered: planner result ≡ whole-relation fold.
        let empty = vec![Predicate::new(); 3];
        let (planned, report) = execute_join(&store.era().unwrap(), &ids, &attrs, &empty).unwrap();
        assert!(report.planned);
        let state = store.snapshot().unwrap();
        let naive = join_all(ids.iter().map(|&id| state.relation(id))).unwrap();
        assert_eq!(planned.attrs(), naive.attrs());
        let naive: BTreeSet<Vec<Value>> = naive.iter().map(|t| t.to_vec()).collect();
        assert_eq!(row_set(&planned), naive);
        assert_eq!(planned.rows().len(), 2);

        // Filtered on R1.A: one row survives, and only matching tuples
        // ever crossed the store boundary (1 per relation here).
        let filters = vec![
            Predicate::new().and_eq(a, v(1)),
            Predicate::new(),
            Predicate::new(),
        ];
        let (filtered, report) =
            execute_join(&store.era().unwrap(), &ids, &attrs, &filters).unwrap();
        assert!(report.planned);
        let filtered = row_set(&filtered);
        assert_eq!(filtered.len(), 1);
        assert!(filtered.contains(&[v(1), v(10), v(100), v(7)][..]));
        assert_eq!(report.tuples_shipped, 3, "one matching tuple per relation");
        assert!(report.keys_shipped > 0, "reducers were shipped");
    }

    /// Cyclic sets fall back to the (self-join-safe) naive fold and say so.
    #[test]
    fn cyclic_sets_fall_back_to_the_naive_fold() {
        let u = Universe::from_names(["A", "B", "C"]).unwrap();
        let schema = DatabaseSchema::parse(u, &[("AB", "AB"), ("BC", "BC"), ("CA", "AC")]).unwrap();
        let (ids, attrs, store) = setup(
            &schema,
            &[
                ("AB", &[(1, 2), (5, 6)]),
                ("BC", &[(2, 3)]),
                // CA has scheme {A, C}: canonical order (A, C).
                ("CA", &[(1, 3)]),
            ],
        );
        let empty = vec![Predicate::new(); 3];
        let (joined, report) = execute_join(&store.era().unwrap(), &ids, &attrs, &empty).unwrap();
        assert!(!report.planned);
        let joined = row_set(&joined);
        assert_eq!(joined.len(), 1);
        assert!(joined.contains(&[v(1), v(2), v(3)][..]));
        assert_eq!(report.tuples_shipped, 4, "the fold ships every tuple");
        assert_eq!(report.keys_shipped, 0);
    }

    /// The caller-facing degenerate shapes: empty input, single relation.
    #[test]
    fn degenerate_shapes() {
        let u = Universe::from_names(["A", "B"]).unwrap();
        let schema = DatabaseSchema::parse(u, &[("R", "AB")]).unwrap();
        let (ids, attrs, store) = setup(&schema, &[("R", &[(1, 2), (3, 4)])]);
        assert!(matches!(
            execute_join(&store.era().unwrap(), &[], &[], &[]),
            Err(Error::EmptyJoin)
        ));
        let (rel, report) =
            execute_join(&store.era().unwrap(), &ids, &attrs, &[Predicate::new()]).unwrap();
        assert!(!report.planned);
        assert_eq!(rel.rows().len(), 2);
    }

    /// Row order is the parent's: its rows in fetch order, each followed
    /// by its matches in the child's fetch order — and a disjoint pair
    /// is the cartesian product in that same order.
    #[test]
    fn the_fold_is_parent_major_in_fetch_order() {
        let u = Universe::from_names(["A", "B", "C", "D"]).unwrap();
        let ab = u.parse_set("A B").unwrap();
        let bc = u.parse_set("B C").unwrap();
        let d = u.parse_set("D").unwrap();
        let rows = |attrs, tuples: &[&[u64]]| {
            let tuples: Vec<Tuple> = tuples
                .iter()
                .map(|t| t.iter().map(|&n| v(n)).collect())
                .collect();
            Joined::of(attrs, &tuples)
        };
        let parent = rows(ab, &[&[1, 20], &[2, 10], &[3, 99]]);
        let child = rows(bc, &[&[10, 5], &[20, 6], &[10, 7]]);
        let joined = parent.join(&child);
        assert_eq!(joined.attrs(), ab.union(bc));
        let got: Vec<&[Value]> = joined.rows().collect();
        let want: [&[Value]; 3] = [
            &[v(1), v(20), v(6)],
            &[v(2), v(10), v(5)],
            &[v(2), v(10), v(7)],
        ];
        assert_eq!(got, want);

        let product = rows(d, &[&[8], &[9]]).join(&parent);
        let got: Vec<Vec<u64>> = product
            .rows()
            .map(|r| r.iter().map(|x| x.0).collect())
            .collect();
        assert_eq!(
            got,
            [
                [1, 20, 8],
                [2, 10, 8],
                [3, 99, 8],
                [1, 20, 9],
                [2, 10, 9],
                [3, 99, 9]
            ]
        );
    }
}
