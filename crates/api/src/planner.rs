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
//!    received from its own children — is read by [`Era::gather`], and
//!    each attribute it shares with its parent ships that column's
//!    **distinct values** up.  Join keys, not tuples: the values narrow
//!    the parent as per-column `In` guards ([`Joined::reduce`]).
//!    Unconstrained relations ship nothing in this pass.
//! 2. **Top-down** (root first): each relation is fetched, children
//!    narrowed by the same `In` reducers computed from their parent's
//!    already-fetched tuples.  A fetch is [`Era::gather`]: the store
//!    visits the matching rows in its slab, under the relation's lock,
//!    and appends their values to one row-major `Vec<Value>`
//!    ([`Joined`]), so no tuple is boxed on its way out.  The fetched
//!    rows are then folded **flat**: in elimination order each child is
//!    hash-joined into its parent — one hash join per join-tree edge,
//!    straight into another such buffer, with no `Relation` built and no
//!    allocation per row.  The join's table is the crate's keyless
//!    [`SlotTable`] over the child's row numbers, under its own keyed
//!    SipHash (join keys are client data): each row's key is hashed once
//!    and compared in place, never copied.  Rows come out parent-major:
//!    the parent's tuples in fetch order, each followed by its matches in
//!    the child's fetch order.
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
//! ## Scratch
//!
//! A read's working memory — its reads and their predicates, the output
//! positions, every gathered and folded buffer, the fold's table — is a
//! per-thread [`Scratch`], taken out for one read and given back after
//! it, so a steady stream of reads on one thread allocates none of it.
//! The scratch is owned by the read while it runs, never borrowed from
//! the thread: a sink that reads again, on this thread, finds no scratch
//! to share and takes a fresh one.  One left holding more than
//! [`SCRATCH_BYTES`] (a large join's buffers) is freed, not kept.
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

use std::cell::Cell;
use std::hash::{BuildHasher, Hash, Hasher};

use ids_acyclic::join_tree;
use ids_relational::{AttrSet, Predicate, RelationalError, SchemeId, SlotTable, Value};
use ids_store::Era;

use crate::query::JoinReport;
use crate::Error;

/// End of a match chain in [`Joined::join`].
const NO_MATCH: u32 = u32::MAX;

/// The most heap a [`Scratch`] keeps for the next read on its thread.
const SCRATCH_BYTES: usize = 64 * 1024;

/// One relation of a read: its id, its attributes and its filters as a
/// typed predicate.
pub(crate) type Read = (SchemeId, AttrSet, Predicate);

thread_local! {
    /// This thread's [`Scratch`] between reads; empty while a read holds
    /// it.  Boxed, so taking and giving it back moves a pointer.
    static SCRATCH: Cell<Option<Box<Scratch>>> = const { Cell::new(None) };
}

/// The working memory of one read, reused by the next read on the same
/// thread (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// Per distinct relation, first mention first (the self-join
    /// contract).
    pub(crate) reads: Vec<Read>,
    /// Per output column, its position in a result row: a tuple over the
    /// union of the reads' attributes.
    pub(crate) positions: Vec<usize>,
    /// Cleared predicates, their buffers kept for the next reads.
    predicates: Vec<Predicate>,
    /// Empty value buffers for the next gathers and folds.
    buffers: Vec<Vec<Value>>,
    /// Pass 2's fetched relations, by read.
    fetched: Vec<Option<Joined>>,
    /// Pass 1's marks, by read: filtered, or narrowed by a child.
    constrained: Vec<bool>,
    fold: Fold,
}

impl Scratch {
    /// Runs one read in this thread's scratch — or in a new one, when a
    /// read on this thread already holds it — then hands the scratch
    /// back, emptied, unless it has grown past [`SCRATCH_BYTES`].
    pub(crate) fn with<T>(read: impl FnOnce(&mut Scratch) -> T) -> T {
        let mut scratch: Box<Scratch> =
            (SCRATCH.try_with(Cell::take).ok().flatten()).unwrap_or_default();
        let result = read(&mut scratch);
        scratch.clear();
        if scratch.bytes() <= SCRATCH_BYTES {
            let _ = SCRATCH.try_with(|cell| cell.set(Some(scratch)));
        }
        result
    }

    /// Adds relation `id` (over `attrs`) to the read, under the true
    /// predicate.
    pub(crate) fn push_read(&mut self, id: SchemeId, attrs: AttrSet) {
        let predicate = self.predicates.pop().unwrap_or_default();
        self.reads.push((id, attrs, predicate));
    }

    /// A read's rows are done with: their buffer serves the next read.
    pub(crate) fn recycle(&mut self, joined: Joined) {
        recycle(&mut self.buffers, joined);
    }

    /// Empties every part, keeping the buffers.  The predicates are
    /// stacked last read first, so the next read's `i`th relation gets
    /// this read's `i`th buffers back.
    fn clear(&mut self) {
        for (.., mut predicate) in self.reads.drain(..).rev() {
            predicate.clear();
            self.predicates.push(predicate);
        }
        self.positions.clear();
        for joined in self.fetched.drain(..).flatten() {
            recycle(&mut self.buffers, joined);
        }
        self.constrained.clear();
    }

    /// The heap this scratch holds, near enough: every buffer's capacity.
    fn bytes(&self) -> usize {
        fn of<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        let predicates: usize = (self.predicates.iter())
            .map(|p| p.conjuncts().len() * 16 + p.guards().len() * 32)
            .sum();
        let buffers: usize = self.buffers.iter().map(of).sum();
        of(&self.reads)
            + of(&self.positions)
            + of(&self.predicates)
            + predicates
            + of(&self.buffers)
            + buffers
            + of(&self.fetched)
            + of(&self.constrained)
            + self.fold.bytes()
    }
}

/// An empty buffer for the next gather or fold: a recycled one if any.
fn buffer(buffers: &mut Vec<Vec<Value>>) -> Vec<Value> {
    buffers.pop().unwrap_or_default()
}

/// Keeps `joined`'s buffer, emptied, for the next gather or fold.
fn recycle(buffers: &mut Vec<Vec<Value>>, joined: Joined) {
    let mut values = joined.values;
    values.clear();
    buffers.push(values);
}

/// The working memory of [`Joined::join`], kept across folds.
#[derive(Debug, Default)]
struct Fold {
    /// Each distinct key of the indexed side: its chain's first row as
    /// the slot, its last as the payload.
    chains: SlotTable<u32>,
    /// The chains' links, by row.
    next: Vec<u32>,
    /// Each output value's source: a column of the probing row, or —
    /// offset by its width — a column of the match.
    sources: Vec<usize>,
    /// The shared columns' positions in the indexed rows, then in the
    /// probing rows.
    other_key: Vec<usize>,
    self_key: Vec<usize>,
}

impl Fold {
    /// The heap the fold's tables hold (a bucket is three `u32`s).
    fn bytes(&self) -> usize {
        (self.chains.capacity() * 12)
            + self.next.capacity() * 4
            + (self.sources.capacity() + self.other_key.capacity() + self.self_key.capacity()) * 8
    }
}

/// A join result, flat: `len` rows of `width` values each, stored
/// row-major in one `Vec`, every row laid out in `attrs`' ascending
/// attribute order (the layout of a tuple over `attrs`).
#[derive(Debug)]
pub(crate) struct Joined {
    attrs: AttrSet,
    /// `attrs.len()`, counted once.
    width: usize,
    len: usize,
    values: Vec<Value>,
}

impl Joined {
    /// The rows of relation `id` (over `attrs`) matching `predicate`,
    /// gathered by the store straight into `values`, an empty buffer.
    pub(crate) fn gather(
        era: &Era<'_>,
        id: SchemeId,
        attrs: AttrSet,
        predicate: &Predicate,
        mut values: Vec<Value>,
    ) -> Result<Self, Error> {
        let len = era.gather(id, predicate, &mut values)?;
        Ok(Joined {
            attrs,
            width: attrs.len(),
            len,
            values,
        })
    }

    /// The attributes of every row, in row layout order.
    pub(crate) fn attrs(&self) -> AttrSet {
        self.attrs
    }

    /// Row `i`.
    fn row(&self, i: usize) -> &[Value] {
        &self.values[i * self.width..(i + 1) * self.width]
    }

    /// The rows, in order.
    pub(crate) fn rows(&self) -> impl ExactSizeIterator<Item = &[Value]> + '_ {
        (0..self.len).map(|i| self.row(i))
    }

    /// Narrows `pred`, a read of a relation over `onto`, to the rows
    /// that can join one of these: one `In` reducer per shared
    /// attribute, holding that column's distinct values sorted, each
    /// value counted as one key shipped.
    fn reduce(&self, pred: &mut Predicate, onto: AttrSet, report: &mut JoinReport) {
        for attr in self.attrs.intersect(onto).iter() {
            let pos = self.attrs.rank(attr);
            let mut vals: Vec<Value> = Vec::with_capacity(self.len);
            vals.extend(self.rows().map(|row| row[pos]));
            vals.sort_unstable();
            vals.dedup();
            report.keys_shipped += vals.len();
            *pred = std::mem::take(pred).and_in(attr, vals);
        }
    }

    /// `self ⋈ other`: one hash join on the shared attributes.  `other`
    /// is indexed by its key — a chain of its rows per distinct key, in
    /// row order — and `self` probes it, so the output is `self`'s rows
    /// in order, each followed by its matches in `other`'s order.
    ///
    /// The index is a [`SlotTable`] over `other`'s row numbers: a
    /// chain's first row is its slot and its last row the payload, and
    /// keys are compared by reading them back out of the two buffers, so
    /// no key is copied and each row's key is hashed once.  The output is
    /// one buffer, `out` (empty): no allocation per row, and the fold's
    /// own tables come from `fold`, reused across folds.  Refused with
    /// [`RelationalError::RelationFull`] when `other` holds more rows than
    /// a slot addresses, as a relation would be.
    fn join(&self, other: &Joined, fold: &mut Fold, out: Vec<Value>) -> Result<Joined, Error> {
        let common = self.attrs.intersect(other.attrs);
        let attrs = self.attrs.union(other.attrs);
        let width = self.width;
        let Fold {
            chains,
            next,
            sources,
            other_key,
            self_key,
        } = fold;
        sources.clear();
        sources.extend(attrs.iter().map(|a| {
            if self.attrs.contains(a) {
                self.attrs.rank(a)
            } else {
                width + other.attrs.rank(a)
            }
        }));
        other_key.clear();
        other_key.extend(common.iter().map(|a| other.attrs.rank(a)));
        self_key.clear();
        self_key.extend(common.iter().map(|a| self.attrs.rank(a)));
        let (sources, other_key, self_key) = (&sources[..], &other_key[..], &self_key[..]);

        // Each distinct key of `other`: its chain's first row as the
        // slot, its last as the payload; `next` links the chain.
        let rows = u32::try_from(other.len)
            .ok()
            .filter(|&n| n < NO_MATCH)
            .ok_or(RelationalError::RelationFull)?;
        chains.clear();
        let hasher = chains.hasher().clone();
        let hash = |row: &[Value], key: &[usize]| {
            let mut h = hasher.build_hasher();
            key.iter().for_each(|&p| row[p].hash(&mut h));
            h.finish()
        };
        next.clear();
        next.resize(other.len, NO_MATCH);
        for j in 0..rows {
            let row = other.row(j as usize);
            let h = hash(row, other_key);
            let same = |s: u32| (other_key.iter()).all(|&p| other.row(s as usize)[p] == row[p]);
            match chains.get_mut(h, same) {
                Some((_, last)) => {
                    next[*last as usize] = j;
                    *last = j;
                }
                None => chains.insert(h, j, j),
            }
        }

        let mut out = Joined {
            attrs,
            width: attrs.len(),
            len: 0,
            values: out,
        };
        out.values.reserve(self.len.max(other.len) * attrs.len());
        for row in self.rows() {
            let same = |s: u32| {
                let held = other.row(s as usize);
                (other_key.iter().zip(self_key)).all(|(&o, &p)| held[o] == row[p])
            };
            let Some((first, _)) = chains.get(hash(row, self_key), same) else {
                continue;
            };
            let mut j = first;
            while j != NO_MATCH {
                let matched = other.row(j as usize);
                out.values.extend(sources.iter().map(|&s| {
                    if s < width {
                        row[s]
                    } else {
                        matched[s - width]
                    }
                }));
                out.len += 1;
                j = next[j as usize];
            }
        }
        Ok(out)
    }
}

/// Executes a join over the **distinct** relations of `scratch.reads`
/// — each one's id, attribute set and pushed-down predicate, which the
/// reducers narrow in place.  Callers dedup repeated relations first —
/// that is the self-join contract: one relation, one cut, however often
/// it is listed.  Returns the joined rows, in a buffer of the scratch's
/// to hand back with [`Scratch::recycle`], plus the execution report.
pub(crate) fn execute_join(
    era: &Era<'_>,
    scratch: &mut Scratch,
) -> Result<(Joined, JoinReport), Error> {
    let Scratch {
        reads,
        buffers,
        fetched,
        constrained,
        fold,
        ..
    } = scratch;
    let mut report = JoinReport::default();
    let fetch = |(id, attrs, predicate): &Read,
                 buffers: &mut Vec<Vec<Value>>,
                 report: &mut JoinReport|
     -> Result<Joined, Error> {
        let joined = Joined::gather(era, *id, *attrs, predicate, buffer(buffers))?;
        report.tuples_shipped += joined.len;
        Ok(joined)
    };
    let tree = match &reads[..] {
        [] => return Err(Error::EmptyJoin),
        [_] => None,
        _ => join_tree(&reads.iter().map(|r| r.1).collect::<Vec<_>>()),
    };
    let Some(tree) = tree else {
        // Cyclic, or one relation (no tree to reduce): one filtered read
        // per relation, folded left to right.
        let mut joined = fetch(&reads[0], buffers, &mut report)?;
        for read in &reads[1..] {
            let next = fetch(read, buffers, &mut report)?;
            let folded = joined.join(&next, fold, buffer(buffers))?;
            recycle(buffers, std::mem::replace(&mut joined, folded));
            recycle(buffers, next);
        }
        return Ok((joined, report));
    };
    report.planned = true;

    // Pass 1, bottom-up: constrained relations ship distinct join keys
    // into their parents.  A predicate only ever narrows: reducers are
    // conjoined onto it as `In` guards.  The child's gathered tuples
    // leave the store, so they count as shipped.
    constrained.clear();
    constrained.extend(reads.iter().map(|r| !r.2.is_true()));
    for &i in &tree.elimination_order {
        let Some(p) = tree.parent[i] else { continue };
        let onto = reads[p].1;
        if !constrained[i] || reads[i].1.intersect(onto).is_empty() {
            continue;
        }
        let child = fetch(&reads[i], buffers, &mut report)?;
        child.reduce(&mut reads[p].2, onto, &mut report);
        recycle(buffers, child);
        constrained[p] = true;
    }

    // Pass 2, top-down: fetch root-first, narrowing each child with
    // reducers projected from its parent's fetched tuples.
    fetched.clear();
    fetched.resize_with(reads.len(), || None);
    for &i in tree.elimination_order.iter().rev() {
        if let Some(p) = tree.parent[i] {
            // Reversed elimination order visits a parent before its children.
            let parent = fetched[p].as_ref().expect("parents fetch first");
            let onto = reads[i].1;
            parent.reduce(&mut reads[i].2, onto, &mut report);
        }
        fetched[i] = Some(fetch(&reads[i], buffers, &mut report)?);
    }

    // Fold: hash-join each child into its parent in elimination order;
    // the root accumulates the full join.
    for &i in &tree.elimination_order {
        let Some(p) = tree.parent[i] else { continue };
        // Pass 2 filled every slot; elimination order removes a node only
        // after all its children, and each node appears in it once.
        let child = fetched[i].take().expect("each edge folds exactly once");
        let parent = fetched[p].take().expect("parent folds after its children");
        fetched[p] = Some(parent.join(&child, fold, buffer(buffers))?);
        recycle(buffers, parent);
        recycle(buffers, child);
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

    /// A scratch holding the reads of `ids` (over `attrs`) under
    /// `filters`.
    fn reads(ids: &[SchemeId], attrs: &[AttrSet], filters: &[Predicate]) -> Scratch {
        let reads = ids.iter().zip(attrs).zip(filters);
        Scratch {
            reads: reads.map(|((&id, &a), p)| (id, a, p.clone())).collect(),
            ..Scratch::default()
        }
    }

    /// `parent ⋈ child` through a fresh fold.
    fn join(parent: &Joined, child: &Joined) -> Joined {
        parent
            .join(child, &mut Fold::default(), Vec::new())
            .unwrap()
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
        let (planned, report) =
            execute_join(&store.era().unwrap(), &mut reads(&ids, &attrs, &empty)).unwrap();
        assert!(report.planned);
        let state = store.snapshot().unwrap();
        let naive = join_all(ids.iter().map(|&id| state.relation(id))).unwrap();
        assert_eq!(planned.attrs(), naive.attrs());
        let naive: BTreeSet<Vec<Value>> = naive.iter().map(|t| t.to_vec()).collect();
        assert_eq!(row_set(&planned), naive);
        assert_eq!(planned.rows().len(), 2);

        // Filtered on R1.A: one row survives, and only matching tuples
        // ever crossed the store boundary: R1's one match twice (pass 1
        // gathers it to reduce R2, pass 2 fetches it), R2's one match
        // twice (gathered to reduce R3, fetched), R3's once.
        let filters = vec![
            Predicate::new().and_eq(a, v(1)),
            Predicate::new(),
            Predicate::new(),
        ];
        let (filtered, report) =
            execute_join(&store.era().unwrap(), &mut reads(&ids, &attrs, &filters)).unwrap();
        assert!(report.planned);
        let filtered = row_set(&filtered);
        assert_eq!(filtered.len(), 1);
        assert!(filtered.contains(&[v(1), v(10), v(100), v(7)][..]));
        assert_eq!(
            report.tuples_shipped, 5,
            "every gathered match, pass 1's too"
        );
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
        let (joined, report) =
            execute_join(&store.era().unwrap(), &mut reads(&ids, &attrs, &empty)).unwrap();
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
            execute_join(&store.era().unwrap(), &mut Scratch::default()),
            Err(Error::EmptyJoin)
        ));
        let (rel, report) = execute_join(
            &store.era().unwrap(),
            &mut reads(&ids, &attrs, &[Predicate::new()]),
        )
        .unwrap();
        assert!(!report.planned);
        assert_eq!(rel.rows().len(), 2);
    }

    /// Row order is the parent's: its rows in fetch order, each followed
    /// by its matches in the child's fetch order — and a disjoint pair
    /// is the cartesian product in that same order.  The table's `eq`
    /// must compare every column of a composite key, and a long chain of
    /// rows sharing one key must come out whole and in order.
    #[test]
    fn the_fold_is_parent_major_in_fetch_order() {
        let u = Universe::from_names(["A", "B", "C", "D"]).unwrap();
        let ab = u.parse_set("A B").unwrap();
        let bc = u.parse_set("B C").unwrap();
        let d = u.parse_set("D").unwrap();
        let rows = |attrs: AttrSet, tuples: &[&[u64]]| Joined {
            attrs,
            width: attrs.len(),
            len: tuples.len(),
            values: tuples
                .iter()
                .flat_map(|t| t.iter().map(|&n| v(n)))
                .collect(),
        };
        let parent = rows(ab, &[&[1, 20], &[2, 10], &[3, 99]]);
        let child = rows(bc, &[&[10, 5], &[20, 6], &[10, 7]]);
        let joined = join(&parent, &child);
        assert_eq!(joined.attrs(), ab.union(bc));
        let got: Vec<&[Value]> = joined.rows().collect();
        let want: [&[Value]; 3] = [
            &[v(1), v(20), v(6)],
            &[v(2), v(10), v(5)],
            &[v(2), v(10), v(7)],
        ];
        assert_eq!(got, want);

        let product = join(&rows(d, &[&[8], &[9]]), &parent);
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

        // A two-attribute key (A, B): rows agreeing on one column only
        // must not match, and 300 child rows share the key (1, 1) — a
        // chain interleaved with (1, 2) and (2, 1) rows.
        let abc = u.parse_set("A B C").unwrap();
        let abd = u.parse_set("A B D").unwrap();
        let mut child: Vec<Vec<u64>> = Vec::new();
        for i in 0..300 {
            child.push(vec![1, 1, i]);
            child.push(vec![1, 2, 1000 + i]);
            child.push(vec![2, 1, 2000 + i]);
        }
        let child_rows: Vec<&[u64]> = child.iter().map(|t| &t[..]).collect();
        let child = rows(abd, &child_rows);
        let parent = rows(abc, &[&[1, 1, 50], &[2, 2, 51], &[2, 1, 52], &[1, 1, 53]]);
        let got: Vec<Vec<u64>> = (join(&parent, &child).rows())
            .map(|r| r.iter().map(|x| x.0).collect())
            .collect();
        let mut want = Vec::new();
        for (a, b, c, offset) in [(1, 1, 50, 0), (2, 1, 52, 2000), (1, 1, 53, 0)] {
            want.extend((0..300).map(|i| vec![a, b, c, offset + i]));
        }
        assert_eq!(got, want);
    }
}
