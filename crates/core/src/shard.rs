//! Per-relation enforcement shards — the unit of parallelism that
//! independence buys.
//!
//! Theorem 3 reduces maintenance on an independent schema to probing the
//! touched relation's cover `Fi`: no other relation's tuples or indexes
//! are ever consulted.  That is a *soundness proof for sharding* — the
//! per-relation probe/commit machinery can be moved onto its own thread
//! with zero cross-shard coordination.  [`RelationShard`] packages that
//! machinery so both the sequential [`crate::LocalMaintainer`] and the
//! concurrent `ids-store` workers drive the exact same code.
//!
//! A shard owns a cheap [`DatabaseSchema`] handle (schemas are internally
//! reference counted), its scheme's enforcement cover `Fi`, one hash index
//! per FD of `Fi`, and the precomputed column positions of every FD's
//! lhs/rhs projection.  It is `Send`: workers can own one per relation.
//! The relation's tuples themselves are passed in by the caller
//! ([`ids_relational::Relation`]), so a shard composes both with a
//! [`ids_relational::DatabaseState`] (sequential engine: one state, many
//! shards) and with a worker-owned `Relation` (concurrent store: each
//! worker owns its relations outright).
//!
//! The relation is also where the tuples stay: an opt-in ordered
//! secondary index keeps one `(value, slot)` pair per tuple — no tuple
//! copy and no sequence stamp, because [`Relation`]'s slots already
//! ascend in insertion order — so a remove is `O(|Fi|)` hash operations
//! plus one `O(log n)` BTree deletion per index, and a scan reads the
//! tuples back through [`Relation::get`].

use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::ops::Bound;

use ids_deps::{Fd, FdSet};
use ids_relational::{
    AttrId, DatabaseSchema, Guard, Predicate, ReadPlan, ReadReply, Relation, RelationalError,
    SchemeId, Tuple, Value,
};

use crate::maintenance::{InsertOutcome, MaintenanceError};

/// Per-FD hash index: lhs projection → (rhs projection, tuple count).
type FdIndex = HashMap<Tuple, (Tuple, u32)>;

/// An opt-in ordered secondary index on one column: one `(value, slot)`
/// entry per tuple of the relation, the slot being the tuple's position
/// in [`Relation`]'s slot vector.  The index holds no tuple copies and
/// no sequence stamps: a scan reads the tuples back through
/// [`Relation::get`], and because slots ascend in insertion order, the
/// entries of one value are already in the order
/// [`Relation::filter_tuples`] produces (differential tests compare the
/// two paths tuple-for-tuple).  A remove deletes one entry in
/// `O(log n)`.  Slots are stable only within a relation epoch, so every
/// write checks [`Relation::epoch`] and rebuilds the entries when the
/// relation has compacted — amortised over the removes that caused it.
#[derive(Debug)]
struct OrderedIndex {
    /// The indexed attribute.
    attr: AttrId,
    /// Its column position (scheme rank), precomputed.
    pos: usize,
    /// The relation epoch the slots in `entries` belong to.
    epoch: u32,
    /// `(column value, slot)` of every tuple.
    entries: BTreeSet<(Value, u32)>,
}

impl OrderedIndex {
    /// Reads every entry afresh from `rel`.
    fn rebuild(&mut self, rel: &Relation) {
        self.epoch = rel.epoch();
        self.entries = rel
            .iter_slots()
            .map(|(slot, t)| (t[self.pos], slot))
            .collect();
    }
}

/// The per-relation maintenance engine: probes and commits single-tuple
/// modifications against one scheme's enforcement cover `Fi` in `O(|Fi|)`
/// hash operations.
///
/// Sound and complete for global satisfaction **only** on independent
/// schemas (Theorem 3), where `Fi` covers the scheme's projected
/// dependencies `Σi` and `LSAT = WSAT`.
#[derive(Debug)]
pub struct RelationShard {
    schema: DatabaseSchema,
    id: SchemeId,
    enforcement: FdSet,
    /// One index per FD of `Fi`, aligned with `enforcement.iter()`.
    indexes: Vec<FdIndex>,
    /// Column positions (scheme ranks) of each FD's lhs, precomputed.
    lhs_pos: Vec<Box<[usize]>>,
    /// Column positions of each FD's rhs, precomputed.
    rhs_pos: Vec<Box<[usize]>>,
    /// Per-op scratch: the (key, value) projections computed by the probe
    /// pass, reused by the commit pass so nothing is projected twice.
    scratch: Vec<(Tuple, Tuple)>,
    /// Opt-in ordered secondary indexes (see [`OrderedIndex`]).
    ordered: Vec<OrderedIndex>,
}

impl RelationShard {
    /// Builds an empty shard for scheme `id` enforcing the cover `fi`.
    ///
    /// The schema handle is a cheap reference-counted clone; the shard
    /// keeps it so callers never re-supply scheme metadata per operation.
    pub fn new(schema: &DatabaseSchema, id: SchemeId, fi: FdSet) -> Self {
        let attrs = schema.attrs(id);
        let positions = |set: ids_relational::AttrSet| -> Box<[usize]> {
            set.iter().map(|a| attrs.rank(a)).collect()
        };
        let lhs_pos = fi.iter().map(|fd| positions(fd.lhs)).collect();
        let rhs_pos = fi.iter().map(|fd| positions(fd.rhs)).collect();
        RelationShard {
            schema: schema.clone(),
            indexes: fi.iter().map(|_| FdIndex::new()).collect(),
            lhs_pos,
            rhs_pos,
            scratch: Vec::with_capacity(fi.len()),
            enforcement: fi,
            id,
            ordered: Vec::new(),
        }
    }

    /// Builds a shard over an existing relation instance, indexing every
    /// tuple.  Fails with [`MaintenanceError::BaseStateViolation`] when
    /// the instance does not satisfy `fi` — a base state the local engine
    /// must refuse rather than silently under-enforce.
    pub fn with_relation(
        schema: &DatabaseSchema,
        id: SchemeId,
        fi: FdSet,
        rel: &Relation,
    ) -> Result<Self, MaintenanceError> {
        let mut shard = Self::new(schema, id, fi);
        for t in rel.iter() {
            if let Some(violated) = shard.index_tuple(t) {
                return Err(MaintenanceError::BaseStateViolation {
                    scheme: id,
                    violated,
                });
            }
        }
        Ok(shard)
    }

    /// The scheme this shard enforces.
    pub fn id(&self) -> SchemeId {
        self.id
    }

    /// The enforcement cover `Fi`.
    pub fn enforcement(&self) -> &FdSet {
        &self.enforcement
    }

    /// The schema handle the shard carries.
    pub fn schema(&self) -> &DatabaseSchema {
        &self.schema
    }

    /// Declares an ordered (BTree) secondary index on `attr` and builds
    /// it from the current contents of `rel`.  From
    /// then on the index is maintained by the same probe→commit write
    /// path as the FD hash indexes, and [`RelationShard::scan`] answers
    /// equality, `In` and range predicates on `attr` from it without a
    /// linear pass.  A foreign attribute is a typed error; re-declaring
    /// an indexed column is a no-op.
    pub fn add_ordered_index(
        &mut self,
        attr: AttrId,
        rel: &Relation,
    ) -> Result<(), MaintenanceError> {
        let attrs = self.schema.attrs(self.id);
        if !attrs.contains(attr) {
            return Err(RelationalError::SchemaMismatch(
                "secondary index column outside the relation scheme",
            )
            .into());
        }
        if self.ordered.iter().any(|ix| ix.attr == attr) {
            return Ok(());
        }
        let mut ix = OrderedIndex {
            attr,
            pos: attrs.rank(attr),
            epoch: 0,
            entries: BTreeSet::new(),
        };
        ix.rebuild(rel);
        self.ordered.push(ix);
        Ok(())
    }

    /// The columns carrying an ordered secondary index.
    pub fn ordered_columns(&self) -> impl Iterator<Item = AttrId> + '_ {
        self.ordered.iter().map(|ix| ix.attr)
    }

    /// Re-aims the shard at scheme `id` of a *new* schema handle without
    /// touching a single index entry — the O(1) half of an online schema
    /// transition.  Sound only when the target scheme has exactly the
    /// attributes this shard was built over: every precomputed column
    /// position is an attribute *rank* within the scheme, so identical
    /// attribute sets mean identical ranks.  A transition that changes a
    /// relation's columns is a drop + add, never a retarget.
    pub fn retarget(
        &mut self,
        schema: &DatabaseSchema,
        id: SchemeId,
    ) -> Result<(), MaintenanceError> {
        let attrs = schema
            .get_scheme(id)
            .ok_or(MaintenanceError::UnknownScheme(id))?
            .attrs;
        if attrs != self.schema.attrs(self.id) {
            return Err(RelationalError::SchemaMismatch(
                "retarget across different attribute sets",
            )
            .into());
        }
        self.schema = schema.clone();
        self.id = id;
        Ok(())
    }

    /// Records a tuple in every FD index, returning the violated FD when
    /// its projections contradict an already-indexed image.
    fn index_tuple(&mut self, tuple: &[Value]) -> Option<Fd> {
        for (k, fd) in self.enforcement.iter().enumerate() {
            let key: Tuple = self.lhs_pos[k].iter().map(|&p| tuple[p]).collect();
            let val: Tuple = self.rhs_pos[k].iter().map(|&p| tuple[p]).collect();
            if let Some((existing, n)) = self.indexes[k].get_mut(&key) {
                if *existing != val {
                    return Some(*fd);
                }
                *n += 1;
            } else {
                self.indexes[k].insert(key, (val, 1));
            }
        }
        None
    }

    /// Attempts to insert `tuple` (scheme order) into `rel`, probing every
    /// FD of `Fi` before committing anything.  Each lhs/rhs projection is
    /// computed exactly once: the probe pass parks them in scratch and the
    /// commit pass moves them into the indexes.
    pub fn insert(
        &mut self,
        rel: &mut Relation,
        tuple: Vec<Value>,
    ) -> Result<InsertOutcome, MaintenanceError> {
        if tuple.len() != self.schema.attrs(self.id).len() {
            return Err(RelationalError::ArityMismatch {
                expected: self.schema.attrs(self.id).len(),
                found: tuple.len(),
            }
            .into());
        }
        // Probe pass: project once per FD, check against the index.  (A
        // duplicate agrees with its own images and passes; the relation
        // reports it at the commit.)
        self.scratch.clear();
        for (k, fd) in self.enforcement.iter().enumerate() {
            let key: Tuple = self.lhs_pos[k].iter().map(|&p| tuple[p]).collect();
            let val: Tuple = self.rhs_pos[k].iter().map(|&p| tuple[p]).collect();
            if let Some((existing, _)) = self.indexes[k].get(&key) {
                if *existing != val {
                    return Ok(InsertOutcome::Rejected {
                        violated: Some(*fd),
                    });
                }
            }
            self.scratch.push((key, val));
        }
        // Commit: the relation first (it can still fail on a mismatched
        // or full `rel`, and the indexes must never record a tuple the
        // relation refused), then move the parked projections into the
        // indexes.
        let Some(slot) = rel.insert_slot(tuple)? else {
            return Ok(InsertOutcome::Duplicate);
        };
        for (k, (key, val)) in self.scratch.drain(..).enumerate() {
            self.indexes[k].entry(key).or_insert((val, 0)).1 += 1;
        }
        for ix in &mut self.ordered {
            if ix.epoch != rel.epoch() {
                ix.rebuild(rel);
            } else if let Some(t) = rel.get(slot) {
                ix.entries.insert((t[ix.pos], slot));
            }
        }
        Ok(InsertOutcome::Accepted)
    }

    /// Evaluates an equality predicate against `rel`, returning the
    /// matching tuples in insertion order — the shard-side half of query
    /// pushdown: only matching tuples ever leave the owner.
    ///
    /// When the predicate pins every column of some FD of `Fi` whose
    /// attributes span the whole scheme — i.e. the FD's left-hand side is
    /// a *key* of the relation — the lookup is answered in O(1) from the
    /// hash index the shard already maintains for enforcement: the key's
    /// index entry stores the right-hand-side image, and key ∪ image *is*
    /// the unique matching tuple, reconstructed without touching `rel` at
    /// all.  Every other predicate falls back to one linear pass.
    ///
    /// The indexes are maintained by the write path for free, so the
    /// point-lookup fast path adds zero cost to inserts and removes.
    pub fn scan(&self, rel: &Relation, pred: &Predicate) -> Result<Vec<Tuple>, MaintenanceError> {
        pred.validate_against(self.schema.attrs(self.id))?;
        Ok(self.scan_valid(rel, pred))
    }

    /// Answers a [`ReadPlan`] against `rel`: the index-aware
    /// [`RelationShard::scan`] plus the plan's shape, so only what the
    /// shape promises leaves the owner.  The true predicate needs no
    /// index and goes straight to [`Relation::read`] (an O(1) count).
    pub fn read(&self, rel: &Relation, plan: &ReadPlan) -> Result<ReadReply, MaintenanceError> {
        let attrs = self.schema.attrs(self.id);
        plan.validate_against(attrs)?;
        if plan.predicate.is_true() {
            return Ok(rel.read(plan));
        }
        Ok(plan.shape(attrs, self.scan_valid(rel, &plan.predicate)))
    }

    /// [`RelationShard::scan`] for a predicate already validated against
    /// the scheme.
    fn scan_valid(&self, rel: &Relation, pred: &Predicate) -> Vec<Tuple> {
        let attrs = self.schema.attrs(self.id);
        // Only *equality* conjuncts pin a value the hash index can be
        // probed with — guards constrain without pinning.
        let pinned: ids_relational::AttrSet = pred.conjuncts().iter().map(|&(a, _)| a).collect();
        for (k, fd) in self.enforcement.iter().enumerate() {
            // Key FD: lhs ∪ rhs covers the scheme (so lhs determines the
            // whole tuple) and the predicate pins all of lhs.
            if self.lhs_pos[k].len() + self.rhs_pos[k].len() != attrs.len()
                || !fd.lhs.is_subset(pinned)
            {
                continue;
            }
            let key: Vec<Value> = fd
                .lhs
                .iter()
                .map(|a| pred.value_of(a).expect("lhs ⊆ pinned"))
                .collect();
            let Some((image, _)) = self.indexes[k].get(&key[..]) else {
                return Vec::new();
            };
            let mut t = vec![Value::int(0); attrs.len()];
            for (&p, &v) in self.lhs_pos[k].iter().zip(key.iter()) {
                t[p] = v;
            }
            for (&p, &v) in self.rhs_pos[k].iter().zip(image.iter()) {
                t[p] = v;
            }
            // The remaining conjuncts (pins outside lhs, or contradictory
            // duplicates) and any guards still apply to the reconstructed
            // tuple.
            return if pred.matches(attrs, &t) {
                vec![t.into_boxed_slice()]
            } else {
                Vec::new()
            };
        }
        self.scan_ordered(rel, pred)
            .unwrap_or_else(|| rel.filter_tuples(pred))
    }

    /// The ordered-index scan path: when the predicate constrains an
    /// indexed column by equality, set membership or a range, take the
    /// candidate slots from the BTree in slot order — which is insertion
    /// order — read each tuple back from `rel` and apply the *full*
    /// predicate: exactly the result (and order) of a linear
    /// [`Relation::filter_tuples`] pass.  `None` when no index applies.
    fn scan_ordered(&self, rel: &Relation, pred: &Predicate) -> Option<Vec<Tuple>> {
        use Bound::{Excluded, Included, Unbounded};
        for ix in &self.ordered {
            let run = |lo, hi| ix.entries.range((lo, hi)).map(|&(_, slot)| slot);
            let of = |v: Value| run(Included((v, 0)), Included((v, u32::MAX)));
            // An equality pin is the most selective handle, and one
            // value's slots already ascend: no buffer, no sort.
            if let Some(v) = pred.value_of(ix.attr) {
                return Some(fetch(rel, pred, of(v)));
            }
            // Otherwise the first usable guard on the column decides
            // the BTree range (Ne excludes almost nothing — no help;
            // an unconstrained column tries the next index).
            let Some((_, guard)) = pred
                .guards()
                .iter()
                .find(|(a, g)| *a == ix.attr && !matches!(g, Guard::Ne(_)))
            else {
                continue;
            };
            let mut slots: Vec<u32> = match guard {
                Guard::In(set) => set.iter().flat_map(|&v| of(v)).collect(),
                Guard::Lt(x) => run(Unbounded, Excluded((*x, 0))).collect(),
                Guard::Le(x) => run(Unbounded, Included((*x, u32::MAX))).collect(),
                Guard::Gt(x) => run(Excluded((*x, u32::MAX)), Unbounded).collect(),
                Guard::Ge(x) => run(Included((*x, 0)), Unbounded).collect(),
                Guard::Range(lo, hi) if lo > hi => Vec::new(),
                Guard::Range(lo, hi) => {
                    run(Included((*lo, 0)), Included((*hi, u32::MAX))).collect()
                }
                Guard::Ne(_) => unreachable!("filtered above"),
            };
            // Several values' runs interleave in the relation.
            slots.sort_unstable();
            return Some(fetch(rel, pred, slots.into_iter()));
        }
        None
    }

    /// Removes a tuple from `rel`; always satisfaction-preserving under
    /// weak-instance semantics.  Returns `Ok(true)` when the tuple
    /// existed; a tuple of the wrong arity is a typed error
    /// ([`RelationalError::ArityMismatch`]), not a silent `false` — the
    /// same contract as [`RelationShard::insert`].
    pub fn remove(
        &mut self,
        rel: &mut Relation,
        tuple: &[Value],
    ) -> Result<bool, MaintenanceError> {
        if tuple.len() != self.schema.attrs(self.id).len() {
            return Err(RelationalError::ArityMismatch {
                expected: self.schema.attrs(self.id).len(),
                found: tuple.len(),
            }
            .into());
        }
        let Some(slot) = rel.remove_slot(tuple) else {
            return Ok(false);
        };
        for k in 0..self.enforcement.len() {
            let key: Tuple = self.lhs_pos[k].iter().map(|&p| tuple[p]).collect();
            if let Entry::Occupied(mut e) = self.indexes[k].entry(key) {
                e.get_mut().1 -= 1;
                if e.get().1 == 0 {
                    e.remove();
                }
            }
        }
        for ix in &mut self.ordered {
            if ix.epoch != rel.epoch() {
                ix.rebuild(rel);
            } else {
                ix.entries.remove(&(tuple[ix.pos], slot));
            }
        }
        Ok(true)
    }
}

/// Clones out of `rel` the tuples in `slots`, in the order given, that
/// satisfy the whole of `pred`.
fn fetch(rel: &Relation, pred: &Predicate, slots: impl Iterator<Item = u32>) -> Vec<Tuple> {
    let attrs = rel.attrs();
    slots
        .filter_map(|slot| rel.get(slot))
        .filter(|t| pred.matches(attrs, t))
        .cloned()
        .collect()
}

// Compile-time guarantee that a shard can sit behind a lock any thread takes.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<RelationShard>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use ids_relational::Universe;

    fn v(n: u64) -> Value {
        Value::int(n)
    }

    /// Every path out of the shard — `scan`, and `read` in each shape —
    /// agrees with the linear reference on the relation itself.
    fn assert_reads_agree(shard: &RelationShard, rel: &Relation, pred: &Predicate, col: AttrId) {
        assert_eq!(
            shard.scan(rel, pred).unwrap(),
            rel.filter_tuples(pred),
            "pred {pred:?}"
        );
        for plan in [
            ReadPlan::tuples(pred.clone()),
            ReadPlan::distinct_columns(pred.clone(), vec![col]),
            ReadPlan::count(pred.clone()),
        ] {
            assert_eq!(shard.read(rel, &plan).unwrap(), rel.read(&plan), "{plan:?}");
        }
    }

    fn setup() -> (DatabaseSchema, FdSet) {
        let u = Universe::from_names(["C", "T"]).unwrap();
        let schema = DatabaseSchema::parse(u, &[("CT", "CT")]).unwrap();
        let fds = FdSet::parse(schema.universe(), &["C -> T"]).unwrap();
        (schema, fds)
    }

    #[test]
    fn shard_enforces_fi_across_insert_and_remove() {
        let (schema, fds) = setup();
        let id = SchemeId(0);
        let mut shard = RelationShard::new(&schema, id, fds);
        let mut rel = Relation::new(schema.attrs(id));
        assert_eq!(
            shard.insert(&mut rel, vec![v(1), v(2)]).unwrap(),
            InsertOutcome::Accepted
        );
        assert_eq!(
            shard.insert(&mut rel, vec![v(1), v(2)]).unwrap(),
            InsertOutcome::Duplicate
        );
        assert!(matches!(
            shard.insert(&mut rel, vec![v(1), v(3)]).unwrap(),
            InsertOutcome::Rejected { .. }
        ));
        // Remove frees the key.
        assert!(shard.remove(&mut rel, &[v(1), v(2)]).unwrap());
        assert_eq!(
            shard.insert(&mut rel, vec![v(1), v(3)]).unwrap(),
            InsertOutcome::Accepted
        );
    }

    #[test]
    fn with_relation_indexes_existing_tuples() {
        let (schema, fds) = setup();
        let id = SchemeId(0);
        let mut rel = Relation::new(schema.attrs(id));
        rel.insert(vec![v(7), v(70)]).unwrap();
        let mut shard = RelationShard::with_relation(&schema, id, fds, &rel).unwrap();
        assert!(matches!(
            shard.insert(&mut rel, vec![v(7), v(71)]).unwrap(),
            InsertOutcome::Rejected { .. }
        ));
    }

    #[test]
    fn refcounted_insert_survives_duplicate_support() {
        // Two tuples sharing a lhs image: removing one must not free the
        // index entry the other still supports.
        let u = Universe::from_names(["A", "B", "C"]).unwrap();
        let schema = DatabaseSchema::parse(u, &[("ABC", "ABC")]).unwrap();
        let fds = FdSet::parse(schema.universe(), &["A -> B"]).unwrap();
        let id = SchemeId(0);
        let mut shard = RelationShard::new(&schema, id, fds);
        let mut rel = Relation::new(schema.attrs(id));
        shard.insert(&mut rel, vec![v(1), v(2), v(3)]).unwrap();
        shard.insert(&mut rel, vec![v(1), v(2), v(4)]).unwrap();
        assert!(shard.remove(&mut rel, &[v(1), v(2), v(3)]).unwrap());
        // A→B still enforced from the surviving supporter.
        assert!(matches!(
            shard.insert(&mut rel, vec![v(1), v(9), v(5)]).unwrap(),
            InsertOutcome::Rejected { .. }
        ));
    }

    #[test]
    fn scan_point_lookup_agrees_with_linear_filter() {
        // CT with C→T: C is a key, so a predicate pinning C takes the
        // indexed path; both paths must agree with a plain filter.
        let (schema, fds) = setup();
        let id = SchemeId(0);
        let mut shard = RelationShard::new(&schema, id, fds);
        let mut rel = Relation::new(schema.attrs(id));
        for i in 0..50u64 {
            shard.insert(&mut rel, vec![v(i), v(100 + i)]).unwrap();
        }
        let c = schema.universe().attr("C").unwrap();
        let t = schema.universe().attr("T").unwrap();
        let attrs = schema.attrs(id);
        for pred in [
            Predicate::new(),                                   // full scan
            Predicate::new().and_eq(c, v(7)),                   // indexed hit
            Predicate::new().and_eq(c, v(99)),                  // indexed miss
            Predicate::new().and_eq(t, v(107)),                 // linear (T not a key lhs)
            Predicate::new().and_eq(c, v(7)).and_eq(t, v(107)), // indexed + extra pin
            Predicate::new().and_eq(c, v(7)).and_eq(t, v(9)),   // indexed, extra pin fails
            Predicate::new().and_eq(c, v(7)).and_eq(c, v(8)),   // contradictory pins
        ] {
            assert_reads_agree(&shard, &rel, &pred, t);
        }
        // Removes keep the index honest: a freed key stops matching.
        assert!(shard.remove(&mut rel, &[v(7), v(107)]).unwrap());
        assert!(shard
            .scan(&rel, &Predicate::new().and_eq(c, v(7)))
            .unwrap()
            .is_empty());
        assert_eq!(attrs.len(), 2);
    }

    #[test]
    fn guard_only_predicates_never_take_the_key_path_and_never_panic() {
        // A guard pinning the key column must NOT probe the hash index
        // (guards don't pin values); it must fall through to a scan and
        // agree with the linear filter.
        let (schema, fds) = setup();
        let id = SchemeId(0);
        let mut shard = RelationShard::new(&schema, id, fds);
        let mut rel = Relation::new(schema.attrs(id));
        for i in 0..20u64 {
            shard.insert(&mut rel, vec![v(i), v(100 + i)]).unwrap();
        }
        let c = schema.universe().attr("C").unwrap();
        for pred in [
            Predicate::new().and_ne(c, v(3)),
            Predicate::new().and_range(c, v(5), v(9)),
            Predicate::new().and_in(c, vec![v(1), v(4), v(99)]),
            Predicate::new().and_ge(c, v(15)),
        ] {
            assert_reads_agree(&shard, &rel, &pred, c);
        }
    }

    #[test]
    fn ordered_index_scans_agree_with_linear_filters_under_churn() {
        // ABC with A→B (A is not a key: lhs ∪ rhs ≠ scheme), ordered
        // index on C.  Every guard family must match the linear path
        // exactly — contents AND order — across inserts and removes.
        let u = Universe::from_names(["A", "B", "C"]).unwrap();
        let schema = DatabaseSchema::parse(u, &[("ABC", "ABC")]).unwrap();
        let fds = FdSet::parse(schema.universe(), &["A -> B"]).unwrap();
        let id = SchemeId(0);
        let mut shard = RelationShard::new(&schema, id, fds);
        let mut rel = Relation::new(schema.attrs(id));
        let a = schema.universe().attr("A").unwrap();
        let c = schema.universe().attr("C").unwrap();
        // Pre-populate, then declare the index mid-life: it must absorb
        // the existing tuples in insertion order.
        for i in 0..10u64 {
            shard.insert(&mut rel, vec![v(i), v(i), v(i % 4)]).unwrap();
        }
        shard.add_ordered_index(c, &rel).unwrap();
        assert_eq!(shard.ordered_columns().collect::<Vec<_>>(), vec![c]);
        // Redeclaring is a no-op, a foreign column a typed error.
        shard.add_ordered_index(c, &rel).unwrap();
        assert!(shard
            .add_ordered_index(ids_relational::AttrId(63), &rel)
            .is_err());
        for i in 10..30u64 {
            shard.insert(&mut rel, vec![v(i), v(i), v(i % 4)]).unwrap();
        }
        for i in (0..30u64).step_by(3) {
            shard.remove(&mut rel, &[v(i), v(i), v(i % 4)]).unwrap();
        }
        for pred in [
            Predicate::new().and_eq(c, v(2)),
            Predicate::new().and_in(c, vec![v(0), v(3), v(9)]),
            Predicate::new().and_in(c, Vec::new()),
            Predicate::new().and_lt(c, v(2)),
            Predicate::new().and_le(c, v(2)),
            Predicate::new().and_gt(c, v(1)),
            Predicate::new().and_ge(c, v(3)),
            Predicate::new().and_range(c, v(1), v(2)),
            Predicate::new().and_range(c, v(2), v(1)), // inverted: empty
            Predicate::new().and_eq(c, v(1)).and_gt(a, v(10)), // index + residual
            Predicate::new().and_ne(c, v(1)),          // Ne: no index help, linear
        ] {
            assert_reads_agree(&shard, &rel, &pred, a);
        }
    }

    #[test]
    fn ordered_index_scans_agree_with_linear_filters_across_compactions() {
        // Same relation as above, driven until the relation compacts —
        // twice — so the indexes are rebuilt from renumbered slots; a
        // second index is declared on already-compacted slots.
        let u = Universe::from_names(["A", "B", "C"]).unwrap();
        let schema = DatabaseSchema::parse(u, &[("ABC", "ABC")]).unwrap();
        let fds = FdSet::parse(schema.universe(), &["A -> B"]).unwrap();
        let id = SchemeId(0);
        let mut shard = RelationShard::new(&schema, id, fds);
        let mut rel = Relation::new(schema.attrs(id));
        let a = schema.universe().attr("A").unwrap();
        let c = schema.universe().attr("C").unwrap();
        shard.add_ordered_index(c, &rel).unwrap();
        let row = |i: u64| vec![v(i), v(i), v(i % 5)];
        let check = |shard: &RelationShard, rel: &Relation| {
            for pred in [
                Predicate::new().and_eq(c, v(2)),
                Predicate::new().and_eq(c, v(7)), // absent value
                Predicate::new().and_in(c, vec![v(4), v(0), v(9)]),
                Predicate::new().and_in(c, vec![v(3)]),
                Predicate::new().and_in(c, Vec::new()),
                Predicate::new().and_lt(c, v(2)),
                Predicate::new().and_le(c, v(2)),
                Predicate::new().and_gt(c, v(1)),
                Predicate::new().and_ge(c, v(3)),
                Predicate::new().and_range(c, v(1), v(3)),
                Predicate::new().and_range(c, v(3), v(1)), // inverted: empty
                Predicate::new().and_eq(c, v(1)).and_gt(a, v(40)), // index + residual
                Predicate::new().and_range(a, v(30), v(90)), // the later index
                Predicate::new().and_in(a, vec![v(95), v(41), v(2)]),
                Predicate::new().and_ge(a, v(50)).and_eq(c, v(0)),
            ] {
                assert_reads_agree(shard, rel, &pred, a);
            }
        };
        for i in 0..60 {
            shard.insert(&mut rel, row(i)).unwrap();
        }
        // Remove from the front and the middle, out of order, past the
        // point where tombstones outnumber the live tuples.
        for i in (0..60).filter(|i| i % 4 != 3).rev() {
            assert!(shard.remove(&mut rel, &row(i)).unwrap());
        }
        assert_eq!(rel.epoch(), 1);
        check(&shard, &rel);
        shard.add_ordered_index(a, &rel).unwrap();
        for i in 60..100 {
            shard.insert(&mut rel, row(i)).unwrap();
        }
        check(&shard, &rel);
        for i in (0..100).filter(|i| i % 3 != 0) {
            shard.remove(&mut rel, &row(i)).unwrap();
        }
        assert!(rel.epoch() >= 2);
        check(&shard, &rel);
        // The rebuilt indexes keep absorbing writes.
        for i in 100..130 {
            shard.insert(&mut rel, row(i)).unwrap();
        }
        assert!(shard.remove(&mut rel, &row(101)).unwrap());
        check(&shard, &rel);
    }

    #[test]
    fn scan_rejects_foreign_predicate_attributes() {
        let u = Universe::from_names(["C", "T", "X"]).unwrap();
        let schema = DatabaseSchema::parse(u, &[("CT", "CT"), ("X", "X")]).unwrap();
        let fds = FdSet::parse(schema.universe(), &["C -> T"]).unwrap();
        let id = SchemeId(0);
        let shard = RelationShard::new(&schema, id, fds);
        let rel = Relation::new(schema.attrs(id));
        let x = schema.universe().attr("X").unwrap();
        assert!(matches!(
            shard.scan(&rel, &Predicate::new().and_eq(x, v(1))),
            Err(MaintenanceError::Relational(
                RelationalError::SchemaMismatch(_)
            ))
        ));
        for plan in [
            ReadPlan::count(Predicate::new().and_eq(x, v(1))),
            ReadPlan::distinct_columns(Predicate::new(), vec![x]),
        ] {
            assert!(matches!(
                shard.read(&rel, &plan),
                Err(MaintenanceError::Relational(
                    RelationalError::SchemaMismatch(_)
                ))
            ));
        }
    }

    #[test]
    fn arity_mismatch_is_typed() {
        let (schema, fds) = setup();
        let mut shard = RelationShard::new(&schema, SchemeId(0), fds);
        let mut rel = Relation::new(schema.attrs(SchemeId(0)));
        assert!(shard.insert(&mut rel, vec![v(1)]).is_err());
        // Remove surfaces the same error class instead of a silent false.
        assert!(matches!(
            shard.remove(&mut rel, &[v(1)]),
            Err(MaintenanceError::Relational(
                RelationalError::ArityMismatch { .. }
            ))
        ));
    }
}
