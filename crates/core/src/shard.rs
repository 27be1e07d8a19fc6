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
//! reference counted), its scheme's enforcement cover `Fi`, the
//! relation's **key** `K`, one hash index per FD of `Fi` whose left-hand
//! side is not `K`, and the precomputed column positions of every FD's
//! lhs/rhs projection.  It is `Send`: workers can own one per relation.
//! The relation's tuples themselves are passed in by the caller
//! ([`ids_relational::Relation`]), so a shard composes both with a
//! [`ids_relational::DatabaseState`] (sequential engine: one state, many
//! shards) and with a worker-owned `Relation` (concurrent store: each
//! worker owns its relations outright).
//!
//! **A keyed relation is its own key index.**  `K` is the left-hand side
//! of the first FD of `Fi` whose closure under `Fi` covers the scheme
//! (every column when there is none), and the shard files the relation's
//! membership table under `K` ([`Relation::rekey`]).  A tuple agrees on
//! `K` with at most one stored row, so one probe of that table by the
//! tuple's `K` image checks every FD `K → Y` of `Fi`, finds the
//! duplicate, and answers a point read that pins `K`; those FDs have no
//! index of their own.
//!
//! The relation is also where the tuples stay, and **no index holds a
//! copy of a row**.  The index of an FD whose lhs is not `K` keeps one
//! `(slot, count)` entry per distinct lhs image: the slot of one row
//! carrying that image (its *representative*) and how many rows carry
//! it.  It hashes and compares lhs images by reading them through
//! [`Relation::slot_values`], and reads the rhs image the same way.  An
//! opt-in ordered secondary index keeps one entry per *distinct* value,
//! the two ends of that value's chain of slots, and threads the chains
//! through one `[prev, next]` pair per slot beside the slab;
//! [`Relation`]'s slots ascend in insertion order, so appending keeps
//! every chain in that order.  So an insert is one key probe plus
//! `O(|Fi|)` slot-table operations and one `O(log d)` lookup among `d`
//! distinct values per ordered index, a remove `O(|Fi|)` slot-table
//! operations plus an `O(1)` unlink, none of which allocates past table
//! growth or a new distinct value, and a scan reads the tuples back
//! through [`Relation::get`].
//!
//! Slots hold only within a relation epoch.  Every write compares
//! [`Relation::epoch`] before and after it touches the relation, and when
//! the epoch has advanced (a compaction renumbered the slots) it
//! re-derives every FD and ordered index from the live rows.  That costs
//! O(relation), amortised over the removes that caused the compaction.
//! The relation's own table renames its slots as it compacts, so the key
//! needs no re-derivation.

use std::collections::btree_map::{BTreeMap, Entry};
use std::hash::{BuildHasher, Hash, Hasher};
use std::ops::Bound;

use ids_deps::{Fd, FdSet};
use ids_relational::{
    AttrId, AttrSet, Chunked, DatabaseSchema, Guard, Predicate, Relation, RelationalError,
    SchemeId, SlotTable, Tuple, Value,
};

use crate::maintenance::{InsertOutcome, MaintenanceError};

/// Per-FD hash index over the relation's rows: one entry per distinct lhs
/// image, `(representative slot, count of rows with that image)`.  Only
/// an FD whose lhs is not the relation's key has one: the relation's
/// membership table, filed under the key, indexes the others.
///
/// **Any supporter is a valid representative**: every row with the lhs
/// image agrees on the rhs image too (that is the FD), so whichever row
/// the entry names yields both images.  The entry keeps the slot it was
/// created with until the count drops to zero, even after that row is
/// removed: a tombstoned slot's values stay readable until the relation
/// compacts (see [`Relation`]), and a compaction re-derives every entry
/// from live rows.
type FdIndex = SlotTable<u32>;

/// The end of a chain: no previous or next slot.
const NIL: u32 = u32::MAX;

/// An opt-in ordered secondary index on one column: the slots of the
/// rows carrying each value, chained in ascending slot order.  `chains`
/// maps every *distinct* value of the column to the first and last slot
/// of its chain, and `links[slot]` is the `[prev, next]` pair of the
/// row in that slot of [`Relation`]'s slab: one [`Chunked`] record per
/// slot, so the links grow a chunk at a time, as the slab does.  The
/// index holds no tuple copies and no sequence stamps: a scan reads the
/// tuples back through [`Relation::get`].  Within an epoch the relation
/// hands out slots in ascending insertion order, so appending a new row
/// at its value's `last` keeps each chain in the order
/// [`Relation::filter_tuples`] produces (differential tests compare the
/// two paths tuple-for-tuple).
/// An insert is one map lookup and an `O(1)` link; a remove is an
/// `O(1)` unlink that touches the map only at a chain's ends, dropping
/// the value's entry with its last row.  Slots are stable only within a
/// relation epoch, so every write checks [`Relation::epoch`] and rebuilds
/// the chains when the relation has compacted — amortised over the
/// removes that caused it.
#[derive(Debug)]
struct OrderedIndex {
    /// The indexed attribute.
    attr: AttrId,
    /// Its column position (scheme rank), precomputed.
    pos: usize,
    /// The relation epoch the slots in `chains` and `links` belong to.
    epoch: u32,
    /// `(first, last)` slot of each distinct value's chain; never empty.
    chains: BTreeMap<Value, (u32, u32)>,
    /// `[prev, next]` per slot, [`NIL`] at a chain's ends; the pair of a
    /// slot no chain holds is `[NIL, NIL]`.
    links: Chunked<u32>,
}

impl OrderedIndex {
    /// Reads every chain afresh from `rel`.
    fn rebuild(&mut self, rel: &Relation) {
        self.epoch = rel.epoch();
        self.chains.clear();
        self.links.clear();
        for (slot, t) in rel.iter_slots() {
            self.link(t[self.pos], slot);
        }
    }

    /// Appends `slot`, the highest slot handed out so far, to the chain
    /// of `value`.
    fn link(&mut self, value: Value, slot: u32) {
        let s = slot as usize;
        while self.links.len() <= s {
            self.links.push(&[NIL; 2]);
        }
        match self.chains.entry(value) {
            Entry::Vacant(e) => {
                e.insert((slot, slot));
                self.links[s].fill(NIL);
            }
            Entry::Occupied(mut e) => {
                let last = &mut e.get_mut().1;
                debug_assert!(*last < slot, "slots ascend within an epoch");
                self.links[*last as usize][1] = slot;
                self.links[s].copy_from_slice(&[*last, NIL]);
                *last = slot;
            }
        }
    }

    /// Takes `slot` off the chain of `value`.
    fn unlink(&mut self, value: Value, slot: u32) {
        let pair = &mut self.links[slot as usize];
        let (prev, next) = (pair[0], pair[1]);
        pair.fill(NIL);
        if prev != NIL {
            self.links[prev as usize][1] = next;
        }
        if next != NIL {
            self.links[next as usize][0] = prev;
        }
        // The map records only a chain's ends.
        match (prev, next) {
            (NIL, NIL) => {
                self.chains.remove(&value);
            }
            (NIL, next) => {
                if let Some(ends) = self.chains.get_mut(&value) {
                    ends.0 = next;
                }
            }
            (prev, NIL) => {
                if let Some(ends) = self.chains.get_mut(&value) {
                    ends.1 = prev;
                }
            }
            _ => {}
        }
    }

    /// The slots of the chain starting at `first`, ascending.
    fn walk(&self, first: u32) -> impl Iterator<Item = u32> + '_ {
        std::iter::successors(Some(first), |&s| {
            let next = self.links[s as usize][1];
            (next != NIL).then_some(next)
        })
    }

    /// The slots holding `value`, ascending.
    fn slots_of(&self, value: Value) -> impl Iterator<Item = u32> + '_ {
        let first = self.chains.get(&value).map(|&(first, _)| first);
        first.into_iter().flat_map(|first| self.walk(first))
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
    /// Column positions of the relation's key `K`, which its membership
    /// table is filed under (see the module docs).
    key: Box<[usize]>,
    /// The attributes of `K`.
    key_attrs: AttrSet,
    /// One index per FD of `Fi`, aligned with `enforcement.iter()`;
    /// `None` for an FD whose lhs is `K`.
    indexes: Vec<Option<FdIndex>>,
    /// The relation epoch the slots in `indexes` belong to.
    epoch: u32,
    /// Column positions (scheme ranks) of each FD's lhs, precomputed.
    lhs_pos: Vec<Box<[usize]>>,
    /// Column positions of each FD's rhs, precomputed.
    rhs_pos: Vec<Box<[usize]>>,
    /// Per-op scratch, `|Fi|` long once built: each indexed FD's lhs hash
    /// from the probe pass, and whether the image was indexed, reused by
    /// the commit pass.
    probed: Vec<(u64, bool)>,
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
        let positions =
            |set: AttrSet| -> Box<[usize]> { set.iter().map(|a| attrs.rank(a)).collect() };
        let lhs_pos = fi.iter().map(|fd| positions(fd.lhs)).collect();
        let rhs_pos = fi.iter().map(|fd| positions(fd.rhs)).collect();
        let key_attrs = (fi.iter())
            .map(|fd| fd.lhs)
            .find(|&lhs| attrs.is_subset(fi.closure(lhs)))
            .unwrap_or(attrs);
        let indexes = fi.iter().map(|fd| (fd.lhs != key_attrs).then(FdIndex::new));
        RelationShard {
            schema: schema.clone(),
            key: positions(key_attrs),
            key_attrs,
            indexes: indexes.collect(),
            epoch: 0,
            lhs_pos,
            rhs_pos,
            probed: Vec::with_capacity(fi.len()),
            enforcement: fi,
            id,
            ordered: Vec::new(),
        }
    }

    /// Builds a shard over an existing relation instance: indexes every
    /// tuple, then keys `rel` by the shard's key.  Fails with
    /// [`MaintenanceError::BaseStateViolation`] when the instance does
    /// not satisfy `fi` — a base state the local engine must refuse
    /// rather than silently under-enforce — and then leaves `rel` keyed
    /// as it was, so a shard already serving it keeps its lookups.
    ///
    /// The check comes first, with an `FdIndex` for every FD of `fi`,
    /// those on the key included: it costs O(rows) whatever the rows, and
    /// a relation that passes has at most one row per key image, so the
    /// re-keying after it stays O(rows) too.  The key FDs' indexes are
    /// dropped before the shard is handed out.
    pub fn with_relation(
        schema: &DatabaseSchema,
        id: SchemeId,
        fi: FdSet,
        rel: &mut Relation,
    ) -> Result<Self, MaintenanceError> {
        let mut shard = Self::new(schema, id, fi);
        for index in &mut shard.indexes {
            index.get_or_insert_with(FdIndex::new);
        }
        shard.epoch = rel.epoch();
        for (slot, row) in rel.iter_slots() {
            if let Some(violated) = shard.index_row(rel, slot, row) {
                return Err(MaintenanceError::BaseStateViolation {
                    scheme: id,
                    violated,
                });
            }
        }
        for (index, fd) in shard.indexes.iter_mut().zip(shard.enforcement.iter()) {
            if fd.lhs == shard.key_attrs {
                *index = None;
            }
        }
        rel.rekey(&shard.key);
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

    /// Declares an ordered secondary index on `attr` — per-value chains
    /// of slots, in insertion order — and builds it from the current
    /// contents of `rel`, which may hold tombstones.  From
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
            chains: BTreeMap::new(),
            links: Chunked::new(2),
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

    /// Counts `row`, held in `slot` of `rel`, in every FD index, returning
    /// the violated FD when its rhs image contradicts the representative
    /// of its lhs image.
    fn index_row(&mut self, rel: &Relation, slot: u32, row: &[Value]) -> Option<Fd> {
        for (k, fd) in self.enforcement.iter().enumerate() {
            let Some(index) = &mut self.indexes[k] else {
                continue;
            };
            let (lhs, rhs) = (&self.lhs_pos[k], &self.rhs_pos[k]);
            let hash = image_hash(index, lhs.iter().map(|&p| row[p]));
            match index.get_mut(hash, agrees(rel, row, lhs)) {
                Some((rep, _)) if !agrees(rel, row, rhs)(rep) => return Some(*fd),
                Some((_, count)) => *count += 1,
                None => index.insert(hash, slot, 1),
            }
        }
        None
    }

    /// Readies `rel` for a write: files it under the shard's key if it is
    /// keyed otherwise (an empty relation, or one handed over from
    /// elsewhere), and re-derives indexes a compaction left behind.
    fn prepare(&mut self, rel: &mut Relation) {
        rel.rekey(&self.key);
        self.reindex(rel);
    }

    /// Re-derives every FD index, and every ordered index whose epoch is
    /// not `rel`'s, from the live rows of `rel` — after a compaction
    /// renumbered the slots they hold.
    fn reindex(&mut self, rel: &Relation) {
        if self.epoch != rel.epoch() {
            self.epoch = rel.epoch();
            self.indexes.iter_mut().flatten().for_each(FdIndex::clear);
            for (slot, row) in rel.iter_slots() {
                let violated = self.index_row(rel, slot, row);
                debug_assert!(violated.is_none(), "a stored row violates Fi");
            }
        }
        for ix in self.ordered.iter_mut().filter(|ix| ix.epoch != rel.epoch()) {
            ix.rebuild(rel);
        }
    }

    /// Attempts to insert `tuple` (scheme order) into `rel`, probing every
    /// FD of `Fi` before committing anything.  Each image is hashed
    /// exactly once: the key image's hash serves the key probe and the
    /// relation's commit, and the probe pass parks every other FD's hash
    /// in scratch for the commit pass, which probes again only to count
    /// a row under an image already indexed.  Nothing is allocated but
    /// table growth.  The owned form of [`RelationShard::insert_row`].
    pub fn insert(
        &mut self,
        rel: &mut Relation,
        tuple: Vec<Value>,
    ) -> Result<InsertOutcome, MaintenanceError> {
        self.insert_row(rel, &tuple)
    }

    /// [`RelationShard::insert`] of a borrowed row: the relation copies
    /// the values into its slab, so the caller may keep the row anywhere
    /// (the store's writes pass one resolved on the stack).
    pub fn insert_row(
        &mut self,
        rel: &mut Relation,
        tuple: &[Value],
    ) -> Result<InsertOutcome, MaintenanceError> {
        if tuple.len() != self.schema.attrs(self.id).len() {
            return Err(RelationalError::ArityMismatch {
                expected: self.schema.attrs(self.id).len(),
                found: tuple.len(),
            }
            .into());
        }
        self.prepare(rel);
        // The one row that agrees with the tuple on the key.  When it is
        // the tuple, every probe would pass: a duplicate.
        let (key_hash, keyed) = rel.find_key(self.key.iter().map(|&p| tuple[p]));
        if keyed.is_some_and(|s| rel.get(s) == Some(tuple)) {
            return Ok(InsertOutcome::Duplicate);
        }
        // Probe pass: check each FD's rhs image against the representative
        // of the tuple's lhs image — for an FD on the key, the keyed row.
        self.probed.clear();
        for (k, fd) in self.enforcement.iter().enumerate() {
            let (lhs, rhs) = (&self.lhs_pos[k], &self.rhs_pos[k]);
            let (rep, probed) = match &self.indexes[k] {
                None => (keyed, (0, false)),
                Some(index) => {
                    let hash = image_hash(index, lhs.iter().map(|&p| tuple[p]));
                    let found = index.get(hash, agrees(rel, tuple, lhs));
                    (found.map(|(rep, _)| rep), (hash, found.is_some()))
                }
            };
            if rep.is_some_and(|rep| !agrees(rel, tuple, rhs)(rep)) {
                return Ok(InsertOutcome::Rejected {
                    violated: Some(*fd),
                });
            }
            self.probed.push(probed);
        }
        // Commit: the relation first (it can still fail on a full `rel`,
        // and the indexes must never record a tuple the relation
        // refused), then count the new row in every index.
        let epoch = rel.epoch();
        let Some(slot) = rel.insert_hashed(key_hash, tuple)? else {
            return Ok(InsertOutcome::Duplicate);
        };
        if rel.epoch() != epoch {
            // Out of slots, the relation compacted: re-derive everything,
            // the new row included.
            self.reindex(rel);
            return Ok(InsertOutcome::Accepted);
        }
        let row = rel.get(slot).expect("the slot just inserted is live");
        for (k, &(hash, found)) in self.probed.iter().enumerate() {
            let Some(index) = &mut self.indexes[k] else {
                continue;
            };
            if !found {
                index.insert(hash, slot, 1);
            } else if let Some((_, count)) = index.get_mut(hash, agrees(rel, row, &self.lhs_pos[k]))
            {
                *count += 1;
            }
        }
        for ix in &mut self.ordered {
            ix.link(row[ix.pos], slot);
        }
        Ok(InsertOutcome::Accepted)
    }

    /// Evaluates `pred` against `rel`, returning the matching tuples in
    /// insertion order — the shard-side half of query pushdown: only
    /// matching tuples ever leave the owner.  One of three adapters over
    /// the shard's one row visitor, with [`RelationShard::gather`] and
    /// [`RelationShard::count`]; those two copy no match into an
    /// allocation of its own.
    ///
    /// The visitor picks the rows to test by one of three paths.  When
    /// the predicate pins every column of the relation's key `K`, the
    /// lookup is answered in O(1) from the relation's own membership
    /// table, filed under `K`: one probe by the pinned image finds the
    /// unique candidate.  A predicate on a column with an ordered index
    /// reads the candidate slots from it; every other predicate, and
    /// every read of a relation not keyed by `K`, falls back to one
    /// linear pass.  Whatever the path, each candidate is tested in the
    /// slab — an index's or the linear pass's by the predicate compiled
    /// once for the read ([`Predicate::compile`]), the key probe's one
    /// candidate by [`Predicate::matches`] — and the rows come out in
    /// insertion order, exactly as [`Relation::filter_tuples`] returns
    /// them.
    ///
    /// The table is the one the write path keeps anyway, so the
    /// point-lookup fast path adds zero cost to inserts and removes.
    pub fn scan(&self, rel: &Relation, pred: &Predicate) -> Result<Vec<Tuple>, MaintenanceError> {
        pred.validate_against(self.schema.attrs(self.id))?;
        let mut tuples = Vec::new();
        self.visit(rel, pred, |row| tuples.push(Tuple::from(row)));
        Ok(tuples)
    }

    /// How many rows of `rel` match `pred`: the shard's row visitor
    /// counting the rows [`RelationShard::scan`] would copy.  Counting
    /// under the true predicate visits nothing (an O(1) count).
    pub fn count(&self, rel: &Relation, pred: &Predicate) -> Result<usize, MaintenanceError> {
        pred.validate_against(self.schema.attrs(self.id))?;
        if pred.is_true() {
            return Ok(rel.len());
        }
        let mut matched = 0;
        self.visit(rel, pred, |_| matched += 1);
        Ok(matched)
    }

    /// Appends the values of every row of `rel` matching `pred` to
    /// `out`, row after row in insertion order, and returns how many
    /// rows matched: the matches of [`RelationShard::scan`] flattened,
    /// read in place from the slab with no allocation per row.
    pub fn gather(
        &self,
        rel: &Relation,
        pred: &Predicate,
        out: &mut Vec<Value>,
    ) -> Result<usize, MaintenanceError> {
        pred.validate_against(self.schema.attrs(self.id))?;
        let mut matched = 0;
        self.visit(rel, pred, |row| {
            out.extend_from_slice(row);
            matched += 1;
        });
        Ok(matched)
    }

    /// The one row visitor: hands `f` every row of `rel` satisfying
    /// `pred` (already validated against the scheme), in insertion
    /// order, by the path [`RelationShard::scan`] describes.
    fn visit(&self, rel: &Relation, pred: &Predicate, mut f: impl FnMut(&[Value])) {
        let attrs = self.schema.attrs(self.id);
        // Only *equality* conjuncts pin a value the key can be probed
        // with — guards constrain without pinning.  The relation's table
        // is current after every write, so unlike the slot-holding
        // indexes it needs no epoch check; a relation keyed otherwise
        // (handed over, not yet written through this shard) is not
        // probed.  The one candidate is still tested — pins outside `K`,
        // contradictory duplicates and guards apply to it — as it is:
        // for one row, ranking the attributes costs what compiling would,
        // without compiling's allocation.
        let pinned: AttrSet = pred.conjuncts().iter().map(|&(a, _)| a).collect();
        if rel.key() == &*self.key && self.key_attrs.is_subset(pinned) {
            let image = (self.key_attrs.iter()).map(|a| pred.value_of(a).expect("K ⊆ pinned"));
            let found = rel.find_key(image).1.and_then(|slot| rel.get(slot));
            if let Some(row) = found.filter(|row| pred.matches(attrs, row)) {
                f(row);
            }
            return;
        }
        let test = pred.compile(attrs);
        let emit = |slot| {
            if let Some(row) = rel.get(slot).filter(|row| test.matches(row)) {
                f(row);
            }
        };
        if !self.visit_ordered(rel, pred, emit) {
            for row in rel.iter().filter(|row| test.matches(row)) {
                f(row);
            }
        }
    }

    /// The ordered-index path of [`RelationShard::visit`]: when the
    /// predicate constrains an indexed column by equality, set
    /// membership or a range, hands `emit` the candidate slots from the
    /// admitted values' chains in slot order — which is insertion order.
    /// `false` when no index applies.
    fn visit_ordered(&self, rel: &Relation, pred: &Predicate, emit: impl FnMut(u32)) -> bool {
        use Bound::{Excluded, Included, Unbounded};
        for ix in self.ordered.iter().filter(|ix| ix.epoch == rel.epoch()) {
            let run = |lo: Bound<Value>, hi: Bound<Value>| {
                let chains = ix.chains.range((lo, hi));
                chains.flat_map(|(_, &(first, _))| ix.walk(first))
            };
            // An equality pin is the most selective handle, and one
            // value's chain already ascends: no buffer, no sort.
            if let Some(v) = pred.value_of(ix.attr) {
                ix.slots_of(v).for_each(emit);
                return true;
            }
            // Otherwise the first usable guard on the column decides
            // the values whose chains are walked (Ne excludes almost
            // nothing — no help; an unconstrained column tries the next
            // index).
            let Some((_, guard)) = pred
                .guards()
                .iter()
                .find(|(a, g)| *a == ix.attr && !matches!(g, Guard::Ne(_)))
            else {
                continue;
            };
            let mut slots: Vec<u32> = match *guard {
                Guard::In(ref set) => set.iter().flat_map(|&v| ix.slots_of(v)).collect(),
                Guard::Lt(x) => run(Unbounded, Excluded(x)).collect(),
                Guard::Le(x) => run(Unbounded, Included(x)).collect(),
                Guard::Gt(x) => run(Excluded(x), Unbounded).collect(),
                Guard::Ge(x) => run(Included(x), Unbounded).collect(),
                Guard::Range(lo, hi) if lo > hi => Vec::new(),
                Guard::Range(lo, hi) => run(Included(lo), Included(hi)).collect(),
                Guard::Ne(_) => unreachable!("filtered above"),
            };
            // Several values' chains interleave in the relation.
            slots.sort_unstable();
            slots.into_iter().for_each(emit);
            return true;
        }
        false
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
        self.prepare(rel);
        let epoch = rel.epoch();
        let Some(slot) = rel.remove_slot(tuple) else {
            return Ok(false);
        };
        if rel.epoch() != epoch {
            // The remove compacted: re-derive everything from the
            // survivors, which no longer include `tuple`.
            self.reindex(rel);
            return Ok(true);
        }
        // The removed row's values stay in the slab until the next
        // compaction, so an entry whose representative it was still reads
        // the right images while other supporters keep it alive.
        for (lhs, index) in self.lhs_pos.iter().zip(&mut self.indexes) {
            let Some(index) = index else { continue };
            let hash = image_hash(index, lhs.iter().map(|&p| tuple[p]));
            let image = agrees(rel, tuple, lhs);
            if let Some((_, count)) = index.get_mut(hash, &image) {
                *count -= 1;
                if *count == 0 {
                    index.remove(hash, &image);
                }
            }
        }
        for ix in &mut self.ordered {
            ix.unlink(tuple[ix.pos], slot);
        }
        Ok(true)
    }
}

/// The hash `index` files an lhs image under: the image's values in
/// lhs order, so a row's projection and a predicate's pinned key agree.
fn image_hash(index: &FdIndex, image: impl Iterator<Item = Value>) -> u64 {
    let mut h = index.hasher().build_hasher();
    image.for_each(|v| v.hash(&mut h));
    h.finish()
}

/// Whether the row in a slot of `rel` — live, or removed since the last
/// compaction — agrees with `row` on the columns `pos`.
fn agrees<'a>(rel: &'a Relation, row: &'a [Value], pos: &'a [usize]) -> impl Fn(u32) -> bool + 'a {
    move |s| {
        rel.slot_values(s)
            .is_some_and(|held| pos.iter().all(|&p| held[p] == row[p]))
    }
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

    /// splitmix64, the seeded generator of the churn test.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (*state ^ (*state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Every path out of the shard — `scan`, `gather` and `count` —
    /// agrees with the linear reference on the relation itself.
    fn assert_reads_agree(shard: &RelationShard, rel: &Relation, pred: &Predicate) {
        let scanned = shard.scan(rel, pred).unwrap();
        assert_eq!(scanned, rel.filter_tuples(pred), "pred {pred:?}");
        // Gathered after a stale prefix, which it must leave alone.
        let mut gathered = vec![v(u64::MAX)];
        let n = shard.gather(rel, pred, &mut gathered).unwrap();
        assert_eq!(n, scanned.len(), "pred {pred:?}");
        assert_eq!(gathered[0], v(u64::MAX));
        assert_eq!(gathered[1..], scanned.concat(), "pred {pred:?}");
        assert_eq!(shard.count(rel, pred).unwrap(), n, "pred {pred:?}");
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
        let mut shard = RelationShard::with_relation(&schema, id, fds, &mut rel).unwrap();
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
            assert_reads_agree(&shard, &rel, &pred);
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
            assert_reads_agree(&shard, &rel, &pred);
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
            assert_reads_agree(&shard, &rel, &pred);
        }
    }

    #[test]
    fn ordered_index_scans_agree_with_linear_filters_across_compactions() {
        // Same relation as above, driven until the relation compacts —
        // twice — so the indexes are rebuilt from renumbered slots; a
        // second index is declared on already-compacted slots.  Rows
        // come in units of `n`, so the slots span three chunks of links
        // and every compaction moves rows across chunk boundaries.
        let u = Universe::from_names(["A", "B", "C"]).unwrap();
        let schema = DatabaseSchema::parse(u, &[("ABC", "ABC")]).unwrap();
        let fds = FdSet::parse(schema.universe(), &["A -> B"]).unwrap();
        let id = SchemeId(0);
        let mut shard = RelationShard::new(&schema, id, fds);
        let mut rel = Relation::new(schema.attrs(id));
        let a = schema.universe().attr("A").unwrap();
        let c = schema.universe().attr("C").unwrap();
        shard.add_ordered_index(c, &rel).unwrap();
        let per_chunk = Chunked::<u32>::new(2).per_chunk() as u64;
        let n = per_chunk / 25;
        let row = |i: u64| vec![v(i), v(i), v(i % 5)];
        let check = |shard: &RelationShard, rel: &Relation| {
            assert_chains(shard, rel);
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
                Predicate::new().and_eq(c, v(1)).and_gt(a, v(40 * n)), // index + residual
                Predicate::new().and_range(a, v(30 * n), v(90 * n)), // the later index
                Predicate::new().and_in(a, vec![v(95 * n), v(41 * n + 3), v(2)]),
                Predicate::new().and_ge(a, v(50 * n)).and_eq(c, v(0)),
            ] {
                assert_reads_agree(shard, rel, &pred);
            }
        };
        for i in 0..60 * n {
            shard.insert(&mut rel, row(i)).unwrap();
        }
        assert!(60 * n > 2 * per_chunk, "the slots span three chunks");
        // Remove from the front and the middle, out of order, past the
        // point where tombstones outnumber the live tuples.
        for i in (0..60 * n).filter(|i| i % 4 != 3).rev() {
            assert!(shard.remove(&mut rel, &row(i)).unwrap());
        }
        assert_eq!(rel.epoch(), 1);
        check(&shard, &rel);
        shard.add_ordered_index(a, &rel).unwrap();
        for i in 60 * n..100 * n {
            shard.insert(&mut rel, row(i)).unwrap();
        }
        check(&shard, &rel);
        for i in (0..100 * n).filter(|i| i % 3 != 0) {
            shard.remove(&mut rel, &row(i)).unwrap();
        }
        assert!(rel.epoch() >= 2);
        check(&shard, &rel);
        // The rebuilt indexes keep absorbing writes.
        for i in 100 * n..130 * n {
            shard.insert(&mut rel, row(i)).unwrap();
        }
        assert!(shard.remove(&mut rel, &row(100 * n + 1)).unwrap());
        check(&shard, &rel);
    }

    /// The chain invariant of every ordered index current with `rel`:
    /// `prev` and `next` mirror each other, every chain ascends from a
    /// first slot with no `prev` to its recorded `last`, every live row
    /// sits on exactly one chain — its value's — so no map entry has an
    /// empty chain, and a slot on no chain has no links.
    fn assert_chains(shard: &RelationShard, rel: &Relation) {
        for ix in shard.ordered.iter().filter(|ix| ix.epoch == rel.epoch()) {
            let mut chained = Vec::new();
            for (&value, &(first, last)) in &ix.chains {
                assert_eq!(
                    ix.links[first as usize][0], NIL,
                    "{value:?} starts at {first}"
                );
                let chain: Vec<u32> = ix.walk(first).take(ix.links.len() + 1).collect();
                assert!(chain.len() <= ix.links.len(), "{value:?}'s chain loops");
                assert_eq!(
                    chain.last(),
                    Some(&last),
                    "{value:?}'s chain ends at its last"
                );
                for pair in chain.windows(2) {
                    assert!(pair[0] < pair[1], "{value:?}'s chain ascends: {chain:?}");
                    assert_eq!(ix.links[pair[1] as usize][0], pair[0], "prev mirrors next");
                }
                for &s in &chain {
                    let held = rel.get(s).map(|t| t[ix.pos]);
                    assert_eq!(held, Some(value), "slot {s} on {value:?}'s chain");
                }
                chained.extend(chain);
            }
            chained.sort_unstable();
            let live: Vec<u32> = rel.iter_slots().map(|(s, _)| s).collect();
            assert_eq!(chained, live, "every live row on exactly one chain");
            for s in (0..ix.links.len() as u32).filter(|s| live.binary_search(s).is_err()) {
                assert_eq!(ix.links[s as usize], [NIL; 2], "slot {s} is on no chain");
            }
        }
    }

    #[test]
    fn ordered_index_chains_keep_their_invariant_through_every_edge_case() {
        // ABC with A→B and an ordered index on C, declared over a relation
        // that already holds tombstones.  Rows are `(i, i, c)`; the script
        // removes a value's first, middle, last and only row, empties
        // values and refills them, and compacts mid-sequence.  After every
        // step the chains must hold their invariant and every read —
        // guards naming emptied values included — must agree with the
        // linear filter.
        let u = Universe::from_names(["A", "B", "C"]).unwrap();
        let schema = DatabaseSchema::parse(u, &[("ABC", "ABC")]).unwrap();
        let fds = FdSet::parse(schema.universe(), &["A -> B"]).unwrap();
        let id = SchemeId(0);
        let a = schema.universe().attr("A").unwrap();
        let c = schema.universe().attr("C").unwrap();
        let mut shard = RelationShard::new(&schema, id, fds);
        let mut rel = Relation::new(schema.attrs(id));
        let row = |i: u64, cv: u64| vec![v(i), v(i), v(cv)];
        let check = |shard: &RelationShard, rel: &Relation| {
            assert_chains(shard, rel);
            for pred in [
                Predicate::new().and_eq(c, v(1)),
                Predicate::new().and_eq(c, v(2)),
                Predicate::new().and_in(c, vec![v(1), v(2), v(4)]),
                Predicate::new().and_in(c, vec![v(2)]),
                Predicate::new().and_lt(c, v(2)),
                Predicate::new().and_le(c, v(2)),
                Predicate::new().and_gt(c, v(2)),
                Predicate::new().and_ge(c, v(2)),
                Predicate::new().and_ge(c, v(1)),
                Predicate::new().and_range(c, v(2), v(2)),
                Predicate::new().and_range(c, v(1), v(3)),
                Predicate::new().and_eq(c, v(1)).and_gt(a, v(4)),
            ] {
                assert_reads_agree(shard, rel, &pred);
            }
        };
        let step = |shard: &mut RelationShard, rel: &mut Relation, insert: bool, i, cv| {
            if insert {
                let outcome = shard.insert(rel, row(i, cv)).unwrap();
                assert_eq!(outcome, InsertOutcome::Accepted, "insert ({i}, {cv})");
            } else {
                assert!(
                    shard.remove(rel, &row(i, cv)).unwrap(),
                    "remove ({i}, {cv})"
                );
            }
            check(shard, rel);
        };
        // Slot i holds row i: C = 1 in slots 0, 3, 6, 9 and 12, C = 2 in
        // slot 1 alone.  Slot 5 and the last slot, 13, are tombstones
        // when the index is declared.
        let cs = [1, 2, 3, 1, 4, 3, 1, 0, 3, 1, 4, 3, 1, 5];
        for (i, &cv) in cs.iter().enumerate() {
            shard.insert(&mut rel, row(i as u64, cv)).unwrap();
        }
        shard.remove(&mut rel, &row(5, 3)).unwrap();
        shard.remove(&mut rel, &row(13, 5)).unwrap();
        assert!(rel.get(13).is_none() && rel.slot_values(13).is_some());
        shard.add_ordered_index(c, &rel).unwrap();
        check(&shard, &rel);
        // C = 1's first, middle and last row, then C = 2's only row.
        for (i, cv) in [(0, 1), (6, 1), (12, 1), (1, 2)] {
            step(&mut shard, &mut rel, false, i, cv);
        }
        assert!(!shard.ordered[0].chains.contains_key(&v(2)));
        // C = 2 refilled past the trailing tombstone, in the same epoch.
        step(&mut shard, &mut rel, true, 20, 2);
        assert_eq!(rel.epoch(), 0);
        // Emptying C = 1 compacts the relation; C = 1 is refilled after.
        step(&mut shard, &mut rel, false, 3, 1);
        step(&mut shard, &mut rel, false, 9, 1);
        assert_eq!(rel.epoch(), 1);
        for (i, cv) in [(21, 1), (22, 3), (23, 1)] {
            step(&mut shard, &mut rel, true, i, cv);
        }
        // C = 3 is now 2, 8, 11, 22: drop a middle row and the last,
        // then append behind the new last; C = 1 loses its first row.
        for (insert, i, cv) in [
            (false, 8, 3),
            (false, 22, 3),
            (true, 24, 3),
            (false, 21, 1),
            (false, 23, 1),
            (true, 25, 1),
        ] {
            step(&mut shard, &mut rel, insert, i, cv);
        }
        assert_eq!(rel.epoch(), 1);
    }

    /// How many live lhs images of the shard's FD `A → B` over `ABC`, the
    /// one FD with an index, have a tombstoned representative.
    fn tombstoned_representatives(shard: &RelationShard, rel: &Relation) -> usize {
        let k = shard.indexes.iter().position(Option::is_some).unwrap();
        let (lhs, index) = (&shard.lhs_pos[k], shard.indexes[k].as_ref().unwrap());
        let mut images: Vec<Value> = rel.iter().map(|t| t[lhs[0]]).collect();
        images.sort_unstable();
        images.dedup();
        let reps = images.iter().map(|&a| {
            let probe = [a, Value::int(0), Value::int(0)];
            let found = index.get(image_hash(index, [a].into_iter()), agrees(rel, &probe, lhs));
            found.expect("every live image is indexed").0
        });
        reps.filter(|&rep| rel.get(rep).is_none()).count()
    }

    #[test]
    fn fd_representatives_survive_removal_and_compaction() {
        // ABC with A→B (not a key, so an image has many supporters) and C
        // a key, so `C = c` takes the point path through the relation's
        // table: C→AB, the split C→A, C→B, and the transitive C→A with
        // A→B.  Only A→B has an index.
        for cover in [
            &["A -> B", "C -> AB"][..],
            &["A -> B", "C -> A", "C -> B"],
            &["C -> A", "A -> B"],
        ] {
            representatives_survive_removal_and_compaction(cover);
        }
    }

    /// Removes favour each group's oldest row, the one its `A → B` entry
    /// names, and the mix alternates growing and draining so the relation
    /// compacts again and again — with representatives tombstoned at the
    /// time.
    fn representatives_survive_removal_and_compaction(cover: &[&str]) {
        let u = Universe::from_names(["A", "B", "C"]).unwrap();
        let schema = DatabaseSchema::parse(u, &[("ABC", "ABC")]).unwrap();
        let fds = FdSet::parse(schema.universe(), cover).unwrap();
        let id = SchemeId(0);
        let a = schema.universe().attr("A").unwrap();
        let c = schema.universe().attr("C").unwrap();
        let mut shard = RelationShard::new(&schema, id, fds.clone());
        assert_eq!(*shard.key, [2], "{cover:?}");
        assert_eq!(shard.indexes.iter().flatten().count(), 1, "{cover:?}");
        let mut rel = Relation::new(schema.attrs(id));
        shard.add_ordered_index(a, &rel).unwrap();
        const GROUPS: usize = 12;
        // Per group: its B image and its live rows' C values, oldest first.
        let mut b_of: Vec<u64> = (0..GROUPS as u64).collect();
        type Live = std::collections::VecDeque<u64>;
        let mut live: Vec<Live> = vec![Live::new(); GROUPS];
        let row = |g: usize, b: u64, c: u64| vec![v(g as u64), v(b), v(c)];
        // Every group's image still refuses a different B, on `shard` and
        // on any other shard over the same rows.
        let assert_enforced =
            |shard: &mut RelationShard, rel: &mut Relation, live: &[Live], b_of: &[u64]| {
                for g in (0..GROUPS).filter(|&g| !live[g].is_empty()) {
                    let outcome = shard.insert(rel, row(g, b_of[g] + 1, 1 << 40)).unwrap();
                    assert!(
                        matches!(outcome, InsertOutcome::Rejected { .. }),
                        "group {g}"
                    );
                }
            };
        let mut state = 0x5EED_u64;
        let mut next_c = 0;
        let mut dead_rep_compactions = 0;
        let mut snapshots = Vec::new();
        for step in 0..4_000 {
            let x = splitmix(&mut state);
            let g = (x >> 8) as usize % GROUPS;
            let drain = (step / 400) % 2 == 1;
            match x % 100 {
                p if p < if drain { 25 } else { 55 } => {
                    next_c += 1;
                    let outcome = shard.insert(&mut rel, row(g, b_of[g], next_c)).unwrap();
                    assert_eq!(outcome, InsertOutcome::Accepted);
                    live[g].push_back(next_c);
                }
                p if p < 92 => {
                    let Some(&oldest) = live[g].front() else {
                        continue;
                    };
                    let dead_reps = tombstoned_representatives(&shard, &rel);
                    let epoch = rel.epoch();
                    // Mostly the oldest row, sometimes the newest.
                    let cc = if p < 85 {
                        oldest
                    } else {
                        *live[g].back().unwrap()
                    };
                    assert!(shard.remove(&mut rel, &row(g, b_of[g], cc)).unwrap());
                    live[g].retain(|&l| l != cc);
                    if rel.epoch() != epoch && dead_reps > 0 {
                        dead_rep_compactions += 1;
                        assert_eq!(tombstoned_representatives(&shard, &rel), 0);
                    }
                }
                _ => {
                    // A different B: refused while the image has any
                    // supporter, accepted once the last one is gone.
                    next_c += 1;
                    let outcome = shard.insert(&mut rel, row(g, b_of[g] + 1, next_c)).unwrap();
                    if live[g].is_empty() {
                        assert_eq!(outcome, InsertOutcome::Accepted);
                        b_of[g] += 1;
                        live[g].push_back(next_c);
                    } else {
                        assert!(matches!(outcome, InsertOutcome::Rejected { .. }));
                    }
                }
            }
            if step % 97 == 0 {
                assert_enforced(&mut shard, &mut rel, &live, &b_of);
                let some_c = live.iter().flatten().next().copied().unwrap_or(0);
                for pred in [
                    Predicate::new(),
                    Predicate::new().and_eq(a, v(g as u64)),
                    Predicate::new().and_eq(c, v(some_c)),
                    Predicate::new().and_eq(c, v(next_c + 1)),
                    Predicate::new().and_range(a, v(2), v(7)),
                ] {
                    assert_reads_agree(&shard, &rel, &pred);
                }
                assert!(fds.iter().all(|fd| rel.satisfies_fd(fd.lhs, fd.rhs)));
            }
            if step % 1_000 == 500 {
                snapshots.push((rel.clone(), live.clone(), b_of.clone()));
            }
        }
        assert!(rel.epoch() >= 2, "only {} compactions", rel.epoch());
        assert!(
            dead_rep_compactions >= 2,
            "only {dead_rep_compactions} compactions met a tombstoned representative"
        );
        // Shards built over a relation that still holds tombstones — the
        // clones taken mid-churn, and the live relation — enforce the
        // same images and answer the same reads.
        snapshots.push((rel.clone(), live.clone(), b_of.clone()));
        for (mut copy, live, b_of) in snapshots {
            let holds_tombstones = (0..).map_while(|s| copy.slot_values(s)).count() > copy.len();
            assert!(holds_tombstones);
            let mut rebuilt =
                RelationShard::with_relation(&schema, id, fds.clone(), &mut copy).unwrap();
            for pred in [Predicate::new(), Predicate::new().and_eq(a, v(3))] {
                assert_reads_agree(&rebuilt, &copy, &pred);
            }
            assert_enforced(&mut rebuilt, &mut copy, &live, &b_of);
        }
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
        let mut out = Vec::new();
        assert!(matches!(
            shard.gather(&rel, &Predicate::new().and_eq(x, v(1)), &mut out),
            Err(MaintenanceError::Relational(
                RelationalError::SchemaMismatch(_)
            ))
        ));
        assert!(matches!(
            shard.count(&rel, &Predicate::new().and_eq(x, v(1))),
            Err(MaintenanceError::Relational(
                RelationalError::SchemaMismatch(_)
            ))
        ));
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
