//! Relation instances.

use std::collections::HashSet;
use std::hash::{BuildHasher, Hash, Hasher};

use crate::attr::AttrId;
use crate::attrset::AttrSet;
use crate::chunked::Chunked;
use crate::error::RelationalError;
use crate::slot_table::SlotTable;
use crate::value::Value;

/// A tuple of a relation scheme: values laid out in ascending attribute-id
/// order of the scheme.  The owned form of a row copied out of a
/// [`Relation`], which itself lends rows as `&[Value]`.
pub type Tuple = Box<[Value]>;

/// An instance of a relation scheme: a duplicate-free set of tuples.
///
/// Every row's values are stored **once**, in a row-major slab (a
/// [`Chunked`] array of `arity` values per record, in fixed-size chunks
/// that never reserve more than one chunk of slack) addressed by a `u32`
/// **slot**.
/// Rows take slots in insertion order (deterministic iteration for
/// reproducible tests and benchmarks).  Membership is a [`SlotTable`] of
/// slots hashed by the row's **key** and compared through the slab, so it
/// owns no copy of any row; membership, insertion *and removal* are O(1).
///
/// The key is a list of column positions, every column by default.  A
/// shard that enforces a key FD `K → …` files the table under `K`
/// ([`Relation::rekey`]) and the table becomes that FD's index: one
/// probe by `K`'s image ([`Relation::find_key`]) finds the only row that
/// can conflict with a new tuple, the row a point read on `K` returns,
/// and, when it equals the tuple, the duplicate.  Membership still
/// compares whole rows, so the table is correct under any key; only its
/// probe runs grow when many rows share a key image.
///
/// A remove takes the slot out of the table and sets its bit in a
/// **tombstone** bitset; iteration skips tombstones.  When tombstones
/// outnumber live rows the slab is compacted in place, order preserved
/// and every surviving row renumbered, the chunks past the survivors are
/// dropped, and [`Relation::epoch`] advances.
/// A slot therefore names its row only **within one epoch**: anything
/// that remembers slots (the shard's indexes) compares epochs and
/// re-derives its slots when they differ.
///
/// **A removed row stays readable until the next compaction**, through
/// [`Relation::slot_values`]: compaction is the only thing that drops a
/// tombstone's values.  The shard's FD indexes rely on this.  An FD entry
/// keeps one representative slot among the rows that share its
/// left-hand side, and removing that row while others still support the
/// entry leaves the entry pointing at the tombstone.  Its values are
/// still the image every supporter agrees on, and the next compaction
/// advances the epoch, which makes the shard pick live representatives
/// again.
#[derive(Clone, Debug)]
pub struct Relation {
    attrs: AttrSet,
    /// `attrs.len()`, the slab's stride, counted once.
    arity: usize,
    /// Slot `s` holds record `values[s]`, its `arity` values, live or
    /// tombstoned.
    values: Chunked<Value>,
    /// Slots handed out since the last compaction (`0..slots`).
    slots: u32,
    /// Bit `s % 64` of word `s / 64` is set once slot `s` is removed.
    dead: Vec<u64>,
    /// Live rows, filed under the hash of their `key` image.
    present: SlotTable,
    /// The column positions `present` hashes, in key order.
    key: Box<[usize]>,
    /// Number of compactions so far (wrapping).
    epoch: u32,
}

/// The hash a [`Relation`]'s membership table files a key image under,
/// as [`Relation::find_key`] computed it.  Nothing else makes one, so
/// [`Relation::insert_hashed`] is never handed an arbitrary number.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KeyHash(u64);

/// The instance over the empty scheme, holding no tuple.
impl Default for Relation {
    fn default() -> Self {
        Relation::new(AttrSet::EMPTY)
    }
}

impl Relation {
    /// Creates an empty instance over the given scheme attributes.
    pub fn new(attrs: AttrSet) -> Self {
        Relation {
            attrs,
            arity: attrs.len(),
            values: Chunked::new(attrs.len()),
            slots: 0,
            dead: Vec::new(),
            present: SlotTable::default(),
            key: (0..attrs.len()).collect(),
            epoch: 0,
        }
    }

    /// The column positions the membership table files rows under, in
    /// key order: every column unless [`Relation::rekey`] chose others.
    pub fn key(&self) -> &[usize] {
        &self.key
    }

    /// Files every row under the column positions `key` instead, a no-op
    /// when `key` is the current key.  Slots and the epoch stay as they
    /// are.  O(rows) when no two rows share a key image; `g` rows that
    /// share one form one probe run and cost O(g²), so a caller checks
    /// that `key` is a key first.
    ///
    /// # Panics
    ///
    /// When a position is not below the arity.
    pub fn rekey(&mut self, key: &[usize]) {
        if *self.key == *key {
            return;
        }
        assert!(
            key.iter().all(|&p| p < self.arity),
            "key column outside the scheme"
        );
        self.key = key.into();
        self.present.clear();
        for s in 0..self.slots {
            if !self.is_dead(s) {
                let hash = self.row_hash(self.row(s));
                self.present.insert(hash, s, ());
            }
        }
    }

    /// The hash the membership table files a key image under: the
    /// table's keyed SipHash over `image`, the values in key order.
    fn key_hash(&self, image: impl IntoIterator<Item = Value>) -> u64 {
        let mut h = self.present.hasher().build_hasher();
        image.into_iter().for_each(|v| v.hash(&mut h));
        h.finish()
    }

    /// The key hash of `image` (values in key order), and the slot of a
    /// live row whose key columns hold `image`.  Under a key no two rows
    /// share, that row is the only one.
    pub fn find_key<I>(&self, image: I) -> (KeyHash, Option<u32>)
    where
        I: IntoIterator<Item = Value> + Clone,
    {
        let hash = self.key_hash(image.clone());
        let (values, key) = (&self.values, &self.key);
        let holds = |s: u32| {
            let r = &values[s as usize];
            key.iter().zip(image.clone()).all(|(&p, v)| r[p] == v)
        };
        let found = self.present.get(hash, holds).map(|(slot, ())| slot);
        (KeyHash(hash), found)
    }

    /// The scheme attributes.
    pub fn attrs(&self) -> AttrSet {
        self.attrs
    }

    /// Scheme width (number of attributes).
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.present.len()
    }

    /// True when the instance holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.present.is_empty()
    }

    /// Inserts a tuple given in scheme order; returns `true` when new.
    pub fn insert(&mut self, tuple: Vec<Value>) -> Result<bool, RelationalError> {
        Ok(self.insert_slot(&tuple)?.is_some())
    }

    /// [`Relation::insert`] that also says where the tuple went: the new
    /// tuple's slot, or `None` for a duplicate.  A relation already
    /// holding `u32::MAX` tuples refuses with
    /// [`RelationalError::RelationFull`], so a count of a relation's
    /// tuples always fits a `u32`.
    pub fn insert_slot(&mut self, tuple: &[Value]) -> Result<Option<u32>, RelationalError> {
        self.check_arity(tuple)?;
        self.insert_hashed(KeyHash(self.row_hash(tuple)), tuple)
    }

    /// [`Relation::insert_slot`] for a tuple whose key image
    /// [`Relation::find_key`] has just hashed to `hash`, so a caller that
    /// probed the key hashes the tuple once.  The hash must be that of
    /// this tuple's image under this relation's current key: only
    /// `find_key` makes a [`KeyHash`], and debug builds check it.
    pub fn insert_hashed(
        &mut self,
        KeyHash(hash): KeyHash,
        tuple: &[Value],
    ) -> Result<Option<u32>, RelationalError> {
        self.check_arity(tuple)?;
        debug_assert_eq!(hash, self.row_hash(tuple), "the tuple's key hash");
        if self.find(hash, tuple).is_some() {
            return Ok(None);
        }
        let slot = self.next_slot(u32::MAX - 1)?;
        self.values.push(tuple);
        if slot % 64 == 0 {
            self.dead.push(0);
        }
        self.slots += 1;
        self.present.insert(hash, slot, ());
        Ok(Some(slot))
    }

    fn check_arity(&self, tuple: &[Value]) -> Result<(), RelationalError> {
        if tuple.len() != self.arity {
            return Err(RelationalError::ArityMismatch {
                expected: self.arity,
                found: tuple.len(),
            });
        }
        Ok(())
    }

    /// The slot the next pushed tuple takes, none above `last`.  When the
    /// slots run out the tombstones are compacted away first, so only a
    /// relation whose every slot is live is full.
    fn next_slot(&mut self, last: u32) -> Result<u32, RelationalError> {
        if self.slots > last {
            self.compact();
        }
        if self.slots > last {
            return Err(RelationalError::RelationFull);
        }
        Ok(self.slots)
    }

    /// Inserts a tuple described by a value function over the scheme's
    /// attributes.
    pub fn insert_with(
        &mut self,
        mut value_of: impl FnMut(AttrId) -> Value,
    ) -> Result<bool, RelationalError> {
        let vals: Vec<Value> = self.attrs.iter().map(&mut value_of).collect();
        self.insert(vals)
    }

    /// Removes a tuple; returns `true` when it was present.
    pub fn remove(&mut self, tuple: &[Value]) -> bool {
        self.remove_slot(tuple).is_some()
    }

    /// [`Relation::remove`] that also says which slot the tuple held —
    /// in the epoch before the call; compare [`Relation::epoch`] around
    /// it to learn whether the remove compacted.
    pub fn remove_slot(&mut self, tuple: &[Value]) -> Option<u32> {
        if tuple.len() != self.arity {
            return None;
        }
        let hash = self.row_hash(tuple);
        let values = &self.values;
        let (slot, ()) = self
            .present
            .remove(hash, |s| &values[s as usize] == tuple)?;
        self.dead[slot as usize / 64] |= 1 << (slot % 64);
        if self.slots as usize - self.len() > self.len() {
            self.compact();
        }
        Some(slot)
    }

    /// Drops every tombstone, keeping the survivors' order, renumbers
    /// them and advances the epoch.  The membership table keeps its
    /// hashes; only its slots are renamed.
    fn compact(&mut self) {
        // A survivor's new slot is the number of survivors before it: the
        // survivors of the words before its word, plus those below it in
        // its own word.
        let mut before = Vec::with_capacity(self.dead.len());
        let mut live = 0usize;
        for word in &self.dead {
            before.push(live);
            live += word.count_zeros() as usize;
        }
        let dead = &self.dead;
        self.present.remap(|s| {
            let word = s as usize / 64;
            let below = !dead[word] & ((1u64 << (s % 64)) - 1);
            (before[word] + below.count_ones() as usize) as u32
        });
        let mut next = 0;
        for s in 0..self.slots {
            if self.is_dead(s) {
                continue;
            }
            self.values.copy_back(s as usize, next);
            next += 1;
        }
        self.values.truncate(next);
        self.slots = next as u32;
        self.dead.clear();
        self.dead.resize(next.div_ceil(64), 0);
        self.epoch = self.epoch.wrapping_add(1);
    }

    /// The slot holding `tuple`, if present.  Slots ascend along
    /// [`Relation::iter`] and stay put until the epoch advances.
    pub fn slot_of(&self, tuple: &[Value]) -> Option<u32> {
        if tuple.len() != self.arity {
            return None;
        }
        self.find(self.row_hash(tuple), tuple)
    }

    /// The tuple in `slot`; `None` for a tombstone or an unused slot.
    pub fn get(&self, slot: u32) -> Option<&[Value]> {
        (slot < self.slots && !self.is_dead(slot)).then(|| self.row(slot))
    }

    /// The values in `slot`, live **or removed since the last
    /// compaction** (see the type docs); `None` only for a slot never
    /// handed out in this epoch.
    pub fn slot_values(&self, slot: u32) -> Option<&[Value]> {
        (slot < self.slots).then(|| self.row(slot))
    }

    /// How many times the slots have been renumbered.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Membership test for a tuple in scheme order.
    pub fn contains(&self, tuple: &[Value]) -> bool {
        self.slot_of(tuple).is_some()
    }

    /// Iterates over tuples in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &[Value]> {
        self.iter_slots().map(|(_, t)| t)
    }

    /// [`Relation::iter`] with each tuple's slot beside it.
    pub fn iter_slots(&self) -> impl Iterator<Item = (u32, &[Value])> {
        (0..self.slots)
            .filter(|&s| !self.is_dead(s))
            .map(|s| (s, self.row(s)))
    }

    /// The hash the membership table files `row` under: its key image's.
    fn row_hash(&self, row: &[Value]) -> u64 {
        self.key_hash(self.key.iter().map(|&p| row[p]))
    }

    /// The live slot holding `tuple`, which hashes to `hash`.
    fn find(&self, hash: u64, tuple: &[Value]) -> Option<u32> {
        let values = &self.values;
        let found = self.present.get(hash, |s| &values[s as usize] == tuple);
        found.map(|(slot, ())| slot)
    }

    /// The values of a slot below `self.slots`.
    fn row(&self, slot: u32) -> &[Value] {
        &self.values[slot as usize]
    }

    fn is_dead(&self, slot: u32) -> bool {
        self.dead[slot as usize / 64] & (1 << (slot % 64)) != 0
    }

    /// The value of `tuple` at `attr` (which must belong to the scheme).
    pub fn value_at(&self, tuple: &[Value], attr: AttrId) -> Value {
        debug_assert!(self.attrs.contains(attr));
        tuple[self.attrs.rank(attr)]
    }

    /// Projects a tuple of this relation onto `x ⊆ attrs`, in `x`'s scheme
    /// order.
    pub fn project_tuple(&self, tuple: &[Value], x: AttrSet) -> Vec<Value> {
        debug_assert!(x.is_subset(self.attrs));
        x.iter().map(|a| tuple[self.attrs.rank(a)]).collect()
    }

    /// The projection `π_X(r)` as a new relation.
    pub fn project(&self, x: AttrSet) -> Relation {
        debug_assert!(x.is_subset(self.attrs));
        let mut out = Relation::new(x);
        for t in self.iter() {
            let projected = self.project_tuple(t, x);
            out.insert(projected).expect("projection preserves arity");
        }
        out
    }

    /// Natural join `self ⋈ other` (hash join on the common attributes).
    pub fn natural_join(&self, other: &Relation) -> Relation {
        let common = self.attrs.intersect(other.attrs);
        let out_attrs = self.attrs.union(other.attrs);
        let mut out = Relation::new(out_attrs);

        // Index `other` by its projection onto the common attributes.
        let mut index: std::collections::HashMap<Vec<Value>, Vec<&[Value]>> =
            std::collections::HashMap::new();
        for t in other.iter() {
            index
                .entry(other.project_tuple(t, common))
                .or_default()
                .push(t);
        }

        for t in self.iter() {
            let key = self.project_tuple(t, common);
            let Some(matches) = index.get(&key) else {
                continue;
            };
            for u in matches {
                let combined: Vec<Value> = out_attrs
                    .iter()
                    .map(|a| {
                        if self.attrs.contains(a) {
                            t[self.attrs.rank(a)]
                        } else {
                            u[other.attrs.rank(a)]
                        }
                    })
                    .collect();
                out.insert(combined).expect("join preserves arity");
            }
        }
        out
    }

    /// Semijoin `self ⋉ other`: the tuples of `self` that join with at least
    /// one tuple of `other`.
    pub fn semijoin(&self, other: &Relation) -> Relation {
        let common = self.attrs.intersect(other.attrs);
        let keys: HashSet<Vec<Value>> = other
            .iter()
            .map(|t| other.project_tuple(t, common))
            .collect();
        let mut out = Relation::new(self.attrs);
        for t in self.iter() {
            if keys.contains(&self.project_tuple(t, common)) {
                out.insert(t.to_vec()).expect("same scheme");
            }
        }
        out
    }

    /// True when the functional dependency `lhs → rhs` holds in this
    /// instance (both sides must be subsets of the scheme).
    pub fn satisfies_fd(&self, lhs: AttrSet, rhs: AttrSet) -> bool {
        debug_assert!(lhs.union(rhs).is_subset(self.attrs));
        let mut seen: std::collections::HashMap<Vec<Value>, Vec<Value>> =
            std::collections::HashMap::new();
        for t in self.iter() {
            let key = self.project_tuple(t, lhs);
            let val = self.project_tuple(t, rhs);
            match seen.entry(key) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    if *e.get() != val {
                        return false;
                    }
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(val);
                }
            }
        }
        true
    }

    /// True when `self` and `other` hold exactly the same tuples over the
    /// same scheme.
    pub fn set_eq(&self, other: &Relation) -> bool {
        self.attrs == other.attrs
            && self.len() == other.len()
            && self.iter().all(|t| other.contains(t))
    }
}

/// Joins a non-empty sequence of relations left to right: `r1 ⋈ r2 ⋈ … ⋈ rn`.
///
/// Returns `None` for an empty input (the natural join has no neutral
/// element over an unknown scheme).
pub fn join_all<'a>(mut rels: impl Iterator<Item = &'a Relation>) -> Option<Relation> {
    let first = rels.next()?.clone();
    Some(rels.fold(first, |acc, r| acc.natural_join(r)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::Universe;

    fn v(n: u64) -> Value {
        Value::int(n)
    }

    fn abc() -> (Universe, AttrSet, AttrSet, AttrSet) {
        let u = Universe::from_names(["A", "B", "C"]).unwrap();
        let a = AttrSet::singleton(u.attr("A").unwrap());
        let b = AttrSet::singleton(u.attr("B").unwrap());
        let c = AttrSet::singleton(u.attr("C").unwrap());
        (u, a, b, c)
    }

    #[test]
    fn insert_dedup_and_contains() {
        let (_, a, b, _) = abc();
        let mut r = Relation::new(a.union(b));
        assert!(r.insert(vec![v(1), v(2)]).unwrap());
        assert!(!r.insert(vec![v(1), v(2)]).unwrap());
        assert!(r.insert(vec![v(1), v(3)]).unwrap());
        assert_eq!(r.len(), 2);
        assert!(r.contains(&[v(1), v(2)]));
        assert!(!r.contains(&[v(9), v(9)]));
    }

    #[test]
    fn arity_checked() {
        let (_, a, b, _) = abc();
        let mut r = Relation::new(a.union(b));
        assert!(matches!(
            r.insert(vec![v(1)]),
            Err(RelationalError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn remove_keeps_order() {
        let (_, a, _, _) = abc();
        let mut r = Relation::new(a);
        r.insert(vec![v(1)]).unwrap();
        r.insert(vec![v(2)]).unwrap();
        r.insert(vec![v(3)]).unwrap();
        assert!(r.remove(&[v(2)]));
        assert!(!r.remove(&[v(2)]));
        let vals: Vec<u64> = r.iter().map(|t| t[0].0).collect();
        assert_eq!(vals, vec![1, 3]);
    }

    /// splitmix64, the seeded generator of the churn test.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (*state ^ (*state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Every read of `r` agrees with the naive model, and slots ascend
    /// along the iteration.
    fn assert_agrees_with_model(r: &Relation, model: &[Vec<Value>]) {
        assert_eq!(r.len(), model.len());
        assert_eq!(r.is_empty(), model.is_empty());
        assert!(r.iter().eq(model.iter().map(|t| &t[..])));
        let mut last = None;
        for ((slot, t), m) in r.iter_slots().zip(model) {
            assert_eq!(t, &m[..]);
            assert!(r.contains(m));
            assert_eq!(r.slot_of(m), Some(slot));
            assert_eq!(r.get(slot), Some(t));
            assert!(last < Some(slot), "slots ascend along iter()");
            last = Some(slot);
        }
        assert_eq!(r.iter_slots().count(), model.len());
        let absent = [v(u64::MAX), v(0)];
        assert!(!r.contains(&absent));
        assert_eq!(r.slot_of(&absent), None);
        // A key image finds a row carrying it exactly when one exists.
        for m in model.iter().take(50).chain([&absent.to_vec()]) {
            let image = r.key().iter().map(|&p| m[p]);
            let found = r.find_key(image.clone()).1.and_then(|s| r.get(s));
            let carrier = model.iter().find(|t| r.key().iter().all(|&p| t[p] == m[p]));
            assert_eq!(found.is_some(), carrier.is_some(), "{m:?}");
            assert!(found.is_none_or(|t| r.key().iter().all(|&p| t[p] == m[p])));
        }
    }

    #[test]
    fn slots_and_tombstones_agree_with_a_naive_vec_under_churn() {
        let (_, a, b, _) = abc();
        let mut r = Relation::new(a.union(b));
        // Rows per chunk of the slab.  The relation grows past three
        // chunks, and compactions move rows across chunk boundaries.
        let per_chunk = Chunked::<Value>::new(2).per_chunk();
        let mut model: Vec<Vec<Value>> = Vec::new();
        let mut members = HashSet::new();
        let mut seed = 0x1D5;
        let mut mid_churn = None;
        let (mut slots, mut moved_across) = (0, 0);
        for step in 0..70_000 {
            let x = splitmix(&mut seed);
            // Fill for 20k steps, then drain for 15k: removes outnumber
            // inserts four to one, so tombstones overtake the live tuples
            // again and again.
            let remove_percent = if step % 35_000 < 20_000 { 10 } else { 80 };
            if x % 100 < remove_percent && !model.is_empty() {
                let t = model.remove((x >> 8) as usize % model.len());
                members.remove(&t);
                // Where the last row sits before and after the remove.
                let last = |r: &Relation, model: &[Vec<Value>]| {
                    (model.last()).map(|m| (r.epoch(), r.slot_of(m).unwrap() as usize))
                };
                let before = last(&r, &model);
                assert!(r.remove(&t));
                if let (Some((epoch, from)), Some((now, to))) = (before, last(&r, &model)) {
                    moved_across += usize::from(epoch != now && from / per_chunk != to / per_chunk);
                }
                assert!(!r.remove(&t));
            } else {
                let t = vec![v((x >> 8) % 1_000_000), v((x >> 40) % 3)];
                let fresh = members.insert(t.clone());
                let slot = r.insert_slot(&t).unwrap();
                assert_eq!(slot.is_some(), fresh);
                if let Some(slot) = slot {
                    slots = slots.max(slot as usize + 1);
                    model.push(t);
                }
            }
            if step % 1000 == 999 {
                assert_agrees_with_model(&r, &model);
            }
            // Re-filed under a shared column, the columns reversed, and
            // back: a key many rows share is slower, never wrong.
            match step {
                17_500 => r.rekey(&[0]),
                35_000 => r.rekey(&[1, 0]),
                52_500 => r.rekey(&[0, 1]),
                _ => {}
            }
            if step == 36_750 {
                let copy = r.clone();
                assert!(copy.iter_slots().eq(r.iter_slots()));
                mid_churn = Some((copy, model.clone()));
            }
        }
        assert!(r.epoch() >= 2, "only {} compactions", r.epoch());
        assert!(
            slots > 2 * per_chunk,
            "{slots} slots span under three chunks"
        );
        assert!(
            moved_across >= 2,
            "{moved_across} compactions moved a row across chunks"
        );
        // The clone kept its own slots while the original churned on.
        let (copy, model_then) = mid_churn.unwrap();
        assert_agrees_with_model(&copy, &model_then);
    }

    #[test]
    fn a_relation_out_of_slots_compacts_before_it_refuses() {
        let (_, a, _, _) = abc();
        let mut r = Relation::new(a);
        for i in 0..4 {
            r.insert(vec![v(i)]).unwrap();
        }
        // Were 3 the last slot, four live tuples would fill the relation.
        assert_eq!(r.next_slot(3), Err(RelationalError::RelationFull));
        assert_eq!(r.len(), 4);
        // One tombstone among three live tuples is too few to compact on
        // remove, so the slots are still used up — until an insert needs
        // one.
        let epoch = r.epoch();
        assert!(r.remove(&[v(1)]));
        assert_eq!(r.epoch(), epoch);
        assert_eq!(r.next_slot(3), Ok(3));
        assert_eq!(r.epoch(), epoch + 1);
        let survivors: Vec<(u32, u64)> = r.iter_slots().map(|(s, t)| (s, t[0].0)).collect();
        assert_eq!(survivors, vec![(0, 0), (1, 2), (2, 3)]);
        assert_eq!(r.slot_of(&[v(3)]), Some(2));
    }

    #[test]
    fn projection_dedups() {
        let (_, a, b, _) = abc();
        let mut r = Relation::new(a.union(b));
        r.insert(vec![v(1), v(10)]).unwrap();
        r.insert(vec![v(1), v(20)]).unwrap();
        let p = r.project(a);
        assert_eq!(p.len(), 1);
        assert!(p.contains(&[v(1)]));
    }

    #[test]
    fn natural_join_matches_on_common_attributes() {
        let (_, a, b, c) = abc();
        let mut ab = Relation::new(a.union(b));
        ab.insert(vec![v(1), v(2)]).unwrap();
        ab.insert(vec![v(3), v(4)]).unwrap();
        let mut bc = Relation::new(b.union(c));
        bc.insert(vec![v(2), v(5)]).unwrap();
        bc.insert(vec![v(2), v(6)]).unwrap();
        bc.insert(vec![v(9), v(9)]).unwrap();

        let j = ab.natural_join(&bc);
        assert_eq!(j.attrs(), a.union(b).union(c));
        assert_eq!(j.len(), 2);
        assert!(j.contains(&[v(1), v(2), v(5)]));
        assert!(j.contains(&[v(1), v(2), v(6)]));
    }

    #[test]
    fn join_with_disjoint_schemes_is_cartesian_product() {
        let (_, a, _, c) = abc();
        let mut ra = Relation::new(a);
        ra.insert(vec![v(1)]).unwrap();
        ra.insert(vec![v(2)]).unwrap();
        let mut rc = Relation::new(c);
        rc.insert(vec![v(7)]).unwrap();
        rc.insert(vec![v(8)]).unwrap();
        assert_eq!(ra.natural_join(&rc).len(), 4);
    }

    #[test]
    fn semijoin_filters() {
        let (_, a, b, _) = abc();
        let mut ab = Relation::new(a.union(b));
        ab.insert(vec![v(1), v(2)]).unwrap();
        ab.insert(vec![v(3), v(4)]).unwrap();
        let mut rb = Relation::new(b);
        rb.insert(vec![v(2)]).unwrap();
        let s = ab.semijoin(&rb);
        assert_eq!(s.len(), 1);
        assert!(s.contains(&[v(1), v(2)]));
    }

    #[test]
    fn satisfies_fd_detects_violation() {
        let (_, a, b, c) = abc();
        let mut r = Relation::new(a.union(b).union(c));
        r.insert(vec![v(1), v(2), v(3)]).unwrap();
        r.insert(vec![v(1), v(2), v(4)]).unwrap();
        assert!(r.satisfies_fd(a, b));
        assert!(!r.satisfies_fd(a, c));
        assert!(!r.satisfies_fd(a.union(b), c));
        assert!(r.satisfies_fd(c, a.union(b)));
    }

    #[test]
    fn join_all_folds() {
        let (_, a, b, c) = abc();
        let mut ab = Relation::new(a.union(b));
        ab.insert(vec![v(1), v(2)]).unwrap();
        let mut bc = Relation::new(b.union(c));
        bc.insert(vec![v(2), v(3)]).unwrap();
        let mut ca = Relation::new(c.union(a));
        ca.insert(vec![v(1), v(3)]).unwrap();
        let j = join_all([&ab, &bc, &ca].into_iter()).unwrap();
        assert_eq!(j.len(), 1);
        assert!(j.contains(&[v(1), v(2), v(3)]));
        assert!(join_all([].into_iter()).is_none());
    }

    #[test]
    fn projection_join_round_trip_contains_original() {
        // r ⊆ π_AB(r) ⋈ π_BC(r): the classic lossy-join inequality, with
        // equality exactly when the decomposition is lossless for r.
        let (_, a, b, c) = abc();
        let mut r = Relation::new(a.union(b).union(c));
        r.insert(vec![v(1), v(0), v(1)]).unwrap();
        r.insert(vec![v(2), v(0), v(2)]).unwrap();
        let ab = r.project(a.union(b));
        let bc = r.project(b.union(c));
        let j = ab.natural_join(&bc);
        assert!(r.iter().all(|t| j.contains(t)));
        assert_eq!(j.len(), 4); // strictly lossy here
    }
}
