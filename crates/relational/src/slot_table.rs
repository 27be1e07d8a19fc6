//! [`SlotTable`]: an open-addressing hash table of `u32` slots that owns
//! no keys.
//!
//! Every keyed structure under a relation already stores its keys once,
//! in a slab or an arena addressed by a `u32` slot: a [`crate::Relation`]'s
//! rows, a shard's per-FD images (read back through the rows), the
//! [`crate::ValuePool`]'s names.  A `SlotTable` indexes such a store
//! without a second copy of any key.  A bucket holds a slot, a 32-bit tag
//! of the key's hash and a small payload `V`; the caller supplies the
//! hash and an `eq(slot)` closure that compares by reading the key back
//! through the slot.
//!
//! Linear probing over a power-of-two bucket array at most 7/8 full, with
//! backward-shift deletion, so a remove leaves no tombstone behind.  A
//! bucket's home is the top bits of its tag, so growth rehashes from the
//! stored tags alone and never reads the caller's store.  Past 2^32
//! buckets (more than 3.7 billion keys) one tag value homes a run of two
//! buckets instead of one, which keeps the load, and so the probe
//! lengths, what they were.
//!
//! Hashes come from the table's own [`RandomState`]: SipHash under a key
//! drawn per table, exactly as std's `HashMap` does.  Keys arrive from
//! clients, and a fixed hash would let them be crafted to collide.

use std::fmt;
use std::hash::RandomState;

/// The slot value marking an empty bucket; never a caller's slot.
const EMPTY: u32 = u32::MAX;

/// Buckets of the first allocation.
const MIN_BUCKETS: usize = 8;

#[derive(Clone, Copy)]
struct Bucket<V> {
    /// The top 32 bits of the key's hash.
    tag: u32,
    /// The caller's slot, or [`EMPTY`].
    slot: u32,
    val: V,
}

impl<V: Default> Bucket<V> {
    fn empty() -> Self {
        Bucket {
            tag: 0,
            slot: EMPTY,
            val: V::default(),
        }
    }
}

/// A hash table from keys stored elsewhere to their `u32` slots, each
/// slot carrying a payload `V` (`()` for a plain set).
///
/// Slots are `0..u32::MAX`; `u32::MAX` itself is reserved.  The table
/// never compares keys itself: it trusts the caller to pass, for one key,
/// the same hash every time (from [`SlotTable::hasher`]) and an `eq` that
/// accepts exactly the slots holding that key.
#[derive(Clone)]
pub struct SlotTable<V = ()> {
    /// Empty, or a power of two of buckets.
    buckets: Vec<Bucket<V>>,
    len: usize,
    hasher: RandomState,
}

impl<V: Copy + Default> Default for SlotTable<V> {
    fn default() -> Self {
        SlotTable {
            buckets: Vec::new(),
            len: 0,
            hasher: RandomState::new(),
        }
    }
}

impl<V> fmt::Debug for SlotTable<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SlotTable")
            .field("len", &self.len)
            .field("buckets", &self.buckets.len())
            .finish()
    }
}

impl<V: Copy + Default> SlotTable<V> {
    /// An empty table; allocates nothing until the first insert.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of slots in the table.
    pub fn len(&self) -> usize {
        self.len
    }

    /// How many buckets the table has allocated; it grows once 7/8 of
    /// them hold a slot.
    pub fn capacity(&self) -> usize {
        self.buckets.len()
    }

    /// True when the table holds no slot.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The keyed hasher every hash passed to this table must come from.
    pub fn hasher(&self) -> &RandomState {
        &self.hasher
    }

    /// The slot (and its payload) whose key has `hash` and which `eq`
    /// accepts.
    pub fn get(&self, hash: u64, eq: impl FnMut(u32) -> bool) -> Option<(u32, V)> {
        let b = &self.buckets[self.find(hash, eq)?];
        Some((b.slot, b.val))
    }

    /// [`SlotTable::get`] with the payload lent to update in place.
    pub fn get_mut(&mut self, hash: u64, eq: impl FnMut(u32) -> bool) -> Option<(u32, &mut V)> {
        let i = self.find(hash, eq)?;
        let b = &mut self.buckets[i];
        Some((b.slot, &mut b.val))
    }

    /// Adds `slot` under `hash`.  The caller has checked that no slot
    /// holding the same key is present.
    ///
    /// # Panics
    ///
    /// On the reserved slot `u32::MAX`.
    pub fn insert(&mut self, hash: u64, slot: u32, val: V) {
        assert_ne!(slot, EMPTY, "slot u32::MAX is reserved");
        // At most 7/8 full after the insert; u64 so no size can overflow.
        if (self.len as u64 + 1) * 8 > self.buckets.len() as u64 * 7 {
            self.grow();
        }
        self.place(Bucket {
            tag: tag(hash),
            slot,
            val,
        });
        self.len += 1;
    }

    /// Takes out the slot [`SlotTable::get`] finds, with its payload.
    pub fn remove(&mut self, hash: u64, eq: impl FnMut(u32) -> bool) -> Option<(u32, V)> {
        let mut hole = self.find(hash, eq)?;
        let removed = self.buckets[hole];
        let mask = self.buckets.len() - 1;
        // Backward shift: pull each later bucket of the run into the hole
        // unless that would move it before its home.
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let b = self.buckets[j];
            if b.slot == EMPTY {
                break;
            }
            if j.wrapping_sub(self.home(b.tag)) & mask >= j.wrapping_sub(hole) & mask {
                self.buckets[hole] = b;
                hole = j;
            }
        }
        self.buckets[hole] = Bucket::empty();
        self.len -= 1;
        Some((removed.slot, removed.val))
    }

    /// Empties the table, keeping its buckets for reuse.
    pub fn clear(&mut self) {
        self.buckets.fill(Bucket::empty());
        self.len = 0;
    }

    /// Renames every slot through `f` — for a store that renumbered its
    /// slots without changing any key (a compaction).  `f` must be
    /// injective and never return `u32::MAX`.
    pub fn remap(&mut self, mut f: impl FnMut(u32) -> u32) {
        for b in self.buckets.iter_mut().filter(|b| b.slot != EMPTY) {
            b.slot = f(b.slot);
            debug_assert_ne!(b.slot, EMPTY);
        }
    }

    /// The bucket holding the slot whose key has `hash` and which `eq`
    /// accepts.
    fn find(&self, hash: u64, mut eq: impl FnMut(u32) -> bool) -> Option<usize> {
        if self.buckets.is_empty() {
            return None;
        }
        let tag = tag(hash);
        let mask = self.buckets.len() - 1;
        let mut i = self.home(tag);
        loop {
            let b = &self.buckets[i];
            if b.slot == EMPTY {
                return None;
            }
            if b.tag == tag && eq(b.slot) {
                return Some(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// The first bucket of `tag`'s probe run.
    fn home(&self, tag: u32) -> usize {
        home(tag, self.buckets.len().trailing_zeros())
    }

    /// Puts `b` in the first empty bucket of its run; there is one, since
    /// the table is never full.
    fn place(&mut self, b: Bucket<V>) {
        let mask = self.buckets.len() - 1;
        let mut i = self.home(b.tag);
        while self.buckets[i].slot != EMPTY {
            i = (i + 1) & mask;
        }
        self.buckets[i] = b;
    }

    /// Doubles the buckets and re-places every entry by its tag.
    fn grow(&mut self) {
        let buckets = (self.buckets.len() * 2).max(MIN_BUCKETS);
        let old = std::mem::replace(&mut self.buckets, vec![Bucket::empty(); buckets]);
        for b in old.into_iter().filter(|b| b.slot != EMPTY) {
            self.place(b);
        }
    }
}

/// The part of a hash a bucket keeps.
fn tag(hash: u64) -> u32 {
    (hash >> 32) as u32
}

/// The home bucket of `tag` among `2^bits` buckets (`1 ≤ bits ≤ 64`):
/// the tag's top `bits` bits, followed past 32 bits by zeros.
fn home(tag: u32, bits: u32) -> usize {
    ((u64::from(tag) << 32) >> (64 - bits)) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::Entry;
    use std::collections::HashMap;
    use std::hash::BuildHasher;

    /// splitmix64, the seeded generator of the churn tests.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (*state ^ (*state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Drives `table` and a std `HashMap` model through the same seeded
    /// churn of inserts, finds and removes over keys `0..universe`,
    /// hashing each key with `hash`; the two must agree at every step.
    fn churn(seed: u64, steps: usize, universe: u64, hash: impl Fn(u64) -> u64) {
        let mut table: SlotTable<u32> = SlotTable::new();
        let mut model: HashMap<u64, (u32, u32)> = HashMap::new();
        // The keys by slot, appended, as the table's users keep them.
        let mut keys: Vec<u64> = Vec::new();
        let mut state = seed;
        let mut peak_buckets = 0;
        for step in 0..steps {
            let x = splitmix(&mut state);
            let key = (x >> 8) % universe;
            let h = hash(key);
            let stored = &keys;
            let eq = |s: u32| stored[s as usize] == key;
            // Every other stretch of the run drains the table, so removes
            // hit long runs as well as short ones.
            let remove_percent = if (step / 2000) % 2 == 1 { 70 } else { 30 };
            match x % 100 {
                p if p < remove_percent => {
                    assert_eq!(table.remove(h, eq), model.remove(&key), "remove {key}");
                }
                p if p < 50 => {
                    assert_eq!(table.get(h, eq), model.get(&key).copied(), "get {key}");
                    if let (Some((_, val)), Some(m)) = (table.get_mut(h, eq), model.get_mut(&key)) {
                        *val += 1;
                        m.1 += 1;
                    }
                }
                _ => match model.entry(key) {
                    Entry::Occupied(_) => assert!(table.get(h, eq).is_some()),
                    Entry::Vacant(vacant) => {
                        let slot = u32::try_from(keys.len()).unwrap();
                        keys.push(key);
                        table.insert(h, slot, 0);
                        vacant.insert((slot, 0));
                    }
                },
            }
            assert_eq!(table.len(), model.len());
            peak_buckets = peak_buckets.max(table.buckets.len());
            if step % 997 == 0 {
                assert_consistent(&table);
            }
        }
        assert_consistent(&table);
        // Every key is where the model says, and nothing else answers.
        for key in 0..universe {
            let got = table.get(hash(key), |s| keys[s as usize] == key);
            assert_eq!(got, model.get(&key).copied(), "final {key}");
        }
        assert!(
            peak_buckets >= 512,
            "crossed too few growths: {peak_buckets}"
        );
    }

    /// Every occupied bucket is reachable from its home without crossing
    /// an empty one (the linear-probing invariant backward shifts keep),
    /// and the count of occupied buckets is `len`.
    fn assert_consistent<V: Copy + Default>(table: &SlotTable<V>) {
        let mask = table.buckets.len().wrapping_sub(1);
        let mut occupied = 0;
        for (i, b) in table.buckets.iter().enumerate() {
            if b.slot == EMPTY {
                continue;
            }
            occupied += 1;
            let mut j = table.home(b.tag);
            while j != i {
                assert_ne!(table.buckets[j].slot, EMPTY, "bucket {i} cut off from home");
                j = (j + 1) & mask;
            }
        }
        assert_eq!(occupied, table.len());
        assert!(table.len() * 8 <= table.buckets.len() * 7);
    }

    #[test]
    fn agrees_with_a_hash_map_under_churn_with_keyed_hashes() {
        let state = RandomState::new();
        churn(0xC0FFEE, 60_000, 4_000, |k| state.hash_one(k));
    }

    #[test]
    fn agrees_with_a_hash_map_when_tags_and_buckets_collide() {
        // Sixteen keys share each tag outright, so the table must fall
        // back to `eq`; distinct tags are spread over the buckets.
        let spread = |k: u64| u64::from((k as u32 / 16).wrapping_mul(0x9E37_79B9)) << 32;
        churn(0xBAD5EED, 60_000, 4_000, spread);
        // Distinct tags, but only 32 homes: about 125 keys per home, so
        // runs are long and merge, and removes shift inside them.
        churn(0x5EED, 60_000, 4_000, |k| ((k % 32) << 27 | k) << 32);
        // One tag for every key: a single run the length of the table.
        churn(7, 6_000, 600, |_| 0xDEAD_BEEF_0000_0000);
    }

    #[test]
    fn a_table_of_millions_of_slots_grows_without_panicking() {
        // The largest table a unit test affords: 2^22 slots cross 19
        // doublings.  Hashes are the slots' own bits, so every bucket
        // position the home function can produce is exercised.
        let n: u32 = if cfg!(debug_assertions) {
            1 << 20
        } else {
            1 << 22
        };
        let mut table = SlotTable::<()>::new();
        let hash = |s: u32| u64::from(s.reverse_bits()) << 32 | u64::from(s);
        for s in 0..n {
            table.insert(hash(s), s, ());
        }
        assert_eq!(table.len(), n as usize);
        assert_eq!(table.buckets.len(), 2 * n as usize);
        for s in (0..n).step_by(997) {
            assert_eq!(table.get(hash(s), |t| t == s), Some((s, ())));
            assert_eq!(table.remove(hash(s), |t| t == s), Some((s, ())));
            assert_eq!(table.get(hash(s), |t| t == s), None);
        }
        // The highest caller slot is an ordinary slot.
        table.insert(hash(u32::MAX - 1), u32::MAX - 1, ());
        assert!(table
            .get(hash(u32::MAX - 1), |t| t == u32::MAX - 1)
            .is_some());
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn homes_past_two_to_the_thirty_second_buckets_stay_spread() {
        // A table of 2^33 buckets (what u32::MAX slots need at 7/8 load)
        // is too large to allocate here; check the home function it would
        // use.  Tags map in order onto every other bucket, so no home is
        // shared and linear probing fills the bucket between.
        assert_eq!(home(0, 33), 0);
        assert_eq!(home(1, 33), 2);
        assert_eq!(home(u32::MAX, 33), (1 << 33) - 2);
        assert_eq!(home(u32::MAX, 32), (1 << 32) - 1);
        assert_eq!(home(u32::MAX, 3), 7);
        assert_eq!(home(0x2000_0000, 3), 1);
    }

    #[test]
    fn clear_and_remap_keep_the_buckets() {
        let state = RandomState::new();
        let mut table = SlotTable::<()>::new();
        for s in 0..100u32 {
            table.insert(state.hash_one(s), s, ());
        }
        let buckets = table.buckets.len();
        // Renumber slot s as s + 1000 without touching any hash.
        table.remap(|s| s + 1000);
        for s in 0..100u32 {
            let slot = table.get(state.hash_one(s), |t| t == s + 1000);
            assert_eq!(slot, Some((s + 1000, ())));
        }
        table.clear();
        assert!(table.is_empty());
        assert_eq!(table.buckets.len(), buckets);
        assert_eq!(table.get(state.hash_one(5u32), |_| true), None);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn the_empty_marker_is_not_a_slot() {
        SlotTable::<()>::new().insert(0, u32::MAX, ());
    }
}
